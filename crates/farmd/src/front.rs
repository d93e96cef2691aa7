//! The job front end: the one implementation of the client-facing job
//! protocol (DESIGN.md §12, §14).
//!
//! farmd and the router both answer clients through this module. It
//! owns the job table, admission with backpressure, the ring that evicts
//! old terminal records, the `submit`/`status`/`batch`/`wait`/`shutdown`
//! verbs, status and reply formatting, the connection cap, and drain;
//! [`crate::reactor`] is its one accept loop. An [`Executor`] supplies
//! only what differs between the two daemons: farmd's inline check at
//! admission (unknown experiment, warm cache hit), the `ping` and
//! `stats` bodies, and extra verbs (farmd's `cache_*`). Each executor
//! takes queued jobs with [`Front::pop`] — farmd runs them on its worker
//! pool, the router forwards them to shards — and records every outcome
//! through [`Front::finish`], whose at-most-once guard reports a
//! duplicate instead of overwriting a terminal record.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::job::{JobSpec, Verdict};
use crate::json::{self, push_json_str, Value};
use crate::locked;
use crate::server::signal_drain_requested;

/// Terminal job records kept for `status`/`wait`: farmd's default
/// `max_records` and the router's fixed limit. Older terminal records
/// are evicted, oldest first; an evicted id answers `no such job`.
pub(crate) const MAX_RECORDS: usize = 1 << 16;
/// Concurrent client connections: farmd's default `max_conns` and the
/// router's fixed limit.
pub(crate) const MAX_CONNS: usize = 4096;
/// Most ids a single `wait` may watch: bounds reply size and the
/// per-wakeup completion scan.
const MAX_WAIT_IDS: usize = 4096;
const DEFAULT_WAIT_TIMEOUT_MS: u64 = 30_000;
const MAX_WAIT_TIMEOUT_MS: u64 = 600_000;
/// Longest an idle executor thread sleeps before it rechecks the kill
/// and drain flags.
const RECHECK: Duration = Duration::from_millis(100);

/// What a daemon puts behind the shared front end.
pub trait Executor: Send + Sync + Sized + 'static {
    /// Refuse `submit` lines before parsing them while the queue is
    /// full, so an overloaded daemon does not spend the core it needs
    /// for draining on parsing requests it will turn away. Sound only
    /// when [`Executor::admit`] never answers inline: a farmd warm hit
    /// must still be served while its queue is full.
    const SHED_BEFORE_PARSE: bool = false;

    /// Check a job before it is queued. `Err` refuses it; `Ok(Some)`
    /// answers it inline with cached result bytes, never touching the
    /// queue; `Ok(None)` queues it.
    fn admit(&self, spec: &JobSpec) -> Result<Option<Vec<u8>>, String> {
        let _ = spec;
        Ok(None)
    }

    /// The `ping` reply.
    fn ping(&self) -> String;

    /// The `stats` reply.
    fn stats(&self, front: &Front<Self>) -> String;

    /// Answer a verb the front end does not know; `None` means
    /// `unknown op`. `line` is the raw request (farmd's `cache_push`
    /// splices its `result` bytes verbatim).
    fn verb(&self, op: &str, v: &Value, line: &str) -> Option<String> {
        let _ = (op, v, line);
        None
    }
}

/// One job's state in the table.
#[derive(Debug, Clone)]
pub enum State {
    Queued,
    Running {
        attempts: u32,
    },
    Done {
        /// Canonical single-line JSON, spliced verbatim into replies.
        bytes: Arc<Vec<u8>>,
        cached: bool,
        /// Computed from a mid-run checkpoint left by an earlier
        /// (killed or failed-over) attempt at the same job.
        resumed: bool,
        wall_ms: f64,
    },
    Failed {
        verdict: Verdict,
        error: String,
        attempts: u32,
    },
}

impl State {
    pub(crate) fn terminal(&self) -> bool {
        matches!(self, State::Done { .. } | State::Failed { .. })
    }
}

struct Record {
    spec: JobSpec,
    state: State,
    submitted: Instant,
}

type Table = HashMap<u64, Record>;

/// A queued job handed to an executor by [`Front::pop`].
pub struct Claim {
    pub id: u64,
    pub spec: JobSpec,
    pub submitted: Instant,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    quarantined: AtomicU64,
    deadline_expired: AtomicU64,
    resumed: AtomicU64,
}

/// A snapshot of the job counters, for `stats` bodies.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Jobs admitted (refusals are not counted).
    pub submitted: u64,
    pub queued: u64,
    /// Popped by an executor and not yet finished.
    pub running: u64,
    pub done: u64,
    /// Terminal failures by verdict.
    pub failed: u64,
    pub quarantined: u64,
    pub deadline_expired: u64,
    /// Done jobs computed from a prior attempt's checkpoint.
    pub resumed: u64,
}

/// The shared front end around an executor `E`.
pub struct Front<E> {
    /// The daemon-specific half.
    pub exec: E,
    jobs: Mutex<Table>,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    next_id: AtomicU64,
    running: AtomicU64,
    shutdown: AtomicBool,
    /// Abrupt-kill latch (chaos harness): like a crash, not a drain —
    /// queued jobs are abandoned and open connections are cut.
    pub(crate) killed: AtomicBool,
    counters: Counters,
    /// Ids of terminal records in completion order: the eviction ring
    /// that bounds `jobs` under sustained load.
    retired: Mutex<VecDeque<u64>>,
    max_queue: usize,
    max_records: usize,
    pub(crate) max_conns: usize,
    /// The reactor's self-pipe. Every terminal transition pokes it so a
    /// reactor parked in poll(2) learns that a job some connection waits
    /// on has settled.
    pub(crate) wake_pipe: crate::reactor::WakePipe,
}

impl<E: Executor> Front<E> {
    /// A front end with farmd's default record and connection limits
    /// as fixed constants, and a queue bound of `max_queue`. Fails if
    /// the reactor's wake pipe cannot be created, and always on targets
    /// without poll(2).
    pub fn new(exec: E, max_queue: usize) -> std::io::Result<Front<E>> {
        Front::with_limits(exec, max_queue, MAX_RECORDS, MAX_CONNS)
    }

    pub(crate) fn with_limits(
        exec: E,
        max_queue: usize,
        max_records: usize,
        max_conns: usize,
    ) -> std::io::Result<Front<E>> {
        Ok(Front {
            exec,
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            running: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            counters: Counters::default(),
            retired: Mutex::new(VecDeque::new()),
            max_queue,
            max_records,
            max_conns,
            wake_pipe: crate::reactor::WakePipe::new()?,
        })
    }

    // -- lifecycle ----------------------------------------------------

    /// True once a drain was requested by protocol, handle or signal. A
    /// signal is latched into the shutdown flag here.
    pub fn draining(&self) -> bool {
        if self.shutdown.load(Ordering::SeqCst) {
            return true;
        }
        if signal_drain_requested() {
            self.shutdown.store(true, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// Ask for a drain (idempotent, non-blocking).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// Crash semantics: stop everything now, finishing nothing.
    pub(crate) fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        self.wake();
    }

    /// Jobs currently queued or running.
    pub(crate) fn inflight(&self) -> usize {
        locked(&self.queue).len() + self.running.load(Ordering::SeqCst) as usize
    }

    fn wake(&self) {
        self.wake_pipe.wake();
    }

    /// The job counters. Read in the direction jobs flow (admitted →
    /// queued → running → terminal), so a job that moves between two
    /// reads is counted twice at worst, never missed: the router's
    /// `lost` arithmetic can never read a moving job as lost.
    pub fn counts(&self) -> Counts {
        let c = &self.counters;
        let (submitted, queued) = {
            let q = locked(&self.queue);
            (c.submitted.load(Ordering::SeqCst), q.len() as u64)
        };
        let running = self.running.load(Ordering::SeqCst);
        Counts {
            submitted,
            queued,
            running,
            done: c.done.load(Ordering::SeqCst),
            failed: c.failed.load(Ordering::SeqCst),
            quarantined: c.quarantined.load(Ordering::SeqCst),
            deadline_expired: c.deadline_expired.load(Ordering::SeqCst),
            resumed: c.resumed.load(Ordering::SeqCst),
        }
    }

    // -- the job table ------------------------------------------------

    /// Admit one job: the executor's inline check, else enqueue with
    /// backpressure. Returns the id.
    fn admit(&self, spec: JobSpec) -> Result<u64, String> {
        if self.draining() {
            return Err("draining: no new jobs accepted".into());
        }
        if let Some(bytes) = self.exec.admit(&spec)? {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.counters.done.fetch_add(1, Ordering::SeqCst);
            self.counters.submitted.fetch_add(1, Ordering::SeqCst);
            let mut jobs = locked(&self.jobs);
            jobs.insert(
                id,
                Record {
                    spec,
                    state: State::Done {
                        bytes: Arc::new(bytes),
                        cached: true,
                        resumed: false,
                        wall_ms: 0.0,
                    },
                    submitted: Instant::now(),
                },
            );
            self.retire(&mut jobs, id);
            return Ok(id);
        }
        let queued = locked(&self.queue).len();
        if queued >= self.max_queue {
            return Err(queue_full(queued));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        locked(&self.jobs).insert(
            id,
            Record {
                spec,
                state: State::Queued,
                submitted: Instant::now(),
            },
        );
        {
            let mut q = locked(&self.queue);
            q.push_back(id);
            self.counters.submitted.fetch_add(1, Ordering::SeqCst);
        }
        self.queue_cv.notify_one();
        Ok(id)
    }

    /// Take up to `max` queued jobs, oldest first, marking them running.
    /// Blocks while the queue is empty; `None` once the front end is
    /// killed, or draining with nothing left to take.
    pub fn pop(&self, max: usize) -> Option<Vec<Claim>> {
        let ids: Vec<u64> = {
            let mut q = locked(&self.queue);
            loop {
                if self.killed.load(Ordering::SeqCst) {
                    return None;
                }
                if !q.is_empty() {
                    let n = q.len().min(max);
                    self.running.fetch_add(n as u64, Ordering::SeqCst);
                    break q.drain(..n).collect();
                }
                if self.draining() {
                    return None;
                }
                // Same poison policy as `crate::locked`: a panicking
                // holder was already contained; keep serving.
                let (guard, _) = self
                    .queue_cv
                    .wait_timeout(q, RECHECK)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                q = guard;
            }
        };
        let mut jobs = locked(&self.jobs);
        let claims = ids
            .into_iter()
            .filter_map(|id| {
                let rec = jobs.get_mut(&id)?;
                rec.state = State::Running { attempts: 1 };
                Some(Claim {
                    id,
                    spec: rec.spec.clone(),
                    submitted: rec.submitted,
                })
            })
            .collect();
        Some(claims)
    }

    /// Report the attempt a running job is on (a retry or failover).
    pub fn set_attempts(&self, id: u64, attempts: u32) {
        if let Some(Record {
            state: State::Running { attempts: a },
            ..
        }) = locked(&self.jobs).get_mut(&id)
        {
            *a = attempts;
        }
    }

    /// Record a popped job's terminal state. Returns false, changing
    /// nothing, if the job was already terminal: the at-most-once guard.
    pub fn finish(&self, id: u64, state: State) -> bool {
        self.finish_all(std::iter::once((id, state)))[0]
    }

    /// [`Front::finish`] for many jobs under one table lock and one
    /// wakeup: each wakeup makes every blocked `wait` recheck its ids
    /// under that lock, so a pipelined bucket notifies once, not once
    /// per job.
    pub fn finish_all(&self, outcomes: impl IntoIterator<Item = (u64, State)>) -> Vec<bool> {
        let fresh: Vec<bool> = {
            let mut jobs = locked(&self.jobs);
            outcomes
                .into_iter()
                .map(|(id, state)| self.settle(&mut jobs, id, state))
                .collect()
        };
        if fresh.contains(&true) {
            self.wake();
        }
        fresh
    }

    fn settle(&self, jobs: &mut Table, id: u64, state: State) -> bool {
        debug_assert!(state.terminal(), "finish records terminal states only");
        let Some(rec) = jobs.get_mut(&id) else {
            return false; // terminal, and already evicted
        };
        if rec.state.terminal() {
            return false;
        }
        let c = &self.counters;
        let counter = match &state {
            State::Done { resumed, .. } => {
                if *resumed {
                    c.resumed.fetch_add(1, Ordering::SeqCst);
                }
                &c.done
            }
            State::Failed { verdict, .. } => match verdict {
                Verdict::Quarantined => &c.quarantined,
                Verdict::DeadlineExpired => &c.deadline_expired,
                _ => &c.failed,
            },
            _ => return false,
        };
        counter.fetch_add(1, Ordering::SeqCst);
        rec.state = state;
        // After the terminal counter: see `counts`.
        self.running.fetch_sub(1, Ordering::SeqCst);
        self.retire(jobs, id);
        true
    }

    /// Append a terminal id to the eviction ring and evict the oldest
    /// terminal records past `max_records`. Only terminal ids enter the
    /// ring, so an evicted record is always answerable history, never
    /// live state; the live population is bounded by `max_queue` and
    /// the executor's concurrency.
    fn retire(&self, jobs: &mut Table, id: u64) {
        let mut ring = locked(&self.retired);
        ring.push_back(id);
        while ring.len() > self.max_records {
            if let Some(old) = ring.pop_front() {
                jobs.remove(&old);
            }
        }
    }

    // -- verbs --------------------------------------------------------

    /// Parse one request line. `Err` carries the reply for a line that
    /// never reaches a verb: a shed `submit` or malformed JSON.
    pub(crate) fn parse_request(&self, line: &str) -> Result<Value, String> {
        // The prefix check is exact for every client in this workspace
        // (they all emit `op` first); a submit with another field order
        // is still refused by `admit`, just after the parse.
        if E::SHED_BEFORE_PARSE && line.starts_with("{\"op\":\"submit\"") {
            let queued = locked(&self.queue).len();
            if queued >= self.max_queue {
                return Err(error_reply(&queue_full(queued)));
            }
        }
        json::parse(line).map_err(|(at, msg)| error_reply(&format!("bad JSON at byte {at}: {msg}")))
    }

    /// Answer one parsed request that needs no waiting. The reactor
    /// intercepts `batch` and `wait` first and parks the connection on
    /// them, so they never reach here.
    pub(crate) fn answer(&self, v: &Value, line: &str) -> String {
        match v.get("op").and_then(Value::as_str) {
            Some("submit") => match JobSpec::from_value(v).and_then(|spec| self.admit(spec)) {
                Ok(id) => self.status_reply(id),
                Err(e) => error_reply(&e),
            },
            Some("status") => match v.get("id").and_then(Value::as_u64) {
                Some(id) => self.status_reply(id),
                None => error_reply("status needs an integer `id`"),
            },
            Some("ping") => self.exec.ping(),
            Some("stats") => self.exec.stats(self),
            Some("shutdown") => {
                self.shutdown.store(true, Ordering::SeqCst);
                "{\"ok\":true,\"draining\":true}".into()
            }
            Some(op) => self
                .exec
                .verb(op, v, line)
                .unwrap_or_else(|| error_reply(&format!("unknown op `{op}`"))),
            None => error_reply("request needs a string `op`"),
        }
    }

    fn status_reply(&self, id: u64) -> String {
        let state = snapshot(&locked(&self.jobs), id);
        let mut out = String::new();
        push_status(&mut out, id, state.as_ref());
        out
    }

    /// Admit every job of a `batch`, preserving order.
    pub(crate) fn batch_start(
        &self,
        v: &Value,
    ) -> Result<(Vec<Result<u64, String>>, Instant), String> {
        let jobs = v
            .get("jobs")
            .and_then(Value::as_arr)
            .ok_or("batch needs a `jobs` array")?;
        let t0 = Instant::now();
        let ids = jobs
            .iter()
            .map(|j| JobSpec::from_value(j).and_then(|spec| self.admit(spec)))
            .collect();
        Ok((ids, t0))
    }

    /// The `batch` reply if every admitted job is terminal.
    pub(crate) fn batch_ready(&self, ids: &[Result<u64, String>], t0: Instant) -> Option<String> {
        let jobs = locked(&self.jobs);
        if !settled(&jobs, ids.iter().flatten()) {
            return None;
        }
        Some(batch_reply(jobs, ids, t0))
    }

    /// The `wait` reply if every id is terminal, or regardless once the
    /// wait has `expired`.
    pub(crate) fn wait_ready(&self, ids: &[u64], expired: bool) -> Option<String> {
        let jobs = locked(&self.jobs);
        let complete = settled(&jobs, ids.iter());
        if !complete && !expired {
            return None;
        }
        Some(wait_reply(jobs, ids, complete))
    }

    // -- serving ------------------------------------------------------

    /// Serve connections on the poll(2) reactor until a drain or kill,
    /// then release the executor's idle threads. Returns true after a
    /// graceful drain, which the reactor leaves only once every admitted
    /// job is terminal and every parked verb answered; false if the
    /// front end was killed (the queue is abandoned, as in a crash).
    pub fn serve(self: &Arc<Self>, acceptor: &Acceptor) -> bool {
        crate::reactor::serve(self, acceptor);
        // Idle executor threads wait on the queue condvar with a
        // timeout, so notifying is an optimization, not a requirement.
        self.queue_cv.notify_all();
        if self.killed.load(Ordering::SeqCst) {
            return false;
        }
        // The reactor thread is the only one that admits jobs.
        debug_assert_eq!(self.inflight(), 0, "drained with jobs in flight");
        true
    }
}

fn queue_full(queued: usize) -> String {
    format!("queue full ({queued} jobs); backpressure: retry later")
}

pub(crate) fn error_reply(msg: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"error\":");
    push_json_str(&mut out, msg);
    out.push('}');
    out
}

/// The typed over-capacity refusal: `busy` is a distinct field (not just
/// error-string prose) so clients and the router classify it as
/// transient backpressure, like `queue full`.
pub(crate) fn busy_reply(max_conns: usize) -> String {
    format!(
        "{{\"ok\":false,\"busy\":true,\"error\":\"busy: at connection limit ({max_conns}); retry later\"}}"
    )
}

/// Parse a `wait` request: `{"op":"wait","ids":[..],"timeout_ms":N}`.
/// Returns the watched ids and the clamped timeout.
pub(crate) fn parse_wait(v: &Value) -> Result<(Vec<u64>, u64), String> {
    let Some(ids_v) = v.get("ids").and_then(Value::as_arr) else {
        return Err("wait needs an `ids` array".into());
    };
    if ids_v.len() > MAX_WAIT_IDS {
        return Err(format!("wait supports at most {MAX_WAIT_IDS} ids"));
    }
    let ids = ids_v
        .iter()
        .map(Value::as_u64)
        .collect::<Option<Vec<u64>>>()
        .ok_or("wait ids must be unsigned integers")?;
    let timeout_ms = v
        .get("timeout_ms")
        .and_then(Value::as_u64)
        .unwrap_or(DEFAULT_WAIT_TIMEOUT_MS)
        .min(MAX_WAIT_TIMEOUT_MS);
    Ok((ids, timeout_ms))
}

/// True once every id is terminal; unknown (or already evicted) ids
/// count as terminal, so a waiter can never hang on history.
fn settled<'a>(jobs: &Table, mut ids: impl Iterator<Item = &'a u64>) -> bool {
    ids.all(|id| jobs.get(id).is_none_or(|r| r.state.terminal()))
}

/// One id's state, captured under the table lock so replies are
/// formatted after it is released. Result bytes are behind an `Arc`, so
/// a snapshot never copies them: a `wait` round can cover thousands of
/// ids whose results total megabytes, and splicing them under the one
/// lock every admission and finish needs would serialize the daemon
/// behind reply formatting.
fn snapshot(jobs: &Table, id: u64) -> Option<State> {
    jobs.get(&id).map(|r| r.state.clone())
}

/// One job's status object (the `submit`/`status` reply and the per-job
/// element of `batch` and `wait` replies). Result bytes are spliced
/// verbatim: they are already canonical single-line JSON, and splicing
/// keeps cached bytes bit-identical on the wire.
fn push_status(out: &mut String, id: u64, state: Option<&State>) {
    let Some(state) = state else {
        out.push_str(&error_reply(&format!("no such job {id}")));
        return;
    };
    let _ = write!(out, "{{\"ok\":true,\"id\":{id},");
    match state {
        State::Queued => out.push_str("\"state\":\"queued\"}"),
        State::Running { attempts } => {
            let _ = write!(out, "\"state\":\"running\",\"attempts\":{attempts}}}");
        }
        State::Done {
            bytes,
            cached,
            resumed,
            wall_ms,
        } => {
            // `result` stays the FINAL field: `cache_push` and the
            // router's raw-result splice both locate the bytes by that
            // invariant.
            let _ = write!(
                out,
                "\"state\":\"done\",\"verdict\":\"done\",\"cached\":{cached},\
                 \"resumed_from_snapshot\":{resumed},\"wall_ms\":{wall_ms:.3},\"result\":{}}}",
                String::from_utf8_lossy(bytes)
            );
        }
        State::Failed {
            verdict,
            error,
            attempts,
        } => {
            let _ = write!(
                out,
                "\"state\":\"failed\",\"verdict\":\"{}\",\"attempts\":{attempts},\"error\":",
                verdict.as_str()
            );
            push_json_str(out, error);
            out.push('}');
        }
    }
}

/// The `batch` reply: one status object (or admission error) per job,
/// in submission order. Consumes the table guard: statuses are
/// snapshotted under it and formatted after it is released.
fn batch_reply(jobs: MutexGuard<'_, Table>, ids: &[Result<u64, String>], t0: Instant) -> String {
    let snaps: Vec<Option<State>> = ids
        .iter()
        .map(|r| r.as_ref().ok().and_then(|id| snapshot(&jobs, *id)))
        .collect();
    drop(jobs);
    let hits = snaps
        .iter()
        .filter(|s| matches!(s, Some(State::Done { cached: true, .. })))
        .count();
    let mut out = format!(
        "{{\"ok\":true,\"jobs\":{},\"hits\":{hits},\"wall_ms\":{:.3},\"results\":[",
        ids.len(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    for (i, (r, snap)) in ids.iter().zip(&snaps).enumerate() {
        if i > 0 {
            out.push(',');
        }
        match r {
            Ok(id) => push_status(&mut out, *id, snap.as_ref()),
            Err(e) => out.push_str(&error_reply(e)),
        }
    }
    out.push_str("]}");
    out
}

/// The `wait` reply: `complete` says whether every id turned terminal
/// (false = the timeout elapsed first); `results` carries a status
/// object per id, in request order, either way. Consumes the table
/// guard like [`batch_reply`].
fn wait_reply(jobs: MutexGuard<'_, Table>, ids: &[u64], complete: bool) -> String {
    let snaps: Vec<Option<State>> = ids.iter().map(|id| snapshot(&jobs, *id)).collect();
    drop(jobs);
    let mut out = format!("{{\"ok\":true,\"complete\":{complete},\"results\":[");
    for (i, (id, snap)) in ids.iter().zip(&snaps).enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_status(&mut out, *id, snap.as_ref());
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------
// Sockets.

/// Where to listen.
#[derive(Debug, Clone)]
pub enum Listen {
    /// TCP, e.g. `127.0.0.1:4655` (`:0` for an ephemeral port).
    Tcp(String),
    /// Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

/// One accepted client connection.
pub(crate) enum Incoming {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Incoming {
    pub(crate) fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Incoming::Tcp(s) => s.set_nonblocking(nb),
            #[cfg(unix)]
            Incoming::Unix(s) => s.set_nonblocking(nb),
        }
    }

    /// Disable Nagle on TCP (replies are small writes; Nagle would stall
    /// each behind the peer's delayed ACK). No-op on Unix sockets.
    pub(crate) fn set_nodelay(&self) {
        if let Incoming::Tcp(s) = self {
            let _ = s.set_nodelay(true);
        }
    }

    #[cfg(unix)]
    pub(crate) fn raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            Incoming::Tcp(s) => s.as_raw_fd(),
            Incoming::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl std::io::Read for Incoming {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Incoming::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Incoming::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Incoming {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Incoming::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Incoming::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Incoming::Tcp(s) => s.write_vectored(bufs),
            #[cfg(unix)]
            Incoming::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Incoming::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Incoming::Unix(s) => s.flush(),
        }
    }
}

/// A bound, nonblocking listening socket. Dropping it removes a Unix
/// socket's file.
pub enum Acceptor {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Acceptor {
    /// Bind `listen`; returns the acceptor and its address (`host:port`
    /// with the real ephemeral port for TCP, the path for Unix).
    pub fn bind(listen: &Listen) -> std::io::Result<(Acceptor, String)> {
        match listen {
            Listen::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                l.set_nonblocking(true)?;
                let addr = l.local_addr()?.to_string();
                Ok((Acceptor::Tcp(l), addr))
            }
            #[cfg(unix)]
            Listen::Unix(p) => {
                // A stale socket file from a killed daemon would fail the bind.
                let _ = std::fs::remove_file(p);
                let l = UnixListener::bind(p)?;
                l.set_nonblocking(true)?;
                Ok((Acceptor::Unix(l, p.clone()), p.display().to_string()))
            }
        }
    }

    pub(crate) fn accept(&self) -> std::io::Result<Incoming> {
        match self {
            Acceptor::Tcp(l) => l.accept().map(|(s, _)| Incoming::Tcp(s)),
            #[cfg(unix)]
            Acceptor::Unix(l, _) => l.accept().map(|(s, _)| Incoming::Unix(s)),
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Acceptor::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(unix)]
impl std::os::unix::io::AsRawFd for Acceptor {
    fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        match self {
            Acceptor::Tcp(l) => l.as_raw_fd(),
            Acceptor::Unix(l, _) => l.as_raw_fd(),
        }
    }
}
