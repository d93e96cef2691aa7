//! The job front end: the one implementation of the client-facing job
//! protocol (DESIGN.md §12, §14).
//!
//! farmd and the router both answer clients through this module. It
//! owns the job table, admission with backpressure, the ring that evicts
//! old terminal records, the `submit`/`status`/`batch`/`wait`/`shutdown`
//! verbs, status and reply formatting, the connection cap, and drain.
//! All job state sits in one `Book` behind one lock, and
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::job::{JobSpec, Verdict};
use crate::json::{self, push_json_str, Value};
use crate::locked;
use crate::server::signal_drain_requested;

/// Terminal job records kept for `status`/`wait`, by farmd and the
/// router alike. Older terminal records are evicted, oldest first; an
/// evicted id answers `no such job`.
pub const MAX_RECORDS: usize = 1 << 16;
/// Concurrent client connections: farmd's default `max_conns` and the
/// router's fixed limit.
pub const MAX_CONNS: usize = 4096;
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

/// A queued job handed to an executor by [`Front::pop`].
pub struct Claim {
    pub id: u64,
    pub spec: JobSpec,
    pub submitted: Instant,
}

/// A snapshot of the job counters, for `stats` bodies. Every admitted
/// job is in exactly one state, so `submitted = queued + running + done
/// + failed + quarantined + deadline_expired` holds in every snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// The job book: every piece of job state, kept under the front end's
/// one lock so each verb is one critical section and a counts read is
/// exact.
#[derive(Default)]
struct Book {
    table: HashMap<u64, Record>,
    /// Queued ids, oldest first. Each names a `Queued` record: only a
    /// running job can turn terminal, and only terminal ones are evicted.
    queue: VecDeque<u64>,
    /// Ids of terminal records in completion order: the eviction ring
    /// that bounds `table` under sustained load.
    retired: VecDeque<u64>,
    /// The last id handed out (ids start at 1).
    last_id: u64,
    /// The counters; `counts.queued` stays 0, since the queue's length is
    /// that count.
    counts: Counts,
}

impl Book {
    fn counts(&self) -> Counts {
        Counts {
            queued: self.queue.len() as u64,
            ..self.counts
        }
    }

    /// Record a newly admitted job; returns its id.
    fn insert(&mut self, spec: JobSpec, state: State, submitted: Instant) -> u64 {
        self.last_id += 1;
        self.counts.submitted += 1;
        let rec = Record {
            spec,
            state,
            submitted,
        };
        self.table.insert(self.last_id, rec);
        self.last_id
    }

    /// Move a running job to its terminal `state`. Returns false,
    /// changing nothing, if the job is not running (already terminal,
    /// evicted, or never popped).
    fn settle(&mut self, id: u64, state: State) -> bool {
        debug_assert!(state.terminal(), "finish records terminal states only");
        let Some(rec) = self.table.get_mut(&id) else {
            return false;
        };
        if !matches!(rec.state, State::Running { .. }) {
            return false;
        }
        let c = &mut self.counts;
        match &state {
            State::Done { resumed, .. } => {
                c.done += 1;
                c.resumed += u64::from(*resumed);
            }
            State::Failed { verdict, .. } => match verdict {
                Verdict::Quarantined => c.quarantined += 1,
                Verdict::DeadlineExpired => c.deadline_expired += 1,
                _ => c.failed += 1,
            },
            _ => return false,
        }
        c.running -= 1;
        rec.state = state;
        self.retire(id);
        true
    }

    /// Append a terminal id to the eviction ring and evict the oldest
    /// terminal records past [`MAX_RECORDS`]. Only terminal ids enter the
    /// ring, so an evicted record is always answerable history, never
    /// live state; the live population is bounded by `max_queue` and
    /// the executor's concurrency.
    fn retire(&mut self, id: u64) {
        self.retired.push_back(id);
        while self.retired.len() > MAX_RECORDS {
            if let Some(old) = self.retired.pop_front() {
                self.table.remove(&old);
            }
        }
    }

    /// True once every id is terminal; unknown (or already evicted) ids
    /// count as terminal, so a waiter can never hang on history.
    fn settled<'a>(&self, mut ids: impl Iterator<Item = &'a u64>) -> bool {
        ids.all(|id| self.table.get(id).is_none_or(|r| r.state.terminal()))
    }

    /// One id's state, captured under the lock so replies are formatted
    /// after it is released. Result bytes are behind an `Arc`, so a
    /// snapshot never copies them: a `wait` round can cover thousands of
    /// ids whose results total megabytes, and splicing them under the
    /// one lock every admission and finish needs would serialize the
    /// daemon behind reply formatting.
    fn snapshot(&self, id: u64) -> Option<State> {
        self.table.get(&id).map(|r| r.state.clone())
    }
}

/// The shared front end around an executor `E`.
pub struct Front<E> {
    /// The daemon-specific half.
    pub exec: E,
    book: Mutex<Book>,
    /// Signalled when a job is queued, and on kill: [`Front::pop`]'s
    /// waiters park here.
    job_queued: Condvar,
    shutdown: AtomicBool,
    /// Abrupt-kill latch (chaos harness): like a crash, not a drain —
    /// queued jobs are abandoned and open connections are cut.
    pub(crate) killed: AtomicBool,
    max_queue: usize,
    pub(crate) max_conns: usize,
    /// The reactor's self-pipe. Every terminal transition pokes it so a
    /// reactor parked in poll(2) learns that a job some connection waits
    /// on has settled.
    pub(crate) wake_pipe: crate::reactor::WakePipe,
}

impl<E: Executor> Front<E> {
    /// A front end with a queue bound of `max_queue` and a connection
    /// cap of `max_conns`. Fails if the reactor's wake pipe cannot be
    /// created, and always on targets without poll(2).
    pub fn new(exec: E, max_queue: usize, max_conns: usize) -> std::io::Result<Front<E>> {
        Ok(Front {
            exec,
            book: Mutex::new(Book::default()),
            job_queued: Condvar::new(),
            shutdown: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            max_queue,
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
        self.job_queued.notify_all();
        self.wake();
    }

    /// Jobs currently queued or running.
    pub(crate) fn inflight(&self) -> usize {
        let c = self.counts();
        (c.queued + c.running) as usize
    }

    fn wake(&self) {
        self.wake_pipe.wake();
    }

    /// The job counters, read in one critical section.
    pub fn counts(&self) -> Counts {
        locked(&self.book).counts()
    }

    // -- the job book -------------------------------------------------

    /// Admit one job: the executor's inline check, else enqueue with
    /// backpressure. Returns the id.
    fn admit(&self, spec: JobSpec) -> Result<u64, String> {
        if self.draining() {
            return Err("draining: no new jobs accepted".into());
        }
        // Outside the lock: farmd's check can read the disk tier.
        let inline = self.exec.admit(&spec)?;
        let now = Instant::now();
        let mut book = locked(&self.book);
        if let Some(bytes) = inline {
            let state = State::Done {
                bytes: Arc::new(bytes),
                cached: true,
                resumed: false,
                wall_ms: 0.0,
            };
            let id = book.insert(spec, state, now);
            book.counts.done += 1;
            book.retire(id);
            return Ok(id);
        }
        let queued = book.queue.len();
        if queued >= self.max_queue {
            return Err(queue_full(queued));
        }
        let id = book.insert(spec, State::Queued, now);
        book.queue.push_back(id);
        drop(book);
        self.job_queued.notify_one();
        Ok(id)
    }

    /// Take up to `max` queued jobs, oldest first, marking them running.
    /// Blocks while the queue is empty; `None` once the front end is
    /// killed, or draining with nothing left to take.
    pub fn pop(&self, max: usize) -> Option<Vec<Claim>> {
        let mut book = locked(&self.book);
        loop {
            if self.killed.load(Ordering::SeqCst) {
                return None;
            }
            if !book.queue.is_empty() {
                break;
            }
            if self.draining() {
                return None;
            }
            // Same poison policy as `crate::locked`: a panicking holder
            // was already contained; keep serving.
            let (guard, _) = self
                .job_queued
                .wait_timeout(book, RECHECK)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            book = guard;
        }
        let Book {
            table,
            queue,
            counts,
            ..
        } = &mut *book;
        let n = queue.len().min(max);
        counts.running += n as u64;
        let claims = queue
            .drain(..n)
            .map(|id| {
                let rec = table.get_mut(&id).expect("a queued id names a live record");
                rec.state = State::Running { attempts: 1 };
                Claim {
                    id,
                    spec: rec.spec.clone(),
                    submitted: rec.submitted,
                }
            })
            .collect();
        Some(claims)
    }

    /// Report the attempt a running job is on (a retry or failover).
    pub fn set_attempts(&self, id: u64, attempts: u32) {
        if let Some(Record {
            state: State::Running { attempts: a },
            ..
        }) = locked(&self.book).table.get_mut(&id)
        {
            *a = attempts;
        }
    }

    /// Record a popped job's terminal state. Returns false, changing
    /// nothing, if the job is not running: the at-most-once guard.
    pub fn finish(&self, id: u64, state: State) -> bool {
        self.finish_all(std::iter::once((id, state)))[0]
    }

    /// [`Front::finish`] for many jobs under one lock and one wakeup:
    /// each wakeup makes every blocked `wait` recheck its ids under that
    /// lock, so a pipelined bucket notifies once, not once per job.
    pub fn finish_all(&self, outcomes: impl IntoIterator<Item = (u64, State)>) -> Vec<bool> {
        let fresh: Vec<bool> = {
            let mut book = locked(&self.book);
            outcomes
                .into_iter()
                .map(|(id, state)| book.settle(id, state))
                .collect()
        };
        if fresh.contains(&true) {
            self.wake();
        }
        fresh
    }

    // -- verbs --------------------------------------------------------

    /// Parse one request line. `Err` carries the reply for a line that
    /// never reaches a verb: a shed `submit` or malformed JSON.
    pub(crate) fn parse_request(&self, line: &str) -> Result<Value, String> {
        // The prefix check is exact for every client in this workspace
        // (they all emit `op` first); a submit with another field order
        // is still refused by `admit`, just after the parse.
        if E::SHED_BEFORE_PARSE && line.starts_with("{\"op\":\"submit\"") {
            let queued = locked(&self.book).queue.len();
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
        let state = locked(&self.book).snapshot(id);
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
        let book = locked(&self.book);
        if !book.settled(ids.iter().flatten()) {
            return None;
        }
        Some(batch_reply(book, ids, t0))
    }

    /// The `wait` reply if every id is terminal, or regardless once the
    /// wait has `expired`.
    pub(crate) fn wait_ready(&self, ids: &[u64], expired: bool) -> Option<String> {
        let book = locked(&self.book);
        let complete = book.settled(ids.iter());
        if !complete && !expired {
            return None;
        }
        Some(wait_reply(book, ids, complete))
    }

    // -- serving ------------------------------------------------------

    /// Serve connections on the poll(2) reactor until a drain or kill,
    /// then release the executor's idle threads. Returns true after a
    /// graceful drain, which the reactor leaves only once every admitted
    /// job is terminal and every parked verb answered; false if the
    /// front end was killed (the queue is abandoned, as in a crash).
    pub fn serve(self: &Arc<Self>, acceptor: &Acceptor) -> bool {
        crate::reactor::serve(self, acceptor);
        // Idle executor threads wait on the condvar with a timeout, so
        // notifying is an optimization, not a requirement.
        self.job_queued.notify_all();
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
/// in submission order. Consumes the book's guard: statuses are
/// snapshotted under it and formatted after it is released.
fn batch_reply(book: MutexGuard<'_, Book>, ids: &[Result<u64, String>], t0: Instant) -> String {
    let snaps: Vec<Option<State>> = ids
        .iter()
        .map(|r| r.as_ref().ok().and_then(|id| book.snapshot(*id)))
        .collect();
    drop(book);
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
/// object per id, in request order, either way. Consumes the book's
/// guard like [`batch_reply`].
fn wait_reply(book: MutexGuard<'_, Book>, ids: &[u64], complete: bool) -> String {
    let snaps: Vec<Option<State>> = ids.iter().map(|id| book.snapshot(*id)).collect();
    drop(book);
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

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    /// A fake executor: `exp: "hit"` is answered inline at admission,
    /// anything else is queued. `SHED` sets `SHED_BEFORE_PARSE`.
    struct Fake<const SHED: bool>;

    impl<const SHED: bool> Executor for Fake<SHED> {
        const SHED_BEFORE_PARSE: bool = SHED;

        fn admit(&self, spec: &JobSpec) -> Result<Option<Vec<u8>>, String> {
            Ok((spec.exp == "hit").then(|| b"{}".to_vec()))
        }

        fn ping(&self) -> String {
            "{}".into()
        }

        fn stats(&self, _: &Front<Self>) -> String {
            "{}".into()
        }
    }

    fn spec(exp: &str) -> JobSpec {
        let v = json::parse(&format!(r#"{{"exp":"{exp}"}}"#)).expect("job json");
        JobSpec::from_value(&v).expect("job spec")
    }

    fn identity_holds(c: &Counts) -> bool {
        c.submitted == c.done + c.failed + c.quarantined + c.deadline_expired + c.queued + c.running
    }

    /// splitmix64: a seeded stream with no dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Random verb sequences past the record cap, checked after every
    /// op against counts kept by hand: the accounting identity, FIFO
    /// pops, at-most-once `finish`, and eviction of the oldest terminal
    /// records only.
    #[test]
    fn random_ops_keep_exact_counts_past_the_record_cap() {
        const MAX_QUEUE: usize = 32;
        let front = Front::new(Fake::<false>, MAX_QUEUE, MAX_CONNS).expect("front");
        let mut rng = Rng(0x5eed);
        let mut want = Counts::default();
        let mut queue: VecDeque<u64> = VecDeque::new();
        let mut running: Vec<u64> = Vec::new();
        // Terminal ids in completion order: the eviction ring's model.
        let mut terminal: Vec<u64> = Vec::new();
        let evicted = |terminal: &[u64], i: usize| i + MAX_RECORDS < terminal.len();
        while terminal.len() < MAX_RECORDS + 4096 {
            match rng.below(100) {
                0..=29 => {
                    let id = front.admit(spec("hit")).expect("inline hit");
                    want.submitted += 1;
                    want.done += 1;
                    terminal.push(id);
                }
                30..=49 => match front.admit(spec("cold")) {
                    Ok(id) => {
                        want.submitted += 1;
                        queue.push_back(id);
                    }
                    Err(e) => {
                        assert_eq!(queue.len(), MAX_QUEUE, "{e}");
                        assert!(e.starts_with("queue full"), "{e}");
                    }
                },
                50..=64 if !queue.is_empty() => {
                    let claims = front.pop(1 + rng.below(4)).expect("not draining");
                    assert!(!claims.is_empty(), "pop returns once a job is queued");
                    for c in claims {
                        assert_eq!(Some(c.id), queue.pop_front(), "pops are FIFO");
                        running.push(c.id);
                    }
                }
                65..=84 if !running.is_empty() => {
                    let id = running.swap_remove(rng.below(running.len()));
                    let state = match rng.below(4) {
                        0 => State::Done {
                            bytes: Arc::new(b"{}".to_vec()),
                            cached: false,
                            resumed: true,
                            wall_ms: 1.0,
                        },
                        k => State::Failed {
                            verdict: [
                                Verdict::Failed,
                                Verdict::Quarantined,
                                Verdict::DeadlineExpired,
                            ][k - 1],
                            error: "x".into(),
                            attempts: 1,
                        },
                    };
                    match &state {
                        State::Done { .. } => {
                            (want.done, want.resumed) = (want.done + 1, want.resumed + 1)
                        }
                        State::Failed {
                            verdict: Verdict::Quarantined,
                            ..
                        } => want.quarantined += 1,
                        State::Failed {
                            verdict: Verdict::DeadlineExpired,
                            ..
                        } => want.deadline_expired += 1,
                        _ => want.failed += 1,
                    }
                    assert!(front.finish(id, state.clone()), "first finish of {id}");
                    terminal.push(id);
                    let status = front.status_reply(id);
                    assert!(!front.finish(id, state), "second finish of {id}");
                    assert_eq!(
                        front.status_reply(id),
                        status,
                        "a second finish changes nothing"
                    );
                }
                85..=89 if !terminal.is_empty() => {
                    let id = terminal[rng.below(terminal.len())];
                    let done = State::Done {
                        bytes: Arc::new(Vec::new()),
                        cached: false,
                        resumed: false,
                        wall_ms: 0.0,
                    };
                    assert!(!front.finish(id, done), "late finish of {id}");
                }
                90..=94 if !running.is_empty() => {
                    let id = running[rng.below(running.len())];
                    front.set_attempts(id, 3);
                    assert!(front.status_reply(id).ends_with("\"attempts\":3}"));
                }
                95..=99 if !terminal.is_empty() => {
                    let i = rng.below(terminal.len());
                    let status = front.status_reply(terminal[i]);
                    let gone = status.contains("no such job");
                    assert_eq!(gone, evicted(&terminal, i), "{status}");
                }
                _ => {}
            }
            want.queued = queue.len() as u64;
            want.running = running.len() as u64;
            let got = front.counts();
            assert!(identity_holds(&got), "{got:?}");
            assert_eq!(got, want);
        }
        // The ring's edge: the newest evicted and the oldest kept record.
        let edge = terminal.len() - MAX_RECORDS;
        let id = terminal[edge - 1];
        assert_eq!(
            front.status_reply(id),
            format!(r#"{{"ok":false,"error":"no such job {id}"}}"#)
        );
        assert!(!front.status_reply(terminal[edge]).contains("no such job"));
        // Queued and running jobs are never evicted.
        for &id in queue.iter().chain(&running) {
            assert!(!front.status_reply(id).contains("no such job"), "{id}");
        }
    }

    /// With `SHED_BEFORE_PARSE` and a full queue, a `submit` line is
    /// refused as `queue full` before the parser sees it, malformed or
    /// not; without it, or with room in the queue, the parser answers.
    #[test]
    fn a_shed_submit_is_refused_before_parse() {
        let bad = r#"{"op":"submit","exp":"#;
        let shed = Front::new(Fake::<true>, 1, MAX_CONNS).expect("front");
        let no_shed = Front::new(Fake::<false>, 1, MAX_CONNS).expect("front");
        for front_err in [shed.parse_request(bad), no_shed.parse_request(bad)] {
            assert!(front_err.expect_err("malformed").contains("bad JSON"));
        }
        shed.admit(spec("cold")).expect("fills the queue");
        no_shed.admit(spec("cold")).expect("fills the queue");
        let reply = shed.parse_request(bad).expect_err("shed");
        assert!(reply.contains("queue full (1 jobs)"), "{reply}");
        let reply = no_shed.parse_request(bad).expect_err("malformed");
        assert!(reply.contains("bad JSON"), "{reply}");
        // Only submits are shed.
        assert!(shed.parse_request(r#"{"op":"stats"}"#).is_ok());
    }

    /// A `wait` may watch at most `MAX_WAIT_IDS` ids; one more is
    /// refused with a typed error before anything parks.
    #[test]
    fn a_wait_past_the_id_cap_is_refused() {
        let wait = |n: usize| {
            let ids = vec!["1"; n].join(",");
            parse_wait(&json::parse(&format!(r#"{{"op":"wait","ids":[{ids}]}}"#)).expect("json"))
        };
        assert_eq!(
            wait(MAX_WAIT_IDS).expect("at the cap").0.len(),
            MAX_WAIT_IDS
        );
        assert_eq!(
            wait(MAX_WAIT_IDS + 1).expect_err("past the cap"),
            "wait supports at most 4096 ids"
        );
    }

    /// Admitters, poppers and finishers race a `counts()` reader; every
    /// read must satisfy the accounting identity.
    #[test]
    fn counts_are_exact_under_concurrent_pops_and_finishes() {
        const JOBS: usize = 20_000;
        let front = Front::new(Fake::<false>, 64, MAX_CONNS).expect("front");
        let start = std::sync::Barrier::new(4);
        let done = AtomicBool::new(false);
        let finished = std::sync::atomic::AtomicUsize::new(0);
        let bad_reads = std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                let mut admitted = 0;
                while admitted < JOBS {
                    if front.admit(spec("cold")).is_ok() {
                        admitted += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    while finished.load(Ordering::SeqCst) < JOBS {
                        let Some(claims) = front.pop(4) else { break };
                        let outcomes = claims.iter().map(|c| {
                            let state = State::Done {
                                bytes: Arc::new(Vec::new()),
                                cached: false,
                                resumed: false,
                                wall_ms: 0.0,
                            };
                            (c.id, state)
                        });
                        let n = front.finish_all(outcomes).len();
                        if finished.fetch_add(n, Ordering::SeqCst) + n >= JOBS {
                            done.store(true, Ordering::SeqCst);
                            front.request_shutdown();
                        }
                    }
                });
            }
            let reader = s.spawn(|| {
                start.wait();
                let mut bad = 0u64;
                while !done.load(Ordering::SeqCst) {
                    if !identity_holds(&front.counts()) {
                        bad += 1;
                    }
                }
                bad
            });
            reader.join().expect("reader")
        });
        assert_eq!(bad_reads, 0, "counts reads that broke the identity");
        let c = front.counts();
        assert_eq!(
            (c.submitted, c.done, c.queued, c.running),
            (JOBS as u64, JOBS as u64, 0, 0)
        );
    }
}
