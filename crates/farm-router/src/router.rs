//! The routing executor: dispatcher pool, shard prober, replication.
//!
//! Clients are served by farmd's own job front end
//! ([`bfly_farmd::front`]), so the router's client protocol — verbs,
//! limits, reply bytes, connection cap, record eviction — is a single
//! farmd's. What the router adds is the executor behind it, a farmd
//! client on the shard side. Dispatchers pop runs of queued jobs and
//! route each run through one loop (`route`): bucket the jobs by the
//! next serving shard in their ring preference order, send each bucket
//! in one write, read the replies in order, and classify each job's
//! outcome —
//!
//! * terminal verdict from the shard (`done`/`failed`/...) → recorded
//!   once through [`Front::finish_all`] (at-most-once delivery: a late
//!   duplicate from a raced failover is counted and dropped);
//! * transport failure (connect refused, io timeout, cut connection,
//!   `killed`) or transient refusal (`draining`, `queue full`, `busy`)
//!   → the job goes round again to the next serving shard in its
//!   preference order (`rerouted`++ the first time it leaves its
//!   primary);
//! * routing budget spent with no shard reachable → terminal
//!   `deadline_expired` with an `unroutable` error. Every admitted job
//!   reaches *some* terminal state: `lost` (in `stats`) stays 0.
//!
//! Cold results are replicated to the key's remaining replica shards
//! (`cache_push`) so the next failover finds a warm copy. Every shard
//! connection — routing, replication, pings — comes from one
//! checkout-or-dial helper (`exchange`) over one keep-alive pool.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bfly_farmd::front::{Acceptor, Claim, State, MAX_CONNS};
use bfly_farmd::json::{self, push_json_str, Value};
use bfly_farmd::{Client, Executor, Front, JobSpec, Listen, Verdict};

use crate::health::{Health, HealthPolicy};
use crate::locked;
use crate::rebalance::rebalance;
use crate::ring::Ring;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// TCP listen address (`:0` for an ephemeral port).
    pub listen: String,
    /// Shard addresses (`host:port` each). Fixed membership; *serving*
    /// membership is health-gated.
    pub shards: Vec<String>,
    /// Cache replication factor R.
    pub replicas: usize,
    /// Virtual nodes per shard on the ring.
    pub vnodes: usize,
    /// Dispatcher threads.
    pub workers: usize,
    /// Backpressure bound on the routing queue.
    pub max_queue: usize,
    /// Prober sweep interval, ms.
    pub ping_interval_ms: u64,
    /// Ping/connect deadline, ms.
    pub ping_timeout_ms: u64,
    /// Per-attempt forwarding deadline, ms (must exceed the longest
    /// honest job execution; shorter means spurious failovers, which
    /// are safe but wasteful).
    pub attempt_timeout_ms: u64,
    /// Total routing budget per job when the job sets no deadline, ms.
    pub route_deadline_ms: u64,
    /// Eviction/probation thresholds.
    pub health: HealthPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            listen: "127.0.0.1:0".into(),
            shards: Vec::new(),
            replicas: 2,
            vnodes: 64,
            workers: 4,
            max_queue: 4096,
            ping_interval_ms: 500,
            ping_timeout_ms: 250,
            attempt_timeout_ms: 10_000,
            route_deadline_ms: 30_000,
            health: HealthPolicy::default(),
        }
    }
}

/// Keep-alive connections to each shard, checked out by [`exchange`]
/// for routing, replication and pings. A fresh TCP dial per forwarded
/// bucket caps the router at connection-setup rate, not shard serving
/// rate; reuse moves the warm path to one request/reply round trip.
/// Connections are only returned after every reply they owe
/// (protocol-synchronized), and a checkout that turns out stale (the
/// shard restarted since) is dropped and redialed once rather than
/// charged to the shard's health.
struct ConnPool {
    slots: Vec<Mutex<Vec<Client>>>,
}

/// Pooled keep-alive connections per shard. Dispatchers × failover can
/// momentarily want more; extras are dropped on return, not kept.
const POOL_PER_SHARD: usize = 16;

impl ConnPool {
    fn new(shards: usize) -> ConnPool {
        ConnPool {
            slots: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn take(&self, idx: usize) -> Option<Client> {
        locked(&self.slots[idx]).pop()
    }

    fn put(&self, idx: usize, conn: Client) {
        let mut slot = locked(&self.slots[idx]);
        if slot.len() < POOL_PER_SHARD {
            slot.push(conn);
        }
    }
}

/// One shard as the router sees it.
struct ShardState {
    addr: String,
    /// `shard_id` learned from the shard's own ping reply (falls back
    /// to the address until the first successful ping).
    id: Mutex<Option<String>>,
    health: Mutex<Health>,
}

#[derive(Default)]
struct Counters {
    rerouted: AtomicU64,
    duplicates: AtomicU64,
    unroutable: AtomicU64,
    rebalanced_keys: AtomicU64,
    cache_pushes: AtomicU64,
    rebalances: AtomicU64,
}

/// The router's executor state behind the shared front end.
struct Router {
    config: RouterConfig,
    shards: Vec<ShardState>,
    pool: ConnPool,
    /// Ring index == `shards` index (fixed membership; health gates the
    /// serving set, so the ring itself never mutates after boot).
    ring: Ring,
    /// Engine version learned from shard pings; 0 = not yet known. All
    /// shards must agree (mixed engine versions would split the cache
    /// namespace); the prober records the first one seen.
    engine_version: AtomicU32,
    counters: Counters,
}

type Shared = Front<Router>;

impl Router {
    fn engine_version(&self) -> Option<u32> {
        match self.engine_version.load(Ordering::SeqCst) {
            0 => None,
            v => Some(v),
        }
    }

    fn shard_serving(&self, idx: usize) -> bool {
        locked(&self.shards[idx].health).serving()
    }

    /// File evidence against a shard; the prober owns eviction.
    fn shard_failed(&self, idx: usize) {
        let _ = locked(&self.shards[idx].health).record_fail(&self.config.health);
    }

    /// Count the jobs `finish` found already terminal: late copies from
    /// a raced failover, dropped by the at-most-once guard.
    fn count_duplicates(&self, fresh: &[bool]) {
        let dups = fresh.iter().filter(|f| !**f).count() as u64;
        if dups > 0 {
            self.counters.duplicates.fetch_add(dups, Ordering::Relaxed);
        }
    }
}

impl Executor for Router {
    /// The router never answers a job inline, so a full queue can turn
    /// a submit away before paying for its parse.
    const SHED_BEFORE_PARSE: bool = true;

    fn ping(&self) -> String {
        format!(
            "{{\"ok\":true,\"pong\":true,\"router\":true,\"engine_version\":{},\"shards\":{}}}",
            self.engine_version.load(Ordering::SeqCst),
            self.shards.len()
        )
    }

    fn stats(&self, front: &Front<Self>) -> String {
        let c = &self.counters;
        let n = front.counts();
        let failed = n.failed + n.quarantined + n.deadline_expired;
        // Submitted minus everything accounted for; the cluster
        // invariant (chaos-tested) is that it is always 0.
        let lost = n
            .submitted
            .saturating_sub(n.done + failed + n.queued + n.running);
        let mut shards_json = String::from("[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                shards_json.push(',');
            }
            shards_json.push_str("{\"addr\":");
            push_json_str(&mut shards_json, &s.addr);
            shards_json.push_str(",\"id\":");
            let id = locked(&s.id);
            push_json_str(&mut shards_json, id.as_deref().unwrap_or(&s.addr));
            drop(id);
            shards_json.push_str(",\"health\":\"");
            shards_json.push_str(locked(&s.health).as_str());
            shards_json.push_str("\"}");
        }
        shards_json.push(']');
        format!(
            "{{\"ok\":true,\"router\":true,\"engine_version\":{},\"draining\":{},\
             \"jobs\":{{\"submitted\":{},\"done\":{},\"failed\":{},\"queued\":{},\
             \"routing\":{},\"lost\":{},\"resumed\":{},\"rerouted\":{},\"duplicates\":{},\
             \"unroutable\":{}}},\
             \"cluster\":{{\"replicas\":{},\"rebalances\":{},\"rebalanced_keys\":{},\
             \"cache_pushes\":{},\"shards\":{}}}}}",
            self.engine_version.load(Ordering::SeqCst),
            front.draining(),
            n.submitted,
            n.done,
            failed,
            n.queued,
            n.running,
            lost,
            n.resumed,
            c.rerouted.load(Ordering::Relaxed),
            c.duplicates.load(Ordering::Relaxed),
            c.unroutable.load(Ordering::Relaxed),
            self.ring.replicas(),
            c.rebalances.load(Ordering::Relaxed),
            c.rebalanced_keys.load(Ordering::Relaxed),
            c.cache_pushes.load(Ordering::Relaxed),
            shards_json
        )
    }
}

/// A running router. Call [`RouterHandle::shutdown`] (or send
/// `{"op":"shutdown"}`) to drain.
pub struct RouterHandle {
    /// Bound address (`host:port`, with the real ephemeral port).
    pub addr: String,
    front: Arc<Shared>,
    listener: Option<std::thread::JoinHandle<()>>,
}

impl RouterHandle {
    /// Ask the router to drain (idempotent, non-blocking).
    pub fn request_shutdown(&self) {
        self.front.request_shutdown();
    }

    /// Drain and wait: every queued job reaches a terminal state first.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        if let Some(t) = self.listener.take() {
            let _ = t.join();
        }
    }

    /// Wait until the router exits.
    pub fn join(mut self) {
        if let Some(t) = self.listener.take() {
            let _ = t.join();
        }
    }

    /// In-process snapshot of the `stats` reply. The accounting outlives
    /// the sockets: after a drain closes every connection, this still
    /// reports the final counters (harnesses use it to assert lost == 0
    /// without racing the listener's exit).
    pub fn stats_json(&self) -> String {
        self.front.exec.stats(&self.front)
    }

    /// Ring preference order (shard indexes, primary first) for a
    /// content key. The ring is fixed at boot and named by shard
    /// position, so the order depends only on the key and the shard
    /// count; harnesses use it to aim a job at a known primary.
    pub fn preference(&self, key: &str) -> Vec<usize> {
        self.front.exec.ring.preference(key)
    }
}

/// Boot a router: bind, spawn dispatchers and the prober, return.
pub fn spawn(config: RouterConfig) -> std::io::Result<RouterHandle> {
    if config.shards.is_empty() {
        return Err(std::io::Error::other("router needs at least one shard"));
    }
    let (acceptor, addr) = Acceptor::bind(&Listen::Tcp(config.listen.clone()))?;

    // Ring points are named by each shard's position in the config, not
    // its address: placement then depends only on job keys and the shard
    // count, not on which ports the shards happened to bind.
    let mut ring = Ring::new(config.replicas, config.vnodes);
    let shards: Vec<ShardState> = config
        .shards
        .iter()
        .enumerate()
        .map(|(i, a)| {
            ring.add(&i.to_string());
            ShardState {
                addr: a.clone(),
                id: Mutex::new(None),
                health: Mutex::new(Health::Up),
            }
        })
        .collect();

    let workers = config.workers.max(1);
    let max_queue = config.max_queue;
    let front = Arc::new(Front::new(
        Router {
            pool: ConnPool::new(shards.len()),
            shards,
            ring,
            engine_version: AtomicU32::new(0),
            counters: Counters::default(),
            config,
        },
        max_queue,
        MAX_CONNS,
    )?);

    let dispatchers: Vec<_> = (0..workers)
        .map(|i| {
            let sh = Arc::clone(&front);
            std::thread::Builder::new()
                .name(format!("router-dispatch-{i}"))
                .spawn(move || {
                    while let Some(jobs) = sh.pop(GROUP_MAX) {
                        route(&sh, jobs);
                    }
                })
                .expect("spawn dispatcher")
        })
        .collect();

    // The prober outlives the drain: jobs admitted before it still need
    // the engine version it learns and the shards it re-admits, so it
    // stops only once the dispatchers have finished them.
    let prober_stop = Arc::new(AtomicBool::new(false));
    let prober = {
        let sh = Arc::clone(&front);
        let stop = Arc::clone(&prober_stop);
        std::thread::Builder::new()
            .name("router-prober".into())
            .spawn(move || prober_loop(&sh, &stop))
            .expect("spawn prober")
    };

    let sh = Arc::clone(&front);
    let listener_thread = std::thread::Builder::new()
        .name("router-listener".into())
        .spawn(move || {
            sh.serve(&acceptor);
            for d in dispatchers {
                let _ = d.join();
            }
            prober_stop.store(true, Ordering::SeqCst);
            let _ = prober.join();
        })
        .expect("spawn listener");

    Ok(RouterHandle {
        addr,
        front,
        listener: Some(listener_thread),
    })
}

/// Max jobs one dispatcher pops from the queue per sweep. Under load the
/// queue runs deep, every popped run buckets by target shard, and each
/// bucket rides one pipelined connection — the round trip amortizes over
/// the whole bucket instead of repeating per job (the difference between
/// ~workers/RTT and ~bucket/RTT throughput; see DESIGN.md §15).
const GROUP_MAX: usize = 64;

/// A popped job on its way to a terminal state.
struct Pending {
    job: Claim,
    /// The spec as a batch-of-one request line.
    line: String,
    /// Routing budget, counted from the pop: the job's own
    /// `deadline_ms`, else `route_deadline_ms`.
    budget: Duration,
    /// Content key and ring preference order (primary first), fixed
    /// once the engine version is known.
    place: Option<(String, Vec<usize>)>,
    /// Where in the preference order the next attempt resumes; it wraps
    /// round to the primary after the last shard.
    cursor: usize,
    attempts: u32,
    /// Whether `rerouted` already counts this job.
    rerouted: bool,
    last_err: String,
}

impl Pending {
    fn new(r: &Router, job: Claim) -> Pending {
        let budget = job.spec.deadline_ms.unwrap_or(r.config.route_deadline_ms);
        Pending {
            line: batch_line(&job.spec),
            budget: Duration::from_millis(budget.max(1)),
            job,
            place: None,
            cursor: 0,
            attempts: 0,
            rerouted: false,
            last_err: String::from("no serving shard"),
        }
    }

    /// The next serving shard in this job's preference order, or `None`
    /// when no shard serves.
    fn next_shard(&mut self, r: &Router, ev: u32) -> Option<usize> {
        let (_, pref) = self.place.get_or_insert_with(|| {
            let key = self.job.spec.key(ev);
            let pref = r.ring.preference(&key);
            (key, pref)
        });
        let n = pref.len();
        let at = (self.cursor..self.cursor + n)
            .map(|k| k % n)
            .find(|&k| r.shard_serving(pref[k]))?;
        self.cursor = at + 1;
        Some(pref[at])
    }
}

/// Route a popped run of jobs — one job or many — to terminal states.
/// Each round buckets the pending jobs by the next serving shard in
/// their ring preference order and [`send`]s every bucket; the jobs a
/// shard left unresolved (refused, cut off by a broken stream,
/// unanswered) go round again onto their next shard. A job whose budget
/// is spent is finished `deadline_expired` with an `unroutable` error.
///
/// Every budget starts at the pop, so with no shard reachable a run of
/// k jobs expires in one budget, not k budgets run one after another.
/// The waits for an engine version (placement is undefined before the
/// first pong) and for a serving shard end with the earliest budget.
fn route(sh: &Shared, jobs: Vec<Claim>) {
    let r = &sh.exec;
    let t0 = Instant::now();
    let mut pending: Vec<Pending> = jobs.into_iter().map(|job| Pending::new(r, job)).collect();
    loop {
        let now = t0.elapsed();
        let (spent, live): (Vec<Pending>, Vec<Pending>) =
            pending.into_iter().partition(|p| p.budget <= now);
        expire(sh, spent);
        let Some(left) = live.iter().map(|p| p.budget - now).min() else {
            return;
        };
        let Some(ev) = r.engine_version() else {
            std::thread::sleep(left.min(Duration::from_millis(25)));
            pending = live;
            continue;
        };
        let mut buckets: Vec<(usize, Vec<Pending>)> = Vec::new();
        pending = Vec::new();
        for mut p in live {
            match p.next_shard(r, ev) {
                Some(idx) => match buckets.iter_mut().find(|(i, _)| *i == idx) {
                    Some((_, b)) => b.push(p),
                    None => buckets.push((idx, vec![p])),
                },
                None => {
                    p.last_err = String::from("no serving shard");
                    pending.push(p);
                }
            }
        }
        if buckets.is_empty() {
            std::thread::sleep(left.min(Duration::from_millis(50)));
        }
        for (idx, bucket) in buckets {
            pending.extend(send(sh, idx, bucket, t0));
        }
    }
}

/// Finish jobs whose routing budget is spent.
fn expire(sh: &Shared, spent: Vec<Pending>) {
    if spent.is_empty() {
        return;
    }
    let r = &sh.exec;
    r.counters
        .unroutable
        .fetch_add(spent.len() as u64, Ordering::Relaxed);
    let fresh = sh.finish_all(spent.into_iter().map(|p| {
        let state = State::Failed {
            verdict: Verdict::DeadlineExpired,
            error: format!(
                "unroutable after {} ms: {}",
                p.budget.as_millis(),
                p.last_err
            ),
            attempts: p.attempts.max(1),
        };
        (p.job.id, state)
    }));
    r.count_duplicates(&fresh);
}

/// Send one bucket to shard `idx` — every job line in one write — and
/// read the replies in order (the shard answers a connection FIFO).
/// Terminal replies are recorded under one lock and one wakeup,
/// and a fresh uncached `done` is replicated to the key's replicas. The
/// jobs left unresolved are returned: re-sending them elsewhere is safe
/// because execution is deterministic and cache-keyed, and `finish`'s
/// at-most-once guard absorbs a raced duplicate. The io and connect
/// timeouts end with the bucket's earliest budget.
fn send(sh: &Shared, idx: usize, mut bucket: Vec<Pending>, t0: Instant) -> Vec<Pending> {
    let r = &sh.exec;
    let mut rerouted = 0u64;
    let mut wire = String::with_capacity(bucket.iter().map(|p| p.line.len() + 1).sum());
    for p in &mut bucket {
        p.attempts += 1;
        if p.attempts > 1 {
            // A failover from a previous failure.
            sh.set_attempts(p.job.id, p.attempts);
        }
        // `rerouted` counts jobs served away from their ring primary —
        // whether the primary died mid-flight or was already evicted.
        let primary = p.place.as_ref().and_then(|(_, pref)| pref.first().copied());
        if !p.rerouted && primary != Some(idx) {
            p.rerouted = true;
            rerouted += 1;
        }
        wire.push_str(&p.line);
        wire.push('\n');
    }
    if rerouted > 0 {
        r.counters.rerouted.fetch_add(rerouted, Ordering::Relaxed);
    }
    let left = bucket
        .iter()
        .map(|p| p.budget.saturating_sub(t0.elapsed()))
        .min()
        .unwrap_or_default();
    let connect_t = Duration::from_millis(r.config.ping_timeout_ms).min(left);
    let io_t = Duration::from_millis(r.config.attempt_timeout_ms).min(left);
    let (replies, broken) = exchange(r, idx, &wire, bucket.len(), connect_t, io_t);
    if broken.is_some() {
        r.shard_failed(idx);
    }
    let addr = &r.shards[idx].addr;
    let mut replies = replies.into_iter();
    let mut settled: Vec<(u64, State)> = Vec::new();
    let mut copies: Vec<Option<(String, Arc<Vec<u8>>)>> = Vec::new();
    let mut unresolved = Vec::new();
    for mut p in bucket {
        let outcome = match replies.next() {
            Some(raw) => classify_reply(addr, &raw, p.attempts).inspect_err(|_| {
                // The shard answered (the stream is still synchronized)
                // but refused the job.
                r.shard_failed(idx);
            }),
            None => Err(broken.clone().unwrap_or_default()),
        };
        match outcome {
            Ok(state) => {
                let key = p.place.take().map(|(key, _)| key).unwrap_or_default();
                copies.push(uncached_bytes(&state).map(|bytes| (key, bytes)));
                settled.push((p.job.id, state));
            }
            Err(e) => {
                p.last_err = e;
                unresolved.push(p);
            }
        }
    }
    let fresh = sh.finish_all(settled);
    r.count_duplicates(&fresh);
    for (copy, fresh) in copies.into_iter().zip(fresh) {
        if let (Some((key, bytes)), true) = (copy, fresh) {
            replicate(r, &key, &bytes, idx);
        }
    }
    unresolved
}

/// Send `framed` (`n` newline-terminated request lines) to shard `idx`
/// in one write and read up to `n` raw replies in order, on a pooled
/// keep-alive connection or else a fresh dial within `connect_t`; every
/// read and write is bounded by `io_t`. Returns the replies read and,
/// when fewer than `n` came back, why the stream broke. The connection
/// returns to the pool only after all `n` replies (the stream is then
/// synchronized).
///
/// A pooled connection that fails before its first reply, other than
/// by timing out, went stale (the shard restarted or closed it since it
/// was pooled): it is dropped and the exchange redials once. The stale
/// connection is not the caller's evidence against the shard; the
/// redial's outcome is.
fn exchange(
    r: &Router,
    idx: usize,
    framed: &str,
    n: usize,
    connect_t: Duration,
    io_t: Duration,
) -> (Vec<String>, Option<String>) {
    // A zero deadline is an error to the socket calls, not "expired".
    let floor = Duration::from_millis(1);
    let addr = &r.shards[idx].addr;
    let mut pooled = r.pool.take(idx);
    loop {
        let reused = pooled.is_some();
        let mut conn = match pooled.take() {
            Some(c) => c,
            None => match Client::connect_timeout(addr, connect_t.max(floor)) {
                Ok(c) => c,
                Err(e) => return (Vec::new(), Some(format!("{addr}: connect: {e}"))),
            },
        };
        let mut replies = Vec::with_capacity(n);
        let io = conn
            .set_io_timeout(Some(io_t.max(floor)))
            .and_then(|()| conn.send_lines(framed))
            .and_then(|()| {
                while replies.len() < n {
                    replies.push(conn.recv_line()?);
                }
                Ok(())
            });
        match io {
            Ok(()) => {
                r.pool.put(idx, conn);
                return (replies, None);
            }
            Err(e) if reused && replies.is_empty() && !timed_out(&e) => continue,
            Err(e) => return (replies, Some(format!("{addr}: {e}"))),
        }
    }
}

/// Whether an io error is a lapsed socket deadline (a read or write
/// timeout reads as `WouldBlock` on Unix).
fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

/// Result bytes worth replicating: a freshly computed (uncached) result.
fn uncached_bytes(state: &State) -> Option<Arc<Vec<u8>>> {
    match state {
        State::Done {
            bytes,
            cached: false,
            ..
        } => Some(Arc::clone(bytes)),
        _ => None,
    }
}

/// Errors that mean "try another shard", not "the job is bad".
fn transient_error(e: &str) -> bool {
    e.contains("queue full") || e.contains("draining") || e.contains("killed") || e.contains("busy")
}

/// A spec as a batch-of-one request line.
fn batch_line(spec: &JobSpec) -> String {
    let mut out = String::from("{\"op\":\"batch\",\"jobs\":[{\"exp\":");
    push_json_str(&mut out, &spec.exp);
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(",\"params\":{},\"seed\":{}", spec.params.dump(), spec.seed),
    );
    if let Some(d) = spec.deadline_ms {
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!(",\"deadline_ms\":{d}"));
    }
    if let Some(r) = spec.retries {
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!(",\"retries\":{r}"));
    }
    if spec.probe {
        out.push_str(",\"probe\":true");
    }
    out.push_str(",\"cache\":\"");
    out.push_str(spec.cache.as_str());
    out.push_str("\"}]}");
    out
}

/// Extract the raw `result` bytes from a batch-of-one reply line. The
/// fields before `result` are fixed-format (none can contain the
/// marker), and `result` is the status object's final field, so the
/// slice between the marker and the closing `}]}` is exactly the bytes
/// the shard spliced in.
fn raw_result(line: &str) -> Option<&str> {
    let at = line.find("\"result\":")?;
    line[at + "\"result\":".len()..].strip_suffix("}]}")
}

/// Classify a complete batch-of-one reply line from `addr`: the job's
/// terminal state (a failure carries the router's `attempts`), or a
/// transient error — the *shard* failed, not the job — worth failing
/// over on.
fn classify_reply(addr: &str, raw: &str, attempts: u32) -> Result<State, String> {
    let v = json::parse(raw).map_err(|(at, msg)| format!("{addr}: bad reply at {at}: {msg}"))?;
    let refusal = |el: &Value| {
        let error = el
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unknown error")
            .to_string();
        if transient_error(&error) {
            Err(format!("{addr}: {error}"))
        } else {
            Ok(State::Failed {
                verdict: Verdict::Failed,
                error,
                attempts,
            })
        }
    };
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return refusal(&v);
    }
    let Some(results) = v.get("results").and_then(Value::as_arr) else {
        return Err(format!("{addr}: reply without results"));
    };
    let Some(el) = results.first() else {
        return Err(format!("{addr}: empty results"));
    };
    if el.get("ok").and_then(Value::as_bool) != Some(true) {
        return refusal(el);
    }
    match el.get("state").and_then(Value::as_str) {
        Some("done") => match raw_result(raw) {
            Some(res) => Ok(State::Done {
                bytes: Arc::new(res.as_bytes().to_vec()),
                cached: el.get("cached").and_then(Value::as_bool).unwrap_or(false),
                resumed: el
                    .get("resumed_from_snapshot")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
                wall_ms: el.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0),
            }),
            None => Err(format!("{addr}: done reply without result bytes")),
        },
        Some("failed") => Ok(State::Failed {
            verdict: el
                .get("verdict")
                .and_then(Value::as_str)
                .and_then(Verdict::parse)
                .unwrap_or(Verdict::Failed),
            error: el
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            attempts,
        }),
        other => Err(format!("{addr}: non-terminal batch state {other:?}")),
    }
}

/// Copy a freshly computed result to the key's other serving replicas,
/// so the next failover (or the next submission routed while the
/// executor is down) finds a warm copy. Best-effort: replication is an
/// optimization, correctness comes from recomputation determinism.
fn replicate(r: &Router, key: &str, bytes: &[u8], executor: usize) {
    let push = format!(
        "{{\"op\":\"cache_push\",\"key\":\"{key}\",\"result\":{}}}\n",
        String::from_utf8_lossy(bytes)
    );
    let timeout = Duration::from_millis(r.config.ping_timeout_ms.max(1) * 4);
    for idx in r.ring.replica_set(key) {
        if idx == executor || !r.shard_serving(idx) {
            continue;
        }
        if exchange(r, idx, &push, 1, timeout, timeout).1.is_none() {
            r.counters.cache_pushes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The prober: pings every shard each sweep, drives the health state
/// machine, learns engine version and shard ids, and triggers a warm
/// rebalance whenever the serving set changes. Runs until `stop`, which
/// is set after a drain has routed every admitted job.
fn prober_loop(sh: &Shared, stop: &AtomicBool) {
    let r = &sh.exec;
    let timeout = Duration::from_millis(r.config.ping_timeout_ms.max(1));
    let mut last_serving: Option<Vec<bool>> = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        for (idx, s) in r.shards.iter().enumerate() {
            let (replies, _) = exchange(r, idx, "{\"op\":\"ping\"}\n", 1, timeout, timeout);
            match replies.first().and_then(|raw| json::parse(raw).ok()) {
                Some(pong) if pong.get("pong").and_then(Value::as_bool) == Some(true) => {
                    if let Some(ev) = pong.get("engine_version").and_then(Value::as_u64) {
                        let _ = r.engine_version.compare_exchange(
                            0,
                            ev as u32,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                    }
                    if let Some(id) = pong.get("shard_id").and_then(Value::as_str) {
                        let mut slot = locked(&s.id);
                        if slot.as_deref() != Some(id) {
                            *slot = Some(id.to_string());
                        }
                    }
                    let _ = locked(&s.health).record_ok(&r.config.health);
                }
                _ => {
                    let _ = locked(&s.health).record_fail(&r.config.health);
                }
            }
        }
        let serving: Vec<bool> = (0..r.shards.len()).map(|i| r.shard_serving(i)).collect();
        let changed = last_serving.as_ref() != Some(&serving);
        if changed && serving.iter().any(|&b| b) {
            let live: Vec<usize> = (0..serving.len()).filter(|&i| serving[i]).collect();
            let t = timeout * 4;
            let moved = rebalance(&live, &r.ring, |idx, line| {
                exchange(r, idx, line, 1, t, t).0.pop()
            });
            r.counters.rebalances.fetch_add(1, Ordering::Relaxed);
            r.counters
                .rebalanced_keys
                .fetch_add(moved, Ordering::Relaxed);
        }
        if changed {
            last_serving = Some(serving);
        }
        // Sleep in small slices so shutdown stays responsive.
        let mut left = r.config.ping_interval_ms.max(1);
        while left > 0 && !stop.load(Ordering::SeqCst) {
            let step = left.min(50);
            std::thread::sleep(Duration::from_millis(step));
            left -= step;
        }
    }
}
