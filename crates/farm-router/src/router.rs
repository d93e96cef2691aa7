//! The routing executor: dispatcher pool, shard prober, replication.
//!
//! Clients are served by farmd's own job front end
//! ([`bfly_farmd::front`]), so the router's client protocol — verbs,
//! limits, reply bytes, connection cap, record eviction — is a single
//! farmd's. What the router adds is the executor behind it, a farmd
//! client on the shard side. Dispatchers pop queued jobs, walk each
//! job's ring preference order restricted to serving shards, forward it
//! as a batch-of-one, and classify the outcome —
//!
//! * terminal verdict from the shard (`done`/`failed`/...) → recorded
//!   once through [`Front::finish`] (at-most-once delivery: a late
//!   duplicate from a raced failover is counted and dropped);
//! * transport failure (connect refused, io timeout, cut connection,
//!   `killed`) or transient refusal (`draining`, `queue full`, `busy`)
//!   → fail over to the next shard in preference order (`rerouted`++);
//! * deadline exhausted with no shard reachable → terminal
//!   `deadline_expired` with an `unroutable` error. Every admitted job
//!   reaches *some* terminal state: `lost` (in `stats`) stays 0.
//!
//! Cold results are replicated to the key's remaining replica shards
//! (`cache_push`) so the next failover finds a warm copy.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bfly_farmd::front::{Acceptor, Claim, State};
use bfly_farmd::json::{self, push_json_str, Value};
use bfly_farmd::{Executor, Front, JobSpec, Listen, Verdict};

use crate::conn::ShardConn;
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

/// Keep-alive connections to each shard, checked out by dispatchers and
/// the replicator. A fresh TCP dial per forwarded job caps the router at
/// connection-setup rate, not shard serving rate; reuse moves the warm
/// path to one request/reply round trip per job. Connections are only
/// returned after a complete reply line (protocol-synchronized), and a
/// checkout that turns out stale (shard restarted since) is dropped and
/// redialed rather than charged to the shard's health.
struct ConnPool {
    slots: Vec<Mutex<Vec<ShardConn>>>,
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

    fn take(&self, idx: usize) -> Option<ShardConn> {
        locked(&self.slots[idx]).pop()
    }

    fn put(&self, idx: usize, conn: ShardConn) {
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
    /// content key. The ring is fixed at boot, so harnesses can aim a
    /// job at a known primary instead of hoping a seed sweep happens to
    /// cover every shard (vnode arc sizes vary with shard addresses).
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

    let mut ring = Ring::new(config.replicas, config.vnodes);
    let shards: Vec<ShardState> = config
        .shards
        .iter()
        .map(|a| {
            ring.add(a);
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
    )?);

    let dispatchers: Vec<_> = (0..workers)
        .map(|i| {
            let sh = Arc::clone(&front);
            std::thread::Builder::new()
                .name(format!("router-dispatch-{i}"))
                .spawn(move || {
                    while let Some(mut jobs) = sh.pop(GROUP_MAX) {
                        match jobs.len() {
                            1 => dispatch(&sh, jobs.remove(0)),
                            _ => dispatch_group(&sh, jobs),
                        }
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

/// One job's share of a pipelined bucket.
struct GroupJob {
    job: Claim,
    line: String,
    key: String,
    /// Whether the bucket's shard is this job's ring primary (reroute
    /// accounting, matched to [`dispatch`]'s).
    primary: bool,
}

/// Route a popped run of jobs: bucket them by the shard [`dispatch`]
/// would try first, then pipeline each bucket over a single connection.
/// Any job the fast path cannot finish — placement unknown, no serving
/// shard, a transient refusal, a broken stream — falls back to the
/// single-job [`dispatch`] with its full failover/budget machinery. The
/// fast path only ever shortcuts the slow one, never replaces it.
fn dispatch_group(sh: &Shared, jobs: Vec<Claim>) {
    let r = &sh.exec;
    let Some(ev) = r.engine_version() else {
        for job in jobs {
            dispatch(sh, job);
        }
        return;
    };
    let mut buckets: Vec<(usize, Vec<GroupJob>)> = Vec::new();
    let mut slow: Vec<Claim> = Vec::new();
    for job in jobs {
        let key = job.spec.key(ev);
        let pref = r.ring.preference(&key);
        let primary = pref.first().copied();
        let Some(idx) = pref.into_iter().find(|&i| r.shard_serving(i)) else {
            slow.push(job);
            continue;
        };
        let g = GroupJob {
            line: batch_line(&job.spec),
            job,
            key,
            primary: Some(idx) == primary,
        };
        match buckets.iter_mut().find(|(i, _)| *i == idx) {
            Some((_, v)) => v.push(g),
            None => buckets.push((idx, vec![g])),
        }
    }
    for (idx, group) in buckets {
        forward_group(sh, idx, group, &mut slow);
    }
    for job in slow {
        dispatch(sh, job);
    }
}

/// Pipeline one bucket over one shard connection: send every line, then
/// read replies strictly in order (the shard answers a connection
/// FIFO). Jobs with a terminal protocol reply are recorded here, under
/// one table lock and one wakeup for the whole bucket;
/// everything else lands in `slow`. A transport error anywhere
/// desynchronizes the stream, so the connection is dropped and the
/// unresolved tail goes slow — re-sending is safe because execution is
/// deterministic and cache-keyed, and `finish`'s at-most-once guard
/// absorbs any raced duplicate.
fn forward_group(sh: &Shared, idx: usize, group: Vec<GroupJob>, slow: &mut Vec<Claim>) {
    let r = &sh.exec;
    let io_t = Duration::from_millis(r.config.attempt_timeout_ms.max(1));
    let pooled = r.pool.take(idx).filter(|c| c.set_io_timeout(io_t).is_ok());
    let mut conn = match pooled {
        Some(c) => c,
        None => {
            let connect_t = Duration::from_millis(r.config.ping_timeout_ms.max(1));
            let fresh = ShardConn::connect(&r.shards[idx].addr, connect_t)
                .and_then(|c| c.set_io_timeout(io_t).map(|()| c));
            match fresh {
                Ok(c) => c,
                Err(_) => {
                    r.shard_failed(idx);
                    slow.extend(group.into_iter().map(|g| g.job));
                    return;
                }
            }
        }
    };
    // One write for the whole bucket: per-line sends cost a syscall per
    // job, and a dispatcher sweep is up to GROUP_MAX of them.
    let mut wire = String::with_capacity(group.iter().map(|g| g.line.len() + 1).sum());
    for g in &group {
        wire.push_str(&g.line);
        wire.push('\n');
    }
    let sent = match conn.send_all(&wire) {
        Ok(()) => group.len(),
        // A partial write corrupts the stream; the read loop resolves
        // what did go out and the remainder goes slow.
        Err(_) => 0,
    };
    let addr = &r.shards[idx].addr;
    let mut read = 0;
    let mut stream_ok = true;
    let mut rerouted = 0u64;
    let mut retry = vec![false; group.len()];
    let mut settled: Vec<(u64, State)> = Vec::new();
    // (group index, bytes to replicate) per settled entry.
    let mut copies: Vec<(usize, Option<Arc<Vec<u8>>>)> = Vec::new();
    for (gi, g) in group.iter().take(sent).enumerate() {
        let raw = match conn.recv_raw() {
            Ok(raw) => raw,
            Err(_) => {
                r.shard_failed(idx);
                stream_ok = false;
                break;
            }
        };
        read += 1;
        match classify_reply(addr, &raw, 1) {
            // The shard answered (stream still synchronized) but
            // refused the job; the slow path owns retry/failover.
            Err(_) => {
                r.shard_failed(idx);
                retry[gi] = true;
            }
            Ok(state) => {
                if !g.primary {
                    rerouted += 1;
                }
                copies.push((gi, uncached_bytes(&state)));
                settled.push((g.job.id, state));
            }
        }
    }
    if rerouted > 0 {
        r.counters.rerouted.fetch_add(rerouted, Ordering::Relaxed);
    }
    let fresh = sh.finish_all(settled);
    r.count_duplicates(&fresh);
    for ((gi, bytes), fresh) in copies.into_iter().zip(fresh) {
        if let (Some(bytes), true) = (bytes, fresh) {
            replicate(r, &group[gi].key, &bytes, idx);
        }
    }
    if stream_ok && sent == group.len() {
        r.pool.put(idx, conn);
    }
    for (gi, g) in group.into_iter().enumerate() {
        if retry[gi] || gi >= read {
            slow.push(g.job);
        }
    }
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

/// Run one queued job to a terminal state by forwarding it shard-ward.
fn dispatch(sh: &Shared, job: Claim) {
    let r = &sh.exec;
    let Claim { id, spec, .. } = job;
    let t0 = Instant::now();
    let budget = Duration::from_millis(
        spec.deadline_ms
            .unwrap_or(r.config.route_deadline_ms)
            .max(1),
    );
    let line = batch_line(&spec);
    let mut attempts = 0u32;
    // `rerouted` counts jobs served away from their ring primary —
    // whether the primary died mid-flight (attempt failed, failover) or
    // was already evicted (routed straight to a replica). Once per job.
    let mut reroute_counted = false;
    let mut last_err = String::from("no serving shard");

    while t0.elapsed() < budget {
        let Some(ev) = r.engine_version() else {
            // No shard has ever answered a ping: placement is undefined.
            // Wait for the prober (or the budget) rather than guessing.
            std::thread::sleep(Duration::from_millis(25));
            continue;
        };
        let key = spec.key(ev);
        let pref = r.ring.preference(&key);
        let primary = pref.first().copied();
        let serving: Vec<usize> = pref.into_iter().filter(|&i| r.shard_serving(i)).collect();
        if serving.is_empty() {
            last_err = "no serving shard".into();
            std::thread::sleep(Duration::from_millis(50));
            continue;
        }
        let mut progressed = false;
        for idx in serving {
            let remaining = budget.saturating_sub(t0.elapsed());
            if remaining.is_zero() {
                break;
            }
            attempts += 1;
            if attempts > 1 {
                // This attempt is a failover from a previous failure.
                sh.set_attempts(id, attempts);
            }
            if Some(idx) != primary && !reroute_counted {
                r.counters.rerouted.fetch_add(1, Ordering::Relaxed);
                reroute_counted = true;
            }
            let outcome = forward(r, idx, &line, remaining)
                .and_then(|raw| classify_reply(&r.shards[idx].addr, &raw, attempts));
            match outcome {
                Ok(state) => {
                    let copy = uncached_bytes(&state);
                    let fresh = sh.finish(id, state);
                    r.count_duplicates(&[fresh]);
                    if let (Some(bytes), true) = (copy, fresh) {
                        replicate(r, &key, &bytes, idx);
                    }
                    return;
                }
                Err(e) => {
                    r.shard_failed(idx);
                    last_err = e;
                    progressed = true;
                }
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    r.counters.unroutable.fetch_add(1, Ordering::Relaxed);
    let state = State::Failed {
        verdict: Verdict::DeadlineExpired,
        error: format!("unroutable after {} ms: {last_err}", budget.as_millis()),
        attempts: attempts.max(1),
    };
    r.count_duplicates(&[sh.finish(id, state)]);
}

/// Forward the prepared batch-of-one line to shard `idx`; returns the
/// raw reply line, or a transient error worth failing over on.
///
/// Warm path: a pooled keep-alive connection — one request/reply round
/// trip, no TCP handshake. A stale pooled connection (shard restarted or
/// closed it since checkout) fails fast and falls through to a fresh
/// dial without counting against the shard: re-sending the batch is
/// safe because job execution is deterministic and cache-keyed.
fn forward(r: &Router, idx: usize, line: &str, remaining: Duration) -> Result<String, String> {
    let io_t = Duration::from_millis(r.config.attempt_timeout_ms.max(1)).min(remaining);
    if let Some(mut conn) = r.pool.take(idx) {
        if conn.set_io_timeout(io_t).is_ok() {
            if let Ok(raw) = conn.request_raw(line) {
                r.pool.put(idx, conn);
                return Ok(raw);
            }
        }
    }
    let addr = &r.shards[idx].addr;
    let connect_t = Duration::from_millis(r.config.ping_timeout_ms.max(1)).min(remaining);
    let mut conn =
        ShardConn::connect(addr, connect_t).map_err(|e| format!("{addr}: connect: {e}"))?;
    conn.set_io_timeout(io_t)
        .map_err(|e| format!("{addr}: {e}"))?;
    let raw = conn.request_raw(line).map_err(|e| format!("{addr}: {e}"))?;
    r.pool.put(idx, conn);
    Ok(raw)
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
        "{{\"op\":\"cache_push\",\"key\":\"{key}\",\"result\":{}}}",
        String::from_utf8_lossy(bytes)
    );
    let timeout = Duration::from_millis(r.config.ping_timeout_ms.max(1) * 4);
    for idx in r.ring.replica_set(key) {
        if idx == executor || !r.shard_serving(idx) {
            continue;
        }
        if let Some(mut c) = r.pool.take(idx) {
            if c.set_io_timeout(timeout).is_ok() && c.request_raw(&push).is_ok() {
                r.pool.put(idx, c);
                r.counters.cache_pushes.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Stale keep-alive: drop it and redial below.
        }
        if let Ok(mut c) = ShardConn::connect(&r.shards[idx].addr, timeout) {
            if c.request_raw(&push).is_ok() {
                r.pool.put(idx, c);
                r.counters.cache_pushes.fetch_add(1, Ordering::Relaxed);
            }
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
        for s in &r.shards {
            let outcome = ShardConn::connect(&s.addr, timeout)
                .and_then(|mut c| c.request_raw("{\"op\":\"ping\"}"));
            match outcome.ok().and_then(|raw| json::parse(&raw).ok()) {
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
            let live: Vec<(usize, String)> = r
                .shards
                .iter()
                .enumerate()
                .filter(|(i, _)| serving[*i])
                .map(|(i, s)| (i, s.addr.clone()))
                .collect();
            let moved = rebalance(&live, &r.ring, timeout * 4);
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
