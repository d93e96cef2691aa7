//! The farmd cluster harness: in-process shard fleets behind a
//! `farm-router`, chaos-tested with the seeded [`FaultPlan`] machinery
//! from the fault-injection work (DESIGN.md §9) — now aimed at the
//! serving layer itself instead of simulated hardware.
//!
//! Three public entry points:
//!
//! * [`Cluster`] — boot N in-process farmd shards (each with its own
//!   disk tier) behind chaos proxies and a router; kill/revive shards,
//!   cut/delay links, corrupt disks.
//! * [`chaos_run`] — map a `FaultPlan::random(seed, ..)` schedule onto
//!   the cluster while a job mix is submitted through the router, then
//!   assert the cluster invariants: **no submitted job is lost** (every
//!   one reaches a terminal verdict exactly once), **no duplicate
//!   deliveries**, and every `done` result is **byte-identical** to the
//!   registry's pure recomputation — warm, failover, and rebalanced
//!   copies included. This is the CI `cluster-chaos` job and the
//!   `tests/cluster_chaos.rs` proptest.
//! * [`cluster_bench`] — the fault-free cold/warm/failover latency
//!   benchmark behind `perf_report --cluster-bench` (p50/p99 in the
//!   `cluster` section of `BENCH_sim.json`).
//!
//! Determinism note: the fault *schedule* is a pure function of the
//! seed, but its interleaving with job traffic is host-timing dependent
//! — which is exactly the point. The invariants asserted here are the
//! ones that must hold under **every** interleaving; the seed only
//! decides which corner gets probed today.

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bfly_farm_router::{spawn as spawn_router, RouterConfig, RouterHandle};
use bfly_farmd::json::Value;
use bfly_farmd::{Client, JobRunner, JobSpec, Listen, ServerConfig, ServerHandle};
use bfly_sim::{FaultKind, FaultPlan, FaultSpec, MS};

use crate::farm::Registry;

fn other(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// A TCP chaos proxy on the router→shard path. The router dials the
/// proxy; the proxy dials the (fixed) shard address. `set_drop(true)`
/// cuts every live connection and refuses new ones (a severed link);
/// `set_delay_ms(d)` holds each forwarded chunk for `d` ms (a degraded
/// link). Both toggles take effect on in-flight traffic, not just new
/// connections — a mid-batch link cut is the interesting case.
pub struct ChaosProxy {
    /// The address the router should dial.
    pub addr: String,
    drop_link: Arc<AtomicBool>,
    delay_ms: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

impl ChaosProxy {
    /// Listen on an ephemeral port, forwarding to `target`.
    pub fn spawn(target: String) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        let drop_link = Arc::new(AtomicBool::new(false));
        let delay_ms = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        {
            let (drop_link, delay_ms, stop) = (drop_link.clone(), delay_ms.clone(), stop.clone());
            std::thread::Builder::new()
                .name("chaos-proxy".into())
                .spawn(move || loop {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match listener.accept() {
                        Ok((client, _)) => {
                            if drop_link.load(Ordering::SeqCst) {
                                continue; // refuse: connection dropped on the floor
                            }
                            let Ok(upstream) = TcpStream::connect(&target) else {
                                continue;
                            };
                            let _ = client.set_nodelay(true);
                            let _ = upstream.set_nodelay(true);
                            for (from, to) in [
                                (client.try_clone(), upstream.try_clone()),
                                (Ok(upstream), Ok(client)),
                            ] {
                                let (Ok(from), Ok(to)) = (from, to) else {
                                    continue;
                                };
                                let (drop_link, delay_ms, stop) =
                                    (drop_link.clone(), delay_ms.clone(), stop.clone());
                                let _ = std::thread::Builder::new()
                                    .name("chaos-pump".into())
                                    .spawn(move || pump(from, to, &drop_link, &delay_ms, &stop));
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                })
                .map_err(other)?;
        }
        Ok(ChaosProxy {
            addr,
            drop_link,
            delay_ms,
            stop,
        })
    }

    /// Sever (true) or restore (false) the link.
    pub fn set_drop(&self, dropped: bool) {
        self.drop_link.store(dropped, Ordering::SeqCst);
    }

    /// Hold each forwarded chunk for `ms` milliseconds (0 restores).
    pub fn set_delay_ms(&self, ms: u64) {
        self.delay_ms.store(ms, Ordering::SeqCst);
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    drop_link: &AtomicBool,
    delay_ms: &AtomicU64,
    stop: &AtomicBool,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) || drop_link.load(Ordering::SeqCst) {
            // Cut both directions so the router sees a dead peer, not a
            // silent stall.
            let _ = from.shutdown(std::net::Shutdown::Both);
            let _ = to.shutdown(std::net::Shutdown::Both);
            return;
        }
        match from.read(&mut buf) {
            Ok(0) => {
                let _ = to.shutdown(std::net::Shutdown::Both);
                return;
            }
            Ok(n) => {
                let d = delay_ms.load(Ordering::SeqCst);
                if d > 0 {
                    std::thread::sleep(Duration::from_millis(d));
                }
                // Re-check: a link cut during the delay loses the chunk.
                if drop_link.load(Ordering::SeqCst) {
                    continue;
                }
                if to.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

static CLUSTER_SEQ: AtomicU64 = AtomicU64::new(0);

/// An in-process farmd cluster: N shards (each with its own disk-tier
/// directory), one chaos proxy per shard, one router fronting the
/// proxies.
pub struct Cluster {
    /// The router; `router.addr` is where clients connect.
    pub router: RouterHandle,
    /// One proxy per shard, indexable by shard id.
    pub proxies: Vec<ChaosProxy>,
    shards: Mutex<Vec<Option<ServerHandle>>>,
    /// Fixed shard addresses — a revived shard rebinds its old port so
    /// the proxy target stays valid.
    shard_addrs: Vec<String>,
    dirs: Vec<PathBuf>,
}

fn shard_config(i: usize, listen: String, dir: PathBuf) -> ServerConfig {
    ServerConfig {
        listen: Listen::Tcp(listen),
        workers: 2,
        cache_dir: Some(dir),
        shard_id: Some(format!("shard-{i}")),
        default_retries: 1,
        ..ServerConfig::default()
    }
}

impl Cluster {
    /// Boot `n` shards and a router with replication factor `replicas`.
    pub fn boot(n: usize, replicas: usize) -> std::io::Result<Cluster> {
        let uniq = format!(
            "{}_{}",
            std::process::id(),
            CLUSTER_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let dirs: Vec<PathBuf> = (0..n)
            .map(|i| std::env::temp_dir().join(format!("bfly_cluster_{uniq}_s{i}")))
            .collect();
        for d in &dirs {
            let _ = std::fs::remove_dir_all(d);
        }
        let mut shards = Vec::with_capacity(n);
        let mut shard_addrs = Vec::with_capacity(n);
        let mut proxies = Vec::with_capacity(n);
        for (i, dir) in dirs.iter().enumerate() {
            let h = bfly_farmd::spawn(
                shard_config(i, "127.0.0.1:0".into(), dir.clone()),
                std::sync::Arc::new(Registry),
            )?;
            shard_addrs.push(h.addr.clone());
            proxies.push(ChaosProxy::spawn(h.addr.clone())?);
            shards.push(Some(h));
        }
        let router = spawn_router(RouterConfig {
            shards: proxies.iter().map(|p| p.addr.clone()).collect(),
            replicas,
            ping_interval_ms: 50,
            ping_timeout_ms: 200,
            // Failover detection rides on socket errors (the proxies
            // shut both directions down on a cut, dead shards refuse
            // connections), so the attempt timeout only backstops a
            // genuinely hung shard — it must comfortably exceed a
            // debug-mode cold compute, or `refresh`-mode jobs would be
            // re-dispatched forever, each attempt restarting the
            // computation it just timed out. Generous total budget so
            // jobs queued through a blackout still finish after heal.
            attempt_timeout_ms: 120_000,
            route_deadline_ms: 300_000,
            ..RouterConfig::default()
        })?;
        Ok(Cluster {
            router,
            proxies,
            shards: Mutex::new(shards),
            shard_addrs,
            dirs,
        })
    }

    /// Number of shards (fixed membership).
    pub fn len(&self) -> usize {
        self.shard_addrs.len()
    }

    /// True for a shardless cluster (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.shard_addrs.is_empty()
    }

    /// Connect a protocol client to the router.
    pub fn client(&self) -> std::io::Result<Client> {
        Client::connect(&self.router.addr)
    }

    /// Router `stats` snapshot.
    pub fn stats(&self) -> std::io::Result<Value> {
        self.client()?.request_line(r#"{"op":"stats"}"#)
    }

    /// Abrupt in-process kill (SIGKILL stand-in: queued jobs abandoned,
    /// connections cut, pending disk writes discarded). No-op if the
    /// shard is already down.
    pub fn kill_shard(&self, i: usize) {
        if let Some(h) = self.shards.lock().unwrap_or_else(|p| p.into_inner())[i].take() {
            h.kill();
        }
    }

    /// Restart a killed shard on its original address, with its disk
    /// tier intact (whatever survived the crash). No-op if running.
    pub fn revive_shard(&self, i: usize) -> std::io::Result<()> {
        let mut guard = self.shards.lock().unwrap_or_else(|p| p.into_inner());
        if guard[i].is_some() {
            return Ok(());
        }
        // The old port can linger briefly after the kill; retry the bind.
        let mut last = None;
        for _ in 0..40 {
            match bfly_farmd::spawn(
                shard_config(i, self.shard_addrs[i].clone(), self.dirs[i].clone()),
                std::sync::Arc::new(Registry),
            ) {
                Ok(h) => {
                    guard[i] = Some(h);
                    return Ok(());
                }
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
        Err(last.unwrap_or_else(|| other("revive failed")))
    }

    /// Is shard `i` currently running?
    pub fn shard_up(&self, i: usize) -> bool {
        self.shards.lock().unwrap_or_else(|p| p.into_inner())[i].is_some()
    }

    /// Flip one byte in every cached entry of shard `i`'s disk tier
    /// (deterministically, by `seed`). Returns the number of files hit.
    /// The shard's checksum verification must detect each corrupt entry
    /// on read, delete it, and recompute — never serve garbage.
    pub fn corrupt_disk(&self, i: usize, seed: u64) -> usize {
        let mut hit = 0;
        let Ok(shards) = std::fs::read_dir(&self.dirs[i]) else {
            return 0;
        };
        for shard_dir in shards.flatten() {
            let Ok(entries) = std::fs::read_dir(shard_dir.path()) else {
                continue;
            };
            for f in entries.flatten() {
                let path = f.path();
                if path.extension().and_then(|e| e.to_str()) != Some("json") {
                    continue;
                }
                let Ok(mut bytes) = std::fs::read(&path) else {
                    continue;
                };
                if bytes.is_empty() {
                    continue;
                }
                let at = (seed as usize).wrapping_mul(31).wrapping_add(hit) % bytes.len();
                bytes[at] ^= 0x5a;
                if std::fs::write(&path, &bytes).is_ok() {
                    hit += 1;
                }
            }
        }
        hit
    }

    /// Heal everything: revive dead shards, restore all links.
    pub fn heal(&self) -> std::io::Result<()> {
        for p in &self.proxies {
            p.set_drop(false);
            p.set_delay_ms(0);
        }
        for i in 0..self.len() {
            self.revive_shard(i)?;
        }
        Ok(())
    }

    /// Drain the router, kill the shards, remove the disk tiers.
    pub fn shutdown(self) {
        let Cluster {
            router,
            proxies,
            shards,
            dirs,
            ..
        } = self;
        router.shutdown();
        drop(proxies);
        for s in shards
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter_mut()
            .filter_map(Option::take)
        {
            s.kill();
        }
        for d in &dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// The chaos-run job mix: cheap, deterministic, cache-key-diverse.
/// Several seeds of a small FIG5 sweep (distinct keys) plus two quick
/// tables, with one duplicate to exercise the warm path mid-chaos.
pub fn chaos_jobs() -> Vec<String> {
    let mut jobs: Vec<String> = (1..=4u64)
        .map(|seed| {
            format!(r#"{{"exp":"fig5_gauss","params":{{"n":12,"ps":[4,8]}},"seed":{seed}}}"#)
        })
        .collect();
    jobs.push(r#"{"exp":"tab1_memory","params":{"quick":true},"seed":1}"#.into());
    jobs.push(r#"{"exp":"tab15_faults","params":{"quick":true},"seed":1}"#.into());
    // Duplicate of the first job: same content key, warm somewhere.
    jobs.push(jobs[0].clone());
    jobs
}

/// One wall-clock-scheduled cluster fault.
#[derive(Debug, Clone)]
struct ClusterFault {
    at_ms: u64,
    action: FaultAction,
}

#[derive(Debug, Clone)]
enum FaultAction {
    Kill(usize),
    Revive(usize),
    LinkDown(usize),
    LinkUp(usize),
    LinkDelay(usize, u64),
    CorruptDisk(usize),
}

/// Map a seeded [`FaultPlan`] onto cluster faults across `window_ms` of
/// wall-clock. Pure function of `(seed, shards, window_ms)`.
fn cluster_faults(seed: u64, shards: usize, window_ms: u64) -> Vec<ClusterFault> {
    let spec = FaultSpec {
        horizon: MS,
        nodes: shards as u32,
        stages: 1,
        ports: shards as u32,
        disks: shards as u32,
        node_crashes: 2,
        link_events: 3,
        disk_fails: 1,
    };
    let plan = FaultPlan::random(seed, &spec);
    let mut out = Vec::new();
    for ev in &plan.events {
        let at_ms = (ev.at as u128 * window_ms as u128 / MS.max(1) as u128) as u64;
        let action = match ev.kind {
            FaultKind::NodeCrash { node } => FaultAction::Kill(node as usize % shards),
            FaultKind::NodeRecover { node } => FaultAction::Revive(node as usize % shards),
            FaultKind::LinkDown { port, .. } => FaultAction::LinkDown(port as usize % shards),
            FaultKind::LinkUp { port, .. } => FaultAction::LinkUp(port as usize % shards),
            FaultKind::LinkDegrade { port, factor, .. } => {
                FaultAction::LinkDelay(port as usize % shards, (factor as u64 * 5).min(100))
            }
            FaultKind::DiskFail { disk } => FaultAction::CorruptDisk(disk as usize % shards),
            // Disk recovery is implicit (corrupt entries self-heal on
            // read); message faults map to a brief link cut.
            FaultKind::DiskRecover { .. } => continue,
            FaultKind::MessageLoss { pct } | FaultKind::MessageCorrupt { pct } => {
                if pct == 0 {
                    FaultAction::LinkUp(0)
                } else {
                    FaultAction::LinkDown(pct as usize % shards)
                }
            }
        };
        out.push(ClusterFault { at_ms, action });
    }
    out.sort_by_key(|f| f.at_ms);
    out
}

/// Outcome of one seeded chaos run (all invariants already asserted —
/// this is the evidence for the log / stats artifact).
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    pub seed: u64,
    pub shards: usize,
    pub faults: usize,
    pub submitted: u64,
    pub done: u64,
    pub failed: u64,
    pub lost: u64,
    pub rerouted: u64,
    pub duplicates: u64,
    /// Jobs whose result was computed from a mid-run snapshot checkpoint
    /// left by a killed or failed-over earlier attempt (ISSUE 8): chaos
    /// kills land mid-simulation, so a nonzero count here is the
    /// resumable-jobs path actually exercised — and those results passed
    /// the same byte-identity check as every other.
    pub resumed: u64,
    pub rebalanced_keys: u64,
    /// Raw router `stats` snapshot (the CI artifact).
    pub stats_json: String,
}

impl ChaosOutcome {
    /// One-line JSON summary for logs and artifacts.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seed\": {}, \"shards\": {}, \"faults\": {}, \"submitted\": {}, \
             \"done\": {}, \"failed\": {}, \"lost\": {}, \"rerouted\": {}, \
             \"duplicates\": {}, \"resumed\": {}, \"rebalanced_keys\": {}, \
             \"bit_identical\": true}}",
            self.seed,
            self.shards,
            self.faults,
            self.submitted,
            self.done,
            self.failed,
            self.lost,
            self.rerouted,
            self.duplicates,
            self.resumed,
            self.rebalanced_keys
        )
    }
}

/// Pure-function reference bytes for a job line: what any shard must
/// produce for it, bit for bit.
fn reference_bytes(line: &str) -> std::io::Result<String> {
    let v = bfly_farmd::json::parse(line).map_err(|(at, m)| other(format!("job at {at}: {m}")))?;
    let spec = JobSpec::from_value(&v).map_err(other)?;
    let bytes = Registry.run(&spec).map_err(other)?;
    String::from_utf8(bytes).map_err(other)
}

/// Submit one job line through `c` and drive it to a terminal state.
/// Retries transient refusals (queue full) with the client backoff.
///
/// Completion notification uses the server-side `wait` verb (completion
/// latency is a condvar wakeup on the far end, not a client poll
/// quantum). The `deadline` still bounds the total, so a stuck job
/// surfaces as an error here even if the far end never answers
/// `complete`.
fn submit_terminal(c: &mut Client, line: &str, deadline: Duration) -> std::io::Result<Value> {
    let submit = format!(
        "{{\"op\":\"submit\",{}",
        line.trim().strip_prefix('{').unwrap_or(line)
    );
    let t0 = Instant::now();
    let mut backoff = crate::farm::Backoff::new(7, 20, 500);
    let mut v = loop {
        let v = c.request_line(&submit)?;
        if v.get("ok").and_then(Value::as_bool) == Some(true) {
            break v;
        }
        let err = v.get("error").and_then(Value::as_str).unwrap_or("");
        if !crate::farm::transient_client_error(err) || t0.elapsed() > deadline {
            return Err(other(format!("submit refused: {}", v.dump())));
        }
        std::thread::sleep(backoff.next_delay());
    };
    loop {
        match v.get("state").and_then(Value::as_str) {
            Some("done") | Some("failed") => return Ok(v),
            _ => {
                if t0.elapsed() > deadline {
                    return Err(other(format!("job stuck past deadline: {}", v.dump())));
                }
                let id = v
                    .get("id")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| other("reply without id"))?;
                let w = c.wait_jobs(&[id], 10_000)?;
                if w.get("ok").and_then(Value::as_bool) != Some(true) {
                    let err = w.get("error").and_then(Value::as_str).unwrap_or("");
                    return Err(other(format!("wait failed: {err}")));
                }
                if w.get("complete").and_then(Value::as_bool) == Some(true) {
                    v = w
                        .get("results")
                        .and_then(Value::as_arr)
                        .and_then(|a| a.first())
                        .cloned()
                        .ok_or_else(|| other("wait reply missing results"))?;
                    if v.get("ok").and_then(Value::as_bool) != Some(true) {
                        return Err(other(format!("job {id} vanished: {}", v.dump())));
                    }
                }
                // Incomplete: long-poll again (deadline-checked).
            }
        }
    }
}

/// Run the seeded chaos schedule against a fresh cluster while the job
/// mix is submitted twice (a cold pass during the fault window, a warm
/// pass after healing), then assert the cluster invariants. See the
/// module docs for what is guaranteed.
pub fn chaos_run(seed: u64, shards: usize, window_ms: u64) -> std::io::Result<ChaosOutcome> {
    chaos_run_delayed(seed, shards, window_ms, 0)
}

/// [`chaos_run`] with, when `forced_delay_ms > 0`, a link delay on
/// shard 0's proxy from boot until [`Cluster::heal`] (seeded `LinkDelay`
/// faults on that proxy may rewrite it mid-window, like any two schedule
/// faults may collide). The forced delay pins the "degraded but alive
/// link" case regardless of seed: the reactor must keep the slow
/// connection parked without stalling its poll loop, and the invariants
/// must hold anyway.
pub fn chaos_run_delayed(
    seed: u64,
    shards: usize,
    window_ms: u64,
    forced_delay_ms: u64,
) -> std::io::Result<ChaosOutcome> {
    let jobs = chaos_jobs();
    // Reference results first (pure recomputation, no cluster involved).
    let refs: Vec<String> = jobs
        .iter()
        .map(|j| reference_bytes(j))
        .collect::<Result<_, _>>()?;

    let cluster = Arc::new(Cluster::boot(shards, 2)?);
    if forced_delay_ms > 0 {
        cluster.proxies[0].set_delay_ms(forced_delay_ms);
    }
    let faults = cluster_faults(seed, shards, window_ms);
    let fault_count = faults.len();

    // Chaos driver: walk the schedule on wall-clock offsets.
    let driver = {
        let cluster = Arc::clone(&cluster);
        std::thread::Builder::new()
            .name("chaos-driver".into())
            .spawn(move || {
                let t0 = Instant::now();
                for f in faults {
                    let target = Duration::from_millis(f.at_ms);
                    if let Some(wait) = target.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    match f.action {
                        FaultAction::Kill(i) => cluster.kill_shard(i),
                        FaultAction::Revive(i) => {
                            let _ = cluster.revive_shard(i);
                        }
                        FaultAction::LinkDown(i) => cluster.proxies[i].set_drop(true),
                        FaultAction::LinkUp(i) => cluster.proxies[i].set_drop(false),
                        FaultAction::LinkDelay(i, ms) => cluster.proxies[i].set_delay_ms(ms),
                        FaultAction::CorruptDisk(i) => {
                            let _ = cluster.corrupt_disk(i, seed);
                        }
                    }
                }
            })
            .map_err(other)?
    };

    // Cold pass: submit every job during the fault window. The per-job
    // budget must exceed the router's own route deadline (300 s, set in
    // `Cluster::boot`) so a stuck job surfaces as the router's verdict,
    // not as this harness giving up first — and it needs real headroom:
    // debug-mode compute on a loaded machine, with attempts restarted by
    // every mid-flight fault, can push a single job past two minutes.
    let budget = Duration::from_millis(window_ms + 360_000);
    let mut c = cluster.client()?;
    let mut outcomes: Vec<(usize, Value)> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        outcomes.push((i, submit_terminal(&mut c, job, budget)?));
    }
    driver.join().map_err(|_| other("chaos driver panicked"))?;

    // Heal, then the warm pass: every result must now come back
    // identical — from a cache copy (original, replicated, or
    // rebalanced) or an equivalent recomputation; the bytes can't tell,
    // which is the point.
    cluster.heal()?;
    let mut warm = cluster.client()?;
    for (i, job) in jobs.iter().enumerate() {
        outcomes.push((i, submit_terminal(&mut warm, job, budget)?));
    }

    // Invariant: every done result is byte-identical to the reference.
    for (i, v) in &outcomes {
        match v.get("state").and_then(Value::as_str) {
            Some("done") => {
                let got = v
                    .get("result")
                    .ok_or_else(|| other("done without result"))?
                    .dump();
                if got != refs[*i] {
                    return Err(other(format!(
                        "job {i}: result bytes diverged from the pure recomputation\n \
                         got: {got}\n ref: {}",
                        refs[*i]
                    )));
                }
            }
            Some("failed") => {
                return Err(other(format!("job {i} failed under chaos: {}", v.dump())));
            }
            s => return Err(other(format!("job {i} non-terminal {s:?}"))),
        }
    }

    // Invariant: router accounting balances — nothing lost, nothing
    // delivered twice.
    let stats = cluster.stats()?;
    let stats_json = stats.dump();
    let jobs_obj = stats
        .get("jobs")
        .ok_or_else(|| other("stats without jobs section"))?;
    let stat = |k: &str| -> std::io::Result<u64> {
        jobs_obj
            .get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| other(format!("stats.jobs.{k} missing")))
    };
    let outcome = ChaosOutcome {
        seed,
        shards,
        faults: fault_count,
        submitted: stat("submitted")?,
        done: stat("done")?,
        failed: stat("failed")?,
        lost: stat("lost")?,
        rerouted: stat("rerouted")?,
        duplicates: stat("duplicates")?,
        // Tolerate routers predating resume accounting, like
        // `rebalanced_keys` below.
        resumed: jobs_obj.get("resumed").and_then(Value::as_u64).unwrap_or(0),
        rebalanced_keys: stats
            .get("cluster")
            .and_then(|c| c.get("rebalanced_keys"))
            .and_then(Value::as_u64)
            .unwrap_or(0),
        stats_json,
    };
    if outcome.lost != 0 {
        return Err(other(format!("lost jobs under chaos: {}", outcome.lost)));
    }
    if outcome.duplicates != 0 {
        return Err(other(format!(
            "duplicate terminal deliveries: {}",
            outcome.duplicates
        )));
    }
    if outcome.submitted != outcome.done + outcome.failed {
        return Err(other(format!(
            "accounting imbalance: submitted {} != done {} + failed {}",
            outcome.submitted, outcome.done, outcome.failed
        )));
    }
    if outcome.submitted != 2 * jobs.len() as u64 {
        return Err(other(format!(
            "router saw {} submissions, expected {}",
            outcome.submitted,
            2 * jobs.len()
        )));
    }
    match Arc::try_unwrap(cluster) {
        Ok(cl) => cl.shutdown(),
        Err(_) => return Err(other("chaos driver still holds the cluster")),
    }
    Ok(outcome)
}

/// Latency percentiles of one benchmark leg.
#[derive(Debug, Clone, Copy)]
pub struct LatencyLeg {
    pub p50: Duration,
    pub p99: Duration,
    pub p999: Duration,
}

/// Sort the samples and pick p50/p99/p999 (nearest-rank on the sorted
/// vector; an empty sample set yields all-zero percentiles so optional
/// legs never panic).
pub fn percentiles(mut samples: Vec<Duration>) -> LatencyLeg {
    if samples.is_empty() {
        return LatencyLeg {
            p50: Duration::ZERO,
            p99: Duration::ZERO,
            p999: Duration::ZERO,
        };
    }
    samples.sort_unstable();
    let pick = |p: usize| samples[(samples.len().saturating_sub(1)) * p / 1000];
    LatencyLeg {
        p50: pick(500),
        p99: pick(990),
        p999: pick(999),
    }
}

/// Result of the fault-free cluster benchmark (`perf_report
/// --cluster-bench`): per-job submit→terminal latency for a cold leg, a
/// warm leg, and a warm leg after killing one shard (failover), with
/// bit-identity verified across all three.
#[derive(Debug, Clone)]
pub struct ClusterBenchResult {
    pub shards: usize,
    pub replicas: usize,
    pub jobs: usize,
    pub cold: LatencyLeg,
    pub warm: LatencyLeg,
    pub failover: LatencyLeg,
    /// Jobs served away from their primary (from router stats).
    pub rerouted: u64,
    /// Must be 0; recorded for the report.
    pub lost: u64,
}

/// Run the cluster benchmark: boot `shards` shards (replication 2),
/// time the standard job mix cold / warm / warm-after-kill, verify all
/// three legs byte-identical, return percentiles.
pub fn cluster_bench(shards: usize) -> std::io::Result<ClusterBenchResult> {
    let jobs = crate::farm::serve_bench_jobs();
    let cluster = Cluster::boot(shards, 2)?;
    let budget = Duration::from_secs(180);
    let mut c = cluster.client()?;

    let leg = |c: &mut Client, cache: &str| -> std::io::Result<(Vec<Duration>, Vec<String>)> {
        let mut lat = Vec::with_capacity(jobs.len());
        let mut bytes = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let line = format!(
                "{},\"cache\":\"{cache}\"}}",
                job.trim().trim_end_matches('}')
            );
            let t0 = Instant::now();
            let v = submit_terminal(c, &line, budget)?;
            lat.push(t0.elapsed());
            if v.get("state").and_then(Value::as_str) != Some("done") {
                return Err(other(format!("bench job failed: {}", v.dump())));
            }
            bytes.push(v.get("result").ok_or_else(|| other("no result"))?.dump());
        }
        Ok((lat, bytes))
    };

    // Cold: refresh forces recomputation and leaves the cache warm.
    let (cold_lat, cold_bytes) = leg(&mut c, "refresh")?;
    let (warm_lat, warm_bytes) = leg(&mut c, "use")?;
    cluster.kill_shard(0);
    let (failover_lat, failover_bytes) = leg(&mut c, "use")?;

    for (i, ((cold, warm), fo)) in cold_bytes
        .iter()
        .zip(&warm_bytes)
        .zip(&failover_bytes)
        .enumerate()
    {
        if cold != warm || warm != fo {
            cluster.shutdown();
            return Err(other(format!("job {i}: cold/warm/failover bytes diverged")));
        }
    }

    let stats = cluster.stats()?;
    let stat = |k: &str| {
        stats
            .get("jobs")
            .and_then(|j| j.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let out = ClusterBenchResult {
        shards,
        replicas: 2,
        jobs: jobs.len(),
        cold: percentiles(cold_lat),
        warm: percentiles(warm_lat),
        failover: percentiles(failover_lat),
        rerouted: stat("rerouted"),
        lost: stat("lost"),
    };
    cluster.shutdown();
    if out.lost != 0 {
        return Err(other(format!("cluster bench lost {} jobs", out.lost)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_schedules_are_seed_deterministic_and_in_order() {
        let a = cluster_faults(42, 3, 2_000);
        let b = cluster_faults(42, 3, 2_000);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at_ms, y.at_ms);
            assert_eq!(format!("{:?}", x.action), format!("{:?}", y.action));
        }
        assert!(a.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert!(!a.is_empty(), "the default spec must produce faults");
        let c = cluster_faults(43, 3, 2_000);
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "different seeds, different schedules"
        );
    }

    #[test]
    fn percentiles_pick_the_right_samples() {
        let leg = percentiles((1..=100).map(Duration::from_millis).collect());
        assert_eq!(leg.p50, Duration::from_millis(50));
        assert_eq!(leg.p99, Duration::from_millis(99));
        assert_eq!(leg.p999, Duration::from_millis(99));
        // p999 separates from p99 once the tail has enough resolution.
        let big = percentiles((1..=10_000).map(Duration::from_micros).collect());
        assert_eq!(big.p99, Duration::from_micros(9_900));
        assert_eq!(big.p999, Duration::from_micros(9_990));
        let one = percentiles(vec![Duration::from_millis(7)]);
        assert_eq!(one.p50, Duration::from_millis(7));
        assert_eq!(one.p99, Duration::from_millis(7));
        assert_eq!(one.p999, Duration::from_millis(7));
        let empty = percentiles(Vec::new());
        assert_eq!(empty.p999, Duration::ZERO, "empty legs must not panic");
    }

    #[test]
    fn proxy_forwards_and_cuts() {
        // Echo server.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let target = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for s in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut s = s;
                    let mut buf = [0u8; 64];
                    while let Ok(n) = s.read(&mut buf) {
                        if n == 0 || s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        let proxy = ChaosProxy::spawn(target).unwrap();
        let mut c = TcpStream::connect(&proxy.addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"hello\n").unwrap();
        let mut buf = [0u8; 6];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello\n");

        // Cut the link: the live connection dies, new ones are refused.
        proxy.set_drop(true);
        c.write_all(b"again\n").ok();
        let mut rest = Vec::new();
        assert!(
            matches!(c.read_to_end(&mut rest), Ok(0)) || rest.is_empty(),
            "severed link must not deliver data"
        );
        let mut c2 = TcpStream::connect(&proxy.addr).unwrap();
        c2.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        c2.write_all(b"nope\n").ok();
        let mut buf2 = [0u8; 1];
        assert!(
            c2.read_exact(&mut buf2).is_err(),
            "dropped link must not answer"
        );
    }
}
