//! Sustained serving-throughput benchmarks (`farm bench --sustained`,
//! the `serve_sustained` section of `BENCH_sim.json`).
//!
//! Two load shapes, matching EXPERIMENTS.md T20:
//!
//! * **Direct saturation leg** ([`sustained_direct`]) — many client
//!   connections to a single farmd, each keeping a window of pipelined
//!   warm-hit submits in flight. Measures the serving ceiling: requests
//!   per second and send→reply latency percentiles when the daemon is
//!   the bottleneck.
//! * **Open-loop router leg** ([`sustained_router`]) — a fixed offered
//!   rate (requests are *scheduled*, not paced by replies) against a
//!   shard fleet behind `farm-router`, mixed warm/bypass/refresh
//!   traffic, completion via the `wait` verb. Latency is measured from
//!   the request's **scheduled arrival**, so queueing delay under
//!   overload is charged to the server, never hidden by a slow client
//!   (the open-loop discipline; coordinated omission is the failure
//!   mode this avoids).
//!
//! The clients here deliberately bypass [`bfly_farmd::Client`]: that
//! wrapper is one-request-one-reply, and sustained throughput needs
//! pipelining. [`PipeConn`] writes raw lines and frames raw reply lines
//! with no JSON parse on the hot path — the generator must be cheaper
//! than the server it is saturating, which on a small host means
//! scanning for `\n` and nothing else.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bfly_farmd::{Client, Listen, ServerConfig};

use crate::cluster::{percentiles, LatencyLeg};
use crate::farm::{run_batch, serve_bench_jobs, Registry};

fn other(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Knobs for both sustained legs.
#[derive(Debug, Clone)]
pub struct SustainedConfig {
    /// Concurrent client connections.
    pub conns: usize,
    /// Pipelined requests in flight per connection (direct leg).
    pub window: usize,
    /// Measurement duration per leg.
    pub duration: Duration,
    /// Offered request rate for the open-loop router leg, req/s.
    pub offered_rps: u64,
}

impl Default for SustainedConfig {
    fn default() -> Self {
        // Tuned for a small host: client threads share cores with the
        // server under test, so a few deep pipelines beat many shallow
        // ones (more conns = more scheduler preemption of the reactor,
        // which shows up directly in p99).
        SustainedConfig {
            conns: 4,
            window: 8,
            duration: Duration::from_secs(2),
            offered_rps: 12_000,
        }
    }
}

/// Outcome of one direct saturation leg.
#[derive(Debug, Clone)]
pub struct DirectLeg {
    pub conns: usize,
    pub window: usize,
    /// Completed (replied) requests.
    pub requests: u64,
    /// Wall-clock from first send to last reply.
    pub wall: Duration,
    /// Send→reply latency percentiles across every request.
    pub lat: LatencyLeg,
}

impl DirectLeg {
    /// Completed requests per second.
    pub fn rps(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.requests as f64 / s
        } else {
            0.0
        }
    }
}

/// Outcome of the open-loop router leg.
#[derive(Debug, Clone)]
pub struct RouterLeg {
    pub shards: usize,
    pub conns: usize,
    /// The scheduled request rate, req/s.
    pub offered_rps: u64,
    /// Requests completed to a terminal state.
    pub completed: u64,
    /// Admissions refused by router backpressure (excluded from latency).
    pub refused: u64,
    pub wall: Duration,
    /// Scheduled-arrival→completion percentiles, warm-hit class.
    pub warm: LatencyLeg,
    /// Same, for the cold class (bypass + refresh traffic).
    pub cold: LatencyLeg,
    /// Warm-class sample count (the bulk of the mix).
    pub warm_requests: u64,
    /// Router accounting at the end of the leg; must be 0.
    pub lost: u64,
    pub rerouted: u64,
}

impl RouterLeg {
    /// Completed requests per second (achieved, not offered).
    pub fn rps(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.completed as f64 / s
        } else {
            0.0
        }
    }
}

/// The direct leg plus the router leg, as recorded in the report's
/// `serve_sustained` section (the direct leg under its `reactor` key).
#[derive(Debug, Clone)]
pub struct SustainedResult {
    pub reactor: DirectLeg,
    pub router: Option<RouterLeg>,
}

/// A pipelined JSON-lines connection: raw line writes, raw line framing
/// on read, zero parsing. The load generator's entire per-request cost
/// is two syscalls and a memchr.
struct PipeConn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    filled: usize,
}

impl PipeConn {
    fn connect(addr: &str) -> std::io::Result<PipeConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(PipeConn {
            stream,
            buf: vec![0; 64 << 10],
            pos: 0,
            filled: 0,
        })
    }

    fn send(&mut self, line: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(line)
    }

    /// Next complete reply line (newline excluded). Blocking.
    fn recv_line(&mut self) -> std::io::Result<&[u8]> {
        let (start, end) = loop {
            if let Some(off) = self.buf[self.pos..self.filled]
                .iter()
                .position(|&b| b == b'\n')
            {
                let start = self.pos;
                self.pos += off + 1;
                break (start, start + off);
            }
            if self.pos > 0 {
                self.buf.copy_within(self.pos..self.filled, 0);
                self.filled -= self.pos;
                self.pos = 0;
            }
            if self.filled == self.buf.len() {
                let grow = self.buf.len();
                self.buf.resize(grow * 2, 0);
            }
            let n = self.stream.read(&mut self.buf[self.filled..])?;
            if n == 0 {
                return Err(other("server closed the connection mid-stream"));
            }
            self.filled += n;
        };
        Ok(&self.buf[start..end])
    }
}

/// Prebuilt single-line submit requests (newline included) for the
/// standard job mix under one cache mode.
fn submit_lines(cache: &str) -> Vec<Vec<u8>> {
    serve_bench_jobs()
        .iter()
        .map(|j| {
            let body = j.trim().trim_start_matches('{').trim_end_matches('}');
            format!("{{\"op\":\"submit\",{body},\"cache\":\"{cache}\"}}\n").into_bytes()
        })
        .collect()
}

/// Boot an in-process farmd (memory-only cache) and run the direct
/// saturation leg against it.
pub fn sustained_direct(cfg: &SustainedConfig) -> std::io::Result<DirectLeg> {
    let handle = bfly_farmd::spawn(
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            workers: 2,
            cache_dir: None,
            ..ServerConfig::default()
        },
        Arc::new(Registry),
    )?;
    let out = sustained_direct_against(&handle.addr, cfg);
    handle.shutdown();
    out
}

/// The direct saturation leg against an already-running daemon: warm the
/// standard mix once, then hammer warm-hit submits from `cfg.conns`
/// connections, each keeping `cfg.window` requests pipelined.
pub fn sustained_direct_against(addr: &str, cfg: &SustainedConfig) -> std::io::Result<DirectLeg> {
    {
        let mut c = Client::connect(addr)?;
        run_batch(&mut c, &serve_bench_jobs(), "refresh")?;
    }
    let lines = Arc::new(submit_lines("use"));
    let conns = cfg.conns.max(1);
    let window = cfg.window.max(1);
    let t0 = Instant::now();
    let deadline = t0 + cfg.duration;

    let workers: Vec<_> = (0..conns)
        .map(|w| {
            let addr = addr.to_string();
            let lines = Arc::clone(&lines);
            std::thread::Builder::new()
                .name(format!("sustained-{w}"))
                .spawn(move || -> std::io::Result<(Vec<Duration>, u64)> {
                    let mut conn = PipeConn::connect(&addr)?;
                    let mut lat: Vec<Duration> = Vec::with_capacity(16 << 10);
                    let mut inflight: VecDeque<Instant> = VecDeque::with_capacity(window);
                    let mut errors = 0u64;
                    // Stagger the job cursor so the 8 warm keys spread
                    // across connections instead of marching in phase.
                    let mut li = w;
                    for _ in 0..window {
                        conn.send(&lines[li % lines.len()])?;
                        inflight.push_back(Instant::now());
                        li += 1;
                    }
                    loop {
                        let line = conn.recv_line()?;
                        if !line.starts_with(b"{\"ok\":true") {
                            errors += 1;
                        }
                        let sent = inflight.pop_front().ok_or_else(|| other("reply surplus"))?;
                        lat.push(sent.elapsed());
                        if Instant::now() >= deadline {
                            break;
                        }
                        conn.send(&lines[li % lines.len()])?;
                        inflight.push_back(Instant::now());
                        li += 1;
                    }
                    // Drain the window: every pipelined request gets its
                    // reply counted, none are abandoned mid-flight.
                    while let Some(sent) = inflight.pop_front() {
                        let line = conn.recv_line()?;
                        if !line.starts_with(b"{\"ok\":true") {
                            errors += 1;
                        }
                        lat.push(sent.elapsed());
                    }
                    Ok((lat, errors))
                })
                .map_err(other)
        })
        .collect::<Result<_, _>>()?;

    let mut all = Vec::new();
    let mut errors = 0u64;
    for wkr in workers {
        let (lat, errs) = wkr.join().map_err(|_| other("load thread panicked"))??;
        all.extend(lat);
        errors += errs;
    }
    let wall = t0.elapsed();
    if errors > 0 {
        return Err(other(format!(
            "{errors} error replies during the sustained leg (warm hits must all be ok)"
        )));
    }
    Ok(DirectLeg {
        conns,
        window,
        requests: all.len() as u64,
        wall,
        lat: percentiles(all),
    })
}

/// Scan `"id":<digits>` out of a submit reply without a JSON parse.
/// Returns `None` for refusal replies (no id assigned).
fn scan_id(line: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"id\":";
    let at = line.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits: &[u8] = &line[at..];
    let end = digits
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

fn count_needle(hay: &[u8], needle: &[u8]) -> usize {
    if needle.is_empty() || hay.len() < needle.len() {
        return 0;
    }
    hay.windows(needle.len()).filter(|w| *w == needle).count()
}

/// One scheduled request of the router mix.
struct Arrival {
    sched: Instant,
    warm: bool,
    id: Option<u64>,
}

/// The traffic mix, by request ordinal: mostly warm hits of the standard
/// job set, salted with `bypass` (forced recompute, cache untouched) and
/// `refresh` (forced recompute + overwrite) of a deliberately small job
/// — the cold classes exist to prove the warm path's tail survives cold
/// work sharing the daemons, not to measure compute. The salt rate is
/// deliberately thin: even the smallest servable `fig5_gauss` point costs
/// ~60ms of simulation (the US leg always models a 128-node machine), so
/// on a small host a denser cold mix would turn a serving benchmark into
/// a compute benchmark — 2 per 512 was enough to pin the wall clock to
/// the cold jobs' serial compute and bury the serving numbers entirely.
fn pick_line(n: usize, warm: &[Vec<u8>], bypass: &[u8], refresh: &[u8]) -> (Vec<u8>, bool) {
    match n % 4096 {
        17 => (bypass.to_vec(), false),
        2051 => (refresh.to_vec(), false),
        _ => (warm[n % warm.len()].clone(), true),
    }
}

/// Boot a plain `shards`-shard fleet (no chaos proxies — this measures
/// the serving path, not fault recovery) behind a router, warm the mix
/// through it, then run the open-loop leg.
pub fn sustained_router(shards: usize, cfg: &SustainedConfig) -> std::io::Result<RouterLeg> {
    let mut fleet = Vec::with_capacity(shards);
    for i in 0..shards {
        fleet.push(bfly_farmd::spawn(
            ServerConfig {
                listen: Listen::Tcp("127.0.0.1:0".into()),
                workers: 1,
                cache_dir: None,
                shard_id: Some(format!("shard-{i}")),
                ..ServerConfig::default()
            },
            Arc::new(Registry),
        )?);
    }
    let router = bfly_farm_router::spawn(bfly_farm_router::RouterConfig {
        shards: fleet.iter().map(|h| h.addr.clone()).collect(),
        replicas: 2,
        workers: 4,
        ping_interval_ms: 100,
        ping_timeout_ms: 500,
        attempt_timeout_ms: 30_000,
        route_deadline_ms: 60_000,
        ..bfly_farm_router::RouterConfig::default()
    })?;
    let out = router_leg(&router, shards, cfg);
    router.shutdown();
    for h in fleet {
        h.kill();
        h.join();
    }
    out
}

fn router_leg(
    router: &bfly_farm_router::RouterHandle,
    shards: usize,
    cfg: &SustainedConfig,
) -> std::io::Result<RouterLeg> {
    use bfly_farmd::json::Value;

    // Wait for the prober to learn the engine version (placement is
    // undefined before the first successful shard ping).
    let mut c = Client::connect(&router.addr)?;
    let t0 = Instant::now();
    loop {
        let pong = c.request_line("{\"op\":\"ping\"}")?;
        if pong
            .get("engine_version")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            > 0
        {
            break;
        }
        if t0.elapsed() > Duration::from_secs(10) {
            return Err(other("router never learned the shard engine version"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // Warm the mix: refresh computes on each key's primary, the router
    // replicates, and a `use` pass confirms every key answers warm.
    run_batch(&mut c, &serve_bench_jobs(), "refresh")?;
    run_batch(&mut c, &serve_bench_jobs(), "use")?;
    drop(c);

    let warm_lines = Arc::new(submit_lines("use"));
    // The cold-class job is the cheapest thing the registry serves: a
    // 1-processor point of a small FIG5 sweep.
    let bypass: Arc<Vec<u8>> = Arc::new(
        b"{\"op\":\"submit\",\"exp\":\"fig5_gauss\",\"params\":{\"n\":8,\"ps\":[1]},\"seed\":7,\"cache\":\"bypass\"}\n".to_vec(),
    );
    let refresh: Arc<Vec<u8>> = Arc::new(
        b"{\"op\":\"submit\",\"exp\":\"fig5_gauss\",\"params\":{\"n\":8,\"ps\":[1]},\"seed\":9,\"cache\":\"refresh\"}\n".to_vec(),
    );

    let conns = cfg.conns.max(1);
    let rate = cfg.offered_rps.max(conns as u64);
    // Per-connection inter-arrival period; connections are staggered a
    // fraction of a period apart so the aggregate stream is smooth.
    let period = Duration::from_nanos(1_000_000_000u64 * conns as u64 / rate);
    let t0 = Instant::now();
    let deadline = t0 + cfg.duration;

    let workers: Vec<_> = (0..conns)
        .map(|w| {
            let addr = router.addr.clone();
            let warm_lines = Arc::clone(&warm_lines);
            let bypass = Arc::clone(&bypass);
            let refresh = Arc::clone(&refresh);
            std::thread::Builder::new()
                .name(format!("openloop-{w}"))
                .spawn(move || -> std::io::Result<OpenLoopSlice> {
                    // Two connections per worker: submits are pipelined on
                    // one and never stall, while a companion thread settles
                    // completed batches over `wait` on the other. A single
                    // shared connection would serialize the two — `wait`
                    // parks the server's conn until the batch is terminal,
                    // so every submit queued behind it would stall and the
                    // open-loop schedule would collapse into a closed loop
                    // whose cycle time is the wait round's tail.
                    let mut conn = PipeConn::connect(&addr)?;
                    let mut wait_conn = PipeConn::connect(&addr)?;
                    let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<Arrival>>(64);
                    let waiter = std::thread::Builder::new()
                        .name(format!("openloop-wait-{w}"))
                        .spawn(move || -> std::io::Result<OpenLoopSlice> {
                            let mut out = OpenLoopSlice::default();
                            while let Ok(batch) = rx.recv() {
                                let ids: Vec<u64> = batch.iter().filter_map(|a| a.id).collect();
                                if ids.is_empty() {
                                    continue;
                                }
                                let mut wline = String::from("{\"op\":\"wait\",\"ids\":[");
                                for (i, id) in ids.iter().enumerate() {
                                    if i > 0 {
                                        wline.push(',');
                                    }
                                    wline.push_str(&id.to_string());
                                }
                                wline.push_str("],\"timeout_ms\":60000}\n");
                                wait_conn.send(wline.as_bytes())?;
                                let reply = wait_conn.recv_line()?;
                                if !reply.starts_with(b"{\"ok\":true,\"complete\":true") {
                                    return Err(other(format!(
                                        "wait did not complete: {}",
                                        String::from_utf8_lossy(&reply[..reply.len().min(200)])
                                    )));
                                }
                                let failed = count_needle(reply, b"\"state\":\"failed\"");
                                if failed > 0 {
                                    return Err(other(format!("{failed} jobs failed under load")));
                                }
                                let done_at = Instant::now();
                                for a in &batch {
                                    if a.id.is_none() {
                                        continue;
                                    }
                                    let lat = done_at.saturating_duration_since(a.sched);
                                    if a.warm {
                                        out.warm.push(lat);
                                    } else {
                                        out.cold.push(lat);
                                    }
                                }
                            }
                            Ok(out)
                        })
                        .map_err(other)?;
                    let mut refused = 0u64;
                    let mut sched = t0 + period.mul_f64(w as f64 / conns as f64);
                    let mut n = w; // decorrelate the mix phase per conn
                    let mut submit_err = None;
                    'submit: while sched < deadline {
                        let now = Instant::now();
                        if now < sched {
                            std::thread::sleep((sched - now).min(Duration::from_millis(1)));
                            continue;
                        }
                        // Send everything due, pipelined (the backlog
                        // after a slow stretch is sent in one burst —
                        // open-loop demand does not pause).
                        let mut batch: Vec<Arrival> = Vec::new();
                        while sched <= Instant::now() && sched < deadline && batch.len() < 256 {
                            let (line, warm) = pick_line(n, &warm_lines, &bypass, &refresh);
                            if let Err(e) = conn.send(&line) {
                                submit_err = Some(e);
                                break 'submit;
                            }
                            batch.push(Arrival {
                                sched,
                                warm,
                                id: None,
                            });
                            n += 1;
                            sched += period;
                        }
                        for a in &mut batch {
                            match conn.recv_line() {
                                Ok(reply) => {
                                    a.id = scan_id(reply);
                                    if a.id.is_none() {
                                        refused += 1;
                                    }
                                }
                                Err(e) => {
                                    submit_err = Some(e);
                                    break 'submit;
                                }
                            }
                        }
                        if tx.send(batch).is_err() {
                            // The waiter died; its Err carries the cause.
                            break;
                        }
                    }
                    drop(tx);
                    let mut out = waiter
                        .join()
                        .map_err(|_| other("open-loop wait thread panicked"))??;
                    if let Some(e) = submit_err {
                        return Err(e);
                    }
                    out.refused = refused;
                    Ok(out)
                })
                .map_err(other)
        })
        .collect::<Result<_, _>>()?;

    let mut warm = Vec::new();
    let mut cold = Vec::new();
    let mut refused = 0u64;
    for wkr in workers {
        let slice = wkr
            .join()
            .map_err(|_| other("open-loop thread panicked"))??;
        warm.extend(slice.warm);
        cold.extend(slice.cold);
        refused += slice.refused;
    }
    let wall = t0.elapsed();

    let stats = bfly_farmd::json::parse(&router.stats_json())
        .map_err(|(at, m)| other(format!("router stats at {at}: {m}")))?;
    let stat = |k: &str| {
        stats
            .get("jobs")
            .and_then(|j| j.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let leg = RouterLeg {
        shards,
        conns,
        offered_rps: rate,
        completed: (warm.len() + cold.len()) as u64,
        refused,
        wall,
        warm_requests: warm.len() as u64,
        warm: percentiles(warm),
        cold: percentiles(cold),
        lost: stat("lost"),
        rerouted: stat("rerouted"),
    };
    if leg.lost != 0 {
        return Err(other(format!("router lost {} jobs under load", leg.lost)));
    }
    Ok(leg)
}

#[derive(Default)]
struct OpenLoopSlice {
    warm: Vec<Duration>,
    cold: Vec<Duration>,
    refused: u64,
}

/// The full sustained suite as recorded in `BENCH_sim.json`: the direct
/// leg plus the router leg.
pub fn sustained_suite(
    cfg: &SustainedConfig,
    with_router: bool,
) -> std::io::Result<SustainedResult> {
    let reactor = sustained_direct(cfg)?;
    let router = if with_router {
        Some(sustained_router(3, cfg)?)
    } else {
        None
    };
    Ok(SustainedResult { reactor, router })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stage-by-stage timing probe for the router serving path (run
    /// manually: `cargo test --release -p bfly-bench probe_router -- --ignored --nocapture`).
    #[test]
    #[ignore]
    fn probe_router_stage_costs() {
        let cfg = SustainedConfig::default();
        let mut fleet = Vec::new();
        for i in 0..3 {
            fleet.push(
                bfly_farmd::spawn(
                    ServerConfig {
                        listen: Listen::Tcp("127.0.0.1:0".into()),
                        workers: 1,
                        cache_dir: None,
                        shard_id: Some(format!("shard-{i}")),
                        ..ServerConfig::default()
                    },
                    Arc::new(Registry),
                )
                .unwrap(),
            );
        }
        let router = bfly_farm_router::spawn(bfly_farm_router::RouterConfig {
            shards: fleet.iter().map(|h| h.addr.clone()).collect(),
            replicas: 2,
            workers: 4,
            ping_interval_ms: 100,
            ping_timeout_ms: 500,
            attempt_timeout_ms: 30_000,
            route_deadline_ms: 60_000,
            ..bfly_farm_router::RouterConfig::default()
        })
        .unwrap();
        let mut c = Client::connect(&router.addr).unwrap();
        loop {
            let pong = c.request_line("{\"op\":\"ping\"}").unwrap();
            use bfly_farmd::json::Value;
            if pong
                .get("engine_version")
                .and_then(Value::as_u64)
                .unwrap_or(0)
                > 0
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        run_batch(&mut c, &serve_bench_jobs(), "refresh").unwrap();
        run_batch(&mut c, &serve_bench_jobs(), "use").unwrap();
        drop(c);
        let lines = submit_lines("use");
        let n = 2000usize;

        // Stage A: pipelined submit admission at the router.
        let mut conn = PipeConn::connect(&router.addr).unwrap();
        let t0 = Instant::now();
        for i in 0..n {
            conn.send(&lines[i % lines.len()]).unwrap();
        }
        let mut ids = Vec::new();
        for _ in 0..n {
            let l = conn.recv_line().unwrap();
            ids.push(scan_id(l).unwrap());
        }
        let t_submit = t0.elapsed();

        // Stage B: dispatch + shard + classify (drain to terminal).
        let t1 = Instant::now();
        for chunk in ids.chunks(256) {
            let mut w = String::from("{\"op\":\"wait\",\"ids\":[");
            for (i, id) in chunk.iter().enumerate() {
                if i > 0 {
                    w.push(',');
                }
                w.push_str(&id.to_string());
            }
            w.push_str("],\"timeout_ms\":60000}\n");
            conn.send(w.as_bytes()).unwrap();
            let r = conn.recv_line().unwrap();
            assert!(r.starts_with(b"{\"ok\":true,\"complete\":true"), "wait");
        }
        let t_drain = t1.elapsed();

        // Stage C: the shard's own ceiling for the router's workload —
        // pipelined batch-of-one lines straight at one shard.
        let mut sc = PipeConn::connect(&fleet[0].addr).unwrap();
        {
            let mut c0 = Client::connect(&fleet[0].addr).unwrap();
            run_batch(&mut c0, &serve_bench_jobs(), "refresh").unwrap();
        }
        let batch_lines: Vec<Vec<u8>> = serve_bench_jobs()
            .iter()
            .map(|j| {
                let body = j.trim().trim_start_matches('{').trim_end_matches('}');
                format!("{{\"op\":\"batch\",\"jobs\":[{{{body},\"cache\":\"use\"}}]}}\n")
                    .into_bytes()
            })
            .collect();
        let t2 = Instant::now();
        for i in 0..n {
            sc.send(&batch_lines[i % batch_lines.len()]).unwrap();
        }
        for _ in 0..n {
            let l = sc.recv_line().unwrap();
            assert!(l.starts_with(b"{\"ok\":true"), "batch reply");
        }
        let t_shard = t2.elapsed();

        eprintln!(
            "probe: submit {n} in {:?} ({:.0}/s) | drain {:?} ({:.0}/s) | shard batch {:?} ({:.0}/s)",
            t_submit,
            n as f64 / t_submit.as_secs_f64(),
            t_drain,
            n as f64 / t_drain.as_secs_f64(),
            t_shard,
            n as f64 / t_shard.as_secs_f64(),
        );
        router.shutdown();
        for h in fleet {
            h.kill();
            h.join();
        }
        let _ = cfg;
    }

    #[test]
    fn scan_id_reads_submit_replies_and_rejects_refusals() {
        assert_eq!(
            scan_id(br#"{"ok":true,"id":42,"state":"queued"}"#),
            Some(42)
        );
        assert_eq!(scan_id(br#"{"ok":true,"id":0,"state":"done"}"#), Some(0));
        assert_eq!(scan_id(br#"{"ok":false,"error":"queue full"}"#), None);
        assert_eq!(scan_id(br#"{"ok":true,"id":x}"#), None);
    }

    #[test]
    fn submit_lines_are_valid_protocol_requests() {
        let lines = submit_lines("use");
        assert_eq!(lines.len(), serve_bench_jobs().len());
        for l in &lines {
            assert_eq!(*l.last().unwrap(), b'\n');
            let v = bfly_farmd::json::parse(std::str::from_utf8(l).unwrap().trim()).unwrap();
            use bfly_farmd::json::Value;
            assert_eq!(v.get("op").and_then(Value::as_str), Some("submit"));
            assert_eq!(v.get("cache").and_then(Value::as_str), Some("use"));
            assert!(v.get("exp").is_some());
        }
    }

    #[test]
    fn mix_is_mostly_warm_with_seeded_cold_salt() {
        let warm = submit_lines("use");
        let bypass = b"B\n".to_vec();
        let refresh = b"R\n".to_vec();
        let mut cold = 0;
        for n in 0..8192 {
            let (_, is_warm) = pick_line(n, &warm, &bypass, &refresh);
            if !is_warm {
                cold += 1;
            }
        }
        assert_eq!(cold, 4, "2 bypass + 2 refresh per 8192 requests");
    }

    #[test]
    fn pipeconn_frames_pipelined_replies() {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Two replies in one segment, a third split across writes.
            s.write_all(b"{\"ok\":true,\"id\":1}\n{\"ok\":true,\"id\":2}\n{\"ok\":")
                .unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s.write_all(b"true,\"id\":3}\n").unwrap();
        });
        let mut c = PipeConn::connect(&addr).unwrap();
        for want in 1..=3u64 {
            let line = c.recv_line().unwrap();
            assert_eq!(scan_id(line), Some(want));
        }
        server.join().unwrap();
    }
}
