//! The serving workloads: open-loop load through `farm-router` in front
//! of three `farmd` shards with replication factor 2, all in this
//! process and all built from `ServerConfig::default()` /
//! `RouterConfig::default()` — only addresses, cache directories and
//! shard ids are set, so the benchmark measures whatever front end and
//! tuning the servers ship with.
//!
//! * `serve_warm` — every request is a warm hit of the 8-job
//!   `serve_bench_jobs` mix at 2,000 req/s. Compute sits idle: parsing,
//!   cache lookup, the router hop and reply bytes decide the result.
//! * `serve_mixed` — the same rate, where one request in 128 is a cache miss
//!   on a distinct seeded `fig5_gauss {n:8, ps:[1]}` job (~24 ms of
//!   compute that writes the cache's memory and disk tiers and pushes a
//!   replica). Warm latency here shows how much cold work sharing the
//!   servers delays warm hits.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bfly_bench::farm::{run_batch, serve_bench_jobs};
use bfly_bench::Registry;
use bfly_farm_router::{RouterConfig, RouterHandle};
use bfly_farmd::json::{self, Value};
use bfly_farmd::{Cache, Client, JobRunner, JobSpec, Listen, ServerConfig, ServerHandle};

use crate::gen::{self, LineConn, Outcome, Request, Sample, Stage};
use crate::record::Record;
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::Tracer;
use crate::RunCfg;

const SHARDS: usize = 3;
/// Fleet boots per run; `setup_s` is their median.
const BOOTS: usize = 3;
/// One request in this many gets submit/settle spans in a traced run.
const TRACE_EVERY: u64 = 64;
/// A fixed stage is invalid when the generator's lateness p99 exceeds
/// this: the schedule, not the server, would be setting latency.
const MAX_LAG_P99_MS: f64 = 5.0;
/// Latency limit for the capacity ladder.
const SLO_P99_MS: f64 = 100.0;
const LADDER_RPS: [f64; 5] = [8_000.0, 16_000.0, 24_000.0, 32_000.0, 48_000.0];
/// Measured length of one ladder rung (after the stage warm-up).
const LADDER_RUNG_S: f64 = 3.0;
const DRAIN: Duration = Duration::from_secs(10);

/// The traffic of one serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Offered rate of the fixed stage, req/s.
    pub rate: f64,
    /// One request in `cold_every` is a cold miss (0 = none).
    pub cold_every: u64,
}

/// The fixed stages run well below capacity (the ladder finds that):
/// at twice this rate, queueing amplified the shared host's slow
/// stretches into a run-to-run spread of the warm median twice as wide.
pub const WARM: Mix = Mix {
    rate: 2_000.0,
    cold_every: 0,
};
/// About 0.4 of a core of cold compute: enough to show head-of-line
/// blocking, far enough from saturating two cores that a slow stretch of
/// the shared host does not tip the stage into overload.
pub const MIXED: Mix = Mix {
    rate: 2_000.0,
    cold_every: 128,
};

struct Fleet {
    shards: Vec<ServerHandle>,
    router: RouterHandle,
    dir: PathBuf,
}

impl Fleet {
    /// Boot the shards and the router, and wait until the router has
    /// learned the engine version (placement is undefined before that).
    fn boot(dir: PathBuf) -> std::io::Result<Fleet> {
        let _ = std::fs::remove_dir_all(&dir);
        let shards = (0..SHARDS)
            .map(|i| {
                bfly_farmd::spawn(
                    ServerConfig {
                        listen: Listen::Tcp("127.0.0.1:0".into()),
                        cache_dir: Some(dir.join(format!("shard-{i}"))),
                        shard_id: Some(format!("shard-{i}")),
                        ..ServerConfig::default()
                    },
                    Arc::new(Registry),
                )
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let router = bfly_farm_router::spawn(RouterConfig {
            listen: "127.0.0.1:0".into(),
            shards: shards.iter().map(|h| h.addr.clone()).collect(),
            ..RouterConfig::default()
        })?;
        let fleet = Fleet {
            shards,
            router,
            dir,
        };
        let mut c = Client::connect(&fleet.router.addr)?;
        let t0 = Instant::now();
        while c
            .request_line("{\"op\":\"ping\"}")?
            .get("engine_version")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            == 0
        {
            if t0.elapsed() > Duration::from_secs(20) {
                return Err(std::io::Error::other(
                    "router never learned the engine version",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(fleet)
    }

    /// Compute the mix (`refresh`) and confirm it answers warm. Jobs go
    /// one at a time, so set-up time does not depend on how concurrent
    /// jobs happen to overlap on the shards' workers.
    fn warm(&self, jobs: &[String]) -> std::io::Result<()> {
        let mut c = Client::connect(&self.router.addr)?;
        for job in jobs {
            run_batch(&mut c, std::slice::from_ref(job), "refresh")?;
        }
        let (v, _) = run_batch(&mut c, jobs, "use")?;
        let hits = v.get("hits").and_then(Value::as_u64).unwrap_or(0);
        if hits != jobs.len() as u64 {
            return Err(std::io::Error::other(format!(
                "warm-up: {hits} of {} jobs answered from cache",
                jobs.len()
            )));
        }
        Ok(())
    }

    /// Summed `stats` counters of every shard.
    fn shard_stats(&self) -> std::io::Result<ShardStats> {
        let mut s = ShardStats::default();
        for h in &self.shards {
            let v = Client::connect(&h.addr)?.request_line("{\"op\":\"stats\"}")?;
            let n = |k: &str| {
                v.get("cache")
                    .and_then(|c| c.get(k))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            };
            s.mem_hits += n("mem_hits");
            s.disk_hits += n("disk_hits");
            s.misses += n("misses");
            s.disk_writes += n("disk_writes");
            s.evictions += n("evictions");
        }
        Ok(s)
    }

    fn router_stats(&self) -> RouterStats {
        let v = json::parse(&self.router.stats_json()).expect("router stats are JSON");
        let jobs = |k: &str| {
            v.get("jobs")
                .and_then(|j| j.get(k))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        RouterStats {
            rerouted: jobs("rerouted"),
            duplicates: jobs("duplicates"),
            lost: jobs("lost"),
            cache_pushes: v
                .get("cluster")
                .and_then(|c| c.get("cache_pushes"))
                .and_then(Value::as_u64)
                .unwrap_or(0),
        }
    }

    /// Drain the router, then the shards (flushing their disk tiers),
    /// then delete the cache directories.
    fn stop(self) {
        self.router.shutdown();
        for h in self.shards {
            h.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct ShardStats {
    mem_hits: u64,
    disk_hits: u64,
    misses: u64,
    disk_writes: u64,
    evictions: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct RouterStats {
    rerouted: u64,
    duplicates: u64,
    lost: u64,
    cache_pushes: u64,
}

/// `{"op":"submit",<job fields>,"cache":<mode>}` for a job object.
fn submit_line(job: &str, cache: &str) -> String {
    let body = job.trim().trim_start_matches('{').trim_end_matches('}');
    format!("{{\"op\":\"submit\",{body},\"cache\":\"{cache}\"}}")
}

/// The `n`-th cold job of a run: a distinct seed per request, so every
/// one misses the cache.
fn cold_job(seed: u64, n: u64) -> String {
    format!(
        "{{\"exp\":\"fig5_gauss\",\"params\":{{\"n\":8,\"ps\":[1]}},\"seed\":{}}}",
        (seed << 32) + n
    )
}

/// Raw `result` bytes of a one-id `wait` reply or of a status reply (the
/// status object's final field).
fn raw_result(reply: &[u8]) -> Option<&[u8]> {
    let marker = b"\"result\":";
    let at = reply.windows(marker.len()).position(|w| w == marker)? + marker.len();
    let rest = &reply[at..];
    rest.strip_suffix(b"}]}")
        .or_else(|| rest.strip_suffix(b"}"))
}

/// Submit each warm job through the router and return its result bytes.
fn warm_bytes(addr: &str, jobs: &[String]) -> std::io::Result<Vec<Vec<u8>>> {
    let mut c = LineConn::connect(addr)?;
    jobs.iter()
        .map(|job| {
            let reply = c.request(&submit_line(job, "use"))?;
            let id = gen::scan_id(&reply).ok_or_else(|| {
                std::io::Error::other(format!(
                    "warm submit refused: {}",
                    String::from_utf8_lossy(&reply)
                ))
            })?;
            let reply = c.request(&format!(
                "{{\"op\":\"wait\",\"ids\":[{id}],\"timeout_ms\":10000}}"
            ))?;
            raw_result(&reply)
                .map(<[u8]>::to_vec)
                .ok_or_else(|| std::io::Error::other(format!("no result for warm job {job}")))
        })
        .collect()
}

fn ms_of(samples: &[Sample]) -> Vec<f64> {
    sorted(samples.iter().map(|s| s.ms).collect())
}

fn p(samples: &[Sample], q: f64) -> f64 {
    let v = ms_of(samples);
    if v.is_empty() {
        0.0
    } else {
        percentile(&v, q)
    }
}

/// Arrivals in a stage's first second are sent, settled and counted but
/// not timed: new connections and the router's first dispatches to each
/// shard put a one-off transient of tens of milliseconds there.
const WARMUP_S: f64 = 1.0;

fn measured(samples: &[Sample]) -> Vec<Sample> {
    samples
        .iter()
        .filter(|s| s.at_s >= WARMUP_S)
        .copied()
        .collect()
}

/// Percentile `across` over one-second windows of each window's
/// percentile `within` (windows of at least 100 samples; the whole
/// stage's `within` when there are none). What the code does to latency
/// shows in every window; a stall episode of the shared host shows in
/// some, so it moves this much less than the whole-stage percentile.
fn windowed(samples: &[Sample], within: f64, across: f64) -> f64 {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for s in samples {
        windows.entry(s.at_s as u64).or_default().push(s.ms);
    }
    let per: Vec<f64> = windows
        .into_values()
        .filter(|v| v.len() >= 100)
        .map(|v| percentile(&sorted(v), within))
        .collect();
    if per.is_empty() {
        p(samples, within)
    } else {
        percentile(&sorted(per), across)
    }
}

/// The cold tail: the highest percentile with ten samples beyond it.
fn tail(samples: &[Sample]) -> (f64, f64) {
    match tail_percentile(samples.len()) {
        Some(q) => (q, p(samples, q)),
        None => (0.0, 0.0),
    }
}

/// One open-loop stage through the router with the workload's mix.
fn stage(
    fleet: &Fleet,
    jobs: &[String],
    mix: Mix,
    rate: f64,
    duration: Duration,
    cfg: &RunCfg,
    tracer: Option<&Tracer>,
) -> std::io::Result<Outcome> {
    let warm: Vec<Vec<u8>> = jobs
        .iter()
        .map(|j| format!("{}\n", submit_line(j, "use")).into_bytes())
        .collect();
    let phase = cfg.seed % warm.len() as u64;
    let seed = cfg.seed;
    let next = move |n: u64| {
        if mix.cold_every > 0 && n % mix.cold_every == mix.cold_every - 1 {
            Request {
                line: format!("{}\n", submit_line(&cold_job(seed, n), "use")).into_bytes(),
                cold: true,
            }
        } else {
            Request {
                line: warm[((n + phase) % warm.len() as u64) as usize].clone(),
                cold: false,
            }
        }
    };
    let st = Stage {
        rate,
        duration,
        drain: DRAIN,
        trace_every: if tracer.is_some() { TRACE_EVERY } else { 0 },
    };
    gen::run_stage(&fleet.router.addr, &st, next, tracer)
}

fn io(rec: &mut Record, what: &str, e: std::io::Error) {
    rec.check(false, || format!("{what}: {e}"));
}

/// Run a serving workload.
pub fn serve(name: &str, mix: Mix, cfg: &RunCfg, tracer: Option<&Tracer>) -> Record {
    let mut rec = Record::default();
    let jobs = serve_bench_jobs();
    let base = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("tmp")
        .join(format!("{name}-{}", std::process::id()));
    let mut setups = Vec::new();
    let mut fleet = None;
    for k in 0..BOOTS {
        let t0 = Instant::now();
        let booted = Fleet::boot(base.join(format!("boot-{k}")));
        match booted.and_then(|f| f.warm(&jobs).map(|()| f)) {
            Ok(f) => {
                setups.push(t0.elapsed().as_secs_f64());
                if let Some(prev) = fleet.replace(f) {
                    prev.stop();
                }
            }
            Err(e) => {
                io(&mut rec, "fleet boot", e);
                if let Some(prev) = fleet.take() {
                    prev.stop();
                }
                let _ = std::fs::remove_dir_all(&base);
                return rec;
            }
        }
    }
    let fleet = fleet.expect("booted above");
    rec.set("setup_s", median(&setups));
    let addr = fleet.router.addr.clone();

    let start = warm_bytes(&addr, &jobs);
    let shards0 = fleet.shard_stats();
    let router0 = fleet.router_stats();
    let dur = Duration::from_secs_f64(WARMUP_S + cfg.seconds);
    match stage(&fleet, &jobs, mix, mix.rate, dur, cfg, tracer) {
        Ok(out) => record_stage(&mut rec, &out, tracer.is_some()),
        Err(e) => io(&mut rec, "fixed stage", e),
    }
    let end = warm_bytes(&addr, &jobs);
    rec.detail("peak_rss_mb", crate::record::peak_rss_mib());
    let router1 = fleet.router_stats();
    rec.check(router1.lost == 0 && router1.duplicates == 0, || {
        format!(
            "router accounting: lost {} duplicates {}",
            router1.lost, router1.duplicates
        )
    });

    if tracer.is_some() {
        match shards0.and_then(|s0| fleet.shard_stats().map(|s1| (s0, s1))) {
            Ok((s0, s1)) => {
                let d = |f: fn(&ShardStats) -> u64| (f(&s1) - f(&s0)) as f64;
                let hits = d(|s| s.mem_hits) + d(|s| s.disk_hits);
                rec.set("farmd.mem_hits", d(|s| s.mem_hits));
                rec.set("farmd.disk_hits", d(|s| s.disk_hits));
                rec.set("farmd.misses", d(|s| s.misses));
                rec.set("farmd.hit_ratio", hits / (hits + d(|s| s.misses)).max(1.0));
                rec.set("farmd.disk_writes", d(|s| s.disk_writes));
                rec.set("farmd.evictions", d(|s| s.evictions));
            }
            Err(e) => io(&mut rec, "shard stats", e),
        }
        rec.set(
            "farm-router.cache_pushes",
            (router1.cache_pushes - router0.cache_pushes) as f64,
        );
        rec.set(
            "farm-router.rerouted",
            (router1.rerouted - router0.rerouted) as f64,
        );
        rec.set("farm-router.duplicates", router1.duplicates as f64);
        rec.set("farm-router.lost", router1.lost as f64);
        if let Err(e) = layer_timings(&fleet, &jobs, &base, &mut rec) {
            io(&mut rec, "layer timings", e);
        }
        if mix.cold_every == 0 {
            ladder(&fleet, &jobs, mix, cfg, &mut rec);
        }
    }
    fleet.stop();
    let _ = std::fs::remove_dir_all(&base);

    // Every warm reply must carry exactly the bytes `Registry.run`
    // computes. Recomputed last, so the benchmark's own compute stays
    // out of the peak memory read above.
    let want: Vec<Vec<u8>> = jobs
        .iter()
        .map(|j| {
            let spec = JobSpec::from_value(&json::parse(j).expect("job JSON")).expect("job spec");
            Registry.run(&spec).expect("Registry.run on a warm job")
        })
        .collect();
    for (when, got) in [("stage start", start), ("stage end", end)] {
        match got {
            Ok(got) => rec.check(got == want, || {
                format!("{when}: warm reply bytes differ from Registry.run")
            }),
            Err(e) => io(&mut rec, when, e),
        }
    }
    rec
}

fn record_stage(rec: &mut Record, out: &Outcome, traced: bool) {
    rec.attempted = out.offered;
    rec.failed = out.ops_failed();
    let lag = sorted(out.lateness_ms.clone());
    let lag_p99 = if lag.is_empty() {
        0.0
    } else {
        percentile(&lag, 99.0)
    };
    if lag_p99 > MAX_LAG_P99_MS {
        rec.invalid.push(format!(
            "generator lateness p99 {lag_p99:.2} ms exceeds {MAX_LAG_P99_MS} ms"
        ));
    }
    if out.warm.is_empty() {
        rec.check(false, || "fixed stage completed no warm request".into());
        return;
    }
    let warm = measured(&out.warm);
    let cold = measured(&out.cold);
    // The warm median of the stage's quieter quarter of seconds.
    rec.set("result_ms", windowed(&warm, 50.0, 25.0));
    let warm_p99 = windowed(&warm, 99.0, 50.0);
    let (cold_q, cold_tail) = tail(&cold);
    for (k, v) in [
        ("warm_requests", warm.len() as f64),
        ("warm_p50_ms", p(&warm, 50.0)),
        ("warm_p99_ms", p(&warm, 99.0)),
        ("warm_p99_windowed_ms", warm_p99),
        ("warm_p999_ms", p(&warm, 99.9)),
        ("cold_requests", cold.len() as f64),
        ("cold_tail_percentile", cold_q),
        ("offered", out.offered as f64),
        ("achieved_rps", out.achieved_rps()),
        ("refused", out.refused as f64),
        ("not_ok", out.not_ok as f64),
        ("job_failed", out.failed as f64),
        ("unfinished", out.unfinished as f64),
        ("gen_lag_p99_ms", lag_p99),
    ] {
        rec.detail(k, v);
    }
    if !cold.is_empty() {
        rec.detail("cold_p50_ms", p(&cold, 50.0));
        rec.detail("cold_tail_ms", cold_tail);
    }
    if traced {
        rec.set("bench.gen_lag_p99_ms", lag_p99);
        rec.set("bench.warm_p99_ms", warm_p99);
        if !cold.is_empty() {
            rec.set("bench.cold_p50_ms", p(&cold, 50.0));
            rec.set("bench.cold_tail_ms", cold_tail);
        }
        // Spans are recorded only in even seconds of the schedule, so
        // odd seconds are the untraced control.
        let (on, off): (Vec<Sample>, Vec<Sample>) =
            warm.iter().partition(|s| gen::traced_second(s.at_s));
        if !on.is_empty() && !off.is_empty() {
            rec.set("bench.trace_overhead", p(&on, 50.0) / p(&off, 50.0) - 1.0);
        }
    }
}

/// Median per-call time of `f`, µs, over five batches of `iters` calls.
fn per_call_us(iters: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    median(&batches)
}

/// Closed-loop round trips and single-call timings of each serving
/// layer, taken after the open-loop stage has closed its connections.
fn layer_timings(
    fleet: &Fleet,
    jobs: &[String],
    base: &Path,
    rec: &mut Record,
) -> std::io::Result<()> {
    use std::hint::black_box;
    let ev = Registry.engine_version();
    let job = json::parse(&jobs[0]).map_err(|e| std::io::Error::other(e.1))?;
    let key = JobSpec::from_value(&job)
        .map_err(std::io::Error::other)?
        .key(ev);
    let primary = fleet.router.preference(&key)[0];
    let submit = submit_line(&jobs[0], "use");

    // Direct to the key's primary shard: farmd answers a hit inline.
    let mut direct = LineConn::connect(&fleet.shards[primary].addr)?;
    let reply = direct.request(&submit)?;
    let rtt: Vec<f64> = (0..2_000)
        .map(|_| {
            let t0 = Instant::now();
            let r = direct.request(&submit);
            black_box(r.ok());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let direct_us = median(&rtt);
    // Through the router: submit, then settle with `wait`.
    let mut via = LineConn::connect(&fleet.router.addr)?;
    let mut rtt = Vec::with_capacity(1_000);
    for _ in 0..1_000 {
        let t0 = Instant::now();
        let r = via.request(&submit)?;
        let id = gen::scan_id(&r)
            .ok_or_else(|| std::io::Error::other("router refused a warm submit"))?;
        black_box(via.request(&format!(
            "{{\"op\":\"wait\",\"ids\":[{id}],\"timeout_ms\":10000}}"
        ))?);
        rtt.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let router_us = median(&rtt);
    drop((direct, via));
    rec.set("farmd.rtt_p50_us", direct_us);
    rec.set("farm-router.rtt_p50_us", router_us);
    rec.set("farm-router.hop_us", router_us - direct_us);

    let text = String::from_utf8_lossy(&reply).into_owned();
    rec.set("farmd.reply_bytes", text.len() as f64);
    let parsed = json::parse(&text).map_err(|e| std::io::Error::other(e.1))?;
    rec.set(
        "farmd.json_parse_us",
        per_call_us(500, || {
            black_box(json::parse(black_box(&text)).ok());
        }),
    );
    rec.set(
        "farmd.json_dump_us",
        per_call_us(500, || {
            black_box(black_box(&parsed).dump());
        }),
    );
    rec.set(
        "farmd.jobspec_key_us",
        per_call_us(2_000, || {
            black_box(JobSpec::from_value(black_box(&job)).map(|s| s.key(ev)).ok());
        }),
    );
    let result = raw_result(&reply).unwrap_or(&reply).to_vec();
    let mem = Cache::new(None, 16, 64 << 20);
    mem.put(&key, result.clone());
    rec.set(
        "farmd.cache_get_us",
        per_call_us(5_000, || {
            black_box(mem.get(black_box(&key)));
        }),
    );
    let dir = base.join("cache-put");
    let disk = Cache::new(Some(dir.clone()), 16, 64 << 20);
    let mut i = 0u128;
    rec.set(
        "farmd.cache_put_us",
        per_call_us(400, || {
            i += 1;
            disk.put(
                &format!("{:032x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                result.clone(),
            );
        }),
    );
    disk.flush();
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);

    let mut ring = bfly_farm_router::Ring::new(2, 64);
    for h in &fleet.shards {
        ring.add(&h.addr);
    }
    rec.set(
        "farm-router.preference_us",
        per_call_us(5_000, || {
            black_box(ring.preference(black_box(&key)));
        }),
    );
    let cold = JobSpec::from_value(&json::parse(&cold_job(0, 0)).expect("cold job JSON"))
        .map_err(std::io::Error::other)?;
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(Registry.run(&cold).ok());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rec.set("bench.registry_run_ms", median(&runs));
    Ok(())
}

/// Capacity: rungs of rising offered rate, stopping at the first that
/// refuses, falls behind, or breaks the latency limit. The fixed stage
/// counts as the bottom rung.
fn ladder(fleet: &Fleet, jobs: &[String], mix: Mix, cfg: &RunCfg, rec: &mut Record) {
    let mut best = if rec.failed == 0
        && rec
            .metrics
            .get("bench.warm_p99_ms")
            .is_some_and(|&t| t <= SLO_P99_MS)
    {
        mix.rate
    } else {
        0.0
    };
    for rate in LADDER_RPS {
        let out = match stage(
            fleet,
            jobs,
            mix,
            rate,
            Duration::from_secs_f64(WARMUP_S + LADDER_RUNG_S),
            cfg,
            None,
        ) {
            Ok(out) => out,
            Err(e) => {
                io(rec, "ladder", e);
                break;
            }
        };
        let lag = sorted(out.lateness_ms.clone());
        let lag_p99 = percentile(&lag, 99.0);
        let p99 = p(&measured(&out.warm), 99.0);
        rec.detail(&format!("ladder_{rate}_p99_ms"), p99);
        rec.detail(&format!("ladder_{rate}_refused"), out.refused as f64);
        rec.detail(&format!("ladder_{rate}_achieved_rps"), out.achieved_rps());
        rec.detail(&format!("ladder_{rate}_gen_lag_p99_ms"), lag_p99);
        let pass = out.ops_failed() == 0 && out.achieved_rps() >= 0.99 * rate && p99 <= SLO_P99_MS;
        if lag_p99 > MAX_LAG_P99_MS {
            // The schedule was not delivered. If the servers kept up
            // regardless, the generator is what fell behind.
            if pass {
                rec.invalid.push(format!(
                    "ladder rung {rate} req/s: generator fell behind (lateness p99 {lag_p99:.1} ms)"
                ));
            }
            break;
        }
        if !pass {
            break;
        }
        best = rate;
    }
    rec.set("bench.max_rps_slo", best);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 100 requests a second for `secs` seconds, each second's latency
    /// given by `ms`.
    fn stage_of(secs: u64, ms: impl Fn(u64) -> f64) -> Vec<Sample> {
        (0..secs)
            .flat_map(|s| {
                let ms = ms(s);
                (0..100).map(move |i| Sample {
                    at_s: s as f64 + f64::from(i) / 100.0,
                    ms,
                })
            })
            .collect()
    }

    #[test]
    fn a_stall_episode_leaves_the_quieter_quarter_alone() {
        // The first two thirds of the stage are a host stall episode.
        let v = stage_of(24, |s| if s < 16 { 5.0 } else { 0.25 });
        assert_eq!(p(&v, 50.0), 5.0);
        assert_eq!(windowed(&v, 50.0, 25.0), 0.25);
    }

    #[test]
    fn a_change_in_every_second_moves_it_in_full() {
        let before = stage_of(24, |s| 0.25 + s as f64 * 0.001);
        let after = stage_of(24, |s| 0.35 + s as f64 * 0.001);
        let moved = windowed(&after, 50.0, 25.0) - windowed(&before, 50.0, 25.0);
        assert!((moved - 0.1).abs() < 1e-9, "moved {moved}");
    }

    #[test]
    fn sparse_windows_fall_back_to_the_whole_stage() {
        let v: Vec<Sample> = (0..50)
            .map(|i| Sample {
                at_s: f64::from(i) * 0.5,
                ms: f64::from(i),
            })
            .collect();
        assert_eq!(windowed(&v, 50.0, 25.0), p(&v, 50.0));
    }
}
