//! The farm daemon's experiment registry and the cold/warm serve
//! benchmark.
//!
//! `bfly-farmd` is generic over a [`bfly_farmd::JobRunner`]; this module
//! is the concrete registry wiring the daemon to the experiment
//! implementations in [`crate::experiments`]. Every entry produces
//! **canonical result bytes**: a single-line JSON object built through
//! [`bfly_farmd::json::Value`] (sorted keys), a pure function of
//! `(exp, params, seed)` — which is exactly what makes the daemon's
//! content-addressed cache sound (`tests/farm_determinism.rs` proptests
//! cached == cold-recomputed, bit for bit).
//!
//! Probed jobs install the ambient probe on the worker thread and pin
//! that thread's sweeps serial via [`crate::sweep::with_thread_serial`],
//! a per-thread pin, so probed and unprobed jobs running on neighboring
//! workers cannot race each other's sweep configuration.

use std::time::{Duration, Instant};

use bfly_farmd::json::{self, Value};
use bfly_farmd::{Client, JobRunner, JobSpec, Listen, ServerConfig};
use bfly_probe::Probe;

use crate::report::EngineStats;
use crate::sweep::with_thread_serial;
use crate::{experiments, Scale, Table};

/// Experiments served by the daemon, with their parameter contracts.
/// `fig5_gauss` honors `{"n": int, "ps": [int], "seed"}`; the `tab*`
/// entries honor `{"quick": bool}` (seed is folded into the cache key
/// but the workloads are internally seeded — documented in
/// EXPERIMENTS.md T17).
const EXPS: &[&str] = &[
    "fig5_gauss",
    "tab1_memory",
    "tab2_primitives",
    "tab3_contention",
    "tab4_hough_locality",
    "tab5_scatter",
    "tab6_switch",
    "tab7_alloc_amdahl",
    "tab8_crowd",
    "tab9_replay",
    "tab10_bridge",
    "tab12_models",
    "tab13_linda",
    "tab14_bplus",
    "tab15_faults",
    "tab18_races",
    "tab21_snapshot",
    "tab22_pdes",
];

/// The concrete experiment registry behind a farm daemon.
pub struct Registry;

impl Registry {
    fn scale_of(params: &Value) -> Result<Scale, String> {
        match params.get("quick") {
            None => Ok(Scale::quick()),
            Some(q) => match q.as_bool() {
                Some(true) => Ok(Scale::quick()),
                Some(false) => Ok(Scale::full()),
                None => Err("`quick` must be a bool".into()),
            },
        }
    }

    /// Run the experiment body, returning its table, engine counters,
    /// (for the sanitizer experiment) the findings report to embed, and
    /// the number of sweep points resumed from a checkpoint.
    fn dispatch(
        spec: &JobSpec,
        ckpt: Option<&crate::snapshot::SweepCheckpointer<'_>>,
    ) -> Result<(Table, EngineStats, Option<String>, usize), String> {
        if spec.exp == "tab18_races" {
            // The sanitizer experiment scopes its own per-scenario
            // sanitizers; the witness-suite findings report is embedded in
            // the canonical result the way probe summaries are. It is a
            // pure function of the (seeded) witnesses, so the cache
            // identity stays sound.
            let (table, engine, suite) =
                experiments::tab18_races_full(Self::scale_of(&spec.params)?);
            return Ok((table, engine, Some(suite.report_json(&spec.exp)), 0));
        }
        let (table, engine, resumed) = Self::dispatch_plain(spec, ckpt)?;
        Ok((table, engine, None, resumed))
    }

    fn dispatch_plain(
        spec: &JobSpec,
        ckpt: Option<&crate::snapshot::SweepCheckpointer<'_>>,
    ) -> Result<(Table, EngineStats, usize), String> {
        let params = &spec.params;
        let plain = |r: (Table, EngineStats)| (r.0, r.1, 0);
        match spec.exp.as_str() {
            "fig5_gauss" => {
                let n = match params.get("n") {
                    None => 48,
                    Some(v) => v.as_u64().ok_or("`n` must be an integer")? as u32,
                };
                if !(8..=512).contains(&n) {
                    return Err(format!("`n` out of the serving range 8..=512: {n}"));
                }
                let ps: Vec<u16> = match params.get("ps") {
                    None => vec![16, 32, 64, 128],
                    Some(v) => {
                        let arr = v.as_arr().ok_or("`ps` must be an array of integers")?;
                        if arr.is_empty() || arr.len() > 16 {
                            return Err("`ps` must have 1..=16 points".into());
                        }
                        arr.iter()
                            .map(|p| match p.as_u64() {
                                Some(p @ 1..=128) => Ok(p as u16),
                                _ => Err("`ps` entries must be in 1..=128".to_string()),
                            })
                            .collect::<Result<_, _>>()?
                    }
                };
                Ok(match ckpt {
                    // The checkpointed sweep is bit-identical to the plain
                    // one (resumed points are exact recorded results), so
                    // the cache identity is unaffected.
                    Some(c) => experiments::fig5_gauss_at_seeded_ckpt(n, &ps, spec.seed, c),
                    None => plain(experiments::fig5_gauss_at_seeded(n, &ps, spec.seed)),
                })
            }
            "tab1_memory" => Ok(plain(experiments::tab1_memory_run(Self::scale_of(params)?))),
            "tab2_primitives" => Ok(plain(experiments::tab2_primitives_run(Self::scale_of(
                params,
            )?))),
            "tab3_contention" => Ok(plain(experiments::tab3_contention_run(Self::scale_of(
                params,
            )?))),
            "tab4_hough_locality" => Ok(plain(experiments::tab4_hough_locality_run(
                Self::scale_of(params)?,
            ))),
            "tab5_scatter" => Ok(plain(experiments::tab5_scatter_run(Self::scale_of(
                params,
            )?))),
            "tab6_switch" => Ok(plain(experiments::tab6_switch_run(Self::scale_of(params)?))),
            "tab7_alloc_amdahl" => Ok(plain(experiments::tab7_alloc_amdahl_run(Self::scale_of(
                params,
            )?))),
            "tab8_crowd" => Ok(plain(experiments::tab8_crowd_run(Self::scale_of(params)?))),
            "tab9_replay" => Ok(plain(experiments::tab9_replay_run(Self::scale_of(params)?))),
            "tab10_bridge" => Ok(plain(experiments::tab10_bridge_run(Self::scale_of(
                params,
            )?))),
            "tab12_models" => Ok(plain(experiments::tab12_models_run(Self::scale_of(
                params,
            )?))),
            "tab13_linda" => Ok(plain(experiments::tab13_linda_run(Self::scale_of(params)?))),
            "tab14_bplus" => Ok(plain(experiments::tab14_bplus_run(Self::scale_of(params)?))),
            "tab15_faults" => Ok(plain(experiments::tab15_faults_run(Self::scale_of(
                params,
            )?))),
            "tab21_snapshot" => Ok(plain(experiments::tab21_snapshot_run(Self::scale_of(
                params,
            )?))),
            "tab22_pdes" => {
                // `hosts` is the top-level serving knob (JobSpec::hosts),
                // not a param: results are bit-identical for every value,
                // so it stays out of the cache key and the result bytes.
                let hosts = spec.hosts.unwrap_or(1) as usize;
                Ok(plain(experiments::tab22_pdes_at(
                    Self::scale_of(params)?,
                    hosts,
                )))
            }
            other => Err(format!("unknown experiment `{other}`")),
        }
    }
}

/// Adapts the daemon's exclusive `&mut dyn Checkpointer` transport to the
/// sweep's shared-reference [`crate::snapshot::CkptSink`] (the sweep
/// closure runs on many host threads at once).
struct CkptBridge<'a>(std::sync::Mutex<&'a mut dyn bfly_farmd::Checkpointer>);

impl crate::snapshot::CkptSink for CkptBridge<'_> {
    fn load(&self) -> Option<Vec<u8>> {
        self.0.lock().unwrap().load()
    }

    fn save(&self, bytes: &[u8]) {
        self.0.lock().unwrap().save(bytes)
    }
}

impl JobRunner for Registry {
    fn engine_version(&self) -> u32 {
        bfly_sim::ENGINE_VERSION
    }

    fn experiments(&self) -> Vec<&'static str> {
        EXPS.to_vec()
    }

    fn run(&self, spec: &JobSpec) -> Result<Vec<u8>, String> {
        self.run_with(spec, None).map(|(bytes, _)| bytes)
    }

    /// Resumable serving: sweep experiments persist every completed point
    /// through the daemon's transport and reuse whatever a previous
    /// (killed, failed-over) attempt left behind. Result bytes stay
    /// bit-identical to an uninterrupted run — resumed points are exact
    /// recorded results of deterministic simulations.
    fn run_checkpointed(
        &self,
        spec: &JobSpec,
        ckpt: &mut dyn bfly_farmd::Checkpointer,
    ) -> Result<Vec<u8>, String> {
        // Probed jobs aggregate ambient-probe counters across the whole
        // sweep; resuming mid-sweep would change the embedded summary, so
        // they always run uninterrupted.
        if spec.probe {
            return self.run(spec);
        }
        let (bytes, resumed) = {
            let bridge = CkptBridge(std::sync::Mutex::new(&mut *ckpt));
            // `every: 0` persists after every completed sweep point: a
            // point costs seconds of simulation, a save costs one small
            // durable write.
            let c = crate::snapshot::SweepCheckpointer {
                every: 0,
                sink: &bridge,
            };
            self.run_with(spec, Some(&c))?
        };
        ckpt.resumed(resumed as u64);
        Ok(bytes)
    }
}

impl Registry {
    fn run_with(
        &self,
        spec: &JobSpec,
        ckpt: Option<&crate::snapshot::SweepCheckpointer<'_>>,
    ) -> Result<(Vec<u8>, usize), String> {
        let probe = if spec.probe {
            let p = Probe::new();
            bfly_probe::install_ambient(Some(p.clone()));
            Some(p)
        } else {
            None
        };
        // Probed jobs pin *this worker thread's* sweeps serial (the
        // ambient probe is thread-local); the pin is restored even if the
        // experiment panics, so a quarantined job can't poison the worker.
        let outcome = if spec.probe {
            with_thread_serial(|| Self::dispatch(spec, ckpt))
        } else {
            Self::dispatch(spec, ckpt)
        };
        if spec.probe {
            bfly_probe::install_ambient(None);
        }
        let (table, engine, san_report, resumed) = outcome?;

        let probe_value = match &probe {
            None => Value::Null,
            Some(p) => {
                let summary = p.summary_json(&spec.exp);
                // Side artifact for CI upload; never part of the result
                // bytes (best-effort, a read-only cwd must not fail the
                // job).
                let _ = std::fs::write(
                    format!("PROBE_farm_{}_s{}.json", spec.exp, spec.seed),
                    &summary,
                );
                json::parse(&summary)
                    .map_err(|(at, m)| format!("probe summary not JSON at {at}: {m}"))?
            }
        };
        let san_value = match &san_report {
            None => Value::Null,
            Some(report) => {
                // Side artifact for CI upload, like the probe summary;
                // never part of the result bytes.
                let _ =
                    std::fs::write(format!("SAN_farm_{}_s{}.json", spec.exp, spec.seed), report);
                json::parse(report)
                    .map_err(|(at, m)| format!("san report not JSON at {at}: {m}"))?
            }
        };
        let table_value = json::parse(&table.to_json())
            .map_err(|(at, m)| format!("table not JSON at {at}: {m}"))?;

        // Canonical result object. `run` carries only the *deterministic*
        // engine counters — host wall-clock would break the bit-identity
        // guarantee (it lives in the response envelope instead).
        let mut run = std::collections::BTreeMap::new();
        run.insert("events".to_string(), Value::Int(engine.events as i64));
        run.insert("sims".to_string(), Value::Int(engine.sims as i64));
        run.insert("tasks".to_string(), Value::Int(engine.tasks as i64));
        let mut obj = std::collections::BTreeMap::new();
        obj.insert(
            "schema".to_string(),
            Value::Str("bfly-farm-result/1".into()),
        );
        obj.insert("exp".to_string(), Value::Str(spec.exp.clone()));
        obj.insert(
            "key".to_string(),
            Value::Str(spec.key(self.engine_version())),
        );
        obj.insert(
            "engine_version".to_string(),
            Value::Int(self.engine_version() as i64),
        );
        obj.insert("seed".to_string(), Value::Int(spec.seed as i64));
        obj.insert("params".to_string(), spec.params.clone());
        obj.insert("run".to_string(), Value::Obj(run));
        obj.insert("table".to_string(), table_value);
        obj.insert("probe".to_string(), probe_value);
        obj.insert("san".to_string(), san_value);
        Ok((Value::Obj(obj).dump().into_bytes(), resumed))
    }
}

/// Outcome of the cold/warm serve benchmark (the `serve` section of
/// `BENCH_sim.json`).
#[derive(Debug, Clone)]
pub struct ServeBenchResult {
    /// Jobs per batch.
    pub jobs: usize,
    /// Wall-clock of the cold batch (every job recomputed).
    pub cold_wall: Duration,
    /// Wall-clock of the identical warm batch (served from cache).
    pub warm_wall: Duration,
    /// Cache hits reported for the warm batch.
    pub hits: u64,
}

impl ServeBenchResult {
    /// Warm-over-cold throughput ratio.
    pub fn speedup(&self) -> f64 {
        let w = self.warm_wall.as_secs_f64();
        if w > 0.0 {
            self.cold_wall.as_secs_f64() / w
        } else {
            f64::INFINITY
        }
    }

    /// Fraction of warm-batch jobs served from cache.
    pub fn hit_rate(&self) -> f64 {
        if self.jobs > 0 {
            self.hits as f64 / self.jobs as f64
        } else {
            0.0
        }
    }
}

/// The standard serve-benchmark job mix: several seeds of the FIG5 sweep
/// plus a spread of quick tables — repeats across batches are what the
/// cache serves warm.
pub fn serve_bench_jobs() -> Vec<String> {
    let mut jobs = Vec::new();
    for seed in 1..=4u64 {
        jobs.push(format!(
            r#"{{"exp":"fig5_gauss","params":{{"n":32,"ps":[8,16,32]}},"seed":{seed}}}"#
        ));
    }
    for exp in [
        "tab1_memory",
        "tab2_primitives",
        "tab5_scatter",
        "tab15_faults",
    ] {
        jobs.push(format!(
            r#"{{"exp":"{exp}","params":{{"quick":true}},"seed":1}}"#
        ));
    }
    jobs
}

fn batch_line(jobs: &[String], cache: &str) -> String {
    let mut out = String::from(r#"{"op":"batch","jobs":["#);
    for (i, j) in jobs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Splice the job object with the cache mode appended.
        let body = j.trim().trim_end_matches('}');
        out.push_str(body);
        out.push_str(&format!(r#","cache":"{cache}"}}"#));
    }
    out.push_str("]}");
    out
}

/// Submit `jobs` as one batch under the given cache mode; returns the
/// parsed response and the client-side wall-clock.
pub fn run_batch(
    client: &mut Client,
    jobs: &[String],
    cache: &str,
) -> std::io::Result<(Value, Duration)> {
    let t0 = Instant::now();
    let v = client.request_line(&batch_line(jobs, cache))?;
    let wall = t0.elapsed();
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(std::io::Error::other(format!("batch failed: {}", v.dump())));
    }
    Ok((v, wall))
}

/// Extract the canonical `result` bytes of every job in a batch response
/// (errors for non-`done` jobs).
pub fn batch_results(v: &Value) -> std::io::Result<Vec<String>> {
    let results = v
        .get("results")
        .and_then(Value::as_arr)
        .ok_or_else(|| std::io::Error::other("batch response has no results"))?;
    results
        .iter()
        .map(|r| {
            if r.get("state").and_then(Value::as_str) == Some("done") {
                Ok(r.get("result").expect("done carries a result").dump())
            } else {
                Err(std::io::Error::other(format!("job not done: {}", r.dump())))
            }
        })
        .collect()
}

/// True for daemon/router errors a client should retry with backoff:
/// admission backpressure, not verdicts. Transport-level connect
/// failures are transient too, but those surface as `io::Error`, not as
/// protocol error strings — callers handle both (see the `farm` bin).
pub fn transient_client_error(err: &str) -> bool {
    // `busy` is the daemon's connection-cap refusal (max-conns reached):
    // the daemon is healthy but saturated, so retry after backoff — same
    // contract as queue backpressure.
    err.contains("queue full") || err.contains("busy")
}

/// Bounded exponential backoff with seeded jitter for `farm` client
/// retries: delay `n` is `min(cap, base << n)` scaled by a jitter factor
/// in `[0.5, 1.0]` drawn from a [`bfly_sim::SplitMix64`] stream. The
/// jitter decorrelates a fleet of clients hammering one router after a
/// `queue full` refusal; the seed makes any single client's retry
/// schedule reproducible.
pub struct Backoff {
    rng: bfly_sim::SplitMix64,
    attempt: u32,
    max_tries: u32,
    base_ms: u64,
    cap_ms: u64,
}

impl Backoff {
    /// Backoff seeded from the process id (decorrelated across client
    /// processes, stable within one).
    pub fn new(max_tries: u32, base_ms: u64, cap_ms: u64) -> Backoff {
        Backoff::seeded(std::process::id() as u64, max_tries, base_ms, cap_ms)
    }

    /// Fully deterministic backoff for tests.
    pub fn seeded(seed: u64, max_tries: u32, base_ms: u64, cap_ms: u64) -> Backoff {
        Backoff {
            rng: bfly_sim::SplitMix64::new(seed ^ 0xb0ff_0ff5_ee1d_ed00),
            attempt: 0,
            max_tries,
            base_ms,
            cap_ms,
        }
    }

    /// True once the retry budget is spent.
    pub fn exhausted(&self) -> bool {
        self.attempt >= self.max_tries
    }

    /// Next delay in the schedule (advances the attempt counter).
    /// Always at least 1ms, never more than `cap_ms`.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(16);
        self.attempt = self.attempt.saturating_add(1);
        let raw = self.base_ms.saturating_shl(exp).min(self.cap_ms);
        // Jitter in [0.5, 1.0]: half the window is guaranteed spacing,
        // half is decorrelation.
        let frac = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let ms = ((raw as f64) * (0.5 + 0.5 * frac)).round() as u64;
        Duration::from_millis(ms.clamp(1, self.cap_ms))
    }
}

trait SaturatingShl {
    fn saturating_shl(self, n: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, n: u32) -> u64 {
        self.checked_shl(n).unwrap_or(u64::MAX)
    }
}

/// Boot an in-process daemon on an ephemeral port with a throwaway cache
/// directory, run the standard job mix cold then warm, verify the warm
/// bytes are bit-identical to a cache-bypassing recomputation, and
/// return the timings. This is `perf_report --serve-bench`.
pub fn serve_bench() -> std::io::Result<ServeBenchResult> {
    let cache_dir = std::env::temp_dir().join(format!("bfly_serve_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let handle = bfly_farmd::spawn(
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            cache_dir: Some(cache_dir.clone()),
            ..ServerConfig::default()
        },
        std::sync::Arc::new(Registry),
    )?;
    let out = serve_bench_against(&handle.addr);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
    out
}

/// The cold/warm/verify legs against an already-running daemon (shared
/// by [`serve_bench`] and `farm bench`).
pub fn serve_bench_against(addr: &str) -> std::io::Result<ServeBenchResult> {
    let jobs = serve_bench_jobs();
    let mut client = Client::connect(addr)?;
    // Cold: `refresh` forces recomputation even on a warm daemon and
    // leaves the cache populated for the warm leg.
    let (cold, cold_wall) = run_batch(&mut client, &jobs, "refresh")?;
    let cold_bytes = batch_results(&cold)?;
    // Warm: identical batch, served from cache.
    let (warm, warm_wall) = run_batch(&mut client, &jobs, "use")?;
    let warm_bytes = batch_results(&warm)?;
    let hits = warm
        .get("hits")
        .and_then(Value::as_u64)
        .ok_or_else(|| std::io::Error::other("warm batch reports no hit count"))?;
    // Bit-identity: cached bytes must equal both the cold computation
    // that populated them and a fresh cache-bypassing recomputation.
    let (bypass, _) = run_batch(&mut client, &jobs, "bypass")?;
    let bypass_bytes = batch_results(&bypass)?;
    for (i, ((c, w), b)) in cold_bytes
        .iter()
        .zip(&warm_bytes)
        .zip(&bypass_bytes)
        .enumerate()
    {
        if c != w || w != b {
            return Err(std::io::Error::other(format!(
                "job {i}: cached result bytes differ from recomputed bytes"
            )));
        }
    }
    Ok(ServeBenchResult {
        jobs: jobs.len(),
        cold_wall,
        warm_wall,
        hits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_rejects_bad_params_instead_of_panicking() {
        let bad = [
            r#"{"exp":"fig5_gauss","params":{"n":4}}"#,
            r#"{"exp":"fig5_gauss","params":{"n":9999}}"#,
            r#"{"exp":"fig5_gauss","params":{"ps":[]}}"#,
            r#"{"exp":"fig5_gauss","params":{"ps":[300]}}"#,
            r#"{"exp":"tab1_memory","params":{"quick":3}}"#,
            r#"{"exp":"nope"}"#,
        ];
        for b in bad {
            let spec = JobSpec::from_value(&json::parse(b).unwrap()).unwrap();
            assert!(Registry.run(&spec).is_err(), "{b}");
        }
    }

    #[test]
    fn result_bytes_are_canonical_single_line_json() {
        let spec = JobSpec::from_value(
            &json::parse(r#"{"exp":"fig5_gauss","params":{"ps":[4,8],"n":12},"seed":3}"#).unwrap(),
        )
        .unwrap();
        let bytes = Registry.run(&spec).unwrap();
        let s = String::from_utf8(bytes).unwrap();
        assert!(!s.contains('\n'));
        let v = json::parse(&s).unwrap();
        assert_eq!(v.dump(), s, "bytes are already the canonical dump");
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("bfly-farm-result/1")
        );
        assert_eq!(
            v.get("engine_version").and_then(Value::as_u64),
            Some(bfly_sim::ENGINE_VERSION as u64)
        );
        assert!(v.get("table").and_then(|t| t.get("rows")).is_some());
        assert!(v.get("run").and_then(|r| r.get("events")).is_some());
        assert!(v.get("probe").unwrap().is_null());
    }

    #[test]
    fn pdes_job_bytes_and_key_are_hosts_independent() {
        let parse_spec = |s: &str| JobSpec::from_value(&json::parse(s).unwrap()).unwrap();
        let serial = parse_spec(r#"{"exp":"tab22_pdes","params":{"quick":true},"seed":7}"#);
        let par = parse_spec(r#"{"exp":"tab22_pdes","params":{"quick":true},"seed":7,"hosts":4}"#);
        assert_eq!(
            serial.key(bfly_sim::ENGINE_VERSION),
            par.key(bfly_sim::ENGINE_VERSION),
            "hosts must not enter the cache identity"
        );
        let a = Registry.run(&serial).unwrap();
        let b = Registry.run(&par).unwrap();
        assert_eq!(a, b, "tab22_pdes result bytes must be hosts-independent");
        let s = String::from_utf8(a).unwrap();
        assert!(
            !s.contains("hosts"),
            "hosts must not leak into result bytes"
        );
    }

    #[test]
    fn checkpointed_run_is_bit_identical_and_reports_resume() {
        struct MemCkpt {
            bytes: Option<Vec<u8>>,
            saves: u64,
            resumed: u64,
        }
        impl bfly_farmd::Checkpointer for MemCkpt {
            fn load(&mut self) -> Option<Vec<u8>> {
                self.bytes.clone()
            }
            fn save(&mut self, b: &[u8]) {
                self.bytes = Some(b.to_vec());
                self.saves += 1;
            }
            fn resumed(&mut self, units: u64) {
                self.resumed += units;
            }
        }
        let spec = JobSpec::from_value(
            &json::parse(r#"{"exp":"fig5_gauss","params":{"n":12,"ps":[4,8]},"seed":3}"#).unwrap(),
        )
        .unwrap();
        let plain = Registry.run(&spec).unwrap();
        let mut cold = MemCkpt {
            bytes: None,
            saves: 0,
            resumed: 0,
        };
        let cold_bytes = Registry.run_checkpointed(&spec, &mut cold).unwrap();
        assert_eq!(plain, cold_bytes, "checkpointing must not change bytes");
        assert_eq!(cold.saves, 2, "every completed point is persisted");
        assert_eq!(cold.resumed, 0);

        // A rerun over the surviving checkpoint resumes every point and
        // still produces the same bytes.
        let mut warm = MemCkpt {
            bytes: cold.bytes.clone(),
            saves: 0,
            resumed: 0,
        };
        let warm_bytes = Registry.run_checkpointed(&spec, &mut warm).unwrap();
        assert_eq!(plain, warm_bytes, "resumed run must be bit-identical");
        assert_eq!(warm.resumed, 2, "both points came from the checkpoint");

        // Probed jobs never touch the transport (the probe summary
        // aggregates across the whole sweep).
        let mut probed_spec = spec.clone();
        probed_spec.probe = true;
        let mut probed = MemCkpt {
            bytes: None,
            saves: 0,
            resumed: 0,
        };
        let _ = Registry
            .run_checkpointed(&probed_spec, &mut probed)
            .unwrap();
        assert_eq!(probed.saves, 0);
        assert_eq!(probed.resumed, 0);
    }

    #[test]
    fn backoff_is_bounded_jittered_and_seed_deterministic() {
        let delays = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::seeded(seed, 6, 10, 400);
            let mut out = Vec::new();
            while !b.exhausted() {
                out.push(b.next_delay());
            }
            out
        };
        let a = delays(7);
        assert_eq!(a.len(), 6, "budget is bounded");
        assert_eq!(a, delays(7), "same seed, same schedule");
        assert_ne!(a, delays(8), "different seeds decorrelate");
        for (i, d) in a.iter().enumerate() {
            let ceil = (10u64 << i).min(400);
            assert!(
                d.as_millis() as u64 >= (ceil / 2).max(1) && d.as_millis() as u64 <= ceil,
                "delay {i} = {d:?} outside [{}..{ceil}]ms",
                ceil / 2
            );
        }
        // The exponential actually grows until the cap bites.
        assert!(a[3] > a[0], "later delays dominate earlier ones");

        // Overflow safety: an absurd attempt count can't shift past 64.
        let mut b = Backoff::seeded(1, u32::MAX, u64::MAX / 2, u64::MAX);
        for _ in 0..40 {
            let _ = b.next_delay();
        }
    }

    #[test]
    fn transient_errors_are_only_backpressure() {
        assert!(transient_client_error(
            "queue full (4096 jobs); backpressure: retry later"
        ));
        assert!(transient_client_error("busy: 4096 connections, try again"));
        assert!(!transient_client_error("draining: no new jobs accepted"));
        assert!(!transient_client_error("unknown experiment `nope`"));
    }

    #[test]
    fn batch_line_splices_cache_mode() {
        let line = batch_line(&[r#"{"exp":"e","seed":1}"#.into()], "refresh");
        let v = json::parse(&line).unwrap();
        let job = &v.get("jobs").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(job.get("cache").and_then(Value::as_str), Some("refresh"));
        assert_eq!(job.get("seed").and_then(Value::as_u64), Some(1));
    }
}
