//! Machine-readable performance reports (`BENCH_sim.json`).
//!
//! Every PR from this one onward commits a `BENCH_sim.json` at the repo
//! root holding (a) engine micro-benchmark throughput (task polls per
//! host second, from [`bfly_sim::exec::RunStats`]) and (b) wall-clock for
//! a representative experiment sweep — so the perf trajectory of the
//! simulator itself is tracked, not just the simulated numbers it
//! produces. The format is hand-rolled JSON (dependency policy,
//! DESIGN.md §7) with one flat headline field, `engine_events_per_sec`.
//! The CI gates read a report back through `bfly-json` and address every
//! number by its dotted path ([`Value::at`]), so a gate names exactly the
//! field it checks.

use std::fmt::Write as _;
use std::time::Duration;

use bfly_json::{push_json_str, Value};
use bfly_sim::Sim;

use crate::Table;

/// One named engine micro-benchmark result.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Workload name (`timer_churn`, `spawn_join`, ...).
    pub name: String,
    /// Task polls performed (from `RunStats::events`).
    pub events: u64,
    /// Host wall-clock spent inside `Sim::run`.
    pub wall: Duration,
}

impl Metric {
    /// Polls per host second for this workload.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

/// Engine counters accumulated across every simulation an experiment ran.
///
/// Used by the `--stats` flag of the experiment binaries: each sweep point
/// contributes its [`RunStats`](bfly_sim::exec::RunStats), and the summary
/// line reports aggregate polls per *CPU*-second (wall times are summed
/// across worker threads, so under `parallel_sweep` this is per-core
/// engine throughput, not end-to-end sweep wall-clock).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Total task polls across all runs.
    pub events: u64,
    /// Total tasks spawned across all runs.
    pub tasks: u64,
    /// Total simulations accumulated.
    pub sims: u64,
    /// Summed host wall time spent inside `Sim::run`.
    pub wall: Duration,
}

impl EngineStats {
    /// Fold one run's counters in.
    pub fn add(&mut self, r: &bfly_sim::exec::RunStats) {
        self.events += r.events;
        self.tasks += r.tasks;
        self.sims += 1;
        self.wall += r.wall;
    }

    /// Aggregate engine throughput: polls per summed host CPU-second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }

    /// The `--stats` summary line the experiment binaries print.
    pub fn summary(&self) -> String {
        format!(
            "engine: {} polls / {} tasks across {} sims in {:.1} ms CPU = {:.2} Mpolls/s",
            self.events,
            self.tasks,
            self.sims,
            self.wall.as_secs_f64() * 1e3,
            self.events_per_sec() / 1e6
        )
    }
}

/// Wall-clock measurement of one experiment sweep.
#[derive(Debug, Clone)]
pub struct SweepMeasure {
    /// Sweep name (e.g. `fig5_gauss_quick`).
    pub name: String,
    /// Number of sweep points.
    pub points: usize,
    /// Worker threads the sweep driver used.
    pub threads: usize,
    /// End-to-end host wall-clock for the sweep.
    pub wall: Duration,
    /// Summed task polls (`RunStats::events`) of every point. A pure
    /// function of the engine and the sweep, so it is gated exactly.
    pub events: u64,
}

/// The full report written to `BENCH_sim.json`.
#[derive(Debug, Clone, Default)]
pub struct PerfReport {
    /// Engine micro-benchmarks.
    pub metrics: Vec<Metric>,
    /// Experiment-sweep wall-clock measurements.
    pub sweeps: Vec<SweepMeasure>,
    /// Result tables embedded for provenance (via [`Table::to_json`]).
    pub tables: Vec<String>,
    /// Cold/warm serving benchmark (`perf_report --serve-bench`); absent
    /// when the serving layer wasn't exercised.
    pub serve: Option<crate::farm::ServeBenchResult>,
    /// Sustained serving-throughput benchmark (the direct leg, plus the
    /// open-loop router leg when run); absent when not exercised.
    pub sustained: Option<crate::sustained::SustainedResult>,
    /// Sharded-cluster latency benchmark (`perf_report --cluster-bench`);
    /// absent when the router wasn't exercised.
    pub cluster: Option<crate::cluster::ClusterBenchResult>,
    /// Parallel-in-time engine benchmark (`perf_report --pdes-bench`);
    /// absent when the PDES engine wasn't exercised.
    pub pdes: Option<PdesBench>,
}

/// Host-parallel speedup of one pinned PDES point (FIG5 N=384 on a
/// 512-node machine): the same simulation run serially and on `hosts`
/// worker threads, bit-identity asserted along the way.
#[derive(Debug, Clone)]
pub struct PdesSpeedup {
    /// Host worker threads of the parallel leg.
    pub hosts: usize,
    /// Serial (`hosts = 1`) wall-clock.
    pub serial: Duration,
    /// Parallel wall-clock on `hosts` workers.
    pub parallel: Duration,
}

impl PdesSpeedup {
    /// Serial-over-parallel wall ratio.
    pub fn speedup(&self) -> f64 {
        let p = self.parallel.as_secs_f64();
        if p > 0.0 {
            self.serial.as_secs_f64() / p
        } else {
            0.0
        }
    }
}

/// The `pdes` report section: raw event-loop throughput of the
/// parallel-in-time engine (PHOLD workloads — every event is one heap
/// pop, handler, RNG draw, and push, so events/s measures the engine,
/// not application arithmetic), the serial wall time of the pinned T22
/// gauss point, plus the single-point host-parallel speedup when the
/// host has cores to measure it on. PHOLD events carry no payload, so
/// PHOLD cannot see what a model's bulk payloads cost the host (pivot
/// rows are 385 words); the gauss point can.
#[derive(Debug, Clone)]
pub struct PdesBench {
    /// Per-workload serial-engine throughput.
    pub metrics: Vec<Metric>,
    /// Serial wall time of the pinned T22 gauss point (P=256, N=384 on
    /// a 512-node machine): the median of five timed runs, measured on
    /// every host.
    pub gauss_serial: Duration,
    /// Host-parallel speedup point; `None` on single-core hosts (the
    /// measurement would be noise, not signal).
    pub speedup: Option<PdesSpeedup>,
    /// Every workload re-run on 2 host workers produced bit-identical
    /// state digests (the determinism contract, asserted at bench time).
    pub bit_identical: bool,
}

impl PdesBench {
    /// Geometric mean of per-workload events/sec — same aggregation as
    /// [`PerfReport::headline_events_per_sec`], same reasoning.
    pub fn geomean_events_per_sec(&self) -> f64 {
        let rates: Vec<f64> = self
            .metrics
            .iter()
            .map(Metric::events_per_sec)
            .filter(|r| *r > 0.0)
            .collect();
        if rates.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = rates.iter().map(|r| r.ln()).sum();
        (log_sum / rates.len() as f64).exp()
    }
}

impl PerfReport {
    /// Headline number: the geometric mean of per-workload events/sec.
    /// A single workload can't mask a regression in another the way an
    /// arithmetic mean (dominated by the cheapest-event workload) would.
    pub fn headline_events_per_sec(&self) -> f64 {
        let rates: Vec<f64> = self
            .metrics
            .iter()
            .map(Metric::events_per_sec)
            .filter(|r| *r > 0.0)
            .collect();
        if rates.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = rates.iter().map(|r| r.ln()).sum();
        (log_sum / rates.len() as f64).exp()
    }

    /// Attach a rendered [`Table`] for provenance.
    pub fn push_table(&mut self, t: &Table) {
        self.tables.push(t.to_json());
    }

    /// Serialize. `engine_events_per_sec` is the first, flat field: the
    /// headline a reader sees before anything else.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\n  \"schema\": \"bfly-bench-report/1\",\n  \
             \"engine_events_per_sec\": {:.0},\n  \"microbench\": [",
            self.headline_events_per_sec()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            push_json_str(&mut out, &m.name);
            let _ = write!(
                out,
                ", \"events\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}}}",
                m.events,
                m.wall.as_secs_f64() * 1e3,
                m.events_per_sec()
            );
        }
        out.push_str("\n  ],\n  \"sweeps\": [");
        for (i, s) in self.sweeps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            push_json_str(&mut out, &s.name);
            let _ = write!(
                out,
                ", \"points\": {}, \"threads\": {}, \"wall_ms\": {:.1}, \"events\": {}}}",
                s.points,
                s.threads,
                s.wall.as_secs_f64() * 1e3,
                s.events
            );
        }
        out.push_str("\n  ],\n  \"serve\": ");
        match &self.serve {
            None => out.push_str("null"),
            Some(s) => {
                let _ = write!(
                    out,
                    "{{\"jobs\": {}, \"cold_wall_ms\": {:.1}, \"warm_wall_ms\": {:.3}, \
                     \"hits\": {}, \"hit_rate\": {:.3}, \"speedup\": {:.1}}}",
                    s.jobs,
                    s.cold_wall.as_secs_f64() * 1e3,
                    s.warm_wall.as_secs_f64() * 1e3,
                    s.hits,
                    s.hit_rate(),
                    // Clamp: an unmeasurably fast warm leg must not print
                    // `inf` (invalid JSON).
                    s.speedup().min(1e6)
                );
            }
        }
        out.push_str(",\n  \"serve_sustained\": ");
        match &self.sustained {
            None => out.push_str("null"),
            Some(s) => {
                let direct = |out: &mut String, d: &crate::sustained::DirectLeg| {
                    let _ = write!(
                        out,
                        "{{\"requests\": {}, \"wall_ms\": {:.1}, \"rps\": {:.0}, \
                         \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}}",
                        d.requests,
                        d.wall.as_secs_f64() * 1e3,
                        d.rps(),
                        d.lat.p50.as_micros(),
                        d.lat.p99.as_micros(),
                        d.lat.p999.as_micros()
                    );
                };
                let _ = write!(
                    out,
                    "{{\"conns\": {}, \"window\": {}, \"reactor\": ",
                    s.reactor.conns, s.reactor.window
                );
                direct(&mut out, &s.reactor);
                out.push_str(", \"router\": ");
                match &s.router {
                    None => out.push_str("null"),
                    Some(r) => {
                        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
                        let _ = write!(
                            out,
                            "{{\"shards\": {}, \"conns\": {}, \"offered_rps\": {}, \
                             \"completed\": {}, \"rps\": {:.0}, \"refused\": {}, \
                             \"warm_p50_ms\": {:.3}, \"warm_p99_ms\": {:.3}, \
                             \"warm_p999_ms\": {:.3}, \"cold_p50_ms\": {:.3}, \
                             \"cold_p99_ms\": {:.3}, \"cold_p999_ms\": {:.3}, \
                             \"rerouted\": {}, \"lost\": {}}}",
                            r.shards,
                            r.conns,
                            r.offered_rps,
                            r.completed,
                            r.rps(),
                            r.refused,
                            ms(r.warm.p50),
                            ms(r.warm.p99),
                            ms(r.warm.p999),
                            ms(r.cold.p50),
                            ms(r.cold.p99),
                            ms(r.cold.p999),
                            r.rerouted,
                            r.lost
                        );
                    }
                }
                out.push('}');
            }
        }
        out.push_str(",\n  \"cluster\": ");
        match &self.cluster {
            None => out.push_str("null"),
            Some(c) => {
                let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
                let _ = write!(
                    out,
                    "{{\"shards\": {}, \"replicas\": {}, \"jobs\": {}, \
                     \"cold_p50_ms\": {:.1}, \"cold_p99_ms\": {:.1}, \"cold_p999_ms\": {:.1}, \
                     \"warm_p50_ms\": {:.3}, \"warm_p99_ms\": {:.3}, \"warm_p999_ms\": {:.3}, \
                     \"failover_p50_ms\": {:.3}, \"failover_p99_ms\": {:.3}, \
                     \"failover_p999_ms\": {:.3}, \
                     \"rerouted\": {}, \"lost\": {}}}",
                    c.shards,
                    c.replicas,
                    c.jobs,
                    ms(c.cold.p50),
                    ms(c.cold.p99),
                    ms(c.cold.p999),
                    ms(c.warm.p50),
                    ms(c.warm.p99),
                    ms(c.warm.p999),
                    ms(c.failover.p50),
                    ms(c.failover.p99),
                    ms(c.failover.p999),
                    c.rerouted,
                    c.lost
                );
            }
        }
        out.push_str(",\n  \"pdes\": ");
        match &self.pdes {
            None => out.push_str("null"),
            Some(p) => {
                let _ = write!(
                    out,
                    "{{\"events_per_sec_geomean\": {:.0}, \"bit_identical\": {}, \
                     \"gauss_serial_ms\": {:.1}, \"microbench\": [",
                    p.geomean_events_per_sec(),
                    p.bit_identical,
                    p.gauss_serial.as_secs_f64() * 1e3
                );
                for (i, m) in p.metrics.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str("{\"name\": ");
                    push_json_str(&mut out, &m.name);
                    let _ = write!(
                        out,
                        ", \"events\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}}}",
                        m.events,
                        m.wall.as_secs_f64() * 1e3,
                        m.events_per_sec()
                    );
                }
                out.push_str("], \"speedup\": ");
                match &p.speedup {
                    None => out.push_str("null"),
                    Some(s) => {
                        let _ = write!(
                            out,
                            "{{\"hosts\": {}, \"serial_wall_ms\": {:.1}, \
                             \"parallel_wall_ms\": {:.1}, \"speedup\": {:.2}}}",
                            s.hosts,
                            s.serial.as_secs_f64() * 1e3,
                            s.parallel.as_secs_f64() * 1e3,
                            s.speedup().min(1e6)
                        );
                    }
                }
                out.push('}');
            }
        }
        out.push_str(",\n  \"tables\": [");
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(t);
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Parse a previously written report for the gates below.
fn read_report(json: &str, what: &str) -> Result<Value, String> {
    bfly_json::parse(json).map_err(|(at, msg)| format!("{what} report at byte {at}: {msg}"))
}

/// The sweep named `name` in a parsed report.
fn sweep<'a>(report: &'a Value, name: &str) -> Option<&'a Value> {
    report
        .at("sweeps")?
        .as_arr()?
        .iter()
        .find(|s| s.at("name").and_then(Value::as_str) == Some(name))
}

/// The `wall_ms` of the sweep named `name` in a parsed report.
pub fn sweep_wall_ms(report: &Value, name: &str) -> Option<f64> {
    sweep(report, name)?.at("wall_ms")?.as_f64()
}

/// The summed task polls (`events`) of the sweep named `name` in a
/// parsed report.
pub fn sweep_events(report: &Value, name: &str) -> Option<u64> {
    sweep(report, name)?.at("events")?.as_u64()
}

/// CI regression gate: `Ok` if `current` is within `tolerance` (e.g.
/// `0.20` = may be up to 20 % slower) of the baseline report's headline.
/// The error string carries both numbers for the CI log.
pub fn check_headline(baseline_json: &str, current: f64, tolerance: f64) -> Result<(), String> {
    let base = read_report(baseline_json, "baseline")?
        .at("engine_events_per_sec")
        .and_then(Value::as_f64)
        .ok_or_else(|| "baseline has no engine_events_per_sec field".to_string())?;
    let floor = base * (1.0 - tolerance);
    if current < floor {
        Err(format!(
            "engine throughput regressed: {current:.0} events/sec vs baseline {base:.0} \
             (floor {floor:.0} at {:.0}% tolerance)",
            tolerance * 100.0
        ))
    } else {
        Ok(())
    }
}

/// CI probe-overhead gate: `Ok` if `current_ms` for sweep `name` is within
/// `tolerance` (e.g. `0.02` = may be up to 2 % *slower*) of the baseline
/// report's wall-clock for the same sweep. Compare a best-of-k current
/// wall against a single-run baseline so host noise biases toward passing
/// while a real slowdown (the disabled-probe branches costing more than
/// the budget) still trips the gate.
pub fn check_sweep(
    baseline_json: &str,
    name: &str,
    current_ms: f64,
    tolerance: f64,
) -> Result<(), String> {
    let base = sweep_wall_ms(&read_report(baseline_json, "baseline")?, name)
        .ok_or_else(|| format!("baseline has no sweep named {name}"))?;
    let ceiling = base * (1.0 + tolerance);
    if current_ms > ceiling {
        Err(format!(
            "sweep {name} slowed down: {current_ms:.1} ms vs baseline {base:.1} ms \
             (ceiling {ceiling:.1} at {:.0}% tolerance)",
            tolerance * 100.0
        ))
    } else {
        Ok(())
    }
}

/// CI poll-count gate: `Ok(true)` if sweep `name` made no more task polls
/// than in the baseline report, `Ok(false)` if the baseline predates the
/// count. No tolerance: the count is deterministic, so host noise cannot
/// hide a change that adds polls per simulated operation.
pub fn check_sweep_events(baseline_json: &str, name: &str, current: u64) -> Result<bool, String> {
    let base = read_report(baseline_json, "baseline")?;
    sweep(&base, name).ok_or_else(|| format!("baseline has no sweep named {name}"))?;
    match sweep_events(&base, name) {
        None => Ok(false),
        Some(b) if current > b => Err(format!(
            "sweep {name} polls more: {current} task polls vs baseline {b}"
        )),
        Some(_) => Ok(true),
    }
}

/// Which way a metric regresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput): fail when current < floor.
    Higher,
    /// Smaller is better (wall-clock, latency, loss): fail when current > ceiling.
    Lower,
}

/// The per-field trend checklist `perf_report --check-sweep` walks: every
/// leg of every schema-pinned section, by path, with its tolerance
/// (throughput floors tight, latency ceilings loose — CI runners are noisy
/// in the tails). Loss and refusal counts are checked exactly.
pub const TREND_CHECKS: &[(&str, f64, Direction)] = &[
    ("serve.cold_wall_ms", 0.50, Direction::Lower),
    ("serve.warm_wall_ms", 0.50, Direction::Lower),
    ("serve_sustained.reactor.rps", 0.30, Direction::Higher),
    ("serve_sustained.reactor.p99_us", 1.00, Direction::Lower),
    ("serve_sustained.router.rps", 0.30, Direction::Higher),
    ("serve_sustained.router.refused", 0.00, Direction::Lower),
    ("serve_sustained.router.lost", 0.00, Direction::Lower),
    ("cluster.warm_p99_ms", 1.00, Direction::Lower),
    ("cluster.lost", 0.00, Direction::Lower),
    ("pdes.events_per_sec_geomean", 0.25, Direction::Higher),
    ("pdes.gauss_serial_ms", 0.50, Direction::Lower),
    ("pdes.speedup.speedup", 0.30, Direction::Higher),
];

/// One trend gate on the number at `path`: `Ok(true)` = checked and
/// passed, `Ok(false)` = skipped (the baseline predates the field — the
/// next committed report will pick it up), `Err` = regression, with both
/// numbers in the message. A `null` anywhere on the path reads as absent.
pub fn check_field(
    baseline: &Value,
    current: &Value,
    path: &str,
    tolerance: f64,
    dir: Direction,
) -> Result<bool, String> {
    let Some(base) = baseline.at(path).and_then(Value::as_f64) else {
        return Ok(false);
    };
    let cur = current
        .at(path)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("current report lost {path}, which the baseline has"))?;
    let ok = match dir {
        Direction::Higher => cur >= base * (1.0 - tolerance),
        Direction::Lower => cur <= base * (1.0 + tolerance),
    };
    if ok {
        Ok(true)
    } else {
        Err(format!(
            "{path} regressed: {cur:.1} vs baseline {base:.1} ({:.0}% tolerance, {})",
            tolerance * 100.0,
            match dir {
                Direction::Higher => "higher is better",
                Direction::Lower => "lower is better",
            }
        ))
    }
}

/// Walk [`TREND_CHECKS`] over two report texts. Returns one log line per
/// check and whether any failed. A field this run did not produce is
/// skipped, unless `require` is set and the baseline has it — then the
/// gate fails, so no section silently falls out of the trend coverage.
pub fn trend_gate(baseline_json: &str, current_json: &str, require: bool) -> (Vec<String>, bool) {
    let (base, cur) = match (
        read_report(baseline_json, "baseline"),
        read_report(current_json, "current"),
    ) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => return (vec![format!("trend gate: FAIL — {e}")], true),
    };
    let mut lines = Vec::new();
    let mut failed = false;
    for &(path, tol, dir) in TREND_CHECKS {
        let line = if cur.at(path).and_then(Value::as_f64).is_none() {
            if require && base.at(path).and_then(Value::as_f64).is_some() {
                failed = true;
                format!(
                    "trend gate: FAIL — {path} in baseline but not produced by this run \
                     (pass the matching --*-bench flag)"
                )
            } else {
                format!("trend gate: SKIP {path} (not run this invocation)")
            }
        } else {
            match check_field(&base, &cur, path, tol, dir) {
                Ok(true) => format!("trend gate: OK {path} (within {:.0}%)", tol * 100.0),
                Ok(false) => format!(
                    "trend gate: SKIP {path} (baseline predates it; \
                     the next committed report picks it up)"
                ),
                Err(msg) => {
                    failed = true;
                    format!("trend gate: FAIL — {msg}")
                }
            }
        };
        lines.push(line);
    }
    (lines, failed)
}

/// Timed serial runs of the pinned T22 gauss point. The report keeps
/// their median: one run on a shared host measures a single stall as
/// often as the engine.
const GAUSS_SERIAL_RUNS: usize = 5;

/// Run the PDES engine benchmark: PHOLD throughput workloads (serial
/// engine), a 2-worker bit-identity pass over each, the median serial
/// wall time of the pinned T22 gauss point, and — when the host has at
/// least two cores — that point's host-parallel speedup on
/// `min(hosts, available cores)` workers.
pub fn pdes_bench(hosts: usize) -> PdesBench {
    use bfly_apps::phold::phold_sim;

    // (name, nodes, jobs/node, hops): ~1.2M events each, shaped to
    // stress different engine paths — many cold heaps, one hot heap,
    // and a wide fan of in-flight events.
    let shapes: [(&str, u32, u32, u32); 3] = [
        ("phold_wide_1k", 1024, 12, 100),
        ("phold_dense_64", 64, 64, 300),
        ("phold_deep_256", 256, 16, 300),
    ];
    let mut metrics = Vec::new();
    let mut bit_identical = true;
    for (name, nodes, jobs, hops) in shapes {
        let build = || phold_sim(11, nodes, jobs, hops, 4_000);
        let mut warm = build();
        warm.run();
        let mut sim = build();
        let t = std::time::Instant::now();
        let stats = sim.run();
        let wall = t.elapsed();
        let mut par = build();
        par.run_parallel(2);
        bit_identical &= par.state_digest() == sim.state_digest();
        metrics.push(Metric {
            name: name.to_string(),
            events: stats.events,
            wall,
        });
    }

    let point = || bfly_apps::pdes_gauss::pdes_gauss_sim(256, 384, 7, 512);
    let mut warm = point();
    warm.run();
    let mut walls = Vec::with_capacity(GAUSS_SERIAL_RUNS);
    let serial = loop {
        let mut sim = point();
        let t = std::time::Instant::now();
        sim.run();
        walls.push(t.elapsed());
        if walls.len() == GAUSS_SERIAL_RUNS {
            break sim;
        }
    };
    walls.sort();
    let gauss_serial = walls[GAUSS_SERIAL_RUNS / 2];

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = if cores >= 2 && hosts >= 2 {
        let hosts = hosts.min(cores);
        let mut par = point();
        let t = std::time::Instant::now();
        par.run_parallel(hosts);
        let parallel_wall = t.elapsed();
        bit_identical &= par.state_digest() == serial.state_digest();
        Some(PdesSpeedup {
            hosts,
            serial: gauss_serial,
            parallel: parallel_wall,
        })
    } else {
        None
    };
    PdesBench {
        metrics,
        gauss_serial,
        speedup,
        bit_identical,
    }
}

/// Run the standard engine micro-benchmarks. Deterministic workloads, so
/// the only run-to-run variance is host timing. Sized to finish in well
/// under a second each in release builds.
pub fn engine_microbench() -> Vec<Metric> {
    vec![
        metric("timer_churn", timer_churn),
        metric("spawn_join", spawn_join),
        metric("yield_storm", yield_storm),
        metric("timeout_cancel", timeout_cancel),
    ]
}

fn metric(name: &str, f: fn() -> bfly_sim::exec::RunStats) -> Metric {
    // One throwaway run to warm caches/allocator, then the measured run.
    let _ = f();
    let stats = f();
    Metric {
        name: name.to_string(),
        events: stats.events,
        wall: stats.wall,
    }
}

/// Many tasks sleeping staggered durations: exercises the timer wheel
/// (near horizon), the overflow heap (every 16th sleep is multi-ms), and
/// batched same-instant pops (collision-heavy durations).
fn timer_churn() -> bfly_sim::exec::RunStats {
    let sim = Sim::with_seed(1);
    for t in 0..256u64 {
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..1_500u64 {
                let d = if i % 16 == 0 {
                    5_000_000 + t * 131 // far future: overflow heap
                } else {
                    (t * 97 + i * 53) % 4_096 + 1 // near: wheel
                };
                s.sleep(d).await;
            }
        });
    }
    sim.run()
}

/// Waves of short-lived tasks joined by a parent: slab alloc/retire and
/// join-handle wakes dominate.
fn spawn_join() -> bfly_sim::exec::RunStats {
    let sim = Sim::with_seed(2);
    let root = sim.clone();
    sim.spawn(async move {
        for wave in 0..2_000u64 {
            let hs: Vec<_> = (0..32u64)
                .map(|i| {
                    let s = root.clone();
                    root.spawn(async move { s.sleep(wave % 7 + i % 5 + 1).await })
                })
                .collect();
            bfly_sim::exec::join_all(hs).await;
        }
    });
    sim.run()
}

/// Pure ready-queue churn: tasks that only yield. Measures the waker
/// vtable + queue push/pop path with no timers involved.
fn yield_storm() -> bfly_sim::exec::RunStats {
    let sim = Sim::with_seed(3);
    for _ in 0..8 {
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..100_000u32 {
                s.yield_now().await;
            }
        });
    }
    sim.run()
}

/// Timeouts that usually expire: every lost race drops a `Delay`
/// mid-flight, exercising the lazy-cancellation side list.
fn timeout_cancel() -> bfly_sim::exec::RunStats {
    let sim = Sim::with_seed(4);
    for t in 0..64u64 {
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..2_000u64 {
                let dur = (t + i) % 900 + 100;
                let _ = s.timeout(dur / 2, s.sleep(dur)).await;
            }
        });
    }
    sim.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_headline() {
        let report = PerfReport {
            metrics: vec![
                Metric {
                    name: "a".into(),
                    events: 1_000_000,
                    wall: Duration::from_millis(100),
                },
                Metric {
                    name: "b".into(),
                    events: 4_000_000,
                    wall: Duration::from_millis(100),
                },
            ],
            sweeps: vec![SweepMeasure {
                name: "s".into(),
                points: 8,
                threads: 4,
                wall: Duration::from_secs(1),
                events: 1_000,
            }],
            tables: Vec::new(),
            serve: None,
            sustained: None,
            cluster: None,
            pdes: None,
        };
        // geomean(1e7, 4e7) = 2e7
        assert!((report.headline_events_per_sec() - 2e7).abs() < 1e3);
        let json = report.to_json();
        let parsed = bfly_json::parse(&json)
            .unwrap()
            .at("engine_events_per_sec")
            .and_then(Value::as_f64)
            .unwrap();
        assert!((parsed - 2e7).abs() < 1.0);
        assert!(check_headline(&json, parsed, 0.2).is_ok());
        assert!(check_headline(&json, parsed * 0.5, 0.2).is_err());
    }

    #[test]
    fn sweep_wall_round_trips_and_gates() {
        let report = PerfReport {
            metrics: Vec::new(),
            sweeps: vec![
                SweepMeasure {
                    name: "fig5_gauss_quick".into(),
                    points: 4,
                    threads: 4,
                    wall: Duration::from_millis(800),
                    events: 4_000_000,
                },
                SweepMeasure {
                    name: "fig5_gauss_full_n384".into(),
                    points: 8,
                    threads: 8,
                    wall: Duration::from_secs(120),
                    events: 90_000_000,
                },
            ],
            tables: Vec::new(),
            serve: None,
            sustained: None,
            cluster: None,
            pdes: None,
        };
        let json = report.to_json();
        let v = bfly_json::parse(&json).unwrap();
        let quick = sweep_wall_ms(&v, "fig5_gauss_quick").unwrap();
        assert!((quick - 800.0).abs() < 0.2);
        let full = sweep_wall_ms(&v, "fig5_gauss_full_n384").unwrap();
        assert!((full - 120_000.0).abs() < 1.0);
        assert!(sweep_wall_ms(&v, "nope").is_none());
        assert!(check_sweep(&json, "fig5_gauss_quick", 810.0, 0.02).is_ok());
        assert!(check_sweep(&json, "fig5_gauss_quick", 900.0, 0.02).is_err());
        assert!(check_sweep(&json, "missing", 1.0, 0.02).is_err());
        assert_eq!(sweep_events(&v, "fig5_gauss_quick"), Some(4_000_000));
        assert_eq!(sweep_events(&v, "fig5_gauss_full_n384"), Some(90_000_000));
    }

    /// The poll-count gate has no tolerance: one poll over the baseline
    /// fails, fewer or equal passes, and a baseline that predates the
    /// count is skipped rather than failed.
    #[test]
    fn sweep_events_gate_is_exact() {
        let base = PerfReport {
            sweeps: vec![SweepMeasure {
                name: "fig5_gauss_quick".into(),
                points: 4,
                threads: 1,
                wall: Duration::from_millis(500),
                events: 1_000_000,
            }],
            ..PerfReport::default()
        }
        .to_json();
        assert_eq!(
            check_sweep_events(&base, "fig5_gauss_quick", 1_000_000),
            Ok(true)
        );
        assert_eq!(
            check_sweep_events(&base, "fig5_gauss_quick", 400_000),
            Ok(true)
        );
        let err = check_sweep_events(&base, "fig5_gauss_quick", 1_000_001).unwrap_err();
        assert!(err.contains("1000001") && err.contains("1000000"), "{err}");
        assert!(check_sweep_events(&base, "missing", 1).is_err());

        let old = r#"{"sweeps": [{"name": "fig5_gauss_quick", "points": 4, "threads": 1, "wall_ms": 494.8}]}"#;
        assert_eq!(
            check_sweep_events(old, "fig5_gauss_quick", u64::MAX),
            Ok(false)
        );
    }

    #[test]
    fn field_gate_reads_nested_paths_and_null_slots() {
        let parse = |s: &str| bfly_json::parse(s).unwrap();
        let base = parse(
            r#"{"serve": {"cold_wall_ms": 100.0, "warm_wall_ms": 2.0},
            "pdes": {"events_per_sec_geomean": 30000000,
                     "speedup": {"hosts": 8, "speedup": 6.00}}}"#,
        );
        let slower = parse(
            r#"{"serve": {"cold_wall_ms": 200.0},
            "pdes": {"events_per_sec_geomean": 10000000,
                     "speedup": {"hosts": 8, "speedup": 1.00}}}"#,
        );
        let nulled = parse(r#"{"serve": null, "pdes": {"speedup": null}}"#);
        let gate = |b: &Value, c: &Value, path: &str, tol: f64, dir: Direction| {
            check_field(b, c, path, tol, dir)
        };
        // Lower-is-better: 200 vs 100 baseline fails at 50% tolerance.
        assert!(gate(&base, &slower, "serve.cold_wall_ms", 0.5, Direction::Lower).is_err());
        assert_eq!(
            gate(&slower, &base, "serve.cold_wall_ms", 0.5, Direction::Lower),
            Ok(true)
        );
        // Higher-is-better: a 3x throughput drop fails at 25% tolerance,
        // and the nested `speedup.speedup` is the scalar, not the object.
        let geo = "pdes.events_per_sec_geomean";
        assert!(gate(&base, &slower, geo, 0.25, Direction::Higher).is_err());
        assert!(gate(
            &base,
            &slower,
            "pdes.speedup.speedup",
            0.3,
            Direction::Higher
        )
        .is_err());
        assert_eq!(
            gate(&base, &base, "pdes.speedup.speedup", 0.0, Direction::Higher),
            Ok(true)
        );
        // Absent from the baseline (or null there): checked=false.
        assert_eq!(
            gate(&base, &slower, "cluster.lost", 0.0, Direction::Lower),
            Ok(false)
        );
        assert_eq!(
            gate(
                &nulled,
                &base,
                "pdes.speedup.speedup",
                0.3,
                Direction::Higher
            ),
            Ok(false)
        );
        // In the baseline but lost (nulled) from the current report: error.
        assert!(gate(&base, &nulled, "serve.cold_wall_ms", 0.5, Direction::Lower).is_err());
    }

    /// Overwrite the number at `path` (test helper for regressed reports).
    fn set(v: &mut Value, path: &str, to: Value) {
        let mut cur = v;
        for key in path.split('.') {
            let Value::Obj(m) = cur else {
                panic!("{path}: {key} is not inside an object")
            };
            cur = m.get_mut(key).unwrap_or_else(|| panic!("{path}: no {key}"));
        }
        *cur = to;
    }

    const COMMITTED: &str = include_str!("../../../BENCH_sim.json");

    #[test]
    fn committed_report_parses_and_reemits_identically() {
        let v = bfly_json::parse(COMMITTED).expect("committed BENCH_sim.json parses");
        let canon = v.dump();
        assert_eq!(bfly_json::parse(&canon).as_ref(), Ok(&v));
        assert_eq!(bfly_json::parse(&canon).unwrap().dump(), canon);
        // Every gated path but the single-core-null speedup is present.
        for &(path, _, _) in TREND_CHECKS {
            let have = v.at(path).and_then(Value::as_f64).is_some();
            assert_eq!(have, path != "pdes.speedup.speedup", "{path}");
        }
        assert!(check_headline(COMMITTED, 10_934_492.0, 0.0).is_ok());
        assert!(check_sweep(COMMITTED, "fig5_gauss_quick", 243.5, 0.0).is_ok());
        assert_eq!(
            check_sweep_events(COMMITTED, "fig5_gauss_quick", 969_671),
            Ok(true)
        );
    }

    /// The gate must fail on the leg it names: a committed-shaped
    /// baseline whose router leg halves its throughput and refuses one
    /// more request, with the direct leg untouched.
    #[test]
    fn trend_gate_fails_on_a_regressed_router_leg() {
        let (lines, failed) = trend_gate(COMMITTED, COMMITTED, true);
        assert!(!failed, "{lines:#?}");

        let base = bfly_json::parse(COMMITTED).unwrap();
        let mut cur = base.clone();
        let rps = base
            .at("serve_sustained.router.rps")
            .and_then(Value::as_f64)
            .unwrap();
        let refused = base
            .at("serve_sustained.router.refused")
            .and_then(Value::as_i64)
            .unwrap();
        set(
            &mut cur,
            "serve_sustained.router.rps",
            Value::Num(rps / 2.0),
        );
        set(
            &mut cur,
            "serve_sustained.router.refused",
            Value::Int(refused + 1),
        );
        let (lines, failed) = trend_gate(COMMITTED, &cur.dump(), true);
        assert!(failed, "{lines:#?}");
        let fails: Vec<&String> = lines.iter().filter(|l| l.contains("FAIL")).collect();
        assert_eq!(fails.len(), 2, "{fails:#?}");
        assert!(
            fails[0].contains("serve_sustained.router.rps"),
            "{}",
            fails[0]
        );
        assert!(
            fails[1].contains("serve_sustained.router.refused"),
            "{}",
            fails[1]
        );

        // One lost job anywhere fails too: loss is gated exactly.
        let mut lossy = base.clone();
        set(&mut lossy, "cluster.lost", Value::Int(1));
        assert!(trend_gate(COMMITTED, &lossy.dump(), true).1);

        // A section this run did not produce: skip, or fail under require.
        let mut partial = base;
        set(&mut partial, "serve_sustained", Value::Null);
        assert!(!trend_gate(COMMITTED, &partial.dump(), false).1);
        assert!(trend_gate(COMMITTED, &partial.dump(), true).1);
    }

    #[test]
    fn microbench_workloads_are_deterministic_in_events() {
        // Host wall time varies; the event counts must not.
        let a = timer_churn();
        let b = timer_churn();
        assert_eq!(a.events, b.events);
        let a = timeout_cancel();
        let b = timeout_cancel();
        assert_eq!(a.events, b.events);
    }
}
