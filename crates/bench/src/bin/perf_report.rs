//! `perf_report` — emit the machine-readable perf baseline
//! (`BENCH_sim.json`) and gate CI on engine-throughput regressions.
//!
//! Modes:
//!
//! * default — run the engine micro-benchmarks plus a timed quick FIG5
//!   sweep and write the report to `BENCH_sim.json` (override with
//!   `--out <path>`).
//! * `--full` — additionally time the full-scale FIG5 sweep (N=384,
//!   8 points; minutes of wall-clock). Used when regenerating the
//!   committed baseline, not in CI.
//! * `--check <baseline.json>` — additionally compare the fresh headline
//!   `engine_events_per_sec` against a previously committed report and
//!   exit non-zero if it regressed more than the tolerance (default 20 %,
//!   override with `--tolerance <fraction>`). The CI perf-smoke job runs
//!   this against the committed `BENCH_sim.json`.
//! * `--check-sweep <baseline.json>` — compare the quick-sweep wall-clock
//!   (`fig5_gauss_quick`) against the baseline report and exit non-zero
//!   if it slowed down more than `--sweep-tolerance` (default 2 %). The
//!   current wall is the best of `--sweep-best-of` runs (default 3; the
//!   default-mode timed run counts as the first), so host noise biases
//!   toward passing while a real slowdown still trips. The CI
//!   probe-overhead job runs this against a baseline generated on the
//!   same runner from the pre-probe sources (`.perf-baseline/`).
//!   Also fails if the sweep's summed events (`sweeps[].events`)
//!   exceed the baseline's: the count is deterministic, so the
//!   tolerance is zero (skipped when the baseline predates the field).
//!   Additionally walks the trend checklist
//!   (`bfly_bench::report::TREND_CHECKS`): every leg of `serve`,
//!   `serve_sustained` (reactor, router), `cluster` and `pdes`,
//!   each field addressed by its dotted path with its own threshold —
//!   refusals and losses exactly — skipping, with a notice, fields absent
//!   from the baseline (older baselines predate them) or not exercised by
//!   this invocation. With
//!   `--require-sections`, a section the baseline has but this run did
//!   not produce fails the gate instead of skipping: the CI perf-trend
//!   job sets it so every schema section stays covered.
//! * `--pdes-bench` — run the parallel-in-time engine benchmark (PHOLD
//!   throughput workloads, 2-worker bit-identity pass, the serial wall
//!   time of the pinned T22 gauss point, and — on multi-core hosts —
//!   that point's speedup on `--pdes-hosts` workers, default 8) into
//!   the report's `pdes` section. `--pdes-min-geomean <events/s>`
//!   additionally gates on the workload geomean (the acceptance floor is
//!   2x the committed serial engine headline).
//! * `--serve-bench` — boot an in-process farm daemon on an ephemeral
//!   port, run the standard job mix cold then warm (with a bit-identity
//!   verification pass), and record the timings in the report's `serve`
//!   section. `--serve-min-speedup <x>` additionally gates on the
//!   warm-over-cold ratio (the CI farmd-e2e job uses 5).
//! * `--cluster-bench` — boot an in-process 3-shard farmd cluster behind
//!   a `farm-router` (replication 2), run the job mix cold / warm /
//!   warm-after-killing-a-shard with per-job latency sampling and a
//!   bit-identity check across all three legs, and record p50/p99 per
//!   leg in the report's `cluster` section. `--cluster-shards <n>`
//!   overrides the shard count.

use std::time::Instant;

use bfly_bench::report::{
    check_headline, check_sweep, check_sweep_events, engine_microbench, pdes_bench, trend_gate,
    PerfReport, SweepMeasure,
};
use bfly_bench::sweep::sweep_threads;
use bfly_bench::Scale;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_sim.json".to_string());
    let baseline = arg_value(&args, "--check");
    let tolerance: f64 = arg_value(&args, "--tolerance")
        .map(|v| v.parse().expect("--tolerance takes a fraction like 0.2"))
        .unwrap_or(0.20);
    let sweep_baseline = arg_value(&args, "--check-sweep");
    let sweep_tolerance: f64 = arg_value(&args, "--sweep-tolerance")
        .map(|v| {
            v.parse()
                .expect("--sweep-tolerance takes a fraction like 0.02")
        })
        .unwrap_or(0.02);
    let sweep_best_of: usize = arg_value(&args, "--sweep-best-of")
        .map(|v| v.parse().expect("--sweep-best-of takes a count"))
        .unwrap_or(3)
        .max(1);

    let mut report = PerfReport::default();

    eprintln!("running engine micro-benchmarks ...");
    report.metrics = engine_microbench();
    for m in &report.metrics {
        eprintln!(
            "  {:<16} {:>12} events  {:>9.1} ms  {:>8.2} Mevents/s",
            m.name,
            m.events,
            m.wall.as_secs_f64() * 1e3,
            m.events_per_sec() / 1e6
        );
    }

    let timed_sweep = |name: &str, points: usize, scale: Scale, report: &mut PerfReport| {
        eprintln!("timing {name} sweep ...");
        let t0 = Instant::now();
        let (table, engine) = bfly_bench::experiments::fig5_gauss_run(scale);
        let wall = t0.elapsed();
        report.sweeps.push(SweepMeasure {
            name: name.to_string(),
            points,
            threads: sweep_threads(points),
            wall,
            events: engine.events,
        });
        report.push_table(&table);
        eprintln!(
            "  {name}: {:.1} ms end-to-end, {} events",
            wall.as_secs_f64() * 1e3,
            engine.events
        );
    };
    // fig5 quick P list: [16, 32, 64, 128]; full: 8 points at N=384.
    timed_sweep("fig5_gauss_quick", 4, Scale::quick(), &mut report);
    if args.iter().any(|a| a == "--full") {
        timed_sweep("fig5_gauss_full_n384", 8, Scale::full(), &mut report);
    }

    let serve_min_speedup: Option<f64> = arg_value(&args, "--serve-min-speedup")
        .map(|v| v.parse().expect("--serve-min-speedup takes a ratio like 5"));
    if args.iter().any(|a| a == "--serve-bench") || serve_min_speedup.is_some() {
        eprintln!("running cold/warm serve benchmark ...");
        let s = bfly_bench::serve_bench().expect("serve bench");
        eprintln!(
            "  {} jobs: cold {:.1} ms, warm {:.3} ms ({} hits, {:.1}x)",
            s.jobs,
            s.cold_wall.as_secs_f64() * 1e3,
            s.warm_wall.as_secs_f64() * 1e3,
            s.hits,
            s.speedup()
        );
        report.serve = Some(s);
    }

    if args.iter().any(|a| a == "--serve-bench") {
        eprintln!("running sustained open-loop serve benchmark ...");
        let cfg = bfly_bench::SustainedConfig::default();
        let sus = bfly_bench::sustained::sustained_suite(&cfg, true).expect("sustained bench");
        let leg = &sus.reactor;
        eprintln!(
            "  direct: {} req in {:.0} ms = {:.0} req/s (p50 {:?} p99 {:?} p999 {:?})",
            leg.requests,
            leg.wall.as_secs_f64() * 1e3,
            leg.rps(),
            leg.lat.p50,
            leg.lat.p99,
            leg.lat.p999,
        );
        if let Some(r) = &sus.router {
            eprintln!(
                "  router: {} req at {} offered = {:.0} req/s achieved \
                 (warm p50 {:?} p99 {:?} p999 {:?}; {} refused, {} rerouted, {} lost)",
                r.completed,
                r.offered_rps,
                r.rps(),
                r.warm.p50,
                r.warm.p99,
                r.warm.p999,
                r.refused,
                r.rerouted,
                r.lost,
            );
        }
        report.sustained = Some(sus);
    }

    if args.iter().any(|a| a == "--cluster-bench") {
        let shards: usize = arg_value(&args, "--cluster-shards")
            .map(|v| v.parse().expect("--cluster-shards takes a count"))
            .unwrap_or(3);
        eprintln!("running {shards}-shard cluster benchmark ...");
        let c = bfly_bench::cluster::cluster_bench(shards).expect("cluster bench");
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        eprintln!(
            "  {} jobs x {} shards (R={}): cold p50 {:.1} / p99 {:.1} / p999 {:.1} ms, \
             warm p50 {:.3} / p99 {:.3} / p999 {:.3} ms, \
             failover p50 {:.3} / p99 {:.3} / p999 {:.3} ms \
             ({} rerouted, {} lost)",
            c.jobs,
            c.shards,
            c.replicas,
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
        report.cluster = Some(c);
    }

    let pdes_min_geomean: Option<f64> = arg_value(&args, "--pdes-min-geomean")
        .map(|v| v.parse().expect("--pdes-min-geomean takes events/s"));
    if args.iter().any(|a| a == "--pdes-bench") || pdes_min_geomean.is_some() {
        let hosts: usize = arg_value(&args, "--pdes-hosts")
            .map(|v| v.parse().expect("--pdes-hosts takes a count"))
            .unwrap_or(8);
        eprintln!("running PDES engine benchmark ...");
        let p = pdes_bench(hosts);
        for m in &p.metrics {
            eprintln!(
                "  {:<16} {:>12} events  {:>9.1} ms  {:>8.2} Mevents/s",
                m.name,
                m.events,
                m.wall.as_secs_f64() * 1e3,
                m.events_per_sec() / 1e6
            );
        }
        eprintln!(
            "  geomean {:.2} Mevents/s, bit_identical: {}",
            p.geomean_events_per_sec() / 1e6,
            p.bit_identical
        );
        eprintln!(
            "  gauss point (P=256, N=384) serial: {:.1} ms (median of 5 runs)",
            p.gauss_serial.as_secs_f64() * 1e3
        );
        match &p.speedup {
            None => eprintln!(
                "  speedup point SKIPPED: single-core host (or --pdes-hosts 1) — \
                 run on a multi-core machine to measure it"
            ),
            Some(s) => eprintln!(
                "  speedup: {:.1} ms serial -> {:.1} ms on {} hosts = {:.2}x",
                s.serial.as_secs_f64() * 1e3,
                s.parallel.as_secs_f64() * 1e3,
                s.hosts,
                s.speedup()
            ),
        }
        assert!(
            p.bit_identical,
            "PDES determinism contract violated: parallel digest differs from serial"
        );
        report.pdes = Some(p);
    }

    let headline = report.headline_events_per_sec();
    eprintln!("headline engine_events_per_sec = {headline:.0}");

    std::fs::write(&out_path, report.to_json()).expect("write report");
    eprintln!("wrote {out_path}");

    if let Some(baseline_path) = baseline {
        let baseline_json = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        match check_headline(&baseline_json, headline, tolerance) {
            Ok(()) => eprintln!(
                "perf gate: OK (within {:.0}% of baseline)",
                tolerance * 100.0
            ),
            Err(msg) => {
                eprintln!("perf gate: FAIL — {msg}");
                std::process::exit(1);
            }
        }
    }

    if let Some(baseline_path) = sweep_baseline {
        let baseline_json = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read sweep baseline {baseline_path}: {e}"));
        // Event count: deterministic, so no tolerance and no best-of.
        match check_sweep_events(&baseline_json, "fig5_gauss_quick", report.sweeps[0].events) {
            Ok(true) => eprintln!(
                "event gate: OK ({} events, no more than baseline)",
                report.sweeps[0].events
            ),
            Ok(false) => eprintln!("event gate: SKIP (baseline predates the sweep event count)"),
            Err(msg) => {
                eprintln!("event gate: FAIL — {msg}");
                std::process::exit(1);
            }
        }

        // Best-of-k: the default-mode timed run above is attempt 1.
        let mut best_ms = report.sweeps[0].wall.as_secs_f64() * 1e3;
        for attempt in 1..sweep_best_of {
            let t0 = Instant::now();
            let _ = bfly_bench::experiments::fig5_gauss_run(Scale::quick());
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            eprintln!("  sweep re-run {attempt}: {ms:.1} ms");
            best_ms = best_ms.min(ms);
        }
        match check_sweep(&baseline_json, "fig5_gauss_quick", best_ms, sweep_tolerance) {
            Ok(()) => eprintln!(
                "sweep gate: OK (best-of-{sweep_best_of} {best_ms:.1} ms within {:.0}% of baseline)",
                sweep_tolerance * 100.0
            ),
            Err(msg) => {
                eprintln!("sweep gate: FAIL — {msg}");
                std::process::exit(1);
            }
        }

        // Per-field trend checklist over every schema-pinned section.
        let require_sections = args.iter().any(|a| a == "--require-sections");
        let (lines, failed) = trend_gate(&baseline_json, &report.to_json(), require_sections);
        for line in lines {
            eprintln!("{line}");
        }
        if failed {
            std::process::exit(1);
        }
    }

    if let Some(min) = pdes_min_geomean {
        let p = report.pdes.as_ref().expect("pdes bench ran above");
        let g = p.geomean_events_per_sec();
        if g < min {
            eprintln!("pdes gate: FAIL — geomean {g:.0} events/s below the {min:.0} floor");
            std::process::exit(1);
        }
        eprintln!("pdes gate: OK ({g:.0} >= {min:.0} events/s)");
    }

    if let Some(min) = serve_min_speedup {
        let s = report.serve.as_ref().expect("serve bench ran above");
        if s.hits < s.jobs as u64 {
            eprintln!(
                "serve gate: FAIL — warm batch hit {}/{} jobs in cache",
                s.hits, s.jobs
            );
            std::process::exit(1);
        }
        if s.speedup() < min {
            eprintln!(
                "serve gate: FAIL — warm speedup {:.1}x below the {min:.1}x floor",
                s.speedup()
            );
            std::process::exit(1);
        }
        eprintln!("serve gate: OK ({:.1}x >= {min:.1}x)", s.speedup());
    }
}
