//! Schema golden tests: the machine-readable artifacts (`BENCH_sim.json`,
//! `PROBE_<exp>.json`, `TRACE_<exp>.json`, embedded tables) are consumed
//! by CI gates and external tooling (Perfetto), so their shapes must not
//! drift silently. Every emitter is checked against `bfly_json`'s strict
//! parser plus a golden key list.

use std::time::Duration;

use bfly_bench::report::{
    check_headline, check_sweep, check_sweep_events, sweep_events, sweep_wall_ms, Metric,
    PerfReport, SweepMeasure,
};
use bfly_bench::{ServeBenchResult, Table};
use bfly_json::parse;
use bfly_probe::Probe;

/// A number read back the way the CI gates read it: by dotted path.
fn field(json: &str, path: &str) -> Option<f64> {
    parse(json).ok()?.at(path)?.as_f64()
}

/// The sweep wall the probe-overhead gate compares.
fn sweep_wall(json: &str, name: &str) -> Option<f64> {
    sweep_wall_ms(&parse(json).ok()?, name)
}

fn sample_report() -> PerfReport {
    let mut report = PerfReport {
        metrics: vec![
            Metric {
                name: "timer_churn".into(),
                events: 1_000_000,
                wall: Duration::from_millis(250),
            },
            Metric {
                name: "yield_storm".into(),
                events: 4_000_000,
                wall: Duration::from_millis(250),
            },
        ],
        sweeps: vec![SweepMeasure {
            name: "fig5_gauss_quick".into(),
            points: 4,
            threads: 2,
            wall: Duration::from_millis(1_500),
            events: 2_500_000,
        }],
        tables: Vec::new(),
        serve: None,
        sustained: None,
        cluster: None,
        pdes: None,
    };
    let mut t = Table::new("demo \"table\"", &["P", "time (ms)"]);
    t.row(vec!["16".into(), "1.5".into()]);
    report.push_table(&t);
    report
}

#[test]
fn table_to_json_golden_shape() {
    let mut t = Table::new("title", &["a", "b"]);
    t.row(vec!["1".into(), "x\ny".into()]);
    let j = t.to_json();
    assert_eq!(
        j,
        "{\"title\":\"title\",\"headers\":[\"a\",\"b\"],\"rows\":[[\"1\",\"x\\ny\"]]}"
    );
    parse(&j).unwrap();
}

#[test]
fn bench_report_json_schema_is_stable() {
    let json = sample_report().to_json();
    parse(&json).unwrap_or_else(|(pos, msg)| panic!("invalid report at {pos}: {msg}"));

    // Golden key set, in emission order. `engine_events_per_sec` stays
    // the first flat field: the headline a reader sees first.
    for key in [
        "\"schema\": \"bfly-bench-report/1\"",
        "\"engine_events_per_sec\":",
        "\"microbench\": [",
        "\"events\":",
        "\"wall_ms\":",
        "\"events_per_sec\":",
        "\"sweeps\": [",
        "\"points\":",
        "\"threads\":",
        "\"events\": 2500000}",
        "\"serve\": null",
        "\"cluster\": null",
        "\"tables\": [",
    ] {
        assert!(json.contains(key), "report must carry {key}\n{json}");
    }
    let schema_at = json.find("\"schema\"").unwrap();
    let headline_at = json.find("\"engine_events_per_sec\"").unwrap();
    let micro_at = json.find("\"microbench\"").unwrap();
    assert!(schema_at < headline_at && headline_at < micro_at);

    // The paths the CI gates read keep working on this shape.
    let headline = field(&json, "engine_events_per_sec").expect("headline readable");
    assert!(headline > 0.0);
    assert!(check_headline(&json, headline, 0.2).is_ok());
    let wall = sweep_wall(&json, "fig5_gauss_quick").expect("sweep readable");
    assert!((wall - 1_500.0).abs() < 0.2);
    assert!(check_sweep(&json, "fig5_gauss_quick", wall, 0.02).is_ok());
    let events = sweep_events(&parse(&json).unwrap(), "fig5_gauss_quick");
    assert_eq!(events, Some(2_500_000), "sweep poll count readable");
    assert_eq!(
        check_sweep_events(&json, "fig5_gauss_quick", 2_500_000),
        Ok(true)
    );
}

/// The committed quick-sweep poll count is the one the engine makes
/// today. The poll gate compares against it with zero tolerance, so a
/// stale committed count would hide (or fake) a poll regression.
#[test]
fn committed_sweep_poll_count_matches_the_engine() {
    let committed = parse(include_str!("../../../BENCH_sim.json")).expect("committed report");
    let (_, engine) = bfly_bench::experiments::fig5_gauss_run(bfly_bench::Scale::quick());
    assert_eq!(
        sweep_events(&committed, "fig5_gauss_quick"),
        Some(engine.events),
        "regenerate BENCH_sim.json's sweeps line with perf_report"
    );
}

#[test]
fn serve_section_schema_is_stable() {
    let mut report = sample_report();
    report.serve = Some(ServeBenchResult {
        jobs: 8,
        cold_wall: Duration::from_millis(4_000),
        warm_wall: Duration::from_millis(40),
        hits: 8,
    });
    let json = report.to_json();
    parse(&json).unwrap_or_else(|(pos, msg)| panic!("invalid report at {pos}: {msg}"));

    // Golden key set for the serving benchmark section.
    for key in [
        "\"serve\": {",
        "\"jobs\": 8",
        "\"cold_wall_ms\": 4000.0",
        "\"warm_wall_ms\": 40.000",
        "\"hits\": 8",
        "\"hit_rate\": 1.000",
        "\"speedup\": 100.0",
    ] {
        assert!(json.contains(key), "serve section must carry {key}\n{json}");
    }
    // Section order is part of the schema: sweeps, then serve, then tables.
    let sweeps_at = json.find("\"sweeps\"").unwrap();
    let serve_at = json.find("\"serve\"").unwrap();
    let tables_at = json.find("\"tables\"").unwrap();
    assert!(sweeps_at < serve_at && serve_at < tables_at);

    // The headline/sweep reads must be unaffected by the new section.
    assert!(field(&json, "engine_events_per_sec").is_some());
    assert!(sweep_wall(&json, "fig5_gauss_quick").is_some());

    // An unmeasurably fast warm leg must stay valid JSON (no `inf`).
    report.serve = Some(ServeBenchResult {
        jobs: 1,
        cold_wall: Duration::from_millis(100),
        warm_wall: Duration::ZERO,
        hits: 1,
    });
    let json = report.to_json();
    parse(&json).unwrap_or_else(|(pos, msg)| panic!("invalid report at {pos}: {msg}"));
    assert!(json.contains("\"speedup\": 1000000.0"));
}

#[test]
fn serve_sustained_section_schema_is_stable() {
    use bfly_bench::cluster::LatencyLeg;
    use bfly_bench::sustained::{DirectLeg, RouterLeg, SustainedResult};
    let leg = |requests: u64| DirectLeg {
        conns: 4,
        window: 8,
        requests,
        wall: Duration::from_secs(2),
        lat: LatencyLeg {
            p50: Duration::from_micros(250),
            p99: Duration::from_micros(600),
            p999: Duration::from_micros(4_000),
        },
    };
    let mut report = sample_report();
    report.sustained = Some(SustainedResult {
        reactor: leg(240_000),
        router: Some(RouterLeg {
            shards: 3,
            conns: 4,
            offered_rps: 12_000,
            completed: 24_000,
            refused: 0,
            wall: Duration::from_secs(2),
            warm: LatencyLeg {
                p50: Duration::from_millis(4),
                p99: Duration::from_millis(20),
                p999: Duration::from_millis(45),
            },
            cold: LatencyLeg {
                p50: Duration::from_millis(8),
                p99: Duration::from_millis(30),
                p999: Duration::from_millis(50),
            },
            warm_requests: 23_800,
            lost: 0,
            rerouted: 2,
        }),
    });
    let json = report.to_json();
    parse(&json).unwrap_or_else(|(pos, msg)| panic!("invalid report at {pos}: {msg}"));

    // Golden key set for the sustained serving section.
    for key in [
        "\"serve_sustained\": {",
        "\"conns\": 4",
        "\"window\": 8",
        "\"reactor\": {\"requests\": 240000",
        "\"rps\": 120000",
        "\"p50_us\": 250",
        "\"p99_us\": 600",
        "\"p999_us\": 4000",
        "\"router\": {\"shards\": 3",
        "\"offered_rps\": 12000",
        "\"completed\": 24000",
        "\"refused\": 0",
        "\"warm_p50_ms\": 4.000",
        "\"warm_p99_ms\": 20.000",
        "\"warm_p999_ms\": 45.000",
        "\"cold_p50_ms\": 8.000",
        "\"cold_p999_ms\": 50.000",
        "\"lost\": 0",
    ] {
        assert!(
            json.contains(key),
            "serve_sustained section must carry {key}\n{json}"
        );
    }
    // One front end, one direct leg.
    assert!(!json.contains("\"threads\": {\"requests\""), "{json}");
    // Section order is part of the schema: serve, then serve_sustained,
    // then cluster.
    let serve_at = json.find("\"serve\"").unwrap();
    let sustained_at = json.find("\"serve_sustained\"").unwrap();
    let cluster_at = json.find("\"cluster\"").unwrap();
    assert!(serve_at < sustained_at && sustained_at < cluster_at);

    // A run without the router leg keeps the shape with a null slot.
    let mut report = sample_report();
    report.sustained = Some(SustainedResult {
        reactor: leg(1),
        router: None,
    });
    let json = report.to_json();
    parse(&json).unwrap_or_else(|(pos, msg)| panic!("invalid report at {pos}: {msg}"));
    assert!(json.contains("\"router\": null"));

    // The headline/sweep reads must be unaffected by the new section.
    assert!(field(&json, "engine_events_per_sec").is_some());
    assert!(sweep_wall(&json, "fig5_gauss_quick").is_some());
}

#[test]
fn cluster_section_schema_is_stable() {
    use bfly_bench::cluster::{ClusterBenchResult, LatencyLeg};
    let mut report = sample_report();
    report.cluster = Some(ClusterBenchResult {
        shards: 3,
        replicas: 2,
        jobs: 8,
        cold: LatencyLeg {
            p50: Duration::from_millis(500),
            p99: Duration::from_millis(900),
            p999: Duration::from_millis(950),
        },
        warm: LatencyLeg {
            p50: Duration::from_millis(2),
            p99: Duration::from_millis(5),
            p999: Duration::from_millis(7),
        },
        failover: LatencyLeg {
            p50: Duration::from_millis(3),
            p99: Duration::from_millis(40),
            p999: Duration::from_millis(60),
        },
        rerouted: 4,
        lost: 0,
    });
    let json = report.to_json();
    parse(&json).unwrap_or_else(|(pos, msg)| panic!("invalid report at {pos}: {msg}"));

    // Golden key set for the cluster benchmark section.
    for key in [
        "\"cluster\": {",
        "\"shards\": 3",
        "\"replicas\": 2",
        "\"jobs\": 8",
        "\"cold_p50_ms\": 500.0",
        "\"cold_p99_ms\": 900.0",
        "\"cold_p999_ms\": 950.0",
        "\"warm_p50_ms\": 2.000",
        "\"warm_p99_ms\": 5.000",
        "\"warm_p999_ms\": 7.000",
        "\"failover_p50_ms\": 3.000",
        "\"failover_p99_ms\": 40.000",
        "\"failover_p999_ms\": 60.000",
        "\"rerouted\": 4",
        "\"lost\": 0",
    ] {
        assert!(
            json.contains(key),
            "cluster section must carry {key}\n{json}"
        );
    }
    // Section order is part of the schema: serve, then cluster, then tables.
    let serve_at = json.find("\"serve\"").unwrap();
    let cluster_at = json.find("\"cluster\"").unwrap();
    let tables_at = json.find("\"tables\"").unwrap();
    assert!(serve_at < cluster_at && cluster_at < tables_at);

    // The headline/sweep reads must be unaffected by the new section.
    assert!(field(&json, "engine_events_per_sec").is_some());
    assert!(sweep_wall(&json, "fig5_gauss_quick").is_some());
}

#[test]
fn pdes_section_schema_is_stable() {
    use bfly_bench::report::{PdesBench, PdesSpeedup};
    let mut report = sample_report();
    report.pdes = Some(PdesBench {
        metrics: vec![
            Metric {
                name: "phold_wide_1k".into(),
                events: 1_228_800,
                wall: Duration::from_millis(30),
            },
            Metric {
                name: "phold_dense_64".into(),
                events: 1_228_800,
                wall: Duration::from_millis(25),
            },
        ],
        gauss_serial: Duration::from_millis(2_400),
        speedup: Some(PdesSpeedup {
            hosts: 8,
            serial: Duration::from_millis(2_400),
            parallel: Duration::from_millis(400),
        }),
        bit_identical: true,
    });
    let json = report.to_json();
    parse(&json).unwrap_or_else(|(pos, msg)| panic!("invalid report at {pos}: {msg}"));

    // Golden key set for the PDES engine section.
    for key in [
        "\"pdes\": {",
        "\"events_per_sec_geomean\":",
        "\"bit_identical\": true",
        "\"gauss_serial_ms\": 2400.0",
        "\"microbench\": [",
        "\"name\": \"phold_wide_1k\"",
        "\"events\": 1228800",
        "\"speedup\": {\"hosts\": 8",
        "\"serial_wall_ms\": 2400.0",
        "\"parallel_wall_ms\": 400.0",
        "\"speedup\": 6.00",
    ] {
        assert!(json.contains(key), "pdes section must carry {key}\n{json}");
    }
    // Section order is part of the schema: cluster, then pdes, then tables.
    let cluster_at = json.find("\"cluster\"").unwrap();
    let pdes_at = json.find("\"pdes\"").unwrap();
    let tables_at = json.find("\"tables\"").unwrap();
    assert!(cluster_at < pdes_at && pdes_at < tables_at);

    // The trend gate reads the section fields back by path.
    let g = field(&json, "pdes.events_per_sec_geomean").unwrap();
    assert!(g > 1e7, "geomean readable: {g}");
    let s = field(&json, "pdes.speedup.speedup").unwrap();
    assert!((s - 6.0).abs() < 0.01);
    // A single-core report (speedup null) keeps the shape; the path
    // reads as absent rather than misparsing.
    report.pdes.as_mut().unwrap().speedup = None;
    let json = report.to_json();
    parse(&json).unwrap_or_else(|(pos, msg)| panic!("invalid report at {pos}: {msg}"));
    assert!(json.contains("\"speedup\": null"));
    assert!(field(&json, "pdes.speedup.speedup").is_none());
    // The serial gauss wall is measured on every host, speedup or not.
    let g = field(&json, "pdes.gauss_serial_ms").unwrap();
    assert!((g - 2400.0).abs() < 0.01, "gauss serial readable: {g}");

    // The headline/sweep reads must be unaffected by the new section.
    assert!(field(&json, "engine_events_per_sec").is_some());
    assert!(sweep_wall(&json, "fig5_gauss_quick").is_some());
}

fn sample_probe() -> Probe {
    let p = Probe::new();
    p.local_ref(0, 800);
    p.remote_ref(3, 0, 500);
    p.remote_ref(4, 0, 500);
    p.switch_hop(0, 2, 25, 300, 1);
    p.switch_hop(3, 0, 150, 300, 2);
    p.lock_spin(0, 3, 12, 40_000);
    p.alloc_op(1, 100, 2_000, true);
    p.task_claimed(3);
    p.msg_send(3, 4, 64);
    let q = p.mem_queue(0);
    q.arrival(2);
    q.served(700, 500);
    p.span(0, 3, "lock_acquire", "lock", 1_000, 40_000);
    p.instant(0, 3, "fault", "fault", 5_000);
    p
}

#[test]
fn probe_summary_json_schema_is_stable() {
    let json = sample_probe().summary_json("schema_test");
    parse(&json).unwrap_or_else(|(pos, msg)| panic!("invalid summary at {pos}: {msg}"));
    for key in [
        "\"schema\": \"bfly-probe/1\"",
        "\"experiment\": \"schema_test\"",
        "\"nodes\": [",
        "\"local_refs\":",
        "\"remote_out\":",
        "\"remote_in\":",
        "\"mem_local_ns\":",
        "\"mem_stolen_ns\":",
        "\"lock_acquires\":",
        "\"lock_spin_attempts\":",
        "\"lock_spin_ns\":",
        "\"alloc_ops\":",
        "\"alloc_wait_ns\":",
        "\"alloc_hold_ns\":",
        "\"alloc_serial_ns\":",
        "\"tasks_claimed\":",
        "\"msgs_sent\":",
        "\"msg_bytes\":",
        "\"mem_queue\":",
        "\"arrivals\":",
        "\"served\":",
        "\"wait_ns\":",
        "\"busy_ns\":",
        "\"max_depth\":",
        "\"depth_hist\":",
        "\"attribution\":",
        "\"total_stolen_ns\": 1000",
        "\"victims\": [",
        "\"share\":",
        "\"top_thief\":",
        "\"switch_ports\": [",
        "\"stage\":",
        "\"port\":",
        "\"hops\":",
        "\"timeline\":",
        "\"spans\": 1",
        "\"instants\": 1",
        "\"dropped\": 0",
    ] {
        assert!(json.contains(key), "probe summary must carry {key}\n{json}");
    }
}

/// A sanitizer with real findings: the buggy witness suite (lock-dropped
/// dual queue, barrier-free pivot, AB-BA lock order) run to completion.
fn sample_sanitizer() -> bfly_san::Sanitizer {
    use bfly_apps::witness::{dualq_racey, lock_order_cycle, pivot_racey};
    let prev = bfly_san::install_ambient(Some(bfly_san::Sanitizer::new()));
    dualq_racey(20);
    pivot_racey(16);
    lock_order_cycle();
    bfly_san::install_ambient(prev).expect("sanitizer installed above")
}

#[test]
fn san_report_json_schema_is_stable() {
    let json = sample_sanitizer().report_json("schema_test");
    parse(&json).unwrap_or_else(|(pos, msg)| panic!("invalid SAN report at {pos}: {msg}"));
    for key in [
        "\"schema\": \"bfly-san/1\"",
        "\"experiment\": \"schema_test\"",
        "\"clean\": false",
        "\"tasks\":",
        "\"words_tracked\":",
        "\"plain_reads\":",
        "\"plain_writes\":",
        "\"atomic_ops\":",
        "\"host_ops\":",
        "\"sync_ops\":",
        "\"msg_ops\":",
        "\"suppressed\":",
        "\"races_total\":",
        "\"races\": [",
        "\"kind\": \"write-read\"",
        "\"alloc_site\":",
        "\"nodes\": [",
        "\"first\": {",
        "\"second\": {",
        "\"task\":",
        "\"site\":",
        "\"epoch\":",
        "\"from_node\":",
        "\"locks\": [",
        "\"lockset_warnings_total\":",
        "\"lockset_warnings\": [",
        "\"lock_order\": {\"locks\":",
        "\"edges\":",
        "\"cycles\": [",
        "\"sites\": [",
        // Attribution the tooling keys on: the pivot race carries its
        // shared-allocation site; the cycle names both lock objects.
        "Us::share",
        "\"L0@",
        "\"L1@",
        // The machine-readable lock-graph export bfly-lint cross-checks
        // against (PR10): per-lock records, from/to edges, cycles as
        // id lists, and the interned locksets.
        "\"lock_graph\": {",
        "\"id\": 0,",
        "\"acquires\":",
        "\"from\": ",
        "\"to\": ",
        "\"locksets\": [",
    ] {
        assert!(json.contains(key), "SAN report must carry {key}\n{json}");
    }
    // Section order is part of the schema: counters, then ranked races,
    // then advisory lockset warnings, then the lock-order graph.
    let schema_at = json.find("\"schema\"").unwrap();
    let races_at = json.find("\"races_total\"").unwrap();
    let warns_at = json.find("\"lockset_warnings_total\"").unwrap();
    let order_at = json.find("\"lock_order\"").unwrap();
    assert!(schema_at < races_at && races_at < warns_at && warns_at < order_at);
}

#[test]
fn san_clean_report_schema_is_stable() {
    // A clean report (no findings) must keep the same shape with empty
    // arrays — downstream tooling reads `clean` without special-casing.
    let json = bfly_san::Sanitizer::new().report_json("empty");
    parse(&json).unwrap_or_else(|(pos, msg)| panic!("invalid SAN report at {pos}: {msg}"));
    for key in [
        "\"schema\": \"bfly-san/1\"",
        "\"clean\": true",
        "\"races_total\": 0",
        "\"lockset_warnings_total\": 0",
        "\"cycles\": []",
        // Empty lock_graph keeps its full shape: same keys, empty arrays.
        "\"lock_graph\": {",
        "\"locks\": []",
        "\"edges\": []",
    ] {
        assert!(
            json.contains(key),
            "clean SAN report must carry {key}\n{json}"
        );
    }
    // The export rides after the human-oriented lock_order summary.
    assert!(json.find("\"lock_order\"").unwrap() < json.find("\"lock_graph\"").unwrap());
}

#[test]
fn chrome_trace_json_schema_is_stable() {
    let json = sample_probe().chrome_trace();
    parse(&json).unwrap_or_else(|(pos, msg)| panic!("invalid trace at {pos}: {msg}"));
    for key in [
        "{\"traceEvents\":[",
        "\"displayTimeUnit\":\"ns\"",
        "\"otherData\":",
        "\"dropped_events\":0",
        "\"ph\":\"M\"",
        "\"ph\":\"X\"",
        "\"ph\":\"i\"",
        "\"name\":\"lock_acquire\"",
        "\"cat\":\"lock\"",
        "\"pid\":0",
        "\"tid\":3",
    ] {
        assert!(json.contains(key), "chrome trace must carry {key}\n{json}");
    }
}
