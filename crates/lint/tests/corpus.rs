//! The deliberate-violation corpus: one fixture per check, analyzed
//! with a self-contained policy. These are end-to-end tests of the
//! engine over files that exist only to be caught.
//!
//! The fixtures under `tests/corpus/` are data, not code — cargo never
//! compiles them (only top-level files in `tests/` become targets), and
//! `load_workspace` skips `corpus` directories so they don't pollute
//! real `cargo xtask lint` runs.

use bfly_lint::{analyze, Config, SourceFile};

fn fixture(label: &str, text: &str) -> SourceFile {
    SourceFile {
        label: label.to_string(),
        text: text.to_string(),
    }
}

/// The corpus under a policy that mirrors the workspace's shape:
/// `alpha` is the unsafe-allowlisted crate with serving-path and
/// reactor files; `beta` is an ordinary crate.
fn corpus() -> (Vec<SourceFile>, Config) {
    let files = vec![
        fixture(
            "crates/alpha/src/safety.rs",
            include_str!("corpus/safety.rs"),
        ),
        fixture(
            "crates/beta/src/unsafe_crate.rs",
            include_str!("corpus/unsafe_crate.rs"),
        ),
        fixture(
            "crates/alpha/src/unwrap.rs",
            include_str!("corpus/unwrap.rs"),
        ),
        fixture(
            "crates/alpha/src/reactor.rs",
            include_str!("corpus/thread_spawn.rs"),
        ),
        fixture(
            "crates/alpha/src/det_root.rs",
            include_str!("corpus/det_root.rs"),
        ),
        fixture(
            "crates/alpha/src/det_helpers.rs",
            include_str!("corpus/det_helpers.rs"),
        ),
        fixture(
            "crates/alpha/src/blocking.rs",
            include_str!("corpus/blocking.rs"),
        ),
        fixture(
            "crates/alpha/src/blocking_helper.rs",
            include_str!("corpus/blocking_helper.rs"),
        ),
        fixture(
            "crates/alpha/src/lock_ab_ba.rs",
            include_str!("corpus/lock_ab_ba.rs"),
        ),
        fixture(
            "crates/alpha/src/exemptions.rs",
            include_str!("corpus/exemptions.rs"),
        ),
    ];
    let mut cfg = Config::bare();
    let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    cfg.unsafe_allowlist = v(&["alpha"]);
    cfg.no_unwrap_files = v(&[
        "crates/alpha/src/unwrap.rs",
        "crates/alpha/src/exemptions.rs",
    ]);
    cfg.no_spawn_files = v(&["crates/alpha/src/reactor.rs"]);
    cfg.det_root_files = v(&["crates/alpha/src/det_root.rs"]);
    cfg.blocking_root_files = v(&["crates/alpha/src/blocking.rs"]);
    (files, cfg)
}

fn checks_found(report: &bfly_lint::report::Report, check: &str) -> Vec<(String, u32)> {
    report
        .findings
        .iter()
        .filter(|f| f.check == check)
        .map(|f| (f.file.clone(), f.line))
        .collect()
}

#[test]
fn every_check_fires_on_its_fixture() {
    let (files, cfg) = corpus();
    let report = analyze(&files, &cfg);

    // safety: the undocumented unsafe only (the documented one is fine).
    assert_eq!(
        checks_found(&report, "safety"),
        vec![("crates/alpha/src/safety.rs".to_string(), 10)]
    );
    // unsafe_crate: beta is not allowlisted, SAFETY comment or not.
    assert_eq!(
        checks_found(&report, "unsafe_crate"),
        vec![("crates/beta/src/unsafe_crate.rs".to_string(), 7)]
    );
    // unwrap: the serving-path one, plus the two whose exemptions were
    // malformed. The #[cfg(test)] unwrap and the justified one are not
    // findings.
    let unwraps = checks_found(&report, "unwrap");
    assert_eq!(unwraps.len(), 3, "{unwraps:?}");
    assert!(unwraps.contains(&("crates/alpha/src/unwrap.rs".to_string(), 6)));
    // thread_spawn in the reactor module.
    assert_eq!(checks_found(&report, "thread_spawn").len(), 1);
    // determinism: the wall-clock read three hops from the root.
    let det = checks_found(&report, "determinism");
    assert_eq!(
        det,
        vec![("crates/alpha/src/det_helpers.rs".to_string(), 16)]
    );
    // blocking: the sleep reachable from the reactor callback.
    assert_eq!(
        checks_found(&report, "blocking"),
        vec![("crates/alpha/src/blocking_helper.rs".to_string(), 4)]
    );
    // lock_order: the AB-BA inversion, as a warning.
    let cycles = &report.lock_graph.cycles;
    assert_eq!(
        cycles,
        &vec![vec!["audit".to_string(), "ledger".to_string()]]
    );
    assert_eq!(checks_found(&report, "lock_order").len(), 1);
    // exemption: the two malformed allows.
    assert_eq!(checks_found(&report, "exemption").len(), 2);
    // The justified exemption is recorded with its reason.
    assert!(report
        .exempt
        .iter()
        .any(|e| e.check == "unwrap" && e.reason.contains("poisoned")));
}

#[test]
fn transitive_chain_is_reported_hop_by_hop() {
    let (files, cfg) = corpus();
    let report = analyze(&files, &cfg);
    let det = report
        .findings
        .iter()
        .find(|f| f.check == "determinism")
        .expect("determinism finding");
    // Root → helper_mid → helper_deep → stamp → Instant::now, with the
    // root and every hop named.
    let chain = det.chain.join("\n");
    assert!(chain.contains("advance_window"), "{chain}");
    assert!(chain.contains("helper_mid"), "{chain}");
    assert!(chain.contains("helper_deep"), "{chain}");
    assert!(chain.contains("stamp"), "{chain}");
    assert!(chain.contains("Instant::now"), "{chain}");
}

/// The motivating case for the call-graph engine: the wall-clock read
/// lives in `det_helpers.rs`, a file outside every watched root, where a
/// path-glob scan of the root alone cannot see it — while the call-graph
/// engine flags it.
#[test]
fn path_glob_checks_miss_what_the_call_graph_catches() {
    let (files, cfg) = corpus();

    // The engine catches it through three call hops.
    let report = analyze(&files, &cfg);
    assert!(
        report
            .findings
            .iter()
            .any(|f| { f.check == "determinism" && f.file == "crates/alpha/src/det_helpers.rs" }),
        "the call graph must taint the root through the helper chain"
    );
}

#[test]
fn fixing_the_source_clears_the_transitive_finding() {
    // Sanity: the taint is attached to the source, not the files — a
    // corpus where stamp() uses a logical counter instead of the wall
    // clock produces no determinism finding.
    let (mut files, cfg) = corpus();
    let helpers = files
        .iter_mut()
        .find(|f| f.label.ends_with("det_helpers.rs"))
        .unwrap();
    helpers.text = helpers.text.replace(
        "let t = std::time::Instant::now();\n    t.elapsed().as_nanos() as u64",
        "42",
    );
    let report = analyze(&files, &cfg);
    assert!(checks_found(&report, "determinism").is_empty());
}
