//! bfly-lint: call-graph-aware static analysis for the workspace.
//!
//! The paper's failure catalogue — races, non-reproducible schedules,
//! accidental blocking in hot loops — maps to properties that are not
//! local to a file: purity of the PDES/snapshot core and
//! non-blockingness of the reactor are properties of everything those
//! modules can *reach*. This crate lexes and item-parses every source
//! file (no rustc, no deps), builds a resolved-name call graph, and
//! propagates determinism and blocking taints through it, so a helper
//! three hops away from `pdes_window.rs` is flagged without any path
//! allowlist. A static lock-acquisition-order graph (Tarjan SCC) mirrors
//! bfly-san's dynamic one and is cross-checked against san's exported
//! `lock_graph` section.
//!
//! Findings are suppressed only by a reasoned exemption:
//! `// lint: allow(<check>): <why>` — the `<why>` is mandatory and is
//! carried into the report. Output is the schema-pinned, byte-stable
//! `bfly-lint/1` JSON (see `report.rs`).

pub mod checks;
pub mod graph;
/// The workspace JSON layer (reads `SAN_<exp>.json` for the cross-check).
pub use bfly_json as json;
pub mod lex;
pub mod locks;
pub mod parse;
pub mod report;

use checks::{exempt_for, Exemption};
use graph::FileMeta;
use parse::{FnItem, SourceHit, TaintKind};
use report::{Finding, Report, Severity};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One source file handed to the analyzer.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative label (`crates/sim/src/snap.rs`).
    pub label: String,
    pub text: String,
}

/// Analysis policy. [`Config::workspace_default`] holds the real tree's
/// rules (moved here from the old xtask constants); [`Config::bare`] is
/// an empty policy for tests that supply their own lists.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crates allowed to contain `unsafe` (with SAFETY comments).
    pub unsafe_allowlist: Vec<String>,
    /// Files where bare `.unwrap()` is banned.
    pub no_unwrap_files: Vec<String>,
    /// Files where `thread::spawn` is banned (reactor modules).
    pub no_spawn_files: Vec<String>,
    /// Determinism-critical root files (snapshot-state modules).
    pub det_root_files: Vec<String>,
    /// Determinism-critical root prefixes (the `pdes*` executor family).
    pub det_root_prefixes: Vec<String>,
    /// Files whose `thread::` use is sanctioned (the PDES worker pool).
    pub spawn_sanctioned_files: Vec<String>,
    /// Blocking-taint root files (reactor callbacks).
    pub blocking_root_files: Vec<String>,
    /// `// SAFETY:` adjacency window in lines.
    pub safety_window: u32,
    /// Crate-dir → crate-dirs it may call into. Empty = no filter.
    pub deps: BTreeMap<String, BTreeSet<String>>,
}

impl Config {
    /// Empty policy: no scoped checks, no dep filter (unit tests).
    pub fn bare() -> Self {
        Config {
            unsafe_allowlist: Vec::new(),
            no_unwrap_files: Vec::new(),
            no_spawn_files: Vec::new(),
            det_root_files: Vec::new(),
            det_root_prefixes: Vec::new(),
            spawn_sanctioned_files: Vec::new(),
            blocking_root_files: Vec::new(),
            safety_window: 5,
            deps: BTreeMap::new(),
        }
    }

    /// The workspace policy (kept in sync with DESIGN.md §18).
    pub fn workspace_default() -> Self {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        Config {
            unsafe_allowlist: v(&["sim", "collections", "farmd"]),
            no_unwrap_files: v(&[
                "crates/farmd/src/server.rs",
                "crates/farmd/src/front.rs",
                "crates/farmd/src/cache.rs",
                "crates/farmd/src/reactor.rs",
                "crates/farm-router/src/conn.rs",
                "crates/farm-router/src/health.rs",
                "crates/farm-router/src/lib.rs",
                "crates/farm-router/src/main.rs",
                "crates/farm-router/src/rebalance.rs",
                "crates/farm-router/src/ring.rs",
                "crates/farm-router/src/router.rs",
            ]),
            no_spawn_files: v(&["crates/farmd/src/reactor.rs"]),
            det_root_files: v(&[
                "crates/snap/src/lib.rs",
                "crates/sim/src/snap.rs",
                "crates/sim/src/rng.rs",
                "crates/bench/src/snapshot.rs",
            ]),
            det_root_prefixes: v(&["crates/sim/src/pdes"]),
            spawn_sanctioned_files: v(&["crates/sim/src/pdes_pool.rs"]),
            blocking_root_files: v(&["crates/farmd/src/reactor.rs"]),
            safety_window: 5,
            deps: BTreeMap::new(),
        }
    }

    fn is_det_root(&self, label: &str) -> bool {
        self.det_root_files.iter().any(|f| f == label)
            || self.det_root_prefixes.iter().any(|p| label.starts_with(p))
    }

    fn is_blocking_root(&self, label: &str) -> bool {
        self.blocking_root_files.iter().any(|f| f == label)
    }
}

/// Files under `tests/`, `benches/`, or `examples/` are test code even
/// without `#[cfg(test)]` (integration tests compile as separate crates).
fn is_test_path(label: &str) -> bool {
    label.contains("/tests/") || label.contains("/benches/") || label.contains("/examples/")
}

/// Run the full analysis.
pub fn analyze(files: &[SourceFile], cfg: &Config) -> Report {
    let mut metas: Vec<FileMeta> = Vec::new();
    let mut per_file: Vec<(lex::Lexed, parse::ParsedFile)> = Vec::new();
    let mut fns: Vec<FnItem> = Vec::new();
    let mut use_edges = 0usize;
    let mut findings: Vec<Finding> = Vec::new();
    let mut exemptions: Vec<Exemption> = Vec::new();

    for (fi, sf) in files.iter().enumerate() {
        let lexed = lex::lex(&sf.text);
        let mut pf = parse::parse(&lexed);
        let test_file = is_test_path(&sf.label);
        use_edges += pf.uses.len();
        let (ex, bad) = checks::parse_exemptions(&sf.label, &lexed);
        exemptions.extend(ex);
        findings.extend(bad);
        if test_file {
            for e in pf.unsafe_uses.iter_mut() {
                e.1 = true;
            }
            for e in pf.unwraps.iter_mut() {
                e.1 = true;
            }
            for e in pf.thread_spawns.iter_mut() {
                e.1 = true;
            }
        }
        for mut f in std::mem::take(&mut pf.fns) {
            f.file = fi;
            if test_file {
                f.in_test = true;
            }
            fns.push(f);
        }
        let stem = sf
            .label
            .rsplit('/')
            .next()
            .unwrap_or(&sf.label)
            .trim_end_matches(".rs")
            .to_string();
        metas.push(FileMeta {
            label: sf.label.clone(),
            krate: checks::crate_of(&sf.label).to_string(),
            stem,
        });
        per_file.push((lexed, pf));
    }

    let g = graph::build(&fns, &metas, &cfg.deps);

    // --- exemption bookkeeping -------------------------------------------
    let mut used: BTreeMap<(String, u32, String), Exemption> = BTreeMap::new();
    let mut note_used = |e: &Exemption| {
        used.entry((e.file.clone(), e.line, e.check.clone()))
            .or_insert_with(|| e.clone());
    };

    // --- filter taint sources (sanctions + exemptions) --------------------
    let mut sources: Vec<Vec<SourceHit>> = Vec::with_capacity(fns.len());
    for f in &fns {
        let label = &metas[f.file].label;
        let mut kept = Vec::new();
        for h in &f.sources {
            if h.kind == TaintKind::ThreadSpawn
                && cfg.spawn_sanctioned_files.iter().any(|s| s == label)
            {
                continue; // the sanctioned PDES worker pool
            }
            let check = if h.kind.is_determinism() {
                "determinism"
            } else {
                "blocking"
            };
            if let Some(e) = exempt_for(&exemptions, label, check, h.line) {
                note_used(e);
                continue;
            }
            kept.push(h.clone());
        }
        sources.push(kept);
    }

    // --- transitive purity inference --------------------------------------
    let det_roots: Vec<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.in_test && cfg.is_det_root(&metas[f.file].label))
        .map(|(i, _)| i)
        .collect();
    let blk_roots: Vec<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.in_test && cfg.is_blocking_root(&metas[f.file].label))
        .map(|(i, _)| i)
        .collect();

    let families: [(&str, &[TaintKind], &[usize]); 2] = [
        (
            "determinism",
            &[
                TaintKind::WallClock,
                TaintKind::HashContainer,
                TaintKind::Randomness,
                TaintKind::ThreadSpawn,
            ],
            &det_roots,
        ),
        (
            "blocking",
            &[TaintKind::BlockingSleep, TaintKind::BlockingWait],
            &blk_roots,
        ),
    ];
    for (check, kinds, roots) in families {
        if roots.is_empty() {
            continue;
        }
        for &kind in kinds {
            let reach = graph::propagate(&g, fns.len(), &sources, kind);
            // Group affected roots per source site; keep the shortest chain.
            struct Grp {
                chain: Vec<String>,
                src_fn: usize,
                roots: usize,
            }
            let mut groups: BTreeMap<(String, u32, String), Grp> = BTreeMap::new();
            for &r in roots {
                let Some((chain, src_fn, hit)) = walk_chain(&fns, &metas, &reach, r) else {
                    continue;
                };
                let key = (
                    metas[fns[src_fn].file].label.clone(),
                    hit.line,
                    hit.what.clone(),
                );
                match groups.get_mut(&key) {
                    Some(grp) => {
                        grp.roots += 1;
                        if chain.len() < grp.chain.len() {
                            grp.chain = chain;
                            grp.src_fn = src_fn;
                        }
                    }
                    None => {
                        groups.insert(
                            key,
                            Grp {
                                chain,
                                src_fn,
                                roots: 1,
                            },
                        );
                    }
                }
            }
            for ((file, line, what), grp) in groups {
                findings.push(Finding {
                    check: check.to_string(),
                    severity: Severity::Error,
                    file,
                    line,
                    function: fns[grp.src_fn].qualified(),
                    message: format!(
                        "{} ({}) reachable from {} {check}-critical fn(s)",
                        what,
                        kind.as_str(),
                        grp.roots
                    ),
                    chain: grp.chain,
                });
            }
        }
    }

    // --- token-stream checks (migrated xtask checks 2–5) -------------------
    for (fi, sf) in files.iter().enumerate() {
        let (lexed, pf) = &per_file[fi];
        let mut direct = checks::check_unsafe(
            &sf.label,
            lexed,
            pf,
            &cfg.unsafe_allowlist,
            cfg.safety_window,
        );
        direct.extend(checks::check_unwrap(&sf.label, pf, &cfg.no_unwrap_files));
        direct.extend(checks::check_thread_spawn(
            &sf.label,
            pf,
            &cfg.no_spawn_files,
        ));
        for f in direct {
            if let Some(e) = exempt_for(&exemptions, &f.file, &f.check, f.line) {
                note_used(e);
            } else {
                findings.push(f);
            }
        }
    }

    // --- static lock-order graph ------------------------------------------
    let lg = locks::build(&fns, &metas, &g);
    for cyc in &lg.cycles {
        let witness = lg
            .edges
            .iter()
            .find(|e| cyc.contains(&e.from) && cyc.contains(&e.to));
        let (file, line, in_fn) = witness
            .map(|e| (e.file.clone(), e.line, e.in_fn.clone()))
            .unwrap_or_default();
        let f = Finding {
            check: "lock_order".to_string(),
            severity: Severity::Warning,
            file,
            line,
            function: in_fn,
            message: format!(
                "static lock-order cycle: {} (potential AB-BA deadlock)",
                cyc.join(" <-> ")
            ),
            chain: Vec::new(),
        };
        if let Some(e) = exempt_for(&exemptions, &f.file, "lock_order", f.line) {
            note_used(e);
        } else {
            findings.push(f);
        }
    }

    let mut rep = Report {
        files: files.len(),
        functions: fns.len(),
        call_edges: g.edge_count,
        use_edges,
        findings,
        exempt: used.into_values().collect(),
        lock_graph: lg,
        cross_check: None,
    };
    rep.finalize();
    rep
}

/// Analyze and cross-check the static lock graph against a san report.
pub fn analyze_with_san(
    files: &[SourceFile],
    cfg: &Config,
    san_text: &str,
) -> Result<Report, String> {
    let mut rep = analyze(files, cfg);
    let san = json::parse(san_text)
        .map_err(|(at, e)| format!("SAN report parse error at offset {at}: {e}"))?;
    let cc = locks::cross_check(&rep.lock_graph, &san)?;
    if cc.coverage_gap {
        rep.findings.push(Finding {
            check: "lock_coverage".to_string(),
            severity: Severity::Warning,
            file: format!("SAN:{}", cc.experiment),
            line: 0,
            function: String::new(),
            message: format!(
                "dynamic sanitizer observed {} lock-order cycle(s), static analysis found {} — \
                 coverage gap (lock identities the static heuristics cannot see, e.g. \
                 sim-side SpinLocks)",
                cc.dynamic_cycles, cc.static_cycles
            ),
            chain: Vec::new(),
        });
    }
    rep.cross_check = Some(cc);
    rep.finalize();
    Ok(rep)
}

/// Follow one root's taint chain to its source. Returns the rendered
/// hop list, the source fn id, and the source hit.
fn walk_chain(
    fns: &[FnItem],
    metas: &[FileMeta],
    reach: &[Option<graph::TaintNode>],
    root: usize,
) -> Option<(Vec<String>, usize, SourceHit)> {
    let mut chain = Vec::new();
    let rf = &fns[root];
    chain.push(format!(
        "{} ({}:{})",
        rf.qualified(),
        metas[rf.file].label,
        rf.line
    ));
    let mut cur = root;
    let mut steps = 0usize;
    loop {
        let node = reach[cur].as_ref()?;
        match node.via {
            Some((next, line)) => {
                let caller_file = &metas[fns[cur].file].label;
                chain.push(format!(
                    "-> calls {} at {}:{}",
                    fns[next].qualified(),
                    caller_file,
                    line
                ));
                cur = next;
            }
            None => {
                let hit = node.src.clone()?;
                chain.push(format!(
                    "-> source: {} at {}:{}",
                    hit.what, metas[fns[cur].file].label, hit.line
                ));
                return Some((chain, cur, hit));
            }
        }
        steps += 1;
        if steps > reach.len() {
            return None;
        }
    }
}

/// The workspace on disk: sources plus the crate dependency map.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub deps: BTreeMap<String, BTreeSet<String>>,
}

/// Load every crate source under `<root>/crates/`, excluding `xtask`
/// (tooling), `target/` and the deliberate-violation `corpus/` fixtures.
/// Also parses each crate manifest into the dependency map.
pub fn load_workspace(root: &Path) -> std::io::Result<Workspace> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let mut manifests: Vec<(String, String)> = Vec::new();
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        if name == "xtask" {
            continue;
        }
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            manifests.push((name, std::fs::read_to_string(&manifest)?));
        }
        walk_rs(&dir, root, &mut files)?;
    }
    files.sort_by(|a, b| a.label.cmp(&b.label));
    Ok(Workspace {
        files,
        deps: parse_deps(&manifests),
    })
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == "corpus" {
                continue;
            }
            walk_rs(&p, root, out)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            let label = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                label,
                text: std::fs::read_to_string(&p)?,
            });
        }
    }
    Ok(())
}

/// Build the crate-dir → dep-crate-dirs map from manifest texts
/// (`(dir name, Cargo.toml text)` pairs).
pub fn parse_deps(manifests: &[(String, String)]) -> BTreeMap<String, BTreeSet<String>> {
    let mut name_to_dir: BTreeMap<String, String> = BTreeMap::new();
    for (dir, text) in manifests {
        if let Some(n) = package_name(text) {
            name_to_dir.insert(n, dir.clone());
        }
    }
    let mut deps = BTreeMap::new();
    for (dir, text) in manifests {
        let mut set: BTreeSet<String> = BTreeSet::new();
        let mut in_deps = false;
        for line in text.lines() {
            let t = line.trim();
            if t.starts_with('[') {
                let sec = t.trim_matches(|c| c == '[' || c == ']');
                in_deps = sec.ends_with("dependencies");
                continue;
            }
            if !in_deps || t.is_empty() || t.starts_with('#') {
                continue;
            }
            let key: String = t
                .chars()
                .take_while(|c| !matches!(c, '=' | '.' | ' ' | '\t'))
                .collect();
            if let Some(d) = name_to_dir.get(&key) {
                set.insert(d.clone());
            }
        }
        deps.insert(dir.clone(), set);
    }
    deps
}

fn package_name(text: &str) -> Option<String> {
    let mut in_package = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
            continue;
        }
        if in_package && t.starts_with("name") {
            let q: Vec<&str> = t.split('"').collect();
            if q.len() >= 2 {
                return Some(q[1].to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(label: &str, text: &str) -> SourceFile {
        SourceFile {
            label: label.to_string(),
            text: text.to_string(),
        }
    }

    #[test]
    fn end_to_end_transitive_determinism_finding() {
        let files = vec![
            sf(
                "crates/sim/src/pdes_window.rs",
                "pub fn advance() { util_step(); }\n",
            ),
            sf(
                "crates/sim/src/util.rs",
                "pub fn util_step() { deep(); }\npub fn deep() { let t = Instant::now(); }\n",
            ),
        ];
        let mut cfg = Config::bare();
        cfg.det_root_prefixes = vec!["crates/sim/src/pdes".into()];
        let rep = analyze(&files, &cfg);
        assert_eq!(rep.errors(), 1, "{}", rep.render_text());
        let f = &rep.findings[0];
        assert_eq!(f.check, "determinism");
        assert_eq!(f.file, "crates/sim/src/util.rs");
        assert_eq!(f.line, 2);
        assert!(f.chain.len() >= 3, "{:?}", f.chain);
    }

    #[test]
    fn exemption_at_source_kills_the_chain() {
        let files = vec![
            sf(
                "crates/sim/src/pdes_window.rs",
                "pub fn advance() { util_step(); }\n",
            ),
            sf(
                "crates/sim/src/util.rs",
                "// lint: allow(determinism): host-only stat, never serialized\npub fn util_step() { let t = Instant::now(); }\n",
            ),
        ];
        let mut cfg = Config::bare();
        cfg.det_root_prefixes = vec!["crates/sim/src/pdes".into()];
        let rep = analyze(&files, &cfg);
        assert_eq!(rep.errors(), 0, "{}", rep.render_text());
        assert_eq!(rep.exempt.len(), 1);
        assert!(rep.exempt[0].reason.contains("host-only"));
    }

    #[test]
    fn sanctioned_pool_spawn_is_clean_but_other_spawn_is_not() {
        let files = vec![
            sf(
                "crates/sim/src/pdes.rs",
                "pub fn run() { pool_go(); rogue(); }\n",
            ),
            sf(
                "crates/sim/src/pdes_pool.rs",
                "pub fn pool_go() { std::thread::spawn(f); }\n",
            ),
            sf(
                "crates/sim/src/other.rs",
                "pub fn rogue() { std::thread::spawn(f); }\n",
            ),
        ];
        let mut cfg = Config::bare();
        cfg.det_root_prefixes = vec!["crates/sim/src/pdes".into()];
        cfg.spawn_sanctioned_files = vec!["crates/sim/src/pdes_pool.rs".into()];
        let rep = analyze(&files, &cfg);
        assert_eq!(rep.errors(), 1, "{}", rep.render_text());
        assert_eq!(rep.findings[0].file, "crates/sim/src/other.rs");
    }

    #[test]
    fn blocking_taint_from_reactor_roots() {
        let files = vec![
            sf(
                "crates/farmd/src/reactor.rs",
                "pub fn handle_readable() { process(); }\n",
            ),
            sf(
                "crates/farmd/src/server.rs",
                "pub fn process() { cv.wait(g); }\n",
            ),
        ];
        let mut cfg = Config::bare();
        cfg.blocking_root_files = vec!["crates/farmd/src/reactor.rs".into()];
        let rep = analyze(&files, &cfg);
        assert_eq!(rep.errors(), 1, "{}", rep.render_text());
        assert_eq!(rep.findings[0].check, "blocking");
        assert_eq!(rep.findings[0].file, "crates/farmd/src/server.rs");
    }

    #[test]
    fn integration_test_files_are_test_code() {
        let files = vec![
            sf(
                "crates/sim/src/pdes.rs",
                "pub fn run() { step(); }\npub fn step() {}\n",
            ),
            sf(
                "crates/sim/tests/e2e.rs",
                "pub fn run() { let t = Instant::now(); }\n",
            ),
        ];
        let mut cfg = Config::bare();
        cfg.det_root_prefixes = vec!["crates/sim/src/pdes".into()];
        let rep = analyze(&files, &cfg);
        assert_eq!(rep.errors(), 0, "{}", rep.render_text());
    }

    #[test]
    fn lock_cycle_becomes_warning_not_error() {
        let files = vec![sf(
            "crates/farmd/src/server.rs",
            "
pub fn ab() { let a = self.alpha.lock(); let b = self.beta.lock(); }
pub fn ba() { let b = self.beta.lock(); let a = self.alpha.lock(); }
",
        )];
        let rep = analyze(&files, &Config::bare());
        assert_eq!(rep.errors(), 0);
        assert_eq!(rep.warnings(), 1);
        assert_eq!(rep.findings[0].check, "lock_order");
    }

    #[test]
    fn report_is_byte_stable() {
        let files = vec![
            sf(
                "crates/sim/src/pdes.rs",
                "pub fn run() { let m: HashMap<u32,u32> = HashMap::new(); }\n",
            ),
            sf(
                "crates/farmd/src/server.rs",
                "pub fn ab() { let a = x.lock(); let b = y.lock(); }\n",
            ),
        ];
        let mut cfg = Config::bare();
        cfg.det_root_prefixes = vec!["crates/sim/src/pdes".into()];
        let j1 = analyze(&files, &cfg).to_json();
        let j2 = analyze(&files, &cfg).to_json();
        assert_eq!(j1, j2);
    }

    #[test]
    fn deps_map_parses_manifest_shapes() {
        let manifests = vec![
            (
                "sim".to_string(),
                "[package]\nname = \"bfly-sim\"\n[dependencies]\nbfly-snap = { path = \"../snap\" }\nbfly-collections.workspace = true\n".to_string(),
            ),
            (
                "snap".to_string(),
                "[package]\nname = \"bfly-snap\"\n[dependencies]\n".to_string(),
            ),
            (
                "collections".to_string(),
                "[package]\nname = \"bfly-collections\"\n".to_string(),
            ),
        ];
        let deps = parse_deps(&manifests);
        assert_eq!(
            deps["sim"],
            ["snap".to_string(), "collections".to_string()]
                .into_iter()
                .collect::<BTreeSet<_>>()
        );
        assert!(deps["snap"].is_empty());
    }
}
