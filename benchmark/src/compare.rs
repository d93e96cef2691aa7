//! `compare`: two sets of run files, per workload and end-to-end metric.
//!
//! For each set it prints the median and quartiles. A metric whose
//! medians differ by more than its bound is flagged; a metric whose
//! spread within either set (quartile distance over median) is wider
//! than its bound is *unresolved* — unless every run of B reads better,
//! or every run worse, than every run of A.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use bfly_farmd::json::{self, Value};

use crate::record::Spec;
use crate::stats::quartiles;

/// One set: `(workload, metric) → values`, plus per-workload counts of
/// runs that were incorrect, invalid, or had failed operations.
#[derive(Default)]
pub struct RunSet {
    pub files: usize,
    values: BTreeMap<(String, String), Vec<f64>>,
    flags: BTreeMap<String, (u64, u64, u64)>,
}

impl RunSet {
    /// Load every `*.json` run file in `path` (a directory) or `path`
    /// itself (a file).
    pub fn load(path: &Path) -> Result<RunSet, String> {
        let files: Vec<_> = if path.is_dir() {
            let mut v: Vec<_> = std::fs::read_dir(path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            v.sort();
            v
        } else {
            vec![path.to_path_buf()]
        };
        let mut set = RunSet::default();
        for f in files {
            let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            let v = json::parse(&text).map_err(|e| format!("{}: {}", f.display(), e.1))?;
            let Some(ws) = v.get("workloads").and_then(Value::as_obj) else {
                return Err(format!("{}: not a run file (no `workloads`)", f.display()));
            };
            set.files += 1;
            for (w, rec) in ws {
                let correct = rec.get("correct").and_then(Value::as_bool) == Some(true);
                let valid = rec.get("valid").and_then(Value::as_bool) == Some(true);
                let ops_failed = rec.get("ops_failed").and_then(Value::as_u64).unwrap_or(0);
                let flags = set.flags.entry(w.clone()).or_default();
                flags.0 += u64::from(!correct);
                flags.1 += u64::from(!valid);
                flags.2 += ops_failed;
                if !correct {
                    continue;
                }
                for (m, mv) in rec
                    .get("metrics")
                    .and_then(Value::as_obj)
                    .into_iter()
                    .flatten()
                {
                    if let Some(x) = mv.get("value").and_then(Value::as_f64) {
                        set.values
                            .entry((w.clone(), m.clone()))
                            .or_default()
                            .push(x);
                    }
                }
            }
        }
        Ok(set)
    }
}

/// Outcome of one comparison.
pub struct Verdicts {
    pub report: String,
    pub regressions: usize,
}

/// Compare set `b` against baseline set `a` under `spec`'s bounds.
pub fn compare(spec: &Spec, a: &RunSet, b: &RunSet) -> Verdicts {
    let mut out = String::new();
    let mut regressions = 0;
    let mut unresolved = 0;
    let _ = writeln!(out, "A: {} run files   B: {} run files", a.files, b.files);
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:>4} {:>11} {:>23} {:>11} {:>23} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "B/A-1",
        "bound"
    );
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (w.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (a1, am, a3) = quartiles(va);
            let (b1, bm, b3) = quartiles(vb);
            let bound = m.bound.unwrap_or(0.0);
            let delta = bm / am - 1.0;
            // Positive = B worse.
            let worse = if m.higher_is_better { -delta } else { delta };
            let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
            let better_all = |x: f64, y: f64| if m.higher_is_better { x > y } else { x < y };
            let separated = vb.iter().all(|&y| va.iter().all(|&x| better_all(y, x)))
                || vb.iter().all(|&y| va.iter().all(|&x| better_all(x, y)));
            let verdict = if spread > bound && !separated {
                unresolved += 1;
                "unresolved (spread > bound)"
            } else if worse > bound {
                regressions += 1;
                "REGRESSION"
            } else if -worse > bound {
                "improved"
            } else {
                "within bound"
            };
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:>4} {:>11.4} [{:>10.4}, {:>10.4}] {:>11.4} [{:>10.4}, {:>10.4}] {:>+7.1}% {:>5.0}%  {verdict}",
                w, m.name, m.unit, am, a1, a3, bm, b1, b3, delta * 100.0, bound * 100.0
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<12} {:>22} {:>22}",
        "workload", "A incorrect/invalid/failed-ops", "B incorrect/invalid/failed-ops"
    );
    for w in &spec.workloads {
        let f = |s: &RunSet| {
            let (x, y, z) = s.flags.get(w).copied().unwrap_or_default();
            format!("{x}/{y}/{z}")
        };
        let _ = writeln!(out, "{:<12} {:>30} {:>30}", w, f(a), f(b));
    }
    let _ = writeln!(
        out,
        "\n{regressions} regression(s), {unresolved} unresolved metric(s)"
    );
    Verdicts {
        report: out,
        regressions,
    }
}
