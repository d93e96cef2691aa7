//! The metric definitions (read from `BENCHMARK.json`, so names, units,
//! directions and bounds live in one place) and the per-workload record
//! every workload fills in.

use std::collections::BTreeMap;

use bfly_farmd::json::{self, Value};

/// `BENCHMARK.json`, compiled in: the benchmark and its metric list cannot
/// drift apart.
const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median a metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> Spec {
        let v = json::parse(SPEC_JSON).expect("BENCHMARK.json is valid JSON");
        let metrics = |key: &str| -> Vec<MetricSpec> {
            v.get(key)
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
                .iter()
                .map(|m| MetricSpec {
                    name: str_field(m, "name"),
                    unit: str_field(m, "unit"),
                    higher_is_better: str_field(m, "better") == "higher",
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Spec {
            workloads: v
                .get("workloads")
                .and_then(Value::as_arr)
                .expect("BENCHMARK.json lacks `workloads`")
                .iter()
                .map(|w| str_field(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The metrics a run reports: end-to-end untraced, per-layer traced.
    pub fn reported(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn str_field(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks `{key}`"))
        .to_string()
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Record {
    /// Operations attempted (sweep points, or requests of the fixed
    /// stages).
    pub attempted: u64,
    /// Operations that failed a check, were refused, or did not finish.
    pub failed: u64,
    /// Failed output checks; empty means the outputs are correct.
    pub errors: Vec<String>,
    /// Reasons the measurement itself is untrustworthy (the generator
    /// fell behind its schedule); the outputs may still be correct.
    pub invalid: Vec<String>,
    /// Measured metric values, in the units `BENCHMARK.json` names.
    pub metrics: BTreeMap<String, f64>,
    /// Extra numbers kept in the run file but not gated.
    pub detail: BTreeMap<String, Value>,
}

impl Record {
    /// Record a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Set an ungated detail number.
    pub fn detail(&mut self, name: &str, value: f64) {
        self.detail.insert(name.to_string(), Value::Num(value));
    }

    /// The record as the JSON object a child hands its parent and the
    /// run file keeps. Only the metrics `BENCHMARK.json` lists for this
    /// mode are emitted; a per-layer metric the workload does not
    /// exercise reads 0. An end-to-end metric is missing only when a
    /// check already failed (the run never got to measure it); otherwise
    /// its absence is a benchmark bug.
    pub fn to_value(&self, spec: &Spec, trace: bool) -> Value {
        let mut metrics = BTreeMap::new();
        for m in spec.reported(trace) {
            let value = match self.metrics.get(&m.name) {
                Some(v) => *v,
                None if trace => 0.0,
                None if !self.errors.is_empty() => continue,
                None => panic!("workload did not measure end-to-end metric `{}`", m.name),
            };
            let mut o = BTreeMap::new();
            o.insert("value".to_string(), Value::Num(value));
            o.insert("unit".to_string(), Value::Str(m.unit.clone()));
            metrics.insert(m.name.clone(), Value::Obj(o));
        }
        let strs = |v: &[String]| Value::Arr(v.iter().cloned().map(Value::Str).collect());
        let mut o = BTreeMap::new();
        o.insert("correct".into(), Value::Bool(self.errors.is_empty()));
        o.insert("attempted".into(), Value::Int(self.attempted as i64));
        o.insert("failed".into(), Value::Int(self.failed as i64));
        o.insert("ops".into(), Value::Int(self.attempted as i64));
        o.insert("ops_failed".into(), Value::Int(self.failed as i64));
        o.insert("valid".into(), Value::Bool(self.invalid.is_empty()));
        o.insert("errors".into(), strs(&self.errors));
        o.insert("invalid".into(), strs(&self.invalid));
        o.insert("metrics".into(), Value::Obj(metrics));
        o.insert("detail".into(), Value::Obj(self.detail.clone()));
        Value::Obj(o)
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .expect("VmHWM is readable from /proc/self/status")
}

/// FNV-1a over table rows (cells joined by `|`, rows by `\n`): the
/// digest the seed-7 references pin.
pub fn rows_digest(rows: &[Vec<String>]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for b in row.join("|").bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
