//! Findings, ranking, and the schema-pinned `bfly-lint/1` report.
//!
//! Emission rules for byte-stability: every collection is sorted before
//! writing, there are no timestamps or absolute paths, and numbers are
//! plain integers — two runs over the same tree produce identical bytes.

use bfly_json::quote;

use crate::checks::Exemption;
use crate::locks::{CrossCheck, LockGraph};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Error,
    Warning,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    pub check: String,
    pub severity: Severity,
    pub file: String,
    pub line: u32,
    /// Qualified function name, empty when file-scoped.
    pub function: String,
    pub message: String,
    /// Taint chain, outermost root first (`Type::fn (file:line)`).
    pub chain: Vec<String>,
}

/// The full analysis result.
#[derive(Debug)]
pub struct Report {
    pub files: usize,
    pub functions: usize,
    pub call_edges: usize,
    pub use_edges: usize,
    pub findings: Vec<Finding>,
    /// Exemptions that suppressed a real violation, with their reasons.
    pub exempt: Vec<Exemption>,
    pub lock_graph: LockGraph,
    pub cross_check: Option<CrossCheck>,
}

impl Report {
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }

    /// Rank findings (errors first, then check/file/line) and sort the
    /// exemption list; call once before emission.
    pub fn finalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.severity, &a.check, &a.file, a.line, &a.message)
                .cmp(&(b.severity, &b.check, &b.file, b.line, &b.message))
        });
        self.exempt
            .sort_by(|a, b| (&a.file, a.line, &a.check).cmp(&(&b.file, b.line, &b.check)));
    }

    /// Human-readable rendering for terminal output.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}: [{}] {}:{}{} — {}\n",
                f.severity.as_str(),
                f.check,
                f.file,
                f.line,
                if f.function.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", f.function)
                },
                f.message
            ));
            for (i, hop) in f.chain.iter().enumerate() {
                out.push_str(&format!("    {}{}\n", "  ".repeat(i), hop));
            }
        }
        out.push_str(&format!(
            "lint: {} file(s), {} fn(s), {} call edge(s) — {} error(s), {} warning(s), {} exemption(s)\n",
            self.files,
            self.functions,
            self.call_edges,
            self.errors(),
            self.warnings(),
            self.exempt.len()
        ));
        if let Some(cc) = &self.cross_check {
            out.push_str(&format!(
                "lock cross-check vs {} ({}): dynamic {} lock(s) {} edge(s) {} cycle(s) | static {} lock(s) {} edge(s) {} cycle(s){}\n",
                cc.experiment,
                cc.san_schema,
                cc.dynamic_locks,
                cc.dynamic_edges,
                cc.dynamic_cycles,
                cc.static_locks,
                cc.static_edges,
                cc.static_cycles,
                if cc.coverage_gap { " — COVERAGE GAP" } else { "" }
            ));
        }
        out
    }

    /// The schema-pinned JSON report (`bfly-lint/1`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"bfly-lint/1\",\n");
        s.push_str(&format!("  \"files\": {},\n", self.files));
        s.push_str(&format!("  \"functions\": {},\n", self.functions));
        s.push_str(&format!("  \"call_edges\": {},\n", self.call_edges));
        s.push_str(&format!("  \"use_edges\": {},\n", self.use_edges));
        s.push_str(&format!("  \"errors\": {},\n", self.errors()));
        s.push_str(&format!("  \"warnings\": {},\n", self.warnings()));
        s.push_str(&format!("  \"exempt_count\": {},\n", self.exempt.len()));

        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\"check\": {}, ", quote(&f.check)));
            s.push_str(&format!("\"severity\": \"{}\", ", f.severity.as_str()));
            s.push_str(&format!("\"file\": {}, ", quote(&f.file)));
            s.push_str(&format!("\"line\": {}, ", f.line));
            s.push_str(&format!("\"function\": {}, ", quote(&f.function)));
            s.push_str(&format!("\"message\": {}, ", quote(&f.message)));
            s.push_str("\"chain\": [");
            for (j, hop) in f.chain.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&quote(hop));
            }
            s.push_str("]}");
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");

        s.push_str("  \"exempt\": [");
        for (i, e) in self.exempt.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\"check\": {}, ", quote(&e.check)));
            s.push_str(&format!("\"file\": {}, ", quote(&e.file)));
            s.push_str(&format!("\"line\": {}, ", e.line));
            s.push_str(&format!("\"reason\": {}", quote(&e.reason)));
            s.push('}');
        }
        if !self.exempt.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");

        s.push_str("  \"lock_graph\": {\n");
        s.push_str("    \"locks\": [");
        for (i, l) in self.lock_graph.locks.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&quote(l));
        }
        s.push_str("],\n");
        s.push_str("    \"edges\": [");
        for (i, e) in self.lock_graph.edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n      {");
            s.push_str(&format!("\"from\": {}, ", quote(&e.from)));
            s.push_str(&format!("\"to\": {}, ", quote(&e.to)));
            s.push_str(&format!("\"fn\": {}, ", quote(&e.in_fn)));
            s.push_str(&format!("\"file\": {}, ", quote(&e.file)));
            s.push_str(&format!("\"line\": {}, ", e.line));
            s.push_str(&format!("\"cross_fn\": {}", e.cross_fn));
            s.push('}');
        }
        if !self.lock_graph.edges.is_empty() {
            s.push_str("\n    ");
        }
        s.push_str("],\n");
        s.push_str("    \"cycles\": [");
        for (i, c) in self.lock_graph.cycles.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push('[');
            for (j, l) in c.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&quote(l));
            }
            s.push(']');
        }
        s.push_str("]\n");
        s.push_str("  },\n");

        match &self.cross_check {
            None => s.push_str("  \"san_cross_check\": null\n"),
            Some(cc) => {
                s.push_str("  \"san_cross_check\": {\n");
                s.push_str(&format!("    \"san_schema\": {},\n", quote(&cc.san_schema)));
                s.push_str(&format!("    \"experiment\": {},\n", quote(&cc.experiment)));
                s.push_str(&format!(
                    "    \"dynamic\": {{\"locks\": {}, \"edges\": {}, \"cycles\": {}}},\n",
                    cc.dynamic_locks, cc.dynamic_edges, cc.dynamic_cycles
                ));
                s.push_str(&format!(
                    "    \"static\": {{\"locks\": {}, \"edges\": {}, \"cycles\": {}}},\n",
                    cc.static_locks, cc.static_edges, cc.static_cycles
                ));
                s.push_str(&format!("    \"coverage_gap\": {}\n", cc.coverage_gap));
                s.push_str("  }\n");
            }
        }
        s.push('}');
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::LockGraph;

    fn sample() -> Report {
        Report {
            files: 2,
            functions: 5,
            call_edges: 4,
            use_edges: 3,
            findings: vec![
                Finding {
                    check: "determinism".into(),
                    severity: Severity::Warning,
                    file: "b.rs".into(),
                    line: 9,
                    function: "g".into(),
                    message: "warn".into(),
                    chain: vec![],
                },
                Finding {
                    check: "unwrap".into(),
                    severity: Severity::Error,
                    file: "a.rs".into(),
                    line: 3,
                    function: "f".into(),
                    message: "err \"quoted\"".into(),
                    chain: vec!["f (a.rs:3)".into(), "h (a.rs:9)".into()],
                },
            ],
            exempt: vec![Exemption {
                file: "c.rs".into(),
                line: 1,
                check: "blocking".into(),
                reason: "shutdown drain".into(),
            }],
            lock_graph: LockGraph::default(),
            cross_check: None,
        }
    }

    #[test]
    fn finalize_ranks_errors_first() {
        let mut r = sample();
        r.finalize();
        assert_eq!(r.findings[0].severity, Severity::Error);
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
    }

    #[test]
    fn json_is_stable_across_runs() {
        let mut r1 = sample();
        r1.finalize();
        let mut r2 = sample();
        r2.finalize();
        assert_eq!(r1.to_json(), r2.to_json());
    }

    #[test]
    fn json_schema_key_order_is_pinned() {
        let mut r = sample();
        r.finalize();
        let j = r.to_json();
        let keys = [
            "\"schema\"",
            "\"files\"",
            "\"functions\"",
            "\"call_edges\"",
            "\"use_edges\"",
            "\"errors\"",
            "\"warnings\"",
            "\"exempt_count\"",
            "\"findings\"",
            "\"exempt\"",
            "\"lock_graph\"",
            "\"san_cross_check\"",
        ];
        let mut pos = 0;
        for k in keys {
            let p = j.find(k).unwrap_or_else(|| panic!("missing key {k}"));
            assert!(p > pos, "key {k} out of order");
            pos = p;
        }
        assert!(j.contains("\"schema\": \"bfly-lint/1\""));
        // Escaping survives round-trip through our own reader.
        let v = crate::json::parse(&j).expect("self-parse");
        assert_eq!(v.get("errors").unwrap().as_u64(), Some(1));
    }
}
