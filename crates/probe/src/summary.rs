//! Contention attribution and the machine-readable `PROBE_<exp>.json`
//! summary (schema `bfly-probe/1`).

use std::fmt::Write as _;

use crate::{Probe, MAX_NODES};
use bfly_json::push_json_str;

/// One victim's row in the contention-attribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimRow {
    /// Node whose memory cycles were stolen.
    pub victim: u16,
    /// Total stolen ns at this node.
    pub stolen_ns: u64,
    /// Fraction of all stolen ns machine-wide that landed here.
    pub share: f64,
    /// Worst offender `(thief, ns)`, if any.
    pub top_thief: Option<(u16, u64)>,
}

/// Per-node contention attribution: who stole whose memory cycles.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Total stolen ns across the machine.
    pub total_stolen_ns: u64,
    /// Non-zero victims, sorted by stolen ns descending (ties by node id).
    pub victims: Vec<VictimRow>,
}

impl Attribution {
    /// Fraction of all stolen cycles that landed at `node` (0.0 if nothing
    /// was stolen anywhere).
    pub fn victim_share(&self, node: u16) -> f64 {
        self.victims
            .iter()
            .find(|v| v.victim == node)
            .map(|v| v.share)
            .unwrap_or(0.0)
    }

    /// The node that lost the most cycles, if any were stolen.
    pub fn top_victim(&self) -> Option<&VictimRow> {
        self.victims.first()
    }
}

pub(crate) fn build_attribution(probe: &Probe) -> Attribution {
    let total: u64 = probe.total_stolen_ns();
    let mut victims = Vec::new();
    for victim in 0..MAX_NODES as u16 {
        let stolen = probe.node(victim).mem_stolen_ns.get();
        if stolen == 0 {
            continue;
        }
        let mut top_thief: Option<(u16, u64)> = None;
        for thief in 0..MAX_NODES as u16 {
            let ns = probe.stolen_ns(victim, thief);
            if ns > 0 && top_thief.is_none_or(|(_, best)| ns > best) {
                top_thief = Some((thief, ns));
            }
        }
        victims.push(VictimRow {
            victim,
            stolen_ns: stolen,
            share: if total == 0 {
                0.0
            } else {
                stolen as f64 / total as f64
            },
            top_thief,
        });
    }
    victims.sort_by(|a, b| b.stolen_ns.cmp(&a.stolen_ns).then(a.victim.cmp(&b.victim)));
    Attribution {
        total_stolen_ns: total,
        victims,
    }
}

pub(crate) fn summary_json(probe: &Probe, experiment: &str) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"schema\": \"bfly-probe/1\",\n  \"experiment\": ");
    push_json_str(&mut out, experiment);
    out.push_str(",\n");

    // Per-node counters — only nodes that saw any activity.
    out.push_str("  \"nodes\": [");
    let mut first = true;
    for id in 0..MAX_NODES as u16 {
        let n = probe.node(id);
        let q = probe.mem_queue_stats(id);
        let active = n.local_refs.get() != 0
            || n.remote_out.get() != 0
            || n.remote_in.get() != 0
            || n.lock_acquires.get() != 0
            || n.alloc_ops.get() != 0
            || n.tasks_claimed.get() != 0
            || n.msgs_sent.get() != 0
            || q.arrivals.get() != 0;
        if !active {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    {{\"node\": {id}, \"local_refs\": {}, \"remote_out\": {}, \"remote_in\": {}, \
             \"mem_local_ns\": {}, \"mem_stolen_ns\": {}, \
             \"lock_acquires\": {}, \"lock_spin_attempts\": {}, \"lock_spin_ns\": {}, \
             \"alloc_ops\": {}, \"alloc_wait_ns\": {}, \"alloc_hold_ns\": {}, \"alloc_serial_ns\": {}, \
             \"tasks_claimed\": {}, \"msgs_sent\": {}, \"msg_bytes\": {}, \
             \"mem_queue\": {{\"arrivals\": {}, \"served\": {}, \"wait_ns\": {}, \"busy_ns\": {}, \
             \"max_depth\": {}, \"depth_hist\": [{}]}}}}",
            n.local_refs.get(),
            n.remote_out.get(),
            n.remote_in.get(),
            n.mem_local_ns.get(),
            n.mem_stolen_ns.get(),
            n.lock_acquires.get(),
            n.lock_spin_attempts.get(),
            n.lock_spin_ns.get(),
            n.alloc_ops.get(),
            n.alloc_wait_ns.get(),
            n.alloc_hold_ns.get(),
            n.alloc_serial_ns.get(),
            n.tasks_claimed.get(),
            n.msgs_sent.get(),
            n.msg_bytes.get(),
            q.arrivals.get(),
            q.served.get(),
            q.wait_ns.get(),
            q.busy_ns.get(),
            q.max_depth.get(),
            q.depth_hist
                .iter()
                .map(|c| c.get().to_string())
                .collect::<Vec<_>>()
                .join(", "),
        );
    }
    out.push_str("\n  ],\n");

    // Contention attribution.
    let attr = probe.attribution();
    let _ = write!(
        out,
        "  \"attribution\": {{\n    \"total_stolen_ns\": {},\n    \"victims\": [",
        attr.total_stolen_ns
    );
    for (i, v) in attr.victims.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n      {{\"victim\": {}, \"stolen_ns\": {}, \"share\": {:.6}",
            v.victim, v.stolen_ns, v.share
        );
        if let Some((thief, ns)) = v.top_thief {
            let _ = write!(out, ", \"top_thief\": {thief}, \"top_thief_ns\": {ns}");
        }
        out.push('}');
    }
    out.push_str("\n    ]\n  },\n");

    // Switch ports.
    out.push_str("  \"switch_ports\": [");
    let ports = probe.switch_ports();
    for (i, ((stage, port), p)) in ports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"stage\": {stage}, \"port\": {port}, \"hops\": {}, \"wait_ns\": {}, \
             \"busy_ns\": {}, \"max_depth\": {}, \"depth_hist\": [{}]}}",
            p.hops,
            p.wait_ns,
            p.busy_ns,
            p.max_depth,
            p.depth_hist
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(", "),
        );
    }
    out.push_str("\n  ],\n");

    let tl = probe.timeline();
    let _ = write!(
        out,
        "  \"timeline\": {{\"spans\": {}, \"instants\": {}, \"dropped\": {}}}\n}}\n",
        tl.span_count(),
        tl.instant_count(),
        tl.dropped()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_json::parse;

    #[test]
    fn attribution_ranks_victims_and_finds_top_thief() {
        let p = Probe::new();
        p.remote_ref(5, 0, 3_000); // thief 5 steals 3µs from node 0
        p.remote_ref(6, 0, 1_000);
        p.remote_ref(5, 2, 500);
        let attr = p.attribution();
        assert_eq!(attr.total_stolen_ns, 4_500);
        assert_eq!(attr.victims.len(), 2);
        assert_eq!(attr.victims[0].victim, 0);
        assert_eq!(attr.victims[0].stolen_ns, 4_000);
        assert_eq!(attr.victims[0].top_thief, Some((5, 3_000)));
        assert!((attr.victim_share(0) - 4_000.0 / 4_500.0).abs() < 1e-12);
        assert_eq!(attr.top_victim().unwrap().victim, 0);
        assert_eq!(attr.victim_share(7), 0.0);
    }

    #[test]
    fn summary_json_is_valid_and_carries_schema() {
        let p = Probe::new();
        p.local_ref(0, 500);
        p.remote_ref(3, 0, 1_000);
        p.switch_hop(0, 1, 25, 300, 1);
        p.lock_spin(0, 3, 17, 40_000);
        p.alloc_op(0, 100, 2_000, true);
        p.task_claimed(3);
        p.msg_send(3, 0, 64);
        p.span(0, 3, "lock_acquire", "lock", 0, 40_000);
        let js = p.summary_json("unit_test");
        parse(&js).unwrap_or_else(|(pos, msg)| panic!("invalid summary at {pos}: {msg}"));
        assert!(js.contains("\"schema\": \"bfly-probe/1\""));
        assert!(js.contains("\"experiment\": \"unit_test\""));
        assert!(js.contains("\"total_stolen_ns\": 1000"));
        assert!(js.contains("\"top_thief\": 3"));
        assert!(js.contains("\"stage\": 0"));
        assert!(js.contains("\"spans\": 1"));
        // Node 1 saw nothing — must not appear.
        assert!(!js.contains("\"node\": 1,"));
    }

    #[test]
    fn empty_probe_summary_is_valid() {
        let p = Probe::new();
        let js = p.summary_json("empty");
        parse(&js).unwrap();
        assert!(js.contains("\"total_stolen_ns\": 0"));
    }
}
