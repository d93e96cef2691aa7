//! T16 — contention attribution from probe data (no direct paper table;
//! re-derives the paper's *explanations* as measurements).
//!
//! Two findings the prose of §2.1/§4.1 asserts, re-derived here from the
//! `bfly-probe` counters instead of end-to-end timings:
//!
//! * **Finding 3** (cycle stealing): under a T3-style spin-lock storm, the
//!   stolen-cycle matrix pins ≥90 % of all stolen memory cycles to the
//!   lock's *home* node, even with unrelated remote traffic running
//!   elsewhere on the machine.
//! * **Findings 5/6** (switch vs memory): under a T6-style hot-spot on the
//!   detailed switch model, mean switch-port queueing per hop is < 5 % of
//!   the hot node's mean memory queueing — switch contention "rendered
//!   almost negligible" while the memory hot-spot dominates.
//!
//! Both claims are `assert!`ed, so the `tab16_attribution` binary doubles
//! as an acceptance test for the probe subsystem.

use std::cell::Cell;
use std::rc::Rc;

use bfly_chrysalis::Os;
use bfly_machine::{Machine, MachineConfig, SwitchModel};
use bfly_probe::Probe;
use bfly_sim::Sim;

use crate::report::EngineStats;
use crate::{Scale, Table};

/// T16 — probe-based contention attribution.
pub fn tab16_attribution(scale: Scale) -> Table {
    tab16_attribution_run(scale).0
}

/// [`tab16_attribution`] plus aggregated engine counters (for `--stats`).
pub fn tab16_attribution_run(scale: Scale) -> (Table, EngineStats) {
    let (t, e, _) = tab16_attribution_full(scale);
    (t, e)
}

/// Full form: also returns the Part-A probe so the binary can always
/// export `PROBE_tab16_attribution.json`, with or without `--probe`.
pub fn tab16_attribution_full(scale: Scale) -> (Table, EngineStats, Probe) {
    let mut t = Table::new(
        "T16: contention attribution via bfly-probe \
         (paper: cycles stolen at the lock's home node; switch queueing negligible)",
        &["measurement", "value", "requirement / paper"],
    );
    let mut engine = EngineStats::default();

    // ---- Part A: T3-style spin storm, who steals from whom --------------
    let probe = Probe::new();
    {
        let sim = Sim::new();
        let m = Machine::new(&sim, MachineConfig::rochester());
        m.attach_probe(&probe);
        let os = Os::boot(&m);
        let lock_word = m.node(0).alloc(4).unwrap();
        m.poke_u32(lock_word, 1); // held for the whole experiment
        let data = m.node(0).alloc(64).unwrap();
        let done = Rc::new(Cell::new(false));
        const SPINNERS: u16 = 64;
        for s in 1..=SPINNERS {
            let done = done.clone();
            os.boot_process(s, &format!("spin{s}"), move |p| async move {
                while !done.get() {
                    if p.test_and_set(lock_word).await == 0 {
                        break;
                    }
                }
            });
        }
        // Unrelated background traffic to far nodes, so the ≥90 % share is
        // a real measurement against competing theft, not 100 % because
        // node 0 is the only remote target.
        let bg_refs: u32 = scale.pick(400, 80);
        for i in 0..8u16 {
            let word = m.node(96 + i).alloc(4).unwrap();
            os.boot_process(80 + i, &format!("bg{i}"), move |p| async move {
                for _ in 0..bg_refs {
                    p.read_u32(word).await;
                }
            });
        }
        let local_refs: u32 = scale.pick(1_500, 300);
        let done2 = done.clone();
        os.boot_process(0, "victim", move |p| async move {
            for _ in 0..local_refs {
                p.read_u32(data).await;
            }
            done2.set(true);
        });
        engine.add(&sim.run());
    }
    let attr = probe.attribution();
    let share0 = attr.victim_share(0);
    let top = attr.top_victim().expect("spinners must have stolen cycles");
    assert_eq!(top.victim, 0, "the lock's home node must be the top victim");
    assert!(
        attr.victims.len() > 1,
        "background traffic must register as competing theft"
    );
    assert!(
        share0 >= 0.90,
        "finding 3: >=90% of stolen cycles must land at the lock's home \
         node (got {:.1}%)",
        share0 * 100.0
    );
    let (thief, thief_ns) = top.top_thief.expect("a top thief exists");
    assert!(
        (1..=64).contains(&thief),
        "the top thief must be one of the spinners (got node {thief})"
    );
    t.row(vec![
        "A: stolen cycles machine-wide".into(),
        format!("{:.2} ms", attr.total_stolen_ns as f64 / 1e6),
        "spin storm + background traffic".into(),
    ]);
    t.row(vec![
        "A: share stolen at lock home (node 0)".into(),
        format!("{:.1}%", share0 * 100.0),
        ">= 90% (finding 3)".into(),
    ]);
    t.row(vec![
        "A: top thief".into(),
        format!("node {thief} ({:.2} ms)", thief_ns as f64 / 1e6),
        "a spinner (nodes 1-64)".into(),
    ]);

    // ---- Part B: T6-style hot-spot, switch vs memory queueing -----------
    let refs_per_proc: u32 = scale.pick(200, 40);
    let mut hot_ratio = f64::NAN;
    for &hotspot in &[true, false] {
        let pb = Probe::new();
        let sim = Sim::with_seed(42);
        let m = Machine::new(
            &sim,
            MachineConfig::rochester().with_switch(SwitchModel::Detailed),
        );
        m.attach_probe(&pb);
        let os = Os::boot(&m);
        let words: Rc<Vec<_>> = Rc::new((0..128u16).map(|n| m.node(n).alloc(4).unwrap()).collect());
        for p in 0..64u16 {
            let words = words.clone();
            os.boot_process(p, &format!("t{p}"), move |proc_| async move {
                let mut rng = bfly_sim::SplitMix64::new(p as u64 * 77 + 1);
                for _ in 0..refs_per_proc {
                    let dst = if hotspot {
                        words[0]
                    } else {
                        words[rng.next_below(128) as usize]
                    };
                    proc_.read_u32(dst).await;
                }
            });
        }
        engine.add(&sim.run());
        let sw_mean = pb.switch_wait_ns() as f64 / pb.switch_hops().max(1) as f64;
        let (mut wait, mut served) = (0u64, 0u64);
        for n in 0..128u16 {
            let q = pb.mem_queue_stats(n);
            wait += q.wait_ns.get();
            served += q.served.get();
        }
        let mem_mean = wait as f64 / served.max(1) as f64;
        let hot_mean = pb.mem_queue_stats(0).mean_wait_ns();
        let label = if hotspot { "hot-spot" } else { "uniform" };
        t.row(vec![
            format!("B {label}: mem wait/req (all nodes)"),
            format!("{mem_mean:.0} ns"),
            "memory is the contended server".into(),
        ]);
        if hotspot {
            hot_ratio = sw_mean / hot_mean;
            t.row(vec![
                "B hot-spot: mem wait/req at node 0".into(),
                format!("{hot_mean:.0} ns"),
                "the hot-spot (findings 5/6)".into(),
            ]);
            t.row(vec![
                "B hot-spot: switch wait/hop".into(),
                format!("{sw_mean:.0} ns"),
                "\"rendered almost negligible\"".into(),
            ]);
            t.row(vec![
                "B hot-spot: switch/mem queueing ratio".into(),
                format!("{:.2}%", hot_ratio * 100.0),
                "< 5% (findings 5/6)".into(),
            ]);
        } else {
            t.row(vec![
                "B uniform: switch wait/hop".into(),
                format!("{sw_mean:.0} ns"),
                "low under random traffic too".into(),
            ]);
        }
    }
    assert!(
        hot_ratio < 0.05,
        "findings 5/6: mean switch-port queueing must be < 5% of hot-spot \
         memory queueing (got {:.2}%)",
        hot_ratio * 100.0
    );

    (t, engine, probe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab16_findings_hold_at_quick_scale() {
        // The assertions inside are the acceptance criteria; this test
        // just runs them at quick scale and sanity-checks the export.
        let (t, engine, probe) = tab16_attribution_full(Scale::quick());
        assert!(engine.sims >= 3);
        assert!(t.to_json().contains("T16"));
        let js = probe.summary_json("tab16_attribution");
        bfly_json::parse(&js).unwrap();
        assert!(js.contains("\"total_stolen_ns\""));
    }
}
