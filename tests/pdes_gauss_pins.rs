//! Golden pins for the T22 PDES gauss model, and its agreement with the
//! task-executor gauss on what the paper measures.
//!
//! `tests/pdes_determinism.rs` compares serial with parallel runs of the
//! *same* code, so a change that drifts both executors alike passes it.
//! The constants below were captured once from the engine and model and
//! pin the simulated outcome itself: completion time, message and event
//! counts, the full-state digest, and the content hash of a mid-run
//! snapshot taken while pivot rows are still in flight and stashed. A
//! host-side optimisation of the engine or the model (payload sharing,
//! loop shape, stash layout) must leave every one of them unchanged.

use bfly_apps::gauss::gauss_smp;
use bfly_apps::pdes_gauss::{pdes_gauss, pdes_gauss_sim, K_PIVOT};

/// `(p, time_ns, msgs, events, digest)` of `pdes_gauss(p, 48, 7, 128, 1)`.
const POINTS: [(u32, u64, u64, u64, u64); 3] = [
    (1, 60_761_600, 0, 49, 0x896b_8c91_5390_32e4),
    (5, 13_835_200, 192, 437, 0xaddc_f6cc_4da0_ead7),
    (16, 5_532_800, 720, 1504, 0x4f06_36c3_0292_00a7),
];

/// Virtual-time cut of the pinned mid-run snapshot of
/// `pdes_gauss_sim(5, 48, 7, 128)`.
const SNAP_CUT: u64 = 806_000;
/// [`bfly_sim::pdes::PdesSim::state_hash`] at [`SNAP_CUT`].
const SNAP_HASH: &str = "0beade3697d851faa145f815ab28a874";

#[test]
fn pdes_gauss_points_are_pinned() {
    for (p, time_ns, msgs, events, digest) in POINTS {
        let r = pdes_gauss(p, 48, 7, 128, 1);
        assert!(r.max_err < 1e-6, "p={p} max_err={}", r.max_err);
        assert_eq!(
            (r.time_ns, r.msgs, r.events, r.digest),
            (time_ns, msgs, events, digest),
            "p={p}"
        );
    }
}

/// Number of stashed pivot rows in a gauss node's state words: the
/// header is six words, then `(global index, n+1 row words)` per row,
/// then the stash count.
fn stashed(words: &[u64], n: u32) -> u64 {
    let nrows = words[5] as usize;
    words[6 + nrows * (n as usize + 2)]
}

#[test]
fn pdes_gauss_midrun_snapshot_is_pinned() {
    let mut sim = pdes_gauss_sim(5, 48, 7, 128);
    sim.run_until(SNAP_CUT);
    let in_flight = sim
        .pending_sorted()
        .iter()
        .filter(|ev| ev.kind == K_PIVOT)
        .count();
    let stash: u64 = (0..5).map(|q| stashed(&sim.node_state(q), 48)).sum();
    assert!(in_flight > 0, "the cut must leave pivot rows in flight");
    assert!(stash > 0, "the cut must leave pivot rows stashed");
    assert_eq!(sim.state_hash(), SNAP_HASH);

    // The windowed executor paused at the same cut encodes the same state.
    let mut par = pdes_gauss_sim(5, 48, 7, 128);
    let la = par.lookahead();
    par.run_parallel_until(2, la, SNAP_CUT);
    assert_eq!(par.state_hash(), SNAP_HASH);
}

/// ROADMAP item 4: the task-executor SMP gauss and the PDES gauss agree on
/// what the paper measures — `N·(P−1)` pivot messages, the `P·N` term of
/// Figure 5 — and both solve their system to `x_i = i + 1`. Their
/// simulated times differ by design (DESIGN.md §17).
#[test]
fn smp_and_pdes_gauss_agree_on_messages_and_solution() {
    for (p, n, seed) in [(2u32, 12u32, 3u64), (4, 24, 7), (7, 20, 11), (8, 32, 1)] {
        let smp = gauss_smp(p as u16, n, seed);
        let pdes = pdes_gauss(p, n, seed, 128, 1);
        let expect = n as u64 * (p as u64 - 1);
        assert_eq!(smp.comm_ops, expect, "smp p={p} n={n}");
        assert_eq!(pdes.msgs, expect, "pdes p={p} n={n}");
        assert!(smp.max_err < 1e-6, "smp p={p} n={n}: {}", smp.max_err);
        assert!(pdes.max_err < 1e-6, "pdes p={p} n={n}: {}", pdes.max_err);
    }
}
