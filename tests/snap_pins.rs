//! Golden pins for mid-run snapshot hashes of the benchmark's Figure 5
//! points.
//!
//! `tests/snap_determinism.rs` compares a run with a resumed copy of the
//! same run, so a change to what the scheduler section captures passes it
//! as long as both legs capture alike. These constants pin the bytes
//! themselves: the content hash of a Uniform System and an SMP point
//! (seed 7, N=96, the benchmark's configuration) at three event cuts.
//!
//! The pending timers are captured as one `(at, seq)`-sorted list, so
//! the bytes say *what* is scheduled, never *where* the executor keeps
//! it: the timer wheel's geometry (bucket width, ring size, and with
//! them which entries overflow to the far heap) must not move any pin.
//! A change that alters the schedule, or the snapshot layout, must.

use bfly_apps::gauss::{prepare_gauss_smp_faulty, prepare_gauss_us, PreparedGauss};
use bfly_sim::snap::run_to_cut;
use bfly_sim::{FaultPlan, StepOutcome};

const N: u32 = 96;
const SEED: u64 = 7;

/// `(cut in events, state hash)` of the Uniform System point at P=128.
const US_128: [(u64, &str); 3] = [
    (1_000, "29a4d506d9bf42655dd36c803878620b"),
    (20_000, "f286ebe20923970993db31e6b2e7a7ff"),
    (50_000, "8a37d14f2f9d3cf3eb36de1a8b919a4d"),
];

/// `(cut in events, state hash)` of the SMP point at P=64.
const SMP_64: [(u64, &str); 3] = [
    (1_000, "132ce86b0636af1ca671726c3e083832"),
    (20_000, "9cde1f4f406822e5e4ff4c6be0047773"),
    (50_000, "cd4f65081cc1b9d246bdf00c5b3efb4c"),
];

fn hashes(mk: impl Fn() -> PreparedGauss, pins: &[(u64, &str)]) -> Vec<(u64, String)> {
    pins.iter()
        .map(|&(cut, _)| {
            let prepared = mk();
            let (outcome, events) = run_to_cut(&prepared.sim, cut);
            assert_eq!(
                outcome,
                StepOutcome::Paused,
                "the point ends before {cut} events"
            );
            assert_eq!(events, cut);
            (cut, prepared.snapshot().hash())
        })
        .collect()
}

fn expected(pins: &[(u64, &str)]) -> Vec<(u64, String)> {
    pins.iter().map(|&(c, h)| (c, h.to_string())).collect()
}

#[test]
fn fig5_us_snapshot_hashes_are_pinned() {
    let got = hashes(
        || prepare_gauss_us(128, N, (0..128).collect(), SEED),
        &US_128,
    );
    assert_eq!(got, expected(&US_128));
}

#[test]
fn fig5_smp_snapshot_hashes_are_pinned() {
    let plan = FaultPlan::default();
    let got = hashes(|| prepare_gauss_smp_faulty(64, N, SEED, &plan), &SMP_64);
    assert_eq!(got, expected(&SMP_64));
}
