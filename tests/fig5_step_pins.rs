//! Per-point step pins for the benchmark's own Figure 5 points.
//!
//! `tests/fig5_pins.rs` pins what each point computes (simulated time,
//! communication operations, the solution error). This file pins how the
//! engine got there, point by point: the task-poll count
//! ([`RunStats::events`](bfly_sim::exec::RunStats)), the machine's
//! reference counters ([`MachineStats`]) and the summed CPU
//! [`ResourceStats`](bfly_sim::ResourceStats) of all 128 processors. An
//! executor change that runs work in place of task polls must keep every
//! one of them, so a per-point slip that nets to zero across the quick
//! sweep's summed poll count still fails here.
//!
//! The points are the benchmark's `fig5_sim` workload at seed 7: N=96, the
//! Uniform System on all 128 memories, and SMP with a default
//! [`FaultPlan`], at P = 16, 32, …, 128.

use bfly_apps::gauss::{prepare_gauss_smp_faulty, prepare_gauss_us, PreparedGauss};
use bfly_machine::MachineStats;
use bfly_sim::FaultPlan;

const N: u32 = 96;
const SEED: u64 = 7;

/// `[busy_ns, acquisitions, total_wait_ns, max_queue]` summed over the
/// 128 CPUs.
type Cpu = [u64; 4];

/// `(local_refs, remote_refs, block_transfers, block_bytes, atomics)`.
type Refs = (u64, u64, u64, u64, u64);

/// `(p, events, machine counters, summed CPU stats)` of one point.
type Pin = (u16, u64, Refs, Cpu);

const US: [Pin; 8] = [
    (
        16,
        1_435_791,
        (22_319, 889_681, 1_536, 608_256, 19_776),
        [13_784_394_400, 1_402_992, 0, 0],
    ),
    (
        32,
        1_445_164,
        (21_057, 890_943, 3_072, 1_216_512, 21_312),
        [14_622_846_000, 1_406_064, 0, 0],
    ),
    (
        48,
        1_452_599,
        (17_734, 894_266, 4_608, 1_824_768, 22_848),
        [15_954_951_000, 1_409_136, 0, 0],
    ),
    (
        64,
        1_462_726,
        (16_973, 895_027, 6_144, 2_433_024, 24_384),
        [17_766_538_800, 1_412_208, 0, 0],
    ),
    (
        80,
        1_474_187,
        (17_233, 894_767, 7_680, 3_041_280, 25_920),
        [20_065_689_500, 1_415_280, 0, 0],
    ),
    (
        96,
        1_483_773,
        (16_719, 895_281, 9_120, 3_611_520, 27_456),
        [22_684_416_700, 1_418_256, 0, 0],
    ),
    (
        112,
        1_500_283,
        (26_850, 885_150, 9_120, 3_611_520, 28_992),
        [22_822_736_200, 1_419_792, 0, 0],
    ),
    (
        128,
        1_496_067,
        (16_524, 895_476, 9_120, 3_611_520, 30_528),
        [23_053_199_700, 1_421_328, 0, 0],
    ),
];

const SMP: [Pin; 8] = [
    (
        16,
        57_589,
        (0, 0, 21_216, 8_401_536, 0),
        [9_864_300_800, 34_896, 0, 0],
    ),
    (
        32,
        70_515,
        (0, 0, 24_288, 9_618_048, 0),
        [10_403_477_400, 43_328, 0, 0],
    ),
    (
        48,
        83_918,
        (0, 0, 27_360, 10_834_560, 0),
        [11_096_251_600, 52_272, 0, 0],
    ),
    (
        64,
        98_022,
        (0, 0, 30_432, 12_051_072, 0),
        [11_941_928_200, 61_728, 0, 0],
    ),
    (
        80,
        112_648,
        (0, 0, 33_504, 13_267_584, 0),
        [12_940_919_400, 71_696, 0, 0],
    ),
    (
        96,
        127_926,
        (0, 0, 36_576, 14_484_096, 0),
        [14_094_232_800, 82_176, 0, 0],
    ),
    (
        112,
        141_747,
        (0, 0, 39_648, 15_700_608, 0),
        [14_868_148_800, 91_392, 0, 0],
    ),
    (
        128,
        155_551,
        (0, 0, 42_720, 16_917_120, 0),
        [15_642_106_600, 100_608, 0, 0],
    ),
];

fn refs(s: MachineStats) -> Refs {
    (
        s.local_refs,
        s.remote_refs,
        s.block_transfers,
        s.block_bytes,
        s.atomics,
    )
}

/// Run one prepared point to completion and read its pins.
fn observe(p: u16, prep: PreparedGauss) -> Pin {
    let m = prep.machine().clone();
    let r = prep.finish();
    assert!(r.max_err < 1e-6, "max_err {}", r.max_err);
    let mut cpu = [0u64; 4];
    for n in 0..m.nodes() {
        let s = m.cpu_resource(n).stats();
        cpu[0] += s.busy_ns;
        cpu[1] += s.acquisitions;
        cpu[2] += s.total_wait_ns;
        cpu[3] += s.max_queue as u64;
    }
    (p, r.run.events, refs(m.stats()), cpu)
}

#[test]
fn fig5_us_steps_are_pinned() {
    for pin in US {
        let p = pin.0;
        let got = observe(p, prepare_gauss_us(p, N, (0..128).collect(), SEED));
        assert_eq!(got, pin, "US p={p}");
    }
}

#[test]
fn fig5_smp_steps_are_pinned() {
    for pin in SMP {
        let p = pin.0;
        let got = observe(
            p,
            prepare_gauss_smp_faulty(p, N, SEED, &FaultPlan::default()),
        );
        assert_eq!(got, pin, "SMP p={p}");
    }
}
