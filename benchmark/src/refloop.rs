//! The reference loop: a fixed, deterministic piece of single-threaded
//! work whose host time says how fast the shared host runs right now.
//!
//! On the two-vCPU host the committed results come from, this loop took
//! 3.1 ms in one run and 5.2 ms in another, with the simulators' host
//! times swinging the same way. The simulation workloads therefore time
//! the loop beside every point and report their cost *at reference
//! speed*: each host time is divided by the loop's time measured next to
//! it and multiplied by [`REF_MS`]. The host's speed cancels and the
//! code's own cost remains. The loop is in this crate and uses only
//! `std`, so no change to the program under test moves it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Host time of one reference loop on the reference host, ms: the scale
/// of every number reported at reference speed. A round number of the
/// order of the loop's time on the host the committed results come from,
/// so numbers at reference speed read about as that host's wall times.
pub const REF_MS: f64 = 5.0;

/// Run the reference loop once and return its host time, ms.
pub fn time_ms() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(work());
    t0.elapsed().as_secs_f64() * 1e3
}

/// `seconds` of host time at reference speed.
pub fn at_ref_s(seconds: f64, loop_ms: f64) -> f64 {
    seconds * REF_MS / loop_ms
}

/// A priority queue popped and refilled with pseudo-random keys beside
/// scattered reads and writes over a 2 MiB table: the event-queue and
/// scattered-memory mix the simulators spend their time in. It allocates
/// only up front, so an allocator change does not move it.
fn work() -> u64 {
    const TABLE: usize = 1 << 18;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table = vec![0u64; TABLE];
    let mut heap = BinaryHeap::with_capacity(1 << 14);
    for _ in 0..1 << 13 {
        heap.push(Reverse(next() >> 20));
    }
    let mut acc = 0u64;
    for _ in 0..60_000 {
        let Reverse(t) = heap.pop().expect("every pop is followed by a push");
        let r = next();
        let i = r as usize & (TABLE - 1);
        table[i] = table[i].wrapping_add(t);
        acc = acc.wrapping_add(table[t as usize & (TABLE - 1)]);
        heap.push(Reverse(t + (r >> 50) + 1));
    }
    acc
}
