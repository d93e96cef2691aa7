//! Node memory is backed on demand: a machine costs host memory only for
//! the simulated bytes it writes. Alone in its test binary so no other
//! test's allocations land in the measured window.

#![cfg(target_os = "linux")]

use bfly_machine::{Machine, MachineConfig};
use bfly_sim::Sim;

/// Resident set size of this process, from `/proc/self/status`.
fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line");
    kb << 10
}

#[test]
fn idle_rochester_machines_stay_small() {
    // Reach the allocator state of a process that has run a while: a
    // freed large block raises glibc's mmap threshold, and a machine
    // built and dropped leaves its nodes' 1 MiB blocks free on the heap
    // for the next machines to reuse. There, an eagerly zero-filled store
    // grew RSS by over 100 MiB across these 32 machines.
    drop(vec![0u8; 32 << 20]);
    let sim = Sim::new();
    drop(Machine::new(&sim, MachineConfig::rochester()));
    let before = vm_rss_bytes();
    let machines: Vec<_> = (0..32)
        .map(|_| Machine::new(&sim, MachineConfig::rochester()))
        .collect();
    let grown = vm_rss_bytes().saturating_sub(before);
    assert_eq!(machines.len(), 32);
    assert!(
        grown < 64 << 20,
        "32 idle 128 MiB machines grew RSS by {} MiB",
        grown >> 20
    );
}
