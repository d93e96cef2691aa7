//! Property-based tests for the real-thread data structures: queue
//! linearizability-style invariants, allocator soundness, and hash-table
//! model equivalence under arbitrary operation sequences.

use std::collections::HashMap;
use std::sync::Arc;

use bfly_collections::{ExtendibleHash, FetchPhiQueue, FirstFitSerial, ParallelFirstFit};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-threaded FetchPhiQueue behaves exactly like a VecDeque for
    /// any op sequence (the sequential-specification half of
    /// linearizability).
    #[test]
    fn queue_matches_model(ops in proptest::collection::vec(any::<Option<u32>>(), 1..200)) {
        let q = FetchPhiQueue::new(64);
        let mut model = std::collections::VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    let ours = q.try_enqueue(v);
                    if model.len() < q.capacity() {
                        prop_assert!(ours.is_ok());
                        model.push_back(v);
                    } else {
                        prop_assert!(ours.is_err());
                    }
                }
                None => {
                    prop_assert_eq!(q.try_dequeue(), model.pop_front());
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
    }

    /// MPMC: across threads, every enqueued value is dequeued exactly once
    /// (no loss, no duplication), for arbitrary per-thread batch sizes.
    #[test]
    fn queue_mpmc_exactly_once(per in 1u64..2_000) {
        const THREADS: u64 = 3;
        let q = Arc::new(FetchPhiQueue::<u64>::new(128));
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..per {
                        q.enqueue(t * per + i);
                    }
                });
            }
            for _ in 0..THREADS {
                let q = q.clone();
                let seen = seen.clone();
                s.spawn(move || {
                    let mut local = Vec::new();
                    for _ in 0..per {
                        local.push(q.dequeue());
                    }
                    seen.lock().unwrap().extend(local);
                });
            }
        });
        let mut all = seen.lock().unwrap().clone();
        all.sort_unstable();
        prop_assert_eq!(all.len() as u64, THREADS * per);
        all.dedup();
        prop_assert_eq!(all.len() as u64, THREADS * per, "duplicate dequeues");
    }

    /// Serial first-fit: arbitrary alloc/free sequences keep blocks
    /// disjoint and reclaim fully.
    #[test]
    fn firstfit_sound(ops in proptest::collection::vec((1u32..512, any::<bool>()), 1..80)) {
        let a = FirstFitSerial::new(1 << 16);
        let total = a.free_bytes();
        let mut live: Vec<(u32, u32)> = Vec::new();
        for (size, free_one) in ops {
            if free_one && !live.is_empty() {
                let (off, s) = live.swap_remove(0);
                a.free(off, s);
            } else if let Some(off) = a.alloc(size) {
                for &(o, s) in &live {
                    prop_assert!(off + size <= o || o + s <= off, "overlap");
                }
                live.push((off, size));
            }
        }
        for (off, s) in live.drain(..) {
            a.free(off, s);
        }
        prop_assert_eq!(a.free_bytes(), total);
    }

    /// Parallel first-fit with any region geometry: blocks disjoint across
    /// all regions, full reclaim.
    #[test]
    fn parallel_firstfit_sound(
        regions in 1usize..8,
        sizes in proptest::collection::vec(1u32..256, 1..60)
    ) {
        let a = ParallelFirstFit::new(regions, 4096);
        let total = a.free_bytes();
        let mut live: Vec<(u32, u32)> = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            if let Some(off) = a.alloc(i, size) {
                // This allocator hands out exact (unpadded) extents.
                for &(o, s) in &live {
                    prop_assert!(off + size <= o || o + s <= off);
                }
                live.push((off, size));
            }
        }
        for (off, s) in live.drain(..) {
            a.free(off, s);
        }
        prop_assert_eq!(a.free_bytes(), total);
    }

    /// Extendible hash vs HashMap model for arbitrary insert/remove/get
    /// sequences (single-threaded model check; concurrency covered by the
    /// unit tests).
    #[test]
    fn exthash_matches_model(
        ops in proptest::collection::vec((0u64..64, 0u8..3, any::<u64>()), 1..300)
    ) {
        let h = ExtendibleHash::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (key, op, val) in ops {
            match op {
                0 => {
                    prop_assert_eq!(h.insert(key, val), model.insert(key, val));
                }
                1 => {
                    prop_assert_eq!(h.remove(&key), model.remove(&key));
                }
                _ => {
                    prop_assert_eq!(h.get(&key), model.get(&key).copied());
                }
            }
        }
        prop_assert_eq!(h.len(), model.len());
    }
}
