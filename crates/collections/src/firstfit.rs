//! Parallel first-fit memory allocation (Ellis & Olson, ICPP 1987).
//!
//! The serial allocator protects one free list with one lock — the §4.1
//! Amdahl bottleneck. The parallel allocator partitions the arena into
//! regions, each with its own lock and free list; a thread allocates from
//! a home region chosen by thread hash and overflows to neighbors. Frees
//! return blocks to the owning region (determined by offset).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

const POISONED: &str = "free list lock poisoned";

/// A serial first-fit allocator: one lock, one free list.
pub struct FirstFitSerial {
    inner: Mutex<FreeList>,
    /// Lock acquisitions that found the lock held (contention censor).
    pub contended: AtomicU64,
}

/// A region-partitioned parallel first-fit allocator.
pub struct ParallelFirstFit {
    regions: Vec<Mutex<FreeList>>,
    region_size: u32,
    /// Lock acquisitions that found a region lock held.
    pub contended: AtomicU64,
}

struct FreeList {
    /// Sorted `(offset, len)` runs.
    runs: Vec<(u32, u32)>,
}

impl FreeList {
    fn new(base: u32, size: u32) -> FreeList {
        FreeList {
            runs: vec![(base, size)],
        }
    }

    fn alloc(&mut self, size: u32) -> Option<u32> {
        for i in 0..self.runs.len() {
            let (off, len) = self.runs[i];
            if len >= size {
                if len == size {
                    self.runs.remove(i);
                } else {
                    self.runs[i] = (off + size, len - size);
                }
                return Some(off);
            }
        }
        None
    }

    fn free(&mut self, offset: u32, size: u32) {
        let idx = self.runs.partition_point(|&(o, _)| o < offset);
        self.runs.insert(idx, (offset, size));
        if idx + 1 < self.runs.len() {
            let (o, s) = self.runs[idx];
            let (no, ns) = self.runs[idx + 1];
            assert!(o + s <= no, "overlapping free");
            if o + s == no {
                self.runs[idx] = (o, s + ns);
                self.runs.remove(idx + 1);
            }
        }
        if idx > 0 {
            let (po, ps) = self.runs[idx - 1];
            let (o, s) = self.runs[idx];
            assert!(po + ps <= o, "overlapping free");
            if po + ps == o {
                self.runs[idx - 1] = (po, ps + s);
                self.runs.remove(idx);
            }
        }
    }

    fn free_bytes(&self) -> u64 {
        self.runs.iter().map(|&(_, s)| s as u64).sum()
    }
}

impl FirstFitSerial {
    /// An arena of `size` bytes.
    pub fn new(size: u32) -> FirstFitSerial {
        FirstFitSerial {
            inner: Mutex::new(FreeList::new(0, size)),
            contended: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FreeList> {
        if let Ok(g) = self.inner.try_lock() {
            return g;
        }
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().expect(POISONED)
    }

    /// Allocate; `None` when no run fits.
    pub fn alloc(&self, size: u32) -> Option<u32> {
        self.lock().alloc(size)
    }

    /// Free a previously allocated block.
    pub fn free(&self, offset: u32, size: u32) {
        self.lock().free(offset, size);
    }

    /// Free bytes remaining.
    pub fn free_bytes(&self) -> u64 {
        // lint: allow(lock_order): bare-name resolution conflates the sibling allocators' free_bytes; each type only ever locks its own mutexes
        self.inner.lock().expect(POISONED).free_bytes()
    }
}

impl ParallelFirstFit {
    /// An arena of `regions * region_size` bytes.
    pub fn new(regions: usize, region_size: u32) -> ParallelFirstFit {
        ParallelFirstFit {
            regions: (0..regions)
                .map(|r| Mutex::new(FreeList::new(r as u32 * region_size, region_size)))
                .collect(),
            region_size,
            contended: AtomicU64::new(0),
        }
    }

    fn lock(&self, r: usize) -> MutexGuard<'_, FreeList> {
        if let Ok(g) = self.regions[r].try_lock() {
            return g;
        }
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.regions[r].lock().expect(POISONED)
    }

    /// Allocate, starting from the caller's home region (hashed from
    /// `who`) and overflowing to subsequent regions. `None` only when no
    /// region can satisfy the request.
    pub fn alloc(&self, who: usize, size: u32) -> Option<u32> {
        assert!(size <= self.region_size, "request exceeds region size");
        let n = self.regions.len();
        let home = who % n;
        for k in 0..n {
            let r = (home + k) % n;
            if let Some(off) = self.lock(r).alloc(size) {
                return Some(off);
            }
        }
        None
    }

    /// Free: routed to the owning region by offset.
    pub fn free(&self, offset: u32, size: u32) {
        let r = (offset / self.region_size) as usize;
        self.lock(r).free(offset, size);
    }

    /// Free bytes across all regions.
    pub fn free_bytes(&self) -> u64 {
        self.regions
            .iter()
            // lint: allow(lock_order): region guards are taken one at a time (the closure drops each before the next); never two regions held at once
            .map(|r| r.lock().expect(POISONED).free_bytes())
            .sum()
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.regions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn serial_alloc_free_roundtrip() {
        let a = FirstFitSerial::new(1024);
        let x = a.alloc(100).unwrap();
        let y = a.alloc(100).unwrap();
        assert_ne!(x, y);
        a.free(x, 100);
        a.free(y, 100);
        assert_eq!(a.free_bytes(), 1024);
    }

    #[test]
    fn parallel_threads_get_disjoint_blocks() {
        let a = Arc::new(ParallelFirstFit::new(8, 1 << 16));
        let mut all = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let a = a.clone();
                    s.spawn(move || {
                        (0..100)
                            .map(|_| a.alloc(t, 64).unwrap())
                            .collect::<Vec<u32>>()
                    })
                })
                .collect();
            for h in handles {
                all.extend(h.join().unwrap());
            }
        });
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "no block handed out twice");
        // Blocks must not overlap: every pair differs by >= 64.
        assert!(all.windows(2).all(|w| w[1] - w[0] >= 64));
    }

    #[test]
    fn parallel_free_reclaims_fully() {
        let a = ParallelFirstFit::new(4, 4096);
        let total = a.free_bytes();
        let blocks: Vec<u32> = (0..32).map(|i| a.alloc(i, 128).unwrap()).collect();
        for b in blocks {
            a.free(b, 128);
        }
        assert_eq!(a.free_bytes(), total);
    }

    #[test]
    fn overflow_to_neighbor_regions() {
        let a = ParallelFirstFit::new(2, 256);
        // Exhaust region 0 from thread 0, then keep allocating: requests
        // must overflow into region 1.
        let mut got = Vec::new();
        while let Some(b) = a.alloc(0, 128) {
            got.push(b);
        }
        assert_eq!(got.len(), 4, "2 regions x 2 blocks each");
        assert!(got.iter().any(|&b| b >= 256), "overflow region used");
    }

    #[test]
    fn serial_lock_contends_parallel_regions_do_not() {
        // The design property behind Ellis-Olson: threads with distinct
        // home regions never contend in the parallel allocator, while every
        // operation fights for the serial allocator's single lock.
        // (Wall-clock scaling is measured by the criterion benchmarks in
        // bfly-bench, where core counts and build profiles are controlled.)
        const THREADS: usize = 4;
        const OPS: usize = 20_000;

        // Contention is statistical: when the host box is oversubscribed
        // the OS can timeslice our threads so they never overlap. Retry
        // the serial phase until overlap is observed (it virtually always
        // is on the first attempt).
        let mut serial_contended = 0;
        for _ in 0..20 {
            let serial = Arc::new(FirstFitSerial::new(1 << 26));
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    let a = serial.clone();
                    s.spawn(move || {
                        for _ in 0..OPS {
                            let b = a.alloc(64).unwrap();
                            a.free(b, 64);
                        }
                    });
                }
            });
            serial_contended = serial.contended.load(Ordering::Relaxed);
            if serial_contended > 0 {
                break;
            }
        }

        let par = Arc::new(ParallelFirstFit::new(THREADS, 1 << 22));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let a = par.clone();
                s.spawn(move || {
                    for _ in 0..OPS {
                        let b = a.alloc(t, 64).unwrap();
                        a.free(b, 64);
                    }
                });
            }
        });
        let par_contended = par.contended.load(Ordering::Relaxed);

        assert_eq!(par_contended, 0, "distinct home regions must never contend");
        // Threshold is deliberately minimal: on a starved CI box the OS may
        // timeslice our threads so they rarely overlap, but with 80k total
        // operations at least some collisions always occur on one lock.
        assert!(
            serial_contended > 0,
            "the single serial lock must contend under {THREADS} threads \
             (saw {serial_contended} contended acquisitions)"
        );
    }
}
