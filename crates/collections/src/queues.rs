//! Concurrent FIFO queues — "Practical Fetch-and-Φ Algorithms"
//! (Mellor-Crummey, TR 229, §3.3 ref \[35\]).
//!
//! [`FetchPhiQueue`] is a bounded MPMC ring in the fetch-and-add style the
//! PNC's microcoded atomics made natural on the Butterfly: enqueuers and
//! dequeuers claim tickets with one atomic add, then synchronize on
//! per-slot sequence numbers. [`TwoLockQueue`] is the classic
//! head-lock/tail-lock linked queue, the lock-based baseline.
//!
//! Memory orderings follow the slot-sequence protocol: `Acquire` on the
//! sequence load pairs with the `Release` store that publishes the slot.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A bounded MPMC queue driven by fetch-and-add tickets.
pub struct FetchPhiQueue<T> {
    slots: Box<[Slot<T>]>,
    /// Next enqueue ticket.
    tail: AtomicU64,
    /// Next dequeue ticket.
    head: AtomicU64,
    mask: u64,
}

struct Slot<T> {
    /// Even = empty and awaiting write of ticket seq/2 … see protocol in
    /// `enqueue`/`dequeue`.
    seq: AtomicU64,
    val: UnsafeCell<MaybeUninit<T>>,
}

// SAFETY: access to `val` is serialized by the `seq` protocol — a slot's
// value is written only by the ticket holder for whom `seq == ticket`, and
// read only by the dequeuer for whom `seq == ticket + 1`.
unsafe impl<T: Send> Send for FetchPhiQueue<T> {}
// SAFETY: as above; shared references only ever touch `val` through the
// ticket protocol, so `&FetchPhiQueue<T>` is safe to share across threads.
unsafe impl<T: Send> Sync for FetchPhiQueue<T> {}

impl<T> FetchPhiQueue<T> {
    /// A queue with capacity `cap` (rounded up to a power of two).
    pub fn new(cap: usize) -> FetchPhiQueue<T> {
        let cap = cap.next_power_of_two().max(2);
        FetchPhiQueue {
            slots: (0..cap)
                .map(|i| Slot {
                    seq: AtomicU64::new(i as u64),
                    val: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            tail: AtomicU64::new(0),
            head: AtomicU64::new(0),
            mask: cap as u64 - 1,
        }
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Try to enqueue; fails (returning the value) when full.
    pub fn try_enqueue(&self, v: T) -> Result<(), T> {
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(tail & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == tail {
                // Claim this ticket.
                match self.tail.compare_exchange_weak(
                    tail,
                    tail + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS made us the sole holder
                        // of ticket `tail`; per the seq protocol nobody
                        // else touches this slot until the Release store
                        // below publishes it.
                        unsafe { (*slot.val.get()).write(v) };
                        slot.seq.store(tail + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(t) => tail = t,
                }
            } else if seq < tail {
                // Slot still occupied by an element `cap` tickets ago: full.
                return Err(v);
            } else {
                tail = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Try to dequeue; `None` when empty.
    pub fn try_dequeue(&self) -> Option<T> {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(head & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == head + 1 {
                match self.head.compare_exchange_weak(
                    head,
                    head + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: `seq == head + 1` (Acquire) proves the
                        // enqueuer's write completed and was published;
                        // winning the CAS makes us the sole reader of this
                        // ticket, so the value is initialized and read
                        // exactly once.
                        let v = unsafe { (*slot.val.get()).assume_init_read() };
                        slot.seq.store(head + self.mask + 1, Ordering::Release);
                        return Some(v);
                    }
                    Err(h) => head = h,
                }
            } else if seq <= head {
                return None;
            } else {
                head = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Spin-enqueue (the Butterfly idiom: spin with bounded attempts).
    pub fn enqueue(&self, mut v: T) {
        loop {
            match self.try_enqueue(v) {
                Ok(()) => return,
                Err(back) => {
                    v = back;
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Spin-dequeue.
    pub fn dequeue(&self) -> T {
        loop {
            if let Some(v) = self.try_dequeue() {
                return v;
            }
            std::hint::spin_loop();
        }
    }

    /// Approximate length.
    pub fn len(&self) -> usize {
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Relaxed);
        t.saturating_sub(h) as usize
    }

    /// Approximately empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for FetchPhiQueue<T> {
    fn drop(&mut self) {
        while self.try_dequeue().is_some() {}
    }
}

/// The lock-based baseline: a mutex-protected deque per end is the classic
/// design; with Rust's std containers a single mutex around a `VecDeque`
/// captures the serialization the paper's lock-based baselines had.
pub struct TwoLockQueue<T> {
    inner: Mutex<VecDeque<T>>,
}

impl<T> TwoLockQueue<T> {
    /// New empty queue.
    pub fn new() -> TwoLockQueue<T> {
        TwoLockQueue {
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Enqueue.
    pub fn enqueue(&self, v: T) {
        self.inner.lock().expect("queue lock poisoned").push_back(v);
    }

    /// Try to dequeue.
    pub fn try_dequeue(&self) -> Option<T> {
        self.inner.lock().expect("queue lock poisoned").pop_front()
    }

    /// Length.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").len()
    }

    /// Empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for TwoLockQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let q = FetchPhiQueue::new(8);
        for i in 0..8 {
            q.enqueue(i);
        }
        assert!(q.try_enqueue(99).is_err(), "full at capacity");
        for i in 0..8 {
            assert_eq!(q.try_dequeue(), Some(i));
        }
        assert_eq!(q.try_dequeue(), None);
    }

    #[test]
    fn wraparound_reuses_slots() {
        let q = FetchPhiQueue::new(4);
        for round in 0..10 {
            for i in 0..4 {
                q.enqueue(round * 10 + i);
            }
            for i in 0..4 {
                assert_eq!(q.dequeue(), round * 10 + i);
            }
        }
    }

    #[test]
    fn mpmc_no_loss_no_duplication() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER: u64 = 50_000;
        let q = Arc::new(FetchPhiQueue::<u64>::new(1024));
        let seen = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..PER {
                        q.enqueue(p as u64 * PER + i);
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let q = q.clone();
                let seen = seen.clone();
                s.spawn(move || {
                    let mut local = Vec::new();
                    for _ in 0..(PRODUCERS as u64 * PER / CONSUMERS as u64) {
                        local.push(q.dequeue());
                    }
                    seen.lock().unwrap().extend(local);
                });
            }
        });
        let mut all = seen.lock().unwrap().clone();
        assert_eq!(all.len() as u64, PRODUCERS as u64 * PER);
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len() as u64,
            PRODUCERS as u64 * PER,
            "duplicates detected"
        );
    }

    #[test]
    fn per_producer_order_is_preserved() {
        // FIFO per producer: consumer sees each producer's items ascending.
        let q = Arc::new(FetchPhiQueue::<u64>::new(256));
        let out = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for p in 0..2u64 {
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        q.enqueue(p << 32 | i);
                    }
                });
            }
            let q = q.clone();
            let out = out.clone();
            s.spawn(move || {
                let mut v = Vec::new();
                for _ in 0..20_000 {
                    v.push(q.dequeue());
                }
                out.lock().unwrap().extend(v);
            });
        });
        let all = out.lock().unwrap().clone();
        for p in 0..2u64 {
            let mine: Vec<u64> = all
                .iter()
                .filter(|&&x| x >> 32 == p)
                .map(|&x| x & 0xFFFF_FFFF)
                .collect();
            assert!(
                mine.windows(2).all(|w| w[0] < w[1]),
                "producer {p} items reordered"
            );
        }
    }

    #[test]
    fn two_lock_queue_basics() {
        let q = TwoLockQueue::new();
        assert!(q.is_empty());
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_dequeue(), Some(1));
        assert_eq!(q.try_dequeue(), Some(2));
        assert_eq!(q.try_dequeue(), None);
    }

    #[test]
    fn drop_releases_remaining_elements() {
        // Drop with live elements must run their destructors (checked via
        // Arc strong counts).
        let marker = Arc::new(());
        {
            let q = FetchPhiQueue::new(8);
            for _ in 0..5 {
                q.enqueue(marker.clone());
            }
            assert_eq!(Arc::strong_count(&marker), 6);
        }
        assert_eq!(Arc::strong_count(&marker), 1);
    }
}
