//! # The sanctioned PDES worker pool.
//!
//! The *only* PDES module allowed to touch host-thread primitives (xtask
//! lint check 7 bans `thread::` from `pdes.rs`/`pdes_window.rs` and pins
//! the ban list here). It deliberately knows nothing about events or
//! windows: it hands each partition value to one scoped worker thread and
//! exposes one synchronization piece, the [`Exchange`], which the
//! windowed executor in [`crate::pdes_window`] calls once per window.
//!
//! Wall-clock reads and `HashMap` iteration stay banned here too: the
//! pool may schedule work on host threads, but nothing it does may leak
//! host timing or hash order into simulation results.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Run `f(index, &mut part)` for every partition, each on its own host
/// worker. Partition 0 runs on the calling thread (so `hosts == 1` spawns
/// nothing and degenerates to a plain serial call); partitions 1.. run on
/// scoped threads that are joined before this returns. Panics propagate.
pub fn run_partitioned<T, F>(parts: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if parts.len() <= 1 {
        if let Some(p) = parts.first_mut() {
            f(0, p);
        }
        return;
    }
    std::thread::scope(|s| {
        let mut it = parts.iter_mut().enumerate();
        let first = it.next();
        let fr = &f;
        for (i, part) in it {
            s.spawn(move || fr(i, part));
        }
        if let Some((i, part)) = first {
            f(i, part);
        }
    });
}

/// One window round's only synchronization point for `n` workers: an
/// all-to-all swap of posted items with the min-reduction folded in,
/// behind a single barrier. Every worker reads the same published
/// minima after the barrier and computes the global minimum itself, so
/// all agree on it without a leader.
///
/// The minimum cells are double-buffered by round parity. After the
/// barrier a fast worker may return, run its next round and publish
/// again while a slow worker is still reading this round's cells; the
/// other parity's cell keeps the slow reader's value intact. No worker
/// gets two rounds ahead, because the next barrier waits for the slow
/// worker, which finishes reading before it arrives there.
///
/// The mailbox cells are single, so an item may arrive one round early:
/// a fast worker's next-round post can land in a cell before its
/// consumer drains this round's. Never two rounds early, since the
/// producer would first have to pass a barrier that waits for that
/// drain. The mutex makes the overlap safe; the caller must accept early
/// items (see [`crate::pdes_window`] for why the window executor does).
pub struct Exchange<T> {
    barrier: Barrier,
    mins: [Vec<AtomicU64>; 2],
    /// `cells[from * n + to]`: items producer `from` posted for `to`.
    cells: Vec<Mutex<Vec<T>>>,
}

impl<T: Send> Exchange<T> {
    /// An exchange for `n` workers.
    pub fn new(n: usize) -> Exchange<T> {
        let mins = || (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        Exchange {
            barrier: Barrier::new(n),
            mins: [mins(), mins()],
            cells: (0..n * n).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Worker `p`'s call for `round`: post `outboxes[q]` to each worker
    /// `q` (leaving them empty), publish `min`, wait for every worker,
    /// then append everything posted to `p` to `inbox` in producer order
    /// and return the minimum over every worker's `min` for this round.
    /// Each worker must count its rounds from 0 and call once per round.
    pub fn swap(
        &self,
        p: usize,
        round: u64,
        outboxes: &mut [Vec<T>],
        min: u64,
        inbox: &mut Vec<T>,
    ) -> u64 {
        let n = self.mins[0].len();
        for (q, items) in outboxes.iter_mut().enumerate() {
            if !items.is_empty() {
                lock(&self.cells[p * n + q]).append(items);
            }
        }
        // The barrier orders every store before it against every load
        // after it, so relaxed cells suffice.
        let mins = &self.mins[(round & 1) as usize];
        mins[p].store(min, Ordering::Relaxed);
        self.barrier.wait();
        for from in 0..n {
            inbox.append(&mut lock(&self.cells[from * n + p]));
        }
        mins.iter()
            .map(|c| c.load(Ordering::Relaxed))
            .min()
            .unwrap_or(u64::MAX)
    }
}

fn lock<T>(cell: &Mutex<Vec<T>>) -> std::sync::MutexGuard<'_, Vec<T>> {
    cell.lock().expect("pdes pool: mailbox poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_partitioned_visits_every_partition_once() {
        let mut parts: Vec<u64> = vec![0; 7];
        run_partitioned(&mut parts, |i, p| *p = i as u64 + 1);
        assert_eq!(parts, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn single_partition_runs_inline() {
        let mut parts = vec![0u64];
        run_partitioned(&mut parts, |_, p| *p = 9);
        assert_eq!(parts, vec![9]);
    }
}
