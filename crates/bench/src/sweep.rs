//! Parallel sweep driver: fan independent (P, workload) points across OS
//! threads.
//!
//! `Sim` is explicitly multi-instance-safe ("no global state" — DESIGN.md
//! §6), so every point of a parameter sweep can run its own simulation on
//! its own host thread. The driver guarantees:
//!
//! * **Deterministic seeding** — the worker closure receives the *point
//!   index*; callers must derive every sim seed from the point (index or
//!   parameters) alone, never from thread identity or completion order.
//!   Experiment code in this crate uses fixed per-experiment seeds, so a
//!   parallel sweep is bit-identical to a serial one.
//! * **Ordered collection** — results come back in point order regardless
//!   of which thread finished first.
//! * **Offline-safe** — plain `std::thread::scope`; no dependencies.
//!
//! On a single-core host (`available_parallelism() == 1`) the driver
//! degenerates to an in-place serial loop with zero thread overhead, so
//! binaries can use it unconditionally.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// When set, [`parallel_sweep`] called on this thread runs every point
    /// serially in place. Used by `--probe` and `--san` runs: probes are
    /// thread-local (`Rc`-based, and installed ambiently on the invoking
    /// thread), so the sweep must stay where the probe is. The determinism
    /// contract above makes the serial results bit-identical — only
    /// wall-clock changes. The pin is per thread so concurrent hosts (the
    /// farm daemon's workers) cannot perturb each other: one job's probed
    /// sweep never serializes its neighbor's unprobed one.
    static THREAD_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// Force (or stop forcing) serial sweeps on this thread. Returns the
/// previous setting.
pub fn set_thread_serial(on: bool) -> bool {
    THREAD_SERIAL.with(|c| c.replace(on))
}

/// Run `f` with sweeps on this thread pinned serial, restoring the
/// previous setting afterwards (also on panic, so a quarantined job can't
/// leak the pin to the worker's next job).
pub fn with_thread_serial<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_thread_serial(self.0);
        }
    }
    let _restore = Restore(set_thread_serial(true));
    f()
}

/// True if sweeps on this thread are currently forced serial.
pub fn force_serial() -> bool {
    THREAD_SERIAL.with(Cell::get)
}

/// Number of worker threads a sweep of `points` items would use.
pub fn sweep_threads(points: usize) -> usize {
    if force_serial() {
        return 1;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(points)
        .max(1)
}

/// A sweep point whose closure panicked: the panic was caught, the worker
/// thread kept pulling points, and the payload message is reported here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPanic {
    /// Index of the panicked point.
    pub index: usize,
    /// Stringified panic payload.
    pub message: String,
}

/// Run `f` over every point, in parallel when the host has the cores for
/// it, and return the results in point order. `f` is called as
/// `f(index, &point)`.
///
/// Work is distributed by an atomic next-index counter, so a straggler
/// point (e.g. the largest P of a speedup curve) doesn't idle the other
/// workers behind a static partition.
///
/// A panicking point panics the whole sweep (after every other point has
/// been collected); hosts that must survive a poisoned point — the farm
/// daemon quarantining a job — use [`try_parallel_sweep`].
pub fn parallel_sweep<T, R, F>(points: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    try_parallel_sweep(points, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => panic!("sweep point {} panicked: {}", p.index, p.message),
        })
        .collect()
}

/// [`parallel_sweep`], but a panicking point is caught and quarantined
/// instead of taking the sweep down: its slot comes back as
/// `Err(SweepPanic)` while **every other point still runs to completion**
/// and ordered collection holds. The worker that caught the panic keeps
/// claiming points (a sweep cannot lose capacity to one bad point).
///
/// `AssertUnwindSafe` is sound here because a panicked point's result
/// slot is abandoned, never observed, and `f` is required by the
/// determinism contract to be a pure function of `(index, point)` —
/// there is no partially-mutated state for a later point to see.
///
/// (Only meaningful where panics unwind: the release profile's
/// `panic = "abort"` ends the process at the panic site regardless.)
pub fn try_parallel_sweep<T, R, F>(points: &[T], f: F) -> Vec<Result<R, SweepPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let run_one = |i: usize, point: &T| -> Result<R, SweepPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, point))).map_err(|payload| SweepPanic {
            index: i,
            message: panic_message(payload.as_ref()),
        })
    };
    let threads = sweep_threads(points.len());
    if threads <= 1 {
        return points
            .iter()
            .enumerate()
            .map(|(i, p)| run_one(i, p))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, SweepPanic>>>> =
        points.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(i) else { break };
                let r = run_one(i, point);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("sweep point finished without a result")
        })
        .collect()
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_point_order() {
        let points: Vec<u64> = (0..32).collect();
        // Uneven work so completion order differs from point order.
        let out = parallel_sweep(&points, |i, &p| {
            let mut acc = p;
            for _ in 0..(32 - i) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, p, acc)
        });
        for (i, &(idx, p, _)) in out.iter().enumerate() {
            assert_eq!(i, idx);
            assert_eq!(p, points[i]);
        }
    }

    #[test]
    fn parallel_matches_serial_for_seeded_sims() {
        // The determinism contract the experiment ports rely on: a sim
        // seeded by point parameters gives the same answer on any thread.
        fn point(seed: u64) -> u64 {
            let sim = bfly_sim::Sim::with_seed(seed);
            let s = sim.clone();
            sim.block_on(async move {
                for i in 0..50 {
                    let d = s.with_rng(|r| r.jitter(1_000, 30));
                    s.sleep(d + i).await;
                }
                s.now()
            })
        }
        let seeds: Vec<u64> = (0..8).collect();
        let par = parallel_sweep(&seeds, |_, &s| point(s));
        let ser: Vec<u64> = seeds.iter().map(|&s| point(s)).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn forced_serial_sweep_matches_parallel() {
        let points: Vec<u64> = (0..6).collect();
        let par = parallel_sweep(&points, |i, &p| p * 10 + i as u64);
        let ser = with_thread_serial(|| {
            assert_eq!(sweep_threads(points.len()), 1);
            parallel_sweep(&points, |i, &p| p * 10 + i as u64)
        });
        assert_eq!(par, ser);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u32> = parallel_sweep(&[] as &[u32], |_, &p| p);
        assert!(out.is_empty());
    }

    #[test]
    fn thread_serial_pins_only_the_owning_thread() {
        assert!(!force_serial());
        let seen_inside = std::thread::spawn(|| {
            let was = set_thread_serial(true);
            assert!(!was);
            (force_serial(), sweep_threads(8))
        })
        .join()
        .unwrap();
        assert_eq!(seen_inside, (true, 1), "pinned on the owning thread");
        assert!(
            !force_serial(),
            "another thread's pin must not leak to this one"
        );
    }

    #[test]
    fn with_thread_serial_restores_even_on_panic() {
        assert!(!force_serial());
        let caught = catch_unwind(|| {
            with_thread_serial(|| {
                assert!(force_serial());
                panic!("job panic inside the pin");
            })
        });
        assert!(caught.is_err());
        assert!(
            !force_serial(),
            "a quarantined job must not leak its serial pin to the worker"
        );
    }

    #[test]
    fn try_sweep_quarantines_one_point_and_finishes_the_rest() {
        let points: Vec<u64> = (0..16).collect();
        let out = try_parallel_sweep(&points, |i, &p| {
            if i == 5 {
                panic!("poisoned point");
            }
            p * 2
        });
        assert_eq!(out.len(), 16);
        for (i, r) in out.iter().enumerate() {
            if i == 5 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 5);
                assert!(e.message.contains("poisoned point"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), points[i] * 2);
            }
        }
    }
}
