//! Criterion benchmarks of the real-thread Rochester data structures
//! (§3.3): parallel first-fit allocation, fetch-and-phi queues, extendible
//! hashing — serial baseline vs parallel design under thread contention.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use bfly_collections::{
    ExtendibleHash, FetchPhiQueue, FirstFitSerial, ParallelFirstFit, TwoLockQueue,
};

const THREADS: usize = 4;
const OPS: usize = 5_000;

fn bench_firstfit(c: &mut Criterion) {
    let mut g = c.benchmark_group("firstfit");
    g.bench_function("serial_4threads", |b| {
        b.iter(|| {
            let a = Arc::new(FirstFitSerial::new(1 << 26));
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    let a = a.clone();
                    s.spawn(move || {
                        for _ in 0..OPS {
                            let x = a.alloc(64).unwrap();
                            a.free(x, 64);
                        }
                    });
                }
            });
        });
    });
    g.bench_function("parallel_4threads", |b| {
        b.iter(|| {
            let a = Arc::new(ParallelFirstFit::new(THREADS, 1 << 22));
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let a = a.clone();
                    s.spawn(move || {
                        for _ in 0..OPS {
                            let x = a.alloc(t, 64).unwrap();
                            a.free(x, 64);
                        }
                    });
                }
            });
        });
    });
    g.finish();
}

fn bench_queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("queues");
    g.bench_function("fetch_phi_mpmc", |b| {
        b.iter(|| {
            let q = Arc::new(FetchPhiQueue::<u64>::new(1024));
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let q = q.clone();
                    s.spawn(move || {
                        for i in 0..OPS as u64 {
                            q.enqueue(i);
                        }
                    });
                }
                for _ in 0..2 {
                    let q = q.clone();
                    s.spawn(move || {
                        for _ in 0..OPS {
                            q.dequeue();
                        }
                    });
                }
            });
        });
    });
    g.bench_function("two_lock_mpmc", |b| {
        b.iter(|| {
            let q = Arc::new(TwoLockQueue::<u64>::new());
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let q = q.clone();
                    s.spawn(move || {
                        for i in 0..OPS as u64 {
                            q.enqueue(i);
                        }
                    });
                }
                for _ in 0..2 {
                    let q = q.clone();
                    s.spawn(move || {
                        let mut got = 0;
                        while got < OPS {
                            if q.try_dequeue().is_some() {
                                got += 1;
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                    });
                }
            });
        });
    });
    g.finish();
}

fn bench_exthash(c: &mut Criterion) {
    c.bench_function("exthash_concurrent_insert_get", |b| {
        b.iter(|| {
            let h = Arc::new(ExtendibleHash::new());
            std::thread::scope(|s| {
                for t in 0..THREADS as u64 {
                    let h = h.clone();
                    s.spawn(move || {
                        for i in 0..(OPS as u64 / 2) {
                            h.insert(t * 1_000_000 + i, i);
                            h.get(&(t * 1_000_000 + i / 2));
                        }
                    });
                }
            });
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_firstfit, bench_queues, bench_exthash
}
criterion_main!(benches);
