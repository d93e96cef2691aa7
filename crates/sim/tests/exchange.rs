//! The PDES pool's `Exchange`: one barrier per round carries both the
//! all-to-all item swap and the global min-reduction.
//!
//! Every worker runs a fixed number of rounds whatever `swap` returns, and
//! records faults instead of panicking, so a broken exchange fails these
//! tests rather than leaving the other workers parked at the barrier.

use bfly_sim::pdes_pool::{run_partitioned, Exchange};

const ROUNDS: u64 = 5_000;

/// An item: `(from, to, round posted, index within that round)`.
type Item = (usize, usize, u64, u64);

/// How many items `from` posts to `to` in `round` (0 to 2, so empty
/// outboxes occur too).
fn count(from: usize, to: usize, round: u64) -> u64 {
    (from as u64 * 3 + to as u64 + round) % 3
}

/// Worker `p`'s published minimum in `round`: scrambled per worker and
/// per round, and drawn from disjoint ranges on even and odd rounds, so a
/// cell overwritten by the next round's value changes the reduction.
fn min_of(p: usize, round: u64) -> u64 {
    let mut z = (p as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round;
    z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (round & 1) * 1_000_000 + (z ^ (z >> 29)) % 1_000_000
}

#[derive(Default)]
struct Worker {
    /// Every item received, with the round whose swap delivered it.
    got: Vec<(Item, u64)>,
    /// Rounds whose returned minimum was wrong.
    bad_mins: Vec<u64>,
}

fn drive(n: usize) {
    let ex: Exchange<Item> = Exchange::new(n);
    let mut workers: Vec<Worker> = (0..n).map(|_| Worker::default()).collect();
    run_partitioned(&mut workers, |me, w| {
        let mut outboxes: Vec<Vec<Item>> = vec![Vec::new(); n];
        let mut inbox = Vec::new();
        for round in 0..ROUNDS {
            for (to, out) in outboxes.iter_mut().enumerate() {
                if to != me {
                    out.extend((0..count(me, to, round)).map(|i| (me, to, round, i)));
                }
            }
            let global = ex.swap(me, round, &mut outboxes, min_of(me, round), &mut inbox);
            if global != (0..n).map(|p| min_of(p, round)).min().unwrap() {
                w.bad_mins.push(round);
            }
            w.got.extend(inbox.drain(..).map(|item| (item, round)));
        }
    });
    for (to, w) in workers.iter().enumerate() {
        assert!(
            w.bad_mins.is_empty(),
            "n={n} worker {to}: wrong minimum in rounds {:?}",
            w.bad_mins
        );
        for &((_, dst, posted, _), round) in &w.got {
            assert_eq!(dst, to, "n={n}: item delivered to the wrong worker");
            // Single mailbox cells may deliver a next-round post early,
            // but never later than its own round and never two early.
            assert!(
                posted == round || posted == round + 1,
                "n={n} worker {to}: item posted in round {posted} arrived in round {round}"
            );
        }
        let mut got: Vec<Item> = w.got.iter().map(|&(item, _)| item).collect();
        got.sort_unstable();
        let mut want: Vec<Item> = (0..n)
            .filter(|&from| from != to)
            .flat_map(|from| {
                (0..ROUNDS)
                    .flat_map(move |r| (0..count(from, to, r)).map(move |i| (from, to, r, i)))
            })
            .collect();
        want.sort_unstable();
        assert!(got == want, "n={n} worker {to}: items lost or duplicated");
    }
}

#[test]
fn exchange_two_workers() {
    drive(2);
}

#[test]
fn exchange_three_workers() {
    drive(3);
}

#[test]
fn exchange_five_workers() {
    drive(5);
}

#[test]
fn exchange_eight_workers() {
    drive(8);
}
