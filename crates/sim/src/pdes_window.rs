//! # Windowed conservative parallel executor.
//!
//! Runs a [`PdesSim`](crate::pdes::PdesSim) across `hosts` worker threads
//! by partitioning the simulated nodes into contiguous blocks and
//! advancing virtual time in fixed windows of size `window ≤ lookahead`.
//! The first window starts at the earliest event of the dealt queues;
//! each round then has two steps:
//!
//! 1. **Deliver** — each partition delivers its local events with
//!    `at < min(start + window, cut)`, in `(at, src, src_seq)` order.
//!    Cross-partition sends are buffered into per-destination outboxes;
//!    intra-partition sends go straight into the local queue (self-sends
//!    may be due in-window; cross-node sends never are, because
//!    `Ctx::send` enforces `delay ≥ lookahead ≥ window`).
//! 2. **Exchange** — one call to the pool's
//!    [`Exchange`](crate::pdes_pool::Exchange), the round's only barrier:
//!    each partition posts its outboxes, publishes `min(its queue's
//!    earliest, the earliest event it posted this round)`, and gets back
//!    its inbound events plus the minimum over every partition. That is
//!    the earliest pending event anywhere, so it is the next window's
//!    start; once it reaches `cut`, every worker stops.
//!
//! Conservative correctness: an event created at time `t ∈ [t₀, t₀+w)`
//! for another node is due at `t + delay ≥ t₀ + w`, i.e. strictly after
//! the current window — so deferring its delivery to the barrier cannot
//! reorder any node's event sequence, and every partition's view of its
//! own nodes is exactly the serial executor's (see the determinism
//! contract in [`crate::pdes`]). The same bound covers an event that
//! arrives one round early through a single mailbox cell: it was sent in
//! the next window, so it is due at or after that window's end, and the
//! queue orders by key whatever the arrival round. Host threads touch
//! nothing but disjoint node slices and the exchange; all thread
//! primitives come from the sanctioned pool [`crate::pdes_pool`].

use crate::pdes::{Ctx, Event, EventQueue, NodeRt, PdesSim, PdesStats, Sink};
use crate::pdes_pool::{run_partitioned, Exchange};

/// Contiguous partition bounds `[lo, hi)` for `n_nodes` over `hosts`
/// workers: sizes differ by at most one, larger blocks first. Pure
/// function of `(n_nodes, hosts)` — never of runtime state.
pub fn part_bounds(n_nodes: u32, hosts: usize) -> Vec<(u32, u32)> {
    let hosts = hosts.max(1).min(n_nodes.max(1) as usize) as u32;
    let base = n_nodes / hosts;
    let rem = n_nodes % hosts;
    let mut out = Vec::with_capacity(hosts as usize);
    let mut lo = 0;
    for p in 0..hosts {
        let len = base + u32::from(p < rem);
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

/// Everything one worker owns during a parallel run.
struct Part<'a> {
    lo: u32,
    nodes: &'a mut [NodeRt],
    heap: EventQueue,
    /// Outbound events per destination partition.
    outbox: Vec<Vec<Event>>,
    /// Scratch for the exchange's inbound events.
    inbox: Vec<Event>,
    delivered: u64,
}

impl PdesSim {
    /// Parallel run to completion with the widest legal window
    /// (`window = lookahead`).
    pub fn run_parallel(&mut self, hosts: usize) -> PdesStats {
        let w = self.lookahead();
        self.run_parallel_until(hosts, w, u64::MAX)
    }

    /// Windowed parallel executor: deliver every event with `at < cut`
    /// using `hosts` workers and windows of `window` simulated ns, then
    /// advance `now` to the cut. Bit-identical to
    /// [`PdesSim::run_until`](crate::pdes::PdesSim::run_until) for every
    /// legal `(hosts, window)` — that is the whole point.
    pub fn run_parallel_until(&mut self, hosts: usize, window: u64, cut: u64) -> PdesStats {
        assert!(hosts >= 1, "pdes: hosts must be >= 1");
        assert!(
            (1..=self.lookahead).contains(&window),
            "pdes: window {} outside 1..=lookahead {}",
            window,
            self.lookahead
        );
        self.ensure_init();
        let n_nodes = self.nodes.len() as u32;
        let bounds = part_bounds(n_nodes, hosts);
        let hosts = bounds.len();
        if hosts == 1 {
            // One worker is exactly the serial reference executor; skip
            // the barrier machinery (and its per-window overhead).
            return self.run_until(cut);
        }
        // Node -> partition map, shared read-only by every worker.
        let mut part_map = vec![0u32; n_nodes as usize];
        for (p, &(lo, hi)) in bounds.iter().enumerate() {
            for cell in &mut part_map[lo as usize..hi as usize] {
                *cell = p as u32;
            }
        }
        // Split the node slab into disjoint per-partition slices and deal
        // the pending events to their owning partitions.
        let mut parts: Vec<Part<'_>> = Vec::with_capacity(hosts);
        let mut rest: &mut [NodeRt] = &mut self.nodes;
        for &(lo, hi) in &bounds {
            let (mine, tail) = rest.split_at_mut((hi - lo) as usize);
            rest = tail;
            parts.push(Part {
                lo,
                nodes: mine,
                heap: EventQueue::new(self.lookahead),
                outbox: (0..hosts).map(|_| Vec::new()).collect(),
                inbox: Vec::new(),
                delivered: 0,
            });
        }
        for ev in self.pending.drain() {
            let p = part_map[ev.dst as usize] as usize;
            parts[p].heap.push(ev);
        }

        let first = parts
            .iter_mut()
            .filter_map(|p| p.heap.peek_at())
            .min()
            .unwrap_or(u64::MAX);
        let exchange: Exchange<Event> = Exchange::new(hosts);
        let lookahead = self.lookahead;
        let record = self.record;
        let part_map = &part_map;

        run_partitioned(&mut parts, |me, part| {
            let mut out: Vec<Event> = Vec::new();
            let mut start = first;
            let mut round = 0;
            while start < cut {
                let end = start.saturating_add(window).min(cut);
                let mut posted = u64::MAX;
                while let Some(mut ev) = part.heap.pop_lt(end) {
                    let rt = &mut part.nodes[(ev.dst - part.lo) as usize];
                    let mut ctx = Ctx::new(
                        ev.at,
                        ev.dst,
                        n_nodes,
                        lookahead,
                        &mut rt.seq,
                        &mut rt.rng,
                        Sink::Buf(&mut out),
                        record.then_some(&mut rt.log),
                    );
                    rt.node.handle(&mut ev, &mut ctx);
                    rt.events += 1;
                    rt.last_at = ev.at;
                    part.delivered += 1;
                    for e in out.drain(..) {
                        let q = part_map[e.dst as usize] as usize;
                        if q == me {
                            part.heap.push(e);
                        } else {
                            posted = posted.min(e.at);
                            part.outbox[q].push(e);
                        }
                    }
                }
                let min = part.heap.peek_at().unwrap_or(u64::MAX).min(posted);
                start = exchange.swap(me, round, &mut part.outbox, min, &mut part.inbox);
                round += 1;
                for e in part.inbox.drain(..) {
                    part.heap.push(e);
                }
            }
        });

        // Reassemble: undelivered events return to the global queue.
        let mut delivered = 0u64;
        for part in &mut parts {
            delivered += part.delivered;
            for ev in part.heap.drain() {
                self.pending.push(ev);
            }
        }
        drop(parts);
        self.events += delivered;
        self.now = if cut == u64::MAX {
            self.now.max(self.max_last_at())
        } else {
            self.now.max(cut)
        };
        PdesStats {
            events: self.events,
            end_time: self.max_last_at(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdes::tests::hot_ring;

    #[test]
    fn bounds_cover_exactly_once() {
        for n in [1u32, 2, 7, 8, 384] {
            for hosts in [1usize, 2, 3, 4, 8, 13] {
                let b = part_bounds(n, hosts);
                assert_eq!(b[0].0, 0);
                assert_eq!(b.last().unwrap().1, n);
                for w in b.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                    assert!(w[0].1 > w[0].0);
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial_end_to_end() {
        for hosts in [1usize, 2, 3, 4, 8] {
            let mut serial = hot_ring(11, 16, 500);
            let ss = serial.run();
            let mut par = hot_ring(11, 16, 500);
            let sp = par.run_parallel(hosts);
            assert_eq!(ss, sp, "hosts={hosts}");
            assert_eq!(serial.state_digest(), par.state_digest(), "hosts={hosts}");
        }
    }

    #[test]
    fn narrow_windows_match_too() {
        let mut serial = hot_ring(3, 8, 300);
        serial.run();
        for window in [1u64, 7, 100, 999, 1000] {
            let mut par = hot_ring(3, 8, 300);
            par.run_parallel_until(4, window, u64::MAX);
            assert_eq!(serial.state_digest(), par.state_digest(), "window={window}");
        }
    }

    #[test]
    fn parallel_then_serial_resume_matches() {
        let mut whole = hot_ring(21, 12, 400);
        let sw = whole.run();
        let mut mixed = hot_ring(21, 12, 400);
        mixed.run_parallel_until(4, 1000, 200_000);
        let sm = mixed.run();
        assert_eq!(sw, sm);
        assert_eq!(whole.state_digest(), mixed.state_digest());
    }

    #[test]
    fn logs_merge_identically_across_hosts() {
        let mut a = hot_ring(5, 8, 100);
        a.record_log(true);
        a.run();
        let la = a.drain_log();
        let mut b = hot_ring(5, 8, 100);
        b.record_log(true);
        b.run_parallel(4);
        let lb = b.drain_log();
        assert!(!la.is_empty());
        assert_eq!(la, lb);
    }
}
