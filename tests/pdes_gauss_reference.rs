//! T22's left-looking elimination against the eager model it replaced.
//!
//! `bfly_apps::pdes_gauss` defers each row's arithmetic until the row is
//! published as a pivot (or a snapshot shows it) and then subtracts its
//! missing pivots several per pass. The simulated machine must not see
//! any of that. This file keeps the eager model, which subtracted pivot
//! `k` from every later local row when step `k` completed, as a
//! reference, and checks that the two agree bit for bit on every node's
//! `state_words` at a mid-run cut, after a snapshot of that cut is
//! restored and run to completion, and at the end of a windowed-parallel
//! run.

use std::collections::BTreeMap;

use bfly_apps::pdes_gauss::{pdes_gauss_sim, system_row, K_DONE, K_PIVOT, K_START};
use bfly_machine::PdesTopology;
use bfly_sim::pdes::{Ctx, Event, LogRec, Payload, PdesNode, PdesSim};
use proptest::prelude::*;

/// The eager model: one simulated processor, pivots applied at K_DONE.
struct EagerNode {
    me: u32,
    p: u32,
    n: u32,
    topo: PdesTopology,
    /// My rows, global index ascending (row-cyclic: `g % p == me`).
    rows: Vec<(u32, Vec<f64>)>,
    /// Pivot rows received (or published) but not yet applied, by pivot
    /// number, as the shared broadcast payload (`f64::to_bits` words).
    stash: BTreeMap<u32, Payload>,
    /// Pivots fully applied to all my rows (== next pivot index needed).
    applied: u32,
    /// An elimination step is in flight (K_DONE pending).
    busy: bool,
    /// Virtual time this node went quiescent (applied == n).
    finish_at: u64,
    msgs: u64,
    comm_words: u64,
}

impl EagerNode {
    fn new(me: u32, p: u32, n: u32, seed: u64, topo: PdesTopology) -> EagerNode {
        let rows = (me..n)
            .step_by(p as usize)
            .map(|g| (g, system_row(n, seed, g)))
            .collect();
        EagerNode {
            me,
            p,
            n,
            topo,
            rows,
            stash: BTreeMap::new(),
            applied: 0,
            busy: false,
            finish_at: 0,
            msgs: 0,
            comm_words: 0,
        }
    }

    fn row_words(&self) -> u64 {
        self.n as u64 + 1
    }

    /// Local (within my memory region) index of my row with global
    /// index `g`.
    fn local_of(&self, g: u32) -> usize {
        self.rows
            .binary_search_by_key(&g, |r| r.0)
            .expect("pdes gauss: not my row")
    }

    /// Index of my first row strictly after pivot `k` (rows before it
    /// are already reduced).
    fn first_after(&self, k: u32) -> usize {
        self.rows.partition_point(|r| r.0 <= k)
    }

    /// Try to start the next elimination step; idles if the pivot has not
    /// arrived yet (a later K_PIVOT will retry).
    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        if self.busy || self.applied >= self.n {
            return;
        }
        let k = self.applied;
        if k % self.p == self.me {
            // I own pivot k and my rows are reduced through k-1: publish
            // one payload that every destination shares.
            let li = self.local_of(k);
            let row: Payload = self.rows[li].1.iter().map(|f| f.to_bits()).collect();
            let delay = self.topo.msg_ns(self.row_words());
            if ctx.logging() {
                let (at, me) = (ctx.now, ctx.me);
                let bytes = self.row_words() * 8;
                ctx.log(LogRec::Access {
                    at,
                    from: me,
                    node: me,
                    offset: li as u64 * bytes,
                    len: bytes,
                    write: true,
                });
                for q in 0..self.p {
                    if q != self.me {
                        ctx.log(LogRec::MsgSend {
                            at,
                            from: me,
                            to: q,
                            bytes,
                        });
                        let hops = self.topo.hops(me, q);
                        ctx.log(LogRec::Hop { at, from: me, hops });
                    }
                }
            }
            for q in 0..self.p {
                if q != self.me {
                    ctx.send_data(q, delay, K_PIVOT, k as u64, 0, row.clone());
                }
            }
            self.msgs += (self.p - 1) as u64;
            self.comm_words += (self.p - 1) as u64 * self.row_words();
            self.stash.insert(k, row);
            self.start_elim(k, ctx);
        } else if self.stash.contains_key(&k) {
            self.start_elim(k, ctx);
        }
    }

    /// Charge the step-`k` elimination as a virtual delay; the arithmetic
    /// itself happens when K_DONE lands.
    fn start_elim(&mut self, k: u32, ctx: &mut Ctx<'_>) {
        let touched = (self.rows.len() - self.first_after(k)) as u64;
        let width = (self.n - k) as u64 + 1;
        let cost = touched * width * 2 * self.topo.costs.local_word();
        self.busy = true;
        ctx.send(ctx.me, cost, K_DONE, k as u64, 0);
    }

    /// Apply pivot `k` to every local row after it (the K_DONE work).
    /// Zipping the `[k..=n]` suffixes leaves the inner loop free of bounds
    /// checks; the arithmetic is element for element the textbook loop.
    fn apply(&mut self, k: u32, ctx: &mut Ctx<'_>) {
        let pivot = self
            .stash
            .remove(&k)
            .expect("pdes gauss: K_DONE without pivot");
        let first = self.first_after(k);
        let (kk, nn) = (k as usize, self.n as usize);
        let pivot = &pivot[kk..=nn];
        let lead = f64::from_bits(pivot[0]);
        for (_, row) in &mut self.rows[first..] {
            let row = &mut row[kk..=nn];
            let factor = row[0] / lead;
            for (x, &p) in row.iter_mut().zip(pivot) {
                *x -= factor * f64::from_bits(p);
            }
            row[0] = 0.0;
        }
        if ctx.logging() && first < self.rows.len() {
            let (at, me) = (ctx.now, ctx.me);
            let bytes = self.row_words() * 8;
            let len = (self.rows.len() - first) as u64 * bytes;
            ctx.log(LogRec::Access {
                at,
                from: me,
                node: me,
                offset: first as u64 * bytes,
                len,
                write: true,
            });
        }
        self.applied = k + 1;
        self.busy = false;
        if self.applied == self.n {
            self.finish_at = ctx.now;
        }
    }
}

impl PdesNode for EagerNode {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me;
        ctx.send(me, 0, K_START, 0, 0);
    }

    fn handle(&mut self, ev: &mut Event, ctx: &mut Ctx<'_>) {
        match ev.kind {
            K_START => self.advance(ctx),
            K_PIVOT => {
                let k = ev.a as u32;
                if ctx.logging() {
                    let (at, me) = (ctx.now, ctx.me);
                    let bytes = self.row_words() * 8;
                    ctx.log(LogRec::MsgRecv {
                        at,
                        from: ev.src,
                        to: me,
                    });
                    // Reading the pivot row from the owner's home memory.
                    let owner_local = (k / self.p) as u64;
                    ctx.log(LogRec::Access {
                        at,
                        from: me,
                        node: ev.src,
                        offset: owner_local * bytes,
                        len: bytes,
                        write: false,
                    });
                }
                self.stash.insert(k, std::mem::take(&mut ev.data));
                self.advance(ctx);
            }
            K_DONE => {
                self.apply(ev.a as u32, ctx);
                self.advance(ctx);
            }
            other => panic!("pdes gauss: unknown event kind {other}"),
        }
    }

    fn state_words(&self) -> Vec<u64> {
        let mut w = vec![
            self.applied as u64,
            u64::from(self.busy),
            self.finish_at,
            self.msgs,
            self.comm_words,
            self.rows.len() as u64,
        ];
        for (g, row) in &self.rows {
            w.push(*g as u64);
            w.extend(row.iter().map(|f| f.to_bits()));
        }
        w.push(self.stash.len() as u64);
        for (&k, row) in &self.stash {
            w.push(k as u64);
            w.extend_from_slice(row);
        }
        w
    }

    fn load_words(&mut self, words: &[u64]) -> Result<(), String> {
        let rw = self.row_words() as usize;
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u64], String> {
            if pos + n > words.len() {
                return Err("gauss node: truncated state".into());
            }
            let s = &words[pos..pos + n];
            pos += n;
            Ok(s)
        };
        let head = take(6)?;
        let (applied, busy, finish_at, msgs, comm_words, nrows) =
            (head[0], head[1], head[2], head[3], head[4], head[5]);
        if nrows as usize != self.rows.len() {
            return Err("gauss node: row count mismatch".into());
        }
        let mut rows = Vec::with_capacity(nrows as usize);
        for _ in 0..nrows {
            let g = take(1)?[0] as u32;
            let row: Vec<f64> = take(rw)?.iter().map(|&w| f64::from_bits(w)).collect();
            rows.push((g, row));
        }
        let nstash = take(1)?[0];
        let mut stash = BTreeMap::new();
        for _ in 0..nstash {
            let k = take(1)?[0];
            if k >= self.n as u64 {
                return Err("gauss node: stash index out of range".into());
            }
            stash.insert(k as u32, take(rw)?.iter().copied().collect());
        }
        if pos != words.len() {
            return Err("gauss node: trailing state words".into());
        }
        self.applied = applied as u32;
        self.busy = busy != 0;
        self.finish_at = finish_at;
        self.msgs = msgs;
        self.comm_words = comm_words;
        self.rows = rows;
        self.stash = stash;
        Ok(())
    }
}

/// The eager twin of `pdes_gauss_sim`.
fn eager_sim(p: u32, n: u32, seed: u64, machine: u32) -> PdesSim {
    let topo = PdesTopology::butterfly(machine);
    let lookahead = topo.lookahead_ns();
    let nodes: Vec<Box<dyn PdesNode>> = (0..p)
        .map(|me| Box::new(EagerNode::new(me, p, n, seed, topo.clone())) as Box<dyn PdesNode>)
        .collect();
    PdesSim::new(seed, lookahead, nodes)
}

/// Every node's `state_words`, in node order.
fn states(sim: &PdesSim, p: u32) -> Vec<Vec<u64>> {
    (0..p).map(|q| sim.node_state(q)).collect()
}

/// `Err` naming the first node and word where `got` leaves `want`.
fn same(what: &str, got: &[Vec<u64>], want: &[Vec<u64>]) -> Result<(), String> {
    for (q, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            let at = g.iter().zip(w).position(|(a, b)| a != b);
            return Err(format!(
                "{what}: node {q} differs at word {at:?} ({} vs {} words)",
                g.len(),
                w.len()
            ));
        }
    }
    Ok(())
}

/// Run the lazy and the eager model of one point and compare them at the
/// cut (`cut_pm`‰ of the eager run's end time), after the lazy cut's
/// snapshot is restored and run to completion, and at the end of a
/// windowed run on `hosts` workers (whose instrumentation log must match
/// the eager run's too).
fn agree(p: u32, n: u32, seed: u64, machine: u32, cut_pm: u64, hosts: usize) -> Result<(), String> {
    let mut eager = eager_sim(p, n, seed, machine);
    eager.record_log(true);
    let end = eager.run().end_time;
    let done = states(&eager, p);
    let cut = end * cut_pm / 1000;

    let mut lazy = pdes_gauss_sim(p, n, seed, machine);
    let mut eager_cut = eager_sim(p, n, seed, machine);
    lazy.run_until(cut);
    eager_cut.run_until(cut);
    same("at the cut", &states(&lazy, p), &states(&eager_cut, p))?;
    if lazy.state_hash() != eager_cut.state_hash() {
        return Err("at the cut: snapshot bytes differ".into());
    }

    let snap = lazy.snapshot();
    let mut resumed = PdesSim::restore(&snap, || pdes_gauss_sim(p, n, seed, machine))
        .map_err(|e| format!("restore: {e:?}"))?;
    resumed.run();
    same("restored and finished", &states(&resumed, p), &done)?;
    if resumed.state_digest() != eager.state_digest() {
        return Err("restored and finished: digests differ".into());
    }

    let mut par = pdes_gauss_sim(p, n, seed, machine);
    par.record_log(true);
    par.run_parallel(hosts);
    same("windowed run", &states(&par, p), &done)?;
    if par.drain_log() != eager.drain_log() {
        return Err("windowed run: instrumentation logs differ".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lazy_elimination_matches_the_eager_model(
        p in 1u32..=12,
        n in 1u32..=40,
        seed in any::<u64>(),
        cut_pm in 0u64..=1000,
        hosts in 2usize..=4,
    ) {
        if let Err(e) = agree(p, n, seed, 64, cut_pm, hosts) {
            return Err(TestCaseError::fail(format!(
                "p={p} n={n} seed={seed} cut={cut_pm}‰ hosts={hosts}: {e}"
            )));
        }
    }
}

/// The shapes the random sweep may miss: one processor, one row per node
/// (`p > n/2`), a single row, and `n` on either side of a multiple of the
/// fuse width, each cut early, midway and late.
#[test]
fn lazy_elimination_matches_the_eager_model_on_edge_shapes() {
    for (p, n) in [
        (1, 40),
        (1, 9),
        (12, 13),
        (7, 12),
        (3, 1),
        (5, 23),
        (4, 24),
        (2, 33),
    ] {
        for cut_pm in [100, 500, 900] {
            agree(p, n, 19, 128, cut_pm, 3)
                .unwrap_or_else(|e| panic!("p={p} n={n} cut={cut_pm}‰: {e}"));
        }
    }
}
