//! # Gaussian elimination as a PDES model (experiment T22).
//!
//! The same §4.1 workload as `gauss.rs`, re-expressed for the
//! parallel-in-time engine: each simulated processor is a
//! [`PdesNode`] state machine, pivot rows travel as timestamped events,
//! and elimination work is charged as virtual compute delays. Rows are
//! distributed row-cyclically; the owner of pivot `k` publishes the
//! reduced row to every other processor (`P·N` messages — the paper's
//! SMP message count), and receivers keep every pivot. Elimination step
//! `k` is charged in virtual time once pivot `k` is available, but its
//! host arithmetic is left-looking: a row catches up on all the pivots
//! it lacks, four per pass, only when its owner publishes it (or a
//! snapshot has to show it), so a row is loaded and stored once per four
//! pivots instead of once per pivot. All cross-node latencies come from
//! [`bfly_machine::PdesTopology`], so they are ≥ the conservative
//! lookahead by construction.
//!
//! The model is a pure function of `(p, n, seed)` — no RNG draws during
//! the run, no host state — so the PDES determinism contract applies:
//! serial and windowed-parallel execution produce bit-identical matrices,
//! timings, message counts and instrumentation logs.
//!
//! Instrumentation (`--probe`/`--sanitize` replay): each node's rows live
//! in its own memory region (local row `l` at byte offset
//! `l·(n+1)·8`). Publishing logs a write of the pivot row plus one
//! `MsgSend` and a switch-hop record per destination; receipt logs
//! `MsgRecv` plus a remote read of the owner's region; each elimination
//! step logs one write covering the updated suffix of the local region.
//! Message edges make every remote read race-free — the san replay must
//! confirm a clean report.

use bfly_machine::PdesTopology;
use bfly_sim::pdes::{Ctx, Event, LogRec, Payload, PdesNode, PdesSim};
use bfly_sim::SplitMix64;

/// Kick-off self-event, delivered to every node at t=0.
pub const K_START: u16 = 0;
/// A pivot row: `a` = pivot index, payload = row words (`f64::to_bits`).
pub const K_PIVOT: u16 = 1;
/// Elimination step complete: `a` = pivot index just applied.
pub const K_DONE: u16 = 2;

/// Per-element elimination charge: one multiply-subtract touching two
/// local words (≈1.6 µs on Butterfly-I — the paper-era C inner loop).
fn elem_ns(topo: &PdesTopology) -> u64 {
    2 * topo.costs.local_word()
}

/// Deterministic row `r` of the augmented system: diagonally dominant,
/// known solution `x_j = j + 1`. Pure function of `(n, seed, r)`, so any
/// node (or a restore) regenerates identical bits.
pub fn system_row(n: u32, seed: u64, r: u32) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ 0x517c_c1b7_2722_0a95u64.wrapping_mul(r as u64 + 1));
    let mut row = vec![0.0f64; n as usize + 1];
    for j in 0..n {
        row[j as usize] = rng.next_f64();
    }
    row[r as usize] += n as f64;
    let b: f64 = (0..n).map(|j| row[j as usize] * (j as f64 + 1.0)).sum();
    row[n as usize] = b;
    row
}

/// Pivots fused into one pass over a row by [`eliminate`]: the row stays
/// in registers and L1 while this many pivot rows stream past it.
const FUSE: usize = 4;

/// Subtract pivots `from..to` from row `x`, the textbook way and in
/// ascending pivot order: [`FUSE`] pivots per pass, then one per pass
/// for the remainder. `pivots[k - base]` is pivot row `k` as
/// `f64::to_bits` words; `x` must already be reduced by every pivot below
/// `from`.
fn eliminate(x: &mut [f64], from: u32, to: u32, pivots: &[Payload], base: u32) {
    let (mut k, to) = (from as usize, to as usize);
    let pivots = &pivots[(from - base) as usize..];
    while k + FUSE <= to {
        fused::<FUSE>(x, k, &pivots[k - from as usize..]);
        k += FUSE;
    }
    for k in k..to {
        fused::<1>(x, k, &pivots[k - from as usize..]);
    }
}

/// Subtract pivots `k..k+M` (`pivots[..M]`) from `x` in one pass. Every element receives
/// `x[j] -= f_b · p_b[j]` for b = 0, 1, …, M−1 in that order, and each
/// factor `f_b = x[k+b] / p_b[k+b]` is taken only after the earlier
/// pivots' terms have reached `x[k+b]` (the head triangle below), so the
/// result is bit-identical to M single-pivot passes: Rust never contracts
/// a multiply and a subtract into an FMA.
fn fused<const M: usize>(x: &mut [f64], k: usize, pivots: &[Payload]) {
    let p: [&[u64]; M] = std::array::from_fn(|b| &pivots[b][..]);
    let mut f = [0.0f64; M];
    for b in 0..M {
        let kb = k + b;
        f[b] = x[kb] / f64::from_bits(p[b][kb]);
        for j in kb + 1..k + M {
            x[j] -= f[b] * f64::from_bits(p[b][j]);
        }
        x[kb] = 0.0;
    }
    let tail = &mut x[k + M..];
    let p = p.map(|p| &p[k + M..][..tail.len()]);
    for (j, x) in tail.iter_mut().enumerate() {
        let mut v = *x;
        for b in 0..M {
            v -= f[b] * f64::from_bits(p[b][j]);
        }
        *x = v;
    }
}

/// One of a node's rows. Its arithmetic is lazy: pivots are subtracted
/// only when the row is published or a snapshot has to show it.
struct Row {
    /// Global row index.
    g: u32,
    /// Pivots `0..done` have been subtracted from `x`.
    done: u32,
    /// The `n + 1` words of the augmented row.
    x: Vec<f64>,
}

/// One simulated processor of the PDES gauss machine.
pub struct GaussNode {
    me: u32,
    p: u32,
    n: u32,
    topo: PdesTopology,
    /// My rows, global index ascending (row-cyclic: `g % p == me`).
    rows: Vec<Row>,
    /// Pivot rows received or published, `pivots[k - base]` for pivot
    /// `k`, as the shared broadcast payload (`f64::to_bits` words); an
    /// empty entry has not arrived. Grows as pivots arrive; a row catches
    /// up on all it lacks only when it is published, so the front goes
    /// only below what every unpublished row has subtracted (see
    /// [`GaussNode::trim`]).
    pivots: Vec<Payload>,
    /// The pivot number of `pivots[0]`.
    base: u32,
    /// Elimination steps completed (== next pivot index needed). In the
    /// simulated machine every row `g` holds `min(applied, g)` pivots;
    /// on the host it may lag behind that (`Row::done`).
    applied: u32,
    /// An elimination step is in flight (K_DONE pending).
    busy: bool,
    /// Virtual time this node went quiescent (applied == n).
    finish_at: u64,
    msgs: u64,
    comm_words: u64,
}

impl GaussNode {
    fn new(me: u32, p: u32, n: u32, seed: u64, topo: PdesTopology) -> GaussNode {
        let rows = (me..n)
            .step_by(p as usize)
            .map(|g| Row {
                g,
                done: 0,
                x: system_row(n, seed, g),
            })
            .collect();
        GaussNode {
            me,
            p,
            n,
            topo,
            rows,
            pivots: Vec::new(),
            base: 0,
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
            .binary_search_by_key(&g, |r| r.g)
            .expect("pdes gauss: not my row")
    }

    /// Index of my first row strictly after pivot `k`: the rows that
    /// elimination step `k` updates.
    fn first_after(&self, k: u32) -> usize {
        self.rows.partition_point(|r| r.g <= k)
    }

    fn has_pivot(&self, k: u32) -> bool {
        k >= self.base
            && self
                .pivots
                .get((k - self.base) as usize)
                .is_some_and(|p| !p.is_empty())
    }

    fn stash(&mut self, k: u32, row: Payload) {
        let i = (k - self.base) as usize;
        if self.pivots.len() <= i {
            self.pivots.resize(i + 1, Payload::default());
        }
        self.pivots[i] = row;
    }

    /// Drop the pivots no row can need again: those below `applied` (the
    /// snapshot shows only `k >= applied`) and below what every
    /// unpublished row has already subtracted (a published row is
    /// final). They go once they are half the table, so the front moves
    /// in amortized constant time and the table holds at most twice the
    /// pivots still needed.
    fn trim(&mut self) {
        let first = self.rows.partition_point(|r| r.g < self.applied);
        let keep = self.rows[first..]
            .iter()
            .map(|r| r.done)
            .fold(self.applied, u32::min);
        let dead = (keep - self.base) as usize;
        if dead > 0 && dead * 2 >= self.pivots.len() {
            self.pivots.drain(..dead);
            self.base = keep;
        }
    }

    /// Try to start the next elimination step; idles if the pivot has not
    /// arrived yet (a later K_PIVOT will retry).
    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        if self.busy || self.applied >= self.n {
            return;
        }
        let k = self.applied;
        if k % self.p == self.me {
            // I own pivot k and every pivot before it has been applied:
            // catch the row up on them and publish one payload that every
            // destination shares.
            let li = self.local_of(k);
            let row = &mut self.rows[li];
            eliminate(&mut row.x, row.done, k, &self.pivots, self.base);
            row.done = k;
            let row: Payload = row.x.iter().map(|f| f.to_bits()).collect();
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
            self.stash(k, row);
            self.trim();
            self.start_elim(k, ctx);
        } else if self.has_pivot(k) {
            self.start_elim(k, ctx);
        }
    }

    /// Charge the step-`k` elimination as a virtual delay. Its host
    /// arithmetic is deferred: each row catches up on the pivots it
    /// lacks when it is published (or a snapshot shows it).
    fn start_elim(&mut self, k: u32, ctx: &mut Ctx<'_>) {
        let touched = (self.rows.len() - self.first_after(k)) as u64;
        let width = (self.n - k) as u64 + 1;
        let cost = touched * width * elem_ns(&self.topo);
        self.busy = true;
        ctx.send(ctx.me, cost, K_DONE, k as u64, 0);
    }

    /// Step `k` is complete in simulated time: pivot `k` now counts as
    /// applied to every local row after it.
    fn finish_elim(&mut self, k: u32, ctx: &mut Ctx<'_>) {
        assert!(self.has_pivot(k), "pdes gauss: K_DONE without pivot");
        let first = self.first_after(k);
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
        self.trim();
    }
}

impl PdesNode for GaussNode {
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
                self.stash(k, std::mem::take(&mut ev.data));
                self.advance(ctx);
            }
            K_DONE => {
                self.finish_elim(ev.a as u32, ctx);
                self.advance(ctx);
            }
            other => panic!("pdes gauss: unknown event kind {other}"),
        }
    }

    /// The simulated state: every row with `min(applied, g)` pivots
    /// subtracted (a lagging row is caught up on a copy), then the stash
    /// of pivots `k ≥ applied` that have arrived, ascending.
    fn state_words(&self) -> Vec<u64> {
        let mut w = vec![
            self.applied as u64,
            u64::from(self.busy),
            self.finish_at,
            self.msgs,
            self.comm_words,
            self.rows.len() as u64,
        ];
        for row in &self.rows {
            w.push(row.g as u64);
            let want = self.applied.min(row.g);
            if row.done < want {
                let mut x = row.x.clone();
                eliminate(&mut x, row.done, want, &self.pivots, self.base);
                w.extend(x.iter().map(|f| f.to_bits()));
            } else {
                w.extend(row.x.iter().map(|f| f.to_bits()));
            }
        }
        let stash: Vec<(u32, &Payload)> = self
            .pivots
            .iter()
            .enumerate()
            .skip((self.applied - self.base) as usize)
            .filter(|(_, row)| !row.is_empty())
            .map(|(i, row)| (self.base + i as u32, row))
            .collect();
        w.push(stash.len() as u64);
        for (k, row) in stash {
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
            let x: Vec<f64> = take(rw)?.iter().map(|&w| f64::from_bits(w)).collect();
            let done = (applied as u32).min(g);
            rows.push(Row { g, done, x });
        }
        let nstash = take(1)?[0];
        let mut stash = Vec::new();
        for _ in 0..nstash {
            let k = take(1)?[0];
            if k < applied || k >= self.n as u64 {
                return Err("gauss node: stash index out of range".into());
            }
            stash.push((k as u32, take(rw)?.iter().copied().collect()));
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
        // Every row holds `min(applied, g)` pivots again: none below
        // `applied` is needed.
        self.pivots = Vec::new();
        self.base = self.applied;
        for (k, row) in stash {
            self.stash(k, row);
        }
        Ok(())
    }
}

/// Result of one PDES gauss point.
#[derive(Debug, Clone, PartialEq)]
pub struct PdesGaussResult {
    /// Simulated processors.
    pub p: u32,
    /// Problem size.
    pub n: u32,
    /// Simulated completion time (max node finish time).
    pub time_ns: u64,
    /// PDES events delivered.
    pub events: u64,
    /// Pivot messages sent (`= N·(P−1)` for P>1).
    pub msgs: u64,
    /// Message payload volume in words.
    pub comm_words: u64,
    /// Max |x_j − (j+1)| after host-side back-substitution.
    pub max_err: f64,
    /// Full-state digest (the bit-identity witness).
    pub digest: u64,
}

/// Build the simulation: `p` processors eliminating an `n×n` system on a
/// `machine_nodes`-node Butterfly (lookahead derived from its switch
/// depth).
pub fn pdes_gauss_sim(p: u32, n: u32, seed: u64, machine_nodes: u32) -> PdesSim {
    assert!(p >= 1 && p <= machine_nodes, "pdes gauss: p out of range");
    assert!(n >= 1, "pdes gauss: n out of range");
    let topo = PdesTopology::butterfly(machine_nodes);
    let lookahead = topo.lookahead_ns();
    let nodes: Vec<Box<dyn PdesNode>> = (0..p)
        .map(|me| Box::new(GaussNode::new(me, p, n, seed, topo.clone())) as Box<dyn PdesNode>)
        .collect();
    PdesSim::new(seed, lookahead, nodes)
}

/// Extract the result from a completed simulation (host-side
/// back-substitution proves the system was actually solved).
pub fn pdes_gauss_extract(sim: &PdesSim, p: u32, n: u32) -> PdesGaussResult {
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); n as usize];
    let mut time_ns = 0u64;
    let mut msgs = 0u64;
    let mut comm_words = 0u64;
    for node in 0..p {
        let w = sim.node_state(node);
        let (finish_at, nmsgs, ncomm, nrows) = (w[2], w[3], w[4], w[5] as usize);
        time_ns = time_ns.max(finish_at);
        msgs += nmsgs;
        comm_words += ncomm;
        let rw = n as usize + 1;
        let mut pos = 6;
        for _ in 0..nrows {
            let g = w[pos] as usize;
            rows[g] = w[pos + 1..pos + 1 + rw]
                .iter()
                .map(|&x| f64::from_bits(x))
                .collect();
            pos += 1 + rw;
        }
    }
    // Back-substitute the upper-triangular system.
    let nn = n as usize;
    let mut x = vec![0.0f64; nn];
    for i in (0..nn).rev() {
        let mut s = rows[i][nn];
        for (j, xj) in x.iter().enumerate().take(nn).skip(i + 1) {
            s -= rows[i][j] * xj;
        }
        x[i] = s / rows[i][i];
    }
    let max_err = x
        .iter()
        .enumerate()
        .map(|(j, xj)| (xj - (j as f64 + 1.0)).abs())
        .fold(0.0f64, f64::max);
    PdesGaussResult {
        p,
        n,
        time_ns,
        events: sim.events(),
        msgs,
        comm_words,
        max_err,
        digest: sim.state_digest(),
    }
}

/// One FIG5-style point end to end: build, run (serial for `hosts ≤ 1`,
/// windowed-parallel otherwise — same bits either way), extract.
pub fn pdes_gauss(p: u32, n: u32, seed: u64, machine_nodes: u32, hosts: usize) -> PdesGaussResult {
    let mut sim = pdes_gauss_sim(p, n, seed, machine_nodes);
    if hosts <= 1 {
        sim.run();
    } else {
        sim.run_parallel(hosts);
    }
    pdes_gauss_extract(&sim, p, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pivot `k` subtracted from one row, one pivot per pass: the loop
    /// the eager model ran at every K_DONE.
    fn single(x: &mut [f64], k: usize, pivot: &[u64]) {
        let n = x.len() - 1;
        let pivot = &pivot[k..=n];
        let lead = f64::from_bits(pivot[0]);
        let row = &mut x[k..=n];
        let factor = row[0] / lead;
        for (x, &p) in row.iter_mut().zip(pivot) {
            *x -= factor * f64::from_bits(p);
        }
        row[0] = 0.0;
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn fused_catch_up_matches_single_pivot_passes() {
        let (n, seed) = (23u32, 5u64);
        // Every pivot row, reduced one pivot per pass.
        let mut pivots: Vec<Payload> = Vec::new();
        for g in 0..n {
            let mut x = system_row(n, seed, g);
            for (k, pivot) in pivots.iter().enumerate() {
                single(&mut x, k, pivot);
            }
            pivots.push(bits(&x).into_iter().collect());
        }
        // Catch-ups from a fresh row and from one already reduced through
        // pivot 6 (as after a restore), over spans around the fuse width
        // and over every pivot the last row lacks.
        for from in [0usize, 7] {
            let all = n as usize - 1 - from;
            for span in [0, 1, FUSE - 1, FUSE, FUSE + 1, all] {
                let to = from + span;
                for r in [to as u32, n - 1] {
                    let mut want = system_row(n, seed, r);
                    for (k, pivot) in pivots[..from].iter().enumerate() {
                        single(&mut want, k, pivot);
                    }
                    let mut got = want.clone();
                    for (k, pivot) in pivots[..to].iter().enumerate().skip(from) {
                        single(&mut want, k, pivot);
                    }
                    eliminate(&mut got, from as u32, to as u32, &pivots, 0);
                    assert_eq!(bits(&got), bits(&want), "row {r}, pivots {from}..{to}");
                }
            }
        }
    }

    #[test]
    fn solves_the_system() {
        let r = pdes_gauss(4, 24, 7, 128, 1);
        assert!(r.max_err < 1e-6, "max_err={}", r.max_err);
        assert_eq!(r.msgs, 24 * 3);
        assert!(r.time_ns > 0);
    }

    #[test]
    fn serial_and_parallel_are_bit_identical() {
        let a = pdes_gauss(8, 32, 7, 128, 1);
        for hosts in [2usize, 3, 4, 8] {
            let b = pdes_gauss(8, 32, 7, 128, hosts);
            assert_eq!(a, b, "hosts={hosts}");
        }
    }

    #[test]
    fn single_processor_sends_nothing() {
        let r = pdes_gauss(1, 16, 3, 128, 1);
        assert!(r.max_err < 1e-6);
        assert_eq!(r.msgs, 0);
    }

    #[test]
    fn more_processors_run_faster_until_comm_dominates() {
        let t1 = pdes_gauss(1, 48, 7, 128, 1).time_ns;
        let t4 = pdes_gauss(4, 48, 7, 128, 1).time_ns;
        let t16 = pdes_gauss(16, 48, 7, 128, 1).time_ns;
        assert!(t4 < t1, "p=4 {t4} !< p=1 {t1}");
        assert!(t16 < t4, "p=16 {t16} !< p=4 {t4}");
    }

    #[test]
    fn probed_logs_match_across_hosts() {
        let run = |hosts: usize| {
            let mut sim = pdes_gauss_sim(6, 20, 5, 64);
            sim.record_log(true);
            if hosts <= 1 {
                sim.run();
            } else {
                sim.run_parallel(hosts);
            }
            sim.drain_log()
        };
        let a = run(1);
        let b = run(4);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn midrun_snapshot_swaps_engines() {
        use bfly_sim::pdes::PdesSim;
        let mut whole = pdes_gauss_sim(6, 24, 9, 64);
        whole.run();
        let full = pdes_gauss_extract(&whole, 6, 24);

        let mut par = pdes_gauss_sim(6, 24, 9, 64);
        let la = par.lookahead();
        par.run_parallel_until(3, la, 2_000_000);
        let snap = par.snapshot();
        let mut resumed =
            PdesSim::restore(&snap, || pdes_gauss_sim(6, 24, 9, 64)).expect("restores");
        resumed.run();
        let got = pdes_gauss_extract(&resumed, 6, 24);
        assert_eq!(full, got);
    }
}
