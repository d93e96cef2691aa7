//! Gaussian elimination — the paper's best-studied application (§3.1) and
//! the source of **Figure 5**.
//!
//! Both versions diagonalize an augmented `n × (n+1)` system (Gauss–Jordan,
//! matching the paper's "diagonalization of matrices by Gaussian
//! elimination") and solve it for a known vector, so results are checked.
//!
//! * [`gauss_us`] — Bob Thomas's Uniform System style \[16,55\]: the matrix
//!   is scattered through globally shared memory; tasks are dispatched per
//!   row per step; each manager block-copies the pivot row once per step
//!   (the standard US caching technique), but the row being reduced is
//!   accessed **word-by-word in shared memory** — the natural US idiom the
//!   paper critiques. Communication operations ≈ `(N²−N) + P(N−1)`.
//! * [`gauss_smp`] — LeBlanc's message-passing version \[28,29\]: rows are
//!   distributed round-robin among P heavyweight processes; the pivot
//!   owner *sends* the pivot row to the other P−1 processes each step,
//!   so messages = `P·N`, and reduction happens entirely on local data.
//!
//! The paper's observed anomaly, which experiment FIG5 reproduces: SMP
//! wins below ~64 processors; beyond 64 the Uniform System's timings stay
//! flat while SMP's *increase*, because doubling P doubles SMP's
//! communication but barely changes the Uniform System's.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use bfly_chrysalis::Os;
use bfly_machine::{Machine, MachineConfig, NodeId};
use bfly_sim::{FaultPlan, Sim, SimTime};
use bfly_smp::{Family, SmpCosts, Topology};
use bfly_snap::{Section, Snap};
use bfly_uniform::{task, Us, UsMatrix};

/// Cost of one floating-point operation, including operand handling
/// (MC68881 daughter-board era, §2.1: double-precision multiply-add with
/// memory operands ≈ 10 µs).
pub const FLOP: SimTime = 10_000;

/// Outcome of one Gaussian-elimination run.
#[derive(Debug, Clone)]
pub struct GaussResult {
    /// Simulated wall time.
    pub time_ns: SimTime,
    /// Communication operations (US: remote refs + block copies;
    /// SMP: messages).
    pub comm_ops: u64,
    /// Max |x_i − expected_i| (solution accuracy; checks the run really
    /// solved the system).
    pub max_err: f64,
    /// Engine statistics for the run (events processed, host wall time —
    /// feeds the `--stats` flag and the perf baseline report).
    pub run: bfly_sim::exec::RunStats,
}

/// Build a well-conditioned augmented system whose solution is
/// `x_i = i + 1`.
fn build_system(n: u32, seed: u64) -> Vec<f64> {
    let mut rng = bfly_sim::SplitMix64::new(seed);
    let mut a = vec![0.0f64; (n * (n + 1)) as usize];
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            let v = rng.next_f64() - 0.5;
            a[(i * (n + 1) + j) as usize] = v;
            row_sum += v.abs();
        }
        // Diagonal dominance keeps Gauss–Jordan stable without pivoting.
        a[(i * (n + 1) + i) as usize] += row_sum + 1.0;
        let b: f64 = (0..n)
            .map(|j| a[(i * (n + 1) + j) as usize] * (j + 1) as f64)
            .sum();
        a[(i * (n + 1) + n) as usize] = b;
    }
    a
}

fn check_solution(mat: &UsMatrix, n: u32) -> f64 {
    let mut max_err = 0.0f64;
    for i in 0..n {
        let x = mat.peek(i, n) / mat.peek(i, i);
        max_err = max_err.max((x - (i + 1) as f64).abs());
    }
    max_err
}

enum PreparedMode {
    Us {
        us: Rc<Us>,
        row_updates: Rc<Cell<u64>>,
        mat: Rc<UsMatrix>,
        n: u32,
    },
    Smp {
        fam: Family,
        mat: Rc<UsMatrix>,
        n: u32,
    },
}

/// A Gaussian-elimination run that has been fully set up but not yet
/// driven: the program (tasks, matrix, runtime) is in place and `sim` can
/// be stepped with [`Sim::run_events`], snapshotted mid-flight with
/// [`PreparedGauss::snapshot`], or driven to completion with
/// [`PreparedGauss::finish`]. This is the checkpoint/restore seam: a
/// restore rebuilds the same prepared program (same arguments, same seed)
/// and fast-forwards, and the snapshot's extra sections (machine, runtime,
/// probe/san when ambient) prove the replayed state matches.
pub struct PreparedGauss {
    /// The engine. Public so checkpointing callers can step and restore.
    pub sim: Sim,
    machine: Rc<Machine>,
    mode: PreparedMode,
}

impl PreparedGauss {
    /// The simulated machine (for late probe attachment in replay).
    pub fn machine(&self) -> &Rc<Machine> {
        &self.machine
    }

    /// Full-state snapshot: engine + scheduler sections from
    /// [`Sim::snapshot`], then machine queues/counters, the runtime
    /// (`us` or `smp`) section, and — when ambient instrumentation is
    /// installed — `probe` and `san` sections built from their plain-data
    /// counter dumps.
    pub fn snapshot(&self) -> Snap {
        let mut snap = self.sim.snapshot();
        snap.push(self.machine.snapshot_section());
        match &self.mode {
            PreparedMode::Us { us, .. } => {
                snap.push(us.snapshot_section());
            }
            PreparedMode::Smp { fam, .. } => {
                snap.push(fam.snapshot_section());
            }
        }
        if let Some(p) = bfly_probe::ambient() {
            let mut s = Section::new("probe");
            for (k, v) in p.snapshot_fields() {
                s.field_u64(k, v);
            }
            snap.push(s);
        }
        if let Some(sn) = bfly_san::ambient() {
            let mut s = Section::new("san");
            for (k, v) in sn.snapshot_fields() {
                s.field_u64(k, v);
            }
            snap.push(s);
        }
        snap
    }

    /// Drive the run to quiescence and assemble the [`GaussResult`].
    /// Works from any intermediate point — fresh, stepped, or restored.
    pub fn finish(self) -> GaussResult {
        let run = self.sim.run();
        let st = self.machine.stats();
        match self.mode {
            PreparedMode::Us {
                row_updates,
                mat,
                n,
                ..
            } => GaussResult {
                time_ns: self.sim.now(),
                // Row updates (N²−N) plus pivot block copies (≈ P(N−1)):
                // the paper's Uniform System communication-operation count.
                comm_ops: row_updates.get() + st.block_transfers,
                max_err: check_solution(&mat, n),
                run,
            },
            PreparedMode::Smp { fam, mat, n } => GaussResult {
                time_ns: self.sim.now(),
                comm_ops: fam.messages_sent(),
                max_err: check_solution(&mat, n),
                run,
            },
        }
    }
}

/// Uniform System Gaussian elimination on `nprocs` processors of a
/// 128-node machine, with the matrix scattered over `mem_nodes` memories
/// (pass all nodes for the paper's recommended placement, a small set for
/// the contended baseline of experiment T5).
pub fn gauss_us(nprocs: u16, n: u32, mem_nodes: Vec<NodeId>, seed: u64) -> GaussResult {
    prepare_gauss_us(nprocs, n, mem_nodes, seed).finish()
}

/// Set up [`gauss_us`] without running it (checkpoint/restore seam).
pub fn prepare_gauss_us(nprocs: u16, n: u32, mem_nodes: Vec<NodeId>, seed: u64) -> PreparedGauss {
    let sim = Sim::with_seed(seed);
    let machine = Machine::new(&sim, MachineConfig::rochester());
    let os = Os::boot(&machine);
    let us = Us::init_custom(
        &os,
        nprocs,
        mem_nodes,
        bfly_uniform::AllocMode::Parallel,
        bfly_uniform::UsCosts::default(),
    );
    let mat = Rc::new(UsMatrix::new(&us, n, n + 1));
    mat.load(&build_system(n, seed));

    // Per-manager pivot-row cache: (step, pivot row slice from column k).
    type PivotCache = Rc<RefCell<HashMap<NodeId, (u32, Rc<Vec<f64>>)>>>;
    let cache: PivotCache = Rc::new(RefCell::new(HashMap::new()));
    // (N²−N) row updates + P(N−1) pivot copies = the paper's comm formula.
    let row_updates = Rc::new(std::cell::Cell::new(0u64));
    let row_updates2 = row_updates.clone();

    let us2 = us.clone();
    let mat2 = mat.clone();
    os.boot_process(0, "gauss-driver", move |_p| async move {
        for k in 0..n {
            let mat3 = mat2.clone();
            let cache3 = cache.clone();
            let row_updates = row_updates2.clone();
            us2.gen_on_index(
                0..(n - 1) as u64,
                task(move |p, idx| {
                    let mat = mat3.clone();
                    let cache = cache3.clone();
                    let row_updates = row_updates.clone();
                    async move {
                        let i = if (idx as u32) < k {
                            idx as u32
                        } else {
                            idx as u32 + 1
                        };
                        // Manager-local pivot cache: one block copy per
                        // manager per step (the P(N−1) term). All P copies
                        // come from the pivot row's home memory, whose
                        // serialization is what flattens the US curve at
                        // high P.
                        let pivot = {
                            let hit = cache
                                .borrow()
                                .get(&p.node)
                                .filter(|(step, _)| *step == k)
                                .map(|(_, row)| row.clone());
                            match hit {
                                Some(row) => row,
                                None => {
                                    let row = Rc::new(mat.read_row(&p, k, k, n + 1).await);
                                    cache.borrow_mut().insert(p.node, (k, row.clone()));
                                    row
                                }
                            }
                        };
                        // Reduce row i **word-by-word in shared memory** —
                        // the natural US idiom (§2.3: "the illusion is not
                        // supported by the hardware"): each element is a
                        // remote read, two FLOPs and a remote write. One
                        // row update here is one of the (N²−N)
                        // communication operations of the paper's formula.
                        let aik = mat.get(&p, i, k).await;
                        let factor = aik / pivot[0];
                        p.compute(FLOP).await;
                        mat.update_row(&p, i, k..n + 1, 2 * FLOP, move |j, v| {
                            v - factor * pivot[(j - k) as usize]
                        })
                        .await;
                        row_updates.set(row_updates.get() + 1);
                    }
                }),
            )
            .await;
        }
        us2.shutdown();
    });
    PreparedGauss {
        sim,
        machine,
        mode: PreparedMode::Us {
            us,
            row_updates,
            mat,
            n,
        },
    }
}

/// SMP (message-passing) Gaussian elimination: `nprocs` heavyweight
/// processes, rows distributed round-robin, pivot rows broadcast by
/// sequential sends.
pub fn gauss_smp(nprocs: u16, n: u32, seed: u64) -> GaussResult {
    gauss_smp_faulty(nprocs, n, seed, &FaultPlan::default())
}

/// [`gauss_smp`] with a [`FaultPlan`] installed on the machine (node/link
/// events) and the process family (message events) — experiment T15 runs
/// it under increasing link degradation. Plans that *lose* messages will
/// hang the pivot broadcast (the algorithm has no application-level
/// resend), so stick to link/degrade events for completed runs.
pub fn gauss_smp_faulty(nprocs: u16, n: u32, seed: u64, plan: &FaultPlan) -> GaussResult {
    prepare_gauss_smp_faulty(nprocs, n, seed, plan).finish()
}

/// Set up [`gauss_smp_faulty`] without running it (checkpoint/restore
/// seam).
pub fn prepare_gauss_smp_faulty(nprocs: u16, n: u32, seed: u64, plan: &FaultPlan) -> PreparedGauss {
    let sim = Sim::with_seed(seed);
    let machine = Machine::new(&sim, MachineConfig::rochester());
    machine.install_faults(plan);
    let os = Os::boot(&machine);
    let p_count = nprocs as u32;

    // Rows live in the *owner's local memory*; owner of row i is i % P.
    let nodes: Vec<NodeId> = (0..nprocs).collect();
    let mat = Rc::new(UsMatrix::scattered(&machine, &nodes, n, n + 1));
    mat.load(&build_system(n, seed));

    let placement: Vec<NodeId> = (0..nprocs).collect();
    let mat2 = mat.clone();
    let fam = Family::spawn_placed(
        &os,
        p_count,
        Topology::Complete,
        placement,
        SmpCosts::numeric(),
        move |m| {
            let mat = mat2.clone();
            async move {
                let me = m.rank;
                for k in 0..n {
                    let owner = k % p_count;
                    let pivot: Vec<f64> = if me == owner {
                        // Read my pivot row locally and broadcast it with
                        // P−1 sequential sends (the P·N message term whose
                        // growth bends Figure 5 upward past 64).
                        let row = mat.read_row(&m.proc, k, k, n + 1).await;
                        for dst in 0..p_count {
                            if dst != me {
                                m.send_f64s(dst, &row).await.unwrap();
                            }
                        }
                        row
                    } else {
                        m.recv_f64s_from(owner).await
                    };
                    // Reduce all of my rows on local data: block in,
                    // compute locally, block out.
                    let mut i = me;
                    while i < n {
                        if i != k {
                            let mut row = mat.read_row(&m.proc, i, k, n + 1).await;
                            let factor = row[0] / pivot[0];
                            for (j, rj) in row.iter_mut().enumerate() {
                                *rj -= factor * pivot[j];
                            }
                            m.proc
                                .compute(2 * FLOP * (n + 1 - k) as SimTime + FLOP)
                                .await;
                            mat.write_row(&m.proc, i, k, &row).await;
                        }
                        i += p_count;
                    }
                }
            }
        },
    );
    fam.install_faults(plan);
    PreparedGauss {
        sim,
        machine,
        mode: PreparedMode::Smp { fam, mat, n },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_version_solves_the_system() {
        let all: Vec<NodeId> = (0..128).collect();
        let r = gauss_us(8, 24, all, 1);
        assert!(r.max_err < 1e-9, "US solution error {}", r.max_err);
        assert!(r.comm_ops > 0);
    }

    #[test]
    fn smp_version_solves_the_system() {
        let r = gauss_smp(8, 24, 1);
        assert!(r.max_err < 1e-9, "SMP solution error {}", r.max_err);
        // Messages = P * N exactly (P−1 sends per step, N steps... i.e.
        // N * (P−1)).
        assert_eq!(r.comm_ops, 24 * (8 - 1));
    }

    #[test]
    fn smp_message_count_matches_formula() {
        for p in [2u16, 4, 6] {
            let r = gauss_smp(p, 12, 3);
            assert_eq!(
                r.comm_ops,
                12 * (p as u64 - 1),
                "messages must be N*(P-1) for P={p}"
            );
        }
    }

    #[test]
    fn both_use_more_processors_profitably_at_small_scale() {
        // n must be large enough that compute dominates SMP's broadcast
        // costs at P=8 — at tiny n the Figure 5 communication effect
        // already swamps the parallelism (which is the paper's point, but
        // not what this test checks).
        let all: Vec<NodeId> = (0..128).collect();
        let us2 = gauss_us(2, 48, all.clone(), 5);
        let us8 = gauss_us(8, 48, all, 5);
        assert!(
            us8.time_ns < us2.time_ns,
            "US must speed up 2→8 procs ({} vs {})",
            us2.time_ns,
            us8.time_ns
        );
        let smp2 = gauss_smp(2, 48, 5);
        let smp8 = gauss_smp(8, 48, 5);
        assert!(
            smp8.time_ns < smp2.time_ns,
            "SMP must speed up 2→8 procs ({} vs {})",
            smp2.time_ns,
            smp8.time_ns
        );
    }
}
