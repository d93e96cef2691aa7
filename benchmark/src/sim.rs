//! The simulation workloads.
//!
//! * `fig5_sim` — Figure 5: Gaussian elimination under the Uniform
//!   System and under SMP message passing, one simulation per
//!   (P, runtime) point, fanned over host threads by
//!   `bfly_bench::parallel_sweep`. Low P favours SMP and high P favours
//!   the Uniform System, so a gain in one runtime cannot hide a loss in
//!   the other. The load sits in the executor, the machine model and the
//!   two runtimes.
//! * `pdes_gauss` — T22: the same elimination on the event-level PDES
//!   engine, timed serially; the warm-up sweep runs on two host workers
//!   with window synchronisation and must simulate the same bits. This
//!   skips the task executor and the machine model entirely.
//!
//! Each call into the program is timed from here: `prepare_*`, then
//! `Sim::run`, then `finish` (which finds the simulation already
//! quiescent), or `pdes_gauss_sim`, `run`/`run_parallel` and
//! `pdes_gauss_extract`. The reference loop is timed just before every
//! point on the thread that runs it, and the end-to-end metrics are
//! reported at reference speed (see `refloop`).

use std::rc::Rc;
use std::time::{Duration, Instant};

use bfly_apps::gauss::{prepare_gauss_smp_faulty, prepare_gauss_us, GaussResult};
use bfly_apps::pdes_gauss::{pdes_gauss_extract, pdes_gauss_sim, PdesGaussResult};
use bfly_bench::parallel_sweep;
use bfly_farmd::json::{self, Value};
use bfly_machine::MachineStats;
use bfly_sim::FaultPlan;

use crate::record::{rows_digest, Record};
use crate::refloop;
use crate::stats::median;
use crate::trace::Tracer;
use crate::RunCfg;

/// FIG5 problem size: large enough that `run` dominates a point, small
/// enough for a sweep in under two seconds on two cores.
pub const FIG5_N: u32 = 96;
/// FIG5 processor counts (the published sweep's points).
pub const FIG5_PS: [u16; 8] = [16, 32, 48, 64, 80, 96, 112, 128];
/// T22 full scale: N, machine size and simulated processor counts.
pub const PDES_N: u32 = 384;
pub const PDES_MACHINE: u32 = 512;
pub const PDES_PS: [u32; 7] = [1, 16, 32, 64, 128, 256, 384];

/// The seed whose tables are pinned in `references.json`.
pub const REFERENCE_SEED: u64 = 7;
const REFERENCES: &str = include_str!("../references.json");

/// FIG5 table columns the digest covers: P, US (ms), SMP (ms), US comm
/// ops, SMP msgs (the simulated outputs; the rest derive from them).
pub const FIG5_DIGEST_COLS: [usize; 5] = [0, 1, 2, 3, 5];
/// T22 table columns the digest covers: P, T (ms), msgs, events, digest.
pub const T22_DIGEST_COLS: [usize; 5] = [0, 1, 4, 5, 6];

fn reference(name: &str) -> String {
    json::parse(REFERENCES)
        .expect("references.json is valid JSON")
        .get(name)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("references.json lacks `{name}`"))
        .to_string()
}

/// Digest of selected columns of a `bfly_bench::Table::to_json` table.
pub fn table_digest(table_json: &str, cols: &[usize]) -> String {
    let t = json::parse(table_json).expect("table JSON");
    let rows: Vec<Vec<String>> = t
        .get("rows")
        .and_then(Value::as_arr)
        .expect("table rows")
        .iter()
        .map(|r| {
            let cells = r.as_arr().expect("table row");
            cols.iter()
                .map(|&c| cells[c].as_str().expect("table cell").to_string())
                .collect()
        })
        .collect();
    rows_digest(&rows)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Runtime {
    Us,
    Smp,
}

/// Sums of the ambient probe's counters over one point.
#[derive(Debug, Clone, Copy, Default)]
struct ProbeTotals {
    switch_hops: u64,
    switch_wait_ns: u64,
    mem_stolen_ns: u64,
    alloc_ops: u64,
    tasks_claimed: u64,
    msg_bytes: u64,
    lock_acquires: u64,
    lock_spin_ns: u64,
}

impl ProbeTotals {
    fn of(p: &bfly_probe::Probe) -> ProbeTotals {
        let mut t = ProbeTotals {
            switch_hops: p.switch_hops(),
            switch_wait_ns: p.switch_wait_ns(),
            mem_stolen_ns: p.total_stolen_ns(),
            ..ProbeTotals::default()
        };
        for q in 0..bfly_probe::MAX_NODES as u16 {
            let n = p.node(q);
            t.alloc_ops += n.alloc_ops.get();
            t.tasks_claimed += n.tasks_claimed.get();
            t.msg_bytes += n.msg_bytes.get();
            t.lock_acquires += n.lock_acquires.get();
            t.lock_spin_ns += n.lock_spin_ns.get();
        }
        t
    }
}

struct Fig5Point {
    p: u16,
    rt: Runtime,
    r: GaussResult,
    machine: MachineStats,
    probe: Option<ProbeTotals>,
    prepare: Duration,
    run: Duration,
    finish: Duration,
    /// The reference loop's host time just before the point, ms.
    loop_ms: f64,
}

impl Fig5Point {
    fn total(&self) -> Duration {
        self.prepare + self.run + self.finish
    }
}

struct Fig5Sweep {
    wall: Duration,
    threads: usize,
    points: Vec<Fig5Point>,
}

fn fig5_point(idx: usize, p: u16, rt: Runtime, seed: u64, traced: Option<&Tracer>) -> Fig5Point {
    let loop_ms = refloop::time_ms();
    // A probe per point, installed on the worker thread that runs it:
    // the ambient probe is thread-local, and `Machine::new` attaches it.
    let outer = traced.map(|_| bfly_probe::install_ambient(Some(bfly_probe::Probe::new())));
    let t0 = Instant::now();
    let prepared = match rt {
        Runtime::Us => prepare_gauss_us(p, FIG5_N, (0..128).collect(), seed),
        Runtime::Smp => prepare_gauss_smp_faulty(p, FIG5_N, seed, &FaultPlan::default()),
    };
    let machine = Rc::clone(prepared.machine());
    let t1 = Instant::now();
    prepared.sim.run();
    let t2 = Instant::now();
    let r = prepared.finish();
    let t3 = Instant::now();
    let probe = outer.map(|prev| {
        let probe = bfly_probe::install_ambient(prev).expect("point probe installed above");
        ProbeTotals::of(&probe)
    });
    if let Some(t) = traced {
        let id = idx as u64;
        t.span("prepare", "apps", t0, t1, id);
        t.span("run", "sim", t1, t2, id);
        t.span("finish", "apps", t2, t3, id);
    }
    Fig5Point {
        p,
        rt,
        r,
        machine: machine.stats(),
        probe,
        prepare: t1 - t0,
        run: t2 - t1,
        finish: t3 - t2,
        loop_ms,
    }
}

fn fig5_sweep(seed: u64, traced: Option<&Tracer>) -> Fig5Sweep {
    // Every Uniform System point costs ~10x an SMP point, and the sweep
    // hands points out in order: the long points go first so the short
    // ones even out the two threads' finish times (longest-first), and
    // sweep time does not hinge on which thread happens to draw the last
    // long point.
    let points: Vec<(u16, Runtime)> = [Runtime::Us, Runtime::Smp]
        .into_iter()
        .flat_map(|rt| FIG5_PS.iter().map(move |&p| (p, rt)))
        .collect();
    let t0 = Instant::now();
    let points = parallel_sweep(&points, |i, &(p, rt)| fig5_point(i, p, rt, seed, traced));
    Fig5Sweep {
        wall: t0.elapsed(),
        threads: bfly_bench::sweep::sweep_threads(points.len()),
        points,
    }
}

impl Sweep for Fig5Sweep {
    fn rows(&self) -> Vec<Vec<String>> {
        let (us, smp) = self.points.split_at(FIG5_PS.len());
        us.iter()
            .zip(smp)
            .map(|(u, s)| {
                let (us, smp) = (&u.r, &s.r);
                vec![
                    u.p.to_string(),
                    format!("{:.1}", us.time_ns as f64 / 1e6),
                    format!("{:.1}", smp.time_ns as f64 / 1e6),
                    us.comm_ops.to_string(),
                    smp.comm_ops.to_string(),
                ]
            })
            .collect()
    }

    fn check(&self, rec: &mut Record) -> u64 {
        let mut bad = 0;
        for pt in &self.points {
            let mut ok = pt.r.max_err < 1e-6;
            rec.check(ok, || {
                format!(
                    "FIG5 {:?} P={}: max_err {} — system not solved",
                    pt.rt, pt.p, pt.r.max_err
                )
            });
            if pt.rt == Runtime::Smp {
                let want = u64::from(FIG5_N) * (u64::from(pt.p) - 1);
                let msgs_ok = pt.r.comm_ops == want;
                rec.check(msgs_ok, || {
                    format!(
                        "FIG5 SMP P={}: {} messages, formula N(P-1) = {want}",
                        pt.p, pt.r.comm_ops
                    )
                });
                ok &= msgs_ok;
            }
            bad += u64::from(!ok);
        }
        bad
    }

    fn wall(&self) -> Duration {
        self.wall
    }

    fn point_times(&self) -> Vec<PointTime> {
        self.points
            .iter()
            .map(|p| PointTime {
                setup: p.prepare,
                total: p.total(),
                loop_ms: p.loop_ms,
            })
            .collect()
    }
}

impl Fig5Sweep {
    fn sum(&self, f: impl Fn(&Fig5Point) -> f64) -> f64 {
        self.points.iter().map(f).sum()
    }

    fn sum_rt(&self, rt: Runtime, f: impl Fn(&Fig5Point) -> f64) -> f64 {
        self.points.iter().filter(|p| p.rt == rt).map(f).sum()
    }
}

/// Median of `f` over a set of sweeps.
fn median_of<S>(set: &[&S], f: impl Fn(&S) -> f64) -> f64 {
    median(&set.iter().map(|s| f(s)).collect::<Vec<_>>())
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One point's host times and the reference loop timed beside it.
struct PointTime {
    /// Building the simulation.
    setup: Duration,
    /// The whole point, set-up included.
    total: Duration,
    loop_ms: f64,
}

/// What the shared checks and estimators need from a sweep.
trait Sweep {
    /// The simulated columns of the published table, formatted as it
    /// formats them.
    fn rows(&self) -> Vec<Vec<String>>;
    /// Per-point output checks; returns the number of failed points.
    fn check(&self, rec: &mut Record) -> u64;
    fn wall(&self) -> Duration;
    /// Every point's host times, in the sweep's fixed point order.
    fn point_times(&self) -> Vec<PointTime>;
}

/// Check the warm-up and every timed sweep of `table` (`fig5`, `t22`),
/// pin the seed-7 table to its reference, and count the points run.
fn check_sweeps<S: Sweep>(rec: &mut Record, cfg: &RunCfg, table: &str, warm: &S, sweeps: &[S]) {
    let rows = warm.rows();
    for s in std::iter::once(warm).chain(sweeps) {
        let bad = s.check(rec);
        rec.failed += bad;
        rec.attempted += s.point_times().len() as u64;
        rec.check(s.rows() == rows, || {
            format!("{table}: a repeated sweep simulated different results")
        });
    }
    let digest = rows_digest(&rows);
    if cfg.seed == REFERENCE_SEED {
        let want = reference(&format!("{table}_seed7"));
        rec.check(digest == want, || {
            format!("{table}: seed 7 table digest {digest} != reference {want}")
        });
    }
    rec.detail.insert("digest".into(), Value::Str(digest));
}

/// The end-to-end metrics from the untraced timed sweeps, at reference
/// speed: `result_ms` sums each point's median cost across the sweeps,
/// `setup_s` each point's median set-up cost. Every sweep does
/// identical, deterministic work, so what differs between sweeps is the
/// shared host; a median per point sets aside both its slow stretches
/// and the rare lucky repetition. The same sums of wall times are kept
/// as detail.
fn record_times<S: Sweep>(rec: &mut Record, plain: &[&S]) {
    let sweeps: Vec<Vec<PointTime>> = plain.iter().map(|s| s.point_times()).collect();
    let per_point = |f: &dyn Fn(&PointTime) -> f64| -> f64 {
        (0..sweeps[0].len())
            .map(|i| median(&sweeps.iter().map(|pts| f(&pts[i])).collect::<Vec<_>>()))
            .sum()
    };
    let at_ref = |d: Duration, p: &PointTime| refloop::at_ref_s(secs(d), p.loop_ms);
    rec.set("result_ms", per_point(&|p| at_ref(p.total, p) * 1e3));
    rec.set("setup_s", per_point(&|p| at_ref(p.setup, p)));
    let loops: Vec<f64> = sweeps.iter().flatten().map(|p| p.loop_ms).collect();
    let slowest: Vec<f64> = sweeps
        .iter()
        .map(|pts| pts.iter().map(|p| secs(p.total) * 1e3).fold(0.0, f64::max))
        .collect();
    rec.detail("result_wall_ms", per_point(&|p| secs(p.total) * 1e3));
    rec.detail("setup_wall_s", per_point(&|p| secs(p.setup)));
    rec.detail("loop_ms", median(&loops));
    rec.detail("sweeps", plain.len() as f64);
    rec.detail(
        "sweep_median_ms",
        median_of(plain, |s| secs(s.wall()) * 1e3),
    );
    rec.detail("slowest_point_ms", median(&slowest));
}

/// Run sweeps until `seconds` of measurement have elapsed, at least
/// `min` of them.
fn timed<S>(cfg: &RunCfg, min: usize, mut sweep: impl FnMut(usize) -> S) -> Vec<S> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed().as_secs_f64() < cfg.seconds {
        out.push(sweep(out.len()));
    }
    out
}

/// The `fig5_sim` workload. In a traced run every other sweep is traced,
/// so traced and untraced sweeps come from the same stretch of time.
pub fn fig5(cfg: &RunCfg, tracer: Option<&Tracer>) -> Record {
    let mut rec = Record::default();
    // Untimed warm-up: page in the code and let the allocator grow.
    let warm = fig5_sweep(cfg.seed, None);
    let sweeps = timed(cfg, if tracer.is_some() { 4 } else { 3 }, |i| {
        fig5_sweep(cfg.seed, tracer.filter(|_| i % 2 == 0))
    });
    check_sweeps(&mut rec, cfg, "fig5", &warm, &sweeps);
    let (traced, plain): (Vec<&Fig5Sweep>, Vec<&Fig5Sweep>) =
        sweeps.iter().partition(|s| s.points[0].probe.is_some());
    record_times(&mut rec, &plain);
    if tracer.is_none() {
        return rec;
    }

    // Per-layer numbers. Host times come from the untraced sweeps;
    // simulated counts are identical in every sweep (checked above).
    let med = |f: &dyn Fn(&Fig5Sweep) -> f64| median_of(&plain, f);
    let s0 = &warm;
    let events = s0.sum(|p| p.r.run.events as f64);
    let run_s = med(&|s| s.sum(|p| secs(p.run)));
    rec.set("sim.events", events);
    rec.set("sim.run_s", run_s);
    rec.set("sim.ns_per_event", run_s * 1e9 / events);
    rec.set(
        "machine.local_refs",
        s0.sum(|p| p.machine.local_refs as f64),
    );
    rec.set(
        "machine.remote_refs",
        s0.sum(|p| p.machine.remote_refs as f64),
    );
    rec.set(
        "machine.block_transfers",
        s0.sum(|p| p.machine.block_transfers as f64),
    );
    rec.set("machine.atomics", s0.sum(|p| p.machine.atomics as f64));
    rec.set(
        "uniform.run_s",
        med(&|s| s.sum_rt(Runtime::Us, |p| secs(p.run))),
    );
    rec.set(
        "uniform.events",
        s0.sum_rt(Runtime::Us, |p| p.r.run.events as f64),
    );
    rec.set(
        "uniform.comm_ops",
        s0.sum_rt(Runtime::Us, |p| p.r.comm_ops as f64),
    );
    rec.set(
        "smp.run_s",
        med(&|s| s.sum_rt(Runtime::Smp, |p| secs(p.run))),
    );
    rec.set(
        "smp.events",
        s0.sum_rt(Runtime::Smp, |p| p.r.run.events as f64),
    );
    rec.set("smp.msgs", s0.sum_rt(Runtime::Smp, |p| p.r.comm_ops as f64));
    rec.set("apps.prepare_s", med(&|s| s.sum(|p| secs(p.prepare))));
    rec.set("apps.finish_s", med(&|s| s.sum(|p| secs(p.finish))));
    rec.set(
        "bench.sweep_efficiency",
        med(&|s| s.sum(|p| secs(p.total())) / (s.threads as f64 * secs(s.wall))),
    );
    let t = traced[0];
    let probe = |rt: Option<Runtime>, f: &dyn Fn(&ProbeTotals) -> u64| -> f64 {
        t.points
            .iter()
            .filter(|p| rt.is_none_or(|rt| p.rt == rt))
            .map(|p| f(&p.probe.expect("traced point has probe totals")) as f64)
            .sum()
    };
    rec.set("machine.switch_hops", probe(None, &|t| t.switch_hops));
    rec.set("machine.switch_wait_ns", probe(None, &|t| t.switch_wait_ns));
    rec.set("machine.mem_stolen_ns", probe(None, &|t| t.mem_stolen_ns));
    rec.set(
        "uniform.alloc_ops",
        probe(Some(Runtime::Us), &|t| t.alloc_ops),
    );
    rec.set(
        "uniform.tasks_claimed",
        probe(Some(Runtime::Us), &|t| t.tasks_claimed),
    );
    rec.set("smp.msg_bytes", probe(Some(Runtime::Smp), &|t| t.msg_bytes));
    rec.set("chrysalis.lock_acquires", probe(None, &|t| t.lock_acquires));
    rec.set("chrysalis.lock_spin_ns", probe(None, &|t| t.lock_spin_ns));
    let wall_ms = |s: &Fig5Sweep| secs(s.wall) * 1e3;
    rec.set(
        "bench.trace_overhead",
        median_of(&traced, wall_ms) / med(&wall_ms) - 1.0,
    );
    rec
}

struct PdesPoint {
    r: PdesGaussResult,
    build: Duration,
    run: Duration,
    extract: Duration,
    loop_ms: f64,
}

struct PdesSweep {
    hosts: usize,
    wall: Duration,
    points: Vec<PdesPoint>,
}

fn pdes_sweep(seed: u64, hosts: usize, traced: Option<&Tracer>) -> PdesSweep {
    let t0 = Instant::now();
    let points = PDES_PS
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let loop_ms = refloop::time_ms();
            let t0 = Instant::now();
            let mut sim = pdes_gauss_sim(p, PDES_N, seed, PDES_MACHINE);
            let t1 = Instant::now();
            if hosts <= 1 {
                sim.run();
            } else {
                sim.run_parallel(hosts);
            }
            let t2 = Instant::now();
            let r = pdes_gauss_extract(&sim, p, PDES_N);
            let t3 = Instant::now();
            if let Some(t) = traced {
                let id = i as u64;
                t.span("build", "apps", t0, t1, id);
                t.span("run", "sim", t1, t2, id);
                t.span("extract", "apps", t2, t3, id);
            }
            PdesPoint {
                r,
                build: t1 - t0,
                run: t2 - t1,
                extract: t3 - t2,
                loop_ms,
            }
        })
        .collect();
    PdesSweep {
        hosts,
        wall: t0.elapsed(),
        points,
    }
}

impl Sweep for PdesSweep {
    fn rows(&self) -> Vec<Vec<String>> {
        self.points
            .iter()
            .map(|pt| {
                vec![
                    pt.r.p.to_string(),
                    format!("{:.3}", pt.r.time_ns as f64 / 1e6),
                    pt.r.msgs.to_string(),
                    pt.r.events.to_string(),
                    format!("{:016x}", pt.r.digest),
                ]
            })
            .collect()
    }

    fn check(&self, rec: &mut Record) -> u64 {
        let mut bad = 0;
        for pt in &self.points {
            let r = &pt.r;
            let want = u64::from(PDES_N) * (u64::from(r.p) - 1);
            let ok = r.max_err < 1e-6 && r.msgs == want && r.time_ns > 0;
            rec.check(ok, || {
                format!(
                    "T22 P={} hosts={}: max_err {}, {} messages (formula N(P-1) = {want}), T {} ns",
                    r.p, self.hosts, r.max_err, r.msgs, r.time_ns
                )
            });
            bad += u64::from(!ok);
        }
        bad
    }

    fn wall(&self) -> Duration {
        self.wall
    }

    fn point_times(&self) -> Vec<PointTime> {
        self.points
            .iter()
            .map(|p| PointTime {
                setup: p.build,
                total: p.build + p.run + p.extract,
                loop_ms: p.loop_ms,
            })
            .collect()
    }
}

impl PdesSweep {
    fn sum(&self, f: impl Fn(&PdesPoint) -> f64) -> f64 {
        self.points.iter().map(f).sum()
    }
}

/// The `pdes_gauss` workload: timed sweeps on the serial engine. The
/// warm-up sweep runs on two host workers, so every run also proves the
/// two executors simulate the same bits. Two-worker sweeps are timed only
/// in traced runs (`sim.pdes_run_h2_s`): on two shared vCPUs a worker the
/// host preempts stalls every window barrier, so their time measures the
/// host's scheduler more than the engine.
pub fn pdes(cfg: &RunCfg, tracer: Option<&Tracer>) -> Record {
    let mut rec = Record::default();
    let warm = pdes_sweep(cfg.seed, 2, None);
    // Traced runs cycle: traced sweep, untraced sweep, untraced sweep on
    // two host workers (the parallel speedup's denominator).
    let sweeps = timed(cfg, if tracer.is_some() { 6 } else { 3 }, |i| match i % 3 {
        _ if tracer.is_none() => pdes_sweep(cfg.seed, 1, None),
        0 => pdes_sweep(cfg.seed, 1, tracer),
        1 => pdes_sweep(cfg.seed, 1, None),
        _ => pdes_sweep(cfg.seed, 2, None),
    });
    // Every sweep, at either host count, must match the warm-up's table.
    check_sweeps(&mut rec, cfg, "t22", &warm, &sweeps);

    // Timed sweeps at host count `h`, traced or not.
    let pick = |h: usize, traced: bool| -> Vec<&PdesSweep> {
        sweeps
            .iter()
            .enumerate()
            .filter(|&(i, s)| s.hosts == h && (tracer.is_some() && i % 3 == 0) == traced)
            .map(|(_, s)| s)
            .collect()
    };
    let plain = pick(1, false);
    record_times(&mut rec, &plain);
    if tracer.is_none() {
        return rec;
    }

    let wall_ms = |s: &PdesSweep| secs(s.wall) * 1e3;
    let run_s = |s: &PdesSweep| s.sum(|p| secs(p.run));
    let h1 = median_of(&plain, run_s);
    let h2 = median_of(&pick(2, false), run_s);
    rec.set("sim.pdes_events", warm.sum(|p| p.r.events as f64));
    rec.set("sim.pdes_run_s", h1);
    rec.set("sim.pdes_run_h2_s", h2);
    rec.set("sim.pdes_h2_speedup", h1 / h2);
    rec.set(
        "apps.pdes_build_s",
        median_of(&plain, |s| s.sum(|p| secs(p.build))),
    );
    rec.set(
        "apps.pdes_extract_s",
        median_of(&plain, |s| s.sum(|p| secs(p.extract))),
    );
    rec.set(
        "bench.trace_overhead",
        median_of(&pick(1, true), wall_ms) / median_of(&plain, wall_ms) - 1.0,
    );
    rec
}
