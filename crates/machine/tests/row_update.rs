//! `Machine::try_update_row` against the element-wise loop it replaces.
//!
//! A row update reads each word, computes, and writes the word back. The
//! program form lets the executor make a remote word's references and its
//! compute hold itself, polling the task only at the row's last return;
//! the loop form awaits `try_read_f64`, `try_compute` and `try_write_f64`
//! per word. On a 16-node machine the two must be indistinguishable in
//! everything the model exposes: the clock, the poll count
//! (`RunStats::events`), the machine counters per node and in total, every
//! memory unit's and CPU's statistics, the probe's counters, the
//! sanitizer's report, what concurrent readers see of the row and when,
//! and the row itself. The setups put load where the program must decline
//! to run a step in place or must queue: a busy and a queued target unit,
//! a second process on the issuer's CPU, a local row, jitter, the
//! `Detailed` switch and a target that crashes mid-row. Dropping the
//! update through `Sim::timeout` at every 100 ns of its first words (as
//! `pnc_cancel.rs` does for one reference) must undo the same holds.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;

use bfly_machine::{Costs, GAddr, Machine, MachineConfig, MachineError, MachineStats, SwitchModel};
use bfly_probe::Probe;
use bfly_san::Sanitizer;
use bfly_sim::{FaultKind, FaultPlan, ResourceStats, RunOutcome, Sim, SimTime, US};

const NODES: u16 = 16;
/// The updating processor.
const ISSUER: u16 = 3;
/// The node holding the row, unless the setup makes it local.
const TARGET: u16 = 9;
/// Words in the row; the update covers `COLS`.
const WORDS: u32 = 8;
const COLS: Range<u32> = 1..7;
/// Compute per word: two FLOPs of the Butterfly-I.
const FLOPS: SimTime = 20 * US;
/// The updater starts here, after the unit holder.
const START: SimTime = 1_000;

/// What runs beside the update.
#[derive(Debug, Clone, Copy, Default)]
struct Setup {
    /// The row lives on the issuer's own node.
    local: bool,
    /// Two tasks on other nodes re-read the first and the last updated
    /// word until the update ends: they queue at the target unit and see
    /// each store at the instant it lands.
    watchers: bool,
    /// The target unit is held from time 0 past the first arrival.
    holder: bool,
    /// A second process on the issuer's node computes in bursts, so the
    /// CPU is busy at some of the update's steps and free at others.
    hog: bool,
    jitter: bool,
    detailed: bool,
    /// The target crashes mid-row and recovers later.
    crash: bool,
    probe: bool,
    san: bool,
    /// Drop the update through `Sim::timeout` after this long.
    budget: Option<SimTime>,
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `None` if the update was dropped at its deadline.
    result: Option<Result<(), MachineError>>,
    done_at: SimTime,
    end: SimTime,
    events: u64,
    outcome: RunOutcome,
    stats: MachineStats,
    /// `(local_refs, remote_refs_in, remote_refs_out)` per node.
    nodes: Vec<(u64, u64, u64)>,
    mem: Vec<ResourceStats>,
    cpu: Vec<ResourceStats>,
    /// `(instant, watcher, value bits)` of every watcher read; a failed
    /// read records `u64::MAX`.
    seen: Vec<(SimTime, u16, u64)>,
    row: Vec<u64>,
    probe: String,
    san: String,
}

fn f(j: u32, v: f64) -> f64 {
    v * 0.5 + j as f64
}

/// The element-wise loop `try_update_row` replaces.
async fn element_loop(m: Rc<Machine>, row: GAddr) -> Result<(), MachineError> {
    for j in COLS {
        let a = row.add(j * 8);
        let v = m.try_read_f64(ISSUER, a).await?;
        m.try_compute(ISSUER, FLOPS).await?;
        m.try_write_f64(ISSUER, a, f(j, v)).await?;
    }
    Ok(())
}

/// Run `setup` with the program (`program`) or the loop; returns the
/// outcome and the task polls actually made.
fn run(setup: Setup, program: bool) -> (Outcome, u64) {
    let san = setup.san.then(Sanitizer::new);
    bfly_san::install_ambient(san.clone());
    let sim = Sim::with_seed(5);
    let mut costs = Costs::butterfly_one();
    if setup.jitter {
        costs.jitter_pct = 10;
    }
    let mut cfg = MachineConfig::small(NODES).with_costs(costs);
    if setup.detailed {
        cfg = cfg.with_switch(SwitchModel::Detailed);
    }
    let m = Machine::new(&sim, cfg);
    let probe = Probe::new();
    if setup.probe {
        m.attach_probe(&probe);
    }
    if setup.crash {
        let mut plan = FaultPlan::new(0);
        plan.push(
            70 * US,
            FaultKind::NodeCrash {
                node: TARGET as u32,
            },
        );
        plan.push(
            300 * US,
            FaultKind::NodeRecover {
                node: TARGET as u32,
            },
        );
        m.install_faults(&plan);
    }
    let home = if setup.local { ISSUER } else { TARGET };
    let row = m.node(home).alloc(WORDS * 8).expect("alloc");
    for j in 0..WORDS {
        m.poke_f64(row.add(j * 8), 1.0 + j as f64 * 1.25);
    }

    if setup.holder {
        let mem = m.mem_resource(home).clone();
        sim.spawn(async move {
            mem.access(8_000).await;
        });
    }

    let done = Rc::new(Cell::new(false));
    let result = Rc::new(RefCell::new(None));
    let done_at = Rc::new(Cell::new(0));
    {
        let (s, m, done, result, done_at) = (
            sim.clone(),
            m.clone(),
            done.clone(),
            result.clone(),
            done_at.clone(),
        );
        sim.spawn_static("updater", async move {
            s.sleep(START).await;
            let update = async {
                if program {
                    m.try_update_row(ISSUER, row, COLS, FLOPS, f).await
                } else {
                    element_loop(m.clone(), row).await
                }
            };
            let r = match setup.budget {
                Some(budget) => s.timeout(budget, update).await.ok(),
                None => Some(update.await),
            };
            *result.borrow_mut() = r;
            done_at.set(s.now());
            done.set(true);
        });
    }

    let seen = Rc::new(RefCell::new(Vec::new()));
    if setup.watchers {
        for (w, j) in [(5u16, COLS.start), (12, COLS.end - 1)] {
            let (s, m, done, seen) = (sim.clone(), m.clone(), done.clone(), seen.clone());
            sim.spawn(async move {
                while !done.get() {
                    match m.try_read_f64(w, row.add(j * 8)).await {
                        Ok(v) => seen.borrow_mut().push((s.now(), w, v.to_bits())),
                        Err(_) => {
                            seen.borrow_mut().push((s.now(), w, u64::MAX));
                            s.sleep(10 * US).await;
                        }
                    }
                }
            });
        }
    }

    if setup.hog {
        let (s, m, done) = (sim.clone(), m.clone(), done.clone());
        sim.spawn(async move {
            s.sleep(2_000).await;
            while !done.get() {
                m.compute(ISSUER, 7_000).await;
                s.sleep(31_000).await;
            }
        });
    }

    let stats = sim.run();
    bfly_san::install_ambient(None);
    let node_stats = (0..NODES)
        .map(|n| {
            let node = m.node(n);
            (
                node.local_refs.get(),
                node.remote_refs_in.get(),
                node.remote_refs_out.get(),
            )
        })
        .collect();
    let outcome = Outcome {
        result: *result.borrow(),
        done_at: done_at.get(),
        end: sim.now(),
        events: stats.events,
        outcome: stats.outcome.clone(),
        stats: m.stats(),
        nodes: node_stats,
        mem: (0..NODES).map(|n| m.mem_resource(n).stats()).collect(),
        cpu: (0..NODES).map(|n| m.cpu_resource(n).stats()).collect(),
        seen: seen.borrow().clone(),
        row: (0..WORDS)
            .map(|j| m.peek_f64(row.add(j * 8)).to_bits())
            .collect(),
        probe: if setup.probe {
            probe.summary_json("row_update")
        } else {
            String::new()
        },
        san: san.map(|s| s.report_json("row_update")).unwrap_or_default(),
    };
    (outcome, stats.polls)
}

/// Both forms of `setup` agree; returns the outcome and the program's
/// polls.
fn agree(setup: Setup) -> (Outcome, u64) {
    let (prog, polls) = run(setup, true);
    let (elem, elem_polls) = run(setup, false);
    assert_eq!(prog, elem, "{setup:?}");
    assert_eq!(elem_polls, elem.events, "the loop polls for every event");
    assert!(polls <= prog.events);
    (prog, polls)
}

#[test]
fn a_quiet_remote_row_polls_once_per_row() {
    let (out, polls) = agree(Setup::default());
    let events = out.events;
    assert_eq!(out.result, Some(Ok(())));
    // Every word's read end, compute end and write end is an event; all
    // but the last run in place. The rest are the updater's own polls.
    let words = COLS.len() as u64;
    assert_eq!(
        events - polls,
        3 * words - 1,
        "events {events}, polls {polls}"
    );
}

#[test]
fn a_busy_and_a_queued_target_unit() {
    agree(Setup {
        holder: true,
        ..Setup::default()
    });
    let (out, polls) = agree(Setup {
        watchers: true,
        ..Setup::default()
    });
    assert!(polls < out.events, "some steps still run in place");
    agree(Setup {
        holder: true,
        watchers: true,
        ..Setup::default()
    });
}

#[test]
fn a_second_process_on_the_issuers_cpu() {
    for watchers in [false, true] {
        let (out, polls) = agree(Setup {
            hog: true,
            watchers,
            ..Setup::default()
        });
        assert!(polls < out.events);
    }
}

#[test]
fn a_local_row() {
    for hog in [false, true] {
        agree(Setup {
            local: true,
            watchers: true,
            hog,
            ..Setup::default()
        });
    }
}

#[test]
fn jitter_detailed_switch_and_a_crashed_target() {
    for (jitter, detailed, crash) in [
        (true, false, false),
        (false, true, false),
        (false, false, true),
    ] {
        let setup = Setup {
            jitter,
            detailed,
            crash,
            watchers: true,
            hog: true,
            ..Setup::default()
        };
        let (out, polls) = agree(setup);
        assert_eq!(polls, out.events, "off the fused path every step polls");
        if crash {
            assert_eq!(
                out.result,
                Some(Err(MachineError::NodeDown { node: TARGET })),
                "the crash lands mid-row"
            );
        }
    }
}

#[test]
fn probed_and_sanitized_rows() {
    let (out, polls) = agree(Setup {
        probe: true,
        watchers: true,
        hog: true,
        ..Setup::default()
    });
    assert!(
        polls < out.events,
        "a probe does not stop steps running in place"
    );
    let (out, polls) = agree(Setup {
        san: true,
        watchers: true,
        hog: true,
        ..Setup::default()
    });
    assert_eq!(polls, out.events, "a sanitizer sees every step in a poll");
    assert!(out.san.contains("\"races\""), "{}", out.san);
}

#[test]
fn dropped_mid_row_in_every_phase() {
    let quiet = Setup {
        probe: true,
        ..Setup::default()
    };
    let loaded = Setup {
        probe: true,
        watchers: true,
        hog: true,
        ..Setup::default()
    };
    for setup in [quiet, loaded] {
        let mut dropped = 0;
        for budget in (0..65_000).step_by(100) {
            let (out, _) = agree(Setup {
                budget: Some(budget),
                ..setup
            });
            dropped += u32::from(out.result.is_none());
        }
        assert_eq!(dropped, 650, "every budget drops the row mid-flight");
    }
}
