//! Cancellation contract of a fused remote reference.
//!
//! A remote word reference on a fault-free machine travels to the target
//! memory, holds one memory unit for its service time, and travels back.
//! Dropping it through [`Sim::timeout`] must undo exactly what it holds at
//! the drop: before arrival nothing, while queued its place in the FIFO,
//! in service the unit itself (released at the drop instant), on the
//! return leg nothing. The pinned outcomes below cover each point: the
//! memory unit's statistics, when the next accessor completes, and where
//! the clock stops once the schedule drains (a cancelled timer must never
//! advance it).

use std::cell::Cell;
use std::rc::Rc;

use bfly_machine::{Machine, MachineConfig};
use bfly_sim::{ResourceStats, Sim, SimTime};

/// The holder keeps node 0's memory unit busy over `[0, HOLD)`.
const HOLD: SimTime = 10_000;
/// The victim issues its reference from node 1 at this instant; it
/// arrives while the holder still has the unit.
const VICTIM_AT: SimTime = 7_000;
/// The next accessor issues from node 3 at this instant and queues
/// behind the victim.
const NEXT_AT: SimTime = 8_000;

/// Outcome of one budget: the victim's result (`true` = completed), when
/// the next accessor's reference completed, the memory unit's
/// statistics, the quiescent clock, and the quiescent clock of the same
/// run without the next accessor (where the victim's legs are the last
/// events, so a cancelled leg that advanced the clock would show).
#[derive(Debug, PartialEq)]
struct Outcome {
    victim_completed: bool,
    next_done: SimTime,
    busy_ns: u64,
    acquisitions: u64,
    total_wait_ns: u64,
    max_queue: usize,
    end: SimTime,
    end_alone: SimTime,
}

fn run(budget: SimTime) -> Outcome {
    let (mut out, _) = scenario(budget, true);
    out.end_alone = scenario(budget, false).1;
    out
}

/// Run the scenario with the victim's reference wrapped in a timeout of
/// `budget` ns, with or without the next accessor. Returns the outcome
/// (`end_alone` unset) and the quiescent clock.
fn scenario(budget: SimTime, next: bool) -> (Outcome, SimTime) {
    let sim = Sim::new();
    let m = Machine::new(&sim, MachineConfig::small(4));
    let addr = m.node(0).alloc(8).expect("alloc");

    let mem = m.mem_resource(0).clone();
    sim.spawn(async move {
        mem.access(HOLD).await;
    });

    let completed = Rc::new(Cell::new(false));
    {
        let (s, m, completed) = (sim.clone(), m.clone(), completed.clone());
        sim.spawn(async move {
            s.sleep(VICTIM_AT).await;
            let r = s.timeout(budget, m.read_f64(1, addr)).await;
            completed.set(r.is_ok());
        });
    }

    let next_done = Rc::new(Cell::new(0));
    if next {
        let (s, m, next_done) = (sim.clone(), m.clone(), next_done.clone());
        sim.spawn(async move {
            s.sleep(NEXT_AT).await;
            m.read_f64(3, addr).await;
            next_done.set(s.now());
        });
    }

    let stats = sim.run();
    assert_eq!(stats.outcome, bfly_sim::RunOutcome::Completed);
    let ResourceStats {
        busy_ns,
        acquisitions,
        total_wait_ns,
        max_queue,
        ..
    } = m.mem_resource(0).stats();
    let out = Outcome {
        victim_completed: completed.get(),
        next_done: next_done.get(),
        busy_ns,
        acquisitions,
        total_wait_ns,
        max_queue,
        end: sim.now(),
        end_alone: 0,
    };
    (out, sim.now())
}

/// The victim's unloaded legs on `small(4)`: issue 1 100 ns plus one
/// 300 ns switch stage out (arrival at 8 400), a 1 000 ns two-word
/// service, and 300 ns back. Alone, the clock stops when it returns.
#[test]
fn uncancelled_reference_is_the_baseline() {
    assert_eq!(
        run(1_000_000),
        Outcome {
            victim_completed: true,
            next_done: 12_300,
            busy_ns: 12_000,
            acquisitions: 3,
            total_wait_ns: 3_200,
            max_queue: 2,
            end: 12_300,
            end_alone: 11_300,
        }
    );
}

/// Dropped at 8 000, before it reaches the memory: the unit never sees
/// it, and the next accessor is served straight after the holder. Alone,
/// the clock stops when the holder finishes.
#[test]
fn drop_before_arrival() {
    assert_eq!(
        run(1_000),
        Outcome {
            victim_completed: false,
            next_done: 11_300,
            busy_ns: 11_000,
            acquisitions: 2,
            total_wait_ns: 600,
            max_queue: 1,
            end: 11_300,
            end_alone: 10_000,
        }
    );
}

/// Dropped at 9 000 while queued behind the holder: its FIFO place is
/// cancelled, so the next accessor is granted at 10 000 as if it never
/// queued.
#[test]
fn drop_while_queued() {
    assert_eq!(
        run(2_000),
        Outcome {
            victim_completed: false,
            next_done: 11_300,
            busy_ns: 11_000,
            acquisitions: 2,
            total_wait_ns: 600,
            max_queue: 2,
            end: 11_300,
            end_alone: 10_000,
        }
    );
}

/// Dropped at 10 500, half way through its service: the unit is
/// released at the drop instant and the next accessor granted then.
/// Alone, the clock stops at the drop, not at the service end.
#[test]
fn drop_in_service() {
    assert_eq!(
        run(3_500),
        Outcome {
            victim_completed: false,
            next_done: 11_800,
            busy_ns: 11_500,
            acquisitions: 3,
            total_wait_ns: 2_700,
            max_queue: 2,
            end: 11_800,
            end_alone: 10_500,
        }
    );
}

/// Dropped at 11 100, on the way back: the memory side is complete, so
/// the unit's statistics and the next accessor match the baseline; only
/// the victim's result is lost. Alone, the clock stops at the drop, not
/// at the return.
#[test]
fn drop_on_the_return_leg() {
    assert_eq!(
        run(4_100),
        Outcome {
            victim_completed: false,
            next_done: 12_300,
            busy_ns: 12_000,
            acquisitions: 3,
            total_wait_ns: 3_200,
            max_queue: 2,
            end: 12_300,
            end_alone: 11_100,
        }
    );
}
