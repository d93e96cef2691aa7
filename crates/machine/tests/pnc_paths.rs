//! Pins of the PNC's unfused reference paths.
//!
//! Every node of a 16-node machine runs the same mix of word, atomic and
//! block references, local and remote, concurrently and with a probe
//! attached. Three setups keep the references off the fused fast path:
//! timing jitter on the `Fast` switch, the queued `Detailed` switch, and
//! a fault plan that crashes a target node mid-reference and downs a
//! switch link. Each pin holds everything the machine model exposes about
//! the run (clock, poll count, counters, memory-unit queues, probe
//! attribution, spans and the error list with its instants), so a change
//! to the order of any RNG draw, counter update, availability check or
//! probe call shows as a changed constant.

use std::cell::RefCell;
use std::rc::Rc;

use bfly_machine::{Costs, Machine, MachineConfig, MachineError, MachineStats, SwitchModel};
use bfly_probe::Probe;
use bfly_sim::{FaultKind, FaultPlan, Sim, SimTime, US};
use MachineError::{LinkDown, NodeDown};

const NODES: u16 = 16;
/// Rounds of the reference mix each node issues.
const ROUNDS: u32 = 4;
/// Pause after a failed reference, so a crashed issuer does not fail its
/// whole mix at one instant.
const BACKOFF: SimTime = 10 * US;

/// Per node: machine `(local_refs, remote_refs_in, remote_refs_out)`,
/// memory unit `(busy_ns, acquisitions, total_wait_ns, max_queue)`, and
/// probe `(local_refs, remote_out, remote_in, mem_local_ns,
/// mem_stolen_ns)`.
type NodeRow = (u64, u64, u64, u64, u64, u64, usize, u64, u64, u64, u64, u64);

#[derive(Debug, PartialEq)]
struct Pin {
    end: SimTime,
    events: u64,
    stats: MachineStats,
    nodes: Vec<NodeRow>,
    stolen_ns: u64,
    spans: usize,
    errors: Vec<(SimTime, u16, MachineError)>,
}

/// The remote target of node `i` in round `r`: never `i` itself, and
/// every other node over enough rounds.
fn target(i: u16, r: u32) -> u16 {
    (i + 1 + ((3 * i as u32 + 7 * r) % 15) as u16) % NODES
}

/// Run the reference mix on `cfg`, under `plan` if given, and collect
/// the pin.
fn run(seed: u64, cfg: MachineConfig, plan: Option<FaultPlan>) -> Pin {
    let sim = Sim::with_seed(seed);
    let m = Machine::new(&sim, cfg);
    let probe = Probe::new();
    m.attach_probe(&probe);
    if let Some(plan) = &plan {
        m.install_faults(plan);
    }
    let base: Vec<_> = (0..NODES)
        .map(|n| m.node(n).alloc(256).expect("alloc"))
        .collect();
    let errors = Rc::new(RefCell::new(Vec::new()));
    for i in 0..NODES {
        let (s, m, base, errors) = (sim.clone(), m.clone(), base.clone(), errors.clone());
        sim.spawn(async move {
            s.sleep(i as SimTime * 137).await;
            let own = base[i as usize];
            let mut buf = [0u8; 128];
            for r in 0..ROUNDS {
                let far = base[target(i, r) as usize];
                for op in 0..9 {
                    let res = match op {
                        0 => m.try_read_u32(i, own).await.map(drop),
                        1 => m.try_read_f64(i, far.add(8)).await.map(drop),
                        2 => m.try_write_u32(i, far, r).await,
                        3 => m.try_fetch_add_u32(i, far.add(16), 1).await.map(drop),
                        4 => m.try_test_and_set(i, own.add(20)).await.map(drop),
                        5 => m.try_atomic_store(i, far.add(20), 0).await,
                        6 => m.try_read_block(i, far.add(64), &mut buf[..64]).await,
                        7 => m.try_write_block(i, own.add(64), &buf[..48]).await,
                        _ => m.try_write_block(i, far.add(64), &buf).await,
                    };
                    if let Err(e) = res {
                        errors.borrow_mut().push((s.now(), i, e));
                        s.sleep(BACKOFF).await;
                    }
                }
            }
        });
    }
    let run = sim.run();
    let nodes = (0..NODES)
        .map(|n| {
            let node = m.node(n);
            let mem = m.mem_resource(n).stats();
            let p = probe.node(n);
            (
                node.local_refs.get(),
                node.remote_refs_in.get(),
                node.remote_refs_out.get(),
                mem.busy_ns,
                mem.acquisitions,
                mem.total_wait_ns,
                mem.max_queue,
                p.local_refs.get(),
                p.remote_out.get(),
                p.remote_in.get(),
                p.mem_local_ns.get(),
                p.mem_stolen_ns.get(),
            )
        })
        .collect();
    let errors = errors.borrow().clone();
    Pin {
        end: run.end_time,
        events: run.events,
        stats: m.stats(),
        nodes,
        stolen_ns: probe.total_stolen_ns(),
        spans: probe.timeline().span_count(),
        errors,
    }
}

fn jitter() -> MachineConfig {
    MachineConfig::small(NODES).with_costs(Costs {
        jitter_pct: 7,
        ..Costs::butterfly_one()
    })
}

/// Node 5 crashes over `[30, 70)` µs and the last-stage link into node 9
/// is down over `[50, 90)` µs: references to node 5 fail the target
/// re-check after their issue, node 5's own fail at the issuer check, and
/// references into or back to node 9 stall at the downed link.
fn faults() -> FaultPlan {
    let mut plan = FaultPlan::new(0);
    plan.push(30 * US, FaultKind::NodeCrash { node: 5 })
        .push(50 * US, FaultKind::LinkDown { stage: 1, port: 9 })
        .push(70 * US, FaultKind::NodeRecover { node: 5 })
        .push(90 * US, FaultKind::LinkUp { stage: 1, port: 9 });
    plan
}

/// 7 % jitter on the `Fast` switch: every issue, service and wire time
/// is one RNG draw, so the pin fixes their order.
#[test]
fn jittered_fast_switch() {
    assert_eq!(
        run(11, jitter(), None),
        Pin {
            end: 266042,
            events: 2142,
            stats: MachineStats {
                local_refs: 64,
                remote_refs: 128,
                block_transfers: 192,
                block_bytes: 15360,
                atomics: 192
            },
            nodes: vec![
                (4, 24, 8, 68111, 36, 0, 0, 12, 24, 24, 15456, 52655),
                (4, 30, 8, 80448, 42, 7025, 1, 12, 24, 30, 15650, 64798),
                (4, 24, 8, 67962, 36, 0, 0, 12, 24, 24, 15058, 52904),
                (4, 12, 8, 41753, 24, 0, 0, 12, 24, 12, 15487, 26266),
                (4, 24, 8, 67894, 36, 15890, 2, 12, 24, 24, 16064, 51830),
                (4, 30, 8, 81307, 42, 9352, 1, 12, 24, 30, 15431, 65876),
                (4, 30, 8, 81640, 42, 5466, 1, 12, 24, 30, 15745, 65895),
                (4, 18, 8, 55899, 30, 4906, 1, 12, 24, 18, 15683, 40216),
                (4, 18, 8, 53710, 30, 3124, 1, 12, 24, 18, 15527, 38183),
                (4, 36, 8, 94632, 48, 21295, 2, 12, 24, 36, 15647, 78985),
                (4, 24, 8, 67141, 36, 4366, 1, 12, 24, 24, 15584, 51557),
                (4, 18, 8, 54394, 30, 5868, 1, 12, 24, 18, 15468, 38926),
                (4, 18, 8, 55314, 30, 8945, 1, 12, 24, 18, 15608, 39706),
                (4, 24, 8, 66782, 36, 2238, 1, 12, 24, 24, 15754, 51028),
                (4, 30, 8, 80945, 42, 16772, 2, 12, 24, 30, 15913, 65032),
                (4, 24, 8, 67264, 36, 4654, 1, 12, 24, 24, 15379, 51885),
            ],
            stolen_ns: 835742,
            spans: 192,
            errors: vec![]
        }
    );
}

/// The queued `Detailed` switch: every hop is a port acquisition.
#[test]
fn detailed_switch() {
    assert_eq!(
        run(
            11,
            MachineConfig::small(NODES).with_switch(SwitchModel::Detailed),
            None
        ),
        Pin {
            end: 263155,
            events: 3076,
            stats: MachineStats {
                local_refs: 64,
                remote_refs: 128,
                block_transfers: 192,
                block_bytes: 15360,
                atomics: 192
            },
            nodes: vec![
                (4, 24, 8, 68000, 36, 0, 0, 12, 24, 24, 15600, 52400),
                (4, 30, 8, 81100, 42, 6212, 1, 12, 24, 30, 15600, 65500),
                (4, 24, 8, 68000, 36, 3485, 1, 12, 24, 24, 15600, 52400),
                (4, 12, 8, 41800, 24, 0, 0, 12, 24, 12, 15600, 26200),
                (4, 24, 8, 68000, 36, 14020, 2, 12, 24, 24, 15600, 52400),
                (4, 30, 8, 81100, 42, 4515, 1, 12, 24, 30, 15600, 65500),
                (4, 30, 8, 81100, 42, 7622, 1, 12, 24, 30, 15600, 65500),
                (4, 18, 8, 54900, 30, 3940, 1, 12, 24, 18, 15600, 39300),
                (4, 18, 8, 54900, 30, 1770, 1, 12, 24, 18, 15600, 39300),
                (4, 36, 8, 94200, 48, 18515, 2, 12, 24, 36, 15600, 78600),
                (4, 24, 8, 68000, 36, 5970, 1, 12, 24, 24, 15600, 52400),
                (4, 18, 8, 54900, 30, 6137, 1, 12, 24, 18, 15600, 39300),
                (4, 18, 8, 54900, 30, 7485, 1, 12, 24, 18, 15600, 39300),
                (4, 24, 8, 68000, 36, 1830, 1, 12, 24, 24, 15600, 52400),
                (4, 30, 8, 81100, 42, 11960, 1, 12, 24, 30, 15600, 65500),
                (4, 24, 8, 68000, 36, 10585, 1, 12, 24, 24, 15600, 52400),
            ],
            stolen_ns: 838400,
            spans: 192,
            errors: vec![]
        }
    );
}

/// A crashed target and a downed link: both error kinds, at their
/// instants, after the PNC's detection time.
#[test]
fn crashed_target_and_downed_link() {
    assert_eq!(
        run(11, MachineConfig::small(NODES), Some(faults())),
        Pin {
            end: 293700,
            events: 2729,
            stats: MachineStats {
                local_refs: 63,
                remote_refs: 127,
                block_transfers: 190,
                block_bytes: 15184,
                atomics: 192
            },
            nodes: vec![
                (4, 24, 8, 68000, 36, 9700, 2, 12, 24, 24, 15600, 52400),
                (4, 30, 8, 81100, 42, 6578, 1, 12, 23, 30, 15600, 65500),
                (4, 24, 8, 68000, 36, 2215, 1, 12, 24, 24, 15600, 52400),
                (4, 12, 8, 41800, 24, 759, 1, 12, 23, 12, 15600, 26200),
                (4, 24, 8, 68000, 36, 20319, 2, 12, 23, 24, 15600, 52400),
                (3, 27, 7, 69800, 37, 24785, 2, 10, 22, 27, 12700, 57100),
                (4, 29, 8, 74700, 41, 5301, 1, 12, 24, 29, 15600, 59100),
                (4, 18, 8, 54900, 30, 3074, 1, 12, 23, 18, 15600, 39300),
                (4, 18, 8, 54900, 30, 900, 1, 12, 24, 18, 15600, 39300),
                (4, 35, 8, 93200, 47, 21512, 2, 12, 24, 35, 15600, 77600),
                (4, 24, 8, 68000, 36, 2652, 1, 12, 24, 24, 15600, 52400),
                (4, 18, 8, 54900, 30, 5852, 1, 12, 24, 18, 15600, 39300),
                (4, 18, 8, 54900, 30, 6729, 1, 12, 24, 18, 15600, 39300),
                (4, 23, 8, 67000, 35, 4840, 1, 12, 24, 23, 15600, 51400),
                (4, 30, 8, 81100, 42, 36564, 3, 12, 24, 30, 15600, 65500),
                (4, 24, 8, 68000, 36, 1125, 1, 12, 24, 24, 15600, 52400),
            ],
            stolen_ns: 821600,
            spans: 188,
            errors: vec![
                (33985, 5, NodeDown { node: 5 }),
                (43985, 5, NodeDown { node: 5 }),
                (48237, 1, NodeDown { node: 5 }),
                (53985, 5, NodeDown { node: 5 }),
                (63985, 5, NodeDown { node: 5 }),
                (74011, 3, NodeDown { node: 5 }),
                (75285, 9, LinkDown { stage: 1, port: 9 }),
                (75970, 7, NodeDown { node: 5 }),
                (80300, 4, LinkDown { stage: 1, port: 9 }),
                (99085, 9, LinkDown { stage: 1, port: 9 }),
            ]
        }
    );
}
