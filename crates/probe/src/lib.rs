//! `bfly-probe` — flag-gated, deterministic observability for the simulated
//! Butterfly stack.
//!
//! The paper's central quantitative claims are *explanations*: busy-waiters
//! steal memory cycles from the lock's home node (§2.1/§4.1), memory
//! contention dominates while switch contention is nearly negligible (§4.1),
//! serial allocation is the Amdahl bottleneck (§4.1). This crate is the
//! measurement layer that exposes those mechanisms instead of just
//! end-to-end totals: per-node counters, a victim×thief stolen-cycle
//! matrix, queue-depth histograms for memory units and switch ports, and a
//! span timeline exportable as Chrome `trace_event` JSON.
//!
//! # Design rules
//!
//! * **Observational only.** A probe may read simulation state and record
//!   it; it must never sleep, draw from the simulation RNG, or touch
//!   scheduling. Enabling probes therefore changes no simulated-ns result
//!   (enforced by `tests/probe_determinism.rs` at the workspace root).
//! * **Zero overhead when off.** Instrumented layers keep a `Cell<bool>`
//!   fast flag; a disabled probe point is one predictable branch. The CI
//!   probe-overhead gate holds the disabled path within 2 % of the PR-2
//!   sweep baseline.
//! * **Leaf crate.** No dependencies, `std` only, so every layer of the
//!   stack (including `bfly-sim` itself) can report into it.
//!
//! Like the simulator, a [`Probe`] is a cheap `Rc` handle — single-threaded
//! by construction, which matches the deterministic executor. Parallel
//! sweeps must run serially on the probing thread (see
//! `bfly_bench::sweep::with_thread_serial`); the sweep determinism
//! contract makes serial and parallel results bit-identical, so this
//! changes nothing but wall-clock.

// This crate needs no unsafe; keep it that way.
#![forbid(unsafe_code)]
pub mod chrome;
pub mod summary;
pub mod timeline;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

pub use summary::{Attribution, VictimRow};
pub use timeline::{Instant, Span, Timeline};

/// Simulated nanoseconds (mirrors `bfly_sim::SimTime`; kept local so this
/// crate stays a leaf).
pub type SimTime = u64;

/// Probes are sized for the largest machine up front (the Butterfly scaled
/// to 256 nodes) so one probe can observe any machine without resizing.
pub const MAX_NODES: usize = 256;

/// Queue-depth histogram buckets: exact depths 0..=15, then 16+.
pub const DEPTH_BUCKETS: usize = 17;

fn depth_bucket(depth: usize) -> usize {
    depth.min(DEPTH_BUCKETS - 1)
}

/// Per-node counters. All fields are totals over the probed run.
#[derive(Debug, Default)]
pub struct NodeCounters {
    /// Memory references served locally (issuer == home).
    pub local_refs: Cell<u64>,
    /// Remote references *issued by* this node.
    pub remote_out: Cell<u64>,
    /// Remote references *served at* this node's memory.
    pub remote_in: Cell<u64>,
    /// Memory-service ns consumed at this node by its own references.
    pub mem_local_ns: Cell<u64>,
    /// Memory-service ns consumed at this node by other nodes' references —
    /// the "stolen cycles" of paper §2.1 (per-thief breakdown lives in the
    /// steal matrix).
    pub mem_stolen_ns: Cell<u64>,
    /// Completed lock acquires whose lock word lives on this node.
    pub lock_acquires: Cell<u64>,
    /// Failed test-and-set attempts against locks homed on this node.
    pub lock_spin_attempts: Cell<u64>,
    /// Total ns processes spent acquiring locks homed on this node.
    pub lock_spin_ns: Cell<u64>,
    /// Allocator operations whose lock is homed on this node.
    pub alloc_ops: Cell<u64>,
    /// Ns spent waiting for the allocator lock (homed here).
    pub alloc_wait_ns: Cell<u64>,
    /// Ns the allocator lock (homed here) was held.
    pub alloc_hold_ns: Cell<u64>,
    /// Portion of `alloc_wait_ns + alloc_hold_ns` under a *serial*
    /// (single-lock) allocator — the Amdahl term of T7.
    pub alloc_serial_ns: Cell<u64>,
    /// Uniform System tasks claimed (dispatched) by this node.
    pub tasks_claimed: Cell<u64>,
    /// SMP messages sent from this node.
    pub msgs_sent: Cell<u64>,
    /// SMP payload bytes sent from this node.
    pub msg_bytes: Cell<u64>,
}

macro_rules! bump {
    ($cell:expr) => {
        $cell.set($cell.get() + 1)
    };
    ($cell:expr, $by:expr) => {
        $cell.set($cell.get() + $by)
    };
}

/// Arrival/service statistics for one FIFO server (a memory unit or a
/// switch port). Shared `Rc` so the `Resource` keeps a handle while the
/// probe owns the aggregate view.
#[derive(Debug)]
pub struct QueueStats {
    /// Requests that arrived (entered service or queued).
    pub arrivals: Cell<u64>,
    /// Requests that completed their queueing phase (entered service).
    pub served: Cell<u64>,
    /// Total queueing delay, ns.
    pub wait_ns: Cell<u64>,
    /// Total service time granted, ns.
    pub busy_ns: Cell<u64>,
    /// Deepest queue seen at any arrival (including those in service).
    pub max_depth: Cell<u64>,
    /// Histogram of queue depth observed at arrival.
    pub depth_hist: [Cell<u64>; DEPTH_BUCKETS],
}

impl Default for QueueStats {
    fn default() -> Self {
        QueueStats {
            arrivals: Cell::new(0),
            served: Cell::new(0),
            wait_ns: Cell::new(0),
            busy_ns: Cell::new(0),
            max_depth: Cell::new(0),
            depth_hist: std::array::from_fn(|_| Cell::new(0)),
        }
    }
}

impl QueueStats {
    /// Mean queueing delay per served request, ns.
    pub fn mean_wait_ns(&self) -> f64 {
        let served = self.served.get();
        if served == 0 {
            0.0
        } else {
            self.wait_ns.get() as f64 / served as f64
        }
    }
}

/// Lightweight handle a `Resource` holds to report arrivals and grants.
#[derive(Clone)]
pub struct QueueProbe {
    stats: Rc<QueueStats>,
}

impl QueueProbe {
    /// Record an arrival that observed `depth` requests already present
    /// (in service + queued).
    pub fn arrival(&self, depth: usize) {
        bump!(self.stats.arrivals);
        bump!(self.stats.depth_hist[depth_bucket(depth)]);
        if depth as u64 > self.stats.max_depth.get() {
            self.stats.max_depth.set(depth as u64);
        }
    }

    /// Record a grant: the request waited `wait_ns` and was granted
    /// `service_ns` of server time.
    pub fn served(&self, wait_ns: SimTime, service_ns: SimTime) {
        bump!(self.stats.served);
        bump!(self.stats.wait_ns, wait_ns);
        bump!(self.stats.busy_ns, service_ns);
    }
}

/// Aggregate statistics for one switch port, keyed by `(stage, port)`.
#[derive(Debug, Default, Clone)]
pub struct PortStats {
    pub hops: u64,
    pub wait_ns: u64,
    pub busy_ns: u64,
    pub max_depth: u64,
    pub depth_hist: [u64; DEPTH_BUCKETS],
}

struct Inner {
    nodes: Vec<NodeCounters>,
    /// Stolen memory-service ns, indexed `victim * MAX_NODES + thief`.
    steal: Vec<Cell<u64>>,
    mem_queues: Vec<Rc<QueueStats>>,
    switch_ports: RefCell<BTreeMap<(u32, u32), PortStats>>,
    timeline: Timeline,
}

/// Cheap, clonable handle to one probe's accumulated state.
#[derive(Clone)]
pub struct Probe {
    inner: Rc<Inner>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// A fresh probe, sized for [`MAX_NODES`].
    pub fn new() -> Self {
        Probe {
            inner: Rc::new(Inner {
                nodes: (0..MAX_NODES).map(|_| NodeCounters::default()).collect(),
                steal: (0..MAX_NODES * MAX_NODES).map(|_| Cell::new(0)).collect(),
                mem_queues: (0..MAX_NODES)
                    .map(|_| Rc::new(QueueStats::default()))
                    .collect(),
                switch_ports: RefCell::new(BTreeMap::new()),
                timeline: Timeline::default(),
            }),
        }
    }

    /// Counters for `node` (read-side access for exporters and tests).
    pub fn node(&self, node: u16) -> &NodeCounters {
        &self.inner.nodes[node as usize]
    }

    /// Queue probe for `node`'s memory unit, to hand to its `Resource`.
    pub fn mem_queue(&self, node: u16) -> QueueProbe {
        QueueProbe {
            stats: Rc::clone(&self.inner.mem_queues[node as usize]),
        }
    }

    /// Read-side view of `node`'s memory-queue statistics.
    pub fn mem_queue_stats(&self, node: u16) -> &QueueStats {
        &self.inner.mem_queues[node as usize]
    }

    // ---- machine-layer probe points -------------------------------------

    /// A locally served memory reference consuming `service_ns` at `node`.
    pub fn local_ref(&self, node: u16, service_ns: SimTime) {
        let n = &self.inner.nodes[node as usize];
        bump!(n.local_refs);
        bump!(n.mem_local_ns, service_ns);
    }

    /// A remote reference issued by `from`, served at `home`, consuming
    /// `service_ns` of `home`'s memory — cycles stolen from `home` by
    /// `from` in the paper's vocabulary.
    pub fn remote_ref(&self, from: u16, home: u16, service_ns: SimTime) {
        bump!(self.inner.nodes[from as usize].remote_out);
        let h = &self.inner.nodes[home as usize];
        bump!(h.remote_in);
        bump!(h.mem_stolen_ns, service_ns);
        let cell = &self.inner.steal[home as usize * MAX_NODES + from as usize];
        bump!(cell, service_ns);
    }

    /// One hop through switch port `(stage, port)`: queued `wait_ns`,
    /// occupied the port for `service_ns`, observed `depth` requests ahead
    /// on arrival.
    pub fn switch_hop(
        &self,
        stage: u32,
        port: u32,
        wait_ns: SimTime,
        service_ns: SimTime,
        depth: usize,
    ) {
        let mut ports = self.inner.switch_ports.borrow_mut();
        let p = ports.entry((stage, port)).or_default();
        p.hops += 1;
        p.wait_ns += wait_ns;
        p.busy_ns += service_ns;
        p.max_depth = p.max_depth.max(depth as u64);
        p.depth_hist[depth_bucket(depth)] += 1;
    }

    // ---- OS/runtime-layer probe points ----------------------------------

    /// A completed lock acquire: lock word homed on `home`, acquired by
    /// `spinner` after `failed_attempts` failed test-and-sets over
    /// `spin_ns`.
    pub fn lock_spin(&self, home: u16, _spinner: u16, failed_attempts: u64, spin_ns: SimTime) {
        let h = &self.inner.nodes[home as usize];
        bump!(h.lock_acquires);
        bump!(h.lock_spin_attempts, failed_attempts);
        bump!(h.lock_spin_ns, spin_ns);
    }

    /// One allocator operation under the lock homed on `home`: waited
    /// `wait_ns` for the lock, held it `hold_ns`; `serial` marks the
    /// single-lock (Amdahl) configuration.
    pub fn alloc_op(&self, home: u16, wait_ns: SimTime, hold_ns: SimTime, serial: bool) {
        let h = &self.inner.nodes[home as usize];
        bump!(h.alloc_ops);
        bump!(h.alloc_wait_ns, wait_ns);
        bump!(h.alloc_hold_ns, hold_ns);
        if serial {
            bump!(h.alloc_serial_ns, wait_ns + hold_ns);
        }
    }

    /// A Uniform System task claimed by `node`.
    pub fn task_claimed(&self, node: u16) {
        bump!(self.inner.nodes[node as usize].tasks_claimed);
    }

    /// An SMP message of `bytes` payload sent from `from` to `_to`.
    pub fn msg_send(&self, from: u16, _to: u16, bytes: usize) {
        let f = &self.inner.nodes[from as usize];
        bump!(f.msgs_sent);
        bump!(f.msg_bytes, bytes as u64);
    }

    // ---- timeline -------------------------------------------------------

    /// Record a completed span. `pid` is the home node of the activity,
    /// `tid` the acting node/rank.
    pub fn span(
        &self,
        pid: u32,
        tid: u32,
        name: &'static str,
        cat: &'static str,
        ts: SimTime,
        dur: SimTime,
    ) {
        self.inner.timeline.span(Span {
            pid,
            tid,
            name,
            cat,
            ts,
            dur,
        });
    }

    /// Record an instantaneous event.
    pub fn instant(&self, pid: u32, tid: u32, name: &'static str, cat: &'static str, ts: SimTime) {
        self.inner.timeline.instant(Instant {
            pid,
            tid,
            name,
            cat,
            ts,
        });
    }

    /// The underlying timeline (exporters, tests).
    pub fn timeline(&self) -> &Timeline {
        &self.inner.timeline
    }

    // ---- read-side aggregates -------------------------------------------

    /// Stolen ns at `victim` caused by `thief`.
    pub fn stolen_ns(&self, victim: u16, thief: u16) -> u64 {
        self.inner.steal[victim as usize * MAX_NODES + thief as usize].get()
    }

    /// Total stolen ns across all victims.
    pub fn total_stolen_ns(&self) -> u64 {
        self.inner.nodes.iter().map(|n| n.mem_stolen_ns.get()).sum()
    }

    /// Contention-attribution table: per-victim stolen cycles with shares
    /// and top thieves, sorted by stolen ns descending.
    pub fn attribution(&self) -> Attribution {
        summary::build_attribution(self)
    }

    /// Total switch-port queueing delay, ns, across all ports.
    pub fn switch_wait_ns(&self) -> u64 {
        self.inner
            .switch_ports
            .borrow()
            .values()
            .map(|p| p.wait_ns)
            .sum()
    }

    /// Total hops recorded through detailed switch ports.
    pub fn switch_hops(&self) -> u64 {
        self.inner
            .switch_ports
            .borrow()
            .values()
            .map(|p| p.hops)
            .sum()
    }

    /// The probe's shadow state as flat `(name, value)` counters for
    /// checkpoint hashing (`bfly-snap` sections are built by the caller —
    /// this crate stays dependency-free). Every quantity is derived from
    /// simulated time and event counts, never from the host clock, so two
    /// identical executions produce identical fields at any event cut.
    pub fn snapshot_fields(&self) -> Vec<(&'static str, u64)> {
        let sum = |f: fn(&NodeCounters) -> &Cell<u64>| -> u64 {
            self.inner.nodes.iter().map(|n| f(n).get()).sum()
        };
        vec![
            ("local_refs", sum(|n| &n.local_refs)),
            ("remote_out", sum(|n| &n.remote_out)),
            ("remote_in", sum(|n| &n.remote_in)),
            ("mem_local_ns", sum(|n| &n.mem_local_ns)),
            ("mem_stolen_ns", sum(|n| &n.mem_stolen_ns)),
            ("lock_acquires", sum(|n| &n.lock_acquires)),
            ("lock_spin_ns", sum(|n| &n.lock_spin_ns)),
            ("alloc_ops", sum(|n| &n.alloc_ops)),
            ("tasks_claimed", sum(|n| &n.tasks_claimed)),
            ("msgs_sent", sum(|n| &n.msgs_sent)),
            ("msg_bytes", sum(|n| &n.msg_bytes)),
            ("switch_hops", self.switch_hops()),
            ("switch_wait_ns", self.switch_wait_ns()),
            ("spans", self.inner.timeline.span_count() as u64),
            ("instants", self.inner.timeline.instant_count() as u64),
        ]
    }

    /// Snapshot of per-port switch statistics, in `(stage, port)` order.
    pub fn switch_ports(&self) -> Vec<((u32, u32), PortStats)> {
        self.inner
            .switch_ports
            .borrow()
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Chrome `trace_event` JSON for the recorded timeline.
    pub fn chrome_trace(&self) -> String {
        chrome::chrome_trace(self)
    }

    /// Machine-readable summary (`PROBE_<exp>.json` schema `bfly-probe/1`).
    pub fn summary_json(&self, experiment: &str) -> String {
        summary::summary_json(self, experiment)
    }
}

// ---- ambient installation ----------------------------------------------
//
// Applications like `gauss_us` construct their own `Sim` + `Machine`
// internally, so the bench binaries cannot thread a probe parameter down to
// them. Instead a probe can be installed "ambiently" for the current
// thread; `Machine::new` checks for one and auto-attaches. Thread-local (not
// global) so a non-probed parallel sweep on other threads is unaffected.

thread_local! {
    static AMBIENT: RefCell<Option<Probe>> = const { RefCell::new(None) };
}

/// Install (or clear, with `None`) the ambient probe for this thread.
/// Returns the previously installed probe.
pub fn install_ambient(probe: Option<Probe>) -> Option<Probe> {
    AMBIENT.with(|a| std::mem::replace(&mut *a.borrow_mut(), probe))
}

/// The ambient probe for this thread, if any.
pub fn ambient() -> Option<Probe> {
    AMBIENT.with(|a| a.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let p = Probe::new();
        p.local_ref(3, 500);
        p.local_ref(3, 500);
        p.remote_ref(7, 3, 1_000);
        assert_eq!(p.node(3).local_refs.get(), 2);
        assert_eq!(p.node(3).mem_local_ns.get(), 1_000);
        assert_eq!(p.node(3).remote_in.get(), 1);
        assert_eq!(p.node(3).mem_stolen_ns.get(), 1_000);
        assert_eq!(p.node(7).remote_out.get(), 1);
        assert_eq!(p.stolen_ns(3, 7), 1_000);
        assert_eq!(p.stolen_ns(7, 3), 0);
        assert_eq!(p.total_stolen_ns(), 1_000);
    }

    #[test]
    fn queue_probe_histograms_depth() {
        let p = Probe::new();
        let q = p.mem_queue(0);
        q.arrival(0);
        q.arrival(2);
        q.arrival(40); // clamps to the 16+ bucket
        q.served(100, 500);
        q.served(0, 500);
        let s = p.mem_queue_stats(0);
        assert_eq!(s.arrivals.get(), 3);
        assert_eq!(s.served.get(), 2);
        assert_eq!(s.wait_ns.get(), 100);
        assert_eq!(s.busy_ns.get(), 1_000);
        assert_eq!(s.max_depth.get(), 40);
        assert_eq!(s.depth_hist[0].get(), 1);
        assert_eq!(s.depth_hist[2].get(), 1);
        assert_eq!(s.depth_hist[DEPTH_BUCKETS - 1].get(), 1);
        assert_eq!(s.mean_wait_ns(), 50.0);
    }

    #[test]
    fn switch_ports_are_keyed_and_ordered() {
        let p = Probe::new();
        p.switch_hop(1, 2, 50, 300, 1);
        p.switch_hop(0, 9, 0, 300, 0);
        p.switch_hop(1, 2, 150, 300, 3);
        let ports = p.switch_ports();
        assert_eq!(ports.len(), 2);
        assert_eq!(ports[0].0, (0, 9));
        assert_eq!(ports[1].0, (1, 2));
        assert_eq!(ports[1].1.hops, 2);
        assert_eq!(ports[1].1.wait_ns, 200);
        assert_eq!(p.switch_wait_ns(), 200);
        assert_eq!(p.switch_hops(), 3);
    }

    #[test]
    fn ambient_install_round_trips() {
        assert!(ambient().is_none());
        let p = Probe::new();
        assert!(install_ambient(Some(p.clone())).is_none());
        let got = ambient().expect("ambient set");
        got.local_ref(0, 1);
        assert_eq!(p.node(0).local_refs.get(), 1, "same underlying state");
        let prev = install_ambient(None);
        assert!(prev.is_some());
        assert!(ambient().is_none());
    }
}
