//! The machine itself: nodes + switch + the PNC operation set.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;

use bfly_probe::Probe;
use bfly_sim::resource::{Program, Script, Step};
use bfly_sim::{FaultKind, FaultPlan, Resource, Sim, SimTime};

use crate::addr::{GAddr, NodeId};
use crate::cost::{Costs, SwitchModel};
use crate::error::MachineError;
use crate::node::Node;
use crate::switch::Switch;

/// Configuration for a simulated Butterfly.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of processing nodes (1..=256).
    pub nodes: u16,
    /// Local memory per node, bytes (1 MB on the base Butterfly-I).
    pub mem_per_node: u32,
    /// Timing constants.
    pub costs: Costs,
    /// Switch fidelity.
    pub switch: SwitchModel,
}

impl MachineConfig {
    /// Rochester's 128-node machine with 1 MB per node.
    pub fn rochester() -> Self {
        MachineConfig {
            nodes: 128,
            mem_per_node: 1 << 20,
            costs: Costs::butterfly_one(),
            switch: SwitchModel::Fast,
        }
    }

    /// A small machine for unit tests.
    pub fn small(nodes: u16) -> Self {
        MachineConfig {
            nodes,
            mem_per_node: 1 << 18,
            costs: Costs::butterfly_one(),
            switch: SwitchModel::Fast,
        }
    }

    /// Set the number of nodes.
    pub fn with_nodes(mut self, n: u16) -> Self {
        self.nodes = n;
        self
    }

    /// Set the switch model.
    pub fn with_switch(mut self, m: SwitchModel) -> Self {
        self.switch = m;
        self
    }

    /// Set the cost table.
    pub fn with_costs(mut self, c: Costs) -> Self {
        self.costs = c;
        self
    }

    /// Set per-node memory.
    pub fn with_mem(mut self, bytes: u32) -> Self {
        self.mem_per_node = bytes;
        self
    }
}

/// Aggregate reference counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MachineStats {
    /// Word references satisfied from the issuing node's own memory.
    pub local_refs: u64,
    /// Word references that crossed the switch.
    pub remote_refs: u64,
    /// Block transfers (any size).
    pub block_transfers: u64,
    /// Bytes moved by block transfers.
    pub block_bytes: u64,
    /// Microcoded atomic operations.
    pub atomics: u64,
}

/// Unwrap for the infallible legacy API: code that never installs faults
/// keeps its panic-free surface, and an unexpected fault under injection
/// fails loudly instead of silently corrupting an experiment.
fn unwrap_fault<T>(r: Result<T, MachineError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("unhandled machine fault: {e}"),
    }
}

/// Per-field counter cells: the hot paths bump one field at a time instead
/// of copying a whole [`MachineStats`] in and out of a `Cell`.
#[derive(Default)]
struct StatCells {
    local_refs: Cell<u64>,
    remote_refs: Cell<u64>,
    block_transfers: Cell<u64>,
    block_bytes: Cell<u64>,
    atomics: Cell<u64>,
}

/// What one kind of PNC reference charges: everything in which word,
/// atomic and block references differ. The sequence itself is
/// [`Machine::try_ref`]'s.
struct RefCost {
    /// Issue time beyond the plain local or remote issue: 0 for a word,
    /// the atomic's microcode, or the block's setup.
    extra: SimTime,
    /// Memory-unit service time, before jitter.
    svc: SimTime,
    /// A remote block's wire time, charged between its memory-unit hold
    /// and the return traversal.
    wire: Option<SimTime>,
    /// Word references count into `local_refs`, `remote_refs` and
    /// `remote_refs_out`.
    word: bool,
}

/// A simulated Butterfly Parallel Processor.
pub struct Machine {
    /// The driving simulation.
    pub sim: Sim,
    /// Machine configuration (costs are read by higher layers too).
    pub cfg: MachineConfig,
    nodes: Vec<Rc<Node>>,
    /// The switching network.
    pub switch: Switch,
    stats: StatCells,
    /// Latches true the first time node availability is touched anywhere
    /// (directly or via an installed [`FaultPlan`]); shared with every
    /// [`Node`]. While false, remote references may take the fused-delay
    /// fast path — see [`Machine::fused_net`].
    fault_latch: Rc<Cell<bool>>,
    /// Optional observability probe (see `bfly-probe`); `probe_on` keeps
    /// the disabled path to one predictable branch per reference.
    probe: RefCell<Option<Probe>>,
    probe_on: Cell<bool>,
    /// Optional ambient sanitizer (see `bfly-san`), captured at boot like
    /// the probe. The disabled path is one `Option` discriminant test per
    /// reference; hooks never touch simulated time.
    san: Option<bfly_san::Sanitizer>,
}

impl Machine {
    /// Boot a machine.
    pub fn new(sim: &Sim, cfg: MachineConfig) -> Rc<Machine> {
        assert!(cfg.nodes >= 1 && cfg.nodes <= 256, "1..=256 nodes");
        let fault_latch = Rc::new(Cell::new(false));
        let nodes = (0..cfg.nodes)
            .map(|id| Node::new(sim, id, cfg.mem_per_node, fault_latch.clone()))
            .collect();
        let switch = Switch::new(sim, cfg.nodes, cfg.switch, &cfg.costs);
        let m = Rc::new(Machine {
            sim: sim.clone(),
            cfg,
            nodes,
            switch,
            stats: StatCells::default(),
            fault_latch,
            probe: RefCell::new(None),
            probe_on: Cell::new(false),
            san: bfly_san::ambient(),
        });
        // Applications build their own machines internally, so a probe can
        // be installed "ambiently" for the thread and picked up here.
        if let Some(p) = bfly_probe::ambient() {
            m.attach_probe(&p);
        }
        m
    }

    /// Attach an observability probe: per-node memory-queue statistics,
    /// switch-port statistics, and local/remote reference attribution
    /// (including the victim×thief stolen-cycle matrix) start reporting
    /// into it. Probes are observational only — attaching one changes no
    /// simulated-ns result. Last attach wins.
    pub fn attach_probe(&self, p: &Probe) {
        for n in &self.nodes {
            n.mem.attach_probe(p.mem_queue(n.id));
        }
        self.switch.attach_probe(p);
        *self.probe.borrow_mut() = Some(p.clone());
        self.probe_on.set(true);
    }

    /// The attached probe, if any (one flag check when disabled). Higher
    /// layers (Chrysalis locks, the Uniform System allocator, SMP sends)
    /// use this to report into the machine's probe.
    pub fn probe_if_on(&self) -> Option<Probe> {
        if self.probe_on.get() {
            self.probe.borrow().clone()
        } else {
            None
        }
    }

    /// Report to the attached probe, if any: one flag test when none is.
    fn probed(&self, f: impl FnOnce(&Probe)) {
        if self.probe_on.get() {
            if let Some(p) = &*self.probe.borrow() {
                f(p);
            }
        }
    }

    /// The attached sanitizer, if any. Higher layers (Chrysalis locks,
    /// the Uniform System allocator, SMP sends) use this to report lock
    /// and allocation events into the machine's sanitizer.
    pub fn san_if_on(&self) -> Option<&bfly_san::Sanitizer> {
        self.san.as_ref()
    }

    /// True while remote references may charge their consecutive pure
    /// delays (issue latency + forward traversal, and for block transfers
    /// the wire time + return traversal) as single fused legs around the
    /// memory-unit hold — one [`Resource::access_between`], whose arrival
    /// and service end the executor runs without polling the issuing
    /// task. Every *observable* instant — arrival at the target memory,
    /// completion of the round trip — is bit-identical to the unfused
    /// path.
    ///
    /// It is only safe when each leg is the constant it appears to be:
    /// no timing jitter (jitter draws RNG per sleep, and fusing would
    /// change the draw sequence), the constant-latency `Fast` switch, and
    /// no fault ever injected (the unfused path re-checks availability
    /// between legs; once anything has faulted we keep its exact timing).
    fn fused_net(&self) -> bool {
        self.cfg.costs.jitter_pct == 0
            && matches!(self.cfg.switch, SwitchModel::Fast)
            && !self.switch.faulted()
            && !self.fault_latch.get()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u16 {
        self.cfg.nodes
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &Rc<Node> {
        &self.nodes[id as usize]
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            local_refs: self.stats.local_refs.get(),
            remote_refs: self.stats.remote_refs.get(),
            block_transfers: self.stats.block_transfers.get(),
            block_bytes: self.stats.block_bytes.get(),
            atomics: self.stats.atomics.get(),
        }
    }

    /// Deterministic machine state as a `bfly-snap` section: aggregate
    /// reference counters plus the memory-unit and switch-port queue
    /// occupancy the snapshot hash must cover (ISSUE/DESIGN.md §16). All
    /// purely simulated quantities — no wall clock — so the section is
    /// bit-stable across identical executions and usable for restore
    /// verification.
    pub fn snapshot_section(&self) -> bfly_snap::Section {
        let s = self.stats();
        let mut out = bfly_snap::Section::new("machine");
        out.field_u64("nodes", self.cfg.nodes as u64)
            .field_u64("local_refs", s.local_refs)
            .field_u64("remote_refs", s.remote_refs)
            .field_u64("block_transfers", s.block_transfers)
            .field_u64("block_bytes", s.block_bytes)
            .field_u64("atomics", s.atomics)
            .field_u64s(
                "mem_queue",
                self.nodes.iter().map(|n| n.mem.queue_len() as u64),
            )
            .field_u64s(
                "mem_busy",
                self.nodes.iter().map(|n| n.mem.in_service() as u64),
            )
            .field_u64("switch_port_wait", self.switch.total_port_wait());
        out
    }

    /// Reset aggregate counters.
    pub fn reset_stats(&self) {
        self.stats.local_refs.set(0);
        self.stats.remote_refs.set(0);
        self.stats.block_transfers.set(0);
        self.stats.block_bytes.set(0);
        self.stats.atomics.set(0);
        for n in &self.nodes {
            n.local_refs.set(0);
            n.remote_refs_in.set(0);
            n.remote_refs_out.set(0);
            n.cpu.reset_stats();
            n.mem.reset_stats();
        }
    }

    fn jittered(&self, t: SimTime) -> SimTime {
        let pct = self.cfg.costs.jitter_pct;
        if pct == 0 {
            t
        } else {
            self.sim.with_rng(|r| r.jitter(t, pct))
        }
    }

    /// The memory resource of the node owning `addr` (exposed for
    /// experiment instrumentation).
    pub fn mem_resource(&self, node: NodeId) -> &Resource {
        &self.nodes[node as usize].mem
    }

    /// The CPU resource of a node.
    pub fn cpu_resource(&self, node: NodeId) -> &Resource {
        &self.nodes[node as usize].cpu
    }

    /// Charge `dur` of pure local computation on `on`'s processor.
    /// Panics if the node is crashed; see [`Machine::try_compute`].
    pub async fn compute(&self, on: NodeId, dur: SimTime) {
        unwrap_fault(self.try_compute(on, dur).await)
    }

    /// Fallible compute: fails immediately if the node is down.
    pub async fn try_compute(&self, on: NodeId, dur: SimTime) -> Result<(), MachineError> {
        if !self.nodes[on as usize].is_up() {
            return Err(MachineError::NodeDown { node: on });
        }
        self.nodes[on as usize].cpu.access(dur).await;
        Ok(())
    }

    /// Charge the PNC's fault-detection time (retry-then-give-up
    /// microcode), then hand the error to the caller.
    async fn detected(&self, e: MachineError) -> MachineError {
        self.sim.sleep(self.cfg.costs.fault_detect).await;
        e
    }

    /// Availability gate shared by every PNC op: the issuing node must be
    /// in service (a crashed processor issues nothing).
    fn check_issuer(&self, from: NodeId) -> Result<(), MachineError> {
        if self.nodes[from as usize].is_up() {
            Ok(())
        } else {
            Err(MachineError::NodeDown { node: from })
        }
    }

    /// One PNC reference from `from` to `addr`, holding the issuing CPU
    /// for the whole round trip. Word, atomic and block references differ
    /// only in their [`RefCost`]. A local reference is its issue plus one
    /// memory-unit hold. A remote one either runs as one fused
    /// [`Resource::access_between`] (see [`Machine::fused_net`]) or, leg
    /// by leg: issue, target availability re-check, forward traversal,
    /// memory-unit hold, a block's wire time, return traversal. Every
    /// failure charges the PNC's detection time.
    async fn try_ref(&self, from: NodeId, addr: GAddr, cost: RefCost) -> Result<(), MachineError> {
        let c = &self.cfg.costs;
        let issuer = &self.nodes[from as usize];
        let target = &self.nodes[addr.node as usize];
        let _cpu = issuer.cpu.acquire().await;
        if from == addr.node {
            if cost.word {
                target.local_refs.set(target.local_refs.get() + 1);
                self.stats.local_refs.set(self.stats.local_refs.get() + 1);
            }
            self.sim
                .sleep(self.jittered(c.local_issue + cost.extra))
                .await;
            let svc = self.jittered(cost.svc);
            target.mem.access(svc).await;
            self.probed(|p| p.local_ref(from, svc));
            return Ok(());
        }
        if cost.word {
            issuer.remote_refs_out.set(issuer.remote_refs_out.get() + 1);
            self.stats.remote_refs.set(self.stats.remote_refs.get() + 1);
        }
        if self.fused_net() {
            // Counters only, so counting waits for the return instant.
            let (before, svc, after) = self.fused_legs(&cost);
            target.mem.access_between(before, svc, after).await;
            target.remote_refs_in.set(target.remote_refs_in.get() + 1);
            self.probed(|p| p.remote_ref(from, addr.node, cost.svc));
            return Ok(());
        }
        self.sim
            .sleep(self.jittered(c.remote_issue + cost.extra))
            .await;
        if !target.is_up() {
            return Err(self
                .detected(MachineError::NodeDown { node: addr.node })
                .await);
        }
        if let Err(e) = self.switch.try_traverse(&self.sim, from, addr.node).await {
            return Err(self.detected(e).await);
        }
        target.remote_refs_in.set(target.remote_refs_in.get() + 1);
        let svc = self.jittered(cost.svc);
        target.mem.access(svc).await;
        self.probed(|p| p.remote_ref(from, addr.node, svc));
        if let Some(wire) = cost.wire {
            self.sim.sleep(self.jittered(wire)).await;
        }
        if let Err(e) = self.switch.try_traverse(&self.sim, addr.node, from).await {
            return Err(self.detected(e).await);
        }
        Ok(())
    }

    /// A fused remote reference's legs: the issue and forward traversal
    /// as one, the memory-unit hold, a block's wire time and the return
    /// traversal as another.
    fn fused_legs(&self, cost: &RefCost) -> (SimTime, SimTime, SimTime) {
        let latency = self.switch.latency();
        (
            self.cfg.costs.remote_issue + cost.extra + latency,
            cost.svc,
            cost.wire.unwrap_or(0) + latency,
        )
    }

    // ---------------------------------------------------------------
    // Word references
    // ---------------------------------------------------------------

    /// What a word reference of `len <= 8` bytes charges: one memory-unit
    /// service per 4 bytes.
    fn word_cost(&self, len: u32) -> RefCost {
        let words = len.div_ceil(4).max(1) as SimTime;
        RefCost {
            extra: 0,
            svc: words * self.cfg.costs.mem_service,
            wire: None,
            word: true,
        }
    }

    /// One word-granularity reference from node `from` to `addr`,
    /// transferring `len <= 8` bytes. Returns after the full round trip;
    /// the issuing CPU stalls throughout.
    async fn try_word_ref(&self, from: NodeId, addr: GAddr, len: u32) -> Result<(), MachineError> {
        self.check_issuer(from)?;
        self.try_ref(from, addr, self.word_cost(len)).await
    }

    /// Read a 32-bit word.
    pub async fn read_u32(&self, from: NodeId, addr: GAddr) -> u32 {
        unwrap_fault(self.try_read_u32(from, addr).await)
    }

    /// Fallible 32-bit read.
    pub async fn try_read_u32(&self, from: NodeId, addr: GAddr) -> Result<u32, MachineError> {
        self.try_word_ref(from, addr, 4).await?;
        if let Some(s) = &self.san {
            s.plain_access(from, addr.node, addr.offset as u64, 4, false);
        }
        let mut b = [0u8; 4];
        self.nodes[addr.node as usize].load(addr.offset, &mut b);
        Ok(u32::from_le_bytes(b))
    }

    /// Write a 32-bit word.
    pub async fn write_u32(&self, from: NodeId, addr: GAddr, val: u32) {
        unwrap_fault(self.try_write_u32(from, addr, val).await)
    }

    /// Fallible 32-bit write.
    pub async fn try_write_u32(
        &self,
        from: NodeId,
        addr: GAddr,
        val: u32,
    ) -> Result<(), MachineError> {
        self.try_word_ref(from, addr, 4).await?;
        if let Some(s) = &self.san {
            s.plain_access(from, addr.node, addr.offset as u64, 4, true);
        }
        self.nodes[addr.node as usize].store(addr.offset, &val.to_le_bytes());
        Ok(())
    }

    /// Read a 64-bit float (two bus words on the Butterfly).
    pub async fn read_f64(&self, from: NodeId, addr: GAddr) -> f64 {
        unwrap_fault(self.try_read_f64(from, addr).await)
    }

    /// Fallible 64-bit float read.
    pub async fn try_read_f64(&self, from: NodeId, addr: GAddr) -> Result<f64, MachineError> {
        self.try_word_ref(from, addr, 8).await?;
        if let Some(s) = &self.san {
            s.plain_access(from, addr.node, addr.offset as u64, 8, false);
        }
        let mut b = [0u8; 8];
        self.nodes[addr.node as usize].load(addr.offset, &mut b);
        Ok(f64::from_le_bytes(b))
    }

    /// Write a 64-bit float.
    pub async fn write_f64(&self, from: NodeId, addr: GAddr, val: f64) {
        unwrap_fault(self.try_write_f64(from, addr, val).await)
    }

    /// Fallible 64-bit float write.
    pub async fn try_write_f64(
        &self,
        from: NodeId,
        addr: GAddr,
        val: f64,
    ) -> Result<(), MachineError> {
        self.try_word_ref(from, addr, 8).await?;
        if let Some(s) = &self.san {
            s.plain_access(from, addr.node, addr.offset as u64, 8, true);
        }
        self.nodes[addr.node as usize].store(addr.offset, &val.to_le_bytes());
        Ok(())
    }

    /// Update words `cols` of the row of `f64`s at `row` in place: for
    /// each word `j`, read it, compute for `flops` ns, and write back
    /// `f(j, v)` of the value `v` read. Panics on a machine fault; see
    /// [`Machine::try_update_row`].
    pub async fn update_row<F>(
        self: &Rc<Self>,
        from: NodeId,
        row: GAddr,
        cols: Range<u32>,
        flops: SimTime,
        f: F,
    ) where
        F: FnMut(u32, f64) -> f64 + 'static,
    {
        unwrap_fault(self.try_update_row(from, row, cols, flops, f).await)
    }

    /// Fallible row update: exactly [`Machine::try_read_f64`],
    /// [`Machine::try_compute`] and [`Machine::try_write_f64`] per word,
    /// stopping at the first error. Each word's steps run as a
    /// [`Program`]: on the fused path the executor makes a remote word's
    /// references and its compute hold itself, and the task is polled
    /// only at the row's last return. A step the program declines (a
    /// local word, the unfused path, a reference from a busy processor)
    /// runs through those methods.
    pub async fn try_update_row<F>(
        self: &Rc<Self>,
        from: NodeId,
        row: GAddr,
        cols: Range<u32>,
        flops: SimTime,
        f: F,
    ) -> Result<(), MachineError>
    where
        F: FnMut(u32, f64) -> f64 + 'static,
    {
        let script = RowUpdate {
            m: self.clone(),
            from,
            row,
            j: cols.start,
            end: cols.end.max(cols.start),
            flops,
            f,
            word: Word::Read,
            v: 0.0,
        };
        let mut prog = Program::new(&self.sim, script);
        loop {
            (&mut prog).await;
            let (word, addr, v) = {
                let s = prog.script();
                if s.j == s.end {
                    return Ok(());
                }
                (s.word, s.addr(), s.v)
            };
            let v = match word {
                Word::Read => self.try_read_f64(from, addr).await?,
                Word::Compute => {
                    self.try_compute(from, flops).await?;
                    v
                }
                Word::Write => {
                    self.try_write_f64(from, addr, v).await?;
                    v
                }
            };
            prog.script().advance(v);
        }
    }

    // ---------------------------------------------------------------
    // Microcoded atomics (PNC)
    // ---------------------------------------------------------------

    async fn try_atomic_ref(&self, from: NodeId, addr: GAddr) -> Result<(), MachineError> {
        self.check_issuer(from)?;
        self.stats.atomics.set(self.stats.atomics.get() + 1);
        let c = &self.cfg.costs;
        let cost = RefCost {
            extra: c.atomic_extra,
            svc: c.atomic_mem_service,
            wire: None,
            word: false,
        };
        self.try_ref(from, addr, cost).await
    }

    /// Atomic fetch-and-add on a 32-bit word; returns the previous value.
    pub async fn fetch_add_u32(&self, from: NodeId, addr: GAddr, delta: u32) -> u32 {
        unwrap_fault(self.try_fetch_add_u32(from, addr, delta).await)
    }

    /// Fallible fetch-and-add. On error the target word is untouched (the
    /// PNC microcode never reached the memory).
    pub async fn try_fetch_add_u32(
        &self,
        from: NodeId,
        addr: GAddr,
        delta: u32,
    ) -> Result<u32, MachineError> {
        self.try_atomic_ref(from, addr).await?;
        if let Some(s) = &self.san {
            s.atomic_access(from, addr.node, addr.offset as u64);
        }
        let node = &self.nodes[addr.node as usize];
        let mut b = [0u8; 4];
        node.load(addr.offset, &mut b);
        let old = u32::from_le_bytes(b);
        node.store(addr.offset, &old.wrapping_add(delta).to_le_bytes());
        Ok(old)
    }

    /// Atomic test-and-set of a word: sets it to 1, returns the old value
    /// (0 means the caller acquired the lock).
    pub async fn test_and_set(&self, from: NodeId, addr: GAddr) -> u32 {
        unwrap_fault(self.try_test_and_set(from, addr).await)
    }

    /// Fallible test-and-set.
    pub async fn try_test_and_set(&self, from: NodeId, addr: GAddr) -> Result<u32, MachineError> {
        self.try_atomic_ref(from, addr).await?;
        if let Some(s) = &self.san {
            s.atomic_access(from, addr.node, addr.offset as u64);
        }
        let node = &self.nodes[addr.node as usize];
        let mut b = [0u8; 4];
        node.load(addr.offset, &mut b);
        let old = u32::from_le_bytes(b);
        node.store(addr.offset, &1u32.to_le_bytes());
        Ok(old)
    }

    /// Atomic unconditional store (used to release locks).
    pub async fn atomic_store(&self, from: NodeId, addr: GAddr, val: u32) {
        unwrap_fault(self.try_atomic_store(from, addr, val).await)
    }

    /// Fallible atomic store.
    pub async fn try_atomic_store(
        &self,
        from: NodeId,
        addr: GAddr,
        val: u32,
    ) -> Result<(), MachineError> {
        self.try_atomic_ref(from, addr).await?;
        if let Some(s) = &self.san {
            s.atomic_access(from, addr.node, addr.offset as u64);
        }
        self.nodes[addr.node as usize].store(addr.offset, &val.to_le_bytes());
        Ok(())
    }

    // ---------------------------------------------------------------
    // Block transfers
    // ---------------------------------------------------------------

    async fn try_block_ref(&self, from: NodeId, addr: GAddr, len: u32) -> Result<(), MachineError> {
        self.check_issuer(from)?;
        self.stats
            .block_transfers
            .set(self.stats.block_transfers.get() + 1);
        self.stats
            .block_bytes
            .set(self.stats.block_bytes.get() + len as u64);
        // Blocks are rare enough (thousands per run) to trace each one.
        let t0 = self.sim.now();
        let c = &self.cfg.costs;
        let bytes = len as SimTime;
        // Memory occupied while the block streams out, then the bytes
        // cross the wire.
        let cost = RefCost {
            extra: c.block_setup,
            svc: bytes * c.block_per_byte_mem,
            wire: Some(bytes * c.block_per_byte_switch),
            word: false,
        };
        self.try_ref(from, addr, cost).await?;
        self.probed(|p| {
            p.span(
                addr.node as u32,
                from as u32,
                "block_ref",
                "mem",
                t0,
                self.sim.now() - t0,
            );
        });
        Ok(())
    }

    /// Block-read `out.len()` bytes starting at `addr` into a local buffer.
    /// This is the PNC block-transfer the Uniform System's "copy into local
    /// memory" technique is built on.
    pub async fn read_block(&self, from: NodeId, addr: GAddr, out: &mut [u8]) {
        unwrap_fault(self.try_read_block(from, addr, out).await)
    }

    /// Fallible block read. On error `out` is untouched.
    pub async fn try_read_block(
        &self,
        from: NodeId,
        addr: GAddr,
        out: &mut [u8],
    ) -> Result<(), MachineError> {
        self.try_block_ref(from, addr, out.len() as u32).await?;
        if let Some(s) = &self.san {
            s.plain_access(from, addr.node, addr.offset as u64, out.len() as u64, false);
        }
        self.nodes[addr.node as usize].load(addr.offset, out);
        Ok(())
    }

    /// Block-write a buffer to `addr`.
    pub async fn write_block(&self, from: NodeId, addr: GAddr, src: &[u8]) {
        unwrap_fault(self.try_write_block(from, addr, src).await)
    }

    /// Fallible block write. On error the target memory is untouched.
    pub async fn try_write_block(
        &self,
        from: NodeId,
        addr: GAddr,
        src: &[u8],
    ) -> Result<(), MachineError> {
        self.try_block_ref(from, addr, src.len() as u32).await?;
        if let Some(s) = &self.san {
            s.plain_access(from, addr.node, addr.offset as u64, src.len() as u64, true);
        }
        self.nodes[addr.node as usize].store(addr.offset, src);
        Ok(())
    }

    /// Machine-to-machine block copy (read + write as one pipelined
    /// operation; charged as a read followed by a write).
    pub async fn copy_block(&self, by: NodeId, dst: GAddr, src: GAddr, len: u32) {
        unwrap_fault(self.try_copy_block(by, dst, src, len).await)
    }

    /// Fallible machine-to-machine copy. On error a prefix of `dst` may
    /// already hold copied data (the copy is chunked).
    pub async fn try_copy_block(
        &self,
        by: NodeId,
        dst: GAddr,
        src: GAddr,
        len: u32,
    ) -> Result<(), MachineError> {
        // Stream through the copying node in 4 KB chunks so huge copies
        // don't allocate huge temporary buffers.
        let mut done = 0u32;
        let mut buf = vec![0u8; len.min(4096) as usize];
        while done < len {
            let chunk = (len - done).min(4096);
            let b = &mut buf[..chunk as usize];
            self.try_read_block(by, src.add(done), b).await?;
            self.try_write_block(by, dst.add(done), b).await?;
            done += chunk;
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Fault injection
    // ---------------------------------------------------------------

    /// Attach a [`FaultPlan`] to this machine: node and switch-link events
    /// are applied at their virtual times by a spawned driver task. Disk
    /// and message events are ignored here — the Bridge file system and
    /// SMP library install their own drivers for those.
    pub fn install_faults(self: &Rc<Self>, plan: &FaultPlan) {
        // Disk and message events belong to other layers' drivers; with no
        // node or link event there is nothing to schedule here, and the
        // fused fast path stays available (callers routinely install an
        // empty default plan).
        let relevant = plan.events.iter().any(|ev| {
            matches!(
                ev.kind,
                FaultKind::NodeCrash { .. }
                    | FaultKind::NodeRecover { .. }
                    | FaultKind::LinkDown { .. }
                    | FaultKind::LinkUp { .. }
                    | FaultKind::LinkDegrade { .. }
            )
        });
        if !relevant {
            return;
        }
        // Planned faults fire later; disable the fused fast path for the
        // whole run so references in flight when one fires still follow
        // the unfused path's exact availability checks and timing.
        self.fault_latch.set(true);
        let m = self.clone();
        plan.schedule(&self.sim, move |_s, ev| match ev.kind {
            FaultKind::NodeCrash { node } => m.nodes[node as usize].set_up(false),
            FaultKind::NodeRecover { node } => m.nodes[node as usize].set_up(true),
            FaultKind::LinkDown { stage, port } => m.switch.set_link_up(stage, port, false),
            FaultKind::LinkUp { stage, port } => m.switch.set_link_up(stage, port, true),
            FaultKind::LinkDegrade {
                stage,
                port,
                factor,
            } => m.switch.set_link_degrade(stage, port, factor),
            FaultKind::DiskFail { .. }
            | FaultKind::DiskRecover { .. }
            | FaultKind::MessageLoss { .. }
            | FaultKind::MessageCorrupt { .. } => {}
        });
    }

    // ---------------------------------------------------------------
    // Zero-cost debug access (host-side inspection, no simulated time)
    // ---------------------------------------------------------------

    /// Read memory without charging simulated time (host/debugger access).
    pub fn peek(&self, addr: GAddr, out: &mut [u8]) {
        if let Some(s) = &self.san {
            s.plain_access(
                bfly_san::HOST_NODE,
                addr.node,
                addr.offset as u64,
                out.len() as u64,
                false,
            );
        }
        self.nodes[addr.node as usize].load(addr.offset, out);
    }

    /// Write memory without charging simulated time (host/debugger access).
    pub fn poke(&self, addr: GAddr, src: &[u8]) {
        if let Some(s) = &self.san {
            s.plain_access(
                bfly_san::HOST_NODE,
                addr.node,
                addr.offset as u64,
                src.len() as u64,
                true,
            );
        }
        self.nodes[addr.node as usize].store(addr.offset, src);
    }

    /// Host-side u32 read.
    pub fn peek_u32(&self, addr: GAddr) -> u32 {
        let mut b = [0u8; 4];
        self.peek(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Host-side f64 read.
    pub fn peek_f64(&self, addr: GAddr) -> f64 {
        let mut b = [0u8; 8];
        self.peek(addr, &mut b);
        f64::from_le_bytes(b)
    }

    /// Host-side u32 write.
    pub fn poke_u32(&self, addr: GAddr, v: u32) {
        self.poke(addr, &v.to_le_bytes());
    }

    /// Host-side f64 write.
    pub fn poke_f64(&self, addr: GAddr, v: f64) {
        self.poke(addr, &v.to_le_bytes());
    }
}

/// A row update's step within its current word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Word {
    Read,
    Compute,
    Write,
}

/// The [`Script`] of [`Machine::try_update_row`]. It offers a remote
/// word's references on the fused path and every compute hold, each
/// after the availability checks the element-wise methods make; its
/// bookkeeping is theirs: the counters at issue, and at return the
/// counters, the probe, the sanitizer and the load or store.
struct RowUpdate<F> {
    m: Rc<Machine>,
    from: NodeId,
    row: GAddr,
    j: u32,
    end: u32,
    flops: SimTime,
    f: F,
    word: Word,
    /// The word read, then the value to write back.
    v: f64,
}

impl<F: FnMut(u32, f64) -> f64> RowUpdate<F> {
    fn addr(&self) -> GAddr {
        self.row.add(self.j * 8)
    }

    /// Past the current step, whose value (the word read) is `v`.
    fn advance(&mut self, v: f64) {
        match self.word {
            Word::Read => {
                self.v = v;
                self.word = Word::Compute;
            }
            Word::Compute => {
                self.v = (self.f)(self.j, self.v);
                self.word = Word::Write;
            }
            Word::Write => {
                self.j += 1;
                self.word = Word::Read;
            }
        }
    }
}

impl<F: FnMut(u32, f64) -> f64 + 'static> Script for RowUpdate<F> {
    fn next(&self) -> Option<Step> {
        if self.j == self.end {
            return None;
        }
        let m = &*self.m;
        let issuer = &m.nodes[self.from as usize];
        if !issuer.is_up() {
            return None;
        }
        if self.word == Word::Compute {
            return Some(Step::Hold {
                res: issuer.cpu.clone(),
                service: self.flops,
            });
        }
        let addr = self.addr();
        if addr.node == self.from || !m.fused_net() {
            return None;
        }
        let (before, service, after) = m.fused_legs(&m.word_cost(8));
        Some(Step::Ref {
            cpu: Some(issuer.cpu.clone()),
            unit: m.nodes[addr.node as usize].mem.clone(),
            before,
            service,
            after,
        })
    }

    fn started(&mut self) {
        if self.word != Word::Compute {
            let m = &*self.m;
            let issuer = &m.nodes[self.from as usize];
            issuer.remote_refs_out.set(issuer.remote_refs_out.get() + 1);
            m.stats.remote_refs.set(m.stats.remote_refs.get() + 1);
        }
    }

    fn finished(&mut self) {
        let mut v = self.v;
        if self.word != Word::Compute {
            let m = &*self.m;
            let (from, addr) = (self.from, self.addr());
            let target = &m.nodes[addr.node as usize];
            target.remote_refs_in.set(target.remote_refs_in.get() + 1);
            m.probed(|p| p.remote_ref(from, addr.node, m.word_cost(8).svc));
            let write = self.word == Word::Write;
            if let Some(s) = &m.san {
                s.plain_access(from, addr.node, addr.offset as u64, 8, write);
            }
            if write {
                target.store(addr.offset, &v.to_le_bytes());
            } else {
                let mut b = [0u8; 8];
                target.load(addr.offset, &mut b);
                v = f64::from_le_bytes(b);
            }
        }
        self.advance(v);
    }

    fn last(&self) -> bool {
        self.word == Word::Write && self.j + 1 == self.end
    }

    fn in_place(&self) -> bool {
        self.m.san.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot(nodes: u16) -> (Sim, Rc<Machine>) {
        let sim = Sim::new();
        let m = Machine::new(&sim, MachineConfig::small(nodes));
        (sim, m)
    }

    #[test]
    fn local_ref_costs_800ns() {
        let (sim, m) = boot(16);
        let a = m.node(0).alloc(64).unwrap();
        let m2 = m.clone();
        sim.block_on(async move {
            m2.write_u32(0, a, 0xDEAD).await;
        });
        assert_eq!(sim.now(), 800);
        assert_eq!(m.peek_u32(a), 0xDEAD);
    }

    #[test]
    fn remote_ref_is_5x_local() {
        // 128-node machine: 4 stages. Remote = 1100 + 2*4*300 + 500 = 4000.
        let sim = Sim::new();
        let m = Machine::new(&sim, MachineConfig::rochester());
        let a = m.node(100).alloc(64).unwrap();
        let m2 = m.clone();
        let t = sim.block_on(async move {
            let t0 = m2.sim.now();
            m2.read_u32(0, a).await;
            m2.sim.now() - t0
        });
        assert_eq!(t, 4_000);
        assert_eq!(m.stats().remote_refs, 1);
    }

    #[test]
    fn probe_attributes_stolen_cycles_without_changing_timing() {
        // Unprobed reference run.
        let (sim_a, m_a) = boot(16);
        let a = m_a.node(3).alloc(64).unwrap();
        let m2 = m_a.clone();
        sim_a.block_on(async move {
            m2.read_u32(0, a).await; // remote: steals from node 3
            m2.read_u32(3, a).await; // local
            m2.fetch_add_u32(5, a, 1).await; // remote atomic, steals from node 3
        });
        let t_off = sim_a.now();

        // Identical run with a probe attached.
        let (sim_b, m_b) = boot(16);
        let probe = Probe::new();
        m_b.attach_probe(&probe);
        let b = m_b.node(3).alloc(64).unwrap();
        let m2 = m_b.clone();
        sim_b.block_on(async move {
            m2.read_u32(0, b).await;
            m2.read_u32(3, b).await;
            m2.fetch_add_u32(5, b, 1).await;
        });
        assert_eq!(sim_b.now(), t_off, "probe must not change simulated time");

        let c = Costs::butterfly_one();
        assert_eq!(probe.node(3).local_refs.get(), 1);
        assert_eq!(probe.node(3).remote_in.get(), 2);
        assert_eq!(probe.node(0).remote_out.get(), 1);
        assert_eq!(probe.stolen_ns(3, 0), c.mem_service);
        assert_eq!(probe.stolen_ns(3, 5), c.atomic_mem_service);
        assert_eq!(
            probe.node(3).mem_stolen_ns.get(),
            c.mem_service + c.atomic_mem_service
        );
        // The memory-unit queue probe saw all three arrivals at node 3.
        assert_eq!(probe.mem_queue_stats(3).arrivals.get(), 3);
        let attr = probe.attribution();
        assert_eq!(attr.top_victim().unwrap().victim, 3);
        assert_eq!(attr.victim_share(3), 1.0);
    }

    #[test]
    fn ambient_probe_auto_attaches() {
        let probe = Probe::new();
        bfly_probe::install_ambient(Some(probe.clone()));
        let (sim, m) = boot(8);
        bfly_probe::install_ambient(None);
        let a = m.node(1).alloc(16).unwrap();
        let m2 = m.clone();
        sim.block_on(async move {
            m2.read_u32(0, a).await;
        });
        assert_eq!(probe.node(1).remote_in.get(), 1, "picked up ambiently");
    }

    #[test]
    fn data_roundtrips_through_memory() {
        let (sim, m) = boot(8);
        let a = m.node(3).alloc(128).unwrap();
        let m2 = m.clone();
        let v = sim.block_on(async move {
            m2.write_f64(1, a, 3.25).await;
            m2.read_f64(2, a).await
        });
        assert_eq!(v, 3.25);
    }

    #[test]
    fn fetch_add_is_atomic_in_effect() {
        let (sim, m) = boot(16);
        let ctr = m.node(0).alloc(4).unwrap();
        for i in 0..10u16 {
            let m = m.clone();
            sim.spawn(async move {
                m.fetch_add_u32(i % 16, ctr, 1).await;
            });
        }
        sim.run();
        assert_eq!(m.peek_u32(ctr), 10);
        assert_eq!(m.stats().atomics, 10);
    }

    #[test]
    fn test_and_set_grants_exactly_one_winner() {
        let (sim, m) = boot(8);
        let lock = m.node(0).alloc(4).unwrap();
        let winners = Rc::new(Cell::new(0u32));
        for i in 0..8u16 {
            let m = m.clone();
            let w = winners.clone();
            sim.spawn(async move {
                if m.test_and_set(i, lock).await == 0 {
                    w.set(w.get() + 1);
                }
            });
        }
        sim.run();
        assert_eq!(winners.get(), 1);
    }

    #[test]
    fn block_copy_moves_data_and_beats_word_loop() {
        let sim = Sim::new();
        let m = Machine::new(&sim, MachineConfig::rochester());
        let src = m.node(5).alloc(256).unwrap();
        let dst = m.node(0).alloc(256).unwrap();
        let pattern: Vec<u8> = (0..=255).collect();
        m.poke(src, &pattern);

        // Block copy.
        let m2 = m.clone();
        let t_block = sim.block_on(async move {
            let t0 = m2.sim.now();
            let mut buf = [0u8; 256];
            m2.read_block(0, src, &mut buf).await;
            m2.write_block(0, dst, &buf).await;
            m2.sim.now() - t0
        });
        let mut check = [0u8; 256];
        m.peek(dst, &mut check);
        assert_eq!(&check[..], &pattern[..]);

        // Word loop for comparison.
        let m2 = m.clone();
        let t_words = sim.block_on(async move {
            let t0 = m2.sim.now();
            for w in 0..64u32 {
                let v = m2.read_u32(0, src.add(w * 4)).await;
                m2.write_u32(0, dst.add(w * 4), v).await;
            }
            m2.sim.now() - t0
        });
        assert!(
            t_block * 2 < t_words,
            "block copy ({t_block}ns) must clearly beat word loop ({t_words}ns)"
        );
    }

    #[test]
    fn remote_traffic_steals_local_memory_cycles() {
        // One local worker does 100 local refs; measure how long that takes
        // while 0 vs 32 remote spinners hammer the same node's memory.
        fn run(spinners: u16) -> u64 {
            let sim = Sim::new();
            let m = Machine::new(&sim, MachineConfig::small(64));
            let hot = m.node(0).alloc(4).unwrap();
            let local = m.node(0).alloc(4).unwrap();
            let done = Rc::new(Cell::new(false));
            for s in 1..=spinners {
                let m = m.clone();
                let done = done.clone();
                sim.spawn(async move {
                    while !done.get() {
                        m.read_u32(s, hot).await;
                    }
                });
            }
            let m2 = m.clone();
            let done2 = done.clone();
            let h = sim.spawn(async move {
                let t0 = m2.sim.now();
                for _ in 0..100 {
                    m2.read_u32(0, local).await;
                }
                done2.set(true);
                m2.sim.now() - t0
            });
            let mut h = h;
            sim.run();
            h.try_take().unwrap()
        }
        let alone = run(0);
        let contended = run(32);
        assert_eq!(alone, 100 * 800);
        assert!(
            contended > alone * 2,
            "32 remote spinners must slow local work well beyond 2x \
             (alone={alone}, contended={contended})"
        );
    }

    #[test]
    fn compute_charges_cpu_time() {
        let (sim, m) = boot(4);
        let m2 = m.clone();
        sim.block_on(async move {
            m2.compute(2, 10_000).await;
        });
        assert_eq!(sim.now(), 10_000);
        let st = m.cpu_resource(2).stats();
        assert_eq!(st.busy_ns, 10_000);
    }

    #[test]
    fn remote_ref_to_crashed_node_fails_after_detect_time() {
        let (sim, m) = boot(16);
        let a = m.node(5).alloc(64).unwrap();
        m.node(5).set_up(false);
        let m2 = m.clone();
        sim.block_on(async move {
            let t0 = m2.sim.now();
            let r = m2.try_read_u32(0, a).await;
            assert_eq!(r, Err(MachineError::NodeDown { node: 5 }));
            // remote_issue (1100) + fault_detect (10000); the switch and
            // memory legs never happen.
            assert_eq!(m2.sim.now() - t0, 1_100 + 10_000);
        });
    }

    #[test]
    fn crashed_issuer_fails_immediately() {
        let (sim, m) = boot(16);
        let a = m.node(1).alloc(64).unwrap();
        m.node(3).set_up(false);
        let m2 = m.clone();
        sim.block_on(async move {
            let r = m2.try_write_u32(3, a, 7).await;
            assert_eq!(r, Err(MachineError::NodeDown { node: 3 }));
            assert_eq!(m2.sim.now(), 0, "a dead processor charges no time");
            let r = m2.try_compute(3, 1_000).await;
            assert_eq!(r, Err(MachineError::NodeDown { node: 3 }));
        });
    }

    #[test]
    fn downed_link_surfaces_as_link_down() {
        let (sim, m) = boot(16);
        let a = m.node(5).alloc(64).unwrap();
        let (stage, port) = m.switch.route(0, 5)[0];
        m.switch.set_link_up(stage, port, false);
        let m2 = m.clone();
        sim.block_on(async move {
            let r = m2.try_read_u32(0, a).await;
            assert_eq!(r, Err(MachineError::LinkDown { stage, port }));
        });
    }

    #[test]
    fn recovered_node_serves_again_and_memory_survives() {
        let (sim, m) = boot(16);
        let a = m.node(5).alloc(64).unwrap();
        m.poke_u32(a, 42);
        m.node(5).set_up(false);
        let m2 = m.clone();
        sim.block_on(async move {
            assert!(m2.try_read_u32(0, a).await.is_err());
            m2.node(5).set_up(true);
            assert_eq!(m2.try_read_u32(0, a).await, Ok(42));
        });
    }

    #[test]
    fn failed_atomic_leaves_word_untouched() {
        let (sim, m) = boot(16);
        let ctr = m.node(5).alloc(4).unwrap();
        m.poke_u32(ctr, 9);
        m.node(5).set_up(false);
        let m2 = m.clone();
        sim.block_on(async move {
            assert!(m2.try_fetch_add_u32(0, ctr, 1).await.is_err());
        });
        assert_eq!(m.peek_u32(ctr), 9);
    }

    #[test]
    fn install_faults_drives_crash_and_recovery() {
        let (sim, m) = boot(16);
        let a = m.node(5).alloc(4).unwrap();
        m.poke_u32(a, 1);
        let mut plan = FaultPlan::new(0);
        plan.push(10_000, FaultKind::NodeCrash { node: 5 });
        plan.push(100_000, FaultKind::NodeRecover { node: 5 });
        m.install_faults(&plan);
        let m2 = m.clone();
        let h = sim.spawn(async move {
            // Before the crash: fine.
            let before = m2.try_read_u32(0, a).await;
            m2.sim.sleep_until(20_000).await;
            let during = m2.try_read_u32(0, a).await;
            m2.sim.sleep_until(150_000).await;
            let after = m2.try_read_u32(0, a).await;
            (before, during, after)
        });
        sim.run();
        let mut h = h;
        let (before, during, after) = h.try_take().unwrap();
        assert_eq!(before, Ok(1));
        assert_eq!(during, Err(MachineError::NodeDown { node: 5 }));
        assert_eq!(after, Ok(1));
    }

    #[test]
    fn fault_free_timing_is_identical_with_fault_plumbing() {
        // The legacy fixed-latency assertions elsewhere in this module
        // already pin fault-free costs; this pins that an *empty* plan
        // changes nothing either.
        let (sim, m) = boot(16);
        m.install_faults(&FaultPlan::new(7));
        let a = m.node(0).alloc(4).unwrap();
        let m2 = m.clone();
        sim.block_on(async move {
            m2.write_u32(0, a, 3).await;
        });
        assert_eq!(sim.now(), 800);
    }

    #[test]
    fn copy_block_streams_large_regions() {
        let (sim, m) = boot(4);
        let src = m.node(1).alloc(10_000).unwrap();
        let dst = m.node(2).alloc(10_000).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        m.poke(src, &data);
        let m2 = m.clone();
        sim.block_on(async move {
            m2.copy_block(3, dst, src, 10_000).await;
        });
        let mut out = vec![0u8; 10_000];
        m.peek(dst, &mut out);
        assert_eq!(out, data);
    }
}
