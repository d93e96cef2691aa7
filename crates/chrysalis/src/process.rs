//! Heavyweight Chrysalis processes and their segmented address spaces.
//!
//! A process is "a conventional heavyweight entity with its own address
//! space" (§2.2): it is created on a node, never migrates, and owns a block
//! of SARs mapping up to 256 segments of ≤64 KB each. Mapping or unmapping
//! a segment costs over a millisecond, which is why every higher layer in
//! this workspace (SMP's SAR cache, the Uniform System's large regular
//! segments) contorts itself to avoid map operations.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use bfly_machine::{GAddr, MachineError, NodeId, SarBlock};
use bfly_sim::time::SimTime;

use crate::objects::{ObjId, ObjKind, Owner};
use crate::os::{MemObj, Os};
use crate::throw::{KResult, Throw};

/// Default SAR block size for a new process (max segments it can ever map).
pub const DEFAULT_SAR_BLOCK: u16 = 64;

/// A virtual address within a process: 8-bit segment, 16-bit offset (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VAddr {
    /// Segment number (index into the process's SAR block).
    pub seg: u8,
    /// Offset within the segment.
    pub off: u16,
}

/// A heavyweight process. Application code receives an `Rc<Proc>` and issues
/// all memory/OS operations through it (so costs are charged to the right
/// processor).
pub struct Proc {
    /// The OS this process runs under.
    pub os: Rc<Os>,
    /// Process object id.
    pub id: ObjId,
    /// Home node — processes do not migrate.
    pub node: NodeId,
    /// Diagnostic name.
    pub name: String,
    sar_block: Option<SarBlock>,
    segments: RefCell<Vec<Option<MemObj>>>,
}

impl Proc {
    /// Register a process object and its SAR block (no time charged; the
    /// caller charges creation costs as appropriate).
    pub(crate) fn register(os: &Rc<Os>, node: NodeId, name: &str) -> Rc<Proc> {
        Self::register_sized(os, node, name, DEFAULT_SAR_BLOCK)
    }

    pub(crate) fn register_sized(
        os: &Rc<Os>,
        node: NodeId,
        name: &str,
        sar_block_size: u16,
    ) -> Rc<Proc> {
        let id = os
            .objects
            .borrow_mut()
            .insert(ObjKind::Process, Owner::System, node, None);
        let sar_block = os.sar_files[node as usize]
            .borrow_mut()
            .alloc_block(sar_block_size);
        os.procs_created.set(os.procs_created.get() + 1);
        let nsegs = sar_block.map_or(0, |b| b.size as usize);
        Rc::new(Proc {
            os: os.clone(),
            id,
            node,
            name: name.to_string(),
            sar_block,
            segments: RefCell::new(vec![None; nsegs]),
        })
    }

    /// Maximum segments this process can have mapped at once.
    pub fn max_segments(&self) -> u16 {
        self.sar_block.map_or(0, |b| b.size)
    }

    /// Number of currently mapped segments.
    pub fn mapped_segments(&self) -> u16 {
        self.segments.borrow().iter().flatten().count() as u16
    }

    // ------------------------------------------------------------------
    // Kernel calls (charge OS costs on this process's CPU)
    // ------------------------------------------------------------------

    /// Create a memory object on `node` owned by this process
    /// (kernel call: charges `make_obj`).
    pub async fn make_obj(&self, node: NodeId, size: u32) -> KResult<MemObj> {
        self.compute(self.os.costs.make_obj).await;
        self.os.make_obj_raw(node, size, Owner::Obj(self.id))
    }

    /// Create a memory object on this process's own node.
    pub async fn make_local_obj(&self, size: u32) -> KResult<MemObj> {
        self.make_obj(self.node, size).await
    }

    /// Map a memory object into the first free segment slot
    /// (over 1 ms, §2.1). Returns the segment number.
    pub async fn map_obj(&self, obj: &MemObj) -> KResult<u8> {
        self.compute(self.os.costs.map_seg).await;
        let mut segs = self.segments.borrow_mut();
        let slot = segs
            .iter()
            .position(|s| s.is_none())
            .ok_or_else(|| Throw::new(Throw::E_NO_SAR))?;
        segs[slot] = Some(*obj);
        Ok(slot as u8)
    }

    /// Map *any* object by name — the §2.2 protection loophole, reproduced
    /// deliberately: no ownership check is performed.
    pub async fn map_any(&self, id: ObjId) -> KResult<u8> {
        let obj = self
            .os
            .lookup_obj(id)
            .ok_or_else(|| Throw::new(Throw::E_NO_OBJ))?;
        self.map_obj(&obj).await
    }

    /// Unmap a segment (also over 1 ms).
    pub async fn unmap_seg(&self, seg: u8) -> KResult<()> {
        self.compute(self.os.costs.map_seg).await;
        let mut segs = self.segments.borrow_mut();
        match segs.get_mut(seg as usize) {
            Some(s @ Some(_)) => {
                *s = None;
                Ok(())
            }
            _ => Err(Throw::new(Throw::E_BAD_SEG)),
        }
    }

    /// Translate a virtual address through the SAR file (free: done by the
    /// PNC on every reference).
    pub fn translate(&self, va: VAddr) -> KResult<GAddr> {
        let segs = self.segments.borrow();
        let obj = segs
            .get(va.seg as usize)
            .copied()
            .flatten()
            .ok_or_else(|| Throw::new(Throw::E_BAD_SEG))?;
        if va.off as u32 >= obj.size {
            return Err(Throw::new(Throw::E_BAD_SEG));
        }
        Ok(obj.addr.add(va.off as u32))
    }

    /// Create a child process on `on`, paying the full Chrysalis creation
    /// cost, part of it holding the system-wide serialized process template.
    pub async fn create_process<T, F, Fut>(
        &self,
        on: NodeId,
        name: &str,
        body: F,
    ) -> bfly_sim::JoinHandle<T>
    where
        T: 'static,
        F: FnOnce(Rc<Proc>) -> Fut + 'static,
        Fut: Future<Output = T> + 'static,
    {
        let costs = &self.os.costs;
        // Serialized phase: template access.
        let guard = self.os.template.acquire().await;
        self.compute(costs.template_hold).await;
        drop(guard);
        // Parallel phase: remainder of creation on the creator's CPU.
        self.compute(costs.create_process - costs.template_hold)
            .await;
        let proc_ = Proc::register(&self.os, on, name);
        self.os.sim().spawn_named(name, body(proc_))
    }

    /// Enter a protected block (catch). Charges the ~70 µs protected-block
    /// cost, runs `body`, and converts a `Throw` into `Err` after charging
    /// unwind time.
    pub async fn catch<T, Fut>(&self, body: Fut) -> KResult<T>
    where
        Fut: Future<Output = KResult<T>>,
    {
        self.compute(self.os.costs.catch_block).await;
        match body.await {
            Ok(v) => Ok(v),
            Err(t) => {
                self.compute(self.os.costs.throw_unwind).await;
                Err(t)
            }
        }
    }

    // ------------------------------------------------------------------
    // Hardware access (delegates to the machine with this node as issuer)
    // ------------------------------------------------------------------

    /// Charge local computation.
    pub async fn compute(&self, dur: SimTime) {
        self.os.machine.compute(self.node, dur).await;
    }

    /// Read a word.
    pub async fn read_u32(&self, a: GAddr) -> u32 {
        self.os.machine.read_u32(self.node, a).await
    }

    /// Write a word.
    pub async fn write_u32(&self, a: GAddr, v: u32) {
        self.os.machine.write_u32(self.node, a, v).await
    }

    /// Read a double.
    pub async fn read_f64(&self, a: GAddr) -> f64 {
        self.os.machine.read_f64(self.node, a).await
    }

    /// Write a double.
    pub async fn write_f64(&self, a: GAddr, v: f64) {
        self.os.machine.write_f64(self.node, a, v).await
    }

    /// Update words `cols` of the row of doubles at `row`: read each word
    /// `j`, compute for `flops` ns, write back `f(j, v)`
    /// ([`Machine::update_row`](bfly_machine::Machine::update_row)).
    pub async fn update_row(
        &self,
        row: GAddr,
        cols: std::ops::Range<u32>,
        flops: SimTime,
        f: impl FnMut(u32, f64) -> f64 + 'static,
    ) {
        self.os
            .machine
            .update_row(self.node, row, cols, flops, f)
            .await
    }

    /// Atomic fetch-and-add.
    pub async fn fetch_add(&self, a: GAddr, d: u32) -> u32 {
        self.os.machine.fetch_add_u32(self.node, a, d).await
    }

    /// Atomic test-and-set.
    pub async fn test_and_set(&self, a: GAddr) -> u32 {
        self.os.machine.test_and_set(self.node, a).await
    }

    /// Atomic store.
    pub async fn atomic_store(&self, a: GAddr, v: u32) {
        self.os.machine.atomic_store(self.node, a, v).await
    }

    /// Block read.
    pub async fn read_block(&self, a: GAddr, out: &mut [u8]) {
        self.os.machine.read_block(self.node, a, out).await
    }

    /// Block write.
    pub async fn write_block(&self, a: GAddr, src: &[u8]) {
        self.os.machine.write_block(self.node, a, src).await
    }

    // Fallible variants: same costs, but machine faults (crashed node,
    // downed switch link) surface as typed errors instead of panics.
    // Recovery layers (SMP retry, Bridge degraded reads) build on these.

    /// Fallible local computation (fails if this node has crashed).
    pub async fn try_compute(&self, dur: SimTime) -> Result<(), MachineError> {
        self.os.machine.try_compute(self.node, dur).await
    }

    /// Fallible word read.
    pub async fn try_read_u32(&self, a: GAddr) -> Result<u32, MachineError> {
        self.os.machine.try_read_u32(self.node, a).await
    }

    /// Fallible word write.
    pub async fn try_write_u32(&self, a: GAddr, v: u32) -> Result<(), MachineError> {
        self.os.machine.try_write_u32(self.node, a, v).await
    }

    /// Fallible block read.
    pub async fn try_read_block(&self, a: GAddr, out: &mut [u8]) -> Result<(), MachineError> {
        self.os.machine.try_read_block(self.node, a, out).await
    }

    /// Fallible block write.
    pub async fn try_write_block(&self, a: GAddr, src: &[u8]) -> Result<(), MachineError> {
        self.os.machine.try_write_block(self.node, a, src).await
    }

    /// Read a virtual address (translated through the SAR file).
    pub async fn read_v(&self, va: VAddr) -> KResult<u32> {
        let a = self.translate(va)?;
        Ok(self.read_u32(a).await)
    }

    /// Write a virtual address.
    pub async fn write_v(&self, va: VAddr, v: u32) -> KResult<()> {
        let a = self.translate(va)?;
        self.write_u32(a, v).await;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_machine::{Machine, MachineConfig};
    use bfly_sim::Sim;

    fn boot(nodes: u16) -> (Sim, Rc<Os>) {
        let sim = Sim::new();
        let m = Machine::new(&sim, MachineConfig::small(nodes));
        (sim.clone(), Os::boot(&m))
    }

    #[test]
    fn process_maps_and_accesses_segment() {
        let (sim, os) = boot(4);
        let mut h = os.boot_process(0, "t", |p| async move {
            let obj = p.make_local_obj(1000).await.unwrap();
            assert_eq!(obj.size, 1024, "rounded to standard size");
            let seg = p.map_obj(&obj).await.unwrap();
            p.write_v(VAddr { seg, off: 16 }, 0xBEEF).await.unwrap();
            p.read_v(VAddr { seg, off: 16 }).await.unwrap()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 0xBEEF);
    }

    #[test]
    fn map_charges_a_millisecond() {
        let (sim, os) = boot(4);
        os.boot_process(0, "t", |p| async move {
            let obj = p.make_local_obj(256).await.unwrap();
            let t0 = p.os.sim().now();
            let seg = p.map_obj(&obj).await.unwrap();
            let mapped = p.os.sim().now() - t0;
            assert!(mapped >= bfly_sim::MS, "map must cost >= 1ms, got {mapped}");
            p.unmap_seg(seg).await.unwrap();
        });
        sim.run();
    }

    #[test]
    fn segment_limit_throws_no_sar() {
        let (sim, os) = boot(4);
        let mut h = os.boot_process(0, "t", |p| async move {
            // Default block = 64 segments; map 64 then fail on the 65th.
            let obj = p.make_local_obj(256).await.unwrap();
            for _ in 0..64 {
                p.map_obj(&obj).await.unwrap();
            }
            p.map_obj(&obj).await.unwrap_err().code
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Throw::E_NO_SAR);
    }

    #[test]
    fn protection_loophole_lets_stranger_map() {
        let (sim, os) = boot(4);
        let os2 = os.clone();
        let mut h = os.boot_process(0, "victim", move |p| async move {
            let obj = p.make_local_obj(256).await.unwrap();
            p.write_u32(obj.addr, 7777).await;
            // Attacker on another node guesses the id.
            let ah = os2.boot_process(1, "attacker", move |q| async move {
                let seg = q.map_any(obj.id).await.unwrap();
                q.read_v(VAddr { seg, off: 0 }).await.unwrap()
            });
            // Let the attacker run; then return its result.
            ah.await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 7777);
    }

    #[test]
    fn catch_charges_and_converts_throws() {
        let (sim, os) = boot(2);
        let mut h = os.boot_process(0, "t", |p| async move {
            let t0 = p.os.sim().now();
            let r: KResult<u32> = p.catch(async { Ok(1) }).await;
            assert_eq!(r.unwrap(), 1);
            let ok_cost = p.os.sim().now() - t0;
            assert_eq!(ok_cost, 70 * bfly_sim::US);

            let r: KResult<u32> = p.catch(async { Err(Throw::new(42)) }).await;
            assert_eq!(r.unwrap_err().code, 42);
            p.os.sim().now() - t0
        });
        sim.run();
        let total = h.try_take().unwrap();
        assert_eq!(total, 70_000 + 70_000 + 35_000);
    }

    #[test]
    fn child_creation_serializes_on_template() {
        let (sim, os) = boot(8);
        // Two creators create one child each, starting simultaneously.
        let handles: Vec<_> = (0..2u16)
            .map(|i| {
                os.boot_process(i, &format!("creator{i}"), move |p| async move {
                    let _child = p
                        .create_process(4 + i, "child", |c| async move {
                            c.compute(1).await;
                        })
                        .await;
                    p.os.sim().now()
                })
            })
            .collect();
        sim.run();
        let times: Vec<u64> = handles
            .into_iter()
            .map(|mut h| h.try_take().unwrap())
            .collect();
        // One creator finished at 12ms, the other had to wait 8ms for the
        // template: 20ms.
        let (a, b) = (times[0].min(times[1]), times[0].max(times[1]));
        assert_eq!(a, 12 * bfly_sim::MS);
        assert_eq!(b, 20 * bfly_sim::MS);
        assert_eq!(os.procs_created(), 4);
    }

    #[test]
    fn too_big_object_is_rejected() {
        let (sim, os) = boot(2);
        let mut h = os.boot_process(0, "t", |p| async move {
            p.make_local_obj(70_000).await.unwrap_err().code
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Throw::E_TOO_BIG);
    }

    #[test]
    fn crash_process_reclaims_subtree_but_not_system_objects() {
        let (sim, os) = boot(4);
        let os2 = os.clone();
        os.boot_process(0, "victim", move |p| async move {
            let before = p.os.machine.node(0).allocated_bytes();
            let keep = p.make_local_obj(1024).await.unwrap();
            let lose = p.make_local_obj(2048).await.unwrap();
            p.os.give_to_system(keep.id);
            let reclaimed = os2.crash_process(p.id);
            assert_eq!(reclaimed, 2, "the process and its owned object");
            assert_eq!(
                p.os.machine.node(0).allocated_bytes(),
                before + 1024,
                "system-owned object survives the crash; the rest is freed"
            );
            assert!(p.os.lookup_obj(lose.id).is_none());
            assert!(
                p.os.leak_report().contains(&keep.id),
                "the survivor is an orphan the leak census must see"
            );
            assert_eq!(os2.crash_process(keep.id), 0, "not a process: no-op");
        });
        sim.run();
    }

    #[test]
    fn delete_process_reclaims_memory_objects() {
        let (sim, os) = boot(2);
        let os2 = os.clone();
        os.boot_process(0, "t", move |p| async move {
            let before = p.os.machine.node(0).allocated_bytes();
            let _obj = p.make_local_obj(4096).await.unwrap();
            assert!(p.os.machine.node(0).allocated_bytes() > before);
            os2.delete_obj(p.id);
            assert_eq!(p.os.machine.node(0).allocated_bytes(), before);
        });
        sim.run();
    }
}
