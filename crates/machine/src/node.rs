//! A processing node: CPU, memory unit, backing bytes, and a first-fit
//! physical allocator.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bfly_sim::{Resource, Sim};

use crate::addr::{GAddr, NodeId};

/// One Butterfly processing node.
pub struct Node {
    /// This node's index.
    pub id: NodeId,
    /// The MC68000: one server; every local compute step and every memory
    /// reference issued *by* this node holds it (processors stall on
    /// references).
    pub cpu: Resource,
    /// The memory unit: one server shared by local references and incoming
    /// remote references — the mechanism behind "remote references steal
    /// memory cycles from the local processor" (§2.1).
    pub mem: Resource,
    /// Configured memory size; every access is checked against it.
    mem_bytes: u32,
    /// Backing bytes up to the highest byte ever stored. It starts empty
    /// and grows on demand; bytes past its end read as zero, exactly as
    /// the never-written bytes of a zero-filled memory would.
    data: RefCell<Vec<u8>>,
    alloc: RefCell<FirstFit>,
    /// Count of references this node's memory served for remote nodes.
    pub remote_refs_in: Cell<u64>,
    /// Count of references this node's processor issued to remote memories.
    pub remote_refs_out: Cell<u64>,
    /// Count of local references issued by this node.
    pub local_refs: Cell<u64>,
    /// Availability: a crashed node rejects all PNC traffic (its memory
    /// contents survive, matching a hung-but-powered Butterfly node).
    up: Cell<bool>,
    /// Shared with the owning `Machine`: latches true the first time any
    /// node's availability is touched, so the machine can keep using its
    /// fused-delay network fast path for the (overwhelmingly common)
    /// fault-free runs. See `Machine::fused_net`.
    fault_latch: Rc<Cell<bool>>,
}

impl Node {
    pub(crate) fn new(
        sim: &Sim,
        id: NodeId,
        mem_bytes: u32,
        fault_latch: Rc<Cell<bool>>,
    ) -> Rc<Node> {
        Rc::new(Node {
            id,
            cpu: Resource::new(sim, format!("cpu{id}"), 1),
            mem: Resource::new(sim, format!("mem{id}"), 1),
            mem_bytes,
            data: RefCell::new(Vec::new()),
            alloc: RefCell::new(FirstFit::new(mem_bytes)),
            remote_refs_in: Cell::new(0),
            remote_refs_out: Cell::new(0),
            local_refs: Cell::new(0),
            up: Cell::new(true),
            fault_latch,
        })
    }

    /// Size of this node's memory in bytes.
    pub fn mem_bytes(&self) -> u32 {
        self.mem_bytes
    }

    /// True while the node is in service.
    pub fn is_up(&self) -> bool {
        self.up.get()
    }

    /// Crash or recover the node (fault injection).
    pub fn set_up(&self, up: bool) {
        self.fault_latch.set(true);
        self.up.set(up);
    }

    /// Allocate `size` bytes of this node's physical memory (8-byte aligned).
    /// Returns `None` when memory is exhausted. Allocation bookkeeping is
    /// instantaneous; the *operating system* charges time for it.
    pub fn alloc(self: &Rc<Self>, size: u32) -> Option<GAddr> {
        let off = self.alloc.borrow_mut().alloc(size)?;
        Some(GAddr::new(self.id, off))
    }

    /// Free a previously allocated region.
    pub fn free(&self, addr: GAddr, size: u32) {
        assert_eq!(addr.node, self.id, "freeing address on wrong node");
        self.alloc.borrow_mut().free(addr.offset, size);
    }

    /// Bytes currently allocated on this node.
    pub fn allocated_bytes(&self) -> u32 {
        self.alloc.borrow().allocated
    }

    // ---- raw data access (no cost; the Machine charges cost) ----

    pub(crate) fn load(&self, offset: u32, out: &mut [u8]) {
        let data = self.data.borrow();
        let start = offset as usize;
        let end = start + out.len();
        assert!(
            end <= self.mem_bytes as usize,
            "simulated bus error: load [{start:#x}..{end:#x}) beyond node {} memory",
            self.id
        );
        let written = data.get(start..).unwrap_or_default();
        let n = written.len().min(out.len());
        out[..n].copy_from_slice(&written[..n]);
        out[n..].fill(0);
    }

    pub(crate) fn store(&self, offset: u32, src: &[u8]) {
        let mut data = self.data.borrow_mut();
        let start = offset as usize;
        let end = start + src.len();
        assert!(
            end <= self.mem_bytes as usize,
            "simulated bus error: store [{start:#x}..{end:#x}) beyond node {} memory",
            self.id
        );
        if end > data.len() {
            data.resize(end, 0);
        }
        data[start..end].copy_from_slice(src);
    }
}

/// A first-fit free-list allocator with coalescing — the same discipline as
/// the Chrysalis/Uniform System storage allocators the paper discusses
/// (parallel first-fit allocation, ref \[20\], is built on this shape).
struct FirstFit {
    /// Sorted list of free `(offset, size)` runs.
    free: Vec<(u32, u32)>,
    allocated: u32,
}

const ALIGN: u32 = 8;

impl FirstFit {
    fn new(total: u32) -> Self {
        FirstFit {
            free: vec![(0, total)],
            allocated: 0,
        }
    }

    fn alloc(&mut self, size: u32) -> Option<u32> {
        let size = size.max(1).div_ceil(ALIGN) * ALIGN;
        for i in 0..self.free.len() {
            let (off, run) = self.free[i];
            if run >= size {
                if run == size {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + size, run - size);
                }
                self.allocated += size;
                return Some(off);
            }
        }
        None
    }

    fn free(&mut self, offset: u32, size: u32) {
        let size = size.max(1).div_ceil(ALIGN) * ALIGN;
        self.allocated -= size;
        let idx = self.free.partition_point(|&(o, _)| o < offset);
        self.free.insert(idx, (offset, size));
        // Coalesce with successor, then predecessor.
        if idx + 1 < self.free.len() {
            let (o, s) = self.free[idx];
            let (no, ns) = self.free[idx + 1];
            assert!(
                o + s <= no,
                "double free or overlapping free at {offset:#x}"
            );
            if o + s == no {
                self.free[idx] = (o, s + ns);
                self.free.remove(idx + 1);
            }
        }
        if idx > 0 {
            let (po, ps) = self.free[idx - 1];
            let (o, s) = self.free[idx];
            assert!(
                po + ps <= o,
                "double free or overlapping free at {offset:#x}"
            );
            if po + ps == o {
                self.free[idx - 1] = (po, ps + s);
                self.free.remove(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut ff = FirstFit::new(1024);
        let a = ff.alloc(100).unwrap();
        let b = ff.alloc(100).unwrap();
        assert_ne!(a, b);
        ff.free(a, 100);
        ff.free(b, 100);
        assert_eq!(ff.free.len(), 1, "must coalesce back to one run");
        assert_eq!(ff.free[0], (0, 1024));
        assert_eq!(ff.allocated, 0);
    }

    #[test]
    fn first_fit_reuses_earliest_hole() {
        let mut ff = FirstFit::new(1024);
        let a = ff.alloc(128).unwrap();
        let _b = ff.alloc(128).unwrap();
        ff.free(a, 128);
        let c = ff.alloc(64).unwrap();
        assert_eq!(c, a, "first fit must take the earliest hole");
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut ff = FirstFit::new(256);
        assert!(ff.alloc(200).is_some());
        assert!(ff.alloc(200).is_none());
    }

    #[test]
    fn alignment_is_respected() {
        let mut ff = FirstFit::new(1024);
        let a = ff.alloc(5).unwrap();
        let b = ff.alloc(5).unwrap();
        assert_eq!(a % ALIGN, 0);
        assert_eq!(b % ALIGN, 0);
        assert!(b - a >= 8);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut ff = FirstFit::new(1024);
        let a = ff.alloc(64).unwrap();
        ff.allocated += 64; // keep the counter from underflowing first
        ff.free(a, 64);
        ff.free(a, 64);
    }

    #[test]
    fn node_store_load_roundtrip() {
        let sim = Sim::new();
        let node = Node::new(&sim, 3, 4096, Default::default());
        node.store(100, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        node.load(100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "bus error")]
    fn out_of_range_load_is_bus_error() {
        let sim = Sim::new();
        let node = Node::new(&sim, 0, 64, Default::default());
        let mut buf = [0u8; 8];
        node.load(60, &mut buf);
    }

    #[test]
    #[should_panic(expected = "simulated bus error")]
    fn load_one_byte_past_memory_is_bus_error() {
        let sim = Sim::new();
        let node = Node::new(&sim, 0, 1 << 20, Default::default());
        // Fully backed, so only the configured size can refuse the load.
        node.store((1 << 20) - 1, &[1]);
        let mut buf = [0u8; 4];
        node.load((1 << 20) - 3, &mut buf);
    }

    #[test]
    #[should_panic(expected = "simulated bus error")]
    fn store_one_byte_past_memory_is_bus_error() {
        let sim = Sim::new();
        let node = Node::new(&sim, 0, 1 << 20, Default::default());
        node.store((1 << 20) - 3, &[1, 2, 3, 4]);
    }

    #[test]
    fn fresh_machine_holds_no_backing_bytes() {
        let sim = Sim::new();
        let m = crate::Machine::new(&sim, crate::MachineConfig::rochester());
        for id in 0..m.nodes() {
            let node = m.node(id);
            assert_eq!(node.mem_bytes(), 1 << 20);
            assert_eq!(node.data.borrow().capacity(), 0, "node {id}");
        }
        // Storing the last byte backs the node up to it, and no further.
        let node = m.node(5);
        node.store((1 << 20) - 1, &[7]);
        assert_eq!(node.data.borrow().len(), 1 << 20);
        let mut buf = [9u8; 2];
        node.load((1 << 20) - 2, &mut buf);
        assert_eq!(buf, [0, 7]);
    }

    #[test]
    fn node_alloc_tracks_usage() {
        let sim = Sim::new();
        let node = Node::new(&sim, 0, 4096, Default::default());
        let a = node.alloc(1000).unwrap();
        assert_eq!(a.node, 0);
        assert!(node.allocated_bytes() >= 1000);
        node.free(a, 1000);
        assert_eq!(node.allocated_bytes(), 0);
    }
}
