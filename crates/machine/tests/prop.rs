//! Property-based tests for the machine model: allocator soundness, SAR
//! buddy conservation, switch routing totality, and memory data integrity
//! under arbitrary concurrent access patterns.

use bfly_machine::{Costs, GAddr, Machine, MachineConfig, SarBlock, SarFile, SwitchModel};
use bfly_sim::Sim;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Node allocator: arbitrary alloc/free interleavings never hand out
    /// overlapping regions, and freeing everything restores the arena.
    #[test]
    fn node_allocator_no_overlap_full_reclaim(
        ops in proptest::collection::vec((1u32..2000, any::<bool>()), 1..60)
    ) {
        let sim = Sim::new();
        let m = Machine::new(&sim, MachineConfig::small(1));
        let node = m.node(0);
        let mut live: Vec<(GAddr, u32)> = Vec::new();
        for (size, free_first) in ops {
            if free_first && !live.is_empty() {
                let (a, s) = live.swap_remove(0);
                node.free(a, s);
            }
            if let Some(a) = node.alloc(size) {
                // No overlap with any live allocation (8-byte granules).
                let lo = a.offset;
                let hi = a.offset + size.max(1).div_ceil(8) * 8;
                for &(b, bs) in &live {
                    let blo = b.offset;
                    let bhi = b.offset + bs.max(1).div_ceil(8) * 8;
                    prop_assert!(hi <= blo || bhi <= lo, "overlap {a} {b}");
                }
                live.push((a, size));
            }
        }
        for (a, s) in live.drain(..) {
            node.free(a, s);
        }
        prop_assert_eq!(node.allocated_bytes(), 0);
    }

    /// SAR buddy allocator conserves registers across arbitrary legal
    /// alloc/free sequences.
    #[test]
    fn sar_buddy_conserves(
        ops in proptest::collection::vec((0usize..6, any::<bool>()), 1..80)
    ) {
        let sizes = [8u16, 16, 32, 64, 128, 256];
        let mut f = SarFile::new();
        let mut held: Vec<SarBlock> = Vec::new();
        for (k, free_one) in ops {
            if free_one && !held.is_empty() {
                let b = held.swap_remove(0);
                f.free_block(b);
            } else if let Some(b) = f.alloc_block(sizes[k]) {
                held.push(b);
            }
            let held_sum: u16 = held.iter().map(|b| b.size).sum();
            prop_assert_eq!(f.free_sars() + held_sum, 512, "SARs must be conserved");
        }
        for b in held.drain(..) {
            f.free_block(b);
        }
        prop_assert_eq!(f.free_sars(), 512);
        // Full coalescing: two 256-blocks must fit again.
        prop_assert!(f.alloc_block(256).is_some());
        prop_assert!(f.alloc_block(256).is_some());
    }

    /// Switch routing: every (src, dst) pair routes in exactly `stages`
    /// hops with in-range ports, for every machine size.
    #[test]
    fn switch_routes_all_pairs(nodes in 1u16..=256) {
        let sim = Sim::new();
        let sw = bfly_machine::switch::Switch::new(
            &sim, nodes, SwitchModel::Detailed, &Costs::butterfly_one());
        // Sample pairs rather than all 65k.
        let step = (nodes as usize / 16).max(1);
        for src in (0..nodes).step_by(step) {
            for dst in (0..nodes).step_by(step) {
                let path = sw.route(src, dst);
                prop_assert_eq!(path.len() as u32, sw.stages);
                for (s, p) in path {
                    prop_assert!(s < sw.stages);
                    prop_assert!(p < sw.width);
                }
            }
        }
    }

    /// Data written through simulated references always reads back, even
    /// with many concurrent writers to distinct addresses.
    #[test]
    fn memory_is_faithful_under_concurrency(
        writes in proptest::collection::vec((0u16..8, 0u32..64, any::<u32>()), 1..40)
    ) {
        let sim = Sim::new();
        let m = Machine::new(&sim, MachineConfig::small(8));
        // One 256-byte region per node.
        let bases: Vec<GAddr> = (0..8).map(|n| m.node(n).alloc(256).unwrap()).collect();
        // Last write to each cell wins; writes to the same cell are ordered
        // by task spawn since all start at t=0 through one FIFO memory.
        let mut expect = std::collections::HashMap::new();
        for (i, &(node, slot, val)) in writes.iter().enumerate() {
            let addr = bases[node as usize].add(slot * 4);
            let m2 = m.clone();
            let s = sim.clone();
            let t = i as u64; // distinct issue times => deterministic order
            sim.spawn(async move {
                s.sleep(t).await;
                m2.write_u32((node + 1) % 8, addr, val).await;
            });
            expect.insert((node, slot), val);
        }
        sim.run();
        for ((node, slot), val) in expect {
            prop_assert_eq!(m.peek_u32(bases[node as usize].add(slot * 4)), val);
        }
    }

    /// Lazily backed node memory reads exactly like a dense zero-filled
    /// one: random host and simulated loads and stores (many straddling
    /// the high-water mark of bytes written so far, or ending on a node's
    /// last byte) return the same bytes as a full-size reference array.
    #[test]
    fn lazy_memory_matches_dense_reference(
        ops in proptest::collection::vec(
            (0u8..6, 0u16..2, any::<bool>(), any::<u32>(), 1u32..=64, any::<u64>()),
            1..48,
        )
    ) {
        const MEM: u32 = 1024;
        let sim = Sim::new();
        let m = Machine::new(&sim, MachineConfig::small(2).with_mem(MEM));
        let mut dense = vec![vec![0u8; MEM as usize]; 2];
        let mut expect_loads: Vec<Vec<u8>> = Vec::new();
        let mut plan = Vec::new();
        for (kind, node, near_end, raw, len, fill) in ops {
            let len = if matches!(kind, 2 | 3) { 4 } else { len };
            let off = if near_end {
                MEM - len - raw % 8
            } else {
                raw % (MEM - len + 1)
            };
            let bytes: Vec<u8> = (0..len)
                .map(|i| (fill >> (i % 8 * 8)) as u8 ^ i as u8)
                .collect();
            let cell = &mut dense[node as usize][off as usize..(off + len) as usize];
            if kind % 2 == 0 {
                cell.copy_from_slice(&bytes);
            } else {
                expect_loads.push(cell.to_vec());
            }
            plan.push((kind, GAddr::new(node, off), len, bytes));
        }

        // Every op in issue order from one task: 0/1 host poke/peek,
        // 2/3 simulated word write/read, 4/5 simulated block write/read.
        let loads = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let (m2, out) = (m.clone(), loads.clone());
        sim.spawn(async move {
            for (kind, addr, len, bytes) in plan {
                let from = 1 - addr.node;
                // Stale bytes in the caller's buffer must be overwritten.
                let mut buf = vec![0xa5u8; len as usize];
                match kind {
                    0 => m2.poke(addr, &bytes),
                    1 => m2.peek(addr, &mut buf),
                    2 => {
                        let word = u32::from_le_bytes(bytes[..4].try_into().unwrap());
                        m2.write_u32(from, addr, word).await
                    }
                    3 => buf = m2.read_u32(from, addr).await.to_le_bytes().to_vec(),
                    4 => m2.write_block(from, addr, &bytes).await,
                    _ => m2.read_block(from, addr, &mut buf).await,
                }
                if kind % 2 == 1 {
                    out.borrow_mut().push(buf);
                }
            }
        });
        sim.run();
        prop_assert_eq!(&*loads.borrow(), &expect_loads);
        for (node, want) in dense.iter().enumerate() {
            let mut got = vec![0u8; MEM as usize];
            m.peek(GAddr::new(node as u16, 0), &mut got);
            prop_assert_eq!(&got, want);
        }
    }

    /// Remote/local cost ratio holds for any machine size: remote is
    /// strictly more expensive, and exactly 5x on the 128-node machine.
    #[test]
    fn cost_model_ratios(nodes in 2u16..=256) {
        let c = Costs::butterfly_one();
        let sim = Sim::new();
        let m = Machine::new(&sim, MachineConfig::small(nodes));
        let stages = m.switch.stages;
        prop_assert!(c.remote_word(stages) > c.local_word());
        if nodes > 64 {
            prop_assert_eq!(c.remote_word(stages), 5 * c.local_word());
        }
    }
}
