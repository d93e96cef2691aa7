//! Scattered matrices: the standard Uniform System data layout for the
//! Gaussian-elimination and vision experiments.
//!
//! Rows are placed round-robin over a configurable set of memory nodes —
//! either all 128 (the §4.1 recommendation, >30 % faster) or a few (the
//! contended baseline). Row access offers both the naive per-element path
//! and the block-copy ("cache in local memory") path.

use std::rc::Rc;

use bfly_chrysalis::Proc;
use bfly_machine::{GAddr, Machine, NodeId};
use bfly_sim::SimTime;

use crate::us::Us;

/// An `n × m` matrix of `f64`, scattered one row per memory node
/// (round-robin).
pub struct UsMatrix {
    machine: Rc<Machine>,
    /// Row base addresses.
    pub rows: Vec<GAddr>,
    /// Columns per row.
    pub cols: u32,
}

impl UsMatrix {
    /// Allocate an `n × m` matrix over the Uniform System's memory nodes
    /// (host-side, initialization time).
    pub fn new(us: &Us, n: u32, m: u32) -> UsMatrix {
        Self::scattered(&us.os.machine, us.memory_nodes(), n, m)
    }

    /// Allocate with explicit placement nodes.
    pub fn scattered(machine: &Rc<Machine>, nodes: &[NodeId], n: u32, m: u32) -> UsMatrix {
        let bytes = m * 8;
        assert!(bytes <= 64 << 10, "one row must fit a 64KB segment");
        let rows = (0..n)
            .map(|i| {
                let node = nodes[i as usize % nodes.len()];
                machine
                    .node(node)
                    .alloc(bytes)
                    .expect("matrix: node memory exhausted")
            })
            .collect();
        UsMatrix {
            machine: machine.clone(),
            rows,
            cols: m,
        }
    }

    /// Number of rows.
    pub fn n(&self) -> u32 {
        self.rows.len() as u32
    }

    /// Address of element `(i, j)`.
    pub fn at(&self, i: u32, j: u32) -> GAddr {
        debug_assert!(j < self.cols);
        self.rows[i as usize].add(j * 8)
    }

    /// Read one element (word references; possibly remote).
    pub async fn get(&self, p: &Proc, i: u32, j: u32) -> f64 {
        p.read_f64(self.at(i, j)).await
    }

    /// Write one element.
    pub async fn set(&self, p: &Proc, i: u32, j: u32, v: f64) {
        p.write_f64(self.at(i, j), v).await;
    }

    /// Update row `i`'s elements `cols` in place, word by word in shared
    /// memory: read each element `j`, compute for `flops` ns, write back
    /// `f(j, v)` of the value `v` read — the same references and holds as
    /// a [`get`](UsMatrix::get), `compute`, [`set`](UsMatrix::set) loop,
    /// which the executor runs without polling the task per word.
    pub async fn update_row(
        &self,
        p: &Proc,
        i: u32,
        cols: std::ops::Range<u32>,
        flops: SimTime,
        f: impl FnMut(u32, f64) -> f64 + 'static,
    ) {
        debug_assert!(cols.end <= self.cols);
        p.update_row(self.rows[i as usize], cols, flops, f).await;
    }

    /// Block-copy a row slice `[j0, j1)` into a local buffer — the §4.1
    /// caching idiom.
    pub async fn read_row(&self, p: &Proc, i: u32, j0: u32, j1: u32) -> Vec<f64> {
        let len = ((j1 - j0) * 8) as usize;
        let mut bytes = vec![0u8; len];
        p.read_block(self.at(i, j0), &mut bytes).await;
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Block-write a row slice back from a local buffer.
    pub async fn write_row(&self, p: &Proc, i: u32, j0: u32, vals: &[f64]) {
        let mut bytes = Vec::with_capacity(vals.len() * 8);
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        p.write_block(self.at(i, j0), &bytes).await;
    }

    /// Host-side initialization of the whole matrix from a row-major slice.
    pub fn load(&self, data: &[f64]) {
        assert_eq!(data.len() as u32, self.n() * self.cols);
        for i in 0..self.n() {
            for j in 0..self.cols {
                self.machine
                    .poke_f64(self.at(i, j), data[(i * self.cols + j) as usize]);
            }
        }
    }

    /// Host-side dump to a row-major vector.
    pub fn dump(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity((self.n() * self.cols) as usize);
        for i in 0..self.n() {
            for j in 0..self.cols {
                out.push(self.machine.peek_f64(self.at(i, j)));
            }
        }
        out
    }

    /// Host-side single-element read.
    pub fn peek(&self, i: u32, j: u32) -> f64 {
        self.machine.peek_f64(self.at(i, j))
    }

    /// Host-side single-element write.
    pub fn poke(&self, i: u32, j: u32, v: f64) {
        self.machine.poke_f64(self.at(i, j), v);
    }

    /// Free the matrix storage.
    pub fn release(self) {
        for r in &self.rows {
            self.machine.node(r.node).free(*r, self.cols * 8);
        }
    }

    /// How many distinct nodes hold rows (placement diagnostics).
    pub fn nodes_used(&self) -> usize {
        let mut set: Vec<u16> = self.rows.iter().map(|r| r.node).collect();
        set.sort_unstable();
        set.dedup();
        set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_chrysalis::Os;
    use bfly_machine::MachineConfig;
    use bfly_sim::Sim;

    fn boot(nodes: u16) -> (Sim, Rc<Os>, Rc<Machine>) {
        let sim = Sim::new();
        let m = Machine::new(&sim, MachineConfig::small(nodes));
        (sim.clone(), Os::boot(&m), m)
    }

    #[test]
    fn rows_scatter_over_nodes() {
        let (_sim, _os, m) = boot(8);
        let nodes: Vec<NodeId> = (0..8).collect();
        let mat = UsMatrix::scattered(&m, &nodes, 16, 8);
        assert_eq!(mat.nodes_used(), 8);
        let packed = UsMatrix::scattered(&m, &[0, 1], 16, 8);
        assert_eq!(packed.nodes_used(), 2);
    }

    #[test]
    fn element_and_block_paths_agree() {
        let (sim, os, m) = boot(4);
        let nodes: Vec<NodeId> = (0..4).collect();
        let mat = Rc::new(UsMatrix::scattered(&m, &nodes, 4, 16));
        let data: Vec<f64> = (0..64).map(|x| x as f64 * 0.5).collect();
        mat.load(&data);
        let mat2 = mat.clone();
        os.boot_process(0, "t", move |p| async move {
            let row = mat2.read_row(&p, 2, 0, 16).await;
            for (j, &v) in row.iter().enumerate() {
                let e = mat2.get(&p, 2, j as u32).await;
                assert_eq!(e, v);
                assert_eq!(v, (32 + j) as f64 * 0.5);
            }
            let modified: Vec<f64> = row.iter().map(|v| v * 2.0).collect();
            mat2.write_row(&p, 2, 0, &modified).await;
        });
        sim.run();
        assert_eq!(mat.peek(2, 3), 35.0);
    }

    #[test]
    fn load_dump_roundtrip() {
        let (_sim, _os, m) = boot(4);
        let nodes: Vec<NodeId> = (0..4).collect();
        let mat = UsMatrix::scattered(&m, &nodes, 5, 7);
        let data: Vec<f64> = (0..35).map(|x| (x * x) as f64).collect();
        mat.load(&data);
        assert_eq!(mat.dump(), data);
        mat.release();
    }

    #[test]
    #[should_panic(expected = "64KB segment")]
    fn oversized_row_rejected() {
        let (_sim, _os, m) = boot(2);
        let _ = UsMatrix::scattered(&m, &[0], 1, 10_000);
    }
}
