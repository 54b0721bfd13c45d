//! Dual graph of the initial computational mesh.
//!
//! Tetrahedral elements are the dual vertices; a dual edge connects two
//! elements sharing a face. Partitioning the dual assigns tetrahedra to
//! processors. Crucially (§4.1), the dual of the *initial* mesh is used for
//! the entire adaptive computation, so repartitioning cost stays constant no
//! matter how large the adapted mesh grows: new grids are translated into two
//! weights per initial element — `wcomp` (leaves of the refinement tree, the
//! elements that actually compute) and `wremap` (total tree size, everything
//! that must move with the root).

use std::collections::HashMap;

use crate::ids::ElemId;
use crate::tetmesh::{TetMesh, LOCAL_FACE_VERTS};

/// CSR dual graph with the two per-vertex weight vectors from the paper.
#[derive(Debug, Clone)]
pub struct DualGraph {
    /// CSR row offsets (`nverts + 1` entries).
    pub xadj: Vec<u32>,
    /// CSR adjacency (dual vertex ids).
    pub adjncy: Vec<u32>,
    /// Computational weight per dual vertex: number of leaf elements in the
    /// corresponding refinement tree.
    pub wcomp: Vec<u64>,
    /// Remapping weight per dual vertex: total number of elements in the
    /// refinement tree (all descendants move with the root).
    pub wremap: Vec<u64>,
    /// Dual vertex → initial-mesh element.
    pub elem_of: Vec<ElemId>,
}

impl DualGraph {
    /// Number of dual vertices (= initial mesh elements).
    pub fn n(&self) -> usize {
        self.elem_of.len()
    }

    /// Neighbours of dual vertex `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjncy[self.xadj[v] as usize..self.xadj[v + 1] as usize]
    }

    /// Build the dual graph of `mesh`. All weights start at 1 (every initial
    /// element is its own leaf).
    pub fn build(mesh: &TetMesh) -> Self {
        let elems: Vec<ElemId> = mesh.elems().collect();
        let n = elems.len();
        let mut dual_idx: HashMap<ElemId, u32> = HashMap::with_capacity(n);
        for (i, &e) in elems.iter().enumerate() {
            dual_idx.insert(e, i as u32);
        }

        // Face key → first owner seen.
        let mut face_owner: HashMap<[u32; 3], u32> = HashMap::with_capacity(2 * n);
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(2 * n);
        for (i, &e) in elems.iter().enumerate() {
            let verts = mesh.elem_verts(e);
            for &(a, b, c) in &LOCAL_FACE_VERTS {
                let mut key = [verts[a].0, verts[b].0, verts[c].0];
                key.sort_unstable();
                match face_owner.remove(&key) {
                    Some(other) => pairs.push((other, i as u32)),
                    None => {
                        face_owner.insert(key, i as u32);
                    }
                }
            }
        }

        // Build CSR from the undirected pair list.
        let mut deg = vec![0u32; n];
        for &(a, b) in &pairs {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let mut xadj = vec![0u32; n + 1];
        for i in 0..n {
            xadj[i + 1] = xadj[i] + deg[i];
        }
        let mut cursor = xadj.clone();
        let mut adjncy = vec![0u32; pairs.len() * 2];
        for &(a, b) in &pairs {
            adjncy[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            adjncy[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }

        DualGraph {
            xadj,
            adjncy,
            wcomp: vec![1; n],
            wremap: vec![1; n],
            elem_of: elems,
        }
    }

    /// Consistency check: symmetric adjacency, no self-loops, weight vectors
    /// sized to the vertex count, and `wremap[v] ≥ wcomp[v]` (a tree has at
    /// least as many nodes as leaves).
    pub fn validate(&self) {
        let n = self.n();
        assert_eq!(self.xadj.len(), n + 1);
        assert_eq!(self.wcomp.len(), n);
        assert_eq!(self.wremap.len(), n);
        for v in 0..n {
            for &u in self.neighbors(v) {
                assert_ne!(u as usize, v, "self loop at {v}");
                assert!(
                    self.neighbors(u as usize).contains(&(v as u32)),
                    "asymmetric edge {v}→{u}"
                );
            }
            assert!(
                self.wremap[v] >= self.wcomp[v],
                "tree at {v} has more leaves than nodes"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::unit_box_mesh;

    #[test]
    fn dual_of_box_mesh() {
        let m = unit_box_mesh(2);
        let d = DualGraph::build(&m);
        d.validate();
        assert_eq!(d.n(), 48);
        // Interior faces each create exactly one dual edge:
        // 4*48 face slots, 48 boundary ⇒ (192-48)/2 = 72 dual edges.
        assert_eq!(d.adjncy.len() / 2, 72);
        // Max dual degree of a tet is 4.
        for v in 0..d.n() {
            assert!(d.neighbors(v).len() <= 4);
        }
    }

    #[test]
    fn dual_is_connected() {
        let m = unit_box_mesh(3);
        let d = DualGraph::build(&m);
        let n = d.n();
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 0;
        while let Some(v) = stack.pop() {
            count += 1;
            for &u in d.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    stack.push(u as usize);
                }
            }
        }
        assert_eq!(count, n, "dual graph of a box must be connected");
    }

    #[test]
    fn initial_weights_are_unit() {
        let m = unit_box_mesh(2);
        let d = DualGraph::build(&m);
        assert_eq!(d.wcomp.iter().sum::<u64>(), 48);
        assert_eq!(d.wremap.iter().sum::<u64>(), 48);
    }
}
