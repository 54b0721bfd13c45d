//! Weighted undirected graphs in CSR form.

use std::borrow::Cow;

/// An undirected graph in compressed-sparse-row form with vertex and edge
/// weights — the input to the multilevel partitioner (the dual graph of the
/// initial mesh, in PLUM's case).
///
/// The CSR arrays are [`Cow`]s so a graph can either own its storage
/// ([`Graph::from_csr`], the coarsening products) or borrow it in place from
/// an existing structure such as `DualGraph` ([`Graph::view`]). The balance
/// loop runs every adaption cycle; borrowing the dual CSR instead of cloning
/// three arrays per cycle is what [`Graph::view`] exists for. All
/// partitioning entry points take `&Graph`, so both forms flow through the
/// same code; writes (only done by tests and benchmarks that perturb
/// weights) go through [`Cow::to_mut`].
#[derive(Debug, Clone)]
pub struct Graph<'a> {
    /// Row offsets, `n + 1` entries.
    pub xadj: Cow<'a, [u32]>,
    /// Adjacency lists (each undirected edge appears twice).
    pub adjncy: Cow<'a, [u32]>,
    /// Edge weights, parallel to `adjncy`.
    pub adjwgt: Cow<'a, [u32]>,
    /// Vertex weights.
    pub vwgt: Cow<'a, [u64]>,
}

impl<'a> Graph<'a> {
    /// Build an owning graph from CSR arrays with unit edge weights.
    pub fn from_csr(xadj: Vec<u32>, adjncy: Vec<u32>, vwgt: Vec<u64>) -> Graph<'static> {
        let adjwgt = vec![1; adjncy.len()];
        let g = Graph {
            xadj: Cow::Owned(xadj),
            adjncy: Cow::Owned(adjncy),
            adjwgt: Cow::Owned(adjwgt),
            vwgt: Cow::Owned(vwgt),
        };
        debug_assert!(g.check().is_ok(), "{:?}", g.check());
        g
    }

    /// Borrow CSR arrays in place (unit edge weights). No copies of the
    /// topology or vertex weights are made; only the unit `adjwgt` array is
    /// materialized.
    pub fn view(xadj: &'a [u32], adjncy: &'a [u32], vwgt: &'a [u64]) -> Graph<'a> {
        let g = Graph {
            xadj: Cow::Borrowed(xadj),
            adjncy: Cow::Borrowed(adjncy),
            adjwgt: Cow::Owned(vec![1; adjncy.len()]),
            vwgt: Cow::Borrowed(vwgt),
        };
        debug_assert!(g.check().is_ok(), "{:?}", g.check());
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Neighbours of `v` with edge weights.
    #[inline]
    pub fn edges(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.xadj[v] as usize;
        let hi = self.xadj[v + 1] as usize;
        self.adjncy[lo..hi]
            .iter()
            .copied()
            .zip(self.adjwgt[lo..hi].iter().copied())
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.xadj[v + 1] - self.xadj[v]) as usize
    }

    /// Total vertex weight.
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Structural validation: symmetry, no self loops, sizes consistent.
    pub fn check(&self) -> Result<(), String> {
        let n = self.n();
        if self.vwgt.len() != n {
            return Err(format!("vwgt len {} ≠ n {n}", self.vwgt.len()));
        }
        if self.adjwgt.len() != self.adjncy.len() {
            return Err("adjwgt/adjncy length mismatch".into());
        }
        if *self.xadj.last().unwrap() as usize != self.adjncy.len() {
            return Err("xadj end mismatch".into());
        }
        for v in 0..n {
            if self.xadj[v] > self.xadj[v + 1] {
                return Err(format!("xadj not monotone at {v}"));
            }
            for (u, w) in self.edges(v) {
                if u as usize == v {
                    return Err(format!("self loop at {v}"));
                }
                if u as usize >= n {
                    return Err(format!("edge {v}→{u} out of range"));
                }
                // Symmetric edge with identical weight must exist.
                if !self
                    .edges(u as usize)
                    .any(|(x, xw)| x as usize == v && xw == w)
                {
                    return Err(format!("edge {v}→{u} (w={w}) not symmetric"));
                }
            }
        }
        Ok(())
    }

    /// Build an induced subgraph on the vertex set `verts` (given in the
    /// order that defines the new ids). Returns the subgraph; edges to
    /// vertices outside the set are dropped.
    pub fn induced(&self, verts: &[u32]) -> Graph<'static> {
        let mut new_id = vec![u32::MAX; self.n()];
        for (i, &v) in verts.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        let mut xadj = Vec::with_capacity(verts.len() + 1);
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        let mut vwgt = Vec::with_capacity(verts.len());
        xadj.push(0);
        for &v in verts {
            for (u, w) in self.edges(v as usize) {
                let nu = new_id[u as usize];
                if nu != u32::MAX {
                    adjncy.push(nu);
                    adjwgt.push(w);
                }
            }
            xadj.push(adjncy.len() as u32);
            vwgt.push(self.vwgt[v as usize]);
        }
        Graph {
            xadj: Cow::Owned(xadj),
            adjncy: Cow::Owned(adjncy),
            adjwgt: Cow::Owned(adjwgt),
            vwgt: Cow::Owned(vwgt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3.
    pub(crate) fn path4() -> Graph<'static> {
        Graph::from_csr(
            vec![0, 1, 3, 5, 6],
            vec![1, 0, 2, 1, 3, 2],
            vec![1, 1, 1, 1],
        )
    }

    #[test]
    fn path_graph_structure() {
        let g = path4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        g.check().unwrap();
    }

    #[test]
    fn check_catches_asymmetry() {
        let g = Graph {
            xadj: Cow::Owned(vec![0, 1, 1]),
            adjncy: Cow::Owned(vec![1]),
            adjwgt: Cow::Owned(vec![1]),
            vwgt: Cow::Owned(vec![1, 1]),
        };
        assert!(g.check().is_err());
    }

    #[test]
    fn view_borrows_without_copying_topology() {
        let xadj = vec![0u32, 1, 3, 5, 6];
        let adjncy = vec![1u32, 0, 2, 1, 3, 2];
        let vwgt = vec![2u64, 3, 4, 5];
        let v = Graph::view(&xadj, &adjncy, &vwgt);
        assert!(matches!(v.xadj, Cow::Borrowed(_)));
        assert!(matches!(v.adjncy, Cow::Borrowed(_)));
        assert!(matches!(v.vwgt, Cow::Borrowed(_)));
        assert_eq!(v.n(), 4);
        assert_eq!(v.m(), 3);
        assert_eq!(v.total_vwgt(), 14);
        v.check().unwrap();
        // The borrowed view sees exactly the same structure as the owned
        // graph built from clones of the same arrays.
        let owned = Graph::from_csr(xadj.clone(), adjncy.clone(), vwgt.clone());
        for vert in 0..v.n() {
            assert!(v.edges(vert).eq(owned.edges(vert)));
        }
    }

    #[test]
    fn induced_subgraph_drops_external_edges() {
        let g = path4();
        let sub = g.induced(&[1, 2]);
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.m(), 1);
        sub.check().unwrap();
        // Vertex 1 had an edge to 0, which is outside: dropped.
        assert_eq!(sub.degree(0), 1);
    }
}
