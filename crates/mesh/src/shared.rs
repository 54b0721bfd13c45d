//! Shared-processor lists (SPLs) of mesh edges, derived from a part array.
//!
//! The paper's parallel framework keeps, for every mesh edge, the list of
//! processors owning a copy — the shared-processor list — initialized "by
//! searching for elements on partition boundaries". [`EdgeParts`] is that
//! search: each edge's elements, derived by one counting pass over every
//! element's six edges (`TetMesh::edge_rows`; the mesh keeps edge degrees,
//! not edge → element lists), each held as its part. It is a value,
//! built where it is needed and never updated; a mesh or assignment change
//! means building a new one.

use crate::ids::EdgeId;
use crate::tetmesh::TetMesh;

/// Per edge slot, the distinct parts whose elements touch the edge, plus
/// each part's number of shared edges and its own numbering of its edges.
///
/// An edge is *shared* when elements of more than one part touch it.
#[derive(Debug)]
pub struct EdgeParts {
    /// Edge slot `e`'s parts are `parts[start[e]..start[e + 1]]`, ascending.
    start: Vec<usize>,
    parts: Vec<u32>,
    /// Aligned with `parts`: the edge's number among its part's edges,
    /// which each part numbers from 0 ascending by edge id.
    local: Vec<u32>,
    /// Per part: number of edge slots it touches.
    edges_per_part: Vec<u32>,
    /// Per part: number of edge slots with more than one part, this one
    /// among them.
    shared_per_part: Vec<u64>,
}

impl EdgeParts {
    /// Derive every edge's part list from `part` (indexed by element slot
    /// id; entries for dead slots are ignored).
    ///
    /// Panics if a live element's part is not below `nparts`.
    pub fn build(mesh: &TetMesh, part: &[u32], nparts: usize) -> Self {
        let slots = mesh.edge_slots();
        // Each edge's row holds the parts of its elements.
        let (mut start, mut parts) = mesh.edge_rows(0, |e| {
            let p = part[e.idx()];
            assert!((p as usize) < nparts, "element {e} has part {p} ≥ {nparts}");
            p
        });
        // Keep each row's distinct parts, ascending, compacting in place: the
        // write cursor `len` never passes the entry being read.
        let mut shared_per_part = vec![0u64; nparts];
        let mut len = 0;
        for slot in 0..slots {
            let (lo, hi) = (start[slot], start[slot + 1]);
            start[slot] = len;
            let first = len;
            for i in lo..hi {
                let p = parts[i];
                if !parts[first..len].contains(&p) {
                    parts[len] = p;
                    len += 1;
                }
            }
            parts[first..len].sort_unstable();
            if len - first > 1 {
                for &p in &parts[first..len] {
                    shared_per_part[p as usize] += 1;
                }
            }
        }
        start[slots] = len;
        parts.truncate(len);
        // `parts` runs in edge order, so counting each part's entries as
        // they come numbers its edges ascending by id.
        let mut edges_per_part = vec![0u32; nparts];
        let local = parts
            .iter()
            .map(|&p| {
                let n = &mut edges_per_part[p as usize];
                *n += 1;
                *n - 1
            })
            .collect();
        EdgeParts {
            start,
            parts,
            local,
            edges_per_part,
            shared_per_part,
        }
    }

    /// Parts owning a copy of `edge`, in ascending order (more than one ⇒
    /// shared edge; none ⇒ dead slot).
    #[inline]
    pub fn parts_of(&self, edge: EdgeId) -> &[u32] {
        &self.parts[self.start[edge.idx()]..self.start[edge.idx() + 1]]
    }

    /// Number of edges `part` owns a copy of; it numbers them
    /// `0..edges_of_part(part)`, ascending by id.
    #[inline]
    pub fn edges_of_part(&self, part: u32) -> usize {
        self.edges_per_part[part as usize] as usize
    }

    /// `edge`'s number among `part`'s edges, or `None` when `part` owns no
    /// copy of it.
    #[inline]
    pub fn local_of(&self, edge: EdgeId, part: u32) -> Option<u32> {
        let first = self.start[edge.idx()];
        let k = self.parts_of(edge).binary_search(&part).ok()?;
        Some(self.local[first + k])
    }

    /// Number of shared edges `part` owns a copy of.
    #[inline]
    pub fn shared_edges_of_part(&self, part: u32) -> u64 {
        self.shared_per_part[part as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tets_sharing_a_face_share_its_three_edges() {
        let mut m = TetMesh::new();
        let v: Vec<_> = [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
        ]
        .into_iter()
        .map(|p| m.add_vertex(p))
        .collect();
        m.add_elem([v[0], v[1], v[2], v[3]]);
        m.add_elem([v[1], v[2], v[3], v[4]]);

        // Same part on both sides: nothing is shared.
        let one = EdgeParts::build(&m, &[1, 1], 3);
        assert_eq!([0, 1, 2].map(|p| one.shared_edges_of_part(p)), [0, 0, 0]);
        assert!(m.edges().all(|e| one.parts_of(e) == [1]));

        // Parts listed in descending element order come out ascending.
        let two = EdgeParts::build(&m, &[2, 0], 3);
        assert_eq!([0, 1, 2].map(|p| two.shared_edges_of_part(p)), [3, 0, 3]);
        let face = m.edge_between(v[1], v[2]).unwrap();
        assert_eq!(two.parts_of(face), [0, 2]);
        let apex = m.edge_between(v[0], v[1]).unwrap();
        assert_eq!(two.parts_of(apex), [2]);

        // Each part numbers the edges it touches 0.. ascending by id.
        for p in 0..3 {
            let numbers: Vec<u32> = m.edges().filter_map(|e| two.local_of(e, p)).collect();
            let want: Vec<u32> = (0..two.edges_of_part(p) as u32).collect();
            assert_eq!(numbers, want, "part {p}");
        }
        assert_eq!([0, 1, 2].map(|p| two.edges_of_part(p)), [6, 0, 6]);
        assert_eq!(two.local_of(apex, 0), None);
    }
}
