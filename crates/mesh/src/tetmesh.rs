//! Edge-based tetrahedral mesh.
//!
//! Following 3D_TAG, elements are defined by their six edges as well as their
//! four vertices, so marking propagation and subdivision are local
//! operations: an element reaches its edges, and an edge its endpoints,
//! without a search. 3D_TAG also keeps the reverse lists, vertex → edges and
//! edge → elements. Here they are kept as degrees only: how many live edges
//! touch a vertex and how many live elements share an edge. Refinement and
//! coarsening only ask whether a list is empty (is the entity orphaned?), and
//! nothing walks one, so a per-entity heap list would cost an allocation and
//! a search per update for a count. Where a consumer does need an edge's
//! elements — the shared-processor lists (`EdgeParts::build`, `shared.rs`)
//! and the refinement threshold search — [`TetMesh::edge_rows`] derives
//! them in one counting pass over the elements' edges.
//!
//! An edge is found from its two vertices in a table bucketed by the higher
//! vertex (`edge_table.rs`): refinement's child edges mostly end at a fresh
//! midpoint, so their lookups read one bucket instead of missing all over a
//! hashed table.

use crate::edge_table::EdgeTable;
use crate::ids::{EdgeId, ElemId, VertId};

/// Local edge `k` of an element connects local vertices
/// `LOCAL_EDGE_VERTS[k]`. The ordering is canonical so a 6-bit edge-marking
/// pattern has a fixed meaning for every element.
pub const LOCAL_EDGE_VERTS: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

/// Local face `k` of an element is the triangle opposite local vertex `k`.
pub const LOCAL_FACE_VERTS: [(usize, usize, usize); 4] =
    [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)];

/// The three local edges that make up local face `k` (derived from
/// [`LOCAL_EDGE_VERTS`] and [`LOCAL_FACE_VERTS`]).
pub const LOCAL_FACE_EDGES: [[usize; 3]; 4] = [
    [3, 4, 5], // face (1,2,3): edges (1,2),(1,3),(2,3)
    [1, 2, 5], // face (0,2,3): edges (0,2),(0,3),(2,3)
    [0, 2, 4], // face (0,1,3): edges (0,1),(0,3),(1,3)
    [0, 1, 3], // face (0,1,2): edges (0,1),(0,2),(1,2)
];

#[derive(Debug, Clone)]
struct Vertex {
    pos: [f64; 3],
    /// Number of live edges incident on this vertex.
    degree: u32,
    alive: bool,
}

#[derive(Debug, Clone)]
struct Edge {
    v: [VertId; 2],
    /// Number of live elements sharing this edge.
    degree: u32,
    alive: bool,
}

#[derive(Debug, Clone)]
struct Elem {
    verts: [VertId; 4],
    edges: [EdgeId; 6],
    alive: bool,
}

/// Counts of live mesh entities (Table 1's columns, except boundary faces:
/// that one is a walk over the mesh, `boundary_faces().len()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshCounts {
    pub vertices: usize,
    pub elements: usize,
    pub edges: usize,
}

/// A mutable tetrahedral mesh: element → edge → vertex incidence, with
/// vertex and edge degrees.
#[derive(Debug, Clone)]
pub struct TetMesh {
    verts: Vec<Vertex>,
    edges: Vec<Edge>,
    elems: Vec<Elem>,
    /// Vertex pair → edge id, bucketed by the higher vertex.
    edge_lookup: EdgeTable,
    n_verts: usize,
    n_edges: usize,
    n_elems: usize,
    free_verts: Vec<u32>,
    free_edges: Vec<u32>,
    free_elems: Vec<u32>,
}

impl Default for TetMesh {
    fn default() -> Self {
        Self::new()
    }
}

impl TetMesh {
    /// An empty mesh.
    pub fn new() -> Self {
        Self::with_capacity(0, 0, 0)
    }

    /// An empty mesh with storage reserved for the given entity counts.
    pub fn with_capacity(verts: usize, edges: usize, elems: usize) -> Self {
        TetMesh {
            verts: Vec::with_capacity(verts),
            edges: Vec::with_capacity(edges),
            elems: Vec::with_capacity(elems),
            edge_lookup: EdgeTable::with_capacity(verts),
            n_verts: 0,
            n_edges: 0,
            n_elems: 0,
            free_verts: Vec::new(),
            free_edges: Vec::new(),
            free_elems: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // counts & iteration
    // ------------------------------------------------------------------

    /// Number of live vertices.
    pub fn n_verts(&self) -> usize {
        self.n_verts
    }

    /// Number of live edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Number of live elements.
    pub fn n_elems(&self) -> usize {
        self.n_elems
    }

    /// Upper bound on element ids (including dead slots), for indexing
    /// side arrays.
    pub fn elem_slots(&self) -> usize {
        self.elems.len()
    }

    /// Upper bound on edge ids (including dead slots).
    pub fn edge_slots(&self) -> usize {
        self.edges.len()
    }

    /// Upper bound on vertex ids (including dead slots).
    pub fn vert_slots(&self) -> usize {
        self.verts.len()
    }

    /// Iterate live element ids.
    pub fn elems(&self) -> impl Iterator<Item = ElemId> + '_ {
        self.elems
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, _)| ElemId::from_idx(i))
    }

    /// Iterate live edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, _)| EdgeId::from_idx(i))
    }

    /// Iterate live vertex ids.
    pub fn verts(&self) -> impl Iterator<Item = VertId> + '_ {
        self.verts
            .iter()
            .enumerate()
            .filter(|(_, v)| v.alive)
            .map(|(i, _)| VertId::from_idx(i))
    }

    /// Is this element id live?
    pub fn elem_alive(&self, e: ElemId) -> bool {
        self.elems.get(e.idx()).is_some_and(|x| x.alive)
    }

    /// Is this edge id live?
    pub fn edge_alive(&self, e: EdgeId) -> bool {
        self.edges.get(e.idx()).is_some_and(|x| x.alive)
    }

    /// Is this vertex id live?
    pub fn vert_alive(&self, v: VertId) -> bool {
        self.verts.get(v.idx()).is_some_and(|x| x.alive)
    }

    /// Entity counts, read from the maintained counters.
    pub fn counts(&self) -> MeshCounts {
        MeshCounts {
            vertices: self.n_verts,
            elements: self.n_elems,
            edges: self.n_edges,
        }
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Position of a vertex.
    #[inline]
    pub fn vert_pos(&self, v: VertId) -> [f64; 3] {
        debug_assert!(self.verts[v.idx()].alive);
        self.verts[v.idx()].pos
    }

    /// Move a vertex to a new position (geometry-only change).
    #[inline]
    pub fn set_vert_pos(&mut self, v: VertId, pos: [f64; 3]) {
        debug_assert!(self.verts[v.idx()].alive);
        self.verts[v.idx()].pos = pos;
    }

    /// Number of live edges incident on a vertex (0 for a dead slot).
    #[inline]
    pub fn vert_degree(&self, v: VertId) -> u32 {
        self.verts[v.idx()].degree
    }

    /// The two endpoints of an edge.
    #[inline]
    pub fn edge_verts(&self, e: EdgeId) -> [VertId; 2] {
        debug_assert!(self.edges[e.idx()].alive);
        self.edges[e.idx()].v
    }

    /// Number of live elements sharing an edge (0 for a dead slot).
    #[inline]
    pub fn edge_degree(&self, e: EdgeId) -> u32 {
        self.edges[e.idx()].degree
    }

    /// The four vertices of an element.
    #[inline]
    pub fn elem_verts(&self, e: ElemId) -> [VertId; 4] {
        debug_assert!(self.elems[e.idx()].alive);
        self.elems[e.idx()].verts
    }

    /// The six edges of an element in canonical local order.
    #[inline]
    pub fn elem_edges(&self, e: ElemId) -> [EdgeId; 6] {
        debug_assert!(self.elems[e.idx()].alive);
        self.elems[e.idx()].edges
    }

    /// The edge between two vertices, if it exists.
    pub fn edge_between(&self, a: VertId, b: VertId) -> Option<EdgeId> {
        self.edge_lookup.get(a.0, b.0).map(EdgeId)
    }

    /// Midpoint of an edge.
    pub fn edge_midpoint(&self, e: EdgeId) -> [f64; 3] {
        let [a, b] = self.edge_verts(e);
        let pa = self.vert_pos(a);
        let pb = self.vert_pos(b);
        [
            0.5 * (pa[0] + pb[0]),
            0.5 * (pa[1] + pb[1]),
            0.5 * (pa[2] + pb[2]),
        ]
    }

    /// Squared length of an edge.
    pub fn edge_len2(&self, e: EdgeId) -> f64 {
        let [a, b] = self.edge_verts(e);
        let pa = self.vert_pos(a);
        let pb = self.vert_pos(b);
        let d = [pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2]];
        d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    }

    // ------------------------------------------------------------------
    // mutation
    // ------------------------------------------------------------------

    /// Add a vertex at `pos`.
    pub fn add_vertex(&mut self, pos: [f64; 3]) -> VertId {
        self.n_verts += 1;
        if let Some(slot) = self.free_verts.pop() {
            let v = &mut self.verts[slot as usize];
            v.pos = pos;
            v.alive = true;
            debug_assert_eq!(v.degree, 0);
            VertId(slot)
        } else {
            self.verts.push(Vertex {
                pos,
                degree: 0,
                alive: true,
            });
            VertId::from_idx(self.verts.len() - 1)
        }
    }

    /// Find the edge `(a, b)`, creating it if necessary.
    pub fn find_or_add_edge(&mut self, a: VertId, b: VertId) -> EdgeId {
        assert_ne!(a, b, "degenerate edge");
        if let Some(e) = self.edge_lookup.get(a.0, b.0) {
            return EdgeId(e);
        }
        let id = if let Some(slot) = self.free_edges.pop() {
            let e = &mut self.edges[slot as usize];
            e.v = [a, b];
            e.alive = true;
            debug_assert_eq!(e.degree, 0);
            EdgeId(slot)
        } else {
            self.edges.push(Edge {
                v: [a, b],
                degree: 0,
                alive: true,
            });
            EdgeId::from_idx(self.edges.len() - 1)
        };
        self.n_edges += 1;
        self.edge_lookup.insert(a.0, b.0, id.0);
        self.verts[a.idx()].degree += 1;
        self.verts[b.idx()].degree += 1;
        id
    }

    /// Add a tetrahedral element on four vertices, creating any missing
    /// edges and counting it in the degree of each of its six edges.
    pub fn add_elem(&mut self, verts: [VertId; 4]) -> ElemId {
        debug_assert!(
            verts.iter().all(|&v| self.verts[v.idx()].alive),
            "element on dead vertex"
        );
        let mut edges = [EdgeId(0); 6];
        for (k, &(i, j)) in LOCAL_EDGE_VERTS.iter().enumerate() {
            edges[k] = self.find_or_add_edge(verts[i], verts[j]);
        }
        let id = if let Some(slot) = self.free_elems.pop() {
            let e = &mut self.elems[slot as usize];
            e.verts = verts;
            e.edges = edges;
            e.alive = true;
            ElemId(slot)
        } else {
            self.elems.push(Elem {
                verts,
                edges,
                alive: true,
            });
            ElemId::from_idx(self.elems.len() - 1)
        };
        self.n_elems += 1;
        for &e in &edges {
            self.edges[e.idx()].degree += 1;
        }
        id
    }

    /// Remove an element, detaching it from its edges. Edges and vertices are
    /// left in place (remove them explicitly once orphaned).
    pub fn remove_elem(&mut self, id: ElemId) {
        let edges = {
            let e = &mut self.elems[id.idx()];
            assert!(e.alive, "double remove of {id}");
            e.alive = false;
            e.edges
        };
        for &eid in &edges {
            self.edges[eid.idx()].degree -= 1;
        }
        self.n_elems -= 1;
        self.free_elems.push(id.0);
    }

    /// Remove an edge that no longer belongs to any element.
    pub fn remove_edge(&mut self, id: EdgeId) {
        let e = &mut self.edges[id.idx()];
        assert!(e.alive, "double remove of {id}");
        assert!(
            e.degree == 0,
            "cannot remove {id}: still used by {} elements",
            e.degree
        );
        e.alive = false;
        let [a, b] = e.v;
        self.edge_lookup.remove(a.0, b.0);
        self.verts[a.idx()].degree -= 1;
        self.verts[b.idx()].degree -= 1;
        self.n_edges -= 1;
        self.free_edges.push(id.0);
    }

    /// Remove a vertex that no longer belongs to any edge.
    pub fn remove_vertex(&mut self, id: VertId) {
        let v = &mut self.verts[id.idx()];
        assert!(v.alive, "double remove of {id}");
        assert!(
            v.degree == 0,
            "cannot remove {id}: still used by {} edges",
            v.degree
        );
        v.alive = false;
        self.n_verts -= 1;
        self.free_verts.push(id.0);
    }

    // ------------------------------------------------------------------
    // derived structure
    // ------------------------------------------------------------------

    /// Every edge slot's live elements as one CSR, each element stored as
    /// `value(element)`: slot `e`'s row is `rows[start[e]..start[e + 1]]`,
    /// ascending by element slot, and a dead slot's row is empty. Rows are
    /// sized by the edge degrees and filled in one pass over the elements'
    /// six edges, calling `value` once per element; `blank` only fills the
    /// array before that pass.
    pub fn edge_rows<T: Copy>(
        &self,
        blank: T,
        mut value: impl FnMut(ElemId) -> T,
    ) -> (Vec<usize>, Vec<T>) {
        let slots = self.edges.len();
        let mut start = Vec::with_capacity(slots + 1);
        start.push(0);
        for (slot, edge) in self.edges.iter().enumerate() {
            start.push(start[slot] + edge.degree as usize);
        }
        let mut next = start[..slots].to_vec();
        let mut rows = vec![blank; start[slots]];
        for id in self.elems() {
            let v = value(id);
            for edge in self.elems[id.idx()].edges {
                rows[next[edge.idx()]] = v;
                next[edge.idx()] += 1;
            }
        }
        (start, rows)
    }

    /// All boundary faces: triangles belonging to exactly one element.
    /// Each is returned as `(sorted vertex triple, owning element)`.
    pub fn boundary_faces(&self) -> Vec<([VertId; 3], ElemId)> {
        // face key -> (owner, count)
        let mut map: std::collections::HashMap<[u32; 3], (ElemId, u8)> =
            std::collections::HashMap::with_capacity(self.n_elems * 2);
        for e in self.elems() {
            let verts = self.elem_verts(e);
            for &(a, b, c) in &LOCAL_FACE_VERTS {
                let mut key = [verts[a].0, verts[b].0, verts[c].0];
                key.sort_unstable();
                map.entry(key)
                    .and_modify(|(_, n)| *n += 1)
                    .or_insert((e, 1));
            }
        }
        let mut out: Vec<([VertId; 3], ElemId)> = map
            .into_iter()
            .filter(|(_, (_, n))| *n == 1)
            .map(|(k, (e, _))| ([VertId(k[0]), VertId(k[1]), VertId(k[2])], e))
            .collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// Exhaustive consistency check of all incidence structure. Panics with a
    /// description on the first violation. Intended for tests and debug runs.
    ///
    /// Every degree is recomputed from the live elements and edges and held
    /// to the maintained one, dead slots (degree 0) included.
    pub fn validate(&self) {
        let mut edge_degree = vec![0u32; self.edges.len()];
        let mut vert_degree = vec![0u32; self.verts.len()];
        // Element ↔ edge ↔ vertex consistency.
        for id in self.elems() {
            let el = &self.elems[id.idx()];
            let mut vs = el.verts;
            vs.sort_unstable();
            assert!(
                vs.windows(2).all(|w| w[0] != w[1]),
                "{id} has repeated vertices"
            );
            for (k, &(i, j)) in LOCAL_EDGE_VERTS.iter().enumerate() {
                let e = el.edges[k];
                assert!(self.edges[e.idx()].alive, "{id} references dead {e}");
                let mut want = [el.verts[i], el.verts[j]];
                want.sort_unstable();
                let mut got = self.edges[e.idx()].v;
                got.sort_unstable();
                assert_eq!(got, want, "{id} local edge {k} endpoints mismatch");
                edge_degree[e.idx()] += 1;
            }
        }
        // Edge side.
        for id in self.edges() {
            let ed = &self.edges[id.idx()];
            assert_ne!(ed.v[0], ed.v[1], "{id} degenerate");
            for &v in &ed.v {
                assert!(self.verts[v.idx()].alive, "{id} on dead {v}");
                vert_degree[v.idx()] += 1;
            }
            assert_eq!(
                self.edge_lookup.get(ed.v[0].0, ed.v[1].0),
                Some(id.0),
                "lookup table misses {id}"
            );
        }
        // Degrees, recounted.
        for (i, ed) in self.edges.iter().enumerate() {
            assert_eq!(
                ed.degree,
                edge_degree[i],
                "{} has degree {} but {} elements use it",
                EdgeId::from_idx(i),
                ed.degree,
                edge_degree[i]
            );
        }
        for (i, v) in self.verts.iter().enumerate() {
            assert_eq!(
                v.degree,
                vert_degree[i],
                "{} has degree {} but {} edges touch it",
                VertId::from_idx(i),
                v.degree,
                vert_degree[i]
            );
        }
        // Count bookkeeping.
        assert_eq!(self.n_elems, self.elems.iter().filter(|e| e.alive).count());
        assert_eq!(self.n_edges, self.edges.iter().filter(|e| e.alive).count());
        assert_eq!(self.n_verts, self.verts.iter().filter(|v| v.alive).count());
        assert_eq!(self.edge_lookup.len(), self.n_edges);
        self.edge_lookup.validate(|v| self.verts[v].alive);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_tet() -> (TetMesh, [VertId; 4], ElemId) {
        let mut m = TetMesh::new();
        let v0 = m.add_vertex([0.0, 0.0, 0.0]);
        let v1 = m.add_vertex([1.0, 0.0, 0.0]);
        let v2 = m.add_vertex([0.0, 1.0, 0.0]);
        let v3 = m.add_vertex([0.0, 0.0, 1.0]);
        let e = m.add_elem([v0, v1, v2, v3]);
        (m, [v0, v1, v2, v3], e)
    }

    #[test]
    fn face_edge_table_is_consistent() {
        // Each local face's edge set must equal the pairs of its vertices.
        for (f, &(a, b, c)) in LOCAL_FACE_VERTS.iter().enumerate() {
            let want: Vec<(usize, usize)> = vec![
                (a.min(b), a.max(b)),
                (a.min(c), a.max(c)),
                (b.min(c), b.max(c)),
            ];
            let mut got: Vec<(usize, usize)> = LOCAL_FACE_EDGES[f]
                .iter()
                .map(|&k| LOCAL_EDGE_VERTS[k])
                .collect();
            got.sort_unstable();
            let mut want = want;
            want.sort_unstable();
            assert_eq!(got, want, "face {f}");
        }
    }

    #[test]
    fn single_tet_counts() {
        let (m, _, _) = single_tet();
        let c = m.counts();
        assert_eq!(c.vertices, 4);
        assert_eq!(c.edges, 6);
        assert_eq!(c.elements, 1);
        assert_eq!(m.boundary_faces().len(), 4);
        m.validate();
    }

    #[test]
    fn two_tets_share_a_face() {
        let (mut m, v, e0) = single_tet();
        let v4 = m.add_vertex([1.0, 1.0, 1.0]);
        let e1 = m.add_elem([v[1], v[2], v[3], v4]);
        let c = m.counts();
        assert_eq!(c.vertices, 5);
        assert_eq!(c.elements, 2);
        // 6 + 6 edges, but face (v1,v2,v3) shares 3.
        assert_eq!(c.edges, 9);
        assert_eq!(m.boundary_faces().len(), 6);
        m.validate();
        // The shared edges count both elements.
        let shared = m.edge_between(v[1], v[2]).unwrap();
        assert_eq!(m.edge_degree(shared), 2);
        // The derived rows hold each edge's elements, as many as its degree.
        let (start, elems) = m.edge_rows(e0, |e| e);
        let row = |e: EdgeId| &elems[start[e.idx()]..start[e.idx() + 1]];
        assert_eq!(row(shared), [e0, e1]);
        assert_eq!(row(m.edge_between(v[0], v[1]).unwrap()), [e0]);
        assert_eq!(row(m.edge_between(v[1], v4).unwrap()), [e1]);
        assert!(m.edges().all(|e| row(e).len() == m.edge_degree(e) as usize));
    }

    #[test]
    fn remove_elem_then_orphans() {
        let (mut m, v, e) = single_tet();
        m.remove_elem(e);
        assert_eq!(m.n_elems(), 0);
        for k in 0..6 {
            let (i, j) = LOCAL_EDGE_VERTS[k];
            let eid = m.edge_between(v[i], v[j]).unwrap();
            assert_eq!(m.edge_degree(eid), 0);
            m.remove_edge(eid);
        }
        for &vid in &v {
            m.remove_vertex(vid);
        }
        assert_eq!(m.counts().vertices, 0);
        assert_eq!(m.n_edges(), 0);
        m.validate();
    }

    #[test]
    fn freed_slots_are_reused() {
        let (mut m, v, e) = single_tet();
        m.remove_elem(e);
        let e2 = m.add_elem(v);
        assert_eq!(e2, e, "free list should hand back the same slot");
        m.validate();
    }

    #[test]
    #[should_panic(expected = "still used by 1 elements")]
    fn cannot_remove_live_edge() {
        let (mut m, v, _) = single_tet();
        let e = m.edge_between(v[0], v[1]).unwrap();
        m.remove_edge(e);
    }

    #[test]
    #[should_panic(expected = "still used by 3 edges")]
    fn cannot_remove_live_vertex() {
        let (mut m, v, e) = single_tet();
        m.remove_elem(e);
        m.remove_vertex(v[0]);
    }

    #[test]
    fn degrees_follow_add_remove_and_slot_reuse() {
        let (mut m, v, e) = single_tet();
        let v4 = m.add_vertex([1.0, 1.0, 1.0]);
        assert_eq!(m.vert_degree(v4), 0, "a new vertex touches no edge");
        let e2 = m.add_elem([v[1], v[2], v[3], v4]);
        let degrees = |m: &TetMesh| {
            let verts: Vec<u32> = m.verts().map(|x| m.vert_degree(x)).collect();
            let edges: Vec<u32> = m.edges().map(|x| m.edge_degree(x)).collect();
            (verts, edges)
        };
        // v1..v3 each lie on the shared face's two edges plus one edge to
        // each apex; the face's three edges carry both elements.
        assert_eq!(degrees(&m).0, [3, 4, 4, 4, 3]);
        let face = |m: &TetMesh| {
            [(1, 2), (1, 3), (2, 3)]
                .map(|(i, j)| m.edge_degree(m.edge_between(v[i], v[j]).unwrap()))
        };
        assert_eq!(face(&m), [2, 2, 2]);
        m.validate();

        // Removing the second element leaves its three private edges
        // orphaned; removing them releases the fifth vertex.
        m.remove_elem(e2);
        assert_eq!(face(&m), [1, 1, 1]);
        let private: Vec<EdgeId> = m.edges().filter(|&x| m.edge_degree(x) == 0).collect();
        assert_eq!(private.len(), 3);
        for x in private {
            m.remove_edge(x);
        }
        assert_eq!(m.vert_degree(v4), 0);
        assert_eq!(degrees(&m), (vec![3, 3, 3, 3, 0], vec![1; 6]));
        m.remove_vertex(v4);
        m.validate();

        // Freed slots come back with fresh degrees. The first element's
        // edges stay live at degree 0 until removed.
        m.remove_elem(e);
        assert_eq!(degrees(&m).1, [0; 6]);
        let v5 = m.add_vertex([1.0, 1.0, 1.0]);
        assert_eq!(v5, v4, "the vertex slot is reused");
        assert_eq!(m.vert_degree(v5), 0);
        let e3 = m.add_elem([v[1], v[2], v[3], v5]);
        assert_eq!(e3, e, "the element slot is reused");
        assert_eq!(face(&m), [1, 1, 1]);
        assert_eq!(degrees(&m).0, [3, 4, 4, 4, 3]);
        m.validate();
    }

    #[test]
    #[should_panic(expected = "has degree 2 but 1 elements use it")]
    fn validate_catches_a_corrupted_edge_degree() {
        let (mut m, v, _) = single_tet();
        let e = m.edge_between(v[0], v[1]).unwrap();
        m.edges[e.idx()].degree += 1;
        m.validate();
    }

    #[test]
    #[should_panic(expected = "has degree 2 but 3 edges touch it")]
    fn validate_catches_a_corrupted_vertex_degree() {
        let (mut m, v, _) = single_tet();
        m.verts[v[2].idx()].degree -= 1;
        m.validate();
    }

    #[test]
    fn a_hub_with_more_than_a_bucket_of_lower_neighbours_spills() {
        // A fan of 20 tets around the z axis: the hub, added last, is the
        // higher endpoint of 21 edges (20 rim vertices and the apex), which
        // is more than one bucket holds.
        let mut m = TetMesh::new();
        let rim: Vec<VertId> = (0..20)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / 20.0;
                m.add_vertex([a.cos(), a.sin(), 0.0])
            })
            .collect();
        let apex = m.add_vertex([0.0, 0.0, 1.0]);
        let hub = m.add_vertex([0.0, 0.0, 0.0]);
        let fan: Vec<ElemId> = (0..20)
            .map(|i| m.add_elem([rim[i], rim[(i + 1) % 20], apex, hub]))
            .collect();
        assert_eq!(m.vert_degree(hub), 21);
        assert!(m.edge_lookup.spills() > 0, "the hub's bucket must spill");
        m.validate();

        // Removing one tet and its orphaned rim edge, then the hub's spokes
        // to two rim vertices, frees entries in front of the spilled ones:
        // every remaining spoke is still found.
        m.remove_elem(fan[0]);
        m.remove_elem(fan[1]);
        for x in m.edges().collect::<Vec<_>>() {
            if m.edge_degree(x) == 0 {
                m.remove_edge(x);
            }
        }
        m.remove_vertex(rim[1]);
        m.validate();
        for (i, &r) in rim.iter().enumerate() {
            assert_eq!(m.edge_between(hub, r).is_some(), i != 1, "spoke to rim {i}");
        }

        // Taking the fan apart leaves no entry and no spill behind.
        for &e in &fan[2..] {
            m.remove_elem(e);
        }
        for x in m.edges().collect::<Vec<_>>() {
            m.remove_edge(x);
        }
        assert_eq!(m.edge_lookup.len(), 0);
        assert_eq!(m.edge_lookup.spills(), 0);
        m.validate();
    }

    #[test]
    fn edge_midpoint_and_len() {
        let (m, v, _) = single_tet();
        let e = m.edge_between(v[0], v[1]).unwrap();
        assert_eq!(m.edge_midpoint(e), [0.5, 0.0, 0.0]);
        assert!((m.edge_len2(e) - 1.0).abs() < 1e-15);
    }
}
