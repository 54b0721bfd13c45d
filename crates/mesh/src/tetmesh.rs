//! Edge-based tetrahedral mesh.
//!
//! Following 3D_TAG, elements are defined by their six edges as well as their
//! four vertices; every vertex keeps the list of edges incident on it and
//! every edge keeps the list of elements sharing it. These lists are what
//! make marking propagation and subdivision local operations ("these lists
//! eliminate extensive searches and are crucial to the efficiency of the
//! overall adaption scheme").

use crate::ids::{EdgeId, ElemId, VertId};
use crate::pairmap::PairMap;

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
    /// Edges incident on this vertex. Empty ⇒ slot is dead.
    edges: Vec<EdgeId>,
    alive: bool,
}

#[derive(Debug, Clone)]
struct Edge {
    v: [VertId; 2],
    /// Elements sharing this edge.
    elems: Vec<ElemId>,
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

/// A mutable tetrahedral mesh with full vertex/edge/element incidence.
#[derive(Debug, Clone)]
pub struct TetMesh {
    verts: Vec<Vertex>,
    edges: Vec<Edge>,
    elems: Vec<Elem>,
    /// Normalized vertex pair → edge id.
    edge_lookup: PairMap,
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
            edge_lookup: PairMap::with_capacity(edges),
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

    /// Edges incident on a vertex.
    #[inline]
    pub fn vert_edges(&self, v: VertId) -> &[EdgeId] {
        &self.verts[v.idx()].edges
    }

    /// The two endpoints of an edge.
    #[inline]
    pub fn edge_verts(&self, e: EdgeId) -> [VertId; 2] {
        debug_assert!(self.edges[e.idx()].alive);
        self.edges[e.idx()].v
    }

    /// Elements sharing an edge.
    #[inline]
    pub fn edge_elems(&self, e: EdgeId) -> &[ElemId] {
        &self.edges[e.idx()].elems
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
        self.edge_lookup
            .get(PairMap::pair_key(a.0, b.0))
            .map(EdgeId)
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
            debug_assert!(v.edges.is_empty());
            VertId(slot)
        } else {
            self.verts.push(Vertex {
                pos,
                edges: Vec::new(),
                alive: true,
            });
            VertId::from_idx(self.verts.len() - 1)
        }
    }

    /// Find the edge `(a, b)`, creating it if necessary.
    pub fn find_or_add_edge(&mut self, a: VertId, b: VertId) -> EdgeId {
        assert_ne!(a, b, "degenerate edge");
        let key = PairMap::pair_key(a.0, b.0);
        if let Some(e) = self.edge_lookup.get(key) {
            return EdgeId(e);
        }
        let id = if let Some(slot) = self.free_edges.pop() {
            let e = &mut self.edges[slot as usize];
            e.v = [a, b];
            e.alive = true;
            debug_assert!(e.elems.is_empty());
            EdgeId(slot)
        } else {
            self.edges.push(Edge {
                v: [a, b],
                elems: Vec::new(),
                alive: true,
            });
            EdgeId::from_idx(self.edges.len() - 1)
        };
        self.n_edges += 1;
        self.edge_lookup.insert(key, id.0);
        self.verts[a.idx()].edges.push(id);
        self.verts[b.idx()].edges.push(id);
        id
    }

    /// Add a tetrahedral element on four vertices, creating any missing
    /// edges and updating all incidence lists.
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
            self.edges[e.idx()].elems.push(id);
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
            let list = &mut self.edges[eid.idx()].elems;
            let pos = list
                .iter()
                .position(|&x| x == id)
                .expect("incidence broken");
            list.swap_remove(pos);
        }
        self.n_elems -= 1;
        self.free_elems.push(id.0);
    }

    /// Remove an edge that no longer belongs to any element.
    pub fn remove_edge(&mut self, id: EdgeId) {
        let e = &mut self.edges[id.idx()];
        assert!(e.alive, "double remove of {id}");
        assert!(
            e.elems.is_empty(),
            "cannot remove {id}: still used by {} elements",
            e.elems.len()
        );
        e.alive = false;
        let [a, b] = e.v;
        self.edge_lookup.remove(PairMap::pair_key(a.0, b.0));
        for v in [a, b] {
            let list = &mut self.verts[v.idx()].edges;
            let pos = list
                .iter()
                .position(|&x| x == id)
                .expect("incidence broken");
            list.swap_remove(pos);
        }
        self.n_edges -= 1;
        self.free_edges.push(id.0);
    }

    /// Remove a vertex that no longer belongs to any edge.
    pub fn remove_vertex(&mut self, id: VertId) {
        let v = &mut self.verts[id.idx()];
        assert!(v.alive, "double remove of {id}");
        assert!(
            v.edges.is_empty(),
            "cannot remove {id}: still used by {} edges",
            v.edges.len()
        );
        v.alive = false;
        self.n_verts -= 1;
        self.free_verts.push(id.0);
    }

    // ------------------------------------------------------------------
    // derived structure
    // ------------------------------------------------------------------

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
    pub fn validate(&self) {
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
                assert!(
                    self.edges[e.idx()].elems.contains(&id),
                    "{e} missing back-reference to {id}"
                );
            }
        }
        // Edge side.
        for id in self.edges() {
            let ed = &self.edges[id.idx()];
            assert_ne!(ed.v[0], ed.v[1], "{id} degenerate");
            for &v in &ed.v {
                assert!(self.verts[v.idx()].alive, "{id} on dead {v}");
                assert!(
                    self.verts[v.idx()].edges.contains(&id),
                    "{v} missing back-reference to {id}"
                );
            }
            for &el in &ed.elems {
                assert!(self.elems[el.idx()].alive, "{id} lists dead {el}");
                assert!(
                    self.elems[el.idx()].edges.contains(&id),
                    "{el} does not list {id}"
                );
            }
            assert_eq!(
                self.edge_lookup
                    .get(PairMap::pair_key(ed.v[0].0, ed.v[1].0)),
                Some(id.0),
                "lookup table misses {id}"
            );
        }
        // Vertex side.
        for id in self.verts() {
            for &e in &self.verts[id.idx()].edges {
                assert!(self.edges[e.idx()].alive, "{id} lists dead {e}");
                assert!(
                    self.edges[e.idx()].v.contains(&id),
                    "{e} does not contain {id}"
                );
            }
        }
        // Count bookkeeping.
        assert_eq!(self.n_elems, self.elems.iter().filter(|e| e.alive).count());
        assert_eq!(self.n_edges, self.edges.iter().filter(|e| e.alive).count());
        assert_eq!(self.n_verts, self.verts.iter().filter(|v| v.alive).count());
        assert_eq!(self.edge_lookup.len(), self.n_edges);
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
        let (mut m, v, _) = single_tet();
        let v4 = m.add_vertex([1.0, 1.0, 1.0]);
        m.add_elem([v[1], v[2], v[3], v4]);
        let c = m.counts();
        assert_eq!(c.vertices, 5);
        assert_eq!(c.elements, 2);
        // 6 + 6 edges, but face (v1,v2,v3) shares 3.
        assert_eq!(c.edges, 9);
        assert_eq!(m.boundary_faces().len(), 6);
        m.validate();
        // The shared edges list both elements.
        let shared = m.edge_between(v[1], v[2]).unwrap();
        assert_eq!(m.edge_elems(shared).len(), 2);
    }

    #[test]
    fn remove_elem_then_orphans() {
        let (mut m, v, e) = single_tet();
        m.remove_elem(e);
        assert_eq!(m.n_elems(), 0);
        for k in 0..6 {
            let (i, j) = LOCAL_EDGE_VERTS[k];
            let eid = m.edge_between(v[i], v[j]).unwrap();
            assert!(m.edge_elems(eid).is_empty());
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
    #[should_panic(expected = "still used")]
    fn cannot_remove_live_edge() {
        let (mut m, v, _) = single_tet();
        let e = m.edge_between(v[0], v[1]).unwrap();
        m.remove_edge(e);
    }

    #[test]
    fn edge_midpoint_and_len() {
        let (m, v, _) = single_tet();
        let e = m.edge_between(v[0], v[1]).unwrap();
        assert_eq!(m.edge_midpoint(e), [0.5, 0.0, 0.0]);
        assert!((m.edge_len2(e) - 1.0).abs() < 1e-15);
    }
}
