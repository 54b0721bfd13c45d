//! The adaptive mesh: a computational mesh plus its refinement forest,
//! bisection records, and the marking / prediction machinery.

use plum_mesh::{EdgeId, ElemId, PairMap, TetMesh, VertId, LOCAL_EDGE_VERTS};

use crate::forest::{Forest, NodeId};
use crate::pattern::{classify, upgrade, SubdivKind};

/// Per-edge refinement marks, indexed by edge slot id of the current mesh:
/// one bit per edge slot.
#[derive(Debug, Clone, Default)]
pub struct EdgeMarks {
    words: Vec<u64>,
}

impl EdgeMarks {
    /// No edges marked, sized for `mesh`.
    pub fn new(mesh: &TetMesh) -> Self {
        EdgeMarks {
            words: vec![0; mesh.edge_slots().div_ceil(64)],
        }
    }

    /// Is `e` marked?
    #[inline]
    pub fn is_marked(&self, e: EdgeId) -> bool {
        let i = e.idx();
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 != 0)
    }

    /// Mark `e`; returns true if it was newly marked.
    #[inline]
    pub fn mark(&mut self, e: EdgeId) -> bool {
        let i = e.idx();
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        let bit = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        let newly = *word & bit == 0;
        *word |= bit;
        newly
    }

    /// Number of marked edges.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate marked edge ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    EdgeId::from_idx(wi * 64 + bit)
                })
            })
        })
    }
}

/// Statistics from one refinement pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Elements subdivided (became interior nodes).
    pub elems_subdivided: usize,
    /// Child elements created.
    pub elems_created: usize,
    /// Edges bisected (midpoint vertices created or reused).
    pub edges_bisected: usize,
    /// New vertices created.
    pub verts_created: usize,
}

/// Exact prediction of the post-refinement mesh, computable from the marking
/// patterns alone ("it is possible to exactly predict the new mesh before
/// actually performing the refinement step").
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Leaf-element count per refinement tree after subdivision
    /// (the new `wcomp`).
    pub wcomp: Vec<u64>,
    /// Total node count per refinement tree after subdivision
    /// (the new `wremap`).
    pub wremap: Vec<u64>,
    /// Total elements in the refined mesh.
    pub total_elements: u64,
    /// Mesh growth factor `G` (new elements / old elements), `1 ≤ G ≤ 8`.
    pub growth_factor: f64,
}

/// A tetrahedral mesh under adaptive refinement/coarsening.
#[derive(Debug, Clone)]
pub struct AdaptiveMesh {
    /// The current computational (leaf) mesh.
    pub mesh: TetMesh,
    pub(crate) forest: Forest,
    /// Element slot → forest node (u32::MAX for dead slots).
    pub(crate) node_of_elem: Vec<u32>,
    /// Live bisections: normalized vertex pair → midpoint vertex.
    pub(crate) bisect_mid: PairMap,
    /// Vertex slot → the normalized pair its vertex bisects (`None` for a
    /// vertex that is not a live midpoint).
    pub(crate) mid_parent: Vec<Option<(VertId, VertId)>>,
}

impl AdaptiveMesh {
    /// Wrap an initial mesh: every element becomes a root of the forest, in
    /// `mesh.elems()` order (matching the dual graph's vertex order).
    pub fn new(mesh: TetMesh) -> Self {
        let mut forest = Forest::new();
        let mut node_of_elem = vec![u32::MAX; mesh.elem_slots()];
        for (i, e) in mesh.elems().enumerate() {
            let id = forest.add_root(e, i as u32);
            node_of_elem[e.idx()] = id;
        }
        AdaptiveMesh {
            bisect_mid: PairMap::with_capacity(mesh.n_edges() / 4 + 16),
            mid_parent: Vec::new(),
            mesh,
            forest,
            node_of_elem,
        }
    }

    /// Number of refinement trees (initial elements / dual vertices).
    pub fn n_roots(&self) -> usize {
        self.forest.n_roots()
    }

    /// Read access to the refinement forest (for migration/packing).
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// The four vertices of a forest node: a leaf's are its live
    /// element's, an interior node's were kept when it was subdivided.
    pub fn node_verts(&self, id: NodeId) -> [VertId; 4] {
        match self.forest.elem(id) {
            Some(e) => self.mesh.elem_verts(e),
            None => self.forest.interior_verts(id),
        }
    }

    /// Refinement level of a live element (roots are level 0).
    pub fn level_of_elem(&self, e: ElemId) -> u8 {
        let node = self.node_of_elem[e.idx()];
        debug_assert_ne!(node, u32::MAX);
        self.forest.level(node)
    }

    /// The dual-graph vertex (root index) a live element belongs to.
    pub fn root_of_elem(&self, e: ElemId) -> u32 {
        let node = self.node_of_elem[e.idx()];
        debug_assert_ne!(node, u32::MAX);
        self.forest.root(node)
    }

    /// Current per-root weights: `(wcomp, wremap)`.
    pub fn weights(&self) -> (Vec<u64>, Vec<u64>) {
        self.forest.weights()
    }

    /// Maximum refinement level in the mesh.
    pub fn max_level(&self) -> u8 {
        self.forest.max_level()
    }

    /// Total live forest nodes (elements that would move in a remap).
    pub fn n_tree_nodes(&self) -> usize {
        self.forest.n_nodes()
    }

    // ------------------------------------------------------------------
    // marking
    // ------------------------------------------------------------------

    /// Mark every edge whose error value exceeds `threshold`.
    /// `error` is indexed by edge slot.
    pub fn mark_above(&self, error: &[f64], threshold: f64) -> EdgeMarks {
        let mut marks = EdgeMarks::new(&self.mesh);
        for e in self.mesh.edges() {
            if error.get(e.idx()).copied().unwrap_or(0.0) > threshold {
                marks.mark(e);
            }
        }
        marks
    }

    /// Find an error threshold such that, *after* upgrade propagation,
    /// approximately `frac` of the live edges end up marked — how the
    /// paper's Real_1/2/3 strategies are defined ("subdivided 5%, 33%, and
    /// 60% of the 78,343 edges"). Binary search over the initial threshold,
    /// running the upgrade fixpoint at each probe.
    ///
    /// Marking the top `k` edges is monotone in `k`, and so is its upgrade
    /// fixpoint (the least legal marking containing it, which no sweep order
    /// changes). Every probe lies above the bracket's low end, so it starts
    /// from the low end's fixpoint and propagates only from the edges it
    /// adds, through the elements on each newly marked edge.
    pub fn threshold_for_final_fraction(&self, error: &[f64], frac: f64) -> f64 {
        assert!((0.0..=1.0).contains(&frac));
        let mut vals: Vec<f64> = self
            .mesh
            .edges()
            .map(|e| error.get(e.idx()).copied().unwrap_or(0.0))
            .collect();
        vals.sort_unstable_by(f64::total_cmp);
        let n = vals.len();
        let target = (n as f64 * frac).round() as usize;
        if target == 0 {
            return f64::INFINITY;
        }
        // Binary search on the *rank* of the threshold value: marking the
        // top-k edges initially yields ≥ k after upgrades, monotonically in k.
        let value = |k: usize| {
            if k >= n {
                f64::NEG_INFINITY
            } else {
                vals[n - k - 1]
            }
        };
        let incident = self.mesh.edge_rows(ElemId(0), |e| e);
        let probe = |k: usize, lo_fixpoint: &EdgeMarks| {
            self.extend_fixpoint(lo_fixpoint, &incident, error, value(k))
        };
        let (mut lo, mut hi) = (0usize, target);
        // Invariant: the count at lo is ≤ target (lo=0 trivially); shrink hi
        // until the bracket is tight. Both ends keep the count their probe
        // found, and `lo` its fixpoint.
        let mut lo_fixpoint = EdgeMarks::new(&self.mesh);
        let (mut at_lo, mut at_hi) = (0, None);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let marks = probe(mid, &lo_fixpoint);
            let count = marks.count();
            if count > target {
                (hi, at_hi) = (mid, Some(count));
            } else {
                (lo, at_lo, lo_fixpoint) = (mid, count, marks);
            }
        }
        // Choose whichever bracket end lands closer to the target; `hi` is
        // probed here only if the search never moved it.
        let at_hi = at_hi.unwrap_or_else(|| probe(hi, &lo_fixpoint).count());
        let k = if target.abs_diff(at_lo) <= target.abs_diff(at_hi) {
            lo
        } else {
            hi
        };
        if k == 0 {
            f64::INFINITY
        } else {
            value(k)
        }
    }

    /// The upgrade fixpoint of `fixpoint` (itself one) with every edge above
    /// `threshold` marked: [`AdaptiveMesh::mark_above`] then
    /// [`AdaptiveMesh::upgrade_to_fixpoint`], visiting only the elements on
    /// edges it marks.
    fn extend_fixpoint(
        &self,
        fixpoint: &EdgeMarks,
        (start, elems): &(Vec<usize>, Vec<ElemId>),
        error: &[f64],
        threshold: f64,
    ) -> EdgeMarks {
        let incident = |e: EdgeId| &elems[start[e.idx()]..start[e.idx() + 1]];
        let mut marks = fixpoint.clone();
        let mut work: Vec<ElemId> = Vec::new();
        for e in self.mesh.edges() {
            if error.get(e.idx()).copied().unwrap_or(0.0) > threshold && marks.mark(e) {
                work.extend_from_slice(incident(e));
            }
        }
        while let Some(el) = work.pop() {
            let p = self.elem_pattern(el, &marks);
            let up = upgrade(p);
            for (k, &ed) in self.mesh.elem_edges(el).iter().enumerate() {
                if (up & !p) & (1 << k) != 0 && marks.mark(ed) {
                    work.extend_from_slice(incident(ed));
                }
            }
        }
        marks
    }

    /// The current 6-bit marking pattern of a live element.
    pub fn elem_pattern(&self, e: ElemId, marks: &EdgeMarks) -> u8 {
        let mut p = 0u8;
        for (k, &ed) in self.mesh.elem_edges(e).iter().enumerate() {
            if marks.is_marked(ed) {
                p |= 1 << k;
            }
        }
        p
    }

    /// One sweep of the pattern-upgrade process: every element whose pattern
    /// is illegal gets it upgraded, marking extra edges. Returns the edges
    /// newly marked in this sweep (the propagation front — in the parallel
    /// setting these are what must be communicated to SPL peers).
    pub fn upgrade_sweep(&self, marks: &mut EdgeMarks) -> Vec<EdgeId> {
        let mut newly = Vec::new();
        for e in self.mesh.elems() {
            let p = self.elem_pattern(e, marks);
            let up = upgrade(p);
            if up != p {
                let edges = self.mesh.elem_edges(e);
                for (k, &ed) in edges.iter().enumerate() {
                    if up & (1 << k) != 0 && marks.mark(ed) {
                        newly.push(ed);
                    }
                }
            }
        }
        newly
    }

    /// Run upgrade sweeps to fixpoint. Returns the number of sweeps that
    /// marked something new.
    pub fn upgrade_to_fixpoint(&self, marks: &mut EdgeMarks) -> usize {
        let mut rounds = 0;
        while !self.upgrade_sweep(marks).is_empty() {
            rounds += 1;
        }
        rounds
    }

    /// Check that every element's pattern is one of the three legal types
    /// (i.e. `marks` is at an upgrade fixpoint).
    pub fn marks_are_legal(&self, marks: &EdgeMarks) -> bool {
        self.mesh
            .elems()
            .all(|e| classify(self.elem_pattern(e, marks)).is_some())
    }

    // ------------------------------------------------------------------
    // prediction
    // ------------------------------------------------------------------

    /// Exactly predict the post-refinement tree weights from legal marks.
    pub fn predict(&self, marks: &EdgeMarks) -> Prediction {
        let (mut wcomp, mut wremap) = self.forest.weights();
        let old_total: u64 = wcomp.iter().sum();
        for e in self.mesh.elems() {
            let p = self.elem_pattern(e, marks);
            let kind = classify(p).expect("predict requires upgraded (legal) marks");
            let extra = kind.n_children() as u64 - 1;
            if extra > 0 {
                let root = self.root_of_elem(e) as usize;
                wcomp[root] += extra;
                // The leaf becomes interior and its children are added.
                wremap[root] += extra + 1;
            }
        }
        let total_elements: u64 = wcomp.iter().sum();
        Prediction {
            growth_factor: total_elements as f64 / old_total as f64,
            total_elements,
            wcomp,
            wremap,
        }
    }

    // ------------------------------------------------------------------
    // internals shared by refine/coarsen
    // ------------------------------------------------------------------

    /// Get or create the midpoint vertex of the (live or conceptual) edge
    /// `(a, b)`, interpolating all `fields` when creating it.
    pub(crate) fn midpoint(
        &mut self,
        a: VertId,
        b: VertId,
        fields: &mut [plum_mesh::VertexField],
        stats: &mut RefineStats,
    ) -> VertId {
        let key = PairMap::pair_key(a.0, b.0);
        if let Some(m) = self.bisect_mid.get(key) {
            return VertId(m);
        }
        let pa = self.mesh.vert_pos(a);
        let pb = self.mesh.vert_pos(b);
        let m = self.mesh.add_vertex([
            0.5 * (pa[0] + pb[0]),
            0.5 * (pa[1] + pb[1]),
            0.5 * (pa[2] + pb[2]),
        ]);
        for f in fields.iter_mut() {
            f.interpolate_midpoint(m, a, b);
        }
        self.bisect_mid.insert(key, m.0);
        if m.idx() >= self.mid_parent.len() {
            self.mid_parent.resize(m.idx() + 1, None);
        }
        self.mid_parent[m.idx()] = Some(if a.0 < b.0 { (a, b) } else { (b, a) });
        stats.verts_created += 1;
        stats.edges_bisected += 1;
        m
    }

    pub(crate) fn set_node_of_elem(&mut self, e: ElemId, node: NodeId) {
        if e.idx() >= self.node_of_elem.len() {
            self.node_of_elem.resize(e.idx() + 1, u32::MAX);
        }
        self.node_of_elem[e.idx()] = node;
    }

    /// Compute the child vertex quadruples for subdividing `verts` by
    /// `kind`, with `mid[k]` the midpoint of local edge `k` (present for
    /// every marked edge): the first `n` of the returned eight, where `n` is
    /// the second value.
    pub(crate) fn child_tets(
        &self,
        kind: SubdivKind,
        verts: [VertId; 4],
        mid: [Option<VertId>; 6],
    ) -> ([[VertId; 4]; 8], usize) {
        let mut out = [verts; 8];
        let n = match kind {
            SubdivKind::None => 0,
            SubdivKind::OneToTwo { edge } => {
                let (i, j) = LOCAL_EDGE_VERTS[edge];
                let m = mid[edge].expect("missing midpoint");
                out[0][j] = m;
                out[1][i] = m;
                2
            }
            SubdivKind::OneToFour { face } => {
                let (a, b, c) = plum_mesh::LOCAL_FACE_VERTS[face];
                let d = face; // opposite vertex has the face's local index
                let m = |i: usize, j: usize| {
                    mid[crate::pattern::local_edge_between(i, j)].expect("missing midpoint")
                };
                let (va, vb, vc, vd) = (verts[a], verts[b], verts[c], verts[d]);
                let (mab, mac, mbc) = (m(a, b), m(a, c), m(b, c));
                out[..4].copy_from_slice(&[
                    [va, mab, mac, vd],
                    [mab, vb, mbc, vd],
                    [mac, mbc, vc, vd],
                    [mab, mbc, mac, vd],
                ]);
                4
            }
            SubdivKind::OneToEight => {
                let m = |k: usize| mid[k].expect("missing midpoint");
                // Local edges: 0=(0,1) 1=(0,2) 2=(0,3) 3=(1,2) 4=(1,3) 5=(2,3)
                let (m01, m02, m03, m12, m13, m23) = (m(0), m(1), m(2), m(3), m(4), m(5));
                out[..4].copy_from_slice(&[
                    [verts[0], m01, m02, m03],
                    [m01, verts[1], m12, m13],
                    [m02, m12, verts[2], m23],
                    [m03, m13, m23, verts[3]],
                ]);
                // Split the inner octahedron along its shortest diagonal for
                // better element quality. The three candidate diagonals pair
                // opposite midpoints.
                let len2 = |x: VertId, y: VertId| {
                    let px = self.mesh.vert_pos(x);
                    let py = self.mesh.vert_pos(y);
                    let d = [py[0] - px[0], py[1] - px[1], py[2] - px[2]];
                    d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
                };
                // (diagonal, equator cycle around it)
                let options = [
                    ((m01, m23), [m02, m03, m13, m12]),
                    ((m02, m13), [m01, m03, m23, m12]),
                    ((m03, m12), [m01, m02, m23, m13]),
                ];
                let (&(p, q), cycle) = options
                    .iter()
                    .map(|(d, c)| (d, c))
                    .min_by(|(d1, _), (d2, _)| len2(d1.0, d1.1).total_cmp(&len2(d2.0, d2.1)))
                    .unwrap();
                for k in 0..4 {
                    out[4 + k] = [p, q, cycle[k], cycle[(k + 1) % 4]];
                }
                8
            }
        };
        (out, n)
    }

    /// Validate everything: mesh incidence, forest structure, leaf↔element
    /// mapping (a leaf's vertices are its element's), an interior node's
    /// kept vertices live, and conformity (no live edge is also recorded as
    /// bisected; every bisection record's midpoint is live).
    pub fn validate(&self) {
        self.mesh.validate();
        self.forest.validate();
        for id in self.forest.iter() {
            match self.forest.elem(id) {
                Some(e) => {
                    assert!(self.mesh.elem_alive(e), "leaf node {id} points at dead {e}");
                    assert_eq!(
                        self.node_of_elem[e.idx()],
                        id,
                        "node_of_elem out of sync at {e}"
                    );
                }
                None => {
                    for v in self.forest.interior_verts(id) {
                        assert!(self.mesh.vert_alive(v), "interior {id} keeps dead {v}");
                    }
                }
            }
        }
        for e in self.mesh.elems() {
            let node = self.node_of_elem[e.idx()];
            assert_ne!(node, u32::MAX, "live element {e} has no forest node");
            assert_eq!(self.forest.elem(node), Some(e));
        }
        // Conformity: a pair recorded as bisected must not be a live edge,
        // and its midpoint must be live.
        for (key, m) in self.bisect_mid.iter() {
            let a = VertId((key & 0xffff_ffff) as u32);
            let b = VertId((key >> 32) as u32);
            assert!(
                self.mesh.vert_alive(VertId(m)),
                "bisection record with dead midpoint {m}"
            );
            assert!(
                self.mesh.edge_between(a, b).is_none(),
                "hanging node: edge ({a},{b}) live but bisected by vertex {m}"
            );
            assert_eq!(
                self.mid_parent.get(m as usize).copied().flatten(),
                Some((a, b))
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plum_mesh::generate::unit_box_mesh;

    #[test]
    fn edge_marks_cross_word_boundaries_and_grow() {
        let mesh = unit_box_mesh(1);
        let slots = mesh.edge_slots();
        assert!(slots < 63, "the test wants ids past the initial size");
        let mut marks = EdgeMarks::new(&mesh);
        let ids = [0usize, 5, 63, 64, 65, 127, 128, 1000];
        for &i in ids.iter().rev() {
            assert!(!marks.is_marked(EdgeId::from_idx(i)), "edge {i} before");
            assert!(marks.mark(EdgeId::from_idx(i)), "edge {i} newly marked");
            assert!(!marks.mark(EdgeId::from_idx(i)), "edge {i} marked twice");
        }
        assert_eq!(marks.count(), ids.len());
        let seen: Vec<usize> = marks.iter().map(|e| e.idx()).collect();
        assert_eq!(seen, ids, "ascending, nothing else set");
        assert!(!marks.is_marked(EdgeId::from_idx(62)));
        assert!(!marks.is_marked(EdgeId::from_idx(100_000)), "past the end");
    }

    /// The threshold search as it was before its bracket ends kept their
    /// counts: it probes both ends again after the loop.
    fn threshold_reprobing_the_bracket(am: &AdaptiveMesh, error: &[f64], frac: f64) -> f64 {
        let mut vals: Vec<f64> = am.mesh.edges().map(|e| error[e.idx()]).collect();
        vals.sort_unstable_by(f64::total_cmp);
        let n = vals.len();
        let target = (n as f64 * frac).round() as usize;
        let value = |k: usize| match k {
            0 => f64::INFINITY,
            k if k >= n => f64::NEG_INFINITY,
            k => vals[n - k - 1],
        };
        if target == 0 {
            return f64::INFINITY;
        }
        let count_for = |k: usize| {
            if k == 0 {
                return 0;
            }
            let mut marks = am.mark_above(error, value(k));
            am.upgrade_to_fixpoint(&mut marks);
            marks.count()
        };
        let (mut lo, mut hi) = (0usize, target);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if count_for(mid) > target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let closer = target.abs_diff(count_for(lo)) <= target.abs_diff(count_for(hi));
        value(if closer { lo } else { hi })
    }

    /// The search reuses the counts its bracket ends were probed at and
    /// returns, to the bit, what re-probing them returned — on a 3×3×3 box
    /// with a scrambled error field, at fractions from none to all.
    #[test]
    fn threshold_search_is_pinned_on_a_fixture() {
        let am = AdaptiveMesh::new(unit_box_mesh(3));
        let error: Vec<f64> = (0..am.mesh.edge_slots() as u64)
            .map(|i| (i.wrapping_mul(2_654_435_761) % 1_000) as f64 / 1_000.0)
            .collect();
        for frac in [0.0, 0.004, 0.01, 0.05, 0.2, 0.33, 0.6, 0.9, 1.0] {
            let got = am.threshold_for_final_fraction(&error, frac);
            let want = threshold_reprobing_the_bracket(&am, &error, frac);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "frac {frac}: {got} vs {want}"
            );
        }
    }

    /// Extending a lower threshold's fixpoint reaches, edge for edge, what
    /// the full sweeps reach from scratch — on a mesh refined near one
    /// corner, so element sizes and patterns vary.
    #[test]
    fn extended_fixpoint_equals_the_swept_fixpoint() {
        let mut am = AdaptiveMesh::new(unit_box_mesh(3));
        let mut marks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            let mp = am.mesh.edge_midpoint(e);
            if mp[0] + mp[1] < 0.7 {
                marks.mark(e);
            }
        }
        am.upgrade_to_fixpoint(&mut marks);
        am.refine(&marks, &mut []);
        let error: Vec<f64> = (0..am.mesh.edge_slots() as u64)
            .map(|i| (i.wrapping_mul(2_654_435_761) % 1_000) as f64 / 1_000.0)
            .collect();
        let incident = am.mesh.edge_rows(ElemId(0), |e| e);
        let mut below = EdgeMarks::new(&am.mesh);
        for threshold in [0.999, 0.99, 0.97, 0.9, 0.8, 0.5, 0.2, -1.0] {
            let mut swept = am.mark_above(&error, threshold);
            am.upgrade_to_fixpoint(&mut swept);
            let want: Vec<EdgeId> = swept.iter().collect();
            let fresh = am.extend_fixpoint(&EdgeMarks::new(&am.mesh), &incident, &error, threshold);
            assert_eq!(
                fresh.iter().collect::<Vec<_>>(),
                want,
                "from none at {threshold}"
            );
            let chained = am.extend_fixpoint(&below, &incident, &error, threshold);
            assert_eq!(
                chained.iter().collect::<Vec<_>>(),
                want,
                "chained at {threshold}"
            );
            below = chained;
        }
        assert_eq!(
            below.count(),
            am.mesh.n_edges(),
            "the last threshold marks all"
        );
    }

    #[test]
    fn nan_error_value_does_not_panic_the_threshold_search() {
        let am = AdaptiveMesh::new(unit_box_mesh(2));
        let mut error: Vec<f64> = (0..am.mesh.edge_slots()).map(|i| i as f64).collect();
        error[3] = f64::NAN;
        let t = am.threshold_for_final_fraction(&error, 0.3);
        assert!(
            !t.is_nan(),
            "a NaN edge sorts above every threshold candidate"
        );
        let marked = am.mark_above(&error, t).count();
        assert!(marked > 0 && marked < am.mesh.n_edges(), "marked {marked}");
    }
}
