//! Mesh coarsening: remove refined families whose error has dropped, then
//! re-refine to restore a valid conforming mesh.
//!
//! The paper's rules (§3): if a child element has any edge marked for
//! coarsening, that element *and its siblings* are removed and their parent
//! is reinstated; edges cannot coarsen beyond the initial mesh; coarsening
//! happens in reverse refinement order (deepest families first); reinstated
//! parents have their patterns adjusted and are re-subdivided by invoking
//! the refinement procedure.

use plum_mesh::{PairMap, VertId, VertexField};

use crate::adaptive::{AdaptiveMesh, EdgeMarks, RefineStats};
use crate::forest::NodeId;

/// Statistics from one coarsening pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoarsenStats {
    /// Families (sibling groups) removed.
    pub families_removed: usize,
    /// Child elements removed from the computational mesh.
    pub elems_removed: usize,
    /// Parent elements reinstated.
    pub elems_reinstated: usize,
    /// Orphaned edges purged.
    pub edges_purged: usize,
    /// Orphaned (midpoint) vertices purged.
    pub verts_purged: usize,
    /// Stats of the conformity re-refinement pass.
    pub rerefine: RefineStats,
}

impl AdaptiveMesh {
    /// Coarsen according to `coarse_marks` (edges targeted for removal),
    /// then re-refine for validity. Returns the combined statistics.
    pub fn coarsen(
        &mut self,
        coarse_marks: &EdgeMarks,
        fields: &mut [VertexField],
    ) -> CoarsenStats {
        let mut stats = CoarsenStats::default();

        // The marked edges live at entry. Phase 1 frees no edge slot, so a
        // marked slot keeps its edge throughout, and a slot that a
        // reinstated parent's new edge takes was dead at entry: unmarked.
        let mut marked = EdgeMarks::new(&self.mesh);
        for e in coarse_marks.iter().filter(|&e| self.mesh.edge_alive(e)) {
            marked.mark(e);
        }
        if marked.count() == 0 {
            return stats;
        }

        // Phase 1: delete families, deepest-first, cascading upward.
        loop {
            let candidates: Vec<NodeId> = self
                .forest
                .iter()
                .filter(|&id| self.family_is_coarsenable(id, &marked))
                .collect();
            if candidates.is_empty() {
                break;
            }
            for node in candidates {
                // A cascade in this round may have altered the family; recheck.
                if self.family_is_coarsenable(node, &marked) {
                    self.delete_family(node, &mut stats);
                }
            }
        }

        // Phase 2: purge orphaned edges, then orphaned midpoint vertices.
        for e in self.mesh.edges().collect::<Vec<_>>() {
            if self.mesh.edge_degree(e) == 0 {
                self.mesh.remove_edge(e);
                stats.edges_purged += 1;
            }
        }
        for v in self.mesh.verts().collect::<Vec<_>>() {
            if self.mesh.vert_degree(v) == 0 {
                let (a, b) = self
                    .mid_parent
                    .get_mut(v.idx())
                    .and_then(Option::take)
                    .expect("only midpoint vertices can be orphaned");
                let removed = self.bisect_mid.remove(PairMap::pair_key(a.0, b.0));
                debug_assert_eq!(removed, Some(v.0));
                self.mesh.remove_vertex(v);
                stats.verts_purged += 1;
            }
        }

        // Phase 3: re-refine. Reinstated parents adjacent to still-refined
        // neighbours have hanging midpoints on some of their edges; those
        // edges are forced back into the marking and the ordinary refinement
        // procedure restores conformity.
        let mut forced = EdgeMarks::new(&self.mesh);
        for (key, _mid) in self.bisect_mid.iter().collect::<Vec<_>>() {
            let a = VertId((key & 0xffff_ffff) as u32);
            let b = VertId((key >> 32) as u32);
            if let Some(e) = self.mesh.edge_between(a, b) {
                forced.mark(e);
            }
        }
        self.upgrade_to_fixpoint(&mut forced);
        stats.rerefine = self.refine(&forced, fields);
        stats
    }

    /// A family rooted at `id` can coarsen when all children are leaves (so
    /// deeper refinement coarsens first) and any child element carries a
    /// marked edge. Roots themselves are never deleted, so the initial mesh
    /// is the coarsening floor.
    fn family_is_coarsenable(&self, id: NodeId, marked: &EdgeMarks) -> bool {
        let forest = &self.forest;
        if forest.is_leaf(id) || !forest.children(id).all(|c| forest.is_leaf(c)) {
            return false;
        }
        forest.children(id).any(|c| {
            let elem = forest.elem(c).expect("leaf without element");
            self.mesh
                .elem_edges(elem)
                .iter()
                .any(|&e| marked.is_marked(e))
        })
    }

    fn delete_family(&mut self, node: NodeId, stats: &mut CoarsenStats) {
        for c in self.forest.children(node) {
            let elem = self
                .forest
                .elem(c)
                .expect("coarsenable family child must be a leaf");
            self.mesh.remove_elem(elem);
            self.node_of_elem[elem.idx()] = u32::MAX;
            stats.elems_removed += 1;
        }
        // Reinstate the parent as a leaf of the computational mesh.
        let mesh = &mut self.mesh;
        let e = self
            .forest
            .remove_family(node, |verts| mesh.add_elem(verts));
        self.set_node_of_elem(e, node);
        stats.families_removed += 1;
        stats.elems_reinstated += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plum_mesh::generate::unit_box_mesh;
    use plum_mesh::geometry::total_volume;
    use plum_mesh::TetMesh;

    fn refined_single_tet() -> AdaptiveMesh {
        let mut m = TetMesh::new();
        let v0 = m.add_vertex([0.0, 0.0, 0.0]);
        let v1 = m.add_vertex([1.0, 0.0, 0.0]);
        let v2 = m.add_vertex([0.0, 1.0, 0.0]);
        let v3 = m.add_vertex([0.0, 0.0, 1.0]);
        m.add_elem([v0, v1, v2, v3]);
        let mut am = AdaptiveMesh::new(m);
        let mut marks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            marks.mark(e);
        }
        am.refine(&marks, &mut []);
        am
    }

    #[test]
    fn coarsen_undoes_isotropic_refinement() {
        let mut am = refined_single_tet();
        assert_eq!(am.mesh.n_elems(), 8);
        // Target everything for coarsening.
        let mut marks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            marks.mark(e);
        }
        let stats = am.coarsen(&marks, &mut []);
        assert_eq!(stats.families_removed, 1);
        assert_eq!(stats.elems_removed, 8);
        assert_eq!(am.mesh.n_elems(), 1, "back to the initial tet");
        assert_eq!(am.mesh.n_verts(), 4, "midpoints must be purged");
        assert_eq!(am.mesh.n_edges(), 6);
        assert_eq!(stats.verts_purged, 6);
        am.validate();
        assert_eq!(am.n_tree_nodes(), 1);
    }

    #[test]
    fn coarsening_never_removes_initial_elements() {
        let m = unit_box_mesh(2);
        let n0 = m.n_elems();
        let mut am = AdaptiveMesh::new(m);
        // Nothing refined: coarsening everything is a no-op.
        let mut marks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            marks.mark(e);
        }
        let stats = am.coarsen(&marks, &mut []);
        assert_eq!(stats.families_removed, 0);
        assert_eq!(am.mesh.n_elems(), n0);
        am.validate();
    }

    #[test]
    fn partial_coarsening_restores_conformity() {
        // Refine the whole 2×2×2 box isotropically, then coarsen only the
        // corner region; the re-refinement phase must keep the mesh valid.
        let m = unit_box_mesh(2);
        let mut am = AdaptiveMesh::new(m);
        let mut marks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            marks.mark(e);
        }
        am.upgrade_to_fixpoint(&mut marks);
        am.refine(&marks, &mut []);
        am.validate();
        let refined_elems = am.mesh.n_elems();
        assert_eq!(refined_elems, 8 * 48);

        let mut cmarks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            let mp = am.mesh.edge_midpoint(e);
            if mp[0] < 0.3 && mp[1] < 0.3 && mp[2] < 0.3 {
                cmarks.mark(e);
            }
        }
        let stats = am.coarsen(&cmarks, &mut []);
        assert!(stats.families_removed > 0);
        am.validate(); // conformity (no hanging nodes) is checked here
        assert!((total_volume(&am.mesh) - 1.0).abs() < 1e-12);
        assert!(am.mesh.n_elems() <= refined_elems);
    }

    #[test]
    fn refine_coarsen_roundtrip_preserves_counts() {
        let m = unit_box_mesh(2);
        let c0 = m.counts();
        let faces0 = m.boundary_faces().len();
        let mut am = AdaptiveMesh::new(m);
        let mut marks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            marks.mark(e);
        }
        am.upgrade_to_fixpoint(&mut marks);
        am.refine(&marks, &mut []);
        let mut cmarks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            cmarks.mark(e);
        }
        am.coarsen(&cmarks, &mut []);
        let c1 = am.mesh.counts();
        assert_eq!(c0.elements, c1.elements);
        assert_eq!(c0.vertices, c1.vertices);
        assert_eq!(c0.edges, c1.edges);
        assert_eq!(faces0, am.mesh.boundary_faces().len());
        am.validate();
    }

    #[test]
    fn deep_coarsening_cascades_through_levels() {
        let mut am = refined_single_tet();
        // Refine once more (level 2) everywhere.
        let mut marks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            marks.mark(e);
        }
        am.upgrade_to_fixpoint(&mut marks);
        am.refine(&marks, &mut []);
        assert_eq!(am.max_level(), 2);
        assert_eq!(am.mesh.n_elems(), 64);
        // Coarsening proceeds in reverse refinement order: one level per
        // invocation, because the marks live on the current (finest) edges.
        let mut cmarks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            cmarks.mark(e);
        }
        let stats = am.coarsen(&cmarks, &mut []);
        assert_eq!(stats.families_removed, 8, "the eight level-2 families");
        assert_eq!(am.mesh.n_elems(), 8);
        assert_eq!(am.max_level(), 1);
        am.validate();

        // A second coarsening step on the coarser mesh unwinds level 1.
        let mut cmarks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            cmarks.mark(e);
        }
        let stats = am.coarsen(&cmarks, &mut []);
        assert_eq!(stats.families_removed, 1);
        assert_eq!(am.mesh.n_elems(), 1);
        assert_eq!(am.max_level(), 0);
        am.validate();
    }
}
