//! Mesh refinement: subdivide every leaf element according to its (legal)
//! marking pattern.

use plum_mesh::{ElemId, VertId, VertexField};

use crate::adaptive::{AdaptiveMesh, EdgeMarks, RefineStats};
use crate::pattern::classify;

impl AdaptiveMesh {
    /// Subdivide the mesh according to `marks`, which must be at an upgrade
    /// fixpoint (every element pattern legal — call
    /// [`AdaptiveMesh::upgrade_to_fixpoint`] first). Solution `fields` are
    /// linearly interpolated at every new midpoint.
    ///
    /// After this call the computational mesh is again conforming: every
    /// bisected edge has been replaced by its two halves in *all* elements
    /// that shared it. When subdivision happens next to a region refined two
    /// or more levels deeper (which arises when coarsening reinstates a
    /// parent), a single pass creates child edges that coincide with
    /// still-bisected pairs; those hanging edges are marked and subdivided in
    /// further rounds until the mesh conforms.
    pub fn refine(&mut self, marks: &EdgeMarks, fields: &mut [VertexField]) -> RefineStats {
        let mut total = RefineStats::default();
        let mut current = marks.clone();
        let mut round = 0;
        loop {
            round += 1;
            assert!(
                round <= 64,
                "refinement did not converge to a conforming mesh"
            );
            let stats = self.refine_pass(&current, fields);
            total.elems_subdivided += stats.elems_subdivided;
            total.elems_created += stats.elems_created;
            total.edges_bisected += stats.edges_bisected;
            total.verts_created += stats.verts_created;

            // Hanging nodes: a pair still recorded as bisected while its full
            // edge is live. Mark those edges and go again.
            let mut next = EdgeMarks::new(&self.mesh);
            let mut any = false;
            for (key, _mid) in self.bisect_mid.iter().collect::<Vec<_>>() {
                let a = plum_mesh::VertId((key & 0xffff_ffff) as u32);
                let b = plum_mesh::VertId((key >> 32) as u32);
                if let Some(e) = self.mesh.edge_between(a, b) {
                    next.mark(e);
                    any = true;
                }
            }
            if !any {
                break;
            }
            self.upgrade_to_fixpoint(&mut next);
            current = next;
        }
        total
    }

    fn refine_pass(&mut self, marks: &EdgeMarks, fields: &mut [VertexField]) -> RefineStats {
        let mut stats = RefineStats::default();

        // Snapshot the work list: live elements with non-empty patterns.
        let work: Vec<(ElemId, u8)> = self
            .mesh
            .elems()
            .map(|e| (e, self.elem_pattern(e, marks)))
            .filter(|&(_, p)| p != 0)
            .collect();

        // Record the vertex pairs being bisected so the parent edges can be
        // retired afterwards.
        let mut bisected_pairs: Vec<(VertId, VertId)> = Vec::new();
        for &eid in marks.iter().collect::<Vec<_>>().iter() {
            if self.mesh.edge_alive(eid) {
                let [a, b] = self.mesh.edge_verts(eid);
                bisected_pairs.push((a, b));
            }
        }

        for (elem, pattern) in work {
            let kind = classify(pattern).unwrap_or_else(|| {
                panic!("illegal pattern {pattern:#08b} on {elem}: marks not upgraded")
            });
            let verts = self.mesh.elem_verts(elem);

            // Create/look up midpoints of the marked edges.
            let mut mid: [Option<VertId>; 6] = [None; 6];
            for (k, &(i, j)) in plum_mesh::LOCAL_EDGE_VERTS.iter().enumerate() {
                if pattern & (1 << k) != 0 {
                    mid[k] = Some(self.midpoint(verts[i], verts[j], fields, &mut stats));
                }
            }

            let (children, n_children) = self.child_tets(kind, verts, mid);
            debug_assert_eq!(n_children, kind.n_children());

            // Retire the parent from the computational mesh; keep it in the
            // forest as an interior node.
            let node = self.node_of_elem[elem.idx()];
            self.mesh.remove_elem(elem);
            self.node_of_elem[elem.idx()] = u32::MAX;

            let mut elems = [ElemId(0); 8];
            for (ce, &cv) in elems.iter_mut().zip(&children[..n_children]) {
                *ce = self.mesh.add_elem(cv);
            }
            let elems = &elems[..n_children];
            let nodes = self.forest.add_family(node, pattern, verts, elems);
            for (&ce, &cnode) in elems.iter().zip(&nodes) {
                self.set_node_of_elem(ce, cnode);
            }
            stats.elems_created += n_children;
            stats.elems_subdivided += 1;
        }

        // Retire bisected parent edges. An edge still in use here is a
        // hanging pair created by cross-level subdivision; the outer refine
        // loop marks it for the next round.
        for (a, b) in bisected_pairs {
            if let Some(e) = self.mesh.edge_between(a, b) {
                if self.mesh.edge_degree(e) == 0 {
                    self.mesh.remove_edge(e);
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveMesh;
    use plum_mesh::generate::unit_box_mesh;
    use plum_mesh::{geometry, TetMesh};

    fn single_tet_amesh() -> AdaptiveMesh {
        let mut m = TetMesh::new();
        let v0 = m.add_vertex([0.0, 0.0, 0.0]);
        let v1 = m.add_vertex([1.0, 0.0, 0.0]);
        let v2 = m.add_vertex([0.0, 1.0, 0.0]);
        let v3 = m.add_vertex([0.0, 0.0, 1.0]);
        m.add_elem([v0, v1, v2, v3]);
        AdaptiveMesh::new(m)
    }

    #[test]
    fn one_to_two_bisection() {
        let mut am = single_tet_amesh();
        let vol_before = geometry::total_volume(&am.mesh);
        let mut marks = EdgeMarks::new(&am.mesh);
        let e = am.mesh.edges().next().unwrap();
        marks.mark(e);
        let stats = am.refine(&marks, &mut []);
        assert_eq!(stats.elems_subdivided, 1);
        assert_eq!(stats.elems_created, 2);
        assert_eq!(stats.verts_created, 1);
        assert_eq!(am.mesh.n_elems(), 2);
        assert_eq!(am.mesh.n_verts(), 5);
        am.validate();
        let vol_after = geometry::total_volume(&am.mesh);
        assert!(
            (vol_before - vol_after).abs() < 1e-12,
            "volume must be preserved"
        );
        let (wc, wr) = am.weights();
        assert_eq!(wc, vec![2]);
        assert_eq!(wr, vec![3]);
    }

    #[test]
    fn one_to_four_face_subdivision() {
        let mut am = single_tet_amesh();
        let vol_before = geometry::total_volume(&am.mesh);
        let mut marks = EdgeMarks::new(&am.mesh);
        // Mark the three edges of local face 0 (edges 3, 4, 5).
        let elem = am.mesh.elems().next().unwrap();
        let edges = am.mesh.elem_edges(elem);
        for k in [3, 4, 5] {
            marks.mark(edges[k]);
        }
        assert!(am.marks_are_legal(&marks));
        let stats = am.refine(&marks, &mut []);
        assert_eq!(stats.elems_created, 4);
        assert_eq!(am.mesh.n_elems(), 4);
        assert_eq!(am.mesh.n_verts(), 7);
        am.validate();
        assert!((geometry::total_volume(&am.mesh) - vol_before).abs() < 1e-12);
    }

    #[test]
    fn one_to_eight_isotropic() {
        let mut am = single_tet_amesh();
        let vol_before = geometry::total_volume(&am.mesh);
        let mut marks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            marks.mark(e);
        }
        let stats = am.refine(&marks, &mut []);
        assert_eq!(stats.elems_created, 8);
        assert_eq!(stats.verts_created, 6);
        assert_eq!(am.mesh.n_elems(), 8);
        assert_eq!(am.mesh.n_verts(), 10);
        am.validate();
        assert!((geometry::total_volume(&am.mesh) - vol_before).abs() < 1e-12);
        for e in am.mesh.elems() {
            assert!(
                geometry::elem_volume(&am.mesh, e) > 1e-9,
                "child {e} is degenerate"
            );
        }
        let (wc, wr) = am.weights();
        assert_eq!(wc, vec![8]);
        assert_eq!(wr, vec![9]);
    }

    #[test]
    fn solution_is_interpolated_at_midpoints() {
        let mut am = single_tet_amesh();
        let mut field = VertexField::new(1, am.mesh.n_verts());
        // f(x,y,z) = x + 2y + 3z is linear, so interpolation is exact.
        for v in am.mesh.verts().collect::<Vec<_>>() {
            let p = am.mesh.vert_pos(v);
            field.set(v, &[p[0] + 2.0 * p[1] + 3.0 * p[2]]);
        }
        let mut marks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            marks.mark(e);
        }
        let mut fields = [field];
        am.refine(&marks, &mut fields);
        for v in am.mesh.verts() {
            let p = am.mesh.vert_pos(v);
            let want = p[0] + 2.0 * p[1] + 3.0 * p[2];
            assert!(
                (fields[0].comp(v, 0) - want).abs() < 1e-12,
                "vertex {v}: field {} ≠ {want}",
                fields[0].comp(v, 0)
            );
        }
    }

    #[test]
    fn propagation_keeps_mesh_conforming() {
        let m = unit_box_mesh(2);
        let mut am = AdaptiveMesh::new(m);
        let vol_before = geometry::total_volume(&am.mesh);
        // Mark all edges of a single element for isotropic refinement;
        // upgrading must propagate through neighbours until legal everywhere.
        let elem = am.mesh.elems().next().unwrap();
        let mut marks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.elem_edges(elem) {
            marks.mark(e);
        }
        am.upgrade_to_fixpoint(&mut marks);
        assert!(am.marks_are_legal(&marks));
        let stats = am.refine(&marks, &mut []);
        assert!(stats.elems_created >= 8);
        am.validate(); // includes the hanging-node check
        assert!((geometry::total_volume(&am.mesh) - vol_before).abs() < 1e-12);
    }

    #[test]
    fn prediction_matches_actual_counts() {
        let m = unit_box_mesh(3);
        let mut am = AdaptiveMesh::new(m);
        // Mark ~20% of edges pseudo-randomly but deterministically.
        let mut marks = EdgeMarks::new(&am.mesh);
        for (i, e) in am.mesh.edges().collect::<Vec<_>>().into_iter().enumerate() {
            if i % 5 == 0 {
                marks.mark(e);
            }
        }
        am.upgrade_to_fixpoint(&mut marks);
        let pred = am.predict(&marks);
        am.refine(&marks, &mut []);
        am.validate();
        let (wc, wr) = am.weights();
        assert_eq!(pred.wcomp, wc, "predicted wcomp must be exact");
        assert_eq!(pred.wremap, wr, "predicted wremap must be exact");
        assert_eq!(pred.total_elements as usize, am.mesh.n_elems());
        assert!(pred.growth_factor > 1.0 && pred.growth_factor <= 8.0);
    }

    #[test]
    fn two_refinement_levels() {
        let m = unit_box_mesh(2);
        let mut am = AdaptiveMesh::new(m);
        for _ in 0..2 {
            let mut marks = EdgeMarks::new(&am.mesh);
            // Refine everything near the origin corner.
            for e in am.mesh.edges().collect::<Vec<_>>() {
                let mp = am.mesh.edge_midpoint(e);
                if mp[0] + mp[1] + mp[2] < 0.8 {
                    marks.mark(e);
                }
            }
            am.upgrade_to_fixpoint(&mut marks);
            am.refine(&marks, &mut []);
            am.validate();
        }
        assert_eq!(am.max_level(), 2);
        assert!((plum_mesh::geometry::total_volume(&am.mesh) - 1.0).abs() < 1e-12);
    }
}
