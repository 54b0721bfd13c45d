//! Distributed-mesh initialization and finalization (§3).
//!
//! *Initialization* distributes the global initial grid across processors,
//! defining local numbers for every object and shared-processor lists for
//! objects on partition boundaries (delegated to
//! `plum_mesh::extract_submeshes`).
//!
//! *Finalization* is the reverse: "connecting individual subgrids into one
//! global mesh. Each local object is first assigned a unique global number.
//! All processors then update their local data structures accordingly.
//! Finally, a gather operation is performed by a host processor to
//! concatenate the local data structures into a global mesh." Needed for
//! post-processing (visualization).

use std::collections::HashMap;

use plum_mesh::{SubMesh, TetMesh, VertId};
use plum_parsim::{makespan, spmd_with_args, MachineModel, Outbox};

/// Result of the finalization phase.
pub struct FinalizedMesh {
    /// The reassembled global mesh (host copy).
    pub mesh: TetMesh,
    /// Virtual time of the numbering + gather protocol.
    pub time: f64,
}

/// Per-rank message types used by the finalization protocol.
struct OwnedVerts {
    /// (shared-match key, position) per owned vertex, in local order.
    verts: Vec<(u64, [f64; 3])>,
}

/// The finalization phase, run as a real SPMD protocol:
///
/// 1. every rank counts the vertices it *owns* (lowest rank in the SPL wins
///    shared vertices) and an exclusive prefix scan assigns each rank its
///    global-id range;
/// 2. owners broadcast the new global ids of shared vertices to the other
///    ranks in the SPL (keyed by the vertex's original global id, which all
///    copies carry from initialization);
/// 3. every rank renumbers its element connectivity and a host gather
///    concatenates vertices and elements into one global mesh.
///
/// `subs` holds one submesh per rank, as the initialization phase
/// (`plum_mesh::extract_submeshes`) produced them.
pub fn finalize(subs: &[SubMesh], machine: MachineModel) -> FinalizedMesh {
    let nproc = subs.len();
    let results = spmd_with_args(
        nproc,
        machine,
        subs.iter().collect::<Vec<&SubMesh>>(),
        |comm, sub| {
            let rank = comm.rank() as u32;

            // --- step 1: ownership and the exclusive scan ---------------
            let owned: Vec<VertId> = sub
                .mesh
                .verts()
                .filter(|v| sub.vert_spl[v.idx()].iter().all(|&q| q > rank))
                .collect();
            let counts = comm.allgather(1, owned.len() as u64);
            let base: u64 = counts[..comm.rank()].iter().sum();

            // New global id for every owned local vertex.
            let mut new_gid: HashMap<VertId, u64> = HashMap::with_capacity(sub.mesh.n_verts());
            for (i, &v) in owned.iter().enumerate() {
                new_gid.insert(v, base + i as u64);
            }

            // --- step 2: owners tell SPL peers the ids of shared verts --
            // Keyed by the original global vertex id from initialization.
            // One run per peer, two words per (original id, new id) pair.
            let mut outgoing: Vec<(usize, (u64, u64))> = Vec::new();
            for &v in &owned {
                let pair = (sub.global_vert[v.idx()].0 as u64, new_gid[&v]);
                outgoing.extend(sub.vert_spl[v.idx()].iter().map(|&q| (q as usize, pair)));
            }
            outgoing.sort_by_key(|&(q, _)| q);
            let mut sends = Outbox::with_capacity(outgoing.len(), 0);
            sends.extend_grouped(outgoing, |run| 2 * run.len() as u64);
            let incoming = comm.alltoallv_sparse(&mut sends);
            let by_orig: HashMap<VertId, VertId> =
                sub.local_vert.iter().map(|(&g, &l)| (g, l)).collect();
            for &(orig, gid) in incoming.items() {
                let local = by_orig[&VertId(orig as u32)];
                let prev = new_gid.insert(local, gid);
                debug_assert!(prev.is_none(), "vertex numbered twice");
            }
            assert_eq!(
                new_gid.len(),
                sub.mesh.n_verts(),
                "rank {rank}: some vertices were never numbered"
            );

            // --- step 3: gather to the host -----------------------------
            let my_verts = OwnedVerts {
                verts: owned
                    .iter()
                    .map(|&v| (new_gid[&v], sub.mesh.vert_pos(v)))
                    .collect(),
            };
            let my_elems: Vec<[u64; 4]> = sub
                .mesh
                .elems()
                .map(|e| {
                    let vs = sub.mesh.elem_verts(e);
                    [
                        new_gid[&vs[0]],
                        new_gid[&vs[1]],
                        new_gid[&vs[2]],
                        new_gid[&vs[3]],
                    ]
                })
                .collect();
            let vert_words = my_verts.verts.len() as u64 * 4;
            let elem_words = my_elems.len() as u64 * 4;
            let gathered_verts = comm.gather(0, vert_words.max(1), my_verts);
            let gathered_elems = comm.gather(0, elem_words.max(1), my_elems);

            // Host assembles the global mesh.
            gathered_verts.map(|all_verts| {
                let all_elems = gathered_elems.unwrap();
                let total_verts: usize = all_verts.iter().map(|r| r.verts.len()).sum();
                let total_elems: usize = all_elems.iter().map(|r| r.len()).sum();
                let mut mesh = TetMesh::with_capacity(total_verts, total_elems * 2, total_elems);
                // Insert vertices in global-id order.
                let mut pos_of: Vec<Option<[f64; 3]>> = vec![None; total_verts];
                for r in &all_verts {
                    for &(gid, p) in &r.verts {
                        pos_of[gid as usize] = Some(p);
                    }
                }
                for (gid, p) in pos_of.into_iter().enumerate() {
                    let v =
                        mesh.add_vertex(p.unwrap_or_else(|| panic!("global id {gid} unassigned")));
                    debug_assert_eq!(v.idx(), gid);
                }
                for r in &all_elems {
                    for quad in r {
                        mesh.add_elem([
                            VertId(quad[0] as u32),
                            VertId(quad[1] as u32),
                            VertId(quad[2] as u32),
                            VertId(quad[3] as u32),
                        ]);
                    }
                }
                mesh
            })
        },
    );

    let time = makespan(&results);
    let mesh = results
        .into_iter()
        .find_map(|r| r.value)
        .expect("host rank produced the global mesh");
    FinalizedMesh { mesh, time }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plum_mesh::extract_submeshes;
    use plum_mesh::generate::unit_box_mesh;
    use plum_mesh::geometry::total_volume;

    fn slab_part(mesh: &TetMesh, nproc: usize) -> Vec<u32> {
        let mut part = vec![0u32; mesh.elem_slots()];
        for e in mesh.elems() {
            let c = plum_mesh::geometry::elem_centroid(mesh, e);
            part[e.idx()] = ((c[2] * nproc as f64) as u32).min(nproc as u32 - 1);
        }
        part
    }

    #[test]
    fn distribute_then_finalize_roundtrips() {
        let mesh = unit_box_mesh(3);
        for nproc in [1usize, 2, 4, 7] {
            let part = slab_part(&mesh, nproc);
            let subs = extract_submeshes(&mesh, &part, nproc);
            let fin = finalize(&subs, MachineModel::sp2());
            fin.mesh.validate();
            let a = mesh.counts();
            let b = fin.mesh.counts();
            assert_eq!(a.vertices, b.vertices, "nproc={nproc}");
            assert_eq!(a.elements, b.elements, "nproc={nproc}");
            assert_eq!(a.edges, b.edges, "nproc={nproc}");
            assert_eq!(
                mesh.boundary_faces().len(),
                fin.mesh.boundary_faces().len(),
                "nproc={nproc}"
            );
            let va = total_volume(&mesh);
            let vb = total_volume(&fin.mesh);
            assert!((va - vb).abs() < 1e-12, "volume {va} vs {vb}");
            if nproc > 1 {
                assert!(fin.time > 0.0);
            }
        }
    }

    #[test]
    fn shared_vertices_get_one_global_number() {
        // Total vertices after finalization equals the original count even
        // though shared copies exist on several ranks — i.e., dedup worked.
        let mesh = unit_box_mesh(2);
        let part = slab_part(&mesh, 3);
        let subs = extract_submeshes(&mesh, &part, 3);
        let copies: usize = subs.iter().map(|s| s.mesh.n_verts()).sum();
        assert!(
            copies > mesh.n_verts(),
            "slabs must share interface vertices"
        );
        let fin = finalize(&subs, MachineModel::zero());
        assert_eq!(fin.mesh.n_verts(), mesh.n_verts());
    }

    #[test]
    fn finalize_time_grows_with_rank_count() {
        let mesh = unit_box_mesh(3);
        let t2 = {
            let part = slab_part(&mesh, 2);
            finalize(&extract_submeshes(&mesh, &part, 2), MachineModel::sp2()).time
        };
        assert!(t2 > 0.0);
    }
}
