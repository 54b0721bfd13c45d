//! Physical data remapping: pack refinement trees and solution data into
//! byte buffers, ship them between ranks, rebuild on arrival.
//!
//! When a dual-graph vertex (an initial element with its whole refinement
//! tree) is reassigned, everything in the tree moves with it — that is why
//! the remapping weight is the total tree size. A rank packs one buffer per
//! destination: a vertex table — the count, then every vertex the departing
//! tree nodes reference, once, strictly ascending by id, with its solution
//! vector — followed by one record per tree node: root id, level,
//! subdivision pattern and the four vertex ids. Each buffer travels as one
//! direct message ([`Comm::alltoallv_direct`]), so a word crosses the wire
//! once, in one message per (source, destination) pair — the structure the
//! paper's `M·C·T_lat + N·T_setup` prices.

use std::collections::{BTreeMap, HashMap};

use plum_adapt::{AdaptiveMesh, NodeId};
use plum_mesh::{VertId, VertexField};
use plum_parsim::{makespan, spmd, Comm, MachineModel};
use plum_partition::RankLists;
use plum_remap::{Packer, Unpacker};

/// Outcome of a parallel migration phase.
#[derive(Debug, Clone)]
pub struct MigrationOutcome {
    /// Virtual wall time of the migration (max over ranks).
    pub time: f64,
    /// Tree nodes (elements incl. interior tree nodes) actually packed and
    /// shipped.
    pub elems_moved: u64,
    /// Words on the wire: each buffer's vertex table (a vertex's id and
    /// solution once per destination) and its 22-byte node records, sent
    /// once, plus the exchange's one-word destination notices.
    pub words_moved: u64,
    /// Messages sent with payload: one per (source, destination) pair, the
    /// paper's `N`.
    pub msgs: u64,
    /// Elements received per rank (for auditing against the similarity
    /// matrix).
    pub received_per_rank: Vec<u64>,
}

/// Per-rank value of the remap stage body: `(packed tree nodes, received
/// tree nodes, messages, words sent, roots of the trees received,
/// ascending)`. Word counts are deltas, so the body can run under a
/// [`plum_parsim::Session`] step with cumulative counters.
pub(crate) type MigrateValue = (u64, u64, u64, u64, Vec<u32>);

/// Pack the tree nodes `nodes` bound for one destination: the vertex table
/// (sorted and deduplicated ids, each with its solution), then the node
/// records.
fn pack_buffer(am: &AdaptiveMesh, field: &VertexField, nodes: &[NodeId]) -> Packer {
    let forest = am.forest();
    let mut verts: Vec<u32> = nodes
        .iter()
        .flat_map(|&id| am.node_verts(id).map(|v| v.0))
        .collect();
    verts.sort_unstable();
    verts.dedup();
    let mut p = Packer::new();
    p.put_u32(verts.len() as u32);
    for &v in &verts {
        p.put_u32(v);
        p.put_f64_slice(field.get(VertId(v)));
    }
    for &id in nodes {
        p.put_u32(forest.root(id));
        p.put_u8(forest.level(id));
        p.put_u8(forest.pattern(id));
        for v in am.node_verts(id) {
            p.put_u32(v.0);
        }
    }
    p
}

/// Unpack and validate one received buffer, counting its tree nodes per
/// root into `roots`. Every table solution has `ncomp` components and
/// names a live vertex, the table is strictly ascending, and every vertex
/// a node references is in the table. Returns the number of nodes.
fn unpack_buffer(
    am: &AdaptiveMesh,
    ncomp: usize,
    buf: &[u8],
    roots: &mut HashMap<u32, u64>,
) -> u64 {
    let mut u = Unpacker::new(buf);
    let nverts = u.get_u32() as usize;
    let mut table: Vec<u32> = Vec::with_capacity(nverts);
    for _ in 0..nverts {
        let vert = u.get_u32();
        if let Some(&prev) = table.last() {
            assert!(
                prev < vert,
                "vertex table not strictly ascending: vertex {vert} after {prev}"
            );
        }
        let sol = u.get_f64_slice();
        assert_eq!(sol.len(), ncomp, "solution record corrupt");
        assert!(
            am.mesh.vert_alive(VertId(vert)),
            "migrated record references dead vertex {vert}"
        );
        table.push(vert);
    }
    let mut received = 0;
    while !u.is_exhausted() {
        let root = u.get_u32();
        let _level = u.get_u8();
        let _pattern = u.get_u8();
        for _ in 0..4 {
            let vert = u.get_u32();
            assert!(
                table.binary_search(&vert).is_ok(),
                "tree {root} references vertex {vert}, which is not in the vertex table"
            );
        }
        *roots.entry(root).or_insert(0) += 1;
        received += 1;
    }
    received
}

/// The remap stage body for one rank, which currently owns the trees
/// `mine`, whose new processors are `my_new_proc` (the rank's answer from
/// the reassignment step): pack my departing trees, send each destination
/// its buffer, unpack and validate arrivals. Whether each tree reached the
/// right rank is checked host-side, by [`migration_outcome_from`].
pub(crate) fn migrate_body(
    comm: &mut Comm,
    am: &AdaptiveMesh,
    field: &VertexField,
    mine: &[u32],
    my_new_proc: &[u32],
) -> MigrateValue {
    let ncomp = field.ncomp();
    let words0 = comm.sent_words();
    comm.phase_begin("remap");
    let rank = comm.rank() as u32;

    // The departing tree nodes per destination rank, ascending by
    // destination.
    let mut departing: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
    for (&v, &to) in mine.iter().zip(my_new_proc) {
        if to != rank {
            let nodes = departing.entry(to as usize).or_default();
            nodes.extend(am.forest().subtree_of_root(v));
        }
    }
    let packed_elems = departing.values().map(|nodes| nodes.len() as u64).sum();
    let msgs = departing.len() as u64;
    let items: Vec<(usize, u64, Vec<u8>)> = departing
        .into_iter()
        .map(|(dst, nodes)| {
            let p = pack_buffer(am, field, &nodes);
            (dst, p.words(), p.finish())
        })
        .collect();
    let incoming = comm.alltoallv_direct(items);

    let mut received = 0u64;
    let mut received_roots: HashMap<u32, u64> = HashMap::new();
    for (_src, buf) in incoming {
        received += unpack_buffer(am, ncomp, &buf, &mut received_roots);
    }
    // Each received tree must arrive whole: as many nodes as the forest
    // counts under its root.
    let wremap = am.forest().wremap();
    for (root, count) in &received_roots {
        let expect = wremap[*root as usize];
        assert_eq!(*count, expect, "tree {root} arrived fragmented");
    }
    let mut roots: Vec<u32> = received_roots.into_keys().collect();
    roots.sort_unstable();

    comm.phase_end("remap");
    (
        packed_elems,
        received,
        msgs,
        comm.sent_words() - words0,
        roots,
    )
}

/// Assemble a [`MigrationOutcome`] out of the per-rank stage values, in
/// rank order, checking conservation and routing: rank `r` must have
/// received exactly the trees `{v : new_proc[v] = r ≠ old_proc[v]}`. `time`
/// is the caller's phase duration — the makespan under [`spmd`], or the
/// session-step duration under the engine.
pub(crate) fn migration_outcome_from(
    values: impl IntoIterator<Item = MigrateValue>,
    time: f64,
    old_proc: &[u32],
    new_proc: &[u32],
) -> MigrationOutcome {
    let mut outcome = MigrationOutcome {
        time,
        elems_moved: 0,
        words_moved: 0,
        msgs: 0,
        received_per_rank: Vec::new(),
    };
    let mut arrived = 0usize;
    for (rank, (packed, received, msgs, words, roots)) in values.into_iter().enumerate() {
        outcome.elems_moved += packed;
        outcome.received_per_rank.push(received);
        outcome.msgs += msgs;
        outcome.words_moved += words;
        // A rank's roots are distinct, so checking each one's destination
        // and then the count checks the set.
        for v in roots {
            let (from, to) = (old_proc[v as usize], new_proc[v as usize]);
            assert!(
                to as usize == rank && from != to,
                "rank {rank} received tree {v} destined for {to} (was on {from})"
            );
            arrived += 1;
        }
    }
    let moved = old_proc
        .iter()
        .zip(new_proc)
        .filter(|(a, b)| a != b)
        .count();
    assert_eq!(arrived, moved, "trees lost in flight");
    // Conservation: everything packed is received somewhere.
    let total_received: u64 = outcome.received_per_rank.iter().sum();
    assert_eq!(
        outcome.elems_moved, total_received,
        "elements lost in flight"
    );
    outcome
}

/// Migrate every dual vertex whose assignment changed from `old_proc` to
/// `new_proc`. Data is genuinely serialized, transmitted through the
/// simulated machine, deserialized, and validated on the receiving rank.
pub fn parallel_migrate(
    am: &AdaptiveMesh,
    field: &VertexField,
    old_proc: &[u32],
    new_proc: &[u32],
    nproc: usize,
    machine: MachineModel,
) -> MigrationOutcome {
    let lists = RankLists::build(old_proc, nproc);
    let results = spmd(nproc, machine, |comm| {
        let mine = lists.mine(comm.rank());
        let my_new_proc: Vec<u32> = mine.iter().map(|&v| new_proc[v as usize]).collect();
        migrate_body(comm, am, field, mine, &my_new_proc)
    });
    let time = makespan(&results);
    let values = results.into_iter().map(|r| r.value);
    migration_outcome_from(values, time, old_proc, new_proc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plum_adapt::EdgeMarks;
    use plum_mesh::generate::unit_box_mesh;

    fn refined_amesh() -> (AdaptiveMesh, VertexField) {
        let mesh = unit_box_mesh(2);
        let mut am = AdaptiveMesh::new(mesh);
        let mut field = VertexField::new(2, am.mesh.vert_slots());
        for v in am.mesh.verts().collect::<Vec<_>>() {
            let p = am.mesh.vert_pos(v);
            field.set(v, &[p[0], p[1] + p[2]]);
        }
        // Refine the corner so trees have different sizes.
        let mut marks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            let mp = am.mesh.edge_midpoint(e);
            if mp[0] < 0.5 {
                marks.mark(e);
            }
        }
        am.upgrade_to_fixpoint(&mut marks);
        let mut fields = [field];
        am.refine(&marks, &mut fields);
        let [field] = fields;
        (am, field)
    }

    #[test]
    fn no_change_means_no_movement() {
        let (am, field) = refined_amesh();
        let proc = vec![0u32; am.n_roots()];
        let out = parallel_migrate(&am, &field, &proc, &proc, 2, MachineModel::sp2());
        assert_eq!(out.elems_moved, 0);
        assert_eq!(out.msgs, 0);
    }

    #[test]
    fn full_swap_moves_every_tree_node() {
        let (am, field) = refined_amesh();
        let n = am.n_roots();
        let old: Vec<u32> = (0..n).map(|v| (v % 2) as u32).collect();
        let new: Vec<u32> = (0..n).map(|v| ((v + 1) % 2) as u32).collect();
        let out = parallel_migrate(&am, &field, &old, &new, 2, MachineModel::sp2());
        assert_eq!(
            out.elems_moved,
            am.n_tree_nodes() as u64,
            "every tree node must move in a full swap"
        );
        assert!(out.time > 0.0);
        assert!(
            out.words_moved > out.elems_moved,
            "records are multiple words"
        );
        assert_eq!(out.msgs, 2);
    }

    #[test]
    fn movement_volume_matches_wremap() {
        let (am, field) = refined_amesh();
        let n = am.n_roots();
        let (_, wremap) = am.weights();
        // Move only roots 0..n/4 from rank 0 to rank 1.
        let old = vec![0u32; n];
        let mut new = vec![0u32; n];
        let mut expected = 0u64;
        for v in 0..n / 4 {
            new[v] = 1;
            expected += wremap[v];
        }
        let out = parallel_migrate(&am, &field, &old, &new, 2, MachineModel::sp2());
        assert_eq!(
            out.elems_moved, expected,
            "moved volume must equal the Wremap of reassigned dual vertices"
        );
        assert_eq!(out.received_per_rank, vec![0, expected]);
    }

    /// Rank 0 ships tree 0 to rank 2 although the host mapped it to rank 1:
    /// the host-side routing check catches the stray tree.
    #[test]
    #[should_panic(expected = "rank 2 received tree 0 destined for 1")]
    fn a_tree_routed_to_the_wrong_rank_panics() {
        let (am, field) = refined_amesh();
        let old = vec![0u32; am.n_roots()];
        let mut new = old.clone();
        new[0] = 1;
        let lists = RankLists::build(&old, 3);
        let results = spmd(3, MachineModel::sp2(), |comm| {
            let mine = lists.mine(comm.rank());
            let mut to: Vec<u32> = mine.iter().map(|&v| new[v as usize]).collect();
            if comm.rank() == 0 {
                to[0] = 2;
            }
            migrate_body(comm, &am, &field, mine, &to)
        });
        migration_outcome_from(results.into_iter().map(|r| r.value), 0.0, &old, &new);
    }

    /// A tree that never leaves its rank is as wrong as one sent astray.
    #[test]
    #[should_panic(expected = "trees lost in flight")]
    fn a_tree_that_stays_behind_panics() {
        let (am, field) = refined_amesh();
        let old = vec![0u32; am.n_roots()];
        let mut new = old.clone();
        new[0] = 1;
        let lists = RankLists::build(&old, 2);
        let results = spmd(2, MachineModel::sp2(), |comm| {
            let mine = lists.mine(comm.rank());
            migrate_body(comm, &am, &field, mine, &vec![0; mine.len()])
        });
        migration_outcome_from(results.into_iter().map(|r| r.value), 0.0, &old, &new);
    }

    /// A buffer with the vertex table `table` (ids as given, each with its
    /// solution) and one tree-0 node record referencing `refs`.
    fn hand_packed(field: &VertexField, table: &[u32], refs: [u32; 4]) -> Vec<u8> {
        let mut p = Packer::new();
        p.put_u32(table.len() as u32);
        for &v in table {
            p.put_u32(v);
            p.put_f64_slice(field.get(VertId(v)));
        }
        p.put_u32(0);
        p.put_u8(0);
        p.put_u8(0);
        for v in refs {
            p.put_u32(v);
        }
        p.finish()
    }

    #[test]
    #[should_panic(expected = "tree 0 references vertex 7, which is not in the vertex table")]
    fn a_node_vertex_missing_from_the_table_panics() {
        let (am, field) = refined_amesh();
        let buf = hand_packed(&field, &[0, 1, 2, 3], [0, 1, 2, 7]);
        unpack_buffer(&am, field.ncomp(), &buf, &mut HashMap::new());
    }

    #[test]
    #[should_panic(expected = "vertex table not strictly ascending: vertex 1 after 2")]
    fn a_vertex_table_out_of_order_panics() {
        let (am, field) = refined_amesh();
        let buf = hand_packed(&field, &[0, 2, 1, 3], [0, 1, 2, 3]);
        unpack_buffer(&am, field.ncomp(), &buf, &mut HashMap::new());
    }

    /// The vertex table lists each referenced vertex once: a full swap
    /// ships each rank's buffer as its distinct vertices' ids and solutions
    /// plus 22 bytes per tree node.
    #[test]
    fn each_vertex_travels_once_per_destination() {
        let (am, field) = refined_amesh();
        let nodes: Vec<NodeId> = (0..am.n_roots() as u32)
            .flat_map(|r| am.forest().subtree_of_root(r))
            .collect();
        let mut verts: Vec<u32> = nodes
            .iter()
            .flat_map(|&id| am.node_verts(id).map(|v| v.0))
            .collect();
        let references = verts.len();
        verts.sort_unstable();
        verts.dedup();
        assert!(verts.len() < references, "nodes share vertices");
        let buf = pack_buffer(&am, &field, &nodes).finish();
        let per_vert = 4 + 4 + 8 * field.ncomp();
        assert_eq!(buf.len(), 4 + verts.len() * per_vert + nodes.len() * 22);
        let mut roots = HashMap::new();
        let got = unpack_buffer(&am, field.ncomp(), &buf, &mut roots);
        assert_eq!(got, nodes.len() as u64);
        assert_eq!(roots.len(), am.n_roots());
    }

    /// The bytes of every buffer `pack_buffer` makes, on a mesh refined,
    /// coarsened and re-refined, are pinned by one FNV-1a: root `v` bound
    /// for destination `v % 3`, each destination's trees in root order as
    /// `migrate_body` gathers them. It moves if a node's vertices, or the
    /// order of the nodes or of the vertex table, change.
    #[test]
    fn packed_buffers_after_refine_coarsen_refine_are_pinned() {
        let (mut am, field) = refined_amesh();
        let mut fields = [field];
        let mut cmarks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            let mp = am.mesh.edge_midpoint(e);
            if mp[0] < 0.3 && mp[1] < 0.6 {
                cmarks.mark(e);
            }
        }
        assert!(am.coarsen(&cmarks, &mut fields).families_removed > 0);
        let mut marks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            let mp = am.mesh.edge_midpoint(e);
            if mp[1] + mp[2] < 0.6 {
                marks.mark(e);
            }
        }
        am.upgrade_to_fixpoint(&mut marks);
        am.refine(&marks, &mut fields);
        am.validate();
        let [field] = fields;
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for dst in 0..3u32 {
            let nodes: Vec<NodeId> = (0..am.n_roots() as u32)
                .filter(|v| v % 3 == dst)
                .flat_map(|v| am.forest().subtree_of_root(v))
                .collect();
            for byte in pack_buffer(&am, &field, &nodes).finish() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(am.n_tree_nodes(), 612, "nodes");
        assert_eq!(hash, 0xd88e_24e9_bb13_9cfd, "FNV-1a of the packed buffers");
    }

    #[test]
    fn migration_time_grows_with_volume() {
        let (am, field) = refined_amesh();
        let n = am.n_roots();
        let old = vec![0u32; n];
        let mut small = vec![0u32; n];
        small[0] = 1;
        let all: Vec<u32> = vec![1; n];
        let m = MachineModel::sp2();
        let t_small = parallel_migrate(&am, &field, &old, &small, 2, m).time;
        let t_all = parallel_migrate(&am, &field, &old, &all, 2, m).time;
        assert!(
            t_all > t_small,
            "moving everything ({t_all}) must cost more than one tree ({t_small})"
        );
    }
}
