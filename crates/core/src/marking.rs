//! Parallel edge marking with cross-partition propagation.
//!
//! Each rank owns the elements whose refinement-tree root is assigned to it.
//! Edges touched by elements of several ranks are *shared*; after every
//! upgrade sweep, each rank sends the newly marked local copies of shared
//! edges to all other ranks in their SPLs, and the process iterates until no
//! edge marking changes anywhere — exactly the paper's execution-phase
//! protocol ("the process may continue for several iterations, and edge
//! markings could propagate back and forth across partitions").
//!
//! A sweep is one exchange and nothing else. Whether a rank's upgrade found
//! a new mark rides that exchange as a bit in the header word every Bruck
//! message already charges ([`Comm::alltoallv_sparse_join`] with `||`), and
//! the loop stops when no rank set it. That is the fixpoint test: a rank
//! only ever receives a mark because its owner found it in the same sweep,
//! so "some rank found a new mark" already covers "some rank received one".

use plum_adapt::{AdaptiveMesh, EdgeMarks};
use plum_mesh::{EdgeId, EdgeParts, ElemId};
use plum_parsim::{makespan, spmd, Comm, MachineModel, Outbox};

use crate::timing::WorkModel;

/// Ownership maps derived from the root→processor assignment: a value built
/// for one mesh and one assignment, read by that cycle's solver and marking
/// phases, and dropped. [`Ownership::build`] is the only way to make one.
pub struct Ownership {
    /// Elements owned by each rank, ascending by slot — the marking
    /// protocol visits elements in list order, and its per-sweep message
    /// sizes depend on that order.
    pub elems_of_rank: Vec<Vec<ElemId>>,
    /// Per edge, the ranks owning a copy, with per-rank shared counts.
    edges: EdgeParts,
}

impl Ownership {
    /// Compute ownership from the current assignment.
    ///
    /// Panics if a root is assigned to a rank not below `nproc`.
    pub fn build(am: &AdaptiveMesh, proc_of_root: &[u32], nproc: usize) -> Self {
        let mut rank_of_elem = vec![u32::MAX; am.mesh.elem_slots()];
        for e in am.mesh.elems() {
            rank_of_elem[e.idx()] = proc_of_root[am.root_of_elem(e) as usize];
        }
        // The edge builder range-checks every live element's rank, so the
        // indexing below cannot go out of bounds.
        let edges = EdgeParts::build(&am.mesh, &rank_of_elem, nproc);
        let mut elems_of_rank: Vec<Vec<ElemId>> = vec![Vec::new(); nproc];
        for e in am.mesh.elems() {
            elems_of_rank[rank_of_elem[e.idx()] as usize].push(e);
        }
        Ownership {
            elems_of_rank,
            edges,
        }
    }

    /// Ranks owning a copy of `edge`, ascending (len > 1 ⇒ shared edge).
    #[inline]
    pub fn ranks_of(&self, edge: EdgeId) -> impl Iterator<Item = u32> + '_ {
        self.edges.parts_of(edge).iter().copied()
    }

    /// `edge`'s number among the rank's own edges, which it numbers from 0
    /// ascending by id. A peer sends a mark only
    /// to the ranks owning a copy of its edge, so every edge looked up here
    /// is one of the rank's.
    fn local_of(&self, rank: usize, edge: EdgeId) -> u32 {
        self.edges
            .local_of(edge, rank as u32)
            .unwrap_or_else(|| panic!("{edge} is not one of rank {rank}'s edges"))
    }

    /// Number of shared edges a rank touches (for halo-cost modeling).
    pub fn shared_edges_of_rank(&self, rank: u32) -> u64 {
        self.edges.shared_edges_of_part(rank)
    }
}

/// Result of a parallel marking phase.
pub struct MarkResult {
    /// The globally consistent marks (union over ranks; asserted identical
    /// on every shared edge).
    pub marks: EdgeMarks,
    /// Propagation sweeps until fixpoint.
    pub sweeps: usize,
    /// Virtual wall time of the phase (max over ranks).
    pub time: f64,
    /// Total words exchanged during propagation.
    pub comm_words: u64,
}

/// Per-rank value produced by the marking stage body: the edges this rank
/// marked (locally or on a peer's word), sweep count, and words this rank
/// sent during propagation.
pub(crate) type MarkValue = (Vec<EdgeId>, usize, u64);

/// Mark a local slot; true if it was newly marked.
fn mark(marks: &mut [bool], slot: u32) -> bool {
    !std::mem::replace(&mut marks[slot as usize], true)
}

/// The marking stage body for one rank. Runs under either [`spmd`] (the
/// standalone [`parallel_mark`] wrapper) or a [`plum_parsim::Session`] step
/// of the cycle engine — the sent-word count is a delta, since session
/// counters accumulate across steps.
pub(crate) fn mark_body(
    comm: &mut Comm,
    am: &AdaptiveMesh,
    own: &Ownership,
    work: &WorkModel,
    error: &[f64],
    threshold: f64,
) -> MarkValue {
    let words0 = comm.sent_words();
    comm.phase_begin("marking");
    let rank = comm.rank();
    let my_elems = &own.elems_of_rank[rank];
    // Working set over the rank's own edges, as the ownership map numbers
    // them: one flag each, and each element's six edges as those numbers.
    // What the rank reports is the list of edges it set.
    let slots: Vec<[u32; 6]> = my_elems
        .iter()
        .map(|&e| am.mesh.elem_edges(e).map(|ed| own.local_of(rank, ed)))
        .collect();
    let mut marks = vec![false; own.edges.edges_of_part(rank as u32)];
    let mut marked: Vec<EdgeId> = Vec::new();

    // Initial marking: my elements' edges above threshold. Shared edges
    // get the same decision on all owners because the error values are
    // identical ("shared edges have the same flow and geometry
    // information regardless of their processor number").
    for (&e, s) in my_elems.iter().zip(&slots) {
        for (ed, &s) in am.mesh.elem_edges(e).into_iter().zip(s) {
            if error.get(ed.idx()).copied().unwrap_or(0.0) > threshold && mark(&mut marks, s) {
                marked.push(ed);
            }
        }
    }
    comm.advance(my_elems.len() as f64 * work.t_mark_elem);

    let mut sweeps = 0usize;
    // Every sweep's `(destination, edge)` pairs and its send side, refilled.
    let mut outgoing: Vec<(usize, u32)> = Vec::new();
    let mut sends = Outbox::default();
    loop {
        // One local upgrade sweep over my elements.
        let mut newly: Vec<EdgeId> = Vec::new();
        for (&e, s) in my_elems.iter().zip(&slots) {
            let p = s
                .iter()
                .enumerate()
                .fold(0u8, |p, (k, &s)| p | (u8::from(marks[s as usize]) << k));
            let up = plum_adapt::upgrade(p);
            if up != p {
                let edges = am.mesh.elem_edges(e).into_iter().zip(s);
                for (k, (ed, &s)) in edges.enumerate() {
                    if up & (1 << k) != 0 && mark(&mut marks, s) {
                        newly.push(ed);
                    }
                }
            }
        }
        comm.advance(my_elems.len() as f64 * work.t_mark_elem);

        // Ship newly marked *shared* edges to their other owners, one run
        // per destination (a rank borders a handful of others, not all P),
        // a word per edge.
        outgoing.clear();
        for &ed in &newly {
            let others = own.ranks_of(ed).filter(|&r| r as usize != rank);
            outgoing.extend(others.map(|r| (r as usize, ed.0)));
        }
        outgoing.sort_by_key(|&(dst, _)| dst);
        sends.extend_grouped(outgoing.drain(..), |run| run.len() as u64);
        let (incoming, changed) =
            comm.alltoallv_sparse_join(&mut sends, !newly.is_empty(), |_| 0, |a, b| *a || *b);
        for &id in incoming.items() {
            if mark(&mut marks, own.local_of(rank, EdgeId(id))) {
                marked.push(EdgeId(id));
            }
        }
        marked.extend(newly);
        sweeps += 1;
        if !changed {
            break;
        }
    }
    comm.phase_end("marking");
    (marked, sweeps, comm.sent_words() - words0)
}

/// Merge per-rank marking results: union of all ranks' marks (identical on
/// shared edges at fixpoint; the union is what a global observer sees),
/// maximum sweep count, total propagation words.
pub(crate) fn merge_marks(
    am: &AdaptiveMesh,
    values: impl IntoIterator<Item = MarkValue>,
) -> (EdgeMarks, usize, u64) {
    let mut merged = EdgeMarks::new(&am.mesh);
    let mut sweeps = 0;
    let mut comm_words = 0;
    for (marked, rank_sweeps, words) in values {
        for e in marked {
            merged.mark(e);
        }
        sweeps = sweeps.max(rank_sweeps);
        comm_words += words;
    }
    debug_assert!(
        am.marks_are_legal(&merged),
        "parallel marking fixpoint is not legal"
    );
    (merged, sweeps, comm_words)
}

/// Run the marking phase in parallel: every rank marks its own edges whose
/// `error` exceeds `threshold`, then propagates pattern upgrades across
/// ranks until the markings are stable and legal everywhere.
pub fn parallel_mark(
    am: &AdaptiveMesh,
    own: &Ownership,
    nproc: usize,
    machine: MachineModel,
    work: &WorkModel,
    error: &[f64],
    threshold: f64,
) -> MarkResult {
    let results = spmd(nproc, machine, |comm| {
        mark_body(comm, am, own, work, error, threshold)
    });
    let time = makespan(&results);
    let (marks, sweeps, comm_words) = merge_marks(am, results.into_iter().map(|r| r.value));

    MarkResult {
        marks,
        sweeps,
        time,
        comm_words,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plum_mesh::generate::unit_box_mesh;
    use plum_mesh::geometry::elem_centroid;

    fn setup(n: usize, nproc: usize) -> (AdaptiveMesh, Vec<u32>) {
        let mesh = unit_box_mesh(n);
        let am = AdaptiveMesh::new(mesh);
        // Slab partition by root centroid.
        let mut proc_of_root = vec![0u32; am.n_roots()];
        for e in am.mesh.elems() {
            let c = elem_centroid(&am.mesh, e);
            let p = ((c[0] * nproc as f64) as usize).min(nproc - 1);
            proc_of_root[am.root_of_elem(e) as usize] = p as u32;
        }
        (am, proc_of_root)
    }

    #[test]
    fn ownership_partitions_elements() {
        let (am, proc) = setup(3, 3);
        let own = Ownership::build(&am, &proc, 3);
        let total: usize = own.elems_of_rank.iter().map(|v| v.len()).sum();
        assert_eq!(total, am.mesh.n_elems());
        // Slab boundaries create shared edges.
        assert!(own.shared_edges_of_rank(0) > 0);
        assert!(own.shared_edges_of_rank(1) > 0);
    }

    #[test]
    #[should_panic(expected = "has part 3 ≥ 3")]
    fn a_root_assigned_past_the_last_rank_is_rejected() {
        let (am, mut proc) = setup(3, 3);
        proc[0] = 3;
        Ownership::build(&am, &proc, 3);
    }

    #[test]
    fn parallel_marking_matches_serial_fixpoint() {
        let (am, slabs) = setup(3, 4);
        // Error field: distance-based blob so marking crosses rank borders.
        let mut error = vec![0.0f64; am.mesh.edge_slots()];
        for e in am.mesh.edges() {
            let mp = am.mesh.edge_midpoint(e);
            error[e.idx()] =
                1.0 / (0.05 + (mp[0] - 0.5).abs() + (mp[1] - 0.4).abs() + (mp[2] - 0.6).abs());
        }
        let threshold = 4.0;

        // Serial reference.
        let mut serial = am.mark_above(&error, threshold);
        am.upgrade_to_fixpoint(&mut serial);

        // Four slabs on four ranks, then on five with rank 2 owning nothing.
        let gapped: Vec<u32> = slabs.iter().map(|&p| p + u32::from(p >= 2)).collect();
        for (proc, nproc) in [(slabs, 4), (gapped, 5)] {
            let own = Ownership::build(&am, &proc, nproc);
            assert_eq!(own.elems_of_rank.iter().any(Vec::is_empty), nproc == 5);
            let par = parallel_mark(
                &am,
                &own,
                nproc,
                MachineModel::sp2(),
                &WorkModel::default(),
                &error,
                threshold,
            );
            assert_eq!(
                par.marks.count(),
                serial.count(),
                "parallel ≠ serial marking on {nproc} ranks"
            );
            for e in am.mesh.edges() {
                assert_eq!(
                    par.marks.is_marked(e),
                    serial.is_marked(e),
                    "differs at {e} on {nproc} ranks"
                );
            }
            assert!(par.sweeps >= 1);
            assert!(par.time > 0.0);
        }
    }

    #[test]
    fn single_rank_needs_no_propagation_rounds_beyond_fixpoint() {
        let (am, _) = setup(2, 1);
        let own = Ownership::build(&am, &vec![0; am.n_roots()], 1);
        let error: Vec<f64> = (0..am.mesh.edge_slots()).map(|i| (i % 7) as f64).collect();
        let par = parallel_mark(
            &am,
            &own,
            1,
            MachineModel::zero(),
            &WorkModel::default(),
            &error,
            5.0,
        );
        assert!(am.marks_are_legal(&par.marks));
        assert_eq!(par.comm_words, 0, "P=1 must not communicate");
    }
}
