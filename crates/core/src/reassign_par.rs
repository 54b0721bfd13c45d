//! Distributed similarity-matrix construction and reassignment (§4.3):
//! "Since the partitioning algorithm is run in parallel, each processor can
//! simultaneously compute one row of the matrix, based on the mapping
//! between its current subdomain and the new partitioning. This information
//! is then gathered by a single host processor that builds the complete
//! similarity matrix, computes the new partition-to-processor mapping, and
//! scatters the solution back to the processors."
//!
//! The gather and scatter "require a minuscule amount of time since only
//! one row of the matrix (P×F integers) needs to be communicated". That is
//! true at the paper's P = 64 and false at scale if either direction is
//! dense: `P·nparts` words of rows pass through the host, and a
//! `nparts`-word mapping goes to every rank. A rank that owns `n/P` dual
//! vertices touches at most `n/P` new parts, so each rank ships its row as
//! an ascending `(part, weight)` list, `1 + 2·|rowᵣ|` words, the host
//! receives `Σᵣ (1 + 2·|rowᵣ|) ≤ P + 2·min(N, P·nparts)` words, and it
//! answers each rank with the processors of the parts in the row that rank
//! sent — a `scatterv` of `⌈4·|rowᵣ|/8⌉` words per rank. The host's matrix
//! is CSR and its greedy mapper walks non-zeros only, so the whole phase is
//! `O(nnz + P·F)` in words, host memory and host work — and the paper's
//! sentence holds at every `P` (see the tests below).

use plum_parsim::{makespan, spmd, words_for_bytes, Comm, MachineModel};
use plum_partition::RankLists;
use plum_reassign::{Assignment, SimilarityMatrix};

use crate::balance::run_mapper;
use crate::config::Mapper;

/// Per-rank value of the reassignment stage body: the host's matrix and
/// mapping (only on rank 0) and the new processor of each of the rank's own
/// dual vertices.
pub(crate) type ReassignValue = (Option<(SimilarityMatrix, Assignment)>, Vec<u32>);

/// The reassignment stage body for one rank, which currently owns the dual
/// vertices `mine`, whose new parts are `my_parts`: compute my similarity
/// row, gather on the host, map partitions to processors there (no
/// virtual charge) — with the mapper, or the identity when `pinned` ([`crate::balance::identity_pinned`]) — and scatter each
/// rank the processors of the parts its row named. Returns the new
/// processor of each vertex in `mine`. Runs under [`spmd`] or a
/// [`plum_parsim::Session`] step.
pub(crate) fn reassign_body(
    comm: &mut Comm,
    wremap: &[u64],
    mine: &[u32],
    my_parts: &[u32],
    nparts: usize,
    mapper: Mapper,
    pinned: bool,
) -> ReassignValue {
    comm.phase_begin("reassignment");
    // Local row: my dual vertices' weights summed per new partition, parts
    // ascending. Each rank touches only its own subdomain — O(n/P log n/P)
    // work, nothing of length `nparts`. A cell whose weight sums to zero
    // stays in the row: its part needs an answer like any other.
    let mut row: Vec<(u32, u64)> = my_parts
        .iter()
        .zip(mine)
        .map(|(&q, &v)| (q, wremap[v as usize]))
        .collect();
    row.sort_unstable_by_key(|cell| cell.0);
    row.dedup_by(|later, kept| {
        let same_part = kept.0 == later.0;
        if same_part {
            kept.1 += later.1;
        }
        same_part
    });
    comm.compute(mine.len() as f64);
    let row_parts: Vec<u32> = row.iter().map(|cell| cell.0).collect();

    // Gather the rows on the host (rank 0): a count and two words per
    // cell, so the model charges exactly what is sent.
    let gathered = comm.gather(0, 1 + 2 * row.len() as u64, row);

    // Host builds the matrix (which stores non-zeros only), maps, and
    // answers every row with the processors of its parts.
    let (host, answers) = gathered
        .map(|rows| {
            let sm = SimilarityMatrix::from_sparse_rows(&rows, nparts);
            let assignment = if pinned {
                Assignment::identity(sm.nproc, sm.f)
            } else {
                run_mapper(&sm, mapper)
            };
            let answers = rows.iter().map(|row| {
                let procs: Vec<u32> = row
                    .iter()
                    .map(|&(q, _)| assignment.proc_of_part[q as usize])
                    .collect();
                (words_for_bytes(4 * procs.len()), procs)
            });
            let answers = answers.collect();
            ((sm, assignment), answers)
        })
        .unzip();
    let procs: Vec<u32> = comm.scatterv(0, answers);
    comm.phase_end("reassignment");

    // My row is ascending by part, and `procs` answers it cell by cell.
    let proc_of = |q: u32| procs[row_parts.partition_point(|&p| p < q)];
    (host, my_parts.iter().map(|&q| proc_of(q)).collect())
}

/// Collect the per-rank stage values: extract the host's pair and check
/// that every rank's answer for its vertices `lists.mine(r)` is the host's
/// mapping of their new parts, `proc_of_part[new_part[v]]`. Returns the
/// pair and the ranks' answers, in rank order.
pub(crate) fn collect_reassign(
    values: impl Iterator<Item = ReassignValue>,
    lists: &RankLists,
    new_part: &[u32],
) -> (SimilarityMatrix, Assignment, Vec<Vec<u32>>) {
    let mut host = None;
    let mut answers = Vec::new();
    for (pair, procs) in values {
        host = host.or(pair);
        answers.push(procs);
    }
    let (matrix, assignment) = host.expect("host must produce the mapping");
    for (r, procs) in answers.iter().enumerate() {
        let mine = lists.mine(r);
        assert_eq!(procs.len(), mine.len(), "rank {r}: one answer per vertex");
        for (&v, &got) in mine.iter().zip(procs) {
            let want = assignment.proc_of_part[new_part[v as usize] as usize];
            assert_eq!(
                got, want,
                "rank {r} maps vertex {v} to {got}, the host to {want}"
            );
        }
    }
    (matrix, assignment, answers)
}

/// Result of the distributed reassignment protocol.
pub struct ParallelReassign {
    /// The assembled similarity matrix (host copy).
    pub matrix: SimilarityMatrix,
    /// The partition→processor assignment chosen by the host.
    pub assignment: Assignment,
    /// Virtual seconds of the whole protocol: local row construction,
    /// gather and scatter. The host's mapper run is not charged.
    pub time: f64,
}

/// Run the reassignment the way the paper does: every rank computes its own
/// similarity row (over the dual vertices it currently owns), a host gathers
/// the rows, maps partitions to processors, and scatters each rank the
/// processors of the parts in its row.
pub fn parallel_reassign(
    wremap: &[u64],
    old_proc: &[u32],
    new_part: &[u32],
    nproc: usize,
    nparts: usize,
    mapper: Mapper,
    machine: MachineModel,
) -> ParallelReassign {
    assert_eq!(wremap.len(), old_proc.len());
    assert_eq!(wremap.len(), new_part.len());
    let lists = RankLists::build(old_proc, nproc);
    let results = spmd(nproc, machine, |comm| {
        let mine = lists.mine(comm.rank());
        let my_parts: Vec<u32> = mine.iter().map(|&v| new_part[v as usize]).collect();
        reassign_body(comm, wremap, mine, &my_parts, nparts, mapper, false)
    });

    let time = makespan(&results);
    let values = results.into_iter().map(|r| r.value);
    let (matrix, assignment, _) = collect_reassign(values, &lists, new_part);
    ParallelReassign {
        matrix,
        assignment,
        time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toy_inputs(n: usize, nproc: usize) -> (Vec<u64>, Vec<u32>, Vec<u32>) {
        let wremap: Vec<u64> = (0..n).map(|v| (v % 5 + 1) as u64).collect();
        let old: Vec<u32> = (0..n).map(|v| (v % nproc) as u32).collect();
        let new: Vec<u32> = (0..n).map(|v| ((v / 3) % nproc) as u32).collect();
        (wremap, old, new)
    }

    /// Every rank's answer from one SPMD run of the body under the greedy
    /// mapper: the new processor of each vertex it owns, in `mine` order.
    fn rank_answers(wremap: &[u64], old: &[u32], new: &[u32], nproc: usize) -> Vec<Vec<u32>> {
        let lists = RankLists::build(old, nproc);
        let results = spmd(nproc, MachineModel::sp2(), |comm| {
            let mine = lists.mine(comm.rank());
            let my_parts: Vec<u32> = mine.iter().map(|&v| new[v as usize]).collect();
            let mapper = Mapper::GreedyMwbg;
            reassign_body(comm, wremap, mine, &my_parts, nproc, mapper, false).1
        });
        results.into_iter().map(|r| r.value).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The host's matrix, assembled from the shipped rows, is the serial
        /// one — with zero weights, several vertices per cell, and (P = 16
        /// over N = 5) ranks whose row is empty and ships one word — and
        /// every rank gets the mapper's processor for each vertex it owns,
        /// including vertices whose whole cell weighs zero.
        #[test]
        fn distributed_matrix_equals_serial(
            verts in proptest::collection::vec((0u64..4, 0u32..64, 0u32..64), 200),
        ) {
            for (n, nproc) in [(200, 6), (200, 64), (5, 16)] {
                let verts = &verts[..n];
                let wremap: Vec<u64> = verts.iter().map(|v| v.0 * 7).collect();
                let old: Vec<u32> = verts.iter().map(|v| v.1 % nproc as u32).collect();
                let new: Vec<u32> = verts.iter().map(|v| v.2 % nproc as u32).collect();
                let par = parallel_reassign(
                    &wremap,
                    &old,
                    &new,
                    nproc,
                    nproc,
                    Mapper::GreedyMwbg,
                    MachineModel::sp2(),
                );
                let serial = SimilarityMatrix::from_assignments(&wremap, &old, &new, nproc, nproc);
                let greedy = plum_reassign::greedy_mwbg(&serial);
                prop_assert_eq!(&par.matrix, &serial);
                prop_assert_eq!(&par.assignment, &greedy);
                prop_assert!(par.time > 0.0);
                let lists = RankLists::build(&old, nproc);
                for (r, got) in rank_answers(&wremap, &old, &new, nproc).iter().enumerate() {
                    let mine = lists.mine(r).iter();
                    let want: Vec<u32> =
                        mine.map(|&v| greedy.proc_of_part[new[v as usize] as usize]).collect();
                    prop_assert_eq!(got, &want, "rank {}", r);
                }
            }
        }
    }

    #[test]
    fn all_mappers_agree_with_their_serial_versions() {
        let (wremap, old, new) = toy_inputs(120, 4);
        let serial = SimilarityMatrix::from_assignments(&wremap, &old, &new, 4, 4);
        for mapper in [Mapper::GreedyMwbg, Mapper::OptimalMwbg, Mapper::OptimalBmcm] {
            let par = parallel_reassign(&wremap, &old, &new, 4, 4, mapper, MachineModel::zero());
            // Objectives must match (ties may be broken differently).
            let serial_assign = run_mapper(&serial, mapper);
            assert_eq!(
                serial.objective(&par.assignment.proc_of_part),
                serial.objective(&serial_assign.proc_of_part),
                "{mapper:?} objective differs between serial and distributed"
            );
        }
    }

    #[test]
    fn gather_scatter_time_is_minuscule_relative_to_row_size() {
        // The paper's claim: communication is tiny because only P×F
        // integers move per rank. Check the virtual time stays micro-scale
        // compared to migrating the same weights.
        let (wremap, old, new) = toy_inputs(1000, 8);
        let par = parallel_reassign(
            &wremap,
            &old,
            &new,
            8,
            8,
            Mapper::GreedyMwbg,
            MachineModel::sp2(),
        );
        assert!(
            par.time < 0.05,
            "gather/scatter of 8-entry rows should be sub-50ms virtual, got {}",
            par.time
        );

        // And it stays tiny at scale, which dense rows do not: at the
        // weak-scaling shape (16 vertices per rank, 12 staying and 4 moving
        // to the next part) every row has two non-zeros however large P is.
        // Dense rows read 0.0015 / 0.24 / 0.97 s at P = 64 / 1024 / 2048.
        let time_at = |nproc: usize| {
            let n = 16 * nproc;
            let wremap: Vec<u64> = (0..n).map(|v| (v % 5 + 1) as u64).collect();
            let old: Vec<u32> = (0..n).map(|v| (v / 16) as u32).collect();
            let new: Vec<u32> = (0..n)
                .map(|v| ((v / 16 + usize::from(v % 16 >= 12)) % nproc) as u32)
                .collect();
            let machine = MachineModel::sp2();
            parallel_reassign(
                &wremap,
                &old,
                &new,
                nproc,
                nproc,
                Mapper::GreedyMwbg,
                machine,
            )
            .time
        };
        let (t64, t1024, t2048) = (time_at(64), time_at(1024), time_at(2048));
        assert!(
            t1024 <= 0.010,
            "P = 1024 reassignment took {t1024} virtual s"
        );
        assert!(
            t2048 / t64 <= 16.0,
            "P = 2048 / P = 64 = {t2048} / {t64} = {}",
            t2048 / t64
        );
    }
}
