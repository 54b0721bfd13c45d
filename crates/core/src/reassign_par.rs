//! Distributed similarity-matrix construction and reassignment (§4.3):
//! "Since the partitioning algorithm is run in parallel, each processor can
//! simultaneously compute one row of the matrix, based on the mapping
//! between its current subdomain and the new partitioning. This information
//! is then gathered by a single host processor that builds the complete
//! similarity matrix, computes the new partition-to-processor mapping, and
//! scatters the solution back to the processors."
//!
//! The gather and scatter "require a minuscule amount of time since only
//! one row of the matrix (P×F integers) needs to be communicated" — the
//! virtual times measured here confirm exactly that.

use std::sync::Arc;

use plum_parsim::{makespan, spmd, Comm, MachineModel};
use plum_partition::RankLists;
use plum_reassign::{Assignment, SimilarityMatrix};

use crate::balance::run_mapper;
use crate::config::Mapper;

/// Per-rank value of the reassignment stage body: the host triple (only on
/// rank 0) and the scattered partition→processor solution.
pub(crate) type ReassignValue = (Option<(SimilarityMatrix, Assignment, f64)>, Arc<Vec<u32>>);

/// The reassignment stage body for one rank, which currently owns the dual
/// vertices `mine`: compute my similarity row, gather on the host, run the
/// mapper there (wall-clocked, no virtual charge), scatter the solution.
/// Runs under [`spmd`] or a [`plum_parsim::Session`] step.
pub(crate) fn reassign_body(
    comm: &mut Comm,
    wremap: &[u64],
    mine: &[u32],
    new_part: &[u32],
    nparts: usize,
    mapper: Mapper,
) -> ReassignValue {
    comm.phase_begin("reassignment");
    // Local row: weights of my dual vertices per new partition. Each
    // rank touches only its own subdomain — O(n/P) work.
    let mut row = vec![0u64; nparts];
    for &v in mine {
        row[new_part[v as usize] as usize] += wremap[v as usize];
    }
    comm.compute(mine.len() as f64);

    // Gather rows on the host (rank 0): one row of P·F integers each.
    let gathered = comm.gather(0, nparts as u64, row);

    // Host builds the matrix and runs the mapper.
    let host = gathered.map(|rows| {
        let sm = SimilarityMatrix::from_rows(rows);
        let (assignment, mapper_seconds) = run_mapper(&sm, mapper);
        (sm, assignment, mapper_seconds)
    });

    // Scatter the solution back (each rank gets the full P·F-entry
    // mapping — still "a minuscule amount" of data).
    let proc_of_part = comm.bcast(
        0,
        nparts as u64,
        host.as_ref().map(|(_, a, _)| a.proc_of_part.clone()),
    );
    comm.phase_end("reassignment");
    (host, proc_of_part)
}

/// Collect the per-rank stage values: extract the host triple and assert
/// every rank received the same scattered solution.
pub(crate) fn collect_reassign(
    values: impl Iterator<Item = ReassignValue>,
) -> (SimilarityMatrix, Assignment, f64) {
    let mut matrix = None;
    let mut assignment = None;
    let mut mapper_seconds = 0.0;
    let mut scattered: Vec<Arc<Vec<u32>>> = Vec::new();
    for (host, proc_of_part) in values {
        scattered.push(proc_of_part);
        if let Some((sm, a, secs)) = host {
            matrix = Some(sm);
            assignment = Some(a);
            mapper_seconds = secs;
        }
    }
    let assignment = assignment.expect("host must produce an assignment");
    // Every rank received the same solution.
    for s in &scattered {
        assert_eq!(**s, assignment.proc_of_part, "scatter diverged");
    }
    (
        matrix.expect("host must produce the matrix"),
        assignment,
        mapper_seconds,
    )
}

/// Result of the distributed reassignment protocol.
pub struct ParallelReassign {
    /// The assembled similarity matrix (host copy).
    pub matrix: SimilarityMatrix,
    /// The partition→processor assignment chosen by the host.
    pub assignment: Assignment,
    /// Virtual time of row construction + gather + scatter (communication
    /// and local row computation; excludes the host's mapper run, which is
    /// measured separately in real time).
    pub time: f64,
    /// Real measured seconds the host spent in the mapper.
    pub mapper_seconds: f64,
}

/// Run the reassignment the way the paper does: every rank computes its own
/// similarity row (over the dual vertices it currently owns), a host gathers
/// the rows, maps partitions to processors, and scatters each rank its
/// per-partition answer.
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
        reassign_body(comm, wremap, mine, new_part, nparts, mapper)
    });

    let time = makespan(&results);
    let (matrix, assignment, mapper_seconds) =
        collect_reassign(results.into_iter().map(|r| r.value));
    ParallelReassign {
        matrix,
        assignment,
        time,
        mapper_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_inputs(n: usize, nproc: usize) -> (Vec<u64>, Vec<u32>, Vec<u32>) {
        let wremap: Vec<u64> = (0..n).map(|v| (v % 5 + 1) as u64).collect();
        let old: Vec<u32> = (0..n).map(|v| (v % nproc) as u32).collect();
        let new: Vec<u32> = (0..n).map(|v| ((v / 3) % nproc) as u32).collect();
        (wremap, old, new)
    }

    #[test]
    fn distributed_matrix_equals_serial() {
        let (wremap, old, new) = toy_inputs(200, 6);
        let par = parallel_reassign(
            &wremap,
            &old,
            &new,
            6,
            6,
            Mapper::GreedyMwbg,
            MachineModel::sp2(),
        );
        let serial = SimilarityMatrix::from_assignments(&wremap, &old, &new, 6, 6);
        for i in 0..6 {
            assert_eq!(par.matrix.row(i), serial.row(i), "row {i} differs");
        }
        assert_eq!(par.matrix.grand_total(), serial.grand_total());
        par.assignment.validate(6, 1);
        assert!(par.time > 0.0);
    }

    #[test]
    fn all_mappers_agree_with_their_serial_versions() {
        let (wremap, old, new) = toy_inputs(120, 4);
        let serial = SimilarityMatrix::from_assignments(&wremap, &old, &new, 4, 4);
        for mapper in [Mapper::GreedyMwbg, Mapper::OptimalMwbg, Mapper::OptimalBmcm] {
            let par = parallel_reassign(&wremap, &old, &new, 4, 4, mapper, MachineModel::zero());
            // Objectives must match (ties may be broken differently).
            let serial_assign = run_mapper(&serial, mapper).0;
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
    }
}
