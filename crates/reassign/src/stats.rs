//! Data-movement statistics of an assignment: the quantities the paper's
//! cost model consumes (`C_total`, `N_total`, `C_max`, `N_max`) and Table 2
//! reports.

use crate::simmatrix::{Assignment, SimilarityMatrix};

/// Per-assignment data-movement statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RemapStats {
    /// Elements each processor sends away.
    pub sent: Vec<u64>,
    /// Elements each processor receives.
    pub received: Vec<u64>,
    /// Total elements moved (`C_total`); equals `Σ sent = Σ received`.
    pub total_elems: u64,
    /// Number of processor-to-processor transfers (`N_total` — "sets of
    /// elements" moved).
    pub total_msgs: u64,
    /// `C_max`: `max_i max(sent_i, received_i)` — the bottleneck flow.
    pub max_elems: u64,
    /// `N_max`: transfers touching the bottleneck processor.
    pub max_msgs: u64,
}

/// Compute movement statistics for `assignment` over `sm`.
///
/// Partition `j` assigned to processor `i` keeps `S[i][j]` elements in place;
/// every other processor `p` ships its `S[p][j]` elements to `i`. Only the
/// non-zero entries are walked — a few per row, however large `P` is —
/// so this is `O(P + nnz log nnz)`.
pub fn remap_stats(sm: &SimilarityMatrix, assignment: &Assignment) -> RemapStats {
    let p = sm.nproc;
    let mut sent = vec![0u64; p];
    let mut received = vec![0u64; p];
    // One (src, dst) per moving entry; a processor pair exchanging several
    // partitions is still one transfer (a "set of elements").
    let mut transfers: Vec<(u32, u32)> = Vec::new();
    for src in 0..p {
        for (j, amount) in sm.row(src) {
            let dst = assignment.proc_of_part[j] as usize;
            if dst != src {
                sent[src] += amount;
                received[dst] += amount;
                transfers.push((src as u32, dst as u32));
            }
        }
    }
    transfers.sort_unstable();
    transfers.dedup();

    // Transfers touching each processor, as sender or receiver.
    let mut msgs = vec![0u64; p];
    for &(src, dst) in &transfers {
        msgs[src as usize] += 1;
        msgs[dst as usize] += 1;
    }

    RemapStats {
        total_elems: sent.iter().sum(),
        total_msgs: transfers.len() as u64,
        max_elems: (0..p).map(|i| sent[i].max(received[i])).max().unwrap_or(0),
        max_msgs: msgs.into_iter().max().unwrap_or(0),
        sent,
        received,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dense `P × P` transfer-matrix formulation `remap_stats` replaced,
    /// kept as its oracle.
    pub(crate) fn remap_stats_dense(sm: &SimilarityMatrix, assignment: &Assignment) -> RemapStats {
        let p = sm.nproc;
        let n = sm.nparts;
        let mut sent = vec![0u64; p];
        let mut received = vec![0u64; p];
        // transfers[src][dst] accumulated over partitions (a "set of elements").
        let mut transfer = vec![0u64; p * p];
        for j in 0..n {
            let dst = assignment.proc_of_part[j] as usize;
            for src in 0..p {
                if src != dst {
                    let amount = sm.get(src, j);
                    if amount > 0 {
                        sent[src] += amount;
                        received[dst] += amount;
                        transfer[src * p + dst] += amount;
                    }
                }
            }
        }
        let total_elems: u64 = sent.iter().sum();
        let total_msgs = transfer.iter().filter(|&&t| t > 0).count() as u64;

        let mut max_elems = 0u64;
        let mut max_msgs = 0u64;
        for i in 0..p {
            let flow = sent[i].max(received[i]);
            if flow > max_elems {
                max_elems = flow;
            }
            let msgs = (0..p)
                .filter(|&q| q != i && (transfer[i * p + q] > 0 || transfer[q * p + i] > 0))
                .map(|q| u64::from(transfer[i * p + q] > 0) + u64::from(transfer[q * p + i] > 0))
                .sum::<u64>();
            if msgs > max_msgs {
                max_msgs = msgs;
            }
        }

        RemapStats {
            sent,
            received,
            total_elems,
            total_msgs,
            max_elems,
            max_msgs,
        }
    }

    proptest! {
        /// Sparse row-walk ≡ dense transfer matrix, bit for bit, on sparse
        /// and dense matrices, `F ≥ 1`, and arbitrary (not only one-to-F)
        /// assignments.
        #[test]
        fn remap_stats_matches_dense_oracle(
            p in 1usize..9,
            f in 1usize..3,
            density in 1u64..5,
            cells in proptest::collection::vec(0u64..1000, 8 * 16),
            procs in proptest::collection::vec(0u32..8, 16),
        ) {
            let nparts = p * f;
            let rows: Vec<Vec<u64>> = (0..p)
                .map(|i| {
                    (0..nparts)
                        .map(|j| {
                            let v = cells[i * 16 + j];
                            if v % 4 < density { v } else { 0 }
                        })
                        .collect()
                })
                .collect();
            let sm = SimilarityMatrix::from_rows(rows);
            let a = Assignment {
                proc_of_part: procs[..nparts].iter().map(|&q| q % p as u32).collect(),
            };
            prop_assert_eq!(remap_stats(&sm, &a), remap_stats_dense(&sm, &a));
        }
    }

    #[test]
    fn identity_assignment_moves_nothing() {
        let sm = SimilarityMatrix::from_rows(vec![vec![10, 0], vec![0, 20]]);
        let a = Assignment::identity(2, 1);
        let s = remap_stats(&sm, &a);
        assert_eq!(s.total_elems, 0);
        assert_eq!(s.total_msgs, 0);
        assert_eq!(s.max_elems, 0);
    }

    #[test]
    fn swap_moves_everything() {
        let sm = SimilarityMatrix::from_rows(vec![vec![10, 0], vec![0, 20]]);
        let a = Assignment {
            proc_of_part: vec![1, 0],
        };
        let s = remap_stats(&sm, &a);
        assert_eq!(s.total_elems, 30);
        assert_eq!(s.sent, vec![10, 20]);
        assert_eq!(s.received, vec![20, 10]);
        assert_eq!(s.total_msgs, 2);
        assert_eq!(s.max_elems, 20);
        assert_eq!(
            s.max_msgs, 2,
            "each processor sends one set and receives one"
        );
    }

    #[test]
    fn sent_equals_received_in_total() {
        let sm = SimilarityMatrix::from_rows(vec![vec![5, 3, 2], vec![1, 8, 4], vec![6, 0, 9]]);
        let a = Assignment {
            proc_of_part: vec![2, 0, 1],
        };
        let s = remap_stats(&sm, &a);
        assert_eq!(s.sent.iter().sum::<u64>(), s.received.iter().sum::<u64>());
        assert_eq!(s.total_elems, s.sent.iter().sum::<u64>());
        // Moved = grand total − retained (objective).
        assert_eq!(
            s.total_elems,
            sm.grand_total() - sm.objective(&a.proc_of_part)
        );
    }
}
