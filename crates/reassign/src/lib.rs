//! # plum-reassign — processor reassignment
//!
//! After repartitioning, the new partitions must be mapped to processors so
//! the redistribution cost is minimized (§4.3–4.4). This crate implements
//! the similarity matrix and all three mappers from the paper:
//!
//! * **heuristic greedy MWBG** — radix-sorted greedy assignment over the
//!   matrix's non-zeros, `O(nnz + P·F)`; Theorem 1 guarantees ≥ ½ of the
//!   optimal objective;
//! * **optimal MWBG** — maximally weighted bipartite matching (Hungarian
//!   with potentials) for the TotalV metric;
//! * **optimal BMCM** — bottleneck maximum cardinality matching (threshold
//!   search + Hopcroft–Karp, after Gabow–Tarjan \[10\]) for the MaxV metric.
//!
//! `F > 1` partitions per processor are supported by the MWBG mappers via
//! processor duplication; BMCM is `F = 1` as in the paper.
//!
//! ```
//! use plum_reassign::{SimilarityMatrix, greedy_mwbg, optimal_mwbg, remap_stats};
//!
//! let sm = SimilarityMatrix::from_rows(vec![
//!     vec![60, 10, 0],
//!     vec![0, 50, 20],
//!     vec![30, 0, 40],
//! ]);
//! let heuristic = greedy_mwbg(&sm);
//! let optimal = optimal_mwbg(&sm);
//! // Theorem 1: the heuristic retains at least half the optimal weight.
//! assert!(2 * sm.objective(&heuristic.proc_of_part) >= sm.objective(&optimal.proc_of_part));
//! let stats = remap_stats(&sm, &heuristic);
//! assert_eq!(stats.total_elems, sm.grand_total() - sm.objective(&heuristic.proc_of_part));
//! ```

mod bottleneck;
mod greedy;
mod hungarian;
mod simmatrix;
mod stats;

pub use bottleneck::{bottleneck_cost, bottleneck_value, hopcroft_karp, optimal_bmcm};
pub use greedy::greedy_mwbg;
pub use hungarian::{min_cost_assignment, optimal_mwbg};
pub use simmatrix::{Assignment, SimilarityMatrix};
pub use stats::{remap_stats, RemapStats};

/// Shared test helper: all permutations of `0..n` (brute-force oracles).
#[cfg(test)]
pub(crate) fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 1 {
        return vec![vec![0]];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for pos in 0..n {
            let mut full: Vec<usize> = p.iter().map(|&x| x + usize::from(x >= pos)).collect();
            full.insert(0, pos);
            out.push(full);
        }
    }
    out
}

#[cfg(test)]
mod oracle_tests {
    //! The CSR matrix and the non-zero walks over it, against the dense
    //! `P × nparts` table and the dense scans they replaced.
    use super::*;
    use crate::stats::tests::remap_stats_dense;
    use proptest::prelude::*;

    /// The dense table, accumulated cell by cell.
    fn dense_rows(
        wremap: &[u64],
        old_proc: &[u32],
        new_part: &[u32],
        nproc: usize,
        nparts: usize,
    ) -> Vec<Vec<u64>> {
        let mut rows = vec![vec![0u64; nparts]; nproc];
        for v in 0..wremap.len() {
            rows[old_proc[v] as usize][new_part[v] as usize] += wremap[v];
        }
        rows
    }

    /// `greedy_mwbg` as it scanned the dense table: every cell visited,
    /// zeros filtered, `(proc, part)` packed into one `u32` code.
    fn greedy_mwbg_dense(rows: &[Vec<u64>], f: usize) -> Vec<u32> {
        let (p, n) = (rows.len(), rows[0].len());
        let mut entries: Vec<(u64, u32)> = Vec::new();
        for i in 0..p {
            for j in 0..n {
                if rows[i][j] > 0 {
                    entries.push((rows[i][j], (i * n + j) as u32));
                }
            }
        }
        // Stable, descending by weight: what the radix sort produces.
        entries.sort_by_key(|e| std::cmp::Reverse(e.0));
        let mut part_assigned = vec![false; n];
        let mut proc_slots = vec![f; p];
        let mut proc_of_part = vec![u32::MAX; n];
        for &(_, code) in &entries {
            let (i, j) = (code as usize / n, code as usize % n);
            if proc_slots[i] > 0 && !part_assigned[j] {
                proc_slots[i] -= 1;
                part_assigned[j] = true;
                proc_of_part[j] = i as u32;
            }
        }
        // Zero entries: unassigned parts, ascending, onto the processors
        // with slots left, ascending.
        let mut free = (0..p).flat_map(|i| std::iter::repeat_n(i as u32, proc_slots[i]));
        for j in 0..n {
            if !part_assigned[j] {
                proc_of_part[j] = free.next().expect("as many free slots as parts");
            }
        }
        proc_of_part
    }

    proptest! {
        /// Random `(wremap, old_proc, new_part)` with `F ∈ {1, 2, 3}`, zero
        /// weights, ranks that own nothing (`P > N`) and several vertices
        /// landing on one cell.
        #[test]
        fn csr_matches_dense_oracle(
            p in 1usize..9,
            f in 1usize..4,
            verts in proptest::collection::vec((0u64..4, 0u32..64, 0u32..64), 0..40),
        ) {
            let nparts = p * f;
            let wremap: Vec<u64> = verts.iter().map(|v| v.0 * 7).collect();
            let old: Vec<u32> = verts.iter().map(|v| v.1 % p as u32).collect();
            let new: Vec<u32> = verts.iter().map(|v| v.2 % nparts as u32).collect();
            let dense = dense_rows(&wremap, &old, &new, p, nparts);
            let sm = SimilarityMatrix::from_assignments(&wremap, &old, &new, p, nparts);
            prop_assert_eq!(&sm, &SimilarityMatrix::from_rows(dense.clone()));

            for i in 0..p {
                for j in 0..nparts {
                    prop_assert_eq!(sm.get(i, j), dense[i][j]);
                }
                let nonzeros: Vec<(usize, u64)> =
                    dense[i].iter().copied().enumerate().filter(|c| c.1 > 0).collect();
                prop_assert_eq!(sm.row(i).collect::<Vec<_>>(), nonzeros);
                prop_assert_eq!(sm.proc_totals[i], dense[i].iter().sum::<u64>());
            }
            for j in 0..nparts {
                prop_assert_eq!(sm.part_totals[j], dense.iter().map(|r| r[j]).sum::<u64>());
            }
            prop_assert_eq!(sm.grand_total(), wremap.iter().sum::<u64>());

            let greedy = greedy_mwbg(&sm);
            prop_assert_eq!(&greedy.proc_of_part, &greedy_mwbg_dense(&dense, f));
            let rotated = Assignment {
                proc_of_part: (0..nparts).map(|j| ((j + 1) % p) as u32).collect(),
            };
            for a in [&greedy, &rotated] {
                let retained: u64 =
                    (0..nparts).map(|j| dense[a.proc_of_part[j] as usize][j]).sum();
                prop_assert_eq!(sm.objective(&a.proc_of_part), retained);
                prop_assert_eq!(remap_stats(&sm, a), remap_stats_dense(&sm, a));
            }
        }
    }
}

#[cfg(test)]
mod theorem_tests {
    //! Property tests for the paper's Theorem 1 and its corollary.
    use super::*;
    use proptest::prelude::*;

    fn arb_matrix(n: usize) -> impl Strategy<Value = SimilarityMatrix> {
        proptest::collection::vec(proptest::collection::vec(0u64..1000, n), n)
            .prop_map(SimilarityMatrix::from_rows)
    }

    proptest! {
        /// Theorem 1: 2·Heu ≥ Opt for the objective 𝓕.
        #[test]
        fn greedy_is_half_optimal(sm in arb_matrix(5)) {
            let h = greedy_mwbg(&sm);
            let o = optimal_mwbg(&sm);
            let heu = sm.objective(&h.proc_of_part);
            let opt = sm.objective(&o.proc_of_part);
            prop_assert!(opt >= heu, "optimal {} below heuristic {}", opt, heu);
            prop_assert!(2 * heu >= opt, "Theorem 1 violated: 2·{} < {}", heu, opt);
        }

        /// Corollary: heuristic data movement ≤ 2 × optimal data movement.
        #[test]
        fn greedy_movement_at_most_twice_optimal(sm in arb_matrix(4)) {
            let h = remap_stats(&sm, &greedy_mwbg(&sm)).total_elems;
            let o = remap_stats(&sm, &optimal_mwbg(&sm)).total_elems;
            prop_assert!(h <= 2 * o + 1, "corollary violated: {} > 2·{}", h, o);
        }

        /// The optimal MWBG mapper matches a brute-force oracle.
        #[test]
        fn optimal_matches_bruteforce(sm in arb_matrix(4)) {
            let o = optimal_mwbg(&sm);
            let best = permutations(4).into_iter().map(|perm| {
                let assign: Vec<u32> = perm.iter().map(|&x| x as u32).collect();
                sm.objective(&assign)
            }).max().unwrap();
            prop_assert_eq!(sm.objective(&o.proc_of_part), best);
        }

        /// The BMCM mapper's bottleneck matches a brute-force oracle.
        #[test]
        fn bmcm_matches_bruteforce(sm in arb_matrix(4)) {
            let a = optimal_bmcm(&sm, 1.0, 1.0);
            let got = bottleneck_value(&sm, &a, 1.0, 1.0);
            let best = permutations(4).into_iter().map(|perm| {
                let assign = Assignment { proc_of_part: perm.iter().map(|&x| x as u32).collect() };
                bottleneck_value(&sm, &assign, 1.0, 1.0)
            }).fold(f64::INFINITY, f64::min);
            prop_assert!((got - best).abs() < 1e-9, "bmcm {} vs oracle {}", got, best);
        }

        /// All three mappers always produce valid one-to-F assignments.
        #[test]
        fn assignments_are_valid(sm in arb_matrix(6)) {
            greedy_mwbg(&sm).validate(6, 1);
            optimal_mwbg(&sm).validate(6, 1);
            optimal_bmcm(&sm, 1.0, 1.0).validate(6, 1);
        }
    }
}
