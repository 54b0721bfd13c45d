//! The optimal MWBG mapper: maximally weighted bipartite graph matching via
//! the Hungarian algorithm with potentials (`O(V·E)` as stated in §4.4; this
//! implementation is the classical `O(n²m)` shortest-augmenting-path form).
//!
//! For `F > 1` the processor side is duplicated `F` times, exactly as the
//! paper describes, and the slot solutions are merged into a one-to-`F`
//! mapping.

use crate::simmatrix::{Assignment, SimilarityMatrix};

const INF: i64 = i64::MAX / 4;

/// Minimum-cost perfect assignment of `n` rows to `m ≥ n` columns.
/// Returns `(total_cost, col_of_row)`.
pub fn min_cost_assignment(cost: &[Vec<i64>]) -> (i64, Vec<usize>) {
    let n = cost.len();
    assert!(n > 0);
    let m = cost[0].len();
    assert!(m >= n, "need at least as many columns as rows");

    // 1-indexed potentials and matching, per the classical formulation.
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; m + 1];
    let mut p = vec![0usize; m + 1]; // row matched to column j (0 = free)
    let mut way = vec![0usize; m + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=m {
                if !used[j] {
                    let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Walk the augmenting path backwards.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut col_of_row = vec![usize::MAX; n];
    let mut total = 0i64;
    for j in 1..=m {
        if p[j] != 0 {
            col_of_row[p[j] - 1] = j - 1;
            total += cost[p[j] - 1][j - 1];
        }
    }
    (total, col_of_row)
}

/// The optimal MWBG mapper: maximizes the objective 𝓕 = Σ `S[i][j]` over
/// one-to-`F` assignments (minimizing TotalV).
pub fn optimal_mwbg(sm: &SimilarityMatrix) -> Assignment {
    let (p, n, f) = (sm.nproc, sm.nparts, sm.f);
    // Rows = partitions, columns = processor slots (each processor F times).
    // Maximize by minimizing the negated weights. The algorithm is dense by
    // nature, so the `nparts × P·F` table is materialised here, once.
    let mut cost = vec![vec![0i64; p * f]; n];
    for i in 0..p {
        for (j, w) in sm.row(i) {
            cost[j][i * f..(i + 1) * f].fill(-(w as i64));
        }
    }
    let (_, col_of_row) = min_cost_assignment(&cost);
    let proc_of_part: Vec<u32> = col_of_row.iter().map(|&slot| (slot / f) as u32).collect();
    let a = Assignment { proc_of_part };
    a.validate(p, f);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_mwbg;

    #[test]
    fn trivial_assignment() {
        let cost = vec![vec![1, 2], vec![2, 1]];
        let (total, cols) = min_cost_assignment(&cost);
        assert_eq!(total, 2);
        assert_eq!(cols, vec![0, 1]);
    }

    #[test]
    fn forced_suboptimal_diagonal() {
        // The diagonal (1+1+1) is beaten by the anti-diagonal pattern.
        let cost = vec![vec![1, 0, 100], vec![0, 100, 100], vec![1, 100, 0]];
        let (total, cols) = min_cost_assignment(&cost);
        assert_eq!(total, 0);
        assert_eq!(cols, vec![1, 0, 2]);
    }

    #[test]
    fn rectangular_more_columns() {
        let cost = vec![vec![5, 1, 9], vec![9, 9, 2]];
        let (total, cols) = min_cost_assignment(&cost);
        assert_eq!(total, 3);
        assert_eq!(cols, vec![1, 2]);
    }

    #[test]
    fn optimal_beats_greedy_on_crafted_matrix() {
        // Greedy grabs the 100 in the corner, which forces a bad completion.
        let sm =
            SimilarityMatrix::from_rows(vec![vec![100, 99, 0], vec![99, 0, 0], vec![98, 0, 1]]);
        let g = greedy_mwbg(&sm);
        let o = optimal_mwbg(&sm);
        let go = sm.objective(&g.proc_of_part);
        let oo = sm.objective(&o.proc_of_part);
        // Greedy: 100 (0→p0), then 99… row1 col0 taken ⇒ objective 100+1(or 0)…
        assert!(oo >= go, "optimal {oo} < greedy {go}");
        assert_eq!(oo, 99 + 99 + 1, "optimal picks the anti-diagonal");
        assert!(2 * go >= oo, "Theorem 1 violated: 2·{go} < {oo}");
    }

    #[test]
    fn exhaustive_optimality_small() {
        // Verify optimality against brute force on all 4! permutations.
        let sm = SimilarityMatrix::from_rows(vec![
            vec![10, 40, 5, 0],
            vec![0, 30, 25, 11],
            vec![7, 7, 7, 7],
            vec![50, 0, 0, 12],
        ]);
        let o = optimal_mwbg(&sm);
        let best = crate::permutations(4)
            .into_iter()
            .map(|perm| {
                let assign: Vec<u32> = perm.iter().map(|&x| x as u32).collect();
                sm.objective(&assign)
            })
            .max()
            .unwrap();
        assert_eq!(sm.objective(&o.proc_of_part), best);
    }

    #[test]
    fn f2_duplication() {
        let sm = SimilarityMatrix::from_rows(vec![vec![9, 8, 0, 0], vec![0, 0, 9, 8]]);
        let a = optimal_mwbg(&sm);
        a.validate(2, 2);
        assert_eq!(sm.objective(&a.proc_of_part), 34);
    }

    #[test]
    fn permutation_helper_is_correct() {
        let ps = crate::permutations(3);
        assert_eq!(ps.len(), 6);
        for p in &ps {
            let mut s = p.clone();
            s.sort_unstable();
            assert_eq!(s, vec![0, 1, 2]);
        }
    }
}
