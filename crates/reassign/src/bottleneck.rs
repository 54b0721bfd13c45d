//! The optimal BMCM mapper (MaxV metric, §4.4).
//!
//! Assigning partition `j` to processor `i` makes `i` receive
//! `part_totals[j] − S[i][j]` elements and send `proc_totals[i] − S[i][j]`
//! elements (for `F = 1`). MaxV minimizes, over all perfect matchings, the
//! maximum over processors of `max(α·sent, β·received)` — the bottleneck
//! maximum cardinality matching problem of Gabow & Tarjan [10]. We solve it
//! by binary-searching the bottleneck threshold over the sorted distinct
//! costs, testing feasibility with Hopcroft–Karp matching.

use crate::simmatrix::{Assignment, SimilarityMatrix};

/// Maximum bipartite matching (Hopcroft–Karp). `adj[u]` lists the right
/// vertices reachable from left vertex `u`; both sides have `n` vertices.
/// Returns `(size, match_of_left)`.
pub fn hopcroft_karp(n: usize, adj: &[Vec<u32>]) -> (usize, Vec<Option<u32>>) {
    const NIL: u32 = u32::MAX;
    let mut match_l = vec![NIL; n];
    let mut match_r = vec![NIL; n];
    let mut dist = vec![0u32; n];
    let mut size = 0usize;

    loop {
        // BFS from free left vertices.
        let mut queue = std::collections::VecDeque::new();
        for u in 0..n {
            if match_l[u] == NIL {
                dist[u] = 0;
                queue.push_back(u as u32);
            } else {
                dist[u] = u32::MAX;
            }
        }
        let mut found_augmenting = false;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u as usize] {
                let w = match_r[v as usize];
                if w == NIL {
                    found_augmenting = true;
                } else if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[u as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        if !found_augmenting {
            break;
        }
        // DFS augmentation along layered structure.
        fn dfs(
            u: usize,
            adj: &[Vec<u32>],
            dist: &mut [u32],
            match_l: &mut [u32],
            match_r: &mut [u32],
        ) -> bool {
            for k in 0..adj[u].len() {
                let v = adj[u][k] as usize;
                let w = match_r[v];
                if w == u32::MAX
                    || (dist[w as usize] == dist[u] + 1
                        && dfs(w as usize, adj, dist, match_l, match_r))
                {
                    match_l[u] = v as u32;
                    match_r[v] = u as u32;
                    return true;
                }
            }
            dist[u] = u32::MAX;
            false
        }
        for u in 0..n {
            if match_l[u] == NIL && dfs(u, adj, &mut dist, &mut match_l, &mut match_r) {
                size += 1;
            }
        }
    }

    let out = match_l
        .iter()
        .map(|&v| if v == NIL { None } else { Some(v) })
        .collect();
    (size, out)
}

/// `max(α·sent, β·received)` for a processor holding `proc_total`, taking a
/// partition of `part_total`, of which `s` is already in place.
fn flow_cost(s: u64, proc_total: u64, part_total: u64, alpha: f64, beta: f64) -> f64 {
    let sent = (proc_total - s) as f64;
    let recv = (part_total - s) as f64;
    (alpha * sent).max(beta * recv)
}

/// The per-pair bottleneck cost of assigning partition `j` to processor `i`:
/// `max(α·sent_i, β·received_i)`.
pub fn bottleneck_cost(sm: &SimilarityMatrix, i: usize, j: usize, alpha: f64, beta: f64) -> f64 {
    flow_cost(
        sm.get(i, j),
        sm.proc_totals[i],
        sm.part_totals[j],
        alpha,
        beta,
    )
}

/// The optimal BMCM mapper for `F = 1` (as implemented in the paper):
/// minimizes the maximum per-processor flow `max(α·sent, β·received)`.
pub fn optimal_bmcm(sm: &SimilarityMatrix, alpha: f64, beta: f64) -> Assignment {
    assert_eq!(sm.f, 1, "BMCM is implemented for F = 1, as in the paper");
    let n = sm.nproc;

    // The threshold search probes every pair `O(log P)` times, so the dense
    // `P × P` cost table is materialised here, once: the zero-similarity
    // cost everywhere, then the non-zeros.
    let mut cost = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            cost[i * n + j] = flow_cost(0, sm.proc_totals[i], sm.part_totals[j], alpha, beta);
        }
        for (j, s) in sm.row(i) {
            cost[i * n + j] = flow_cost(s, sm.proc_totals[i], sm.part_totals[j], alpha, beta);
        }
    }

    // Candidate thresholds: the distinct pairwise costs.
    let mut costs = cost.clone();
    costs.sort_by(f64::total_cmp);
    costs.dedup();

    // Binary search the smallest feasible threshold.
    let feasible = |t: f64| -> Option<Vec<Option<u32>>> {
        let adj: Vec<Vec<u32>> = (0..n)
            .map(|j| {
                (0..n as u32)
                    .filter(|&i| cost[i as usize * n + j] <= t)
                    .collect()
            })
            .collect();
        let (size, m) = hopcroft_karp(n, &adj);
        (size == n).then_some(m)
    };

    let mut lo = 0usize;
    let mut hi = costs.len() - 1;
    debug_assert!(
        feasible(costs[hi]).is_some(),
        "full matrix must be feasible"
    );
    while lo < hi {
        let mid = (lo + hi) / 2;
        if feasible(costs[mid]).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let matching = feasible(costs[lo]).expect("threshold search converged on feasible value");
    let proc_of_part: Vec<u32> = matching.into_iter().map(|m| m.unwrap()).collect();
    let a = Assignment { proc_of_part };
    a.validate(n, 1);
    a
}

/// The achieved bottleneck value of an assignment.
pub fn bottleneck_value(sm: &SimilarityMatrix, a: &Assignment, alpha: f64, beta: f64) -> f64 {
    a.proc_of_part
        .iter()
        .enumerate()
        .map(|(j, &i)| bottleneck_cost(sm, i as usize, j, alpha, beta))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian::optimal_mwbg;

    #[test]
    fn hopcroft_karp_perfect_matching() {
        // Bipartite 3×3 with a unique perfect matching 0→1, 1→0, 2→2.
        let adj = vec![vec![1], vec![0, 1], vec![1, 2]];
        let (size, m) = hopcroft_karp(3, &adj);
        assert_eq!(size, 3);
        assert_eq!(m, vec![Some(1), Some(0), Some(2)]);
    }

    #[test]
    fn hopcroft_karp_detects_infeasible() {
        // Two left vertices compete for one right vertex.
        let adj = vec![vec![0], vec![0], vec![1, 2]];
        let (size, _) = hopcroft_karp(3, &adj);
        assert_eq!(size, 2);
    }

    #[test]
    fn bmcm_minimizes_bottleneck_vs_brute_force() {
        let sm = SimilarityMatrix::from_rows(vec![
            vec![100, 40, 5, 0],
            vec![0, 130, 25, 11],
            vec![7, 7, 70, 7],
            vec![50, 0, 0, 120],
        ]);
        let a = optimal_bmcm(&sm, 1.0, 1.0);
        let got = bottleneck_value(&sm, &a, 1.0, 1.0);
        let best = crate::permutations(4)
            .into_iter()
            .map(|perm| {
                let assign = Assignment {
                    proc_of_part: perm.iter().map(|&x| x as u32).collect(),
                };
                bottleneck_value(&sm, &assign, 1.0, 1.0)
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            (got - best).abs() < 1e-9,
            "bmcm {got} vs brute force {best}"
        );
    }

    #[test]
    fn bmcm_bottleneck_never_worse_than_mwbg() {
        let sm =
            SimilarityMatrix::from_rows(vec![vec![30, 20, 0], vec![25, 0, 15], vec![0, 10, 40]]);
        let bm = optimal_bmcm(&sm, 1.0, 1.0);
        let mw = optimal_mwbg(&sm);
        assert!(
            bottleneck_value(&sm, &bm, 1.0, 1.0) <= bottleneck_value(&sm, &mw, 1.0, 1.0) + 1e-9
        );
    }

    #[test]
    fn alpha_beta_asymmetry_changes_costs() {
        let sm = SimilarityMatrix::from_rows(vec![vec![10, 0], vec![0, 10]]);
        // Identity keeps everything: cost 0 regardless of α, β.
        let a = optimal_bmcm(&sm, 2.0, 0.5);
        assert_eq!(a.proc_of_part, vec![0, 1]);
        assert_eq!(bottleneck_value(&sm, &a, 2.0, 0.5), 0.0);
    }
}
