//! Second-order (Chebyshev-accelerated) diffusion over the rank-adjacency
//! graph: the classical local balancer the paper positions PLUM against, in
//! the second-order scheme (SOS) of the diffusive load-balancing
//! literature. [`crate::balance_body`] runs it inside the simulator as a
//! serial kernel on rank 0, so it competes there bit-identically.
//!
//! The scheme has two stages. The *flow solve* works on the replicated
//! per-part load vector: with `L` the Laplacian of the rank-adjacency
//! graph and `M = I − αL` (α = 1/(1+max_deg)), first-order diffusion
//! iterates `x ← Mx`; the second-order scheme accelerates it with the
//! Chebyshev-style recurrence `x^{k+1} = βMx^k + (1−β)x^{k−1}`, where
//! `β = 2/(1+√(1−γ²))` and γ is the dominant eigenvalue of `M` on the
//! deviation subspace (estimated by a deterministic power iteration). The
//! solve runs on *deviations from the capacity-weighted target*
//! `x_p = w_p − total·f_p`, so heterogeneous capacities steer the flows
//! exactly as effective weights `w_p/c_p` would, while the quantity being
//! diffused stays in raw (conserved) weight units. Accumulating the
//! per-edge transfers yields a flow plan: how much weight each rank pair
//! should exchange.
//!
//! The *element selection* stage realizes the plan with local moves:
//! deterministic sweeps over the vertices move boundary elements along
//! edges with outstanding quota until the plan is (approximately)
//! realized. A final monotone guard keeps the previous partition whenever
//! the realized moves fail to improve the effective imbalance, which makes
//! an already-balanced partition an exact fixed point.
//!
//! There is no per-round implementation: the SPMD body gathers the owned
//! weights and seed parts to rank 0, which runs this whole kernel, flow
//! solve and element selection, and scatters the parts back — one gather
//! and one scatter are its entire traffic, and rank 0 pays for every
//! vertex.

use crate::graph::Graph;
use crate::metrics::weights_of;
use crate::sfc::Shares;
use crate::weights::Weights;

/// Cap on flow-solve rounds. The Chebyshev recurrence converges in
/// O(diam·√cond) rounds on the graphs we see; 64 is comfortably past that
/// for P ≤ 4096 rank graphs while bounding the serial solve.
pub const DIFFUSION2_MAX_ROUNDS: usize = 64;

/// Element-selection sweeps realizing the flow plan. Each sweep walks the
/// vertices once; quotas shrink monotonically, so a handful suffices.
const SELECT_SWEEPS: usize = 8;

/// Stop the flow solve once every part is within this fraction of the
/// average part load from its capacity target.
const FLOW_TOL: f64 = 0.01;

/// Power-iteration steps for the γ estimate. The estimate only tunes the
/// acceleration parameter β, so a rough figure is fine.
const GAMMA_ITERS: usize = 32;

/// Result of the diffusion flow solve on the rank-adjacency graph.
pub struct FlowSolve {
    /// Rounds actually executed (0 when the input is already in tolerance).
    pub rounds: usize,
    /// Rank-graph edges `(p, q)` with `p < q`, sorted.
    pub edges: Vec<(u32, u32)>,
    /// Cumulative signed flow per edge; positive means `p → q`.
    pub flows: Vec<f64>,
    /// Per-round signed flow per edge, for conservation checks.
    pub round_flows: Vec<Vec<f64>>,
}

/// Rank-adjacency graph: parts `p` and `q` are adjacent when some mesh
/// edge crosses the `p|q` boundary. Deterministic (BTreeSet dedup), and
/// self-loops are dropped.
pub fn rank_adjacency(g: &Graph<'_>, part: &[u32], nparts: usize) -> Vec<Vec<usize>> {
    use std::collections::BTreeSet;
    assert_eq!(g.n(), part.len(), "one part per vertex");
    let mut nbr: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nparts];
    for v in 0..g.n() {
        let p = part[v] as usize;
        for (u, _) in g.edges(v) {
            let q = part[u as usize] as usize;
            if p != q {
                nbr[p].insert(q);
                nbr[q].insert(p);
            }
        }
    }
    nbr.into_iter().map(|s| s.into_iter().collect()).collect()
}

/// Dominant eigenvalue of `M = I − αL` on the deviation subspace,
/// estimated by a deterministic power iteration with mean deflation. Only
/// tunes the Chebyshev β, so the rough 32-step figure is plenty.
fn estimate_gamma(adj: &[Vec<usize>], alpha: f64) -> f64 {
    let n = adj.len();
    if n < 2 {
        return 0.0;
    }
    // Weyl-sequence start vector: deterministic, no special symmetry.
    let mut v: Vec<f64> = (0..n)
        .map(|i| ((i as f64 * 0.618_033_988_75).fract()) - 0.5)
        .collect();
    let mut gamma = 0.0;
    for _ in 0..GAMMA_ITERS {
        // Deflate the all-ones eigenvector (eigenvalue 1) so the power
        // iteration converges to the dominant *deviation* mode.
        let mean = v.iter().sum::<f64>() / n as f64;
        for x in v.iter_mut() {
            *x -= mean;
        }
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-300 {
            return 0.0;
        }
        for x in v.iter_mut() {
            *x /= norm;
        }
        // w = Mv = v − αLv
        let mut w = v.clone();
        for (p, nbrs) in adj.iter().enumerate() {
            for &q in nbrs {
                w[p] += alpha * (v[q] - v[p]);
            }
        }
        gamma = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        v = w;
    }
    gamma.clamp(0.0, 0.999)
}

/// Solve for per-edge flows that drive the deviation vector `load` toward
/// zero. `load` is the signed deviation of each part from its target (its
/// entries sum to ~0); the returned flows satisfy
/// `final_p = load_p − Σ_{e∋p} ±flow_e` with `final` within `tol` of zero
/// (or `max_rounds` reached). `second_order` enables the Chebyshev
/// recurrence; otherwise the plain first-order scheme runs — kept callable
/// so the property tests can compare convergence.
pub fn solve_flows(
    adj: &[Vec<usize>],
    load: &[f64],
    second_order: bool,
    max_rounds: usize,
    tol: f64,
) -> FlowSolve {
    let n = adj.len();
    assert_eq!(n, load.len(), "one load per part");
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (p, nbrs) in adj.iter().enumerate() {
        for &q in nbrs {
            if p < q {
                edges.push((p as u32, q as u32));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let mut out = FlowSolve {
        rounds: 0,
        flows: vec![0.0; edges.len()],
        round_flows: Vec::new(),
        edges,
    };
    if out.edges.is_empty() {
        return out;
    }
    let max_deg = adj.iter().map(Vec::len).max().unwrap_or(0);
    let alpha = 1.0 / (1.0 + max_deg as f64);
    let beta = if second_order {
        let gamma = estimate_gamma(adj, alpha);
        2.0 / (1.0 + (1.0 - gamma * gamma).sqrt())
    } else {
        1.0
    };
    let mut x = load.to_vec();
    // z[e] is the flow sent along edge e in the previous round; the SOS
    // recurrence x^{k+1} = βMx^k + (1−β)x^{k−1} rewrites per edge as
    // z^k = βα(x_p − x_q) + (β−1)z^{k−1}, which keeps the scheme
    // flow-conserving round by round.
    let mut z = vec![0.0; out.edges.len()];
    for round in 0..max_rounds {
        if x.iter().fold(0.0f64, |m, v| m.max(v.abs())) <= tol {
            break;
        }
        let mut round_flow = vec![0.0; out.edges.len()];
        for (e, &(p, q)) in out.edges.iter().enumerate() {
            let first = alpha * (x[p as usize] - x[q as usize]);
            round_flow[e] = if round == 0 || !second_order {
                first
            } else {
                beta * first + (beta - 1.0) * z[e]
            };
        }
        for (e, &(p, q)) in out.edges.iter().enumerate() {
            x[p as usize] -= round_flow[e];
            x[q as usize] += round_flow[e];
            out.flows[e] += round_flow[e];
        }
        z = round_flow.clone();
        out.round_flows.push(round_flow);
        out.rounds = round + 1;
    }
    out
}

/// Realize the flow plan with local element moves: deterministic sweeps
/// move a vertex from its part `s` to a neighboring part `q` while the
/// outstanding `s → q` quota still covers at least half the vertex weight
/// (largest remaining quota wins, ties break to the smallest part id).
fn realize_flows(g: &Graph<'_>, w: &[u64], prev: &[u32], solve: &FlowSolve) -> (Vec<u32>, usize) {
    use std::collections::BTreeMap;
    let mut quota: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for (e, &(p, q)) in solve.edges.iter().enumerate() {
        let f = solve.flows[e];
        if f > 0.0 {
            quota.insert((p, q), f);
        } else if f < 0.0 {
            quota.insert((q, p), -f);
        }
    }
    let mut part = prev.to_vec();
    let mut moved_total = 0usize;
    for _ in 0..SELECT_SWEEPS {
        let mut moved = false;
        for v in 0..g.n() {
            let s = part[v];
            let wv = w[v] as f64;
            // Best destination among the parts of v's neighbors: the
            // outstanding quota must cover at least half the vertex, so
            // realized flow overshoots the plan by at most wv/2 per edge.
            let mut best: Option<(f64, u32)> = None;
            for (u, _) in g.edges(v) {
                let q = part[u as usize];
                if q == s {
                    continue;
                }
                let Some(&left) = quota.get(&(s, q)) else {
                    continue;
                };
                if left < wv / 2.0 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bleft, bq)) => left > bleft || (left == bleft && q < bq),
                };
                if better {
                    best = Some((left, q));
                }
            }
            if let Some((_, q)) = best {
                *quota.get_mut(&(s, q)).unwrap() -= wv;
                part[v] = q;
                moved = true;
                moved_total += 1;
            }
        }
        if !moved {
            break;
        }
    }
    (part, moved_total)
}

/// Shared core of the single- and dual-constraint kernels: flow solve on
/// `w_flow` (the constraint being diffused), realization, then a monotone
/// guard under `judge` (the imbalance the caller contracts never to
/// increase).
fn diffusion2_core(
    g: &Graph<'_>,
    w_flow: &[u64],
    prev: &[u32],
    nparts: usize,
    caps: &[f64],
    judge: impl Fn(&[u32]) -> f64,
) -> Vec<u32> {
    assert_eq!(g.n(), prev.len(), "one previous part per vertex");
    assert_eq!(g.n(), w_flow.len(), "one weight per vertex");
    if nparts <= 1 || g.n() == 0 {
        return prev.to_vec();
    }
    let frac = Shares::new(caps).fracs(nparts);
    let w_parts = weights_of(w_flow, prev, nparts);
    let total: u64 = w_parts.iter().sum();
    if total == 0 {
        return prev.to_vec();
    }
    // Deviation from the capacity-weighted target, in raw weight units:
    // exactly what element moves conserve, and zero iff perfectly placed.
    let dev: Vec<f64> = w_parts
        .iter()
        .zip(&frac)
        .map(|(&w, &f)| w as f64 - total as f64 * f)
        .collect();
    let tol = FLOW_TOL * total as f64 / nparts as f64;
    let adj = rank_adjacency(g, prev, nparts);
    let solve = solve_flows(&adj, &dev, true, DIFFUSION2_MAX_ROUNDS, tol);
    if solve.edges.is_empty() || solve.rounds == 0 {
        return prev.to_vec();
    }
    let (part, _) = realize_flows(g, w_flow, prev, &solve);
    // Monotone guard: diffusion repairs or does nothing. This also makes
    // an already-balanced partition an exact fixed point (zero deviation
    // ⇒ zero rounds above, but quantization can leave small deviations —
    // the guard catches any realization that fails to pay for itself).
    if judge(&part) > judge(prev) - 1e-12 {
        return prev.to_vec();
    }
    part
}

/// Rebalance `prev` by second-order diffusion over the rank-adjacency
/// graph of `g`: diffuse [`Weights::drive`], judge the monotone guard on
/// [`Weights::imbalance`]. Capacity-aware via the deviation target
/// `total·c_p/Σc`; never worsens the effective imbalance, and a balanced
/// input is returned unchanged.
pub(crate) fn diffusion2_balance(
    g: &Graph<'_>,
    w: Weights,
    prev: &[u32],
    nparts: usize,
    caps: &[f64],
) -> Vec<u32> {
    let judge = |part: &[u32]| w.imbalance(part, nparts, caps);
    diffusion2_core(g, &w.drive(), prev, nparts, caps, judge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::imbalance_weighted;

    /// Ring of n vertices with the given weights.
    fn ring(n: usize, vwgt: Vec<u64>) -> (Vec<u32>, Vec<u32>, Vec<u64>) {
        let mut xadj = Vec::with_capacity(n + 1);
        let mut adjncy = Vec::with_capacity(2 * n);
        xadj.push(0u32);
        for v in 0..n {
            adjncy.push(((v + n - 1) % n) as u32);
            adjncy.push(((v + 1) % n) as u32);
            xadj.push(adjncy.len() as u32);
        }
        (xadj, adjncy, vwgt)
    }

    #[test]
    fn balanced_partition_is_exact_fixed_point() {
        let (xadj, adjncy, vwgt) = ring(64, vec![1; 64]);
        let g = Graph::view(&xadj, &adjncy, &vwgt);
        let prev: Vec<u32> = (0..64).map(|v| (v / 16) as u32).collect();
        let caps = vec![1.0; 4];
        assert_eq!(
            diffusion2_balance(&g, Weights::new(&vwgt, None), &prev, 4, &caps),
            prev
        );
    }

    #[test]
    fn imbalanced_ring_improves_and_conserves_weight() {
        let n = 64;
        let mut vwgt = vec![1u64; n];
        for w in vwgt.iter_mut().take(16) {
            *w = 8; // first part carries 8× weight
        }
        let (xadj, adjncy, vwgt) = ring(n, vwgt);
        let g = Graph::view(&xadj, &adjncy, &vwgt);
        let prev: Vec<u32> = (0..n).map(|v| (v / 16) as u32).collect();
        let caps = vec![1.0; 4];
        let part = diffusion2_balance(&g, Weights::new(&vwgt, None), &prev, 4, &caps);
        let total_before: u64 = weights_of(&vwgt, &prev, 4).iter().sum();
        let total_after: u64 = weights_of(&vwgt, &part, 4).iter().sum();
        assert_eq!(total_before, total_after, "moves must conserve weight");
        let old = imbalance_weighted(&weights_of(&vwgt, &prev, 4), &caps);
        let new = imbalance_weighted(&weights_of(&vwgt, &part, 4), &caps);
        assert!(new < old, "diffusion must repair: {new} vs {old}");
        assert!(part != prev, "the hot ring must shed load");
    }

    #[test]
    fn capacity_aware_targets_follow_fractions() {
        let n = 60;
        let (xadj, adjncy, vwgt) = ring(n, vec![1; n]);
        let g = Graph::view(&xadj, &adjncy, &vwgt);
        // Equal thirds, but part 0 has twice the capacity: its deviation
        // target is 30, so diffusion should push load *toward* part 0.
        let prev: Vec<u32> = (0..n).map(|v| (v / 20) as u32).collect();
        let caps = vec![2.0, 1.0, 1.0];
        let part = diffusion2_balance(&g, Weights::new(&vwgt, None), &prev, 3, &caps);
        let w = weights_of(&vwgt, &part, 3);
        let old = imbalance_weighted(&weights_of(&vwgt, &prev, 3), &caps);
        let new = imbalance_weighted(&w, &caps);
        assert!(
            new < old,
            "capacity-weighted imbalance must drop: {new} vs {old}"
        );
        assert!(w[0] > 20, "double-capacity part must gain load: {w:?}");
    }

    #[test]
    fn chebyshev_flow_solve_converges_on_path_graph() {
        // Path of 8 ranks, all load on rank 0.
        let adj: Vec<Vec<usize>> = (0..8)
            .map(|p: usize| {
                let mut v = Vec::new();
                if p > 0 {
                    v.push(p - 1);
                }
                if p < 7 {
                    v.push(p + 1);
                }
                v
            })
            .collect();
        let mut dev = vec![-10.0; 8];
        dev[0] = 70.0;
        let so = solve_flows(&adj, &dev, true, 400, 0.5);
        let fo = solve_flows(&adj, &dev, false, 400, 0.5);
        assert!(so.rounds > 0 && so.rounds < 400, "SOS must converge");
        assert!(
            so.rounds <= fo.rounds,
            "second order ({}) must not be slower than first order ({})",
            so.rounds,
            fo.rounds
        );
        // Final deviations follow from the flows exactly.
        let mut fin = dev.clone();
        for (e, &(p, q)) in so.edges.iter().enumerate() {
            fin[p as usize] -= so.flows[e];
            fin[q as usize] += so.flows[e];
        }
        assert!(fin.iter().all(|x| x.abs() <= 0.5), "unconverged: {fin:?}");
    }
}
