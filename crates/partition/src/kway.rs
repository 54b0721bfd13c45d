//! The multilevel k-way partitioner: HEM coarsening, recursive-bisection
//! initial partitioning of the coarsest graph, and boundary-greedy k-way
//! refinement during uncoarsening (the structure of MeTiS [15]).

use std::borrow::Cow;

use crate::bisect::bisect;
use crate::coarsen::coarsen_once;
use crate::graph::Graph;
use crate::knapsack::knapsack_partition;
use crate::metrics::{combine_dual, imbalance_dual, part_weights, partition_imbalance, weights_of};
use crate::rng::Rng;
use crate::weights::Weights;

/// Relative-load comparison under per-part ceilings in exact integer
/// arithmetic: `a/ca < b/cb  ⟺  a·cb < b·ca`. With uniform ceilings this is
/// exactly `a < b`, so the unweighted paths keep their historical behavior
/// bit-for-bit.
#[inline]
pub(crate) fn rel_lt(a: u64, ca: u64, b: u64, cb: u64) -> bool {
    (a as u128) * (cb as u128) < (b as u128) * (ca as u128)
}

/// Per-part weight ceilings. Uniform (`frac == None`) reproduces the
/// historical scalar `ceil(total/nparts · tol)`; capacity-weighted parts get
/// `ceil(total · frac_p · tol)`, never below 1 so a tiny-capacity part can
/// still hold a vertex.
pub(crate) fn part_ceilings(total: u64, cfg: &PartitionConfig, frac: Option<&[f64]>) -> Vec<u64> {
    match frac {
        None => {
            let m = (total as f64 / cfg.nparts as f64 * cfg.imbalance_tol).ceil() as u64;
            vec![m; cfg.nparts]
        }
        Some(f) => f
            .iter()
            .map(|&fr| ((total as f64 * fr * cfg.imbalance_tol).ceil() as u64).max(1))
            .collect(),
    }
}

/// Normalized capacity fractions, or `None` when the capacities are uniform —
/// in which case callers must take the unweighted integer path, which the
/// zero-chaos golden tests require to stay bit-exact.
pub(crate) fn capacity_fractions(caps: &[f64], nparts: usize) -> Option<Vec<f64>> {
    assert_eq!(caps.len(), nparts, "need one capacity per part");
    assert!(
        caps.iter().all(|c| c.is_finite() && *c > 0.0),
        "capacities must be finite and positive: {caps:?}"
    );
    if caps.iter().all(|&c| c == caps[0]) {
        return None;
    }
    let sum: f64 = caps.iter().sum();
    Some(caps.iter().map(|c| c / sum).collect())
}

/// Configuration for [`partition_kway`] and
/// [`crate::repart::repartition_kway`].
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Number of parts.
    pub nparts: usize,
    /// Allowed imbalance: max part weight ≤ `tol × average` (e.g. 1.05).
    pub imbalance_tol: f64,
    /// RNG seed (the partitioner is deterministic for a fixed seed).
    pub seed: u64,
    /// Stop coarsening once the graph has at most this many vertices
    /// (0 = auto: `max(128, 16 × nparts)`).
    pub coarsen_to: usize,
    /// Refinement passes per uncoarsening level.
    pub refine_passes: usize,
}

impl PartitionConfig {
    /// Reasonable defaults for `nparts` parts.
    pub fn new(nparts: usize) -> Self {
        PartitionConfig {
            nparts,
            imbalance_tol: 1.05,
            seed: 0x9e37,
            coarsen_to: 0,
            refine_passes: 6,
        }
    }

    pub(crate) fn coarsen_target(&self) -> usize {
        if self.coarsen_to > 0 {
            self.coarsen_to
        } else {
            (16 * self.nparts).max(128)
        }
    }
}

/// Recursive bisection of `g` into `k` parts labelled `offset..offset+k`.
/// `frac`, when present, holds one capacity fraction per part; the split
/// target follows the capacity prefix sum instead of the vertex count.
fn recursive_bisect(
    g: &Graph,
    k: usize,
    offset: u32,
    tol: f64,
    rng: &mut Rng,
    out: &mut [u32],
    frac: Option<&[f64]>,
) {
    debug_assert_eq!(out.len(), g.n());
    if k == 1 {
        out.fill(offset);
        return;
    }
    let k0 = k / 2;
    let k1 = k - k0;
    let target0 = match frac {
        // The exact integer expression the unweighted partitioner has always
        // used — kept verbatim so uniform capacities stay bit-identical.
        None => g.total_vwgt() * k0 as u64 / k as u64,
        Some(f) => {
            let s0: f64 = f[..k0].iter().sum();
            let s: f64 = f.iter().sum();
            (g.total_vwgt() as f64 * (s0 / s)).round() as u64
        }
    };
    let side = bisect(g, target0, tol, 3, rng);
    let verts0: Vec<u32> = (0..g.n() as u32)
        .filter(|&v| side[v as usize] == 0)
        .collect();
    let verts1: Vec<u32> = (0..g.n() as u32)
        .filter(|&v| side[v as usize] == 1)
        .collect();
    let g0 = g.induced(&verts0);
    let g1 = g.induced(&verts1);
    let mut out0 = vec![0u32; g0.n()];
    let mut out1 = vec![0u32; g1.n()];
    recursive_bisect(&g0, k0, offset, tol, rng, &mut out0, frac.map(|f| &f[..k0]));
    recursive_bisect(
        &g1,
        k1,
        offset + k0 as u32,
        tol,
        rng,
        &mut out1,
        frac.map(|f| &f[k0..]),
    );
    for (i, &v) in verts0.iter().enumerate() {
        out[v as usize] = out0[i];
    }
    for (i, &v) in verts1.iter().enumerate() {
        out[v as usize] = out1[i];
    }
}

/// One pass of boundary-greedy k-way refinement: every vertex may move to
/// the adjacent part maximizing its connectivity gain, subject to the
/// balance constraint. Returns the number of moves.
pub(crate) fn kway_refine_pass(
    g: &Graph,
    part: &mut [u32],
    weights: &mut [u64],
    max_w: &[u64],
    rng: &mut Rng,
) -> usize {
    let nparts = weights.len();
    let mut order: Vec<u32> = (0..g.n() as u32).collect();
    rng.shuffle(&mut order);
    let mut conn = vec![0i64; nparts];
    let mut touched: Vec<u32> = Vec::new();
    let mut moves = 0;
    for &v in &order {
        let v = v as usize;
        let cur = part[v] as usize;
        touched.clear();
        let mut is_boundary = false;
        for (u, w) in g.edges(v) {
            let p = part[u as usize] as usize;
            if conn[p] == 0 {
                touched.push(p as u32);
            }
            conn[p] += w as i64;
            if p != cur {
                is_boundary = true;
            }
        }
        if is_boundary {
            let cur_conn = conn[cur];
            let overweight_here = weights[cur] > max_w[cur];
            let mut best: Option<(i64, usize)> = None;
            for &p in &touched {
                let p = p as usize;
                if p == cur {
                    continue;
                }
                let gain = conn[p] - cur_conn;
                let fits = weights[p] + g.vwgt[v] <= max_w[p];
                let acceptable = (gain > 0 && fits)
                    || (gain >= 0
                        && overweight_here
                        && rel_lt(weights[p] + g.vwgt[v], max_w[p], weights[cur], max_w[cur]));
                if acceptable && best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, p));
                }
            }
            if let Some((_, p)) = best {
                part[v] = p as u32;
                weights[cur] -= g.vwgt[v];
                weights[p] += g.vwgt[v];
                moves += 1;
            }
        }
        for &p in &touched {
            conn[p as usize] = 0;
        }
    }
    moves
}

/// Forced balancing by boundary draining: sweep the vertices; every vertex
/// in an overweight part moves to its best under-loaded neighbouring part
/// (falling back to the globally lightest part so interior vertices cannot
/// deadlock the drain). Each sweep is `O(n + m)`; overweight regions drain
/// layer by layer, and the subsequent refinement passes repair the cut.
pub(crate) fn kway_balance(
    g: &Graph,
    part: &mut [u32],
    weights: &mut [u64],
    max_w: &[u64],
) -> usize {
    let nparts = weights.len();
    let mut moves = 0;
    for _sweep in 0..64 {
        if (0..nparts).all(|p| weights[p] <= max_w[p]) {
            break;
        }
        let mut moved_this_sweep = 0;
        for v in 0..g.n() {
            let s = part[v] as usize;
            if weights[s] <= max_w[s] {
                continue;
            }
            let vw = g.vwgt[v];
            // Best adjacent relatively-lighter part by connectivity.
            let mut best: Option<(i64, usize)> = None;
            for (u, w) in g.edges(v) {
                let p = part[u as usize] as usize;
                if p != s && rel_lt(weights[p] + vw, max_w[p], weights[s], max_w[s]) {
                    let gain = w as i64;
                    if best.is_none_or(|(bg, _)| gain > bg) {
                        best = Some((gain, p));
                    }
                }
            }
            let to = match best {
                Some((_, p)) => p,
                None => {
                    // Interior vertex of an overweight region: fall back to
                    // the relatively lightest part if that still helps.
                    let mut lightest = 0;
                    for p in 1..nparts {
                        if rel_lt(weights[p], max_w[p], weights[lightest], max_w[lightest]) {
                            lightest = p;
                        }
                    }
                    if !rel_lt(
                        weights[lightest] + vw,
                        max_w[lightest],
                        weights[s],
                        max_w[s],
                    ) {
                        continue;
                    }
                    lightest
                }
            };
            weights[s] -= vw;
            weights[to] += vw;
            part[v] = to as u32;
            moved_this_sweep += 1;
        }
        if moved_this_sweep == 0 {
            break;
        }
        moves += moved_this_sweep;
    }
    moves
}

/// Relative dual load of a part against its per-constraint ceilings: the
/// binding (worse) constraint's fill fraction. The dual paths never feed
/// the bit-exact single-constraint goldens — those delegate before reaching
/// this code — so f64 comparison is fine here.
#[inline]
fn dual_rel(w1: u64, m1: u64, w2: u64, m2: u64) -> f64 {
    (w1 as f64 / m1 as f64).max(w2 as f64 / m2 as f64)
}

/// Dual-constraint boundary drain: like [`kway_balance`], but a part is
/// overweight when *either* constraint exceeds its ceiling, and relative
/// comparisons use the binding constraint's fill fraction.
pub(crate) fn kway_balance_dual(
    g: &Graph,
    w2: &[u64],
    part: &mut [u32],
    wt1: &mut [u64],
    wt2: &mut [u64],
    max1: &[u64],
    max2: &[u64],
) -> usize {
    let nparts = wt1.len();
    let mut moves = 0;
    for _sweep in 0..64 {
        if (0..nparts).all(|p| wt1[p] <= max1[p] && wt2[p] <= max2[p]) {
            break;
        }
        let mut moved_this_sweep = 0;
        for v in 0..g.n() {
            let s = part[v] as usize;
            if wt1[s] <= max1[s] && wt2[s] <= max2[s] {
                continue;
            }
            let v1 = g.vwgt[v];
            let v2 = w2[v];
            let src = dual_rel(wt1[s], max1[s], wt2[s], max2[s]);
            // Best adjacent part that would still be relatively lighter.
            let mut best: Option<(i64, usize)> = None;
            for (u, w) in g.edges(v) {
                let p = part[u as usize] as usize;
                if p != s && dual_rel(wt1[p] + v1, max1[p], wt2[p] + v2, max2[p]) < src {
                    let gain = w as i64;
                    if best.is_none_or(|(bg, _)| gain > bg) {
                        best = Some((gain, p));
                    }
                }
            }
            let to = match best {
                Some((_, p)) => p,
                None => {
                    // Interior vertex of an overweight region: fall back to
                    // the relatively lightest part if that still helps.
                    let mut lightest = 0;
                    for p in 1..nparts {
                        if dual_rel(wt1[p], max1[p], wt2[p], max2[p])
                            < dual_rel(wt1[lightest], max1[lightest], wt2[lightest], max2[lightest])
                        {
                            lightest = p;
                        }
                    }
                    if dual_rel(
                        wt1[lightest] + v1,
                        max1[lightest],
                        wt2[lightest] + v2,
                        max2[lightest],
                    ) >= src
                    {
                        continue;
                    }
                    lightest
                }
            };
            wt1[s] -= v1;
            wt2[s] -= v2;
            wt1[to] += v1;
            wt2[to] += v2;
            part[v] = to as u32;
            moved_this_sweep += 1;
        }
        if moved_this_sweep == 0 {
            break;
        }
        moves += moved_this_sweep;
    }
    moves
}

/// One dual-constraint refinement pass: connectivity-gain moves that keep
/// *both* per-constraint ceilings (or strictly improve the binding fill of
/// an overweight source part).
#[allow(clippy::too_many_arguments)]
pub(crate) fn kway_refine_pass_dual(
    g: &Graph,
    w2: &[u64],
    part: &mut [u32],
    wt1: &mut [u64],
    wt2: &mut [u64],
    max1: &[u64],
    max2: &[u64],
    rng: &mut Rng,
) -> usize {
    let nparts = wt1.len();
    let mut order: Vec<u32> = (0..g.n() as u32).collect();
    rng.shuffle(&mut order);
    let mut conn = vec![0i64; nparts];
    let mut touched: Vec<u32> = Vec::new();
    let mut moves = 0;
    for &v in &order {
        let v = v as usize;
        let cur = part[v] as usize;
        touched.clear();
        let mut is_boundary = false;
        for (u, w) in g.edges(v) {
            let p = part[u as usize] as usize;
            if conn[p] == 0 {
                touched.push(p as u32);
            }
            conn[p] += w as i64;
            if p != cur {
                is_boundary = true;
            }
        }
        if is_boundary {
            let cur_conn = conn[cur];
            let overweight_here = wt1[cur] > max1[cur] || wt2[cur] > max2[cur];
            let v1 = g.vwgt[v];
            let v2 = w2[v];
            let mut best: Option<(i64, usize)> = None;
            for &p in &touched {
                let p = p as usize;
                if p == cur {
                    continue;
                }
                let gain = conn[p] - cur_conn;
                let fits = wt1[p] + v1 <= max1[p] && wt2[p] + v2 <= max2[p];
                let acceptable = (gain > 0 && fits)
                    || (gain >= 0
                        && overweight_here
                        && dual_rel(wt1[p] + v1, max1[p], wt2[p] + v2, max2[p])
                            < dual_rel(wt1[cur], max1[cur], wt2[cur], max2[cur]));
                if acceptable && best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, p));
                }
            }
            if let Some((_, p)) = best {
                part[v] = p as u32;
                wt1[cur] -= v1;
                wt2[cur] -= v2;
                wt1[p] += v1;
                wt2[p] += v2;
                moves += 1;
            }
        }
        for &p in &touched {
            conn[p as usize] = 0;
        }
    }
    moves
}

/// Tail of the dual multilevel kernel: balance/refine rounds
/// on the true weight pair, then — when the graph moves alone cannot bring
/// the binding constraint near tolerance — fall back to the dual LPT
/// packing if that packing is strictly better. Balance beats locality at
/// that point, the same tradeoff as the repartitioner's fresh-partition
/// fallback; the fallback also gives the dual path an unconditional
/// per-constraint imbalance ceiling (the dual LPT greedy bound).
pub(crate) fn dual_repair(
    g: &Graph,
    w2: &[u64],
    cfg: &PartitionConfig,
    frac: Option<&[f64]>,
    caps: &[f64],
    mut part: Vec<u32>,
) -> Vec<u32> {
    let t2: u64 = w2.iter().sum();
    let max1: Vec<u64> = part_ceilings(g.total_vwgt(), cfg, frac)
        .iter()
        .map(|&m| m.max(1))
        .collect();
    let max2: Vec<u64> = part_ceilings(t2, cfg, frac)
        .iter()
        .map(|&m| m.max(1))
        .collect();
    let mut wt1 = part_weights(g, &part, cfg.nparts);
    let mut wt2 = weights_of(w2, &part, cfg.nparts);
    let mut rng = Rng::new(cfg.seed ^ 0x4475_616c); // "Dual"
    for _ in 0..4 {
        kway_balance_dual(g, w2, &mut part, &mut wt1, &mut wt2, &max1, &max2);
        for _ in 0..cfg.refine_passes {
            if kway_refine_pass_dual(g, w2, &mut part, &mut wt1, &mut wt2, &max1, &max2, &mut rng)
                == 0
            {
                break;
            }
        }
        if wt1.iter().zip(&max1).all(|(&w, &m)| w <= m)
            && wt2.iter().zip(&max2).all(|(&w, &m)| w <= m)
        {
            break;
        }
    }
    let achieved = imbalance_dual(&wt1, &wt2, caps);
    if achieved > cfg.imbalance_tol * 1.10 {
        let knap = knapsack_partition(Weights::new(&g.vwgt, Some(w2)), cfg.nparts, caps);
        let kimb = imbalance_dual(
            &weights_of(&g.vwgt, &knap, cfg.nparts),
            &weights_of(w2, &knap, cfg.nparts),
            caps,
        );
        if kimb < achieved {
            return knap;
        }
    }
    part
}

/// Borrow `g`'s topology with the combined (totals-normalized) dual weight
/// as the vertex weight — the seed graph for the dual multilevel paths.
pub(crate) fn combined_view<'a>(g: &'a Graph, w2: &[u64]) -> Graph<'a> {
    Graph {
        xadj: Cow::Borrowed(g.xadj.as_ref()),
        adjncy: Cow::Borrowed(g.adjncy.as_ref()),
        adjwgt: Cow::Borrowed(g.adjwgt.as_ref()),
        vwgt: Cow::Owned(combine_dual(&g.vwgt, w2)),
    }
}

/// Multilevel k-way partition of `g`. Returns the part assignment
/// (`0..nparts` per vertex).
pub fn partition_kway(g: &Graph, cfg: &PartitionConfig) -> Vec<u32> {
    partition_kway_impl(g, cfg, None)
}

pub(crate) fn partition_kway_impl(
    g: &Graph,
    cfg: &PartitionConfig,
    frac: Option<&[f64]>,
) -> Vec<u32> {
    assert!(cfg.nparts >= 1);
    if cfg.nparts == 1 {
        return vec![0; g.n()];
    }
    let mut rng = Rng::new(cfg.seed);

    // Coarsening phase.
    let mut levels: Vec<(Graph, Vec<u32>)> = Vec::new(); // (finer graph, cmap to coarser)
    let mut cur = g.clone();
    while cur.n() > cfg.coarsen_target() {
        let (coarse, cmap) = coarsen_once(&cur, &mut rng);
        // Stop if coarsening stalls (< 10% reduction).
        if coarse.n() as f64 > cur.n() as f64 * 0.95 {
            break;
        }
        levels.push((cur, cmap));
        cur = coarse;
    }

    // Initial partitioning of the coarsest graph.
    let mut part = vec![0u32; cur.n()];
    recursive_bisect(
        &cur,
        cfg.nparts,
        0,
        cfg.imbalance_tol,
        &mut rng,
        &mut part,
        frac,
    );

    // Uncoarsening with refinement.
    let max_w = part_ceilings(g.total_vwgt(), cfg, frac);
    let mut graph = cur;
    loop {
        let mut weights = part_weights(&graph, &part, cfg.nparts);
        kway_balance(&graph, &mut part, &mut weights, &max_w);
        for _ in 0..cfg.refine_passes {
            if kway_refine_pass(&graph, &mut part, &mut weights, &max_w, &mut rng) == 0 {
                break;
            }
        }
        match levels.pop() {
            Some((finer, cmap)) => {
                let mut fine_part = vec![0u32; finer.n()];
                for v in 0..finer.n() {
                    fine_part[v] = part[cmap[v] as usize];
                }
                part = fine_part;
                graph = finer;
            }
            None => break,
        }
    }
    part
}

/// Partition quality report.
#[derive(Debug, Clone)]
pub struct PartitionQuality {
    pub cut: u64,
    pub imbalance: f64,
    pub weights: Vec<u64>,
}

/// Evaluate a partition.
pub fn quality(g: &Graph, part: &[u32], nparts: usize) -> PartitionQuality {
    PartitionQuality {
        cut: crate::metrics::edge_cut(g, part),
        imbalance: partition_imbalance(g, part, nparts),
        weights: part_weights(g, part, nparts),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The multilevel kernel on `g`'s own weights plus an optional second
    /// constraint.
    pub(crate) fn ml(
        g: &Graph,
        w2: Option<&[u64]>,
        cfg: &PartitionConfig,
        seed: Option<&[u32]>,
        caps: &[f64],
    ) -> Vec<u32> {
        crate::balance::multilevel(g, Weights::new(&g.vwgt, w2), cfg, seed, caps)
    }

    pub(crate) fn grid3d(nx: usize, ny: usize, nz: usize) -> Graph<'static> {
        let id = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
        let n = nx * ny * nz;
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    if x > 0 {
                        adjncy.push(id(x - 1, y, z) as u32);
                    }
                    if x + 1 < nx {
                        adjncy.push(id(x + 1, y, z) as u32);
                    }
                    if y > 0 {
                        adjncy.push(id(x, y - 1, z) as u32);
                    }
                    if y + 1 < ny {
                        adjncy.push(id(x, y + 1, z) as u32);
                    }
                    if z > 0 {
                        adjncy.push(id(x, y, z - 1) as u32);
                    }
                    if z + 1 < nz {
                        adjncy.push(id(x, y, z + 1) as u32);
                    }
                    xadj.push(adjncy.len() as u32);
                }
            }
        }
        Graph::from_csr(xadj, adjncy, vec![1; n])
    }

    #[test]
    fn partitions_are_balanced() {
        let g = grid3d(12, 12, 12);
        for k in [2, 4, 7, 16] {
            let cfg = PartitionConfig::new(k);
            let part = partition_kway(&g, &cfg);
            let q = quality(&g, &part, k);
            assert!(
                q.imbalance <= cfg.imbalance_tol + 0.02,
                "k={k}: imbalance {}",
                q.imbalance
            );
            // Every part must be non-empty.
            assert!(q.weights.iter().all(|&w| w > 0), "k={k}: empty part");
        }
    }

    #[test]
    fn cut_is_much_better_than_random() {
        let g = grid3d(10, 10, 10);
        let k = 8;
        let part = partition_kway(&g, &PartitionConfig::new(k));
        let cut = quality(&g, &part, k).cut;
        // Random assignment cuts ~ (1-1/k) of all edges.
        let mut rng = Rng::new(123);
        let rand_part: Vec<u32> = (0..g.n()).map(|_| rng.below(k) as u32).collect();
        let rand_cut = quality(&g, &rand_part, k).cut;
        assert!(
            cut * 3 < rand_cut,
            "multilevel cut {cut} not ≪ random cut {rand_cut}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = grid3d(8, 8, 8);
        let cfg = PartitionConfig::new(4);
        assert_eq!(partition_kway(&g, &cfg), partition_kway(&g, &cfg));
    }

    #[test]
    fn single_part_is_trivial() {
        let g = grid3d(4, 4, 4);
        let part = partition_kway(&g, &PartitionConfig::new(1));
        assert!(part.iter().all(|&p| p == 0));
    }

    #[test]
    fn weighted_graph_balances_by_weight() {
        let mut g = grid3d(10, 10, 1);
        // One corner is 10× heavier.
        for v in 0..g.n() {
            let (x, y) = (v % 10, v / 10);
            if x < 5 && y < 5 {
                g.vwgt.to_mut()[v] = 10;
            }
        }
        let k = 4;
        let part = partition_kway(&g, &PartitionConfig::new(k));
        let q = quality(&g, &part, k);
        assert!(
            q.imbalance <= 1.12,
            "imbalance {} with heavy corner",
            q.imbalance
        );
    }

    #[test]
    fn weighted_partition_tracks_capacities() {
        use crate::metrics::imbalance_weighted;
        let g = grid3d(12, 12, 12);
        let caps = [2.0, 1.0, 1.0, 1.0];
        let cfg = PartitionConfig::new(caps.len());
        let part = ml(&g, None, &cfg, None, &caps);
        let w = part_weights(&g, &part, caps.len());
        let eff = imbalance_weighted(&w, &caps);
        assert!(
            eff <= cfg.imbalance_tol + 0.05,
            "capacity-weighted imbalance {eff} (weights {w:?})"
        );
        // The double-capacity part must actually carry close to 2× the load
        // of the others, i.e. ~2/5 of the total.
        let share = w[0] as f64 / g.total_vwgt() as f64;
        assert!(
            (share - 0.4).abs() < 0.05,
            "part 0 carries {share:.3} of the load, expected ≈0.4"
        );
    }

    #[test]
    fn uniform_capacities_are_bit_identical_to_unweighted() {
        let g = grid3d(8, 8, 8);
        let cfg = PartitionConfig::new(4);
        let plain = partition_kway(&g, &cfg);
        for c in [1.0, 2.5] {
            let caps = vec![c; 4];
            assert_eq!(ml(&g, None, &cfg, None, &caps), plain);
        }
    }

    #[test]
    fn dual_partition_balances_both_constraints() {
        use crate::metrics::imbalance_weighted;
        let g = grid3d(10, 10, 1);
        // Second constraint (e.g. particles) packed into one corner, at a
        // granularity fine enough that a balanced split exists.
        let w2: Vec<u64> = (0..g.n() as u64)
            .map(|v| {
                let (x, y) = (v % 10, v / 10);
                if x < 5 && y < 5 {
                    8
                } else {
                    1
                }
            })
            .collect();
        let k = 4;
        let cfg = PartitionConfig::new(k);
        let caps = vec![1.0; k];
        // Single-constraint partitioning on w1 leaves w2 badly imbalanced.
        let single = partition_kway(&g, &cfg);
        let w2_single = imbalance_weighted(&weights_of(&w2, &single, k), &caps);
        assert!(w2_single > 1.5, "corner load should skew w2: {w2_single}");
        let dual = ml(&g, Some(&w2), &cfg, None, &caps);
        let i1 = imbalance_weighted(&part_weights(&g, &dual, k), &caps);
        let i2 = imbalance_weighted(&weights_of(&w2, &dual, k), &caps);
        assert!(i1 <= 1.15, "dual w1 imbalance {i1}");
        assert!(i2 <= 1.15, "dual w2 imbalance {i2}");
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn weighted_partition_rejects_nonpositive_capacity() {
        let g = grid3d(4, 4, 1);
        ml(&g, None, &PartitionConfig::new(2), None, &[1.0, 0.0]);
    }

    #[test]
    fn nparts_exceeding_vertices_leaves_no_crash() {
        let g = grid3d(2, 2, 1);
        let part = partition_kway(&g, &PartitionConfig::new(4));
        let q = quality(&g, &part, 4);
        assert_eq!(q.weights.iter().sum::<u64>(), 4);
    }
}
