//! The multilevel k-way partitioner: HEM coarsening, recursive-bisection
//! initial partitioning of the coarsest graph, and boundary-greedy k-way
//! refinement during uncoarsening (the structure of MeTiS [15]).

use std::borrow::Cow;

use crate::bisect::bisect;
use crate::coarsen::coarsen_once;
use crate::graph::Graph;
use crate::knapsack::knapsack_partition;
use crate::metrics::{combine_dual, imbalance, imbalance_dual, weights_of};
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

    /// The coarsening target: [`PartitionConfig::coarsen_to`], or its auto
    /// value when that is 0.
    pub fn coarsen_target(&self) -> usize {
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

/// How the drain and the refinement pass judge a part's fill against its
/// ceilings. Both sweeps ask only these questions, so one sweep serves one
/// or two constraints; it is monomorphized per judge, and under one
/// constraint it compiles to exact integer arithmetic.
pub(crate) trait Fill {
    fn nparts(&self) -> usize;
    /// Part `p` is over its ceiling.
    fn over(&self, p: usize) -> bool;
    /// Part `p` stays within its ceiling with vertex `v` added.
    fn fits(&self, p: usize, v: usize) -> bool;
    /// Part `p` with vertex `v` added is relatively lighter than part `than`.
    fn lighter_with(&self, p: usize, v: usize, than: usize) -> bool;
    /// Part `p` is relatively lighter than part `q`.
    fn lighter(&self, p: usize, q: usize) -> bool;
    /// Move vertex `v`'s weight from part `from` to part `to`.
    fn shift(&mut self, v: usize, from: usize, to: usize);

    fn all_fit(&self) -> bool {
        (0..self.nparts()).all(|p| !self.over(p))
    }
}

/// One constraint, judged by [`rel_lt`] and `w + v ≤ max` in integers.
pub(crate) struct OneFill<'a> {
    vwgt: &'a [u64],
    w: Vec<u64>,
    max: &'a [u64],
}

impl<'a> OneFill<'a> {
    pub(crate) fn new(vwgt: &'a [u64], part: &[u32], max: &'a [u64]) -> Self {
        let w = weights_of(vwgt, part, max.len());
        OneFill { vwgt, w, max }
    }
}

impl Fill for OneFill<'_> {
    fn nparts(&self) -> usize {
        self.w.len()
    }
    fn over(&self, p: usize) -> bool {
        self.w[p] > self.max[p]
    }
    fn fits(&self, p: usize, v: usize) -> bool {
        self.w[p] + self.vwgt[v] <= self.max[p]
    }
    fn lighter_with(&self, p: usize, v: usize, than: usize) -> bool {
        rel_lt(
            self.w[p] + self.vwgt[v],
            self.max[p],
            self.w[than],
            self.max[than],
        )
    }
    fn lighter(&self, p: usize, q: usize) -> bool {
        rel_lt(self.w[p], self.max[p], self.w[q], self.max[q])
    }
    fn shift(&mut self, v: usize, from: usize, to: usize) {
        self.w[from] -= self.vwgt[v];
        self.w[to] += self.vwgt[v];
    }
}

/// Two constraints: a part is over when either constraint exceeds its
/// ceiling, and parts compare by the binding constraint's fill fraction.
/// The two-constraint paths never feed the bit-exact single-constraint
/// goldens, so f64 comparison is fine here.
struct TwoFill<'a> {
    vwgt: [&'a [u64]; 2],
    w: [Vec<u64>; 2],
    max: [Vec<u64>; 2],
}

impl TwoFill<'_> {
    /// The binding fill fraction of part `p` with vertex `v` (if any) added.
    fn rel(&self, p: usize, v: Option<usize>) -> f64 {
        let fill = |c: usize| {
            let add = v.map_or(0, |v| self.vwgt[c][v]);
            (self.w[c][p] + add) as f64 / self.max[c][p] as f64
        };
        fill(0).max(fill(1))
    }
}

impl Fill for TwoFill<'_> {
    fn nparts(&self) -> usize {
        self.w[0].len()
    }
    fn over(&self, p: usize) -> bool {
        (0..2).any(|c| self.w[c][p] > self.max[c][p])
    }
    fn fits(&self, p: usize, v: usize) -> bool {
        (0..2).all(|c| self.w[c][p] + self.vwgt[c][v] <= self.max[c][p])
    }
    fn lighter_with(&self, p: usize, v: usize, than: usize) -> bool {
        self.rel(p, Some(v)) < self.rel(than, None)
    }
    fn lighter(&self, p: usize, q: usize) -> bool {
        self.rel(p, None) < self.rel(q, None)
    }
    fn shift(&mut self, v: usize, from: usize, to: usize) {
        for c in 0..2 {
            self.w[c][from] -= self.vwgt[c][v];
            self.w[c][to] += self.vwgt[c][v];
        }
    }
}

/// One pass of boundary-greedy k-way refinement: every vertex may move to
/// the adjacent part maximizing its connectivity gain, subject to the
/// balance constraint (or, out of an overweight part, to the move leaving
/// the target relatively lighter than the source). Returns the number of
/// moves.
fn kway_refine_pass(g: &Graph, part: &mut [u32], fill: &mut impl Fill, rng: &mut Rng) -> usize {
    let mut order: Vec<u32> = (0..g.n() as u32).collect();
    rng.shuffle(&mut order);
    let mut conn = vec![0i64; fill.nparts()];
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
            let overweight_here = fill.over(cur);
            let mut best: Option<(i64, usize)> = None;
            for &p in &touched {
                let p = p as usize;
                if p == cur {
                    continue;
                }
                let gain = conn[p] - cur_conn;
                let acceptable = (gain > 0 && fill.fits(p, v))
                    || (gain >= 0 && overweight_here && fill.lighter_with(p, v, cur));
                if acceptable && best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, p));
                }
            }
            if let Some((_, p)) = best {
                part[v] = p as u32;
                fill.shift(v, cur, p);
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
/// in an overweight part moves to its best relatively-lighter neighbouring
/// part (falling back to the relatively lightest part so interior vertices
/// cannot deadlock the drain). Each sweep is `O(n + m)`; overweight regions
/// drain layer by layer, and the subsequent refinement passes repair the
/// cut.
fn kway_balance(g: &Graph, part: &mut [u32], fill: &mut impl Fill) {
    for _sweep in 0..64 {
        if fill.all_fit() {
            break;
        }
        let mut moved = false;
        for v in 0..g.n() {
            let s = part[v] as usize;
            if !fill.over(s) {
                continue;
            }
            // Best adjacent relatively-lighter part by connectivity.
            let mut best: Option<(i64, usize)> = None;
            for (u, w) in g.edges(v) {
                let p = part[u as usize] as usize;
                if p != s && fill.lighter_with(p, v, s) {
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
                    let lightest =
                        (1..fill.nparts()).fold(0, |l, p| if fill.lighter(p, l) { p } else { l });
                    if !fill.lighter_with(lightest, v, s) {
                        continue;
                    }
                    lightest
                }
            };
            fill.shift(v, s, to);
            part[v] = to as u32;
            moved = true;
        }
        if !moved {
            break;
        }
    }
}

/// Up to `rounds` rounds of draining plus refinement passes (until one
/// moves nothing), stopping once every part fits.
pub(crate) fn drain_and_refine(
    g: &Graph,
    part: &mut [u32],
    fill: &mut impl Fill,
    cfg: &PartitionConfig,
    rounds: usize,
    rng: &mut Rng,
) {
    for _ in 0..rounds {
        kway_balance(g, part, fill);
        for _ in 0..cfg.refine_passes {
            if kway_refine_pass(g, part, fill, rng) == 0 {
                break;
            }
        }
        if fill.all_fit() {
            break;
        }
    }
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
    let ceilings = |total| {
        let max = part_ceilings(total, cfg, frac);
        max.into_iter().map(|m| m.max(1)).collect()
    };
    let vwgt = [&g.vwgt[..], w2];
    let mut fill = TwoFill {
        vwgt,
        w: vwgt.map(|w| weights_of(w, &part, cfg.nparts)),
        max: [g.total_vwgt(), w2.iter().sum()].map(ceilings),
    };
    let mut rng = Rng::new(cfg.seed ^ 0x4475_616c); // "Dual"
    drain_and_refine(g, &mut part, &mut fill, cfg, 4, &mut rng);
    let achieved = imbalance_dual(&fill.w[0], &fill.w[1], caps);
    if achieved > cfg.imbalance_tol * 1.10 {
        let w = Weights::new(&g.vwgt, Some(w2));
        let knap = knapsack_partition(w, cfg.nparts, caps);
        if w.imbalance(&knap, cfg.nparts, caps) < achieved {
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
        // Stop if coarsening stalls (< 5% reduction).
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
        let mut fill = OneFill::new(&graph.vwgt, &part, &max_w);
        drain_and_refine(&graph, &mut part, &mut fill, cfg, 1, &mut rng);
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
    let weights = weights_of(&g.vwgt, part, nparts);
    PartitionQuality {
        cut: crate::metrics::edge_cut(g, part),
        imbalance: imbalance(&weights),
        weights,
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
        let w = weights_of(&g.vwgt, &part, caps.len());
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
        let i1 = imbalance_weighted(&weights_of(&g.vwgt, &dual, k), &caps);
        let i2 = imbalance_weighted(&weights_of(&w2, &dual, k), &caps);
        assert!(i1 <= 1.15, "dual w1 imbalance {i1}");
        assert!(i2 <= 1.15, "dual w2 imbalance {i2}");
    }

    /// A zero capacity sizes its part at nothing (a one-vertex ceiling); a
    /// negative or non-finite one is degenerate and partitions as uniform.
    #[test]
    fn weighted_partition_takes_a_zero_capacity_and_degrades_a_negative_one() {
        let g = grid3d(4, 4, 1);
        let cfg = PartitionConfig::new(2);
        let part = ml(&g, None, &cfg, None, &[1.0, 0.0]);
        assert_eq!(part.len(), g.n());
        assert!(part.iter().all(|&q| q < 2), "{part:?}");
        assert!(weights_of(&g.vwgt, &part, 2)[1] <= 1, "{part:?}");
        let uniform = ml(&g, None, &cfg, None, &[1.0, 1.0]);
        for caps in [[1.0, -1.0], [2.0, -1.0], [f64::NAN, 1.0]] {
            assert_eq!(ml(&g, None, &cfg, None, &caps), uniform, "{caps:?}");
        }
    }

    #[test]
    fn nparts_exceeding_vertices_leaves_no_crash() {
        let g = grid3d(2, 2, 1);
        let part = partition_kway(&g, &PartitionConfig::new(4));
        let q = quality(&g, &part, 4);
        assert_eq!(q.weights.iter().sum::<u64>(), 4);
    }
}
