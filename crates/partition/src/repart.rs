//! Repartitioning seeded by the previous partition.
//!
//! "An additional benefit of the algorithm is the potential reduction in
//! remapping cost since parallel MeTiS, unlike the serial version, uses the
//! previous partition as the initial guess for the repartitioning." When the
//! weights have drifted (the mesh adapted), starting from the old assignment
//! and diffusing load across part boundaries keeps most dual vertices where
//! they were, so the similarity matrix stays strongly diagonal and the
//! remapping volume small.

use crate::graph::Graph;
use crate::kway::{drain_and_refine, part_ceilings, partition_kway_impl, OneFill, PartitionConfig};
use crate::metrics::{imbalance, imbalance_weighted, weights_of};
use crate::rng::Rng;

/// Repartition `g` starting from `prev`. Falls back to a fresh multilevel
/// partition if diffusion cannot reach the balance tolerance (e.g. the old
/// partition is pathologically concentrated).
pub fn repartition_kway(g: &Graph, cfg: &PartitionConfig, prev: &[u32]) -> Vec<u32> {
    repartition_kway_impl(g, cfg, prev, None)
}

/// The diffusion core: balance/refine rounds from `prev`, *without* the
/// fresh-partition fallback. The distributed repartitioner's coarsest solve
/// uses this directly — on a coarse graph the achieved imbalance is limited
/// by vertex granularity (a fresh partition cannot beat it either), and a
/// fresh relabeling there would destroy the seed alignment that keeps
/// migration volume and, under heterogeneous capacities, the part↔processor
/// sizing correct. Residual imbalance is repaired during uncoarsening.
pub(crate) fn repartition_diffuse(
    g: &Graph,
    cfg: &PartitionConfig,
    prev: &[u32],
    frac: Option<&[f64]>,
) -> Vec<u32> {
    assert_eq!(prev.len(), g.n());
    if cfg.nparts == 1 {
        return vec![0; g.n()];
    }
    let mut rng = Rng::new(cfg.seed ^ 0x5265_7061); // "Repa"
    let mut part = prev.to_vec();
    let max_w = part_ceilings(g.total_vwgt(), cfg, frac);
    // Diffuse: alternate forced balancing with cut refinement.
    let mut fill = OneFill::new(&g.vwgt, &part, &max_w);
    drain_and_refine(g, &mut part, &mut fill, cfg, 4, &mut rng);
    part
}

pub(crate) fn repartition_kway_impl(
    g: &Graph,
    cfg: &PartitionConfig,
    prev: &[u32],
    frac: Option<&[f64]>,
) -> Vec<u32> {
    let part = repartition_diffuse(g, cfg, prev, frac);
    if cfg.nparts == 1 {
        return part;
    }
    let w = weights_of(&g.vwgt, &part, cfg.nparts);
    let achieved = match frac {
        None => imbalance(&w),
        Some(f) => imbalance_weighted(&w, f),
    };
    if achieved > cfg.imbalance_tol * 1.10 {
        // Diffusion failed; a fresh partition is better than an unbalanced one.
        return partition_kway_impl(g, cfg, frac);
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kway::{partition_kway, quality, tests::ml};
    use crate::metrics::migration;

    fn grid(nx: usize, ny: usize) -> Graph<'static> {
        let id = |x: usize, y: usize| y * nx + x;
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                if x > 0 {
                    adjncy.push(id(x - 1, y) as u32);
                }
                if x + 1 < nx {
                    adjncy.push(id(x + 1, y) as u32);
                }
                if y > 0 {
                    adjncy.push(id(x, y - 1) as u32);
                }
                if y + 1 < ny {
                    adjncy.push(id(x, y + 1) as u32);
                }
                xadj.push(adjncy.len() as u32);
            }
        }
        Graph::from_csr(xadj, adjncy, vec![1; nx * ny])
    }

    #[test]
    fn unchanged_weights_mean_no_migration() {
        let g = grid(16, 16);
        let cfg = PartitionConfig::new(4);
        let prev = partition_kway(&g, &cfg);
        let next = repartition_kway(&g, &cfg, &prev);
        let (moved, _) = migration(&g, &prev, &next);
        assert_eq!(moved, 0, "balanced input must not move anything");
    }

    #[test]
    fn drifted_weights_rebalance_with_small_migration() {
        let mut g = grid(16, 16);
        let cfg = PartitionConfig::new(4);
        let prev = partition_kway(&g, &cfg);
        // Refinement happened in part 0's region: weights grow 4×.
        for v in 0..g.n() {
            if prev[v] == 0 {
                g.vwgt.to_mut()[v] = 4;
            }
        }
        let next = repartition_kway(&g, &cfg, &prev);
        let q = quality(&g, &next, 4);
        assert!(
            q.imbalance <= cfg.imbalance_tol * 1.10 + 0.02,
            "imbalance {}",
            q.imbalance
        );
        let (moved, _) = migration(&g, &prev, &next);
        // Fresh partitioning would relabel almost everything; diffusion
        // should keep the majority in place.
        assert!(
            moved < g.n() / 2,
            "diffusive repartition moved {moved}/{} vertices",
            g.n()
        );
    }

    #[test]
    fn weighted_repartition_drains_a_slow_part() {
        let g = grid(16, 16);
        let cfg = PartitionConfig::new(4);
        let prev = partition_kway(&g, &cfg);
        // Part 0's processor just slowed to half speed; the others are fine.
        let caps = [0.5, 1.0, 1.0, 1.0];
        let next = ml(&g, None, &cfg, Some(&prev), &caps);
        let w = weights_of(&g.vwgt, &next, 4);
        let eff = imbalance_weighted(&w, &caps);
        assert!(
            eff <= cfg.imbalance_tol * 1.10 + 0.02,
            "capacity-weighted imbalance {eff} (weights {w:?})"
        );
        // Part 0 should end up near its fair share of 1/7 of the load.
        let share = w[0] as f64 / g.total_vwgt() as f64;
        assert!(
            share < 0.22,
            "slow part still carries {share:.3} of the load"
        );
        // Diffusion, not wholesale relabeling.
        let (moved, _) = migration(&g, &prev, &next);
        assert!(
            moved < g.n() / 2,
            "weighted repartition moved {moved}/{} vertices",
            g.n()
        );
    }

    #[test]
    fn uniform_capacities_match_unweighted_repartition() {
        let mut g = grid(12, 12);
        let cfg = PartitionConfig::new(4);
        let prev = partition_kway(&g, &cfg);
        for v in 0..g.n() {
            if prev[v] == 1 {
                g.vwgt.to_mut()[v] = 3;
            }
        }
        let plain = repartition_kway(&g, &cfg, &prev);
        let weighted = ml(&g, None, &cfg, Some(&prev), &[1.0; 4]);
        assert_eq!(plain, weighted);
    }

    #[test]
    fn dual_repartition_balances_both_and_keeps_most_in_place() {
        use crate::metrics::{imbalance_weighted, weights_of};
        let g = grid(16, 16);
        let cfg = PartitionConfig::new(4);
        let caps = vec![1.0; 4];
        // Particles drift into part 0's region after the initial balance.
        let w2_init = vec![1u64; g.n()];
        let prev = ml(&g, Some(&w2_init), &cfg, None, &caps);
        let w2: Vec<u64> = (0..g.n())
            .map(|v| if prev[v] == 0 { 3 } else { 1 })
            .collect();
        let next = ml(&g, Some(&w2), &cfg, Some(&prev), &caps);
        let i1 = imbalance_weighted(&weights_of(&g.vwgt, &next, 4), &caps);
        let i2 = imbalance_weighted(&weights_of(&w2, &next, 4), &caps);
        assert!(i1 <= 1.25, "dual repartition w1 imbalance {i1}");
        assert!(i2 <= 1.25, "dual repartition w2 imbalance {i2}");
        let (moved, _) = migration(&g, &prev, &next);
        assert!(
            moved < g.n() / 2,
            "dual repartition moved {moved}/{} vertices",
            g.n()
        );
    }

    #[test]
    fn pathological_start_falls_back_to_fresh() {
        let g = grid(12, 12);
        let cfg = PartitionConfig::new(4);
        // Everything on one part: diffusion has a long way to go; result
        // must still be balanced (possibly via fallback).
        let prev = vec![0u32; g.n()];
        let next = repartition_kway(&g, &cfg, &prev);
        let q = quality(&g, &next, 4);
        assert!(
            q.imbalance <= cfg.imbalance_tol * 1.12,
            "imbalance {}",
            q.imbalance
        );
    }
}
