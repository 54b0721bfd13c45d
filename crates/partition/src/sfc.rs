//! Space-filling-curve geometric partitioning: key-sort/split into
//! capacity-weighted contiguous ranges, plus a cheap 1D boundary-diffusion
//! repair.
//!
//! The geometric alternative to the multilevel kernel, in the mold of
//! AMReX's `DistributionMapping::makeSFC` and Cubism's diffusion-based
//! rebalancing: elements carry a space-filling-curve key (from
//! `plum_mesh::sfc`), the key order is cut into `nparts` contiguous ranges
//! whose weights track the parts' capacity fractions, and mild imbalance is
//! repaired by *shifting range boundaries* one vertex at a time instead of
//! re-partitioning. No graph, no coarsening — cost is a local sort plus one
//! exchange in which a rank ships what it owns (its moved vertices and one
//! weight-row entry per part they are in), which is what makes it the cheap
//! end of the partitioner portfolio.
//!
//! These are the serial kernels; [`crate::balance_body`] runs them as
//! replicated arithmetic inside the simulator.

use crate::weights::Weights;

/// Boundary-shift sweeps in the diffusion repair. Each sweep walks the curve
/// once; loads converge geometrically, so a handful suffices.
const DIFFUSE_PASSES: usize = 8;

/// Curve order: vertex indices sorted by `(key, index)`. The index
/// tie-break makes the order total even when centroids collide on the
/// quantization lattice.
pub fn sfc_order(keys: &[u64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    order.sort_unstable_by_key(|&v| (keys[v as usize], v));
    order
}

/// Per-part capacity fractions (summing to 1). A degenerate capacity vector
/// falls back to uniform — the same defined-result policy as
/// [`crate::imbalance_weighted`].
pub(crate) fn cap_fractions(caps: &[f64], nparts: usize) -> Vec<f64> {
    assert_eq!(caps.len(), nparts, "one capacity per part");
    let sum: f64 = caps.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        return vec![1.0 / nparts as f64; nparts];
    }
    caps.iter().map(|&c| c / sum).collect()
}

/// Cut the curve order into `nparts` contiguous ranges at the cumulative
/// capacity targets. Before each vertex is placed, the cursor advances past
/// every target already met, so part `p` closes at the first vertex that
/// reaches `total · Σ_{q≤p} f_q` — its weight exceeds its capacity share by
/// at most one vertex weight.
pub(crate) fn sfc_split(keys: &[u64], vwgt: &[u64], nparts: usize, caps: &[f64]) -> Vec<u32> {
    assert_eq!(keys.len(), vwgt.len(), "one weight per vertex");
    let frac = cap_fractions(caps, nparts);
    let total: u64 = vwgt.iter().sum();
    let mut targets = Vec::with_capacity(nparts);
    let mut cum_frac = 0.0;
    for &f in &frac {
        cum_frac += f;
        targets.push(total as f64 * cum_frac);
    }
    let mut part = vec![0u32; keys.len()];
    let mut p = 0usize;
    let mut cum = 0u64;
    for &v in &sfc_order(keys) {
        while p + 1 < nparts && cum as f64 >= targets[p] {
            p += 1;
        }
        part[v as usize] = p as u32;
        cum += vwgt[v as usize];
    }
    part
}

/// Shift range boundaries along the curve until no single-vertex move
/// lowers the effective load of the pair it touches, where a part's load is
/// [`Weights::load`] over its capacity fraction (the binding constraint
/// under two). Each accepted move strictly reduces the pair's worse load
/// and leaves every other part untouched, so the global effective
/// imbalance ([`Weights::imbalance`]) is monotonically non-increasing —
/// diffusion can only repair.
pub(crate) fn sfc_diffuse(
    keys: &[u64],
    w: Weights,
    prev: &[u32],
    nparts: usize,
    caps: &[f64],
) -> Vec<u32> {
    assert_eq!(keys.len(), w.w1().len(), "one weight per vertex");
    assert_eq!(keys.len(), prev.len(), "one previous part per vertex");
    let frac = cap_fractions(caps, nparts);
    let order = sfc_order(keys);
    let mut part = prev.to_vec();
    let w1 = w.w1();
    let mut a1 = vec![0u64; nparts];
    let mut a2 = vec![0u64; nparts];
    for v in 0..part.len() {
        a1[part[v] as usize] += w1[v];
        a2[part[v] as usize] += w.second(v);
    }
    let load = |x1: u64, x2: u64, p: usize| w.load(x1, x2) / frac[p];
    for pass in 0..DIFFUSE_PASSES {
        let mut moved = false;
        let idx: Box<dyn Iterator<Item = usize>> = if pass % 2 == 0 {
            Box::new(0..order.len().saturating_sub(1))
        } else {
            Box::new((0..order.len().saturating_sub(1)).rev())
        };
        for i in idx {
            let v = order[i] as usize;
            let u = order[i + 1] as usize;
            let (a, b) = (part[v] as usize, part[u] as usize);
            if a == b {
                continue;
            }
            let (v1, v2, u1, u2) = (w1[v], w.second(v), w1[u], w.second(u));
            let old = load(a1[a], a2[a], a).max(load(a1[b], a2[b], b));
            // Candidate 1: pull v across the boundary into b.
            let fwd = load(a1[a] - v1, a2[a] - v2, a).max(load(a1[b] + v1, a2[b] + v2, b));
            // Candidate 2: pull u back across into a.
            let back = load(a1[a] + u1, a2[a] + u2, a).max(load(a1[b] - u1, a2[b] - u2, b));
            if fwd <= back && fwd < old {
                a1[a] -= v1;
                a2[a] -= v2;
                a1[b] += v1;
                a2[b] += v2;
                part[v] = b as u32;
                moved = true;
            } else if back < fwd && back < old {
                a1[a] += u1;
                a2[a] += u2;
                a1[b] -= u1;
                a2[b] -= u2;
                part[u] = a as u32;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    part
}

/// Full SFC partition: capacity-weighted contiguous split of the curve by
/// [`Weights::drive`], then boundary diffusion to shave the one-vertex
/// overshoot the split allows.
pub(crate) fn sfc_partition(keys: &[u64], w: Weights, nparts: usize, caps: &[f64]) -> Vec<u32> {
    let split = sfc_split(keys, &w.drive(), nparts, caps);
    sfc_diffuse(keys, w, &split, nparts, caps)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic keys: already curve-ordered by index.
    fn line_keys(n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    #[test]
    fn split_respects_capacity_ceilings() {
        let keys = line_keys(100);
        let vwgt = vec![3u64; 100];
        let caps = vec![1.0, 2.0, 1.0, 4.0];
        let part = sfc_split(&keys, &vwgt, 4, &caps);
        let mut w = [0u64; 4];
        for v in 0..100 {
            w[part[v] as usize] += vwgt[v];
        }
        let total: u64 = vwgt.iter().sum();
        let wmax = *vwgt.iter().max().unwrap();
        for (p, f) in cap_fractions(&caps, 4).iter().enumerate() {
            assert!(
                w[p] as f64 <= total as f64 * f + wmax as f64,
                "part {p} weight {} exceeds share {} + one vertex",
                w[p],
                total as f64 * f
            );
        }
    }

    #[test]
    fn split_ranges_are_contiguous_in_curve_order() {
        let keys: Vec<u64> = (0..64u64).rev().collect(); // reversed labels
        let vwgt = vec![1u64; 64];
        let part = sfc_split(&keys, &vwgt, 4, &[1.0; 4]);
        let order = sfc_order(&keys);
        let parts_in_order: Vec<u32> = order.iter().map(|&v| part[v as usize]).collect();
        assert!(
            parts_in_order.windows(2).all(|w| w[0] <= w[1]),
            "ranges not contiguous: {parts_in_order:?}"
        );
    }

    #[test]
    fn diffusion_repairs_a_shifted_boundary() {
        let keys = line_keys(40);
        let vwgt = vec![1u64; 40];
        let w = Weights::new(&vwgt, None);
        // Badly cut: 30/10 instead of 20/20.
        let prev: Vec<u32> = (0..40).map(|v| u32::from(v >= 30)).collect();
        let caps = [1.0, 1.0];
        let before = w.imbalance(&prev, 2, &caps);
        let part = sfc_diffuse(&keys, w, &prev, 2, &caps);
        let after = w.imbalance(&part, 2, &caps);
        assert!(
            after < before,
            "diffusion failed to repair: {before} -> {after}"
        );
        assert!(
            (after - 1.0).abs() < 1e-9,
            "perfectly splittable: got {after}"
        );
    }

    #[test]
    fn dual_diffusion_repairs_the_binding_constraint() {
        let keys = line_keys(60);
        let w1 = vec![1u64; 60];
        // Second constraint interleaved along the curve (every 6th vertex),
        // so a contiguous split balancing both constraints exists.
        let w2: Vec<u64> = (0..60u64)
            .map(|v| if v % 6 == 0 { 20 } else { 1 })
            .collect();
        let w = Weights::new(&w1, Some(&w2));
        let caps = [1.0, 1.0];
        // Badly cut seed: 40/20 instead of 30/30 — both constraints skewed.
        let prev: Vec<u32> = (0..60).map(|v| u32::from(v >= 40)).collect();
        let before = w.imbalance(&prev, 2, &caps);
        assert!(before > 1.3, "seed should be imbalanced: {before}");
        let part = sfc_diffuse(&keys, w, &prev, 2, &caps);
        let after = w.imbalance(&part, 2, &caps);
        assert!(after < before, "dual diffusion failed: {before} -> {after}");
        assert!(after < 1.1, "binding constraint still loose: {after}");
    }
}
