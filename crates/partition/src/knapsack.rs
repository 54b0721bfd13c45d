//! Knapsack / cost-bin packing: longest-processing-time greedy assignment
//! into capacity-weighted bins.
//!
//! The locality-insensitive end of the partitioner portfolio, after AMReX's
//! `DistributionMapping::makeKnapSack`: when imbalance is extreme, the cut
//! hardly matters and the fastest way back to balance is to treat vertices
//! as independent jobs and pack them onto processors by weight. LPT greedy
//! is within 4/3 of optimal makespan, deterministic, and needs no graph at
//! all.

use crate::weights::Weights;

/// LPT greedy bin packing. Vertices in descending size order (id
/// tie-break — a total order, so the result is deterministic) each go to
/// the bin whose *post-assignment* effective load is smallest, lowest bin
/// id breaking ties. Under one constraint size is the weight and the load
/// `(w_p + w) / c_p`; under two, size is the combined totals-normalized
/// weight and the load the max-of-constraints [`Weights::load`], so neither
/// scale dominates.
///
/// The greedy bound generalizes: both per-constraint capacity-weighted
/// imbalances stay below `2 + s_max · Σc / min(c)` where `s_max` is the
/// largest combined normalized vertex size — the property the dual
/// proptests pin.
pub(crate) fn knapsack_partition(w: Weights, nparts: usize, caps: &[f64]) -> Vec<u32> {
    assert_eq!(caps.len(), nparts, "one capacity per part");
    let cap_sum: f64 = caps.iter().sum();
    let caps: Vec<f64> = if cap_sum <= 0.0 || !cap_sum.is_finite() {
        vec![1.0; nparts]
    } else {
        caps.to_vec()
    };
    let w1 = w.w1();
    let mut order: Vec<u32> = (0..w1.len() as u32).collect();
    match w.w2() {
        None => order.sort_unstable_by_key(|&v| (std::cmp::Reverse(w1[v as usize]), v)),
        Some(_) => order.sort_unstable_by(|&a, &b| {
            w.size(b as usize)
                .partial_cmp(&w.size(a as usize))
                .unwrap()
                .then(a.cmp(&b))
        }),
    }
    let mut part = vec![0u32; w1.len()];
    let mut b1 = vec![0u64; nparts];
    let mut b2 = vec![0u64; nparts];
    for &v in &order {
        let v = v as usize;
        let (v1, v2) = (w1[v], w.second(v));
        let mut best = 0usize;
        let mut best_load = f64::INFINITY;
        for p in 0..nparts {
            let load = w.load(b1[p] + v1, b2[p] + v2) / caps[p];
            if load < best_load {
                best = p;
                best_load = load;
            }
        }
        part[v] = best as u32;
        b1[best] += v1;
        b2[best] += v2;
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{imbalance_weighted, weights_of};

    #[test]
    fn lpt_balances_skewed_weights_tightly() {
        // One giant job plus many small ones: LPT puts the giant alone.
        let mut vwgt = vec![1u64; 63];
        vwgt.push(60);
        let part = knapsack_partition(Weights::new(&vwgt, None), 4, &[1.0; 4]);
        let w = weights_of(&vwgt, &part, 4);
        let imb = imbalance_weighted(&w, &[1.0; 4]);
        assert!(imb < 2.0, "LPT imbalance {imb} (loads {w:?})");
        let giant_bin = part[63] as usize;
        assert_eq!(w[giant_bin], 60, "giant bin took extra load: {w:?}");
    }

    #[test]
    fn capacity_weighted_bins_attract_proportional_load() {
        let vwgt = vec![2u64; 200];
        let caps = [3.0, 1.0, 1.0, 1.0];
        let part = knapsack_partition(Weights::new(&vwgt, None), 4, &caps);
        let w = weights_of(&vwgt, &part, 4);
        let imb = imbalance_weighted(&w, &caps);
        assert!(
            imb < 1.05,
            "capacity-weighted imbalance {imb} (loads {w:?})"
        );
        assert!(
            w[0] > w[1],
            "triple-capacity bin did not attract load: {w:?}"
        );
    }

    #[test]
    fn dual_packing_balances_both_constraints() {
        // Constraint 1 uniform, constraint 2 concentrated in few heavy
        // vertices: single-constraint packing on w1 ignores w2 entirely.
        // With uniform w1 the LPT tie-break round-robins by id, so heavy
        // vertices at id ≡ 0 (mod 8) all land in the same bin of 4.
        let w1 = vec![1u64; 64];
        let w2: Vec<u64> = (0..64u64)
            .map(|v| if v % 8 == 0 { 100 } else { 1 })
            .collect();
        let caps = vec![1.0; 4];
        let single = knapsack_partition(Weights::new(&w1, None), 4, &caps);
        let dual = knapsack_partition(Weights::new(&w1, Some(&w2)), 4, &caps);
        let imb = |part: &[u32], w: &[u64]| imbalance_weighted(&weights_of(w, part, 4), &caps);
        assert!(
            imb(&single, &w2) > 1.5,
            "single-constraint packing should leave w2 imbalanced: {}",
            imb(&single, &w2)
        );
        assert!(
            imb(&dual, &w1) < 1.35,
            "dual w1 imbalance {}",
            imb(&dual, &w1)
        );
        assert!(
            imb(&dual, &w2) < 1.35,
            "dual w2 imbalance {}",
            imb(&dual, &w2)
        );
    }
}
