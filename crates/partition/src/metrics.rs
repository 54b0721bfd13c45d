//! Partition quality metrics.

use crate::graph::Graph;

/// Total weight of edges crossing partition boundaries (each undirected edge
/// counted once).
pub fn edge_cut(g: &Graph, part: &[u32]) -> u64 {
    let mut cut = 0u64;
    for v in 0..g.n() {
        for (u, w) in g.edges(v) {
            if part[v] != part[u as usize] {
                cut += w as u64;
            }
        }
    }
    cut / 2
}

/// Load imbalance: `max(weights) / mean(weights)`. 1.0 is perfect.
pub fn imbalance(weights: &[u64]) -> f64 {
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let avg = total as f64 / weights.len() as f64;
    let max = *weights.iter().max().unwrap() as f64;
    max / avg
}

/// Capacity-weighted load imbalance: `max_p(w_p / c_p) / (Σw / Σc)`.
///
/// `caps[p]` is part `p`'s relative capacity (work units per second, any
/// common scale); the ideal assignment gives each part weight proportional
/// to its capacity, for which this ratio is 1.0. With uniform capacities it
/// reduces to [`imbalance`].
pub fn imbalance_weighted(weights: &[u64], caps: &[f64]) -> f64 {
    assert_eq!(weights.len(), caps.len(), "one capacity per part");
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let cap_sum: f64 = caps.iter().sum();
    if cap_sum <= 0.0 || !cap_sum.is_finite() {
        // Zero / negative / non-finite total capacity has no meaningful
        // ideal rate; NaN here would silently defeat every threshold
        // comparison downstream (`imb <= trigger` is false for NaN).
        return 1.0;
    }
    let ideal_rate = total as f64 / cap_sum;
    weights
        .iter()
        .zip(caps)
        .map(|(&w, &c)| w as f64 / c / ideal_rate)
        .fold(0.0, f64::max)
}

/// Per-part totals of a per-vertex weight vector (`&g.vwgt` for a graph's
/// own weights).
pub fn weights_of(vwgt: &[u64], part: &[u32], nparts: usize) -> Vec<u64> {
    let mut w = vec![0u64; nparts];
    for v in 0..part.len() {
        w[part[v] as usize] += vwgt[v];
    }
    w
}

/// `true` when every entry of a second weight vector is identical — the
/// degenerate case in which every dual-constraint kernel must delegate
/// bit-exactly to its single-constraint counterpart (the same contract as
/// uniform capacities taking the unweighted integer path).
pub fn dual_uniform(w2: &[u64]) -> bool {
    w2.iter().all(|&w| w == w2[0])
}

/// Dual-constraint effective imbalance: the worse of the two per-constraint
/// capacity-weighted imbalances — the max-of-imbalances objective the dual
/// kernels minimize. Inherits [`imbalance_weighted`]'s degenerate-input
/// guards, so it is defined (never NaN) for any capacity vector.
pub fn imbalance_dual(w1: &[u64], w2: &[u64], caps: &[f64]) -> f64 {
    imbalance_weighted(w1, caps).max(imbalance_weighted(w2, caps))
}

/// Combined integer weight for seeding dual-constraint kernels: each
/// vertex's two weights are normalized by their respective totals and
/// recombined at a fixed integer scale. Balancing the combined weight
/// balances the *sum* of the normalized constraints; the dual repair passes
/// then chase the max.
pub(crate) fn combine_dual(w1: &[u64], w2: &[u64]) -> Vec<u64> {
    assert_eq!(w1.len(), w2.len(), "one second weight per vertex");
    let norm = (dual_norm(w1), dual_norm(w2));
    w1.iter()
        .zip(w2)
        .map(|(&a, &b)| combined(a, b, norm))
        .collect()
}

/// A constraint's total as the normalizer [`combine_dual`] divides by (1.0
/// for an all-zero vector).
pub(crate) fn dual_norm(w: &[u64]) -> f64 {
    match w.iter().sum::<u64>() {
        0 => 1.0,
        t => t as f64,
    }
}

/// One vertex's combined weight under the normalizers `norm`.
pub(crate) fn combined(a: u64, b: u64, norm: (f64, f64)) -> u64 {
    let scale = (1u64 << 20) as f64;
    ((a as f64 / norm.0 + b as f64 / norm.1) * scale).round() as u64
}

/// Number of vertices whose assignment differs between two partitions, and
/// the vertex weight that would have to move.
pub fn migration(g: &Graph, from: &[u32], to: &[u32]) -> (usize, u64) {
    let mut count = 0;
    let mut weight = 0;
    for v in 0..g.n() {
        if from[v] != to[v] {
            count += 1;
            weight += g.vwgt[v];
        }
    }
    (count, weight)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph<'static> {
        Graph::from_csr(
            vec![0, 1, 3, 5, 6],
            vec![1, 0, 2, 1, 3, 2],
            vec![1, 2, 3, 4],
        )
    }

    #[test]
    fn cut_of_path() {
        let g = path4();
        assert_eq!(edge_cut(&g, &[0, 0, 1, 1]), 1);
        assert_eq!(edge_cut(&g, &[0, 1, 0, 1]), 3);
        assert_eq!(edge_cut(&g, &[0, 0, 0, 0]), 0);
    }

    #[test]
    fn weights_and_imbalance() {
        let g = path4();
        let w = weights_of(&g.vwgt, &[0, 0, 1, 1], 2);
        assert_eq!(w, vec![3, 7]);
        assert!((imbalance(&w) - 1.4).abs() < 1e-12);
        assert!((imbalance(&[5, 5]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_return_defined_imbalance() {
        // All-empty parts: no load is perfectly balanced.
        assert_eq!(imbalance(&[0, 0, 0]), 1.0);
        assert_eq!(imbalance_weighted(&[0, 0], &[1.0, 1.0]), 1.0);
        // Zero / non-finite total capacity: defined 1.0, never NaN.
        assert_eq!(imbalance_weighted(&[3, 5], &[0.0, 0.0]), 1.0);
        assert_eq!(imbalance_weighted(&[3, 5], &[f64::NAN, 1.0]), 1.0);
        assert_eq!(imbalance_weighted(&[3, 5], &[-1.0, 1.0]), 1.0);
    }

    #[test]
    fn dual_imbalance_takes_the_binding_constraint() {
        let caps = [1.0, 1.0];
        // Constraint 1 balanced, constraint 2 badly skewed.
        let imb = imbalance_dual(&[5, 5], &[9, 1], &caps);
        assert!((imb - 1.8).abs() < 1e-12, "got {imb}");
        // Symmetric case.
        let imb = imbalance_dual(&[9, 1], &[5, 5], &caps);
        assert!((imb - 1.8).abs() < 1e-12, "got {imb}");
        // Degenerate capacities stay defined.
        assert_eq!(imbalance_dual(&[3, 5], &[1, 1], &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn dual_uniform_detects_constant_vectors() {
        assert!(dual_uniform(&[]));
        assert!(dual_uniform(&[4, 4, 4]));
        assert!(!dual_uniform(&[4, 4, 5]));
    }

    #[test]
    fn migration_counts() {
        let g = path4();
        let (n, w) = migration(&g, &[0, 0, 1, 1], &[0, 1, 1, 0]);
        assert_eq!(n, 2);
        assert_eq!(w, 2 + 4);
    }
}
