//! Voronoi / centroid-shift balancer on the space-filling curve: each part
//! owns a generator point in SFC key space, vertices join the nearest
//! generator under a multiplicatively-weighted distance, and Lloyd-style
//! rounds shift generators to their part centroids while per-part radii
//! grow or shrink toward the capacity-weighted load target. The geometric
//! cousin of [`crate::sfc`]'s range splitter, after the Voronoi
//! cell-growth schemes of the dynamic-load-balancing literature
//! (arXiv:1408.3196): where the range splitter cuts the curve at
//! cumulative targets, the Voronoi balancer *grows and shrinks cells* —
//! which keeps parts compact around their centroids and makes incremental
//! rebalancing a small perturbation of the generators rather than a fresh
//! global cut.
//!
//! Determinism: distance ties break to the smallest part id (strict `<`
//! comparison), all accumulations run in ascending vertex order, and the
//! round count is a fixed constant. The best assignment seen across
//! rounds is returned; when a previous partition seeds the search it is
//! the incumbent best, so the result never has worse capacity-weighted
//! imbalance than the seed and an already-balanced partition is an exact
//! fixed point.
//!
//! This is the serial kernel, and the only implementation:
//! [`crate::balance_body`] runs it on rank 0 inside the simulator, the
//! owned weights and seed parts gathered there and the parts scattered
//! back.

use crate::metrics::weights_of;
use crate::sfc::{sfc_split, Shares};
use crate::weights::Weights;

/// Lloyd rounds. Generators converge geometrically on the 1D curve; the
/// best-seen assignment is kept, so extra rounds can only help quality.
pub const VORONOI_ROUNDS: usize = 16;

/// Radius clamp bounds: keeps a starved or overloaded cell from collapsing
/// to zero / swallowing the curve in one round.
const RADIUS_MIN: f64 = 1e-3;
const RADIUS_MAX: f64 = 1e3;

/// Nearest-generator assignment under the multiplicatively-weighted
/// distance `|key − g_p| / r_p`. Strict `<` keeps the lowest part id on
/// ties — deterministic for any key distribution.
fn assign(keys: &[u64], gens: &[f64], radii: &[f64]) -> Vec<u32> {
    keys.iter()
        .map(|&k| {
            let x = k as f64;
            let mut best = 0u32;
            let mut best_d = f64::INFINITY;
            for (p, (&g, &r)) in gens.iter().zip(radii).enumerate() {
                let d = (x - g).abs() / r;
                if d < best_d {
                    best_d = d;
                    best = p as u32;
                }
            }
            best
        })
        .collect()
}

/// Weighted part centroids in key space; empty parts keep their previous
/// generator (`fallback`).
fn centroids(
    keys: &[u64],
    vwgt: &[u64],
    part: &[u32],
    nparts: usize,
    fallback: &[f64],
) -> Vec<f64> {
    let mut ksum = vec![0.0f64; nparts];
    let mut wsum = vec![0.0f64; nparts];
    for v in 0..keys.len() {
        let p = part[v] as usize;
        let w = vwgt[v] as f64;
        ksum[p] += w * keys[v] as f64;
        wsum[p] += w;
    }
    (0..nparts)
        .map(|p| {
            if wsum[p] > 0.0 {
                ksum[p] / wsum[p]
            } else {
                fallback[p]
            }
        })
        .collect()
}

/// Shared core: Lloyd rounds from a seed (or a fresh SFC split), tracking
/// the best assignment under `judge`; the seed is the incumbent, so the
/// result never judges worse than the seed.
fn voronoi_core(
    keys: &[u64],
    w_drive: &[u64],
    seed: Option<&[u32]>,
    nparts: usize,
    caps: &[f64],
    judge: impl Fn(&[u32]) -> f64,
) -> Vec<u32> {
    let n = keys.len();
    assert_eq!(n, w_drive.len(), "one weight per vertex");
    if let Some(prev) = seed {
        assert_eq!(n, prev.len(), "one previous part per vertex");
    }
    if nparts <= 1 || n == 0 {
        return seed.map(<[u32]>::to_vec).unwrap_or_else(|| vec![0; n]);
    }
    let frac = Shares::new(caps).fracs(nparts);
    let total: u64 = w_drive.iter().sum();
    if total == 0 {
        return seed.map(<[u32]>::to_vec).unwrap_or_else(|| vec![0; n]);
    }
    // Quantile fallback generators for parts that start (or go) empty.
    let kmin = *keys.iter().min().unwrap() as f64;
    let kmax = *keys.iter().max().unwrap() as f64;
    let quantile: Vec<f64> = (0..nparts)
        .map(|p| kmin + (p as f64 + 0.5) / nparts as f64 * (kmax - kmin))
        .collect();
    let init = match seed {
        Some(prev) => prev.to_vec(),
        None => sfc_split(keys, w_drive, nparts, caps),
    };
    let mut gens = centroids(keys, w_drive, &init, nparts, &quantile);
    let mut radii = vec![1.0f64; nparts];
    // The seed is the incumbent: strict `<` below means a round must
    // *improve* on it to win, which makes a balanced seed a fixed point.
    let mut best: Option<(f64, Vec<u32>)> = seed.map(|s| (judge(s), s.to_vec()));
    for _ in 0..VORONOI_ROUNDS {
        let part = assign(keys, &gens, &radii);
        let imb = judge(&part);
        let better = match &best {
            None => true,
            Some((b, _)) => imb < *b,
        };
        if better {
            best = Some((imb, part.clone()));
        }
        // Lloyd shift + radius update toward the capacity target.
        let w = weights_of(w_drive, &part, nparts);
        gens = centroids(keys, w_drive, &part, nparts, &gens);
        for p in 0..nparts {
            let target = total as f64 * frac[p];
            // Floor keeps an empty cell growing instead of dividing by 0.
            let actual = (w[p] as f64).max(total as f64 / (nparts as f64 * 64.0));
            radii[p] = (radii[p] * (target / actual).sqrt()).clamp(RADIUS_MIN, RADIUS_MAX);
        }
    }
    best.expect("nparts ≥ 2 runs at least one round").1
}

/// The Voronoi balancer: cells driven by [`Weights::drive`], judged on
/// [`Weights::imbalance`]. With a seed the generators start at the previous
/// partition's centroids and the seed is the incumbent — the result never
/// judges worse and a balanced input is returned unchanged; without one the
/// capacity-weighted SFC split seeds the generators.
pub(crate) fn voronoi(
    keys: &[u64],
    w: Weights,
    seed: Option<&[u32]>,
    nparts: usize,
    caps: &[f64],
) -> Vec<u32> {
    let judge = |part: &[u32]| w.imbalance(part, nparts, caps);
    voronoi_core(keys, &w.drive(), seed, nparts, caps, judge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::imbalance_weighted;

    #[test]
    fn balanced_partition_is_exact_fixed_point() {
        let keys: Vec<u64> = (0..64).map(|v| v * 100).collect();
        let vwgt = vec![1u64; 64];
        let prev: Vec<u32> = (0..64).map(|v| (v / 16) as u32).collect();
        let caps = vec![1.0; 4];
        assert_eq!(
            voronoi(&keys, Weights::new(&vwgt, None), Some(&prev), 4, &caps),
            prev
        );
    }

    #[test]
    fn hot_block_sheds_load_monotonically() {
        let keys: Vec<u64> = (0..64).map(|v| v * 100).collect();
        let mut vwgt = vec![1u64; 64];
        for w in vwgt.iter_mut().take(16) {
            *w = 8;
        }
        let prev: Vec<u32> = (0..64).map(|v| (v / 16) as u32).collect();
        let caps = vec![1.0; 4];
        let part = voronoi(&keys, Weights::new(&vwgt, None), Some(&prev), 4, &caps);
        let old = imbalance_weighted(&weights_of(&vwgt, &prev, 4), &caps);
        let new = imbalance_weighted(&weights_of(&vwgt, &part, 4), &caps);
        assert!(new < old, "hot block must shed: {new} vs {old}");
    }

    #[test]
    fn from_scratch_beats_trivial_split_on_skewed_keys() {
        // Keys clustered at both ends; from-scratch Voronoi must produce a
        // complete, reasonably balanced partition.
        let keys: Vec<u64> = (0..100)
            .map(|v| if v < 50 { v } else { 1_000_000 + v })
            .collect();
        let vwgt = vec![1u64; 100];
        let caps = vec![1.0; 4];
        let part = voronoi(&keys, Weights::new(&vwgt, None), None, 4, &caps);
        assert_eq!(part.len(), 100);
        assert!(part.iter().all(|&p| p < 4));
        let imb = imbalance_weighted(&weights_of(&vwgt, &part, 4), &caps);
        assert!(imb <= 1.3, "from-scratch Voronoi too lopsided: {imb}");
    }

    #[test]
    fn capacity_weighted_cells_track_fractions() {
        let keys: Vec<u64> = (0..90).map(|v| v * 10).collect();
        let vwgt = vec![1u64; 90];
        let prev: Vec<u32> = (0..90).map(|v| (v / 30) as u32).collect();
        // Part 0 has double capacity: equal thirds are imbalanced in
        // effective terms, and the balancer must feed part 0.
        let caps = vec![2.0, 1.0, 1.0];
        let part = voronoi(&keys, Weights::new(&vwgt, None), Some(&prev), 3, &caps);
        let old = imbalance_weighted(&weights_of(&vwgt, &prev, 3), &caps);
        let new = imbalance_weighted(&weights_of(&vwgt, &part, 3), &caps);
        assert!(
            new < old,
            "capacity-weighted imbalance must drop: {new} vs {old}"
        );
        let w = weights_of(&vwgt, &part, 3);
        assert!(w[0] > 30, "double-capacity cell must grow: {w:?}");
    }
}
