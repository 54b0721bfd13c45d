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
//! The SPMD body follows the [`crate::sfc`] contract: replicated
//! arithmetic only, so the partition is a deterministic function of
//! `(keys, vwgt, prev, nparts, caps)` and independent of the machine
//! model; virtual time comes from the per-vertex assignment charge and
//! the real moved-triple exchange + part-weight allreduce.

use std::sync::Arc;

use plum_parsim::{makespan, spmd, Comm, MachineModel, TraceLog};

use crate::distributed::DistPartition;
use crate::metrics::{combine_dual, dual_uniform, imbalance_dual, imbalance_weighted, weights_of};
use crate::sfc::{
    cap_fractions, charge, exchange_and_check, resolve_replicated, sfc_split, DUAL_TRIPLE_BYTES,
    TRIPLE_BYTES,
};

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
    let frac = cap_fractions(caps, nparts);
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

/// Serial kernel, from-scratch flavor: partition by Voronoi cell growth
/// seeded from the capacity-weighted SFC split.
pub fn voronoi_partition(keys: &[u64], vwgt: &[u64], nparts: usize, caps: &[f64]) -> Vec<u32> {
    let judge = |part: &[u32]| imbalance_weighted(&weights_of(vwgt, part, nparts), caps);
    voronoi_core(keys, vwgt, None, nparts, caps, judge)
}

/// Serial kernel, rebalance flavor: seed the generators from the previous
/// partition's centroids and keep the previous partition as the incumbent
/// — never worsens the effective imbalance, and a balanced input is
/// returned unchanged.
pub fn voronoi_balance(
    keys: &[u64],
    vwgt: &[u64],
    prev: &[u32],
    nparts: usize,
    caps: &[f64],
) -> Vec<u32> {
    let judge = |part: &[u32]| imbalance_weighted(&weights_of(vwgt, part, nparts), caps);
    voronoi_core(keys, vwgt, Some(prev), nparts, caps, judge)
}

/// Dual-constraint from-scratch kernel: drive the cells with the combined
/// weight, judge on the dual effective imbalance. A uniform second weight
/// vector reduces bit-exactly to [`voronoi_partition`].
pub fn voronoi_partition_dual(
    keys: &[u64],
    w1: &[u64],
    w2: &[u64],
    nparts: usize,
    caps: &[f64],
) -> Vec<u32> {
    if dual_uniform(w2) {
        return voronoi_partition(keys, w1, nparts, caps);
    }
    let combined = combine_dual(w1, w2);
    let judge = |part: &[u32]| {
        imbalance_dual(
            &weights_of(w1, part, nparts),
            &weights_of(w2, part, nparts),
            caps,
        )
    };
    voronoi_core(keys, &combined, None, nparts, caps, judge)
}

/// Dual-constraint rebalance kernel; uniform `w2` reduces bit-exactly to
/// [`voronoi_balance`].
pub fn voronoi_balance_dual(
    keys: &[u64],
    w1: &[u64],
    w2: &[u64],
    prev: &[u32],
    nparts: usize,
    caps: &[f64],
) -> Vec<u32> {
    if dual_uniform(w2) {
        return voronoi_balance(keys, w1, prev, nparts, caps);
    }
    let combined = combine_dual(w1, w2);
    let judge = |part: &[u32]| {
        imbalance_dual(
            &weights_of(w1, part, nparts),
            &weights_of(w2, part, nparts),
            caps,
        )
    };
    voronoi_core(keys, &combined, Some(prev), nparts, caps, judge)
}

/// SPMD body of the Voronoi balancer: the Lloyd rounds are replicated
/// arithmetic on the (allreduce-replicated) part weights and centroids, so
/// the real traffic is the moved-triple exchange plus the part-weight
/// allreduce; the per-vertex charge covers the local assignment scans.
/// Bit-identical to the serial kernel on every rank under every machine
/// model. `prev = None` runs the from-scratch flavor (and ships every
/// local triple); `Some` runs the rebalance flavor (moved triples only).
#[allow(clippy::too_many_arguments)]
pub fn voronoi_body(
    comm: &mut Comm,
    keys: &[u64],
    vwgt: &[u64],
    owner: &[u32],
    prev: Option<&[u32]>,
    nparts: usize,
    caps: &[f64],
    vertex_units: f64,
    precomputed: Option<&Arc<Vec<u32>>>,
) -> Arc<Vec<u32>> {
    let rank = comm.rank();
    let part = resolve_replicated(precomputed, || match prev {
        Some(prev) => voronoi_balance(keys, vwgt, prev, nparts, caps),
        None => voronoi_partition(keys, vwgt, nparts, caps),
    });
    let n_local = owner.iter().filter(|&&o| o as usize == rank).count();
    charge(comm, n_local, vertex_units);
    exchange_and_check(comm, vwgt, None, owner, &part, prev, nparts, TRIPLE_BYTES);
    part
}

/// Dual-constraint SPMD body; uniform `w2` delegates to [`voronoi_body`],
/// leaving its traffic untouched.
#[allow(clippy::too_many_arguments)]
pub fn voronoi_body_dual(
    comm: &mut Comm,
    keys: &[u64],
    w1: &[u64],
    w2: &[u64],
    owner: &[u32],
    prev: Option<&[u32]>,
    nparts: usize,
    caps: &[f64],
    vertex_units: f64,
    precomputed: Option<&Arc<Vec<u32>>>,
) -> Arc<Vec<u32>> {
    if dual_uniform(w2) {
        return voronoi_body(
            comm,
            keys,
            w1,
            owner,
            prev,
            nparts,
            caps,
            vertex_units,
            precomputed,
        );
    }
    let rank = comm.rank();
    let part = resolve_replicated(precomputed, || match prev {
        Some(prev) => voronoi_balance_dual(keys, w1, w2, prev, nparts, caps),
        None => voronoi_partition_dual(keys, w1, w2, nparts, caps),
    });
    let n_local = owner.iter().filter(|&&o| o as usize == rank).count();
    charge(comm, n_local, vertex_units);
    exchange_and_check(
        comm,
        w1,
        Some(w2),
        owner,
        &part,
        prev,
        nparts,
        DUAL_TRIPLE_BYTES,
    );
    part
}

/// Standalone distributed harness (mirrors [`crate::sfc::sfc_distributed`]).
#[allow(clippy::too_many_arguments)]
pub fn voronoi_distributed(
    keys: &[u64],
    vwgt: &[u64],
    owner: &[u32],
    prev: Option<&[u32]>,
    nparts: usize,
    caps: &[f64],
    nranks: usize,
    model: MachineModel,
    vertex_units: f64,
) -> DistPartition {
    let hoisted = Arc::new(match prev {
        Some(prev) => voronoi_balance(keys, vwgt, prev, nparts, caps),
        None => voronoi_partition(keys, vwgt, nparts, caps),
    });
    let hoisted = &hoisted;
    let results = spmd(nranks, model, move |comm| {
        comm.phase("partition", |c| {
            voronoi_body(
                c,
                keys,
                vwgt,
                owner,
                prev,
                nparts,
                caps,
                vertex_units,
                Some(hoisted),
            )
        })
    });
    let part = results[0].value.to_vec();
    for r in &results {
        assert_eq!(*r.value, part, "rank {} disagrees on the partition", r.rank);
    }
    DistPartition {
        part,
        makespan: makespan(&results),
        trace: TraceLog::from_results(&results),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_partition_is_exact_fixed_point() {
        let keys: Vec<u64> = (0..64).map(|v| v * 100).collect();
        let vwgt = vec![1u64; 64];
        let prev: Vec<u32> = (0..64).map(|v| (v / 16) as u32).collect();
        let caps = vec![1.0; 4];
        assert_eq!(voronoi_balance(&keys, &vwgt, &prev, 4, &caps), prev);
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
        let part = voronoi_balance(&keys, &vwgt, &prev, 4, &caps);
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
        let part = voronoi_partition(&keys, &vwgt, 4, &caps);
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
        let part = voronoi_balance(&keys, &vwgt, &prev, 3, &caps);
        let old = imbalance_weighted(&weights_of(&vwgt, &prev, 3), &caps);
        let new = imbalance_weighted(&weights_of(&vwgt, &part, 3), &caps);
        assert!(
            new < old,
            "capacity-weighted imbalance must drop: {new} vs {old}"
        );
        let w = weights_of(&vwgt, &part, 3);
        assert!(w[0] > 30, "double-capacity cell must grow: {w:?}");
    }

    #[test]
    fn dual_uniform_reduces_bit_exactly() {
        let keys: Vec<u64> = (0..48).map(|v| v * 7).collect();
        let mut vwgt = vec![1u64; 48];
        for w in vwgt.iter_mut().take(12) {
            *w = 5;
        }
        let prev: Vec<u32> = (0..48).map(|v| (v / 12) as u32).collect();
        let caps = vec![1.0; 4];
        let w2 = vec![2u64; 48];
        assert_eq!(
            voronoi_balance_dual(&keys, &vwgt, &w2, &prev, 4, &caps),
            voronoi_balance(&keys, &vwgt, &prev, 4, &caps)
        );
        assert_eq!(
            voronoi_partition_dual(&keys, &vwgt, &w2, 4, &caps),
            voronoi_partition(&keys, &vwgt, 4, &caps)
        );
    }
}
