//! Knapsack / cost-bin packing: longest-processing-time greedy assignment
//! into capacity-weighted bins.
//!
//! The locality-insensitive end of the partitioner portfolio, after AMReX's
//! `DistributionMapping::makeKnapSack`: when imbalance is extreme, the cut
//! hardly matters and the fastest way back to balance is to treat vertices
//! as independent jobs and pack them onto processors by weight. LPT greedy
//! is within 4/3 of optimal makespan, deterministic, and needs no graph at
//! all.
//!
//! The SPMD body follows the [`crate::distributed::repartition_body`]
//! contract: replicated control flow, machine-model-independent result,
//! virtual time from compute charges plus real collective traffic.

use std::sync::Arc;

use plum_parsim::{makespan, spmd, words_for_bytes, Comm, MachineModel, TraceLog};

use crate::distributed::DistPartition;
use crate::metrics::dual_uniform;

/// Bytes per (id, weight) pair in the distributed assignment exchange.
const PAIR_BYTES: usize = 12;

/// Bytes per (id, weight, weight2) triple in the dual-constraint exchange.
const DUAL_PAIR_BYTES: usize = 20;

/// LPT greedy bin packing. Vertices in `(weight desc, id asc)` order each go
/// to the bin whose *post-assignment* effective load `(w_p + w) / c_p` is
/// smallest, lowest bin id breaking ties — a total order, so the result is
/// deterministic.
pub fn knapsack_partition(vwgt: &[u64], nparts: usize, caps: &[f64]) -> Vec<u32> {
    assert_eq!(caps.len(), nparts, "one capacity per part");
    let cap_sum: f64 = caps.iter().sum();
    let caps: Vec<f64> = if cap_sum <= 0.0 || !cap_sum.is_finite() {
        vec![1.0; nparts]
    } else {
        caps.to_vec()
    };
    let mut order: Vec<u32> = (0..vwgt.len() as u32).collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(vwgt[v as usize]), v));
    let mut part = vec![0u32; vwgt.len()];
    let mut w = vec![0u64; nparts];
    for &v in &order {
        let wv = vwgt[v as usize];
        let mut best = 0usize;
        let mut best_load = f64::INFINITY;
        for p in 0..nparts {
            let load = (w[p] + wv) as f64 / caps[p];
            if load < best_load {
                best = p;
                best_load = load;
            }
        }
        part[v as usize] = best as u32;
        w[best] += wv;
    }
    part
}

/// Dual-constraint LPT packing: every vertex carries two weights (e.g.
/// fluid work and particle work) and each goes to the bin minimizing the
/// post-assignment *max-of-constraints* effective load, where each
/// constraint is normalized by its own total so neither scale dominates.
/// Vertices are packed in descending combined-normalized-size order (id
/// tie-break — a total order, so the result is deterministic). A uniform
/// second weight vector delegates to [`knapsack_partition`] bit-exactly.
///
/// The greedy bound generalizes: both per-constraint capacity-weighted
/// imbalances stay below `2 + s_max · Σc / min(c)` where `s_max` is the
/// largest combined normalized vertex size — the property the dual
/// proptests pin.
pub fn knapsack_partition_dual(w1: &[u64], w2: &[u64], nparts: usize, caps: &[f64]) -> Vec<u32> {
    assert_eq!(w1.len(), w2.len(), "one second weight per vertex");
    if dual_uniform(w2) {
        return knapsack_partition(w1, nparts, caps);
    }
    assert_eq!(caps.len(), nparts, "one capacity per part");
    let cap_sum: f64 = caps.iter().sum();
    let caps: Vec<f64> = if cap_sum <= 0.0 || !cap_sum.is_finite() {
        vec![1.0; nparts]
    } else {
        caps.to_vec()
    };
    let t1: u64 = w1.iter().sum();
    let t2: u64 = w2.iter().sum();
    let n1 = if t1 == 0 { 1.0 } else { t1 as f64 };
    let n2 = if t2 == 0 { 1.0 } else { t2 as f64 };
    let size = |v: usize| w1[v] as f64 / n1 + w2[v] as f64 / n2;
    let mut order: Vec<u32> = (0..w1.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        size(b as usize)
            .partial_cmp(&size(a as usize))
            .unwrap()
            .then(a.cmp(&b))
    });
    let mut part = vec![0u32; w1.len()];
    let mut b1 = vec![0u64; nparts];
    let mut b2 = vec![0u64; nparts];
    for &v in &order {
        let v = v as usize;
        let mut best = 0usize;
        let mut best_load = f64::INFINITY;
        for p in 0..nparts {
            let l1 = (b1[p] + w1[v]) as f64 / n1;
            let l2 = (b2[p] + w2[v]) as f64 / n2;
            let load = l1.max(l2) / caps[p];
            if load < best_load {
                best = p;
                best_load = load;
            }
        }
        part[v] = best as u32;
        b1[best] += w1[v];
        b2[best] += w2[v];
    }
    part
}

/// SPMD body of the knapsack packer: local weight sort, alltoallv
/// assignment exchange, allreduce'd bin loads. Returns the same partition
/// [`knapsack_partition`] computes serially — bit-identical on every rank
/// and under every machine model.
pub fn knapsack_body(
    comm: &mut Comm,
    vwgt: &[u64],
    owner: &[u32],
    nparts: usize,
    caps: &[f64],
    vertex_units: f64,
) -> Arc<Vec<u32>> {
    let rank = comm.rank();
    let nranks = comm.nranks();
    let part = knapsack_partition(vwgt, nparts, caps);
    // Local sort plus the serial packing sweep on the gathered weights.
    let n_local = owner.iter().filter(|&&o| o as usize == rank).count();
    let units = vertex_units * n_local as f64;
    if units > 0.0 {
        comm.compute(units);
    }
    // Each rank ships its local (id, weight) pairs to the home rank of the
    // destination bin; bin loads are summed by allreduce.
    let mut counts = vec![0u64; nranks];
    let mut local_w = vec![0u64; nparts];
    for v in 0..part.len() {
        if owner[v] as usize != rank {
            continue;
        }
        local_w[part[v] as usize] += vwgt[v];
        counts[part[v] as usize * nranks / nparts] += 1;
    }
    let items: Vec<(usize, u64, u64)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(dst, &c)| (dst, words_for_bytes(PAIR_BYTES * c as usize), c))
        .collect();
    comm.alltoallv_sparse(items);
    let global_w = comm.allreduce(nparts as u64, local_w, |a, b| {
        a.iter().zip(&b).map(|(x, y)| x + y).collect::<Vec<u64>>()
    });
    let total: u64 = global_w.iter().sum();
    assert_eq!(
        total,
        vwgt.iter().sum::<u64>(),
        "allreduce'd bin loads diverged"
    );
    Arc::new(part)
}

/// Dual-constraint SPMD body: the same exchange as [`knapsack_body`] but
/// shipping (id, w1, w2) triples and allreduce-checking *both* per-bin load
/// vectors. A uniform second weight vector delegates to the single-path
/// body, so its byte counts (and thus virtual times) are untouched.
pub fn knapsack_body_dual(
    comm: &mut Comm,
    w1: &[u64],
    w2: &[u64],
    owner: &[u32],
    nparts: usize,
    caps: &[f64],
    vertex_units: f64,
) -> Arc<Vec<u32>> {
    if dual_uniform(w2) {
        return knapsack_body(comm, w1, owner, nparts, caps, vertex_units);
    }
    let rank = comm.rank();
    let nranks = comm.nranks();
    let part = knapsack_partition_dual(w1, w2, nparts, caps);
    let n_local = owner.iter().filter(|&&o| o as usize == rank).count();
    let units = vertex_units * n_local as f64;
    if units > 0.0 {
        comm.compute(units);
    }
    let mut counts = vec![0u64; nranks];
    let mut local_w1 = vec![0u64; nparts];
    let mut local_w2 = vec![0u64; nparts];
    for v in 0..part.len() {
        if owner[v] as usize != rank {
            continue;
        }
        local_w1[part[v] as usize] += w1[v];
        local_w2[part[v] as usize] += w2[v];
        counts[part[v] as usize * nranks / nparts] += 1;
    }
    let items: Vec<(usize, u64, u64)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(dst, &c)| (dst, words_for_bytes(DUAL_PAIR_BYTES * c as usize), c))
        .collect();
    comm.alltoallv_sparse(items);
    let sum = |a: Vec<u64>, b: Vec<u64>| a.iter().zip(&b).map(|(x, y)| x + y).collect::<Vec<u64>>();
    let g1 = comm.allreduce(nparts as u64, local_w1, sum);
    let g2 = comm.allreduce(nparts as u64, local_w2, sum);
    assert_eq!(
        g1.iter().sum::<u64>(),
        w1.iter().sum::<u64>(),
        "allreduce'd bin loads diverged (constraint 1)"
    );
    assert_eq!(
        g2.iter().sum::<u64>(),
        w2.iter().sum::<u64>(),
        "allreduce'd bin loads diverged (constraint 2)"
    );
    Arc::new(part)
}

/// Standalone harness for [`knapsack_body`], mirroring
/// [`crate::repartition_distributed`]. Panics if ranks disagree.
#[allow(clippy::too_many_arguments)]
pub fn knapsack_distributed(
    vwgt: &[u64],
    owner: &[u32],
    nparts: usize,
    caps: &[f64],
    nranks: usize,
    model: MachineModel,
    vertex_units: f64,
) -> DistPartition {
    let results = spmd(nranks, model, |comm| {
        comm.phase("partition", |c| {
            knapsack_body(c, vwgt, owner, nparts, caps, vertex_units)
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
    use crate::metrics::imbalance_weighted;

    #[test]
    fn lpt_balances_skewed_weights_tightly() {
        // One giant job plus many small ones: LPT puts the giant alone.
        let mut vwgt = vec![1u64; 63];
        vwgt.push(60);
        let part = knapsack_partition(&vwgt, 4, &[1.0; 4]);
        let mut w = [0u64; 4];
        for v in 0..vwgt.len() {
            w[part[v] as usize] += vwgt[v];
        }
        let imb = imbalance_weighted(&w, &[1.0; 4]);
        assert!(imb < 2.0, "LPT imbalance {imb} (loads {w:?})");
        let giant_bin = part[63] as usize;
        assert_eq!(w[giant_bin], 60, "giant bin took extra load: {w:?}");
    }

    #[test]
    fn capacity_weighted_bins_attract_proportional_load() {
        let vwgt = vec![2u64; 200];
        let caps = [3.0, 1.0, 1.0, 1.0];
        let part = knapsack_partition(&vwgt, 4, &caps);
        let mut w = [0u64; 4];
        for v in 0..vwgt.len() {
            w[part[v] as usize] += vwgt[v];
        }
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
        let single = knapsack_partition(&w1, 4, &caps);
        let dual = knapsack_partition_dual(&w1, &w2, 4, &caps);
        let imb = |part: &[u32], w: &[u64]| {
            imbalance_weighted(&crate::metrics::weights_of(w, part, 4), &caps)
        };
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

    #[test]
    fn dual_reduces_to_single_when_second_weights_uniform() {
        let w1: Vec<u64> = (0..100u64).map(|v| 1 + (v * 13) % 17).collect();
        let caps = [1.5, 1.0, 0.5, 1.0];
        let single = knapsack_partition(&w1, 4, &caps);
        for c in [1u64, 7] {
            let w2 = vec![c; 100];
            assert_eq!(knapsack_partition_dual(&w1, &w2, 4, &caps), single);
        }
    }

    #[test]
    fn dual_distributed_matches_serial_and_is_model_invariant() {
        let w1: Vec<u64> = (0..300u64).map(|v| 1 + (v * v) % 19).collect();
        let w2: Vec<u64> = (0..300u64)
            .map(|v| if v % 37 == 0 { 80 } else { 1 })
            .collect();
        let caps = vec![1.0; 8];
        let owner: Vec<u32> = (0..300).map(|v| (v * 4 / 300) as u32).collect();
        let serial = knapsack_partition_dual(&w1, &w2, 8, &caps);
        let run = |model: MachineModel, units: f64| {
            let results = spmd(4, model, |comm| {
                comm.phase("partition", |c| {
                    knapsack_body_dual(c, &w1, &w2, &owner, 8, &caps, units)
                })
            });
            let part = results[0].value.to_vec();
            for r in &results {
                assert_eq!(*r.value, part, "rank {} disagrees", r.rank);
            }
            (part, makespan(&results))
        };
        let (a, ma) = run(MachineModel::sp2(), 16.0);
        let (b, mb) = run(MachineModel::zero(), 0.0);
        assert_eq!(a, serial, "dual SPMD body diverged from serial");
        assert_eq!(a, b, "dual partition depends on the machine model");
        assert!(ma > mb, "sp2 run should cost virtual time");
    }

    #[test]
    fn distributed_matches_serial_and_is_model_invariant() {
        let vwgt: Vec<u64> = (0..400u64).map(|v| 1 + (v * v) % 23).collect();
        let caps = vec![1.0; 8];
        let owner: Vec<u32> = (0..400).map(|v| (v * 4 / 400) as u32).collect();
        let serial = knapsack_partition(&vwgt, 8, &caps);
        let a = knapsack_distributed(&vwgt, &owner, 8, &caps, 4, MachineModel::sp2(), 16.0);
        let b = knapsack_distributed(&vwgt, &owner, 8, &caps, 4, MachineModel::zero(), 0.0);
        assert_eq!(a.part, serial, "SPMD body diverged from serial");
        assert_eq!(a.part, b.part, "partition depends on the machine model");
        assert!(a.makespan > b.makespan, "sp2 run should cost virtual time");
    }
}
