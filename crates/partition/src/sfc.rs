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
//! re-partitioning. No graph, no coarsening — cost is a local sort plus
//! O(nparts) words of collective traffic, which is what makes it the cheap
//! end of the partitioner portfolio.
//!
//! The SPMD bodies follow the same contract as
//! [`crate::distributed::repartition_body`]: all control flow branches on
//! replicated data only, so the partition is a deterministic function of
//! `(keys, vwgt, prev, nparts, caps)` and independent of the machine model;
//! virtual time comes from per-vertex compute charges and real message
//! traffic (alltoallv key exchange, allreduce'd part weights).

use std::sync::Arc;

use plum_parsim::{makespan, spmd, words_for_bytes, Comm, MachineModel, TraceLog};

use crate::distributed::DistPartition;
use crate::metrics::{combine_dual, dual_uniform, imbalance_dual, imbalance_weighted, weights_of};

/// Boundary-shift sweeps in the diffusion repair. Each sweep walks the curve
/// once; loads converge geometrically, so a handful suffices.
const DIFFUSE_PASSES: usize = 8;

/// Bytes per (key, id, weight) triple in the distributed key exchange.
/// Shared with the other geometric SPMD bodies (`diffusion2`, `voronoi`).
pub(crate) const TRIPLE_BYTES: usize = 20;

/// Bytes per (key, id, weight, weight2) quad in the dual-constraint
/// exchange.
pub(crate) const DUAL_TRIPLE_BYTES: usize = 28;

/// Charge `vertices` visits of local partitioning work.
pub(crate) fn charge(comm: &mut Comm, vertices: usize, vertex_units: f64) {
    let units = vertex_units * vertices as f64;
    if units > 0.0 {
        comm.compute(units);
    }
}

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
/// [`imbalance_weighted`].
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
pub fn sfc_split(keys: &[u64], vwgt: &[u64], nparts: usize, caps: &[f64]) -> Vec<u32> {
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
/// lowers the effective load of the pair it touches. Each accepted move
/// strictly reduces `max(w_a/c_a, w_b/c_b)` for the two parts at one
/// boundary and leaves every other part untouched, so the global effective
/// imbalance is monotonically non-increasing — diffusion can only repair.
pub fn sfc_diffuse(
    keys: &[u64],
    vwgt: &[u64],
    prev: &[u32],
    nparts: usize,
    caps: &[f64],
) -> Vec<u32> {
    assert_eq!(keys.len(), vwgt.len(), "one weight per vertex");
    assert_eq!(keys.len(), prev.len(), "one previous part per vertex");
    let frac = cap_fractions(caps, nparts);
    let order = sfc_order(keys);
    let mut part = prev.to_vec();
    let mut w = vec![0u64; nparts];
    for v in 0..part.len() {
        w[part[v] as usize] += vwgt[v];
    }
    let load = |w: u64, p: usize| w as f64 / frac[p];
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
            let old = load(w[a], a).max(load(w[b], b));
            // Candidate 1: pull v across the boundary into b.
            let fwd = load(w[a] - vwgt[v], a).max(load(w[b] + vwgt[v], b));
            // Candidate 2: pull u back across into a.
            let back = load(w[a] + vwgt[u], a).max(load(w[b] - vwgt[u], b));
            if fwd <= back && fwd < old {
                w[a] -= vwgt[v];
                w[b] += vwgt[v];
                part[v] = b as u32;
                moved = true;
            } else if back < fwd && back < old {
                w[a] += vwgt[u];
                w[b] -= vwgt[u];
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

/// Full SFC partition: capacity-weighted contiguous split, then boundary
/// diffusion to shave the one-vertex overshoot the split allows.
pub fn sfc_partition(keys: &[u64], vwgt: &[u64], nparts: usize, caps: &[f64]) -> Vec<u32> {
    let split = sfc_split(keys, vwgt, nparts, caps);
    sfc_diffuse(keys, vwgt, &split, nparts, caps)
}

/// Dual-constraint contiguous split: the curve is cut at the cumulative
/// capacity targets of the *combined* totals-normalized weight, so the sum
/// of the two normalized constraints tracks the capacity shares; the dual
/// diffusion then chases the max. A uniform second weight vector delegates
/// to [`sfc_split`] bit-exactly.
pub fn sfc_split_dual(
    keys: &[u64],
    w1: &[u64],
    w2: &[u64],
    nparts: usize,
    caps: &[f64],
) -> Vec<u32> {
    if dual_uniform(w2) {
        return sfc_split(keys, w1, nparts, caps);
    }
    let combined = combine_dual(w1, w2);
    sfc_split(keys, &combined, nparts, caps)
}

/// Dual-constraint boundary diffusion: identical sweep structure to
/// [`sfc_diffuse`], but the load a move is judged by is the *binding*
/// constraint — the worse of the two totals-normalized loads over the
/// part's capacity fraction. Each accepted move strictly lowers the pair's
/// binding load, so the global max-of-imbalances objective is monotonically
/// non-increasing. A uniform second weight vector delegates to
/// [`sfc_diffuse`] bit-exactly.
pub fn sfc_diffuse_dual(
    keys: &[u64],
    w1: &[u64],
    w2: &[u64],
    prev: &[u32],
    nparts: usize,
    caps: &[f64],
) -> Vec<u32> {
    if dual_uniform(w2) {
        return sfc_diffuse(keys, w1, prev, nparts, caps);
    }
    assert_eq!(keys.len(), w1.len(), "one weight per vertex");
    assert_eq!(keys.len(), w2.len(), "one second weight per vertex");
    assert_eq!(keys.len(), prev.len(), "one previous part per vertex");
    let frac = cap_fractions(caps, nparts);
    let order = sfc_order(keys);
    let mut part = prev.to_vec();
    let mut a1 = vec![0u64; nparts];
    let mut a2 = vec![0u64; nparts];
    for v in 0..part.len() {
        a1[part[v] as usize] += w1[v];
        a2[part[v] as usize] += w2[v];
    }
    let t1: u64 = w1.iter().sum();
    let t2: u64 = w2.iter().sum();
    let n1 = if t1 == 0 { 1.0 } else { t1 as f64 };
    let n2 = if t2 == 0 { 1.0 } else { t2 as f64 };
    let load = |x1: u64, x2: u64, p: usize| (x1 as f64 / n1).max(x2 as f64 / n2) / frac[p];
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
            let old = load(a1[a], a2[a], a).max(load(a1[b], a2[b], b));
            // Candidate 1: pull v across the boundary into b.
            let fwd =
                load(a1[a] - w1[v], a2[a] - w2[v], a).max(load(a1[b] + w1[v], a2[b] + w2[v], b));
            // Candidate 2: pull u back across into a.
            let back =
                load(a1[a] + w1[u], a2[a] + w2[u], a).max(load(a1[b] - w1[u], a2[b] - w2[u], b));
            if fwd <= back && fwd < old {
                a1[a] -= w1[v];
                a2[a] -= w2[v];
                a1[b] += w1[v];
                a2[b] += w2[v];
                part[v] = b as u32;
                moved = true;
            } else if back < fwd && back < old {
                a1[a] += w1[u];
                a2[a] += w2[u];
                a1[b] -= w1[u];
                a2[b] -= w2[u];
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

/// Full dual-constraint SFC partition: combined-weight contiguous split,
/// then binding-constraint boundary diffusion.
pub fn sfc_partition_dual(
    keys: &[u64],
    w1: &[u64],
    w2: &[u64],
    nparts: usize,
    caps: &[f64],
) -> Vec<u32> {
    let split = sfc_split_dual(keys, w1, w2, nparts, caps);
    sfc_diffuse_dual(keys, w1, w2, &split, nparts, caps)
}

/// Rank that owns part `p` when `nparts` parts are folded onto `nranks`
/// ranks (block mapping, the same fold the engine uses).
fn part_home(p: usize, nparts: usize, nranks: usize) -> usize {
    p * nranks / nparts
}

/// Shared tail of the SPMD bodies: exchange locally-owned triples to each
/// destination part's home rank, then cross-check allreduce'd part weights
/// against the replicated result. Dual-constraint bodies pass their second
/// weight vector (cross-checked by its own allreduce) and the wider
/// per-item payload; single-constraint callers pass `None` +
/// [`TRIPLE_BYTES`], which leaves their traffic — and thus their virtual
/// times — untouched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exchange_and_check(
    comm: &mut Comm,
    vwgt: &[u64],
    vwgt2: Option<&[u64]>,
    owner: &[u32],
    part: &[u32],
    moved_only: Option<&[u32]>,
    nparts: usize,
    item_bytes: usize,
) {
    let rank = comm.rank();
    let nranks = comm.nranks();
    let mut counts = vec![0u64; nranks];
    let mut local_w = vec![0u64; nparts];
    for v in 0..part.len() {
        if owner[v] as usize != rank {
            continue;
        }
        local_w[part[v] as usize] += vwgt[v];
        if let Some(prev) = moved_only {
            if prev[v] == part[v] {
                continue; // unmoved vertices cost no traffic in diffusion
            }
        }
        counts[part_home(part[v] as usize, nparts, nranks)] += 1;
    }
    let items: Vec<(usize, u64, u64)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(dst, &c)| (dst, words_for_bytes(item_bytes * c as usize), c))
        .collect();
    let received = comm.alltoallv_sparse(items);
    let received_total: u64 = received.iter().map(|&(_, c)| c).sum();
    let global_w = comm.allreduce(nparts as u64, local_w, |a, b| {
        a.iter().zip(&b).map(|(x, y)| x + y).collect()
    });
    // Every rank holds the same allocation of the allreduce'd weights, so
    // one rank checking them against the replicated result checks them all.
    if rank == 0 {
        assert_eq!(
            *global_w,
            weights_of(vwgt, part, nparts),
            "allreduce'd part weights diverged"
        );
    }
    if let Some(w2) = vwgt2 {
        let mut local_w2 = vec![0u64; nparts];
        for v in 0..part.len() {
            if owner[v] as usize == rank {
                local_w2[part[v] as usize] += w2[v];
            }
        }
        let global_w2 = comm.allreduce(nparts as u64, local_w2, |a, b| {
            a.iter().zip(&b).map(|(x, y)| x + y).collect()
        });
        if rank == 0 {
            assert_eq!(
                *global_w2,
                weights_of(w2, part, nparts),
                "allreduce'd second-constraint part weights diverged"
            );
        }
    }
    // Every triple sent somewhere was received by exactly one home rank.
    let sent_here: u64 = comm.allreduce_sum_u64(counts.iter().sum::<u64>());
    let recv_all: u64 = comm.allreduce_sum_u64(received_total);
    assert_eq!(sent_here, recv_all, "key exchange lost triples");
}

/// Use a host-precomputed replicated partition when one is provided,
/// falling back to computing it locally. The SPMD partitioner bodies run
/// *replicated* arithmetic (every rank computes the identical answer from
/// identical inputs), so callers driving thousands of ranks can compute it
/// once on the host and pass it in; the *virtual* compute charge is taken
/// either way, so modeled times do not depend on who did the arithmetic.
/// The hoisted value is handed out shared, never copied per rank. Debug
/// builds cross-check it against a local recompute.
pub(crate) fn resolve_replicated(
    precomputed: Option<&Arc<Vec<u32>>>,
    compute: impl FnOnce() -> Vec<u32>,
) -> Arc<Vec<u32>> {
    match precomputed {
        Some(part) => {
            debug_assert_eq!(
                **part,
                compute(),
                "host-precomputed partition diverges from the replicated arithmetic"
            );
            Arc::clone(part)
        }
        None => Arc::new(compute()),
    }
}

/// SPMD body of the full SFC partitioner: local key sort, alltoallv triple
/// exchange to the destination ranks, allreduce'd part weights. Returns the
/// same partition [`sfc_partition`] computes serially — bit-identical on
/// every rank and under every machine model. Pass the replicated result as
/// `precomputed` to skip the per-rank recompute (see
/// [`resolve_replicated`]).
#[allow(clippy::too_many_arguments)]
pub fn sfc_body(
    comm: &mut Comm,
    keys: &[u64],
    vwgt: &[u64],
    owner: &[u32],
    nparts: usize,
    caps: &[f64],
    vertex_units: f64,
    precomputed: Option<&Arc<Vec<u32>>>,
) -> Arc<Vec<u32>> {
    let rank = comm.rank();
    let part = resolve_replicated(precomputed, || sfc_partition(keys, vwgt, nparts, caps));
    // Local work: key generation + comparison sort of the local block.
    let n_local = owner.iter().filter(|&&o| o as usize == rank).count();
    charge(comm, n_local, vertex_units);
    exchange_and_check(comm, vwgt, None, owner, &part, None, nparts, TRIPLE_BYTES);
    part
}

/// Dual-constraint SPMD body of the full SFC partitioner: the same
/// structure as [`sfc_body`] with the wider (key, id, w1, w2) payload and a
/// second cross-checked weight allreduce. A uniform second weight vector
/// delegates to [`sfc_body`], leaving its traffic untouched.
#[allow(clippy::too_many_arguments)]
pub fn sfc_body_dual(
    comm: &mut Comm,
    keys: &[u64],
    w1: &[u64],
    w2: &[u64],
    owner: &[u32],
    nparts: usize,
    caps: &[f64],
    vertex_units: f64,
    precomputed: Option<&Arc<Vec<u32>>>,
) -> Arc<Vec<u32>> {
    if dual_uniform(w2) {
        return sfc_body(
            comm,
            keys,
            w1,
            owner,
            nparts,
            caps,
            vertex_units,
            precomputed,
        );
    }
    let rank = comm.rank();
    let part = resolve_replicated(precomputed, || {
        sfc_partition_dual(keys, w1, w2, nparts, caps)
    });
    let n_local = owner.iter().filter(|&&o| o as usize == rank).count();
    charge(comm, n_local, vertex_units);
    exchange_and_check(
        comm,
        w1,
        Some(w2),
        owner,
        &part,
        None,
        nparts,
        DUAL_TRIPLE_BYTES,
    );
    part
}

/// SPMD body of the boundary-diffusion repair: only the boundary sweep is
/// charged and only *moved* vertices cost wire traffic — the reason this is
/// the cheap path of the portfolio. `precomputed` works as in
/// [`sfc_body`].
#[allow(clippy::too_many_arguments)]
pub fn sfc_diffuse_body(
    comm: &mut Comm,
    keys: &[u64],
    vwgt: &[u64],
    owner: &[u32],
    prev: &[u32],
    nparts: usize,
    caps: &[f64],
    vertex_units: f64,
    precomputed: Option<&Arc<Vec<u32>>>,
) -> Arc<Vec<u32>> {
    let rank = comm.rank();
    let part = resolve_replicated(precomputed, || sfc_diffuse(keys, vwgt, prev, nparts, caps));
    // Boundary sweeps touch each local vertex a handful of times; charge a
    // quarter of the full-sort rate.
    let n_local = owner.iter().filter(|&&o| o as usize == rank).count();
    charge(comm, n_local.div_ceil(4), vertex_units);
    exchange_and_check(
        comm,
        vwgt,
        None,
        owner,
        &part,
        Some(prev),
        nparts,
        TRIPLE_BYTES,
    );
    part
}

/// Dual-constraint SPMD body of the boundary-diffusion repair: only moved
/// vertices cost (wider) wire traffic, as in [`sfc_diffuse_body`]. A
/// uniform second weight vector delegates to the single-constraint body.
#[allow(clippy::too_many_arguments)]
pub fn sfc_diffuse_body_dual(
    comm: &mut Comm,
    keys: &[u64],
    w1: &[u64],
    w2: &[u64],
    owner: &[u32],
    prev: &[u32],
    nparts: usize,
    caps: &[f64],
    vertex_units: f64,
    precomputed: Option<&Arc<Vec<u32>>>,
) -> Arc<Vec<u32>> {
    if dual_uniform(w2) {
        return sfc_diffuse_body(
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
    let part = resolve_replicated(precomputed, || {
        sfc_diffuse_dual(keys, w1, w2, prev, nparts, caps)
    });
    let n_local = owner.iter().filter(|&&o| o as usize == rank).count();
    charge(comm, n_local.div_ceil(4), vertex_units);
    exchange_and_check(
        comm,
        w1,
        Some(w2),
        owner,
        &part,
        Some(prev),
        nparts,
        DUAL_TRIPLE_BYTES,
    );
    part
}

/// Standalone harness for [`sfc_body`] (full partition) or
/// [`sfc_diffuse_body`] (when `prev` is given): its own `nranks`-rank SPMD
/// session, mirroring [`crate::repartition_distributed`]. Panics if ranks
/// disagree on the result.
#[allow(clippy::too_many_arguments)]
pub fn sfc_distributed(
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
    // The replicated arithmetic runs once here instead of once per rank.
    let hoisted = Arc::new(match prev {
        Some(prev) => sfc_diffuse(keys, vwgt, prev, nparts, caps),
        None => sfc_partition(keys, vwgt, nparts, caps),
    });
    let hoisted = &hoisted;
    let results = spmd(nranks, model, move |comm| {
        comm.phase("partition", |c| match prev {
            Some(prev) => sfc_diffuse_body(
                c,
                keys,
                vwgt,
                owner,
                prev,
                nparts,
                caps,
                vertex_units,
                Some(hoisted),
            ),
            None => sfc_body(
                c,
                keys,
                vwgt,
                owner,
                nparts,
                caps,
                vertex_units,
                Some(hoisted),
            ),
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

/// Effective (capacity-weighted) imbalance of a partition given per-vertex
/// weights — the quantity diffusion is contracted never to increase.
pub fn sfc_effective_imbalance(vwgt: &[u64], part: &[u32], nparts: usize, caps: &[f64]) -> f64 {
    let mut w = vec![0u64; nparts];
    for v in 0..part.len() {
        w[part[v] as usize] += vwgt[v];
    }
    imbalance_weighted(&w, caps)
}

/// Dual-constraint effective imbalance of a partition: the worse of the two
/// per-constraint capacity-weighted imbalances — the quantity
/// [`sfc_diffuse_dual`] is contracted never to increase.
pub fn sfc_effective_imbalance_dual(
    w1: &[u64],
    w2: &[u64],
    part: &[u32],
    nparts: usize,
    caps: &[f64],
) -> f64 {
    imbalance_dual(
        &weights_of(w1, part, nparts),
        &weights_of(w2, part, nparts),
        caps,
    )
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
        // Badly cut: 30/10 instead of 20/20.
        let prev: Vec<u32> = (0..40).map(|v| u32::from(v >= 30)).collect();
        let caps = [1.0, 1.0];
        let before = sfc_effective_imbalance(&vwgt, &prev, 2, &caps);
        let part = sfc_diffuse(&keys, &vwgt, &prev, 2, &caps);
        let after = sfc_effective_imbalance(&vwgt, &part, 2, &caps);
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
        let caps = [1.0, 1.0];
        // Badly cut seed: 40/20 instead of 30/30 — both constraints skewed.
        let prev: Vec<u32> = (0..60).map(|v| u32::from(v >= 40)).collect();
        let before = sfc_effective_imbalance_dual(&w1, &w2, &prev, 2, &caps);
        assert!(before > 1.3, "seed should be imbalanced: {before}");
        let part = sfc_diffuse_dual(&keys, &w1, &w2, &prev, 2, &caps);
        let after = sfc_effective_imbalance_dual(&w1, &w2, &part, 2, &caps);
        assert!(after < before, "dual diffusion failed: {before} -> {after}");
        assert!(after < 1.1, "binding constraint still loose: {after}");
    }

    #[test]
    fn dual_kernels_reduce_to_single_when_uniform() {
        let keys: Vec<u64> = (0..80u64).map(|v| v.wrapping_mul(0x2545) % 4096).collect();
        let w1: Vec<u64> = (0..80u64).map(|v| 1 + v % 5).collect();
        let caps = [1.0, 2.0, 1.0];
        let prev = sfc_split(&keys, &w1, 3, &caps);
        for c in [1u64, 9] {
            let w2 = vec![c; 80];
            assert_eq!(
                sfc_split_dual(&keys, &w1, &w2, 3, &caps),
                sfc_split(&keys, &w1, 3, &caps)
            );
            assert_eq!(
                sfc_diffuse_dual(&keys, &w1, &w2, &prev, 3, &caps),
                sfc_diffuse(&keys, &w1, &prev, 3, &caps)
            );
            assert_eq!(
                sfc_partition_dual(&keys, &w1, &w2, 3, &caps),
                sfc_partition(&keys, &w1, 3, &caps)
            );
        }
    }

    #[test]
    fn dual_bodies_match_serial_and_are_model_invariant() {
        let n = 240;
        let keys = line_keys(n);
        let w1: Vec<u64> = (0..n as u64).map(|v| 1 + v % 4).collect();
        let w2: Vec<u64> = (0..n as u64)
            .map(|v| if v % 29 == 0 { 40 } else { 1 })
            .collect();
        let caps = vec![1.0; 4];
        let owner: Vec<u32> = (0..n).map(|v| (v * 4 / n) as u32).collect();
        let serial = sfc_partition_dual(&keys, &w1, &w2, 4, &caps);
        let prev = sfc_split_dual(&keys, &w1, &w2, 4, &[2.0, 1.0, 1.0, 1.0]);
        let serial_diff = sfc_diffuse_dual(&keys, &w1, &w2, &prev, 4, &caps);
        for model in [MachineModel::sp2(), MachineModel::zero()] {
            let results = spmd(4, model, |comm| {
                comm.phase("partition", |c| {
                    let full = sfc_body_dual(c, &keys, &w1, &w2, &owner, 4, &caps, 16.0, None);
                    let diff = sfc_diffuse_body_dual(
                        c, &keys, &w1, &w2, &owner, &prev, 4, &caps, 16.0, None,
                    );
                    (full, diff)
                })
            });
            for r in &results {
                assert_eq!(
                    *r.value.0, serial,
                    "full dual body diverged on rank {}",
                    r.rank
                );
                assert_eq!(
                    *r.value.1, serial_diff,
                    "dual diffusion body diverged on rank {}",
                    r.rank
                );
            }
        }
    }

    #[test]
    fn distributed_full_sfc_matches_serial_and_is_model_invariant() {
        let n = 500;
        let keys: Vec<u64> = (0..n as u64)
            .map(|v| v.wrapping_mul(0x9E37) % 8192)
            .collect();
        let vwgt: Vec<u64> = (0..n as u64).map(|v| 1 + v % 7).collect();
        let caps = vec![1.0; 8];
        let owner: Vec<u32> = (0..n).map(|v| (v * 4 / n) as u32).collect();
        let serial = sfc_partition(&keys, &vwgt, 8, &caps);
        let a = sfc_distributed(
            &keys,
            &vwgt,
            &owner,
            None,
            8,
            &caps,
            4,
            MachineModel::sp2(),
            16.0,
        );
        let b = sfc_distributed(
            &keys,
            &vwgt,
            &owner,
            None,
            8,
            &caps,
            4,
            MachineModel::zero(),
            0.0,
        );
        assert_eq!(a.part, serial, "SPMD body diverged from serial");
        assert_eq!(a.part, b.part, "partition depends on the machine model");
        assert!(a.makespan > b.makespan, "sp2 run should cost virtual time");
    }

    #[test]
    fn distributed_diffusion_matches_serial() {
        let n = 300;
        let keys = line_keys(n);
        let vwgt: Vec<u64> = (0..n as u64).map(|v| 1 + v % 3).collect();
        let caps = vec![1.0; 4];
        let owner: Vec<u32> = (0..n).map(|v| (v * 4 / n) as u32).collect();
        let prev = sfc_split(&keys, &vwgt, 4, &[2.0, 1.0, 1.0, 1.0]); // skewed seed
        let serial = sfc_diffuse(&keys, &vwgt, &prev, 4, &caps);
        let d = sfc_distributed(
            &keys,
            &vwgt,
            &owner,
            Some(&prev),
            4,
            &caps,
            4,
            MachineModel::sp2(),
            16.0,
        );
        assert_eq!(d.part, serial, "diffusion SPMD body diverged from serial");
    }
}
