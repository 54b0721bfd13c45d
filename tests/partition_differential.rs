//! Differential battery: every balancer's SPMD body ([`balance_distributed`])
//! versus its retained serial kernel ([`balance`]), at P ∈ {2, 8, 64} on a
//! quick-scale Fig-6 mesh, under one and two weight constraints.
//!
//! SFC diffusion, a distributed body, and the four methods that run their
//! serial kernel on rank 0 must match their kernels bit for bit. For the
//! multilevel repartitioner two regimes are pinned. On the exact-serial path (coarsest graph = input
//! graph) the distributed kernel gathers the problem to rank 0 and runs the
//! very same serial kernel, so the result must be *bit-identical*. On the
//! genuinely multilevel path the two kernels take discretely different
//! matching/refinement decisions, so the contract is qualitative: edge cut
//! within 10% of the serial result and imbalance no worse than the serial
//! result plus a small epsilon. The same bounds hold a seeded hierarchy that
//! stops above the coarsening target, which diffuses its coarse seed in
//! parallel instead of solving on rank 0 — far above it, and just above it
//! at about 16 coarse vertices per part.

use plum_mesh::generate::{box_dims_for_elements, box_mesh};
use plum_mesh::{DualGraph, SfcCurve};
use plum_parsim::MachineModel;
use plum_partition::{
    balance, balance_distributed, imbalance_weighted, partition_kway, quality, stage_census,
    weights_of, BalanceMethod, DistPartition, Graph, PartitionConfig, Problem,
};

const PROC_COUNTS: [usize; 3] = [2, 8, 64];

/// Work units charged per locally-matched vertex; any positive value — the
/// partition result is machine-model independent by construction.
const VERTEX_UNITS: f64 = 16.0;

/// Quick-scale Fig-6 dual graph (~6000 elements) with a deterministic
/// non-uniform weighting: a contiguous band of elements is 8× heavier, as if
/// a refinement wave had just passed through. The uniform seed partition is
/// therefore imbalanced — exactly the state the engine repartitions from.
fn fig6_quick_graph() -> Graph<'static> {
    fig6_quick_graph_with_keys().0
}

/// Same graph plus the Hilbert keys of its elements' centroids — the inputs
/// the portfolio's geometric methods consume.
fn fig6_quick_graph_with_keys() -> (Graph<'static>, Vec<u64>) {
    let (nx, ny, nz) = box_dims_for_elements(6_000);
    let mesh = box_mesh(nx, ny, nz, [0.0; 3], [1.0; 3]);
    let dual = DualGraph::build(&mesh);
    let keys = plum_mesh::sfc::element_keys(&mesh, &dual.elem_of, SfcCurve::Hilbert);
    let mut w = dual.wcomp.clone();
    let n = w.len();
    for x in w.iter_mut().take(n / 5) {
        *x *= 8;
    }
    (
        Graph::from_csr(dual.xadj.clone(), dual.adjncy.clone(), w),
        keys,
    )
}

/// The "previous" partition: computed on uniform weights, like the partition
/// the engine held before the refinement wave changed the weights.
fn seed_partition(g: &Graph, nparts: usize) -> Vec<u32> {
    let uniform = Graph::from_csr(g.xadj.to_vec(), g.adjncy.to_vec(), vec![1; g.n()]);
    partition_kway(&uniform, &PartitionConfig::new(nparts))
}

/// A non-uniform second constraint: every 29th element carries a clump of
/// 40 particles.
fn particles(n: usize) -> Vec<u64> {
    (0..n).map(|v| if v % 29 == 0 { 40 } else { 1 }).collect()
}

/// The body on its own session, one rank per part, every vertex owned by
/// the rank of its seed part — the state the engine repartitions from.
fn dist(method: BalanceMethod, problem: &Problem, owner: &[u32]) -> DistPartition {
    let p = problem.cfg.nparts;
    balance_distributed(method, problem, owner, p, MachineModel::sp2(), VERTEX_UNITS)
}

#[test]
fn exact_path_is_bit_identical_to_serial_at_all_proc_counts() {
    let g = fig6_quick_graph();
    let w2 = particles(g.n());
    for &p in &PROC_COUNTS {
        let mut cfg = PartitionConfig::new(p);
        // Stop coarsening immediately: the coarsest graph is the input graph,
        // so the distributed kernel must reproduce the serial kernel exactly.
        cfg.coarsen_to = g.n();
        let prev = seed_partition(&g, p);
        let caps = vec![1.0; p];
        // Two constraints take the gather-solve path at any size.
        for (w2, cfg) in [(None, cfg), (Some(&w2[..]), PartitionConfig::new(p))] {
            let problem = Problem::new(&g, w2, None, Some(&prev), &caps, &cfg);
            let serial = balance(BalanceMethod::Multilevel, &problem);
            let dist = dist(BalanceMethod::Multilevel, &problem, &prev);
            let dual = w2.is_some();
            assert_eq!(
                dist.part, serial,
                "P={p} dual={dual}: exact path diverged from serial"
            );
            assert!(
                dist.makespan > 0.0,
                "P={p} dual={dual}: partitioning took no time"
            );
        }
    }
}

#[test]
fn multilevel_cut_and_balance_track_the_serial_reference() {
    let g = fig6_quick_graph();
    for &p in &PROC_COUNTS {
        let cfg = PartitionConfig::new(p);
        let prev = seed_partition(&g, p);
        let caps = vec![1.0; p];
        let problem = Problem::new(&g, None, None, Some(&prev), &caps, &cfg);
        let serial = balance(BalanceMethod::Multilevel, &problem);
        let dist = dist(BalanceMethod::Multilevel, &problem, &prev);
        let qs = quality(&g, &serial, p);
        let qd = quality(&g, &dist.part, p);
        eprintln!(
            "P={p}: serial cut {} imb {:.4} | distributed cut {} imb {:.4}",
            qs.cut, qs.imbalance, qd.cut, qd.imbalance
        );
        assert!(
            qd.cut as f64 <= qs.cut as f64 * 1.10,
            "P={p}: distributed cut {} exceeds serial {} by more than 10%",
            qd.cut,
            qs.cut
        );
        assert!(
            qd.imbalance <= qs.imbalance.max(cfg.imbalance_tol) + 0.05,
            "P={p}: distributed imbalance {:.4} vs serial {:.4} (tol {})",
            qd.imbalance,
            qs.imbalance,
            cfg.imbalance_tol
        );
    }
}

/// A seeded hierarchy that stalls above the coarsening target (forced here
/// with `coarsen_to = 1`, which no matching reaches) skips the rank-0 solve
/// and diffuses its coarse seed in parallel. Held to the multilevel path's
/// bounds against the serial kernel, under uniform and skewed capacities.
#[test]
fn stalled_seeded_path_tracks_the_serial_reference() {
    let g = fig6_quick_graph();
    for p in [8, 64] {
        let mut cfg = PartitionConfig::new(p);
        cfg.coarsen_to = 1;
        let prev = seed_partition(&g, p);
        let skewed: Vec<f64> = (0..p).map(|r| if r < 2 { 2.0 } else { 1.0 }).collect();
        for caps in [vec![1.0; p], skewed] {
            let what = format!("P={p} skewed={}", caps[0] != 1.0);
            let problem = Problem::new(&g, None, None, Some(&prev), &caps, &cfg);
            let census = stage_census(&problem, &prev, p);
            let sizes: Vec<usize> = census.iter().map(|level| level.n).collect();
            let stalled = *sizes.last().unwrap() > cfg.coarsen_target();
            assert!(stalled, "{what}: hierarchy {sizes:?} reached the target");
            let serial = balance(BalanceMethod::Multilevel, &problem);
            let dist = dist(BalanceMethod::Multilevel, &problem, &prev);
            let cut = |part: &[u32]| quality(&g, part, p).cut;
            let imb = |part: &[u32]| imbalance_weighted(&weights_of(&g.vwgt, part, p), &caps);
            let (cs, cd) = (cut(&serial), cut(&dist.part));
            let (is, id) = (imb(&serial), imb(&dist.part));
            eprintln!(
                "{what}: hierarchy {sizes:?}: serial cut {cs} imb {is:.4} | distributed cut {cd} imb {id:.4}"
            );
            assert!(
                cd as f64 <= cs as f64 * 1.10,
                "{what}: distributed cut {cd} exceeds serial {cs} by more than 10%"
            );
            assert!(
                id <= is.max(cfg.imbalance_tol) + 0.05,
                "{what}: distributed imbalance {id:.4} vs serial {is:.4}"
            );
        }
    }
}

/// Under the default target a seeded hierarchy can stop just above it:
/// coarsening ends at the first contraction that would keep more than
/// three quarters of its level, and here that leaves 16 to 20 coarse
/// vertices per part (P = 128: 2 560 against a target of 2 048; P = 160:
/// 2 630 against 2 560). The coarse seed is diffused in parallel at that
/// density, with no rank-0 solve, and held to the multilevel path's bounds
/// against the serial kernel.
#[test]
fn seeded_hierarchy_stopping_near_the_target_tracks_the_serial_reference() {
    let g = fig6_quick_graph();
    for p in [128, 160] {
        let cfg = PartitionConfig::new(p);
        let prev = seed_partition(&g, p);
        let caps = vec![1.0; p];
        let problem = Problem::new(&g, None, None, Some(&prev), &caps, &cfg);
        let census = stage_census(&problem, &prev, p);
        let sizes: Vec<usize> = census.iter().map(|level| level.n).collect();
        let (last, target) = (*sizes.last().unwrap(), cfg.coarsen_target());
        assert!(
            last > target && 2 * last <= 3 * target,
            "P={p}: hierarchy {sizes:?} did not stop within half a target above {target}"
        );
        let serial = balance(BalanceMethod::Multilevel, &problem);
        let dist = dist(BalanceMethod::Multilevel, &problem, &prev);
        let qs = quality(&g, &serial, p);
        let qd = quality(&g, &dist.part, p);
        eprintln!(
            "P={p}: hierarchy {sizes:?}: serial cut {} imb {:.4} | distributed cut {} imb {:.4}",
            qs.cut, qs.imbalance, qd.cut, qd.imbalance
        );
        assert!(
            qd.cut as f64 <= qs.cut as f64 * 1.10,
            "P={p}: distributed cut {} exceeds serial {} by more than 10%",
            qd.cut,
            qs.cut
        );
        assert!(
            qd.imbalance <= qs.imbalance.max(cfg.imbalance_tol) + 0.05,
            "P={p}: distributed imbalance {:.4} vs serial {:.4}",
            qd.imbalance,
            qs.imbalance
        );
    }
}

#[test]
fn multilevel_result_is_deterministic_and_machine_independent() {
    let g = fig6_quick_graph();
    let p = 8;
    let cfg = PartitionConfig::new(p);
    let prev = seed_partition(&g, p);
    let caps = vec![1.0; p];
    let problem = Problem::new(&g, None, None, Some(&prev), &caps, &cfg);
    let a = dist(BalanceMethod::Multilevel, &problem, &prev);
    // Different machine model, different compute charge: same partition.
    let zero = MachineModel::zero();
    let b = balance_distributed(BalanceMethod::Multilevel, &problem, &prev, p, zero, 0.0);
    assert_eq!(a.part, b.part, "partition depends on the machine model");
    assert!(a.makespan > b.makespan, "sp2 run should cost virtual time");
}

#[test]
fn weighted_capacities_shift_load_and_respect_ceilings() {
    let g = fig6_quick_graph();
    let p = 8;
    let cfg = PartitionConfig::new(p);
    let prev = seed_partition(&g, p);
    // Two double-capacity processors, as after a chaos slowdown elsewhere.
    let caps: Vec<f64> = (0..p).map(|r| if r < 2 { 2.0 } else { 1.0 }).collect();
    let problem = Problem::new(&g, None, None, Some(&prev), &caps, &cfg);
    let dist = dist(BalanceMethod::Multilevel, &problem, &prev);
    assert_eq!(dist.part.len(), g.n(), "every vertex assigned exactly once");
    assert!(dist.part.iter().all(|&q| (q as usize) < p));
    let w = weights_of(&g.vwgt, &dist.part, p);
    let imb = imbalance_weighted(&w, &caps);
    assert!(
        imb <= cfg.imbalance_tol * 1.10 + 0.02,
        "capacity-weighted imbalance {imb:.4} exceeds the kernel's ceiling"
    );
    // The double-capacity parts must actually carry more than a fair
    // uniform share between them.
    let heavy: u64 = w[..2].iter().sum();
    let total: u64 = w.iter().sum();
    assert!(
        heavy as f64 > total as f64 * 2.0 / p as f64,
        "2x-capacity parts hold {heavy} of {total}: no load shifted"
    );
}

// ---------------------------------------------------------------------------
// Serial-kernel battery: the geometric, packing and diffusive methods (SFC
// diffusion's distributed body, the rest run on rank 0) against their serial
// kernels — serial ≡ SPMD at every P, under one
// and two constraints, seeded and fresh; machine-model invariance.
// ---------------------------------------------------------------------------

fn bodies_match_serial_at_all_proc_counts(methods: &[BalanceMethod]) {
    use BalanceMethod::*;
    let (g, keys) = fig6_quick_graph_with_keys();
    let w2 = particles(g.n());
    for &p in &PROC_COUNTS {
        let prev = seed_partition(&g, p);
        let caps = vec![1.0; p];
        let cfg = PartitionConfig::new(p);
        for &method in methods {
            for w2 in [None, Some(&w2[..])] {
                for seed in [Some(&prev[..]), None] {
                    if method.needs_seed() && seed.is_none() {
                        continue;
                    }
                    let what = format!(
                        "P={p}: {} dual={} seeded={}",
                        method.name(),
                        w2.is_some(),
                        seed.is_some()
                    );
                    let problem = Problem::new(&g, w2, Some(&keys), seed, &caps, &cfg);
                    let serial = balance(method, &problem);
                    let dist = dist(method, &problem, &prev);
                    assert_eq!(dist.part, serial, "{what}: body diverged from serial");
                    assert!(dist.makespan > 0.0, "{what}: partitioning took no time");
                    // Machine-model invariance: the zero model changes only
                    // the clock.
                    let zero = MachineModel::zero();
                    let zero = balance_distributed(method, &problem, &prev, p, zero, 0.0);
                    assert_eq!(zero.part, serial, "{what}: depends on the model");
                    assert!(dist.makespan > zero.makespan, "{what}: sp2 must cost time");
                    // A balancer that diffuses from its seed must not worsen
                    // the seeded hotspot.
                    let diffusive = matches!(method, SfcDiffusion | Diffusion2 | Voronoi);
                    if diffusive && seed.is_some() {
                        let before = problem.weights().imbalance(&prev, p, &caps);
                        let after = problem.weights().imbalance(&serial, p, &caps);
                        assert!(
                            after <= before + 1e-9,
                            "{what}: worsened imbalance {before:.4} -> {after:.4}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn portfolio_distributed_kernels_match_serial_at_all_proc_counts() {
    use BalanceMethod::{Knapsack, Sfc, SfcDiffusion};
    bodies_match_serial_at_all_proc_counts(&[Sfc, SfcDiffusion, Knapsack]);
}

#[test]
fn diffusion2_distributed_matches_serial_at_all_proc_counts() {
    bodies_match_serial_at_all_proc_counts(&[BalanceMethod::Diffusion2]);
}

#[test]
fn voronoi_distributed_matches_serial_at_all_proc_counts() {
    bodies_match_serial_at_all_proc_counts(&[BalanceMethod::Voronoi]);
}

#[test]
fn sfc_split_respects_capacity_shares_on_fig6() {
    let (g, keys) = fig6_quick_graph_with_keys();
    let total: u64 = g.vwgt.iter().sum();
    let maxv = *g.vwgt.iter().max().unwrap();
    for &p in &PROC_COUNTS {
        let caps: Vec<f64> = (0..p).map(|r| if r == 0 { 2.0 } else { 1.0 }).collect();
        let cfg = PartitionConfig::new(p);
        let problem = Problem::new(&g, None, Some(&keys), None, &caps, &cfg);
        let part = balance(BalanceMethod::Sfc, &problem);
        let w = weights_of(&g.vwgt, &part, p);
        let csum: f64 = caps.iter().sum();
        for q in 0..p {
            let share = total as f64 * caps[q] / csum;
            assert!(
                w[q] as f64 <= share + maxv as f64 + 1e-6,
                "P={p}: part {q} weighs {} > share {share} + {maxv}",
                w[q]
            );
        }
    }
}

/// Trace invariants of every SPMD body at P = 64, under one and two
/// constraints: the protocol checker finds nothing, and every rank's
/// virtual time is fully accounted by the partition phase breakdown to 1e-9
/// relative.
#[test]
fn rematch_bodies_are_protocol_clean_and_account_to_1e9_at_p64() {
    let (g, keys) = fig6_quick_graph_with_keys();
    let w2 = particles(g.n());
    let p = 64;
    let prev = seed_partition(&g, p);
    let caps = vec![1.0; p];
    let cfg = PartitionConfig::new(p);
    for method in BalanceMethod::ALL {
        for w2 in [None, Some(&w2[..])] {
            let name = format!("{} dual={}", method.name(), w2.is_some());
            let problem = Problem::new(&g, w2, Some(&keys), Some(&prev), &caps, &cfg);
            let dist = dist(method, &problem, &prev);
            let makespan = dist.trace.audit().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!((makespan - dist.makespan).abs() <= 1e-9 * makespan.max(1.0));
            let summary = dist.trace.summary();
            // Real traffic flowed: the item exchange and the weight
            // allreduce are actual messages, not injected time.
            assert!(summary.total_msgs() > 0, "{name}: no messages at P=64");
            assert!(summary.total_words() > 0, "{name}: no words at P=64");
        }
    }
}

/// Acceptance criterion: on the fig6 quick graph at P = 64, SFC boundary
/// diffusion's measured partition makespan undercuts the multilevel
/// repartitioner's by at least 5× — the portfolio's mild-cycle saving.
#[test]
fn diffusion_makespan_undercuts_multilevel_5x_at_p64() {
    let (g, keys) = fig6_quick_graph_with_keys();
    let p = 64;
    let cfg = PartitionConfig::new(p);
    let prev = seed_partition(&g, p);
    let caps = vec![1.0; p];
    let problem = Problem::new(&g, None, Some(&keys), Some(&prev), &caps, &cfg);
    let ml = dist(BalanceMethod::Multilevel, &problem, &prev);
    let diff = dist(BalanceMethod::SfcDiffusion, &problem, &prev);
    eprintln!(
        "P=64 makespans: multilevel {:.6}s, diffusion {:.6}s",
        ml.makespan, diff.makespan
    );
    assert!(
        diff.makespan * 5.0 <= ml.makespan,
        "diffusion {:.6}s not ≥5× under multilevel {:.6}s",
        diff.makespan,
        ml.makespan
    );
}
