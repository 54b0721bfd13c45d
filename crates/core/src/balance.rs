//! The load balancer: evaluation, repartitioning, processor reassignment,
//! and the gain/cost acceptance decision (the LOAD BALANCER box of Fig. 1).

use plum_mesh::DualGraph;
pub use plum_partition::BalanceMethod;
use plum_partition::{imbalance, imbalance_weighted, weights_of, Graph, Problem, Weights};
use plum_reassign::{
    greedy_mwbg, optimal_bmcm, optimal_mwbg, remap_stats, Assignment, RemapStats, SimilarityMatrix,
};

use crate::config::{Mapper, PlumConfig};
use crate::timing::WorkModel;

/// Everything the load balancer decided in one invocation. Its phases'
/// seconds are in the cycle's [`crate::PhaseTimes`].
#[derive(Debug, Clone)]
pub struct BalanceDecision {
    /// Whether the evaluation step judged the mesh unbalanced enough to
    /// repartition at all.
    pub repartitioned: bool,
    /// Whether the new mapping passed the gain/cost test.
    pub accepted: bool,
    /// Per-dual-vertex processor assignment to use from now on (equals the
    /// old one when not accepted).
    pub new_proc: Vec<u32>,
    /// Imbalance (max/avg of `W_comp`) under the old assignment.
    pub imbalance_old: f64,
    /// Imbalance under the proposed assignment.
    pub imbalance_new: f64,
    /// Second-constraint (e.g. particle) imbalance under the old
    /// assignment, when the balancer ran with a second weight vector.
    pub imbalance_old2: Option<f64>,
    /// Second-constraint imbalance under the adopted assignment.
    pub imbalance_new2: Option<f64>,
    /// Max per-processor `W_comp` before/after (Fig. 8's ratio).
    pub wmax_old: u64,
    pub wmax_new: u64,
    /// Which portfolio method repartitioned (`None` when the balancer
    /// short-circuited without repartitioning).
    pub method: Option<BalanceMethod>,
    /// Movement statistics of the proposed mapping.
    pub stats: Option<RemapStats>,
    /// Computational gain and redistribution cost compared by the
    /// acceptance test.
    pub gain: f64,
    pub cost: f64,
}

/// True when every capacity equals the first — the homogeneous machine, for
/// which the balancer must take the historical integer path bit-exactly.
fn caps_uniform(caps: &[f64]) -> bool {
    caps.iter().all(|&c| c == caps[0])
}

/// Per-processor weights `w` as the processors carry them: the imbalance
/// and the maximum of the *effective* weights `round(w_r / c_r)`. With
/// capacities normalized to mean 1.0 these stay on the same scale as the
/// raw weights, so the gain/cost model applies unchanged. A homogeneous
/// machine takes the raw integer path, bit-identical to the
/// capacity-unaware balancer.
fn effective_load(w: &[u64], caps: &[f64]) -> (f64, u64) {
    let (imb, wmax) = if caps_uniform(caps) {
        (imbalance(w), w.iter().copied().max())
    } else {
        let eff = w
            .iter()
            .zip(caps)
            .map(|(&w, &c)| (w as f64 / c).round() as u64);
        (imbalance_weighted(w, caps), eff.max())
    };
    (imb, wmax.expect("at least one processor"))
}

/// Run the paper's reassignment for the configured mapper.
pub fn run_mapper(sm: &SimilarityMatrix, mapper: Mapper) -> Assignment {
    match mapper {
        Mapper::GreedyMwbg => greedy_mwbg(sm),
        Mapper::OptimalMwbg => optimal_mwbg(sm),
        Mapper::OptimalBmcm => optimal_bmcm(sm, 1.0, 1.0),
    }
}

/// The evaluation step of the load balancer: measure the current balance
/// and decide whether to repartition at all. Returns the partially filled
/// decision, `repartitioned` when the trigger fired (the caller then runs a
/// repartitioner — serial on the test-only oracle path, distributed on the
/// engine path).
///
/// `caps` holds one relative processor capacity per rank (observed solver
/// rates, mean 1.0). On a homogeneous machine (`caps` uniform) the whole
/// path is bit-identical to the capacity-unaware balancer; otherwise the
/// imbalance is measured as `max(w_r/c_r)/(Σw/Σc)`, the partitioner targets
/// per-part loads proportional to capacity, and the decision's `wmax_*` /
/// `imbalance_*` fields report *effective* (capacity-scaled) weights.
pub(crate) fn evaluate_balance(
    dual: &DualGraph,
    old_proc: &[u32],
    cfg: &PlumConfig,
    caps: &[f64],
    w2: Option<&[u64]>,
) -> BalanceDecision {
    let nproc = cfg.nproc;
    assert_eq!(caps.len(), nproc, "one capacity per processor");
    let (imb_old, wmax_old) = effective_load(&weights_of(&dual.wcomp, old_proc, nproc), caps);
    // Second constraint: its own max/avg imbalance under the same caps.
    let imb_old2 = w2.map(|w2| effective_load(&weights_of(w2, old_proc, nproc), caps).0);

    let mut decision = BalanceDecision {
        repartitioned: false,
        accepted: false,
        new_proc: old_proc.to_vec(),
        imbalance_old: imb_old,
        imbalance_new: imb_old,
        imbalance_old2: imb_old2,
        imbalance_new2: imb_old2,
        wmax_old,
        wmax_new: wmax_old,
        method: None,
        stats: None,
        gain: 0.0,
        cost: 0.0,
    };

    // Evaluation step: keep the current partitions if they remain adequately
    // balanced. Under two constraints the trigger fires on the binding one —
    // a perfectly count-balanced mesh whose particles are piled on one rank
    // still repartitions.
    let imb_binding = imb_old2.map_or(imb_old, |i2| imb_old.max(i2));
    decision.repartitioned = !(imb_binding <= cfg.imbalance_trigger || nproc == 1);
    decision
}

/// Per-cycle portfolio selection, shared verbatim by the serial reference
/// path and the engine (all inputs are replicated, so both land on the same
/// method). Three rules, in order:
///
/// 1. **Forced:** `cfg.force_method` pins the choice, degrading to the
///    nearest runnable method when the pinned one needs keys or a seed that
///    is absent.
/// 2. **Mild:** SFC keys present, previous partition seedable, and the
///    effective imbalance ≤ `cfg.sfc_threshold` — transport the parts'
///    excess from the seed instead of repartitioning
///    ([`BalanceMethod::SfcDiffusion`]).
///    Under two constraints the *binding* one (whichever is further from
///    balance) is measured.
/// 3. **Otherwise** the multilevel kernel, [`BalanceMethod::Multilevel`]
///    (seeded from the previous partition when there is one).
///
/// No cost is scored here: the balancer's one cost decision is the
/// gain/cost acceptance test run on the repartition's actual result.
pub fn select_method(
    w: Weights,
    old_proc: &[u32],
    cfg: &PlumConfig,
    caps: &[f64],
    has_keys: bool,
    seeded: bool,
) -> BalanceMethod {
    if let Some(forced) = cfg.force_method {
        let runnable = (has_keys || !forced.needs_keys()) && (seeded || !forced.needs_seed());
        return match forced {
            m if runnable => m,
            BalanceMethod::SfcDiffusion if has_keys => BalanceMethod::Sfc,
            _ => BalanceMethod::Multilevel,
        };
    }
    if !(has_keys && seeded) {
        return BalanceMethod::Multilevel;
    }
    let imb_of = |vwgt: &[u64]| effective_load(&weights_of(vwgt, old_proc, cfg.nproc), caps).0;
    let imb1 = imb_of(w.w1());
    let binding = w.w2().map_or(imb1, |w2| imb1.max(imb_of(w2)));
    if binding <= cfg.sfc_threshold {
        BalanceMethod::SfcDiffusion
    } else {
        BalanceMethod::Multilevel
    }
}

/// Pose the cycle's balancing problem and pick its method — the one
/// preamble the serial reference and the engine's distributed kernel share,
/// so both run the same method on the same problem. The previous assignment
/// seeds the diffusion only under F = 1 (partition ids == processor ids),
/// and heterogeneous capacities apply only in that same regime — partition
/// j must be sized for processor j, which F > 1 breaks, so the
/// capacity-aware path degrades to uniform there.
pub(crate) fn with_problem<R>(
    dual: &DualGraph,
    old_proc: &[u32],
    cfg: &PlumConfig,
    caps: &[f64],
    keys: Option<&[u64]>,
    w2: Option<&[u64]>,
    run: impl FnOnce(BalanceMethod, &Problem) -> R,
) -> R {
    let mut pcfg = cfg.partition;
    pcfg.nparts = cfg.nparts();
    let seeded = cfg.partitions_per_proc == 1;
    let part_caps = if seeded && !caps_uniform(caps) {
        caps.to_vec()
    } else {
        vec![1.0; cfg.nparts()]
    };
    let graph = Graph::view(&dual.xadj, &dual.adjncy, &dual.wcomp);
    let seed = seeded.then_some(old_proc);
    let problem = Problem::new(&graph, w2, keys, seed, &part_caps, &pcfg);
    let method = select_method(
        problem.weights(),
        old_proc,
        cfg,
        caps,
        keys.is_some(),
        seeded,
    );
    run(method, &problem)
}

/// Whether the partition→processor mapping is pinned to the identity
/// instead of taken from the mapper. When the repartitioner sized partition
/// j for processor j's capacity (the seeded heterogeneous regime of
/// [`with_problem`]), the processors are no longer interchangeable:
/// permuting a full-size part onto a slow processor undoes the
/// capacity-aware sizing no matter how much data movement it saves. The
/// similarity-matrix mapping is an optimization among equals, so it applies
/// only on homogeneous machines (or under F > 1). The reassignment host
/// decides this before it scatters the answer the ranks route their trees
/// by; [`apply_reassignment`] checks the answer obeyed it.
pub(crate) fn identity_pinned(cfg: &PlumConfig, caps: &[f64]) -> bool {
    cfg.partitions_per_proc == 1 && !caps_uniform(caps)
}

/// Stage 2 of the load balancer (host side): given the reassignment
/// protocol's outputs, compose the dual vertex → partition → processor
/// assignment and run the gain/cost acceptance test, priced by `work` on
/// `cfg.machine` — the constants the cycle's clock charges.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_reassignment(
    decision: &mut BalanceDecision,
    dual: &DualGraph,
    old_proc: &[u32],
    refine_work: &[u64],
    cfg: &PlumConfig,
    work: &WorkModel,
    new_part: &[u32],
    sm: &SimilarityMatrix,
    assignment: &Assignment,
    caps: &[f64],
    w2: Option<&[u64]>,
) {
    let nproc = cfg.nproc;
    // The ranks already hold their share of `assignment`, so the pin must
    // have been applied before it was scattered, not here.
    assert!(
        !identity_pinned(cfg, caps) || *assignment == Assignment::identity(nproc, 1),
        "a capacity-sized partition was mapped off its own processor"
    );

    // Compose: dual vertex → new partition → processor.
    let new_proc: Vec<u32> = new_part
        .iter()
        .map(|&j| assignment.proc_of_part[j as usize])
        .collect();

    (decision.imbalance_new, decision.wmax_new) =
        effective_load(&weights_of(&dual.wcomp, &new_proc, nproc), caps);
    decision.imbalance_new2 =
        w2.map(|w2| effective_load(&weights_of(w2, &new_proc, nproc), caps).0);

    let stats = remap_stats(sm, assignment);

    // Gain/cost acceptance test. On a heterogeneous machine the refinement
    // term also stretches with processor speed, so it uses effective
    // weights too. The remap is a parallel direct exchange that ends when
    // its busiest rank does, so the cost charges the bottleneck flow (the
    // paper's MaxV `C_max`, `N_max`), not the machine-wide sum.
    let rmax_of = |proc: &[u32]| effective_load(&weights_of(refine_work, proc, nproc), caps).1;
    let (rmax_old, rmax_new) = (rmax_of(old_proc), rmax_of(&new_proc));
    decision.gain = work.gain(decision.wmax_old, decision.wmax_new, rmax_old, rmax_new);
    decision.cost = work.remap_cost(&cfg.machine, stats.max_elems, stats.max_msgs);
    decision.accepted = decision.gain > decision.cost;
    decision.stats = Some(stats);
    if decision.accepted {
        decision.new_proc = new_proc;
    } else {
        // "Otherwise, the new partitioning is discarded."
        decision.imbalance_new = decision.imbalance_old;
        decision.imbalance_new2 = decision.imbalance_old2;
        decision.wmax_new = decision.wmax_old;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::balance_step;
    use plum_mesh::generate::unit_box_mesh;
    use plum_parsim::{ChaosRng, MachineModel};
    use plum_partition::{balance, partition_kway};

    fn dual_with_hotspot(n: usize, factor: u64) -> (DualGraph, Vec<u32>) {
        let mesh = unit_box_mesh(n);
        let mut dual = DualGraph::build(&mesh);
        // Initial partition: balanced (unit weights).
        let graph = Graph::from_csr(dual.xadj.clone(), dual.adjncy.clone(), dual.wcomp.clone());
        let part = partition_kway(&graph, &plum_partition::PartitionConfig::new(4));
        // Refinement hits part 0's region.
        for v in 0..dual.n() {
            if part[v] == 0 {
                dual.wcomp[v] *= factor;
                dual.wremap[v] = dual.wcomp[v] + 1;
            }
        }
        (dual, part)
    }

    #[test]
    fn balanced_input_short_circuits() {
        let mesh = unit_box_mesh(3);
        let dual = DualGraph::build(&mesh);
        let graph = Graph::from_csr(dual.xadj.clone(), dual.adjncy.clone(), dual.wcomp.clone());
        let part = partition_kway(&graph, &plum_partition::PartitionConfig::new(4));
        let cfg = PlumConfig::new(4);
        let (d, _) = balance_step(
            &dual,
            &part,
            &vec![0; dual.n()],
            &cfg,
            &WorkModel::default(),
            None,
            None,
        );
        assert!(!d.repartitioned, "balanced mesh must not repartition");
        assert!(!d.accepted);
        assert_eq!(d.new_proc, part);
    }

    #[test]
    fn hotspot_triggers_accepted_rebalance() {
        let (dual, part) = dual_with_hotspot(4, 8);
        let cfg = PlumConfig::new(4);
        let refine_work: Vec<u64> = dual.wcomp.iter().map(|&w| w - 1).collect();
        let (d, _) = balance_step(
            &dual,
            &part,
            &refine_work,
            &cfg,
            &WorkModel::default(),
            None,
            None,
        );
        assert!(d.repartitioned);
        assert!(d.accepted, "large imbalance must be worth fixing: {d:?}");
        assert!(d.imbalance_new < d.imbalance_old);
        assert!(d.wmax_new < d.wmax_old);
        assert!(d.gain > d.cost);
        assert!(d.stats.as_ref().unwrap().total_elems > 0);
        // The new assignment is a valid processor labelling.
        assert!(d.new_proc.iter().all(|&p| (p as usize) < 4));
    }

    /// The acceptance test prices with the constants the cycle's clock
    /// charges: its gain is `N_adapt` solver iterations of the busiest
    /// rank's load reduction plus `t_child` per new element the busiest
    /// refiner sheds, both read from the `WorkModel`, and its cost is the
    /// remap on `cfg.machine`.
    #[test]
    fn the_acceptance_test_prices_the_machine_the_cycle_runs_on() {
        let (dual, part) = dual_with_hotspot(4, 8);
        let refine_work: Vec<u64> = dual.wcomp.iter().map(|&w| w - 1).collect();
        let run = |cfg: &PlumConfig, work: &WorkModel| {
            balance_step(&dual, &part, &refine_work, cfg, work, None, None).0
        };
        let mut cfg = PlumConfig::new(4);
        let mut work = WorkModel::default();
        let d = run(&cfg, &work);
        assert!(d.accepted, "{d:?}");
        let rmax = |proc: &[u32]| *weights_of(&refine_work, proc, 4).iter().max().unwrap();
        let (dw, dr) = (
            (d.wmax_old - d.wmax_new) as f64,
            (rmax(&part) - rmax(&d.new_proc)) as f64,
        );
        assert!(dw > 0.0 && dr > 0.0, "{d:?}");
        let solver = work.n_adapt as f64 * work.solver_compute_units_time(dw);
        assert_eq!(d.gain, solver + work.t_child * dr);
        let s = d.stats.as_ref().expect("the hotspot repartitions");
        assert_eq!(
            d.cost,
            work.remap_cost(&cfg.machine, s.max_elems, s.max_msgs)
        );

        // A twice-as-slow solver doubles the solver term; the proposal does
        // not move.
        work.t_edge_visit *= 2.0;
        let slow = run(&cfg, &work);
        assert_eq!(slow.new_proc, d.new_proc);
        let slow_solver = slow.gain - work.t_child * dr;
        assert!(
            (slow_solver - 2.0 * solver).abs() <= 1e-12 * solver,
            "{slow:?}"
        );

        // On a free machine the remap costs nothing.
        cfg.machine = MachineModel::zero();
        let free = run(&cfg, &WorkModel::default());
        assert_eq!(free.cost, 0.0);
        assert!(free.accepted);
    }

    #[test]
    fn a_remap_is_priced_by_its_busiest_rank() {
        let (dual, part) = dual_with_hotspot(4, 8);
        let cfg = PlumConfig::new(4);
        let run = |work: &WorkModel| {
            let zero = vec![0; dual.n()];
            balance_step(&dual, &part, &zero, &cfg, work, None, None).0
        };
        let mut work = WorkModel {
            t_child: 0.0,
            ..WorkModel::default()
        };
        let probe = run(&work);
        let s = probe.stats.clone().expect("the hotspot repartitions");
        let summed = work.remap_cost(&cfg.machine, s.total_elems, s.total_msgs);
        let busiest = work.remap_cost(&cfg.machine, s.max_elems, s.max_msgs);
        assert!(busiest < summed, "fixture must spread its flow: {s:?}");

        // Scale the solver so the gain lands halfway between the two prices:
        // the summed volume costs more than the gain, the busiest rank less.
        // The proposal itself does not depend on the work constants.
        work.t_edge_visit *= (busiest + summed) / 2.0 / probe.gain;
        let d = run(&work);
        assert_eq!(d.stats.as_ref(), Some(&s));
        assert!(busiest < d.gain && d.gain < summed, "{d:?}");
        assert_eq!(d.cost, busiest);
        assert!(
            d.accepted,
            "the exchange's critical path costs less than the gain"
        );
        assert!(d.imbalance_new < d.imbalance_old);
    }

    #[test]
    fn tiny_gain_is_rejected() {
        let (dual, part) = dual_with_hotspot(3, 2);
        let mut cfg = PlumConfig::new(4);
        // Make movement prohibitively expensive and the solver almost free:
        // the new partitioning must be discarded.
        let work = WorkModel {
            t_edge_visit: 1e-12,
            n_adapt: 1,
            t_child: 0.0,
            m_words: 1_000_000,
            ..WorkModel::default()
        };
        cfg.imbalance_trigger = 1.01;
        let (d, _) = balance_step(&dual, &part, &vec![0; dual.n()], &cfg, &work, None, None);
        assert!(d.repartitioned);
        assert!(
            !d.accepted,
            "gain {} should not beat cost {}",
            d.gain, d.cost
        );
        assert_eq!(
            d.new_proc, part,
            "rejected mapping must leave assignment unchanged"
        );
    }

    #[test]
    fn policy_mild_imbalance_picks_diffusion() {
        let (dual, part) = dual_with_hotspot(4, 8);
        let mut cfg = PlumConfig::new(4);
        let caps = vec![1.0; 4];
        let w = Weights::new(&dual.wcomp, None);
        // Below the (raised) SFC threshold: the mild rule fires — but only
        // when keys and a seedable previous partition are both available.
        cfg.sfc_threshold = 100.0;
        assert_eq!(
            select_method(w, &part, &cfg, &caps, true, true),
            BalanceMethod::SfcDiffusion
        );
        assert_ne!(
            select_method(w, &part, &cfg, &caps, false, true),
            BalanceMethod::SfcDiffusion,
            "no keys, no geometric method"
        );
        assert_ne!(
            select_method(w, &part, &cfg, &caps, true, false),
            BalanceMethod::SfcDiffusion,
            "no seed, no diffusion"
        );
    }

    #[test]
    fn policy_heavy_seeded_imbalance_keeps_multilevel() {
        // Far above the default threshold, the mild rule does not fire even
        // with keys and a seed: the cycle takes the seeded multilevel
        // kernel — the regime the committed fig6 baseline pins.
        let (dual, part) = dual_with_hotspot(4, 8);
        let cfg = PlumConfig::new(4);
        let caps = vec![1.0; 4];
        let w = Weights::new(&dual.wcomp, None);
        assert_eq!(
            select_method(w, &part, &cfg, &caps, true, true),
            BalanceMethod::Multilevel
        );
    }

    /// Random per-vertex weights below `2^bits`, about one in eight zero.
    fn random_weights(rng: &mut ChaosRng, n: usize, bits: u32) -> Vec<u64> {
        (0..n)
            .map(|_| match rng.next_u64() {
                x if x.is_multiple_of(8) => 0,
                x => (x >> 3) % (1 << bits),
            })
            .collect()
    }

    /// The selection rule over random inputs: unforced, `select_method`
    /// picks SFC diffusion exactly when keys and a seed are present and the
    /// binding constraint's effective imbalance is within `sfc_threshold`,
    /// and multilevel otherwise — whatever the weights, capacities or
    /// second constraint. It reads no price: the work constants are not
    /// among its inputs.
    #[test]
    fn unforced_selection_is_mild_diffusion_or_multilevel() {
        const CASES: usize = 20_000;
        let mut rng = ChaosRng::new(0x5e1ec7);
        let mut picked = [0usize; 2]; // [multilevel, sfc_diffusion]
        for case in 0..CASES {
            let nproc = 1 + (rng.next_u64() % 80) as usize;
            let n = (rng.next_u64() % 401) as usize;
            let bits = 1 + (rng.next_u64() % 30) as u32;
            let w1 = random_weights(&mut rng, n, bits);
            let w2 = (rng.next_u64().is_multiple_of(2)).then(|| random_weights(&mut rng, n, bits));
            let blocked = rng.next_u64().is_multiple_of(2);
            let old_proc: Vec<u32> = (0..n)
                .map(|v| {
                    if blocked {
                        (v * nproc / n) as u32
                    } else {
                        (rng.next_u64() % nproc as u64) as u32
                    }
                })
                .collect();
            // Uniform, or positive on `observe_capacity`'s 1e-6 grid.
            let caps: Vec<f64> = match rng.next_u64() % 2 {
                0 => vec![1.0; nproc],
                _ => (0..nproc)
                    .map(|_| (10_000 + rng.next_u64() % 3_990_001) as f64 / 1e6)
                    .collect(),
            };
            let mut cfg = PlumConfig::new(nproc);
            cfg.sfc_threshold = 0.9 + 2.5 * rng.next_f64();
            let has_keys = rng.next_u64().is_multiple_of(2);
            let seeded = rng.next_u64().is_multiple_of(2);

            let w = Weights::new(&w1, w2.as_deref());
            let binding = w.imbalance(&old_proc, nproc, &caps);
            let expect = if has_keys && seeded && binding <= cfg.sfc_threshold {
                BalanceMethod::SfcDiffusion
            } else {
                BalanceMethod::Multilevel
            };
            let got = select_method(w, &old_proc, &cfg, &caps, has_keys, seeded);
            assert_eq!(
                got, expect,
                "case {case}: P={nproc} n={n} binding={binding} threshold={} \
                 keys={has_keys} seeded={seeded}",
                cfg.sfc_threshold
            );
            picked[(got == BalanceMethod::SfcDiffusion) as usize] += 1;
        }
        assert!(
            picked.iter().all(|&k| k >= CASES / 50),
            "both outcomes must be exercised: {picked:?}"
        );
    }

    /// A zero capacity makes a loaded rank's effective weight unbounded:
    /// the cycle is far from mild, so the selector says multilevel — it
    /// must not overflow summing effective weights on the way.
    #[test]
    fn a_zero_capacity_does_not_panic_the_selector() {
        let w1 = [5, 3, 7, 2, 4, 6];
        let old_proc = [0, 0, 1, 1, 2, 2];
        let caps = [1.12, 2.0, 0.0];
        let cfg = PlumConfig::new(3);
        let w = Weights::new(&w1, None);
        for (has_keys, seeded) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(
                select_method(w, &old_proc, &cfg, &caps, has_keys, seeded),
                BalanceMethod::Multilevel,
                "keys={has_keys} seeded={seeded}"
            );
        }
    }

    #[test]
    fn forced_methods_degrade_to_runnable_ones() {
        let (dual, part) = dual_with_hotspot(4, 8);
        let mut cfg = PlumConfig::new(4);
        let caps = vec![1.0; 4];
        let w = Weights::new(&dual.wcomp, None);
        for (forced, has_keys, seeded, expect) in [
            (
                BalanceMethod::Knapsack,
                false,
                false,
                BalanceMethod::Knapsack,
            ),
            (
                BalanceMethod::SfcDiffusion,
                true,
                true,
                BalanceMethod::SfcDiffusion,
            ),
            (BalanceMethod::SfcDiffusion, true, false, BalanceMethod::Sfc),
            (
                BalanceMethod::SfcDiffusion,
                false,
                true,
                BalanceMethod::Multilevel,
            ),
            (BalanceMethod::Sfc, false, true, BalanceMethod::Multilevel),
            (BalanceMethod::Sfc, true, false, BalanceMethod::Sfc),
            (
                BalanceMethod::Diffusion2,
                true,
                true,
                BalanceMethod::Diffusion2,
            ),
            (
                BalanceMethod::Diffusion2,
                false,
                true,
                BalanceMethod::Diffusion2,
            ),
            (
                BalanceMethod::Diffusion2,
                true,
                false,
                BalanceMethod::Multilevel,
            ),
            (BalanceMethod::Voronoi, true, false, BalanceMethod::Voronoi),
            (BalanceMethod::Voronoi, true, true, BalanceMethod::Voronoi),
            (
                BalanceMethod::Voronoi,
                false,
                true,
                BalanceMethod::Multilevel,
            ),
        ] {
            cfg.force_method = Some(forced);
            assert_eq!(
                select_method(w, &part, &cfg, &caps, has_keys, seeded),
                expect,
                "force {forced:?} keys={has_keys} seeded={seeded}"
            );
        }
    }

    #[test]
    fn keyed_balance_with_forced_sfc_produces_valid_accepted_mapping() {
        let (dual, part) = dual_with_hotspot(4, 8);
        let keys: Vec<u64> = (0..dual.n() as u64).collect();
        for method in [
            BalanceMethod::Sfc,
            BalanceMethod::Knapsack,
            BalanceMethod::Diffusion2,
            BalanceMethod::Voronoi,
        ] {
            let mut cfg = PlumConfig::new(4);
            cfg.force_method = Some(method);
            let refine_work: Vec<u64> = dual.wcomp.iter().map(|&w| w - 1).collect();
            let (d, _) = balance_step(
                &dual,
                &part,
                &refine_work,
                &cfg,
                &WorkModel::default(),
                Some(&keys),
                None,
            );
            assert!(d.repartitioned);
            assert_eq!(d.method, Some(method), "{method:?}");
            assert!(d.new_proc.iter().all(|&p| (p as usize) < 4));
            assert!(
                d.imbalance_new <= d.imbalance_old + 1e-9,
                "{method:?}: {} -> {}",
                d.imbalance_old,
                d.imbalance_new
            );
        }
    }

    /// Zero-load-change fixed point: on a partition whose effective
    /// imbalance is exactly 1.0 (capacities matched to the actual part
    /// loads — the post-rebalance steady state) both new local balancers
    /// return the seed unchanged.
    #[test]
    fn new_local_balancers_are_noops_on_balanced_partition() {
        let mesh = unit_box_mesh(3);
        let dual = DualGraph::build(&mesh);
        let graph = Graph::from_csr(dual.xadj.clone(), dual.adjncy.clone(), dual.wcomp.clone());
        let part = partition_kway(&graph, &plum_partition::PartitionConfig::new(4));
        let keys: Vec<u64> = (0..dual.n() as u64).collect();
        let w = weights_of(&dual.wcomp, &part, 4);
        let caps: Vec<f64> = w.iter().map(|&x| x as f64).collect();
        let gview = Graph::view(&dual.xadj, &dual.adjncy, &dual.wcomp);
        let imb = imbalance_weighted(&w, &caps);
        assert!(
            imb <= 1.0 + 1e-12,
            "effective imbalance must be exactly 1: {imb}"
        );
        let pcfg = plum_partition::PartitionConfig::new(4);
        let problem = Problem::new(&gview, None, Some(&keys), Some(&part), &caps, &pcfg);
        for method in [BalanceMethod::Diffusion2, BalanceMethod::Voronoi] {
            assert_eq!(
                balance(method, &problem),
                part,
                "{method:?} must be a no-op on a balanced partition"
            );
        }
    }

    #[test]
    fn all_three_mappers_produce_valid_assignments() {
        let (dual, part) = dual_with_hotspot(3, 6);
        for mapper in [Mapper::GreedyMwbg, Mapper::OptimalMwbg, Mapper::OptimalBmcm] {
            let mut cfg = PlumConfig::new(4);
            cfg.mapper = mapper;
            let (d, _) = balance_step(
                &dual,
                &part,
                &vec![0; dual.n()],
                &cfg,
                &WorkModel::default(),
                None,
                None,
            );
            assert!(d.repartitioned);
            assert!(d.imbalance_new <= d.imbalance_old + 1e-9, "{mapper:?}");
        }
    }
}
