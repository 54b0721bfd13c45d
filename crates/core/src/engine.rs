//! The session cycle engine: one long-lived SPMD [`Session`] per adaption
//! cycle.
//!
//! This is the product's only cycle driver: [`Plum::adaption_cycle`] and
//! [`Plum::coarsen_cycle`] call `run_cycle` and `run_coarsen_cycle`.
//! The engine threads a single [`Session`] through solver → marking →
//! balancing → remap → subdivision, so virtual clocks flow continuously
//! from phase to phase and the cycle produces one gap-free timeline
//! ([`crate::CycleTraces::session`]). Its golden oracle — the original
//! per-phase driver, `Plum::adaption_cycle_reference`, in the test-only
//! `oracle` module — runs each parallel phase as an isolated `spmd`
//! program: fresh rank clocks and fresh channels per phase. Both drivers
//! derive their rank-local view of the mesh the same way: once per cycle,
//! when it opens, from the mesh and the assignment the cycle starts from
//! ([`CycleEngine::new`] here, a bare [`Ownership::build`] there). Nothing
//! but the mesh, the solution and the assignment survives between cycles.
//!
//! Because the machine model is time-shift invariant (message arrivals are
//! offsets from the send end, never absolute times), running a phase from
//! aligned clocks at `t > 0` reproduces the fresh-clock makespan of the
//! oracle to floating-point rounding; the integer outputs (marks,
//! assignments, migration volumes) are bit-identical. The golden tests at
//! the bottom of this file pin that equivalence at several processor counts.

use plum_adapt::{AdaptiveMesh, EdgeMarks};
use plum_parsim::{Comm, RankResult, Session, TraceLog};
use plum_partition::{balance_body, weights_of, RankLists};
use plum_solver::{edge_error_indicator, solve};

use crate::balance::{
    apply_reassignment, evaluate_balance, identity_pinned, with_problem, BalanceDecision,
};
use crate::config::RemapPolicy;
use crate::framework::{CycleReport, CycleTraces, PhaseTimes, Plum};
use crate::marking::{mark_body, merge_marks, Ownership};
use crate::migrate::{migrate_body, migration_outcome_from, MigrationOutcome};
use crate::reassign_par::{collect_reassign, reassign_body};

/// What every rank knows of the mesh while one cycle runs: a view of one
/// mesh under one assignment. A cycle builds it when it opens, for the
/// assignment it starts from, and its SPMD bodies read it; whatever runs
/// after the cycle adopts a new assignment sums host-side over
/// `proc_of_root` instead.
pub struct CycleEngine {
    /// Refinement-tree roots (dual-graph vertices) living on each rank,
    /// ascending: the lists the session's SPMD bodies work from.
    pub roots: RankLists,
    /// Element/edge ownership.
    pub own: Ownership,
}

impl CycleEngine {
    /// Derive the view of `am` under `proc_of_root`.
    pub fn new(am: &AdaptiveMesh, proc_of_root: &[u32], nproc: usize) -> Self {
        CycleEngine {
            roots: RankLists::build(proc_of_root, nproc),
            own: Ownership::build(am, proc_of_root, nproc),
        }
    }
}

/// Move each rank's step events onto the session-wide timeline and hand
/// back the rank values (in rank order).
fn absorb<T>(slog: &mut TraceLog, results: Vec<RankResult<T>>) -> Vec<T> {
    results
        .into_iter()
        .map(|mut r| {
            slog.events[r.rank].append(&mut r.events);
            r.value
        })
        .collect()
}

/// Observed per-rank solver rates and the capacity weights derived from
/// them. `per` holds each rank's solver load in element *units* (leaf count
/// weighted by the true cost multiplier under a measured-cost scenario) and
/// `rate[r] = units_r / (solver compute seconds of r)` — on a slowed rank
/// the modeled compute seconds stretch by its chaos multiplier, so the
/// observed rate drops proportionally, while an expensive-element hotspot
/// stretches seconds *and* units and cancels out (a hotspot is not a slow
/// processor). Capacities are the rates normalized to mean 1.0 and
/// quantized to 1e-6, so a homogeneous machine observes *exactly*
/// `[1.0; P]` and the balancer stays on its bit-exact unweighted path.
/// Ranks with no load (no work to observe) inherit the mean rate.
pub(crate) fn observe_capacity(
    per: &[f64],
    work: &crate::timing::WorkModel,
    profile: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let nproc = per.len();
    let mut rates: Vec<f64> = (0..nproc)
        .map(|r| {
            let secs = work.solver_compute_units_time(per[r]) * profile[r];
            if secs > 0.0 {
                per[r] / secs
            } else {
                0.0
            }
        })
        .collect();
    let observed: Vec<f64> = rates.iter().copied().filter(|&x| x > 0.0).collect();
    if observed.is_empty() {
        return (rates, vec![1.0; nproc]);
    }
    let mean = observed.iter().sum::<f64>() / observed.len() as f64;
    for x in rates.iter_mut() {
        if *x == 0.0 {
            *x = mean;
        }
    }
    let sum: f64 = rates.iter().sum();
    let caps = rates
        .iter()
        .map(|&x| ((x * nproc as f64 / sum) * 1e6).round() / 1e6)
        .collect();
    (rates, caps)
}

/// Compute units the distributed repartitioner charges per owned vertex per
/// stage, derived from the work model so the measured phase lands in the
/// same regime the old formula targeted: `t_part_vertex` covered one whole
/// level (matching + contraction + refinement), which the kernel visits in
/// roughly four charged stages.
fn partition_vertex_units(
    work: &crate::timing::WorkModel,
    machine: &plum_parsim::MachineModel,
) -> f64 {
    if machine.t_flop > 0.0 {
        work.t_part_vertex / machine.t_flop / 4.0
    } else {
        0.0
    }
}

/// One cycle in flight: the [`Session`] that carries the virtual clocks
/// through every phase, the timeline it has produced so far, the ranks'
/// view of the mesh, and what the solver phase observed. Both cycle kinds
/// open with [`Cycle::open`], rebalance with [`Cycle::balance_and_migrate`]
/// and end with [`Cycle::close`]; they differ in what happens in between.
struct Cycle {
    session: Session,
    slog: TraceLog,
    engine: CycleEngine,
    times: PhaseTimes,
    /// Per-root weights of the mesh the solver ran on.
    wcomp_now: Vec<u64>,
    wremap_now: Vec<u64>,
    rate: Vec<f64>,
    capacity: Vec<f64>,
}

impl Cycle {
    /// Advance the physical time and run the flow-solver phase: real field
    /// update; virtual time charged per rank from its load and halo size,
    /// inside the session timeline. Observes this cycle's per-rank rates
    /// and costs for the balancer.
    fn open(p: &mut Plum, dt: f64) -> Cycle {
        let nproc = p.cfg.nproc;
        p.time += dt;
        solve(&p.am.mesh, &mut p.field, &p.wave, p.time, &p.solver_cfg);
        let (wcomp_now, wremap_now) = p.am.weights();
        let engine = CycleEngine::new(&p.am, &p.proc_of_root, nproc);

        // Loads are element units: leaf counts weighted by the true cost
        // field, via the v-ordered accumulator shared with the reference
        // driver. The derived capacity weights feed the balancer (and the
        // report); the cost multiplier stretches units and seconds alike,
        // so a hotspot does not masquerade as a slow processor — only
        // genuine rank slowdowns move the capacity.
        let mult = p.true_cost();
        let units = Plum::solver_units(&wcomp_now, &p.proc_of_root, nproc, mult.as_deref());
        let (rate, capacity) = observe_capacity(&units, &p.work, &p.chaos.profile);
        let mut cycle = Cycle {
            // The (possibly) perturbed machine; `Perturbation::none` makes
            // this identical to `Session::new`.
            session: Session::with_chaos(nproc, p.cfg.machine, &p.chaos),
            slog: TraceLog {
                events: vec![Vec::new(); nproc],
            },
            engine,
            times: PhaseTimes::default(),
            wcomp_now,
            wremap_now,
            rate,
            capacity,
        };

        // Modeled phases charge host-computed seconds (`advance`), so the
        // chaos multiplier is applied here, to the compute share only — the
        // halo exchange is wire time, which slow processors do not stretch.
        let solver_secs: Vec<f64> = (0..nproc)
            .map(|r| {
                let iter = p.work.solver_compute_units_time(units[r]) * p.chaos.profile[r]
                    + p.work.solver_halo_time(
                        cycle.engine.own.shared_edges_of_rank(r as u32),
                        &p.cfg.machine,
                    );
                iter * p.work.n_adapt as f64
            })
            .collect();
        cycle.times.solver = cycle.modeled_phase("solver", &solver_secs);
        p.capacity = cycle.capacity.clone();
        p.observe_costs(mult.as_deref());
        cycle
    }

    /// Charge a modeled phase on the session timeline; returns its duration.
    fn modeled_phase(&mut self, name: &'static str, secs: &[f64]) -> f64 {
        let t0 = self.session.now();
        let results = self.session.modeled_phase(name, secs);
        absorb(&mut self.slog, results);
        self.session.now() - t0
    }

    /// Run an executed phase body on every rank, each with the cycle's
    /// view of the mesh; returns the rank values and the step's duration.
    fn run<T: Send>(
        &mut self,
        body: impl Fn(&mut Comm, &CycleEngine) -> T + Send + Sync,
    ) -> (Vec<T>, f64) {
        let t0 = self.session.now();
        let engine = &self.engine;
        let results = self
            .session
            .run(vec![(); self.slog.nranks()], |comm, ()| body(comm, engine));
        (absorb(&mut self.slog, results), self.session.now() - t0)
    }

    /// The modeled phase in which each rank creates (or removes) the
    /// `changed_per_root` elements of its own trees and sweeps the elements
    /// it held when the solver ran — "its own" under the assignment in
    /// force now, which a migration may have changed since the cycle opened.
    fn tree_work_phase(&mut self, p: &Plum, name: &'static str, changed_per_root: &[u64]) -> f64 {
        let changed = weights_of(changed_per_root, &p.proc_of_root, p.cfg.nproc);
        let sweep = weights_of(&self.wcomp_now, &p.proc_of_root, p.cfg.nproc);
        let secs: Vec<f64> = (0..p.cfg.nproc)
            .map(|r| p.work.subdivision_time(changed[r], sweep[r]) * p.chaos.profile[r])
            .collect();
        self.modeled_phase(name, &secs)
    }

    /// Subdivide the marked mesh and charge the modeled `subdivide` phase.
    fn subdivide(&mut self, p: &mut Plum, marks: &EdgeMarks, children_per_root: &[u64]) {
        p.am.refine(marks, std::slice::from_mut(&mut p.field));
        self.times.subdivide = self.tree_work_phase(p, "subdivide", children_per_root);
    }

    /// The balancer on the running session: host-side evaluation, then the
    /// selected method's distributed body and the distributed reassignment
    /// protocol as real session steps (instead of a flat modeled charge and
    /// the standalone `parallel_reassign` program), whose durations it
    /// writes to `times.partition` and `times.reassign`. Every step hands
    /// each rank only what it owns: the body returns the new parts of the
    /// rank's roots, the reassignment their new processors. Returns the
    /// decision and those per-rank processors (none when nothing was
    /// repartitioned); the full `new_part` and `new_proc` exist on the host
    /// only.
    fn balance(&mut self, p: &Plum, refine_work: &[u64]) -> (BalanceDecision, Vec<Vec<u32>>) {
        let cfg = &p.cfg;
        let w2 = p.wcomp2.as_deref();
        let mut decision = evaluate_balance(&p.dual, &p.proc_of_root, cfg, &p.capacity, w2);
        if !decision.repartitioned {
            return (decision, Vec::new());
        }

        // The repartitioner executes inside the session — virtual time comes
        // from per-rank compute charges and real message traffic. Its result
        // is deterministic in the problem (independent of the machine model
        // and any chaos perturbation), so the discrete outputs match
        // run-to-run even though the measured times vary. Method selection
        // runs host-side on replicated inputs, through the same call the
        // serial reference makes.
        let vertex_units = partition_vertex_units(&p.work, &cfg.machine);
        let keys = (!p.sfc_keys.is_empty()).then_some(&p.sfc_keys[..]);
        let (method, (parts, partition)) = with_problem(
            &p.dual,
            &p.proc_of_root,
            cfg,
            &p.capacity,
            keys,
            w2,
            |method, problem| {
                let step = self.run(|comm, engine| {
                    comm.phase("partition", |c| {
                        balance_body(method, c, problem, &engine.roots, vertex_units)
                    })
                });
                (method, step)
            },
        );
        decision.method = Some(method);
        self.times.partition = partition;
        // Host bookkeeping, not modeled traffic: the ranks' slices in root
        // order, for the host's matrix check and the acceptance test.
        let new_part = self.engine.roots.assemble(parts.iter().map(Vec::as_slice));

        // Distributed reassignment: rows, gather, host mapping, scatterv.
        let (wremap, nparts, mapper) = (&p.dual.wremap, cfg.nparts(), cfg.mapper);
        let pinned = identity_pinned(cfg, &p.capacity);
        let (values, reassign) = self.run(|comm, engine| {
            let rank = comm.rank();
            let mine = engine.roots.mine(rank);
            reassign_body(comm, wremap, mine, &parts[rank], nparts, mapper, pinned)
        });
        self.times.reassign = reassign;
        let (sm, assignment, new_procs) =
            collect_reassign(values.into_iter(), &self.engine.roots, &new_part);

        apply_reassignment(
            &mut decision,
            &p.dual,
            &p.proc_of_root,
            refine_work,
            cfg,
            &p.work,
            &new_part,
            &sm,
            &assignment,
            &p.capacity,
            w2,
        );
        (decision, new_procs)
    }

    /// Balance `p.dual` on the session; when the new mapping is accepted,
    /// run the remap phase and adopt the mapping as `proc_of_root`.
    fn balance_and_migrate(
        &mut self,
        p: &mut Plum,
        refine_work: &[u64],
    ) -> (BalanceDecision, Option<MigrationOutcome>) {
        let (decision, new_procs) = self.balance(p, refine_work);
        let migration = decision.accepted.then(|| {
            let (am, field) = (&p.am, &p.field);
            let (values, time) = self.run(|comm, engine| {
                let rank = comm.rank();
                migrate_body(comm, am, field, engine.roots.mine(rank), &new_procs[rank])
            });
            self.times.remap = time;
            let old_proc = std::mem::replace(&mut p.proc_of_root, decision.new_proc.clone());
            migration_outcome_from(values, time, &old_proc, &decision.new_proc)
        });
        (decision, migration)
    }

    /// Finish the cycle: Fig. 8 bookkeeping, trace audit, report.
    fn close(
        self,
        p: &Plum,
        marking_sweeps: usize,
        growth: f64,
        (decision, migration): (BalanceDecision, Option<MigrationOutcome>),
    ) -> CycleReport {
        // Post-adaption solver load with and without the rebalance
        // (prediction is exact, so `decision.wmax_old` is precisely the "no
        // load balancing" workload).
        let (wcomp_final, _) = p.am.weights();
        let wmax_balanced = *weights_of(&wcomp_final, &p.proc_of_root, p.cfg.nproc)
            .iter()
            .max()
            .unwrap();

        // Debug builds audit the full session timeline after every cycle
        // (SPMD discipline and phase accounting), so each engine test
        // doubles as a check of the invariants every trace reader assumes.
        #[cfg(debug_assertions)]
        if let Err(e) = self.slog.audit() {
            panic!("session trace fails its audit: {e}");
        }

        CycleReport {
            traces: CycleTraces {
                phases: self.slog.phase_breakdowns(),
                session: self.slog,
            },
            counts: p.am.mesh.counts(),
            growth,
            marking_sweeps,
            wmax_balanced,
            migration,
            decision,
            times: self.times,
            rate: self.rate,
            capacity: self.capacity,
        }
    }
}

/// Run one full Fig.-1 cycle on the session engine: one [`Session`] carries
/// the virtual clocks through every phase. Equivalent to the test-only
/// oracle's `Plum::adaption_cycle_reference` up to floating-point rounding
/// of the virtual times.
pub(crate) fn run_cycle(p: &mut Plum, refine_frac: f64, dt: f64) -> CycleReport {
    let mut cycle = Cycle::open(p, dt);

    // --- MESH ADAPTOR: edge marking (executed, with propagation) -----------
    let error = edge_error_indicator(&p.am.mesh, &p.field);
    let threshold = p.am.threshold_for_final_fraction(&error, refine_frac);
    let (values, t_mark) =
        cycle.run(|comm, engine| mark_body(comm, &p.am, &engine.own, &p.work, &error, threshold));
    cycle.times.marking = t_mark;
    let (marks, marking_sweeps, _comm_words) = merge_marks(&p.am, values);

    // --- exact prediction of the refined mesh -------------------------------
    let pred = p.am.predict(&marks);
    let children_per_root: Vec<u64> = (0..p.dual.n())
        .map(|v| pred.wremap[v] - cycle.wremap_now[v])
        .collect();

    let outcome = match p.cfg.policy {
        RemapPolicy::BeforeRefinement => {
            // Weights as though subdivision already happened — scaled by the
            // estimated per-root cost, so the partitioner balances measured
            // load; the data that moves is still the small, unrefined grid.
            p.dual.wcomp = p.cost_est.weights(&pred.wcomp);
            p.dual.wremap = cycle.wremap_now.clone();
            let outcome = cycle.balance_and_migrate(p, &children_per_root);
            // Subdivide on the (re)balanced partitions.
            cycle.subdivide(p, &marks, &children_per_root);
            outcome
        }
        RemapPolicy::AfterRefinement => {
            // Baseline: subdivide first (unbalanced), then move the grown
            // mesh.
            cycle.subdivide(p, &marks, &children_per_root);
            let (wcomp_after, wremap_after) = p.am.weights();
            p.dual.wcomp = p.cost_est.weights(&wcomp_after);
            p.dual.wremap = wremap_after;
            cycle.balance_and_migrate(p, &vec![0; p.dual.n()])
        }
    };
    cycle.close(p, marking_sweeps, pred.growth_factor, outcome)
}

/// The coarse-marking phase body, shared by the session engine and the
/// test-only oracle: one sweep over the rank's owned elements to test their
/// edges against the (replicated) coarse threshold, then one reduction to
/// agree on the global marked count. Unlike refinement marking there is no
/// propagation loop — coarse marks never force remote refinement; family
/// eligibility is resolved by the adaptor's host-side walk.
pub(crate) fn coarsen_mark_body(
    comm: &mut Comm,
    work: &crate::timing::WorkModel,
    owned_elems: u64,
    marked: u64,
) -> u64 {
    comm.phase("coarsen_mark", |c| {
        c.advance(owned_elems as f64 * work.t_mark_elem);
        c.allreduce_max_u64(marked)
    })
}

/// Run one *coarsening* cycle on the session engine: solve, mark the
/// lowest-error edges, de-refine eligible families host-side, charge the
/// modeled `coarsen` phase, then rebalance the shrunken mesh and remap —
/// all on one continuous session timeline. Equivalent to the test-only
/// oracle's `Plum::coarsen_cycle_reference` up to floating-point rounding
/// of the virtual times.
pub(crate) fn run_coarsen_cycle(p: &mut Plum, coarse_frac: f64, dt: f64) -> CycleReport {
    let nproc = p.cfg.nproc;
    let mut cycle = Cycle::open(p, dt);

    // --- COARSE MARKING (executed) -----------------------------------------
    let error = edge_error_indicator(&p.am.mesh, &p.field);
    let cmarks = crate::framework::coarse_marks(&p.am, &error, coarse_frac);
    let marked = cmarks.count() as u64;
    let elems_before = p.am.mesh.n_elems();
    let sweep = weights_of(&cycle.wcomp_now, &p.proc_of_root, nproc);
    let (_, t_mark) =
        cycle.run(|comm, _| coarsen_mark_body(comm, &p.work, sweep[comm.rank()], marked));
    cycle.times.marking = t_mark;

    // --- host-side de-refinement + modeled coarsen phase -------------------
    let _stats = p.am.coarsen(&cmarks, std::slice::from_mut(&mut p.field));
    let (wcomp_after, wremap_after) = p.am.weights();
    let removed: Vec<u64> = cycle
        .wcomp_now
        .iter()
        .zip(&wcomp_after)
        .map(|(&b, &a)| b.saturating_sub(a))
        .collect();
    cycle.times.coarsen = cycle.tree_work_phase(p, "coarsen", &removed);

    // --- rebalance the shrunken mesh, remap --------------------------------
    p.dual.wcomp = p.cost_est.weights(&wcomp_after);
    p.dual.wremap = wremap_after;
    let outcome = cycle.balance_and_migrate(p, &vec![0; p.dual.n()]);

    let growth = p.am.mesh.n_elems() as f64 / elems_before as f64;
    cycle.close(p, 1, growth, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BalanceMethod, PlumConfig};
    use plum_mesh::generate::unit_box_mesh;
    use plum_parsim::{Perturbation, TraceEvent};
    use plum_solver::{CostField, WaveField};

    const TOL: f64 = 1e-9;

    fn plum(nproc: usize, n: usize, policy: RemapPolicy) -> Plum {
        let mut cfg = PlumConfig::new(nproc);
        cfg.policy = policy;
        Plum::new(unit_box_mesh(n), WaveField::unit_box(), cfg)
    }

    /// Engine report == reference report: virtual times to fp rounding,
    /// everything discrete bit-exactly. `times.partition` is measured from
    /// the distributed kernel's session step on the engine path but modeled
    /// on the reference path, so it is compared where both paths measure
    /// it (`multilevel_engine_path_is_deterministic_and_balanced`,
    /// `explicit_zero_chaos_reproduces_golden`).
    fn assert_equivalent(e: &CycleReport, r: &CycleReport, what: &str) {
        for (name, a, b) in [
            ("solver", e.times.solver, r.times.solver),
            ("marking", e.times.marking, r.times.marking),
            ("remap", e.times.remap, r.times.remap),
            ("subdivide", e.times.subdivide, r.times.subdivide),
            ("coarsen", e.times.coarsen, r.times.coarsen),
            ("reassign", e.times.reassign, r.times.reassign),
            ("growth", e.growth, r.growth),
            (
                "imb_old",
                e.decision.imbalance_old,
                r.decision.imbalance_old,
            ),
            (
                "imb_new",
                e.decision.imbalance_new,
                r.decision.imbalance_new,
            ),
            ("gain", e.decision.gain, r.decision.gain),
            ("cost", e.decision.cost, r.decision.cost),
        ] {
            assert!(
                (a - b).abs() < TOL,
                "{what}: {name} diverged: engine {a} vs reference {b}"
            );
        }
        for (name, a, b) in [
            (
                "imb_old2",
                e.decision.imbalance_old2,
                r.decision.imbalance_old2,
            ),
            (
                "imb_new2",
                e.decision.imbalance_new2,
                r.decision.imbalance_new2,
            ),
        ] {
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => assert!(
                    (a - b).abs() < TOL,
                    "{what}: {name} diverged: engine {a} vs reference {b}"
                ),
                _ => panic!("{what}: {name} presence diverged: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(e.counts, r.counts, "{what}: mesh counts");
        assert_eq!(e.marking_sweeps, r.marking_sweeps, "{what}: sweeps");
        assert_eq!(
            e.decision.repartitioned, r.decision.repartitioned,
            "{what}: repartitioned"
        );
        assert_eq!(e.decision.accepted, r.decision.accepted, "{what}: accepted");
        assert_eq!(e.decision.new_proc, r.decision.new_proc, "{what}: new_proc");
        assert_eq!(e.decision.wmax_old, r.decision.wmax_old, "{what}: wmax_old");
        assert_eq!(e.decision.wmax_new, r.decision.wmax_new, "{what}: wmax_new");
        assert_eq!(e.wmax_balanced, r.wmax_balanced, "{what}: wmax_bal");
        assert_eq!(
            e.capacity, r.capacity,
            "{what}: observed capacity weights diverged"
        );
        assert!(
            e.capacity.iter().all(|&c| c == 1.0),
            "{what}: zero-chaos capacity must be exactly uniform: {:?}",
            e.capacity
        );
        for (a, b) in e.rate.iter().zip(&r.rate) {
            assert!(
                (a - b).abs() <= TOL * a.abs().max(1.0),
                "{what}: observed rate diverged: engine {a} vs reference {b}"
            );
        }
        assert_eq!(
            e.migration.is_some(),
            r.migration.is_some(),
            "{what}: migration presence"
        );
        if let (Some(me), Some(mr)) = (&e.migration, &r.migration) {
            assert_eq!(me.elems_moved, mr.elems_moved, "{what}: elems moved");
            assert_eq!(me.words_moved, mr.words_moved, "{what}: words moved");
            assert_eq!(me.msgs, mr.msgs, "{what}: messages");
            assert_eq!(
                me.received_per_rank, mr.received_per_rank,
                "{what}: received"
            );
        }
    }

    /// `force_exact` pins the distributed repartitioner to its exact-serial
    /// small-graph path (gather → serial kernel on rank 0 → broadcast),
    /// which is bit-identical to the reference's host-side kernel — the
    /// equivalence then covers every discrete output of the cycle. Without
    /// it the graph must fit under the default coarsening target for the
    /// same guarantee to hold (true at P = 64 below); the genuinely
    /// multilevel engine path is pinned separately by
    /// `multilevel_engine_path_is_deterministic_and_balanced` and the
    /// differential battery in `tests/partition_differential.rs`.
    fn golden(nproc: usize, n: usize, policy: RemapPolicy, force_exact: bool) {
        let mut engine = plum(nproc, n, policy);
        let mut reference = plum(nproc, n, policy);
        if force_exact {
            engine.cfg.partition.coarsen_to = engine.dual.n();
            reference.cfg.partition.coarsen_to = reference.dual.n();
        }
        for cycle in 0..2 {
            let e = engine.adaption_cycle(0.3, 0.1);
            let r = reference.adaption_cycle_reference(0.3, 0.1);
            assert_equivalent(&e, &r, &format!("P={nproc} {policy:?} cycle {cycle}"));
        }
        engine.am.validate();
    }

    #[test]
    fn golden_equivalence_uniprocessor() {
        golden(1, 3, RemapPolicy::BeforeRefinement, false);
    }

    #[test]
    fn golden_equivalence_p8_both_policies() {
        golden(8, 4, RemapPolicy::BeforeRefinement, true);
        golden(8, 4, RemapPolicy::AfterRefinement, true);
    }

    /// The cached per-phase aggregates come from one streaming pass over
    /// the session timeline; re-deriving each from its phase's own log
    /// (the slice of the steps that ran it) must agree — same event set,
    /// only the summation order may differ.
    #[test]
    fn one_pass_phase_comm_matches_per_step_traces() {
        let mut p = plum(8, 4, RemapPolicy::BeforeRefinement);
        let report = p.adaption_cycle(0.33, 0.1);
        let tr = &report.traces;

        // Modeled and executed phases alike, in timeline order.
        let names: Vec<&str> = tr.phases.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "solver",
                "marking",
                "partition",
                "reassignment",
                "remap",
                "subdivide"
            ]
        );
        for one_pass in &tr.phases {
            let name = &one_pass.name;
            let per_step = tr.session.phase_slice(name).summary();
            assert_eq!(one_pass.msgs, per_step.total_msgs(), "{name}: msgs");
            assert_eq!(one_pass.words, per_step.total_words(), "{name}: words");
            for (what, a, b) in [
                ("compute", one_pass.compute, per_step.total_compute()),
                ("wire", one_pass.wire, per_step.total_wire()),
                ("wait", one_pass.wait, per_step.total_wait()),
            ] {
                assert!(
                    (a - b).abs() < TOL,
                    "{name}: {what} diverged: one-pass {a} vs per-step {b}"
                );
            }
        }
    }

    /// A marking sweep is one exchange and nothing else: its "found a new
    /// mark" bit rides that exchange, so a P = 64 cycle's marking phase
    /// calls no `allreduce` and, on every rank, one `alltoallv` per sweep.
    #[test]
    fn a_marking_sweep_is_one_exchange() {
        use plum_parsim::CollectiveKind::{Allreduce, Alltoallv};
        let report = plum(64, 5, RemapPolicy::BeforeRefinement).adaption_cycle(0.3, 0.1);
        let sweeps = report.marking_sweeps as u64;
        assert!(sweeps >= 2, "{sweeps} sweeps: no mark crossed a rank");
        let marking = report.traces.session.phase_slice("marking").summary();
        for r in &marking.ranks {
            assert_eq!(r.collective(Allreduce).calls, 0, "rank {}", r.rank);
            assert_eq!(r.collective(Alltoallv).calls, sweeps, "rank {}", r.rank);
        }
    }

    #[test]
    fn golden_equivalence_p64() {
        // 750 dual vertices sit under the default coarsening target at
        // P = 64 (max(128, 16·64) = 1024): the engine's distributed
        // repartitioner takes the exact-serial path on its own, so this
        // golden covers the default configuration end to end.
        golden(64, 5, RemapPolicy::BeforeRefinement, false);
    }

    /// The genuinely multilevel engine path (384 dual vertices > the
    /// P = 8 coarsening target of 128): two engines produce bit-identical
    /// reports — including the measured partition times — and the adopted
    /// mapping respects the partitioner's balance guarantee.
    #[test]
    fn multilevel_engine_path_is_deterministic_and_balanced() {
        let mut a = plum(8, 4, RemapPolicy::BeforeRefinement);
        let mut b = plum(8, 4, RemapPolicy::BeforeRefinement);
        for cycle in 0..2 {
            let ra = a.adaption_cycle(0.3, 0.1);
            let rb = b.adaption_cycle(0.3, 0.1);
            assert_equivalent(&ra, &rb, &format!("multilevel determinism cycle {cycle}"));
            assert_eq!(
                ra.times.partition, rb.times.partition,
                "measured partition time must be bit-deterministic"
            );
            assert!(ra.decision.repartitioned, "cycle {cycle} must repartition");
            assert!(
                ra.times.partition > 0.0,
                "executed partitioning must take virtual time"
            );
            let partition = ra
                .traces
                .phase("partition")
                .expect("engine path must record a partition phase");
            assert!(
                partition.msgs > 0,
                "distributed partitioning must exchange real messages"
            );
            // The proposed partition obeys the serial kernels' tolerance
            // (quota refinement never exceeds the per-part ceilings).
            assert!(
                ra.decision.imbalance_new <= a.cfg.partition.imbalance_tol * 1.10 + 0.02
                    || !ra.decision.accepted,
                "cycle {cycle}: adopted imbalance {}",
                ra.decision.imbalance_new
            );
        }
        a.am.validate();
    }

    /// Every portfolio method runs the same way on both paths: forcing each
    /// geometric method produces engine ≡ reference bit-identically (the
    /// SPMD bodies return their serial kernels' exact output), and both
    /// report the forced method on repartitioning cycles.
    #[test]
    fn forced_portfolio_methods_match_reference() {
        for method in [
            BalanceMethod::Sfc,
            BalanceMethod::Knapsack,
            BalanceMethod::SfcDiffusion,
            BalanceMethod::Diffusion2,
            BalanceMethod::Voronoi,
        ] {
            let mut engine = plum(8, 4, RemapPolicy::BeforeRefinement);
            let mut reference = plum(8, 4, RemapPolicy::BeforeRefinement);
            engine.cfg.force_method = Some(method);
            reference.cfg.force_method = Some(method);
            for cycle in 0..2 {
                let e = engine.adaption_cycle(0.3, 0.1);
                let r = reference.adaption_cycle_reference(0.3, 0.1);
                assert_equivalent(&e, &r, &format!("{method:?} cycle {cycle}"));
                assert_eq!(e.decision.method, r.decision.method, "{method:?}");
                if e.decision.repartitioned {
                    assert_eq!(e.decision.method, Some(method), "cycle {cycle}");
                }
            }
            engine.am.validate();
        }
    }

    /// Golden battery for the rematch balancers at the P extremes (P = 8
    /// rides in `forced_portfolio_methods_match_reference`): engine ≡
    /// reference to 1e-9 on times, exact on counts and `BalanceDecision`,
    /// at P = 1 (degenerate single-rank path) and P = 64.
    #[test]
    fn forced_rematch_balancers_golden_p1_p64() {
        for method in [BalanceMethod::Diffusion2, BalanceMethod::Voronoi] {
            for (nproc, n) in [(1usize, 3usize), (64, 5)] {
                let mut engine = plum(nproc, n, RemapPolicy::BeforeRefinement);
                let mut reference = plum(nproc, n, RemapPolicy::BeforeRefinement);
                engine.cfg.force_method = Some(method);
                reference.cfg.force_method = Some(method);
                for cycle in 0..2 {
                    let e = engine.adaption_cycle(0.3, 0.1);
                    let r = reference.adaption_cycle_reference(0.3, 0.1);
                    assert_equivalent(&e, &r, &format!("{method:?} P={nproc} cycle {cycle}"));
                    assert_eq!(e.decision.method, r.decision.method, "{method:?} P={nproc}");
                    if nproc > 1 && e.decision.repartitioned {
                        assert_eq!(e.decision.method, Some(method), "P={nproc} cycle {cycle}");
                    }
                }
                engine.am.validate();
            }
        }
    }

    /// Acceptance criterion: on the same mesh and cycle, the measured SFC
    /// diffusion partition phase undercuts the multilevel phase by
    /// at least 5× — the saving the portfolio's mild branch banks.
    #[test]
    fn diffusion_partition_phase_is_5x_cheaper_than_multilevel() {
        let mut d = plum(8, 4, RemapPolicy::BeforeRefinement);
        d.cfg.force_method = Some(BalanceMethod::SfcDiffusion);
        let mut m = plum(8, 4, RemapPolicy::BeforeRefinement);
        m.cfg.force_method = Some(BalanceMethod::Multilevel);
        let rd = d.adaption_cycle(0.3, 0.1);
        let rm = m.adaption_cycle(0.3, 0.1);
        assert!(rd.decision.repartitioned && rm.decision.repartitioned);
        assert_eq!(rd.decision.method, Some(BalanceMethod::SfcDiffusion));
        assert_eq!(rm.decision.method, Some(BalanceMethod::Multilevel));
        assert!(
            rd.times.partition * 5.0 <= rm.times.partition,
            "diffusion {} not ≥5× under multilevel {}",
            rd.times.partition,
            rm.times.partition
        );
    }

    /// An *explicitly* zero-chaos engine — `Perturbation::none` (uniform
    /// rank profile, no jitter) — reproduces the default-constructed engine
    /// bit-exactly, measured partition times included, on the multilevel
    /// path.
    #[test]
    fn explicit_zero_chaos_reproduces_golden() {
        let mut engine = plum(8, 4, RemapPolicy::BeforeRefinement);
        engine.chaos = Perturbation::none(8);
        assert!(engine.chaos.is_none());
        let mut reference = plum(8, 4, RemapPolicy::BeforeRefinement);
        for cycle in 0..2 {
            let e = engine.adaption_cycle(0.3, 0.1);
            let r = reference.adaption_cycle(0.3, 0.1);
            assert_equivalent(&e, &r, &format!("explicit zero-chaos cycle {cycle}"));
            assert_eq!(e.times.partition, r.times.partition);
        }
    }

    /// Acceptance criterion: at P = 64 with one rank slowed 2×, the
    /// capacity-weighted balancer recovers at least 80% of the makespan gap
    /// to the capacity-ideal partition within 3 adaption cycles.
    #[test]
    fn p64_recovers_makespan_after_2x_slowdown() {
        let nproc = 64;
        let slow = 7;
        let mut p = plum(nproc, 5, RemapPolicy::BeforeRefinement);
        p.chaos = Perturbation::slowdown(nproc, slow, 2.0);

        let mut gap_before = None;
        let mut eff_after = f64::INFINITY;
        let mut rebalanced = false;
        for cycle in 0..3 {
            let report = p.adaption_cycle(0.2, 0.1);
            if cycle == 0 {
                // The observed capacity must expose the slow rank…
                assert!(
                    report.capacity[slow] < 0.6,
                    "slow rank capacity {} not observed",
                    report.capacity[slow]
                );
                // …and the capacity-weighted evaluation must see a large
                // effective imbalance on the count-balanced partition.
                assert!(
                    report.decision.imbalance_old > 1.5,
                    "weighted imbalance_old {} too small for a 2× slowdown",
                    report.decision.imbalance_old
                );
                gap_before = Some(report.decision.imbalance_old - 1.0);
            }
            rebalanced |= report.decision.accepted;
            let (wcomp, _) = p.am.weights();
            let load = weights_of(&wcomp, &p.proc_of_root, nproc);
            eff_after = report.effective_imbalance(&load);
            if eff_after - 1.0 <= 0.2 * gap_before.unwrap() {
                break;
            }
        }
        assert!(rebalanced, "the balancer never adopted a new mapping");
        let gap_before = gap_before.unwrap();
        assert!(
            eff_after - 1.0 <= 0.2 * gap_before,
            "recovered less than 80% of the makespan gap: \
             effective imbalance {eff_after} vs initial gap {gap_before}"
        );
        p.am.validate();
    }

    /// Satellite: on a heterogeneous machine the capacity pin is decided
    /// before the reassignment answer is scattered, so the ranks route
    /// their trees by the mapping the host adopts. A forced SFC repartition
    /// numbers its capacity-sized parts along the curve, not by processor,
    /// so the greedy mapper would permute them; every rank's returned
    /// processors are nevertheless `decision.new_proc` on its roots, and
    /// the full cycle's migration passes the host's routing check.
    #[test]
    fn capacity_pin_is_applied_before_the_ranks_route() {
        use crate::balance::run_mapper;
        use plum_reassign::{Assignment, SimilarityMatrix};
        let nproc = 8;
        let mk = || {
            let mut p = plum(nproc, 4, RemapPolicy::BeforeRefinement);
            p.chaos = Perturbation::slowdown(nproc, 7, 2.0);
            p.cfg.force_method = Some(BalanceMethod::Sfc);
            // A solver iteration worth far more than any movement: the
            // reshuffle is accepted.
            p.work.n_adapt = 100_000;
            p
        };

        let mut p = mk();
        let mut cycle = Cycle::open(&mut p, 0.1);
        let (decision, new_procs) = cycle.balance(&p, &vec![0; p.dual.n()]);
        assert!(identity_pinned(&p.cfg, &p.capacity));
        assert!(decision.accepted, "{decision:?}");
        // Pinned to the identity, the adopted processors are the new parts.
        let (old, new) = (&p.proc_of_root, &decision.new_proc);
        let sm = SimilarityMatrix::from_assignments(&p.dual.wremap, old, new, nproc, nproc);
        let mapped = run_mapper(&sm, p.cfg.mapper);
        assert_ne!(
            mapped,
            Assignment::identity(nproc, 1),
            "mapper is the identity"
        );
        for (r, procs) in new_procs.iter().enumerate() {
            let want: Vec<u32> = (cycle.engine.roots.mine(r).iter())
                .map(|&v| decision.new_proc[v as usize])
                .collect();
            assert_eq!(procs, &want, "rank {r}");
        }

        let mut p = mk();
        let report = p.adaption_cycle(0.3, 0.1);
        assert!(report.decision.accepted && report.migration.is_some());
        assert_eq!(p.proc_of_root, report.decision.new_proc);
    }

    #[test]
    fn session_timeline_is_continuous_and_ordered() {
        let mut p = plum(6, 4, RemapPolicy::BeforeRefinement);
        let report = p.adaption_cycle(0.33, 0.1);
        let slog = &report.traces.session;
        assert_eq!(slog.events.len(), 6);

        // Clock-continuity invariant: each rank's stream is one monotone
        // timeline — every event starts at or after the previous one ends,
        // with no per-phase reset to zero.
        for (rank, stream) in slog.events.iter().enumerate() {
            assert!(!stream.is_empty(), "rank {rank} has an empty timeline");
            let mut frontier = 0.0f64;
            for ev in stream {
                assert!(
                    ev.time() >= frontier - TOL,
                    "rank {rank}: event at {} begins before the frontier {frontier}",
                    ev.time()
                );
                assert!(
                    ev.end_time() >= ev.time() - TOL,
                    "rank {rank}: negative span"
                );
                frontier = frontier.max(ev.end_time());
            }
        }

        // Phase ordering on every rank matches the remap-before cycle.
        for stream in &slog.events {
            let phases: Vec<&str> = stream
                .iter()
                .filter_map(|ev| match ev {
                    TraceEvent::PhaseBegin { name, .. } => Some(*name),
                    _ => None,
                })
                .collect();
            assert_eq!(
                phases,
                [
                    "solver",
                    "marking",
                    "partition",
                    "reassignment",
                    "remap",
                    "subdivide"
                ],
                "phase order on the session timeline"
            );
        }

        // The reported phase times add up to the timeline (the timeline is
        // the phases, end to end).
        let total = report.times.total();
        let end = slog
            .events
            .iter()
            .flat_map(|s| s.iter())
            .map(|ev| ev.end_time())
            .fold(0.0, f64::max);
        assert!(
            (end - total).abs() < TOL,
            "timeline ends at {end}, phases sum to {total}"
        );
    }

    /// Every second of a cycle report is a session second: the phase times
    /// of a refine and of a coarsen cycle add up to the makespan their
    /// session's audit reports.
    #[test]
    fn phase_times_total_is_the_session_makespan() {
        let mut p = plum(6, 4, RemapPolicy::BeforeRefinement);
        for report in [p.adaption_cycle(0.33, 0.1), p.coarsen_cycle(0.6, 0.3)] {
            assert!(report.decision.repartitioned && report.times.reassign > 0.0);
            let makespan = report.traces.session.audit().unwrap();
            let total = report.times.total();
            assert!(
                (total - makespan).abs() <= 1e-12,
                "phase times add up to {total}, the session makespan is {makespan}"
            );
        }
    }

    /// Shock-passes-and-recedes cascade: refinement cycles grow the mesh,
    /// then coarsening cycles shrink it — engine ≡ reference throughout,
    /// coarsen phase time included.
    fn cascade_golden(nproc: usize, n: usize, force_exact: bool) {
        let mut engine = plum(nproc, n, RemapPolicy::BeforeRefinement);
        let mut reference = plum(nproc, n, RemapPolicy::BeforeRefinement);
        if force_exact {
            engine.cfg.partition.coarsen_to = engine.dual.n();
            reference.cfg.partition.coarsen_to = reference.dual.n();
        }
        for cycle in 0..2 {
            let e = engine.adaption_cycle(0.3, 0.1);
            let r = reference.adaption_cycle_reference(0.3, 0.1);
            assert_equivalent(&e, &r, &format!("cascade P={nproc} refine {cycle}"));
            assert_eq!(e.counts, engine.am.mesh.counts());
            assert_eq!(r.counts, reference.am.mesh.counts());
        }
        let mut removed_any = false;
        for cycle in 0..2 {
            let e = engine.coarsen_cycle(0.6, 0.3);
            let r = reference.coarsen_cycle_reference(0.6, 0.3);
            assert_equivalent(&e, &r, &format!("cascade P={nproc} coarsen {cycle}"));
            assert_eq!(e.counts, engine.am.mesh.counts());
            assert_eq!(r.counts, reference.am.mesh.counts());
            assert!(e.growth <= 1.0, "coarsen cycle must not grow: {}", e.growth);
            assert_eq!(e.times.subdivide, 0.0, "no subdivision in a coarsen cycle");
            removed_any |= e.growth < 1.0;
        }
        assert!(removed_any, "the cascade never de-refined anything");
        engine.am.validate();
    }

    #[test]
    fn cascade_golden_equivalence_uniprocessor() {
        cascade_golden(1, 3, false);
    }

    #[test]
    fn cascade_golden_equivalence_p8() {
        cascade_golden(8, 4, true);
    }

    #[test]
    fn cascade_golden_equivalence_p64() {
        cascade_golden(64, 5, false);
    }

    /// The coarsen cycle's session timeline opens with
    /// solver → coarsen_mark → coarsen on every rank and obeys the SPMD
    /// protocol end to end.
    #[test]
    fn coarsen_cycle_timeline_orders_phases() {
        let mut p = plum(6, 4, RemapPolicy::BeforeRefinement);
        p.adaption_cycle(0.33, 0.1);
        let report = p.coarsen_cycle(0.6, 0.3);
        for stream in &report.traces.session.events {
            let phases: Vec<&str> = stream
                .iter()
                .filter_map(|ev| match ev {
                    TraceEvent::PhaseBegin { name, .. } => Some(*name),
                    _ => None,
                })
                .collect();
            assert!(
                phases.len() >= 3 && phases[..3] == ["solver", "coarsen_mark", "coarsen"],
                "coarsen-cycle phases: {phases:?}"
            );
        }
        assert!(plum_parsim::check_protocol(&report.traces.session).is_empty());
        assert!(report.times.coarsen > 0.0, "coarsening must take time");
    }

    /// Measured-cost scenario golden: an order-of-magnitude moving hotspot
    /// rides the blade tip; engine ≡ reference, and the zero-chaos capacity
    /// stays exactly uniform (asserted inside `assert_equivalent`) because
    /// an expensive element is not a slow processor.
    fn hotspot_golden(nproc: usize, n: usize, force_exact: bool) {
        let mk = || {
            let mut p = plum(nproc, n, RemapPolicy::BeforeRefinement);
            p.cost_field = CostField::MovingHotspot {
                radius: 0.35,
                amplitude: 40.0,
            };
            p
        };
        let mut engine = mk();
        let mut reference = mk();
        if force_exact {
            engine.cfg.partition.coarsen_to = engine.dual.n();
            reference.cfg.partition.coarsen_to = reference.dual.n();
        }
        for cycle in 0..2 {
            let e = engine.adaption_cycle(0.3, 0.1);
            let r = reference.adaption_cycle_reference(0.3, 0.1);
            assert_equivalent(&e, &r, &format!("hotspot P={nproc} cycle {cycle}"));
        }
        assert!(
            !engine.cost_est.is_unit(),
            "the estimator must have observed the hotspot"
        );
        engine.am.validate();
    }

    #[test]
    fn hotspot_golden_equivalence_uniprocessor() {
        hotspot_golden(1, 3, false);
    }

    #[test]
    fn hotspot_golden_equivalence_p8() {
        hotspot_golden(8, 4, true);
    }

    #[test]
    fn hotspot_golden_equivalence_p64() {
        hotspot_golden(64, 5, false);
    }

    /// Dual-constraint scenario golden: a second weight vector (a particle
    /// band near the x = 0 face) rides every cycle. The dual repartition
    /// body is exact-serial at any P, so no force-exact switch is needed.
    fn dual_golden(nproc: usize, n: usize) {
        let mk = || {
            let mut p = plum(nproc, n, RemapPolicy::BeforeRefinement);
            let w2: Vec<u64> = p
                .root_centroid
                .iter()
                .map(|c| if c[0] < 0.3 { 200 } else { 1 })
                .collect();
            p.wcomp2 = Some(w2);
            p
        };
        let mut engine = mk();
        let mut reference = mk();
        let mut saw_second = false;
        for cycle in 0..2 {
            let e = engine.adaption_cycle(0.3, 0.1);
            let r = reference.adaption_cycle_reference(0.3, 0.1);
            assert_equivalent(&e, &r, &format!("dual P={nproc} cycle {cycle}"));
            saw_second |= e.decision.imbalance_old2.is_some();
        }
        assert!(
            saw_second || nproc == 1,
            "dual cycles must track the second constraint"
        );
        engine.am.validate();
    }

    #[test]
    fn dual_golden_equivalence_uniprocessor() {
        dual_golden(1, 3);
    }

    #[test]
    fn dual_golden_equivalence_p8() {
        dual_golden(8, 4);
    }

    #[test]
    fn dual_golden_equivalence_p64() {
        dual_golden(64, 5);
    }

    /// Satellite fix: a rank whose observed per-element solver times come
    /// back zero or NaN (dead clock) must not poison the cost estimate —
    /// invalid observations fall back to unit cost, the estimate stays
    /// finite, and the cycle's imbalances stay finite.
    #[test]
    fn zero_and_nan_observed_times_fall_back_to_unit_cost() {
        let mut p = plum(8, 4, RemapPolicy::BeforeRefinement);
        p.cost_field = CostField::StaticHotspot {
            center: [0.5; 3],
            radius: 0.4,
            amplitude: 20.0,
        };
        let mut garbage = vec![0.0; p.dual.n()];
        for o in garbage.iter_mut().skip(1).step_by(2) {
            *o = f64::NAN;
        }
        p.observed_cost_override = Some(garbage);
        let r = p.adaption_cycle(0.3, 0.1);
        assert!(p
            .cost_est
            .estimates()
            .iter()
            .all(|e| e.is_finite() && *e > 0.0));
        assert!(
            p.cost_est.is_unit(),
            "garbage observations must leave the estimate at unit"
        );
        assert!(r.decision.imbalance_old.is_finite());
        assert!(r.decision.imbalance_new.is_finite());
        // The next cycle observes real costs and moves off the unit estimate.
        p.adaption_cycle(0.3, 0.1);
        assert!(!p.cost_est.is_unit());
    }

    /// Acceptance criterion: when the hotspot's intensity doubles, the
    /// measured-cost balancer recovers within 3 cycles — the true-cost
    /// per-rank imbalance returns to the settled regime.
    #[test]
    fn hotspot_2x_shift_recovers_within_3_cycles() {
        fn units_imbalance(p: &Plum) -> f64 {
            let (wcomp, _) = p.am.weights();
            let mult = p.true_cost();
            let per = Plum::solver_units(&wcomp, &p.proc_of_root, p.cfg.nproc, mult.as_deref());
            let total: f64 = per.iter().sum();
            let max = per.iter().copied().fold(0.0, f64::max);
            max / (total / p.cfg.nproc as f64)
        }
        let hotspot = |amplitude| CostField::StaticHotspot {
            center: [0.35; 3],
            radius: 0.35,
            amplitude,
        };
        let mut p = plum(8, 4, RemapPolicy::BeforeRefinement);
        p.cost_field = hotspot(10.0);
        for _ in 0..4 {
            p.adaption_cycle(0.2, 0.05);
        }
        let settled = units_imbalance(&p);
        p.cost_field = hotspot(20.0);
        let jumped = units_imbalance(&p);
        assert!(
            jumped > settled + 0.05,
            "the 2× shift must unbalance the settled mapping: {settled} -> {jumped}"
        );
        let target = (settled * 1.05).max(1.25);
        let mut recovered = f64::INFINITY;
        for _ in 0..3 {
            p.adaption_cycle(0.2, 0.05);
            recovered = units_imbalance(&p);
            if recovered <= target {
                break;
            }
        }
        assert!(
            recovered <= target,
            "not recovered within 3 cycles: settled {settled}, jumped {jumped}, \
             after {recovered} (target {target})"
        );
    }
}
