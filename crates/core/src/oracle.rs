//! The golden oracle: the original per-phase cycle driver, compiled only
//! into `plum-core`'s tests.
//!
//! Every parallel phase runs as its own `spmd` program with fresh clocks,
//! the balancer runs its serial kernels host-side with a modeled time
//! ([`balance_step`]), and chaos is ignored (the reference is the clean
//! baseline). The engine's golden battery (`engine.rs`) pins
//! [`Plum::adaption_cycle`] ≡ [`Plum::adaption_cycle_reference`] and
//! [`Plum::coarsen_cycle`] ≡ [`Plum::coarsen_cycle_reference`]: virtual
//! times to fp rounding, every discrete output bit-exactly. The two drivers
//! differ only in session structure — both open a cycle from the same
//! mesh, assignment and solver observation, and both reach the same shared
//! parts: [`evaluate_balance`], [`with_problem`], [`apply_reassignment`],
//! [`coarsen_mark_body`], [`observe_capacity`] and [`Plum::solver_units`].

use plum_mesh::DualGraph;
use plum_parsim::{makespan, spmd};
use plum_partition::{balance, weights_of};
use plum_solver::{edge_error_indicator, solve};

use crate::balance::{apply_reassignment, evaluate_balance, with_problem};
use crate::config::{PlumConfig, RemapPolicy};
use crate::engine::{coarsen_mark_body, observe_capacity};
use crate::framework::{coarse_marks, CycleReport, CycleTraces, PhaseTimes, Plum};
use crate::marking::{parallel_mark, Ownership};
use crate::migrate::{parallel_migrate, MigrationOutcome};
use crate::timing::WorkModel;
use crate::BalanceDecision;

impl Plum {
    /// Modeled solver phase time for N_adapt iterations from per-rank
    /// element units.
    fn solver_time_units(&self, units: &[f64], own: &Ownership) -> f64 {
        (0..self.cfg.nproc)
            .map(|r| {
                (self.work.solver_compute_units_time(units[r])
                    + self
                        .work
                        .solver_halo_time(own.shared_edges_of_rank(r as u32), &self.cfg.machine))
                    * self.work.n_adapt as f64
            })
            .fold(0.0, f64::max)
    }

    /// Modeled subdivision time: each rank creates the children of its own
    /// trees and sweeps its own elements.
    fn subdivide_time(&self, children_per_root: &[u64], wcomp: &[u64], proc: &[u32]) -> f64 {
        let kids = weights_of(children_per_root, proc, self.cfg.nproc);
        let sweep = weights_of(wcomp, proc, self.cfg.nproc);
        (0..self.cfg.nproc)
            .map(|r| self.work.subdivision_time(kids[r], sweep[r]))
            .fold(0.0, f64::max)
    }

    /// The per-phase golden reference for [`Plum::coarsen_cycle`], mirroring
    /// [`Plum::adaption_cycle_reference`]: isolated `spmd` phases with fresh
    /// clocks.
    pub fn coarsen_cycle_reference(&mut self, coarse_frac: f64, dt: f64) -> CycleReport {
        let mut cycle = self.open_reference(dt);

        // --- coarse marking: one sweep over owned elements + one reduction -
        let error = edge_error_indicator(&self.am.mesh, &self.field);
        let cmarks = coarse_marks(&self.am, &error, coarse_frac);
        let marked = cmarks.count() as u64;
        let elems_before = self.am.mesh.n_elems();
        let sweep = weights_of(&cycle.wcomp_now, &self.proc_of_root, self.cfg.nproc);
        let results = spmd(self.cfg.nproc, self.cfg.machine, |comm| {
            coarsen_mark_body(comm, &self.work, sweep[comm.rank()], marked)
        });
        cycle.times.marking = makespan(&results);

        // --- host-side de-refinement -------------------------------------
        let _stats = self
            .am
            .coarsen(&cmarks, std::slice::from_mut(&mut self.field));
        let (wcomp_after, wremap_after) = self.am.weights();
        let removed: Vec<u64> = cycle
            .wcomp_now
            .iter()
            .zip(&wcomp_after)
            .map(|(&b, &a)| b.saturating_sub(a))
            .collect();
        cycle.times.coarsen = self.subdivide_time(&removed, &cycle.wcomp_now, &self.proc_of_root);

        // --- rebalance the shrunken mesh, remap --------------------------
        self.dual.wcomp = self.cost_est.weights(&wcomp_after);
        self.dual.wremap = wremap_after;
        let outcome = self.balance_and_migrate_reference(&vec![0; self.dual.n()], &mut cycle.times);

        let growth = self.am.mesh.n_elems() as f64 / elems_before as f64;
        self.close_reference(cycle, 1, growth, outcome)
    }

    /// Open a reference cycle: advance the physical time and take the
    /// flow-solver phase — real field update (a few iterations suffice to
    /// track the wave), virtual time charged for the full N_adapt
    /// iterations from this cycle's [`Ownership`] — then observe rates and
    /// costs on the nominal (chaos-free) machine.
    fn open_reference(&mut self, dt: f64) -> ReferenceCycle {
        self.time += dt;
        solve(
            &self.am.mesh,
            &mut self.field,
            &self.wave,
            self.time,
            &self.solver_cfg,
        );
        let (wcomp_now, wremap_now) = self.am.weights();
        let own = Ownership::build(&self.am, &self.proc_of_root, self.cfg.nproc);
        let mult = self.true_cost();
        let units = Self::solver_units(
            &wcomp_now,
            &self.proc_of_root,
            self.cfg.nproc,
            mult.as_deref(),
        );
        let times = PhaseTimes {
            solver: self.solver_time_units(&units, &own),
            ..PhaseTimes::default()
        };
        let nominal = vec![1.0; self.cfg.nproc];
        let (rate, capacity) = observe_capacity(&units, &self.work, &nominal);
        self.observe_costs(mult.as_deref());
        ReferenceCycle {
            times,
            wcomp_now,
            wremap_now,
            own,
            rate,
            capacity,
        }
    }

    /// Balance `self.dual` with the serial kernels; when the new mapping is
    /// accepted, remap (as a standalone `spmd` program) and adopt it.
    fn balance_and_migrate_reference(
        &mut self,
        refine_work: &[u64],
        times: &mut PhaseTimes,
    ) -> (BalanceDecision, Option<MigrationOutcome>) {
        let (decision, balance) = balance_step(
            &self.dual,
            &self.proc_of_root,
            refine_work,
            &self.cfg,
            &self.work,
            Some(&self.sfc_keys),
            self.wcomp2.as_deref(),
        );
        times.partition = balance.partition;
        times.reassign = balance.reassign;
        let migration = decision.accepted.then(|| {
            let out = parallel_migrate(
                &self.am,
                &self.field,
                &self.proc_of_root,
                &decision.new_proc,
                self.cfg.nproc,
                self.cfg.machine,
            );
            times.remap = out.time;
            self.proc_of_root = decision.new_proc.clone();
            out
        });
        (decision, migration)
    }

    /// Finish a reference cycle: Fig. 8 bookkeeping, report.
    fn close_reference(
        &self,
        cycle: ReferenceCycle,
        marking_sweeps: usize,
        growth: f64,
        (decision, migration): (BalanceDecision, Option<MigrationOutcome>),
    ) -> CycleReport {
        // Post-adaption solver load with and without the rebalance.
        // Prediction is exact, so `decision.wmax_old` (the per-processor
        // maximum of the post-refinement W_comp under the old assignment)
        // is precisely the "no load balancing" workload.
        let (wcomp_final, _) = self.am.weights();
        let wmax_balanced = *weights_of(&wcomp_final, &self.proc_of_root, self.cfg.nproc)
            .iter()
            .max()
            .unwrap();

        CycleReport {
            traces: CycleTraces::default(),
            counts: self.am.mesh.counts(),
            growth,
            marking_sweeps,
            wmax_balanced,
            migration,
            decision,
            times: cycle.times,
            rate: cycle.rate,
            capacity: cycle.capacity,
        }
    }

    /// The original per-phase driver, kept as the golden reference for the
    /// engine: every parallel phase is its own `spmd` program with fresh
    /// clocks. Produces the same report as [`Plum::adaption_cycle`] up to
    /// floating-point rounding of the virtual times (and without the
    /// session timeline).
    pub fn adaption_cycle_reference(&mut self, refine_frac: f64, dt: f64) -> CycleReport {
        let mut cycle = self.open_reference(dt);

        // --- MESH ADAPTOR: edge marking (parallel, with propagation) -------
        let error = edge_error_indicator(&self.am.mesh, &self.field);
        let threshold = self.am.threshold_for_final_fraction(&error, refine_frac);
        let mark = parallel_mark(
            &self.am,
            &cycle.own,
            self.cfg.nproc,
            self.cfg.machine,
            &self.work,
            &error,
            threshold,
        );
        cycle.times.marking = mark.time;

        // --- exact prediction of the refined mesh ---------------------------
        let pred = self.am.predict(&mark.marks);
        let children_per_root: Vec<u64> = (0..self.dual.n())
            .map(|v| pred.wremap[v] - cycle.wremap_now[v])
            .collect();

        let outcome = match self.cfg.policy {
            RemapPolicy::BeforeRefinement => {
                // Weights as though subdivision already happened — scaled by
                // the estimated per-root cost, so the partitioner balances
                // measured load; the data that moves is still the small,
                // unrefined grid.
                self.dual.wcomp = self.cost_est.weights(&pred.wcomp);
                self.dual.wremap = cycle.wremap_now.clone();
                let outcome =
                    self.balance_and_migrate_reference(&children_per_root, &mut cycle.times);
                // Subdivide on the (re)balanced partitions.
                self.am
                    .refine(&mark.marks, std::slice::from_mut(&mut self.field));
                cycle.times.subdivide =
                    self.subdivide_time(&children_per_root, &cycle.wcomp_now, &self.proc_of_root);
                outcome
            }
            RemapPolicy::AfterRefinement => {
                // Baseline: subdivide first (unbalanced), then move the
                // grown mesh.
                self.am
                    .refine(&mark.marks, std::slice::from_mut(&mut self.field));
                cycle.times.subdivide =
                    self.subdivide_time(&children_per_root, &cycle.wcomp_now, &self.proc_of_root);
                let (wcomp_after, wremap_after) = self.am.weights();
                self.dual.wcomp = self.cost_est.weights(&wcomp_after);
                self.dual.wremap = wremap_after;
                self.balance_and_migrate_reference(&vec![0; self.dual.n()], &mut cycle.times)
            }
        };
        self.close_reference(cycle, mark.sweeps, pred.growth_factor, outcome)
    }
}

/// What a reference cycle carries from its solver phase to its report.
struct ReferenceCycle {
    times: PhaseTimes,
    /// Per-root weights of the mesh the solver ran on.
    wcomp_now: Vec<u64>,
    wremap_now: Vec<u64>,
    /// Ownership under the assignment the solver ran on.
    own: Ownership,
    rate: Vec<f64>,
    capacity: Vec<f64>,
}

/// The reference path's modeled repartitioner charge for a dual graph of
/// `n` vertices on `p` processors — one charge for every portfolio method.
/// The golden battery never compares it: the engine measures its partition
/// phase instead.
///
/// Shape (paper, Fig. 6): local work shrinks as `n/p`; the coloring-
/// parallelized coarsening/uncoarsening pays a per-level synchronization
/// that *grows* with `p` — producing the shallow minimum near `p ≈ 16`
/// and near-flat behaviour overall.
fn partition_time(work: &WorkModel, n: usize, p: usize) -> f64 {
    /// Per-level, per-processor communication overhead (coloring rounds,
    /// boundary exchange).
    const T_PART_SYNC: f64 = 1.05e-3;
    /// Fixed overhead (setup, initial partition, broadcast).
    const T_PART_BASE: f64 = 0.1;
    let levels = ((n as f64).log2() - 7.0).max(1.0); // coarsen to ~128 vertices
    let local = work.t_part_vertex * (n as f64 / p as f64) * levels;
    let sync = if p > 1 {
        T_PART_SYNC * levels * p as f64
    } else {
        0.0
    };
    local + sync + T_PART_BASE
}

/// The full load-balancer step on the weighted dual graph, serial kernels
/// and the standalone reassignment protocol: [`evaluate_balance`], then the
/// portfolio method `select_method` picked, run serially and charged
/// [`partition_time`], then [`crate::parallel_reassign`] and the acceptance
/// test. The engine instead executes the same method's distributed body
/// inside its session (see `engine::Cycle::balance`); the differential test
/// battery pins the two against each other. Returns the decision and the
/// balancer's phase times — `partition` and `reassign`, both zero when the
/// trigger did not fire.
///
/// * `dual` carries the (possibly predicted) `wcomp` and the `wremap` that
///   applies at the moment data would move;
/// * `old_proc` is the current per-dual-vertex processor assignment;
/// * `refine_work[v]` is the number of new elements subdivision will create
///   in tree `v` (for the refinement term of the gain);
/// * `keys` carries one curve key per dual vertex and makes the portfolio's
///   geometric methods eligible; with `None` the policy can only pick the
///   multilevel kernel (or knapsack);
/// * `w2` carries a second per-dual-vertex weight vector (e.g. particle
///   counts): the balancer then holds *both* imbalances down
///   (max-of-imbalances objective), reporting the second constraint in
///   [`BalanceDecision::imbalance_old2`]/[`BalanceDecision::imbalance_new2`].
///   `None` (or a uniform `w2`) is the single-constraint step.
pub(crate) fn balance_step(
    dual: &DualGraph,
    old_proc: &[u32],
    refine_work: &[u64],
    cfg: &PlumConfig,
    work: &WorkModel,
    keys: Option<&[u64]>,
    w2: Option<&[u64]>,
) -> (BalanceDecision, PhaseTimes) {
    let caps = vec![1.0; cfg.nproc];
    let mut times = PhaseTimes::default();
    let mut decision = evaluate_balance(dual, old_proc, cfg, &caps, w2);
    if !decision.repartitioned {
        return (decision, times);
    }
    let (method, new_part) = with_problem(dual, old_proc, cfg, &caps, keys, w2, |m, p| {
        (m, balance(m, p))
    });
    decision.method = Some(method);
    times.partition = partition_time(work, dual.n(), cfg.nproc);

    // Similarity matrix (W_remap) and processor reassignment, run as the
    // paper's distributed protocol: per-rank rows, host gather, mapper on
    // the host, solution scatter.
    let par = crate::reassign_par::parallel_reassign(
        &dual.wremap,
        old_proc,
        &new_part,
        cfg.nproc,
        cfg.nparts(),
        cfg.mapper,
        cfg.machine,
    );
    times.reassign = par.time;

    apply_reassignment(
        &mut decision,
        dual,
        old_proc,
        refine_work,
        cfg,
        work,
        &new_part,
        &par.matrix,
        &par.assignment,
        &caps,
        w2,
    );
    (decision, times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_time_has_interior_minimum() {
        let wm = WorkModel::default();
        let n = 60_968;
        let times: Vec<f64> = [1usize, 2, 4, 8, 16, 32, 64]
            .iter()
            .map(|&p| partition_time(&wm, n, p))
            .collect();
        // Decreasing at first (local work dominates)…
        assert!(times[0] > times[3], "t(1)={} ≤ t(8)={}", times[0], times[3]);
        // …and the minimum is strictly inside the range (paper: p ≈ 16).
        let min_idx = times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(
            (1..=5).contains(&min_idx),
            "partition time minimum at index {min_idx}: {times:?}"
        );
        // Near-flat at scale: t(64) within 4× of the minimum.
        assert!(times[6] < times[min_idx] * 4.0);
    }
}
