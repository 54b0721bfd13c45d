//! The top-level PLUM driver: the solution → adaption → load-balancing
//! cycle of Fig. 1.

use std::collections::BTreeMap;

use plum_adapt::{AdaptiveMesh, EdgeMarks};
use plum_mesh::{DualGraph, MeshCounts, TetMesh, VertexField};
use plum_partition::{partition_kway, Graph};
use plum_solver::{initialize_solution, CostField, SolverConfig, WaveField, NCOMP};

use plum_parsim::{Perturbation, PhaseAgg, TraceLog, COLLECTIVE_KINDS};

use crate::balance::BalanceDecision;
use crate::config::PlumConfig;
use crate::costs::CostEstimator;
use crate::migrate::MigrationOutcome;
use crate::timing::WorkModel;

/// Virtual seconds spent in each phase of one adaption cycle: the cycle's
/// one record of time. Every field is a span of the modeled machine's
/// clock — on the engine path, the duration of that phase's step on the
/// cycle's session — so [`PhaseTimes::total`] is the session's makespan.
/// No field is host wall-clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Flow solver (N_adapt iterations, modeled from per-rank load).
    pub solver: f64,
    /// Edge marking incl. propagation communication (parsim).
    pub marking: f64,
    /// Repartitioner: measured from the distributed kernel's session step
    /// (a flat modeled charge only under the test-only per-phase oracle).
    pub partition: f64,
    /// Processor reassignment: similarity rows, host gather and answer
    /// scatter (§4.3; parsim). The host's mapper run is not charged.
    pub reassign: f64,
    /// Data remapping (parsim, real bytes moved).
    pub remap: f64,
    /// Mesh subdivision (modeled from per-rank children created).
    pub subdivide: f64,
    /// Mesh coarsening (modeled from per-rank elements removed; only
    /// coarsening cycles spend time here).
    pub coarsen: f64,
}

impl PhaseTimes {
    /// Adaption time: marking + subdivision/coarsening (what Fig. 4's
    /// speedup measures).
    pub fn adaption(&self) -> f64 {
        self.marking + self.subdivide + self.coarsen
    }

    /// Total cycle time: the session makespan.
    pub fn total(&self) -> f64 {
        self.solver
            + self.marking
            + self.partition
            + self.reassign
            + self.remap
            + self.subdivide
            + self.coarsen
    }
}

/// The event log of one cycle and its per-phase aggregates (both empty
/// under the test-only per-phase oracle, whose phases run as isolated
/// programs).
#[derive(Debug, Clone, Default)]
pub struct CycleTraces {
    /// The whole cycle on one continuous virtual timeline. Event times are
    /// absolute session times, so phases follow one another without
    /// per-phase clock resets. A phase's own log is
    /// `session.phase_slice(name)`.
    pub session: TraceLog,
    /// [`TraceLog::phase_breakdowns`] of `session`, computed once: every
    /// phase's compute/wire/wait/injected split and traffic, in
    /// phase-appearance order (modeled phases included).
    pub phases: Vec<PhaseAgg>,
}

impl CycleTraces {
    /// The aggregate of a named phase, if it ran.
    pub fn phase(&self, name: &str) -> Option<&PhaseAgg> {
        self.phases.iter().find(|agg| agg.name == name)
    }
}

/// Everything one adaption cycle reports.
#[derive(Debug, Clone)]
pub struct CycleReport {
    pub times: PhaseTimes,
    /// The cycle's event log and per-phase aggregates.
    pub traces: CycleTraces,
    /// Mesh counts after the cycle.
    pub counts: MeshCounts,
    /// Mesh growth factor of this refinement.
    pub growth: f64,
    /// Marking propagation sweeps.
    pub marking_sweeps: usize,
    /// The load balancer's decision record.
    pub decision: BalanceDecision,
    /// Migration statistics, if data moved.
    pub migration: Option<MigrationOutcome>,
    /// Max per-processor leaf load after refinement under the adopted
    /// assignment. Fig. 8 divides `decision.wmax_old` by it: prediction is
    /// exact, so `wmax_old` is the "no load balancing" solver workload.
    pub wmax_balanced: u64,
    /// Observed per-rank solver compute rates (work units per virtual
    /// second of the solver phase). On a slowed rank the rate drops.
    pub rate: Vec<f64>,
    /// Per-rank capacity weights derived from `rate`: normalized to mean
    /// 1.0 and quantized, so a homogeneous machine observes exactly 1.0
    /// everywhere. This is what the balancer used this cycle.
    pub capacity: Vec<f64>,
}

impl CycleReport {
    /// Capacity-weighted solver imbalance after this cycle: the adopted
    /// assignment's `max(w_r/c_r)/(Σw/Σc)` over the post-refinement leaf
    /// loads. 1.0 means every processor finishes its solver share
    /// simultaneously *given its observed speed*.
    pub fn effective_imbalance(&self, load_of_rank: &[u64]) -> f64 {
        plum_partition::imbalance_weighted(load_of_rank, &self.capacity)
    }

    /// This cycle's metrics as one name → value map: what a BENCH report
    /// and a timeline row store. Every value is deterministic; `info.`
    /// names are informational (higher-is-better values the regression
    /// gate never compares). Counts are this cycle's own; a time of the
    /// same name as a count replaces it.
    ///
    /// With a session log, `session.` keys add its totals, every called
    /// collective kind's calls, msgs, words and seconds, and the per-rank
    /// series `session.rank_wait_seconds` and `session.rank_elapsed_seconds`
    /// as `.count`, `.sum` (in rank order), `.max` and `info.<series>.p50`,
    /// `.p90`, `.p99`. Quantile q is the upper bound `1e-6 · 2^i` s of the
    /// first bucket `i < 40` holding the ⌈q·n⌉-th smallest value (`max`
    /// above the last bound), clamped to the series' `[min, max]`.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let (t, d) = (&self.times, &self.decision);
        let mut counts = vec![
            ("cycle.count".to_string(), 1),
            ("marking.sweeps".into(), self.marking_sweeps as u64),
            ("balance.repartitioned".into(), d.repartitioned as u64),
            ("balance.accepted".into(), d.accepted as u64),
        ];
        let mut times = vec![
            ("phase.solver.seconds".to_string(), t.solver),
            ("phase.marking.seconds".into(), t.marking),
            ("phase.partition.seconds".into(), t.partition),
            ("phase.reassignment.seconds".into(), t.reassign),
            ("phase.remap.seconds".into(), t.remap),
            ("phase.subdivide.seconds".into(), t.subdivide),
            ("cycle.virtual_seconds".into(), t.total()),
            ("balance.imbalance_new".into(), d.imbalance_new),
            ("balance.wmax_balanced".into(), self.wmax_balanced as f64),
            // Which portfolio method ran (0 = no repartition this cycle).
            (
                "balance.method".into(),
                d.method.map_or(0.0, |m| m.code() as f64),
            ),
            ("info.balance.imbalance_old".into(), d.imbalance_old),
            ("info.balance.gain".into(), d.gain),
            ("info.balance.cost".into(), d.cost),
            ("info.balance.wmax_unbalanced".into(), d.wmax_old as f64),
            ("info.cycle.growth".into(), self.growth),
        ];
        // The method's seconds again under its own name, so the gate
        // tracks each method's cost independently.
        if let Some(m) = d.method {
            times.push((
                format!("balance.partition.{}.seconds", m.name()),
                t.partition,
            ));
        }
        if let Some(mig) = &self.migration {
            counts.push(("migration.elems_moved".into(), mig.elems_moved));
            counts.push(("migration.words_moved".into(), mig.words_moved));
            counts.push(("migration.msgs".into(), mig.msgs));
        }
        for agg in &self.traces.phases {
            let name = &agg.name;
            counts.push((format!("phase.{name}.msgs"), agg.msgs));
            counts.push((format!("phase.{name}.words"), agg.words));
            times.push((format!("phase.{name}.compute_seconds"), agg.compute));
            times.push((format!("phase.{name}.wire_seconds"), agg.wire));
            times.push((format!("phase.{name}.wait_seconds"), agg.wait));
        }
        if !self.traces.session.events.is_empty() {
            let s = self.traces.session.summary();
            counts.push(("session.msgs".into(), s.total_msgs()));
            counts.push(("session.words".into(), s.total_words()));
            times.push(("session.compute_seconds".into(), s.total_compute()));
            times.push(("session.wire_seconds".into(), s.total_wire()));
            times.push(("session.wait_seconds".into(), s.total_wait()));
            for kind in COLLECTIVE_KINDS {
                let (mut calls, mut msgs, mut words, mut seconds) = (0, 0, 0, 0.0);
                for c in s.ranks.iter().map(|r| r.collective(kind)) {
                    (calls, msgs, words) = (calls + c.calls, msgs + c.msgs, words + c.words);
                    seconds += c.seconds;
                }
                if calls > 0 {
                    let key = format!("session.collective.{}", kind.name());
                    counts.push((format!("{key}.calls"), calls));
                    counts.push((format!("{key}.msgs"), msgs));
                    counts.push((format!("{key}.words"), words));
                    times.push((format!("{key}.seconds"), seconds));
                }
            }
            let wait = s.ranks.iter().map(|r| r.wait).collect();
            times.extend(series("session.rank_wait_seconds", wait));
            let elapsed = s.ranks.iter().map(|r| r.total()).collect();
            times.extend(series("session.rank_elapsed_seconds", elapsed));
        }
        let counts = counts.into_iter().map(|(k, n)| (k, n as f64));
        counts.chain(times).collect()
    }
}

/// Upper bound of quantile bucket `i`, in seconds.
fn bucket_bound(i: usize) -> f64 {
    1e-6 * (1u64 << i) as f64
}

/// The `q`-quantile of ascending `sorted` by [`CycleReport::metrics`]'
/// bucket rule, exact at q = 0 and q = 1; `None` for an empty series.
fn bucket_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let (&min, &max) = (sorted.first()?, sorted.last()?);
    if q <= 0.0 || q >= 1.0 {
        return Some(if q <= 0.0 { min } else { max });
    }
    let n = sorted.len();
    let value = sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
    let bound = (0..40).map(bucket_bound).find(|&b| value <= b);
    Some(bound.unwrap_or(max).clamp(min, max))
}

/// A per-rank series' `.count`, `.sum` and `.max`, and its p50 / p90 / p99
/// under `info.`; nothing for an empty series.
fn series(name: &str, mut values: Vec<f64>) -> Vec<(String, f64)> {
    let sum = values.iter().fold(0.0, |sum, v| sum + v);
    values.sort_by(f64::total_cmp);
    let Some(&max) = values.last() else {
        return Vec::new();
    };
    let mut keys = vec![
        (format!("{name}.count"), values.len() as f64),
        (format!("{name}.sum"), sum),
        (format!("{name}.max"), max),
    ];
    for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        keys.extend(bucket_quantile(&values, q).map(|v| (format!("info.{name}.{label}"), v)));
    }
    keys
}

/// The PLUM framework state.
pub struct Plum {
    pub cfg: PlumConfig,
    pub work: WorkModel,
    /// The adaptive computational mesh (global view).
    pub am: AdaptiveMesh,
    /// Dual graph of the *initial* mesh; weights are refreshed every cycle.
    pub dual: DualGraph,
    /// SFC key of each dual vertex (curve `cfg.sfc_curve` over the initial
    /// elements' centroids). Roots never move, so the keys are computed once
    /// and power the portfolio's geometric methods every cycle.
    pub sfc_keys: Vec<u64>,
    /// The flow solution.
    pub field: VertexField,
    /// The analytic wave field driving the solution.
    pub wave: WaveField,
    /// Current processor of each dual vertex (refinement tree).
    pub proc_of_root: Vec<u32>,
    /// Physical simulation time.
    pub time: f64,
    /// The machine every cycle's session runs on: per-rank compute
    /// multipliers, which also stretch the modeled solver and subdivision
    /// seconds, and link jitter. The test-only per-phase oracle ignores it
    /// and stays the clean golden baseline.
    pub chaos: Perturbation,
    /// Capacity weights the balancer uses: observed per-rank solver rates
    /// of the latest engine cycle, normalized to mean 1.0. Starts uniform.
    pub capacity: Vec<f64>,
    /// True per-element cost profile of the scenario — what the
    /// pseudo-solver's per-element times actually follow. The balancer
    /// never reads it; it only sees [`Plum::cost_est`]'s smoothed estimate
    /// of the observations.
    pub cost_field: CostField,
    /// EWMA estimate of per-root cost multipliers from observed solver
    /// times; its [`CostEstimator::weights`] output is what reaches the
    /// partitioner as `W_comp`.
    pub cost_est: CostEstimator,
    /// Centroid of each root element (roots never move; computed once).
    pub root_centroid: Vec<[f64; 3]>,
    /// One-shot injected per-root cost observation for the next cycle
    /// (tests: a rank reporting zero/NaN solver times), consumed by
    /// [`Plum::observe_costs`].
    pub observed_cost_override: Option<Vec<f64>>,
    /// Optional second per-root weight vector (e.g. particle counts). When
    /// present the balancer holds *both* constraint imbalances down
    /// simultaneously (max-of-imbalances objective).
    pub wcomp2: Option<Vec<u64>>,
    pub(crate) solver_cfg: SolverConfig,
}

impl Plum {
    /// Initialize: build the dual graph, partition it, map partitions to
    /// processors (identity at startup), and set the initial solution.
    pub fn new(mesh: TetMesh, wave: WaveField, cfg: PlumConfig) -> Self {
        let dual = DualGraph::build(&mesh);
        let graph = Graph::view(&dual.xadj, &dual.adjncy, &dual.wcomp);
        let mut pcfg = cfg.partition;
        pcfg.nparts = cfg.nproc;
        let proc_of_root = if cfg.nproc > 1 {
            partition_kway(&graph, &pcfg)
        } else {
            vec![0; dual.n()]
        };
        let sfc_keys = plum_mesh::sfc::element_keys(&mesh, &dual.elem_of, cfg.sfc_curve);
        let root_centroid: Vec<[f64; 3]> = dual
            .elem_of
            .iter()
            .map(|&e| plum_mesh::geometry::elem_centroid(&mesh, e))
            .collect();
        let am = AdaptiveMesh::new(mesh);
        let mut field = VertexField::new(NCOMP, am.mesh.vert_slots());
        initialize_solution(&am.mesh, &mut field, &wave, 0.0);
        Plum {
            chaos: Perturbation::none(cfg.nproc),
            capacity: vec![1.0; cfg.nproc],
            cost_field: CostField::Uniform,
            cost_est: CostEstimator::new(dual.n()),
            root_centroid,
            observed_cost_override: None,
            wcomp2: None,
            cfg,
            work: WorkModel::default(),
            am,
            dual,
            sfc_keys,
            field,
            wave,
            proc_of_root,
            time: 0.0,
            solver_cfg: SolverConfig::default(),
        }
    }

    /// Number of initial-mesh elements (dual-graph vertices).
    pub fn n_initial_elements(&self) -> usize {
        self.dual.n()
    }

    /// True per-root cost multipliers at the current physical time, `None`
    /// under the uniform field (the fast path every historical scenario
    /// takes — no f64 weighting enters the cycle at all).
    pub fn true_cost(&self) -> Option<Vec<f64>> {
        if self.cost_field.is_uniform() {
            return None;
        }
        Some(
            self.root_centroid
                .iter()
                .map(|&c| self.cost_field.multiplier(&self.wave, c, self.time))
                .collect(),
        )
    }

    /// Per-rank solver load in element *units* under `proc`: leaf counts,
    /// weighted by the true per-root cost multiplier when one is present.
    /// Shared by the session engine and the test-only per-phase oracle, and
    /// it iterates `v = 0..n` in both — f64 sums are order-sensitive, so one
    /// shared accumulation order is what keeps the two drivers
    /// bit-identical. The unit-cost arm accumulates in u64 (order-free) and
    /// converts at the end, preserving the historical integer path exactly.
    pub fn solver_units(
        wcomp: &[u64],
        proc: &[u32],
        nproc: usize,
        mult: Option<&[f64]>,
    ) -> Vec<f64> {
        match mult {
            None => {
                let mut per = vec![0u64; nproc];
                for v in 0..wcomp.len() {
                    per[proc[v] as usize] += wcomp[v];
                }
                per.into_iter().map(|w| w as f64).collect()
            }
            Some(m) => {
                let mut per = vec![0f64; nproc];
                for v in 0..wcomp.len() {
                    per[proc[v] as usize] += wcomp[v] as f64 * m[v];
                }
                per
            }
        }
    }

    /// Feed this cycle's observed per-root cost multipliers into the EWMA
    /// estimator. An injected override (tests: zero/NaN solver times) wins
    /// and is consumed; otherwise the modeled observation is the true
    /// multiplier itself; a uniform field observes nothing, so the
    /// estimator stays exactly unit and the goldens stay bit-identical.
    pub fn observe_costs(&mut self, mult: Option<&[f64]>) {
        if let Some(obs) = self.observed_cost_override.take() {
            self.cost_est.observe(&obs);
        } else if let Some(m) = mult {
            self.cost_est.observe(m);
        }
    }

    /// Run one full cycle of Fig. 1: solve, mark (parallel), predict,
    /// balance, remap, subdivide. `refine_frac` is the fraction of edges the
    /// error indicator targets; `dt` advances the physical time (moving the
    /// wave so successive cycles refine different regions).
    ///
    /// Runs on the session engine: one SPMD session per cycle and a
    /// continuous virtual timeline in [`CycleTraces::session`].
    pub fn adaption_cycle(&mut self, refine_frac: f64, dt: f64) -> CycleReport {
        crate::engine::run_cycle(self, refine_frac, dt)
    }

    /// Run one *coarsening* cycle: solve, mark the lowest-error edges,
    /// de-refine the families whose children carry only coarse marks,
    /// rebalance the shrunken mesh, and remap. The dual of
    /// [`Plum::adaption_cycle`] for the receding phase of a shock — the
    /// mesh shrinks (`growth < 1.0`) instead of growing. `coarse_frac` is
    /// the fraction of live edges targeted for de-refinement.
    pub fn coarsen_cycle(&mut self, coarse_frac: f64, dt: f64) -> CycleReport {
        crate::engine::run_coarsen_cycle(self, coarse_frac, dt)
    }
}

/// Coarse marks: the roughly `frac` lowest-error live edges, marked for
/// de-refinement. The threshold is inclusive (`error <= th`), and no
/// fixpoint upgrade applies — illegal coarse marks are resolved by the
/// adaptor's family-eligibility walk, not by propagation.
pub fn coarse_marks(am: &AdaptiveMesh, error: &[f64], frac: f64) -> EdgeMarks {
    assert!((0.0..=1.0).contains(&frac));
    let mut marks = EdgeMarks::new(&am.mesh);
    let mut vals: Vec<f64> = am
        .mesh
        .edges()
        .map(|e| error.get(e.idx()).copied().unwrap_or(0.0))
        .collect();
    let n = vals.len();
    let k = ((n as f64) * frac).round() as usize;
    if k == 0 {
        return marks;
    }
    // The k-th smallest error: the value a total-order sort puts at k - 1.
    let th = *vals.select_nth_unstable_by(k - 1, f64::total_cmp).1;
    for e in am.mesh.edges() {
        if error.get(e.idx()).copied().unwrap_or(0.0) <= th {
            marks.mark(e);
        }
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RemapPolicy;
    use plum_mesh::generate::unit_box_mesh;
    use plum_partition::weights_of;

    fn plum(nproc: usize, n: usize) -> Plum {
        Plum::new(
            unit_box_mesh(n),
            WaveField::unit_box(),
            PlumConfig::new(nproc),
        )
    }

    #[test]
    fn phase_times_compose() {
        let t = PhaseTimes {
            solver: 1.0,
            marking: 0.5,
            partition: 0.25,
            reassign: 0.125,
            remap: 0.0625,
            subdivide: 2.0,
            coarsen: 4.0,
        };
        assert!((t.adaption() - 6.5).abs() < 1e-15);
        assert!((t.total() - 7.9375).abs() < 1e-15);
    }

    /// A NaN error value (a diverged solver) sorts last — never marked
    /// for coarsening — instead of panicking the threshold sort.
    #[test]
    fn coarse_marks_tolerate_nan_errors() {
        let p = plum(1, 3);
        let mut error: Vec<f64> = (0..p.am.mesh.edge_slots()).map(|i| i as f64).collect();
        let nan_edge = p.am.mesh.edges().next().unwrap();
        error[nan_edge.idx()] = f64::NAN;
        let marks = coarse_marks(&p.am, &error, 0.25);
        let n = p.am.mesh.n_edges();
        let k = marks.count();
        assert!(
            (k as f64 - n as f64 * 0.25).abs() <= 2.0,
            "marked {k} of {n}"
        );
        assert!(!marks.is_marked(nan_edge));
    }

    #[test]
    fn initialization_balances_the_initial_mesh() {
        let p = plum(4, 4);
        let per = weights_of(&vec![1; p.dual.n()], &p.proc_of_root, 4);
        let total: u64 = per.iter().sum();
        assert_eq!(total as usize, p.dual.n());
        let max = *per.iter().max().unwrap() as f64;
        assert!(
            max / (total as f64 / 4.0) < 1.10,
            "initial partition unbalanced: {per:?}"
        );
    }

    #[test]
    fn one_cycle_refines_and_balances() {
        let mut p = plum(4, 4);
        let before = p.am.mesh.n_elems();
        let report = p.adaption_cycle(0.33, 0.1);
        assert!(report.counts.elements > before, "mesh must grow");
        assert!(report.growth > 1.0 && report.growth <= 8.0);
        assert!(report.times.marking > 0.0);
        assert!(report.times.subdivide > 0.0);
        assert!(report.times.solver > 0.0);
        p.am.validate();
        // The adopted configuration is at least as balanced as not moving.
        assert!(report.wmax_balanced <= report.decision.wmax_old);
    }

    #[test]
    fn cycle_traces_match_phase_times_and_pass_protocol_check() {
        let mut p = plum(4, 4);
        let report = p.adaption_cycle(0.33, 0.1);
        let session = &report.traces.session;
        let split = session.phase_rank_breakdowns();
        let ranks_of = |name: &str| {
            let agg = split.iter().find(|a| a.name == name);
            &agg.unwrap_or_else(|| panic!("no {name} phase")).ranks
        };

        // Each phase's measured time is the slowest rank's accounted time
        // in that phase.
        let mut measured = vec![
            ("solver", report.times.solver),
            ("marking", report.times.marking),
            ("subdivide", report.times.subdivide),
        ];
        if report.decision.repartitioned {
            measured.push(("partition", report.times.partition));
            measured.push(("reassignment", report.times.reassign));
        }
        if let Some(mig) = &report.migration {
            measured.push(("remap", mig.time));
        }
        assert!(measured.len() >= 5, "cycle should have balanced");
        for (name, time) in measured {
            let slowest = ranks_of(name).iter().map(|r| r.total()).fold(0.0, f64::max);
            assert!(
                (slowest - time).abs() < 1e-9,
                "{name}: trace accounts {slowest}, phase time {time}"
            );
            // The cached aggregate is the same attribution, summed over ranks.
            let agg = report.traces.phase(name).unwrap();
            let by_rank: f64 = ranks_of(name).iter().map(|r| r.total()).sum();
            assert!((agg.total() - by_rank).abs() < 1e-9, "{name}");
        }

        // The distributed repartitioner's step: every rank accounts the
        // same span (the step boundary syncs the clocks), and it sends
        // real messages.
        for (rank, r) in ranks_of("partition").iter().enumerate() {
            assert!(
                (r.total() - report.times.partition).abs() < 1e-9,
                "rank {rank} accounts {}, partition phase time {}",
                r.total(),
                report.times.partition
            );
        }
        assert!(report.traces.phase("partition").unwrap().msgs > 0);
        if let Some(mig) = &report.migration {
            assert_eq!(
                report.traces.phase("remap").unwrap().words,
                mig.words_moved,
                "trace traffic == migration traffic"
            );
        }

        // Every phase obeys SPMD discipline on its own, and the session as
        // a whole passes the audit.
        for agg in &report.traces.phases {
            let violations = plum_parsim::check_protocol(&session.phase_slice(&agg.name));
            assert!(violations.is_empty(), "{}: {violations:?}", agg.name);
        }
        session.audit().unwrap();
    }

    #[test]
    fn cycle_report_emits_metrics() {
        let mut p = plum(4, 4);
        let report = p.adaption_cycle(0.33, 0.1);
        let m = report.metrics();

        assert_eq!(m["cycle.count"], 1.0);
        assert!(m["phase.marking.msgs"] > 0.0);
        assert_eq!(m["phase.marking.seconds"], report.times.marking);
        assert!(m["cycle.virtual_seconds"] > 0.0);
        for key in [
            "info.balance.gain",
            "info.session.rank_wait_seconds.p50",
            "info.session.rank_elapsed_seconds.p99",
        ] {
            assert!(
                m.contains_key(key),
                "{key}: informational values carry info."
            );
        }
        assert!(m.values().all(|v| v.is_finite()), "{m:?}");
    }

    #[test]
    fn cycle_metrics_emit_session_totals_and_collectives() {
        let report = plum(4, 4).adaption_cycle(0.33, 0.1);
        let m = report.metrics();
        let summary = report.traces.session.summary();
        assert_eq!(m["session.msgs"], summary.total_msgs() as f64);
        assert_eq!(m["session.words"], summary.total_words() as f64);
        assert!((m["session.compute_seconds"] - summary.total_compute()).abs() < 1e-12);
        // Every collective kind called has its keys; one never called has
        // none.
        for kind in COLLECTIVE_KINDS {
            let calls: u64 = summary.ranks.iter().map(|r| r.collective(kind).calls).sum();
            let key = format!("session.collective.{}.calls", kind.name());
            assert_eq!(
                m.get(&key).copied(),
                (calls > 0).then_some(calls as f64),
                "{key}"
            );
        }
        assert!(COLLECTIVE_KINDS
            .into_iter()
            .any(|kind| !m.contains_key(&format!("session.collective.{}.calls", kind.name()))));
        // One value per rank in each per-rank series.
        assert_eq!(m["session.rank_wait_seconds.count"], 4.0);
        assert_eq!(m["session.rank_elapsed_seconds.count"], 4.0);
    }

    #[test]
    fn quantiles_estimate_from_hand_computed_bucket_fills() {
        // 10 values: 5 in bucket 3 (bound 8 µs), 4 in bucket 10 (bound
        // 1024 µs), 1 past the last bound.
        let mut values = vec![6e-6; 5];
        values.extend([1e-3; 4]);
        values.push(1e9);
        let q = |q| bucket_quantile(&values, q);
        // p50: the 5th value closes bucket 3 → its bound, 8 µs.
        assert_eq!(q(0.5), Some(bucket_bound(3)));
        assert_eq!(q(0.5), Some(8e-6));
        // p90: the 9th value closes bucket 10 → 1024 µs.
        assert_eq!(q(0.9), Some(bucket_bound(10)));
        // p99: the 10th value lies past the last bound → max.
        assert_eq!(q(0.99), Some(1e9));
        // Extremes are exact.
        assert_eq!(q(0.0), Some(6e-6));
        assert_eq!(q(1.0), Some(1e9));
        assert_eq!(bucket_quantile(&[], 0.5), None);

        // A bucket bound above the only value clamps down to it.
        assert_eq!(bucket_quantile(&[5e-7], 0.5), Some(5e-7));
    }

    #[test]
    fn series_buckets_and_stats() {
        let m: BTreeMap<_, _> = series("h.wait", vec![2.0, 1e-7, 1e9, 1e-6, 5e-3])
            .into_iter()
            .collect();
        assert_eq!(m["h.wait.count"], 5.0);
        assert_eq!(m["h.wait.max"], 1e9);
        assert_eq!(m["h.wait.sum"], (((2.0 + 1e-7) + 1e9) + 1e-6) + 5e-3);
        // Sub-microsecond values and the exact 1 µs bound share bucket 0:
        // the 2nd smallest reads its bound.
        assert_eq!(
            bucket_quantile(&[1e-7, 1e-6, 1.0], 0.5),
            Some(bucket_bound(0))
        );
        // A value exactly on a bound falls in that bucket, not the next.
        assert_eq!(
            bucket_quantile(&[bucket_bound(3), 1.0], 0.5),
            Some(bucket_bound(3))
        );
        // Past the last finite bound (≈ 152 h) a value reads max.
        assert_eq!(bucket_quantile(&[6e5, 1e9], 0.5), Some(1e9));
        assert_eq!(
            bucket_quantile(&[bucket_bound(39), 1e9], 0.5),
            Some(bucket_bound(39))
        );
    }

    #[test]
    fn series_stats_are_deterministic() {
        let m: BTreeMap<_, _> = series("c.wait", vec![1.0, 3.0]).into_iter().collect();
        assert_eq!(m["c.wait.count"], 2.0);
        assert_eq!(m["c.wait.sum"], 4.0);
        assert_eq!(m["c.wait.max"], 3.0);
        // The same values in another order give the same keys and values.
        assert_eq!(
            series("c.wait", vec![3.0, 1.0]),
            series("c.wait", vec![1.0, 3.0])
        );
    }

    #[test]
    fn series_quantiles_are_info() {
        let mut values = vec![6e-6; 9];
        values.push(1e-3);
        let m: BTreeMap<_, _> = series("c.wait", values).into_iter().collect();
        // 9 of 10 values are 6 µs (bucket bound 8 µs): the 9th value
        // covers p50 and p90; only p99 reaches the 1 ms tail.
        assert_eq!(m["info.c.wait.p50"], 8e-6);
        assert_eq!(m["info.c.wait.p90"], 8e-6);
        assert_eq!(m["info.c.wait.p99"], 1e-3);
        // Quantile keys all carry the info. prefix (warn-only in compare).
        assert!(m
            .keys()
            .filter(|k| k.contains(".p5") || k.contains(".p9"))
            .all(|k| k.starts_with("info.")));
        // An empty series inserts nothing.
        assert!(series("c.wait", Vec::new()).is_empty());
    }

    #[test]
    fn remap_before_beats_after_in_remap_volume() {
        let mk = |policy| {
            let mut cfg = PlumConfig::new(8);
            cfg.policy = policy;
            let mut p = Plum::new(unit_box_mesh(5), WaveField::unit_box(), cfg);
            p.adaption_cycle(0.4, 0.1)
        };
        let before = mk(RemapPolicy::BeforeRefinement);
        let after = mk(RemapPolicy::AfterRefinement);
        let (Some(mb), Some(ma)) = (&before.migration, &after.migration) else {
            panic!(
                "both policies should migrate: before={:?} after={:?}",
                before.migration.is_some(),
                after.migration.is_some()
            );
        };
        assert!(
            mb.elems_moved < ma.elems_moved,
            "remap-before must move less: {} vs {}",
            mb.elems_moved,
            ma.elems_moved
        );
        assert!(
            mb.time < ma.time,
            "and take less time: {} vs {}",
            mb.time,
            ma.time
        );
    }

    #[test]
    fn single_proc_runs_without_balancing() {
        let mut p = plum(1, 3);
        let report = p.adaption_cycle(0.2, 0.1);
        assert!(!report.decision.repartitioned);
        assert!(report.migration.is_none());
        assert_eq!(report.times.remap, 0.0);
        p.am.validate();
    }

    #[test]
    fn repeated_cycles_track_the_moving_wave() {
        let mut p = plum(4, 3);
        let mut reports = Vec::new();
        for _ in 0..3 {
            reports.push(p.adaption_cycle(0.15, 0.5));
        }
        p.am.validate();
        assert!(reports.iter().all(|r| r.growth >= 1.0));
        // The mesh grows monotonically (no coarsening in this loop).
        assert!(reports
            .windows(2)
            .all(|w| w[1].counts.elements >= w[0].counts.elements));
    }
}
