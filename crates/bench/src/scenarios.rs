//! Workload-scenario experiments: `reproduce -- hotspot | dual | cascade`.
//!
//! Three workload classes beyond the paper's uniform-cost refinement
//! benchmarks, each emitting a `BENCH_<scenario>.json` report the CI
//! `scenario-conformance` job diffs against a committed baseline:
//!
//! * **hotspot** — an order-of-magnitude moving cost hotspot rides the
//!   blade tip; the EWMA-measured-cost balancer must cut the steady-state
//!   true-cost imbalance at least 2× versus the unit-cost assumption.
//! * **dual** — elements carry a second weight vector (a particle band);
//!   dual-constraint balancing must hold *both* imbalances ≤ 1.15 where
//!   single-constraint balancing leaves the particle constraint ≥ 1.5.
//! * **cascade** — a shock passes and recedes: refinement cycles grow the
//!   mesh, coarsening cycles shrink it, protocol-clean at P = 64 with the
//!   1e-9 phase-accounting invariant on every session timeline.

use plum_core::{CostEstimator, CycleReport, Plum, PlumConfig, RemapPolicy};
use plum_obs::{BenchReport, Timeline};
use plum_partition::{imbalance, weights_of};
use plum_solver::{CostField, WaveField};

use crate::report::{git_sha, record_timeline_row};
use crate::{initial_mesh, Scale};

/// Processor count of the hotspot and dual scenario cycles.
pub const SCENARIO_NPROC: usize = 16;

/// The cascade runs at the paper's largest machine.
pub const CASCADE_NPROC: usize = 64;

/// True-cost per-rank solver imbalance: each rank's element units (leaf
/// count × true cost multiplier) over the uniform ideal. This is the
/// quantity the measured-cost balancer is trying to flatten — computed from
/// the *true* field, which the balancer itself never sees.
pub fn units_imbalance(p: &Plum) -> f64 {
    let (wcomp, _) = p.am.weights();
    let mult = p.true_cost();
    let per = Plum::solver_units(&wcomp, &p.proc_of_root, p.cfg.nproc, mult.as_deref());
    let total: f64 = per.iter().sum();
    let max = per.iter().copied().fold(0.0, f64::max);
    max / (total / p.cfg.nproc as f64)
}

/// The hotspot scenario driver: a 40× moving hotspot under either the
/// measured-cost estimator (EWMA, α = 0.5) or the frozen unit-cost
/// assumption (α = 0).
fn hotspot_plum(scale: Scale, measured: bool) -> Plum {
    let mut cfg = PlumConfig::new(SCENARIO_NPROC);
    cfg.policy = RemapPolicy::BeforeRefinement;
    let mut p = Plum::new(initial_mesh(scale), WaveField::unit_box(), cfg);
    p.cost_field = CostField::MovingHotspot {
        radius: 0.35,
        amplitude: 40.0,
    };
    if !measured {
        // α = 0 freezes the estimate at unit cost: the balancer keeps
        // balancing element counts while the true cost is 40× inside the
        // hotspot — the assumption the measured path exists to replace.
        p.cost_est = CostEstimator::with_alpha(p.n_initial_elements(), 0.0);
    }
    p
}

/// Per-cycle true-cost imbalances of one hotspot arm, plus the arm's
/// recorded per-cycle timeline.
fn hotspot_arm(scale: Scale, measured: bool, cycles: usize) -> (Vec<f64>, Timeline) {
    let mut p = hotspot_plum(scale, measured);
    let mut timeline = Timeline::new();
    let imbalances = (0..cycles)
        .map(|_| {
            record_timeline_row(&mut timeline, &p.adaption_cycle(0.2, 0.05));
            units_imbalance(&p)
        })
        .collect();
    (imbalances, timeline)
}

/// The hotspot BENCH run. Asserts the ≥ 2× steady-state reduction the
/// scenario exists to demonstrate; the report pins the exact values.
pub fn hotspot_bench(scale: Scale) -> (BenchReport, String) {
    let cycles = 4;
    let (measured, measured_timeline) = hotspot_arm(scale, true, cycles);
    let (unit, _) = hotspot_arm(scale, false, cycles);
    let m = *measured.last().unwrap();
    let u = *unit.last().unwrap();
    let reduction = (u - 1.0) / (m - 1.0).max(1e-9);
    assert!(
        reduction >= 2.0,
        "measured-cost balancing must cut the true-cost imbalance ≥ 2×: \
         unit {u:.3} vs measured {m:.3} (reduction {reduction:.2}×)"
    );

    let mut b = BenchReport::new("hotspot");
    b.meta_str("git_sha", &git_sha())
        .meta_str("scale", &format!("{scale:?}"))
        .meta_num("nproc", SCENARIO_NPROC as f64)
        .meta_num("cycles", cycles as f64);
    b.set("balance.hotspot.measured_units_imbalance", m)
        .set("rate.hotspot.imbalance_reduction", reduction)
        .set("info.hotspot.unit_units_imbalance", u);
    // The measured arm's per-cycle trajectory, for `plum-bench explain`.
    b.timeline = Some(measured_timeline);

    let mut analysis = format!(
        "hotspot @ P={SCENARIO_NPROC}: 40× moving hotspot, \
         measured-cost EWMA vs unit-cost assumption\n\
         {:>6} {:>12} {:>12}\n",
        "cycle", "measured", "unit-cost"
    );
    for (i, (m, u)) in measured.iter().zip(&unit).enumerate() {
        analysis.push_str(&format!("{i:>6} {m:>12.3} {u:>12.3}\n"));
    }
    analysis.push_str(&format!(
        "=> steady-state true-cost imbalance {m:.3} vs {u:.3}: {reduction:.2}× reduction\n"
    ));
    (b, analysis)
}

/// The particle band of the dual scenario: 200 particles per element near
/// the x = 0 face, 1 elsewhere.
fn particle_band(p: &Plum) -> Vec<u64> {
    p.root_centroid
        .iter()
        .map(|c| if c[0] < 0.3 { 200 } else { 1 })
        .collect()
}

/// Run the dual scenario with or without the second constraint and return
/// the final `(fluid, particle)` per-processor imbalances plus the arm's
/// recorded per-cycle timeline.
fn dual_arm(scale: Scale, dual: bool, cycles: usize) -> (f64, f64, Timeline) {
    let mut cfg = PlumConfig::new(SCENARIO_NPROC);
    cfg.policy = RemapPolicy::BeforeRefinement;
    let mut p = Plum::new(initial_mesh(scale), WaveField::unit_box(), cfg);
    let w2 = particle_band(&p);
    if dual {
        p.wcomp2 = Some(w2.clone());
    }
    let mut timeline = Timeline::new();
    for _ in 0..cycles {
        record_timeline_row(&mut timeline, &p.adaption_cycle(0.2, 0.05));
    }
    let (wcomp, _) = p.am.weights();
    let fluid = imbalance(&weights_of(&wcomp, &p.proc_of_root, SCENARIO_NPROC));
    let particles = imbalance(&weights_of(&w2, &p.proc_of_root, SCENARIO_NPROC));
    (fluid, particles, timeline)
}

/// The dual BENCH run. Asserts the scenario's acceptance criteria: both
/// constraints ≤ 1.15 under dual balancing where single-constraint
/// balancing leaves the particle constraint ≥ 1.5.
pub fn dual_bench(scale: Scale) -> (BenchReport, String) {
    let cycles = 3;
    let (single_fluid, single_particles, _) = dual_arm(scale, false, cycles);
    let (dual_fluid, dual_particles, dual_timeline) = dual_arm(scale, true, cycles);
    assert!(
        single_particles >= 1.5,
        "single-constraint balancing should leave the particle constraint \
         unbalanced (≥ 1.5): got {single_particles:.3}"
    );
    assert!(
        dual_fluid <= 1.15 && dual_particles <= 1.15,
        "dual balancing must hold both constraints ≤ 1.15: \
         fluid {dual_fluid:.3}, particles {dual_particles:.3}"
    );

    let mut b = BenchReport::new("dual");
    b.meta_str("git_sha", &git_sha())
        .meta_str("scale", &format!("{scale:?}"))
        .meta_num("nproc", SCENARIO_NPROC as f64)
        .meta_num("cycles", cycles as f64);
    b.set("balance.dual.fluid_imbalance", dual_fluid)
        .set("balance.dual.particle_imbalance", dual_particles)
        .set("info.dual.single_fluid_imbalance", single_fluid)
        .set("info.dual.single_particle_imbalance", single_particles);
    b.timeline = Some(dual_timeline);

    let analysis = format!(
        "dual @ P={SCENARIO_NPROC}: fluid leaves + 200×-band particle weights\n\
         {:>18} {:>9} {:>10}\n\
         {:>18} {:>9.3} {:>10.3}\n\
         {:>18} {:>9.3} {:>10.3}\n\
         => dual balancing holds both ≤ 1.15 where single leaves particles at {:.3}\n",
        "arm",
        "fluid",
        "particles",
        "single-constraint",
        single_fluid,
        single_particles,
        "dual-constraint",
        dual_fluid,
        dual_particles,
        single_particles,
    );
    (b, analysis)
}

/// The trace audit of one cycle's session timeline (SPMD-clean, phase
/// accounting closed to 1e-9). On violation the session's Chrome trace is
/// written to `scenario-failure-<what>.json` (the artifact CI uploads)
/// before the panic. Returns the session's virtual makespan.
fn check_session(r: &CycleReport, what: &str) -> f64 {
    let session = &r.traces.session;
    session.audit().unwrap_or_else(|e| {
        let artifact = format!("scenario-failure-{}.json", what.replace(' ', "-"));
        if std::fs::write(&artifact, session.chrome_json()).is_ok() {
            eprintln!("# wrote failing session trace to {artifact}");
        }
        panic!("{what}: {e}")
    })
}

/// The cascade BENCH run: two refinement cycles as the shock passes, two
/// coarsening cycles as it recedes, at P = [`CASCADE_NPROC`]. Asserts the
/// up-then-down element trajectory and the session invariants on every
/// cycle.
pub fn cascade_bench(scale: Scale) -> (BenchReport, String) {
    let mut cfg = PlumConfig::new(CASCADE_NPROC);
    cfg.policy = RemapPolicy::BeforeRefinement;
    let mut p = Plum::new(initial_mesh(scale), WaveField::unit_box(), cfg);
    let initial = p.am.mesh.n_elems();

    let mut elems = vec![initial];
    let mut timeline = Timeline::new();
    let mut virtual_seconds = 0.0;
    let mut coarsen_seconds = 0.0;
    let mut analysis = format!(
        "cascade @ P={CASCADE_NPROC}: shock passes (refine ×2) and recedes (coarsen ×2)\n\
         {:>8} {:>10} {:>9} {:>12} {:>12}\n",
        "cycle", "elements", "growth", "makespan", "coarsen s"
    );
    for i in 0..2 {
        let r = p.adaption_cycle(0.3, 0.15);
        virtual_seconds += check_session(&r, &format!("refine cycle {i}"));
        record_timeline_row(&mut timeline, &r);
        elems.push(r.counts.elements);
        analysis.push_str(&format!(
            "{:>8} {:>10} {:>9.3} {:>12.4} {:>12.4}\n",
            format!("refine{i}"),
            r.counts.elements,
            r.growth,
            virtual_seconds,
            0.0
        ));
    }
    let peak = *elems.last().unwrap();
    for i in 0..2 {
        let r = p.coarsen_cycle(0.6, 0.3);
        virtual_seconds += check_session(&r, &format!("coarsen cycle {i}"));
        record_timeline_row(&mut timeline, &r);
        assert!(r.growth <= 1.0, "coarsen cycle {i} grew: {}", r.growth);
        coarsen_seconds += r.times.coarsen;
        elems.push(r.counts.elements);
        analysis.push_str(&format!(
            "{:>8} {:>10} {:>9.3} {:>12.4} {:>12.4}\n",
            format!("coarsen{i}"),
            r.counts.elements,
            r.growth,
            virtual_seconds,
            r.times.coarsen
        ));
    }
    let final_elems = *elems.last().unwrap();
    assert!(peak > initial, "the shock must refine: {initial} -> {peak}");
    assert!(
        final_elems < peak,
        "the recession must de-refine: peak {peak}, final {final_elems}"
    );
    p.am.validate();

    let mut b = BenchReport::new("cascade");
    b.meta_str("git_sha", &git_sha())
        .meta_str("scale", &format!("{scale:?}"))
        .meta_num("nproc", CASCADE_NPROC as f64)
        .meta_num("initial_elements", initial as f64)
        .meta_num("peak_elements", peak as f64);
    b.set("cascade.virtual_seconds", virtual_seconds)
        .set("phase.coarsen.seconds", coarsen_seconds)
        .set("cascade.final_elements", final_elems as f64)
        .set("rate.cascade.elements_removed", (peak - final_elems) as f64);
    // The refine-refine-coarsen-coarsen trajectory, one row per cycle.
    b.timeline = Some(timeline);

    analysis.push_str(&format!(
        "=> {initial} -> {peak} -> {final_elems} elements; \
         coarsen phases {coarsen_seconds:.4}s of {virtual_seconds:.4}s total\n"
    ));
    (b, analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance criterion of the hotspot scenario: measured-cost
    /// balancing cuts the steady-state true-cost imbalance ≥ 2× versus the
    /// unit-cost assumption (asserted inside `hotspot_bench`). The report
    /// is the committed baseline bit for bit.
    #[test]
    fn hotspot_measured_cost_cuts_imbalance_2x() {
        let (b, analysis) = hotspot_bench(Scale::Quick);
        b.validate().expect("schema-valid report");
        assert!(b.metrics["rate.hotspot.imbalance_reduction"] >= 2.0);
        assert!(
            b.metrics["balance.hotspot.measured_units_imbalance"]
                < b.metrics["info.hotspot.unit_units_imbalance"]
        );
        assert!(analysis.contains("reduction"));
        crate::report::assert_reproduces_baseline(&b, "BENCH_hotspot.json");
    }

    /// Acceptance criteria of the dual scenario (asserted inside
    /// `dual_bench`): both constraints ≤ 1.15 under dual balancing, the
    /// particle constraint ≥ 1.5 under single-constraint balancing. The
    /// report is the committed baseline bit for bit.
    #[test]
    fn dual_balancing_holds_both_constraints() {
        let (b, _) = dual_bench(Scale::Quick);
        b.validate().expect("schema-valid report");
        assert!(b.metrics["balance.dual.fluid_imbalance"] <= 1.15);
        assert!(b.metrics["balance.dual.particle_imbalance"] <= 1.15);
        assert!(b.metrics["info.dual.single_particle_imbalance"] >= 1.5);
        crate::report::assert_reproduces_baseline(&b, "BENCH_dual.json");
    }

    /// Acceptance criteria of the cascade scenario: protocol-clean at
    /// P = 64, 1e-9 accounting on every session, element trajectory up
    /// then down (all asserted inside `cascade_bench`). The report, its
    /// per-cycle timeline included, is the committed baseline bit for bit.
    #[test]
    fn cascade_runs_protocol_clean_at_p64() {
        let (b, analysis) = cascade_bench(Scale::Quick);
        b.validate().expect("schema-valid report");
        assert!(b.metrics["phase.coarsen.seconds"] > 0.0);
        assert!(b.metrics["rate.cascade.elements_removed"] >= 1.0);
        assert!(analysis.contains("coarsen"));
        crate::report::assert_reproduces_baseline(&b, "BENCH_cascade.json");
    }
}
