//! Chaos recovery: `reproduce -- fig6 | hotspot | rematch --chaos <seed>`.
//!
//! One rank (seed mod P) computes 2× slower and every link jitters by
//! ±10 % on the seed's stream, so every seed exercises a different
//! virtual-time schedule while the discrete results stay deterministic.
//! The capacity-weighted balancer must observe the slowdown from the solver
//! rates and shift load off the slow processor within three Real_2
//! adaption cycles. The runs differ only in their `Plum`, their
//! effective-imbalance measure and their recovery criterion:
//!
//! * **fig6** — the quick fig6 mesh at the sweep's largest P; recovered
//!   once a cycle closes ≥ 80 % of the effective gap the balancer observed
//!   on the first cycle;
//! * **hotspot** — the same with a 40× moving cost hotspot layered on top:
//!   the estimator must attribute the hotspot to elements and the capacity
//!   model the slowdown to the rank, so the effective imbalance folds in
//!   the *true* per-element cost, which the balancer never sees;
//! * **rematch** — [`crate::rematch::rematch_chaos_recovery`].

use plum_core::{BalanceMethod, CycleReport, Plum, PlumConfig};
use plum_parsim::Perturbation;
use plum_partition::{imbalance, weights_of};
use plum_solver::{CostField, WaveField};

use crate::{initial_mesh, Scale, CASES};

/// The machine of a chaos run seeded `seed` on `nproc` ranks: rank
/// `seed mod nproc` computes 2× slower and every link jitters by ±10 % on
/// the seed's stream. Returns the slowed rank with it.
pub(crate) fn seeded_chaos(nproc: usize, seed: u64) -> (usize, Perturbation) {
    let slow_rank = (seed % nproc as u64) as usize;
    let mut chaos = Perturbation::slowdown(nproc, slow_rank, 2.0);
    chaos.link_jitter = 0.1;
    chaos.seed = seed;
    (slow_rank, chaos)
}

/// When a chaos run counts as recovered.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Recovery {
    /// Some cycle closes ≥ 80 % of the effective-imbalance gap the
    /// balancer observed on the first cycle.
    GapClosed,
    /// Some cycle's effective imbalance is at most this bound.
    AtMost(f64),
}

/// One adaption cycle of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    pub cycle: usize,
    /// Virtual makespan of the cycle, from the audit of its session
    /// timeline (protocol-clean, phase accounting closed to 1e-9). Purely
    /// virtual, so runs are byte-reproducible.
    pub makespan: f64,
    /// Effective imbalance after the cycle under the run's measure
    /// (1.0 = ideal).
    pub eff_imbalance: f64,
    /// Raw (count) imbalance after the cycle — expected to *rise* as load
    /// shifts off the slow rank.
    pub raw_imbalance: f64,
    /// Observed capacity of the slowed rank this cycle.
    pub slow_capacity: f64,
    /// Which method the policy selected (`None`: no repartition ran).
    pub method: Option<BalanceMethod>,
    /// Whether the balancer adopted a new mapping this cycle.
    pub accepted: bool,
}

/// Full record of one seeded chaos run.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    pub seed: u64,
    pub nproc: usize,
    pub slow_rank: usize,
    pub factor: f64,
    /// Effective-imbalance gap (imbalance − 1) observed by the balancer on
    /// the first cycle, before any capacity-aware rebalance.
    pub gap_before: f64,
    /// The effective imbalance the run had to reach.
    pub target: f64,
    pub rows: Vec<ChaosRow>,
    /// True when some cycle met the recovery criterion.
    pub recovered: bool,
    /// Chrome-trace JSON of the last cycle's session timeline (the failure
    /// artifact CI uploads).
    pub trace_json: String,
}

/// The fig6 row of the chaos matrix.
pub fn chaos_recovery(scale: Scale, seed: u64) -> ChaosRun {
    recover(
        fig6_plum(scale),
        seed,
        capacity_imbalance,
        Recovery::GapClosed,
    )
}

/// The hotspot row of the chaos matrix: the fig6 row plus a 40× moving
/// cost hotspot.
pub fn hotspot_chaos_recovery(scale: Scale, seed: u64) -> ChaosRun {
    let mut plum = fig6_plum(scale);
    plum.cost_field = CostField::MovingHotspot {
        radius: 0.35,
        amplitude: 40.0,
    };
    recover(plum, seed, true_cost_imbalance, Recovery::GapClosed)
}

fn fig6_plum(scale: Scale) -> Plum {
    let nproc = *scale.procs().last().unwrap();
    Plum::new(
        initial_mesh(scale),
        WaveField::unit_box(),
        PlumConfig::new(nproc),
    )
}

/// Capacity-weighted imbalance of the adopted assignment's leaf counts.
pub(crate) fn capacity_imbalance(plum: &Plum, r: &CycleReport) -> f64 {
    let (wcomp, _) = plum.am.weights();
    r.effective_imbalance(&weights_of(&wcomp, &plum.proc_of_root, plum.cfg.nproc))
}

/// Capacity-weighted imbalance of *true-cost* units: the run only counts
/// as recovered if the real work (not the element count) sits evenly
/// across the observed processor speeds.
fn true_cost_imbalance(plum: &Plum, r: &CycleReport) -> f64 {
    let (wcomp, _) = plum.am.weights();
    let units = Plum::solver_units(
        &wcomp,
        &plum.proc_of_root,
        plum.cfg.nproc,
        plum.true_cost().as_deref(),
    );
    let total: f64 = units.iter().sum();
    let cap_total: f64 = r.capacity.iter().sum();
    units
        .iter()
        .zip(&r.capacity)
        .map(|(u, c)| u / c)
        .fold(0.0, f64::max)
        / (total / cap_total)
}

/// Run `plum` on the machine [`seeded_chaos`] builds for `seed` for up to
/// three Real_2 adaption cycles, until the effective imbalance `effective`
/// measures meets `criterion`.
pub(crate) fn recover(
    mut plum: Plum,
    seed: u64,
    effective: fn(&Plum, &CycleReport) -> f64,
    criterion: Recovery,
) -> ChaosRun {
    let nproc = plum.cfg.nproc;
    let (slow_rank, chaos) = seeded_chaos(nproc, seed);
    let factor = chaos.profile[slow_rank];
    plum.chaos = chaos;

    let mut rows = Vec::new();
    let mut gap_before = 0.0;
    let mut recovered = false;
    let mut trace_json = String::new();
    for cycle in 0..3 {
        let r = plum.adaption_cycle(CASES[1].1, 0.1);
        let makespan = (r.traces.session.audit())
            .unwrap_or_else(|e| panic!("chaos seed {seed} cycle {cycle}: {e}"));
        if cycle == 0 {
            gap_before = r.decision.imbalance_old - 1.0;
        }
        let eff = effective(&plum, &r);
        let (wcomp, _) = plum.am.weights();
        rows.push(ChaosRow {
            cycle,
            makespan,
            eff_imbalance: eff,
            raw_imbalance: imbalance(&weights_of(&wcomp, &plum.proc_of_root, nproc)),
            slow_capacity: r.capacity[slow_rank],
            method: r.decision.method,
            accepted: r.decision.accepted,
        });
        trace_json = r.traces.session.chrome_json();
        recovered = match criterion {
            Recovery::GapClosed => eff - 1.0 <= 0.2 * gap_before,
            Recovery::AtMost(target) => eff <= target,
        };
        if recovered {
            break;
        }
    }

    ChaosRun {
        seed,
        nproc,
        slow_rank,
        factor,
        gap_before,
        target: match criterion {
            Recovery::GapClosed => 1.0 + 0.2 * gap_before,
            Recovery::AtMost(target) => target,
        },
        rows,
        recovered,
        trace_json,
    }
}

/// Print a chaos run of experiment `what` as a per-cycle table.
pub fn print_chaos(what: &str, run: &ChaosRun) {
    println!(
        "Chaos recovery ({what}): seed {}, P={}, rank {} slowed {}×, initial effective gap {:.3}",
        run.seed, run.nproc, run.slow_rank, run.factor, run.gap_before
    );
    println!(
        "{:>6} {:>12} {:>9} {:>9} {:>9} {:>13} {:>9}",
        "cycle", "makespan", "eff_imb", "raw_imb", "cap_slow", "method", "accepted"
    );
    for row in &run.rows {
        println!(
            "{:>6} {:>12.6} {:>9.3} {:>9.3} {:>9.3} {:>13} {:>9}",
            row.cycle,
            row.makespan,
            row.eff_imbalance,
            row.raw_imbalance,
            row.slow_capacity,
            row.method.map_or("-", |m| m.name()),
            row.accepted
        );
    }
    let last = run.rows.last().expect("at least one cycle");
    println!(
        "=> {} (effective imbalance {:.3}, target ≤ {:.3})",
        if run.recovered {
            "RECOVERED"
        } else {
            "NOT RECOVERED"
        },
        last.eff_imbalance,
        run.target
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_chaos_run_recovers() {
        let run = chaos_recovery(Scale::Quick, 11);
        // Pinned: row count, each row's makespan and effective-imbalance
        // bits, and whether it adopted a new mapping.
        let rows: Vec<_> = (run.rows.iter())
            .map(|r| (r.makespan.to_bits(), r.eff_imbalance.to_bits(), r.accepted))
            .collect();
        assert_eq!(rows, [(0x3fbb_1562_a42b_7be2, 0x3ff0_c7a9_1d7a_91d9, true)]);
        assert_eq!(run.nproc, 16);
        assert_eq!(run.slow_rank, 11);
        assert!(run.gap_before > 0.5, "gap {}", run.gap_before);
        assert!(run.recovered, "{run:?}");
        assert!(run.rows.iter().any(|r| r.accepted));
        assert!(!run.trace_json.is_empty());
    }

    /// The hotspot chaos row must recover even with a 40× moving cost
    /// hotspot layered on top of the 2× rank slowdown.
    #[test]
    fn quick_hotspot_chaos_run_recovers() {
        let run = hotspot_chaos_recovery(Scale::Quick, 3);
        // Pinned: row count, each row's makespan and effective-imbalance
        // bits, and whether it adopted a new mapping.
        let rows: Vec<_> = (run.rows.iter())
            .map(|r| (r.makespan.to_bits(), r.eff_imbalance.to_bits(), r.accepted))
            .collect();
        assert_eq!(rows, [(0x3fe0_9a4c_3780_7de4, 0x3ff1_4f96_6b7f_ccaa, true)]);
        assert_eq!(run.nproc, 16);
        assert_eq!(run.slow_rank, 3);
        assert!(run.gap_before > 0.0, "gap {}", run.gap_before);
        assert!(run.recovered, "{run:?}");
        assert!(!run.trace_json.is_empty());
    }

    /// Seed 7 once regressed when the distributed repartitioner's coarsest
    /// solve relabeled the parts (fresh-partition fallback) and the
    /// similarity mapper then permuted the capacity-sized parts onto the
    /// wrong processors. Recovery must happen in the very first cycle.
    #[test]
    fn quick_chaos_recovers_with_capacity_sized_parts() {
        let run = chaos_recovery(Scale::Quick, 7);
        // Pinned: row count, each row's makespan and effective-imbalance
        // bits, and whether it adopted a new mapping.
        let rows: Vec<_> = (run.rows.iter())
            .map(|r| (r.makespan.to_bits(), r.eff_imbalance.to_bits(), r.accepted))
            .collect();
        assert_eq!(rows, [(0x3fb6_85a1_de59_f018, 0x3ff0_cdac_37da_c37f, true)]);
        assert_eq!(run.slow_rank, 7);
        assert!(run.recovered, "{run:?}");
        assert_eq!(run.rows.len(), 1, "must recover in the first cycle");
        assert!(run.rows[0].eff_imbalance < 1.10, "{run:?}");
    }

    /// A `Plum` nobody perturbs runs on the unperturbed machine: one
    /// multiplier per rank, no jitter, and a cycle's session accounts for
    /// every rank's time.
    #[test]
    fn none_is_none() {
        let mut plum = fig6_plum(Scale::Quick);
        assert!(plum.chaos.is_none());
        assert_eq!(plum.chaos.profile.len(), plum.cfg.nproc);
        let r = plum.adaption_cycle(CASES[1].1, 0.1);
        r.traces.session.audit().unwrap();
    }
}
