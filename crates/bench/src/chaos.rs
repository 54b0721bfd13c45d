//! Chaos recovery experiment: `reproduce -- fig6 --chaos <seed>`.
//!
//! One rank (chosen by the seed) runs at half speed; the capacity-weighted
//! balancer must observe the slowdown from the solver rates and shift load
//! off the slow processor until the *effective* makespan — every rank's
//! solver share divided by its speed — is within 20% of the initial gap of
//! the capacity-ideal partition, within three adaption cycles. The link
//! jitter stream is also seeded, so every seed exercises a different
//! virtual-time schedule while the discrete results stay deterministic.

use plum_core::{ChaosConfig, Plum, PlumConfig};
use plum_partition::{imbalance, weights_of};
use plum_solver::{CostField, WaveField};

use crate::{initial_mesh, Scale, CASES};

/// One adaption cycle of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    pub cycle: usize,
    /// Virtual makespan of the cycle: max over ranks of the session
    /// timeline's accounted time. Purely virtual, so runs are
    /// byte-reproducible.
    pub makespan: f64,
    /// Capacity-weighted solver imbalance after the cycle (1.0 = ideal).
    pub eff_imbalance: f64,
    /// Raw (count) imbalance after the cycle — expected to *rise* as load
    /// shifts off the slow rank.
    pub raw_imbalance: f64,
    /// Observed capacity of the slowed rank this cycle.
    pub slow_capacity: f64,
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
    pub rows: Vec<ChaosRow>,
    /// True when some cycle closed ≥ 80% of `gap_before`.
    pub recovered: bool,
    /// Chrome-trace JSON of the last cycle's session timeline (the failure
    /// artifact CI uploads).
    pub trace_json: String,
}

/// Run the recovery experiment: slow one rank 2×, then let the
/// capacity-weighted balancer react for up to three cycles.
pub fn chaos_recovery(scale: Scale, seed: u64) -> ChaosRun {
    run_recovery(scale, seed, false)
}

/// The hotspot row of the chaos matrix: the 2×-slow rank *and* a 40×
/// moving cost hotspot at once. The balancer must disentangle the two —
/// the estimator attributes the hotspot to elements, the capacity model
/// attributes the slowdown to the rank — and still close ≥ 80% of the
/// initial effective gap within three cycles. Effective imbalance folds in
/// the *true* per-element cost, which the balancer never sees.
pub fn hotspot_chaos_recovery(scale: Scale, seed: u64) -> ChaosRun {
    run_recovery(scale, seed, true)
}

fn run_recovery(scale: Scale, seed: u64, hotspot: bool) -> ChaosRun {
    let nproc = *scale.procs().last().unwrap();
    let slow_rank = (seed % nproc as u64) as usize;
    let factor = 2.0;

    let mut plum = Plum::new(
        initial_mesh(scale),
        WaveField::unit_box(),
        PlumConfig::new(nproc),
    );
    plum.chaos = ChaosConfig::slowdown(nproc, slow_rank, factor);
    plum.chaos.seed = seed;
    plum.chaos.link_jitter = 0.1;
    if hotspot {
        plum.cost_field = CostField::MovingHotspot {
            radius: 0.35,
            amplitude: 40.0,
        };
    }

    let mut rows = Vec::new();
    let mut gap_before = 0.0;
    let mut recovered = false;
    let mut trace_json = String::new();
    for cycle in 0..3 {
        let r = plum.adaption_cycle(CASES[1].1, 0.1);
        if cycle == 0 {
            gap_before = r.decision.imbalance_old - 1.0;
        }
        let (wcomp, _) = plum.am.weights();
        let load = weights_of(&wcomp, &plum.proc_of_root, plum.cfg.nproc);
        let eff = if hotspot {
            // Capacity-weighted imbalance of *true-cost* units: the run
            // only counts as recovered if the real work (not the element
            // count) sits evenly across the observed processor speeds.
            let units = Plum::solver_units(
                &wcomp,
                &plum.proc_of_root,
                nproc,
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
        } else {
            r.effective_imbalance(&load)
        };
        let makespan = r.traces.session.summary().makespan();
        rows.push(ChaosRow {
            cycle,
            makespan,
            eff_imbalance: eff,
            raw_imbalance: imbalance(&load),
            slow_capacity: r.capacity[slow_rank],
            accepted: r.decision.accepted,
        });
        trace_json = r.traces.session.chrome_json();
        if eff - 1.0 <= 0.2 * gap_before {
            recovered = true;
            break;
        }
    }

    ChaosRun {
        seed,
        nproc,
        slow_rank,
        factor,
        gap_before,
        rows,
        recovered,
        trace_json,
    }
}

/// Print a chaos run as a per-cycle table.
pub fn print_chaos(run: &ChaosRun) {
    println!(
        "Chaos recovery: seed {}, P={}, rank {} slowed {}×, initial effective gap {:.3}",
        run.seed, run.nproc, run.slow_rank, run.factor, run.gap_before
    );
    println!(
        "{:>6} {:>12} {:>9} {:>9} {:>9} {:>9}",
        "cycle", "makespan", "eff_imb", "raw_imb", "cap_slow", "accepted"
    );
    for row in &run.rows {
        println!(
            "{:>6} {:>12.6} {:>9.3} {:>9.3} {:>9.3} {:>9}",
            row.cycle,
            row.makespan,
            row.eff_imbalance,
            row.raw_imbalance,
            row.slow_capacity,
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
        1.0 + 0.2 * run.gap_before
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_chaos_run_recovers() {
        let run = chaos_recovery(Scale::Quick, 11);
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
        assert_eq!(run.slow_rank, 7);
        assert!(run.recovered, "{run:?}");
        assert_eq!(run.rows.len(), 1, "must recover in the first cycle");
        assert!(run.rows[0].eff_imbalance < 1.10, "{run:?}");
    }
}
