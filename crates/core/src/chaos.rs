//! Cycle-granularity chaos description for the engine.
//!
//! `plum-parsim` injects faults at *session-step* granularity
//! ([`FaultPlan`]); the framework schedules chaos per *adaption cycle*:
//! a persistent per-rank slowdown profile, link jitter, and transient
//! faults keyed by cycle index, all mapped onto each cycle's
//! [`plum_parsim::Session`] when the engine opens the cycle. The test-only
//! per-phase oracle (`Plum::adaption_cycle_reference`) ignores chaos
//! entirely — it exists as the clean golden baseline.

use plum_parsim::{Fault, FaultPlan, Perturbation, RankProfile};

/// Deterministic chaos the engine injects into every cycle.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Per-rank compute-speed multipliers (1.0 = nominal, 2.0 = half
    /// speed). Applied to the solver/subdivision cost models and to every
    /// `Comm::compute` charge inside the session.
    pub profile: Vec<f64>,
    /// Per-message latency jitter amplitude in `[0, 1)`; flight times are
    /// scaled by a seeded factor in `[1 − a, 1 + a]`.
    pub link_jitter: f64,
    /// Seed for the jitter stream (results are invariant under it; only
    /// virtual times move).
    pub seed: u64,
    /// Transient faults: `(cycle, fault)` — injected into the session of
    /// the given engine cycle (the fault's `step` indexes session steps
    /// within that cycle).
    pub cycle_faults: Vec<(u64, Fault)>,
}

impl ChaosConfig {
    /// No chaos: the engine behaves bit-identically to a plain session.
    pub fn none(nproc: usize) -> Self {
        ChaosConfig {
            profile: vec![1.0; nproc],
            link_jitter: 0.0,
            seed: 0,
            cycle_faults: Vec::new(),
        }
    }

    /// Permanent slowdown of one rank by `factor` (≥ 1.0).
    pub fn slowdown(nproc: usize, rank: usize, factor: f64) -> Self {
        assert!(rank < nproc);
        assert!(factor >= 1.0, "slowdown factor must be ≥ 1.0");
        let mut c = ChaosConfig::none(nproc);
        c.profile[rank] = factor;
        c
    }

    /// True when this config perturbs nothing.
    pub fn is_none(&self) -> bool {
        self.profile.iter().all(|&m| m == 1.0)
            && self.link_jitter == 0.0
            && self.cycle_faults.is_empty()
    }

    /// Number of ranks this config describes.
    pub fn nproc(&self) -> usize {
        self.profile.len()
    }

    /// The parsim perturbation for one cycle's session.
    pub fn perturbation(&self) -> Perturbation {
        let mut profile = RankProfile::uniform(self.nproc());
        for (r, &m) in self.profile.iter().enumerate() {
            profile.set_mult(r, m);
        }
        Perturbation {
            profile,
            link_jitter: self.link_jitter,
            seed: self.seed,
        }
    }

    /// The fault plan for the session of engine cycle `cycle`.
    pub fn plan_for_cycle(&self, cycle: u64) -> FaultPlan {
        let mut plan = FaultPlan::none();
        for (c, f) in &self.cycle_faults {
            if *c == cycle {
                plan.push(*f);
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plum_parsim::FaultAction;

    #[test]
    fn none_is_none() {
        let c = ChaosConfig::none(8);
        assert!(c.is_none());
        assert_eq!(c.nproc(), 8);
        assert!(c.perturbation().is_none());
        assert!(c.plan_for_cycle(0).is_empty());
    }

    #[test]
    fn slowdown_marks_one_rank() {
        let c = ChaosConfig::slowdown(4, 2, 2.0);
        assert!(!c.is_none());
        assert_eq!(c.profile, vec![1.0, 1.0, 2.0, 1.0]);
        assert_eq!(c.perturbation().profile.mult(2), 2.0);
    }

    #[test]
    fn cycle_faults_route_to_their_cycle() {
        let mut c = ChaosConfig::none(2);
        c.cycle_faults.push((
            1,
            Fault {
                rank: 0,
                step: 0,
                action: FaultAction::Stall { seconds: 0.5 },
            },
        ));
        assert!(c.plan_for_cycle(0).is_empty());
        assert_eq!(c.plan_for_cycle(1).faults().len(), 1);
        assert!(c.plan_for_cycle(2).is_empty());
    }
}
