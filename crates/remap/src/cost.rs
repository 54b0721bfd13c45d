//! The gain/cost acceptance model (§4.5–4.6).
//!
//! A new partitioning is only adopted if the computational gain of balance
//! exceeds the cost of moving the data:
//!
//! ```text
//! T_iter · N_adapt · (W_max_old − W_max_new) + T_refine · (R_max_old − R_max_new)
//!     >  M · C · T_lat + N · T_setup
//! ```
//!
//! `C` and `N` are what the caller charges. The paper allows machine-wide
//! totals (TotalV) or the bottleneck processor's flow (MaxV); `plum-core`'s
//! acceptance test charges MaxV, the busiest rank's elements and transfers,
//! since a parallel direct exchange finishes when its busiest rank does.

use plum_parsim::MachineModel;

/// All constants of the gain/cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Time to run one solver iteration on one element (`T_iter`).
    pub t_iter: f64,
    /// Solver iterations between mesh adaptions (`N_adapt`).
    pub n_adapt: u64,
    /// Time to subdivide, per new element created (`T_refine` scale).
    pub t_refine: f64,
    /// Storage words that move with each element (`M`: solver + adaptor
    /// state).
    pub m_words: u64,
    /// Machine constants (`T_setup`, `T_lat`).
    pub machine: MachineModel,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            t_iter: 1.2e-5,
            n_adapt: 50,
            t_refine: 1.0e-5,
            m_words: 48,
            machine: MachineModel::sp2(),
        }
    }
}

impl CostModel {
    /// Computational gain of adopting the new partitioning (§4.6):
    /// solver-phase gain plus the subdivision-phase gain from load balanced
    /// refinement. `wmax` are the per-processor maxima of `W_comp`; `rmax`
    /// the maxima of new-elements-to-create.
    pub fn computational_gain(
        &self,
        wmax_old: u64,
        wmax_new: u64,
        rmax_old: u64,
        rmax_new: u64,
    ) -> f64 {
        let solver = self.t_iter * self.n_adapt as f64 * (wmax_old as f64 - wmax_new as f64);
        let refine = self.t_refine * (rmax_old as f64 - rmax_new as f64);
        solver + refine
    }

    /// Redistribution cost `M·C·T_lat + N·T_setup` for `elems` elements in
    /// `msgs` messages.
    pub fn redistribution_cost(&self, elems: u64, msgs: u64) -> f64 {
        (self.m_words * elems) as f64 * self.machine.t_word + msgs as f64 * self.machine.t_setup
    }

    /// The acceptance test: is the gain strictly larger than the cost?
    pub fn should_accept(&self, gain: f64, cost: f64) -> bool {
        gain > cost
    }
}

/// Maximum possible impact of load balancing on solver time for one
/// refinement step (Fig. 7): with growth factor `G` on `P` processors, the
/// worst case concentrates all 1-to-8 refinement on few processors, and
/// balancing wins a factor `min(8, P(G−1)+1) / G`.
pub fn max_balancing_improvement(p: usize, g: f64) -> f64 {
    assert!((1.0..=8.0).contains(&g), "growth factor must be in [1, 8]");
    (8.0f64).min(p as f64 * (g - 1.0) + 1.0) / g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_is_linear_in_imbalance_reduction() {
        let m = CostModel::default();
        let g1 = m.computational_gain(1000, 500, 0, 0);
        let g2 = m.computational_gain(2000, 1000, 0, 0);
        assert!(g1 > 0.0);
        assert!((g2 - 2.0 * g1).abs() < 1e-12);
        // No reduction, no gain.
        assert_eq!(m.computational_gain(700, 700, 10, 10), 0.0);
    }

    #[test]
    fn refinement_term_contributes() {
        let m = CostModel::default();
        let without = m.computational_gain(1000, 500, 0, 0);
        let with = m.computational_gain(1000, 500, 800, 100);
        assert!(with > without);
    }

    #[test]
    fn cost_has_volume_and_message_terms() {
        let m = CostModel::default();
        let c_small = m.redistribution_cost(0, 10);
        let c_big = m.redistribution_cost(100_000, 10);
        assert!((c_small - 10.0 * m.machine.t_setup).abs() < 1e-12);
        assert!(c_big > c_small);
    }

    #[test]
    fn accept_requires_strict_gain() {
        let m = CostModel::default();
        assert!(m.should_accept(1.0, 0.5));
        assert!(!m.should_accept(0.5, 0.5));
        assert!(!m.should_accept(0.1, 0.5));
    }

    #[test]
    fn fig7_values_match_paper() {
        // G = 1.353 → max improvement 5.91 for P ≥ 20.
        assert!((max_balancing_improvement(64, 1.353) - 8.0 / 1.353).abs() < 1e-12);
        assert!((max_balancing_improvement(64, 1.353) - 5.913).abs() < 5e-3);
        // G = 3.310 → 2.42 for P ≥ 4.
        assert!((max_balancing_improvement(64, 3.310) - 2.417).abs() < 5e-3);
        assert!((max_balancing_improvement(4, 3.310) - 2.417).abs() < 5e-3);
        // G = 5.279 → 1.52 for P ≥ 2.
        assert!((max_balancing_improvement(64, 5.279) - 1.515).abs() < 5e-3);
        assert!((max_balancing_improvement(2, 5.279) - 1.515).abs() < 5e-3);
    }

    #[test]
    fn fig7_no_improvement_at_extremes() {
        // G = 1 (nothing refined): no improvement.
        assert!((max_balancing_improvement(64, 1.0) - 1.0).abs() < 1e-12);
        // G = 8 (everything refined): already balanced.
        assert!((max_balancing_improvement(64, 8.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig7_ramp_before_plateau() {
        // Before the plateau the curve ramps linearly in P.
        let g = 1.353;
        let v2 = max_balancing_improvement(2, g);
        let v8 = max_balancing_improvement(8, g);
        let v20 = max_balancing_improvement(20, g);
        assert!(
            v2 < v8 && v8 < v20,
            "ramp must be increasing: {v2} {v8} {v20}"
        );
        assert!((v2 - (2.0 * (g - 1.0) + 1.0) / g).abs() < 1e-12);
    }
}
