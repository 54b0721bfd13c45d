//! What imbalance can cost the solver: Fig. 7's analytic bound on the
//! improvement load balancing can buy.

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
