//! Work-unit constants behind the virtual clock's compute charges.
//!
//! Every phase runs inside a `plum-parsim` session. The executed phases
//! (marking propagation, the repartitioner, the similarity-matrix
//! gather/scatter, data migration) get their times from real message
//! traffic plus per-rank compute charges derived from these constants
//! (`t_mark_elem` per marking sweep element, `t_part_vertex` per
//! repartitioner vertex). The modeled phases (solver sweeps, subdivision,
//! coarsening) charge each rank host-computed seconds from its operation
//! counts. The constants are calibrated so the 64-processor figures land in
//! the regime the paper reports (see EXPERIMENTS.md).
//!
//! The load balancer's gain/cost acceptance test (§4.5–4.6) prices a
//! proposed remap with the same constants and the session's
//! [`MachineModel`], so a second it predicts is a second the clock charges:
//!
//! ```text
//! N_adapt · solver(W_max_old − W_max_new) + t_child · (R_max_old − R_max_new)
//!     >  M · C · T_lat + N · T_setup
//! ```
//!
//! `C` and `N` are the busiest rank's elements and transfers (the paper's
//! MaxV `C_max`, `N_max`): a parallel direct exchange finishes when its
//! busiest rank does.

use plum_parsim::MachineModel;

/// Work-unit constants for the modeled phases (seconds per unit), plus the
/// solver iterations the solver phase runs per adaption (`N_adapt`) and the
/// words the acceptance test charges per moved element (`M`).
#[derive(Debug, Clone, Copy)]
pub struct WorkModel {
    /// One flux evaluation (edge visit) in the solver.
    pub t_edge_visit: f64,
    /// Visiting one element during a marking sweep.
    pub t_mark_elem: f64,
    /// Creating one child element during subdivision (incl. its share of
    /// edge/vertex bookkeeping).
    pub t_child: f64,
    /// Per-vertex work of one multilevel partitioner level (matching +
    /// contraction + refinement).
    pub t_part_vertex: f64,
    /// Solver iterations between mesh adaptions (`N_adapt`).
    pub n_adapt: u64,
    /// Storage words that move with each element (`M`: solver + adaptor
    /// state).
    pub m_words: u64,
}

impl Default for WorkModel {
    fn default() -> Self {
        WorkModel {
            t_edge_visit: 1.1e-6,
            t_mark_elem: 0.35e-6,
            t_child: 9.0e-6,
            t_part_vertex: 4.4e-6,
            n_adapt: 50,
            m_words: 48,
        }
    }
}

impl WorkModel {
    /// Modeled time of one subdivision phase on a rank that creates
    /// `children` new elements and sweeps `elems_visited` elements.
    pub fn subdivision_time(&self, children: u64, elems_visited: u64) -> f64 {
        children as f64 * self.t_child + elems_visited as f64 * self.t_mark_elem
    }

    /// Compute-only share of one solver iteration on a rank owning `units`
    /// element units (≈ 6/5·units edge visits per iteration on a tet mesh).
    /// This is the part a slow processor stretches — chaos profiles multiply
    /// it, and observed per-rank rates (capacity weights) divide by it.
    /// Measured-cost scenarios weight each element by its cost multiplier, so
    /// per-rank loads are f64 "element units"; with a unit cost field
    /// `units` is the rank's leaf-element count.
    pub fn solver_compute_units_time(&self, units: f64) -> f64 {
        let edges = units * 1.2;
        edges * self.t_edge_visit
    }

    /// Communication share of one solver iteration: the halo exchange over
    /// `shared_edges` partition-boundary edges.
    pub fn solver_halo_time(&self, shared_edges: u64, machine: &MachineModel) -> f64 {
        machine.transfer_time(shared_edges * 5)
    }

    /// Compute seconds `units` element units cost over the `N_adapt` solver
    /// iterations between two adaptions.
    pub fn solver_interval_time(&self, units: f64) -> f64 {
        self.n_adapt as f64 * self.solver_compute_units_time(units)
    }

    /// Computational gain of adopting a new partitioning (§4.6): the solver
    /// seconds saved over `N_adapt` iterations by lowering the busiest
    /// rank's load from `wmax_old` to `wmax_new`, plus the subdivision
    /// seconds saved by lowering its new-element count from `rmax_old` to
    /// `rmax_new`.
    pub fn gain(&self, wmax_old: u64, wmax_new: u64, rmax_old: u64, rmax_new: u64) -> f64 {
        let solver = self.solver_interval_time(wmax_old as f64 - wmax_new as f64);
        solver + self.t_child * (rmax_old as f64 - rmax_new as f64)
    }

    /// Redistribution cost `M·C·T_lat + N·T_setup` on `machine` of a remap
    /// whose busiest rank moves `elems` elements in `msgs` transfers.
    pub fn remap_cost(&self, machine: &MachineModel, elems: u64, msgs: u64) -> f64 {
        (self.m_words * elems) as f64 * machine.t_word + msgs as f64 * machine.t_setup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subdivision_time_scales_with_children() {
        let wm = WorkModel::default();
        let a = wm.subdivision_time(1000, 5000);
        let b = wm.subdivision_time(2000, 5000);
        assert!(b > a);
        assert!(b < 2.0 * a + wm.subdivision_time(0, 5000));
    }

    #[test]
    fn solver_time_has_compute_and_halo_terms() {
        let wm = WorkModel::default();
        let m = MachineModel::sp2();
        let compute = wm.solver_compute_units_time(10_000.0);
        let no_halo = compute + wm.solver_halo_time(0, &m);
        let halo = compute + wm.solver_halo_time(500, &m);
        assert!(halo > no_halo);
        assert!(no_halo > 0.01 * 1e-3);
    }

    #[test]
    fn gain_is_linear_in_imbalance_reduction() {
        let wm = WorkModel::default();
        let g1 = wm.gain(1000, 500, 0, 0);
        let g2 = wm.gain(2000, 1000, 0, 0);
        assert!(g1 > 0.0);
        assert!((g2 - 2.0 * g1).abs() < 1e-12);
        // No reduction, no gain.
        assert_eq!(wm.gain(700, 700, 10, 10), 0.0);
    }

    #[test]
    fn refinement_term_contributes() {
        // The refinement term adds the subdivision seconds saved.
        let wm = WorkModel::default();
        let without = wm.gain(1000, 500, 0, 0);
        let with = wm.gain(1000, 500, 800, 100);
        assert!((with - without - 700.0 * wm.t_child).abs() < 1e-12);
    }

    #[test]
    fn cost_has_volume_and_message_terms() {
        let wm = WorkModel::default();
        let m = MachineModel::sp2();
        let c_small = wm.remap_cost(&m, 0, 10);
        let c_big = wm.remap_cost(&m, 100_000, 10);
        assert!((c_small - 10.0 * m.t_setup).abs() < 1e-12);
        assert!(c_big > c_small);
        assert_eq!(wm.remap_cost(&MachineModel::zero(), 100_000, 10), 0.0);
    }
}
