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

use plum_parsim::MachineModel;

/// Work-unit constants for the modeled phases (seconds per unit).
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
}

impl Default for WorkModel {
    fn default() -> Self {
        WorkModel {
            t_edge_visit: 1.1e-6,
            t_mark_elem: 0.35e-6,
            t_child: 9.0e-6,
            t_part_vertex: 4.4e-6,
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
}
