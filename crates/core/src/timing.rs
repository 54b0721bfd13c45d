//! Modeled virtual times for the compute-bound phases.
//!
//! The communication-bound phases (marking propagation, similarity-matrix
//! gather/scatter, data migration) run through `plum-parsim` and get their
//! times from real message traffic. The compute-bound phases (solver sweeps,
//! subdivision, the multilevel partitioner) execute as single-address-space
//! algorithms; their per-rank virtual times are charged from operation
//! counts with the per-unit constants below, calibrated so the 64-processor
//! figures land in the regime the paper reports (see EXPERIMENTS.md).

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
    /// Per-level, per-processor communication overhead of the partitioner
    /// (coloring rounds, boundary exchange).
    pub t_part_sync: f64,
    /// Fixed partitioner overhead (setup, initial partition, broadcast).
    pub t_part_base: f64,
}

impl Default for WorkModel {
    fn default() -> Self {
        WorkModel {
            t_edge_visit: 1.1e-6,
            t_mark_elem: 0.35e-6,
            t_child: 9.0e-6,
            t_part_vertex: 4.4e-6,
            t_part_sync: 1.05e-3,
            t_part_base: 0.1,
        }
    }
}

impl WorkModel {
    /// Modeled time of one subdivision phase on a rank that creates
    /// `children` new elements and sweeps `elems_visited` elements.
    pub fn subdivision_time(&self, children: u64, elems_visited: u64) -> f64 {
        children as f64 * self.t_child + elems_visited as f64 * self.t_mark_elem
    }

    /// Modeled wall time of the parallel multilevel repartitioner on `p`
    /// processors for a dual graph of `n` vertices.
    ///
    /// Shape (paper, Fig. 6): local work shrinks as `n/p`; the coloring-
    /// parallelized coarsening/uncoarsening pays a per-level synchronization
    /// that *grows* with `p` — producing the shallow minimum near `p ≈ 16`
    /// and near-flat behaviour overall.
    pub fn partition_time(&self, n: usize, p: usize) -> f64 {
        let levels = ((n as f64).log2() - 7.0).max(1.0); // coarsen to ~128 vertices
        let local = self.t_part_vertex * (n as f64 / p as f64) * levels;
        let sync = if p > 1 {
            self.t_part_sync * levels * p as f64
        } else {
            0.0
        };
        local + sync + self.t_part_base
    }

    /// Modeled wall time of the full SFC partitioner on `p` processors: a
    /// local key sort over `n/p` elements (far lighter than a multilevel
    /// level — no matching, no contraction), one all-to-all key exchange,
    /// and a fraction of the fixed setup. No `levels` factor: the curve is
    /// cut in a single pass.
    pub fn sfc_partition_time(&self, n: usize, p: usize) -> f64 {
        let local = self.t_part_vertex * 0.5 * (n as f64 / p as f64);
        let sync = if p > 1 {
            self.t_part_sync * p as f64
        } else {
            0.0
        };
        local + sync + self.t_part_base * 0.1
    }

    /// Modeled wall time of SFC boundary diffusion: boundary sweeps over the
    /// local curve range plus one reduced weight exchange — the cheap path
    /// of the portfolio, an order of magnitude under
    /// [`WorkModel::partition_time`].
    pub fn sfc_diffusion_time(&self, n: usize, p: usize) -> f64 {
        let local = self.t_part_vertex * 0.25 * (n as f64 / p as f64);
        let sync = if p > 1 {
            self.t_part_sync * 0.5 * p as f64
        } else {
            0.0
        };
        local + sync + self.t_part_base * 0.05
    }

    /// Modeled wall time of the LPT knapsack packer: local weight sort plus
    /// one assignment exchange — same shape as the SFC sort, no geometry.
    pub fn knapsack_time(&self, n: usize, p: usize) -> f64 {
        let local = self.t_part_vertex * 0.5 * (n as f64 / p as f64);
        let sync = if p > 1 {
            self.t_part_sync * p as f64
        } else {
            0.0
        };
        local + sync + self.t_part_base * 0.1
    }

    /// Modeled wall time of the second-order (Chebyshev) diffusion
    /// balancer: a boundary scan plus selection sweeps over the local block
    /// (about half a key sort's work), the load-vector allreduce, and the
    /// moved-triple exchange. The flow solve itself is replicated O(P·deg)
    /// arithmetic, folded into the sync term.
    pub fn diffusion2_time(&self, n: usize, p: usize) -> f64 {
        let local = self.t_part_vertex * 0.5 * (n as f64 / p as f64);
        let sync = if p > 1 {
            self.t_part_sync * 0.75 * p as f64
        } else {
            0.0
        };
        local + sync + self.t_part_base * 0.1
    }

    /// Modeled wall time of the Voronoi centroid-shift balancer: nearest-
    /// generator scans over the local block across the Lloyd rounds (a bit
    /// heavier than one key sort), plus the same single-exchange traffic
    /// shape as the SFC cut.
    pub fn voronoi_time(&self, n: usize, p: usize) -> f64 {
        let local = self.t_part_vertex * 0.75 * (n as f64 / p as f64);
        let sync = if p > 1 {
            self.t_part_sync * p as f64
        } else {
            0.0
        };
        local + sync + self.t_part_base * 0.1
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
    fn partition_time_has_interior_minimum() {
        let wm = WorkModel::default();
        let n = 60_968;
        let times: Vec<f64> = [1usize, 2, 4, 8, 16, 32, 64]
            .iter()
            .map(|&p| wm.partition_time(n, p))
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

    #[test]
    fn portfolio_methods_are_cheaper_than_multilevel() {
        let wm = WorkModel::default();
        for &(n, p) in &[(6_000usize, 8usize), (6_000, 64), (60_968, 64)] {
            let ml = wm.partition_time(n, p);
            assert!(
                wm.sfc_diffusion_time(n, p) * 5.0 <= ml,
                "diffusion not ≥5× cheaper at n={n} p={p}"
            );
            assert!(
                wm.sfc_partition_time(n, p) < ml,
                "SFC ≥ multilevel at n={n} p={p}"
            );
            assert!(
                wm.knapsack_time(n, p) < ml,
                "knapsack ≥ multilevel at n={n} p={p}"
            );
            assert!(
                wm.diffusion2_time(n, p) < ml,
                "diffusion2 ≥ multilevel at n={n} p={p}"
            );
            assert!(
                wm.voronoi_time(n, p) < ml,
                "voronoi ≥ multilevel at n={n} p={p}"
            );
        }
    }

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
