//! Framework configuration.

use plum_mesh::SfcCurve;
use plum_parsim::MachineModel;
use plum_partition::PartitionConfig;

use crate::balance::BalanceMethod;

/// Which processor-reassignment algorithm the load balancer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mapper {
    /// Heuristic greedy MWBG (the paper's default — fast and near-optimal).
    #[default]
    GreedyMwbg,
    /// Optimal MWBG (TotalV metric).
    OptimalMwbg,
    /// Optimal BMCM (MaxV metric).
    OptimalBmcm,
}

/// When data remapping happens relative to mesh subdivision — the central
/// comparison of the paper's evaluation (Figs. 4 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RemapPolicy {
    /// Remap after edge marking but *before* subdivision: the dual-graph
    /// weights are adjusted as though subdivision already happened, the
    /// original (small) grid is moved, and subdivision then runs load
    /// balanced. The paper's contribution.
    #[default]
    BeforeRefinement,
    /// Remap after the mesh has grown — the baseline strategy.
    AfterRefinement,
}

/// Top-level configuration of the PLUM framework.
#[derive(Debug, Clone, Copy)]
pub struct PlumConfig {
    /// Number of (virtual) processors `P`.
    pub nproc: usize,
    /// Partitions per processor `F` (1 for all experiments in the paper).
    pub partitions_per_proc: usize,
    /// Machine cost constants: the session's clock, and the machine the
    /// gain/cost acceptance test prices a remap on (with the work constants
    /// of [`crate::WorkModel`]).
    pub machine: MachineModel,
    /// Reassignment algorithm.
    pub mapper: Mapper,
    /// Remap-before vs remap-after refinement.
    pub policy: RemapPolicy,
    /// Trigger repartitioning when predicted imbalance (max/avg of `W_comp`)
    /// exceeds this.
    pub imbalance_trigger: f64,
    /// Partitioner settings (its `nparts` is overridden to `P·F`).
    pub partition: PartitionConfig,
    /// Portfolio policy: a triggered cycle whose effective imbalance is at
    /// most this is mild enough for SFC diffusion instead of a
    /// full repartition (Cubism's diffusion-below-threshold rule). Needs
    /// SFC keys and a seedable previous partition; any other cycle takes
    /// the multilevel kernel.
    pub sfc_threshold: f64,
    /// Which space-filling curve orders the element centroids.
    pub sfc_curve: SfcCurve,
    /// Pin the portfolio to one method (benchmarks and differential tests);
    /// `None` lets the policy pick per cycle, and it picks only SFC
    /// diffusion or multilevel. Codes 1–6: multilevel, SFC diffusion, SFC
    /// split, knapsack, second-order diffusion,
    /// Voronoi — the last four run only when forced.
    pub force_method: Option<BalanceMethod>,
}

impl PlumConfig {
    /// Defaults for `nproc` processors.
    pub fn new(nproc: usize) -> Self {
        let mut partition = PartitionConfig::new(nproc);
        partition.imbalance_tol = 1.05;
        PlumConfig {
            nproc,
            partitions_per_proc: 1,
            machine: MachineModel::sp2(),
            mapper: Mapper::GreedyMwbg,
            policy: RemapPolicy::BeforeRefinement,
            imbalance_trigger: 1.15,
            partition,
            sfc_threshold: 1.1,
            sfc_curve: SfcCurve::Hilbert,
            force_method: None,
        }
    }

    /// Total number of partitions `P·F`.
    pub fn nparts(&self) -> usize {
        self.nproc * self.partitions_per_proc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = PlumConfig::new(8);
        assert_eq!(c.nproc, 8);
        assert_eq!(c.nparts(), 8);
        assert_eq!(c.mapper, Mapper::GreedyMwbg);
        assert_eq!(c.policy, RemapPolicy::BeforeRefinement);
        assert!(c.imbalance_trigger > 1.0);
        assert!(c.sfc_threshold > 1.0 && c.sfc_threshold < c.imbalance_trigger + 0.5);
        assert_eq!(c.sfc_curve, SfcCurve::Hilbert);
        assert_eq!(c.force_method, None);
    }

    #[test]
    fn f_multiplies_parts() {
        let mut c = PlumConfig::new(4);
        c.partitions_per_proc = 3;
        assert_eq!(c.nparts(), 12);
    }
}
