//! # plum-partition — multilevel k-way graph partitioning
//!
//! The repartitioning substrate for the PLUM reproduction, in the mold of
//! (parallel) MeTiS \[15\]: heavy-edge-matching coarsening, greedy graph
//! growing on the coarsest graph, and boundary-greedy refinement during
//! uncoarsening. A dedicated repartitioning entry point seeds from the
//! previous partition so most dual vertices stay put and remapping volume
//! stays low — the property §4.2 of the paper relies on.
//!
//! ```
//! use plum_partition::{Graph, PartitionConfig, partition_kway, quality};
//!
//! // An 8-vertex ring.
//! let xadj = vec![0, 2, 4, 6, 8, 10, 12, 14, 16];
//! let adjncy = vec![7, 1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5, 7, 6, 0];
//! let g = Graph::from_csr(xadj, adjncy, vec![1; 8]);
//! let part = partition_kway(&g, &PartitionConfig::new(2));
//! let q = quality(&g, &part, 2);
//! assert_eq!(q.cut, 2); // a ring's optimal bisection cuts exactly 2 edges
//! ```

mod bisect;
mod coarsen;
mod diffusion;
mod diffusion2;
mod distributed;
mod graph;
mod knapsack;
mod kway;
mod metrics;
#[cfg(test)]
mod proptests;
mod repart;
mod rng;
mod sfc;
mod voronoi;

pub use bisect::{bisect, grow_bisection, refine_bisection};
pub use coarsen::{coarsen_once, contract, heavy_edge_matching};
pub use diffusion::{diffuse, DiffusionConfig, DiffusionResult};
pub use diffusion2::{
    diffusion2_balance, diffusion2_balance_dual, diffusion2_body, diffusion2_body_dual,
    diffusion2_distributed, rank_adjacency, solve_flows, FlowSolve, DIFFUSION2_MAX_ROUNDS,
};
pub use distributed::{
    inflow_quota, repartition_body, repartition_body_dual, repartition_distributed, DistPartition,
};
pub use graph::{Graph, GraphView};
pub use knapsack::{
    knapsack_body, knapsack_body_dual, knapsack_distributed, knapsack_partition,
    knapsack_partition_dual,
};
pub use kway::{
    partition_kway, partition_kway_dual, partition_kway_weighted, quality, PartitionConfig,
    PartitionQuality,
};
pub use metrics::{
    dual_uniform, edge_cut, imbalance, imbalance_dual, imbalance_weighted, migration, part_weights,
    partition_imbalance, weights_of,
};
pub use repart::{repartition_kway, repartition_kway_dual, repartition_kway_weighted};
pub use rng::Rng;
pub use sfc::{
    sfc_body, sfc_body_dual, sfc_diffuse, sfc_diffuse_body, sfc_diffuse_body_dual,
    sfc_diffuse_dual, sfc_distributed, sfc_effective_imbalance, sfc_effective_imbalance_dual,
    sfc_order, sfc_partition, sfc_partition_dual, sfc_split, sfc_split_dual,
};
pub use voronoi::{
    voronoi_balance, voronoi_balance_dual, voronoi_body, voronoi_body_dual, voronoi_distributed,
    voronoi_partition, voronoi_partition_dual, VORONOI_ROUNDS,
};
