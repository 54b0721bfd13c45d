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
//!
//! The multilevel kernel is one method of a six-method balancer portfolio
//! with one call shape — a [`Problem`] in, a partition out: [`balance`]
//! runs a method's serial kernel, [`balance_body`] its SPMD body inside a
//! simulator session, [`balance_distributed`] the body on a session of its
//! own.
//!
//! ```
//! use plum_partition::{balance, BalanceMethod, Graph, PartitionConfig, Problem};
//!
//! // The same ring, vertices 0–3 four times heavier, rebalanced from the
//! // half/half split: part 0 sheds its excess from the end of the curve
//! // 0..8 that faces part 1.
//! let xadj = vec![0, 2, 4, 6, 8, 10, 12, 14, 16];
//! let adjncy = vec![7, 1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5, 7, 6, 0];
//! let g = Graph::from_csr(xadj, adjncy, vec![4, 4, 4, 4, 1, 1, 1, 1]);
//! let keys: Vec<u64> = (0..8).collect();
//! let seed = [0, 0, 0, 0, 1, 1, 1, 1];
//! let (caps, cfg) = ([1.0, 1.0], PartitionConfig::new(2));
//! let problem = Problem::new(&g, None, Some(&keys), Some(&seed), &caps, &cfg);
//! let part = balance(BalanceMethod::SfcDiffusion, &problem);
//! assert_eq!(part, [0, 0, 0, 1, 1, 1, 1, 1]); // 12 | 8 instead of 16 | 4
//! ```

mod balance;
mod bisect;
mod coarsen;
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
mod weights;

pub use balance::{
    balance, balance_body, balance_distributed, BalanceMethod, DistPartition, Problem, RankLists,
};
pub use bisect::{bisect, grow_bisection, refine_bisection};
pub use coarsen::{coarsen_once, contract, heavy_edge_matching};
pub use diffusion2::{rank_adjacency, solve_flows, FlowSolve, DIFFUSION2_MAX_ROUNDS};
pub use distributed::{inflow_quota, merge_add, stage_census, LevelStages};
pub use graph::Graph;
pub use kway::{partition_kway, quality, PartitionConfig, PartitionQuality};
pub use metrics::{
    dual_uniform, edge_cut, imbalance, imbalance_dual, imbalance_weighted, migration, weights_of,
};
pub use repart::repartition_kway;
pub use rng::Rng;
pub use sfc::sfc_order;
pub use voronoi::VORONOI_ROUNDS;
pub use weights::Weights;
