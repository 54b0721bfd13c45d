//! # plum — dynamic load balancing for adaptive grid calculations
//!
//! Rust reproduction of Oliker & Biswas, *Efficient Load Balancing and Data
//! Remapping for Adaptive Grid Calculations* (SPAA 1997) — the PLUM
//! framework. This crate ties the substrates together into the Fig.-1 loop:
//!
//! 1. **flow solver** (`plum_solver`) runs between adaptions;
//! 2. **mesh adaptor** (`plum_adapt`) marks edges from the error
//!    indicator, with cross-processor propagation ([`parallel_mark`]);
//! 3. the new mesh is **predicted exactly** before subdivision;
//! 4. the **load balancer** repartitions the dual graph
//!    (`plum_partition`), reassigns partitions to processors
//!    (`plum_reassign`), and accepts/rejects via the gain/cost test,
//!    priced by [`WorkModel`] on the session's machine;
//! 5. accepted mappings **remap** the still-unrefined data
//!    ([`parallel_migrate`]) and only then does subdivision grow the mesh.
//!
//! Between two cycles the state is the mesh, the solution and the
//! root→processor assignment ([`Plum`]); each cycle derives its rank-local
//! view of them ([`CycleEngine`], [`Ownership`]) once, when it opens.
//!
//! Parallel execution is simulated by `plum_parsim`: every rank is a
//! cooperatively scheduled fiber exchanging real messages, with virtual time
//! charged from an SP2-class machine model (see DESIGN.md). Every second a
//! cycle reports is virtual, and [`PhaseTimes::total`] is the cycle's
//! session makespan.
//!
//! ```
//! use plum_core::{Plum, PlumConfig};
//! use plum_mesh::generate::unit_box_mesh;
//! use plum_solver::WaveField;
//!
//! let mut plum = Plum::new(unit_box_mesh(3), WaveField::unit_box(), PlumConfig::new(4));
//! let report = plum.adaption_cycle(0.2, 0.1);
//! assert!(report.growth > 1.0);
//! assert!(report.wmax_balanced <= report.decision.wmax_old);
//! ```

mod balance;
mod config;
mod costs;
mod dmesh;
mod engine;
mod framework;
mod marking;
mod migrate;
#[cfg(test)]
mod oracle;
#[cfg(test)]
mod proptests;
mod reassign_par;
mod timing;

pub use balance::{run_mapper, select_method, BalanceDecision, BalanceMethod};
pub use config::{Mapper, PlumConfig, RemapPolicy};
pub use costs::CostEstimator;
pub use dmesh::{finalize, FinalizedMesh};
pub use engine::CycleEngine;
pub use framework::{coarse_marks, CycleReport, CycleTraces, PhaseTimes, Plum};
pub use marking::{parallel_mark, MarkResult, Ownership};
pub use migrate::{parallel_migrate, MigrationOutcome};
pub use reassign_par::{parallel_reassign, ParallelReassign};
pub use timing::WorkModel;
