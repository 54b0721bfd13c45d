//! # plum-remap — redistribution cost model and migration codec
//!
//! The acceptance logic of the load balancer (§4.5–4.6): the analytic
//! gain/cost comparison that decides whether a new partitioning is worth its
//! data movement, the Fig.-7 bound on what balancing can buy, and the binary
//! pack/unpack machinery used to physically migrate element trees and
//! solution data between ranks.
//!
//! ```
//! use plum_remap::{CostModel, max_balancing_improvement};
//!
//! let model = CostModel::default();
//! let gain = model.computational_gain(10_000, 6_000, 3_000, 1_500);
//! // The busiest rank's flow: it sends or receives 2 500 elements in 9
//! // transfers (`C_max`, `N_max`), however many the machine moves in all.
//! let cost = model.redistribution_cost(2_500, 9);
//! if model.should_accept(gain, cost) {
//!     // migrate, then subdivide
//! }
//! assert!((max_balancing_improvement(64, 1.353) - 5.91).abs() < 0.01);
//! ```

mod codec;
mod cost;

pub use codec::{Packer, Unpacker};
pub use cost::{max_balancing_improvement, CostModel};
