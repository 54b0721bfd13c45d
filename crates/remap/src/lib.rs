//! # plum-remap — migration codec and Fig. 7's balancing bound
//!
//! The binary pack/unpack machinery used to physically migrate element
//! trees and solution data between ranks, and the Fig.-7 bound on what
//! balancing can buy. The gain/cost acceptance test that decides whether a
//! new partitioning is worth its data movement (§4.5–4.6) prices with the
//! session's own constants: `plum_core::WorkModel::gain` and
//! `plum_core::WorkModel::remap_cost`.
//!
//! ```
//! use plum_remap::{max_balancing_improvement, Packer, Unpacker};
//!
//! // One element's state crosses the wire as words and comes back intact.
//! let mut out = Packer::new();
//! out.put_u32(7);
//! out.put_f64(0.25);
//! let buf = out.finish();
//! let mut inp = Unpacker::new(&buf);
//! assert_eq!((inp.get_u32(), inp.get_f64()), (7, 0.25));
//! // Refinement with growth factor G = 1.353 on P ≥ 20 processors: balancing
//! // buys at most 8 / G.
//! assert!((max_balancing_improvement(64, 1.353) - 5.91).abs() < 0.01);
//! ```

mod codec;
mod cost;

pub use codec::{Packer, Unpacker};
pub use cost::max_balancing_improvement;
