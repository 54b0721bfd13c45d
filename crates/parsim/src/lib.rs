//! # plum-parsim — SPMD message-passing simulator
//!
//! This crate is the parallel-machine substrate for the PLUM reproduction.
//! The original system ran on a 64-node IBM SP2 under MPI; here every
//! *virtual rank* runs as a cooperatively scheduled fiber (see the
//! `fiber`/`sched` modules) and exchanges real typed messages through a
//! central run queue keyed by virtual time, while a [`MachineModel`]
//! charges a per-rank [`VirtualClock`] for computation and communication
//! using the same cost model the paper uses (message startup time `T_setup`
//! plus per-word transfer time `T_lat`).
//!
//! The algorithms therefore execute with genuine message-driven
//! interleaving — shared-edge consistency, gathers, and migrations are
//! exercised for real — while the *reported* times are deterministic
//! virtual times, which is what all of the paper's speedup/anatomy curves
//! are made of. Because a blocked rank costs a suspended fiber rather than
//! a parked OS thread, sessions scale to thousands of ranks on one
//! machine. A collective is one rendezvous of all ranks: the last to arrive
//! prices the whole message schedule for every rank in one host loop, so
//! it costs one suspension per rank, not one per message.
//!
//! The simulator emits no metrics: a run leaves a [`TraceLog`], and every
//! number downstream (a [`TraceSummary`], the [`PhaseAgg`] breakdowns, a
//! cycle's metric map) is read from it afterwards.
//!
//! ## Quick example
//!
//! ```
//! use plum_parsim::{spmd, MachineModel};
//!
//! let results = spmd(4, MachineModel::sp2(), |comm| {
//!     // every rank does some local work...
//!     comm.compute(1_000.0);
//!     // ...then the total is reduced across ranks
//!     comm.allreduce_sum_f64(comm.rank() as f64)
//! });
//! assert!(results.iter().all(|r| r.value == 6.0));
//! ```

pub mod chaos;
mod clock;
mod collectives;
mod comm;
mod deadlock;
mod executor;
mod fiber;
mod model;
#[cfg(test)]
mod proptests;
mod sched;
pub mod trace;

pub use chaos::{ChaosRng, Perturbation};
pub use clock::VirtualClock;
pub use collectives::{Inbox, Outbox};
pub use comm::{Comm, Tag};
pub use deadlock::{DeadlockError, RankActivity};
pub use executor::{makespan, spmd, spmd_with_args, try_spmd, RankResult, Session};
pub use model::MachineModel;
pub use trace::{
    check_protocol, Call, CollectiveKind, CollectiveStats, Hop, MessageEdge, PhaseAgg,
    PhaseRankAgg, PhaseTimeline, ProtocolViolation, RankPhaseSplit, RankSummary, TraceEvent,
    TraceLog, TraceSummary, COLLECTIVE_KINDS, OUTSIDE_PHASE,
};

/// Convenience: number of 8-byte words needed to hold `bytes` bytes.
#[inline]
pub fn words_for_bytes(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_bytes_rounds_up() {
        assert_eq!(words_for_bytes(0), 0);
        assert_eq!(words_for_bytes(1), 1);
        assert_eq!(words_for_bytes(8), 1);
        assert_eq!(words_for_bytes(9), 2);
        assert_eq!(words_for_bytes(64), 8);
    }
}
