//! Deadlock diagnosis types for the SPMD executor.
//!
//! A rank blocks in one of two places: [`Comm::recv`](crate::Comm::recv)'s
//! envelope loop, waiting for a point-to-point message, or a collective's
//! rendezvous, waiting for every rank to arrive (see [`crate::sched`]).
//! Blocking is cooperative: a rank that cannot make progress suspends its
//! fiber into the scheduler. Detection is therefore *exact*: when the run
//! queue empties while unfinished ranks remain, every one of them is
//! blocked on a message that provably cannot arrive or on a rank that
//! never reaches the collective, and the scheduler reports a
//! [`DeadlockError`] immediately and deterministically — no timeouts, no
//! heuristics, no real-time dependence.
//!
//! The report carries the full per-rank activity table ([`RankActivity`])
//! and the blocked-on chain walked from the lowest blocked rank: the chain
//! either revisits a rank (a cycle of mutual waits) or dead-ends in a
//! finished rank (which can never send again this step). A rank waiting at
//! a rendezvous is shown blocked on the lowest rank that has not arrived,
//! under the collective's tag.

use std::fmt;

use crate::comm::Tag;

/// What one rank is doing, as seen by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankActivity {
    /// Executing its body (or between steps).
    Running,
    /// Blocked in a receive, waiting for a message from `on` with `tag` —
    /// or at a collective's rendezvous, waiting for rank `on` to arrive.
    Blocked { on: usize, tag: Tag },
    /// Its body returned for the current step; it will not send again.
    Done,
}

impl fmt::Display for RankActivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankActivity::Running => write!(f, "running"),
            RankActivity::Blocked { on, tag } => write!(f, "blocked on rank {on} (tag {tag})"),
            RankActivity::Done => write!(f, "done"),
        }
    }
}

/// A detected deadlock: the full per-rank activity table at detection time
/// plus the blocked-on chain that proved the cycle (or the dead end).
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlockError {
    /// `ranks[r]` is what rank `r` was doing when the deadlock was declared.
    pub ranks: Vec<RankActivity>,
    /// The blocked-on chain walked from the lowest blocked rank; the last
    /// entry either closes a cycle or is a finished rank.
    pub chain: Vec<usize>,
}

impl DeadlockError {
    /// All ranks that were blocked when the deadlock was declared.
    pub fn blocked_ranks(&self) -> Vec<usize> {
        self.ranks
            .iter()
            .enumerate()
            .filter_map(|(r, a)| matches!(a, RankActivity::Blocked { .. }).then_some(r))
            .collect()
    }
}

impl fmt::Display for DeadlockError {
    /// Shows the blocked-on chain first, then every non-running rank's
    /// diagnosis.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadlock detected: chain")?;
        for (i, r) in self.chain.iter().enumerate() {
            write!(f, "{}{r}", if i == 0 { " " } else { " -> " })?;
        }
        write!(f, ";")?;
        for (r, a) in self.ranks.iter().enumerate() {
            if !matches!(a, RankActivity::Running) {
                write!(f, " rank {r}: {a};")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for DeadlockError {}
