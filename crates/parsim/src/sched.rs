//! The cooperative rank scheduler: run queue, mailboxes, rank states.
//!
//! One [`SchedState`] is shared (single-threaded, via `Rc<RefCell>`) between
//! the [`Session`](crate::Session) executor and every [`Comm`](crate::Comm).
//! Ranks run as fibers (see [`crate::fiber`]); a blocking receive publishes
//! the rank's [`RankActivity::Blocked`] state and suspends, and a send to a
//! rank blocked on that source wakes it by pushing it back onto the run
//! queue.
//!
//! ## Run-queue ordering
//!
//! The queue is keyed by `(virtual time, rank)`: the runnable rank with the
//! lowest clock runs next, ties broken by the lower rank id. Virtual
//! timestamps never depend on dispatch order (they are pure functions of
//! the message pattern), so this ordering is for determinism and for the
//! event-driven narrative — the simulator advances whichever rank is
//! earliest in virtual time, like a discrete-event simulation.
//!
//! ## Exact deadlock detection
//!
//! Blocking is cooperative, so the scheduler sees the whole machine state:
//! when the run queue empties while unfinished ranks remain, every one of
//! them is provably blocked on a receive whose message does not exist and
//! whose sender cannot be scheduled — a deadlock, detected immediately and
//! deterministically (no timeouts, no heuristics). The report walks the
//! blocked-on chain from the lowest blocked rank until it either revisits a
//! rank (a cycle of mutual waits) or reaches a finished rank (a dead end:
//! that rank can never send again).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use crate::comm::{Envelope, Tag};
use crate::deadlock::{DeadlockError, RankActivity};

/// Scheduler state shared between the session and every rank's `Comm`.
pub(crate) struct SchedState {
    /// What each rank is doing (drives wakeups and deadlock diagnosis).
    states: Vec<RankActivity>,
    /// `queues[dst]` maps source rank → FIFO of undelivered envelopes.
    /// Sparse (a HashMap, not a P-length row) so a P=4096 session costs
    /// O(P) memory, not O(P²) like the old channel matrix.
    queues: Vec<HashMap<usize, VecDeque<Envelope>>>,
    /// Min-heap of runnable ranks keyed by `(clock bits, rank)`. The bit
    /// pattern of a non-negative f64 orders identically to the float.
    runq: BinaryHeap<Reverse<(u64, usize)>>,
    /// Whether a rank is already enqueued (suppresses duplicate pushes when
    /// several messages arrive for the same blocked rank).
    queued: Vec<bool>,
    /// Each rank's clock at its last block/suspend (wake-time keys).
    clocks: Vec<f64>,
}

impl SchedState {
    pub(crate) fn new(nranks: usize) -> Self {
        SchedState {
            states: vec![RankActivity::Running; nranks],
            queues: (0..nranks).map(|_| HashMap::new()).collect(),
            runq: BinaryHeap::new(),
            queued: vec![false; nranks],
            clocks: vec![0.0; nranks],
        }
    }

    /// Start-of-step reset: every rank is runnable again. Queues persist
    /// (messages legitimately cross step boundaries), as do heap and flag
    /// allocations (reused across steps).
    pub(crate) fn reset_for_step(&mut self) {
        debug_assert!(self.runq.is_empty(), "run queue drained between steps");
        for s in &mut self.states {
            *s = RankActivity::Running;
        }
        for q in &mut self.queued {
            *q = false;
        }
    }

    /// Make `rank` runnable at virtual time `time` (idempotent).
    pub(crate) fn push_runnable(&mut self, rank: usize, time: f64) {
        if !self.queued[rank] {
            self.queued[rank] = true;
            self.runq.push(Reverse((time.to_bits(), rank)));
        }
    }

    /// Next rank to dispatch: lowest virtual time, ties to the lowest rank.
    pub(crate) fn pop_runnable(&mut self) -> Option<usize> {
        let Reverse((_, rank)) = self.runq.pop()?;
        self.queued[rank] = false;
        Some(rank)
    }

    /// Deliver an envelope from `from` to `to`, waking `to` if it is
    /// blocked on this source (at the later of its blocked clock and the
    /// message arrival — the virtual instant the wait actually ends).
    pub(crate) fn deliver(&mut self, from: usize, to: usize, env: Envelope) {
        let wake = matches!(self.states[to], RankActivity::Blocked { on, .. } if on == from);
        let arrival = env.arrival;
        self.queues[to].entry(from).or_default().push_back(env);
        if wake {
            self.push_runnable(to, self.clocks[to].max(arrival));
        }
    }

    /// Pop the next undelivered envelope from `from` to `rank`, if any.
    pub(crate) fn take_message(&mut self, rank: usize, from: usize) -> Option<Envelope> {
        let queue = self.queues[rank].get_mut(&from)?;
        let env = queue.pop_front();
        if queue.is_empty() {
            self.queues[rank].remove(&from);
        }
        env
    }

    pub(crate) fn mark_running(&mut self, rank: usize) {
        self.states[rank] = RankActivity::Running;
    }

    /// Publish that `rank` (at virtual time `clock`) is about to suspend,
    /// waiting for a message from `on` with `tag`.
    pub(crate) fn mark_blocked(&mut self, rank: usize, on: usize, tag: Tag, clock: f64) {
        self.states[rank] = RankActivity::Blocked { on, tag };
        self.clocks[rank] = clock;
    }

    pub(crate) fn mark_done(&mut self, rank: usize) {
        self.states[rank] = RankActivity::Done;
    }

    /// Build the deadlock report for an empty run queue with unfinished
    /// ranks: the full activity table plus the blocked-on chain walked from
    /// the lowest blocked rank until it closes a cycle or dead-ends in a
    /// finished rank.
    pub(crate) fn deadlock_report(&self) -> DeadlockError {
        let start = self
            .states
            .iter()
            .position(|a| matches!(a, RankActivity::Blocked { .. }))
            .expect("deadlock report requires a blocked rank");
        let mut visited = vec![false; self.states.len()];
        let mut chain = vec![start];
        visited[start] = true;
        let mut cur = start;
        // A finished (or running-elsewhere, which cannot happen with an
        // empty run queue) rank ends the chain: it will never send again
        // this step.
        while let RankActivity::Blocked { on: next, .. } = self.states[cur] {
            chain.push(next);
            if visited[next] {
                break; // cycle of mutual waits
            }
            visited[next] = true;
            cur = next;
        }
        DeadlockError {
            ranks: self.states.clone(),
            chain,
        }
    }

    /// Drop all undelivered messages (used when poisoning a session).
    pub(crate) fn clear_queues(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        self.runq.clear();
        for f in &mut self.queued {
            *f = false;
        }
    }
}
