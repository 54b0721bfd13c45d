//! The cooperative rank scheduler: run queue, mailboxes, rank states, and
//! the rendezvous every collective executes at.
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
//! ## Mailboxes
//!
//! `queues[dst]` maps a source rank to the FIFO of its undelivered
//! envelopes. The map hashes the integer key with one multiplication, and
//! a drained FIFO stays in place, so a pair that talks every stage pays
//! neither a SipHash nor an allocation per message.
//!
//! ## Rendezvous
//!
//! A collective is one meeting of all ranks, not a sequence of messages.
//! Each rank arrives with its [`Ledger`] (clock, trace, counters, chaos
//! link state) and its contribution, and suspends once. The last rank to
//! arrive runs the collective's message schedule for all `P` ranks as a
//! plain host loop over the ledgers (a [`Pass`]), leaves every rank its
//! output, and makes the others runnable at their new clocks. The host pass
//! charges each ledger through [`Ledger::hop_send`] / [`Ledger::hop_recv`],
//! which price a message as a point-to-point one is priced, in each rank's
//! program order, so every clock bit is the one the message-by-message
//! execution charges. Each rank's charges become the hops of its one
//! `Collective` trace record of the call. A collective costs `P`
//! suspensions plus one loop over its messages instead of a mailbox
//! delivery and a blocking receive per message.
//!
//! A collective is therefore a synchronization point of all ranks: no rank
//! leaves it before every rank has entered it, so a rank must not wait in
//! a receive for mail its sender sends only after a collective the waiting
//! rank has yet to enter (message by message, an early leaver of a tree
//! could have sent it). Every rank must call the same collective, with the
//! same root, from the same line of the program (the collectives and their
//! thin wrappers are `#[track_caller]`): a rank that arrives at a
//! different one panics, naming both ranks, both calls and both sites. A
//! schedule message from a peer whose point-to-point mail to the receiver
//! is still undelivered would, message by message, be received in that
//! mail's place; the pass panics with the same "tag mismatch receiving
//! from …" a blocking receive reports.
//!
//! ## Exact deadlock detection
//!
//! Blocking is cooperative, so the scheduler sees the whole machine state:
//! when the run queue empties while unfinished ranks remain, every one of
//! them is provably blocked — on a receive whose message does not exist and
//! whose sender cannot be scheduled, or at a rendezvous some rank never
//! reaches — a deadlock, detected immediately and deterministically (no
//! timeouts, no heuristics). A rank waiting at a rendezvous is reported
//! blocked on the lowest rank that has not arrived, under the collective's
//! tag. The report walks the blocked-on chain from the lowest blocked rank
//! until it either revisits a rank (a cycle of mutual waits) or reaches a
//! finished rank (a dead end: that rank can never send again).

use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::Location;
use std::rc::Rc;

use crate::comm::{Comm, Envelope, Ledger, Tag};
use crate::deadlock::{DeadlockError, RankActivity};
use crate::trace::{Call, CollectiveKind};
use crate::MachineModel;

/// Hashes a rank id with one multiplication (Fibonacci hashing): the key
/// is a small integer, not attacker-controlled input.
#[derive(Default)]
struct RankHasher(u64);

impl Hasher for RankHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type Mailbox = HashMap<usize, VecDeque<Envelope>, BuildHasherDefault<RankHasher>>;

/// Which collective a rank called, and where, as the rendezvous matches it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Op {
    /// The `Comm` method.
    pub name: &'static str,
    /// The kind its trace record carries.
    pub kind: CollectiveKind,
    /// The root of a rooted collective.
    pub root: Option<usize>,
    /// The tag of the collective's first message, under which waiting ranks
    /// are reported blocked.
    pub tag: Tag,
    /// The call site in the rank body.
    pub site: &'static Location<'static>,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.root {
            Some(root) => write!(f, "{} (root {root})", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Inputs and outputs of one rendezvous, indexed by rank. Held by every
/// arrived rank, so a rank that resumes late still finds its output after
/// the next rendezvous has opened.
struct Table<C, R> {
    inputs: Vec<Option<C>>,
    outputs: Vec<Option<R>>,
}

/// The rendezvous ranks are arriving at.
struct Meeting {
    op: Op,
    /// The first rank to arrive.
    opener: usize,
    arrived: usize,
    /// A `RefCell<Table<C, R>>` of the collective's types.
    table: Rc<dyn Any>,
}

/// One host pass over a collective's message schedule: every rank's
/// ledger, charged message by message in each rank's program order.
pub(crate) struct Pass<'a> {
    model: MachineModel,
    ledgers: &'a mut [Ledger],
    /// The scheduler, when some point-to-point mail is undelivered: a
    /// schedule message must not overtake it.
    mail: Option<&'a SchedState>,
}

impl Pass<'_> {
    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.ledgers.len()
    }

    /// `from` sends `words` words to `to`; returns the arrival time.
    #[inline]
    pub fn send(&mut self, from: usize, to: usize, words: u64) -> f64 {
        self.ledgers[from].hop_send(&self.model, to, words)
    }

    /// `to` receives the `words`-word message `from` sent it under `tag`,
    /// stamped `arrival`.
    #[inline]
    pub fn recv(&mut self, to: usize, from: usize, tag: Tag, words: u64, arrival: f64) {
        if let Some(sched) = self.mail {
            sched.check_no_mail_ahead(to, from, tag);
        }
        self.ledgers[to].hop_recv(from, words, arrival);
    }
}

/// Scheduler state shared between the session and every rank's `Comm`.
pub(crate) struct SchedState {
    /// What each rank is doing (drives wakeups and deadlock diagnosis). A
    /// rank waiting at a rendezvous stays `Running` here; `arrived` marks it.
    states: Vec<RankActivity>,
    /// `queues[dst]` maps source rank → FIFO of undelivered envelopes.
    /// Sparse (a map, not a P-length row) so a P=4096 session costs O(P)
    /// memory, not O(P²) like a channel matrix.
    queues: Vec<Mailbox>,
    /// Undelivered envelopes per destination, over all its sources.
    inbox: Vec<usize>,
    /// Min-heap of runnable ranks keyed by `(clock bits, rank)`. The bit
    /// pattern of a non-negative f64 orders identically to the float.
    runq: BinaryHeap<Reverse<(u64, usize)>>,
    /// Whether a rank is already enqueued (suppresses duplicate pushes when
    /// several messages arrive for the same blocked rank).
    queued: Vec<bool>,
    /// Each rank's clock at its last block/suspend (wake-time keys).
    clocks: Vec<f64>,
    /// The open rendezvous, if any rank has arrived at one.
    meeting: Option<Meeting>,
    /// Whether each rank waits at the open rendezvous.
    arrived: Vec<bool>,
    /// The ledgers of the ranks at the rendezvous, lent until each resumes.
    ledgers: Vec<Ledger>,
}

impl SchedState {
    pub(crate) fn new(nranks: usize) -> Self {
        SchedState {
            states: vec![RankActivity::Running; nranks],
            queues: (0..nranks).map(|_| Mailbox::default()).collect(),
            inbox: vec![0; nranks],
            runq: BinaryHeap::new(),
            queued: vec![false; nranks],
            clocks: vec![0.0; nranks],
            meeting: None,
            arrived: vec![false; nranks],
            ledgers: (0..nranks).map(|_| Ledger::default()).collect(),
        }
    }

    /// Start-of-step reset: every rank is runnable again. Queues persist
    /// (messages legitimately cross step boundaries), as do heap and flag
    /// allocations (reused across steps).
    pub(crate) fn reset_for_step(&mut self) {
        debug_assert!(self.runq.is_empty(), "run queue drained between steps");
        debug_assert!(self.meeting.is_none(), "no rendezvous spans steps");
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
        self.inbox[to] += 1;
        if wake {
            self.push_runnable(to, self.clocks[to].max(arrival));
        }
    }

    /// Pop the next undelivered envelope from `from` to `rank`, if any.
    /// A drained queue stays in the map for the pair's next message.
    pub(crate) fn take_message(&mut self, rank: usize, from: usize) -> Option<Envelope> {
        let env = self.queues[rank].get_mut(&from)?.pop_front()?;
        self.inbox[rank] -= 1;
        Some(env)
    }

    /// Panic as a blocking receive would if `to`'s next message from
    /// `from` is point-to-point mail, not the schedule message `tag`.
    fn check_no_mail_ahead(&self, to: usize, from: usize, tag: Tag) {
        if self.inbox[to] == 0 {
            return;
        }
        if let Some(env) = self.queues[to].get(&from).and_then(VecDeque::front) {
            panic!(
                "rank {to}: tag mismatch receiving from {from}: expected {tag}, got {}",
                env.tag
            );
        }
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
    /// finished rank. Ranks waiting at a rendezvous wait on the lowest rank
    /// that has not arrived.
    pub(crate) fn deadlock_report(&self) -> DeadlockError {
        let mut ranks = self.states.clone();
        if let Some(meeting) = &self.meeting {
            let missing = self.arrived.iter().position(|&a| !a);
            let on = missing.expect("an open rendezvous misses a rank");
            for (activity, _) in ranks.iter_mut().zip(&self.arrived).filter(|(_, &a)| a) {
                *activity = RankActivity::Blocked {
                    on,
                    tag: meeting.op.tag,
                };
            }
        }
        let start = ranks
            .iter()
            .position(|a| matches!(a, RankActivity::Blocked { .. }))
            .expect("deadlock report requires a blocked rank");
        let mut visited = vec![false; ranks.len()];
        let mut chain = vec![start];
        visited[start] = true;
        let mut cur = start;
        // A finished (or running-elsewhere, which cannot happen with an
        // empty run queue) rank ends the chain: it will never send again
        // this step.
        while let RankActivity::Blocked { on: next, .. } = ranks[cur] {
            chain.push(next);
            if visited[next] {
                break; // cycle of mutual waits
            }
            visited[next] = true;
            cur = next;
        }
        DeadlockError { ranks, chain }
    }

    /// Drop all undelivered messages and any open rendezvous (used when
    /// poisoning a session).
    pub(crate) fn clear_queues(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        self.inbox.fill(0);
        self.runq.clear();
        self.queued.fill(false);
        self.meeting = None;
        self.arrived.fill(false);
    }

    /// Register `rank`'s arrival at `op` with its ledger. Returns the
    /// rendezvous table (made by `table` for the first arrival), the first
    /// rank to arrive, and whether this rank is the last.
    fn arrive(
        &mut self,
        rank: usize,
        op: Op,
        ledger: Ledger,
        table: impl FnOnce() -> Rc<dyn Any>,
    ) -> (Rc<dyn Any>, usize, bool) {
        let meeting = self.meeting.get_or_insert_with(|| Meeting {
            op,
            opener: rank,
            arrived: 0,
            table: table(),
        });
        if meeting.op != op {
            panic!(
                "collective mismatch: rank {rank} entered {op} at {} while rank {} entered {} at {}",
                op.site, meeting.opener, meeting.op, meeting.op.site
            );
        }
        meeting.arrived += 1;
        let opener = meeting.opener;
        let last = meeting.arrived == self.arrived.len();
        let table = if last {
            self.meeting.take().expect("open rendezvous").table
        } else {
            Rc::clone(&meeting.table)
        };
        self.arrived[rank] = true;
        self.ledgers[rank] = ledger;
        (table, opener, last)
    }

    /// Close a completed rendezvous: every rank but `last` becomes runnable
    /// at its ledger's clock.
    fn release(&mut self, last: usize) {
        for rank in 0..self.arrived.len() {
            self.arrived[rank] = false;
            if rank != last {
                let now = self.ledgers[rank].clock.now();
                self.push_runnable(rank, now);
            }
        }
    }
}

impl Comm {
    /// Meet every rank at collective `op`: deposit this rank's ledger and
    /// `input`, suspend until the last rank has run `pass` over every
    /// rank's ledger and input (or run it, if this rank is the last), and
    /// return this rank's output. Every rank's ledger records the call as
    /// one `Collective` event of `op.kind`.
    ///
    /// `pass` gets the inputs indexed by rank and returns the outputs
    /// indexed by rank. One rank's `pass` (and the closures it captures)
    /// runs for all ranks, which is why a collective's `words`, `op` and
    /// `join` must be the same function on every rank.
    pub(crate) fn meet<C: 'static, R: 'static>(
        &mut self,
        op: Op,
        input: C,
        pass: impl FnOnce(&mut Pass<'_>, Vec<C>) -> Vec<R>,
    ) -> R {
        let (rank, p) = (self.rank(), self.nranks());
        let ledger = std::mem::take(&mut self.ledger);
        let (table, opener, last) = self.sched.borrow_mut().arrive(rank, op, ledger, || {
            Rc::new(RefCell::new(Table::<C, R> {
                inputs: (0..p).map(|_| None).collect(),
                outputs: Vec::new(),
            }))
        });
        let table: Rc<RefCell<Table<C, R>>> = table.downcast().unwrap_or_else(|_| {
            panic!("rank {rank}: {op} called with other types than on rank {opener}")
        });
        table.borrow_mut().inputs[rank] = Some(input);
        if last {
            let inputs = std::mem::take(&mut table.borrow_mut().inputs);
            let inputs = inputs.into_iter().map(|c| c.expect("every rank arrived"));
            let mut ledgers = std::mem::take(&mut self.sched.borrow_mut().ledgers);
            let outputs = {
                let sched = self.sched.borrow();
                let mail = sched.inbox.iter().any(|&n| n > 0);
                ledgers.iter_mut().for_each(Ledger::open);
                let mut host = Pass {
                    model: self.model(),
                    ledgers: &mut ledgers,
                    mail: mail.then_some(&*sched),
                };
                pass(&mut host, inputs.collect())
            };
            ledgers
                .iter_mut()
                .for_each(|l| l.close(Call::Collective(op.kind)));
            debug_assert_eq!(outputs.len(), p, "{op}: one output per rank");
            table.borrow_mut().outputs = outputs.into_iter().map(Some).collect();
            let mut sched = self.sched.borrow_mut();
            sched.ledgers = ledgers;
            sched.release(rank);
        } else {
            crate::fiber::suspend();
        }
        self.ledger = std::mem::take(&mut self.sched.borrow_mut().ledgers[rank]);
        let out = table.borrow_mut().outputs[rank].take();
        out.expect("the last rank left every rank its output")
    }
}
