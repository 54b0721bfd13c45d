//! Point-to-point communication context handed to each SPMD rank.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use crate::chaos::{jitter_factor, Perturbation};
use crate::sched::SchedState;
use crate::trace::{Call, Hop, HopRange, TraceEvent};
use crate::{MachineModel, RankResult, VirtualClock};

/// Message tag. Matching is FIFO per (source, destination) pair: a receive
/// must ask for the tag of the *next* message in that pair's queue, otherwise
/// the communication pattern is inconsistent and the rank panics.
pub type Tag = u64;

pub(crate) struct Envelope {
    pub tag: Tag,
    pub words: u64,
    /// Virtual arrival time at the receiver.
    pub arrival: f64,
    pub payload: Box<dyn Any + Send>,
}

/// A rank's side of every message: its virtual clock, trace, send counters
/// and chaos link state. Every message end is charged by
/// [`Ledger::hop_send`] or [`Ledger::hop_recv`] and appended to the rank's
/// hop arena; [`Ledger::close`] records the call as one event naming its
/// hops there by position: [`Comm::send`] and [`Comm::recv`] make a record
/// of one hop, and a collective's host pass (see `collectives.rs`) one
/// record per rank of every charge the call made on it. A message therefore
/// costs and records the same bits whichever path prices it.
#[derive(Default)]
pub(crate) struct Ledger {
    rank: usize,
    pub(crate) clock: VirtualClock,
    sent_messages: u64,
    sent_words: u64,
    /// Structured event stream (see [`crate::trace`]); every clock charge
    /// records exactly one event or one hop of a record, so the trace
    /// reconstructs `now()` exactly.
    events: Vec<TraceEvent>,
    /// The hop arena: this step's hops, in charge order.
    hops: Vec<Hop>,
    /// The open record's start clock and first hop.
    opened: (f64, usize),
    /// The message-by-message reference collectives: nesting depth, and
    /// where the open top-level call's events begin and how it opened.
    #[cfg(test)]
    reference: (u32, usize, (f64, usize)),
    /// Per-link latency jitter, if enabled: `(amplitude, seed, sent[dst])`.
    /// The per-destination counters make each draw a pure function of the
    /// communication pattern, independent of execution order.
    jitter: Option<(f64, u64, Vec<u64>)>,
}

impl Ledger {
    /// Charge the startup of a `words`-word message to `to`; returns the
    /// clock after the charge and the virtual time the message arrives at
    /// `to`.
    fn charge_send(&mut self, model: &MachineModel, to: usize, words: u64) -> (f64, f64) {
        // With jitter enabled, this message's startup and wire time are both
        // scaled by a factor drawn from (seed, src, dst, link message index).
        // The unperturbed path stays bit-exact (no multiplication at all).
        let (setup, flight) = match &mut self.jitter {
            Some((amplitude, seed, sent)) => {
                let f = jitter_factor(*seed, self.rank, to, sent[to], *amplitude);
                sent[to] += 1;
                (model.t_setup * f, words as f64 * model.t_word * f)
            }
            None => (model.t_setup, words as f64 * model.t_word),
        };
        self.clock.advance(setup);
        let end = self.clock.now();
        let arrival = end + flight;
        self.sent_messages += 1;
        self.sent_words += words;
        (end, arrival)
    }

    /// Charge the startup of a `words`-word message to `to` and record it
    /// as a record of one hop; returns the virtual time it arrives at `to`.
    pub(crate) fn send(&mut self, model: &MachineModel, to: usize, tag: Tag, words: u64) -> f64 {
        self.open();
        let arrival = self.hop_send(model, to, words);
        self.close(Call::Mail(tag));
        arrival
    }

    /// Complete the receive of a `words`-word message from `from` that
    /// arrives at `arrival`: wait for it if it is still in flight, and
    /// record the wait as a record of one hop.
    pub(crate) fn recv(&mut self, from: usize, tag: Tag, words: u64, arrival: f64) {
        self.open();
        self.hop_recv(from, words, arrival);
        self.close(Call::Mail(tag));
    }

    /// Open this rank's record of a call.
    pub(crate) fn open(&mut self) {
        self.opened = (self.clock.now(), self.hops.len());
    }

    /// A send of the open call: the startup charge, recorded as a hop ending
    /// at its end. Returns the arrival at `to`.
    pub(crate) fn hop_send(&mut self, model: &MachineModel, to: usize, words: u64) -> f64 {
        let (end, arrival) = self.charge_send(model, to, words);
        self.hops.push(Hop::new(end, to, true, words));
        arrival
    }

    /// A receive of the open call: the wait for `arrival`, recorded as a hop
    /// ending at the completion.
    pub(crate) fn hop_recv(&mut self, from: usize, words: u64, arrival: f64) {
        self.clock.advance_to(arrival);
        self.hops
            .push(Hop::new(self.clock.now(), from, false, words));
    }

    /// Close the open call: record it as one event.
    pub(crate) fn close(&mut self, call: Call) {
        let (start, first) = self.opened;
        let hops = HopRange::new(first, self.hops.len());
        let end = self.clock.now();
        self.events.push(TraceEvent::Call {
            call,
            start,
            end,
            hops,
        });
    }

    /// Mark entry into a message-by-message reference collective.
    #[cfg(test)]
    pub(crate) fn enter(&mut self) {
        if self.reference.0 == 0 {
            self.open();
            self.reference.1 = self.events.len();
            self.reference.2 = self.opened;
        }
        self.reference.0 += 1;
    }

    /// Mark exit from the innermost open reference collective; leaving the
    /// top-level one joins its mail records into one record of their hops.
    #[cfg(test)]
    pub(crate) fn exit(&mut self, kind: crate::CollectiveKind) {
        self.reference.0 -= 1;
        if self.reference.0 == 0 {
            for ev in self.events.drain(self.reference.1..) {
                assert!(
                    matches!(ev, TraceEvent::Call { .. }),
                    "{kind:?} recorded {ev:?}"
                );
            }
            self.opened = self.reference.2;
            self.close(Call::Collective(kind));
        }
    }
}

/// The per-rank communication context: rank identity, typed point-to-point
/// messaging, collectives (see `collectives.rs`), and the virtual clock.
///
/// A `Comm` is created by [`crate::spmd`] and passed by `&mut` to the rank
/// body; it is not constructible directly.
pub struct Comm {
    rank: usize,
    nranks: usize,
    model: MachineModel,
    /// Clock, trace and counters; lent to the scheduler while this rank
    /// waits at a collective.
    pub(crate) ledger: Ledger,
    /// The shared cooperative scheduler (run queue + mailboxes); sends
    /// deliver through it, blocking receives and collectives suspend into it.
    pub(crate) sched: Rc<RefCell<SchedState>>,
    /// Compute-rate multiplier from the chaos profile (1.0 = nominal);
    /// scales every [`Comm::compute`] charge.
    flop_mult: f64,
}

impl Comm {
    /// Rank `rank` of a machine perturbed by `perturb`: its compute
    /// multiplier is `perturb.profile[rank]`, and every link it sends on is
    /// jittered when `perturb.link_jitter` is positive.
    pub(crate) fn new(
        rank: usize,
        model: MachineModel,
        sched: Rc<RefCell<SchedState>>,
        perturb: &Perturbation,
    ) -> Self {
        let nranks = perturb.profile.len();
        let amplitude = perturb.link_jitter;
        let jitter = (amplitude > 0.0).then(|| {
            assert!(amplitude < 1.0, "jitter amplitude must be in [0, 1)");
            (amplitude, perturb.seed, vec![0; nranks])
        });
        Comm {
            rank,
            nranks,
            model,
            ledger: Ledger {
                rank,
                jitter,
                ..Ledger::default()
            },
            sched,
            flop_mult: perturb.profile[rank],
        }
    }

    /// This rank's id in `0..nranks`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks in the simulation.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The machine cost model in effect.
    #[inline]
    pub fn model(&self) -> MachineModel {
        self.model
    }

    /// Current virtual time on this rank, in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.ledger.clock.now()
    }

    /// Total messages sent by this rank so far.
    #[inline]
    pub fn sent_messages(&self) -> u64 {
        self.ledger.sent_messages
    }

    /// Total words sent by this rank so far.
    #[inline]
    pub fn sent_words(&self) -> u64 {
        self.ledger.sent_words
    }

    /// Charge `units` units of local computation to the virtual clock.
    /// Scaled by the rank's chaos compute multiplier (1.0 on the
    /// unperturbed machine).
    #[inline]
    pub fn compute(&mut self, units: f64) {
        self.charge(self.model.compute_time(units) * self.flop_mult);
    }

    /// Charge raw virtual seconds (for costs computed outside the model).
    #[inline]
    pub fn advance(&mut self, seconds: f64) {
        self.charge(seconds);
    }

    /// Charge local work to the clock and record the matching trace event.
    /// Negative charges are blocked (the clock saturates) and recorded as
    /// [`TraceEvent::RewindBlocked`] so the protocol checker can flag them.
    fn charge(&mut self, seconds: f64) {
        let ledger = &mut self.ledger;
        let (start, dt) = (ledger.clock.now(), seconds);
        ledger.clock.advance(dt);
        let end = ledger.clock.now();
        if dt < 0.0 || dt.is_nan() {
            ledger
                .events
                .push(TraceEvent::RewindBlocked { at: start, dt });
        } else if dt > 0.0 {
            ledger.events.push(TraceEvent::Compute { start, end });
        }
    }

    /// Send `value` (declared size `words` 8-byte words) to rank `to`.
    ///
    /// The sender is charged the message startup time; the message arrives at
    /// the receiver at `send_completion + words * t_word`.
    pub fn send<T: Send + 'static>(&mut self, to: usize, tag: Tag, words: u64, value: T) {
        assert!(to < self.nranks, "send to rank {to} of {}", self.nranks);
        let arrival = self.ledger.send(&self.model, to, tag, words);
        // Deliver through the scheduler: the envelope lands in the
        // receiver's mailbox, and a receiver blocked on this source becomes
        // runnable again.
        self.sched.borrow_mut().deliver(
            self.rank,
            to,
            Envelope {
                tag,
                words,
                arrival,
                payload: Box::new(value),
            },
        );
    }

    /// Receive the next message from rank `from`; it must carry `tag` and
    /// payload type `T`.
    ///
    /// Blocks (in real time) until the message is available; in virtual time
    /// the receiver's clock advances to the message arrival time if it was
    /// still in flight. All diagnostics carry rank, peer, and expected tag.
    pub fn recv<T: 'static>(&mut self, from: usize, tag: Tag) -> T {
        assert!(
            from < self.nranks,
            "recv from rank {from} of {}",
            self.nranks
        );
        let env = self.blocking_recv(from, tag);
        assert_eq!(
            env.tag, tag,
            "rank {}: tag mismatch receiving from {from}: expected {tag}, got {}",
            self.rank, env.tag
        );
        self.ledger.recv(from, tag, env.words, env.arrival);
        *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "rank {}: payload type mismatch from {from} tag {tag}",
                self.rank
            )
        })
    }

    /// The one blocking path in the simulator: take the next envelope from
    /// `from` out of this rank's mailbox, or publish the blocked state
    /// (rank, source, tag, clock) and suspend this rank's fiber until the
    /// scheduler wakes it for an arriving message. Everything is
    /// cooperative and single-threaded: if no rank can run and someone is
    /// still blocked, the scheduler reports an exact [`crate::DeadlockError`]
    /// instead of timing out.
    fn blocking_recv(&mut self, from: usize, tag: Tag) -> Envelope {
        loop {
            {
                let mut sched = self.sched.borrow_mut();
                if let Some(env) = sched.take_message(self.rank, from) {
                    sched.mark_running(self.rank);
                    return env;
                }
                sched.mark_blocked(self.rank, from, tag, self.now());
            }
            // The borrow is released before suspending: other ranks run and
            // deliver while this fiber is parked.
            crate::fiber::suspend();
        }
    }

    // --- tracing hooks -----------------------------------------------------

    /// Open a named phase span (pair with [`Comm::phase_end`], or use
    /// [`Comm::phase`] for scoped spans). Phases nest.
    pub fn phase_begin(&mut self, name: &'static str) {
        let start = self.now();
        self.ledger
            .events
            .push(TraceEvent::PhaseBegin { name, start });
    }

    /// Close the innermost open phase span.
    pub fn phase_end(&mut self, name: &'static str) {
        let end = self.now();
        self.ledger.events.push(TraceEvent::PhaseEnd { name, end });
    }

    /// Run `f` inside a named phase span on this rank's timeline.
    pub fn phase<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.phase_begin(name);
        let out = f(self);
        self.phase_end(name);
        out
    }

    /// Host-side step-boundary alignment (see [`crate::Session`]): advance
    /// this rank's clock to `t`, recording the idle as [`TraceEvent::Sync`].
    /// A no-op for the slowest rank (no event, no charge).
    pub(crate) fn sync_to(&mut self, t: f64) {
        let ledger = &mut self.ledger;
        let start = ledger.clock.now();
        if t > start {
            ledger.clock.advance_to(t);
            ledger.events.push(TraceEvent::Sync { start, end: t });
        }
    }

    /// This rank's result of a step that returned `value`: its clock and
    /// counters, and the step's events and hops, moved out.
    pub(crate) fn result<T>(&mut self, value: T) -> RankResult<T> {
        RankResult {
            rank: self.rank,
            value,
            elapsed: self.now(),
            sent_messages: self.sent_messages(),
            sent_words: self.sent_words(),
            events: std::mem::take(&mut self.ledger.events),
            hops: std::mem::take(&mut self.ledger.hops),
        }
    }
}
