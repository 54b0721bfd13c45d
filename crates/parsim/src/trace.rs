//! Structured event tracing for SPMD runs.
//!
//! Every [`Comm`](crate::Comm) records a typed event for each virtual-clock
//! charge it makes: local computation, user-defined phase spans,
//! step-boundary syncs and blocked clock-rewind attempts.
//! A message end is a 16-byte [`Hop`] (the clock after the charge, the
//! peer, the direction and the declared words) inside one
//! [`TraceEvent::Call`] record per call: a point-to-point send or receive
//! is a record of one hop, a collective call one record per rank holding
//! every charge the call made on it. Every clock charge is therefore one
//! event or one hop. After [`spmd`](crate::spmd) returns, the per-rank
//! event streams are gathered into a [`TraceLog`], which supports:
//!
//! * **aggregation** ([`TraceLog::summary`]): per-rank wait / compute /
//!   wire split (which reconstructs each rank's elapsed virtual time
//!   exactly: `compute + wire + wait == elapsed`) and
//!   message/word counters per collective kind; the same split per phase
//!   ([`TraceLog::phase_breakdowns`] and friends), all accumulated over
//!   one walk that owns the phase-attribution rule. Every reader takes a
//!   record's wire and wait hop by hop, in the order the charges were made,
//!   so its float sums are the ones a message-by-message trace gives;
//! * **export**: Chrome-trace JSON ([`TraceLog::chrome_json`], loadable in
//!   `chrome://tracing` or Perfetto) and a plain-text timeline
//!   ([`TraceLog::text_timeline`]), where a record is one span;
//! * **protocol checking** ([`check_protocol`]): replaying the log to flag
//!   SPMD discipline violations — mismatched collective sequences across
//!   ranks, tag-order inconsistencies on a point-to-point channel, and
//!   clock-rewind attempts — before they surface as opaque cross-rank
//!   panics; [`TraceLog::audit`] adds the accounting invariant and returns
//!   the makespan.
//!
//! Virtual timestamps are deterministic, so two runs of the same program
//! produce byte-identical exports.

use std::collections::HashMap;
use std::fmt;

use crate::comm::Tag;
use crate::executor::RankResult;

/// The collective operations [`Comm`](crate::Comm) provides, for sequence
/// checking and per-collective counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    Barrier,
    Bcast,
    Gather,
    Scatter,
    Allgather,
    Allreduce,
    Alltoallv,
    Reduce,
    Exscan,
}

/// All kinds, in counter-array (= declaration) order.
pub const COLLECTIVE_KINDS: [CollectiveKind; 9] = [
    CollectiveKind::Barrier,
    CollectiveKind::Bcast,
    CollectiveKind::Gather,
    CollectiveKind::Scatter,
    CollectiveKind::Allgather,
    CollectiveKind::Allreduce,
    CollectiveKind::Alltoallv,
    CollectiveKind::Reduce,
    CollectiveKind::Exscan,
];

impl CollectiveKind {
    /// Stable lowercase name (used in exports).
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Bcast => "bcast",
            CollectiveKind::Gather => "gather",
            CollectiveKind::Scatter => "scatter",
            CollectiveKind::Allgather => "allgather",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Alltoallv => "alltoallv",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Exscan => "exscan",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One message end, kept inside its rank's [`TraceEvent::Call`] record:
/// the clock after the charge, the other rank, the direction and the
/// declared words, in 16 bytes. A hop starts where the one before it ended
/// (the first at the record's `start`): a send spans its startup charge
/// (wire), a receive its wait for the arrival.
#[derive(Clone, Copy, PartialEq)]
pub struct Hop {
    /// The clock after the charge: a send's startup end, a receive's
    /// completion.
    pub at: f64,
    /// `words << 24 | recv << 23 | peer`.
    bits: u64,
}

impl Hop {
    const PEER_BITS: u32 = 23;
    const RECV: u64 = 1 << Self::PEER_BITS;
    const WORDS_SHIFT: u32 = Self::PEER_BITS + 1;

    /// A send (`send`) or receive of `words` words to or from `peer`,
    /// ending at `at`. Panics on a peer of 2^23 or more, or on 2^40 words
    /// or more.
    pub fn new(at: f64, peer: usize, send: bool, words: u64) -> Hop {
        assert!(
            peer < 1 << Self::PEER_BITS,
            "rank {peer} does not fit a hop's 23-bit peer"
        );
        assert!(
            words < 1 << (64 - Self::WORDS_SHIFT),
            "{words} words do not fit a hop's 40-bit count"
        );
        let dir = if send { 0 } else { Self::RECV };
        Hop {
            at,
            bits: words << Self::WORDS_SHIFT | dir | peer as u64,
        }
    }

    /// The rank at the other end.
    pub fn peer(&self) -> usize {
        (self.bits & (Self::RECV - 1)) as usize
    }

    /// Whether this end sent the message (else it received it).
    pub fn is_send(&self) -> bool {
        self.bits & Self::RECV == 0
    }

    /// The message's declared size in words.
    pub fn words(&self) -> u64 {
        self.bits >> Self::WORDS_SHIFT
    }
}

impl fmt::Debug for Hop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(if self.is_send() { "Send" } else { "Recv" })
            .field("at", &self.at)
            .field("peer", &self.peer())
            .field("words", &self.words())
            .finish()
    }
}

/// Each hop of a record that started at `start`, with the clock it started
/// from.
pub(crate) fn hop_spans(start: f64, hops: &[Hop]) -> impl Iterator<Item = (f64, &Hop)> {
    let froms = std::iter::once(start).chain(hops.iter().map(|h| h.at));
    froms.zip(hops)
}

/// What a [`TraceEvent::Call`] record was called for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// A collective call of this kind (a nested step of its schedule —
    /// allgather's gather and broadcast — is part of it).
    Collective(CollectiveKind),
    /// One point-to-point `Comm::send` or `Comm::recv` under this tag; its
    /// one hop says which.
    Mail(Tag),
}

impl fmt::Display for Call {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Call::Collective(kind) => f.pad(kind.name()),
            Call::Mail(tag) => f.pad(&format!("tag={tag}")),
        }
    }
}

/// One typed event on one rank's virtual timeline. All times are virtual
/// seconds on that rank's clock.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Local work charged via `compute` or `advance`.
    Compute { start: f64, end: f64 },
    /// One call that sent or received messages, whole: the clock ran
    /// `start..end` through `hops`, this rank's message ends of the call
    /// in the order it was charged them. A send hop ends at its startup
    /// charge's end; a receive hop spans the wait from posting to
    /// completion. The rank sent exactly the messages and words of the
    /// send hops.
    Call {
        call: Call,
        start: f64,
        end: f64,
        hops: Box<[Hop]>,
    },
    /// Begin of a user-defined phase span (see `Comm::phase`).
    PhaseBegin { name: &'static str, start: f64 },
    /// End of a user-defined phase span.
    PhaseEnd { name: &'static str, end: f64 },
    /// A negative-duration clock charge was requested and blocked (the
    /// clock saturated instead of rewinding). Always a protocol violation.
    RewindBlocked { at: f64, dt: f64 },
    /// Idle time spent at a step boundary of a [`crate::Session`]: the host
    /// aligned this rank's clock to the slowest rank before the next step.
    /// Accounted as wait (it is synchronization idle, like a recv wait).
    Sync { start: f64, end: f64 },
}

impl TraceEvent {
    /// The event's position on the timeline (its start time).
    pub fn time(&self) -> f64 {
        match *self {
            TraceEvent::Compute { start, .. } => start,
            TraceEvent::Call { start, .. } => start,
            TraceEvent::PhaseBegin { start, .. } => start,
            TraceEvent::PhaseEnd { end, .. } => end,
            TraceEvent::RewindBlocked { at, .. } => at,
            TraceEvent::Sync { start, .. } => start,
        }
    }

    /// When the event's local clock effect ends.
    pub fn end_time(&self) -> f64 {
        match *self {
            TraceEvent::Compute { end, .. } => end,
            TraceEvent::Call { end, .. } => end,
            TraceEvent::PhaseBegin { start, .. } => start,
            TraceEvent::PhaseEnd { end, .. } => end,
            TraceEvent::RewindBlocked { at, .. } => at,
            TraceEvent::Sync { end, .. } => end,
        }
    }
}

/// The gathered event streams of one SPMD run, indexed by rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// `events[r]` is rank `r`'s stream, in program (= virtual-time) order.
    pub events: Vec<Vec<TraceEvent>>,
}

/// Per-collective counters on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CollectiveStats {
    /// Top-level invocations (nested sub-collectives are not counted).
    pub calls: u64,
    /// Point-to-point messages sent inside this collective.
    pub msgs: u64,
    /// Words sent inside this collective.
    pub words: u64,
    /// Virtual seconds spent inside top-level spans of this collective.
    pub seconds: f64,
}

/// Aggregate virtual-time split of one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankSummary {
    pub rank: usize,
    /// Seconds charged via `compute` / `advance`.
    pub compute: f64,
    /// Seconds of send startup charges (the sender's share of wire time).
    pub wire: f64,
    /// Seconds idled in receives waiting for in-flight data.
    pub wait: f64,
    /// Messages / words this rank sent.
    pub msgs_sent: u64,
    pub words_sent: u64,
    /// Blocked clock-rewind attempts.
    pub rewinds_blocked: u64,
    /// Counters per collective kind, indexed like [`COLLECTIVE_KINDS`].
    pub collectives: [CollectiveStats; COLLECTIVE_KINDS.len()],
}

impl RankSummary {
    /// Counters for one collective kind.
    pub fn collective(&self, kind: CollectiveKind) -> &CollectiveStats {
        &self.collectives[kind.index()]
    }

    /// The rank's total accounted virtual time. Equal (to rounding) to the
    /// rank's final clock: every clock charge is exactly one event or one
    /// hop of a record, so `compute + wire + wait == elapsed`.
    pub fn total(&self) -> f64 {
        self.compute + self.wire + self.wait
    }
}

/// Aggregates of a whole [`TraceLog`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    pub ranks: Vec<RankSummary>,
}

impl TraceSummary {
    /// Sum of a per-rank quantity.
    fn sum(&self, f: impl Fn(&RankSummary) -> f64) -> f64 {
        self.ranks.iter().map(f).sum()
    }

    /// Total wait seconds over all ranks.
    pub fn total_wait(&self) -> f64 {
        self.sum(|r| r.wait)
    }

    /// Total compute seconds over all ranks.
    pub fn total_compute(&self) -> f64 {
        self.sum(|r| r.compute)
    }

    /// Total wire (send-startup) seconds over all ranks.
    pub fn total_wire(&self) -> f64 {
        self.sum(|r| r.wire)
    }

    /// Total messages sent over all ranks.
    pub fn total_msgs(&self) -> u64 {
        self.ranks.iter().map(|r| r.msgs_sent).sum()
    }

    /// Total words sent over all ranks.
    pub fn total_words(&self) -> u64 {
        self.ranks.iter().map(|r| r.words_sent).sum()
    }

    /// The log's virtual makespan: the slowest rank's accounted time.
    pub fn makespan(&self) -> f64 {
        self.ranks.iter().map(|r| r.total()).fold(0.0, f64::max)
    }
}

impl TraceLog {
    /// Gather the per-rank event streams out of `spmd` results. The streams
    /// move: each result's `events` is left empty, nothing is copied.
    pub fn from_results<T>(results: &mut [RankResult<T>]) -> Self {
        TraceLog {
            events: results
                .iter_mut()
                .map(|r| std::mem::take(&mut r.events))
                .collect(),
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.events.len()
    }

    /// Compute the per-rank aggregate metrics.
    pub fn summary(&self) -> TraceSummary {
        let mut splits = vec![RankPhaseSplit::default(); self.nranks()];
        let mut ranks: Vec<RankSummary> = (0..self.nranks())
            .map(|rank| RankSummary {
                rank,
                ..RankSummary::default()
            })
            .collect();
        self.walk(|v| {
            splits[v.rank].charge(v.ev);
            let s = &mut ranks[v.rank];
            tally_collective(&mut s.collectives, v.ev);
            if let TraceEvent::RewindBlocked { .. } = v.ev {
                s.rewinds_blocked += 1;
            }
        });
        for (s, split) in ranks.iter_mut().zip(splits) {
            s.compute = split.compute;
            s.wire = split.wire;
            s.wait = split.wait;
            s.msgs_sent = split.msgs;
            s.words_sent = split.words;
        }
        TraceSummary { ranks }
    }

    /// Serialize as Chrome-trace JSON (the `chrome://tracing` / Perfetto
    /// "JSON object format"). One track (`tid`) per rank; timestamps in
    /// microseconds of virtual time. Deterministic: identical logs
    /// serialize to identical bytes.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, line: String| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(&line);
        };
        for rank in 0..self.events.len() {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"rank {rank}\"}}}}"
                ),
            );
        }
        for (rank, stream) in self.events.iter().enumerate() {
            // A stack matching begin/end markers to complete ("X") events.
            let mut phase_stack: Vec<(&str, f64)> = Vec::new();
            for ev in stream {
                match ev {
                    TraceEvent::Compute { start, end } => push(
                        &mut out,
                        &mut first,
                        chrome_span(rank, "compute", "compute", *start, *end, ""),
                    ),
                    TraceEvent::Call {
                        call,
                        start,
                        end,
                        hops,
                    } => {
                        let (msgs, words) = sent(hops);
                        push(
                            &mut out,
                            &mut first,
                            chrome_span(
                                rank,
                                &call.to_string(),
                                "comm",
                                *start,
                                *end,
                                &format!(
                                    ",\"args\":{{\"msgs\":{msgs},\"words\":{words},\"hops\":\"{}\"}}",
                                    hop_list(hops)
                                ),
                            ),
                        )
                    }
                    TraceEvent::PhaseBegin { name, start } => phase_stack.push((*name, *start)),
                    TraceEvent::PhaseEnd { name, end } => {
                        if let Some((n, start)) = phase_stack.pop() {
                            debug_assert_eq!(n, *name);
                            push(
                                &mut out,
                                &mut first,
                                chrome_span(rank, n, "phase", start, *end, ""),
                            );
                        }
                    }
                    TraceEvent::RewindBlocked { at, dt } => push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"i\",\"pid\":0,\"tid\":{rank},\"ts\":{},\"s\":\"t\",\
                             \"name\":\"clock-rewind-blocked\",\"cat\":\"violation\",\
                             \"args\":{{\"dt_us\":{}}}}}",
                            us(*at),
                            us(*dt)
                        ),
                    ),
                    TraceEvent::Sync { start, end } => push(
                        &mut out,
                        &mut first,
                        chrome_span(rank, "sync", "wait", *start, *end, ""),
                    ),
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Plain-text per-rank timeline (chronological within each rank).
    pub fn text_timeline(&self) -> String {
        let mut out = String::new();
        for (rank, stream) in self.events.iter().enumerate() {
            out.push_str(&format!("== rank {rank} ==\n"));
            for ev in stream {
                let line = match ev {
                    TraceEvent::Compute { start, end } => {
                        format!(
                            "{:>14}  compute {:.3}us",
                            span(*start, *end),
                            us_f(*end - *start)
                        )
                    }
                    TraceEvent::Call {
                        call,
                        start,
                        end,
                        hops,
                    } => {
                        let (msgs, words) = sent(hops);
                        format!(
                            "{:>14}  {call} msgs={msgs} words={words} hops: {}",
                            span(*start, *end),
                            hop_list(hops)
                        )
                    }
                    TraceEvent::PhaseBegin { name, start } => {
                        format!("{:>14}  === phase {name} begin ===", ts(*start))
                    }
                    TraceEvent::PhaseEnd { name, end } => {
                        format!("{:>14}  === phase {name} end ===", ts(*end))
                    }
                    TraceEvent::RewindBlocked { at, dt } => format!(
                        "{:>14}  !! clock rewind blocked (dt={:.3}us)",
                        ts(*at),
                        us_f(*dt)
                    ),
                    TraceEvent::Sync { start, end } => format!(
                        "{:>14}  sync (idle {:.3}us)",
                        span(*start, *end),
                        us_f(*end - *start)
                    ),
                };
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

/// Microseconds string with fixed precision (deterministic formatting).
fn us(seconds: f64) -> String {
    format!("{:.6}", seconds * 1e6)
}

fn us_f(seconds: f64) -> f64 {
    seconds * 1e6
}

fn ts(seconds: f64) -> String {
    format!("{:.3}us", seconds * 1e6)
}

fn span(start: f64, end: f64) -> String {
    format!("{:.3}..{:.3}us", start * 1e6, end * 1e6)
}

/// The messages and words a record's send hops sent.
fn sent(hops: &[Hop]) -> (u64, u64) {
    let sends = hops.iter().filter(|h| h.is_send());
    sends.fold((0, 0), |(msgs, words), h| (msgs + 1, words + h.words()))
}

/// A record's hops for the exports: `->peer` for a send, `<-peer` for a
/// receive, each with its words.
fn hop_list(hops: &[Hop]) -> String {
    let ends = hops.iter().map(|h| {
        let dir = if h.is_send() { "->" } else { "<-" };
        format!("{dir}{}:{}", h.peer(), h.words())
    });
    ends.collect::<Vec<_>>().join(" ")
}

fn chrome_span(rank: usize, name: &str, cat: &str, start: f64, end: f64, args: &str) -> String {
    format!(
        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{rank},\"ts\":{},\"dur\":{},\
         \"name\":\"{name}\",\"cat\":\"{cat}\"{args}}}",
        us(start),
        us(end - start)
    )
}

// ---------------------------------------------------------------------------
// Protocol checker
// ---------------------------------------------------------------------------

/// One SPMD discipline violation found by [`check_protocol`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolViolation {
    /// Rank `rank`'s `index`-th collective call differs from rank 0's
    /// (`None` = that rank's sequence ended early).
    CollectiveSequenceMismatch {
        rank: usize,
        index: usize,
        reference: Option<CollectiveKind>,
        got: Option<CollectiveKind>,
    },
    /// The `index`-th message on the `src → dst` channel was sent with one
    /// tag but received expecting another (`None` = one side stopped
    /// early: unreceived sends or unmatched receives).
    TagOrderMismatch {
        src: usize,
        dst: usize,
        index: usize,
        sent: Option<Tag>,
        received: Option<Tag>,
    },
    /// A rank attempted to rewind its virtual clock (negative charge).
    ClockRewind { rank: usize, at: f64, dt: f64 },
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolViolation::CollectiveSequenceMismatch {
                rank,
                index,
                reference,
                got,
            } => write!(
                f,
                "collective sequence mismatch: rank {rank} call #{index} is {}, rank 0 has {}",
                got.map_or("<none>", |k| k.name()),
                reference.map_or("<none>", |k| k.name()),
            ),
            ProtocolViolation::TagOrderMismatch {
                src,
                dst,
                index,
                sent,
                received,
            } => write!(
                f,
                "tag order mismatch on channel {src} -> {dst}, message #{index}: \
                 sent tag {sent:?}, received expecting tag {received:?}",
            ),
            ProtocolViolation::ClockRewind { rank, at, dt } => write!(
                f,
                "clock rewind attempt on rank {rank} at t={:.3}us (dt={:.3}us)",
                at * 1e6,
                dt * 1e6
            ),
        }
    }
}

/// Replay a [`TraceLog`] and report every SPMD discipline violation:
///
/// 1. **Collective sequences**: every rank must issue the same collectives
///    in the same order (rank 0 is the reference).
/// 2. **Tag order**: per `src → dst` channel, the sender's tag sequence of
///    point-to-point mail must equal the receiver's expected-tag sequence
///    (channels are FIFO). A collective's hops carry no tags: its schedule
///    is fixed by its kind, root and rank count, and the rendezvous runs
///    it for every rank at once.
/// 3. **Clock rewinds**: any blocked negative clock charge.
pub fn check_protocol(log: &TraceLog) -> Vec<ProtocolViolation> {
    let mut out = Vec::new();

    // 1. Collective call sequences, in order.
    let seqs: Vec<Vec<CollectiveKind>> = log
        .events
        .iter()
        .map(|stream| {
            stream
                .iter()
                .filter_map(|ev| match ev {
                    TraceEvent::Call {
                        call: Call::Collective(kind),
                        ..
                    } => Some(*kind),
                    _ => None,
                })
                .collect()
        })
        .collect();
    if let Some(reference) = seqs.first() {
        for (rank, seq) in seqs.iter().enumerate().skip(1) {
            let n = reference.len().max(seq.len());
            for i in 0..n {
                let a = reference.get(i).copied();
                let b = seq.get(i).copied();
                if a != b {
                    out.push(ProtocolViolation::CollectiveSequenceMismatch {
                        rank,
                        index: i,
                        reference: a,
                        got: b,
                    });
                    break; // one desynchronization point per rank
                }
            }
        }
    }

    // 2. Tag order per point-to-point channel. One pass over each rank's
    // stream builds the per-(src, dst) tag sequences for both sides; only
    // channels that carried traffic are materialized, so the cost is
    // O(events), not O(P²) channel scans over the full streams.
    let mut sent_tags: HashMap<(usize, usize), Vec<Tag>> = HashMap::new();
    let mut recd_tags: HashMap<(usize, usize), Vec<Tag>> = HashMap::new();
    for (rank, stream) in log.events.iter().enumerate() {
        for ev in stream {
            let TraceEvent::Call {
                call: Call::Mail(tag),
                hops,
                ..
            } = ev
            else {
                continue;
            };
            for hop in hops.iter() {
                if hop.is_send() {
                    sent_tags.entry((rank, hop.peer())).or_default().push(*tag);
                } else {
                    recd_tags.entry((hop.peer(), rank)).or_default().push(*tag);
                }
            }
        }
    }
    let mut channels: Vec<(usize, usize)> =
        sent_tags.keys().chain(recd_tags.keys()).copied().collect();
    channels.sort_unstable();
    channels.dedup();
    const NO_TAGS: &[Tag] = &[];
    for (src, dst) in channels {
        let sent = sent_tags.get(&(src, dst)).map_or(NO_TAGS, |v| v);
        let recd = recd_tags.get(&(src, dst)).map_or(NO_TAGS, |v| v);
        let n = sent.len().max(recd.len());
        for i in 0..n {
            let a = sent.get(i).copied();
            let b = recd.get(i).copied();
            if a != b {
                out.push(ProtocolViolation::TagOrderMismatch {
                    src,
                    dst,
                    index: i,
                    sent: a,
                    received: b,
                });
                break;
            }
        }
    }

    // 3. Clock rewinds.
    for (rank, stream) in log.events.iter().enumerate() {
        for ev in stream {
            if let TraceEvent::RewindBlocked { at, dt } = ev {
                out.push(ProtocolViolation::ClockRewind {
                    rank,
                    at: *at,
                    dt: *dt,
                });
            }
        }
    }

    out
}

impl TraceLog {
    /// The invariants every consumer of a log relies on, checked together:
    /// the log is protocol-clean ([`check_protocol`]) and its per-phase
    /// aggregates account for every rank's time,
    /// `|Σ phases − Σ ranks| ≤ 1e-9 · max(Σ ranks, 1)`. Returns the log's
    /// virtual makespan, or what is wrong with it.
    pub fn audit(&self) -> Result<f64, String> {
        let violations = check_protocol(self);
        if !violations.is_empty() {
            return Err(format!("log violates SPMD discipline: {violations:?}"));
        }
        let summary = self.summary();
        let ranks: f64 = summary.ranks.iter().map(|r| r.total()).sum();
        let phases: f64 = self.phase_breakdowns().iter().map(|a| a.total()).sum();
        if (ranks - phases).abs() > 1e-9 * ranks.max(1.0) {
            return Err(format!("phase accounting {phases} != summary {ranks}"));
        }
        Ok(summary.makespan())
    }
}

// ---------------------------------------------------------------------------
// Phase attribution: one walk, and the aggregates that accumulate over it
// ---------------------------------------------------------------------------

/// Phase name of activity recorded before a rank's first phase marker. The
/// row exists in an aggregate only when some event landed there.
pub const OUTSIDE_PHASE: &str = "-";

/// One matched send/recv pair: the cross-rank happens-before edge induced by
/// a message. Channels are FIFO per `(src, dst)` pair, so the `i`-th send on
/// a channel pairs with the `i`-th receive on it (the same rule
/// [`check_protocol`] enforces on tag sequences); point-to-point mail and
/// collective hops pair apart, which in a protocol-clean log is the same
/// pairing (a collective's messages are all received inside its call).
#[derive(Debug, Clone, PartialEq)]
pub struct MessageEdge<'a> {
    pub src: usize,
    pub dst: usize,
    /// What carried the message.
    pub call: Call,
    /// Declared words, as recorded on the receive side.
    pub words: u64,
    /// Index in `events[src]` of the record holding the send hop, and the
    /// hop's index in it.
    pub send_event: usize,
    pub send_hop: usize,
    /// Index in `events[dst]` of the record holding the receive hop, and
    /// the hop's index in it.
    pub recv_event: usize,
    pub recv_hop: usize,
    pub send_start: f64,
    pub send_end: f64,
    pub recv_posted: f64,
    pub recv_completed: f64,
    /// Receiver idle time paid on this edge: the receive hop's span.
    pub wait: f64,
    /// Phase the receive is attributed to on the receiver (a name in the
    /// log, borrowed: building an edge allocates nothing).
    pub phase: &'a str,
}

/// Per-phase aggregate built in a single pass over a [`TraceLog`]
/// (see [`TraceLog::phase_breakdowns`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseAgg {
    pub name: String,
    /// Seconds charged via `compute` / `advance`, summed over ranks.
    pub compute: f64,
    /// Send-startup seconds, summed over ranks.
    pub wire: f64,
    /// Recv + sync idle seconds, summed over ranks.
    pub wait: f64,
    /// Messages / words sent inside the phase, over all ranks.
    pub msgs: u64,
    pub words: u64,
    /// Earliest `PhaseBegin` across ranks.
    pub start: f64,
    /// Latest `PhaseEnd` across ranks.
    pub end: f64,
}

impl PhaseAgg {
    /// Wall-clock (virtual) extent of the phase.
    pub fn elapsed(&self) -> f64 {
        self.end - self.start
    }

    /// Total accounted seconds over all ranks.
    pub fn total(&self) -> f64 {
        self.compute + self.wire + self.wait
    }
}

/// The accounted-seconds split plus message counters of a set of events —
/// one rank's share of a phase in [`TraceLog::phase_rank_breakdowns`], and
/// the accumulator behind every other aggregate of this module.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankPhaseSplit {
    /// Compute seconds inside the phase on this rank.
    pub compute: f64,
    /// Send-startup (wire) seconds.
    pub wire: f64,
    /// Recv + sync idle seconds.
    pub wait: f64,
    /// Messages / words sent inside the phase by this rank.
    pub msgs: u64,
    pub words: u64,
}

impl RankPhaseSplit {
    /// Total accounted seconds of this rank inside the phase.
    pub fn total(&self) -> f64 {
        self.compute + self.wire + self.wait
    }

    /// Account one event: every clock charge is exactly one of compute,
    /// wire or wait, so the three sums reconstruct elapsed time. A
    /// record's hops are charged one by one, in the order they were made: a
    /// send hop's span is wire and sends its words, a receive hop's is
    /// wait.
    fn charge(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Compute { start, end } => self.compute += end - start,
            TraceEvent::Call {
                start, ref hops, ..
            } => {
                for (from, hop) in hop_spans(start, hops) {
                    if hop.is_send() {
                        self.wire += hop.at - from;
                        self.msgs += 1;
                        self.words += hop.words();
                    } else {
                        self.wait += hop.at - from;
                    }
                }
            }
            TraceEvent::Sync { start, end } => self.wait += end - start,
            _ => {}
        }
    }
}

/// Per-(phase, rank) aggregation: the same attribution as
/// [`TraceLog::phase_breakdowns`], but split per rank and extended with the
/// phase's collective counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRankAgg {
    pub name: String,
    /// Earliest `PhaseBegin` across ranks.
    pub start: f64,
    /// Latest `PhaseEnd` across ranks.
    pub end: f64,
    /// One entry per rank (length == `TraceLog::nranks`).
    pub ranks: Vec<RankPhaseSplit>,
    /// Collective stats summed over ranks, indexed by
    /// `CollectiveKind::index`.
    pub collectives: [CollectiveStats; COLLECTIVE_KINDS.len()],
}

impl PhaseRankAgg {
    /// Total accounted seconds over all ranks.
    pub fn total(&self) -> f64 {
        self.ranks.iter().map(|r| r.total()).sum()
    }

    /// Stats of one collective kind inside this phase.
    pub fn collective(&self, kind: CollectiveKind) -> &CollectiveStats {
        &self.collectives[kind.index()]
    }
}

/// Which phase each rank was in at any virtual time, under the attribution
/// rule of [`TraceLog::phase_breakdowns`] (see [`TraceLog::phase_timeline`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTimeline {
    names: Vec<String>,
    /// Per rank: `(time, phase)` changepoints in time order.
    changes: Vec<Vec<(f64, usize)>>,
}

impl PhaseTimeline {
    /// The phase current on `rank` at time `t`: the last changepoint at or
    /// before `t`, [`OUTSIDE_PHASE`] before the first.
    pub fn at(&self, rank: usize, t: f64) -> &str {
        let changes = &self.changes[rank];
        match changes.partition_point(|&(at, _)| at <= t) {
            0 => OUTSIDE_PHASE,
            i => &self.names[changes[i - 1].1],
        }
    }
}

/// A phase as [`TraceLog::walk`] saw it: its name and marker extents.
struct PhaseSpan<'a> {
    name: &'a str,
    /// Earliest `PhaseBegin` / latest `PhaseEnd` across ranks.
    start: f64,
    end: f64,
}

/// What [`TraceLog::walk`] knows about one event.
struct Visit<'a> {
    rank: usize,
    /// Position of `ev` in its rank's stream.
    index: usize,
    ev: &'a TraceEvent,
    /// The phase `ev` is attributed to (a marker to its own): its position
    /// in the walk's phase table (appearance order) and its name.
    phase: usize,
    name: &'a str,
}

/// Count a collective record towards its kind: one call, its start-to-end
/// seconds and every message it sent.
fn tally_collective(stats: &mut [CollectiveStats; COLLECTIVE_KINDS.len()], ev: &TraceEvent) {
    if let TraceEvent::Call {
        call: Call::Collective(kind),
        start,
        end,
        ref hops,
    } = *ev
    {
        let c = &mut stats[kind.index()];
        let (msgs, words) = sent(hops);
        c.calls += 1;
        c.seconds -= start;
        c.seconds += end;
        c.msgs += msgs;
        c.words += words;
    }
}

impl TraceLog {
    /// The one walk every aggregate of this module accumulates over: visit
    /// each event, rank by rank in stream order, with the phase it belongs
    /// to. The attribution rule:
    ///
    /// 1. an event belongs to the innermost phase open on its rank (a
    ///    marker to the phase it opens or closes);
    /// 2. after a phase closes with no outer phase open, it stays current
    ///    until the next one opens — the step-boundary `Sync` a
    ///    [`crate::Session`] records after the rank body returns is part of
    ///    the phase that step ran;
    /// 3. events before a rank's first phase belong to [`OUTSIDE_PHASE`].
    ///
    /// Every event therefore lands in exactly one phase, which is what
    /// makes `Σ phases == Σ ranks` ([`TraceLog::audit`]). Returns the phase
    /// table in order of first appearance.
    fn walk<'a>(&'a self, mut visit: impl FnMut(Visit<'a>)) -> Vec<PhaseSpan<'a>> {
        let mut ids: HashMap<&'a str, usize> = HashMap::new();
        let mut spans: Vec<PhaseSpan<'a>> = Vec::new();
        let mut intern = |name: &'a str, spans: &mut Vec<PhaseSpan<'a>>| {
            *ids.entry(name).or_insert_with(|| {
                spans.push(PhaseSpan {
                    name,
                    start: f64::INFINITY,
                    end: f64::NEG_INFINITY,
                });
                spans.len() - 1
            })
        };
        for (rank, stream) in self.events.iter().enumerate() {
            // Open phases, innermost last; `current` outlives the stack
            // (rule 2) and is `None` before the first phase (rule 3).
            let mut stack: Vec<usize> = Vec::new();
            let mut current: Option<usize> = None;
            for (index, ev) in stream.iter().enumerate() {
                if let TraceEvent::PhaseBegin { name, start } = ev {
                    let id = intern(name, &mut spans);
                    spans[id].start = spans[id].start.min(*start);
                    stack.push(id);
                    current = Some(id);
                }
                let phase = current.unwrap_or_else(|| {
                    let id = intern(OUTSIDE_PHASE, &mut spans);
                    spans[id].start = spans[id].start.min(ev.time());
                    spans[id].end = spans[id].end.max(ev.end_time());
                    id
                });
                visit(Visit {
                    rank,
                    index,
                    ev,
                    phase,
                    name: spans[phase].name,
                });
                if let TraceEvent::PhaseEnd { name, end } = ev {
                    let popped = stack.pop();
                    debug_assert_eq!(
                        popped.map(|id| spans[id].name),
                        Some(*name),
                        "unbalanced phase markers"
                    );
                    if let Some(id) = popped {
                        spans[id].end = spans[id].end.max(*end);
                        current = stack.last().copied().or(Some(id));
                    }
                }
            }
        }
        // A phase opened and never closed (a truncated log) has no extent.
        for span in &mut spans {
            if !span.end.is_finite() {
                span.end = span.start;
            }
        }
        spans
    }

    /// Match every send hop to its receive hop by FIFO channel order (see
    /// [`MessageEdge`]) and return the resulting happens-before edges, grouped by receiver rank in stream order
    /// (deterministic). Unmatched sends or receives (a protocol violation)
    /// produce no edge.
    pub fn message_edges(&self) -> Vec<MessageEdge<'_>> {
        use std::collections::VecDeque;
        // Per (src, dst, is mail) channel: queued send hops in send order.
        struct PendingSend {
            event: usize,
            hop: usize,
            start: f64,
            end: f64,
        }
        let mut channels: HashMap<(usize, usize, bool), VecDeque<PendingSend>> = HashMap::new();
        for (src, stream) in self.events.iter().enumerate() {
            for (event, ev) in stream.iter().enumerate() {
                let TraceEvent::Call {
                    call,
                    start,
                    ref hops,
                    ..
                } = *ev
                else {
                    continue;
                };
                let mail = matches!(call, Call::Mail(_));
                let sends = hop_spans(start, hops).enumerate();
                for (hop, (from, h)) in sends.filter(|(_, (_, h))| h.is_send()) {
                    let send = PendingSend {
                        event,
                        hop,
                        start: from,
                        end: h.at,
                    };
                    channels
                        .entry((src, h.peer(), mail))
                        .or_default()
                        .push_back(send);
                }
            }
        }
        let mut edges = Vec::new();
        self.walk(|v| {
            let TraceEvent::Call {
                call,
                start,
                ref hops,
                ..
            } = *v.ev
            else {
                return;
            };
            let mail = matches!(call, Call::Mail(_));
            let recvs = hop_spans(start, hops).enumerate();
            for (recv_hop, (from, h)) in recvs.filter(|(_, (_, h))| !h.is_send()) {
                let channel = channels.get_mut(&(h.peer(), v.rank, mail));
                if let Some(send) = channel.and_then(VecDeque::pop_front) {
                    edges.push(MessageEdge {
                        src: h.peer(),
                        dst: v.rank,
                        call,
                        words: h.words(),
                        send_event: send.event,
                        send_hop: send.hop,
                        recv_event: v.index,
                        recv_hop,
                        send_start: send.start,
                        send_end: send.end,
                        recv_posted: from,
                        recv_completed: h.at,
                        wait: h.at - from,
                        phase: v.name,
                    });
                }
            }
        });
        edges
    }

    /// Per-phase aggregation in one pass, under the attribution rule of the
    /// module's one walk (innermost open phase; a closed phase stays
    /// current until the next opens; [`OUTSIDE_PHASE`] before a rank's
    /// first). Phases are returned in order of first appearance.
    pub fn phase_breakdowns(&self) -> Vec<PhaseAgg> {
        let mut splits: Vec<RankPhaseSplit> = Vec::new();
        let spans = self.walk(|v| {
            if v.phase == splits.len() {
                splits.push(RankPhaseSplit::default());
            }
            splits[v.phase].charge(v.ev);
        });
        spans
            .into_iter()
            .zip(splits)
            .map(|(span, split)| PhaseAgg {
                name: span.name.to_string(),
                compute: split.compute,
                wire: split.wire,
                wait: split.wait,
                msgs: split.msgs,
                words: split.words,
                start: span.start,
                end: span.end,
            })
            .collect()
    }

    /// The per-(phase, rank) refinement of [`TraceLog::phase_breakdowns`]:
    /// identical attribution, but the accounted split is kept per rank, and
    /// each phase additionally collects the counters of its collective
    /// calls. Summing a phase's rank splits
    /// reproduces the corresponding [`PhaseAgg`] fields (up to float
    /// reassociation — the counters match exactly).
    pub fn phase_rank_breakdowns(&self) -> Vec<PhaseRankAgg> {
        let nranks = self.nranks();
        let mut aggs: Vec<PhaseRankAgg> = Vec::new();
        let spans = self.walk(|v| {
            if v.phase == aggs.len() {
                aggs.push(PhaseRankAgg {
                    name: v.name.to_string(),
                    start: 0.0,
                    end: 0.0,
                    ranks: vec![RankPhaseSplit::default(); nranks],
                    collectives: Default::default(),
                });
            }
            aggs[v.phase].ranks[v.rank].charge(v.ev);
            tally_collective(&mut aggs[v.phase].collectives, v.ev);
        });
        for (agg, span) in aggs.iter_mut().zip(spans) {
            agg.start = span.start;
            agg.end = span.end;
        }
        aggs
    }

    /// The log of one phase: its markers plus every event attributed to it
    /// (so `phase_slice(name).summary()` totals equal the phase's
    /// aggregate), as a log of the same rank count.
    pub fn phase_slice(&self, name: &str) -> TraceLog {
        let mut out = TraceLog {
            events: vec![Vec::new(); self.nranks()],
        };
        self.walk(|v| {
            if v.name == name {
                out.events[v.rank].push(v.ev.clone());
            }
        });
        out
    }

    /// Per-rank phase changepoints, for looking up the phase of a point in
    /// time (the digest's critical-path buckets) under the same rule as the
    /// aggregates.
    pub fn phase_timeline(&self) -> PhaseTimeline {
        let mut changes: Vec<Vec<(f64, usize)>> = vec![Vec::new(); self.nranks()];
        let spans = self.walk(|v| {
            let rank = &mut changes[v.rank];
            if rank.last().map(|&(_, phase)| phase) != Some(v.phase) {
                rank.push((v.ev.time(), v.phase));
            }
        });
        PhaseTimeline {
            names: spans.iter().map(|span| span.name.to_string()).collect(),
            changes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spmd, MachineModel};

    /// A small but communication-heavy program touching every collective,
    /// and a point-to-point ring exchange.
    fn run_workload() -> Vec<RankResult<f64>> {
        spmd(5, MachineModel::sp2(), |comm| {
            comm.phase("setup", |c| c.compute(50.0 + c.rank() as f64));
            let (rank, p) = (comm.rank(), comm.nranks());
            comm.send((rank + 1) % p, 9, 3, rank);
            comm.recv::<usize>((rank + p - 1) % p, 9);
            comm.barrier();
            let v = comm.bcast(2, 4, (comm.rank() == 2).then(|| vec![1u64; 4]));
            comm.gather(1, 4, v.clone());
            let back = comm.scatterv(3, (comm.rank() == 3).then(|| vec![(2, 0u64); 5]));
            comm.allgather(1, back);
            comm.allreduce_sum_f64(comm.rank() as f64);
            let p = comm.nranks();
            let items: Vec<(u64, usize)> = (0..p).map(|d| (3, d)).collect();
            comm.alltoallv(items);
            comm.reduce(4, |_| 1, comm.rank() as u64, |a, b| a + b);
            comm.exscan(|_| 2, comm.rank() as u64, |a, b| a + b);
            comm.now()
        })
    }

    #[test]
    fn summary_reconstructs_elapsed_exactly() {
        let mut results = run_workload();
        let log = TraceLog::from_results(&mut results);
        let summary = log.summary();
        for (r, s) in results.iter().zip(&summary.ranks) {
            assert!(
                (s.total() - r.elapsed).abs() < 1e-9,
                "rank {}: trace accounts for {} but clock says {}",
                r.rank,
                s.total(),
                r.elapsed
            );
        }
    }

    #[test]
    fn summary_counters_match_comm_statistics() {
        let mut results = run_workload();
        let summary = TraceLog::from_results(&mut results).summary();
        for (r, s) in results.iter().zip(&summary.ranks) {
            assert_eq!(s.msgs_sent, r.sent_messages, "rank {}", r.rank);
            assert_eq!(s.words_sent, r.sent_words, "rank {}", r.rank);
        }
        // Each collective was called exactly once per rank, at top level.
        for s in &summary.ranks {
            for kind in COLLECTIVE_KINDS {
                assert_eq!(
                    s.collective(kind).calls,
                    1,
                    "rank {} collective {}",
                    s.rank,
                    kind.name()
                );
            }
            // (So the gather, reduce and bcast nested inside allgather and
            // allreduce were not double-counted as top-level calls.)
        }
    }

    #[test]
    fn exports_are_deterministic_across_runs() {
        let a = TraceLog::from_results(&mut run_workload());
        let b = TraceLog::from_results(&mut run_workload());
        assert_eq!(a.chrome_json(), b.chrome_json());
        assert_eq!(a.text_timeline(), b.text_timeline());
    }

    #[test]
    fn chrome_json_is_wellformed_and_has_rank_tracks() {
        let json = TraceLog::from_results(&mut run_workload()).chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.trim_end().ends_with("]}"));
        for rank in 0..5 {
            assert!(json.contains(&format!("\"args\":{{\"name\":\"rank {rank}\"}}")));
        }
        assert!(json.contains("\"name\":\"barrier\""));
        assert!(json.contains("\"name\":\"setup\""));
        // Balanced braces / brackets (cheap well-formedness proxy; none of
        // the emitted strings contain braces).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn clean_run_passes_protocol_check() {
        let log = TraceLog::from_results(&mut run_workload());
        let violations = check_protocol(&log);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
        assert_eq!(log.audit(), Ok(log.summary().makespan()));
    }

    #[test]
    fn checker_flags_corrupted_collective_sequence() {
        let mut log = TraceLog::from_results(&mut run_workload());
        // Corrupt rank 3: swap its barrier for a bcast, as if one rank took
        // a different branch and called a different collective.
        let record = log.events[3]
            .iter_mut()
            .find_map(|ev| match ev {
                TraceEvent::Call {
                    call: Call::Collective(kind),
                    ..
                } => Some(kind),
                _ => None,
            })
            .unwrap();
        assert_eq!(*record, CollectiveKind::Barrier);
        *record = CollectiveKind::Bcast;
        let violations = check_protocol(&log);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                ProtocolViolation::CollectiveSequenceMismatch {
                    rank: 3,
                    reference: Some(CollectiveKind::Barrier),
                    got: Some(CollectiveKind::Bcast),
                    ..
                }
            )),
            "checker missed the corruption: {violations:?}"
        );
    }

    #[test]
    fn checker_flags_tag_order_mismatch() {
        let mut log = TraceLog::from_results(&mut run_workload());
        // Corrupt one send tag on rank 0 so the sender/receiver tag
        // sequences on that channel disagree.
        let ev = log.events[0]
            .iter_mut()
            .find_map(|ev| match ev {
                TraceEvent::Call {
                    call: Call::Mail(tag),
                    hops,
                    ..
                } if hops[0].is_send() => Some(tag),
                _ => None,
            })
            .unwrap();
        *ev += 1;
        let violations = check_protocol(&log);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, ProtocolViolation::TagOrderMismatch { src: 0, .. })),
            "checker missed the tag corruption: {violations:?}"
        );
        assert!(log.audit().unwrap_err().contains("TagOrderMismatch"));
    }

    #[test]
    fn rewind_attempt_is_traced_and_flagged() {
        let mut results = spmd(2, MachineModel::sp2(), |comm| {
            comm.advance(1.0);
            comm.advance(-0.5); // cost-model bug: blocked, not applied
            comm.now()
        });
        for r in &results {
            assert!((r.value - 1.0).abs() < 1e-15, "clock must saturate");
        }
        let log = TraceLog::from_results(&mut results);
        assert_eq!(log.summary().ranks[0].rewinds_blocked, 1);
        let violations = check_protocol(&log);
        assert_eq!(
            violations
                .iter()
                .filter(|v| matches!(v, ProtocolViolation::ClockRewind { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn phase_spans_nest_and_export() {
        let mut results = spmd(2, MachineModel::sp2(), |comm| {
            comm.phase("outer", |c| {
                c.compute(10.0);
                c.phase("inner", |c| c.barrier());
            });
        });
        let log = TraceLog::from_results(&mut results);
        let json = log.chrome_json();
        assert!(json.contains("\"name\":\"outer\""));
        assert!(json.contains("\"name\":\"inner\""));
        let text = log.text_timeline();
        assert!(text.contains("phase outer begin"));
        assert!(text.contains("phase inner end"));
    }

    #[test]
    fn message_edges_pair_fifo_and_honor_causality() {
        let log = TraceLog::from_results(&mut run_workload());
        let edges = log.message_edges();
        let summary = log.summary();
        // Every send in this clean run is received, so edge count == total
        // messages sent.
        assert_eq!(edges.len() as u64, summary.total_msgs());
        for e in &edges {
            // Causality: the payload cannot complete before the send ended.
            assert!(
                e.recv_completed >= e.send_end - 1e-12,
                "edge {e:?} violates causality"
            );
            assert!(e.wait >= 0.0);
            // The edge indices really point at a send / receive pair: the
            // hops of two records of one call.
            let hop = |ev: &TraceEvent, i: usize| match ev {
                TraceEvent::Call { call, hops, .. } if *call == e.call => hops[i],
                other => panic!("edge {e:?} points at {other:?}"),
            };
            let s = hop(&log.events[e.src][e.send_event], e.send_hop);
            let r = hop(&log.events[e.dst][e.recv_event], e.recv_hop);
            assert!(s.is_send() && s.peer() == e.dst && s.at == e.send_end);
            assert!(!r.is_send() && r.peer() == e.src && r.at == e.recv_completed);
            assert_eq!((s.words(), r.words()), (e.words, e.words));
        }
        assert_eq!(
            edges.iter().filter(|e| e.call == Call::Mail(9)).count(),
            5,
            "the ring's mail"
        );
        // The setup phase sends nothing itself, but it is the only phase:
        // everything after it closes is carried into it.
        assert!(edges.iter().all(|e| e.phase == "setup"));
    }

    #[test]
    fn message_edges_record_receiver_phase() {
        let mut results = spmd(2, MachineModel::sp2(), |comm| {
            comm.phase("exchange", |c| {
                if c.rank() == 0 {
                    c.send(1, 7, 10, 3u8);
                } else {
                    c.recv::<u8>(0, 7);
                }
            });
        });
        let log = TraceLog::from_results(&mut results);
        let edges = log.message_edges();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].phase, "exchange");
        assert_eq!((edges[0].src, edges[0].dst), (0, 1));
        assert_eq!(edges[0].words, 10);
    }

    #[test]
    fn phase_breakdowns_match_per_phase_summaries() {
        // Two phases per rank with disjoint activity; the one-pass
        // aggregation must reproduce what slicing + summary() computes.
        let mut results = spmd(3, MachineModel::sp2(), |comm| {
            comm.phase("a", |c| {
                c.compute(40.0 * (c.rank() + 1) as f64);
                c.barrier();
            });
            comm.phase("b", |c| {
                let p = c.nranks();
                let items: Vec<(u64, usize)> = (0..p).map(|d| (2, d)).collect();
                c.alltoallv(items);
            });
        });
        let log = TraceLog::from_results(&mut results);
        let aggs = log.phase_breakdowns();
        assert_eq!(
            aggs.iter().map(|a| a.name.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"],
            "appearance order"
        );
        for agg in &aggs {
            let sliced = log.phase_slice(&agg.name).summary();
            assert!(
                (agg.compute - sliced.total_compute()).abs() < 1e-12,
                "{agg:?}"
            );
            assert!((agg.wire - sliced.total_wire()).abs() < 1e-12, "{agg:?}");
            assert!((agg.wait - sliced.total_wait()).abs() < 1e-12, "{agg:?}");
            assert_eq!(agg.msgs, sliced.total_msgs());
            assert_eq!(agg.words, sliced.total_words());
            assert!(agg.elapsed() > 0.0);
        }
        // Every event lands in exactly one phase, so summing the aggs
        // reproduces the full summary.
        let full = log.summary();
        let agg_total: f64 = aggs.iter().map(|a| a.total()).sum();
        let full_total: f64 = full.ranks.iter().map(|r| r.total()).sum();
        assert!((agg_total - full_total).abs() < 1e-12);
        assert_eq!(aggs.iter().map(|a| a.msgs).sum::<u64>(), full.total_msgs());
    }

    #[test]
    fn phase_rank_breakdowns_refine_phase_breakdowns() {
        // The per-(phase, rank) split must sum back to phase_breakdowns
        // field-for-field, report the same phase order/extents, and its
        // collective counters must sum to the full summary's.
        let log = TraceLog::from_results(&mut run_workload());
        let flat = log.phase_breakdowns();
        let split = log.phase_rank_breakdowns();
        assert_eq!(flat.len(), split.len());
        for (f, s) in flat.iter().zip(&split) {
            assert_eq!(f.name, s.name);
            assert_eq!(f.start, s.start);
            assert_eq!(f.end, s.end);
            assert_eq!(s.ranks.len(), log.nranks());
            let sum = |get: fn(&RankPhaseSplit) -> f64| -> f64 { s.ranks.iter().map(get).sum() };
            assert!((f.compute - sum(|r| r.compute)).abs() < 1e-12, "{s:?}");
            assert!((f.wire - sum(|r| r.wire)).abs() < 1e-12, "{s:?}");
            assert!((f.wait - sum(|r| r.wait)).abs() < 1e-12, "{s:?}");
            assert_eq!(f.msgs, s.ranks.iter().map(|r| r.msgs).sum::<u64>());
            assert_eq!(f.words, s.ranks.iter().map(|r| r.words).sum::<u64>());
        }
        let full = log.summary();
        for kind in COLLECTIVE_KINDS {
            let calls: u64 = split.iter().map(|s| s.collective(kind).calls).sum();
            let msgs: u64 = split.iter().map(|s| s.collective(kind).msgs).sum();
            let words: u64 = split.iter().map(|s| s.collective(kind).words).sum();
            let secs: f64 = split.iter().map(|s| s.collective(kind).seconds).sum();
            let full_calls: u64 = full.ranks.iter().map(|r| r.collective(kind).calls).sum();
            let full_msgs: u64 = full.ranks.iter().map(|r| r.collective(kind).msgs).sum();
            let full_words: u64 = full.ranks.iter().map(|r| r.collective(kind).words).sum();
            let full_secs: f64 = full.ranks.iter().map(|r| r.collective(kind).seconds).sum();
            assert_eq!(calls, full_calls, "{kind:?}");
            assert_eq!(msgs, full_msgs, "{kind:?}");
            assert_eq!(words, full_words, "{kind:?}");
            assert!((secs - full_secs).abs() < 1e-12, "{kind:?}");
        }
    }

    #[test]
    fn phase_breakdowns_carry_trailing_syncs_into_last_phase() {
        // A Session step whose body is one phase: the step-boundary Sync
        // falls after PhaseEnd but is carried into that phase, so the
        // per-phase totals match the full per-step accounting — and the
        // phase's slice, which follows the same rule, carries it too.
        let mut sess = crate::Session::new(3, MachineModel::sp2());
        let mut r = sess.run(vec![(); 3], |comm, ()| {
            comm.phase("work", |c| c.advance(c.rank() as f64));
        });
        let log = TraceLog::from_results(&mut r);
        let aggs = log.phase_breakdowns();
        assert_eq!(aggs.len(), 1);
        let full = log.summary();
        let total: f64 = full.ranks.iter().map(|s| s.total()).sum();
        assert!(
            (aggs[0].total() - total).abs() < 1e-12,
            "carry rule must account the trailing syncs: {} vs {}",
            aggs[0].total(),
            total
        );
        let slice = log.phase_slice("work");
        assert!(matches!(
            slice.events[0].last(),
            Some(TraceEvent::Sync { .. })
        ));
        assert_eq!(slice.summary(), full);
    }

    #[test]
    fn phase_slice_follows_the_attribution_rule() {
        let mut results = spmd(2, MachineModel::sp2(), |comm| {
            comm.compute(10.0); // before the first phase: the sentinel's
            comm.phase("p", |c| c.compute(20.0));
            comm.compute(30.0); // after it closed: carried into "p"
        });
        let log = TraceLog::from_results(&mut results);
        let model = MachineModel::sp2();
        let aggs = log.phase_breakdowns();
        assert_eq!(
            aggs.iter().map(|a| a.name.as_str()).collect::<Vec<_>>(),
            vec![OUTSIDE_PHASE, "p"]
        );
        for (agg, units, events) in [(&aggs[0], 10.0, 1), (&aggs[1], 50.0, 4)] {
            let sliced = log.phase_slice(&agg.name);
            assert_eq!(sliced.nranks(), 2);
            for stream in &sliced.events {
                assert_eq!(stream.len(), events, "{}: {stream:?}", agg.name);
            }
            let s = sliced.summary();
            assert!((s.total_compute() - agg.compute).abs() < 1e-12);
            assert!((agg.compute - 2.0 * model.compute_time(units)).abs() < 1e-12);
        }
        let p = &log.phase_slice("p").events[0];
        assert!(matches!(p[0], TraceEvent::PhaseBegin { .. }));
        assert!(matches!(p[2], TraceEvent::PhaseEnd { .. }));
        assert!(matches!(p[3], TraceEvent::Compute { .. }));
        // The sentinel has no markers; its extent is that of its events.
        assert_eq!(aggs[0].start, 0.0);
        assert!((aggs[0].elapsed() - model.compute_time(10.0)).abs() < 1e-12);
        // Nothing is dropped, so the audit's accounting closes.
        assert_eq!(log.audit(), Ok(log.summary().makespan()));
    }
}
