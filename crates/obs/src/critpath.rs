//! Cross-rank critical-path analysis.
//!
//! A [`TraceLog`] induces a happens-before graph:
//! each rank's events are serially ordered on its own virtual clock, and
//! every matched send/recv pair adds a cross-rank edge (the receive cannot
//! complete before the payload left the sender). The **critical path** is
//! the longest dependency chain ending at the latest event in the log —
//! the simulator-exact analogue of the paper's bottleneck analysis: it
//! names which rank the makespan was spent on, and whether that time was
//! compute, wire, or unattributable idle.
//!
//! The walk is backward from the global end, over positions: an event, or
//! one hop of a record (a point-to-point send or receive is a record of one
//! hop, a collective call a record of all its hops on the rank). A hop
//! spans from the clock the hop before it left (the record's start for the
//! first) to its own.
//!
//! * a compute / send-hop span was binding on its own rank —
//!   account it and step to the previous position;
//! * a receive hop that *waited* was bound by the sender: the blocked span
//!   past the sender's send-end is charged as wait on the receiver, the
//!   flight time before it as wire on the sender, and the walk jumps to the
//!   matching send hop (FIFO channel pairing, see
//!   [`TraceLog::message_edges`](plum_parsim::TraceLog::message_edges));
//! * a step-boundary sync was bound by the slowest rank of the step: the
//!   walk jumps to the position on another rank that ends exactly where the
//!   sync ends (rank clocks are aligned by `advance_to`, so the match is
//!   exact; unmatched syncs degrade to local wait).
//!
//! Because every clock charge records exactly one event or one hop (the
//! 1e-9 accounting invariant), the walked segments tile the timeline and
//! the path length equals the log's makespan.

use plum_parsim::{MessageEdge, TraceEvent, TraceLog};
use std::collections::HashMap;

/// Exact-alignment slack for cross-rank time matching. Clock alignment
/// uses `advance_to` (bit-exact), so this is purely defensive.
const EPS: f64 = 1e-12;

/// What kind of time a path segment is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Local computation (modeled or charged work).
    Compute,
    /// Send startup or in-flight transfer time, attributed to the sender.
    Wire,
    /// Idle with no identifiable upstream dependency.
    Wait,
}

impl SegmentKind {
    pub fn name(self) -> &'static str {
        match self {
            SegmentKind::Compute => "compute",
            SegmentKind::Wire => "wire",
            SegmentKind::Wait => "wait",
        }
    }
}

/// One segment of the critical path: `[start, end]` of `kind` time on
/// `rank`'s timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSegment {
    pub rank: usize,
    pub kind: SegmentKind,
    pub start: f64,
    pub end: f64,
}

impl PathSegment {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The longest dependency chain of a log, in chronological order, with its
/// time split by segment kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    pub segments: Vec<PathSegment>,
    /// Where the chain starts / ends on the global virtual timeline.
    pub start: f64,
    pub end: f64,
    pub compute: f64,
    pub wire: f64,
    pub wait: f64,
    /// Timeline not covered by any segment (0.0 on gap-free logs).
    pub unattributed: f64,
}

impl CriticalPath {
    /// Total path length. On a gap-free log this equals `end - start`
    /// (and, for a full log, the makespan) to the accounting tolerance.
    pub fn length(&self) -> f64 {
        self.compute + self.wire + self.wait + self.unattributed
    }

    /// Plain-text report: the split, then the chain.
    pub fn render(&self) -> String {
        let mut out = format!(
            "critical path: {:.3}us over {} segments \
             (compute {:.3}us, wire {:.3}us, wait {:.3}us)\n",
            self.length() * 1e6,
            self.segments.len(),
            self.compute * 1e6,
            self.wire * 1e6,
            self.wait * 1e6,
        );
        for s in &self.segments {
            out.push_str(&format!(
                "  rank {:>3}  {:<8} {:>12.3}..{:<12.3}us  {:>10.3}us\n",
                s.rank,
                s.kind.name(),
                s.start * 1e6,
                s.end * 1e6,
                s.duration() * 1e6
            ));
        }
        out
    }
}

/// A position on a rank's timeline: an event of its stream, and in a
/// record one of its hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Pos {
    event: usize,
    hop: Option<usize>,
}

/// The clock charge a position stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Charge {
    Compute,
    Send,
    Recv,
    Sync,
}

/// The charge at `pos` and its span, if it occupies clock time (a
/// positive-length span): a record's own position and markers do not.
fn charge_at(stream: &[TraceEvent], pos: Pos) -> Option<(Charge, f64, f64)> {
    let (charge, start, end) = match (&stream[pos.event], pos.hop) {
        (TraceEvent::Call { start, hops, .. }, Some(h)) => {
            let from = if h == 0 { *start } else { hops[h - 1].at };
            let charge = if hops[h].is_send() {
                Charge::Send
            } else {
                Charge::Recv
            };
            (charge, from, hops[h].at)
        }
        (TraceEvent::Compute { start, end }, _) => (Charge::Compute, *start, *end),
        (TraceEvent::Sync { start, end }, _) => (Charge::Sync, *start, *end),
        _ => return None,
    };
    (end - start > 0.0).then_some((charge, start, end))
}

/// When the charge at `pos` ends (a marker: its instant).
fn end_at(stream: &[TraceEvent], pos: Pos) -> f64 {
    match (&stream[pos.event], pos.hop) {
        (TraceEvent::Call { hops, .. }, Some(h)) => hops[h].at,
        (ev, _) => ev.end_time(),
    }
}

/// The last position of event `event`: a record's last hop, or the event.
fn last_of(stream: &[TraceEvent], event: usize) -> Pos {
    let hop = match &stream[event] {
        TraceEvent::Call { hops, .. } => hops.len().checked_sub(1),
        _ => None,
    };
    Pos { event, hop }
}

/// The position before `pos` on its rank's timeline.
fn prev(stream: &[TraceEvent], pos: Pos) -> Option<Pos> {
    match pos.hop {
        Some(h) if h > 0 => Some(Pos {
            event: pos.event,
            hop: Some(h - 1),
        }),
        _ => Some(last_of(stream, pos.event.checked_sub(1)?)),
    }
}

/// Every position of a rank's timeline, in order.
fn positions(stream: &[TraceEvent]) -> impl Iterator<Item = Pos> + '_ {
    stream.iter().enumerate().flat_map(|(event, ev)| {
        let hops = match ev {
            TraceEvent::Call { hops, .. } => hops.len(),
            _ => 0,
        };
        let own = (hops == 0).then_some(Pos { event, hop: None });
        own.into_iter().chain((0..hops).map(move |h| Pos {
            event,
            hop: Some(h),
        }))
    })
}

/// Find the charge on some rank `!= skip_rank` that ends at `target` and is
/// a real span (not a sync — a sync's own end was imposed by someone
/// else). Returns `(rank, position)`.
fn donor_at(log: &TraceLog, target: f64, skip_rank: usize) -> Option<(usize, Pos)> {
    for (rank, stream) in log.events.iter().enumerate() {
        if rank == skip_rank {
            continue;
        }
        // Per-stream end times are nondecreasing (the clock is monotone),
        // so binary search for the window ending near `target`, hop by hop
        // inside a record that straddles its edge.
        let hi = stream.partition_point(|e| e.end_time() <= target + EPS);
        let straddling = match stream.get(hi) {
            Some(TraceEvent::Call { hops, .. }) => {
                let h = hops.partition_point(|h| h.at <= target + EPS);
                h.checked_sub(1).map(|h| Pos {
                    event: hi,
                    hop: Some(h),
                })
            }
            _ => None,
        };
        let mut pos = straddling.or_else(|| Some(last_of(stream, hi.checked_sub(1)?)));
        while let Some(p) = pos {
            if end_at(stream, p) < target - EPS {
                break;
            }
            if matches!(charge_at(stream, p), Some((c, ..)) if c != Charge::Sync) {
                return Some((rank, p));
            }
            pos = prev(stream, p);
        }
    }
    None
}

/// Walk the happens-before graph backward from the latest event and return
/// the critical path. See the module docs for the walk rules.
pub fn critical_path(log: &TraceLog) -> CriticalPath {
    let mut path = CriticalPath::default();
    // Start point: the globally latest span. Ties prefer a non-sync charge
    // (the rank that actually ran until the end), then lower rank.
    let mut start: Option<(usize, Pos, Charge)> = None;
    let mut best_end = f64::NEG_INFINITY;
    for (rank, stream) in log.events.iter().enumerate() {
        for pos in positions(stream) {
            let Some((charge, _, end)) = charge_at(stream, pos) else {
                continue;
            };
            let better = end > best_end + EPS
                || ((end - best_end).abs() <= EPS
                    && charge != Charge::Sync
                    && start.is_some_and(|(.., c)| c == Charge::Sync));
            if better {
                best_end = end;
                start = Some((rank, pos, charge));
            }
        }
    }
    let Some((mut rank, mut pos, _)) = start else {
        return path;
    };
    path.end = best_end;

    // Matched message edges, addressable by the receive hop they end at.
    let edges: HashMap<(usize, Pos), MessageEdge<'_>> = log
        .message_edges()
        .into_iter()
        .map(|e| {
            let at = Pos {
                event: e.recv_event,
                hop: Some(e.recv_hop),
            };
            ((e.dst, at), e)
        })
        .collect();

    let total: usize = log.events.iter().map(|s| positions(s).count()).sum();
    let mut fuel = total * 2 + 64;
    let mut cur_t = best_end;
    let mut segments: Vec<PathSegment> = Vec::new();
    let push = |segments: &mut Vec<PathSegment>, seg: PathSegment, bucket: &mut f64| {
        if seg.duration() > 0.0 {
            *bucket += seg.duration();
            segments.push(seg);
        }
    };

    'walk: loop {
        if fuel == 0 {
            debug_assert!(false, "critical-path walk ran out of fuel");
            break;
        }
        fuel -= 1;
        let stream = &log.events[rank];
        let Some((charge, start, end)) = charge_at(stream, pos) else {
            match prev(stream, pos) {
                Some(p) => pos = p,
                None => break,
            }
            continue;
        };
        // A gap between the accounted-down-to time and this charge's end
        // can only come from dropped events; track it so length() still
        // reconciles (0.0 on gap-free logs).
        if end < cur_t - EPS {
            path.unattributed += cur_t - end;
        }
        cur_t = cur_t.min(end);
        let local = |kind| PathSegment {
            rank,
            kind,
            start,
            end: cur_t,
        };
        match charge {
            Charge::Compute => push(
                &mut segments,
                local(SegmentKind::Compute),
                &mut path.compute,
            ),
            Charge::Send => push(&mut segments, local(SegmentKind::Wire), &mut path.wire),
            Charge::Recv => {
                if let Some(edge) = edges.get(&(rank, pos)) {
                    // The sender was binding. The span from the sender's
                    // send-end to the receive completion splits in two:
                    // the receiver sat blocked from max(send_end, posted)
                    // onward (wait, charged to the receiver), and anything
                    // before that is flight time (wire, charged to the
                    // sender). Segments are pushed latest-first.
                    let wait_start = edge.send_end.max(start).min(cur_t);
                    push(
                        &mut segments,
                        PathSegment {
                            rank,
                            kind: SegmentKind::Wait,
                            start: wait_start,
                            end: cur_t,
                        },
                        &mut path.wait,
                    );
                    push(
                        &mut segments,
                        PathSegment {
                            rank: edge.src,
                            kind: SegmentKind::Wire,
                            start: edge.send_end,
                            end: wait_start,
                        },
                        &mut path.wire,
                    );
                    cur_t = cur_t.min(edge.send_end);
                    rank = edge.src;
                    pos = Pos {
                        event: edge.send_event,
                        hop: Some(edge.send_hop),
                    };
                    continue 'walk;
                }
                // Unmatched receive (cross-phase message or truncated log):
                // degrade to local wait.
                push(&mut segments, local(SegmentKind::Wait), &mut path.wait);
            }
            Charge::Sync => {
                if let Some((donor, at)) = donor_at(log, end, rank) {
                    // The slowest rank of the step was binding.
                    rank = donor;
                    pos = at;
                    continue 'walk;
                }
                push(&mut segments, local(SegmentKind::Wait), &mut path.wait);
            }
        }
        cur_t = start;
        match prev(stream, pos) {
            Some(p) => pos = p,
            None => break,
        }
    }
    path.start = cur_t;
    segments.reverse();
    path.segments = segments;
    path
}

/// Critical path of one named phase: the walk runs on
/// [`TraceLog::phase_slice`], so its length equals the phase's elapsed
/// virtual time (max `PhaseEnd` − min `PhaseBegin`) on gap-free logs.
pub fn phase_critical_path(log: &TraceLog, name: &str) -> CriticalPath {
    critical_path(&log.phase_slice(name))
}

/// The `k` message edges with the largest receiver wait, heaviest first.
/// Deterministic tie-breaking by completion time, then source, then
/// destination.
pub fn heaviest_edges(log: &TraceLog, k: usize) -> Vec<MessageEdge<'_>> {
    let mut edges: Vec<MessageEdge<'_>> = log
        .message_edges()
        .into_iter()
        .filter(|e| e.wait > 0.0)
        .collect();
    edges.sort_by(|a, b| {
        b.wait
            .total_cmp(&a.wait)
            .then(a.recv_completed.total_cmp(&b.recv_completed))
            .then(a.src.cmp(&b.src))
            .then(a.dst.cmp(&b.dst))
    });
    edges.truncate(k);
    edges
}

/// Text report of [`heaviest_edges`].
pub fn render_heaviest_edges(edges: &[MessageEdge<'_>]) -> String {
    let mut out = String::from("heaviest message waits:\n");
    if edges.is_empty() {
        out.push_str("  (none — no receive waited)\n");
        return out;
    }
    for e in edges {
        out.push_str(&format!(
            "  {:>3} -> {:<3} {:<10} words={:<8} wait {:>10.3}us  (phase {})\n",
            e.src,
            e.dst,
            e.call,
            e.words,
            e.wait * 1e6,
            e.phase,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use plum_parsim::{spmd, Call, Hop, MachineModel, Session};

    fn compute(start: f64, end: f64) -> TraceEvent {
        TraceEvent::Compute { start, end }
    }

    /// A point-to-point record of one 10-word hop.
    fn mail(start: f64, end: f64, peer: usize, tag: u64, send: bool) -> TraceEvent {
        TraceEvent::Call {
            call: Call::Mail(tag),
            start,
            end,
            hops: [Hop::new(end, peer, send, 10)].into(),
        }
    }

    /// A send whose startup charge ran `start..end`.
    fn send(start: f64, end: f64, peer: usize, tag: u64) -> TraceEvent {
        mail(start, end, peer, tag, true)
    }

    /// A receive posted at `posted` and completed at `completed`.
    fn recv(posted: f64, completed: f64, peer: usize, tag: u64) -> TraceEvent {
        mail(posted, completed, peer, tag, false)
    }

    fn seg(rank: usize, kind: SegmentKind, start: f64, end: f64) -> PathSegment {
        PathSegment {
            rank,
            kind,
            start,
            end,
        }
    }

    /// Serial chain 0 → 1 → 2: every segment is on the path, in order.
    #[test]
    fn serial_chain_exact_membership() {
        let log = TraceLog {
            events: vec![
                vec![compute(0.0, 1.0), send(1.0, 1.5, 1, 1)],
                vec![
                    recv(0.0, 2.0, 0, 1),
                    compute(2.0, 3.0),
                    send(3.0, 3.5, 2, 2),
                ],
                vec![recv(0.0, 4.0, 1, 2), compute(4.0, 5.0)],
            ],
        };
        let path = critical_path(&log);
        use SegmentKind::*;
        assert_eq!(
            path.segments,
            vec![
                seg(0, Compute, 0.0, 1.0),
                seg(0, Wire, 1.0, 1.5),
                seg(1, Wait, 1.5, 2.0), // blocked past send-end: receiver wait
                seg(1, Compute, 2.0, 3.0),
                seg(1, Wire, 3.0, 3.5),
                seg(2, Wait, 3.5, 4.0),
                seg(2, Compute, 4.0, 5.0),
            ]
        );
        assert!((path.length() - 5.0).abs() < 1e-12);
        assert!((path.compute - 3.0).abs() < 1e-12);
        assert!((path.wire - 1.0).abs() < 1e-12);
        assert!((path.wait - 1.0).abs() < 1e-12);
        assert_eq!(path.unattributed, 0.0);
        assert_eq!((path.start, path.end), (0.0, 5.0));
    }

    /// Fork-join: rank 0 fans out to 1 (short work) and 2 (long work), then
    /// joins. The path must run through rank 2 and never touch rank 1.
    #[test]
    fn fork_join_follows_long_branch() {
        let log = TraceLog {
            events: vec![
                vec![
                    compute(0.0, 1.0),
                    send(1.0, 1.2, 1, 1),
                    send(1.2, 1.4, 2, 2),
                    recv(1.4, 2.0, 1, 3),
                    recv(2.0, 3.6, 2, 4),
                    compute(3.6, 4.0),
                ],
                vec![
                    recv(0.0, 1.3, 0, 1),
                    compute(1.3, 1.8),
                    send(1.8, 1.9, 0, 3),
                ],
                vec![
                    recv(0.0, 1.4, 0, 2),
                    compute(1.4, 3.4),
                    send(3.4, 3.5, 0, 4),
                ],
            ],
        };
        let path = critical_path(&log);
        assert!(
            path.segments.iter().all(|s| s.rank != 1),
            "the short branch must not be on the path: {path:?}"
        );
        assert!(
            path.segments
                .iter()
                .any(|s| s.rank == 2 && s.kind == SegmentKind::Compute && s.duration() == 2.0),
            "the long compute is the bottleneck: {path:?}"
        );
        assert!((path.length() - 4.0).abs() < 1e-12);
        assert!((path.compute - 3.4).abs() < 1e-12);
        assert!((path.wire - 0.5).abs() < 1e-12);
        assert!((path.wait - 0.1).abs() < 1e-12, "join wait on rank 0");
    }

    /// A blocked receive splits across the edge: flight time up to the
    /// sender's send-end is wire on the sender, the receiver's blocked span
    /// past it is wait on the receiver — wait must be nonzero, not
    /// swallowed into wire.
    #[test]
    fn blocked_recv_pins_nonzero_receiver_wait() {
        let log = TraceLog {
            events: vec![
                vec![compute(0.0, 3.0), send(3.0, 3.5, 1, 1)],
                vec![recv(0.0, 4.0, 0, 1)],
            ],
        };
        let path = critical_path(&log);
        use SegmentKind::*;
        assert_eq!(
            path.segments,
            vec![
                seg(0, Compute, 0.0, 3.0),
                seg(0, Wire, 3.0, 3.5),
                seg(1, Wait, 3.5, 4.0),
            ]
        );
        assert!((path.length() - 4.0).abs() < 1e-12);
        assert!((path.wire - 0.5).abs() < 1e-12);
        assert!(path.wait > 0.0, "blocked receiver must show as wait");
        assert!((path.wait - 0.5).abs() < 1e-12);
    }

    /// A receive posted after the payload was already in flight: the span
    /// before the post is wire (the payload really was on the wire), only
    /// the span past the post is receiver wait.
    #[test]
    fn late_posted_recv_splits_wire_before_wait() {
        let log = TraceLog {
            events: vec![
                vec![compute(0.0, 3.0), send(3.0, 3.5, 1, 1)],
                vec![compute(0.0, 3.8), recv(3.8, 4.0, 0, 1)],
            ],
        };
        let path = critical_path(&log);
        use SegmentKind::*;
        assert_eq!(
            path.segments,
            vec![
                seg(0, Compute, 0.0, 3.0),
                seg(0, Wire, 3.0, 3.5),
                seg(0, Wire, 3.5, 3.8), // in flight while the recv was unposted
                seg(1, Wait, 3.8, 4.0),
            ]
        );
        assert!((path.length() - 4.0).abs() < 1e-12);
        assert!((path.wire - 0.8).abs() < 1e-12);
        assert!((path.wait - 0.2).abs() < 1e-12);
    }

    /// An unmatched receive (no send in the log) degrades to local wait.
    #[test]
    fn unmatched_recv_falls_back_to_wait() {
        let log = TraceLog {
            events: vec![vec![recv(0.0, 2.0, 0, 9), compute(2.0, 2.5)]],
        };
        let path = critical_path(&log);
        assert!((path.length() - 2.5).abs() < 1e-12);
        assert!((path.wait - 2.0).abs() < 1e-12);
    }

    /// Collective barrier on a real run: the slow rank's compute dominates
    /// and the path length equals the makespan to the accounting tolerance.
    #[test]
    fn barrier_path_length_is_makespan_and_compute_is_the_slow_rank() {
        let mut results = spmd(4, MachineModel::sp2(), |comm| {
            if comm.rank() == 2 {
                comm.advance(5.0);
            }
            comm.barrier();
        });
        let makespan = plum_parsim::makespan(&results);
        let log = TraceLog::from_results(&mut results);
        let path = critical_path(&log);
        assert!(
            (path.length() - makespan).abs() < 1e-9,
            "length {} vs makespan {makespan}",
            path.length()
        );
        // All compute on the path is the slow rank's 5 s (collectives
        // charge no compute).
        assert!((path.compute - 5.0).abs() < 1e-9, "{path:?}");
        assert!(path
            .segments
            .iter()
            .all(|s| s.kind != SegmentKind::Compute || s.rank == 2));
        assert_eq!(path.unattributed, 0.0);
    }

    /// Step-boundary syncs jump to the slowest rank of the step.
    #[test]
    fn sync_jumps_to_step_bottleneck_rank() {
        let mut sess = Session::new(2, MachineModel::sp2());
        // Step 1: rank 1 is the bottleneck, rank 0 gets a Sync(1..3).
        let s1 = sess.run(vec![(), ()], |comm, ()| {
            comm.advance(if comm.rank() == 1 { 3.0 } else { 1.0 });
        });
        // Step 2: both ranks work one more second.
        let s2 = sess.run(vec![(), ()], |comm, ()| {
            comm.advance(1.0);
        });
        // Merge both steps' event streams per rank into one log.
        let mut log = TraceLog {
            events: vec![Vec::new(); 2],
        };
        for res in s1.into_iter().chain(s2) {
            let rank = res.rank;
            log.events[rank].extend(res.events);
        }
        let path = critical_path(&log);
        assert!((path.length() - 4.0).abs() < 1e-12, "{path:?}");
        // Rank 0's sync (1..3) must resolve to rank 1's compute, so the
        // path has no wait at all.
        assert_eq!(path.wait, 0.0, "{path:?}");
        assert!((path.compute - 4.0).abs() < 1e-12);
        assert!(path
            .segments
            .iter()
            .any(|s| s.rank == 1 && s.duration() == 3.0));
    }

    /// Phase slices: per-phase path length equals the phase's elapsed time.
    #[test]
    fn phase_critical_path_matches_phase_elapsed() {
        let mut results = spmd(3, MachineModel::sp2(), |comm| {
            comm.phase("work", |c| {
                c.compute(100.0 * (c.rank() + 1) as f64);
                c.barrier();
            });
        });
        let log = TraceLog::from_results(&mut results);
        let aggs = log.phase_breakdowns();
        let agg = aggs.iter().find(|a| a.name == "work").unwrap();
        let path = phase_critical_path(&log, "work");
        assert!(
            (path.length() - agg.elapsed()).abs() < 1e-9,
            "path {} vs elapsed {}",
            path.length(),
            agg.elapsed()
        );
    }

    #[test]
    fn heaviest_edges_sorted_and_rendered() {
        let log = TraceLog {
            events: vec![
                vec![
                    compute(0.0, 1.0),
                    send(1.0, 1.1, 1, 1),
                    send(1.1, 1.2, 1, 2),
                ],
                vec![recv(0.0, 3.0, 0, 1), recv(3.0, 3.0, 0, 2)],
            ],
        };
        let edges = heaviest_edges(&log, 5);
        assert_eq!(edges.len(), 1, "zero-wait edges are dropped");
        assert_eq!(edges[0].call, Call::Mail(1));
        assert!((edges[0].wait - 3.0).abs() < 1e-12);
        let text = render_heaviest_edges(&edges);
        assert!(text.contains("0 -> 1"), "{text}");
        let empty = render_heaviest_edges(&[]);
        assert!(empty.contains("none"));
    }

    /// A NaN timestamp (a corrupted log) is not a panic: its receive's
    /// wait is NaN, which is not a wait, so its edge is paired but dropped.
    #[test]
    fn heaviest_edges_tolerate_nan_times() {
        let log = TraceLog {
            events: vec![
                vec![send(0.0, 0.1, 1, 1), send(0.1, 0.2, 1, 2)],
                vec![recv(0.0, 1.0, 0, 1), recv(1.0, f64::NAN, 0, 2)],
            ],
        };
        assert_eq!(log.message_edges().len(), 2);
        let edges = heaviest_edges(&log, 5);
        assert_eq!(
            edges.iter().map(|e| e.call).collect::<Vec<_>>(),
            [Call::Mail(1)]
        );
    }

    #[test]
    fn render_names_every_bucket() {
        let log = TraceLog {
            events: vec![vec![compute(0.0, 1.0)]],
        };
        let path = critical_path(&log);
        let text = path.render();
        assert!(text.contains("critical path"));
        assert!(text.contains("compute"));
        assert!(text.contains("rank   0"));
    }
}
