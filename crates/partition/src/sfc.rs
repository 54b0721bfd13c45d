//! Space-filling-curve geometric partitioning: key-sort/split into
//! capacity-weighted contiguous ranges, and a granularity-aware transport
//! that repairs an imbalanced seed in one prefix-sum scan.
//!
//! The geometric alternative to the multilevel kernel, in the mold of
//! AMReX's `DistributionMapping::makeSFC` and Cubism's diffusion-based
//! rebalancing: elements carry a space-filling-curve key (from
//! `plum_mesh::sfc`), and the key order is cut into `nparts` contiguous
//! ranges whose weights track the parts' capacity fractions.
//!
//! Mild or granular imbalance is repaired from the seed by a *transport*
//! instead of a re-partition. Each part's share is `T_q = ⌈total · f_q⌉` of
//! the [`Weights::drive`] field. A part above its share sheds its excess
//! over it; a part below its share has room up to it. Excesses and rooms
//! are laid out in part-id order on two lines by prefix sums, and the
//! overlap of the lines matches every shed unit to a receiving part — the
//! monotone matching, which is the optimal transport in one dimension. A
//! shedding part walks its vertices in curve order from the end that faces
//! its target and ships every vertex that still fits in its excess, so the
//! moved elements sit near their new neighbours and a heavy vertex that
//! does not fit stays. A shipped vertex occupies an interval of its part's
//! excess span and goes to the receiver whose room holds the interval's
//! midpoint. Shedders end less than one vertex above their share and
//! receivers less than one shipped vertex above it, so whenever the room
//! covers the excess (always, for finite non-negative capacities) every
//! part ends at or below its ceiling `C_q = T_q + w_max` — the same "share
//! plus one vertex" guarantee [`sfc_split`] gives, reached in one scan.
//!
//! Under two constraints, or capacities that differ, a receiver can end
//! above a shedder's old load in the binding objective, so a guard keeps
//! the seed when the transport would raise the binding imbalance
//! ([`Weights::load`] over capacity). Under one constraint and equal
//! capacities the transport provably cannot (see `guarded`), and the guard
//! is skipped.
//!
//! [`sfc_transport`] is the serial kernel; [`transport_body`] computes the
//! same partition bit for bit as an SPMD body in which each part's home
//! rank holds the part: one `allreduce` for the drive total, one `exscan`
//! over `(excess, room)` that also hands every rank the excess total, one
//! sparse exchange that meets excess and room spans at the rank owning
//! their position on the lines, and one direct message back to each
//! shedding part's home with its `(target, span)` slices. The guard, when
//! it runs, adds one exchange of inflows and one `allreduce`.

use plum_parsim::{words_for_bytes, Comm, Outbox, Tag};

use crate::balance::{homed_parts, part_home, Problem, RankLists};
use crate::distributed::charge;
use crate::metrics::weights_of;
use crate::weights::Weights;

/// Curve order: vertex indices sorted by `(key, index)`. The index
/// tie-break makes the order total even when centroids collide on the
/// quantization lattice.
pub fn sfc_order(keys: &[u64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    order.sort_unstable_by_key(|&v| (keys[v as usize], v));
    order
}

/// The parts' capacity fractions (summing to 1) without materializing them:
/// the one O(P) pass over the capacities happens once, on the host, when the
/// problem is built, so a rank reads the fractions of the parts it homes in
/// O(1). A degenerate capacity vector — one with a negative or non-finite
/// capacity, or all zero — falls back to uniform, a defined result like
/// [`crate::imbalance_weighted`]'s. A zero capacity alone is not
/// degenerate: its part's fraction is 0.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shares<'a> {
    caps: &'a [f64],
    /// The capacities' sum; `None` when the capacities are degenerate
    /// (every part then gets `1 / nparts`).
    sum: Option<f64>,
    /// All fractions are equal.
    uniform: bool,
}

impl<'a> Shares<'a> {
    pub(crate) fn new(caps: &'a [f64]) -> Self {
        let sum: f64 = caps.iter().sum();
        let valid = caps.iter().all(|c| c.is_finite() && *c >= 0.0);
        let sum = (valid && sum > 0.0 && sum.is_finite()).then_some(sum);
        let uniform = sum.is_none() || caps.windows(2).all(|c| c[0] == c[1]);
        Shares { caps, sum, uniform }
    }

    pub(crate) fn nparts(&self) -> usize {
        self.caps.len()
    }

    /// Capacity fraction of part `q`.
    pub(crate) fn frac(&self, q: usize) -> f64 {
        match self.sum {
            Some(sum) => self.caps[q] / sum,
            None => 1.0 / self.caps.len() as f64,
        }
    }

    /// Every part's fraction; panics unless there is one capacity per part.
    pub(crate) fn fracs(&self, nparts: usize) -> Vec<f64> {
        assert_eq!(self.caps.len(), nparts, "one capacity per part");
        (0..nparts).map(|q| self.frac(q)).collect()
    }

    /// The fractions, or `None` when they are all equal — callers then take
    /// the unweighted integer path, which the zero-chaos golden tests
    /// require to stay bit-exact.
    pub(crate) fn weighted(&self, nparts: usize) -> Option<Vec<f64>> {
        assert_eq!(self.caps.len(), nparts, "one capacity per part");
        (!self.uniform).then(|| self.fracs(nparts))
    }

    /// Part `q`'s share of `total`, rounded up.
    fn share(&self, total: u64, q: usize) -> u64 {
        (total as f64 * self.frac(q)).ceil() as u64
    }
}

/// Cut the curve order into `nparts` contiguous ranges at the cumulative
/// capacity targets. Before each vertex is placed, the cursor advances past
/// every target already met, so part `p` closes at the first vertex that
/// reaches `total · Σ_{q≤p} f_q` — its weight exceeds its capacity share by
/// at most one vertex weight.
pub(crate) fn sfc_split(keys: &[u64], vwgt: &[u64], nparts: usize, caps: &[f64]) -> Vec<u32> {
    assert_eq!(keys.len(), vwgt.len(), "one weight per vertex");
    let frac = Shares::new(caps).fracs(nparts);
    let total: u64 = vwgt.iter().sum();
    let mut targets = Vec::with_capacity(nparts);
    let mut cum_frac = 0.0;
    for &f in &frac {
        cum_frac += f;
        targets.push(total as f64 * cum_frac);
    }
    let mut part = vec![0u32; keys.len()];
    let mut p = 0usize;
    let mut cum = 0u64;
    for &v in &sfc_order(keys) {
        while p + 1 < nparts && cum as f64 >= targets[p] {
            p += 1;
        }
        part[v as usize] = p as u32;
        cum += vwgt[v as usize];
    }
    part
}

/// Full SFC partition: capacity-weighted contiguous split of the curve by
/// [`Weights::drive`], then the transport, which sheds the split's
/// one-vertex overshoot where a part's vertices are small enough to.
pub(crate) fn sfc_partition(keys: &[u64], w: Weights, shares: &Shares) -> Vec<u32> {
    let split = sfc_split(keys, &w.drive(), shares.nparts(), shares.caps);
    sfc_transport(keys, w, &split, shares)
}

/// One part's place on the transport lines: what it sheds, or how much it
/// can take. At most one of the two is non-zero.
#[derive(Debug, Clone, Copy)]
struct Line {
    excess: u64,
    room: u64,
}

impl Line {
    /// A part holding `load` against its `share`: above it, it sheds down
    /// to it; below it, it has room up to it.
    fn new(load: u64, share: u64) -> Self {
        if load > share {
            Line {
                excess: load - share,
                room: 0,
            }
        } else {
            Line {
                excess: 0,
                room: share - load,
            }
        }
    }
}

/// A part's interval `[lo, hi)` on the excess or the room line.
#[derive(Debug, Clone, Copy)]
struct Span {
    part: u32,
    lo: u64,
    hi: u64,
}

/// Where shedder `from`'s excess span overlaps target `to`'s room span.
#[derive(Debug, Clone, Copy)]
struct Slice {
    from: u32,
    to: u32,
    lo: u64,
    hi: u64,
}

/// Lay the lines of parts `first..first + lines.len()` on the two lines,
/// from the positions `at = (excess, room)` where the parts before them
/// end.
fn spans(first: usize, lines: &[Line], at: (u64, u64)) -> (Vec<Span>, Vec<Span>) {
    let (mut e, mut r) = at;
    let (mut excess, mut room) = (Vec::new(), Vec::new());
    for (k, l) in lines.iter().enumerate() {
        let part = (first + k) as u32;
        if l.excess > 0 {
            excess.push(Span {
                part,
                lo: e,
                hi: e + l.excess,
            });
            e += l.excess;
        }
        if l.room > 0 {
            room.push(Span {
                part,
                lo: r,
                hi: r + l.room,
            });
            r += l.room;
        }
    }
    (excess, room)
}

/// The monotone matching: every overlap of an excess span with a room
/// span, both lists ascending and disjoint (whole spans, or the pieces of
/// them one rank owns).
fn match_spans(excess: &[Span], room: &[Span]) -> Vec<Slice> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < excess.len() && j < room.len() {
        let (e, r) = (excess[i], room[j]);
        let (lo, hi) = (e.lo.max(r.lo), e.hi.min(r.hi));
        if lo < hi {
            out.push(Slice {
                from: e.part,
                to: r.part,
                lo,
                hi,
            });
        }
        if e.hi <= r.hi {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Which of shedding part `q`'s vertices leave, and for which part.
/// `drive` holds the part's vertex weights in ascending curve order, its
/// excess is the span `[at, at + excess)`, and `slices` are that span's
/// slices, ascending. Shipped vertices tile the span from `at`: the next
/// one comes from the low-key end when the target at the current position
/// is a lower part, from the high-key end otherwise, and stays when it
/// would overrun the span. It goes to the target whose slice holds its
/// interval's midpoint. Returns `(index into drive, target)` and the number
/// of vertices visited.
fn shed(
    q: u32,
    drive: &[u64],
    at: u64,
    excess: u64,
    slices: &[Slice],
) -> (Vec<(usize, u32)>, usize) {
    let mut s = 0;
    let mut target = |pos: u64| {
        while s < slices.len() && slices[s].hi <= pos {
            s += 1;
        }
        slices.get(s).filter(|sl| sl.lo <= pos).map(|sl| sl.to)
    };
    let (mut lo, mut hi, mut c) = (0, drive.len(), 0u64);
    let mut out = Vec::new();
    while lo < hi && c < excess {
        let Some(t) = target(at + c) else { break };
        let i = if t < q {
            lo += 1;
            lo - 1
        } else {
            hi -= 1;
            hi
        };
        let d = drive[i];
        if c + d > excess {
            continue;
        }
        let Some(t) = target(at + c + d / 2) else {
            break;
        };
        out.push((i, t));
        c += d;
    }
    (out, drive.len() - (hi - lo))
}

/// Whether the transport needs its guard. Under one constraint and equal
/// capacities it cannot raise the imbalance: a shipped vertex fits in its
/// shedder's excess, so it weighs at most `max − share`, and a receiver,
/// which takes its room plus less than one shipped vertex, ends below `max`.
fn guarded(w: Weights, shares: &Shares) -> bool {
    w.w2().is_some() || !shares.uniform
}

/// Part `q`'s binding load over its capacity fraction, holding `x` — the
/// quantity whose maximum the guard compares.
fn binding(w: Weights, shares: &Shares, q: usize, x: [u64; 2]) -> f64 {
    w.load(x[0], x[1]) / shares.frac(q)
}

/// The transport of the module doc, serially: the partition
/// [`transport_body`] computes.
pub(crate) fn sfc_transport(keys: &[u64], w: Weights, seed: &[u32], shares: &Shares) -> Vec<u32> {
    let n = keys.len();
    assert_eq!(n, w.w1().len(), "one weight per vertex");
    assert_eq!(n, seed.len(), "one seed part per vertex");
    let nparts = shares.nparts();
    let drive = w.drive();
    let total: u64 = drive.iter().sum();
    let loads = weights_of(&drive, seed, nparts);
    let lines: Vec<Line> = (0..nparts)
        .map(|q| Line::new(loads[q], shares.share(total, q)))
        .collect();
    let (excess, room) = spans(0, &lines, (0, 0));
    let slices = match_spans(&excess, &room);
    // Each shedding part's vertices, in curve order.
    let mut verts: Vec<Vec<u32>> = vec![Vec::new(); nparts];
    for v in sfc_order(keys) {
        let q = seed[v as usize] as usize;
        if lines[q].excess > 0 {
            verts[q].push(v);
        }
    }
    let mut part = seed.to_vec();
    let mut rest = &slices[..];
    for span in &excess {
        let k = rest.iter().take_while(|s| s.from == span.part).count();
        let (these, tail) = rest.split_at(k);
        rest = tail;
        let vs = &verts[span.part as usize];
        let d: Vec<u64> = vs.iter().map(|&v| drive[v as usize]).collect();
        for (i, t) in shed(span.part, &d, span.lo, span.hi - span.lo, these).0 {
            part[vs[i] as usize] = t;
        }
    }
    if guarded(w, shares) {
        let max = |part: &[u32]| {
            let w1 = weights_of(w.w1(), part, nparts);
            let w2 = w.w2().map(|w2| weights_of(w2, part, nparts));
            let x = |q: usize| [w1[q], w2.as_ref().map_or(0, |w2| w2[q])];
            (0..nparts)
                .map(|q| binding(w, shares, q, x(q)))
                .fold(0.0, f64::max)
        };
        if max(&part) > max(seed) {
            return seed.to_vec();
        }
    }
    part
}

/// A rank charges `ceil(n / LOAD_PASS_DIV)` vertex visits for summing `n`
/// vertices into their parts' loads — a streaming pass, charged as the
/// boundary sweeps it replaces were — and one visit per vertex a shedding
/// part's walk reaches.
const LOAD_PASS_DIV: usize = 4;

/// Bytes of one held vertex on the wire, under one / two constraints: (id,
/// seed part, key, weight[, weight2]).
const HELD_BYTES: [usize; 2] = [24, 32];

/// Bytes of one span piece `(part, lo, hi)`, with its line.
const SPAN_BYTES: usize = 21;

/// Bytes of one slice `(from, to, lo, hi)`.
const SLICE_BYTES: usize = 24;

/// Tag of the line owners' direct answers to the shedders' homes.
const TAG_SLICES: Tag = 0x5FC_7A45;

/// Bytes of one inflow `(part, weight[, weight2])` under one / two
/// constraints.
const INFLOW_BYTES: [usize; 2] = [12, 20];

/// Bytes of one answer `(id, new part)`.
const ANSWER_BYTES: usize = 8;

/// A vertex of a part this rank homes, and the rank that owns it.
#[derive(Debug, Clone, Copy)]
struct Held {
    part: u32,
    key: u64,
    v: u32,
    w: [u64; 2],
    owner: u32,
}

/// A sparse exchange's send side of `(destination, value)` pairs: one run
/// per destination, values in pair order, declaring `bytes` per value.
fn by_rank<T>(mut pairs: Vec<(usize, T)>, bytes: usize) -> Outbox<T> {
    pairs.sort_by_key(|p| p.0);
    let mut out = Outbox::with_capacity(pairs.len(), 0);
    out.extend_grouped(pairs, |run| words_for_bytes(bytes * run.len()));
    out
}

/// The transport as an SPMD body: every part is held by its home rank
/// ([`part_home`]), which finds the part's load, lays it on the lines at
/// the offsets an `exscan` gives, and ships its span to the ranks owning
/// its positions. There each excess piece meets the room pieces it
/// overlaps, and the slices go back to the shedder's home, which picks the
/// vertices exactly as [`sfc_transport`] does. A rank touches what it owns,
/// the parts it homes and the pieces of the lines it owns — never an
/// O(N) or O(P) array. When a rank owns a vertex whose seed part another
/// rank homes (possible only outside the engine), the vertices travel to
/// their parts' homes first and the answers travel back.
pub(crate) fn transport_body(
    comm: &mut Comm,
    p: &Problem,
    lists: &RankLists,
    vertex_units: f64,
) -> Vec<u32> {
    let (rank, nranks) = (comm.rank(), comm.nranks());
    let (w, shares, seed, keys) = (p.weights(), p.shares(), p.seed(), p.keys());
    let nparts = shares.nparts();
    let dual = w.w2().is_some() as usize;
    let mine = lists.mine(rank);
    let homed = homed_parts(rank, nparts, nranks);
    charge(comm, mine.len().div_ceil(LOAD_PASS_DIV), vertex_units);

    let own: Vec<Held> = mine
        .iter()
        .map(|&v| {
            let i = v as usize;
            Held {
                part: seed[i],
                key: keys[i],
                v,
                w: [w.w1()[i], w.second(i)],
                owner: rank as u32,
            }
        })
        .collect();
    // The drive total, and whether every rank homes the seed parts of the
    // vertices it owns.
    let local = own.iter().fold((0u64, true), |(sum, home), h| {
        let d = w.drive_of(h.w[0], h.w[1]);
        (sum + d, home && homed.contains(&(h.part as usize)))
    });
    let (total, aligned) = *comm.allreduce(|_| 2, local, |a, b| (a.0 + b.0, a.1 && b.1));
    let mut held = if aligned {
        own
    } else {
        let home = |h: Held| (part_home(h.part as usize, nparts, nranks), h);
        let mut sent = by_rank(own.into_iter().map(home).collect(), HELD_BYTES[dual]);
        let got = comm.alltoallv_sparse(&mut sent);
        let held: Vec<Held> = got
            .iter()
            .map(|(src, h)| Held {
                owner: src as u32,
                ..*h
            })
            .collect();
        charge(comm, held.len().div_ceil(LOAD_PASS_DIV), vertex_units);
        held
    };
    held.sort_unstable_by_key(|h| (h.part, h.key, h.v));
    let drive: Vec<u64> = held.iter().map(|h| w.drive_of(h.w[0], h.w[1])).collect();
    // Each homed part's run of `held`.
    let mut runs = Vec::with_capacity(homed.len());
    let mut at = 0;
    for q in homed.clone() {
        let len = held[at..]
            .iter()
            .take_while(|h| h.part as usize == q)
            .count();
        runs.push(at..at + len);
        at += len;
    }
    let lines: Vec<Line> = homed
        .clone()
        .zip(&runs)
        .map(|(q, run)| Line::new(drive[run.clone()].iter().sum(), shares.share(total, q)))
        .collect();
    let sums = lines
        .iter()
        .fold((0, 0), |a, l| (a.0 + l.excess, a.1 + l.room));
    let add = |a: &(u64, u64), b: &(u64, u64)| (a.0 + b.0, a.1 + b.1);
    let (before, (shedding, _)) = comm.exscan_total(|_| 2, sums, add);
    if shedding == 0 {
        return mine.iter().map(|&v| seed[v as usize]).collect();
    }
    let (excess, room) = spans(homed.start, &lines, before.unwrap_or((0, 0)));

    // Only positions below the excess total can match. Rank r owns
    // [⌈r·E/P⌉, ⌈(r + 1)·E/P⌉) of both lines, E the excess total, so the
    // excess spreads over every rank however short its line is.
    let owner = |x: u64| (x as u128 * nranks as u128 / shedding as u128) as usize;
    let next = |r: usize| ((r as u128 + 1) * shedding as u128).div_ceil(nranks as u128) as u64;
    let mut pieces: Vec<(usize, (bool, Span))> = Vec::new();
    for (is_excess, line) in [(true, &excess), (false, &room)] {
        for s in line {
            let mut lo = s.lo;
            while lo < s.hi.min(shedding) {
                let r = owner(lo);
                let hi = s.hi.min(next(r));
                pieces.push((r, (is_excess, Span { lo, hi, ..*s })));
                lo = hi;
            }
        }
    }
    // The line owners this rank's excess pieces went to are exactly the
    // ranks that answer it, so the answers are direct messages.
    let mut asked: Vec<usize> = pieces.iter().filter(|p| p.1 .0).map(|p| p.0).collect();
    asked.dedup();
    let met = comm.alltoallv_sparse(&mut by_rank(pieces, SPAN_BYTES));
    let (mut ex, mut rm): (Vec<_>, Vec<_>) = met.into_items().into_iter().partition(|p| p.0);
    ex.sort_unstable_by_key(|p| p.1.lo);
    rm.sort_unstable_by_key(|p| p.1.lo);
    let ex: Vec<Span> = ex.into_iter().map(|p| p.1).collect();
    let rm: Vec<Span> = rm.into_iter().map(|p| p.1).collect();
    // Every home that sent an excess piece here gets one answer, maybe
    // empty; `part_home` is monotone, so each home's slices are a run.
    let home = |q: u32| part_home(q as usize, nparts, nranks);
    let mut answers: Vec<(usize, Vec<Slice>)> = Vec::new();
    for s in &ex {
        if answers.last().is_none_or(|a| a.0 != home(s.part)) {
            answers.push((home(s.part), Vec::new()));
        }
    }
    let mut next = 0;
    for s in match_spans(&ex, &rm) {
        while answers[next].0 != home(s.from) {
            next += 1;
        }
        answers[next].1.push(s);
    }
    let mut slices = Vec::new();
    for (h, these) in answers {
        if h == rank {
            slices = these;
        } else {
            comm.send(
                h,
                TAG_SLICES,
                words_for_bytes(SLICE_BYTES * these.len()),
                these,
            );
        }
    }
    for &src in asked.iter().filter(|&&r| r != rank) {
        slices.extend(comm.recv::<Vec<Slice>>(src, TAG_SLICES));
    }
    slices.sort_unstable_by_key(|s| s.lo);

    let mut moves: Vec<(usize, u32)> = Vec::new();
    let mut visited = 0;
    let mut rest = &slices[..];
    for span in &excess {
        let k = rest.iter().take_while(|s| s.from == span.part).count();
        let (these, tail) = rest.split_at(k);
        rest = tail;
        let run = runs[span.part as usize - homed.start].clone();
        let (out, seen) = shed(
            span.part,
            &drive[run.clone()],
            span.lo,
            span.hi - span.lo,
            these,
        );
        visited += seen;
        moves.extend(out.into_iter().map(|(i, t)| (run.start + i, t)));
    }
    charge(comm, visited, vertex_units);

    if guarded(w, &shares) {
        // Every receiver's home learns what flows in, then one reduction
        // compares the binding maxima before and after.
        let mut inflow: Vec<(u32, [u64; 2])> = moves.iter().map(|&(i, t)| (t, held[i].w)).collect();
        inflow.sort_unstable_by_key(|e| e.0);
        inflow.dedup_by(|e, kept| {
            let same = e.0 == kept.0;
            if same {
                kept.1 = [kept.1[0] + e.1[0], kept.1[1] + e.1[1]];
            }
            same
        });
        let home = |(t, x): (u32, [u64; 2])| (part_home(t as usize, nparts, nranks), (t, x));
        let mut sent = by_rank(inflow.into_iter().map(home).collect(), INFLOW_BYTES[dual]);
        let got = comm.alltoallv_sparse(&mut sent);
        let add = |x: [u64; 2], y: [u64; 2]| [x[0] + y[0], x[1] + y[1]];
        let old: Vec<[u64; 2]> = runs
            .iter()
            .map(|run| held[run.clone()].iter().fold([0, 0], |x, h| add(x, h.w)))
            .collect();
        let mut new = old.clone();
        for &(i, _) in &moves {
            let x = &mut new[held[i].part as usize - homed.start];
            *x = [x[0] - held[i].w[0], x[1] - held[i].w[1]];
        }
        for &(t, x) in got.items() {
            let y = &mut new[t as usize - homed.start];
            *y = add(*y, x);
        }
        let max = |x: &[[u64; 2]]| {
            let each = homed
                .clone()
                .zip(x)
                .map(|(q, &x)| binding(w, &shares, q, x));
            each.fold(0.0, f64::max)
        };
        let (old, new) = (max(&old), max(&new));
        let (old, new) = *comm.allreduce(|_| 2, (old, new), |a, b| (a.0.max(b.0), a.1.max(b.1)));
        if new > old {
            moves.clear();
        }
    }

    let mut part: Vec<u32> = held.iter().map(|h| h.part).collect();
    for (i, t) in moves {
        part[i] = t;
    }
    let answers = held
        .iter()
        .zip(part)
        .map(|(h, q)| (h.owner as usize, (h.v, q)));
    let answers: Vec<(u32, u32)> = if aligned {
        answers.map(|a| a.1).collect()
    } else {
        let got = comm.alltoallv_sparse(&mut by_rank(answers.collect(), ANSWER_BYTES));
        got.into_items()
    };
    let mut out = vec![0u32; mine.len()];
    for (v, q) in answers {
        out[mine
            .binary_search(&v)
            .expect("an answer for an owned vertex")] = q;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic keys: already curve-ordered by index.
    fn line_keys(n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    #[test]
    fn split_respects_capacity_ceilings() {
        let keys = line_keys(100);
        let vwgt = vec![3u64; 100];
        let caps = vec![1.0, 2.0, 1.0, 4.0];
        let part = sfc_split(&keys, &vwgt, 4, &caps);
        let mut w = [0u64; 4];
        for v in 0..100 {
            w[part[v] as usize] += vwgt[v];
        }
        let total: u64 = vwgt.iter().sum();
        let wmax = *vwgt.iter().max().unwrap();
        for (p, f) in Shares::new(&caps).fracs(4).iter().enumerate() {
            assert!(
                w[p] as f64 <= total as f64 * f + wmax as f64,
                "part {p} weight {} exceeds share {} + one vertex",
                w[p],
                total as f64 * f
            );
        }
    }

    #[test]
    fn shares_fall_back_to_uniform_only_on_degenerate_capacities() {
        assert_eq!(Shares::new(&[2.0; 3]).weighted(3), None);
        assert_eq!(Shares::new(&[1.0, 3.0]).weighted(2), Some(vec![0.25, 0.75]));
        // A zero capacity is a part sized at nothing, not a degenerate input.
        assert_eq!(Shares::new(&[1.0, 0.0]).weighted(2), Some(vec![1.0, 0.0]));
        for caps in [
            [0.0, 0.0],
            [f64::NAN, 1.0],
            [f64::INFINITY, 1.0],
            [-1.0, 2.0],
        ] {
            let shares = Shares::new(&caps);
            assert_eq!(shares.weighted(2), None, "{caps:?}");
            assert_eq!(shares.fracs(2), [0.5, 0.5], "{caps:?}");
        }
    }

    #[test]
    fn split_ranges_are_contiguous_in_curve_order() {
        let keys: Vec<u64> = (0..64u64).rev().collect(); // reversed labels
        let vwgt = vec![1u64; 64];
        let part = sfc_split(&keys, &vwgt, 4, &[1.0; 4]);
        let order = sfc_order(&keys);
        let parts_in_order: Vec<u32> = order.iter().map(|&v| part[v as usize]).collect();
        assert!(
            parts_in_order.windows(2).all(|w| w[0] <= w[1]),
            "ranges not contiguous: {parts_in_order:?}"
        );
    }

    #[test]
    fn diffusion_repairs_a_shifted_boundary() {
        let keys = line_keys(40);
        let vwgt = vec![1u64; 40];
        let w = Weights::new(&vwgt, None);
        // Badly cut: 30/10 instead of 20/20.
        let prev: Vec<u32> = (0..40).map(|v| u32::from(v >= 30)).collect();
        let caps = [1.0, 1.0];
        let before = w.imbalance(&prev, 2, &caps);
        let part = sfc_transport(&keys, w, &prev, &Shares::new(&caps));
        let after = w.imbalance(&part, 2, &caps);
        assert!(
            after < before,
            "diffusion failed to repair: {before} -> {after}"
        );
        assert!(
            (after - 1.0).abs() < 1e-9,
            "perfectly splittable: got {after}"
        );
    }

    #[test]
    fn dual_diffusion_repairs_the_binding_constraint() {
        let keys = line_keys(60);
        let w1 = vec![1u64; 60];
        // Second constraint interleaved along the curve (every 6th vertex),
        // so a contiguous split balancing both constraints exists.
        let w2: Vec<u64> = (0..60u64)
            .map(|v| if v % 6 == 0 { 20 } else { 1 })
            .collect();
        let w = Weights::new(&w1, Some(&w2));
        let caps = [1.0, 1.0];
        // Badly cut seed: 40/20 instead of 30/30 — both constraints skewed.
        let prev: Vec<u32> = (0..60).map(|v| u32::from(v >= 40)).collect();
        let before = w.imbalance(&prev, 2, &caps);
        assert!(before > 1.3, "seed should be imbalanced: {before}");
        let part = sfc_transport(&keys, w, &prev, &Shares::new(&caps));
        let after = w.imbalance(&part, 2, &caps);
        assert!(after < before, "dual diffusion failed: {before} -> {after}");
        assert!(after < 1.1, "binding constraint still loose: {after}");
    }
}
