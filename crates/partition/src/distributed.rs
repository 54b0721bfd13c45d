//! Distributed multilevel k-way repartitioning inside the SPMD simulator.
//!
//! This is the "parallel MeTiS" of §4.2 run for real: every rank owns a
//! contiguous block of dual-graph rows, coarsening proceeds by rounds of
//! parallel heavy-edge matching with cross-rank match negotiation over the
//! simulator's typed channels, the coarsest graph gets a partition, and the
//! result is refined in parallel during uncoarsening with boundary-greedy
//! moves against global part weights that arrive once, with the coarsest
//! partition, and are carried from stage to stage: a stage exchanges ghost
//! parts and scans its sparse demand, and what it committed — the move
//! count and the signed weight change per touched part — rides the next
//! stage's exchange, so its traffic costs what it changes, not `nparts`.
//! Since a stage costs an exchange and a scan however little it moves, a
//! level's gain stages stop at the first one that commits fewer than one
//! move per 100 of the level's vertices machine-wide, with the configured
//! pass count as the cap. All control flow branches on replicated data
//! only, so the partition is a deterministic function of `(problem,
//! ownership)` — independent of the machine model, chaos perturbations, and
//! link jitter. Virtual time, by contrast, comes entirely from real message
//! traffic plus per-vertex compute charges, which is what the engine
//! reports as the partition phase. A rank ends holding the parts of its own
//! vertices only: the coarsest partition starts from each rank's slice, and
//! uncoarsening ends at the level-0 numbering, which is the rank's list.
//!
//! Each level is held in ParMETIS's local numbering ([`DistGraph`]): a row
//! names its neighbours by slot, owned vertices first and then the ghosts,
//! and the level's sorted ghost ids and per-rank send lists are built once,
//! with the level. Matching, contraction and refinement read them; a global
//! id appears only on the wire and in the gather to rank 0. Every exchange
//! sends one flat [`Outbox`] and reads one flat [`Inbox`]: a round's
//! per-destination lists are sorted flat pairs cut into runs, never a
//! buffer per neighbour.
//!
//! Coarsening stops at the coarsening target (`max(128, 16·nparts)`
//! vertices by default) or at the first contraction that would keep too
//! much of its level: more than three quarters on a seeded problem, more
//! than 95 % on a fresh one. The coarsest partition comes from rank 0 only
//! where the hierarchy needs it. A fresh problem, or a seeded one whose
//! hierarchy reached the target, is gathered to rank 0, partitioned with
//! the serial kernels ([`crate::kway`], [`crate::repart`]) and scattered
//! back with its part weights broadcast. A seeded hierarchy that stopped
//! above the target skips that round trip: rank 0's serial solve would
//! cost in proportion to every coarse vertex while every other rank waits,
//! so its coarsest partition is the coarse seed, and the refinement stages
//! diffuse it in parallel, with no gather, scatter or broadcast. It may
//! stop just above the target, at about 16 coarse vertices per part. That
//! is why a seeded level must remove a quarter of its vertices to be worth
//! its collectives, while a fresh one, whose coarsest graph rank 0 pays for
//! vertex by vertex, coarsens on.
//!
//! Graphs at or below the configured coarsening target, and every
//! two-constraint problem, skip the multilevel machinery: the rank-local
//! weights (and previous parts) are gathered to rank 0, which runs the
//! serial kernel on the original vertex numbering and scatters every rank
//! the parts of its vertices — bit-identical to the host-side reference,
//! which is the determinism anchor of the differential test battery.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

use plum_parsim::{spmd, words_for_bytes, Comm, Inbox, MachineModel, Outbox};

use crate::balance::{balance, BalanceMethod, Problem, RankLists};
use crate::graph::Graph;
use crate::kway::{part_ceilings, partition_kway_impl, rel_lt, PartitionConfig};
use crate::metrics::weights_of;
use crate::repart::repartition_diffuse;
use crate::rng::Rng;

/// The commits of one refinement stage, ascending by rank: `(rank, (moves,
/// Δw))` for each rank that moved a vertex — the committed move count and
/// the signed weight change per touched part. One [`Arc`] per commit, so the
/// exchange rounds that join them forward pointers.
type Commits = Vec<(u32, Arc<(u64, Vec<(u32, i64)>)>)>;

/// Multiplier on `vertex_units` for a serial solve on rank 0, one constant
/// for every serial kernel: one multilevel pass over each vertex of the
/// graph it holds — a completed hierarchy's coarsest graph (at most the
/// coarsening target), or the whole input on the gather-solve path, which
/// every method without a distributed body takes. A seeded hierarchy that
/// stopped above the target (9 702 coarse vertices on the paper-scale dual
/// graph at P = 64) is not solved there.
const HOST_UNITS_PER_VERTEX: f64 = 8.0;

/// Per-stage, per-rank RNG: deterministic in `(seed, level, stage, rank)` and
/// uncorrelated across all four (splitmix-style multiplier mixing).
fn stage_rng(seed: u64, level: usize, stage: u64, rank: usize) -> Rng {
    Rng::new(
        seed ^ (level as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (stage + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ (rank as u64 + 1).wrapping_mul(0x94D0_49BB_1331_11EB),
    )
}

/// Charge `vertices` stage-visits of local partitioning work.
pub(crate) fn charge(comm: &mut Comm, vertices: usize, vertex_units: f64) {
    let units = vertex_units * vertices as f64;
    if units > 0.0 {
        comm.compute(units);
    }
}

// ---------------------------------------------------------------------------
// Distributed graph representation
// ---------------------------------------------------------------------------

/// Per-rank lists in compressed rows, as ParMETIS keeps its `sendptr` /
/// `sendind`: `idx[ptr[k]..ptr[k + 1]]` is the list of rank `peers[k]`,
/// the ranks ascending and each with a non-empty list.
#[derive(Debug, Clone, Default)]
struct SendLists {
    peers: Vec<u32>,
    ptr: Vec<u32>,
    idx: Vec<u32>,
}

impl SendLists {
    /// The lists of `(rank, entry)` pairs sorted by rank, entries in order.
    fn from_sorted(pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let (mut len, mut peers, mut last) = (0, 0, None);
        for (r, _) in pairs.clone() {
            len += 1;
            peers += usize::from(last != Some(r));
            last = Some(r);
        }
        let mut lists = SendLists {
            peers: Vec::with_capacity(peers),
            ptr: Vec::with_capacity(peers + 1),
            idx: Vec::with_capacity(len),
        };
        for (r, x) in pairs {
            if lists.peers.last() != Some(&r) {
                lists.peers.push(r);
                lists.ptr.push(lists.idx.len() as u32);
            }
            lists.idx.push(x);
        }
        lists.ptr.push(lists.idx.len() as u32);
        lists
    }

    /// Each rank with its list, ascending by rank.
    fn lists(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        let spans = self.ptr.windows(2);
        let lists = spans.map(|w| &self.idx[w[0] as usize..w[1] as usize]);
        self.peers.iter().map(|&r| r as usize).zip(lists)
    }

    /// A send buffer with room for every list.
    fn outbox<T>(&self) -> Outbox<T> {
        Outbox::with_capacity(self.idx.len(), self.peers.len())
    }

    /// Fills `out` with `value(x)` of every entry `x`, a run per list
    /// declaring `bytes` per entry.
    fn fill<T>(&self, out: &mut Outbox<T>, bytes: usize, value: impl Fn(u32) -> T) {
        for (d, list) in self.lists() {
            let words = words_for_bytes(bytes * list.len());
            out.run(d, words, list.iter().map(|&x| value(x)));
        }
    }
}

/// The words of a run of `bytes`-byte items.
fn sized<T>(bytes: usize) -> impl Fn(&[T]) -> u64 {
    move |run| words_for_bytes(bytes * run.len())
}

/// One level of the distributed graph, in the local numbering of parallel
/// MeTiS: rank `r` owns the contiguous global ids `off[r]..off[r+1]`, and
/// its CSR rows name neighbours by *slot* — `i` for owned vertex `i` (global
/// id `off[r] + i`), `local_n + k` for ghost `k`, the `k`-th smallest global
/// id among the neighbours it does not own. The ghosts and the boundary send
/// lists are built once, with the level, the send lists in compressed rows
/// ([`SendLists`]); a ghost exchange fills a send buffer the level holds
/// from them ([`DistGraph::fill_ghosts`]) and reads its ghosts in place
/// from the delivered buffer, so it allocates per rank, not per neighbour.
/// A global id leaves the slots only to go on the wire. Replicating only
/// the `P+1`-entry `off` array is enough to route any vertex to its owner.
#[derive(Debug, Clone)]
pub(crate) struct DistGraph {
    /// Ownership offsets, `P + 1` entries, replicated on every rank.
    pub(crate) off: Vec<u32>,
    /// The global id of owned vertex 0, `off[rank]`.
    base: u32,
    /// Local row offsets (`local_n + 1` entries).
    pub(crate) xadj: Vec<u32>,
    /// Neighbour slots.
    pub(crate) adjncy: Vec<u32>,
    /// Edge weights, parallel to `adjncy`.
    pub(crate) adjwgt: Vec<u32>,
    /// Vertex weights of the owned block.
    pub(crate) vwgt: Vec<u64>,
    /// Seed part of each owned vertex (empty when partitioning fresh).
    pub(crate) seed: Vec<u32>,
    /// Global ids of the ghosts, ascending.
    ghosts: Vec<u32>,
    /// The send lists: every rank that owns a ghost of this one's with the
    /// owned vertices bordering it, ascending. Read as global ids, the list
    /// to rank `d` is `d`'s ghosts owned here, in `d`'s ghost order.
    send: SendLists,
}

impl DistGraph {
    /// Number a level's rows, given with global neighbour ids: the ghosts
    /// are the non-owned neighbours, ascending by global id, and each entry
    /// becomes its slot, so a ghost exchange reads a neighbour's value from
    /// the owned array or from the dense per-ghost array it fills.
    fn new(
        rank: usize,
        off: Vec<u32>,
        xadj: Vec<u32>,
        mut adjncy: Vec<u32>,
        adjwgt: Vec<u32>,
        vwgt: Vec<u64>,
        seed: Vec<u32>,
    ) -> Self {
        let mut dg = DistGraph {
            base: off[rank],
            off,
            xadj,
            adjncy: Vec::new(),
            adjwgt,
            vwgt,
            seed,
            ghosts: Vec::new(),
            send: SendLists::default(),
        };
        let remote = adjncy.iter().copied().filter(|&u| dg.local(u).is_none());
        let cut = remote.clone().count();
        let mut ghosts: Vec<u32> = Vec::with_capacity(cut);
        ghosts.extend(remote);
        ghosts.sort_unstable();
        ghosts.dedup();
        let nloc = dg.local_n();
        // (owner, owned vertex) for every cut edge, then sorted and unique.
        let mut borders: Vec<(u32, u32)> = Vec::with_capacity(cut);
        for i in 0..nloc {
            let (lo, hi) = (dg.xadj[i] as usize, dg.xadj[i + 1] as usize);
            for u in &mut adjncy[lo..hi] {
                *u = match dg.local(*u) {
                    Some(j) => j as u32,
                    None => {
                        borders.push((dg.owner_of(*u) as u32, i as u32));
                        let k = ghosts.binary_search(u).expect("a ghost of this level");
                        (nloc + k) as u32
                    }
                };
            }
        }
        borders.sort_unstable();
        borders.dedup();
        dg.adjncy = adjncy;
        dg.ghosts = ghosts;
        dg.send = SendLists::from_sorted(borders.iter().copied());
        dg
    }

    pub(crate) fn local_n(&self) -> usize {
        self.vwgt.len()
    }

    pub(crate) fn global_n(&self) -> usize {
        *self.off.last().unwrap() as usize
    }

    /// Owner rank of a global id (`off` is non-decreasing; empty ranks are
    /// skipped by taking the last rank whose offset is ≤ `gid`).
    pub(crate) fn owner_of(&self, gid: u32) -> usize {
        self.off[1..].partition_point(|&o| o <= gid)
    }

    /// The owned index of a global id, or `None` when another rank owns it.
    fn local(&self, gid: u32) -> Option<usize> {
        let i = gid.wrapping_sub(self.base) as usize;
        (i < self.local_n()).then_some(i)
    }

    /// The global id of a slot.
    pub(crate) fn gid(&self, slot: u32) -> u32 {
        match (slot as usize).checked_sub(self.local_n()) {
            None => self.base + slot,
            Some(k) => self.ghosts[k],
        }
    }

    /// Neighbours of local vertex `i` as `(slot, edge weight)`.
    pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.xadj[i] as usize;
        let hi = self.xadj[i + 1] as usize;
        self.adjncy[lo..hi]
            .iter()
            .copied()
            .zip(self.adjwgt[lo..hi].iter().copied())
    }

    /// Fills a ghost exchange's send side (a level holds one,
    /// `self.send.outbox()`, for all its exchanges): to each rank, `value(i)`
    /// of every owned vertex `i` on its list, in list order, declaring 4
    /// bytes an entry. The receiver knows which ghost each position names,
    /// so no id travels.
    fn fill_ghosts(&self, out: &mut Outbox<GhostEntry>, value: impl Fn(usize) -> u32) {
        self.send.fill(out, 4, |i| GhostEntry {
            value: value(i as usize),
            #[cfg(debug_assertions)]
            gid: self.base + i,
        });
    }

    /// The values a ghost exchange delivered, one per ghost, read in place:
    /// the senders' lists, concatenated in rank order, name this rank's
    /// ghosts in order.
    fn ghost_values<'a>(&self, incoming: &'a Inbox<GhostEntry>) -> impl Iterator<Item = u32> + 'a {
        let entries = incoming.items();
        #[cfg(debug_assertions)]
        assert!(
            entries
                .iter()
                .map(|e| e.gid)
                .eq(self.ghosts.iter().copied()),
            "ghost exchange out of order"
        );
        entries.iter().map(|e| e.value)
    }
}

/// One entry of a ghost exchange: the value its receiver reads by position.
/// Debug builds also carry the sender's global id as undeclared host data,
/// so a misordered send list fails [`DistGraph::ghost_values`]; virtual time
/// reads only the declared words, which are the same in every build.
struct GhostEntry {
    value: u32,
    #[cfg(debug_assertions)]
    gid: u32,
}

/// One piece of a contraction's row exchange: a row's head, `(coarse gid,
/// vertex weight)` on 12 declared bytes, then its `(coarse neighbour,
/// edge weight)` entries on 8 each.
#[derive(Debug, Clone, Copy)]
enum RowPiece {
    Head(u32, u64),
    Entry(u32, u32),
}

impl RowPiece {
    fn bytes(&self) -> usize {
        match self {
            RowPiece::Head(..) => 12,
            RowPiece::Entry(..) => 8,
        }
    }

    /// An entry's `(coarse neighbour, edge weight)`.
    fn entry(&self) -> (u32, u32) {
        match *self {
            RowPiece::Entry(u, w) => (u, w),
            RowPiece::Head(..) => unreachable!("a row's span holds its entries only"),
        }
    }
}

/// Per-level data linking a coarse graph back to its finer parent, kept for
/// the projection step of uncoarsening.
#[derive(Debug, Clone)]
pub(crate) struct LevelLink {
    /// Fine local index → local coarse index, or `u32::MAX` when the coarse
    /// vertex lives on the partner's rank (non-representative side of a
    /// cross-rank pair).
    cmap_local: Vec<u32>,
    /// Per destination rank: local coarse indices whose part is shipped
    /// during projection (representative side of cross-rank pairs), ordered
    /// by partner gid.
    proj_out: SendLists,
    /// The local fine indices receiving those parts, in the order a
    /// projection delivers them: ascending by source rank, each source's in
    /// its list's order.
    proj_in: Vec<u32>,
}

/// Build the level-0 distributed graph from this rank's vertex list and
/// the replicated rank-major numbering ([`RankLists`], stable within each
/// rank), so every rank agrees on the numbering without communication.
pub(crate) fn build_level0(
    rank: usize,
    g: &Graph,
    lists: &RankLists,
    prev: Option<&[u32]>,
) -> DistGraph {
    assert_eq!(lists.n(), g.n(), "need one owner per vertex");
    let mine = lists.mine(rank);
    let degree = |&v: &u32| (g.xadj[v as usize + 1] - g.xadj[v as usize]) as usize;
    let entries = mine.iter().map(degree).sum();
    let mut xadj = Vec::with_capacity(mine.len() + 1);
    xadj.push(0u32);
    let mut adjncy = Vec::with_capacity(entries);
    let mut adjwgt = Vec::with_capacity(entries);
    let mut vwgt = Vec::with_capacity(mine.len());
    let mut seed = Vec::with_capacity(if prev.is_some() { mine.len() } else { 0 });
    for &v in mine {
        let v = v as usize;
        for (u, w) in g.edges(v) {
            adjncy.push(lists.newid[u as usize]);
            adjwgt.push(w);
        }
        xadj.push(adjncy.len() as u32);
        vwgt.push(g.vwgt[v]);
        if let Some(p) = prev {
            seed.push(p[v]);
        }
    }
    DistGraph::new(rank, lists.off.clone(), xadj, adjncy, adjwgt, vwgt, seed)
}

// ---------------------------------------------------------------------------
// Parallel heavy-edge matching with cross-rank negotiation
// ---------------------------------------------------------------------------

const FREE: u8 = 0;
const MATCHED: u8 = 1;
const PENDING: u8 = 2;

/// One round of parallel heavy-edge matching. Local pairs match immediately;
/// a proposal to a remote vertex is negotiated in two `alltoallv` rounds
/// (proposals out, grants back). The grant rule is deterministic — heaviest
/// edge first, ties to the lower proposer id — and a pending vertex accepts
/// only its own target (mutual proposals), so the global mate relation is
/// involutive by construction. Returns the partner gid of every owned vertex
/// (its own gid when it stays a singleton).
pub(crate) fn parallel_hem(comm: &mut Comm, dg: &DistGraph, seed: u64, level: usize) -> Vec<u32> {
    let rank = comm.rank();
    let base = dg.base;
    let nloc = dg.local_n();

    let mut partner: Vec<u32> = (0..nloc as u32).map(|i| base + i).collect();
    let mut state = vec![FREE; nloc];
    let mut my_prop = vec![u32::MAX; nloc];

    let mut order: Vec<u32> = (0..nloc as u32).collect();
    stage_rng(seed, level, 0, rank).shuffle(&mut order);

    // Local pass: match local pairs, queue proposals for remote best mates.
    let mut props: Vec<(usize, (u32, u32, u32))> = Vec::with_capacity(nloc); // (owner, (target, from, w))
    for &iv in &order {
        let i = iv as usize;
        if state[i] != FREE {
            continue;
        }
        let gid = base + i as u32;
        let mut best: Option<(u32, u32)> = None; // (weight, neighbour slot)
        for (s, w) in dg.row(i) {
            if (s as usize) < nloc && state[s as usize] != FREE {
                continue;
            }
            if best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, s));
            }
        }
        let Some((w, s)) = best else { continue };
        let (u, j) = (dg.gid(s), s as usize);
        if j < nloc {
            partner[i] = u;
            partner[j] = gid;
            state[i] = MATCHED;
            state[j] = MATCHED;
        } else {
            state[i] = PENDING;
            my_prop[i] = u;
            props.push((dg.owner_of(u), (u, gid, w)));
        }
    }

    // Negotiate: proposals out, grants computed at the target's owner. A
    // proposer proposes once, so ordering by (owner, proposer) is total.
    props.sort_unstable_by_key(|&(d, (_, f, _))| (d, f));
    let mut out = Outbox::with_capacity(props.len(), 0);
    out.extend_grouped(props, sized(12));
    let mut all = comm.alltoallv_sparse(&mut out).into_items();
    all.sort_unstable_by_key(|&(t, f, w)| (t, std::cmp::Reverse(w), f));
    let mut resp: Vec<(usize, (u32, u32))> = Vec::with_capacity(all.len()); // (owner, (from, accepted))
    for &(t, f, _w) in &all {
        let i = (t - base) as usize;
        let accept = match state[i] {
            FREE => true,
            PENDING => my_prop[i] == f, // mutual proposal: both sides accept
            _ => false,
        };
        if accept {
            partner[i] = f;
            state[i] = MATCHED;
        }
        resp.push((dg.owner_of(f), (f, accept as u32)));
    }
    resp.sort_unstable_by_key(|&(d, (f, _))| (d, f));
    let mut out = Outbox::with_capacity(resp.len(), 0);
    out.extend_grouped(resp, sized(8));
    for &(f, accepted) in comm.alltoallv_sparse(&mut out).items() {
        let i = (f - base) as usize;
        if accepted == 1 {
            partner[i] = my_prop[i];
            state[i] = MATCHED;
        } else if state[i] == PENDING {
            state[i] = FREE; // singleton this level
        }
    }
    partner
}

// ---------------------------------------------------------------------------
// Distributed contraction
// ---------------------------------------------------------------------------

/// Contract a matching into the next-coarser distributed graph. The smaller
/// gid of each pair is the representative; its owner hosts the coarse
/// vertex. Three negotiation rounds: coarse ids to cross-rank partners,
/// ghost coarse-map entries along the level's send lists, and relabelled
/// rows of cross-rank non-representatives to the representative's owner.
/// Returns `None` when the contraction would keep more than `keep` of the
/// level's vertices ([`SEEDED_KEEP`] or [`FRESH_KEEP`]); the decision
/// replicates on every rank because it is made from the allgathered coarse
/// counts.
pub(crate) fn contract_distributed(
    comm: &mut Comm,
    dg: &DistGraph,
    partner: &[u32],
    keep: f64,
) -> Option<(DistGraph, LevelLink)> {
    let p = comm.nranks();
    let rank = comm.rank();
    let base = dg.base;
    let nloc = dg.local_n();

    // Representatives (singletons and the smaller gid of each pair), in
    // increasing fine gid order.
    let mut cmap_local = vec![u32::MAX; nloc];
    let mut reps: Vec<u32> = Vec::with_capacity(nloc);
    for i in 0..nloc {
        if partner[i] >= base + i as u32 {
            cmap_local[i] = reps.len() as u32;
            reps.push(i as u32);
        }
    }
    for &ri in &reps {
        let i = ri as usize;
        if let Some(j) = dg.local(partner[i]).filter(|&j| j != i) {
            cmap_local[j] = cmap_local[i];
        }
    }

    // Global coarse numbering: contiguous per rank.
    let counts = comm.allgather(1, reps.len() as u64);
    let mut coff = vec![0u32; p + 1];
    for r in 0..p {
        coff[r + 1] = coff[r] + counts[r] as u32;
    }
    if coff[p] as f64 > dg.global_n() as f64 * keep {
        return None; // the level would not pay; keep the current one as coarsest
    }
    let cbase = coff[rank];

    // Round A: representatives tell cross-rank partners their coarse gid.
    // Owners ascend with gids, so sorting by partner gid groups the pairs by
    // owner, in each receiver's own gid order.
    let mut a_out: Vec<(u32, u32)> = Vec::with_capacity(reps.len()); // (partner gid, coarse gid)
    for (c, &ri) in reps.iter().enumerate() {
        let m = partner[ri as usize];
        if dg.local(m).is_none() {
            a_out.push((m, cbase + c as u32));
        }
    }
    a_out.sort_unstable();
    let owned = |&(m, cg): &(u32, u32)| (dg.owner_of(m) as u32, cg - cbase);
    let proj_out = SendLists::from_sorted(a_out.iter().map(owned));
    let mut out = Outbox::with_capacity(a_out.len(), proj_out.peers.len());
    out.extend_grouped(a_out.into_iter().map(|e| (dg.owner_of(e.0), e)), sized(8));
    let a_in = comm.alltoallv_sparse(&mut out);

    // Global coarse gid of every slot: owned vertices first, ...
    let mut coarse_of = vec![u32::MAX; nloc];
    for i in 0..nloc {
        if cmap_local[i] != u32::MAX {
            coarse_of[i] = cbase + cmap_local[i];
        }
    }
    let mut proj_in: Vec<u32> = Vec::with_capacity(a_in.items().len());
    for &(gid, cg) in a_in.items() {
        let i = (gid - base) as usize;
        coarse_of[i] = cg;
        proj_in.push(i as u32);
    }
    // ... then the ghosts' (round B: each rank sends the coarse gids of its
    // owned vertices bordering rank d, to d, in d's ghost order).
    let mut out = dg.send.outbox();
    dg.fill_ghosts(&mut out, |i| coarse_of[i]);
    let b_in = comm.alltoallv_sparse(&mut out);
    coarse_of.extend(dg.ghost_values(&b_in));
    let relabelled = |i: usize, cg: u32| {
        let coarse = dg.row(i).map(|(s, w)| (coarse_of[s as usize], w));
        coarse.filter(move |&(cu, _)| cu != cg)
    };

    // Round C: cross-rank non-representatives ship their relabelled rows
    // (plus vertex weight) to the representative's owner, each row a head
    // and its entries; coarse owners ascend with coarse gids.
    let mut rows: Vec<(u32, u32)> = Vec::with_capacity(a_in.items().len()); // (coarse gid, fine index)
    let mut pieces_len = 0;
    for i in 0..nloc {
        if cmap_local[i] == u32::MAX {
            rows.push((coarse_of[i], i as u32)); // neither a representative nor locally paired
            pieces_len += 1 + (dg.xadj[i + 1] - dg.xadj[i]) as usize;
        }
    }
    rows.sort_unstable();
    let coarse_owner = |cg: u32| coff[1..].partition_point(|&o| o <= cg);
    let pieces = rows.iter().flat_map(|&(cg, i)| {
        let head = RowPiece::Head(cg, dg.vwgt[i as usize]);
        let entries = relabelled(i as usize, cg).map(|(u, w)| RowPiece::Entry(u, w));
        std::iter::once(head)
            .chain(entries)
            .map(move |x| (coarse_owner(cg), x))
    });
    let mut out = Outbox::with_capacity(pieces_len, 0);
    out.extend_grouped(pieces, |run| {
        words_for_bytes(run.iter().map(RowPiece::bytes).sum())
    });
    let c_in = comm.alltoallv_sparse(&mut out);
    // Per coarse vertex: the shipped row's weight and its entries' span
    // of `c_in`. A pair has one non-representative, so a coarse vertex
    // receives at most one row.
    let ncoarse = reps.len();
    let mut shipped = vec![(0u64, 0u32, 0u32); ncoarse];
    let mut at = None;
    for (k, piece) in c_in.items().iter().enumerate() {
        match *piece {
            RowPiece::Head(cg, vw) => {
                let c = (cg - cbase) as usize;
                debug_assert_eq!(
                    shipped[c],
                    (0, 0, 0),
                    "two rows shipped to one coarse vertex"
                );
                shipped[c] = (vw, k as u32 + 1, k as u32 + 1);
                at = Some(c);
            }
            RowPiece::Entry(..) => shipped[at.expect("a row's head first")].2 += 1,
        }
    }

    // Assemble the coarse CSR: representative row + partner row (local or
    // shipped), relabelled, sorted by coarse gid, duplicate entries merged.
    // Every coarse entry comes from an owned or a shipped fine entry.
    let entries = dg.adjncy.len() + c_in.items().len();
    let mut cxadj = Vec::with_capacity(ncoarse + 1);
    cxadj.push(0u32);
    let mut cadjncy = Vec::with_capacity(entries);
    let mut cadjwgt = Vec::with_capacity(entries);
    let mut cvwgt = Vec::with_capacity(ncoarse);
    let mut cseed = Vec::with_capacity(if dg.seed.is_empty() { 0 } else { ncoarse });
    let mut buf: Vec<(u32, u32)> = Vec::new();
    for (c, &ri) in reps.iter().enumerate() {
        let i = ri as usize;
        let cg = cbase + c as u32;
        buf.clear();
        buf.extend(relabelled(i, cg));
        let mut vw = dg.vwgt[i];
        match dg.local(partner[i]) {
            Some(j) if j == i => {}
            Some(j) => {
                buf.extend(relabelled(j, cg));
                vw += dg.vwgt[j];
            }
            None => {
                let (w, lo, hi) = shipped[c];
                let row = &c_in.items()[lo as usize..hi as usize];
                buf.extend(row.iter().map(RowPiece::entry));
                vw += w;
            }
        }
        buf.sort_unstable_by_key(|e| e.0);
        let mut k = 0;
        while k < buf.len() {
            let (u, mut w) = buf[k];
            k += 1;
            while k < buf.len() && buf[k].0 == u {
                w += buf[k].1;
                k += 1;
            }
            cadjncy.push(u);
            cadjwgt.push(w);
        }
        cxadj.push(cadjncy.len() as u32);
        cvwgt.push(vw);
        if !dg.seed.is_empty() {
            cseed.push(dg.seed[i]);
        }
    }
    // The level lives until uncoarsening reaches it: keep only its rows.
    cadjncy.shrink_to_fit();
    cadjwgt.shrink_to_fit();

    let coarse = DistGraph::new(rank, coff, cxadj, cadjncy, cadjwgt, cvwgt, cseed);
    let link = LevelLink {
        cmap_local,
        proj_out,
        proj_in,
    };
    Some((coarse, link))
}

// ---------------------------------------------------------------------------
// Coarsest solve, projection, distributed refinement
// ---------------------------------------------------------------------------

/// Gather the coarsest graph's CSR rows to rank 0, neighbours as global ids
/// (rows concatenate in rank order because global ids are contiguous per
/// rank), solve serially there,
/// scatter every rank the parts of the coarse vertices it owns, and
/// broadcast the global part weights — rank 0 is the one place that holds
/// every vertex weight, so the weights uncoarsening carries cost one
/// `nparts`-word broadcast. Returns the owned slice of the partition and
/// the weights.
fn coarsest_solve(
    comm: &mut Comm,
    dg: &DistGraph,
    cfg: &PartitionConfig,
    frac: Option<&[f64]>,
    vertex_units: f64,
) -> (Vec<u32>, Vec<u64>) {
    let rank = comm.rank();
    let bytes = 4 * (dg.xadj.len() + 2 * dg.adjncy.len() + dg.seed.len()) + 8 * dg.vwgt.len();
    let piece = (
        dg.xadj.clone(),
        dg.adjncy.iter().map(|&s| dg.gid(s)).collect::<Vec<u32>>(),
        dg.adjwgt.clone(),
        dg.vwgt.clone(),
        dg.seed.clone(),
    );
    let pieces = comm.gather(0, words_for_bytes(bytes), piece);
    let full = if rank == 0 {
        let pieces = pieces.unwrap();
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        let mut vwgt = Vec::new();
        let mut seed = Vec::new();
        for (px, pa, pw, pv, ps) in pieces {
            let shift = *xadj.last().unwrap();
            xadj.extend(px[1..].iter().map(|&x| x + shift));
            adjncy.extend(pa);
            adjwgt.extend(pw);
            vwgt.extend(pv);
            seed.extend(ps);
        }
        let g = Graph {
            xadj: Cow::Owned(xadj),
            adjncy: Cow::Owned(adjncy),
            adjwgt: Cow::Owned(adjwgt),
            vwgt: Cow::Owned(vwgt),
        };
        charge(comm, HOST_UNITS_PER_VERTEX as usize * g.n(), vertex_units);
        // Seeded: diffuse only, never fall back to a fresh partition — the
        // coarse graph's granularity caps what any partitioner can achieve
        // here, a fresh relabeling would destroy the seed alignment (low
        // migration §4.2; part↔processor sizing under capacities), and the
        // balance stages of [`refine_distributed`] repair the residual
        // imbalance as uncoarsening restores granularity.
        let part = if seed.is_empty() {
            partition_kway_impl(&g, cfg, frac)
        } else {
            repartition_diffuse(&g, cfg, &seed, frac)
        };
        let w = weights_of(&g.vwgt, &part, cfg.nparts);
        let slices = dg
            .off
            .windows(2)
            .map(|o| part[o[0] as usize..o[1] as usize].to_vec());
        Some((slices.map(sized_block).collect(), w))
    } else {
        None
    };
    let (slices, w) = full.unzip();
    let part = comm.scatterv(0, slices);
    let w = comm.bcast(0, cfg.nparts as u64, w);
    (part, w.to_vec())
}

/// This rank's seed weights as a zero-move commit: what the coarse seed puts
/// in each part from the owned vertices, for the coarsest level's first
/// exchange to sum into the global weights in place of a broadcast. Empty
/// when the rank owns no weight.
fn seed_commit(rank: usize, dg: &DistGraph, nparts: usize) -> Commits {
    let w = weights_of(&dg.vwgt, &dg.seed, nparts);
    let w: Vec<i64> = w
        .into_iter()
        .map(|x| i64::try_from(x).expect("part weight fits i64"))
        .collect();
    let row = nonzeros(w.iter().copied());
    if row.is_empty() {
        return Commits::new();
    }
    vec![(rank as u32, Arc::new((0, row)))]
}

/// A rank's slice of a partition as a [`Comm::scatterv`] block, declaring
/// its 4-byte part ids.
fn sized_block(slice: Vec<u32>) -> (u64, Vec<u32>) {
    (words_for_bytes(4 * slice.len()), slice)
}

/// Project a coarse partition onto the finer level: owned coarse vertices
/// project locally; cross-rank pairs receive their part from the
/// representative's owner over one `alltoallv`.
#[track_caller]
fn project_parts(
    comm: &mut Comm,
    link: &LevelLink,
    coarse_part: &[u32],
    fine_nloc: usize,
) -> Vec<u32> {
    let mut out = link.proj_out.outbox();
    link.proj_out.fill(&mut out, 4, |c| coarse_part[c as usize]);
    let incoming = comm.alltoallv_sparse(&mut out);
    let mut part = vec![0u32; fine_nloc];
    for (i, &c) in link.cmap_local.iter().enumerate() {
        if c != u32::MAX {
            part[i] = coarse_part[c as usize];
        }
    }
    debug_assert_eq!(
        incoming.items().len(),
        link.proj_in.len(),
        "one part per pair"
    );
    for (&i, &pv) in link.proj_in.iter().zip(incoming.items()) {
        part[i as usize] = pv;
    }
    part
}

/// Upper bound on balance stages per level, matching the spirit of the
/// serial `kway_balance` sweep cap.
const MAX_BALANCE_STAGES: usize = 32;

/// A gain stage that commits fewer than one move per `GAIN_EXIT_VERTICES`
/// vertices of its level, machine-wide — under 1 % — ends the level. A
/// stage costs one exchange and one scan however few vertices it moves, and
/// past the first stage or two of a fine level the moves fall to a few
/// dozen (level 0 of the paper-scale dual graph at P = 64, 60 984 vertices:
/// 230, 65, 21, 10, 6); a level of fewer than 100 vertices ends only on a
/// stage that moved nothing.
const GAIN_EXIT_VERTICES: u64 = 100;

/// Distributed refinement of one level, in stages. A stage is one neighbour
/// exchange and one scan: send the parts of the level's boundary vertices
/// along its send lists (the ghosts' parts arrive in slot order, and `part`
/// holds them past the owned entries for the stage, so a neighbour's part is
/// `part[slot]`), propose moves locally against the carried global part
/// weights `w`, and
/// commit them under a per-rank inflow quota computed from an exclusive scan
/// of the per-part demand — each part's headroom is granted in rank order,
/// so no ceiling is exceeded but by a spill (below), even though ranks move
/// vertices concurrently. What a rank committed, `(moves, Δw)` — the move
/// count and the signed weight change per touched part — rides the next
/// stage's exchange ([`Comm::alltoallv_sparse_join`], a rank-sorted union),
/// and every rank folds the commits in rank order and applies `w += Δw`
/// before it reads `w` again. The exit tests read that fold, so they run
/// just after the exchange. A level that ends on its stage cap or its gain budget
/// returns its last commits instead of exchanging them on their own: the
/// next level's first exchange carries them as `pending`, and its stage 0
/// folds them before it reads `w` (its exit test ignores them — they are
/// the coarser level's moves). The scan and the commits ship sparse rows
/// ([`row_words`]), so a stage costs what it changes.
///
/// `w` plus the `pending` commits must be the global weights of `part` on
/// entry, and `w` plus the returned commits are on exit; projection to a
/// finer level leaves them valid (a coarse vertex weighs what its fine
/// vertices do).
///
/// When some part is over its ceiling (the coarsest solve can be forced
/// over by vertex granularity, a stalled hierarchy's coarse seed is the
/// imbalanced input itself, and the overshoot survives projection
/// unchanged), the stage drains overweight parts toward relatively lighter
/// ones — the distributed analogue of the serial `kway_balance` — and only
/// then do the positive-gain stages run. On level 0, whose vertices no finer
/// level can split, a vertex that fits under no lighter part's ceiling
/// spills past one, as the serial drain lets it. The drain ends at the
/// first stage that does not lower the parts' summed excess over their
/// ceilings (without spills: the first that moves nothing) or, once a spill
/// has landed on the level, the largest excess. The mode is decided from
/// the replicated weights, so every rank agrees on it. The `passes` gain
/// stages are a cap: the level ends at the first gain stage that commits
/// fewer than one move per [`GAIN_EXIT_VERTICES`] of its vertices
/// machine-wide — a replicated count, so every rank ends at the same stage.
///
/// With a `census`, each stage appends this rank's committed moves to its
/// drain or gain list.
#[allow(clippy::too_many_arguments)]
fn refine_distributed(
    comm: &mut Comm,
    dg: &DistGraph,
    part: &mut Vec<u32>,
    w: &mut [u64],
    max_w: &[u64],
    seed: u64,
    level: usize,
    passes: usize,
    vertex_units: f64,
    pending: Commits,
    mut census: Option<&mut LevelStages>,
) -> Commits {
    let rank = comm.rank();
    let nloc = dg.local_n();
    let nparts = max_w.len();

    let gain_stages = passes.max(1);
    let stage_cap = gain_stages + MAX_BALANCE_STAGES;
    let mut gain_done = 0usize;
    let mut balance_dead = false;
    // The previous stage's mode and the ceiling excess it started from, and
    // this rank's commit of it (empty when it moved nothing), which rides
    // the next exchange.
    let mut prev_balance = false;
    let mut prev_excess = (0u64, (0u64, 0usize));
    let mut spilled = false;
    let mut mine: Commits = pending;
    // Buffers of the level, refilled by every stage: the ghost send buffer,
    // the visiting order and the parts a vertex's neighbours touch.
    let mut ghosts_out = dg.send.outbox();
    let mut order: Vec<u32> = Vec::with_capacity(nloc);
    let degrees = dg.xadj.windows(2).map(|x| (x[1] - x[0]) as usize);
    let mut touched: Vec<u32> = Vec::with_capacity(degrees.max().unwrap_or(0));
    for stage in 0..stage_cap {
        if gain_done >= gain_stages {
            break;
        }

        // Ghost part exchange, joining the previous stage's commits.
        dg.fill_ghosts(&mut ghosts_out, |i| part[i]);
        #[cfg(test)]
        let my_moves = mine.first().map_or(0, |(_, c)| c.0);
        let (incoming, commits) = comm.alltoallv_sparse_join(
            &mut ghosts_out,
            std::mem::take(&mut mine),
            |c| commit_words(c, nparts),
            |a, b| merge_rows(a, b, |x, _| Some(Arc::clone(x))),
        );
        // The previous stage's reduction: how many moves were committed
        // anywhere (the loop's exit test) and what they did to the part
        // weights, summed per part into the sparse row of the non-zero
        // changes, ascending by part.
        let all_moves: u64 = commits.iter().map(|(_, c)| c.0).sum();
        let all_delta = {
            let entries = commits.iter().flat_map(|(_, c)| c.1.iter().copied());
            let mut all = Vec::with_capacity(entries.clone().count());
            all.extend(entries);
            summed_by_part(all)
        };
        // A part the fold takes over its ceiling took a spill: no other
        // move crosses a ceiling (stage 0 folds the coarser level's moves).
        spilled |= stage > 0
            && all_delta.iter().any(|&(q, d)| {
                let q = q as usize;
                w[q] <= max_w[q] && w[q].saturating_add_signed(d) > max_w[q]
            });
        apply_delta(w, &all_delta);
        #[cfg(test)]
        assert_stage_matches_recount(comm, dg, part, w, my_moves, all_moves);
        let excess = ceiling_excess(w, max_w);
        if stage > 0 {
            if prev_balance {
                // The drain is stuck (no vertex fits anywhere better, or
                // its spills added as much excess as it drained); switch
                // to gain stages rather than spinning. Once it spills, it
                // also ends when the worst part stops improving: the tail
                // that polishes the other parts costs a stage per handful
                // of moves and leaves the heaviest part where it is.
                balance_dead |= excess.0 >= prev_excess.0 || (spilled && excess.1 >= prev_excess.1);
            } else if GAIN_EXIT_VERTICES * all_moves < dg.global_n() as u64 {
                break;
            }
        }
        charge(comm, nloc, vertex_units);
        part.truncate(nloc);
        part.extend(dg.ghost_values(&incoming));

        let balance_mode = !balance_dead && (0..nparts).any(|q| w[q] > max_w[q]);
        if !balance_mode {
            gain_done += 1;
        }

        // Propose moves against tentative weights.
        order.clear();
        order.extend(0..nloc as u32);
        stage_rng(seed, level, 16 + stage as u64, rank).shuffle(&mut order);
        let mut wt = w.to_vec();
        let mut conn = vec![0i64; nparts];
        let mut proposals: Vec<(u32, u32, bool)> = Vec::new(); // (local idx, to, spill)
                                                               // Per part `q`: the weight this rank asks to move into it and, at
                                                               // `nparts + q`, the weight of its spills out of it.
        let mut desired = vec![0u64; 2 * nparts];
        if balance_mode {
            // Drain overweight parts: best relatively-lighter neighbouring
            // part by connectivity, falling back to the relatively lightest
            // part overall so interior vertices cannot deadlock the drain.
            let mut stuck: Vec<u32> = Vec::new();
            for &iv in &order {
                let i = iv as usize;
                let cur = part[i] as usize;
                if wt[cur] <= max_w[cur] {
                    continue;
                }
                let vw = dg.vwgt[i];
                let mut best: Option<(i64, usize)> = None;
                for (u, ew) in dg.row(i) {
                    let q = part[u as usize] as usize;
                    if q != cur
                        && wt[q] + vw <= max_w[q]
                        && rel_lt(wt[q] + vw, max_w[q], wt[cur], max_w[cur])
                    {
                        let gain = ew as i64;
                        if best.is_none_or(|(bg, _)| gain > bg) {
                            best = Some((gain, q));
                        }
                    }
                }
                let to = match best {
                    Some((_, q)) => q,
                    None => {
                        let mut lightest = 0;
                        for q in 1..nparts {
                            if rel_lt(wt[q], max_w[q], wt[lightest], max_w[lightest]) {
                                lightest = q;
                            }
                        }
                        if lightest == cur
                            || wt[lightest] + vw > max_w[lightest]
                            || !rel_lt(wt[lightest] + vw, max_w[lightest], wt[cur], max_w[cur])
                        {
                            stuck.push(iv);
                            continue;
                        }
                        lightest
                    }
                };
                wt[cur] -= vw;
                wt[to] += vw;
                desired[to] += vw;
                proposals.push((i as u32, to as u32, false));
            }

            // On level 0, whose vertices no finer level can split, a vertex
            // that fits nowhere spills instead, as the serial `kway_balance`
            // would move it: past the ceiling of a part under it that stays
            // relatively lighter than the vertex's own. A vertex spills only
            // while its part stays at or over its ceiling without it, so no
            // part ends a drain over its ceiling by more than its heaviest
            // vertex. Lightest first, and a part stops spilling at its first
            // vertex with nowhere to go, so a part holding one heavy vertex
            // sheds the light ones around it rather than hand the heavy one
            // on. A spill claims its destination's whole headroom, so it
            // lands there alone.
            if level == 0 {
                stuck.sort_by_key(|&iv| dg.vwgt[iv as usize]);
                let mut blocked = vec![false; nparts];
                for iv in stuck {
                    let i = iv as usize;
                    let (cur, vw) = (part[i] as usize, dg.vwgt[i]);
                    if wt[cur] < max_w[cur] + vw || blocked[cur] {
                        continue;
                    }
                    let open = |q: usize| {
                        q != cur
                            && w[q] < max_w[q]
                            && desired[q] == 0
                            && rel_lt(wt[q] + vw, max_w[q], wt[cur], max_w[cur])
                    };
                    let mut best: Option<(u32, usize)> = None;
                    for (u, ew) in dg.row(i) {
                        let q = part[u as usize] as usize;
                        if open(q) && best.is_none_or(|(bg, _)| ew > bg) {
                            best = Some((ew, q));
                        }
                    }
                    let lightest = || {
                        (0..nparts).filter(|&q| open(q)).reduce(|l, q| {
                            if rel_lt(wt[q], max_w[q], wt[l], max_w[l]) {
                                q
                            } else {
                                l
                            }
                        })
                    };
                    let Some(to) = best.map(|(_, q)| q).or_else(lightest) else {
                        blocked[cur] = true;
                        continue;
                    };
                    wt[cur] -= vw;
                    wt[to] += vw;
                    desired[to] = max_w[to] - w[to];
                    desired[nparts + cur] += vw;
                    proposals.push((iv, to as u32, true));
                }
            }
        } else {
            // Positive-gain boundary moves.
            for &iv in &order {
                let i = iv as usize;
                let cur = part[i] as usize;
                touched.clear();
                let mut boundary = false;
                for (u, ew) in dg.row(i) {
                    let q = part[u as usize] as usize;
                    if conn[q] == 0 {
                        touched.push(q as u32);
                    }
                    conn[q] += ew as i64;
                    if q != cur {
                        boundary = true;
                    }
                }
                if boundary {
                    let cur_conn = conn[cur];
                    let vw = dg.vwgt[i];
                    let mut best: Option<(i64, usize)> = None;
                    for &q in &touched {
                        let q = q as usize;
                        if q == cur {
                            continue;
                        }
                        let gain = conn[q] - cur_conn;
                        if gain > 0
                            && wt[q] + vw <= max_w[q]
                            && best.is_none_or(|(bg, _)| gain > bg)
                        {
                            best = Some((gain, q));
                        }
                    }
                    if let Some((_, q)) = best {
                        wt[cur] -= vw;
                        wt[q] += vw;
                        desired[q] += vw;
                        proposals.push((i as u32, q as u32, false));
                    }
                }
                for &q in &touched {
                    conn[q as usize] = 0;
                }
            }
        }

        // Inflow quota: each part's headroom is allocated greedily across
        // ranks (in rank order), which needs only the summed demand of the
        // ranks below — an exclusive scan. Outflow is ignored, so the
        // allocation is conservative and the ceilings hold unconditionally,
        // spills apart. A spill is granted only the whole headroom of its
        // destination, and a part's spills draw on a second headroom, its
        // excess over its ceiling, under key `nparts + q`: the first of a
        // stage's spills out of it to pass that excess is the last one
        // granted. A row with spills declares the dense size of both ranges.
        let demand = nonzeros(desired.iter().copied());
        let spills = |row: &Vec<(u32, u64)>| row.last().is_some_and(|&(q, _)| q as usize >= nparts);
        let below = comm.exscan(
            |row| row_words(row, nparts << usize::from(spills(row))),
            demand.clone(),
            |a, b| merge_add(a, b),
        );
        let below = below.as_deref().unwrap_or(&[]);
        let mut quota = if spills(&demand) {
            let over_by = (0..nparts).map(|q| w[q].saturating_sub(max_w[q]));
            let w = [&*w, &vec![0; nparts]].concat();
            let max_w: Vec<u64> = max_w.iter().copied().chain(over_by).collect();
            inflow_quota(below, &demand, &max_w, &w)
        } else {
            inflow_quota(below, &demand, max_w, w)
        };

        // Commit in proposal order while quota lasts.
        let mut moves = 0u64;
        let mut delta: Vec<(u32, i64)> = Vec::with_capacity(2 * proposals.len());
        for &(iv, to, spilled) in &proposals {
            let i = iv as usize;
            let (from, to) = (part[i] as usize, to as usize);
            let vw = dg.vwgt[i];
            if spilled {
                let out = nparts + from;
                if quota[to] < max_w[to] - w[to] || quota[out] == 0 {
                    continue;
                }
                quota[to] = 0;
                quota[out] = quota[out].saturating_sub(vw);
            } else if quota[to] >= vw {
                quota[to] -= vw;
            } else {
                continue;
            }
            let vw = i64::try_from(vw).expect("vertex weight fits i64");
            delta.extend([(from as u32, -vw), (to as u32, vw)]);
            part[i] = to as u32;
            moves += 1;
        }

        if let Some(c) = census.as_deref_mut() {
            let list = if balance_mode {
                &mut c.drain
            } else {
                &mut c.gain
            };
            list.push(moves);
        }
        prev_balance = balance_mode;
        prev_excess = excess;
        if moves > 0 {
            mine.push((rank as u32, Arc::new((moves, summed_by_part(delta)))));
        }
    }
    part.truncate(nloc);
    mine
}

/// The parts' summed excess over their ceilings, and the largest excess with
/// the number of parts at it.
fn ceiling_excess(w: &[u64], max_w: &[u64]) -> (u64, (u64, usize)) {
    let over = w.iter().zip(max_w).map(|(&wq, &m)| wq.saturating_sub(m));
    over.fold((0, (0, 0)), |(sum, (worst, n)), e| {
        let at = match e.cmp(&worst) {
            Ordering::Greater => (e, 1),
            Ordering::Equal => (worst, n + 1),
            Ordering::Less => (worst, n),
        };
        (sum + e, at)
    })
}

/// Declared size of a set of stage commits: per commit one word for the rank
/// and move count, plus its sparse row.
fn commit_words(commits: &Commits, nparts: usize) -> u64 {
    commits
        .iter()
        .map(|(_, c)| 1 + row_words(&c.1, nparts))
        .sum()
}

/// The non-zero entries of a dense per-part row as `(part, value)`,
/// ascending by part — the form rows take on the wire.
fn nonzeros<V: Copy + Default + PartialEq>(
    dense: impl Iterator<Item = V> + Clone,
) -> Vec<(u32, V)> {
    let kept = dense.enumerate().filter(|&(_, v)| v != V::default());
    let mut row = Vec::with_capacity(kept.clone().count());
    row.extend(kept.map(|(q, v)| (q as u32, v)));
    row
}

/// `(part, Δ)` entries summed per part: the non-zero sums, ascending by
/// part, in the entries' buffer.
fn summed_by_part(mut entries: Vec<(u32, i64)>) -> Vec<(u32, i64)> {
    entries.sort_unstable_by_key(|&(q, _)| q);
    entries.dedup_by(|(q, d), (kept_q, kept)| {
        let same = q == kept_q;
        if same {
            *kept = kept.checked_add(*d).expect("weight delta overflows i64");
        }
        same
    });
    entries.retain(|&(_, d)| d != 0);
    entries
}

/// Declared size of a sparse per-part row: one header word plus the shorter
/// of the dense `nparts`-word row and the `(part, value)` pairs.
pub(crate) fn row_words<V>(row: &[(u32, V)], nparts: usize) -> u64 {
    1 + (2 * row.len()).min(nparts) as u64
}

/// Merge two sparse rows (ascending by key: a part, or a rank), combining
/// the values of a key present in both with `add`; `None` drops the entry.
fn merge_rows<V: Clone>(
    a: &[(u32, V)],
    b: &[(u32, V)],
    add: impl Fn(&V, &V) -> Option<V>,
) -> Vec<(u32, V)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                out.extend(add(&a[i].1, &b[j].1).map(|v| (a[i].0, v)));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Saturating sum of two sparse demand rows (`(part, weight)` ascending by
/// part): the `op` of the demand [`Comm::exscan`].
pub fn merge_add(a: &[(u32, u64)], b: &[(u32, u64)]) -> Vec<(u32, u64)> {
    merge_rows(a, b, |x, y| Some(x.saturating_add(*y)))
}

/// `w += delta`. A part weight leaving `u64` means the reduced delta does
/// not describe moves made against these weights — a bug, not an input.
pub(crate) fn apply_delta(w: &mut [u64], delta: &[(u32, i64)]) {
    for &(q, d) in delta {
        let q = q as usize;
        let moved = w[q].checked_add_signed(d);
        w[q] = moved.unwrap_or_else(|| {
            panic!(
                "delta / weights diverged: part {q} weighs {} and changes by {d}",
                w[q]
            )
        });
    }
}

/// This rank's share of every part's headroom `max_w[q] - w[q]` when the
/// ranks' demands (non-zero `(part, weight)` asks, ascending by part) are
/// granted greedily in rank order: `grant_r = min(demand_r, what is left)`.
/// The grants to the ranks below telescope to `min(Σ_{r' < rank}
/// demand_{r'}, headroom)`, so `below` — the exclusive scan of the demand
/// rows under [`merge_add`] — and this rank's own row `mine` are all it
/// reads.
pub fn inflow_quota(
    below: &[(u32, u64)],
    mine: &[(u32, u64)],
    max_w: &[u64],
    w: &[u64],
) -> Vec<u64> {
    let mut quota = vec![0u64; max_w.len()];
    let mut below = below.iter().peekable();
    for &(q, d) in mine {
        while below.next_if(|&&(b, _)| b < q).is_some() {}
        let granted_below = below.next_if(|&&(b, _)| b == q).map_or(0, |&(_, g)| g);
        let q = q as usize;
        let headroom = max_w[q].saturating_sub(w[q]);
        quota[q] = d.min(headroom.saturating_sub(granted_below));
    }
    quota
}

/// The quota as first written — per part, walk the dense demand of every
/// rank up to `rank`, granting `min(demand, what is left)`. Test oracle for
/// [`inflow_quota`].
#[cfg(test)]
pub(crate) fn inflow_quota_greedy(
    all_desired: &[Vec<u64>],
    rank: usize,
    max_w: &[u64],
    w: &[u64],
) -> Vec<u64> {
    let nparts = max_w.len();
    let mut quota = vec![0u64; nparts];
    for q in 0..nparts {
        let mut avail = max_w[q].saturating_sub(w[q]);
        for (r, d) in all_desired.iter().enumerate() {
            let grant = d[q].min(avail);
            avail -= grant;
            if r == rank {
                quota[q] = grant;
                break;
            }
        }
    }
    quota
}

/// The stage bookkeeping as first written — recount the owned weights per
/// part and allreduce the dense row, sum the move counts in a collective of
/// their own — checked against what the stage carried. Test oracle for the
/// `(moves, Δw)` commits [`refine_distributed`] folds off its exchange.
#[cfg(test)]
fn assert_stage_matches_recount(
    comm: &mut Comm,
    dg: &DistGraph,
    part: &[u32],
    w: &[u64],
    moves: u64,
    all_moves: u64,
) {
    let mut local_w = vec![0u64; w.len()];
    for (&q, &vw) in part.iter().zip(&dg.vwgt) {
        local_w[q as usize] += vw;
    }
    let recounted = comm.allreduce(
        |row| row.len() as u64,
        local_w,
        |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect(),
    );
    assert_eq!(w, &recounted[..], "carried part weights left the recount");
    assert_eq!(
        all_moves,
        comm.allreduce_sum_u64(moves),
        "reduced move count"
    );
    tests::STAGES_CHECKED.with(|n| n.set(n.get() + (comm.rank() == 0) as u64));
}

// ---------------------------------------------------------------------------
// Gather-solve-broadcast path
// ---------------------------------------------------------------------------

/// Gather the owned `(w1, w2, seed)` rows to rank 0, run `method`'s serial
/// kernel there on the original vertex numbering, and scatter every rank
/// the parts of the vertices it owns, in `lists.mine(rank)` order. Rank 0
/// calls [`balance`] on the gathered problem, so the partition is
/// bit-identical to the host-side serial reference. Serves every method
/// without a distributed body, and multilevel on graphs at or below the
/// coarsening target and on every two-constraint problem: the dual graph
/// the engine balances is the root-element graph, which is at the scale
/// this path already serves, and the gather and scatter cost real
/// collective traffic either way. The graph's adjacency and the SFC keys
/// are the replicated, static part of the problem and are not gathered.
pub(crate) fn gather_solve(
    comm: &mut Comm,
    method: BalanceMethod,
    p: &Problem,
    lists: &RankLists,
    vertex_units: f64,
) -> Vec<u32> {
    let rank = comm.rank();
    let g = p.graph;
    let n = g.n();
    let mine = lists.mine(rank);
    let pick = |w: &[u64]| -> Vec<u64> { mine.iter().map(|&v| w[v as usize]).collect() };
    let vw = pick(&g.vwgt);
    let v2 = p.weights().w2().map(pick).unwrap_or_default();
    let pv: Vec<u32> = match p.seed {
        Some(prev) => mine.iter().map(|&v| prev[v as usize]).collect(),
        None => Vec::new(),
    };
    charge(comm, vw.len(), vertex_units);
    let bytes = 8 * (vw.len() + v2.len()) + 4 * pv.len();
    let pieces = comm.gather(0, words_for_bytes(bytes), (vw, v2, pv));
    let slices = pieces.map(|pieces| {
        let mut vwgt = vec![0u64; n];
        let mut w2_full = p.weights().w2().map(|_| vec![0u64; n]);
        let mut prev_full = p.seed.map(|_| vec![0u32; n]);
        for (r, (vw, v2, pv)) in pieces.iter().enumerate() {
            for (k, &v) in lists.mine(r).iter().enumerate() {
                vwgt[v as usize] = vw[k];
                if let Some(w2) = &mut w2_full {
                    w2[v as usize] = v2[k];
                }
                if let Some(pf) = &mut prev_full {
                    pf[v as usize] = pv[k];
                }
            }
        }
        debug_assert_eq!(&vwgt[..], &g.vwgt[..], "gathered weights must round-trip");
        debug_assert_eq!(
            w2_full.as_deref(),
            p.weights().w2(),
            "gathered second weights must round-trip"
        );
        let mut host = g.clone();
        host.vwgt = Cow::Owned(vwgt);
        charge(comm, HOST_UNITS_PER_VERTEX as usize * n, vertex_units);
        let (w2, seed) = (w2_full.as_deref(), prev_full.as_deref());
        let part = balance(
            method,
            &Problem::new(&host, w2, p.keys, seed, p.caps, p.cfg),
        );
        let slice = |r| lists.mine(r).iter().map(|&v| part[v as usize]).collect();
        (0..pieces.len()).map(|r| sized_block(slice(r))).collect()
    });
    comm.scatterv(0, slices)
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Whether [`multilevel_body`] hands the whole problem to rank 0's serial
/// kernel: two constraints, or a graph already at the coarsening target.
fn solves_whole(p: &Problem) -> bool {
    p.weights().w2().is_some() || p.graph.n() <= p.cfg.coarsen_target()
}

/// A fresh hierarchy ends at the first contraction that would keep more than
/// this share of its level — the serial kernel's stall guard. Its coarsest
/// graph goes to rank 0, whose serial solve pays for every vertex it holds,
/// so even a level that removes one vertex in twenty pays for its
/// collectives: at 0.75 instead, a fresh partition of the paper-scale dual
/// graph into 64 parts on 64 ranks (the layer bench's `paper fresh` line)
/// stops at 9 702 coarse vertices, not 4 169, and takes 0.136 virtual s,
/// not 0.108. Into 256 parts it tips the other way (0.161 s at 0.95,
/// 0.142 s at 0.75): six more levels, each refined for 256 parts, cost
/// more than the larger rank-0 solve they spare.
pub(crate) const FRESH_KEEP: f64 = 0.95;

/// A seeded hierarchy ends at the first contraction that would keep more
/// than three quarters of its level (ParMETIS's `COARSEN_FRACTION`). A
/// seeded hierarchy that stops above the target diffuses its coarse seed in
/// parallel with no rank-0 solve, so a level that removes fewer than a
/// quarter of the vertices buys little for its fixed cost: two matching
/// exchanges, an `allgather`, three contraction exchanges, a projection and
/// at least one refinement stage (on the paper-scale dual graph at P = 64,
/// 10 contractions became 4).
///
/// The share sits close to a cliff. A hierarchy that stops above the
/// target can stop just above it, at about 16 coarse vertices per part,
/// where the parallel drain needs many stages to do what rank 0's serial
/// solve does in one. `multilevel_p256`'s second contraction keeps 72.2 %
/// of its level, 2.8 points under this share, so it reaches its target and
/// is solved on rank 0. At 0.70 its layer-bench graph (7 986 vertices,
/// P = 256) stops at 5 007 vertices, 20 per part, and refines in 20 stages
/// instead of 4, which doubles the host time of a repartition; the
/// workload's host cycle time rose 83 %. A change to matching that keeps
/// more per contraction moves that workload across.
const SEEDED_KEEP: f64 = 0.75;

/// The share of its level a contraction may keep before the hierarchy
/// ends there: [`SEEDED_KEEP`] for a seeded problem, [`FRESH_KEEP`] for a
/// fresh one.
fn keep_share(seeded: bool) -> f64 {
    if seeded {
        SEEDED_KEEP
    } else {
        FRESH_KEEP
    }
}

/// Coarsening: parallel HEM plus negotiated contraction, level by level,
/// until the graph is at the target or a contraction would keep more than
/// [`keep_share`] of its level. `seeded` must be replicated — whether the
/// problem has a seed, not whether this rank's seed row is empty (an empty
/// rank's always is). Returns every finer level, finest first, with its
/// link to the next, and the coarsest graph.
fn coarsen(
    comm: &mut Comm,
    mut cur: DistGraph,
    cfg: &PartitionConfig,
    seeded: bool,
    vertex_units: f64,
) -> (Vec<(DistGraph, LevelLink)>, DistGraph) {
    let keep = keep_share(seeded);
    let mut levels = Vec::new();
    while cur.global_n() > cfg.coarsen_target() {
        charge(comm, cur.local_n(), vertex_units);
        let partner = parallel_hem(comm, &cur, cfg.seed, levels.len());
        charge(comm, cur.local_n(), vertex_units);
        match contract_distributed(comm, &cur, &partner, keep) {
            Some((coarse, link)) => {
                levels.push((cur, link));
                cur = coarse;
            }
            None => break,
        }
    }
    (levels, cur)
}

/// One refinement level of the distributed multilevel body, as
/// [`stage_census`] reports it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelStages {
    /// The level's global vertex count.
    pub n: usize,
    /// Moves committed machine-wide by each drain stage, in stage order.
    pub drain: Vec<u64>,
    /// Moves committed machine-wide by each gain stage, in stage order.
    pub gain: Vec<u64>,
}

/// The refinement stages of the distributed multilevel body for `p` over
/// `nranks` ranks, vertices distributed by `owner`: per level, finest
/// first, its vertex count and what each drain and gain stage committed.
/// One level without stages when the body solves the whole problem on rank
/// 0. The partition does not depend on the machine model, so the body runs
/// on a zero-cost session of its own.
pub fn stage_census(p: &Problem, owner: &[u32], nranks: usize) -> Vec<LevelStages> {
    if p.cfg.nparts == 1 || solves_whole(p) {
        let n = p.graph.n();
        return vec![LevelStages {
            n,
            ..LevelStages::default()
        }];
    }
    let lists = RankLists::build(owner, nranks);
    let results = spmd(nranks, MachineModel::zero(), |comm| {
        let mut census = Vec::new();
        multilevel_body(comm, p, &lists, 0.0, Some(&mut census));
        census
    });
    // Every rank runs the same stages (they branch on replicated data), so
    // the machine-wide count of a stage is the sum of the ranks' entries.
    let add = |to: &mut Vec<u64>, from: &[u64]| to.iter_mut().zip(from).for_each(|(t, f)| *t += f);
    let mut ranks = results.into_iter().map(|r| r.value);
    let mut total = ranks.next().expect("at least one rank");
    for census in ranks {
        for (t, level) in total.iter_mut().zip(&census) {
            add(&mut t.drain, &level.drain);
            add(&mut t.gain, &level.gain);
        }
    }
    total.reverse();
    total
}

/// The SPMD body of the distributed multilevel repartitioner (see
/// [`crate::balance_body`] for the calling contract). Each rank reads only
/// its owned rows of the replicated graph plus the replicated
/// [`RankLists`] for routing; a seed partition is diffused from, no seed
/// partitions fresh (e.g. when `nparts` differs from the number of ranks);
/// uniform capacities take the bit-exact unweighted path. `vertex_units`
/// is charged per owned vertex per stage (matching, contraction, each
/// refinement round). Returns the rank's level-0 parts, which
/// [`build_level0`] already numbers in `lists.mine(rank)` order — nothing
/// is reassembled. A `census` gets the rank's [`LevelStages`] of every
/// refinement level, coarsest first.
pub(crate) fn multilevel_body(
    comm: &mut Comm,
    p: &Problem,
    lists: &RankLists,
    vertex_units: f64,
    mut census: Option<&mut Vec<LevelStages>>,
) -> Vec<u32> {
    let (g, cfg) = (p.graph, p.cfg);
    let rank = comm.rank();
    if cfg.nparts == 1 {
        return vec![0; lists.mine(rank).len()];
    }
    if solves_whole(p) {
        return gather_solve(comm, BalanceMethod::Multilevel, p, lists, vertex_units);
    }
    let frac = p.shares().weighted(cfg.nparts);
    let frac = frac.as_deref();

    let level0 = build_level0(rank, g, lists, p.seed);
    charge(comm, level0.local_n(), vertex_units);
    let seeded = p.seed.is_some();
    let (mut levels, mut cur) = coarsen(comm, level0, cfg, seeded, vertex_units);

    // A seeded hierarchy that stopped above the target (where a contraction
    // would keep more than `SEEDED_KEEP`, possibly just above the target)
    // diffuses its seed in parallel: the coarse seed is the coarsest
    // partition, and each rank's seed weights (one visit per
    // owned coarse vertex) ride the first stage exchange as a zero-move
    // commit, folded into `w = 0` before stage 0 reads it. Every other
    // hierarchy goes to rank 0 for the serial kernel and is scattered back.
    // Both inputs of the branch are replicated, so every rank takes the
    // same arm, empty ranks included.
    let stopped_above_target = seeded && cur.global_n() > cfg.coarsen_target();
    let (mut part, mut w, mut pending) = if stopped_above_target {
        charge(comm, cur.local_n(), vertex_units);
        (
            cur.seed.clone(),
            vec![0; cfg.nparts],
            seed_commit(rank, &cur, cfg.nparts),
        )
    } else {
        let (part, w) = coarsest_solve(comm, &cur, cfg, frac, vertex_units);
        (part, w, Commits::new())
    };

    // Uncoarsening with distributed refinement.
    let max_w = part_ceilings(g.total_vwgt(), cfg, frac);
    // A level's last commits ride the next level's first exchange; level
    // 0's are dropped, since nothing reads `w` after it.
    loop {
        let level = levels.len();
        let mut stages = LevelStages {
            n: cur.global_n(),
            ..LevelStages::default()
        };
        pending = refine_distributed(
            comm,
            &cur,
            &mut part,
            &mut w,
            &max_w,
            cfg.seed,
            level,
            cfg.refine_passes,
            vertex_units,
            pending,
            census.is_some().then_some(&mut stages),
        );
        if let Some(c) = census.as_deref_mut() {
            c.push(stages);
        }
        match levels.pop() {
            Some((finer, link)) => {
                part = project_parts(comm, &link, &part, finer.local_n());
                cur = finer;
            }
            None => break,
        }
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{balance_distributed, BalanceMethod, DistPartition};
    use crate::kway::{partition_kway, quality, tests::grid3d};
    use crate::metrics::imbalance_weighted;
    use crate::repart::repartition_kway;
    use plum_parsim::CollectiveKind;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// Stages [`assert_stage_matches_recount`] has checked in sessions
        /// run from this thread (a session's ranks are fibers of it).
        pub(super) static STAGES_CHECKED: Cell<u64> = const { Cell::new(0) };
        /// Heap allocations made on this thread, for counting what a
        /// session's ranks allocate.
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// The system allocator, counting every allocation and reallocation in
    /// [`ALLOCATIONS`] of the thread that makes it.
    struct Counting;

    // SAFETY: every call is forwarded unchanged to `System`.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// The multilevel kernel on its own `p`-rank session.
    fn dist(
        problem: &Problem,
        owner: &[u32],
        p: usize,
        model: MachineModel,
        units: f64,
    ) -> DistPartition {
        balance_distributed(BalanceMethod::Multilevel, problem, owner, p, model, units)
    }

    fn block_owner(n: usize, p: usize) -> Vec<u32> {
        (0..n).map(|v| (v * p / n) as u32).collect()
    }

    #[test]
    fn exact_path_matches_serial_reference_bit_for_bit() {
        let mut g = grid3d(8, 8, 4); // 256 vertices ≤ default target 128? no: force
        let mut cfg = PartitionConfig::new(4);
        cfg.coarsen_to = g.n(); // force the exact-serial path
        let prev = partition_kway(&g, &cfg);
        for v in 0..g.n() {
            if prev[v] == 2 {
                g.vwgt.to_mut()[v] = 5;
            }
        }
        let serial = repartition_kway(&g, &cfg, &prev);
        for p in [2usize, 4, 8] {
            let owner = block_owner(g.n(), p);
            let d = dist(
                &Problem::new(&g, None, None, Some(&prev), &[1.0; 4], &cfg),
                &owner,
                p,
                MachineModel::zero(),
                0.0,
            );
            assert_eq!(d.part, serial, "P={p} exact path diverged");
        }
    }

    #[test]
    fn multilevel_path_is_deterministic_and_balanced() {
        let mut g = grid3d(12, 12, 8); // 1152 vertices > target 128
        let cfg = PartitionConfig::new(8);
        let prev = partition_kway(&g, &cfg);
        for v in 0..g.n() {
            if prev[v] == 0 || prev[v] == 3 {
                g.vwgt.to_mut()[v] = 4;
            }
        }
        let owner: Vec<u32> = prev.clone();
        let run = || {
            dist(
                &Problem::new(&g, None, None, Some(&prev), &[1.0; 8], &cfg),
                &owner,
                8,
                MachineModel::sp2(),
                0.5,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.part, b.part, "distributed repartition not deterministic");
        assert!((a.makespan - b.makespan).abs() < 1e-12);
        let q = quality(&g, &a.part, 8);
        assert!(
            q.imbalance <= cfg.imbalance_tol * 1.10 + 0.02,
            "imbalance {}",
            q.imbalance
        );
        assert!(a.makespan > 0.0, "partitioning must take virtual time");
    }

    /// Every stage of every level hands on the weights a from-scratch
    /// recount gives and the move count a separate sum gives
    /// ([`assert_stage_matches_recount`] runs after every stage exchange of
    /// a test build, including each level's stage 0, which folds the
    /// coarser level's last commits) — through drain stages and gain
    /// stages, at two machine sizes.
    #[test]
    fn carried_weights_and_move_counts_match_the_recount_at_every_stage() {
        for (p, (nx, ny, nz)) in [(8usize, (12, 12, 8)), (64, (16, 16, 8))] {
            let mut g = grid3d(nx, ny, nz);
            let cfg = PartitionConfig::new(p);
            assert!(g.n() > cfg.coarsen_target(), "P={p}: must really coarsen");
            let prev = partition_kway(&g, &cfg);
            for v in 0..g.n() {
                if prev[v].is_multiple_of(5) {
                    g.vwgt.to_mut()[v] = 4;
                }
            }
            STAGES_CHECKED.set(0);
            let caps = vec![1.0; p];
            let problem = Problem::new(&g, None, None, Some(&prev), &caps, &cfg);
            let d = dist(&problem, &prev, p, MachineModel::sp2(), 0.5);
            assert_ne!(d.part, prev, "P={p}: the heavy parts must shed vertices");
            let rank0 = &d.trace.summary().ranks[0];
            let stages = rank0.collective(CollectiveKind::Exscan).calls;
            assert!(stages >= 2, "P={p}: {stages} stages");
            // Every stage exchange folds and is checked: one per proposing
            // stage, plus at most one per level for a stage that exits on
            // an empty fold. A level follows each contraction (one
            // allgather) or is the coarsest.
            let levels = rank0.collective(CollectiveKind::Allgather).calls + 1;
            let checked = STAGES_CHECKED.get();
            assert!(
                (stages..=stages + levels).contains(&checked),
                "P={p}: {checked} stages checked, {stages} proposed, {levels} levels"
            );
        }
    }

    /// The crossover of the sparse wire format: a row touching 3 parts
    /// declares its header and pairs, one touching more than half the parts
    /// declares the dense row — never more than `1 + nparts` words.
    #[test]
    fn sparse_rows_declare_the_shorter_of_pairs_and_dense() {
        let nparts = 64;
        let touching = |n: u32| (0..n).map(|q| (q, 1u64)).collect::<Vec<_>>();
        assert_eq!(row_words(&touching(0), nparts), 1);
        assert_eq!(row_words(&touching(3), nparts), 1 + 6);
        assert_eq!(row_words(&touching(32), nparts), 1 + 64);
        assert_eq!(row_words(&touching(33), nparts), 1 + 64);
        assert_eq!(row_words(&touching(64), nparts), 1 + 64);
    }

    #[test]
    #[should_panic(expected = "delta / weights diverged")]
    fn a_delta_below_zero_panics_instead_of_wrapping() {
        let mut w = vec![10u64, 3, 7];
        apply_delta(&mut w, &[(0, 4), (1, -4)]);
    }

    #[test]
    fn result_is_independent_of_machine_model() {
        let g = grid3d(10, 10, 6);
        let cfg = PartitionConfig::new(4);
        let prev = partition_kway(&g, &cfg);
        let owner = block_owner(g.n(), 4);
        let fast = dist(
            &Problem::new(&g, None, None, Some(&prev), &[1.0; 4], &cfg),
            &owner,
            4,
            MachineModel::zero(),
            0.0,
        );
        let slow = dist(
            &Problem::new(&g, None, None, Some(&prev), &[1.0; 4], &cfg),
            &owner,
            4,
            MachineModel::sp2(),
            3.0,
        );
        assert_eq!(
            fast.part, slow.part,
            "partition must not depend on the cost model"
        );
        assert!(slow.makespan > fast.makespan);
    }

    #[test]
    fn capacity_weighted_multilevel_tracks_fractions() {
        let g = grid3d(12, 12, 8);
        let cfg = PartitionConfig::new(4);
        let prev = partition_kway(&g, &cfg);
        let caps = [2.0, 1.0, 1.0, 1.0];
        let owner = block_owner(g.n(), 4);
        let d = dist(
            &Problem::new(&g, None, None, Some(&prev), &caps, &cfg),
            &owner,
            4,
            MachineModel::zero(),
            0.0,
        );
        let w = weights_of(&g.vwgt, &d.part, 4);
        let eff = imbalance_weighted(&w, &caps);
        assert!(
            eff <= cfg.imbalance_tol * 1.10 + 0.05,
            "capacity-weighted imbalance {eff} (weights {w:?})"
        );
        let share = w[0] as f64 / g.total_vwgt() as f64;
        assert!(
            (share - 0.4).abs() < 0.07,
            "double-capacity part carries {share:.3}, expected ≈0.4"
        );
    }

    /// The local numbering of every level, on a stalled seeded hierarchy and
    /// a completed one at P ∈ {2, 8, 64} (rank 1 owning no vertex when
    /// P > 2): each slot round-trips through its global id, the ghosts are
    /// sorted, unique and never owned, and the send list from rank r to rank
    /// d, read as global ids, is d's ghosts owned by r in d's order — the
    /// order [`DistGraph::ghost_values`] reads an exchange in — and an
    /// exchange declares 4 bytes per entry, the value alone.
    #[test]
    fn every_level_numbers_its_ghosts_once() {
        let g = &grid3d(12, 12, 8);
        for p in [2usize, 8, 64] {
            let prev = partition_kway(g, &PartitionConfig::new(p));
            let owner: Vec<u32> = prev
                .iter()
                .map(|&q| if p > 2 && q == 1 { 0 } else { q })
                .collect();
            let lists = &RankLists::build(&owner, p);
            let completed = PartitionConfig::new(p);
            let mut stalled = completed;
            stalled.coarsen_to = 1;
            for (cfg, seed) in [(stalled, Some(&prev[..])), (completed, None)] {
                let results = spmd(p, MachineModel::zero(), move |comm| {
                    let level0 = build_level0(comm.rank(), g, lists, seed);
                    let (levels, coarsest) = coarsen(comm, level0, &cfg, seed.is_some(), 0.0);
                    let mut all: Vec<DistGraph> = levels.into_iter().map(|(dg, _)| dg).collect();
                    all.push(coarsest);
                    all
                });
                let ranks: Vec<Vec<DistGraph>> = results.into_iter().map(|r| r.value).collect();
                let sizes: Vec<usize> = ranks[0].iter().map(DistGraph::global_n).collect();
                let what = format!("P={p}, hierarchy {sizes:?}");
                let stalls = *sizes.last().unwrap() > cfg.coarsen_target();
                assert_eq!(stalls, cfg.coarsen_to == 1, "{what}");
                assert_eq!(
                    ranks[1][0].local_n() == 0,
                    p > 2,
                    "{what}: rank 1's vertices"
                );
                for level in 0..sizes.len() {
                    for (r, dg) in ranks.iter().map(|levels| &levels[level]).enumerate() {
                        let what = format!("{what}, level {level}, rank {r}");
                        let nloc = dg.local_n();
                        let ghosts = &dg.ghosts;
                        assert!(ghosts.windows(2).all(|w| w[0] < w[1]), "{what}: ghosts");
                        assert!(ghosts.iter().all(|&u| dg.local(u).is_none()), "{what}");
                        for s in 0..(nloc + ghosts.len()) as u32 {
                            let gid = dg.gid(s);
                            let ghost = || nloc + ghosts.binary_search(&gid).expect("a ghost");
                            let back = dg.local(gid).unwrap_or_else(ghost);
                            assert_eq!(back, s as usize, "{what}: slot {s} (gid {gid})");
                        }
                        for d in 0..p {
                            let list = dg.send.lists().find(|&(to, _)| to == d);
                            let list = list.map_or(&[][..], |(_, list)| list);
                            let sent: Vec<u32> = list.iter().map(|&i| dg.gid(i)).collect();
                            let theirs = ranks[d][level].ghosts.iter().copied();
                            let mine: Vec<u32> =
                                theirs.filter(|&u| dg.local(u).is_some()).collect();
                            assert_eq!(sent, mine, "{what}: send list to rank {d}");
                        }
                        // An exchange ships one 4-byte value per list entry.
                        let mut out = dg.send.outbox();
                        dg.fill_ghosts(&mut out, |i| i as u32);
                        let declared: Vec<(usize, u64)> =
                            out.runs().map(|(d, words, _)| (d, words)).collect();
                        let lists = dg.send.lists();
                        let expected: Vec<(usize, u64)> = lists
                            .map(|(d, list)| (d, words_for_bytes(4 * list.len())))
                            .collect();
                        assert_eq!(declared, expected, "{what}: declared words");
                    }
                }
            }
        }
    }

    /// A ring of `p` ranks owning two vertices each (rank r: `2r`, `2r + 1`),
    /// rank r's second vertex joined to rank r + 1's first, plus `hub`
    /// edges from vertex 0 to the second vertex of ranks 1..=hub, so rank 0
    /// borders those ranks and the last one.
    fn ring_with_hub(p: usize, hub: usize) -> (Graph<'static>, RankLists) {
        let n = 2 * p;
        let mut edges = BTreeSet::new();
        for r in 0..p {
            let (a, b) = (2 * r + 1, (2 * r + 2) % n);
            edges.extend([(a, b), (b, a)]);
        }
        for d in 1..=hub {
            edges.extend([(0, 2 * d + 1), (2 * d + 1, 0)]);
        }
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        for v in 0..n {
            adjncy.extend(edges.range((v, 0)..(v + 1, 0)).map(|&(_, u)| u as u32));
            xadj.push(adjncy.len() as u32);
        }
        let owner: Vec<u32> = (0..n).map(|v| (v / 2) as u32).collect();
        (
            Graph::from_csr(xadj, adjncy, vec![1; n]),
            RankLists::build(&owner, p),
        )
    }

    /// A ghost exchange at P = 16 allocates per rank, not per neighbour:
    /// from the first rank leaving a barrier to the last one reading its
    /// ghosts — every rank filling its level's send buffer, the exchange
    /// and the reads — the session allocates the same number of times
    /// whether rank 0 borders 8 ranks or all 15 others, and at most a few
    /// times per rank. (One buffer per destination grew with the hub.)
    #[test]
    fn a_ghost_exchange_allocates_per_rank_not_per_neighbour() {
        const P: usize = 16;
        let window = |hub: usize| {
            let (g, lists) = ring_with_hub(P, hub);
            let (g, lists) = (&g, &lists);
            let results = spmd(P, MachineModel::zero(), move |comm| {
                let dg = build_level0(comm.rank(), g, lists, None);
                let mut out = dg.send.outbox();
                let mut values: Vec<u32> = Vec::with_capacity(dg.ghosts.len());
                comm.barrier();
                let before = ALLOCATIONS.get();
                dg.fill_ghosts(&mut out, |i| i as u32);
                let got = comm.alltoallv_sparse(&mut out);
                values.extend(dg.ghost_values(&got));
                let after = ALLOCATIONS.get();
                (dg.send.peers.len(), before, after)
            });
            let borders = results[0].value.0;
            let ring = usize::from(hub < P - 1);
            assert_eq!(
                borders,
                hub + ring,
                "rank 0 borders the hub and its ring neighbour"
            );
            let first = results.iter().map(|r| r.value.1).min().unwrap();
            let last = results.iter().map(|r| r.value.2).max().unwrap();
            last - first
        };
        let (fan8, fan15) = (window(8), window(15));
        assert!(fan8 <= 6 * P as u64, "{fan8} allocations at P = {P}");
        assert_eq!(fan8, fan15, "allocations grew with the neighbour count");
    }

    /// The debug build's ghost-order check reads the flat delivered buffer:
    /// a send list with two entries swapped delivers its receiver's ghosts
    /// out of order, and the receiver panics.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "ghost exchange out of order")]
    fn a_swapped_send_list_fails_the_ghost_order_check() {
        let p = 4;
        let g = &grid3d(8, 8, 4);
        let lists = &RankLists::build(&block_owner(g.n(), p), p);
        spmd(p, MachineModel::zero(), move |comm| {
            let mut dg = build_level0(comm.rank(), g, lists, None);
            if comm.rank() == 0 {
                let (_, list) = dg.send.lists().next().expect("rank 0 borders a rank");
                assert!(list.len() >= 2, "two entries to swap");
                dg.send.idx.swap(0, 1);
            }
            let mut out = dg.send.outbox();
            dg.fill_ghosts(&mut out, |i| i as u32);
            let got = comm.alltoallv_sparse(&mut out);
            dg.ghost_values(&got).count()
        });
    }

    /// The coarsening rule on the P = 8 fixture. A seeded hierarchy keeps at
    /// most [`SEEDED_KEEP`] of a level at every contraction, and ends at the
    /// target or where the next contraction, tried without a stop, would
    /// keep more — under the default target and under one (256) it reaches
    /// first. Under the default target its levels are pinned: it stops at
    /// 208 vertices, above the target, because 208 → 163 keeps 78 %. A
    /// fresh hierarchy keeps the serial stall guard, [`FRESH_KEEP`]: with no
    /// target (`coarsen_to = 1`) its levels are pinned too.
    #[test]
    fn a_seeded_hierarchy_ends_at_its_first_contraction_keeping_over_three_quarters() {
        let p = 8;
        let g = &grid3d(12, 12, 8);
        let prev = partition_kway(g, &PartitionConfig::new(p));
        let lists = &RankLists::build(&prev, p);
        let caps = vec![1.0; p];
        let default = PartitionConfig::new(p);
        let (mut reaches, mut untargeted) = (default, default);
        reaches.coarsen_to = 256;
        untargeted.coarsen_to = 1;
        let seeded = Some(&prev[..]);
        for (cfg, seed) in [(default, seeded), (reaches, seeded), (untargeted, None)] {
            let problem = Problem::new(g, None, None, seed, &caps, &cfg);
            let census = stage_census(&problem, &prev, p);
            let sizes: Vec<usize> = census.iter().map(|level| level.n).collect();
            let results = spmd(p, MachineModel::zero(), move |comm| {
                let level0 = build_level0(comm.rank(), g, lists, seed);
                let (levels, coarsest) = coarsen(comm, level0, &cfg, seed.is_some(), 0.0);
                let partner = parallel_hem(comm, &coarsest, cfg.seed, levels.len());
                let trial = contract_distributed(comm, &coarsest, &partner, 1.0);
                trial
                    .expect("a contraction keeps at most its level")
                    .0
                    .global_n()
            });
            let trial = results[0].value;
            let what = format!(
                "hierarchy {sizes:?}, then {trial}, seeded {}",
                seed.is_some()
            );
            let keep = keep_share(seed.is_some());
            let kept = |fine: usize, coarse: usize| coarse as f64 <= keep * fine as f64;
            assert!(sizes.windows(2).all(|l| kept(l[0], l[1])), "{what}");
            let last = *sizes.last().unwrap();
            assert!(last <= cfg.coarsen_target() || !kept(last, trial), "{what}");
            if cfg.coarsen_to == 0 {
                assert_eq!(sizes, [1152, 635, 403, 280, 208], "{what}");
            }
            if seed.is_none() {
                let parent = [1152, 635, 403, 280, 208, 163, 135, 116, 105];
                assert_eq!(sizes, parent, "{what}");
            }
        }
    }

    /// The collective census of the rank-0 round trip. A seeded body whose
    /// hierarchy stalls above the target (`coarsen_to = 1`, which no
    /// matching reaches) issues no gather, scatter or broadcast at all;
    /// a fresh body that stalls the same way, and a seeded body whose
    /// hierarchy reaches the target (`coarsen_to = 256`: under the default
    /// 128 the seeded hierarchy stops at 208 vertices, where its next
    /// contraction would keep more than [`SEEDED_KEEP`]), each gather the
    /// coarsest graph once, scatter its parts once and broadcast its
    /// weights once.
    #[test]
    fn only_a_stalled_seeded_hierarchy_skips_the_rank0_solve() {
        let p = 8;
        let mut g = grid3d(12, 12, 8);
        let prev = partition_kway(&g, &PartitionConfig::new(p));
        for v in 0..g.n() {
            if prev[v].is_multiple_of(3) {
                g.vwgt.to_mut()[v] = 4;
            }
        }
        let mut reaches = PartitionConfig::new(p);
        reaches.coarsen_to = 256;
        let mut stalls = reaches;
        stalls.coarsen_to = 1;
        let caps = vec![1.0; p];
        let seeded = Some(&prev[..]);
        for (cfg, seed, calls) in [(stalls, seeded, 0), (stalls, None, 1), (reaches, seeded, 1)] {
            let problem = Problem::new(&g, None, None, seed, &caps, &cfg);
            let census = stage_census(&problem, &prev, p);
            let sizes: Vec<usize> = census.iter().map(|level| level.n).collect();
            let what = format!("hierarchy {sizes:?}, seeded {}", seed.is_some());
            let stalled = *sizes.last().unwrap() > cfg.coarsen_target();
            assert_eq!(stalled, cfg.coarsen_to == 1, "{what}");
            let d = dist(&problem, &prev, p, MachineModel::sp2(), 0.5);
            let summary = d.trace.summary();
            for kind in [
                CollectiveKind::Gather,
                CollectiveKind::Scatter,
                CollectiveKind::Bcast,
            ] {
                for (r, stats) in summary.ranks.iter().enumerate() {
                    let got = stats.collective(kind).calls;
                    assert_eq!(got, calls, "{what}: rank {r} made {got} {kind:?} calls");
                }
            }
            let w = weights_of(&g.vwgt, &d.part, p);
            let imb = imbalance_weighted(&w, &caps);
            assert!(
                imb <= cfg.imbalance_tol * 1.10 + 0.02,
                "{what}: imbalance {imb}"
            );
        }
    }

    /// Four vertices, each heavier than any other part's headroom, seeded
    /// into one part of a stalled hierarchy: the level-0 drain spills them
    /// until their part is over its ceiling by less than one of them,
    /// instead of stalling with all four there at three times its ceiling.
    #[test]
    fn a_level0_drain_spills_vertices_heavier_than_every_headroom() {
        let p = 8;
        let mut g = grid3d(12, 12, 8);
        let prev = partition_kway(&g, &PartitionConfig::new(p));
        let heavy: Vec<usize> = (0..g.n()).filter(|&v| prev[v] == 0).take(4).collect();
        for &v in &heavy {
            g.vwgt.to_mut()[v] = 200;
        }
        let mut cfg = PartitionConfig::new(p);
        cfg.coarsen_to = 1;
        let caps = vec![1.0; p];
        let problem = Problem::new(&g, None, None, Some(&prev), &caps, &cfg);
        let ceiling = part_ceilings(g.total_vwgt(), &cfg, None)[0];
        let w = weights_of(&g.vwgt, &prev, p);
        assert!(
            w[1..].iter().all(|&wq| wq + 200 > ceiling),
            "{w:?} vs {ceiling}"
        );

        let d = dist(&problem, &prev, p, MachineModel::sp2(), 0.5);
        let homes: BTreeSet<u32> = heavy.iter().map(|&v| d.part[v]).collect();
        assert_eq!(homes.len(), 3, "heavy vertices in parts {homes:?}");
        let w = weights_of(&g.vwgt, &d.part, p);
        assert!(
            w.iter().all(|&wq| wq < ceiling + 200),
            "{w:?} against ceiling {ceiling}"
        );
    }

    /// The gain-stage exit, on a stalled seeded hierarchy and on a completed
    /// one (`coarsen_to = 256`, a target the seeded hierarchy reaches before
    /// [`SEEDED_KEEP`] stops it): every level's gain stages end either at
    /// the `refine_passes` budget or at the first stage that commits fewer
    /// than one move per [`GAIN_EXIT_VERTICES`] of the level's vertices
    /// machine-wide, and no earlier gain stage fell below that. Some level
    /// must end early, so the rule is seen to fire.
    #[test]
    fn a_level_ends_at_its_first_gain_stage_under_one_percent() {
        let p = 8;
        let mut g = grid3d(12, 12, 8);
        let prev = partition_kway(&g, &PartitionConfig::new(p));
        for v in 0..g.n() {
            if prev[v].is_multiple_of(3) {
                g.vwgt.to_mut()[v] = 4;
            }
        }
        let mut completed = PartitionConfig::new(p);
        completed.coarsen_to = 256;
        let mut stalled = completed;
        stalled.coarsen_to = 1;
        let caps = vec![1.0; p];
        let mut early = 0;
        for cfg in [stalled, completed] {
            let problem = Problem::new(&g, None, None, Some(&prev), &caps, &cfg);
            let census = stage_census(&problem, &prev, p);
            let sizes: Vec<usize> = census.iter().map(|level| level.n).collect();
            let stalls = *sizes.last().unwrap() > cfg.coarsen_target();
            assert_eq!(stalls, cfg.coarsen_to == 1, "hierarchy {sizes:?}");
            for level in &census {
                let under = |&moves: &u64| GAIN_EXIT_VERTICES * moves < level.n as u64;
                let what = format!("hierarchy {sizes:?}, level {level:?}");
                let (last, before) = level.gain.split_last().expect("a gain stage");
                assert!(
                    !before.iter().any(under),
                    "{what}: ran past a stalled stage"
                );
                let budget = cfg.refine_passes.max(1);
                assert!(level.gain.len() <= budget, "{what}: over the budget");
                assert!(
                    level.gain.len() == budget || under(last),
                    "{what}: ended early"
                );
                early += (level.gain.len() < budget) as usize;
            }
        }
        assert!(early > 0, "no level ended before its budget");
    }

    #[test]
    fn fresh_partition_without_prev_is_valid() {
        let g = grid3d(12, 12, 8);
        let cfg = PartitionConfig::new(6);
        let owner = block_owner(g.n(), 3);
        let d = dist(
            &Problem::new(&g, None, None, None, &[1.0; 6], &cfg),
            &owner,
            3,
            MachineModel::zero(),
            0.0,
        );
        assert_eq!(d.part.len(), g.n());
        assert!(d.part.iter().all(|&p| (p as usize) < 6));
        let w = weights_of(&g.vwgt, &d.part, 6);
        assert!(w.iter().all(|&x| x > 0), "empty part in {w:?}");
    }
}
