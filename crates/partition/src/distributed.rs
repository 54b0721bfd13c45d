//! Distributed multilevel k-way repartitioning inside the SPMD simulator.
//!
//! This is the "parallel MeTiS" of §4.2 run for real: every rank owns a
//! contiguous block of dual-graph rows, coarsening proceeds by rounds of
//! parallel heavy-edge matching with cross-rank match negotiation over the
//! simulator's typed channels, the coarsest graph gets a partition, and the
//! result is refined in parallel during uncoarsening with boundary-greedy
//! moves against global part weights that arrive once, with the coarsest
//! partition, and are carried from stage to stage: a stage
//! exchanges ghost parts and scans its sparse demand, and what it committed
//! — the move count and the signed weight change per touched part — rides
//! the next stage's exchange, so its traffic costs what it changes, not
//! `nparts`. Since a stage costs an exchange and a scan however little it
//! moves, a level's gain stages stop at the first one that commits fewer
//! than one move per 100 of the level's vertices machine-wide, with the
//! configured pass count as the cap. All control flow branches on
//! replicated data only, so the
//! partition is a deterministic function of `(problem, ownership)` —
//! independent of the machine model, chaos perturbations, and link jitter.
//! Virtual time, by
//! contrast, comes entirely from real message traffic plus per-vertex
//! compute charges, which is what the engine reports as the partition phase.
//! A rank ends holding the parts of its own vertices only: the coarsest
//! partition starts from each rank's slice, and uncoarsening ends at the
//! level-0 numbering, which is the rank's list.
//!
//! The coarsest partition comes from rank 0 only where the hierarchy needs
//! it. A fresh problem, or a seeded one whose matching reached the
//! coarsening target (`max(128, 16·nparts)` vertices by default), is
//! gathered to rank 0, partitioned with the serial kernels ([`crate::kway`],
//! [`crate::repart`]) and scattered back with its part weights broadcast.
//! A seeded problem whose matching stalled above the target still has many
//! coarse vertices per part, and rank 0's serial solve would cost in
//! proportion to all of them while every other rank waits: its coarsest
//! partition is the coarse seed, and the refinement stages diffuse it in
//! parallel, with no gather, scatter or broadcast.
//!
//! Graphs at or below the configured coarsening target, and every
//! two-constraint problem, skip the multilevel machinery: the rank-local
//! weights (and previous parts) are gathered to rank 0, which runs the
//! serial kernel on the original vertex numbering and scatters every rank
//! the parts of its vertices — bit-identical to the host-side reference,
//! which is the determinism anchor of the differential test battery.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use plum_parsim::{spmd, words_for_bytes, Comm, MachineModel};

use crate::balance::{multilevel, Problem, RankLists};
use crate::graph::Graph;
use crate::kway::{
    capacity_fractions, part_ceilings, partition_kway_impl, rel_lt, PartitionConfig,
};
use crate::metrics::weights_of;
use crate::repart::repartition_diffuse;
use crate::rng::Rng;
use crate::weights::Weights;

/// Sparse alltoallv send list: `(destination, words, (u32, u32) payload)`.
type PairItems = Vec<(usize, u64, Vec<(u32, u32)>)>;

/// The commits of one refinement stage, ascending by rank: `(rank, (moves,
/// Δw))` for each rank that moved a vertex — the committed move count and
/// the signed weight change per touched part. One [`Arc`] per commit, so the
/// exchange rounds that join them forward pointers.
type Commits = Vec<(u32, Arc<(u64, Vec<(u32, i64)>)>)>;

/// Multiplier on `vertex_units` for a serial solve on rank 0: one
/// multilevel pass over each vertex of the graph it holds — a completed
/// hierarchy's coarsest graph (at most the coarsening target), or the whole
/// input on the gather-solve path. A stalled seeded hierarchy (4 169 coarse
/// vertices on the paper-scale dual graph at P = 64) is not solved there.
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

/// One level of the distributed graph: rank `r` owns the contiguous global
/// ids `off[r]..off[r+1]` and stores their CSR rows with *global* neighbour
/// ids. Replicating only the `P+1`-entry `off` array is enough to route any
/// vertex to its owner.
#[derive(Debug, Clone)]
pub(crate) struct DistGraph {
    /// Ownership offsets, `P + 1` entries, replicated on every rank.
    pub(crate) off: Vec<u32>,
    /// Local row offsets (`local_n + 1` entries).
    pub(crate) xadj: Vec<u32>,
    /// Neighbour ids (global numbering).
    pub(crate) adjncy: Vec<u32>,
    /// Edge weights, parallel to `adjncy`.
    pub(crate) adjwgt: Vec<u32>,
    /// Vertex weights of the owned block.
    pub(crate) vwgt: Vec<u64>,
    /// Seed part of each owned vertex (empty when partitioning fresh).
    pub(crate) seed: Vec<u32>,
}

impl DistGraph {
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

    /// Neighbours of local vertex `i` as `(global id, edge weight)`.
    pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.xadj[i] as usize;
        let hi = self.xadj[i + 1] as usize;
        self.adjncy[lo..hi]
            .iter()
            .copied()
            .zip(self.adjwgt[lo..hi].iter().copied())
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
    proj_out: Vec<Vec<u32>>,
    /// Per source rank: local fine indices receiving those parts, in the
    /// matching order.
    proj_in: Vec<Vec<u32>>,
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
    let mut xadj = vec![0u32];
    let mut adjncy = Vec::new();
    let mut adjwgt = Vec::new();
    let mut vwgt = Vec::new();
    let mut seed = Vec::new();
    for &v in lists.mine(rank) {
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
    DistGraph {
        off: lists.off.clone(),
        xadj,
        adjncy,
        adjwgt,
        vwgt,
        seed,
    }
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
    let p = comm.nranks();
    let rank = comm.rank();
    let base = dg.off[rank];
    let nloc = dg.local_n();

    let mut partner: Vec<u32> = (0..nloc as u32).map(|i| base + i).collect();
    let mut state = vec![FREE; nloc];
    let mut my_prop = vec![u32::MAX; nloc];

    let mut order: Vec<u32> = (0..nloc as u32).collect();
    stage_rng(seed, level, 0, rank).shuffle(&mut order);

    // Local pass: match local pairs, queue proposals for remote best mates.
    let mut props: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); p]; // (target, from, w)
    for &iv in &order {
        let i = iv as usize;
        if state[i] != FREE {
            continue;
        }
        let gid = base + i as u32;
        let mut best: Option<(u32, u32)> = None; // (weight, neighbour gid)
        for (u, w) in dg.row(i) {
            let local = u >= base && u < base + nloc as u32;
            if local && state[(u - base) as usize] != FREE {
                continue;
            }
            if best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, u));
            }
        }
        match best {
            None => {}
            Some((w, u)) => {
                if u >= base && u < base + nloc as u32 {
                    let j = (u - base) as usize;
                    partner[i] = u;
                    partner[j] = gid;
                    state[i] = MATCHED;
                    state[j] = MATCHED;
                } else {
                    state[i] = PENDING;
                    my_prop[i] = u;
                    props[dg.owner_of(u)].push((u, gid, w));
                }
            }
        }
    }

    // Negotiate: proposals out, grants computed at the target's owner.
    #[allow(clippy::type_complexity)]
    let items: Vec<(usize, u64, Vec<(u32, u32, u32)>)> = props
        .into_iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(dst, v)| (dst, words_for_bytes(12 * v.len()), v))
        .collect();
    let incoming = comm.alltoallv_sparse(items);
    let mut all: Vec<(u32, u32, u32)> = incoming.into_iter().flat_map(|(_, v)| v).collect();
    all.sort_unstable_by_key(|&(t, f, w)| (t, std::cmp::Reverse(w), f));
    let mut resp: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p]; // (from, accepted)
    for (t, f, _w) in all {
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
        resp[dg.owner_of(f)].push((f, accept as u32));
    }
    let items: PairItems = resp
        .into_iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(dst, v)| (dst, words_for_bytes(8 * v.len()), v))
        .collect();
    for (_src, list) in comm.alltoallv_sparse(items) {
        for (f, accepted) in list {
            let i = (f - base) as usize;
            if accepted == 1 {
                partner[i] = my_prop[i];
                state[i] = MATCHED;
            } else if state[i] == PENDING {
                state[i] = FREE; // singleton this level
            }
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
/// ghost coarse-map entries to neighbouring ranks, and relabelled rows of
/// cross-rank non-representatives to the representative's owner. Returns
/// `None` when matching stalled (< 5% global reduction), mirroring the
/// serial stall guard; the decision replicates on every rank because it is
/// made from the allgathered coarse counts.
pub(crate) fn contract_distributed(
    comm: &mut Comm,
    dg: &DistGraph,
    partner: &[u32],
) -> Option<(DistGraph, LevelLink)> {
    let p = comm.nranks();
    let rank = comm.rank();
    let base = dg.off[rank];
    let nloc = dg.local_n();

    // Representatives, in increasing fine gid order.
    let mut cmap_local = vec![u32::MAX; nloc];
    let mut reps: Vec<u32> = Vec::new();
    for i in 0..nloc {
        let gid = base + i as u32;
        if partner[i] == gid || gid < partner[i] {
            cmap_local[i] = reps.len() as u32;
            reps.push(i as u32);
        }
    }
    for &ri in &reps {
        let i = ri as usize;
        let m = partner[i];
        if m != base + i as u32 && m >= base && m < base + nloc as u32 {
            cmap_local[(m - base) as usize] = cmap_local[i];
        }
    }

    // Global coarse numbering: contiguous per rank.
    let counts = comm.allgather(1, reps.len() as u64);
    let mut coff = vec![0u32; p + 1];
    for r in 0..p {
        coff[r + 1] = coff[r] + counts[r] as u32;
    }
    if coff[p] as f64 > dg.global_n() as f64 * 0.95 {
        return None; // matching stalled; keep the current level as coarsest
    }
    let cbase = coff[rank];

    // Round A: representatives tell cross-rank partners their coarse gid.
    let mut a_out: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p]; // (partner gid, coarse gid)
    for (c, &ri) in reps.iter().enumerate() {
        let i = ri as usize;
        let m = partner[i];
        if m != base + i as u32 && !(m >= base && m < base + nloc as u32) {
            a_out[dg.owner_of(m)].push((m, cbase + c as u32));
        }
    }
    for bucket in &mut a_out {
        bucket.sort_unstable(); // sender order == receiver's own gid order
    }
    let proj_out: Vec<Vec<u32>> = a_out
        .iter()
        .map(|b| b.iter().map(|&(_, cg)| cg - cbase).collect())
        .collect();
    let items: PairItems = a_out
        .into_iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(dst, v)| (dst, words_for_bytes(8 * v.len()), v))
        .collect();
    let a_in = comm.alltoallv_sparse(items);

    // Global coarse gid of every owned fine vertex.
    let mut coarse_of = vec![u32::MAX; nloc];
    for i in 0..nloc {
        if cmap_local[i] != u32::MAX {
            coarse_of[i] = cbase + cmap_local[i];
        }
    }
    let mut proj_in: Vec<Vec<u32>> = vec![Vec::new(); p];
    for (s, list) in &a_in {
        for &(gid, cg) in list {
            let i = (gid - base) as usize;
            coarse_of[i] = cg;
            proj_in[*s].push(i as u32);
        }
    }

    // Round B: ghost coarse-map exchange — each rank sends (fine gid, coarse
    // gid) of its owned vertices bordering rank d, to d.
    let mut b_out: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p];
    let mut mark = vec![u32::MAX; p];
    for i in 0..nloc {
        for (u, _) in dg.row(i) {
            if u >= base && u < base + nloc as u32 {
                continue;
            }
            let o = dg.owner_of(u);
            if mark[o] != i as u32 {
                mark[o] = i as u32;
                b_out[o].push((base + i as u32, coarse_of[i]));
            }
        }
    }
    let items: PairItems = b_out
        .into_iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(dst, v)| (dst, words_for_bytes(8 * v.len()), v))
        .collect();
    let b_in = comm.alltoallv_sparse(items);
    let mut ghost: HashMap<u32, u32> = HashMap::new();
    for (_src, list) in &b_in {
        for &(gid, cg) in list {
            ghost.insert(gid, cg);
        }
    }
    let coarse_gid_of = |u: u32, coarse_of: &[u32]| -> u32 {
        if u >= base && u < base + nloc as u32 {
            coarse_of[(u - base) as usize]
        } else {
            ghost[&u]
        }
    };

    // Round C: cross-rank non-representatives ship their relabelled rows
    // (plus vertex weight) to the representative's owner.
    type RowMsg = (u32, u64, Vec<(u32, u32)>); // (coarse gid, vwgt, entries)
    let mut c_out: Vec<Vec<RowMsg>> = vec![Vec::new(); p];
    let mut c_bytes = vec![0usize; p];
    for i in 0..nloc {
        if cmap_local[i] != u32::MAX {
            continue; // representative or locally paired
        }
        let cg = coarse_of[i];
        let dest = coff[1..].partition_point(|&o| o <= cg);
        let mut row: Vec<(u32, u32)> = Vec::new();
        for (u, w) in dg.row(i) {
            let cu = coarse_gid_of(u, &coarse_of);
            if cu != cg {
                row.push((cu, w));
            }
        }
        c_bytes[dest] += 12 + 8 * row.len();
        c_out[dest].push((cg, dg.vwgt[i], row));
    }
    let items: Vec<(usize, u64, Vec<RowMsg>)> = c_out
        .into_iter()
        .zip(&c_bytes)
        .enumerate()
        .filter(|(_, (v, _))| !v.is_empty())
        .map(|(dst, (v, &b))| (dst, words_for_bytes(b), v))
        .collect();
    let c_in = comm.alltoallv_sparse(items);
    let ncoarse = reps.len();
    let mut shipped: Vec<Vec<(u32, u32)>> = vec![Vec::new(); ncoarse];
    let mut shipped_w = vec![0u64; ncoarse];
    for (_src, list) in c_in {
        for (cg, vw, row) in list {
            let c = (cg - cbase) as usize;
            shipped_w[c] += vw;
            shipped[c].extend(row);
        }
    }

    // Assemble the coarse CSR: representative row + partner row (local or
    // shipped), relabelled, sorted, duplicate entries merged.
    let mut cxadj = vec![0u32];
    let mut cadjncy = Vec::new();
    let mut cadjwgt = Vec::new();
    let mut cvwgt = Vec::with_capacity(ncoarse);
    let mut cseed = Vec::new();
    let mut buf: Vec<(u32, u32)> = Vec::new();
    for (c, &ri) in reps.iter().enumerate() {
        let i = ri as usize;
        let cg = cbase + c as u32;
        buf.clear();
        for (u, w) in dg.row(i) {
            let cu = coarse_gid_of(u, &coarse_of);
            if cu != cg {
                buf.push((cu, w));
            }
        }
        let mut vw = dg.vwgt[i];
        let m = partner[i];
        if m != base + i as u32 {
            if m >= base && m < base + nloc as u32 {
                let j = (m - base) as usize;
                for (u, w) in dg.row(j) {
                    let cu = coarse_gid_of(u, &coarse_of);
                    if cu != cg {
                        buf.push((cu, w));
                    }
                }
                vw += dg.vwgt[j];
            } else {
                buf.extend(shipped[c].iter().copied());
                vw += shipped_w[c];
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

    let coarse = DistGraph {
        off: coff,
        xadj: cxadj,
        adjncy: cadjncy,
        adjwgt: cadjwgt,
        vwgt: cvwgt,
        seed: cseed,
    };
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

/// Gather the coarsest graph's CSR rows to rank 0 (rows concatenate in rank
/// order because global ids are contiguous per rank), solve serially there,
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
        dg.adjncy.clone(),
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
    let row = nonzeros(&w);
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
fn project_parts(
    comm: &mut Comm,
    link: &LevelLink,
    coarse_part: &[u32],
    fine_nloc: usize,
) -> Vec<u32> {
    let items: Vec<(usize, u64, Vec<u32>)> = link
        .proj_out
        .iter()
        .enumerate()
        .filter(|(_, list)| !list.is_empty())
        .map(|(dst, list)| {
            let vals: Vec<u32> = list.iter().map(|&c| coarse_part[c as usize]).collect();
            (dst, words_for_bytes(4 * vals.len()), vals)
        })
        .collect();
    let incoming = comm.alltoallv_sparse(items);
    let mut part = vec![0u32; fine_nloc];
    for (i, &c) in link.cmap_local.iter().enumerate() {
        if c != u32::MAX {
            part[i] = coarse_part[c as usize];
        }
    }
    for (s, vals) in &incoming {
        for (k, &pv) in vals.iter().enumerate() {
            part[link.proj_in[*s][k] as usize] = pv;
        }
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
/// exchange and one scan: exchange ghost parts with neighbouring ranks,
/// propose moves locally against the carried global part weights `w`, and
/// commit them under a per-rank inflow quota computed from an exclusive scan
/// of the per-part demand — each part's headroom is granted in rank order,
/// so the ceilings can never be exceeded even though ranks move vertices
/// concurrently. What a rank committed, `(moves, Δw)` — the move count and
/// the signed weight change per touched part — rides the next stage's
/// exchange ([`Comm::alltoallv_sparse_join`], a rank-sorted union), and every
/// rank folds the commits in rank order and applies `w += Δw` before it
/// reads `w` again. The exit tests read that fold, so they run just after
/// the exchange. A level that ends on its stage cap or its gain budget
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
/// then do the positive-gain stages run. The mode is decided from the
/// replicated weights, so every rank agrees on it. The `passes` gain stages
/// are a cap: the level ends at the first gain stage that commits fewer than
/// one move per [`GAIN_EXIT_VERTICES`] of its vertices machine-wide — a
/// replicated count, so every rank ends at the same stage.
///
/// With a `census`, each stage appends this rank's committed moves to its
/// drain or gain list.
#[allow(clippy::too_many_arguments)]
fn refine_distributed(
    comm: &mut Comm,
    dg: &DistGraph,
    part: &mut [u32],
    w: &mut [u64],
    max_w: &[u64],
    seed: u64,
    level: usize,
    passes: usize,
    vertex_units: f64,
    pending: Commits,
    mut census: Option<&mut LevelStages>,
) -> Commits {
    let p = comm.nranks();
    let rank = comm.rank();
    let base = dg.off[rank];
    let nloc = dg.local_n();
    let nparts = max_w.len();

    // Boundary send lists: owned vertices adjacent to each other rank.
    let owned = |u: u32| u >= base && u < base + nloc as u32;
    let mut nbr_out: Vec<Vec<u32>> = vec![Vec::new(); p];
    let mut mark = vec![u32::MAX; p];
    for i in 0..nloc {
        for (u, _) in dg.row(i) {
            if owned(u) {
                continue;
            }
            let o = dg.owner_of(u);
            if mark[o] != i as u32 {
                mark[o] = i as u32;
                nbr_out[o].push(i as u32);
            }
        }
    }
    // The level's slot table: its ghosts (non-owned neighbours, ascending by
    // gid) and the adjacency translated to slots — `i` for owned vertex `i`,
    // `nloc + k` for ghost `k` — so a stage reads a neighbour's part from
    // `part` or from the dense `ghost_part` it fills off its exchange.
    let mut ghosts: Vec<u32> = dg.adjncy.iter().copied().filter(|&u| !owned(u)).collect();
    ghosts.sort_unstable();
    ghosts.dedup();
    let ghost_slot = |u: u32| ghosts.binary_search(&u).expect("a ghost of this level");
    let slots: Vec<u32> = dg
        .adjncy
        .iter()
        .map(|&u| {
            if owned(u) {
                u - base
            } else {
                (nloc + ghost_slot(u)) as u32
            }
        })
        .collect();
    let mut ghost_part = vec![u32::MAX; ghosts.len()];

    let gain_stages = passes.max(1);
    let stage_cap = gain_stages + MAX_BALANCE_STAGES;
    let mut gain_done = 0usize;
    let mut balance_dead = false;
    // The previous stage's mode, and this rank's commit of it (empty when it
    // moved nothing), which rides the next exchange.
    let mut prev_balance = false;
    let mut mine: Commits = pending;
    for stage in 0..stage_cap {
        if gain_done >= gain_stages {
            break;
        }

        // Ghost part exchange, joining the previous stage's commits.
        let items: PairItems = nbr_out
            .iter()
            .enumerate()
            .filter(|(_, list)| !list.is_empty())
            .map(|(dst, list)| {
                let vals: Vec<(u32, u32)> =
                    list.iter().map(|&i| (base + i, part[i as usize])).collect();
                (dst, words_for_bytes(8 * vals.len()), vals)
            })
            .collect();
        #[cfg(test)]
        let my_moves = mine.first().map_or(0, |(_, c)| c.0);
        let (incoming, commits) = comm.alltoallv_sparse_join(
            items,
            std::mem::take(&mut mine),
            |c| commit_words(c, nparts),
            |a, b| merge_rows(&a, &b, |x, _| Some(Arc::clone(x))),
        );
        // The previous stage's reduction, folded in rank order: how many
        // moves were committed anywhere (the loop's exit test) and what they
        // did to the part weights.
        let all_moves: u64 = commits.iter().map(|(_, c)| c.0).sum();
        let all_delta = commits
            .iter()
            .fold(Vec::new(), |acc, (_, c)| merge_delta(&acc, &c.1));
        apply_delta(w, &all_delta);
        #[cfg(test)]
        assert_stage_matches_recount(comm, dg, part, w, my_moves, all_moves);
        if stage > 0 {
            if prev_balance {
                // The drain is stuck (no vertex fits anywhere better);
                // switch to gain stages rather than spinning.
                balance_dead |= all_moves == 0;
            } else if GAIN_EXIT_VERTICES * all_moves < dg.global_n() as u64 {
                break;
            }
        }
        charge(comm, nloc, vertex_units);
        for (gid, pv) in incoming.into_iter().flat_map(|(_, list)| list) {
            ghost_part[ghost_slot(gid)] = pv;
        }
        let part_of = |s: u32, part: &[u32]| -> u32 {
            match s.checked_sub(nloc as u32) {
                None => part[s as usize],
                Some(k) => ghost_part[k as usize],
            }
        };
        let row = |i: usize| {
            let (lo, hi) = (dg.xadj[i] as usize, dg.xadj[i + 1] as usize);
            slots[lo..hi]
                .iter()
                .copied()
                .zip(dg.adjwgt[lo..hi].iter().copied())
        };

        let balance_mode = !balance_dead && (0..nparts).any(|q| w[q] > max_w[q]);
        if !balance_mode {
            gain_done += 1;
        }

        // Propose moves against tentative weights.
        let mut order: Vec<u32> = (0..nloc as u32).collect();
        stage_rng(seed, level, 16 + stage as u64, rank).shuffle(&mut order);
        let mut wt = w.to_vec();
        let mut conn = vec![0i64; nparts];
        let mut touched: Vec<u32> = Vec::new();
        let mut proposals: Vec<(u32, u32)> = Vec::new(); // (local idx, to)
        let mut desired = vec![0u64; nparts];
        if balance_mode {
            // Drain overweight parts: best relatively-lighter neighbouring
            // part by connectivity, falling back to the relatively lightest
            // part overall so interior vertices cannot deadlock the drain.
            for &iv in &order {
                let i = iv as usize;
                let cur = part[i] as usize;
                if wt[cur] <= max_w[cur] {
                    continue;
                }
                let vw = dg.vwgt[i];
                let mut best: Option<(i64, usize)> = None;
                for (u, ew) in row(i) {
                    let q = part_of(u, part) as usize;
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
                            continue;
                        }
                        lightest
                    }
                };
                wt[cur] -= vw;
                wt[to] += vw;
                desired[to] += vw;
                proposals.push((i as u32, to as u32));
            }
        } else {
            // Positive-gain boundary moves.
            for &iv in &order {
                let i = iv as usize;
                let cur = part[i] as usize;
                touched.clear();
                let mut boundary = false;
                for (u, ew) in row(i) {
                    let q = part_of(u, part) as usize;
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
                        proposals.push((i as u32, q as u32));
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
        // allocation is conservative and the ceilings hold unconditionally.
        let demand = nonzeros(&desired);
        let below = comm.exscan(
            |row| row_words(row, nparts),
            demand.clone(),
            |a, b| merge_add(a, b),
        );
        let mut quota = inflow_quota(below.as_deref().unwrap_or(&[]), &demand, max_w, w);

        // Commit in proposal order while quota lasts.
        let mut moves = 0u64;
        let mut delta = vec![0i64; nparts];
        for &(iv, to) in &proposals {
            let i = iv as usize;
            let vw = dg.vwgt[i];
            if quota[to as usize] >= vw {
                quota[to as usize] -= vw;
                let vw = i64::try_from(vw).expect("vertex weight fits i64");
                delta[part[i] as usize] -= vw;
                delta[to as usize] += vw;
                part[i] = to;
                moves += 1;
            }
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
        if moves > 0 {
            mine.push((rank as u32, Arc::new((moves, nonzeros(&delta)))));
        }
    }
    mine
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
fn nonzeros<V: Copy + Default + PartialEq>(dense: &[V]) -> Vec<(u32, V)> {
    let entries = dense.iter().enumerate();
    let kept = entries.filter(|&(_, v)| *v != V::default());
    kept.map(|(q, &v)| (q as u32, v)).collect()
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

/// Sum of two sparse signed weight-change rows (`(part, Δ)` ascending by
/// part, no zero entries): folds a stage's commits. A part whose changes
/// cancel leaves the row — a stored zero would make the sum depend on how it
/// was associated.
pub(crate) fn merge_delta(a: &[(u32, i64)], b: &[(u32, i64)]) -> Vec<(u32, i64)> {
    merge_rows(a, b, |x, y| {
        let sum = x.checked_add(*y).expect("weight delta overflows i64");
        (sum != 0).then_some(sum)
    })
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

/// Gather the owned `(w1, w2, seed)` rows to rank 0, run the serial
/// multilevel kernel there on the original vertex numbering, and scatter
/// every rank the parts of the vertices it owns, in `lists.mine(rank)`
/// order. Bit-identical to the host-side serial reference. Serves graphs at
/// or below the coarsening target and the whole two-constraint path: the
/// dual graph the engine balances is the root-element graph, which is at the
/// scale this path already serves, and the gather and scatter cost real
/// collective traffic either way.
fn gather_solve(comm: &mut Comm, p: &Problem, lists: &RankLists, vertex_units: f64) -> Vec<u32> {
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
        let w = Weights::new(&host.vwgt, w2_full.as_deref());
        let part = multilevel(&host, w, p.cfg, prev_full.as_deref(), p.caps);
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

/// Coarsening: parallel HEM plus negotiated contraction, level by level,
/// until the graph is at the target or matching stalls. Returns every finer
/// level, finest first, with its link to the next, and the coarsest graph.
fn coarsen(
    comm: &mut Comm,
    mut cur: DistGraph,
    cfg: &PartitionConfig,
    vertex_units: f64,
) -> (Vec<(DistGraph, LevelLink)>, DistGraph) {
    let mut levels = Vec::new();
    while cur.global_n() > cfg.coarsen_target() {
        charge(comm, cur.local_n(), vertex_units);
        let partner = parallel_hem(comm, &cur, cfg.seed, levels.len());
        charge(comm, cur.local_n(), vertex_units);
        match contract_distributed(comm, &cur, &partner) {
            Some((coarse, link)) => {
                levels.push((cur, link));
                cur = coarse;
            }
            None => break,
        }
    }
    (levels, cur)
}

/// The global vertex count of every level the distributed multilevel body
/// works on for `p` over `nranks` ranks, vertices distributed by `owner`:
/// finest first, one entry when the body solves the whole problem on rank
/// 0. A last entry above [`PartitionConfig::coarsen_target`] means matching
/// stalled. The levels of [`stage_census`].
pub fn hierarchy_sizes(p: &Problem, owner: &[u32], nranks: usize) -> Vec<usize> {
    let census = stage_census(p, owner, nranks);
    census.iter().map(|level| level.n).collect()
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
        return gather_solve(comm, p, lists, vertex_units);
    }
    let frac = capacity_fractions(p.caps, cfg.nparts);
    let frac = frac.as_deref();

    let level0 = build_level0(rank, g, lists, p.seed);
    charge(comm, level0.local_n(), vertex_units);
    let (mut levels, mut cur) = coarsen(comm, level0, cfg, vertex_units);

    // A seeded hierarchy that stalled above the target still has many
    // vertices per part, enough for the parallel drain: the coarse seed is
    // the coarsest partition, and each rank's seed weights (one visit per
    // owned coarse vertex) ride the first stage exchange as a zero-move
    // commit, folded into `w = 0` before stage 0 reads it. Every other
    // hierarchy goes to rank 0 for the serial kernel and is scattered back.
    // Both inputs of the branch are replicated, so every rank takes the
    // same arm, empty ranks included.
    let stalled = p.seed.is_some() && cur.global_n() > cfg.coarsen_target();
    let (mut part, mut w, mut pending) = if stalled {
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
    use std::cell::Cell;

    thread_local! {
        /// Stages [`assert_stage_matches_recount`] has checked in sessions
        /// run from this thread (a session's ranks are fibers of it).
        pub(super) static STAGES_CHECKED: Cell<u64> = const { Cell::new(0) };
    }

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

    /// The collective census of the rank-0 round trip. A seeded body whose
    /// hierarchy stalls above the target (`coarsen_to = 1`, which no
    /// matching reaches) issues no gather, scatter or broadcast at all;
    /// a fresh body that stalls the same way, and a seeded body whose
    /// hierarchy reaches the target, each gather the coarsest graph once,
    /// scatter its parts once and broadcast its weights once.
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
        let reaches = PartitionConfig::new(p);
        let mut stalls = reaches;
        stalls.coarsen_to = 1;
        let caps = vec![1.0; p];
        let seeded = Some(&prev[..]);
        for (cfg, seed, calls) in [(stalls, seeded, 0), (stalls, None, 1), (reaches, seeded, 1)] {
            let problem = Problem::new(&g, None, None, seed, &caps, &cfg);
            let sizes = hierarchy_sizes(&problem, &prev, p);
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

    /// The gain-stage exit, on a stalled seeded hierarchy and on a completed
    /// one: every level's gain stages end either at the `refine_passes`
    /// budget or at the first stage that commits fewer than one move per
    /// [`GAIN_EXIT_VERTICES`] of the level's vertices machine-wide, and no
    /// earlier gain stage fell below that. Some level must end early, so
    /// the rule is seen to fire.
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
        let completed = PartitionConfig::new(p);
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
