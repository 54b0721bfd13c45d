//! The balancer portfolio behind one call shape: a borrowed [`Problem`] in,
//! a partition out — serially ([`balance`]: reference path, host hoist, test
//! oracle), as an SPMD body inside a running session ([`balance_body`]), or
//! on a session of its own ([`balance_distributed`]). The method is a value
//! ([`BalanceMethod`]), and [`balance`] is the one place that maps it to a
//! kernel.
//!
//! Contract of the SPMD bodies: all control flow branches on replicated
//! data only, so the partition is a deterministic function of the problem —
//! bit-identical under every machine model, chaos perturbation and link
//! jitter; virtual time comes from per-vertex compute charges and real
//! message traffic. A body finds its vertices in its rank's list of the
//! [`RankLists`], never by scanning a replicated owner array, and returns
//! the new parts of those vertices only: per-rank host work, and what a
//! rank receives, stay proportional to what the rank owns.

use plum_parsim::{makespan, spmd, words_for_bytes, Comm, MachineModel, TraceLog};

use crate::diffusion2::diffusion2_balance;
use crate::distributed::{charge, multilevel_body};
use crate::graph::Graph;
use crate::knapsack::knapsack_partition;
use crate::kway::{
    capacity_fractions, combined_view, dual_repair, partition_kway_impl, PartitionConfig,
};
use crate::metrics::weights_of;
use crate::repart::{repartition_diffuse, repartition_kway_impl};
use crate::sfc::{sfc_diffuse, sfc_partition};
use crate::voronoi::voronoi;
use crate::weights::Weights;

/// The methods of the portfolio.
///
/// They span the spectrum production AMR stacks use: the paper's multilevel
/// diffusive repartitioner for heavy, locality-sensitive rebalances; a full
/// SFC split when geometry suffices; SFC boundary diffusion when the
/// imbalance is mild enough that shifting a few range boundaries repairs it
/// (Cubism's rule); LPT knapsack packing for the extreme-imbalance,
/// locality-insensitive regime (AMReX's `makeKnapSack`); plus the two
/// classical local schemes the paper rematches against: second-order
/// diffusion over the rank-adjacency graph and Voronoi cell-growth on the
/// SFC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceMethod {
    /// Multilevel diffusive graph repartitioning (the paper's §4.2 kernel);
    /// partitions fresh without a seed. The one genuinely distributed body.
    Multilevel,
    /// 1D-SFC boundary diffusion from the seed partition. Needs keys and a
    /// seed.
    SfcDiffusion,
    /// Full SFC key-sort/split into capacity-weighted contiguous ranges.
    /// Needs keys.
    Sfc,
    /// LPT greedy knapsack packing by weight alone.
    Knapsack,
    /// Second-order (Chebyshev-accelerated) diffusion over the
    /// rank-adjacency graph. Needs a seed.
    Diffusion2,
    /// Voronoi / centroid-shift balancing in SFC key space, from the seed
    /// when there is one. Needs keys.
    Voronoi,
}

/// What distinguishes the SPMD bodies of the five methods whose arithmetic
/// is replicated: the partition itself is computed once on the host, and
/// every rank charges its local share and runs the exchange tail.
struct ReplicatedBody {
    /// A rank charges `ceil(owned / charge_div)` vertex visits: a full key
    /// sort or assignment scan visits every vertex, boundary sweeps a
    /// fraction.
    charge_div: usize,
    /// Only vertices that left their seed part cost wire traffic.
    moved_only: bool,
    /// Bytes per shipped item under one / two constraints: a (key, id,
    /// weight[, weight2]) tuple, or knapsack's keyless (id, weight[,
    /// weight2]).
    item_bytes: [usize; 2],
}

/// Bytes of one `(part, weight[, weight2])` entry of a rank's weight row
/// under one / two constraints.
const ROW_ENTRY_BYTES: [usize; 2] = [12, 20];

/// What a rank sends one home rank: how many items it ships there, and its
/// row entries `(part, [w, w2])` for the parts that rank homes.
type ToHome = (u64, Vec<(u32, [u64; 2])>);

/// What [`BalanceMethod::hoist`] computes once on the host for every rank
/// of [`balance_body`]: the replicated partition, and what each part's
/// home rank must find in the body's one exchange.
#[derive(Debug)]
pub struct Hoisted {
    part: Vec<u32>,
    /// Per-part weight, one row per constraint.
    part_w: Vec<Vec<u64>>,
    /// Items each home rank receives.
    items: Vec<u64>,
}

impl BalanceMethod {
    pub const ALL: [BalanceMethod; 6] = [
        BalanceMethod::Multilevel,
        BalanceMethod::SfcDiffusion,
        BalanceMethod::Sfc,
        BalanceMethod::Knapsack,
        BalanceMethod::Diffusion2,
        BalanceMethod::Voronoi,
    ];

    pub fn name(self) -> &'static str {
        match self {
            BalanceMethod::Multilevel => "multilevel",
            BalanceMethod::SfcDiffusion => "sfc_diffusion",
            BalanceMethod::Sfc => "sfc",
            BalanceMethod::Knapsack => "knapsack",
            BalanceMethod::Diffusion2 => "diffusion2",
            BalanceMethod::Voronoi => "voronoi",
        }
    }

    /// Stable numeric code for metrics (`balance.method` gauge); 0 means no
    /// repartition happened.
    pub fn code(self) -> u32 {
        match self {
            BalanceMethod::Multilevel => 1,
            BalanceMethod::SfcDiffusion => 2,
            BalanceMethod::Sfc => 3,
            BalanceMethod::Knapsack => 4,
            BalanceMethod::Diffusion2 => 5,
            BalanceMethod::Voronoi => 6,
        }
    }

    /// Whether the method reads [`field@Problem::keys`].
    pub fn needs_keys(self) -> bool {
        use BalanceMethod::*;
        matches!(self, SfcDiffusion | Sfc | Voronoi)
    }

    /// Whether the method can only run from a [`field@Problem::seed`].
    pub fn needs_seed(self) -> bool {
        matches!(
            self,
            BalanceMethod::SfcDiffusion | BalanceMethod::Diffusion2
        )
    }

    fn replicated_body(self) -> Option<ReplicatedBody> {
        let row = |charge_div, moved_only| ReplicatedBody {
            charge_div,
            moved_only,
            item_bytes: [20, 28],
        };
        match self {
            BalanceMethod::Multilevel => None,
            BalanceMethod::SfcDiffusion => Some(row(4, true)),
            BalanceMethod::Sfc => Some(row(1, false)),
            BalanceMethod::Knapsack => Some(ReplicatedBody {
                item_bytes: [12, 20],
                ..row(1, false)
            }),
            BalanceMethod::Diffusion2 => Some(row(2, true)),
            BalanceMethod::Voronoi => Some(row(1, true)),
        }
    }

    /// The replicated partition of a replicated-arithmetic method, computed
    /// once on the host for every rank of [`balance_body`] on `nranks`
    /// ranks to share (each rank picks out its own slice), together with
    /// what the body's exchange must deliver: each part's weight under
    /// every constraint, and the number of items each part's home rank
    /// receives — O(N + nparts + nranks) host work, once. `None` for the
    /// multilevel kernel, which has nothing to hoist. The *virtual* compute
    /// charge is taken in the body either way, so modeled times do not
    /// depend on who did the arithmetic.
    pub fn hoist(self, p: &Problem, nranks: usize) -> Option<Hoisted> {
        let body = self.replicated_body()?;
        let part = balance(self, p);
        let nparts = p.cfg.nparts;
        let w = p.weights;
        let part_w = std::iter::once(w.w1())
            .chain(w.w2())
            .map(|w| weights_of(w, &part, nparts))
            .collect();
        let moved_only = p.seed.filter(|_| body.moved_only);
        let mut items = vec![0u64; nranks];
        for (v, &q) in part.iter().enumerate() {
            if moved_only.is_none_or(|prev| prev[v] != q) {
                items[part_home(q as usize, nparts, nranks)] += 1;
            }
        }
        Some(Hoisted {
            part,
            part_w,
            items,
        })
    }
}

/// One balancing problem, borrowed: the weighted graph, an optional second
/// constraint, and what the geometric and diffusive methods additionally
/// need. `cfg.nparts` parts are sized proportionally to `caps` (one
/// relative capacity per part; uniform capacities take the bit-exact
/// unweighted paths).
#[derive(Debug, Clone, Copy)]
pub struct Problem<'a> {
    pub graph: &'a Graph<'a>,
    /// `graph.vwgt`, plus the second constraint if it is one; private so
    /// the two cannot be set apart.
    weights: Weights<'a>,
    /// One space-filling-curve key per vertex.
    pub keys: Option<&'a [u64]>,
    /// The partition to diffuse from.
    pub seed: Option<&'a [u32]>,
    pub caps: &'a [f64],
    pub cfg: &'a PartitionConfig,
}

impl<'a> Problem<'a> {
    pub fn new(
        graph: &'a Graph<'a>,
        w2: Option<&'a [u64]>,
        keys: Option<&'a [u64]>,
        seed: Option<&'a [u32]>,
        caps: &'a [f64],
        cfg: &'a PartitionConfig,
    ) -> Self {
        let n = graph.n();
        assert!(
            w2.is_none_or(|w| w.len() == n),
            "one second weight per vertex"
        );
        assert!(keys.is_none_or(|k| k.len() == n), "one SFC key per vertex");
        assert!(
            seed.is_none_or(|s| s.len() == n),
            "one seed part per vertex"
        );
        Problem {
            graph,
            weights: Weights::new(&graph.vwgt, w2),
            keys,
            seed,
            caps,
            cfg,
        }
    }

    /// The constraints the balancer holds down.
    pub fn weights(&self) -> Weights<'a> {
        self.weights
    }

    fn keys(&self) -> &'a [u64] {
        self.keys.expect("method needs SFC keys")
    }

    fn seed(&self) -> &'a [u32] {
        self.seed.expect("method needs a seed partition")
    }
}

/// Vertices grouped by owning rank, each list ascending — the one
/// replicated structure the SPMD bodies read ownership from. Build it once
/// per ownership change and share it.
#[derive(Debug, Clone)]
pub struct RankLists {
    /// Rank `r` owns `verts[off[r]..off[r + 1]]`.
    pub(crate) off: Vec<u32>,
    verts: Vec<u32>,
    /// Rank-major numbering (inverse of `verts`): the level-0 global id of
    /// each vertex in the distributed multilevel kernel.
    pub(crate) newid: Vec<u32>,
}

impl RankLists {
    /// One O(N + P) counting sort of the replicated `owner` array.
    pub fn build(owner: &[u32], nranks: usize) -> Self {
        let mut off = vec![0u32; nranks + 1];
        for &o in owner {
            off[o as usize + 1] += 1;
        }
        for r in 0..nranks {
            off[r + 1] += off[r];
        }
        let mut next = off.clone();
        let mut verts = vec![0u32; owner.len()];
        let mut newid = vec![0u32; owner.len()];
        for (v, &o) in owner.iter().enumerate() {
            let slot = &mut next[o as usize];
            verts[*slot as usize] = v as u32;
            newid[v] = *slot;
            *slot += 1;
        }
        RankLists { off, verts, newid }
    }

    /// Number of vertices over all ranks.
    pub fn n(&self) -> usize {
        self.verts.len()
    }

    /// The vertices rank `rank` owns, ascending.
    pub fn mine(&self, rank: usize) -> &[u32] {
        &self.verts[self.off[rank] as usize..self.off[rank + 1] as usize]
    }

    /// The one-value-per-vertex array whose rank `r` slice is `per_rank[r]`
    /// (`per_rank[r][k]` belongs to `mine(r)[k]`) — host bookkeeping that
    /// puts rank-local answers back into vertex order. Panics unless every
    /// rank supplied exactly one value per vertex it owns.
    pub fn assemble<'a>(&self, per_rank: impl IntoIterator<Item = &'a [u32]>) -> Vec<u32> {
        let mut out = vec![0u32; self.n()];
        let mut ranks = 0;
        for (rank, values) in per_rank.into_iter().enumerate() {
            let mine = self.mine(rank);
            assert_eq!(
                values.len(),
                mine.len(),
                "rank {rank} returned {} values for the {} vertices it owns",
                values.len(),
                mine.len()
            );
            for (&v, &x) in mine.iter().zip(values) {
                out[v as usize] = x;
            }
            ranks += 1;
        }
        assert_eq!(ranks + 1, self.off.len(), "one slice per rank");
        out
    }
}

/// Run `method`'s serial kernel.
pub fn balance(method: BalanceMethod, p: &Problem) -> Vec<u32> {
    let (w, nparts, caps) = (p.weights, p.cfg.nparts, p.caps);
    match method {
        BalanceMethod::Multilevel => multilevel(p.graph, w, p.cfg, p.seed, caps),
        BalanceMethod::SfcDiffusion => sfc_diffuse(p.keys(), w, p.seed(), nparts, caps),
        BalanceMethod::Sfc => sfc_partition(p.keys(), w, nparts, caps),
        BalanceMethod::Knapsack => knapsack_partition(w, nparts, caps),
        BalanceMethod::Diffusion2 => diffusion2_balance(p.graph, w, p.seed(), nparts, caps),
        BalanceMethod::Voronoi => voronoi(p.keys(), w, p.seed, nparts, caps),
    }
}

/// The serial multilevel kernel in all its regimes: diffuse from `seed`
/// (falling back to a fresh partition when diffusion cannot reach the
/// tolerance) or partition fresh; under two constraints run on the combined
/// totals-normalized weight (so the cut-aware machinery sees one scalar
/// field and most vertices stay where they were), then repair the true
/// weight pair under the max-of-imbalances objective via [`dual_repair`].
/// `w.w1()` must be `g.vwgt`.
pub(crate) fn multilevel(
    g: &Graph,
    w: Weights,
    cfg: &PartitionConfig,
    seed: Option<&[u32]>,
    caps: &[f64],
) -> Vec<u32> {
    let frac = capacity_fractions(caps, cfg.nparts);
    let frac = frac.as_deref();
    let Some(w2) = w.w2() else {
        return match seed {
            Some(prev) => repartition_kway_impl(g, cfg, prev, frac),
            None => partition_kway_impl(g, cfg, frac),
        };
    };
    if cfg.nparts == 1 {
        return vec![0; g.n()];
    }
    let combined = combined_view(g, w2);
    let part = match seed {
        Some(prev) => repartition_diffuse(&combined, cfg, prev, frac),
        None => partition_kway_impl(&combined, cfg, frac),
    };
    dual_repair(g, w2, cfg, frac, caps, part)
}

/// Rank that owns part `p` when `nparts` parts are folded onto `nranks`
/// ranks (block mapping, the same fold the engine uses).
fn part_home(p: usize, nparts: usize, nranks: usize) -> usize {
    p * nranks / nparts
}

/// The parts rank `rank` is home to under [`part_home`]: a contiguous
/// range, found in O(1).
fn homed_parts(rank: usize, nparts: usize, nranks: usize) -> std::ops::Range<usize> {
    let first = |r: usize| (r * nparts).div_ceil(nranks);
    first(rank)..first(rank + 1)
}

/// Shared tail of the replicated-arithmetic bodies, one exchange: ship one
/// item per (moved) owned vertex to its destination part's home rank, and
/// with them the rank's sparse weight row — one `(part, w[, w2])` entry per
/// part its owned vertices are in, each to that part's home. Every home
/// rank then checks what landed on it against the hoist: the rows it
/// received sum to the replicated weights of the parts it homes, and it
/// received exactly the expected number of items. No reduction is made; a
/// rank sends and receives O(what it owns) words.
fn exchange_and_check(
    comm: &mut Comm,
    p: &Problem,
    mine: &[u32],
    hoisted: &Hoisted,
    body: &ReplicatedBody,
) {
    let rank = comm.rank();
    let nranks = comm.nranks();
    let nparts = p.cfg.nparts;
    let w = p.weights;
    let part = &hoisted.part;
    let moved_only = p.seed.filter(|_| body.moved_only);
    // (part, [w, w2], moved items) per owned vertex, merged per part.
    let mut row: Vec<(u32, [u64; 2], u64)> = mine
        .iter()
        .map(|&v| {
            let (v, q) = (v as usize, part[v as usize]);
            let moved = moved_only.is_none_or(|prev| prev[v] != q);
            (q, [w.w1()[v], w.second(v)], moved as u64)
        })
        .collect();
    row.sort_unstable_by_key(|e| e.0);
    row.dedup_by(|e, kept| {
        let same = e.0 == kept.0;
        if same {
            kept.1 = [kept.1[0] + e.1[0], kept.1[1] + e.1[1]];
            kept.2 += e.2;
        }
        same
    });
    // One item per home: its moved-item count and its parts' row entries
    // (`part_home` is monotone, so a home's entries are adjacent).
    let dual = w.w2().is_some() as usize;
    let (item_bytes, entry_bytes) = (body.item_bytes[dual], ROW_ENTRY_BYTES[dual]);
    let mut items: Vec<(usize, u64, ToHome)> = Vec::new();
    for (q, wq, moved) in row {
        let home = part_home(q as usize, nparts, nranks);
        match items.last_mut() {
            Some((h, _, (count, entries))) if *h == home => {
                *count += moved;
                entries.push((q, wq));
            }
            _ => items.push((home, 0, (moved, vec![(q, wq)]))),
        }
    }
    for (_, words, (count, entries)) in &mut items {
        *words = words_for_bytes(item_bytes * *count as usize + entry_bytes * entries.len());
    }
    let received = comm.alltoallv_sparse(items);

    let homed = homed_parts(rank, nparts, nranks);
    let mut sums = vec![[0u64; 2]; homed.len()];
    let mut count = 0u64;
    for (_, (c, entries)) in received {
        count += c;
        for (q, wq) in entries {
            let sum = &mut sums[q as usize - homed.start];
            *sum = [sum[0] + wq[0], sum[1] + wq[1]];
        }
    }
    for (k, expected) in hoisted.part_w.iter().enumerate() {
        let constraint = ["weight", "second-constraint weight"][k];
        for (q, sum) in homed.clone().zip(&sums) {
            assert_eq!(
                sum[k], expected[q],
                "part {q}'s {constraint} at home rank {rank}: the rows sum to {}, the \
                 replicated partition says {}",
                sum[k], expected[q]
            );
        }
    }
    assert_eq!(
        count, hoisted.items[rank],
        "home rank {rank} received {count} items, the replicated partition sends it {}",
        hoisted.items[rank]
    );
}

/// The SPMD body of `method`: call from every rank of a session (or
/// [`spmd`] run) at the same program point. Every rank returns the new part
/// of each vertex it owns, in `lists.mine(rank)` order — its slice of
/// [`balance`]'s partition, and nothing of anyone else's
/// ([`RankLists::assemble`] puts the slices back together host-side).
///
/// A replicated-arithmetic method's body is one compute charge plus one
/// exchange, whose home ranks check what they received against the hoist;
/// it makes no reduction. The multilevel body is genuinely distributed.
///
/// * `lists` — who owns which vertex (the previous processor assignment);
///   a rank reads its own list.
/// * `vertex_units` — compute units charged per owned vertex per stage;
///   pass 0 for free compute.
/// * `hoisted` — [`BalanceMethod::hoist`] of the same method and problem
///   for the session's rank count, computed once outside the session.
pub fn balance_body(
    method: BalanceMethod,
    comm: &mut Comm,
    p: &Problem,
    lists: &RankLists,
    vertex_units: f64,
    hoisted: Option<&Hoisted>,
) -> Vec<u32> {
    let Some(body) = method.replicated_body() else {
        return multilevel_body(comm, p, lists, vertex_units, None);
    };
    let hoisted = hoisted.expect("replicated-arithmetic methods are hoisted");
    let part = &hoisted.part;
    // One allocation is shared by all ranks, so one rank's check covers it.
    if comm.rank() == 0 {
        debug_assert_eq!(
            *part,
            balance(method, p),
            "hoisted partition diverges from the replicated arithmetic"
        );
    }
    let mine = lists.mine(comm.rank());
    charge(comm, mine.len().div_ceil(body.charge_div), vertex_units);
    exchange_and_check(comm, p, mine, hoisted, &body);
    mine.iter().map(|&v| part[v as usize]).collect()
}

/// Result of a standalone [`balance_distributed`] run.
#[derive(Debug, Clone)]
pub struct DistPartition {
    /// The partition (one part id per vertex of the input graph).
    pub part: Vec<u32>,
    /// Virtual-time makespan of the partitioning step.
    pub makespan: f64,
    /// Full per-rank event trace of the run.
    pub trace: TraceLog,
}

/// Run [`balance_body`] on its own `nranks`-rank SPMD session, vertices
/// distributed by `owner` — the standalone harness the differential tests
/// use. The partition is assembled host-side from the ranks' slices; panics
/// if a slice is not its rank's list long.
pub fn balance_distributed(
    method: BalanceMethod,
    p: &Problem,
    owner: &[u32],
    nranks: usize,
    model: MachineModel,
    vertex_units: f64,
) -> DistPartition {
    assert_eq!(owner.len(), p.graph.n(), "need one owner per vertex");
    let lists = RankLists::build(owner, nranks);
    let hoisted = method.hoist(p, nranks);
    let mut results = spmd(nranks, model, |comm| {
        comm.phase("partition", |c| {
            balance_body(method, c, p, &lists, vertex_units, hoisted.as_ref())
        })
    });
    let part = lists.assemble(results.iter().map(|r| &r.value[..]));
    DistPartition {
        part,
        makespan: makespan(&results),
        trace: TraceLog::from_results(&mut results),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kway::tests::grid3d;

    #[test]
    fn rank_lists_are_ascending_and_invert_to_the_rank_major_numbering() {
        let owner = [2u32, 0, 2, 1, 0, 2, 2, 0];
        let lists = RankLists::build(&owner, 4);
        assert_eq!(lists.mine(0), [1, 4, 7]);
        assert_eq!(lists.mine(1), [3]);
        assert_eq!(lists.mine(2), [0, 2, 5, 6]);
        assert!(lists.mine(3).is_empty());
        assert_eq!(lists.newid, [4, 0, 5, 3, 1, 6, 7, 2]);
        // Each rank answering with its own vertex ids puts every id back
        // in its place.
        let answers: Vec<&[u32]> = (0..4).map(|r| lists.mine(r)).collect();
        assert_eq!(lists.assemble(answers), [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "rank 1 returned 2 values for the 1 vertices it owns")]
    fn assemble_rejects_a_slice_of_the_wrong_length() {
        let lists = RankLists::build(&[1, 0, 0], 2);
        lists.assemble([&[0u32, 0][..], &[1, 1]]);
    }

    #[test]
    fn homed_parts_inverts_part_home() {
        for (nparts, nranks) in [(8, 8), (64, 8), (8, 64), (7, 3), (3, 7), (1, 5)] {
            for rank in 0..nranks {
                let homed: Vec<usize> = (0..nparts)
                    .filter(|&q| part_home(q, nparts, nranks) == rank)
                    .collect();
                let range: Vec<usize> = homed_parts(rank, nparts, nranks).collect();
                assert_eq!(
                    range, homed,
                    "nparts {nparts}, nranks {nranks}, rank {rank}"
                );
            }
        }
    }

    /// An SFC-diffusion problem at P = 8 with two constraints, run from
    /// its seed partition; `tamper` edits the hoist before the body runs.
    fn run_tampered(tamper: impl Fn(&mut Hoisted)) {
        let g = grid3d(8, 8, 4);
        let n = g.n();
        let keys: Vec<u64> = (0..n as u64).collect();
        let w2: Vec<u64> = (0..n as u64).map(|v| 1 + v % 3).collect();
        let seed: Vec<u32> = (0..n).map(|v| (v * 8 / n) as u32).collect();
        let (caps, cfg) = ([1.0; 8], PartitionConfig::new(8));
        let p = Problem::new(&g, Some(&w2), Some(&keys), Some(&seed), &caps, &cfg);
        let method = BalanceMethod::SfcDiffusion;
        let mut hoisted = method.hoist(&p, 8).unwrap();
        tamper(&mut hoisted);
        let lists = RankLists::build(&seed, 8);
        spmd(8, MachineModel::sp2(), |comm| {
            balance_body(method, comm, &p, &lists, 1.0, Some(&hoisted))
        });
    }

    #[test]
    #[should_panic(expected = "part 3's weight at home rank 3")]
    fn a_home_rank_catches_a_part_weight_off_by_one() {
        run_tampered(|h| h.part_w[0][3] += 1);
    }

    #[test]
    #[should_panic(expected = "part 6's second-constraint weight at home rank 6")]
    fn a_home_rank_catches_a_second_constraint_weight_off_by_one() {
        run_tampered(|h| h.part_w[1][6] -= 1);
    }

    #[test]
    #[should_panic(expected = "home rank 5 received")]
    fn a_home_rank_catches_an_item_count_off_by_one() {
        run_tampered(|h| h.items[5] += 1);
    }

    /// A replicated body is one compute charge plus one exchange: at
    /// P = 64, every rank enters exactly one `alltoallv` and no `allreduce`,
    /// for every replicated method under one and two constraints.
    #[test]
    fn replicated_bodies_pay_one_exchange_and_no_reduction() {
        use plum_parsim::CollectiveKind::{Allreduce, Alltoallv};
        let g = grid3d(8, 8, 4);
        let n = g.n();
        let keys: Vec<u64> = (0..n as u64)
            .map(|v| v.wrapping_mul(0x9E37) % 8192)
            .collect();
        let w2: Vec<u64> = (0..n as u64)
            .map(|v| if v % 29 == 0 { 40 } else { 1 })
            .collect();
        let (caps, cfg) = ([1.0; 64], PartitionConfig::new(64));
        let seed = sfc_partition(&keys, Weights::new(&g.vwgt, None), 64, &caps);
        for method in BalanceMethod::ALL {
            if method.replicated_body().is_none() {
                continue;
            }
            for w2 in [None, Some(&w2[..])] {
                let p = Problem::new(&g, w2, Some(&keys), Some(&seed), &caps, &cfg);
                let run = balance_distributed(method, &p, &seed, 64, MachineModel::sp2(), 16.0);
                let what = format!("{method:?} dual={}", w2.is_some());
                for (rank, r) in run.trace.summary().ranks.iter().enumerate() {
                    let calls = |kind| r.collective(kind).calls;
                    assert_eq!(calls(Allreduce), 0, "{what}: rank {rank} reduced");
                    assert_eq!(calls(Alltoallv), 1, "{what}: rank {rank}'s exchanges");
                }
            }
        }
    }

    /// The serial multilevel kernel's partitions, pinned to the bit: one or
    /// two constraints × seeded or fresh × uniform or skewed capacities on
    /// a `grid3d` whose load drifted into one corner. `sweep` says whether
    /// a two-constraint row keeps the drain and refinement sweep's answer
    /// (three do) or takes the knapsack fallback's.
    #[test]
    fn serial_multilevel_partitions_are_pinned() {
        let fnv = |xs: &[u32]| {
            xs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
                (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let mut g = grid3d(12, 12, 6);
        let n = g.n();
        for v in 0..n {
            if v % 12 < 5 && v / 12 % 12 < 6 {
                g.vwgt.to_mut()[v] = 3;
            }
        }
        let w2: Vec<u64> = (0..n)
            .map(|v| if v % 12 >= 8 && v / 144 >= 3 { 3 } else { 1 })
            .collect();
        let cfg = PartitionConfig::new(8);
        let seed: Vec<u32> = (0..n).map(|v| (v * 8 / n) as u32).collect();
        let skewed = [2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5];
        // (two constraints, seeded, skewed caps, sweep, FNV-1a)
        let pins = [
            (false, true, false, true, 0x0a9b_a57b_b53c_fa30),
            (false, true, true, true, 0x183f_6d64_7983_fa79),
            (false, false, false, true, 0xc4e1_4a2f_2221_bd54),
            (false, false, true, true, 0xf57b_55c5_26d3_8c62),
            (true, true, false, true, 0xce3b_923c_9d13_fc0e),
            (true, true, true, true, 0x914d_0ea2_3447_d11c),
            (true, false, false, false, 0x418c_39d9_3b3b_404d),
            (true, false, true, true, 0x42c2_ba02_b229_89b5),
        ];
        for (dual, seeded, skew, sweep, hash) in pins {
            let caps: &[f64] = if skew { &skewed } else { &[1.0; 8] };
            let w2 = dual.then_some(&w2[..]);
            let p = Problem::new(&g, w2, None, seeded.then_some(&seed[..]), caps, &cfg);
            let part = balance(BalanceMethod::Multilevel, &p);
            let what = format!("dual={dual} seeded={seeded} skewed={skew}");
            if dual {
                let knap = balance(BalanceMethod::Knapsack, &p);
                assert_eq!(part != knap, sweep, "{what}: sweep or knapsack fallback");
            }
            assert_eq!(fnv(&part), hash, "{what}: partition moved");
        }
    }

    /// Every method's SPMD body returns its serial kernel's partition —
    /// one or two constraints, seeded or fresh, block or scattered
    /// ownership (an empty rank included) — and only the clock depends on
    /// the machine model.
    #[test]
    fn every_body_matches_its_serial_kernel_and_is_model_invariant() {
        let mut g = grid3d(8, 8, 4);
        let n = g.n();
        for v in 0..n / 4 {
            g.vwgt.to_mut()[v] = 1 + (v as u64 * 7) % 5;
        }
        let keys: Vec<u64> = (0..n as u64)
            .map(|v| v.wrapping_mul(0x9E37) % 8192)
            .collect();
        let w2: Vec<u64> = (0..n as u64)
            .map(|v| if v % 29 == 0 { 40 } else { 1 })
            .collect();
        let mut cfg = PartitionConfig::new(4);
        cfg.coarsen_to = 64; // 256 vertices: the multilevel body really coarsens
        let prev = sfc_partition(&keys, Weights::new(&g.vwgt, None), 4, &[2.0, 1.0, 1.0, 1.0]);
        let caps = [1.0; 4];
        let owners: [Vec<u32>; 2] = [
            (0..n).map(|v| (v * 4 / n) as u32).collect(),
            (0..n).map(|v| [0u32, 2, 3][v % 3]).collect(),
        ];
        for method in BalanceMethod::ALL {
            for w2 in [None, Some(&w2[..])] {
                for seed in [Some(&prev[..]), None] {
                    if method.needs_seed() && seed.is_none() {
                        continue;
                    }
                    let p = Problem::new(&g, w2, Some(&keys), seed, &caps, &cfg);
                    let what =
                        format!("{method:?} dual={} seeded={}", w2.is_some(), seed.is_some());
                    let serial = balance(method, &p);
                    assert!(serial.iter().all(|&q| q < 4), "{what}");
                    for owner in &owners {
                        let a =
                            balance_distributed(method, &p, owner, 4, MachineModel::sp2(), 16.0);
                        let b =
                            balance_distributed(method, &p, owner, 4, MachineModel::zero(), 0.0);
                        assert_eq!(a.part, b.part, "{what}: partition depends on the model");
                        assert!(
                            a.makespan > b.makespan,
                            "{what}: sp2 must cost virtual time"
                        );
                        // Past the coarsening target the one-constraint
                        // multilevel body takes its own matching decisions.
                        if method != BalanceMethod::Multilevel || w2.is_some() {
                            assert_eq!(a.part, serial, "{what}: body diverged from serial");
                        }
                    }
                }
            }
        }
    }
}
