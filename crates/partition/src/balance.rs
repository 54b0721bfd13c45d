//! The balancer portfolio behind one call shape: a borrowed [`Problem`] in,
//! a partition out — serially ([`balance`]: reference path, rank 0's
//! solve, test oracle), as an SPMD body inside a running session
//! ([`balance_body`]), or on a session of its own ([`balance_distributed`]).
//! The method is a value ([`BalanceMethod`]), and [`balance`] is the one
//! place that maps it to a kernel.
//!
//! Contract of the SPMD bodies: all control flow branches on replicated
//! data only, so the partition is a deterministic function of the problem —
//! bit-identical under every machine model, chaos perturbation and link
//! jitter; virtual time comes from per-vertex compute charges and real
//! message traffic. A body finds its vertices in its rank's list of the
//! [`RankLists`], never by scanning a replicated owner array, and returns
//! the new parts of those vertices only: per-rank host work, and what a
//! rank receives, stay proportional to what the rank owns — except on rank
//! 0 when a method without a distributed body runs its serial kernel there.

use plum_parsim::{makespan, spmd, Comm, MachineModel, TraceLog};

use crate::diffusion2::diffusion2_balance;
use crate::distributed::{gather_solve, multilevel_body};
use crate::graph::Graph;
use crate::knapsack::knapsack_partition;
use crate::kway::{combined_view, dual_repair, partition_kway_impl, PartitionConfig};
use crate::repart::{repartition_diffuse, repartition_kway_impl};
use crate::sfc::{sfc_partition, sfc_transport, transport_body, Shares};
use crate::voronoi::voronoi;
use crate::weights::Weights;

/// The methods of the portfolio.
///
/// They span the spectrum production AMR stacks use: the paper's multilevel
/// diffusive repartitioner for heavy, locality-sensitive rebalances; a full
/// SFC split when geometry suffices; SFC diffusion — a prefix-sum
/// transport of each part's excess over its share — when the imbalance is
/// mild enough to repair from the seed (Cubism's rule); LPT knapsack
/// packing for the extreme-imbalance, locality-insensitive regime (AMReX's
/// `makeKnapSack`); plus the two
/// classical local schemes the paper rematches against: second-order
/// diffusion over the rank-adjacency graph and Voronoi cell-growth on the
/// SFC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceMethod {
    /// Multilevel diffusive graph repartitioning (the paper's §4.2 kernel);
    /// partitions fresh without a seed. A distributed body.
    Multilevel,
    /// Granularity-aware SFC transport from the seed partition: parts above
    /// their share shed the excess to parts below theirs, matched by prefix
    /// sums, and every part ends at or below its share plus one vertex. A
    /// distributed body. Needs keys and a seed.
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
    /// `caps` as fractions, summed once here.
    shares: Shares<'a>,
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
            shares: Shares::new(caps),
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

    pub(crate) fn shares(&self) -> Shares<'a> {
        self.shares
    }

    pub(crate) fn keys(&self) -> &'a [u64] {
        self.keys.expect("method needs SFC keys")
    }

    pub(crate) fn seed(&self) -> &'a [u32] {
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
    /// One O(N + P) counting sort of the replicated `owner` array. Panics
    /// when there is no rank, or a vertex's owner is not one of the ranks.
    pub fn build(owner: &[u32], nranks: usize) -> Self {
        assert!(nranks > 0, "rank lists need at least one rank");
        let mut off = vec![0u32; nranks + 1];
        for (v, &o) in owner.iter().enumerate() {
            assert!(
                (o as usize) < nranks,
                "vertex {v} is owned by rank {o}, but there are {nranks} ranks"
            );
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
        BalanceMethod::SfcDiffusion => sfc_transport(p.keys(), w, p.seed(), &p.shares),
        BalanceMethod::Sfc => sfc_partition(p.keys(), w, &p.shares),
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
    let frac = Shares::new(caps).weighted(cfg.nparts);
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
pub(crate) fn part_home(p: usize, nparts: usize, nranks: usize) -> usize {
    p * nranks / nparts
}

/// The parts rank `rank` is home to under [`part_home`]: a contiguous
/// range, found in O(1).
pub(crate) fn homed_parts(rank: usize, nparts: usize, nranks: usize) -> std::ops::Range<usize> {
    let first = |r: usize| (r * nparts).div_ceil(nranks);
    first(rank)..first(rank + 1)
}

/// The SPMD body of `method`: call from every rank of a session (or
/// [`spmd`] run) at the same program point. Every rank returns the new part
/// of each vertex it owns, in `lists.mine(rank)` order — its slice of
/// [`balance`]'s partition, and nothing of anyone else's
/// ([`RankLists::assemble`] puts the slices back together host-side).
///
/// The multilevel and SFC-diffusion bodies are distributed: each rank
/// computes from what it owns and what it is sent, and the SFC transport's
/// cost is a constant number of collectives. Every other method exists
/// only as a serial kernel and runs as one: its body gathers the owned
/// weights and seed parts to rank 0, which runs [`balance`] and pays for
/// every vertex, and scatters each rank its parts back — the path
/// multilevel takes on a two-constraint or already-small problem.
///
/// * `lists` — who owns which vertex (the previous processor assignment);
///   a rank reads its own list.
/// * `vertex_units` — compute units charged per owned vertex per stage;
///   pass 0 for free compute.
pub fn balance_body(
    method: BalanceMethod,
    comm: &mut Comm,
    p: &Problem,
    lists: &RankLists,
    vertex_units: f64,
) -> Vec<u32> {
    match method {
        BalanceMethod::SfcDiffusion => transport_body(comm, p, lists, vertex_units),
        BalanceMethod::Multilevel => multilevel_body(comm, p, lists, vertex_units, None),
        _ => gather_solve(comm, method, p, lists, vertex_units),
    }
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
    let mut results = spmd(nranks, model, |comm| {
        comm.phase("partition", |c| {
            balance_body(method, c, p, &lists, vertex_units)
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

    /// A zero capacity is a part meant to hold (almost) nothing, not a
    /// degenerate input: the multilevel kernel returns a valid labelling,
    /// seeded or fresh, on the input the core selector's zero-capacity test
    /// lets through.
    #[test]
    fn a_zero_capacity_part_gets_a_valid_multilevel_partition() {
        let xadj = vec![0, 1, 3, 5, 7, 9, 10];
        let adjncy = vec![1, 0, 2, 1, 3, 2, 4, 3, 5, 4];
        let g = Graph::from_csr(xadj, adjncy, vec![5, 3, 7, 2, 4, 6]);
        let seed = [0, 0, 1, 1, 2, 2];
        let caps = [1.12, 2.0, 0.0];
        let cfg = PartitionConfig::new(3);
        for seed in [None, Some(&seed[..])] {
            let p = Problem::new(&g, None, None, seed, &caps, &cfg);
            let part = balance(BalanceMethod::Multilevel, &p);
            assert_eq!(part.len(), g.n());
            assert!(
                part.iter().all(|&q| q < 3),
                "seeded={}: {part:?}",
                seed.is_some()
            );
        }
    }

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

    /// An owner outside the ranks, reached through the public harness.
    #[test]
    #[should_panic(expected = "vertex 5 is owned by rank 2, but there are 2 ranks")]
    fn rank_lists_reject_an_owner_outside_the_ranks() {
        let g = grid3d(4, 2, 1);
        let cfg = PartitionConfig::new(2);
        let p = Problem::new(&g, None, None, None, &[1.0; 2], &cfg);
        let owner = [0, 0, 0, 1, 1, 2, 1, 1];
        balance_distributed(
            BalanceMethod::Multilevel,
            &p,
            &owner,
            2,
            MachineModel::zero(),
            0.0,
        );
    }

    #[test]
    #[should_panic(expected = "rank lists need at least one rank")]
    fn rank_lists_reject_zero_ranks() {
        RankLists::build(&[], 0);
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

    /// A method without a distributed body runs its serial kernel on rank 0:
    /// at P = 1, 3, 8 and 64, under one and two constraints, with vertices
    /// owned away from their seed parts and rank 0 owning none, every rank
    /// enters exactly one gather and one scatter and no other collective,
    /// and the assembled partition is the serial kernel's.
    #[test]
    fn a_serial_kernel_body_is_one_gather_and_one_scatter() {
        use plum_parsim::CollectiveKind::{Gather, Scatter};
        use plum_parsim::COLLECTIVE_KINDS;
        let g = grid3d(8, 8, 4);
        let n = g.n();
        let keys: Vec<u64> = (0..n as u64)
            .map(|v| v.wrapping_mul(0x9E37) % 8192)
            .collect();
        let w2: Vec<u64> = (0..n as u64)
            .map(|v| if v % 29 == 0 { 40 } else { 1 })
            .collect();
        for nranks in [1, 3, 8, 64] {
            let cfg = PartitionConfig::new(nranks);
            let caps = vec![1.0; nranks];
            let seed: Vec<u32> = (0..n).map(|v| (v * nranks / n) as u32).collect();
            let owner: Vec<u32> = match nranks {
                1 => vec![0; n],
                _ => (0..n)
                    .map(|v| 1 + ((v * 7 + 3) % (nranks - 1)) as u32)
                    .collect(),
            };
            assert!(nranks == 1 || owner != seed);
            for method in [
                BalanceMethod::Sfc,
                BalanceMethod::Knapsack,
                BalanceMethod::Diffusion2,
                BalanceMethod::Voronoi,
            ] {
                for w2 in [None, Some(&w2[..])] {
                    let p = Problem::new(&g, w2, Some(&keys), Some(&seed), &caps, &cfg);
                    let run =
                        balance_distributed(method, &p, &owner, nranks, MachineModel::sp2(), 16.0);
                    let what = format!("{method:?} P={nranks} dual={}", w2.is_some());
                    assert_eq!(
                        run.part,
                        balance(method, &p),
                        "{what}: body diverged from serial"
                    );
                    for (rank, r) in run.trace.summary().ranks.iter().enumerate() {
                        for kind in COLLECTIVE_KINDS {
                            let want = matches!(kind, Gather | Scatter) as u64;
                            let calls = r.collective(kind).calls;
                            assert_eq!(calls, want, "{what}: rank {rank}'s {kind:?} calls");
                        }
                    }
                }
            }
        }
    }

    /// The SFC-diffusion body on vertices owned by ranks other than their
    /// seed parts' homes — scattered owners, and fewer or more ranks than
    /// parts: every vertex travels to its seed part's home and its answer
    /// travels back, and the partition is the serial kernel's, under one
    /// and two constraints.
    #[test]
    fn sfc_diffusion_body_matches_the_kernel_when_owner_is_not_seed() {
        let mut g = grid3d(8, 8, 4);
        let n = g.n();
        for v in 0..n / 3 {
            g.vwgt.to_mut()[v] = 9;
        }
        let keys: Vec<u64> = (0..n as u64)
            .map(|v| v.wrapping_mul(0x9E37) % 8192)
            .collect();
        let w2: Vec<u64> = (0..n as u64).map(|v| 1 + v % 7).collect();
        for (nparts, nranks) in [(8, 8), (8, 5), (3, 8)] {
            let cfg = PartitionConfig::new(nparts);
            let caps = vec![1.0; nparts];
            let seed: Vec<u32> = (0..n).map(|v| (v * nparts / n) as u32).collect();
            let owner: Vec<u32> = (0..n).map(|v| ((v * 7 + 3) % nranks) as u32).collect();
            for w2 in [None, Some(&w2[..])] {
                let p = Problem::new(&g, w2, Some(&keys), Some(&seed), &caps, &cfg);
                let serial = balance(BalanceMethod::SfcDiffusion, &p);
                assert_ne!(serial, seed, "the seed is imbalanced: the transport moves");
                let method = BalanceMethod::SfcDiffusion;
                let run = balance_distributed(method, &p, &owner, nranks, MachineModel::sp2(), 1.0);
                let what = format!("{nparts} parts on {nranks} ranks, dual={}", w2.is_some());
                assert_eq!(run.part, serial, "{what}");
                run.trace.audit().unwrap_or_else(|e| panic!("{what}: {e}"));
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
        let skewed = Shares::new(&[2.0, 1.0, 1.0, 1.0]);
        let prev = sfc_partition(&keys, Weights::new(&g.vwgt, None), &skewed);
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
