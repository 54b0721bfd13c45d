//! Property tests of the distributed repartitioner internals: parallel
//! heavy-edge matching validity, per-level weight conservation, and the
//! exact-cover/ceiling contract of the final partition — each on random
//! distributed graphs with random ownership.

#![cfg(test)]

use proptest::prelude::*;

use plum_parsim::{spmd, MachineModel};

use crate::balance::{balance, balance_distributed, multilevel, BalanceMethod, Problem, RankLists};
use crate::distributed::{
    build_level0, contract_distributed, inflow_quota, inflow_quota_greedy, merge_add, parallel_hem,
    row_words, DistGraph, FRESH_KEEP,
};
use crate::graph::Graph;
use crate::kway::{part_ceilings, partition_kway, PartitionConfig};
use crate::metrics::weights_of;
use crate::weights::Weights;

/// Random connected symmetric graph: a ring plus `extra` chords, with
/// deterministic non-uniform vertex and edge weights derived from the ids
/// (symmetric by construction).
fn random_graph(n: usize, extra: &[(u32, u32)]) -> Graph<'static> {
    use std::collections::BTreeSet;
    let mut adj: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
    for v in 0..n {
        let u = (v + 1) % n;
        adj[v].insert(u as u32);
        adj[u].insert(v as u32);
    }
    for &(a, b) in extra {
        let a = a as usize % n;
        let b = b as usize % n;
        if a != b {
            adj[a].insert(b as u32);
            adj[b].insert(a as u32);
        }
    }
    let ew = |a: u32, b: u32| -> u32 { (a.min(b) * 31 + a.max(b) * 17) % 5 + 1 };
    let mut xadj = vec![0u32];
    let mut adjncy = Vec::new();
    let mut adjwgt = Vec::new();
    for (v, row) in adj.iter().enumerate() {
        for &u in row {
            adjncy.push(u);
            adjwgt.push(ew(v as u32, u));
        }
        xadj.push(adjncy.len() as u32);
    }
    let vwgt: Vec<u64> = (0..n).map(|v| (v as u64 * 7) % 3 + 1).collect();
    let g = Graph {
        xadj: xadj.into(),
        adjncy: adjncy.into(),
        adjwgt: adjwgt.into(),
        vwgt: vwgt.into(),
    };
    g.check().expect("generated graph must be well-formed");
    g
}

/// Global edge weight between owned local vertex `i` and global id `m`.
fn row_weight_to(dg: &DistGraph, i: usize, m: u32) -> u64 {
    dg.row(i)
        .filter(|&(s, _)| dg.gid(s) == m)
        .map(|(_, w)| w as u64)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Parallel HEM yields a valid matching: the global mate relation is
    /// involutive (so no vertex is matched twice and both sides of every
    /// cross-rank pair agreed), and every matched pair is an actual edge.
    #[test]
    fn parallel_hem_yields_a_valid_matching(
        n in 24usize..96,
        extra in proptest::collection::vec((0u32..1024, 0u32..1024), 32),
        owners in proptest::collection::vec(0u32..8, 96),
        p in 2usize..5,
        level in 0usize..3,
    ) {
        let g = random_graph(n, &extra);
        let owner: Vec<u32> = (0..n).map(|v| owners[v % owners.len()] % p as u32).collect();
        let gref = &g;
        let lists = &RankLists::build(&owner, p);
        let results = spmd(p, MachineModel::zero(), move |comm| {
            let dg = build_level0(comm.rank(), gref, lists, None);
            let partner = parallel_hem(comm, &dg, 0x9e37, level);
            (dg.off.clone(), partner)
        });
        let off = results[0].value.0.clone();
        let mut mate = vec![u32::MAX; n];
        for r in &results {
            let base = off[r.rank] as usize;
            for (i, &m) in r.value.1.iter().enumerate() {
                mate[base + i] = m;
            }
        }
        let newid = &lists.newid;
        let mut neighbors = vec![Vec::new(); n];
        for v in 0..n {
            for (u, _) in g.edges(v) {
                neighbors[newid[v] as usize].push(newid[u as usize]);
            }
        }
        for v in 0..n {
            let m = mate[v];
            prop_assert!((m as usize) < n, "partner {} out of range at {}", m, v);
            prop_assert_eq!(
                mate[m as usize], v as u32,
                "mate relation not involutive at {} (cross-rank disagreement)", v
            );
            prop_assert!(
                m == v as u32 || neighbors[v].contains(&m),
                "vertex {} matched to non-neighbour {}", v, m
            );
        }
    }

    /// (b) Every coarsening level conserves the total vertex weight, and the
    /// coarse edge-weight total equals the fine total minus the matched
    /// internal edges (each pair's edge appears twice in the symmetric CSR).
    #[test]
    fn coarsening_levels_conserve_vertex_and_edge_weight(
        n in 24usize..96,
        extra in proptest::collection::vec((0u32..1024, 0u32..1024), 32),
        owners in proptest::collection::vec(0u32..8, 96),
        p in 2usize..5,
    ) {
        let g = random_graph(n, &extra);
        let owner: Vec<u32> = (0..n).map(|v| owners[v % owners.len()] % p as u32).collect();
        let gref = &g;
        let lists = &RankLists::build(&owner, p);
        let results = spmd(p, MachineModel::zero(), move |comm| {
            let mut cur = build_level0(comm.rank(), gref, lists, None);
            // (vertex total, edge total, matched internal edge weight ×2)
            let mut ledger: Vec<(u64, u64, u64)> = Vec::new();
            let vtot = |c: &mut plum_parsim::Comm, dg: &DistGraph| {
                let v: u64 = dg.vwgt.iter().sum();
                let e: u64 = dg.adjwgt.iter().map(|&w| w as u64).sum();
                (c.allreduce_sum_u64(v), c.allreduce_sum_u64(e))
            };
            let (v0, e0) = vtot(comm, &cur);
            ledger.push((v0, e0, 0));
            for level in 0..4 {
                if cur.global_n() <= 8 {
                    break;
                }
                let partner = parallel_hem(comm, &cur, 0x9e37, level);
                let base = cur.off[comm.rank()];
                let mut internal2 = 0u64;
                for (i, &m) in partner.iter().enumerate() {
                    if m != base + i as u32 {
                        internal2 += row_weight_to(&cur, i, m);
                    }
                }
                let internal2 = comm.allreduce_sum_u64(internal2);
                match contract_distributed(comm, &cur, &partner, FRESH_KEEP) {
                    Some((coarse, _)) => {
                        cur = coarse;
                        let (v, e) = vtot(comm, &cur);
                        ledger.push((v, e, internal2));
                    }
                    None => break,
                }
            }
            ledger
        });
        let ledger = &results[0].value;
        for r in &results {
            prop_assert_eq!(&r.value, ledger, "rank {} ledger diverged", r.rank);
        }
        prop_assert!(ledger.len() > 1, "no contraction happened");
        for lv in 1..ledger.len() {
            let (v_prev, e_prev, _) = ledger[lv - 1];
            let (v, e, internal2) = ledger[lv];
            prop_assert_eq!(v, v_prev, "vertex weight lost at level {}", lv);
            prop_assert_eq!(
                e, e_prev - internal2,
                "edge weight at level {}: {} fine − {} matched ≠ {} coarse",
                lv, e_prev, internal2, e
            );
        }
    }

    /// (c) The final partition assigns every vertex exactly once, and each
    /// part stays within its capacity ceiling up to one vertex of
    /// granularity slack (the same slack the serial kernel's own tests
    /// allow).
    #[test]
    fn final_partition_is_an_exact_cover_with_bounded_parts(
        n in 60usize..140,
        extra in proptest::collection::vec((0u32..1024, 0u32..1024), 48),
        owners in proptest::collection::vec(0u32..8, 96),
        p in 2usize..5,
        caps in proptest::collection::vec(0.5f64..2.0, 4),
        use_prev in any::<bool>(),
    ) {
        let g = random_graph(n, &extra);
        let owner: Vec<u32> = (0..n).map(|v| owners[v % owners.len()] % p as u32).collect();
        let mut cfg = PartitionConfig::new(p);
        cfg.coarsen_to = 24; // force the multilevel path on these small graphs
        let prev = partition_kway(&g, &cfg);
        let seed = use_prev.then_some(&prev[..]);
        let problem = Problem::new(&g, None, None, seed, &caps[..p], &cfg);
        let d = balance_distributed(
            BalanceMethod::Multilevel,
            &problem,
            &owner,
            p,
            MachineModel::zero(),
            0.0,
        );
        prop_assert_eq!(d.part.len(), n, "partition must cover every vertex");
        prop_assert!(d.part.iter().all(|&q| (q as usize) < p), "part id out of range");
        let w = weights_of(&g.vwgt, &d.part, p);
        let frac = crate::sfc::Shares::new(&caps[..p]).weighted(p);
        let ceil = part_ceilings(g.total_vwgt(), &cfg, frac.as_deref());
        let maxv = *g.vwgt.iter().max().unwrap();
        for q in 0..p {
            prop_assert!(
                w[q] <= ceil[q] + maxv,
                "part {} weighs {} > ceiling {} + granularity {}",
                q, w[q], ceil[q], maxv
            );
        }
    }

    /// (d) The SFC split is an exact cover and every part's weight stays
    /// under its capacity-proportional share plus one vertex of granularity
    /// — the cursor advances before assigning, so no part can overshoot by
    /// more than the vertex that crossed its target.
    #[test]
    fn sfc_split_respects_capacity_shares(
        keyseed in proptest::collection::vec(any::<u64>(), 160),
        wseed in proptest::collection::vec(1u64..9, 160),
        n in 30usize..160,
        p in 2usize..9,
        caps in proptest::collection::vec(0.5f64..2.0, 8),
    ) {
        let keys = &keyseed[..n];
        let vwgt = &wseed[..n];
        let part = crate::sfc::sfc_split(keys, vwgt, p, &caps[..p]);
        prop_assert_eq!(part.len(), n, "split must cover every vertex");
        prop_assert!(part.iter().all(|&q| (q as usize) < p), "part id out of range");
        let mut w = vec![0u64; p];
        for v in 0..n {
            w[part[v] as usize] += vwgt[v];
        }
        let total: u64 = vwgt.iter().sum();
        let csum: f64 = caps[..p].iter().sum();
        let maxv = *vwgt.iter().max().unwrap();
        for q in 0..p {
            let share = total as f64 * caps[q] / csum;
            prop_assert!(
                w[q] as f64 <= share + maxv as f64 + 1e-6,
                "part {} weighs {} > share {} + granularity {}",
                q, w[q], share, maxv
            );
        }
    }

    /// (e) SFC diffusion is monotone: from an *arbitrary* previous
    /// labelling it never increases the effective (capacity-weighted)
    /// imbalance, never invents part ids, and touches nothing when the
    /// input is already a single part.
    #[test]
    fn sfc_diffusion_never_increases_effective_imbalance(
        keyseed in proptest::collection::vec(any::<u64>(), 160),
        wseed in proptest::collection::vec(1u64..9, 160),
        prevseed in proptest::collection::vec(0u32..8, 160),
        n in 30usize..160,
        p in 2usize..9,
        caps in proptest::collection::vec(0.5f64..2.0, 8),
    ) {
        let keys = &keyseed[..n];
        let vwgt = &wseed[..n];
        let prev: Vec<u32> = (0..n).map(|v| prevseed[v] % p as u32).collect();
        let w = Weights::new(vwgt, None);
        let out = crate::sfc::sfc_transport(keys, w, &prev, &crate::sfc::Shares::new(&caps[..p]));
        prop_assert_eq!(out.len(), n);
        prop_assert!(out.iter().all(|&q| (q as usize) < p));
        let before = w.imbalance(&prev, p, &caps[..p]);
        let after = w.imbalance(&out, p, &caps[..p]);
        prop_assert!(
            after <= before + 1e-9,
            "diffusion worsened imbalance: {} -> {}",
            before, after
        );
    }

    /// (g) Dual-constraint LPT packing: exact cover, and *both*
    /// per-constraint capacity-weighted imbalances stay under the dual
    /// greedy bound `2 + s_max·Σc/min(c)`, where `s_max` is the largest
    /// combined totals-normalized vertex size. (Each placement minimizes
    /// the post-assignment max-of-constraints effective load, so at the
    /// end every bin was within one vertex of the minimum when it last
    /// grew; summing over bins gives the ceiling for each constraint.)
    #[test]
    fn dual_knapsack_respects_the_dual_greedy_bound(
        w1seed in proptest::collection::vec(1u64..50, 160),
        w2seed in proptest::collection::vec(1u64..50, 160),
        n in 30usize..160,
        p in 2usize..9,
        caps in proptest::collection::vec(0.5f64..2.0, 8),
    ) {
        use crate::metrics::{imbalance_weighted, weights_of};
        let w1 = &w1seed[..n];
        let w2 = &w2seed[..n];
        let part = crate::knapsack::knapsack_partition(Weights::new(w1, Some(w2)), p, &caps[..p]);
        prop_assert_eq!(part.len(), n);
        prop_assert!(part.iter().all(|&q| (q as usize) < p));
        let t1: u64 = w1.iter().sum();
        let t2: u64 = w2.iter().sum();
        let s_max = (0..n)
            .map(|v| w1[v] as f64 / t1 as f64 + w2[v] as f64 / t2 as f64)
            .fold(0.0, f64::max);
        let csum: f64 = caps[..p].iter().sum();
        let cmin = caps[..p].iter().cloned().fold(f64::INFINITY, f64::min);
        let bound = 2.0 + s_max * csum / cmin + 1e-6;
        let i1 = imbalance_weighted(&weights_of(w1, &part, p), &caps[..p]);
        let i2 = imbalance_weighted(&weights_of(w2, &part, p), &caps[..p]);
        prop_assert!(i1 <= bound, "constraint 1 imbalance {} beyond dual bound {}", i1, bound);
        prop_assert!(i2 <= bound, "constraint 2 imbalance {} beyond dual bound {}", i2, bound);
    }

    /// (h) The dual multilevel and repartitioning entry points inherit the
    /// dual greedy ceiling unconditionally: every exit branch of
    /// `dual_repair` returns either a pair within `tol·1.10` or the better
    /// of the graph result and the dual LPT packing, so both constraints
    /// stay under `max(tol·1.10, 2 + s_max·Σc/min(c))` for random weight
    /// pairs, random capacities, and an arbitrary previous labelling.
    #[test]
    fn dual_partitioners_respect_the_dual_ceiling(
        n in 40usize..120,
        extra in proptest::collection::vec((0u32..1024, 0u32..1024), 32),
        w2seed in proptest::collection::vec(1u64..50, 120),
        prevseed in proptest::collection::vec(0u32..8, 120),
        p in 2usize..6,
        caps in proptest::collection::vec(0.5f64..2.0, 8),
        reseed in any::<bool>(),
    ) {
        use crate::metrics::{imbalance_weighted, weights_of};
        let g = random_graph(n, &extra);
        let w2 = &w2seed[..n];
        let mut cfg = PartitionConfig::new(p);
        cfg.coarsen_to = 24;
        let prev: Vec<u32> = (0..n).map(|v| prevseed[v] % p as u32).collect();
        let seed = reseed.then_some(&prev[..]);
        let part = multilevel(&g, Weights::new(&g.vwgt, Some(w2)), &cfg, seed, &caps[..p]);
        prop_assert_eq!(part.len(), n);
        prop_assert!(part.iter().all(|&q| (q as usize) < p));
        let t1 = g.total_vwgt();
        let t2: u64 = w2.iter().sum();
        let s_max = (0..n)
            .map(|v| g.vwgt[v] as f64 / t1 as f64 + w2[v] as f64 / t2 as f64)
            .fold(0.0, f64::max);
        let csum: f64 = caps[..p].iter().sum();
        let cmin = caps[..p].iter().cloned().fold(f64::INFINITY, f64::min);
        let bound = (cfg.imbalance_tol * 1.10).max(2.0 + s_max * csum / cmin) + 1e-6;
        let i1 = imbalance_weighted(&weights_of(&g.vwgt, &part, p), &caps[..p]);
        let i2 = imbalance_weighted(&weights_of(w2, &part, p), &caps[..p]);
        prop_assert!(i1 <= bound, "constraint 1 imbalance {} beyond ceiling {}", i1, bound);
        prop_assert!(i2 <= bound, "constraint 2 imbalance {} beyond ceiling {}", i2, bound);
    }

    /// (i) A uniform second weight vector constrains nothing: [`Weights`]
    /// drops it, so every method of the portfolio — seeded and fresh —
    /// returns bit-exactly its single-constraint partition, and the session
    /// engine can pass a second vector unconditionally without perturbing
    /// single-constraint goldens.
    #[test]
    fn uniform_second_weights_reduce_bit_exactly_to_single(
        n in 30usize..100,
        extra in proptest::collection::vec((0u32..1024, 0u32..1024), 24),
        keyseed in proptest::collection::vec(any::<u64>(), 100),
        prevseed in proptest::collection::vec(0u32..8, 100),
        c in 1u64..9,
        p in 2usize..6,
        caps in proptest::collection::vec(0.5f64..2.0, 8),
    ) {
        let g = random_graph(n, &extra);
        let w2 = vec![c; n];
        prop_assert!(Weights::new(&g.vwgt, Some(&w2)).w2().is_none());
        let keys = Some(&keyseed[..n]);
        let prev: Vec<u32> = (0..n).map(|v| prevseed[v] % p as u32).collect();
        let mut cfg = PartitionConfig::new(p);
        cfg.coarsen_to = 24;
        for method in BalanceMethod::ALL {
            for seed in [Some(&prev[..]), None] {
                if method.needs_seed() && seed.is_none() {
                    continue;
                }
                prop_assert_eq!(
                    balance(method, &Problem::new(&g, Some(&w2), keys, seed, &caps[..p], &cfg)),
                    balance(method, &Problem::new(&g, None, keys, seed, &caps[..p], &cfg)),
                    "{:?} seeded={}", method, seed.is_some()
                );
            }
        }
    }

    /// (j) Dual SFC diffusion is monotone in the *binding* constraint:
    /// from an arbitrary previous labelling it never increases the
    /// max-of-imbalances objective and never invents part ids.
    #[test]
    fn dual_sfc_diffusion_never_increases_the_binding_imbalance(
        keyseed in proptest::collection::vec(any::<u64>(), 160),
        w1seed in proptest::collection::vec(1u64..9, 160),
        w2seed in proptest::collection::vec(1u64..9, 160),
        prevseed in proptest::collection::vec(0u32..8, 160),
        n in 30usize..160,
        p in 2usize..9,
        caps in proptest::collection::vec(0.5f64..2.0, 8),
    ) {
        let keys = &keyseed[..n];
        let w1 = &w1seed[..n];
        let w2 = &w2seed[..n];
        let prev: Vec<u32> = (0..n).map(|v| prevseed[v] % p as u32).collect();
        let w = Weights::new(w1, Some(w2));
        let out = crate::sfc::sfc_transport(keys, w, &prev, &crate::sfc::Shares::new(&caps[..p]));
        prop_assert_eq!(out.len(), n);
        prop_assert!(out.iter().all(|&q| (q as usize) < p));
        let before = w.imbalance(&prev, p, &caps[..p]);
        let after = w.imbalance(&out, p, &caps[..p]);
        prop_assert!(
            after <= before + 1e-9,
            "dual diffusion worsened the binding imbalance: {} -> {}",
            before, after
        );
    }

    /// (k) Second-order diffusion flow solve: every executed round is
    /// flow-conserving (the signed per-part deltas sum to zero), and the
    /// cumulative flows reproduce the final deviation exactly — the flows
    /// *are* the transcript of the solve, not an approximation of it.
    #[test]
    fn diffusion_flow_solve_conserves_per_round_and_in_total(
        n in 4usize..16,
        extra in proptest::collection::vec((0u32..1024, 0u32..1024), 8),
        loadseed in proptest::collection::vec(1u64..100, 16),
        second_order in any::<bool>(),
    ) {
        use crate::diffusion2::solve_flows;
        let g = random_graph(n, &extra);
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|v| g.edges(v).map(|(u, _)| u as usize).collect())
            .collect();
        let total: u64 = loadseed[..n].iter().sum();
        let mean = total as f64 / n as f64;
        let dev: Vec<f64> = loadseed[..n].iter().map(|&w| w as f64 - mean).collect();
        let scale = dev.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let solve = solve_flows(&adj, &dev, second_order, 400, 0.01 * mean);
        for (round, rf) in solve.round_flows.iter().enumerate() {
            let mut delta = vec![0.0f64; n];
            for (e, &(p, q)) in solve.edges.iter().enumerate() {
                delta[p as usize] -= rf[e];
                delta[q as usize] += rf[e];
            }
            let net: f64 = delta.iter().sum();
            prop_assert!(
                net.abs() <= 1e-9 * scale.max(1.0),
                "round {} leaks weight: net {}", round, net
            );
        }
        let mut fin = dev.clone();
        for (e, &(p, q)) in solve.edges.iter().enumerate() {
            fin[p as usize] -= solve.flows[e];
            fin[q as usize] += solve.flows[e];
        }
        let per_round_sum: Vec<f64> = solve.edges.iter().enumerate().map(|(e, _)| {
            solve.round_flows.iter().map(|rf| rf[e]).sum()
        }).collect();
        for (e, &f) in solve.flows.iter().enumerate() {
            prop_assert!(
                (f - per_round_sum[e]).abs() <= 1e-9 * scale.max(1.0),
                "cumulative flow {} diverges from its round transcript {}",
                f, per_round_sum[e]
            );
        }
        if solve.rounds < 400 && !solve.edges.is_empty() {
            let worst = fin.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            prop_assert!(
                worst <= 0.01 * mean + 1e-9,
                "converged solve left deviation {}", worst
            );
        }
    }

    /// (k') The element-level kernel conserves the total weight exactly in
    /// u64 (every vertex keeps exactly one part), never invents part ids,
    /// and never worsens the capacity-weighted imbalance.
    #[test]
    fn diffusion2_balance_conserves_u64_weight_and_is_monotone(
        n in 24usize..96,
        extra in proptest::collection::vec((0u32..1024, 0u32..1024), 32),
        prevseed in proptest::collection::vec(0u32..8, 96),
        p in 2usize..6,
        caps in proptest::collection::vec(0.5f64..2.0, 8),
    ) {
        use crate::diffusion2::diffusion2_balance;
        use crate::metrics::{imbalance_weighted, weights_of};
        let g = random_graph(n, &extra);
        let prev: Vec<u32> = (0..n).map(|v| prevseed[v % prevseed.len()] % p as u32).collect();
        let part = diffusion2_balance(&g, Weights::new(&g.vwgt, None), &prev, p, &caps[..p]);
        prop_assert_eq!(part.len(), n);
        prop_assert!(part.iter().all(|&q| (q as usize) < p));
        let before_w = weights_of(&g.vwgt, &prev, p);
        let after_w = weights_of(&g.vwgt, &part, p);
        prop_assert_eq!(
            before_w.iter().sum::<u64>(), after_w.iter().sum::<u64>(),
            "diffusion must conserve the total weight exactly"
        );
        let before = imbalance_weighted(&before_w, &caps[..p]);
        let after = imbalance_weighted(&after_w, &caps[..p]);
        prop_assert!(
            after <= before + 1e-9,
            "diffusion2 worsened imbalance: {} -> {}", before, after
        );
    }

    /// (l) Chebyshev acceleration: on random rank graphs the second-order
    /// solve needs no more rounds than first order (up to a small constant
    /// start-up slack on trivially-converging instances) and still
    /// converges whenever first order does.
    #[test]
    fn chebyshev_needs_no_more_rounds_than_first_order(
        n in 4usize..16,
        extra in proptest::collection::vec((0u32..1024, 0u32..1024), 8),
        loadseed in proptest::collection::vec(1u64..100, 16),
    ) {
        use crate::diffusion2::solve_flows;
        let g = random_graph(n, &extra);
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|v| g.edges(v).map(|(u, _)| u as usize).collect())
            .collect();
        let total: u64 = loadseed[..n].iter().sum();
        let mean = total as f64 / n as f64;
        let dev: Vec<f64> = loadseed[..n].iter().map(|&w| w as f64 - mean).collect();
        let tol = 0.02 * mean;
        let fo = solve_flows(&adj, &dev, false, 400, tol);
        let so = solve_flows(&adj, &dev, true, 400, tol);
        if fo.rounds < 400 {
            prop_assert!(so.rounds < 400, "first order converged but SOS did not");
        }
        // The SOS recurrence only kicks in at round 2, so allow a small
        // constant slack on instances first order finishes immediately.
        let bound = if fo.rounds >= 10 { fo.rounds } else { fo.rounds + 4 };
        prop_assert!(
            so.rounds <= bound,
            "second order took {} rounds, first order {}", so.rounds, fo.rounds
        );
    }

    /// (m) Voronoi balancing terminates in its fixed round budget for any
    /// input, is an exact cover, and never worsens the capacity-weighted
    /// imbalance relative to the seed partition.
    #[test]
    fn voronoi_is_total_and_monotone_under_random_capacities(
        keyseed in proptest::collection::vec(any::<u64>(), 160),
        wseed in proptest::collection::vec(1u64..9, 160),
        prevseed in proptest::collection::vec(0u32..8, 160),
        n in 30usize..160,
        p in 2usize..9,
        caps in proptest::collection::vec(0.5f64..2.0, 8),
    ) {
        use crate::metrics::{imbalance_weighted, weights_of};
        use crate::voronoi::voronoi;
        let keys = &keyseed[..n];
        let vwgt = &wseed[..n];
        let prev: Vec<u32> = (0..n).map(|v| prevseed[v] % p as u32).collect();
        let w = Weights::new(vwgt, None);
        let out = voronoi(keys, w, Some(&prev), p, &caps[..p]);
        prop_assert_eq!(out.len(), n);
        prop_assert!(out.iter().all(|&q| (q as usize) < p));
        let before = imbalance_weighted(&weights_of(vwgt, &prev, p), &caps[..p]);
        let after = imbalance_weighted(&weights_of(vwgt, &out, p), &caps[..p]);
        prop_assert!(
            after <= before + 1e-9,
            "voronoi worsened imbalance: {} -> {}", before, after
        );
        let fresh = voronoi(keys, w, None, p, &caps[..p]);
        prop_assert_eq!(fresh.len(), n);
        prop_assert!(fresh.iter().all(|&q| (q as usize) < p));
    }

    /// (f) LPT knapsack packing: exact cover, and the heaviest effective
    /// (capacity-scaled) bin load stays under the ideal `Σw/Σc` plus the
    /// greedy bound's one-job slack `max(w)/min(c)`.
    #[test]
    fn knapsack_respects_the_greedy_bound(
        wseed in proptest::collection::vec(1u64..50, 160),
        n in 30usize..160,
        p in 2usize..9,
        caps in proptest::collection::vec(0.5f64..2.0, 8),
    ) {
        let vwgt = &wseed[..n];
        let part = crate::knapsack::knapsack_partition(Weights::new(vwgt, None), p, &caps[..p]);
        prop_assert_eq!(part.len(), n);
        prop_assert!(part.iter().all(|&q| (q as usize) < p));
        let mut w = vec![0u64; p];
        for v in 0..n {
            w[part[v] as usize] += vwgt[v];
        }
        let total: u64 = vwgt.iter().sum();
        let csum: f64 = caps[..p].iter().sum();
        let cmin = caps[..p].iter().cloned().fold(f64::INFINITY, f64::min);
        let maxv = *vwgt.iter().max().unwrap();
        let worst = (0..p).map(|q| w[q] as f64 / caps[q]).fold(0.0, f64::max);
        prop_assert!(
            worst <= total as f64 / csum + maxv as f64 / cmin + 1e-6,
            "effective max load {} beyond the LPT bound ({} ideal + {} slack)",
            worst, total as f64 / csum, maxv as f64 / cmin
        );
    }

    /// (g) The inflow quota, fed the demand rows' exclusive scan by a real
    /// `exscan` session, equals the greedy rank-order allocation it
    /// replaces, on every rank — with no demand at all, with parts already
    /// at or over their ceiling (zero headroom), with demand far beyond the
    /// headroom, and with a sparse mix of all three.
    #[test]
    fn inflow_quota_matches_greedy_rank_order(
        p in 1usize..33,
        nparts in 1usize..65,
        mode in 0u8..4,
        seed in any::<u64>(),
    ) {
        let mut rng = crate::rng::Rng::new(seed);
        let max_w: Vec<u64> = (0..nparts).map(|_| 50 + rng.below(200) as u64).collect();
        let w: Vec<u64> = (0..nparts)
            .map(|q| match mode {
                1 => max_w[q] + rng.below(3) as u64,
                3 if rng.below(4) == 0 => max_w[q],
                _ => rng.below(max_w[q] as usize + 1) as u64,
            })
            .collect();
        let dense: Vec<Vec<u64>> = (0..p)
            .map(|_| {
                (0..nparts)
                    .map(|_| match mode {
                        0 => 0,
                        2 => 100 + rng.below(400) as u64,
                        _ if rng.below(5) == 0 => 1 + rng.below(120) as u64,
                        _ => 0,
                    })
                    .collect()
            })
            .collect();
        let sparse: Vec<Vec<(u32, u64)>> = dense
            .iter()
            .map(|row| {
                (0..nparts).filter(|&q| row[q] > 0).map(|q| (q as u32, row[q])).collect()
            })
            .collect();
        let quotas = spmd(p, MachineModel::zero(), |comm| {
            let mine = &sparse[comm.rank()];
            let below = comm.exscan(|row| row_words(row, nparts), mine.clone(), |a, b| merge_add(a, b));
            inflow_quota(below.as_deref().unwrap_or(&[]), mine, &max_w, &w)
        });
        for r in &quotas {
            prop_assert_eq!(
                &r.value,
                &inflow_quota_greedy(&dense, r.rank, &max_w, &w),
                "rank {} of {}", r.rank, p
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (q) The SFC transport's granularity contract, on random weights with
    /// heavy vertices (about one in eight weighs 20–100× the rest), random
    /// capacities (or equal ones), one or two constraints, and k-way seeds
    /// of a ring — a hotspot folded into part 0 half the time.
    ///
    /// * It never worsens the binding imbalance.
    /// * Unless its guard refused the transport — which only two
    ///   constraints or unequal capacities can make it do — every part's
    ///   [`Weights::drive`] load ends at or below its ceiling
    ///   `⌈total · f_q⌉ + w_max` whenever the room below the shares covers
    ///   the excess above them.
    /// * Under one constraint, from a seed above 1.5× the granularity bound
    ///   `max_q (T_q + w_max) / T_q` it ends at or below 1.5× that bound:
    ///   not a no-op.
    #[test]
    fn sfc_transport_holds_the_granularity_contract(
        keyseed in proptest::collection::vec(any::<u64>(), 200),
        wseed in proptest::collection::vec(1u64..6, 200),
        heavy in proptest::collection::vec(0u64..40, 200),
        w2seed in proptest::collection::vec(1u64..9, 200),
        n in 40usize..200,
        p in 2usize..9,
        caps in proptest::collection::vec(0.5f64..2.0, 8),
        equal_caps in any::<bool>(),
        dual in any::<bool>(),
        hotspot in any::<bool>(),
    ) {
        use crate::sfc::{sfc_transport, Shares};
        let keys = &keyseed[..n];
        let w1: Vec<u64> = (0..n)
            .map(|v| if heavy[v] < 5 { wseed[v] * (20 + heavy[v] * 20) } else { wseed[v] })
            .collect();
        let w = Weights::new(&w1, dual.then_some(&w2seed[..n]));
        let caps: Vec<f64> = if equal_caps { vec![1.0; p] } else { caps[..p].to_vec() };
        let mut seed = partition_kway(&random_graph(n, &[]), &PartitionConfig::new(p));
        if hotspot {
            for (v, q) in seed.iter_mut().enumerate() {
                if v % 3 == 0 {
                    *q = 0;
                }
            }
        }
        let shares = Shares::new(&caps);
        let out = sfc_transport(keys, w, &seed, &shares);
        prop_assert_eq!(out.len(), n);
        prop_assert!(out.iter().all(|&q| (q as usize) < p));
        let before = w.imbalance(&seed, p, &caps);
        let after = w.imbalance(&out, p, &caps);
        prop_assert!(after <= before + 1e-9, "worsened {} -> {}", before, after);

        let drive = w.drive();
        let total: u64 = drive.iter().sum();
        let w_max = *drive.iter().max().unwrap();
        let share = |q: usize| (total as f64 * shares.frac(q)).ceil() as u64;
        let (old, new) = (weights_of(&drive, &seed, p), weights_of(&drive, &out, p));
        let excess: u64 = (0..p).map(|q| old[q].saturating_sub(share(q))).sum();
        let room: u64 = (0..p).map(|q| share(q).saturating_sub(old[q])).sum();
        // A part above its ceiling can always ship: its excess over its
        // share exceeds every vertex.
        let refused = out == seed && (0..p).any(|q| old[q] > share(q) + w_max);
        prop_assert!(!refused || dual || !equal_caps, "refused under one constraint and equal caps");
        if !refused && room >= excess {
            for q in 0..p {
                prop_assert!(
                    new[q] <= share(q) + w_max,
                    "part {} ends at {} > ceiling {} + {}", q, new[q], share(q), w_max
                );
            }
        }
        if !dual {
            let bound = (0..p)
                .map(|q| {
                    let t = total as f64 * shares.frac(q);
                    (t + w_max as f64) / t
                })
                .fold(0.0, f64::max);
            if before > 1.5 * bound {
                prop_assert!(after <= 1.5 * bound, "{} -> {} against bound {}", before, after, bound);
            }
        }
    }
}
