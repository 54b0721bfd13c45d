//! Property-based tests of the SPMD collectives: for arbitrary rank counts
//! and payloads, every collective must agree with its serial reference.

#![cfg(test)]

use proptest::prelude::*;

use crate::{spmd, ChaosRng, MachineModel, Outbox, Perturbation, Session, TraceLog};

/// Random compute multipliers in `[1, max_factor]`, one independent draw
/// per rank from the seeded splittable RNG.
pub(crate) fn seeded_profile(nranks: usize, seed: u64, max_factor: f64) -> Vec<f64> {
    let root = ChaosRng::new(seed);
    (0..nranks)
        .map(|r| 1.0 + root.split(r as u64).next_f64() * (max_factor - 1.0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn allgather_any_rank_count(nranks in 1usize..12, base in 0u64..1000) {
        let r = spmd(nranks, MachineModel::sp2(), move |comm| {
            comm.allgather(1, base + comm.rank() as u64)
        });
        let expect: Vec<u64> = (0..nranks as u64).map(|i| base + i).collect();
        for res in &r {
            prop_assert_eq!(&*res.value, &expect);
        }
    }

    #[test]
    fn bcast_any_root(nranks in 1usize..10, root_sel in 0usize..10, payload in any::<u64>()) {
        let root = root_sel % nranks;
        let r = spmd(nranks, MachineModel::sp2(), move |comm| {
            let v = (comm.rank() == root).then_some(payload);
            comm.bcast(root, 1, v)
        });
        for res in &r {
            prop_assert_eq!(*res.value, payload);
        }
    }

    #[test]
    fn allreduce_sum_matches_serial(values in proptest::collection::vec(0u64..1_000_000, 1..10)) {
        let n = values.len();
        let expect: u64 = values.iter().sum();
        let vals = values.clone();
        let r = spmd(n, MachineModel::sp2(), move |comm| {
            comm.allreduce_sum_u64(vals[comm.rank()])
        });
        for res in &r {
            prop_assert_eq!(res.value, expect);
        }
    }

    /// `exscan` equals the serial exclusive prefix under an associative,
    /// non-commutative `op` (concatenation), so both the set of ranks folded
    /// into each prefix and their order are checked.
    #[test]
    fn exscan_matches_serial_exclusive_prefix(
        values in proptest::collection::vec(0u64..1000, 1..41),
    ) {
        let n = values.len();
        let words: Vec<String> = values.iter().map(u64::to_string).collect();
        let vals = words.clone();
        let r = spmd(n, MachineModel::sp2(), move |comm| {
            comm.exscan(|_| 1, vals[comm.rank()].clone(), |a, b| format!("{a} {b}"))
        });
        prop_assert_eq!(&r[0].value, &None);
        for res in &r[1..] {
            prop_assert_eq!(res.value.as_ref(), Some(&words[..res.rank].join(" ")));
        }
    }

    #[test]
    fn alltoallv_is_a_transpose(nranks in 1usize..8) {
        let r = spmd(nranks, MachineModel::sp2(), move |comm| {
            let items: Vec<(u64, u64)> = (0..nranks)
                .map(|d| (1, (comm.rank() * 100 + d) as u64))
                .collect();
            comm.alltoallv(items)
        });
        for (dst, res) in r.iter().enumerate() {
            for (src, &got) in res.value.iter().enumerate() {
                prop_assert_eq!(got, (src * 100 + dst) as u64);
            }
        }
    }

    /// The direct exchange delivers exactly what the Bruck exchange does —
    /// same items, same sources, same order — for sparse random traffic
    /// with self-items and ranks that send or receive nothing.
    #[test]
    fn alltoallv_direct_delivers_what_sparse_delivers(
        nranks in 1usize..18,
        raw in proptest::collection::vec((0usize..17, 0usize..17, 0u64..50), 0..60),
    ) {
        let items = |rank: usize| -> Vec<(usize, u64, (usize, usize))> {
            raw.iter()
                .enumerate()
                .filter(|(_, (src, _, _))| src % nranks == rank)
                .map(|(i, &(_, dst, words))| (dst % nranks, words, (rank, i)))
                .collect()
        };
        let sparse = spmd(nranks, MachineModel::sp2(), |comm| {
            let mut out = Outbox::default();
            for (dst, words, v) in items(comm.rank()) {
                out.run(dst, words, [v]);
            }
            let got = comm.alltoallv_sparse(&mut out);
            got.iter().map(|(src, &v)| (src, v)).collect::<Vec<_>>()
        });
        let direct = spmd(nranks, MachineModel::sp2(), |comm| {
            comm.alltoallv_direct(items(comm.rank()))
        });
        for (a, b) in sparse.iter().zip(&direct) {
            prop_assert_eq!(&a.value, &b.value, "rank {}", a.rank);
        }
    }

    #[test]
    fn gather_preserves_rank_order(nranks in 1usize..10, root_sel in 0usize..10) {
        let root = root_sel % nranks;
        let r = spmd(nranks, MachineModel::sp2(), move |comm| {
            comm.gather(root, 1, comm.rank() as u32 * 3)
        });
        for (i, res) in r.iter().enumerate() {
            if i == root {
                let got = res.value.as_ref().unwrap();
                let expect: Vec<u32> = (0..nranks as u32).map(|x| x * 3).collect();
                prop_assert_eq!(got, &expect);
            } else {
                prop_assert!(res.value.is_none());
            }
        }
    }

    /// Every collective's virtual cost is bit-for-bit deterministic across
    /// repeated runs (real thread interleaving must not leak into the
    /// virtual clocks).
    #[test]
    fn each_collective_is_time_deterministic(
        nranks in 2usize..8,
        root_sel in 0usize..8,
        which in 0usize..9,
    ) {
        let root = root_sel % nranks;
        let run = move || -> Vec<f64> {
            let r = spmd(nranks, MachineModel::sp2(), move |comm| {
                match which {
                    0 => comm.barrier(),
                    1 => {
                        comm.bcast(root, 3, (comm.rank() == root).then_some(7u64));
                    }
                    2 => {
                        comm.gather(root, 1, comm.rank() as u64);
                    }
                    3 => {
                        let v = (comm.rank() == root).then(|| vec![(1, 1u64); comm.nranks()]);
                        comm.scatterv(root, v);
                    }
                    4 => {
                        comm.allgather(1, comm.rank() as u64);
                    }
                    5 => {
                        comm.allreduce_sum_u64(comm.rank() as u64);
                    }
                    6 => {
                        let items: Vec<(u64, u64)> =
                            (0..comm.nranks()).map(|d| (1, d as u64)).collect();
                        comm.alltoallv(items);
                    }
                    7 => {
                        comm.reduce(root, |_| 1, comm.rank() as u64, |a, b| a + b);
                    }
                    _ => {
                        comm.exscan(|_| 1, comm.rank() as u64, |a, b| a + b);
                    }
                }
            });
            r.iter().map(|x| x.elapsed).collect()
        };
        prop_assert_eq!(run(), run());
    }

    /// The trace invariant holds on a perturbed machine: under an arbitrary
    /// seeded rank profile and link jitter, the per-rank accounted time
    /// (`compute + wire + wait`) still reconstructs each rank's clock
    /// exactly, step after step.
    #[test]
    fn trace_invariant_covers_injected_faults(
        nranks in 2usize..6,
        seed in any::<u64>(),
        jitter in 0.0f64..0.5,
    ) {
        let perturb = Perturbation {
            profile: seeded_profile(nranks, seed, 3.0),
            link_jitter: jitter,
            seed,
        };
        let mut sess = Session::with_chaos(nranks, MachineModel::sp2(), &perturb);
        let mut accounted = vec![0.0; nranks];
        for step in 0..3u64 {
            let mut r = sess.run(vec![(); nranks], |comm, ()| {
                comm.allgather(1, comm.rank() as u64);
                comm.compute(50.0);
                comm.barrier();
            });
            let summary = TraceLog::from_results(&mut r).summary();
            for (s, res) in summary.ranks.iter().zip(&r) {
                accounted[s.rank] += s.total();
                prop_assert!(
                    (accounted[s.rank] - res.elapsed).abs() < 1e-9,
                    "step {} rank {}: accounted {} vs clock {}",
                    step, s.rank, accounted[s.rank], res.elapsed
                );
            }
        }
    }

    /// Chaotic runs export deterministically: the same seed, rank profile
    /// and link jitter produce byte-identical Chrome-trace JSON and text
    /// timelines.
    #[test]
    fn chaos_exports_roundtrip_fault_events_deterministically(seed in any::<u64>()) {
        let run = || {
            let nranks = 4;
            let perturb = Perturbation {
                profile: seeded_profile(nranks, seed, 2.0),
                link_jitter: 0.2,
                seed,
            };
            let mut sess = Session::with_chaos(nranks, MachineModel::sp2(), &perturb);
            let mut log = TraceLog::new(nranks);
            for _ in 0..2 {
                let mut r = sess.run(vec![(); nranks], |comm, ()| {
                    comm.allgather(1, comm.rank() as u64);
                });
                log.absorb(&mut r);
            }
            (log.chrome_json(), log.text_timeline())
        };
        let (json_a, text_a) = run();
        let (json_b, text_b) = run();
        prop_assert_eq!(&json_a, &json_b, "chrome export must be deterministic");
        prop_assert_eq!(&text_a, &text_b, "text export must be deterministic");
    }

    /// Perturbation changes only virtual times, never results: any jitter
    /// seed and rank profile leave collective outputs and message payloads
    /// bit-identical to the unperturbed run.
    #[test]
    fn perturbed_results_match_unperturbed(
        nranks in 2usize..8,
        seed in any::<u64>(),
        jitter in 0.01f64..0.5,
    ) {
        let run = |perturb: &Perturbation| {
            let mut sess = Session::with_chaos(nranks, MachineModel::sp2(), perturb);
            let r = sess.run(vec![(); nranks], |comm, ()| {
                let sum = comm.allreduce_sum_u64(comm.rank() as u64 + 1);
                let all = comm.allgather(1, sum * comm.rank() as u64);
                (sum, all)
            });
            r.into_iter().map(|x| x.value).collect::<Vec<_>>()
        };
        let clean = run(&Perturbation::none(nranks));
        let chaotic = run(&Perturbation {
            profile: seeded_profile(nranks, seed, 4.0),
            link_jitter: jitter,
            seed,
        });
        prop_assert_eq!(clean, chaotic);
    }

    /// Virtual clocks never decrease and barriers dominate the slowest rank.
    #[test]
    fn barrier_dominates_slowest(delays in proptest::collection::vec(0.0f64..10.0, 2..8)) {
        let n = delays.len();
        let slowest = delays.iter().cloned().fold(0.0, f64::max);
        let d = delays.clone();
        let r = spmd(n, MachineModel::sp2(), move |comm| {
            comm.advance(d[comm.rank()]);
            comm.barrier();
            comm.now()
        });
        for res in &r {
            prop_assert!(res.value >= slowest - 1e-12,
                "rank {} left the barrier at {} before the slowest rank ({})",
                res.rank, res.value, slowest);
        }
    }
}
