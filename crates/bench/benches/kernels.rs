//! Criterion benchmarks of the algorithm kernels underlying each
//! experiment: the multilevel partitioner and diffusive repartitioner
//! (Fig. 6), the reassignment layer (Table 2 and the weak-scaling shape),
//! marking propagation and subdivision (Fig. 4 / Table 1), the migration
//! codec (Fig. 5), the simulator's own layers (session step, large-payload
//! and sparse-row collectives, store-and-forward beside direct bulk
//! exchange), one whole multilevel repartition at the `multilevel_p256`
//! shape, and one remap phase at the `paper_p64` shape.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use plum_bench::{initial_mesh, marked_problem, Scale, CASES};
use plum_core::{parallel_migrate, Ownership, Plum, PlumConfig, WorkModel};
use plum_mesh::generate::box_mesh;
use plum_mesh::DualGraph;
use plum_parsim::{CollectiveKind, Comm, MachineModel, Session, TraceLog};
use plum_partition::{
    balance_body, balance_distributed, inflow_quota, merge_add, partition_kway, repartition_kway,
    stage_census, BalanceMethod, DistPartition, Graph, PartitionConfig, Problem, RankLists,
};
use plum_reassign::{greedy_mwbg, optimal_bmcm, optimal_mwbg, remap_stats, SimilarityMatrix};
use plum_remap::{Packer, Unpacker};
use plum_solver::WaveField;

fn dual_graph_of(scale: Scale) -> (DualGraph, Graph<'static>) {
    let mesh = initial_mesh(scale);
    let dual = DualGraph::build(&mesh);
    let g = Graph::from_csr(dual.xadj.clone(), dual.adjncy.clone(), dual.wcomp.clone());
    (dual, g)
}

fn bench_partitioner(c: &mut Criterion) {
    let (_, g) = dual_graph_of(Scale::Quick);
    let mut group = c.benchmark_group("partitioner");
    for nparts in [8usize, 64] {
        group.bench_function(format!("kway_p{nparts}"), |b| {
            b.iter(|| partition_kway(black_box(&g), &PartitionConfig::new(nparts)))
        });
    }
    // Diffusive repartitioning with drifted weights (the Fig. 6 inner loop).
    let base = partition_kway(&g, &PartitionConfig::new(16));
    let mut drifted = g.clone();
    for v in 0..drifted.n() {
        if base[v] < 4 {
            drifted.vwgt.to_mut()[v] = 6;
        }
    }
    group.bench_function("repartition_p16_drifted", |b| {
        b.iter(|| repartition_kway(black_box(&drifted), &PartitionConfig::new(16), &base))
    });
    group.finish();
}

/// Table 2's reassignment inputs at quick scale: `(wremap, old_proc,
/// new_part)` of the Real_2 case repartitioned over `nproc` processors.
fn table2_inputs(nproc: usize) -> (Vec<u64>, Vec<u32>, Vec<u32>) {
    let p = marked_problem(Scale::Quick, CASES[1].1);
    let pred = p.am.predict(&p.marks);
    let (_, wremap) = p.am.weights();
    let unit = Graph::from_csr(
        p.dual.xadj.clone(),
        p.dual.adjncy.clone(),
        vec![1; p.dual.n()],
    );
    let old = partition_kway(&unit, &PartitionConfig::new(nproc));
    let g = Graph::from_csr(p.dual.xadj.clone(), p.dual.adjncy.clone(), pred.wcomp);
    let new = repartition_kway(&g, &PartitionConfig::new(nproc), &old);
    (wremap, old, new)
}

/// The weak-scaling reassignment shape: 16 dual vertices per rank, 12 of
/// which stay on their rank's part and 4 move to the next one — two
/// non-zeros per similarity row however large `nproc` is.
fn weak_inputs(nproc: usize) -> (Vec<u64>, Vec<u32>, Vec<u32>) {
    let n = 16 * nproc;
    let wremap = (0..n).map(|v| (v % 5 + 1) as u64).collect();
    let old = (0..n).map(|v| (v / 16) as u32).collect();
    let new = (0..n)
        .map(|v| ((v / 16 + usize::from(v % 16 >= 12)) % nproc) as u32)
        .collect();
    (wremap, old, new)
}

/// The host's whole reassignment layer — matrix build, greedy mapper,
/// movement statistics — at the paper's shape (P = 64, a dense-ish Table 2
/// matrix) and at the weak-scaling one (P = 2048, two non-zeros per row),
/// where anything that walks `P × nparts` cells instead of the non-zeros
/// shows. The optimal mappers run at P = 64 only: they are `O(P³)` and
/// work from a dense table of their own.
fn bench_reassign_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("reassign_scale");
    for (shape, nproc, (wremap, old, new)) in [
        ("table2_p64", 64usize, table2_inputs(64)),
        ("weak_p2048", 2048, weak_inputs(2048)),
    ] {
        group.bench_function(format!("from_assignments_{shape}"), |b| {
            b.iter(|| {
                SimilarityMatrix::from_assignments(black_box(&wremap), &old, &new, nproc, nproc)
            })
        });
        let sm = SimilarityMatrix::from_assignments(&wremap, &old, &new, nproc, nproc);
        group.bench_function(format!("greedy_mwbg_{shape}"), |b| {
            b.iter(|| greedy_mwbg(black_box(&sm)))
        });
        let assignment = greedy_mwbg(&sm);
        group.bench_function(format!("remap_stats_{shape}"), |b| {
            b.iter(|| remap_stats(black_box(&sm), &assignment))
        });
        if nproc == 64 {
            group.bench_function(format!("optimal_mwbg_{shape}"), |b| {
                b.iter(|| optimal_mwbg(black_box(&sm)))
            });
            group.bench_function(format!("optimal_bmcm_{shape}"), |b| {
                b.iter(|| optimal_bmcm(black_box(&sm), 1.0, 1.0))
            });
        }
    }
    group.finish();
}

fn bench_adaption(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaption");
    group.sample_size(10);
    for (name, frac) in CASES {
        group.bench_function(format!("mark_and_refine_{name}"), |b| {
            b.iter_batched(
                || marked_problem(Scale::Quick, frac),
                |mut p| {
                    p.am.refine(&p.marks, std::slice::from_mut(&mut p.field));
                    p.am.mesh.n_elems()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_ownership(c: &mut Criterion) {
    // Ownership construction on a refined mesh: what every cycle, on either
    // driver, pays once when it opens (one pass over the elements for the
    // per-rank lists, one over the edge slots for the shared-edge lists).
    let mut group = c.benchmark_group("ownership");
    let mut p = marked_problem(Scale::Quick, CASES[1].1);
    p.am.refine(&p.marks, std::slice::from_mut(&mut p.field));
    for nproc in [8usize, 64] {
        let roots = p.am.n_roots();
        let proc: Vec<u32> = (0..roots).map(|v| (v * nproc / roots) as u32).collect();
        group.bench_function(format!("build_p{nproc}"), |b| {
            b.iter(|| Ownership::build(black_box(&p.am), black_box(&proc), nproc))
        });
    }
    group.finish();

    // What a cycle report reads (three counters) against what Table 1 adds
    // to it (a hash map over every face of the same mesh).
    let mut group = c.benchmark_group("mesh_counts");
    group.bench_function("counts", |b| b.iter(|| black_box(&p.am.mesh).counts()));
    group.bench_function("boundary_faces_len", |b| {
        b.iter(|| black_box(&p.am.mesh).boundary_faces().len())
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("migration_codec");
    group.bench_function("pack_unpack_10k_records", |b| {
        b.iter(|| {
            let mut p = Packer::new();
            for i in 0..10_000u32 {
                p.put_u32(i);
                p.put_u8(1);
                p.put_u8(0b111111);
                for k in 0..4u32 {
                    p.put_u32(i + k);
                    p.put_f64_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
                }
            }
            let buf = p.finish();
            let mut u = Unpacker::new(&buf);
            let mut sum = 0u64;
            while !u.is_exhausted() {
                sum += u.get_u32() as u64;
                u.get_u8();
                u.get_u8();
                for _ in 0..4 {
                    sum += u.get_u32() as u64;
                    sum += u.get_f64_slice().len() as u64;
                }
            }
            black_box(sum)
        })
    });
    group.finish();
}

/// A synthetic multi-phase session timeline: per-phase compute, a ring
/// exchange, and a barrier — the event mix of a real cycle log.
fn synthetic_session(nranks: usize) -> TraceLog {
    let mut session = Session::new(nranks, MachineModel::sp2());
    let mut log = TraceLog {
        events: vec![Vec::new(); nranks],
    };
    for (p, phase) in ["alpha", "beta", "gamma"].into_iter().enumerate() {
        let results = session.run(vec![(); nranks], move |comm, ()| {
            comm.phase(phase, |c| {
                c.compute(5_000.0 * (1.0 + c.rank() as f64 / 10.0));
                let next = (c.rank() + 1) % c.nranks();
                let prev = (c.rank() + c.nranks() - 1) % c.nranks();
                for round in 0..100u64 {
                    let tag = (p as u64) << 32 | round;
                    c.send(next, tag, 64, round);
                    let _: u64 = c.recv(prev, tag);
                }
                c.barrier();
            });
        });
        for mut r in results {
            log.events[r.rank].append(&mut r.events);
        }
    }
    log
}

/// Pins the per-step overhead of the fiber executor itself: spawn P rank
/// tasks, run a trivial ring exchange, tear the step down. The step path
/// reuses fiber stacks and the per-rank delay buffer, so per-step cost must
/// stay O(ranks + messages) with no per-step O(P) allocation storms.
fn bench_session_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_step");
    group.sample_size(20);
    for nranks in [8usize, 64, 256] {
        let mut session = Session::new(nranks, MachineModel::sp2());
        group.bench_function(format!("ring_step_p{nranks}"), |b| {
            b.iter(|| {
                let results = session.run(vec![(); nranks], |comm, ()| {
                    let next = (comm.rank() + 1) % comm.nranks();
                    let prev = (comm.rank() + comm.nranks() - 1) % comm.nranks();
                    comm.send(next, 7, 8, comm.rank() as u64);
                    let got: u64 = comm.recv(prev, 7);
                    got
                });
                black_box(results.len())
            })
        });
        // Compute-only step: isolates spawn/teardown from messaging.
        group.bench_function(format!("compute_step_p{nranks}"), |b| {
            b.iter(|| {
                let results = session.run(vec![(); nranks], |comm, ()| {
                    comm.compute(100.0);
                });
                black_box(results.len())
            })
        });
    }
    group.finish();
}

/// One distributed multilevel repartition's modeled cost, deterministic and
/// printed once: virtual partition seconds, stages (one `Exscan` each) and
/// how many of them were gain stages, messages and words, the rank-0 round
/// trip's `Gather` and `Scatter` calls, and the hierarchy's coarsest size —
/// above the coarsening target when matching stalled, which on a seeded
/// problem skips the round trip.
fn print_multilevel(name: &str, problem: &Problem, owner: &[u32], nranks: usize) {
    let d = multilevel_run(problem, owner, nranks);
    let summary = d.trace.summary();
    let rank0 = &summary.ranks[0];
    let census = stage_census(problem, owner, nranks);
    let coarsest = census.last().unwrap().n;
    let target = problem.cfg.coarsen_target();
    let gain_stages: usize = census.iter().map(|level| level.gain.len()).sum();
    println!(
        "multilevel_stage: {name}: virtual partition {:.6} s, {} stages ({gain_stages} gain), \
         {} msgs, {} words, {} gathers, {} scatters, coarsest {coarsest} after {} contractions \
         (target {target}), stalled {}",
        d.makespan,
        rank0.collective(CollectiveKind::Exscan).calls,
        summary.total_msgs(),
        summary.total_words(),
        rank0.collective(CollectiveKind::Gather).calls,
        rank0.collective(CollectiveKind::Scatter).calls,
        census.len() - 1,
        problem.seed.is_some() && coarsest > target,
    );
}

/// One multilevel repartition of `problem` over `nranks` ranks on its own
/// session, charged per vertex as the engine charges it.
fn multilevel_run(problem: &Problem, owner: &[u32], nranks: usize) -> DistPartition {
    let model = MachineModel::sp2();
    let vertex_units = WorkModel::default().t_part_vertex / model.t_flop / 4.0;
    balance_distributed(
        BalanceMethod::Multilevel,
        problem,
        owner,
        nranks,
        model,
        vertex_units,
    )
}

/// One whole multilevel repartition on its own session, twice over. At the
/// `multilevel_p256` shape — 11³ cells = 7 986 dual vertices over P = 256
/// ranks (31 per rank), every fifth part grown 8× heavier, forced — the
/// hierarchy reaches its target, so the coarsest graph is solved on rank 0
/// and scattered. At the `paper_p64` shape — the paper-scale dual graph
/// (≈ 61k vertices) weighted by one remap-before Real_2 cycle, seeded with
/// the mapping before it, P = 64 — matching stalls above the target, and
/// the coarse seed is diffused in parallel. Each covers coarsening, the
/// coarsest partition and the refinement stages whose per-stage collectives
/// `collectives_payload` prices one call at a time. The timer reports host
/// µs per repartition; the modeled numbers are printed once.
fn bench_multilevel_stage(c: &mut Criterion) {
    const P: usize = 256;
    let dual = DualGraph::build(&box_mesh(11, 11, 11, [0.0; 3], [1.0; 3]));
    let n = dual.n();
    let cfg = PartitionConfig::new(P);
    let unit = Graph::from_csr(dual.xadj.clone(), dual.adjncy.clone(), vec![1; n]);
    let prev = partition_kway(&unit, &cfg);
    let vwgt = prev.iter().map(|&q| if q % 5 == 0 { 8 } else { 1 });
    let g = Graph::from_csr(dual.xadj.clone(), dual.adjncy.clone(), vwgt.collect());
    let caps = vec![1.0; P];
    let problem = Problem::new(&g, None, None, Some(&prev), &caps, &cfg);
    print_multilevel(&format!("N={n} P={P}"), &problem, &prev, P);

    const PAPER_P: usize = 64;
    let (plum, before) = paper_cycle(PAPER_P);
    let dual = &plum.dual;
    let paper_g = Graph::view(&dual.xadj, &dual.adjncy, &dual.wcomp);
    let paper_cfg = PartitionConfig::new(PAPER_P);
    let paper_caps = vec![1.0; PAPER_P];
    let paper = Problem::new(&paper_g, None, None, Some(&before), &paper_caps, &paper_cfg);
    let name = format!("N={} P={PAPER_P} paper", dual.n());
    print_multilevel(&name, &paper, &before, PAPER_P);

    let mut group = c.benchmark_group("multilevel_stage");
    group.sample_size(10);
    group.bench_function("balance_distributed_p256_n8k", |b| {
        b.iter(|| black_box(multilevel_run(&problem, &prev, P)))
    });
    group.bench_function("balance_distributed_p64_paper", |b| {
        b.iter(|| black_box(multilevel_run(&paper, &before, PAPER_P)))
    });
    group.finish();
}

/// Host cost of the replicating collectives when the payload is as large
/// as its declared size — a full-partition broadcast and the sized scatter
/// of the same words that replaced it on the balance path, the dense
/// `nparts`-word rows the multilevel refinement's per-stage exscan and
/// allreduce carried at P = 256 (`w256`), the 8-entry sparse rows they
/// carry now (`nnz8`: every rank asks for the same eight parts, so the fold
/// stays eight entries and every message declares 17 words) — beside the
/// `P × nparts`-word allgather the exscan replaced — and the reductions a
/// loop gets on the exchange it makes anyway: `alltoallv_sparse_join` with a
/// one-bit share (a marking sweep's "changed") and with one 8-entry commit
/// per rank (a refinement stage's `(moves, Δw)`), beside the pair they
/// replace, an empty `alltoallv_sparse` plus the 8-entry `allreduce`. One
/// call per session step; the step's own cost is
/// `session_step/compute_step_p256`. The
/// 1-word probes of the e2e benchmark cannot see a per-forward payload
/// copy; these can.
fn bench_collectives_payload(c: &mut Criterion) {
    const P: usize = 256;
    let mut group = c.benchmark_group("collectives_payload");
    group.sample_size(20);
    let mut session = Session::new(P, MachineModel::sp2());
    group.bench_function("allgather_p256_w256", |b| {
        b.iter(|| {
            session.run(vec![(); P], |comm, ()| {
                black_box(comm.allgather(256, vec![comm.rank() as u64; 256]));
            })
        })
    });
    group.bench_function("bcast_p256_w65536", |b| {
        b.iter(|| {
            session.run(vec![(); P], |comm, ()| {
                let value = (comm.rank() == 0).then(|| vec![7u64; 65_536]);
                black_box(comm.bcast(0, 65_536, value));
            })
        })
    });
    // The same 65 536 words sent the other way the balance path now sends
    // them: each rank receives only its own 256-word block.
    group.bench_function("scatterv_p256_w65536", |b| {
        b.iter(|| {
            session.run(vec![(); P], |comm, ()| {
                let blocks = (comm.rank() == 0).then(|| vec![(256, vec![7u64; 256]); P]);
                black_box(comm.scatterv(0, blocks));
            })
        })
    });
    // The reducing collectives of a refinement stage, dense and sparse. The
    // modeled cost of one call (fresh session, all ranks entering at zero)
    // is deterministic and printed once; the timer reports the host's.
    let hot: Vec<(u32, u64)> = (100..108).map(|q| (q, 3)).collect();
    let row_words = |row: &Vec<(u32, u64)>| 1 + 2 * row.len() as u64;
    let add = |a: &Vec<u64>, b: &Vec<u64>| a.iter().zip(b).map(|(x, y)| x + y).collect();
    type Commits = Vec<(usize, Arc<Vec<(u32, u64)>>)>;
    let union = |mut a: Commits, b: Commits| -> Commits {
        a.extend(b);
        a.sort_by_key(|c| c.0);
        a.dedup_by_key(|c| c.0);
        a
    };
    let commit_words = |s: &Commits| s.iter().map(|c| 1 + row_words(&c.1)).sum::<u64>();
    let nothing = Vec::<(usize, u64, ())>::new;
    type Probe<'a> = &'a (dyn Fn(&mut Comm) + Send + Sync);
    let probes: [(&str, Probe); 7] = [
        ("allreduce_p256_w256", &|comm| {
            black_box(comm.allreduce(|_| 256, vec![1u64; 256], |a, b| add(&a, &b)));
        }),
        ("exscan_p256_w256", &|comm| {
            black_box(comm.exscan(|_| 256, vec![1u64; 256], add));
        }),
        ("allreduce_p256_nnz8", &|comm| {
            black_box(comm.allreduce(row_words, hot.clone(), |a, b| merge_add(&a, &b)));
        }),
        ("exscan_p256_nnz8", &|comm| {
            black_box(comm.exscan(row_words, hot.clone(), |a, b| merge_add(a, b)));
        }),
        ("alltoallv_sparse_join_p256_bool", &|comm| {
            let changed = comm.rank() == 0;
            black_box(comm.alltoallv_sparse_join(nothing(), changed, |_| 0, |a, b| a || b));
        }),
        ("alltoallv_sparse_join_p256_commit8", &|comm| {
            let mine = vec![(comm.rank(), Arc::new(hot.clone()))];
            black_box(comm.alltoallv_sparse_join(nothing(), mine, commit_words, union));
        }),
        ("alltoallv_sparse_allreduce_p256_nnz8", &|comm| {
            black_box(comm.alltoallv_sparse(nothing()));
            black_box(comm.allreduce(row_words, hot.clone(), |a, b| merge_add(&a, &b)));
        }),
    ];
    for (name, probe) in probes {
        let mut fresh = Session::new(P, MachineModel::sp2());
        fresh.run(vec![(); P], |comm, ()| probe(comm));
        println!("  {name}: {:.1} virtual us per call", fresh.now() * 1e6);
        group.bench_function(name, |b| {
            b.iter(|| session.run(vec![(); P], |comm, ()| probe(comm)))
        });
    }

    // Bulk payload, migration-shaped: at P = 64 every rank ships 1 024
    // words, 256 to each of four neighbours (±1 and ±8 around the ring),
    // 65 536 words machine-wide — store-and-forwarded along the Bruck
    // rounds, and sent direct behind the rounds' empty notices. The
    // modeled cost of one call and its declared words are printed once.
    const Q: usize = 64;
    let bulk = |comm: &Comm| -> Vec<(usize, u64, Vec<u64>)> {
        let rank = comm.rank();
        [1, Q - 1, 8, Q - 8]
            .into_iter()
            .map(|k| ((rank + k) % Q, 256, vec![rank as u64; 256]))
            .collect()
    };
    let mut session64 = Session::new(Q, MachineModel::sp2());
    type BulkProbe<'a> = &'a (dyn Fn(&mut Comm) + Send + Sync);
    let bulk_probes: [(&str, BulkProbe); 2] = [
        ("alltoallv_sparse_p64_w65536", &|comm| {
            black_box(comm.alltoallv_sparse(bulk(comm)));
        }),
        ("alltoallv_direct_p64_w65536", &|comm| {
            black_box(comm.alltoallv_direct(bulk(comm)));
        }),
    ];
    for (name, probe) in bulk_probes {
        let mut fresh = Session::new(Q, MachineModel::sp2());
        let mut results = fresh.run(vec![(); Q], |comm, ()| probe(comm));
        let summary = TraceLog::from_results(&mut results).summary();
        println!(
            "  {name}: {:.1} virtual us per call, {} msgs, {} words",
            fresh.now() * 1e6,
            summary.total_msgs(),
            summary.total_words()
        );
        group.bench_function(name, |b| {
            b.iter(|| session64.run(vec![(); Q], |comm, ()| probe(comm)))
        });
    }

    // The inflow quota of one refinement stage, summed over all 256 ranks:
    // every rank asks for weight in the six parts around its own, and reads
    // the exclusive scan of the asks below it.
    let max_w = vec![1_000u64; P];
    let w: Vec<u64> = (0..P as u64).map(|q| 900 + q % 150).collect();
    let demand: Vec<Vec<(u32, u64)>> = (0..P)
        .map(|r| {
            (0..6)
                .map(|k| (((r + k) % P) as u32, 10 + k as u64))
                .collect()
        })
        .collect();
    let mut below: Vec<Vec<(u32, u64)>> = vec![Vec::new()];
    for r in 1..P {
        below.push(merge_add(&below[r - 1], &demand[r - 1]));
    }
    group.bench_function("refine_quota_p256", |b| {
        b.iter(|| {
            (0..P)
                .map(|rank| inflow_quota(black_box(&below[rank]), &demand[rank], &max_w, &w)[rank])
                .sum::<u64>()
        })
    });
    group.finish();
}

/// The paper-scale framework (≈ 61k elements) over `nproc` ranks after its
/// first remap-before Real_2 cycle, and the mapping before that cycle. The
/// dual graph's weights are the ones the cycle balanced.
fn paper_cycle(nproc: usize) -> (Plum, Vec<u32>) {
    let mut plum = Plum::new(
        initial_mesh(Scale::Paper),
        WaveField::unit_box(),
        PlumConfig::new(nproc),
    );
    let before = plum.proc_of_root.clone();
    plum.adaption_cycle(CASES[1].1, 0.1);
    (plum, before)
}

/// The remap phase of one `paper_p64`-shaped cycle on its own: the first
/// remap-before Real_2 cycle at paper scale (≈ 61k elements, P = 64) picks
/// a new mapping, and `parallel_migrate` ships the cycle's refined trees
/// from the old mapping to it. The modeled remap seconds, words and
/// messages are deterministic and printed once; the timer reports host ms
/// per migration (packing, the exchange, unpacking and validation).
fn bench_migrate(c: &mut Criterion) {
    const P: usize = 64;
    let (plum, old) = paper_cycle(P);
    let new = plum.proc_of_root.clone();
    let model = MachineModel::sp2();
    let run = || parallel_migrate(&plum.am, &plum.field, &old, &new, P, model);
    let out = run();
    println!(
        "  migrate_p64_paper: {:.6} virtual s, {} elements, {} words, {} msgs",
        out.time, out.elems_moved, out.words_moved, out.msgs
    );
    let mut group = c.benchmark_group("migrate");
    group.sample_size(10);
    group.bench_function("parallel_migrate_p64_paper", |b| {
        b.iter(|| black_box(run()))
    });
    group.finish();
}

/// One replicated-arithmetic balancer body — SFC boundary diffusion, the
/// `weak_p2048` workload's method — as a session step at P = 2048 over
/// N = 32 768 vertices (16 per rank), partition hoisted outside the timed
/// region. Each rank's host work is the step itself plus what it does to
/// find its 16 vertices, which is what this case puts a number on: with a
/// replicated owner array every rank scanned all N (P·N = 67 M reads per
/// step); with rank lists it reads its own. Compare against
/// `session_step/compute_step_p256` scaled by 8 for the step's own cost.
/// The step's modeled cost — virtual seconds and declared words, one
/// exchange whose home ranks check what lands on them — is deterministic
/// and printed once; the timer reports the host's.
fn bench_replicated_body(c: &mut Criterion) {
    const P: usize = 2048;
    const N: usize = 32_768;
    let vwgt: Vec<u64> = (0..N).map(|v| if v < N / 5 { 17 } else { 16 }).collect();
    let g = Graph::from_csr(vec![0; N + 1], Vec::new(), vwgt);
    let keys: Vec<u64> = (0..N as u64).collect();
    let prev: Vec<u32> = (0..N).map(|v| (v * P / N) as u32).collect();
    let caps = vec![1.0; P];
    let cfg = PartitionConfig::new(P);
    let problem = Problem::new(&g, None, Some(&keys), Some(&prev), &caps, &cfg);
    let method = BalanceMethod::SfcDiffusion;
    let lists = RankLists::build(&prev, P);
    let hoisted = method.hoist(&problem, P);
    let body =
        |comm: &mut Comm| balance_body(method, comm, &problem, &lists, 16.0, hoisted.as_ref());
    let mut fresh = Session::new(P, MachineModel::sp2());
    let mut results = fresh.run(vec![(); P], |comm, ()| body(comm));
    let words = TraceLog::from_results(&mut results).summary().total_words();
    println!(
        "  replicated_body_p2048: {:.3} virtual ms, {words} words per step",
        fresh.now() * 1e3
    );
    let mut session = Session::new(P, MachineModel::sp2());
    let mut group = c.benchmark_group("balance_body");
    group.sample_size(10);
    group.bench_function("replicated_body_p2048", |b| {
        b.iter(|| {
            session.run(vec![(); P], |comm, ()| {
                black_box(body(comm));
            })
        })
    });
    group.finish();
}

/// What reading a session log costs per recorded event, reader by reader —
/// the number to hold against the cost of recording it (ROADMAP item 4).
fn bench_trace_aggregation(c: &mut Criterion) {
    let log = synthetic_session(256);
    // Setup sanity: every reader below assumes a log that passes its audit.
    log.audit().expect("synthetic session must pass its audit");
    assert_eq!(log.phase_breakdowns().len(), 3);
    let events: usize = log.events.iter().map(Vec::len).sum();

    let mut group = c.benchmark_group("trace_aggregation");
    group.throughput(Throughput::Elements(events as u64));
    group.bench_function("summary", |b| b.iter(|| black_box(&log).summary()));
    group.bench_function("one_pass_phase_breakdowns", |b| {
        b.iter(|| black_box(&log).phase_breakdowns())
    });
    group.bench_function("phase_rank_breakdowns", |b| {
        b.iter(|| black_box(&log).phase_rank_breakdowns())
    });
    group.bench_function("audit", |b| b.iter(|| black_box(&log).audit()));
    group.finish();
}

criterion_group!(
    benches,
    bench_partitioner,
    bench_reassign_scale,
    bench_adaption,
    bench_ownership,
    bench_codec,
    bench_session_step,
    bench_multilevel_stage,
    bench_collectives_payload,
    bench_replicated_body,
    bench_migrate,
    bench_trace_aggregation
);
criterion_main!(benches);
