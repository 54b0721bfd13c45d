//! Criterion benchmarks of the algorithm kernels underlying each
//! experiment: the multilevel partitioner and diffusive repartitioner
//! (Fig. 6), the reassignment layer (Table 2 and the weak-scaling shape),
//! marking propagation and subdivision (Fig. 4 / Table 1) with the
//! refinement forest's heap per node after it, one solver sweep
//! on the refined paper-scale mesh, the migration
//! codec (Fig. 5), the simulator's own layers (session step, large-payload
//! and sparse-row collectives, store-and-forward beside direct bulk
//! exchange), one whole multilevel repartition at the `multilevel_p256`
//! shape, the SFC-diffusion body at the `weak_p2048` and fig6_mild shapes,
//! and one remap phase at the `paper_p64` shape.
//!
//! The process counts its heap allocations ([`Counting`]), so the
//! multilevel lines also print what one repartition allocates.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use plum_bench::{initial_mesh, marked_problem, Scale, CASES};
use plum_core::{parallel_migrate, Ownership, Plum, PlumConfig, WorkModel};
use plum_mesh::generate::box_mesh;
use plum_mesh::DualGraph;
use plum_parsim::{
    CollectiveKind, Comm, Hop, MachineModel, Outbox, RankResult, Session, TraceEvent, TraceLog,
};
use plum_partition::{
    balance_body, balance_distributed, inflow_quota, merge_add, partition_kway, repartition_kway,
    stage_census, BalanceMethod, DistPartition, Graph, PartitionConfig, Problem, RankLists,
};
use plum_reassign::{greedy_mwbg, optimal_bmcm, optimal_mwbg, remap_stats, SimilarityMatrix};
use plum_remap::{Packer, Unpacker};
use plum_solver::{solve, SolverConfig, WaveField};

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

    // Refinement alone at the paper's shape: Real_2 on the ≈ 61k-element
    // grid, the first refinement of a `paper_p64` cycle. The marking, the
    // clone before each sample and the drop after it stay outside the timer.
    let p = marked_problem(Scale::Paper, CASES[1].1);
    let mut samples: Vec<Duration> = (0..5)
        .map(|_| {
            let (mut am, mut field) = (p.am.clone(), p.field.clone());
            let start = Instant::now();
            am.refine(&p.marks, std::slice::from_mut(&mut field));
            let elapsed = start.elapsed();
            black_box(&am);
            elapsed
        })
        .collect();
    samples.sort();
    println!(
        "  adaption/refine_only: median {:?}",
        samples[samples.len() / 2]
    );

    // One solve on that refined mesh (the solver phase of a `paper_p64`
    // cycle after its first refinement), median of 5: the field's clone
    // stays outside the timer.
    let (mut am, mut field) = (p.am.clone(), p.field.clone());
    am.refine(&p.marks, std::slice::from_mut(&mut field));
    // What the refinement forest holds on the heap after that refinement,
    // per live tree node (vector capacities, allocator headers left out).
    let forest = am.forest();
    println!(
        "  adaption/forest_heap: {:.1} bytes per live node ({} nodes)",
        forest.heap_bytes() as f64 / forest.n_nodes() as f64,
        forest.n_nodes()
    );
    let wave = WaveField::unit_box();
    let mut samples: Vec<Duration> = (0..5)
        .map(|_| {
            let mut f = field.clone();
            let start = Instant::now();
            solve(&am.mesh, &mut f, &wave, 0.3, &SolverConfig::default());
            let elapsed = start.elapsed();
            black_box(&f);
            elapsed
        })
        .collect();
    samples.sort();
    println!(
        "  solver/solve: median {:?} ({} edges)",
        samples[samples.len() / 2],
        am.mesh.n_edges()
    );
}

fn bench_ownership(c: &mut Criterion) {
    // Ownership construction on a refined mesh: what every cycle, on either
    // driver, pays once when it opens (one pass over the elements for the
    // per-rank lists, and the shared-edge lists' counting pass over every
    // element's six edges).
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
    let mut log = TraceLog::new(nranks);
    for (p, phase) in ["alpha", "beta", "gamma"].into_iter().enumerate() {
        let mut results = session.run(vec![(); nranks], move |comm, ()| {
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
        log.absorb(&mut results);
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

/// The system allocator, counting this process's allocations (a
/// reallocation is one) and the bytes they request.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

impl Counting {
    fn count(size: usize) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }

    /// `(allocations, bytes)` so far.
    fn so_far() -> (u64, u64) {
        let n = ALLOCATIONS.load(Ordering::Relaxed);
        (n, ALLOCATED_BYTES.load(Ordering::Relaxed))
    }
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One distributed multilevel repartition's modeled cost, deterministic and
/// printed once: virtual partition seconds, stages (one `Exscan` each) and
/// how many of them were gain stages, messages and words, the rank-0 round
/// trip's `Gather` and `Scatter` calls, the hierarchy's coarsest size —
/// above the coarsening target when coarsening stopped early — whether the
/// coarse seed was diffused instead (a seeded problem that stopped early
/// skips the round trip), and every level's size, finest first, so each
/// contraction's shrink shows, then the heap allocations the repartition
/// made and the bytes they requested.
fn print_multilevel(name: &str, problem: &Problem, owner: &[u32], nranks: usize) {
    // A first run fills the thread's pool of fiber stacks.
    black_box(multilevel_run(problem, owner, nranks));
    let (n0, bytes0) = Counting::so_far();
    let d = multilevel_run(problem, owner, nranks);
    let (n1, bytes1) = Counting::so_far();
    let summary = d.trace.summary();
    let rank0 = &summary.ranks[0];
    let census = stage_census(problem, owner, nranks);
    let sizes: Vec<usize> = census.iter().map(|level| level.n).collect();
    let coarsest = *sizes.last().unwrap();
    let target = problem.cfg.coarsen_target();
    let gain_stages: usize = census.iter().map(|level| level.gain.len()).sum();
    println!(
        "multilevel_stage: {name}: virtual partition {:.6} s, {} stages ({gain_stages} gain), \
         {} msgs, {} words, {} gathers, {} scatters, coarsest {coarsest} after {} contractions \
         (target {target}), seed diffused {}, levels {sizes:?}, {} allocations, {:.1} MB \
         allocated",
        d.makespan,
        rank0.collective(CollectiveKind::Exscan).calls,
        summary.total_msgs(),
        summary.total_words(),
        rank0.collective(CollectiveKind::Gather).calls,
        rank0.collective(CollectiveKind::Scatter).calls,
        census.len() - 1,
        problem.seed.is_some() && coarsest > target,
        n1 - n0,
        (bytes1 - bytes0) as f64 / 1e6,
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
/// the mapping before it, P = 64 — the hierarchy stops above the target,
/// at its first contraction that would keep more than three quarters of a
/// level, and the coarse seed is diffused in parallel. The same graph with
/// no seed is the fresh side of that rule: a fresh hierarchy coarsens on
/// while a contraction keeps at most 95 % of its level, and its coarsest
/// graph is solved on rank 0. Each covers coarsening, the coarsest
/// partition and the refinement stages whose per-stage collectives
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
    let fresh = Problem::new(&paper_g, None, None, None, &paper_caps, &paper_cfg);
    print_multilevel(&format!("{name} fresh"), &fresh, &before, PAPER_P);

    let mut group = c.benchmark_group("multilevel_stage");
    group.sample_size(10);
    group.bench_function("balance_distributed_p256_n8k", |b| {
        b.iter(|| black_box(multilevel_run(&problem, &prev, P)))
    });
    group.bench_function("balance_distributed_p64_paper", |b| {
        b.iter(|| black_box(multilevel_run(&paper, &before, PAPER_P)))
    });
    group.bench_function("balance_distributed_p64_paper_fresh", |b| {
        b.iter(|| black_box(multilevel_run(&fresh, &before, PAPER_P)))
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
/// copy; these can. Last, the host cost of the latency-bound collectives
/// at P = 64, 256 and 2048 (see [`control_collective`]), beside the trace
/// bytes a call leaves (see [`control_trace_bytes`]).
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
    let union = |a: &Commits, b: &Commits| -> Commits {
        let mut u: Commits = a.iter().chain(b).cloned().collect();
        u.sort_by_key(|c| c.0);
        u.dedup_by_key(|c| c.0);
        u
    };
    let commit_words = |s: &Commits| s.iter().map(|c| 1 + row_words(&c.1)).sum::<u64>();
    let nothing = Outbox::<()>::default;
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
            black_box(comm.alltoallv_sparse_join(&mut nothing(), changed, |_| 0, |a, b| *a || *b));
        }),
        ("alltoallv_sparse_join_p256_commit8", &|comm| {
            let mine = vec![(comm.rank(), Arc::new(hot.clone()))];
            black_box(comm.alltoallv_sparse_join(&mut nothing(), mine, commit_words, union));
        }),
        ("alltoallv_sparse_allreduce_p256_nnz8", &|comm| {
            black_box(comm.alltoallv_sparse(&mut nothing()));
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
    // The same runs as one flat payload.
    let bulk_outbox = |comm: &Comm| {
        let mut out = Outbox::with_capacity(1_024, 4);
        for (dst, words, vals) in bulk(comm) {
            out.run(dst, words, vals);
        }
        out
    };
    let mut session64 = Session::new(Q, MachineModel::sp2());
    type BulkProbe<'a> = &'a (dyn Fn(&mut Comm) + Send + Sync);
    let bulk_probes: [(&str, BulkProbe); 2] = [
        ("alltoallv_sparse_p64_w65536", &|comm| {
            black_box(comm.alltoallv_sparse(&mut bulk_outbox(comm)));
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

    // The latency-bound collectives of a marking sweep, an SFC transport
    // and a refinement stage, up to the `weak_p2048` shape.
    type Control<'a> = &'a (dyn Fn(&mut Comm) + Send + Sync);
    let control: [(&str, Control); 5] = [
        ("barrier", &|comm| comm.barrier()),
        ("allreduce_w1", &|comm| {
            black_box(comm.allreduce_sum_u64(1));
        }),
        ("exscan_w1", &|comm| {
            black_box(comm.exscan(|_| 1, 1u64, |a, b| a + b));
        }),
        ("alltoallv_sparse_join_bool", &|comm| {
            let changed = comm.rank() == 0;
            black_box(comm.alltoallv_sparse_join(&mut nothing(), changed, |_| 0, |a, b| *a || *b));
        }),
        ("alltoallv_direct_empty", &|comm| {
            black_box(comm.alltoallv_direct(Vec::<(usize, u64, ())>::new()));
        }),
    ];
    for nranks in [64usize, 256, 2048] {
        let mut session = Session::new(nranks, MachineModel::sp2());
        for (name, probe) in control {
            let us = control_collective(&mut session, probe) * 1e6;
            let bytes = control_trace_bytes(&mut session, probe);
            println!(
                "  collectives_payload/{name}_p{nranks}: {us:.1} host us per call, \
                 {bytes} trace bytes per call"
            );
        }
    }
    group.finish();
}

/// Median host seconds per call of `probe` on every rank, over ten samples
/// on a session whose fibers are warm. A sample runs eight calls in one
/// step and is charged that step's time less an empty step's, run right
/// after it, so the step's own spawn and teardown drop out (and a step's
/// trace stays small at P = 2048).
fn control_collective(session: &mut Session, probe: &(dyn Fn(&mut Comm) + Send + Sync)) -> f64 {
    const CALLS: usize = 8;
    let nranks = session.nranks();
    let mut timed = |body: &(dyn Fn(&mut Comm) + Send + Sync)| {
        let start = Instant::now();
        session.run(vec![(); nranks], |comm, ()| body(comm));
        start.elapsed().as_secs_f64()
    };
    let empty = |comm: &mut Comm| comm.compute(1.0);
    timed(&empty);
    let mut samples: Vec<f64> = (0..10)
        .map(|_| {
            let full = timed(&|comm| (0..CALLS).for_each(|_| probe(comm)));
            (full - timed(&empty)).max(0.0) / CALLS as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Trace bytes one call of `probe` on every rank leaves: the events' and
/// hops' counts times their sizes, over a step of eight calls less an empty
/// step's.
fn control_trace_bytes(session: &mut Session, probe: &(dyn Fn(&mut Comm) + Send + Sync)) -> usize {
    const CALLS: usize = 8;
    let nranks = session.nranks();
    let bytes = |results: Vec<RankResult<()>>| -> usize {
        let events: usize = results.iter().map(|r| r.events.len()).sum();
        let hops: usize = results.iter().map(|r| r.hops.len()).sum();
        events * size_of::<TraceEvent>() + hops * size_of::<Hop>()
    };
    let full = bytes(session.run(vec![(); nranks], |comm, ()| {
        (0..CALLS).for_each(|_| probe(comm))
    }));
    let empty = bytes(session.run(vec![(); nranks], |comm, ()| comm.compute(1.0)));
    (full - empty) / CALLS
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

/// The balancing problem `weak_p2048` hands its second cycle at seed 0:
/// 16 elements per rank at P = 2048 (the `plum-e2e` recipe), one cycle run,
/// then the next cycle's solve, marking and exact prediction as the engine
/// makes them. Returns the graph, keys, seed partition and configuration.
fn weak_cycle1() -> (Graph<'static>, Vec<u64>, Vec<u32>, PartitionConfig) {
    use plum_core::RemapPolicy;
    use plum_mesh::generate::box_dims_for_elements;
    use plum_solver::{edge_error_indicator, solve, SolverConfig};
    const P: usize = 2048;
    let (nx, ny, nz) = box_dims_for_elements(16 * P);
    let mut cfg = PlumConfig::new(P);
    cfg.policy = RemapPolicy::BeforeRefinement;
    cfg.force_method = Some(BalanceMethod::SfcDiffusion);
    cfg.imbalance_trigger = 1.01;
    let mesh = box_mesh(nx, ny, nz, [0.0; 3], [1.0; 3]);
    let mut plum = Plum::new(mesh, WaveField::unit_box(), cfg);
    plum.adaption_cycle(0.05, 0.1);
    let mut field = plum.field.clone();
    solve(
        &plum.am.mesh,
        &mut field,
        &plum.wave,
        plum.time + 0.1,
        &SolverConfig::default(),
    );
    let error = edge_error_indicator(&plum.am.mesh, &field);
    let threshold = plum.am.threshold_for_final_fraction(&error, 0.05);
    let mut marks = plum.am.mark_above(&error, threshold);
    plum.am.upgrade_to_fixpoint(&mut marks);
    let wcomp = plum.cost_est.weights(&plum.am.predict(&marks).wcomp);
    let g = Graph::from_csr(plum.dual.xadj.clone(), plum.dual.adjncy.clone(), wcomp);
    let mut pcfg = plum.cfg.partition;
    pcfg.nparts = P;
    (g, plum.sfc_keys.clone(), plum.proc_of_root.clone(), pcfg)
}

/// fig6_mild's problem at P = 64 (the quick fig6 mesh, a fifth of it at
/// weight 17 against 16, seeded by a count-balanced k-way partition).
fn mild_p64() -> (Graph<'static>, Vec<u64>, Vec<u32>, PartitionConfig) {
    use plum_mesh::SfcCurve;
    const P: usize = 64;
    let mesh = initial_mesh(Scale::Quick);
    let dual = DualGraph::build(&mesh);
    let keys = plum_mesh::sfc::element_keys(&mesh, &dual.elem_of, SfcCurve::Hilbert);
    let n = dual.n();
    let vwgt: Vec<u64> = (0..n).map(|v| if v < n / 5 { 17 } else { 16 }).collect();
    let uniform = Graph::from_csr(dual.xadj.clone(), dual.adjncy.clone(), vec![1; n]);
    let seed = partition_kway(&uniform, &PartitionConfig::new(P));
    let g = Graph::from_csr(dual.xadj.clone(), dual.adjncy.clone(), vwgt);
    (g, keys, seed, PartitionConfig::new(P))
}

/// The SFC-diffusion body — the granularity-aware transport, a distributed
/// body — on the `weak_p2048` cycle-1 problem at P = 2048 and on fig6_mild's
/// at P = 64, vertices owned by their seed parts as in the engine. The
/// modeled cost is deterministic and printed once per problem: virtual
/// partition seconds, calls per collective kind (gather, allgather, bcast
/// and scatter read 0: no rank touches O(N) or O(P) data), messages, words,
/// and the binding imbalance before and after beside the granularity bound
/// `(avg + w_max) / avg`. The timer reports host µs per call.
fn bench_sfc_diffusion_body(c: &mut Criterion) {
    use plum_parsim::CollectiveKind::*;
    let mut group = c.benchmark_group("sfc_diffusion_body");
    group.sample_size(10);
    for (name, (g, keys, seed, cfg)) in [
        ("weak_p2048_cycle1", weak_cycle1()),
        ("fig6_mild_p64", mild_p64()),
    ] {
        let p = cfg.nparts;
        let caps = vec![1.0; p];
        let problem = Problem::new(&g, None, Some(&keys), Some(&seed), &caps, &cfg);
        let method = BalanceMethod::SfcDiffusion;
        let lists = RankLists::build(&seed, p);
        let body = |comm: &mut Comm| balance_body(method, comm, &problem, &lists, 16.0);
        let mut fresh = Session::new(p, MachineModel::sp2());
        let mut results = fresh.run(vec![(); p], |comm, ()| body(comm));
        let part = lists.assemble(results.iter().map(|r| &r.value[..]));
        let summary = TraceLog::from_results(&mut results).summary();
        let calls = |kind| {
            summary
                .ranks
                .iter()
                .map(|r| r.collective(kind).calls)
                .max()
                .unwrap_or(0)
        };
        let imbalance = |part: &[u32]| problem.weights().imbalance(part, p, &caps);
        let total: u64 = g.vwgt.iter().sum();
        let avg = total as f64 / p as f64;
        let bound = (avg + *g.vwgt.iter().max().unwrap() as f64) / avg;
        println!(
            "  sfc_diffusion_body {name}: {:.3} virtual ms; calls gather {} allgather {} \
             bcast {} scatter {} allreduce {} exscan {} alltoallv {}; {} msgs, {} words; \
             imbalance {:.3} -> {:.3} (bound {bound:.3})",
            fresh.now() * 1e3,
            calls(Gather),
            calls(Allgather),
            calls(Bcast),
            calls(Scatter),
            calls(Allreduce),
            calls(Exscan),
            calls(Alltoallv),
            summary.total_msgs(),
            summary.total_words(),
            imbalance(&seed),
            imbalance(&part),
        );
        let mut session = Session::new(p, MachineModel::sp2());
        group.bench_function(name, |b| {
            b.iter(|| {
                session.run(vec![(); p], |comm, ()| {
                    black_box(body(comm));
                })
            })
        });
    }
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
    bench_sfc_diffusion_body,
    bench_migrate,
    bench_trace_aggregation
);
criterion_main!(benches);
