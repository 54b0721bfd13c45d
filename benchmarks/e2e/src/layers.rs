//! The layers child of the traced run: times calls into each crate's public
//! kernels from outside. It runs the real cycles under spans, replays each
//! layer's kernel on a clone of the pre-cycle state, and probes `parsim` on
//! a fresh session at the workload's P. Per-call means go out as
//! `layer <name> <value>` records, spans as `span` records.

use std::hint::black_box;

use plum_adapt::AdaptiveMesh;
use plum_core::{
    parallel_mark, parallel_migrate, parallel_reassign, CycleEngine, Mapper, Ownership, Plum,
};
use plum_mesh::generate::box_mesh;
use plum_mesh::sfc::element_keys;
use plum_mesh::DualGraph;
use plum_parsim::{Comm, MachineModel, Session};
use plum_partition::{edge_cut, imbalance, partition_kway, repartition_kway, Graph};
use plum_reassign::{greedy_mwbg, optimal_bmcm, optimal_mwbg, SimilarityMatrix};
use plum_remap::{Packer, Unpacker};
use plum_solver::{edge_error_indicator, solve, SolverConfig};

use crate::child::{build, config, event_count, print_cycle, print_spans, step, Means};
use crate::span::Recorder;
use crate::workload::{Op, Spec};

/// The optimal mappers are O(P^3); above this P they are left out.
const OPTIMAL_MAPPER_MAX_P: usize = 256;

pub fn run_layers(spec: &Spec) {
    let mut rec = Recorder::new();
    let mut m = Means::default();
    let cfg = config(spec);
    let nproc = spec.nproc;

    // --- set-up whole, as the timed runs pay it, then piece by piece ------
    let (mut plum, t_setup) = rec.span("core.plum_new", |_| build(spec, cfg));
    let (pieces, _) = rec.span("setup.replay", |rec| {
        let (nx, ny, nz) = spec.dims;
        let (mesh, t_box) = rec.span("mesh.box_mesh", |_| {
            box_mesh(nx, ny, nz, [0.0; 3], [1.0; 3])
        });
        let (dual, t_dual) = rec.span("mesh.dual_build", |_| DualGraph::build(&mesh));
        let mut pcfg = cfg.partition;
        pcfg.nparts = nproc;
        let graph = Graph::view(&dual.xadj, &dual.adjncy, &dual.wcomp);
        let (part, t_kway) = rec.span("partition.kway_initial", |_| partition_kway(&graph, &pcfg));
        let (_, t_keys) = rec.span("mesh.sfc_keys", |_| {
            element_keys(&mesh, &dual.elem_of, cfg.sfc_curve)
        });
        let (am, t_new) = rec.span("adapt.new", |_| AdaptiveMesh::new(mesh));
        let (_, t_engine) = rec.span("core.engine_new", |_| CycleEngine::new(&am, &part, nproc));
        m.add("mesh.box_mesh.s", t_box);
        m.add("mesh.dual_build.s", t_dual);
        m.add("partition.kway_initial.s", t_kway);
        m.add("mesh.sfc_keys.s", t_keys);
        m.add("adapt.new.s", t_new);
        t_box + t_dual + t_kway + t_keys + t_new + t_engine
    });
    m.add("core.plum_new.self_s", t_setup - pieces);

    // --- the cycles, each followed by its replay --------------------------
    let mut first = None;
    for (i, &op) in spec.ops.iter().enumerate() {
        let (t_cycle, events) = traced_cycle(&mut rec, &mut m, &mut plum, i, op);
        first.get_or_insert((t_cycle, events));
    }
    println!("run setup_s={t_setup}");
    drop(plum);

    // --- what balancing + remap cost: cycle 0 against a twin that never
    // balances, using nothing but `PlumConfig` -----------------------------
    let mut twin_cfg = cfg;
    twin_cfg.imbalance_trigger = f64::INFINITY;
    let mut twin = build(spec, twin_cfg);
    let (report, t_twin) = rec.span("core.cycle.no_balance", |_| step(&mut twin, spec.ops[0]));
    let (t_first, events_first) = first.expect("a workload has at least one cycle");
    m.add("core.balance_path.wall_s", t_first - t_twin);
    m.add(
        "core.balance_path.events",
        events_first as f64 - event_count(&report) as f64,
    );
    drop((twin, report));

    rec.span("parsim.probes", |rec| parsim_probes(rec, &mut m, nproc));
    let (_, t_codec) = rec.span("remap.codec", |_| codec_round_trip(CODEC_WORDS));
    m.add(
        "remap.codec.ns_per_word",
        t_codec * 1e9 / CODEC_WORDS as f64,
    );

    m.print_means();
    print_spans(&rec.spans);
}

/// Run one real cycle under a span (its scalars go out like any run's, so the
/// harness checks this pass too), then replay each layer's kernel on a
/// clone of the state the cycle started from. Returns the cycle's wall
/// seconds and its session-log event count.
fn traced_cycle(
    rec: &mut Recorder,
    m: &mut Means,
    plum: &mut Plum,
    i: usize,
    op: Op,
) -> (f64, usize) {
    let nproc = plum.cfg.nproc;
    let machine = plum.cfg.machine;
    let mut am = plum.am.clone();
    let mut field = plum.field.clone();
    let proc = plum.proc_of_root.clone();

    let (report, t_cycle) = rec.span("core.cycle", |_| step(plum, op));
    print_cycle(i, plum, &report, t_cycle);
    let new_proc = &report.decision.new_proc;

    // Seconds of the host-serial kernels the cycle itself runs; the cycle's
    // span minus these is the session-resident remainder.
    let mut serial = 0.0;
    rec.span("cycle.replay", |rec| {
        let (_, t) = rec.span("solver.solve", |_| {
            solve(
                &am.mesh,
                &mut field,
                &plum.wave,
                plum.time,
                &SolverConfig::default(),
            )
        });
        serial += t;
        m.add("solver.solve.s", t);
        let (error, t) = rec.span("solver.error_indicator", |_| {
            edge_error_indicator(&am.mesh, &field)
        });
        serial += t;
        m.add("solver.error_indicator.s", t);

        let (own, t) = rec.span("core.ownership_build", |_| {
            Ownership::build(&am, &proc, nproc)
        });
        m.add("core.ownership_build.s", t);
        let (_, t) = rec.span("core.engine_new", |_| CycleEngine::new(&am, &proc, nproc));
        m.add("core.engine_new.s", t);

        // The balance-path replays run on the mesh the cycle balanced:
        // unrefined for a refine cycle (remap before refinement), already
        // shrunken for a coarsen cycle.
        let balance_replays = |rec: &mut Recorder, m: &mut Means, am: &AdaptiveMesh, field: &_| {
            if !report.decision.repartitioned {
                return;
            }
            let (_, wremap) = am.weights();
            let (_, t) = rec.span("core.parallel_reassign", |_| {
                parallel_reassign(
                    &wremap,
                    &proc,
                    new_proc,
                    nproc,
                    nproc,
                    Mapper::GreedyMwbg,
                    machine,
                )
            });
            m.add("core.parallel_reassign.wall_s", t);
            let (sm, t) = rec.span("reassign.simmatrix", |_| {
                SimilarityMatrix::from_assignments(&wremap, &proc, new_proc, nproc, nproc)
            });
            m.add("reassign.simmatrix.us", t * 1e6);
            let (_, t) = rec.span("reassign.greedy_mwbg", |_| greedy_mwbg(&sm));
            m.add("reassign.greedy_mwbg.us", t * 1e6);
            if nproc <= OPTIMAL_MAPPER_MAX_P {
                let (_, t) = rec.span("reassign.optimal_mwbg", |_| optimal_mwbg(&sm));
                m.add("reassign.optimal_mwbg.us", t * 1e6);
                let (_, t) = rec.span("reassign.optimal_bmcm", |_| optimal_bmcm(&sm, 1.0, 1.0));
                m.add("reassign.optimal_bmcm.us", t * 1e6);
            }
            if report.decision.accepted {
                let (_, t) = rec.span("core.parallel_migrate", |_| {
                    parallel_migrate(am, field, &proc, new_proc, nproc, machine)
                });
                m.add("core.parallel_migrate.wall_s", t);
            }
        };

        match op {
            Op::Refine { frac, .. } => {
                let (threshold, t) = rec.span("adapt.threshold", |_| {
                    am.threshold_for_final_fraction(&error, frac)
                });
                serial += t;
                m.add("adapt.threshold.s", t);
                let (mark, t) = rec.span("core.parallel_mark", |_| {
                    parallel_mark(&am, &own, nproc, machine, &plum.work, &error, threshold)
                });
                m.add("core.parallel_mark.wall_s", t);
                let (_, t) = rec.span("adapt.mark_upgrade", |_| {
                    let mut marks = am.mark_above(&error, threshold);
                    am.upgrade_to_fixpoint(&mut marks)
                });
                m.add("adapt.mark_upgrade.s", t);
                let (_, t) = rec.span("adapt.predict", |_| am.predict(&mark.marks));
                serial += t;
                m.add("adapt.predict.s", t);
                balance_replays(rec, m, &am, &field);
                let before = am.mesh.n_elems();
                let (_, t) = rec.span("adapt.refine", |_| {
                    am.refine(&mark.marks, std::slice::from_mut(&mut field))
                });
                serial += t;
                m.add("adapt.refine.s", t);
                m.add(
                    "adapt.refine.elems_per_s",
                    (am.mesh.n_elems() - before) as f64 / t,
                );
            }
            Op::Coarsen { frac, .. } => {
                // The `frac` lowest-error live edges, inclusive — the engine's
                // coarse marks — built from `mark_above` on the negated error.
                let mut vals: Vec<f64> = am.mesh.edges().map(|e| error[e.idx()]).collect();
                vals.sort_unstable_by(f64::total_cmp);
                let k = (vals.len() as f64 * frac).round() as usize;
                let negated: Vec<f64> = error.iter().map(|&x| -x).collect();
                let cut = if k == 0 {
                    f64::INFINITY
                } else {
                    (-vals[k - 1]).next_down()
                };
                let marks = am.mark_above(&negated, cut);
                let (_, t) = rec.span("adapt.coarsen", |_| {
                    am.coarsen(&marks, std::slice::from_mut(&mut field))
                });
                serial += t;
                m.add("adapt.coarsen.s", t);
                balance_replays(rec, m, &am, &field);
            }
        }

        // The serial repartitioner on the weights the cycle balanced: the
        // roofline the distributed balance path is compared with.
        let mut pcfg = plum.cfg.partition;
        pcfg.nparts = nproc;
        let graph = Graph::view(&plum.dual.xadj, &plum.dual.adjncy, &plum.dual.wcomp);
        let (part, t) = rec.span("partition.repartition_kway", |_| {
            repartition_kway(&graph, &pcfg, &proc)
        });
        m.add("partition.repartition_kway.s", t);
        m.add(
            "partition.repartition_kway.edge_cut",
            edge_cut(&graph, &part) as f64,
        );
        let mut weights = vec![0u64; nproc];
        for (v, &p) in part.iter().enumerate() {
            weights[p as usize] += plum.dual.wcomp[v];
        }
        m.add("partition.repartition_kway.imbalance", imbalance(&weights));
    });
    m.add("core.cycle.wall_s", t_cycle);
    m.add("core.cycle.self_s", t_cycle - serial);
    (t_cycle, event_count(&report))
}

/// Host cost of the simulator's primitives at `nproc` ranks, each on a
/// fresh session: an empty step, then up to 50 calls of each primitive in
/// one step with the step's own cost subtracted.
fn parsim_probes(rec: &mut Recorder, m: &mut Means, nproc: usize) {
    let run = |rec: &mut Recorder, name: &str, body: &(dyn Fn(&mut Comm) + Send + Sync)| {
        let mut session = Session::new(nproc, MachineModel::sp2());
        // First step pays for the fiber stacks; time the second.
        session.run(vec![(); nproc], |c, ()| c.compute(1.0));
        rec.span(name, |_| session.run(vec![(); nproc], |c, ()| body(c)))
            .1
    };
    let t_step = run(rec, "parsim.step", &|c| c.compute(1.0));
    m.add("parsim.step.us_per_rank", t_step * 1e6 / nproc as f64);

    let per_call =
        |rec: &mut Recorder, name: &str, calls: usize, body: &(dyn Fn(&mut Comm) + Send + Sync)| {
            let t = run(rec, name, &|c| (0..calls).for_each(|_| body(c)));
            (t - t_step).max(0.0) / calls as f64
        };
    const CALLS: usize = 50;
    let ring = per_call(rec, "parsim.p2p", CALLS, &|c| {
        let (rank, p) = (c.rank(), c.nranks());
        c.send((rank + 1) % p, 7, 1, rank as u64);
        black_box(c.recv::<u64>((rank + p - 1) % p, 7));
    });
    m.add("parsim.p2p.ns_per_msg", ring * 1e9 / nproc as f64);
    let t = per_call(rec, "parsim.allreduce", CALLS, &|c| {
        black_box(c.allreduce_sum_u64(1));
    });
    m.add("parsim.allreduce.us_per_call", t * 1e6);
    let t = per_call(rec, "parsim.bcast", CALLS, &|c| {
        let value = (c.rank() == 0).then_some(1u64);
        black_box(c.bcast(0, 1, value));
    });
    m.add("parsim.bcast.us_per_call", t * 1e6);
    let t = per_call(rec, "parsim.barrier", CALLS, &|c| c.barrier());
    m.add("parsim.barrier.us_per_call", t * 1e6);
    let t = per_call(rec, "parsim.allgather", CALLS, &|c| {
        black_box(c.allgather(1, c.rank() as u64));
    });
    m.add("parsim.allgather.us_per_call", t * 1e6);
    // The dense all-to-all moves P^2 items per call: fewer calls at large P.
    let calls = (200_000 / (nproc * nproc)).clamp(1, CALLS);
    let t = per_call(rec, "parsim.alltoallv", calls, &|c| {
        let items: Vec<(u64, u64)> = (0..c.nranks()).map(|d| (1, d as u64)).collect();
        black_box(c.alltoallv(items));
    });
    m.add("parsim.alltoallv.us_per_call", t * 1e6);
}

const CODEC_WORDS: usize = 1 << 20;

/// `Packer` → bytes → `Unpacker` round trip of `words` 8-byte words.
fn codec_round_trip(words: usize) {
    let mut packer = Packer::new();
    for i in 0..words / 2 {
        packer.put_u64(i as u64);
        packer.put_f64(i as f64);
    }
    let buf = packer.finish();
    let mut unpacker = Unpacker::new(&buf);
    let mut sum = 0.0;
    for _ in 0..words / 2 {
        sum += unpacker.get_u64() as f64 + unpacker.get_f64();
    }
    assert!(unpacker.is_exhausted());
    black_box(sum);
}
