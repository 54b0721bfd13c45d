//! BENCH report emission: turn experiment runs into versioned, schema-
//! checked `BENCH_<experiment>.json` files the regression gate can diff.
//!
//! Every metric in these reports is a *virtual* quantity (deterministic,
//! byte-reproducible run to run), except the host wall-clock values, which
//! go out under the [`plum_obs::INFO_PREFIX`] so the gate never compares
//! them. That determinism is what lets CI keep a committed baseline and
//! fail on any growth beyond tolerance.

use std::collections::BTreeSet;

use plum_core::{CycleReport, RemapPolicy};
use plum_obs::{
    critical_path, heaviest_edges, phase_critical_path, render_heaviest_edges, BenchReport,
    Timeline, TraceDigest,
};
use plum_parsim::{CollectiveKind, TraceLog};

use crate::{run_case, Scale, SweepPoint, CASES};

/// Processor count of the instrumented fig6 cycle — the paper's largest
/// machine (its Fig. 6 x-axis ends at P = 64). Independent of `--quick`,
/// which only shrinks the mesh.
pub const FIG6_BENCH_NPROC: usize = 64;

/// Short git commit hash of the working tree, or `"unknown"` outside a
/// repository. Metadata only — never compared.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Panic unless `current` is the committed `benchmarks/baseline/<file>` bit
/// for bit: every metric (`info.` ones included), the digest, the timeline
/// and the metadata, ignoring only `meta.git_sha` and the host-clock
/// `info.sim.*` metrics (weakscale's wall throughput). The report's JSON
/// holds one metric or timeline series per line, so the message lists the
/// lines that moved. Every other number is virtual, so a run at the
/// committed commit reproduces its file exactly.
pub fn assert_reproduces_baseline(current: &BenchReport, file: &str) {
    let path = format!(
        "{}/../../benchmarks/baseline/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let committed = BenchReport::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut current = current.clone();
    if let Some(sha) = committed.meta.get("git_sha") {
        current.meta.insert("git_sha".to_string(), sha.clone());
    }
    for (name, &value) in &committed.metrics {
        if name.starts_with("info.sim.") {
            current.metrics.insert(name.clone(), value);
        }
    }
    let now = current.to_json();
    if now != text {
        let (then, now): (BTreeSet<&str>, BTreeSet<&str>) =
            (text.lines().collect(), now.lines().collect());
        let moved: Vec<String> = (then.symmetric_difference(&now))
            .map(|l| format!("{} {l}", if now.contains(l) { '+' } else { '-' }))
            .collect();
        panic!(
            "{file}: the run (+) differs from the committed file (-) in\n{}",
            moved.join("\n")
        );
    }
}

/// Append one row of `report`'s metrics ([`CycleReport::metrics`]) to
/// `timeline`.
pub fn record_timeline_row(timeline: &mut Timeline, report: &CycleReport) {
    let metrics = report.metrics();
    timeline.record_cycle(metrics.iter().map(|(k, &v)| (k.as_str(), v)));
}

/// Build a BENCH report from one instrumented adaption cycle: the cycle's
/// metrics ([`CycleReport::metrics`]), plus the cross-rank critical path of
/// the whole session and of every phase.
pub fn cycle_bench(
    experiment: &str,
    report: &CycleReport,
    nproc: usize,
    initial_elements: usize,
) -> BenchReport {
    let mut bench = BenchReport::new(experiment);
    bench
        .meta_str("git_sha", &git_sha())
        .meta_num("nproc", nproc as f64)
        .meta_num("initial_elements", initial_elements as f64)
        .meta_num("final_elements", report.counts.elements as f64);
    for (name, value) in report.metrics() {
        bench.set(&name, value);
    }

    let session = &report.traces.session;
    if !session.events.is_empty() {
        let cp = critical_path(session);
        bench
            .set("critical_path.seconds", cp.length())
            .set("critical_path.wait_seconds", cp.wait)
            .set("critical_path.wire_seconds", cp.wire);
        for agg in &report.traces.phases {
            let pcp = phase_critical_path(session, &agg.name);
            bench.set(&format!("critical_path.{}.seconds", agg.name), pcp.length());
        }
        // The per-(phase, rank) digest powers `plum-bench explain`: when a
        // later run regresses against this report, the diff engine can say
        // *which* phase, rank, and cause absorbed the delta.
        bench.digest = Some(TraceDigest::from_log(session));
    }
    bench
}

/// Human-readable critical-path analysis of the cycle's session timeline:
/// the longest cross-rank dependency chain plus the top-k heaviest message
/// edges (by receiver wait).
pub fn cycle_analysis(report: &CycleReport, top_k: usize) -> String {
    let session = &report.traces.session;
    let mut out = critical_path(session).render();
    out.push('\n');
    out.push_str(&render_heaviest_edges(&heaviest_edges(session, top_k)));
    out
}

/// The shape of the multilevel repartitions in some cycles' partition
/// phases, read off their per-rank collective counts: the kernel allgathers
/// once per coarsening level it attempts, and every refinement stage pays
/// one `exscan` (the demand); its committed moves ride the next ghost
/// exchange, so a stage calls no `allreduce`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MultilevelShape {
    pub levels: u64,
    pub stages: u64,
    /// Top-level `allreduce` + `exscan` calls.
    pub reductions: u64,
}

impl MultilevelShape {
    /// Add the partition phase of one cycle's session (every rank makes the
    /// same calls, so the phase totals divide exactly).
    pub fn add(&mut self, session: &TraceLog) {
        let phases = session.phase_rank_breakdowns();
        let Some(partition) = phases.iter().find(|a| a.name == "partition") else {
            return;
        };
        let per_rank = |kind| partition.collective(kind).calls / session.nranks() as u64;
        self.levels += per_rank(CollectiveKind::Allgather);
        self.stages += per_rank(CollectiveKind::Exscan);
        self.reductions += per_rank(CollectiveKind::Allreduce) + per_rank(CollectiveKind::Exscan);
    }

    /// Emit `partition.multilevel{key}.reductions_per_stage` — gated: it
    /// reads 1; a stage that reduces its commit on its own reads 2, and a
    /// dense per-stage weight row reads 3 — and the `info.` level and stage
    /// counts. Nothing if
    /// no stage ran (another method, or the gathered serial path).
    pub fn emit(&self, b: &mut BenchReport, key: &str) {
        if self.stages == 0 {
            return;
        }
        let per_stage = self.reductions as f64 / self.stages as f64;
        b.set(
            &format!("partition.multilevel{key}.reductions_per_stage"),
            per_stage,
        )
        .set(
            &format!("info.partition.multilevel{key}.levels"),
            self.levels as f64,
        )
        .set(
            &format!("info.partition.multilevel{key}.stages"),
            self.stages as f64,
        );
    }
}

/// The fig6 BENCH run: one instrumented remap-before Real_2 cycle at
/// [`FIG6_BENCH_NPROC`]. Returns the report plus its critical-path text.
pub fn fig6_bench(scale: Scale) -> (BenchReport, String) {
    let r = run_case(
        scale,
        CASES[1].1,
        FIG6_BENCH_NPROC,
        RemapPolicy::BeforeRefinement,
    );
    let mut b = cycle_bench("fig6", &r, FIG6_BENCH_NPROC, scale.elements());
    b.meta_str("scale", &format!("{scale:?}"))
        .meta_str("case", "Real_2");
    let mut shape = MultilevelShape::default();
    shape.add(&r.traces.session);
    shape.emit(&mut b, "");
    (b, cycle_analysis(&r, 10))
}

/// The rank the fig6_slow experiment slows down, and by how much.
pub const FIG6_SLOW_RANK: usize = 7;
pub const FIG6_SLOW_FACTOR: f64 = 2.0;

/// The fig6_slow BENCH run: the fig6 cycle with rank [`FIG6_SLOW_RANK`]
/// computing [`FIG6_SLOW_FACTOR`]× slower — a known, injected regression.
/// Diffing this report against a clean fig6 report with `plum-bench
/// explain` must attribute the makespan delta to the slowed rank's
/// compute; EXPERIMENTS.md walks through exactly that.
pub fn fig6_slow_bench(scale: Scale) -> (BenchReport, String) {
    use plum_core::{Plum, PlumConfig};
    use plum_parsim::Perturbation;
    use plum_solver::WaveField;

    let p = FIG6_BENCH_NPROC;
    let mut cfg = PlumConfig::new(p);
    cfg.policy = RemapPolicy::BeforeRefinement;
    let mut plum = Plum::new(crate::initial_mesh(scale), WaveField::unit_box(), cfg);
    plum.chaos = Perturbation::slowdown(p, FIG6_SLOW_RANK, FIG6_SLOW_FACTOR);
    let r = plum.adaption_cycle(crate::CASES[1].1, 0.1);
    let mut b = cycle_bench("fig6_slow", &r, p, scale.elements());
    b.meta_str("scale", &format!("{scale:?}"))
        .meta_str("case", "Real_2")
        .meta_num("slow_rank", FIG6_SLOW_RANK as f64)
        .meta_num("slow_factor", FIG6_SLOW_FACTOR);
    (b, cycle_analysis(&r, 10))
}

/// The fig6_mild BENCH run: the portfolio's mild-imbalance regime on the
/// fig6 mesh at P = [`FIG6_BENCH_NPROC`].
///
/// A gentle refinement band (per-element weight 17 against a base of 16)
/// leaves the count-balanced seed partition at an effective imbalance of
/// ≈1.09 — above a tightened trigger of 1.02 but under the default 1.1 SFC
/// threshold — so [`plum_core::select_method`] must pick SFC boundary
/// diffusion. Both the diffusion kernel and the multilevel repartitioner
/// run distributed on the same inputs; the report tracks the diffusion
/// phase's critical path and its makespan ratio to multilevel (the ≥5×
/// saving of the portfolio's mild branch, gated in CI).
pub fn fig6_mild_bench(scale: Scale) -> (BenchReport, String) {
    use plum_core::{select_method, BalanceMethod, PlumConfig, WorkModel};
    use plum_mesh::{DualGraph, SfcCurve};
    use plum_partition::{
        balance_distributed, imbalance_weighted, partition_kway, weights_of, Graph,
        PartitionConfig, Problem, Weights,
    };

    let p = FIG6_BENCH_NPROC;
    let mesh = crate::initial_mesh(scale);
    let dual = DualGraph::build(&mesh);
    let keys = plum_mesh::sfc::element_keys(&mesh, &dual.elem_of, SfcCurve::Hilbert);
    let n = dual.n();
    let mut vwgt: Vec<u64> = vec![16; n];
    for w in vwgt.iter_mut().take(n / 5) {
        *w = 17;
    }
    let g = Graph::from_csr(dual.xadj.clone(), dual.adjncy.clone(), vwgt.clone());
    let uniform = Graph::from_csr(dual.xadj.clone(), dual.adjncy.clone(), vec![1; n]);
    let prev = partition_kway(&uniform, &PartitionConfig::new(p));

    let mut cfg = PlumConfig::new(p);
    cfg.imbalance_trigger = 1.02;
    let caps = vec![1.0; p];
    let method = select_method(Weights::new(&vwgt, None), &prev, &cfg, &caps, true, true);
    assert_eq!(
        method,
        BalanceMethod::SfcDiffusion,
        "the mild fig6 cycle must select SFC diffusion"
    );

    let work = WorkModel::default();
    let vertex_units = work.t_part_vertex / cfg.machine.t_flop / 4.0;
    let mut pcfg = cfg.partition;
    pcfg.nparts = p;
    let problem = Problem::new(&g, None, Some(&keys), Some(&prev), &caps, &pcfg);
    let run = |m| balance_distributed(m, &problem, &prev, p, cfg.machine, vertex_units);
    let diff = run(method);
    let ml = run(BalanceMethod::Multilevel);

    let imb_old = imbalance_weighted(&weights_of(&g.vwgt, &prev, p), &caps);
    let imb_new = imbalance_weighted(&weights_of(&g.vwgt, &diff.part, p), &caps);
    let cp = critical_path(&diff.trace);

    let mut b = BenchReport::new("fig6_mild");
    b.meta_str("git_sha", &git_sha())
        .meta_str("scale", &format!("{scale:?}"))
        .meta_num("nproc", p as f64)
        .meta_num("initial_elements", n as f64);
    b.set("balance.method", method.code() as f64)
        .set("balance.imbalance_new", imb_new)
        .set("critical_path.partition.seconds", cp.length())
        .set("critical_path.partition.wait_seconds", cp.wait)
        .set("partition.sfc_diffusion.seconds", diff.makespan)
        .set("partition.ratio_vs_multilevel", diff.makespan / ml.makespan)
        .set("info.balance.imbalance_old", imb_old)
        .set(
            "info.balance.imbalance_norm",
            imb_new / crate::granularity_bound(&vwgt, p),
        )
        .set("info.partition.multilevel.seconds", ml.makespan);

    let analysis = format!(
        "fig6_mild @ P={p}: imbalance {imb_old:.4} -> {imb_new:.4} via {}\n\
         diffusion makespan {:.6}s vs multilevel {:.6}s (ratio {:.4})\n\n{}",
        method.name(),
        diff.makespan,
        ml.makespan,
        diff.makespan / ml.makespan,
        cp.render(),
    );
    (b, analysis)
}

/// Processor counts of the weak-scaling sweep. `--quick` drops the last
/// entry (P = 4096); everything else is identical, so quick reports compare
/// only against quick baselines and full against full.
pub const WEAKSCALE_PROCS: [usize; 3] = [256, 1024, 4096];

/// Initial elements per rank in the weak-scaling sweep: the mesh grows with
/// P so per-rank work stays fixed and any growth in cycle time is scheduler
/// or collective overhead.
pub const WEAKSCALE_ELEMS_PER_RANK: usize = 16;

/// Most a weak-scaling cycle's virtual seconds may grow from P = 256 to
/// P = 1024 (`weakscale_bench` panics beyond it).
pub const WEAKSCALE_CYCLE_FACTOR: f64 = 2.0;

/// Most words the P = 1024 cycle's reassignment phase may put on the wire
/// (`weakscale_bench` panics beyond it): sparse rows up, each rank's
/// answers down — ≈ 52 k. A dense `nparts`-word answer to every rank reads
/// 1.09 M.
const WEAKSCALE_REASSIGN_WORDS_P1024: u64 = 100_000;

/// Most the busiest rank's words in the partition phase may grow from
/// P = 256 to P = 1024 (`weakscale_bench` panics beyond it). A rank ships
/// what it owns, and the Bruck exchange forwards an item over at most
/// ⌈log₂ P⌉ hops, so the busiest rank's words grow like log P plus the
/// spread of a maximum over 4× more ranks: 1.51 (1.49 for the moved items
/// alone). A dense `nparts`-word row per rank grows them ≈ 4× (4.85).
const WEAKSCALE_PARTITION_WORDS_FACTOR: f64 = 2.0;

/// Everything measured at one weak-scaling processor count.
#[derive(Debug, Clone)]
pub struct WeakscalePoint {
    pub nproc: usize,
    pub initial_elements: usize,
    pub final_elements: usize,
    /// Host wall-clock of the full adaption cycle (nondeterministic).
    pub wall_seconds: f64,
    /// Virtual makespan of the cycle's session timeline (deterministic).
    pub virtual_seconds: f64,
    /// Modeled phase times (deterministic).
    pub partition_seconds: f64,
    pub remap_seconds: f64,
    /// The reassignment phase of the session trace: its span on the virtual
    /// clock and the words every rank put on the wire inside it.
    pub reassign_seconds: f64,
    pub reassign_words: u64,
    /// Words the busiest rank put on the wire in the partition phase.
    pub partition_max_rank_words: u64,
    /// Capacity-weighted imbalance after the cycle, and the same over the
    /// final weights' granularity bound ([`crate::granularity_bound`]).
    pub imbalance_after: f64,
    pub imbalance_norm: f64,
    /// Virtual time of single collectives at this P (deterministic).
    pub collectives: CollectiveProbes,
}

/// Virtual seconds of one collective call at some P: the 1-word probes, and
/// `allreduce_wp` — an allreduce of `words = P`, the shape of the balancers'
/// part-weight reduction. A 1-word probe cannot see a `P × words` term on
/// the critical path (a flat gather reads 1.48 where the tree reads 1.25);
/// the payload-sized one reads ≈ 16 against ≈ 3.5.
#[derive(Debug, Clone, Copy)]
pub struct CollectiveProbes {
    pub allreduce: f64,
    pub bcast: f64,
    pub barrier: f64,
    pub exscan: f64,
    pub allreduce_wp: f64,
}

impl CollectiveProbes {
    /// The probes under their metric names, in report order.
    fn named(&self) -> [(&'static str, f64); 5] {
        [
            ("allreduce", self.allreduce),
            ("bcast", self.bcast),
            ("barrier", self.barrier),
            ("exscan", self.exscan),
            ("allreduce_wP", self.allreduce_wp),
        ]
    }
}

/// Each probe runs on a fresh session so the clocks start aligned at zero.
fn collective_probes(p: usize) -> CollectiveProbes {
    use plum_parsim::{MachineModel, Session};
    let measure = |body: fn(&mut plum_parsim::Comm)| {
        let mut s = Session::new(p, MachineModel::sp2());
        s.run(vec![(); p], |c, ()| body(c));
        s.now()
    };
    CollectiveProbes {
        allreduce: measure(|c| {
            c.allreduce_sum_u64(1);
        }),
        bcast: measure(|c| {
            let v = (c.rank() == 0).then_some(7u64);
            c.bcast(0, 1, v);
        }),
        barrier: measure(|c| c.barrier()),
        exscan: measure(|c| {
            c.exscan(|_| 1, 1u64, |a, b| a + b);
        }),
        allreduce_wp: measure(|c| {
            let p = c.nranks() as u64;
            c.allreduce(|_| p, 1u64, |a, b| a + b);
        }),
    }
}

/// Run `reps` full adaption cycles at `nproc` ranks on a mesh of
/// `nproc * elems_per_rank` initial elements, with the balancer pinned to
/// SFC diffusion (the O(log P) path — the multilevel kernel's
/// coarsest-graph gather would dominate at these P) and a trigger low
/// enough that balancing always runs.
///
/// Every rep rebuilds the problem from scratch; the virtual metrics must
/// come out bit-identical (the scheduler is deterministic) and the reported
/// wall time is the minimum across reps, which strips scheduler warm-up and
/// host noise from the gated throughput numbers.
///
/// Asserts the session trace is protocol-clean and that its per-phase time
/// accounting matches the whole-log summary to 1e-9 — the invariants the
/// acceptance gate requires at P = 4096.
pub fn weakscale_point(nproc: usize, elems_per_rank: usize, reps: usize) -> WeakscalePoint {
    use plum_core::{BalanceMethod, Plum, PlumConfig, RemapPolicy};
    use plum_mesh::generate::{box_dims_for_elements, box_mesh};
    use plum_solver::WaveField;
    use std::time::Instant;

    assert!(reps >= 1);
    let (nx, ny, nz) = box_dims_for_elements(nproc * elems_per_rank);
    let mesh = box_mesh(nx, ny, nz, [0.0; 3], [1.0; 3]);
    let initial_elements = mesh.counts().elements;

    let run_once = || {
        let mut cfg = PlumConfig::new(nproc);
        cfg.policy = RemapPolicy::BeforeRefinement;
        cfg.imbalance_trigger = 1.01;
        cfg.force_method = Some(BalanceMethod::SfcDiffusion);
        let mut plum = Plum::new(
            box_mesh(nx, ny, nz, [0.0; 3], [1.0; 3]),
            WaveField::unit_box(),
            cfg,
        );
        let t0 = Instant::now();
        let r = plum.adaption_cycle(0.05, 0.1);
        let wall = t0.elapsed().as_secs_f64();
        let imbalance = crate::chaos::capacity_imbalance(&plum, &r);
        let bound = crate::granularity_bound(&plum.am.weights().0, nproc);
        (r, wall, (imbalance, imbalance / bound))
    };

    let (r, mut wall_seconds, (imbalance_after, imbalance_norm)) = run_once();
    for _ in 1..reps {
        let (r2, w2, _) = run_once();
        // Every phase time is virtual and must be bit-identical between
        // reps. `Debug` prints each f64 in its shortest round-trip form, so
        // equal text is equal bits.
        assert_eq!(
            format!("{:?}", r2.times),
            format!("{:?}", r.times),
            "weakscale cycle at P={nproc}: phase times differ between reps"
        );
        wall_seconds = wall_seconds.min(w2);
    }

    let audit = r.traces.session.audit();
    let virtual_seconds = audit.unwrap_or_else(|e| panic!("weakscale cycle at P={nproc}: {e}"));
    let reassign = r.traces.phases.iter().find(|a| a.name == "reassignment");
    let reassign = reassign.expect("the trigger is low enough that every cycle reassigns");
    let phases = r.traces.session.phase_rank_breakdowns();
    let partition = phases.iter().find(|a| a.name == "partition");
    let partition = partition.expect("the trigger is low enough that every cycle partitions");
    let partition_max_rank_words = partition.ranks.iter().map(|s| s.words).max().unwrap_or(0);

    WeakscalePoint {
        nproc,
        initial_elements,
        final_elements: r.counts.elements,
        wall_seconds,
        virtual_seconds,
        partition_seconds: r.times.partition,
        remap_seconds: r.times.remap,
        reassign_seconds: reassign.elapsed(),
        reassign_words: reassign.words,
        partition_max_rank_words,
        imbalance_after,
        imbalance_norm,
        collectives: collective_probes(nproc),
    }
}

/// The weakscale BENCH run: full adaption cycles at [`WEAKSCALE_PROCS`]
/// (P = 4096 skipped under `quick`), ~[`WEAKSCALE_ELEMS_PER_RANK`] initial
/// elements per rank.
///
/// Deterministic gates: the cycle's virtual makespan (and its P = 1024 /
/// P = 256 ratio, asserted ≤ [`WEAKSCALE_CYCLE_FACTOR`]), the modeled
/// partition and remap phase times, the busiest rank's partition-phase
/// words (their P = 1024 / P = 256 ratio asserted ≤ 2), the reassignment
/// phase's seconds and words (at P = 1024 asserted ≤ 100 000), the 1-word
/// collective costs per P, the `collective.*.logp_ratio` metrics —
/// cost(1024)/cost(256), which sit at log₂ 1024 / log₂ 256 = 10/8 for the
/// 1-word tree collectives (≈ 4 under flat O(P) implementations) and under
/// 4 × 10/8 for the `words = P` allreduce (see [`CollectiveProbes`]) — and
/// `rate.sim.cycles_per_sec.p*`,
/// the simulator's cycle throughput per *virtual* second (the report-wide
/// convention: gated seconds are virtual seconds). Host wall-clock
/// throughput goes out as `info.sim.cycles_per_sec.p*` /
/// `info.sim.wall_seconds_per_cycle.p*` only: measured run-to-run wall
/// variance on one machine is 10–15% even taking the min of three reps, so
/// a 5% CI gate on wall values would be pure noise.
pub fn weakscale_bench(quick: bool) -> (BenchReport, String) {
    let procs: &[usize] = if quick {
        &WEAKSCALE_PROCS[..2]
    } else {
        &WEAKSCALE_PROCS
    };
    let mut b = BenchReport::new("weakscale");
    b.meta_str("git_sha", &git_sha())
        .meta_str("mode", if quick { "quick" } else { "full" })
        .meta_num("elems_per_rank", WEAKSCALE_ELEMS_PER_RANK as f64);

    let mut analysis = String::from(
        "weakscale: one adaption cycle per P, ~16 initial elements/rank, SFC diffusion\n",
    );
    analysis.push_str(&format!(
        "{:>6} {:>9} {:>9} | {:>11} {:>10} | {:>11} {:>11} {:>11}\n",
        "P", "elems", "final", "virtual s", "wall s", "allreduce", "bcast", "barrier"
    ));

    let mut points = Vec::new();
    for &p in procs {
        // Three reps at the small counts tighten the min-wall estimate; the
        // P = 4096 cycle is long enough that one rep is representative.
        let reps = if p <= 1024 { 3 } else { 1 };
        let pt = weakscale_point(p, WEAKSCALE_ELEMS_PER_RANK, reps);
        analysis.push_str(&format!(
            "{:>6} {:>9} {:>9} | {:>11.4} {:>10.3} | {:>11.3e} {:>11.3e} {:>11.3e}\n",
            pt.nproc,
            pt.initial_elements,
            pt.final_elements,
            pt.virtual_seconds,
            pt.wall_seconds,
            pt.collectives.allreduce,
            pt.collectives.bcast,
            pt.collectives.barrier,
        ));
        b.meta_num(
            &format!("initial_elements.p{p}"),
            pt.initial_elements as f64,
        );
        b.set(&format!("cycle.virtual_seconds.p{p}"), pt.virtual_seconds)
            .set(
                &format!("phase.partition.p{p}.seconds"),
                pt.partition_seconds,
            )
            .set(&format!("phase.remap.p{p}.seconds"), pt.remap_seconds)
            .set(&format!("phase.reassign.p{p}.seconds"), pt.reassign_seconds)
            .set(
                &format!("phase.reassign.p{p}.words"),
                pt.reassign_words as f64,
            )
            .set(
                &format!("phase.partition.p{p}.max_rank_words"),
                pt.partition_max_rank_words as f64,
            )
            .set(
                &format!("collective.allreduce_1word.p{p}.seconds"),
                pt.collectives.allreduce,
            )
            .set(
                &format!("collective.bcast_1word.p{p}.seconds"),
                pt.collectives.bcast,
            )
            .set(
                &format!("collective.barrier.p{p}.seconds"),
                pt.collectives.barrier,
            )
            .set(
                &format!("rate.sim.cycles_per_sec.p{p}"),
                1.0 / pt.virtual_seconds,
            )
            .set(
                &format!("info.balance.p{p}.imbalance_after"),
                pt.imbalance_after,
            )
            .set(
                &format!("info.balance.p{p}.imbalance_norm"),
                pt.imbalance_norm,
            )
            .set(
                &format!("info.sim.wall_seconds_per_cycle.p{p}"),
                pt.wall_seconds,
            )
            .set(
                &format!("info.sim.cycles_per_sec.p{p}"),
                1.0 / pt.wall_seconds,
            );
        points.push(pt);
    }

    // Weak scaling across the first two P (always present). The cycle: with
    // fixed work per rank only the tree depth may grow, so a phase that
    // ships `O(P)` words per rank through one host (dense similarity rows
    // read 8.7 here) trips this.
    let (a, b2) = (&points[0], &points[1]);
    let cycle_ratio = b2.virtual_seconds / a.virtual_seconds;
    assert!(
        cycle_ratio <= WEAKSCALE_CYCLE_FACTOR,
        "cycle virtual seconds grew {cycle_ratio:.2}x from P={} to P={} (> {WEAKSCALE_CYCLE_FACTOR}x)",
        a.nproc,
        b2.nproc
    );
    analysis.push_str(&format!(
        "cycle: virtual s(P={}) / virtual s(P={}) = {cycle_ratio:.3} (gate {WEAKSCALE_CYCLE_FACTOR})\n",
        b2.nproc, a.nproc
    ));

    // The reassignment phase: what a rank ships and receives is its row's
    // cells, not `nparts` words.
    assert_eq!(b2.nproc, 1024, "the reassignment gate is read at P = 1024");
    let words = b2.reassign_words;
    assert!(
        words <= WEAKSCALE_REASSIGN_WORDS_P1024,
        "the P=1024 reassignment phase shipped {words} words (> {WEAKSCALE_REASSIGN_WORDS_P1024})"
    );
    analysis.push_str(&format!(
        "reassign: words(P=1024) = {words} (gate {WEAKSCALE_REASSIGN_WORDS_P1024})\n"
    ));

    // The partition phase: the busiest rank ships what it owns, so its
    // words stay flat in P.
    let (lo, hi) = (a.partition_max_rank_words, b2.partition_max_rank_words);
    let words_ratio = hi as f64 / lo as f64;
    assert!(
        words_ratio <= WEAKSCALE_PARTITION_WORDS_FACTOR,
        "the busiest rank's partition words grew {words_ratio:.2}x from P={} to P=1024 \
         ({lo} -> {hi}; > {WEAKSCALE_PARTITION_WORDS_FACTOR}x)",
        a.nproc
    );
    analysis.push_str(&format!(
        "partition: max rank words(P=1024) / max rank words(P={}) = {hi} / {lo} = \
         {words_ratio:.3} (gate {WEAKSCALE_PARTITION_WORDS_FACTOR})\n",
        a.nproc
    ));

    // The collectives: the ratio of their costs must track `words · log₂ P`,
    // not `words · P`.
    let logp = (b2.nproc as f64).log2() / (a.nproc as f64).log2();
    for ((name, lo), (_, hi)) in a
        .collectives
        .named()
        .into_iter()
        .zip(b2.collectives.named())
    {
        let words_grow = if name == "allreduce_wP" {
            b2.nproc as f64 / a.nproc as f64
        } else {
            1.0
        };
        let ratio = hi / lo;
        assert!(
            ratio < 2.0 * words_grow,
            "{name} cost grew {ratio:.2}x from P={} to P={} — O(P), not O(log P)",
            a.nproc,
            b2.nproc
        );
        b.set(&format!("collective.{name}.logp_ratio"), ratio);
        analysis.push_str(&format!(
            "collective {name}: cost(P={}) / cost(P={}) = {ratio:.3} (log-P predicts {:.3})\n",
            b2.nproc,
            a.nproc,
            logp * words_grow
        ));
    }
    (b, analysis)
}

/// The fig5 BENCH report, from the already-run sweep: per-case remap times
/// under both policies at every swept P. Asserts the figure's claim first:
/// in every cell where both policies remap, remapping before refinement
/// takes strictly less virtual time than remapping after it.
pub fn fig5_bench(sw: &[SweepPoint], scale: Scale) -> BenchReport {
    assert_remap_before_beats_after(sw);
    let mut b = BenchReport::new("fig5");
    b.meta_str("git_sha", &git_sha())
        .meta_str("scale", &format!("{scale:?}"))
        .meta_num("initial_elements", scale.elements() as f64);
    for p in sw {
        if p.nproc == 1 {
            continue;
        }
        let policy = match p.policy {
            RemapPolicy::AfterRefinement => "after",
            RemapPolicy::BeforeRefinement => "before",
        };
        b.set(
            &format!("remap.{}.{}.p{}.seconds", p.case, policy, p.nproc),
            p.remap_time,
        );
    }
    b
}

/// Fig. 5's claim, per `(case, P)` cell of the sweep in which both
/// policies remap: the remap-before cycle remaps in strictly less virtual
/// time than the remap-after one.
fn assert_remap_before_beats_after(sw: &[SweepPoint]) {
    let of = |policy| sw.iter().filter(move |p| p.policy == policy);
    for after in of(RemapPolicy::AfterRefinement) {
        let cell = |p: &&SweepPoint| p.case == after.case && p.nproc == after.nproc;
        let Some(before) = of(RemapPolicy::BeforeRefinement).find(cell) else {
            continue;
        };
        let (b, a) = (before.remap_time, after.remap_time);
        // A policy whose cost test declined to remap here has no remap
        // time to compare (paper scale: Real_3 after refinement at P = 64).
        if b == 0.0 || a == 0.0 {
            continue;
        }
        assert!(
            b < a,
            "Fig. 5: {} at P={} remaps in {b} s before refinement, not less than {a} s after",
            after.case,
            after.nproc,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 5's gate at quick scale, P ∈ {2, 4, 8}: every case has a cell
    /// where both policies remap (Real_3 first at P = 8), and Real_1 at
    /// P = 4 is the narrowest of these cells.
    #[test]
    fn remap_before_refinement_beats_remap_after() {
        let sw = crate::sweep_over(Scale::Quick, &[2, 4, 8]);
        for (case, _) in CASES {
            let both_remap = |nproc| {
                sw.iter()
                    .filter(|p| p.case == case && p.nproc == nproc)
                    .all(|p| p.remap_time > 0.0)
            };
            assert!(
                [2, 4, 8].into_iter().any(both_remap),
                "{case}: no cell where both policies remap"
            );
        }
        fig5_bench(&sw, Scale::Quick);
    }

    /// `reproduce fig5 --quick`'s report, in-process, is the committed
    /// `BENCH_fig5.json` bit for bit, apart from `meta.git_sha`.
    #[test]
    fn fig5_bench_reproduces_the_committed_baseline_exactly() {
        let sw = crate::sweep(Scale::Quick);
        assert_reproduces_baseline(&fig5_bench(&sw, Scale::Quick), "BENCH_fig5.json");
    }

    #[test]
    fn git_sha_is_short_and_nonempty() {
        let sha = git_sha();
        assert!(!sha.is_empty());
        assert!(sha.len() <= 40);
    }

    /// Tier-1 smoke of the weak-scaling path: a full adaption cycle at
    /// P = 256 (smaller per-rank mesh than the bench sweep so debug builds
    /// stay fast). Protocol cleanliness and the 1e-9 phase-accounting
    /// invariant are asserted inside `weakscale_point`.
    #[test]
    fn weakscale_smoke_p256() {
        let pt = weakscale_point(256, 4, 2);
        assert_eq!(pt.nproc, 256);
        assert!(pt.initial_elements >= 256, "mesh too small to spread");
        assert!(pt.final_elements >= pt.initial_elements);
        assert!(pt.virtual_seconds > 0.0);
        assert!(pt.partition_seconds > 0.0, "balancer must have run");
        assert!(pt.collectives.allreduce > 0.0 && pt.collectives.barrier > 0.0);
    }

    /// The quick sweep (P = 256 / 1024) against its committed file, bit
    /// for bit apart from the host-clock `info.sim.*` values:
    /// `compare --tolerance 0` fails only on increases, so a drop in any
    /// virtual metric would pass it.
    #[test]
    #[ignore = "one P = 256 and one P = 1024 cycle: run in release with --ignored"]
    fn weakscale_bench_reproduces_the_committed_baseline_exactly() {
        let (b, _) = weakscale_bench(true);
        assert_reproduces_baseline(&b, "BENCH_weakscale.json");
    }

    #[test]
    fn timeline_records_one_row_per_cycle() {
        use plum_core::{Plum, PlumConfig};
        use plum_mesh::generate::unit_box_mesh;
        use plum_solver::WaveField;

        let mut p = Plum::new(unit_box_mesh(4), WaveField::unit_box(), PlumConfig::new(4));
        let mut timeline = Timeline::new();
        assert!(timeline.is_empty());
        let first = p.adaption_cycle(0.33, 0.1);
        record_timeline_row(&mut timeline, &first);
        record_timeline_row(&mut timeline, &p.adaption_cycle(0.33, 0.1));
        assert_eq!(timeline.cycles(), 2);
        // Gauges land as per-cycle slots...
        let solver = timeline.get("phase.solver.seconds").unwrap();
        assert_eq!(solver[0], Some(first.times.solver));
        assert!(solver[1].is_some());
        // ...and counters are per-cycle deltas, not running totals.
        assert_eq!(timeline.get("cycle.count").unwrap(), &[Some(1.0); 2]);
        assert!(timeline.get("balance.method").is_some());
        // Coarsening cycles append to the same timeline.
        record_timeline_row(&mut timeline, &p.coarsen_cycle(0.3, 0.1));
        assert_eq!(timeline.cycles(), 3);
    }

    /// Collective costs grow like `words · log₂ P` from 256 to 1024 ranks:
    /// the 1-word probes by ≈ 10/8 — `allreduce` and `exscan` exactly so,
    /// since none of their messages grows with P — and the `words = P`
    /// allreduce by less than 4 × 10/8, where carrying every rank's raw
    /// value up a gather tree read ≈ 16.
    #[test]
    fn collective_probes_scale_with_log_p() {
        let (lo, hi) = (collective_probes(256), collective_probes(1024));
        for ((name, lo), (_, hi)) in lo.named().into_iter().zip(hi.named()) {
            assert!(lo > 0.0, "{name} cost must be positive");
            let ratio = hi / lo;
            let ceiling = match name {
                "allreduce" | "exscan" => 1.26,
                "allreduce_wP" => 5.0,
                _ => 2.0,
            };
            assert!(
                ratio < ceiling,
                "{name}: cost(1024)/cost(256) = {ratio:.2}, not O(words · log P)"
            );
        }
    }

    /// Acceptance criterion of the attribution engine end to end: slow one
    /// rank's compute 2× in the P = 64 fig6 cycle and the explain report's
    /// top bucket must name the solver phase, the slowed rank, and compute
    /// as the cause, covering ≥ 80% of the measured makespan delta.
    ///
    /// Repartitioning is suppressed in both runs (`imbalance_trigger` far
    /// above any reachable imbalance): the capacity-aware balancer would
    /// otherwise react to the slowdown *within* the cycle, and the test
    /// must isolate the injected compute regression from the balancer's
    /// (legitimate) response to it.
    #[test]
    fn explain_attributes_injected_slowdown_to_the_right_bucket() {
        use plum_core::{Plum, PlumConfig, RemapPolicy};
        use plum_parsim::Perturbation;
        use plum_solver::WaveField;

        let p = FIG6_BENCH_NPROC;
        let run = |slow: bool| {
            let mut cfg = PlumConfig::new(p);
            cfg.policy = RemapPolicy::BeforeRefinement;
            cfg.imbalance_trigger = 100.0;
            let mut plum = Plum::new(
                crate::initial_mesh(Scale::Quick),
                WaveField::unit_box(),
                cfg,
            );
            if slow {
                plum.chaos = Perturbation::slowdown(p, FIG6_SLOW_RANK, FIG6_SLOW_FACTOR);
            }
            let r = plum.adaption_cycle(crate::CASES[1].1, 0.1);
            cycle_bench("fig6", &r, p, Scale::Quick.elements())
        };
        let baseline = run(false);
        let current = run(true);

        let (bd, cd) = (
            baseline.digest.as_ref().unwrap(),
            current.digest.as_ref().unwrap(),
        );
        let diff = plum_obs::diff_digests(bd, cd);
        assert!(
            diff.reconciliation_error() <= 1e-9,
            "bucket deltas must reconcile: {}",
            diff.render()
        );
        let delta = diff.delta();
        assert!(delta > 0.0, "the slowdown must cost makespan");
        let top = &diff.buckets[0];
        assert_eq!(
            (top.phase.as_str(), top.rank, top.kind.as_str()),
            ("solver", FIG6_SLOW_RANK, "compute"),
            "top bucket must blame the slowed rank's solver compute:\n{}",
            diff.render()
        );
        assert!(
            top.delta() >= 0.8 * delta,
            "top bucket covers {:.1}% of the delta, need ≥ 80%:\n{}",
            top.delta() / delta * 100.0,
            diff.render()
        );

        let text = plum_obs::explain(&baseline, &current);
        assert!(
            text.contains(&format!("rank {FIG6_SLOW_RANK} / compute")),
            "{text}"
        );
        assert!(text.contains("reconciliation"), "{text}");
    }

    /// Acceptance criteria of the portfolio's mild branch: the mild fig6
    /// cycle selects SFC diffusion (asserted inside `fig6_mild_bench`),
    /// lands under the 1.1 threshold afterwards, and its partition phase
    /// costs at most a fifth of the multilevel repartitioner's. The report
    /// is the committed `BENCH_fig6_mild.json` bit for bit, apart from
    /// `meta.git_sha`.
    #[test]
    fn fig6_mild_selects_diffusion_and_saves_5x() {
        let (b, analysis) = fig6_mild_bench(Scale::Quick);
        b.validate().expect("schema-valid report");
        assert_eq!(b.metrics["balance.method"], 2.0, "method code != diffusion");
        assert!(
            b.metrics["info.balance.imbalance_old"] > 1.02
                && b.metrics["info.balance.imbalance_old"] <= 1.1,
            "mild scenario drifted out of the (1.02, 1.1] band: {}",
            b.metrics["info.balance.imbalance_old"]
        );
        assert!(b.metrics["balance.imbalance_new"] <= b.metrics["info.balance.imbalance_old"]);
        assert!(
            b.metrics["partition.ratio_vs_multilevel"] <= 0.2,
            "diffusion/multilevel ratio {} above 1/5",
            b.metrics["partition.ratio_vs_multilevel"]
        );
        assert!(b.metrics["critical_path.partition.seconds"] > 0.0);
        assert!(analysis.contains("sfc_diffusion"));
        assert_reproduces_baseline(&b, "BENCH_fig6_mild.json");
    }
}
