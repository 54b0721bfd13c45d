//! One run of one workload in a fresh process. The timed child measures and
//! prints scalars only; the verify child repeats the run with the heavy
//! checks and the process counters. Both print one record per line:
//! `tag key=value ...` (see [`crate::harness`] for the reader).

use std::collections::BTreeMap;
use std::time::Instant;

use plum_core::{CycleReport, Plum, PlumConfig, RemapPolicy};
use plum_mesh::generate::box_mesh;
use plum_obs::TraceDigest;
use plum_parsim::check_protocol;
use plum_solver::WaveField;

use crate::span::{Recorder, Span};
use crate::sys;
use crate::workload::{Op, Spec};

/// The `PlumConfig` a spec describes: greedy mapper, remap before
/// refinement, and the spec's method / trigger overrides.
pub fn config(spec: &Spec) -> PlumConfig {
    let mut cfg = PlumConfig::new(spec.nproc);
    cfg.policy = RemapPolicy::BeforeRefinement;
    cfg.force_method = spec.method;
    if let Some(t) = spec.trigger {
        cfg.imbalance_trigger = t;
    }
    cfg
}

/// Set-up as a user pays it: generate the mesh, then `Plum::new` (dual
/// graph, initial k-way partition, SFC keys, engine).
pub fn build(spec: &Spec, cfg: PlumConfig) -> Plum {
    let (nx, ny, nz) = spec.dims;
    let mut plum = Plum::new(
        box_mesh(nx, ny, nz, [0.0; 3], [1.0; 3]),
        WaveField::unit_box(),
        cfg,
    );
    plum.time = spec.t0;
    plum
}

pub fn step(plum: &mut Plum, op: Op) -> CycleReport {
    match op {
        Op::Refine { frac, dt } => plum.adaption_cycle(frac, dt),
        Op::Coarsen { frac, dt } => plum.coarsen_cycle(frac, dt),
    }
}

/// 64-bit FNV-1a over the assignment vector.
fn fnv(words: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Number of events in a cycle's session log.
pub fn event_count(report: &CycleReport) -> usize {
    report.traces.session.events.iter().map(Vec::len).sum()
}

/// Print the scalars of one cycle: host wall time, the virtual results, and
/// a hash of the assignment for the cross-run equality check.
pub fn print_cycle(i: usize, plum: &Plum, report: &CycleReport, wall_s: f64) {
    let summary = report.traces.session.summary();
    let makespan = summary.ranks.iter().map(|r| r.total()).fold(0.0, f64::max);
    let elements = report.counts.elements;
    let imbalance = report.wmax_balanced as f64 * plum.cfg.nproc as f64 / elements as f64;
    println!(
        "cycle i={i} wall_s={wall_s} makespan_s={makespan} imbalance={imbalance} \
         partition_s={} elements={elements} hash={:016x}",
        report.times.partition,
        fnv(&plum.proc_of_root),
    );
}

/// The timed run: nothing but set-up, the cycles, and scalar bookkeeping.
/// The process counters are read outside the timed regions.
pub fn run_timed(spec: &Spec) {
    let rss_start = sys::rss_mb();
    let t = Instant::now();
    let mut plum = build(spec, config(spec));
    let setup_s = t.elapsed().as_secs_f64();

    let rss_before = sys::rss_mb();
    let (mut user_s, mut sys_s, mut minflt) = (0.0, 0.0, 0);
    for (i, &op) in spec.ops.iter().enumerate() {
        let u0 = sys::usage();
        let t = Instant::now();
        let report = step(&mut plum, op);
        let wall_s = t.elapsed().as_secs_f64();
        let u1 = sys::usage();
        user_s += u1.user_s - u0.user_s;
        sys_s += u1.sys_s - u0.sys_s;
        minflt += u1.minflt - u0.minflt;
        print_cycle(i, &plum, &report, wall_s);
    }
    // The peak is read after the last cycle and before anything else.
    let peak_rss_mb = sys::peak_rss_mb();
    let rss_growth_mb = sys::rss_mb() - rss_before;
    drop(plum);
    println!(
        "run setup_s={setup_s} peak_rss_mb={peak_rss_mb} cpu_user_s={user_s} cpu_sys_s={sys_s} \
         minflt={minflt} rss_growth_mb={rss_growth_mb} rss_retained_mb={}",
        sys::rss_mb() - rss_start
    );
}

/// Per-call samples by metric name, reported as means or as sums.
#[derive(Default)]
pub struct Means(BTreeMap<String, (f64, u32)>);

impl Means {
    pub fn add(&mut self, name: &str, value: f64) {
        let e = self.0.entry(name.to_string()).or_default();
        e.0 += value;
        e.1 += 1;
    }

    pub fn print_means(&self) {
        for (name, (sum, n)) in &self.0 {
            print_layer(name, sum / *n as f64);
        }
    }

    pub fn print_sums(&self) {
        for (name, (sum, _)) in &self.0 {
            print_layer(name, *sum);
        }
    }
}

fn print_layer(name: &str, value: f64) {
    println!("layer {name} {value}");
}

pub fn print_spans(spans: &[Span]) {
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        println!(
            "span {} {parent} {} {} {}",
            s.id, s.start_us, s.end_us, s.name
        );
    }
}

/// The verify run: the same cycles, each followed by the checks the timed
/// children skip (timed themselves, as probes of the checking code).
/// Violations are printed, never panicked on, so the harness can count
/// them as failed ops.
pub fn run_verify(spec: &Spec) {
    let mut rec = Recorder::new();
    let (mut plum, setup_s) = rec.span("core.plum_new", |_| build(spec, config(spec)));

    let mut per_cycle = Means::default();
    let mut total = Means::default();
    let (mut events, mut cycle_wall, mut wait, mut busy) = (0usize, 0.0, 0.0, 0.0);
    let (mut t_check, mut t_phase, mut t_digest) = (0.0, 0.0, 0.0);
    let mut elements = plum.am.mesh.n_elems();

    for (i, &op) in spec.ops.iter().enumerate() {
        let (report, wall_s) = rec.span("core.cycle", |_| step(&mut plum, op));
        print_cycle(i, &plum, &report, wall_s);
        cycle_wall += wall_s;

        let log = &report.traces.session;
        let (violations, t) = rec.span("parsim.check_protocol", |_| check_protocol(log));
        t_check += t;
        if !violations.is_empty() {
            println!(
                "violation {i} protocol: {} violations, first {:?}",
                violations.len(),
                violations[0]
            );
        }
        let (aggs, t) = rec.span("parsim.phase_breakdowns", |_| log.phase_breakdowns());
        t_phase += t;
        let summary = log.summary();
        let full: f64 = summary.ranks.iter().map(|r| r.total()).sum();
        let by_phase: f64 = aggs.iter().map(|a| a.total()).sum();
        if (full - by_phase).abs() > 1e-9 * full.max(1.0) {
            println!("violation {i} accounting: phases {by_phase} != summary {full}");
        }
        let (_, t) = rec.span("obs.digest", |_| TraceDigest::from_log(log));
        t_digest += t;

        let now = report.counts.elements;
        let monotone = match op {
            Op::Refine { .. } => now >= elements,
            Op::Coarsen { .. } => now <= elements,
        };
        if !monotone {
            println!("violation {i} elements: {elements} -> {now} under {op:?}");
        }
        elements = now;

        let cycle_events = event_count(&report);
        events += cycle_events;
        wait += summary.total_wait();
        busy += full;
        per_cycle.add("parsim.trace.events_per_cycle", cycle_events as f64);
        per_cycle.add("parsim.trace.msgs_per_cycle", summary.total_msgs() as f64);
        per_cycle.add("parsim.trace.words_per_cycle", summary.total_words() as f64);
        if matches!(op, Op::Refine { .. }) {
            per_cycle.add("core.parallel_mark.sweeps", report.marking_sweeps as f64);
        }
        per_cycle.add(
            "core.balance.accept_share",
            report.decision.accepted as u8 as f64,
        );
        let t = &report.times;
        for (phase, s) in [
            ("solver", t.solver),
            ("marking", t.marking),
            ("partition", t.partition),
            ("remap", t.remap),
            ("subdivide", t.subdivide),
            ("coarsen", t.coarsen),
        ] {
            total.add(&format!("core.virtual.{phase}_s"), s);
        }
        let (words, elems) = report
            .migration
            .as_ref()
            .map_or((0, 0), |m| (m.words_moved, m.elems_moved));
        total.add("remap.words_moved", words as f64);
        total.add("remap.elems_moved", elems as f64);
    }
    println!("run setup_s={setup_s}");

    // `validate` panics on a broken mesh; a panic is a non-zero exit, which
    // the harness counts as every cycle of this pass failed.
    plum.am.validate();

    per_cycle.print_means();
    total.print_sums();
    let ns_per_event = |seconds: f64| seconds * 1e9 / events.max(1) as f64;
    print_layer("parsim.events_per_host_s", events as f64 / cycle_wall);
    print_layer("parsim.check_protocol.ns_per_event", ns_per_event(t_check));
    print_layer(
        "parsim.phase_breakdowns.ns_per_event",
        ns_per_event(t_phase),
    );
    print_layer("obs.digest.ns_per_event", ns_per_event(t_digest));
    print_layer("parsim.virtual_wait_share", wait / busy);
    print_spans(&rec.spans);
}
