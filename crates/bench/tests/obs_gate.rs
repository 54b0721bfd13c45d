//! End-to-end observability gate on real adaption cycles: the cross-rank
//! critical path must tile the measured phase times exactly, the BENCH
//! report must round-trip schema-valid, the regression gate must pass
//! against itself and fail on an injected slowdown, every reader of the
//! event log is pinned to the bit, and the fig6 run must reproduce its
//! committed baseline.

use plum_bench::report::{assert_reproduces_baseline, cycle_bench, fig6_bench};
use plum_bench::Scale;
use plum_core::{BalanceMethod, CycleReport, Plum, PlumConfig, RemapPolicy};
use plum_mesh::generate::unit_box_mesh;
use plum_obs::{
    compare, critical_path, heaviest_edges, phase_critical_path, BenchReport, TraceDigest,
};
use plum_parsim::{CollectiveStats, TraceLog};
use plum_solver::WaveField;

const TOL: f64 = 1e-9;

/// One remap-before Real_2-style cycle at P = 64 on a mesh small enough
/// for debug builds (750 initial elements).
fn p64_cycle() -> CycleReport {
    let mut cfg = PlumConfig::new(64);
    cfg.policy = RemapPolicy::BeforeRefinement;
    let mut p = Plum::new(unit_box_mesh(5), WaveField::unit_box(), cfg);
    p.adaption_cycle(0.33, 0.1)
}

#[test]
fn critical_path_tiles_the_p64_session_and_its_phases() {
    let r = p64_cycle();
    let session = &r.traces.session;

    // Whole-session path length == makespan.
    let makespan = session
        .events
        .iter()
        .flatten()
        .map(|e| e.end_time())
        .fold(0.0, f64::max);
    let cp = critical_path(session);
    assert!(
        (cp.length() - makespan).abs() < TOL,
        "critical path {} vs session makespan {makespan}",
        cp.length()
    );
    assert!(!cp.segments.is_empty());

    // Each phase's path length == that phase's measured elapsed time.
    let phases = session.phase_breakdowns();
    assert!(phases.len() >= 4, "expected a full cycle: {phases:?}");
    for agg in &phases {
        let pcp = phase_critical_path(session, &agg.name);
        assert!(
            (pcp.length() - agg.elapsed()).abs() < TOL,
            "phase {}: path {} vs elapsed {}",
            agg.name,
            pcp.length(),
            agg.elapsed()
        );
    }

    // The phase spans partition the session end to end.
    let span_sum: f64 = phases.iter().map(|a| a.elapsed()).sum();
    assert!(
        (span_sum - makespan).abs() < TOL,
        "phases cover {span_sum} of the {makespan} makespan"
    );

    // And the measured PhaseTimes agree with the per-phase paths.
    for (name, expect) in [
        ("solver", r.times.solver),
        ("marking", r.times.marking),
        ("remap", r.times.remap),
        ("subdivide", r.times.subdivide),
    ] {
        let pcp = phase_critical_path(session, name);
        assert!(
            (pcp.length() - expect).abs() < TOL,
            "phase {name}: path {} vs reported time {expect}",
            pcp.length()
        );
    }
}

#[test]
fn bench_report_roundtrips_and_gates() {
    let r = p64_cycle();
    let bench = cycle_bench("fig6", &r, 64, 750);
    bench.validate().expect("emitted report is schema-valid");
    assert!(bench.metrics.contains_key("critical_path.seconds"));
    assert!(bench.metrics.contains_key("phase.marking.seconds"));
    assert!(bench.metrics.contains_key("phase.marking.msgs"));

    let text = bench.to_json();
    let back = BenchReport::from_json(&text).expect("round-trip");
    assert_eq!(back, bench);

    // Identical reports pass the 5% gate.
    assert!(compare(&bench, &back, 5.0).passed());

    // An injected 10% slowdown on a tracked metric fails it.
    let mut slowed = bench.clone();
    let cur = slowed.metrics["phase.marking.seconds"];
    slowed.set("phase.marking.seconds", cur * 1.10);
    let cmp = compare(&bench, &slowed, 5.0);
    assert!(!cmp.passed(), "10% slowdown must trip the 5% gate");
    assert_eq!(cmp.regressions.len(), 1);
    assert_eq!(cmp.regressions[0].name, "phase.marking.seconds");
}

/// 64-bit FNV-1a, fed word by word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
    fn f(&mut self, x: f64) {
        self.u(x.to_bits());
    }
    fn collectives(&mut self, stats: &[CollectiveStats]) {
        for c in stats {
            self.u(c.calls);
            self.u(c.msgs);
            self.u(c.words);
            self.f(c.seconds);
        }
    }
}

/// Every reader of the event log, pinned to the bit on a real session (one
/// remap-before P = 8 cycle): each f64 (`to_bits`) and counter that
/// `summary()`, `phase_breakdowns()` and `phase_rank_breakdowns()` produce,
/// and the serialized digest. A change here means the walk changed what it
/// attributes or the order it accumulates in — or, as when the constants
/// were last re-recorded (the balance bodies return their rank's parts and
/// the reassignment answers each rank with a sized scatter, where the
/// partition was reassembled and `proc_of_part` broadcast whole; again when
/// a refinement stage's `(moves, Δw)` and a marking sweep's "changed" flag
/// began to ride the exchange each loop already makes, in place of an
/// `allreduce` of their own; again when the remap buffers — a vertex table
/// plus node records — went direct to their destinations behind one empty
/// Bruck exchange of notices, and a multilevel level's last commits began
/// to ride the next level's first exchange; again when a level's gain
/// stages began to end at the first one that commits under 1 % of the
/// level's vertices; again when a seeded hierarchy began to end at the
/// first contraction keeping more than three quarters of its level, and a
/// ghost exchange to ship values without their global ids), that the
/// modeled protocol itself changed. The constants of both pins also moved
/// once with no protocol change: when the `injected` seconds, 0.0 in both
/// logs, left the hashed fields, the critical path and the digest JSON, and
/// the old logs were hashed without them.
#[test]
fn trace_readers_are_pinned_to_the_bit() {
    let mut cfg = PlumConfig::new(8);
    cfg.policy = RemapPolicy::BeforeRefinement;
    let mut p = Plum::new(unit_box_mesh(4), WaveField::unit_box(), cfg);
    let r = p.adaption_cycle(0.33, 0.1);
    let (summary, phases, phase_ranks, digest) = reader_hashes(&r.traces.session);
    assert_eq!(
        (summary, phases, phase_ranks, digest),
        (
            0x486f_ca28_9759_d065,
            0x8efc_f479_5572_7889,
            0xf223_f1e7_6eaf_7e4e,
            0xaff0_c935_71b4_5f19
        ),
        "(summary, phase_breakdowns, phase_rank_breakdowns, digest JSON) FNV-1a: \
         ({summary:#018x}, {phases:#018x}, {phase_ranks:#018x}, {digest:#018x})"
    );
}

/// FNV-1a of each f64 (`to_bits`) and counter that `summary()`,
/// `phase_breakdowns()` and `phase_rank_breakdowns()` produce, and of the
/// serialized digest.
fn reader_hashes(log: &TraceLog) -> (u64, u64, u64, u64) {
    let mut h = Fnv::new();
    for s in &log.summary().ranks {
        h.u(s.rank as u64);
        for x in [s.compute, s.wire, s.wait] {
            h.f(x);
        }
        for x in [s.msgs_sent, s.words_sent, s.rewinds_blocked] {
            h.u(x);
        }
        h.collectives(&s.collectives);
    }
    let summary = h.0;

    let mut h = Fnv::new();
    for a in &log.phase_breakdowns() {
        h.bytes(a.name.as_bytes());
        for x in [a.compute, a.wire, a.wait, a.start, a.end] {
            h.f(x);
        }
        h.u(a.msgs);
        h.u(a.words);
    }
    let phases = h.0;

    let mut h = Fnv::new();
    for a in &log.phase_rank_breakdowns() {
        h.bytes(a.name.as_bytes());
        h.f(a.start);
        h.f(a.end);
        for s in &a.ranks {
            for x in [s.compute, s.wire, s.wait] {
                h.f(x);
            }
            h.u(s.msgs);
            h.u(s.words);
        }
        h.collectives(&a.collectives);
    }
    let phase_ranks = h.0;

    let mut json = String::new();
    TraceDigest::from_log(log).write_json(&mut json);
    let mut h = Fnv::new();
    h.bytes(json.as_bytes());
    (summary, phases, phase_ranks, h.0)
}

/// The same readers pinned on a session that holds point-to-point mail —
/// one remap-before P = 8 cycle forced to SFC diffusion, whose transport
/// ships the slices a part sheds by `Comm::send` — plus every field of
/// every matched message edge, the critical path's segments and totals,
/// and the ten heaviest waits.
#[test]
fn point_to_point_readers_are_pinned_to_the_bit() {
    let mut cfg = PlumConfig::new(8);
    cfg.policy = RemapPolicy::BeforeRefinement;
    cfg.force_method = Some(BalanceMethod::SfcDiffusion);
    let mut p = Plum::new(unit_box_mesh(4), WaveField::unit_box(), cfg);
    let r = p.adaption_cycle(0.33, 0.1);
    let log = &r.traces.session;

    // Mail is every message a collective did not carry: some was sent, and
    // some was matched to its receive.
    let summary = log.summary();
    let collective_msgs: u64 = (summary.ranks.iter().flat_map(|s| &s.collectives))
        .map(|c| c.msgs)
        .sum();
    let edges = log.message_edges();
    assert!(summary.total_msgs() > collective_msgs, "no mail was sent");
    assert!(edges.len() as u64 > collective_msgs, "no mail was received");

    let (summary, phases, phase_ranks, digest) = reader_hashes(log);

    let mut h = Fnv::new();
    for e in &edges {
        for x in [e.src, e.dst, e.send_event, e.recv_event] {
            h.u(x as u64);
        }
        h.u(e.words);
        for x in [
            e.send_start,
            e.send_end,
            e.recv_posted,
            e.recv_completed,
            e.wait,
        ] {
            h.f(x);
        }
        h.bytes(e.phase.as_bytes());
    }
    let edges = h.0;

    let mut h = Fnv::new();
    let path = critical_path(log);
    for s in &path.segments {
        h.u(s.rank as u64);
        h.bytes(s.kind.name().as_bytes());
        h.f(s.start);
        h.f(s.end);
    }
    for x in [
        path.start,
        path.end,
        path.compute,
        path.wire,
        path.wait,
        path.unattributed,
    ] {
        h.f(x);
    }
    let path = h.0;

    let mut h = Fnv::new();
    for e in heaviest_edges(log, 10) {
        h.u(e.src as u64);
        h.u(e.dst as u64);
        h.u(e.words);
        h.f(e.wait);
    }
    let heaviest = h.0;

    assert_eq!(
        (summary, phases, phase_ranks, digest, edges, path, heaviest),
        (
            0xbf79_b747_61e2_c194,
            0x03c2_d5e7_9031_8e54,
            0x4cda_a517_1a2f_a759,
            0x0465_2dd1_2cfc_0465,
            0xfd36_0022_9673_0ea7,
            0x48b6_b2f4_259a_609d,
            0xe27d_cf86_5336_30c2
        ),
        "(summary, phase_breakdowns, phase_rank_breakdowns, digest JSON, message_edges, \
         critical_path, heaviest_edges) FNV-1a: ({summary:#018x}, {phases:#018x}, \
         {phase_ranks:#018x}, {digest:#018x}, {edges:#018x}, {path:#018x}, {heaviest:#018x})"
    );
}

/// "Baselines unchanged" as a test: the fig6 BENCH run, in-process, is the
/// committed `benchmarks/baseline/BENCH_fig6.json` — every metric, `info.`
/// ones included, and the embedded digest — bit for bit, apart from
/// `meta.git_sha`. It reads the committed file, so a deliberate re-baseline
/// updates the expectation for free. Its `cycle.virtual_seconds` is the
/// session's critical path: no phase is left out of a cycle's seconds.
#[test]
fn fig6_bench_reproduces_the_committed_baseline_exactly() {
    let (current, _) = fig6_bench(Scale::Quick);
    assert_reproduces_baseline(&current, "BENCH_fig6.json");
    let m = &current.metrics;
    let gap = m["cycle.virtual_seconds"] - m["critical_path.seconds"];
    assert!(
        gap.abs() <= 1e-12,
        "cycle seconds miss the critical path by {gap}"
    );
}
