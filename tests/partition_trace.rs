//! Trace invariants of the executed (distributed) partition phase at P=64.
//!
//! The engine charges the partition phase from real session traffic, so the
//! phase's trace must carry real point-to-point and collective events, every
//! rank's accounted virtual time (compute + wire + wait + injected) must
//! reconstruct the measured phase time exactly, and the protocol checker
//! must accept both the partition trace and the full session timeline.

use plum_core::{Plum, PlumConfig};
use plum_mesh::generate::unit_box_mesh;
use plum_parsim::{check_protocol, TraceEvent};
use plum_solver::WaveField;

/// A P=64 cycle on a mesh big enough (1296 dual vertices > the default
/// coarsening target of 1024) that the engine takes the genuinely
/// multilevel distributed path, not the gathered exact-serial shortcut.
///
/// If `PLUM_TRACE_ARTIFACT` is set, the full session trace is written there
/// (Chrome-trace JSON) *before* any assertion runs, so CI can upload the
/// timeline of a failing run.
fn multilevel_p64_report() -> plum_core::CycleReport {
    let mut plum = Plum::new(unit_box_mesh(6), WaveField::unit_box(), PlumConfig::new(64));
    let report = plum.adaption_cycle(0.2, 0.1);
    if let Ok(path) = std::env::var("PLUM_TRACE_ARTIFACT") {
        std::fs::write(&path, report.traces.session.chrome_json())
            .unwrap_or_else(|e| panic!("writing trace artifact {path}: {e}"));
    }
    report
}

#[test]
fn partition_phase_trace_carries_real_traffic_and_accounts_exactly() {
    let report = multilevel_p64_report();
    assert!(
        report.decision.repartitioned,
        "P=64 cycle must trigger repartitioning"
    );
    assert!(report.times.partition > 0.0);

    let trace = report
        .traces
        .partition
        .as_ref()
        .expect("engine path must record the partition trace");
    assert_eq!(trace.nranks(), 64);

    // Real per-rank message traffic: sends, receives, collectives, and the
    // step-boundary syncs all show up in the raw event streams.
    let mut sends = 0u64;
    let mut recvs = 0u64;
    let mut colls = 0u64;
    let mut syncs = 0u64;
    for stream in &trace.events {
        for ev in stream {
            match ev {
                TraceEvent::Send { .. } => sends += 1,
                TraceEvent::Recv { .. } => recvs += 1,
                TraceEvent::CollectiveEnter { .. } => colls += 1,
                TraceEvent::Sync { .. } => syncs += 1,
                _ => {}
            }
        }
    }
    assert!(sends > 0, "no Send events in the partition trace");
    assert!(recvs > 0, "no Recv events in the partition trace");
    assert!(colls > 0, "no collective events in the partition trace");
    assert!(syncs > 0, "no Sync events in the partition trace");

    // Widened accounting invariant: every rank's compute + wire + wait +
    // injected equals the measured partition phase time (the session aligns
    // all clocks at the step boundary, so the phase time is common).
    let summary = trace.summary();
    for r in &summary.ranks {
        assert!(
            (r.total() - report.times.partition).abs() < 1e-9,
            "rank {}: accounted {} vs measured phase time {}",
            r.rank,
            r.total(),
            report.times.partition
        );
    }

    // The SPMD protocol checker accepts the phase trace on its own.
    let violations = check_protocol(trace);
    assert!(violations.is_empty(), "partition trace: {violations:?}");
}

#[test]
fn full_session_trace_with_distributed_partitioning_passes_protocol_check() {
    let report = multilevel_p64_report();
    let log = &report.traces.session;
    assert_eq!(log.nranks(), 64);
    let violations = check_protocol(log);
    assert!(violations.is_empty(), "session trace: {violations:?}");

    // The session timeline must show the partition phase markers coming
    // from the executed kernel.
    let has_phase = log.events[0]
        .iter()
        .any(|ev| matches!(ev, TraceEvent::PhaseBegin { name, .. } if name == "partition"));
    assert!(has_phase, "session timeline lost the partition phase span");
}

/// "Virtual unchanged" under the tier-1 command: host-side optimisations of
/// the simulator or the partitioner (shared collective payloads, the
/// rescan-free inflow quota) must leave the modeled machine's view of the
/// partition phase exactly as it was — same events, same declared words,
/// same phase time to the bit. The values were recorded before payloads
/// were shared; a change here is a change to the model, not to the host.
#[test]
fn partition_phase_virtual_footprint_is_pinned() {
    let report = multilevel_p64_report();
    let trace = report.traces.partition.as_ref().unwrap();
    let events: usize = trace.events.iter().map(Vec::len).sum();
    let summary = trace.summary();
    assert_eq!(events, 27_488, "partition-phase event count");
    assert_eq!(summary.total_msgs(), 8_016, "partition-phase messages");
    assert_eq!(summary.total_words(), 2_143_763, "partition-phase Σ words");
    assert_eq!(
        report.times.partition.to_bits(),
        0x3fb4_1abe_474d_f22d,
        "partition-phase makespan {} s",
        report.times.partition
    );
}
