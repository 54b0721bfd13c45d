//! Trace invariants of the executed (distributed) partition phase at P=64.
//!
//! The engine charges the partition phase from real session traffic, so the
//! phase's trace must carry real point-to-point and collective events, every
//! rank's accounted virtual time (compute + wire + wait) must
//! reconstruct the measured phase time exactly, and the protocol checker
//! must accept both the partition trace and the full session timeline.

use plum_core::{BalanceMethod, Plum, PlumConfig};
use plum_mesh::generate::unit_box_mesh;
use plum_parsim::{check_protocol, Call, TraceEvent};
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

    let trace = &report.traces.session.phase_slice("partition");
    assert_eq!(trace.nranks(), 64);

    // Real per-rank message traffic: sends and receives (the hops of
    // point-to-point and collective records), collectives, and the
    // step-boundary syncs all show up in the raw event streams.
    let mut sends = 0u64;
    let mut recvs = 0u64;
    let mut colls = 0u64;
    let mut syncs = 0u64;
    for stream in &trace.events {
        for ev in stream {
            match ev {
                TraceEvent::Call { call, .. } => {
                    colls += matches!(call, Call::Collective(_)) as u64;
                    let hops = trace.hops(ev);
                    let sent = hops.iter().filter(|h| h.is_send()).count() as u64;
                    sends += sent;
                    recvs += hops.len() as u64 - sent;
                }
                TraceEvent::Sync { .. } => syncs += 1,
                _ => {}
            }
        }
    }
    assert!(sends > 0, "no sends in the partition trace");
    assert!(recvs > 0, "no receives in the partition trace");
    assert!(colls > 0, "no collective events in the partition trace");
    assert!(syncs > 0, "no Sync events in the partition trace");

    // Accounting invariant: every rank's compute + wire + wait equals the
    // measured partition phase time (the session aligns all clocks at the
    // step boundary, so the phase time is common).
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
        .any(|ev| matches!(ev, TraceEvent::PhaseBegin { name, .. } if *name == "partition"));
    assert!(has_phase, "session timeline lost the partition phase span");
}

/// A refinement stage is one neighbour exchange and one scan, and the scan
/// ships what the stage changed: the partition phase makes no `allreduce`
/// (a stage's `(moves, Δw)` rides the next ghost exchange; a reduction of
/// its own would show one per stage), and the scan's rows are a fifth or
/// less of the words dense `1 + nparts`-word rows would put on the wire.
#[test]
fn multilevel_stage_pays_one_exchange_and_one_scan() {
    use plum_parsim::CollectiveKind::{Allreduce, Exscan};
    let report = multilevel_p64_report();
    let phases = report.traces.session.phase_rank_breakdowns();
    let partition = phases.iter().find(|a| a.name == "partition").unwrap();
    let scan = partition.collective(Exscan);
    assert!(scan.calls >= 64, "no refinement stage ran: {scan:?}");
    let reduce = partition.collective(Allreduce);
    assert_eq!(reduce.calls, 0, "a stage reduced on its own: {reduce:?}");

    let nparts = 64;
    let dense = scan.msgs * (1 + nparts);
    assert!(
        5 * scan.words <= dense,
        "stages scan {} words; dense rows would ship {dense}",
        scan.words
    );
}

/// FNV-1a over a `u32` slice (the hash `plum-e2e` prints per cycle).
fn fnv(xs: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in xs.iter().flat_map(|x| x.to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The modeled machine's view of the partition phase, per method: one
/// P = 64 cycle each, with and without a non-uniform second weight (a
/// particle band near the x = 0 face), pinned to its trace events,
/// messages, declared words, phase time to the bit and the FNV of the
/// adopted assignment. A host-side change to the simulator or the
/// balancers passes it unedited; a change to what the model charges moves
/// the first four columns, and a change to a partition moves the last.
/// Multilevel and SFC diffusion run their distributed bodies. Every other
/// method, and multilevel under two constraints, gathers the owned weights
/// to rank 0, runs the serial kernel there and scatters the parts back, so
/// those rows share one shape: 384 events and 126 messages, and the same
/// words and phase time for each constraint count. A collective is one
/// event per rank (its record), so the events column counts calls, not
/// messages. The history of each
/// re-recording is in CHANGES.md and EXPERIMENTS.md.
#[test]
fn partition_phase_virtual_footprint_is_pinned() {
    use BalanceMethod::*;
    // (method, dual, events, msgs, Σ words, makespan bits, FNV of new_proc)
    #[rustfmt::skip]
    let table: [(BalanceMethod, bool, usize, u64, u64, u64, u64); 12] = [
        (Multilevel, false, 1_728, 4_917, 58_222, 0x3f8d_3f0c_2f63_44aa, 0x31d5_8846_f2f4_c843),
        (Multilevel, true, 384, 126, 11_742, 0x3f8a_3141_6b85_342c, 0xea3f_6f8b_b965_6fe8),
        (SfcDiffusion, false, 622, 714, 3_207, 0x3f55_de38_aff4_d024, 0x2f62_8bab_907d_f51f),
        (SfcDiffusion, true, 787, 1_237, 4_398, 0x3f61_34a0_9b96_7436, 0x7667_c0d8_5bf1_8006),
        (Sfc, false, 384, 126, 7_851, 0x3f89_983b_4aae_cfdc, 0xea50_9483_de14_8b57),
        (Sfc, true, 384, 126, 11_742, 0x3f8a_3141_6b85_342c, 0xa5a7_d50c_19aa_c9eb),
        (Knapsack, false, 384, 126, 7_851, 0x3f89_983b_4aae_cfdc, 0x57cb_cf43_ea29_fcff),
        (Knapsack, true, 384, 126, 11_742, 0x3f8a_3141_6b85_342c, 0xea3f_6f8b_b965_6fe8),
        (Diffusion2, false, 384, 126, 7_851, 0x3f89_983b_4aae_cfdc, 0xc06d_033b_6536_d07f),
        (Diffusion2, true, 384, 126, 11_742, 0x3f8a_3141_6b85_342c, 0x982e_3686_dbd7_d2c4),
        (Voronoi, false, 384, 126, 7_851, 0x3f89_983b_4aae_cfdc, 0x7a6b_c4f1_7b9f_7546),
        (Voronoi, true, 384, 126, 11_742, 0x3f8a_3141_6b85_342c, 0xb2d6_cc51_3eac_cad0),
    ];
    for (method, dual, events, msgs, words, bits, hash) in table {
        let mut cfg = PlumConfig::new(64);
        cfg.force_method = Some(method);
        let mut plum = Plum::new(unit_box_mesh(6), WaveField::unit_box(), cfg);
        if dual {
            let band = |c: &[f64; 3]| if c[0] < 0.3 { 200 } else { 1 };
            plum.wcomp2 = Some(plum.root_centroid.iter().map(band).collect());
        }
        let report = plum.adaption_cycle(0.2, 0.1);
        let what = format!("{} dual={dual}", method.name());
        assert_eq!(report.decision.method, Some(method), "{what}");
        let trace = report.traces.session.phase_slice("partition");
        let summary = trace.summary();
        let got = (
            trace.events.iter().map(Vec::len).sum::<usize>(),
            summary.total_msgs(),
            summary.total_words(),
            report.times.partition.to_bits(),
            fnv(&report.decision.new_proc),
        );
        assert_eq!(
            got,
            (events, msgs, words, bits, hash),
            "{what}: (events, msgs, Σ words, makespan bits, FNV of new_proc); makespan {} s",
            report.times.partition
        );
    }
}
