//! Trace invariants of the executed (distributed) partition phase at P=64.
//!
//! The engine charges the partition phase from real session traffic, so the
//! phase's trace must carry real point-to-point and collective events, every
//! rank's accounted virtual time (compute + wire + wait + injected) must
//! reconstruct the measured phase time exactly, and the protocol checker
//! must accept both the partition trace and the full session timeline.

use plum_core::{BalanceMethod, Plum, PlumConfig};
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

    let trace = &report.traces.session.phase_slice("partition");
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

/// "Virtual unchanged" under the tier-1 command, per method: host-side
/// changes to the simulator or the balancers (shared collective payloads,
/// the rescan-free inflow quota, rank-local root lists, the single
/// `balance_body`) must leave the modeled machine's view of the partition
/// phase exactly as it was — same events, same declared words, same phase
/// time to the bit, same adopted assignment. One P = 64 cycle per method,
/// with and without a non-uniform second weight (a particle band near the
/// x = 0 face). Events, messages and assignments are those recorded before
/// shared payloads (multilevel) and before the balancers were folded into
/// one entry point (the rest); Σ words and makespans were re-recorded when
/// `allreduce` moved its reduction into the tree and the refinement's
/// demand allgather became an `exscan`, and the first multilevel row again
/// (events, msgs, Σ words, makespan) when a refinement stage began to carry
/// its part weights and reduce one sparse `(moves, Δw)` in place of a dense
/// weight row and a move count: one allreduce fewer in each of 7 stages,
/// i.e. 64 ranks × 6 markers and 126 sends with their receives. Both
/// multilevel rows were re-recorded (events, msgs, Σ words, makespan) when
/// a body began to return only its rank's parts: the trailing gather +
/// `n`-word bcast and the coarsest solve's `n`-word bcast became sized
/// scatters — 63 messages fewer, and Σ words 148 220 → 80 439 and
/// 50 586 → 11 742. The first multilevel row again (events, msgs, Σ words,
/// makespan) when a stage's `(moves, Δw)` began to ride the next ghost
/// exchange in place of an `allreduce` of its own: events 20 990 → 18 330,
/// msgs 7 071 → 6 957, Σ words 80 439 → 88 084 (the commit rows). With it
/// the other ten rows' makespans moved in their last bits only: a marking
/// sweep stopped paying an `allreduce`, so the phase starts at an earlier
/// session time, and its duration is a difference of two clock readings.
/// The ten replicated rows again (events, msgs, Σ words, makespan) when a
/// replicated body's part-weight and item-count checks began to ride its one
/// exchange to each part's home rank, in place of one `nparts`-word
/// `allreduce` per constraint and two 1-word conservation `allreduce`s: every
/// row is one exchange of 6 Bruck rounds, 384 messages, and 1 151 events
/// (1 127 for the dual Voronoi row, which moves nothing: every rank's row
/// stays home, and each round carries its 1-word header only). The first
/// multilevel row again (events, msgs, Σ words, makespan) when a level's
/// last commits began to ride the next level's first ghost exchange in
/// place of a closing exchange of their own: events 18 330 → 17 434, msgs
/// 6 957 → 6 573 (one closing exchange: 64 ranks × 6 rounds), Σ words
/// 88 084 → 86 944. The assignments never moved until the first multilevel
/// row was re-recorded once more (all five columns) when a level's gain
/// stages began to end at the first one that commits fewer than one move
/// per 100 of the level's vertices: events 17 434 → 12 970, msgs
/// 6 573 → 4 917, Σ words 86 944 → 68 606, makespan 17.1 → 14.3 ms, and
/// the partition changed with the stages it no longer runs. A change here
/// is a change to the model, not to the host.
#[test]
fn partition_phase_virtual_footprint_is_pinned() {
    use BalanceMethod::*;
    // (method, dual, events, msgs, Σ words, makespan bits, FNV of new_proc)
    #[rustfmt::skip]
    let table: [(BalanceMethod, bool, usize, u64, u64, u64, u64); 12] = [
        (Multilevel, false, 12_970, 4_917, 68_606, 0x3f8d_5767_f0d5_147a, 0x31d5_8846_f2f4_c843),
        (Multilevel, true, 764, 126, 11_742, 0x3f8a_3141_6b85_342c, 0xea3f_6f8b_b965_6fe8),
        (SfcDiffusion, false, 1_151, 384, 8_229, 0x3f35_425c_70ef_2b70, 0x5c9f_72cc_10de_c84c),
        (SfcDiffusion, true, 1_151, 384, 11_414, 0x3f39_355b_2b9f_c0f0, 0x8eb5_cc6c_3e2e_dc69),
        (Sfc, false, 1_151, 384, 11_921, 0x3f39_375e_9104_f570, 0x0a65_9e45_24ab_c58f),
        (Sfc, true, 1_151, 384, 17_969, 0x3f40_098d_726e_dd58, 0xf5e2_e5ce_2a56_1fc3),
        (Knapsack, false, 1_151, 384, 11_583, 0x3f34_9e72_9c54_b4d0, 0x57cb_cf43_ea29_fcff),
        (Knapsack, true, 1_151, 384, 18_971, 0x3f36_d0fc_dd35_d0b0, 0xea3f_6f8b_b965_6fe8),
        (Diffusion2, false, 1_151, 384, 7_850, 0x3f36_02f6_aa6b_ced0, 0xc06d_033b_6536_d07f),
        (Diffusion2, true, 1_151, 384, 11_969, 0x3f3b_07ee_35fe_13d0, 0x982e_3686_dbd7_d2c4),
        (Voronoi, false, 1_151, 384, 10_478, 0x3f3a_77a5_7dfe_5d90, 0x7a6b_c4f1_7b9f_7546),
        (Voronoi, true, 1_127, 384, 384, 0x3f31_67b1_6a1a_d110, 0xb2d6_cc51_3eac_cad0),
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
