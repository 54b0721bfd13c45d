//! End-to-end integration tests: the full Fig.-1 pipeline across all crates.

use plum_core::{Mapper, Plum, PlumConfig};
use plum_mesh::generate::{rotor_mesh, unit_box_mesh, RotorDomain};
use plum_mesh::geometry::total_volume;
use plum_solver::WaveField;

fn plum(nproc: usize, n: usize) -> Plum {
    Plum::new(
        unit_box_mesh(n),
        WaveField::unit_box(),
        PlumConfig::new(nproc),
    )
}

#[test]
fn three_cycles_stay_valid_and_balanced() {
    let mut p = plum(6, 4);
    let initial_volume = total_volume(&p.am.mesh);
    for i in 0..3 {
        let r = p.adaption_cycle(0.15, 0.4);
        p.am.validate();
        assert!(r.growth >= 1.0, "cycle {i} shrank the mesh");
        // Geometry is preserved by refinement.
        let vol = total_volume(&p.am.mesh);
        assert!(
            (vol - initial_volume).abs() < 1e-9 * initial_volume,
            "cycle {i}: volume drifted from {initial_volume} to {vol}"
        );
        // The adopted assignment is never worse than doing nothing.
        assert!(r.wmax_balanced <= r.decision.wmax_old);
    }
}

#[test]
fn migration_volume_agrees_with_similarity_stats() {
    // Cross-crate invariant: the elements the migration engine actually
    // packs must equal C_total computed from the similarity matrix.
    let mut p = plum(8, 5);
    for _ in 0..2 {
        let r = p.adaption_cycle(0.3, 0.3);
        if let (Some(m), Some(stats)) = (&r.migration, &r.decision.stats) {
            assert_eq!(
                m.elems_moved, stats.total_elems,
                "migrated volume must equal the similarity-matrix prediction"
            );
        }
    }
}

#[test]
fn virtual_times_are_deterministic() {
    let run = || {
        let mut p = plum(4, 3);
        let r = p.adaption_cycle(0.25, 0.2);
        (
            r.times.marking,
            r.times.remap,
            r.counts.elements,
            r.decision.accepted,
        )
    };
    assert_eq!(
        run(),
        run(),
        "same inputs must give identical virtual times"
    );
}

#[test]
fn all_mappers_work_in_the_full_pipeline() {
    for mapper in [Mapper::GreedyMwbg, Mapper::OptimalMwbg, Mapper::OptimalBmcm] {
        let mut cfg = PlumConfig::new(4);
        cfg.mapper = mapper;
        let mut p = Plum::new(unit_box_mesh(4), WaveField::unit_box(), cfg);
        let r = p.adaption_cycle(0.3, 0.1);
        p.am.validate();
        assert!(r.growth > 1.0, "{mapper:?}");
        if r.decision.accepted {
            assert!(r.decision.imbalance_new <= r.decision.imbalance_old);
        }
    }
}

#[test]
fn maxv_metric_pipeline() {
    let mut cfg = PlumConfig::new(4);
    cfg.mapper = Mapper::OptimalBmcm;
    let mut p = Plum::new(unit_box_mesh(4), WaveField::unit_box(), cfg);
    let r = p.adaption_cycle(0.3, 0.1);
    p.am.validate();
    assert!(r.counts.elements > 0);
}

#[test]
fn f_greater_than_one_partitions() {
    let mut cfg = PlumConfig::new(4);
    cfg.partitions_per_proc = 2;
    let mut p = Plum::new(unit_box_mesh(4), WaveField::unit_box(), cfg);
    let r = p.adaption_cycle(0.35, 0.1);
    p.am.validate();
    // Every dual vertex still maps to a valid processor.
    assert!(p.proc_of_root.iter().all(|&x| (x as usize) < 4));
    assert!(r.growth > 1.0);
}

#[test]
fn rotor_geometry_full_pipeline() {
    let mesh = rotor_mesh(8, 12, 4, RotorDomain::default());
    let mut p = Plum::new(mesh, WaveField::rotor(), PlumConfig::new(4));
    let r = p.adaption_cycle(0.2, 0.2);
    p.am.validate();
    assert!(r.growth > 1.0);
}

#[test]
fn rejected_remap_keeps_everything_in_place() {
    let mut p = Plum::new(unit_box_mesh(4), WaveField::unit_box(), PlumConfig::new(4));
    // Movement is absurdly expensive: every proposal must be rejected.
    p.work.m_words = u64::MAX / 1_000_000;
    p.work.t_edge_visit = 1e-15;
    p.work.t_child = 0.0;
    let before = p.proc_of_root.clone();
    let r = p.adaption_cycle(0.3, 0.1);
    assert!(!r.decision.accepted);
    assert!(r.migration.is_none());
    assert_eq!(
        p.proc_of_root, before,
        "rejected mapping must not move data"
    );
    p.am.validate();
}

#[test]
fn solver_tracks_the_wave_across_cycles() {
    // On a coarse mesh the explicit kernel attenuates the blob's peak
    // (numerical diffusion), so compare *locations*, not amplitudes: after
    // two cycles the hottest vertex must still sit near the rotating tip.
    let mut p = plum(2, 3);
    for _ in 0..2 {
        p.adaption_cycle(0.1, 0.5);
    }
    let tip = p.wave.tip_position(p.time);
    let hottest =
        p.am.mesh
            .verts()
            .max_by(|&a, &b| p.field.comp(a, 0).partial_cmp(&p.field.comp(b, 0)).unwrap())
            .unwrap();
    let pos = p.am.mesh.vert_pos(hottest);
    let d =
        ((pos[0] - tip[0]).powi(2) + (pos[1] - tip[1]).powi(2) + (pos[2] - tip[2]).powi(2)).sqrt();
    assert!(
        d < 0.45,
        "solution peak at {pos:?} drifted {d} away from the tip {tip:?}"
    );
}
