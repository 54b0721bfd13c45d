//! Quickstart: one adaption + load-balancing cycle on a small mesh.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use plum_core::{Plum, PlumConfig};
use plum_mesh::generate::unit_box_mesh;
use plum_solver::WaveField;

fn main() {
    // An initial tetrahedral mesh of the unit box (6·8³ = 3072 elements)
    // and a rotating wave field that the error indicator will chase.
    let mesh = unit_box_mesh(8);
    println!("initial mesh: {:?}", mesh.counts());

    // Eight virtual processors with SP2-like cost constants.
    let cfg = PlumConfig::new(8);
    let mut plum = Plum::new(mesh, WaveField::unit_box(), cfg);

    // One cycle of Fig. 1: solve → mark → predict → balance → remap →
    // subdivide. Target roughly a third of the edges, as in Real_2.
    let report = plum.adaption_cycle(0.33, 0.1);

    println!("after one cycle: {:?}", report.counts);
    println!("mesh growth factor G = {:.3}", report.growth);
    println!(
        "marking took {} propagation sweep(s), {:.3} ms",
        report.marking_sweeps,
        report.times.marking * 1e3
    );
    println!(
        "load balancer: repartitioned={} accepted={} (imbalance {:.3} → {:.3})",
        report.decision.repartitioned,
        report.decision.accepted,
        report.decision.imbalance_old,
        report.decision.imbalance_new
    );
    if let Some(m) = &report.migration {
        println!(
            "remapped {} elements in {} messages ({} words) in {:.3} ms",
            m.elems_moved,
            m.msgs,
            m.words_moved,
            m.time * 1e3
        );
    }
    println!(
        "phase times (virtual ms): solver={:.1} marking={:.2} partition={:.1} \
         reassign={:.3} remap={:.2} subdivide={:.2}",
        report.times.solver * 1e3,
        report.times.marking * 1e3,
        report.times.partition * 1e3,
        report.times.reassign * 1e3,
        report.times.remap * 1e3,
        report.times.subdivide * 1e3
    );
    let unbalanced = report.decision.wmax_old;
    println!(
        "solver max-load without balancing: {unbalanced}, with balancing: {} (gain {:.2}×)",
        report.wmax_balanced,
        unbalanced as f64 / report.wmax_balanced as f64
    );
}
