//! The `cascade_p64` cycles keep a valid mesh, and their edge lookups take
//! the table's spill path.
//!
//! The shape is rebuilt from the public API, as in `tests/decisions.rs`:
//! 20k elements, P = 64, the policy's method, the greedy mapper remapping
//! before refinement, seed 0 (`t0 = 0`), and two waves of two refinement
//! cycles (`0.3`, `dt = 0.15`) then two coarsening cycles (`0.6`,
//! `dt = 0.3`). After every cycle `AdaptiveMesh::validate` runs, which holds
//! the mesh's vertex-pair table to every live edge: each is found, a dead
//! vertex slot's bucket is empty, and the spill counts add up.
//!
//! Re-refining a coarsened mesh reuses freed low vertex slots for new
//! midpoints, which leaves vertices that are the higher endpoint of more
//! edges than one bucket holds (16): their lookups go through the overflow.
//! (The `paper_p64` shape, refinement only, gets no further than 14.) The
//! test asserts such a vertex exists after some cycle, counting each live
//! edge at its higher endpoint, so the validation above covers spilled
//! pairs. It also pins every cycle's element count (the `cascade_p64`
//! seed-0 column of `tests/decisions.rs`): a lookup that loses a spilled
//! pair makes a duplicate edge and moves the count.
//!
//! Ignored in tier-1 for time (~2 s release, far longer in debug); CI runs
//! it: `cargo test --release --test cascade_validity -- --ignored`.

use plum_core::{Plum, PlumConfig, RemapPolicy};
use plum_mesh::generate::{box_dims_for_elements, box_mesh};
use plum_mesh::TetMesh;
use plum_solver::WaveField;

/// Entries in one bucket of the mesh's vertex-pair table.
const BUCKET: usize = 16;

/// Per vertex slot, how many live edges have it as their higher endpoint.
fn bucket_loads(mesh: &TetMesh) -> Vec<usize> {
    let mut load = vec![0usize; mesh.vert_slots()];
    for e in mesh.edges() {
        let [a, b] = mesh.edge_verts(e);
        load[a.max(b).idx()] += 1;
    }
    load
}

#[test]
#[ignore = "release-only for time; CI's test job runs it"]
fn cascade_p64_stays_valid_every_cycle_and_spills() {
    let (nx, ny, nz) = box_dims_for_elements(20_000);
    let mut cfg = PlumConfig::new(64);
    cfg.policy = RemapPolicy::BeforeRefinement;
    let mesh = box_mesh(nx, ny, nz, [0.0; 3], [1.0; 3]);
    let mut plum = Plum::new(mesh, WaveField::unit_box(), cfg);
    plum.am.validate();

    let mut widest = Vec::new();
    let mut elements = Vec::new();
    for wave in 0..2 {
        for cycle in 0..4 {
            let report = if cycle < 2 {
                plum.adaption_cycle(0.3, 0.15)
            } else {
                plum.coarsen_cycle(0.6, 0.3)
            };
            plum.am.validate();
            let load = bucket_loads(&plum.am.mesh);
            let max = load.iter().copied().max().unwrap_or(0);
            let over: usize = load.iter().map(|&l| l.saturating_sub(BUCKET)).sum();
            println!(
                "wave {wave} cycle {cycle}: {} elements, widest bucket {max}, {over} pairs past a bucket",
                report.counts.elements
            );
            widest.push(max);
            elements.push(report.counts.elements);
        }
    }
    assert_eq!(
        elements,
        [65395, 205499, 42349, 21779, 70008, 216291, 49125, 20838]
    );
    assert!(
        widest.iter().any(|&m| m > BUCKET),
        "no cycle left a vertex with more than {BUCKET} lower neighbours: {widest:?}"
    );
}
