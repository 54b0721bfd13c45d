//! Visualization export: run a few adaption cycles, then perform the
//! finalization phase (global numbering + host gather) and write the global
//! mesh with partition ids and the flow solution as legacy VTK — the
//! post-processing path §3 motivates the finalization phase with.
//!
//! ```text
//! cargo run --release --example visualize
//! paraview /tmp/plum_adapted.vtk   # or any VTK viewer
//! ```

use std::fs::File;
use std::io::BufWriter;

use plum_core::{finalize, Plum, PlumConfig};
use plum_mesh::extract_submeshes;
use plum_mesh::generate::unit_box_mesh;
use plum_mesh::vtk::{quality_stats, write_vtk};
use plum_solver::WaveField;

fn main() -> std::io::Result<()> {
    let mut plum = Plum::new(unit_box_mesh(6), WaveField::unit_box(), PlumConfig::new(8));
    for _ in 0..2 {
        plum.adaption_cycle(0.12, 0.4);
    }
    plum.am.validate();

    let q = quality_stats(&plum.am.mesh);
    println!(
        "adapted mesh: {} elements, quality min/mean/max = {:.3}/{:.3}/{:.3}, slivers {:.1}%",
        plum.am.mesh.n_elems(),
        q.min,
        q.mean,
        q.max,
        q.sliver_fraction * 100.0
    );

    // Write the adapted mesh with per-element partition id and per-vertex
    // density.
    let path = std::env::temp_dir().join("plum_adapted.vtk");
    {
        let mut w = BufWriter::new(File::create(&path)?);
        let am = &plum.am;
        let proc_of_root = &plum.proc_of_root;
        let field = &plum.field;
        write_vtk(
            &mut w,
            &am.mesh,
            &[
                ("partition", &|e| {
                    proc_of_root[am.root_of_elem(e) as usize] as f64
                }),
                ("level", &|e| am.level_of_elem(e) as f64),
            ],
            &[("density", &|v| field.comp(v, 0))],
        )?;
    }
    println!("wrote {}", path.display());

    // Exercise the distributed initialization + finalization on the INITIAL
    // mesh: distribute by the current partition of the dual graph, then
    // gather back and export.
    let initial = unit_box_mesh(6);
    let mut part = vec![0u32; initial.elem_slots()];
    for (i, e) in initial.elems().enumerate() {
        part[e.idx()] = plum.proc_of_root[i];
    }
    let subs = extract_submeshes(&initial, &part, 8);
    let fin = finalize(&subs, plum.cfg.machine);
    fin.mesh.validate();
    println!(
        "finalization gathered {} elements from 8 ranks in {:.3} virtual ms",
        fin.mesh.n_elems(),
        fin.time * 1e3
    );
    let snap = std::env::temp_dir().join("plum_initial_partition.vtk");
    {
        let mut w = BufWriter::new(File::create(&snap)?);
        let part = &part;
        let initial_ref = &initial;
        write_vtk(
            &mut w,
            initial_ref,
            &[("partition", &|e| part[e.idx()] as f64)],
            &[],
        )?;
    }
    println!("wrote {}", snap.display());
    Ok(())
}
