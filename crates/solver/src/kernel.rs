//! The edge-based explicit solver kernel and error indicator.

use plum_mesh::{TetMesh, VertId, VertexField};

use crate::field::WaveField;
use crate::NCOMP;

/// Solver parameters.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Explicit iterations to run.
    pub n_iter: usize,
    /// Relaxation factor toward the analytic field per iteration (0..1).
    pub relax: f64,
    /// Edge-smoothing factor per iteration (0..0.5).
    pub smooth: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            n_iter: 10,
            relax: 0.3,
            smooth: 0.1,
        }
    }
}

/// What one solve reports: the work performed, for virtual-time charging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Total edge visits (the unit of solver work: one flux evaluation).
    pub edge_visits: u64,
}

/// Set the solution to the analytic state at time `t` (initialization).
pub fn initialize_solution(mesh: &TetMesh, field: &mut VertexField, wave: &WaveField, t: f64) {
    assert_eq!(field.ncomp(), NCOMP);
    for v in mesh.verts() {
        field.set(v, &wave.state(mesh.vert_pos(v), t));
    }
}

/// Run the explicit edge-based kernel: each iteration smooths the solution
/// along edges (the "flux" exchange) and relaxes it toward the analytic
/// field at time `t` (the forcing). Converges to a discrete sampling of the
/// wave field while exercising exactly the data-access pattern (edge loops
/// over vertex unknowns) of the real cell-vertex scheme.
///
/// The sweep reads a flat list of edge endpoints built once per call and
/// each vertex's components through one slice of the field; a vertex's
/// degree is the mesh's, and its analytic target, fixed for the call, is
/// evaluated once.
pub fn solve(
    mesh: &TetMesh,
    field: &mut VertexField,
    wave: &WaveField,
    t: f64,
    cfg: &SolverConfig,
) -> SolverStats {
    assert_eq!(field.ncomp(), NCOMP);
    let verts: Vec<_> = mesh.verts().collect();
    let edges: Vec<[VertId; 2]> = mesh.edges().map(|e| mesh.edge_verts(e)).collect();
    let mut delta = vec![[0.0f64; NCOMP]; mesh.vert_slots()];
    let targets: Vec<[f64; NCOMP]> = verts
        .iter()
        .map(|&v| wave.state(mesh.vert_pos(v), t))
        .collect();
    // The first update writes every live vertex, backing the field up to
    // the last one; until then an unbacked vertex reads zeros either way.
    let u = field.slots_mut(verts.last().map_or(0, |v| v.idx() + 1));
    let at = |v: VertId| v.idx() * NCOMP..(v.idx() + 1) * NCOMP;

    for _ in 0..cfg.n_iter {
        for d in delta.iter_mut() {
            *d = [0.0; NCOMP];
        }
        // Flux accumulation over edges.
        for &[a, b] in &edges {
            let (ua, ub) = (&u[at(a)], &u[at(b)]);
            for c in 0..NCOMP {
                let diff = ub[c] - ua[c];
                delta[a.idx()][c] += diff;
                delta[b.idx()][c] -= diff;
            }
        }
        // Explicit update with relaxation toward the analytic state.
        for (&v, target) in verts.iter().zip(&targets) {
            let deg = mesh.vert_degree(v).max(1) as f64;
            let dv = &delta[v.idx()];
            for (c, x) in u[at(v)].iter_mut().enumerate() {
                let smoothed = *x + cfg.smooth * dv[c] / deg;
                *x = smoothed + cfg.relax * (target[c] - smoothed);
            }
        }
    }

    SolverStats {
        iterations: cfg.n_iter,
        edge_visits: cfg.n_iter as u64 * edges.len() as u64,
    }
}

/// The per-edge error indicator: the jump of the density component across
/// the edge, scaled by edge length — large where the solution has steep
/// gradients (shock/front regions), which is where refinement is targeted.
pub fn edge_error_indicator(mesh: &TetMesh, field: &VertexField) -> Vec<f64> {
    let mut err = vec![0.0f64; mesh.edge_slots()];
    for e in mesh.edges() {
        let [a, b] = mesh.edge_verts(e);
        let jump = (field.comp(a, 0) - field.comp(b, 0)).abs();
        err[e.idx()] = jump * mesh.edge_len2(e).sqrt();
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use plum_adapt::{AdaptiveMesh, EdgeMarks};
    use plum_mesh::generate::unit_box_mesh;

    #[test]
    fn solve_converges_toward_analytic_field() {
        let mesh = unit_box_mesh(4);
        let wave = WaveField::unit_box();
        let mut field = VertexField::new(NCOMP, mesh.vert_slots());
        // Start from zero (far from the truth).
        let cfg = SolverConfig {
            n_iter: 60,
            relax: 0.4,
            smooth: 0.05,
        };
        let stats = solve(&mesh, &mut field, &wave, 0.0, &cfg);
        assert_eq!(stats.iterations, 60);
        assert_eq!(stats.edge_visits, 60 * mesh.n_edges() as u64);
        // Compare to the truth at a few vertices.
        let mut worst: f64 = 0.0;
        for v in mesh.verts() {
            let truth = wave.state(mesh.vert_pos(v), 0.0);
            let got = field.comp(v, 0);
            worst = worst.max((truth[0] - got).abs());
        }
        assert!(worst < 0.15, "solver did not converge: max err {worst}");
    }

    /// The sweep as it read through the per-component accessors: one
    /// `comp` per read, one `set` per vertex, the target evaluated every
    /// iteration.
    fn solve_by_accessors(
        mesh: &TetMesh,
        field: &mut VertexField,
        wave: &WaveField,
        t: f64,
        cfg: &SolverConfig,
    ) -> SolverStats {
        let verts: Vec<_> = mesh.verts().collect();
        let edges: Vec<_> = mesh.edges().collect();
        let mut delta = vec![[0.0f64; NCOMP]; mesh.vert_slots()];
        let mut degree = vec![0u32; mesh.vert_slots()];
        for &e in &edges {
            let [a, b] = mesh.edge_verts(e);
            degree[a.idx()] += 1;
            degree[b.idx()] += 1;
        }
        let mut edge_visits = 0u64;
        for _ in 0..cfg.n_iter {
            for d in delta.iter_mut() {
                *d = [0.0; NCOMP];
            }
            for &e in &edges {
                let [a, b] = mesh.edge_verts(e);
                edge_visits += 1;
                for c in 0..NCOMP {
                    let diff = field.comp(b, c) - field.comp(a, c);
                    delta[a.idx()][c] += diff;
                    delta[b.idx()][c] -= diff;
                }
            }
            for &v in &verts {
                let target = wave.state(mesh.vert_pos(v), t);
                let deg = degree[v.idx()].max(1) as f64;
                let mut s = [0.0; NCOMP];
                for c in 0..NCOMP {
                    let cur = field.comp(v, c);
                    let smoothed = cur + cfg.smooth * delta[v.idx()][c] / deg;
                    s[c] = smoothed + cfg.relax * (target[c] - smoothed);
                }
                field.set(v, &s);
            }
        }
        SolverStats {
            iterations: cfg.n_iter,
            edge_visits,
        }
    }

    /// Every backed value's bits, slot by slot.
    fn bits(field: &VertexField) -> Vec<u64> {
        (0..field.len())
            .flat_map(|v| field.get(VertId::from_idx(v)).to_vec())
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn the_flat_sweep_equals_the_accessor_sweep_bit_for_bit() {
        // Refine the box around the tip twice, then coarsen most of it:
        // the mesh keeps dead vertex and edge slots between live ones.
        let wave = WaveField::unit_box();
        let mut am = AdaptiveMesh::new(unit_box_mesh(4));
        for _ in 0..2 {
            let mut marks = EdgeMarks::new(&am.mesh);
            let tip = wave.tip_position(0.4);
            for e in am.mesh.edges().collect::<Vec<_>>() {
                let m = am.mesh.edge_midpoint(e);
                if (0..3).map(|k| (m[k] - tip[k]).powi(2)).sum::<f64>() < 0.16 {
                    marks.mark(e);
                }
            }
            am.upgrade_to_fixpoint(&mut marks);
            am.refine(&marks, &mut []);
        }
        let mut cmarks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            if am.mesh.edge_midpoint(e)[0] < 0.6 {
                cmarks.mark(e);
            }
        }
        am.coarsen(&cmarks, &mut []);
        am.validate();
        let mesh = &am.mesh;
        assert!(mesh.n_verts() < mesh.vert_slots() && mesh.n_edges() < mesh.edge_slots());
        let last_live = mesh.verts().last().unwrap().idx();
        assert!(
            mesh.verts()
                .any(|v| v.idx() > 0 && !mesh.vert_alive(VertId::from_idx(v.idx() - 1))),
            "no dead vertex slot below a live one"
        );

        let cfg = SolverConfig::default();
        // From the analytic state, and from a field backing only part of
        // the mesh (unbacked vertices read zeros until first written).
        let mut seeded = VertexField::new(NCOMP, mesh.vert_slots());
        initialize_solution(mesh, &mut seeded, &wave, 0.3);
        let partial = VertexField::new(NCOMP, last_live / 2);
        for start in [seeded, partial] {
            let (mut flat, mut reference) = (start.clone(), start);
            let got = solve(mesh, &mut flat, &wave, 0.5, &cfg);
            let want = solve_by_accessors(mesh, &mut reference, &wave, 0.5, &cfg);
            assert_eq!(got, want);
            assert_eq!(flat.len(), reference.len());
            assert_eq!(bits(&flat), bits(&reference));
        }
    }

    #[test]
    fn error_indicator_peaks_near_the_tip() {
        let mesh = unit_box_mesh(6);
        let wave = WaveField::unit_box();
        let mut field = VertexField::new(NCOMP, mesh.vert_slots());
        initialize_solution(&mesh, &mut field, &wave, 0.0);
        let err = edge_error_indicator(&mesh, &field);
        let tip = wave.tip_position(0.0);
        // The highest-error edge should be near the tip blob.
        let best = mesh
            .edges()
            .max_by(|&a, &b| err[a.idx()].total_cmp(&err[b.idx()]))
            .unwrap();
        let mp = mesh.edge_midpoint(best);
        let d =
            ((mp[0] - tip[0]).powi(2) + (mp[1] - tip[1]).powi(2) + (mp[2] - tip[2]).powi(2)).sqrt();
        assert!(d < 0.35, "peak-error edge is {d} away from the tip");
    }

    #[test]
    fn indicator_is_zero_for_constant_solution() {
        let mesh = unit_box_mesh(3);
        let mut field = VertexField::new(NCOMP, mesh.vert_slots());
        for v in mesh.verts().collect::<Vec<_>>() {
            field.set(v, &[1.0, 0.0, 0.0, 0.0, 0.4]);
        }
        let err = edge_error_indicator(&mesh, &field);
        assert!(err.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn initialize_matches_truth_exactly() {
        let mesh = unit_box_mesh(2);
        let wave = WaveField::unit_box();
        let mut field = VertexField::new(NCOMP, mesh.vert_slots());
        initialize_solution(&mesh, &mut field, &wave, 1.5);
        for v in mesh.verts() {
            let truth = wave.state(mesh.vert_pos(v), 1.5);
            for c in 0..NCOMP {
                assert_eq!(field.comp(v, c), truth[c]);
            }
        }
    }
}
