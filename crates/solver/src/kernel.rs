//! The edge-based explicit solver kernel and error indicator.

use plum_mesh::{TetMesh, VertexField};

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
pub fn solve(
    mesh: &TetMesh,
    field: &mut VertexField,
    wave: &WaveField,
    t: f64,
    cfg: &SolverConfig,
) -> SolverStats {
    assert_eq!(field.ncomp(), NCOMP);
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
        // Flux accumulation over edges.
        for &e in &edges {
            let [a, b] = mesh.edge_verts(e);
            edge_visits += 1;
            for c in 0..NCOMP {
                let diff = field.comp(b, c) - field.comp(a, c);
                delta[a.idx()][c] += diff;
                delta[b.idx()][c] -= diff;
            }
        }
        // Explicit update with relaxation toward the analytic state.
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
