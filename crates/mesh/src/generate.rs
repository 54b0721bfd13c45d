//! Initial mesh generators.
//!
//! The paper's initial grid is an unstructured tetrahedral mesh around a
//! UH-1H rotor blade (60,968 elements). That geometry is proprietary to the
//! original experiment; these generators produce synthetic meshes of
//! comparable size and identical structure (conforming tetrahedra, 3D box or
//! cylindrical-wedge "rotor" domains) — every framework component consumes
//! only topology and per-edge error values, so the code paths exercised are
//! the same (see DESIGN.md, substitutions).

use crate::ids::VertId;
use crate::tetmesh::TetMesh;

/// The six permutations of (x, y, z) steps used by the Kuhn/Freudenthal
/// subdivision of a cube; all six tetrahedra share the main diagonal, which
/// makes the triangulation conforming across neighbouring cubes.
const KUHN_PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Generate a conforming tetrahedral mesh of the axis-aligned box
/// `[lo, hi]`, with `nx × ny × nz` cells of 6 tetrahedra each.
pub fn box_mesh(nx: usize, ny: usize, nz: usize, lo: [f64; 3], hi: [f64; 3]) -> TetMesh {
    assert!(nx >= 1 && ny >= 1 && nz >= 1);
    let nv = (nx + 1) * (ny + 1) * (nz + 1);
    let ne = 6 * nx * ny * nz;
    let mut mesh = TetMesh::with_capacity(nv, ne * 2, ne);

    let vid = |i: usize, j: usize, k: usize| -> usize { (k * (ny + 1) + j) * (nx + 1) + i };
    let mut ids = Vec::with_capacity(nv);
    for k in 0..=nz {
        for j in 0..=ny {
            for i in 0..=nx {
                let f = |t: usize, n: usize, a: f64, b: f64| a + (b - a) * t as f64 / n as f64;
                ids.push(mesh.add_vertex([
                    f(i, nx, lo[0], hi[0]),
                    f(j, ny, lo[1], hi[1]),
                    f(k, nz, lo[2], hi[2]),
                ]));
            }
        }
    }

    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                for perm in &KUHN_PERMS {
                    // Walk from the cube's low corner to its high corner,
                    // stepping the axes in `perm` order.
                    let mut c = [i, j, k];
                    let mut tet = [VertId(0); 4];
                    tet[0] = ids[vid(c[0], c[1], c[2])];
                    for (s, &axis) in perm.iter().enumerate() {
                        c[axis] += 1;
                        tet[s + 1] = ids[vid(c[0], c[1], c[2])];
                    }
                    mesh.add_elem(tet);
                }
            }
        }
    }
    mesh
}

/// Unit-cube mesh with `n³` cells (6n³ elements).
pub fn unit_box_mesh(n: usize) -> TetMesh {
    box_mesh(n, n, n, [0.0; 3], [1.0; 3])
}

/// Parameters for the synthetic rotor-wedge domain (a fraction of the rotor
/// azimuth, as in the paper's hover computation).
#[derive(Debug, Clone, Copy)]
pub struct RotorDomain {
    /// Inner radius (blade root).
    pub r_inner: f64,
    /// Outer radius (far field).
    pub r_outer: f64,
    /// Azimuthal extent in radians (e.g. `PI / 2.0` for a quarter-annulus
    /// with 4-bladed periodicity).
    pub azimuth: f64,
    /// Vertical half-extent.
    pub half_height: f64,
}

impl Default for RotorDomain {
    fn default() -> Self {
        RotorDomain {
            r_inner: 0.15,
            r_outer: 1.0,
            azimuth: std::f64::consts::FRAC_PI_2,
            half_height: 0.35,
        }
    }
}

/// Generate a cylindrical-wedge mesh for rotor-like problems: a box mesh
/// mapped to `(r, θ, z)` with `nr × nt × nz` cells.
pub fn rotor_mesh(nr: usize, nt: usize, nz: usize, dom: RotorDomain) -> TetMesh {
    let mut mesh = box_mesh(nr, nt, nz, [0.0; 3], [1.0; 3]);
    // Remap every vertex from the unit box into the wedge. Topology is
    // untouched, so the mesh stays conforming.
    let verts: Vec<_> = mesh.verts().collect();
    for v in verts {
        let [x, y, z] = mesh.vert_pos(v);
        let r = dom.r_inner + x * (dom.r_outer - dom.r_inner);
        let th = y * dom.azimuth;
        let zz = (z - 0.5) * 2.0 * dom.half_height;
        mesh.set_vert_pos(v, [r * th.cos(), r * th.sin(), zz]);
    }
    mesh
}

/// Choose `(nx, ny, nz)` so a box mesh has approximately `target` elements
/// (each cell contributes 6).
pub fn box_dims_for_elements(target: usize) -> (usize, usize, usize) {
    assert!(target >= 6);
    let cells = (target as f64 / 6.0).max(1.0);
    let n = cells.cbrt().round().max(1.0) as usize;
    // Adjust the last dimension to land closest to the target.
    let nz = (cells / (n * n) as f64).round().max(1.0) as usize;
    (n, n, nz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::tet_volume;

    #[test]
    fn unit_box_counts() {
        let m = unit_box_mesh(2);
        let c = m.counts();
        assert_eq!(c.vertices, 27);
        assert_eq!(c.elements, 48);
        // Boundary of a 2x2x2 cube: 6 sides * 4 cells * 2 triangles = 48.
        assert_eq!(m.boundary_faces().len(), 48);
        m.validate();
    }

    #[test]
    fn box_mesh_is_conforming_and_positive_volume() {
        let m = box_mesh(3, 2, 2, [0.0; 3], [3.0, 2.0, 2.0]);
        m.validate();
        let total: f64 = m
            .elems()
            .map(|e| {
                let v = m.elem_verts(e);
                let vol = tet_volume(
                    m.vert_pos(v[0]),
                    m.vert_pos(v[1]),
                    m.vert_pos(v[2]),
                    m.vert_pos(v[3]),
                )
                .abs();
                assert!(vol > 1e-12, "degenerate tet");
                vol
            })
            .sum();
        assert!(
            (total - 12.0).abs() < 1e-9,
            "volumes must tile the box, got {total}"
        );
    }

    #[test]
    fn interior_faces_are_shared() {
        // In a conforming mesh every interior face has exactly 2 owners:
        // total faces = 4*E, boundary counted once, interior twice.
        let m = unit_box_mesh(3);
        let c = m.counts();
        let total_face_slots = 4 * c.elements;
        let boundary_faces = m.boundary_faces().len();
        let interior = (total_face_slots - boundary_faces) / 2;
        assert_eq!(
            interior * 2 + boundary_faces,
            total_face_slots,
            "face parity broken ⇒ non-conforming"
        );
    }

    #[test]
    fn rotor_mesh_maps_geometry_keeps_topology() {
        let dom = RotorDomain::default();
        let m = rotor_mesh(4, 6, 3, dom);
        m.validate();
        assert_eq!(m.n_elems(), 6 * 4 * 6 * 3);
        for v in m.verts() {
            let [x, y, z] = m.vert_pos(v);
            let r = (x * x + y * y).sqrt();
            assert!(r >= dom.r_inner - 1e-9 && r <= dom.r_outer + 1e-9);
            assert!(z.abs() <= dom.half_height + 1e-9);
        }
    }

    #[test]
    fn dims_for_target_close() {
        for target in [600, 6_000, 60_968, 200_000] {
            let (nx, ny, nz) = box_dims_for_elements(target);
            let got = 6 * nx * ny * nz;
            let rel = (got as f64 - target as f64).abs() / target as f64;
            assert!(rel < 0.15, "target {target} got {got}");
        }
    }
}
