//! Grid snapshots for restart (§3): after finalization produces a global
//! mesh, it can be stored and a later run restarted from it — the adapted
//! grid becomes the new initial mesh (and hence the new dual graph), which
//! is also the paper's §4.1 remedy for a too-small initial mesh ("allow the
//! initial mesh to be adapted one or more times before using the dual graph
//! for all future adaptions").
//!
//! The format is the same hand-rolled binary codec used for migration, so a
//! snapshot's size in words is exactly what the cost model would charge to
//! ship it.

use plum_mesh::{TetMesh, VertId, VertexField};
use plum_remap::{Packer, Unpacker};
use std::fmt;

const MAGIC: u32 = 0x504c_554d; // "PLUM"
const VERSION: u32 = 1;

/// Why a snapshot buffer was rejected by [`read_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the `PLUM` magic number.
    BadMagic { found: u32 },
    /// The format version is not one this build can read.
    BadVersion { found: u32 },
    /// The buffer ends before the data its header promises.
    Truncated { needed: u64, available: u64 },
    /// Extra bytes follow a structurally complete snapshot.
    TrailingBytes { extra: usize },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SnapshotError::BadMagic { found } => {
                write!(f, "not a PLUM snapshot (magic {found:#010x})")
            }
            SnapshotError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {VERSION})"
                )
            }
            SnapshotError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated snapshot: need {needed} bytes, have {available}"
                )
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after snapshot payload")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serialize a computational mesh and a per-vertex solution field.
pub fn write_snapshot(mesh: &TetMesh, field: &VertexField) -> Vec<u8> {
    let mut p = Packer::new();
    p.put_u32(MAGIC);
    p.put_u32(VERSION);

    // Vertices, compacted.
    let verts: Vec<VertId> = mesh.verts().collect();
    let mut compact = vec![u32::MAX; mesh.vert_slots()];
    p.put_u32(verts.len() as u32);
    p.put_u32(field.ncomp() as u32);
    for (i, &v) in verts.iter().enumerate() {
        compact[v.idx()] = i as u32;
        let pos = mesh.vert_pos(v);
        p.put_f64(pos[0]);
        p.put_f64(pos[1]);
        p.put_f64(pos[2]);
        for c in 0..field.ncomp() {
            p.put_f64(field.comp(v, c));
        }
    }

    // Elements by compacted vertex ids.
    let elems: Vec<_> = mesh.elems().collect();
    p.put_u32(elems.len() as u32);
    for &e in &elems {
        for v in mesh.elem_verts(e) {
            p.put_u32(compact[v.idx()]);
        }
    }
    p.finish()
}

/// Require `needed` more bytes in the unpacker's buffer.
fn need(u: &Unpacker, needed: u64) -> Result<(), SnapshotError> {
    let available = u.remaining() as u64;
    if needed > available {
        Err(SnapshotError::Truncated { needed, available })
    } else {
        Ok(())
    }
}

/// Restore a snapshot written by [`write_snapshot`].
///
/// Returns the mesh (with a fresh, compact id space) and the solution field,
/// or a typed [`SnapshotError`] when the buffer is not a well-formed
/// snapshot (wrong magic, unknown version, truncated, trailing junk).
pub fn read_snapshot(bytes: &[u8]) -> Result<(TetMesh, VertexField), SnapshotError> {
    let mut u = Unpacker::new(bytes);
    need(&u, 16)?;
    let magic = u.get_u32();
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic { found: magic });
    }
    let version = u.get_u32();
    if version != VERSION {
        return Err(SnapshotError::BadVersion { found: version });
    }

    let nverts = u.get_u32() as usize;
    let ncomp = u.get_u32() as usize;
    need(&u, nverts as u64 * (3 + ncomp as u64) * 8)?;
    let mut mesh = TetMesh::with_capacity(nverts, nverts * 7, nverts * 6);
    let mut field = VertexField::new(ncomp, nverts);
    let mut scratch = vec![0.0f64; ncomp];
    for _ in 0..nverts {
        let pos = [u.get_f64(), u.get_f64(), u.get_f64()];
        let v = mesh.add_vertex(pos);
        for c in scratch.iter_mut() {
            *c = u.get_f64();
        }
        field.set(v, &scratch);
    }

    need(&u, 4)?;
    let nelems = u.get_u32() as usize;
    need(&u, nelems as u64 * 16)?;
    for _ in 0..nelems {
        let quad = [
            VertId(u.get_u32()),
            VertId(u.get_u32()),
            VertId(u.get_u32()),
            VertId(u.get_u32()),
        ];
        mesh.add_elem(quad);
    }
    if !u.is_exhausted() {
        return Err(SnapshotError::TrailingBytes {
            extra: u.remaining(),
        });
    }
    Ok((mesh, field))
}

/// Snapshot size in 8-byte words (what shipping it would cost).
pub fn snapshot_words(bytes: &[u8]) -> u64 {
    (bytes.len() as u64).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plum_adapt::{AdaptiveMesh, EdgeMarks};
    use plum_mesh::generate::unit_box_mesh;
    use plum_mesh::geometry::total_volume;
    use plum_solver::{initialize_solution, WaveField, NCOMP};

    fn adapted_state() -> (TetMesh, VertexField) {
        let mut am = AdaptiveMesh::new(unit_box_mesh(3));
        let mut field = VertexField::new(NCOMP, am.mesh.vert_slots());
        initialize_solution(&am.mesh, &mut field, &WaveField::unit_box(), 0.4);
        let mut marks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            if am.mesh.edge_midpoint(e)[0] < 0.4 {
                marks.mark(e);
            }
        }
        am.upgrade_to_fixpoint(&mut marks);
        am.refine(&marks, std::slice::from_mut(&mut field));
        (am.mesh, field)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (mesh, field) = adapted_state();
        let bytes = write_snapshot(&mesh, &field);
        assert!(snapshot_words(&bytes) > 0);
        let (back, field2) = read_snapshot(&bytes).unwrap();
        back.validate();
        let a = mesh.counts();
        let b = back.counts();
        assert_eq!(a.vertices, b.vertices);
        assert_eq!(a.elements, b.elements);
        assert_eq!(a.edges, b.edges);
        assert_eq!(mesh.boundary_faces().len(), back.boundary_faces().len());
        assert!((total_volume(&mesh) - total_volume(&back)).abs() < 1e-12);
        // Solution values survive (compacted ids walk in the same order).
        let orig: Vec<f64> = mesh.verts().map(|v| field.comp(v, 0)).collect();
        let rest: Vec<f64> = back.verts().map(|v| field2.comp(v, 0)).collect();
        assert_eq!(orig, rest);
    }

    #[test]
    fn restart_continues_the_computation() {
        // The restored mesh works as a new initial mesh for the framework —
        // the §4.1 "adapt first, then take the dual" workflow.
        let (mesh, _) = adapted_state();
        let bytes = write_snapshot(&mesh, &VertexField::new(NCOMP, mesh.vert_slots()));
        let (restored, _) = read_snapshot(&bytes).unwrap();
        let mut plum = crate::Plum::new(restored, WaveField::unit_box(), crate::PlumConfig::new(4));
        let r = plum.adaption_cycle(0.15, 0.2);
        plum.am.validate();
        assert!(r.growth >= 1.0);
        // The dual graph of the restart has one vertex per *restored*
        // element, larger than the pre-adaption dual would have been.
        assert_eq!(plum.dual.n(), plum.n_initial_elements());
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            read_snapshot(&[0u8; 16]).unwrap_err(),
            SnapshotError::BadMagic { found: 0 }
        );
    }

    #[test]
    fn rejects_corrupted_header_and_truncation() {
        let (mesh, field) = adapted_state();
        let mut bytes = write_snapshot(&mesh, &field);

        // Flip one magic byte: typed BadMagic, not a panic.
        let orig0 = bytes[0];
        bytes[0] ^= 0xff;
        assert!(matches!(
            read_snapshot(&bytes),
            Err(SnapshotError::BadMagic { .. })
        ));
        bytes[0] = orig0;

        // Bump the version field (bytes 4..8).
        let orig4 = bytes[4];
        bytes[4] = 0x7f;
        assert!(matches!(
            read_snapshot(&bytes),
            Err(SnapshotError::BadVersion { .. })
        ));
        bytes[4] = orig4;

        // Cut the buffer mid-payload: typed Truncated at every cut point.
        for cut in [8, 15, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    read_snapshot(&bytes[..cut]),
                    Err(SnapshotError::Truncated { .. })
                ),
                "cut at {cut} must report truncation"
            );
        }

        // Trailing junk after a complete snapshot is also rejected.
        bytes.push(0);
        assert_eq!(
            read_snapshot(&bytes).unwrap_err(),
            SnapshotError::TrailingBytes { extra: 1 }
        );
        bytes.pop();

        // And the intact buffer still round-trips.
        assert!(read_snapshot(&bytes).is_ok());
    }
}
