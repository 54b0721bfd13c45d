//! # plum-adapt — 3D_TAG-style tetrahedral mesh adaption
//!
//! Implements the paper's mesh adaptor (§3): per-edge error-driven marking
//! with upgrade propagation to the three legal subdivision patterns (1:2,
//! 1:4 isotropic face, 1:8 isotropic), subdivision with refinement trees
//! (parents retained), exact prediction of the post-refinement mesh from the
//! marking patterns alone, coarsening with family-level undo and conformity
//! re-refinement, and linear solution interpolation at bisection midpoints.
//!
//! The split between **marking** (bookkeeping, grid unchanged) and
//! **subdivision** (the mesh actually grows) is load-bearing for the whole
//! framework: PLUM remaps data *between* the two phases, when the data
//! volume is still small.
//!
//! ```
//! use plum_adapt::{AdaptiveMesh, EdgeMarks};
//! use plum_mesh::generate::unit_box_mesh;
//!
//! let mut am = AdaptiveMesh::new(unit_box_mesh(2));
//! let mut marks = EdgeMarks::new(&am.mesh);
//! let e = am.mesh.edges().next().unwrap();
//! marks.mark(e);
//! am.upgrade_to_fixpoint(&mut marks);
//! let pred = am.predict(&marks);
//! am.refine(&marks, &mut []);
//! assert_eq!(pred.total_elements as usize, am.mesh.n_elems());
//! ```

mod adaptive;
mod coarsen;
mod forest;
pub mod pattern;
mod refine;

pub use adaptive::{AdaptiveMesh, EdgeMarks, Prediction, RefineStats};
pub use coarsen::CoarsenStats;
pub use forest::{Forest, NodeId};
pub use pattern::{classify, upgrade, SubdivKind, FACE_MASKS, FULL_MASK};
