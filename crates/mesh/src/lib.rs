//! # plum-mesh — edge-based tetrahedral meshes
//!
//! The mesh substrate for the PLUM reproduction: an edge-based tetrahedral
//! mesh in the style of 3D_TAG (elements are defined by their six edges and
//! four vertices; vertices and edges keep their degrees, and a vertex pair
//! finds its edge in a table bucketed by the pair's higher vertex),
//! synthetic initial-mesh generators standing in for the paper's rotor grid,
//! the dual graph of the initial mesh with the paper's two weight systems
//! (`wcomp`/`wremap`), geometric utilities, and submesh extraction with
//! shared-processor lists for distributed execution.
//!
//! ```
//! use plum_mesh::{generate, DualGraph};
//!
//! let mesh = generate::unit_box_mesh(4);
//! assert_eq!(mesh.n_elems(), 6 * 4 * 4 * 4);
//! let dual = DualGraph::build(&mesh);
//! assert_eq!(dual.n(), mesh.n_elems());
//! ```

mod dual;
mod edge_table;
mod field;
pub mod generate;
pub mod geometry;
mod ids;
mod pairmap;
pub mod sfc;
mod shared;
mod submesh;
mod tetmesh;
pub mod vtk;

pub use dual::DualGraph;
pub use field::VertexField;
pub use ids::{EdgeId, ElemId, VertId};
pub use pairmap::PairMap;
pub use sfc::SfcCurve;
pub use shared::EdgeParts;
pub use submesh::{extract_submeshes, SubMesh};
pub use tetmesh::{MeshCounts, TetMesh, LOCAL_EDGE_VERTS, LOCAL_FACE_EDGES, LOCAL_FACE_VERTS};
