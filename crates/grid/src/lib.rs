//! Triangular-grid geometry substrate for the geometric amoebot model.
//!
//! This crate implements system **S1** and **S16** of the reproduction of
//! *Polylogarithmic Time Algorithms for Shortest Path Forests in Programmable
//! Matter* (Padalkin & Scheideler, PODC 2024):
//!
//! * axial coordinates on the infinite regular triangular grid `G_Δ`
//!   (§1.1 of the paper),
//! * the six cardinal [`Direction`]s and the three portal [`Axis`] labels
//!   x/y/z (Figure 2e),
//! * connected, hole-free [`AmoebotStructure`]s together with constructors
//!   for the workload shapes used by the benchmark harness,
//! * centralized reference algorithms (multi-source BFS, shortest-path-forest
//!   validation) that serve as ground truth for the distributed algorithms.
//!
//! # Example
//!
//! ```
//! use amoebot_grid::{shapes, AmoebotStructure, Coord};
//!
//! let structure = AmoebotStructure::new(shapes::parallelogram(4, 3)).unwrap();
//! assert_eq!(structure.len(), 12);
//! assert!(structure.is_hole_free());
//! let origin = structure.node_at(Coord::new(0, 0)).unwrap();
//! let dist = structure.bfs_distances(&[origin]);
//! assert_eq!(dist[origin.index()], Some(0));
//! ```

pub mod bfs;
pub mod chunkgrid;
pub mod coord;
pub mod editor;
pub mod random;
pub mod render;
pub mod shapes;
pub mod structure;
pub mod validate;

pub use bfs::{bfs_distances, bfs_parents, multi_source_bfs};
pub use chunkgrid::ChunkGrid;
pub use coord::{Axis, Coord, Direction, ALL_AXES, ALL_DIRECTIONS};
pub use editor::StructureEditor;
pub use random::{random_placement, random_shape_mix, random_snake, Placement};
pub use structure::{implicit_portal_edge, AmoebotStructure, NodeId, StructureError};
pub use validate::{validate_forest, ForestViolation};
