//! Network topologies and path analysis for the Cole–Maggs–Sitaraman
//! wormhole-routing reproduction.
//!
//! This crate provides every network substrate the paper touches:
//!
//! * a flat CSR [`graph::Graph`] with dense node/edge ids,
//! * [`path::Path`] / [`path::PathSet`] with the congestion–dilation
//!   analysis of §1.1,
//! * [`butterfly::Butterfly`] networks (Fig. 1) including the unrolled
//!   two-pass variant used by the §3.1 algorithm (Fig. 2),
//! * the [`lowerbound`] construction of Theorem 2.2.1,
//! * [`mesh::Mesh`] tori and [`hypercube::Hypercube`]s from the related
//!   work the paper compares against — a torus optionally carries the
//!   two-class Dally–Seitz dateline routing graph
//!   ([`mesh::RoutingDiscipline::DatelineClasses`]) whose
//!   dimension-order routes are deadlock-free by construction,
//! * [`adaptive`] — the [`adaptive::AdaptiveRouter`] abstraction for
//!   per-hop adaptive route selection over an adaptive VC lane with
//!   Dally–Seitz escape channels
//!   ([`mesh::RoutingDiscipline::AdaptiveEscape`]), and
//! * [`random_nets`] workload generators with controllable `C` and `D`.
//!
//! # Example
//!
//! ```
//! use wormhole_topology::butterfly::Butterfly;
//!
//! let bf = Butterfly::new(3); // the 8-input butterfly of Fig. 1
//! assert_eq!(bf.graph().num_nodes(), 8 * 4);
//! let path = bf.greedy_path(0b101, 0b010);
//! assert_eq!(path.len(), 3); // unique input→output path has log n edges
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod benes;
pub mod butterfly;
pub mod dateline;
pub mod fault;
pub mod graph;
pub mod hypercube;
pub mod lowerbound;
pub mod mesh;
pub mod path;
pub mod random_nets;
pub mod region;
pub mod subsets;

pub use adaptive::AdaptiveRouter;
pub use dateline::channel_dependency_graph;
pub use fault::{FaultError, FaultEvent, FaultPlan, FaultedMesh};
pub use graph::{EdgeId, Graph, GraphBuilder, NodeId};
pub use mesh::RoutingDiscipline;
pub use path::{Path, PathError, PathSet};
pub use region::RegionPlan;
