//! The core of the Cole–Maggs–Sitaraman reproduction: everything Section 2
//! and Section 3 of the paper construct or prove, as runnable code.
//!
//! * [`bounds`] — every bound formula in the paper, evaluated numerically;
//! * [`coloring`] / [`refine`] / [`pipeline`] — the Lemma 2.1.5 color
//!   refinement (Case 1, via Moser–Tardos resampling) and the Theorem 2.1.6
//!   coloring [`adaptive_min_colors`], `O(C(D log D)^{1/B}/B)` color
//!   classes;
//! * [`firstfit`] — the practical greedy B-bounded coloring comparator;
//! * [`schedule`] — color classes → release times → execution on the flit
//!   simulator, with the paper's zero-blocking guarantee checked;
//! * [`lower_bound`] — the Theorem 2.2.1 experiment;
//! * [`butterfly`] — the §3.1 two-pass randomized algorithm and the §3.2
//!   one-pass lower-bound machinery.
//!
//! # Example: schedule a workload with B virtual channels
//!
//! ```
//! use wormhole_core::pipeline::adaptive_min_colors;
//! use wormhole_core::schedule::ColorSchedule;
//! use wormhole_topology::random_nets::staggered_instance;
//!
//! let (graph, paths) = staggered_instance(8, 32, 64); // C≈8, D=32
//! let b = 2;
//! let report = adaptive_min_colors(&paths, &graph, b, 7, 64).unwrap();
//! let schedule = ColorSchedule::new(report.coloring, 16, paths.dilation());
//! let run = schedule.execute_checked(&graph, &paths, 16, b);
//! assert_eq!(run.delivered(), paths.len());
//! assert_eq!(run.total_stalls, 0); // the paper's guarantee
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod butterfly;
#[cfg(test)]
mod chernoff;
pub mod coloring;
pub mod firstfit;
pub mod lower_bound;
pub mod pipeline;
pub mod refine;
pub mod schedule;

pub use coloring::Coloring;
pub use pipeline::{adaptive_min_colors, PipelineReport};
pub use schedule::ColorSchedule;
