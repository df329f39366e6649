//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (the README catalog maps experiment ids to claims).
//!
//! Run `cargo run --release -p wormhole-harness --bin experiments -- all`
//! to print every table; pass an id (`e1`..`e9`, `f1`, `f2`, `x1`..`x13`)
//! for one (the README carries the full catalog with one-line purposes
//! and key figures). The open-loop latency-vs-offered-load family — `x2`
//! over the `wormhole-workloads` pattern suite, `x3` its butterfly view,
//! `x8` route-selection arms on the three-class escape torus, `x9` static
//! vs pooled VCs — runs through one sweep, [`open_loop_grid`].
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod open_loop_grid;
pub mod stats;
pub mod sweep;
pub mod table;

pub use experiments::{all_ids, render, run_by_id};
pub use table::Table;
