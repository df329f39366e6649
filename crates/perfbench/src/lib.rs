//! `wormhole-bench`: the repo's benchmark.
//!
//! Seven named workloads, five end-to-end metrics and a traced per-crate
//! breakdown, all measured **from outside** the measured crates: by timing
//! calls into their public functions and by wrapping the two public traits
//! the simulator calls back into in counting decorators. See `README.md`
//! for the metric and workload tables and `BENCHMARK.json` at the repo
//! root for the contract the `bench` binary is driven under.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod decorators;
pub mod host;
pub mod json;
pub mod metrics;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;
