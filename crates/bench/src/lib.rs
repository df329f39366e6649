//! Shared workload builders for the criterion benches.
//!
//! The benches themselves live under `benches/` (one file per
//! subsystem: butterfly relations, lower bounds, refinement, models,
//! the wormhole simulator per engine, experiments, and workload
//! generation); this library crate only hosts the instance constructors
//! they share. CI builds every bench (`cargo bench --no-run`) so they
//! cannot rot; the repo's end-to-end benchmark, with checked outputs and
//! a parent-vs-change `compare`, is `crates/perfbench`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use wormhole_core::butterfly::relation::QRelation;
use wormhole_topology::butterfly::Butterfly;
use wormhole_topology::path::{Path, PathSet};

/// A random permutation workload on a `2^k`-input butterfly.
pub fn butterfly_permutation(k: u32, seed: u64) -> (Butterfly, PathSet) {
    let bf = Butterfly::new(k);
    let n = 1u32 << k;
    let rel = QRelation::random_relation(n, 1, seed);
    let paths: Vec<Path> = rel
        .pairs
        .iter()
        .map(|&(s, d)| bf.greedy_path(s, d))
        .collect();
    (bf, PathSet::new(paths))
}
