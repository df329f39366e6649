//! Open-loop synthetic traffic workloads for the wormhole reproduction.
//!
//! The paper (Cole–Maggs–Sitaraman '96) evaluates virtual-channel benefit
//! on *batch* instances — a fixed message set routed to completion. The
//! standard NoC methodology for the same question is *open-loop*: every
//! endpoint injects messages by a timed arrival process, destinations
//! follow a synthetic pattern, and latency/throughput curves against
//! offered load locate the saturation knee. This crate generates those
//! timed workloads; `wormhole_flitsim::open_loop` measures them.
//!
//! A [`Workload`] is a [`Substrate`] (butterfly / Beneš / torus /
//! hypercube) × a [`TrafficPattern`] (uniform, permutation, transpose,
//! bit-reversal, shuffle, hotspot, tornado) × an [`ArrivalProcess`]
//! (Bernoulli) × a message length and a seed. Generation is
//! deterministic per seed, with independent per-endpoint streams.
//!
//! # Generation order and cost
//!
//! [`Workload::generate_rows`] (and [`ServiceScenario::generate_rows`])
//! loop over steps outside and endpoints inside, so rows are produced in
//! `(release, src)` order — the order the simulator expects — and nothing
//! is sorted. Each endpoint keeps its own two streams (arrivals,
//! destinations), seeded from `(seed, endpoint)`, and each stream draws in
//! the same order as a per-endpoint loop would: interleaving the endpoints
//! changes no draw. A step costs each endpoint one step of its arrival
//! process ([`arrivals`]) — one coin, a word, a shift and an integer
//! compare against a threshold computed once — and an arrival one
//! destination draw. The working set is one coin, two generators per
//! endpoint, and the rows.
//!
//! # Example
//!
//! ```
//! use wormhole_workloads::{ArrivalProcess, Substrate, TrafficPattern, Workload};
//!
//! let w = Workload::new(
//!     Substrate::butterfly(4),
//!     TrafficPattern::UniformRandom,
//!     ArrivalProcess::bernoulli(0.1),
//!     4,  // flits per message
//!     42, // seed
//! );
//! let specs = w.generate(200);
//! assert!(!specs.is_empty());
//! assert!(specs.iter().all(|s| s.release < 200));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod closed_loop;
pub mod patterns;
pub mod service;
pub mod substrate;
mod wheel;

pub use arrivals::ArrivalProcess;
pub use closed_loop::{run_closed_loop, ClosedLoopConfig, ClosedLoopSource};
pub use patterns::{PatternSampler, TrafficPattern};
pub use service::ServiceScenario;
pub use substrate::Substrate;
pub use wormhole_topology::mesh::RoutingDiscipline;

use rand::prelude::*;
use rand::rngs::StdRng;

use wormhole_flitsim::message::MessageSpec;

/// A complete open-loop workload description.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The network substrate (owns the graph and the routing function).
    pub substrate: Substrate,
    /// Destination selection rule.
    pub pattern: TrafficPattern,
    /// Per-endpoint injection process.
    pub arrivals: ArrivalProcess,
    /// Message length in flits (`L ≥ 1`).
    pub msg_len: u32,
    /// Master seed; all randomness (pattern + arrivals) derives from it.
    pub seed: u64,
}

impl Workload {
    /// Builds a workload description (validates the pattern/substrate
    /// combination immediately by constructing a sampler).
    pub fn new(
        substrate: Substrate,
        pattern: TrafficPattern,
        arrivals: ArrivalProcess,
        msg_len: u32,
        seed: u64,
    ) -> Self {
        assert!(msg_len >= 1, "a message has at least its header flit");
        // Validate eagerly so misconfigurations fail at build, not generate.
        let _ = PatternSampler::new(pattern.clone(), &substrate, seed);
        Self {
            substrate,
            pattern,
            arrivals,
            msg_len,
            seed,
        }
    }

    /// Generates the timed message stream for injection steps
    /// `0..window`, sorted by release time (ties by source endpoint).
    ///
    /// Each endpoint owns two independent RNG streams derived from
    /// `(seed, endpoint)` — one for arrival times, one for destinations —
    /// so the trace for endpoint `e` does not change when the window or
    /// another endpoint's traffic changes (growing the window only
    /// appends), and the whole stream is identical across runs with the
    /// same seed.
    pub fn generate(&self, window: u64) -> Vec<MessageSpec> {
        self.generate_rows(window)
            .into_iter()
            .map(|r| {
                MessageSpec::new(self.substrate.route(r.src, r.dst), r.length).release_at(r.release)
            })
            .collect()
    }

    /// Generates the same stream as [`Workload::generate`], but as
    /// routing-free [`TraceRow`]s. `generate` is exactly `generate_rows`
    /// plus routing.
    ///
    /// Steps outside, endpoints inside: the rows come out in `(release,
    /// src)` order as they are drawn, and each endpoint's two streams
    /// see exactly the draws a per-endpoint loop would make.
    pub fn generate_rows(&self, window: u64) -> Vec<TraceRow> {
        let mut rows = Vec::new();
        // Every endpoint steps the same coin; at rate zero it draws nothing.
        let Some(arrives) = self.arrivals.stepper() else {
            return rows;
        };
        let sampler = PatternSampler::new(self.pattern.clone(), &self.substrate, self.seed);
        let mut streams: Vec<(StdRng, StdRng)> = (0..self.substrate.endpoints())
            .map(|src| {
                (
                    StdRng::seed_from_u64(mix(self.seed, src)),
                    StdRng::seed_from_u64(mix(self.seed ^ DST_STREAM_SALT, src)),
                )
            })
            .collect();
        for release in 0..window {
            for (src, (arrival_rng, dst_rng)) in (0..).zip(&mut streams) {
                if !arrives.sample(arrival_rng) {
                    continue;
                }
                let dst = sampler.draw(src, dst_rng);
                if self.substrate.injects(src, dst) {
                    rows.push(TraceRow {
                        src,
                        dst,
                        release,
                        length: self.msg_len,
                    });
                }
            }
        }
        rows
    }
}

/// One generated message before routing: endpoints, release step, and
/// length in flits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRow {
    /// Source endpoint (dense substrate endpoint space).
    pub src: u32,
    /// Destination endpoint.
    pub dst: u32,
    /// Release (injection-availability) step.
    pub release: u64,
    /// Message length in flits (`≥ 1`).
    pub length: u32,
}

/// Separates each endpoint's destination stream from its arrival stream.
const DST_STREAM_SALT: u64 = 0x6473_745f_7374_7265;

/// SplitMix64-style mix of the master seed and an endpoint id, so
/// per-endpoint streams are decorrelated.
pub(crate) fn mix(seed: u64, endpoint: u32) -> u64 {
    let mut z = seed ^ (endpoint as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod sort_oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_butterfly(rate: f64, seed: u64) -> Workload {
        Workload::new(
            Substrate::butterfly(4),
            TrafficPattern::UniformRandom,
            ArrivalProcess::bernoulli(rate),
            4,
            seed,
        )
    }

    #[test]
    fn same_seed_same_stream() {
        let a = uniform_butterfly(0.2, 9).generate(300);
        let b = uniform_butterfly(0.2, 9).generate(300);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.release, y.release);
            assert_eq!(x.length, y.length);
            assert_eq!(x.path.edges(), y.path.edges());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = uniform_butterfly(0.2, 1).generate(300);
        let b = uniform_butterfly(0.2, 2).generate(300);
        let same = a.len() == b.len()
            && a.iter()
                .zip(&b)
                .all(|(x, y)| x.release == y.release && x.path.edges() == y.path.edges());
        assert!(!same, "independent seeds should not reproduce the stream");
    }

    #[test]
    fn stream_is_release_sorted_and_in_window() {
        let specs = uniform_butterfly(0.3, 5).generate(200);
        assert!(specs.windows(2).all(|w| w[0].release <= w[1].release));
        assert!(specs.iter().all(|s| s.release < 200));
    }

    #[test]
    fn injection_rate_tracks_offered_load() {
        let w = uniform_butterfly(0.1, 3);
        let window = 4000u64;
        let specs = w.generate(window);
        let expected = 16.0 * window as f64 * 0.1;
        let got = specs.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "injected {got}, expected ≈ {expected}"
        );
        let ArrivalProcess::Bernoulli { rate } = w.arrivals;
        assert!((rate * w.msg_len as f64 - 0.4).abs() < 1e-12);
    }

    #[test]
    fn window_prefix_property() {
        // Growing the window only appends arrivals; the prefix stream is
        // unchanged (per-endpoint streams are window-independent).
        let small = uniform_butterfly(0.2, 12).generate(100);
        let large = uniform_butterfly(0.2, 12).generate(200);
        let large_prefix: Vec<_> = large.iter().filter(|s| s.release < 100).collect();
        assert_eq!(small.len(), large_prefix.len());
        for (a, b) in small.iter().zip(large_prefix) {
            assert_eq!(a.release, b.release);
            assert_eq!(a.path.edges(), b.path.edges());
        }
    }

    #[test]
    fn mesh_self_traffic_is_skipped() {
        let w = Workload::new(
            Substrate::torus(4, 2),
            TrafficPattern::UniformRandom,
            ArrivalProcess::bernoulli(0.5),
            2,
            7,
        );
        let specs = w.generate(200);
        assert!(!specs.is_empty());
        assert!(specs.iter().all(|s| !s.path.is_empty()));
    }

    #[test]
    fn deterministic_pattern_routes_match_map() {
        let w = Workload::new(
            Substrate::butterfly(4),
            TrafficPattern::BitReversal,
            ArrivalProcess::bernoulli(0.3),
            3,
            21,
        );
        let specs = w.generate(100);
        assert!(!specs.is_empty());
        let g = w.substrate.graph();
        let sampler = PatternSampler::new(w.pattern.clone(), &w.substrate, w.seed);
        let map = sampler.dest_map().unwrap();
        for s in &specs {
            let src = s.path.src(g).0; // level-0 node id == column
            let dst_col = s.path.dst(g).0 % 16;
            assert_eq!(map[src as usize], dst_col);
        }
    }
}
