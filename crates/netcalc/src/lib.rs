//! Analytic worst-case bounds for feedforward wormhole networks — a
//! network-calculus backend that answers the paper's question ("what does
//! `B` buy?") without simulating a single flit.
//!
//! Following Farhi & Gaujal, *Performance bounds in wormhole routing, a
//! network calculus approach* (arXiv 1007.4853), traffic is abstracted
//! into piecewise-linear **arrival curves** (minima of leaky buckets
//! `γ_{r,b}`, [`curve`]). On a *feedforward* routing set
//! ([`wormhole_topology::graph::Graph::is_feedforward`]) a per-edge
//! fixed point then yields certified header-wait bounds under VC
//! multiplexing — the physical channel's `B` flits/step of aggregate
//! bandwidth split across the `B` virtual channels — which close into
//! end-to-end delay and backlog bounds per flow ([`bounds`]). The
//! closure needs no service curves: each wait is where the `B`-rate line
//! clears an edge's summed, delay-shifted arrival envelopes.
//!
//! The contract against the simulator is exact and is enforced by a
//! cross-validation property test: for every feedforward instance,
//! **simulated p100 latency ≤ the analytic delay bound**. The bound is
//! valid for [`wormhole_flitsim::wormhole`]'s default model — rigid
//! worms, static per-edge VC allocation `B`, full per-VC bandwidth (`B`
//! flits per channel per step), any arbitration — on any acyclic routing
//! graph. It is *not* claimed for router-pooled VCs, adaptive routing, or
//! the one-flit-per-step comparison baseline
//! ([`wormhole_flitsim::restricted`]).
//!
//! # Example
//!
//! ```
//! use wormhole_netcalc::bounds::{delay_bounds, BoundConfig};
//! use wormhole_netcalc::flow::Flow;
//! use wormhole_topology::butterfly::Butterfly;
//!
//! // One leaky-bucket flow per input of a 16-input butterfly, all
//! // routed to the complement output — an adversarial pattern.
//! let bf = Butterfly::new(4);
//! let flows: Vec<Flow> = (0..16)
//!     .map(|s| {
//!         let p = bf.greedy_path(s, (15 - s) % 16);
//!         Flow::synthetic(p.edges().to_vec(), 4, 1.0, 0.02)
//!     })
//!     .collect();
//! // With a single VC per edge no finite certificate exists...
//! let b1 = delay_bounds(bf.graph(), &flows, &BoundConfig::new(1)).unwrap();
//! assert!(!b1.bounded);
//! // ...but two VCs certify every flow's worst-case latency.
//! let b2 = delay_bounds(bf.graph(), &flows, &BoundConfig::new(2)).unwrap();
//! assert!(b2.bounded);
//! assert!(b2.flow_delay[0] >= (4 + 4 - 1) as f64);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod curve;
pub mod flow;

pub use bounds::{delay_bounds, BoundConfig, BoundError, BoundReport};
pub use curve::{ArrivalCurve, TokenBucket};
pub use flow::{flows_from_specs, Flow, TraceFlows};
