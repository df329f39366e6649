//! Flit-level network simulators for the Cole–Maggs–Sitaraman reproduction.
//!
//! The paper's model plus three comparison baselines, all cycle-accurate
//! at flit granularity:
//!
//! * [`wormhole`] — the paper's model (§1.1): `B` virtual channels per
//!   physical channel each moving one flit per step, one-flit buffers,
//!   rigid worms, arbitration policies, deadlock detection;
//! * [`restricted`] — the §1.4 Remarks' restricted model: the same `B`
//!   VC buffers per edge but one flit per *physical channel* per step,
//!   so flits advance individually and lanes time-share the wire;
//! * [`store_forward`] — the store-and-forward baseline: a switch must hold
//!   an entire message before forwarding it (time measured in message steps
//!   = `L` flit steps);
//! * [`cut_through`] — virtual cut-through with `F`-flit single-message
//!   buffers per edge (worms can compress behind a blocked header), used by
//!   the §1.4 fixed-buffer comparison.
//!
//! One door, [`wormhole::simulate`]: a graph, an optional router for
//! per-hop route selection, the traffic (a lent slice of
//! [`message::MessageSpec`]s, or a live [`source::TrafficSource`]) and a
//! [`config::SimConfig`], judged once by [`config::SimConfig::check`];
//! everything wrong with the input comes back as a
//! [`wormhole::SimError`]. Around it, the conveniences that panic with
//! the error's message instead: [`wormhole::run`] /
//! [`wormhole::run_adaptive`] for a slice — a fixed message set routed
//! to completion is the paper's *batch* setting — [`wormhole::run_source`]
//! for a source, and [`open_loop::run_open_loop`] for the *open-loop*
//! setting (continuous injection with warmup / measurement windows,
//! latency percentiles, accepted throughput, and saturation detection).
//!
//! The wormhole model has three bit-identical engines behind
//! [`config::Engine`]: the default event-driven engine (parked losers
//! contending in place, arrived worms draining on a step wheel), the
//! legacy per-step stepper kept as its differential oracle, and a
//! partitioned parallel engine ([`config::Engine::Parallel`]) that
//! shards the network into regions, one per worker thread, each advanced
//! by the event engine's own driver under conservative lookahead windows. Every engine runs every
//! configuration — adaptive routing, pooled VCs, reactive sources and
//! fault plans included; see the [`wormhole`] module docs for the
//! equivalence invariants.
//!
//! Routes are fixed at injection under
//! [`config::RouteSelection::Oblivious`]; the adaptive policies
//! ([`wormhole::run_adaptive`]) instead extend each worm's path one hop
//! at a time by local VC occupancy, with the Dally–Seitz dateline pair
//! as deadlock-free escape channels.
//!
//! # Example
//!
//! ```
//! use wormhole_flitsim::message::specs_from_paths;
//! use wormhole_flitsim::{wormhole, Outcome, SimConfig, Traffic};
//! use wormhole_topology::random_nets::shared_chain_instance;
//!
//! // Two messages share a 5-edge chain; with B = 2 VCs both fit and the
//! // routing takes exactly D + L − 1 flit steps.
//! let (graph, paths) = shared_chain_instance(2, 5);
//! let specs = specs_from_paths(&paths, 4);
//! let result = wormhole::run(&graph, &specs, &SimConfig::new(2));
//! assert_eq!(result.outcome, Outcome::Completed);
//! assert_eq!(result.total_steps, 5 + 4 - 1);
//!
//! // The same run through the door, which hands bad input back as a value.
//! let config = SimConfig::new(2);
//! let same = wormhole::simulate(&graph, None, Traffic::Specs(&specs), &config)?;
//! assert!(same.same_execution(&result));
//! # Ok::<(), wormhole::SimError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cut_through;
mod engine;
pub mod events;
mod kernel;
mod legacy;
pub mod message;
pub mod open_loop;
mod parallel;
pub mod probe;
mod resident;
pub mod restricted;
mod sim;
pub mod source;
pub mod stats;
pub mod store_forward;
pub mod wormhole;

pub use config::{Arbitration, ConfigError, Engine, RouteSelection, SimConfig};
pub use events::{DeadlockReport, WaitFor};
pub use message::{specs_from_path_slice, specs_from_paths, MessageSpec, SpecError};
pub use open_loop::{run_open_loop, OpenLoopConfig};
pub use source::{ReplaySource, Traffic, TrafficSource};
pub use stats::{
    ClosedLoopStats, EngineStats, LatencyStats, MessageOutcome, OpenLoopStats, Outcome, SimResult,
};
pub use wormhole::SimError;
