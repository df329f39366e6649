//! # wormhole-routing
//!
//! A from-scratch reproduction of Cole, Maggs & Sitaraman, *On the Benefit
//! of Supporting Virtual Channels in Wormhole Routers* (SPAA '96; JCSS 62,
//! 2001): a flit-accurate wormhole simulator with `B` virtual channels per
//! physical channel, the paper's Lovász-Local-Lemma scheduling pipeline
//! (Thm 2.1.6), its worst-case network construction (Thm 2.2.1), the
//! randomized two-pass butterfly algorithm (§3.1) with its one-pass lower
//! bound machinery (§3.2), and every baseline the paper compares against.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`topology`] | `wormhole-topology` | graphs, paths, butterflies, tori, hypercubes, the Thm 2.2.1 network |
//! | [`flitsim`] | `wormhole-flitsim` | wormhole / store-and-forward / virtual-cut-through simulators |
//! | [`core`] | `wormhole-core` | bounds, LLL color refinement, schedules, butterfly algorithms |
//! | [`baselines`] | `wormhole-baselines` | naive coloring, S&F schedules, greedy wormhole, VCT, circuit switching |
//! | [`workloads`] | `wormhole-workloads` | synthetic traffic: patterns × arrivals × substrates, closed-loop chains |
//! | [`netcalc`] | `wormhole-netcalc` | network-calculus delay/backlog bounds for feedforward routing sets |
//! | [`harness`] | `wormhole-harness` | experiment runners regenerating every table/figure |
//!
//! ## Quickstart
//!
//! ```
//! use wormhole_routing::prelude::*;
//!
//! // Route a random permutation through an 32-input butterfly with 2 VCs.
//! let bf = Butterfly::new(5);
//! let rel = QRelation::random_relation(32, 1, 42);
//! let paths: Vec<Path> = rel.pairs.iter().map(|&(s, d)| bf.greedy_path(s, d)).collect();
//! let specs = specs_from_paths(&PathSet::new(paths), 8);
//! let result = wormhole_run(bf.graph(), &specs, &SimConfig::new(2));
//! assert_eq!(result.delivered(), 32);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wormhole_baselines as baselines;
pub use wormhole_core as core;
pub use wormhole_flitsim as flitsim;
pub use wormhole_harness as harness;
pub use wormhole_netcalc as netcalc;
pub use wormhole_topology as topology;
pub use wormhole_workloads as workloads;

/// Convenient one-stop imports for the common workflow.
pub mod prelude {
    pub use wormhole_core::bounds;
    pub use wormhole_core::butterfly::relation::QRelation;
    pub use wormhole_core::coloring::Coloring;
    pub use wormhole_core::firstfit::{first_fit, FirstFitOrder};
    pub use wormhole_core::pipeline::{adaptive_min_colors, run_pipeline, RFactor};
    pub use wormhole_core::schedule::ColorSchedule;
    pub use wormhole_flitsim::config::{
        Arbitration, ConfigError, Engine, RouteSelection, SimConfig, VcPolicy,
    };
    pub use wormhole_flitsim::message::{
        specs_from_path_slice, specs_from_paths, MessageSpec, SpecError,
    };
    pub use wormhole_flitsim::open_loop::{run_open_loop, OpenLoopConfig};
    pub use wormhole_flitsim::source::{ReplaySource, Traffic, TrafficSource};
    pub use wormhole_flitsim::stats::{
        ClosedLoopStats, DiscardReason, LatencyStats, OpenLoopStats, Outcome, SimResult,
    };
    pub use wormhole_flitsim::wormhole::run as wormhole_run;
    pub use wormhole_flitsim::wormhole::run_adaptive as wormhole_run_adaptive;
    pub use wormhole_flitsim::wormhole::run_source as wormhole_run_source;
    pub use wormhole_flitsim::wormhole::{simulate as wormhole_simulate, SimError};
    pub use wormhole_netcalc::{
        delay_bounds, flows_from_specs, ArrivalCurve, BoundConfig, BoundReport, Flow, TokenBucket,
        TraceFlows,
    };
    pub use wormhole_topology::adaptive::AdaptiveRouter;
    pub use wormhole_topology::butterfly::Butterfly;
    pub use wormhole_topology::fault::{FaultError, FaultPlan, FaultedMesh};
    pub use wormhole_topology::graph::{EdgeId, Graph, GraphBuilder, NodeId};
    pub use wormhole_topology::mesh::{Mesh, RoutingDiscipline};
    pub use wormhole_topology::path::{Path, PathSet};
    pub use wormhole_workloads::{
        run_closed_loop, ArrivalProcess, ClosedLoopConfig, ClosedLoopSource, ServiceScenario,
        Substrate, TraceRow, TrafficPattern, Workload,
    };
}
