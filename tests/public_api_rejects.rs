//! No panic from the public API on a value its door can judge: each
//! value a builder used to assert on, and each input a stepper used to
//! index with unchecked, must come back from the function that runs it
//! as an `Err` — never as an unwind. Every case runs under
//! `catch_unwind`, builder call included.

use std::panic::{catch_unwind, AssertUnwindSafe};

use wormhole_flitsim::config::{ConfigError, RouteSelection, SimConfig, VcPolicy};
use wormhole_flitsim::cut_through::{self, VctConfig};
use wormhole_flitsim::message::{specs_from_paths, MessageSpec, SpecError};
use wormhole_flitsim::source::Traffic;
use wormhole_flitsim::store_forward::{self, SfConfig};
use wormhole_flitsim::wormhole::{simulate, SimError};
use wormhole_netcalc::{delay_bounds, BoundConfig, BoundError, Flow};
use wormhole_topology::fault::FaultPlan;
use wormhole_topology::graph::{EdgeId, Graph, GraphBuilder, NodeId};
use wormhole_topology::mesh::{Mesh, RoutingDiscipline};
use wormhole_topology::path::{Path, PathSet};

/// What `door` returned; an unwind fails the case by name.
fn returned<T>(case: &str, door: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(door)).unwrap_or_else(|_| panic!("{case}: unwound"))
}

fn chain(n: u32) -> (Graph, Vec<EdgeId>) {
    let mut b = GraphBuilder::new(n as usize);
    let edges = (0..n - 1)
        .map(|i| b.add_edge(NodeId(i), NodeId(i + 1)))
        .collect();
    (b.build(), edges)
}

#[test]
fn zero_vcs_come_back_from_simulate() {
    let (g, edges) = chain(3);
    let specs = [MessageSpec::new(Path::new(edges), 2)];
    let got = returned("SimConfig::new(0)", || {
        simulate(&g, None, Traffic::Specs(&specs), &SimConfig::new(0))
    });
    assert_eq!(got.unwrap_err(), SimError::Config(ConfigError::NoVcs));
}

#[test]
fn an_empty_pool_comes_back_from_simulate() {
    let (g, edges) = chain(3);
    let specs = [MessageSpec::new(Path::new(edges), 2)];
    let got = returned("VcPolicy::pooled(0, 1, 1)", || {
        let config = SimConfig::new(1).vc_policy(VcPolicy::pooled(0, 1, 1));
        simulate(&g, None, Traffic::Specs(&specs), &config)
    });
    assert_eq!(got.unwrap_err(), SimError::Config(ConfigError::EmptyPool));
}

#[test]
fn zero_vcs_come_back_from_delay_bounds() {
    let (g, edges) = chain(3);
    let flows = [Flow::synthetic(edges, 2, 1.0, 0.01)];
    let got = returned("BoundConfig::new(0)", || {
        delay_bounds(&g, &flows, &BoundConfig::new(0))
    });
    assert!(matches!(got.unwrap_err(), BoundError::BadConfig(_)));
}

#[test]
fn a_zero_flit_buffer_comes_back_from_cut_through() {
    let (g, edges) = chain(3);
    let specs = specs_from_paths(&PathSet::new(vec![Path::new(edges)]), 2);
    let got = returned("VctConfig { buffer_flits: 0, .. }", || {
        let config = VctConfig {
            buffer_flits: 0,
            ..VctConfig::new(2)
        };
        cut_through::run(&g, &specs, &config)
    });
    assert_eq!(got.unwrap_err(), SimError::Config(ConfigError::NoVcs));
}

#[test]
fn a_foreign_path_comes_back_from_store_forward() {
    // A path over another graph's edges, and an empty one.
    let (g, _) = chain(3);
    let (_, foreign) = chain(9);
    for (path, error) in [
        (foreign, SpecError::BadEdge),
        (Vec::new(), SpecError::EmptyPath),
    ] {
        let paths = PathSet::new(vec![Path::new(path)]);
        let got = returned("store_forward::run", || {
            store_forward::run(&g, &paths, &SfConfig::default())
        });
        assert_eq!(got.unwrap_err(), SimError::Spec { id: 0, error });
    }
}

#[test]
fn a_plain_mesh_under_a_fault_plan_comes_back_from_simulate() {
    // Adaptive selection over a router blind to the plan: it would offer
    // the dead edges as if they lived.
    let t = Mesh::new_disciplined(4, 2, RoutingDiscipline::AdaptiveEscape);
    let specs = [MessageSpec::new(t.route(NodeId(0), NodeId(10)), 3)];
    let plan = FaultPlan::new().kill_channel(5, &t, &[1, 1], 0, false);
    let edge = plan.events()[0].edge.0;
    for selection in [
        RouteSelection::MinimalAdaptive,
        RouteSelection::FullyAdaptive,
    ] {
        let got = returned("a plain Mesh under a fault plan", || {
            let config = SimConfig::new(1)
                .route_selection(selection)
                .faults(plan.clone());
            simulate(t.graph(), Some(&t), Traffic::Specs(&specs), &config)
        });
        let blind = SimError::Config(ConfigError::FaultBlindRouter { edge });
        assert_eq!(got.unwrap_err(), blind, "{selection:?}");
    }
}
