//! Unit fixtures of the wormhole model, all driven through this
//! module's entry points and grouped by the half they pin: the door
//! itself, the run-level half (`Sim`: release, cap, verdicts, fault
//! bookkeeping), the resident-worm half (`Core`: kinematics,
//! arbitration, capacity policies, route selection, kills), and the
//! legacy stepper as the event engine's differential oracle. They stay
//! in one module so that every one of them keeps the name the suite has
//! always printed (`wormhole::tests::…`).

use super::*;
use crate::config::{Arbitration, RouteSelection, VcPolicy};
use crate::events::WaitFor;
use crate::message::specs_from_paths;
use crate::stats::{DiscardReason, Outcome};
use wormhole_topology::fault::{FaultPlan, FaultedMesh};
use wormhole_topology::graph::{EdgeId, GraphBuilder, NodeId};
use wormhole_topology::mesh::{Mesh, RoutingDiscipline};
use wormhole_topology::path::{Path, PathSet};
use wormhole_topology::random_nets::shared_chain_instance;

/// [`run`], asserting the routing completed (no deadlock, no step-cap
/// abort).
fn run_to_completion(graph: &Graph, specs: &[MessageSpec], config: &SimConfig) -> SimResult {
    let r = run(graph, specs, config);
    assert_eq!(r.outcome, Outcome::Completed, "simulation did not complete");
    r
}

fn chain(n: u32) -> (Graph, Vec<wormhole_topology::graph::EdgeId>) {
    let mut b = GraphBuilder::new(n as usize);
    let edges = (0..n - 1)
        .map(|i| b.add_edge(NodeId(i), NodeId(i + 1)))
        .collect();
    (b.build(), edges)
}

fn cfg(b: u32) -> SimConfig {
    SimConfig::new(b).check_invariants(true)
}

/// Runs `specs` under both engines and asserts bit-identical results
/// (the differential-oracle relation; the proptest suite widens it to
/// random workloads).
fn assert_engines_agree(g: &Graph, specs: &[MessageSpec], config: &SimConfig) -> SimResult {
    let event = run(g, specs, &config.clone().engine(Engine::EventDriven));
    let legacy = run(g, specs, &config.clone().engine(Engine::Legacy));
    assert!(
        event.same_execution(&legacy),
        "engines diverged:\n event: {event:?}\nlegacy: {legacy:?}"
    );
    event
}

fn adaptive_torus(radix: u32, dims: u32) -> Mesh {
    Mesh::new_disciplined(radix, dims, RoutingDiscipline::AdaptiveEscape)
}

fn run_adaptive_to_completion(t: &Mesh, specs: &[MessageSpec], config: &SimConfig) -> SimResult {
    let r = run_adaptive(t, specs, config);
    assert_eq!(r.outcome, Outcome::Completed, "simulation did not complete");
    r
}

/// Specs whose paths are the oblivious dateline routes (adaptive runs
/// only read the endpoints from them).
fn adaptive_specs(m: &Mesh, pairs: &[(u32, u32)], l: u32) -> Vec<MessageSpec> {
    pairs
        .iter()
        .map(|&(s, d)| MessageSpec::new(m.route(NodeId(s), NodeId(d)), l))
        .collect()
}

/// A 1→2 star: router 0 owns edges `e01` and `e02` (fanout 2), each
/// continuing one more hop so worms can be held in-network.
fn star() -> (Graph, EdgeId, EdgeId) {
    let mut b = GraphBuilder::new(5);
    let e01 = b.add_edge(NodeId(0), NodeId(1));
    let e02 = b.add_edge(NodeId(0), NodeId(2));
    b.add_edge(NodeId(1), NodeId(3));
    b.add_edge(NodeId(2), NodeId(4));
    (b.build(), e01, e02)
}

fn pooled_cfg(pool: u32, min: u32, max: u32) -> SimConfig {
    SimConfig::new(1)
        .vc_policy(VcPolicy::pooled(pool, min, max))
        .check_invariants(true)
}

// ---- the door: entry points and what they refuse --------------------

#[test]
fn empty_spec_list_completes_instantly() {
    let (g, _) = chain(3);
    let r = run(&g, &[], &cfg(1));
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(r.total_steps, 0);
}

#[test]
fn pathset_helper_roundtrip() {
    let (g, edges) = chain(4);
    let ps = PathSet::new(vec![Path::new(edges.clone()), Path::new(edges)]);
    let specs = specs_from_paths(&ps, 7);
    assert_eq!(specs.len(), 2);
    let r = run_to_completion(&g, &specs, &cfg(2));
    assert_eq!(r.delivered(), 2);
}

#[test]
fn adaptive_oblivious_config_falls_back_to_fixed_paths() {
    // RouteSelection::Oblivious through run_adaptive is exactly run().
    let t = adaptive_torus(4, 2);
    let specs = adaptive_specs(&t, &[(0, 5), (3, 9), (12, 2)], 3);
    let a = run_adaptive(&t, &specs, &cfg(2));
    let b = run(t.graph(), &specs, &cfg(2));
    assert!(a.same_execution(&b));
}

#[test]
#[should_panic(expected = "needs run_adaptive")]
fn oblivious_entry_point_rejects_adaptive_configs() {
    let t = adaptive_torus(4, 1);
    let specs = adaptive_specs(&t, &[(0, 2)], 2);
    let config = cfg(1).route_selection(RouteSelection::MinimalAdaptive);
    let _ = run(t.graph(), &specs, &config);
}

#[test]
#[should_panic(expected = "exceeds pool")]
fn pooled_rejects_floors_the_pool_cannot_honor() {
    let (g, e01, _) = star();
    let specs = vec![MessageSpec::new(Path::new(vec![e01]), 2)];
    // fanout 2 at router 0, floor 2 each, pool 3: 2·2 > 3.
    let _ = run(&g, &specs, &pooled_cfg(3, 2, 2));
}

#[test]
#[should_panic(expected = "invalid fault plan")]
fn sim_rejects_invalid_fault_plans() {
    let (g, edges) = chain(3);
    let plan = FaultPlan::new()
        .kill_link(1, edges[0])
        .kill_link(2, edges[0]);
    let specs = vec![MessageSpec::new(Path::new(edges.clone()), 2)];
    let _ = run(&g, &specs, &cfg(1).faults(plan));
}

// ---- the run-level half: release, cap, verdicts, fault bookkeeping ---

#[test]
fn release_time_shifts_completion() {
    let (g, edges) = chain(4);
    let spec = MessageSpec::new(Path::new(edges), 2).release_at(10);
    let r = run_to_completion(&g, &[spec], &cfg(1));
    assert_eq!(r.total_steps, 10 + 3 + 2 - 1);
}

#[test]
fn max_steps_aborts() {
    let (g, ps) = shared_chain_instance(4, 5);
    let specs = specs_from_paths(&ps, 4);
    let config = cfg(1).max_steps(3);
    let r = run(&g, &specs, &config);
    assert_eq!(r.outcome, Outcome::MaxSteps);
}

#[test]
fn sparse_schedule_never_overshoots_the_step_cap() {
    // A long idle gap before the second release: the fast-forward must
    // clamp at the cap instead of jumping to the release and reporting
    // total_steps > max_steps.
    let (g, edges) = chain(3);
    let specs = vec![
        MessageSpec::new(Path::new(edges.clone()), 2),
        MessageSpec::new(Path::new(edges), 2).release_at(1_000),
    ];
    let r = run(&g, &specs, &cfg(1).max_steps(10));
    assert_eq!(r.outcome, Outcome::MaxSteps);
    assert_eq!(r.total_steps, 10, "run must end exactly at the cap");
    assert_eq!(r.delivered(), 1, "the early worm still completes");
    assert!(r.messages[1].first_move.is_none(), "late worm never ran");
}

#[test]
fn sparse_schedule_fast_forward_still_works_within_the_cap() {
    // Control arm: the same gap with a generous cap completes, and the
    // fast-forward lands the second worm at its release time.
    let (g, edges) = chain(3);
    let specs = vec![
        MessageSpec::new(Path::new(edges.clone()), 2),
        MessageSpec::new(Path::new(edges), 2).release_at(1_000),
    ];
    let r = run_to_completion(&g, &specs, &cfg(1));
    assert_eq!(r.total_steps, 1_000 + 2 + 2 - 1);
    assert_eq!(r.messages[1].first_move, Some(1_000));
}

#[test]
fn deadlock_detected_on_two_cycle() {
    // Two worms chasing each other around a 4-cycle with B=1 and L
    // long enough that each holds its first edge while wanting the
    // other's: a → b → a. Classic wormhole deadlock.
    let mut bld = GraphBuilder::new(4);
    let e01 = bld.add_edge(NodeId(0), NodeId(1));
    let e12 = bld.add_edge(NodeId(1), NodeId(2));
    let e23 = bld.add_edge(NodeId(2), NodeId(3));
    let e30 = bld.add_edge(NodeId(3), NodeId(0));
    let g = bld.build();
    // Worm A: 0→1→2, worm B: 2→3→0→1. With L=3 and B=1, A holds e01
    // and wants e12... build mutual waits:
    let a = MessageSpec::new(Path::new(vec![e01, e12, e23]), 8);
    let bmsg = MessageSpec::new(Path::new(vec![e23, e30, e01]), 8);
    let r = run(&g, &[a, bmsg], &cfg(1));
    match r.outcome {
        Outcome::Deadlock(ids) => {
            assert_eq!(ids.len(), 2);
        }
        o => panic!("expected deadlock, got {o:?}"),
    }
}

#[test]
fn deadlock_report_names_the_cycle() {
    let mut bld = GraphBuilder::new(4);
    let e01 = bld.add_edge(NodeId(0), NodeId(1));
    let e12 = bld.add_edge(NodeId(1), NodeId(2));
    let e23 = bld.add_edge(NodeId(2), NodeId(3));
    let e30 = bld.add_edge(NodeId(3), NodeId(0));
    let g = bld.build();
    let a = MessageSpec::new(Path::new(vec![e01, e12, e23]), 8);
    let bmsg = MessageSpec::new(Path::new(vec![e23, e30, e01]), 8);
    let r = run(&g, &[a, bmsg], &cfg(1));
    let rep = r.deadlock.expect("deadlock report present");
    assert_eq!(rep.cycle.len(), 2, "mutual wait: {rep:?}");
    // Worm 0 waits on e23 (held by 1), worm 1 waits on e01 (held by 0).
    let w0 = rep.waits.iter().find(|w| w.message == 0).unwrap();
    assert_eq!(w0.edge, e23.0);
    assert_eq!(w0.holders, vec![1]);
    let w1 = rep.waits.iter().find(|w| w.message == 1).unwrap();
    assert_eq!(w1.edge, e01.0);
    assert_eq!(w1.holders, vec![0]);
}

#[test]
fn deadlock_report_regression_on_two_cycle() {
    // The dense per-edge holder index must reproduce the exact report
    // the HashMap-based builder produced on the two-cycle fixture.
    let mut bld = GraphBuilder::new(4);
    let e01 = bld.add_edge(NodeId(0), NodeId(1));
    let e12 = bld.add_edge(NodeId(1), NodeId(2));
    let e23 = bld.add_edge(NodeId(2), NodeId(3));
    let e30 = bld.add_edge(NodeId(3), NodeId(0));
    let g = bld.build();
    let a = MessageSpec::new(Path::new(vec![e01, e12, e23]), 8);
    let bmsg = MessageSpec::new(Path::new(vec![e23, e30, e01]), 8);
    for engine in [Engine::EventDriven, Engine::Legacy] {
        let r = run(&g, &[a.clone(), bmsg.clone()], &cfg(1).engine(engine));
        let rep = r.deadlock.expect("deadlock report present");
        assert_eq!(
            rep.waits,
            vec![
                WaitFor {
                    message: 0,
                    edge: e23.0,
                    holders: vec![1],
                },
                WaitFor {
                    message: 1,
                    edge: e01.0,
                    holders: vec![0],
                },
            ],
            "{engine:?}"
        );
        assert_eq!(rep.cycle, vec![0, 1], "{engine:?}");
    }
}

#[test]
fn completed_runs_have_no_deadlock_report() {
    let (g, edges) = chain(3);
    let r = run_to_completion(&g, &[MessageSpec::new(Path::new(edges), 2)], &cfg(1));
    assert!(r.deadlock.is_none());
}

#[test]
fn oblivious_admission_onto_a_dead_edge_is_discarded() {
    // Edge 1 dies before worm A is even released: its fixed route has
    // nowhere else to go, so admission discards it on the spot
    // (LinkDown, never holds a VC). Worm B's route avoids the dead
    // edge and is unaffected.
    let (g, edges) = chain(6);
    let plan = FaultPlan::new().kill_link(1, edges[1]);
    let specs = vec![
        MessageSpec::new(Path::new(edges[0..3].to_vec()), 4).release_at(5),
        MessageSpec::new(Path::new(edges[2..5].to_vec()), 4).release_at(5),
    ];
    let r = assert_engines_agree(&g, &specs, &cfg(1).faults(plan));
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(r.messages[0].discarded, Some(DiscardReason::LinkDown));
    assert_eq!(r.messages[0].first_move, None);
    assert_eq!(r.messages[1].finished, Some(5 + 3 + 4 - 1));
    assert_eq!(r.fault_discards, 1);
}

#[test]
fn capped_faulted_run_separates_survivors_from_fault_discards() {
    // A step-capped faulted run must report the three populations
    // distinctly: delivered, fault-discarded, and still in flight at
    // the cap. Worm A dies under the kill, worm B is too long to
    // finish within the cap, worm C completes.
    let (g, edges) = chain(6);
    let plan = FaultPlan::new().kill_link(2, edges[4]);
    let specs = vec![
        MessageSpec::new(Path::new(edges.clone()), 4),
        MessageSpec::new(Path::new(edges[0..4].to_vec()), 30).release_at(3),
        MessageSpec::new(Path::new(edges[0..2].to_vec()), 2).release_at(3),
    ];
    let r = assert_engines_agree(&g, &specs, &cfg(2).faults(plan).max_steps(10));
    assert_eq!(r.outcome, Outcome::MaxSteps);
    assert_eq!(r.fault_discards, 1);
    assert_eq!(r.discarded(), 1);
    assert_eq!(r.in_flight(), 1, "the capped worm is not a fault casualty");
    assert_eq!(r.delivered(), 1);
    assert_eq!(r.messages[0].discarded, Some(DiscardReason::LinkDown));
    assert_eq!(r.messages[1].discarded, None);
    assert_eq!(r.messages[1].finished, None);
}

// ---- the resident-worm half: kinematics, arbitration, capacity
// ---- policies, route selection, kills -------------------------------

#[test]
fn single_worm_takes_d_plus_l_minus_1() {
    for (d, l) in [(1u32, 1u32), (1, 5), (5, 1), (7, 3), (3, 7), (10, 10)] {
        let (g, edges) = chain(d + 1);
        let spec = MessageSpec::new(Path::new(edges), l);
        let r = run_to_completion(&g, &[spec], &cfg(2));
        assert_eq!(
            r.total_steps,
            (d + l - 1) as u64,
            "d={d} l={l}: unblocked worm must take d+L−1 steps"
        );
        assert_eq!(r.messages[0].finished, Some((d + l - 1) as u64));
        assert_eq!(r.messages[0].stalls, 0);
        assert_eq!(r.flit_hops, (d as u64) * (l as u64));
    }
}

#[test]
fn b_worms_share_an_edge_without_blocking() {
    // B identical messages over one chain: all fit on separate VCs and
    // finish together in d+L−1.
    for b in 1..=4u32 {
        let (g, ps) = shared_chain_instance(b, 6);
        let specs = specs_from_paths(&ps, 4);
        let r = run_to_completion(&g, &specs, &cfg(b));
        assert_eq!(r.total_steps, 6 + 4 - 1);
        assert_eq!(r.max_vcs_in_use, b);
        assert_eq!(r.total_stalls, 0);
    }
}

#[test]
fn b_plus_one_worms_serialize_behind_b_vcs() {
    // C = B+1 identical worms: one must wait for a VC to free. The
    // freed VC appears when a finishing worm's tail leaves the first
    // edge, i.e. after L steps; so the last worm finishes later.
    let b = 2u32;
    let (g, ps) = shared_chain_instance(b + 1, 5);
    let specs = specs_from_paths(&ps, 4);
    let r = run_to_completion(&g, &specs, &cfg(b));
    assert!(r.total_steps > 5 + 4 - 1, "third worm must have waited");
    assert!(r.total_stalls > 0);
    assert_eq!(r.max_vcs_in_use, b);
}

#[test]
fn full_serialization_when_b_is_1() {
    // C worms over a chain with B=1 serialize: worm i+1 grabs the first
    // edge's VC one step after worm i's tail leaves it (the release
    // lands at the end of step t, so acquisition happens at t+1).
    // Makespan = (C−1)·(L+1) + D + L − 1.
    let (c, d, l) = (4u32, 6u32, 3u32);
    let (g, ps) = shared_chain_instance(c, d);
    let specs = specs_from_paths(&ps, l);
    let r = run_to_completion(&g, &specs, &cfg(1));
    assert_eq!(r.total_steps, ((c - 1) * (l + 1) + d + l - 1) as u64);
}

#[test]
fn arbitration_priority_rank_orders_winners() {
    // Two worms contend for one VC; the one with lower priority value
    // must win regardless of id.
    let (g, edges) = chain(5);
    let p = Path::new(edges);
    let m0 = MessageSpec::new(p.clone(), 3).with_priority(5);
    let m1 = MessageSpec::new(p, 3).with_priority(1);
    let config = cfg(1).arbitration(Arbitration::PriorityRank);
    let r = run_to_completion(&g, &[m0, m1], &config);
    assert!(
        r.messages[1].finished.unwrap() < r.messages[0].finished.unwrap(),
        "higher-priority (lower value) worm must finish first"
    );
}

#[test]
fn random_arbitration_is_deterministic_per_seed() {
    let (g, ps) = shared_chain_instance(6, 8);
    let specs = specs_from_paths(&ps, 5);
    let c1 = cfg(2).arbitration(Arbitration::Random).seed(42);
    let r1 = run_to_completion(&g, &specs, &c1);
    let r2 = run_to_completion(&g, &specs, &c1);
    for (a, b) in r1.messages.iter().zip(&r2.messages) {
        assert_eq!(a.finished, b.finished);
    }
}

#[test]
fn staggered_releases_pipeline_cleanly() {
    // Two worms on the same chain, second released one step after the
    // first's tail frees the first edge (release during step L−1+... the
    // first edge frees during step L, usable at L+1): no stalls.
    let (g, edges) = chain(6);
    let l = 4u32;
    let m0 = MessageSpec::new(Path::new(edges.clone()), l);
    let m1 = MessageSpec::new(Path::new(edges), l).release_at(l as u64 + 1);
    let r = run_to_completion(&g, &[m0, m1], &cfg(1));
    assert_eq!(r.total_stalls, 0);
    assert_eq!(
        r.messages[1].finished,
        Some((l + 1) as u64 + 5 + l as u64 - 1)
    );
}

#[test]
fn flit_hops_counts_total_work() {
    let (g, ps) = shared_chain_instance(2, 4);
    let specs = specs_from_paths(&ps, 3);
    let r = run_to_completion(&g, &specs, &cfg(2));
    assert_eq!(r.flit_hops, 2 * 4 * 3);
}

#[test]
fn worms_with_different_lengths_and_paths() {
    let (g, edges) = chain(8);
    let specs = vec![
        MessageSpec::new(Path::new(edges[0..3].to_vec()), 2),
        MessageSpec::new(Path::new(edges[2..7].to_vec()), 9),
        MessageSpec::new(Path::new(edges[5..6].to_vec()), 1),
    ];
    let r = run_to_completion(&g, &specs, &cfg(2));
    assert_eq!(r.delivered(), 3);
    for (i, m) in r.messages.iter().enumerate() {
        let lb = specs[i].unblocked_time();
        assert!(m.finished.unwrap() >= lb);
    }
}

#[test]
fn lone_adaptive_worm_is_minimal_and_unslowed() {
    // An uncontended minimal-adaptive worm still takes d + L − 1
    // steps: per-hop selection never lengthens a minimal route.
    let t = adaptive_torus(8, 1);
    let specs = adaptive_specs(&t, &[(0, 3)], 4);
    for sel in [
        RouteSelection::MinimalAdaptive,
        RouteSelection::FullyAdaptive { misroute_quota: 4 },
    ] {
        let cfg = cfg(2).route_selection(sel);
        let r = run_adaptive_to_completion(&t, &specs, &cfg);
        assert_eq!(r.total_steps, (3 + 4 - 1) as u64, "{sel:?}");
        assert_eq!(r.total_stalls, 0);
        assert_eq!(r.escape_fallbacks, 0);
        assert_eq!(r.misroute_hops, 0);
        assert_eq!(r.flit_hops, 3 * 4);
    }
}

#[test]
fn minimal_adaptive_spreads_over_dimensions_under_contention() {
    // Two worms from the same source to the same far corner of a 2D
    // torus with B = 1 on the adaptive lane: oblivious dimension-order
    // serializes them on the first hop, minimal-adaptive routes the
    // second worm around the other dimension — both finish without
    // either falling back or serializing fully.
    let t = adaptive_torus(4, 2);
    let pairs = [(0u32, 10u32), (0, 10)]; // (0,0) -> (2,2)
    let specs = adaptive_specs(&t, &pairs, 6);
    let adaptive = run_adaptive_to_completion(
        &t,
        &specs,
        &cfg(1).route_selection(RouteSelection::MinimalAdaptive),
    );
    let oblivious = run_to_completion(t.graph(), &specs, &cfg(1));
    assert!(
        adaptive.total_steps < oblivious.total_steps,
        "path diversity must beat dimension-order serialization: \
         adaptive {} vs oblivious {}",
        adaptive.total_steps,
        oblivious.total_steps
    );
    // Both worms pick the same least-occupied edge in step 0 (their
    // views are identical), so the loser stalls once and then routes
    // around the other dimension — contention ends there.
    assert!(
        adaptive.total_stalls < oblivious.total_stalls,
        "adaptive {} vs oblivious {} stalls",
        adaptive.total_stalls,
        oblivious.total_stalls
    );
}

#[test]
fn saturated_adaptive_lane_drains_via_escape_channels() {
    // All four worms circle the same 1D ring direction (distance 2,
    // ties break toward +) with B = 1: each grabs its first adaptive
    // hop, then finds its second held by the next worm — the classic
    // wrap cycle. Every second hop must fall back to the escape pair,
    // and every worm still completes (the escape network is
    // deadlock-free by construction).
    let t = adaptive_torus(4, 1);
    let pairs: Vec<(u32, u32)> = (0..4).map(|i| (i, (i + 2) % 4)).collect();
    let specs = adaptive_specs(&t, &pairs, 8);
    let cfg = cfg(1).route_selection(RouteSelection::MinimalAdaptive);
    let r = run_adaptive_to_completion(&t, &specs, &cfg);
    assert!(r.escape_fallbacks > 0, "adaptive lane must saturate: {r:?}");
    assert_eq!(r.delivered(), 4);
}

#[test]
fn misroute_budget_bounds_fully_adaptive_wandering() {
    let t = adaptive_torus(4, 2);
    let pairs: Vec<(u32, u32)> = (0..16).map(|i| (i, (i + 5) % 16)).collect();
    for quota in [0u32, 2, 4] {
        let specs = adaptive_specs(&t, &pairs, 6);
        let cfg = cfg(1).route_selection(RouteSelection::FullyAdaptive {
            misroute_quota: quota,
        });
        let r = run_adaptive_to_completion(&t, &specs, &cfg);
        assert_eq!(r.delivered(), 16);
        assert!(
            r.misroute_hops <= (quota as u64) * 16,
            "quota {quota}: {} misroutes",
            r.misroute_hops
        );
        if quota == 0 {
            assert_eq!(r.misroute_hops, 0);
        }
    }
}

#[test]
fn degenerate_pooled_is_bit_identical_to_static() {
    // pool = B·fanout with min = max = B leaves the shared portion
    // empty: every field of the result must match Static(B).
    let (g, ps) = shared_chain_instance(5, 6);
    let specs = specs_from_paths(&ps, 4);
    for b in [1u32, 2, 3] {
        let stat = run(&g, &specs, &cfg(b));
        let fanout = g.max_out_degree() as u32;
        let pooled = run(&g, &specs, &pooled_cfg(b * fanout, b, b));
        assert!(
            stat.same_execution(&pooled),
            "B={b} diverged:\nstatic: {stat:?}\npooled: {pooled:?}"
        );
    }
}

#[test]
fn pooled_edges_share_the_router_pool_on_demand() {
    // Equal aggregate storage at router 0 (4 VCs over fanout 2):
    // static B=2 admits only 2 of the 3 worms wanting e01 in step 0;
    // pooled (floor 1, cap 4) lends the idle sibling's spare VC to
    // the hot edge, admits all 3, and finishes sooner.
    let (g, e01, e02) = star();
    let mk = |e: EdgeId| MessageSpec::new(Path::new(vec![e]), 3);
    let specs = vec![mk(e01), mk(e01), mk(e01), mk(e02)];
    let stat = run_to_completion(&g, &specs, &cfg(2).check_invariants(true));
    let pooled = run_to_completion(&g, &specs, &pooled_cfg(4, 1, 4));
    assert_eq!(stat.max_vcs_in_use, 2);
    assert_eq!(
        pooled.max_vcs_in_use, 3,
        "hot edge must borrow from the pool"
    );
    assert!(pooled.max_pool_in_use <= 4);
    assert!(
        pooled.total_steps < stat.total_steps,
        "pooled {} !< static {}",
        pooled.total_steps,
        stat.total_steps
    );
    assert_eq!(pooled.total_stalls, 0);
}

#[test]
fn pooled_floor_reserves_capacity_for_the_idle_edge() {
    // Pool 3 over fanout 2 (shared portion 1): two worms saturate
    // e01 (floor + the only shared credit), yet a later worm on e02
    // must still advance immediately — its floor VC is reserved, not
    // poolable.
    let (g, e01, e02) = star();
    let specs = vec![
        MessageSpec::new(Path::new(vec![e01]), 8),
        MessageSpec::new(Path::new(vec![e01]), 8),
        MessageSpec::new(Path::new(vec![e02]), 2).release_at(1),
    ];
    let r = run_to_completion(&g, &specs, &pooled_cfg(3, 1, 3));
    assert_eq!(r.messages[2].first_move, Some(1), "floor VC must be free");
    assert_eq!(r.messages[2].stalls, 0);
    assert_eq!(r.max_pool_in_use, 3);
}

#[test]
fn pooled_per_edge_max_caps_a_single_edge() {
    // Plenty of pool, but per_edge_max = 2: the third worm on e01
    // stalls even though shared credit remains.
    let (g, e01, _) = star();
    let mk = || MessageSpec::new(Path::new(vec![e01]), 3);
    let r = run_to_completion(&g, &[mk(), mk(), mk()], &pooled_cfg(6, 1, 2));
    assert_eq!(r.max_vcs_in_use, 2);
    assert!(r.total_stalls > 0, "third worm must wait for the cap");
}

#[test]
fn kill_severs_inflight_worm_and_later_traffic_recovers() {
    // Worm A spans the whole chain; edge 4 dies at step 3 while A is
    // mid-flight, so A's frozen remaining path is severed and it is
    // discarded with LinkDown — releasing its VCs. Worm B, released
    // after the kill on the surviving prefix, completes untouched;
    // the recovery stat measures kill → B's delivery.
    let (g, edges) = chain(6);
    let plan = FaultPlan::new().kill_link(3, edges[4]);
    let specs = vec![
        MessageSpec::new(Path::new(edges.clone()), 4),
        MessageSpec::new(Path::new(edges[0..2].to_vec()), 3).release_at(4),
    ];
    let r = assert_engines_agree(&g, &specs, &cfg(2).faults(plan));
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(r.kills_applied, 1);
    assert_eq!(r.fault_discards, 1);
    assert_eq!(r.messages[0].discarded, Some(DiscardReason::LinkDown));
    assert_eq!(r.messages[0].finished, None);
    // B: released 4, 2 hops + 3 flits ⇒ finished at 4 + 2 + 3 − 1.
    assert_eq!(r.messages[1].finished, Some(8));
    assert_eq!(r.messages[1].stalls, 0, "A's VCs were freed by the kill");
    assert_eq!(r.fault_recovery_steps, 8 - 3);
    assert_eq!(r.delivered(), 1);
}

#[test]
fn adaptive_worm_routes_around_a_killed_channel() {
    // Node 2 = (+2, 0) on a radix-4 ring: both directions are
    // minimal. The + channel out of node 0 dies before the worm
    // starts, so minimal-adaptive (through FaultedMesh's filtered
    // candidates) takes the − direction instead — same hop count, no
    // misroute, no discard.
    let t = adaptive_torus(4, 2);
    let plan = FaultPlan::new().kill_channel(1, &t, &[0, 0], 0, false);
    let fm = FaultedMesh::new(&t, &plan).expect("plan keeps rings connected");
    let specs = adaptive_specs(&t, &[(0, 2)], 4);
    let config = cfg(2)
        .route_selection(RouteSelection::MinimalAdaptive)
        .faults(plan);
    let event = run_adaptive(&fm, &specs, &config.clone().engine(Engine::EventDriven));
    let legacy = run_adaptive(&fm, &specs, &config.clone().engine(Engine::Legacy));
    assert!(
        event.same_execution(&legacy),
        "engines diverged:\n event: {event:?}\nlegacy: {legacy:?}"
    );
    assert_eq!(event.outcome, Outcome::Completed);
    assert_eq!(event.fault_discards, 0);
    assert_eq!(event.messages[0].finished, Some(2 + 4 - 1));
    assert_eq!(event.misroute_hops, 0, "− direction is still minimal");
    assert!(event.kills_applied >= 1);
}

#[test]
fn random_arbitration_is_stream_position_independent() {
    // The counter-based arbitration RNG depends only on (seed, step,
    // edge): adding an unrelated earlier contention (on a disjoint
    // chain) must not change who wins a later one.
    let (g, edges) = chain(10);
    let shared = Path::new(edges[4..9].to_vec());
    let contended_pair = |extra: bool| {
        let mut specs = vec![
            MessageSpec::new(shared.clone(), 4).release_at(6),
            MessageSpec::new(shared.clone(), 4).release_at(6),
        ];
        if extra {
            // Disjoint early contention that burns arbitration events.
            specs.push(MessageSpec::new(Path::new(edges[0..2].to_vec()), 3));
            specs.push(MessageSpec::new(Path::new(edges[0..2].to_vec()), 3));
        }
        let r = run(&g, &specs, &cfg(1).arbitration(Arbitration::Random).seed(5));
        r.messages[0].finished.unwrap() < r.messages[1].finished.unwrap()
    };
    assert_eq!(contended_pair(false), contended_pair(true));
}

// ---- the legacy stepper as the event engine's differential oracle ---

#[test]
fn engines_agree_on_contended_chains() {
    for (c, d, l, b) in [
        (4u32, 6u32, 3u32, 1u32),
        (6, 8, 5, 2),
        (3, 5, 4, 3),
        (5, 4, 9, 2),
    ] {
        let (g, ps) = shared_chain_instance(c, d);
        let specs = specs_from_paths(&ps, l);
        let r = assert_engines_agree(&g, &specs, &cfg(b));
        assert_eq!(r.delivered(), c as usize);
    }
}

#[test]
fn engines_agree_under_every_arbitration_policy() {
    let (g, ps) = shared_chain_instance(6, 7);
    for pol in [
        Arbitration::FifoById,
        Arbitration::OldestFirst,
        Arbitration::PriorityRank,
        Arbitration::Random,
    ] {
        let specs: Vec<MessageSpec> = specs_from_paths(&ps, 5)
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let r = (i as u64 % 3) * 2;
                s.release_at(r).with_priority((7 - i) as u32)
            })
            .collect();
        assert_engines_agree(&g, &specs, &cfg(2).arbitration(pol).seed(99));
    }
}

#[test]
fn engines_agree_on_deadlock_and_report() {
    let mut bld = GraphBuilder::new(4);
    let e01 = bld.add_edge(NodeId(0), NodeId(1));
    let e12 = bld.add_edge(NodeId(1), NodeId(2));
    let e23 = bld.add_edge(NodeId(2), NodeId(3));
    let e30 = bld.add_edge(NodeId(3), NodeId(0));
    let g = bld.build();
    let a = MessageSpec::new(Path::new(vec![e01, e12, e23]), 8);
    let bmsg = MessageSpec::new(Path::new(vec![e23, e30, e01]), 8);
    let r = assert_engines_agree(&g, &[a, bmsg], &cfg(1));
    assert!(matches!(r.outcome, Outcome::Deadlock(_)));
    assert!(r.deadlock.is_some());
}

#[test]
fn engines_agree_at_the_step_cap() {
    // Partial state at a MaxSteps abort — including the arithmetic
    // stall top-up for still-parked worms — must match the legacy
    // per-step counts exactly.
    let (g, ps) = shared_chain_instance(5, 6);
    let specs = specs_from_paths(&ps, 4);
    for cap in [1u64, 3, 7, 12, 20] {
        let r = assert_engines_agree(&g, &specs, &cfg(1).max_steps(cap));
        if cap <= 12 {
            assert_eq!(r.outcome, Outcome::MaxSteps, "cap {cap}");
        }
    }
}

#[test]
fn engines_agree_on_sparse_schedules() {
    // Idle-gap jumps and lone-worm fast-forward against the legacy
    // stepper's step-by-step walk.
    let (g, edges) = chain(6);
    let specs = vec![
        MessageSpec::new(Path::new(edges.clone()), 3),
        MessageSpec::new(Path::new(edges.clone()), 5).release_at(40),
        MessageSpec::new(Path::new(edges), 2).release_at(41),
    ];
    let r = assert_engines_agree(&g, &specs, &cfg(1));
    assert_eq!(r.outcome, Outcome::Completed);
}

#[test]
fn engines_agree_on_edge_disjoint_router_sharing_paths() {
    // Two worms with edge-disjoint paths that both leave router 0:
    // they share its `pool_used` counter, and lock-step sees both
    // VCs at the router simultaneously (`max_pool_in_use = 2`) — a
    // state an engine that ran one worm ahead of the other would
    // never visit. Under both policies.
    let (g, e01, e02) = star();
    let e13 = Graph::find_edge(&g, NodeId(1), NodeId(3)).unwrap();
    let e24 = Graph::find_edge(&g, NodeId(2), NodeId(4)).unwrap();
    let specs = vec![
        MessageSpec::new(Path::new(vec![e01, e13]), 4),
        MessageSpec::new(Path::new(vec![e02, e24]), 4),
    ];
    let r = assert_engines_agree(&g, &specs, &cfg(1));
    assert_eq!(r.max_pool_in_use, 2, "both worms hold router 0 at once");
    let rp = assert_engines_agree(&g, &specs, &pooled_cfg(2, 1, 1));
    assert_eq!(rp.max_pool_in_use, 2);
}

#[test]
fn engines_agree_on_fully_disjoint_chains() {
    // Control: worms on fully node- and edge-disjoint chains never
    // meet, and the engines agree on them too.
    let mut b = GraphBuilder::new(6);
    let a0 = b.add_edge(NodeId(0), NodeId(1));
    let a1 = b.add_edge(NodeId(1), NodeId(2));
    let b0 = b.add_edge(NodeId(3), NodeId(4));
    let b1 = b.add_edge(NodeId(4), NodeId(5));
    let g = b.build();
    let specs = vec![
        MessageSpec::new(Path::new(vec![a0, a1]), 5),
        MessageSpec::new(Path::new(vec![b0, b1]), 3).release_at(1),
    ];
    let r = assert_engines_agree(&g, &specs, &cfg(1));
    assert_eq!(r.total_stalls, 0);
    assert_eq!(r.max_pool_in_use, 1);
}

#[test]
fn adaptive_engines_agree_on_contended_tori() {
    for sel in [
        RouteSelection::MinimalAdaptive,
        RouteSelection::FullyAdaptive { misroute_quota: 4 },
    ] {
        for (radix, dims, b, l) in [(4u32, 2u32, 1u32, 6u32), (8, 1, 2, 4), (4, 2, 2, 3)] {
            let t = adaptive_torus(radix, dims);
            let n = t.num_nodes();
            let pairs: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + n / 2) % n)).collect();
            let specs = adaptive_specs(&t, &pairs, l);
            let config = cfg(b).route_selection(sel).arbitration(Arbitration::Random);
            let ev = run_adaptive(&t, &specs, &config.clone().engine(Engine::EventDriven));
            let lg = run_adaptive(&t, &specs, &config.clone().engine(Engine::Legacy));
            assert!(
                ev.same_execution(&lg),
                "{sel:?} {radix}^{dims} B={b} diverged:\n event: {ev:?}\nlegacy: {lg:?}"
            );
        }
    }
}

#[test]
fn pooled_engines_agree_on_sibling_release_wakeups() {
    // The pool-release wakeup rule end to end: w3 parks on e01
    // needing *shared* credit (its floor is taken by the long-held
    // w2), and the credit only returns when the sibling edge e02
    // releases — an event the edge-keyed static wakeup would never
    // see. Both engines must agree on the stall accounting.
    let (g, e01, e02) = star();
    let specs = vec![
        MessageSpec::new(Path::new(vec![e02]), 6),
        MessageSpec::new(Path::new(vec![e02]), 6),
        MessageSpec::new(Path::new(vec![e01]), 20),
        MessageSpec::new(Path::new(vec![e01]), 2).release_at(1),
    ];
    let config = pooled_cfg(3, 1, 2);
    let r = assert_engines_agree(&g, &specs, &config);
    assert_eq!(r.outcome, Outcome::Completed);
    assert!(
        r.messages[3].stalls > 0,
        "w3 must wait for the sibling release: {r:?}"
    );
}

#[test]
fn pooled_engines_agree_on_contended_chains() {
    for (c, d, l, pool, min, max) in [
        (4u32, 6u32, 3u32, 2u32, 1u32, 2u32),
        (6, 8, 5, 3, 1, 3),
        (5, 5, 4, 4, 2, 3),
        (3, 4, 9, 2, 1, 1),
    ] {
        let (g, ps) = shared_chain_instance(c, d);
        let specs = specs_from_paths(&ps, l);
        let r = assert_engines_agree(&g, &specs, &pooled_cfg(pool, min, max));
        assert_eq!(r.delivered(), c as usize);
    }
}
