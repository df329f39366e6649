//! Fixtures for the event driver's drain wheel.
//!
//! Once a worm's header arrives, its remaining flits stream out one a
//! step and every VC release it has left falls at a step fixed on
//! arrival. The event driver files that drain on a step-indexed wheel
//! and takes the worm out of its step loop (`flitsim/src/engine.rs`);
//! the legacy stepper keeps advancing it one step at a time. Every
//! fixture runs on Legacy, EventDriven and Parallel at 1 and 2 workers
//! with `check_invariants` on — which settles and refiles the wheel
//! after every step — and the four results must be the same execution,
//! pinned besides to figures worked out by hand:
//!
//! * long (`L ≫ D`), one-flit (`L = 1`) and one-hop (`D = 1`) worms, a
//!   drain's release waking a parked worm;
//! * a step cap landing anywhere in a drain: `flit_hops` counts only the
//!   advances that ran;
//! * a fault kill severing a draining worm: its unfired releases go with
//!   it, the drain beside it is filed again;
//! * a pooled drain release returning the shared credit a parked sibling
//!   of another edge waits for;
//! * a region whose draining worm still holds an edge of the region next
//!   door: the window grant stays at one step until that release fires.

use wormhole_flitsim::config::{Engine, SimConfig, VcPolicy};
use wormhole_flitsim::stats::{EngineStats, Outcome, SimResult};
use wormhole_flitsim::wormhole;
use wormhole_flitsim::MessageSpec;
use wormhole_topology::fault::FaultPlan;
use wormhole_topology::graph::{EdgeId, Graph, GraphBuilder, NodeId};
use wormhole_topology::path::Path;
use wormhole_topology::region::RegionPlan;

/// Runs `specs` on all three engines — the parallel one at 1 and 2
/// workers — with every invariant check on, asserts the four results are
/// the same execution and that one worker counts the drains and stepped
/// worms the event engine counts, and returns the legacy result with the
/// event engine's counters.
fn run_everywhere(
    graph: &Graph,
    specs: &[MessageSpec],
    config: &SimConfig,
) -> (SimResult, EngineStats) {
    let run = |engine| {
        wormhole::run(
            graph,
            specs,
            &config.clone().check_invariants(true).engine(engine),
        )
    };
    let legacy = run(Engine::Legacy);
    let mut counted = Vec::new();
    for engine in [
        Engine::EventDriven,
        Engine::Parallel { threads: 1 },
        Engine::Parallel { threads: 2 },
    ] {
        let r = run(engine);
        assert!(
            r.same_execution(&legacy),
            "{engine:?} diverged from legacy:\n{r:?}\n{legacy:?}"
        );
        counted.push(r.engine_stats.expect("the event driver counts"));
    }
    let (event, one_worker) = (counted[0], counted[1]);
    assert_eq!(
        (
            one_worker.steps_executed,
            one_worker.worms_stepped,
            one_worker.drains
        ),
        (event.steps_executed, event.worms_stepped, event.drains),
        "one worker counts what the event engine counts"
    );
    (legacy, event)
}

/// A chain `0 → 1 → … → n − 1`, its edges in order.
fn chain(nodes: u32) -> (Graph, Vec<EdgeId>) {
    let mut b = GraphBuilder::new(nodes as usize);
    let edges = (0..nodes - 1)
        .map(|v| b.add_edge(NodeId(v), NodeId(v + 1)))
        .collect();
    (b.build(), edges)
}

fn worm(path: &[EdgeId], length: u32) -> MessageSpec {
    MessageSpec::new(Path::new(path.to_vec()), length)
}

/// Flit hops of a lone worm of `hops` edges and `length` flits through
/// its first `advances` advances: advance `a` moves every flit between
/// the tail's edge `max(a + 1 − L, 1)` and the head's `min(a, D)`.
fn lone_flit_hops(hops: i64, length: i64, advances: i64) -> u64 {
    let width = |a: i64| a.min(hops) - (a + 1 - length).max(1) + 1;
    (1..=advances.min(hops + length - 1))
        .map(width)
        .sum::<i64>() as u64
}

/// `(finished, first_move, stalls)` of every message.
fn timeline(r: &SimResult) -> Vec<(Option<u64>, Option<u64>, u64)> {
    r.messages
        .iter()
        .map(|m| (m.finished, m.first_move, m.stalls))
        .collect()
}

/// On the 5-chain at `B = 1`: worm 0 (`L = 20` over two edges) holds
/// edge 0 until its tail leaves it during step 20, and worm 1 (one hop,
/// released at 1) waits for it and moves at 21. Worms 2 and 3 are one
/// flit long — arrived and delivered in one advance, never filed — and
/// worm 4 (`D = 1`, `L = 6`) drains from its first step. Four drains.
#[test]
fn long_one_flit_and_one_hop_worms_drain_off_the_step_loop() {
    let (g, e) = chain(5);
    let specs = [
        worm(&e[0..2], 20),
        worm(&e[0..1], 3).release_at(1),
        worm(&e[2..4], 1),
        worm(&e[3..4], 1).release_at(5),
        worm(&e[3..4], 6).release_at(10),
        worm(&e, 12).release_at(30),
    ];
    let (r, stats) = run_everywhere(&g, &specs, &SimConfig::new(1));
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(
        timeline(&r),
        [
            (Some(21), Some(0), 0),
            (Some(24), Some(21), 20),
            (Some(2), Some(0), 0),
            (Some(6), Some(5), 0),
            (Some(16), Some(10), 0),
            (Some(45), Some(30), 0),
        ]
    );
    assert_eq!(
        r.flit_hops,
        40 + 3 + 2 + 1 + 6 + 48,
        "every flit crosses every edge"
    );
    assert_eq!(stats.drains, 4, "the one-flit worms are never filed");
}

/// A step cap anywhere in a drain: worm 0 (`D = 3`, `L = 10`) drains
/// from step 3 to step 11, worm 1 waits behind it for edge 0 and moves at
/// 11. Whatever the cap, the run counts exactly the advances that ran
/// before it, and the waiter's stalls through the last step.
#[test]
fn a_step_cap_mid_drain_counts_only_the_advances_that_ran() {
    let (g, e) = chain(4);
    let specs = [worm(&e, 10), worm(&e[0..1], 2).release_at(1)];
    for cap in 1..=14u64 {
        let (r, _) = run_everywhere(&g, &specs, &SimConfig::new(1).max_steps(cap));
        let done = cap >= 13;
        assert_eq!(
            r.outcome,
            if done {
                Outcome::Completed
            } else {
                Outcome::MaxSteps
            },
            "cap {cap}"
        );
        let waiter = cap.saturating_sub(11).min(2);
        assert_eq!(
            r.flit_hops,
            lone_flit_hops(3, 10, cap as i64) + waiter,
            "cap {cap}"
        );
        assert_eq!(
            r.messages[0].finished,
            (cap >= 12).then_some(12),
            "cap {cap}"
        );
        assert_eq!(r.messages[1].stalls, cap.min(11) - 1, "cap {cap}");
    }
}

/// A kill severs a draining worm. Worm 0 (`L = 8` over edges 0 and 1)
/// has arrived during step 1; edge 0 dies at the start of step 4, where
/// its tail still stands. It is discarded with the four advances it ran,
/// its releases land at once, and worm 2, parked on edge 1 since step 1,
/// moves at 4. Worm 1 drains on edge 2 through the kill, filed again.
#[test]
fn a_kill_severs_a_draining_worm_and_refiles_the_drain_beside_it() {
    let (g, e) = chain(4);
    let specs = [
        worm(&e[0..2], 8),
        worm(&e[2..3], 6),
        worm(&e[1..2], 3).release_at(1),
    ];
    let config = SimConfig::new(1).faults(FaultPlan::new().kill_link(4, e[0]));
    let (r, stats) = run_everywhere(&g, &specs, &config);
    assert_eq!(r.outcome, Outcome::Completed);
    assert!(r.messages[0].discarded);
    assert_eq!(r.fault_discards, 1);
    assert_eq!(
        timeline(&r),
        [
            (None, Some(0), 0),
            (Some(6), Some(0), 0),
            (Some(7), Some(4), 3)
        ]
    );
    assert_eq!(r.flit_hops, lone_flit_hops(2, 8, 4) + 6 + 3);
    assert_eq!(stats.drains, 3);
}

/// Router 0 pools three VCs over its two out-edges, one guaranteed each
/// and a cap of two: worms 0 and 1 (`D = 1`, `L = 5`) take edge `b` to
/// its cap — the one shared credit — and worm 2 takes `a` within its
/// floor. Worm 3 wants a second VC on `a` at step 1 and parks on the
/// router. The drains' finishing releases of `b` during step 4 return the
/// credit: it contends at 5, and wins.
#[test]
fn a_pooled_drain_release_frees_the_credit_a_parked_sibling_wants() {
    let mut b = GraphBuilder::new(3);
    let a_edge = b.add_edge(NodeId(0), NodeId(1));
    let b_edge = b.add_edge(NodeId(0), NodeId(2));
    let g = b.build();
    let specs = [
        worm(&[b_edge], 5),
        worm(&[b_edge], 5),
        worm(&[a_edge], 10),
        worm(&[a_edge], 2).release_at(1),
    ];
    let config = SimConfig::new(1).vc_policy(VcPolicy::pooled(3, 1, 2));
    let (r, stats) = run_everywhere(&g, &specs, &config);
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(
        timeline(&r),
        [
            (Some(5), Some(0), 0),
            (Some(5), Some(0), 0),
            (Some(10), Some(0), 0),
            (Some(7), Some(5), 4),
        ]
    );
    assert_eq!(r.max_pool_in_use, 3);
    assert_eq!((stats.parks, stats.contests, stats.waiters_won), (1, 1, 1));
}

/// On the 6-chain cut `{0, 1, 2} | {3, 4, 5}`, worm 0 (`L = 8`) crosses
/// the cut edge 2 — region 0's — into edge 3 and drains in region 1,
/// still holding edge 2 until its tail leaves it during step 8. Worm 1
/// waits for edge 2 in region 0. With two workers that release crosses
/// the cut through the outbox, so region 1 grants itself one step at a
/// time until it has fired — an open-ended window would carry it past
/// the step at which worm 1 must move, 9.
#[test]
fn a_drain_holding_a_foreign_edge_keeps_its_region_to_one_step_windows() {
    let (g, e) = chain(6);
    let specs = [worm(&e[2..4], 8), worm(&e[2..3], 2).release_at(1)];
    let plan = RegionPlan::from_node_regions(&g, vec![0, 0, 0, 1, 1, 1]);
    let config = SimConfig::new(1).regions(plan);
    let (r, stats) = run_everywhere(&g, &specs, &config);
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(
        timeline(&r),
        [(Some(9), Some(0), 0), (Some(11), Some(9), 8)]
    );
    assert_eq!(stats.drains, 2);
    let two = wormhole::run(
        &g,
        &specs,
        &config.clone().engine(Engine::Parallel { threads: 2 }),
    );
    let counted = two.engine_stats.expect("the event driver counts");
    assert_eq!(counted.regions, 2, "two workers keep the cut");
    assert!(counted.handoffs >= 1, "worm 0 crossed it");
}
