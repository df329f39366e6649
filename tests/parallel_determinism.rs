//! Determinism and fixture tests for the partitioned parallel engine.
//!
//! The parallel engine's contract is *bit-identity*: for every config
//! the [`SimResult`] must equal the sequential engines'
//! field for field — and that equality must be independent of the
//! worker count, because worker threads only decide *who* advances a
//! region inside a superstep, never *what* the superstep computes.
//! These tests pin that down:
//!
//! * proptests sweeping 1 / 2 / 8 workers over randomized chain,
//!   torus, and adaptive-escape workloads with varying region counts,
//!   asserting all three runs (and the legacy oracle) are identical;
//! * a window-boundary proptest: the same workload under region plans
//!   with very different lookahead windows (one giant region vs many
//!   small ones, each stepped by one worker a region and by two, plus a
//!   step cap landing mid-window) must be unobservable in the result;
//! * a unit fixture where a worm straddles a region boundary mid-flit,
//!   so the tail release and the header acquisition happen in
//!   different regions of the same superstep;
//! * a capped-window fixture asserting a step-capped parallel run
//!   reports the same `Outcome::MaxSteps` verdict and the same
//!   `in_flight` survivor count as the sequential engines;
//! * a deadlock fixture asserting the parallel run wedges on the same
//!   step with the same cycle report;
//! * a handle-recycling fixture (a worm parks on both sides of a cut
//!   while a later worm parks under its old local handle), a window-grant
//!   fixture (a worm wakes, moves and parks again inside one multi-step
//!   window, so the next grant must shrink), the corners
//!   of the worker/region/step-cap space, a reactive source on a
//!   multi-region plan, and the empty graph / empty source;
//! * fault-kill fixtures — a kill is a window boundary every region
//!   reaches together: a worm severed while it holds VCs on both sides
//!   of a cut, a kill cutting a multi-step grant short (the occupancy
//!   sample of the step before it must not see its releases), a kill
//!   under a reactive source (the source hears the discards before that
//!   step's admissions), and a kill discarding a parked worm of a frozen
//!   region in place;
//! * cut-crossing fixtures on a four-region plan — a worm crossing a cut
//!   queues behind waiters parked beyond it (static VCs, and pooled ones
//!   starved of shared credit), a kill at the step such a worm is
//!   admitted, pending adaptive heads on slab faces, and tornado traffic
//!   that never reaches a cut; each asserts exact stall counts and the
//!   regions stepped at 1 / 2 / 8 workers, `min(workers, plan regions)`
//!   (`SimResult::engine_stats`);
//! * two panic fixtures — a source that panics between windows and a
//!   router that panics inside a worker's window must fail a two-worker
//!   run, not hang it on the window barrier.

use proptest::prelude::*;

use wormhole_flitsim::config::{Arbitration, Engine, SimConfig, VcPolicy};
use wormhole_flitsim::message::specs_from_paths;
use wormhole_flitsim::source::{ReplaySource, TrafficSource};
use wormhole_flitsim::stats::{Outcome, SimResult};
use wormhole_flitsim::wormhole;
use wormhole_flitsim::MessageSpec;
use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::fault::FaultPlan;
use wormhole_topology::graph::{EdgeId, Graph, GraphBuilder, NodeId};
use wormhole_topology::mesh::Mesh;
use wormhole_topology::path::Path;
use wormhole_topology::random_nets::shared_chain_instance;
use wormhole_topology::region::RegionPlan;
use wormhole_workloads::{
    ArrivalProcess, ClosedLoopConfig, ClosedLoopSource, RoutingDiscipline, Substrate,
    TrafficPattern, Workload,
};

fn vcs(i: u32) -> u32 {
    [1u32, 2, 4][i as usize % 3]
}

fn arbitration(i: u32) -> Arbitration {
    match i % 4 {
        0 => Arbitration::FifoById,
        1 => Arbitration::OldestFirst,
        2 => Arbitration::PriorityRank,
        _ => Arbitration::Random,
    }
}

/// Runs `run` under the event engine and the parallel engine at 1, 2,
/// and 8 workers plus the legacy oracle, and asserts the five results
/// are identical executions. Returns the legacy result for extra
/// assertions.
fn assert_runs_worker_count_invariant(
    run: impl Fn(&SimConfig) -> SimResult,
    config: &SimConfig,
) -> SimResult {
    let lg = run(&config.clone().engine(Engine::Legacy));
    let engines = [1u32, 2, 8].map(|threads| Engine::Parallel { threads });
    for engine in [Engine::EventDriven].into_iter().chain(engines) {
        let r = run(&config.clone().engine(engine));
        assert!(
            r.same_execution(&lg),
            "{engine:?} diverged from legacy:\n  run: {r:?}\nlegacy: {lg:?}"
        );
        // Belt and braces on the strongest field: the per-message
        // records must be byte-identical, not merely aggregate-equal.
        assert_eq!(r.messages, lg.messages);
    }
    lg
}

/// [`assert_runs_worker_count_invariant`] over a spec slice.
fn assert_worker_count_invariant(
    graph: &Graph,
    specs: &[MessageSpec],
    config: &SimConfig,
) -> SimResult {
    assert_runs_worker_count_invariant(|cfg| wormhole::run(graph, specs, cfg), config)
}

/// [`assert_worker_count_invariant`] for adaptive route selection:
/// same sweep, driven through [`wormhole::run_adaptive`].
fn assert_adaptive_worker_count_invariant(
    router: &dyn wormhole_topology::adaptive::AdaptiveRouter,
    specs: &[MessageSpec],
    config: &SimConfig,
) -> SimResult {
    assert_runs_worker_count_invariant(|cfg| wormhole::run_adaptive(router, specs, cfg), config)
}

/// The directed chain `0 → 1 → … → n − 1` and its edges in order (`e[i]`
/// leaves node `i`, so it belongs to node `i`'s region).
fn chain(n: u32) -> (Graph, Vec<EdgeId>) {
    let mut bld = GraphBuilder::new(n as usize);
    let edges = (0..n - 1)
        .map(|i| bld.add_edge(NodeId(i), NodeId(i + 1)))
        .collect();
    (bld.build(), edges)
}

/// A worm longer than the region it starts in: with nodes `0..=2` in
/// region 0 and `3..=5` in region 1, an L=4 worm on the 5-edge chain
/// holds VCs on both sides of the cut for several supersteps, so its
/// tail releases are remote exactly while its header acquisitions are
/// local. A trailing worm contends for the freed VCs to make the
/// release timing observable.
#[test]
fn worm_crosses_region_boundary_mid_flit() {
    let (g, edges) = chain(6);
    let plan = RegionPlan::from_node_regions(&g, vec![0, 0, 0, 1, 1, 1]);
    assert!(plan.cross_edges() > 0, "the cut must sever the chain");

    let lead = MessageSpec::new(Path::new(edges.clone()), 4);
    let trail = MessageSpec::new(Path::new(edges.clone()), 3).release_at(1);
    let specs = [lead, trail];
    let cfg = SimConfig::new(1)
        .regions(plan)
        .check_invariants(true)
        .seed(7);
    let lg = assert_worker_count_invariant(&g, &specs, &cfg);
    assert_eq!(lg.outcome, Outcome::Completed);
    // The leader streams unimpeded: 5 + 4 − 1 flit steps.
    assert_eq!(lg.messages[0].finished, Some(5 + 4 - 1));
}

/// A step cap that lands while both worms are still in flight: the
/// parallel engine must stop on the same step with the same
/// `Outcome::MaxSteps` and the same survivor count.
#[test]
fn capped_run_reports_same_in_flight() {
    let (g, ps) = shared_chain_instance(4, 6);
    let specs = specs_from_paths(&ps, 3);
    let cfg = SimConfig::new(1)
        .max_steps(4)
        .regions(RegionPlan::contiguous(&g, 3))
        .check_invariants(true);
    let lg = assert_worker_count_invariant(&g, &specs, &cfg);
    assert_eq!(lg.outcome, Outcome::MaxSteps);
    assert!(lg.in_flight() > 0, "the cap must land mid-flight");
}

/// The classic two-worm cycle on a 4-ring with B=1: each worm holds
/// the edge the other wants. The parallel run must report the same
/// deadlocked-message set and the same wait-for cycle as the
/// sequential engines, on the same step.
#[test]
fn deadlock_verdict_matches_sequential() {
    let mut bld = GraphBuilder::new(4);
    let e01 = bld.add_edge(NodeId(0), NodeId(1));
    let e12 = bld.add_edge(NodeId(1), NodeId(2));
    let e23 = bld.add_edge(NodeId(2), NodeId(3));
    let e30 = bld.add_edge(NodeId(3), NodeId(0));
    let g = bld.build();
    let a = MessageSpec::new(Path::new(vec![e01, e12, e23]), 8);
    let b = MessageSpec::new(Path::new(vec![e23, e30, e01]), 8);
    // Split the ring across two regions so the wait-for cycle spans
    // the cut: the wedge must be detected globally, not per region.
    let plan = RegionPlan::from_node_regions(&g, vec![0, 0, 1, 1]);
    let cfg = SimConfig::new(1).regions(plan).check_invariants(true);
    let lg = assert_worker_count_invariant(&g, &[a, b], &cfg);
    match &lg.outcome {
        Outcome::Deadlock(ids) => assert_eq!(ids.as_slice(), &[0, 1]),
        other => panic!("fixture must wedge, got {other:?}"),
    }
    assert!(lg.deadlock.is_some(), "wedged runs carry a cycle report");
}

/// Handle recycling under migration. An 8-node chain cut in the middle
/// (edges `e0..e3` in region A, `e4..e6` in region B), one VC per edge:
///
/// * worm 0 sits on `e1, e2` through step 6, so worm 1 — A's second
///   resident — parks behind it at step 1, wakes at 6, crosses `e1..e3`
///   and leaves A at step 9 wanting `e4`;
/// * worm 2 holds `e4` from step 8 to 20, so worm 1 parks again, now in
///   B, still holding `e2, e3` — A's edges;
/// * worms 3 and 4 are admitted into A at step 12, into the handles
///   worms 1 and 0 left behind, and park in their turn: one loses `e0`
///   to the other, and whoever runs ahead stops behind worm 1 on `e2`
///   until its tail crosses the cut at step 21 — a remote release.
///
/// A stale wait-queue entry of a handle's previous occupant, a stall
/// settled from the wrong park step, or a window grant that forgot the
/// re-parked worm all show up as a diverging `SimResult`.
#[test]
fn recycled_handles_park_again_on_both_sides_of_the_cut() {
    let (g, e) = chain(8);
    let plan = RegionPlan::from_node_regions(&g, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    let specs = [
        MessageSpec::new(Path::new(e[1..3].to_vec()), 6),
        MessageSpec::new(Path::new(e[0..6].to_vec()), 2),
        MessageSpec::new(Path::new(e[4..7].to_vec()), 12).release_at(8),
        MessageSpec::new(Path::new(e[0..4].to_vec()), 3).release_at(12),
        MessageSpec::new(Path::new(e[0..2].to_vec()), 2).release_at(12),
    ];
    for arb in [Arbitration::OldestFirst, Arbitration::Random] {
        let cfg = SimConfig::new(1)
            .arbitration(arb)
            .regions(plan.clone())
            .check_invariants(true)
            .seed(3);
        let lg = assert_worker_count_invariant(&g, &specs, &cfg);
        assert_eq!(lg.outcome, Outcome::Completed);
        // Parked in A over steps 1..=6, in B over 10..=20.
        assert_eq!(lg.messages[1].stalls, 6 + 11);
        assert!(lg.messages[3].stalls > 0 && lg.messages[4].stalls > 0);
        assert_eq!(lg.max_vcs_in_use, 1);
    }
}

/// A worm that wakes, moves and parks again inside one multi-step window.
/// A 12-node chain whose cut is far from the action (`e0..e7` in region
/// A, `e8..e10` in region B), one VC per edge, everything released at
/// step 0 so no admission shortens a window:
///
/// * worm 0 runs the whole chain; worms 1 and 2 sit on `e2` (through
///   step 9) and `e5` (through step 14), worm 3 on B's `e8` through 39;
/// * the first window is `[0, 8)` — worm 0's distance to the cut — and it
///   parks behind worm 1 at step 2, six hops short of `e8`: window
///   `[8, 14)`;
/// * inside that window `e2` frees at step 9, worm 0 takes `e2, e3, e4`
///   and parks again at step 13 behind worm 2 — now three hops short.
///
/// The next grant has to see that second park: a window wider than
/// `[14, 17)` lets worm 0 reach `e8` while still resident in A, whose
/// ledger knows nothing of worm 3.
#[test]
fn a_worm_reparked_mid_window_tightens_the_next_grant() {
    let (g, e) = chain(12);
    let plan = RegionPlan::from_node_regions(&g, vec![0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1]);
    let specs = [
        MessageSpec::new(Path::new(e.clone()), 3),
        MessageSpec::new(Path::new(vec![e[2]]), 10),
        MessageSpec::new(Path::new(vec![e[5]]), 15),
        MessageSpec::new(Path::new(vec![e[8]]), 40),
    ];
    let cfg = SimConfig::new(1).regions(plan).check_invariants(true);
    let lg = assert_worker_count_invariant(&g, &specs, &cfg);
    assert_eq!(lg.outcome, Outcome::Completed);
    // Blocked on e2 over steps 2..=9, on e5 over 13..=14, on e8 over
    // 18..=39.
    assert_eq!(lg.messages[0].stalls, 8 + 2 + 22);
    assert_eq!(lg.max_vcs_in_use, 1);
}

/// The corners of the worker/region/step-cap space: more workers than
/// regions, more regions requested than nodes (clamped to one node
/// each), and a step cap of `u64::MAX`, which the window arithmetic
/// (`t + w`, `cap − t`) must survive.
#[test]
fn worker_region_and_cap_corners() {
    let (g, ps) = shared_chain_instance(4, 6);
    let specs: Vec<MessageSpec> = specs_from_paths(&ps, 3)
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.release_at(2 * i as u64))
        .collect();
    let base = SimConfig::new(1).check_invariants(true);
    let many = RegionPlan::contiguous(&g, 10 * g.num_nodes() as u32);
    assert_eq!(many.num_regions() as usize, g.num_nodes());
    for cfg in [
        base.clone().regions(RegionPlan::contiguous(&g, 2)), // 8 workers, 2 regions
        base.clone().regions(many),
        base.clone().max_steps(u64::MAX),
        base.clone()
            .max_steps(u64::MAX)
            .regions(RegionPlan::contiguous(&g, 3)),
    ] {
        let lg = assert_worker_count_invariant(&g, &specs, &cfg);
        assert_eq!(lg.outcome, Outcome::Completed);
    }
}

/// A reactive (closed-loop) source on a multi-region plan: every window
/// is one step, and each delivery the coordinator merges can release the
/// next message of its chain.
#[test]
fn reactive_source_on_a_multi_region_plan() {
    let sub = Substrate::butterfly(3);
    let cl = ClosedLoopConfig {
        clients: 4,
        servers: 4,
        window: 2,
        req_len: 2,
        reply_len: 4,
        think: (2, 6),
        server_delay: (1, 3),
        start_spread: 8,
        horizon: 300,
        seed: 11,
    };
    let cfg = SimConfig::new(1)
        .regions(sub.region_plan(3))
        .max_steps(2_000)
        .check_invariants(true);
    let run = |cfg: &SimConfig| {
        let mut source = ClosedLoopSource::new(&sub, &cl);
        wormhole::run_source(sub.graph(), &mut source, cfg)
    };
    let lg = assert_runs_worker_count_invariant(run, &cfg);
    assert_eq!(lg.outcome, Outcome::Completed);
    assert!(lg.total_stalls > 0, "the fixture must contend");
}

/// No engine substitutes for another, even when there is nothing to
/// simulate: an empty graph (nothing to partition — the parallel
/// coordinator runs with zero regions) and an empty source give the same
/// result on all three.
#[test]
fn empty_graph_and_empty_source_agree_on_every_engine() {
    let empty = GraphBuilder::new(0).build();
    let (chain, _) = shared_chain_instance(2, 3);
    for g in [&empty, &chain] {
        let cfg = SimConfig::new(1).check_invariants(true);
        let lg = assert_worker_count_invariant(g, &[], &cfg);
        let ev = wormhole::run(g, &[], &cfg.clone().engine(Engine::EventDriven));
        assert!(ev.same_execution(&lg));
        assert_eq!(lg.outcome, Outcome::Completed);
        assert_eq!((lg.total_steps, lg.messages.len()), (0, 0));
    }
}

/// A kill severs a worm that holds VCs on both sides of a cut while a
/// worm parked in the *other* region waits on one of them. An 8-node
/// chain cut in the middle (`e0..e3` in region A, `e4..e6` in region B),
/// one VC per edge:
///
/// * worm 0 sits on `e6` through step 29; worm 1 (4 flits) runs `e1..e5`
///   and parks behind it at step 5 — resident in B, holding `e2, e3` in A
///   and `e4, e5` in B;
/// * worm 2 follows on `e0, e1` and parks at step 6 in A, alone there,
///   wanting `e2`;
/// * at step 12 `e3` dies. Worm 1 is discarded where it resides, in B;
///   its release of `e2` crosses the cut, and worm 2 must take `e2` at
///   step 12 itself — one step later and it counts an eighth stall.
#[test]
fn a_kill_severs_a_worm_straddling_a_cut() {
    let (g, e) = chain(8);
    let plan = RegionPlan::from_node_regions(&g, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    let specs = [
        MessageSpec::new(Path::new(vec![e[6]]), 30),
        MessageSpec::new(Path::new(e[1..7].to_vec()), 4),
        MessageSpec::new(Path::new(e[0..3].to_vec()), 2).release_at(3),
    ];
    let cfg = SimConfig::new(1)
        .regions(plan)
        .faults(FaultPlan::new().kill_link(12, e[3]))
        .check_invariants(true);
    let lg = assert_worker_count_invariant(&g, &specs, &cfg);
    assert_eq!(lg.outcome, Outcome::Completed);
    assert_eq!((lg.kills_applied, lg.fault_discards), (1, 1));
    // Blocked behind worm 0 over steps 5..=11, then discarded.
    assert!(lg.messages[1].discarded);
    assert_eq!(lg.messages[1].stalls, 7);
    // Blocked at step 4 (e1 frees that step) and over 6..=11.
    assert_eq!(lg.messages[2].stalls, 1 + 6);
    assert_eq!(lg.messages[2].finished, Some(14));
    assert_eq!(lg.max_vcs_in_use, 1);
}

/// A kill cuts a multi-step grant short, and the last step before it
/// holds the run's occupancy maximum. Two approach chains meet at a
/// router `H` with two exits; everything lives in one region (a second
/// one owns a lone spare node), both worms are released at step 0, so
/// without the kill the first grant would run to completion:
///
/// * worm 0 (6 flits) takes `0 → 1 → H → 4 → 5`, holding `H → 4` over
///   steps 2..=8;
/// * worm 1 (3 flits) takes `6 → 7 → 8 → 9 → H` and then an exit of `H`,
///   acquired at step 4 — the last step of the window `[0, 5)`;
/// * at step 5 the edge `9 → H`, which worm 1 still holds, dies.
///
/// The occupancy sample of step 4 is the region's to take on entering
/// its next window, and it must be taken before the kill's releases
/// land. With `B = 1` and worm 1 leaving by `H → 10`, that sample is the
/// only one with two of `H`'s VCs in use (`max_pool_in_use`); with
/// `B = 2` and worm 1 following worm 0 into `H → 4`, the only one with
/// two VCs in use on one edge (`max_vcs_in_use`).
#[test]
fn a_kill_mid_grant_keeps_the_occupancy_sample_of_the_step_before() {
    let mut bld = GraphBuilder::new(13);
    let mut walk = |nodes: &[u32]| -> Vec<EdgeId> {
        nodes
            .windows(2)
            .map(|w| bld.add_edge(NodeId(w[0]), NodeId(w[1])))
            .collect()
    };
    let h = 2;
    let first = walk(&[0, 1, h, 4, 5]);
    let approach = walk(&[6, 7, 8, 9, h]);
    let own_exit = walk(&[h, 10, 11]);
    let g = bld.build();
    let mut regions = vec![0; 13];
    regions[12] = 1;
    let plan = RegionPlan::from_node_regions(&g, regions);
    for (b, exit, max_vcs) in [(1, &own_exit[..], 1), (2, &first[2..], 2)] {
        let specs = [
            MessageSpec::new(Path::new(first.clone()), 6),
            MessageSpec::new(Path::new([&approach[..], exit].concat()), 3),
        ];
        let cfg = SimConfig::new(b)
            .regions(plan.clone())
            .faults(FaultPlan::new().kill_link(5, approach[3]))
            .check_invariants(true);
        let lg = assert_worker_count_invariant(&g, &specs, &cfg);
        assert_eq!(lg.outcome, Outcome::Completed);
        assert_eq!((lg.kills_applied, lg.fault_discards), (1, 1));
        assert_eq!(lg.messages[0].finished, Some(4 + 6 - 1));
        assert_eq!(lg.messages[1].first_move, Some(0));
        assert_eq!(lg.total_stalls, 0);
        assert_eq!((lg.max_vcs_in_use, lg.max_pool_in_use), (max_vcs, 2));
    }
}

/// Forwards to a closed-loop source and logs, for every discard it is
/// told of, how many messages it had emitted by then: a discard at the
/// start of step `t` must be heard before `take_ready(t)` emits.
struct DiscardProbe<'a> {
    inner: ClosedLoopSource<'a>,
    heard: Vec<(u32, u64, usize)>,
}

impl TrafficSource for DiscardProbe<'_> {
    fn next_release(&mut self, now: u64) -> Option<u64> {
        self.inner.next_release(now)
    }
    fn take_ready(&mut self, now: u64, out: &mut Vec<(u32, MessageSpec)>) {
        self.inner.take_ready(now, out)
    }
    fn on_delivered(&mut self, id: u32, finished: u64) {
        self.inner.on_delivered(id, finished)
    }
    fn on_discarded(&mut self, id: u32, t: u64) {
        self.heard.push((id, t, self.inner.emitted()));
        self.inner.on_discarded(id, t)
    }
    fn reactive(&self) -> bool {
        self.inner.reactive()
    }
}

/// A kill under a reactive source on a three-region butterfly plan:
/// every window is one step, the kill's discards retire through the
/// coordinator before that step's admissions, and the source reissues
/// each severed half-chain — the reissue is admitted at the
/// step Legacy admits it, and the source hears every discard at the same
/// point of its own emission sequence.
#[test]
fn a_kill_under_a_reactive_source_reissues_on_schedule() {
    let sub = Substrate::butterfly(3);
    let cl = ClosedLoopConfig {
        clients: 4,
        servers: 4,
        window: 2,
        req_len: 6,
        reply_len: 8,
        think: (0, 1),
        server_delay: (0, 1),
        start_spread: 4,
        horizon: 120,
        seed: 11,
    };
    // The first hop of two clients' routes to their aligned servers dies
    // mid-run, under a request in flight; the butterfly has no second
    // route, so the retries are discarded on arrival until the horizon.
    let kill_at = 28;
    let plan = (0..2).fold(FaultPlan::new(), |plan, c| {
        plan.kill_link(kill_at, sub.route(c, c + 4).edges()[0])
    });
    let regions = sub.region_plan(3);
    assert_eq!(regions.num_regions(), 3);
    let cfg = SimConfig::new(1)
        .regions(regions)
        .faults(plan.clone())
        .max_steps(2_000)
        .check_invariants(true);
    let heard = std::cell::RefCell::new(Vec::new());
    let run = |cfg: &SimConfig| {
        let mut source = DiscardProbe {
            inner: ClosedLoopSource::new(&sub, &cl),
            heard: Vec::new(),
        };
        let r = wormhole::run_source(sub.graph(), &mut source, cfg);
        // The fixture's bite: a worm in flight is severed at a step that
        // also admits — the next message out, when the source hears of
        // the discard, is one released at the kill step itself.
        assert!(
            source.heard.iter().any(|&(_, t, emitted)| t == kill_at
                && emitted < source.inner.emitted()
                && source.inner.released(emitted).0 == kill_at),
            "no in-flight discard heard ahead of the kill step's admissions: {:?}",
            source.heard
        );
        heard.borrow_mut().push(source.heard);
        r
    };
    let lg = assert_runs_worker_count_invariant(run, &cfg);
    assert_eq!(lg.outcome, Outcome::Completed);
    assert_eq!(lg.kills_applied, 2);
    assert_eq!((lg.fault_discards, lg.total_stalls), (348, 86));
    let heard = heard.into_inner();
    for log in &heard[1..] {
        assert_eq!(log, &heard[0], "discards heard at a different point");
    }
}

/// A kill at a step where one region is frozen, discarding one of its
/// parked worms in place. The 8-node chain cut in the middle again, one
/// VC per edge:
///
/// * worm 0 streams 40 flits over `e4` — region B never freezes;
/// * worm 1 runs `e1..e4`, stops behind it at step 3 and parks in B
///   holding `e2, e3`;
/// * worm 2 follows on `e0..e2` and parks at step 4 wanting `e2`; worm 3,
///   released at 5 onto `e0, e1`, parks at once behind worm 2 — region A
///   holds two parked worms and nothing else: frozen from step 5 on;
/// * at step 12 `e2` dies. Worm 1 holds it and worm 2's route crosses it:
///   both are discarded, worm 2 in place in the frozen region, and worm 3
///   wakes on its release of `e0` to move at step 12 itself.
#[test]
fn a_kill_discards_a_parked_worm_of_a_frozen_region() {
    let (g, e) = chain(8);
    let plan = RegionPlan::from_node_regions(&g, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    let specs = [
        MessageSpec::new(Path::new(vec![e[4]]), 40),
        MessageSpec::new(Path::new(e[1..5].to_vec()), 2),
        MessageSpec::new(Path::new(e[0..3].to_vec()), 2).release_at(1),
        MessageSpec::new(Path::new(e[0..2].to_vec()), 2).release_at(5),
    ];
    let cfg = SimConfig::new(1)
        .regions(plan)
        .faults(FaultPlan::new().kill_link(12, e[2]))
        .check_invariants(true);
    let lg = assert_worker_count_invariant(&g, &specs, &cfg);
    assert_eq!(lg.outcome, Outcome::Completed);
    assert_eq!((lg.kills_applied, lg.fault_discards), (1, 2));
    // Worm 1: blocked over 3..=11. Worm 2: at step 2 (e1 frees that
    // step) and over 4..=11. Worm 3: over 5..=11, then two clear hops.
    assert_eq!(lg.messages[1].stalls, 9);
    assert_eq!(lg.messages[2].stalls, 1 + 8);
    assert_eq!(lg.messages[3].stalls, 7);
    assert_eq!(lg.messages[3].first_move, Some(12));
    assert_eq!(lg.messages[3].finished, Some(12 + 2 + 2 - 1));
    assert_eq!(lg.max_vcs_in_use, 1);
}

/// The regions the parallel engine stepped at 1, 2 and 8 workers
/// ([`SimResult::engine_stats`]).
fn regions_stepped(run: impl Fn(&SimConfig) -> SimResult, config: &SimConfig) -> [u32; 3] {
    [1u32, 2, 8].map(|threads| {
        let par = run(&config.clone().engine(Engine::Parallel { threads }));
        par.engine_stats
            .expect("the parallel engine counts")
            .regions
    })
}

/// The cut-crossing fixtures' network: the 16-node chain in four regions
/// of four (`e[i]` leaves node `i`; `e[3]`, `e[7]`, `e[11]` cross the
/// cuts) plus a spur `5 → 16` inside region 1, so that router 5 has two
/// exits. Two workers step regions 0 and 1 as one, and 2 and 3 as
/// another; one steps the whole chain.
fn chain_with_spur() -> (Graph, Vec<EdgeId>, EdgeId, RegionPlan) {
    let mut bld = GraphBuilder::new(17);
    let e: Vec<EdgeId> = (0..15)
        .map(|i| bld.add_edge(NodeId(i), NodeId(i + 1)))
        .collect();
    let spur = bld.add_edge(NodeId(5), NodeId(16));
    let g = bld.build();
    let mut regions: Vec<u32> = (0..16).map(|v| v / 4).collect();
    regions.push(1);
    let plan = RegionPlan::from_node_regions(&g, regions);
    (g, e, spur, plan)
}

/// The traffic of the cut-crossing fixtures, one VC per edge. Until step
/// 10 no route touches a cut — every grant is unbounded — and everything
/// happens in region 1:
///
/// * worm 0 streams 30 flits over `e6`, through step 29;
/// * worm 1 takes `e4, e5` and parks behind it at step 2; worm 2,
///   released at 1 onto `e4, e5`, parks at once behind worm 1; worm 3,
///   released at 2 onto `e6`, behind worm 0 — three worms parked in
///   region 1;
/// * worm 4 crosses the spur over steps 9 and 10 while worm 1 holds
///   `e5`: the end of step 9 is the only instant two of router 5's VCs
///   are in use (`max_pool_in_use`), a sample region 1 takes on entering
///   the window that step 10 opens;
/// * worm 5, released at 10 onto `e2, e3, e4`, is the first whose route
///   crosses a cut: admitted into region 0, it is handed off to region 1
///   wanting `e4`, where the parked worms wait.
fn cut_fixture_specs(e: &[EdgeId], spur: EdgeId) -> Vec<MessageSpec> {
    vec![
        MessageSpec::new(Path::new(vec![e[6]]), 30),
        MessageSpec::new(Path::new(e[4..7].to_vec()), 2),
        MessageSpec::new(Path::new(e[4..6].to_vec()), 2).release_at(1),
        MessageSpec::new(Path::new(vec![e[6]]), 2).release_at(2),
        MessageSpec::new(Path::new(vec![spur]), 2).release_at(9),
        MessageSpec::new(Path::new(e[2..5].to_vec()), 2).release_at(10),
    ]
}

/// A worm crossing a cut queues behind the waiters parked beyond it:
/// worm 5 arrives in region 1 wanting `e4`, which worms 1 and 2 hold in
/// turn, and every stall count equals Legacy's. One worker steps one
/// region, two step two, eight the plan's four.
#[test]
fn a_worm_crossing_a_cut_queues_behind_the_waiters_parked_beyond_it() {
    let (g, e, spur, plan) = chain_with_spur();
    let specs = cut_fixture_specs(&e, spur);
    let cfg = SimConfig::new(1).regions(plan).check_invariants(true);
    let lg = assert_worker_count_invariant(&g, &specs, &cfg);
    assert_eq!(lg.outcome, Outcome::Completed);
    // Worm 1 is blocked over steps 2..=29; worm 2 over 1..=30, until
    // worm 1's tail leaves `e4`; worm 3 over 2..=31, behind worm 0 and
    // then worm 1; worm 5 over 12..=33, behind worms 1 and 2 on `e4`.
    let stalls: Vec<u64> = lg.messages.iter().map(|m| m.stalls).collect();
    assert_eq!(stalls, [0, 28, 30, 30, 0, 22]);
    assert_eq!((lg.max_vcs_in_use, lg.max_pool_in_use), (1, 2));
    let run = |cfg: &SimConfig| wormhole::run(&g, &specs, cfg);
    assert_eq!(regions_stepped(run, &cfg), [1, 2, 4]);
}

/// The same crossing under a pooled VC policy, with the parked worms
/// starved of *shared* credit. Router 5's two exits share `pool = 3` VCs
/// — a floor of one each and one shared credit — and the other routers'
/// single exits may hold two:
///
/// * worms 0 and 1 stream 30 flits each over `e5`: the second draws
///   router 5's one shared credit; worm 2 streams 60 over the spur, on
///   its floor;
/// * worm 3 takes `e4` and wants the spur at step 1 — one VC held of a
///   cap of two, but no shared credit left: it parks on router 5; worm 4
///   follows a step later and parks behind it;
/// * worm 5, released at 10 onto `e2, e3, e4`, crosses the cut and
///   finds `e4` full (worms 3 and 4 sit on it).
///
/// The credit returns at step 29; worm 3 takes it at 30 and worm 4
/// after it.
#[test]
fn a_worm_crossing_a_cut_meets_waiters_starved_of_shared_credit() {
    let (g, e, spur, plan) = chain_with_spur();
    let via_spur = || Path::new(vec![e[4], spur]);
    let specs = [
        MessageSpec::new(Path::new(vec![e[5]]), 30),
        MessageSpec::new(Path::new(vec![e[5]]), 30),
        MessageSpec::new(Path::new(vec![spur]), 60),
        MessageSpec::new(via_spur(), 2),
        MessageSpec::new(via_spur(), 2).release_at(1),
        MessageSpec::new(Path::new(e[2..5].to_vec()), 2).release_at(10),
    ];
    let cfg = SimConfig::new(1)
        .vc_policy(VcPolicy::pooled(3, 1, 2))
        .regions(plan)
        .check_invariants(true);
    let lg = assert_worker_count_invariant(&g, &specs, &cfg);
    assert_eq!(lg.outcome, Outcome::Completed);
    // Starved over steps 1..=29 and 2..=31; worm 5 is blocked on `e4`
    // over 12..=31.
    let stalls: Vec<u64> = lg.messages.iter().map(|m| m.stalls).collect();
    assert_eq!(stalls, [0, 0, 0, 29, 30, 20]);
    assert_eq!((lg.max_vcs_in_use, lg.max_pool_in_use), (2, 3));
    let run = |cfg: &SimConfig| wormhole::run(&g, &specs, cfg);
    assert_eq!(regions_stepped(run, &cfg), [1, 2, 4]);
}

/// A kill at the step a cut-crossing worm is admitted.
/// [`cut_fixture_specs`] again, and at step 10 — worm 5's release — `e5`
/// dies: worm 1 holds it and worm 2's route crosses it, so both are
/// discarded where they are parked, in region 1, before the step's
/// admissions; worm 3, parked behind worm 0, survives the kill parked.
#[test]
fn a_kill_at_the_step_a_cut_crossing_worm_is_admitted() {
    let (g, e, spur, plan) = chain_with_spur();
    let specs = cut_fixture_specs(&e, spur);
    let cfg = SimConfig::new(1)
        .regions(plan)
        .faults(FaultPlan::new().kill_link(10, e[5]))
        .check_invariants(true);
    let lg = assert_worker_count_invariant(&g, &specs, &cfg);
    assert_eq!(lg.outcome, Outcome::Completed);
    assert_eq!((lg.kills_applied, lg.fault_discards), (1, 2));
    // Worms 1 and 2 are blocked over 2..=9 and 1..=9, then discarded;
    // worm 3 over 2..=29, behind worm 0 alone; worm 5 finds `e4` free.
    let stalls: Vec<u64> = lg.messages.iter().map(|m| m.stalls).collect();
    assert_eq!(stalls, [0, 8, 9, 28, 0, 0]);
    assert_eq!(lg.messages[5].finished, Some(10 + 3 + 2 - 1));
    assert_eq!((lg.max_vcs_in_use, lg.max_pool_in_use), (1, 2));
    let run = |cfg: &SimConfig| wormhole::run(&g, &specs, cfg);
    assert_eq!(regions_stepped(run, &cfg), [1, 2, 4]);
}

/// Pending adaptive heads on the slab faces of a 4 × 4 adaptive-escape
/// torus cut into four slabs: a pending head's bound is its node's
/// distance to the nearest cut, finite everywhere on a torus, so from the
/// first admission — at step 3, after an idle jump — every grant is
/// short, and selection by occupancy, escape fallbacks and parks on whole
/// candidate sets all meet the cuts.
#[test]
fn pending_adaptive_heads_on_slab_faces() {
    use wormhole_flitsim::config::RouteSelection;
    let sub = Substrate::torus_with(4, 2, RoutingDiscipline::AdaptiveEscape);
    let mesh = sub.as_mesh().expect("torus is mesh-based");
    // Every node sends half-way round its dimension-0 ring and one row
    // up at step 3, and the other way about at step 4: the second wave
    // finds the first on every slab face.
    let specs: Vec<MessageSpec> = (0..32u32)
        .map(|i| (i % 4, i / 4 % 4, i / 16))
        .map(|(x, y, wave)| {
            let (dx, dy) = [(2, 1), (1, 2)][wave as usize];
            let (src, dst) = (mesh.node(&[x, y]), mesh.node(&[(x + dx) % 4, (y + dy) % 4]));
            MessageSpec::new(mesh.route(src, dst), 6).release_at(3 + wave as u64)
        })
        .collect();
    let cfg = SimConfig::new(1)
        .route_selection(RouteSelection::MinimalAdaptive)
        .regions(sub.region_plan(4))
        .check_invariants(true);
    let lg = assert_adaptive_worker_count_invariant(mesh, &specs, &cfg);
    assert_eq!(lg.outcome, Outcome::Completed);
    assert_eq!((lg.total_stalls, lg.escape_fallbacks), (80, 32));
    assert_eq!(lg.total_steps, 17);
    let run = |cfg: &SimConfig| wormhole::run_adaptive(mesh, &specs, cfg);
    assert_eq!(regions_stepped(run, &cfg), [1, 2, 4]);
}

/// A handle a region recycles must not serve its previous occupant's
/// watch row. On the 8-ring, one region a node, every node sends six
/// waves — one hop clockwise, one counter-clockwise, then two and three
/// either way — each released after the one before has drained. A worm
/// asks the router where it is admitted (route length 0) and leaves for
/// the next region with its first hop, so in every region the next
/// wave's worm takes over a handle whose row was filled at the same
/// route length for another destination: the candidates of the wrong
/// direction, were the row still there. The invariant checks hold every
/// filled row against the router; the results are the oracle's.
#[test]
fn a_recycled_handle_never_serves_its_previous_occupants_watch_row() {
    use wormhole_flitsim::config::RouteSelection;
    let sub = Substrate::torus_with(8, 1, RoutingDiscipline::AdaptiveEscape);
    let mesh = sub.as_mesh().expect("torus is mesh-based");
    let specs: Vec<MessageSpec> = [1u32, 7, 2, 6, 3, 5]
        .iter()
        .zip(0u64..)
        .flat_map(|(&k, wave)| {
            (0..8u32).map(move |i| {
                let route = mesh.route(NodeId(i), NodeId((i + k) % 8));
                MessageSpec::new(route, 2).release_at(8 * wave)
            })
        })
        .collect();
    for selection in [
        RouteSelection::MinimalAdaptive,
        RouteSelection::FullyAdaptive,
    ] {
        let cfg = SimConfig::new(1)
            .route_selection(selection)
            .regions(sub.region_plan(8))
            .check_invariants(true);
        let lg = assert_adaptive_worker_count_invariant(mesh, &specs, &cfg);
        assert_eq!(lg.outcome, Outcome::Completed, "{selection:?}");
        let run = |cfg: &SimConfig| wormhole::run_adaptive(mesh, &specs, cfg);
        let regions = regions_stepped(run, &cfg);
        assert_eq!(regions[2], 8, "eight workers step the eight regions");
    }
}

/// Tornado traffic travels in dimension 0 only and the slabs cut the
/// last dimension: no worm can ever reach a cut, and every grant is
/// unbounded — each slab drains its rings through long windows of its
/// own.
#[test]
fn tornado_traffic_never_reaches_a_cut() {
    let sub = Substrate::torus_with(6, 2, RoutingDiscipline::DatelineClasses);
    let w = Workload::new(
        sub.clone(),
        TrafficPattern::Tornado,
        ArrivalProcess::bernoulli(0.3),
        4,
        5,
    );
    let specs = w.generate(60);
    let cfg = SimConfig::new(2)
        .regions(sub.region_plan(6))
        .check_invariants(true);
    let lg = assert_worker_count_invariant(sub.graph(), &specs, &cfg);
    assert_eq!(lg.outcome, Outcome::Completed);
    assert!(lg.total_stalls > 0, "the fixture must contend");
    let run = |cfg: &SimConfig| wormhole::run(sub.graph(), &specs, cfg);
    assert_eq!(regions_stepped(run, &cfg), [1, 2, 6]);
}

/// Emits like the slice it replays until step 3, where it panics.
struct PanicsAtStepThree(ReplaySource);

impl TrafficSource for PanicsAtStepThree {
    fn next_release(&mut self, now: u64) -> Option<u64> {
        self.0.next_release(now)
    }
    fn take_ready(&mut self, now: u64, out: &mut Vec<(u32, MessageSpec)>) {
        assert!(now < 3, "the source gave up at step {now}");
        self.0.take_ready(now, out)
    }
}

/// A panic on the coordinator's thread between two windows — here the
/// source's, a failed `check_invariants` assertion is another — must
/// fail the run, not hang it: the second worker is parked on the window
/// barrier, which nobody would open again.
#[test]
#[should_panic(expected = "the source gave up at step 3")]
fn a_panicking_source_fails_a_two_worker_run() {
    let (g, e) = chain(8);
    let plan = RegionPlan::from_node_regions(&g, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    let specs = (0..6)
        .map(|i| MessageSpec::new(Path::new(e[1..7].to_vec()), 3).release_at(i))
        .collect();
    let mut source = PanicsAtStepThree(ReplaySource::new(specs));
    let cfg = SimConfig::new(1)
        .regions(plan)
        .engine(Engine::Parallel { threads: 2 });
    wormhole::run_source(&g, &mut source, &cfg);
}

/// A torus router that panics when asked for candidates at `poison`.
struct PoisonedRouter<'a> {
    mesh: &'a Mesh,
    poison: NodeId,
}

impl AdaptiveRouter for PoisonedRouter<'_> {
    fn graph(&self) -> &Graph {
        self.mesh.graph()
    }
    fn candidates(&self, at: NodeId, dst: NodeId, misroutes: bool, out: &mut Vec<(EdgeId, bool)>) {
        assert!(at != self.poison, "no candidates at the poisoned router");
        self.mesh.candidates(at, dst, misroutes, out)
    }
    fn escape_route(&self, at: NodeId, dst: NodeId) -> Path {
        self.mesh.escape_route(at, dst)
    }
    fn is_escape(&self, e: EdgeId) -> bool {
        self.mesh.is_escape(e)
    }
}

/// A panic inside a window on the second worker's thread — its region's
/// header asks the router for candidates — must resurface on the
/// caller's: the coordinator is waiting for that worker on the barrier
/// that closes the window.
#[test]
#[should_panic(expected = "no candidates at the poisoned router")]
fn a_panic_inside_a_workers_window_fails_the_run() {
    use wormhole_flitsim::config::RouteSelection;
    let sub = Substrate::torus_with(4, 2, RoutingDiscipline::AdaptiveEscape);
    let mesh = sub.as_mesh().expect("torus is mesh-based");
    // Rows 2 and 3 are the second worker's; the worm starts in row 3.
    let (src, dst) = (mesh.node(&[0, 3]), mesh.node(&[2, 3]));
    let router = PoisonedRouter { mesh, poison: src };
    let specs = [MessageSpec::new(mesh.route(src, dst), 4)];
    let cfg = SimConfig::new(1)
        .route_selection(RouteSelection::MinimalAdaptive)
        .regions(sub.region_plan(4))
        .engine(Engine::Parallel { threads: 2 });
    wormhole::run_adaptive(&router, &specs, &cfg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Worker count must be unobservable: 1, 2, and 8 workers over the
    /// same seed and region plan produce byte-identical results on
    /// randomized shared-chain contention.
    #[test]
    fn chains_are_worker_count_invariant(
        c in 1u32..7,
        d in 1u32..10,
        l in 1u32..8,
        b_idx in 0u32..3,
        arb in 0u32..4,
        stagger in 0u64..6,
        regions in 1u32..6,
        seed in 0u64..1000,
    ) {
        let (g, ps) = shared_chain_instance(c, d);
        let specs: Vec<MessageSpec> = specs_from_paths(&ps, l)
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let i = i as u64;
                s.release_at((i * stagger) % 13)
                    .with_priority(((seed + i) % 5) as u32)
            })
            .collect();
        let cfg = SimConfig::new(vcs(b_idx))
            .arbitration(arbitration(arb))
            .seed(seed)
            .regions(RegionPlan::contiguous(&g, regions))
            .check_invariants(true);
        assert_worker_count_invariant(&g, &specs, &cfg);
    }

    /// Worker-count invariance on dateline tori under tornado traffic,
    /// including capped windows — the config family the x13 scaling
    /// experiment runs at full size.
    #[test]
    fn torus_tornado_is_worker_count_invariant(
        radix in 4u32..8,
        dims in 1u32..3,
        b_idx in 0u32..2,
        l in 2u32..8,
        rate_pct in 5u32..40,
        regions in 1u32..9,
        cap_small in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let substrate =
            Substrate::torus_with(radix, dims, RoutingDiscipline::DatelineClasses);
        let w = Workload::new(
            substrate.clone(),
            TrafficPattern::Tornado,
            ArrivalProcess::bernoulli(rate_pct as f64 / 100.0),
            l,
            seed,
        );
        let specs = w.generate(80);
        let mut cfg = SimConfig::new([2u32, 4][b_idx as usize])
            .arbitration(arbitration(seed as u32))
            .seed(seed)
            .regions(RegionPlan::contiguous(substrate.graph(), regions))
            .max_steps(2_000)
            .check_invariants(true);
        if cap_small {
            cfg = cfg.max_steps((l + radix) as u64);
        }
        assert_worker_count_invariant(substrate.graph(), &specs, &cfg);
    }

    /// Worker-count invariance with native adaptive routing: minimal
    /// and fully adaptive selection with its misroute budget on
    /// three-class escape tori, where route choice itself depends on
    /// VC occupancy and escape tails are committed mid-window.
    #[test]
    fn adaptive_torus_is_worker_count_invariant(
        radix in 3u32..7,
        dims in 1u32..3,
        b_idx in 0u32..3,
        l in 1u32..8,
        rate_pct in 5u32..40,
        fully in proptest::bool::ANY,
        regions in 1u32..9,
        arb in 0u32..4,
        seed in 0u64..1000,
    ) {
        use wormhole_flitsim::config::RouteSelection;
        let substrate = Substrate::torus_with(radix, dims, RoutingDiscipline::AdaptiveEscape);
        let mesh = substrate.as_mesh().expect("torus is mesh-based");
        let w = Workload::new(
            substrate.clone(),
            TrafficPattern::UniformRandom,
            ArrivalProcess::bernoulli(rate_pct as f64 / 100.0),
            l,
            seed,
        );
        let specs = w.generate(80);
        let sel = if fully {
            RouteSelection::FullyAdaptive
        } else {
            RouteSelection::MinimalAdaptive
        };
        let cfg = SimConfig::new(vcs(b_idx))
            .arbitration(arbitration(arb))
            .seed(seed)
            .route_selection(sel)
            .regions(RegionPlan::contiguous(substrate.graph(), regions))
            .max_steps(2_000)
            .check_invariants(true);
        assert_adaptive_worker_count_invariant(mesh, &specs, &cfg);
    }

    /// Window boundaries must be unobservable: one giant region (whose
    /// post-injection window can cover the whole drain) and many small
    /// regions (lookahead forced down to 1 near every cut) must yield
    /// the same execution as the per-step legacy oracle — including
    /// when a step cap lands inside a granted window. Each plan runs at
    /// two workers, which merge it into two regions, and at one worker a
    /// region, which step it as it is.
    #[test]
    fn window_boundaries_are_unobservable(
        radix in 4u32..8,
        dims in 1u32..3,
        l in 2u32..8,
        rate_pct in 5u32..40,
        cap_small in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let substrate =
            Substrate::torus_with(radix, dims, RoutingDiscipline::DatelineClasses);
        let w = Workload::new(
            substrate.clone(),
            TrafficPattern::Tornado,
            ArrivalProcess::bernoulli(rate_pct as f64 / 100.0),
            l,
            seed,
        );
        let specs = w.generate(80);
        let mut cfg = SimConfig::new(2)
            .arbitration(arbitration(seed as u32))
            .seed(seed)
            .max_steps(2_000)
            .check_invariants(true);
        if cap_small {
            cfg = cfg.max_steps((l + radix + seed as u32 % 17) as u64);
        }
        let lg = wormhole::run(
            substrate.graph(),
            &specs,
            &cfg.clone().engine(Engine::Legacy),
        );
        for (regions, threads) in [(1u32, 1), (1, 2), (2, 2), (5, 2), (5, 5), (16, 2), (16, 16)] {
            let par = wormhole::run(
                substrate.graph(),
                &specs,
                &cfg.clone()
                    .regions(RegionPlan::contiguous(substrate.graph(), regions))
                    .engine(Engine::Parallel { threads }),
            );
            prop_assert!(
                par.same_execution(&lg),
                "parallel({regions} regions, {threads} workers) diverged from legacy:\nparallel: {par:?}\n  legacy: {lg:?}"
            );
        }
    }
}
