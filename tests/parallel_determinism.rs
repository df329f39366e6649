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
//!   small ones, plus a step cap landing mid-window) must be
//!   unobservable in the result;
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
//!   region in place.

use proptest::prelude::*;

use wormhole_flitsim::config::{Arbitration, Engine, SimConfig};
use wormhole_flitsim::message::specs_from_paths;
use wormhole_flitsim::source::TrafficSource;
use wormhole_flitsim::stats::{DiscardReason, Outcome, SimResult};
use wormhole_flitsim::wormhole;
use wormhole_flitsim::MessageSpec;
use wormhole_topology::fault::FaultPlan;
use wormhole_topology::graph::{EdgeId, Graph, GraphBuilder, NodeId};
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

/// Runs `run` under the parallel engine at 1, 2, and 8 workers plus the
/// legacy oracle, and asserts the four results are identical executions.
/// Returns the legacy result for extra assertions.
fn assert_runs_worker_count_invariant(
    run: impl Fn(&SimConfig) -> SimResult,
    config: &SimConfig,
) -> SimResult {
    let lg = run(&config.clone().engine(Engine::Legacy));
    for threads in [1u32, 2, 8] {
        let par = run(&config.clone().engine(Engine::Parallel { threads }));
        assert!(
            par.same_execution(&lg),
            "parallel({threads} workers) diverged from legacy:\nparallel: {par:?}\n  legacy: {lg:?}"
        );
        // Belt and braces on the strongest field: the per-message
        // records must be byte-identical, not merely aggregate-equal.
        assert_eq!(par.messages, lg.messages);
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
    assert_eq!(lg.messages[1].discarded, Some(DiscardReason::LinkDown));
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
/// coordinator before that step's admissions, and the fault-aware source
/// reissues each severed half-chain — the reissue is admitted at the
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
            inner: ClosedLoopSource::new(&sub, &cl).with_faults(&plan, sub.graph()),
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
    /// and fully adaptive selection with a misroute quota on
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
        quota in 0u32..5,
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
            .misroute_quota(quota)
            .regions(RegionPlan::contiguous(substrate.graph(), regions))
            .max_steps(2_000)
            .check_invariants(true);
        assert_adaptive_worker_count_invariant(mesh, &specs, &cfg);
    }

    /// Window boundaries must be unobservable: one giant region (whose
    /// post-injection window can cover the whole drain) and many small
    /// regions (lookahead forced down to 1 near every cut) must yield
    /// the same execution as the per-step legacy oracle — including
    /// when a step cap lands inside a granted window.
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
        for regions in [1u32, 2, 5, 16] {
            let par = wormhole::run(
                substrate.graph(),
                &specs,
                &cfg.clone()
                    .regions(RegionPlan::contiguous(substrate.graph(), regions))
                    .engine(Engine::Parallel { threads: 2 }),
            );
            prop_assert!(
                par.same_execution(&lg),
                "parallel({regions} regions) diverged from legacy:\nparallel: {par:?}\n  legacy: {lg:?}"
            );
        }
    }
}
