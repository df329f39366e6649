//! Herd fixtures for the event driver's contests in place.
//!
//! A worm that loses arbitration parks, and a release on its wait key
//! does not wake it: the key turns *hot*, the next executed step enters
//! the key's waiters into arbitration from where they wait — a
//! fixed-route key's as a run kept in arbitration order, whole — and only
//! a winner leaves the queue (`flitsim/src/engine.rs`). These fixtures
//! pin what that must — and must not — change:
//!
//! * nothing a user can see: every fixture runs on Legacy, EventDriven
//!   and Parallel at 1 and 2 workers with `check_invariants` on, and the
//!   four results are the same execution;
//! * one worker is the event engine plus a coordinator: it steps one
//!   region, the whole graph, whatever the plan, and counts exactly the
//!   steps, parks and contests the event engine counts — on a six-region
//!   tornado plan too, which a worker stepping six regions would count
//!   six times over;
//! * the herd is gone *as a count*: `SimResult::engine_stats` shows every
//!   blocked worm parking once per edge it finds full, however many
//!   contests it loses there — closed forms on small herds, and a golden
//!   on a saturated torus point that fails on any machine if losers start
//!   re-parking again;
//! * the corners of a hot key: a pooled sibling's release nobody can use,
//!   a kill severing a waiter the step its key is hot, a release landed
//!   from another region between two windows, and a run that ends — step
//!   cap, deadlock — around a release nobody got to contest;
//! * the adaptive herd: a pending head waits on its whole watch set and
//!   contends from there too, under the hop it selects from its watch row
//!   — parked once however many contests it loses, entered once a step
//!   however many of its keys are hot, and back in the next step's
//!   contest when it lost one edge while another it watches stayed open.

use wormhole_flitsim::config::{Arbitration, Engine, RouteSelection, SimConfig, VcPolicy};
use wormhole_flitsim::open_loop::{run_open_loop, OpenLoopConfig};
use wormhole_flitsim::stats::{DiscardReason, EngineStats, Outcome, SimResult};
use wormhole_flitsim::wormhole;
use wormhole_flitsim::MessageSpec;
use wormhole_topology::fault::FaultPlan;
use wormhole_topology::graph::{EdgeId, Graph, GraphBuilder, NodeId};
use wormhole_topology::mesh::Mesh;
use wormhole_topology::path::Path;
use wormhole_topology::region::RegionPlan;
use wormhole_workloads::{ArrivalProcess, RoutingDiscipline, Substrate, TrafficPattern, Workload};

const ARBITRATIONS: [Arbitration; 4] = [
    Arbitration::FifoById,
    Arbitration::OldestFirst,
    Arbitration::PriorityRank,
    Arbitration::Random,
];

/// What the event-style engines counted on one fixture.
struct Counted {
    /// The legacy oracle's result (what every other run equals).
    legacy: SimResult,
    /// [`Engine::EventDriven`]'s counters.
    event: EngineStats,
    /// [`Engine::Parallel`]'s at 1 and at 2 workers.
    parallel: [EngineStats; 2],
}

/// Runs `specs` on all three engines — the parallel one at 1 and 2
/// workers — with every invariant check on, asserts the four results are
/// the same execution and that one worker, on one region, counts what
/// the event engine counts, and returns the oracle's with the counters.
fn run_everywhere(graph: &Graph, specs: &[MessageSpec], config: &SimConfig) -> Counted {
    run_everywhere_with(|config| wormhole::run(graph, specs, config), config)
}

/// [`run_everywhere`] under per-hop route selection on `mesh`.
fn run_adaptive_everywhere(mesh: &Mesh, specs: &[MessageSpec], config: &SimConfig) -> Counted {
    run_everywhere_with(|config| wormhole::run_adaptive(mesh, specs, config), config)
}

fn run_everywhere_with(simulate: impl Fn(&SimConfig) -> SimResult, config: &SimConfig) -> Counted {
    let run = |engine| simulate(&config.clone().check_invariants(true).engine(engine));
    let legacy = run(Engine::Legacy);
    assert_eq!(
        legacy.engine_stats, None,
        "the legacy stepper counts nothing"
    );
    let counters = |engine| {
        let r = run(engine);
        assert!(
            r.same_execution(&legacy),
            "{engine:?} diverged from legacy:\n{r:?}\n{legacy:?}"
        );
        r.engine_stats.expect("the event driver counts")
    };
    let got = Counted {
        event: counters(Engine::EventDriven),
        parallel: [1, 2].map(|threads| counters(Engine::Parallel { threads })),
        legacy,
    };
    let one_worker = &got.parallel[0];
    assert_eq!(
        driver_counts(one_worker),
        driver_counts(&got.event),
        "one worker counts what the event engine counts"
    );
    assert_eq!(one_worker.regions, 1, "one worker steps one region");
    got
}

/// `(parks, contests, waiters_entered, waiters_won)`.
fn herd_counts(s: &EngineStats) -> (u64, u64, u64, u64) {
    (s.parks, s.contests, s.waiters_entered, s.waiters_won)
}

/// The event driver's counters: `steps_executed`, the
/// [`herd_counts`] and `pending_entered`.
fn driver_counts(s: &EngineStats) -> (u64, (u64, u64, u64, u64), u64) {
    (s.steps_executed, herd_counts(s), s.pending_entered)
}

fn adaptive_torus(radix: u32, dims: u32) -> Mesh {
    Mesh::new_disciplined(radix, dims, RoutingDiscipline::AdaptiveEscape)
}

fn graph_of(nodes: u32, edges: &[(u32, u32)]) -> (Graph, Vec<EdgeId>) {
    let mut b = GraphBuilder::new(nodes as usize);
    let ids = edges
        .iter()
        .map(|&(s, d)| b.add_edge(NodeId(s), NodeId(d)))
        .collect();
    (b.build(), ids)
}

fn worm(path: &[EdgeId], length: u32) -> MessageSpec {
    MessageSpec::new(Path::new(path.to_vec()), length)
}

/// `K` one-hop worms released together on one edge: the deepest herd a
/// single release can meet. Whatever the arbitration policy and the VC
/// policy, each of the `K − B` worms the first step blocks parks exactly
/// once and wins exactly once — `B` at a time, every `L` steps — and the
/// contests they lose in between touch nobody: entered once per contest
/// while still waiting, `Σ (K − B·j)` in all.
#[test]
fn a_herd_on_one_edge_parks_once_per_worm_under_every_policy() {
    const K: u64 = 24;
    const L: u64 = 3;
    let (g, e) = graph_of(2, &[(0, 1)]);
    // Priorities run against the ids, so `PriorityRank` serves the herd
    // in the opposite order to `FifoById`.
    let specs: Vec<MessageSpec> = (0..K)
        .map(|i| worm(&e, L as u32).with_priority((K - i) as u32))
        .collect();
    for b in [1u64, 2] {
        let pooled = VcPolicy::pooled(b as u32, 1, b as u32);
        for policy in [VcPolicy::Static(b as u32), pooled] {
            for arbitration in ARBITRATIONS {
                let config = SimConfig::new(1)
                    .vc_policy(policy)
                    .arbitration(arbitration)
                    .seed(20);
                let got = run_everywhere(&g, &specs, &config);
                let case = format!("B = {b}, {policy:?}, {arbitration:?}");
                assert_eq!(got.legacy.outcome, Outcome::Completed, "{case}");
                assert_eq!(got.legacy.total_steps, K / b * L, "{case}");
                // Waves of `B` every `L` steps: wave `j` stalled `j·L`.
                let waves = K / b;
                assert_eq!(
                    got.legacy.total_stalls,
                    b * L * waves * (waves - 1) / 2,
                    "{case}"
                );
                let entered: u64 = (1..waves).map(|j| K - b * j).sum();
                // One region holds the edge and every worm on it, so the
                // parallel engine counts what the sequential one does.
                for stats in [&got.event, &got.parallel[0], &got.parallel[1]] {
                    assert_eq!(
                        herd_counts(stats),
                        (K - b, waves - 1, entered, K - b),
                        "{case}"
                    );
                    assert_eq!(stats.pending_entered, 0, "{case}");
                    // The last wave's drain, nothing parked behind it,
                    // is one jump.
                    assert_eq!(stats.steps_executed, (waves - 1) * L + 1, "{case}");
                }
                if b == 1 && arbitration == Arbitration::FifoById {
                    for (i, m) in got.legacy.messages.iter().enumerate() {
                        let i = i as u64;
                        assert_eq!((m.finished, m.stalls), (Some((i + 1) * L), i * L));
                    }
                }
                if b == 1 && arbitration == Arbitration::PriorityRank {
                    for (i, m) in got.legacy.messages.iter().enumerate() {
                        assert_eq!(m.finished, Some((K - i as u64) * L));
                    }
                }
            }
        }
    }
}

/// Under pooling a wait key is the *router*: a sibling edge's release
/// turns it hot although the waiters' own edge is still at its cap. They
/// contend, nobody wins, nobody is touched, the key goes cold — and the
/// release that matters still frees them.
///
/// Router 0 has two out-edges and `pooled(3, 1, 2)`: one shared credit,
/// cap 2. Worms 0 and 1 (L = 10) take `a` to its cap; worm 2 (L = 3)
/// takes `b` within its floor; worms 3 and 4 want `a` and park at step 0.
/// Worm 2 finishes during step 2: contest at step 3, no winner. Worms 0
/// and 1 finish during step 9: contest at step 10, both win.
#[test]
fn a_pooled_siblings_release_is_contested_and_lost_without_touching_the_waiters() {
    let (g, e) = graph_of(3, &[(0, 1), (0, 2)]);
    let (a, b) = (&e[0..1], &e[1..2]);
    let specs = [worm(a, 10), worm(a, 10), worm(b, 3), worm(a, 2), worm(a, 2)];
    let config = SimConfig::new(1).vc_policy(VcPolicy::pooled(3, 1, 2));
    let got = run_everywhere(&g, &specs, &config);
    assert_eq!(got.legacy.outcome, Outcome::Completed);
    let finished: Vec<_> = got.legacy.messages.iter().map(|m| m.finished).collect();
    assert_eq!(finished, [Some(10), Some(10), Some(3), Some(12), Some(12)]);
    let stalls: Vec<_> = got.legacy.messages.iter().map(|m| m.stalls).collect();
    assert_eq!(stalls, [0, 0, 0, 10, 10]);
    assert_eq!(got.legacy.max_pool_in_use, 3);
    for stats in [&got.event, &got.parallel[0], &got.parallel[1]] {
        // Two parks, two contests of two waiters each; only the second
        // had anything to win.
        assert_eq!(herd_counts(stats), (2, 2, 4, 2));
    }
}

/// A fault kill severs a waiter at the very step its key is hot: the
/// release of step 3 made edge 0's key hot, and the kill at the start of
/// step 4 — before the contest — discards worm 1, parked there since
/// step 0 with a dead edge ahead. It settles four stalls like the legacy
/// stepper's, it leaves its key's run, and the contest at step 4 is
/// between whoever is left: worm 2 wins.
#[test]
fn a_kill_severs_a_waiter_the_step_its_key_is_hot() {
    let (g, e) = graph_of(3, &[(0, 1), (1, 2)]);
    let specs = [worm(&e[0..1], 4), worm(&e, 2), worm(&e[0..1], 2)];
    let config = SimConfig::new(1).faults(FaultPlan::new().kill_link(4, e[1]));
    let got = run_everywhere(&g, &specs, &config);
    assert_eq!(got.legacy.outcome, Outcome::Completed);
    let m = &got.legacy.messages;
    assert_eq!((m[0].finished, m[0].stalls), (Some(4), 0));
    assert_eq!(m[1].discarded, Some(DiscardReason::LinkDown));
    assert_eq!((m[1].finished, m[1].stalls), (None, 4));
    assert_eq!((m[2].finished, m[2].stalls), (Some(6), 4));
    assert_eq!(got.legacy.fault_discards, 1);
    for stats in [&got.event, &got.parallel[0], &got.parallel[1]] {
        // The severed waiter never enters the contest.
        assert_eq!(herd_counts(stats), (2, 1, 1, 1));
    }
}

/// A release made by *another region's* worm lands between two windows
/// and is contested on the next window's first step. On the 6-chain cut
/// `{0, 1, 2} | {3, 4, 5}`, worm 0 (L = 4, the whole chain) takes edge 2
/// — region 0's — during step 2 and is resident in region 1 by the time
/// its tail leaves it, during step 6. Worms 1–3 (one hop, on edge 2,
/// released at 3) have parked on it in region 0. With two workers the
/// regions stay apart: the release crosses the cut through the outbox,
/// and the herd is served from step 7, one every L = 2 steps.
#[test]
fn a_foreign_release_landed_between_windows_is_contested_on_the_next_first_step() {
    let (g, e) = graph_of(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    let mut specs = vec![worm(&e, 4)];
    specs.extend((0..3).map(|_| worm(&e[2..3], 2).release_at(3)));
    let plan = RegionPlan::from_node_regions(&g, vec![0, 0, 0, 1, 1, 1]);
    let config = SimConfig::new(1).regions(plan);
    let got = run_everywhere(&g, &specs, &config);
    assert_eq!(got.legacy.outcome, Outcome::Completed);
    let served: Vec<_> = got.legacy.messages[1..]
        .iter()
        .map(|m| (m.first_move, m.finished, m.stalls))
        .collect();
    assert_eq!(
        served,
        [
            (Some(7), Some(9), 4),
            (Some(9), Some(11), 6),
            (Some(11), Some(13), 8)
        ]
    );
    let two_workers = &got.parallel[1];
    assert_eq!(two_workers.regions, 2, "two workers keep the cut");
    assert!(two_workers.handoffs >= 1, "worm 0 crossed it");
    for stats in [&got.event, two_workers] {
        assert_eq!(herd_counts(stats), (3, 3, 6, 3));
    }
}

/// The step cap ends the run right after a release nobody got to
/// contest: the herd's first winner finishes during step `L − 1`, the
/// key is hot, and the cap is `L`. Every waiter settles `L` stalls, as
/// the legacy stepper counted them.
#[test]
fn the_step_cap_with_a_key_still_hot_settles_every_waiter() {
    const K: u64 = 24;
    const L: u64 = 3;
    let (g, e) = graph_of(2, &[(0, 1)]);
    let specs: Vec<MessageSpec> = (0..K).map(|_| worm(&e, L as u32)).collect();
    let got = run_everywhere(&g, &specs, &SimConfig::new(1).max_steps(L));
    assert_eq!(got.legacy.outcome, Outcome::MaxSteps);
    assert_eq!(got.legacy.total_steps, L);
    assert_eq!(got.legacy.messages[0].finished, Some(L));
    assert_eq!(got.legacy.total_stalls, (K - 1) * L);
    for stats in [&got.event, &got.parallel[0], &got.parallel[1]] {
        assert_eq!(herd_counts(stats), (K - 1, 0, 0, 0));
    }
}

/// A deadlock verdict reached through a hot key. On the 4-cycle with
/// B = 1 worms 0 and 1 block each other from step 2 on and park; a spur
/// `2 → 4` shares router 2's pool with the edge worm 0 waits for, and
/// worm 2 streams six flits over it. Its finish during step 5 is the
/// run's last move — and turns router 2's key hot, so step 6 is not
/// frozen on sight: worm 0 contends, its edge is still at its cap, nobody
/// moves, and *that* is the deadlock step, as in the legacy stepper.
#[test]
fn a_deadlock_verdict_through_a_hot_key_counts_the_legacy_stalls() {
    let (g, e) = graph_of(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)]);
    let specs = [
        worm(&[e[0], e[1], e[2]], 8),
        worm(&[e[2], e[3], e[0]], 8),
        worm(&e[4..5], 6),
    ];
    let config = SimConfig::new(1).vc_policy(VcPolicy::pooled(2, 1, 1));
    let got = run_everywhere(&g, &specs, &config);
    assert_eq!(got.legacy.outcome, Outcome::Deadlock(vec![0, 1]));
    assert_eq!(got.legacy.total_steps, 6);
    let stalls: Vec<_> = got.legacy.messages.iter().map(|m| m.stalls).collect();
    assert_eq!(stalls, [5, 5, 0]);
    assert!(got.legacy.deadlock.is_some());
    // Two parks; one contest, entered by worm 0 alone, lost.
    assert_eq!(herd_counts(&got.event), (2, 1, 1, 0));
}

/// The adaptive herd: `K` pending heads queued at one source, every exit
/// taken. On the 8-ring at `B = 1` node 0 reaches node 1 over one
/// adaptive-lane edge and one escape edge. Worms 0 and 1 take one each —
/// the loser of step 0 falls back to the escape hop at step 1 — and one
/// of them, `L = 5`, is followed through its edge by the herd, while the
/// other, `L = 60`, outlasts it. The herd (`L = 3`, released at step 2)
/// finds both full: each worm parks, once, on both keys. Every release
/// is then a contest among the worms still waiting, each entered under
/// the hop it selects from its row — whichever edge it was that opened —
/// and only the winner leaves the queue: `K` parks, `K` contests,
/// `K + (K − 1) + … + 1` pending heads entered, under every policy.
#[test]
fn an_adaptive_herd_at_one_source_parks_once_per_worm_under_every_policy() {
    const K: u64 = 12;
    const L: u64 = 3;
    let ring = adaptive_torus(8, 1);
    let hop = || ring.route(NodeId(0), NodeId(1));
    let mut specs = vec![
        MessageSpec::new(hop(), 5),
        MessageSpec::new(hop(), 60).with_priority(1),
    ];
    specs.extend((0..K).map(|i| {
        MessageSpec::new(hop(), L as u32)
            .release_at(2)
            .with_priority((2 + K - i) as u32)
    }));
    for arbitration in ARBITRATIONS {
        let config = SimConfig::new(1)
            .route_selection(RouteSelection::MinimalAdaptive)
            .arbitration(arbitration)
            .seed(7);
        let got = run_adaptive_everywhere(&ring, &specs, &config);
        let case = format!("{arbitration:?}");
        assert_eq!(got.legacy.outcome, Outcome::Completed, "{case}");
        // Through the lane — or, where the long worm won it at step 0,
        // through the escape hop, one fallback a worm.
        let fallbacks = got.legacy.escape_fallbacks;
        assert!(fallbacks == 1 || fallbacks == K + 1, "{case}: {fallbacks}");
        let herd = &got.legacy.messages[2..];
        assert!(herd.iter().all(|m| m.finished.is_some()), "{case}");
        // Served one at a time, `L` steps apart, through one edge.
        let mut moves: Vec<u64> = herd.iter().map(|m| m.first_move.unwrap()).collect();
        moves.sort_unstable();
        assert!(
            moves.windows(2).all(|w| w[1] - w[0] == L),
            "{case}: {moves:?}"
        );
        for stats in [&got.event, &got.parallel[0], &got.parallel[1]] {
            let entered = K * (K + 1) / 2;
            assert_eq!(herd_counts(stats), (K, K, entered, K), "{case}");
            assert_eq!(stats.pending_entered, entered, "{case}");
        }
    }
}

/// A pending head that loses one edge while another it watches is open
/// contends again at the very next step — no release tells it to. On the
/// 5 × 5 torus at `B = 1`, worms 0 and 1 (`L = 6`) take the two adaptive
/// edges out of `(0, 0)` at step 0 and worm 2 its escape hop at step 1;
/// worms 3 and 4, bound for `(1, 1)` from step 2, watch all three and
/// park. Both adaptive edges open during step 5. At step 6 each waiter
/// is entered once, though two of its keys are hot, and both select the
/// same edge — equal occupancy, lower id: worm 3 wins it, worm 4 loses
/// with its other candidate still free. It moves at step 7, as under the
/// legacy stepper, not at worm 3's release some steps later.
#[test]
fn a_pending_loser_whose_other_candidate_is_open_contends_again_the_next_step() {
    let t = adaptive_torus(5, 2);
    let at = |x, y| t.node(&[x, y]);
    let spec = |dst, l| MessageSpec::new(t.route(at(0, 0), dst), l);
    let specs = [
        spec(at(1, 0), 6),
        spec(at(0, 1), 6),
        spec(at(1, 0), 30),
        spec(at(1, 1), 4).release_at(2),
        spec(at(1, 1), 4).release_at(2),
    ];
    let config = SimConfig::new(1).route_selection(RouteSelection::MinimalAdaptive);
    let got = run_adaptive_everywhere(&t, &specs, &config);
    assert_eq!(got.legacy.outcome, Outcome::Completed);
    let m = &got.legacy.messages;
    assert_eq!((m[0].first_move, m[1].first_move), (Some(0), Some(0)));
    assert_eq!((m[2].first_move, m[2].stalls), (Some(1), 1));
    assert_eq!((m[3].first_move, m[3].stalls), (Some(6), 4));
    assert_eq!((m[4].first_move, m[4].stalls), (Some(7), 5));
    assert_eq!(got.legacy.escape_fallbacks, 1, "worm 2 alone fell back");
    for stats in [&got.event, &got.parallel[0], &got.parallel[1]] {
        // Two parks. Step 6: two hot keys, two waiters entered once each,
        // one winner. Step 7: the loser's key, hot again, and the loser.
        assert_eq!(herd_counts(stats), (2, 3, 3, 2));
        assert_eq!(stats.pending_entered, 3);
    }
}

/// The counter golden: fast x2's saturated torus point — its message
/// length, window, heaviest rate, `B = 1`, random arbitration and seed
/// rule — on a 6×6 dateline torus. The counts are exact and the same on
/// any machine, so a change that brings the herd back (a loser re-parked
/// per contest lost would add `waiters_entered − waiters_won` parks)
/// fails here. A winner leaves every key it waited on, so a contest is
/// held only where somebody waits: never more contests than waiters
/// entered. One parallel worker counts what the event engine counts; at
/// two the counts depend on the plan, and two runs must agree.
#[test]
fn counter_golden_on_the_saturated_torus_point_of_fast_x2() {
    let substrate = Substrate::torus_with(6, 2, RoutingDiscipline::DatelineClasses);
    let workload = Workload::new(
        substrate.clone(),
        TrafficPattern::UniformRandom,
        ArrivalProcess::bernoulli(0.45),
        4,
        0xa11ce,
    );
    let (warmup, measure) = (150, 400);
    let specs = workload.generate(warmup + measure);
    let run = |engine| {
        let config = SimConfig::new(1)
            .arbitration(Arbitration::Random)
            .seed(0x5eed ^ 1)
            .check_invariants(true)
            .engine(engine);
        let ol = OpenLoopConfig::new(warmup, measure);
        run_open_loop(substrate.graph(), None, &specs, &config, &ol)
    };
    let legacy = run(Engine::Legacy);
    assert_eq!(legacy.outcome, Outcome::MaxSteps, "the point is saturated");
    assert_eq!(legacy.engine_stats, None);
    let event = run(Engine::EventDriven);
    assert!(event.same_execution(&legacy));
    let stats = event.engine_stats.expect("the event driver counts");
    assert_eq!(
        herd_counts(&stats),
        (8_752, 3_354, 76_080, 3_215),
        "parks are first blocks only; {} contests lost touched nobody",
        stats.waiters_entered - stats.waiters_won
    );
    assert!(stats.contests <= stats.waiters_entered);
    for threads in [1, 2] {
        let par = run(Engine::Parallel { threads });
        assert!(par.same_execution(&legacy));
        let again = run(Engine::Parallel { threads });
        assert_eq!(par.engine_stats, again.engine_stats);
        let counted = par.engine_stats.expect("the event driver counts");
        assert!(counted.parks > 0);
        if threads == 1 {
            assert_eq!(driver_counts(&counted), driver_counts(&stats));
        }
    }
}

/// The adaptive counter golden: a minimal-adaptive tornado on the 8 × 8
/// adaptive-escape torus far past saturation — every source's queue of
/// pending heads wants the same two or three injection edges. Exact on
/// any host: if pending losers start re-parking again, `parks` grows by
/// what `pending_entered − waiters_won` counts today.
#[test]
fn counter_golden_on_a_saturated_minimal_adaptive_tornado_point() {
    let substrate = Substrate::torus_with(8, 2, RoutingDiscipline::AdaptiveEscape);
    let mesh = substrate.as_mesh().expect("a torus routes adaptively");
    let workload = Workload::new(
        substrate.clone(),
        TrafficPattern::Tornado,
        ArrivalProcess::bernoulli(0.3),
        8,
        5,
    );
    let specs = workload.generate(300);
    let config = SimConfig::new(1)
        .route_selection(RouteSelection::MinimalAdaptive)
        .arbitration(Arbitration::Random)
        .max_steps(400);
    let got = run_adaptive_everywhere(mesh, &specs, &config);
    assert_eq!(
        got.legacy.outcome,
        Outcome::MaxSteps,
        "the point is saturated"
    );
    assert_eq!(herd_counts(&got.event), (5_844, 440, 13_859, 414));
    assert_eq!(got.event.pending_entered, 13_499);
}

/// Tornado traffic on a 6 × 6 dateline torus cut into six slabs: it
/// travels in dimension 0 only, the slabs cut the last dimension, so no
/// worm ever reaches a cut and every grant is unbounded. A worker stepping
/// the six slabs apart would execute each step once per busy slab; one
/// worker steps one region, the whole torus, and counts what the event
/// engine counts ([`run_everywhere`]).
#[test]
fn one_worker_on_a_six_slab_tornado_plan_counts_what_the_event_engine_counts() {
    let sub = Substrate::torus_with(6, 2, RoutingDiscipline::DatelineClasses);
    let w = Workload::new(
        sub.clone(),
        TrafficPattern::Tornado,
        ArrivalProcess::bernoulli(0.3),
        4,
        5,
    );
    let specs = w.generate(60);
    let plan = sub.region_plan(6);
    assert_eq!(plan.num_regions(), 6);
    let got = run_everywhere(sub.graph(), &specs, &SimConfig::new(2).regions(plan));
    assert_eq!(got.legacy.outcome, Outcome::Completed);
    assert!(got.legacy.total_stalls > 0, "the fixture must contend");
    assert_eq!(got.parallel[1].regions, 2);
}
