//! Regression fixtures for escape-channel correctness: when
//! minimal-adaptive traffic saturates the adaptive VC lane, worms must
//! drain through the Dally–Seitz escape classes — completing without
//! deadlock — and the adaptive machinery must stay within its contracts
//! (minimal routes stay minimal, misroute budgets bind, arrival is
//! guaranteed even at `B = 1` under rotation traffic that wedges the
//! naive torus).

use std::sync::atomic::{AtomicU64, Ordering};

use wormhole_routing::prelude::*;
use wormhole_topology::mesh::ADAPTIVE_CLASS;

fn adaptive_torus(radix: u32, dims: u32) -> Mesh {
    Mesh::new_disciplined(radix, dims, RoutingDiscipline::AdaptiveEscape)
}

/// Rotation (tornado-style) batch: every node sends `stride` hops the
/// same way around dimension 0 — the workload whose wrap cycle deadlocks
/// the naive torus at `B = 1`.
fn rotation_specs(t: &Mesh, stride: u32, l: u32) -> Vec<MessageSpec> {
    let n = t.num_nodes();
    (0..n)
        .map(|i| {
            let mut dc = t.coords(NodeId(i));
            dc[0] = (dc[0] + stride) % t.radix();
            MessageSpec::new(t.route(NodeId(i), t.node(&dc)), l)
        })
        .collect()
}

#[test]
fn saturating_rotation_drains_via_the_escape_class_without_deadlock() {
    // 8-ring, B = 1, L longer than any route: every worm's second hop is
    // held by the worm ahead of it, so the adaptive lane wedges exactly
    // like the naive torus would — and the escape fallback is the only
    // way anything finishes. The run must complete, and must actually
    // have used the escape classes.
    let t = adaptive_torus(8, 1);
    let specs = rotation_specs(&t, 4, 12);
    for engine in [
        Engine::EventDriven,
        Engine::Legacy,
        Engine::Parallel { threads: 2 },
    ] {
        let cfg = SimConfig::new(1)
            .route_selection(RouteSelection::MinimalAdaptive)
            .engine(engine)
            .check_invariants(true);
        let r = wormhole_run_adaptive(&t, &specs, &cfg);
        assert_eq!(r.outcome, Outcome::Completed, "{engine:?}: {r:?}");
        assert_eq!(r.delivered(), 8, "{engine:?}");
        assert!(
            r.escape_fallbacks > 0,
            "{engine:?}: saturated adaptive lane must spill into escape channels"
        );
        assert_eq!(r.misroute_hops, 0, "minimal-adaptive never misroutes");
    }
}

#[test]
fn pooled_saturating_rotation_drains_via_the_escape_class_without_deadlock() {
    // The same saturate-then-drain regression under router-pooled VC
    // allocation: the pool equals the static budget (1 VC × fanout) but
    // is shared on demand, with the mandatory per-edge floor of 1. The
    // floors keep every escape channel serviceable, so the rotation
    // still wedges the adaptive lane, spills into the escape classes,
    // and completes — on every engine, bit-identically.
    let t = adaptive_torus(8, 1);
    let specs = rotation_specs(&t, 4, 12);
    let fanout = Mesh::graph(&t).max_out_degree() as u32;
    let mut results = Vec::new();
    for engine in [
        Engine::Legacy,
        Engine::EventDriven,
        Engine::Parallel { threads: 2 },
    ] {
        let cfg = SimConfig::new(1)
            .vc_policy(VcPolicy::pooled(fanout, 1, fanout))
            .route_selection(RouteSelection::MinimalAdaptive)
            .engine(engine)
            .check_invariants(true);
        let r = wormhole_run_adaptive(&t, &specs, &cfg);
        assert_eq!(r.outcome, Outcome::Completed, "{engine:?}: {r:?}");
        assert_eq!(r.delivered(), 8, "{engine:?}");
        assert!(
            r.escape_fallbacks > 0,
            "{engine:?}: saturated adaptive lane must spill into escape channels"
        );
        assert!(
            r.max_pool_in_use <= fanout,
            "{engine:?}: pool oversubscribed"
        );
        results.push((engine, r));
    }
    let (_, legacy) = &results[0];
    for (engine, r) in &results[1..] {
        assert!(
            r.same_execution(legacy),
            "pooled {engine:?} diverged from legacy:\n   run: {r:?}\nlegacy: {legacy:?}"
        );
    }
}

#[test]
fn control_arm_same_rotation_deadlocks_without_escape_channels() {
    // The same rotation on the naive single-class torus wedges at B = 1:
    // this is the deadlock the escape classes exist to remove.
    let naive = Mesh::new(8, 1);
    let specs = rotation_specs(&naive, 4, 12);
    let r = wormhole_run(naive.graph(), &specs, &SimConfig::new(1));
    assert!(
        matches!(r.outcome, Outcome::Deadlock(_)),
        "control arm should wedge: {r:?}"
    );
}

#[test]
fn rotation_on_2d_torus_completes_at_b1_under_both_adaptive_policies() {
    let t = adaptive_torus(4, 2);
    let specs = rotation_specs(&t, 2, 9);
    for sel in [
        RouteSelection::MinimalAdaptive,
        RouteSelection::FullyAdaptive { misroute_quota: 4 },
    ] {
        let cfg = SimConfig::new(1)
            .route_selection(sel)
            .check_invariants(true);
        let r = wormhole_run_adaptive(&t, &specs, &cfg);
        assert_eq!(r.outcome, Outcome::Completed, "{sel:?}: {r:?}");
        assert_eq!(r.delivered(), 16, "{sel:?}");
    }
}

#[test]
fn open_loop_adaptive_rotation_never_deadlocks_under_overload() {
    // Open-loop overload on the ring: saturation is expected (MaxSteps
    // is a measurement), deadlock is forbidden, and the windowed stats
    // stay well-formed.
    let substrate = Substrate::torus_with(8, 1, RoutingDiscipline::AdaptiveEscape);
    let mesh = substrate.as_mesh().unwrap();
    let w = Workload::new(
        substrate.clone(),
        TrafficPattern::Tornado,
        ArrivalProcess::bernoulli(0.8),
        6,
        11,
    );
    let specs = w.generate(400);
    let ol = OpenLoopConfig::new(100, 300);
    let cfg = SimConfig::new(1)
        .route_selection(RouteSelection::MinimalAdaptive)
        .max_steps(500);
    let r = run_open_loop(mesh.graph(), Some(mesh), &specs, &cfg, &ol);
    assert!(
        !matches!(r.outcome, Outcome::Deadlock(_)),
        "escape-backed adaptive routing must not wedge: {r:?}"
    );
    let s = r.open_loop.as_ref().unwrap();
    assert!(s.offered_msgs > 0);
    assert!(s.accepted_msgs > 0, "traffic must keep flowing: {s:?}");
    assert!(
        r.escape_fallbacks > 0,
        "overload must exercise the escape class"
    );
}

#[test]
fn adaptive_class_constant_matches_mesh_tagging() {
    let t = adaptive_torus(4, 2);
    for e in Mesh::graph(&t).edges() {
        assert_eq!(
            t.is_escape_edge(e),
            t.edge_vc_class(e) < ADAPTIVE_CLASS,
            "escape tagging disagrees on {e:?}"
        );
    }
}

/// An [`AdaptiveRouter`] that counts the queries the simulator makes —
/// a deterministic work counter for the engines' routing cost.
struct CountingRouter<'a, R> {
    inner: &'a R,
    /// `candidates`, `escape_hop` and `escape_route` calls.
    calls: [AtomicU64; 3],
}

impl<'a, R: AdaptiveRouter> CountingRouter<'a, R> {
    fn new(inner: &'a R) -> Self {
        Self {
            inner,
            calls: Default::default(),
        }
    }

    /// `[candidates, escape_hop, escape_route]` queries since the last
    /// call.
    fn take_calls(&self) -> [u64; 3] {
        [0, 1, 2].map(|q| self.calls[q].swap(0, Ordering::Relaxed))
    }

    fn count(&self, query: usize) {
        self.calls[query].fetch_add(1, Ordering::Relaxed);
    }
}

impl<R: AdaptiveRouter> AdaptiveRouter for CountingRouter<'_, R> {
    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn candidates(&self, at: NodeId, dst: NodeId, misroutes: bool, out: &mut Vec<(EdgeId, bool)>) {
        self.count(0);
        self.inner.candidates(at, dst, misroutes, out);
    }

    fn escape_route(&self, at: NodeId, dst: NodeId) -> Path {
        self.count(2);
        self.inner.escape_route(at, dst)
    }

    fn escape_hop(&self, at: NodeId, dst: NodeId) -> EdgeId {
        self.count(1);
        self.inner.escape_hop(at, dst)
    }

    fn is_escape(&self, e: EdgeId) -> bool {
        self.inner.is_escape(e)
    }
}

#[test]
fn parked_pending_worms_cut_router_calls_on_a_saturated_tornado() {
    // 8×8 minimal-adaptive tornado far past saturation: nearly every
    // pending header finds its whole candidate set and the escape hop
    // full, step after step. The router is pure, so every engine asks it
    // once per head position — a `candidates` and an `escape_hop` when a
    // worm first selects where it stands, an `escape_route` when it falls
    // back — and answers every later selection and every park from the
    // worm's watch row. Router queries are a work counter, so the bound
    // holds on any host: it is in head positions, not in steps.
    let substrate = Substrate::torus_with(8, 2, RoutingDiscipline::AdaptiveEscape);
    let router = CountingRouter::new(substrate.as_mesh().unwrap());
    let w = Workload::new(
        substrate.clone(),
        TrafficPattern::Tornado,
        ArrivalProcess::bernoulli(0.3),
        8,
        5,
    );
    let specs = w.generate(300);
    let cfg = SimConfig::new(1)
        .route_selection(RouteSelection::MinimalAdaptive)
        .arbitration(Arbitration::Random)
        .max_steps(400);
    let legacy = wormhole_run_adaptive(&router, &specs, &cfg.clone().engine(Engine::Legacy));
    let legacy_calls = router.take_calls();
    assert_eq!(legacy.outcome, Outcome::MaxSteps);
    assert!(
        legacy.total_stalls > 5 * legacy.flit_hops,
        "not saturated: {} stalls for {} flit-hops",
        legacy.total_stalls,
        legacy.flit_hops
    );
    // Head positions a pending worm can have stood on: where it was
    // admitted (every spec is released before the cap) and one per
    // adaptive hop — at most its minimal distance, and none if it never
    // moved.
    let admitted = specs.len() as u64;
    let hops: u64 = (specs.iter().zip(&legacy.messages))
        .filter(|(_, m)| m.first_move.is_some())
        .map(|(spec, _)| spec.path.len() as u64)
        .sum();
    let [candidates, escape_hops, escape_routes] = legacy_calls;
    assert_eq!(candidates, escape_hops, "one of each per head position");
    assert!(
        candidates <= admitted + hops,
        "{candidates} head positions asked about, {admitted} worms and {hops} hops"
    );
    assert_eq!(escape_routes, legacy.escape_fallbacks);
    // Far from what asking at every blocked step costs: two queries a
    // stall.
    assert!(
        5 * candidates <= legacy.total_stalls,
        "{candidates} head positions asked about in {} stalls",
        legacy.total_stalls
    );
    let r = wormhole_run_adaptive(&router, &specs, &cfg.clone().engine(Engine::EventDriven));
    assert!(
        r.same_execution(&legacy),
        "EventDriven diverged from legacy"
    );
    assert_eq!(router.take_calls(), legacy_calls, "EventDriven");
    // A watch row does not travel with its worm: a region asks again for
    // a pending worm it takes in. A hand-off follows a move, which
    // outdates the row anyway, and one worker steps one region, which
    // hands nothing off.
    let r = wormhole_run_adaptive(
        &router,
        &specs,
        &cfg.clone().engine(Engine::Parallel { threads: 1 }),
    );
    assert!(r.same_execution(&legacy), "Parallel diverged from legacy");
    let [par_candidates, par_escape_hops, par_escape_routes] = router.take_calls();
    assert_eq!(par_candidates, par_escape_hops);
    assert!(
        (candidates..=candidates + admitted).contains(&par_candidates),
        "Parallel asked about {par_candidates} head positions, legacy about {candidates}"
    );
    assert_eq!(par_escape_routes, legacy.escape_fallbacks);
}

/// Replays `specs`, recording every discard notification.
struct DiscardLog {
    inner: ReplaySource,
    discards: Vec<(u32, u64)>,
}

impl TrafficSource for DiscardLog {
    fn next_release(&mut self, now: u64) -> Option<u64> {
        self.inner.next_release(now)
    }

    fn take_ready(&mut self, now: u64, out: &mut Vec<(u32, MessageSpec)>) {
        self.inner.take_ready(now, out);
    }

    fn on_discarded(&mut self, id: u32, t: u64) {
        self.discards.push((id, t));
    }

    fn id_bound(&self) -> Option<u32> {
        self.inner.id_bound()
    }
}

#[test]
fn a_kill_severing_a_parked_pending_worms_escape_route_dooms_it_that_step() {
    // 8-ring, B = 1, fault-oblivious escape routing (the plain mesh as
    // router). Three worms leave node 0 the same way: 0 takes the
    // adaptive lane at step 0, 1 the escape hop at step 1, and 2 — its
    // only candidate and its escape hop both held for the next ~30
    // steps — parks at step 1. The kill at step 10 cuts the last hop of
    // worm 2's escape route, an edge nobody holds: the legacy stepper
    // dooms worm 2 at that very step, so the event engine must wake it
    // for the kill rather than for the release 20 steps later.
    const KILL_AT: u64 = 10;
    let t = adaptive_torus(8, 1);
    let (src, near, far) = (NodeId(0), NodeId(2), NodeId(3));
    let specs = [
        MessageSpec::new(t.route(src, near), 30),
        MessageSpec::new(t.route(src, near), 30),
        MessageSpec::new(t.route(src, far), 30),
    ];
    let severed = *t.escape_route(src, far).edges().last().unwrap();
    let router = CountingRouter::new(&t);
    let run = |engine, check_invariants| {
        let cfg = SimConfig::new(1)
            .route_selection(RouteSelection::MinimalAdaptive)
            .arbitration(Arbitration::FifoById)
            .faults(FaultPlan::new().kill_link(KILL_AT, severed))
            .engine(engine)
            .check_invariants(check_invariants);
        let mut source = DiscardLog {
            inner: ReplaySource::new(specs.to_vec()),
            discards: Vec::new(),
        };
        let traffic = Traffic::Source(&mut source);
        let r = wormhole_simulate(router.graph(), Some(&router), traffic, &cfg).unwrap();
        (r, source.discards, router.take_calls())
    };
    let mut runs = Vec::new();
    for engine in [
        Engine::Legacy,
        Engine::EventDriven,
        Engine::Parallel { threads: 2 },
    ] {
        let (r, discards, _) = run(engine, true);
        assert_eq!(r.outcome, Outcome::Completed, "{engine:?}");
        assert_eq!(discards, [(2, KILL_AT)], "{engine:?}");
        assert_eq!(r.messages[2].discarded, Some(DiscardReason::LinkDown));
        // Blocked at every step before the kill, doomed (not stalled)
        // at the kill step itself.
        assert_eq!(r.messages[2].stalls, KILL_AT, "{engine:?}");
        assert_eq!(
            (r.kills_applied, r.fault_discards, r.delivered()),
            (1, 1, 2),
            "{engine:?}"
        );
        // The invariant checks query the router themselves; count the
        // engine's own calls without them.
        runs.push((r, run(engine, false).2));
    }
    let [(legacy, legacy_calls), (event, event_calls), (parallel, _)] = &runs[..] else {
        unreachable!()
    };
    for r in [event, parallel] {
        assert!(r.same_execution(legacy), "run: {r:?}\nlegacy: {legacy:?}");
    }
    // Worm 2 really was parked — the run's one park, at step 1, held
    // until the kill: its ten stalls (asserted above) were settled, not
    // counted step by step. Both engines asked about the same four head
    // positions: three worms at node 0, worm 0 again after its adaptive
    // hop. (Under a fault plan every escape selection of a *runnable*
    // worm also builds the escape route to look for dead edges, so there
    // the legacy stepper, which keeps worm 2 runnable, still asks more.)
    let stats = event.engine_stats.expect("the event driver counts");
    assert_eq!((stats.parks, stats.pending_entered), (1, 0), "{stats:?}");
    for calls in [legacy_calls, event_calls] {
        assert_eq!(calls[..2], [4, 4], "{calls:?}");
    }
    assert!(event_calls[2] <= legacy_calls[2]);
}

/// A ring whose escape routes close a cycle — each physical channel
/// `i → i + 1` is one adaptive-lane edge (`2i`) and one escape edge
/// (`2i + 1`), with no dateline. Violates the [`AdaptiveRouter`]
/// acyclicity contract on purpose: the only way to drive a genuine
/// adaptive-mode deadlock.
struct CyclicEscapeRing {
    graph: Graph,
    n: u32,
}

impl CyclicEscapeRing {
    fn new(n: u32) -> Self {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n {
            b.add_edge(NodeId(i), NodeId((i + 1) % n)); // adaptive lane
            b.add_edge(NodeId(i), NodeId((i + 1) % n)); // escape
        }
        Self {
            graph: b.build(),
            n,
        }
    }

    fn escape_edge(&self, at: NodeId) -> EdgeId {
        EdgeId(2 * at.0 + 1)
    }
}

impl AdaptiveRouter for CyclicEscapeRing {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn candidates(&self, at: NodeId, _dst: NodeId, _mis: bool, out: &mut Vec<(EdgeId, bool)>) {
        out.push((EdgeId(2 * at.0), true));
    }

    fn escape_route(&self, at: NodeId, dst: NodeId) -> Path {
        let hops = (dst.0 + self.n - at.0) % self.n;
        Path::new(
            (0..hops)
                .map(|k| self.escape_edge(NodeId((at.0 + k) % self.n)))
                .collect(),
        )
    }

    fn is_escape(&self, e: EdgeId) -> bool {
        e.0 % 2 == 1
    }
}

#[test]
fn deadlock_reports_agree_for_worms_parked_on_their_watch_set() {
    // Worms 0–3 (`i → i + 3`) take the adaptive lane at step 0 and the
    // escape hop at step 1, then wedge in the escape cycle: each wants
    // the escape edge its successor holds. Worms 4–7 (`i → i + 2`) lose
    // both arbitrations at their source and, lane and escape hop full,
    // are parked (event engine, parallel regions) when step 2 moves
    // nothing. The report must still name the escape hop they would
    // have re-selected, with its holder.
    let ring = CyclicEscapeRing::new(4);
    let route = |i: u32, hops: u32| {
        Path::new(
            (0..hops)
                .map(|k| EdgeId(2 * ((i + k) % 4)))
                .collect::<Vec<_>>(),
        )
    };
    let specs: Vec<MessageSpec> = (0..4)
        .map(|i| MessageSpec::new(route(i, 3), 10))
        .chain((0..4).map(|i| MessageSpec::new(route(i, 2), 10)))
        .collect();
    let cfg = SimConfig::new(1)
        .route_selection(RouteSelection::MinimalAdaptive)
        .arbitration(Arbitration::FifoById)
        .check_invariants(true);
    let legacy = wormhole_run_adaptive(&ring, &specs, &cfg.clone().engine(Engine::Legacy));
    assert_eq!(legacy.outcome, Outcome::Deadlock((0..8).collect()));
    assert_eq!(legacy.total_steps, 2);
    let report = legacy.deadlock.as_ref().expect("deadlock carries a report");
    for m in 4..8u32 {
        let wait = report
            .waits
            .iter()
            .find(|w| w.message == m)
            .expect("every blocked worm is in the report");
        let at = NodeId(m - 4);
        assert_eq!(legacy.messages[m as usize].first_move, None);
        assert_eq!(
            wait.edge,
            ring.escape_edge(at).0,
            "worm {m} waits on its escape hop"
        );
        assert_eq!(
            wait.holders,
            [(m - 4 + 3) % 4],
            "held by the worm that beat it"
        );
    }
    for engine in [
        Engine::EventDriven,
        Engine::Parallel { threads: 1 },
        Engine::Parallel { threads: 2 },
    ] {
        let r = wormhole_run_adaptive(&ring, &specs, &cfg.clone().engine(engine));
        assert_eq!(r.deadlock, legacy.deadlock, "{engine:?}");
        assert!(r.same_execution(&legacy), "{engine:?}: {r:?}");
    }
}
