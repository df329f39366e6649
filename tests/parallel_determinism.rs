//! Determinism and fixture tests for the partitioned parallel engine.
//!
//! The parallel engine's contract is *bit-identity*: for every config
//! it accepts, the [`SimResult`] must equal the sequential engines'
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
//!   step with the same cycle report.

use proptest::prelude::*;

use wormhole_flitsim::config::{Arbitration, Engine, SimConfig};
use wormhole_flitsim::message::specs_from_paths;
use wormhole_flitsim::stats::{Outcome, SimResult};
use wormhole_flitsim::wormhole;
use wormhole_flitsim::MessageSpec;
use wormhole_topology::graph::{Graph, GraphBuilder, NodeId};
use wormhole_topology::path::Path;
use wormhole_topology::random_nets::shared_chain_instance;
use wormhole_topology::region::RegionPlan;
use wormhole_workloads::{ArrivalProcess, RoutingDiscipline, Substrate, TrafficPattern, Workload};

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

/// Runs the parallel engine at 1, 2, and 8 workers plus the legacy
/// oracle, and asserts the four results are identical executions with
/// no fallback. Returns the legacy result for extra assertions.
fn assert_worker_count_invariant(
    graph: &Graph,
    specs: &[MessageSpec],
    config: &SimConfig,
) -> SimResult {
    let lg = wormhole::run(graph, specs, &config.clone().engine(Engine::Legacy));
    for threads in [1u32, 2, 8] {
        let par = wormhole::run(
            graph,
            specs,
            &config.clone().engine(Engine::Parallel { threads }),
        );
        assert!(
            par.engine_fallback.is_none(),
            "supported config fell back at {threads} workers: {:?}",
            par.engine_fallback
        );
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

/// [`assert_worker_count_invariant`] for adaptive route selection:
/// same sweep, driven through [`wormhole::run_adaptive`].
fn assert_adaptive_worker_count_invariant(
    router: &dyn wormhole_topology::adaptive::AdaptiveRouter,
    specs: &[MessageSpec],
    config: &SimConfig,
) -> SimResult {
    let lg = wormhole::run_adaptive(router, specs, &config.clone().engine(Engine::Legacy));
    for threads in [1u32, 2, 8] {
        let par = wormhole::run_adaptive(
            router,
            specs,
            &config.clone().engine(Engine::Parallel { threads }),
        );
        assert!(
            par.engine_fallback.is_none(),
            "adaptive config fell back at {threads} workers: {:?}",
            par.engine_fallback
        );
        assert!(
            par.same_execution(&lg),
            "adaptive parallel({threads} workers) diverged from legacy:\nparallel: {par:?}\n  legacy: {lg:?}"
        );
        assert_eq!(par.messages, lg.messages);
    }
    lg
}

/// A worm longer than the region it starts in: with nodes `0..=2` in
/// region 0 and `3..=5` in region 1, an L=4 worm on the 5-edge chain
/// holds VCs on both sides of the cut for several supersteps, so its
/// tail releases are remote exactly while its header acquisitions are
/// local. A trailing worm contends for the freed VCs to make the
/// release timing observable.
#[test]
fn worm_crosses_region_boundary_mid_flit() {
    let mut bld = GraphBuilder::new(6);
    let edges: Vec<_> = (0..5)
        .map(|i| bld.add_edge(NodeId(i), NodeId(i + 1)))
        .collect();
    let g = bld.build();
    let plan = RegionPlan::from_node_regions(&g, vec![0, 0, 0, 1, 1, 1]);
    assert!(plan.cross_edges() > 0, "the cut must sever the chain");
    assert_eq!(plan.lookahead(), 1);

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
/// `Outcome::MaxSteps` and the same survivor count — capped windows
/// are part of the supported set, not a fallback.
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
            prop_assert!(par.engine_fallback.is_none());
            prop_assert!(
                par.same_execution(&lg),
                "parallel({regions} regions) diverged from legacy:\nparallel: {par:?}\n  legacy: {lg:?}"
            );
        }
    }
}
