//! Replay-equivalence oracle: the lent slice against the replayed vector.
//!
//! `wormhole::run` lends its slice to the run (`Traffic::Specs`: the
//! simulator walks the caller's specs in `(release, id)` order, clones
//! nothing and has nobody to notify); `wormhole::run_source` over a
//! [`ReplaySource`] pulls owned copies of the same specs through the
//! `TrafficSource` interface. Two implementations of one contract: this
//! suite holds them to **field-for-field [`SimResult`] identity** on all
//! three engines, across the workload families the rest of the test tree
//! leans on.

use proptest::prelude::*;

use wormhole_flitsim::config::{Arbitration, Engine, RouteSelection, SimConfig, VcPolicy};
use wormhole_flitsim::message::{specs_from_paths, MessageSpec};
use wormhole_flitsim::source::{ReplaySource, Traffic, TrafficSource};
use wormhole_flitsim::stats::{EngineStats, Outcome, SimResult};
use wormhole_flitsim::wormhole;
use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::random_nets::shared_chain_instance;
use wormhole_workloads::{ArrivalProcess, RoutingDiscipline, Substrate, TrafficPattern, Workload};

const ENGINES: [Engine; 3] = [
    Engine::EventDriven,
    Engine::Legacy,
    Engine::Parallel { threads: 2 },
];

fn arbitration(i: u32) -> Arbitration {
    match i % 4 {
        0 => Arbitration::FifoById,
        1 => Arbitration::OldestFirst,
        2 => Arbitration::PriorityRank,
        _ => Arbitration::Random,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The replay-equivalence invariant on open-loop butterfly traffic:
    /// `run(specs)` ≡ `run_source(ReplaySource::new(specs))`, bit for
    /// bit, on every engine — including MaxSteps aborts, where both
    /// paths must pad undelivered ids to the same outcome table.
    #[test]
    fn replay_source_is_bit_identical_on_butterflies(
        k in 2u32..6,
        rate_pct in 1u32..60,
        l in 1u32..8,
        b in 1u32..4,
        arb in 0u32..4,
        cap_small in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let substrate = Substrate::butterfly(k);
        let w = Workload::new(
            substrate.clone(),
            TrafficPattern::UniformRandom,
            ArrivalProcess::bernoulli(rate_pct as f64 / 100.0),
            l,
            seed,
        );
        let specs = w.generate(120);
        let mut cfg = SimConfig::new(b)
            .arbitration(arbitration(arb))
            .seed(seed ^ 0x50c)
            .check_invariants(true);
        if cap_small {
            cfg = cfg.max_steps(60);
        }
        for engine in ENGINES {
            let cfg = cfg.clone().engine(engine);
            let slice = wormhole::run(substrate.graph(), &specs, &cfg);
            let mut src = ReplaySource::new(specs.clone());
            let replay = wormhole::run_source(substrate.graph(), &mut src, &cfg);
            prop_assert!(
                slice.same_execution(&replay),
                "{engine:?}: replay diverged from slice path:\n slice: {slice:?}\nreplay: {replay:?}"
            );
            prop_assert_eq!(slice.messages.len(), replay.messages.len());
        }
    }

    /// The same invariant where deadlock reports and pooled-credit
    /// arbitration are in play: tornado tori on both routing arms, under
    /// a router-pooled VC policy — the wedged partial state at a
    /// deadlock abort must replay identically too.
    #[test]
    fn replay_source_is_bit_identical_on_pooled_tori(
        radix in 4u32..8,
        dims in 1u32..3,
        l in 2u32..8,
        rate_pct in 5u32..40,
        naive in proptest::bool::ANY,
        extra in 0u32..4,
        seed in 0u64..1000,
    ) {
        let discipline = if naive {
            RoutingDiscipline::Naive
        } else {
            RoutingDiscipline::DatelineClasses
        };
        let substrate = Substrate::torus_with(radix, dims, discipline);
        let fanout = substrate.graph().max_out_degree() as u32;
        let w = Workload::new(
            substrate.clone(),
            TrafficPattern::Tornado,
            ArrivalProcess::bernoulli(rate_pct as f64 / 100.0),
            l,
            seed,
        );
        let specs = w.generate(100);
        let cfg = SimConfig::new(1)
            .vc_policy(VcPolicy::pooled(fanout + extra, 1, fanout + extra))
            .arbitration(arbitration(seed as u32))
            .seed(seed)
            .max_steps(2_000)
            .check_invariants(true);
        for engine in ENGINES {
            let cfg = cfg.clone().engine(engine);
            let slice = wormhole::run(substrate.graph(), &specs, &cfg);
            let mut src = ReplaySource::new(specs.clone());
            let replay = wormhole::run_source(substrate.graph(), &mut src, &cfg);
            prop_assert!(
                slice.same_execution(&replay),
                "{engine:?} ({discipline:?}): replay diverged:\n slice: {slice:?}\nreplay: {replay:?}"
            );
        }
    }

    /// Adaptive route selection reads VC occupancy at admission-visible
    /// times, so the source path must also be invisible under
    /// `simulate` with a router beside the source (escape tori, both
    /// selection modes).
    #[test]
    fn replay_source_is_bit_identical_on_adaptive_tori(
        radix in 3u32..7,
        dims in 1u32..3,
        b in 1u32..3,
        l in 1u32..6,
        rate_pct in 5u32..35,
        fully in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
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
        let cfg = SimConfig::new(b)
            .arbitration(arbitration(seed as u32))
            .seed(seed)
            .route_selection(sel)
            .max_steps(2_000)
            .check_invariants(true);
        for engine in ENGINES {
            let cfg = cfg.clone().engine(engine);
            let slice = wormhole::run_adaptive(mesh, &specs, &cfg);
            let mut src = ReplaySource::new(specs.clone());
            let replay = wormhole::simulate(mesh.graph(), Some(mesh), Traffic::Source(&mut src), &cfg)
                .unwrap();
            prop_assert!(
                slice.same_execution(&replay),
                "{engine:?} ({sel:?}): adaptive replay diverged:\n slice: {slice:?}\nreplay: {replay:?}"
            );
        }
    }

    /// Timed link kills must be invisible to the source refactor too:
    /// the kill phase, severed-worm discards, and the
    /// `TrafficSource::on_discarded` notification path all run inside
    /// the engine, so `run(specs)` ≡ `run_source(ReplaySource)` holds
    /// bit for bit on faulted butterflies — fault counters included.
    #[test]
    fn replay_source_is_bit_identical_on_faulted_butterflies(
        k in 2u32..6,
        rate_pct in 5u32..60,
        l in 1u32..8,
        b in 1u32..4,
        arb in 0u32..4,
        kills in 1usize..4,
        kill_at in 1u64..60,
        cap_small in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        use wormhole_topology::fault::FaultPlan;
        let substrate = Substrate::butterfly(k);
        let w = Workload::new(
            substrate.clone(),
            TrafficPattern::UniformRandom,
            ArrivalProcess::bernoulli(rate_pct as f64 / 100.0),
            l,
            seed,
        );
        let specs = w.generate(120);
        if specs.is_empty() {
            return Ok(());
        }
        let mut plan = FaultPlan::new();
        let mut seen = Vec::new();
        for i in 0..kills {
            let s = &specs[(i * 11 + seed as usize) % specs.len()];
            let e = s.path.edges()[s.path.edges().len() / 2];
            if !seen.contains(&e) {
                seen.push(e);
                plan = plan.kill_link(kill_at + i as u64, e);
            }
        }
        let mut cfg = SimConfig::new(b)
            .arbitration(arbitration(arb))
            .seed(seed ^ 0x50c)
            .faults(plan)
            .check_invariants(true);
        if cap_small {
            cfg = cfg.max_steps(kill_at + 5);
        }
        for engine in ENGINES {
            let cfg = cfg.clone().engine(engine);
            let slice = wormhole::run(substrate.graph(), &specs, &cfg);
            let mut src = ReplaySource::new(specs.clone());
            let replay = wormhole::run_source(substrate.graph(), &mut src, &cfg);
            prop_assert!(
                slice.same_execution(&replay),
                "{engine:?}: faulted replay diverged:\n slice: {slice:?}\nreplay: {replay:?}"
            );
            // Fault discards surface identically through both paths.
            prop_assert_eq!(slice.fault_discards, replay.fault_discards);
            prop_assert_eq!(slice.kills_applied, replay.kills_applied);
        }
    }
}

/// Both paths of one spec list on every engine, compared field for
/// field; returns the slice path's result under the first.
fn assert_replay_matches(
    g: &wormhole_topology::graph::Graph,
    specs: &[MessageSpec],
    cfg: &SimConfig,
) -> SimResult {
    let mut first = None;
    for engine in ENGINES {
        let cfg = cfg.clone().engine(engine);
        let slice = wormhole::run(g, specs, &cfg);
        let mut src = ReplaySource::new(specs.to_vec());
        let replay = wormhole::run_source(g, &mut src, &cfg);
        assert!(
            slice.same_execution(&replay),
            "{engine:?}: replay diverged:\n slice: {slice:?}\nreplay: {replay:?}"
        );
        assert_eq!(slice.messages.len(), specs.len(), "{engine:?}");
        assert_eq!(replay.messages.len(), specs.len(), "padded to id_bound");
        let first = first.get_or_insert(slice.clone());
        assert!(slice.same_execution(first), "{engine:?} against the first");
    }
    first.expect("at least one engine")
}

/// A release far past a tight step cap: the source is never polled dry,
/// the sim aborts at the cap, and the padded outcome table still matches
/// the slice path (which knew about every spec up front) — also when
/// several of the slice's last releases lie beyond the cap.
#[test]
fn capped_run_pads_unreleased_ids_like_the_slice_path() {
    let (g, ps) = shared_chain_instance(3, 5);
    let mut specs = specs_from_paths(&ps, 4);
    for release in [10_000, 60, 50] {
        specs.push(specs[0].clone().release_at(release));
    }
    let cfg = SimConfig::new(1).max_steps(50).check_invariants(true);
    let r = assert_replay_matches(&g, &specs, &cfg);
    assert_eq!(r.outcome, Outcome::MaxSteps);
    assert_eq!(r.delivered(), 3);
    assert!(r.messages[3..].iter().all(|m| m.finished.is_none()));
}

/// The slice is walked in `(release, id)` order, not in slice order:
/// under `FifoById` on one VC the three worms released together at step
/// 2 go by id, behind the one released at 0 that sits last in the slice.
#[test]
fn an_unsorted_slice_with_release_ties_is_admitted_in_release_id_order() {
    let (g, ps) = shared_chain_instance(5, 4);
    let mut specs = specs_from_paths(&ps, 3);
    for (spec, release) in specs.iter_mut().zip([2, 30, 2, 2, 0]) {
        spec.release = release;
    }
    let cfg = SimConfig::new(1)
        .arbitration(Arbitration::FifoById)
        .check_invariants(true);
    let r = assert_replay_matches(&g, &specs, &cfg);
    assert_eq!(r.outcome, Outcome::Completed);
    let finished = |i: usize| r.messages[i].finished.expect("completed");
    let by_finish = [4, 0, 2, 3, 1];
    assert!(
        by_finish
            .windows(2)
            .all(|w| finished(w[0]) < finished(w[1])),
        "{:?}",
        r.messages
    );
}

#[test]
fn an_empty_slice_completes_at_step_zero_on_both_paths() {
    let (g, _) = shared_chain_instance(1, 3);
    let r = assert_replay_matches(&g, &[], &SimConfig::new(1).check_invariants(true));
    assert_eq!((r.outcome, r.total_steps), (Outcome::Completed, 0));
    assert!(r.messages.is_empty());
}

/// Replays a batch like [`ReplaySource`] but reports itself reactive, so
/// that every event-style driver ends each window after one step.
struct OneStepWindows(ReplaySource);

impl TrafficSource for OneStepWindows {
    fn next_release(&mut self, now: u64) -> Option<u64> {
        self.0.next_release(now)
    }
    fn take_ready(&mut self, now: u64, out: &mut Vec<(u32, MessageSpec)>) {
        self.0.take_ready(now, out)
    }
    fn reactive(&self) -> bool {
        true
    }
    fn id_bound(&self) -> Option<u32> {
        self.0.id_bound()
    }
}

/// The event driver's counters: steps executed, worms stepped, drains,
/// parks, contests, waiters entered / won, pending heads entered.
fn driver_counts(s: &EngineStats) -> [u64; 8] {
    [
        s.steps_executed,
        s.worms_stepped,
        s.drains,
        s.parks,
        s.contests,
        s.waiters_entered,
        s.waiters_won,
        s.pending_entered,
    ]
}

/// Where a window ends is the driver's business alone: one batch run as
/// a lent slice — windows as long as the gaps between releases — and
/// replayed through a source that pins every window to one step gives
/// the same result and the same driver counters, on the event engine and
/// on one parallel worker. Light traffic leaves drain-only tails between
/// releases, a cap lands mid-drain, a naive pooled torus deadlocks, and
/// adaptive heads park on their watch sets.
#[test]
fn the_driver_counters_do_not_depend_on_window_length() {
    let butterfly = Substrate::butterfly(4);
    let naive = Substrate::torus_with(5, 2, RoutingDiscipline::Naive);
    let escape = Substrate::torus_with(5, 2, RoutingDiscipline::AdaptiveEscape);
    let mesh = escape.as_mesh().expect("torus is mesh-based");
    let batch = |sub: &Substrate, pattern, rate, l| {
        let arrivals = ArrivalProcess::bernoulli(rate);
        Workload::new(sub.clone(), pattern, arrivals, l, 7).generate(200)
    };
    let cases = [
        (
            &butterfly,
            None,
            batch(&butterfly, TrafficPattern::UniformRandom, 0.04, 8),
            SimConfig::new(2),
        ),
        (
            &butterfly,
            None,
            batch(&butterfly, TrafficPattern::UniformRandom, 0.4, 6),
            SimConfig::new(1).max_steps(150),
        ),
        (
            &naive,
            None,
            batch(&naive, TrafficPattern::Tornado, 0.3, 6),
            SimConfig::new(1).vc_policy(VcPolicy::pooled(4, 1, 4)),
        ),
        (
            &escape,
            Some(mesh),
            batch(&escape, TrafficPattern::UniformRandom, 0.2, 4),
            SimConfig::new(1).route_selection(RouteSelection::MinimalAdaptive),
        ),
    ];
    let mut longer_windows = 0;
    for (case, (sub, router, specs, cfg)) in cases.iter().enumerate() {
        let router = router.map(|m| m as &dyn AdaptiveRouter);
        for engine in [Engine::EventDriven, Engine::Parallel { threads: 1 }] {
            let cfg = cfg.clone().check_invariants(true).engine(engine);
            let run = |traffic| wormhole::simulate(sub.graph(), router, traffic, &cfg).unwrap();
            let long = run(Traffic::Specs(specs));
            let mut src = OneStepWindows(ReplaySource::new(specs.clone()));
            let short = run(Traffic::Source(&mut src));
            assert!(
                long.same_execution(&short),
                "case {case}, {engine:?}: the window layout moved the result"
            );
            let (long, short) = (long.engine_stats.unwrap(), short.engine_stats.unwrap());
            // Only the partitioned coordinator counts its windows: there,
            // every window on the one-step side is one step.
            if let Engine::Parallel { .. } = engine {
                assert!(short.windows > 0, "case {case}");
                assert_eq!(short.windows, short.one_step_windows, "case {case}");
                longer_windows += long.windows - long.one_step_windows;
            }
            assert_eq!(
                driver_counts(&long),
                driver_counts(&short),
                "case {case}, {engine:?}: the window layout moved the counters"
            );
        }
    }
    // The lent slices did run windows longer than one step.
    assert!(longer_windows > 0);
}
