//! Differential test matrix for the three wormhole simulator engines.
//!
//! The event-driven engine (wait-queue wakeups, the drain wheel,
//! arithmetic stall accounting) and the partitioned
//! parallel engine (per-region workers under conservative lookahead
//! windows) must produce **bit-identical** [`SimResult`]s to the legacy
//! per-step rescanning stepper — outcome, finish times, first moves,
//! stalls, `flit_hops`, `max_vcs_in_use`, and deadlock reports included
//! — on randomized workloads spanning shared chains, open-loop
//! butterfly traffic, torus tornado batches (where the naive arm
//! deadlocks and the dateline arm completes), and adaptive route
//! selection on three-class escape tori (where route choice itself
//! depends on VC occupancy).
//!
//! Every engine comparison is three-way: adaptive routing, pooled VCs
//! and fault plans all run on the parallel engine itself — a fault kill
//! is a window boundary its regions reach together.

use proptest::prelude::*;

use wormhole_flitsim::config::{Arbitration, Engine, SimConfig, VcPolicy};
use wormhole_flitsim::message::specs_from_paths;
use wormhole_flitsim::stats::{Outcome, SimResult};
use wormhole_flitsim::wormhole;
use wormhole_flitsim::MessageSpec;
use wormhole_topology::graph::Graph;
use wormhole_topology::random_nets::{shared_chain_instance, LeveledNet};
use wormhole_topology::region::RegionPlan;
use wormhole_workloads::{ArrivalProcess, RoutingDiscipline, Substrate, TrafficPattern, Workload};

fn arbitration(i: u32) -> Arbitration {
    match i % 4 {
        0 => Arbitration::FifoById,
        1 => Arbitration::OldestFirst,
        2 => Arbitration::PriorityRank,
        _ => Arbitration::Random,
    }
}

fn vcs(i: u32) -> u32 {
    [1u32, 2, 4][i as usize % 3]
}

/// A valid [`VcPolicy::RouterPooled`] for a graph of maximum fanout
/// `max_fanout`: floor from `min_idx`, pool = floors + `extra` shared
/// credits, cap between the floor and the whole pool.
fn pooled_policy(max_fanout: u32, min_idx: u32, extra: u32, cap_idx: u32) -> VcPolicy {
    let per_edge_min = 1 + min_idx % 2;
    let pool = per_edge_min * max_fanout + extra;
    let per_edge_max = match cap_idx % 3 {
        0 => per_edge_min,
        1 => (per_edge_min + 1 + extra / 2).min(pool),
        _ => pool,
    };
    VcPolicy::pooled(pool, per_edge_min, per_edge_max)
}

/// The degenerate pooling every static config is equivalent to:
/// `pool = B · fanout, per_edge_min = per_edge_max = B` (floors exhaust
/// the pool; the shared portion is empty).
fn degenerate_pooled(b: u32, max_fanout: u32) -> VcPolicy {
    VcPolicy::pooled(b * max_fanout.max(1), b, b)
}

/// Runs `run` on all three engines and checks the full matrix:
/// EventDriven ≡ Legacy ≡ Parallel, field for field. The parallel arm is
/// asserted here, at 1 worker — one region, the whole graph, whatever the
/// plan — and at 2 (the 1/2/8-worker
/// sweep lives in `parallel_determinism.rs`); the event and legacy
/// results go back to the caller, which compares them with its own
/// context in the message.
fn run_all_with(
    run: impl Fn(&SimConfig) -> SimResult,
    config: &SimConfig,
) -> (SimResult, SimResult) {
    let ev = run(&config.clone().engine(Engine::EventDriven));
    let lg = run(&config.clone().engine(Engine::Legacy));
    for threads in [1, 2] {
        let par = run(&config.clone().engine(Engine::Parallel { threads }));
        assert!(
            par.same_execution(&lg),
            "parallel({threads} workers) diverged from legacy:\nparallel: {par:?}\n  legacy: {lg:?}"
        );
    }
    (ev, lg)
}

/// [`run_all_with`] over a fixed-route spec slice.
fn run_all(graph: &Graph, specs: &[MessageSpec], config: &SimConfig) -> (SimResult, SimResult) {
    run_all_with(|cfg| wormhole::run(graph, specs, cfg), config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Shared chains with mixed lengths, staggered releases, priorities,
    /// every arbitration policy, and occasional tight step caps (partial
    /// state at a MaxSteps abort must match too).
    #[test]
    fn engines_agree_on_shared_chains(
        c in 1u32..8,
        d in 1u32..12,
        l in 1u32..10,
        b_idx in 0u32..3,
        arb in 0u32..4,
        stagger in 0u64..6,
        cap_small in proptest::bool::ANY,
        regions in 1u32..6,
        seed in 0u64..1000,
    ) {
        let (g, ps) = shared_chain_instance(c, d);
        let specs: Vec<MessageSpec> = specs_from_paths(&ps, 1)
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let i = i as u64;
                s.release_at((i * stagger) % 17)
                    .with_priority(((seed + i) % 5) as u32)
            })
            .map(|s| MessageSpec { length: l + (s.priority % 3), ..s })
            .collect();
        let mut cfg = SimConfig::new(vcs(b_idx))
            .arbitration(arbitration(arb))
            .seed(seed)
            .regions(RegionPlan::contiguous(&g, regions))
            .check_invariants(true);
        if cap_small {
            cfg = cfg.max_steps((d + l) as u64);
        }
        let (ev, lg) = run_all(&g, &specs, &cfg);
        prop_assert!(
            ev.same_execution(&lg),
            "chains diverged:\n event: {:?}\nlegacy: {:?}", ev, lg
        );
    }

    /// Open-loop style timed butterfly traffic across patterns, rates,
    /// and VC counts — the production workload shape of the x2 sweep.
    #[test]
    fn engines_agree_on_butterfly_workloads(
        k in 2u32..6,
        rate_pct in 1u32..60,
        l in 1u32..8,
        b_idx in 0u32..3,
        arb in 0u32..4,
        pattern in 0u32..3,
        seed in 0u64..1000,
    ) {
        let substrate = Substrate::butterfly(k);
        let pattern = match pattern {
            0 => TrafficPattern::UniformRandom,
            1 => TrafficPattern::Permutation,
            _ => TrafficPattern::BitReversal,
        };
        let w = Workload::new(
            substrate.clone(),
            pattern,
            ArrivalProcess::bernoulli(rate_pct as f64 / 100.0),
            l,
            seed,
        );
        let specs = w.generate(120);
        let cfg = SimConfig::new(vcs(b_idx))
            .arbitration(arbitration(arb))
            .seed(seed ^ 0xabc)
            .max_steps(400)
            .check_invariants(true);
        let (ev, lg) = run_all(substrate.graph(), &specs, &cfg);
        prop_assert!(
            ev.same_execution(&lg),
            "butterfly diverged:\n event: {:?}\nlegacy: {:?}", ev, lg
        );
    }

    /// Torus tornado traffic on both routing arms: the naive arm wedges
    /// into deadlock at B=1 (identical blocked sets, wait-for relations,
    /// and cycles required), the dateline arm keeps accepting.
    #[test]
    fn engines_agree_on_torus_tornado(
        radix in 4u32..8,
        dims in 1u32..3,
        b_idx in 0u32..3,
        l in 2u32..8,
        rate_pct in 5u32..40,
        naive in proptest::bool::ANY,
        regions in 1u32..9,
        seed in 0u64..1000,
    ) {
        let discipline = if naive {
            RoutingDiscipline::Naive
        } else {
            RoutingDiscipline::DatelineClasses
        };
        let substrate = Substrate::torus_with(radix, dims, discipline);
        let w = Workload::new(
            substrate.clone(),
            TrafficPattern::Tornado,
            ArrivalProcess::bernoulli(rate_pct as f64 / 100.0),
            l,
            seed,
        );
        let specs = w.generate(100);
        let cfg = SimConfig::new(vcs(b_idx))
            .arbitration(arbitration(seed as u32))
            .seed(seed)
            .regions(RegionPlan::contiguous(substrate.graph(), regions))
            .max_steps(2_000)
            .check_invariants(true);
        let (ev, lg) = run_all(substrate.graph(), &specs, &cfg);
        prop_assert!(
            ev.same_execution(&lg),
            "torus diverged ({discipline:?}):\n event: {:?}\nlegacy: {:?}", ev, lg
        );
        if let Outcome::Deadlock(_) = ev.outcome {
            prop_assert!(ev.deadlock.is_some());
        }
    }

    /// Adaptive route selection on three-class tori: route choice reads
    /// VC occupancy, so this is where the start-of-step conventions are
    /// load-bearing — wanted-hop selections, escape fallbacks, misroute
    /// budgets, and the escape/misroute counters must all land
    /// identically under the event engine (which parks a pending worm
    /// once its whole candidate set is full) and the legacy rescanner,
    /// including at tight step caps.
    #[test]
    fn engines_agree_on_adaptive_tori(
        radix in 3u32..8,
        dims in 1u32..3,
        b_idx in 0u32..3,
        l in 1u32..8,
        rate_pct in 5u32..40,
        fully in proptest::bool::ANY,
        cap_small in proptest::bool::ANY,
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
        let specs = w.generate(100);
        let sel = if fully {
            RouteSelection::FullyAdaptive
        } else {
            RouteSelection::MinimalAdaptive
        };
        let mut cfg = SimConfig::new(vcs(b_idx))
            .arbitration(arbitration(arb))
            .seed(seed)
            .route_selection(sel)
            .max_steps(2_000)
            .check_invariants(true);
        if cap_small {
            cfg = cfg.max_steps((l + radix) as u64);
        }
        let (ev, lg) = run_all_with(|cfg| wormhole::run_adaptive(mesh, &specs, cfg), &cfg);
        prop_assert!(
            ev.same_execution(&lg),
            "adaptive ({sel:?}) diverged:\n event: {:?}\nlegacy: {:?}", ev, lg
        );
        // Adaptive-escape runs can stall but never wedge.
        prop_assert!(!matches!(ev.outcome, Outcome::Deadlock(_)));
    }

    /// The same tori far past saturation, tornado and uniform, static
    /// and pooled VCs, ending at the step cap: nearly every pending
    /// header finds its whole candidate set and its escape hop full, so
    /// the event engine and the parallel regions park it on the whole
    /// watch set and settle its stalls arithmetically — which must
    /// reproduce the legacy stepper's per-step re-selection bit for bit.
    /// Every case is saturated by construction: a batch the legacy run
    /// does not saturate moves on to the next seed, and a case that finds
    /// none in `SEED_TRIES` fails. What no seed can saturate is not drawn:
    /// two or more shared credits a router, or a load under 85 %, let a
    /// ring of four carry every batch at under five stalls a flit-hop.
    #[test]
    fn engines_agree_on_saturated_adaptive_tori(
        radix in 4u32..7,
        dims in 1u32..3,
        pooled in proptest::bool::ANY,
        extra in 0u32..2,
        cap_idx in 0u32..3,
        l in 8u32..13,
        rate_pct in 85u32..100,
        tornado in proptest::bool::ANY,
        fully in proptest::bool::ANY,
        arb in 0u32..4,
        seed in 0u64..1000,
    ) {
        use wormhole_flitsim::config::RouteSelection;
        const SEED_TRIES: u64 = 16;
        let substrate = Substrate::torus_with(radix, dims, RoutingDiscipline::AdaptiveEscape);
        let mesh = substrate.as_mesh().expect("torus is mesh-based");
        let pattern = if tornado {
            TrafficPattern::Tornado
        } else {
            TrafficPattern::UniformRandom
        };
        let sel = if fully {
            RouteSelection::FullyAdaptive
        } else {
            RouteSelection::MinimalAdaptive
        };
        let saturated = (seed..seed + SEED_TRIES).find_map(|seed| {
            let w = Workload::new(
                substrate.clone(),
                pattern.clone(),
                ArrivalProcess::bernoulli(rate_pct as f64 / 100.0),
                l,
                seed,
            );
            let specs = w.generate(160);
            // One VC per lane (a floor of one under pooling): the adaptive
            // lane saturates within a few dozen steps at these loads.
            let mut cfg = SimConfig::new(1)
                .arbitration(arbitration(arb))
                .seed(seed)
                .route_selection(sel)
                .max_steps(160)
                .check_invariants(true);
            if pooled {
                cfg = cfg.vc_policy(pooled_policy(
                    substrate.graph().max_out_degree() as u32,
                    0,
                    extra,
                    cap_idx,
                ));
            }
            let lg = wormhole::run_adaptive(mesh, &specs, &cfg.clone().engine(Engine::Legacy));
            let saturated = lg.outcome == Outcome::MaxSteps && lg.total_stalls > 5 * lg.flit_hops;
            saturated.then_some((specs, cfg, lg))
        });
        prop_assert!(
            saturated.is_some(),
            "no seed in {seed}..{} saturates", seed + SEED_TRIES
        );
        let (specs, cfg, lg) = saturated.expect("checked");
        for engine in [Engine::EventDriven, Engine::Parallel { threads: 2 }] {
            let r = wormhole::run_adaptive(mesh, &specs, &cfg.clone().engine(engine));
            prop_assert!(
                r.same_execution(&lg),
                "saturated adaptive ({sel:?}, tornado={tornado}, pooled={pooled}) diverged:\n{engine:?}: {:?}\nlegacy: {:?}",
                r, lg
            );
        }
    }

    /// Router-pooled VC allocation on shared chains: the router-keyed
    /// park/wake path and the ascending-edge-id shared-credit grants
    /// must reproduce the legacy stepper bit for bit, including at
    /// tight step caps.
    #[test]
    fn engines_agree_on_pooled_chains(
        c in 1u32..8,
        d in 1u32..12,
        l in 1u32..10,
        min_idx in 0u32..2,
        extra in 0u32..4,
        cap_idx in 0u32..3,
        arb in 0u32..4,
        stagger in 0u64..6,
        cap_small in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let (g, ps) = shared_chain_instance(c, d);
        let policy = pooled_policy(g.max_out_degree() as u32, min_idx, extra, cap_idx);
        let specs: Vec<MessageSpec> = specs_from_paths(&ps, l)
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.release_at((i as u64 * stagger) % 13))
            .collect();
        let mut cfg = SimConfig::new(1)
            .vc_policy(policy)
            .arbitration(arbitration(arb))
            .seed(seed)
            .check_invariants(true);
        if cap_small {
            cfg = cfg.max_steps((d + l) as u64);
        }
        let (ev, lg) = run_all(&g, &specs, &cfg);
        prop_assert!(
            ev.same_execution(&lg),
            "pooled chains ({policy:?}) diverged:\n event: {:?}\nlegacy: {:?}", ev, lg
        );
    }

    /// Pooled torus tornado traffic on both routing arms: the naive arm
    /// can still wedge (identical deadlock reports required), and the
    /// dateline arm's floors keep it deadlock-free under pooling.
    #[test]
    fn engines_agree_on_pooled_torus_tornado(
        radix in 4u32..8,
        dims in 1u32..3,
        min_idx in 0u32..2,
        extra in 0u32..5,
        cap_idx in 0u32..3,
        l in 2u32..8,
        rate_pct in 5u32..40,
        naive in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let discipline = if naive {
            RoutingDiscipline::Naive
        } else {
            RoutingDiscipline::DatelineClasses
        };
        let substrate = Substrate::torus_with(radix, dims, discipline);
        let policy = pooled_policy(
            substrate.graph().max_out_degree() as u32,
            min_idx,
            extra,
            cap_idx,
        );
        let w = Workload::new(
            substrate.clone(),
            TrafficPattern::Tornado,
            ArrivalProcess::bernoulli(rate_pct as f64 / 100.0),
            l,
            seed,
        );
        let specs = w.generate(100);
        let cfg = SimConfig::new(1)
            .vc_policy(policy)
            .arbitration(arbitration(seed as u32))
            .seed(seed)
            .max_steps(2_000)
            .check_invariants(true);
        let (ev, lg) = run_all(substrate.graph(), &specs, &cfg);
        prop_assert!(
            ev.same_execution(&lg),
            "pooled torus diverged ({discipline:?}, {policy:?}):\n event: {:?}\nlegacy: {:?}",
            ev, lg
        );
        if let Outcome::Deadlock(_) = ev.outcome {
            prop_assert!(ev.deadlock.is_some());
        }
        if !naive {
            prop_assert!(
                !matches!(ev.outcome, Outcome::Deadlock(_)),
                "dateline arm must stay deadlock-free under pooling: {:?}", ev.outcome
            );
        }
    }

    /// Pooled adaptive tori: route selection reads the pooled
    /// acquirability query, so candidate filtering, escape fallbacks,
    /// and pending-worm parking — every candidate shares the head
    /// router's wait key here — must all stay engine-exact.
    #[test]
    fn engines_agree_on_pooled_adaptive_tori(
        radix in 3u32..7,
        dims in 1u32..3,
        min_idx in 0u32..2,
        extra in 0u32..4,
        cap_idx in 0u32..3,
        l in 1u32..8,
        rate_pct in 5u32..40,
        fully in proptest::bool::ANY,
        arb in 0u32..4,
        seed in 0u64..1000,
    ) {
        use wormhole_flitsim::config::RouteSelection;
        let substrate = Substrate::torus_with(radix, dims, RoutingDiscipline::AdaptiveEscape);
        let mesh = substrate.as_mesh().expect("torus is mesh-based");
        let policy = pooled_policy(
            substrate.graph().max_out_degree() as u32,
            min_idx,
            extra,
            cap_idx,
        );
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
        let cfg = SimConfig::new(1)
            .vc_policy(policy)
            .arbitration(arbitration(arb))
            .seed(seed)
            .route_selection(sel)
            .max_steps(2_000)
            .check_invariants(true);
        let (ev, lg) = run_all_with(|cfg| wormhole::run_adaptive(mesh, &specs, cfg), &cfg);
        prop_assert!(
            ev.same_execution(&lg),
            "pooled adaptive ({sel:?}, {policy:?}) diverged:\n event: {:?}\nlegacy: {:?}",
            ev, lg
        );
        // Escape floors ≥ 1 keep pooled adaptive runs wedge-free.
        prop_assert!(!matches!(ev.outcome, Outcome::Deadlock(_)));
    }

    /// Policy equivalence: `Static(B)` ≡ the degenerate
    /// `RouterPooled { pool: B·fanout, per_edge_min: B, per_edge_max: B }`,
    /// field for field, on both engines (chains and torus workloads).
    #[test]
    fn static_is_the_degenerate_pooled_policy(
        c in 1u32..7,
        d in 1u32..10,
        l in 1u32..8,
        b_idx in 0u32..3,
        arb in 0u32..4,
        torus in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let b = vcs(b_idx);
        let (g, specs) = if torus {
            let substrate = Substrate::torus_with(4 + c % 4, 1 + d % 2, RoutingDiscipline::DatelineClasses);
            let w = Workload::new(
                substrate.clone(),
                TrafficPattern::Tornado,
                ArrivalProcess::bernoulli(0.2),
                l,
                seed,
            );
            (substrate.graph().clone(), w.generate(60))
        } else {
            let (g, ps) = shared_chain_instance(c, d);
            (g, specs_from_paths(&ps, l))
        };
        let base = SimConfig::new(b)
            .arbitration(arbitration(arb))
            .seed(seed)
            .max_steps(3_000)
            .check_invariants(true);
        let degen = base
            .clone()
            .vc_policy(degenerate_pooled(b, g.max_out_degree() as u32));
        for engine in [Engine::EventDriven, Engine::Legacy] {
            let stat = wormhole::run(&g, &specs, &base.clone().engine(engine));
            let pooled = wormhole::run(&g, &specs, &degen.clone().engine(engine));
            prop_assert!(
                stat.same_execution(&pooled),
                "{engine:?}: Static({b}) != degenerate pooled:\nstatic: {:?}\npooled: {:?}",
                stat, pooled
            );
        }
    }

    /// Random leveled-net walks (the workload family the rest of the test
    /// suite leans on) under every arbitration policy.
    #[test]
    fn engines_agree_on_leveled_nets(
        seed in 0u64..1000,
        b_idx in 0u32..3,
        l in 1u32..10,
        msgs in 1usize..30,
        arb in 0u32..4,
    ) {
        let net = LeveledNet::random(6, 4, 2, seed);
        let ps = net.random_walk_paths(msgs, seed + 1);
        let specs = specs_from_paths(&ps, l);
        let cfg = SimConfig::new(vcs(b_idx))
            .arbitration(arbitration(arb))
            .seed(seed)
            .check_invariants(true);
        let (ev, lg) = run_all(net.graph(), &specs, &cfg);
        prop_assert!(
            ev.same_execution(&lg),
            "leveled diverged:\n event: {:?}\nlegacy: {:?}", ev, lg
        );
    }

    /// Timed link kills on open-loop butterfly traffic: the kill phase
    /// runs at the start of the step in every engine, so severed worms,
    /// dead-on-arrival admissions, and every fault counter
    /// (`kills_applied`, `fault_discards`, `fault_recovery_steps`) must
    /// land bit-identically — including when a tight step cap lands
    /// mid-recovery.
    #[test]
    fn engines_agree_on_faulted_butterfly_workloads(
        k in 2u32..6,
        rate_pct in 5u32..60,
        l in 1u32..8,
        b_idx in 0u32..3,
        arb in 0u32..4,
        kills in 1usize..5,
        kill_at in 1u64..80,
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
        // Kill middle edges of a few in-use routes, deduplicated because
        // FaultPlan::validate rejects double kills of the same edge.
        let mut plan = FaultPlan::new();
        let mut seen = Vec::new();
        for i in 0..kills {
            let s = &specs[(i * 7 + seed as usize) % specs.len()];
            let e = s.path.edges()[s.path.edges().len() / 2];
            if !seen.contains(&e) {
                seen.push(e);
                plan = plan.kill_link(kill_at + i as u64, e);
            }
        }
        let mut cfg = SimConfig::new(vcs(b_idx))
            .arbitration(arbitration(arb))
            .seed(seed ^ 0xfa)
            .max_steps(400)
            .faults(plan)
            .check_invariants(true);
        if cap_small {
            cfg = cfg.max_steps(kill_at + 3);
        }
        let (ev, lg) = run_all(substrate.graph(), &specs, &cfg);
        prop_assert!(
            ev.same_execution(&lg),
            "faulted butterfly diverged:\n event: {:?}\nlegacy: {:?}", ev, lg
        );
        // A discarded worm frees everything it held; nothing may both
        // finish and be discarded.
        prop_assert_eq!(
            ev.delivered() + ev.discarded() + ev.in_flight(),
            ev.messages.len()
        );
    }

    /// Random Bernoulli channel kills on dateline tori, static and
    /// pooled VC arms: kills release pooled credits back to the router,
    /// so the shared-credit grant order after a kill is engine-exact,
    /// and the surviving dateline traffic stays deadlock-free.
    #[test]
    fn engines_agree_on_faulted_torus_tornado(
        radix in 4u32..8,
        dims in 1u32..3,
        min_idx in 0u32..2,
        extra in 0u32..4,
        cap_idx in 0u32..3,
        l in 2u32..8,
        rate_pct in 5u32..40,
        fault_pct in 1u32..25,
        pooled in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        use wormhole_topology::fault::FaultPlan;
        let substrate = Substrate::torus_with(radix, dims, RoutingDiscipline::DatelineClasses);
        let mesh = substrate.as_mesh().expect("torus is mesh-based");
        let w = Workload::new(
            substrate.clone(),
            TrafficPattern::Tornado,
            ArrivalProcess::bernoulli(rate_pct as f64 / 100.0),
            l,
            seed,
        );
        let specs = w.generate(100);
        let plan = FaultPlan::bernoulli_channels(mesh, fault_pct as f64 / 100.0, 80, seed ^ 0xdead);
        let mut cfg = SimConfig::new(2)
            .arbitration(arbitration(seed as u32))
            .seed(seed)
            .max_steps(2_000)
            .faults(plan)
            .check_invariants(true);
        if pooled {
            cfg = cfg.vc_policy(pooled_policy(
                substrate.graph().max_out_degree() as u32,
                min_idx,
                extra,
                cap_idx,
            ));
        }
        let (ev, lg) = run_all(substrate.graph(), &specs, &cfg);
        prop_assert!(
            ev.same_execution(&lg),
            "faulted torus diverged (pooled={pooled}):\n event: {:?}\nlegacy: {:?}", ev, lg
        );
        // Kills only remove wait-for dependencies; the dateline argument
        // still covers every survivor.
        prop_assert!(
            !matches!(ev.outcome, Outcome::Deadlock(_)),
            "faulted dateline torus wedged: {:?}", ev.outcome
        );
    }

    /// Fault-aware adaptive routing on escape tori: `FaultedMesh`
    /// filters candidates and detours escape routes around dead edges,
    /// and parked pending worms wait through a kill — all of it
    /// engine-exact and wedge-free.
    #[test]
    fn engines_agree_on_faulted_adaptive_tori(
        radix in 3u32..7,
        dims in 1u32..3,
        b_idx in 0u32..3,
        l in 1u32..8,
        rate_pct in 5u32..40,
        fault_pct in 1u32..25,
        fully in proptest::bool::ANY,
        arb in 0u32..4,
        seed in 0u64..1000,
    ) {
        use wormhole_flitsim::config::RouteSelection;
        use wormhole_topology::fault::{FaultPlan, FaultedMesh};
        let substrate = Substrate::torus_with(radix, dims, RoutingDiscipline::AdaptiveEscape);
        let mesh = substrate.as_mesh().expect("torus is mesh-based");
        let w = Workload::new(
            substrate.clone(),
            TrafficPattern::UniformRandom,
            ArrivalProcess::bernoulli(rate_pct as f64 / 100.0),
            l,
            seed,
        );
        let specs = w.generate(100);
        let plan = FaultPlan::bernoulli_channels(mesh, fault_pct as f64 / 100.0, 80, seed ^ 0xfa17);
        let fm = FaultedMesh::new(mesh, &plan).expect("generator emits valid plans");
        let sel = if fully {
            RouteSelection::FullyAdaptive
        } else {
            RouteSelection::MinimalAdaptive
        };
        let cfg = SimConfig::new(vcs(b_idx))
            .arbitration(arbitration(arb))
            .seed(seed)
            .route_selection(sel)
            .max_steps(2_000)
            .faults(plan)
            .check_invariants(true);
        let (ev, lg) = run_all_with(|cfg| wormhole::run_adaptive(&fm, &specs, cfg), &cfg);
        prop_assert!(
            ev.same_execution(&lg),
            "faulted adaptive ({sel:?}) diverged:\n event: {:?}\nlegacy: {:?}", ev, lg
        );
        // The faulted escape subnetwork is still acyclic, so adaptive
        // traffic on the broken torus must never wedge.
        prop_assert!(
            !matches!(ev.outcome, Outcome::Deadlock(_)),
            "faulted adaptive torus wedged: {:?}", ev.outcome
        );
    }
}
