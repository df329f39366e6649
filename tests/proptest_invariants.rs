//! Property-based tests (proptest) over the core invariants of the
//! reproduction: simulator conservation laws, coloring guarantees, the
//! lower-bound construction's combinatorics, and butterfly routing.

use proptest::prelude::*;

use wormhole_core::firstfit::{compact_coloring, first_fit, FirstFitOrder};
use wormhole_core::refine::refine;
use wormhole_core::Coloring;
use wormhole_routing::flitsim::restricted;
use wormhole_routing::prelude::*;
use wormhole_topology::channel_dependency_graph;
use wormhole_topology::lowerbound;
use wormhole_topology::random_nets::{staggered_instance, LeveledNet};
use wormhole_topology::subsets::{binomial, enumerate_subsets, subset_rank};

use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A lone worm on any chain takes exactly d + L − 1 flit steps under
    /// any VC count, at full bandwidth and in the restricted baseline.
    #[test]
    fn lone_worm_time_is_exact(
        d in 1u32..40,
        l in 1u32..40,
        b in 1u32..5,
        restricted in proptest::bool::ANY,
    ) {
        let (g, ps) = wormhole_topology::random_nets::shared_chain_instance(1, d);
        let specs = specs_from_paths(&ps, l);
        let r = if restricted {
            restricted::run(&g, &specs, b).unwrap()
        } else {
            wormhole_run(&g, &specs, &SimConfig::new(b).check_invariants(true))
        };
        prop_assert!(matches!(r.outcome, Outcome::Completed));
        prop_assert_eq!(r.total_steps, (d + l - 1) as u64);
        prop_assert_eq!(r.total_stalls, 0);
    }

    /// Simulation on random leveled workloads: always completes (acyclic),
    /// conserves flits (delivered = all), never oversubscribes VCs, and the
    /// makespan is bounded below by the slowest message's floor and above
    /// by full serialization.
    #[test]
    fn leveled_simulation_invariants(
        seed in 0u64..1000,
        b in 1u32..4,
        l in 1u32..12,
        msgs in 1usize..40,
    ) {
        let net = LeveledNet::random(6, 4, 2, seed);
        let ps = net.random_walk_paths(msgs, seed + 1);
        let specs = specs_from_paths(&ps, l);
        let cfg = SimConfig::new(b).check_invariants(true);
        let r = wormhole_run(net.graph(), &specs, &cfg);
        prop_assert!(matches!(r.outcome, Outcome::Completed));
        prop_assert_eq!(r.delivered(), msgs);
        prop_assert!(r.max_vcs_in_use <= b);
        let floor = (6 + l - 1) as u64;
        prop_assert!(r.total_steps >= floor);
        prop_assert!(r.total_steps <= (msgs as u64) * ((l + 1) as u64) + floor);
        prop_assert_eq!(r.flit_hops, (msgs as u64) * (l as u64) * 6);
    }

    /// Restricted-bandwidth runs deliver everything too, and never beat
    /// the per-edge bandwidth floor: an edge crossed by k·L flits needs at
    /// least k·L steps.
    #[test]
    fn restricted_model_bandwidth_floor(
        seed in 0u64..500,
        b in 1u32..4,
        l in 1u32..10,
        msgs in 1usize..24,
    ) {
        let net = LeveledNet::random(5, 4, 2, seed);
        let ps = net.random_walk_paths(msgs, seed + 2);
        let loads = ps.edge_loads(net.graph());
        let max_load = loads.iter().copied().max().unwrap_or(0) as u64;
        let specs = specs_from_paths(&ps, l);
        let r = restricted::run(net.graph(), &specs, b).unwrap();
        prop_assert!(matches!(r.outcome, Outcome::Completed));
        prop_assert!(r.total_steps >= max_load * l as u64);
    }

    /// Pairwise edge-disjoint worms never compete for a bandwidth token
    /// (or a VC), so the restricted baseline and the full-bandwidth
    /// simulator agree message by message.
    #[test]
    fn restricted_equals_full_bandwidth_on_edge_disjoint_worms(
        seed in 0u64..500,
        b in 1u32..4,
        l in 1u32..10,
        msgs in 1usize..24,
        stagger in 0u64..7,
    ) {
        let net = LeveledNet::random(5, 4, 2, seed);
        let mut used = vec![false; net.graph().num_edges()];
        let mut specs: Vec<MessageSpec> = Vec::new();
        for p in net.random_walk_paths(msgs, seed + 4).paths() {
            if p.edges().iter().all(|e| !used[e.idx()]) {
                p.edges().iter().for_each(|e| used[e.idx()] = true);
                let i = specs.len() as u64;
                specs.push(MessageSpec::new(p.clone(), l).release_at(i * stagger));
            }
        }
        let slim = restricted::run(net.graph(), &specs, b).unwrap();
        let full = wormhole_run(net.graph(), &specs, &SimConfig::new(b));
        prop_assert!(matches!(slim.outcome, Outcome::Completed));
        prop_assert_eq!(&slim.messages, &full.messages);
        prop_assert_eq!(slim.total_stalls, 0);
        prop_assert_eq!(slim.flit_hops, full.flit_hops);
        prop_assert_eq!(slim.total_steps, full.total_steps);
    }

    /// First-fit colorings are always B-bounded, never use fewer than
    /// ⌈C/B⌉ classes, and compaction never worsens them.
    #[test]
    fn first_fit_bounded_and_compactable(
        c in 1u32..12,
        d in 1u32..24,
        msgs in 1u32..48,
        b in 1u32..4,
    ) {
        let (g, ps) = staggered_instance(c, d, msgs);
        let cong = ps.congestion(&g);
        let col = first_fit(&ps, &g, b, FirstFitOrder::Input);
        prop_assert!(col.multiplex_size(&ps, &g) <= b);
        prop_assert!(col.num_colors() >= cong.div_ceil(b));
        let tight = compact_coloring(&ps, &g, &col, b, 2);
        prop_assert!(tight.multiplex_size(&ps, &g) <= b);
        prop_assert!(tight.num_colors() <= col.num_colors());
    }

    /// Refinement output multiplex never exceeds its target, and classes
    /// refine within parents.
    #[test]
    fn refinement_respects_target(
        seed in 0u64..300,
        split in 2u32..8,
    ) {
        let (g, ps) = staggered_instance(6, 12, 24);
        let start = Coloring::uniform(ps.len());
        let target = 3u32;
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok(out) = refine(&ps, &start, split, target, &mut rng, 64) {
            prop_assert!(out.coloring.multiplex_size(&ps, &g) <= target);
            prop_assert!(out.coloring.num_colors() <= split);
        }
    }

    /// Schedules built from any B-bounded coloring execute stall-free and
    /// within κ·(L+D−1).
    #[test]
    fn schedules_never_block(
        seed in 0u64..300,
        b in 1u32..4,
        l in 2u32..10,
    ) {
        let net = LeveledNet::random(5, 4, 2, seed);
        let ps = net.random_walk_paths(20, seed + 3);
        let col = first_fit(&ps, net.graph(), b, FirstFitOrder::Input);
        let sched = ColorSchedule::new(col, l, ps.dilation());
        let r = sched.execute_checked(net.graph(), &ps, l, b);
        prop_assert_eq!(r.delivered(), 20);
    }

    /// Subset ranking is the inverse of lexicographic enumeration.
    #[test]
    fn subset_rank_roundtrip(n in 1u32..12, k in 1u32..6) {
        prop_assume!(k <= n);
        let subs = enumerate_subsets(n, k);
        prop_assert_eq!(subs.len() as u64, binomial(n as u64, k as u64));
        for (i, s) in subs.iter().enumerate() {
            prop_assert_eq!(subset_rank(n, s), i as u64);
        }
    }

    /// Butterfly greedy paths always reach the requested output with
    /// exactly k edges, and are the unique shortest path.
    #[test]
    fn butterfly_greedy_path_correct(k in 1u32..7, src in 0u32..64, dst in 0u32..64) {
        let n = 1u32 << k;
        let (src, dst) = (src % n, dst % n);
        let bf = Butterfly::new(k);
        let p = bf.greedy_path(src, dst);
        prop_assert_eq!(p.len() as u32, k);
        prop_assert!(p.validate(bf.graph()).is_ok());
        prop_assert_eq!(p.src(bf.graph()), bf.input(src));
        prop_assert_eq!(p.dst(bf.graph()), bf.output(dst));
    }

    /// The Thm 2.2.1 construction always satisfies its three defining
    /// properties for random parameters.
    #[test]
    fn lower_bound_construction_properties(
        b in 1u32..4,
        extra in 0u32..40,
        reps in 1u32..4,
    ) {
        let min_d = lowerbound::dilation_for_m_prime(b, b + 1) as u32;
        let net = lowerbound::build(b, min_d + extra, reps, false);
        // (1) congestion exactly reps·(B+1);
        prop_assert_eq!(net.paths.congestion(&net.graph), reps * (b + 1));
        // (2) dilation within the paper's bracket;
        prop_assert!(net.dilation <= min_d + extra);
        // (3) every (B+1)-subset shares its primary edge.
        for s in enumerate_subsets(net.m_prime, b + 1) {
            let shared = net.shared_primary_edge(&s);
            for &m in &s {
                prop_assert!(net.base_path(m).edges().contains(&shared));
            }
        }
    }

    /// Torus deadlock freedom by construction: the channel-dependency
    /// graph of all-pairs dimension-order + per-dimension dateline routes
    /// is acyclic on every 1D/2D/3D torus (Dally–Seitz Thm 1), while the
    /// naive single-class control arm is cyclic whenever minimal routes
    /// chain two hops through a wrap ring (radix ≥ 4; radix-3 tori take
    /// at most one hop per ring, so even the naive arm is accidentally
    /// acyclic there).
    #[test]
    fn torus_dateline_routes_are_deadlock_free(
        radix in 3u32..7,
        dims in 1u32..4,
    ) {
        let dl = Mesh::new_disciplined(radix, dims, RoutingDiscipline::DatelineClasses);
        let naive = Mesh::new(radix, dims);
        let n = dl.num_nodes();
        let mut dl_paths = Vec::new();
        let mut naive_paths = Vec::new();
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    dl_paths.push(dl.dateline_path(NodeId(s), NodeId(d)));
                    naive_paths.push(naive.dimension_order_path(NodeId(s), NodeId(d)));
                }
            }
        }
        prop_assert!(
            channel_dependency_graph(dl.graph(), &dl_paths).is_acyclic(),
            "dateline routes on torus {}^{} must be acyclic", radix, dims
        );
        if radix >= 4 {
            prop_assert!(
                !channel_dependency_graph(naive.graph(), &naive_paths).is_acyclic(),
                "naive routes on torus {}^{} must be cyclic", radix, dims
            );
        }
    }

    /// Simulation invariants under router-pooled VC allocation: random
    /// pooled policies on leveled workloads complete, deliver
    /// everything, and respect both the per-edge cap and the per-router
    /// pool bound (checked every step by `check_invariants`, and again
    /// here on the reported high-water marks).
    #[test]
    fn pooled_simulation_invariants(
        seed in 0u64..1000,
        min in 1u32..3,
        extra in 0u32..5,
        l in 1u32..12,
        msgs in 1usize..40,
    ) {
        let net = LeveledNet::random(6, 4, 2, seed);
        let ps = net.random_walk_paths(msgs, seed + 1);
        let specs = specs_from_paths(&ps, l);
        let fanout = net.graph().max_out_degree() as u32;
        let pool = min * fanout + extra;
        let cfg = SimConfig::new(1)
            .vc_policy(VcPolicy::pooled(pool, min, pool))
            .check_invariants(true);
        let r = wormhole_run(net.graph(), &specs, &cfg);
        prop_assert!(matches!(r.outcome, Outcome::Completed));
        prop_assert_eq!(r.delivered(), msgs);
        prop_assert!(r.max_vcs_in_use <= pool);
        prop_assert!(r.max_pool_in_use <= pool, "pool oversubscribed: {:?}", r.max_pool_in_use);
        prop_assert_eq!(r.flit_hops, (msgs as u64) * (l as u64) * 6);
    }

    /// Adaptive-escape deadlock freedom by construction (the Duato
    /// condition): on every 1D/2D/3D three-class torus, the **extended
    /// channel-dependency graph over the escape subnetwork** is acyclic.
    /// Its arcs are (a) every consecutive escape-channel pair of every
    /// all-pairs escape route — what a worm already on its escape tail
    /// can wait on — and (b) an entry arc from every adaptive-lane
    /// channel `u → v` into the first escape hop from `v` toward every
    /// destination — a worm whose adaptive prefix ends on that channel
    /// falling back at `v`. Since escape routes never use the adaptive
    /// lane (also asserted), adaptive channels have in-degree 0 here, so
    /// acyclicity of this graph is exactly acyclicity of what blocked
    /// worms can transitively wait on: deadlock is impossible.
    #[test]
    fn adaptive_escape_extended_dependency_graph_is_acyclic(
        radix in 3u32..6,
        dims in 1u32..4,
    ) {
        use wormhole_topology::adaptive::AdaptiveRouter;
        let t = Mesh::new_disciplined(radix, dims, RoutingDiscipline::AdaptiveEscape);
        let g = Mesh::graph(&t);
        let n = t.num_nodes();
        let mut b = GraphBuilder::new(g.num_edges());
        let mut seen = std::collections::HashSet::new();
        let mut arc = |from: EdgeId, to: EdgeId, b: &mut GraphBuilder| {
            if from != to && seen.insert((from, to)) {
                b.add_edge(NodeId(from.0), NodeId(to.0));
            }
        };
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                // (a) escape-route deps (and the separation invariant).
                let p = t.escape_route(NodeId(s), NodeId(d));
                for &e in p.edges() {
                    prop_assert!(t.is_escape_edge(e), "escape route uses adaptive lane");
                }
                for w in p.edges().windows(2) {
                    arc(w[0], w[1], &mut b);
                }
            }
        }
        // (b) adaptive → escape entry arcs.
        for e in g.edges() {
            if t.is_escape_edge(e) {
                continue;
            }
            let v = g.dst(e);
            for d in 0..n {
                if NodeId(d) != v {
                    arc(e, t.escape_first_hop(v, NodeId(d)), &mut b);
                }
            }
        }
        prop_assert!(
            b.build().is_acyclic(),
            "extended escape dependency graph on torus {}^{} must be cyclic-free", radix, dims
        );
        // Control: the *adaptive lane itself* is unrestricted, so its
        // dependency closure is cyclic on any wrap ring with radix ≥ 3 —
        // the adaptivity is real, only the escape subgraph is ordered.
        let mut cyc = GraphBuilder::new(g.num_edges());
        for e in g.edges() {
            if t.is_escape_edge(e) {
                continue;
            }
            let v = g.dst(e);
            let mut cand = Vec::new();
            t.candidates(v, NodeId((v.0 + 1) % n), true, &mut cand);
            for (f, _) in cand {
                prop_assert!(!t.is_escape_edge(f), "candidate on escape class");
                if f != e {
                    cyc.add_edge(NodeId(e.0), NodeId(f.0));
                }
            }
        }
        prop_assert!(!cyc.build().is_acyclic(), "adaptive lane should be unrestricted");
    }

    /// The escape-channel deadlock-freedom argument survives pooling:
    /// the acyclicity proof above is over *channels*, and
    /// `per_edge_min ≥ 1` (enforced by validation) guarantees every
    /// escape channel keeps a dedicated VC no matter how the shared
    /// pool is drawn down. Dynamically: saturating same-direction
    /// rotation traffic — the workload that wedges the naive torus —
    /// must always complete on the three-class torus under random
    /// pooled policies, spilling into the escape classes as needed.
    #[test]
    fn pooled_floors_keep_adaptive_escape_routing_deadlock_free(
        radix in 3u32..7,
        dims in 1u32..3,
        min in 1u32..3,
        extra in 0u32..4,
        l in 2u32..12,
        fully in proptest::bool::ANY,
    ) {
        let t = Mesh::new_disciplined(radix, dims, RoutingDiscipline::AdaptiveEscape);
        let n = t.num_nodes();
        let stride = 1 + radix / 2;
        let specs: Vec<MessageSpec> = (0..n)
            .map(|i| {
                let mut dc = t.coords(NodeId(i));
                dc[0] = (dc[0] + stride) % t.radix();
                MessageSpec::new(t.route(NodeId(i), t.node(&dc)), l)
            })
            .collect();
        let fanout = Mesh::graph(&t).max_out_degree() as u32;
        let pool = min * fanout + extra;
        let sel = if fully {
            RouteSelection::FullyAdaptive { misroute_quota: 4 }
        } else {
            RouteSelection::MinimalAdaptive
        };
        let cfg = SimConfig::new(1)
            .vc_policy(VcPolicy::pooled(pool, min, pool))
            .route_selection(sel)
            .check_invariants(true);
        let r = wormhole_run_adaptive(&t, &specs, &cfg);
        prop_assert!(
            matches!(r.outcome, Outcome::Completed),
            "pooled adaptive rotation wedged: {:?}", r.outcome
        );
        prop_assert_eq!(r.delivered(), n as usize);
    }

    /// Fault tolerance by construction: on every randomly faulted
    /// 1D/2D/3D torus the Bernoulli channel-kill generator can emit,
    /// the surviving escape subnetwork's all-pairs dependency graph is
    /// still acyclic (so the Duato argument — and deadlock freedom —
    /// holds on the broken network), escape routes avoid every dead
    /// edge, and filtered adaptive candidates never offer one.
    #[test]
    fn faulted_tori_keep_escape_routing_acyclic(
        radix in 3u32..6,
        dims in 1u32..4,
        p_pct in 1u32..35,
        seed in 0u64..1000,
    ) {
        use wormhole_topology::adaptive::AdaptiveRouter;
        use wormhole_topology::fault::{FaultPlan, FaultedMesh};
        let t = Mesh::new_disciplined(radix, dims, RoutingDiscipline::AdaptiveEscape);
        let plan = FaultPlan::bernoulli_channels(&t, p_pct as f64 / 100.0, 50, seed);
        let fm = FaultedMesh::new(&t, &plan).expect("generator emits valid plans");
        let dead = fm.dead().to_vec();
        let n = t.num_nodes();
        let mut routes = Vec::new();
        let mut cand = Vec::new();
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let p = fm.escape_route(NodeId(s), NodeId(d));
                for &e in p.edges() {
                    prop_assert!(!dead[e.idx()], "escape route crosses a dead edge");
                    prop_assert!(t.is_escape_edge(e), "escape route uses adaptive lane");
                }
                routes.push(p);
                cand.clear();
                fm.candidates(NodeId(s), NodeId(d), true, &mut cand);
                for &(e, _) in &cand {
                    prop_assert!(!dead[e.idx()], "candidate on a dead edge");
                }
            }
        }
        prop_assert!(
            channel_dependency_graph(Mesh::graph(&t), &routes).is_acyclic(),
            "faulted escape routes on torus {}^{} (p={}%) must stay acyclic",
            radix, dims, p_pct
        );
    }

    /// Pooled-VC conservation under mid-run router kills (every edge into
    /// or out of one victim node, killed at one step): kills release
    /// the severed worms' VCs, and the per-step conservation checks
    /// (`check_invariants`) plus the reported high-water marks must
    /// still respect the pool bounds; every engine agrees on the whole
    /// execution, fault counters included.
    #[test]
    fn pooled_conservation_survives_router_kills(
        radix in 3u32..6,
        dims in 1u32..3,
        min in 1u32..3,
        extra in 0u32..4,
        l in 1u32..8,
        rate_pct in 5u32..40,
        kill_at in 1u64..40,
        victim in 0u32..216,
        seed in 0u64..1000,
    ) {
        use wormhole_topology::fault::FaultPlan;
        use wormhole_workloads::{ArrivalProcess, Substrate, TrafficPattern, Workload};
        let substrate = Substrate::torus_with(radix, dims, RoutingDiscipline::DatelineClasses);
        let w = Workload::new(
            substrate.clone(),
            TrafficPattern::UniformRandom,
            ArrivalProcess::bernoulli(rate_pct as f64 / 100.0),
            l,
            seed,
        );
        let specs = w.generate(60);
        let g = substrate.graph();
        let victim = NodeId(victim % g.num_nodes() as u32);
        let plan = g
            .edges()
            .filter(|&e| g.src(e) == victim || g.dst(e) == victim)
            .fold(FaultPlan::new(), |plan, e| plan.kill_link(kill_at, e));
        let fanout = substrate.graph().max_out_degree() as u32;
        let pool = min * fanout + extra;
        let cfg = SimConfig::new(1)
            .vc_policy(VcPolicy::pooled(pool, min, pool))
            .faults(plan)
            .max_steps(2_000)
            .check_invariants(true);
        let ev = wormhole_run(substrate.graph(), &specs, &cfg.clone().engine(Engine::EventDriven));
        let lg = wormhole_run(substrate.graph(), &specs, &cfg.clone().engine(Engine::Legacy));
        let par = wormhole_run(
            substrate.graph(),
            &specs,
            &cfg.clone().engine(Engine::Parallel { threads: 2 }),
        );
        prop_assert!(
            ev.same_execution(&lg),
            "router-kill runs diverged:\n event: {:?}\nlegacy: {:?}", ev, lg
        );
        prop_assert!(
            par.same_execution(&lg),
            "router-kill runs diverged:\nparallel: {:?}\n  legacy: {:?}", par, lg
        );
        prop_assert!(ev.max_vcs_in_use <= pool);
        prop_assert!(ev.max_pool_in_use <= pool, "pool oversubscribed: {:?}", ev.max_pool_in_use);
        // Dateline routes keep the survivors deadlock-free.
        prop_assert!(!matches!(ev.outcome, Outcome::Deadlock(_)));
        // Every message is accounted for exactly once.
        prop_assert_eq!(
            ev.delivered() + ev.discarded() + ev.in_flight(),
            ev.messages.len()
        );
    }

    /// Release-time shift invariance — a metamorphic property that does
    /// not lean on engine agreement (all three engines share one step
    /// kernel, so a kernel bug is invisible to the differential matrix).
    /// Under every arbitration policy that does not read the absolute
    /// step (`Random` keys its RNG by it), moving every release and the
    /// step cap `Δ` later moves every `finished` / `first_move` exactly
    /// `Δ` later and changes nothing else: stalls, flit-hops, VC
    /// occupancy maxima, the outcome. Chains and dateline tori, tight
    /// caps included, each engine against itself.
    #[test]
    fn release_shift_moves_the_run_and_nothing_else(
        c in 1u32..8,
        d in 1u32..12,
        l in 1u32..8,
        b in 1u32..4,
        arb in 0u32..3,
        torus in proptest::bool::ANY,
        cap_small in proptest::bool::ANY,
        delta in 1u64..500,
        seed in 0u64..1000,
    ) {
        let (g, specs): (Graph, Vec<MessageSpec>) = if torus {
            let substrate =
                Substrate::torus_with(4 + c % 4, 1 + d % 2, RoutingDiscipline::DatelineClasses);
            let w = Workload::new(
                substrate.clone(),
                TrafficPattern::Tornado,
                ArrivalProcess::bernoulli(0.2),
                l,
                seed,
            );
            (substrate.graph().clone(), w.generate(40))
        } else {
            let (g, ps) = wormhole_topology::random_nets::shared_chain_instance(c, d);
            let specs = specs_from_paths(&ps, l)
                .into_iter()
                .enumerate()
                .map(|(i, s)| (i as u64, s))
                .map(|(i, s)| s.release_at((i * 3) % 11).with_priority(((seed + i) % 5) as u32))
                .collect();
            (g, specs)
        };
        prop_assume!(!specs.is_empty());
        let shifted: Vec<MessageSpec> = specs
            .iter()
            .map(|s| s.clone().release_at(s.release + delta))
            .collect();
        let cap = if cap_small { (d + l + 4) as u64 } else { 5_000 };
        let arbitration =
            [Arbitration::FifoById, Arbitration::OldestFirst, Arbitration::PriorityRank];
        let cfg = SimConfig::new(b)
            .arbitration(arbitration[arb as usize])
            .check_invariants(true);
        for engine in [Engine::EventDriven, Engine::Legacy, Engine::Parallel { threads: 2 }] {
            let base_cfg = cfg.clone().engine(engine).max_steps(cap);
            let base = wormhole_run(&g, &specs, &base_cfg);
            let late = wormhole_run(&g, &shifted, &base_cfg.max_steps(cap + delta));
            // Everything the run reports, with its times moved by `by`.
            let moved = |r: &SimResult, by: u64| {
                let messages: Vec<_> = r
                    .messages
                    .iter()
                    .map(|m| {
                        let times = (m.finished.map(|t| t + by), m.first_move.map(|t| t + by));
                        (times, m.stalls, m.discarded)
                    })
                    .collect();
                let occupancy = (r.max_vcs_in_use, r.max_pool_in_use);
                let totals = (r.total_steps + by, r.flit_hops, r.total_stalls);
                (r.outcome.clone(), totals, occupancy, messages)
            };
            prop_assert!(
                moved(&late, 0) == moved(&base, delta),
                "{:?}: shifting releases by {} changed the run:\n base: {:?}\n late: {:?}",
                engine, delta, base, late
            );
        }
    }
}
