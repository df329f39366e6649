//! Bad input comes back from `wormhole::simulate` as a value — the same
//! one from every engine — where the `run*` shims panic with its
//! message: a malformed spec at the door it enters by (a slice's before
//! step 0, however late its release; a live source's as `take_ready` is
//! drained, mid-run — an id past the bound the source declared among
//! them), and everything `SimConfig::check` refuses: a fault
//! plan that does not fit the graph, a missing router or one over
//! another graph, a pool that cannot honor its floors, policy values no
//! builder would accept, a region plan built for another graph. The
//! standalone §1.4 baselines (`restricted`, `cut_through`) return a
//! slice's malformed spec the same way, and `restricted` its zero VC
//! count.

use wormhole_flitsim::config::{ConfigError, Engine, RouteSelection, SimConfig, VcPolicy};
use wormhole_flitsim::cut_through::{self, VctConfig};
use wormhole_flitsim::message::{MessageSpec, SpecError};
use wormhole_flitsim::restricted;
use wormhole_flitsim::source::{Traffic, TrafficSource};
use wormhole_flitsim::stats::{Outcome, SimResult};
use wormhole_flitsim::wormhole::{simulate, SimError};
use wormhole_topology::fault::{FaultError, FaultPlan};
use wormhole_topology::graph::{EdgeId, Graph, GraphBuilder, NodeId};
use wormhole_topology::mesh::{Mesh, RoutingDiscipline};
use wormhole_topology::path::Path;
use wormhole_topology::region::RegionPlan;

const ENGINES: [Engine; 3] = [
    Engine::Legacy,
    Engine::EventDriven,
    Engine::Parallel { threads: 2 },
];

fn chain(n: u32) -> (Graph, Vec<EdgeId>) {
    let mut b = GraphBuilder::new(n as usize);
    let edges = (0..n - 1)
        .map(|i| b.add_edge(NodeId(i), NodeId(i + 1)))
        .collect();
    (b.build(), edges)
}

/// A spec no constructor would build (`MessageSpec::new` refuses zero
/// length on its own).
fn raw(edges: Vec<EdgeId>, length: u32, release: u64) -> MessageSpec {
    MessageSpec {
        path: Path::new(edges),
        length,
        release,
        priority: 0,
    }
}

/// The three ways a spec itself can be malformed.
fn malformed(edges: &[EdgeId], release: u64) -> [(MessageSpec, SpecError); 3] {
    [
        (raw(Vec::new(), 2, release), SpecError::EmptyPath),
        (
            raw(vec![edges[0], EdgeId(999)], 2, release),
            SpecError::BadEdge,
        ),
        (raw(edges.to_vec(), 0, release), SpecError::ZeroLength),
    ]
}

/// A live source that emits `script`'s `(at, id, spec)` entries — `at`
/// ascending — at the step it says, whatever the spec's own release,
/// logs every delivery it hears of, and declares `bound` as its id
/// bound.
struct Script {
    script: Vec<(u64, u32, MessageSpec)>,
    cursor: usize,
    delivered: Vec<(u32, u64)>,
    bound: Option<u32>,
}

impl Script {
    fn new(script: Vec<(u64, u32, MessageSpec)>) -> Self {
        Script {
            script,
            cursor: 0,
            delivered: Vec::new(),
            bound: None,
        }
    }
}

impl TrafficSource for Script {
    fn next_release(&mut self, _now: u64) -> Option<u64> {
        self.script.get(self.cursor).map(|&(at, ..)| at)
    }

    fn take_ready(&mut self, now: u64, out: &mut Vec<(u32, MessageSpec)>) {
        while let Some((at, id, spec)) = self.script.get(self.cursor) {
            if *at > now {
                break;
            }
            out.push((*id, spec.clone()));
            self.cursor += 1;
        }
    }

    fn on_delivered(&mut self, id: u32, finished: u64) {
        self.delivered.push((id, finished));
    }

    fn id_bound(&self) -> Option<u32> {
        self.bound
    }
}

#[test]
fn a_slice_is_checked_whole_before_step_zero() {
    // The bad spec is the last of the slice and released far beyond the
    // step cap: a run that checked specs as it admitted them would end
    // `MaxSteps` without ever looking at it.
    let (g, edges) = chain(5);
    let cfg = SimConfig::new(1).max_steps(50);
    for (bad, error) in malformed(&edges, 10_000) {
        let mut specs = vec![raw(edges.clone(), 3, 0), raw(edges.clone(), 3, 4)];
        for engine in ENGINES {
            let cfg = cfg.clone().engine(engine);
            let ok = simulate(&g, None, Traffic::Specs(&specs), &cfg).expect("two good specs");
            assert_eq!(ok.outcome, Outcome::Completed, "{engine:?}");
        }
        specs.push(bad);
        for engine in ENGINES {
            let cfg = cfg.clone().engine(engine);
            let got = simulate(&g, None, Traffic::Specs(&specs), &cfg);
            assert_eq!(
                got.unwrap_err(),
                SimError::Spec { id: 2, error },
                "{engine:?}"
            );
        }
    }
}

#[test]
fn the_standalone_baselines_return_the_first_bad_spec_as_a_value() {
    // Each malformed spec sits behind two good ones and is released far
    // beyond the baselines' step cap (10^8 steps), so only a check before
    // step 0 sees it; in the slice holding all three, the first one is
    // named.
    let (g, edges) = chain(5);
    let vct = VctConfig::new(2);
    type Baseline<'a> = &'a dyn Fn(&[MessageSpec]) -> Result<SimResult, SimError>;
    let baselines: [(&str, Baseline); 2] = [
        ("restricted", &|specs| restricted::run(&g, specs, 1)),
        ("cut_through", &|specs| cut_through::run(&g, specs, &vct)),
    ];
    let good = || vec![raw(edges.clone(), 3, 0), raw(edges.clone(), 3, 4)];
    let bad = malformed(&edges, 1 << 40);
    let mut all_three = good();
    all_three.extend(bad.iter().map(|(spec, _)| spec.clone()));
    for (name, run) in baselines {
        let ok = run(&good()).expect("two good specs");
        assert_eq!(ok.outcome, Outcome::Completed, "{name}");
        for (spec, error) in bad.clone() {
            let mut specs = good();
            specs.push(spec);
            let got = run(&specs).unwrap_err();
            assert_eq!(got, SimError::Spec { id: 2, error }, "{name}");
        }
        let error = SpecError::EmptyPath;
        let got = run(&all_three).unwrap_err();
        assert_eq!(got, SimError::Spec { id: 2, error }, "{name}");
    }
}

#[test]
fn the_restricted_baseline_refuses_zero_vcs_before_step_zero() {
    // Used to run with every header refused a VC and report a deadlock.
    let (g, edges) = chain(3);
    let got = restricted::run(&g, &[raw(edges, 2, 0)], 0);
    assert_eq!(got.unwrap_err(), SimError::Config(ConfigError::NoVcs));
}

#[test]
fn a_live_sources_bad_spec_ends_the_run_where_it_is_drained() {
    // Two good worms at step 0 (the second waits for the first: B = 1),
    // the bad emission at step 40, long after both arrived: every engine
    // returns the same error, having run the steps before it — the
    // source heard of both deliveries — and nothing after.
    let (g, edges) = chain(5);
    let good = |id: u32| (0, id, raw(edges.clone(), 3, 0));
    let mut cases: Vec<((u64, u32, MessageSpec), SpecError)> = malformed(&edges, 40)
        .into_iter()
        .map(|(spec, error)| ((40, 2, spec), error))
        .collect();
    cases.push(((40, 1, raw(edges.clone(), 3, 40)), SpecError::DuplicateId));
    let early = SpecError::ReleasedEarly {
        release: 41,
        now: 40,
    };
    cases.push(((40, 2, raw(edges.clone(), 3, 41)), early));
    for ((at, id, spec), error) in cases {
        let mut heard = Vec::new();
        for engine in ENGINES {
            let cfg = SimConfig::new(1).engine(engine).check_invariants(true);
            let mut source = Script::new(vec![good(0), good(1), (at, id, spec.clone())]);
            let got = simulate(&g, None, Traffic::Source(&mut source), &cfg);
            assert_eq!(got.unwrap_err(), SimError::Spec { id, error }, "{engine:?}");
            assert_eq!(source.cursor, 3, "{engine:?}: drained at step 40");
            heard.push(source.delivered);
        }
        // 4 hops + 3 flits − 1, then the second worm one VC release behind.
        assert_eq!(heard[0].len(), 2, "{error:?}: {heard:?}");
        assert_eq!(heard[0][0], (0, 6), "{error:?}");
        assert!(heard.iter().all(|h| *h == heard[0]), "{error:?}: {heard:?}");
    }
}

#[test]
fn a_live_source_emitting_past_its_declared_id_bound_is_refused() {
    // The source declares two ids and emits a third, well-formed, at step
    // 40: the tables sized to the bound are not grown behind its back and
    // the result is not longer than the bound — the run ends with the
    // same error on every engine, having run (and reported) the steps
    // before it.
    let (g, edges) = chain(5);
    let spec = |release| raw(edges.clone(), 3, release);
    let error = SpecError::IdBeyondBound { bound: 2 };
    let mut heard = Vec::new();
    for engine in ENGINES {
        let cfg = SimConfig::new(1).engine(engine).check_invariants(true);
        let mut source = Script::new(vec![(0, 0, spec(0)), (0, 1, spec(0)), (40, 2, spec(40))]);
        source.bound = Some(2);
        let got = simulate(&g, None, Traffic::Source(&mut source), &cfg);
        assert_eq!(
            got.unwrap_err(),
            SimError::Spec { id: 2, error },
            "{engine:?}"
        );
        assert_eq!(source.cursor, 3, "{engine:?}: drained at step 40");
        heard.push(source.delivered);
    }
    assert_eq!(heard[0], [(0, 6), (1, 10)]);
    assert!(heard.iter().all(|h| *h == heard[0]), "{heard:?}");
    // Within the bound the same source runs to completion.
    for engine in ENGINES {
        let cfg = SimConfig::new(1).engine(engine);
        let mut source = Script::new(vec![(0, 0, spec(0)), (0, 1, spec(0)), (40, 2, spec(40))]);
        source.bound = Some(3);
        let ok = simulate(&g, None, Traffic::Source(&mut source), &cfg).expect("three ids");
        assert_eq!(ok.messages.len(), 3, "{engine:?}");
        assert_eq!(ok.delivered(), 3, "{engine:?}");
    }
}

#[test]
fn a_bad_spec_reads_the_same_through_display_as_the_shims_panic() {
    let spec = |error| SimError::Spec { id: 7, error }.to_string();
    assert_eq!(spec(SpecError::EmptyPath), "message 7 has an empty path");
    assert_eq!(spec(SpecError::BadEdge), "message 7: bad edge id");
    assert_eq!(spec(SpecError::ZeroLength), "message 7 has zero length");
    assert_eq!(
        spec(SpecError::DuplicateId),
        "source re-emitted message id 7"
    );
    assert_eq!(
        spec(SpecError::ReleasedEarly { release: 9, now: 3 }),
        "message 7 emitted before its release (9 > 3)"
    );
    assert_eq!(
        spec(SpecError::IdBeyondBound { bound: 5 }),
        "source emitted message id 7, beyond its id bound 5"
    );
}

#[test]
fn config_errors_come_back_as_values() {
    let (g, edges) = chain(4);
    let specs = [raw(edges.clone(), 2, 0)];
    for engine in ENGINES {
        let base = SimConfig::new(1).engine(engine);
        let run = |cfg: &SimConfig| simulate(&g, None, Traffic::Specs(&specs), cfg).unwrap_err();

        let plan = FaultPlan::new().kill_link(3, EdgeId(999));
        let expected = plan.validate(&g).unwrap_err();
        assert!(matches!(
            expected,
            FaultError::UnknownLink { edge: 999, .. }
        ));
        let got = run(&base.clone().faults(plan));
        let faults = SimError::Config(ConfigError::Faults(expected));
        assert_eq!(got, faults, "{engine:?}");
        assert!(got.to_string().starts_with("invalid fault plan: "));

        let adaptive = base
            .clone()
            .route_selection(RouteSelection::MinimalAdaptive);
        let missing = SimError::Config(ConfigError::RouterMissing);
        assert_eq!(run(&adaptive), missing, "{engine:?}");
        assert!(missing.to_string().contains("needs run_adaptive"));
    }
}

#[test]
fn a_pool_below_its_routers_floors_comes_back_as_a_value() {
    // Router 0 has two outgoing edges: floors of 2 each need a pool of 4.
    let mut b = GraphBuilder::new(3);
    let e01 = b.add_edge(NodeId(0), NodeId(1));
    b.add_edge(NodeId(0), NodeId(2));
    let g = b.build();
    let specs = [raw(vec![e01], 2, 0)];
    for engine in ENGINES {
        let cfg = SimConfig::new(1)
            .vc_policy(VcPolicy::pooled(3, 2, 3))
            .engine(engine);
        let got = simulate(&g, None, Traffic::Specs(&specs), &cfg).unwrap_err();
        let floor = SimError::Config(ConfigError::PoolFloor {
            router: 0,
            per_edge_min: 2,
            fanout: 2,
            pool: 3,
        });
        assert_eq!(got, floor, "{engine:?}");
        assert!(got.to_string().contains("exceeds pool 3"));
    }
}

#[test]
fn a_router_over_another_graph_is_refused_before_step_zero() {
    // The larger torus as router over the smaller one's graph and specs
    // used to die on an edge index mid-run; the reverse routed, silently,
    // on the wrong graph.
    let mesh = |radix| Mesh::new_disciplined(radix, 2, RoutingDiscipline::AdaptiveEscape);
    let (small, large) = (mesh(3), mesh(4));
    let shape = |m: &Mesh| (m.graph().num_nodes(), m.graph().num_edges());
    for (sim, router) in [(&small, &large), (&large, &small)] {
        let specs = [MessageSpec::new(sim.route(NodeId(0), NodeId(8)), 3)];
        for engine in ENGINES {
            let cfg = SimConfig::new(1)
                .route_selection(RouteSelection::MinimalAdaptive)
                .engine(engine);
            let got = simulate(sim.graph(), Some(router), Traffic::Specs(&specs), &cfg);
            let wrong = ConfigError::RouterGraph {
                router: shape(router),
                graph: shape(sim),
            };
            assert_eq!(got.unwrap_err(), SimError::Config(wrong), "{engine:?}");
            // An oblivious run never consults the router it was handed.
            let cfg = SimConfig::new(1).engine(engine);
            let ok = simulate(sim.graph(), Some(router), Traffic::Specs(&specs), &cfg);
            assert_eq!(ok.unwrap().outcome, Outcome::Completed, "{engine:?}");
        }
    }
}

#[test]
fn policy_values_no_builder_accepts_come_back_as_values() {
    // Every field of `SimConfig` is public: a struct literal carries what
    // `SimConfig::new` / `vc_policy` / `VcPolicy::pooled` panic on.
    let (g, edges) = chain(4);
    let specs = [raw(edges.clone(), 2, 0)];
    let pooled = |pool, per_edge_min, per_edge_max| VcPolicy::RouterPooled {
        pool,
        per_edge_min,
        per_edge_max,
    };
    let above = u16::MAX as u32 + 1;
    let cases = [
        (VcPolicy::Static(0), ConfigError::NoVcs),
        (pooled(0, 1, 1), ConfigError::EmptyPool),
        (pooled(8, 0, 4), ConfigError::ZeroFloor),
        (
            pooled(8, 3, 2),
            ConfigError::FloorAboveCap { floor: 3, cap: 2 },
        ),
        (
            VcPolicy::Static(above),
            ConfigError::CapAboveCounters { cap: above },
        ),
        (
            pooled(8, 1, above),
            ConfigError::CapAboveCounters { cap: above },
        ),
    ];
    for (vc_policy, error) in cases {
        for engine in ENGINES {
            let cfg = SimConfig {
                vc_policy,
                ..SimConfig::new(1).engine(engine)
            };
            let got = simulate(&g, None, Traffic::Specs(&specs), &cfg).unwrap_err();
            assert_eq!(got, SimError::Config(error.clone()), "{engine:?}");
            assert_eq!(got.to_string(), error.to_string());
        }
    }
}

#[test]
fn a_region_plan_for_another_graph_is_refused_by_the_engine_that_reads_it() {
    let (g, edges) = chain(6);
    let (other, _) = chain(9);
    let specs = [raw(edges.clone(), 2, 0)];
    let plan = RegionPlan::contiguous(&other, 2);
    for engine in ENGINES {
        let cfg = SimConfig::new(1).engine(engine).regions(plan.clone());
        let got = simulate(&g, None, Traffic::Specs(&specs), &cfg);
        match engine {
            Engine::Parallel { .. } => {
                let error = SimError::Config(ConfigError::RegionPlan);
                assert_eq!(got.unwrap_err(), error, "{engine:?}");
            }
            // The sequential engines ignore the field.
            _ => assert_eq!(got.unwrap().outcome, Outcome::Completed, "{engine:?}"),
        }
    }
}
