//! The seven named workloads: their constants, their seeded inputs, and
//! the calls into the measured crates.
//!
//! Everything here runs with a [`Tracer`] that is either recording (the
//! traced pass) or disabled (the timed arms), so both take the same code
//! path. The measured crates only ever receive generated inputs; every
//! random choice derives from the one `--seed` through [`Seeds`].

use std::time::Instant;

use wormhole_core::firstfit::{first_fit, FirstFitOrder};
use wormhole_core::pipeline::adaptive_min_colors;
use wormhole_core::schedule::ColorSchedule;
use wormhole_flitsim::config::{Arbitration, Engine, RouteSelection, SimConfig, VcPolicy};
use wormhole_flitsim::message::MessageSpec;
use wormhole_flitsim::open_loop::{windowed_stats, windowed_stats_from, OpenLoopConfig};
use wormhole_flitsim::stats::{LatencyStats, Outcome, SimResult};
use wormhole_flitsim::wormhole;
use wormhole_netcalc::{delay_bounds, flows_from_specs, BoundConfig};
use wormhole_topology::graph::Graph;
use wormhole_topology::path::PathSet;
use wormhole_topology::random_nets::staggered_instance;
use wormhole_topology::region::RegionPlan;
use wormhole_workloads::{
    ArrivalProcess, ClosedLoopConfig, ClosedLoopSource, RoutingDiscipline, Substrate,
    TrafficPattern, Workload,
};

use crate::decorators::{CallTotals, CountingRouter, CountingSource};
use crate::spans::Tracer;

/// The seed a bare `bench --workload X` uses, and the one the committed
/// goldens were written at.
pub const DEFAULT_SEED: u64 = 1;

/// Virtual channels per edge (per class on the tori) on every workload.
pub const B: u32 = 2;
/// Regions in every workload's plan (slabs on tori, stage groups on the
/// butterfly, contiguous ranges on the chain).
pub const REGIONS: u32 = 8;

/// Which constants a workload is built with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The reference size every reported number comes from.
    Reference,
    /// A tiny size for the smoke test; never reported.
    Smoke,
}

/// Destination rule of a torus workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Uniform random destinations (crosses every slab cut).
    Uniform,
    /// Half-way around dimension 0 (never crosses a slab cut).
    Tornado,
}

/// The constants of one workload at one size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// Open-loop traffic on a `radix`×`radix` torus.
    Torus {
        /// Nodes per dimension.
        radix: u32,
        /// Destination rule.
        pattern: Pattern,
        /// Bernoulli messages per endpoint per step.
        rate: f64,
        /// Injection window in steps; the first quarter is warm-up.
        window: u64,
        /// `true`: windowed open-loop run capped at twice the window.
        /// `false`: the batch is run to completion.
        windowed: bool,
        /// Minimal-adaptive routing on the three-class torus (else
        /// oblivious dateline routing on the two-class torus).
        adaptive: bool,
        /// `Arbitration::Random` (else the default FIFO-by-id).
        random_arbitration: bool,
    },
    /// Closed-loop clients and servers on a `2^k`-input butterfly.
    ClosedLoop {
        /// Butterfly order.
        k: u32,
        /// Clients (first endpoints) and servers (last endpoints), each.
        parties: u32,
        /// No request is released at or after this step.
        horizon: u64,
    },
    /// Bound, simulate to completion and cross-check on a butterfly.
    BoundsXval {
        /// Butterfly order.
        k: u32,
        /// Bernoulli messages per endpoint per step.
        rate: f64,
        /// Injection window in steps.
        window: u64,
    },
    /// The paper's pipeline on `staggered_instance(c, d, msgs)`.
    Schedule {
        /// Target congestion.
        c: u32,
        /// Path length (dilation).
        d: u32,
        /// Messages.
        msgs: u32,
        /// Flits per message.
        l: u32,
    },
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name used on the command line, in `BENCHMARK.json` and by later
    /// issues.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Reference constants.
    pub reference: Shape,
    /// Smoke-test constants.
    pub smoke: Shape,
}

impl WorkloadDef {
    /// The constants at `size`.
    pub fn shape(&self, size: Size) -> Shape {
        match size {
            Size::Reference => self.reference,
            Size::Smoke => self.smoke,
        }
    }
}

/// Flits per message on the torus workloads.
const TORUS_L: u32 = 8;

const fn torus(
    radix: u32,
    pattern: Pattern,
    rate: f64,
    window: u64,
    windowed: bool,
    adaptive: bool,
    random_arbitration: bool,
) -> Shape {
    Shape::Torus {
        radix,
        pattern,
        rate,
        window,
        windowed,
        adaptive,
        random_arbitration,
    }
}

/// The workloads, in reporting order. Sizes are frozen here and mirrored
/// in `BENCHMARK.json`; the README records how they were chosen.
pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "torus_uniform_light",
        why: "free-flowing worms on a 16x16 dateline torus: the per-step kernel does the work, \
              parking almost none; worst region plan; largest set-up",
        reference: torus(16, Pattern::Uniform, 0.03, 14_000, true, false, true),
        smoke: torus(6, Pattern::Uniform, 0.03, 400, true, false, true),
    },
    WorkloadDef {
        name: "torus_uniform_saturated",
        why: "same torus past saturation (ends MaxSteps by design): park/wake and stall \
              settlement dominate, the opposite use of the same kernel",
        reference: torus(16, Pattern::Uniform, 0.06, 3_000, true, false, true),
        smoke: torus(6, Pattern::Uniform, 0.12, 200, true, false, true),
    },
    WorkloadDef {
        name: "torus_tornado_batch",
        why: "24x24 tornado batch run to completion: traffic never crosses the slab cut, so \
              parallel windows are long and barriers rare (the 2-worker figure is per-layer)",
        reference: torus(24, Pattern::Tornado, 0.35, 100, false, false, false),
        smoke: torus(6, Pattern::Tornado, 0.35, 30, false, false, false),
    },
    WorkloadDef {
        name: "torus_adaptive_saturated",
        why:
            "16x16 adaptive-escape torus, minimal-adaptive tornado far past saturation: park-free \
              pending-route worms call back into topology's router every step",
        reference: torus(16, Pattern::Tornado, 0.10, 300, true, true, true),
        smoke: torus(4, Pattern::Tornado, 0.10, 200, true, true, true),
    },
    WorkloadDef {
        name: "butterfly_closed_loop",
        why: "128 clients / 128 servers on butterfly(8), pooled VCs: the only workload whose \
              traffic source runs inside the simulation (reactive, no batched fast-forward)",
        reference: Shape::ClosedLoop {
            k: 8,
            parties: 128,
            horizon: 5_000,
        },
        smoke: Shape::ClosedLoop {
            k: 4,
            parties: 8,
            horizon: 400,
        },
    },
    WorkloadDef {
        name: "butterfly_bounds_xval",
        why: "bound, simulate, check every message on butterfly(8): netcalc does nearly all of \
              run_s, so a simulator speed-up must not move it",
        reference: Shape::BoundsXval {
            k: 8,
            rate: 0.05,
            window: 250,
        },
        smoke: Shape::BoundsXval {
            k: 4,
            rate: 0.05,
            window: 100,
        },
    },
    WorkloadDef {
        name: "staggered_schedule_batch",
        why: "the paper's pipeline (Thm 2.1.6 colouring, zero-stall schedule): core does nearly \
              all of run_s; the simulation is the contention-free fast-forward path",
        reference: Shape::Schedule {
            c: 16,
            d: 128,
            msgs: 64,
            l: 16,
        },
        smoke: Shape::Schedule {
            c: 4,
            d: 16,
            msgs: 24,
            l: 4,
        },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The four seeds the measured crates receive, all derived from `--seed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// `Workload::seed`: arrival times and destinations.
    pub workload: u64,
    /// `SimConfig::seed`: random arbitration.
    pub sim: u64,
    /// `ClosedLoopConfig::seed`: think times, server choice, delays.
    pub closed_loop: u64,
    /// `adaptive_min_colors` seed: LLL resampling.
    pub colouring: u64,
}

impl Seeds {
    /// Four independent streams from one seed (splitmix64 finalizer over
    /// distinct salts).
    pub fn derive(seed: u64) -> Seeds {
        let mix = |salt: u64| {
            let mut z = seed
                .wrapping_add(salt)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Seeds {
            workload: mix(1),
            sim: mix(2),
            closed_loop: mix(3),
            colouring: mix(4),
        }
    }
}

/// The network a workload runs on.
pub enum Net {
    /// A substrate from `wormhole-workloads` (owns graph and routing).
    Substrate(Substrate),
    /// A bare graph with fixed paths (the staggered chain).
    Paths(Graph, PathSet),
}

impl Net {
    /// The routing graph.
    pub fn graph(&self) -> &Graph {
        match self {
            Net::Substrate(s) => s.graph(),
            Net::Paths(g, _) => g,
        }
    }
}

/// A workload's inputs, ready to run: everything `setup_s` pays for.
pub struct Prepared {
    /// The definition this was built from.
    pub def: &'static WorkloadDef,
    /// The constants it was built with.
    pub shape: Shape,
    /// Derived seeds.
    pub seeds: Seeds,
    /// Network.
    pub net: Net,
    /// Simulator config: VC policy, arbitration, seed, region plan and
    /// step cap. The engine is set per arm.
    pub cfg: SimConfig,
    /// Routed message stream. Empty on the closed-loop workload (the
    /// source makes it) and, until [`Prepared::adopt_schedule`], on the
    /// schedule workload (the colouring makes the release times).
    pub specs: Vec<MessageSpec>,
    /// Measurement window of the windowed workloads.
    pub ol: Option<OpenLoopConfig>,
    /// Closed-loop parameters.
    pub closed: Option<ClosedLoopConfig>,
    /// Rows `workloads` generated.
    pub rows: u64,
    /// Routes `topology` computed.
    pub routes: u64,
    /// Edges crossing the region cut.
    pub cross_edges: u64,
}

/// What the analytic layers (`netcalc`, `core`) reported in one pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Analytics {
    /// `netcalc`: flows the trace decomposed into.
    pub flows: u64,
    /// `netcalc`: 1 if a certificate was found.
    pub bounded: u64,
    /// `netcalc`: worst certified delay over the worst simulated latency.
    pub bound_over_p100: f64,
    /// `netcalc`: messages whose simulated latency exceeds their bound.
    pub oracle_violations: u64,
    /// `core`: colour classes of the schedule that was executed.
    pub colors: u64,
    /// `core`: LLL resamples.
    pub resamples: u64,
    /// `core`: makespan over the predicted κ(L+D−1).
    pub makespan_over_bound: f64,
}

/// One `wormhole::run*` call, timed from outside.
pub struct SimOut<'a> {
    /// What the simulator returned.
    pub result: SimResult,
    /// Wall time inside `wormhole::run*`.
    pub secs: f64,
    /// Router callback totals (zero unless decorated and adaptive).
    pub router: CallTotals,
    /// Source callback totals (zero unless decorated and closed-loop).
    pub source_calls: CallTotals,
    /// The closed-loop source after the run, for its statistics.
    pub source: Option<ClosedLoopSource<'a>>,
}

/// One pass through a workload's default user pipeline (`run_s`).
pub struct PipelineOut {
    /// The pipeline's simulation, with its windowed/chain statistics.
    pub result: SimResult,
    /// Wall time that simulation spent inside `wormhole::run*`; `None` on
    /// the schedule workload, which simulates inside `core`.
    pub sim_secs: Option<f64>,
    /// What `netcalc` / `core` reported.
    pub analytics: Analytics,
    /// Broken workload invariants (empty when all hold).
    pub broken: Vec<String>,
    /// Router callback totals of the pipeline's simulation (zero unless
    /// decorated).
    pub router: CallTotals,
    /// Source callback totals of the pipeline's simulation.
    pub source_calls: CallTotals,
    /// Schedule workload: the schedule the colouring produced (its
    /// `to_specs` are what the engine arms simulate).
    pub schedule: Option<ColorSchedule>,
}

impl Prepared {
    /// Builds the inputs of `def` at `size` from `seed`. Each call into a
    /// layer is one span of `tracer`.
    pub fn build(def: &'static WorkloadDef, size: Size, seed: u64, tracer: &mut Tracer) -> Self {
        let seeds = Seeds::derive(seed);
        let shape = def.shape(size);
        let mut cfg = SimConfig::new(B).seed(seeds.sim);
        let (mut ol, mut closed, mut rows) = (None, None, 0);
        let (net, specs, routes) = match shape {
            Shape::Torus {
                radix,
                pattern,
                rate,
                window,
                windowed,
                adaptive,
                random_arbitration,
            } => {
                let discipline = if adaptive {
                    cfg = cfg.route_selection(RouteSelection::MinimalAdaptive);
                    RoutingDiscipline::AdaptiveEscape
                } else {
                    RoutingDiscipline::DatelineClasses
                };
                if random_arbitration {
                    cfg = cfg.arbitration(Arbitration::Random);
                }
                let pattern = match pattern {
                    Pattern::Uniform => TrafficPattern::UniformRandom,
                    Pattern::Tornado => TrafficPattern::Tornado,
                };
                ol = windowed.then(|| OpenLoopConfig::new(window / 4, window - window / 4));
                let substrate = tracer.span("topology.build", |_| {
                    Substrate::torus_with(radix, 2, discipline)
                });
                let (substrate, specs) =
                    generate(substrate, pattern, rate, TORUS_L, window, &seeds, tracer);
                rows = specs.len();
                (Net::Substrate(substrate), specs, rows)
            }
            Shape::BoundsXval { k, rate, window } => {
                // Runs to completion; the cap only guards a soundness bug.
                cfg = cfg.max_steps(window + 1_000_000);
                let substrate = tracer.span("topology.build", |_| Substrate::butterfly(k));
                let pattern = TrafficPattern::UniformRandom;
                let (substrate, specs) =
                    generate(substrate, pattern, rate, 4, window, &seeds, tracer);
                rows = specs.len();
                (Net::Substrate(substrate), specs, rows)
            }
            Shape::ClosedLoop {
                k,
                parties,
                horizon,
            } => {
                cfg = cfg.vc_policy(VcPolicy::pooled(4, 1, 4));
                ol = Some(OpenLoopConfig::new(horizon / 4, horizon - horizon / 4));
                closed = Some(ClosedLoopConfig {
                    clients: parties,
                    servers: parties,
                    window: 4,
                    req_len: 2,
                    reply_len: 8,
                    think: (4, 32),
                    server_delay: (2, 10),
                    start_spread: 32,
                    horizon,
                    seed: seeds.closed_loop,
                });
                let substrate = tracer.span("topology.build", |_| Substrate::butterfly(k));
                // The source makes (and routes) the messages as it runs.
                (Net::Substrate(substrate), Vec::new(), 0)
            }
            Shape::Schedule { c, d, msgs, .. } => {
                // `ColorSchedule::execute` runs under the default config;
                // the arms do the same.
                cfg = SimConfig::new(B);
                let (graph, paths) =
                    tracer.span("topology.build", |_| staggered_instance(c, d, msgs));
                let routes = paths.len();
                // The colouring makes the release times: no specs yet.
                (Net::Paths(graph, paths), Vec::new(), routes)
            }
        };
        let plan = tracer.span("topology.region_plan", |_| match &net {
            Net::Substrate(s) => s.region_plan(REGIONS),
            Net::Paths(g, _) => RegionPlan::contiguous(g, REGIONS),
        });
        let cross_edges = plan.cross_edges();
        if let Some(ol) = &ol {
            cfg.max_steps = cfg.max_steps.min(ol.step_cap());
        }
        Prepared {
            def,
            shape,
            seeds,
            net,
            cfg: cfg.regions(plan),
            specs,
            ol,
            closed,
            rows: rows as u64,
            routes: routes as u64,
            cross_edges,
        }
    }

    /// FNV-1a digest of everything the measured crates will receive:
    /// derived seeds, routed specs, closed-loop parameters, fixed paths.
    /// Same `--seed` ⇒ same digest; it is written into every result file.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let s = self.seeds;
        for x in [s.workload, s.sim, s.closed_loop, s.colouring, self.cfg.seed] {
            eat(x);
        }
        for spec in &self.specs {
            eat(spec.release);
            eat(spec.length as u64);
            spec.path.edges().iter().for_each(|e| eat(e.idx() as u64));
        }
        if let Some(c) = &self.closed {
            for x in [c.clients as u64, c.window as u64, c.horizon, c.seed] {
                eat(x);
            }
        }
        if let Net::Paths(_, paths) = &self.net {
            for p in paths.paths() {
                p.edges().iter().for_each(|e| eat(e.idx() as u64));
            }
        }
        h
    }

    /// Installs the timed specs the schedule pipeline produced, so the
    /// engine arms can simulate them.
    pub fn adopt_schedule(&mut self, specs: Vec<MessageSpec>) {
        self.specs = specs;
    }

    /// One `wormhole::run*` call under `engine`, timed from outside and
    /// recorded as span `name`. With `decorate`, the router / source
    /// callbacks go through the counting decorators and their totals
    /// become aggregate children of the span.
    pub fn sim(
        &self,
        engine: Engine,
        decorate: bool,
        tracer: &mut Tracer,
        name: &str,
    ) -> SimOut<'_> {
        let cfg = self.cfg.clone().engine(engine);
        let graph = self.net.graph();
        let mut router = CallTotals::default();
        let mut source_calls = CallTotals::default();
        let mut kept = None;
        let (result, secs) = match (&self.net, &self.closed) {
            (Net::Substrate(sub), Some(closed)) => {
                let mut source = ClosedLoopSource::new(sub, closed);
                let out = if decorate {
                    let mut counted = CountingSource::new(&mut source);
                    tracer.span(name, |t| {
                        let out = timed(|| wormhole::run_source(graph, &mut counted, &cfg));
                        source_calls = counted.totals();
                        t.aggregate(
                            "workloads.source",
                            source_calls.calls,
                            source_calls.total_ns,
                        );
                        out
                    })
                } else {
                    tracer.span(name, |_| {
                        timed(|| wormhole::run_source(graph, &mut source, &cfg))
                    })
                };
                kept = Some(source);
                out
            }
            (Net::Substrate(sub), None) if cfg.route_selection != RouteSelection::Oblivious => {
                let mesh = sub.as_mesh().expect("adaptive workloads run on a torus");
                if decorate {
                    let counted = CountingRouter::new(mesh);
                    tracer.span(name, |t| {
                        let out = timed(|| wormhole::run_adaptive(&counted, &self.specs, &cfg));
                        router = counted.totals();
                        t.aggregate("topology.router", router.calls, router.total_ns);
                        out
                    })
                } else {
                    tracer.span(name, |_| {
                        timed(|| wormhole::run_adaptive(mesh, &self.specs, &cfg))
                    })
                }
            }
            _ => tracer.span(name, |_| timed(|| wormhole::run(graph, &self.specs, &cfg))),
        };
        SimOut {
            result,
            secs,
            router,
            source_calls,
            source: kept,
        }
    }

    /// The workload's default user pipeline — what `run_s` times: for the
    /// simulation workloads one event-driven run plus its windowed /
    /// chain statistics; for `butterfly_bounds_xval` bound, simulate and
    /// check every message; for `staggered_schedule_batch` colour and
    /// execute the schedule. Decorated when `tracer` records.
    pub fn pipeline(&self, tracer: &mut Tracer) -> PipelineOut {
        let decorate = tracer.enabled();
        let graph = self.net.graph();
        let mut analytics = Analytics::default();
        let mut broken = Vec::new();
        let mut schedule = None;
        let mut callbacks = (CallTotals::default(), CallTotals::default());
        let mut sim_secs = None;
        let result = match (&self.net, self.shape) {
            (Net::Paths(graph, paths), Shape::Schedule { l, .. }) => {
                let ff = tracer.span("core.first_fit", |_| {
                    first_fit(paths, graph, B, FirstFitOrder::Input)
                });
                let lll = tracer
                    .span("core.adaptive_min_colors", |_| {
                        adaptive_min_colors(paths, graph, B, self.seeds.colouring, 64)
                    })
                    .expect("adaptive refinement found no colouring");
                analytics.resamples = lll.stages.iter().map(|s| s.resamples).sum();
                let best = if ff.num_colors() <= lll.coloring.num_colors() {
                    ff
                } else {
                    lll.coloring
                };
                analytics.colors = best.num_colors() as u64;
                let sched = ColorSchedule::new(best, l, paths.dilation());
                let result = tracer.span("core.execute_checked", |_| {
                    sched.execute_checked(graph, paths, l, B)
                });
                // Zero stalls and makespan ≤ κ(L+D−1) are `execute_checked`'s
                // own assertions: a broken schedule panics, which the runner
                // counts as a failed operation.
                analytics.makespan_over_bound =
                    result.total_steps as f64 / sched.predicted_length() as f64;
                schedule = Some(sched);
                result
            }
            (_, Shape::BoundsXval { .. }) => {
                let tf = tracer.span("netcalc.flows_from_specs", |_| {
                    flows_from_specs(&self.specs)
                });
                let report = tracer
                    .span("netcalc.delay_bounds", |_| {
                        delay_bounds(graph, &tf.flows, &BoundConfig::new(B))
                    })
                    .expect("butterfly routing sets are feedforward");
                let sim = self.sim(Engine::EventDriven, decorate, tracer, "flitsim.event.run");
                sim_secs = Some(sim.secs);
                let mut p100 = 0u64;
                for (i, (spec, m)) in self.specs.iter().zip(&sim.result.messages).enumerate() {
                    match m.latency(spec.release) {
                        Some(lat) => {
                            p100 = p100.max(lat);
                            if lat as f64 > report.flow_delay[tf.spec_flow[i]] {
                                analytics.oracle_violations += 1;
                            }
                        }
                        None => analytics.oracle_violations += 1,
                    }
                }
                analytics.flows = tf.flows.len() as u64;
                analytics.bounded = report.bounded as u64;
                analytics.bound_over_p100 = report.max_delay() / p100.max(1) as f64;
                if !report.bounded || analytics.oracle_violations != 0 {
                    broken.push(format!(
                        "latency <= bound failed: bounded={} violations={}",
                        report.bounded, analytics.oracle_violations
                    ));
                }
                sim.result
            }
            _ => {
                let sim = self.sim(Engine::EventDriven, decorate, tracer, "flitsim.event.run");
                callbacks = (sim.router, sim.source_calls);
                sim_secs = Some(sim.secs);
                let mut result = sim.result;
                if let (Some(source), Some(ol)) = (&sim.source, &self.ol) {
                    result.open_loop = Some(tracer.span("flitsim.windowed_stats", |_| {
                        windowed_stats_from(
                            (0..source.emitted()).zip(&result.messages).map(|(i, m)| {
                                let (release, length) = source.released(i);
                                (release, length, m.finished)
                            }),
                            ol,
                        )
                    }));
                    result.closed_loop = Some(tracer.span("workloads.closed_loop.stats", |_| {
                        source.stats(result.total_steps)
                    }));
                } else if let Some(ol) = &self.ol {
                    result.open_loop = Some(tracer.span("flitsim.windowed_stats", |_| {
                        windowed_stats(&self.specs, &result, ol)
                    }));
                }
                result
            }
        };
        match &result.open_loop {
            Some(w) if w.delivered_msgs > w.offered_msgs => {
                broken.push("delivered more than was offered".to_string());
            }
            None if result.outcome != Outcome::Completed => {
                broken.push(format!("batch ended {:?}, not Completed", result.outcome));
            }
            _ => {}
        }
        PipelineOut {
            result,
            sim_secs,
            analytics,
            broken,
            router: callbacks.0,
            source_calls: callbacks.1,
            schedule,
        }
    }

    /// Latency summary of `result` in steps: over the measurement window
    /// where there is one, over every delivered message otherwise.
    pub fn latency(&self, result: &SimResult) -> LatencyStats {
        match &result.open_loop {
            Some(w) => w.latency,
            None => {
                let samples: Vec<u64> = self
                    .specs
                    .iter()
                    .zip(&result.messages)
                    .filter_map(|(s, m)| m.latency(s.release))
                    .collect();
                LatencyStats::from_samples(&samples)
            }
        }
    }
}

/// Generates the open-loop rows (`workloads`) and routes them
/// (`topology`), handing the substrate back.
fn generate(
    substrate: Substrate,
    pattern: TrafficPattern,
    rate: f64,
    msg_len: u32,
    window: u64,
    seeds: &Seeds,
    tracer: &mut Tracer,
) -> (Substrate, Vec<MessageSpec>) {
    let (workload, rows) = tracer.span("workloads.generate_rows", |_| {
        let arrivals = ArrivalProcess::bernoulli(rate);
        let w = Workload::new(substrate, pattern, arrivals, msg_len, seeds.workload);
        let rows = w.generate_rows(window);
        (w, rows)
    });
    let substrate = workload.substrate;
    let specs = tracer.span("topology.route", |_| {
        rows.iter()
            .map(|r| {
                MessageSpec::new(substrate.route(r.src, r.dst), r.length).release_at(r.release)
            })
            .collect()
    });
    (substrate, specs)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str, seed: u64) -> Prepared {
        Prepared::build(
            find(name).unwrap(),
            Size::Smoke,
            seed,
            &mut Tracer::disabled(),
        )
    }

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        for def in &WORKLOADS {
            let a = smoke(def.name, 7).digest();
            assert_eq!(a, smoke(def.name, 7).digest(), "{}", def.name);
            assert_ne!(a, smoke(def.name, 8).digest(), "{}", def.name);
        }
    }

    #[test]
    fn every_seed_the_crates_receive_derives_from_the_one_seed() {
        let (a, b) = (Seeds::derive(1), Seeds::derive(2));
        let all = [a.workload, a.sim, a.closed_loop, a.colouring];
        for (i, x) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|y| y != x), "streams collide");
        }
        assert_ne!(a.workload, b.workload);
        assert_ne!(a.sim, b.sim);
        assert_ne!(a.closed_loop, b.closed_loop);
        assert_ne!(a.colouring, b.colouring);
        assert_eq!(a, Seeds::derive(1));

        // ... and reaches the configs handed to the measured crates.
        let p = smoke("torus_uniform_light", 1);
        assert_eq!(p.cfg.seed, a.sim);
        let p = smoke("butterfly_closed_loop", 1);
        assert_eq!(p.closed.as_ref().unwrap().seed, a.closed_loop);
        assert_eq!(
            smoke("staggered_schedule_batch", 1).seeds.colouring,
            a.colouring
        );
        // The workload seed decides the generated rows.
        let rows = |seed| smoke("butterfly_bounds_xval", seed).specs.len();
        assert!(rows(1) > 0);
        let releases = |seed: u64| -> Vec<u64> {
            smoke("butterfly_bounds_xval", seed)
                .specs
                .iter()
                .map(|s| s.release)
                .collect()
        };
        assert_ne!(releases(1), releases(2));
    }

    #[test]
    fn decorated_runs_are_same_execution_with_plain_runs() {
        // The wrapped router (adaptive) and the wrapped source (closed
        // loop) must be transparent to the simulator.
        for name in ["torus_adaptive_saturated", "butterfly_closed_loop"] {
            let p = smoke(name, 3);
            let off = &mut Tracer::disabled();
            let plain = p.sim(Engine::EventDriven, false, off, "x");
            let wrapped = p.sim(Engine::EventDriven, true, off, "x");
            assert!(plain.result.same_execution(&wrapped.result), "{name}");
            assert!(plain.result.flit_hops > 0, "{name}: empty run");
            let calls = wrapped.router.calls + wrapped.source_calls.calls;
            assert!(calls > 0, "{name}: decorator saw no calls");
            assert_eq!(plain.router.calls + plain.source_calls.calls, 0);
        }
    }
}
