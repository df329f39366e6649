//! Runs one workload: the timed arms (`--trace 0`, end-to-end metrics) or
//! the traced pass (`--trace 1`, per-layer metrics), with every output
//! checked against the Legacy reference, the workload's invariants and —
//! at the default seed — the committed golden counts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use wormhole_flitsim::config::Engine;
use wormhole_flitsim::stats::SimResult;

use crate::host::{peak_rss_mib, Host};
use crate::json::Json;
use crate::metrics::{self, Kind, MetricDef};
use crate::spans::{self_times, trace_to_json, SpanError, Tracer};
use crate::stats::Summary;
use crate::workloads::{
    Analytics, Net, PipelineOut, Prepared, Shape, Size, WorkloadDef, DEFAULT_SEED,
};

/// How to run a workload.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the timed reps (or traced passes) go on.
    pub seconds: f64,
    /// Reference constants, or the smoke size.
    pub size: Size,
    /// A throughput sample repeats its simulation until it has spent at
    /// least this long inside `wormhole::run*` ([`MIN_SAMPLE_S`] for any
    /// reported number; 0 in the smoke test).
    pub min_sample_s: f64,
    /// Rewrite the golden instead of comparing with it.
    pub write_golden: bool,
}

/// Timed reps per arm (set-up rebuilds included) below which a run keeps
/// going past `--seconds`.
const MIN_REPS: usize = 5;
/// A reported throughput sample lasts at least this long inside
/// `wormhole::run*`: workloads whose simulation is shorter repeat it
/// inside the sample.
pub const MIN_SAMPLE_S: f64 = 0.05;
/// Traced passes are capped: their spans all stay in memory.
const MAX_PASSES: usize = 400;

/// Everything one run of one workload produced.
pub struct RunReport {
    /// The workload.
    pub def: &'static WorkloadDef,
    /// How it was run.
    pub opts: RunOptions,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Digest of the generated inputs.
    pub digest: u64,
    /// Operations attempted (`run*`, `delay_bounds`,
    /// `adaptive_min_colors` calls).
    pub ops: u64,
    /// Operations that panicked, fell back, diverged from the reference,
    /// broke an invariant or mismatched the golden.
    pub failed_ops: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Fewer than 2 cores were available for the traced 2-worker arm.
    pub degraded: bool,
    /// The metrics of this mode, in table order.
    pub metrics: Vec<(&'static MetricDef, Summary)>,
    /// Every sample of the sampled metrics, in the order taken.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Median seconds one throughput sample lasted on the event and the
    /// parallel arm (timed arms only): the ≥ 0.2 s rule, made visible.
    pub sample_s: Option<(f64, f64)>,
    /// The trace file's content (traced pass only).
    pub trace: Option<Json>,
}

impl RunReport {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed_ops == 0
    }

    /// The contract's result line: `correct`, `attempted`, `failed`,
    /// `metrics` and nothing else.
    pub fn result_line(&self) -> Json {
        let mut m = Json::obj();
        for (def, s) in &self.metrics {
            m = m.with(
                def.name,
                Json::obj()
                    .with("value", def.reported(s))
                    .with("unit", def.unit),
            );
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.ops.max(1))
            .with("failed", self.failed_ops)
            .with("metrics", m)
    }

    /// This run as a member of a result set.
    pub fn to_json(&self) -> Json {
        let mut m = Json::obj();
        for (def, s) in &self.metrics {
            let mut row = Json::obj()
                .with("unit", def.unit)
                .with("better", def.better.name())
                .with(
                    "kind",
                    match def.kind {
                        Kind::Timing => "timing",
                        Kind::Count => "count",
                    },
                );
            if let Some(b) = def.bound {
                row = row.with("bound", b);
            }
            row = row.with("value", def.reported(s));
            m = m.with(def.name, s.append_to(row));
        }
        let mut samples = Json::obj();
        for (name, xs) in &self.samples {
            samples = samples.with(name, xs.iter().map(|&x| Json::Num(x)).collect::<Vec<_>>());
        }
        Json::obj()
            .with("workload", self.def.name)
            .with("seed", self.opts.seed)
            .with("trace", self.traced as u64)
            .with(
                "size",
                match self.opts.size {
                    Size::Reference => "reference",
                    Size::Smoke => "smoke",
                },
            )
            .with("seconds", self.opts.seconds)
            .with("spec_digest", format!("{:016x}", self.digest))
            .with("degraded", self.degraded)
            .with(
                "event_sample_s",
                self.sample_s.map_or(Json::Null, |s| s.0.into()),
            )
            .with(
                "parallel_sample_s",
                self.sample_s.map_or(Json::Null, |s| s.1.into()),
            )
            .with("ops", self.ops)
            .with("failed_ops", self.failed_ops)
            .with(
                "failures",
                self.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("metrics", m)
            .with("samples", samples)
    }
}

/// A result set: the host block and any number of runs
/// ([`RunReport::to_json`]).
pub fn result_set(host: &Host, runs: Vec<Json>) -> Json {
    Json::obj()
        .with("benchmark", "wormhole-bench")
        .with("host", host.to_json())
        .with("runs", runs)
}

/// Operation counts and failed checks of one run.
#[derive(Default)]
struct Ledger {
    ops: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Runs `f`, which makes `ops` operations. A panic inside it is a
    /// failed operation and ends the run (`None`).
    fn guard<R>(&mut self, what: &str, ops: u64, f: impl FnOnce() -> R) -> Option<R> {
        self.ops += ops;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(_) => {
                self.fail(format!("{what}: panicked"));
                None
            }
        }
    }

    /// Checks one simulation against the reference execution.
    fn check_sim(&mut self, what: &str, result: &SimResult, reference: &SimResult) {
        if let Some(f) = result.engine_fallback {
            self.fail(format!("{what}: fell back ({})", f.name()));
        }
        if !result.same_execution(reference) {
            self.fail(format!("{what}: not same_execution with the reference"));
        }
    }

    fn check_pipeline(&mut self, what: &str, out: &PipelineOut, reference: &SimResult) {
        self.check_sim(what, &out.result, reference);
        for b in &out.broken {
            self.fail(format!("{what}: {b}"));
        }
    }
}

/// What the untimed first pipeline and the Legacy reference establish.
struct Baseline {
    prepared: Prepared,
    /// First pipeline's output (statistics attached).
    first: PipelineOut,
    /// The Legacy engine's execution of the same inputs: the oracle.
    reference: SimResult,
}

fn pipeline_ops(shape: Shape) -> u64 {
    match shape {
        Shape::BoundsXval { .. } | Shape::Schedule { .. } => 2,
        _ => 1,
    }
}

/// Runs the pipeline once (the warm-up rep), hands the schedule's specs to
/// the arms, and takes the Legacy reference every later result is
/// compared with.
fn baseline(mut prepared: Prepared, ledger: &mut Ledger) -> Option<Baseline> {
    let off = &mut Tracer::disabled();
    let ops = pipeline_ops(prepared.shape);
    let first = ledger.guard("pipeline (warm-up)", ops, || prepared.pipeline(off))?;
    if let (Some(sched), Net::Paths(_, paths), Shape::Schedule { l, .. }) =
        (&first.schedule, &prepared.net, prepared.shape)
    {
        let specs = sched.to_specs(paths, l);
        prepared.adopt_schedule(specs);
    }
    let reference = ledger.guard("legacy reference", 1, || {
        prepared.sim(Engine::Legacy, false, off, "").result
    })?;
    ledger.check_pipeline("pipeline (warm-up)", &first, &reference);
    Some(Baseline {
        prepared,
        first,
        reference,
    })
}

/// One throughput sample: simulations back to back until the time spent
/// inside `wormhole::run*` reaches `RunOptions::min_sample_s`.
struct Sample {
    /// 10⁶ flit-hops per host second inside `wormhole::run*`.
    mhops_per_s: f64,
    /// Host seconds inside `wormhole::run*`, all simulations.
    secs: f64,
    /// Simulations in the sample.
    sims: u64,
}

/// Takes one throughput sample under `engine`, checking every result.
/// `first` is a simulation already run and checked (seconds inside
/// `wormhole::run*`, flit-hops) that the sample starts with.
fn throughput_sample(
    base: &Baseline,
    engine: Engine,
    what: &str,
    min_sample_s: f64,
    first: Option<(f64, u64)>,
    ledger: &mut Ledger,
) -> Option<Sample> {
    let off = &mut Tracer::disabled();
    let (mut secs, mut hops) = first.unwrap_or((0.0, 0));
    let mut sims = first.is_some() as u64;
    while sims == 0 || secs < min_sample_s {
        let out = ledger.guard(what, 1, || base.prepared.sim(engine, false, off, ""))?;
        ledger.check_sim(what, &out.result, &base.reference);
        secs += out.secs;
        hops += out.result.flit_hops;
        sims += 1;
    }
    Some(Sample {
        mhops_per_s: hops as f64 / secs / 1e6,
        secs,
        sims,
    })
}

fn golden_path(def: &WorkloadDef) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.json", def.name))
}

/// The simulated statistics of a run: every `Kind::Count` metric that
/// derives from the reference execution, in table order.
fn counts(base: &Baseline) -> Vec<(&'static str, f64)> {
    let r = &base.first.result;
    let a: &Analytics = &base.first.analytics;
    let lat = base.prepared.latency(r);
    // Over the measurement window where there is one, over the whole run
    // for a batch.
    let accepted = match &r.open_loop {
        Some(w) => w.accepted_flits_per_step,
        None => {
            let delivered = base.prepared.specs.iter().zip(&r.messages);
            let flits: u64 = delivered
                .filter(|(_, m)| m.finished.is_some())
                .map(|(s, _)| s.length as u64)
                .sum();
            flits as f64 / r.total_steps.max(1) as f64
        }
    };
    vec![
        ("topology.routes", base.prepared.routes as f64),
        ("topology.cross_edges", base.prepared.cross_edges as f64),
        ("workloads.rows", base.prepared.rows as f64),
        ("flitsim.messages", r.messages.len() as f64),
        ("flitsim.delivered", r.delivered() as f64),
        ("flitsim.total_steps", r.total_steps as f64),
        ("flitsim.flit_hops", r.flit_hops as f64),
        ("flitsim.total_stalls", r.total_stalls as f64),
        (
            "flitsim.stalls_per_flit_hop",
            r.total_stalls as f64 / r.flit_hops.max(1) as f64,
        ),
        ("flitsim.max_vcs_in_use", r.max_vcs_in_use as f64),
        ("flitsim.escape_fallbacks", r.escape_fallbacks as f64),
        ("flitsim.misroute_hops", r.misroute_hops as f64),
        ("flitsim.latency_p50_steps", lat.p50 as f64),
        ("flitsim.latency_p99_steps", lat.p99 as f64),
        ("flitsim.accepted_flits_per_step", accepted),
        (
            "flitsim.chains_completed",
            r.closed_loop
                .as_ref()
                .map_or(0.0, |c| c.chains_completed as f64),
        ),
        ("netcalc.flows", a.flows as f64),
        ("netcalc.bounded", a.bounded as f64),
        ("netcalc.bound_over_p100", a.bound_over_p100),
        ("netcalc.oracle_violations", a.oracle_violations as f64),
        ("core.colors", a.colors as f64),
        ("core.resamples", a.resamples as f64),
        ("core.makespan_over_bound", a.makespan_over_bound),
    ]
}

/// Compares the golden counts exactly (default seed, reference size), or
/// rewrites the golden when asked to.
fn check_golden(base: &Baseline, opts: &RunOptions, ledger: &mut Ledger) {
    if opts.size != Size::Reference || opts.seed != DEFAULT_SEED {
        return;
    }
    let path = golden_path(base.prepared.def);
    let mine: Vec<(&str, f64)> = counts(base)
        .into_iter()
        .filter(|(name, _)| metrics::is_golden(name))
        .collect();
    if opts.write_golden {
        let mut doc = Json::obj()
            .with("workload", base.prepared.def.name)
            .with("seed", opts.seed)
            .with("spec_digest", format!("{:016x}", base.prepared.digest()));
        for (name, v) in &mine {
            doc = doc.with(name, *v);
        }
        if let Err(e) = std::fs::write(&path, doc.pretty()) {
            ledger.fail(format!("cannot write {}: {e}", path.display()));
        }
        return;
    }
    let golden = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    {
        Ok(g) => g,
        Err(e) => {
            ledger.fail(format!("golden {}: {e}", path.display()));
            return;
        }
    };
    let digest = format!("{:016x}", base.prepared.digest());
    if golden.get("spec_digest").and_then(Json::as_str) != Some(&digest) {
        ledger.fail(format!("golden mismatch: spec_digest is {digest}"));
    }
    for (name, v) in mine {
        let want = golden.get(name).and_then(Json::as_f64);
        if want != Some(v) {
            ledger.fail(format!(
                "golden mismatch: {name} = {v}, golden has {want:?}"
            ));
        }
    }
}

/// What a mode measured, before it is laid out in table order.
#[derive(Default)]
struct Measured {
    digest: u64,
    values: Vec<(&'static str, Summary)>,
    samples: Vec<(&'static str, Vec<f64>)>,
    sample_s: Option<(f64, f64)>,
    trace: Option<Json>,
}

impl Measured {
    fn exact(&mut self, name: &'static str, value: f64) {
        self.values.push((name, Summary::exact(value)));
    }

    /// A sampled metric: the summary is reported, the samples are kept
    /// for the result file.
    fn sampled(&mut self, name: &'static str, samples: Vec<f64>) {
        self.values.push((name, Summary::of(&samples)));
        self.samples.push((name, samples));
    }
}

fn finish(
    def: &'static WorkloadDef,
    opts: RunOptions,
    traced: bool,
    ledger: Ledger,
    host: &Host,
    measured: Measured,
) -> RunReport {
    let table: &[MetricDef] = if traced {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    // A metric that does not apply to the workload (the router on an
    // oblivious torus, netcalc anywhere but the bounds workload) reads 0.
    let metrics = table
        .iter()
        .map(|def| {
            let s = measured
                .values
                .iter()
                .find(|(n, _)| *n == def.name)
                .map_or(Summary::exact(0.0), |(_, s)| *s);
            (def, s)
        })
        .collect();
    // Only the traced pass runs two workers.
    let degraded = traced && !host.can_run_two_workers();
    if degraded {
        eprintln!(
            "bench: DEGRADED — {} core(s) available, the 2-worker arm of {} is oversubscribed",
            host.available_parallelism, def.name
        );
    }
    RunReport {
        def,
        opts,
        traced,
        digest: measured.digest,
        ops: ledger.ops,
        failed_ops: ledger.failed,
        failures: ledger.failures,
        degraded,
        metrics,
        samples: measured.samples,
        sample_s: measured.sample_s,
        trace: measured.trace,
    }
}

/// The end-to-end parallel arm runs one worker on every workload: this
/// benchmark is run on hosts that give it two shared cores, where a second
/// worker times the neighbours (the 2-worker figure is per-layer,
/// `flitsim.parallel2.run_s`).
const PARALLEL_ARM: Engine = Engine::Parallel { threads: 1 };

/// The timed reps: arms interleaved rep by rep — a set-up rebuild
/// (`setup_s`), pipeline (`run_s`), event engine, parallel engine — after
/// one untimed warm-up rep of each, so that every metric samples the host
/// over the whole run. The pipeline's own event-driven simulation is the
/// first simulation of the rep's event sample (on the torus and
/// closed-loop workloads all of it), so no time goes into measuring the
/// same run twice.
fn timed_arms(
    def: &'static WorkloadDef,
    opts: &RunOptions,
    ledger: &mut Ledger,
    out: &mut Measured,
) -> Option<()> {
    let build = || Prepared::build(def, opts.size, opts.seed, &mut Tracer::disabled());
    let prepared = ledger.guard("set-up", 0, build)?;
    out.digest = prepared.digest();
    let base = baseline(prepared, ledger)?;
    check_golden(&base, opts, ledger);
    let min_s = opts.min_sample_s;
    let event = Engine::EventDriven;
    throughput_sample(&base, event, "event (warm-up)", min_s, None, ledger)?;
    throughput_sample(
        &base,
        PARALLEL_ARM,
        "parallel (warm-up)",
        min_s,
        None,
        ledger,
    )?;
    // Every arm has run once on these inputs and the reps below repeat
    // them, so the process is as large as a user's gets. Read the peak
    // here: the set-up rebuilds below hold a second copy of the inputs.
    out.exact("peak_rss_mib", peak_rss_mib().unwrap_or(0.0));

    let off = &mut Tracer::disabled();
    let ops = pipeline_ops(base.prepared.shape);
    let (mut setup_s, mut run_s) = (Vec::new(), Vec::new());
    let (mut event_rate, mut par_rate) = (Vec::new(), Vec::new());
    let (mut event_secs, mut par_secs) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    while run_s.len() < MIN_REPS || Instant::now() < deadline {
        let t0 = Instant::now();
        let rebuilt = ledger.guard("set-up", 0, build)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(rebuilt);
        let t0 = Instant::now();
        let pipeline = ledger.guard("pipeline", ops, || base.prepared.pipeline(off))?;
        run_s.push(t0.elapsed().as_secs_f64());
        ledger.check_pipeline("pipeline", &pipeline, &base.reference);
        let first = pipeline.sim_secs.map(|s| (s, pipeline.result.flit_hops));
        let sample = throughput_sample(&base, event, "event", min_s, first, ledger)?;
        event_rate.push(sample.mhops_per_s);
        event_secs.push(sample.secs);
        let sample = throughput_sample(&base, PARALLEL_ARM, "parallel", min_s, None, ledger)?;
        par_rate.push(sample.mhops_per_s);
        par_secs.push(sample.secs);
    }
    out.sample_s = Some((
        Summary::of(&event_secs).median,
        Summary::of(&par_secs).median,
    ));
    out.sampled("setup_s", setup_s);
    out.sampled("run_s", run_s);
    out.sampled("event_mhops_per_s", event_rate);
    out.sampled("parallel_mhops_per_s", par_rate);
    Some(())
}

/// `--trace 0`: the end-to-end metrics, measured for `opts.seconds`
/// seconds with tracing off. The traced pass is a separate invocation.
pub fn run_timed(def: &'static WorkloadDef, opts: RunOptions, host: &Host) -> RunReport {
    let mut ledger = Ledger::default();
    let mut out = Measured::default();
    timed_arms(def, &opts, &mut ledger, &mut out);
    finish(def, opts, false, ledger, host, out)
}

/// The engines the traced pass runs besides the decorated event run.
const TRACED_ARMS: [(Engine, &str); 3] = [
    (Engine::Legacy, "flitsim.legacy.run"),
    (Engine::Parallel { threads: 1 }, "flitsim.parallel1.run"),
    (Engine::Parallel { threads: 2 }, "flitsim.parallel2.run"),
];

/// One traced pass: set-up, the decorated pipeline, then legacy,
/// parallel-1 and parallel-2 — one span per call into a layer. Returns
/// the pipeline's output and the three other executions.
fn traced_pass(
    def: &'static WorkloadDef,
    opts: &RunOptions,
    schedule_specs: &[wormhole_flitsim::message::MessageSpec],
    tracer: &mut Tracer,
) -> (PipelineOut, Vec<SimResult>) {
    tracer.span("bench.pass", |t| {
        let mut p = t.span("bench.setup", |t| {
            Prepared::build(def, opts.size, opts.seed, t)
        });
        let out = t.span("bench.run", |t| p.pipeline(t));
        if matches!(p.shape, Shape::Schedule { .. }) {
            // `execute_checked` simulates inside `core`; time the same
            // simulation on its own as well, outside the pipeline.
            p.adopt_schedule(schedule_specs.to_vec());
            p.sim(Engine::EventDriven, false, t, "flitsim.event.run");
        }
        let others = TRACED_ARMS
            .iter()
            .map(|&(engine, name)| p.sim(engine, false, t, name).result)
            .collect();
        (out, others)
    })
}

/// `--trace 1`: the per-layer metrics. A few untraced event runs give the
/// base for `bench.trace_overhead` and the derived ratios; then traced
/// passes repeat for `opts.seconds` seconds and every timing is the
/// median over passes.
fn traced_passes(
    def: &'static WorkloadDef,
    opts: &RunOptions,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    out: &mut Measured,
) -> Option<()> {
    let prepared = ledger.guard("set-up", 0, || {
        Prepared::build(def, opts.size, opts.seed, &mut Tracer::disabled())
    })?;
    out.digest = prepared.digest();
    let base = baseline(prepared, ledger)?;
    check_golden(&base, opts, ledger);
    let mut untraced = Vec::new();
    for _ in 0..MIN_REPS {
        let sample = throughput_sample(
            &base,
            Engine::EventDriven,
            "event (untraced)",
            opts.min_sample_s,
            None,
            ledger,
        )?;
        untraced.push(sample.secs / sample.sims as f64);
    }

    let (mut fallbacks, mut divergences) = (0u64, 0u64);
    let mut first_pass = None;
    let ops = pipeline_ops(base.prepared.shape) + TRACED_ARMS.len() as u64;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut passes = 0;
    while passes == 0 || (passes < MAX_PASSES && Instant::now() < deadline) {
        passes += 1;
        tracer.next_run();
        let (pipeline, others) = ledger.guard("traced pass", ops, || {
            traced_pass(def, opts, &base.prepared.specs, tracer)
        })?;
        ledger.check_pipeline("traced pipeline", &pipeline, &base.reference);
        for (r, (_, name)) in others.iter().zip(TRACED_ARMS) {
            ledger.check_sim(name, r, &base.reference);
        }
        for r in others.iter().chain([&pipeline.result]) {
            fallbacks += r.engine_fallback.is_some() as u64;
            divergences += !r.same_execution(&base.reference) as u64;
        }
        first_pass.get_or_insert(pipeline);
    }
    let first_pass = first_pass.expect("at least one pass ran");

    let seconds = |span: &str| {
        let xs = tracer.seconds(span);
        if xs.is_empty() {
            Summary::exact(0.0)
        } else {
            Summary::of(&xs)
        }
    };
    for (metric, span) in [
        ("topology.build_s", "topology.build"),
        ("topology.region_plan_s", "topology.region_plan"),
        ("topology.route_s", "topology.route"),
        ("topology.router.self_s", "topology.router"),
        ("workloads.generate_rows_s", "workloads.generate_rows"),
        ("workloads.source.self_s", "workloads.source"),
        (
            "workloads.closed_loop.stats_s",
            "workloads.closed_loop.stats",
        ),
        ("flitsim.event.run_s", "flitsim.event.run"),
        ("flitsim.windowed_stats_s", "flitsim.windowed_stats"),
        ("flitsim.parallel1.run_s", "flitsim.parallel1.run"),
        ("flitsim.parallel2.run_s", "flitsim.parallel2.run"),
        ("flitsim.legacy.run_s", "flitsim.legacy.run"),
        ("netcalc.flows_from_specs_s", "netcalc.flows_from_specs"),
        ("netcalc.delay_bounds_s", "netcalc.delay_bounds"),
        ("core.first_fit_s", "core.first_fit"),
        ("core.adaptive_min_colors_s", "core.adaptive_min_colors"),
    ] {
        out.values.push((metric, seconds(span)));
    }
    for (name, v) in counts(&base) {
        out.exact(name, v);
    }
    // Callback counts repeat exactly; the first pass's stand for all.
    let (router, source) = (first_pass.router, first_pass.source_calls);
    out.exact("topology.router.calls", router.calls as f64);
    out.exact("topology.router.escape_calls", router.subset as f64);
    out.exact(
        "workloads.source.polls",
        (source.calls - source.subset) as f64,
    );
    out.exact("workloads.source.notifications", source.subset as f64);
    out.exact("flitsim.fallbacks", fallbacks as f64);
    out.exact("flitsim.divergences", divergences as f64);

    // Derived, each with its base. Ratios to the event engine use the
    // untraced event run: the traced one carries the decorators' cost.
    let event = Summary::of(&untraced).median;
    let r = &base.reference;
    let span_median = |span: &str| seconds(span).median;
    out.exact(
        "flitsim.event.ns_per_flit_hop",
        event * 1e9 / r.flit_hops.max(1) as f64,
    );
    out.exact(
        "flitsim.event.ns_per_step",
        event * 1e9 / r.total_steps.max(1) as f64,
    );
    out.exact(
        "flitsim.parallel1_over_event",
        span_median("flitsim.parallel1.run") / event,
    );
    out.exact(
        "flitsim.parallel2_over_parallel1",
        span_median("flitsim.parallel2.run") / span_median("flitsim.parallel1.run"),
    );
    out.exact(
        "flitsim.legacy_over_event",
        span_median("flitsim.legacy.run") / event,
    );
    out.exact(
        "bench.trace_overhead",
        span_median("flitsim.event.run") / event,
    );
    Some(())
}

/// `--trace 1`: see [`traced_passes`]. The spans of every pass are kept
/// in memory and returned in the report, for the trace file.
pub fn run_traced(def: &'static WorkloadDef, opts: RunOptions, host: &Host) -> RunReport {
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new();
    let mut out = Measured::default();
    if traced_passes(def, &opts, &mut ledger, &mut tracer, &mut out).is_some() {
        match layer_shares(&tracer) {
            Ok(shares) => shares.into_iter().for_each(|(n, v)| out.exact(n, v)),
            Err(e) => ledger.fail(format!("trace is malformed: {e:?}")),
        }
    }
    match trace_to_json(tracer.spans()) {
        Ok(t) => out.trace = Some(t),
        Err(e) => ledger.fail(format!("trace is malformed: {e:?}")),
    }
    finish(def, opts, true, ledger, host, out)
}

/// Each layer's self time inside the traced pipeline (`bench.run` and its
/// descendants) as a share of the pipeline's duration, summed over
/// passes.
fn layer_shares(tracer: &Tracer) -> Result<Vec<(&'static str, f64)>, SpanError> {
    const LAYERS: [(&str, &str); 5] = [
        ("share_of_run.flitsim", "flitsim."),
        ("share_of_run.topology", "topology."),
        ("share_of_run.workloads", "workloads."),
        ("share_of_run.netcalc", "netcalc."),
        ("share_of_run.core", "core."),
    ];
    let spans = tracer.spans();
    let own = self_times(spans)?;
    // A span is inside the pipeline iff its chain of parents reaches a
    // `bench.run` span; parents precede children, so one sweep suffices.
    let mut inside = vec![false; spans.len()];
    let mut total = 0u64;
    let mut layer_ns = [0u64; 5];
    for (i, s) in spans.iter().enumerate() {
        if s.name == "bench.run" {
            inside[i] = true;
            total += s.duration_ns();
            continue;
        }
        inside[i] = s.parent.is_some_and(|p| inside[p]);
        if !inside[i] {
            continue;
        }
        if let Some(k) = LAYERS
            .iter()
            .position(|(_, prefix)| s.name.starts_with(prefix))
        {
            layer_ns[k] += own[i];
        }
    }
    Ok(LAYERS
        .iter()
        .zip(layer_ns)
        .map(|((name, _), ns)| (*name, ns as f64 / total.max(1) as f64))
        .collect())
}
