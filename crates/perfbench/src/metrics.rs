//! The metric tables: names, units, directions, and the regression bound
//! fixed for each end-to-end metric. `BENCHMARK.json` mirrors these (the
//! smoke test holds the two together); `bench compare` applies them.

use crate::stats::Summary;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How two values of a metric are compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host time or a ratio of host times: noisy, compared within a
    /// bound (end-to-end) or reported as advisory (per-layer).
    Timing,
    /// A simulated statistic or a call count: repeats exactly, compared
    /// exactly. A change that moves one is a model change, not a speed-up.
    Count,
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, `<layer>.<what>` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Comparison rule.
    pub kind: Kind,
    /// Share of the baseline median by which the metric may get worse
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl MetricDef {
    /// The value reported for this metric from its samples.
    ///
    /// A per-layer timing is the median over traced passes. An end-to-end
    /// timing is its **best rep** (least time, highest rate): on the
    /// shared hosts this runs on, interference only ever slows a rep down
    /// and drifts over seconds, so a ten-second run's median inherits
    /// whatever the neighbours did meanwhile, while the best rep estimates
    /// the undisturbed speed (README, "Reported value", has the measured
    /// spreads). Median and quartiles are kept beside it.
    pub fn reported(&self, s: &Summary) -> f64 {
        match (self.bound, self.better) {
            (Some(_), Better::Lower) => s.min,
            (Some(_), Better::Higher) => s.max,
            (None, _) => s.median,
        }
    }
}

/// `setup_s` is sub-millisecond on some workloads; below this absolute
/// difference a change in it is never a regression.
pub const SETUP_FLOOR_S: f64 = 0.005;

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Timing,
        bound: Some(bound),
    }
}

const fn time(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Timing,
        bound: None,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Count,
        bound: None,
    }
}

/// The end-to-end metrics, reported by `--trace 0`.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("run_s", "s", Better::Lower, 0.25),
    e2e("event_mhops_per_s", "Mhops/s", Better::Higher, 0.25),
    e2e("parallel_mhops_per_s", "Mhops/s", Better::Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// The per-layer metrics, reported by `--trace 1`. Layers are the crates.
pub const PER_LAYER: [MetricDef; 56] = [
    // topology -> setup_s everywhere; the router ones -> run_s and
    // event_mhops_per_s on torus_adaptive_saturated only.
    time("topology.build_s", "s"),
    time("topology.region_plan_s", "s"),
    time("topology.route_s", "s"),
    count("topology.routes", "count", Higher),
    count("topology.cross_edges", "count", Lower),
    count("topology.router.calls", "count", Lower),
    count("topology.router.escape_calls", "count", Lower),
    time("topology.router.self_s", "s"),
    // workloads -> setup_s on the open-loop workloads; the source ones
    // -> run_s and event_mhops_per_s on butterfly_closed_loop only.
    time("workloads.generate_rows_s", "s"),
    count("workloads.rows", "count", Higher),
    count("workloads.source.polls", "count", Lower),
    count("workloads.source.notifications", "count", Lower),
    time("workloads.source.self_s", "s"),
    time("workloads.closed_loop.stats_s", "s"),
    // flitsim, time.
    time("flitsim.event.run_s", "s"),
    time("flitsim.windowed_stats_s", "s"),
    time("flitsim.parallel1.run_s", "s"),
    time("flitsim.parallel2.run_s", "s"),
    time("flitsim.legacy.run_s", "s"),
    time("flitsim.event.ns_per_flit_hop", "ns"),
    time("flitsim.event.ns_per_step", "ns"),
    time("flitsim.parallel1_over_event", "ratio"),
    time("flitsim.parallel2_over_parallel1", "ratio"),
    time("flitsim.legacy_over_event", "ratio"),
    // flitsim, simulated statistics: identical across the four engine
    // arms and across runs, equal to the golden at the default seed.
    count("flitsim.messages", "count", Higher),
    count("flitsim.delivered", "count", Higher),
    count("flitsim.total_steps", "steps", Lower),
    count("flitsim.flit_hops", "count", Higher),
    count("flitsim.total_stalls", "steps", Lower),
    count("flitsim.stalls_per_flit_hop", "ratio", Lower),
    count("flitsim.max_vcs_in_use", "count", Lower),
    count("flitsim.escape_fallbacks", "count", Lower),
    count("flitsim.misroute_hops", "count", Lower),
    count("flitsim.latency_p50_steps", "steps", Lower),
    count("flitsim.latency_p99_steps", "steps", Lower),
    count("flitsim.accepted_flits_per_step", "flits/step", Higher),
    count("flitsim.chains_completed", "count", Higher),
    count("flitsim.fallbacks", "count", Lower),
    count("flitsim.divergences", "count", Lower),
    // netcalc -> run_s on butterfly_bounds_xval.
    time("netcalc.flows_from_specs_s", "s"),
    time("netcalc.delay_bounds_s", "s"),
    count("netcalc.flows", "count", Higher),
    count("netcalc.bounded", "count", Higher),
    count("netcalc.bound_over_p100", "ratio", Lower),
    count("netcalc.oracle_violations", "count", Lower),
    // core -> run_s on staggered_schedule_batch.
    time("core.first_fit_s", "s"),
    time("core.adaptive_min_colors_s", "s"),
    count("core.colors", "count", Lower),
    count("core.resamples", "count", Lower),
    count("core.makespan_over_bound", "ratio", Lower),
    // Each layer's self time as a share of the traced pipeline (base:
    // the traced run_s), and what tracing itself costs (base: untraced).
    time("share_of_run.flitsim", "ratio"),
    time("share_of_run.topology", "ratio"),
    time("share_of_run.workloads", "ratio"),
    time("share_of_run.netcalc", "ratio"),
    time("share_of_run.core", "ratio"),
    time("bench.trace_overhead", "ratio"),
];

/// The counts committed as goldens (`golden/<workload>.json`).
pub fn is_golden(name: &str) -> bool {
    name == "core.colors"
        || name == "netcalc.flows"
        || (name.starts_with("flitsim.")
            && PER_LAYER
                .iter()
                .any(|m| m.name == name && m.kind == Kind::Count))
}

/// Looks a metric up in both tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}
