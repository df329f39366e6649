//! Open-loop simulation mode: warmup / measurement windows, accepted
//! throughput, and saturation detection over a timed injection trace.
//!
//! [`crate::wormhole::run`] on a fixed message set answers the paper's
//! *batch* question — how long does it take to route? Open-loop
//! evaluation answers the *service* question — what latency does the
//! network deliver while traffic keeps arriving at a given rate? The
//! caller supplies a timed [`MessageSpec`] stream (typically from
//! `wormhole-workloads`); this module's one entry point,
//! [`run_open_loop`] (oblivious or, given a router, adaptive):
//!
//! 1. runs the wormhole simulator with a hard step cap of
//!    `2 · (warmup + measure)`, or the config's own
//!    [`SimConfig::max_steps`] if that is lower (a saturated network
//!    never drains, so an open-loop run must be allowed to end with
//!    [`Outcome::MaxSteps`](crate::stats::Outcome::MaxSteps) without that
//!    being an error);
//! 2. discards the warmup transient, and summarizes latency percentiles
//!    over messages *released* inside the measurement window;
//! 3. reports accepted throughput — flits of messages *finished* inside
//!    the window per step — and flags saturation when the network either
//!    failed to accept the offered load or grew its backlog across the
//!    window.
//!
//! Injection queues are implicit: a released worm that cannot win a VC on
//! its first edge waits in an unbounded source queue (the simulator's
//! `active` set) without occupying network resources, which is exactly
//! the open-loop source model.

use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::graph::Graph;

use crate::config::SimConfig;
use crate::message::MessageSpec;
use crate::source::Traffic;
use crate::stats::{LatencyStats, OpenLoopStats, SimResult};
use crate::wormhole;

/// Accepted/offered ratio under which a measurement window counts as
/// saturated.
const SATURATION_RATIO: f64 = 0.95;

/// Windowing knobs for an open-loop run.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopConfig {
    /// Warmup steps excluded from measurement (transient fill).
    pub warmup: u64,
    /// Measurement window length in steps.
    pub measure: u64,
}

impl OpenLoopConfig {
    /// A config with the given warmup and measurement window.
    pub fn new(warmup: u64, measure: u64) -> Self {
        assert!(measure >= 1, "measurement window must be non-empty");
        Self { warmup, measure }
    }

    /// End of the measurement window.
    pub fn window_end(&self) -> u64 {
        self.warmup + self.measure
    }

    /// The hard step cap of the run: after the window, as many steps
    /// again for in-flight worms to finish (saturated traffic will still
    /// be unfinished at the cap, which is expected and reported, not an
    /// error). A lower [`SimConfig::max_steps`] caps it sooner.
    pub fn step_cap(&self) -> u64 {
        2 * self.window_end()
    }
}

/// Runs `specs` open-loop under `config`, returning the simulator result
/// with [`SimResult::open_loop`] populated. `router` is the substrate of
/// per-hop route selection, consulted only under an adaptive
/// [`crate::config::RouteSelection`] (the specs then supply endpoints
/// and timing, and the routes are chosen hop by hop under load — see
/// [`wormhole::run_adaptive`]); an oblivious run may pass `None`. The run
/// never panics on saturation: an
/// [`Outcome::MaxSteps`](crate::stats::Outcome::MaxSteps) end simply
/// means traffic was still in flight at the cap. On a bad spec or config
/// it panics as [`wormhole::run`] does.
pub fn run_open_loop(
    graph: &Graph,
    router: Option<&dyn AdaptiveRouter>,
    specs: &[MessageSpec],
    config: &SimConfig,
    ol: &OpenLoopConfig,
) -> SimResult {
    let mut capped = config.clone();
    capped.max_steps = capped.max_steps.min(ol.step_cap());
    let mut result = wormhole::simulate_or_panic(graph, router, Traffic::Specs(specs), &capped);
    result.open_loop = Some(windowed_stats(specs, &result, ol));
    result
}

/// Computes the windowed measurement from a finished run. Exposed so
/// callers with their own simulation loop can reuse the bookkeeping.
///
/// Every count uses the same half-open convention over the message's
/// in-flight interval `[release, finish)`: a message is *offered* in the
/// window containing its release (`release ∈ [start, end)`), *accepted*
/// in the window containing its finish (`finish ∈ [start, end)`), and in
/// the *backlog* at instant `T` iff `release ≤ T < finish`. Windows tile
/// the timeline without overlap or gap: a release or finish landing
/// exactly on a boundary belongs to the window that starts there.
pub fn windowed_stats(
    specs: &[MessageSpec],
    result: &SimResult,
    ol: &OpenLoopConfig,
) -> OpenLoopStats {
    windowed_stats_from(
        specs
            .iter()
            .zip(&result.messages)
            .map(|(s, o)| (s.release, s.length, o.finished)),
        ol,
    )
}

/// [`windowed_stats`] over raw per-message `(release, length, finished)`
/// triples — for drivers that track their own message metadata instead
/// of a spec slice (e.g. a closed-loop source whose specs live inside
/// the source).
pub fn windowed_stats_from(
    msgs: impl Iterator<Item = (u64, u32, Option<u64>)>,
    ol: &OpenLoopConfig,
) -> OpenLoopStats {
    let (start, end) = (ol.warmup, ol.window_end());
    let mut latencies = Vec::new();
    let mut offered = 0usize;
    let mut delivered = 0usize;
    let mut accepted_msgs = 0usize;
    let mut accepted_flits = 0u64;
    let mut backlog_start = 0usize;
    let mut backlog_end = 0usize;
    // In flight over [release, finish): released at or before T, not yet
    // finished at T.
    let in_flight_at = |r: u64, f: Option<u64>, t: u64| r <= t && f.is_none_or(|f| f > t);
    for (r, length, f) in msgs {
        if in_flight_at(r, f, start) {
            backlog_start += 1;
        }
        if in_flight_at(r, f, end) {
            backlog_end += 1;
        }
        if let Some(f) = f {
            if (start..end).contains(&f) {
                accepted_msgs += 1;
                accepted_flits += length as u64;
            }
        }
        if (start..end).contains(&r) {
            offered += 1;
            if let Some(f) = f {
                delivered += 1;
                latencies.push(f - r);
            }
        }
    }
    let offered_rate = offered as f64 / ol.measure as f64;
    let accepted_rate = accepted_msgs as f64 / ol.measure as f64;
    // Saturated when the window's deliveries lag its releases, or the
    // in-flight population grew across the window. Both checks are
    // needed: a short window can luck into accepted ≈ offered while the
    // backlog climbs, and vice versa an empty-start window can accept
    // carried-over traffic while rejecting its own. Each clause also
    // demands an absolute deficit of ≥ 2 messages: with a small offered
    // count, a single worm straddling the window boundary is edge
    // effect, not saturation.
    let deficit = offered.saturating_sub(accepted_msgs);
    let saturated =
        (offered > 0 && accepted_rate < SATURATION_RATIO * offered_rate && deficit >= 2)
            || backlog_end > backlog_start.saturating_mul(2).max(offered / 4).max(1);
    OpenLoopStats {
        window_start: start,
        window_len: ol.measure,
        offered_msgs: offered,
        delivered_msgs: delivered,
        latency: LatencyStats::from_samples(&latencies),
        accepted_msgs,
        accepted_flits_per_step: accepted_flits as f64 / ol.measure as f64,
        offered_msgs_per_step: offered_rate,
        backlog: (backlog_start, backlog_end),
        saturated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::message::MessageSpec;
    use crate::stats::Outcome;
    use wormhole_topology::graph::{GraphBuilder, NodeId};
    use wormhole_topology::path::Path;

    fn chain(n: u32) -> (Graph, Vec<wormhole_topology::graph::EdgeId>) {
        let mut b = GraphBuilder::new(n as usize);
        let edges = (0..n - 1)
            .map(|i| b.add_edge(NodeId(i), NodeId(i + 1)))
            .collect();
        (b.build(), edges)
    }

    /// One message every `gap` steps down a chain.
    fn periodic(
        edges: &[wormhole_topology::graph::EdgeId],
        l: u32,
        gap: u64,
        until: u64,
    ) -> Vec<MessageSpec> {
        (0..until / gap)
            .map(|i| MessageSpec::new(Path::new(edges.to_vec()), l).release_at(i * gap))
            .collect()
    }

    #[test]
    fn light_load_latency_hits_the_floor() {
        // Messages spaced far apart never contend: latency = d + L − 1.
        let (g, edges) = chain(5);
        let specs = periodic(&edges, 3, 50, 1000);
        let ol = OpenLoopConfig::new(100, 800);
        let r = run_open_loop(&g, None, &specs, &SimConfig::new(2), &ol);
        assert_eq!(r.outcome, Outcome::Completed);
        let s = r.open_loop.unwrap();
        assert!(s.offered_msgs > 0);
        assert_eq!(s.delivered_msgs, s.offered_msgs);
        assert_eq!(s.latency.p50, (4 + 3 - 1) as u64);
        assert_eq!(s.latency.max, (4 + 3 - 1) as u64);
        assert!(!s.saturated, "light load must not saturate: {s:?}");
    }

    #[test]
    fn overload_is_detected_as_saturation() {
        // A 1-wide chain offered one L=4 message per step accepts at most
        // 1/(L+1) of them: saturated, and the run hits the cap.
        let (g, edges) = chain(5);
        let specs = periodic(&edges, 4, 1, 600);
        let ol = OpenLoopConfig::new(100, 400);
        let r = run_open_loop(&g, None, &specs, &SimConfig::new(1).max_steps(600), &ol);
        assert_eq!(r.outcome, Outcome::MaxSteps);
        let s = r.open_loop.unwrap();
        assert!(s.saturated, "overload must be flagged: {s:?}");
        assert!(s.accepted_msgs < s.offered_msgs);
        assert!(s.backlog.1 > s.backlog.0);
    }

    #[test]
    fn accepted_throughput_matches_service_rate() {
        // B=1 on a shared chain serializes at one message per L+1 steps;
        // offered exactly that, the network accepts ≈ all of it.
        let (g, edges) = chain(4);
        let l = 3u32;
        let specs = periodic(&edges, l, (l + 1) as u64, 2000);
        let ol = OpenLoopConfig::new(200, 1600);
        let r = run_open_loop(&g, None, &specs, &SimConfig::new(1), &ol);
        let s = r.open_loop.unwrap();
        assert!(!s.saturated, "{s:?}");
        let per_step = s.accepted_flits_per_step;
        let expected = l as f64 / (l + 1) as f64;
        assert!(
            (per_step - expected).abs() < 0.05,
            "accepted {per_step} != {expected}"
        );
    }

    #[test]
    fn warmup_messages_are_excluded_from_latency() {
        let (g, edges) = chain(3);
        // A burst at t=0 (warmup) then calm periodic traffic.
        let mut specs: Vec<MessageSpec> = (0..20)
            .map(|_| MessageSpec::new(Path::new(edges.clone()), 2))
            .collect();
        specs.extend(periodic(&edges, 2, 20, 400).into_iter().map(|m| {
            let r = m.release;
            m.release_at(r + 100)
        }));
        let ol = OpenLoopConfig::new(100, 400);
        let r = run_open_loop(&g, None, &specs, &SimConfig::new(1), &ol);
        let s = r.open_loop.unwrap();
        // The burst's queueing latency never shows: measured worms are alone.
        assert_eq!(s.latency.max, (2 + 2 - 1) as u64);
    }

    #[test]
    fn release_exactly_at_warmup_is_offered_and_backlogged() {
        // Half-open windows: a release landing exactly on the window start
        // belongs to this window — offered, measured, and in the backlog
        // snapshot at `start`.
        let (g, edges) = chain(5); // d = 4
        let specs = vec![MessageSpec::new(Path::new(edges), 3).release_at(10)];
        let ol = OpenLoopConfig::new(10, 50);
        let r = run_open_loop(&g, None, &specs, &SimConfig::new(1), &ol);
        let s = r.open_loop.unwrap();
        assert_eq!(s.offered_msgs, 1);
        assert_eq!(s.delivered_msgs, 1);
        assert_eq!(s.accepted_msgs, 1);
        assert_eq!(s.latency.p50, (4 + 3 - 1) as u64);
        assert_eq!(s.backlog, (1, 0));
    }

    #[test]
    fn finish_exactly_at_window_end_belongs_to_the_next_window() {
        // d = 2, L = 2 → finish = release + 3. Window [5, 15): a release
        // at 12 finishes exactly at 15 — offered here, accepted in the
        // window starting at 15, backlogged at neither boundary.
        let (g, edges) = chain(3);
        let specs = vec![MessageSpec::new(Path::new(edges), 2).release_at(12)];
        let ol = OpenLoopConfig::new(5, 10);
        let r = run_open_loop(&g, None, &specs, &SimConfig::new(1), &ol);
        assert_eq!(r.messages[0].finished, Some(15));
        let s = r.open_loop.unwrap();
        assert_eq!(s.offered_msgs, 1);
        assert_eq!(s.delivered_msgs, 1, "latency is still measured");
        assert_eq!(s.accepted_msgs, 0, "finish at end is the next window's");
        assert_eq!(s.backlog, (0, 0), "finished exactly at end ⇒ not backlog");
    }

    #[test]
    fn finish_exactly_at_warmup_is_accepted_by_this_window() {
        // The mirror boundary: a warmup-released message finishing exactly
        // at `start` counts toward this window's accepted throughput (and
        // not toward the previous one) — windows partition finishes.
        let (g, edges) = chain(3);
        let specs = vec![MessageSpec::new(Path::new(edges), 2).release_at(2)]; // finish 5
        let ol = OpenLoopConfig::new(5, 10);
        let r = run_open_loop(&g, None, &specs, &SimConfig::new(1), &ol);
        assert_eq!(r.messages[0].finished, Some(5));
        let s = r.open_loop.unwrap();
        assert_eq!(s.offered_msgs, 0, "released in warmup");
        assert_eq!(s.accepted_msgs, 1);
        assert_eq!(s.backlog, (0, 0));
    }

    #[test]
    fn empty_trace_is_a_clean_zero() {
        let (g, _) = chain(3);
        let ol = OpenLoopConfig::new(10, 50);
        let r = run_open_loop(&g, None, &[], &SimConfig::new(1), &ol);
        let s = r.open_loop.unwrap();
        assert_eq!(s.offered_msgs, 0);
        assert_eq!(s.accepted_msgs, 0);
        assert!(!s.saturated);
        assert_eq!(s.latency, LatencyStats::default());
    }

    #[test]
    fn engines_agree_on_capped_open_loop_runs() {
        // Open-loop runs end at the step cap under saturation; the event
        // engine's jumps and arithmetic stall top-ups must land on the
        // same capped partial state the legacy stepper walks to. (The
        // windowed stats are pure derivation, so execution equality is
        // the whole claim.)
        use crate::config::Engine;
        let (g, edges) = chain(5);
        for (l, gap) in [(4u32, 1u64), (3, 2), (2, 25)] {
            let specs = periodic(&edges, l, gap, 600);
            let ol = OpenLoopConfig::new(100, 400);
            let cfg = SimConfig::new(1).max_steps(600);
            let ev = run_open_loop(&g, None, &specs, &cfg, &ol);
            let lg = run_open_loop(&g, None, &specs, &cfg.clone().engine(Engine::Legacy), &ol);
            assert!(
                ev.same_execution(&lg),
                "engines diverged at L={l} gap={gap}"
            );
        }
    }

    #[test]
    fn engines_agree_on_pooled_open_loop_runs() {
        // Saturated open-loop traffic under router-pooled VC allocation:
        // the router-keyed park/wake path runs hot here, and the capped
        // partial state must still match the legacy stepper exactly.
        use crate::config::{Engine, VcPolicy};
        let (g, edges) = chain(5);
        for (pool, min, max) in [(2u32, 1u32, 2u32), (3, 1, 3), (4, 2, 3)] {
            let specs = periodic(&edges, 4, 1, 600);
            let ol = OpenLoopConfig::new(100, 400);
            let cfg = SimConfig::new(1)
                .vc_policy(VcPolicy::pooled(pool, min, max))
                .max_steps(600);
            let ev = run_open_loop(&g, None, &specs, &cfg, &ol);
            let lg = run_open_loop(&g, None, &specs, &cfg.clone().engine(Engine::Legacy), &ol);
            assert!(
                ev.same_execution(&lg),
                "pooled engines diverged at pool={pool} min={min} max={max}"
            );
            assert!(ev.open_loop.unwrap().saturated, "overload must saturate");
        }
    }

    #[test]
    fn config_builder_and_cap() {
        let ol = OpenLoopConfig::new(10, 20);
        assert_eq!(ol.window_end(), 30);
        assert_eq!(ol.step_cap(), 60);
    }
}
