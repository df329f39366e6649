//! Simulation results and statistics.

use crate::events::DeadlockReport;

/// How a simulation run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Every message finished, or was discarded by a fault kill
    /// ([`DiscardReason::LinkDown`]).
    Completed,
    /// No worm could move and none will ever move again: deadlock. Contains
    /// the ids of the blocked messages (a wait-for cycle exists among them).
    Deadlock(Vec<u32>),
    /// The step cap was reached with unfinished messages.
    MaxSteps,
}

/// Why a run requested under one [`crate::config::Engine`] was executed
/// by another. No such reason is left — every engine runs every
/// configuration — so the type has no variants and no value of it can
/// exist; it stays, with [`SimResult::engine_fallback`], only until the
/// benchmark package that still reads them can drop them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineFallback {}

impl EngineFallback {
    /// Short lowercase name for tables.
    pub fn name(self) -> &'static str {
        match self {}
    }
}

/// What the engine did to produce a result, as opposed to what it
/// simulated: attached as [`SimResult::engine_stats`] and excluded from
/// [`SimResult::same_execution`]. Every count is deterministic for fixed
/// inputs, region plan and worker count. The event driver fills the
/// step / park / contest counters — under
/// [`crate::config::Engine::EventDriven`] for the run's one core, under
/// [`crate::config::Engine::Parallel`] summed over the regions — and the
/// partitioned engine's coordinator the window / region ones, which stay
/// zero under the sequential engine. The legacy stepper reports none.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Windows the coordinator granted: each is one pass over every
    /// region and, with more than one worker, two barrier waits.
    pub windows: u64,
    /// Flit steps those windows covered, each counted up to the last
    /// step that moved a worm (so the open-ended grant of a final drain
    /// counts what it simulated); `window_steps / windows` is the mean
    /// window length.
    pub window_steps: u64,
    /// Of `windows`, those granted a single step: a worm near a cut, or
    /// a reactive source.
    pub one_step_windows: u64,
    /// Worms moved from one region to another between windows.
    pub handoffs: u64,
    /// Regions the run stepped, one a worker: `min(workers, plan
    /// regions)`. With fewer workers than the plan has regions, each
    /// steps a block of adjacent plan regions merged into one before
    /// step 0.
    pub regions: u32,
    /// Steps the event driver stepped worm by worm — those it did not
    /// jump (all worms draining, an idle network) or sit out frozen.
    pub steps_executed: u64,
    /// Times a blocked worm was parked on the wait queue. A worm parks
    /// once per edge it finds full: losing a contest does not re-park it.
    pub parks: u64,
    /// Wait keys arbitrated in place: a release made the key hot, and
    /// the next executed step entered its waiters. A waiter leaves every
    /// key it waited on when it wins or is killed, so a contest is held
    /// only where somebody waits — a key a kill emptied after it turned
    /// hot is cooled without one.
    pub contests: u64,
    /// Waiters those contests entered into a step's arbitration from
    /// where they wait — frozen-route worms in the runs of their keys,
    /// whole, pending adaptive heads one by one for the hop they select
    /// from their watch row — each at most once a step.
    pub waiters_entered: u64,
    /// Of `waiters_entered`, those that won their edge and left the
    /// queue; the rest (`waiters_entered − waiters_won`) lost and stayed
    /// parked.
    pub waiters_won: u64,
    /// Of `waiters_entered`, the pending adaptive heads.
    pub pending_entered: u64,
}

impl EngineStats {
    /// Adds the event driver's counters of `from` — one region's, when
    /// the run ends.
    pub(crate) fn add_driver_counts(&mut self, from: &EngineStats) {
        self.steps_executed += from.steps_executed;
        self.parks += from.parks;
        self.contests += from.contests;
        self.waiters_entered += from.waiters_entered;
        self.waiters_won += from.waiters_won;
        self.pending_entered += from.pending_entered;
    }
}

/// Why a message was discarded. A blocked worm stalls, so the one reason
/// is a fault kill's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiscardReason {
    /// A link on the worm's path was killed by a fault
    /// (`SimConfig::faults`): it held a dead edge, its frozen remaining
    /// path crossed one, or its escape hop died with no alternative.
    LinkDown,
}

/// Per-message result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MessageOutcome {
    /// Flit step (end-of-step time) at which the last flit was delivered.
    pub finished: Option<u64>,
    /// Flit step at which the header first advanced.
    pub first_move: Option<u64>,
    /// Number of steps the worm was blocked wanting to move.
    pub stalls: u64,
    /// `Some(reason)` if the message was discarded: a fault killed its
    /// path ([`DiscardReason::LinkDown`]).
    pub discarded: Option<DiscardReason>,
}

impl MessageOutcome {
    /// Latency from `release` to delivery, if delivered.
    pub fn latency(&self, release: u64) -> Option<u64> {
        self.finished.map(|f| f - release)
    }
}

/// Latency distribution summary over a set of delivered messages.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of latency samples.
    pub n: usize,
    /// Mean latency in flit steps.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum observed latency.
    pub max: u64,
}

impl LatencyStats {
    /// Summarizes a sample of latencies (need not be sorted). Returns the
    /// zero summary on an empty slice.
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut xs = samples.to_vec();
        xs.sort_unstable();
        let pct = |p: usize| xs[(xs.len() * p / 100).min(xs.len() - 1)];
        Self {
            n: xs.len(),
            mean: xs.iter().sum::<u64>() as f64 / xs.len() as f64,
            p50: pct(50),
            p95: pct(95),
            p99: pct(99),
            max: *xs.last().unwrap(),
        }
    }
}

/// Open-loop (continuous-injection) measurement attached to a
/// [`SimResult`] by [`crate::open_loop::run_open_loop`]. All windowed
/// quantities refer to the configured measurement window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpenLoopStats {
    /// First step of the measurement window (= warmup length).
    pub window_start: u64,
    /// Length of the measurement window in flit steps.
    pub window_len: u64,
    /// Messages released inside the measurement window.
    pub offered_msgs: usize,
    /// Of those, messages delivered before the simulation ended.
    pub delivered_msgs: usize,
    /// Latency summary over the delivered measurement-window messages
    /// (release → last flit delivered).
    pub latency: LatencyStats,
    /// Messages *finished* inside the measurement window (any release),
    /// the basis of the accepted-throughput figure.
    pub accepted_msgs: usize,
    /// Accepted throughput: flits of messages finished inside the window,
    /// per flit step (divide by the endpoint count for the usual
    /// per-endpoint normalization).
    pub accepted_flits_per_step: f64,
    /// Offered load inside the window, messages per flit step.
    pub offered_msgs_per_step: f64,
    /// In-flight backlog (released, not yet finished) at the start and
    /// end of the measurement window: a growing backlog is saturation.
    pub backlog: (usize, usize),
    /// Saturation verdict: the network failed to accept the offered load
    /// over the window — it accepted under 0.95 of it, or the backlog
    /// grew (see [`crate::open_loop`]).
    pub saturated: bool,
}

/// Closed-loop measurement attached to a [`SimResult`] by a run driven
/// through a windowed closed-loop source (see
/// `wormhole_workloads::closed_loop`). A *chain* is one request→reply
/// round trip owned by a client slot; a slot is *backlogged* (busy)
/// while its chain is in flight and *thinking* between chains.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClosedLoopStats {
    /// Number of client endpoints driving the run.
    pub clients: usize,
    /// Outstanding-request window per client (slots).
    pub window: u32,
    /// Requests issued over the run (including in-flight at the end).
    pub requests_issued: u64,
    /// Request→reply chains completed (the reply was delivered).
    pub chains_completed: u64,
    /// Latency summary over completed chains, request release → reply
    /// delivery.
    pub chain_latency: LatencyStats,
    /// Per-client think time: slot-steps spent idle between chains.
    /// Indexed like the source's client list.
    pub per_client_think: Vec<u64>,
    /// Per-client backlog time: slot-steps with a chain outstanding
    /// (in-flight chains are charged up to the measurement horizon).
    pub per_client_backlog: Vec<u64>,
}

impl ClosedLoopStats {
    /// Total think steps across clients.
    pub fn total_think(&self) -> u64 {
        self.per_client_think.iter().sum()
    }

    /// Total backlog (busy) steps across clients.
    pub fn total_backlog(&self) -> u64 {
        self.per_client_backlog.iter().sum()
    }

    /// Structural in-flight ceiling: no more than `clients × window`
    /// messages can ever be in the network at once.
    pub fn outstanding_bound(&self) -> u64 {
        self.clients as u64 * self.window as u64
    }
}

/// Aggregate result of a simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Completion status.
    pub outcome: Outcome,
    /// Makespan: the end-of-step time of the last delivery (steps simulated
    /// if the run did not complete).
    pub total_steps: u64,
    /// Per-message outcomes, indexed like the input specs.
    pub messages: Vec<MessageOutcome>,
    /// Maximum number of VCs simultaneously in use on any edge (≤ B
    /// under [`crate::config::VcPolicy::Static`], ≤ `per_edge_max`
    /// under [`crate::config::VcPolicy::RouterPooled`]).
    pub max_vcs_in_use: u32,
    /// Maximum number of VCs simultaneously in use across the outgoing
    /// edges of any single router — the pool-occupancy high-water mark
    /// under [`crate::config::VcPolicy::RouterPooled`] (≤ `pool`), and
    /// the same per-router sum under the static policy (≤ `B · fanout`).
    /// Sampled at end of step, like [`SimResult::max_vcs_in_use`], so it
    /// is engine-identical. Tracked by the wormhole engines only; the
    /// comparison steppers ([`crate::cut_through`],
    /// [`crate::restricted`]) report 0.
    pub max_pool_in_use: u32,
    /// Total blocked-step count across messages.
    pub total_stalls: u64,
    /// Total flit-edge crossings performed (a work measure).
    pub flit_hops: u64,
    /// Adaptive runs: number of worms that fell back onto the
    /// Dally–Seitz escape network (all adaptive candidates full at
    /// selection time). Always 0 under
    /// [`crate::config::RouteSelection::Oblivious`].
    pub escape_fallbacks: u64,
    /// Adaptive runs: total non-minimal (misroute) hops taken, summed
    /// over messages. Nonzero only under
    /// [`crate::config::RouteSelection::FullyAdaptive`].
    pub misroute_hops: u64,
    /// Faulted runs: number of edge kills from `SimConfig::faults`
    /// actually applied before the run ended.
    pub kills_applied: u64,
    /// Faulted runs: messages discarded with
    /// [`DiscardReason::LinkDown`] — their path died under them.
    pub fault_discards: u64,
    /// Faulted runs: non-minimal hops taken *after* the first applied
    /// kill — the detour work faults induced (a sub-count of
    /// [`SimResult::misroute_hops`]).
    pub fault_detour_hops: u64,
    /// Faulted runs: steps from the last applied kill to the first
    /// delivery at or after it — how quickly traffic flowed again once
    /// the network stopped breaking. 0 when nothing was delivered after
    /// the last kill (or no kill was applied).
    pub fault_recovery_steps: u64,
    /// On [`Outcome::Deadlock`]: the wait-for post-mortem (who waits on
    /// which edge held by whom, plus a concrete cycle).
    pub deadlock: Option<DeadlockReport>,
    /// Open-loop windowed measurement; `Some` only for runs produced by
    /// [`crate::open_loop::run_open_loop`].
    pub open_loop: Option<OpenLoopStats>,
    /// Closed-loop chain measurement; `Some` only for runs driven by a
    /// closed-loop [`crate::source::TrafficSource`] through a runner
    /// that attaches it (derived bookkeeping, like
    /// [`SimResult::open_loop`] — excluded from
    /// [`SimResult::same_execution`]).
    pub closed_loop: Option<ClosedLoopStats>,
    /// Always `None`: the configured engine runs every configuration
    /// itself (see [`EngineFallback`]).
    pub engine_fallback: Option<EngineFallback>,
    /// The engine's own counters (see [`EngineStats`]); `None` only
    /// under [`crate::config::Engine::Legacy`], which keeps none. Not
    /// part of the execution — excluded from
    /// [`SimResult::same_execution`].
    pub engine_stats: Option<EngineStats>,
}

impl SimResult {
    /// Result of a comparison-model stepper ([`crate::cut_through`],
    /// [`crate::restricted`]): `steps` is the step the loop stopped at,
    /// `last_finish` the latest delivery, `max_occupancy` whatever the
    /// model reports as [`SimResult::max_vcs_in_use`]. Everything only the
    /// wormhole engines track (pools, adaptive and fault counters, the
    /// deadlock report) is zero / `None`.
    pub(crate) fn baseline(
        outcome: Outcome,
        steps: u64,
        last_finish: u64,
        messages: Vec<MessageOutcome>,
        max_occupancy: u32,
        flit_hops: u64,
    ) -> Self {
        let total_steps = match outcome {
            Outcome::Completed => last_finish,
            _ => steps,
        };
        Self {
            outcome,
            total_steps,
            total_stalls: messages.iter().map(|o| o.stalls).sum(),
            messages,
            max_vcs_in_use: max_occupancy,
            max_pool_in_use: 0,
            flit_hops,
            escape_fallbacks: 0,
            misroute_hops: 0,
            kills_applied: 0,
            fault_discards: 0,
            fault_detour_hops: 0,
            fault_recovery_steps: 0,
            deadlock: None,
            open_loop: None,
            closed_loop: None,
            engine_fallback: None,
            engine_stats: None,
        }
    }

    /// Field-for-field execution equality over everything the simulator
    /// computes (`open_loop` and `closed_loop` excluded — both are
    /// derived windowing, attached after the run — and `engine_stats`,
    /// which counts the engine's work, not the network's). This is
    /// the differential-oracle relation all engines
    /// ([`crate::config::Engine`]) must satisfy on every workload.
    pub fn same_execution(&self, other: &SimResult) -> bool {
        self.outcome == other.outcome
            && self.total_steps == other.total_steps
            && self.messages == other.messages
            && self.max_vcs_in_use == other.max_vcs_in_use
            && self.max_pool_in_use == other.max_pool_in_use
            && self.total_stalls == other.total_stalls
            && self.flit_hops == other.flit_hops
            && self.escape_fallbacks == other.escape_fallbacks
            && self.misroute_hops == other.misroute_hops
            && self.kills_applied == other.kills_applied
            && self.fault_discards == other.fault_discards
            && self.fault_detour_hops == other.fault_detour_hops
            && self.fault_recovery_steps == other.fault_recovery_steps
            && self.deadlock == other.deadlock
    }

    /// Number of delivered messages.
    pub fn delivered(&self) -> usize {
        self.messages
            .iter()
            .filter(|m| m.finished.is_some())
            .count()
    }

    /// Number of discarded messages (any [`DiscardReason`]).
    pub fn discarded(&self) -> usize {
        self.messages
            .iter()
            .filter(|m| m.discarded.is_some())
            .count()
    }

    /// Messages neither delivered nor discarded — in flight (or never
    /// released) when the run ended. Nonzero only on
    /// [`Outcome::MaxSteps`] / [`Outcome::Deadlock`] runs; step-capped
    /// faulted runs use this to report survivors distinctly from
    /// fault-discarded worms.
    pub fn in_flight(&self) -> usize {
        self.messages
            .iter()
            .filter(|m| m.finished.is_none() && m.discarded.is_none())
            .count()
    }

    /// Largest delivery time, `None` if nothing was delivered.
    pub fn makespan(&self) -> Option<u64> {
        self.messages.iter().filter_map(|m| m.finished).max()
    }

    /// Mean latency over delivered messages, given the release times.
    pub fn mean_latency(&self, releases: &[u64]) -> Option<f64> {
        let mut sum = 0u64;
        let mut cnt = 0u64;
        for (m, &r) in self.messages.iter().zip(releases) {
            if let Some(l) = m.latency(r) {
                sum += l;
                cnt += 1;
            }
        }
        (cnt > 0).then(|| sum as f64 / cnt as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregations() {
        let r = SimResult {
            outcome: Outcome::Completed,
            total_steps: 30,
            messages: vec![
                MessageOutcome {
                    finished: Some(10),
                    first_move: Some(1),
                    stalls: 2,
                    discarded: None,
                },
                MessageOutcome {
                    finished: None,
                    first_move: None,
                    stalls: 0,
                    discarded: Some(DiscardReason::LinkDown),
                },
                MessageOutcome {
                    finished: Some(30),
                    first_move: Some(0),
                    stalls: 0,
                    discarded: None,
                },
            ],
            max_vcs_in_use: 2,
            max_pool_in_use: 2,
            total_stalls: 2,
            flit_hops: 99,
            escape_fallbacks: 0,
            misroute_hops: 0,
            kills_applied: 0,
            fault_discards: 0,
            fault_detour_hops: 0,
            fault_recovery_steps: 0,
            deadlock: None,
            open_loop: None,
            closed_loop: None,
            engine_fallback: None,
            engine_stats: None,
        };
        assert_eq!(r.delivered(), 2);
        assert_eq!(r.discarded(), 1);
        assert_eq!(r.in_flight(), 0);
        assert_eq!(r.makespan(), Some(30));
        let lat = r.mean_latency(&[0, 0, 10]).unwrap();
        assert!((lat - 15.0).abs() < 1e-9); // (10 + 20)/2
    }

    #[test]
    fn latency_of_unfinished_is_none() {
        let m = MessageOutcome::default();
        assert_eq!(m.latency(5), None);
    }

    #[test]
    fn latency_stats_percentiles() {
        let s = LatencyStats::from_samples(&[5, 1, 3, 2, 4]);
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.p50, 3);
        assert_eq!(s.p95, 5);
        assert_eq!(s.p99, 5);
        assert_eq!(s.max, 5);
        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
    }
}
