//! Closed-loop clients: finite outstanding-request windows and
//! request→reply dependency chains.
//!
//! Open-loop injection offers load regardless of what the network
//! delivers — past the saturation knee the backlog (and therefore the
//! measured latency) grows without bound. Real services are *closed*:
//! a client keeps at most `window` requests outstanding, each reply
//! spawns the next request after a think time, and congestion therefore
//! throttles injection instead of inflating a queue. The two
//! methodologies diverge exactly at the knee, which is where
//! virtual-channel benefit is decided — experiment `x11_closed_loop`
//! plots the divergence.
//!
//! [`ClosedLoopSource`] implements the
//! [`TrafficSource`] pull contract: each of `clients × window` slots
//! runs an independent chain *request → (server think) → reply →
//! (client think) → next request*, with every random draw taken from
//! the slot's own seeded RNG in chain order. Because the simulator
//! flushes deliveries in canonical `(time, id)` order before any poll
//! (see `wormhole_flitsim::source`), the whole run is deterministic per
//! seed and bit-identical across engines.
//!
//! The schedule — what is due when — is a timing wheel of
//! `clients × window` buckets (rounded up to a power of two), one per
//! step of a lap. A chain slot has at most one message scheduled at any
//! time, so the wheel holds at most one entry a bucket on average, its
//! buckets are reused for the whole run, and a message costs the source
//! one allocation: its route.
//!
//! The source tells the simulator how many ids to expect
//! ([`TrafficSource::id_hint`], a bound on a fault-free run's messages
//! derived from the config), so the simulator's per-message tables and
//! the source's own are sized once instead of growing as messages
//! appear. The hint only sizes: it refuses no id and pads no result, and
//! a faulted run that reissues past it grows the tables from there. A
//! message gives its route back when it is delivered or discarded and
//! keeps only its outcome, so a run holds the routes of the at most
//! `clients · window` messages in flight (a slot has one at a time), not
//! of every message it made.

use rand::prelude::*;
use rand::rngs::StdRng;

use wormhole_flitsim::config::SimConfig;
use wormhole_flitsim::message::MessageSpec;
use wormhole_flitsim::open_loop::{windowed_stats_from, OpenLoopConfig};
use wormhole_flitsim::source::TrafficSource;
use wormhole_flitsim::stats::{ClosedLoopStats, LatencyStats, SimResult};
use wormhole_flitsim::wormhole;

use crate::mix;
use crate::substrate::Substrate;
use crate::wheel::TimingWheel;

/// Salt separating slot RNG streams from the open-loop endpoint streams.
const SLOT_STREAM_SALT: u64 = 0x636c_6f73_6564_6c70;

/// The most ids [`ClosedLoopSource::id_hint`] announces (2²⁴), so that a
/// huge horizon cannot make the simulator reserve more address space
/// than a host grants; a run past it grows its tables as it goes.
const ID_HINT_CAP: u64 = 1 << 24;

/// A closed-loop client/server workload over a [`Substrate`].
///
/// The first `clients` endpoints are clients, the last `servers`
/// endpoints are servers (the partitions must not overlap). Each client
/// owns `window` chain slots; a slot issues a `req_len`-flit request to
/// a uniformly drawn server, the server replies with `reply_len` flits
/// after a uniform `server_delay`, and the slot issues its next request
/// a uniform `think` after the reply lands — until a request would be
/// released at or after `horizon`.
#[derive(Clone, Debug)]
pub struct ClosedLoopConfig {
    /// Number of client endpoints (endpoints `0..clients`).
    pub clients: u32,
    /// Number of server endpoints (the last `servers` endpoints).
    pub servers: u32,
    /// Outstanding-request window (chain slots) per client.
    pub window: u32,
    /// Request length in flits.
    pub req_len: u32,
    /// Reply length in flits.
    pub reply_len: u32,
    /// Client think time between a reply and the next request,
    /// uniform in `think.0..=think.1` steps.
    pub think: (u64, u64),
    /// Server service time between a request and its reply, uniform in
    /// `server_delay.0..=server_delay.1` steps.
    pub server_delay: (u64, u64),
    /// Initial per-slot release jitter, uniform in `0..=start_spread`
    /// (desynchronizes the first wave of requests).
    pub start_spread: u64,
    /// No request is released at or after this step; in-flight chains
    /// may still finish.
    pub horizon: u64,
    /// Master seed; every slot derives an independent stream from it.
    pub seed: u64,
}

impl ClosedLoopConfig {
    fn validate(&self, sub: &Substrate) {
        assert!(self.clients >= 1 && self.servers >= 1, "empty partition");
        assert!(
            self.clients as u64 + self.servers as u64 <= sub.endpoints() as u64,
            "client ({}) and server ({}) partitions overlap on {} endpoints",
            self.clients,
            self.servers,
            sub.endpoints()
        );
        assert!(self.window >= 1, "window must be at least 1");
        assert!(
            self.req_len >= 1 && self.reply_len >= 1,
            "zero-flit message"
        );
        assert!(self.think.0 <= self.think.1, "empty think range");
        assert!(
            self.server_delay.0 <= self.server_delay.1,
            "empty server_delay range"
        );
        assert!(self.horizon >= 1, "empty horizon");
    }
}

/// Which half of a chain a scheduled message is.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Client → server; delivery schedules the reply.
    Request,
    /// Server → client; delivery completes the chain.
    Reply,
}

/// A message scheduled for a future (or current) release.
#[derive(Clone, Copy, Debug)]
struct Scheduled {
    client: u32,
    slot: u32,
    server: u32,
    kind: Kind,
}

/// Per-emitted-message bookkeeping (indexed by message id).
#[derive(Clone, Copy, Debug)]
struct MsgMeta {
    release: u64,
    length: u32,
    sched: Scheduled,
}

/// What a chain slot is doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotPhase {
    /// Waiting for a scheduled request release or thinking after a
    /// reply.
    Idle,
    /// A chain is in flight; payload is the request's release step.
    InFlight(u64),
    /// The horizon passed; the slot issues no further requests.
    Retired,
}

/// Per-slot chain state.
struct SlotState {
    rng: StdRng,
    phase: SlotPhase,
}

/// The pull-based closed-loop source. See the module docs; drive it with
/// [`run_closed_loop`] (or `wormhole::run_source` directly) and read the
/// result's [`SimResult::closed_loop`].
pub struct ClosedLoopSource<'a> {
    sub: &'a Substrate,
    cfg: ClosedLoopConfig,
    /// Slot states, indexed `client * window + slot`.
    slots: Vec<SlotState>,
    /// Scheduled emissions by release step; they leave in `(release,
    /// scheduling order)` and ids are assigned in that order, so
    /// `(release, id)` emission order holds by construction.
    sched: TimingWheel<Scheduled>,
    next_id: u32,
    meta: Vec<MsgMeta>,
    requests_issued: u64,
    chains_completed: u64,
    chain_latencies: Vec<u64>,
    /// Completed-chain busy steps per client.
    backlog: Vec<u64>,
}

impl<'a> ClosedLoopSource<'a> {
    /// Builds the source and schedules every slot's first request. Its
    /// per-message tables are sized once, to [`id_hint`](Self::id_hint)
    /// messages and half as many chains.
    pub fn new(sub: &'a Substrate, cfg: &ClosedLoopConfig) -> Self {
        cfg.validate(sub);
        let mut s = Self {
            sub,
            cfg: cfg.clone(),
            slots: Vec::new(),
            sched: TimingWheel::new(cfg.clients as usize * cfg.window as usize),
            next_id: 0,
            meta: Vec::new(),
            requests_issued: 0,
            chains_completed: 0,
            chain_latencies: Vec::new(),
            backlog: vec![0; cfg.clients as usize],
        };
        let hint = s.id_hint() as usize;
        s.meta.reserve_exact(hint);
        s.chain_latencies.reserve_exact(hint / 2);
        for c in 0..cfg.clients {
            for slot in 0..cfg.window {
                let mut rng = StdRng::seed_from_u64(mix(mix(cfg.seed ^ SLOT_STREAM_SALT, c), slot));
                let offset = rng.random_range(0..=cfg.start_spread);
                s.slots.push(SlotState {
                    rng,
                    phase: SlotPhase::Idle,
                });
                s.schedule_request(c, slot, offset);
            }
        }
        s
    }

    #[inline]
    fn slot_idx(&self, client: u32, slot: u32) -> usize {
        (client * self.cfg.window + slot) as usize
    }

    /// Endpoint id of server index `k`.
    #[inline]
    fn server_endpoint(&self, k: u32) -> u32 {
        self.sub.endpoints() - self.cfg.servers + k
    }

    /// Draws the slot's next server and schedules its request, unless
    /// the release falls at or past the horizon (the slot retires).
    fn schedule_request(&mut self, client: u32, slot: u32, release: u64) {
        let si = self.slot_idx(client, slot);
        if release >= self.cfg.horizon {
            self.slots[si].phase = SlotPhase::Retired;
            return;
        }
        let k = self.slots[si].rng.random_range(0..self.cfg.servers);
        let server = self.server_endpoint(k);
        debug_assert!(self.sub.injects(client, server), "partitions overlap");
        self.sched.push(
            release,
            Scheduled {
                client,
                slot,
                server,
                kind: Kind::Request,
            },
        );
    }

    /// Finalizes the run's chain statistics, charging chains still in
    /// flight up to `end` (the measured horizon: a saturated closed
    /// loop's outstanding chains are backlog, not noise).
    pub fn stats(&self, end: u64) -> ClosedLoopStats {
        let mut backlog = self.backlog.clone();
        for c in 0..self.cfg.clients {
            for slot in 0..self.cfg.window {
                if let SlotPhase::InFlight(start) = self.slots[self.slot_idx(c, slot)].phase {
                    backlog[c as usize] += end.saturating_sub(start);
                }
            }
        }
        let think = backlog
            .iter()
            .map(|&b| (self.cfg.window as u64 * end).saturating_sub(b))
            .collect();
        ClosedLoopStats {
            clients: self.cfg.clients as usize,
            window: self.cfg.window,
            requests_issued: self.requests_issued,
            chains_completed: self.chains_completed,
            chain_latency: LatencyStats::from_samples(&self.chain_latencies),
            per_client_think: think,
            per_client_backlog: backlog,
        }
    }

    /// `(release, length)` of emitted message `id` — windowed-stats
    /// metadata.
    pub fn released(&self, id: usize) -> (u64, u32) {
        let m = &self.meta[id];
        (m.release, m.length)
    }

    /// Number of messages emitted so far.
    pub fn emitted(&self) -> usize {
        self.meta.len()
    }

    /// Number of chain slots still in flight — chains that neither
    /// completed nor retired cleanly. Zero after a faulted run means
    /// every severed half-chain was reissued and completed; nonzero
    /// counts chains wedged on a dead edge (a reissue takes the same
    /// canonical route).
    pub fn open_chains(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.phase, SlotPhase::InFlight(_)))
            .count()
    }
}

impl TrafficSource for ClosedLoopSource<'_> {
    fn next_release(&mut self, _now: u64) -> Option<u64> {
        self.sched.peek()
    }

    fn take_ready(&mut self, now: u64, out: &mut Vec<(u32, MessageSpec)>) {
        while let Some((release, sched)) = self.sched.pop_due(now) {
            let (src, dst, length) = match sched.kind {
                Kind::Request => (sched.client, sched.server, self.cfg.req_len),
                Kind::Reply => (sched.server, sched.client, self.cfg.reply_len),
            };
            if let Kind::Request = sched.kind {
                let si = self.slot_idx(sched.client, sched.slot);
                // A fault-retried request keeps the chain's original
                // start; only a fresh chain opens a new latency window.
                if !matches!(self.slots[si].phase, SlotPhase::InFlight(_)) {
                    self.slots[si].phase = SlotPhase::InFlight(release);
                }
                self.requests_issued += 1;
            }
            let spec = MessageSpec::new(self.sub.route(src, dst), length).release_at(release);
            self.meta.push(MsgMeta {
                release,
                length,
                sched,
            });
            out.push((self.next_id, spec));
            self.next_id += 1;
        }
    }

    fn on_delivered(&mut self, id: u32, finished: u64) {
        let m = self.meta[id as usize];
        let si = self.slot_idx(m.sched.client, m.sched.slot);
        match m.sched.kind {
            Kind::Request => {
                // The server turns the request around after its service
                // time; zero delay means the reply releases the same
                // step the delivery is flushed (never in the past).
                let (lo, hi) = self.cfg.server_delay;
                let delay = self.slots[si].rng.random_range(lo..=hi);
                self.sched.push(
                    finished + delay,
                    Scheduled {
                        kind: Kind::Reply,
                        ..m.sched
                    },
                );
            }
            Kind::Reply => {
                let start = match self.slots[si].phase {
                    SlotPhase::InFlight(start) => start,
                    other => panic!("reply for a slot in phase {other:?}"),
                };
                self.chains_completed += 1;
                self.chain_latencies.push(finished - start);
                self.backlog[m.sched.client as usize] += finished - start;
                self.slots[si].phase = SlotPhase::Idle;
                let (lo, hi) = self.cfg.think;
                let think = self.slots[si].rng.random_range(lo..=hi);
                self.schedule_request(m.sched.client, m.sched.slot, finished + think);
            }
        }
    }

    fn on_discarded(&mut self, id: u32, t: u64) {
        // A discarded half-chain is reissued (same endpoints, fresh
        // message id) one step later; the chain keeps its original
        // start, so the retry cost shows up in the chain latency. At or
        // past the horizon nothing new is issued — the chain stays
        // in flight and is charged as backlog, matching the
        // request-issue horizon rule (and bounding the retry loop of a
        // chain whose canonical route crosses a dead edge: every reissue
        // takes that route again).
        let m = self.meta[id as usize];
        if t + 1 >= self.cfg.horizon {
            return;
        }
        self.sched.push(t + 1, m.sched);
    }

    fn reactive(&self) -> bool {
        true
    }

    /// `clients · window · 2 · (horizon / chain + 1)` ids, where `chain =
    /// req_len + reply_len + server_delay.0 + think.0`, capped at 2²⁴.
    ///
    /// Every message crosses at least one hop, so it finishes at least
    /// its length after its release. A slot's reply is released at least
    /// `req_len + server_delay.0` after its request, and its next request
    /// at least `reply_len + think.0` after that: its requests are at
    /// least `chain` steps apart. Requests are released in `0..horizon`,
    /// so a slot issues at most `horizon / chain + 1` of them, each with
    /// one reply. That bounds a fault-free run's ids. A faulted run's
    /// reissues may go past it, and the simulator's tables then grow as
    /// they would without a hint. The figure is computed in saturating
    /// arithmetic and capped, so a huge horizon asks for no more than
    /// 2²⁴ ids.
    fn id_hint(&self) -> u32 {
        let cfg = &self.cfg;
        let chain = (cfg.req_len as u64 + cfg.reply_len as u64)
            .saturating_add(cfg.server_delay.0)
            .saturating_add(cfg.think.0);
        let per_slot = (cfg.horizon / chain).saturating_add(1).saturating_mul(2);
        let slots = cfg.clients as u64 * cfg.window as u64;
        slots.saturating_mul(per_slot).min(ID_HINT_CAP) as u32
    }
}

/// Runs a closed-loop workload to the open-loop step cap, attaching both
/// the windowed [`SimResult::open_loop`] measurement (over the emitted
/// requests *and* replies) and the chain-level
/// [`SimResult::closed_loop`] statistics.
pub fn run_closed_loop(
    sub: &Substrate,
    cfg: &ClosedLoopConfig,
    sim_cfg: &SimConfig,
    ol: &OpenLoopConfig,
) -> SimResult {
    let mut capped = sim_cfg.clone();
    capped.max_steps = capped.max_steps.min(ol.step_cap());
    let mut source = ClosedLoopSource::new(sub, cfg);
    let mut result = wormhole::run_source(sub.graph(), &mut source, &capped);
    let end = result.total_steps;
    result.open_loop = Some(windowed_stats_from(
        source
            .meta
            .iter()
            .zip(&result.messages)
            .map(|(m, o)| (m.release, m.length, o.finished)),
        ol,
    ));
    result.closed_loop = Some(source.stats(end));
    result
}

#[cfg(test)]
mod btree_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_flitsim::config::Engine;
    use wormhole_flitsim::stats::Outcome;
    use wormhole_topology::fault::FaultPlan;

    fn small_cfg(window: u32, horizon: u64) -> ClosedLoopConfig {
        ClosedLoopConfig {
            clients: 4,
            servers: 4,
            window,
            req_len: 2,
            reply_len: 4,
            think: (2, 6),
            server_delay: (1, 3),
            start_spread: 8,
            horizon,
            seed: 11,
        }
    }

    #[test]
    fn chains_complete_and_self_limit() {
        let sub = Substrate::butterfly(3); // 8 endpoints
        let cfg = small_cfg(2, 400);
        let ol = OpenLoopConfig::new(50, 300);
        let r = run_closed_loop(&sub, &cfg, &SimConfig::new(2).max_steps(550), &ol);
        assert_eq!(r.outcome, Outcome::Completed, "{:?}", r.outcome);
        let cl = r.closed_loop.unwrap();
        assert!(cl.chains_completed > 0, "{cl:?}");
        assert_eq!(cl.requests_issued, cl.chains_completed, "run drained");
        assert!(cl.chain_latency.p50 > 0);
        // The structural guarantee closed loops exist for: never more
        // than clients × window in flight.
        assert_eq!(cl.outstanding_bound(), 8);
        assert_eq!(cl.per_client_think.len(), 4);
        assert!(cl.total_think() > 0);
        assert!(cl.total_backlog() > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let sub = Substrate::butterfly(3);
        let cfg = small_cfg(2, 300);
        let ol = OpenLoopConfig::new(50, 200);
        let sim = SimConfig::new(2).max_steps(450);
        let a = run_closed_loop(&sub, &cfg, &sim, &ol);
        let b = run_closed_loop(&sub, &cfg, &sim, &ol);
        assert!(a.same_execution(&b));
        assert_eq!(a.closed_loop.unwrap(), b.closed_loop.unwrap());
    }

    #[test]
    fn engines_agree_on_closed_loop_runs() {
        // The reactive-source path pins the event engines' windows to
        // one step but keeps park/wake and idle jumps; the
        // delivery-flush canonicalization must make the engines (and
        // their derived chain stats) identical.
        let sub = Substrate::torus_with(4, 2, crate::RoutingDiscipline::DatelineClasses);
        let mut cfg = small_cfg(2, 300);
        cfg.clients = 6;
        cfg.servers = 6;
        let ol = OpenLoopConfig::new(50, 200);
        for b in [1u32, 2] {
            let sim = SimConfig::new(b).max_steps(450);
            let ev = run_closed_loop(&sub, &cfg, &sim, &ol);
            let lg = run_closed_loop(&sub, &cfg, &sim.clone().engine(Engine::Legacy), &ol);
            assert!(ev.same_execution(&lg), "engines diverged at B={b}");
            assert_eq!(ev.closed_loop.unwrap(), lg.closed_loop.unwrap());
        }
    }

    #[test]
    fn window_bounds_outstanding_requests() {
        // With zero think and zero server delay the loop runs as hot as
        // it can; in-flight messages still never exceed clients × window
        // (requests) + clients × window (replies).
        let sub = Substrate::butterfly(3);
        let cfg = ClosedLoopConfig {
            clients: 4,
            servers: 4,
            window: 1,
            req_len: 2,
            reply_len: 2,
            think: (0, 0),
            server_delay: (0, 0),
            start_spread: 0,
            horizon: 200,
            seed: 3,
        };
        let ol = OpenLoopConfig::new(20, 180);
        let r = run_closed_loop(&sub, &cfg, &SimConfig::new(1).max_steps(300), &ol);
        let cl = r.closed_loop.clone().unwrap();
        assert!(cl.chains_completed > 10);
        // Backlog at any instant is bounded by the window structure.
        let olstats = r.open_loop.unwrap();
        assert!(olstats.backlog.0 <= 2 * cl.outstanding_bound() as usize);
        assert!(olstats.backlog.1 <= 2 * cl.outstanding_bound() as usize);
    }

    /// The faulted Beneš: a middle-stage edge of each client's canonical
    /// route to its aligned server dies while the loop is in full swing,
    /// severing several chains at once; their reissues take the canonical
    /// route again and are discarded up to the horizon.
    fn faulted_benes() -> (Substrate, ClosedLoopConfig, FaultPlan) {
        let sub = Substrate::benes(3); // 8 endpoints
        let cfg = ClosedLoopConfig {
            clients: 4,
            servers: 4,
            window: 2,
            req_len: 4,
            reply_len: 4,
            think: (0, 2),
            server_delay: (0, 2),
            start_spread: 4,
            horizon: 300,
            seed: 7,
        };
        let mut plan = FaultPlan::new();
        let mut seen = Vec::new();
        for c in 0..cfg.clients {
            let p = sub.route(c, c + cfg.clients);
            let e = p.edges()[p.edges().len() / 2];
            if !seen.contains(&e) {
                seen.push(e);
                plan = plan.kill_link(40, e);
            }
        }
        (sub, cfg, plan)
    }

    /// The wedged butterfly: exactly one route per pair, so a killed edge
    /// wedges every chain crossing it for good, and its half-chains are
    /// reissued (and discarded on arrival) every step up to the horizon.
    fn wedged_butterfly() -> (Substrate, ClosedLoopConfig, FaultPlan) {
        let sub = Substrate::butterfly(3);
        let cfg = small_cfg(2, 200);
        let p = sub.route(0, 4);
        let plan = FaultPlan::new().kill_link(30, p.edges()[1]);
        (sub, cfg, plan)
    }

    /// One run of `cfg` over `sub` on `engine`, under `plan`'s kills if
    /// any, with the source's id hint shown or hidden ([`Unhinted`]): the
    /// result and the source it drained.
    fn run_on<'s>(
        sub: &'s Substrate,
        cfg: &ClosedLoopConfig,
        plan: Option<&FaultPlan>,
        engine: Engine,
        hinted: bool,
    ) -> (SimResult, ClosedLoopSource<'s>) {
        let mut sim = SimConfig::new(2).engine(engine);
        let mut src = ClosedLoopSource::new(sub, cfg);
        if let Some(plan) = plan {
            sim = sim.faults(plan.clone());
        }
        let r = if hinted {
            wormhole::run_source(sub.graph(), &mut src, &sim)
        } else {
            wormhole::run_source(sub.graph(), &mut Unhinted(&mut src), &sim)
        };
        (r, src)
    }

    #[test]
    fn faulted_butterfly_retries_stop_at_horizon() {
        // Retries are reissued until the horizon, then stop; the run
        // still drains, with the wedged chains left in flight as backlog
        // rather than spinning forever.
        let (sub, cfg, plan) = wedged_butterfly();
        let (r, src) = run_on(&sub, &cfg, Some(&plan), Engine::EventDriven, true);
        let cl = src.stats(r.total_steps);
        assert_eq!(r.outcome, Outcome::Completed, "{:?}", r.outcome);
        assert!(r.fault_discards > 0, "{r:?}");
        assert!(
            src.open_chains() > 0,
            "wedged chains never complete: {cl:?}"
        );
        assert!(cl.chains_completed > 0, "unaffected pairs keep looping");
        // The retry loop is bounded: reissues run right up to the
        // horizon and no further.
        assert!(r.total_steps + 1 >= cfg.horizon, "{}", r.total_steps);
        for engine in [Engine::Legacy, Engine::Parallel { threads: 2 }] {
            let (other, other_src) = run_on(&sub, &cfg, Some(&plan), engine, true);
            assert!(
                r.same_execution(&other),
                "{engine:?} diverged on wedged butterfly"
            );
            assert_eq!(cl, other_src.stats(other.total_steps));
        }
    }

    /// A source with its id hint hidden and everything else forwarded:
    /// what the simulator saw before sources could hint.
    struct Unhinted<'s, S>(&'s mut S);

    impl<S: TrafficSource> TrafficSource for Unhinted<'_, S> {
        fn next_release(&mut self, now: u64) -> Option<u64> {
            self.0.next_release(now)
        }

        fn take_ready(&mut self, now: u64, out: &mut Vec<(u32, MessageSpec)>) {
            self.0.take_ready(now, out)
        }

        fn on_delivered(&mut self, id: u32, finished: u64) {
            self.0.on_delivered(id, finished)
        }

        fn on_discarded(&mut self, id: u32, t: u64) {
            self.0.on_discarded(id, t)
        }

        fn reactive(&self) -> bool {
            self.0.reactive()
        }

        fn id_bound(&self) -> Option<u32> {
            self.0.id_bound()
        }
    }

    #[test]
    fn the_id_hint_changes_nothing_but_memory() {
        // A plain run, one whose reissues go past the hint (the tables
        // grow from there) and one whose discards give specs back.
        let fixtures = [
            (Substrate::butterfly(3), small_cfg(2, 300), None),
            {
                let (sub, cfg, plan) = wedged_butterfly();
                (sub, cfg, Some(plan))
            },
            {
                let (sub, cfg, plan) = faulted_benes();
                (sub, cfg, Some(plan))
            },
        ];
        let engines = [
            Engine::EventDriven,
            Engine::Legacy,
            Engine::Parallel { threads: 1 },
            Engine::Parallel { threads: 2 },
        ];
        let mut past_the_hint = false;
        for (i, (sub, cfg, plan)) in fixtures.iter().enumerate() {
            let ol = OpenLoopConfig::new(cfg.horizon / 4, cfg.horizon / 2);
            for engine in engines {
                let [hinted, bare] = [true, false].map(|hint| {
                    let (r, src) = run_on(sub, cfg, plan.as_ref(), engine, hint);
                    past_the_hint |= src.emitted() > src.id_hint() as usize;
                    let msgs = src.meta.iter().zip(&r.messages);
                    let windowed = windowed_stats_from(
                        msgs.map(|(m, o)| (m.release, m.length, o.finished)),
                        &ol,
                    );
                    (src.stats(r.total_steps), windowed, r)
                });
                assert!(
                    hinted.2.same_execution(&bare.2),
                    "fixture {i} on {engine:?}: the hint changed the run"
                );
                assert_eq!(hinted.0, bare.0, "fixture {i} on {engine:?}");
                assert_eq!(hinted.1, bare.1, "fixture {i} on {engine:?}");
            }
        }
        assert!(past_the_hint, "no fixture reissued past its hint");
    }

    #[test]
    fn the_id_hint_bounds_a_fault_free_run() {
        let subs = [
            Substrate::butterfly(3),
            Substrate::butterfly(4),
            Substrate::butterfly(5),
            Substrate::torus_with(4, 2, crate::RoutingDiscipline::DatelineClasses),
        ];
        for case in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let sub = &subs[case as usize % subs.len()];
            let clients = rng.random_range(1..=sub.endpoints() / 2);
            let think = rng.random_range(0u64..=6);
            let delay = rng.random_range(0u64..=4);
            // Every other case thinks a fixed time: its chains run close
            // to the shortest the hint assumes.
            let think_span: u64 = if case % 2 == 0 { 0 } else { 20 };
            let cfg = ClosedLoopConfig {
                clients,
                servers: rng.random_range(1..=sub.endpoints() - clients),
                window: rng.random_range(1u32..=4),
                req_len: rng.random_range(1u32..=6),
                reply_len: rng.random_range(1u32..=8),
                think: (think, think + rng.random_range(0..=think_span)),
                server_delay: (delay, delay + rng.random_range(0u64..=10)),
                start_spread: rng.random_range(0..=40),
                horizon: rng.random_range(1..=600),
                seed: case,
            };
            let mut src = ClosedLoopSource::new(sub, &cfg);
            let r = wormhole::run_source(sub.graph(), &mut src, &SimConfig::new(2));
            assert_eq!(r.outcome, Outcome::Completed, "case {case}: {cfg:?}");
            assert!(
                src.emitted() <= src.id_hint() as usize,
                "case {case}: {} messages past a hint of {} ({cfg:?})",
                src.emitted(),
                src.id_hint()
            );
        }
        // A horizon no run reaches: the hint saturates at its cap, the
        // simulator reserves that much address space and no more, and the
        // step cap ends the run.
        let sub = Substrate::butterfly(3);
        let cfg = small_cfg(2, u64::MAX);
        let mut src = ClosedLoopSource::new(&sub, &cfg);
        assert_eq!(src.id_hint() as u64, ID_HINT_CAP);
        let r = wormhole::run_source(sub.graph(), &mut src, &SimConfig::new(2).max_steps(200));
        assert_eq!(r.outcome, Outcome::MaxSteps);
        assert!(r.delivered() > 0);
    }

    #[test]
    #[should_panic(expected = "partitions overlap")]
    fn overlapping_partitions_rejected() {
        let sub = Substrate::butterfly(3); // 8 endpoints
        let mut cfg = small_cfg(1, 100);
        cfg.clients = 5;
        cfg.servers = 5;
        let _ = ClosedLoopSource::new(&sub, &cfg);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn partitions_summing_past_u32_are_rejected() {
        // `u32::MAX + 2` wraps to 1 in a `u32` add; the sum is in `u64`.
        let sub = Substrate::butterfly(3);
        let mut cfg = small_cfg(1, 100);
        cfg.clients = u32::MAX;
        cfg.servers = 2;
        let _ = ClosedLoopSource::new(&sub, &cfg);
    }
}
