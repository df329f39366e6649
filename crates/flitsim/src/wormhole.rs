//! The flit-level wormhole simulator with virtual channels.
//!
//! Implements the model of §1.1 exactly (ARCHITECTURE.md, "One kernel,
//! three drivers", walks through the code):
//!
//! * each directed edge carries `B` virtual channels, each owning a one-flit
//!   buffer at the head of the edge — or, under
//!   [`crate::config::VcPolicy::RouterPooled`], draws VCs on demand from a
//!   pool shared across its source router's outgoing edges (see *VC
//!   capacity policies* below);
//! * a worm holds one VC on every edge its flits currently occupy; the VC is
//!   acquired when the header crosses the edge and released when the tail
//!   flit leaves its buffer;
//! * with one-flit buffers the worm is **rigid**: either the header advances
//!   and every trailing flit moves into the slot just vacated, or the whole
//!   worm stalls ("the flits following the header must stall");
//! * flits reaching the destination are removed into an unbounded delivery
//!   buffer, so a worm whose header has arrived drains one flit per step.
//!
//! Because the worm is rigid, its entire configuration is captured by a
//! single *advance count* `A`: flit `k` (header = 0) has crossed
//! `max(0, A − k)` edges. The worm holds VCs on (1-based) edges
//! `[max(1, A−L+1), min(A, d)]` and finishes at `A = d + L − 1`. An
//! unblocked worm therefore completes in `d + L − 1` flit steps — the
//! `D + L − 1` of the paper.
//!
//! A VC released during step `t` becomes available to other worms at step
//! `t+1` (arbitration reads start-of-step state), which removes any
//! dependence on message iteration order. Scheduled executions with at most
//! `B` same-class messages per edge never block under this convention
//! (proof: a worm acquiring an edge is itself one of the ≤ B users, so at
//! most `B−1` others ever hold it simultaneously).
//!
//! # Engines
//!
//! The model itself — VC ledger, worm kinematics, arbitration, hop
//! selection — is stated once, in the crate-private `kernel` module,
//! and the worms in flight with the step phases that move them once, in
//! `Core`. Three engines ([`crate::config::Engine`]) decide which
//! worms it steps and when; each runs every configuration, and they are
//! required to produce **bit-identical [`SimResult`]s** — the proptest
//! differential suite and the unit fixtures compare them field for
//! field, deadlock reports included:
//!
//! * the **legacy** stepper rescans every active worm each flit step (the
//!   original implementation, kept as the differential oracle);
//! * the **event-driven** engine (the default, `engine` module) parks a
//!   worm that loses arbitration on the wait queues of the edges it
//!   could want next and lets it contend again only at a step after one
//!   of them released a VC — from where it waits: it leaves the queue
//!   when it wins, and losing costs it nothing; a stretch with nothing
//!   parked and every in-flight worm
//!   draining jumps to the next release with the drain phases collapsed
//!   to closed form, and a fully idle network jumps straight to the next
//!   message release;
//! * the **partitioned parallel** engine (`parallel` module) cuts the
//!   network into regions, gives each a `Core` of its own, and runs
//!   the event engine's driver over each through conservative time
//!   windows on worker threads.
//!
//! What reaches the worms from outside — a message release, a fault
//! kill ([`crate::config::SimConfig::faults`]) — does so at the start
//! of a step, and is a *window boundary* for the event-style drivers:
//! no window of the sequential event engine, and no grant of the
//! parallel coordinator, crosses the next release or the next kill. A
//! kill marks its edges dead and discards the severed worms before the
//! step's admissions; the VCs they held are free for that step's
//! arbitration, like releases during the step before (`Core::kill`,
//! and `engine::kill` around it where worms park).
//!
//! The event driver's equivalence with the legacy stepper rests on
//! three invariants, argued here and nowhere else (the `parallel`
//! module docs add the window argument):
//!
//! 1. **Parked ⇒ every watched edge is full, or its key is hot and its
//!    waiters contend at the next executed step.** A worm parks only if
//!    every edge it could want next — the one next edge of a frozen
//!    route; every candidate and the escape hop of a still-routing
//!    adaptive header — still has all `B` VCs held *after* the step's
//!    releases land. Holder counts only ever drop on a release, and a
//!    release marks the wait key of its edge *hot*: at the next executed
//!    step every waiter on a hot key is a contender again. A frozen-route
//!    waiter is entered into that step's arbitration under the edge its
//!    wait node records, so every arbitration sees exactly the contender
//!    *set* the legacy stepper's does — its waiters and the runnable
//!    contenders — and every policy orders canonically in the set. While
//!    no key of a parked worm is hot its edges stay full and the legacy
//!    stepper re-runs and loses the same arbitration every step; at a
//!    contest it loses the legacy stepper loses too, and if any contender
//!    lost, the edge's free VCs were all granted — it is full again
//!    unless that step released on the key, which is then hot once more.
//!    Either way a worm parked at `p` that first wins at `s` stalled at
//!    every step in between, which is why stalls can be settled
//!    arithmetically (`stalls += s − 1 − p` when it wins; `stalls +=
//!    parked duration` on deadlock, step-cap exit, or when a kill or the
//!    parallel fuse unparks it) instead of counted one step at a time —
//!    and why a waiter that loses a contest is not touched at all. A
//!    pending adaptive waiter selects afresh each step it contends, so a
//!    hot key wakes it (settled through the step before) to be
//!    classified like any runnable worm.
//! 2. **Release at `t` is visible at `t+1`.** Keys turn hot at the end of
//!    the step whose releases produced them, so their waiters contend at
//!    `t+1` using start-of-step holder counts — the same convention the
//!    legacy stepper gets by reading start-of-step state. Releases that
//!    land at the start of a step (a kill's discards; in a parallel
//!    region, another region's releases of the step before) turn their
//!    keys hot before that step's contest. The
//!    all-draining jump only batches steps in which no worm wants an
//!    edge and no parked worm exists to observe a release (it stops at
//!    the next message release, the next kill and the step cap), and a
//!    core with a hot key is never called frozen, so no
//!    arbitration, and no release visibility boundary, is ever skipped.
//! 3. **Order-free outcomes.** Everything a step writes is either
//!    per-worm (finish times, `first_move`, stalls) or a commutative
//!    update (`flit_hops`, holder increments/decrements), except the two
//!    places the old code was sensitive to iteration order — both now
//!    canonical so the engines cannot diverge: arbitration under
//!    [`crate::config::Arbitration::Random`] sorts contenders by id and
//!    shuffles with a stateless RNG keyed by `(seed, step, edge)` (not a
//!    sequential global stream, which skipped steps would
//!    desynchronize), and
//!    `max_vcs_in_use` samples holder counts at end of step rather than
//!    at each acquisition instant (which would depend on the interleaving
//!    of same-step acquires and releases).
//!
//! # VC capacity policies
//!
//! Every capacity decision is a query against
//! [`crate::config::SimConfig::vc_policy`] rather than a comparison with
//! a scalar `B`:
//!
//! * **acquirability** (`VcLedger::free_vcs`) — static: `holders < B`;
//!   pooled: below the per-edge floor, or below the per-edge cap with
//!   shared credit left at the source router;
//! * **arbitration** (`VcLedger::arbitrate`, shared by every engine) —
//!   under pooling, sibling edges of one router competing for the same
//!   shared credits within a step are granted in **ascending edge-id
//!   order**, a canonical rule that reads only start-of-step state and
//!   the (engine-independent) contender sets, so the engines cannot
//!   diverge;
//! * **wait keying** (`VcRules::wait_key`) — a blocked worm's edge
//!   can become acquirable when a VC releases on the edge itself
//!   (static) or on *any* outgoing edge of its source router (pooled:
//!   the release may return shared credit), so that is the key it parks
//!   under and the key a release turns hot. Acquirability is monotone
//!   non-increasing between releases on that key under both policies,
//!   which is what keeps the event engine's parked-interval stall
//!   arithmetic exact. A pooled sibling's release can turn a key hot
//!   while the waiters' own edge is still at its cap: they contend, the
//!   edge grants nothing, and nobody is touched.
//!
//! `Static(B)` is the degenerate pooling `pool = B · fanout,
//! per_edge_min = per_edge_max = B` — asserted bit-identical by the
//! policy-equivalence proptests — and pooled floors are never below 1,
//! so the dateline/escape deadlock-freedom arguments survive pooling
//! (every escape-class edge keeps a dedicated VC).
//!
//! # Adaptive route selection
//!
//! Under [`crate::config::RouteSelection::MinimalAdaptive`] /
//! [`crate::config::RouteSelection::FullyAdaptive`] (entry point
//! [`run_adaptive`], which takes an
//! [`wormhole_topology::adaptive::AdaptiveRouter`] substrate) the "route
//! is fixed at injection" assumption is dropped: a worm's path is built
//! **one hop at a time** as its header advances. Per step, a worm whose
//! known path is exhausted (`pending_route`) *selects* a wanted edge —
//! a pure function of start-of-step state:
//!
//! 1. among the profitable adaptive-lane candidates with a free VC,
//!    take the one with the lowest start-of-step holder count (ties by
//!    edge id);
//! 2. otherwise, under `FullyAdaptive` with misroute budget left, the
//!    same rule over the non-minimal candidates (u-turns excluded);
//! 3. otherwise fall back to the **escape network**: the worm contends
//!    for the first hop of the Dally–Seitz dateline route from its
//!    current node, and on winning it commits to that whole route and
//!    never returns to the adaptive lane (deadlock freedom by
//!    construction — see `wormhole_topology::adaptive`).
//!
//! The selected edge then enters the ordinary per-edge arbitration;
//! winners extend their route and advance, losers stall and re-select
//! next step (occupancies have changed). Because selection reads only
//! start-of-step holder counts — the same convention arbitration already
//! uses — the engines stay bit-identical. The event driver parks a
//! blocked *pending* worm once its whole watch
//! set — every candidate the router offers plus the escape hop — is
//! full at end of step, on the wait key of each of those edges: until
//! one of them sees a release, acquirability being monotone, selection
//! keeps answering "escape hop" and that hop keeps granting nothing, so
//! the legacy stepper counts exactly one stall per step and the parked
//! interval settles arithmetically like any other (the worm's selection
//! is pinned to the escape hop meanwhile, which is what a deadlock
//! report reads). Its wait nodes record no edge: the first hot key wakes
//! it to select again. A frozen-route worm wants one fixed edge and is
//! the one-key case of the same queue, contending in place. A fault
//! kill, which can sever a parked worm's escape continuation, wakes
//! every parked pending worm.
//! The all-draining and idle-network jumps stay exact: an arrived worm
//! makes no further route decision.

use std::borrow::Cow;
use std::fmt;

use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::fault::FaultError;
use wormhole_topology::graph::{EdgeId, Graph, NodeId};
use wormhole_topology::path::Path;

use crate::config::{BlockedPolicy, Engine, RouteSelection, SimConfig};
use crate::events::{DeadlockReport, WaitFor};
use crate::kernel::{
    self, order_contenders, FlatBuckets, RouteStats, SelectedHop, VcLedger, VcRules, Worm,
};
use crate::message::{check_spec, MessageSpec, SpecError};
use crate::source::{release_order, Traffic, TrafficSource};
use crate::stats::{DiscardReason, EngineStats, MessageOutcome, Outcome, SimResult};

/// Why [`simulate`] refused a run, or ended one early.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Message `id` is malformed: a slice's spec (found before step 0,
    /// wherever in the slice it sits), or one a live source emitted
    /// mid-run.
    Spec {
        /// The slice index, or the id the source assigned.
        id: u32,
        /// What is wrong with it.
        error: SpecError,
    },
    /// [`SimConfig::faults`] does not fit the graph.
    Faults(FaultError),
    /// The config asks for adaptive route selection and no router was
    /// given to enumerate the per-hop candidates.
    RouterMissing,
    /// Under [`crate::config::VcPolicy::RouterPooled`], `router` cannot
    /// honor the per-edge floors of its `fanout` outgoing edges out of
    /// its pool.
    PoolFloor {
        /// The node id of the router.
        router: u32,
        /// The policy's `per_edge_min`.
        per_edge_min: u32,
        /// Outgoing edges of `router`.
        fanout: u32,
        /// The policy's `pool`.
        pool: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Spec { id, error } => match error {
                SpecError::EmptyPath => write!(f, "message {id} has an empty path"),
                SpecError::BadEdge => write!(f, "message {id}: bad edge id"),
                SpecError::ZeroLength => write!(f, "message {id} has zero length"),
                SpecError::DuplicateId => write!(f, "source re-emitted message id {id}"),
                SpecError::ReleasedEarly { .. } => write!(f, "message {id} {error}"),
            },
            SimError::Faults(e) => write!(f, "invalid fault plan: {e}"),
            SimError::RouterMissing => write!(
                f,
                "adaptive route selection needs run_adaptive \
                 (per-hop candidates come from a router)"
            ),
            SimError::PoolFloor {
                router,
                per_edge_min,
                fanout,
                pool,
            } => write!(
                f,
                "router {router}: per_edge_min {per_edge_min} x fanout {fanout} \
                 exceeds pool {pool}"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Spec { error, .. } => Some(error),
            SimError::Faults(e) => Some(e),
            SimError::RouterMissing | SimError::PoolFloor { .. } => None,
        }
    }
}

/// [`check_spec`] over a whole slice, ids being the indices: the door
/// every batch enters by, here and in [`crate::restricted`].
pub(crate) fn check_specs(graph: &Graph, specs: &[MessageSpec]) -> Result<(), SimError> {
    specs.iter().enumerate().try_for_each(|(i, s)| {
        check_spec(graph, s).map_err(|error| SimError::Spec {
            id: i as u32,
            error,
        })
    })
}

/// Runs the wormhole simulation of `specs` over `graph` under `config`,
/// following each spec's precomputed path verbatim. The slice is lent to
/// the run ([`Traffic::Specs`]), not cloned.
///
/// # Panics
///
/// With the [`SimError`] [`simulate`] returns, as its message: any spec
/// of the slice with an empty path, an edge id `graph` lacks or zero
/// length ([`SimError::Spec`], checked over the whole slice before step
/// 0), a `config` asking for adaptive route selection
/// ([`SimError::RouterMissing`] — use [`run_adaptive`]), an invalid
/// fault plan or pool floor.
pub fn run(graph: &Graph, specs: &[MessageSpec], config: &SimConfig) -> SimResult {
    simulate(graph, None, Traffic::Specs(specs), config).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs the wormhole simulation pulling messages from `source` (see
/// [`TrafficSource`] for the polling/notification contract).
///
/// # Panics
///
/// With the [`SimError`] [`simulate`] returns, as its message: a spec
/// the source emits with an empty path, a bad edge id, zero length, an
/// id it emitted before or a release still ahead ([`SimError::Spec`],
/// checked as each is drained from `take_ready`, so possibly mid-run), a
/// `config` asking for adaptive route selection
/// ([`SimError::RouterMissing`] — use [`run_source_adaptive`]), an
/// invalid fault plan or pool floor.
pub fn run_source(graph: &Graph, source: &mut dyn TrafficSource, config: &SimConfig) -> SimResult {
    simulate(graph, None, Traffic::Source(source), config).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs and asserts the routing completed (no deadlock / step-cap abort).
pub fn run_to_completion(graph: &Graph, specs: &[MessageSpec], config: &SimConfig) -> SimResult {
    let r = run(graph, specs, config);
    assert_eq!(r.outcome, Outcome::Completed, "simulation did not complete");
    r
}

/// Runs the wormhole simulation with per-hop route selection over
/// `router`'s substrate (see [`RouteSelection`] and the module docs).
///
/// Each spec's [`MessageSpec::path`] supplies only the endpoints (and
/// the oblivious baseline the workload generators produce anyway);
/// under an adaptive policy the actual route is built hop by hop at the
/// header. With [`RouteSelection::Oblivious`] this is exactly [`run`].
///
/// # Panics
///
/// As [`run`], the specs being checked against `router`'s graph (there
/// is a router, so never [`SimError::RouterMissing`]).
pub fn run_adaptive(
    router: &dyn AdaptiveRouter,
    specs: &[MessageSpec],
    config: &SimConfig,
) -> SimResult {
    simulate(router.graph(), Some(router), Traffic::Specs(specs), config)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_adaptive`] pulling messages from `source` instead of a slice
/// (see [`TrafficSource`]); panics as [`run_source`] does.
pub fn run_source_adaptive(
    router: &dyn AdaptiveRouter,
    source: &mut dyn TrafficSource,
    config: &SimConfig,
) -> SimResult {
    simulate(
        router.graph(),
        Some(router),
        Traffic::Source(source),
        config,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// The one door into the simulator, behind every `run*` entry point:
/// builds the simulation of `traffic` over `graph` (`router` is only
/// consulted under an adaptive [`RouteSelection`]) and hands it to the
/// configured [`Engine`] — every engine runs every configuration.
///
/// # Errors
///
/// Everything wrong with the input that the `run*` shims panic on comes
/// back as a value, the same one from every engine:
///
/// * before step 0 — [`SimError::RouterMissing`],
///   [`SimError::Faults`], [`SimError::PoolFloor`], and
///   [`SimError::Spec`] for the first bad spec of a [`Traffic::Specs`]
///   slice (the whole slice is checked, however late a spec's release);
/// * mid-run — [`SimError::Spec`] for a spec a [`Traffic::Source`]
///   emits, checked as it is drained from `take_ready`: the steps before
///   it ran, and the source has heard of every completion before that
///   poll.
///
/// What is left to panic is [`SimConfig`]'s own range checks
/// ([`crate::config::VcPolicy::validate`]), a region plan that does not
/// match `graph`, and whatever `traffic`'s source or `router` panics
/// with — under [`Engine::Parallel`] resumed on the calling thread.
pub fn simulate<'a>(
    graph: &'a Graph,
    router: Option<&'a dyn AdaptiveRouter>,
    traffic: Traffic<'a>,
    config: &'a SimConfig,
) -> Result<SimResult, SimError> {
    let mut sim = Sim::new(graph, router, traffic, config)?;
    let driven = match config.engine {
        Engine::Legacy => sim.drive_legacy(),
        Engine::EventDriven => crate::engine::drive(&mut sim),
        Engine::Parallel { threads } => crate::parallel::drive(&mut sim, threads),
    }?;
    Ok(sim.into_result(driven))
}

/// What a driver hands back: how the run ended, the step it stopped at,
/// the deadlock post-mortem.
pub(crate) type Driven = (Outcome, u64, Option<DeadlockReport>);

/// Per-core adaptive routing state (present iff the config asks for a
/// non-oblivious [`RouteSelection`]).
pub(crate) struct AdaptiveState<'a> {
    /// Candidate enumeration and escape continuations.
    pub(crate) router: &'a dyn AdaptiveRouter,
    /// Incrementally built route per handle: the adaptive prefix plus,
    /// after a fallback, the escape tail. Replaces `spec.path` as the
    /// source of truth for [`Core::path_edge`].
    pub(crate) routes: Vec<Vec<EdgeId>>,
    /// Injection node per handle (head position at `advance == 0`).
    pub(crate) src: Vec<NodeId>,
    /// Destination node per handle.
    pub(crate) dst: Vec<NodeId>,
    /// Remaining misroute budget per handle (`FullyAdaptive`).
    pub(crate) budget: Vec<u32>,
    /// Wanted-hop selection per handle (see [`SelectedHop`]).
    pub(crate) selected: Vec<SelectedHop>,
    /// Candidate scratch for [`AdaptiveRouter::candidates`].
    cand: Vec<(EdgeId, bool)>,
    /// Escape fallbacks and misroute hops so far.
    pub(crate) stats: RouteStats,
}

/// Worm `h`'s route so far: the incrementally built route under
/// adaptive selection, the spec's path otherwise.
#[inline]
fn route_of<'r>(
    adaptive: &'r Option<AdaptiveState>,
    specs: &'r [Cow<MessageSpec>],
    h: u32,
) -> &'r [EdgeId] {
    match adaptive {
        Some(ad) => &ad.routes[h as usize],
        None => specs[h as usize].path.edges(),
    }
}

/// Whether an applied fault kill cut the escape continuation from `head`
/// to `dst` — a pending worm left with only that option is doomed.
fn escape_severed(rules: &VcRules, router: &dyn AdaptiveRouter, head: NodeId, dst: NodeId) -> bool {
    !rules.dead.is_empty()
        && router
            .escape_route(head, dst)
            .edges()
            .iter()
            .any(|&e| rules.dead[e.idx()])
}

/// The spec of a handle that holds no worm: never activated, so never
/// stepped (an empty path owns no allocation).
fn vacant_spec<'a>() -> Cow<'a, MessageSpec> {
    Cow::Owned(MessageSpec {
        path: Path::new(Vec::new()),
        length: 1,
        release: 0,
        priority: 0,
    })
}

/// One worm's whole state as a value: what admission installs in a
/// [`Core`], and what the parallel engine moves — never copies — from
/// core to core when a worm crosses a cut, retires, or is written back
/// at the end of the run. The spec is the caller's own when the run was
/// lent a slice, owned when a live source made it. The adaptive fields
/// are inert under oblivious routing.
pub(crate) struct Resident<'a> {
    pub(crate) id: u32,
    pub(crate) spec: Cow<'a, MessageSpec>,
    pub(crate) worm: Worm,
    pub(crate) out: MessageOutcome,
    route: Vec<EdgeId>,
    src: NodeId,
    dst: NodeId,
    budget: u32,
    selected: SelectedHop,
}

/// The resident-worm half of a simulation: the worms in flight, the VC
/// ledger they hold VCs in, and the step phases that move them. Worms
/// are keyed by *handle* — the message id in the sequential engines'
/// single core, a recycled slot in a parallel region's — and nothing in
/// here knows which; the run-level half (source, admission, kill
/// schedule, verdicts) is [`Sim`].
pub(crate) struct Core<'a> {
    pub(crate) config: &'a SimConfig,
    /// The VC ledger's immutable half: capacities per edge and router,
    /// and the dead flags applied fault kills set.
    pub(crate) rules: VcRules,
    /// The VC ledger's mutable half: who holds what.
    pub(crate) ledger: VcLedger,
    /// Per-step contender scratch (see [`FlatBuckets`]).
    buckets: FlatBuckets,
    /// Message id per handle.
    pub(crate) ids: Vec<u32>,
    /// Whether every handle *is* its message id — true of [`Sim`]'s core,
    /// false of a parallel region's recycled slots. Arbitration orders
    /// contenders by message id, and reads it off the handle when it can.
    handles_are_ids: bool,
    /// Spec per handle ([`vacant_spec`] where no worm lives), borrowed
    /// from the slice the run was lent or owned.
    pub(crate) specs: Vec<Cow<'a, MessageSpec>>,
    pub(crate) worms: Vec<Worm>,
    pub(crate) outcomes: Vec<MessageOutcome>,
    /// Adaptive routing state; `Some` iff `config.route_selection` is
    /// non-oblivious.
    pub(crate) adaptive: Option<AdaptiveState<'a>>,
    /// The worms in flight. The legacy stepper maintains it each step;
    /// the event-style drivers rebuild it for cold paths only
    /// (deadlock report, invariant checks).
    pub(crate) active: Vec<u32>,
    movers: Vec<u32>,
    pub(crate) blocked: Vec<u32>,
    /// This step's winners among the parked worms the event driver
    /// entered ([`Core::step_winners`]).
    pub(crate) won: Vec<u32>,
    /// Pending adaptive worms whose only remaining option this step — the
    /// escape continuation — crosses a dead edge. Classification parks
    /// them here and the apply phase discards them, so mid-step holder
    /// counts (which selection reads) stay identical across engines.
    doomed: Vec<u32>,
    /// Edges whose holder count dropped since the event driver last
    /// turned their wait keys hot. Only populated while `track_releases`
    /// (the driver sets it exactly while any worm is parked); the legacy
    /// stepper never reads it.
    pub(crate) released: Vec<u32>,
    pub(crate) track_releases: bool,
    /// Parallel regions only: the edges whose VCs another region's
    /// ledger counts. Empty in the sequential engines' core, so the
    /// hot-path guard is a single `is_empty` (like [`VcRules::dead`]).
    pub(crate) foreign: Vec<bool>,
    /// Outbox for releases on `foreign` edges; the coordinator lands
    /// them on their owners between windows.
    pub(crate) remote_releases: Vec<u32>,
    /// Completions not yet reported: `(time, handle, delivered)`.
    pub(crate) done: Vec<(u64, u32, bool)>,
    pub(crate) flit_hops: u64,
    pub(crate) last_finish: u64,
    /// Worms installed and neither finished, discarded nor moved out.
    pub(crate) unfinished: usize,
    /// Worms discarded because a kill severed them
    /// ([`DiscardReason::LinkDown`]).
    pub(crate) fault_discards: u64,
    /// Misroute hops taken after the first applied kill (`after_kill`).
    pub(crate) fault_detour_hops: u64,
    after_kill: bool,
}

impl<'a> Core<'a> {
    /// An empty core; `router` is the substrate of per-hop route
    /// selection, `None` under [`RouteSelection::Oblivious`].
    pub(crate) fn new(
        graph: &Graph,
        router: Option<&'a dyn AdaptiveRouter>,
        config: &'a SimConfig,
        rules: VcRules,
        handles_are_ids: bool,
    ) -> Self {
        let adaptive = router.map(|router| AdaptiveState {
            router,
            routes: Vec::new(),
            src: Vec::new(),
            dst: Vec::new(),
            budget: Vec::new(),
            selected: Vec::new(),
            cand: Vec::new(),
            stats: RouteStats::default(),
        });
        Self {
            config,
            ledger: VcLedger::new(graph, &rules),
            rules,
            buckets: FlatBuckets::with_edges(graph.num_edges()),
            ids: Vec::new(),
            handles_are_ids,
            specs: Vec::new(),
            worms: Vec::new(),
            outcomes: Vec::new(),
            adaptive,
            active: Vec::new(),
            movers: Vec::new(),
            blocked: Vec::new(),
            won: Vec::new(),
            doomed: Vec::new(),
            released: Vec::new(),
            track_releases: false,
            foreign: Vec::new(),
            remote_releases: Vec::new(),
            done: Vec::new(),
            flit_hops: 0,
            last_finish: 0,
            unfinished: 0,
            fault_discards: 0,
            fault_detour_hops: 0,
            after_kill: false,
        }
    }

    /// Sizes every per-handle table for handles `0..n` in one allocation
    /// each, so that [`Core::put`] never grows them.
    fn reserve(&mut self, n: usize) {
        self.ids.reserve_exact(n);
        self.specs.reserve_exact(n);
        self.worms.reserve_exact(n);
        self.outcomes.reserve_exact(n);
        if let Some(ad) = &mut self.adaptive {
            ad.routes.reserve_exact(n);
            ad.src.reserve_exact(n);
            ad.dst.reserve_exact(n);
            ad.budget.reserve_exact(n);
            ad.selected.reserve_exact(n);
        }
    }

    /// Installs `r` under handle `h`, growing every per-handle table to
    /// cover it (handles below `h` not yet seen get vacant slots).
    pub(crate) fn put(&mut self, h: u32, r: Resident<'a>) {
        let hi = h as usize;
        while self.specs.len() <= hi {
            self.ids.push(self.specs.len() as u32);
            self.specs.push(vacant_spec());
            self.worms.push(Worm {
                advance: 0,
                hops: 0,
                length: 1,
                pending_route: false,
            });
            self.outcomes.push(MessageOutcome::default());
            if let Some(ad) = &mut self.adaptive {
                ad.routes.push(Vec::new());
                ad.src.push(NodeId(0));
                ad.dst.push(NodeId(0));
                ad.budget.push(0);
                ad.selected.push(SelectedHop::None);
            }
        }
        self.ids[hi] = r.id;
        self.specs[hi] = r.spec;
        self.worms[hi] = r.worm;
        self.outcomes[hi] = r.out;
        if let Some(ad) = &mut self.adaptive {
            ad.routes[hi] = r.route;
            ad.src[hi] = r.src;
            ad.dst[hi] = r.dst;
            ad.budget[hi] = r.budget;
            ad.selected[hi] = r.selected;
        }
    }

    /// Moves worm `h` out, leaving its slot vacant (the kinematics and
    /// the outcome stay readable; the path and route go with the worm).
    pub(crate) fn take(&mut self, h: u32) -> Resident<'a> {
        let hi = h as usize;
        let (route, src, dst, budget, selected) = match &mut self.adaptive {
            Some(ad) => (
                std::mem::take(&mut ad.routes[hi]),
                ad.src[hi],
                ad.dst[hi],
                ad.budget[hi],
                ad.selected[hi],
            ),
            None => (Vec::new(), NodeId(0), NodeId(0), 0, SelectedHop::None),
        };
        Resident {
            id: self.ids[hi],
            spec: std::mem::replace(&mut self.specs[hi], vacant_spec()),
            worm: self.worms[hi],
            out: self.outcomes[hi],
            route,
            src,
            dst,
            budget,
            selected,
        }
    }

    #[inline]
    pub(crate) fn route(&self, h: u32) -> &[EdgeId] {
        route_of(&self.adaptive, &self.specs, h)
    }

    /// Global id of the `edge_1based`-th edge of worm `h`'s route.
    #[inline]
    pub(crate) fn path_edge(&self, h: u32, edge_1based: u32) -> usize {
        self.route(h)[edge_1based as usize - 1].idx()
    }

    /// The node pending worm `h`'s header stands on, where its next hop
    /// is selected.
    pub(crate) fn head_node(&self, h: u32) -> NodeId {
        let ad = self.adaptive.as_ref().expect("pending worm without state");
        kernel::header_at(
            ad.router.graph(),
            ad.src[h as usize],
            &ad.routes[h as usize],
        )
        .0
    }

    /// Whether a kill cut worm `h`: its flits currently occupy a dead
    /// edge, or its frozen route still has a dead edge ahead of the
    /// header. A pending (adaptive) worm has no committed continuation,
    /// so only its held span can sever it — its future hops re-route
    /// around the dead edges instead.
    fn worm_severed(&self, h: u32) -> bool {
        let w = &self.worms[h as usize];
        let (lo, hi) = w.held_range();
        let ahead = if w.pending_route { hi } else { w.hops };
        (lo..=hi)
            .chain(w.advance + 1..=ahead)
            .any(|j| self.rules.is_dead(self.path_edge(h, j)))
    }

    /// The resident-worm half of a fault kill at the **start** of step
    /// `t`, the same in every driver: marks the `due` schedule entries'
    /// edges dead, then discards each severed worm among `active` (the
    /// caller makes that list current first) with
    /// [`DiscardReason::LinkDown`]. The discards' VCs are free for this
    /// step's arbitration — the convention of a release during step
    /// `t − 1` — so that step's occupancy sample, which a parallel region
    /// still owes, is taken before they land. The discard order is the
    /// caller's: everything a discard writes is commutative or sorted
    /// downstream.
    pub(crate) fn kill(&mut self, due: &[(u64, u32)], t: u64) {
        self.ledger.settle_max(&self.rules);
        for &(_, e) in due {
            self.rules.dead[e as usize] = true;
        }
        self.after_kill = true;
        for i in 0..self.active.len() {
            let m = self.active[i];
            if self.worm_severed(m) {
                self.discard(m, t, DiscardReason::LinkDown);
            }
        }
    }

    /// Classifies one active worm for this step ([`kernel::classify`]):
    /// draining worms go to `movers`, everything else contends in
    /// `buckets` for its wanted edge — which a pending adaptive worm
    /// first selects ([`kernel::select_hop`]) from start-of-step state.
    fn classify(&mut self, m: u32) {
        let mi = m as usize;
        let w = self.worms[mi];
        let mut selected = None;
        if w.pending_route {
            // Header at the end of the known path: select the next hop.
            let ad = self
                .adaptive
                .as_mut()
                .expect("pending worm without a router");
            let g = ad.router.graph();
            let fully = self.config.route_selection == RouteSelection::FullyAdaptive;
            let sel = kernel::select_hop(
                ad.router,
                &self.rules,
                &self.ledger,
                kernel::header_at(g, ad.src[mi], &ad.routes[mi]),
                ad.dst[mi],
                fully && ad.budget[mi] > 0,
                &mut ad.cand,
            );
            ad.selected[mi] = sel;
            // Under faults, falling back to a severed escape continuation
            // means the worm has nowhere left to go: the adaptive
            // candidates are already filtered to live edges, and the
            // escape route is the only guaranteed-progress fallback. Doom
            // it — the apply phase discards it with `LinkDown`, after
            // arbitration, so selection by other pending worms this step
            // still reads unchanged start-of-step holder counts. (A
            // fault-aware router's escape routes avoid dead edges, so
            // this only fires for fault-oblivious escape routing.)
            if let SelectedHop::Escape { edge } = sel {
                if escape_severed(&self.rules, ad.router, g.src(EdgeId(edge)), ad.dst[mi]) {
                    self.doomed.push(m);
                    return;
                }
            }
            selected = Some(sel.edge().expect("selection always yields a hop"));
        }
        let (adaptive, specs) = (&self.adaptive, &self.specs);
        kernel::classify(
            &w,
            m,
            selected,
            |j| route_of(adaptive, specs, m)[j as usize - 1].idx(),
            &mut self.buckets,
            &mut self.movers,
        );
    }

    /// Whether worm `m`, blocked this step, can park
    /// ([`kernel::WaitQueue`]): every edge it could want next is still
    /// non-acquirable now that the step's releases have landed. If so,
    /// fills `keys` with the wait keys to park on and returns the edge
    /// its wait nodes record — the next path edge, and its key, for a
    /// frozen route; [`kernel::NO_EDGE`] and the whole watch set's keys
    /// for a pending one ([`kernel::pending_wait_keys`]), whose selection
    /// is pinned to the escape hop the legacy stepper re-selects every
    /// step it stays blocked (what the deadlock report reads). A pending
    /// worm whose escape continuation a kill severed stays runnable
    /// instead: the next classification dooms it.
    pub(crate) fn wait_keys(&mut self, m: u32, keys: &mut Vec<usize>) -> Option<u32> {
        let mi = m as usize;
        let w = self.worms[mi];
        if !w.pending_route {
            let e = self.path_edge(m, w.advance + 1);
            keys.clear();
            keys.push(self.rules.wait_key(e));
            return (self.ledger.free_vcs(&self.rules, e) == 0).then_some(e as u32);
        }
        let ad = self
            .adaptive
            .as_mut()
            .expect("pending worm without a router");
        let (head, _) = kernel::header_at(ad.router.graph(), ad.src[mi], &ad.routes[mi]);
        let fully = self.config.route_selection == RouteSelection::FullyAdaptive;
        match kernel::pending_wait_keys(
            ad.router,
            &self.rules,
            &self.ledger,
            head,
            ad.dst[mi],
            fully && ad.budget[mi] > 0,
            &mut ad.cand,
            keys,
        ) {
            Some(escape) if !escape_severed(&self.rules, ad.router, head, ad.dst[mi]) => {
                ad.selected[mi] = SelectedHop::Escape { edge: escape.0 };
                Some(kernel::NO_EDGE)
            }
            _ => None,
        }
    }

    /// The phases of a full-bandwidth step every driver shares, over the
    /// worms `stepping` (they only differ in which list that is) and the
    /// parked worms `entered` as `(wanted edge, handle)` — the event
    /// driver's waiters of this step's hot keys; none under the legacy
    /// stepper: classify, arbitrate, advance the winners. Leaves the
    /// `stepping` losers in `blocked` for the caller to stall, discard or
    /// park, and the `entered` winners in `won` for it to unpark; an
    /// `entered` loser is on neither list. Returns whether anything
    /// progressed.
    pub(crate) fn step_winners(
        &mut self,
        t: u64,
        stepping: &[u32],
        entered: &[(u32, u32)],
    ) -> bool {
        self.movers.clear();
        self.blocked.clear();
        self.won.clear();
        self.buckets.clear();
        self.doomed.clear();
        // Phase 1: classify worms into drains, contenders, free movers
        // (pending adaptive worms select their wanted hop here). A parked
        // worm contends for the edge its wait node records: nothing of
        // the worm is read.
        for &m in stepping {
            self.classify(m);
        }
        for &(e, m) in entered {
            self.buckets.push_parked(e as usize, m);
        }
        // Phase 2: per-edge arbitration using start-of-step holder
        // counts, contenders ordered by message id. Where handles are
        // the ids the handle itself is the key: sorting through `ids`
        // costs ~15 % of this phase at saturation.
        if self.handles_are_ids {
            self.arbitrate(t, |m| m);
        } else {
            let ids = std::mem::take(&mut self.ids);
            self.arbitrate(t, |m| ids[m as usize]);
            self.ids = ids;
        }
        // Phase 3: apply. Doomed worms (severed escape continuation) are
        // discarded here rather than during classification so their VC
        // releases land mid-step — visible at `t+1`, like any release.
        for i in 0..self.movers.len() {
            let m = self.movers[i] & !kernel::PARKED;
            if m != self.movers[i] {
                self.won.push(m);
            }
            self.apply_advance(m, t);
        }
        for i in 0..self.doomed.len() {
            let m = self.doomed[i];
            self.discard(m, t, DiscardReason::LinkDown);
        }
        // A fault discard is progress for the deadlock test: it released
        // VCs mid-step, so blocked worms may advance at `t+1`.
        !self.movers.is_empty() || !self.doomed.is_empty()
    }

    /// Splits this step's contenders into `movers` and `blocked`
    /// ([`VcLedger::arbitrate`]); `id` maps a handle to its message id.
    #[inline]
    fn arbitrate(&mut self, t: u64, id: impl Fn(u32) -> u32) {
        let (config, specs) = (self.config, &self.specs);
        self.ledger.arbitrate(
            &self.rules,
            &mut self.buckets,
            &mut self.movers,
            &mut self.blocked,
            |e, group| {
                order_contenders(config, t, e, group, |m| {
                    let s = &specs[m as usize];
                    (s.release, s.priority, id(m))
                })
            },
        );
    }

    /// Releases one VC on `e` ([`VcLedger::release`]), recording it for
    /// the event driver — the edge's wait key turns hot — when any worm
    /// is parked. In a
    /// parallel region a release on an edge another region owns goes to
    /// the outbox instead; it lands between windows — the `t + 1`
    /// visibility every mid-step release has.
    #[inline]
    pub(crate) fn release_vc(&mut self, e: usize) {
        if !self.foreign.is_empty() && self.foreign[e] {
            self.remote_releases.push(e as u32);
            return;
        }
        self.ledger.release(&self.rules, e);
        if self.track_releases {
            self.released.push(e as u32);
        }
    }

    /// Delivery bookkeeping for worm `m`, whose last flit arrived
    /// during step `at − 1`.
    fn finish(&mut self, m: u32, at: u64) {
        self.outcomes[m as usize].finished = Some(at);
        self.last_finish = self.last_finish.max(at);
        self.unfinished -= 1;
        self.done.push((at, m, true));
    }

    /// Advances winner `m` one flit step ([`Worm::advance`]) and applies
    /// what it acquired and released to the ledger.
    pub(crate) fn apply_advance(&mut self, m: u32, t: u64) {
        let mi = m as usize;
        // A pending worm that won its wanted edge extends its route
        // first, so the acquisition below sees the updated path/hops.
        if self.worms[mi].pending_route {
            let ad = self.adaptive.as_mut().expect("pending worm without state");
            let sel = ad.selected[mi];
            kernel::extend_route(
                &mut self.worms[mi],
                &mut ad.routes[mi],
                &mut ad.budget[mi],
                sel,
                ad.router,
                ad.dst[mi],
                &mut ad.stats,
            );
            // A misroute taken after the first applied kill is a detour.
            if self.after_kill && matches!(sel, SelectedHop::Adaptive { misroute: true, .. }) {
                self.fault_detour_hops += 1;
            }
        }
        let step = self.worms[mi].advance();
        self.flit_hops += step.flit_hops;
        let out = &mut self.outcomes[mi];
        if out.first_move.is_none() {
            out.first_move = Some(t);
        }
        if let Some(j) = step.acquire {
            let e = self.path_edge(m, j);
            self.ledger.acquire(&self.rules, e);
        }
        for j in step.released {
            let e = self.path_edge(m, j);
            self.release_vc(e);
        }
        if step.finished {
            self.finish(m, t + 1);
        }
    }

    /// Batch-advances a draining worm from step `t` to `min(stop,
    /// finish)` with [`Worm::drain`]'s closed form and returns that
    /// step. Only called by the event driver, in the contexts that
    /// method's docs allow.
    pub(crate) fn fast_drain(&mut self, m: u32, t: u64, stop: u64) -> u64 {
        debug_assert!(t < stop);
        let d = self.worms[m as usize].drain(stop - t);
        self.flit_hops += d.flit_hops;
        for j in d.released {
            let e = self.path_edge(m, j);
            self.release_vc(e);
        }
        let end = t + d.steps;
        if d.finished {
            self.finish(m, end); // the finishing advance ran at step end − 1
        }
        end
    }

    pub(crate) fn discard(&mut self, m: u32, t: u64, reason: DiscardReason) {
        for j in self.worms[m as usize].held_vcs() {
            let e = self.path_edge(m, j);
            self.release_vc(e);
        }
        self.outcomes[m as usize].discarded = Some(reason);
        if reason == DiscardReason::LinkDown {
            self.fault_discards += 1;
        }
        self.unfinished -= 1;
        self.done.push((t, m, false));
    }

    /// VCs the `active` worms hold, per edge.
    pub(crate) fn held_counts(&self) -> Vec<u16> {
        let mut held = vec![0u16; self.ledger.holders.len()];
        for &m in &self.active {
            for j in self.worms[m as usize].held_vcs() {
                held[self.path_edge(m, j)] += 1;
            }
        }
        held
    }

    /// Recomputes VC holder counts from scratch and checks all
    /// invariants over the `active` worms (the caller makes that list
    /// current first). A parallel region's worms may hold VCs another
    /// region's ledger counts, so there the holder comparison is the
    /// coordinator's, summed over regions.
    pub(crate) fn validate(&self) {
        if self.foreign.is_empty() {
            assert_eq!(
                self.held_counts(),
                self.ledger.holders,
                "VC accounting mismatch"
            );
        }
        self.ledger.validate(&self.rules);
        // Flit conservation per worm: injected − delivered == in-network.
        for &m in &self.active {
            let w = &self.worms[m as usize];
            let injected = w.advance.min(w.length);
            // A pending worm's header sits in the buffer of its newest
            // edge (advance == hops) and has delivered nothing — the
            // oblivious formula would misread that as an arrival.
            let (delivered, slack) = if w.pending_route {
                (0, 0)
            } else {
                // The held-edge count equals the in-network flit count,
                // except that once the header has arrived (advance ≥
                // hops) the destination edge's buffer clears instantly
                // while its VC is still held — one extra held edge.
                (
                    (w.advance + 1).saturating_sub(w.hops).min(w.length),
                    u32::from(w.advance >= w.hops),
                )
            };
            let in_net = (w.held_range().1 + 1).saturating_sub(w.held_range().0);
            let expected = injected - delivered;
            assert!(
                in_net == expected + slack,
                "flit conservation violated for message {}: in_net={in_net} injected={injected} delivered={delivered}",
                self.ids[m as usize]
            );
        }
        // Adaptive bookkeeping: routes and worm state agree.
        if let Some(ad) = &self.adaptive {
            for &m in &self.active {
                let mi = m as usize;
                let w = &self.worms[mi];
                assert_eq!(
                    ad.routes[mi].len() as u32,
                    w.hops,
                    "route length out of sync for message {}",
                    self.ids[mi]
                );
                if w.pending_route {
                    assert_eq!(w.advance, w.hops, "pending worm ahead of its route");
                } else {
                    let g = ad.router.graph();
                    let last = *ad.routes[mi].last().expect("fixed route is nonempty");
                    assert_eq!(g.dst(last), ad.dst[mi], "frozen route misses dst");
                }
            }
        }
    }
}

/// The run-level half of a simulation: the message source and
/// admission, the fault kill schedule, the loop head and verdicts every
/// driver shares, and the legacy per-step driver. Its [`Core`] is keyed
/// by message id; the sequential engines run every worm in it, the
/// parallel engine uses it as the table worms are admitted into and
/// retire back to.
pub(crate) struct Sim<'a> {
    pub(crate) core: Core<'a>,
    /// The simulated graph (a live source's spec checks, adaptive
    /// endpoint lookup, and the parallel engine's region layout).
    pub(crate) graph: &'a Graph,
    /// Where the run's messages come from.
    feed: Feed<'a>,
    /// Every admitted id, in admission order — the feed's `(release,
    /// id)` emission order, which is exactly the order the old
    /// release-sorted scan produced. Only [`Sim::rebuild_active`], at a
    /// deadlock verdict, iterates it.
    admitted: Vec<u32>,
    /// Cached [`TrafficSource::reactive`] — `true` pins the event
    /// drivers' windows to one step.
    pub(crate) reactive: bool,
    /// Expanded per-edge kill schedule from [`SimConfig::faults`]:
    /// ascending `(at, edge)`, router kills expanded to their incident
    /// edges, earliest kill time kept per edge
    /// ([`wormhole_topology::fault::FaultPlan::edge_schedule`]).
    kill_schedule: Vec<(u64, u32)>,
    /// Cursor into `kill_schedule`: entries before it are applied.
    next_kill: usize,
    /// The driving engine's own counters, for
    /// [`SimResult::engine_stats`]; the parallel coordinator fills it.
    pub(crate) engine_stats: Option<EngineStats>,
}

/// Installs `spec` — checked where it entered, see [`Feed`] — as message
/// `id` in the id-keyed `core` at step `now` (ids below `id` not yet seen
/// get vacant slots; a later emission fills them in). One body, out of
/// line under both arms' loops: inlined into each, `torus_uniform_light`
/// read 2–3 % slower on both engines (PR 21, 7 of 8 pairs).
#[inline(never)]
fn admit<'a>(core: &mut Core<'a>, graph: &Graph, id: u32, spec: Cow<'a, MessageSpec>, now: u64) {
    let adaptive_mode = core.adaptive.is_some();
    // A frozen-route message released onto an already-dead edge is
    // undeliverable: discarded on the spot, below.
    let dead = &core.rules.dead;
    let dead_on_arrival =
        !dead.is_empty() && !adaptive_mode && spec.path.edges().iter().any(|&e| dead[e.idx()]);
    let (route, src, dst) = if adaptive_mode {
        (
            Vec::with_capacity(spec.hops() as usize),
            spec.path.src(graph),
            spec.path.dst(graph),
        )
    } else {
        (Vec::new(), NodeId(0), NodeId(0))
    };
    let resident = Resident {
        id,
        worm: Worm {
            advance: 0,
            hops: if adaptive_mode { 0 } else { spec.hops() },
            length: spec.length,
            pending_route: adaptive_mode,
        },
        spec,
        out: MessageOutcome::default(),
        route,
        src,
        dst,
        budget: core.config.misroute_quota,
        selected: SelectedHop::None,
    };
    core.put(id, resident);
    core.unfinished += 1;
    // It holds nothing yet; discarding it here fires the source's
    // `on_discarded` so closed-loop sources can reissue. Adaptive
    // messages stay: they route around dead edges.
    if dead_on_arrival {
        core.discard(id, now, DiscardReason::LinkDown);
    }
}

/// The two arms [`Sim`] pulls messages from. Either is the door its
/// specs are checked at, once: a slice's all together before step 0
/// ([`check_specs`]), a live source's as [`Sim::admit_ready`] drains
/// them — [`admit`] trusts what it is handed.
enum Feed<'a> {
    /// The caller's slice, lent to the run: ids are the indices, walked
    /// in `order` ([`release_order`]); nobody to notify.
    Slice {
        specs: &'a [MessageSpec],
        order: Vec<u32>,
        /// Entries of `order` before it are admitted.
        cursor: usize,
    },
    /// A live source, polled and notified per the [`crate::source`]
    /// contract.
    Live {
        source: &'a mut dyn TrafficSource,
        /// Per id: `true` once the source has emitted it.
        emitted: Vec<bool>,
        /// Scratch for [`TrafficSource::take_ready`].
        ready: Vec<(u32, MessageSpec)>,
    },
}

impl<'a> Sim<'a> {
    fn new(
        graph: &'a Graph,
        router: Option<&'a dyn AdaptiveRouter>,
        traffic: Traffic<'a>,
        config: &'a SimConfig,
    ) -> Result<Self, SimError> {
        let router = match config.route_selection {
            RouteSelection::Oblivious => None,
            _ => Some(router.ok_or(SimError::RouterMissing)?),
        };
        let kill_schedule = match &config.faults {
            Some(plan) if !plan.is_empty() => {
                plan.validate(graph).map_err(SimError::Faults)?;
                plan.edge_schedule(graph)
            }
            _ => Vec::new(),
        };
        let rules = VcRules::new(graph, config, !kill_schedule.is_empty())?;
        let (feed, reactive, id_bound) = match traffic {
            Traffic::Specs(specs) => {
                check_specs(graph, specs)?;
                let feed = Feed::Slice {
                    specs,
                    order: release_order(specs),
                    cursor: 0,
                };
                (feed, false, specs.len())
            }
            Traffic::Source(source) => {
                let (reactive, n) = (source.reactive(), source.id_bound().unwrap_or(0) as usize);
                let feed = Feed::Live {
                    source,
                    emitted: vec![false; n],
                    ready: Vec::new(),
                };
                (feed, reactive, n)
            }
        };
        // A feed that declares how many ids it holds has every table
        // sized here, once; one that does not grows them as ids appear.
        let mut core = Core::new(graph, router, config, rules, true);
        core.reserve(id_bound);
        Ok(Self {
            core,
            graph,
            feed,
            admitted: Vec::with_capacity(id_bound),
            reactive,
            kill_schedule,
            next_kill: 0,
            engine_stats: None,
        })
    }

    /// Earliest unapplied kill time (`u64::MAX` when exhausted). Like a
    /// message release it is a window boundary: no event-style window —
    /// the sequential engine's or a parallel grant — ever crosses it.
    #[inline]
    pub(crate) fn next_kill_time(&self) -> u64 {
        self.kill_schedule
            .get(self.next_kill)
            .map_or(u64::MAX, |&(at, _)| at)
    }

    /// Moves the cursor past every schedule entry with `at ≤ t` and
    /// hands them out with the id-keyed core. Each driver applies them
    /// at the start of step `t`, before admissions, to every core it
    /// runs ([`Core::kill`]; [`crate::engine::kill`] around it where
    /// worms park), so messages released at `t` see the new dead set.
    pub(crate) fn due_kills(&mut self, t: u64) -> (&mut Core<'a>, &[(u64, u32)]) {
        let from = self.next_kill;
        let due = self.kill_schedule[from..]
            .iter()
            .take_while(|&&(at, _)| at <= t);
        self.next_kill += due.count();
        (&mut self.core, &self.kill_schedule[from..self.next_kill])
    }

    /// Dispatches buffered completions to the source in ascending
    /// `(time, id)` order — the canonical, engine-independent callback
    /// sequence of the [`crate::source`] contract. A lent slice has
    /// nobody to tell.
    fn flush_deliveries(&mut self) {
        let done = &mut self.core.done;
        if let Feed::Live { source, .. } = &mut self.feed {
            done.sort_unstable();
            for &(t, id, delivered) in done.iter() {
                if delivered {
                    source.on_delivered(id, t);
                } else {
                    source.on_discarded(id, t);
                }
            }
        }
        done.clear();
    }

    /// Flushes completions, then peeks the feed's next release time.
    pub(crate) fn peek_next_release(&mut self, now: u64) -> Option<u64> {
        self.flush_deliveries();
        match &mut self.feed {
            Feed::Slice {
                specs,
                order,
                cursor,
            } => order.get(*cursor).map(|&i| specs[i as usize].release),
            Feed::Live { source, .. } => source.next_release(now),
        }
    }

    /// Flushes completions, then pulls and admits every message released
    /// by `now`. Returns the `self.admitted` index range of the new ids,
    /// or the first spec of a live source that fails its entry check.
    pub(crate) fn admit_ready(&mut self, now: u64) -> Result<std::ops::Range<usize>, SimError> {
        self.flush_deliveries();
        let start = self.admitted.len();
        let (core, graph, admitted) = (&mut self.core, self.graph, &mut self.admitted);
        match &mut self.feed {
            Feed::Slice {
                specs,
                order,
                cursor,
            } => {
                let specs = *specs; // the `&'a` slice itself: admitted specs outlive this borrow
                while let Some(&id) = order.get(*cursor) {
                    let spec = &specs[id as usize];
                    if spec.release > now {
                        break;
                    }
                    *cursor += 1;
                    admit(core, graph, id, Cow::Borrowed(spec), now);
                    admitted.push(id);
                }
            }
            Feed::Live {
                source,
                emitted,
                ready,
            } => {
                source.take_ready(now, ready);
                for (id, spec) in ready.drain(..) {
                    let mi = id as usize;
                    if emitted.len() <= mi {
                        emitted.resize(mi + 1, false);
                    }
                    let release = spec.release;
                    let entry = match check_spec(graph, &spec) {
                        _ if emitted[mi] => Err(SpecError::DuplicateId),
                        Ok(()) if release > now => Err(SpecError::ReleasedEarly { release, now }),
                        checked => checked,
                    };
                    entry.map_err(|error| SimError::Spec { id, error })?;
                    emitted[mi] = true;
                    admit(core, graph, id, Cow::Owned(spec), now);
                    admitted.push(id);
                }
            }
        }
        Ok(start..self.admitted.len())
    }

    /// Id of the `i`-th admitted message (admission order).
    #[inline]
    pub(crate) fn admitted_id(&self, i: usize) -> u32 {
        self.admitted[i]
    }

    /// Folds what a driver returned — how the run ended, the step it
    /// stopped at, the deadlock post-mortem — and the accumulated state
    /// into the [`SimResult`].
    fn into_result(self, (outcome, t, deadlock_report): Driven) -> SimResult {
        let mut core = self.core;
        let total_steps = match outcome {
            Outcome::Completed => core.last_finish,
            _ => t,
        };
        let total_stalls = core.outcomes.iter().map(|o| o.stalls).sum();
        let (escape_fallbacks, misroute_hops) = core.adaptive.as_ref().map_or((0, 0), |a| {
            (a.stats.escape_fallbacks, a.stats.misroute_hops)
        });
        // Fault stats. The applied-kill cursor is engine-identical: every
        // event-style window stops at kill times exactly as it stops at
        // message releases, so all engines apply every schedule entry at
        // the same simulated step. Recovery time is the gap from the
        // last applied kill to the first delivery at or after it.
        let kills_applied = self.next_kill as u64;
        let fault_recovery_steps = if self.next_kill > 0 {
            let last_kill_at = self.kill_schedule[self.next_kill - 1].0;
            core.outcomes
                .iter()
                .filter_map(|o| o.finished)
                .filter(|&f| f >= last_kill_at)
                .min()
                .map_or(0, |f| f - last_kill_at)
        } else {
            0
        };
        // A capped run may end before the source emitted every message it
        // knows about; pad to the declared id bound so e.g. a replayed
        // slice still reports one (default) outcome per input spec.
        let id_bound = match &self.feed {
            Feed::Slice { specs, .. } => specs.len(),
            Feed::Live { source, .. } => source.id_bound().unwrap_or(0) as usize,
        };
        if core.outcomes.len() < id_bound {
            core.outcomes.resize(id_bound, MessageOutcome::default());
        }
        SimResult {
            outcome,
            total_steps,
            messages: core.outcomes,
            max_vcs_in_use: core.ledger.max_vcs as u32,
            max_pool_in_use: core.ledger.max_pool,
            total_stalls,
            flit_hops: core.flit_hops,
            escape_fallbacks,
            misroute_hops,
            kills_applied,
            fault_discards: core.fault_discards,
            fault_detour_hops: core.fault_detour_hops,
            fault_recovery_steps,
            deadlock: deadlock_report,
            open_loop: None,
            closed_loop: None,
            engine_fallback: None,
            engine_stats: self.engine_stats,
        }
    }

    /// The loop head every driver shares. With worms in flight only the
    /// step cap ends the run. With nothing in flight (`idle`) the run is
    /// over iff the source is dry (a reactive source with an idle network
    /// has flushed every completion, so its answer is final); otherwise
    /// `t` fast-forwards over the idle gap — but never past the step
    /// cap: a release at or beyond `max_steps` cannot run inside the
    /// cap, so the run ends at exactly the cap instead of silently
    /// simulating (and reporting) beyond it.
    pub(crate) fn loop_head(&mut self, t: &mut u64, idle: bool) -> Option<Outcome> {
        let cap = self.core.config.max_steps;
        if !idle {
            return (*t >= cap).then_some(Outcome::MaxSteps);
        }
        match self.peek_next_release(*t) {
            None => Some(Outcome::Completed),
            Some(_) if *t >= cap => Some(Outcome::MaxSteps),
            Some(r) if r >= cap => {
                *t = cap;
                Some(Outcome::MaxSteps)
            }
            Some(r) => {
                *t = (*t).max(r);
                None
            }
        }
    }

    /// The original per-step driver: rescans every active worm each step.
    pub(crate) fn drive_legacy(&mut self) -> Result<Driven, SimError> {
        let mut t: u64 = 0;
        let mut deadlock_report = None;
        let outcome = loop {
            if let Some(outcome) = self.loop_head(&mut t, self.core.active.is_empty()) {
                break outcome;
            }
            // Kills scheduled by `t` take effect at the start of the step:
            // severed worms are discarded (their VCs released, visible to
            // this step's arbitration) before admissions, so messages
            // released at `t` already see the updated dead set.
            if self.next_kill_time() <= t {
                let (core, due) = self.due_kills(t);
                core.kill(due, t);
                self.retire_finished();
            }
            let new = self.admit_ready(t)?;
            for i in new {
                let m = self.admitted_id(i);
                // Skip messages discarded at admission (dead-on-arrival).
                if self.core.outcomes[m as usize].discarded.is_none() {
                    self.core.active.push(m);
                }
            }

            let moved = self.step_full_bandwidth(t);

            if !moved
                && !self.core.active.is_empty()
                && self.core.config.blocked == BlockedPolicy::Stall
            {
                // Static state: every active worm is blocked on a held VC
                // and releases only come from moves. Future arrivals cannot
                // free anything. Deadlock.
                deadlock_report = Some(self.build_deadlock_report());
                break Outcome::Deadlock(self.core.active.clone());
            }
            if self.core.config.check_invariants {
                self.core.validate();
            }
            t += 1;
        };
        Ok((outcome, t, deadlock_report))
    }

    /// Rebuilds the core's `active` list (admitted, unretired, in
    /// admission order) — the event-style drivers call this for the
    /// deadlock verdict instead of paying an `O(active)` retire scan
    /// every step.
    pub(crate) fn rebuild_active(&mut self) {
        let core = &mut self.core;
        core.active.clear();
        for &m in &self.admitted {
            let mi = m as usize;
            if !core.worms[mi].done() && core.outcomes[mi].discarded.is_none() {
                core.active.push(m);
            }
        }
    }

    /// Reconstructs the wait-for relation at the moment of deadlock: per
    /// blocked worm, the edge it wants and that edge's current holders.
    /// Holder lists are CSR over a dense per-edge index (a deadlocked
    /// near-saturation run holds a large fraction of all edges; the old
    /// `HashMap` paid a hash per held edge).
    pub(crate) fn build_deadlock_report(&self) -> DeadlockReport {
        let core = &self.core;
        let num_edges = self.graph.num_edges();
        let held = |m: u32| {
            let w = core.worms[m as usize];
            w.held_vcs().map(move |j| core.path_edge(m, j))
        };
        let mut start = vec![0u32; num_edges + 1];
        for &m in &core.active {
            for e in held(m) {
                start[e + 1] += 1;
            }
        }
        for e in 0..num_edges {
            start[e + 1] += start[e];
        }
        let mut cursor = start.clone();
        let mut hold = vec![0u32; start[num_edges] as usize];
        for &m in &core.active {
            for e in held(m) {
                hold[cursor[e] as usize] = m;
                cursor[e] += 1;
            }
        }
        let mut waits = Vec::new();
        for &m in &core.active {
            let w = &core.worms[m as usize];
            let e = if w.pending_route {
                // A pending worm waits on the hop it selected during the
                // (movement-free) step that detected the deadlock.
                let ad = core.adaptive.as_ref().expect("pending worm without state");
                ad.selected[m as usize]
                    .edge()
                    .expect("blocked pending worm was classified") as usize
            } else if w.advance < w.hops {
                core.path_edge(m, w.advance + 1)
            } else {
                continue;
            };
            waits.push(WaitFor {
                message: m,
                edge: e as u32,
                holders: hold[start[e] as usize..start[e + 1] as usize].to_vec(),
            });
        }
        waits.sort_by_key(|w| w.message);
        DeadlockReport::from_waits(waits)
    }

    /// One step under the paper's primary model: every VC moves one flit.
    /// Returns whether any worm advanced.
    fn step_full_bandwidth(&mut self, t: u64) -> bool {
        let core = &mut self.core;
        let active = std::mem::take(&mut core.active);
        let progressed = core.step_winners(t, &active, &[]);
        core.active = active;
        for i in 0..core.blocked.len() {
            let m = core.blocked[i];
            core.outcomes[m as usize].stalls += 1;
            if core.config.blocked == BlockedPolicy::Discard {
                core.discard(m, t, DiscardReason::Delay);
            }
        }
        core.ledger.settle_max(&core.rules);
        self.retire_finished();
        progressed
    }

    /// Drops delivered and discarded worms from the legacy stepper's
    /// `active` list.
    fn retire_finished(&mut self) {
        let core = &mut self.core;
        let (outcomes, worms) = (&core.outcomes, &core.worms);
        core.active
            .retain(|&m| !worms[m as usize].done() && outcomes[m as usize].discarded.is_none());
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arbitration;
    use crate::message::specs_from_paths;
    use crate::restricted::{self, RestrictedConfig};
    use wormhole_topology::graph::{GraphBuilder, NodeId};
    use wormhole_topology::path::{Path, PathSet};
    use wormhole_topology::random_nets::shared_chain_instance;

    fn chain(n: u32) -> (Graph, Vec<wormhole_topology::graph::EdgeId>) {
        let mut b = GraphBuilder::new(n as usize);
        let edges = (0..n - 1)
            .map(|i| b.add_edge(NodeId(i), NodeId(i + 1)))
            .collect();
        (b.build(), edges)
    }

    fn cfg(b: u32) -> SimConfig {
        SimConfig::new(b).check_invariants(true)
    }

    #[test]
    fn single_worm_takes_d_plus_l_minus_1() {
        for (d, l) in [(1u32, 1u32), (1, 5), (5, 1), (7, 3), (3, 7), (10, 10)] {
            let (g, edges) = chain(d + 1);
            let spec = MessageSpec::new(Path::new(edges), l);
            let r = run_to_completion(&g, &[spec], &cfg(2));
            assert_eq!(
                r.total_steps,
                (d + l - 1) as u64,
                "d={d} l={l}: unblocked worm must take d+L−1 steps"
            );
            assert_eq!(r.messages[0].finished, Some((d + l - 1) as u64));
            assert_eq!(r.messages[0].stalls, 0);
            assert_eq!(r.flit_hops, (d as u64) * (l as u64));
        }
    }

    #[test]
    fn release_time_shifts_completion() {
        let (g, edges) = chain(4);
        let spec = MessageSpec::new(Path::new(edges), 2).release_at(10);
        let r = run_to_completion(&g, &[spec], &cfg(1));
        assert_eq!(r.total_steps, 10 + 3 + 2 - 1);
    }

    #[test]
    fn b_worms_share_an_edge_without_blocking() {
        // B identical messages over one chain: all fit on separate VCs and
        // finish together in d+L−1.
        for b in 1..=4u32 {
            let (g, ps) = shared_chain_instance(b, 6);
            let specs = specs_from_paths(&ps, 4);
            let r = run_to_completion(&g, &specs, &cfg(b));
            assert_eq!(r.total_steps, 6 + 4 - 1);
            assert_eq!(r.max_vcs_in_use, b);
            assert_eq!(r.total_stalls, 0);
        }
    }

    #[test]
    fn b_plus_one_worms_serialize_behind_b_vcs() {
        // C = B+1 identical worms: one must wait for a VC to free. The
        // freed VC appears when a finishing worm's tail leaves the first
        // edge, i.e. after L steps; so the last worm finishes later.
        let b = 2u32;
        let (g, ps) = shared_chain_instance(b + 1, 5);
        let specs = specs_from_paths(&ps, 4);
        let r = run_to_completion(&g, &specs, &cfg(b));
        assert!(r.total_steps > 5 + 4 - 1, "third worm must have waited");
        assert!(r.total_stalls > 0);
        assert_eq!(r.max_vcs_in_use, b);
    }

    #[test]
    fn full_serialization_when_b_is_1() {
        // C worms over a chain with B=1 serialize: worm i+1 grabs the first
        // edge's VC one step after worm i's tail leaves it (the release
        // lands at the end of step t, so acquisition happens at t+1).
        // Makespan = (C−1)·(L+1) + D + L − 1.
        let (c, d, l) = (4u32, 6u32, 3u32);
        let (g, ps) = shared_chain_instance(c, d);
        let specs = specs_from_paths(&ps, l);
        let r = run_to_completion(&g, &specs, &cfg(1));
        assert_eq!(r.total_steps, ((c - 1) * (l + 1) + d + l - 1) as u64);
    }

    #[test]
    fn deadlock_detected_on_two_cycle() {
        // Two worms chasing each other around a 4-cycle with B=1 and L
        // long enough that each holds its first edge while wanting the
        // other's: a → b → a. Classic wormhole deadlock.
        let mut bld = GraphBuilder::new(4);
        let e01 = bld.add_edge(NodeId(0), NodeId(1));
        let e12 = bld.add_edge(NodeId(1), NodeId(2));
        let e23 = bld.add_edge(NodeId(2), NodeId(3));
        let e30 = bld.add_edge(NodeId(3), NodeId(0));
        let g = bld.build();
        // Worm A: 0→1→2, worm B: 2→3→0→1. With L=3 and B=1, A holds e01
        // and wants e12... build mutual waits:
        let a = MessageSpec::new(Path::new(vec![e01, e12, e23]), 8);
        let bmsg = MessageSpec::new(Path::new(vec![e23, e30, e01]), 8);
        let r = run(&g, &[a, bmsg], &cfg(1));
        match r.outcome {
            Outcome::Deadlock(ids) => {
                assert_eq!(ids.len(), 2);
            }
            o => panic!("expected deadlock, got {o:?}"),
        }
    }

    #[test]
    fn discard_policy_drops_blocked_worms() {
        let (g, ps) = shared_chain_instance(3, 5);
        let specs = specs_from_paths(&ps, 4);
        let config = cfg(1).blocked(BlockedPolicy::Discard);
        let r = run(&g, &specs, &config);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.delivered(), 1, "only one worm fits; others discarded");
        assert_eq!(r.discarded(), 2);
        assert_eq!(r.total_steps, 5 + 4 - 1);
    }

    #[test]
    fn max_steps_aborts() {
        let (g, ps) = shared_chain_instance(4, 5);
        let specs = specs_from_paths(&ps, 4);
        let config = cfg(1).max_steps(3);
        let r = run(&g, &specs, &config);
        assert_eq!(r.outcome, Outcome::MaxSteps);
    }

    #[test]
    fn sparse_schedule_never_overshoots_the_step_cap() {
        // A long idle gap before the second release: the fast-forward must
        // clamp at the cap instead of jumping to the release and reporting
        // total_steps > max_steps.
        let (g, edges) = chain(3);
        let specs = vec![
            MessageSpec::new(Path::new(edges.clone()), 2),
            MessageSpec::new(Path::new(edges), 2).release_at(1_000),
        ];
        let r = run(&g, &specs, &cfg(1).max_steps(10));
        assert_eq!(r.outcome, Outcome::MaxSteps);
        assert_eq!(r.total_steps, 10, "run must end exactly at the cap");
        assert_eq!(r.delivered(), 1, "the early worm still completes");
        assert!(r.messages[1].first_move.is_none(), "late worm never ran");
    }

    #[test]
    fn sparse_schedule_fast_forward_still_works_within_the_cap() {
        // Control arm: the same gap with a generous cap completes, and the
        // fast-forward lands the second worm at its release time.
        let (g, edges) = chain(3);
        let specs = vec![
            MessageSpec::new(Path::new(edges.clone()), 2),
            MessageSpec::new(Path::new(edges), 2).release_at(1_000),
        ];
        let r = run_to_completion(&g, &specs, &cfg(1));
        assert_eq!(r.total_steps, 1_000 + 2 + 2 - 1);
        assert_eq!(r.messages[1].first_move, Some(1_000));
    }

    #[test]
    fn arbitration_priority_rank_orders_winners() {
        // Two worms contend for one VC; the one with lower priority value
        // must win regardless of id.
        let (g, edges) = chain(5);
        let p = Path::new(edges);
        let m0 = MessageSpec::new(p.clone(), 3).with_priority(5);
        let m1 = MessageSpec::new(p, 3).with_priority(1);
        let config = cfg(1).arbitration(Arbitration::PriorityRank);
        let r = run_to_completion(&g, &[m0, m1], &config);
        assert!(
            r.messages[1].finished.unwrap() < r.messages[0].finished.unwrap(),
            "higher-priority (lower value) worm must finish first"
        );
    }

    #[test]
    fn random_arbitration_is_deterministic_per_seed() {
        let (g, ps) = shared_chain_instance(6, 8);
        let specs = specs_from_paths(&ps, 5);
        let c1 = cfg(2).arbitration(Arbitration::Random).seed(42);
        let r1 = run_to_completion(&g, &specs, &c1);
        let r2 = run_to_completion(&g, &specs, &c1);
        for (a, b) in r1.messages.iter().zip(&r2.messages) {
            assert_eq!(a.finished, b.finished);
        }
    }

    #[test]
    fn restricted_model_single_worm_is_unslowed() {
        // One worm alone: it crosses ≤ min(L, d) edges per step but that
        // needs only its own tokens, so it still advances every step.
        let (g, edges) = chain(6);
        let spec = MessageSpec::new(Path::new(edges), 4);
        let r = restricted::run(&g, &[spec], &RestrictedConfig::new(2));
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.total_steps, 5 + 4 - 1);
    }

    #[test]
    fn restricted_model_b_worms_timeshare() {
        // B worms on one chain under the restricted model: the shared edges
        // have 1 flit/step of bandwidth, so B worms take ≈ B times longer
        // than under the full-bandwidth model.
        let b = 3u32;
        let (g, ps) = shared_chain_instance(b, 8);
        let specs = specs_from_paths(&ps, 6);
        let full = run_to_completion(&g, &specs, &cfg(b));
        let restricted = restricted::run(&g, &specs, &RestrictedConfig::new(b));
        assert_eq!(restricted.outcome, Outcome::Completed);
        assert!(
            restricted.total_steps >= (b as u64 - 1) * full.total_steps / 2,
            "restricted {} vs full {}",
            restricted.total_steps,
            full.total_steps
        );
        assert!(restricted.total_steps >= full.total_steps);
    }

    #[test]
    fn staggered_releases_pipeline_cleanly() {
        // Two worms on the same chain, second released one step after the
        // first's tail frees the first edge (release during step L−1+... the
        // first edge frees during step L, usable at L+1): no stalls.
        let (g, edges) = chain(6);
        let l = 4u32;
        let m0 = MessageSpec::new(Path::new(edges.clone()), l);
        let m1 = MessageSpec::new(Path::new(edges), l).release_at(l as u64 + 1);
        let r = run_to_completion(&g, &[m0, m1], &cfg(1));
        assert_eq!(r.total_stalls, 0);
        assert_eq!(
            r.messages[1].finished,
            Some((l + 1) as u64 + 5 + l as u64 - 1)
        );
    }

    #[test]
    fn empty_spec_list_completes_instantly() {
        let (g, _) = chain(3);
        let r = run(&g, &[], &cfg(1));
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.total_steps, 0);
    }

    #[test]
    fn flit_hops_counts_total_work() {
        let (g, ps) = shared_chain_instance(2, 4);
        let specs = specs_from_paths(&ps, 3);
        let r = run_to_completion(&g, &specs, &cfg(2));
        assert_eq!(r.flit_hops, 2 * 4 * 3);
    }

    #[test]
    fn worms_with_different_lengths_and_paths() {
        let (g, edges) = chain(8);
        let specs = vec![
            MessageSpec::new(Path::new(edges[0..3].to_vec()), 2),
            MessageSpec::new(Path::new(edges[2..7].to_vec()), 9),
            MessageSpec::new(Path::new(edges[5..6].to_vec()), 1),
        ];
        let r = run_to_completion(&g, &specs, &cfg(2));
        assert_eq!(r.delivered(), 3);
        for (i, m) in r.messages.iter().enumerate() {
            let lb = specs[i].unblocked_time();
            assert!(m.finished.unwrap() >= lb);
        }
    }

    #[test]
    fn deadlock_report_names_the_cycle() {
        let mut bld = GraphBuilder::new(4);
        let e01 = bld.add_edge(NodeId(0), NodeId(1));
        let e12 = bld.add_edge(NodeId(1), NodeId(2));
        let e23 = bld.add_edge(NodeId(2), NodeId(3));
        let e30 = bld.add_edge(NodeId(3), NodeId(0));
        let g = bld.build();
        let a = MessageSpec::new(Path::new(vec![e01, e12, e23]), 8);
        let bmsg = MessageSpec::new(Path::new(vec![e23, e30, e01]), 8);
        let r = run(&g, &[a, bmsg], &cfg(1));
        let rep = r.deadlock.expect("deadlock report present");
        assert_eq!(rep.cycle.len(), 2, "mutual wait: {rep:?}");
        // Worm 0 waits on e23 (held by 1), worm 1 waits on e01 (held by 0).
        let w0 = rep.waits.iter().find(|w| w.message == 0).unwrap();
        assert_eq!(w0.edge, e23.0);
        assert_eq!(w0.holders, vec![1]);
        let w1 = rep.waits.iter().find(|w| w.message == 1).unwrap();
        assert_eq!(w1.edge, e01.0);
        assert_eq!(w1.holders, vec![0]);
    }

    #[test]
    fn completed_runs_have_no_deadlock_report() {
        let (g, edges) = chain(3);
        let r = run_to_completion(&g, &[MessageSpec::new(Path::new(edges), 2)], &cfg(1));
        assert!(r.deadlock.is_none());
    }

    #[test]
    fn pathset_helper_roundtrip() {
        let (g, edges) = chain(4);
        let ps = PathSet::new(vec![Path::new(edges.clone()), Path::new(edges)]);
        let specs = specs_from_paths(&ps, 7);
        assert_eq!(specs.len(), 2);
        let r = run_to_completion(&g, &specs, &cfg(2));
        assert_eq!(r.delivered(), 2);
    }

    // ---- engine differential fixtures -------------------------------

    /// Runs `specs` under both engines and asserts bit-identical results
    /// (the differential-oracle relation; the proptest suite widens it to
    /// random workloads).
    fn assert_engines_agree(g: &Graph, specs: &[MessageSpec], config: &SimConfig) -> SimResult {
        let event = run(g, specs, &config.clone().engine(Engine::EventDriven));
        let legacy = run(g, specs, &config.clone().engine(Engine::Legacy));
        assert!(
            event.same_execution(&legacy),
            "engines diverged:\n event: {event:?}\nlegacy: {legacy:?}"
        );
        event
    }

    #[test]
    fn engines_agree_on_contended_chains() {
        for (c, d, l, b) in [
            (4u32, 6u32, 3u32, 1u32),
            (6, 8, 5, 2),
            (3, 5, 4, 3),
            (5, 4, 9, 2),
        ] {
            let (g, ps) = shared_chain_instance(c, d);
            let specs = specs_from_paths(&ps, l);
            let r = assert_engines_agree(&g, &specs, &cfg(b));
            assert_eq!(r.delivered(), c as usize);
        }
    }

    #[test]
    fn engines_agree_under_every_arbitration_policy() {
        let (g, ps) = shared_chain_instance(6, 7);
        for pol in [
            Arbitration::FifoById,
            Arbitration::OldestFirst,
            Arbitration::PriorityRank,
            Arbitration::Random,
        ] {
            let specs: Vec<MessageSpec> = specs_from_paths(&ps, 5)
                .into_iter()
                .enumerate()
                .map(|(i, s)| {
                    let r = (i as u64 % 3) * 2;
                    s.release_at(r).with_priority((7 - i) as u32)
                })
                .collect();
            assert_engines_agree(&g, &specs, &cfg(2).arbitration(pol).seed(99));
        }
    }

    #[test]
    fn engines_agree_on_deadlock_and_report() {
        let mut bld = GraphBuilder::new(4);
        let e01 = bld.add_edge(NodeId(0), NodeId(1));
        let e12 = bld.add_edge(NodeId(1), NodeId(2));
        let e23 = bld.add_edge(NodeId(2), NodeId(3));
        let e30 = bld.add_edge(NodeId(3), NodeId(0));
        let g = bld.build();
        let a = MessageSpec::new(Path::new(vec![e01, e12, e23]), 8);
        let bmsg = MessageSpec::new(Path::new(vec![e23, e30, e01]), 8);
        let r = assert_engines_agree(&g, &[a, bmsg], &cfg(1));
        assert!(matches!(r.outcome, Outcome::Deadlock(_)));
        assert!(r.deadlock.is_some());
    }

    #[test]
    fn engines_agree_at_the_step_cap() {
        // Partial state at a MaxSteps abort — including the arithmetic
        // stall top-up for still-parked worms — must match the legacy
        // per-step counts exactly.
        let (g, ps) = shared_chain_instance(5, 6);
        let specs = specs_from_paths(&ps, 4);
        for cap in [1u64, 3, 7, 12, 20] {
            let r = assert_engines_agree(&g, &specs, &cfg(1).max_steps(cap));
            if cap <= 12 {
                assert_eq!(r.outcome, Outcome::MaxSteps, "cap {cap}");
            }
        }
    }

    #[test]
    fn engines_agree_under_discard() {
        let (g, ps) = shared_chain_instance(4, 5);
        let specs = specs_from_paths(&ps, 4);
        let r = assert_engines_agree(&g, &specs, &cfg(1).blocked(BlockedPolicy::Discard));
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.discarded(), 3);
    }

    #[test]
    fn engines_agree_on_sparse_schedules() {
        // Idle-gap jumps and lone-worm fast-forward against the legacy
        // stepper's step-by-step walk.
        let (g, edges) = chain(6);
        let specs = vec![
            MessageSpec::new(Path::new(edges.clone()), 3),
            MessageSpec::new(Path::new(edges.clone()), 5).release_at(40),
            MessageSpec::new(Path::new(edges), 2).release_at(41),
        ];
        let r = assert_engines_agree(&g, &specs, &cfg(1));
        assert_eq!(r.outcome, Outcome::Completed);
    }

    #[test]
    fn deadlock_report_regression_on_two_cycle() {
        // The dense per-edge holder index must reproduce the exact report
        // the HashMap-based builder produced on the two-cycle fixture.
        let mut bld = GraphBuilder::new(4);
        let e01 = bld.add_edge(NodeId(0), NodeId(1));
        let e12 = bld.add_edge(NodeId(1), NodeId(2));
        let e23 = bld.add_edge(NodeId(2), NodeId(3));
        let e30 = bld.add_edge(NodeId(3), NodeId(0));
        let g = bld.build();
        let a = MessageSpec::new(Path::new(vec![e01, e12, e23]), 8);
        let bmsg = MessageSpec::new(Path::new(vec![e23, e30, e01]), 8);
        for engine in [Engine::EventDriven, Engine::Legacy] {
            let r = run(&g, &[a.clone(), bmsg.clone()], &cfg(1).engine(engine));
            let rep = r.deadlock.expect("deadlock report present");
            assert_eq!(
                rep.waits,
                vec![
                    WaitFor {
                        message: 0,
                        edge: e23.0,
                        holders: vec![1],
                    },
                    WaitFor {
                        message: 1,
                        edge: e01.0,
                        holders: vec![0],
                    },
                ],
                "{engine:?}"
            );
            assert_eq!(rep.cycle, vec![0, 1], "{engine:?}");
        }
    }

    #[test]
    fn flat_buckets_group_reset_roundtrip() {
        let mut b = FlatBuckets::with_edges(8);
        for round in 0..3 {
            b.clear();
            b.push(5, 10 + round);
            b.push(2, 20);
            b.push(5, 30);
            b.push(7, 40);
            b.push(2, 50);
            let groups = b.group();
            assert_eq!(groups, 3);
            // First-touch edge order, discovery order within an edge.
            assert_eq!(b.edge(0), 5);
            assert_eq!(b.group_mut(0), &[10 + round, 30]);
            assert_eq!(b.edge(1), 2);
            assert_eq!(b.group_mut(1), &[20, 50]);
            assert_eq!(b.edge(2), 7);
            assert_eq!(b.group_mut(2), &[40]);
        }
    }

    // ---- adaptive route selection ------------------------------------

    use wormhole_topology::mesh::{Mesh, RoutingDiscipline};

    fn adaptive_torus(radix: u32, dims: u32) -> Mesh {
        Mesh::new_disciplined(radix, dims, true, RoutingDiscipline::AdaptiveEscape)
    }

    fn run_adaptive_to_completion(
        t: &Mesh,
        specs: &[MessageSpec],
        config: &SimConfig,
    ) -> SimResult {
        let r = run_adaptive(t, specs, config);
        assert_eq!(r.outcome, Outcome::Completed, "simulation did not complete");
        r
    }

    /// Specs whose paths are the oblivious dateline routes (adaptive runs
    /// only read the endpoints from them).
    fn adaptive_specs(m: &Mesh, pairs: &[(u32, u32)], l: u32) -> Vec<MessageSpec> {
        pairs
            .iter()
            .map(|&(s, d)| MessageSpec::new(m.route(NodeId(s), NodeId(d)), l))
            .collect()
    }

    #[test]
    fn lone_adaptive_worm_is_minimal_and_unslowed() {
        // An uncontended minimal-adaptive worm still takes d + L − 1
        // steps: per-hop selection never lengthens a minimal route.
        let t = adaptive_torus(8, 1);
        let specs = adaptive_specs(&t, &[(0, 3)], 4);
        for sel in [
            RouteSelection::MinimalAdaptive,
            RouteSelection::FullyAdaptive,
        ] {
            let cfg = cfg(2).route_selection(sel);
            let r = run_adaptive_to_completion(&t, &specs, &cfg);
            assert_eq!(r.total_steps, (3 + 4 - 1) as u64, "{sel:?}");
            assert_eq!(r.total_stalls, 0);
            assert_eq!(r.escape_fallbacks, 0);
            assert_eq!(r.misroute_hops, 0);
            assert_eq!(r.flit_hops, 3 * 4);
        }
    }

    #[test]
    fn adaptive_oblivious_config_falls_back_to_fixed_paths() {
        // RouteSelection::Oblivious through run_adaptive is exactly run().
        let t = adaptive_torus(4, 2);
        let specs = adaptive_specs(&t, &[(0, 5), (3, 9), (12, 2)], 3);
        let a = run_adaptive(&t, &specs, &cfg(2));
        let b = run(t.graph(), &specs, &cfg(2));
        assert!(a.same_execution(&b));
    }

    #[test]
    fn minimal_adaptive_spreads_over_dimensions_under_contention() {
        // Two worms from the same source to the same far corner of a 2D
        // torus with B = 1 on the adaptive lane: oblivious dimension-order
        // serializes them on the first hop, minimal-adaptive routes the
        // second worm around the other dimension — both finish without
        // either falling back or serializing fully.
        let t = adaptive_torus(4, 2);
        let pairs = [(0u32, 10u32), (0, 10)]; // (0,0) -> (2,2)
        let specs = adaptive_specs(&t, &pairs, 6);
        let adaptive = run_adaptive_to_completion(
            &t,
            &specs,
            &cfg(1).route_selection(RouteSelection::MinimalAdaptive),
        );
        let oblivious = run_to_completion(t.graph(), &specs, &cfg(1));
        assert!(
            adaptive.total_steps < oblivious.total_steps,
            "path diversity must beat dimension-order serialization: \
             adaptive {} vs oblivious {}",
            adaptive.total_steps,
            oblivious.total_steps
        );
        // Both worms pick the same least-occupied edge in step 0 (their
        // views are identical), so the loser stalls once and then routes
        // around the other dimension — contention ends there.
        assert!(
            adaptive.total_stalls < oblivious.total_stalls,
            "adaptive {} vs oblivious {} stalls",
            adaptive.total_stalls,
            oblivious.total_stalls
        );
    }

    #[test]
    fn saturated_adaptive_lane_drains_via_escape_channels() {
        // All four worms circle the same 1D ring direction (distance 2,
        // ties break toward +) with B = 1: each grabs its first adaptive
        // hop, then finds its second held by the next worm — the classic
        // wrap cycle. Every second hop must fall back to the escape pair,
        // and every worm still completes (the escape network is
        // deadlock-free by construction).
        let t = adaptive_torus(4, 1);
        let pairs: Vec<(u32, u32)> = (0..4).map(|i| (i, (i + 2) % 4)).collect();
        let specs = adaptive_specs(&t, &pairs, 8);
        let cfg = cfg(1).route_selection(RouteSelection::MinimalAdaptive);
        let r = run_adaptive_to_completion(&t, &specs, &cfg);
        assert!(r.escape_fallbacks > 0, "adaptive lane must saturate: {r:?}");
        assert_eq!(r.delivered(), 4);
    }

    #[test]
    fn misroute_budget_bounds_fully_adaptive_wandering() {
        let t = adaptive_torus(4, 2);
        let pairs: Vec<(u32, u32)> = (0..16).map(|i| (i, (i + 5) % 16)).collect();
        for quota in [0u32, 2, 4] {
            let specs = adaptive_specs(&t, &pairs, 6);
            let cfg = cfg(1)
                .route_selection(RouteSelection::FullyAdaptive)
                .misroute_quota(quota);
            let r = run_adaptive_to_completion(&t, &specs, &cfg);
            assert_eq!(r.delivered(), 16);
            assert!(
                r.misroute_hops <= (quota as u64) * 16,
                "quota {quota}: {} misroutes",
                r.misroute_hops
            );
            if quota == 0 {
                assert_eq!(r.misroute_hops, 0);
            }
        }
    }

    #[test]
    fn adaptive_engines_agree_on_contended_tori() {
        for sel in [
            RouteSelection::MinimalAdaptive,
            RouteSelection::FullyAdaptive,
        ] {
            for (radix, dims, b, l) in [(4u32, 2u32, 1u32, 6u32), (8, 1, 2, 4), (4, 2, 2, 3)] {
                let t = adaptive_torus(radix, dims);
                let n = t.num_nodes();
                let pairs: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + n / 2) % n)).collect();
                let specs = adaptive_specs(&t, &pairs, l);
                let config = cfg(b).route_selection(sel).arbitration(Arbitration::Random);
                let ev = run_adaptive(&t, &specs, &config.clone().engine(Engine::EventDriven));
                let lg = run_adaptive(&t, &specs, &config.clone().engine(Engine::Legacy));
                assert!(
                    ev.same_execution(&lg),
                    "{sel:?} {radix}^{dims} B={b} diverged:\n event: {ev:?}\nlegacy: {lg:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs run_adaptive")]
    fn oblivious_entry_point_rejects_adaptive_configs() {
        let t = adaptive_torus(4, 1);
        let specs = adaptive_specs(&t, &[(0, 2)], 2);
        let config = cfg(1).route_selection(RouteSelection::MinimalAdaptive);
        let _ = run(t.graph(), &specs, &config);
    }

    // ---- dynamic (router-pooled) VC allocation ------------------------

    use crate::config::VcPolicy;

    /// A 1→2 star: router 0 owns edges `e01` and `e02` (fanout 2), each
    /// continuing one more hop so worms can be held in-network.
    fn star() -> (Graph, EdgeId, EdgeId) {
        let mut b = GraphBuilder::new(5);
        let e01 = b.add_edge(NodeId(0), NodeId(1));
        let e02 = b.add_edge(NodeId(0), NodeId(2));
        b.add_edge(NodeId(1), NodeId(3));
        b.add_edge(NodeId(2), NodeId(4));
        (b.build(), e01, e02)
    }

    fn pooled_cfg(pool: u32, min: u32, max: u32) -> SimConfig {
        SimConfig::new(1)
            .vc_policy(VcPolicy::pooled(pool, min, max))
            .check_invariants(true)
    }

    #[test]
    fn degenerate_pooled_is_bit_identical_to_static() {
        // pool = B·fanout with min = max = B leaves the shared portion
        // empty: every field of the result must match Static(B).
        let (g, ps) = shared_chain_instance(5, 6);
        let specs = specs_from_paths(&ps, 4);
        for b in [1u32, 2, 3] {
            let stat = run(&g, &specs, &cfg(b));
            let fanout = g.max_out_degree() as u32;
            let pooled = run(&g, &specs, &pooled_cfg(b * fanout, b, b));
            assert!(
                stat.same_execution(&pooled),
                "B={b} diverged:\nstatic: {stat:?}\npooled: {pooled:?}"
            );
        }
    }

    #[test]
    fn pooled_edges_share_the_router_pool_on_demand() {
        // Equal aggregate storage at router 0 (4 VCs over fanout 2):
        // static B=2 admits only 2 of the 3 worms wanting e01 in step 0;
        // pooled (floor 1, cap 4) lends the idle sibling's spare VC to
        // the hot edge, admits all 3, and finishes sooner.
        let (g, e01, e02) = star();
        let mk = |e: EdgeId| MessageSpec::new(Path::new(vec![e]), 3);
        let specs = vec![mk(e01), mk(e01), mk(e01), mk(e02)];
        let stat = run_to_completion(&g, &specs, &cfg(2).check_invariants(true));
        let pooled = run_to_completion(&g, &specs, &pooled_cfg(4, 1, 4));
        assert_eq!(stat.max_vcs_in_use, 2);
        assert_eq!(
            pooled.max_vcs_in_use, 3,
            "hot edge must borrow from the pool"
        );
        assert!(pooled.max_pool_in_use <= 4);
        assert!(
            pooled.total_steps < stat.total_steps,
            "pooled {} !< static {}",
            pooled.total_steps,
            stat.total_steps
        );
        assert_eq!(pooled.total_stalls, 0);
    }

    #[test]
    fn pooled_floor_reserves_capacity_for_the_idle_edge() {
        // Pool 3 over fanout 2 (shared portion 1): two worms saturate
        // e01 (floor + the only shared credit), yet a later worm on e02
        // must still advance immediately — its floor VC is reserved, not
        // poolable.
        let (g, e01, e02) = star();
        let specs = vec![
            MessageSpec::new(Path::new(vec![e01]), 8),
            MessageSpec::new(Path::new(vec![e01]), 8),
            MessageSpec::new(Path::new(vec![e02]), 2).release_at(1),
        ];
        let r = run_to_completion(&g, &specs, &pooled_cfg(3, 1, 3));
        assert_eq!(r.messages[2].first_move, Some(1), "floor VC must be free");
        assert_eq!(r.messages[2].stalls, 0);
        assert_eq!(r.max_pool_in_use, 3);
    }

    #[test]
    fn pooled_per_edge_max_caps_a_single_edge() {
        // Plenty of pool, but per_edge_max = 2: the third worm on e01
        // stalls even though shared credit remains.
        let (g, e01, _) = star();
        let mk = || MessageSpec::new(Path::new(vec![e01]), 3);
        let r = run_to_completion(&g, &[mk(), mk(), mk()], &pooled_cfg(6, 1, 2));
        assert_eq!(r.max_vcs_in_use, 2);
        assert!(r.total_stalls > 0, "third worm must wait for the cap");
    }

    #[test]
    fn pooled_engines_agree_on_sibling_release_wakeups() {
        // The pool-release wakeup rule end to end: w3 parks on e01
        // needing *shared* credit (its floor is taken by the long-held
        // w2), and the credit only returns when the sibling edge e02
        // releases — an event the edge-keyed static wakeup would never
        // see. Both engines must agree on the stall accounting.
        let (g, e01, e02) = star();
        let specs = vec![
            MessageSpec::new(Path::new(vec![e02]), 6),
            MessageSpec::new(Path::new(vec![e02]), 6),
            MessageSpec::new(Path::new(vec![e01]), 20),
            MessageSpec::new(Path::new(vec![e01]), 2).release_at(1),
        ];
        let config = pooled_cfg(3, 1, 2);
        let r = assert_engines_agree(&g, &specs, &config);
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(
            r.messages[3].stalls > 0,
            "w3 must wait for the sibling release: {r:?}"
        );
    }

    #[test]
    fn engines_agree_on_edge_disjoint_router_sharing_paths() {
        // Two worms with edge-disjoint paths that both leave router 0:
        // they share its `pool_used` counter, and lock-step sees both
        // VCs at the router simultaneously (`max_pool_in_use = 2`) — a
        // state an engine that ran one worm ahead of the other would
        // never visit. Under both policies.
        let (g, e01, e02) = star();
        let e13 = Graph::find_edge(&g, NodeId(1), NodeId(3)).unwrap();
        let e24 = Graph::find_edge(&g, NodeId(2), NodeId(4)).unwrap();
        let specs = vec![
            MessageSpec::new(Path::new(vec![e01, e13]), 4),
            MessageSpec::new(Path::new(vec![e02, e24]), 4),
        ];
        let r = assert_engines_agree(&g, &specs, &cfg(1));
        assert_eq!(r.max_pool_in_use, 2, "both worms hold router 0 at once");
        let rp = assert_engines_agree(&g, &specs, &pooled_cfg(2, 1, 1));
        assert_eq!(rp.max_pool_in_use, 2);
    }

    #[test]
    fn engines_agree_on_fully_disjoint_chains() {
        // Control: worms on fully node- and edge-disjoint chains never
        // meet, and the engines agree on them too.
        let mut b = GraphBuilder::new(6);
        let a0 = b.add_edge(NodeId(0), NodeId(1));
        let a1 = b.add_edge(NodeId(1), NodeId(2));
        let b0 = b.add_edge(NodeId(3), NodeId(4));
        let b1 = b.add_edge(NodeId(4), NodeId(5));
        let g = b.build();
        let specs = vec![
            MessageSpec::new(Path::new(vec![a0, a1]), 5),
            MessageSpec::new(Path::new(vec![b0, b1]), 3).release_at(1),
        ];
        let r = assert_engines_agree(&g, &specs, &cfg(1));
        assert_eq!(r.total_stalls, 0);
        assert_eq!(r.max_pool_in_use, 1);
    }

    #[test]
    fn pooled_engines_agree_on_contended_chains() {
        for (c, d, l, pool, min, max) in [
            (4u32, 6u32, 3u32, 2u32, 1u32, 2u32),
            (6, 8, 5, 3, 1, 3),
            (5, 5, 4, 4, 2, 3),
            (3, 4, 9, 2, 1, 1),
        ] {
            let (g, ps) = shared_chain_instance(c, d);
            let specs = specs_from_paths(&ps, l);
            let r = assert_engines_agree(&g, &specs, &pooled_cfg(pool, min, max));
            assert_eq!(r.delivered(), c as usize);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds pool")]
    fn pooled_rejects_floors_the_pool_cannot_honor() {
        let (g, e01, _) = star();
        let specs = vec![MessageSpec::new(Path::new(vec![e01]), 2)];
        // fanout 2 at router 0, floor 2 each, pool 3: 2·2 > 3.
        let _ = run(&g, &specs, &pooled_cfg(3, 2, 2));
    }

    // ---- fault injection --------------------------------------------

    use wormhole_topology::fault::{FaultPlan, FaultedMesh};

    #[test]
    fn kill_severs_inflight_worm_and_later_traffic_recovers() {
        // Worm A spans the whole chain; edge 4 dies at step 3 while A is
        // mid-flight, so A's frozen remaining path is severed and it is
        // discarded with LinkDown — releasing its VCs. Worm B, released
        // after the kill on the surviving prefix, completes untouched;
        // the recovery stat measures kill → B's delivery.
        let (g, edges) = chain(6);
        let plan = FaultPlan::new().kill_link(3, edges[4]);
        let specs = vec![
            MessageSpec::new(Path::new(edges.clone()), 4),
            MessageSpec::new(Path::new(edges[0..2].to_vec()), 3).release_at(4),
        ];
        let r = assert_engines_agree(&g, &specs, &cfg(2).faults(plan));
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.kills_applied, 1);
        assert_eq!(r.fault_discards, 1);
        assert_eq!(r.messages[0].discarded, Some(DiscardReason::LinkDown));
        assert_eq!(r.messages[0].finished, None);
        // B: released 4, 2 hops + 3 flits ⇒ finished at 4 + 2 + 3 − 1.
        assert_eq!(r.messages[1].finished, Some(8));
        assert_eq!(r.messages[1].stalls, 0, "A's VCs were freed by the kill");
        assert_eq!(r.fault_recovery_steps, 8 - 3);
        assert_eq!(r.delivered(), 1);
    }

    #[test]
    fn oblivious_admission_onto_a_dead_edge_is_discarded() {
        // Edge 1 dies before worm A is even released: its fixed route has
        // nowhere else to go, so admission discards it on the spot
        // (LinkDown, never holds a VC). Worm B's route avoids the dead
        // edge and is unaffected.
        let (g, edges) = chain(6);
        let plan = FaultPlan::new().kill_link(1, edges[1]);
        let specs = vec![
            MessageSpec::new(Path::new(edges[0..3].to_vec()), 4).release_at(5),
            MessageSpec::new(Path::new(edges[2..5].to_vec()), 4).release_at(5),
        ];
        let r = assert_engines_agree(&g, &specs, &cfg(1).faults(plan));
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.messages[0].discarded, Some(DiscardReason::LinkDown));
        assert_eq!(r.messages[0].first_move, None);
        assert_eq!(r.messages[1].finished, Some(5 + 3 + 4 - 1));
        assert_eq!(r.fault_discards, 1);
    }

    #[test]
    fn adaptive_worm_routes_around_a_killed_channel() {
        // Node 2 = (+2, 0) on a radix-4 ring: both directions are
        // minimal. The + channel out of node 0 dies before the worm
        // starts, so minimal-adaptive (through FaultedMesh's filtered
        // candidates) takes the − direction instead — same hop count, no
        // misroute, no discard.
        let t = adaptive_torus(4, 2);
        let plan = FaultPlan::new().kill_channel(1, &t, &[0, 0], 0, false);
        let fm = FaultedMesh::new(&t, &plan).expect("plan keeps rings connected");
        let specs = adaptive_specs(&t, &[(0, 2)], 4);
        let config = cfg(2)
            .route_selection(RouteSelection::MinimalAdaptive)
            .faults(plan);
        let event = run_adaptive(&fm, &specs, &config.clone().engine(Engine::EventDriven));
        let legacy = run_adaptive(&fm, &specs, &config.clone().engine(Engine::Legacy));
        assert!(
            event.same_execution(&legacy),
            "engines diverged:\n event: {event:?}\nlegacy: {legacy:?}"
        );
        assert_eq!(event.outcome, Outcome::Completed);
        assert_eq!(event.fault_discards, 0);
        assert_eq!(event.messages[0].finished, Some(2 + 4 - 1));
        assert_eq!(event.misroute_hops, 0, "− direction is still minimal");
        assert!(event.kills_applied >= 1);
    }

    #[test]
    fn capped_faulted_run_separates_survivors_from_fault_discards() {
        // A step-capped faulted run must report the three populations
        // distinctly: delivered, fault-discarded, and still in flight at
        // the cap. Worm A dies under the kill, worm B is too long to
        // finish within the cap, worm C completes.
        let (g, edges) = chain(6);
        let plan = FaultPlan::new().kill_link(2, edges[4]);
        let specs = vec![
            MessageSpec::new(Path::new(edges.clone()), 4),
            MessageSpec::new(Path::new(edges[0..4].to_vec()), 30).release_at(3),
            MessageSpec::new(Path::new(edges[0..2].to_vec()), 2).release_at(3),
        ];
        let r = assert_engines_agree(&g, &specs, &cfg(2).faults(plan).max_steps(10));
        assert_eq!(r.outcome, Outcome::MaxSteps);
        assert_eq!(r.fault_discards, 1);
        assert_eq!(r.discarded(), 1);
        assert_eq!(r.in_flight(), 1, "the capped worm is not a fault casualty");
        assert_eq!(r.delivered(), 1);
        assert_eq!(r.messages[0].discarded, Some(DiscardReason::LinkDown));
        assert_eq!(r.messages[1].discarded, None);
        assert_eq!(r.messages[1].finished, None);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn sim_rejects_invalid_fault_plans() {
        let (g, edges) = chain(3);
        let plan = FaultPlan::new()
            .kill_link(1, edges[0])
            .kill_link(2, edges[0]);
        let specs = vec![MessageSpec::new(Path::new(edges.clone()), 2)];
        let _ = run(&g, &specs, &cfg(1).faults(plan));
    }

    #[test]
    fn random_arbitration_is_stream_position_independent() {
        // The counter-based arbitration RNG depends only on (seed, step,
        // edge): adding an unrelated earlier contention (on a disjoint
        // chain) must not change who wins a later one.
        let (g, edges) = chain(10);
        let shared = Path::new(edges[4..9].to_vec());
        let contended_pair = |extra: bool| {
            let mut specs = vec![
                MessageSpec::new(shared.clone(), 4).release_at(6),
                MessageSpec::new(shared.clone(), 4).release_at(6),
            ];
            if extra {
                // Disjoint early contention that burns arbitration events.
                specs.push(MessageSpec::new(Path::new(edges[0..2].to_vec()), 3));
                specs.push(MessageSpec::new(Path::new(edges[0..2].to_vec()), 3));
            }
            let r = run(&g, &specs, &cfg(1).arbitration(Arbitration::Random).seed(5));
            r.messages[0].finished.unwrap() < r.messages[1].finished.unwrap()
        };
        assert_eq!(contended_pair(false), contended_pair(true));
    }
}
