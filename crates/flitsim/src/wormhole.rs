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
//! `Core` (`resident` module); what a run adds around them — the
//! source, admission, the kill schedule, the verdicts — once, in `Sim`
//! (`sim` module), which only [`simulate`] builds. Three engines
//! ([`crate::config::Engine`]) decide which
//! worms the core steps and when; each runs every configuration, and they are
//! required to produce **bit-identical [`SimResult`]s** — the proptest
//! differential suite and the unit fixtures compare them field for
//! field, deadlock reports included:
//!
//! * the **legacy** stepper (`legacy` module) rescans every active worm
//!   each flit step (the original implementation, kept as the
//!   differential oracle);
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
//!    step every waiter on a hot key is a contender again. The
//!    frozen-route waiters of a key are entered into that step's
//!    arbitration as runs, whole, under the edge each wants, so every
//!    arbitration sees exactly the contender *set* the legacy stepper's
//!    does — its waiters and the runnable contenders — and every policy
//!    orders canonically in the set (a run is kept in that order, so
//!    only the winning places are read). While
//!    no key of a parked worm is hot its edges stay full and the legacy
//!    stepper re-runs and loses the same arbitration every step; at a
//!    contest it loses the legacy stepper loses too, and if any contender
//!    lost, the edge's free VCs were all granted — it is full again
//!    unless that step released on the key, which is then hot once more.
//!    Either way a worm parked at `p` that first wins at `s` stalled at
//!    every step in between, which is why stalls can be settled
//!    arithmetically (`stalls += s − 1 − p` when it wins; `stalls +=
//!    parked duration` on deadlock, step-cap exit, or when a kill
//!    unparks it) instead of counted one step at a time —
//!    and why a waiter that loses a contest stays where it waits. A
//!    pending adaptive waiter selects each step it contends, and does so
//!    in place too — once a step, however many of its keys are hot — on
//!    the same start-of-step occupancy a runnable worm reads. With one
//!    key hot, every other edge it watches is still full, so under the
//!    static policy (a key is an edge) it can only take that edge, under
//!    the hop its watch row holds for it: it is entered with that key's
//!    run like a frozen route. Otherwise the contest selects its hop from
//!    the row one at a time. It differs from a frozen-route loser in one
//!    way: selected one at a time, it may lose the edge it chose while
//!    *another* edge it watches is open, and no release will say so. Such
//!    a loser has a key marked hot again and contends, selected one at a
//!    time, at the next step, as the legacy stepper's would; every other
//!    loser's whole watch set is full again, as above.
//! 2. **Release at `t` is visible at `t+1`.** Keys turn hot at the end of
//!    the step whose releases produced them, so their waiters contend at
//!    `t+1` using start-of-step holder counts — the same convention the
//!    legacy stepper gets by reading start-of-step state. Releases that
//!    land at the start of a step (a kill's discards; in a parallel
//!    region, another region's releases of the step before) turn their
//!    keys hot before that step's contest. A drain's releases are filed
//!    on the event driver's wheel under the steps they happen and fired
//!    at those steps, before the park pass reads end-of-step state; the
//!    wheel fires on without a step only while no worm wants an edge and
//!    no parked worm exists to observe a release (up to the next message
//!    release, the next kill and the step cap), and a core with a hot
//!    key is never called frozen, so no arbitration, and no release
//!    visibility boundary, is ever skipped.
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
//! * **arbitration**, shared by every engine, in two passes over a
//!   step's contended edges (`Core::arbitrate`): the ledger says how many
//!   VCs each edge grants (`VcLedger::grants`), the split says who gets
//!   them (`Split::group`, the policy's canonical order). Only the first
//!   pass reads the VC policy: static, an edge grants its free VCs;
//!   pooled, sibling edges of one router competing for the same shared
//!   credits within a step are granted in **ascending edge-id order**, a
//!   canonical rule that reads only start-of-step state and the
//!   (engine-independent) contender sets, so the engines cannot diverge;
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
//! uses — the engines stay bit-identical. What the router offers at a
//! node — its candidates and the escape hop, the worm's *watch row* — is
//! pure for the whole run, so every engine asks once per head position
//! and selects from the kept row until the head moves. The event driver
//! parks a blocked *pending* worm once its whole watch set — every
//! candidate the router offers plus the escape hop — is full at end of
//! step, on the wait key of each of those edges: until
//! one of them sees a release, acquirability being monotone, selection
//! keeps answering "escape hop" and that hop keeps granting nothing, so
//! the legacy stepper counts exactly one stall per step and the parked
//! interval settles arithmetically like any other (the worm's selection
//! is pinned to the escape hop meanwhile, which is what a deadlock
//! report reads). It wants no fixed edge: when a key of its turns hot it
//! selects again from its row and contends from where it waits
//! (invariant 1), and only a win takes it off the queue — off every key.
//! A frozen-route worm wants one fixed edge and waits in that edge's run.
//! A fault kill leaves a parked pending worm where it waits: under a
//! fault plan the router avoids every edge the plan kills
//! ([`crate::config::SimConfig::check`] refuses a router that does
//! not), so no edge it watches dies. The drain wheel and the
//! idle-network jump stay exact: an arrived worm makes no further route
//! decision.

use std::fmt;

use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::graph::Graph;

use crate::config::{ConfigError, Engine, SimConfig};
use crate::message::{MessageSpec, SpecError};
use crate::sim::Sim;
use crate::source::{Traffic, TrafficSource};
use crate::stats::SimResult;

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
    /// [`SimConfig::check`] refused the config.
    Config(ConfigError),
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
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
                SpecError::IdBeyondBound { bound } => {
                    write!(
                        f,
                        "source emitted message id {id}, beyond its id bound {bound}"
                    )
                }
            },
            SimError::Config(e) => e.fmt(f),
        }
    }
}

/// The message spells the cause out; there is no `source` to chain to.
impl std::error::Error for SimError {}

/// The one door into the simulator, behind every other entry point:
/// judges `config` ([`SimConfig::check`]), builds the simulation of
/// `traffic` over `graph` (`router` is only consulted under an adaptive
/// [`crate::config::RouteSelection`]) and hands it to the configured
/// [`Engine`] — every engine runs every configuration.
///
/// The per-message tables are sized once, before step 0: to the slice,
/// or to the larger of a source's [`TrafficSource::id_bound`] and
/// [`TrafficSource::id_hint`]. The hint only sizes — it refuses no id
/// and pads no result; a run that goes past it grows the tables from
/// there. A message that finishes or is discarded gives back what the
/// run owns of it (a live source's route, an adaptive route row) and
/// keeps only its outcome, so a live run holds the routes of what is in
/// flight, not of every message it made.
///
/// # Errors
///
/// Everything wrong with the input comes back as a value, the same one
/// from every engine, and nothing a caller can put in a [`SimConfig`]
/// panics:
///
/// * before step 0 — whatever [`SimConfig::check`] refuses
///   ([`SimError::Config`]), then [`SimError::Spec`] for the first bad
///   spec of a [`Traffic::Specs`] slice (the whole slice is checked,
///   however late a spec's release);
/// * mid-run — [`SimError::Spec`] for a spec a [`Traffic::Source`]
///   emits, checked as it is drained from `take_ready` (its id too: new,
///   and below the source's declared
///   [`TrafficSource::id_bound`], if it declares one): the steps before
///   it ran, and the source has heard of every completion before that
///   poll.
///
/// What is left to panic is whatever `traffic`'s source or `router`
/// panics with — under [`Engine::Parallel`] resumed on the calling
/// thread.
pub fn simulate<'a>(
    graph: &'a Graph,
    router: Option<&'a dyn AdaptiveRouter>,
    traffic: Traffic<'a>,
    config: &'a SimConfig,
) -> Result<SimResult, SimError> {
    config.check(graph, router)?;
    let mut sim = Sim::new(graph, router, traffic, config)?;
    crate::probe::start();
    let driven = match config.engine {
        Engine::Legacy => crate::legacy::drive(&mut sim),
        Engine::EventDriven => crate::engine::drive(&mut sim),
        Engine::Parallel { threads } => crate::parallel::drive(&mut sim, threads),
    }?;
    Ok(sim.into_result(driven))
}

/// [`simulate`], panicking with the [`SimError`] as its message: what
/// the three conveniences below, and
/// [`crate::open_loop::run_open_loop`], are.
pub(crate) fn simulate_or_panic<'a>(
    graph: &'a Graph,
    router: Option<&'a dyn AdaptiveRouter>,
    traffic: Traffic<'a>,
    config: &'a SimConfig,
) -> SimResult {
    simulate(graph, router, traffic, config).unwrap_or_else(|e| panic!("{e}"))
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
/// ([`ConfigError::RouterMissing`] — use [`run_adaptive`]), or one
/// [`SimConfig::check`] refuses for another reason.
pub fn run(graph: &Graph, specs: &[MessageSpec], config: &SimConfig) -> SimResult {
    simulate_or_panic(graph, None, Traffic::Specs(specs), config)
}

/// Runs the wormhole simulation pulling messages from `source` (see
/// [`TrafficSource`] for the polling/notification contract).
///
/// # Panics
///
/// With the [`SimError`] [`simulate`] returns, as its message: a spec
/// the source emits with an empty path, a bad edge id, zero length, an
/// id it emitted before or one beyond its declared id bound, or a
/// release still ahead ([`SimError::Spec`],
/// checked as each is drained from `take_ready`, so possibly mid-run), a
/// `config` asking for adaptive route selection
/// ([`ConfigError::RouterMissing`] — [`simulate`] takes a router beside a
/// source), or one [`SimConfig::check`] refuses for another reason.
pub fn run_source(graph: &Graph, source: &mut dyn TrafficSource, config: &SimConfig) -> SimResult {
    simulate_or_panic(graph, None, Traffic::Source(source), config)
}

/// Runs the wormhole simulation with per-hop route selection over
/// `router`'s substrate (see [`crate::config::RouteSelection`] and the
/// module docs).
///
/// Each spec's [`MessageSpec::path`] supplies only the endpoints (and
/// the oblivious baseline the workload generators produce anyway);
/// under an adaptive policy the actual route is built hop by hop at the
/// header. With [`crate::config::RouteSelection::Oblivious`] this is
/// exactly [`run`].
///
/// # Panics
///
/// As [`run`], the specs being checked against `router`'s graph (there
/// is a router, so never [`ConfigError::RouterMissing`]).
pub fn run_adaptive(
    router: &dyn AdaptiveRouter,
    specs: &[MessageSpec],
    config: &SimConfig,
) -> SimResult {
    simulate_or_panic(router.graph(), Some(router), Traffic::Specs(specs), config)
}

#[cfg(test)]
mod tests;
