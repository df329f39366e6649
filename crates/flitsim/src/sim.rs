//! The run-level half of a simulation: [`Sim`] — where the messages
//! come from ([`Feed`]) and how they are admitted, the fault kill
//! schedule, the loop head and the verdicts every driver shares, and the
//! fold into a [`SimResult`]. Built only by [`crate::wormhole::simulate`],
//! around the id-keyed [`Core`] the three drivers
//! ([`crate::legacy::drive`], [`crate::engine::drive`],
//! [`crate::parallel::drive`]) step.

use std::borrow::Cow;

use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::graph::{Graph, NodeId};

use crate::config::{Engine, RouteSelection, SimConfig};
use crate::events::{DeadlockReport, WaitFor};
use crate::kernel::{SelectedHop, VcRules, Worm};
use crate::message::{check_spec, check_specs, MessageSpec, SpecError};
use crate::probe::{self, Phase};
use crate::resident::{AdaptiveState, Core, Resident};
use crate::source::{release_order, Traffic, TrafficSource};
use crate::stats::{EngineStats, MessageOutcome, Outcome, SimResult};
use crate::wormhole::SimError;

/// What a driver hands back: how the run ended, the step it stopped at,
/// the deadlock post-mortem.
pub(crate) type Driven = (Outcome, u64, Option<DeadlockReport>);

/// The run-level half of a simulation: the message source and
/// admission, the fault kill schedule, the loop head and verdicts every
/// driver shares. Its [`Core`] is keyed by message id; the sequential
/// engines run every worm in it, the parallel engine only records
/// outcomes in it (and, for a deadlock report, the worms still in
/// flight).
pub(crate) struct Sim<'a> {
    pub(crate) core: Core<'a>,
    /// The simulated graph (a live source's spec checks, adaptive
    /// endpoint lookup, and the parallel engine's region layout).
    pub(crate) graph: &'a Graph,
    /// Where the run's messages come from.
    feed: Feed<'a>,
    /// Every id admitted alive (not discarded on arrival), in admission
    /// order — the feed's `(release, id)` emission order, which is
    /// exactly the order the old release-sorted scan produced. Only
    /// [`Sim::deadlock`] iterates it.
    admitted: Vec<u32>,
    /// Cached [`TrafficSource::reactive`] — `true` pins the event
    /// drivers' windows to one step ([`Sim::window_end`]).
    reactive: bool,
    /// Cached [`TrafficSource::id_hint`]; 0 for a slice.
    pub(crate) id_hint: u32,
    /// The feed's declared size: the slice's length, or the larger of a
    /// live source's id bound and id hint. [`Sim::new`] sizes the
    /// id-keyed core from it, each parallel region its share of it, once,
    /// before step 0. The hint only sizes — an id past it is admitted and
    /// the tables grow from there — and a reservation the run never
    /// reaches stays address space (no table is filled ahead of its ids).
    /// A feed that declares neither grows them as ids appear.
    pub(crate) reserved: usize,
    /// The kill schedule of [`SimConfig::faults`], ascending `(at, edge)`
    /// ([`wormhole_topology::fault::FaultPlan::edge_schedule`]).
    kill_schedule: Vec<(u64, u32)>,
    /// Cursor into `kill_schedule`: entries before it are applied.
    next_kill: usize,
    /// The driving engine's own counters, for
    /// [`SimResult::engine_stats`]; the parallel coordinator fills it.
    pub(crate) engine_stats: Option<EngineStats>,
}

/// Whether a message of `spec` is dead on arrival at `core`: a frozen
/// route released onto an already-dead edge is undeliverable. Adaptive
/// messages never are: they route around dead edges.
pub(crate) fn dead_on_arrival(core: &Core, spec: &MessageSpec) -> bool {
    let dead = &core.rules.dead;
    !dead.is_empty() && core.adaptive.is_none() && spec.path.edges().iter().any(|&e| dead[e.idx()])
}

/// Message `id`'s worm as admission makes it from `spec` — checked where
/// it entered, see [`Feed`] — for a run over `core`'s rules. Always
/// inlined: out of line, the sequential engines' [`admit`] would build
/// each worm through a call and a copy.
#[inline(always)]
pub(crate) fn arrival<'a>(
    core: &Core<'a>,
    graph: &Graph,
    id: u32,
    spec: Cow<'a, MessageSpec>,
) -> Resident<'a> {
    let adaptive_mode = core.adaptive.is_some();
    let (route, src, dst) = if adaptive_mode {
        (
            Vec::with_capacity(spec.hops() as usize),
            spec.path.src(graph),
            spec.path.dst(graph),
        )
    } else {
        (Vec::new(), NodeId(0), NodeId(0))
    };
    Resident {
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
        budget: core.config.route_selection.misroute_budget(),
        selected: SelectedHop::None,
    }
}

/// Installs message `id` in the id-keyed `core` at step `now`
/// ([`arrival`]). It holds nothing yet: one [`dead_on_arrival`] is
/// discarded on the spot, which fires the source's `on_discarded` so
/// that closed-loop sources can reissue. Returns whether the worm is in
/// flight. One body, out of line under both arms' loops: inlined into
/// each, `torus_uniform_light` read 2–3 % slower on both engines (7 of 8
/// alternated pairs).
#[inline(never)]
pub(crate) fn admit<'a>(
    core: &mut Core<'a>,
    graph: &Graph,
    id: u32,
    spec: Cow<'a, MessageSpec>,
    now: u64,
) -> bool {
    let dead = dead_on_arrival(core, &spec);
    core.put(id, arrival(core, graph, id, spec));
    core.unfinished += 1;
    if dead {
        core.discard(id, now);
    }
    !dead
}

/// The two arms [`Sim`] pulls messages from. Either is the door its
/// specs are checked at, once: a slice's all together before step 0
/// ([`check_specs`]), a live source's as [`Sim::admit_with`] drains
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
        /// [`TrafficSource::id_bound`], asked once: an id at or past it
        /// is refused and the result is padded to it.
        id_bound: Option<u32>,
        /// Per id: `true` once the source has emitted it.
        emitted: Vec<bool>,
        /// Scratch for [`TrafficSource::take_ready`].
        ready: Vec<(u32, MessageSpec)>,
    },
}

impl<'a> Sim<'a> {
    /// The simulation of `traffic` over `graph` under a `config` that
    /// passed [`SimConfig::check`] against `graph` and `router`; what is
    /// left to refuse is a bad spec of a slice.
    pub(crate) fn new(
        graph: &'a Graph,
        router: Option<&'a dyn AdaptiveRouter>,
        traffic: Traffic<'a>,
        config: &'a SimConfig,
    ) -> Result<Self, SimError> {
        let router = router.filter(|_| config.route_selection != RouteSelection::Oblivious);
        let kill_schedule = match &config.faults {
            Some(plan) if !plan.is_empty() => plan.edge_schedule(),
            _ => Vec::new(),
        };
        let rules = VcRules::new(graph, config, !kill_schedule.is_empty());
        let (feed, reactive, id_hint, reserved) = match traffic {
            Traffic::Specs(specs) => {
                check_specs(graph, specs)?;
                let feed = Feed::Slice {
                    specs,
                    order: release_order(specs.len(), |i| specs[i as usize].release),
                    cursor: 0,
                };
                (feed, false, 0, specs.len())
            }
            Traffic::Source(source) => {
                let (reactive, id_bound, id_hint) =
                    (source.reactive(), source.id_bound(), source.id_hint());
                let n = id_bound.unwrap_or(0).max(id_hint) as usize;
                let feed = Feed::Live {
                    source,
                    id_bound,
                    emitted: Vec::with_capacity(n),
                    ready: Vec::new(),
                };
                (feed, reactive, id_hint, n)
            }
        };
        let adaptive = router.map(AdaptiveState::new);
        let mut core = Core::new(graph, adaptive, config, rules, true);
        // The sequential engines run every worm in the id-keyed core; a
        // parallel run's regions hold the worms, and its id-keyed core
        // only records outcomes.
        match config.engine {
            Engine::Parallel { .. } => core.outcomes.reserve_exact(reserved),
            _ => core.reserve(reserved),
        }
        Ok(Self {
            core,
            graph,
            feed,
            admitted: Vec::with_capacity(reserved),
            reactive,
            id_hint,
            reserved,
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
        probe::lap(Phase::Flush);
    }

    /// Flushes completions, then peeks the feed's next release time.
    pub(crate) fn peek_next_release(&mut self, now: u64) -> Option<u64> {
        self.flush_deliveries();
        let next = match &mut self.feed {
            Feed::Slice {
                specs,
                order,
                cursor,
            } => order.get(*cursor).map(|&i| specs[i as usize].release),
            Feed::Live { source, .. } => source.next_release(now),
        };
        probe::lap(Phase::LoopHead);
        next
    }

    /// Where a window opened at `t` must end at the latest, for every
    /// event-style driver: the next admission (a new contender), the next
    /// fault kill (the dead set changes) or the step cap, and at least one
    /// step on. A non-reactive source's next release cannot move before it
    /// is reached, and peeking it leaves the admission sequence untouched;
    /// a reactive one may answer a delivery with a release at the very
    /// next step, so its windows are one step.
    pub(crate) fn window_end(&mut self, t: u64) -> u64 {
        if self.reactive {
            return t + 1;
        }
        let next_rel = self.peek_next_release(t).unwrap_or(u64::MAX);
        let cap = self.core.config.max_steps;
        cap.min(next_rel).min(self.next_kill_time()).max(t + 1)
    }

    /// Flushes completions, then pulls every message released by `now`
    /// and hands it to `place` with the id-keyed core, once its entry is
    /// checked; `place` installs it and returns whether it is in flight.
    /// The sequential drivers place with [`admit`], the parallel engine
    /// straight into the region a worm belongs in. Hands back the core
    /// with the new ids in flight, in admission order (one discarded on
    /// arrival is the core's business alone), or the first spec of a live
    /// source that fails its entry check.
    pub(crate) fn admit_with(
        &mut self,
        now: u64,
        mut place: impl FnMut(&mut Core<'a>, &Graph, u32, Cow<'a, MessageSpec>, u64) -> bool,
    ) -> Result<(&mut Core<'a>, &[u32]), SimError> {
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
                    if place(core, graph, id, Cow::Borrowed(spec), now) {
                        admitted.push(id);
                    }
                }
            }
            Feed::Live {
                source,
                id_bound,
                emitted,
                ready,
            } => {
                source.take_ready(now, ready);
                probe::lap(Phase::Take);
                for (id, spec) in ready.drain(..) {
                    if let Some(bound) = id_bound.filter(|&bound| id >= bound) {
                        let error = SpecError::IdBeyondBound { bound };
                        return Err(SimError::Spec { id, error });
                    }
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
                    if place(core, graph, id, Cow::Owned(spec), now) {
                        admitted.push(id);
                    }
                }
            }
        }
        probe::lap(Phase::Admit);
        Ok((core, &admitted[start..]))
    }

    /// Folds what a driver returned — how the run ended, the step it
    /// stopped at, the deadlock post-mortem — and the accumulated state
    /// into the [`SimResult`].
    pub(crate) fn into_result(self, (outcome, t, deadlock_report): Driven) -> SimResult {
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
        let applied = self.kill_schedule[..self.next_kill].last();
        let recovered = applied.and_then(|&(last_kill_at, _)| {
            let finishes = core.outcomes.iter().filter_map(|o| o.finished);
            finishes.filter_map(|f| f.checked_sub(last_kill_at)).min()
        });
        // A capped run may end before the source emitted every message it
        // knows about; pad to the declared id bound so e.g. a replayed
        // slice still reports one (default) outcome per input spec.
        let id_bound = match &self.feed {
            Feed::Slice { specs, .. } => specs.len(),
            Feed::Live { id_bound, .. } => id_bound.unwrap_or(0) as usize,
        };
        if core.outcomes.len() < id_bound {
            core.outcomes.resize(id_bound, MessageOutcome::default());
        }
        let result = SimResult {
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
            fault_recovery_steps: recovered.unwrap_or(0),
            deadlock: deadlock_report,
            open_loop: None,
            closed_loop: None,
            engine_fallback: None,
            engine_stats: self.engine_stats,
        };
        probe::lap(Phase::IntoResult);
        result
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

    /// The deadlock verdict at step `t`, the same from every driver: the
    /// worms in flight — `active`, rebuilt here (admitted, with neither a
    /// finish nor a discard on their outcome, in admission order: what
    /// the legacy stepper's retire scan keeps current every step, and the
    /// event-style drivers never pay for) —
    /// and the wait-for relation among them: per blocked worm, the edge
    /// it wants and that edge's current holders, looked up in one list
    /// of `(edge, holder)` pairs sorted by edge (a deadlocked
    /// near-saturation run holds a large fraction of all edges).
    pub(crate) fn deadlock(&mut self, t: u64) -> Driven {
        let core = &mut self.core;
        core.active.clear();
        for &m in &self.admitted {
            let out = &core.outcomes[m as usize];
            if out.finished.is_none() && !out.discarded {
                core.active.push(m);
            }
        }
        let core = &self.core;
        let mut held: Vec<(usize, u32)> = Vec::new();
        for &m in &core.active {
            let w = core.worms[m as usize];
            held.extend(w.held_vcs().map(|j| (core.path_edge(m, j), m)));
        }
        held.sort_by_key(|&(e, _)| e); // stable: an edge's holders stay in `active` order
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
            let holders = held[held.partition_point(|&(x, _)| x < e)..].iter();
            waits.push(WaitFor {
                message: m,
                edge: e as u32,
                holders: holders.take_while(|h| h.0 == e).map(|h| h.1).collect(),
            });
        }
        waits.sort_by_key(|w| w.message);
        let report = DeadlockReport::from_waits(waits);
        (Outcome::Deadlock(core.active.clone()), t, Some(report))
    }
}
