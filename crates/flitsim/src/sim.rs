//! The run-level half of a simulation: [`Sim`] — where the messages
//! come from ([`Feed`]) and how they are admitted, the fault kill
//! schedule, the loop head and the verdicts every driver shares, what
//! the run keeps per message id ([`Record`]), and the fold into a
//! [`SimResult`]. Built only by [`crate::wormhole::simulate`], around
//! the slot-keyed [`Core`] the sequential drivers
//! ([`crate::legacy::drive`], [`crate::engine::drive`]) step; the
//! parallel one ([`crate::parallel::drive`]) steps a core per region and
//! retires their worms into the same [`Record`].

use std::borrow::Cow;

use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::graph::{Graph, NodeId};

use crate::config::{RouteSelection, SimConfig};
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

/// What a run keeps of its messages by id: every outcome a core retired
/// or wrote back, and the completions retired since the source last
/// heard of them. One body retires a core's worms into it, whichever
/// core: [`Sim`]'s own, or a parallel region's.
pub(crate) struct Record {
    /// Per id: the outcome (default until its worm retires or the run
    /// ends); the result's `messages`.
    outcomes: Vec<MessageOutcome>,
    /// Completions not yet reported: `(time, id, delivered)`.
    done: Vec<(u64, u32, bool)>,
}

impl Record {
    /// Writes `out` as message `id`'s outcome, growing the table to
    /// cover it.
    fn put(&mut self, id: u32, out: MessageOutcome) {
        let i = id as usize;
        if self.outcomes.len() <= i {
            self.outcomes.resize(i + 1, MessageOutcome::default());
        }
        self.outcomes[i] = out;
    }

    /// Retires every worm `core` finished or discarded since the last
    /// call: records its outcome by id, queues its completion for the
    /// source, and frees its slot.
    pub(crate) fn retire(&mut self, core: &mut Core) {
        for i in 0..core.done.len() {
            let (time, h, delivered) = core.done[i];
            let id = core.ids[h as usize];
            self.put(id, core.outcomes[h as usize]);
            self.done.push((time, id, delivered));
            core.free_slot(h);
        }
        core.done.clear();
    }

    /// The run is over: records the outcome of every worm still in
    /// `core`'s slots (at the step cap, or a deadlock verdict), once its
    /// finished and discarded ones are retired.
    pub(crate) fn write_back(&mut self, core: &mut Core) {
        self.retire(core);
        for h in core.occupied() {
            self.put(core.ids[h as usize], core.outcomes[h as usize]);
        }
    }
}

/// The run-level half of a simulation: the message source and
/// admission, the fault kill schedule, the loop head and verdicts every
/// driver shares. The sequential engines run every worm in its [`Core`],
/// under recycled slots; the parallel engine only discards dead-on-arrival
/// worms there (and, for a deadlock report, moves the worms still in
/// flight there). Per message id it keeps only what the result reports
/// and what admission walks: [`Record`]'s outcomes, `admitted` and a
/// slice's release order.
pub(crate) struct Sim<'a> {
    pub(crate) core: Core<'a>,
    /// The outcomes by id, and the completions not yet reported.
    pub(crate) record: Record,
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

/// Installs message `id` in `core` at step `now` ([`arrival`]), under a
/// free slot. It holds nothing yet: one [`dead_on_arrival`] is discarded
/// on the spot, which fires the source's `on_discarded` so that
/// closed-loop sources can reissue. Returns the slot of a worm in
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
) -> Option<u32> {
    let dead = dead_on_arrival(core, &spec);
    let h = core.enter(arrival(core, graph, id, spec));
    if dead {
        core.discard(h, now);
    }
    (!dead).then_some(h)
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
        let (feed, reactive, reserved) = match traffic {
            Traffic::Specs(specs) => {
                check_specs(graph, specs)?;
                let feed = Feed::Slice {
                    specs,
                    order: release_order(specs.len(), |i| specs[i as usize].release),
                    cursor: 0,
                };
                (feed, false, specs.len())
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
                (feed, reactive, n)
            }
        };
        let adaptive = router.map(AdaptiveState::new);
        // The per-id tables are sized once, from the feed's declared size:
        // the slice's length, or the larger of a live source's id bound and
        // id hint. The hint only sizes — an id past it is admitted and the
        // tables grow from there. The cores' per-slot tables grow to the
        // most worms in flight at once.
        let record = Record {
            outcomes: Vec::with_capacity(reserved),
            done: Vec::new(),
        };
        Ok(Self {
            core: Core::new(graph, adaptive, config, rules),
            record,
            graph,
            feed,
            admitted: Vec::with_capacity(reserved),
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
    /// hands them out with the run's core. Each driver applies them
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

    /// Retires the core's completions ([`Record::retire`]), then
    /// dispatches every buffered one to the source in ascending `(time,
    /// id)` order — the canonical, engine-independent callback sequence
    /// of the [`crate::source`] contract. A lent slice has nobody to tell.
    fn flush_deliveries(&mut self) {
        self.record.retire(&mut self.core);
        let done = &mut self.record.done;
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
    /// and hands it to `place` with the run's core, once its entry is
    /// checked; `place` installs it and returns whether it is in flight.
    /// The sequential drivers place with [`admit`], the parallel engine
    /// straight into the region a worm belongs in. Fails with the first
    /// spec of a live source that fails its entry check.
    pub(crate) fn admit_with(
        &mut self,
        now: u64,
        mut place: impl FnMut(&mut Core<'a>, &Graph, u32, Cow<'a, MessageSpec>, u64) -> bool,
    ) -> Result<(), SimError> {
        self.flush_deliveries();
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
        Ok(())
    }

    /// Folds what a driver returned — how the run ended, the step it
    /// stopped at, the deadlock post-mortem — and the accumulated state
    /// into the [`SimResult`].
    pub(crate) fn into_result(self, (outcome, t, deadlock_report): Driven) -> SimResult {
        let (mut core, mut record) = (self.core, self.record);
        record.write_back(&mut core);
        let mut outcomes = record.outcomes;
        let total_steps = match outcome {
            Outcome::Completed => core.last_finish,
            _ => t,
        };
        let total_stalls = outcomes.iter().map(|o| o.stalls).sum();
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
            let finishes = outcomes.iter().filter_map(|o| o.finished);
            finishes.filter_map(|f| f.checked_sub(last_kill_at)).min()
        });
        // A capped run may end before the source emitted every message it
        // knows about; pad to the declared id bound so e.g. a replayed
        // slice still reports one (default) outcome per input spec.
        let id_bound = match &self.feed {
            Feed::Slice { specs, .. } => specs.len(),
            Feed::Live { id_bound, .. } => id_bound.unwrap_or(0) as usize,
        };
        if outcomes.len() < id_bound {
            outcomes.resize(id_bound, MessageOutcome::default());
        }
        let result = SimResult {
            outcome,
            total_steps,
            messages: outcomes,
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
    /// worms in flight — every slot of the core once its finished and
    /// discarded worms are retired, listed as `active` in admission order
    /// (what the legacy stepper's retire scan keeps current every step,
    /// and the event-style drivers never pay for) — and the wait-for
    /// relation among them, by message id: per blocked worm, the edge it
    /// wants and that edge's current holders, looked up in one list of
    /// `(edge, holder)` pairs sorted by edge (a deadlocked
    /// near-saturation run holds a large fraction of all edges).
    pub(crate) fn deadlock(&mut self, t: u64) -> Driven {
        let core = &mut self.core;
        self.record.retire(core);
        let mut slots: Vec<(u32, u32)> =
            core.occupied().map(|h| (core.ids[h as usize], h)).collect();
        slots.sort_unstable();
        let slot = |id: u32| {
            slots
                .binary_search_by_key(&id, |s| s.0)
                .ok()
                .map(|i| slots[i].1)
        };
        core.active.clear();
        core.active
            .extend(self.admitted.iter().filter_map(|&id| slot(id)));
        let core = &self.core;
        let id = |h: u32| core.ids[h as usize];
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
                message: id(m),
                edge: e as u32,
                holders: holders.take_while(|h| h.0 == e).map(|h| id(h.1)).collect(),
            });
        }
        waits.sort_by_key(|w| w.message);
        let report = DeadlockReport::from_waits(waits);
        let ids = core.active.iter().map(|&m| id(m)).collect();
        (Outcome::Deadlock(ids), t, Some(report))
    }
}
