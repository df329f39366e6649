//! The event driver: one window routine and one kill step under two
//! engines.
//!
//! [`run_window`] advances a [`Core`] — the worms in flight and their VC
//! ledger — through a stretch of steps in which nothing enters from
//! outside, doing per-step work proportional to the worms that can
//! actually *do* something:
//!
//! * **Parking, and contests in place** — a worm that loses arbitration
//!   parks on the [`WaitQueue`] under the wait key of every edge it could
//!   want next (one for a frozen route; every candidate plus the escape
//!   hop for a pending adaptive head) and costs nothing while none of
//!   them releases a VC. A release marks its key *hot*; the next executed
//!   step holds one contest per hot key and enters its waiters into that
//!   step's arbitration from where they wait. Every waiter waits in the
//!   run of each of its keys, kept in canonical arbitration order, and
//!   each run is entered whole under the edge it wants: arbitration reads
//!   only the winning places of its merge with the runnable contenders
//!   ([`crate::kernel::Split`]), so a herd costs its winners, not its size
//!   — no worm, spec or route of a loser is read. A pending head is in
//!   the run too when exactly one of its keys is hot: every other edge it
//!   watches is still full, so it can only take that key's edge, under the
//!   hop its watch row holds for it, which a run winner takes before it
//!   advances. The contest selects one at a time, on start-of-step
//!   occupancy from the watch row ([`Core::contend_parked`]; no router is
//!   asked), only the heads a run cannot hold: two or more hot keys, a
//!   pooled router's key, a u-turn edge, or a loser still loose (below).
//!   Only a **winner** leaves the queue — every key it waited on — its
//!   stalls settled arithmetically (`stalls += win − 1 − park`). A loser
//!   within a run is not touched at all; a head selected one at a time
//!   that loses has its selection pinned back to the escape hop and, if
//!   another edge it watches is acquirable at end of step, a key marked
//!   hot again so that it contends — selected one at a time — at the next
//!   step ([`Core::lost_in_place`]). Why that is exactly what the legacy
//!   stepper counts is invariant 1 of the [`crate::wormhole`] module docs.
//! * **The drain wheel** — once a worm's header arrives it makes no
//!   further choice: its remaining flits stream out one a step, and the
//!   step at which its tail leaves each held VC is fixed the moment it
//!   arrives. The driver files that drain on a step-indexed wheel
//!   ([`EventState`]) — every remaining VC release under the step it
//!   happens, the finish under its own — and drops the worm from
//!   `runnable`. Each executed step fires its slot right after the movers
//!   apply, so the park pass, the hot keys and a parallel region's outbox
//!   see the end-of-step state per-step advances would leave. The worm's
//!   kinematics and flit hops catch up in closed form
//!   ([`crate::kernel::Worm::drain`]) when it finishes, and wherever they
//!   are read before that: at a kill, at the run's end and in the
//!   invariant checks ([`settle_drains`]). A step with only drains left
//!   is stepped like any other — an empty classify and arbitration, then
//!   its slot — so a window's steps, and the step counters, do not depend
//!   on where its ends fall.
//!
//! A window never crosses an admission, a fault kill or the step cap
//! ([`Sim::window_end`]), so every arbitration decision — and every
//! release-at-`t`-visible-at-`t+1` boundary — still happens at its
//! exact legacy step. What a kill does at such a boundary to a core
//! with parked worms is [`kill`], stated once beside the window. Two
//! callers of both: [`drive`], the sequential
//! [`crate::config::Engine::EventDriven`] loop over [`Sim`]'s single
//! core (admission, kills and the idle-network jump happen between its
//! windows), and every region of the [`crate::parallel`] engine, whose
//! windows the coordinator grants and whose kills it coordinates.
//!
//! Near saturation this turns the `O(active)` per-step rescan (where
//! `active` includes the entire source-queued backlog) into
//! `O(runnable + winners + heads selected one at a time)`, plus a stamp
//! pass over the hot runs that hold pending heads: a run of waiters costs
//! its winners, not its length. At low load header hops are stepped
//! and the `L`-long drain that follows costs one wheel entry per VC it
//! holds.

use crate::kernel::{self, WaitQueue};
use crate::probe::{self, Phase};
use crate::resident::Core;
use crate::sim::{self, Driven, Sim};
use crate::stats::EngineStats;
use crate::wormhole::SimError;

/// The event driver's bookkeeping over one [`Core`]: which of its worms
/// are parked, which are runnable, and which drain on the wheel.
pub(crate) struct EventState {
    /// Parked worms, by handle, under the
    /// [`crate::kernel::VcRules::wait_key`]s of the edges they watch.
    pub(crate) waiting: WaitQueue,
    /// Wait-key scratch for [`Core::wait_keys`] and [`Core::parked_keys`].
    keys: Vec<(usize, u32)>,
    /// Released, unretired, unparked worms whose header has yet to
    /// arrive — the per-step working set.
    pub(crate) runnable: Vec<u32>,
    /// Arrived worms' drains, filed ahead ([`EventState::file`]): slot
    /// `s & (len − 1)` holds what fires at step `s`, for the `len` steps
    /// from the next one to fire. `len` is a power of two above the
    /// longest drain filed so far; the slots are reused for the run.
    wheel: Vec<Slot>,
    /// Worms on the wheel.
    draining: usize,
    /// The last step at which a filed release lands on an edge another
    /// region owns (0: none; a sequential core owns every edge). A
    /// parallel region grants itself one step at a time until it passes.
    pub(crate) foreign_until: u64,
    /// The step / park / contest counters of [`EngineStats`].
    pub(crate) stats: EngineStats,
}

/// What the wheel fires at one step: VC releases on these edges, then
/// the finishes of these worms.
#[derive(Default)]
struct Slot {
    releases: Vec<u32>,
    finishes: Vec<u32>,
}

impl EventState {
    pub(crate) fn new(core: &Core) -> Self {
        Self {
            waiting: WaitQueue::new(core.rules.num_wait_keys()),
            keys: Vec::new(),
            runnable: Vec::new(),
            wheel: vec![Slot::default()],
            draining: 0,
            foreign_until: 0,
            stats: EngineStats::default(),
        }
    }

    /// Worms in flight: the legacy `active` size.
    #[inline]
    pub(crate) fn n_active(&self) -> usize {
        self.runnable.len() + self.waiting.len() + self.draining
    }

    /// Files arrived worm `m`'s drain, whose first advance runs at step
    /// `from`: each release under the step of the advance that makes it
    /// ([`crate::kernel::Worm::drain_releases`]), the finish under the
    /// last.
    fn file(&mut self, core: &Core, m: u32, from: u64) {
        let w = core.worms[m as usize];
        let left = w.drain_left() as usize;
        if left >= self.wheel.len() {
            self.grow(left, from);
        }
        let (mask, route) = (self.wheel.len() as u64 - 1, core.route(m));
        for (j, i) in w.drain_releases() {
            let (s, e) = (from + u64::from(i), route[j as usize - 1].idx());
            if !core.foreign.is_empty() && core.foreign[e] {
                self.foreign_until = self.foreign_until.max(s);
            }
            self.wheel[(s & mask) as usize].releases.push(e as u32);
        }
        let last = from + left as u64 - 1;
        self.wheel[(last & mask) as usize].finishes.push(m);
        self.draining += 1;
    }

    /// Widens the wheel to hold a drain of `left` steps besides the slot
    /// about to fire. What is filed lies in the old length's steps from
    /// `from − 1`, each moved whole to its new slot.
    #[cold]
    fn grow(&mut self, left: usize, from: u64) {
        let len = (left + 1).next_power_of_two() as u64;
        let mut old = std::mem::take(&mut self.wheel);
        self.wheel.resize_with(len as usize, Slot::default);
        let (base, n) = (from.saturating_sub(1), old.len() as u64);
        for s in base..base + n {
            self.wheel[(s % len) as usize] = std::mem::take(&mut old[(s % n) as usize]);
        }
    }

    /// Fires step `t`'s slot: its releases through [`Core::release_vc`],
    /// its finishes through [`Core::catch_up`]. Returns whether a drain
    /// advanced during `t`.
    fn fire(&mut self, core: &mut Core, t: u64) -> bool {
        let drained = self.draining > 0;
        let mask = self.wheel.len() as u64 - 1;
        let slot = &mut self.wheel[(t & mask) as usize];
        for &e in &slot.releases {
            core.release_vc(e as usize);
        }
        for &m in &slot.finishes {
            core.catch_up(m, u64::MAX, t);
        }
        self.draining -= slot.finishes.len();
        slot.releases.clear();
        slot.finishes.clear();
        drained
    }
}

/// What [`run_window`] reports back.
pub(crate) struct Window {
    /// The step at which the core froze — nothing moved with worms left,
    /// so nothing will until a release arrives from outside — or
    /// `u64::MAX`. The whole network freezing is the deadlock verdict.
    pub(crate) frozen_at: u64,
    /// `1 +` the last step of the window that moved a worm (0 = none).
    pub(crate) last_move_plus1: u64,
}

/// Runs the event-driven loop to completion. Returns `(outcome, final
/// step, deadlock report)` — or the bad spec a live source emitted —
/// exactly as the legacy driver would, and leaves the driver's counters
/// in [`Sim::engine_stats`].
pub(crate) fn drive(sim: &mut Sim) -> Result<Driven, SimError> {
    let mut st = EventState::new(&sim.core);
    // A live source's id hint sizes the queue's per-handle tables like
    // the core's. A slice run's grow as its worms park: sized up front,
    // they shifted glibc's trim and mmap thresholds, and the benchmark's
    // next traffic set-up on a light torus read 7–10 % slower (2-vCPU
    // Xeon).
    st.waiting
        .reserve(sim.id_hint as usize, sim.core.adaptive.is_some());
    let driven = drive_windows(sim, &mut st);
    sim.engine_stats = Some(st.stats);
    driven
}

fn drive_windows(sim: &mut Sim, st: &mut EventState) -> Result<Driven, SimError> {
    let mut t: u64 = 0;
    loop {
        // With worms in flight, the cap ends the run early — settling
        // parked stalls and cut drains through the last simulated step,
        // as the legacy per-step counting would.
        let idle = st.n_active() == 0;
        if let Some(outcome) = sim.loop_head(&mut t, idle) {
            if !idle {
                let last = sim.core.config.max_steps.saturating_sub(1);
                settle(&mut sim.core, st, last);
            }
            return Ok((outcome, t, None));
        }
        // Kills scheduled by `t` take effect at the start of the step,
        // before admissions — exactly as in the legacy driver.
        if sim.next_kill_time() <= t {
            let (core, due) = sim.due_kills(t);
            kill(core, st, due, t);
        }
        let (_, new) = sim.admit_with(t, sim::admit)?;
        st.runnable.extend_from_slice(new);
        if st.n_active() == 0 {
            // Kills (or dead-on-arrival admissions) emptied the network;
            // the next iteration's idle handling jumps to the next
            // release or ends the run — the legacy stepper burns a
            // movement-free step here, which no reported field observes.
            continue;
        }
        let stop = sim.window_end(t);
        let win = run_window(&mut sim.core, st, t, stop, &mut |_, _| {});
        sim.core.ledger.settle_max(&sim.core.rules);
        if win.frozen_at != u64::MAX {
            // Every released worm is blocked on full edges; releases only
            // come from moves, so nothing will ever move again. This is
            // the same step at which the legacy stepper's no-movement
            // test fires, and it counted a stall for every blocked worm
            // during that step.
            settle(&mut sim.core, st, win.frozen_at);
            return Ok(sim.deadlock(win.frozen_at));
        }
        t = stop;
    }
}

/// A fault kill at the start of step `t` — a window boundary, like an
/// admission — over one core and its parked worms: the one kill step of
/// the sequential event engine and of every parallel region.
/// [`Core::kill`] marks the `due` edges dead and discards the severed
/// worms, parked ones in place; those are unparked — out of their runs,
/// in one sweep — settling the stalls the legacy stepper counted through
/// `t − 1`. A parked worm the kill did not sever waits on: a pending one
/// watches only edges its router avoids the plan's kills on
/// ([`crate::config::SimConfig::check`]), and a kill grants no VC. The
/// discards' VC releases then turn their wait keys hot, so the waiters
/// contend at `t` itself — they land at step start, like releases
/// during `t − 1` — and the discarded leave `runnable`. The drains on the
/// wheel are settled through `t − 1` first; a severed one is discarded
/// with the rest, its remaining releases never fire, and the others are
/// filed again from `t`.
pub(crate) fn kill(core: &mut Core, st: &mut EventState, due: &[(u64, u32)], t: u64) {
    let drains = settle_drains(core, st, t);
    list_in_flight(core, st);
    core.kill(due, t);
    refile(core, st, drains, t);
    if !st.waiting.is_empty() {
        let outcomes = &mut core.outcomes;
        st.waiting.unpark_where(|m, parked_at| {
            let out = &mut outcomes[m as usize];
            if out.discarded {
                out.stalls += (t - 1) - parked_at;
            }
            out.discarded
        });
        wake_released(core, st);
    }
    let outcomes = &core.outcomes;
    st.runnable.retain(|&m| !outcomes[m as usize].discarded);
}

/// Makes `core.active` current for a cold path — the runnable worms
/// (settled drains among them, [`settle_drains`]), then the parked ones
/// in ascending handle order — and returns where the parked ones start.
fn list_in_flight(core: &mut Core, st: &EventState) -> usize {
    core.active.clear();
    core.active.extend_from_slice(&st.runnable);
    core.active.extend(st.waiting.parked());
    st.runnable.len()
}

/// Advances `core` from step `t0` to at most `stop` with nothing
/// entering from outside in between — no admission, no kill, no release
/// from another region: the one driver under the sequential event engine
/// (a window ends at the next admission) and under every parallel region
/// (at the coordinator's grant). Steps every step it covers while a worm
/// is in flight — runnable, parked or draining — and stops early once
/// the core is empty or frozen.
///
/// The occupancy sample of the window's last step is left to the caller
/// ([`crate::kernel::VcLedger::settle_max`]): in a one-step window of a
/// parallel region, releases by other regions' worms land first.
///
/// `on_park` sees every worm as it parks. A parallel region's next window
/// grant depends on where its parked worms stand, and one that wins,
/// moves and parks again mid-window is on no list the region could read
/// afterwards; the sequential engine passes a no-op.
pub(crate) fn run_window(
    core: &mut Core,
    st: &mut EventState,
    t0: u64,
    stop: u64,
    on_park: &mut impl FnMut(&Core, u32),
) -> Window {
    let mut win = Window {
        frozen_at: u64::MAX,
        last_move_plus1: 0,
    };
    let mut t = t0;
    while t < stop {
        core.ledger.settle_max(&core.rules); // the previous step's sample
        if st.runnable.is_empty() && st.draining == 0 && !st.waiting.contest_due() {
            // Every worm left is parked on full edges, no release is
            // waiting to be contested, and releases only come from
            // moves — none can happen.
            if !st.waiting.is_empty() {
                win.frozen_at = t;
            }
            break;
        }
        if step(core, st, t, on_park) {
            win.last_move_plus1 = t + 1;
        } else if st.n_active() > 0 {
            win.frozen_at = t;
            break;
        }
        if core.config.check_invariants {
            validate(core, st, t + 1);
        }
        t += 1;
    }
    win
}

/// One full-bandwidth step over the runnable set and the waiters of the
/// hot wait keys. Mirrors the legacy stepper's classify → arbitrate →
/// apply phases, files the movers whose header arrived and fires the
/// wheel, then unparks the waiters that won, parks the runnable losers
/// and turns hot every wait key that released capacity. Returns whether
/// a worm moved, a drain included.
fn step(
    core: &mut Core,
    st: &mut EventState,
    t: u64,
    on_park: &mut impl FnMut(&Core, u32),
) -> bool {
    st.stats.steps_executed += 1;
    st.stats.worms_stepped += st.runnable.len() as u64;
    // The contest: the waiters of every key that saw a release since its
    // last contest — during step `t − 1`, or landed at the start of `t` by
    // a kill or by the parallel coordinator — contend at `t`, release at
    // `t − 1` being visible at `t`. Each does so from where it waits, in
    // the runs of its keys, whole — but a pending adaptive head the run
    // cannot hold, which selects its hop from its watch row, once however
    // many of its keys are hot.
    st.stats.contests += st.waiting.scan_hot(|m| core.contend_parked(m)) as u64;
    probe::lap(Phase::Contest);
    // Classify, arbitrate, advance the winners. The parked worms left
    // out are exactly the contenders of non-acquirable edges, so leaving
    // them out changes no arbitration outcome (such an edge blocks every
    // contender regardless); with the entered ones, every arbitration
    // sees the contender set the legacy stepper's does, which is all any
    // policy orders by. Runnable pending adaptive worms select their
    // wanted hop inside classify, exactly like the legacy stepper; the
    // entered ones just did, from the same start-of-step state.
    let moved = core.step_winners(t, &st.runnable, Some(&st.waiting));
    // A mover whose header arrived streams out on the wheel from `t + 1`;
    // this step's slot fires now, before anything reads end-of-step
    // state, as the drains' own advances would have.
    let drained = st.fire(core, t);
    for i in 0..core.split.movers.len() {
        let m = core.split.movers[i] & !kernel::PARKED;
        let w = core.worms[m as usize];
        if w.draining() && !w.done() {
            st.file(core, m, t + 1);
            st.stats.drains += 1;
        }
    }
    probe::lap(Phase::Apply);
    // An entered waiter that won leaves the queue — a frozen route's run
    // by index, a pending head's runs through its row's keys — having
    // stalled at every step since it parked. One that lost stays:
    // parked from `p`, it accrues `s − 1 − p` whenever it wins at `s`,
    // however many contests it lost in between; a head the contest took
    // out of its runs goes back in.
    st.stats.waiters_entered += st.waiting.entered() as u64;
    st.stats.pending_entered += st.waiting.pending_entered() as u64;
    st.stats.pending_selected += st.waiting.entered_heads().len() as u64;
    st.stats.waiters_won += core.won.len() as u64;
    st.waiting.leave_runs(&mut core.split.run_won);
    for &m in &core.won {
        core.parked_keys(m, &mut st.keys);
        let keys = st.keys.iter().map(|k| k.0);
        core.outcomes[m as usize].stalls += (t - 1) - st.waiting.unpark(m, keys);
        st.runnable.push(m);
    }
    st.waiting.rejoin();
    // Runnable losers stall, then park. Parking checks the
    // *end-of-step* acquirability: if this step's releases already freed
    // capacity on an edge the worm could want, it stays runnable and
    // re-contends at `t+1`, exactly as the legacy stepper would. A
    // frozen-route worm (oblivious, or adaptive once arrived or on its
    // escape tail) wants one fixed edge and parks on its key
    // (`VcRules::wait_key`). A *pending* adaptive worm selects every
    // step it contends, so it parks only once every candidate and the
    // escape hop are full, on all their keys: the first release is the
    // first step its choice can change.
    for i in 0..core.split.blocked.len() {
        let m = core.split.blocked[i];
        core.outcomes[m as usize].stalls += 1;
        if core.wait_keys(m, &mut st.keys) {
            let pending = core.worms[m as usize].pending_route;
            st.waiting.park(m, &st.keys, pending, core.rank(m), t);
            st.stats.parks += 1;
            on_park(core, m);
        }
    }
    probe::lap(Phase::Park);
    // A pending head selected one at a time that lost in place keeps
    // waiting. It may have lost one edge while another it watches is open
    // — no release will say so, and a runnable loser would re-select at
    // `t + 1`: so does it.
    for i in 0..st.waiting.entered_heads().len() {
        let (_, m) = st.waiting.entered_heads()[i];
        if let Some(key) = core.lost_in_place(m) {
            st.waiting.reenter(m, key);
        }
    }
    wake_released(core, st);
    probe::lap(Phase::Wake);
    // Retire arrived (finished or filed), discarded, and freshly parked
    // worms.
    let (worms, outcomes, waiting) = (&core.worms, &core.outcomes, &st.waiting);
    st.runnable.retain(|&m| {
        !worms[m as usize].draining() && !outcomes[m as usize].discarded && !waiting.is_parked(m)
    });
    probe::lap(Phase::Retain);
    moved || drained
}

/// Turns hot the wait key of every edge that released capacity since
/// the last pass — the edge itself, or under pooling its source router
/// (a sibling edge's release can return shared credit to every edge of
/// the router): the key's waiters contend at the next executed step.
/// Called at the end of a step for its own releases (release at `t` is
/// visible at `t + 1`), and at the start of one — by the kill hook, whose
/// discards behave like releases during `t − 1`, and by a parallel region
/// for the releases of other regions' worms the coordinator landed
/// between windows. Releases are recorded only while a worm is parked.
pub(crate) fn wake_released(core: &mut Core, st: &mut EventState) {
    for &e in &core.released {
        st.waiting.mark_hot(core.rules.wait_key(e as usize));
    }
    core.released.clear();
    core.track_releases = !st.waiting.is_empty();
}

/// The run ends after step `through` (the step cap, a deadlock verdict —
/// at a freeze nothing drains — or a parallel region's write-back):
/// settles the stalls the legacy stepper would have counted for every
/// still-parked worm through `through` and brings every drain up to the
/// start of `through + 1` ([`settle_drains`]), all of them back in
/// `runnable`, and cools every hot key.
pub(crate) fn settle(core: &mut Core, st: &mut EventState, through: u64) {
    st.waiting.settle_all(through, |m, skipped| {
        core.outcomes[m as usize].stalls += skipped;
        st.runnable.push(m);
    });
    settle_drains(core, st, through + 1);
}

/// Brings every drain on the wheel up to the start of step `now` — the
/// next step it would fire — for a reader of `core.worms` (a kill, the
/// run's end, an invariant check): each worm catches up the advances
/// its filed drain ran through `now − 1` ([`Core::catch_up`]), none of
/// them its last, and is appended to `runnable`. Empties the wheel — its
/// unfired releases still stand in the ledger — and returns where the
/// settled worms start in `runnable`.
fn settle_drains(core: &mut Core, st: &mut EventState, now: u64) -> usize {
    let from = st.runnable.len();
    if st.draining == 0 {
        return from; // `now` may be the end of an open-ended window
    }
    let len = st.wheel.len() as u64;
    for s in now..now + len {
        let slot = &mut st.wheel[(s & (len - 1)) as usize];
        slot.releases.clear();
        for &m in &slot.finishes {
            // Filed with `left` advances to go, the last at `s`.
            let left = u64::from(core.worms[m as usize].drain_left());
            core.catch_up(m, now + left - 1 - s, now - 1);
            st.runnable.push(m);
        }
        slot.finishes.clear();
    }
    st.draining = 0;
    st.foreign_until = 0;
    from
}

/// Files the settled drains `runnable[from..]` ([`settle_drains`]) back
/// on the wheel from step `now`, but for the ones a kill discarded.
fn refile(core: &Core, st: &mut EventState, from: usize, now: u64) {
    for i in from..st.runnable.len() {
        let m = st.runnable[i];
        if !core.outcomes[m as usize].discarded {
            st.file(core, m, now);
        }
    }
    st.runnable.truncate(from);
}

/// Full state validation (the core's invariants plus the driver's own):
/// the wait queue must hold together — runs in rank order under the
/// ranks the core gives now, no stale entry, hot flags matching the hot
/// list ([`WaitQueue::validate`]) — and with `runnable` partition the
/// worms in flight; every edge a parked worm watches must be
/// non-acquirable (full, or starved of shared pool credit) — what makes
/// arithmetic stall accounting exact — unless one of its wait keys is
/// hot, in which case it contends at the next executed step, and under
/// the static policy every acquirable one's own key must be hot — what
/// lets a pending head with one hot key be entered with that key's run —
/// but a loose head's; the queue's entries of every other parked worm
/// must be exactly its watch set, each with the edge its run entry
/// records; the edge a frozen-route waiter's entry records must be the
/// edge it wants, and a parked pending head's selection must be pinned to
/// its row's escape hop (the row itself is held against the router by
/// [`Core::validate`]). The drains on the wheel are settled up to step
/// `now` for the check and filed again from there.
pub(crate) fn validate(core: &mut Core, st: &mut EventState, now: u64) {
    let drains = settle_drains(core, st, now);
    assert_eq!(
        st.n_active(),
        core.unfinished,
        "runnable/parked must partition the worms in flight"
    );
    st.waiting.validate(|m| core.rank(m));
    let live = st.waiting.parked_keys();
    let mut rest = live.as_slice();
    for i in list_in_flight(core, st)..core.active.len() {
        let m = core.active[i];
        let (mine, others) = rest.split_at(rest.partition_point(|&(h, ..)| h == m));
        rest = others;
        let (w, id) = (core.worms[m as usize], core.ids[m as usize]);
        if w.pending_route {
            let pinned = core.pinned_to_escape(m);
            assert!(
                pinned,
                "parked pending worm {id} is not pinned to its escape hop"
            );
        } else {
            let wanted = core.path_edge(m, w.advance + 1) as u32;
            let right = mine.iter().all(|&(.., edge)| edge == wanted);
            assert!(
                right,
                "parked worm {id} recorded another edge than it wants"
            );
        }
        let hot = |key| st.waiting.is_hot(key);
        if core.wait_keys(m, &mut st.keys) {
            let entries = mine.iter().map(|&(_, key, edge)| (key, edge));
            assert!(
                entries.eq(st.keys.iter().copied()),
                "wait queue out of sync with the watch set of parked worm {id}"
            );
        } else {
            assert!(
                mine.iter().any(|&(_, key, _)| hot(key)),
                "parked worm {id} watches an acquirable edge and none of its keys is hot"
            );
            // Under the static policy a key is its edge. A head with one
            // hot key is entered in that key's run: it must watch no other
            // acquirable edge — but one that lost in place with an edge
            // open, which the contest selects one at a time.
            let full = |key| core.ledger.free_vcs(&core.rules, key) == 0;
            let cold_open = mine.iter().any(|&(_, key, _)| !hot(key) && !full(key));
            assert!(
                core.rules.pooled || st.waiting.is_loose(m) || !cold_open,
                "parked worm {id} watches an acquirable edge whose key is cold"
            );
        }
    }
    assert!(rest.is_empty(), "wait queue entries of unparked worms");
    core.validate();
    refile(core, st, drains, now);
}
