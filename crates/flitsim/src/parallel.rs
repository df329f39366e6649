//! The partitioned parallel engine behind [`Engine::Parallel`].
//!
//! The network is decomposed into the regions of a
//! [`RegionPlan`] (from [`SimConfig::regions`], or a default contiguous
//! cut): every node — and with it every outgoing edge, i.e. the VC
//! holder state that lives at the sending router — is owned by exactly
//! one region, and every worker thread advances one region.
//! Workers synchronize on conservative time windows in the
//! Chandy–Misra style: a region may run ahead only as far as the
//! earliest instant it could influence (or be influenced by) a
//! neighbor. Unlike the global lookahead-1 bound — which collapses the
//! windows to lockstep supersteps — the window grant here is
//! *plan-aware and per-worm*: [`RegionPlan::distance_to_cut`] gives the
//! minimum number of flit steps before a header at node `v` can
//! traverse a cross-region edge, and [`worm_bound`] refines that to the
//! exact worm population (a drain whose releases of foreign edges have
//! all fired can never influence another region again; an in-flight
//! worm whose remaining path stays inside its region is bounded only by
//! the next admission). The coordinator takes the minimum over the populated
//! regions, caps it at the next message release, the next fault kill and
//! the step cap, and broadcasts one *window* `[t, t + w)`; each worker
//! then runs its region through the whole window without any
//! synchronization — a null-message-style window grant.
//!
//! # One driver, N residencies
//!
//! A region owns a [`Core`] — the same resident-worm state the
//! sequential engines run, its ledger counting only the region's own
//! edges and routers — and an [`EventState`], and advances them with the
//! event engine's own [`engine::run_window`]: stepping, parking, waking,
//! the drain wheel and the stall arithmetic are that module's, argued
//! there and in the [`crate::wormhole`] docs.
//!
//! With `n` workers and a plan of `k > n` regions, [`drive`] first merges
//! plan region `r` into region `r · n / k` — adjacent regions, as every
//! plan constructor numbers them — so each worker steps one region under
//! one layout for the whole run. At one worker that region is the whole
//! graph and no edge crosses its boundary: it keeps no cut state (no path
//! scan on arrival, the event engine's no-op `on_park`, no window-end
//! emigration or [`worm_bound`] pass). Its worms enter and leave it in
//! place, below, and its per-handle tables — like every region's — are
//! sized once before step 0 as the event engine sizes its own, shared
//! over the regions, so one worker allocates what the event engine
//! allocates.
//!
//! What this module owns is what is parallel:
//!
//! * **Residency and hand-off.** A worm resides in the region owning its
//!   next wanted edge (draining worms stay where they finished
//!   acquiring; a pending adaptive worm resides in its head node's
//!   region), under a recycled local handle. Admission places it there
//!   directly — a pending head in its source node's region, read off the
//!   spec; only a discard on arrival lands in the run's id-keyed core.
//!   At the end of a window the coordinator reads each region's
//!   completions in place (its core's `done` list, as the sequential
//!   engines keep it): it records a finished or discarded worm's outcome
//!   in the id-keyed core, whose completion callbacks it flushes in
//!   canonical `(time, id)` order, as always, and frees its handle. A
//!   region moves out the movers whose next wanted edge now lies across
//!   the cut (to that edge's region, as [`Resident`] values: nothing is
//!   copied). A parked worm never migrates: it did not move. When the
//!   run ends, the residents' outcomes are written back the same way;
//!   whole worms move to the id-keyed core only for a deadlock report.
//! * **The one hook.** A release on an edge another region owns goes to
//!   the core's outbox ([`Core::release_vc`]) and lands on its owner
//!   between windows — before the owner, entering its next window,
//!   samples that step into the occupancy maxima and turns the edge's
//!   wait key hot ([`engine::wake_released`]), so that its waiters
//!   contend on the window's first step — so it is visible from `t + 1`
//!   like any sequential mid-step release.
//! * **The window grant** ([`worm_bound`]), below — refreshed for the
//!   runnable worms when a window ends, and folded for a parked one the
//!   moment it parks ([`engine::run_window`]'s `on_park`): it may have
//!   won, moved and parked again since the window opened. A waiter that
//!   loses a contest stays parked where it was, so its bound stands.
//! * **Frozen regions.** A region in which a step moves nothing stops
//!   stepping — it is provably identical until the window ends
//!   (releases only come from moves, and nothing external arrives
//!   mid-window) — and the coordinator tops up the stall counts its
//!   skipped steps would have recorded. An all-regions-frozen window
//!   reproduces the sequential deadlock verdict at the exact step the
//!   last region froze.
//! * **Kills as a boundary all regions share.** A fault kill caps every
//!   grant, so at its step the coordinator holds every region. It runs
//!   [`engine::kill`] — the event engine's own kill step — on each
//!   region's core and copy of the rules, then lands the outboxes as
//!   after a window: a discard's release of another region's edge
//!   reaches its owner before the window opens, and the discarded worms
//!   retire before the step's admissions are pulled.
//!
//! # Why a window is exactly the sequential steps it replaces
//!
//! The grant construction guarantees that for every step of the window
//! strictly before the last, every acquire, release, and
//! candidate/arbitration read touches only region-owned state — so the
//! region's core *is* the sequential core restricted to the worms that
//! can interact with each other:
//!
//! * **Held edges**: a worm holding a foreign edge caps its bound at 1 —
//!   a drain on the wheel until its last foreign release has fired
//!   ([`EventState::foreign_until`]) — so multi-step windows only ever
//!   contain worms whose held — and therefore releasable — edges are all
//!   local.
//! * **Oblivious worms** advance at most one hop per step, so a worm
//!   whose first foreign path edge sits `j` hops past its head cannot
//!   contend for it before relative step `j − 1` — the last step of a
//!   `j − 1`-step window, where crossing it is exactly the handoff the
//!   coordinator applies at the boundary.
//! * **Pending adaptive worms** contend only for out-edges of their
//!   head node, all owned by the head's region (so their whole watch
//!   set is, too); by [`RegionPlan::distance_to_cut`] the head cannot
//!   reach a foreign node in fewer steps than the granted window, and
//!   any escape tail committed mid-window is itself a walk from the
//!   head, so its in-window prefix stays local too.
//!
//! Admissions and fault kills happen at window starts only — the grant
//! never extends past the source's next release or the next scheduled
//! kill, and a reactive source pins the window to one step. Outboxes
//! are merged in region-index order; every cross-region effect is
//! either commutative or canonically ordered, and the result is
//! byte-identical for every worker count and every valid plan, on every
//! configuration the sequential engines run: static and pooled VC
//! policies, every arbitration and blocked policy, oblivious and
//! adaptive routing, reactive sources, fault plans.
//!
//! [`Engine::Parallel`]: crate::config::Engine::Parallel
//! [`SimConfig::regions`]: crate::config::SimConfig::regions

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

use wormhole_topology::graph::Graph;
use wormhole_topology::region::RegionPlan;

use crate::engine::{self, EventState};
use crate::probe::{self, Phase};
use crate::resident::{Core, Resident};
use crate::sim::{self, Driven, Sim};
use crate::stats::EngineStats;
use crate::wormhole::SimError;

/// Default region count when [`SimConfig::regions`] is `None`
/// (clamped to the node count by [`RegionPlan::contiguous`]).
///
/// [`SimConfig::regions`]: crate::config::SimConfig::regions
const DEFAULT_REGIONS: u32 = 8;

/// The run's region layout — the plan, merged down to one region per
/// worker — shared read-only by the coordinator and every worker.
struct Ctx {
    /// Edge → owning region (= region of the source router).
    edge_region: Vec<u32>,
    /// Node → owning region ([`RegionPlan::node_regions`] copy).
    node_region: Vec<u32>,
    /// Node → minimum flit steps before a header there can traverse a
    /// cross-region edge ([`RegionPlan::distance_to_cut`]).
    dist_to_cut: Vec<u64>,
    /// Region → whether any edge crosses its boundary, in either
    /// direction. A region none does is closed: no worm enters or leaves
    /// it, none of its residents holds or wants a foreign edge, and it
    /// keeps no cut state at all.
    has_cut: Vec<bool>,
}

impl Ctx {
    /// The layout of `plan`; an empty graph has no plan and no regions.
    fn new(graph: &Graph, plan: Option<&RegionPlan>) -> Ctx {
        let node_region = plan.map_or(Vec::new(), |p| p.node_regions().to_vec());
        let mut has_cut = vec![false; plan.map_or(0, |p| p.num_regions() as usize)];
        for e in graph.edges() {
            let (s, d) = (
                node_region[graph.src(e).idx()],
                node_region[graph.dst(e).idx()],
            );
            if s != d {
                has_cut[s as usize] = true;
                has_cut[d as usize] = true;
            }
        }
        Ctx {
            edge_region: graph
                .edge_sources()
                .iter()
                .map(|&s| node_region[s as usize])
                .collect(),
            node_region,
            dist_to_cut: plan.map_or(Vec::new(), |p| p.distance_to_cut(graph)),
            has_cut,
        }
    }

    /// Region `idx`'s [`Core::foreign`] flags; none for a region no cross
    /// edge touches, whose core then runs the sequential engines'
    /// unguarded release path.
    fn foreign(&self, idx: u32) -> Vec<bool> {
        if self.has_cut[idx as usize] {
            self.edge_region.iter().map(|&r| r != idx).collect()
        } else {
            Vec::new()
        }
    }

    /// The region a worm entering the network belongs in: its source
    /// node's while the route is pending, the owner of its first edge
    /// otherwise — [`Ctx::home`] at admission, read off the spec.
    fn entry(&self, r: &Resident) -> usize {
        let region = if r.worm.pending_route {
            self.node_region[r.src.idx()]
        } else {
            self.edge_region[r.spec.path.edges()[0].idx()]
        };
        region as usize
    }

    /// The region worm `h` of `core` belongs in: its head node's while
    /// the route is pending, the owner of its next wanted edge otherwise.
    fn home(&self, core: &Core, h: u32) -> u32 {
        let w = &core.worms[h as usize];
        if w.pending_route {
            self.node_region[core.head_node(h).idx()]
        } else {
            self.edge_region[core.path_edge(h, w.advance + 1)]
        }
    }
}

/// Where worm `h`'s route leaves region `home`, as 1-based route
/// indices `(behind, ahead)`: the last foreign edge it still holds
/// (0 = none) and the first foreign edge past its header (`u32::MAX` =
/// none). Constant while a frozen-route worm stays resident — it only
/// marches forward through the local stretch in between, and leaves
/// when the edge it wants next is `ahead` — so [`Region`] computes it
/// once, on arrival.
fn cuts(ctx: &Ctx, core: &Core, h: u32, home: u32) -> (u32, u32) {
    let (w, route) = (&core.worms[h as usize], core.route(h));
    let foreign = |j: &u32| ctx.edge_region[route[*j as usize - 1].idx()] != home;
    let (lo, hi) = w.held_range();
    (
        (lo..=hi).rev().find(foreign).unwrap_or(0),
        (w.advance + 1..=w.hops).find(foreign).unwrap_or(u32::MAX),
    )
}

/// How many steps worm `h`, whose route leaves its region at
/// `(behind, ahead)` ([`cuts`]), can run before it could first touch
/// (acquire, release, or contend for) an edge owned by another region —
/// the per-worm refinement of the plan's lookahead, and the quantity the
/// window grant minimizes over.
///
/// * Any *held* foreign edge caps the bound at 1: its release may need
///   to cross the cut on the very next step.
/// * A pending adaptive head only contends for out-edges of its current
///   node, so it is bounded by [`RegionPlan::distance_to_cut`] — it
///   cannot stand on a foreign node (or commit a route prefix leaving
///   the region) any sooner.
/// * An in-flight oblivious worm advances one hop per step, so its
///   first foreign path edge at 1-based index `j` cannot be contended
///   before relative step `j − 1 − advance`; one with none ahead is
///   unbounded.
///
/// A worm whose header has arrived is on the wheel, not asked here: it
/// only releases what it holds, so the region caps its grant at 1 while
/// a filed release of a foreign edge is still to fire
/// ([`EventState::foreign_until`]) and not at all after.
fn worm_bound(ctx: &Ctx, core: &Core, h: u32, (behind, ahead): (u32, u32)) -> u64 {
    let w = &core.worms[h as usize];
    if behind >= w.held_range().0 {
        1
    } else if w.pending_route {
        ctx.dist_to_cut[core.head_node(h).idx()].max(1)
    } else if ahead == u32::MAX {
        u64::MAX
    } else {
        (ahead - 1 - w.advance) as u64
    }
}

/// Adds `from` into `into`, entry by entry: per-edge or per-router
/// counts of two regions, whose supports are disjoint.
fn add_rows<T: Copy + std::ops::AddAssign>(into: &mut [T], from: &[T]) {
    for (sum, &x) in into.iter_mut().zip(from) {
        *sum += x;
    }
}

/// One region: the [`Core`] holding its resident worms and the ledger
/// of the edges and routers it owns (full-size arrays indexed by
/// *global* ids — foreign entries stay zero), the event driver's state
/// over it, the window-grant bookkeeping, and the outboxes the
/// coordinator drains between windows.
struct Region<'a> {
    idx: u32,
    core: Core<'a>,
    st: EventState,
    /// Handles whose worm left (retired or emigrated), for reuse.
    free: Vec<u32>,
    /// Per handle: the worm's [`cuts`], cached on arrival unless its
    /// route was still pending then (its escape tail may yet leave the
    /// region), so the window-end pass skips the O(path) rescan.
    cuts: Vec<Option<(u32, u32)>>,
    /// Outbox: worms whose next wanted edge crossed the cut, with the
    /// region owning it.
    handoffs: Vec<(u32, Resident<'a>)>,
    /// Running minimum [`worm_bound`] over the parked population, folded
    /// in as each worm parks (a parked worm's bound is constant; reset
    /// when a window ends with the queue empty). Folding this into `safe`
    /// keeps the window grant sound without rescanning parked worms —
    /// conservative once some have won and left.
    parked_safe: u64,
    /// Window grant: how far the residents can run before touching a
    /// cross edge (minimum [`worm_bound`]; refreshed at window end and
    /// tightened on every arrival).
    safe: u64,
    /// The last window's [`engine::Window`] report. Frozen steps skip
    /// their stall counting — the coordinator tops it up from
    /// `frozen_at`.
    win: engine::Window,
}

impl<'a> Region<'a> {
    /// Region `idx` of `n`, its per-handle tables sized for its share of
    /// the feed's declared size.
    fn new(idx: u32, ctx: &Ctx, sim: &Sim<'a>, n: usize) -> Region<'a> {
        let adaptive = sim.core.adaptive.as_ref().map(|ad| ad.sibling());
        // Each region keeps its own copy of the rules: a fault kill sets
        // the same dead flags in every copy, at the same boundary.
        let mut core = Core::new(
            sim.graph,
            adaptive,
            sim.core.config,
            sim.core.rules.clone(),
            false,
        );
        core.foreign = ctx.foreign(idx);
        core.reserve(sim.reserved.div_ceil(n));
        let mut st = EventState::new(&core);
        // The wait queue as in `engine::drive`: a live source's id hint
        // sizes it, a slice run's grows as its worms park.
        let hint = (sim.id_hint as usize).div_ceil(n);
        st.waiting.reserve(hint, core.adaptive.is_some());
        Region {
            idx,
            st,
            core,
            free: Vec::new(),
            cuts: Vec::new(),
            handoffs: Vec::new(),
            parked_safe: u64::MAX,
            safe: u64::MAX,
            win: engine::Window {
                frozen_at: u64::MAX,
                last_move_plus1: 0,
            },
        }
    }

    /// Takes in a worm — freshly admitted, or handed off by another
    /// region — under a free handle, caches its [`cuts`] and tightens the
    /// window grant.
    fn arrive(&mut self, ctx: &Ctx, r: Resident<'a>) {
        let h = self.free.pop().unwrap_or(self.core.worms.len() as u32);
        self.core.put(h, r);
        self.core.unfinished += 1;
        if ctx.has_cut[self.idx as usize] {
            let at = cuts(ctx, &self.core, h, self.idx);
            if self.cuts.len() <= h as usize {
                self.cuts.resize(h as usize + 1, None);
            }
            self.cuts[h as usize] = (!self.core.worms[h as usize].pending_route).then_some(at);
            self.safe = self.safe.min(worm_bound(ctx, &self.core, h, at));
        }
        self.st.runnable.push(h);
    }

    /// Runs this region through the window `[t0, end)` without touching
    /// any other region's state ([`engine::run_window`]), then empties
    /// it of the worms that no longer belong here and refreshes the
    /// `safe` grant for the next window.
    fn run_window(&mut self, ctx: &Ctx, t0: u64, end: u64) {
        // Releases other regions' worms made on this region's edges
        // during step `t0 − 1` have landed: their waiters contend now.
        engine::wake_released(&mut self.core, &mut self.st);
        if !ctx.has_cut[self.idx as usize] {
            // Nobody can leave and nothing bounds the next grant: the
            // event engine's window, and its `on_park`.
            self.win = engine::run_window(&mut self.core, &mut self.st, t0, end, &mut |_, _| {});
            return;
        }
        let (idx, cached) = (self.idx, &self.cuts);
        let at = |core: &Core, h: u32| {
            let at = cached[h as usize].unwrap_or_else(|| cuts(ctx, core, h, idx));
            debug_assert_eq!(
                worm_bound(ctx, core, h, at),
                worm_bound(ctx, core, h, cuts(ctx, core, h, idx)),
                "stale cached cuts"
            );
            at
        };
        // Every park counts, not only the last: a waiter that wins
        // mid-window may move and park again closer to the cut.
        let parked_safe = &mut self.parked_safe;
        let mut on_park = |core: &Core, h: u32| {
            *parked_safe = (*parked_safe).min(worm_bound(ctx, core, h, at(core, h)));
        };
        self.win = engine::run_window(&mut self.core, &mut self.st, t0, end, &mut on_park);
        let core = &mut self.core;
        // Movers whose next wanted edge is owned elsewhere emigrate;
        // draining worms, on the wheel, have none and stay put — holding
        // the grant to one step while a foreign release is still to fire.
        let mut safe = if self.st.foreign_until >= end {
            1
        } else {
            u64::MAX
        };
        self.st.runnable.retain(|&h| {
            let (w, at) = (&core.worms[h as usize], at(core, h));
            // A pending head may have stepped over the cut; a frozen
            // route leaves exactly when it wants its first foreign edge.
            let may_leave = w.pending_route || at.1 == w.advance + 1;
            let target = if may_leave { ctx.home(core, h) } else { idx };
            if target != idx {
                core.unfinished -= 1;
                self.handoffs.push((target, core.take(h)));
                self.free.push(h);
            } else {
                safe = safe.min(worm_bound(ctx, core, h, at));
            }
            target == idx
        });
        if self.st.waiting.is_empty() {
            self.parked_safe = u64::MAX;
        }
        self.safe = safe.min(self.parked_safe);
    }
}

/// Everything the worker threads can see: the regions, one a worker
/// (each behind its own mutex — a worker steps its own inside a window
/// and the coordinator holds every one between windows, so locks are
/// never contended), their layout, the window barriers, and the
/// broadcast clock/grant.
struct Shared<'a> {
    regions: Vec<Mutex<Region<'a>>>,
    ctx: Ctx,
    /// Opens a window (workers wait here between windows).
    start: Barrier,
    /// Closes a window (the coordinator merges after this).
    end: Barrier,
    /// The window's start step, broadcast before `start` opens.
    /// Relaxed ordering suffices — the barriers synchronize.
    t_now: AtomicU64,
    /// The window's width in steps, broadcast alongside `t_now`.
    w_now: AtomicU64,
    /// Set by the coordinator before the final `start` wave.
    stop: AtomicBool,
    /// The first panic caught inside a window, on any thread
    /// ([`Shared::contain`]).
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<'a> Shared<'a> {
    fn lock(&self, i: usize) -> MutexGuard<'_, Region<'a>> {
        self.regions[i]
            .lock()
            .expect("a panic that poisons a region ends the run")
    }

    /// Runs region `w` — worker `w`'s — through the window `[t, t + win)`.
    /// An empty graph has no region to run.
    fn run_region(&self, w: usize, t: u64, win: u64) {
        if w < self.regions.len() {
            self.lock(w).run_window(&self.ctx, t, t + win);
        }
    }

    /// Runs `f`, keeping a panic's payload instead of unwinding: inside
    /// a window every thread must still reach the `end` barrier —
    /// [`Barrier`] has no poisoning, the others would wait there forever.
    fn contain(&self, f: impl FnOnce()) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
            self.caught().get_or_insert(payload);
        }
    }

    /// The first panic [`Shared::contain`] caught, if any.
    fn caught(&self) -> MutexGuard<'_, Option<Box<dyn Any + Send>>> {
        self.panic.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Worker `w`: run its region through each window until the
/// coordinator raises `stop`.
fn worker_loop(shared: &Shared<'_>, w: usize) {
    loop {
        shared.start.wait();
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let t = shared.t_now.load(Ordering::Relaxed);
        let win = shared.w_now.load(Ordering::Relaxed);
        shared.contain(|| shared.run_region(w, t, win));
        shared.end.wait();
    }
}

/// Advances every region through the window `[t, t + w)` — on the
/// worker pool when there is one, inline otherwise. A panic on any
/// thread of the pool resumes here, on the coordinator's, once all of
/// them are past the `end` barrier.
fn step_window(shared: &Shared<'_>, t: u64, w: u64) {
    if shared.regions.len() <= 1 {
        return shared.run_region(0, t, w);
    }
    shared.t_now.store(t, Ordering::Relaxed);
    shared.w_now.store(w, Ordering::Relaxed);
    shared.start.wait();
    shared.contain(|| shared.run_region(0, t, w)); // the coordinator doubles as worker 0
    shared.end.wait();
    let caught = shared.caught().take();
    if let Some(payload) = caught {
        resume_unwind(payload);
    }
}

/// Cross-region invariant check between windows: every region's own
/// ([`engine::validate`]), plus the one comparison no region can make
/// alone — a worm may hold VCs on another region's edges, so the held
/// counts recomputed from the worms and the ledgers' holder counts
/// agree only summed over regions. `now` is the next window's first step.
fn validate(regs: &mut [MutexGuard<'_, Region<'_>>], num_edges: usize, now: u64) {
    let (mut held, mut holders) = (vec![0u16; num_edges], vec![0u16; num_edges]);
    for reg in regs {
        let reg = &mut **reg;
        // The pass the region would run on entering its next window: a
        // worm still parked on an edge a landed release freed, its key
        // not yet hot, would fail the parked-set check.
        engine::wake_released(&mut reg.core, &mut reg.st);
        engine::validate(&mut reg.core, &mut reg.st, now);
        add_rows(&mut held, &reg.core.held_counts());
        add_rows(&mut holders, &reg.core.ledger.holders);
    }
    assert_eq!(held, holders, "VC accounting mismatch");
}

/// Adds `from`'s run accumulators and occupancy maxima into `into`'s: a
/// region's into the run's id-keyed core when the run ends.
fn fold_totals(into: &mut Core, from: &Core) {
    into.flit_hops += from.flit_hops;
    into.last_finish = into.last_finish.max(from.last_finish);
    into.ledger.max_vcs = into.ledger.max_vcs.max(from.ledger.max_vcs);
    into.ledger.max_pool = into.ledger.max_pool.max(from.ledger.max_pool);
    into.fault_discards += from.fault_discards;
    into.fault_detour_hops += from.fault_detour_hops;
    if let (Some(ad), Some(from_ad)) = (into.adaptive.as_mut(), from.adaptive.as_ref()) {
        ad.stats.escape_fallbacks += from_ad.stats.escape_fallbacks;
        ad.stats.misroute_hops += from_ad.stats.misroute_hops;
    }
}

/// The run is over: settles every region through step `through`
/// ([`engine::settle`]), records every resident's
/// outcome in the run's id-keyed core — or, for the deadlock report,
/// moves the whole worm there — and
/// folds the per-region accumulators into the run totals, the event
/// driver's counters into `stats`.
fn write_back<'a>(
    sim: &mut Sim<'a>,
    regs: &mut [MutexGuard<'_, Region<'a>>],
    through: u64,
    whole: bool,
    stats: &mut EngineStats,
) {
    let total = &mut sim.core;
    for reg in regs {
        let reg = &mut **reg;
        stats.add_driver_counts(&reg.st.stats);
        engine::settle(&mut reg.core, &mut reg.st, through);
        for h in reg.st.runnable.drain(..) {
            if whole {
                let r = reg.core.take(h);
                total.put(r.id, r);
            } else {
                total.record(reg.core.ids[h as usize], reg.core.outcomes[h as usize]);
            }
        }
        reg.core.ledger.settle_max(&reg.core.rules);
        fold_totals(total, &reg.core);
    }
    probe::lap(Phase::Merge);
}

/// Lands what the regions left for the coordinator, in region-index
/// order (the effects are commutative or canonically re-sorted
/// downstream; fixing the order makes the run reproducible by
/// inspection, not just by argument): first every region's cross-region
/// releases, on the edges' owners, and its retirements — read off its
/// core's completions, their outcomes recorded in the run's id-keyed
/// core, whose next completion flush reports them to the source, and
/// their handles freed — then every region's emigrants, in their new
/// regions, counted in `stats.handoffs`.
fn land<'a>(
    ctx: &Ctx,
    sim: &mut Sim<'a>,
    regs: &mut [MutexGuard<'_, Region<'a>>],
    stats: &mut EngineStats,
) {
    for i in 0..regs.len() {
        let mut releases = std::mem::take(&mut regs[i].core.remote_releases);
        for e in releases.drain(..) {
            let owner = ctx.edge_region[e as usize] as usize;
            regs[owner].core.release_vc(e as usize);
        }
        regs[i].core.remote_releases = releases;
        let Region { core, free, .. } = &mut *regs[i];
        for (time, h, delivered) in core.done.drain(..) {
            let id = core.ids[h as usize];
            sim.core.record(id, core.outcomes[h as usize]);
            sim.core.done.push((time, id, delivered));
            free.push(h);
        }
    }
    for i in 0..regs.len() {
        let mut handoffs = std::mem::take(&mut regs[i].handoffs);
        stats.handoffs += handoffs.len() as u64;
        for (target, r) in handoffs.drain(..) {
            regs[target as usize].arrive(ctx, r);
        }
        regs[i].handoffs = handoffs;
    }
    probe::lap(Phase::Merge);
}

/// The coordinator: mirrors [`crate::legacy::drive`]'s loop head (idle
/// fast-forward, step-cap accounting, kills, admissions) around the
/// window grant, then merges the regions' outboxes. A live source's bad
/// spec leaves like a verdict: between windows, every worker parked.
fn run_loop<'a>(
    sim: &mut Sim<'a>,
    shared: &Shared<'a>,
    stats: &mut EngineStats,
) -> Result<Driven, SimError> {
    let ctx = &shared.ctx;
    let mut t: u64 = 0;
    // Between windows every region is the coordinator's: one lock each
    // per window, not one per outbox entry.
    let lock_all = || (0..shared.regions.len()).map(|i| shared.lock(i));
    let mut regs: Vec<MutexGuard<'_, Region<'a>>> = lock_all().collect();
    loop {
        let idle = regs.iter().all(|reg| reg.st.n_active() == 0);
        if let Some(outcome) = sim.loop_head(&mut t, idle) {
            // The cap may end the run with worms still parked; the
            // sequential engines count their stalls through the last
            // step that ran.
            let last = sim.core.config.max_steps.saturating_sub(1);
            write_back(sim, &mut regs, last, false, stats);
            return Ok((outcome, t, None));
        }
        // A fault kill is a window boundary too, and one every region
        // reaches together: each applies it to its own residents and its
        // own copy of the rules ([`engine::kill`] — the id-keyed core
        // holds no worm here, only the dead flags admission reads). The
        // discards' releases on other regions' edges land before the
        // window opens, where the owners turn their wait keys hot for the
        // waiters to contend at `t` itself, and the discarded retire
        // before admission flushes
        // completions: the source hears `on_discarded(id, t)` ahead of
        // `take_ready(t)`, as under the sequential engines.
        if sim.next_kill_time() <= t {
            let (total, due) = sim.due_kills(t);
            total.kill(due, t);
            for reg in &mut regs {
                let reg = &mut **reg;
                engine::kill(&mut reg.core, &mut reg.st, due, t);
            }
            land(ctx, sim, &mut regs, stats);
        }
        // Each worm goes straight into the region it belongs in; only a
        // discard on arrival lands in the id-keyed core.
        sim.admit_with(t, |total, graph, id, spec, now| {
            if sim::dead_on_arrival(total, &spec) {
                return sim::admit(total, graph, id, spec, now);
            }
            let r = sim::arrival(total, graph, id, spec);
            regs[ctx.entry(&r)].arrive(ctx, r);
            true
        })?;

        // The cut-bound grant: the minimum per-region `safe` bound over
        // populated regions (infinite while no resident can reach a cut).
        let populated = regs.iter().filter(|reg| reg.st.n_active() > 0);
        let grant = populated.map(|reg| reg.safe).min().unwrap_or(u64::MAX);
        // The window: that grant, capped where the event engine's window
        // ends ([`Sim::window_end`]); a worm near a cut pins it to one
        // step, without asking the source.
        let w = if grant <= 1 {
            1
        } else {
            grant.min(sim.window_end(t) - t)
        };

        regs.clear(); // unlock
        step_window(shared, t, w);
        regs.extend(lock_all());

        let mut t_dead: u64 = 0;
        let mut all_static = true;
        let mut any_worms = false;
        let mut any_frozen = false;
        // A window covers at least its first step, and an open-ended
        // grant no more than the steps that moved a worm.
        let mut moved_to = t + 1;
        for reg in &mut regs {
            moved_to = moved_to.max(reg.win.last_move_plus1);
            t_dead = t_dead.max(reg.win.last_move_plus1);
            if reg.st.n_active() > 0 {
                any_worms = true;
                if reg.win.frozen_at == u64::MAX {
                    all_static = false;
                } else {
                    t_dead = t_dead.max(reg.win.frozen_at);
                }
            }
            any_frozen |= reg.win.frozen_at != u64::MAX;
            debug_assert!(
                w == 1 || reg.core.remote_releases.is_empty(),
                "remote release inside a multi-step window"
            );
        }
        stats.windows += 1;
        stats.one_step_windows += u64::from(w == 1);
        stats.window_steps += moved_to - t;
        // A frozen region repeats its freeze step verbatim until the
        // window ends (or until the deadlock instant, below): top up
        // the stall counts its skipped steps would have recorded. At
        // the freeze step every resident was blocked — a mover would
        // have unfrozen it — so the top-up is uniform over the runnable
        // ones (parked worms settle when they leave the queue).
        let deadlocked = any_worms && all_static && t_dead < t + w;
        if any_frozen {
            let end_count = if deadlocked { t_dead } else { t + w - 1 };
            for reg in &mut regs {
                let reg = &mut **reg;
                if reg.win.frozen_at != u64::MAX {
                    let extra = end_count - reg.win.frozen_at;
                    for &h in &reg.st.runnable {
                        reg.core.outcomes[h as usize].stalls += extra;
                    }
                }
            }
        }
        // Cross-region releases land now — visible to step `t + w`,
        // like any sequential mid-step release — and *before* the owner
        // samples the window's last step into its occupancy maxima and
        // turns the wait keys hot, both of which it does on entering its
        // next window (or at a kill): the sample is the end-of-step state
        // and the waiters contend from the step after, as in the
        // sequential engines. Emigrants arrive after the top-up above,
        // which is for the worms that sat the window out.
        land(ctx, sim, &mut regs, stats);

        if deadlocked {
            // Static state, nothing can ever move again: deadlock at
            // the first globally move-free step, with the same report
            // the sequential engines build. Parked worms were blocked
            // at every step up to the verdict.
            write_back(sim, &mut regs, t_dead, true, stats);
            return Ok(sim.deadlock(t_dead));
        }
        if sim.core.config.check_invariants {
            validate(&mut regs, sim.graph.num_edges(), t + w);
        }
        t += w;
    }
}

/// Entry point from the engine dispatch: runs `sim` to its outcome on
/// the partitioned engine with `threads` workers (0 = all available;
/// always clamped to the region count), one region each, and leaves its
/// counters in [`Sim::engine_stats`].
pub(crate) fn drive<'a>(sim: &mut Sim<'a>, threads: u32) -> Result<Driven, SimError> {
    let graph = sim.graph;
    let plan = match &sim.core.config.regions {
        Some(p) => Some(p.clone()), // built for `graph`: `SimConfig::check`
        // Nothing to partition: zero regions, and the coordinator alone
        // resolves the source bookkeeping.
        None if graph.num_nodes() == 0 => None,
        None => Some(RegionPlan::contiguous(graph, DEFAULT_REGIONS)),
    };
    let k = plan.as_ref().map_or(0, |p| p.num_regions() as usize);
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let req = if threads == 0 {
        avail
    } else {
        threads as usize
    };
    let n = req.min(k);
    // Fewer workers than regions: plan region `r` joins worker
    // `r · n / k`'s region, a block of adjacent regions each.
    let plan = plan.map(|p| {
        if n == k {
            return p;
        }
        let worker = p
            .node_regions()
            .iter()
            .map(|&r| (r as usize * n / k) as u32);
        RegionPlan::from_node_regions(graph, worker.collect())
    });
    let ctx = Ctx::new(graph, plan.as_ref());
    // The regions share the feed's size for their per-handle tables.
    let regions = (0..n)
        .map(|r| Mutex::new(Region::new(r as u32, &ctx, sim, n)))
        .collect();
    let shared = Shared {
        regions,
        ctx,
        start: Barrier::new(n),
        end: Barrier::new(n),
        t_now: AtomicU64::new(0),
        w_now: AtomicU64::new(1),
        stop: AtomicBool::new(false),
        panic: Mutex::new(None),
    };
    let mut stats = EngineStats {
        regions: n as u32,
        ..EngineStats::default()
    };
    let out = if n <= 1 {
        run_loop(sim, &shared, &mut stats)
    } else {
        std::thread::scope(|s| {
            let sh = &shared;
            for w in 1..n {
                s.spawn(move || worker_loop(sh, w));
            }
            // However the loop ends — a verdict, a bad spec, a panic of the
            // coordinator's own (a failed invariant check, a source that
            // panics), one resumed from inside a window — the workers
            // are parked on `start`: release them before unwinding any
            // further, or the scope joins them forever.
            let out = catch_unwind(AssertUnwindSafe(|| run_loop(sim, sh, &mut stats)));
            sh.stop.store(true, Ordering::Relaxed);
            sh.start.wait();
            out.unwrap_or_else(|payload| resume_unwind(payload))
        })
    };
    sim.engine_stats = Some(stats);
    out
}
