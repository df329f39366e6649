//! The partitioned parallel engine behind [`Engine::Parallel`].
//!
//! The network is decomposed into the regions of a
//! [`RegionPlan`] (from [`SimConfig::regions`], or a default contiguous
//! cut): every node — and with it every outgoing edge, i.e. the VC
//! holder state that lives at the sending router — is owned by exactly
//! one region, and each region is advanced on its own worker thread.
//! Workers synchronize on conservative time windows in the
//! Chandy–Misra style: a region may run ahead only as far as the
//! earliest instant it could influence (or be influenced by) a
//! neighbor. Unlike the global lookahead-1 bound — which collapses the
//! windows to lockstep supersteps — the window grant here is
//! *plan-aware and per-worm*: [`RegionPlan::distance_to_cut`] gives the
//! minimum number of flit steps before a header at node `v` can
//! traverse a cross-region edge, and [`worm_bound`] refines that to the
//! exact worm population (a drain whose held edges are all local can
//! never influence another region again; an in-flight worm whose
//! remaining path stays inside its region is bounded only by the next
//! admission). The coordinator takes the minimum over the populated
//! regions, caps it at the next message release and the step cap, and
//! broadcasts one *window* `[t, t + w)`; each worker then runs its
//! regions through the whole window without any synchronization — a
//! null-message-style window grant.
//!
//! # Why a window is exactly the sequential steps it replaces
//!
//! Within a window each region runs the same classify → arbitrate →
//! apply phases as the sequential steppers — the same [`crate::kernel`]
//! functions over its own [`VcLedger`] — one step at a time, over the
//! worms *resident* in it (a worm resides in the region owning
//! its next wanted edge; draining worms stay where they finished
//! acquiring; a pending adaptive worm resides in its head node's
//! region). The grant construction guarantees that for every step of
//! the window strictly before the last, every acquire, release, and
//! candidate/arbitration read touches only region-owned state:
//!
//! * **Held edges**: a worm holding a foreign edge caps its bound at 1,
//!   so multi-step windows only ever contain worms whose held — and
//!   therefore releasable — edges are all local.
//! * **Oblivious worms** advance at most one hop per step, so a worm
//!   whose first foreign path edge sits `j` hops past its head cannot
//!   contend for it before relative step `j − 1` — the last step of a
//!   `j − 1`-step window, where crossing it is exactly the handoff the
//!   coordinator applies at the boundary.
//! * **Pending adaptive worms** contend only for out-edges of their
//!   head node, all owned by the head's region; by
//!   [`RegionPlan::distance_to_cut`] the head cannot reach a foreign
//!   node in fewer steps than the granted window, and any escape tail
//!   committed mid-window is itself a walk from the head, so its
//!   in-window prefix stays local too.
//!
//! Because regions are mutually invisible inside a window, the
//! sequential engines' accelerations apply verbatim *per region*.
//! Each region keeps a **per-region event queue** (the event engine's
//! [`WaitQueue`]): a worm that loses arbitration under
//! [`BlockedPolicy::Stall`] and whose watch set — the next edge of a
//! frozen route, or every candidate plus the escape hop of a pending
//! head, all out-edges of the head node and hence region-owned — is
//! still full at the end of the step *parks* on those edges' wait keys
//! (the edge, or the source router under pooling). A parked worm is
//! skipped by the step loop — its edges provably stay full until a
//! release on one of its keys, so skipping is behavior-free — and its
//! stalls settle arithmetically at wake (`t − parked_at`), making the
//! per-step cost proportional to movers and wakeups, not residents.
//! When every runnable resident is draining and the queue is empty,
//! the region batch-advances them with [`Worm::drain`]'s closed-form
//! release/flit-hop formulas; and when a step moves
//! nothing the region is *frozen* — provably identical until the
//! window ends (releases only come from moves, and nothing external
//! arrives mid-window) — so it stops stepping and the coordinator tops
//! up the skipped stall counts afterwards. A region whose worms all
//! retire simply stops. An all-regions-frozen window reproduces the
//! sequential deadlock verdict at the exact step the last region
//! froze.
//!
//! Between windows the coordinator merges outboxes in region-index
//! order: remote releases (possible only in one-step windows, where a
//! worm may hold a foreign edge) land before the occupancy maxima are
//! sampled, finished/discarded worms retire into the per-id outcome
//! table (their completion callbacks flushed in canonical `(time, id)`
//! order, as always), and worms whose next wanted edge crossed the cut
//! migrate. Admissions happen at window starts only — the grant never
//! extends past the source's next release, and a reactive source pins
//! the window to one step. Every cross-region effect is therefore
//! either commutative or canonically ordered, and the result is
//! byte-identical for every worker count and every valid plan.
//!
//! # Accepted configurations and the explicit fallback
//!
//! The engine accepts static and pooled VC policies, every arbitration
//! and blocked policy, oblivious *and* adaptive (`MinimalAdaptive` /
//! `FullyAdaptive`) routing. Adaptive
//! hop selection is region-local by construction: candidates are
//! out-edges of the pending head, whose occupancies the resident region
//! owns. The one remaining fallback is a fault plan (kills apply
//! globally at start-of-step): it runs on the event engine instead,
//! reported in
//! [`SimResult::engine_fallback`](crate::stats::SimResult); see
//! [`EngineFallback`](crate::stats::EngineFallback). The dispatch
//! never falls back silently. (`run_traced` is not a fallback: it never
//! consults the engine knob.)
//!
//! [`Engine::Parallel`]: crate::config::Engine::Parallel
//! [`SimConfig::regions`]: crate::config::SimConfig::regions

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::graph::{EdgeId, Graph, NodeId};
use wormhole_topology::region::RegionPlan;

use crate::config::{BlockedPolicy, RouteSelection, SimConfig};
use crate::events::DeadlockReport;
use crate::kernel::{
    self, order_contenders, FlatBuckets, RouteStats, SelectedHop, VcLedger, VcRules, WaitQueue,
    Worm,
};
use crate::stats::{DiscardReason, MessageOutcome, Outcome};
use crate::wormhole::Sim;

/// Default region count when [`SimConfig::regions`] is `None`
/// (clamped to the node count by [`RegionPlan::contiguous`]).
///
/// [`SimConfig::regions`]: crate::config::SimConfig::regions
const DEFAULT_REGIONS: u32 = 8;

/// Immutable per-run lookup state shared by the coordinator and every
/// worker: the configuration, the region layout, the lookahead matrix,
/// and the VC ledger's rule half. Borrowing this never conflicts with
/// the coordinator's `&mut Sim` — everything is copied out of the
/// [`Sim`] or borrows run-outliving state (config, graph, router).
struct Ctx<'a> {
    config: &'a SimConfig,
    graph: &'a Graph,
    /// The VC ledger's rule half — a copy of the [`Sim`]'s (fault plans
    /// never reach this engine, so no kill ever changes it mid-run).
    rules: VcRules,
    /// Edge → destination-node index.
    edge_dst: Vec<u32>,
    /// Edge → owning region (= region of the source router).
    edge_region: Vec<u32>,
    /// Node → owning region ([`RegionPlan::node_regions`] copy).
    node_region: Vec<u32>,
    /// Node → minimum flit steps before a header there can traverse a
    /// cross-region edge ([`RegionPlan::distance_to_cut`]).
    dist_to_cut: Vec<u64>,
    /// Adaptive routing only: the shared hop-selection router.
    router: Option<&'a dyn AdaptiveRouter>,
    /// Adaptive routing only: `FullyAdaptive` (misroutes allowed).
    fully: bool,
}

impl<'a> Ctx<'a> {
    fn new(sim: &Sim<'a>, plan: &RegionPlan) -> Ctx<'a> {
        let graph = sim.graph;
        let config = sim.config;
        let node_region = plan.node_regions().to_vec();
        let edge_region = graph
            .edge_sources()
            .iter()
            .map(|&s| node_region[s as usize])
            .collect();
        Ctx {
            config,
            graph,
            rules: sim.rules.clone(),
            edge_dst: graph.edges().map(|e| graph.dst(e).0).collect(),
            edge_region,
            node_region,
            dist_to_cut: plan.distance_to_cut(graph),
            router: sim.adaptive.as_ref().map(|ad| ad.router),
            fully: config.route_selection == RouteSelection::FullyAdaptive,
        }
    }
}

/// A worm resident in a region: the rigid-worm kinematics plus
/// everything the region needs to arbitrate, route, and retire it
/// without touching shared per-id tables (those are written once, at
/// retirement or write-back, by the coordinator).
struct RWorm {
    /// Message id.
    id: u32,
    worm: Worm,
    /// Spec release time (the `OldestFirst` arbitration key).
    release: u64,
    /// Spec priority (the `PriorityRank` arbitration key).
    priority: u32,
    /// The route as global edge ids (copied at admission — worms
    /// migrate between regions, specs don't). Grows hop by hop while
    /// `pending_route` is set.
    path: Vec<EdgeId>,
    /// Injection node (adaptive head position at `advance == 0`).
    src: NodeId,
    /// Destination node (adaptive arrival test).
    dst: NodeId,
    /// Remaining misroute budget (`FullyAdaptive`).
    budget: u32,
    /// This step's wanted-hop selection (pending worms only).
    selected: SelectedHop,
    /// The per-message outcome, carried with the worm and written back
    /// to `Sim::outcomes` at retirement / run end.
    out: MessageOutcome,
    /// Retired (finished or discarded) this step; dropped by the sweep.
    gone: bool,
    /// Lost arbitration this step under [`BlockedPolicy::Stall`]; the
    /// sweep parks it if its watch set is still full ([`Region::wait_keys`]).
    park: bool,
    /// Cached "[`worm_bound`] is `u64::MAX`": set by the coordinator at
    /// admission/handoff for a non-pending worm whose held and future
    /// path edges are all region-local. Absorbing while resident — held
    /// edges only march forward along the (fixed, all-local) path — so
    /// the hot park/window-end paths skip the O(path) rescan.
    local_path: bool,
}

impl RWorm {
    /// The head's current node (pending worms: where selection runs).
    #[inline]
    fn head_node(&self, ctx: &Ctx) -> usize {
        if self.worm.advance == 0 {
            self.src.idx()
        } else {
            ctx.edge_dst[self.path[self.worm.advance as usize - 1].idx()] as usize
        }
    }
}

/// How many steps worm `rw`, resident in region `home`, can run before
/// it could first touch (acquire, release, or contend for) an edge
/// owned by another region — the per-worm refinement of the plan's
/// lookahead, and the quantity the window grant minimizes over.
///
/// * Any *held* foreign edge caps the bound at 1: its release may need
///   to cross the cut on the very next step.
/// * A pending adaptive head only contends for out-edges of its current
///   node, so it is bounded by [`RegionPlan::distance_to_cut`] — it
///   cannot stand on a foreign node (or commit a route prefix leaving
///   the region) any sooner.
/// * A draining worm only releases held (hence local) edges: unbounded.
/// * An in-flight oblivious worm advances one hop per step, so its
///   first foreign path edge at 1-based index `j` cannot be contended
///   before relative step `j − 1 − advance`.
fn worm_bound(ctx: &Ctx, rw: &RWorm, home: u32) -> u64 {
    let w = &rw.worm;
    for j in w.held_vcs(ctx.rules.final_vc) {
        if ctx.edge_region[rw.path[j as usize - 1].idx()] != home {
            return 1;
        }
    }
    if w.pending_route {
        return ctx.dist_to_cut[rw.head_node(ctx)].max(1);
    }
    if w.advance >= w.hops {
        return u64::MAX;
    }
    debug_assert_eq!(
        ctx.edge_region[rw.path[w.advance as usize].idx()],
        home,
        "resident worm's next wanted edge is foreign"
    );
    for j in (w.advance + 2)..=w.hops {
        if ctx.edge_region[rw.path[j as usize - 1].idx()] != home {
            return (j - 1 - w.advance) as u64;
        }
    }
    u64::MAX
}

/// A completed or discarded worm, handed to the coordinator.
struct Retired {
    id: u32,
    /// Final kinematics (makes `Worm::done` true for delivered worms
    /// once written back; adaptive worms also carry their final `hops`
    /// and cleared `pending_route`).
    worm: Worm,
    /// Completion time: `t + 1` for deliveries, `t` for discards —
    /// the same stamps the sequential engines record.
    time: u64,
    delivered: bool,
    out: MessageOutcome,
}

/// One region's owned state: the VC ledger's count half for its edges
/// and routers (full-size arrays indexed by *global* ids — foreign
/// entries stay zero), its resident worms, per-step scratch, and the
/// outboxes the coordinator drains between windows.
struct Region {
    idx: u32,
    ledger: VcLedger,
    buckets: FlatBuckets,
    worms: Vec<RWorm>,
    /// Swap buffer for the retire/handoff sweep (keeps capacity).
    scratch: Vec<RWorm>,
    /// Winner indices into `worms` this step.
    movers: Vec<u32>,
    /// Loser indices into `worms` this step.
    blocked: Vec<u32>,
    /// Candidate scratch for adaptive hop selection.
    cand: Vec<(EdgeId, bool)>,
    /// Outbox: releases targeting edges owned by other regions (only
    /// possible in one-step windows).
    remote_releases: Vec<u32>,
    /// Outbox: worms whose next wanted edge crossed the cut.
    handoffs: Vec<(u32, RWorm)>,
    /// Outbox: worms that finished or were discarded this window.
    retired: Vec<Retired>,
    /// The per-region event queue: worms blocked on full edges under
    /// [`BlockedPolicy::Stall`] park here instead of re-contending
    /// every step, exactly as in the sequential event engine. Handles
    /// are `parked` slots; keys are global edge (static) or router
    /// (pooled) ids, always region-owned.
    waiting: WaitQueue,
    /// The parked worms, by wait-queue handle (`None` = free slot).
    parked: Vec<Option<RWorm>>,
    /// Free slots in `parked`.
    free_slots: Vec<u32>,
    /// Wait-key scratch for [`Self::wait_keys`].
    keys: Vec<usize>,
    /// Wait keys released since the last wake pass.
    released_keys: Vec<u32>,
    /// Running minimum [`worm_bound`] over the parked population
    /// (monotone while any worm stays parked; reset when the queue
    /// empties). Folding this into `safe` keeps the window grant sound
    /// without rescanning parked worms — conservative after wakes.
    parked_safe: u64,
    /// Whether any resident worm advanced this step.
    moved: bool,
    /// `1 + `the last in-window step that moved a resident (0 = none).
    last_move_plus1: u64,
    /// First in-window step at which the region froze (nothing moved
    /// under [`BlockedPolicy::Stall`] with residents left); `u64::MAX`
    /// when it did not freeze. Frozen steps skip their stall counting —
    /// the coordinator tops it up from this mark.
    static_from: u64,
    /// Window grant: how far the residents can run before touching a
    /// cross edge (minimum [`worm_bound`]; refreshed at window end and
    /// tightened by the coordinator on every handoff/admission).
    safe: u64,
    flit_hops: u64,
    route_stats: RouteStats,
}

impl Region {
    fn new(idx: u32, ctx: &Ctx) -> Region {
        Region {
            idx,
            ledger: VcLedger::new(ctx.graph, &ctx.rules),
            buckets: FlatBuckets::with_edges(ctx.graph.num_edges()),
            worms: Vec::new(),
            scratch: Vec::new(),
            movers: Vec::new(),
            blocked: Vec::new(),
            cand: Vec::new(),
            remote_releases: Vec::new(),
            handoffs: Vec::new(),
            retired: Vec::new(),
            waiting: WaitQueue::new(ctx.rules.num_wait_keys(ctx.graph)),
            parked: Vec::new(),
            free_slots: Vec::new(),
            keys: Vec::new(),
            released_keys: Vec::new(),
            parked_safe: u64::MAX,
            moved: false,
            last_move_plus1: 0,
            static_from: u64::MAX,
            safe: u64::MAX,
            flit_hops: 0,
            route_stats: RouteStats::default(),
        }
    }

    /// Releases one VC on `e`: locally if this region owns the edge,
    /// otherwise via the outbox (applied between windows — the `t + 1`
    /// visibility every sequential mid-step release has). Foreign
    /// releases imply a held foreign edge, whose 1-step [`worm_bound`]
    /// guarantees the window was a single step.
    #[inline]
    fn release(&mut self, ctx: &Ctx, e: usize) {
        if ctx.edge_region[e] == self.idx {
            self.release_local(ctx, e);
        } else {
            self.remote_releases.push(e as u32);
        }
    }

    /// Releases a VC on an owned edge (also the coordinator's entry
    /// point for applying another region's outbox entry). Records the
    /// wait key so the next [`Self::wake_parked`] pass can unpark the
    /// waiters the release may have unblocked.
    #[inline]
    fn release_local(&mut self, ctx: &Ctx, e: usize) {
        self.ledger.release(&ctx.rules, e);
        self.released_keys.push(ctx.rules.wait_key(e) as u32);
    }

    /// Marks resident `wi` retired (the sweep drops it) and hands its
    /// final state to the coordinator. `time` is `t + 1` for deliveries
    /// and `t` for discards.
    fn retire(&mut self, wi: usize, time: u64, delivered: bool) {
        let w = &mut self.worms[wi];
        w.gone = true;
        if delivered {
            w.out.finished = Some(time);
        }
        self.retired.push(Retired {
            id: w.id,
            worm: w.worm,
            time,
            delivered,
            out: w.out,
        });
    }

    /// Whether any worm still lives in this region — runnable or
    /// parked. Parked worms are invisible to the step loop but fully
    /// resident: they hold VCs, pin the window grant, and count as
    /// active for termination.
    #[inline]
    fn has_residents(&self) -> bool {
        !self.worms.is_empty() || !self.waiting.is_empty()
    }

    /// Whether `rw`, blocked this step, can park: every edge it could
    /// want next is still full now that the step's moves and releases
    /// have landed. If so, fills `keys` with the wait keys to park on —
    /// a frozen route's next edge's, or a pending head's whole watch
    /// set's ([`kernel::pending_wait_keys`]), pinning its selection.
    fn wait_keys(&mut self, ctx: &Ctx, rw: &mut RWorm) -> bool {
        if !rw.worm.pending_route {
            let e = rw.path[rw.worm.advance as usize].idx();
            self.keys.clear();
            self.keys.push(ctx.rules.wait_key(e));
            return self.ledger.free_vcs(&ctx.rules, e) == 0;
        }
        let (head, _) = kernel::header_at(ctx.graph, rw.src, &rw.path);
        let escape = kernel::pending_wait_keys(
            ctx.router.expect("pending worm without a router"),
            &ctx.rules,
            &self.ledger,
            head,
            rw.dst,
            ctx.fully && rw.budget > 0,
            &mut self.cand,
            &mut self.keys,
        );
        escape.is_some_and(|edge| {
            rw.selected = SelectedHop::Escape { edge: edge.0 };
            true
        })
    }

    /// Moves `rw`, blocked at step `t` with its watch set provably
    /// full, onto the wait queue under `keys`. Its stall for step `t` is
    /// already counted; the skipped steps settle arithmetically at wake.
    fn park_worm(&mut self, ctx: &Ctx, rw: RWorm, t: u64) {
        if !rw.local_path {
            self.parked_safe = self.parked_safe.min(worm_bound(ctx, &rw, self.idx));
        }
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.parked.push(None);
            (self.parked.len() - 1) as u32
        });
        self.parked[slot as usize] = Some(rw);
        self.waiting.park(slot, &self.keys, t);
    }

    /// Wakes every waiter of every key released during step `t` (or,
    /// on the coordinator's call in one-step windows, released by a
    /// remote worm during that window's step). A woken worm's skipped
    /// stalls settle as `t - parked_at` — it was provably blocked at
    /// every one of those steps, its watch set being full throughout —
    /// and it re-contends at `t + 1`, exactly when the release becomes
    /// visible sequentially. Waking is conservative: a still-blocked
    /// worm re-parks after its next (stall-counted) step.
    fn wake_parked(&mut self, t: u64) {
        if self.waiting.is_empty() {
            self.released_keys.clear();
            return;
        }
        while let Some(k) = self.released_keys.pop() {
            self.waiting.wake(k as usize, |slot, parked_at| {
                let mut rw = self.parked[slot as usize]
                    .take()
                    .expect("woken handle holds a worm");
                rw.out.stalls += t - parked_at;
                self.free_slots.push(slot);
                self.worms.push(rw);
            });
        }
        if self.waiting.is_empty() {
            self.parked_safe = u64::MAX;
        }
    }

    /// Returns every parked worm to the runnable list with its stalls
    /// settled through step `through` — the run is ending (deadlock or
    /// step cap) and the sequential engines count a stall for each of
    /// those steps.
    fn settle_parked(&mut self, through: u64) {
        self.waiting.settle_all(through, |slot, skipped| {
            let mut rw = self.parked[slot as usize]
                .take()
                .expect("parked handle holds a worm");
            rw.out.stalls += skipped;
            self.worms.push(rw);
        });
        self.parked.clear();
        self.free_slots.clear();
        self.parked_safe = u64::MAX;
    }

    /// The event engine's invariant check, region-side: every edge a
    /// parked worm watches is non-acquirable, and the queue's live
    /// entries are exactly the watch sets, recomputed from scratch.
    fn validate_parked(&mut self, ctx: &Ctx) {
        let mut expect = Vec::new();
        for slot in 0..self.parked.len() {
            if let Some(mut rw) = self.parked[slot].take() {
                assert!(
                    self.wait_keys(ctx, &mut rw),
                    "parked worm {} watches an acquirable edge",
                    rw.id
                );
                expect.extend(self.keys.iter().map(|&key| (slot as u32, key)));
                self.parked[slot] = Some(rw);
            }
        }
        assert_eq!(
            expect,
            self.waiting.parked_keys(),
            "region {}: wait queue out of sync with the parked worms' watch sets",
            self.idx
        );
    }

    /// Whether every resident is draining (`advance ≥ hops`, route
    /// frozen) — the trigger for the closed-form fast-forward.
    fn all_draining(&self) -> bool {
        self.worms.iter().all(|w| w.worm.draining())
    }

    /// Runs this region through the window `[t0, end)` without touching
    /// any other region's state: per-step classify → arbitrate → apply
    /// while interaction is possible, the all-draining closed form when
    /// it is not, and an early stop once the region is provably static
    /// (frozen) or empty. Refreshes the `safe` grant for the next
    /// window on the way out.
    fn run_window(&mut self, ctx: &Ctx, t0: u64, end: u64) {
        self.static_from = u64::MAX;
        self.last_move_plus1 = 0;
        // Multi-step windows are interaction-free, so the end-of-step
        // occupancy sample is exact locally; one-step windows keep the
        // coordinator's settle (remote releases may still land).
        let local_settle = end - t0 > 1;
        let mut t = t0;
        while t < end {
            if self.worms.is_empty() {
                // Runnable empty with worms still parked: every parked
                // worm waits on full edges, and local releases only
                // come from local moves — none can happen. Static from
                // here (only a cross-region release could wake anyone,
                // and that is a between-windows event).
                if !self.waiting.is_empty() {
                    self.static_from = t;
                }
                break;
            }
            if local_settle && self.waiting.is_empty() && self.all_draining() {
                self.fast_drain_all(ctx, t, end);
                break;
            }
            self.step(ctx, t);
            if self.moved {
                self.last_move_plus1 = t + 1;
            }
            if local_settle {
                self.ledger.settle_max(&ctx.rules);
            }
            if !self.moved && ctx.config.blocked == BlockedPolicy::Stall && self.has_residents() {
                // Frozen: releases only come from moves and nothing
                // external arrives mid-window, so every remaining step
                // of the window repeats this one exactly. Stop stepping;
                // the coordinator tops up the skipped stall counts (the
                // runnable residents'; parked worms settle at wake).
                self.static_from = t;
                break;
            }
            t += 1;
        }
        let mut safe = self.parked_safe;
        for w in &self.worms {
            if !w.local_path {
                safe = safe.min(worm_bound(ctx, w, self.idx));
            }
        }
        self.safe = safe;
    }

    /// Batch-advances an all-draining population from `t` to `end` (or
    /// each worm's finish, whichever is first) with [`Worm::drain`]'s
    /// closed form. Safe because drains acquire nothing and only
    /// release held edges, which the window grant proved local (except
    /// in one-step windows, where `release` falls back to the outbox).
    fn fast_drain_all(&mut self, ctx: &Ctx, t: u64, end: u64) {
        debug_assert!(t < end);
        debug_assert!(self.waiting.is_empty(), "fast drain with parked worms");
        for wi in 0..self.worms.len() {
            let d = self.worms[wi].worm.drain(end - t, ctx.rules.final_vc);
            debug_assert!(d.steps > 0, "a finished worm survived the sweep");
            self.flit_hops += d.flit_hops;
            for j in d.released {
                let e = self.worms[wi].path[j as usize - 1];
                self.release(ctx, e.idx());
            }
            let fin_t = t + d.steps; // the last advance ran at fin_t − 1
            self.last_move_plus1 = self.last_move_plus1.max(fin_t);
            if d.finished {
                self.retire(wi, fin_t, true);
            }
        }
        self.sweep(ctx, t);
        // Nobody is waiting (asserted above) — drop the release keys
        // the drain recorded so they cannot wake a later parkee.
        self.released_keys.clear();
    }

    /// One step over the resident worms: the classify → arbitrate →
    /// apply phases of the sequential steppers, ending with the
    /// retire/handoff sweep. Reads and writes only region-owned
    /// state; cross-region effects go to the outboxes.
    fn step(&mut self, ctx: &Ctx, t: u64) {
        self.movers.clear();
        self.blocked.clear();
        self.buckets.clear();
        // Phase 1: classify (drains and VC-free final hops move freely;
        // pending worms select their wanted hop; everything else
        // contends for its next edge).
        for i in 0..self.worms.len() {
            let rw = &self.worms[i];
            let mut selected = None;
            if rw.worm.pending_route {
                // All candidates are out-edges of the head node, which
                // this region owns — so the local counters are the
                // global truth and every engine makes the same choice.
                debug_assert_eq!(
                    ctx.node_region[rw.head_node(ctx)],
                    self.idx,
                    "pending worm resident outside its head's region"
                );
                let sel = kernel::select_hop(
                    ctx.router.expect("pending worm without a router"),
                    &ctx.rules,
                    &self.ledger,
                    kernel::header_at(ctx.graph, rw.src, &rw.path),
                    rw.dst,
                    ctx.fully && rw.budget > 0,
                    &mut self.cand,
                );
                let edge = sel.edge().expect("selection always yields a hop");
                selected = Some((edge, ctx.edge_dst[edge as usize] == rw.dst.0));
                self.worms[i].selected = sel;
            }
            let rw = &self.worms[i];
            kernel::classify(
                &rw.worm,
                ctx.rules.final_vc,
                i as u32,
                selected,
                |j| rw.path[j as usize - 1].idx(),
                &mut self.buckets,
                &mut self.movers,
            );
        }
        // Phase 2: arbitration from start-of-step holder counts.
        // Contenders are indices into `worms`; bucket edges are global
        // ids, so the pooled grant order is the canonical global one.
        let (config, worms) = (ctx.config, &self.worms);
        self.ledger.arbitrate(
            &ctx.rules,
            &mut self.buckets,
            &mut self.movers,
            &mut self.blocked,
            |e, group| {
                order_contenders(config, t, e, group, |i| {
                    let w = &worms[i as usize];
                    (w.release, w.priority, w.id)
                })
            },
        );
        self.moved = !self.movers.is_empty();
        // Phase 3: apply.
        for i in 0..self.movers.len() {
            let m = self.movers[i];
            self.advance_worm(ctx, m, t);
        }
        for i in 0..self.blocked.len() {
            let m = self.blocked[i];
            self.worms[m as usize].out.stalls += 1;
            if ctx.config.blocked == BlockedPolicy::Discard {
                self.discard_worm(ctx, m, t);
            } else {
                // The sweep parks a loser whose watch set is still full
                // after every move and release of this step landed: it
                // stalls until a release on one of its wait keys, so the
                // step loop can skip it entirely.
                self.worms[m as usize].park = true;
            }
        }
        self.sweep(ctx, t);
        self.wake_parked(t);
    }

    /// Advances winner index `i` one flit step ([`Worm::advance`];
    /// pending worms commit their selected hop first, exactly like the
    /// sequential apply phase) and applies what it acquired and
    /// released.
    fn advance_worm(&mut self, ctx: &Ctx, i: u32, t: u64) {
        let wi = i as usize;
        let rw = &mut self.worms[wi];
        if rw.worm.pending_route {
            kernel::extend_route(
                &mut rw.worm,
                &mut rw.path,
                &mut rw.budget,
                rw.selected,
                ctx.router.expect("pending worm without a router"),
                rw.dst,
                &mut self.route_stats,
            );
        }
        let step = rw.worm.advance(ctx.rules.final_vc);
        self.flit_hops += step.flit_hops;
        if rw.out.first_move.is_none() {
            rw.out.first_move = Some(t);
        }
        // The newly crossed edge is always owned: winners acquire
        // locally, their wanted edge defines their residency.
        if let Some(j) = step.acquire {
            let e = rw.path[j as usize - 1].idx();
            debug_assert_eq!(ctx.edge_region[e], self.idx, "acquire on a foreign edge");
            self.ledger.acquire(&ctx.rules, e);
        }
        // The edge the tail just left and, on completion, the final
        // edge — either possibly foreign.
        for j in step.released {
            let e = self.worms[wi].path[j as usize - 1];
            self.release(ctx, e.idx());
        }
        if step.finished {
            self.retire(wi, t + 1, true);
        }
    }

    /// Discards blocked resident index `i`, releasing everything it
    /// holds ([`BlockedPolicy::Discard`] only — no faults here).
    fn discard_worm(&mut self, ctx: &Ctx, i: u32, t: u64) {
        let wi = i as usize;
        for j in self.worms[wi].worm.held_vcs(ctx.rules.final_vc) {
            let e = self.worms[wi].path[j as usize - 1];
            self.release(ctx, e.idx());
        }
        self.worms[wi].out.discarded = Some(DiscardReason::Delay);
        self.retire(wi, t, false);
    }

    /// End-of-step sweep: drop retired worms, park this step's losers
    /// that can park ([`Self::wait_keys`]), keep residents, and emigrate
    /// worms whose next wanted edge is owned elsewhere. Draining worms
    /// have none and stay put; a pending worm's residency follows its head.
    /// A parked worm never migrates — it did not move, so its wanted
    /// edge (and with it its residency) is unchanged.
    fn sweep(&mut self, ctx: &Ctx, t: u64) {
        std::mem::swap(&mut self.worms, &mut self.scratch);
        let mut scratch = std::mem::take(&mut self.scratch);
        for mut w in scratch.drain(..) {
            if w.gone {
                continue;
            }
            if std::mem::take(&mut w.park) && self.wait_keys(ctx, &mut w) {
                self.park_worm(ctx, w, t);
                continue;
            }
            let target = if w.worm.draining() {
                self.idx
            } else {
                rworm_home(ctx, &w) as u32
            };
            if target == self.idx {
                self.worms.push(w);
            } else {
                self.handoffs.push((target, w));
            }
        }
        self.scratch = scratch;
    }
}

/// Everything the worker threads can see: the regions (each behind its
/// own mutex — workers step disjoint index sets, so locks are always
/// uncontended), the window barriers, and the broadcast clock/grant.
struct Shared<'a> {
    regions: Vec<Mutex<Region>>,
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
    ctx: Ctx<'a>,
}

/// Worker `w` of `nthreads`: run regions `w, w + nthreads, …` through
/// each window until the coordinator raises `stop`.
fn worker_loop(shared: &Shared<'_>, w: usize, nthreads: usize) {
    loop {
        shared.start.wait();
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let t = shared.t_now.load(Ordering::Relaxed);
        let win = shared.w_now.load(Ordering::Relaxed);
        run_stripe(shared, w, nthreads, t, win);
        shared.end.wait();
    }
}

/// Runs worker `w`'s regions (`w, w + nthreads, …`) through the window
/// `[t, t + win)`.
fn run_stripe(shared: &Shared<'_>, w: usize, nthreads: usize, t: u64, win: u64) {
    for reg in shared.regions.iter().skip(w).step_by(nthreads) {
        reg.lock().unwrap().run_window(&shared.ctx, t, t + win);
    }
}

/// Advances every region through the window `[t, t + w)` — on the
/// worker pool when there is one, inline otherwise.
fn step_window(shared: &Shared<'_>, nthreads: usize, t: u64, w: u64) {
    if nthreads == 1 {
        return run_stripe(shared, 0, 1, t, w);
    }
    shared.t_now.store(t, Ordering::Relaxed);
    shared.w_now.store(w, Ordering::Relaxed);
    shared.start.wait();
    run_stripe(shared, 0, nthreads, t, w); // the coordinator doubles as worker 0
    shared.end.wait();
}

/// Builds the region-resident copy of freshly admitted message `m`.
fn make_rworm(sim: &Sim<'_>, m: u32) -> RWorm {
    let mi = m as usize;
    let spec = &sim.specs[mi];
    let (path, src, dst, budget) = match sim.adaptive.as_ref() {
        Some(ad) => (ad.routes[mi].clone(), ad.src[mi], ad.dst[mi], ad.budget[mi]),
        None => (spec.path.edges().to_vec(), NodeId(0), NodeId(0), 0),
    };
    RWorm {
        id: m,
        worm: sim.worms[mi],
        release: spec.release,
        priority: spec.priority,
        path,
        src,
        dst,
        budget,
        selected: SelectedHop::None,
        out: sim.outcomes[mi],
        gone: false,
        park: false,
        local_path: false,
    }
}

/// The region a fresh or migrating worm belongs to: its head node's
/// region while the route is pending, the owner of its next wanted
/// edge otherwise.
fn rworm_home(ctx: &Ctx, w: &RWorm) -> usize {
    if w.worm.pending_route {
        ctx.node_region[w.head_node(ctx)] as usize
    } else {
        ctx.edge_region[w.path[w.worm.advance as usize].idx()] as usize
    }
}

/// Copies every in-flight resident worm's kinematics, outcome, and
/// route state back into the per-id tables (retired worms were written
/// at retirement). Parked worms are residents too; the run-end paths
/// settle their stalls first, the mid-run invariant check reads them
/// as-is (kinematics are exact while parked, only stalls are deferred).
fn write_back(sim: &mut Sim<'_>, shared: &Shared<'_>) {
    for cell in &shared.regions {
        let reg = cell.lock().unwrap();
        for w in reg.worms.iter().chain(reg.parked.iter().flatten()) {
            let mi = w.id as usize;
            sim.worms[mi] = w.worm;
            sim.outcomes[mi] = w.out;
            if let Some(ad) = sim.adaptive.as_mut() {
                ad.routes[mi].clone_from(&w.path);
                ad.budget[mi] = w.budget;
                ad.selected[mi] = w.selected;
            }
        }
    }
}

/// Scatters the region-owned holder/pool counters back into the
/// [`Sim`] arrays (each global index is owned by exactly one region).
fn sync_counters(sim: &mut Sim<'_>, shared: &Shared<'_>) {
    let ctx = &shared.ctx;
    for (r, cell) in shared.regions.iter().enumerate() {
        let reg = cell.lock().unwrap();
        for (e, &owner) in ctx.edge_region.iter().enumerate() {
            if owner as usize == r {
                sim.ledger.holders[e] = reg.ledger.holders[e];
            }
        }
        for (v, &owner) in ctx.node_region.iter().enumerate() {
            if owner as usize == r {
                sim.ledger.pool_used[v] = reg.ledger.pool_used[v];
                if ctx.rules.pooled {
                    sim.ledger.shared_used[v] = reg.ledger.shared_used[v];
                }
            }
        }
    }
}

/// Folds the per-region accumulators into the run totals (exactly
/// once, at run end).
fn fold_stats(sim: &mut Sim<'_>, shared: &Shared<'_>) {
    for cell in &shared.regions {
        let reg = cell.lock().unwrap();
        sim.flit_hops += reg.flit_hops;
        sim.ledger.max_vcs = sim.ledger.max_vcs.max(reg.ledger.max_vcs);
        sim.ledger.max_pool = sim.ledger.max_pool.max(reg.ledger.max_pool);
        if let Some(ad) = sim.adaptive.as_mut() {
            ad.stats.escape_fallbacks += reg.route_stats.escape_fallbacks;
            ad.stats.misroute_hops += reg.route_stats.misroute_hops;
        }
    }
}

/// The coordinator: mirrors [`Sim::drive_legacy`]'s loop head (idle
/// fast-forward, step-cap accounting, admissions) around the window
/// grant, then merges outboxes in region-index order.
fn run_loop(
    sim: &mut Sim<'_>,
    shared: &Shared<'_>,
    nthreads: usize,
) -> (Outcome, u64, Option<DeadlockReport>) {
    let mut t: u64 = 0;
    let mut n_active: usize = 0;
    let mut deadlock_report = None;
    let mut rel_buf: Vec<u32> = Vec::new();
    let mut handoff_buf: Vec<(u32, RWorm)> = Vec::new();
    let mut retired_buf: Vec<Retired> = Vec::new();
    let outcome = loop {
        if let Some(outcome) = sim.loop_head(&mut t, n_active == 0) {
            break outcome;
        }
        let new = sim.admit_ready(t);
        for i in new {
            let m = sim.admitted_id(i);
            if sim.outcomes[m as usize].discarded.is_none() {
                let mut w = make_rworm(sim, m);
                let target = rworm_home(&shared.ctx, &w);
                let bound = worm_bound(&shared.ctx, &w, target as u32);
                w.local_path = bound == u64::MAX && !w.worm.pending_route;
                let mut reg = shared.regions[target].lock().unwrap();
                reg.safe = reg.safe.min(bound);
                reg.worms.push(w);
                drop(reg);
                n_active += 1;
            }
        }

        // The window grant: the minimum per-region `safe` bound over
        // populated regions, capped at the next admission and the step
        // cap. Reactive sources pin the window to one step (a delivery
        // may spawn a release mid-window otherwise); so does any worm
        // near a cut. `peek_next_release` is an idempotent peek for
        // non-reactive sources, so consulting it every window leaves
        // the admission sequence untouched.
        let mut grant = u64::MAX;
        for cell in &shared.regions {
            let reg = cell.lock().unwrap();
            if reg.has_residents() {
                grant = grant.min(reg.safe);
            }
        }
        let w = if sim.reactive || grant <= 1 {
            1
        } else {
            let mut horizon = sim.config.max_steps.saturating_sub(t).max(1);
            if let Some(r) = sim.peek_next_release(t) {
                horizon = horizon.min(r.saturating_sub(t).max(1));
            }
            grant.min(horizon)
        };

        step_window(shared, nthreads, t, w);

        // Merge, in region-index order (the effects are commutative or
        // canonically re-sorted downstream; fixing the order makes the
        // run reproducible by inspection, not just by argument).
        let mut t_dead: u64 = 0;
        let mut all_static = true;
        let mut any_worms = false;
        let mut any_frozen = false;
        for cell in &shared.regions {
            let mut reg = cell.lock().unwrap();
            t_dead = t_dead.max(reg.last_move_plus1);
            if reg.has_residents() {
                any_worms = true;
                if reg.static_from == u64::MAX {
                    all_static = false;
                } else {
                    t_dead = t_dead.max(reg.static_from);
                }
            }
            any_frozen |= reg.static_from != u64::MAX;
            rel_buf.append(&mut reg.remote_releases);
            handoff_buf.append(&mut reg.handoffs);
            retired_buf.append(&mut reg.retired);
        }
        debug_assert!(
            w == 1 || rel_buf.is_empty(),
            "remote release inside a multi-step window"
        );
        // Cross-region releases land now — visible to step `t + 1`,
        // like any sequential mid-step release...
        for &e in &rel_buf {
            let e = e as usize;
            let owner = shared.ctx.edge_region[e] as usize;
            shared.regions[owner]
                .lock()
                .unwrap()
                .release_local(&shared.ctx, e);
        }
        rel_buf.clear();
        // ...and *before* the occupancy maxima are sampled, so the
        // sample is the end-of-step state, as in the sequential
        // engines. (Multi-step windows already settled in-region.)
        // The wake pass runs here too: a remote release during step
        // `t` unblocks its local waiters exactly like a local one —
        // skipped stalls settle through `t`, re-contention at `t + 1`.
        if w == 1 {
            for cell in &shared.regions {
                let mut reg = cell.lock().unwrap();
                reg.wake_parked(t);
                reg.ledger.settle_max(&shared.ctx.rules);
            }
        }
        // A frozen region repeats its freeze step verbatim until the
        // window ends (or until the deadlock instant, below): top up
        // the stall counts its skipped steps would have recorded. At
        // the freeze step every resident was blocked — a mover would
        // have unfrozen it — so the top-up is uniform.
        let deadlocked =
            sim.config.blocked == BlockedPolicy::Stall && any_worms && all_static && t_dead < t + w;
        if any_frozen {
            let end_count = if deadlocked { t_dead } else { t + w - 1 };
            for cell in &shared.regions {
                let mut reg = cell.lock().unwrap();
                if reg.static_from != u64::MAX {
                    let extra = end_count - reg.static_from;
                    if extra > 0 {
                        for wm in &mut reg.worms {
                            wm.out.stalls += extra;
                        }
                    }
                }
            }
        }
        for rt in retired_buf.drain(..) {
            let mi = rt.id as usize;
            sim.worms[mi] = rt.worm;
            sim.outcomes[mi] = rt.out;
            sim.record_done(rt.id, rt.time, rt.delivered);
            if rt.delivered {
                sim.last_finish = sim.last_finish.max(rt.time);
            }
            sim.unfinished -= 1;
            n_active -= 1;
        }
        for (target, mut w) in handoff_buf.drain(..) {
            let bound = worm_bound(&shared.ctx, &w, target);
            w.local_path = bound == u64::MAX && !w.worm.pending_route;
            let mut reg = shared.regions[target as usize].lock().unwrap();
            reg.safe = reg.safe.min(bound);
            reg.worms.push(w);
        }

        if deadlocked {
            // Static state, nothing can ever move again: deadlock at
            // the first globally move-free step, with the same report
            // the sequential engines build. Parked worms were blocked
            // at every step up to the verdict — settle them first.
            t = t_dead;
            for cell in &shared.regions {
                cell.lock().unwrap().settle_parked(t_dead);
            }
            write_back(sim, shared);
            sim.rebuild_active();
            deadlock_report = Some(sim.build_deadlock_report());
            break Outcome::Deadlock(sim.active.clone());
        }
        if sim.config.check_invariants {
            write_back(sim, shared);
            sync_counters(sim, shared);
            sim.rebuild_active();
            sim.validate();
            for cell in &shared.regions {
                cell.lock().unwrap().validate_parked(&shared.ctx);
            }
        }
        t += w;
    };
    if matches!(outcome, Outcome::MaxSteps) {
        // The cap ended the run with worms possibly still parked; the
        // sequential engines count their stalls through the last step
        // that ran (`max_steps - 1`).
        let last = sim.config.max_steps.saturating_sub(1);
        for cell in &shared.regions {
            cell.lock().unwrap().settle_parked(last);
        }
    }
    write_back(sim, shared);
    sync_counters(sim, shared);
    fold_stats(sim, shared);
    sim.rebuild_active();
    (outcome, t, deadlock_report)
}

/// Entry point from the engine dispatch: runs `sim` to its outcome on
/// the partitioned engine with `threads` workers (0 = all available;
/// always clamped to the region count). The caller has already
/// verified the run carries no fault plan — faulted ones take the
/// explicit-fallback path and never reach this function.
pub(crate) fn drive(sim: &mut Sim<'_>, threads: u32) -> (Outcome, u64, Option<DeadlockReport>) {
    let graph = sim.graph;
    if graph.num_nodes() == 0 {
        // Nothing to partition (and no message can have a valid path);
        // the legacy driver resolves the source bookkeeping.
        return sim.drive_legacy();
    }
    let plan = match &sim.config.regions {
        Some(p) => {
            assert!(
                p.matches(graph),
                "region plan does not match the simulated graph"
            );
            p.clone()
        }
        None => RegionPlan::contiguous(graph, DEFAULT_REGIONS),
    };
    let k = plan.num_regions() as usize;
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let req = if threads == 0 {
        avail
    } else {
        threads as usize
    };
    let nthreads = req.min(k).max(1);
    let ctx = Ctx::new(sim, &plan);
    let regions = (0..k)
        .map(|r| Mutex::new(Region::new(r as u32, &ctx)))
        .collect();
    let shared = Shared {
        regions,
        start: Barrier::new(nthreads),
        end: Barrier::new(nthreads),
        t_now: AtomicU64::new(0),
        w_now: AtomicU64::new(1),
        stop: AtomicBool::new(false),
        ctx,
    };
    if nthreads == 1 {
        run_loop(sim, &shared, 1)
    } else {
        std::thread::scope(|s| {
            let sh = &shared;
            for w in 1..nthreads {
                s.spawn(move || worker_loop(sh, w, nthreads));
            }
            let out = run_loop(sim, sh, nthreads);
            sh.stop.store(true, Ordering::Relaxed);
            sh.start.wait();
            out
        })
    }
}
