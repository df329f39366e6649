//! The resident-worm half of a simulation: [`Core`] — the worms in
//! flight, the VC ledger they hold VCs in and the step phases that move
//! them — and [`Resident`], one worm's whole state as a value. The
//! sequential engines run one core, keyed by message id, inside
//! [`crate::sim::Sim`]; every region of the parallel engine runs one of
//! its own. The model, the engines and the invariants that keep them
//! bit-identical are the [`crate::wormhole`] module docs'.

use std::borrow::Cow;

use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::graph::{EdgeId, Graph, NodeId};
use wormhole_topology::path::Path;

use crate::config::{RouteSelection, SimConfig};
use crate::kernel::{
    self, order_contenders, FlatBuckets, RouteStats, SelectedHop, VcLedger, VcRules, Worm,
};
use crate::message::MessageSpec;
use crate::stats::{DiscardReason, MessageOutcome};

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
    pub(crate) route: Vec<EdgeId>,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) budget: u32,
    pub(crate) selected: SelectedHop,
}

/// The resident-worm half of a simulation: the worms in flight, the VC
/// ledger they hold VCs in, and the step phases that move them. Worms
/// are keyed by *handle* — the message id in the sequential engines'
/// single core, a recycled slot in a parallel region's — and nothing in
/// here knows which; the run-level half (source, admission, kill
/// schedule, verdicts) is [`crate::sim::Sim`].
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
    /// Whether every handle *is* its message id — true of
    /// [`crate::sim::Sim`]'s core, false of a parallel region's recycled
    /// slots. Arbitration orders contenders by message id, and reads it
    /// off the handle when it can.
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
    pub(crate) fn reserve(&mut self, n: usize) {
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
