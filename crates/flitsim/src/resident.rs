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

use crate::config::{Arbitration, RouteSelection, SimConfig};
use crate::kernel::{
    self, FlatBuckets, Rank, RouteStats, SelectedHop, Split, VcLedger, VcRules, WaitQueue,
    WatchRow, Worm,
};
use crate::message::MessageSpec;
use crate::probe::{self, Phase};
use crate::stats::MessageOutcome;

/// Per-core adaptive routing state (present iff the config asks for a
/// non-oblivious [`RouteSelection`]).
pub(crate) struct AdaptiveState<'a> {
    /// Candidate enumeration and escape continuations.
    pub(crate) router: &'a dyn AdaptiveRouter,
    /// Incrementally built route per handle: the adaptive prefix plus,
    /// after a fallback, the escape tail. Replaces `spec.path` as the
    /// source of truth for [`Core::path_edge`]. Allocated per message
    /// at admission and freed when its worm leaves ([`Core::vacate`]).
    pub(crate) routes: Vec<Vec<EdgeId>>,
    /// Injection node per handle (head position at `advance == 0`).
    pub(crate) src: Vec<NodeId>,
    /// Destination node per handle.
    pub(crate) dst: Vec<NodeId>,
    /// Remaining misroute budget per handle (`FullyAdaptive`).
    pub(crate) budget: Vec<u32>,
    /// Wanted-hop selection per handle (see [`SelectedHop`]).
    pub(crate) selected: Vec<SelectedHop>,
    /// Watch-row header per handle ([`AdaptiveState::watch`]). Like
    /// `row_cands`, grown — inside what [`Core::reserve`] sized — as rows
    /// are first filled: a core that never steps (the parallel engine's
    /// id-keyed one) never touches either.
    row_heads: Vec<WatchHead>,
    /// The rows' candidates, `stride` slots per handle, the profitable
    /// ones first.
    row_cands: Vec<EdgeId>,
    /// The most edges that leave one node of the routing graph: what a
    /// row may have to hold, read once per run.
    stride: usize,
    /// Candidate scratch for [`AdaptiveRouter::candidates`].
    cand: Vec<(EdgeId, bool)>,
    /// Escape fallbacks and misroute hops so far.
    pub(crate) stats: RouteStats,
}

/// The fixed-size part of one handle's watch row.
#[derive(Clone, Copy)]
struct WatchHead {
    /// `1 +` the route length the row was filled at — the head position
    /// it answers for — or 0: no row.
    filled_at: u32,
    escape: EdgeId,
    /// The node the head came from; [`AT_SOURCE`] before the first hop.
    prev: NodeId,
    /// Candidates in the row, and how many of them — its first — are
    /// profitable.
    len: u16,
    profitable: u16,
}

/// The candidates of `cands` flagged `profitable` (or those not), in the
/// router's order: a watch row keeps the two kinds apart.
fn lane(cands: &[(EdgeId, bool)], profitable: bool) -> impl Iterator<Item = EdgeId> + '_ {
    let of_kind = move |c: &&(EdgeId, bool)| c.1 == profitable;
    cands.iter().filter(of_kind).map(|c| c.0)
}

/// [`WatchHead::prev`] of a head that has not moved yet.
const AT_SOURCE: NodeId = NodeId(u32::MAX);

const NO_ROW: WatchHead = WatchHead {
    filled_at: 0,
    escape: EdgeId(0),
    prev: AT_SOURCE,
    len: 0,
    profitable: 0,
};

impl<'a> AdaptiveState<'a> {
    /// Empty state for a run over `router`.
    pub(crate) fn new(router: &'a dyn AdaptiveRouter) -> Self {
        Self::with_stride(router, router.graph().max_out_degree())
    }

    /// Empty state for another core of the same run (a parallel
    /// region's): same router, same row size.
    pub(crate) fn sibling(&self) -> Self {
        Self::with_stride(self.router, self.stride)
    }

    fn with_stride(router: &'a dyn AdaptiveRouter, stride: usize) -> Self {
        Self {
            router,
            routes: Vec::new(),
            src: Vec::new(),
            dst: Vec::new(),
            budget: Vec::new(),
            selected: Vec::new(),
            row_heads: Vec::new(),
            row_cands: Vec::new(),
            stride,
            cand: Vec::new(),
            stats: RouteStats::default(),
        }
    }

    /// Where pending worm `h`'s header stands ([`kernel::header_at`]).
    fn header(&self, h: usize) -> (NodeId, Option<NodeId>) {
        kernel::header_at(self.router.graph(), self.src[h], &self.routes[h])
    }

    /// Pending worm `h`'s watch row if it answers for where the head
    /// stands now.
    fn row(&self, h: usize) -> Option<WatchRow<'_>> {
        let now = self.routes[h].len() as u32 + 1;
        self.kept_row(h)
            .filter(|_| self.row_heads[h].filled_at == now)
    }

    /// The watch row last filled for handle `h`, wherever its head
    /// stands now.
    fn kept_row(&self, h: usize) -> Option<WatchRow<'_>> {
        let head = self.row_heads.get(h).filter(|head| head.filled_at != 0)?;
        let cands = &self.row_cands[h * self.stride..][..head.len as usize];
        let (profitable, misroutes) = cands.split_at(head.profitable as usize);
        Some(WatchRow {
            profitable,
            misroutes,
            escape: head.escape,
            prev: Some(head.prev).filter(|&v| v != AT_SOURCE),
        })
    }

    /// Asks the router for pending worm `h`'s watch row where its head
    /// stands now.
    fn fill_row(&mut self, h: usize, misroutes_ok: bool) {
        let ((at, prev), dst) = (self.header(h), self.dst[h]);
        debug_assert_ne!(at, dst, "pending worm already at its destination");
        self.cand.clear();
        self.router
            .candidates(at, dst, misroutes_ok, &mut self.cand);
        assert!(
            self.cand.len() <= self.stride.min(u16::MAX as usize),
            "router offered {} candidates at {at:?}; no node has more than {} out-edges",
            self.cand.len(),
            self.stride
        );
        let lo = h * self.stride;
        if self.row_heads.len() <= h {
            self.row_heads.resize(h + 1, NO_ROW);
            self.row_cands.resize(lo + self.stride, EdgeId(0));
        }
        let row = &mut self.row_cands[lo..lo + self.cand.len()];
        let by_kind = lane(&self.cand, true).chain(lane(&self.cand, false));
        for (slot, e) in row.iter_mut().zip(by_kind) {
            *slot = e;
        }
        self.row_heads[h] = WatchHead {
            filled_at: self.routes[h].len() as u32 + 1,
            escape: self.router.escape_hop(at, dst),
            prev: prev.unwrap_or(AT_SOURCE),
            len: self.cand.len() as u16,
            profitable: lane(&self.cand, true).count() as u16,
        };
    }

    /// Pending worm `h`'s watch row, asked of the router the first time
    /// the worm selects at a head position and kept until the head moves:
    /// the router is pure for the whole run, and `misroutes_ok` — budget
    /// left under `FullyAdaptive` — only changes with a move.
    fn watch(&mut self, h: usize, misroutes_ok: bool) -> WatchRow<'_> {
        if self.row(h).is_none() {
            self.fill_row(h, misroutes_ok);
        }
        self.row(h).expect("just filled")
    }
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
/// core to core when a worm crosses a cut, or into the id-keyed core
/// for a deadlock report. The spec is the caller's own when the run was
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
    /// Per contended edge, how many VCs it grants this step
    /// ([`VcLedger::grants`]).
    grants: Vec<u32>,
    /// Message id per handle.
    pub(crate) ids: Vec<u32>,
    /// Whether every handle *is* its message id — true of
    /// [`crate::sim::Sim`]'s core, false of a parallel region's recycled
    /// slots. Arbitration orders contenders by message id, and reads it
    /// off the handle when it can.
    handles_are_ids: bool,
    /// Spec per handle ([`vacant_spec`] where no worm lives), borrowed
    /// from the slice the run was lent or owned; an owned one goes when
    /// its worm finishes or is discarded ([`Core::vacate`]).
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
    /// This step's arbitration verdicts: its movers, and the losers the
    /// caller stalls or parks (`split.blocked`).
    pub(crate) split: Split,
    /// This step's winners among the parked worms the event driver
    /// entered ([`Core::step_winners`]).
    pub(crate) won: Vec<u32>,
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
    /// ([`MessageOutcome::discarded`]).
    pub(crate) fault_discards: u64,
    /// Misroute hops taken after the first applied kill (`after_kill`).
    pub(crate) fault_detour_hops: u64,
    after_kill: bool,
}

impl<'a> Core<'a> {
    /// An empty core; `adaptive` is the (empty) state of per-hop route
    /// selection, `None` under [`RouteSelection::Oblivious`].
    pub(crate) fn new(
        graph: &Graph,
        adaptive: Option<AdaptiveState<'a>>,
        config: &'a SimConfig,
        rules: VcRules,
        handles_are_ids: bool,
    ) -> Self {
        Self {
            config,
            ledger: VcLedger::new(graph, &rules),
            rules,
            buckets: FlatBuckets::with_edges(graph.num_edges()),
            grants: Vec::new(),
            ids: Vec::new(),
            handles_are_ids,
            specs: Vec::new(),
            worms: Vec::new(),
            outcomes: Vec::new(),
            adaptive,
            active: Vec::new(),
            split: Split::new(config),
            won: Vec::new(),
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
            ad.row_heads.reserve_exact(n);
            ad.row_cands.reserve_exact(n * ad.stride);
        }
    }

    /// Installs `r` under handle `h`, growing every per-handle table to
    /// cover it (handles below `h` not yet seen get vacant slots; the
    /// outcomes may already reach further — the parallel engine's id-keyed
    /// core records them alone, [`Core::record`]). The worm arrives
    /// without a watch row and asks the router again where it stands.
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
        self.record(h, r.out);
        if let Some(ad) = &mut self.adaptive {
            ad.routes[hi] = r.route;
            ad.src[hi] = r.src;
            ad.dst[hi] = r.dst;
            ad.budget[hi] = r.budget;
            ad.selected[hi] = r.selected;
            // The row stays behind: a recycled slot or a migrated worm
            // must never read another's.
            if let Some(head) = ad.row_heads.get_mut(hi) {
                *head = NO_ROW;
            }
        }
    }

    /// Writes `out` as handle `h`'s outcome, growing the outcome table
    /// alone to cover it: all the parallel engine's id-keyed core keeps of
    /// a worm that retired, or was still in flight at the step cap.
    pub(crate) fn record(&mut self, h: u32, out: MessageOutcome) {
        let hi = h as usize;
        if self.outcomes.len() <= hi {
            self.outcomes.resize(hi + 1, MessageOutcome::default());
        }
        self.outcomes[hi] = out;
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
        ad.header(h as usize).0
    }

    /// Whether a kill cut worm `h`: its flits currently occupy a dead
    /// edge, or its route still has a dead edge ahead of the header. (A
    /// pending adaptive worm has nothing ahead, and its router avoids
    /// every edge the plan kills, so none is ever cut.)
    fn worm_severed(&self, h: u32) -> bool {
        let w = &self.worms[h as usize];
        let (lo, hi) = w.held_range();
        (lo..=hi)
            .chain(w.advance + 1..=w.hops)
            .any(|j| self.rules.is_dead(self.path_edge(h, j)))
    }

    /// The resident-worm half of a fault kill at the **start** of step
    /// `t`, the same in every driver: marks the `due` schedule entries'
    /// edges dead, then discards each severed worm among `active` (the
    /// caller makes that list current first). The discards' VCs are free
    /// for this step's arbitration — the convention of a release during step
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
                self.discard(m, t);
            }
        }
    }

    /// Whether pending worm `m` may take a non-minimal hop from where it
    /// stands: fully adaptive selection with misroute budget left.
    fn misroutes_ok(&self, m: u32) -> bool {
        self.config.route_selection == RouteSelection::FullyAdaptive
            && self
                .adaptive
                .as_ref()
                .is_some_and(|ad| ad.budget[m as usize] > 0)
    }

    /// Selects pending worm `m`'s wanted hop ([`kernel::select_hop`]) from
    /// its watch row and start-of-step state, and records it.
    fn select(&mut self, m: u32) -> SelectedHop {
        let (mi, misroutes_ok) = (m as usize, self.misroutes_ok(m));
        let ad = self
            .adaptive
            .as_mut()
            .expect("pending worm without a router");
        let g = ad.router.graph();
        let row = ad.watch(mi, misroutes_ok);
        let sel = kernel::select_hop(g, &self.rules, &self.ledger, row, misroutes_ok);
        ad.selected[mi] = sel;
        sel
    }

    /// Parked pending worm `m`, which the contest selects one at a time
    /// ([`kernel::WaitQueue::scan_hot`]), selects its wanted hop like a
    /// runnable one and returns the edge it enters this step's
    /// arbitration under.
    pub(crate) fn contend_parked(&mut self, m: u32) -> u32 {
        let sel = self.select(m).edge();
        sel.expect("selection always yields a hop")
    }

    /// Settles pending worm `m` after the contest selected its hop one at
    /// a time ([`Core::contend_parked`]). A winner has moved on — its row
    /// is outdated — and there is nothing to do. A loser stays where it
    /// waits: its selection is pinned back to the escape hop — what the
    /// legacy stepper selects at a step that moves nothing, which the
    /// deadlock report reads. Returns the wait key of a watched edge that
    /// is acquirable now that the step's releases have landed, if there
    /// is one: the loser must contend again at the next step, as a
    /// runnable one would. (A head entered within a run is never asked:
    /// its lost edge is full again, or released and hot.)
    pub(crate) fn lost_in_place(&mut self, m: u32) -> Option<usize> {
        let mi = m as usize;
        let ad = self.adaptive.as_mut().expect("pending worm without state");
        let row = ad.row(mi)?;
        let (rules, ledger) = (&self.rules, &self.ledger);
        let open = row
            .edges()
            .find(|e| ledger.free_vcs(rules, e.idx()) > 0)
            .map(|e| rules.wait_key(e.idx()));
        ad.selected[mi] = SelectedHop::Escape { edge: row.escape.0 };
        open
    }

    /// Fills `keys` with the wait keys of the watch row last filled for
    /// worm `m`: those a pending head parked on, for the row stays in
    /// place until the head selects again — so also in the step it wins
    /// and moves on.
    pub(crate) fn parked_keys(&self, m: u32, keys: &mut Vec<(usize, u32)>) {
        keys.clear();
        if let Some(row) = self
            .adaptive
            .as_ref()
            .and_then(|ad| ad.kept_row(m as usize))
        {
            keys.extend(
                row.edges()
                    .map(|e| (self.rules.wait_key(e.idx()), kernel::NO_EDGE)),
            );
        }
    }

    /// Whether pending worm `m`'s selection is the escape hop of its
    /// watch row: what a parked one's must read between steps.
    pub(crate) fn pinned_to_escape(&self, m: u32) -> bool {
        let ad = self.adaptive.as_ref().expect("pending worm without state");
        ad.row(m as usize).is_some_and(|row| {
            ad.selected[m as usize] == SelectedHop::Escape { edge: row.escape.0 }
        })
    }

    /// Classifies one active worm for this step ([`kernel::classify`]):
    /// draining worms go to `movers`, everything else contends in
    /// `buckets` for its wanted edge — which a pending adaptive worm
    /// first selects ([`Core::select`]).
    fn classify(&mut self, m: u32) {
        let mi = m as usize;
        let w = self.worms[mi];
        // A pending head stands at the end of its known path: it selects
        // its next hop first.
        let selected = w.pending_route.then(|| {
            let sel = self.select(m);
            sel.edge().expect("selection always yields a hop")
        });
        let (adaptive, specs) = (&self.adaptive, &self.specs);
        kernel::classify(
            &w,
            m,
            selected,
            |j| route_of(adaptive, specs, m)[j as usize - 1].idx(),
            &mut self.buckets,
            &mut self.split.movers,
        );
    }

    /// Whether worm `m`, blocked this step, can park
    /// ([`kernel::WaitQueue`]): every edge it could want next is still
    /// non-acquirable now that the step's releases have landed. If so,
    /// fills `keys` with the wait keys to park on, each with the edge its
    /// run entry records — for a frozen route its next path edge and that
    /// edge's key; for a pending one the whole watch set's keys
    /// ([`kernel::pending_wait_keys`]), whose selection is pinned to the
    /// escape hop the legacy stepper re-selects every step it stays
    /// blocked (what the deadlock report reads).
    pub(crate) fn wait_keys(&mut self, m: u32, keys: &mut Vec<(usize, u32)>) -> bool {
        let mi = m as usize;
        let w = self.worms[mi];
        if !w.pending_route {
            let e = self.path_edge(m, w.advance + 1);
            keys.clear();
            keys.push((self.rules.wait_key(e), e as u32));
            return self.ledger.free_vcs(&self.rules, e) == 0;
        }
        let misroutes_ok = self.misroutes_ok(m);
        let ad = self
            .adaptive
            .as_mut()
            .expect("pending worm without a router");
        let g = ad.router.graph();
        let row = ad.watch(mi, misroutes_ok);
        let escape = row.escape;
        let parks =
            kernel::pending_wait_keys(g, &self.rules, &self.ledger, row, misroutes_ok, keys);
        if parks {
            ad.selected[mi] = SelectedHop::Escape { edge: escape.0 };
        }
        parks
    }

    /// Worm `m`'s place in the canonical arbitration order
    /// ([`kernel::rank`]).
    #[inline]
    pub(crate) fn rank(&self, m: u32) -> Rank {
        let mi = m as usize;
        let id = if self.handles_are_ids {
            m
        } else {
            self.ids[mi]
        };
        kernel::rank(self.config.arbitration, id, || &self.specs[mi])
    }

    /// The phases of a full-bandwidth step every driver shares, over the
    /// worms `stepping` (they only differ in which list that is) and the
    /// waiters the event driver's `contest` entered from its wait queue —
    /// in whole runs, but the pending heads it selected one at a time
    /// under the hop each chose ([`WaitQueue::scan_hot`]); none under the
    /// legacy stepper: classify, arbitrate, advance the winners (a
    /// parked pending winner selects its hop first). Leaves
    /// the `stepping` losers in `split.blocked` for the caller to stall
    /// or park, and the entered winners in `won` for it to unpark
    /// — those of a run also in `split.run_won`, by index; an entered
    /// loser is on neither list, and a run loser is never read. Returns
    /// whether anything progressed.
    pub(crate) fn step_winners(
        &mut self,
        t: u64,
        stepping: &[u32],
        contest: Option<&WaitQueue>,
    ) -> bool {
        self.split.start(t);
        self.won.clear();
        self.buckets.clear();
        // Phase 1: classify worms into drains, contenders, free movers
        // (pending adaptive worms select their wanted hop here). A run of
        // waiters contends for the edge it waits for as a whole: nothing
        // of its worms is read.
        if let Some(queue) = contest {
            for (e, len) in queue.entered_runs() {
                self.buckets.push_run(e, len);
            }
        }
        for &m in stepping {
            self.classify(m);
        }
        if let Some(queue) = contest {
            for &(e, m) in queue.entered_heads() {
                self.buckets.push_parked(e as usize, m);
            }
        }
        probe::lap(Phase::Classify);
        // Phase 2: per-edge arbitration using start-of-step holder
        // counts, contenders in rank order.
        self.arbitrate(contest);
        probe::lap(Phase::Arbitrate);
        // Phase 3: apply. A parked pending winner selects first, on
        // start-of-step occupancy: one that won within a run takes the
        // run's edge, the one it watches that grants a VC.
        let adaptive = self.adaptive.is_some();
        for i in (0..self.split.movers.len()).take_while(|_| adaptive) {
            let m = self.split.movers[i] & !kernel::PARKED;
            if m != self.split.movers[i] && self.worms[m as usize].pending_route {
                self.select(m);
            }
        }
        for i in 0..self.split.movers.len() {
            let m = self.split.movers[i] & !kernel::PARKED;
            if m != self.split.movers[i] {
                self.won.push(m);
            }
            self.apply_advance(m, t);
        }
        probe::lap(Phase::Apply);
        !self.split.movers.is_empty()
    }

    /// Splits this step's contenders — the runs `contest` entered among
    /// them — into winners and losers, in two passes: how many VCs each
    /// contended edge grants ([`VcLedger::grants`]), then who gets them
    /// ([`Split::groups`]), ranked as [`Core::rank`] ranks. The policy is
    /// matched here, once a step, so each arm ranks under a constant one
    /// and [`kernel::rank`] folds to what that policy reads: one rank
    /// that matched it at every comparison made this phase ≈ 35 % slower
    /// on a saturated adaptive torus.
    #[inline]
    fn arbitrate(&mut self, contest: Option<&WaitQueue>) {
        let Self {
            config,
            ledger,
            rules,
            buckets,
            grants,
            split,
            ids,
            handles_are_ids,
            specs,
            ..
        } = self;
        ledger.grants(rules, buckets, grants);
        let (by_handle, ids, specs) = (*handles_are_ids, &ids[..], &specs[..]);
        let id = move |m: u32| if by_handle { m } else { ids[m as usize] };
        let spec = move |m: u32| &*specs[m as usize];
        match config.arbitration {
            // `Random` shuffles from `FifoById`'s order.
            Arbitration::FifoById | Arbitration::Random => {
                let rank = move |m| kernel::rank(Arbitration::FifoById, id(m), || spec(m));
                split.groups(buckets, grants, contest, rank)
            }
            Arbitration::OldestFirst => {
                let rank = move |m| kernel::rank(Arbitration::OldestFirst, id(m), || spec(m));
                split.groups(buckets, grants, contest, rank)
            }
            Arbitration::PriorityRank => {
                let rank = move |m| kernel::rank(Arbitration::PriorityRank, id(m), || spec(m));
                split.groups(buckets, grants, contest, rank)
            }
        }
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
        self.vacate(m);
    }

    /// Gives back what worm `m`, which has left the network, owns: the
    /// spec a live source made for it (its path) and its adaptive route
    /// row. Nothing reads a finished or discarded worm's route, so only
    /// its outcome and kinematics stay; a spec lent from the caller's
    /// slice is not the run's to free and stays too.
    fn vacate(&mut self, m: u32) {
        let mi = m as usize;
        if let Cow::Owned(_) = self.specs[mi] {
            self.specs[mi] = vacant_spec();
        }
        if let Some(ad) = &mut self.adaptive {
            ad.routes[mi] = Vec::new();
        }
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

    /// Brings draining worm `m` `k` advances further ([`Worm::drain`]'s
    /// closed form, clamped to its finish) — advances the event driver's
    /// wheel ran ahead of it, having fired their releases — and counts
    /// their flit hops; delivers the worm if they reach its finish, the
    /// last of them at step `t`.
    pub(crate) fn catch_up(&mut self, m: u32, k: u64, t: u64) {
        self.flit_hops += self.worms[m as usize].drain(k);
        if self.worms[m as usize].done() {
            self.finish(m, t + 1);
        }
    }

    /// Discards `m` during step `t` — a fault kill severed it — releasing
    /// every VC it holds.
    pub(crate) fn discard(&mut self, m: u32, t: u64) {
        for j in self.worms[m as usize].held_vcs() {
            let e = self.path_edge(m, j);
            self.release_vc(e);
        }
        self.outcomes[m as usize].discarded = true;
        self.fault_discards += 1;
        self.unfinished -= 1;
        self.done.push((t, m, false));
        self.vacate(m);
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
            let mut cands = Vec::new();
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
                    // A row must not vouch for itself: ask the router
                    // again what it was filled from.
                    if let Some(row) = ad.row(mi) {
                        let (at, dst) = (ad.header(mi).0, ad.dst[mi]);
                        cands.clear();
                        ad.router
                            .candidates(at, dst, self.misroutes_ok(m), &mut cands);
                        assert!(
                            lane(&cands, true).eq(row.profitable.iter().copied())
                                && lane(&cands, false).eq(row.misroutes.iter().copied())
                                && row.escape == ad.router.escape_hop(at, dst),
                            "watch row of message {} is not the router's answer at {at:?}",
                            self.ids[mi]
                        );
                    }
                } else {
                    let g = ad.router.graph();
                    let last = *ad.routes[mi].last().expect("fixed route is nonempty");
                    assert_eq!(g.dst(last), ad.dst[mi], "frozen route misses dst");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VcPolicy;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use wormhole_topology::fault::{FaultPlan, FaultedMesh};
    use wormhole_topology::mesh::{Mesh, RoutingDiscipline};

    /// `select_hop` as it read before the watch rows: asks the router.
    fn oracle_select_hop(
        router: &dyn AdaptiveRouter,
        rules: &VcRules,
        ledger: &VcLedger,
        (head, prev): (NodeId, Option<NodeId>),
        dst: NodeId,
        misroutes_ok: bool,
    ) -> SelectedHop {
        let g = router.graph();
        let mut cand = Vec::new();
        router.candidates(head, dst, misroutes_ok, &mut cand);
        let best = |want_profitable: bool, skip: Option<NodeId>| {
            cand.iter()
                .filter(|&&(e, p)| p == want_profitable && ledger.free_vcs(rules, e.idx()) > 0)
                .filter(|&&(e, _)| skip != Some(g.dst(e)))
                .map(|&(e, _)| (ledger.holders[e.idx()], e.0))
                .min()
        };
        if let Some((_, edge)) = best(true, None) {
            SelectedHop::Adaptive {
                edge,
                misroute: false,
            }
        } else if let Some((_, edge)) = misroutes_ok.then(|| best(false, prev)).flatten() {
            SelectedHop::Adaptive {
                edge,
                misroute: true,
            }
        } else {
            SelectedHop::Escape {
                edge: router.escape_hop(head, dst).0,
            }
        }
    }

    /// `pending_wait_keys` as it read before the watch rows.
    fn oracle_wait_keys(
        router: &dyn AdaptiveRouter,
        rules: &VcRules,
        ledger: &VcLedger,
        head: NodeId,
        dst: NodeId,
        misroutes_ok: bool,
        keys: &mut Vec<usize>,
    ) -> Option<EdgeId> {
        let full = |e: EdgeId| ledger.free_vcs(rules, e.idx()) == 0;
        let mut cand = Vec::new();
        router.candidates(head, dst, misroutes_ok, &mut cand);
        if !cand.iter().all(|&(e, _)| full(e)) {
            return None;
        }
        let escape = router.escape_hop(head, dst);
        if !full(escape) {
            return None;
        }
        keys.clear();
        let watched = cand.iter().map(|&(e, _)| e).chain([escape]);
        keys.extend(watched.map(|e| rules.wait_key(e.idx())));
        keys.sort_unstable();
        keys.dedup();
        Some(escape)
    }

    /// The edge a static run entry on edge `e` records, from the router:
    /// `e` where the head would take a hop were `e` the one open edge it
    /// watches — a profitable candidate, a misroute that is no u-turn, the
    /// escape hop — and `NO_EDGE` where it would not.
    fn oracle_lane(
        router: &dyn AdaptiveRouter,
        (head, prev): (NodeId, Option<NodeId>),
        dst: NodeId,
        misroutes_ok: bool,
        e: usize,
    ) -> u32 {
        let mut cand = Vec::new();
        router.candidates(head, dst, misroutes_ok, &mut cand);
        let u_turn = prev == Some(router.graph().dst(EdgeId(e as u32)));
        let takes = cand
            .iter()
            .any(|&(c, profitable)| c.idx() == e && (profitable || misroutes_ok && !u_turn));
        if takes || router.escape_hop(head, dst).idx() == e {
            e as u32
        } else {
            kernel::NO_EDGE
        }
    }

    /// A pending worm of `length` whose head stands at the end of `route`
    /// from `src` (at `src` itself when the route is empty), bound for
    /// `dst`, with `budget` misroutes left.
    fn standing<'a>(
        src: NodeId,
        route: Vec<EdgeId>,
        dst: NodeId,
        budget: u32,
        length: u32,
    ) -> Resident<'a> {
        Resident {
            id: 0,
            spec: vacant_spec(),
            worm: Worm {
                advance: route.len() as u32,
                hops: route.len() as u32,
                length,
                pending_route: true,
            },
            out: MessageOutcome::default(),
            route,
            src,
            dst,
            budget,
            selected: SelectedHop::None,
        }
    }

    fn torus(radix: u32, dims: u32) -> Mesh {
        Mesh::new_disciplined(radix, dims, RoutingDiscipline::AdaptiveEscape)
    }

    /// Random `(at, dst, prev, misroutes_ok)` under random static and
    /// pooled occupancy on `router`: what a core selects and parks on
    /// from the row it fills equals what the router-querying bodies
    /// answer — at the first ask, and again from the kept row. Returns how
    /// many cases parked, misrouted and selected the escape hop.
    fn rows_agree_with_the_router(
        router: &dyn AdaptiveRouter,
        faulted: bool,
        rng: &mut StdRng,
    ) -> [u32; 3] {
        let g = router.graph();
        let fanout = g.max_out_degree() as u32;
        let (mut parked, mut misrouted, mut escaped) = (0, 0, 0);
        for case in 0..300 {
            let b = rng.random_range(1..4u32);
            let policy = if rng.random_bool(0.5) {
                VcPolicy::Static(b)
            } else {
                VcPolicy::pooled(fanout + rng.random_range(0..fanout * b), 1, b + 1)
            };
            let selection = if rng.random_bool(0.5) {
                RouteSelection::FullyAdaptive
            } else {
                RouteSelection::MinimalAdaptive
            };
            let config = SimConfig::new(b)
                .vc_policy(policy)
                .route_selection(selection);
            let rules = VcRules::new(g, &config, faulted);
            let ad = AdaptiveState::new(router);
            let mut core = Core::new(g, Some(ad), &config, rules, true);
            // Occupancy: acquire at random until a good share is full.
            for _ in 0..rng.random_range(0..3 * g.num_edges()) {
                let e = rng.random_range(0..g.num_edges());
                if core.ledger.free_vcs(&core.rules, e) > 0 {
                    core.ledger.acquire(&core.rules, e);
                }
            }
            let at = NodeId(rng.random_range(0..g.num_nodes() as u32));
            let dst = loop {
                let d = NodeId(rng.random_range(0..g.num_nodes() as u32));
                if d != at {
                    break d;
                }
            };
            // Arrived over a random in-edge, or still at the source.
            let into: Vec<EdgeId> = g.edges().filter(|&e| g.dst(e) == at).collect();
            let (src, route) = if !into.is_empty() && rng.random_bool(0.7) {
                let e = into[rng.random_range(0..into.len())];
                (g.src(e), vec![e])
            } else {
                (at, Vec::new())
            };
            let prev = route.first().map(|&e| g.src(e));
            let budget = rng.random_range(0..3u32);
            let misroutes_ok = selection == RouteSelection::FullyAdaptive && budget > 0;
            let h = rng.random_range(0..5u32);
            core.put(h, standing(src, route, dst, budget, 4));
            let mut keys = Vec::new();
            for ask in ["first", "kept"] {
                let want = oracle_select_hop(
                    router,
                    &core.rules,
                    &core.ledger,
                    (at, prev),
                    dst,
                    misroutes_ok,
                );
                assert_eq!(core.select(h), want, "case {case}, {ask} ask");
                let mut want_keys = Vec::new();
                let want = oracle_wait_keys(
                    router,
                    &core.rules,
                    &core.ledger,
                    at,
                    dst,
                    misroutes_ok,
                    &mut want_keys,
                );
                let parks = core.wait_keys(h, &mut keys);
                assert_eq!(parks, want.is_some(), "case {case}, {ask} ask");
                if let Some(escape) = want {
                    let got: Vec<usize> = keys.iter().map(|k| k.0).collect();
                    assert_eq!(got, want_keys, "case {case}, {ask} ask");
                    for &(key, edge) in &keys {
                        let lane = oracle_lane(router, (at, prev), dst, misroutes_ok, key);
                        let want = if core.rules.pooled {
                            kernel::NO_EDGE
                        } else {
                            lane
                        };
                        assert_eq!(edge, want, "case {case}, {ask} ask, key {key}");
                    }
                    assert!(core.pinned_to_escape(h));
                    let pinned = SelectedHop::Escape { edge: escape.0 };
                    assert_eq!(core.adaptive.as_ref().unwrap().selected[h as usize], pinned);
                    parked += 1;
                }
            }
            match core.select(h) {
                SelectedHop::Adaptive { misroute: true, .. } => misrouted += 1,
                SelectedHop::Escape { .. } => escaped += 1,
                _ => {}
            }
            assert_eq!(row_of(&core, h), Some(asked_afresh(&core, h)));
        }
        [parked, misrouted, escaped]
    }

    #[test]
    fn selection_and_wait_keys_from_the_row_equal_the_router_querying_bodies() {
        let mut rng = StdRng::seed_from_u64(0x20A7);
        let mut seen = [0; 3];
        let mut add = |counts: [u32; 3]| (0..3).for_each(|i| seen[i] += counts[i]);
        for (radix, dims) in [(6u32, 1u32), (4, 2), (5, 2), (3, 3)] {
            add(rows_agree_with_the_router(
                &torus(radix, dims),
                false,
                &mut rng,
            ));
        }
        let mesh = torus(5, 2);
        let plan = FaultPlan::bernoulli_channels(&mesh, 0.08, 50, 7);
        let faulted = FaultedMesh::new(&mesh, &plan).expect("the plan fits the mesh");
        add(rows_agree_with_the_router(&faulted, true, &mut rng));
        let [parked, misrouted, escaped] = seen;
        assert!(
            parked > 100 && misrouted > 40 && escaped > 100,
            "{parked} parks, {misrouted} misroutes, {escaped} escape selections"
        );
    }

    /// A core over `router` holding one worm, handle 0, admitted at `src`
    /// for `dst`.
    fn core_with_worm<'a>(
        router: &'a dyn AdaptiveRouter,
        config: &'a SimConfig,
        src: NodeId,
        dst: NodeId,
    ) -> Core<'a> {
        let rules = VcRules::new(router.graph(), config, false);
        let mut core = Core::new(
            router.graph(),
            Some(AdaptiveState::new(router)),
            config,
            rules,
            true,
        );
        let budget = config.route_selection.misroute_budget();
        core.put(0, standing(src, Vec::new(), dst, budget, 3));
        core.unfinished = 1;
        core.active = vec![0];
        core
    }

    /// The router's own answer at pending worm `h`'s head, in row order.
    fn asked_afresh(core: &Core, h: u32) -> (Vec<EdgeId>, Vec<EdgeId>, EdgeId) {
        let ad = core.adaptive.as_ref().unwrap();
        let (at, dst) = (ad.header(h as usize).0, ad.dst[h as usize]);
        let mut cands = Vec::new();
        ad.router
            .candidates(at, dst, core.misroutes_ok(h), &mut cands);
        (
            lane(&cands, true).collect(),
            lane(&cands, false).collect(),
            ad.router.escape_hop(at, dst),
        )
    }

    fn row_of(core: &Core, h: u32) -> Option<(Vec<EdgeId>, Vec<EdgeId>, EdgeId)> {
        let row = core.adaptive.as_ref().unwrap().row(h as usize)?;
        Some((row.profitable.to_vec(), row.misroutes.to_vec(), row.escape))
    }

    #[test]
    fn the_row_is_refilled_after_an_adaptive_hop() {
        let t = torus(5, 2);
        let config = SimConfig::new(1).route_selection(RouteSelection::MinimalAdaptive);
        let mut core = core_with_worm(&t, &config, t.node(&[0, 0]), t.node(&[2, 2]));
        assert_eq!(row_of(&core, 0), None, "no row before the first selection");
        let first = core.select(0);
        assert!(matches!(first, SelectedHop::Adaptive { .. }));
        let at_source = row_of(&core, 0).expect("selection fills the row");
        assert_eq!(at_source, asked_afresh(&core, 0));
        core.apply_advance(0, 0);
        assert_eq!(
            row_of(&core, 0),
            None,
            "the head moved: the row is outdated"
        );
        core.select(0);
        let after = row_of(&core, 0).expect("refilled");
        assert_eq!(after, asked_afresh(&core, 0));
        assert_ne!(after, at_source);
        core.validate();
    }

    #[test]
    fn the_row_is_refilled_after_a_misroute_spends_the_last_budget_unit() {
        let t = torus(5, 2);
        let config = SimConfig::new(1).route_selection(RouteSelection::FullyAdaptive);
        let (src, dst) = (t.node(&[0, 0]), t.node(&[2, 0]));
        let mut core = core_with_worm(&t, &config, src, dst);
        core.adaptive.as_mut().unwrap().budget[0] = 1;
        // Fill every profitable candidate: the worm must misroute.
        let mut cands = Vec::new();
        t.candidates(src, dst, true, &mut cands);
        for &(e, profitable) in &cands {
            if profitable {
                core.ledger.acquire(&core.rules, e.idx());
            }
        }
        let sel = core.select(0);
        assert!(matches!(sel, SelectedHop::Adaptive { misroute: true, .. }));
        let (_, misroutes, _) = row_of(&core, 0).expect("filled");
        assert!(!misroutes.is_empty(), "budget left: misroutes are watched");
        core.apply_advance(0, 0);
        assert_eq!(core.adaptive.as_ref().unwrap().budget[0], 0);
        core.select(0);
        let (profitable, misroutes, escape) = row_of(&core, 0).expect("refilled");
        assert_eq!(
            (profitable, misroutes.clone(), escape),
            asked_afresh(&core, 0)
        );
        assert!(misroutes.is_empty(), "no budget left: none are offered");
    }

    #[test]
    #[should_panic(expected = "is not the router's answer")]
    fn validate_asks_the_router_again_and_catches_a_row_that_is_not_its_answer() {
        let t = torus(5, 2);
        let config = SimConfig::new(1).route_selection(RouteSelection::MinimalAdaptive);
        let mut core = core_with_worm(&t, &config, t.node(&[0, 0]), t.node(&[2, 2]));
        core.select(0);
        core.validate();
        // Another head position's answer under this one's key.
        let ad = core.adaptive.as_mut().unwrap();
        ad.row_heads[0].escape = t.escape_hop(t.node(&[1, 1]), t.node(&[2, 2]));
        core.validate();
    }
}
