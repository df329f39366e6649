//! The §1.1 full-bandwidth model, stated once.
//!
//! Every rule of the wormhole model lives here as plain structs and
//! functions over borrowed state; [`crate::wormhole`]'s `Core` holds the
//! worms and calls in here for every rule, and the drivers — the legacy
//! stepper and the event driver, the latter under both the sequential
//! and the parallel engine — only decide *which* worms to step and
//! *when*:
//!
//! * the **VC ledger** — an immutable rule half ([`VcRules`], built once
//!   per run from the VC policy) and a mutable count half ([`VcLedger`],
//!   one per `Core`): acquirability, acquire/release
//!   accounting, wait keying, capacity checks, the end-of-step
//!   occupancy maxima, and per-edge arbitration including the pooled
//!   ascending-edge-id shared-credit grants (sorted only at a router
//!   short of credit);
//! * the **wait queue** ([`WaitQueue`]) — where the event driver parks
//!   blocked worms, on one key or a whole candidate set;
//! * **worm kinematics** ([`Worm`]) — the rigid-worm advance count, what
//!   one advance acquires and releases (every edge a flit occupies holds
//!   a VC, the final one included), and the closed-form drain;
//! * **routing and ordering** — adaptive hop selection and route
//!   extension, the mover-vs-contender classification, and the canonical
//!   contender order with its stateless arbitration RNG.
//!
//! See the [`crate::wormhole`] module docs for why these rules keep the
//! engines bit-identical.

use rand::prelude::*;
use rand::rngs::StdRng;

use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::graph::{EdgeId, Graph, NodeId};

use crate::config::{Arbitration, SimConfig, VcPolicy};

/// The rigid worm: its whole configuration is the advance count (see the
/// [`crate::wormhole`] module docs).
#[derive(Clone, Copy)]
pub(crate) struct Worm {
    /// Edges crossed by the (virtual) header pipeline.
    pub(crate) advance: u32,
    /// Known path length. Fixed for oblivious worms; for adaptive worms
    /// it grows with each route extension (and equals `advance` while
    /// `pending_route`), freezing when the header reaches the
    /// destination or the escape tail is appended.
    pub(crate) hops: u32,
    pub(crate) length: u32,
    /// `true` while the route may still grow (adaptive worm whose header
    /// has not committed to a complete path). Always `false` under
    /// [`crate::config::RouteSelection::Oblivious`].
    pub(crate) pending_route: bool,
}

/// What one [`Worm::advance`] or [`Worm::drain`] did. Edges are 1-based
/// path indices the caller resolves against the worm's route (acquire
/// first, then release).
pub(crate) struct Moved {
    /// Flit steps taken: 1 for an advance, `k` clamped to the worm's
    /// finish for a drain.
    pub(crate) steps: u64,
    /// Flits × edges crossed.
    pub(crate) flit_hops: u64,
    /// The newly crossed edge, whose VC the worm now holds (drains
    /// acquire nothing).
    pub(crate) acquire: Option<u32>,
    /// Edges whose VCs were released, in release order: those the tail
    /// left and, on finishing, the final edge.
    pub(crate) released: std::ops::Range<u32>,
    /// The last flit was delivered, by the last of the `steps`.
    pub(crate) finished: bool,
}

impl Worm {
    #[inline]
    pub(crate) fn done(&self) -> bool {
        // A pending worm is never done: `advance == hops` merely means
        // its header sits at the end of the known path awaiting the next
        // hop (for L = 1 that coincides with `hops + length − 1`).
        !self.pending_route && self.advance == self.hops + self.length - 1
    }

    /// Whether the header has arrived and the worm only streams its
    /// remaining flits into the delivery buffer. A pending worm at
    /// `advance == hops` is awaiting its next hop, not draining.
    #[inline]
    pub(crate) fn draining(&self) -> bool {
        !self.pending_route && self.advance >= self.hops
    }

    /// 1-based range of path edges on which this worm currently holds a VC.
    #[inline]
    pub(crate) fn held_range(&self) -> (u32, u32) {
        if self.advance == 0 {
            return (1, 0); // empty
        }
        let lo = (self.advance + 1).saturating_sub(self.length).max(1);
        let hi = self.advance.min(self.hops);
        (lo, hi)
    }

    /// [`Self::held_range`] as an iterable range: every edge the worm's
    /// flits occupy holds a VC, the final edge included (a physical,
    /// Dally-style sink: its flits leave for the delivery buffer at once,
    /// but the VC stays held while the worm streams).
    #[inline]
    pub(crate) fn held_vcs(&self) -> std::ops::Range<u32> {
        let (lo, hi) = self.held_range();
        lo..hi + 1
    }

    /// Number of flits that cross an edge when the worm advances once.
    #[inline]
    fn crossing_width(&self) -> u32 {
        let next = self.advance + 1;
        let lo = (next + 1).saturating_sub(self.length).max(1);
        let hi = next.min(self.hops);
        hi - lo + 1
    }

    /// The 1-based path edges whose VCs advancing from `a0` to the
    /// current advance count released. The tail left edges
    /// `(a0+1−L ..= advance−L) ∩ [1, hops−1]`, and finishing releases
    /// the final edge's VC (index `hops`, the next one up).
    #[inline]
    fn released_since(&self, a0: u32, finished: bool) -> std::ops::Range<u32> {
        let lo = (a0 + 1).saturating_sub(self.length).max(1);
        let hi = self.advance.saturating_sub(self.length) + u32::from(finished);
        lo..hi + 1
    }

    /// Advances the worm by one flit step (a pending worm's route was
    /// extended first, so `hops` already covers the hop it takes).
    #[inline]
    pub(crate) fn advance(&mut self) -> Moved {
        let flit_hops = self.crossing_width() as u64;
        self.advance += 1;
        let a = self.advance;
        let finished = self.done();
        Moved {
            steps: 1,
            flit_hops,
            acquire: (a <= self.hops).then_some(a),
            released: self.released_since(a - 1, finished),
            finished,
        }
    }

    /// Batch-advances a draining worm by `k` steps (clamped to its
    /// finish) in O(1) plus the released edges: drains acquire nothing
    /// and finish deterministically at `advance = hops + L − 1`, so the
    /// per-step effects collapse to a closed-form `flit_hops` sum and
    /// the tail's release sequence. Callers use it only where no third
    /// party can observe the intermediate states (nothing parked;
    /// co-advancing worms are drains too, and drains only ever decrement
    /// holder counts, which commutes); the legacy stepper never does —
    /// it advances drains one [`Self::advance`] at a time, which is what
    /// differentially checks this closed form.
    pub(crate) fn drain(&mut self, k: u64) -> Moved {
        debug_assert!(self.draining());
        let (hops, length, a0) = (self.hops, self.length, self.advance);
        let fin_a = hops + length - 1;
        let steps = ((fin_a - a0) as u64).min(k);
        let a1 = a0 + steps as u32;
        // flit_hops: Σ width(a) for a ∈ (a0, a1]; width(a) = hops while
        // a ≤ L (the tail is still injecting) and hops + L − a after.
        let mut flit_hops = 0;
        {
            let (d, l) = (hops as u64, length as u64);
            let (a0, a1) = (a0 as u64, a1 as u64);
            let flat_hi = a1.min(l);
            if flat_hi > a0 {
                flit_hops += d * (flat_hi - a0);
            }
            let s = a0.max(l) + 1;
            if a1 >= s {
                let (w_hi, w_lo) = (d + l - s, d + l - a1);
                flit_hops += (w_hi + w_lo) * (a1 - s + 1) / 2;
            }
        }
        self.advance = a1;
        let finished = steps > 0 && a1 == fin_a;
        Moved {
            steps,
            flit_hops,
            acquire: None,
            released: self.released_since(a0, finished),
            finished,
        }
    }
}

/// The immutable half of the VC ledger: what capacity every edge and
/// router has. Built once per run — the one place
/// [`SimConfig::vc_policy`] is decomposed — and read by every count half
/// ([`VcLedger`]; a parallel region keeps a copy beside its own). Only a
/// fault kill ever changes it (`dead`), at a start-of-step boundary
/// every core reaches at the same step.
#[derive(Clone)]
pub(crate) struct VcRules {
    /// Edge → source-router index (`graph.edge_sources()` copy): the
    /// `O(1)` hop from an acquisition/release to the router whose pool
    /// it debits.
    pub(crate) edge_src: Vec<u32>,
    /// Pooled only: each router's shared-portion capacity,
    /// `pool − per_edge_min · fanout`. Empty under the static policy.
    shared_cap: Vec<u32>,
    /// `true` iff [`VcPolicy::RouterPooled`].
    pub(crate) pooled: bool,
    /// Guaranteed VCs per edge (`B` under the static policy).
    per_edge_min: u32,
    /// Hard per-edge cap (`B` under the static policy).
    per_edge_max: u32,
    /// Pool size per router (0 under the static policy — unused).
    pool: u32,
    /// Per-edge dead flags from applied fault kills. Empty when the run
    /// has no fault plan, so the hot-path guard is a single `is_empty`.
    pub(crate) dead: Vec<bool>,
}

impl VcRules {
    /// Decomposes `config.vc_policy` — one [`SimConfig::check`] passed
    /// against `graph`, so every router's floors fit its pool.
    /// `faulted` allocates the dead flags.
    pub(crate) fn new(graph: &Graph, config: &SimConfig, faulted: bool) -> Self {
        let (pooled, per_edge_min, per_edge_max, pool) = match config.vc_policy {
            VcPolicy::Static(b) => (false, b, b, 0),
            VcPolicy::RouterPooled {
                pool,
                per_edge_min,
                per_edge_max,
            } => (true, per_edge_min, per_edge_max, pool),
        };
        let shared_cap = if pooled {
            let shared = |v| pool - per_edge_min * graph.out_degree(v) as u32;
            graph.nodes().map(shared).collect()
        } else {
            Vec::new()
        };
        Self {
            edge_src: graph.edge_sources().to_vec(),
            shared_cap,
            pooled,
            per_edge_min,
            per_edge_max,
            pool,
            dead: vec![false; if faulted { graph.num_edges() } else { 0 }],
        }
    }

    /// Whether edge `e` has been killed by an applied fault.
    #[inline]
    pub(crate) fn is_dead(&self, e: usize) -> bool {
        !self.dead.is_empty() && self.dead[e]
    }

    /// The key a worm blocked on edge `e` waits under, and a release on
    /// `e` turns hot: the edge itself under the static policy (only a
    /// release there can unblock it), the source router under pooling (a
    /// release on *any* sibling edge can return shared credit — the
    /// pool-release rule).
    #[inline]
    pub(crate) fn wait_key(&self, e: usize) -> usize {
        if self.pooled {
            self.edge_src[e] as usize
        } else {
            e
        }
    }

    /// How many distinct [`Self::wait_key`]s there are.
    pub(crate) fn num_wait_keys(&self) -> usize {
        if self.pooled {
            self.shared_cap.len()
        } else {
            self.edge_src.len()
        }
    }
}

/// The mutable half of the VC ledger: who holds what, indexed by global
/// edge / router id. `Sim`'s core owns one for the whole network; each
/// parallel region's owns one for the edges and routers it owns (foreign
/// entries stay zero, so ascending local edge order is ascending global
/// order).
pub(crate) struct VcLedger {
    /// VCs currently held per edge.
    pub(crate) holders: Vec<u16>,
    /// VCs currently held across the outgoing edges of each router
    /// (Σ `holders` per source node) — maintained under both policies so
    /// `max_pool_in_use` is policy- and engine-identical.
    pub(crate) pool_used: Vec<u32>,
    /// [`VcPolicy::RouterPooled`] only: VCs drawn from each router's
    /// *shared* portion, Σ over out-edges of `max(0, holders − floor)`.
    /// Empty under the static policy.
    pub(crate) shared_used: Vec<u32>,
    /// Pooled arbitration scratch: shared credits already granted to
    /// earlier (lower-id) edges of the same router within this step.
    planned_shared: Vec<u32>,
    /// Routers with nonzero `planned_shared` this step (reset list).
    touched_routers: Vec<u32>,
    /// Pooled arbitration scratch: bucket-group indices in ascending
    /// edge-id order (the canonical shared-credit grant order).
    group_order: Vec<u32>,
    /// Edges acquired this step; drained by [`Self::settle_max`].
    acquired: Vec<u32>,
    /// Running maximum of `holders` at end of step.
    pub(crate) max_vcs: u16,
    /// Running maximum of `pool_used` at end of step.
    pub(crate) max_pool: u32,
}

impl VcLedger {
    pub(crate) fn new(graph: &Graph, rules: &VcRules) -> Self {
        let per_router = if rules.pooled { graph.num_nodes() } else { 0 };
        Self {
            holders: vec![0; graph.num_edges()],
            pool_used: vec![0; graph.num_nodes()],
            shared_used: vec![0; per_router],
            planned_shared: vec![0; per_router],
            touched_routers: Vec::new(),
            group_order: Vec::new(),
            acquired: Vec::new(),
            max_vcs: 0,
            max_pool: 0,
        }
    }

    /// How many additional VCs edge `e` can grant right now — the
    /// policy query every capacity decision routes through. Static:
    /// `B − holders`. Pooled: below the floor is free; past it, each VC
    /// draws one credit from the source router's shared portion; the
    /// per-edge cap always binds. A killed edge never grants another VC.
    ///
    /// Whether this is nonzero is **monotone** under either policy:
    /// acquisitions by other worms only reduce it, and it recovers only
    /// when a release lands on `e`'s [`VcRules::wait_key`] — the
    /// property wait keying relies on.
    #[inline]
    pub(crate) fn free_vcs(&self, rules: &VcRules, e: usize) -> u32 {
        self.free_after(rules, e, 0)
    }

    /// [`Self::free_vcs`] with `planned` of the router's shared credits
    /// already promised elsewhere this step.
    #[inline]
    fn free_after(&self, rules: &VcRules, e: usize, planned: u32) -> u32 {
        if rules.is_dead(e) {
            return 0;
        }
        let h = self.holders[e] as u32;
        let cap_free = rules.per_edge_max.saturating_sub(h);
        if !rules.pooled {
            return cap_free;
        }
        let r = rules.edge_src[e] as usize;
        let floor_free = rules.per_edge_min.saturating_sub(h);
        let shared_free = (rules.shared_cap[r] - self.shared_used[r]).saturating_sub(planned);
        cap_free.min(floor_free + shared_free)
    }

    /// Acquires one VC on `e`, updating the per-router pool accounting
    /// and queueing `e` for the end-of-step [`Self::settle_max`].
    #[inline]
    pub(crate) fn acquire(&mut self, rules: &VcRules, e: usize) {
        let h = self.holders[e];
        self.holders[e] = h + 1;
        let r = rules.edge_src[e] as usize;
        self.pool_used[r] += 1;
        if rules.pooled && h as u32 >= rules.per_edge_min {
            self.shared_used[r] += 1;
        }
        self.acquired.push(e as u32);
        if cfg!(debug_assertions) {
            self.check_capacity(rules, e);
        }
    }

    /// Releases one VC on `e`, returning per-router pool accounting.
    /// Visible to other worms from the next step (arbitration reads
    /// start-of-step state); the caller records it, to turn the edge's
    /// wait key hot.
    #[inline]
    pub(crate) fn release(&mut self, rules: &VcRules, e: usize) {
        let h = self.holders[e];
        self.holders[e] = h - 1;
        let r = rules.edge_src[e] as usize;
        self.pool_used[r] -= 1;
        if rules.pooled && h as u32 > rules.per_edge_min {
            self.shared_used[r] -= 1;
        }
    }

    /// Hard capacity-invariant check for edge `e`: the per-edge cap, and
    /// under pooling the source router's shared-portion and total-pool
    /// bounds. One checked helper instead of per-call-site assertions
    /// (debug builds run it at every acquisition).
    pub(crate) fn check_capacity(&self, rules: &VcRules, e: usize) {
        let h = self.holders[e] as u32;
        assert!(
            h <= rules.per_edge_max,
            "edge {e} holds {h} > {} VCs",
            rules.per_edge_max
        );
        if rules.pooled {
            let r = rules.edge_src[e] as usize;
            assert!(
                self.shared_used[r] <= rules.shared_cap[r],
                "router {r} draws {} > {} shared VCs",
                self.shared_used[r],
                rules.shared_cap[r]
            );
            assert!(
                self.pool_used[r] <= rules.pool,
                "router {r} holds {} > pool {} VCs",
                self.pool_used[r],
                rules.pool
            );
        }
    }

    /// Recomputes the per-router pool counters from the holder counts
    /// and runs [`Self::check_capacity`] on every edge.
    pub(crate) fn validate(&self, rules: &VcRules) {
        let mut pool_expect = vec![0u32; self.pool_used.len()];
        let mut shared_expect = vec![0u32; self.shared_used.len()];
        for (e, &h) in self.holders.iter().enumerate() {
            let r = rules.edge_src[e] as usize;
            pool_expect[r] += h as u32;
            if rules.pooled {
                shared_expect[r] += (h as u32).saturating_sub(rules.per_edge_min);
            }
        }
        assert_eq!(
            pool_expect, self.pool_used,
            "router pool accounting mismatch"
        );
        assert_eq!(
            shared_expect, self.shared_used,
            "shared-portion accounting mismatch"
        );
        for e in 0..self.holders.len() {
            self.check_capacity(rules, e);
        }
    }

    /// Folds this step's acquisitions into the occupancy maxima.
    ///
    /// Holder counts are sampled at **end of step**: within a step, the
    /// apply order of same-step acquires and releases on one edge is an
    /// implementation detail (and differs between engines), whereas the
    /// end-of-step count — and therefore the reported maximum — is
    /// order-free and engine-identical.
    pub(crate) fn settle_max(&mut self, rules: &VcRules) {
        for &e in &self.acquired {
            self.max_vcs = self.max_vcs.max(self.holders[e as usize]);
            let r = rules.edge_src[e as usize] as usize;
            self.max_pool = self.max_pool.max(self.pool_used[r]);
        }
        self.acquired.clear();
    }

    /// Phase-2 arbitration: groups this step's contenders
    /// ([`FlatBuckets::group`]) and splits each edge's group into
    /// winners (`movers`) and losers (`blocked`) from start-of-step
    /// holder counts; `order(edge, group)` puts an oversubscribed group
    /// into the canonical [`order_contenders`] order (the first `free`
    /// entries win). A contender entered from the wait queue
    /// ([`FlatBuckets::push_parked`]) that loses is left out of
    /// `blocked`: it stays where it waits, untouched.
    ///
    /// Under [`VcPolicy::RouterPooled`] sibling edges of one router can
    /// compete for the same shared credits within a single step, so the
    /// per-edge `free` counts are **allocated in ascending edge-id
    /// order** (tracked in `planned_shared`): a canonical rule that
    /// depends only on start-of-step state and the contender *sets* —
    /// both engine-independent — never on the order the caller
    /// discovered the groups in. The order only matters at a router
    /// **short of credit**. A first pass, in discovery order, sums per
    /// router what its groups need from the shared portion if each is
    /// granted all it wants — `want = min(len, cap_free)`, 0 on a dead
    /// edge, `need = want − floor_free`. Where that sum fits the
    /// router's free shared credit, the ascending sweep grants every
    /// group exactly `want` (by induction: the credit planned before
    /// group `i` is at most `free − need_i`, so what is left covers
    /// `want_i`), and so does any other order; only the groups of
    /// routers whose sum does not fit are sorted by edge id and swept.
    /// The static policy needs no cross-edge accounting and keeps the
    /// plain per-edge split.
    pub(crate) fn arbitrate(
        &mut self,
        rules: &VcRules,
        buckets: &mut FlatBuckets,
        movers: &mut Vec<u32>,
        blocked: &mut Vec<u32>,
        mut order: impl FnMut(usize, &mut [u32]),
    ) {
        let groups = buckets.group();
        let mut split = |e: usize, group: &mut [u32], free: usize| {
            split_group(e, group, free, movers, blocked, &mut order)
        };
        if !rules.pooled {
            for gi in 0..groups {
                let e = buckets.edge(gi);
                split(e, buckets.group_mut(gi), self.free_vcs(rules, e) as usize);
            }
            return;
        }
        // What group `gi` takes if credit is no object, and how much of
        // it comes out of the router's shared portion.
        let want = |ledger: &Self, buckets: &FlatBuckets, gi: usize| {
            let e = buckets.edge(gi);
            if rules.is_dead(e) {
                return (0, 0);
            }
            let h = ledger.holders[e] as u32;
            let want = buckets
                .group_len(gi)
                .min(rules.per_edge_max.saturating_sub(h));
            (
                want,
                want.saturating_sub(rules.per_edge_min.saturating_sub(h)),
            )
        };
        for gi in 0..groups {
            let (_, need) = want(self, buckets, gi);
            if need > 0 {
                self.plan_shared(rules.edge_src[buckets.edge(gi)] as usize, need);
            }
        }
        self.group_order.clear();
        for gi in 0..groups {
            let e = buckets.edge(gi);
            let r = rules.edge_src[e] as usize;
            if self.planned_shared[r] > rules.shared_cap[r] - self.shared_used[r] {
                self.group_order.push(gi as u32);
            } else {
                let (want, _) = want(self, buckets, gi);
                split(e, buckets.group_mut(gi), want as usize);
            }
        }
        self.reset_planned();
        if self.group_order.is_empty() {
            return;
        }
        // The routers short of credit: their groups in ascending edge-id
        // order, each granted what the earlier ones left.
        self.group_order
            .sort_unstable_by_key(|&gi| buckets.edge(gi as usize));
        for i in 0..self.group_order.len() {
            let gi = self.group_order[i] as usize;
            let e = buckets.edge(gi);
            let r = rules.edge_src[e] as usize;
            let floor_free = rules.per_edge_min.saturating_sub(self.holders[e] as u32);
            let free = self.free_after(rules, e, self.planned_shared[r]) as usize;
            let granted = split(e, buckets.group_mut(gi), free);
            let shared_taken = granted.saturating_sub(floor_free);
            if shared_taken > 0 {
                self.plan_shared(r, shared_taken);
            }
        }
        self.reset_planned();
    }

    /// Promises `credits` of router `r`'s shared portion within this
    /// step's arbitration.
    #[inline]
    fn plan_shared(&mut self, r: usize, credits: u32) {
        if self.planned_shared[r] == 0 {
            self.touched_routers.push(r as u32);
        }
        self.planned_shared[r] += credits;
    }

    fn reset_planned(&mut self) {
        for &r in &self.touched_routers {
            self.planned_shared[r as usize] = 0;
        }
        self.touched_routers.clear();
    }
}

/// Splits one edge's contenders: the first `free` of `group` win — all
/// of it when it fits, else after `order` put it into canonical order —
/// and the rest lose; returns how many won. Losers entered from the wait
/// queue ([`PARKED`]) are not reported.
#[inline]
fn split_group(
    e: usize,
    group: &mut [u32],
    free: usize,
    movers: &mut Vec<u32>,
    blocked: &mut Vec<u32>,
    order: &mut impl FnMut(usize, &mut [u32]),
) -> u32 {
    if group.len() <= free {
        movers.extend_from_slice(group);
        return group.len() as u32;
    }
    if free > 0 {
        order(e, group);
        movers.extend_from_slice(&group[..free]);
    }
    blocked.extend(group[free..].iter().filter(|&&c| c & PARKED == 0));
    free as u32
}

/// No node — the chain and free-list terminator of a [`WaitQueue`].
const NONE: u32 = u32::MAX;

/// The wanted edge a [`WaitQueue`] node of a pending adaptive head
/// records: none — it selects one from its [`WatchRow`] each step it
/// contends.
pub(crate) const NO_EDGE: u32 = u32::MAX;

/// Tags a contender slot of [`FlatBuckets`] as entered from the wait
/// queue ([`FlatBuckets::push_parked`]) rather than classified from the
/// runnable set. Handles index per-worm tables, so they stay far below
/// it.
pub(crate) const PARKED: u32 = 1 << 31;

/// One entry on a wait key's chain.
#[derive(Clone, Copy)]
struct WaitNode {
    handle: u32,
    /// The low half of the handle's stamp when it parked; the node is
    /// live while the handle's current stamp still matches it. (Half a
    /// stamp keeps the node at 16 bytes; an alias needs the same handle
    /// to park again exactly 2³¹ steps later while a chain it left by
    /// another way — a win, a kill, another key's wake — has not been
    /// walked since.)
    ticket: u32,
    /// Next node on the same key's chain (or on the free list).
    next: u32,
    /// The edge a frozen-route waiter wants — what it contends for, where
    /// it waits, when its key turns hot — or [`NO_EDGE`].
    edge: u32,
}

/// The park queue the event driver keeps its blocked worms on. A worm
/// that lost arbitration and whose whole *watch set* — the one edge a
/// frozen route wants next, or every candidate plus the escape hop of a
/// pending adaptive head ([`pending_wait_keys`]) — is still
/// non-acquirable at end of step parks on the [`VcRules::wait_key`] of
/// each of those edges. Acquirability is monotone between releases on a
/// key ([`VcLedger::free_vcs`]), so until one lands the legacy stepper
/// would have lost the same arbitration every step: the skipped stalls
/// settle arithmetically from the park step this queue records.
///
/// A release does not wake anybody. It marks its key **hot**
/// ([`Self::mark_hot`], one flag per key), and the next executed step
/// walks every hot chain once, in place ([`Self::scan_hot`]): a
/// frozen-route waiter is shown with the edge its node records, so the
/// driver can enter it into that step's arbitration without reading the
/// worm; a pending adaptive head is shown with [`NO_EDGE`], once per hot
/// key it waits on, and the driver enters it under the hop it selects
/// from its [`WatchRow`]. Either leaves the queue only when it wins
/// ([`Self::unpark`]).
///
/// Handles are the caller's (message ids in `Sim`'s core, recycled slots
/// in a parallel region's). Per key the queue holds a newest-first chain of
/// `(handle, ticket, edge)` nodes in an arena. The ticket is the handle's
/// stamp, which changes on every park and unpark, so the node a winner
/// leaves behind — and those a multi-key park left on its other keys —
/// go stale the moment the handle unparks. Stale nodes are unlinked and
/// reclaimed when their chain is next walked.
pub(crate) struct WaitQueue {
    /// First node of each wait key's chain.
    heads: Vec<u32>,
    nodes: Vec<WaitNode>,
    /// Free-node list, threaded through [`WaitNode::next`].
    free: u32,
    /// Per handle: `2t + 1` while parked since step `t` (its stall for
    /// that step is already counted), `2t + 2` once unparked again.
    stamps: Vec<u64>,
    n_parked: usize,
    /// Keys that saw a release since their chain was last walked.
    hot: Vec<u32>,
    /// Per key: whether it is on `hot`, so a step's many releases on one
    /// key walk its chain once.
    is_hot: Vec<bool>,
}

impl WaitQueue {
    pub(crate) fn new(num_keys: usize) -> Self {
        Self {
            heads: vec![NONE; num_keys],
            nodes: Vec::new(),
            free: NONE,
            stamps: Vec::new(),
            n_parked: 0,
            hot: Vec::new(),
            is_hot: vec![false; num_keys],
        }
    }

    /// How many handles are parked.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.n_parked
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.n_parked == 0
    }

    #[inline]
    pub(crate) fn is_parked(&self, handle: u32) -> bool {
        self.stamps
            .get(handle as usize)
            .is_some_and(|&stamp| stamp & 1 == 1)
    }

    /// The parked handles, ascending.
    pub(crate) fn parked(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.stamps.len() as u32).filter(|&h| self.is_parked(h))
    }

    /// Parks `handle`, blocked at step `t`, on every key of `keys`,
    /// recording `edge` — the one edge a frozen route wants, [`NO_EDGE`]
    /// for a pending head. A handle parks at most once per step — `t` is
    /// past its previous park step — which is what keeps stamps unique.
    pub(crate) fn park(&mut self, handle: u32, keys: &[usize], edge: u32, t: u64) {
        let (h, stamp) = (handle as usize, 2 * t + 1);
        if self.stamps.len() <= h {
            self.stamps.resize(h + 1, 0);
        }
        debug_assert!(!keys.is_empty() && self.stamps[h] & 1 == 0 && self.stamps[h] < stamp);
        debug_assert!(edge == NO_EDGE || keys.len() == 1);
        self.stamps[h] = stamp;
        self.n_parked += 1;
        for &key in keys {
            let node = WaitNode {
                handle,
                ticket: stamp as u32,
                next: self.heads[key],
                edge,
            };
            self.heads[key] = if self.free == NONE {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            } else {
                let slot = self.free;
                self.free = std::mem::replace(&mut self.nodes[slot as usize], node).next;
                slot
            };
        }
    }

    /// Unparks `handle` — it won the edge it waited for, or a fault kill
    /// discarded it or changed what it may select — and returns the step
    /// it parked at. Its nodes go stale.
    pub(crate) fn unpark(&mut self, handle: u32) -> u64 {
        debug_assert!(self.is_parked(handle));
        let stamp = &mut self.stamps[handle as usize];
        let parked_at = *stamp / 2;
        *stamp += 1;
        self.n_parked -= 1;
        parked_at
    }

    /// A VC was released under `key`: its waiters contend at the next
    /// executed step. Cheap to repeat, and a no-op on a key nobody waits
    /// on.
    #[inline]
    pub(crate) fn mark_hot(&mut self, key: usize) {
        if self.heads[key] != NONE && !self.is_hot[key] {
            self.is_hot[key] = true;
            self.hot.push(key as u32);
        }
    }

    /// Whether `key` is marked hot.
    pub(crate) fn is_hot(&self, key: usize) -> bool {
        self.is_hot[key]
    }

    /// Whether a parked handle may be waiting on a hot key: the next step
    /// must run its contest even if nothing else can move.
    #[inline]
    pub(crate) fn contest_due(&self) -> bool {
        self.n_parked > 0 && !self.hot.is_empty()
    }

    /// Walks every hot key's chain once ([`Self::scan`]) and cools it;
    /// returns how many keys that was.
    pub(crate) fn scan_hot(&mut self, mut show: impl FnMut(u32, u32)) -> usize {
        let mut hot = std::mem::take(&mut self.hot);
        for &key in &hot {
            self.is_hot[key as usize] = false;
            self.scan(key as usize, &mut show);
        }
        let walked = hot.len();
        hot.clear();
        self.hot = hot;
        walked
    }

    /// Walks `key`'s chain in place, newest park first, showing each
    /// handle still parked on it as `show(handle, edge)` with the edge
    /// its node records — once per node, so a handle parked on several
    /// hot keys is shown under each. Nobody is unparked; the stale nodes
    /// on the way are unlinked and reclaimed.
    fn scan(&mut self, key: usize, mut show: impl FnMut(u32, u32)) {
        let mut last_kept = NONE;
        let mut n = self.heads[key];
        while n != NONE {
            let WaitNode {
                handle,
                ticket,
                next,
                edge,
            } = self.nodes[n as usize];
            if self.stamps[handle as usize] as u32 == ticket {
                show(handle, edge);
                last_kept = n;
            } else {
                match last_kept {
                    NONE => self.heads[key] = next,
                    kept => self.nodes[kept as usize].next = next,
                }
                self.nodes[n as usize].next = self.free;
                self.free = n;
            }
            n = next;
        }
    }

    /// Empties the queue because the run is ending (deadlock or step
    /// cap) or the driver's state is being folded into another's,
    /// passing each parked handle, in ascending order, with the stalls
    /// the legacy stepper counted for it after its park step through
    /// step `through`. No key stays hot.
    pub(crate) fn settle_all(&mut self, through: u64, mut settled: impl FnMut(u32, u64)) {
        for h in 0..self.stamps.len() as u32 {
            if self.is_parked(h) {
                settled(h, through - self.unpark(h));
            }
        }
        self.heads.fill(NONE);
        self.nodes.clear();
        self.free = NONE;
        for key in self.hot.drain(..) {
            self.is_hot[key as usize] = false;
        }
    }

    /// Every live `(handle, key, edge)` node, sorted — what the invariant
    /// checks compare against the watch sets recomputed from scratch.
    pub(crate) fn parked_keys(&self) -> Vec<(u32, usize, u32)> {
        let mut live = Vec::new();
        for (key, &head) in self.heads.iter().enumerate() {
            let mut n = head;
            while n != NONE {
                let node = &self.nodes[n as usize];
                if self.stamps[node.handle as usize] as u32 == node.ticket {
                    live.push((node.handle, key, node.edge));
                }
                n = node.next;
            }
        }
        live.sort_unstable();
        live
    }

    /// Checks that a key's hot flag is set iff the key is on the hot
    /// list, once.
    pub(crate) fn validate(&self) {
        let mut listed = vec![false; self.is_hot.len()];
        for &key in &self.hot {
            assert!(
                !std::mem::replace(&mut listed[key as usize], true),
                "wait key {key} is on the hot list twice"
            );
        }
        assert_eq!(
            listed, self.is_hot,
            "hot flags out of sync with the hot list"
        );
    }
}

/// Seeds the stateless per-arbitration RNG for `(seed, t, e)`.
///
/// [`Arbitration::Random`] draws from a counter-based stream keyed by the
/// configured seed, the flit step, and the edge id — never from a
/// sequential global stream. Runs stay deterministic per seed, but the
/// draw no longer depends on how many arbitration events preceded it,
/// which is what lets the event-driven engine skip blocked steps and
/// still reproduce the legacy stepper bit for bit.
pub(crate) fn arb_rng(seed: u64, t: u64, e: usize) -> StdRng {
    let mut x = seed
        ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (e as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    StdRng::seed_from_u64(x)
}

/// Orders `contenders` so the first `free` entries win edge `e` at step
/// `t`. Every policy is canonical in the contender *set* (the engines
/// discover contenders in different orders, and the event driver enters
/// some from the wait queue — the [`PARKED`] tag is not part of the
/// handle). Contenders are opaque
/// handles — message ids in `Sim`'s core, recycled slots in a parallel
/// region's — that `key` maps to the message's `(release, priority, id)`.
/// Every sort key ends with (or is) the unique message id, so sorted
/// handles correspond position for position to sorted ids, including
/// under `Random`, whose Fisher–Yates shuffle permutes positions and is
/// keyed by the global `(seed, step, edge)` tuple, never by the caller.
pub(crate) fn order_contenders(
    config: &SimConfig,
    t: u64,
    e: usize,
    contenders: &mut [u32],
    key: impl Fn(u32) -> (u64, u32, u32),
) {
    let key = |c: u32| key(c & !PARKED);
    match config.arbitration {
        Arbitration::FifoById => contenders.sort_unstable_by_key(|&c| key(c).2),
        Arbitration::OldestFirst => contenders.sort_unstable_by_key(|&c| (key(c).0, key(c).2)),
        Arbitration::PriorityRank => contenders.sort_unstable_by_key(|&c| (key(c).1, key(c).2)),
        Arbitration::Random => {
            contenders.sort_unstable_by_key(|&c| key(c).2);
            contenders.shuffle(&mut arb_rng(config.seed, t, e));
        }
    }
}

/// Flat per-step contender buckets: a CSR-style `(edge, msg)` arena that
/// replaces the old one-`Vec`-per-edge scratch (which paid a heap
/// allocation per contended edge and an `O(num_edges)` clear — doubled
/// again on dateline-class graphs, where every physical channel is two
/// parallel edges).
///
/// Usage per step: [`clear`](Self::clear), [`push`](Self::push) each
/// contender, [`group`](Self::group) once, then iterate groups by index.
/// Steady-state it never allocates.
pub(crate) struct FlatBuckets {
    /// `(edge, msg)` pairs in discovery order.
    pairs: Vec<(u32, u32)>,
    /// Distinct edges touched this step, in first-touch order.
    touched: Vec<u32>,
    /// Per-edge contender count, then scatter cursor (dense, reset via
    /// `touched`).
    count: Vec<u32>,
    /// Contenders grouped contiguously per touched edge.
    slots: Vec<u32>,
    /// Group boundaries into `slots`, aligned with `touched` (+1 tail).
    starts: Vec<u32>,
}

impl FlatBuckets {
    pub(crate) fn with_edges(num_edges: usize) -> Self {
        Self {
            pairs: Vec::new(),
            touched: Vec::new(),
            count: vec![0; num_edges],
            slots: Vec::new(),
            starts: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn clear(&mut self) {
        for &e in &self.touched {
            self.count[e as usize] = 0;
        }
        self.pairs.clear();
        self.touched.clear();
    }

    /// Records `m` contending for edge `e`. Only valid before `group`.
    #[inline]
    pub(crate) fn push(&mut self, e: usize, m: u32) {
        if self.count[e] == 0 {
            self.touched.push(e as u32);
        }
        self.count[e] += 1;
        self.pairs.push((e as u32, m));
    }

    /// Records parked worm `m`, whose wait key turned hot, contending for
    /// edge `e` from where it waits: its slot carries the [`PARKED`] tag
    /// through arbitration.
    #[inline]
    pub(crate) fn push_parked(&mut self, e: usize, m: u32) {
        debug_assert_eq!(m & PARKED, 0, "handle {m} collides with the tag bit");
        self.push(e, m | PARKED);
    }

    /// Groups the pushed pairs into contiguous per-edge slices (first-touch
    /// edge order; discovery order within an edge) and returns the group
    /// count. Leaves `count` holding end offsets; `clear` resets it.
    pub(crate) fn group(&mut self) -> usize {
        self.starts.clear();
        self.slots.clear();
        self.slots.resize(self.pairs.len(), 0);
        let mut off = 0u32;
        self.starts.push(0);
        for &e in &self.touched {
            let c = self.count[e as usize];
            self.count[e as usize] = off; // becomes the scatter cursor
            off += c;
            self.starts.push(off);
        }
        for &(e, m) in &self.pairs {
            let cur = &mut self.count[e as usize];
            self.slots[*cur as usize] = m;
            *cur += 1;
        }
        self.touched.len()
    }

    /// The edge of group `i` (valid after `group`).
    #[inline]
    pub(crate) fn edge(&self, i: usize) -> usize {
        self.touched[i] as usize
    }

    /// How many contenders group `i` has (valid after `group`).
    #[inline]
    pub(crate) fn group_len(&self, i: usize) -> u32 {
        self.starts[i + 1] - self.starts[i]
    }

    /// The contenders of group `i` (valid after `group`).
    #[inline]
    pub(crate) fn group_mut(&mut self, i: usize) -> &mut [u32] {
        let (s, e) = (self.starts[i] as usize, self.starts[i + 1] as usize);
        &mut self.slots[s..e]
    }
}

/// Sorts worm `m` into this step's `movers` — draining worms, which
/// advance unconditionally — or into the contender `buckets` of the edge
/// its header wants: `selected`, the hop a pending worm just chose, or
/// `next_edge(j)`, the `j`-th edge of a frozen route.
#[inline]
pub(crate) fn classify(
    worm: &Worm,
    m: u32,
    selected: Option<u32>,
    next_edge: impl FnOnce(u32) -> usize,
    buckets: &mut FlatBuckets,
    movers: &mut Vec<u32>,
) {
    match selected {
        Some(edge) => buckets.push(edge as usize, m),
        None if worm.draining() => movers.push(m),
        None => buckets.push(next_edge(worm.advance + 1), m),
    }
}

/// The wanted-hop decision of a pending adaptive worm, refreshed every
/// step it contends — classified from the runnable set, or entered from
/// the wait queue — because occupancies change, so yesterday's choice is
/// stale. Read back by the apply phase (route extension) and by the
/// deadlock report / blocked tracing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SelectedHop {
    /// Not yet classified this run (fresh worm before its first step).
    None,
    /// Extend by one adaptive-lane hop. `misroute` spends one unit of
    /// the worm's [`SimConfig::misroute_quota`] when crossed.
    Adaptive { edge: u32, misroute: bool },
    /// Fall back to the escape network: contend for `edge` (the first
    /// escape hop from the current node) and, on winning, append the
    /// whole escape route and freeze the path.
    Escape { edge: u32 },
}

impl SelectedHop {
    /// The wanted edge id, if a selection was made.
    #[inline]
    pub(crate) fn edge(self) -> Option<u32> {
        match self {
            SelectedHop::None => None,
            SelectedHop::Adaptive { edge, .. } | SelectedHop::Escape { edge } => Some(edge),
        }
    }
}

/// Per-run adaptive routing counters.
#[derive(Clone, Copy, Default)]
pub(crate) struct RouteStats {
    /// Worms that fell back onto the escape network.
    pub(crate) escape_fallbacks: u64,
    /// Non-minimal hops crossed.
    pub(crate) misroute_hops: u64,
}

/// Where a pending worm's header stands: its node, and the node it came
/// from (`None` before the first hop, when it sits at `src`).
#[inline]
pub(crate) fn header_at(g: &Graph, src: NodeId, route: &[EdgeId]) -> (NodeId, Option<NodeId>) {
    route
        .last()
        .map_or((src, None), |&e| (g.dst(e), Some(g.src(e))))
}

/// A pending head's *watch set* at the node it stands on: every
/// adaptive-lane candidate [`AdaptiveRouter::candidates`] offers there —
/// the profitable ones and the rest, each in the router's order — the
/// first escape hop, and the node the head came from (`None` before the
/// first hop; a misroute never turns straight back to it). The router is
/// pure for the whole run and
/// `misroutes_ok` only changes when the worm moves, so the resident core
/// asks once per head position and keeps the answer in a row per handle;
/// selection and parking read the row.
#[derive(Clone, Copy)]
pub(crate) struct WatchRow<'r> {
    pub(crate) profitable: &'r [EdgeId],
    pub(crate) misroutes: &'r [EdgeId],
    pub(crate) escape: EdgeId,
    pub(crate) prev: Option<NodeId>,
}

impl<'r> WatchRow<'r> {
    /// Every watched edge: the candidates, then the escape hop.
    pub(crate) fn edges(self) -> impl Iterator<Item = EdgeId> + 'r {
        let cands = self.profitable.iter().chain(self.misroutes);
        cands.copied().chain([self.escape])
    }
}

/// Selects the wanted hop of a pending worm from its watch `row` and
/// start-of-step state. Pure in the sense that every engine evaluating it at
/// the same step with the same holder counts makes the same choice:
///
/// 1. profitable adaptive candidate with a free VC, minimizing
///    `(holder count, edge id)`;
/// 2. else (`misroutes_ok`: fully adaptive, budget left) the same rule
///    over the misroute candidates, u-turns excluded;
/// 3. else the first hop of the escape route from the current node.
///
/// The candidate filter is the same acquirability query the arbitration
/// phase runs ([`VcLedger::free_vcs`] — one implementation for
/// arbitration, parking, and candidate filtering), and the tie-break
/// key is engine-independent, which is what keeps adaptive runs inside
/// the differential-oracle relation.
#[inline]
pub(crate) fn select_hop(
    g: &Graph,
    rules: &VcRules,
    ledger: &VcLedger,
    row: WatchRow,
    misroutes_ok: bool,
) -> SelectedHop {
    let best = |cands: &[EdgeId], skip: Option<NodeId>| {
        cands
            .iter()
            .filter(|&&e| ledger.free_vcs(rules, e.idx()) > 0)
            .filter(|&&e| skip != Some(g.dst(e)))
            .map(|&e| (ledger.holders[e.idx()], e.0))
            .min()
    };
    if let Some((_, edge)) = best(row.profitable, None) {
        SelectedHop::Adaptive {
            edge,
            misroute: false,
        }
    } else if let Some((_, edge)) = misroutes_ok
        .then(|| best(row.misroutes, row.prev))
        .flatten()
    {
        SelectedHop::Adaptive {
            edge,
            misroute: true,
        }
    } else {
        SelectedHop::Escape { edge: row.escape.0 }
    }
}

/// Whether a pending worm, blocked this step, can park: its whole watch
/// `row` is non-acquirable now that the step's releases have landed. If
/// so, fills `keys` with the row's distinct [`VcRules::wait_key`]s: until
/// a release lands on one of them [`select_hop`] keeps answering `Escape`
/// with the row's escape hop and the hop keeps granting nothing, so the
/// caller pins the selection to it. `false` — stay runnable — when a
/// watched edge is acquirable (a u-turn [`select_hop`] would skip
/// included, conservatively).
pub(crate) fn pending_wait_keys(
    rules: &VcRules,
    ledger: &VcLedger,
    row: WatchRow,
    keys: &mut Vec<usize>,
) -> bool {
    if row.edges().any(|e| ledger.free_vcs(rules, e.idx()) > 0) {
        return false;
    }
    keys.clear();
    keys.extend(row.edges().map(|e| rules.wait_key(e.idx())));
    keys.sort_unstable();
    keys.dedup();
    true
}

/// Commits a pending worm's `selected` hop just before it advances: one
/// adaptive edge (spending misroute `budget` where flagged), or the
/// whole escape tail — after which the route is frozen and the worm is
/// an ordinary oblivious worm for the rest of its journey.
pub(crate) fn extend_route(
    worm: &mut Worm,
    route: &mut Vec<EdgeId>,
    budget: &mut u32,
    selected: SelectedHop,
    router: &dyn AdaptiveRouter,
    dst: NodeId,
    stats: &mut RouteStats,
) {
    debug_assert_eq!(route.len() as u32, worm.advance);
    match selected {
        SelectedHop::Adaptive { edge, misroute } => {
            route.push(EdgeId(edge));
            if misroute {
                stats.misroute_hops += 1;
                *budget -= 1;
            }
            worm.hops += 1;
            if router.graph().dst(EdgeId(edge)) == dst {
                worm.pending_route = false;
            }
        }
        SelectedHop::Escape { edge } => {
            let head = router.graph().src(EdgeId(edge));
            let tail = router.escape_route(head, dst);
            debug_assert_eq!(tail.edges()[0], EdgeId(edge));
            route.extend_from_slice(tail.edges());
            stats.escape_fallbacks += 1;
            worm.hops += tail.len() as u32;
            worm.pending_route = false;
        }
        SelectedHop::None => unreachable!("pending worm advanced without a selection"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_topology::graph::GraphBuilder;

    /// One advance written out the long way (acquire the crossed edge,
    /// release the edge the tail left, release the final edge on
    /// completion) — the oracle [`Worm::advance`] and [`Worm::drain`] are
    /// checked against. Returns `(width, acquire, released, finished)`.
    fn reference_advance(w: &mut Worm) -> (u32, Option<u32>, Vec<u32>, bool) {
        let width =
            (w.advance + 1).min(w.hops) - (w.advance + 2).saturating_sub(w.length).max(1) + 1;
        w.advance += 1;
        let a = w.advance;
        let acquire = (a <= w.hops).then_some(a);
        let mut released = Vec::new();
        if a > w.length {
            released.push(a - w.length);
        }
        let finished = !w.pending_route && a == w.hops + w.length - 1;
        if finished {
            released.push(w.hops);
        }
        (width, acquire, released, finished)
    }

    #[test]
    fn advance_matches_the_written_out_step() {
        for (hops, length) in (1..=5).flat_map(|d| (1..=6).map(move |l| (d, l))) {
            let fresh = Worm {
                advance: 0,
                hops,
                length,
                pending_route: false,
            };
            let (mut w, mut r) = (fresh, fresh);
            let (mut total, mut held) = (0, Vec::new());
            while !w.done() {
                let step = w.advance();
                let (width, acquire, released, finished) = reference_advance(&mut r);
                assert_eq!((step.steps, step.flit_hops), (1, width as u64));
                assert_eq!(step.acquire, acquire);
                assert_eq!(step.released.collect::<Vec<_>>(), released);
                assert_eq!(step.finished, finished);
                assert_eq!(w.advance, r.advance);
                // In flight, it holds what it acquired and has not
                // released (nobody asks a delivered worm).
                held.extend(acquire);
                held.retain(|j| !released.contains(j));
                if !finished {
                    assert_eq!(w.held_vcs().collect::<Vec<_>>(), held);
                }
                total += width;
            }
            assert_eq!(total, hops * length, "every flit crosses every edge");
            assert!(held.is_empty(), "a finished worm holds nothing");
        }
    }

    #[test]
    fn drain_equals_k_successive_advances() {
        for (hops, length) in (1..=5).flat_map(|d| (1..=6).map(move |l| (d, l))) {
            let fin_a = hops + length - 1;
            // a0 ranges over every draining state, so `hops ≤ a0 < L ≤ a1`
            // (the tail finishes injecting mid-drain) is covered whenever
            // `hops < L`; k runs two past the finish.
            for a0 in hops..=fin_a {
                for k in 0..=(fin_a - a0 + 2) as u64 {
                    let start = Worm {
                        advance: a0,
                        hops,
                        length,
                        pending_route: false,
                    };
                    let mut stepped = start;
                    let (mut flit_hops, mut released, mut finished) = (0u64, Vec::new(), false);
                    for _ in 0..k {
                        if stepped.done() {
                            break;
                        }
                        let (width, acquire, rel, fin) = reference_advance(&mut stepped);
                        assert_eq!(acquire, None, "drains acquire nothing");
                        flit_hops += width as u64;
                        released.extend(rel);
                        finished |= fin;
                    }
                    let mut drained = start;
                    let d = drained.drain(k);
                    let case = format!("hops={hops} L={length} a0={a0} k={k}");
                    assert_eq!(d.steps, (stepped.advance - a0) as u64, "{case}");
                    assert_eq!(d.flit_hops, flit_hops, "{case}");
                    assert_eq!(d.released.collect::<Vec<_>>(), released, "{case}");
                    assert_eq!(drained.advance, stepped.advance, "{case}");
                    assert_eq!(d.finished, finished, "{case}");
                }
            }
        }
    }

    /// Walks `key`'s chain and unparks every waiter shown; collects who
    /// that was, in order, with the step it had parked at.
    fn woken(q: &mut WaitQueue, key: usize) -> Vec<(u32, u64)> {
        let mut shown = Vec::new();
        q.scan(key, |h, _| shown.push(h));
        shown.dedup();
        shown.into_iter().map(|h| (h, q.unpark(h))).collect()
    }

    #[test]
    fn wait_queue_matches_a_naive_model_under_random_ops() {
        const HANDLES: u32 = 12;
        const KEYS: usize = 6;
        let mut rng = StdRng::seed_from_u64(0x9A2C);
        let mut q = WaitQueue::new(KEYS);
        // The model: `(handle, keys, parked_at)` in park order, how many
        // nodes (live or stale) each key's chain holds, and the hot keys
        // in the order they were marked.
        let mut model: Vec<(u32, Vec<usize>, u64)> = Vec::new();
        let mut chain_len = [0usize; KEYS];
        let mut hot: Vec<usize> = Vec::new();
        // The edge a park records: one per key for a one-key park, none
        // for a watch set.
        let edge_of = |keys: &[usize]| match keys {
            [key] => 100 + *key as u32,
            _ => NO_EDGE,
        };
        // What walking `key` must show — every node of a handle still
        // parked, newest park first — and the chain it leaves: those
        // nodes, the stale ones reclaimed.
        let walk = |model: &[(u32, Vec<usize>, u64)], chain_len: &mut [usize; KEYS], key: usize| {
            let mut shown = Vec::new();
            for p in model.iter().rev() {
                let nodes = p.1.iter().filter(|&&k| k == key).count();
                shown.extend(std::iter::repeat_n((p.0, edge_of(&p.1)), nodes));
            }
            chain_len[key] = shown.len();
            shown
        };
        let (mut high_water, mut multi_key_wakes, mut settles) = (0, 0, 0);
        let (mut partial_scans, mut hot_walks) = (0, 0);
        for t in 0..8_000u64 {
            match rng.random_range(0..12u32) {
                0..=4 => {
                    let h = rng.random_range(0..HANDLES);
                    if model.iter().any(|p| p.0 == h) {
                        continue;
                    }
                    // 1–3 keys, repeats allowed: a repeated key must not
                    // unpark the handle twice.
                    let keys: Vec<usize> = (0..rng.random_range(1..4u32))
                        .map(|_| rng.random_range(0..KEYS))
                        .collect();
                    q.park(h, &keys, edge_of(&keys), t);
                    for &k in &keys {
                        chain_len[k] += 1;
                    }
                    model.push((h, keys, t));
                }
                5..=7 => {
                    // A walk, after which a random subset of the waiters
                    // it showed — the winners — leaves the queue: their
                    // nodes stay on every chain they parked on, stale,
                    // until it is next walked.
                    let key = rng.random_range(0..KEYS);
                    let drop =
                        rng.random_range(0..1u32 << HANDLES) & rng.random_range(0..1u32 << HANDLES);
                    let expect = walk(&model, &mut chain_len, key);
                    let mut shown = Vec::new();
                    q.scan(key, |h, edge| shown.push((h, edge)));
                    assert_eq!(shown, expect, "scan({key}) at op {t}");
                    let all = model.iter().filter(|p| p.1.contains(&key)).count();
                    let mut kept = all;
                    model.retain(|p| {
                        let wins = p.1.contains(&key) && drop & (1 << p.0) != 0;
                        if wins {
                            assert_eq!(q.unpark(p.0), p.2);
                            multi_key_wakes += usize::from(p.1.len() > 1);
                            kept -= 1;
                        }
                        !wins
                    });
                    partial_scans += usize::from(0 < kept && kept < all);
                }
                8 => {
                    if let Some(i) = (!model.is_empty()).then(|| rng.random_range(0..model.len())) {
                        let (h, _, at) = model.remove(i);
                        assert_eq!(q.unpark(h), at);
                    }
                }
                9 => {
                    // A release: hot only where a chain exists, and once.
                    let key = rng.random_range(0..KEYS);
                    q.mark_hot(key);
                    if chain_len[key] > 0 && !hot.contains(&key) {
                        hot.push(key);
                    }
                }
                10 => {
                    // The contest: every hot chain walked once, in the
                    // order the keys turned hot; a handle parked on
                    // several of them is shown under each.
                    let mut expect = Vec::new();
                    for &key in &hot {
                        expect.extend(walk(&model, &mut chain_len, key));
                    }
                    let mut shown = Vec::new();
                    let walked = q.scan_hot(|h, edge| shown.push((h, edge)));
                    assert_eq!(walked, hot.len());
                    assert_eq!(shown, expect, "scan_hot at op {t}");
                    hot_walks += hot.len();
                    hot.clear();
                }
                _ if rng.random_bool(0.1) => {
                    let mut expect: Vec<(u32, u64)> =
                        model.drain(..).map(|p| (p.0, t - p.2)).collect();
                    expect.sort_unstable();
                    let mut got = Vec::new();
                    q.settle_all(t, |h, skipped| got.push((h, skipped)));
                    assert_eq!(got, expect, "settle_all at op {t}");
                    chain_len = [0; KEYS];
                    hot.clear();
                    settles += 1;
                }
                _ => {}
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.is_empty(), model.is_empty());
            assert_eq!(q.contest_due(), !model.is_empty() && !hot.is_empty());
            for h in 0..HANDLES + 2 {
                assert_eq!(q.is_parked(h), model.iter().any(|p| p.0 == h));
            }
            for key in 0..KEYS {
                assert_eq!(q.is_hot(key), hot.contains(&key));
            }
            q.validate();
            let mut expect: Vec<(u32, usize, u32)> = model
                .iter()
                .flat_map(|p| p.1.iter().map(|&k| (p.0, k, edge_of(&p.1))))
                .collect();
            expect.sort_unstable();
            assert_eq!(q.parked_keys(), expect);
            // Arena slots are reused: the nodes in use are exactly the
            // chains' — the live `(handle, key)` pairs plus the stale
            // nodes of chains not walked since — and the arena never
            // outgrew their high-water mark.
            let in_chains: usize = chain_len.iter().sum();
            let mut free = 0;
            let mut n = q.free;
            while n != NONE {
                free += 1;
                n = q.nodes[n as usize].next;
            }
            assert_eq!(q.nodes.len() - free, in_chains);
            high_water = high_water.max(in_chains);
            assert!(q.nodes.len() <= high_water);
        }
        assert!(
            multi_key_wakes > 200 && settles > 5 && partial_scans > 200 && hot_walks > 200,
            "{multi_key_wakes} multi-key wakes, {settles} settles, {partial_scans} partial \
             scans, {hot_walks} hot chains walked"
        );
    }

    #[test]
    fn a_multi_key_park_wakes_once_and_its_stale_nodes_wake_no_later_park() {
        let mut q = WaitQueue::new(5);
        q.park(7, &[1, 2, 3], NO_EDGE, 5);
        assert_eq!(woken(&mut q, 2), [(7, 5)], "the first walk unparks it");
        assert!(!q.is_parked(7));
        // Re-parked elsewhere: the stale nodes on keys 1 and 3 are not
        // the new park's.
        q.park(7, &[4], 40, 9);
        assert_eq!(woken(&mut q, 1), []);
        assert_eq!(woken(&mut q, 3), []);
        assert!(q.is_parked(7));
        assert_eq!(woken(&mut q, 4), [(7, 9)]);
        // Re-parked on a key that still carries one of its stale nodes:
        // the chain holds both, and only the live one wakes it.
        q.park(7, &[0, 1], NO_EDGE, 11);
        assert_eq!(woken(&mut q, 0), [(7, 11)]);
        q.park(7, &[1], 10, 13);
        assert_eq!(woken(&mut q, 1), [(7, 13)]);
        assert!(q.is_empty());
    }

    #[test]
    fn one_key_parking_wakes_in_the_old_intrusive_list_order() {
        // The per-key intrusive list the event engine used to keep
        // (`waiter_head` / `next_waiter` through the parked set, stale
        // entries of kill-discarded worms skipped by flag): a walk shows
        // a chain's waiters in that order, newest park first.
        const HANDLES: usize = 16;
        const KEYS: usize = 4;
        let mut head = [NONE; KEYS];
        let mut next = [NONE; HANDLES];
        let mut parked = [false; HANDLES];
        let mut parked_at = [0u64; HANDLES];
        // The old list could not re-park a handle whose stale entry was
        // still linked (one `next` per handle), and never had to: only
        // discarded worms went stale.
        let mut linked = [false; HANDLES];
        let mut q = WaitQueue::new(KEYS);
        let mut rng = StdRng::seed_from_u64(0x01D);
        let mut wakes = 0;
        for t in 0..4_000u64 {
            let h = rng.random_range(0..HANDLES);
            let key = rng.random_range(0..KEYS);
            match rng.random_range(0..8u32) {
                0..=3 if !linked[h] => {
                    next[h] = std::mem::replace(&mut head[key], h as u32);
                    (parked[h], linked[h], parked_at[h]) = (true, true, t);
                    q.park(h as u32, &[key], key as u32, t);
                }
                4..=6 => {
                    let mut expect = Vec::new();
                    let mut m = std::mem::replace(&mut head[key], NONE);
                    while m != NONE {
                        let mi = m as usize;
                        linked[mi] = false;
                        if std::mem::take(&mut parked[mi]) {
                            expect.push((m, parked_at[mi]));
                        }
                        m = std::mem::replace(&mut next[mi], NONE);
                    }
                    wakes += expect.len();
                    assert_eq!(woken(&mut q, key), expect, "wake({key}) at op {t}");
                }
                7 if parked[h] => {
                    parked[h] = false;
                    assert_eq!(q.unpark(h as u32), parked_at[h]);
                }
                _ => {}
            }
        }
        assert!(wakes > 500, "{wakes} wakes");
    }

    /// Three routers, fanouts 3 / 2 / 1 (edges 0–2 leave router 0, 3–4
    /// router 1, 5 router 2).
    fn fan_graph() -> Graph {
        let mut b = GraphBuilder::new(4);
        for (src, dst) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(NodeId(src), NodeId(dst));
        }
        b.build()
    }

    fn pooled(g: &Graph, pool: u32, min: u32, max: u32) -> (VcRules, VcLedger) {
        let config = SimConfig::new(1).vc_policy(VcPolicy::pooled(pool, min, max));
        let rules = VcRules::new(g, &config, false);
        let ledger = VcLedger::new(g, &rules);
        (rules, ledger)
    }

    #[test]
    fn pooled_ledger_keeps_its_identities_under_random_traffic() {
        let g = fan_graph();
        let (pool, min, max) = (7, 1, 4);
        let (rules, mut ledger) = pooled(&g, pool, min, max);
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let (mut grants, mut refusals) = (0, 0);
        for _ in 0..5_000 {
            let e = rng.random_range(0..g.num_edges());
            let r = g.edge_sources()[e] as usize;
            // The policy, recomputed from the holder counts alone.
            let siblings = || (0..g.num_edges()).filter(|&x| g.edge_sources()[x] as usize == r);
            let h = ledger.holders[e] as u32;
            let shared_cap = pool - min * siblings().count() as u32;
            let shared_used: u32 = siblings()
                .map(|x| (ledger.holders[x] as u32).saturating_sub(min))
                .sum();
            let expect_free = (max - h).min(min.saturating_sub(h) + shared_cap - shared_used);
            assert_eq!(ledger.free_vcs(&rules, e), expect_free);
            if rng.random_bool(0.6) {
                if expect_free > 0 {
                    ledger.acquire(&rules, e);
                    grants += 1;
                } else {
                    refusals += 1;
                }
            } else if h > 0 {
                ledger.release(&rules, e);
            }
            for v in 0..g.num_nodes() {
                let out = || (0..g.num_edges()).filter(|&x| g.edge_sources()[x] as usize == v);
                let held: u32 = out().map(|x| ledger.holders[x] as u32).sum();
                let shared: u32 = out()
                    .map(|x| (ledger.holders[x] as u32).saturating_sub(min))
                    .sum();
                assert_eq!(ledger.pool_used[v], held);
                assert_eq!(ledger.shared_used[v], shared);
                assert!(held <= pool, "router {v} past its pool");
            }
            assert!(ledger.holders.iter().all(|&h| h as u32 <= max));
            ledger.validate(&rules);
        }
        assert!(
            grants > 500 && refusals > 50,
            "{grants} grants, {refusals} refusals"
        );
    }

    #[test]
    fn arbitrate_grants_shared_credits_in_ascending_edge_order() {
        let g = fan_graph();
        let config = SimConfig::new(1);
        for shared in 1..=2u32 {
            // Router 0's three edges sit at their floor; `shared` credits
            // are left for three contenders, one per edge (message id =
            // 10 + edge id).
            for push_order in [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ] {
                let (rules, mut ledger) = pooled(&g, 3 + shared, 1, 2);
                for e in 0..3 {
                    ledger.acquire(&rules, e);
                }
                let mut buckets = FlatBuckets::with_edges(g.num_edges());
                for e in push_order {
                    buckets.push(e, 10 + e as u32);
                }
                let (mut movers, mut blocked) = (Vec::new(), Vec::new());
                ledger.arbitrate(
                    &rules,
                    &mut buckets,
                    &mut movers,
                    &mut blocked,
                    |e, group| order_contenders(&config, 0, e, group, |m| (0, 0, m)),
                );
                let expect: Vec<u32> = (0..3).map(|e| 10 + e).collect();
                assert_eq!(
                    movers,
                    expect[..shared as usize],
                    "pushed as {push_order:?}"
                );
                blocked.sort_unstable();
                assert_eq!(
                    blocked,
                    expect[shared as usize..],
                    "pushed as {push_order:?}"
                );
            }
        }
    }
    /// The pooled sweep [`VcLedger::arbitrate`] runs only where credit is
    /// short, run over *every* group: all of them sorted by edge id, each
    /// granted what the lower-id edges of its router left. The reference
    /// the two-pass version is held against.
    fn arbitrate_sorting_every_group(
        ledger: &VcLedger,
        rules: &VcRules,
        buckets: &mut FlatBuckets,
        movers: &mut Vec<u32>,
        blocked: &mut Vec<u32>,
        mut order: impl FnMut(usize, &mut [u32]),
    ) {
        let mut by_edge: Vec<usize> = (0..buckets.group()).collect();
        by_edge.sort_unstable_by_key(|&gi| buckets.edge(gi));
        let mut planned = vec![0u32; ledger.shared_used.len()];
        for gi in by_edge {
            let e = buckets.edge(gi);
            let r = rules.edge_src[e] as usize;
            let floor_free = rules.per_edge_min.saturating_sub(ledger.holders[e] as u32);
            let free = ledger.free_after(rules, e, planned[r]) as usize;
            let group = buckets.group_mut(gi);
            let granted = split_group(e, group, free, movers, blocked, &mut order);
            planned[r] += granted.saturating_sub(floor_free);
        }
    }

    #[test]
    fn pooled_arbitration_matches_the_sort_every_group_sweep() {
        let mut rng = StdRng::seed_from_u64(0xA5B17);
        let config = SimConfig::new(1);
        let (mut short_routers, mut flush_routers, mut dead_groups, mut parked_losers) =
            (0, 0, 0, 0);
        for case in 0..2_000 {
            // Routers with random fanouts, every edge into one sink.
            let routers = rng.random_range(1..6usize);
            let mut b = GraphBuilder::new(routers + 1);
            let mut max_fanout = 0;
            for r in 0..routers {
                let fanout = rng.random_range(1..5u32);
                max_fanout = max_fanout.max(fanout);
                for _ in 0..fanout {
                    b.add_edge(NodeId(r as u32), NodeId(routers as u32));
                }
            }
            let g = b.build();
            let min = rng.random_range(1..3u32);
            let max = min + rng.random_range(0..4u32);
            let pool = min * max_fanout + rng.random_range(0..7u32);
            let config_pooled = SimConfig::new(1).vc_policy(VcPolicy::pooled(pool, min, max));
            let mut rules = VcRules::new(&g, &config_pooled, true);
            let mut ledger = VcLedger::new(&g, &rules);
            // Random holders, then random dead edges (a dead edge may
            // still be held).
            for _ in 0..rng.random_range(0..4 * g.num_edges()) {
                let e = rng.random_range(0..g.num_edges());
                if ledger.free_vcs(&rules, e) > 0 {
                    ledger.acquire(&rules, e);
                }
            }
            for e in 0..g.num_edges() {
                rules.dead[e] = rng.random_bool(0.1);
            }
            // Random contender sets — some entered from the wait queue —
            // discovered in random order.
            let mut pairs = Vec::new();
            let mut edge_of = Vec::new();
            for e in 0..g.num_edges() {
                for _ in 0..rng.random_range(0..6u32) {
                    let m = edge_of.len() as u32;
                    edge_of.push(e);
                    let tag = if rng.random_bool(0.4) { PARKED } else { 0 };
                    pairs.push((e, m | tag));
                }
            }
            pairs.shuffle(&mut rng);
            let run = |reference: bool, ledger: &mut VcLedger| {
                let mut buckets = FlatBuckets::with_edges(g.num_edges());
                for &(e, m) in &pairs {
                    buckets.push(e, m);
                }
                let (mut movers, mut blocked) = (Vec::new(), Vec::new());
                let order = |e: usize, group: &mut [u32]| {
                    order_contenders(&config, 7, e, group, |m| (0, 0, m))
                };
                if reference {
                    arbitrate_sorting_every_group(
                        ledger,
                        &rules,
                        &mut buckets,
                        &mut movers,
                        &mut blocked,
                        order,
                    );
                } else {
                    ledger.arbitrate(&rules, &mut buckets, &mut movers, &mut blocked, order);
                }
                let mut grants = vec![0u32; g.num_edges()];
                for &m in &movers {
                    grants[edge_of[(m & !PARKED) as usize]] += 1;
                }
                movers.sort_unstable();
                blocked.sort_unstable();
                (grants, movers, blocked)
            };
            let expect = run(true, &mut ledger);
            let got = run(false, &mut ledger);
            assert_eq!(got, expect, "case {case}: pool {pool} min {min} max {max}");
            assert!(
                ledger.planned_shared.iter().all(|&p| p == 0) && ledger.touched_routers.is_empty(),
                "case {case}: arbitration scratch left dirty"
            );
            // Which regimes the case exercised, recomputed from scratch.
            let (grants, movers, blocked) = got;
            for r in 0..routers {
                let out = (0..g.num_edges()).filter(|&e| rules.edge_src[e] as usize == r);
                let need: u32 = out
                    .map(|e| {
                        let len = pairs.iter().filter(|p| p.0 == e).count() as u32;
                        let h = ledger.holders[e] as u32;
                        let want = if rules.dead[e] { 0 } else { len.min(max - h) };
                        want.saturating_sub(min.saturating_sub(h))
                    })
                    .sum();
                if need > rules.shared_cap[r] - ledger.shared_used[r] {
                    short_routers += 1;
                } else if need > 0 {
                    flush_routers += 1;
                }
            }
            dead_groups += (0..g.num_edges())
                .filter(|&e| rules.dead[e] && pairs.iter().any(|p| p.0 == e))
                .inspect(|&e| assert_eq!(grants[e], 0, "case {case}: dead edge {e} granted"))
                .count();
            parked_losers += pairs.len() - movers.len() - blocked.len();
            assert!(blocked.iter().all(|&m| m & PARKED == 0));
        }
        assert!(
            short_routers > 300 && flush_routers > 300 && dead_groups > 300 && parked_losers > 300,
            "{short_routers} routers short of credit, {flush_routers} flush, {dead_groups} \
             dead groups, {parked_losers} parked losers"
        );
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
}
