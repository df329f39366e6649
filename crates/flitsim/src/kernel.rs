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
//!   occupancy maxima, and arbitration's first pass — how many VCs each
//!   contended edge grants ([`VcLedger::grants`]; under pooling in
//!   ascending edge-id order, sorted only at a router short of credit);
//! * the **wait queue** ([`WaitQueue`]) — where the event driver parks
//!   blocked worms: each in the run of every key it waits on, kept in
//!   arbitration order — a frozen route on its one key, a pending head on
//!   its whole watch set;
//! * **worm kinematics** ([`Worm`]) — the rigid-worm advance count, what
//!   one advance acquires and releases (every edge a flit occupies holds
//!   a VC, the final one included), and an arrived worm's drain: when
//!   it releases each edge it holds, and its flit hops in closed form;
//! * **routing and ordering** — adaptive hop selection and route
//!   extension, the mover-vs-contender classification, and arbitration's
//!   second pass — who gets an edge's grants, in the canonical contender
//!   order ([`Rank`], [`Split::group`]) with its stateless arbitration
//!   RNG.
//!
//! See the [`crate::wormhole`] module docs for why these rules keep the
//! engines bit-identical.

use rand::prelude::*;
use rand::rngs::StdRng;

use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::graph::{EdgeId, Graph, NodeId};

use crate::config::{Arbitration, SimConfig, VcPolicy};
use crate::message::MessageSpec;

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

/// What one [`Worm::advance`] did. Edges are 1-based path indices the
/// caller resolves against the worm's route (acquire first, then
/// release).
pub(crate) struct Moved {
    /// Flits × edges crossed.
    pub(crate) flit_hops: u64,
    /// The newly crossed edge, whose VC the worm now holds.
    pub(crate) acquire: Option<u32>,
    /// Edges whose VCs were released, in release order: those the tail
    /// left and, on finishing, the final edge.
    pub(crate) released: std::ops::Range<u32>,
    /// The last flit was delivered.
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
            flit_hops,
            acquire: (a <= self.hops).then_some(a),
            released: self.released_since(a - 1, finished),
            finished,
        }
    }

    /// Advances left to a draining worm's finish.
    #[inline]
    pub(crate) fn drain_left(&self) -> u32 {
        self.hops + self.length - 1 - self.advance
    }

    /// When a draining worm lets go of what it holds: each held edge with
    /// the advance, counted from the next (0), that releases it — the
    /// tail leaves edge `j` at advance `j + L`, and the finishing advance
    /// releases the last edges. [`Self::advance`] run [`Self::drain_left`]
    /// times releases exactly these, one advance's in this order; the
    /// event driver files them ahead on its wheel.
    pub(crate) fn drain_releases(&self) -> impl Iterator<Item = (u32, u32)> {
        let (fin, a0, length) = (self.hops + self.length - 1, self.advance, self.length);
        self.held_vcs()
            .map(move |j| (j, (j + length).min(fin) - a0 - 1))
    }

    /// Batch-advances a draining worm by `k` steps (clamped to its
    /// finish) in O(1) and returns the flit hops they made: drains
    /// acquire nothing and finish deterministically at `advance = hops +
    /// L − 1`, so the per-step widths collapse to a closed-form sum. The
    /// event driver brings a worm whose drain its wheel ran ahead — its
    /// releases fired there ([`Self::drain_releases`]) — up to date with
    /// it; the legacy stepper never does — it advances drains one
    /// [`Self::advance`] at a time, which is what differentially checks
    /// this closed form.
    pub(crate) fn drain(&mut self, k: u64) -> u64 {
        debug_assert!(self.draining());
        // Advance `a` moves `min(D, D + L − a)` flits: `D + L − a` less
        // the `L − a` not yet injected while `a < L`. Summed over `a` in
        // `(a0, a1]`, each part telescopes over triangular numbers.
        let tri = |n: u64| n * (n + 1) / 2;
        let (dl, l) = (u64::from(self.hops + self.length), u64::from(self.length));
        let beyond = |a: u64| tri(dl - a - 1) - tri(l.saturating_sub(a + 1));
        let a0 = u64::from(self.advance);
        self.advance += k.min(u64::from(self.drain_left())) as u32;
        beyond(a0) - beyond(u64::from(self.advance))
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

    /// Arbitration's first pass: groups this step's contenders
    /// ([`FlatBuckets::group`]) and writes, per group, how many VCs its
    /// edge grants from start-of-step holder counts — `grants[gi]` for
    /// group `gi`, its classified contenders and the run of waiters
    /// entered whole for it. The second pass, [`Split::groups`], picks
    /// who gets them. Static: the edge's free VCs.
    ///
    /// Under [`VcPolicy::RouterPooled`] sibling edges of one router can
    /// compete for the same shared credits within a single step, so a
    /// group is granted `min(len, free)`, its `free` **allocated in
    /// ascending edge-id order** (tracked in `planned_shared`): a
    /// canonical rule that depends only on start-of-step state and the
    /// contender *sets* — both engine-independent — never on the order
    /// the caller discovered the groups in. The order only matters at a
    /// router **short of credit**. A planning pass, in discovery order,
    /// sums per router what its groups need from the shared portion if
    /// each is granted all it wants — `want = min(len, cap_free)`, 0 on a
    /// dead edge, `need = want − floor_free`. Where that sum fits the
    /// router's free shared credit, the ascending sweep grants every
    /// group exactly `want` (by induction: the credit planned before
    /// group `i` is at most `free − need_i`, so what is left covers
    /// `want_i`), and so does any other order; only the groups of
    /// routers whose sum does not fit are sorted by edge id and swept.
    pub(crate) fn grants(
        &mut self,
        rules: &VcRules,
        buckets: &mut FlatBuckets,
        grants: &mut Vec<u32>,
    ) {
        let groups = buckets.group();
        grants.clear();
        if !rules.pooled {
            grants.extend((0..groups).map(|gi| self.free_vcs(rules, buckets.edge(gi))));
            return;
        }
        // What group `gi` takes if credit is no object, and how much of
        // it comes out of the router's shared portion — its run counted.
        let want = |ledger: &Self, gi: usize| {
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
            let (_, need) = want(self, gi);
            if need > 0 {
                self.plan_shared(rules.edge_src[buckets.edge(gi)] as usize, need);
            }
        }
        self.group_order.clear();
        for gi in 0..groups {
            let r = rules.edge_src[buckets.edge(gi)] as usize;
            let short = self.planned_shared[r] > rules.shared_cap[r] - self.shared_used[r];
            if short {
                self.group_order.push(gi as u32);
            }
            grants.push(if short { 0 } else { want(self, gi).0 });
        }
        self.reset_planned();
        // The routers short of credit: their groups in ascending edge-id
        // order, each granted what the earlier ones left.
        self.group_order
            .sort_unstable_by_key(|&gi| buckets.edge(gi as usize));
        for i in 0..self.group_order.len() {
            let gi = self.group_order[i] as usize;
            let e = buckets.edge(gi);
            let r = rules.edge_src[e] as usize;
            let free = self.free_after(rules, e, self.planned_shared[r]);
            grants[gi] = buckets.group_len(gi).min(free);
            let floor_free = rules.per_edge_min.saturating_sub(self.holders[e] as u32);
            let shared_taken = grants[gi].saturating_sub(floor_free);
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

/// A contender's place in the canonical order of [`Arbitration`]:
/// `(release, id)` under `OldestFirst`, `(priority, id)` under
/// `PriorityRank`, the id alone under `FifoById` and `Random` (whose
/// shuffle starts from id order). Ids are unique, so ranks are; a parallel
/// region reads the id of a recycled slot through its `ids` table.
pub(crate) type Rank = (u64, u32);

/// The [`Rank`] of message `id`, whose spec `spec` gives — read only by
/// the policies that order by more than the id.
#[inline]
pub(crate) fn rank<'s>(
    arbitration: Arbitration,
    id: u32,
    spec: impl FnOnce() -> &'s MessageSpec,
) -> Rank {
    match arbitration {
        Arbitration::FifoById | Arbitration::Random => (0, id),
        Arbitration::OldestFirst => (spec().release, id),
        Arbitration::PriorityRank => (u64::from(spec().priority), id),
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

/// One step's arbitration verdicts, filled edge by edge ([`Self::group`]),
/// and the scratch behind them.
pub(crate) struct Split {
    arbitration: Arbitration,
    seed: u64,
    /// The step being arbitrated.
    t: u64,
    /// The winners: runnable contenders as classified, contenders entered
    /// from the wait queue tagged [`PARKED`].
    pub(crate) movers: Vec<u32>,
    /// The runnable losers. A waiter that loses is reported nowhere: it
    /// stays where it waits, untouched.
    pub(crate) blocked: Vec<u32>,
    /// The run winners as `(entered run, index in it)`: they leave their
    /// runs by index ([`WaitQueue::leave_runs`]).
    pub(crate) run_won: Vec<(u32, u32)>,
    /// The winning places of a contested merge.
    perm: Vec<u32>,
}

impl Split {
    pub(crate) fn new(config: &SimConfig) -> Self {
        Self {
            arbitration: config.arbitration,
            seed: config.seed,
            t: 0,
            movers: Vec::new(),
            blocked: Vec::new(),
            run_won: Vec::new(),
            perm: Vec::new(),
        }
    }

    /// Empties the verdicts for step `t`.
    pub(crate) fn start(&mut self, t: u64) {
        self.t = t;
        self.movers.clear();
        self.blocked.clear();
        self.run_won.clear();
    }

    /// Arbitration's second pass: group `gi` of `buckets` — with its
    /// run, if `contest` entered one — gets the `grants[gi]` VCs its edge
    /// grants ([`VcLedger::grants`]), split under `rank` ([`Self::group`]).
    #[inline]
    pub(crate) fn groups(
        &mut self,
        buckets: &mut FlatBuckets,
        grants: &[u32],
        contest: Option<&WaitQueue>,
        rank: impl Fn(u32) -> Rank + Copy,
    ) {
        for (gi, &free) in grants.iter().enumerate() {
            // Only a contest enters runs.
            let run = match (buckets.run(gi), contest) {
                (Some(i), Some(queue)) => (i, queue.entered_run(i)),
                _ => (0, &[][..]),
            };
            let (e, group) = (buckets.edge(gi), buckets.group_mut(gi));
            self.group(e, group, run, free as usize, rank);
        }
    }

    /// The second pass over the contenders of edge `e`:
    /// `group`, classified this step (in any order; a pending head
    /// entered from the wait queue tagged [`PARKED`]), and `run`, the
    /// edge's frozen-route waiters entered whole — `(its index among the
    /// contest's runs, its waiters in rank order)`, empty for none; `rank`
    /// ranks a contender of `group` ([`rank`] under this step's policy).
    /// The first `free` ([`VcLedger::grants`]) of their merged canonical
    /// order win — everyone, when they fit — and the rest lose.
    ///
    /// The canonical order is the [`Rank`] order, under
    /// [`Arbitration::Random`] shuffled by the Fisher–Yates draws of
    /// [`arb_rng`]`(seed, t, e)`. `group` is sorted and merged with the
    /// run, which is in rank order already; the draws are applied to
    /// merged places, not to contenders, and the merge is walked to the
    /// winning places, so a run waiter is located by its index and a
    /// losing waiter is never read. (Always inlined: it runs once per
    /// contended edge per step, where a call of its own shows in
    /// light-load arbitration.)
    #[inline(always)]
    pub(crate) fn group(
        &mut self,
        e: usize,
        group: &mut [u32],
        (run_no, run): (u32, &[Waiter]),
        free: usize,
        rank: impl Fn(u32) -> Rank,
    ) {
        let rank = |c: u32| rank(c & !PARKED);
        let Self {
            arbitration,
            seed,
            t,
            movers,
            blocked,
            run_won,
            perm,
        } = self;
        let mut win_run = |movers: &mut Vec<u32>, i: usize| {
            movers.push(run[i].handle | PARKED);
            run_won.push((run_no, i as u32));
        };
        let n = group.len() + run.len();
        if n <= free {
            movers.extend_from_slice(group);
            (0..run.len()).for_each(|i| win_run(movers, i));
            return;
        }
        // Contenders of `group` decided so far, in rank order.
        let mut g = 0;
        if free > 0 {
            group.sort_unstable_by_key(|&c| rank(c));
            // The winning places of the merge, ascending.
            perm.clear();
            if *arbitration == Arbitration::Random {
                perm.extend(0..n as u32);
                perm.shuffle(&mut arb_rng(*seed, *t, e));
                perm.truncate(free);
                perm.sort_unstable();
            } else {
                perm.extend(0..free as u32);
            }
            // Where `group[g]` stands in the merge: behind `g` of its own
            // and every waiter of lower rank.
            let place = |g: usize| match group.get(g) {
                Some(&c) => {
                    let rank = rank(c);
                    g + run.partition_point(|w| w.rank < rank)
                }
                None => usize::MAX,
            };
            let mut next = place(0);
            for &k in perm.iter() {
                let k = k as usize;
                while next < k {
                    blocked.extend(Some(group[g]).filter(|&c| c & PARKED == 0));
                    g += 1;
                    next = place(g);
                }
                if next == k {
                    movers.push(group[g]);
                    g += 1;
                    next = place(g);
                } else {
                    win_run(movers, k - g);
                }
            }
        }
        blocked.extend(group[g..].iter().filter(|&&c| c & PARKED == 0));
    }
}

/// The wanted edge of a run entry whose hop the contest selects one at
/// a time: a pending head's on a pooled router's key, or on an edge of
/// its watch row that [`select_hop`] never takes (a u-turn). Such
/// entries sort last in their run and are never entered with it.
pub(crate) const NO_EDGE: u32 = u32::MAX;

/// Tags a contender entered from the wait queue rather than classified
/// from the runnable set — a [`FlatBuckets`] slot
/// ([`FlatBuckets::push_parked`]) and a winner in [`Split::movers`].
/// Handles index per-worm tables, so they stay far below it.
pub(crate) const PARKED: u32 = 1 << 31;

/// A waiter in the run of a key it waits on: a frozen route in its one
/// key's, a pending adaptive head in each of its keys'. Ordered by the
/// edge it wants, then by [`Rank`]: a run is contiguous per wanted edge
/// (one edge under the static policy, a router's out-edges under
/// pooling), in canonical order within it, and its [`NO_EDGE`] entries
/// come last.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Waiter {
    pub(crate) edge: u32,
    pub(crate) rank: Rank,
    pub(crate) handle: u32,
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
/// holds the contest ([`Self::scan_hot`]): every hot key once, in place.
/// Every waiter waits in the **run** of each key it waits on, kept in
/// [`Waiter`] order, and a hot key hands its runs to arbitration whole,
/// one per wanted edge ([`Self::entered_runs`]): the first pass counts a
/// run, by its length, in what its edge grants ([`VcLedger::grants`]),
/// the second reads only its winning places ([`Split::group`]), and a
/// winner leaves its run by index ([`Self::leave_runs`]). A key is
/// waited on while its run is not empty; nothing counts its waiters.
///
/// A pending head is entered with a run when exactly one of its keys is
/// hot. Under the static policy a key is one edge, and every other edge
/// the head watches stays full until its own key turns hot, so that
/// edge is the one it can select: its entry records the edge where its
/// watch row takes a hop there, and [`NO_EDGE`] where the row takes none.
/// The contest selects one at a time ([`Self::entered_heads`]) the heads
/// it cannot enter so: a head with two or more hot keys — found by a
/// stamp pass over the hot runs, and out of those runs for the step
/// ([`Self::rejoin`]) — a [`NO_EDGE`] entry, which every pending head on
/// a pooled router's key has, and a head that lost in place with an edge
/// open ([`Self::reenter`]).
///
/// A waiter leaves the queue — every key it waited on — when it wins
/// ([`Self::unpark`]) or a kill or the end of the run takes it
/// ([`Self::unpark_where`], [`Self::settle_all`]): no stale entry exists.
/// Handles are the caller's (message ids in `Sim`'s core, recycled slots
/// in a parallel region's). Run buffers are reused, last freed first, so
/// a park allocates nothing in steady state and touches memory a recent
/// park or win touched.
#[derive(Default)]
pub(crate) struct WaitQueue {
    /// How many keys there are. `keys` is sized at the first park: a
    /// parallel region that never parks keeps none.
    num_keys: usize,
    /// Per key, what a park, a release and a contest read of it, in one
    /// place.
    keys: Vec<Key>,
    /// Run buffers, each a key's while its run is not empty; waiters in
    /// [`Waiter`] order.
    runs: Vec<Vec<Waiter>>,
    /// Buffers no key holds — last freed first, so a park reuses a warm
    /// one.
    free_runs: Vec<u32>,
    /// Per handle: whether it is parked as a pending head, and its
    /// contest stamp.
    heads: Vec<Head>,
    /// How many pending heads are parked: a contest without any skips
    /// the stamp pass.
    n_heads: usize,
    /// Per handle: `1 +` the step it parked at, 0 while it is not parked.
    since: Vec<u64>,
    n_parked: usize,
    /// Keys that saw a release since their last contest.
    hot: Vec<u32>,
    /// Contests held so far: the last one's number.
    contest: u64,
    /// The last contest's runs, as `(key, start, len, wanted edge)`: a
    /// stretch of the key's run.
    entered_runs: Vec<(u32, u32, u32, u32)>,
    /// The heads the last contest selected one at a time, as `(wanted
    /// edge, handle)`.
    entered_heads: Vec<(u32, u32)>,
    /// The pending heads the last contest entered within runs.
    run_heads: usize,
    /// The last contest's heads with two or more hot keys, out of those
    /// keys' runs until [`Self::rejoin`], as `(key, entry)`.
    left: Vec<(u32, Waiter)>,
}

/// One wait key.
#[derive(Clone, Copy)]
struct Key {
    /// `1 +` the index of its run buffer in `runs`, 0 while it has none.
    run: u32,
    /// Whether it is on the hot list, so a step's many releases on it
    /// hold one contest.
    hot: bool,
}

const NO_KEY: Key = Key { run: 0, hot: false };

/// One handle's pending-head record.
#[derive(Clone, Copy, Default)]
struct Head {
    pending: bool,
    /// The contest that last counted its hot keys.
    seen: u64,
    /// How many of its keys that contest found hot, tagged [`SELECTED`]
    /// if it was selected one at a time, and [`LOOSE`] from
    /// [`WaitQueue::reenter`] to its next contest.
    mark: u32,
}

/// A [`Head::mark`] tag: the head was selected one at a time.
const SELECTED: u32 = 1 << 30;
/// A [`Head::mark`] tag: the head lost in place with an edge open, and
/// the next contest selects it one at a time.
const LOOSE: u32 = 1 << 31;

impl WaitQueue {
    /// An empty queue over `num_keys` keys.
    pub(crate) fn new(num_keys: usize) -> Self {
        Self {
            num_keys,
            ..Self::default()
        }
    }

    /// Sizes the per-handle tables for handles `0..n` — the pending
    /// heads' only when `pending` heads can park — so that no park grows
    /// them.
    pub(crate) fn reserve(&mut self, n: usize, pending: bool) {
        self.since.reserve_exact(n);
        if pending {
            self.heads.reserve_exact(n);
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
        self.since.get(handle as usize).is_some_and(|&s| s > 0)
    }

    /// The parked handles, ascending.
    pub(crate) fn parked(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.since.len() as u32).filter(|&h| self.is_parked(h))
    }

    /// `handle`'s record if it is parked as a pending head.
    fn head(&self, handle: u32) -> Option<Head> {
        self.heads
            .get(handle as usize)
            .filter(|h| h.pending)
            .copied()
    }

    /// `key`'s run; empty if it has none.
    fn run(&self, key: usize) -> &[Waiter] {
        match self.keys[key].run {
            0 => &[],
            i => &self.runs[i as usize - 1],
        }
    }

    /// Puts `waiter` in its place in `key`'s run.
    fn insert(&mut self, key: usize, waiter: Waiter) {
        let key = &mut self.keys[key];
        if key.run == 0 {
            key.run = 1 + self.free_runs.pop().unwrap_or_else(|| {
                self.runs.push(Vec::with_capacity(16));
                self.runs.len() as u32 - 1
            });
        }
        let run = &mut self.runs[key.run as usize - 1];
        // A park mostly ranks last: no search then, and no growing
        // while the run is short.
        if run.last().is_none_or(|w| *w < waiter) {
            run.push(waiter);
        } else {
            run.insert(run.partition_point(|w| *w < waiter), waiter);
        }
    }

    /// Parks `handle`, blocked at step `t`, in the run of every key of
    /// `entries` — `(key, wanted edge)` — under `rank`: a frozen route on
    /// its one key, a `pending` head on each of its keys.
    pub(crate) fn park(
        &mut self,
        handle: u32,
        entries: &[(usize, u32)],
        pending: bool,
        rank: Rank,
        t: u64,
    ) {
        let h = handle as usize;
        if self.since.len() <= h {
            self.since.resize(h + 1, 0);
        }
        debug_assert!(!entries.is_empty() && self.since[h] == 0);
        debug_assert!(pending || entries.len() == 1);
        self.since[h] = t + 1;
        self.n_parked += 1;
        if self.keys.is_empty() {
            self.keys = vec![NO_KEY; self.num_keys];
        }
        for &(key, edge) in entries {
            self.insert(key, Waiter { edge, rank, handle });
        }
        if pending {
            if self.heads.len() <= h {
                self.heads.resize(h + 1, Head::default());
            }
            self.heads[h].pending = true;
            self.n_heads += 1;
        }
    }

    /// Unparks `handle` — it won the edge it waited for, or a fault kill
    /// discarded it — and returns the step it parked at. A pending head
    /// leaves the runs of `keys`, those it parked on, where they still
    /// hold it; a frozen-route run winner left its run by index first
    /// ([`Self::leave_runs`]).
    pub(crate) fn unpark(&mut self, handle: u32, keys: impl IntoIterator<Item = usize>) -> u64 {
        debug_assert!(self.is_parked(handle));
        let parked_at = std::mem::take(&mut self.since[handle as usize]) - 1;
        self.n_parked -= 1;
        if self.head(handle).is_some() {
            for key in keys {
                let at = self.run(key).iter().position(|w| w.handle == handle);
                if let Some(i) = at {
                    self.leave_run(key, i);
                }
            }
            self.heads[handle as usize] = Head::default();
            self.n_heads -= 1;
        }
        parked_at
    }

    /// Takes the `i`-th waiter out of `key`'s run, handing the buffer
    /// back once the run is empty.
    fn leave_run(&mut self, key: usize, i: usize) {
        let k = &mut self.keys[key];
        let run = &mut self.runs[k.run as usize - 1];
        run.remove(i);
        if run.is_empty() {
            self.free_runs.push(k.run - 1);
            k.run = 0;
        }
    }

    /// Unparks, in ascending order, every parked handle that
    /// `leaves(handle, parked_at)` picks — a fault kill's severed
    /// waiters — and takes those out of the runs.
    pub(crate) fn unpark_where(&mut self, mut leaves: impl FnMut(u32, u64) -> bool) {
        let mut left = false;
        for h in 0..self.since.len() as u32 {
            if self.is_parked(h) && leaves(h, self.since[h as usize] - 1) {
                left = true;
                self.unpark(h, []);
            }
        }
        for key in (0..self.keys.len()).filter(|_| left) {
            for i in (0..self.run(key).len()).rev() {
                if !self.is_parked(self.run(key)[i].handle) {
                    self.leave_run(key, i);
                }
            }
        }
    }

    /// A VC was released under `key`: its waiters contend at the next
    /// executed step. Cheap to repeat, and a no-op on a key nobody waits
    /// on.
    #[inline]
    pub(crate) fn mark_hot(&mut self, key: usize) {
        if let Some(k) = self.keys.get_mut(key).filter(|k| k.run != 0 && !k.hot) {
            k.hot = true;
            self.hot.push(key as u32);
        }
    }

    /// Pending head `handle` lost in place while a watched edge under
    /// `key` is open: `key` turns hot, and the next contest selects the
    /// head one at a time — the open edge it finds may be another.
    pub(crate) fn reenter(&mut self, handle: u32, key: usize) {
        self.mark_hot(key);
        self.heads[handle as usize].mark |= LOOSE;
    }

    /// Whether `key` is marked hot.
    pub(crate) fn is_hot(&self, key: usize) -> bool {
        self.keys.get(key).is_some_and(|k| k.hot)
    }

    /// Whether pending head `handle` lost in place with an edge open
    /// ([`Self::reenter`]) and waits for its next contest.
    pub(crate) fn is_loose(&self, handle: u32) -> bool {
        self.head(handle).is_some_and(|h| h.mark & LOOSE != 0)
    }

    /// Whether a parked handle may be waiting on a hot key: the next step
    /// must run its contest even if nothing else can move.
    #[inline]
    pub(crate) fn contest_due(&self) -> bool {
        self.n_parked > 0 && !self.hot.is_empty()
    }

    /// The contest: takes every hot key once and cools it. A stamp pass
    /// over the hot runs counts each pending head's hot keys; a head the
    /// runs cannot hold is asked, once, by `select(handle)`, for the edge
    /// it contends for ([`Self::entered_heads`]) and leaves the runs of
    /// its hot keys for the step ([`Self::rejoin`]); then each key's runs
    /// are entered whole ([`Self::entered_runs`]). Returns how many
    /// contests that was: keys with a waiter (a kill may have emptied a
    /// hot one, which is cooled without a contest).
    pub(crate) fn scan_hot(&mut self, mut select: impl FnMut(u32) -> u32) -> usize {
        self.entered_runs.clear();
        self.entered_heads.clear();
        self.run_heads = 0;
        self.contest += 1;
        let mut hot = std::mem::take(&mut self.hot);
        hot.retain(|&key| {
            let k = &mut self.keys[key as usize];
            k.hot = false;
            k.run != 0
        });
        for &key in hot.iter().filter(|_| self.n_heads > 0) {
            for w in &self.runs[self.keys[key as usize].run as usize - 1] {
                let Some(head) = self.heads.get_mut(w.handle as usize).filter(|h| h.pending) else {
                    continue;
                };
                if head.seen != self.contest {
                    (head.seen, head.mark) = (self.contest, head.mark & LOOSE);
                }
                head.mark += 1;
                self.run_heads += 1;
                // A second hot key, a loose head or a `NO_EDGE` entry.
                if (w.edge == NO_EDGE || head.mark != 1) && head.mark & SELECTED == 0 {
                    head.mark |= SELECTED;
                    self.entered_heads.push((NO_EDGE, w.handle));
                }
            }
        }
        for (edge, h) in self.entered_heads.iter_mut() {
            *edge = select(*h);
            let head = &mut self.heads[*h as usize];
            head.mark &= !LOOSE;
            self.run_heads -= (head.mark & !SELECTED) as usize;
        }
        let pull = !self.entered_heads.is_empty();
        for &key in &hot {
            let key = key as usize;
            // Out of the runs with the heads selected alone, if any.
            for i in (0..self.run(key).len()).rev().take_while(|_| pull) {
                let w = self.run(key)[i];
                let head = self.head(w.handle);
                if w.edge != NO_EDGE && head.is_some_and(|h| h.mark & SELECTED != 0) {
                    self.left.push((key as u32, w));
                    self.leave_run(key, i);
                }
            }
            let run = match self.keys[key].run {
                0 => &[][..],
                i => &self.runs[i as usize - 1][..],
            };
            let mut start = 0;
            while let Some(w) = run.get(start).filter(|w| w.edge != NO_EDGE) {
                // A static key's run is one edge's: no search for its end.
                let rest = &run[start..];
                let len = if rest[rest.len() - 1].edge == w.edge {
                    rest.len()
                } else {
                    rest.partition_point(|x| x.edge == w.edge)
                };
                self.entered_runs
                    .push((key as u32, start as u32, len as u32, w.edge));
                start += len;
            }
        }
        let contests = hot.len();
        hot.clear();
        self.hot = hot;
        contests
    }

    /// The runs the last contest entered, as `(wanted edge, length)`,
    /// indexed as [`Split::run_won`] names them ([`Self::entered_run`]).
    /// Valid until a waiter leaves or parks.
    pub(crate) fn entered_runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let runs = self.entered_runs.iter();
        runs.map(|&(_, _, len, edge)| (edge as usize, len as usize))
    }

    /// The `i`-th run the last contest entered.
    #[inline]
    pub(crate) fn entered_run(&self, i: u32) -> &[Waiter] {
        let (key, start, len, _) = self.entered_runs[i as usize];
        &self.run(key as usize)[start as usize..][..len as usize]
    }

    /// The pending heads the last contest selected one at a time, as
    /// `(wanted edge, handle)`.
    pub(crate) fn entered_heads(&self) -> &[(u32, u32)] {
        &self.entered_heads
    }

    /// How many waiters the last contest entered.
    pub(crate) fn entered(&self) -> usize {
        let in_runs: u32 = self.entered_runs.iter().map(|r| r.2).sum();
        in_runs as usize + self.entered_heads.len()
    }

    /// How many pending heads the last contest entered, within runs or
    /// one at a time.
    pub(crate) fn pending_entered(&self) -> usize {
        self.run_heads + self.entered_heads.len()
    }

    /// The frozen-route run winners of the last contest leave their runs,
    /// by index: `won` holds `(entered run, index in it)`
    /// ([`Split::run_won`]), taken in descending order so that each
    /// removal leaves the places still to come where they were (a run
    /// that empties had none left). They stay parked until
    /// [`Self::unpark`], which takes a pending head out of all its runs.
    pub(crate) fn leave_runs(&mut self, won: &mut [(u32, u32)]) {
        if won.len() > 1 {
            won.sort_unstable_by(|a, b| b.cmp(a));
        }
        for &(entered, i) in won.iter() {
            let (key, start, ..) = self.entered_runs[entered as usize];
            let i = (start + i) as usize;
            if self.head(self.run(key as usize)[i].handle).is_none() {
                self.leave_run(key as usize, i);
            }
        }
    }

    /// The heads the last contest took out of their runs go back in,
    /// but for those that won and were unparked.
    pub(crate) fn rejoin(&mut self) {
        while let Some((key, w)) = self.left.pop() {
            if self.is_parked(w.handle) {
                self.insert(key as usize, w);
            }
        }
    }

    /// Empties the queue because the run is ending (deadlock or step
    /// cap) or the driver's state is being folded into another's,
    /// passing each parked handle, in ascending order, with the stalls
    /// the legacy stepper counted for it after its park step through
    /// step `through`. No key stays hot.
    pub(crate) fn settle_all(&mut self, through: u64, mut settled: impl FnMut(u32, u64)) {
        for (h, since) in self.since.iter_mut().enumerate() {
            if *since > 0 {
                settled(h as u32, through + 1 - std::mem::take(since));
            }
        }
        self.n_parked = 0;
        self.keys.fill(NO_KEY);
        self.runs.iter_mut().for_each(Vec::clear);
        self.free_runs.clear();
        self.free_runs.extend(0..self.runs.len() as u32);
        self.heads.fill(Head::default());
        self.n_heads = 0;
        self.hot.clear();
    }

    /// Every `(handle, key, wanted edge)` entry, sorted — what the
    /// invariant checks compare against the watch sets recomputed from
    /// scratch.
    pub(crate) fn parked_keys(&self) -> Vec<(u32, usize, u32)> {
        let mut live = Vec::new();
        for key in 0..self.keys.len() {
            live.extend(self.run(key).iter().map(|w| (w.handle, key, w.edge)));
        }
        live.sort_unstable();
        live
    }

    /// Checks the queue against itself — what the engine's check of each
    /// parked worm's entries against its watch set cannot see: every run
    /// strictly in [`Waiter`] order under the ranks `rank` gives, every
    /// entry a parked handle's, a frozen route in one run and a pending
    /// head in one at least (its keys are the engine's to check), every
    /// run buffer held by one key or free, and a key's hot flag set iff
    /// the key is on the hot list, once.
    pub(crate) fn validate(&self, rank: impl Fn(u32) -> Rank) {
        let mut listed = vec![false; self.keys.len()];
        for &key in &self.hot {
            let twice = std::mem::replace(&mut listed[key as usize], true);
            assert!(!twice, "wait key {key} is on the hot list twice");
        }
        let hot = self.keys.iter().map(|k| k.hot);
        assert!(hot.eq(listed), "hot flags out of sync with the hot list");
        let mut holders = vec![0; self.runs.len()];
        for &b in &self.free_runs {
            holders[b as usize] += 1;
            assert!(
                self.runs[b as usize].is_empty(),
                "free run buffer {b} in use"
            );
        }
        let mut entries = vec![0; self.since.len()];
        for key in 0..self.keys.len() {
            let run = self.run(key);
            if let Some(b) = self.keys[key].run.checked_sub(1) {
                holders[b as usize] += 1;
                assert!(!run.is_empty(), "wait key {key} holds an empty run");
            }
            let ordered = run.windows(2).all(|p| p[0] < p[1]);
            assert!(ordered, "the run of wait key {key} is out of order");
            for w in run {
                let h = w.handle;
                assert!(
                    self.is_parked(h),
                    "the run of wait key {key} holds {h}, not parked"
                );
                assert_eq!(w.rank, rank(h), "handle {h} ranked stale");
                entries[h as usize] += 1;
            }
        }
        for h in self.parked() {
            let n = entries[h as usize];
            let pending = self.head(h).is_some();
            assert!(n == 1 || pending && n > 0, "parked {h} in {n} runs");
        }
        let heads = self.heads.iter().filter(|h| h.pending).count();
        assert_eq!(heads, self.n_heads, "pending heads miscounted");
        assert!(self.left.is_empty(), "a head left out of its runs");
        assert!(
            holders.iter().all(|&n| n == 1),
            "a run buffer lost or shared"
        );
        assert_eq!(self.parked().count(), self.n_parked);
    }
}

/// Flat per-step contender buckets: a CSR-style `(edge, msg)` arena that
/// replaces the old one-`Vec`-per-edge scratch (which paid a heap
/// allocation per contended edge and an `O(num_edges)` clear — doubled
/// again on dateline-class graphs, where every physical channel is two
/// parallel edges).
///
/// Usage per step: [`clear`](Self::clear), [`push_run`](Self::push_run)
/// each run of waiters entered whole, then [`push`](Self::push) each
/// contender, [`group`](Self::group) once, then iterate groups by index.
/// A run opens its edge's group, so group `i` holds run `i` if there is
/// one; a group may be a run alone. Steady-state it never allocates.
pub(crate) struct FlatBuckets {
    /// `(edge, msg)` pairs in discovery order.
    pairs: Vec<(u32, u32)>,
    /// Distinct edges touched this step, in first-touch order: the runs'
    /// edges first.
    touched: Vec<u32>,
    /// Per-edge contender count — `1 +` it on a run's edge, so that a
    /// touched edge never reads 0 — then scatter cursor (dense, reset via
    /// `touched`).
    count: Vec<u32>,
    /// Per run entered, in order: its length.
    runs: Vec<u32>,
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
            runs: Vec::new(),
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
        self.runs.clear();
    }

    /// Records the contest's next run — `len` waiters contending for edge
    /// `e`, entered whole. Before every contender's `push`; an edge has
    /// one run at most.
    #[inline]
    pub(crate) fn push_run(&mut self, e: usize, len: usize) {
        debug_assert!(
            self.count[e] == 0 && self.pairs.is_empty(),
            "edge {e} entered late"
        );
        self.touched.push(e as u32);
        self.count[e] = 1;
        self.runs.push(len as u32);
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
        for (i, &e) in self.touched.iter().enumerate() {
            let c = self.count[e as usize] - u32::from(i < self.runs.len());
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

    /// How many contenders group `i` has, its run's included (valid after
    /// `group`).
    #[inline]
    pub(crate) fn group_len(&self, i: usize) -> u32 {
        let run = self.runs.get(i).copied().unwrap_or(0);
        self.starts[i + 1] - self.starts[i] + run
    }

    /// The contenders of group `i` pushed one by one (valid after
    /// `group`).
    #[inline]
    pub(crate) fn group_mut(&mut self, i: usize) -> &mut [u32] {
        let (s, e) = (self.starts[i] as usize, self.starts[i + 1] as usize);
        &mut self.slots[s..e]
    }

    /// The run entered whole for group `i`, if any: run `i`.
    #[inline]
    pub(crate) fn run(&self, i: usize) -> Option<u32> {
        (i < self.runs.len()).then_some(i as u32)
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
    /// the worm's misroute budget when crossed
    /// ([`crate::config::RouteSelection::FullyAdaptive`]).
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
/// so, fills `keys` with the row's distinct [`VcRules::wait_key`]s, each
/// with the edge its run entry records ([`WaitQueue`]): under the static
/// policy the key's own edge if [`select_hop`] would take it were it the
/// one open edge — a profitable candidate, a misroute that is no u-turn,
/// the escape hop — else, and on a pooled router's key, [`NO_EDGE`]. Until a release
/// lands on one of them [`select_hop`] keeps answering `Escape` with the
/// row's escape hop and the hop keeps granting nothing, so the caller
/// pins the selection to it. `false` — stay runnable — when a watched
/// edge is acquirable (a u-turn [`select_hop`] would skip included,
/// conservatively).
pub(crate) fn pending_wait_keys(
    g: &Graph,
    rules: &VcRules,
    ledger: &VcLedger,
    row: WatchRow,
    misroutes_ok: bool,
    keys: &mut Vec<(usize, u32)>,
) -> bool {
    if row.edges().any(|e| ledger.free_vcs(rules, e.idx()) > 0) {
        return false;
    }
    keys.clear();
    let misroute = |e| misroutes_ok && row.misroutes.contains(&e) && row.prev != Some(g.dst(e));
    let taken = |e| row.profitable.contains(&e) || misroute(e) || e == row.escape;
    keys.extend(row.edges().map(|e| {
        let edge = if !rules.pooled && taken(e) {
            e.0
        } else {
            NO_EDGE
        };
        (rules.wait_key(e.idx()), edge)
    }));
    keys.sort_unstable();
    keys.dedup_by_key(|k| k.0);
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
                assert_eq!(step.flit_hops, width as u64);
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
    fn drain_releases_are_what_successive_advances_release() {
        for (hops, length) in (1..=5).flat_map(|d| (1..=6).map(move |l| (d, l))) {
            for a0 in hops..hops + length - 1 {
                let start = Worm {
                    advance: a0,
                    hops,
                    length,
                    pending_route: false,
                };
                let (mut stepped, mut released) = (start, Vec::new());
                for i in 0.. {
                    let step = stepped.advance();
                    released.extend(step.released.map(|j| (j, i)));
                    if step.finished {
                        assert_eq!(i + 1, start.drain_left(), "hops={hops} L={length} a0={a0}");
                        break;
                    }
                }
                let mut filed: Vec<_> = start.drain_releases().collect();
                filed.sort_by_key(|&(_, i)| i); // stable: one advance's stay in order
                assert_eq!(filed, released, "hops={hops} L={length} a0={a0}");
            }
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
                    let mut flit_hops = 0u64;
                    for _ in 0..k {
                        if stepped.done() {
                            break;
                        }
                        let (width, acquire, ..) = reference_advance(&mut stepped);
                        assert_eq!(acquire, None, "drains acquire nothing");
                        flit_hops += width as u64;
                    }
                    let mut drained = start;
                    let case = format!("hops={hops} L={length} a0={a0} k={k}");
                    assert_eq!(drained.drain(k), flit_hops, "{case}");
                    assert_eq!(drained.advance, stepped.advance, "{case}");
                }
            }
        }
    }

    /// The canonical order as it was stated before runs: the edge's whole
    /// contender set in one slice, sorted by `(release, priority, id)`'s
    /// policy key and, under `Random`, shuffled whole — the reference
    /// [`Split::group`] is held against.
    fn order_contenders(
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

    /// The split as it read before runs: the first `free` of the ordered
    /// set win, and the untagged rest is reported lost.
    fn split_merged(
        e: usize,
        group: &mut [u32],
        free: usize,
        movers: &mut Vec<u32>,
        blocked: &mut Vec<u32>,
        mut order: impl FnMut(usize, &mut [u32]),
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

    const POLICIES: [Arbitration; 4] = [
        Arbitration::FifoById,
        Arbitration::OldestFirst,
        Arbitration::PriorityRank,
        Arbitration::Random,
    ];

    #[test]
    fn selection_from_a_sorted_run_equals_ordering_the_merged_set() {
        let mut rng = StdRng::seed_from_u64(0x5E1EC7);
        // Contested splits in which both the run and the classified
        // contenders won something, per policy.
        let mut mixed = [0u32; 4];
        for case in 0..1_600 {
            let p = case % 4;
            let arbitration = POLICIES[p];
            let config = SimConfig::new(1)
                .arbitration(arbitration)
                .seed(rng.next_u64());
            let (t, e) = (rng.random_range(0..1u64 << 40), rng.random_range(0..4_096));
            let n = rng.random_range(0..=64u32);
            // Handle `h` is message `ids[h]` (distinct, in no order), with
            // releases and priorities drawn from few values, so that the
            // id breaks many ties.
            let mut ids: Vec<u32> = (0..n)
                .map(|i| 97 * i + rng.random_range(0..97u32))
                .collect();
            ids.shuffle(&mut rng);
            let specs: Vec<MessageSpec> = (0..n)
                .map(|_| MessageSpec {
                    path: wormhole_topology::path::Path::new(Vec::new()),
                    length: 1,
                    release: rng.random_range(0..4),
                    priority: rng.random_range(0..4),
                })
                .collect();
            let rank_of = |h: u32| rank(arbitration, ids[h as usize], || &specs[h as usize]);
            // Some wait in the run; the rest were classified, a few of
            // them pending heads entered from the queue.
            let in_run = f64::from(rng.random_range(0..=8u32)) / 8.0;
            let (mut run, mut group) = (Vec::new(), Vec::new());
            for h in 0..n {
                if rng.random_bool(in_run) {
                    let (edge, rank) = (e as u32, rank_of(h));
                    run.push(Waiter {
                        edge,
                        rank,
                        handle: h,
                    });
                } else {
                    group.push(h | if rng.random_bool(0.3) { PARKED } else { 0 });
                }
            }
            run.sort_unstable();
            group.shuffle(&mut rng);
            let key = |h: u32| {
                let s = &specs[h as usize];
                (s.release, s.priority, ids[h as usize])
            };
            for free in 0..=n as usize + 1 {
                let mut merged = group.to_vec();
                merged.extend(run.iter().map(|w| w.handle | PARKED));
                let (mut movers, mut blocked) = (Vec::new(), Vec::new());
                let want = split_merged(e, &mut merged, free, &mut movers, &mut blocked, |e, g| {
                    order_contenders(&config, t, e, g, key)
                });
                let mut split = Split::new(&config);
                split.start(t);
                split.group(e, &mut group.clone(), (3, &run), free, rank_of);
                let case = format!("case {case}: {arbitration:?}, n = {n}, free = {free}");
                assert_eq!(split.movers.len() as u32, want, "{case}");
                // A run winner is named by its index, and only a winner is.
                let mut from_run: Vec<u32> = split
                    .run_won
                    .iter()
                    .map(|&(no, i)| {
                        assert_eq!(no, 3, "{case}");
                        run[i as usize].handle | PARKED
                    })
                    .collect();
                let mut got_movers = split.movers.clone();
                got_movers.sort_unstable();
                movers.sort_unstable();
                assert_eq!(got_movers, movers, "{case}");
                from_run.sort_unstable();
                let run_movers: Vec<u32> = movers
                    .iter()
                    .copied()
                    .filter(|&m| run.iter().any(|w| w.handle | PARKED == m))
                    .collect();
                assert_eq!(from_run, run_movers, "{case}");
                split.blocked.sort_unstable();
                blocked.sort_unstable();
                assert_eq!(split.blocked, blocked, "{case}");
                let contested = (free as u32) < n;
                if contested && !from_run.is_empty() && from_run.len() < movers.len() {
                    mixed[p] += 1;
                }
            }
        }
        assert!(mixed.iter().all(|&m| m > 300), "{mixed:?}");
    }

    /// Runs `q`'s contest and returns it: the pending heads selected one
    /// at a time (each asked once, under edge `1000 + handle`), and the
    /// runs entered as `(edge, handles)`.
    #[allow(clippy::type_complexity)]
    fn contest(q: &mut WaitQueue) -> (usize, Vec<u32>, Vec<(usize, Vec<u32>)>) {
        let mut shown = Vec::new();
        let contests = q.scan_hot(|h| {
            assert!(!shown.contains(&h), "{h} selected twice");
            shown.push(h);
            1000 + h
        });
        let runs = (0..q.entered_runs().count() as u32).map(|i| {
            let run = q.entered_run(i);
            assert_eq!(
                q.entered_runs().nth(i as usize),
                Some((run[0].edge as usize, run.len()))
            );
            (run[0].edge as usize, run.iter().map(|w| w.handle).collect())
        });
        let runs = runs.collect();
        let heads: Vec<u32> = q.entered_heads().iter().map(|&(e, h)| e - h).collect();
        assert!(heads.iter().all(|&e| e == 1000));
        (contests, shown, runs)
    }

    /// One parked handle of the naive model: its `(key, wanted edge)`
    /// entries, whether it is a pending head, its park step, and whether
    /// it lost in place with an edge open.
    struct Parked {
        h: u32,
        entries: Vec<(usize, u32)>,
        pending: bool,
        at: u64,
        loose: bool,
    }

    #[test]
    fn wait_queue_matches_a_naive_model_under_random_ops() {
        const HANDLES: u32 = 18;
        const KEYS: usize = 5;
        // Two edges a key — a pooled router's — so a key's run has a
        // sub-run per wanted edge.
        let key_of = |edge: u32| edge as usize % KEYS;
        let mut rng = StdRng::seed_from_u64(0x9A2C);
        let mut q = WaitQueue::new(KEYS);
        let mut model: Vec<Parked> = Vec::new();
        let mut ranks = [(0u64, 0u32); HANDLES as usize];
        // The hot keys in the order they turned hot.
        let mut hot: Vec<usize> = Vec::new();
        let waits_on = |model: &[Parked], key: usize| {
            model.iter().any(|p| p.entries.iter().any(|e| e.0 == key))
        };
        let mut counts = [0usize; 7];
        for t in 1..8_000u64 {
            match rng.random_range(0..12u32) {
                0..=4 => {
                    let h = rng.random_range(0..HANDLES);
                    if model.iter().any(|p| p.h == h) {
                        continue;
                    }
                    ranks[h as usize] = (rng.random_range(0..3), h);
                    let pending = rng.random_bool(0.4);
                    let entries = if pending {
                        let mut keys: Vec<usize> = (0..rng.random_range(1..4u32))
                            .map(|_| rng.random_range(0..KEYS))
                            .collect();
                        keys.sort_unstable();
                        keys.dedup();
                        let edge = |key: usize, rng: &mut StdRng| match rng.random_range(0..3) {
                            0 => NO_EDGE,
                            i => (key + KEYS * (i - 1)) as u32,
                        };
                        keys.into_iter().map(|k| (k, edge(k, &mut rng))).collect()
                    } else {
                        let edge = rng.random_range(0..2 * KEYS as u32);
                        vec![(key_of(edge), edge)]
                    };
                    q.park(h, &entries, pending, ranks[h as usize], t);
                    model.push(Parked {
                        h,
                        entries,
                        pending,
                        at: t,
                        loose: false,
                    });
                }
                5..=6 => {
                    // A release: hot only where somebody waits, and once.
                    let key = rng.random_range(0..KEYS);
                    q.mark_hot(key);
                    if waits_on(&model, key) && !hot.contains(&key) {
                        hot.push(key);
                    }
                }
                7..=9 => {
                    // The contest: a pending head with one hot key, which
                    // it waits on for an edge and not loose, in that key's
                    // run; any other with a hot key selected once. A run
                    // per wanted edge of each hot key, in rank order. Then
                    // a random subset of the entered wins and leaves, and
                    // some selected losers go loose.
                    let (contests, mut shown, runs) = contest(&mut q);
                    let held = hot.iter().filter(|&&key| waits_on(&model, key)).count();
                    assert_eq!(contests, held, "contests at op {t}");
                    let hot_entries = |p: &Parked| -> Vec<(usize, u32)> {
                        p.entries
                            .iter()
                            .copied()
                            .filter(|e| hot.contains(&e.0))
                            .collect()
                    };
                    let alone = |p: &Parked| {
                        let on = hot_entries(p);
                        p.pending
                            && !on.is_empty()
                            && (on.len() > 1 || p.loose || on[0].1 == NO_EDGE)
                    };
                    let mut want_shown: Vec<u32> =
                        model.iter().filter(|p| alone(p)).map(|p| p.h).collect();
                    let mut want_runs = Vec::new();
                    let mut in_runs = 0;
                    for &key in &hot {
                        let mut on_key: Vec<(u32, Rank, u32, bool)> = model
                            .iter()
                            .filter(|p| !alone(p))
                            .flat_map(|p| p.entries.iter().map(move |e| (p, *e)))
                            .filter(|(_, e)| e.0 == key && e.1 != NO_EDGE)
                            .map(|(p, e)| (e.1, ranks[p.h as usize], p.h, p.pending))
                            .collect();
                        on_key.sort_unstable();
                        in_runs += on_key.iter().filter(|w| w.3).count();
                        for run in on_key.chunk_by(|a, b| a.0 == b.0) {
                            let handles = run.iter().map(|f| f.2).collect();
                            want_runs.push((run[0].0 as usize, handles));
                        }
                        counts[0] += usize::from(on_key.chunk_by(|a, b| a.0 == b.0).count() > 1);
                    }
                    counts[1] += in_runs;
                    counts[2] += want_shown.len();
                    assert_eq!(q.pending_entered(), in_runs + want_shown.len());
                    shown.sort_unstable();
                    want_shown.sort_unstable();
                    assert_eq!(shown, want_shown, "heads selected at op {t}");
                    assert_eq!(runs, want_runs, "runs entered at op {t}");
                    for p in model.iter_mut().filter(|p| !hot_entries(p).is_empty()) {
                        p.loose = false;
                    }
                    hot.clear();
                    let mut won = Vec::new();
                    let mut run_won = Vec::new();
                    for (no, (_, run)) in runs.iter().enumerate() {
                        for (i, &h) in run.iter().enumerate() {
                            if rng.random_bool(0.3) {
                                run_won.push((no as u32, i as u32));
                                won.push(h);
                            }
                        }
                    }
                    won.extend(shown.iter().filter(|_| rng.random_bool(0.3)));
                    let all = runs.iter().map(|r| r.1.len()).sum::<usize>() + shown.len();
                    counts[3] += usize::from(!won.is_empty() && won.len() < all);
                    q.leave_runs(&mut run_won);
                    for h in won {
                        let i = model.iter().position(|p| p.h == h).unwrap();
                        let p = model.remove(i);
                        assert_eq!(q.unpark(h, p.entries.iter().map(|e| e.0)), p.at);
                        counts[4] += usize::from(p.entries.len() > 1);
                    }
                    q.rejoin();
                    for p in model.iter_mut().filter(|p| shown.contains(&p.h)) {
                        if rng.random_bool(0.3) {
                            let key = p.entries[rng.random_range(0..p.entries.len())].0;
                            q.reenter(p.h, key);
                            p.loose = true;
                            if !hot.contains(&key) {
                                hot.push(key);
                            }
                        }
                    }
                }
                10 => {
                    // A kill: a random subset leaves, pending or frozen.
                    let mut left = Vec::new();
                    q.unpark_where(|h, at| {
                        let p = model.iter().find(|p| p.h == h).expect("parked");
                        assert_eq!(at, p.at);
                        let leaves = rng.random_bool(0.15);
                        if leaves {
                            left.push(h);
                        }
                        leaves
                    });
                    assert!(left.is_sorted());
                    counts[5] += left.len();
                    model.retain(|p| !left.contains(&p.h));
                }
                _ if rng.random_bool(0.04) => {
                    let mut expect: Vec<(u32, u64)> =
                        model.drain(..).map(|p| (p.h, t - p.at)).collect();
                    expect.sort_unstable();
                    let mut got = Vec::new();
                    q.settle_all(t, |h, skipped| got.push((h, skipped)));
                    assert_eq!(got, expect, "settle_all at op {t}");
                    hot.clear();
                    counts[6] += 1;
                }
                _ => {}
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.is_empty(), model.is_empty());
            assert_eq!(q.contest_due(), !model.is_empty() && !hot.is_empty());
            for h in 0..HANDLES + 2 {
                let p = model.iter().find(|p| p.h == h);
                assert_eq!(q.is_parked(h), p.is_some());
                assert_eq!(q.is_loose(h), p.is_some_and(|p| p.loose));
            }
            for key in 0..KEYS {
                // A kill may empty a hot key: it stays hot until the next
                // contest, which holds none there.
                assert_eq!(q.is_hot(key), hot.contains(&key));
            }
            // Runs in order under the ranks parked with, every entry a
            // parked handle's, each waiter on exactly its keys.
            q.validate(|h| ranks[h as usize]);
            let mut expect: Vec<(u32, usize, u32)> = model
                .iter()
                .flat_map(|p| p.entries.iter().map(|&(k, e)| (p.h, k, e)))
                .collect();
            expect.sort_unstable();
            assert_eq!(q.parked_keys(), expect);
        }
        // Keys with two runs, pending heads entered within runs and one at
        // a time, partial contests, multi-key wins, kills, settles.
        let floors = [200, 200, 200, 200, 100, 200, 5];
        assert!(counts.iter().zip(floors).all(|(&n, f)| n > f), "{counts:?}");
    }

    #[test]
    fn a_multi_key_park_leaves_every_key_and_no_later_park_sees_it() {
        let mut q = WaitQueue::new(5);
        let entries = [(1, NO_EDGE), (2, 2), (3, 3)];
        q.park(7, &entries, true, (0, 7), 5);
        q.mark_hot(2);
        assert_eq!(contest(&mut q), (1, vec![], vec![(2, vec![7])]));
        q.leave_runs(&mut [(0, 0)]);
        assert_eq!(q.unpark(7, [1, 2, 3]), 5, "the head won within a run");
        assert!(!q.is_parked(7));
        // Re-parked elsewhere: it left keys 1 and 3, whose releases now
        // hold no contest.
        q.park(7, &[(4, 40)], false, (0, 7), 9);
        q.mark_hot(1);
        q.mark_hot(3);
        assert!(!q.is_hot(1) && !q.is_hot(3) && !q.contest_due());
        q.mark_hot(4);
        assert_eq!(contest(&mut q), (1, vec![], vec![(40, vec![7])]));
        q.leave_runs(&mut [(0, 0)]);
        assert_eq!(q.unpark(7, []), 9);
        // Re-parked on keys it waited on before: two hot keys select it
        // one at a time, out of both runs until it rejoins them.
        q.park(7, &entries, true, (0, 7), 11);
        q.park(8, &[(2, 2)], false, (0, 8), 11);
        q.mark_hot(2);
        q.mark_hot(3);
        assert_eq!(contest(&mut q), (2, vec![7], vec![(2, vec![8])]));
        q.rejoin();
        q.validate(|h| (0, h));
        assert_eq!(q.unpark(7, [1, 2, 3]), 11);
        q.park(7, &[(1, 10)], false, (0, 7), 13);
        assert_eq!(q.parked_keys(), [(7, 1, 10), (8, 2, 2)]);
        q.validate(|h| (0, h));
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

    /// [`VcLedger::grants`] over `buckets`, per edge (0 where nobody
    /// contends).
    fn grants_by_edge(
        ledger: &mut VcLedger,
        rules: &VcRules,
        buckets: &mut FlatBuckets,
    ) -> Vec<u32> {
        let mut grants = Vec::new();
        ledger.grants(rules, buckets, &mut grants);
        let mut by_edge = vec![0; ledger.holders.len()];
        for (gi, &n) in grants.iter().enumerate() {
            by_edge[buckets.edge(gi)] = n;
        }
        by_edge
    }

    #[test]
    fn arbitrate_grants_shared_credits_in_ascending_edge_order() {
        let g = fan_graph();
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
                let mut grants = grants_by_edge(&mut ledger, &rules, &mut buckets);
                grants.truncate(3);
                let expect: Vec<u32> = (0..3).map(|e| u32::from(e < shared)).collect();
                assert_eq!(grants, expect, "pushed as {push_order:?}");
            }
        }
    }

    /// The pooled sweep [`VcLedger::grants`] runs only where credit is
    /// short, run over *every* edge in ascending id order: each granted
    /// what the lower-id edges of its router left, up to its `wants` —
    /// its contenders, counted by the caller. The reference the two-pass
    /// version is held against.
    fn grants_sorting_every_group(ledger: &VcLedger, rules: &VcRules, wants: &[u32]) -> Vec<u32> {
        let mut planned = vec![0u32; ledger.shared_used.len()];
        let grant = |(e, &want): (usize, &u32)| {
            let r = rules.edge_src[e] as usize;
            let floor_free = rules.per_edge_min.saturating_sub(ledger.holders[e] as u32);
            let granted = want.min(ledger.free_after(rules, e, planned[r]));
            planned[r] += granted.saturating_sub(floor_free);
            granted
        };
        wants.iter().enumerate().map(grant).collect()
    }

    #[test]
    fn pooled_arbitration_matches_the_sort_every_group_sweep() {
        let mut rng = StdRng::seed_from_u64(0xA5B17);
        let (mut short_routers, mut flush_routers, mut dead_groups) = (0, 0, 0);
        let (mut run_groups, mut runs_alone) = (0, 0);
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
            // Random contender sets, discovered in random order — some
            // pending heads entered from the wait queue — and, for some
            // edges, a run of waiters entered whole; `wants` counts them.
            let mut pairs = Vec::new();
            let mut runs = Vec::new();
            let mut wants = vec![0u32; g.num_edges()];
            for (e, want) in wants.iter_mut().enumerate() {
                for _ in 0..rng.random_range(0..6u32) {
                    let tag = if rng.random_bool(0.4) { PARKED } else { 0 };
                    pairs.push((e, *want | tag));
                    *want += 1;
                }
                if rng.random_bool(0.4) {
                    let len = rng.random_range(1..5u32);
                    runs.push((e, len));
                    *want += len;
                }
            }
            pairs.shuffle(&mut rng);
            runs.shuffle(&mut rng);
            let expect = grants_sorting_every_group(&ledger, &rules, &wants);
            let mut buckets = FlatBuckets::with_edges(g.num_edges());
            for &(e, len) in &runs {
                buckets.push_run(e, len as usize);
            }
            for &(e, m) in &pairs {
                buckets.push(e, m);
            }
            let got = grants_by_edge(&mut ledger, &rules, &mut buckets);
            assert_eq!(got, expect, "case {case}: pool {pool} min {min} max {max}");
            assert!(
                ledger.planned_shared.iter().all(|&p| p == 0) && ledger.touched_routers.is_empty(),
                "case {case}: arbitration scratch left dirty"
            );
            // Which regimes the case exercised, recomputed from scratch.
            for r in 0..routers {
                let out = (0..g.num_edges()).filter(|&e| rules.edge_src[e] as usize == r);
                let need: u32 = out
                    .map(|e| {
                        let h = ledger.holders[e] as u32;
                        let want = if rules.dead[e] {
                            0
                        } else {
                            wants[e].min(max - h)
                        };
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
                .filter(|&e| rules.dead[e] && wants[e] > 0)
                .inspect(|&e| assert_eq!(got[e], 0, "case {case}: dead edge {e} granted"))
                .count();
            run_groups += runs.len();
            runs_alone += runs
                .iter()
                .filter(|r| pairs.iter().all(|p| p.0 != r.0))
                .count();
        }
        assert!(
            short_routers > 300 && flush_routers > 300 && dead_groups > 300 && runs_alone > 300,
            "{short_routers} routers short of credit, {flush_routers} flush, {dead_groups} \
             dead groups, {run_groups} runs, {runs_alone} alone"
        );
    }

    #[test]
    fn flat_buckets_group_reset_roundtrip() {
        let mut b = FlatBuckets::with_edges(10);
        for round in 0..3 {
            b.clear();
            b.push_run(9, 3);
            b.push_run(2, 2);
            b.push(5, 10 + round);
            b.push(2, 20);
            b.push(5, 30);
            b.push(7, 40);
            b.push(2, 50);
            let groups = b.group();
            assert_eq!(groups, 4);
            // First-touch edge order — the runs' first — discovery order
            // within an edge; a run counts in its group's length, and may
            // be a group alone.
            assert_eq!(b.edge(0), 9);
            assert_eq!((b.group_len(0), b.run(0)), (3, Some(0)));
            assert!(b.group_mut(0).is_empty());
            assert_eq!(b.edge(1), 2);
            assert_eq!((b.group_len(1), b.run(1)), (4, Some(1)));
            assert_eq!(b.group_mut(1), &[20, 50]);
            assert_eq!(b.edge(2), 5);
            assert_eq!(b.run(2), None);
            assert_eq!(b.group_mut(2), &[10 + round, 30]);
            assert_eq!(b.edge(3), 7);
            assert_eq!(b.group_mut(3), &[40]);
        }
    }
}
