//! Wormhole simulator configuration: the model knobs of §1.1, and the
//! one function that judges them ([`SimConfig::check`]).

use std::fmt;

use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::fault::{FaultError, FaultPlan};
use wormhole_topology::graph::Graph;
use wormhole_topology::region::RegionPlan;

/// How each router's virtual-channel capacity is provisioned across its
/// outgoing routing edges — the knob the dynamic-VC-allocation studies
/// (Onsori–Safaei; Stergiou's multi-lane storage comparison) turn while
/// holding total buffer storage fixed.
///
/// The free-VC test every acquisition runs is a *policy query*:
///
/// * [`VcPolicy::Static`]`(B)` — the paper's model: every routing edge
///   owns `B` dedicated VCs. An edge is acquirable iff it holds fewer
///   than `B`.
/// * [`VcPolicy::RouterPooled`] — each router shares one pool of `pool`
///   VCs across its outgoing edges. Every edge keeps a guaranteed floor
///   of `per_edge_min` VCs (reserved whether used or not) and may grow
///   to `per_edge_max` by drawing the excess from the router's *shared*
///   portion, `pool − per_edge_min · fanout`. An edge is acquirable iff
///   it is below `per_edge_max` **and** either below its floor or the
///   shared portion has credit left.
///
/// `Static(B)` is exactly `RouterPooled { pool: B · fanout,
/// per_edge_min: B, per_edge_max: B }` (the floors exhaust the pool and
/// the shared portion is empty) — a policy-equivalence proptest holds
/// the two bit-identical on every engine.
///
/// # Why `per_edge_min ≥ 1` is mandatory
///
/// Every deadlock-freedom argument in this codebase (Dally–Seitz
/// dateline classes, the Duato escape pair under adaptive routing) is an
/// acyclicity proof over the channel-dependency graph, and it assumes
/// each routing edge eventually serves its holders — which needs at
/// least one VC that pooling can never take away. The floor guarantees
/// exactly that: escape-class edges always retain a dedicated VC, so the
/// proofs survive pooling unchanged. [`SimConfig::check`] therefore
/// rejects `per_edge_min == 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcPolicy {
    /// `B` dedicated virtual channels on every routing edge (`B ≥ 1`) —
    /// the paper's capacity model and the default.
    Static(u32),
    /// Demand-driven per-router pooling: outgoing edges share `pool` VCs
    /// with a reserved floor of `per_edge_min` each and a hard per-edge
    /// cap of `per_edge_max`.
    RouterPooled {
        /// Total VCs available at each router, shared across its
        /// outgoing routing edges.
        pool: u32,
        /// Guaranteed (reserved) VCs per outgoing edge. Must be ≥ 1 so
        /// the escape-channel deadlock-freedom arguments survive;
        /// [`SimConfig::check`] additionally wants `per_edge_min ·
        /// fanout ≤ pool` of every router of the actual graph.
        per_edge_min: u32,
        /// Hard cap on VCs any single edge may hold simultaneously.
        per_edge_max: u32,
    },
}

impl VcPolicy {
    /// A [`VcPolicy::RouterPooled`], range-checked: panics, with the
    /// [`ConfigError`]'s message, on `pool == 0`, `per_edge_min == 0`,
    /// `per_edge_min > per_edge_max` or a cap above `u16::MAX` (the
    /// graph-dependent `per_edge_min · fanout ≤ pool` is
    /// [`SimConfig::check`]'s, when the fanout is known).
    pub fn pooled(pool: u32, per_edge_min: u32, per_edge_max: u32) -> Self {
        VcPolicy::RouterPooled {
            pool,
            per_edge_min,
            per_edge_max,
        }
        .in_range_or_panic()
    }

    /// The policy's graph-independent ranges: the part of
    /// [`SimConfig::check`] the builders can run, and panic on.
    fn in_range(&self) -> Result<(), ConfigError> {
        let cap = self.max_per_edge();
        match *self {
            VcPolicy::Static(0) => Err(ConfigError::NoVcs),
            VcPolicy::RouterPooled { pool: 0, .. } => Err(ConfigError::EmptyPool),
            VcPolicy::RouterPooled {
                per_edge_min: 0, ..
            } => Err(ConfigError::ZeroFloor),
            VcPolicy::RouterPooled { per_edge_min, .. } if per_edge_min > cap => {
                Err(ConfigError::FloorAboveCap {
                    floor: per_edge_min,
                    cap,
                })
            }
            _ if cap > u16::MAX as u32 => Err(ConfigError::CapAboveCounters { cap }),
            _ => Ok(()),
        }
    }

    fn in_range_or_panic(self) -> Self {
        self.in_range().unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// The hard per-edge VC cap (`B`, or `per_edge_max`).
    #[inline]
    pub fn max_per_edge(&self) -> u32 {
        match *self {
            VcPolicy::Static(b) => b,
            VcPolicy::RouterPooled { per_edge_max, .. } => per_edge_max,
        }
    }

    /// Short lowercase name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            VcPolicy::Static(_) => "static",
            VcPolicy::RouterPooled { .. } => "pooled",
        }
    }
}

/// Which message wins when several headers contend for the free virtual
/// channels of an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arbitration {
    /// Uniformly random among contenders (seeded; deterministic per seed).
    Random,
    /// Lowest message id first.
    FifoById,
    /// Earliest release time first (ties by id).
    OldestFirst,
    /// Lowest [`crate::message::MessageSpec::priority`] first (ties by id) —
    /// used to favor earlier color classes when schedules overlap.
    PriorityRank,
}

/// Which stepper drives a run. Every engine runs every configuration,
/// and all are required to produce bit-identical
/// [`crate::stats::SimResult`]s (the proptest differential suite
/// enforces it); they differ only in cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Event-driven core: worms that lose arbitration park on a per-edge
    /// wait queue and contend again, from where they wait, only at a step
    /// after that edge released a VC — a winner leaves the queue, a loser
    /// is not touched; all-draining stretches fast-forward. The default.
    EventDriven,
    /// The original per-step rescanning stepper, kept as the differential
    /// oracle.
    Legacy,
    /// Partitioned parallel engine: the network is decomposed into
    /// regions ([`SimConfig::regions`], or a default contiguous cut),
    /// each worker advancing one of them; workers synchronize on
    /// conservative windows granted from how soon each worm can reach a
    /// cross-region edge (`RegionPlan::distance_to_cut`), and never past
    /// the next admission or fault kill. With fewer workers than the plan
    /// has regions, each worker's block of adjacent regions is merged
    /// into one before step 0
    /// ([`crate::stats::EngineStats::regions`]). Runs static and pooled
    /// VC policies, oblivious **and adaptive** routing, with or without a
    /// fault plan.
    ///
    /// ```
    /// use wormhole_flitsim::config::{Engine, RouteSelection, SimConfig};
    /// use wormhole_flitsim::message::MessageSpec;
    /// use wormhole_flitsim::wormhole::run_adaptive;
    /// use wormhole_topology::mesh::{Mesh, RoutingDiscipline};
    ///
    /// // Half-ring shifts on a 4x4 adaptive-escape torus, one VC per class.
    /// let t = Mesh::new_disciplined(4, 2, RoutingDiscipline::AdaptiveEscape);
    /// let specs: Vec<MessageSpec> = (0..16)
    ///     .map(|i| (t.node(&[i / 4, i % 4]), t.node(&[(i / 4 + 2) % 4, i % 4])))
    ///     .map(|(src, dst)| MessageSpec::new(t.route(src, dst), 4))
    ///     .collect();
    /// let config = SimConfig::new(1).route_selection(RouteSelection::MinimalAdaptive);
    /// let default_engine = run_adaptive(&t, &specs, &config);
    /// let parallel = config.engine(Engine::Parallel { threads: 2 });
    /// let parallel = run_adaptive(&t, &specs, &parallel);
    /// assert!(parallel.same_execution(&default_engine));
    /// ```
    Parallel {
        /// Worker thread count; `0` means use all available parallelism.
        /// More workers than regions are not started. Fewer means each
        /// steps a block of adjacent regions merged into one, so
        /// `threads: 1` steps the whole network as one region, much like
        /// [`Engine::EventDriven`]. The result is byte-identical for
        /// every thread count, including 1.
        threads: u32,
    },
}

/// How a message's route is chosen.
///
/// Oblivious runs fix every path at injection ([`crate::wormhole::run`]
/// takes fully routed [`crate::message::MessageSpec`]s). The adaptive
/// policies instead extend each worm's path **one hop at a time** at the
/// header ([`crate::wormhole::run_adaptive`], which needs an
/// [`wormhole_topology::adaptive::AdaptiveRouter`] substrate): each step
/// the header picks, among its candidate adaptive-lane output channels,
/// the one with a free VC and the lowest start-of-step occupancy (ties
/// by edge id). When **every** adaptive candidate is full, the worm
/// falls back to the Dally–Seitz escape pair — it contends for the first
/// hop of the escape route from its current node, and on winning it
/// commits to that entire route and never returns to the adaptive lane.
/// That fallback is what keeps adaptive routing deadlock-free by
/// construction (the escape subnetwork's channel-dependency graph is
/// acyclic; see `wormhole_topology::adaptive`).
///
/// Selection is a pure function of start-of-step state, so the three
/// [`Engine`]s remain bit-identical under every policy; the differential
/// proptest suite covers all three.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteSelection {
    /// Follow the precomputed [`crate::message::MessageSpec::path`]
    /// verbatim. The only policy [`crate::wormhole::run`] accepts.
    Oblivious,
    /// Per-hop adaptive over **minimal** (distance-reducing) candidates
    /// only; escape fallback when all are full. Route length equals the
    /// minimal distance.
    MinimalAdaptive,
    /// Like [`RouteSelection::MinimalAdaptive`], but when no profitable
    /// candidate has a free VC the worm may also *misroute* (take a
    /// non-minimal adaptive hop, never an immediate u-turn) while its
    /// per-message budget of `misroute_quota` such hops lasts. With the
    /// budget spent it degrades to minimal-adaptive, so delivery stays
    /// guaranteed (no livelock).
    FullyAdaptive {
        /// Non-minimal adaptive hops a worm may take.
        misroute_quota: u32,
    },
}

impl RouteSelection {
    /// Short lowercase name for tables.
    pub fn name(self) -> &'static str {
        match self {
            RouteSelection::Oblivious => "oblivious",
            RouteSelection::MinimalAdaptive => "minimal",
            RouteSelection::FullyAdaptive { .. } => "fully",
        }
    }

    /// The misroute budget a worm starts with: the quota under
    /// [`RouteSelection::FullyAdaptive`], none under the others.
    pub(crate) fn misroute_budget(self) -> u32 {
        match self {
            RouteSelection::FullyAdaptive { misroute_quota } => misroute_quota,
            _ => 0,
        }
    }
}

/// Full simulator configuration.
///
/// # Which knob combinations are differential-tested
///
/// Every field below is honoured by every [`Engine`], and the three are
/// required to be bit-identical on every configuration.
/// `tests/proptest_engine_diff.rs` sweeps, on random chain / butterfly /
/// torus workloads:
///
/// * all four [`Arbitration`] policies (including the stateless
///   `(seed, step, edge)`-keyed [`Arbitration::Random`] stream),
/// * `B ∈ {1, 2, 4}`, staggered releases, priorities, tight
///   [`SimConfig::max_steps`] caps (partial state at an abort must
///   match), deadlocking naive-torus arms (reports compared field for
///   field), and
/// * all three [`RouteSelection`] policies on `AdaptiveEscape` tori —
///   adaptive runs are where the equality is subtlest, because route
///   choice reads VC occupancy; see [`crate::wormhole`] for why the
///   shared start-of-step convention keeps it exact, and
/// * both [`VcPolicy`] arms — static and router-pooled — on chains,
///   dateline tori, and adaptive tori, plus a policy-equivalence suite
///   asserting `Static(B)` ≡ the degenerate
///   `RouterPooled { pool: B·fanout, per_edge_min: B, per_edge_max: B }`
///   field for field on every engine, and
/// * fault plans ([`SimConfig::faults`]) on all three engines: timed link
///   kills on butterflies, seeded channel kills on dateline tori (static
///   and pooled) and on adaptive tori routed by a fault-aware router —
///   kills landing mid-window, under tight step caps, and severing worms
///   that straddle a region cut (`tests/parallel_determinism.rs` pins
///   those corners at 1, 2 and 8 workers).
///
/// A worm whose header cannot advance stalls in place holding the VCs it
/// has acquired (ordinary wormhole routing); the only discard is a fault
/// kill's ([`crate::stats::DiscardReason::LinkDown`]). The §3.1 rule
/// "if a message is delayed at a switch, then the message is discarded"
/// is `wormhole_core::butterfly::fast_sim`'s, not a knob here.
///
/// The §1.4 comparison models — one flit per channel per step, virtual
/// cut-through, store-and-forward — are not knobs here either: each is its
/// own small stepper ([`crate::restricted`], [`crate::cut_through`],
/// [`crate::store_forward`]).
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// How VC capacity is provisioned (see [`VcPolicy`]). The default
    /// [`VcPolicy::Static`]`(B)` gives every **routing edge** `B ≥ 1`
    /// dedicated VCs; on a multi-class graph (dateline or
    /// adaptive-escape disciplines, where each physical channel is
    /// several parallel edges) that is the VC count *per class*: a
    /// 2-class channel with `b` VCs per class models a `2b`-VC
    /// Dally–Seitz router. [`VcPolicy::RouterPooled`] instead lets each
    /// router's outgoing edges share a VC pool on demand (equal total
    /// storage, floors preserved — the engines remain bit-identical
    /// under either policy).
    pub vc_policy: VcPolicy,
    /// Header arbitration policy: which contender wins the free VCs of
    /// an edge when too many headers want it in the same step.
    /// [`Arbitration::Random`] draws from a **stateless RNG keyed by
    /// `(seed, step, edge)`** — not a sequential global stream — so the
    /// draw is independent of how many arbitration events preceded it;
    /// this is what lets the event-driven engine skip blocked steps and
    /// still reproduce the legacy stepper bit for bit.
    pub arbitration: Arbitration,
    /// Stepper (see [`Engine`]): the event-driven core (default), the
    /// legacy per-step rescanner kept as its differential oracle, or the
    /// partitioned parallel engine. All produce bit-identical
    /// [`crate::stats::SimResult`]s; only their cost differs.
    pub engine: Engine,
    /// Route selection policy (see [`RouteSelection`]). Adaptive values
    /// require [`crate::wormhole::run_adaptive`]; [`crate::wormhole::run`]
    /// rejects them because it has no router to enumerate candidates.
    pub route_selection: RouteSelection,
    /// Hard step cap: the run aborts with [`crate::stats::Outcome::MaxSteps`]
    /// if any message is still unfinished after this many flit steps.
    pub max_steps: u64,
    /// RNG seed (used only by [`Arbitration::Random`]).
    pub seed: u64,
    /// Region partition used by [`Engine::Parallel`] (ignored by the
    /// sequential engines). `None` lets the engine build a default
    /// contiguous cut over the graph's node-id order
    /// (`RegionPlan::contiguous`); substrate-aware plans come from
    /// `wormhole_workloads::Substrate::region_plan`. The plan is the
    /// finest decomposition the engine uses: with fewer workers than
    /// regions it merges each worker's block of adjacent regions
    /// (numbered adjacently by every plan constructor) into one before
    /// step 0. It only affects cost — the `SimResult` is bit-identical
    /// for every valid plan and thread count.
    pub regions: Option<RegionPlan>,
    /// Timed edge kills applied during the run (validated against
    /// the graph at simulation start; see
    /// `wormhole_topology::fault::FaultPlan`). A kill scheduled at step
    /// `t` takes effect at the start of step `t`, in **every** engine
    /// identically: the dead edges stop granting VCs, and every worm
    /// holding one — or obliviously committed to crossing one — is
    /// discarded with [`crate::stats::DiscardReason::LinkDown`] (the
    /// source's `on_discarded` hook fires, so closed-loop sources can
    /// reissue).
    pub faults: Option<FaultPlan>,
    /// When set, the simulator re-verifies VC accounting and flit
    /// conservation every step (slow; used by tests).
    pub check_invariants: bool,
}

impl SimConfig {
    /// A config with `b` static virtual channels per edge and defaults
    /// matching the paper's primary model.
    pub fn new(b: u32) -> Self {
        Self {
            vc_policy: VcPolicy::Static(b).in_range_or_panic(),
            arbitration: Arbitration::FifoById,
            engine: Engine::EventDriven,
            route_selection: RouteSelection::Oblivious,
            max_steps: 100_000_000,
            seed: 0,
            regions: None,
            faults: None,
            check_invariants: false,
        }
    }

    /// Sets the VC capacity policy (range-checked like
    /// [`VcPolicy::pooled`]; see [`VcPolicy`]).
    pub fn vc_policy(mut self, p: VcPolicy) -> Self {
        self.vc_policy = p.in_range_or_panic();
        self
    }

    /// Sets the arbitration policy.
    pub fn arbitration(mut self, a: Arbitration) -> Self {
        self.arbitration = a;
        self
    }

    /// Selects the stepper.
    pub fn engine(mut self, e: Engine) -> Self {
        self.engine = e;
        self
    }

    /// Sets the route-selection policy.
    pub fn route_selection(mut self, r: RouteSelection) -> Self {
        self.route_selection = r;
        self
    }

    /// Sets the step cap.
    pub fn max_steps(mut self, s: u64) -> Self {
        self.max_steps = s;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Installs a region partition for [`Engine::Parallel`] (see
    /// [`SimConfig::regions`]).
    pub fn regions(mut self, plan: RegionPlan) -> Self {
        self.regions = Some(plan);
        self
    }

    /// Installs a fault plan (timed edge kills; see
    /// [`SimConfig::faults`]).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables per-step invariant checking (slow).
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// Judges this config against the graph it is about to run on, and
    /// the router it was given — the only place a config is judged, and
    /// the first thing [`crate::wormhole::simulate`] does: the VC
    /// policy's ranges, a router — over this very graph — where route
    /// selection consults one, a fault plan that fits the graph, pool
    /// floors every router can honor, and under [`Engine::Parallel`] a
    /// region plan built for this graph. Every field is `pub`, so a
    /// struct literal reaches here unchecked; the builders panic early
    /// on the graph-independent part, with the same error's message.
    pub fn check(
        &self,
        graph: &Graph,
        router: Option<&dyn AdaptiveRouter>,
    ) -> Result<(), ConfigError> {
        if self.route_selection != RouteSelection::Oblivious {
            let shape = |g: &Graph| (g.num_nodes(), g.num_edges());
            let router = shape(router.ok_or(ConfigError::RouterMissing)?.graph());
            if router != shape(graph) {
                let graph = shape(graph);
                return Err(ConfigError::RouterGraph { router, graph });
            }
        }
        if let Some(plan) = &self.faults {
            plan.validate(graph).map_err(ConfigError::Faults)?;
        }
        self.vc_policy.in_range()?;
        if let VcPolicy::RouterPooled {
            pool, per_edge_min, ..
        } = self.vc_policy
        {
            for v in graph.nodes() {
                let (router, fanout) = (v.0, graph.out_degree(v) as u32);
                if per_edge_min as u64 * fanout as u64 > pool as u64 {
                    return Err(ConfigError::PoolFloor {
                        router,
                        per_edge_min,
                        fanout,
                        pool,
                    });
                }
            }
        }
        let parallel = matches!(self.engine, Engine::Parallel { .. });
        match &self.regions {
            Some(plan) if parallel && !plan.matches(graph) => Err(ConfigError::RegionPlan),
            _ => Ok(()),
        }
    }
}

/// Why [`SimConfig::check`] refused a config.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// [`VcPolicy::Static`]`(0)`: an edge needs at least one VC.
    NoVcs,
    /// [`VcPolicy::RouterPooled`] with `pool == 0`.
    EmptyPool,
    /// `per_edge_min == 0`, which would let pooling starve an escape
    /// channel (see [`VcPolicy`]).
    ZeroFloor,
    /// `per_edge_min > per_edge_max`.
    FloorAboveCap {
        /// The policy's `per_edge_min`.
        floor: u32,
        /// The policy's `per_edge_max`.
        cap: u32,
    },
    /// The per-edge cap — `B`, or `per_edge_max` — is above `u16::MAX`,
    /// the width of the simulator's holder counters.
    CapAboveCounters {
        /// The cap asked for.
        cap: u32,
    },
    /// `router` cannot honor the floors of its `fanout` outgoing edges
    /// out of its pool.
    PoolFloor {
        /// The node id of the router.
        router: u32,
        /// The policy's `per_edge_min`.
        per_edge_min: u32,
        /// Outgoing edges of `router`.
        fanout: u32,
        /// The policy's `pool`.
        pool: u32,
    },
    /// Adaptive route selection, and no router to enumerate the per-hop
    /// candidates.
    RouterMissing,
    /// The router routes over another graph than the simulated one; both
    /// as `(nodes, edges)`.
    RouterGraph {
        /// The router's graph.
        router: (usize, usize),
        /// The simulated graph.
        graph: (usize, usize),
    },
    /// [`SimConfig::faults`] does not fit the graph.
    Faults(FaultError),
    /// [`SimConfig::regions`] was built for a graph of another shape
    /// (judged under [`Engine::Parallel`], the one engine that reads it).
    RegionPlan,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoVcs => write!(f, "need at least one virtual channel"),
            ConfigError::EmptyPool => write!(f, "pooled VC policy needs a nonempty pool"),
            ConfigError::ZeroFloor => write!(
                f,
                "per_edge_min must be >= 1: a zero floor lets pooling starve an \
                 escape channel and voids the deadlock-freedom arguments"
            ),
            ConfigError::FloorAboveCap { floor, cap } => {
                write!(f, "per_edge_min {floor} exceeds per_edge_max {cap}")
            }
            ConfigError::CapAboveCounters { cap } => write!(
                f,
                "{cap} VCs on one edge exceed the simulator's u16 holder counters"
            ),
            ConfigError::RouterGraph { router, graph } => write!(
                f,
                "the router's graph has {router:?} (nodes, edges), the simulated one {graph:?}"
            ),
            ConfigError::RegionPlan => {
                write!(f, "region plan does not match the simulated graph")
            }
            ConfigError::Faults(e) => write!(f, "invalid fault plan: {e}"),
            ConfigError::RouterMissing => write!(
                f,
                "adaptive route selection needs run_adaptive \
                 (per-hop candidates come from a router)"
            ),
            ConfigError::PoolFloor {
                router,
                per_edge_min,
                fanout,
                pool,
            } => write!(
                f,
                "router {router}: per_edge_min {per_edge_min} x fanout {fanout} \
                 exceeds pool {pool}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = SimConfig::new(3)
            .arbitration(Arbitration::Random)
            .engine(Engine::Legacy)
            .route_selection(RouteSelection::FullyAdaptive { misroute_quota: 9 })
            .max_steps(10)
            .seed(7)
            .check_invariants(true);
        assert_eq!(c.vc_policy, VcPolicy::Static(3));
        assert_eq!(c.arbitration, Arbitration::Random);
        assert_eq!(c.engine, Engine::Legacy);
        let fully = RouteSelection::FullyAdaptive { misroute_quota: 9 };
        assert_eq!(c.route_selection, fully);
        assert_eq!(c.route_selection.misroute_budget(), 9);
        assert_eq!(c.max_steps, 10);
        assert_eq!(c.seed, 7);
        assert!(c.check_invariants);
    }

    #[test]
    #[should_panic(expected = "at least one virtual channel")]
    fn rejects_zero_vcs() {
        SimConfig::new(0);
    }

    #[test]
    fn parallel_engine_builder() {
        use wormhole_topology::graph::{GraphBuilder, NodeId};
        let mut b = GraphBuilder::new(4);
        for v in 0..3 {
            b.add_edge(NodeId(v), NodeId(v + 1));
        }
        let g = b.build();
        let plan = RegionPlan::contiguous(&g, 2);
        let c = SimConfig::new(1)
            .engine(Engine::Parallel { threads: 4 })
            .regions(plan.clone());
        assert_eq!(c.engine, Engine::Parallel { threads: 4 });
        assert_eq!(c.regions, Some(plan));
        assert_eq!(SimConfig::new(1).regions, None);
    }

    #[test]
    fn pooled_builder_roundtrip() {
        let p = VcPolicy::pooled(16, 1, 6);
        let c = SimConfig::new(2).vc_policy(p);
        assert_eq!(c.vc_policy, p);
        assert_eq!(p.max_per_edge(), 6);
        assert_eq!(p.name(), "pooled");
        assert_eq!(VcPolicy::Static(2).max_per_edge(), 2);
        assert_eq!(VcPolicy::Static(2).name(), "static");
    }

    #[test]
    #[should_panic(expected = "nonempty pool")]
    fn rejects_zero_pool() {
        VcPolicy::pooled(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "per_edge_min must be >= 1")]
    fn rejects_zero_floor() {
        VcPolicy::pooled(8, 0, 4);
    }

    #[test]
    #[should_panic(expected = "exceeds per_edge_max")]
    fn rejects_floor_above_cap() {
        VcPolicy::pooled(8, 3, 2);
    }

    #[test]
    #[should_panic(expected = "nonempty pool")]
    fn builder_validates_the_policy() {
        let _ = SimConfig::new(1).vc_policy(VcPolicy::RouterPooled {
            pool: 0,
            per_edge_min: 1,
            per_edge_max: 1,
        });
    }
}
