//! Fault plans and fault-aware routing: timed edge kills with a
//! deadlock-free escape network on the surviving topology.
//!
//! A [`FaultPlan`] is a validated list of timed edge kills. The
//! simulator (`wormhole-flitsim`) applies them as discrete events — a
//! killed channel stops accepting new virtual channels and every worm
//! holding or committed to it is discarded — while this module answers
//! the topology-side question: *which fault patterns leave the escape
//! network deadlock-free, and what do its routes look like afterwards?*
//!
//! # Escape-subgraph recomputation rule
//!
//! On a dateline torus the surviving escape network is **pre-partitioned
//! per dimension**: every escape route still corrects dimensions in
//! strictly ascending order, travels one fixed direction per ring, and
//! switches from class 0 to class 1 exactly after the hop leaving that
//! `(ring, direction)`'s dateline coordinate ([`Mesh::dateline_path`]'s
//! rule with the direction *forced* rather than minimal). Under those
//! three properties the channel-dependency graph stays acyclic on
//! **every** faulted torus this module accepts:
//!
//! * within one `(ring, direction)`, a route shorter than the full ring
//!   uses class-0 edges before its dateline and class-1 edges after, so
//!   dependencies only ascend the order `class-0 ring edges, then
//!   class-1 ring edges` — the single back-edge (class 1 into the
//!   dateline hop) is never used because no route crosses its dateline
//!   twice;
//! * across dimensions, dependencies point from lower to higher
//!   dimension only.
//!
//! The rule needs two structural guarantees, enforced by
//! [`FaultedMesh::new`]:
//!
//! 1. **whole-channel kills** — all VC classes of a physical channel
//!    share fate (a partial kill would let a route change direction
//!    mid-ring, breaking the fixed-direction argument);
//! 2. **per-ring connectivity** — each ring must keep every ordered pair
//!    of its nodes connected in *some* single direction. Writing `P` for
//!    the set of ring positions whose `+` channel died and `M` for those
//!    whose `−` channel died, the ring stays all-pairs routable iff
//!    `P = ∅`, or `M = ∅`, or `P` and `M` name the same single position
//!    (both directions of one physical link — the ring splits into one
//!    arc, still traversable around the long way in either direction).
//!
//! The seeded generator ([`FaultPlan::bernoulli_channels`]) only emits
//! plans satisfying both, so acyclicity — and with it deadlock freedom —
//! holds on every faulted topology it can produce (re-proved over random
//! tori by `proptest_invariants`).

use std::error::Error;
use std::fmt;

use rand::prelude::*;
use rand::rngs::StdRng;

use crate::adaptive::AdaptiveRouter;
use crate::graph::{EdgeId, Graph, NodeId};
use crate::mesh::Mesh;
use crate::path::Path;

/// One timed kill: `edge` dies at the start of step `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulation step at which the kill takes effect.
    pub at: u64,
    /// The directed edge that dies (a single physical link direction; on
    /// a multi-class mesh, one VC class of it — use whole-channel kills
    /// when the faulted escape network must stay deadlock-free).
    pub edge: EdgeId,
}

/// A validated schedule of kill events.
///
/// Build one with the fluent constructors and hand it to the simulator
/// via `SimConfig::faults`, or derive the end-of-plan surviving topology
/// with [`FaultPlan::dead_edges`] / [`FaultedMesh::new`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Errors reported by [`FaultPlan::validate`] and [`FaultedMesh::new`].
/// Every variant names the offending kill by its index in the plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// A kill names an edge id the graph does not have.
    UnknownLink {
        /// Index of the offending event in the plan.
        kill: usize,
        /// The out-of-range edge id.
        edge: u32,
        /// Number of edges in the graph.
        num_edges: usize,
    },
    /// The same edge is killed twice.
    DuplicateKill {
        /// Index of the later (offending) event.
        kill: usize,
        /// Index of the earlier event with the same edge.
        first: usize,
        /// The doubly-killed edge id.
        edge: u32,
    },
    /// On a mesh, a kill took some VC classes of a physical channel but
    /// not all of them. The faulted escape network's acyclicity proof
    /// needs whole-channel kills (all classes share fate).
    PartialChannelKill {
        /// Router the channel leaves.
        node: u32,
        /// Dimension of the channel.
        dim: u32,
        /// `true` for the `−` direction.
        minus: bool,
        /// A dead class edge of the channel.
        dead_edge: u32,
        /// A surviving class edge of the same channel.
        alive_edge: u32,
    },
    /// The kills disconnect a ring of the mesh: some ordered node pair
    /// on the ring is no longer reachable in either single direction, so
    /// no fixed-direction escape route exists.
    RingSevered {
        /// Dimension of the severed ring.
        dim: u32,
        /// A node on the severed ring (identifies it).
        ring_node: u32,
        /// A ring position whose `+` channel died.
        plus_at: u32,
        /// A different ring position whose `−` channel died.
        minus_at: u32,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::UnknownLink {
                kill,
                edge,
                num_edges,
            } => write!(
                f,
                "kill #{kill}: unknown link {edge} (graph has {num_edges} edges)"
            ),
            FaultError::DuplicateKill { kill, first, edge } => write!(
                f,
                "kill #{kill}: duplicate kill of link {edge} (first killed by kill #{first})"
            ),
            FaultError::PartialChannelKill {
                node,
                dim,
                minus,
                dead_edge,
                alive_edge,
            } => write!(
                f,
                "partial channel kill at router {node}, dim {dim}, {} direction: \
                 link {dead_edge} is dead but same-channel link {alive_edge} survives \
                 (escape deadlock freedom needs whole-channel kills)",
                if *minus { "-" } else { "+" }
            ),
            FaultError::RingSevered {
                dim,
                ring_node,
                plus_at,
                minus_at,
            } => write!(
                f,
                "ring through router {ring_node} in dim {dim} is severed: \
                 dead + channel at position {plus_at} and dead - channel at \
                 position {minus_at} leave some pairs unreachable in either direction"
            ),
        }
    }
}

impl Error for FaultError {}

impl FaultPlan {
    /// An empty plan (no kills).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a link kill at step `at`.
    pub fn kill_link(mut self, at: u64, edge: EdgeId) -> Self {
        self.events.push(FaultEvent { at, edge });
        self
    }

    /// Adds link kills for every class edge of the physical channel
    /// `(coords, dim, ±)` of `mesh` at step `at` — the whole-channel
    /// granularity [`FaultedMesh`] requires ([partial-channel
    /// kills](FaultError::PartialChannelKill) are rejected there).
    pub fn kill_channel(
        mut self,
        at: u64,
        mesh: &Mesh,
        coords: &[u32],
        dim: u32,
        minus: bool,
    ) -> Self {
        let v = mesh.node(coords);
        for class in 0..mesh.classes() {
            self = self.kill_link(at, mesh.step_edge(v, dim, minus, class));
        }
        self
    }

    /// The kill events in plan order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` if the plan kills nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every event against `graph`: edges must exist and no edge
    /// may be killed twice.
    pub fn validate(&self, graph: &Graph) -> Result<(), FaultError> {
        for (i, ev) in self.events.iter().enumerate() {
            if ev.edge.idx() >= graph.num_edges() {
                return Err(FaultError::UnknownLink {
                    kill: i,
                    edge: ev.edge.0,
                    num_edges: graph.num_edges(),
                });
            }
            if let Some(first) = self.events[..i].iter().position(|p| p.edge == ev.edge) {
                return Err(FaultError::DuplicateKill {
                    kill: i,
                    first,
                    edge: ev.edge.0,
                });
            }
        }
        Ok(())
    }

    /// The end-of-plan dead set: `dead[e]` is `true` iff some event kills
    /// edge `e`. The plan must already be valid for `graph`.
    pub fn dead_edges(&self, graph: &Graph) -> Vec<bool> {
        let mut dead = vec![false; graph.num_edges()];
        for ev in &self.events {
            dead[ev.edge.idx()] = true;
        }
        dead
    }

    /// The plan as a kill schedule of `(at, edge)` sorted by time, then
    /// edge. The plan must already be valid (no edge killed twice).
    pub fn edge_schedule(&self) -> Vec<(u64, u32)> {
        let mut sched: Vec<(u64, u32)> = self.events.iter().map(|ev| (ev.at, ev.edge.0)).collect();
        sched.sort_unstable();
        sched
    }

    /// Ring-safe Bernoulli channel failures on a torus: each
    /// physical channel (a `(node, dim, ±)` link bundle — **all** VC
    /// classes) proposes death with probability `p` at a uniform time in
    /// `1..=horizon`, then per ring only the earliest proposal survives
    /// (breaking ties toward lower position, `+` before `−`) — plus, if
    /// proposed, the opposite direction of the *same* physical link.
    /// Every emitted plan therefore satisfies [`FaultedMesh`]'s
    /// whole-channel and ring-connectivity rules by construction: the
    /// faulted escape network is deadlock-free.
    pub fn bernoulli_channels(mesh: &Mesh, p: f64, horizon: u64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        assert!(horizon >= 1, "horizon must be at least 1");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut propose = || rng.random_bool(p).then(|| rng.random_range(1..=horizon));
        let radix = mesh.radix();
        let mut plan = Self::new();
        for d in 0..mesh.dims() {
            for base in ring_bases(mesh, d) {
                // Draw one proposal per (position, direction) of this ring.
                // Boundary b sits between ring coords b and b+1: the `+`
                // channel at b leaves coord b, the `−` channel at b leaves
                // coord b+1.
                let mut proposals: Vec<(u64, u32, bool)> = Vec::new(); // (at, boundary, minus)
                for c in 0..radix {
                    if let Some(at) = propose() {
                        proposals.push((at, c, false)); // + channel leaving c = boundary c
                    }
                    if let Some(at) = propose() {
                        // − channel leaving coord c covers boundary c−1.
                        proposals.push((at, (c + radix - 1) % radix, true));
                    }
                }
                let Some(&(_, boundary, _)) =
                    proposals.iter().min_by_key(|&&(at, b, m)| (at, b, m))
                else {
                    continue;
                };
                for &(at, b, minus) in &proposals {
                    if b != boundary {
                        continue; // ring rule: one physical boundary at most
                    }
                    // + channel of boundary b leaves coord b; − channel of
                    // boundary b leaves coord b+1.
                    let coord = if minus { (b + 1) % radix } else { b };
                    let v = ring_node(mesh, base, d, coord);
                    for class in 0..mesh.classes() {
                        plan = plan.kill_link(at, mesh.step_edge(v, d, minus, class));
                    }
                }
            }
        }
        plan
    }
}

/// The base nodes (coordinate 0 in dimension `d`) of every ring along
/// dimension `d`.
fn ring_bases(mesh: &Mesh, d: u32) -> Vec<NodeId> {
    (0..mesh.num_nodes())
        .map(NodeId)
        .filter(|&v| mesh.coord(v, d) == 0)
        .collect()
}

/// The node of `base`'s ring (dimension `d`) at ring coordinate `c`.
fn ring_node(mesh: &Mesh, base: NodeId, d: u32, c: u32) -> NodeId {
    let mut coords = mesh.coords(base);
    coords[d as usize] = c;
    mesh.node(&coords)
}

/// A mesh with a validated fault pattern applied: the fault-aware
/// [`AdaptiveRouter`] of the tentpole.
///
/// Construction re-checks the two structural rules the faulted escape
/// network's deadlock-freedom proof needs (whole-channel kills, per-ring
/// connectivity — see the module docs); [`FaultedMesh::escape_route`]
/// then produces per-dimension dateline routes on the surviving torus,
/// forcing the non-minimal direction around any ring whose minimal arc
/// is dead. Adaptive candidates are the underlying mesh's with dead
/// edges filtered out.
#[derive(Debug)]
pub struct FaultedMesh<'a> {
    mesh: &'a Mesh,
    dead: Vec<bool>,
}

impl<'a> FaultedMesh<'a> {
    /// Applies `plan`'s end state to `mesh`, validating the plan against
    /// the graph and the escape network's survival rules.
    pub fn new(mesh: &'a Mesh, plan: &FaultPlan) -> Result<Self, FaultError> {
        plan.validate(mesh.graph())?;
        let dead = plan.dead_edges(mesh.graph());
        let fm = Self { mesh, dead };
        fm.check_whole_channels()?;
        fm.check_rings()?;
        Ok(fm)
    }

    /// The underlying (unfaulted) mesh.
    pub fn mesh(&self) -> &Mesh {
        self.mesh
    }

    /// The per-edge dead set.
    pub fn dead(&self) -> &[bool] {
        &self.dead
    }

    /// Whether the whole physical channel `(v, d, ±)` is dead (classes
    /// share fate after validation, so class 0 is representative).
    fn channel_dead(&self, v: NodeId, d: u32, minus: bool) -> bool {
        self.dead[self.mesh.step_edge(v, d, minus, 0).idx()]
    }

    fn check_whole_channels(&self) -> Result<(), FaultError> {
        let m = self.mesh;
        for v in (0..m.num_nodes()).map(NodeId) {
            for d in 0..m.dims() {
                for minus in [false, true] {
                    let mut dead_e = None;
                    let mut alive_e = None;
                    for class in 0..m.classes() {
                        let e = m.step_edge(v, d, minus, class);
                        if self.dead[e.idx()] {
                            dead_e.get_or_insert(e);
                        } else {
                            alive_e.get_or_insert(e);
                        }
                    }
                    if let (Some(de), Some(ae)) = (dead_e, alive_e) {
                        return Err(FaultError::PartialChannelKill {
                            node: v.0,
                            dim: d,
                            minus,
                            dead_edge: de.0,
                            alive_edge: ae.0,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn check_rings(&self) -> Result<(), FaultError> {
        let m = self.mesh;
        let radix = m.radix();
        for d in 0..m.dims() {
            for base in ring_bases(m, d) {
                // Collect dead boundaries per direction. Boundary b lies
                // between ring coords b and b+1 (mod radix); the `+`
                // channel at coord c covers boundary c, the `−` channel
                // at coord c covers boundary c−1.
                let mut plus: Vec<u32> = Vec::new();
                let mut minus: Vec<u32> = Vec::new();
                for c in 0..radix {
                    let v = ring_node(m, base, d, c);
                    if self.channel_dead(v, d, false) {
                        plus.push(c);
                    }
                    if self.channel_dead(v, d, true) {
                        minus.push((c + radix - 1) % radix);
                    }
                }
                // All-pairs single-direction reachability on a ring: fine
                // iff one direction is fully alive, or both dead sets name
                // the same single physical boundary.
                let ok = plus.is_empty()
                    || minus.is_empty()
                    || (plus.len() == 1 && minus.len() == 1 && plus[0] == minus[0]);
                if !ok {
                    // Name a witness pair of distinct boundaries.
                    let p = plus[0];
                    let q = minus.iter().copied().find(|&b| b != p).unwrap_or(minus[0]);
                    return Err(FaultError::RingSevered {
                        dim: d,
                        ring_node: base.0,
                        plus_at: p,
                        minus_at: q,
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether the whole directed arc from coordinate `have` to `want`
    /// (exclusive) of `at`'s ring in dimension `d` is alive in direction
    /// `minus`.
    fn arc_alive(&self, at: NodeId, d: u32, have: u32, want: u32, minus: bool) -> bool {
        let m = self.mesh;
        let mut cur = at;
        let mut c = have;
        while c != want {
            let e = m.step_edge(cur, d, minus, 0);
            if self.dead[e.idx()] {
                return false;
            }
            cur = m.graph().dst(e);
            c = m.coord(cur, d);
        }
        true
    }

    /// The surviving travel direction from `have` to `want` on `at`'s
    /// ring in dimension `d`: minimal if its whole arc is alive, else
    /// the long way around (validation guarantees one direction works).
    fn surviving_direction(&self, at: NodeId, d: u32, have: u32, want: u32) -> bool {
        let m = self.mesh;
        let minimal = m.travels_minus(have, want);
        if self.arc_alive(at, d, have, want, minimal) {
            minimal
        } else {
            debug_assert!(
                self.arc_alive(at, d, have, want, !minimal),
                "ring validated connected but both arcs dead"
            );
            !minimal
        }
    }
}

impl AdaptiveRouter for FaultedMesh<'_> {
    fn graph(&self) -> &Graph {
        self.mesh.graph()
    }

    fn candidates(&self, at: NodeId, dst: NodeId, misroutes: bool, out: &mut Vec<(EdgeId, bool)>) {
        self.mesh.adaptive_candidates(at, dst, misroutes, out);
        out.retain(|&(e, _)| !self.dead[e.idx()]);
    }

    /// Per-dimension dateline route on the surviving torus: dimensions
    /// corrected in ascending order, one forced direction per ring
    /// (minimal when its arc survives), class 0 → 1 exactly after the
    /// hop leaving that `(ring, direction)`'s dateline coordinate — the
    /// pre-partitioned escape rule whose dependency graph is acyclic on
    /// every validated fault pattern (module docs).
    fn escape_route(&self, at: NodeId, dst: NodeId) -> Path {
        let m = self.mesh;
        let path = m.ring_walk(at, dst, m.classes() >= 2, |cur, d, have, want| {
            self.surviving_direction(cur, d, have, want)
        });
        debug_assert!(
            path.edges().iter().all(|e| !self.dead[e.idx()]),
            "escape route crossed a dead edge"
        );
        path
    }

    fn is_escape(&self, e: EdgeId) -> bool {
        self.mesh.is_escape_edge(e)
    }

    fn avoids(&self, e: EdgeId) -> bool {
        self.dead[e.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dateline::channel_dependency_graph;
    use crate::mesh::RoutingDiscipline;

    fn torus(radix: u32, dims: u32) -> Mesh {
        Mesh::new_disciplined(radix, dims, RoutingDiscipline::AdaptiveEscape)
    }

    /// Kills all classes of the physical channel `(coords, d, ±)`.
    fn kill_channel(
        plan: FaultPlan,
        m: &Mesh,
        at: u64,
        coords: &[u32],
        d: u32,
        minus: bool,
    ) -> FaultPlan {
        plan.kill_channel(at, m, coords, d, minus)
    }

    #[test]
    fn validate_names_the_offending_kill() {
        let m = torus(4, 1);
        let g = m.graph();
        let bad = FaultPlan::new().kill_link(3, EdgeId(g.num_edges() as u32));
        let err = bad.validate(g).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("kill #0"), "{msg}");
        assert!(msg.contains("unknown link"), "{msg}");

        let dup = FaultPlan::new()
            .kill_link(1, EdgeId(0))
            .kill_link(5, EdgeId(0));
        let msg = dup.validate(g).unwrap_err().to_string();
        assert!(msg.contains("kill #1"), "{msg}");
        assert!(msg.contains("duplicate kill of link 0"), "{msg}");
        assert!(msg.contains("kill #0"), "{msg}");
    }

    #[test]
    fn partial_channel_kill_rejected() {
        let m = torus(4, 2);
        // Kill only class 0 of a channel: classes 1 and 2 survive.
        let e0 = m.step_edge(NodeId(0), 0, false, 0);
        let plan = FaultPlan::new().kill_link(2, e0);
        let err = FaultedMesh::new(&m, &plan).unwrap_err();
        assert!(
            matches!(err, FaultError::PartialChannelKill { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("whole-channel"), "{err}");
    }

    #[test]
    fn severed_ring_rejected_and_single_boundary_accepted() {
        let m = torus(5, 1);
        // Distinct boundaries, opposite directions: + at coord 0 (boundary
        // 0) and − at coord 3 (boundary 2) → pairs straddling both are cut.
        let plan = kill_channel(FaultPlan::new(), &m, 1, &[0], 0, false);
        let plan = kill_channel(plan, &m, 1, &[3], 0, true);
        let err = FaultedMesh::new(&m, &plan).unwrap_err();
        assert!(matches!(err, FaultError::RingSevered { .. }), "{err:?}");

        // Same physical boundary both directions (between coords 1 and 2):
        // + leaving 1, − leaving 2. Ring becomes one arc — still fine.
        let plan = kill_channel(FaultPlan::new(), &m, 1, &[1], 0, false);
        let plan = kill_channel(plan, &m, 1, &[2], 0, true);
        let fm = FaultedMesh::new(&m, &plan).unwrap();
        // Every pair still has an escape route avoiding dead edges.
        for s in 0..5u32 {
            for t in 0..5u32 {
                if s == t {
                    continue;
                }
                let p = fm.escape_route(NodeId(s), NodeId(t));
                p.validate(m.graph()).unwrap();
                assert!(p.edges().iter().all(|&e| !fm.dead()[e.idx()]));
            }
        }
    }

    #[test]
    fn faulted_escape_routes_stay_acyclic() {
        for (radix, dims) in [(6u32, 1u32), (4, 2), (3, 3)] {
            let m = torus(radix, dims);
            // One dead + channel per dimension-0 ring coordinate 1.
            let mut plan = FaultPlan::new();
            let mut coords = vec![0u32; dims as usize];
            coords[0] = 1;
            plan = kill_channel(plan, &m, 1, &coords, 0, false);
            let fm = FaultedMesh::new(&m, &plan).unwrap();
            let mut paths = Vec::new();
            for s in 0..m.num_nodes() {
                for t in 0..m.num_nodes() {
                    if s != t {
                        let p = fm.escape_route(NodeId(s), NodeId(t));
                        assert!(p.edges().iter().all(|&e| !fm.dead()[e.idx()]));
                        assert!(p.edges().iter().all(|&e| m.is_escape_edge(e)));
                        paths.push(p);
                    }
                }
            }
            assert!(
                channel_dependency_graph(m.graph(), &paths).is_acyclic(),
                "faulted escape routes on {radix}^{dims} must stay acyclic"
            );
        }
    }

    /// A ring whose minimal arc is dead sends the escape walk the long way
    /// around: past the minimal length the walk's path is sized for, still
    /// contiguous, on the right endpoints and clear of the dead channel.
    #[test]
    fn a_long_way_escape_route_outgrows_the_minimal_walk_and_avoids_the_dead_channel() {
        for (radix, dims) in [(6u32, 1u32), (5, 2), (7, 3)] {
            let m = torus(radix, dims);
            let g = m.graph();
            // The `+` channel leaving coordinate 1 on dimension 0's ring.
            let mut from = vec![0u32; dims as usize];
            from[0] = 1;
            let plan = kill_channel(FaultPlan::new(), &m, 1, &from, 0, false);
            let fm = FaultedMesh::new(&m, &plan).unwrap();
            // 1 → 3 in dimension 0 is two hops `+`, across the dead
            // channel; every other dimension moves 0 → 2.
            let mut to = vec![2u32; dims as usize];
            to[0] = 3;
            let (s, t) = (m.node(&from), m.node(&to));
            let p = fm.escape_route(s, t);
            p.validate(g).unwrap();
            assert_eq!((p.src(g), p.dst(g)), (s, t));
            assert!(p.edges().iter().all(|&e| !fm.dead()[e.idx()]));
            let minimal = m.route(s, t).len();
            assert_eq!(minimal, 2 * dims as usize);
            assert_eq!(p.len(), minimal + (radix as usize - 4), "{radix}^{dims}");
            assert!(p.len() > minimal, "{radix}^{dims}");
        }
    }

    #[test]
    fn candidates_filter_dead_edges() {
        let m = torus(4, 2);
        let plan = kill_channel(FaultPlan::new(), &m, 1, &[0, 0], 0, false);
        let fm = FaultedMesh::new(&m, &plan).unwrap();
        let mut cand = Vec::new();
        fm.candidates(m.node(&[0, 0]), m.node(&[1, 1]), true, &mut cand);
        assert!(!cand.is_empty());
        assert!(cand.iter().all(|&(e, _)| !fm.dead()[e.idx()]));
        // It avoids exactly the plan's kills; the plain mesh avoids none.
        for e in m.graph().edges() {
            assert_eq!(fm.avoids(e), plan.events().iter().any(|ev| ev.edge == e));
            assert!(!m.avoids(e));
        }
        // The unfaulted mesh offers strictly more candidates here.
        let mut full = Vec::new();
        m.adaptive_candidates(m.node(&[0, 0]), m.node(&[1, 1]), true, &mut full);
        assert!(full.len() > cand.len());
    }

    #[test]
    fn ring_safe_generators_always_yield_valid_faulted_meshes() {
        for seed in 0..20u64 {
            for (radix, dims) in [(4u32, 1u32), (4, 2), (3, 3)] {
                let m = torus(radix, dims);
                let plan = FaultPlan::bernoulli_channels(&m, 0.3, 100, seed);
                FaultedMesh::new(&m, &plan)
                    .unwrap_or_else(|e| panic!("seed {seed} {radix}^{dims}: {e}"));
            }
        }
        // And reproducible: same seed, same plan.
        let m = torus(4, 2);
        assert_eq!(
            FaultPlan::bernoulli_channels(&m, 0.3, 50, 9),
            FaultPlan::bernoulli_channels(&m, 0.3, 50, 9)
        );
    }
}
