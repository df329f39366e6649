//! Per-hop adaptive route selection with Dally–Seitz escape channels.
//!
//! Oblivious routing fixes a message's path at injection; adaptive
//! routing extends it **one hop at a time** at the header, choosing among
//! candidate output channels by local state (the simulator uses VC
//! occupancy). Unrestricted adaptivity deadlocks, so we follow the
//! classic escape-channel recipe (Dally–Seitz datelines inside Duato's
//! framework):
//!
//! * every physical channel carries an **adaptive lane** (VC class 2 on
//!   an [`crate::mesh::RoutingDiscipline::AdaptiveEscape`] mesh) with no
//!   routing restriction, plus the two-class **escape pair** (classes
//!   0/1) routed by the dateline discipline of [`crate::dateline`];
//! * a header that finds every adaptive candidate full falls back to the
//!   escape network: it follows [`AdaptiveRouter::escape_route`] — the
//!   dateline-switched dimension-order path from its *current* node —
//!   and **never returns** to the adaptive lane;
//! * escape routes from arbitrary intermediate nodes are ordinary
//!   dateline routes, so the escape subnetwork's channel-dependency
//!   graph is a subgraph of the all-pairs dateline dependency graph —
//!   acyclic (proved by the dateline property tests, and re-proved for
//!   the three-class graph by `proptest_invariants`). In any blocked
//!   configuration every header waits on an escape channel, the wait
//!   chains strictly ascend that acyclic order, and therefore some worm
//!   can always move: deadlock is impossible by construction.
//!
//! The trait below is what the flit simulator programs against; `Mesh`
//! is its canonical implementation. The simulator side (route-selection
//! policies, occupancy tie-breaks, misroute budgets) lives in
//! `wormhole_flitsim::wormhole`.
//!
//! # Example
//!
//! ```
//! use wormhole_topology::adaptive::AdaptiveRouter;
//! use wormhole_topology::graph::NodeId;
//! use wormhole_topology::mesh::{Mesh, RoutingDiscipline};
//!
//! let t = Mesh::new_disciplined(4, 2, RoutingDiscipline::AdaptiveEscape);
//! let (at, dst) = (t.node(&[0, 0]), t.node(&[2, 1]));
//! let mut cand = Vec::new();
//! t.adaptive_candidates(at, dst, false, &mut cand);
//! // Dimension 0 sits at exactly half the ring (distance 2 either way),
//! // so both its directions are minimal; dimension 1 adds one more.
//! assert_eq!(cand.len(), 3);
//! let esc = t.escape_route(at, dst);
//! assert_eq!(esc.len(), 3); // minimal dateline continuation
//! assert!(esc.edges().iter().all(|&e| t.is_escape_edge(e)));
//! ```

use crate::graph::{EdgeId, Graph, NodeId};
use crate::mesh::Mesh;
use crate::path::Path;

/// A substrate that supports per-hop adaptive route selection over an
/// adaptive lane, backed by a deadlock-free escape subnetwork.
///
/// Implementations must guarantee:
///
/// 1. **Escape acyclicity** — the channel-dependency graph of the union
///    of all [`escape_route`](Self::escape_route)s (over every
///    `(at, dst)` pair) restricted to escape channels is acyclic;
/// 2. **Separation** — escape routes use only escape channels
///    ([`is_escape`](Self::is_escape)), and
///    [`candidates`](Self::candidates) yields only non-escape (adaptive
///    lane) channels, so a worm on its escape tail can never wait on an
///    adaptive channel;
/// 3. **Progress** — every profitable candidate strictly reduces the
///    distance to `dst`, and `escape_route(at, dst)` always reaches
///    `dst` (it is nonempty whenever `at != dst`).
///
/// Under those three properties the wormhole simulator's adaptive mode
/// is deadlock-free for any selection policy that falls back to the
/// escape hop when every adaptive candidate is full.
///
/// Every query must also be **pure for the whole run**:
/// [`candidates`](Self::candidates) and
/// [`escape_hop`](Self::escape_hop) depend on nothing but
/// `(at, dst, misroutes)`. All three of the simulator's engines rely on
/// it: a worm asks both **once per head position** — the first time it
/// selects where its header stands — and every later selection there,
/// every decision to park and every contest it enters while parked reads
/// the kept answer, on the grounds that it cannot have changed; so a
/// router is asked about as many times as headers move, not as many
/// times as they wait. A kept answer holds one slot per out-edge of the
/// node, so [`candidates`](Self::candidates) must offer each edge out of
/// `at` at most once. (`Mesh` computes both from coordinates;
/// `FaultedMesh` filters by the *whole* fault plan from step 0, not by
/// the kills applied so far.)
///
/// `Sync` is a supertrait because the parallel engine's workers share
/// one router across threads; every query takes `&self`, so routers are
/// immutable lookup structures and the bound costs implementors nothing.
pub trait AdaptiveRouter: Sync {
    /// The routing graph the simulator runs on.
    fn graph(&self) -> &Graph;

    /// Pushes the adaptive-lane candidate hops from `at` toward `dst` as
    /// `(edge, profitable)` pairs, in a deterministic order. With
    /// `misroutes` set, non-minimal hops are included (flagged
    /// unprofitable); the caller bounds their use.
    fn candidates(&self, at: NodeId, dst: NodeId, misroutes: bool, out: &mut Vec<(EdgeId, bool)>);

    /// The deadlock-free oblivious continuation from `at` to `dst` on
    /// the escape subnetwork. Empty iff `at == dst`.
    fn escape_route(&self, at: NodeId, dst: NodeId) -> Path;

    /// The first hop of [`escape_route`](Self::escape_route) — what a
    /// blocked header contends for when falling back. The default
    /// computes the full route; implementations should override with a
    /// constant-time version.
    fn escape_hop(&self, at: NodeId, dst: NodeId) -> EdgeId {
        self.escape_route(at, dst).edges()[0]
    }

    /// Whether `e` belongs to the escape subnetwork.
    fn is_escape(&self, e: EdgeId) -> bool;

    /// Whether no query ever offers `e`: neither a candidate nor a hop of
    /// an escape route. The simulator runs a fault plan under adaptive
    /// selection only if the router avoids every edge the plan kills —
    /// a worm then never holds, selects or waits on a dead edge. The
    /// default avoids nothing; `FaultedMesh` avoids its plan's dead set.
    fn avoids(&self, _e: EdgeId) -> bool {
        false
    }
}

impl AdaptiveRouter for Mesh {
    fn graph(&self) -> &Graph {
        Mesh::graph(self)
    }

    fn candidates(&self, at: NodeId, dst: NodeId, misroutes: bool, out: &mut Vec<(EdgeId, bool)>) {
        self.adaptive_candidates(at, dst, misroutes, out);
    }

    fn escape_route(&self, at: NodeId, dst: NodeId) -> Path {
        Mesh::escape_route(self, at, dst)
    }

    fn escape_hop(&self, at: NodeId, dst: NodeId) -> EdgeId {
        // First hop of the dateline path: lowest unresolved dimension,
        // minimal direction, always class 0 (a fresh escape entry is
        // before its dateline by definition; the class-1 switch can only
        // happen after the wrap hop is crossed).
        self.escape_first_hop(at, dst)
    }

    fn is_escape(&self, e: EdgeId) -> bool {
        self.is_escape_edge(e)
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

    #[test]
    fn candidates_are_adaptive_lane_only_and_profitable_reduce_distance() {
        // Even radix included: at exactly half-ring distance both
        // directions are minimal and must be flagged profitable.
        for radix in [4u32, 5] {
            candidates_contract(torus(radix, 2));
        }
    }

    fn candidates_contract(t: Mesh) {
        let g = AdaptiveRouter::graph(&t);
        let mut cand = Vec::new();
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                if s == d {
                    continue;
                }
                let (s, d) = (NodeId(s), NodeId(d));
                let dist = |v: NodeId| t.escape_route(v, d).len();
                for &mis in &[false, true] {
                    cand.clear();
                    t.candidates(s, d, mis, &mut cand);
                    assert!(!cand.is_empty(), "{s:?}->{d:?}");
                    for &(e, profitable) in &cand {
                        assert!(!t.is_escape(e), "candidate {e:?} is an escape edge");
                        assert_eq!(g.src(e), s);
                        let next = g.dst(e);
                        if profitable {
                            assert_eq!(dist(next), dist(s) - 1, "{s:?}->{d:?} via {e:?}");
                        } else {
                            assert!(mis, "unprofitable candidate without misroutes");
                            assert!(dist(next) >= dist(s));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn escape_hop_matches_escape_route_head() {
        for (radix, dims) in [(4u32, 1u32), (4, 2), (3, 3)] {
            let t = torus(radix, dims);
            for s in 0..t.num_nodes() {
                for d in 0..t.num_nodes() {
                    if s == d {
                        continue;
                    }
                    let (s, d) = (NodeId(s), NodeId(d));
                    assert_eq!(
                        AdaptiveRouter::escape_hop(&t, s, d),
                        t.escape_route(s, d).edges()[0],
                        "{radix}^{dims}: {s:?}->{d:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn escape_subgraph_is_acyclic_on_the_three_class_torus() {
        // The Duato condition: all-pairs escape routes — which is what a
        // worm can be following after falling back from any node — have
        // an acyclic channel-dependency graph. (The proptest suite
        // re-proves this over random radices/dims.)
        for (radix, dims) in [(6u32, 1u32), (4, 2)] {
            let t = torus(radix, dims);
            let mut paths = Vec::new();
            for s in 0..t.num_nodes() {
                for d in 0..t.num_nodes() {
                    if s != d {
                        paths.push(t.escape_route(NodeId(s), NodeId(d)));
                    }
                }
            }
            assert!(
                channel_dependency_graph(Mesh::graph(&t), &paths).is_acyclic(),
                "escape routes on {radix}^{dims} must be acyclic"
            );
        }
    }
}
