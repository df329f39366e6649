//! Uniform endpoint-indexed view over the network substrates.
//!
//! Synthetic traffic patterns are defined on a dense endpoint space
//! `0..endpoints()`; each substrate maps endpoints onto its own node ids
//! and supplies its canonical oblivious route:
//!
//! * **butterfly** — endpoints are the `n = 2^k` columns; endpoint `s`
//!   injects at input `(s, 0)` and endpoint `d` receives at output
//!   `(d, k)`, connected by the unique greedy path;
//! * **Beneš** — endpoints are the `n = 2^k` terminals; endpoint `s`
//!   injects at level 0 and endpoint `d` receives at level `2k`, routed
//!   through the canonical mid-column `s ^ d`;
//! * **torus** — endpoints are the nodes, routed dimension-order
//!   (e-cube); a torus can opt into the Dally–Seitz dateline discipline
//!   ([`Substrate::torus_with`]), which doubles every physical channel
//!   into a class-0/class-1 edge pair and switches class at each
//!   dimension's dateline, making the routes deadlock-free by
//!   construction;
//! * **hypercube** — endpoints are the nodes, routed e-cube.

use wormhole_topology::benes::BenesNetwork;
use wormhole_topology::butterfly::Butterfly;
use wormhole_topology::graph::{Graph, NodeId};
use wormhole_topology::hypercube::Hypercube;
use wormhole_topology::mesh::{Mesh, RoutingDiscipline};
use wormhole_topology::path::Path;
use wormhole_topology::region::RegionPlan;

/// A network with a dense endpoint space and an oblivious routing function.
#[derive(Clone, Debug)]
pub enum Substrate {
    /// One-pass butterfly; endpoints are columns (inputs ↦ outputs).
    Butterfly(Butterfly),
    /// Beneš network; endpoints are terminals (inputs ↦ outputs).
    Benes(BenesNetwork),
    /// Torus; endpoints are nodes.
    Mesh(Mesh),
    /// Hypercube; endpoints are nodes.
    Hypercube(Hypercube),
}

impl Substrate {
    /// A `2^k`-input one-pass butterfly.
    pub fn butterfly(k: u32) -> Self {
        Substrate::Butterfly(Butterfly::new(k))
    }

    /// A `2^k`-terminal Beneš network (`2k` edge levels), routed
    /// obliviously: the message from `s` to `d` takes the canonical
    /// mid-column `s ^ d` at the central level, which makes the route a
    /// pure function of the endpoints (like the butterfly's greedy path)
    /// while still spreading distinct destination streams over distinct
    /// middle columns. Like every leveled network, the routing graph is
    /// feedforward — the analytic bound backend accepts it.
    pub fn benes(k: u32) -> Self {
        Substrate::Benes(BenesNetwork::new(k))
    }

    /// A `radix`-ary `dims`-dimensional torus with naive (single-class)
    /// dimension-order routing — deadlock-prone under wormhole switching.
    pub fn torus(radix: u32, dims: u32) -> Self {
        Self::torus_with(radix, dims, RoutingDiscipline::Naive)
    }

    /// A `radix`-ary `dims`-dimensional torus under an explicit
    /// [`RoutingDiscipline`]: [`RoutingDiscipline::DatelineClasses`]
    /// builds the two-class routing graph and routes with the
    /// per-dimension dateline switch (deadlock-free by construction);
    /// [`RoutingDiscipline::AdaptiveEscape`] adds a third, adaptive VC
    /// lane on every physical channel for per-hop adaptive route
    /// selection (`wormhole_flitsim::config::RouteSelection`), with the
    /// dateline pair serving as its escape network. The canonical
    /// [`Substrate::route`] stays the oblivious dateline route either
    /// way — adaptive runs read only its endpoints.
    pub fn torus_with(radix: u32, dims: u32, discipline: RoutingDiscipline) -> Self {
        Substrate::Mesh(Mesh::new_disciplined(radix, dims, discipline))
    }

    /// The underlying [`Mesh`], when this substrate is a torus — the
    /// [`wormhole_topology::adaptive::AdaptiveRouter`] implementation an
    /// adaptive simulation runs against.
    pub fn as_mesh(&self) -> Option<&Mesh> {
        match self {
            Substrate::Mesh(m) => Some(m),
            _ => None,
        }
    }

    /// A `2^dim`-node hypercube.
    pub fn hypercube(dim: u32) -> Self {
        Substrate::Hypercube(Hypercube::new(dim))
    }

    /// Number of traffic endpoints.
    pub fn endpoints(&self) -> u32 {
        match self {
            Substrate::Butterfly(bf) => bf.n_inputs(),
            Substrate::Benes(bn) => bn.n(),
            Substrate::Mesh(m) => m.num_nodes(),
            Substrate::Hypercube(h) => h.num_nodes(),
        }
    }

    /// The underlying simulation graph.
    pub fn graph(&self) -> &Graph {
        match self {
            Substrate::Butterfly(bf) => bf.graph(),
            Substrate::Benes(bn) => bn.graph(),
            Substrate::Mesh(m) => m.graph(),
            Substrate::Hypercube(h) => h.graph(),
        }
    }

    /// The routing discipline in force (non-torus substrates are
    /// [`RoutingDiscipline::Naive`]: their canonical routes are already
    /// deadlock-free or the naive arm by definition).
    pub fn discipline(&self) -> RoutingDiscipline {
        match self {
            Substrate::Mesh(m) => m.discipline(),
            _ => RoutingDiscipline::Naive,
        }
    }

    /// The canonical oblivious route between two endpoints under the
    /// substrate's discipline. Empty exactly when the substrate is
    /// node-based and `src == dst` (a butterfly always crosses its `k`
    /// levels, even within one column).
    ///
    /// Panics on out-of-range endpoints — a hard `assert!` even in
    /// release builds, because an out-of-range id on a node-based
    /// substrate would otherwise silently route to the wrong node (this
    /// is a cold path; the check is free in practice).
    pub fn route(&self, src: u32, dst: u32) -> Path {
        assert!(
            src < self.endpoints() && dst < self.endpoints(),
            "endpoint out of range: {src} -> {dst} on {}",
            self.name()
        );
        match self {
            Substrate::Butterfly(bf) => bf.greedy_path(src, dst),
            Substrate::Benes(bn) => bn.path(src, src ^ dst, dst),
            Substrate::Mesh(m) => m.route(NodeId(src), NodeId(dst)),
            Substrate::Hypercube(h) => h.ecube_path(NodeId(src), NodeId(dst)),
        }
    }

    /// The canonical route if it survives `dead`, or an alternative that
    /// does — `None` when every route this substrate can offer crosses a
    /// dead edge.
    ///
    /// Only the Beneš network has oblivious path diversity to spend: it
    /// tries the canonical mid-column `src ^ dst` first, then every
    /// other mid-column in ascending order, and returns the first fully
    /// alive route. The butterfly's input→output path is unique, and the
    /// torus/hypercube canonical routes are fixed by their
    /// discipline (adaptive runs route around faults per hop *inside*
    /// the simulator instead), so those substrates return the canonical
    /// route or nothing.
    pub fn route_avoiding(&self, src: u32, dst: u32, dead: &[bool]) -> Option<Path> {
        let alive = |p: &Path| p.edges().iter().all(|&e| !dead[e.idx()]);
        match self {
            Substrate::Benes(bn) => {
                let canonical = src ^ dst;
                std::iter::once(canonical)
                    .chain((0..bn.n()).filter(|&mid| mid != canonical))
                    .map(|mid| bn.path(src, mid, dst))
                    .find(alive)
            }
            _ => {
                let p = self.route(src, dst);
                alive(&p).then_some(p)
            }
        }
    }

    /// Whether a `src → dst` pair injects a message. Node-based substrates
    /// skip self-traffic (the route is empty); the butterfly and Beneš
    /// route every pair, including same-terminal ones (the route always
    /// crosses every level).
    pub fn injects(&self, src: u32, dst: u32) -> bool {
        matches!(self, Substrate::Butterfly(_) | Substrate::Benes(_)) || src != dst
    }

    /// A [`RegionPlan`] with (at most) `k` regions whose cuts respect
    /// this substrate's geometry, for the partitioned parallel engine
    /// (`wormhole_flitsim::config::Engine::Parallel`):
    ///
    /// * **torus** — region boundaries fall on whole coordinate planes of
    ///   the last (highest-stride) dimension, so each region is a slab
    ///   and only the slab-face channels (wraparound included) cross the
    ///   cut;
    /// * **butterfly / Beneš** — boundaries fall on whole levels
    ///   (node ids are level-major), so regions are stage groups and
    ///   only inter-stage channels cross;
    /// * **hypercube** — plain contiguous index ranges (halving the id
    ///   range splits on the top address bit, i.e. into subcubes).
    ///
    /// `k` is clamped to the number of alignable blocks; the plan is
    /// never empty. Alignment only shapes the cut — any plan is correct,
    /// aligned plans just minimize cross-region traffic.
    pub fn region_plan(&self, k: u32) -> RegionPlan {
        let g = self.graph();
        let align = match self {
            Substrate::Butterfly(bf) => bf.n_inputs(),
            Substrate::Benes(bn) => bn.n(),
            Substrate::Mesh(m) => m.num_nodes() / m.radix(),
            Substrate::Hypercube(_) => 1,
        };
        RegionPlan::contiguous_aligned(g, k, align)
    }

    /// Short human-readable name for tables.
    pub fn name(&self) -> String {
        match self {
            Substrate::Butterfly(bf) => format!("butterfly(n={})", bf.n_inputs()),
            Substrate::Benes(bn) => format!("benes(n={})", bn.n()),
            Substrate::Mesh(m) if m.classes() > 1 => {
                format!(
                    "torus({}^{},{})",
                    m.radix(),
                    m.dims(),
                    m.discipline().name()
                )
            }
            Substrate::Mesh(m) => format!("torus({}^{})", m.radix(), m.dims()),
            Substrate::Hypercube(h) => format!("hypercube(2^{})", h.dim()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_counts() {
        assert_eq!(Substrate::butterfly(4).endpoints(), 16);
        assert_eq!(Substrate::benes(3).endpoints(), 8);
        assert_eq!(Substrate::torus(3, 3).endpoints(), 27);
        assert_eq!(Substrate::hypercube(5).endpoints(), 32);
    }

    #[test]
    fn routes_are_valid_paths() {
        for s in [
            Substrate::butterfly(3),
            Substrate::benes(2),
            Substrate::torus(3, 2),
            Substrate::torus(4, 2),
            Substrate::torus_with(4, 2, RoutingDiscipline::DatelineClasses),
            Substrate::torus_with(4, 2, RoutingDiscipline::AdaptiveEscape),
            Substrate::hypercube(3),
        ] {
            let n = s.endpoints();
            for src in 0..n {
                for dst in 0..n {
                    if !s.injects(src, dst) {
                        continue;
                    }
                    let p = s.route(src, dst);
                    assert!(!p.is_empty(), "{}: {src}->{dst} empty", s.name());
                    p.validate(s.graph()).unwrap();
                }
            }
        }
    }

    #[test]
    fn region_plans_respect_geometry() {
        // Butterfly stages: k=3 → 16 nodes in 4 levels of 4; a 2-region
        // plan cuts between levels, so only one level's out-channels
        // (2·n_inputs wires after class-free dedup = 8 edges) cross.
        let bf = Substrate::butterfly(2);
        let p = bf.region_plan(2);
        assert_eq!(p.num_regions(), 2);
        assert_eq!(p.cross_edges(), 2 * bf.endpoints() as u64);
        // Torus slabs: 4x4 with k=4 → one row per region; every edge in
        // the first dimension stays inside its slab.
        let t = Substrate::torus_with(4, 2, RoutingDiscipline::DatelineClasses);
        let p = t.region_plan(4);
        assert_eq!(p.num_regions(), 4);
        // k beyond the alignable block count clamps instead of panicking.
        let p = t.region_plan(64);
        assert_eq!(p.num_regions(), 4);
        // Hypercube halves are subcubes.
        let p = Substrate::hypercube(4).region_plan(2);
        assert_eq!(p.num_regions(), 2);
        assert_eq!(p.node_regions()[7], 0);
        assert_eq!(p.node_regions()[8], 1);
    }

    #[test]
    fn butterfly_routes_self_traffic_mesh_does_not() {
        let bf = Substrate::butterfly(3);
        assert!(bf.injects(2, 2));
        assert_eq!(bf.route(2, 2).len(), 3);
        let m = Substrate::torus(3, 2);
        assert!(!m.injects(4, 4));
    }

    #[test]
    fn benes_routes_connect_terminals_and_feedforward() {
        let s = Substrate::benes(3);
        let Substrate::Benes(bn) = &s else {
            unreachable!()
        };
        let g = s.graph();
        assert!(g.is_feedforward());
        for src in 0..8 {
            for dst in 0..8 {
                assert!(s.injects(src, dst), "Beneš routes every pair");
                let p = s.route(src, dst);
                assert_eq!(p.len(), 6, "2k edge levels");
                assert_eq!(p.src(g), bn.input(src));
                assert_eq!(p.dst(g), bn.output(dst));
            }
        }
    }

    #[test]
    fn names_render() {
        assert_eq!(Substrate::butterfly(3).name(), "butterfly(n=8)");
        assert_eq!(Substrate::benes(3).name(), "benes(n=8)");
        assert_eq!(Substrate::torus(4, 2).name(), "torus(4^2)");
        assert_eq!(
            Substrate::torus_with(4, 2, RoutingDiscipline::DatelineClasses).name(),
            "torus(4^2,dateline)"
        );
        assert_eq!(
            Substrate::torus_with(4, 2, RoutingDiscipline::AdaptiveEscape).name(),
            "torus(4^2,adaptive)"
        );
        assert_eq!(Substrate::hypercube(4).name(), "hypercube(2^4)");
    }

    #[test]
    fn as_mesh_exposes_the_adaptive_router() {
        let s = Substrate::torus_with(4, 2, RoutingDiscipline::AdaptiveEscape);
        let m = s.as_mesh().expect("torus is mesh-based");
        assert_eq!(m.discipline(), RoutingDiscipline::AdaptiveEscape);
        assert!(Substrate::butterfly(3).as_mesh().is_none());
    }

    #[test]
    fn discipline_is_exposed() {
        assert_eq!(
            Substrate::torus(4, 2).discipline(),
            RoutingDiscipline::Naive
        );
        assert_eq!(
            Substrate::torus_with(4, 2, RoutingDiscipline::DatelineClasses).discipline(),
            RoutingDiscipline::DatelineClasses
        );
        assert_eq!(
            Substrate::butterfly(3).discipline(),
            RoutingDiscipline::Naive
        );
    }

    #[test]
    fn dateline_torus_routes_switch_class_on_wrap() {
        let s = Substrate::torus_with(8, 1, RoutingDiscipline::DatelineClasses);
        let Substrate::Mesh(m) = &s else {
            unreachable!()
        };
        let p = s.route(6, 1); // crosses the wrap edge 7 -> 0
        assert_eq!(p.len(), 3);
        let classes: Vec<u32> = p.edges().iter().map(|&e| m.edge_vc_class(e)).collect();
        assert_eq!(classes, vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn out_of_range_endpoint_panics_in_release_too() {
        Substrate::torus(4, 2).route(0, 16);
    }

    #[test]
    fn benes_reroutes_around_dead_edges_butterfly_cannot() {
        let bn = Substrate::benes(3);
        let g = bn.graph();
        let canonical = bn.route(2, 5);
        let mut dead = vec![false; g.num_edges()];
        // With no faults the canonical mid-column route comes back.
        assert_eq!(bn.route_avoiding(2, 5, &dead), Some(canonical.clone()));
        // Kill one canonical edge: the detour must avoid it, keep the
        // endpoints, and still be a valid path.
        dead[canonical.edges()[2].idx()] = true;
        let detour = bn.route_avoiding(2, 5, &dead).expect("Beneš has diversity");
        assert!(detour.edges().iter().all(|&e| !dead[e.idx()]));
        assert_eq!(detour.src(g), canonical.src(g));
        assert_eq!(detour.dst(g), canonical.dst(g));
        detour.validate(g).unwrap();

        // The butterfly's unique path has nothing to fall back on.
        let bf = Substrate::butterfly(3);
        let p = bf.route(2, 5);
        let mut dead = vec![false; bf.graph().num_edges()];
        dead[p.edges()[1].idx()] = true;
        assert_eq!(bf.route_avoiding(2, 5, &dead), None);
        assert!(
            bf.route_avoiding(1, 0, &dead).is_some(),
            "others unaffected"
        );
    }
}
