//! k-ary d-dimensional meshes and tori with dimension-order routing, and
//! the torus-wide Dally–Seitz dateline discipline.
//!
//! These are the "meshes with constant dimension" of the paper's related
//! work (§1.3.4) and serve as long-dilation substrates for the fixed-buffer
//! comparison experiment (E7): a `k`-ary 1-cube (linear array) realizes
//! dilation up to `k−1` with trivially controllable congestion.
//!
//! # Deadlock freedom on tori
//!
//! A torus wraps every dimension into rings, so dimension-order wormhole
//! routing can deadlock: worms chase each other's tails around a ring
//! (paper §1, citation \[14\]). The Dally–Seitz fix splits each physical
//! channel into two virtual-channel *classes*; a route uses class 0 within
//! a dimension until it crosses that dimension's *dateline* (the wrap
//! hop), then class 1. The per-ring dependency graph becomes a spiral
//! instead of a cycle, and dimension order keeps cross-dimension
//! dependencies one-way, so the whole channel-dependency graph is acyclic
//! — deadlock is impossible by construction, at the price of one extra VC
//! per physical channel.
//!
//! We realize the classes structurally (see [`RoutingDiscipline`]): under
//! [`RoutingDiscipline::DatelineClasses`] every physical channel becomes
//! **two parallel edges** in the routing graph (class 0 / class 1), and
//! [`Mesh::dateline_path`] switches between them at the datelines. The
//! flit simulator needs no special support — its per-edge VC count `B`
//! applies *per class*, so a physical channel with 2 classes and `b` VCs
//! per class models a `2b`-VC Dally–Seitz router.
//!
//! # Geometry without division
//!
//! Every route, adaptive candidate set and escape hop reads node
//! coordinates, so a [`Mesh`] keeps them in one table built with the
//! graph: `n · dims` `u32`s, `4 · n · dims` bytes — `1 / (2 · classes)` of
//! the edge lookup table beside it, 2 KiB on a 16 × 16 torus. A
//! coordinate is one load, ring distances are a compare and a subtract,
//! and a route walks its rings stepping the coordinate by one per hop
//! into a path allocated once at its minimal length. Routing divides
//! nothing.

use crate::graph::{EdgeId, Graph, GraphBuilder, NodeId};
use crate::path::Path;

/// How routes use virtual-channel classes on a mesh or torus.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoutingDiscipline {
    /// One VC class per physical channel; dimension-order routes wrap
    /// freely. Deadlock-prone on tori (the control arm).
    Naive,
    /// Two VC classes per physical channel; dimension-order routes start
    /// each dimension on class 0 and switch to class 1 after crossing
    /// that dimension's dateline (the wrap hop). Deadlock-free by
    /// construction on tori (Dally–Seitz).
    DatelineClasses,
    /// Three VC classes per physical channel: classes 0/1 are the
    /// Dally–Seitz **escape** pair (routed exactly like
    /// [`RoutingDiscipline::DatelineClasses`]), class 2 is an
    /// **adaptive lane** with no routing restriction. Adaptive route
    /// selection (see `wormhole_flitsim::config::RouteSelection`) wanders
    /// over the class-2 lane by local occupancy and falls back onto the
    /// escape pair when the adaptive lane is full; because the escape
    /// subnetwork's channel-dependency graph is acyclic and a worm that
    /// enters it never leaves it, the whole network stays deadlock-free
    /// (Duato's criterion with a Dally–Seitz escape network).
    AdaptiveEscape,
}

impl RoutingDiscipline {
    /// Number of VC classes (parallel routing edges per physical channel).
    #[inline]
    pub fn classes(self) -> u32 {
        match self {
            RoutingDiscipline::Naive => 1,
            RoutingDiscipline::DatelineClasses => 2,
            RoutingDiscipline::AdaptiveEscape => 3,
        }
    }

    /// Short lowercase name for tables.
    pub fn name(self) -> &'static str {
        match self {
            RoutingDiscipline::Naive => "naive",
            RoutingDiscipline::DatelineClasses => "dateline",
            RoutingDiscipline::AdaptiveEscape => "adaptive",
        }
    }
}

/// VC class of the adaptive lane under
/// [`RoutingDiscipline::AdaptiveEscape`] (classes below it are escape).
pub const ADAPTIVE_CLASS: u32 = 2;

/// A `radix^dims`-node mesh (or torus) with bidirectional links represented
/// as directed edge pairs — one parallel edge per VC class.
#[derive(Clone, Debug)]
pub struct Mesh {
    radix: u32,
    dims: u32,
    wrap: bool,
    classes: u32,
    graph: Graph,
    /// `edge_lookup[((node * dims + dim) * 2 + minus) * classes + class]`
    /// = edge id leaving `node` in direction `(dim, ±)` on `class`, or
    /// `u32::MAX` where the mesh has no such link.
    edge_lookup: Vec<u32>,
    /// VC class of each edge, indexed by `EdgeId`.
    edge_class: Vec<u8>,
    /// `coord_table[node * dims + dim]` = the node's coordinate in `dim`.
    coord_table: Vec<u32>,
}

impl Mesh {
    /// Builds a `radix`-ary `dims`-dimensional mesh (`wrap = false`) or
    /// torus (`wrap = true`) with a single VC class (naive routing graph).
    pub fn new(radix: u32, dims: u32, wrap: bool) -> Self {
        Self::new_disciplined(radix, dims, wrap, RoutingDiscipline::Naive)
    }

    /// Builds a mesh/torus whose routing graph carries the VC classes of
    /// `discipline`. [`RoutingDiscipline::DatelineClasses`] requires
    /// `wrap` (datelines are a property of wrap rings).
    pub fn new_disciplined(
        radix: u32,
        dims: u32,
        wrap: bool,
        discipline: RoutingDiscipline,
    ) -> Self {
        assert!(radix >= 2 && dims >= 1, "mesh needs radix ≥ 2, dims ≥ 1");
        let classes = discipline.classes();
        assert!(
            discipline != RoutingDiscipline::DatelineClasses || wrap,
            "dateline classes only apply to wrap-around (torus) meshes"
        );
        let n = (radix as u64).checked_pow(dims).expect("mesh too large");
        // Bound the full lookup-slot count (= maximum possible edge count):
        // edge ids stay within u32 and every lookup index within the table.
        assert!(
            n.checked_mul(2 * dims as u64 * classes as u64)
                .is_some_and(|slots| slots <= u32::MAX as u64),
            "mesh too large"
        );
        let n = n as u32;
        let mut b = GraphBuilder::new(n as usize);
        let mut lookup = vec![u32::MAX; (n as usize) * 2 * dims as usize * classes as usize];
        let mut edge_class = Vec::new();
        let mut coord_table = Vec::with_capacity(n as usize * dims as usize);
        let stride = |d: u32| (radix as u64).pow(d) as u32;
        let link = |b: &mut GraphBuilder,
                    edge_class: &mut Vec<u8>,
                    lookup: &mut Vec<u32>,
                    v: u32,
                    w: u32,
                    d: u32,
                    minus: bool| {
            for c in 0..classes {
                let e = b.add_edge(NodeId(v), NodeId(w));
                edge_class.push(c as u8);
                let idx = ((v as usize * dims as usize + d as usize) * 2 + minus as usize)
                    * classes as usize
                    + c as usize;
                lookup[idx] = e.0;
            }
        };
        for v in 0..n {
            for d in 0..dims {
                let coord = (v / stride(d)) % radix;
                coord_table.push(coord);
                // +1 direction
                if coord + 1 < radix || wrap {
                    let w = if coord + 1 < radix {
                        v + stride(d)
                    } else {
                        v - (radix - 1) * stride(d)
                    };
                    if w != v {
                        link(&mut b, &mut edge_class, &mut lookup, v, w, d, false);
                    }
                }
                // -1 direction
                if coord > 0 || wrap {
                    let w = if coord > 0 {
                        v - stride(d)
                    } else {
                        v + (radix - 1) * stride(d)
                    };
                    if w != v {
                        link(&mut b, &mut edge_class, &mut lookup, v, w, d, true);
                    }
                }
            }
        }
        Self {
            radix,
            dims,
            wrap,
            classes,
            graph: b.build(),
            edge_lookup: lookup,
            edge_class,
            coord_table,
        }
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Radix (nodes per dimension).
    #[inline]
    pub fn radix(&self) -> u32 {
        self.radix
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Whether links wrap (torus).
    #[inline]
    pub fn wraps(&self) -> bool {
        self.wrap
    }

    /// Number of VC classes per physical channel (1 naive, 2 dateline,
    /// 3 adaptive-escape).
    #[inline]
    pub fn classes(&self) -> u32 {
        self.classes
    }

    /// The routing discipline this mesh was built with.
    #[inline]
    pub fn discipline(&self) -> RoutingDiscipline {
        match self.classes {
            3 => RoutingDiscipline::AdaptiveEscape,
            2 => RoutingDiscipline::DatelineClasses,
            _ => RoutingDiscipline::Naive,
        }
    }

    /// Whether `e` belongs to the deadlock-free **escape** subnetwork.
    ///
    /// On an [`RoutingDiscipline::AdaptiveEscape`] mesh the escape
    /// channels are classes 0 and 1 (the Dally–Seitz dateline pair) and
    /// the adaptive lane is class 2; on single- and two-class meshes
    /// every channel is part of the (only) oblivious routing structure,
    /// so all edges count as escape.
    #[inline]
    pub fn is_escape_edge(&self, e: EdgeId) -> bool {
        self.edge_vc_class(e) < ADAPTIVE_CLASS
    }

    /// VC class of a routing edge (0 on single-class meshes).
    #[inline]
    pub fn edge_vc_class(&self, e: EdgeId) -> u32 {
        self.edge_class[e.idx()] as u32
    }

    /// Total node count.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        (self.radix as u64).pow(self.dims) as u32
    }

    /// Node id from coordinates (little-endian: `coords\[0\]` is dimension 0).
    pub fn node(&self, coords: &[u32]) -> NodeId {
        assert_eq!(coords.len() as u32, self.dims);
        let mut v = 0u32;
        for (d, &c) in coords.iter().enumerate() {
            assert!(c < self.radix);
            v += c * (self.radix as u64).pow(d as u32) as u32;
        }
        NodeId(v)
    }

    /// Coordinate of `v` in dimension `d`: one load from the coordinate
    /// table (allocation-free; used by the per-hop hot paths instead of
    /// [`Mesh::coords`]).
    #[inline]
    pub(crate) fn coord(&self, v: NodeId, d: u32) -> u32 {
        self.coord_table[v.idx() * self.dims as usize + d as usize]
    }

    /// Coordinates of a node.
    pub fn coords(&self, v: NodeId) -> Vec<u32> {
        let at = v.idx() * self.dims as usize;
        self.coord_table[at..at + self.dims as usize].to_vec()
    }

    pub(crate) fn step_edge(&self, v: NodeId, dim: u32, minus: bool, class: u32) -> EdgeId {
        self.try_step_edge(v, dim, minus, class)
            .unwrap_or_else(|| panic!("no edge from {v:?} in dim {dim} minus={minus}"))
    }

    /// Whether minimal routing travels the `−` direction in dimension `d`
    /// from coordinate `have` to `want` (ties broken toward `+`).
    pub(crate) fn travels_minus(&self, have: u32, want: u32) -> bool {
        if !self.wrap {
            have > want
        } else {
            // Shorter way around the ring; ties to plus.
            let (fwd, bwd) = self.ring_gaps(have, want);
            bwd < fwd
        }
    }

    /// Hops from `have` to `want` around a wrap ring going `+` and going
    /// `−`: `((want − have) mod radix, (have − want) mod radix)`, by
    /// compare and subtract.
    #[inline]
    fn ring_gaps(&self, have: u32, want: u32) -> (u32, u32) {
        if have == want {
            (0, 0)
        } else if have < want {
            (want - have, self.radix - (want - have))
        } else {
            (self.radix - (have - want), have - want)
        }
    }

    /// The one per-dimension ring walk under every dimension-order route:
    /// dimensions corrected in ascending order, each in the direction
    /// `travels_minus(cur, d, have, want)` picks on entering it (no rule
    /// used here reverses inside a dimension), on class 0 — moving to
    /// class 1, when `dateline` is set, after the hop leaving that
    /// direction's dateline coordinate (`radix − 1` going `+`, `0` going
    /// `−`).
    ///
    /// The path is allocated once, sized to the sum of the minimal ring
    /// distances; only a walk sent the long way around a ring (a faulted
    /// escape route) outgrows it. The coordinate steps by one per hop,
    /// wrapping by comparison.
    pub(crate) fn ring_walk(
        &self,
        src: NodeId,
        dst: NodeId,
        dateline: bool,
        travels_minus: impl Fn(NodeId, u32, u32, u32) -> bool,
    ) -> Path {
        let hops: u32 = (0..self.dims)
            .map(|d| {
                let (have, want) = (self.coord(src, d), self.coord(dst, d));
                if self.wrap {
                    let (fwd, bwd) = self.ring_gaps(have, want);
                    fwd.min(bwd)
                } else {
                    have.abs_diff(want)
                }
            })
            .sum();
        let mut edges = Vec::with_capacity(hops as usize);
        let mut cur = src;
        for d in 0..self.dims {
            let (mut have, want) = (self.coord(cur, d), self.coord(dst, d));
            if have == want {
                continue;
            }
            let minus = travels_minus(cur, d, have, want);
            let dateline_coord = if minus { 0 } else { self.radix - 1 };
            let mut class = 0u32;
            while have != want {
                let e = self.step_edge(cur, d, minus, class);
                edges.push(e);
                if dateline && have == dateline_coord {
                    class = 1; // crossed the dateline
                }
                cur = self.graph.dst(e);
                have = match (minus, have) {
                    (true, 0) => self.radix - 1,
                    (true, _) => have - 1,
                    (false, _) if have + 1 == self.radix => 0,
                    (false, _) => have + 1,
                };
            }
        }
        debug_assert_eq!(cur, dst);
        Path::new(edges)
    }

    /// Dimension-order (e-cube) path from `src` to `dst`: correct dimension
    /// 0 first, then 1, etc. On a torus the shorter wrap direction is taken
    /// (ties broken toward +). Always routes on class 0 — on a
    /// [`RoutingDiscipline::DatelineClasses`] mesh this is the naive
    /// (deadlock-prone) control arm; use [`Mesh::dateline_path`] or
    /// [`Mesh::route`] for the disciplined route.
    pub fn dimension_order_path(&self, src: NodeId, dst: NodeId) -> Path {
        self.ring_walk(src, dst, false, |_, _, have, want| {
            self.travels_minus(have, want)
        })
    }

    /// Dimension-order path with the per-dimension Dally–Seitz dateline
    /// switch: each dimension starts on class 0 and moves to class 1 after
    /// traversing that dimension's dateline hop (the wrap edge leaving
    /// coordinate `radix−1` in the `+` direction, or coordinate `0` in the
    /// `−` direction). Minimal routes cross each dateline at most once, so
    /// two classes suffice and the channel-dependency graph of any set of
    /// such paths is acyclic (see [`crate::dateline`]).
    ///
    /// Panics unless the mesh was built with
    /// [`RoutingDiscipline::DatelineClasses`].
    pub fn dateline_path(&self, src: NodeId, dst: NodeId) -> Path {
        assert!(
            self.classes >= 2,
            "dateline_path needs a mesh with escape classes"
        );
        self.ring_walk(src, dst, true, |_, _, have, want| {
            self.travels_minus(have, want)
        })
    }

    /// The canonical **oblivious** route under this mesh's discipline:
    /// dateline-switched wherever escape classes exist on a torus
    /// ([`RoutingDiscipline::DatelineClasses`] and the escape pair of
    /// [`RoutingDiscipline::AdaptiveEscape`]), plain dimension-order
    /// otherwise. Adaptive route *selection* is performed per hop by the
    /// simulator (see [`crate::adaptive::AdaptiveRouter`]); this function
    /// is its escape-network continuation and the oblivious control arm.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Path {
        if self.classes >= 2 && self.wrap {
            self.dateline_path(src, dst)
        } else {
            self.dimension_order_path(src, dst)
        }
    }

    /// The edge leaving `v` in direction `(dim, ±)` on `class`, or `None`
    /// where the mesh has no such link (non-wrap boundary).
    pub(crate) fn try_step_edge(
        &self,
        v: NodeId,
        dim: u32,
        minus: bool,
        class: u32,
    ) -> Option<EdgeId> {
        debug_assert!(class < self.classes);
        let idx = ((v.idx() * self.dims as usize + dim as usize) * 2 + minus as usize)
            * self.classes as usize
            + class as usize;
        let e = self.edge_lookup[idx];
        (e != u32::MAX).then_some(EdgeId(e))
    }

    /// Whether one hop in direction `(d, ±)` strictly reduces the
    /// (wrap-aware) distance from `have` to `want` in that dimension. On
    /// a wrap ring at exactly half-ring distance **both** directions are
    /// minimal (unlike the oblivious tie-break of
    /// [`Mesh::dimension_order_path`], which must pick one).
    pub(crate) fn reduces_distance(&self, have: u32, want: u32, minus: bool) -> bool {
        if have == want {
            return false;
        }
        if !self.wrap {
            return minus == (have > want);
        }
        let (fwd, bwd) = self.ring_gaps(have, want);
        if minus {
            bwd <= fwd
        } else {
            fwd <= bwd
        }
    }

    /// Per-hop adaptive candidate enumeration on the class-2 adaptive
    /// lane: pushes `(edge, profitable)` pairs for every direction the
    /// header at `at` could take toward `dst`.
    ///
    /// *Profitable* directions strictly reduce the (wrap-aware) distance
    /// to `dst`: the minimal way around each unresolved dimension — both
    /// ways on a wrap ring at exactly half-ring distance, where they are
    /// equally minimal. With `misroutes` set, every other existing
    /// direction is pushed too, flagged unprofitable — the
    /// fully-adaptive candidate set; the caller is responsible for
    /// bounding misroutes (livelock) and for excluding u-turns if it
    /// wants them excluded.
    ///
    /// The enumeration order is deterministic (dimension-major, `+`
    /// before `−`, profitable and unprofitable interleaved per
    /// dimension), so occupancy-based selection with a fixed tie-break is
    /// reproducible. Panics unless the mesh was built with
    /// [`RoutingDiscipline::AdaptiveEscape`].
    pub fn adaptive_candidates(
        &self,
        at: NodeId,
        dst: NodeId,
        misroutes: bool,
        out: &mut Vec<(EdgeId, bool)>,
    ) {
        assert_eq!(
            self.classes, 3,
            "adaptive candidates need an AdaptiveEscape mesh"
        );
        for d in 0..self.dims {
            let (have, want) = (self.coord(at, d), self.coord(dst, d));
            for minus in [false, true] {
                let profitable = self.reduces_distance(have, want, minus);
                if !profitable && !misroutes {
                    continue;
                }
                if let Some(e) = self.try_step_edge(at, d, minus, ADAPTIVE_CLASS) {
                    out.push((e, profitable));
                }
            }
        }
    }

    /// The deadlock-free escape continuation from `at` to `dst`: the
    /// dateline-switched dimension-order path on the class-0/class-1
    /// escape pair (plain class-0 dimension order on a non-wrap mesh,
    /// where dimension order is already acyclic). A worm that falls back
    /// onto the escape network follows this path to its destination and
    /// never returns to the adaptive lane, which is what keeps the
    /// escape-channel dependency graph acyclic regardless of how the
    /// adaptive prefix wandered.
    pub fn escape_route(&self, at: NodeId, dst: NodeId) -> Path {
        assert!(self.classes >= 2, "escape routes need escape classes");
        if self.wrap {
            self.dateline_path(at, dst)
        } else {
            self.dimension_order_path(at, dst)
        }
    }

    /// First hop of [`Mesh::escape_route`] in O(dims): lowest unresolved
    /// dimension, minimal direction, class 0 (a fresh escape entry is
    /// before its dateline by definition — the class-1 switch only
    /// happens *after* crossing the wrap hop).
    ///
    /// Panics if `at == dst` (there is no escape hop to take).
    pub fn escape_first_hop(&self, at: NodeId, dst: NodeId) -> EdgeId {
        assert!(self.classes >= 2, "escape routes need escape classes");
        for d in 0..self.dims {
            let (have, want) = (self.coord(at, d), self.coord(dst, d));
            if have != want {
                let minus = self.travels_minus(have, want);
                return self.step_edge(at, d, minus, 0);
            }
        }
        panic!("no escape hop: {at:?} == {dst:?}");
    }
}

/// A linear array of `n` nodes (directed both ways); the simplest
/// long-dilation substrate. Forward path from node `a` to node `b > a` uses
/// `b − a` edges.
pub fn linear_array(n: u32) -> Mesh {
    Mesh::new(n, 1, false)
}

#[cfg(test)]
mod division_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dateline::channel_dependency_graph;

    #[test]
    fn mesh_counts() {
        let m = Mesh::new(4, 2, false);
        assert_eq!(m.graph().num_nodes(), 16);
        // 2 dims * 2 directions * (radix-1) * radix per dim pair:
        // edges = dims * 2 * radix^(dims-1) * (radix-1) = 2*2*4*3 = 48
        assert_eq!(m.graph().num_edges(), 48);
        let t = Mesh::new(4, 2, true);
        assert_eq!(t.graph().num_edges(), 2 * 2 * 16); // every node, every dir
    }

    #[test]
    fn dateline_torus_doubles_every_channel() {
        let t = Mesh::new_disciplined(4, 2, true, RoutingDiscipline::DatelineClasses);
        assert_eq!(t.classes(), 2);
        assert_eq!(t.discipline(), RoutingDiscipline::DatelineClasses);
        assert_eq!(t.graph().num_edges(), 2 * (2 * 2 * 16));
        // Classes alternate per physical channel in insertion order.
        let c0 = t
            .graph()
            .edges()
            .filter(|&e| t.edge_vc_class(e) == 0)
            .count();
        assert_eq!(c0 * 2, t.graph().num_edges());
    }

    #[test]
    #[should_panic(expected = "wrap-around")]
    fn dateline_rejects_plain_mesh() {
        Mesh::new_disciplined(4, 2, false, RoutingDiscipline::DatelineClasses);
    }

    #[test]
    #[should_panic(expected = "mesh too large")]
    fn oversized_mesh_is_rejected_before_indices_overflow() {
        // 1024^3 nodes fit u32, but the 2^30 · (3 dims · 2 dirs) lookup
        // slots do not — the size assert must fire instead of letting edge
        // ids or lookup indices wrap.
        Mesh::new(1024, 3, false);
    }

    #[test]
    fn coords_roundtrip() {
        let m = Mesh::new(5, 3, false);
        for v in 0..m.num_nodes() {
            let c = m.coords(NodeId(v));
            assert_eq!(m.node(&c), NodeId(v));
        }
    }

    #[test]
    fn dimension_order_path_is_valid_and_minimal_on_mesh() {
        let m = Mesh::new(5, 2, false);
        let src = m.node(&[0, 0]);
        let dst = m.node(&[4, 3]);
        let p = m.dimension_order_path(src, dst);
        p.validate(m.graph()).unwrap();
        assert_eq!(p.len(), 7); // |4-0| + |3-0|
        assert_eq!(p.src(m.graph()), src);
        assert_eq!(p.dst(m.graph()), dst);
    }

    #[test]
    fn torus_takes_short_way_around() {
        let t = Mesh::new(8, 1, true);
        let p = t.dimension_order_path(NodeId(0), NodeId(7));
        assert_eq!(p.len(), 1); // wrap backwards 0 -> 7
        let p2 = t.dimension_order_path(NodeId(0), NodeId(3));
        assert_eq!(p2.len(), 3);
    }

    #[test]
    fn dateline_path_matches_dimension_order_hops() {
        // Same physical hops, same length, same endpoints — only the class
        // assignment differs.
        for (radix, dims) in [(5u32, 1u32), (4, 2), (3, 3)] {
            let naive = Mesh::new(radix, dims, true);
            let dl = Mesh::new_disciplined(radix, dims, true, RoutingDiscipline::DatelineClasses);
            for s in 0..dl.num_nodes() {
                for d in 0..dl.num_nodes() {
                    if s == d {
                        continue;
                    }
                    let p = dl.dateline_path(NodeId(s), NodeId(d));
                    p.validate(dl.graph()).unwrap();
                    let q = naive.dimension_order_path(NodeId(s), NodeId(d));
                    assert_eq!(p.len(), q.len(), "{radix}^{dims}: {s}->{d}");
                    assert_eq!(p.src(dl.graph()), NodeId(s));
                    assert_eq!(p.dst(dl.graph()), NodeId(d));
                }
            }
        }
    }

    #[test]
    fn dateline_class_switches_exactly_at_wrap() {
        let t = Mesh::new_disciplined(8, 1, true, RoutingDiscipline::DatelineClasses);
        // 6 -> 1 crosses the + dateline (edge leaving coord 7).
        let p = t.dateline_path(NodeId(6), NodeId(1));
        let classes: Vec<u32> = p.edges().iter().map(|&e| t.edge_vc_class(e)).collect();
        assert_eq!(classes, vec![0, 0, 1]);
        // 1 -> 6 crosses the − dateline (the wrap edge leaving coord 0 is
        // itself still class 0; hops after it are class 1).
        let p = t.dateline_path(NodeId(1), NodeId(6));
        let classes: Vec<u32> = p.edges().iter().map(|&e| t.edge_vc_class(e)).collect();
        assert_eq!(classes, vec![0, 0, 1]);
        // Non-wrapping routes stay on class 0.
        let p = t.dateline_path(NodeId(2), NodeId(5));
        assert!(p.edges().iter().all(|&e| t.edge_vc_class(e) == 0));
    }

    #[test]
    fn dateline_resets_class_per_dimension() {
        let t = Mesh::new_disciplined(4, 2, true, RoutingDiscipline::DatelineClasses);
        // (3,3) -> (1,1): wraps in x (3->0->1 forward, ties to plus) and in
        // y likewise; each dimension starts again on class 0.
        let p = t.dateline_path(t.node(&[3, 3]), t.node(&[1, 1]));
        let classes: Vec<u32> = p.edges().iter().map(|&e| t.edge_vc_class(e)).collect();
        assert_eq!(classes, vec![0, 1, 0, 1]);
    }

    #[test]
    fn route_dispatches_on_discipline() {
        let naive = Mesh::new(5, 2, true);
        let dl = Mesh::new_disciplined(5, 2, true, RoutingDiscipline::DatelineClasses);
        let (s, d) = (NodeId(3), NodeId(21));
        assert_eq!(naive.route(s, d), naive.dimension_order_path(s, d));
        assert_eq!(dl.route(s, d), dl.dateline_path(s, d));
    }

    #[test]
    fn dateline_all_pairs_dependency_graph_is_acyclic() {
        for (radix, dims) in [(8u32, 1u32), (4, 2), (3, 3)] {
            let dl = Mesh::new_disciplined(radix, dims, true, RoutingDiscipline::DatelineClasses);
            let n = dl.num_nodes();
            let mut paths = Vec::new();
            for s in 0..n {
                for d in 0..n {
                    if s != d {
                        paths.push(dl.dateline_path(NodeId(s), NodeId(d)));
                    }
                }
            }
            assert!(
                channel_dependency_graph(dl.graph(), &paths).is_acyclic(),
                "dateline routes on torus {radix}^{dims} must be acyclic"
            );
        }
    }

    #[test]
    fn naive_all_pairs_dependency_graph_is_cyclic() {
        // Needs radix ≥ 4 so some minimal route chains two hops through a
        // wrap ring (radix 3 routes are single hops per ring and the naive
        // arm is accidentally acyclic).
        for (radix, dims) in [(8u32, 1u32), (4, 2)] {
            let m = Mesh::new(radix, dims, true);
            let n = m.num_nodes();
            let mut paths = Vec::new();
            for s in 0..n {
                for d in 0..n {
                    if s != d {
                        paths.push(m.dimension_order_path(NodeId(s), NodeId(d)));
                    }
                }
            }
            assert!(
                !channel_dependency_graph(m.graph(), &paths).is_acyclic(),
                "naive routes on torus {radix}^{dims} must be cyclic"
            );
        }
    }

    #[test]
    fn linear_array_paths() {
        let a = linear_array(10);
        let p = a.dimension_order_path(NodeId(1), NodeId(8));
        assert_eq!(p.len(), 7);
        p.validate(a.graph()).unwrap();
        let back = a.dimension_order_path(NodeId(8), NodeId(1));
        assert_eq!(back.len(), 7);
    }

    #[test]
    fn zero_length_path() {
        let m = Mesh::new(3, 2, false);
        let p = m.dimension_order_path(NodeId(4), NodeId(4));
        assert!(p.is_empty());
        let t = Mesh::new_disciplined(3, 2, true, RoutingDiscipline::DatelineClasses);
        assert!(t.dateline_path(NodeId(4), NodeId(4)).is_empty());
    }

    #[test]
    fn mesh_is_cyclic_torus_is_cyclic() {
        // Bidirectional links always give 2-cycles in the channel graph, so
        // greedy wormhole *can* deadlock here — exercised in flitsim tests.
        assert!(!Mesh::new(3, 2, false).graph().is_acyclic());
    }
}
