//! Hypercube networks with e-cube (dimension-order) routing — the substrate
//! of the Aiello et al. result cited in §1.3.4 and a useful
//! moderate-dilation workload generator.

use crate::graph::{EdgeId, Graph, GraphBuilder, NodeId};
use crate::path::Path;

/// A `2^dim`-node hypercube; each undirected link is a pair of directed
/// edges, optionally replicated into several virtual-channel *classes*
/// (parallel edges). Two classes make Valiant's two-phase routing
/// deadlock-free — the Aiello et al. requirement of "a small constant
/// larger than one" VCs (paper §1.3.4).
#[derive(Clone, Debug)]
pub struct Hypercube {
    dim: u32,
    classes: u32,
    graph: Graph,
    /// `edge_lookup[(v * dim + d) * classes + c]` = class-`c` edge flipping
    /// bit `d` out of node `v`.
    edge_lookup: Vec<u32>,
}

impl Hypercube {
    /// Builds a single-class hypercube of dimension `dim ≥ 1`.
    pub fn new(dim: u32) -> Self {
        Self::new_multiclass(dim, 1)
    }

    /// Builds a hypercube whose every physical link carries `classes`
    /// parallel edges (VC classes).
    pub fn new_multiclass(dim: u32, classes: u32) -> Self {
        assert!((1..=24).contains(&dim), "dimension out of range");
        assert!((1..=4).contains(&classes), "1–4 VC classes supported");
        let n = 1u32 << dim;
        let mut b = GraphBuilder::new(n as usize);
        let mut lookup = vec![u32::MAX; (n as usize) * (dim * classes) as usize];
        for v in 0..n {
            for d in 0..dim {
                let w = v ^ (1 << d);
                for c in 0..classes {
                    let e = b.add_edge(NodeId(v), NodeId(w));
                    lookup[((v * dim + d) * classes + c) as usize] = e.0;
                }
            }
        }
        Self {
            dim,
            classes,
            graph: b.build(),
            edge_lookup: lookup,
        }
    }

    /// Number of VC classes per physical link.
    #[inline]
    pub fn classes(&self) -> u32 {
        self.classes
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Dimension (log2 of node count).
    #[inline]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        1 << self.dim
    }

    /// The class-0 directed edge from `v` flipping bit `d`.
    #[inline]
    pub fn edge(&self, v: NodeId, d: u32) -> EdgeId {
        self.edge_cls(v, d, 0)
    }

    /// The class-`c` directed edge from `v` flipping bit `d`.
    #[inline]
    pub fn edge_cls(&self, v: NodeId, d: u32, class: u32) -> EdgeId {
        debug_assert!(class < self.classes);
        EdgeId(self.edge_lookup[((v.0 * self.dim + d) * self.classes + class) as usize])
    }

    /// E-cube path on VC class `class`: correct differing bits from bit 0
    /// upward. Length equals the Hamming distance.
    pub fn ecube_path_cls(&self, src: NodeId, dst: NodeId, class: u32) -> Path {
        let mut edges = Vec::with_capacity((src.0 ^ dst.0).count_ones() as usize);
        self.push_ecube(&mut edges, src, dst, class);
        Path::new(edges)
    }

    /// Appends the e-cube hops from `src` to `dst` on `class` to `edges`.
    fn push_ecube(&self, edges: &mut Vec<EdgeId>, src: NodeId, dst: NodeId, class: u32) {
        let mut cur = src.0;
        for d in 0..self.dim {
            let bit = 1u32 << d;
            if (cur ^ dst.0) & bit != 0 {
                edges.push(self.edge_cls(NodeId(cur), d, class));
                cur ^= bit;
            }
        }
        debug_assert_eq!(cur, dst.0);
    }

    /// E-cube path on class 0.
    pub fn ecube_path(&self, src: NodeId, dst: NodeId) -> Path {
        self.ecube_path_cls(src, dst, 0)
    }

    /// Valiant two-phase path (§1.3.3, \[47\]): e-cube to a random
    /// intermediate node, then e-cube to the destination. Randomizing the
    /// middle turns any permutation into two random-ish problems, defeating
    /// adversarial patterns like transpose.
    ///
    /// On a multiclass cube, phase 2 routes on class 1 — the dependency
    /// graph then stays acyclic (each class is dimension-ordered and
    /// transitions go only 0 → 1), so wormhole routing cannot deadlock;
    /// with a single class the second phase re-enters low dimensions and
    /// deadlock is possible (demonstrated in experiment X4). Returns `None`
    /// when the combined path would repeat an edge (single-class only) or
    /// is empty — callers re-draw the intermediate.
    pub fn valiant_path(&self, src: NodeId, dst: NodeId, intermediate: NodeId) -> Option<Path> {
        let phase2_class = if self.classes >= 2 { 1 } else { 0 };
        let hops = (src.0 ^ intermediate.0).count_ones() + (intermediate.0 ^ dst.0).count_ones();
        let mut edges = Vec::with_capacity(hops as usize);
        self.push_ecube(&mut edges, src, intermediate, 0);
        self.push_ecube(&mut edges, intermediate, dst, phase2_class);
        if edges.is_empty() {
            return None;
        }
        let p = Path::new(edges);
        match p.validate(&self.graph) {
            Ok(()) => Some(p),
            Err(_) => None, // repeated edge: caller re-draws the intermediate
        }
    }

    /// The bit-complement permutation `v → !v`. Every message has full
    /// dilation `dim`; under e-cube its paths are mutually edge-disjoint
    /// (each message's position determines it uniquely), so it is a
    /// *best*-case congestion workload — useful as a control.
    pub fn bit_complement_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mask = self.num_nodes() - 1;
        (0..self.num_nodes())
            .map(|v| (NodeId(v), NodeId(v ^ mask)))
            .collect()
    }

    /// The transpose permutation `(a, b) → (b, a)` (swap the high and low
    /// halves of the address) — the classic **adversarial** pattern for
    /// oblivious e-cube routing: `Θ(√n)` messages funnel through single
    /// channels (the Borodin–Hopcroft phenomenon, paper §1.3.2). Requires
    /// even dimension.
    pub fn transpose_pairs(&self) -> Vec<(NodeId, NodeId)> {
        assert!(
            self.dim.is_multiple_of(2),
            "transpose needs an even dimension"
        );
        let half = self.dim / 2;
        let low_mask = (1u32 << half) - 1;
        (0..self.num_nodes())
            .map(|v| {
                let (a, b) = (v >> half, v & low_mask);
                (NodeId(v), NodeId((b << half) | a))
            })
            .collect()
    }

    /// E-cube paths for a pair list, as a `PathSet` (pairs with src = dst
    /// are skipped).
    pub fn ecube_paths(&self, pairs: &[(NodeId, NodeId)]) -> crate::path::PathSet {
        crate::path::PathSet::new(
            pairs
                .iter()
                .filter(|(s, d)| s != d)
                .map(|&(s, d)| self.ecube_path(s, d))
                .collect(),
        )
    }

    /// Valiant paths for a pair list with a seeded RNG; re-draws the random
    /// intermediate until the two phases are edge-simple (≤ 64 attempts
    /// each, then falls back to the direct e-cube path).
    pub fn valiant_paths(&self, pairs: &[(NodeId, NodeId)], seed: u64) -> crate::path::PathSet {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.num_nodes();
        crate::path::PathSet::new(
            pairs
                .iter()
                .filter(|(s, d)| s != d)
                .map(|&(s, d)| {
                    for _ in 0..64 {
                        let mid = NodeId(rng.random_range(0..n));
                        if let Some(p) = self.valiant_path(s, d, mid) {
                            return p;
                        }
                    }
                    self.ecube_path(s, d)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        let h = Hypercube::new(4);
        assert_eq!(h.graph().num_nodes(), 16);
        assert_eq!(h.graph().num_edges(), 16 * 4); // directed
        let h2 = Hypercube::new_multiclass(4, 2);
        assert_eq!(h2.graph().num_edges(), 16 * 4 * 2);
    }

    #[test]
    fn two_class_valiant_uses_class_1_for_phase_2() {
        let h = Hypercube::new_multiclass(4, 2);
        let p = h.valiant_path(NodeId(0), NodeId(15), NodeId(6)).unwrap();
        p.validate(h.graph()).unwrap();
        // Class of an edge: parity within its (v, d) pair in build order.
        let class_of = |e: EdgeId| e.0 % 2;
        let classes: Vec<u32> = p.edges().iter().map(|&e| class_of(e)).collect();
        // Phase 1 = hamming(0,6) = 2 edges on class 0, then class 1.
        assert_eq!(classes, vec![0, 0, 1, 1]);
    }

    #[test]
    fn two_class_valiant_never_repeats_edges_even_out_and_back() {
        // Out-and-back overlaps are fine with two classes: phase 2 rides
        // class 1 edges, distinct from phase 1's class 0.
        let h = Hypercube::new_multiclass(3, 2);
        let p = h.valiant_path(NodeId(0), NodeId(0), NodeId(5));
        // src == dst: phases are exact reverses node-wise, but edge-simple.
        let p = p.expect("two-class out-and-back is edge-simple");
        assert_eq!(p.len(), 4);
        p.validate(h.graph()).unwrap();
    }

    #[test]
    fn ecube_length_is_hamming_distance() {
        let h = Hypercube::new(5);
        for (s, d) in [(0u32, 31u32), (3, 3), (7, 8), (21, 10)] {
            let p = h.ecube_path(NodeId(s), NodeId(d));
            assert_eq!(p.len(), (s ^ d).count_ones() as usize);
            if !p.is_empty() {
                p.validate(h.graph()).unwrap();
                assert_eq!(p.src(h.graph()), NodeId(s));
                assert_eq!(p.dst(h.graph()), NodeId(d));
            }
        }
    }

    #[test]
    fn edge_lookup_consistent() {
        let h = Hypercube::new(3);
        for v in 0..8u32 {
            for d in 0..3 {
                let e = h.edge(NodeId(v), d);
                assert_eq!(h.graph().src(e), NodeId(v));
                assert_eq!(h.graph().dst(e), NodeId(v ^ (1 << d)));
            }
        }
    }

    #[test]
    fn bit_complement_is_edge_disjoint_under_ecube() {
        // Full dilation but congestion exactly 1: a control workload.
        let h = Hypercube::new(6);
        let pairs = h.bit_complement_pairs();
        let direct = h.ecube_paths(&pairs);
        assert_eq!(direct.dilation(), 6);
        assert_eq!(direct.congestion(h.graph()), 1);
    }

    #[test]
    fn transpose_is_adversarial_and_valiant_fixes_it() {
        // Transpose under e-cube funnels Θ(√n) messages through single
        // channels; Valiant's random intermediates smooth it out.
        let h = Hypercube::new(8); // n = 256
        let pairs = h.transpose_pairs();
        let direct = h.ecube_paths(&pairs);
        let cd = direct.congestion(h.graph());
        // Θ(√n) funnel: measured 8 = 16× the average edge load of 0.5.
        assert!(cd >= 8, "transpose should congest ≈ √n/2, got {cd}");
        let valiant = h.valiant_paths(&pairs, 9);
        valiant.validate(h.graph()).unwrap();
        let cv = valiant.congestion(h.graph());
        assert!(
            cv < cd && cv <= 6,
            "Valiant should smooth transpose congestion: {cv} vs {cd}"
        );
    }

    #[test]
    fn transpose_is_an_involution() {
        let h = Hypercube::new(6);
        for (s, d) in h.transpose_pairs() {
            let back = h.transpose_pairs()[d.idx()].1;
            assert_eq!(back, s);
        }
    }

    #[test]
    fn valiant_path_visits_intermediate() {
        let h = Hypercube::new(4);
        let p = h.valiant_path(NodeId(0), NodeId(15), NodeId(6)).unwrap();
        p.validate(h.graph()).unwrap();
        assert_eq!(p.src(h.graph()), NodeId(0));
        assert_eq!(p.dst(h.graph()), NodeId(15));
        // Length = hamming(0,6) + hamming(6,15) = 2 + 2.
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn valiant_rejects_overlapping_phases() {
        let h = Hypercube::new(3);
        // src == dst with a detour: out-and-back repeats edges' reverses but
        // not edges themselves... choose a case where phase 2 re-crosses a
        // phase-1 edge: src=0, mid=0 gives empty+direct = fine; build the
        // degenerate empty case instead.
        assert!(h.valiant_path(NodeId(3), NodeId(3), NodeId(3)).is_none());
    }
}
