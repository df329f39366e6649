//! Butterfly networks (paper §1.2, Fig. 1) and the unrolled two-pass
//! butterfly used by the §3.1 routing algorithm (Fig. 2).
//!
//! An `n`-input butterfly (`n = 2^k`) has `k+1` levels of `n` nodes. Node
//! `(w, i)` is linked to `(w', i+1)` iff `w' = w` (a *straight* edge) or `w`
//! and `w'` differ exactly in bit position `i+1` (a *cross* edge), with bit
//! positions numbered 1 through `k` from the most significant bit — the
//! convention of the paper. Between any input `(w, 0)` and output `(x, k)`
//! there is a unique path: at each level the crossing bit is corrected
//! toward the destination.
//!
//! The *two-pass* variant concatenates two butterflies (`2k` edge levels):
//! the §3.1 algorithm routes each message to a random column at level `k`,
//! then onward to its true destination. First-pass and second-pass edges are
//! distinct, matching the analysis in Lemma 3.1.3.

use crate::graph::{EdgeId, Graph, GraphBuilder, NodeId};
use crate::path::Path;

/// A butterfly network with one or two passes of `k` edge-levels over
/// `n = 2^k` columns.
#[derive(Clone, Debug)]
pub struct Butterfly {
    k: u32,
    passes: u32,
    graph: Graph,
}

impl Butterfly {
    /// Builds a single-pass `2^k`-input butterfly (`k ≥ 1`).
    pub fn new(k: u32) -> Self {
        Self::build(k, 1)
    }

    /// Builds the unrolled two-pass butterfly (`2k` edge levels).
    pub fn two_pass(k: u32) -> Self {
        Self::build(k, 2)
    }

    fn build(k: u32, passes: u32) -> Self {
        assert!(k >= 1, "butterfly needs at least one level of edges");
        assert!(k <= 26, "butterfly of 2^{k} columns is too large");
        let n = 1u32 << k;
        let levels = passes * k;
        let mut b = GraphBuilder::new(((levels + 1) * n) as usize);
        for i in 0..levels {
            let mask = 1u32 << (k - 1 - (i % k));
            for w in 0..n {
                let src = NodeId(i * n + w);
                // Straight edge first, then cross edge: the edge id layout
                // `2*(i*n + w) + {0,1}` is relied upon by `edge()`.
                b.add_edge(src, NodeId((i + 1) * n + w));
                b.add_edge(src, NodeId((i + 1) * n + (w ^ mask)));
            }
        }
        Self {
            k,
            passes,
            graph: b.build(),
        }
    }

    /// `log2` of the number of inputs.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of inputs (= columns), `n = 2^k`.
    #[inline]
    pub fn n_inputs(&self) -> u32 {
        1 << self.k
    }

    /// Number of passes (1 or 2).
    #[inline]
    pub fn passes(&self) -> u32 {
        self.passes
    }

    /// Number of edge levels (`k` per pass).
    #[inline]
    pub fn num_levels(&self) -> u32 {
        self.passes * self.k
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Node at `(col, level)`, `0 ≤ level ≤ num_levels()`.
    #[inline]
    pub fn node(&self, col: u32, level: u32) -> NodeId {
        debug_assert!(col < self.n_inputs() && level <= self.num_levels());
        NodeId(level * self.n_inputs() + col)
    }

    /// Column of a node.
    #[inline]
    pub fn col_of(&self, v: NodeId) -> u32 {
        v.0 % self.n_inputs()
    }

    /// Level of a node.
    #[inline]
    pub fn level_of(&self, v: NodeId) -> u32 {
        v.0 / self.n_inputs()
    }

    /// Input node of a column (level 0).
    #[inline]
    pub fn input(&self, col: u32) -> NodeId {
        self.node(col, 0)
    }

    /// Output node of a column (last level).
    #[inline]
    pub fn output(&self, col: u32) -> NodeId {
        self.node(col, self.num_levels())
    }

    /// The edge leaving `(col, level)`: straight (`cross = false`) or cross.
    #[inline]
    pub fn edge(&self, col: u32, level: u32, cross: bool) -> EdgeId {
        debug_assert!(level < self.num_levels());
        EdgeId(2 * (level * self.n_inputs() + col) + cross as u32)
    }

    /// The bit mask flipped by cross edges leaving `level`.
    #[inline]
    fn cross_mask(&self, level: u32) -> u32 {
        1 << (self.k - 1 - (level % self.k))
    }

    /// Greedy (bit-correcting) edge sequence from column `src_col` at level
    /// `from_level` to column `dst_col` at level `from_level + k`. This is
    /// the unique path between those nodes within one pass.
    fn greedy_segment(&self, src_col: u32, dst_col: u32, from_level: u32, out: &mut Vec<EdgeId>) {
        debug_assert!(from_level.is_multiple_of(self.k));
        let mut col = src_col;
        for i in from_level..from_level + self.k {
            let mask = self.cross_mask(i);
            let cross = (col & mask) != (dst_col & mask);
            out.push(self.edge(col, i, cross));
            if cross {
                col ^= mask;
            }
        }
        debug_assert_eq!(col, dst_col);
    }

    /// The unique single-pass path from input `src_col` to the column
    /// `dst_col` at level `k`. Panics on a two-pass butterfly if you want a
    /// full route — use [`Butterfly::two_pass_path`] there.
    pub fn greedy_path(&self, src_col: u32, dst_col: u32) -> Path {
        let mut edges = Vec::with_capacity(self.k as usize);
        self.greedy_segment(src_col, dst_col, 0, &mut edges);
        Path::new(edges)
    }

    /// Two-pass route (Fig. 2): input `src_col` → random intermediate
    /// `mid_col` at level `k` → output `dst_col` at level `2k`. Requires a
    /// two-pass butterfly.
    pub fn two_pass_path(&self, src_col: u32, mid_col: u32, dst_col: u32) -> Path {
        assert_eq!(self.passes, 2, "two_pass_path needs a two-pass butterfly");
        let mut edges = Vec::with_capacity(2 * self.k as usize);
        self.greedy_segment(src_col, mid_col, 0, &mut edges);
        self.greedy_segment(mid_col, dst_col, self.k, &mut edges);
        Path::new(edges)
    }

    /// The level crossed by the `j`-th edge of any path starting at level 0
    /// (paths here are level-aligned: edge `j` spans levels `j → j+1`).
    #[inline]
    pub fn edge_level(&self, e: EdgeId) -> u32 {
        e.0 / (2 * self.n_inputs())
    }

    /// ASCII rendering of a small single-pass butterfly (Fig. 1 for `k=3`).
    /// Columns run left to right, levels top to bottom; `|` marks straight
    /// edges and the `\ /` pairs mark cross pairs within each block.
    pub fn ascii_art(&self) -> String {
        let n = self.n_inputs();
        assert!(n <= 16, "ascii rendering only for small butterflies");
        let mut s = String::new();
        for level in 0..=self.num_levels() {
            for col in 0..n {
                s.push_str(&format!("({col:>2},{level}) "));
            }
            s.push('\n');
            if level < self.num_levels() {
                let mask = self.cross_mask(level);
                for col in 0..n {
                    let partner = col ^ mask;
                    let c = if partner > col { '\\' } else { '/' };
                    s.push_str(&format!("  |{c}   "));
                }
                s.push('\n');
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_counts_match_paper() {
        // An n-input butterfly has n(log n + 1) nodes (paper §1.2).
        for k in 1..=6 {
            let bf = Butterfly::new(k);
            let n = 1usize << k;
            assert_eq!(bf.graph().num_nodes(), n * (k as usize + 1));
            // Each of the k levels contributes 2n edges.
            assert_eq!(bf.graph().num_edges(), 2 * n * k as usize);
        }
    }

    #[test]
    fn edges_link_adjacent_levels_with_correct_bits() {
        let bf = Butterfly::new(4);
        let g = bf.graph();
        for e in g.edges() {
            let (s, d) = (g.src(e), g.dst(e));
            let (ls, ld) = (bf.level_of(s), bf.level_of(d));
            assert_eq!(ld, ls + 1);
            let (cs, cd) = (bf.col_of(s), bf.col_of(d));
            let diff = cs ^ cd;
            assert!(diff == 0 || diff == bf.cross_mask(ls), "bad cross bit");
        }
    }

    #[test]
    fn edge_accessor_matches_graph() {
        let bf = Butterfly::new(3);
        let g = bf.graph();
        for level in 0..bf.num_levels() {
            for col in 0..bf.n_inputs() {
                for cross in [false, true] {
                    let e = bf.edge(col, level, cross);
                    assert_eq!(g.src(e), bf.node(col, level));
                    let expect_col = if cross {
                        col ^ bf.cross_mask(level)
                    } else {
                        col
                    };
                    assert_eq!(g.dst(e), bf.node(expect_col, level + 1));
                }
            }
        }
    }

    #[test]
    fn greedy_path_reaches_destination_and_is_unique() {
        let bf = Butterfly::new(4);
        let g = bf.graph();
        for src in 0..bf.n_inputs() {
            for dst in 0..bf.n_inputs() {
                let p = bf.greedy_path(src, dst);
                p.validate(g).unwrap();
                assert_eq!(p.len(), 4);
                assert_eq!(p.src(g), bf.input(src));
                assert_eq!(p.dst(g), bf.output(dst));
            }
        }
        // Uniqueness: the greedy path must coincide with BFS shortest path
        // and have length exactly k (all input→output paths have length k).
        let p = bf.greedy_path(3, 12);
        let sp = g.shortest_path(bf.input(3), bf.output(12)).unwrap();
        assert_eq!(p.edges(), &sp[..]);
    }

    #[test]
    fn two_pass_path_visits_intermediate() {
        let bf = Butterfly::two_pass(3);
        let g = bf.graph();
        let p = bf.two_pass_path(5, 2, 7);
        p.validate(g).unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.src(g), bf.input(5));
        assert_eq!(p.dst(g), bf.output(7));
        // After k edges the path must sit at (mid, k).
        let mid_node = g.dst(p.edges()[2]);
        assert_eq!(bf.level_of(mid_node), 3);
        assert_eq!(bf.col_of(mid_node), 2);
    }

    #[test]
    fn two_pass_passes_are_disjoint_edge_sets() {
        let bf = Butterfly::two_pass(3);
        let p = bf.two_pass_path(0, 7, 0);
        let (first, second) = p.edges().split_at(3);
        for e in first {
            assert!(bf.edge_level(*e) < 3);
        }
        for e in second {
            assert!(bf.edge_level(*e) >= 3);
        }
    }

    #[test]
    fn butterfly_is_leveled_and_acyclic() {
        assert!(Butterfly::new(5).graph().is_acyclic());
        assert!(Butterfly::two_pass(4).graph().is_acyclic());
    }

    #[test]
    fn edge_level_matches_src_level() {
        let bf = Butterfly::two_pass(3);
        let g = bf.graph();
        for e in g.edges() {
            assert_eq!(bf.edge_level(e), bf.level_of(g.src(e)));
        }
    }

    #[test]
    fn ascii_art_renders_fig1() {
        let bf = Butterfly::new(3);
        let art = bf.ascii_art();
        // 4 node rows + 3 connector rows.
        assert_eq!(art.lines().count(), 7);
        assert!(art.contains("( 0,0)"));
        assert!(art.contains("( 7,3)"));
    }

    #[test]
    fn every_edge_carries_the_same_number_of_paths() {
        // An edge spanning levels i → i+1 is used by 2^i sources (bits 1..i
        // of the source are free) times 2^(k-i-1) destinations (bits i+2..k
        // of the destination are free) = 2^(k-1) full paths — the counting
        // fact behind Lemma 3.1.3. Verify by brute force for k = 3.
        let bf = Butterfly::new(3);
        let mut uses = vec![0u32; bf.graph().num_edges()];
        for src in 0..8 {
            for dst in 0..8 {
                for &e in bf.greedy_path(src, dst).edges() {
                    uses[e.idx()] += 1;
                }
            }
        }
        for e in bf.graph().edges() {
            assert_eq!(uses[e.idx()], 4, "each edge carries 2^(k-1) paths");
        }
    }
}
