//! Directed-graph substrate used by every network in the reproduction.
//!
//! The representation is a flat CSR (compressed sparse row) adjacency
//! structure: node and edge identifiers are dense `u32` indices, all edge
//! data lives in parallel `Vec`s, and out-edges of a node occupy a
//! contiguous range. This follows the HPC guideline of index-based flat
//! storage: no per-node allocation, no pointers, cache-friendly scans.

use std::fmt;

/// Dense identifier of a node in a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Dense identifier of a directed edge in a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// Returns the index as a `usize` for slice indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Returns the index as a `usize` for slice indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Mutable builder for [`Graph`]. Collects edges in insertion order and
/// freezes them into CSR form.
///
/// Edge ids are assigned in insertion order and remain stable after
/// [`GraphBuilder::build`], so callers may record `EdgeId`s while building.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: u32,
    srcs: Vec<u32>,
    dsts: Vec<u32>,
}

impl GraphBuilder {
    /// Creates a builder with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        assert!(num_nodes <= u32::MAX as usize, "node count overflows u32");
        Self {
            num_nodes: num_nodes as u32,
            srcs: Vec::new(),
            dsts: Vec::new(),
        }
    }

    /// Adds a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.num_nodes);
        self.num_nodes = self
            .num_nodes
            .checked_add(1)
            .expect("node count overflows u32");
        id
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.srcs.len()
    }

    /// Adds a directed edge `src -> dst` and returns its id.
    ///
    /// Panics if either endpoint is out of range. Parallel edges are
    /// permitted (some constructions need them); self-loops are rejected
    /// because no routing path may use one.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        assert!(src.0 < self.num_nodes, "edge source out of range");
        assert!(dst.0 < self.num_nodes, "edge destination out of range");
        assert!(src != dst, "self-loops are not allowed");
        assert!(
            self.srcs.len() < u32::MAX as usize,
            "edge count overflows u32"
        );
        let id = EdgeId(self.srcs.len() as u32);
        self.srcs.push(src.0);
        self.dsts.push(dst.0);
        id
    }

    /// Freezes the builder into an immutable CSR graph.
    pub fn build(self) -> Graph {
        let n = self.num_nodes as usize;
        let m = self.srcs.len();

        // Counting sort of edges by source node into CSR order, while
        // remembering each edge's original (stable) id.
        let mut counts = vec![0u32; n + 1];
        for &s in &self.srcs {
            counts[s as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts; // offsets[v]..offsets[v+1] = out-edges of v
        let mut cursor = offsets.clone();
        let mut csr_edges = vec![0u32; m]; // edge ids in CSR order
        for e in 0..m {
            let s = self.srcs[e] as usize;
            csr_edges[cursor[s] as usize] = e as u32;
            cursor[s] += 1;
        }

        Graph {
            offsets,
            csr_edges,
            srcs: self.srcs,
            dsts: self.dsts,
        }
    }
}

/// Immutable directed graph in CSR form.
///
/// Node and edge ids are dense; edge ids match the insertion order of the
/// originating [`GraphBuilder`].
#[derive(Clone, Debug)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `csr_edges` for out-edges of `v`.
    offsets: Vec<u32>,
    /// Edge ids grouped by source node.
    csr_edges: Vec<u32>,
    /// Source node of each edge, indexed by `EdgeId`.
    srcs: Vec<u32>,
    /// Destination node of each edge, indexed by `EdgeId`.
    dsts: Vec<u32>,
}

impl Graph {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.srcs.len()
    }

    /// Source node of `e`.
    #[inline]
    pub fn src(&self, e: EdgeId) -> NodeId {
        NodeId(self.srcs[e.idx()])
    }

    /// Destination node of `e`.
    #[inline]
    pub fn dst(&self, e: EdgeId) -> NodeId {
        NodeId(self.dsts[e.idx()])
    }

    /// Out-edges of `v` (as stable edge ids).
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        let lo = self.offsets[v.idx()] as usize;
        let hi = self.offsets[v.idx() + 1] as usize;
        self.csr_edges[lo..hi].iter().map(|&e| EdgeId(e))
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        (self.offsets[v.idx() + 1] - self.offsets[v.idx()]) as usize
    }

    /// The flat edge → source-router index: `edge_sources()[e]` is the
    /// node whose router owns the *output* side of edge `e` (its VC
    /// buffers live there). Per-router resource accounting — e.g. a
    /// shared VC pool drawn on by every outgoing channel of one router —
    /// stays `O(1)` per acquisition/release by indexing this slice
    /// instead of re-deriving ownership from the CSR adjacency.
    #[inline]
    pub fn edge_sources(&self) -> &[u32] {
        &self.srcs
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.num_edges() as u32).map(EdgeId)
    }

    /// Finds an edge `src -> dst` if one exists (linear in out-degree).
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_edges(src).find(|&e| self.dst(e) == dst)
    }

    /// Maximum out-degree over all nodes.
    pub fn max_out_degree(&self) -> usize {
        self.nodes().map(|v| self.out_degree(v)).max().unwrap_or(0)
    }

    /// Returns `true` if the *channel graph* is acyclic, i.e. the directed
    /// graph itself contains no cycle. Wormhole routing cannot deadlock on
    /// acyclic channel graphs (e.g. leveled networks).
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// A topological order of the nodes, or `None` if the graph has a
    /// cycle. The order is deterministic for a given graph (Kahn's
    /// algorithm with a LIFO frontier seeded in descending node order, so
    /// ties resolve toward smaller ids first).
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let n = self.num_nodes();
        let mut indeg = vec![0u32; n];
        for e in 0..self.num_edges() {
            indeg[self.dsts[e] as usize] += 1;
        }
        let mut stack: Vec<u32> = (0..n as u32)
            .rev()
            .filter(|&v| indeg[v as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = stack.pop() {
            order.push(NodeId(v));
            for e in self.out_edges(NodeId(v)) {
                let d = self.dsts[e.idx()] as usize;
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    stack.push(d as u32);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Whether the routing graph is *feedforward*: every route walks the
    /// channels in one global (topological) order, which holds exactly
    /// when the directed graph is acyclic. Feedforwardness is the
    /// precondition of the `wormhole-netcalc` analytic bound backend —
    /// leveled networks (butterflies, Beneš) qualify, while meshes and
    /// tori (even under the dateline discipline, whose *channel
    /// dependency* graph is acyclic but whose routing graph still wraps)
    /// do not.
    pub fn is_feedforward(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Breadth-first distances (in edges) from `src`; `u32::MAX` marks
    /// unreachable nodes.
    pub fn bfs_distances(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_nodes()];
        dist[src.idx()] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            let dv = dist[v.idx()];
            for e in self.out_edges(v) {
                let w = self.dst(e);
                if dist[w.idx()] == u32::MAX {
                    dist[w.idx()] = dv + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Finds a shortest path of edges from `src` to `dst` via BFS, or `None`
    /// if unreachable.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<EdgeId>> {
        if src == dst {
            return Some(Vec::new());
        }
        let mut pred: Vec<Option<EdgeId>> = vec![None; self.num_nodes()];
        let mut visited = vec![false; self.num_nodes()];
        visited[src.idx()] = true;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            for e in self.out_edges(v) {
                let w = self.dst(e);
                if !visited[w.idx()] {
                    visited[w.idx()] = true;
                    pred[w.idx()] = Some(e);
                    if w == dst {
                        // Reconstruct.
                        let mut path = Vec::new();
                        let mut cur = dst;
                        while cur != src {
                            let e = pred[cur.idx()].expect("predecessor chain broken");
                            path.push(e);
                            cur = self.src(e);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(w);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph, [EdgeId; 5]) {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 1 -> 2
        let mut b = GraphBuilder::new(4);
        let e0 = b.add_edge(NodeId(0), NodeId(1));
        let e1 = b.add_edge(NodeId(0), NodeId(2));
        let e2 = b.add_edge(NodeId(1), NodeId(3));
        let e3 = b.add_edge(NodeId(2), NodeId(3));
        let e4 = b.add_edge(NodeId(1), NodeId(2));
        (b.build(), [e0, e1, e2, e3, e4])
    }

    #[test]
    fn counts_and_endpoints() {
        let (g, e) = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.src(e[0]), NodeId(0));
        assert_eq!(g.dst(e[0]), NodeId(1));
        assert_eq!(g.src(e[4]), NodeId(1));
        assert_eq!(g.dst(e[4]), NodeId(2));
    }

    #[test]
    fn out_edges_grouped_by_source() {
        let (g, _) = diamond();
        for v in g.nodes() {
            for e in g.out_edges(v) {
                assert_eq!(g.src(e), v);
            }
        }
        let mut total = 0;
        for v in g.nodes() {
            total += g.out_degree(v);
        }
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn edge_ids_stable_across_build() {
        let (g, e) = diamond();
        // Insertion order: e[i].0 == i.
        for (i, id) in e.iter().enumerate() {
            assert_eq!(id.0 as usize, i);
        }
        // And the CSR view contains each id exactly once.
        let mut seen = vec![false; g.num_edges()];
        for v in g.nodes() {
            for e in g.out_edges(v) {
                assert!(!seen[e.idx()], "edge listed twice");
                seen[e.idx()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn edge_sources_is_the_src_map() {
        let (g, _) = diamond();
        let srcs = g.edge_sources();
        assert_eq!(srcs.len(), g.num_edges());
        for e in g.edges() {
            assert_eq!(NodeId(srcs[e.idx()]), g.src(e));
        }
        // And it partitions edges exactly like the CSR out-degree view.
        for v in g.nodes() {
            let owned = srcs.iter().filter(|&&s| s == v.0).count();
            assert_eq!(owned, g.out_degree(v));
        }
    }

    #[test]
    fn find_edge_works() {
        let (g, e) = diamond();
        assert_eq!(g.find_edge(NodeId(0), NodeId(1)), Some(e[0]));
        assert_eq!(g.find_edge(NodeId(3), NodeId(0)), None);
    }

    #[test]
    fn acyclicity() {
        let (g, _) = diamond();
        assert!(g.is_acyclic());
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(0));
        assert!(!b.build().is_acyclic());
    }

    #[test]
    fn topological_order_respects_edges() {
        let (g, _) = diamond();
        let order = g.topological_order().expect("diamond is a DAG");
        assert_eq!(order.len(), g.num_nodes());
        let mut rank = vec![0usize; g.num_nodes()];
        for (i, v) in order.iter().enumerate() {
            rank[v.idx()] = i;
        }
        for e in g.edges() {
            assert!(
                rank[g.src(e).idx()] < rank[g.dst(e).idx()],
                "edge {e:?} violates the order"
            );
        }
        // Deterministic: two calls agree.
        assert_eq!(g.topological_order(), g.topological_order());
    }

    #[test]
    fn topological_order_rejects_cycles() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(0));
        assert_eq!(b.build().topological_order(), None);
    }

    #[test]
    fn butterfly_and_benes_are_feedforward() {
        for k in 1..=5u32 {
            assert!(
                crate::butterfly::Butterfly::new(k).graph().is_feedforward(),
                "butterfly k={k}"
            );
            assert!(
                crate::benes::BenesNetwork::new(k).graph().is_feedforward(),
                "benes k={k}"
            );
        }
    }

    #[test]
    fn tori_are_not_feedforward_even_with_datelines() {
        use crate::mesh::{Mesh, RoutingDiscipline};
        let naive = Mesh::new(4, 2);
        assert!(!naive.graph().is_feedforward());
        let dateline = Mesh::new_disciplined(4, 2, RoutingDiscipline::DatelineClasses);
        assert!(
            !dateline.graph().is_feedforward(),
            "dateline classes break channel-dependency cycles, not graph cycles"
        );
    }

    #[test]
    fn bfs_and_shortest_path() {
        let (g, _) = diamond();
        let d = g.bfs_distances(NodeId(0));
        assert_eq!(d, vec![0, 1, 1, 2]);
        let p = g.shortest_path(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(g.src(p[0]), NodeId(0));
        assert_eq!(g.dst(p[1]), NodeId(3));
        assert_eq!(g.dst(p[0]), g.src(p[1]));
        assert!(g.shortest_path(NodeId(3), NodeId(0)).is_none());
        assert_eq!(g.shortest_path(NodeId(2), NodeId(2)), Some(vec![]));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(NodeId(0), NodeId(0));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_acyclic());
    }

    #[test]
    fn add_node_extends() {
        let mut b = GraphBuilder::new(2);
        let v = b.add_node();
        assert_eq!(v, NodeId(2));
        b.add_edge(NodeId(0), v);
        let g = b.build();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.out_degree(NodeId(0)), 1);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut b = GraphBuilder::new(2);
        let e0 = b.add_edge(NodeId(0), NodeId(1));
        let e1 = b.add_edge(NodeId(0), NodeId(1));
        assert_ne!(e0, e1);
        let g = b.build();
        assert_eq!(g.out_degree(NodeId(0)), 2);
    }
}
