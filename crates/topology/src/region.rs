//! Network partitions for the parallel simulation engine.
//!
//! A [`RegionPlan`] assigns every node of a [`Graph`] to one of `k`
//! *regions*. A routing edge belongs to the region of its **source**
//! node, so the VC holders of an edge — state that lives at the sending
//! router — are owned by exactly one region. The parallel engine
//! (`flitsim`'s `Engine::Parallel`) gives each worker one region — with
//! fewer workers than regions, a contiguous block of them merged into
//! one, so number adjacent regions adjacently — and synchronizes on
//! conservative time windows bounded by the plan's lookahead: the
//! minimum number of flit steps before an event in one region can
//! influence another. A header crosses one edge per
//! flit step in this model, so the global bound is 1 whenever any edge
//! crosses a cut — but the *plan-aware* bound is much better: a worm
//! whose header sits `d` hops away from the nearest cross edge cannot
//! touch the cut for `d` steps. [`RegionPlan::distance_to_cut`] computes
//! that per-node distance matrix, which is what lets the parallel engine
//! grant multi-step windows, each region stepping through its own with
//! no barrier, instead of running lockstep supersteps.
//!
//! Plans are built either directly ([`RegionPlan::contiguous`],
//! [`RegionPlan::contiguous_aligned`], [`RegionPlan::from_node_regions`])
//! or substrate-aware via `wormhole_workloads::Substrate::region_plan`,
//! which aligns the cut to coordinate planes (per-dimension slabs on
//! meshes/tori, per-stage cuts on butterflies).

use crate::graph::Graph;

/// A partition of a graph's nodes into regions, the unit of parallelism
/// for the partitioned discrete-event engine. Edges follow their source
/// node; see the module docs for the ownership and lookahead story.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionPlan {
    num_regions: u32,
    node_region: Vec<u32>,
    cross_edges: u64,
}

impl RegionPlan {
    /// Partitions the nodes into `k` contiguous, balanced index ranges.
    ///
    /// On graphs whose node numbering follows the topology's coordinates
    /// (all builders in this crate), contiguous ranges are geometric
    /// cuts: little-endian mesh ids make them slabs along the last
    /// dimension, level-major butterfly ids make them stage groups.
    ///
    /// `k` is clamped to the node count; panics on `k == 0` or an empty
    /// graph.
    pub fn contiguous(graph: &Graph, k: u32) -> Self {
        Self::contiguous_aligned(graph, k, 1)
    }

    /// Like [`RegionPlan::contiguous`], but region boundaries fall only
    /// on multiples of `align` nodes — e.g. `align = nodes/radix` turns
    /// the ranges into whole coordinate planes of a mesh. Panics on
    /// `align == 0` or when `align` does not divide the node count.
    pub fn contiguous_aligned(graph: &Graph, k: u32, align: u32) -> Self {
        let n = graph.num_nodes() as u32;
        assert!(k >= 1, "need at least one region");
        assert!(n >= 1, "cannot partition an empty graph");
        assert!(align >= 1, "alignment must be >= 1");
        assert!(
            n.is_multiple_of(align),
            "alignment {align} does not divide the node count {n}"
        );
        let blocks = n / align;
        let k = k.min(blocks);
        // Spread `blocks` blocks over `k` regions as evenly as possible
        // (first `blocks % k` regions get one extra block).
        let base = blocks / k;
        let extra = blocks % k;
        let mut node_region = Vec::with_capacity(n as usize);
        for r in 0..k {
            let b = base + u32::from(r < extra);
            for _ in 0..b * align {
                node_region.push(r);
            }
        }
        debug_assert_eq!(node_region.len(), n as usize);
        Self::from_node_regions(graph, node_region)
    }

    /// Builds a plan from an explicit node→region assignment. Panics
    /// unless the assignment covers every node, uses a dense region id
    /// range `0..k`, and leaves no region empty.
    pub fn from_node_regions(graph: &Graph, node_region: Vec<u32>) -> Self {
        assert_eq!(
            node_region.len(),
            graph.num_nodes(),
            "assignment length must equal the node count"
        );
        assert!(!node_region.is_empty(), "cannot partition an empty graph");
        let k = node_region.iter().copied().max().unwrap() + 1;
        let mut seen = vec![false; k as usize];
        for &r in &node_region {
            seen[r as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "region ids must be dense: every region in 0..{k} must own a node"
        );
        let cross_edges = graph
            .edges()
            .filter(|&e| node_region[graph.src(e).idx()] != node_region[graph.dst(e).idx()])
            .count() as u64;
        Self {
            num_regions: k,
            node_region,
            cross_edges,
        }
    }

    /// Number of regions (≥ 1).
    #[inline]
    pub fn num_regions(&self) -> u32 {
        self.num_regions
    }

    /// Region of each node, indexed by node id.
    #[inline]
    pub fn node_regions(&self) -> &[u32] {
        &self.node_region
    }

    /// Number of edges whose endpoints lie in different regions.
    #[inline]
    pub fn cross_edges(&self) -> u64 {
        self.cross_edges
    }

    /// Whether this plan was built for a graph of the same shape.
    #[inline]
    pub fn matches(&self, graph: &Graph) -> bool {
        self.node_region.len() == graph.num_nodes()
    }

    /// Per-node distance-to-cut: `d[v]` is the minimum number of flit
    /// steps before a worm whose header sits at node `v` can traverse an
    /// edge that leaves `v`'s region (`u64::MAX` if no cross edge is
    /// reachable from `v` — the causally-independent case).
    ///
    /// This is a *lower bound on influence*, the quantity a conservative
    /// parallel engine needs: until it crosses a cut edge a header only
    /// ever contends for out-edges of nodes in its own region (edges
    /// follow their source node), so for any window shorter than `d[v]`
    /// a worm headed at `v` touches exclusively region-owned state. The
    /// bound is exact, not just safe: a header adjacent to a cut edge
    /// (`d = 1`) can cross it on the very next step.
    ///
    /// Computed as one multi-source BFS over the *reversed* intra-region
    /// edges, seeded with `d = 1` at the source of every cross edge —
    /// `O(V + E)` for all regions at once.
    pub fn distance_to_cut(&self, graph: &Graph) -> Vec<u64> {
        assert!(self.matches(graph), "plan does not match the graph");
        let n = graph.num_nodes();
        // Reverse adjacency (CSR) restricted to intra-region edges: the
        // only edges a relaxation may walk backwards without crossing a
        // cut itself.
        let mut starts = vec![0u32; n + 1];
        for e in graph.edges() {
            let (s, d) = (graph.src(e).idx(), graph.dst(e).idx());
            if self.node_region[s] == self.node_region[d] {
                starts[d + 1] += 1;
            }
        }
        for v in 0..n {
            starts[v + 1] += starts[v];
        }
        let mut preds = vec![0u32; starts[n] as usize];
        let mut fill = starts.clone();
        for e in graph.edges() {
            let (s, d) = (graph.src(e).idx(), graph.dst(e).idx());
            if self.node_region[s] == self.node_region[d] {
                preds[fill[d] as usize] = s as u32;
                fill[d] += 1;
            }
        }
        let mut dist = vec![u64::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for e in graph.edges() {
            let (s, d) = (graph.src(e).idx(), graph.dst(e).idx());
            if self.node_region[s] != self.node_region[d] && dist[s] == u64::MAX {
                dist[s] = 1;
                queue.push_back(s as u32);
            }
        }
        while let Some(v) = queue.pop_front() {
            let dv = dist[v as usize];
            for i in starts[v as usize]..starts[v as usize + 1] {
                let u = preds[i as usize] as usize;
                if dist[u] == u64::MAX {
                    dist[u] = dv + 1;
                    queue.push_back(u as u32);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, NodeId};

    fn chain(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n - 1 {
            b.add_edge(NodeId(v), NodeId(v + 1));
        }
        b.build()
    }

    #[test]
    fn contiguous_balanced() {
        let g = chain(10);
        let p = RegionPlan::contiguous(&g, 3);
        assert_eq!(p.num_regions(), 3);
        // 10 = 4 + 3 + 3
        assert_eq!(p.node_regions(), &[0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        // Exactly the two edges 3->4 and 6->7 cross the cut.
        assert_eq!(p.cross_edges(), 2);
        assert!(p.matches(&g));
    }

    #[test]
    fn clamps_region_count_to_nodes() {
        let g = chain(3);
        let p = RegionPlan::contiguous(&g, 16);
        assert_eq!(p.num_regions(), 3);
        assert_eq!(p.node_regions(), &[0, 1, 2]);
    }

    #[test]
    fn aligned_boundaries() {
        let g = chain(12);
        let p = RegionPlan::contiguous_aligned(&g, 3, 4);
        assert_eq!(p.num_regions(), 3);
        assert_eq!(p.node_regions()[3], 0);
        assert_eq!(p.node_regions()[4], 1);
        assert_eq!(p.node_regions()[8], 2);
    }

    #[test]
    fn independent_regions_have_infinite_lookahead() {
        // Two disjoint 2-chains: nodes 0->1 and 2->3.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(2), NodeId(3));
        let g = b.build();
        let p = RegionPlan::from_node_regions(&g, vec![0, 0, 1, 1]);
        assert_eq!(p.cross_edges(), 0);
    }

    #[test]
    fn distance_to_cut_on_a_chain() {
        let g = chain(10);
        let p = RegionPlan::contiguous(&g, 3);
        // Regions [0..4), [4..7), [7..10); cut edges 3->4 and 6->7.
        let d = p.distance_to_cut(&g);
        assert_eq!(d[..4], [4, 3, 2, 1]);
        assert_eq!(d[4..7], [3, 2, 1]);
        // The last region has no outgoing cut edge: its nodes can never
        // influence another region.
        assert_eq!(d[7..], [u64::MAX, u64::MAX, u64::MAX]);
    }

    #[test]
    fn distance_to_cut_on_a_ring() {
        // Bidirectional 8-ring, two halves: every node can reach a cut
        // in both directions; interior nodes are 2 steps from one.
        let n = 8u32;
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n {
            b.add_edge(NodeId(v), NodeId((v + 1) % n));
            b.add_edge(NodeId((v + 1) % n), NodeId(v));
        }
        let g = b.build();
        let p = RegionPlan::from_node_regions(&g, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let d = p.distance_to_cut(&g);
        assert_eq!(d, vec![1, 2, 2, 1, 1, 2, 2, 1]);
    }

    #[test]
    fn distance_to_cut_independent_regions() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(2), NodeId(3));
        let g = b.build();
        let p = RegionPlan::from_node_regions(&g, vec![0, 0, 1, 1]);
        assert_eq!(p.distance_to_cut(&g), vec![u64::MAX; 4]);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn rejects_sparse_region_ids() {
        let g = chain(4);
        RegionPlan::from_node_regions(&g, vec![0, 0, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn rejects_misaligned() {
        let g = chain(10);
        RegionPlan::contiguous_aligned(&g, 2, 4);
    }
}
