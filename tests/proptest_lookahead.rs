//! Property tests for the plan-aware lookahead matrix
//! ([`RegionPlan::distance_to_cut`]).
//!
//! The parallel engine's window grants are only sound if the matrix is
//! a true **lower bound**: no worm whose header sits at node `v` can
//! traverse a cross edge in fewer than `dist[v]` flit steps, because a
//! header advances at most one edge per step and every prefix of its
//! walk before the first cross edge stays inside `v`'s region. The
//! implementation computes the bound with one reverse BFS over the
//! intra-region subgraph; these tests re-derive it with an independent
//! **forward** BFS per node on random mesh / torus / butterfly plans
//! (contiguous slabs and adversarial random node→region maps), and pin
//! the causally-independent case: a node with no path to any cut
//! must report `u64::MAX` so the engine never barriers on its account.

use std::collections::VecDeque;

use proptest::prelude::*;

use wormhole_topology::graph::Graph;
use wormhole_topology::region::RegionPlan;
use wormhole_workloads::Substrate;

/// Forward oracle, one BFS per node: the length of the shortest walk
/// from `v` whose last edge is the first cross edge traversed (i.e.
/// hops to reach a cross-edge source inside the region, plus one for
/// crossing), or `u64::MAX` when no cross edge is reachable.
fn forward_distance_to_cut(graph: &Graph, plan: &RegionPlan) -> Vec<u64> {
    let reg = plan.node_regions();
    let n = graph.num_nodes();
    let mut out = vec![u64::MAX; n];
    for start in graph.nodes() {
        let mut dist = vec![u64::MAX; n];
        let mut q = VecDeque::new();
        dist[start.idx()] = 0;
        q.push_back(start);
        let mut best = u64::MAX;
        while let Some(u) = q.pop_front() {
            let du = dist[u.idx()];
            for e in graph.out_edges(u) {
                let v = graph.dst(e);
                if reg[u.idx()] != reg[v.idx()] {
                    // Crossing here costs one more traversal.
                    best = best.min(du + 1);
                } else if dist[v.idx()] == u64::MAX {
                    dist[v.idx()] = du + 1;
                    q.push_back(v);
                }
            }
        }
        out[start.idx()] = best;
    }
    out
}

/// Checks the full contract of the lookahead matrix on one plan:
/// exact agreement with the forward oracle (which subsumes the lower
/// bound), strict positivity, and no bound at all on a cut-free plan.
fn assert_lookahead_contract(graph: &Graph, plan: &RegionPlan) {
    let dist = plan.distance_to_cut(graph);
    let oracle = forward_distance_to_cut(graph, plan);
    assert_eq!(
        dist, oracle,
        "reverse-BFS matrix disagrees with the forward per-node oracle"
    );
    assert!(
        dist.iter().all(|&d| d >= 1),
        "a header needs at least one step to traverse any edge"
    );
    if plan.cross_edges() == 0 {
        assert!(
            dist.iter().all(|&d| d == u64::MAX),
            "a cut-free plan must grant unbounded windows everywhere"
        );
    }
}

/// An adversarial node→region map: hash-scatter nodes over `k`
/// regions, which produces ragged cuts (including empty regions and
/// single-node islands) that contiguous slabs never exercise.
fn scattered_plan(graph: &Graph, k: u32, seed: u64) -> RegionPlan {
    let mut map: Vec<u32> = (0..graph.num_nodes() as u64)
        .map(|v| {
            let h = (v ^ seed)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(31);
            (h % k as u64) as u32
        })
        .collect();
    // Compact to dense ids in first-appearance order (the constructor
    // rejects plans where some region in 0..k owns no node).
    let mut remap = vec![u32::MAX; k as usize];
    let mut next = 0;
    for r in &mut map {
        let slot = &mut remap[*r as usize];
        if *slot == u32::MAX {
            *slot = next;
            next += 1;
        }
        *r = *slot;
    }
    RegionPlan::from_node_regions(graph, map)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Meshes (no wrap): contiguous slabs and scattered maps.
    #[test]
    fn mesh_lookahead_is_a_lower_bound(
        radix in 2u32..6,
        dims in 1u32..4,
        k in 1u32..9,
        seed in 0u64..1000,
    ) {
        let s = Substrate::mesh(radix, dims);
        assert_lookahead_contract(s.graph(), &RegionPlan::contiguous(s.graph(), k));
        assert_lookahead_contract(s.graph(), &scattered_plan(s.graph(), k, seed));
    }

    /// Dateline tori: wrap links make every ring a cycle, so reverse
    /// and forward reachability genuinely differ per direction.
    #[test]
    fn torus_lookahead_is_a_lower_bound(
        radix in 3u32..7,
        dims in 1u32..3,
        k in 1u32..9,
        seed in 0u64..1000,
    ) {
        let s = Substrate::torus(radix, dims);
        assert_lookahead_contract(s.graph(), &RegionPlan::contiguous(s.graph(), k));
        assert_lookahead_contract(s.graph(), &scattered_plan(s.graph(), k, seed));
    }

    /// Butterflies: a DAG, so nodes past the last cut in topological
    /// order are exactly the `u64::MAX` entries.
    #[test]
    fn butterfly_lookahead_is_a_lower_bound(
        k_exp in 1u32..5,
        regions in 1u32..9,
        seed in 0u64..1000,
    ) {
        // `butterfly(k)` is the 2^k-input network.
        let s = Substrate::butterfly(k_exp);
        assert_lookahead_contract(s.graph(), &RegionPlan::contiguous(s.graph(), regions));
        assert_lookahead_contract(s.graph(), &scattered_plan(s.graph(), regions, seed));
    }

    /// Causally independent regions: with `k = 1` there is no cut at
    /// all, and on a butterfly the sink stage can never reach one, so
    /// both must report `u64::MAX` — the engine's licence to run such
    /// regions to completion without a single barrier.
    #[test]
    fn independent_regions_grant_unbounded_windows(
        radix in 3u32..7,
        dims in 1u32..3,
    ) {
        let s = Substrate::torus(radix, dims);
        let plan = RegionPlan::contiguous(s.graph(), 1);
        prop_assert_eq!(plan.cross_edges(), 0);
        prop_assert!(plan.distance_to_cut(s.graph()).iter().all(|&d| d == u64::MAX));

        // Two regions split at the butterfly's output stage: inputs can
        // reach the cut, outputs never can (out-degree 0 side).
        let b = Substrate::butterfly(4);
        let g = b.graph();
        let last_stage: Vec<u32> = g
            .nodes()
            .map(|v| u32::from(g.out_degree(v) == 0))
            .collect();
        let plan = RegionPlan::from_node_regions(g, last_stage);
        let dist = plan.distance_to_cut(g);
        for v in g.nodes() {
            if g.out_degree(v) == 0 {
                prop_assert_eq!(dist[v.idx()], u64::MAX);
            } else {
                prop_assert!(dist[v.idx()] < u64::MAX, "source side reaches the cut");
            }
        }
    }
}
