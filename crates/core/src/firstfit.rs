//! First-fit B-bounded coloring — the practical greedy comparator.
//!
//! Assign each message the smallest color such that no edge on its path
//! already carries `B` messages of that color. This is the algorithm a
//! practitioner would reach for; the experiments report its class count κ
//! next to the LLL pipeline's and the theorem's formula. (First-fit carries
//! no worst-case guarantee matching Thm 2.1.6, but on typical instances it
//! is strong, and it can never use fewer than `⌈C/B⌉` classes.)

use wormhole_topology::graph::Graph;
use wormhole_topology::path::PathSet;

use crate::coloring::{ClassLoads, Coloring};

/// Message-ordering heuristics for first-fit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FirstFitOrder {
    /// Input order.
    Input,
    /// Longest path first (helps pack long, conflict-heavy messages early).
    LongestFirst,
    /// Most-congested path first (sum of edge loads along the path).
    MostConflictedFirst,
}

/// Greedy first-fit coloring with per-(edge, color) load capped at `b`.
pub fn first_fit(paths: &PathSet, graph: &Graph, b: u32, order: FirstFitOrder) -> Coloring {
    assert!(b >= 1);
    let n = paths.len();
    let mut idx: Vec<u32> = (0..n as u32).collect();
    match order {
        FirstFitOrder::Input => {}
        FirstFitOrder::LongestFirst => {
            idx.sort_by_key(|&i| std::cmp::Reverse(paths.path(i as usize).len()));
        }
        FirstFitOrder::MostConflictedFirst => {
            let loads = paths.edge_loads(graph);
            idx.sort_by_key(|&i| {
                let s: u64 = paths
                    .path(i as usize)
                    .edges()
                    .iter()
                    .map(|e| loads[e.idx()] as u64)
                    .sum();
                std::cmp::Reverse(s)
            });
        }
    }

    let mut loads = ClassLoads::new(graph.num_edges());
    let mut colors = vec![0u32; n];
    let mut num_colors = 0u32;
    for &i in &idx {
        let p = paths.path(i as usize);
        let c = loads.first_fit(p, b, num_colors).unwrap_or(num_colors);
        num_colors = num_colors.max(c + 1);
        loads.add(c, p);
        colors[i as usize] = c;
    }
    Coloring::new(colors, num_colors.max(1))
}

/// Greedy descent on an existing B-bounded coloring: repeatedly move each
/// message to the smallest class that stays B-bounded, until a fixpoint
/// (or `max_passes`). Preserves B-boundedness; never increases the class
/// count. Used to tighten Moser–Tardos outputs, whose random splits carry
/// slack that ordered reassignment recovers.
pub fn compact_coloring(
    paths: &PathSet,
    graph: &Graph,
    coloring: &Coloring,
    b: u32,
    max_passes: u32,
) -> Coloring {
    let mut colors: Vec<u32> = coloring.colors().to_vec();
    let mut loads = ClassLoads::of(paths, &colors, graph.num_edges());
    for _ in 0..max_passes {
        let mut moved = false;
        for (color, p) in colors.iter_mut().zip(paths.paths()) {
            // Take the message out, then first-fit it back.
            let cur = *color;
            loads.remove(cur, p);
            let dest = loads.first_fit(p, b, cur).unwrap_or(cur);
            loads.add(dest, p);
            moved |= dest != cur;
            *color = dest;
        }
        if !moved {
            break;
        }
    }
    Coloring::new(colors, coloring.num_colors()).compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_topology::random_nets::{shared_chain_instance, staggered_instance, LeveledNet};

    #[test]
    fn shared_chain_needs_exactly_ceil_c_over_b() {
        for (c, b) in [(8u32, 1u32), (8, 2), (9, 2), (8, 3), (5, 5)] {
            let (g, ps) = shared_chain_instance(c, 4);
            let col = first_fit(&ps, &g, b, FirstFitOrder::Input);
            assert_eq!(col.num_colors(), c.div_ceil(b), "c={c} b={b}");
            assert!(col.multiplex_size(&ps, &g) <= b);
        }
    }

    #[test]
    fn result_is_always_b_bounded() {
        let net = LeveledNet::random(12, 6, 2, 5);
        let ps = net.random_walk_paths(80, 6);
        for b in 1..=4 {
            for order in [
                FirstFitOrder::Input,
                FirstFitOrder::LongestFirst,
                FirstFitOrder::MostConflictedFirst,
            ] {
                let col = first_fit(&ps, net.graph(), b, order);
                assert!(col.multiplex_size(&ps, net.graph()) <= b);
                assert!(col.num_colors() >= ps.congestion(net.graph()).div_ceil(b));
            }
        }
    }

    #[test]
    fn staggered_instance_colors_efficiently() {
        let (g, ps) = staggered_instance(8, 32, 64);
        let c = ps.congestion(&g);
        let col = first_fit(&ps, &g, 2, FirstFitOrder::Input);
        // Interval-structured overlaps: first-fit should land close to C/B.
        assert!(col.num_colors() <= c, "κ={} vs C={c}", col.num_colors());
        assert!(col.multiplex_size(&ps, &g) <= 2);
    }

    #[test]
    fn empty_paths() {
        let (g, _) = shared_chain_instance(1, 2);
        let col = first_fit(&PathSet::new(vec![]), &g, 2, FirstFitOrder::Input);
        assert_eq!(col.len(), 0);
    }

    #[test]
    fn compaction_preserves_boundedness_and_never_grows() {
        let net = LeveledNet::random(10, 6, 2, 8);
        let ps = net.random_walk_paths(60, 9);
        let g = net.graph();
        // A deliberately wasteful coloring: everyone alone.
        let wasteful = Coloring::new((0..60).collect(), 60);
        for b in [1u32, 2, 3] {
            let tight = compact_coloring(&ps, g, &wasteful, b, 4);
            assert!(tight.multiplex_size(&ps, g) <= b);
            assert!(tight.num_colors() <= 60);
            // Compaction from singletons is exactly first-fit in input
            // order, so it matches that class count.
            let ff = first_fit(&ps, g, b, FirstFitOrder::Input);
            assert_eq!(tight.num_colors(), ff.num_colors());
        }
    }

    #[test]
    fn compaction_is_idempotent_at_fixpoint() {
        let (g, ps) = staggered_instance(6, 24, 48);
        let ff = first_fit(&ps, &g, 2, FirstFitOrder::Input);
        let once = compact_coloring(&ps, &g, &ff, 2, 4);
        let twice = compact_coloring(&ps, &g, &once, 2, 4);
        assert_eq!(once.num_colors(), twice.num_colors());
    }
}
