//! Store-and-forward baselines: greedy online routing, FIFO and
//! farthest-first.
//!
//! LMR \[27\] proved `O(C+D)` message-step schedules exist for any
//! instance. Greedy and farthest-first are the store-and-forward side of
//! experiment E4 (where they beat `B=1` wormhole on the Thm 2.2.1
//! instance).

use wormhole_flitsim::store_forward::{run, SfArbitration, SfConfig, SfResult};
use wormhole_topology::graph::Graph;
use wormhole_topology::path::PathSet;

/// Greedy online store-and-forward with unbounded buffers and FIFO
/// contention — the plainest baseline.
pub fn greedy_store_forward(graph: &Graph, paths: &PathSet) -> SfResult {
    run(graph, paths, &SfConfig::default())
}

/// Greedy with the farthest-first heuristic.
pub fn farthest_first_store_forward(graph: &Graph, paths: &PathSet) -> SfResult {
    let config = SfConfig {
        arbitration: SfArbitration::FarthestFirst,
    };
    run(graph, paths, &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_topology::random_nets::{shared_chain_instance, LeveledNet};

    #[test]
    fn greedy_achieves_pipeline_bound_on_chain() {
        let (g, ps) = shared_chain_instance(6, 8);
        let r = greedy_store_forward(&g, &ps);
        // C+D−1 is optimal here; greedy achieves it with unbounded buffers.
        assert_eq!(r.message_steps, 6 + 8 - 1);
    }

    #[test]
    fn all_policies_complete_on_random_leveled() {
        let net = LeveledNet::random(10, 8, 2, 4);
        let ps = net.random_walk_paths(60, 5);
        let c = ps.congestion(net.graph()) as u64;
        let d = ps.dilation() as u64;
        for r in [
            greedy_store_forward(net.graph(), &ps),
            farthest_first_store_forward(net.graph(), &ps),
        ] {
            assert_eq!(r.outcome, wormhole_flitsim::stats::Outcome::Completed);
            assert!(r.message_steps >= d);
            // Crude sanity ceiling: far below the naive C·D serialization.
            assert!(r.message_steps <= (c + 1) * d);
        }
    }
}
