//! Store-and-forward baselines: greedy online routing and the
//! Leighton–Maggs–Rao-style random-delay schedule.
//!
//! LMR \[27\] proved `O(C+D)` message-step schedules exist for any instance;
//! their simple online algorithm gives `O(C + D·log n)` w.h.p. by delaying
//! each message a uniformly random amount and then sending it at full speed.
//! Greedy and farthest-first are the store-and-forward side of experiment
//! E4 (where they beat `B=1` wormhole on the Thm 2.2.1 instance); the
//! random-delay schedule is a sanity baseline.

use rand::prelude::*;
use rand::rngs::StdRng;

use wormhole_flitsim::store_forward::{run, SfArbitration, SfConfig, SfResult};
use wormhole_topology::graph::Graph;
use wormhole_topology::path::PathSet;

/// Greedy online store-and-forward with unbounded buffers and FIFO
/// contention — the plainest baseline.
pub fn greedy_store_forward(graph: &Graph, paths: &PathSet) -> SfResult {
    run(graph, paths, &[], &SfConfig::default())
}

/// Greedy with the farthest-first heuristic.
pub fn farthest_first_store_forward(graph: &Graph, paths: &PathSet) -> SfResult {
    let config = SfConfig {
        arbitration: SfArbitration::FarthestFirst,
        ..SfConfig::default()
    };
    run(graph, paths, &[], &config)
}

/// LMR-style random initial delays: each message waits a uniform delay in
/// `[0, ⌈α·C⌉]` message steps before injection, then routes greedily.
/// With `α ≈ 1` this smooths bursts; the expected makespan tracks
/// `O(C + D·log n)`.
pub fn random_delay_store_forward(
    graph: &Graph,
    paths: &PathSet,
    alpha: f64,
    seed: u64,
) -> SfResult {
    let c = paths.congestion(graph);
    let span = ((alpha * c as f64).ceil() as u64).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let releases: Vec<u64> = (0..paths.len())
        .map(|_| rng.random_range(0..=span))
        .collect();
    run(graph, paths, &releases, &SfConfig::default())
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
            random_delay_store_forward(net.graph(), &ps, 1.0, 6),
        ] {
            assert_eq!(r.outcome, wormhole_flitsim::stats::Outcome::Completed);
            assert!(r.message_steps >= d);
            // Crude sanity ceiling: far below the naive C·D serialization.
            assert!(r.message_steps <= (c + 1) * d);
        }
    }

    #[test]
    fn random_delay_costs_at_most_the_delay_span() {
        let (g, ps) = shared_chain_instance(16, 4);
        let c = ps.congestion(&g) as u64;
        let burst = greedy_store_forward(&g, &ps);
        let spread = random_delay_store_forward(&g, &ps, 1.0, 7);
        assert_eq!(spread.outcome, wormhole_flitsim::stats::Outcome::Completed);
        // Delays are ≤ ⌈α·C⌉, so the makespan can exceed the burst run by at
        // most that span.
        assert!(spread.message_steps <= burst.message_steps + c + 1);
        assert!(spread.message_steps >= burst.message_steps.min(c));
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, ps) = shared_chain_instance(8, 6);
        let a = random_delay_store_forward(&g, &ps, 1.0, 9);
        let b = random_delay_store_forward(&g, &ps, 1.0, 9);
        assert_eq!(a.finished, b.finished);
    }
}
