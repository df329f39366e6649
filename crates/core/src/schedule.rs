//! Color schedules: turn a B-bounded coloring into release times and
//! execute it on the flit simulator (Theorem 2.1.6's final step).
//!
//! "We start routing the messages in the i-th color class at time
//! `(i−1)(L+D−1)` and we can complete routing all the messages in time
//! `κ(L+D−1)`" — each class has multiplex size ≤ B so it routes with zero
//! blocking, and consecutive classes never overlap.

use wormhole_topology::graph::Graph;
use wormhole_topology::path::PathSet;

use wormhole_flitsim::config::SimConfig;
use wormhole_flitsim::message::MessageSpec;
use wormhole_flitsim::stats::{Outcome, SimResult};
use wormhole_flitsim::wormhole;

use crate::coloring::Coloring;

/// A wormhole routing schedule: a coloring plus a release spacing.
#[derive(Clone, Debug)]
pub struct ColorSchedule {
    /// The B-bounded coloring (class i released at `i · spacing`).
    pub coloring: Coloring,
    /// Flit steps between consecutive class releases; `L + D − 1` per the
    /// paper ([`ColorSchedule::paper_spacing`]).
    pub spacing: u64,
}

impl ColorSchedule {
    /// The paper's spacing `L + D − 1`.
    pub fn paper_spacing(l: u32, d: u32) -> u64 {
        l as u64 + d as u64 - 1
    }

    /// Builds a schedule from a coloring with the paper's spacing.
    pub fn new(coloring: Coloring, l: u32, d: u32) -> Self {
        Self {
            coloring,
            spacing: Self::paper_spacing(l, d),
        }
    }

    /// Predicted schedule length: `κ · spacing` flit steps (an upper bound
    /// on the measured makespan; the last class finishes possibly earlier).
    pub fn predicted_length(&self) -> u64 {
        self.coloring.num_colors() as u64 * self.spacing
    }

    /// Materializes simulator message specs (priority = color, so
    /// `Arbitration::PriorityRank` favors earlier classes if runs overlap).
    pub fn to_specs(&self, paths: &PathSet, l: u32) -> Vec<MessageSpec> {
        assert_eq!(paths.len(), self.coloring.len());
        paths
            .paths()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let c = self.coloring.color(i);
                MessageSpec::new(p.clone(), l)
                    .release_at(c as u64 * self.spacing)
                    .with_priority(c)
            })
            .collect()
    }

    /// Executes the schedule on the wormhole simulator with `b` VCs.
    pub fn execute(&self, graph: &Graph, paths: &PathSet, l: u32, b: u32) -> SimResult {
        let specs = self.to_specs(paths, l);
        wormhole::run(graph, &specs, &SimConfig::new(b))
    }

    /// Executes and asserts the paper's guarantee: completion, zero stalls,
    /// and makespan within `κ · spacing`. Panics (with diagnostics) if the
    /// coloring was not actually B-bounded for this `b`.
    pub fn execute_checked(&self, graph: &Graph, paths: &PathSet, l: u32, b: u32) -> SimResult {
        let r = self.execute(graph, paths, l, b);
        assert_eq!(r.outcome, Outcome::Completed, "schedule did not complete");
        assert_eq!(
            r.total_stalls, 0,
            "a B-bounded schedule must never block (multiplex > {b}?)"
        );
        assert!(
            r.total_steps <= self.predicted_length(),
            "makespan {} exceeds κ(L+D−1) = {}",
            r.total_steps,
            self.predicted_length()
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firstfit::{first_fit, FirstFitOrder};
    use crate::pipeline::{adaptive_min_colors, run_pipeline, RFactor};
    use wormhole_topology::random_nets::{shared_chain_instance, staggered_instance, LeveledNet};

    #[test]
    fn schedule_on_shared_chain_is_exact() {
        // C=6, B=2 → 3 classes of 2; makespan = 2·spacing + (D+L−1).
        let (g, ps) = shared_chain_instance(6, 5);
        let l = 4u32;
        let col = first_fit(&ps, &g, 2, FirstFitOrder::Input);
        assert_eq!(col.num_colors(), 3);
        let sched = ColorSchedule::new(col, l, 5);
        let r = sched.execute_checked(&g, &ps, l, 2);
        assert_eq!(r.total_steps, 2 * sched.spacing + (5 + l as u64 - 1));
    }

    #[test]
    fn pipeline_schedule_executes_without_blocking() {
        let (g, ps) = staggered_instance(6, 32, 48);
        let l = 8u32;
        let b = 2u32;
        let rep = run_pipeline(&ps, &g, b, RFactor::Adaptive { sweep_budget: 64 }, 3).unwrap();
        let sched = ColorSchedule::new(rep.coloring, l, ps.dilation());
        let r = sched.execute_checked(&g, &ps, l, b);
        assert_eq!(r.delivered(), ps.len());
    }

    #[test]
    fn schedule_on_random_leveled_net() {
        let net = LeveledNet::random(10, 6, 2, 9);
        let ps = net.random_walk_paths(48, 10);
        let l = 6u32;
        for b in [1u32, 2, 3] {
            let rep = adaptive_min_colors(&ps, net.graph(), b, 4, 64).unwrap();
            let sched = ColorSchedule::new(rep.coloring, l, ps.dilation());
            let r = sched.execute_checked(net.graph(), &ps, l, b);
            assert!(r.max_vcs_in_use <= b);
        }
    }

    #[test]
    fn under_provisioned_b_blocks() {
        // Execute a 2-bounded schedule with only B=1 VCs: stalls appear.
        let (g, ps) = shared_chain_instance(4, 5);
        let col = first_fit(&ps, &g, 2, FirstFitOrder::Input);
        let sched = ColorSchedule::new(col, 4, 5);
        let r = sched.execute(&g, &ps, 4, 1);
        assert!(r.total_stalls > 0);
    }

    #[test]
    fn release_times_and_priorities() {
        let col = Coloring::new(vec![0, 2, 1], 3);
        let sched = ColorSchedule {
            coloring: col,
            spacing: 10,
        };
        let (_, ps) = shared_chain_instance(3, 2);
        let specs = sched.to_specs(&ps, 4);
        let releases: Vec<u64> = specs.iter().map(|s| s.release).collect();
        let priorities: Vec<u32> = specs.iter().map(|s| s.priority).collect();
        assert_eq!(releases, vec![0, 20, 10]);
        assert_eq!(priorities, vec![0, 2, 1]);
        assert_eq!(sched.predicted_length(), 30);
    }
}
