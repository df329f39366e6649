//! Store-and-forward routing baseline.
//!
//! In a store-and-forward router a switch must buffer an **entire message**
//! before forwarding it, so a message makes discrete hops; one hop takes a
//! *message step* = `L` flit steps (paper §1). The Leighton–Maggs–Rao line
//! of work shows `O(C + D)` message-step schedules exist for any instance;
//! the paper contrasts this with wormhole routing, which the Thm 2.2.1
//! instance forces up to `Ω(LCD)` flit steps at `B = 1` (experiment E4).
//!
//! The simulator is cycle-accurate at message-step granularity: each edge
//! forwards at most one message per step into an unbounded head-of-edge
//! buffer (the setting of the classic analyses), so every contended edge
//! moves one message each step and no run deadlocks. Moves are decided from
//! start-of-step state, so results are independent of iteration order.

use wormhole_topology::graph::Graph;
use wormhole_topology::path::PathSet;

use crate::message::check_path;
use crate::source::ReleaseClock;
use crate::stats::Outcome;
use crate::wormhole::SimError;

/// Priority rule when several messages want the same edge in one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SfArbitration {
    /// Lowest message id wins.
    Fifo,
    /// The message with the most remaining hops wins (a classic greedy
    /// heuristic that keeps long paths moving).
    FarthestFirst,
}

/// Store-and-forward configuration.
#[derive(Clone, Debug)]
pub struct SfConfig {
    /// Contention policy.
    pub arbitration: SfArbitration,
}

impl Default for SfConfig {
    fn default() -> Self {
        Self {
            arbitration: SfArbitration::Fifo,
        }
    }
}

/// Result of a store-and-forward run. Times are in **message steps**;
/// multiply by `L` (e.g. via [`SfResult::flit_steps`]) to compare against
/// wormhole runs.
#[derive(Clone, Debug)]
pub struct SfResult {
    /// Completion status.
    pub outcome: Outcome,
    /// Makespan in message steps.
    pub message_steps: u64,
    /// Per-message completion times (message steps, end-of-step).
    pub finished: Vec<Option<u64>>,
    /// Total blocked-step count.
    pub total_stalls: u64,
    /// Maximum messages ever resident in one edge buffer.
    pub max_buffer_occupancy: u32,
}

impl SfResult {
    /// Makespan converted to flit steps for messages of length `l`.
    pub fn flit_steps(&self, l: u32) -> u64 {
        self.message_steps * l as u64
    }
}

/// Runs store-and-forward routing of `paths` over `graph`, every message
/// injected at step 0.
///
/// # Errors
///
/// Before step 0, [`SimError::Spec`] for the first path that is empty
/// or names an edge id `graph` lacks (`id` is its index).
pub fn run(graph: &Graph, paths: &PathSet, config: &SfConfig) -> Result<SfResult, SimError> {
    for (id, path) in (0..).zip(paths.paths()) {
        check_path(graph, path).map_err(|error| SimError::Spec { id, error })?;
    }
    let n = paths.len();
    // Position of each message: number of edges crossed so far; `u32::MAX`
    // marks finished. A message that has crossed `j ≥ 1` edges occupies the
    // buffer at the head of its `j`-th path edge.
    let mut pos = vec![0u32; n];
    let mut finished: Vec<Option<u64>> = vec![None; n];
    let mut buffer_count = vec![0u32; graph.num_edges()];

    let mut clock = ReleaseClock::new(n, |_| 0);
    let mut active: Vec<u32> = Vec::new();

    // Scratch: contenders per edge.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); graph.num_edges()];
    let mut touched: Vec<u32> = Vec::new();

    let mut t: u64 = 0;
    let mut total_stalls = 0u64;
    let mut max_occ = 0u32;
    let outcome = loop {
        if let Some(outcome) = clock.tick(&mut t, &mut active) {
            break outcome;
        }

        // Phase 1: every active message wants to cross its next edge.
        for &m in &active {
            let p = paths.path(m as usize);
            let e = p.edges()[pos[m as usize] as usize].idx();
            if buckets[e].is_empty() {
                touched.push(e as u32);
            }
            buckets[e].push(m);
        }
        // Phase 2: per edge, one winner (bandwidth).
        let mut movers: Vec<u32> = Vec::new();
        for &e in &touched {
            let contenders = &mut buckets[e as usize];
            let winner = match config.arbitration {
                SfArbitration::Fifo => *contenders.iter().min().unwrap(),
                SfArbitration::FarthestFirst => *contenders
                    .iter()
                    .min_by_key(|&&m| {
                        let remaining = paths.path(m as usize).len() as u32 - pos[m as usize];
                        (u32::MAX - remaining, m)
                    })
                    .unwrap(),
            };
            movers.push(winner);
            total_stalls += contenders.len() as u64 - 1;
            contenders.clear();
        }
        touched.clear();
        // Phase 3: apply moves.
        for m in movers {
            let mi = m as usize;
            let p = paths.path(mi);
            let crossing = pos[mi] as usize; // edge index being crossed
            let e_new = p.edges()[crossing].idx();
            if pos[mi] >= 1 {
                let e_old = p.edges()[crossing - 1].idx();
                buffer_count[e_old] -= 1;
            }
            pos[mi] += 1;
            if pos[mi] as usize == p.len() {
                finished[mi] = Some(t + 1);
                pos[mi] = u32::MAX;
                // Delivered: leaves the network immediately (delivery
                // buffers are external and unbounded).
            } else {
                buffer_count[e_new] += 1;
                max_occ = max_occ.max(buffer_count[e_new]);
            }
        }
        active.retain(|&m| pos[m as usize] != u32::MAX);
        t += 1;
    };

    let message_steps = match outcome {
        Outcome::Completed => finished.iter().filter_map(|&f| f).max().unwrap_or(0),
        _ => t,
    };
    Ok(SfResult {
        outcome,
        message_steps,
        finished,
        total_stalls,
        max_buffer_occupancy: max_occ,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_topology::graph::{GraphBuilder, NodeId};
    use wormhole_topology::path::Path;
    use wormhole_topology::random_nets::shared_chain_instance;

    #[test]
    fn lone_message_takes_d_message_steps() {
        let (g, ps) = shared_chain_instance(1, 7);
        let r = run(&g, &ps, &SfConfig::default()).unwrap();
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.message_steps, 7);
        assert_eq!(r.flit_steps(4), 28);
    }

    #[test]
    fn c_messages_on_one_chain_pipeline_to_c_plus_d() {
        // With unbounded buffers, greedy store-and-forward on a shared chain
        // is a pipeline: makespan = C + D − 1 message steps.
        let (c, d) = (5u32, 9u32);
        let (g, ps) = shared_chain_instance(c, d);
        let r = run(&g, &ps, &SfConfig::default()).unwrap();
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.message_steps, (c + d - 1) as u64);
    }

    #[test]
    fn farthest_first_prefers_long_paths() {
        // Two messages contend for the first edge; the longer one wins
        // under FarthestFirst.
        let mut b = GraphBuilder::new(4);
        let e0 = b.add_edge(NodeId(0), NodeId(1));
        let e1 = b.add_edge(NodeId(1), NodeId(2));
        let e2 = b.add_edge(NodeId(2), NodeId(3));
        let g = b.build();
        let ps = PathSet::new(vec![Path::new(vec![e0]), Path::new(vec![e0, e1, e2])]);
        let config = SfConfig {
            arbitration: SfArbitration::FarthestFirst,
        };
        let r = run(&g, &ps, &config).unwrap();
        assert_eq!(r.finished[1], Some(3), "long message goes first");
        assert_eq!(r.finished[0], Some(2), "short one follows");
    }

    #[test]
    fn empty_input() {
        let (g, _) = shared_chain_instance(1, 2);
        let r = run(&g, &PathSet::new(vec![]), &SfConfig::default()).unwrap();
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.message_steps, 0);
    }
}
