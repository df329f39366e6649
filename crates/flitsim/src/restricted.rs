//! The restricted-bandwidth wormhole model: buffers ×`B`, bandwidth ×1.
//!
//! The §1.4 Remarks compare the paper's primary model — `B` virtual
//! channels *and* `B` flits per physical channel per step, what
//! [`crate::wormhole`] simulates — against a router that adds the `B`
//! one-flit VC buffers per edge but keeps the wire: each physical channel
//! still moves at most **one flit per step**, time-multiplexed between its
//! lanes. The paper's algorithms emulate there with a factor-`B`
//! slowdown, so buffering alone still buys `≈ D^{1−1/B}` on worst-case
//! instances (experiment E8). Like [`crate::cut_through`], this is a
//! comparison baseline with its own small per-step loop.
//!
//! Model: flits advance *individually*. A worm's header acquires a VC on
//! each edge it crosses (an edge grants while fewer than `B` worms hold
//! it) and the tail releases it; every crossing also consumes the edge's
//! single per-step bandwidth token, so worms sharing an edge contend only
//! for that edge's token, not along their whole pipelines. Within a step
//! a worm's flits are processed head-to-tail against current state, so an
//! unobstructed worm still moves every flit each step and completes in
//! `d + L − 1`; worms are served in **rotating order** (the scan starts
//! at active index `t mod n`) — deterministic, nothing to seed. The final
//! edge requires a VC like any other, blocked worms stall (none is
//! discarded), and a step in which no flit moves is a deadlock.
//!
//! ```
//! use wormhole_flitsim::message::specs_from_paths;
//! use wormhole_flitsim::restricted;
//! use wormhole_topology::random_nets::shared_chain_instance;
//!
//! // A lone worm needs only its own tokens: d + L − 1, as at full bandwidth.
//! let (g, ps) = shared_chain_instance(1, 8);
//! let lone = restricted::run(&g, &specs_from_paths(&ps, 6), 3)?;
//! assert_eq!(lone.total_steps, 8 + 6 - 1);
//!
//! // B = 3 worms on one chain all get a VC at once (at full bandwidth they
//! // would finish together at 13) but time-share the one wire.
//! let (g, ps) = shared_chain_instance(3, 8);
//! let shared = restricted::run(&g, &specs_from_paths(&ps, 6), 3)?;
//! assert_eq!((shared.max_vcs_in_use, shared.total_steps), (3, 25));
//! # Ok::<(), wormhole_flitsim::wormhole::SimError>(())
//! ```

use wormhole_topology::graph::Graph;

use crate::config::ConfigError;
use crate::message::{check_specs, MessageSpec};
use crate::source::ReleaseClock;
use crate::stats::{MessageOutcome, Outcome, SimResult};
use crate::wormhole::SimError;

/// Flit position: not yet injected.
const UNINJECTED: u32 = 0;
/// Flit position: delivered. Any other value `p` is "in the buffer at the
/// head of path edge `p`" (`1 ≤ p < d`).
const DELIVERED: u32 = u32::MAX;

/// Runs the restricted model over precomputed paths with `b` virtual
/// channels (one-flit buffers) per edge. The returned [`SimResult`]
/// reuses the wormhole result type; a deadlocked run names the stuck
/// messages in [`Outcome::Deadlock`] but carries no wait-for report.
///
/// # Errors
///
/// Before step 0: [`ConfigError::NoVcs`] for `b = 0`, then
/// [`SimError::Spec`] for the first spec of the slice with an empty
/// path, an edge id `graph` lacks or zero length.
pub fn run(graph: &Graph, specs: &[MessageSpec], b: u32) -> Result<SimResult, SimError> {
    if b == 0 {
        return Err(SimError::Config(ConfigError::NoVcs));
    }
    check_specs(graph, specs)?;
    let n = specs.len();
    let mut pos: Vec<Vec<u32>> = specs
        .iter()
        .map(|s| vec![UNINJECTED; s.length as usize])
        .collect();
    // Flits deliver strictly head-to-tail, so the delivered ones are a
    // prefix: its length is both the delivery count and where the flit
    // loop starts.
    let mut delivered = vec![0u32; n];
    let mut outcomes = vec![MessageOutcome::default(); n];
    let mut holders = vec![0u32; graph.num_edges()];
    let mut token_used = vec![false; graph.num_edges()];
    let mut token_touched: Vec<usize> = Vec::new();
    let mut max_vcs = 0u32;
    let mut flit_hops = 0u64;

    let mut clock = ReleaseClock::new(n, |i| specs[i as usize].release);
    let mut active: Vec<u32> = Vec::new();

    let mut t: u64 = 0;
    let mut last_finish = 0u64;
    let outcome = loop {
        if let Some(outcome) = clock.tick(&mut t, &mut active) {
            break outcome;
        }

        for e in token_touched.drain(..) {
            token_used[e] = false;
        }
        let n_active = active.len();
        let mut any_moved = false;
        for off in 0..n_active {
            let m = active[(t as usize % n_active + off) % n_active];
            let mi = m as usize;
            let edges = specs[mi].path.edges();
            let d = edges.len() as u32;
            let length = pos[mi].len();
            let mut worm_moved = false;
            for k in delivered[mi] as usize..length {
                let p = pos[mi][k];
                let target = if p == UNINJECTED { 1 } else { p + 1 };
                let e = edges[target as usize - 1].idx();
                if k > 0 {
                    // The slot ahead must be free of the predecessor flit;
                    // processed head-first, a predecessor that moved this
                    // step already vacated it.
                    let pred = pos[mi][k - 1];
                    if pred != DELIVERED && pred <= target {
                        continue;
                    }
                } else if holders[e] >= b {
                    // Header: needs a VC on the edge it crosses.
                    continue;
                }
                if token_used[e] {
                    continue;
                }
                token_used[e] = true;
                token_touched.push(e);
                flit_hops += 1;
                pos[mi][k] = if target == d { DELIVERED } else { target };
                if k == 0 {
                    holders[e] += 1;
                    max_vcs = max_vcs.max(holders[e]);
                    outcomes[mi].first_move.get_or_insert(t);
                }
                if target == d {
                    delivered[mi] += 1;
                }
                if k == length - 1 {
                    // Tail: releases the buffer it left and, on delivery,
                    // the final edge's VC — which finishes the worm.
                    if p != UNINJECTED {
                        holders[edges[p as usize - 1].idx()] -= 1;
                    }
                    if target == d {
                        holders[e] -= 1;
                        outcomes[mi].finished = Some(t + 1);
                        last_finish = last_finish.max(t + 1);
                    }
                }
                worm_moved = true;
            }
            any_moved |= worm_moved;
            if !worm_moved {
                outcomes[mi].stalls += 1;
            }
        }
        active.retain(|&m| outcomes[m as usize].finished.is_none());
        if !any_moved && !active.is_empty() {
            // Every active worm is blocked on a held VC and releases only
            // come from moves; later arrivals cannot free anything.
            break Outcome::Deadlock(active);
        }
        if cfg!(debug_assertions) {
            check_invariants(specs, &active, &pos, &delivered, &holders);
        }
        t += 1;
    };
    Ok(SimResult::baseline(
        outcome,
        t,
        last_finish,
        outcomes,
        max_vcs,
        flit_hops,
    ))
}

/// Flit order, delivery counts and VC accounting, recomputed from the
/// flit positions of the active worms.
fn check_invariants(
    specs: &[MessageSpec],
    active: &[u32],
    pos: &[Vec<u32>],
    delivered: &[u32],
    holders: &[u32],
) {
    let mut expect = vec![0u32; holders.len()];
    for &m in active {
        let mi = m as usize;
        let edges = specs[mi].path.edges();
        let d = edges.len() as u32;
        let pos = &pos[mi];
        for k in 1..pos.len() {
            let (a, b) = (pos[k - 1], pos[k]);
            if b != UNINJECTED && a != DELIVERED {
                assert!(a > b, "flit order violated for message {m}: {a} !> {b}");
            }
        }
        // The order check makes the delivered flits a prefix, so an active
        // worm's tail is undelivered: uninjected, or holding the buffer
        // (hence the VC) of edge `tail`.
        let done = pos.iter().filter(|&&p| p == DELIVERED).count();
        assert_eq!(done, delivered[mi] as usize, "delivery count of {m}");
        let head = if pos[0] == DELIVERED { d } else { pos[0] };
        let tail = pos[pos.len() - 1];
        for j in tail.saturating_sub(1)..head {
            expect[edges[j as usize].idx()] += 1;
        }
    }
    assert_eq!(expect, holders, "VC accounting mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::message::specs_from_paths;
    use crate::source::STEP_CAP;
    use wormhole_topology::graph::{GraphBuilder, NodeId};
    use wormhole_topology::path::Path;
    use wormhole_topology::random_nets::shared_chain_instance;

    // The goldens below were taken from this stepper while it was still
    // a mode of `wormhole::run`, at the commit before it moved here.

    #[test]
    fn three_worms_on_a_shared_chain_golden() {
        let (g, ps) = shared_chain_instance(3, 8);
        let r = run(&g, &specs_from_paths(&ps, 6), 3).unwrap();
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(
            (r.total_steps, r.total_stalls, r.flit_hops, r.max_vcs_in_use),
            (25, 3, 144, 3)
        );
        let finishes: Vec<_> = r.messages.iter().map(|m| m.finished).collect();
        assert_eq!(finishes, [Some(23), Some(24), Some(25)]);
    }

    #[test]
    fn five_worms_golden_across_vc_counts() {
        let (g, ps) = shared_chain_instance(5, 6);
        let specs = specs_from_paths(&ps, 4);
        for (b, steps, stalls) in [(1, 29, 50), (2, 25, 32), (4, 25, 20)] {
            let r = run(&g, &specs, b).unwrap();
            assert_eq!(r.outcome, Outcome::Completed);
            assert_eq!(
                (r.total_steps, r.total_stalls, r.flit_hops, r.max_vcs_in_use),
                (steps, stalls, 120, b),
                "B={b}"
            );
        }
    }

    #[test]
    fn idle_gaps_jump_to_the_next_release_and_stop_at_the_cap() {
        let (g, ps) = shared_chain_instance(2, 4);
        let mut specs = specs_from_paths(&ps, 3);
        specs[1].release = 1_000;
        let r = run(&g, &specs, 1).unwrap();
        assert_eq!(r.messages[0].finished, Some(6));
        assert_eq!(r.messages[1].first_move, Some(1_000));
        assert_eq!(r.total_steps, 1_006);
        assert_eq!(r.total_stalls, 0);

        // Released past the cap: the idle network stops at the cap.
        specs[1].release = STEP_CAP + 1_000;
        let r = run(&g, &specs, 1).unwrap();
        assert_eq!(r.outcome, Outcome::MaxSteps);
        assert_eq!(r.total_steps, STEP_CAP);
        assert_eq!(r.delivered(), 1);
    }

    #[test]
    fn a_two_cycle_with_one_vc_deadlocks() {
        // Two worms chase each other around 0 → 1 → 2 → 3 → 0, each holding
        // the edge the other's header wants.
        let mut bld = GraphBuilder::new(4);
        let e: Vec<_> = (0..4)
            .map(|v| bld.add_edge(NodeId(v), NodeId((v + 1) % 4)))
            .collect();
        let g = bld.build();
        let specs = [
            MessageSpec::new(Path::new(vec![e[0], e[1], e[2]]), 4),
            MessageSpec::new(Path::new(vec![e[2], e[3], e[0]]), 4),
        ];
        let r = run(&g, &specs, 1).unwrap();
        assert_eq!(r.outcome, Outcome::Deadlock(vec![0, 1]));
        assert_eq!(r.delivered(), 0);
        let r = run(&g, &specs, 2).unwrap();
        assert_eq!(r.outcome, Outcome::Completed);
    }

    #[test]
    fn restricted_model_single_worm_is_unslowed() {
        // One worm alone: it crosses ≤ min(L, d) edges per step but that
        // needs only its own tokens, so it still advances every step.
        let (g, ps) = shared_chain_instance(1, 5);
        let r = run(&g, &specs_from_paths(&ps, 4), 2).unwrap();
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.total_steps, 5 + 4 - 1);
    }

    #[test]
    fn restricted_model_b_worms_timeshare() {
        // B worms on one chain under the restricted model: the shared edges
        // have 1 flit/step of bandwidth, so B worms take ≈ B times longer
        // than under the full-bandwidth model.
        let b = 3u32;
        let (g, ps) = shared_chain_instance(b, 8);
        let specs = specs_from_paths(&ps, 6);
        let full = crate::wormhole::run(&g, &specs, &SimConfig::new(b).check_invariants(true));
        let restricted = run(&g, &specs, b).unwrap();
        assert_eq!(full.outcome, Outcome::Completed);
        assert_eq!(restricted.outcome, Outcome::Completed);
        assert!(
            restricted.total_steps >= (b as u64 - 1) * full.total_steps / 2,
            "restricted {} vs full {}",
            restricted.total_steps,
            full.total_steps
        );
        assert!(restricted.total_steps >= full.total_steps);
    }
}
