//! Virtual cut-through routing with multi-flit single-message buffers.
//!
//! The §1.4 fixed-buffer comparison pits a wormhole router with `B` virtual
//! channels (B one-flit buffers per edge, each possibly from a *different*
//! message) against a virtual cut-through router whose per-edge buffer holds
//! up to `F = B` flits **of a single message**. The paper argues the VCT
//! router behaves like a wormhole router with no virtual channels and
//! message length `L/B` — a *linear* speedup in `B`, versus the superlinear
//! `B·D^{1−1/B}` available to virtual channels (experiment E7).
//!
//! Model: each edge buffer has capacity `F` flits and an *owner* message
//! (set when a flit enters an empty buffer, cleared when the buffer drains).
//! Each physical edge moves at most one flit per step. Worms can compress:
//! when the header blocks, trailing flits keep advancing into the partially
//! filled buffers behind it — the defining difference from wormhole routing.
//! Moves are decided from start-of-step state, so a buffer slot freed in
//! step `t` is reusable at `t+1`; with `F = 1` this costs an extra cycle per
//! flit (use `F ≥ 2` for comparisons, as the paper's setting does).

use rand::prelude::*;
use rand::rngs::StdRng;

use wormhole_topology::graph::Graph;

use crate::config::ConfigError;
use crate::message::{check_specs, MessageSpec};
use crate::source::ReleaseClock;
use crate::stats::{MessageOutcome, Outcome, SimResult};
use crate::wormhole::SimError;

/// Virtual cut-through configuration.
#[derive(Clone, Debug)]
pub struct VctConfig {
    /// Per-edge buffer capacity in flits (`F ≥ 1`, judged by [`run`]),
    /// all from one message.
    pub buffer_flits: u32,
    /// Seed for claim arbitration.
    pub seed: u64,
}

impl VctConfig {
    /// Config with an `f`-flit buffer per edge.
    pub fn new(f: u32) -> Self {
        Self {
            buffer_flits: f,
            seed: 0,
        }
    }
}

const NO_OWNER: u32 = u32::MAX;

/// Runs virtual cut-through routing. The returned [`SimResult`] reuses the
/// wormhole result type: `max_vcs_in_use` reports the maximum flits resident
/// in any single buffer.
///
/// # Errors
///
/// Before step 0: [`ConfigError::NoVcs`] for a buffer of zero flits
/// (no flit could ever cross an edge), then [`SimError::Spec`] for the
/// first spec of the slice with an empty path, an edge id `graph` lacks
/// or zero length.
pub fn run(
    graph: &Graph,
    specs: &[MessageSpec],
    config: &VctConfig,
) -> Result<SimResult, SimError> {
    if config.buffer_flits == 0 {
        return Err(SimError::Config(ConfigError::NoVcs));
    }
    check_specs(graph, specs)?;
    let n = specs.len();
    let f = config.buffer_flits;
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Per-worm per-position flit counts; slot j (1-based) is the buffer at
    // the head of path edge j; slot 0 is the uninjected backlog.
    let mut buf: Vec<Vec<u32>> = specs
        .iter()
        .map(|s| {
            let mut v = vec![0u32; s.path.len() + 1];
            v[0] = s.length;
            v
        })
        .collect();
    let mut delivered = vec![0u32; n];
    let mut outcomes = vec![MessageOutcome::default(); n];

    let mut owner = vec![NO_OWNER; graph.num_edges()];
    let mut count = vec![0u32; graph.num_edges()];
    let mut max_occ = 0u32;
    let mut flit_hops = 0u64;

    let mut clock = ReleaseClock::new(n, |i| specs[i as usize].release);
    let mut active: Vec<u32> = Vec::new();

    // Claim contenders per edge (scratch).
    let mut claim_buckets: Vec<Vec<u32>> = vec![Vec::new(); graph.num_edges()];
    let mut claim_touched: Vec<u32> = Vec::new();

    let mut t: u64 = 0;
    let mut last_finish = 0u64;
    let outcome = loop {
        if let Some(outcome) = clock.tick(&mut t, &mut active) {
            break outcome;
        }

        // Snapshot of start-of-step counts (copy only for active worms'
        // edges is possible, but a full clone is simpler and the buffers
        // are small).
        let count_start = count.clone();
        let owner_start = owner.clone();

        // Phase 1: claims of unowned buffers (the "header acquires the next
        // channel" of VCT). A worm claims every unowned buffer it has a flit
        // ready to enter — normally just the one past its frontier, but also
        // re-claims of mid-worm buffers that drained and were released while
        // trailing flits still wait behind them.
        for &m in &active {
            let mi = m as usize;
            let d = specs[mi].path.len();
            for j in 1..=d {
                if buf[mi][j - 1] == 0 {
                    continue; // no flit behind this edge (slot 0: none left to inject)
                }
                let e = specs[mi].path.edges()[j - 1].idx();
                if owner_start[e] == NO_OWNER && count_start[e] == 0 {
                    if claim_buckets[e].is_empty() {
                        claim_touched.push(e as u32);
                    }
                    claim_buckets[e].push(m);
                }
            }
        }
        for &e in &claim_touched {
            let contenders = &mut claim_buckets[e as usize];
            let winner = if contenders.len() == 1 {
                contenders[0]
            } else {
                contenders[rng.random_range(0..contenders.len())]
            };
            owner[e as usize] = winner;
            contenders.clear();
        }
        claim_touched.clear();

        // Phase 2: flit movement based on start-of-step state. For each
        // worm, a flit moves from slot j−1 into slot j if the source slot
        // had a flit, the target buffer is owned by this worm with space,
        // and the edge's 1-flit bandwidth is unconsumed. Delivery from the
        // final slot is always allowed. Claims made in phase 1 take effect
        // this same step (the header flit streams straight through, the
        // essence of cut-through).
        let mut moved_any = false;
        for &m in &active {
            let mi = m as usize;
            let d = specs[mi].path.len();
            let mut moved = false;
            // Delivery first (frees nothing this step, but is independent).
            if buf[mi][d] > 0 {
                buf[mi][d] -= 1;
                delivered[mi] += 1;
                let e = specs[mi].path.edges()[d - 1].idx();
                count[e] -= 1;
                moved = true;
            }
            // Crossings, processed front-to-back.
            for j in (1..=d).rev() {
                let src_has = if j == 1 {
                    buf[mi][0] > 0
                } else {
                    // Start-of-step view for the source: a flit that arrived
                    // this step cannot move again. The worm owns any buffer
                    // its flits occupy, so the edge's start count is its own.
                    count_start[specs[mi].path.edges()[j - 2].idx()] > 0 && buf[mi][j - 1] > 0
                };
                if !src_has {
                    continue;
                }
                let e = specs[mi].path.edges()[j - 1].idx();
                if owner[e] != m || count_start[e] >= f {
                    continue;
                }
                // Bandwidth: one flit per edge per step. Track via a
                // "moved into this edge" marker: since only the owner can
                // move flits in, a per-worm-per-step single crossing per
                // edge is guaranteed by construction of this loop (each j
                // is visited once).
                // Apply.
                buf[mi][j - 1] -= 1;
                if j > 1 {
                    count[specs[mi].path.edges()[j - 2].idx()] -= 1;
                }
                buf[mi][j] += 1;
                count[e] += 1;
                max_occ = max_occ.max(count[e]);
                flit_hops += 1;
                moved = true;
            }
            if moved {
                moved_any = true;
                if outcomes[mi].first_move.is_none() {
                    outcomes[mi].first_move = Some(t);
                }
            } else {
                outcomes[mi].stalls += 1;
            }
            if delivered[mi] == specs[mi].length {
                outcomes[mi].finished = Some(t + 1);
                last_finish = last_finish.max(t + 1);
            }
        }
        // Phase 3: ownership cleanup for drained buffers.
        for &m in &active {
            let mi = m as usize;
            for (j, &c) in buf[mi].iter().enumerate().skip(1) {
                let e = specs[mi].path.edges()[j - 1].idx();
                if c == 0 && owner[e] == m && count[e] == 0 {
                    owner[e] = NO_OWNER;
                }
            }
        }
        active.retain(|&m| outcomes[m as usize].finished.is_none());
        if !moved_any && !active.is_empty() {
            break Outcome::Deadlock(active.clone());
        }
        t += 1;
    };

    Ok(SimResult::baseline(
        outcome,
        t,
        last_finish,
        outcomes,
        max_occ,
        flit_hops,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{specs_from_paths, SpecError};
    use crate::source::STEP_CAP;
    use wormhole_topology::random_nets::shared_chain_instance;

    #[test]
    fn lone_worm_streams_at_full_rate_with_f2() {
        // With F ≥ 2 a lone worm advances one edge per flit step and drains
        // one flit per step once the header arrives: D + L total.
        let (g, ps) = shared_chain_instance(1, 6);
        let specs = specs_from_paths(&ps, 4);
        let r = run(&g, &specs, &VctConfig::new(2)).unwrap();
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(
            (6 + 4 - 1..=6 + 4 + 1).contains(&r.total_steps),
            "got {}",
            r.total_steps
        );
        assert_eq!(r.flit_hops, 6 * 4);
    }

    #[test]
    fn f1_pays_the_conservative_credit_penalty() {
        // With F = 1 each flit departs two steps behind its predecessor
        // under start-of-step credit: ≈ D + 2L.
        let (g, ps) = shared_chain_instance(1, 6);
        let specs = specs_from_paths(&ps, 4);
        let r = run(&g, &specs, &VctConfig::new(1)).unwrap();
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(r.total_steps >= 6 + 4 - 1);
        assert!(r.total_steps <= 6 + 2 * 4 + 2, "got {}", r.total_steps);
    }

    #[test]
    fn single_message_buffers_serialize_sharers() {
        // Two worms share a chain: buffers are single-message, so the
        // second can only follow once buffers drain — strictly slower than
        // one worm alone.
        let (g, ps) = shared_chain_instance(2, 6);
        let specs = specs_from_paths(&ps, 4);
        let solo = run(&g, &specs[..1], &VctConfig::new(2)).unwrap();
        let both = run(&g, &specs, &VctConfig::new(2)).unwrap();
        assert_eq!(both.outcome, Outcome::Completed);
        assert!(both.total_steps > solo.total_steps);
        assert_eq!(both.delivered(), 2);
    }

    #[test]
    fn buffer_occupancy_never_exceeds_f() {
        let (g, ps) = shared_chain_instance(3, 5);
        let specs = specs_from_paths(&ps, 6);
        for f in 1..=4 {
            let r = run(&g, &specs, &VctConfig::new(f)).unwrap();
            assert_eq!(r.outcome, Outcome::Completed);
            assert!(r.max_vcs_in_use <= f);
        }
    }

    #[test]
    fn compression_lets_worm_pull_off_a_contended_edge() {
        // A worm blocked at its header still pulls trailing flits forward
        // into its partially-filled buffers (compression): its stall count
        // stays below the fully-rigid equivalent. Indirect check: with a big
        // buffer the whole worm can sit in one buffer.
        let (g, ps) = shared_chain_instance(1, 2);
        let specs = specs_from_paths(&ps, 5);
        let r = run(&g, &specs, &VctConfig::new(8)).unwrap();
        assert_eq!(r.outcome, Outcome::Completed);
        // 2 hops, 5 flits: header arrives at step 2, drains 5 flits.
        assert!(r.total_steps <= 2 + 5 + 1);
    }

    #[test]
    fn releases_respected() {
        let (g, ps) = shared_chain_instance(1, 3);
        let mut specs = specs_from_paths(&ps, 2);
        specs[0].release = 7;
        let r = run(&g, &specs, &VctConfig::new(2)).unwrap();
        assert!(r.messages[0].finished.unwrap() >= 7 + 3);
    }

    #[test]
    fn idle_gaps_jump_to_the_next_release_and_stop_at_the_cap() {
        let (g, ps) = shared_chain_instance(2, 4);
        let mut specs = specs_from_paths(&ps, 3);
        specs[1].release = 1_000;
        let r = run(&g, &specs, &VctConfig::new(2)).unwrap();
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.messages[1].first_move, Some(1_000));

        // Released past the cap: the idle network stops at the cap.
        specs[1].release = STEP_CAP + 1_000;
        let r = run(&g, &specs, &VctConfig::new(2)).unwrap();
        assert_eq!(r.outcome, Outcome::MaxSteps);
        assert_eq!(r.total_steps, STEP_CAP);
        assert_eq!(r.delivered(), 1);
        assert_eq!(r.messages[1].first_move, None, "never injected");
    }

    #[test]
    fn an_edge_the_graph_lacks_is_refused_at_the_door() {
        // Used to index-panic mid-loop, at the step the flit reached it.
        let (g, ps) = shared_chain_instance(2, 3);
        let mut specs = specs_from_paths(&ps, 2);
        let mut edges = specs[1].path.edges().to_vec();
        edges.push(wormhole_topology::graph::EdgeId(999));
        specs[1].path = wormhole_topology::path::Path::new(edges);
        let error = SpecError::BadEdge;
        let got = run(&g, &specs, &VctConfig::new(2)).unwrap_err();
        assert_eq!(got, SimError::Spec { id: 1, error });
    }

    #[test]
    fn a_zero_length_spec_is_refused_at_the_door() {
        // Used to "finish" at step 1 without ever moving a flit.
        let (g, ps) = shared_chain_instance(1, 3);
        let mut specs = specs_from_paths(&ps, 2);
        specs[0].length = 0;
        let error = SpecError::ZeroLength;
        let got = run(&g, &specs, &VctConfig::new(2)).unwrap_err();
        assert_eq!(got, SimError::Spec { id: 0, error });
    }

    #[test]
    fn a_zero_flit_buffer_is_refused_before_step_zero() {
        // `buffer_flits` is public, so a literal skips `new`; it used to
        // come back `Ok`, every worm in `Outcome::Deadlock` after step 0.
        let (g, ps) = shared_chain_instance(2, 3);
        let specs = specs_from_paths(&ps, 2);
        let config = VctConfig {
            buffer_flits: 0,
            seed: 0,
        };
        let got = run(&g, &specs, &config).unwrap_err();
        assert_eq!(got, SimError::Config(ConfigError::NoVcs));
    }

    #[test]
    fn empty_specs() {
        let (g, _) = shared_chain_instance(1, 2);
        let r = run(&g, &[], &VctConfig::new(2)).unwrap();
        assert_eq!(r.outcome, Outcome::Completed);
    }
}
