//! Color refinement (Lemma 2.1.5) realized constructively.
//!
//! The paper proves by the Lovász Local Lemma that each color class can be
//! split into `r` classes such that the multiplex size drops from `ms` to
//! `mf`, for the `r` given by one of three cases. The proof is existential;
//! the paper notes it "can be made constructive using the techniques in
//! [29, 30]". We use the modern equivalent — **Moser–Tardos resampling**:
//! color uniformly at random, then repeatedly re-color the messages of any
//! violated `(edge, class)` event until none remain. Under the same LLL
//! condition the expected number of resamplings is linear in the number of
//! events, and the refinement terminates with probability 1.
//!
//! Of the lemma's three cases, Case 1 is the one run: [`r_case1`] caps the
//! split search of [`crate::pipeline::adaptive_min_colors`], and
//! [`crate::pipeline`]'s module doc says why the other two are not.

use rand::prelude::*;
use rand::rngs::StdRng;

use wormhole_topology::path::PathSet;

use crate::coloring::{ClassLoads, Coloring};

/// One refinement stage: split every class into `split` new classes, then
/// resample until the multiplex size is at most `target`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stage {
    /// Multiplex size the stage guarantees (`mf`).
    pub target: u32,
    /// Number of new classes per old class (`r`).
    pub split: u32,
}

/// The paper's `r` for case 1 (`ms ≤ log D`, target `mf = B`):
/// `3e(D·ms)^{1/B}·ms/B`.
pub fn r_case1(ms: u32, d: u32, b: u32) -> u32 {
    let r = 3.0 * std::f64::consts::E * ((d as f64) * (ms as f64)).powf(1.0 / b as f64) * ms as f64
        / b as f64;
    (r.ceil() as u32).max(2)
}

/// Outcome of a refinement stage.
#[derive(Clone, Debug)]
pub struct RefineOutcome {
    /// The refined coloring (compacted: empty classes dropped).
    pub coloring: Coloring,
    /// Resampling rounds Moser–Tardos needed (0 = first sample was good).
    pub resamples: u64,
}

/// Error when resampling exceeds its budget — under LLL-feasible parameters
/// this is (exponentially) unlikely; it signals `r` below the threshold in
/// adaptive search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefineExhausted {
    /// Rounds spent before giving up.
    pub rounds: u64,
    /// Violations remaining at abort.
    pub remaining_violations: usize,
}

/// Splits each class of `coloring` into `split` classes and resamples until
/// the multiplex size is at most `target`, or `max_rounds` sweeps elapse.
///
/// Each sweep re-colors every message involved in at least one violated
/// `(edge, class)` event (a parallel Moser–Tardos sweep, valid under the
/// same condition): the messages [`ClassLoads::over`] names, found before
/// any of them moves and re-colored in ascending index.
pub fn refine(
    paths: &PathSet,
    coloring: &Coloring,
    split: u32,
    target: u32,
    rng: &mut StdRng,
    max_rounds: u64,
) -> Result<RefineOutcome, RefineExhausted> {
    assert!(split >= 1);
    // New color = old * split + pick.
    let mut draw = |i: usize| coloring.color(i) * split + rng.random_range(0..split);
    let mut colors: Vec<u32> = (0..coloring.len()).map(&mut draw).collect();
    let edges = paths.paths().iter().flat_map(|p| p.edges());
    let num_edges = edges.map(|e| e.idx() + 1).max().unwrap_or(0);
    let mut loads = ClassLoads::of(paths, &colors, num_edges);
    let mut dirty: Vec<usize> = Vec::new();
    let mut rounds = 0u64;
    loop {
        dirty.clear();
        dirty.extend((0..colors.len()).filter(|&i| loads.over(colors[i], paths.path(i), target)));
        if dirty.is_empty() {
            return Ok(RefineOutcome {
                coloring: Coloring::new(colors, coloring.num_colors() * split).compact(),
                resamples: rounds,
            });
        }
        if rounds >= max_rounds {
            return Err(RefineExhausted {
                rounds,
                remaining_violations: loads.cells_over(target),
            });
        }
        for &i in &dirty {
            loads.remove(colors[i], paths.path(i));
            colors[i] = draw(i);
            loads.add(colors[i], paths.path(i));
        }
        rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_topology::random_nets::{shared_chain_instance, staggered_instance, LeveledNet};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn refine_reaches_target_on_shared_chain() {
        // 16 messages on one chain; split into 8 classes targeting
        // multiplex 4: average load is 2, so MT converges fast.
        let (g, ps) = shared_chain_instance(16, 6);
        let start = Coloring::uniform(ps.len());
        let out = refine(&ps, &start, 8, 4, &mut rng(1), 10_000).unwrap();
        assert!(out.coloring.multiplex_size(&ps, &g) <= 4);
        assert!(out.coloring.num_colors() <= 8);
    }

    #[test]
    fn refine_exact_capacity_still_converges() {
        // 8 messages, 4 classes, target 2: tight but feasible.
        let (g, ps) = shared_chain_instance(8, 4);
        let start = Coloring::uniform(ps.len());
        let out = refine(&ps, &start, 4, 2, &mut rng(2), 100_000).unwrap();
        assert!(out.coloring.multiplex_size(&ps, &g) <= 2);
    }

    #[test]
    fn refine_impossible_target_exhausts() {
        // 8 messages on one chain, 2 classes, target 1: needs 8 classes —
        // impossible with r = 2, so the budget must exhaust.
        let (_, ps) = shared_chain_instance(8, 3);
        let start = Coloring::uniform(ps.len());
        let err = refine(&ps, &start, 2, 1, &mut rng(3), 50).unwrap_err();
        assert!(err.remaining_violations > 0);
        assert_eq!(err.rounds, 50);
    }

    #[test]
    fn refine_respects_class_boundaries() {
        // Messages already in different classes must stay in disjoint new
        // classes (new color = old*r + pick).
        let (_, ps) = staggered_instance(4, 8, 16);
        let start = Coloring::new((0..16).map(|i| i % 2).collect(), 2);
        let out = refine(&ps, &start, 3, 4, &mut rng(4), 1000).unwrap();
        // Map refined classes back: every refined class must contain
        // messages of a single original class.
        let mut class_origin: Vec<Option<u32>> = vec![None; out.coloring.num_colors() as usize];
        for i in 0..16usize {
            let c = out.coloring.color(i) as usize;
            let orig = start.color(i);
            match class_origin[c] {
                None => class_origin[c] = Some(orig),
                Some(o) => assert_eq!(o, orig, "refined class mixes originals"),
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (_, ps) = staggered_instance(6, 12, 24);
        let start = Coloring::uniform(ps.len());
        let a = refine(&ps, &start, 6, 3, &mut rng(9), 10_000).unwrap();
        let b = refine(&ps, &start, 6, 3, &mut rng(9), 10_000).unwrap();
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.resamples, b.resamples);
    }

    /// The sweep as it was before [`ClassLoads`]: rebuild the coloring,
    /// sort out every violated event, re-color their members in index
    /// order. Kept as the reference [`refine`] must reproduce draw for draw.
    fn refine_by_sorting(
        paths: &PathSet,
        coloring: &Coloring,
        split: u32,
        target: u32,
        rng: &mut StdRng,
        max_rounds: u64,
    ) -> Result<RefineOutcome, RefineExhausted> {
        let n = coloring.len();
        let mut colors: Vec<u32> = (0..n)
            .map(|i| coloring.color(i) * split + rng.random_range(0..split))
            .collect();
        let num_colors = coloring.num_colors() * split;
        let mut rounds = 0u64;
        loop {
            let current = Coloring::new(std::mem::take(&mut colors), num_colors);
            let violations = current.violations(paths, target);
            if violations.is_empty() {
                return Ok(RefineOutcome {
                    coloring: current.compact(),
                    resamples: rounds,
                });
            }
            if rounds >= max_rounds {
                return Err(RefineExhausted {
                    rounds,
                    remaining_violations: violations.len(),
                });
            }
            colors = current.colors().to_vec();
            let mut dirty = vec![false; n];
            for (_, msgs) in &violations {
                for &m in msgs {
                    dirty[m as usize] = true;
                }
            }
            for (i, flag) in dirty.iter().enumerate() {
                if *flag {
                    colors[i] = coloring.color(i) * split + rng.random_range(0..split);
                }
            }
            rounds += 1;
        }
    }

    #[test]
    fn refine_draws_and_returns_what_the_sorting_sweep_did() {
        let net = LeveledNet::random(8, 5, 2, 17);
        let two_classes = |n: usize| Coloring::new((0..n as u32).map(|i| i % 2).collect(), 2);
        let instances = [
            staggered_instance(8, 32, 64).1,
            shared_chain_instance(16, 6).1,
            net.random_walk_paths(70, 18),
        ];
        let (mut converged, mut exhausted) = (0, 0);
        for (which, ps) in instances.iter().enumerate() {
            for start in [Coloring::uniform(ps.len()), two_classes(ps.len())] {
                for (split, target, budget) in [(2, 1, 6), (6, 2, 64), (12, 3, 64), (24, 2, 200)] {
                    for seed in 0..4 {
                        let (mut a, mut b) = (rng(seed), rng(seed));
                        let got = refine(ps, &start, split, target, &mut a, budget);
                        let want = refine_by_sorting(ps, &start, split, target, &mut b, budget);
                        let at = format!("instance {which} r={split} mf={target} seed {seed}");
                        match (got, want) {
                            (Ok(got), Ok(want)) => {
                                assert_eq!(got.coloring, want.coloring, "{at}");
                                assert_eq!(got.resamples, want.resamples, "{at}");
                                converged += 1;
                            }
                            (Err(got), Err(want)) => {
                                assert_eq!(got, want, "{at}");
                                exhausted += 1;
                            }
                            (got, want) => panic!("{at}: {got:?} against {want:?}"),
                        }
                        // Both left the generator in the same state.
                        assert_eq!(a.random_range(0..u32::MAX), b.random_range(0..u32::MAX));
                    }
                }
            }
        }
        assert!(
            converged >= 24 && exhausted >= 24,
            "{converged} / {exhausted}"
        );
    }

    #[test]
    fn paper_r_formulas() {
        // Spot values: case 1 with ms=4, D=4096, B=2: 3e(16384)^0.5*4/2
        // = 3e*128*2 ≈ 2088.
        let r = r_case1(4, 4096, 2);
        assert!((2080..=2095).contains(&r), "r={r}");
    }

    #[test]
    fn stage_case1_with_paper_r_converges_quickly() {
        // A real LLL-feasible configuration: C=ms=6 ≤ log D for D=64? log2
        // 64 = 6 ✓. Paper r = 3e(64*6)^(1/2)*6/2 with B=2 ≈ 480. The first
        // sample almost surely works (resamples ≈ 0).
        let (g, ps) = shared_chain_instance(6, 64);
        let b = 2u32;
        let r = r_case1(6, 64, b);
        let start = Coloring::uniform(ps.len());
        let out = refine(&ps, &start, r, b, &mut rng(5), 10_000).unwrap();
        assert!(out.coloring.multiplex_size(&ps, &g) <= b);
        assert!(
            out.resamples <= 5,
            "paper-r refinement should be near-instant"
        );
    }
}
