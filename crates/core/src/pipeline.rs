//! The Theorem 2.1.6 refinement pipeline: reduce multiplex size from `C`
//! down to `B` through the staged application of Lemma 2.1.5, yielding a
//! schedule of `O(C(D log D)^{1/B}/B)` color classes.
//!
//! Two ways to pick the per-stage split factor `r`:
//!
//! * [`RFactor::Paper`] — the paper's exact formulas (`3e(D·ms)^{1/B}ms/B`
//!   etc.). These certify the LLL condition, so Moser–Tardos converges
//!   essentially immediately, but the constants are asymptotic: at
//!   benchable sizes the class counts are loose.
//! * [`RFactor::Adaptive`] — per stage, search for the smallest `r` that
//!   still converges within a resampling budget. The κ this produces tracks
//!   the bound's *shape* without the proof constants, and is what the
//!   scaling experiments (E1/E2) report; the paper formula values are
//!   reported alongside.

use rand::rngs::StdRng;
use rand::SeedableRng;

use wormhole_topology::graph::Graph;
use wormhole_topology::path::PathSet;

use crate::coloring::Coloring;
use crate::refine::{mf_case3, r_case1, r_case2, r_case3, refine, RefineCase, Stage};

/// Split-factor selection strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RFactor {
    /// The paper's formulas verbatim.
    Paper,
    /// Minimal `r` found by doubling + binary search; each trial refinement
    /// gets `sweep_budget` Moser–Tardos sweeps before being declared failed.
    Adaptive {
        /// Resampling sweeps allowed per trial.
        sweep_budget: u64,
    },
}

/// Report for one executed stage.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// The planned stage (paper parameters).
    pub stage: Stage,
    /// The split factor actually used (= `stage.split` under `Paper`).
    pub used_split: u32,
    /// Moser–Tardos sweeps used by the final successful refinement.
    pub resamples: u64,
}

/// Result of running the full pipeline.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Final coloring with multiplex size ≤ B.
    pub coloring: Coloring,
    /// Per-stage execution details.
    pub stages: Vec<StageReport>,
    /// Congestion of the instance (multiplex size of the trivial coloring).
    pub congestion: u32,
    /// Dilation of the instance.
    pub dilation: u32,
}

impl PipelineReport {
    /// Number of color classes produced (the κ of Theorem 2.1.6).
    pub fn num_colors(&self) -> u32 {
        self.coloring.num_colors()
    }
}

/// Pipeline failure: a stage exhausted its resampling budget even at the
/// paper's `r` (not expected under the LLL condition).
#[derive(Clone, Debug)]
pub struct PipelineError {
    /// Stage that failed.
    pub stage: Stage,
    /// Sweeps spent.
    pub rounds: u64,
}

/// Plans the Theorem 2.1.6 stages for an instance with congestion `c` and
/// dilation `d`, targeting multiplex size `b`. Mirrors the theorem's cases:
///
/// * `C ≤ log D`: one Case-1 stage `C → B`;
/// * `log D < C ≤ D`: Case-2 `C → log D`, then Case-1 `log D → B`;
/// * `C > D`: Case-3 stages down to `max(D, 15 ln³·)`, then as above. A
///   Case-3 stage whose target fails to shrink (`mf ≥ ms` — possible at
///   non-asymptotic sizes where `15 ln³ ms ≥ ms`) is skipped, falling
///   through to the Case-2 formula directly, which only increases `r`.
///
/// Stages whose start is already ≤ `b` are dropped; every target is clamped
/// to at least `b` (refining below `B` buys nothing).
pub fn plan(c: u32, d: u32, b: u32) -> Vec<Stage> {
    let mut stages = Vec::new();
    if c <= b {
        return stages;
    }
    let logd = ((d as f64).log2().ceil() as u32).max(1);
    let mut ms = c;
    // Case-3 ladder while ms > D.
    while ms > d && ms > b {
        let mf = mf_case3(ms, d).max(b);
        if mf >= ms {
            break; // no asymptotic headroom at this size; fall through
        }
        stages.push(Stage {
            from: ms,
            target: mf,
            split: r_case3(ms, mf),
            case: RefineCase::Case3,
        });
        ms = mf;
    }
    // Case-2 stage while ms > log D.
    if ms > logd.max(b) {
        let mf = logd.max(b);
        stages.push(Stage {
            from: ms,
            target: mf,
            split: r_case2(ms, d),
            case: RefineCase::Case2,
        });
        ms = mf;
    }
    // Case-1 finish to B.
    if ms > b {
        stages.push(Stage {
            from: ms,
            target: b,
            split: r_case1(ms, d, b),
            case: RefineCase::Case1,
        });
    }
    stages
}

/// Runs the full pipeline on `paths`, producing a coloring with multiplex
/// size ≤ `b`.
pub fn run_pipeline(
    paths: &PathSet,
    graph: &Graph,
    b: u32,
    rfactor: RFactor,
    seed: u64,
) -> Result<PipelineReport, PipelineError> {
    let congestion = paths.congestion(graph);
    let dilation = paths.dilation();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coloring = Coloring::uniform(paths.len());
    let mut reports = Vec::new();
    for stage in plan(congestion, dilation, b) {
        let (out, used_split) = match rfactor {
            RFactor::Paper => {
                let out = refine(
                    paths,
                    &coloring,
                    stage.split,
                    stage.target,
                    &mut rng,
                    10_000,
                )
                .map_err(|e| PipelineError {
                    stage,
                    rounds: e.rounds,
                })?;
                (out, stage.split)
            }
            RFactor::Adaptive { sweep_budget } => {
                search_min_split(paths, &coloring, stage, &mut rng, sweep_budget).ok_or(
                    PipelineError {
                        stage,
                        rounds: sweep_budget,
                    },
                )?
            }
        };
        reports.push(StageReport {
            stage,
            used_split,
            resamples: out.resamples,
        });
        coloring = out.coloring;
    }
    debug_assert!(coloring.multiplex_size(paths, graph) <= b.max(congestion.min(b)));
    Ok(PipelineReport {
        coloring,
        stages: reports,
        congestion,
        dilation,
    })
}

/// Doubling + binary search for the smallest split factor that refines
/// `coloring` to `stage.target` within `sweep_budget` sweeps. Returns the
/// best outcome and the split used.
fn search_min_split(
    paths: &PathSet,
    coloring: &Coloring,
    stage: Stage,
    rng: &mut StdRng,
    sweep_budget: u64,
) -> Option<(crate::refine::RefineOutcome, u32)> {
    let cap = stage.split.max(2) * 2;
    let attempt =
        |r: u32, rng: &mut StdRng| refine(paths, coloring, r, stage.target, rng, sweep_budget).ok();
    // Doubling phase.
    let mut lo = 1u32; // known-failing (r=1 can only work if already ≤ target)
    let mut r = 2u32;
    let mut best: Option<(crate::refine::RefineOutcome, u32)> = None;
    while r <= cap {
        if let Some(out) = attempt(r, rng) {
            best = Some((out, r));
            break;
        }
        lo = r;
        r *= 2;
    }
    let (_, mut hi) = match &best {
        Some((_, r)) => ((), *r),
        None => return attempt(stage.split, rng).map(|o| (o, stage.split)),
    };
    // Binary search in (lo, hi).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        match attempt(mid, rng) {
            Some(out) => {
                hi = mid;
                best = Some((out, mid));
            }
            None => lo = mid,
        }
    }
    best
}

/// Convenience: one-shot adaptive split from the trivial coloring straight
/// to multiplex ≤ `b` (no staging), followed by a greedy compaction pass
/// ([`crate::firstfit::compact_coloring`]) that removes the slack random
/// resampling leaves behind. The κ it finds is the headline number of E1.
pub fn adaptive_min_colors(
    paths: &PathSet,
    graph: &Graph,
    b: u32,
    seed: u64,
    sweep_budget: u64,
) -> Option<PipelineReport> {
    let congestion = paths.congestion(graph);
    let dilation = paths.dilation();
    if congestion <= b {
        return Some(PipelineReport {
            coloring: Coloring::uniform(paths.len()),
            stages: Vec::new(),
            congestion,
            dilation,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let stage = Stage {
        from: congestion,
        target: b,
        split: r_case1(congestion.min(64), dilation.max(2), b).max(congestion),
        case: RefineCase::Case1,
    };
    let (out, used) = search_min_split(
        paths,
        &Coloring::uniform(paths.len()),
        stage,
        &mut rng,
        sweep_budget,
    )?;
    let coloring = crate::firstfit::compact_coloring(paths, graph, &out.coloring, b, 4);
    debug_assert!(coloring.multiplex_size(paths, graph) <= b);
    Some(PipelineReport {
        coloring,
        stages: vec![StageReport {
            stage,
            used_split: used,
            resamples: out.resamples,
        }],
        congestion,
        dilation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_topology::random_nets::{staggered_instance, LeveledNet};

    #[test]
    fn plan_cases() {
        // C ≤ log D: single case-1 stage.
        let p = plan(4, 4096, 2);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].case, RefineCase::Case1);
        assert_eq!((p[0].from, p[0].target), (4, 2));

        // log D < C ≤ D: case 2 then case 1.
        let p = plan(64, 256, 2);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].case, RefineCase::Case2);
        assert_eq!(p[1].case, RefineCase::Case1);
        assert_eq!(p[0].target, p[1].from);
        assert_eq!(p[1].target, 2);

        // C ≤ B: nothing to do.
        assert!(plan(2, 100, 4).is_empty());
    }

    #[test]
    fn plan_case3_skips_when_no_headroom() {
        // C > D but 15 ln³C ≥ C at this size: case 3 is skipped and case 2
        // takes over directly.
        let p = plan(128, 32, 1);
        assert!(p.iter().all(|s| s.case != RefineCase::Case3));
        assert_eq!(p.last().unwrap().target, 1);
    }

    #[test]
    fn plan_case3_used_at_asymptotic_sizes() {
        // Gigantic C against small D: the ladder engages.
        let p = plan(200_000, 64, 2);
        assert_eq!(p[0].case, RefineCase::Case3);
        assert!(p[0].target < p[0].from);
    }

    #[test]
    fn plan_targets_clamped_to_b() {
        for s in plan(500, 100, 8) {
            assert!(s.target >= 8);
            assert!(s.from > s.target);
        }
    }

    #[test]
    fn paper_pipeline_reaches_b_on_small_instance() {
        // C=4 ≤ log D for D=64: single-stage paper pipeline.
        let (g, ps) = staggered_instance(4, 64, 64);
        let rep = run_pipeline(&ps, &g, 2, RFactor::Paper, 11).unwrap();
        assert!(rep.coloring.multiplex_size(&ps, &g) <= 2);
        assert_eq!(rep.stages.len(), 1);
        assert!(rep.num_colors() <= rep.stages[0].used_split);
    }

    #[test]
    fn adaptive_beats_paper_on_class_count() {
        let (g, ps) = staggered_instance(8, 32, 64);
        let paper = run_pipeline(&ps, &g, 2, RFactor::Paper, 5).unwrap();
        let adaptive = adaptive_min_colors(&ps, &g, 2, 5, 64).unwrap();
        assert!(adaptive.coloring.multiplex_size(&ps, &g) <= 2);
        assert!(
            adaptive.num_colors() <= paper.num_colors(),
            "adaptive {} vs paper {}",
            adaptive.num_colors(),
            paper.num_colors()
        );
        // κ can never go below C/B.
        assert!(adaptive.num_colors() >= paper.congestion / 2);
    }

    #[test]
    fn adaptive_on_random_leveled_net() {
        let net = LeveledNet::random(16, 8, 2, 3);
        let ps = net.random_walk_paths(64, 4);
        let g = net.graph();
        for b in [1u32, 2, 4] {
            let rep = adaptive_min_colors(&ps, g, b, 7, 64).unwrap();
            assert!(
                rep.coloring.multiplex_size(&ps, g) <= b,
                "multiplex exceeds B={b}"
            );
            assert!(rep.num_colors() >= rep.congestion.div_ceil(b));
        }
    }

    #[test]
    fn kappa_decreases_with_b() {
        let (g, ps) = staggered_instance(12, 48, 96);
        let k1 = adaptive_min_colors(&ps, &g, 1, 2, 64).unwrap().num_colors();
        let k2 = adaptive_min_colors(&ps, &g, 2, 2, 64).unwrap().num_colors();
        let k4 = adaptive_min_colors(&ps, &g, 4, 2, 64).unwrap().num_colors();
        assert!(k1 >= k2 && k2 >= k4, "κ must fall with B: {k1} {k2} {k4}");
        assert!(k1 >= 2 * k4, "B=4 should at least quarter... halve κ");
    }

    #[test]
    fn congestion_at_most_b_short_circuits() {
        let (g, ps) = staggered_instance(2, 16, 8);
        let rep = adaptive_min_colors(&ps, &g, 8, 0, 8).unwrap();
        assert_eq!(rep.num_colors(), 1);
        assert!(rep.stages.is_empty());
    }
}
