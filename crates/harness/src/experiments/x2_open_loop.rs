//! X2 (extension) — open-loop latency-vs-offered-load curves over the
//! synthetic traffic suite (`wormhole-workloads`), sweeping the VC count.
//!
//! The paper's theorems are batch statements; the standard NoC evidence
//! for virtual-channel benefit (Dally \[16\]; Onsori–Safaei; Stergiou) is
//! open-loop: every endpoint injects by a timed process, and the latency
//! curve's saturation knee moves right as `B` grows. This experiment
//! sweeps offered load × traffic pattern × `B ∈ {1,2,4,8}` and reports
//! per-window latency percentiles, accepted throughput, and the measured
//! saturation throughput (max accepted load over the sweep) per `(pattern,
//! B)` — which increases monotonically in `B` on the uniform-random
//! butterfly workload.
//!
//! Torus points run on both routing disciplines: the naive arm wedges
//! into deadlock on tornado traffic at `B = 1` (worms chasing tails
//! around a wrap ring), while the Dally–Seitz dateline arm
//! ([`RoutingDiscipline::DatelineClasses`]) is deadlock-free by
//! construction and keeps accepting traffic at every `B`.

use wormhole_flitsim::config::{Arbitration, Engine, SimConfig};
use wormhole_workloads::{RoutingDiscipline, Substrate, TrafficPattern};

use crate::cells;
use crate::open_loop_grid::{outcome_cell, run_grid, saturation_throughputs, Case, Grid};
use crate::table::{fnum, Table};

fn cases(fast: bool) -> Vec<Case> {
    let k = if fast { 5 } else { 6 };
    let case = |pattern, substrate| Case { substrate, pattern };
    let bf = || Substrate::butterfly(k);
    let mut v = vec![
        case(TrafficPattern::UniformRandom, bf()),
        case(TrafficPattern::Permutation, bf()),
        case(TrafficPattern::BitReversal, bf()),
        case(TrafficPattern::Shuffle, bf()),
        case(
            TrafficPattern::Hotspot {
                fraction: 0.2,
                hotspots: vec![0, 1 << (k - 1)],
            },
            bf(),
        ),
    ];
    // Torus arms run twice — naive vs dateline discipline — so the curves
    // show the B=1 tornado deadlock and its removal side by side.
    let (tr, td) = if fast { (8, 1) } else { (8, 2) };
    for discipline in [RoutingDiscipline::Naive, RoutingDiscipline::DatelineClasses] {
        let torus = || Substrate::torus_with(tr, td, discipline);
        v.push(case(TrafficPattern::Tornado, torus()));
        v.push(case(TrafficPattern::UniformRandom, torus()));
    }
    if !fast {
        v.push(case(TrafficPattern::Transpose, bf()));
        v.push(case(TrafficPattern::UniformRandom, Substrate::hypercube(6)));
    }
    v
}

/// The sweep per mode: every (pattern, substrate) case × offered rate ×
/// `B`, one arm.
fn grid(fast: bool) -> Grid {
    let (msg_len, warmup, measure) = if fast { (4, 150, 400) } else { (8, 500, 1500) };
    Grid {
        cases: cases(fast),
        seed: 0xa11ce,
        rates: if fast {
            &[0.02, 0.10, 0.25, 0.45]
        } else {
            &[0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.55]
        },
        bs: if fast { &[1, 2, 4] } else { &[1, 2, 4, 8] },
        arms: &["static"],
        msg_len,
        warmup,
        measure,
    }
}

/// `B` static VCs per edge under random arbitration (x3 runs the same).
pub(crate) fn config(_: &Case, _: &str, b: u32) -> SimConfig {
    SimConfig::new(b)
        .arbitration(Arbitration::Random)
        .seed(0x5eed ^ b as u64)
}

/// Runs X2.
pub fn run(fast: bool) -> Vec<Table> {
    let grid = grid(fast);
    let points = run_grid(&grid, Engine::EventDriven, config);

    let mut tables = Vec::new();
    let mut curves = Table::new(
        format!(
            "X2 — open-loop latency vs offered load (L = {}, warmup {}, window {})",
            grid.msg_len, grid.warmup, grid.measure
        ),
        &[
            "substrate",
            "pattern",
            "offered (msg/ep/step)",
            "B",
            "mean lat",
            "p50",
            "p95",
            "p99",
            "accepted (flit/ep/step)",
            "saturated",
            "outcome",
        ],
    );
    for p in &points {
        curves.row(&cells!(
            p.substrate,
            p.pattern,
            fnum(p.rate),
            p.b,
            fnum(p.stats.latency.mean),
            p.stats.latency.p50,
            p.stats.latency.p95,
            p.stats.latency.p99,
            fnum(p.accepted_per_endpoint()),
            if p.stats.saturated { "yes" } else { "-" },
            outcome_cell(&p.outcome)
        ));
    }
    curves.note(
        "Latency sits at the D+L−1 floor until the knee; the knee's offered load rises with B. \
         'saturated' = accepted < 95% of offered or growing backlog over the window. \
         Tornado on the naive torus wedges into DEADLOCK at B=1; the dateline arm \
         (two VC classes, per-dimension dateline switch) never deadlocks.",
    );
    tables.push(curves);

    let mut sat = Table::new(
        "X2 — measured saturation throughput (max accepted load over the rate sweep)",
        &[
            "substrate",
            "pattern",
            "B",
            "sat. throughput (flit/ep/step)",
        ],
    );
    for (p, best) in saturation_throughputs(&points) {
        sat.row(&cells!(p.substrate, p.pattern, p.b, fnum(best)));
    }
    sat.note(
        "On uniform-random butterfly traffic the saturation throughput increases monotonically \
         in B — the open-loop face of the paper's batch speedup. The naive-torus tornado rows \
         collapse to ≈ 0 at B=1 (deadlock); the dateline rows stay live at every B.",
    );
    tables.push(sat);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::open_loop_grid::{assert_engines_agree_pointwise, Point};

    /// Saturation throughputs for uniform-random butterfly traffic keyed by
    /// `B` — the monotonicity headline, computed from the structured sweep
    /// (no table parsing).
    fn uniform_saturation_curve(points: &[Point]) -> Vec<(u32, f64)> {
        let mut out: Vec<(u32, f64)> = saturation_throughputs(points)
            .into_iter()
            .filter(|(p, _)| p.substrate.starts_with("butterfly") && p.pattern == "uniform")
            .map(|(p, v)| (p.b, v))
            .collect();
        out.sort_by_key(|&(b, _)| b);
        out
    }

    /// One shared fast sweep: the measurement is deterministic, so every
    /// assertion can read the same points.
    fn fast_points() -> Vec<Point> {
        run_grid(&grid(true), Engine::EventDriven, config)
    }

    #[test]
    fn x2_sweep_properties() {
        let points = fast_points();

        // Saturation throughput is monotone in B on uniform butterfly.
        let curve = uniform_saturation_curve(&points);
        assert!(curve.len() >= 3, "need ≥ 3 VC counts, got {curve:?}");
        for w in curve.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "saturation throughput must not drop with more VCs: {curve:?}"
            );
        }
        assert!(
            curve.last().unwrap().1 > curve.first().unwrap().1,
            "B must buy measurable throughput: {curve:?}"
        );

        // Coverage: ≥ 4 patterns × ≥ 3 VC counts.
        let mut pats: Vec<&str> = points.iter().map(|p| p.pattern).collect();
        pats.sort_unstable();
        pats.dedup();
        assert!(pats.len() >= 4, "patterns covered: {pats:?}");
        let mut bs: Vec<u32> = points.iter().map(|p| p.b).collect();
        bs.sort_unstable();
        bs.dedup();
        assert!(bs.len() >= 3, "VC counts covered: {bs:?}");

        // At the lightest load with ample VCs, p50 latency sits at the
        // D + L − 1 floor (k = 5, L = 4 in fast mode).
        let floor = (5 + 4 - 1) as u64;
        let light = points
            .iter()
            .find(|p| p.pattern == "uniform" && p.rate < 0.03 && p.b == 4)
            .expect("light-load uniform point exists");
        assert_eq!(light.stats.latency.p50, floor, "p50 at light load");
        assert!(!light.stats.saturated);
    }

    #[test]
    fn x2_dateline_discipline_removes_the_tornado_deadlock() {
        let points = fast_points();
        let naive: Vec<&Point> = points
            .iter()
            .filter(|p| {
                p.pattern == "tornado"
                    && p.substrate.starts_with("torus")
                    && !p.substrate.contains("dateline")
            })
            .collect();
        let dateline: Vec<&Point> = points
            .iter()
            .filter(|p| p.pattern == "tornado" && p.substrate.contains("dateline"))
            .collect();
        assert!(!naive.is_empty() && !dateline.is_empty(), "both arms swept");

        // The control arm wedges: some naive B=1 point deadlocks.
        assert!(
            naive.iter().any(|p| p.b == 1 && p.deadlocked()),
            "naive tornado-on-torus must deadlock at B=1"
        );
        // The dateline arm never deadlocks — at any B, any rate.
        for p in &dateline {
            assert!(
                !p.deadlocked(),
                "dateline tornado must not deadlock: B={} rate={}",
                p.b,
                p.rate
            );
        }
        // And at B=1 it carries real traffic: nonzero measured saturation
        // throughput (the acceptance headline).
        let sat = saturation_throughputs(&points);
        let (_, dl_b1) = sat
            .iter()
            .find(|(p, _)| p.substrate.contains("dateline") && p.pattern == "tornado" && p.b == 1)
            .expect("dateline tornado B=1 swept");
        assert!(
            *dl_b1 > 0.0,
            "dateline tornado at B=1 must accept traffic, got {dl_b1}"
        );
    }

    #[test]
    fn x2_engines_agree_pointwise() {
        // The sweep is the engine's production workload: every measured
        // point must be identical under the legacy differential oracle.
        let legacy = run_grid(&grid(true), Engine::Legacy, config);
        assert_engines_agree_pointwise(&fast_points(), &legacy);
    }

    #[test]
    fn x2_tables_render() {
        let tables = run(true);
        assert_eq!(tables.len(), 2);
        let s = tables[0].render();
        for pat in [
            "uniform",
            "permutation",
            "bit-reversal",
            "shuffle",
            "hotspot",
            "tornado",
        ] {
            assert!(s.contains(pat), "missing pattern {pat}");
        }
        assert!(s.contains("dateline"), "dateline arm missing from curves");
        assert!(s.contains("DEADLOCK"), "naive deadlock missing from curves");
        assert!(tables[1].render().contains("sat. throughput"));
    }
}
