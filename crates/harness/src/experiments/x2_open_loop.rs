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
use wormhole_flitsim::open_loop::{run_open_loop, OpenLoopConfig};
use wormhole_flitsim::stats::{OpenLoopStats, Outcome};
use wormhole_workloads::{ArrivalProcess, RoutingDiscipline, Substrate, TrafficPattern, Workload};

use crate::cells;
use crate::sweep::{default_threads, parallel_map};
use crate::table::{fnum, Table};

/// One measured point of the sweep.
pub struct Point {
    /// Pattern name.
    pub pattern: &'static str,
    /// Substrate name.
    pub substrate: String,
    /// Endpoint count of the substrate (for per-endpoint normalization).
    pub endpoints: f64,
    /// Offered load, messages per endpoint per step.
    pub rate: f64,
    /// Virtual channels.
    pub b: u32,
    /// How the underlying simulation ended (a deadlocked point is the
    /// torus headline the dateline discipline exists to remove).
    pub outcome: Outcome,
    /// Windowed measurement.
    pub stats: OpenLoopStats,
}

impl Point {
    /// Accepted throughput in flits per endpoint per step.
    pub fn accepted_per_endpoint(&self) -> f64 {
        self.stats.accepted_flits_per_step / self.endpoints
    }

    /// Whether the simulation wedged into a deadlock.
    pub fn deadlocked(&self) -> bool {
        matches!(self.outcome, Outcome::Deadlock(_))
    }
}

fn patterns(fast: bool) -> Vec<(TrafficPattern, Substrate)> {
    let k = if fast { 5 } else { 6 };
    let bf = || Substrate::butterfly(k);
    let mut v = vec![
        (TrafficPattern::UniformRandom, bf()),
        (TrafficPattern::Permutation, bf()),
        (TrafficPattern::BitReversal, bf()),
        (TrafficPattern::Shuffle, bf()),
        (
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
        v.push((
            TrafficPattern::Tornado,
            Substrate::torus_with(tr, td, discipline),
        ));
        v.push((
            TrafficPattern::UniformRandom,
            Substrate::torus_with(tr, td, discipline),
        ));
    }
    if !fast {
        v.push((TrafficPattern::Transpose, bf()));
        v.push((TrafficPattern::UniformRandom, Substrate::hypercube(6)));
    }
    v
}

/// Sweep parameters per mode: (message length, warmup, measure window).
fn params(fast: bool) -> (u32, u64, u64) {
    if fast {
        (4, 150, 400)
    } else {
        (8, 500, 1500)
    }
}

/// Runs the full measurement sweep, in input order: for each pattern,
/// each offered rate × VC count.
pub fn sweep_points(fast: bool) -> Vec<Point> {
    sweep_points_with(fast, Engine::EventDriven)
}

/// [`sweep_points`] on an explicit simulator engine — the differential
/// hook used by the tests (the engines are bit-identical; only their
/// cost differs, which `crates/perfbench` measures).
pub fn sweep_points_with(fast: bool, engine: Engine) -> Vec<Point> {
    let (l, warmup, measure) = params(fast);
    let rates: &[f64] = if fast {
        &[0.02, 0.10, 0.25, 0.45]
    } else {
        &[0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.55]
    };
    let bs: &[u32] = if fast { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    let mut jobs = Vec::new();
    for (pi, (pattern, substrate)) in patterns(fast).into_iter().enumerate() {
        for &rate in rates {
            for &b in bs {
                jobs.push((pi, pattern.clone(), substrate.clone(), rate, b));
            }
        }
    }
    parallel_map(
        jobs,
        default_threads(),
        |(pi, pattern, substrate, rate, b)| {
            let w = Workload::new(
                substrate.clone(),
                pattern.clone(),
                ArrivalProcess::bernoulli(*rate),
                l,
                0xa11ce ^ (*pi as u64) << 4,
            );
            let specs = w.generate(warmup + measure);
            let ol = OpenLoopConfig::new(warmup, measure);
            let cfg = SimConfig::new(*b)
                .arbitration(Arbitration::Random)
                .seed(0x5eed ^ *b as u64)
                .engine(engine);
            let r = run_open_loop(substrate.graph(), &specs, &cfg, &ol);
            Point {
                pattern: pattern.name(),
                substrate: substrate.name(),
                endpoints: substrate.endpoints() as f64,
                rate: *rate,
                b: *b,
                outcome: r.outcome.clone(),
                stats: r.open_loop.expect("open-loop run carries stats"),
            }
        },
    )
}

/// Saturation throughput (max accepted flit rate over the rate sweep)
/// per `(substrate, pattern, B)`, in first-appearance order.
pub fn saturation_throughputs(points: &[Point]) -> Vec<(String, &'static str, u32, f64)> {
    let mut out: Vec<(String, &'static str, u32, f64)> = Vec::new();
    for p in points {
        let v = p.accepted_per_endpoint();
        match out
            .iter_mut()
            .find(|(s, pat, b, _)| *s == p.substrate && *pat == p.pattern && *b == p.b)
        {
            Some(entry) => entry.3 = entry.3.max(v),
            None => out.push((p.substrate.clone(), p.pattern, p.b, v)),
        }
    }
    out
}

/// Saturation throughputs for uniform-random butterfly traffic keyed by
/// `B` — the monotonicity headline, computed from the structured sweep
/// (no table parsing).
pub fn uniform_saturation_curve(points: &[Point]) -> Vec<(u32, f64)> {
    let mut out: Vec<(u32, f64)> = saturation_throughputs(points)
        .into_iter()
        .filter(|(s, pat, _, _)| s.starts_with("butterfly") && *pat == "uniform")
        .map(|(_, _, b, v)| (b, v))
        .collect();
    out.sort_by_key(|&(b, _)| b);
    out
}

/// Runs X2.
pub fn run(fast: bool) -> Vec<Table> {
    let (l, warmup, measure) = params(fast);
    let points = sweep_points(fast);

    let mut tables = Vec::new();
    let mut curves = Table::new(
        format!(
            "X2 — open-loop latency vs offered load (L = {l}, warmup {warmup}, window {measure})"
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
        let outcome = match &p.outcome {
            Outcome::Completed => "ok",
            Outcome::MaxSteps => "cap",
            Outcome::Deadlock(_) => "DEADLOCK",
        };
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
            outcome
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
    for (sub, pat, b, best) in saturation_throughputs(&points) {
        sat.row(&cells!(sub, pat, b, fnum(best)));
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

    /// One shared fast sweep: the measurement is deterministic, so every
    /// assertion can read the same points.
    fn fast_points() -> Vec<Point> {
        sweep_points(true)
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
        let (_, _, _, dl_b1) = sat
            .iter()
            .find(|(s, pat, b, _)| s.contains("dateline") && *pat == "tornado" && *b == 1)
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
        let ev = sweep_points_with(true, Engine::EventDriven);
        let lg = sweep_points_with(true, Engine::Legacy);
        assert_eq!(ev.len(), lg.len());
        for (a, b) in ev.iter().zip(&lg) {
            let ctx = format!("{} {} rate={} B={}", a.substrate, a.pattern, a.rate, a.b);
            assert_eq!(a.outcome, b.outcome, "{ctx}");
            assert_eq!(a.stats.latency, b.stats.latency, "{ctx}");
            assert_eq!(a.stats.offered_msgs, b.stats.offered_msgs, "{ctx}");
            assert_eq!(a.stats.delivered_msgs, b.stats.delivered_msgs, "{ctx}");
            assert_eq!(a.stats.accepted_msgs, b.stats.accepted_msgs, "{ctx}");
            assert_eq!(a.stats.backlog, b.stats.backlog, "{ctx}");
            assert_eq!(a.stats.saturated, b.stats.saturated, "{ctx}");
        }
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
