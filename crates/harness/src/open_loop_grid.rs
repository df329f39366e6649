//! The open-loop grid, stated once: `cases × rates × Bs × arms`, every
//! point one `Workload::generate` → `run_open_loop` run measured over a
//! warmup / measurement window.
//!
//! x2 (pattern suite × `B`), x3 (its butterfly-only view), x8 (route
//! selection arms) and x9 (static vs pooled VC arms) are all this sweep;
//! each keeps what is its own — the case list and base seed, the arm →
//! [`SimConfig`] mapping, its table columns, notes and claim tests — and
//! gets the loop, the [`Point`] it fills, the saturation summary and the
//! outcome cell from here. x10 / x11 / x12 run other sweeps and share
//! only [`outcome_cell`] and [`equal_budget_policy`].

use wormhole_flitsim::config::{Engine, SimConfig, VcPolicy};
use wormhole_flitsim::open_loop::{run_open_loop, OpenLoopConfig};
use wormhole_flitsim::stats::{OpenLoopStats, Outcome};
use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_workloads::{ArrivalProcess, Substrate, TrafficPattern, Workload};

use crate::sweep::{default_threads, parallel_map};

/// One row of a grid's case axis: where the traffic runs and what it
/// looks like.
pub struct Case {
    /// The network.
    pub substrate: Substrate,
    /// Destination selection rule.
    pub pattern: TrafficPattern,
}

/// The axes and the measurement window of one sweep.
pub struct Grid {
    /// Case axis (outermost).
    pub cases: Vec<Case>,
    /// Workload seed: case `i` draws from `seed ^ (i << 4)`, whatever
    /// the rate, `B` and arm.
    pub seed: u64,
    /// Offered loads, messages per endpoint per step.
    pub rates: &'static [f64],
    /// VC counts (or budget factors — the arm decides what `B` buys).
    pub bs: &'static [u32],
    /// Arm labels (innermost): the configurations compared on one
    /// workload.
    pub arms: &'static [&'static str],
    /// Message length in flits.
    pub msg_len: u32,
    /// Warmup steps before the measurement window.
    pub warmup: u64,
    /// Measurement window length.
    pub measure: u64,
}

/// One measured point of a grid.
#[derive(Debug, PartialEq)]
pub struct Point {
    /// Substrate name.
    pub substrate: String,
    /// Pattern name.
    pub pattern: &'static str,
    /// Arm label.
    pub arm: &'static str,
    /// Offered load, messages per endpoint per step.
    pub rate: f64,
    /// The `B` axis value.
    pub b: u32,
    /// Endpoint count of the substrate (for per-endpoint normalization).
    pub endpoints: f64,
    /// How the underlying simulation ended.
    pub outcome: Outcome,
    /// Worms that fell back onto the escape network (adaptive arms).
    pub escape_fallbacks: u64,
    /// Non-minimal hops taken (fully-adaptive arms).
    pub misroute_hops: u64,
    /// Peak per-router VC occupancy observed.
    pub max_pool_in_use: u32,
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

/// The outcome column of every experiment table.
pub fn outcome_cell(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Completed => "ok",
        Outcome::MaxSteps => "cap",
        Outcome::Deadlock(_) => "DEADLOCK",
    }
}

/// The two capacity arms of one budget step `b`: `"static"` dedicates
/// `b` VCs to every edge, `"pooled"` shares the same aggregate storage
/// (`b · fanout` per router) on demand, floor 1 per edge (what the
/// deadlock-freedom arguments need), cap = the pool.
pub fn equal_budget_policy(arm: &str, b: u32, fanout: u32) -> VcPolicy {
    match arm {
        "static" => VcPolicy::Static(b),
        "pooled" => VcPolicy::pooled(b * fanout, 1, b * fanout),
        _ => unreachable!("unknown capacity arm {arm}"),
    }
}

/// Runs the grid on `engine`, in input order: per case, per offered rate
/// × `B` × arm. Every arm of a `(case, rate, B)` cell routes the same
/// message stream — the workload depends on the case and the rate alone
/// — under the [`SimConfig`] `config(case, arm, B)` returns.
pub fn run_grid(
    grid: &Grid,
    engine: Engine,
    config: impl Fn(&Case, &'static str, u32) -> SimConfig + Sync,
) -> Vec<Point> {
    let mut jobs = Vec::new();
    for (ci, case) in grid.cases.iter().enumerate() {
        for &rate in grid.rates {
            for &b in grid.bs {
                for &arm in grid.arms {
                    jobs.push((ci as u64, case, rate, b, arm));
                }
            }
        }
    }
    parallel_map(jobs, default_threads(), |&(ci, case, rate, b, arm)| {
        let w = Workload::new(
            case.substrate.clone(),
            case.pattern.clone(),
            ArrivalProcess::bernoulli(rate),
            grid.msg_len,
            grid.seed ^ (ci << 4),
        );
        let specs = w.generate(grid.warmup + grid.measure);
        let ol = OpenLoopConfig::new(grid.warmup, grid.measure);
        let cfg = config(case, arm, b).engine(engine);
        // Adaptive arms need a mesh to route over; oblivious ones ignore it.
        let router = case.substrate.as_mesh().map(|m| m as &dyn AdaptiveRouter);
        let r = run_open_loop(case.substrate.graph(), router, &specs, &cfg, &ol);
        Point {
            substrate: case.substrate.name(),
            pattern: case.pattern.name(),
            arm,
            rate,
            b,
            endpoints: case.substrate.endpoints() as f64,
            outcome: r.outcome,
            escape_fallbacks: r.escape_fallbacks,
            misroute_hops: r.misroute_hops,
            max_pool_in_use: r.max_pool_in_use,
            stats: r.open_loop.expect("open-loop run carries stats"),
        }
    })
}

/// Saturation throughput (max accepted flit rate over the rate sweep)
/// per `(substrate, pattern, arm, B)` curve, in first-appearance order;
/// each curve is named by its first point.
pub fn saturation_throughputs(points: &[Point]) -> Vec<(&Point, f64)> {
    let mut out: Vec<(&Point, f64)> = Vec::new();
    for p in points {
        let v = p.accepted_per_endpoint();
        let same_curve = |q: &Point| {
            q.substrate == p.substrate && q.pattern == p.pattern && q.arm == p.arm && q.b == p.b
        };
        match out.iter_mut().find(|(q, _)| same_curve(q)) {
            Some(entry) => entry.1 = entry.1.max(v),
            None => out.push((p, v)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_flitsim::config::Arbitration;

    fn tiny_grid() -> Grid {
        Grid {
            cases: vec![
                Case {
                    substrate: Substrate::butterfly(3),
                    pattern: TrafficPattern::UniformRandom,
                },
                Case {
                    substrate: Substrate::torus(4, 1),
                    pattern: TrafficPattern::Tornado,
                },
            ],
            seed: 1,
            rates: &[0.05, 0.3],
            bs: &[1, 2],
            arms: &["static", "pooled"],
            msg_len: 3,
            warmup: 20,
            measure: 60,
        }
    }

    fn run_tiny(engine: Engine) -> Vec<Point> {
        run_grid(&tiny_grid(), engine, |case, arm, b| {
            let fanout = case.substrate.graph().max_out_degree() as u32;
            SimConfig::new(1)
                .vc_policy(equal_budget_policy(arm, b, fanout))
                .arbitration(Arbitration::Random)
        })
    }

    #[test]
    fn grid_runs_in_case_rate_b_arm_order_on_shared_specs() {
        let points = run_tiny(Engine::EventDriven);
        let mut expect = Vec::new();
        for sub in ["butterfly(n=8)", "torus(4^1)"] {
            for rate in [0.05, 0.3] {
                for b in [1, 2] {
                    for arm in ["static", "pooled"] {
                        expect.push((sub.to_string(), rate, b, arm));
                    }
                }
            }
        }
        let got: Vec<_> = points
            .iter()
            .map(|p| (p.substrate.clone(), p.rate, p.b, p.arm))
            .collect();
        assert_eq!(got, expect);
        assert_eq!(points[0].pattern, "uniform");
        assert_eq!(points[8].pattern, "tornado");
        assert_eq!((points[0].endpoints, points[8].endpoints), (8.0, 4.0));

        // The message stream depends on (case, rate) alone: every B and
        // arm of the cell was offered the same messages, and the heavier
        // rate offers more.
        for cell in points.chunks(4) {
            assert!(cell[0].stats.offered_msgs > 0);
            for p in cell {
                assert_eq!(p.stats.offered_msgs, cell[0].stats.offered_msgs);
                assert_eq!(p.stats.window_start, 20);
                assert_eq!(p.stats.window_len, 60);
            }
        }
        assert!(points[4].stats.offered_msgs > points[0].stats.offered_msgs);
        // Case `i` draws from `seed ^ (i << 4)`.
        for (ci, case) in tiny_grid().cases.into_iter().enumerate() {
            let arrivals = ArrivalProcess::bernoulli(0.05);
            let w = Workload::new(
                case.substrate,
                case.pattern,
                arrivals,
                3,
                1 ^ (ci as u64) << 4,
            );
            let offered = w.generate(80).iter().filter(|s| s.release >= 20).count();
            assert_eq!(points[ci * 8].stats.offered_msgs, offered);
        }
        // And the arm reached the simulator: a static router holds at
        // most fanout · B = 2 VCs at B = 1.
        for p in points.iter().filter(|p| p.arm == "static" && p.b == 1) {
            assert!(p.max_pool_in_use <= 2, "{p:?}");
        }
    }

    #[test]
    fn saturation_is_the_max_over_rates_per_curve_in_first_appearance_order() {
        let points = run_tiny(Engine::Legacy);
        // The engines are bit-identical: every field of every point.
        assert_eq!(points, run_tiny(Engine::EventDriven));
        let sat = saturation_throughputs(&points);
        // 2 cases × 2 Bs × 2 arms curves, each named by its first point
        // (the lowest rate), ordered as the grid ran them.
        assert_eq!(sat.len(), 8);
        for (i, (first, best)) in sat.iter().enumerate() {
            let (case, rest) = (i / 4, i % 4);
            assert!(std::ptr::eq(*first, &points[case * 8 + rest]));
            let other = &points[case * 8 + 4 + rest];
            assert_eq!(
                *best,
                first
                    .accepted_per_endpoint()
                    .max(other.accepted_per_endpoint())
            );
        }
    }
}
