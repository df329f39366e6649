//! X3 (extension) — latency–throughput curves under continuous injection
//! (Dally \[16\], §1.3.4 category 2): virtual channels raise the saturation
//! load of a butterfly. The batch theorems' `log^{1/B} n` factor shows up
//! here as a higher knee in the latency curve.
//!
//! A one-case view of the shared open-loop grid ([`crate::open_loop_grid`])
//! under x2's simulator configuration: where x2 sweeps the whole pattern
//! suite, this is uniform random traffic on a larger one-pass butterfly,
//! with the columns of Dally's plot.

use wormhole_flitsim::config::Engine;
use wormhole_workloads::{Substrate, TrafficPattern};

use super::x2_open_loop::config;
use crate::cells;
use crate::open_loop_grid::{run_grid, Case, Grid};
use crate::table::{fnum, Table};

fn grid(fast: bool) -> Grid {
    let (k, msg_len, warmup, measure) = if fast {
        (5, 4, 100, 300)
    } else {
        (7, 8, 500, 1500)
    };
    Grid {
        cases: vec![Case {
            substrate: Substrate::butterfly(k),
            pattern: TrafficPattern::UniformRandom,
        }],
        seed: 77,
        rates: if fast {
            &[0.05, 0.20]
        } else {
            &[0.02, 0.05, 0.10, 0.15, 0.20, 0.30]
        },
        bs: if fast { &[1, 4] } else { &[1, 2, 4] },
        arms: &["static"],
        msg_len,
        warmup,
        measure,
    }
}

/// Runs X3 on `engine`.
pub fn run(fast: bool, engine: Engine) -> Vec<Table> {
    let grid = grid(fast);
    let points = run_grid(&grid, engine, config);
    let mut t = Table::new(
        format!(
            "X3 — open-loop latency vs offered load ({}, L = {}, warmup {}, window {})",
            grid.cases[0].substrate.name(),
            grid.msg_len,
            grid.warmup,
            grid.measure
        ),
        &[
            "offered (msg/input/step)",
            "B",
            "injected",
            "mean latency",
            "p95 latency",
            "throughput (flit/input/step)",
        ],
    );
    for p in &points {
        t.row(&cells!(
            fnum(p.rate),
            p.b,
            p.stats.offered_msgs,
            fnum(p.stats.latency.mean),
            p.stats.latency.p95,
            fnum(p.accepted_per_endpoint())
        ));
    }
    t.note("At low load all curves sit at the D+L−1 floor; past saturation the B=1 latency explodes while B=4 stays flat — VCs raise the knee, Dally's classic result in this model. ('injected' counts the messages released inside the window; latency is over those delivered before the run's step cap.)");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x3_vcs_cut_saturated_latency() {
        let points = run_grid(&grid(true), Engine::EventDriven, config);
        let at = |rate: f64, b: u32| {
            let p = points.iter().find(|p| p.rate == rate && p.b == b);
            p.unwrap_or_else(|| panic!("rate {rate} B={b} swept"))
        };
        // At the low rate with ample VCs latency sits at the D + L − 1
        // floor (k = 5, L = 4 in fast mode).
        assert_eq!(at(0.05, 4).stats.latency.p50, 5 + 4 - 1);
        assert!(!at(0.05, 4).stats.saturated);
        // At the high rate, B=4 mean latency < B=1 mean latency, with no
        // less accepted traffic.
        let (b1, b4) = (at(0.20, 1), at(0.20, 4));
        assert!(b1.stats.latency.n > 0 && b4.stats.latency.n > 0);
        assert!(
            b4.stats.latency.mean < b1.stats.latency.mean,
            "B=4 latency {} should beat B=1 {} at high load",
            b4.stats.latency.mean,
            b1.stats.latency.mean
        );
        assert!(b4.accepted_per_endpoint() >= b1.accepted_per_endpoint());
        // Latency rises with load at B=1.
        assert!(b1.stats.latency.mean > at(0.05, 1).stats.latency.mean);
    }
}
