//! X8 (extension) — adaptive route selection on escape VCs: open-loop
//! latency-vs-load knees for oblivious vs minimal-adaptive vs
//! fully-adaptive routing on the three-class `AdaptiveEscape` torus.
//!
//! The paper's claim is that virtual channels buy throughput when worms
//! block on each other; adaptive route *selection* is the classic way to
//! convert spare VCs into usable path diversity (Dally \[16\]; Duato's
//! escape-channel framework; the multi-lane MIN studies in PAPERS.md).
//! Every arm runs on the **same hardware** — the
//! `RoutingDiscipline::AdaptiveEscape` torus, whose physical channels
//! carry a class-0/class-1 Dally–Seitz escape pair plus a class-2
//! adaptive lane, each with `B` VCs:
//!
//! * **oblivious** — the dateline dimension-order route fixed at
//!   injection (never touches the adaptive lane; the control arm);
//! * **minimal** — per-hop selection among profitable adaptive-lane
//!   hops by start-of-step occupancy, escape fallback when all are full;
//! * **fully** — minimal plus budgeted misroutes when no profitable
//!   hop has a free VC.
//!
//! Adaptive arms never deadlock (the escape subnetwork is acyclic and a
//! worm that enters it never leaves), and on tornado traffic their
//! measured saturation throughput is at least the oblivious arm's at
//! equal `B` — the acceptance headline, asserted by this module's tests.

use wormhole_flitsim::config::{Arbitration, Engine, RouteSelection, SimConfig};
use wormhole_workloads::{RoutingDiscipline, Substrate, TrafficPattern};

use crate::cells;
use crate::open_loop_grid::{outcome_cell, run_grid, saturation_throughputs, Case, Grid};
use crate::table::{fnum, Table};

/// The sweep per mode: three patterns on one `AdaptiveEscape` torus ×
/// offered rate × VCs per lane × route-selection arm.
fn grid(fast: bool) -> Grid {
    let (radix, dims, msg_len, warmup, measure) = if fast {
        (4u32, 2, 4, 150, 400)
    } else {
        (8, 2, 8, 500, 1500)
    };
    let patterns = [
        TrafficPattern::Tornado,
        TrafficPattern::Transpose,
        TrafficPattern::Hotspot {
            fraction: 0.2,
            hotspots: vec![0, radix.pow(dims) / 2],
        },
    ];
    Grid {
        cases: patterns
            .map(|pattern| Case {
                substrate: Substrate::torus_with(radix, dims, RoutingDiscipline::AdaptiveEscape),
                pattern,
            })
            .into(),
        seed: 0xada9,
        rates: if fast {
            &[0.02, 0.10, 0.25, 0.45]
        } else {
            &[0.02, 0.05, 0.10, 0.20, 0.30, 0.45]
        },
        bs: if fast { &[2, 4] } else { &[2, 4, 8] },
        arms: &["oblivious", "minimal", "fully"],
        msg_len,
        warmup,
        measure,
    }
}

/// All three arms of a point share the workload and the hardware — only
/// the route selection differs.
fn config(_: &Case, arm: &str, b: u32) -> SimConfig {
    let selection = match arm {
        "oblivious" => RouteSelection::Oblivious,
        "minimal" => RouteSelection::MinimalAdaptive,
        "fully" => RouteSelection::FullyAdaptive,
        _ => unreachable!("unknown route-selection arm {arm}"),
    };
    SimConfig::new(b)
        .arbitration(Arbitration::Random)
        .seed(0x5eed ^ b as u64)
        .route_selection(selection)
}

/// Runs X8 on `engine`.
pub fn run(fast: bool, engine: Engine) -> Vec<Table> {
    let grid = grid(fast);
    let points = run_grid(&grid, engine, config);

    let mut tables = Vec::new();
    let mut curves = Table::new(
        format!(
            "X8 — adaptive routing on escape VCs: {}, L = {}, warmup {}, window {}",
            grid.cases[0].substrate.name(),
            grid.msg_len,
            grid.warmup,
            grid.measure
        ),
        &[
            "pattern",
            "selection",
            "offered (msg/ep/step)",
            "B",
            "mean lat",
            "p50",
            "p99",
            "accepted (flit/ep/step)",
            "escapes",
            "misroutes",
            "saturated",
            "outcome",
        ],
    );
    for p in &points {
        curves.row(&cells!(
            p.pattern,
            p.arm,
            fnum(p.rate),
            p.b,
            fnum(p.stats.latency.mean),
            p.stats.latency.p50,
            p.stats.latency.p99,
            fnum(p.accepted_per_endpoint()),
            p.escape_fallbacks,
            p.misroute_hops,
            if p.stats.saturated { "yes" } else { "-" },
            outcome_cell(&p.outcome)
        ));
    }
    curves.note(
        "All arms share one substrate (escape pair + adaptive lane, B VCs per lane) and one \
         workload; only route selection differs. The oblivious arm rides the dateline route and \
         leaves the adaptive lane idle; the adaptive arms convert it into path diversity, falling \
         back to the escape pair ('escapes') when it saturates — which is why they never deadlock.",
    );
    tables.push(curves);

    let mut sat = Table::new(
        "X8 — measured saturation throughput (max accepted load over the rate sweep)",
        &[
            "pattern",
            "selection",
            "B",
            "sat. throughput (flit/ep/step)",
        ],
    );
    for (p, best) in saturation_throughputs(&points) {
        sat.row(&cells!(p.pattern, p.arm, p.b, fnum(best)));
    }
    sat.note(
        "On tornado traffic the adaptive arms' saturation throughput is ≥ the oblivious arm's at \
         every B (the acceptance criterion, asserted in tests): minimal adaptivity spreads the \
         per-dimension rotation over both dimensions' spare VCs, and the budgeted fully-adaptive \
         arm adds misroutes on top.",
    );
    tables.push(sat);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::open_loop_grid::Point;

    /// One shared fast sweep (deterministic, so every assertion can read
    /// the same points).
    fn fast_points() -> Vec<Point> {
        run_grid(&grid(true), Engine::EventDriven, config)
    }

    #[test]
    fn x8_adaptive_beats_oblivious_on_tornado_and_never_deadlocks() {
        let points = fast_points();

        // No arm may deadlock: oblivious rides dateline routes, adaptive
        // arms have the escape network. (This is the whole design.)
        for p in &points {
            assert!(
                !p.deadlocked(),
                "{} {} B={} rate={} deadlocked",
                p.pattern,
                p.arm,
                p.b,
                p.rate
            );
        }

        // Acceptance: on torus tornado, each adaptive arm's saturation
        // throughput >= the oblivious arm's at equal B.
        let sat = saturation_throughputs(&points);
        let lookup = |pattern: &str, arm: &str, b: u32| {
            sat.iter()
                .find(|(p, _)| p.pattern == pattern && p.arm == arm && p.b == b)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{pattern}/{arm}/B={b} swept"))
        };
        for &b in &[2u32, 4] {
            let obl = lookup("tornado", "oblivious", b);
            for arm in ["minimal", "fully"] {
                let adp = lookup("tornado", arm, b);
                assert!(
                    adp >= obl,
                    "B={b}: {arm} saturation {adp} < oblivious {obl}"
                );
            }
            assert!(obl > 0.0, "oblivious arm must carry traffic at B={b}");
        }

        // Where routes genuinely conflict, adaptivity wins strictly: on
        // transpose at B=2 the minimal arm clears the oblivious knee by
        // a wide margin (≈0.79 → ≈1.32 flit/ep/step in fast mode; the
        // sweep is deterministic, so this is a stable regression line).
        let transpose = |arm: &str| lookup("transpose", arm, 2);
        assert!(
            transpose("minimal") > 1.2 * transpose("oblivious"),
            "minimal-adaptive transpose win collapsed: {} vs {}",
            transpose("minimal"),
            transpose("oblivious")
        );

        // The escape network is actually exercised somewhere in the
        // sweep: at high load the adaptive lane saturates and worms fall
        // back (the counters are how the regression fixture sees it too).
        assert!(
            points
                .iter()
                .any(|p| p.arm != "oblivious" && p.escape_fallbacks > 0),
            "no adaptive point ever used the escape network"
        );
        // And the fully-adaptive arm misroutes somewhere.
        assert!(
            points
                .iter()
                .any(|p| p.arm == "fully" && p.misroute_hops > 0),
            "fully-adaptive arm never misrouted"
        );
        // Oblivious arms never touch the adaptive machinery.
        for p in &points {
            if p.arm == "oblivious" {
                assert_eq!(p.escape_fallbacks, 0);
                assert_eq!(p.misroute_hops, 0);
            }
        }
    }

    #[test]
    fn x8_tables_render() {
        let tables = run(true, Engine::EventDriven);
        assert_eq!(tables.len(), 2);
        let s = tables[0].render();
        for needle in [
            "tornado",
            "transpose",
            "hotspot",
            "oblivious",
            "minimal",
            "fully",
        ] {
            assert!(s.contains(needle), "missing {needle}");
        }
        assert!(tables[1].render().contains("sat. throughput"));
    }
}
