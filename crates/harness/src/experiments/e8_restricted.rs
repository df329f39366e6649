//! E8 — §1.4 Remarks: the restricted model (buffers ×B, bandwidth ×1).
//!
//! Claims: (i) the paper's algorithms emulate in the restricted model with
//! a factor-`B` slowdown; (ii) therefore increasing *buffering alone* still
//! buys a `≈ D^{1−1/B}` speedup on worst-case instances — superlinear
//! benefit without any extra wire bandwidth.

use wormhole_baselines::greedy_wormhole::greedy_wormhole;
use wormhole_core::firstfit::{first_fit, FirstFitOrder};
use wormhole_core::pipeline::adaptive_min_colors;
use wormhole_core::schedule::ColorSchedule;
use wormhole_flitsim::restricted;
use wormhole_topology::lowerbound::build;

use crate::cells;
use crate::table::{fnum, Table};

/// Every instance here routes its own paths over its own graph.
const ROUTED: &str = "the instance's paths run over its graph";

/// Runs E8.
pub fn run(fast: bool) -> Vec<Table> {
    let target_d = if fast { 21 } else { 41 };
    let net = build(1, target_d, 2, false);
    let d = net.dilation;
    let l = 2 * d;

    let mut t = Table::new(
        format!(
            "E8 — restricted model (1 flit/step/channel) on the worst case (C={}, D={d}, L={l})",
            net.congestion()
        ),
        &[
            "B (buffers)",
            "full-bw scheduled T",
            "restricted scheduled T",
            "restricted/full (≈B)",
            "buffer-only speedup vs B=1",
            "paper pred D^(1-1/B)",
        ],
    );
    let bs: &[u32] = if fast { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let mut restricted_b1 = 0u64;
    for &b in bs {
        let coloring = {
            let ff = first_fit(&net.paths, &net.graph, b, FirstFitOrder::Input);
            match adaptive_min_colors(&net.paths, &net.graph, b, 31 + b as u64, 64) {
                Some(rep) if rep.coloring.num_colors() < ff.num_colors() => rep.coloring,
                _ => ff,
            }
        };
        // Restricted schedule spacing: each class still has multiplex ≤ B
        // but shares 1 flit/step of bandwidth per edge, so a class needs up
        // to B·L + D steps; space classes by B·(L+D−1) (the emulation's
        // factor-B slowdown).
        let full_sched = ColorSchedule::new(coloring.clone(), l, d);
        let full = full_sched
            .execute_checked(&net.graph, &net.paths, l, b)
            .total_steps;
        let restricted_sched = ColorSchedule {
            coloring,
            spacing: b as u64 * ColorSchedule::paper_spacing(l, d),
        };
        let specs = restricted_sched.to_specs(&net.paths, l);
        let run = restricted::run(&net.graph, &specs, b).expect(ROUTED);
        assert_eq!(
            run.outcome,
            wormhole_flitsim::stats::Outcome::Completed,
            "restricted schedule failed"
        );
        let restricted = run.total_steps;
        if b == 1 {
            restricted_b1 = restricted;
        }
        t.row(&cells!(
            b,
            full,
            restricted,
            fnum(restricted as f64 / full as f64),
            fnum(restricted_b1 as f64 / restricted as f64),
            fnum((d as f64).powf(1.0 - 1.0 / b as f64))
        ));
    }
    t.note("restricted/full stays ≤ B (claim R6's emulation); the buffer-only speedup column grows ≈ D^{1−1/B}: more buffers alone already beat linear scaling on this instance.");

    // Sanity companion: greedy in both models.
    let mut t2 = Table::new(
        "E8b — greedy routing under both bandwidth models",
        &["B", "full-bw greedy T", "restricted greedy T", "ratio"],
    );
    for &b in bs {
        let full = greedy_wormhole(&net.graph, &net.paths, l, b, 5).total_steps;
        // Seed 5 is the full-bandwidth greedy's random arbitration; the
        // restricted stepper serves worms in rotating token order —
        // deterministic, nothing to seed.
        let specs = wormhole_flitsim::message::specs_from_paths(&net.paths, l);
        let restricted = restricted::run(&net.graph, &specs, b).expect(ROUTED);
        t2.row(&cells!(
            b,
            full,
            restricted.total_steps,
            fnum(restricted.total_steps as f64 / full as f64)
        ));
    }
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_emulation_slowdown_at_most_b_plus_slack() {
        let tables = run(true);
        let s = tables[0].render();
        for row in s.lines().filter(|r| r.starts_with('|')).skip(2) {
            let cols: Vec<&str> = row.split('|').map(str::trim).collect();
            if cols.len() < 7 {
                continue;
            }
            if let (Ok(b), Ok(ratio)) = (cols[1].parse::<f64>(), cols[4].parse::<f64>()) {
                assert!(
                    ratio <= b * 1.5 + 0.5,
                    "restricted slowdown {ratio} way past B={b}: {row}"
                );
            }
        }
    }
}
