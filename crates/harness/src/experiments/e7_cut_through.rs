//! E7 — §1.4 fixed-buffer comparison: spending a `B`-flit-per-edge buffer
//! budget on **virtual channels** (B × 1-flit, multi-message) versus
//! **virtual cut-through** (1 × B-flit, single-message).
//!
//! Normalization (footnote 4): in the `B`-VC model one flit step moves `B`
//! flits across each physical channel. The equal-resource VCT router gets
//! the same channel rate, which is exactly the paper's observation that it
//! behaves like a **B=1 wormhole router with messages of length `L/B`**
//! (each "superflit" is `B` flits wide and crosses in one step). We run
//! that emulation as the VCT column, plus the bandwidth-restricted direct
//! VCT simulation (1 flit/step) for context.
//!
//! Paper prediction: VCT speedup ≈ linear in `B`; wormhole + VCs ≈
//! superlinear `B·D^{1−1/B}` on worst-case instances (claim R7).

use wormhole_baselines::cut_through::{vct, vct_as_short_wormhole};
use wormhole_baselines::greedy_wormhole::greedy_wormhole;
use wormhole_core::firstfit::{first_fit, FirstFitOrder};
use wormhole_core::pipeline::adaptive_min_colors;
use wormhole_core::schedule::ColorSchedule;
use wormhole_topology::lowerbound::build;
use wormhole_topology::random_nets::shared_chain_instance;

use crate::cells;
use crate::table::{fnum, Table};

/// Every instance here routes its own paths over its own graph.
const ROUTED: &str = "the instance's paths run over its graph";

/// Runs E7.
pub fn run(fast: bool) -> Vec<Table> {
    // Part 1: shared chain (C worms, one path) — the cleanest equal-budget
    // microbenchmark; both routers are bandwidth-bound here so both
    // speedups are ≈ linear, and the VCT ≈ L/B-wormhole equivalence is
    // directly visible.
    let (c, d) = if fast { (6u32, 24u32) } else { (8, 64) };
    let l = 2 * d;
    let (g, ps) = shared_chain_instance(c, d);
    let base = greedy_wormhole(&g, &ps, l, 1, 1).total_steps;
    let mut t1 = Table::new(
        format!("E7a — equal buffer budget on a shared chain (C={c}, D={d}, L={l})"),
        &[
            "budget B",
            "wormhole+VC T",
            "VC speedup",
            "VCT T (L/B wormhole)",
            "VCT speedup",
            "direct VCT, 1 flit/step",
        ],
    );
    let budgets: &[u32] = if fast { &[2, 4] } else { &[2, 4, 8] };
    for &b in budgets {
        let vc = greedy_wormhole(&g, &ps, l, b, 1).total_steps;
        let ct = vct_as_short_wormhole(&g, &ps, l, b, 1).expect(ROUTED);
        let ct = ct.total_steps;
        let ct_direct = vct(&g, &ps, l, b, 1).expect(ROUTED).total_steps;
        t1.row(&cells!(
            b,
            vc,
            fnum(base as f64 / vc as f64),
            ct,
            fnum(base as f64 / ct as f64),
            ct_direct
        ));
    }
    t1.note("Baseline: B=1 wormhole T. Both speedups are ≈ linear on a bandwidth-bound chain, as expected away from the worst case.");

    // Part 2: the Thm 2.2.1 worst case — virtual channels pull ahead
    // superlinearly while VCT stays ≈ linear.
    let target_d = if fast { 21 } else { 41 };
    let net = build(1, target_d, 2, false);
    let d2 = net.dilation;
    let l2 = 2 * d2;
    let base2 = greedy_wormhole(&net.graph, &net.paths, l2, 1, 2).total_steps;
    let mut t2 = Table::new(
        format!(
            "E7b — equal buffer budget on the worst-case instance (C={}, D={d2}, L={l2})",
            net.congestion()
        ),
        &[
            "budget B",
            "wormhole+VC scheduled T",
            "VC speedup",
            "VCT T (L/B wormhole)",
            "VCT speedup",
            "paper VC pred B·D^(1-1/B)",
        ],
    );
    for &b in budgets {
        let coloring = {
            let ff = first_fit(&net.paths, &net.graph, b, FirstFitOrder::Input);
            match adaptive_min_colors(&net.paths, &net.graph, b, 21 + b as u64, 64) {
                Some(rep) if rep.coloring.num_colors() < ff.num_colors() => rep.coloring,
                _ => ff,
            }
        };
        let sched = ColorSchedule::new(coloring, l2, d2);
        let vc = sched
            .execute_checked(&net.graph, &net.paths, l2, b)
            .total_steps;
        let ct = vct_as_short_wormhole(&net.graph, &net.paths, l2, b, 2).expect(ROUTED);
        let ct = ct.total_steps;
        t2.row(&cells!(
            b,
            vc,
            fnum(base2 as f64 / vc as f64),
            ct,
            fnum(base2 as f64 / ct as f64),
            fnum(wormhole_core::bounds::superlinear_speedup(d2, b))
        ));
    }
    t2.note("VC speedup exceeds the budget B (superlinear) and beats the VCT speedup, which stays ≈ linear. This is claim R7.");
    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_vc_beats_vct_on_worst_case() {
        let tables = run(true);
        let s = tables[1].render();
        let mut checked = 0;
        for row in s.lines().filter(|r| r.starts_with('|')).skip(2) {
            let cols: Vec<&str> = row.split('|').map(str::trim).collect();
            if cols.len() < 6 {
                continue;
            }
            if let (Ok(b), Ok(vc_speed), Ok(vct_speed)) = (
                cols[1].parse::<f64>(),
                cols[3].parse::<f64>(),
                cols[5].parse::<f64>(),
            ) {
                assert!(
                    vc_speed > vct_speed,
                    "VC should beat VCT at budget {b}: {row}"
                );
                assert!(vc_speed > b, "VC speedup should be superlinear: {row}");
                checked += 1;
            }
        }
        assert!(checked >= 2, "no data rows parsed");
    }
}
