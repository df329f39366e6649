//! E1 — Theorem 2.1.6: schedule length scales as `C·(D log D)^{1/B}/B`
//! color classes.
//!
//! Sweeps `B` on a fixed controlled-(C, D) instance and `D` at fixed `B`,
//! reporting the class counts of `adaptive_min_colors` and first-fit
//! against the theorem's formula, plus the executed (zero-stall) makespan.
//! `adaptive_min_colors` runs one Case-1 split search, from the trivial
//! coloring straight to multiplex ≤ `B`, then a first-fit compaction. The
//! paper's staged run (Case 3, Case 2, then Case 1) was measured against
//! it, including at `C > D` where the staging is meant to help, and never
//! gave fewer classes, so it was removed (ROADMAP, item 13 and *Measured,
//! on file*).

use wormhole_core::bounds::{general_upper_bound, general_upper_bound_colors};
use wormhole_core::firstfit::{first_fit, FirstFitOrder};
use wormhole_core::pipeline::adaptive_min_colors;
use wormhole_core::schedule::ColorSchedule;
use wormhole_topology::random_nets::staggered_instance;

use crate::cells;
use crate::stats::power_law_exponent;
use crate::table::{fnum, Table};

/// Runs E1. `fast` shrinks the sweep for tests/benches.
pub fn run(fast: bool) -> Vec<Table> {
    let (c, d, l, msgs) = if fast {
        (8u32, 32u32, 8u32, 64u32)
    } else {
        (16, 128, 16, 384)
    };
    let (graph, paths) = staggered_instance(c, d, msgs);
    let c_meas = paths.congestion(&graph);
    let d_meas = paths.dilation();

    let mut t1 = Table::new(
        format!("E1a — color classes vs B (C={c_meas}, D={d_meas}, L={l}, {msgs} messages)"),
        &[
            "B",
            "κ first-fit",
            "κ LLL-adaptive",
            "κ formula C(DlogD)^{1/B}/B",
            "makespan (flit steps)",
            "bound (L+D)·κ_formula",
            "stalls",
        ],
    );
    let bs: &[u32] = if fast { &[1, 2, 4] } else { &[1, 2, 3, 4, 5] };
    for &b in bs {
        let ff = first_fit(&paths, &graph, b, FirstFitOrder::Input);
        let lll = adaptive_min_colors(&paths, &graph, b, 1000 + b as u64, 64)
            .expect("adaptive refinement failed");
        let best = if ff.num_colors() <= lll.coloring.num_colors() {
            ff.clone()
        } else {
            lll.coloring.clone()
        };
        let sched = ColorSchedule::new(best, l, d_meas);
        let run = sched.execute_checked(&graph, &paths, l, b);
        t1.row(&cells!(
            b,
            ff.num_colors(),
            lll.coloring.num_colors(),
            fnum(general_upper_bound_colors(c_meas, d_meas, b)),
            run.total_steps,
            fnum(general_upper_bound(l, c_meas, d_meas, b)),
            run.total_stalls
        ));
    }
    t1.note(
        "Schedules execute with zero stalls (the paper's guarantee); κ falls superlinearly in B.",
    );

    // D sweep at fixed B: fitted exponent of κ·B/C against (D·log D)
    // should approach 1/B.
    let mut t2 = Table::new(
        "E1b — κ vs D at fixed B (exponent fit)",
        &[
            "B",
            "D values",
            "κ values",
            "fitted exp of κ vs DlogD",
            "paper exp 1/B",
        ],
    );
    let dvals: &[u32] = if fast { &[16, 64] } else { &[32, 128, 512] };
    for &b in if fast { &[2u32][..] } else { &[2u32, 3][..] } {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut kappas = Vec::new();
        for &dv in dvals {
            let (g2, ps2) = staggered_instance(c, dv, msgs);
            let lll = adaptive_min_colors(&ps2, &g2, b, 2000 + dv as u64, 64)
                .expect("adaptive refinement failed");
            let ff = first_fit(&ps2, &g2, b, FirstFitOrder::Input);
            let kappa = lll.coloring.num_colors().min(ff.num_colors());
            xs.push(dv as f64 * (dv as f64).ln());
            ys.push(kappa as f64);
            kappas.push(kappa);
        }
        let exp = power_law_exponent(&xs, &ys);
        t2.row(&cells!(
            b,
            format!("{dvals:?}"),
            format!("{kappas:?}"),
            fnum(exp),
            fnum(1.0 / b as f64)
        ));
    }
    t2.note("κ is lower-bounded by ⌈C/B⌉ independent of D, so on benign instances the fit flattens toward 0; the exponent must sit in [0, 1/B].");

    // E1c: on the Thm 2.2.1 networks the optimal κ genuinely scales with D
    // (every B+1 base messages share an edge, so a B-bounded class holds at
    // most B bases and κ ≈ M'/B·reps = Θ(D^{1/B})). The fitted exponent of
    // κ against D should approach 1/B.
    let mut t3 = Table::new(
        "E1c — κ vs D on the worst-case (Thm 2.2.1) networks",
        &[
            "B",
            "D values",
            "κ values",
            "fitted exp of κ vs D",
            "paper exp 1/B",
        ],
    );
    let bs3: &[u32] = if fast { &[1, 2] } else { &[1, 2, 3] };
    for &b in bs3 {
        let dvals3: &[u32] = if fast {
            &[15, 31, 61]
        } else {
            &[31, 61, 121, 241]
        };
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut kappas = Vec::new();
        let mut ds = Vec::new();
        for &dv in dvals3 {
            let net = wormhole_topology::lowerbound::build(b, dv, 1, false);
            let ff = first_fit(&net.paths, &net.graph, b, FirstFitOrder::Input);
            let lll = adaptive_min_colors(&net.paths, &net.graph, b, 4000 + dv as u64, 64)
                .expect("adaptive refinement failed");
            let kappa = ff.num_colors().min(lll.coloring.num_colors());
            xs.push(net.dilation as f64);
            ys.push(kappa as f64);
            kappas.push(kappa);
            ds.push(net.dilation);
        }
        let exp = power_law_exponent(&xs, &ys);
        t3.row(&cells!(
            b,
            format!("{ds:?}"),
            format!("{kappas:?}"),
            fnum(exp),
            fnum(1.0 / b as f64)
        ));
    }
    t3.note("On worst-case instances the measured exponent tracks 1/B — the (D·)^{1/B} dependence of Thm 2.1.6 is real, not an artifact of the proof.");
    vec![t1, t2, t3]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_fast_runs_and_shapes_hold() {
        let tables = run(true);
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].num_rows(), 3);
        // Every schedule executed with zero stalls (last column).
        let s = tables[0].render();
        let mut kappas = Vec::new();
        for row in s.lines().filter(|l| l.starts_with('|')).skip(2) {
            let cols: Vec<&str> = row.split('|').map(str::trim).collect();
            if cols.len() >= 8 && cols[1].parse::<u32>().is_ok() {
                assert_eq!(cols[7], "0", "stall-free execution expected: {row}");
                kappas.push((cols[1], cols[2], cols[3]));
            }
        }
        // E1a's κ columns (B, first-fit, LLL-adaptive), the figures the
        // ROADMAP quotes: a change of RNG draw order moves the last one.
        let pinned = [("1", "8", "11"), ("2", "4", "5"), ("4", "2", "3")];
        assert_eq!(kappas, pinned);
        // E1c exponents land in (0, 1/B].
        let s3 = tables[2].render();
        for row in s3.lines().filter(|l| l.starts_with('|')).skip(2) {
            let cols: Vec<&str> = row.split('|').map(str::trim).collect();
            if cols.len() >= 6 {
                if let (Ok(b), Ok(exp)) = (cols[1].parse::<f64>(), cols[4].parse::<f64>()) {
                    assert!(exp > 0.0 && exp <= 1.0 / b + 0.25, "exponent off: {row}");
                }
            }
        }
    }
}
