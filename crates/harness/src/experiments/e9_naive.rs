//! E9 — footnote 5: the naive conflict-free coloring (`≤ D(C−1)+1`
//! classes, `O((L+D)CD)` flit steps) versus `adaptive_min_colors` (one
//! Case-1 split search plus compaction, no staging) and first-fit. The
//! naive schedule's class count grows with `D`; the B-bounded schedules'
//! counts do not.

use wormhole_baselines::naive_coloring::{naive_color_bound, naive_coloring};
use wormhole_core::firstfit::{first_fit, FirstFitOrder};
use wormhole_core::pipeline::adaptive_min_colors;
use wormhole_topology::random_nets::LeveledNet;

use crate::cells;
use crate::table::Table;

/// Runs E9.
pub fn run(fast: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E9 — naive conflict-free coloring vs B-bounded colorings (random leveled nets)",
        &[
            "D",
            "C",
            "msgs",
            "κ naive",
            "naive bound D(C-1)+1",
            "κ first-fit (B=2)",
            "κ LLL (B=2)",
            "naive/best-bounded",
        ],
    );
    let depths: &[u32] = if fast { &[8, 16] } else { &[8, 16, 32, 64] };
    for &depth in depths {
        let net = LeveledNet::random(depth, 8, 2, depth as u64);
        let msgs = if fast { 48 } else { 96 };
        let ps = net.random_walk_paths(msgs, depth as u64 + 1);
        let g = net.graph();
        let c = ps.congestion(g);
        let naive = naive_coloring(&ps, g);
        let ff = first_fit(&ps, g, 2, FirstFitOrder::Input);
        let lll = adaptive_min_colors(&ps, g, 2, 3, 64).expect("refinement failed");
        let best = ff.num_colors().min(lll.coloring.num_colors());
        let ratio = naive.num_colors() as f64 / best as f64;
        t.row(&cells!(
            depth,
            c,
            msgs,
            naive.num_colors(),
            naive_color_bound(c, depth),
            ff.num_colors(),
            lll.coloring.num_colors(),
            format!("{ratio:.2}")
        ));
    }
    t.note("The naive/LLL gap widens with D — the naive schedule pays the Θ(D) factor the theorem removes.");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_naive_never_beats_bounded() {
        let tables = run(true);
        let s = tables[0].render();
        for row in s.lines().filter(|r| r.starts_with('|')).skip(2) {
            let cols: Vec<&str> = row.split('|').map(str::trim).collect();
            if cols.len() < 9 || cols[1].parse::<u32>().is_err() {
                continue;
            }
            let naive: u32 = cols[4]
                .parse()
                .expect("column 4 (naive class count) is an integer");
            let lll: u32 = cols[7]
                .parse()
                .expect("column 7 (LLL class count at B=2) is an integer");
            assert!(naive >= lll, "naive should use ≥ classes: {row}");
        }
    }
}
