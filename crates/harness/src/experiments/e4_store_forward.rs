//! E4 — §1.3.2 contrast (Ranade et al.): on the `B=1` worst-case instance,
//! store-and-forward routing (`O(L(C+D))` flit steps) beats wormhole
//! routing (`Ω(LCD)` flit steps) — buffering whole messages pays when
//! worms would otherwise weave every pair through a shared edge.

use wormhole_baselines::greedy_wormhole::greedy_wormhole;
use wormhole_baselines::store_forward::{farthest_first_store_forward, greedy_store_forward};
use wormhole_core::bounds::{general_lower_bound, store_forward_bound};
use wormhole_topology::lowerbound::build;

use crate::cells;
use crate::table::{fnum, Table};

/// The instance routes its own paths over its own graph.
const ROUTED: &str = "the instance's paths run over its graph";

/// Runs E4.
pub fn run(fast: bool) -> Vec<Table> {
    // Large replication: the contrast LCD vs L(C+D) needs C ≫ 1 to show
    // (at C = O(1) and L = 2D both sides are Θ(D²)).
    let reps = 16;
    let dvals: &[u32] = if fast { &[21, 41] } else { &[41, 81, 161, 241] };
    let mut t = Table::new(
        "E4 — store-and-forward vs wormhole at B=1 on the Thm 2.2.1 instance (L = 2D, C = 32)",
        &[
            "D",
            "C",
            "M",
            "wormhole greedy (flit steps)",
            "S&F greedy (flit steps)",
            "S&F farthest-first",
            "wormhole bound LCD",
            "S&F bound L(C+D)",
            "wormhole/S&F",
        ],
    );
    for &d in dvals {
        let net = build(1, d, reps, false);
        let l = 2 * net.dilation;
        let worm = greedy_wormhole(&net.graph, &net.paths, l, 1, 3).total_steps;
        let sf = greedy_store_forward(&net.graph, &net.paths).expect(ROUTED);
        let sf_ff = farthest_first_store_forward(&net.graph, &net.paths).expect(ROUTED);
        let sf_flits = sf.flit_steps(l);
        t.row(&cells!(
            net.dilation,
            net.congestion(),
            net.num_messages(),
            worm,
            sf_flits,
            sf_ff.flit_steps(l),
            fnum(general_lower_bound(l, net.congestion(), net.dilation, 1)),
            fnum(store_forward_bound(l, net.congestion(), net.dilation)),
            fnum(worm as f64 / sf_flits as f64)
        ));
    }
    t.note("The wormhole/S&F ratio grows with D: wormhole pays Θ(D) more on this instance, exactly the paper's point that store-and-forward can beat B=1 wormhole.");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_store_forward_wins() {
        let tables = run(true);
        let s = tables[0].render();
        for row in s.lines().filter(|l| l.starts_with('|')).skip(2) {
            let cols: Vec<&str> = row.split('|').map(str::trim).collect();
            if cols.len() < 10 || cols[1].parse::<u32>().is_err() {
                continue;
            }
            let ratio: f64 = cols[9]
                .parse()
                .expect("column 9 (wormhole/store-and-forward ratio) is a number");
            assert!(ratio > 1.0, "wormhole should be slower: {row}");
        }
    }
}
