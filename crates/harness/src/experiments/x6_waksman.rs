//! X6 (extension) — Waksman's Beneš routing (§1.3.3): with global
//! knowledge of the permutation, switch settings give edge-disjoint paths
//! and wormhole routing needs `2·log n + L − 1` flit steps exactly, zero
//! stalls, zero virtual channels. The §3.1 randomized online algorithm and
//! greedy one-pass routing are the comparison arms — the paper's
//! offline/online trade-off, measured.

use wormhole_baselines::greedy_wormhole::one_pass_butterfly;
use wormhole_core::butterfly::algorithm::{route_q_relation, AlgoParams};
use wormhole_core::butterfly::relation::QRelation;
use wormhole_flitsim::config::{Engine, SimConfig};
use wormhole_flitsim::message::specs_from_paths;
use wormhole_flitsim::stats::Outcome;
use wormhole_flitsim::wormhole;
use wormhole_topology::benes::BenesNetwork;
use wormhole_topology::butterfly::Butterfly;
use wormhole_topology::random_nets::random_permutation;

use crate::cells;
use crate::table::Table;

/// Runs X6, its Waksman arm on `engine`.
pub fn run(fast: bool, engine: Engine) -> Vec<Table> {
    let ks: &[u32] = if fast { &[5, 6] } else { &[6, 8, 10] };
    let mut t = Table::new(
        "X6 — offline Waksman/Beneš vs online algorithms on random permutations (L = log n)",
        &[
            "n",
            "Waksman T (=2logn+L-1)",
            "Waksman stalls",
            "Waksman C",
            "greedy 1-pass T (B=2)",
            "§3.1 online T (B=2)",
        ],
    );
    for &k in ks {
        let n = 1u32 << k;
        let l = k;
        let perm = random_permutation(n, 17 + k as u64);

        // Offline gold standard: conflict-free Beneš paths, B = 1.
        let net = BenesNetwork::new(k);
        let paths = net.route(&perm);
        assert_eq!(paths.congestion(net.graph()), 1);
        let specs = specs_from_paths(&paths, l);
        let wak = wormhole::run(net.graph(), &specs, &SimConfig::new(1).engine(engine));
        assert_eq!(wak.outcome, Outcome::Completed);

        // Online arms on the plain butterfly.
        let rel = QRelation {
            n,
            q: 1,
            pairs: (0..n).map(|i| (i, perm[i as usize])).collect(),
        };
        let bf = Butterfly::new(k);
        let (greedy, _) = one_pass_butterfly(&bf, &rel, l, 2, 23);
        let online = route_q_relation(k, &rel, &AlgoParams::new(2, l, 29));
        assert!(online.all_delivered);

        t.row(&cells!(
            n,
            wak.total_steps,
            wak.total_stalls,
            paths.congestion(net.graph()),
            greedy.total_steps,
            online.flit_steps
        ));
    }
    t.note("Waksman achieves the conflict-free optimum (2·log n + L − 1, zero stalls, B=1) but needs the whole permutation up front; the online §3.1 algorithm pays a log^{1/B} n·loglog factor for locality — the paper's offline/online gap, measured.");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x6_waksman_is_exact_and_stall_free() {
        let tables = run(true, Engine::EventDriven);
        let s = tables[0].render();
        for row in s.lines().filter(|r| r.starts_with('|')).skip(2) {
            let cols: Vec<&str> = row.split('|').map(str::trim).collect();
            if cols.len() < 7 {
                continue;
            }
            if let (Ok(n), Ok(t), Ok(stalls)) = (
                cols[1].parse::<u32>(),
                cols[2].parse::<u64>(),
                cols[3].parse::<u64>(),
            ) {
                let k = n.trailing_zeros() as u64;
                assert_eq!(t, 2 * k + k - 1, "Waksman time exact: {row}");
                assert_eq!(stalls, 0, "Waksman must be conflict-free: {row}");
            }
        }
    }
}
