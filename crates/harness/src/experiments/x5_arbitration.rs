//! X5 (extension, ablation) — header arbitration policies. The paper's
//! bounds are policy-agnostic (schedules never contend), but *greedy*
//! routing lives on arbitration. This ablation measures makespan and
//! latency fairness across the four policies the simulator supports.

use wormhole_flitsim::config::{Arbitration, Engine, SimConfig};
use wormhole_flitsim::message::specs_from_paths;
use wormhole_flitsim::wormhole;
use wormhole_topology::random_nets::LeveledNet;

use crate::cells;
use crate::stats::Summary;
use crate::table::{fnum, Table};

/// Runs X5 on `engine`.
pub fn run(fast: bool, engine: Engine) -> Vec<Table> {
    let (depth, width, msgs) = if fast {
        (10u32, 6u32, 80usize)
    } else {
        (20, 10, 320)
    };
    let net = LeveledNet::random(depth, width, 2, 21);
    let ps = net.random_walk_paths(msgs, 22);
    let l = 12u32;
    let (c, d) = (ps.congestion(net.graph()), ps.dilation());

    let mut t = Table::new(
        format!("X5 — arbitration ablation, greedy wormhole (C={c}, D={d}, L={l}, {msgs} msgs)"),
        &[
            "policy",
            "B",
            "makespan",
            "mean latency",
            "latency std (fairness)",
            "total stalls",
        ],
    );
    let policies = [
        ("FifoById", Arbitration::FifoById),
        ("Random", Arbitration::Random),
        ("OldestFirst", Arbitration::OldestFirst),
        ("PriorityRank", Arbitration::PriorityRank),
    ];
    for &b in if fast { &[2u32][..] } else { &[1u32, 2, 4][..] } {
        for (name, pol) in policies {
            let specs = specs_from_paths(&ps, l);
            let config = SimConfig::new(b).arbitration(pol).seed(5).engine(engine);
            let r = wormhole::run(net.graph(), &specs, &config);
            let lat: Vec<f64> = r
                .messages
                .iter()
                .map(|m| m.finished.unwrap() as f64)
                .collect();
            let s = Summary::of(&lat);
            t.row(&cells!(
                name,
                b,
                r.total_steps,
                fnum(s.mean),
                fnum(s.std),
                r.total_stalls
            ));
        }
    }
    t.note("All policies complete (leveled network); makespans sit within a small band — VC count, not arbitration, is the first-order effect, which is why the paper's analysis can ignore the policy.");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x5_policies_within_band() {
        let tables = run(true, Engine::EventDriven);
        let s = tables[0].render();
        let mut spans = Vec::new();
        for row in s.lines().filter(|r| r.starts_with('|')).skip(2) {
            let cols: Vec<&str> = row.split('|').map(str::trim).collect();
            if cols.len() >= 7 {
                if let Ok(t) = cols[3].parse::<u64>() {
                    spans.push(t);
                }
            }
        }
        assert_eq!(spans.len(), 4);
        let (min, max) = (*spans.iter().min().unwrap(), *spans.iter().max().unwrap());
        assert!(
            max as f64 <= min as f64 * 1.8,
            "policies should land within ~2x: {spans:?}"
        );
    }
}
