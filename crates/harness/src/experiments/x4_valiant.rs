//! X4 (extension) — Valiant's two-phase trick (§1.3.3, \[47\]) on the
//! hypercube, and the VC-class requirement it drags in (Aiello et al. \[1\],
//! §1.3.4: bit-serial hypercube routing "requires the number of virtual
//! channels to be a small constant larger than one").
//!
//! Three arms on the transpose permutation (the `√n`-funnel adversary for
//! oblivious e-cube):
//!
//! * **e-cube, 1 class** — deadlock-free but congested;
//! * **Valiant, 1 class** — congestion fixed, but phase 2 re-enters low
//!   dimensions and the channel-dependency cycle **deadlocks** at `B = 1`;
//! * **Valiant, 2 classes** — phase 2 rides VC class 1: acyclic
//!   dependencies, deadlock-free at every `B`, and fast.

use wormhole_flitsim::config::{Arbitration, Engine, SimConfig};
use wormhole_flitsim::message::specs_from_paths;
use wormhole_flitsim::stats::Outcome;
use wormhole_flitsim::wormhole;
use wormhole_topology::hypercube::Hypercube;
use wormhole_topology::path::PathSet;

use crate::cells;
use crate::table::Table;

fn route(
    ps: &PathSet,
    g: &wormhole_topology::graph::Graph,
    l: u32,
    b: u32,
    engine: Engine,
) -> (String, u64) {
    let specs = specs_from_paths(ps, l);
    let config = SimConfig::new(b)
        .arbitration(Arbitration::Random)
        .seed(31)
        .max_steps(1_000_000)
        .engine(engine);
    let r = wormhole::run(g, &specs, &config);
    match r.outcome {
        Outcome::Completed => (r.total_steps.to_string(), r.total_steps),
        Outcome::Deadlock(_) => ("DEADLOCK".into(), u64::MAX),
        Outcome::MaxSteps => ("timeout".into(), u64::MAX),
    }
}

/// Runs X4 on `engine`.
pub fn run(fast: bool, engine: Engine) -> Vec<Table> {
    let dims: &[u32] = if fast { &[6] } else { &[6, 8, 10] };
    let l = 16u32;
    let mut t = Table::new(
        "X4 — transpose on the hypercube: e-cube vs Valiant, 1 vs 2 VC classes",
        &["n", "paths", "classes", "C", "D", "T B=1", "T B=2", "T B=4"],
    );
    for &dim in dims {
        let h1 = Hypercube::new(dim);
        let h2 = Hypercube::new_multiclass(dim, 2);
        let pairs1 = h1.transpose_pairs();
        let pairs2 = h2.transpose_pairs();
        let arms: [(&str, &Hypercube, PathSet); 3] = [
            ("e-cube", &h1, h1.ecube_paths(&pairs1)),
            ("Valiant", &h1, h1.valiant_paths(&pairs1, 31)),
            ("Valiant", &h2, h2.valiant_paths(&pairs2, 31)),
        ];
        for (name, h, ps) in arms {
            let c = ps.congestion(h.graph());
            let d = ps.dilation();
            let b1 = route(&ps, h.graph(), l, 1, engine);
            let b2 = route(&ps, h.graph(), l, 2, engine);
            let b4 = route(&ps, h.graph(), l, 4, engine);
            t.row(&cells!(
                1u32 << dim,
                name,
                h.classes(),
                c,
                d,
                b1.0,
                b2.0,
                b4.0
            ));
        }
    }
    t.note("Single-class Valiant deadlocks at B=1 (phase 2 re-enters low dimensions — the Aiello et al. observation); with a second VC class the dependency graph is acyclic and Valiant is both safe and fast. Congestion C falls from ≈√n (e-cube) to O(log n/loglog n)-ish under random intermediates.");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x4_single_class_valiant_deadlocks_two_class_completes() {
        let tables = run(true, Engine::EventDriven);
        let s = tables[0].render();
        let mut saw_deadlock = false;
        let mut ecube_b1 = None;
        let mut valiant2_b1 = None;
        for row in s.lines().filter(|r| r.starts_with('|')).skip(2) {
            let cols: Vec<&str> = row.split('|').map(str::trim).collect();
            if cols.len() < 9 {
                continue;
            }
            match (cols[2], cols[3]) {
                ("Valiant", "1") => {
                    assert_eq!(cols[6], "DEADLOCK", "1-class Valiant at B=1: {row}");
                    saw_deadlock = true;
                }
                ("Valiant", "2") => {
                    valiant2_b1 = cols[6].parse::<u64>().ok();
                }
                ("e-cube", _) => {
                    ecube_b1 = cols[6].parse::<u64>().ok();
                }
                _ => {}
            }
        }
        assert!(saw_deadlock);
        let (e, v) = (ecube_b1.unwrap(), valiant2_b1.unwrap());
        assert!(
            v < e,
            "2-class Valiant ({v}) should beat e-cube ({e}) at B=1"
        );
    }
}
