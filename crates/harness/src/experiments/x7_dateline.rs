//! X7 (extension) — Dally–Seitz deadlock avoidance (paper §1, citation
//! \[14\]): the *original* reason virtual channels exist.
//!
//! Two stages:
//!
//! 1. **Ring** — on a wrap-around ring, single-class wormhole routing
//!    deadlocks on rotation traffic; the two-class dateline scheme makes
//!    the channel-dependency graph acyclic and the same traffic completes.
//! 2. **Torus** — the same machinery generalized per dimension
//!    ([`wormhole_topology::mesh::RoutingDiscipline::DatelineClasses`]):
//!    tornado traffic wedges naive dimension-order tori of radix ≥ 5 into
//!    deadlock at `B = 1`, while the dateline discipline completes on
//!    1D/2D/3D tori. Both stages verify the Dally–Seitz acyclicity
//!    criterion through the shared
//!    [`wormhole_topology::dateline::channel_dependency_graph`].

use wormhole_flitsim::config::{Engine, SimConfig};
use wormhole_flitsim::message::specs_from_path_slice;
use wormhole_flitsim::stats::Outcome;
use wormhole_flitsim::wormhole;
use wormhole_topology::dateline::{channel_dependency_graph, rotation_paths, DatelineRing};
use wormhole_topology::graph::NodeId;
use wormhole_topology::mesh::{Mesh, RoutingDiscipline};
use wormhole_topology::path::Path;

use crate::cells;
use crate::table::Table;

/// Batch tornado paths on `mesh`: every node sends `⌈radix/2⌉ − 1` hops
/// forward in dimension 0, routed under the mesh's own discipline.
fn tornado_paths(mesh: &Mesh) -> Vec<Path> {
    let radix = mesh.radix();
    let off = radix.div_ceil(2) - 1;
    (0..mesh.num_nodes())
        .map(|s| {
            let d0 = s % radix;
            let dst = (s - d0) + (d0 + off) % radix;
            mesh.route(NodeId(s), NodeId(dst))
        })
        .collect()
}

fn outcome_cells(r: &wormhole_flitsim::stats::SimResult) -> (String, String) {
    match (&r.outcome, &r.deadlock) {
        (Outcome::Completed, _) => ("completed".to_string(), "-".to_string()),
        (Outcome::Deadlock(_), Some(rep)) => ("DEADLOCK".to_string(), rep.cycle.len().to_string()),
        (o, _) => (format!("{o:?}"), "-".to_string()),
    }
}

/// Runs X7 on `engine`.
pub fn run(fast: bool, engine: Engine) -> Vec<Table> {
    let l = 8u32;
    let mut tables = Vec::new();

    // Stage 1: the single unidirectional ring (rotation traffic).
    let radixes: &[u32] = if fast { &[6, 10] } else { &[6, 10, 16, 24] };
    let mut t = Table::new(
        "X7 — Dally–Seitz dateline VCs on a wrap-around ring (rotation traffic)",
        &[
            "ring size",
            "scheme",
            "dep. graph acyclic",
            "outcome",
            "flit steps",
            "deadlock cycle len",
        ],
    );
    for &n in radixes {
        let ring = DatelineRing::new(n);
        for (scheme, ds) in [("1 class (naive)", false), ("2 classes (dateline)", true)] {
            let paths = rotation_paths(&ring, n - 1, ds);
            let acyclic = channel_dependency_graph(ring.graph(), &paths).is_acyclic();
            let specs = specs_from_path_slice(&paths, l);
            let r = wormhole::run(ring.graph(), &specs, &SimConfig::new(1).engine(engine));
            let (outcome, cycle) = outcome_cells(&r);
            t.row(&cells!(n, scheme, acyclic, outcome, r.total_steps, cycle));
        }
    }
    t.note("Rotation traffic (every node sends n−1 hops forward) wedges the single-class ring into a full-cycle deadlock; the dateline split always completes. Acyclic dependency graph ⇒ deadlock-free (Dally–Seitz Thm 1).");
    tables.push(t);

    // Stage 2: the torus generalization (per-dimension datelines).
    let tori: &[(u32, u32)] = if fast {
        &[(8, 1), (5, 2)]
    } else {
        &[(8, 1), (5, 2), (8, 2), (5, 3)]
    };
    let mut t = Table::new(
        "X7 — per-dimension dateline classes on k-ary d-tori (tornado traffic, B = 1)",
        &[
            "torus",
            "discipline",
            "dep. graph acyclic",
            "outcome",
            "flit steps",
            "deadlock cycle len",
        ],
    );
    for &(radix, dims) in tori {
        for discipline in [RoutingDiscipline::Naive, RoutingDiscipline::DatelineClasses] {
            let mesh = Mesh::new_disciplined(radix, dims, discipline);
            let paths = tornado_paths(&mesh);
            let acyclic = channel_dependency_graph(mesh.graph(), &paths).is_acyclic();
            let specs = specs_from_path_slice(&paths, l);
            let r = wormhole::run(mesh.graph(), &specs, &SimConfig::new(1).engine(engine));
            let (outcome, cycle) = outcome_cells(&r);
            t.row(&cells!(
                format!("{radix}^{dims}"),
                discipline.name(),
                acyclic,
                outcome,
                r.total_steps,
                cycle
            ));
        }
    }
    t.note("Tornado (⌈k/2⌉−1 hops forward per dimension-0 ring) deadlocks every naive wrap ring at B=1; splitting each physical channel into two classes with a per-dimension dateline switch makes the dependency graph acyclic and the batch completes — the machinery Substrate::torus_with exposes to the open-loop workloads (x2).");
    tables.push(t);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x7_naive_deadlocks_dateline_completes() {
        let tables = run(true, Engine::EventDriven);
        assert_eq!(tables.len(), 2, "ring + torus stages");
        for (stage, s) in tables.iter().map(|t| t.render()).enumerate() {
            let mut saw_deadlock = false;
            let mut saw_completed = false;
            for row in s.lines().filter(|r| r.starts_with('|')).skip(2) {
                if row.contains("naive") {
                    assert!(row.contains("DEADLOCK"), "naive must deadlock: {row}");
                    assert!(row.contains("false"), "naive dep graph must be cyclic");
                    saw_deadlock = true;
                }
                if row.contains("dateline") {
                    assert!(row.contains("completed"), "dateline must complete: {row}");
                    assert!(row.contains("true"), "dateline dep graph must be acyclic");
                    saw_completed = true;
                }
            }
            assert!(
                saw_deadlock && saw_completed,
                "stage {stage} covers both arms"
            );
        }
    }

    #[test]
    fn x7_torus_batch_matches_x2_wiring() {
        // The batch tornado paths are exactly the routes the open-loop
        // substrate serves: same hop counts, same class structure.
        let mesh = Mesh::new_disciplined(5, 2, RoutingDiscipline::DatelineClasses);
        let paths = tornado_paths(&mesh);
        assert_eq!(paths.len() as u32, mesh.num_nodes());
        for p in &paths {
            assert_eq!(p.len(), 2, "tornado on radix 5 is 2 forward hops");
            p.validate(mesh.graph()).unwrap();
        }
    }
}
