//! The per-experiment runners (the README catalog is the index).

pub mod e1_upper_bound;
pub mod e2_superlinear;
pub mod e3_lower_bound;
pub mod e4_store_forward;
pub mod e5_butterfly;
pub mod e6_butterfly_lb;
pub mod e7_cut_through;
pub mod e8_restricted;
pub mod e9_naive;
pub mod figures;
pub mod x10_bounds;
pub mod x11_closed_loop;
pub mod x12_faults;
pub mod x13_parallel;
pub mod x1_circuit;
pub mod x2_open_loop;
pub mod x3_throughput;
pub mod x4_valiant;
pub mod x5_arbitration;
pub mod x6_waksman;
pub mod x7_dateline;
pub mod x8_adaptive;
pub mod x9_dynamic_vcs;

use wormhole_flitsim::config::Engine;

use crate::table::Table;

/// All experiment ids in report order.
pub fn all_ids() -> &'static [&'static str] {
    &[
        "f1", "f2", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "x1", "x2", "x3", "x4",
        "x5", "x6", "x7", "x8", "x9", "x10", "x11", "x12", "x13",
    ]
}

/// Runs one experiment by id; returns `(preamble text, tables)`.
/// `engine` drives every simulation the harness configures itself (x2–x12);
/// the other ids build no [`wormhole_flitsim::config::SimConfig`], and x13
/// compares engines of its own choosing. Unknown ids return `None`.
pub fn run_by_id(id: &str, fast: bool, engine: Engine) -> Option<(String, Vec<Table>)> {
    Some(match id {
        "e1" => (String::new(), e1_upper_bound::run(fast)),
        "e2" => (String::new(), e2_superlinear::run(fast)),
        "e3" => (String::new(), e3_lower_bound::run(fast)),
        "e4" => (String::new(), e4_store_forward::run(fast)),
        "e5" => (String::new(), e5_butterfly::run(fast)),
        "e6" => (String::new(), e6_butterfly_lb::run(fast)),
        "e7" => (String::new(), e7_cut_through::run(fast)),
        "e8" => (String::new(), e8_restricted::run(fast)),
        "e9" => (String::new(), e9_naive::run(fast)),
        "f1" => {
            let (art, tables) = figures::run_f1(fast);
            (format!("```\n{art}```\n"), tables)
        }
        "f2" => {
            let (trace, tables) = figures::run_f2(fast);
            (format!("```\n{trace}```\n"), tables)
        }
        "x1" => (String::new(), x1_circuit::run(fast)),
        "x2" => (String::new(), x2_open_loop::run(fast, engine)),
        "x3" => (String::new(), x3_throughput::run(fast, engine)),
        "x4" => (String::new(), x4_valiant::run(fast, engine)),
        "x5" => (String::new(), x5_arbitration::run(fast, engine)),
        "x6" => (String::new(), x6_waksman::run(fast, engine)),
        "x7" => (String::new(), x7_dateline::run(fast, engine)),
        "x8" => (String::new(), x8_adaptive::run(fast, engine)),
        "x9" => (String::new(), x9_dynamic_vcs::run(fast, engine)),
        "x10" => (String::new(), x10_bounds::run(fast, engine)),
        "x11" => (String::new(), x11_closed_loop::run(fast, engine)),
        "x12" => (String::new(), x12_faults::run(fast, engine)),
        "x13" => (String::new(), x13_parallel::run(fast)),
        _ => return None,
    })
}

/// Exactly what `experiments [--fast] <id>` prints under the experiment's
/// heading: the preamble, if any, then every table. Unknown ids return
/// `None`.
pub fn render(id: &str, fast: bool, engine: Engine) -> Option<String> {
    let (preamble, tables) = run_by_id(id, fast, engine)?;
    let mut out = String::new();
    if !preamble.is_empty() {
        out += &preamble;
        out.push('\n');
    }
    for t in &tables {
        out += &t.render();
        out.push('\n');
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for id in all_ids() {
            assert!(
                run_by_id(id, true, Engine::EventDriven).is_some(),
                "id {id} must run"
            );
        }
        assert!(render("nope", true, Engine::EventDriven).is_none());
    }
}
