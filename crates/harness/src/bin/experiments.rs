//! CLI that regenerates the paper's tables and figures.
//!
//! ```text
//! experiments all            # every experiment, full-size sweeps
//! experiments e1 e3          # selected experiments
//! experiments --fast all     # reduced sweeps (CI-sized)
//! ```
//!
//! Each id prints [`wormhole_harness::render`] under its heading, on the
//! default engine; `tests/experiment_goldens.rs` holds the fast output
//! of every id to `tests/golden/` under every engine.
//!
//! Timing lives in `crates/perfbench`, not here.

use std::time::Instant;

use wormhole_flitsim::config::Engine;
use wormhole_harness::{all_ids, render};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let ids: Vec<String> = args.into_iter().filter(|a| a != "--fast").collect();
    let ids: Vec<String> = if ids.is_empty() || ids.iter().any(|a| a == "all") {
        all_ids().iter().map(|s| s.to_string()).collect()
    } else {
        ids
    };

    println!("# Wormhole virtual-channel reproduction — experiment report");
    println!(
        "\nMode: {} | seeds fixed | times in flit steps unless noted\n",
        if fast { "fast" } else { "full" }
    );
    let t0 = Instant::now();
    for id in &ids {
        let started = Instant::now();
        match render(id, fast, Engine::EventDriven) {
            Some(text) => {
                println!("\n---\n\n## Experiment {}\n", id.to_uppercase());
                print!("{text}");
                eprintln!("[{id}] done in {:.1?}", started.elapsed());
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                std::process::exit(2);
            }
        }
    }
    eprintln!("total: {:.1?}", t0.elapsed());
}
