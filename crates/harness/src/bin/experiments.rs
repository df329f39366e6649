//! CLI that regenerates the paper's tables and figures.
//!
//! ```text
//! experiments all            # every experiment, full-size sweeps
//! experiments e1 e3          # selected experiments
//! experiments --fast all     # reduced sweeps (CI-sized)
//! experiments --threads 2 x13  # x13 with a single-entry worker ladder
//! ```
//!
//! Timing lives in `crates/perfbench`, not here.

use std::time::Instant;

use wormhole_harness::experiments::{all_ids, run_by_id, x13_parallel};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    // `--threads N` narrows x13's worker ladder to a single entry (the
    // CI smoke run uses `--threads 4`); other experiments ignore it.
    let threads: Option<u32> = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads takes a positive integer"));
    let mut skip_next = false;
    let ids: Vec<String> = args
        .into_iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if a == "--threads" {
                skip_next = true;
                return false;
            }
            a != "--fast"
        })
        .collect();
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
        let result = match threads {
            Some(n) if id == "x13" => Some((String::new(), x13_parallel::run_with(fast, &[n]))),
            _ => run_by_id(id, fast),
        };
        match result {
            Some((preamble, tables)) => {
                println!("\n---\n\n## Experiment {}\n", id.to_uppercase());
                if !preamble.is_empty() {
                    println!("{preamble}");
                }
                for t in &tables {
                    println!("{}", t.render());
                }
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
