//! §1.4's fixed-buffer thought experiment, run for real: a `B`-flit buffer
//! per edge spent as B virtual channels versus as one B-flit virtual
//! cut-through buffer, on the instance where the difference is starkest.
//!
//! ```text
//! cargo run --release --example vct_vs_vc
//! ```

use wormhole_baselines::cut_through::vct_as_short_wormhole;
use wormhole_baselines::greedy_wormhole::greedy_wormhole;
use wormhole_core::bounds::superlinear_speedup;
use wormhole_routing::prelude::*;
use wormhole_topology::lowerbound::build;

fn main() {
    // The B=1 worst case: every pair of base messages shares an edge.
    let net = build(1, 41, 2, false);
    let d = net.dilation;
    let l = 2 * d;
    println!(
        "Worst-case instance: C = {}, D = {d}, L = {l}, {} messages\n",
        net.congestion(),
        net.num_messages()
    );

    let base = greedy_wormhole(&net.graph, &net.paths, l, 1, 1).total_steps;
    println!("Budget-free baseline (1 VC, 1-flit buffer): {base} flit steps\n");

    println!(
        "{:>8} | {:>14} | {:>10} | {:>14} | {:>10} | {:>12}",
        "budget B", "VC wormhole", "VC speedup", "VCT (=L/B worm)", "VCT speedup", "paper pred"
    );
    println!("{}", "-".repeat(84));
    for b in [2u32, 4, 8] {
        // Spend the budget as B virtual channels...
        let ff = first_fit(&net.paths, &net.graph, b, FirstFitOrder::Input);
        let best = match adaptive_min_colors(&net.paths, &net.graph, b, 3 + b as u64, 64) {
            Some(rep) if rep.coloring.num_colors() < ff.num_colors() => rep.coloring,
            _ => ff,
        };
        let sched = ColorSchedule::new(best, l, d);
        let vc = sched
            .execute_checked(&net.graph, &net.paths, l, b)
            .total_steps;
        // ...or as one B-flit single-message buffer (VCT ≈ wormhole with
        // L/B superflits at the same channel rate).
        let ct = vct_as_short_wormhole(&net.graph, &net.paths, l, b, 1)
            .expect("the instance's paths run over its graph")
            .total_steps;
        println!(
            "{:>8} | {:>14} | {:>10.1} | {:>14} | {:>11.1} | {:>11.1}x",
            b,
            vc,
            base as f64 / vc as f64,
            ct,
            base as f64 / ct as f64,
            superlinear_speedup(d, b)
        );
    }
    println!(
        "\nSame silicon, different spending: virtual channels turn the buffer\n\
         budget into a superlinear speedup (≈ B·D^(1-1/B)); cut-through\n\
         buffering stays ≈ linear. This is the paper's design message."
    );
}
