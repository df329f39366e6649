//! What the engines *did* on a saturated minimal-adaptive tornado torus:
//! prints [`SimResult::engine_stats`] — parks, contests, waiters entered
//! and won, pending heads entered and, of those, selected one at a time
//! rather than entered with a run — for the event engine and one
//! parallel worker, beside what was simulated. The defaults are the inputs of the
//! benchmark's `torus_adaptive_saturated` workload at `--seed 1` (16×16
//! adaptive-escape torus, tornado at rate 0.10, `L` = 8, `B` = 2, window
//! 300, random arbitration, eight slab regions, the same seed
//! derivation), so its counters can be read without editing any source.
//!
//! ```text
//! cargo run --release --example adaptive_engine_stats [-- SEED [RADIX [RATE [WINDOW]]]]
//! ```

use wormhole_routing::prelude::*;

/// The benchmark's seed derivation: stream `salt` of `seed`.
fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn arg<T: std::str::FromStr>(i: usize, default: T) -> T {
    match std::env::args().nth(i) {
        Some(a) => a.parse().unwrap_or_else(|_| {
            eprintln!("usage: adaptive_engine_stats [SEED [RADIX [RATE [WINDOW]]]]");
            std::process::exit(2)
        }),
        None => default,
    }
}

fn main() {
    let (seed, radix, rate, window) =
        (arg(1, 1u64), arg(2, 16u32), arg(3, 0.10f64), arg(4, 300u64));
    let substrate = Substrate::torus_with(radix, 2, RoutingDiscipline::AdaptiveEscape);
    let workload = Workload::new(
        substrate.clone(),
        TrafficPattern::Tornado,
        ArrivalProcess::bernoulli(rate),
        8,
        derive(seed, 1),
    );
    let specs = workload.generate(window);
    let ol = OpenLoopConfig::new(window / 4, window - window / 4);
    let router = substrate.as_mesh().expect("a torus routes adaptively");
    println!(
        "{radix}x{radix} adaptive-escape torus, tornado at {rate}, window {window}, seed {seed}: \
         {} messages\n",
        specs.len()
    );
    for engine in [Engine::EventDriven, Engine::Parallel { threads: 1 }] {
        let config = SimConfig::new(2)
            .seed(derive(seed, 2))
            .route_selection(RouteSelection::MinimalAdaptive)
            .arbitration(Arbitration::Random)
            .regions(substrate.region_plan(8))
            .engine(engine);
        let r = run_open_loop(substrate.graph(), Some(router), &specs, &config, &ol);
        println!(
            "{engine:?}: {:?} after {} steps, {} flit-hops, {} stalls, {} escape fallbacks",
            r.outcome, r.total_steps, r.flit_hops, r.total_stalls, r.escape_fallbacks
        );
        let stats = r.engine_stats.expect("the event driver counts");
        println!(
            "  pending heads selected one at a time: {} of {} entered",
            stats.pending_selected, stats.pending_entered
        );
        println!("  {stats:?}\n");
    }
}
