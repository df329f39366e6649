//! Where the time of the event engine and of one parallel worker goes,
//! phase by phase, on the inputs of the benchmark's closed-loop and
//! torus workloads: prints each phase's share of the probed run time
//! ([`wormhole_routing::flitsim::probe`]) for `butterfly_closed_loop`,
//! `torus_uniform_light`, `torus_uniform_saturated` and
//! `torus_adaptive_saturated`, built from their constants and the
//! benchmark's seed derivation (`--seed 1` by default), each run `REPS`
//! times (5 by default) and summed — one table for
//! `Engine::EventDriven`, one for `Engine::Parallel { threads: 1 }`,
//! whose window loop runs on the calling thread and whose work between
//! windows is the `merge` row. Under each table it prints each
//! workload's [`EngineStats`] — exact counts, the same on any host, so a
//! before / after needs no quiet machine: steps executed, worms stepped,
//! drains filed on the wheel, parks, contests, waiters entered and won,
//! pending heads entered and, of those, selected one at a time (the same
//! on both engines), and the parallel
//! coordinator's windows, the steps they covered, one-step windows and
//! hand-offs.
//!
//! ```text
//! cargo run --release --features phase-probe --example phase_shares [-- SEED [REPS]]
//! ```
//!
//! The laps themselves cost time; compare shares, not absolute times,
//! and compare them between two builds probed alike.

use wormhole_routing::flitsim::probe::{self, Phase, PhaseTimes};
use wormhole_routing::flitsim::stats::EngineStats;
use wormhole_routing::prelude::*;

/// One workload's probed phases, summed over its runs, and the
/// engine's counters of one of them.
type Probed = (PhaseTimes, EngineStats);

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

fn arg(i: usize, default: u64) -> u64 {
    match std::env::args().nth(i) {
        Some(a) => a.parse().unwrap_or_else(|_| {
            eprintln!("usage: phase_shares [SEED [REPS]]");
            std::process::exit(2)
        }),
        None => default,
    }
}

/// The benchmark's simulator config on `substrate` under `engine`, step
/// cap from `ol`.
fn config(substrate: &Substrate, seed: u64, ol: &OpenLoopConfig, engine: Engine) -> SimConfig {
    SimConfig::new(2)
        .engine(engine)
        .seed(derive(seed, 2))
        .regions(substrate.region_plan(8))
        .max_steps(ol.step_cap())
}

/// `butterfly_closed_loop`: 128 clients and 128 servers on butterfly(8),
/// pooled VCs, horizon 5 000.
fn closed_loop(seed: u64, reps: u64, engine: Engine) -> Probed {
    let substrate = Substrate::butterfly(8);
    let cl = ClosedLoopConfig {
        clients: 128,
        servers: 128,
        window: 4,
        req_len: 2,
        reply_len: 8,
        think: (4, 32),
        server_delay: (2, 10),
        start_spread: 32,
        horizon: 5_000,
        seed: derive(seed, 3),
    };
    let ol = OpenLoopConfig::new(1_250, 3_750);
    let cfg = config(&substrate, seed, &ol, engine).vc_policy(VcPolicy::pooled(4, 1, 4));
    let mut probed = Probed::default();
    for _ in 0..reps {
        let mut source = ClosedLoopSource::new(&substrate, &cl);
        let result = wormhole_run_source(substrate.graph(), &mut source, &cfg);
        add(&mut probed, &result);
    }
    probed
}

/// The counters the table shows, in its row order; the coordinator's
/// last four are zero on the event engine.
fn counts(s: &EngineStats) -> [(&'static str, u64); 13] {
    [
        ("steps executed", s.steps_executed),
        ("worms stepped", s.worms_stepped),
        ("drains", s.drains),
        ("parks", s.parks),
        ("contests", s.contests),
        ("waiters entered", s.waiters_entered),
        ("waiters won", s.waiters_won),
        ("pending entered", s.pending_entered),
        ("pending selected", s.pending_selected),
        ("windows", s.windows),
        ("window steps", s.window_steps),
        ("one-step windows", s.one_step_windows),
        ("hand-offs", s.handoffs),
    ]
}

/// Adds the laps of the run that produced `result` to `probed`, and
/// keeps its counters.
fn add(probed: &mut Probed, result: &SimResult) {
    probed.0 += probe::take();
    probed.1 = result.engine_stats.expect("both engines count");
}

/// A windowed torus workload: 16×16, `L` = 8, random arbitration.
fn torus(
    seed: u64,
    reps: u64,
    engine: Engine,
    pattern: TrafficPattern,
    rate: f64,
    window: u64,
) -> Probed {
    let adaptive = pattern == TrafficPattern::Tornado;
    let discipline = if adaptive {
        RoutingDiscipline::AdaptiveEscape
    } else {
        RoutingDiscipline::DatelineClasses
    };
    let substrate = Substrate::torus_with(16, 2, discipline);
    let arrivals = ArrivalProcess::bernoulli(rate);
    let workload = Workload::new(substrate.clone(), pattern, arrivals, 8, derive(seed, 1));
    let specs = workload.generate(window);
    let ol = OpenLoopConfig::new(window / 4, window - window / 4);
    let mut cfg = config(&substrate, seed, &ol, engine).arbitration(Arbitration::Random);
    let mut router = None;
    if adaptive {
        cfg = cfg.route_selection(RouteSelection::MinimalAdaptive);
        router = Some(substrate.as_mesh().expect("a torus routes adaptively") as _);
    }
    let mut probed = Probed::default();
    for _ in 0..reps {
        let result = wormhole_simulate(substrate.graph(), router, Traffic::Specs(&specs), &cfg)
            .expect("the benchmark's inputs are well formed");
        add(&mut probed, &result);
    }
    probed
}

/// The four workloads on `engine`.
fn probe_all(seed: u64, reps: u64, engine: Engine) -> [(&'static str, Probed); 4] {
    [
        ("butterfly_closed_loop", closed_loop(seed, reps, engine)),
        (
            "torus_uniform_light",
            torus(
                seed,
                reps,
                engine,
                TrafficPattern::UniformRandom,
                0.03,
                14_000,
            ),
        ),
        (
            "torus_uniform_saturated",
            torus(
                seed,
                reps,
                engine,
                TrafficPattern::UniformRandom,
                0.06,
                3_000,
            ),
        ),
        (
            "torus_adaptive_saturated",
            torus(seed, reps, engine, TrafficPattern::Tornado, 0.10, 300),
        ),
    ]
}

/// The header row of a table over `runs`.
fn header(first: &str, runs: &[(&str, Probed)]) {
    print!("| {first} |");
    for (name, _) in runs {
        print!(" {name} |");
    }
    print!("\n|---|");
    println!("{}", "---:|".repeat(runs.len()));
}

/// The phase-share table and the counter table of `engine`'s runs.
fn tables(engine: &str, seed: u64, reps: u64, runs: &[(&str, Probed)]) {
    println!("{engine}, seed {seed}, {reps} runs each: % of the probed time\n");
    header("phase", runs);
    for phase in Phase::ALL {
        print!("| {} |", phase.name());
        for (_, (times, _)) in runs {
            print!(" {:.1} |", 100.0 * times.share(phase));
        }
        println!();
    }
    print!("| probed ms a run |");
    for (_, (times, _)) in runs {
        print!(" {:.2} |", times.total().as_secs_f64() * 1e3 / reps as f64);
    }
    println!("\n\n{engine} counters, one run each\n");
    header("counter", runs);
    let counts: Vec<[(&str, u64); 13]> = runs.iter().map(|(_, (_, s))| counts(s)).collect();
    for row in 0..counts[0].len() {
        print!("| {} |", counts[0][row].0);
        for run in &counts {
            print!(" {} |", run[row].1);
        }
        println!();
    }
    println!();
}

fn main() {
    let (seed, reps) = (arg(1, 1), arg(2, 5));
    let event = probe_all(seed, reps, Engine::EventDriven);
    tables("event engine", seed, reps, &event);
    let one_worker = probe_all(seed, reps, Engine::Parallel { threads: 1 });
    tables("one parallel worker", seed, reps, &one_worker);
}
