//! Cross-crate integration: workload generation (topology) → coloring
//! (core) → schedule execution (flitsim) → baselines, end to end.

use wormhole_baselines::greedy_wormhole::greedy_wormhole;
use wormhole_baselines::naive_coloring::{naive_color_bound, naive_schedule};
use wormhole_baselines::store_forward::greedy_store_forward;
use wormhole_routing::prelude::*;
use wormhole_topology::lowerbound;
use wormhole_topology::random_nets::LeveledNet;

#[test]
fn pipeline_to_execution_on_random_networks() {
    for seed in 0..3u64 {
        let net = LeveledNet::random(12, 8, 2, seed);
        let paths = net.random_walk_paths(96, seed + 10);
        let g = net.graph();
        let d = paths.dilation();
        let l = 10u32;
        for b in [1u32, 2, 4] {
            let rep = adaptive_min_colors(&paths, g, b, seed, 64).expect("refinement");
            assert!(rep.coloring.multiplex_size(&paths, g) <= b);
            let sched = ColorSchedule::new(rep.coloring, l, d);
            let run = sched.execute_checked(g, &paths, l, b);
            assert_eq!(run.delivered(), paths.len());
            assert!(run.max_vcs_in_use <= b);
            // Greedy completes too (leveled => acyclic => deadlock-free).
            let greedy = greedy_wormhole(g, &paths, l, b, seed);
            assert_eq!(greedy.outcome, Outcome::Completed);
        }
    }
}

#[test]
fn naive_schedule_within_its_bound_and_conflict_free() {
    let net = LeveledNet::random(10, 6, 2, 5);
    let paths = net.random_walk_paths(64, 6);
    let g = net.graph();
    let (c, d) = (paths.congestion(g), paths.dilation());
    let l = 8u32;
    let sched = naive_schedule(&paths, g, l);
    assert!(sched.coloring.num_colors() <= naive_color_bound(c, d));
    // Conflict-free classes run without blocking even at B = 1.
    let run = sched.execute_checked(g, &paths, l, 1);
    assert_eq!(run.total_stalls, 0);
    // And the makespan is within the footnote-5 bound (L+D)(D(C-1)+1).
    assert!(run.total_steps <= (l as u64 + d as u64) * naive_color_bound(c, d) as u64);
}

#[test]
fn lower_bound_instance_outperformed_by_store_forward_at_b1() {
    // E4's claim as a hard test: S&F strictly beats greedy wormhole at B=1
    // on the pairwise-sharing instance with substantial congestion.
    let net = lowerbound::build(1, 41, 16, false);
    let l = 2 * net.dilation;
    let worm = greedy_wormhole(&net.graph, &net.paths, l, 1, 3).total_steps;
    let sf = greedy_store_forward(&net.graph, &net.paths)
        .expect("the instance's paths run over its graph")
        .flit_steps(l);
    assert!(
        worm > sf,
        "wormhole {worm} should lose to store-and-forward {sf} here"
    );
    // And the wormhole time respects the Thm 2.2.1 progress bound.
    assert!(worm >= net.progress_lower_bound(l));
}

#[test]
fn virtual_channels_recover_most_of_the_gap_to_the_floor() {
    // On a loaded butterfly permutation, B=4 greedy should land within 3x
    // of the unblocked floor D+L-1 while B=1 sits further away.
    let bf = Butterfly::new(8);
    let rel = wormhole_core::butterfly::relation::QRelation::random_relation(256, 1, 11);
    let paths: Vec<Path> = rel
        .pairs
        .iter()
        .map(|&(s, d)| bf.greedy_path(s, d))
        .collect();
    let paths = PathSet::new(paths);
    let l = 16u32;
    let floor = (paths.dilation() + l - 1) as u64;
    let t1 = greedy_wormhole(bf.graph(), &paths, l, 1, 7).total_steps;
    let t4 = greedy_wormhole(bf.graph(), &paths, l, 4, 7).total_steps;
    assert!(t4 < t1);
    assert!(t4 <= 3 * floor, "B=4 time {t4} vs floor {floor}");
}

#[test]
fn schedule_respects_lower_bound_on_worst_case() {
    // The scheduled upper bound and the progress lower bound bracket the
    // truth on Thm 2.2.1 instances for several (B, D).
    for (b, d) in [(1u32, 21u32), (2, 31), (3, 41)] {
        let run = wormhole_core::lower_bound::run_experiment(b, d, 2, 2.0, 9);
        assert!(run.bound_respected());
        assert!(run.scheduled_steps >= run.progress_bound);
        // Schedules are within a moderate factor of the bound (both are
        // Θ(LCD^{1/B}/B) up to logs).
        assert!(run.scheduled_steps <= 64 * run.progress_bound.max(1));
    }
}

#[test]
fn facade_prelude_covers_the_workflow() {
    // Compile-and-run check that the re-exports work together.
    let (g, paths) = wormhole_topology::random_nets::staggered_instance(4, 16, 32);
    let col = first_fit(&paths, &g, 2, FirstFitOrder::Input);
    let sched = ColorSchedule::new(col, 8, paths.dilation());
    let specs = sched.to_specs(&paths, 8);
    let run = wormhole_run(&g, &specs, &SimConfig::new(2));
    assert_eq!(run.outcome, Outcome::Completed);
}
