//! Simulator throughput: flit-level wormhole routing across network sizes
//! and VC counts (the substrate cost every experiment pays).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wormhole_bench::butterfly_permutation;
use wormhole_flitsim::config::{Arbitration, Engine, SimConfig, VcPolicy};
use wormhole_flitsim::message::specs_from_paths;
use wormhole_flitsim::open_loop::{run_open_loop, OpenLoopConfig};
use wormhole_flitsim::restricted::{self, RestrictedConfig};
use wormhole_flitsim::wormhole;
use wormhole_workloads::{ArrivalProcess, RoutingDiscipline, Substrate, TrafficPattern, Workload};

const ENGINES: [(&str, Engine); 2] = [("event", Engine::EventDriven), ("legacy", Engine::Legacy)];

fn bench_wormhole_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("wormhole_sim");
    group.sample_size(20);
    for k in [6u32, 8, 10] {
        let (bf, paths) = butterfly_permutation(k, 7);
        let specs = specs_from_paths(&paths, 16);
        group.bench_with_input(BenchmarkId::new("n", 1u32 << k), &k, |bch, _| {
            bch.iter(|| wormhole::run(bf.graph(), &specs, &SimConfig::new(2)))
        });
    }
    group.finish();
}

fn bench_wormhole_vcs(c: &mut Criterion) {
    let mut group = c.benchmark_group("wormhole_sim_vcs");
    group.sample_size(20);
    let (bf, paths) = butterfly_permutation(8, 3);
    let specs = specs_from_paths(&paths, 16);
    for b in [1u32, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("B", b), &b, |bch, &b| {
            bch.iter(|| wormhole::run(bf.graph(), &specs, &SimConfig::new(b)))
        });
    }
    group.finish();
}

fn bench_restricted_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("wormhole_sim_restricted");
    group.sample_size(10);
    let (bf, paths) = butterfly_permutation(7, 5);
    let specs = specs_from_paths(&paths, 8);
    for b in [1u32, 2] {
        group.bench_with_input(BenchmarkId::new("B", b), &b, |bch, &b| {
            let cfg = RestrictedConfig::new(b);
            bch.iter(|| restricted::run(bf.graph(), &specs, &cfg))
        });
    }
    group.finish();
}

/// Open-loop low offered load on a butterfly with long worms (the classic
/// wormhole regime: L ≫ D): long uncontended flights and idle gaps — what
/// the event engine's idle-network jump and closed-form drain jump are
/// worth. The legacy stepper pays `O(active)` machinery on each of a
/// flight's `D + L − 1` steps; the event engine steps the `D` header hops
/// and pays `O(D)` once for the `L`-long drain, whenever every worm in
/// flight is draining.
fn bench_open_loop_low_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("open_loop_low_load");
    group.sample_size(10);
    let substrate = Substrate::butterfly(6);
    let w = Workload::new(
        substrate.clone(),
        TrafficPattern::UniformRandom,
        ArrivalProcess::bernoulli(0.00025),
        256,
        0xbe7c,
    );
    let specs = w.generate(5500);
    let ol = OpenLoopConfig::new(500, 5000);
    for (name, engine) in ENGINES {
        let cfg = SimConfig::new(2)
            .arbitration(Arbitration::Random)
            .seed(1)
            .engine(engine);
        group.bench_function(name, |b| {
            b.iter(|| run_open_loop(substrate.graph(), None, &specs, &cfg, &ol))
        });
    }
    group.finish();
}

/// Open-loop tornado traffic on a dateline-class torus near saturation:
/// a deep source backlog of parked worms re-losing the same arbitration —
/// the regime the wait-queue wakeups target (and the dateline class-pair
/// graph doubles the edge count the flat scratch has to cover).
fn bench_dateline_torus(c: &mut Criterion) {
    let mut group = c.benchmark_group("open_loop_dateline_torus");
    group.sample_size(10);
    let substrate = Substrate::torus_with(8, 2, RoutingDiscipline::DatelineClasses);
    let w = Workload::new(
        substrate.clone(),
        TrafficPattern::Tornado,
        ArrivalProcess::bernoulli(0.35),
        4,
        0x70b5,
    );
    let specs = w.generate(1200);
    let ol = OpenLoopConfig::new(200, 1000);
    for (name, engine) in ENGINES {
        let cfg = SimConfig::new(2)
            .arbitration(Arbitration::Random)
            .seed(2)
            .engine(engine);
        group.bench_function(name, |b| {
            b.iter(|| run_open_loop(substrate.graph(), None, &specs, &cfg, &ol))
        });
    }
    group.finish();
}

/// Static vs router-pooled VC allocation on saturated dateline-torus
/// tornado traffic, per engine: the pooled arbitration path (ascending
/// edge-id shared-credit grants) and the router-keyed park/wake lists
/// against the static baseline at equal aggregate buffer budget. This is
/// the hot loop the x9 experiment sweeps.
fn bench_pooled_vcs(c: &mut Criterion) {
    let mut group = c.benchmark_group("open_loop_pooled_torus");
    group.sample_size(10);
    let substrate = Substrate::torus_with(8, 2, RoutingDiscipline::DatelineClasses);
    let fanout = substrate.graph().max_out_degree() as u32;
    let w = Workload::new(
        substrate.clone(),
        TrafficPattern::Tornado,
        ArrivalProcess::bernoulli(0.35),
        4,
        0x9001,
    );
    let specs = w.generate(1200);
    let ol = OpenLoopConfig::new(200, 1000);
    let arms = [
        ("static", VcPolicy::Static(2)),
        ("pooled", VcPolicy::pooled(2 * fanout, 1, 2 * fanout)),
    ];
    for (aname, policy) in arms {
        for (ename, engine) in ENGINES {
            let cfg = SimConfig::new(1)
                .vc_policy(policy)
                .arbitration(Arbitration::Random)
                .seed(3)
                .engine(engine);
            group.bench_function(format!("{aname}/{ename}"), |b| {
                b.iter(|| run_open_loop(substrate.graph(), None, &specs, &cfg, &ol))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_wormhole_scaling,
    bench_wormhole_vcs,
    bench_restricted_model,
    bench_open_loop_low_load,
    bench_dateline_torus,
    bench_pooled_vcs
);
criterion_main!(benches);
