//! Open-loop hot path: workload generation (pattern sampling + arrival
//! processes) and the windowed open-loop simulation that X2 sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wormhole_flitsim::config::{Arbitration, SimConfig};
use wormhole_flitsim::open_loop::{run_open_loop, OpenLoopConfig};
use wormhole_workloads::{ArrivalProcess, Substrate, TrafficPattern, Workload};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_generate");
    group.sample_size(20);
    for (name, pattern) in [
        ("uniform", TrafficPattern::UniformRandom),
        ("bit-reversal", TrafficPattern::BitReversal),
        (
            "hotspot",
            TrafficPattern::Hotspot {
                fraction: 0.2,
                hotspots: vec![0, 31],
            },
        ),
    ] {
        let w = Workload::new(
            Substrate::butterfly(6),
            pattern,
            ArrivalProcess::bernoulli(0.2),
            8,
            7,
        );
        group.bench_with_input(BenchmarkId::new("pattern", name), &w, |b, w| {
            b.iter(|| w.generate(2000))
        });
    }
    let bursty = Workload::new(
        Substrate::butterfly(6),
        TrafficPattern::UniformRandom,
        ArrivalProcess::bursty(0.2, 32.0),
        8,
        7,
    );
    group.bench_function("arrivals/bursty", |b| b.iter(|| bursty.generate(2000)));
    group.finish();
}

fn bench_open_loop_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("open_loop_run");
    group.sample_size(10);
    let w = Workload::new(
        Substrate::butterfly(6),
        TrafficPattern::UniformRandom,
        ArrivalProcess::bernoulli(0.15),
        8,
        7,
    );
    let specs = w.generate(1200);
    let ol = OpenLoopConfig::new(200, 1000);
    for b in [1u32, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("B", b), &b, |bch, &b| {
            let cfg = SimConfig::new(b).arbitration(Arbitration::Random).seed(3);
            bch.iter(|| run_open_loop(w.substrate.graph(), None, &specs, &cfg, &ol))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generation, bench_open_loop_run);
criterion_main!(benches);
