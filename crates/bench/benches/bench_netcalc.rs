//! Analytic bound engine throughput: the whole point of the netcalc
//! backend is that a delay certificate costs milliseconds where a
//! simulation costs seconds. These benches pin that claim down on a
//! 1024-input butterfly (k = 10) with one synthetic flow per input, and
//! track how the fixed-point iteration scales with the VC count and the
//! offered rate (more contention → more Picard iterations). One more
//! case bounds a realized trace instead of contracts — thousands of
//! short `(path, length)` flows with trace envelopes, the shape the
//! cross-validation experiment and the benchmark's
//! `butterfly_bounds_xval` workload feed the closure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wormhole_netcalc::{delay_bounds, flows_from_specs, BoundConfig, Flow};
use wormhole_workloads::{ArrivalProcess, Substrate, TrafficPattern, Workload};

/// One σ=1 leaky-bucket flow per input of a `2^k`-input butterfly,
/// routed to the bit-complement output (worst-case column reversal —
/// every flow crosses the bisection).
fn complement_flows(k: u32, rate: f64) -> (Substrate, Vec<Flow>) {
    let substrate = Substrate::butterfly(k);
    let n = 1u32 << k;
    let flows = (0..n)
        .map(|s| {
            let path = substrate.route(s, s ^ (n - 1));
            Flow::synthetic(path.edges().to_vec(), 4, 1.0, rate)
        })
        .collect();
    (substrate, flows)
}

fn bench_bound_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("netcalc_bounds");
    group.sample_size(20);
    for k in [6u32, 8, 10] {
        let (substrate, flows) = complement_flows(k, 0.002);
        group.bench_with_input(BenchmarkId::new("n", 1u32 << k), &k, |bch, _| {
            bch.iter(|| {
                delay_bounds(substrate.graph(), &flows, &BoundConfig::new(4))
                    .expect("butterfly is feedforward")
            })
        });
    }
    group.finish();
}

fn bench_bound_vcs(c: &mut Criterion) {
    let mut group = c.benchmark_group("netcalc_bounds_vcs");
    group.sample_size(20);
    let (substrate, flows) = complement_flows(10, 0.002);
    for b in [2u32, 4, 8] {
        group.bench_with_input(BenchmarkId::new("B", b), &b, |bch, &b| {
            bch.iter(|| {
                delay_bounds(substrate.graph(), &flows, &BoundConfig::new(b))
                    .expect("butterfly is feedforward")
            })
        });
    }
    group.finish();
}

fn bench_bound_rates(c: &mut Criterion) {
    let mut group = c.benchmark_group("netcalc_bounds_rates");
    group.sample_size(20);
    for rate in [0.001f64, 0.002, 0.005] {
        let (substrate, flows) = complement_flows(10, rate);
        group.bench_with_input(BenchmarkId::new("rate", rate), &rate, |bch, _| {
            bch.iter(|| {
                delay_bounds(substrate.graph(), &flows, &BoundConfig::new(8))
                    .expect("butterfly is feedforward")
            })
        });
    }
    group.finish();
}

/// Uniform Bernoulli(0.05) traffic on butterfly(8) over a 250-step
/// window: ~3.2 k messages in ~3.1 k flows, 8 hops each.
fn bench_bound_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("netcalc_bounds_trace");
    group.sample_size(20);
    let substrate = Substrate::butterfly(8);
    let specs = Workload::new(
        substrate.clone(),
        TrafficPattern::UniformRandom,
        ArrivalProcess::bernoulli(0.05),
        4,
        1,
    )
    .generate(250);
    group.bench_function("flows_from_specs", |bch| {
        bch.iter(|| flows_from_specs(&specs))
    });
    let flows = flows_from_specs(&specs).flows;
    group.bench_function("delay_bounds_B2", |bch| {
        bch.iter(|| {
            delay_bounds(substrate.graph(), &flows, &BoundConfig::new(2))
                .expect("butterfly is feedforward")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bound_scaling,
    bench_bound_vcs,
    bench_bound_rates,
    bench_bound_trace
);
criterion_main!(benches);
