//! The three routing disciplines on one fixed workload: wormhole (with
//! VCs), virtual cut-through, store-and-forward (E4/E7 substrate).

use criterion::{criterion_group, criterion_main, Criterion};

use wormhole_baselines::cut_through::vct;
use wormhole_baselines::store_forward::greedy_store_forward;
use wormhole_bench::butterfly_permutation;
use wormhole_flitsim::config::SimConfig;
use wormhole_flitsim::message::specs_from_paths;
use wormhole_flitsim::wormhole;

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_models");
    group.sample_size(15);
    let (bf, paths) = butterfly_permutation(8, 9);
    let l = 16u32;
    let specs = specs_from_paths(&paths, l);
    group.bench_function("wormhole_b2", |bch| {
        bch.iter(|| wormhole::run(bf.graph(), &specs, &SimConfig::new(2)))
    });
    group.bench_function("cut_through_f2", |bch| {
        bch.iter(|| vct(bf.graph(), &paths, l, 2, 1))
    });
    group.bench_function("store_forward", |bch| {
        bch.iter(|| greedy_store_forward(bf.graph(), &paths))
    });
    group.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
