//! One fast representative point per experiment id, so every table and
//! figure in the README catalog has a criterion bench target.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wormhole_harness::experiments::{all_ids, run_by_id};

fn bench_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments_fast");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    for id in all_ids() {
        group.bench_with_input(BenchmarkId::from_parameter(id), id, |bch, id| {
            bch.iter(|| run_by_id(id, true).expect("known id"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
