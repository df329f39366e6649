//! The open-loop generators as they were before they drew in release
//! order: per endpoint, every arrival time into a vector, then one sort
//! of all rows by `(release, src)`, over the 53-bit float coin. Kept as
//! the oracle [`Workload::generate_rows`] and
//! [`ServiceScenario::generate_rows`] are held to, row for row.

use rand::prelude::*;
use rand::rngs::StdRng;

use super::*;
use crate::service::{HOT_FRACTION, HOT_SERVERS};

/// `random_bool` as it was: one word, `(w >> 11) · 2⁻⁵³ < p`.
fn float_coin(rng: &mut StdRng, p: f64) -> bool {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    ((rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
}

/// `ArrivalProcess::arrival_times` as it was, line for line.
fn arrival_times(process: &ArrivalProcess, window: u64, rng: &mut StdRng) -> Vec<u64> {
    let mut out = Vec::new();
    let ArrivalProcess::Bernoulli { rate } = *process;
    if rate == 0.0 {
        return out;
    }
    for t in 0..window {
        if float_coin(rng, rate) {
            out.push(t);
        }
    }
    out
}

/// `Workload::generate_rows` as it was: endpoint by endpoint, then sorted.
fn workload_rows(w: &Workload, window: u64) -> Vec<TraceRow> {
    let sampler = PatternSampler::new(w.pattern.clone(), &w.substrate, w.seed);
    let mut stamped = Vec::new();
    for src in 0..w.substrate.endpoints() {
        let mut arrival_rng = StdRng::seed_from_u64(mix(w.seed, src));
        let mut dst_rng = StdRng::seed_from_u64(mix(w.seed ^ DST_STREAM_SALT, src));
        for t in arrival_times(&w.arrivals, window, &mut arrival_rng) {
            let dst = sampler.draw(src, &mut dst_rng);
            if !w.substrate.injects(src, dst) {
                continue;
            }
            stamped.push(TraceRow {
                src,
                dst,
                release: t,
                length: w.msg_len,
            });
        }
    }
    stamped.sort_by_key(|r| (r.release, r.src));
    stamped
}

/// `ServiceScenario::generate_rows` as it was: client by client, one
/// `random_bool(base_rate)` a step, then sorted.
fn service_rows(s: &ServiceScenario, window: u64) -> Vec<TraceRow> {
    let n = s.substrate.endpoints();
    let mut stamped = Vec::new();
    for src in 0..s.clients {
        let mut arrival_rng = StdRng::seed_from_u64(mix(s.seed, src));
        let mut draw_rng = StdRng::seed_from_u64(mix(s.seed ^ DST_STREAM_SALT, src));
        for t in 0..window {
            if !float_coin(&mut arrival_rng, s.base_rate) {
                continue;
            }
            let k = if float_coin(&mut draw_rng, HOT_FRACTION) {
                draw_rng.random_range(0..HOT_SERVERS)
            } else {
                draw_rng.random_range(0..s.servers)
            };
            // The bounded-Pareto inverse CDF, as `draw_length` computes it.
            let u = draw_rng.random_range(0.0..1.0);
            let (xm, xx) = (s.min_len as f64, s.max_len as f64);
            let x = xm / (1.0 - u * (1.0 - (xm / xx).powf(s.alpha))).powf(1.0 / s.alpha);
            stamped.push(TraceRow {
                src,
                dst: n - s.servers + k,
                release: t,
                length: (x as u32).clamp(s.min_len, s.max_len),
            });
        }
    }
    stamped.sort_by_key(|r| (r.release, r.src));
    stamped
}

/// Bernoulli arrivals at rates 0 (a coin that must draw nothing), 1 and
/// in between.
fn processes() -> Vec<ArrivalProcess> {
    vec![
        ArrivalProcess::bernoulli(0.0),
        ArrivalProcess::bernoulli(0.13),
        ArrivalProcess::bernoulli(1.0),
    ]
}

#[test]
fn workload_rows_equal_the_sorted_per_endpoint_rows() {
    let substrates = [
        Substrate::butterfly(4),
        Substrate::torus(4, 2),
        Substrate::hypercube(4),
    ];
    let patterns = [
        TrafficPattern::UniformRandom,
        TrafficPattern::Hotspot {
            fraction: 0.4,
            hotspots: vec![3, 9],
        },
        TrafficPattern::Permutation,
    ];
    let (mut rows, mut fixed_points) = (0usize, 0usize);
    for substrate in &substrates {
        for pattern in &patterns {
            for arrivals in processes() {
                for seed in [1u64, 6] {
                    let w = Workload::new(substrate.clone(), pattern.clone(), arrivals, 3, seed);
                    for window in [0u64, 1, 2_000] {
                        let got = w.generate_rows(window);
                        assert_eq!(
                            got,
                            workload_rows(&w, window),
                            "{} {} {arrivals:?} seed {seed} window {window}",
                            substrate.name(),
                            pattern.name()
                        );
                        rows += got.len();
                    }
                    let sampler = PatternSampler::new(pattern.clone(), substrate, seed);
                    if let (Some(map), false) = (sampler.dest_map(), substrate.injects(0, 0)) {
                        fixed_points += (0..).zip(map).filter(|&(s, &d)| s == d).count();
                    }
                }
            }
        }
    }
    // The cases reached what they are meant to reach: real traffic, and
    // permutation fixed points that skip injection on a node substrate.
    assert!(
        rows > 500_000 && fixed_points > 0,
        "{rows} rows, {fixed_points}"
    );
}

#[test]
fn service_rows_equal_the_sorted_per_client_rows() {
    let base =
        |rate: f64, seed: u64| ServiceScenario::new(Substrate::butterfly(4), 6, 8, rate, seed);
    let (mut rows, mut silent_cases) = (0usize, 0usize);
    for rate in [0.0, 0.17, 1.0] {
        for seed in [2u64, 11] {
            let scenarios = [
                ("plain", base(rate, seed)),
                ("pareto", base(rate, seed).pareto_lengths(1.2, 2, 200)),
                ("light tail", base(rate, seed).pareto_lengths(2.5, 1, 40)),
            ];
            for (name, s) in &scenarios {
                for window in [0u64, 1, 2_000] {
                    let got = s.generate_rows(window);
                    assert_eq!(
                        got,
                        service_rows(s, window),
                        "{name} rate {rate} seed {seed} window {window}"
                    );
                    rows += got.len();
                    // A silent step draws no row.
                    if rate == 0.0 {
                        assert!(got.is_empty(), "{name} seed {seed} window {window}");
                        silent_cases += 1;
                    }
                }
            }
        }
    }
    assert!(
        rows > 50_000 && silent_cases > 0,
        "{rows} rows, {silent_cases}"
    );
}
