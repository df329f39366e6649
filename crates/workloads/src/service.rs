//! Service-style traffic scenarios: heavy-tailed message sizes,
//! client/server endpoint partitions, and a hot server.
//!
//! The synthetic patterns in [`crate::patterns`] stress the *topology*
//! (bit permutations, tornado, …); a [`ServiceScenario`] instead stresses
//! the *traffic shape* datacenter-style services exhibit: request sizes
//! drawn from a bounded Pareto (most messages short, rare multi-hundred
//! flit worms holding channels for a long time — exactly the regime
//! where virtual channels let short worms overtake), and all traffic
//! flowing from a client partition into a server partition, a quarter of
//! it aimed at one hot server. Every client injects by the same Bernoulli
//! rate at every step.
//!
//! A scenario generates routing-free [`TraceRow`]s or routes them into
//! `MessageSpec`s. A closed-loop run over the same partitions builds its
//! own [`crate::ClosedLoopConfig`].

use rand::prelude::*;
use rand::rngs::StdRng;
use rand::Bernoulli;

use wormhole_flitsim::message::MessageSpec;

use crate::substrate::Substrate;
use crate::{mix, TraceRow, DST_STREAM_SALT};

/// How many servers are hot, counted from the start of the server
/// partition.
pub(crate) const HOT_SERVERS: u32 = 1;
/// Probability a request targets a hot server.
pub(crate) const HOT_FRACTION: f64 = 0.25;

/// A client/server service workload description. See the module docs.
#[derive(Clone, Debug)]
pub struct ServiceScenario {
    /// The network substrate (owns the graph and the routing function).
    pub substrate: Substrate,
    /// Number of client endpoints (endpoints `0..clients`); only clients
    /// inject.
    pub clients: u32,
    /// Number of server endpoints (the last `servers` endpoints).
    pub servers: u32,
    /// Pareto tail index for message lengths (smaller ⇒ heavier tail;
    /// `1 < α ≤ 3` is the service-traffic regime).
    pub alpha: f64,
    /// Minimum message length in flits (the Pareto scale `x_m ≥ 1`).
    pub min_len: u32,
    /// Maximum message length in flits (truncation bound).
    pub max_len: u32,
    /// Per-client injection probability per step.
    pub base_rate: f64,
    /// Master seed; per-client streams derive from it.
    pub seed: u64,
}

impl ServiceScenario {
    /// Builds and validates a scenario.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        substrate: Substrate,
        clients: u32,
        servers: u32,
        base_rate: f64,
        seed: u64,
    ) -> Self {
        let s = Self {
            substrate,
            clients,
            servers,
            alpha: 1.5,
            min_len: 1,
            max_len: 64,
            base_rate,
            seed,
        };
        s.validate();
        s
    }

    /// Sets the bounded-Pareto length distribution.
    pub fn pareto_lengths(mut self, alpha: f64, min_len: u32, max_len: u32) -> Self {
        self.alpha = alpha;
        self.min_len = min_len;
        self.max_len = max_len;
        self.validate();
        self
    }

    fn validate(&self) {
        assert!(self.clients >= 1 && self.servers >= 1, "empty partition");
        assert!(
            self.clients as u64 + self.servers as u64 <= self.substrate.endpoints() as u64,
            "client ({}) and server ({}) partitions overlap on {} endpoints",
            self.clients,
            self.servers,
            self.substrate.endpoints()
        );
        assert!(self.alpha > 1.0, "Pareto tail index must exceed 1");
        assert!(
            1 <= self.min_len && self.min_len <= self.max_len,
            "need 1 <= min_len <= max_len"
        );
        assert!(
            (0.0..=1.0).contains(&self.base_rate),
            "base_rate is a probability"
        );
    }

    /// Bounded-Pareto inverse CDF over `[min_len, max_len]`.
    fn draw_length(&self, rng: &mut StdRng) -> u32 {
        let u = rng.random_range(0.0..1.0);
        let xm = self.min_len as f64;
        let xx = self.max_len as f64;
        let x = xm / (1.0 - u * (1.0 - (xm / xx).powf(self.alpha))).powf(1.0 / self.alpha);
        (x as u32).clamp(self.min_len, self.max_len)
    }

    /// Endpoint id of server index `k` (servers are the last endpoints).
    fn server_endpoint(&self, k: u32) -> u32 {
        self.substrate.endpoints() - self.servers + k
    }

    /// Generates the timed rows for injection steps `0..window`, sorted
    /// by `(release, src)`. Deterministic per seed; each client owns two
    /// decorrelated streams (arrivals vs destinations/lengths), so one
    /// client's trace is independent of the others and of the window.
    ///
    /// Steps outside, clients inside, so the rows come out in order as
    /// they are drawn. One coin serves every client at every step, and
    /// every client draws one arrival word a step (also at rate zero).
    pub fn generate_rows(&self, window: u64) -> Vec<TraceRow> {
        let mut streams: Vec<(StdRng, StdRng)> = (0..self.clients)
            .map(|src| {
                (
                    StdRng::seed_from_u64(mix(self.seed, src)),
                    StdRng::seed_from_u64(mix(self.seed ^ DST_STREAM_SALT, src)),
                )
            })
            .collect();
        let hot = Bernoulli::new(HOT_FRACTION);
        let arrives = Bernoulli::new(self.base_rate);
        let mut rows = Vec::new();
        for release in 0..window {
            for (src, (arrival_rng, draw_rng)) in (0..).zip(&mut streams) {
                if !arrives.sample(arrival_rng) {
                    continue;
                }
                let k = if hot.sample(draw_rng) {
                    draw_rng.random_range(0..HOT_SERVERS)
                } else {
                    draw_rng.random_range(0..self.servers)
                };
                rows.push(TraceRow {
                    src,
                    dst: self.server_endpoint(k),
                    release,
                    length: self.draw_length(draw_rng),
                });
            }
        }
        rows
    }

    /// Generates and routes the scenario into simulator-ready specs.
    pub fn generate(&self, window: u64) -> Vec<MessageSpec> {
        self.generate_rows(window)
            .into_iter()
            .map(|r| {
                MessageSpec::new(self.substrate.route(r.src, r.dst), r.length).release_at(r.release)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> ServiceScenario {
        ServiceScenario::new(Substrate::butterfly(4), 8, 8, 0.2, 17).pareto_lengths(1.5, 2, 40)
    }

    #[test]
    fn rows_are_sorted_in_window_and_partitioned() {
        let s = scenario();
        let rows = s.generate_rows(500);
        assert!(!rows.is_empty());
        assert!(rows
            .windows(2)
            .all(|w| (w[0].release, w[0].src) <= (w[1].release, w[1].src)));
        let n = s.substrate.endpoints();
        for r in &rows {
            assert!(r.release < 500);
            assert!(r.src < 8, "injections come from clients only");
            assert!(r.dst >= n - 8, "traffic lands on servers only");
            assert!((2..=40).contains(&r.length));
        }
    }

    #[test]
    fn lengths_are_heavy_tailed_but_bounded() {
        let s = scenario();
        let rows = s.generate_rows(4000);
        let short = rows.iter().filter(|r| r.length <= 4).count();
        let long = rows.iter().filter(|r| r.length >= 20).count();
        // Bounded Pareto with α=1.5: most mass near x_m, a real tail.
        assert!(short > rows.len() / 2, "{short}/{}", rows.len());
        assert!(long > 0, "tail never sampled in {} rows", rows.len());
    }

    #[test]
    fn incast_concentrates_on_hot_servers() {
        let s = scenario();
        let rows = s.generate_rows(4000);
        let n = s.substrate.endpoints();
        let hot = rows.iter().filter(|r| r.dst < n - 8 + HOT_SERVERS).count();
        let frac = hot as f64 / rows.len() as f64;
        // 25% aimed at the hot server + its 1/8 of the uniform 75%.
        assert!(frac > 0.3, "hot fraction {frac}");
    }

    #[test]
    fn rows_route_and_derive_closed_loop() {
        let s = scenario();
        let specs = s.generate(200);
        assert!(specs.iter().all(|m| !m.path.is_empty()));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn partitions_summing_past_u32_are_rejected() {
        // `u32::MAX + 2` wraps to 1 in a `u32` add; the sum is in `u64`.
        ServiceScenario::new(Substrate::butterfly(4), u32::MAX, 2, 0.1, 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = scenario().generate_rows(300);
        let b = scenario().generate_rows(300);
        assert_eq!(a, b);
    }
}
