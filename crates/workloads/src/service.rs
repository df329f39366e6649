//! Service-style traffic scenarios: heavy-tailed message sizes,
//! client/server endpoint partitions, incast (fan-in onto a few hot
//! servers), and diurnal load ramps.
//!
//! The synthetic patterns in [`crate::patterns`] stress the *topology*
//! (bit permutations, tornado, …); a [`ServiceScenario`] instead stresses
//! the *traffic shape* datacenter-style services exhibit: request sizes
//! drawn from a bounded Pareto (most messages short, rare multi-hundred
//! flit worms holding channels for a long time — exactly the regime
//! where virtual channels let short worms overtake), all traffic flowing
//! from a client partition into a server partition with a configurable
//! fraction concentrated on a few hot servers, and an injection rate
//! that ramps sinusoidally so a single run crosses the saturation knee
//! in both directions.
//!
//! A scenario generates [`TraceRow`]s (so it composes with the streaming
//! trace format and [`crate::trace::TraceSource`]), routes them into
//! `MessageSpec`s, or derives a matching [`ClosedLoopConfig`] for
//! closed-loop runs over the same partitions.

use rand::prelude::*;
use rand::rngs::StdRng;
use rand::Bernoulli;

use wormhole_flitsim::message::MessageSpec;

use crate::closed_loop::ClosedLoopConfig;
use crate::substrate::Substrate;
use crate::trace::TraceRow;
use crate::{mix, DST_STREAM_SALT};

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
    /// How many of the servers are "hot" (the first `hot_servers` of the
    /// server partition). `0` disables incast.
    pub hot_servers: u32,
    /// Probability a request targets a hot server (fan-in intensity).
    pub hot_fraction: f64,
    /// Pareto tail index for message lengths (smaller ⇒ heavier tail;
    /// `1 < α ≤ 3` is the service-traffic regime).
    pub alpha: f64,
    /// Minimum message length in flits (the Pareto scale `x_m ≥ 1`).
    pub min_len: u32,
    /// Maximum message length in flits (truncation bound).
    pub max_len: u32,
    /// Mean per-client injection probability per step.
    pub base_rate: f64,
    /// Diurnal modulation depth in `[0, 1]`: the instantaneous rate is
    /// `base_rate · (1 + amplitude · sin(2πt / period))`, clamped to
    /// `[0, 1]`.
    pub diurnal_amplitude: f64,
    /// Diurnal period in steps.
    pub diurnal_period: u64,
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
            hot_servers: 1,
            hot_fraction: 0.25,
            alpha: 1.5,
            min_len: 1,
            max_len: 64,
            base_rate,
            diurnal_amplitude: 0.0,
            diurnal_period: 1000,
            seed,
        };
        s.validate();
        s
    }

    /// Sets the incast shape: `hot` hot servers absorbing `fraction` of
    /// the requests.
    pub fn incast(mut self, hot: u32, fraction: f64) -> Self {
        self.hot_servers = hot;
        self.hot_fraction = fraction;
        self.validate();
        self
    }

    /// Sets the bounded-Pareto length distribution.
    pub fn pareto_lengths(mut self, alpha: f64, min_len: u32, max_len: u32) -> Self {
        self.alpha = alpha;
        self.min_len = min_len;
        self.max_len = max_len;
        self.validate();
        self
    }

    /// Sets the diurnal ramp (depth in `[0, 1]`, period in steps).
    pub fn diurnal(mut self, amplitude: f64, period: u64) -> Self {
        self.diurnal_amplitude = amplitude;
        self.diurnal_period = period;
        self.validate();
        self
    }

    fn validate(&self) {
        assert!(self.clients >= 1 && self.servers >= 1, "empty partition");
        assert!(
            self.clients + self.servers <= self.substrate.endpoints(),
            "client ({}) and server ({}) partitions overlap on {} endpoints",
            self.clients,
            self.servers,
            self.substrate.endpoints()
        );
        assert!(
            self.hot_servers <= self.servers,
            "more hot servers than servers"
        );
        assert!(
            (0.0..=1.0).contains(&self.hot_fraction),
            "hot_fraction is a probability"
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
        assert!(
            (0.0..=1.0).contains(&self.diurnal_amplitude),
            "diurnal amplitude in [0, 1]"
        );
        assert!(self.diurnal_period >= 1, "diurnal period must be positive");
    }

    /// Instantaneous per-client injection probability at step `t`.
    pub fn rate_at(&self, t: u64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * (t % self.diurnal_period) as f64
            / self.diurnal_period as f64;
        (self.base_rate * (1.0 + self.diurnal_amplitude * phase.sin())).clamp(0.0, 1.0)
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
    /// they are drawn. The rate depends on the step alone: one coin a step
    /// serves every client, and every client draws one arrival word a
    /// step (also at rate zero).
    pub fn generate_rows(&self, window: u64) -> Vec<TraceRow> {
        let mut streams: Vec<(StdRng, StdRng)> = (0..self.clients)
            .map(|src| {
                (
                    StdRng::seed_from_u64(mix(self.seed, src)),
                    StdRng::seed_from_u64(mix(self.seed ^ DST_STREAM_SALT, src)),
                )
            })
            .collect();
        let hot = Bernoulli::new(self.hot_fraction);
        let mut rows = Vec::new();
        for release in 0..window {
            let arrives = Bernoulli::new(self.rate_at(release));
            for (src, (arrival_rng, draw_rng)) in (0..).zip(&mut streams) {
                if !arrives.sample(arrival_rng) {
                    continue;
                }
                let k = if self.hot_servers > 0 && hot.sample(draw_rng) {
                    draw_rng.random_range(0..self.hot_servers)
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

    /// Derives a closed-loop configuration over the same client/server
    /// partitions: `window` outstanding chains per client, request
    /// length `min_len`, reply length `max_len` (the heavy response is
    /// what occupies the fabric), and think/service times scaled so the
    /// open- and closed-loop offered loads are comparable at
    /// `base_rate`.
    pub fn closed_loop(&self, window: u32, horizon: u64, start_spread: u64) -> ClosedLoopConfig {
        // A chain injects ~(min_len + max_len) flits per cycle of
        // think + flight; pick a mean think that would offer base_rate
        // flits/step per client if the network were infinitely fast.
        let per_chain = (self.min_len + self.max_len) as f64;
        let mean_think = if self.base_rate > 0.0 {
            (window as f64 * per_chain / self.base_rate.min(1.0)).min(1e6) as u64
        } else {
            horizon
        };
        ClosedLoopConfig {
            clients: self.clients,
            servers: self.servers,
            window,
            req_len: self.min_len,
            reply_len: self.max_len,
            think: (mean_think / 2, mean_think + mean_think / 2),
            server_delay: (1, (self.max_len as u64).max(2)),
            start_spread,
            horizon,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> ServiceScenario {
        ServiceScenario::new(Substrate::butterfly(4), 8, 8, 0.2, 17)
            .incast(2, 0.5)
            .pareto_lengths(1.5, 2, 40)
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
        let hot = rows.iter().filter(|r| r.dst < n - 8 + 2).count();
        let frac = hot as f64 / rows.len() as f64;
        // 50% aimed at the hot pair + the uniform share landing there.
        assert!(frac > 0.45, "hot fraction {frac}");
    }

    #[test]
    fn diurnal_ramp_modulates_rate() {
        let s = ServiceScenario::new(Substrate::butterfly(4), 8, 8, 0.2, 5).diurnal(0.9, 400);
        assert!(s.rate_at(100) > s.rate_at(0)); // peak of sin at period/4
        assert!(s.rate_at(300) < s.rate_at(0)); // trough at 3·period/4
        let rows = s.generate_rows(400);
        let first_half = rows.iter().filter(|r| r.release < 200).count();
        let second_half = rows.len() - first_half;
        assert!(
            first_half > second_half,
            "ramp up then down: {first_half} vs {second_half}"
        );
    }

    #[test]
    fn rows_route_and_derive_closed_loop() {
        let s = scenario();
        let specs = s.generate(200);
        assert!(specs.iter().all(|m| !m.path.is_empty()));
        let cl = s.closed_loop(2, 1000, 16);
        assert_eq!(cl.clients, 8);
        assert_eq!(cl.servers, 8);
        assert_eq!(cl.req_len, 2);
        assert_eq!(cl.reply_len, 40);
        assert!(cl.think.0 <= cl.think.1);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = scenario().generate_rows(300);
        let b = scenario().generate_rows(300);
        assert_eq!(a, b);
    }
}
