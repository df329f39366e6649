//! Arrival processes: when each endpoint injects a message.
//!
//! Open-loop evaluation drives every endpoint with an independent timed
//! process, regardless of network state (the network cannot push back —
//! that is what makes the latency/throughput curves meaningful). The
//! process is **Bernoulli**: inject with probability `rate` each flit
//! step; memoryless, the discrete analog of Poisson arrivals.
//!
//! An endpoint steps its process over its own RNG stream. A generator
//! steps every endpoint once per step, so a window of arrivals comes out
//! in release order with nothing to sort, and per step an endpoint costs
//! one draw — a [`Bernoulli`] coin, one shift and one integer compare. A
//! coin of probability zero draws no word at all.

use rand::Bernoulli;

/// A per-endpoint arrival process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Independent injection with probability `rate` per flit step.
    Bernoulli {
        /// Injection probability per endpoint per step (`0 ≤ rate ≤ 1`).
        rate: f64,
    },
}

impl ArrivalProcess {
    /// Bernoulli arrivals at `rate`.
    pub fn bernoulli(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate is a probability");
        ArrivalProcess::Bernoulli { rate }
    }

    /// One endpoint's process, stepped once a flit step: the injection
    /// coin, or `None` at rate zero — a coin that is never tossed and
    /// draws no word.
    pub(crate) fn stepper(&self) -> Option<Bernoulli> {
        let ArrivalProcess::Bernoulli { rate } = *self;
        (rate != 0.0).then(|| Bernoulli::new(rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Substrate, TrafficPattern, Workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_rate_matches() {
        let mut rng = StdRng::seed_from_u64(3);
        let coin = ArrivalProcess::bernoulli(0.2).stepper().expect("a coin");
        let arrivals = (0..50_000).filter(|_| coin.sample(&mut rng)).count();
        let rate = arrivals as f64 / 50_000.0;
        assert!((rate - 0.2).abs() < 0.01, "measured {rate}");
    }

    #[test]
    fn times_are_strictly_increasing_and_in_window() {
        // Each endpoint's rows come out of the generator at strictly
        // increasing steps inside the window.
        let w = Workload::new(
            Substrate::butterfly(3),
            TrafficPattern::UniformRandom,
            ArrivalProcess::bernoulli(0.5),
            1,
            6,
        );
        let rows = w.generate_rows(1000);
        assert!(!rows.is_empty());
        for src in 0..w.substrate.endpoints() {
            let times: Vec<u64> = rows
                .iter()
                .filter(|r| r.src == src)
                .map(|r| r.release)
                .collect();
            assert!(times.windows(2).all(|p| p[0] < p[1]), "endpoint {src}");
            assert!(times.iter().all(|&t| t < 1000), "endpoint {src}");
        }
    }

    #[test]
    fn zero_rate_is_silent() {
        let zero = ArrivalProcess::bernoulli(0.0);
        assert!(zero.stepper().is_none(), "no coin, so no draw");
        let w = Workload::new(
            Substrate::butterfly(3),
            TrafficPattern::UniformRandom,
            zero,
            1,
            7,
        );
        assert!(w.generate_rows(1000).is_empty());
    }
}
