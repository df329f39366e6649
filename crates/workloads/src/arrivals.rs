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

use rand::rngs::StdRng;
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

    /// The arrival step times of one endpoint over `0..window`, driven by
    /// `rng`: its stepper (module docs) stepped `window` times.
    pub fn arrival_times(&self, window: u64, rng: &mut StdRng) -> Vec<u64> {
        let Some(coin) = self.stepper() else {
            return Vec::new();
        };
        (0..window).filter(|_| coin.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_rate_matches() {
        let mut rng = StdRng::seed_from_u64(3);
        let times = ArrivalProcess::bernoulli(0.2).arrival_times(50_000, &mut rng);
        let rate = times.len() as f64 / 50_000.0;
        assert!((rate - 0.2).abs() < 0.01, "measured {rate}");
    }

    #[test]
    fn times_are_strictly_increasing_and_in_window() {
        let mut rng = StdRng::seed_from_u64(6);
        let times = ArrivalProcess::bernoulli(0.5).arrival_times(1000, &mut rng);
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert!(times.iter().all(|&t| t < 1000));
    }

    #[test]
    fn zero_rate_is_silent() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(ArrivalProcess::bernoulli(0.0)
            .arrival_times(1000, &mut rng)
            .is_empty());
    }
}
