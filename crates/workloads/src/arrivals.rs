//! Arrival processes: when each endpoint injects a message.
//!
//! Open-loop evaluation drives every endpoint with an independent timed
//! process, regardless of network state (the network cannot push back —
//! that is what makes the latency/throughput curves meaningful).
//! Two processes cover the standard methodology:
//!
//! * **Bernoulli** — inject with probability `rate` each flit step;
//!   memoryless, the discrete analog of Poisson arrivals;
//! * **bursty on/off** — a two-state Markov-modulated process: an *on*
//!   endpoint injects with probability `rate_on` per step; transitions
//!   `on → off` and `off → on` happen with the given per-step
//!   probabilities. Mean offered load is `rate_on · π_on` where
//!   `π_on = p_off_to_on / (p_on_to_off + p_off_to_on)`.
//!
//! Each process runs as a stepper (`ArrivalStepper`): one endpoint's state,
//! advanced one step at a time over that endpoint's own RNG stream. A
//! generator steps every endpoint once per step, so a window of arrivals
//! comes out in release order with nothing to sort, and per step an
//! endpoint costs one draw (Bernoulli) or two (on/off: injection while
//! *on*, then the transition) — a [`Bernoulli`] coin, one shift and one
//! integer compare. A coin of probability zero draws no word at all.

use rand::prelude::*;
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
    /// Two-state Markov-modulated on/off bursts.
    OnOff {
        /// Injection probability per step while *on*.
        rate_on: f64,
        /// Per-step probability of an *on* endpoint turning *off*.
        p_on_to_off: f64,
        /// Per-step probability of an *off* endpoint turning *on*.
        p_off_to_on: f64,
    },
}

impl ArrivalProcess {
    /// Bernoulli arrivals at `rate`.
    pub fn bernoulli(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate is a probability");
        ArrivalProcess::Bernoulli { rate }
    }

    /// Bursty arrivals with the same mean load as `bernoulli(rate)`:
    /// bursts of expected length `burst_len` steps at twice the mean
    /// rate (symmetric 50% duty cycle, so the on-state peak is
    /// `2·rate`). Requires `rate ≤ 0.5` — beyond that the peak would
    /// exceed one message per step and the mean-load contract breaks.
    pub fn bursty(rate: f64, burst_len: f64) -> Self {
        assert!(burst_len >= 1.0, "bursts last at least one step");
        assert!(
            (0.0..=0.5).contains(&rate),
            "bursty mean rate must be ≤ 0.5 (peak is 2·rate)"
        );
        let rate_on = 2.0 * rate;
        let p = 1.0 / burst_len;
        ArrivalProcess::OnOff {
            rate_on,
            p_on_to_off: p,
            p_off_to_on: p,
        }
    }

    /// Mean offered load in messages per endpoint per flit step.
    pub fn offered_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Bernoulli { rate } => rate,
            ArrivalProcess::OnOff {
                rate_on,
                p_on_to_off,
                p_off_to_on,
            } => {
                let pi_on = p_off_to_on / (p_on_to_off + p_off_to_on);
                rate_on * pi_on
            }
        }
    }

    /// One endpoint's process from step 0, drawing from `rng` (the on/off
    /// chain's initial state is drawn here, from its stationary
    /// distribution, so the window is statistically uniform).
    pub(crate) fn stepper(&self, rng: &mut StdRng) -> ArrivalStepper {
        match *self {
            ArrivalProcess::Bernoulli { rate } => {
                ArrivalStepper::Bernoulli((rate != 0.0).then(|| Bernoulli::new(rate)))
            }
            ArrivalProcess::OnOff {
                rate_on,
                p_on_to_off,
                p_off_to_on,
            } => {
                let pi_on = p_off_to_on / (p_on_to_off + p_off_to_on);
                ArrivalStepper::OnOff {
                    on: rng.random_bool(pi_on),
                    fire: coin(rate_on),
                    to_off: coin(p_on_to_off),
                    to_on: coin(p_off_to_on),
                }
            }
        }
    }

    /// The arrival step times of one endpoint over `0..window`, driven by
    /// `rng`: its stepper (module docs) stepped `window` times.
    pub fn arrival_times(&self, window: u64, rng: &mut StdRng) -> Vec<u64> {
        let mut stepper = self.stepper(rng);
        (0..window).filter(|_| stepper.step(rng)).collect()
    }
}

/// The on/off chain's coin for `p`, or `None` when `p` is not positive:
/// that coin is never tossed and draws no word.
fn coin(p: f64) -> Option<Bernoulli> {
    (p > 0.0).then(|| Bernoulli::new(p))
}

/// One endpoint's [`ArrivalProcess`], advanced one flit step at a time —
/// the one implementation of each process. `None` coins have probability
/// zero and draw nothing.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ArrivalStepper {
    /// Independent injection each step.
    Bernoulli(Option<Bernoulli>),
    /// The on/off chain in its current state.
    OnOff {
        /// Whether the endpoint is *on*.
        on: bool,
        /// Injection coin while *on*.
        fire: Option<Bernoulli>,
        /// `on → off` transition coin.
        to_off: Option<Bernoulli>,
        /// `off → on` transition coin.
        to_on: Option<Bernoulli>,
    },
}

impl ArrivalStepper {
    /// Whether the endpoint injects at the current step; then moves to
    /// the next one. Draws from `rng` in the process's fixed order: the
    /// injection coin (only while *on*), then the transition coin.
    #[inline]
    pub(crate) fn step(&mut self, rng: &mut StdRng) -> bool {
        match self {
            ArrivalStepper::Bernoulli(fire) => fire.is_some_and(|c| c.sample(rng)),
            ArrivalStepper::OnOff {
                on,
                fire,
                to_off,
                to_on,
            } => {
                let fired = *on && fire.is_some_and(|c| c.sample(rng));
                let flip = if *on { to_off } else { to_on };
                if flip.is_some_and(|c| c.sample(rng)) {
                    *on = !*on;
                }
                fired
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_rate_matches() {
        let mut rng = StdRng::seed_from_u64(3);
        let times = ArrivalProcess::bernoulli(0.2).arrival_times(50_000, &mut rng);
        let rate = times.len() as f64 / 50_000.0;
        assert!((rate - 0.2).abs() < 0.01, "measured {rate}");
    }

    #[test]
    fn onoff_mean_load_matches_bernoulli() {
        let p = ArrivalProcess::bursty(0.15, 20.0);
        assert!((p.offered_rate() - 0.15).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(4);
        let times = p.arrival_times(200_000, &mut rng);
        let rate = times.len() as f64 / 200_000.0;
        assert!((rate - 0.15).abs() < 0.01, "measured {rate}");
    }

    #[test]
    fn onoff_is_burstier_than_bernoulli() {
        // Compare variance of arrivals per 100-step bin at equal load.
        let bins = |times: &[u64]| {
            let mut v = vec![0u32; 2000];
            for &t in times {
                v[(t / 100) as usize] += 1;
            }
            let mean = v.iter().sum::<u32>() as f64 / v.len() as f64;
            v.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / v.len() as f64
        };
        let mut rng = StdRng::seed_from_u64(5);
        let smooth = bins(&ArrivalProcess::bernoulli(0.2).arrival_times(200_000, &mut rng));
        let bursty = bins(&ArrivalProcess::bursty(0.2, 50.0).arrival_times(200_000, &mut rng));
        assert!(
            bursty > 2.0 * smooth,
            "on/off variance {bursty} should dwarf Bernoulli {smooth}"
        );
    }

    #[test]
    fn times_are_strictly_increasing_and_in_window() {
        let mut rng = StdRng::seed_from_u64(6);
        for p in [
            ArrivalProcess::bernoulli(0.5),
            ArrivalProcess::bursty(0.3, 10.0),
        ] {
            let times = p.arrival_times(1000, &mut rng);
            assert!(times.windows(2).all(|w| w[0] < w[1]));
            assert!(times.iter().all(|&t| t < 1000));
        }
    }

    #[test]
    #[should_panic(expected = "peak is 2·rate")]
    fn bursty_rejects_unattainable_mean() {
        ArrivalProcess::bursty(0.6, 10.0);
    }

    #[test]
    fn zero_rate_is_silent() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(ArrivalProcess::bernoulli(0.0)
            .arrival_times(1000, &mut rng)
            .is_empty());
    }
}
