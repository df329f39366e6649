//! Median / quartile estimator for repeated timings.

use crate::json::Json;

/// Order statistics of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub reps: usize,
    /// Median (mean of the two middle samples when `reps` is even).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples` (any order; must be non-empty and finite).
    ///
    /// Quartiles follow Python's `statistics.quantiles(values, n=4)`
    /// (the default exclusive method, `p·(n+1)` positions clamped to the
    /// sample range), because that is what the acceptance rule for this
    /// benchmark is computed with; a single sample is its own quartiles.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut xs = samples.to_vec();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let n = xs.len();
        let median = if n % 2 == 1 {
            xs[n / 2]
        } else {
            (xs[n / 2 - 1] + xs[n / 2]) / 2.0
        };
        let quartile = |i: usize| {
            if n == 1 {
                return xs[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
        };
        Summary {
            reps: n,
            median,
            q1: quartile(1),
            q3: quartile(3),
            min: xs[0],
            max: xs[n - 1],
        }
    }

    /// A value that was not sampled (a count, or a ratio of medians).
    pub fn exact(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// Interquartile distance as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// Appends the summary to a result-file row.
    pub fn append_to(&self, row: Json) -> Json {
        row.with("median", self.median)
            .with("reps", self.reps as u64)
            .with("q1", self.q1)
            .with("q3", self.q3)
            .with("min", self.min)
            .with("max", self.max)
    }

    /// The summary alone, as a row.
    pub fn to_json(&self) -> Json {
        self.append_to(Json::obj())
    }

    /// Reads back what [`Summary::to_json`] wrote.
    pub fn from_json(v: &Json) -> Option<Summary> {
        let num = |k: &str| v.get(k).and_then(Json::as_f64);
        Some(Summary {
            reps: num("reps")? as usize,
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            min: num("min")?,
            max: num("max")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample_count() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.min, s.max, s.reps), (1.0, 5.0, 5));
    }

    #[test]
    fn even_sample_count() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: with two
        // samples the exclusive method extrapolates past them.
        let s = Summary::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn one_sample_is_its_own_quartiles() {
        let s = Summary::of(&[0.25]);
        assert_eq!((s.q1, s.median, s.q3, s.reps), (0.25, 0.25, 0.25, 1));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.spread(), 1.0);
    }
}
