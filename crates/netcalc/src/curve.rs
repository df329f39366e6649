//! Piecewise-linear arrival curves: minima of leaky buckets `γ_{b,r}`.
//!
//! An [`ArrivalCurve`] `α` upper-bounds traffic: the number of messages
//! released in any closed window of span `Δ` is at most `α(Δ)` (so
//! `α(0)` covers a single step). It is stored as the lower envelope of
//! finitely many affine token buckets, which is concave, nondecreasing,
//! and closed under the operations the bound engine needs: addition
//! (aggregation), scaling (weighting by an occupancy), and deconvolution
//! by a pure delay (window widening). The closure ([`crate::bounds`])
//! reads nothing else: it intersects sums of these envelopes with the
//! `B`-rate line, and no service curve enters it.
//!
//! All operations here are *exact* on the stored representations (no
//! sampling).
//!
//! # The sum accumulator
//!
//! Pointwise sums have one implementation, `ConcaveSum`: a concave
//! piecewise-linear curve is its value at 0, its initial slope, and one
//! `(breakpoint, slope drop)` event per later segment, and a sum of such
//! curves is the sum of the first two plus the union of the events. Each
//! summand `w·α(t + d)` is read straight off `α`'s canonical buckets
//! (the segments that ended at or before `d` contribute nothing, the
//! active one gives the value and slope at 0, later breakpoints move
//! left by `d`), the events are sorted once, and walking them in order
//! emits one tangent line per distinct breakpoint. That output is
//! canonical **by construction** — every slope drop is positive, so
//! rates strictly decrease; every breakpoint is positive and larger than
//! the last, so bursts strictly increase and each line is active on its
//! own interval — which is why no sort-and-prune pass follows it, and why
//! the bound engine's per-edge sweep ([`crate::bounds`]) can reuse one
//! accumulator and one output buffer for the whole fixed-point
//! iteration without allocating.

/// One affine token bucket `γ_{b,r}`: `t ↦ b + r·t` (burst `b`, rate `r`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TokenBucket {
    /// Burst allowance `b ≥ 0` (messages).
    pub burst: f64,
    /// Long-run rate `r ≥ 0` (messages per step).
    pub rate: f64,
}

impl TokenBucket {
    /// A bucket with the given burst and rate (both finite and `≥ 0`).
    pub fn new(burst: f64, rate: f64) -> Self {
        assert!(burst.is_finite() && burst >= 0.0, "burst must be ≥ 0");
        assert!(rate.is_finite() && rate >= 0.0, "rate must be ≥ 0");
        Self { burst, rate }
    }

    /// Evaluates `b + r·t`.
    #[inline]
    pub fn eval(&self, t: f64) -> f64 {
        self.burst + self.rate * t
    }
}

/// A concave, nondecreasing piecewise-linear arrival curve: the lower
/// envelope (pointwise minimum) of finitely many [`TokenBucket`]s.
#[derive(Clone, Debug)]
pub struct ArrivalCurve {
    /// Envelope buckets, canonical: rates strictly decreasing, bursts
    /// strictly increasing, every bucket active on some interval.
    buckets: Vec<TokenBucket>,
}

impl ArrivalCurve {
    /// The envelope of the given buckets (at least one required).
    pub fn from_buckets(buckets: Vec<TokenBucket>) -> Self {
        assert!(!buckets.is_empty(), "an arrival curve needs ≥ 1 bucket");
        Self {
            buckets: canonicalize(buckets),
        }
    }

    /// A single leaky bucket `γ_{b,r}`.
    pub fn token_bucket(burst: f64, rate: f64) -> Self {
        Self::from_buckets(vec![TokenBucket::new(burst, rate)])
    }

    /// The tightest concave envelope of a finite arrival trace: given the
    /// (sorted, nondecreasing) release steps of one flow, returns the
    /// minimal concave `α` with `|{i : t_i ∈ [a, a+Δ]}| ≤ α(Δ)` for every
    /// closed window. Built from the minimal span `s(c)` holding `c`
    /// arrivals (`c = 1..m`) via the upper concave hull of the points
    /// `(s(c), c)`, plus the flat bucket `γ_{m,0}` — a finite trace has
    /// zero long-run rate, so every bound derived from a trace envelope
    /// is finite.
    pub fn from_trace(times: &[u64]) -> Self {
        let m = times.len();
        assert!(m >= 1, "an empty trace has no arrival curve");
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "trace must be sorted"
        );
        // A lone release: the general path below builds exactly this
        // bucket, by way of a hull and a canonicalization.
        if m == 1 {
            return Self {
                buckets: vec![TokenBucket::new(1.0, 0.0)],
            };
        }
        // Minimal span per count; spans are nondecreasing in c, so the
        // points are x-sorted. Equal spans keep only the largest count.
        let mut pts: Vec<(f64, f64)> = Vec::with_capacity(m);
        for c in 1..=m {
            let s = (0..=m - c)
                .map(|i| times[i + c - 1] - times[i])
                .min()
                .expect("c ≤ m") as f64;
            match pts.last_mut() {
                Some(last) if last.0 == s => last.1 = c as f64,
                _ => pts.push((s, c as f64)),
            }
        }
        // Upper concave hull (slopes strictly decreasing left to right).
        let mut hull: Vec<(f64, f64)> = Vec::with_capacity(pts.len());
        for p in pts {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // Pop b when it is under (or on) chord a—p.
                if (b.1 - a.1) * (p.0 - b.0) <= (p.1 - b.1) * (b.0 - a.0) {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(p);
        }
        let mut buckets = vec![TokenBucket::new(m as f64, 0.0)];
        for w in hull.windows(2) {
            let (x1, y1) = w[0];
            let (x2, y2) = w[1];
            let rate = (y2 - y1) / (x2 - x1);
            buckets.push(TokenBucket::new(y1 - rate * x1, rate));
        }
        Self::from_buckets(buckets)
    }

    /// The envelope buckets (canonical form).
    pub fn buckets(&self) -> &[TokenBucket] {
        &self.buckets
    }

    /// Evaluates `α(t) = min_i (b_i + r_i·t)`.
    pub fn eval(&self, t: f64) -> f64 {
        self.buckets
            .iter()
            .map(|tb| tb.eval(t))
            .fold(f64::INFINITY, f64::min)
    }

    /// Pointwise sum (aggregation of independent flows) — exact on the
    /// merged segment breakpoints of both envelopes (a two-curve
    /// `ConcaveSum`).
    pub fn add(&self, other: &ArrivalCurve) -> ArrivalCurve {
        let mut sum = ConcaveSum::default();
        sum.push(&self.buckets, 0.0, 1.0);
        sum.push(&other.buckets, 0.0, 1.0);
        let mut buckets = Vec::new();
        sum.envelope_into(&mut buckets);
        ArrivalCurve { buckets }
    }

    /// Scales the curve by a positive factor: `(c·α)(t) = c·α(t)`. The
    /// buckets keep their order, so only the linear envelope pass runs
    /// (it absorbs two rates that round to the same product).
    pub fn scale(&self, c: f64) -> ArrivalCurve {
        assert!(c > 0.0 && c.is_finite(), "scale factor must be positive");
        ArrivalCurve {
            buckets: lower_envelope(
                self.buckets
                    .iter()
                    .map(|tb| TokenBucket::new(tb.burst * c, tb.rate * c)),
            ),
        }
    }

    /// Deconvolution by a pure delay `δ_d`: `(α ⊘ δ_d)(t) = α(t + d)` —
    /// each bucket's burst grows by `r·d`. Rates are untouched, so the
    /// buckets stay sorted and only the linear envelope pass runs; it
    /// drops the buckets whose segment ended at or before `d`.
    pub fn deconvolve_delay(&self, d: f64) -> ArrivalCurve {
        assert!(d >= 0.0 && d.is_finite(), "delay must be ≥ 0");
        ArrivalCurve {
            buckets: lower_envelope(
                self.buckets
                    .iter()
                    .map(|tb| TokenBucket::new(tb.burst + tb.rate * d, tb.rate)),
            ),
        }
    }
}

/// A running pointwise sum of concave piecewise-linear curves, kept as
/// the sum's value and slope at 0 plus one `(breakpoint, slope drop)`
/// event per later segment of every summand (see the module docs). The
/// event buffer is reused across [`ConcaveSum::clear`]s, so a caller
/// that keeps one accumulator allocates only while it grows.
#[derive(Clone, Debug, Default)]
pub(crate) struct ConcaveSum {
    /// Σ of the summands' values at 0.
    value0: f64,
    /// Σ of the summands' slopes just after 0.
    slope0: f64,
    /// `(x, drop)`: at `x > 0` the sum's slope falls by `drop > 0`.
    events: Vec<(f64, f64)>,
}

impl ConcaveSum {
    /// An empty sum with room for `events` breakpoint events.
    pub(crate) fn with_capacity(events: usize) -> Self {
        Self {
            events: Vec::with_capacity(events),
            ..Self::default()
        }
    }

    /// Room in the event buffer (the zero-allocation test reads it).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Resets to the zero curve, keeping the event buffer.
    pub(crate) fn clear(&mut self) {
        self.value0 = 0.0;
        self.slope0 = 0.0;
        self.events.clear();
    }

    /// Adds `t ↦ weight · α(t + shift)` for the canonical envelope
    /// `buckets` of `α` (`weight > 0`, `shift ≥ 0`). Buckets whose
    /// segment ended at or before `shift` drop out; the one active at
    /// `shift` sets the value and slope at 0; each later breakpoint
    /// becomes an event `shift` to the left.
    pub(crate) fn push(&mut self, buckets: &[TokenBucket], shift: f64, weight: f64) {
        let mut active = buckets[0];
        for w in buckets.windows(2) {
            let x = crossover(w[0], w[1]);
            if x <= shift {
                active = w[1];
            } else {
                self.events
                    .push((x - shift, weight * (w[0].rate - w[1].rate)));
            }
        }
        self.value0 += weight * active.eval(shift);
        self.slope0 += weight * active.rate;
    }

    /// Writes the sum's canonical envelope to `out` (cleared first) and
    /// returns how many breakpoint events it swept. Sorts the events
    /// once, folds coincident breakpoints into one, and emits the
    /// tangent after each: same value at the breakpoint, slope lower by
    /// the drop. A drop lost to rounding emits nothing, and a final
    /// slope that cancels to a hair below zero is clamped, so the rates
    /// of `out` strictly decrease and stay `≥ 0` whatever the rounding.
    pub(crate) fn envelope_into(&mut self, out: &mut Vec<TokenBucket>) -> usize {
        // Ties on the breakpoint are ordered by drop so that the merged
        // drop never depends on the order the summands were pushed in.
        self.events
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let (mut burst, mut rate) = (self.value0, self.slope0);
        out.clear();
        out.push(TokenBucket::new(burst, rate));
        for coincident in self.events.chunk_by(|a, b| a.0 == b.0) {
            let x = coincident[0].0;
            let drop: f64 = coincident.iter().map(|e| e.1).sum();
            burst += drop * x;
            let lower = (rate - drop).max(0.0);
            if lower < rate {
                rate = lower;
                out.push(TokenBucket::new(burst, rate));
            }
        }
        self.events.len()
    }
}

/// Reduces a set of buckets to its lower envelope: rates strictly
/// decreasing, bursts strictly increasing, each line active somewhere on
/// `[0, ∞)`.
fn canonicalize(mut buckets: Vec<TokenBucket>) -> Vec<TokenBucket> {
    buckets.sort_by(|a, b| {
        b.rate
            .partial_cmp(&a.rate)
            .expect("finite rates")
            .then(a.burst.partial_cmp(&b.burst).expect("finite bursts"))
    });
    lower_envelope(buckets)
}

/// The lower envelope of lines already sorted by rate descending, then
/// burst ascending — the classic line-envelope stack, linear in the
/// input.
fn lower_envelope(sorted: impl IntoIterator<Item = TokenBucket>) -> Vec<TokenBucket> {
    // `active[i]` is where stack line i takes over from line i−1.
    let mut stack: Vec<TokenBucket> = Vec::new();
    let mut active: Vec<f64> = Vec::new();
    for line in sorted {
        loop {
            match stack.last() {
                None => {
                    stack.push(line);
                    active.push(0.0);
                    break;
                }
                // Same rate: only the smallest burst (the earlier line)
                // can be in the envelope.
                Some(top) if line.rate == top.rate => break,
                Some(top) => {
                    if line.burst <= top.burst {
                        // Smaller rate and no larger burst: dominates top.
                        stack.pop();
                        active.pop();
                        continue;
                    }
                    let x = crossover(*top, line);
                    if x <= *active.last().expect("parallel stacks") {
                        stack.pop();
                        active.pop();
                        continue;
                    }
                    stack.push(line);
                    active.push(x);
                    break;
                }
            }
        }
    }
    stack
}

/// Where the shallower line `next` takes over from the steeper `prev`.
#[inline]
fn crossover(prev: TokenBucket, next: TokenBucket) -> f64 {
    (next.burst - prev.burst) / (prev.rate - next.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_curves_eq(a: &ArrivalCurve, b: &ArrivalCurve) {
        for i in 0..400 {
            let t = i as f64 * 0.37;
            assert!(
                (a.eval(t) - b.eval(t)).abs() < 1e-9 * (1.0 + a.eval(t).abs()),
                "curves differ at t={t}: {} vs {}",
                a.eval(t),
                b.eval(t)
            );
        }
    }

    #[test]
    fn envelope_drops_dominated_lines() {
        let a = ArrivalCurve::from_buckets(vec![
            TokenBucket::new(5.0, 1.0),
            TokenBucket::new(4.0, 1.0),  // same rate, smaller burst wins
            TokenBucket::new(10.0, 0.5), // crosses the 1.0-line at t = 12
            TokenBucket::new(50.0, 0.4), // crosses the 0.5-line at t = 400
        ]);
        assert_eq!(a.buckets().len(), 3);
        assert_eq!(a.eval(0.0), 4.0);
        assert_eq!(a.eval(12.0), 16.0);
        assert_eq!(a.eval(100.0), 10.0 + 50.0);
        assert_eq!(a.eval(500.0), 50.0 + 200.0);
        // Canonical rates fall, so the last bucket's is the long-run rate.
        assert_eq!(a.buckets().last().unwrap().rate, 0.4);
    }

    #[test]
    fn add_is_exact_pointwise() {
        let a = ArrivalCurve::from_buckets(vec![
            TokenBucket::new(2.0, 1.0),
            TokenBucket::new(8.0, 0.25),
        ]);
        let b = ArrivalCurve::from_buckets(vec![
            TokenBucket::new(1.0, 2.0),
            TokenBucket::new(5.0, 0.5),
        ]);
        let sum = a.add(&b);
        for i in 0..200 {
            let t = i as f64 * 0.13;
            assert!(
                (sum.eval(t) - (a.eval(t) + b.eval(t))).abs() < 1e-9,
                "sum wrong at t={t}"
            );
        }
    }

    /// Rates strictly decreasing, bursts and breakpoints strictly
    /// increasing: the invariant `ArrivalCurve` stores.
    fn assert_canonical(buckets: &[TokenBucket]) {
        for w in buckets.windows(2) {
            assert!(w[1].rate < w[0].rate, "rates must fall: {buckets:?}");
            assert!(w[1].burst > w[0].burst, "bursts must rise: {buckets:?}");
        }
        let xs: Vec<f64> = buckets.windows(2).map(|w| crossover(w[0], w[1])).collect();
        assert!(xs.windows(2).all(|w| w[0] < w[1]), "breakpoints: {xs:?}");
    }

    fn two_piece() -> ArrivalCurve {
        // 2 + t until t = 8, then 8 + t/4.
        ArrivalCurve::from_buckets(vec![
            TokenBucket::new(2.0, 1.0),
            TokenBucket::new(8.0, 0.25),
        ])
    }

    #[test]
    fn sum_merges_coincident_breakpoints_across_curves() {
        // Both summands break at t = 8 — the second only after its
        // shift (8 + 4·t until t = 10, read from t = 2 on).
        let late = ArrivalCurve::from_buckets(vec![
            TokenBucket::new(8.0, 4.0),
            TokenBucket::new(38.0, 1.0),
        ]);
        let mut sum = ConcaveSum::default();
        sum.push(two_piece().buckets(), 0.0, 1.0);
        sum.push(late.buckets(), 2.0, 3.0);
        let mut out = Vec::new();
        assert_eq!(sum.envelope_into(&mut out), 2);
        assert_eq!(
            out,
            vec![
                TokenBucket::new(2.0 + 3.0 * 16.0, 1.0 + 12.0),
                TokenBucket::new(8.0 + 3.0 * 40.0, 0.25 + 3.0),
            ]
        );
        assert_canonical(&out);
    }

    #[test]
    fn sum_drops_buckets_that_end_at_or_before_the_shift() {
        let a = two_piece();
        let mut out = Vec::new();
        for (shift, want) in [
            // Short of the breakpoint: both pieces, the break 4 earlier.
            (
                4.0,
                vec![TokenBucket::new(12.0, 2.0), TokenBucket::new(18.0, 0.5)],
            ),
            // Exactly on it, and past it: only the second piece is left.
            (8.0, vec![TokenBucket::new(20.0, 0.5)]),
            (12.0, vec![TokenBucket::new(22.0, 0.5)]),
        ] {
            let mut sum = ConcaveSum::default();
            sum.push(a.buckets(), shift, 2.0);
            assert_eq!(sum.envelope_into(&mut out), want.len() - 1);
            assert_eq!(out, want, "shift {shift}");
            assert_eq!(out, a.deconvolve_delay(shift).scale(2.0).buckets());
        }
    }

    #[test]
    fn sum_of_flat_buckets_has_no_events() {
        // A one-message trace is the flat bucket γ_{1,0}: nothing to
        // sort, and the output buffer is reused, not regrown.
        let lone = ArrivalCurve::from_trace(&[3]);
        let mut sum = ConcaveSum::with_capacity(0);
        let mut out = vec![TokenBucket::new(9.0, 9.0); 4];
        sum.push(lone.buckets(), 11.0, 5.0);
        sum.push(lone.buckets(), 40.0, 6.0);
        assert_eq!(sum.envelope_into(&mut out), 0);
        assert_eq!(out, vec![TokenBucket::new(11.0, 0.0)]);
        assert_eq!(sum.capacity(), 0);
        sum.clear();
        sum.push(lone.buckets(), 0.0, 1.0);
        sum.envelope_into(&mut out);
        assert_eq!(out, lone.buckets());
    }

    #[test]
    fn sum_matches_the_composed_algebra() {
        let curves = [
            (two_piece(), 3.0, 5.0),
            (ArrivalCurve::from_trace(&[0, 1, 2, 10, 11, 30]), 1.5, 2.0),
            (ArrivalCurve::from_trace(&[0, 4, 9, 30, 31]), 12.0, 7.0),
            (ArrivalCurve::token_bucket(1.0, 0.125), 40.0, 1.0),
        ];
        let mut sum = ConcaveSum::default();
        for (curve, shift, weight) in &curves {
            sum.push(curve.buckets(), *shift, *weight);
        }
        let mut out = Vec::new();
        sum.envelope_into(&mut out);
        assert_canonical(&out);
        let composed = curves
            .iter()
            .map(|(curve, shift, weight)| curve.deconvolve_delay(*shift).scale(*weight))
            .reduce(|acc, c| acc.add(&c))
            .unwrap();
        assert_curves_eq(&ArrivalCurve { buckets: out }, &composed);
        for i in 0..400 {
            let t = i as f64 * 0.11;
            let direct: f64 = curves.iter().map(|(c, d, w)| w * c.eval(t + d)).sum();
            assert!((composed.eval(t) - direct).abs() < 1e-9 * direct);
        }
    }

    #[test]
    fn sum_survives_slope_drops_lost_to_rounding() {
        // The second drop is below the rate's rounding step and the last
        // overshoots zero by a hair: no repeated rate, no negative rate.
        let mut sum = ConcaveSum::default();
        sum.push(&[TokenBucket::new(1.0, 1e3)], 0.0, 1.0);
        sum.events = vec![(1.0, 1e-14), (2.0, 999.0), (3.0, 1.0 + 1e-13)];
        let mut out = Vec::new();
        sum.envelope_into(&mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].rate, 0.0);
        assert_canonical(&out);
    }

    #[test]
    fn deconvolve_delay_widens_windows() {
        let a = ArrivalCurve::token_bucket(2.0, 0.5);
        let d = a.deconvolve_delay(10.0);
        for i in 0..50 {
            let t = i as f64;
            assert!((d.eval(t) - a.eval(t + 10.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn trace_envelope_is_tight_and_valid() {
        let times = [0u64, 1, 2, 10, 11, 30];
        let a = ArrivalCurve::from_trace(&times);
        // Validity: every window count is covered.
        for i in 0..times.len() {
            for j in i..times.len() {
                let span = (times[j] - times[i]) as f64;
                let count = (j - i + 1) as f64;
                assert!(
                    a.eval(span) >= count - 1e-9,
                    "window [{},{}] holds {count} > α({span}) = {}",
                    times[i],
                    times[j],
                    a.eval(span)
                );
            }
        }
        // Tightness anchors: single step holds up to 1 message here; the
        // whole trace is 6 messages with zero long-run rate.
        assert!((a.eval(0.0) - 1.0).abs() < 1e-9);
        assert_eq!(a.buckets().last().unwrap().rate, 0.0);
        assert!((a.eval(1e9) - 6.0).abs() < 1e-9);
        // Tightness at the 3-in-2-steps cluster.
        assert!(a.eval(2.0) <= 3.0 + 1e-9);
    }

    #[test]
    fn trace_envelope_handles_bursts_at_one_step() {
        // Two flows merged at the same step (possible across sources).
        let a = ArrivalCurve::from_trace(&[5, 5, 5]);
        assert!((a.eval(0.0) - 3.0).abs() < 1e-9);
        let single = ArrivalCurve::from_trace(&[7]);
        assert!((single.eval(0.0) - 1.0).abs() < 1e-9);
        assert!((single.eval(100.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_lone_release_is_the_flat_unit_bucket_bit_for_bit() {
        let unit = ArrivalCurve::from_buckets(vec![TokenBucket::new(1.0, 0.0)]);
        for t in [0u64, 1, 7, u64::MAX] {
            let lone = ArrivalCurve::from_trace(&[t]);
            assert_eq!(lone.buckets().len(), 1);
            let (a, b) = (lone.buckets()[0], unit.buckets()[0]);
            assert_eq!(
                (a.burst.to_bits(), a.rate.to_bits()),
                (b.burst.to_bits(), b.rate.to_bits()),
                "release {t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "≥ 1 bucket")]
    fn empty_curve_rejected() {
        ArrivalCurve::from_buckets(Vec::new());
    }
}
