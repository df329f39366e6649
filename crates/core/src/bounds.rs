//! The paper's bound formulas, evaluated numerically (constant = 1 unless
//! the paper fixes one). The experiment harness reports these next to
//! measured values; only *shapes* (exponents, orderings, crossovers) are
//! claimed (README, "Reproducing the paper").

/// Natural log clamped below at 1 so `log D`-style factors never vanish on
/// tiny instances.
#[inline]
fn ln1(x: f64) -> f64 {
    x.ln().max(1.0)
}

/// `log2` clamped below at 1.
#[inline]
pub fn log2_1(x: f64) -> f64 {
    x.log2().max(1.0)
}

/// Thm 2.1.6 upper bound on wormhole schedule length, in flit steps:
/// `O((L+D)·C·(D·C)^{1/B}/B)` for `C ≤ log D`, and
/// `O((L+D)·C·(D·log D)^{1/B}/B)` otherwise.
pub fn general_upper_bound(l: u32, c: u32, d: u32, b: u32) -> f64 {
    let (lf, cf, df, bf) = (l as f64, c as f64, d as f64, b as f64);
    let inner = if cf <= ln1(df) / std::f64::consts::LN_2 {
        df * cf
    } else {
        df * ln1(df)
    };
    (lf + df) * cf * inner.powf(1.0 / bf) / bf
}

/// The color-class count of Thm 2.1.6 (schedule length divided by the
/// per-class `L+D−1` release spacing): `O(C·(D log D)^{1/B}/B)`.
pub fn general_upper_bound_colors(c: u32, d: u32, b: u32) -> f64 {
    let (cf, df, bf) = (c as f64, d as f64, b as f64);
    let inner = if cf <= ln1(df) / std::f64::consts::LN_2 {
        df * cf
    } else {
        df * ln1(df)
    };
    cf * inner.powf(1.0 / bf) / bf
}

/// Thm 2.2.1 lower bound: `Ω(L·C·D^{1/B}/B)` flit steps.
pub fn general_lower_bound(l: u32, c: u32, d: u32, b: u32) -> f64 {
    let (lf, cf, df, bf) = (l as f64, c as f64, d as f64, b as f64);
    lf * cf * df.powf(1.0 / bf) / bf
}

/// The §1.4 virtual-channel speedup prediction `B·D^{1−1/B}` relative to
/// `B = 1` on the worst-case instance.
pub fn superlinear_speedup(d: u32, b: u32) -> f64 {
    let (df, bf) = (d as f64, b as f64);
    bf * df.powf(1.0 - 1.0 / bf)
}

/// Store-and-forward optimal schedule bound `O(L·(C+D))` flit steps
/// (Leighton–Maggs–Rao `O(C+D)` message steps).
pub fn store_forward_bound(l: u32, c: u32, d: u32) -> f64 {
    l as f64 * (c as f64 + d as f64)
}

/// Thm 3.1.1 butterfly upper bound:
/// `O(L(q+log n)·log^{1/B} n·log log(nq)/B)` flit steps.
pub fn butterfly_upper_bound(l: u32, q: u32, n: u32, b: u32) -> f64 {
    let (lf, qf, nf, bf) = (l as f64, q as f64, n as f64, b as f64);
    let logn = log2_1(nf);
    let w1 = log2_1(log2_1(nf * qf));
    lf * (qf + logn) * logn.powf(1.0 / bf) * w1 / bf
}

/// The paper's choice of subround color count for the §3.1 algorithm:
/// `Δ = β·q·log^{1/B} n / B`.
pub fn butterfly_delta(q: u32, n: u32, b: u32, beta: f64) -> u32 {
    let delta = beta * q as f64 * log2_1(n as f64).powf(1.0 / b as f64) / b as f64;
    (delta.ceil() as u32).max(1)
}

/// Number of rounds of the §3.1 algorithm: `2·log log(nq) + 1`.
pub fn butterfly_rounds(n: u32, q: u32) -> u32 {
    (2.0 * log2_1(log2_1(n as f64 * q as f64))).ceil() as u32 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_bound_decreases_superlinearly_in_b() {
        let t1 = general_upper_bound(64, 64, 64, 1);
        let t2 = general_upper_bound(64, 64, 64, 2);
        let t4 = general_upper_bound(64, 64, 64, 4);
        assert!(t1 > t2 && t2 > t4);
        // Superlinear: doubling B from 1 to 2 gains more than 2x.
        assert!(t1 / t2 > 2.0, "speedup {} not superlinear", t1 / t2);
    }

    #[test]
    fn lower_bound_below_upper_bound() {
        for b in 1..=5 {
            for (l, c, d) in [(128u32, 32u32, 64u32), (64, 16, 16), (256, 8, 100)] {
                assert!(
                    general_lower_bound(l, c, d, b) <= general_upper_bound(l, c, d, b) * 4.0,
                    "bounds crossed at L={l} C={c} D={d} B={b}"
                );
            }
        }
    }

    #[test]
    fn b1_recovers_classic_bounds() {
        // B = 1: upper O((L+D)·C·D log D), lower Ω(LCD) — the Ranade et al.
        // regime.
        let lb = general_lower_bound(100, 10, 50, 1);
        assert!((lb - 100.0 * 10.0 * 50.0).abs() < 1e-6);
        let su = superlinear_speedup(50, 1);
        assert!((su - 1.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_grows_with_d() {
        assert!(superlinear_speedup(1000, 2) > superlinear_speedup(100, 2));
        // B=2, D=100: speedup 2*10 = 20.
        assert!((superlinear_speedup(100, 2) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn naive_vs_lll_ordering() {
        // At B = 1 the theorem's bound (L+D)·C·D·log D is actually *worse*
        // than the naive (L+D)·C·D by the log factor — the win comes from
        // the 1/B exponent, so from B = 2 the LLL schedule dominates.
        // Footnote 5's naive coloring: `D(C−1)+1` classes of `L+D` steps.
        let naive = (32.0 + 512.0) * (512.0 * 63.0 + 1.0);
        assert!(naive <= general_upper_bound(32, 64, 512, 1));
        for b in 2..=5 {
            let lll = general_upper_bound(32, 64, 512, b);
            assert!(naive > lll, "B={b}: naive {naive} vs LLL {lll}");
        }
    }

    #[test]
    fn store_forward_beats_wormhole_on_worst_case() {
        // E4's shape: L(C+D) < LCD for C,D ≥ 2.
        assert!(store_forward_bound(64, 16, 100) < general_lower_bound(64, 16, 100, 1));
    }

    #[test]
    fn butterfly_bounds_sane() {
        use crate::butterfly::lower_bound::{phase_lower_bound, s_threshold};
        // Thm 3.2.1's one-pass lower bound as e6 evaluates it: `T ≥ nqL/s`
        // at the Thm 3.2.5 collision threshold `s`.
        let lower =
            |msg_len, q| phase_lower_bound(1024, q, msg_len, s_threshold(1024, q, 1, msg_len));
        let up = butterfly_upper_bound(10, 10, 1024, 1);
        let lo = lower(10, 10);
        assert!(up > 0.0 && lo > 0.0);
        assert!(lo <= up);
        // More VCs helps the upper bound.
        assert!(butterfly_upper_bound(10, 10, 1024, 2) < up);
        // The lower bound grows with q and L.
        assert!(lower(10, 20) > lo);
        assert!(lower(20, 10) > lo);
    }

    #[test]
    fn delta_and_rounds() {
        let d = butterfly_delta(10, 1024, 1, 1.0);
        assert_eq!(d, 100); // q * log n = 10 * 10
        assert!(butterfly_delta(10, 1024, 2, 1.0) < d);
        let r = butterfly_rounds(1024, 10);
        // log2(10240) ≈ 13.3, loglog ≈ 3.7 → 2*3.7+1 → 9
        assert!((8..=10).contains(&r));
        assert!(butterfly_delta(1, 2, 1, 0.0) >= 1);
    }

    #[test]
    fn log_clamps() {
        assert_eq!(log2_1(1.0), 1.0);
        assert_eq!(log2_1(0.5), 1.0);
        assert!(log2_1(1024.0) == 10.0);
    }
}
