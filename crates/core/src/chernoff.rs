//! The Lovász-Local-Lemma certificate for Case 1 of Lemma 2.1.5, checked
//! against the paper's `r` ([`crate::refine::r_case1`]). Test-only: the
//! refinement resamples until the coloring is good and never evaluates
//! the bound itself.

#[cfg(test)]
mod tests {
    use crate::refine::r_case1;

    /// The left side `4·q·b` of the LLL condition for Lemma 2.1.5's bad
    /// event — more than `mf` of `ms` messages in one of `r` classes on
    /// one edge, `q ≤ C(ms, mf)·r^{−mf}` — with `b = ms·D` dependent
    /// events; below 1 it certifies Lemma 2.1.1 applies.
    fn lll_lhs(ms: u64, mf: u64, d: u64, r: f64) -> f64 {
        let ln_choose: f64 = (0..mf)
            .map(|i| ((ms - i) as f64 / (i + 1) as f64).ln())
            .sum();
        (4f64.ln() + ln_choose - mf as f64 * r.ln() + ((ms * d) as f64).ln()).exp()
    }

    #[test]
    fn lll_condition_holds_with_paper_r_case1() {
        // Case 1 of Lemma 2.1.5: ms ≤ log D, mf = B (the paper computes
        // 4qb ≤ 4/3^B).
        for (ms, d, b) in [(8u32, 100_000u32, 2u32), (6, 1 << 20, 3), (4, 4096, 1)] {
            let r = r_case1(ms, d, b) as f64;
            let lhs = lll_lhs(ms.into(), b.into(), d.into(), r);
            assert!(lhs < 1.0, "LLL fails: ms={ms} d={d} b={b} lhs={lhs}");
        }
    }

    #[test]
    fn lll_fails_with_tiny_r() {
        // The certificate has teeth: r = 1 cannot satisfy it on a
        // congested instance.
        assert!(lll_lhs(64, 2, 64, 1.0) >= 1.0);
    }
}
