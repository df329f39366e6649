//! Small combinatorics toolkit: binomial coefficients and enumeration /
//! ranking of fixed-size subsets. Used by the Theorem 2.2.1 lower-bound
//! construction, which allocates one *primary edge* per `(B+1)`-subset of
//! base messages.

/// Binomial coefficient `C(n, k)` with saturation at `u64::MAX`.
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

/// Enumerates all `k`-subsets of `0..n` in lexicographic order.
///
/// Each subset is emitted as a sorted `Vec<u32>`. The enumeration order
/// defines the *rank* used by [`subset_rank`].
pub fn enumerate_subsets(n: u32, k: u32) -> Vec<Vec<u32>> {
    let mut out = Vec::with_capacity(binomial(n as u64, k as u64).min(1 << 24) as usize);
    if k > n {
        return out;
    }
    if k == 0 {
        out.push(Vec::new());
        return out;
    }
    let mut cur: Vec<u32> = (0..k).collect();
    loop {
        out.push(cur.clone());
        // Advance to next lexicographic k-subset.
        let mut i = k as usize;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if cur[i] != n - (k - i as u32) {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        cur[i] += 1;
        for j in i + 1..k as usize {
            cur[j] = cur[j - 1] + 1;
        }
    }
}

/// Lexicographic rank of a sorted `k`-subset of `0..n` (inverse of the
/// order produced by [`enumerate_subsets`]).
pub fn subset_rank(n: u32, subset: &[u32]) -> u64 {
    let k = subset.len() as u64;
    let mut rank = 0u64;
    let mut prev = 0u32; // smallest value allowed at this position
    for (i, &v) in subset.iter().enumerate() {
        let remaining = k - i as u64 - 1;
        for skipped in prev..v {
            rank += binomial((n - skipped - 1) as u64, remaining);
        }
        prev = v + 1;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 3), 120);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
    }

    #[test]
    fn binomial_saturates() {
        assert_eq!(binomial(500, 250), u64::MAX);
    }

    #[test]
    fn enumeration_count_and_order() {
        let subs = enumerate_subsets(5, 3);
        assert_eq!(subs.len() as u64, binomial(5, 3));
        assert_eq!(subs[0], vec![0, 1, 2]);
        assert_eq!(subs[subs.len() - 1], vec![2, 3, 4]);
        // Strictly lexicographically increasing.
        for w in subs.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn enumeration_edge_cases() {
        assert_eq!(enumerate_subsets(4, 0), vec![Vec::<u32>::new()]);
        assert_eq!(enumerate_subsets(3, 4).len(), 0);
        assert_eq!(enumerate_subsets(3, 3), vec![vec![0, 1, 2]]);
        assert_eq!(enumerate_subsets(1, 1), vec![vec![0]]);
    }

    #[test]
    fn rank_is_inverse_of_enumeration() {
        for (n, k) in [(6u32, 3u32), (7, 2), (5, 5), (8, 1), (9, 4)] {
            for (i, s) in enumerate_subsets(n, k).iter().enumerate() {
                assert_eq!(subset_rank(n, s), i as u64, "n={n} k={k} s={s:?}");
            }
        }
    }
}
