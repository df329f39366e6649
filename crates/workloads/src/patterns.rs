//! Synthetic traffic patterns over a dense endpoint space.
//!
//! The standard NoC evaluation suite: address-bit permutations
//! (transpose, bit-reversal, shuffle), a digit pattern for meshes/tori
//! (tornado), randomized patterns (uniform random, random permutation),
//! and hotspot concentration. Deterministic patterns
//! map every source to a fixed destination; stochastic patterns draw a
//! destination per message from a seeded stream.

use rand::prelude::*;
use rand::rngs::StdRng;

use crate::substrate::Substrate;

/// A synthetic traffic pattern (destination selection rule).
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficPattern {
    /// Every message draws an independent uniformly random destination.
    UniformRandom,
    /// A fixed uniformly random permutation (drawn once per workload seed).
    Permutation,
    /// Swap the high and low halves of the address bits: `(a, b) → (b, a)`.
    /// Needs a power-of-two endpoint count with an even number of bits.
    Transpose,
    /// Reverse the address bits. Needs a power-of-two endpoint count.
    BitReversal,
    /// Perfect shuffle: rotate the address bits left by one. Needs a
    /// power-of-two endpoint count.
    Shuffle,
    /// With probability `fraction`, send to a uniformly random member of
    /// `hotspots`; otherwise uniform random over all endpoints.
    Hotspot {
        /// Probability a message targets a hotspot (`0 ≤ fraction ≤ 1`).
        fraction: f64,
        /// The hotspot endpoints (must be non-empty and in range).
        hotspots: Vec<u32>,
    },
    /// Tornado: offset each digit by `⌈radix/2⌉ − 1` (mesh/torus digits
    /// in dimension 0; the endpoint ring elsewhere) — the classic
    /// worst case for minimal routing on rings.
    Tornado,
}

impl TrafficPattern {
    /// Short lowercase name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficPattern::UniformRandom => "uniform",
            TrafficPattern::Permutation => "permutation",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::BitReversal => "bit-reversal",
            TrafficPattern::Shuffle => "shuffle",
            TrafficPattern::Hotspot { .. } => "hotspot",
            TrafficPattern::Tornado => "tornado",
        }
    }
}

/// A pattern bound to a substrate: validates the combination once and
/// serves destination draws.
#[derive(Clone, Debug)]
pub struct PatternSampler {
    pattern: TrafficPattern,
    n: u32,
    /// Fixed destination map for deterministic patterns.
    dest_map: Option<Vec<u32>>,
}

impl PatternSampler {
    /// Binds `pattern` to `substrate`. Deterministic patterns materialize
    /// their destination map here (the random permutation uses `seed`).
    ///
    /// Panics if the pattern's structural requirements do not hold (e.g.
    /// bit patterns on a non-power-of-two endpoint count).
    pub fn new(pattern: TrafficPattern, substrate: &Substrate, seed: u64) -> Self {
        let n = substrate.endpoints();
        assert!(n >= 2, "patterns need at least two endpoints");
        let bits = n.trailing_zeros();
        let is_pow2 = n.is_power_of_two();
        let dest_map = match &pattern {
            TrafficPattern::UniformRandom | TrafficPattern::Hotspot { .. } => {
                if let TrafficPattern::Hotspot { fraction, hotspots } = &pattern {
                    assert!(
                        (0.0..=1.0).contains(fraction),
                        "hotspot fraction is a probability"
                    );
                    assert!(!hotspots.is_empty(), "hotspot list is empty");
                    assert!(
                        hotspots.iter().all(|&h| h < n),
                        "hotspot endpoint out of range"
                    );
                }
                None
            }
            TrafficPattern::Permutation => {
                let mut perm: Vec<u32> = (0..n).collect();
                perm.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x7065_726d));
                Some(perm)
            }
            TrafficPattern::Transpose => {
                assert!(
                    is_pow2 && bits.is_multiple_of(2),
                    "transpose needs 2^(2m) endpoints, got {n}"
                );
                let half = bits / 2;
                let lo_mask = (1u32 << half) - 1;
                Some(
                    (0..n)
                        .map(|s| ((s & lo_mask) << half) | (s >> half))
                        .collect(),
                )
            }
            TrafficPattern::BitReversal => {
                assert!(is_pow2, "bit-reversal needs 2^m endpoints, got {n}");
                Some((0..n).map(|s| s.reverse_bits() >> (32 - bits)).collect())
            }
            TrafficPattern::Shuffle => {
                assert!(is_pow2, "shuffle needs 2^m endpoints, got {n}");
                Some(
                    (0..n)
                        .map(|s| ((s << 1) | (s >> (bits - 1))) & (n - 1))
                        .collect(),
                )
            }
            TrafficPattern::Tornado => Some(tornado_map(substrate)),
        };
        Self {
            pattern,
            n,
            dest_map,
        }
    }

    /// The bound pattern.
    pub fn pattern(&self) -> &TrafficPattern {
        &self.pattern
    }

    /// Destination for a message from `src`; `rng` feeds the stochastic
    /// patterns and is untouched by deterministic ones.
    pub fn draw(&self, src: u32, rng: &mut StdRng) -> u32 {
        debug_assert!(src < self.n);
        match (&self.pattern, &self.dest_map) {
            (_, Some(map)) => map[src as usize],
            (TrafficPattern::UniformRandom, None) => rng.random_range(0..self.n),
            (TrafficPattern::Hotspot { fraction, hotspots }, None) => {
                if rng.random_bool(*fraction) {
                    hotspots[rng.random_range(0..hotspots.len())]
                } else {
                    rng.random_range(0..self.n)
                }
            }
            _ => unreachable!("deterministic patterns always carry a map"),
        }
    }

    /// The fixed destination map, if the pattern is deterministic.
    pub fn dest_map(&self) -> Option<&[u32]> {
        self.dest_map.as_deref()
    }
}

/// Tornado offsets: on a mesh/torus, `+(⌈radix/2⌉ − 1)` in dimension 0
/// (wrapped); elsewhere the endpoint index ring stands in for the radix.
fn tornado_map(substrate: &Substrate) -> Vec<u32> {
    let n = substrate.endpoints();
    match substrate {
        Substrate::Mesh(m) => {
            let radix = m.radix();
            let off = radix.div_ceil(2) - 1;
            (0..n)
                .map(|s| {
                    let d0 = s % radix;
                    (s - d0) + (d0 + off) % radix
                })
                .collect()
        }
        _ => {
            let off = n.div_ceil(2) - 1;
            (0..n).map(|s| (s + off) % n).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(map: &[u32]) -> bool {
        let mut seen = vec![false; map.len()];
        for &d in map {
            if seen[d as usize] {
                return false;
            }
            seen[d as usize] = true;
        }
        true
    }

    #[test]
    fn deterministic_patterns_are_true_permutations() {
        let subs = [
            Substrate::butterfly(4),
            Substrate::hypercube(4),
            Substrate::torus(4, 2),
        ];
        let pats = [
            TrafficPattern::Permutation,
            TrafficPattern::Transpose,
            TrafficPattern::BitReversal,
            TrafficPattern::Shuffle,
            TrafficPattern::Tornado,
        ];
        for s in &subs {
            for p in &pats {
                let sampler = PatternSampler::new(p.clone(), s, 11);
                let map = sampler.dest_map().expect("deterministic pattern");
                assert!(
                    is_permutation(map),
                    "{} on {} is not a permutation",
                    p.name(),
                    s.name()
                );
            }
        }
    }

    #[test]
    fn classic_bit_patterns_match_definitions() {
        let s = Substrate::butterfly(4); // 16 endpoints, 4 bits
        let t = PatternSampler::new(TrafficPattern::Transpose, &s, 0);
        assert_eq!(t.dest_map().unwrap()[0b0111], 0b1101); // (01,11) -> (11,01)
        let r = PatternSampler::new(TrafficPattern::BitReversal, &s, 0);
        assert_eq!(r.dest_map().unwrap()[0b0011], 0b1100);
        let sh = PatternSampler::new(TrafficPattern::Shuffle, &s, 0);
        assert_eq!(sh.dest_map().unwrap()[0b1001], 0b0011);
    }

    #[test]
    fn tornado_on_torus_offsets_dimension_zero() {
        let s = Substrate::torus(8, 2);
        let t = PatternSampler::new(TrafficPattern::Tornado, &s, 0);
        let map = t.dest_map().unwrap();
        // Endpoint (x=1, y=2) = 1 + 2*8 = 17 goes to x = (1+3)%8 = 4, y = 2.
        assert_eq!(map[17], 4 + 2 * 8);
    }

    #[test]
    fn tornado_on_odd_radix_torus() {
        // radix 5 → offset ⌈5/2⌉−1 = 2; only dimension 0 moves.
        let s = Substrate::torus(5, 2);
        let map = PatternSampler::new(TrafficPattern::Tornado, &s, 0)
            .dest_map()
            .unwrap()
            .to_vec();
        assert!(is_permutation(&map));
        for y in 0..5u32 {
            for x in 0..5u32 {
                assert_eq!(map[(x + 5 * y) as usize], (x + 2) % 5 + 5 * y);
            }
        }
        // No fixed points: every endpoint injects.
        assert!(map.iter().enumerate().all(|(s, &d)| s as u32 != d));
    }

    #[test]
    fn tornado_offset_not_coprime_with_radix_still_permutes() {
        // radix 6 → offset 2, gcd(2, 6) = 2: the per-digit rotation is
        // still a bijection of the digit ring, so the map permutes.
        let s = Substrate::torus(6, 2);
        let map = PatternSampler::new(TrafficPattern::Tornado, &s, 0)
            .dest_map()
            .unwrap()
            .to_vec();
        assert!(is_permutation(&map));
        assert_eq!(map[4], 0); // x: 4 → (4+2)%6 = 0
        assert_eq!(map[6 + 5], 6 + 1); // row 1, x: 5 → 1
    }

    #[test]
    fn tornado_on_radix_two_is_the_identity() {
        // Degenerate stride: ⌈2/2⌉−1 = 0 hops — every endpoint maps to
        // itself, so node-based substrates inject nothing.
        let s = Substrate::torus(2, 3);
        let map = PatternSampler::new(TrafficPattern::Tornado, &s, 0)
            .dest_map()
            .unwrap()
            .to_vec();
        assert!(map.iter().enumerate().all(|(i, &d)| i as u32 == d));
        assert!((0..s.endpoints()).all(|e| !s.injects(e, map[e as usize])));
    }

    #[test]
    fn odd_radix_digit_patterns_are_permutations() {
        // Digit patterns must permute on substrates the bit patterns
        // reject: odd radices and odd dimension counts.
        for s in [
            Substrate::torus(5, 2),
            Substrate::torus(3, 3),
            Substrate::torus(7, 1),
            Substrate::mesh(5, 3),
        ] {
            for p in [TrafficPattern::Tornado, TrafficPattern::Permutation] {
                let map = PatternSampler::new(p.clone(), &s, 13)
                    .dest_map()
                    .unwrap()
                    .to_vec();
                assert!(
                    is_permutation(&map),
                    "{} on {} is not a permutation",
                    p.name(),
                    s.name()
                );
            }
        }
    }

    #[test]
    fn transpose_on_square_torus_swaps_coordinates() {
        // 4^2 = 16 endpoints, 4 address bits: the low half is the x digit
        // and the high half the y digit, so the bit-half swap is exactly
        // the (x, y) → (y, x) reflection.
        let s = Substrate::torus(4, 2);
        let map = PatternSampler::new(TrafficPattern::Transpose, &s, 0)
            .dest_map()
            .unwrap()
            .to_vec();
        for y in 0..4u32 {
            for x in 0..4u32 {
                assert_eq!(map[(x + 4 * y) as usize], y + 4 * x);
            }
        }
        // Diagonal endpoints are reflection fixed points — node-based
        // substrates skip them as self-traffic.
        for d in 0..4u32 {
            let e = d + 4 * d;
            assert_eq!(map[e as usize], e);
            assert!(!s.injects(e, e));
        }
    }

    #[test]
    #[should_panic(expected = "transpose needs")]
    fn transpose_rejects_non_square_mesh() {
        // 2^3 = 8 endpoints: a power of two, but 3 bits do not split into
        // equal halves — no coordinate transpose exists.
        PatternSampler::new(TrafficPattern::Transpose, &Substrate::mesh(2, 3), 0);
    }

    #[test]
    fn hotspot_fraction_is_respected() {
        let s = Substrate::butterfly(5);
        let hotspots = vec![3u32, 17];
        let sampler = PatternSampler::new(
            TrafficPattern::Hotspot {
                fraction: 0.4,
                hotspots: hotspots.clone(),
            },
            &s,
            0,
        );
        let mut rng = StdRng::seed_from_u64(5);
        let draws = 200_000;
        let hits = (0..draws)
            .filter(|_| hotspots.contains(&sampler.draw(0, &mut rng)))
            .count();
        // Expected = fraction + (1 - fraction) * |hotspots| / n
        //          = 0.4 + 0.6 * 2/32 = 0.4375.
        let observed = hits as f64 / draws as f64;
        assert!(
            (observed - 0.4375).abs() < 0.01,
            "hotspot hit rate {observed} != 0.4375"
        );
    }

    #[test]
    fn uniform_covers_all_destinations() {
        let s = Substrate::butterfly(3);
        let sampler = PatternSampler::new(TrafficPattern::UniformRandom, &s, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[sampler.draw(0, &mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "transpose needs")]
    fn transpose_rejects_odd_bit_counts() {
        PatternSampler::new(TrafficPattern::Transpose, &Substrate::butterfly(3), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hotspot_rejects_bad_endpoints() {
        PatternSampler::new(
            TrafficPattern::Hotspot {
                fraction: 0.1,
                hotspots: vec![999],
            },
            &Substrate::butterfly(3),
            0,
        );
    }
}
