//! Routing problems on the butterfly (§1.2): q-relations and random
//! destination problems.

use rand::prelude::*;
use rand::rngs::StdRng;

/// A routing problem on an `n`-input butterfly: message `i` goes from input
/// `pairs[i].0` to output `pairs[i].1`.
#[derive(Clone, Debug)]
pub struct QRelation {
    /// Number of inputs/outputs `n`.
    pub n: u32,
    /// Nominal messages per input `q`.
    pub q: u32,
    /// `(input, output)` per message.
    pub pairs: Vec<(u32, u32)>,
}

impl QRelation {
    /// A uniformly random q-relation: exactly `q` messages at each input and
    /// exactly `q` destined to each output (a random q-regular assignment).
    pub fn random_relation(n: u32, q: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut outputs: Vec<u32> = (0..n)
            .flat_map(|o| std::iter::repeat_n(o, q as usize))
            .collect();
        outputs.shuffle(&mut rng);
        let pairs = (0..n)
            .flat_map(|i| (0..q).map(move |j| (i, j)))
            .zip(outputs)
            .map(|((input, _), output)| (input, output))
            .collect();
        Self { n, q, pairs }
    }

    /// The *random routing problem with q messages per input* (§1.2): each
    /// message independently picks a uniform random output (outputs may
    /// receive more or fewer than `q`).
    pub fn random_destinations(n: u32, q: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = (0..n)
            .flat_map(|i| (0..q).map(move |_| i))
            .map(|i| (i, rng.random_range(0..n)))
            .collect();
        Self { n, q, pairs }
    }

    /// The identity permutation (`q = 1`).
    pub fn identity(n: u32) -> Self {
        Self {
            n,
            q: 1,
            pairs: (0..n).map(|i| (i, i)).collect(),
        }
    }

    /// The bit-reversal permutation (`q = 1`) — a classically hard
    /// permutation for butterflies.
    pub fn bit_reverse(k: u32) -> Self {
        let n = 1u32 << k;
        Self {
            n,
            q: 1,
            pairs: (0..n).map(|i| (i, i.reverse_bits() >> (32 - k))).collect(),
        }
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` if no messages.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Max messages originating at one input.
    pub fn max_per_input(&self) -> u32 {
        let mut cnt = vec![0u32; self.n as usize];
        for &(i, _) in &self.pairs {
            cnt[i as usize] += 1;
        }
        cnt.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Max messages destined to one output.
    fn max_per_output(r: &QRelation) -> u32 {
        let mut cnt = vec![0u32; r.n as usize];
        for &(_, o) in &r.pairs {
            cnt[o as usize] += 1;
        }
        cnt.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn random_relation_is_q_regular() {
        let r = QRelation::random_relation(16, 3, 7);
        assert_eq!(r.len(), 48);
        assert_eq!(r.max_per_input(), 3);
        assert_eq!(max_per_output(&r), 3);
    }

    #[test]
    fn random_destinations_respects_input_side_only() {
        let r = QRelation::random_destinations(32, 2, 8);
        assert_eq!(r.len(), 64);
        assert_eq!(r.max_per_input(), 2);
        // Output side is unconstrained (whp some output exceeds q at this n).
    }

    #[test]
    fn identity_and_bit_reverse() {
        let id = QRelation::identity(8);
        assert_eq!((id.max_per_input(), max_per_output(&id)), (1, 1));
        assert_eq!(id.pairs[5], (5, 5));
        let br = QRelation::bit_reverse(3);
        assert_eq!(br.pairs[1], (1, 4)); // 001 -> 100
        assert_eq!(br.pairs[6], (6, 3)); // 110 -> 011
        assert_eq!((br.max_per_input(), max_per_output(&br)), (1, 1));
    }

    #[test]
    fn determinism() {
        let a = QRelation::random_relation(16, 2, 1);
        let b = QRelation::random_relation(16, 2, 1);
        assert_eq!(a.pairs, b.pairs);
        let c = QRelation::random_relation(16, 2, 2);
        assert_ne!(a.pairs, c.pairs);
    }
}
