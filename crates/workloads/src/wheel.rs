//! A hashed timing wheel: the schedule of [`crate::ClosedLoopSource`].
//!
//! `R` buckets, a power of two, one per step of a lap: an entry due at
//! step `r` waits in bucket `r mod R`, whatever lap `r` falls in, behind
//! everything scheduled there before it. The buckets are kept for the
//! whole run, so once each has grown to the most entries it ever holds
//! at once, scheduling allocates nothing; the memory is `O(R)` plus the
//! entries, however far ahead an entry is due.
//!
//! Entries leave in `(step, scheduling order)`: the earliest step first,
//! and within a step in the order they were pushed — the order a
//! `BTreeMap` keyed on `(step, push counter)` pops in, with no counter.
//! A cursor no entry is due before walks the buckets one step at a time,
//! so polling once a step costs one bucket probe a step. A cursor that
//! walks a whole lap without finding its step due knows every entry is
//! at least a lap ahead and jumps straight to the earliest of them: one
//! `O(R + entries)` pass, once per gap of more than a lap.

/// The wheel. See the module docs.
pub(crate) struct TimingWheel<T> {
    /// Bucket `r mod R` holds the entries due at step `r` (for every lap)
    /// as `(r, entry)`, in the order they were pushed.
    buckets: Vec<Vec<(u64, T)>>,
    /// `R − 1`.
    mask: u64,
    /// No entry is due before this step.
    cursor: u64,
    /// Entries held.
    len: usize,
}

impl<T> TimingWheel<T> {
    /// A wheel of `lap.next_power_of_two()` buckets (at least one). Sized
    /// to the most entries it holds at once, a bucket holds one or none
    /// on average.
    pub(crate) fn new(lap: usize) -> Self {
        let lap = lap.max(1).next_power_of_two();
        Self {
            buckets: (0..lap).map(|_| Vec::new()).collect(),
            mask: lap as u64 - 1,
            cursor: 0,
            len: 0,
        }
    }

    /// Schedules `entry` at step `at`, behind everything already due then.
    pub(crate) fn push(&mut self, at: u64, entry: T) {
        self.cursor = self.cursor.min(at);
        self.buckets[(at & self.mask) as usize].push((at, entry));
        self.len += 1;
    }

    /// The earliest step anything is due at, or `None` when empty.
    pub(crate) fn peek(&mut self) -> Option<u64> {
        self.first_due().map(|(at, _)| at)
    }

    /// Removes and returns the first-pushed entry of the earliest step, if
    /// that step is at most `now`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<(u64, T)> {
        let (at, i) = self.first_due().filter(|&(at, _)| at <= now)?;
        self.len -= 1;
        Some(self.buckets[(at & self.mask) as usize].remove(i))
    }

    /// The earliest step anything is due at and the position of its first
    /// entry in its bucket; moves the cursor up to that step.
    fn first_due(&mut self) -> Option<(u64, usize)> {
        if self.len == 0 {
            return None;
        }
        for _ in 0..=self.mask {
            let at = self.cursor;
            let bucket = &self.buckets[(at & self.mask) as usize];
            if let Some(i) = bucket.iter().position(|e| e.0 == at) {
                return Some((at, i));
            }
            self.cursor += 1;
        }
        // A whole lap due nothing: every entry is at least a lap ahead.
        let (at, i) = self
            .buckets
            .iter()
            .flat_map(|b| b.iter().enumerate().map(|(i, e)| (e.0, i)))
            .min()
            .expect("a wheel holding entries has a first one");
        self.cursor = at;
        Some((at, i))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::prelude::*;
    use rand::rngs::StdRng;

    use super::TimingWheel;

    /// Drives a wheel and a `BTreeMap` keyed on `(step, push counter)` —
    /// the schedule the wheel replaced — through the same random pushes,
    /// peeks and drains: steps close to the cursor and laps ahead, polls
    /// one step at a time and jumps over idle gaps.
    #[test]
    fn the_wheel_pops_what_a_btree_keyed_on_step_and_push_order_pops() {
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let lap = rng.random_range(1usize..=40);
            let mut wheel = TimingWheel::new(lap);
            let mut tree: BTreeMap<(u64, u64), u32> = BTreeMap::new();
            let (mut now, mut pushed) = (0u64, 0u32);
            for _ in 0..400 {
                for _ in 0..rng.random_range(0u32..4) {
                    let ahead = match rng.random_range(0u32..4) {
                        0 => 0,
                        1 => rng.random_range(0..4),
                        2 => rng.random_range(0..3 * lap as u64 + 2),
                        _ => rng.random_range(0..200),
                    };
                    wheel.push(now + ahead, pushed);
                    tree.insert((now + ahead, pushed as u64), pushed);
                    pushed += 1;
                }
                let first = tree.keys().next().map(|k| k.0);
                assert_eq!(wheel.peek(), first, "seed {seed}");
                now = match (rng.random_range(0u32..3), first) {
                    (0, Some(at)) => now.max(at),
                    (1, _) => now + rng.random_range(0..4 * lap as u64 + 3),
                    _ => now + 1,
                };
                while let Some(&(at, seq)) = tree.keys().next().filter(|k| k.0 <= now) {
                    let entry = tree.remove(&(at, seq)).expect("present");
                    assert_eq!(wheel.pop_due(now), Some((at, entry)), "seed {seed}");
                }
                assert_eq!(wheel.pop_due(now), None, "seed {seed}");
            }
        }
    }

    #[test]
    fn entries_of_one_step_leave_in_push_order_across_laps() {
        let mut wheel = TimingWheel::new(4);
        // Steps 1, 5 and 9 share bucket 1; pushed out of step order.
        for (at, tag) in [(9, 'a'), (1, 'b'), (5, 'c'), (1, 'd'), (9, 'e'), (5, 'f')] {
            wheel.push(at, tag);
        }
        assert_eq!(wheel.peek(), Some(1));
        let mut out = Vec::new();
        while let Some(e) = wheel.pop_due(100) {
            out.push(e);
        }
        let order = [(1, 'b'), (1, 'd'), (5, 'c'), (5, 'f'), (9, 'a'), (9, 'e')];
        assert_eq!(out, order);
        assert_eq!(wheel.peek(), None);
    }

    #[test]
    fn a_gap_of_many_laps_jumps_to_the_earliest_entry() {
        let mut wheel = TimingWheel::new(8);
        wheel.push(1_500_003, 1);
        wheel.push(1_000_000, 2);
        assert_eq!(wheel.peek(), Some(1_000_000));
        assert_eq!(wheel.pop_due(999_999), None);
        assert_eq!(wheel.pop_due(2_000_000), Some((1_000_000, 2)));
        // A push behind the cursor moves it back.
        wheel.push(7, 3);
        assert_eq!(wheel.pop_due(7), Some((7, 3)));
        assert_eq!(wheel.peek(), Some(1_500_003));
    }
}
