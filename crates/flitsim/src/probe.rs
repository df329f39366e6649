//! Where a run's wall-clock time goes, phase by phase — the `phase-probe`
//! cargo feature, off by default.
//!
//! With the feature on, the loop head, the admission of new messages and
//! the phases of a step call an internal lap at the end of each phase:
//! it charges the time since the previous lap on the same thread to the
//! phase that just ended, so everything between two laps — a fault kill,
//! an occupancy sample — lands in the phase whose lap comes next.
//! [`crate::wormhole::simulate`] starts the clock after it has built the
//! run and laps [`Phase::IntoResult`] last; [`take`] hands back the totals
//! of the calling thread and clears them. With the feature off, a lap is
//! an empty function and [`take`] returns zeros.
//!
//! The laps read [`std::time::Instant`] (the crate forbids `unsafe`, so
//! no cycle counter): two clock reads a lap, a dozen laps a step, which
//! slows a probed run — read the shares, not the absolute times. The
//! counters are per thread: under [`crate::config::Engine::Parallel`]
//! the worker threads' step phases are not in the calling thread's
//! totals.
//!
//! ```text
//! cargo run --release --features phase-probe --example phase_shares
//! ```

use std::time::Duration;

/// A phase of a run, in the order a step meets them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The loop head's look ahead: the feed's next release, asked by an
    /// idle network (its jump, the end-of-run test) and for a window's
    /// stop.
    LoopHead,
    /// Completions handed to a live source (`on_delivered` /
    /// `on_discarded`).
    Flush,
    /// A live source's `take_ready`.
    Take,
    /// Checking and admitting the new messages.
    Admit,
    /// The event driver's contests in place: the waiters of hot keys.
    Contest,
    /// Classifying the stepping worms (a pending adaptive head selects
    /// its hop here).
    Classify,
    /// Per-edge arbitration.
    Arbitrate,
    /// Advancing the winners, and firing and filling the drain wheel.
    Apply,
    /// Stalling, discarding or parking the losers.
    Park,
    /// Pending heads that lost in place; turning released keys hot.
    Wake,
    /// Dropping finished, discarded and parked worms from the stepping
    /// list.
    Retain,
    /// The parallel coordinator's work between windows: the regions'
    /// retirements, landing their outboxes, and the write-back at the
    /// end of the run.
    Merge,
    /// Folding the run into its [`crate::stats::SimResult`].
    IntoResult,
}

impl Phase {
    /// Every phase, in step order.
    pub const ALL: [Phase; 13] = [
        Phase::LoopHead,
        Phase::Flush,
        Phase::Take,
        Phase::Admit,
        Phase::Contest,
        Phase::Classify,
        Phase::Arbitrate,
        Phase::Apply,
        Phase::Park,
        Phase::Wake,
        Phase::Retain,
        Phase::Merge,
        Phase::IntoResult,
    ];

    /// A short lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::LoopHead => "loop head",
            Phase::Flush => "flush",
            Phase::Take => "take",
            Phase::Admit => "admit",
            Phase::Contest => "contest",
            Phase::Classify => "classify",
            Phase::Arbitrate => "arbitrate",
            Phase::Apply => "apply",
            Phase::Park => "park",
            Phase::Wake => "wake",
            Phase::Retain => "retain",
            Phase::Merge => "merge",
            Phase::IntoResult => "into_result",
        }
    }
}

/// Wall-clock time charged to each [`Phase`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    nanos: [u64; Phase::ALL.len()],
}

impl PhaseTimes {
    /// Time charged to `phase`.
    pub fn get(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.nanos[phase as usize])
    }

    /// Time charged to every phase.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// `phase`'s share of [`PhaseTimes::total`] (0 when nothing was
    /// charged).
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total().as_nanos();
        if total == 0 {
            return 0.0;
        }
        self.nanos[phase as usize] as f64 / total as f64
    }
}

impl std::ops::AddAssign for PhaseTimes {
    fn add_assign(&mut self, other: PhaseTimes) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos) {
            *a += b;
        }
    }
}

#[cfg(feature = "phase-probe")]
mod clock {
    use std::cell::Cell;
    use std::time::Instant;

    use super::{Phase, PhaseTimes};

    thread_local! {
        static LAST: Cell<Option<Instant>> = const { Cell::new(None) };
        static TOTALS: Cell<PhaseTimes> = const {
            Cell::new(PhaseTimes {
                nanos: [0; Phase::ALL.len()],
            })
        };
    }

    pub(super) fn start() {
        LAST.set(Some(Instant::now()));
    }

    pub(super) fn lap(phase: Phase) {
        let now = Instant::now();
        if let Some(last) = LAST.replace(Some(now)) {
            let mut totals = TOTALS.get();
            totals.nanos[phase as usize] += (now - last).as_nanos() as u64;
            TOTALS.set(totals);
        }
    }

    pub(super) fn take() -> PhaseTimes {
        LAST.set(None);
        TOTALS.take()
    }
}

#[cfg(not(feature = "phase-probe"))]
mod clock {
    use super::{Phase, PhaseTimes};

    #[inline(always)]
    pub(super) fn start() {}

    #[inline(always)]
    pub(super) fn lap(_: Phase) {}

    pub(super) fn take() -> PhaseTimes {
        PhaseTimes::default()
    }
}

/// Starts this thread's lap clock.
#[inline(always)]
pub(crate) fn start() {
    clock::start();
}

/// Charges the time since this thread's previous lap to `phase`.
#[inline(always)]
pub(crate) fn lap(phase: Phase) {
    clock::lap(phase);
}

/// This thread's totals since the previous `take`, which it clears.
/// Zeros unless the `phase-probe` feature is on.
pub fn take() -> PhaseTimes {
    clock::take()
}

#[cfg(all(test, feature = "phase-probe"))]
mod tests {
    use std::time::Duration;

    use wormhole_topology::random_nets::shared_chain_instance;

    use super::*;
    use crate::config::SimConfig;
    use crate::message::specs_from_paths;
    use crate::source::{ReplaySource, Traffic};
    use crate::wormhole::simulate;

    #[test]
    fn a_lap_charges_the_time_since_the_previous_one_to_its_phase() {
        let _ = take();
        start();
        std::thread::sleep(Duration::from_millis(2));
        lap(Phase::Take);
        let times = take();
        assert!(times.get(Phase::Take) >= Duration::from_millis(2));
        assert_eq!(times.total(), times.get(Phase::Take));
        assert_eq!(times.share(Phase::Take), 1.0);
        assert_eq!(take(), PhaseTimes::default(), "take clears");
        // No lap is charged before the clock starts.
        lap(Phase::Apply);
        assert_eq!(take(), PhaseTimes::default());
    }

    #[test]
    fn a_run_through_the_door_is_lapped_up_to_its_result() {
        let (graph, paths) = shared_chain_instance(4, 5);
        let mut source = ReplaySource::new(specs_from_paths(&paths, 3));
        let _ = take();
        let config = SimConfig::new(1);
        simulate(&graph, None, Traffic::Source(&mut source), &config).expect("a valid run");
        let times = take();
        assert!(times.total() > Duration::ZERO, "{times:?}");
        assert_eq!(take(), PhaseTimes::default());
    }
}
