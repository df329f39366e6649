//! Pull-based traffic sources: the simulator's injection interface.
//!
//! Historically every runner took a pre-generated `&[MessageSpec]` slice,
//! hard-coding the open-loop assumption that injection can never react to
//! what the network delivers. [`TrafficSource`] inverts the interface:
//! the simulator *pulls* messages from the source as virtual time
//! advances and *notifies* it of every delivery, so a source can throttle
//! injection on congestion (closed-loop clients), stream a trace larger
//! than RAM, or synthesize traffic on the fly.
//!
//! # Contract
//!
//! A source hands out messages tagged with **source-assigned ids**. Ids
//! index the [`SimResult::messages`](crate::stats::SimResult::messages)
//! vector, must be unique over the run, and should be dense. The
//! simulator sizes its per-message tables once, up front, to the larger
//! of [`id_bound`](TrafficSource::id_bound) and
//! [`id_hint`](TrafficSource::id_hint), and past that grows them to the
//! largest id seen. The hint only sizes: unlike the bound it neither
//! refuses an id nor pads the result. A worm that finishes or is
//! discarded gives back the route a live source made for it; only its
//! outcome stays.
//! The driver loop interacts with the source under these rules,
//! identical for all three engines:
//!
//! * [`take_ready`](TrafficSource::take_ready)`(now)` is called before
//!   any step a message could join — every step under a
//!   [`reactive`](TrafficSource::reactive) source or the legacy stepper,
//!   otherwise at least at every time `next_release` announced (and
//!   after every idle jump) — and must emit every
//!   message with `release ≤ now` that has not been emitted yet, in
//!   ascending `(release, id)` order — the admission order the legacy
//!   stepper has always used, and part of the bit-identity contract.
//! * [`next_release`](TrafficSource::next_release)`(now)` peeks the
//!   earliest release time of any message the source currently knows
//!   about (it may be `≤ now` if not yet taken). `None` means the source
//!   is dry *given what it has seen*: with no active worms left in the
//!   network the run is complete. Idle networks jump straight to the
//!   returned time, so an understated value costs time, an overstated
//!   one skips releases.
//! * [`on_delivered`](TrafficSource::on_delivered) /
//!   [`on_discarded`](TrafficSource::on_discarded) close the loop. The
//!   simulator buffers the step's completions and flushes them in
//!   ascending `(time, id)` order *before* the next `next_release` /
//!   `take_ready` interaction, so the callback order is canonical and
//!   engine-independent — a reactive source fed by the event-driven
//!   engine sees exactly the sequence the legacy stepper would produce.
//! * [`reactive`](TrafficSource::reactive) must return `true` if
//!   deliveries can spawn new releases. The event-style engines then
//!   pin their windows to one step (a longer one could run past a
//!   release spawned inside it) while keeping park/wake and the
//!   idle-network jump, both of which remain exact.
//!
//! Every spec a source emits is checked once, in the drain of
//! `take_ready` ([`crate::message::check_spec`], plus duplicate id, an id
//! below a declared `id_bound` and `release ≤ now`); a bad one ends the
//! run with the
//! [`SimError::Spec`](crate::wormhole::SimError::Spec) naming it.
//!
//! # Slices and replay
//!
//! A pre-generated batch needs no source: [`Traffic::Specs`] *lends* the
//! caller's slice to the run — ids are the slice indices, admission
//! follows `(release, id)` order, nothing is cloned and there is nobody
//! to notify — and that is what `run(graph, &specs, cfg)` does.
//! [`ReplaySource`] is the owned adapter of a `Vec<MessageSpec>` to the
//! pull interface, with the same ids and the same order
//! (one `release_order`, written once): the two are separate
//! implementations required **bit-identical** — same admissions, same
//! arbitration tie-breaks, same `SimResult`, message for message — and
//! the differential proptests in `tests/source_equiv.rs` hold the slice
//! arm against the replayed one on all three engines.

use crate::message::MessageSpec;
use crate::stats::Outcome;

/// A pull-based message stream driving a simulation run. See the module
/// docs for the full contract.
pub trait TrafficSource {
    /// Earliest release time of any not-yet-emitted message the source
    /// currently knows about, or `None` if it is dry. May be `≤ now`
    /// (a ready message not yet taken). Must not change between calls
    /// unless a `take_ready` or delivery notification intervened.
    fn next_release(&mut self, now: u64) -> Option<u64>;

    /// Appends every not-yet-emitted message with `release ≤ now` to
    /// `out` as `(id, spec)` pairs, in ascending `(release, id)` order.
    fn take_ready(&mut self, now: u64, out: &mut Vec<(u32, MessageSpec)>);

    /// Notification that message `id` finished at end-of-step time
    /// `finished`. Flushed in canonical `(finished, id)` order.
    fn on_delivered(&mut self, _id: u32, _finished: u64) {}

    /// Notification that message `id` was discarded during step `t` — a
    /// fault kill severed it ([`crate::stats::MessageOutcome::discarded`]).
    fn on_discarded(&mut self, _id: u32, _t: u64) {}

    /// Whether deliveries can spawn new releases. `true` pins the
    /// event-style engines' windows to one step (park/wake and idle
    /// jumps stay on). Defaults to `false` (open-loop).
    fn reactive(&self) -> bool {
        false
    }

    /// If `Some(n)`, the run's `SimResult::messages` is padded with
    /// default outcomes to length `n` — so a capped replay still reports
    /// one outcome per input spec, released or not, exactly like the
    /// historical slice path — and every id the source emits must be
    /// below `n`: one at or past it ends the run with
    /// [`SpecError::IdBeyondBound`](crate::message::SpecError::IdBeyondBound).
    fn id_bound(&self) -> Option<u32> {
        None
    }

    /// How many ids the source expects to emit: the simulator sizes its
    /// per-message tables for this many before step 0, so a run that
    /// stays inside it never grows them. A sizing only — an id at or past
    /// it is accepted and the tables grow from there, and the result is
    /// not padded to it (both of which [`id_bound`](Self::id_bound)
    /// does). An untouched reservation costs address space, not memory.
    /// Defaults to 0: no hint.
    fn id_hint(&self) -> u32 {
        0
    }
}

/// What drives a run ([`crate::wormhole::simulate`]).
pub enum Traffic<'a> {
    /// A pre-generated batch, lent to the run: ids are the slice indices
    /// and admission follows `(release, id)` order.
    Specs(&'a [MessageSpec]),
    /// A live source, polled and notified as the module docs lay out.
    Source(&'a mut dyn TrafficSource),
}

/// The ids `0..n` in ascending `(release, id)` order: the admission
/// order of every path that replays a batch.
pub(crate) fn release_order(n: usize, release: impl Fn(u32) -> u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&i| (release(i), i));
    order
}

/// The step cap of the three standalone baselines: flit steps in
/// [`crate::restricted`] and [`crate::cut_through`], message steps in
/// [`crate::store_forward`].
pub(crate) const STEP_CAP: u64 = 100_000_000;

/// The loop head the three standalone baselines share
/// ([`crate::restricted`], [`crate::cut_through`],
/// [`crate::store_forward`]): a batch's `(release, id)` pairs in
/// [`release_order`], and how far into them the run has admitted.
pub(crate) struct ReleaseClock {
    due: Vec<(u64, u32)>,
    next: usize,
}

impl ReleaseClock {
    pub(crate) fn new(n: usize, release: impl Fn(u32) -> u64) -> Self {
        let order = release_order(n, &release);
        ReleaseClock {
            due: order.into_iter().map(|i| (release(i), i)).collect(),
            next: 0,
        }
    }

    /// The start of step `*t`, with `active` in flight: how the run ends
    /// here, if it does — nothing in flight and nothing left to release,
    /// or [`STEP_CAP`] reached, an idle network having first jumped to its
    /// next release but never past the cap — or else `None`, with every
    /// id released by `*t` pushed on `active`.
    pub(crate) fn tick(&mut self, t: &mut u64, active: &mut Vec<u32>) -> Option<Outcome> {
        if active.is_empty() {
            let Some(&(release, _)) = self.due.get(self.next) else {
                return Some(Outcome::Completed);
            };
            *t = (*t).max(release.min(STEP_CAP));
        }
        if *t >= STEP_CAP {
            return Some(Outcome::MaxSteps);
        }
        while let Some(&(_, id)) = self.due.get(self.next).filter(|due| due.0 <= *t) {
            active.push(id);
            self.next += 1;
        }
        None
    }
}

/// Adapts an owned spec vector to the [`TrafficSource`] pull interface
/// (ids are the vector indices; emission follows `(release, id)` order):
/// the reference the lent-slice path is held bit-identical to.
pub struct ReplaySource {
    /// Spec per id; taken (moved out) on emission.
    slots: Vec<Option<MessageSpec>>,
    /// Ids sorted by `(release, id)` — the admission order.
    order: Vec<u32>,
    cursor: usize,
}

impl ReplaySource {
    /// Wraps an owned spec vector. Ids are the vector indices.
    pub fn new(specs: Vec<MessageSpec>) -> Self {
        Self {
            order: release_order(specs.len(), |i| specs[i as usize].release),
            slots: specs.into_iter().map(Some).collect(),
            cursor: 0,
        }
    }

    /// Number of messages this source replays.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the source replays no messages at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl TrafficSource for ReplaySource {
    fn next_release(&mut self, _now: u64) -> Option<u64> {
        self.order.get(self.cursor).map(|&i| {
            self.slots[i as usize]
                .as_ref()
                .expect("unemitted slot is populated")
                .release
        })
    }

    fn take_ready(&mut self, now: u64, out: &mut Vec<(u32, MessageSpec)>) {
        while let Some(&i) = self.order.get(self.cursor) {
            let mi = i as usize;
            if self.slots[mi].as_ref().expect("unemitted slot").release > now {
                break;
            }
            out.push((i, self.slots[mi].take().expect("emitted once")));
            self.cursor += 1;
        }
    }

    fn id_bound(&self) -> Option<u32> {
        Some(self.slots.len() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_topology::graph::{GraphBuilder, NodeId};
    use wormhole_topology::path::Path;

    fn spec(release: u64) -> MessageSpec {
        let mut b = GraphBuilder::new(2);
        let e = b.add_edge(NodeId(0), NodeId(1));
        let _ = b.build();
        MessageSpec::new(Path::new(vec![e]), 2).release_at(release)
    }

    #[test]
    fn replay_emits_in_release_id_order() {
        // Unsorted input: emission must follow (release, id), ids keep
        // their original indices.
        let mut src = ReplaySource::new(vec![spec(5), spec(0), spec(5), spec(2)]);
        assert_eq!(src.id_bound(), Some(4));
        assert_eq!(src.next_release(0), Some(0));
        let mut out = Vec::new();
        src.take_ready(2, &mut out);
        let ids: Vec<u32> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(src.next_release(2), Some(5));
        out.clear();
        src.take_ready(100, &mut out);
        let ids: Vec<u32> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, vec![0, 2], "same release ties break by id");
        assert_eq!(src.next_release(100), None);
    }

    #[test]
    fn replay_take_before_release_is_empty() {
        let mut src = ReplaySource::new(vec![spec(10)]);
        let mut out = Vec::new();
        src.take_ready(9, &mut out);
        assert!(out.is_empty());
        assert_eq!(src.next_release(9), Some(10));
    }

    #[test]
    fn the_release_clock_stops_at_the_cap_in_flight_and_idle() {
        let mut clock = ReleaseClock::new(2, |i| [0, STEP_CAP + 5][i as usize]);
        let (mut t, mut active) = (0, Vec::new());
        assert_eq!(clock.tick(&mut t, &mut active), None);
        assert_eq!((t, &active[..]), (0, &[0][..]));
        // In flight at the cap: the run ends there.
        t = STEP_CAP;
        assert_eq!(clock.tick(&mut t, &mut active), Some(Outcome::MaxSteps));
        // Idle, the next release past the cap: the jump stops at the cap.
        active.clear();
        t = 7;
        assert_eq!(clock.tick(&mut t, &mut active), Some(Outcome::MaxSteps));
        assert_eq!((t, active.len()), (STEP_CAP, 0));
    }

    #[test]
    fn empty_replay_is_dry() {
        let mut src = ReplaySource::new(Vec::new());
        assert_eq!(src.next_release(0), None);
        assert!(src.is_empty());
        assert_eq!(src.len(), 0);
    }
}
