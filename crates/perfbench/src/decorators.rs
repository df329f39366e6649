//! Counting/timing decorators around the two public traits the simulator
//! calls back into: [`AdaptiveRouter`] (`topology`) and [`TrafficSource`]
//! (`workloads` implements it). They forward every call unchanged, so a
//! decorated run is `same_execution` with the plain one; they are only
//! installed in the traced pass.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

use wormhole_flitsim::message::MessageSpec;
use wormhole_flitsim::source::TrafficSource;
use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::graph::{EdgeId, Graph, NodeId};
use wormhole_topology::path::Path;

/// Call count and estimated time of one decorated callback layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallTotals {
    /// Calls forwarded.
    pub calls: u64,
    /// Of those, the layer-specific subset: escape-network queries for
    /// the router, delivery/discard notifications for the source.
    pub subset: u64,
    /// Estimated wall time of all calls, nanoseconds (see [`CallClock`]).
    pub total_ns: u64,
}

/// Every `STRIDE`-th call is timed; the rest are only counted.
const STRIDE: u64 = 32;

/// Counts every call and times a sample of them.
///
/// The router is called ~10⁷ times per run with ~20 ns of work per call,
/// so a clock read around every call would cost several times the run it
/// measures. Instead every [`STRIDE`]-th call is timed, the clock's own
/// cost (calibrated once per process) is taken off each timed call, and
/// the total is extrapolated by `calls / timed calls`. Counters are
/// atomics because `AdaptiveRouter` is `Sync` (parallel workers share one
/// router); they publish nothing, so `Relaxed` suffices.
#[derive(Default)]
struct CallClock {
    calls: AtomicU64,
    subset: AtomicU64,
    timed_calls: AtomicU64,
    timed_ns: AtomicU64,
}

/// Nanoseconds one `Instant::now()` … `elapsed()` pair reads as with
/// nothing between them: the median of 1001 pairs, measured once.
fn clock_cost_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut pairs: Vec<u64> = (0..1001)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        pairs.sort_unstable();
        pairs[pairs.len() / 2]
    })
}

impl CallClock {
    fn call<R>(&self, in_subset: bool, f: impl FnOnce() -> R) -> R {
        if in_subset {
            self.subset.fetch_add(1, Relaxed);
        }
        if !self.calls.fetch_add(1, Relaxed).is_multiple_of(STRIDE) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.timed_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.timed_calls.fetch_add(1, Relaxed);
        out
    }

    fn totals(&self) -> CallTotals {
        let calls = self.calls.load(Relaxed);
        let timed_calls = self.timed_calls.load(Relaxed);
        let net_ns = self
            .timed_ns
            .load(Relaxed)
            .saturating_sub(timed_calls * clock_cost_ns());
        CallTotals {
            calls,
            subset: self.subset.load(Relaxed),
            total_ns: (net_ns as u128 * calls as u128 / timed_calls.max(1) as u128) as u64,
        }
    }
}

/// An [`AdaptiveRouter`] that counts every routing query and times a
/// sample of them.
pub struct CountingRouter<'a> {
    inner: &'a dyn AdaptiveRouter,
    clock: CallClock,
}

impl<'a> CountingRouter<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn AdaptiveRouter) -> Self {
        // Calibrate now, not inside the run being measured.
        clock_cost_ns();
        Self {
            inner,
            clock: CallClock::default(),
        }
    }

    /// Totals so far; `subset` is the escape-network queries.
    pub fn totals(&self) -> CallTotals {
        self.clock.totals()
    }
}

impl AdaptiveRouter for CountingRouter<'_> {
    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn candidates(&self, at: NodeId, dst: NodeId, misroutes: bool, out: &mut Vec<(EdgeId, bool)>) {
        self.clock
            .call(false, || self.inner.candidates(at, dst, misroutes, out))
    }

    fn escape_route(&self, at: NodeId, dst: NodeId) -> Path {
        self.clock.call(true, || self.inner.escape_route(at, dst))
    }

    fn escape_hop(&self, at: NodeId, dst: NodeId) -> EdgeId {
        self.clock.call(true, || self.inner.escape_hop(at, dst))
    }

    fn is_escape(&self, e: EdgeId) -> bool {
        self.clock.call(false, || self.inner.is_escape(e))
    }
}

/// A [`TrafficSource`] that counts every poll and notification and times
/// a sample of them.
pub struct CountingSource<'s, S: TrafficSource> {
    inner: &'s mut S,
    clock: CallClock,
}

impl<'s, S: TrafficSource> CountingSource<'s, S> {
    /// Wraps `inner`, which stays usable after the run (for its stats).
    pub fn new(inner: &'s mut S) -> Self {
        // Calibrate now, not inside the run being measured.
        clock_cost_ns();
        Self {
            inner,
            clock: CallClock::default(),
        }
    }

    /// Totals so far: `calls` counts polls and notifications, `subset`
    /// the notifications alone.
    pub fn totals(&self) -> CallTotals {
        self.clock.totals()
    }
}

impl<S: TrafficSource> TrafficSource for CountingSource<'_, S> {
    fn next_release(&mut self, now: u64) -> Option<u64> {
        self.clock.call(false, || self.inner.next_release(now))
    }

    fn take_ready(&mut self, now: u64, out: &mut Vec<(u32, MessageSpec)>) {
        self.clock.call(false, || self.inner.take_ready(now, out))
    }

    fn on_delivered(&mut self, id: u32, finished: u64) {
        self.clock
            .call(true, || self.inner.on_delivered(id, finished))
    }

    fn on_discarded(&mut self, id: u32, t: u64) {
        self.clock.call(true, || self.inner.on_discarded(id, t))
    }

    fn reactive(&self) -> bool {
        self.inner.reactive()
    }

    fn id_bound(&self) -> Option<u32> {
        self.inner.id_bound()
    }
}
