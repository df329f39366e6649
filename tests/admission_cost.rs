//! What a run pays *per message*, in heap allocations — a count, so it
//! is exact and needs no quiet machine.
//!
//! `wormhole::run` is lent its slice: admitting a message allocates
//! nothing (the spec is borrowed, the core's tables were sized before
//! the first admission), so a run of `2N` messages allocates no more
//! than a run of `N` up to the amortized growth of the working-set
//! vectors. Cloning the specs — what the slice path did when it wrapped
//! them in a `ReplaySource` — costs one allocation a message and fails
//! the gate by a factor of eight.
//!
//! A live source makes its messages as the run goes, and each needs one
//! allocation of its own: its route. The closed-loop source's schedule
//! reuses its buckets, so that is all a message costs; a schedule that
//! allocates as it goes (a `BTreeMap` splitting nodes: 1.12 a message)
//! fails the gate.
//!
//! The counters are per thread: no other test can allocate into a
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wormhole_flitsim::config::VcPolicy;
use wormhole_flitsim::config::{Engine, SimConfig};
use wormhole_flitsim::message::MessageSpec;
use wormhole_flitsim::stats::{Outcome, SimResult};
use wormhole_flitsim::wormhole;
use wormhole_workloads::{
    ArrivalProcess, ClosedLoopConfig, ClosedLoopSource, RoutingDiscipline, Substrate,
    TrafficPattern, Workload,
};

thread_local! {
    /// `(allocations, frees)` made by this thread (a growth in place
    /// counts as an allocation).
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(allocs: u64, frees: u64) {
    // A thread past its TLS teardown counts nothing; nobody reads it.
    let _ = COUNTS.try_with(|c| {
        let (a, f) = c.get();
        c.set((a + allocs, f + frees));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping beside it touches only a
// `Cell` of plain integers and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 0);
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 1);
        // SAFETY: `ptr` came from `System` through `alloc` / `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, 0);
        // SAFETY: as `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its value with the `(allocations, frees)` this
/// thread made inside it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, f0) = COUNTS.with(Cell::get);
    let out = f();
    let (a1, f1) = COUNTS.with(Cell::get);
    (out, a1 - a0, f1 - f0)
}

/// Allocations inside one `wormhole::run`, and frees inside the drop of
/// its result.
fn run_cost(substrate: &Substrate, specs: &[MessageSpec], engine: Engine) -> (u64, u64) {
    let cfg = SimConfig::new(2).engine(engine);
    let (result, allocs, _): (SimResult, _, _) =
        counted(|| wormhole::run(substrate.graph(), specs, &cfg));
    assert_eq!(result.outcome, Outcome::Completed);
    assert_eq!(result.delivered(), specs.len());
    let ((), _, frees) = counted(|| drop(result));
    (allocs, frees)
}

#[test]
fn admitting_a_message_allocates_nothing() {
    const N: usize = 4_000;
    // An 8×8 dateline torus at a twentieth of a flit per node per step:
    // worms seldom meet.
    let substrate = Substrate::torus_with(8, 2, RoutingDiscipline::DatelineClasses);
    let workload = Workload::new(
        substrate.clone(),
        TrafficPattern::UniformRandom,
        ArrivalProcess::bernoulli(0.0125),
        4,
        0xad31,
    );
    let specs = workload.generate(12_000);
    assert!(specs.len() >= 2 * N, "only {} specs", specs.len());

    let (small, small_drop) = run_cost(&substrate, &specs[..N], Engine::EventDriven);
    let (large, large_drop) = run_cost(&substrate, &specs[..2 * N], Engine::EventDriven);
    println!("event: allocs({N}) = {small}, allocs({}) = {large}", 2 * N);
    println!("event: frees in drop(SimResult) = {small_drop}, {large_drop}");
    assert!(
        large.saturating_sub(small) <= (N / 8) as u64,
        "{N} more messages cost {} more allocations",
        large - small
    );
    // The outcome table, moved out of the core: one block however many
    // messages ran.
    assert_eq!((small_drop, large_drop), (1, 1));

    // One parallel worker: the coordinator copies each worm into a
    // region at admission and out of it at retirement — table growth in
    // the regions' recycled slots, but still no allocation a message.
    // ROADMAP item 5(c) (admission belongs to the region) starts from
    // this figure.
    let one_worker = Engine::Parallel { threads: 1 };
    let (small, _) = run_cost(&substrate, &specs[..N], one_worker);
    let (large, _) = run_cost(&substrate, &specs[..2 * N], one_worker);
    println!(
        "parallel(1): allocs({N}) = {small}, allocs({}) = {large}",
        2 * N
    );
    assert!(
        large.saturating_sub(small) <= (N / 8) as u64,
        "one worker: {N} more messages cost {} more allocations",
        large - small
    );
}

/// Allocations inside building a closed-loop source with request horizon
/// `horizon` and running it to completion, and the messages it made.
fn live_cost(substrate: &Substrate, horizon: u64) -> (u64, u64) {
    let cfg = ClosedLoopConfig {
        clients: 32,
        servers: 32,
        window: 4,
        req_len: 2,
        reply_len: 8,
        think: (4, 32),
        server_delay: (2, 10),
        start_spread: 32,
        horizon,
        seed: 0x11fe,
    };
    let sim = SimConfig::new(2).vc_policy(VcPolicy::pooled(4, 1, 4));
    let (result, allocs, _) = counted(|| {
        let mut source = ClosedLoopSource::new(substrate, &cfg);
        wormhole::run_source(substrate.graph(), &mut source, &sim)
    });
    assert_eq!(result.outcome, Outcome::Completed);
    assert_eq!(result.delivered(), result.messages.len());
    (allocs, result.messages.len() as u64)
}

#[test]
fn a_live_message_allocates_its_route_and_nothing_else() {
    const H: u64 = 4_000;
    // 32 clients and 32 servers on the 64-input butterfly, four chains a
    // client: the benchmark's closed loop at a quarter of its size.
    let substrate = Substrate::butterfly(6);
    let (small, small_msgs) = live_cost(&substrate, H);
    let (large, large_msgs) = live_cost(&substrate, 2 * H);
    let extra = large_msgs - small_msgs;
    println!("live: allocs({small_msgs}) = {small}, allocs({large_msgs}) = {large}");
    assert!(extra >= 10_000, "only {extra} more messages");
    assert!(
        large.saturating_sub(small) <= extra + extra / 16,
        "{extra} more messages cost {} more allocations",
        large - small
    );
}
