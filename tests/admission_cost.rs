//! What a run pays *per message*, in heap allocations — a count, so it
//! is exact and needs no quiet machine.
//!
//! `wormhole::run` is lent its slice: admitting a message allocates
//! nothing (the spec is borrowed, the per-id tables were sized before
//! the first admission, and the worm takes a recycled slot), so a run of
//! `2N` messages allocates no more than a run of `N` up to the amortized
//! growth of the working-set vectors. Cloning the specs — what the slice
//! path did when it wrapped them in a `ReplaySource` — costs one
//! allocation a message and fails the gate by a factor of eight.
//!
//! A live source makes its messages as the run goes, and each needs one
//! allocation of its own: its route. The closed-loop source's schedule
//! reuses its buckets, so that is all a message costs; a schedule that
//! allocates as it goes (a `BTreeMap` splitting nodes: 1.12 a message)
//! fails the gate. Two more gates hold what a longer live run keeps:
//! the source's id hint sizes every per-id table before step 0, so the
//! bytes `realloc` moves do not grow with the run (tables grown push by
//! push move about 220 bytes a message), and a delivered worm gives its
//! route back, so the most blocks live at once do not grow either (a
//! run that keeps every route holds one block more a message).
//!
//! One parallel worker pays what the event engine pays, on a capped
//! batch whose worms are mostly still in flight: a worm enters its
//! region and leaves it in place, and every core — the event engine's
//! and each region's — keeps its worms in recycled slots, whose tables
//! grow to the most worms it held at once.
//!
//! A lent slice's run holds per message only what the result reports
//! and what admission walks — the outcome table, the admission list and
//! the release order, 56 bytes — and per worm in flight the rest: the
//! worms live in recycled slots on every engine, so a run twice as long
//! at the same load holds at most 64 bytes more a message at its peak.
//! A core keyed by message id holds about 124.
//!
//! The counters are per thread: no other test can allocate into a
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wormhole_flitsim::config::VcPolicy;
use wormhole_flitsim::config::{Engine, RouteSelection, SimConfig};
use wormhole_flitsim::message::MessageSpec;
use wormhole_flitsim::source::Traffic;
use wormhole_flitsim::stats::{Outcome, SimResult};
use wormhole_flitsim::wormhole;
use wormhole_workloads::{
    ArrivalProcess, ClosedLoopConfig, ClosedLoopSource, RoutingDiscipline, Substrate,
    TrafficPattern, Workload,
};

thread_local! {
    /// What this thread did to the heap so far.
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts {
            allocs: 0,
            frees: 0,
            moved: 0,
            live: 0,
            peak: 0,
            bytes: 0,
            peak_bytes: 0,
        })
    };
}

/// A thread's heap traffic: blocks allocated (a growth in place counts
/// as an allocation) and freed, the bytes `realloc` moved (the old
/// block's size, whether or not it grew in place), and the blocks and
/// the bytes live now and at most since [`counted`] last reset the
/// peaks.
#[derive(Clone, Copy)]
struct Counts {
    allocs: u64,
    frees: u64,
    moved: u64,
    live: i64,
    peak: i64,
    bytes: i64,
    peak_bytes: i64,
}

struct Counting;

fn count(f: impl FnOnce(&mut Counts)) {
    // A thread past its TLS teardown counts nothing; nobody reads it.
    let _ = COUNTS.try_with(|c| {
        let mut counts = c.get();
        f(&mut counts);
        counts.peak = counts.peak.max(counts.live);
        counts.peak_bytes = counts.peak_bytes.max(counts.bytes);
        c.set(counts);
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping beside it touches only a
// `Cell` of plain integers and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(|c| {
            c.allocs += 1;
            c.live += 1;
            c.bytes += layout.size() as i64;
        });
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(|c| {
            c.frees += 1;
            c.live -= 1;
            c.bytes -= layout.size() as i64;
        });
        // SAFETY: `ptr` came from `System` through `alloc` / `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(|c| {
            c.allocs += 1;
            c.moved += layout.size() as u64;
            c.bytes += new_size as i64 - layout.size() as i64;
        });
        // SAFETY: as `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` did to this thread's heap.
struct Cost {
    allocs: u64,
    frees: u64,
    /// Bytes `realloc` moved.
    moved: u64,
    /// The most blocks live at once above those live on entry.
    peak: i64,
    /// The most bytes live at once above those live on entry.
    peak_bytes: i64,
}

/// Runs `f` and returns its value with what it did to this thread's
/// heap.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let c0 = COUNTS.with(|c| {
        let mut counts = c.get();
        counts.peak = counts.live;
        counts.peak_bytes = counts.bytes;
        c.set(counts);
        counts
    });
    let out = f();
    let c1 = COUNTS.with(Cell::get);
    let cost = Cost {
        allocs: c1.allocs - c0.allocs,
        frees: c1.frees - c0.frees,
        moved: c1.moved - c0.moved,
        peak: c1.peak - c0.live,
        peak_bytes: c1.peak_bytes - c0.bytes,
    };
    (out, cost)
}

/// What one `wormhole::run` did to this thread's heap, and the frees
/// inside the drop of its result.
fn run_cost(substrate: &Substrate, specs: &[MessageSpec], engine: Engine) -> (Cost, u64) {
    let cfg = SimConfig::new(2).engine(engine);
    let (result, run): (SimResult, _) = counted(|| wormhole::run(substrate.graph(), specs, &cfg));
    assert_eq!(result.outcome, Outcome::Completed);
    assert_eq!(result.delivered(), specs.len());
    let ((), dropped) = counted(|| drop(result));
    (run, dropped.frees)
}

/// An 8×8 dateline torus at a twentieth of a flit per node per step —
/// worms seldom meet — and 12 000 steps of its traffic (more than 8 000
/// messages).
fn light_torus() -> (Substrate, Vec<MessageSpec>) {
    let substrate = Substrate::torus_with(8, 2, RoutingDiscipline::DatelineClasses);
    let workload = Workload::new(
        substrate.clone(),
        TrafficPattern::UniformRandom,
        ArrivalProcess::bernoulli(0.0125),
        4,
        0xad31,
    );
    let specs = workload.generate(12_000);
    (substrate, specs)
}

#[test]
fn admitting_a_message_allocates_nothing() {
    const N: usize = 4_000;
    let (substrate, specs) = light_torus();
    assert!(specs.len() >= 2 * N, "only {} specs", specs.len());

    let (small, small_drop) = run_cost(&substrate, &specs[..N], Engine::EventDriven);
    let (large, large_drop) = run_cost(&substrate, &specs[..2 * N], Engine::EventDriven);
    let (small, large) = (small.allocs, large.allocs);
    println!("event: allocs({N}) = {small}, allocs({}) = {large}", 2 * N);
    println!("event: frees in drop(SimResult) = {small_drop}, {large_drop}");
    assert!(
        large.saturating_sub(small) <= (N / 8) as u64,
        "{N} more messages cost {} more allocations",
        large - small
    );
    // The outcome table, moved out of the run: one block however many
    // messages ran.
    assert_eq!((small_drop, large_drop), (1, 1));

    // One parallel worker: each worm is admitted straight into its
    // region and retires from it in place, under a recycled handle —
    // no allocation a message either.
    let one_worker = Engine::Parallel { threads: 1 };
    let (small, _) = run_cost(&substrate, &specs[..N], one_worker);
    let (large, _) = run_cost(&substrate, &specs[..2 * N], one_worker);
    let (small, large) = (small.allocs, large.allocs);
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

#[test]
fn a_lent_slice_holds_per_message_only_what_the_result_reports() {
    const N: usize = 4_000;
    let (substrate, specs) = light_torus();
    assert!(specs.len() >= 2 * N, "only {} specs", specs.len());
    // Twice the messages at the same load: the same worms in flight, so
    // the per-slot tables reach the same size, and what the peak gains is
    // what the run keeps per message id.
    let engines = [
        Engine::EventDriven,
        Engine::Legacy,
        Engine::Parallel { threads: 1 },
    ];
    let grown = engines.map(|engine| {
        let (small, _) = run_cost(&substrate, &specs[..N], engine);
        let (large, _) = run_cost(&substrate, &specs[..2 * N], engine);
        println!(
            "{engine:?}: peak live bytes({N}) = {}, ({}) = {}",
            small.peak_bytes,
            2 * N,
            large.peak_bytes
        );
        (engine, large.peak_bytes - small.peak_bytes)
    });
    for (engine, extra) in grown {
        assert!(
            extra <= 64 * N as i64,
            "{engine:?}: {N} more messages hold {:.1} more bytes a message at the peak",
            extra as f64 / N as f64
        );
    }
}

/// What building a closed-loop source with request horizon `horizon`
/// and running it to completion did to the heap, and the messages it
/// made.
fn live_cost(substrate: &Substrate, horizon: u64) -> (Cost, u64) {
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
    let (result, cost) = counted(|| {
        let mut source = ClosedLoopSource::new(substrate, &cfg);
        wormhole::run_source(substrate.graph(), &mut source, &sim)
    });
    assert_eq!(result.outcome, Outcome::Completed);
    assert_eq!(result.delivered(), result.messages.len());
    (cost, result.messages.len() as u64)
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
    println!(
        "live: allocs({small_msgs}) = {}, allocs({large_msgs}) = {}",
        small.allocs, large.allocs
    );
    println!(
        "live: bytes reallocated {} / {}, peak live blocks {} / {}",
        small.moved, large.moved, small.peak, large.peak
    );
    assert!(extra >= 10_000, "only {extra} more messages");
    assert!(
        large.allocs.saturating_sub(small.allocs) <= extra + extra / 16,
        "{extra} more messages cost {} more allocations",
        large.allocs - small.allocs
    );
    // The per-id tables are sized once, from the source's id hint: a
    // longer run copies none of them again.
    assert!(
        large.moved.saturating_sub(small.moved) <= 4 << 10,
        "{extra} more messages cost {} more bytes reallocated",
        large.moved - small.moved
    );
    // A delivered worm gives its route back: what is live at once is
    // what is in flight, however long the run.
    assert!(
        large.peak - small.peak <= (extra / 16) as i64,
        "{extra} more messages hold {} more blocks at the peak",
        large.peak - small.peak
    );
}

/// What one run of `specs` on the adaptive `substrate` — one VC a
/// channel, minimal-adaptive, capped at step `cap` — did to the heap
/// under `engine`.
fn capped_cost(
    substrate: &Substrate,
    specs: &[MessageSpec],
    cap: u64,
    engine: Engine,
) -> (SimResult, Cost) {
    let mesh = substrate.as_mesh().expect("a torus routes adaptively");
    let cfg = SimConfig::new(1)
        .route_selection(RouteSelection::MinimalAdaptive)
        .max_steps(cap)
        .engine(engine);
    counted(|| {
        wormhole::simulate(mesh.graph(), Some(mesh), Traffic::Specs(specs), &cfg)
            .expect("a valid run")
    })
}

#[test]
fn one_worker_allocates_what_the_event_engine_does_on_a_batch_still_in_flight() {
    // An 8×8 adaptive-escape torus under minimal-adaptive tornado traffic
    // far past saturation, capped while most worms are still in flight.
    let substrate = Substrate::torus_with(8, 2, RoutingDiscipline::AdaptiveEscape);
    let workload = Workload::new(
        substrate.clone(),
        TrafficPattern::Tornado,
        ArrivalProcess::bernoulli(0.30),
        8,
        0xad31,
    );
    let specs = workload.generate(300);
    let (event, e) = capped_cost(&substrate, &specs, 300, Engine::EventDriven);
    let one_worker = Engine::Parallel { threads: 1 };
    let (one, p) = capped_cost(&substrate, &specs, 300, one_worker);
    let in_flight = specs.len() - event.delivered();
    println!(
        "{} messages, {in_flight} in flight at the cap; event: {} allocs, {} bytes \
         reallocated; parallel(1): {} allocs, {} bytes reallocated",
        specs.len(),
        e.allocs,
        e.moved,
        p.allocs,
        p.moved
    );
    assert_eq!(event.outcome, Outcome::MaxSteps);
    assert!(
        in_flight * 4 > specs.len() * 3,
        "only {in_flight} in flight"
    );
    assert_eq!(one.messages, event.messages);
    // A worm enters its region and leaves it in place: the coordinator
    // keeps no worm of its own, and a region's tables grow as the event
    // engine's core's do, so one worker grows no table the event engine
    // does not.
    assert!(
        p.moved <= e.moved + (4 << 10),
        "one worker moved {} bytes through realloc, the event engine {}",
        p.moved,
        e.moved
    );
    assert!(
        p.allocs <= e.allocs + 64,
        "one worker allocated {} blocks, the event engine {}",
        p.allocs,
        e.allocs
    );
}
