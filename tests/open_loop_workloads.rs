//! Cross-layer integration: `wormhole-workloads` streams driven through
//! the open-loop and batch faces of the flit simulator must agree where
//! theory pins the answer.

use wormhole_routing::prelude::*;

/// At near-zero injection rate every worm travels alone, so open-loop
/// latency collapses to the unblocked floor `D + L − 1` — and the batch
/// simulator (`wormhole_run` on the same timed specs) reports the
/// identical per-message finish times.
#[test]
fn open_and_closed_loop_agree_at_near_zero_rate() {
    let k = 5u32;
    let l = 6u32;
    let w = Workload::new(
        Substrate::butterfly(k),
        TrafficPattern::UniformRandom,
        ArrivalProcess::bernoulli(0.001),
        l,
        1234,
    );
    let window = 4000u64;
    let specs = w.generate(window);
    assert!(specs.len() > 20, "need a meaningful sample");

    // Open loop: generous drain so everything lands.
    let ol = OpenLoopConfig::new(0, window);
    let open = run_open_loop(w.substrate.graph(), None, &specs, &SimConfig::new(2), &ol);
    let stats = open.open_loop.clone().unwrap();
    assert!(!stats.saturated);
    assert_eq!(stats.delivered_msgs, stats.offered_msgs);
    let floor = (k + l - 1) as f64;
    assert!(
        (stats.latency.mean - floor).abs() < 0.5,
        "near-zero-rate latency {} must sit at the D+L−1 floor {floor}",
        stats.latency.mean
    );
    assert_eq!(stats.latency.max, (k + l - 1) as u64, "no worm ever blocks");

    // Closed loop (batch) on the same specs: identical finish times.
    let closed = wormhole_run(w.substrate.graph(), &specs, &SimConfig::new(2));
    assert_eq!(closed.outcome, Outcome::Completed);
    for (o, c) in open.messages.iter().zip(&closed.messages) {
        assert_eq!(o.finished, c.finished);
    }
}

/// Under heavy uniform load, raising B lowers the measured open-loop
/// latency and raises accepted throughput (the X2 headline, end-to-end
/// through the facade).
#[test]
fn more_vcs_help_under_heavy_open_loop_load() {
    let w = Workload::new(
        Substrate::butterfly(5),
        TrafficPattern::UniformRandom,
        ArrivalProcess::bernoulli(0.3),
        4,
        99,
    );
    let specs = w.generate(600);
    let ol = OpenLoopConfig::new(100, 500);
    let measure = |b: u32| {
        run_open_loop(w.substrate.graph(), None, &specs, &SimConfig::new(b), &ol)
            .open_loop
            .unwrap()
    };
    let (s1, s4) = (measure(1), measure(4));
    assert!(
        s4.latency.mean < s1.latency.mean,
        "B=4 latency {} must beat B=1 {}",
        s4.latency.mean,
        s1.latency.mean
    );
    assert!(s4.accepted_flits_per_step >= s1.accepted_flits_per_step);
    assert!(s1.saturated, "0.3 msg/ep/step saturates a B=1 butterfly");
}

/// Deterministic patterns ride the same machinery: a bit-reversal
/// workload on the hypercube completes and stays seed-stable.
#[test]
fn hypercube_bit_reversal_is_deterministic() {
    let make = || {
        Workload::new(
            Substrate::hypercube(4),
            TrafficPattern::BitReversal,
            ArrivalProcess::bernoulli(0.05),
            3,
            77,
        )
        .generate(500)
    };
    let (a, b) = (make(), make());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.release, y.release);
        assert_eq!(x.path.edges(), y.path.edges());
    }
    let ol = OpenLoopConfig::new(50, 450);
    let r = run_open_loop(
        Substrate::hypercube(4).graph(),
        None,
        &a,
        &SimConfig::new(2),
        &ol,
    );
    assert_eq!(r.outcome, Outcome::Completed);
}

/// The torus deadlock headline, end-to-end through the facade: tornado
/// traffic at B = 1 wedges the naive torus into deadlock, while the same
/// stream routed under the dateline discipline never deadlocks and keeps
/// accepting traffic.
#[test]
fn dateline_discipline_removes_the_tornado_torus_deadlock() {
    let run_arm = |discipline: RoutingDiscipline| {
        let w = Workload::new(
            Substrate::torus_with(8, 2, discipline),
            TrafficPattern::Tornado,
            ArrivalProcess::bernoulli(0.3),
            6,
            2024,
        );
        let specs = w.generate(800);
        let ol = OpenLoopConfig::new(200, 600);
        run_open_loop(w.substrate.graph(), None, &specs, &SimConfig::new(1), &ol)
    };

    let naive = run_arm(RoutingDiscipline::Naive);
    assert!(
        matches!(naive.outcome, Outcome::Deadlock(_)),
        "naive tornado-on-torus at B=1 must deadlock, got {:?}",
        naive.outcome
    );
    assert!(naive.deadlock.is_some(), "deadlock report names the cycle");

    let dateline = run_arm(RoutingDiscipline::DatelineClasses);
    assert!(
        !matches!(dateline.outcome, Outcome::Deadlock(_)),
        "dateline tornado must not deadlock, got {:?}",
        dateline.outcome
    );
    let stats = dateline.open_loop.unwrap();
    assert!(
        stats.accepted_msgs > 0,
        "dateline arm keeps accepting traffic: {stats:?}"
    );
}
