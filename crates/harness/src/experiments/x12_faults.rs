//! X12 (extension) — fault injection and fault-aware routing: keep the
//! network deadlock-free while it breaks.
//!
//! The paper's model assumes the network survives the run. This
//! experiment injects timed link/channel kills ([`FaultPlan`]) and
//! measures what each routing discipline salvages, on three arms:
//!
//! * **fault-rate sweep** — a uniform-random batch on the
//!   `AdaptiveEscape` torus under seeded Bernoulli channel kills
//!   ([`FaultPlan::bernoulli_channels`], which never disconnects a
//!   ring), oblivious vs minimal- vs fully-adaptive × static vs
//!   router-pooled VCs. Oblivious worms whose fixed route dies are
//!   discarded; adaptive worms route around through
//!   [`FaultedMesh`]'s filtered candidates, falling back to the
//!   fault-avoiding escape subnetwork — which stays acyclic on every
//!   plan the generator emits, so no arm can deadlock.
//! * **directional blackout** — the acceptance arm: tornado traffic,
//!   then every `+` channel of dimension 0 dies at once. The oblivious
//!   dateline route has nowhere to go and its delivered fraction
//!   collapses; the adaptive arms take the `−` ring (equal distance on
//!   tornado) and keep delivering — asserted in this module's tests.
//! * **path diversity** — the same offered traffic on a butterfly
//!   (unique paths — the control) and a Benes network (middle-column
//!   diversity): after a mid-run kill, fault-aware sources re-route
//!   via [`Substrate::route_avoiding`], which the Benes can honor and
//!   the butterfly cannot.
//!
//! Every point reports the [`SimResult`] fault counters (kills applied,
//! fault discards, detour hops, recovery steps), and all three
//! simulator engines — legacy, event-driven and the partitioned parallel
//! one, for which a kill is one more window boundary — produce
//! bit-identical results on all three arms.

use wormhole_flitsim::config::{Arbitration, Engine, RouteSelection, SimConfig};
use wormhole_flitsim::stats::{Outcome, SimResult};
use wormhole_flitsim::wormhole::{run as sim_run, run_adaptive};
use wormhole_topology::fault::{FaultPlan, FaultedMesh};
use wormhole_topology::mesh::Mesh;
use wormhole_workloads::{ArrivalProcess, RoutingDiscipline, Substrate, TrafficPattern, Workload};

use crate::cells;
use crate::open_loop_grid::{equal_budget_policy, outcome_cell};
use crate::sweep::{default_threads, parallel_map};
use crate::table::{fnum, Table};

/// One measured point of a faulted batch run.
#[derive(Debug, PartialEq)]
pub struct Point {
    /// Route-selection arm.
    pub selection: RouteSelection,
    /// Capacity arm (`"static"` or `"pooled"`).
    pub vc_arm: &'static str,
    /// Per-channel kill probability of the plan generator.
    pub fault_rate: f64,
    /// Messages offered (the batch size).
    pub offered: usize,
    /// Messages delivered before the run ended.
    pub delivered: usize,
    /// Mean delivered latency (release → last flit), if any delivered.
    pub mean_latency: Option<f64>,
    /// Edge kills actually applied.
    pub kills: u64,
    /// Worms discarded because their path died.
    pub fault_discards: u64,
    /// Non-minimal hops taken after the first kill.
    pub fault_detours: u64,
    /// Worms that fell back onto the (fault-avoiding) escape network.
    pub escapes: u64,
    /// Steps from the last kill to the first delivery after it.
    pub recovery: u64,
    /// How the underlying simulation ended.
    pub outcome: Outcome,
}

impl Point {
    /// Fraction of offered messages delivered.
    pub fn delivered_fraction(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.offered as f64
    }
}

/// Sweep geometry per mode: (radix, dims, message length, injection
/// window).
fn params(fast: bool) -> (u32, u32, u32, u64) {
    if fast {
        (4, 2, 4, 150)
    } else {
        (8, 2, 6, 400)
    }
}

fn fault_rates(fast: bool) -> &'static [f64] {
    if fast {
        &[0.0, 0.05, 0.15]
    } else {
        &[0.0, 0.02, 0.05, 0.10, 0.20]
    }
}

const SELECTIONS: [RouteSelection; 3] = [
    RouteSelection::Oblivious,
    RouteSelection::MinimalAdaptive,
    RouteSelection::FullyAdaptive,
];

const VC_ARMS: [&str; 2] = ["static", "pooled"];

/// Runs one faulted batch: the oblivious arm replays the fixed routes
/// through the plain simulator; the adaptive arms route per hop through
/// the [`FaultedMesh`] (dead-edge-filtered candidates, fault-avoiding
/// escape routes). Both get the same timed kills via
/// `SimConfig::faults`.
fn run_arm(
    mesh: &Mesh,
    specs: &[wormhole_flitsim::message::MessageSpec],
    plan: &FaultPlan,
    sel: RouteSelection,
    cfg: &SimConfig,
) -> SimResult {
    // The fault-aware router; an oblivious arm never consults it.
    let fm = FaultedMesh::new(mesh, plan).expect("generated plans keep rings connected");
    run_adaptive(&fm, specs, &cfg.clone().route_selection(sel))
}

fn point_from(
    sel: RouteSelection,
    vc_arm: &'static str,
    fault_rate: f64,
    releases: &[u64],
    r: &SimResult,
) -> Point {
    Point {
        selection: sel,
        vc_arm,
        fault_rate,
        offered: r.messages.len(),
        delivered: r.delivered(),
        mean_latency: r.mean_latency(releases),
        kills: r.kills_applied,
        fault_discards: r.fault_discards,
        fault_detours: r.fault_detour_hops,
        escapes: r.escape_fallbacks,
        recovery: r.fault_recovery_steps,
        outcome: r.outcome.clone(),
    }
}

/// The fault-rate sweep (arm 1), in input order: per fault rate ×
/// route selection × capacity arm. All arms of a rate share the same
/// batch workload and the same kill plan — only routing and VC policy
/// differ.
pub fn sweep_points(fast: bool, engine: Engine) -> Vec<Point> {
    let (radix, dims, l, window) = params(fast);
    let mut jobs = Vec::new();
    for (ri, &rate) in fault_rates(fast).iter().enumerate() {
        for sel in SELECTIONS {
            for arm in VC_ARMS {
                jobs.push((ri, rate, sel, arm));
            }
        }
    }
    parallel_map(jobs, default_threads(), |(ri, rate, sel, arm)| {
        let substrate = Substrate::torus_with(radix, dims, RoutingDiscipline::AdaptiveEscape);
        let mesh = substrate.as_mesh().expect("adaptive torus is mesh-based");
        let w = Workload::new(
            substrate.clone(),
            TrafficPattern::UniformRandom,
            ArrivalProcess::bernoulli(0.04),
            l,
            0xfa17,
        );
        let specs = w.generate(window);
        let releases: Vec<u64> = specs.iter().map(|s| s.release).collect();
        // One plan per rate (not per arm): every arm of a rate sees the
        // same network break the same way at the same times.
        let plan = FaultPlan::bernoulli_channels(mesh, *rate, window, 0xdead ^ *ri as u64);
        let cfg = SimConfig::new(2)
            .vc_policy(equal_budget_policy(
                arm,
                2,
                mesh.graph().max_out_degree() as u32,
            ))
            .arbitration(Arbitration::Random)
            .seed(0x5eed)
            .max_steps(window + 4000)
            .faults(plan.clone())
            .engine(engine);
        let r = run_arm(mesh, &specs, &plan, *sel, &cfg);
        point_from(*sel, arm, *rate, &releases, &r)
    })
}

/// The directional-blackout arm (arm 2): tornado traffic, then at step
/// `kill_at` every `+` channel of dimension 0 dies at once (all
/// boundaries of every dim-0 ring in one direction — the other
/// direction survives, so the ring-connectivity rule holds). Returns
/// one point per route selection × capacity arm.
pub fn blackout_points(fast: bool, engine: Engine) -> Vec<Point> {
    let (radix, dims, l, _) = params(fast);
    let window = if fast { 100 } else { 200 };
    let kill_at = 5u64;
    let mut jobs = Vec::new();
    for sel in SELECTIONS {
        for arm in VC_ARMS {
            jobs.push((sel, arm));
        }
    }
    parallel_map(jobs, default_threads(), |(sel, arm)| {
        let substrate = Substrate::torus_with(radix, dims, RoutingDiscipline::AdaptiveEscape);
        let mesh = substrate.as_mesh().expect("adaptive torus is mesh-based");
        let w = Workload::new(
            substrate.clone(),
            TrafficPattern::Tornado,
            ArrivalProcess::bernoulli(0.05),
            l,
            0xb1ac,
        );
        let specs = w.generate(window);
        let releases: Vec<u64> = specs.iter().map(|s| s.release).collect();
        let mut plan = FaultPlan::new();
        for v in 0..mesh.num_nodes() {
            let coords = mesh.coords(wormhole_topology::graph::NodeId(v));
            plan = plan.kill_channel(kill_at, mesh, &coords, 0, false);
        }
        let cfg = SimConfig::new(2)
            .vc_policy(equal_budget_policy(
                arm,
                2,
                mesh.graph().max_out_degree() as u32,
            ))
            .arbitration(Arbitration::Random)
            .seed(0x5eed)
            .max_steps(window + 4000)
            .faults(plan.clone())
            .engine(engine);
        let r = run_arm(mesh, &specs, &plan, *sel, &cfg);
        point_from(*sel, arm, 1.0, &releases, &r)
    })
}

/// The path-diversity arm (arm 3): the same offered rows (source,
/// destination, release — identical seeds and endpoint count) on a
/// butterfly and a Benes network; a mid-run kill takes out the middle
/// edge of several canonical routes, and fault-aware sources re-route
/// post-kill traffic via [`Substrate::route_avoiding`]. The butterfly
/// has no second path, so its re-route falls back to the dead canonical
/// route and the worm is discarded on admission.
pub fn diversity_points(fast: bool, engine: Engine) -> Vec<(&'static str, Point)> {
    let k = if fast { 3 } else { 4 };
    let window = if fast { 150 } else { 300 };
    let kill_at = 30u64;
    let nets: Vec<(&'static str, Substrate)> = vec![
        ("butterfly", Substrate::butterfly(k)),
        ("benes", Substrate::benes(k)),
    ];
    parallel_map(nets, default_threads(), |(name, sub)| {
        let w = Workload::new(
            sub.clone(),
            TrafficPattern::UniformRandom,
            ArrivalProcess::bernoulli(0.05),
            4,
            0xd1ff,
        );
        let rows = w.generate_rows(window);
        let n = sub.endpoints();
        // Kill the middle edge of a few canonical routes: shared
        // interior edges in the butterfly, exactly where the Benes has
        // its middle-column diversity.
        let mut plan = FaultPlan::new();
        let mut killed = Vec::new();
        for i in 0..n.min(4) / 2 {
            let p = sub.route(i, (i + n / 2) % n);
            let e = p.edges()[p.edges().len() / 2];
            if !killed.contains(&e) {
                killed.push(e);
                plan = plan.kill_link(kill_at, e);
            }
        }
        let dead = plan.dead_edges(sub.graph());
        let specs: Vec<_> = rows
            .iter()
            .map(|r| {
                // Fault-aware source: post-kill traffic asks for an
                // alive route; pre-kill traffic (and pairs with no
                // alive route left) keeps the canonical one.
                let path = if r.release >= kill_at {
                    sub.route_avoiding(r.src, r.dst, &dead)
                        .unwrap_or_else(|| sub.route(r.src, r.dst))
                } else {
                    sub.route(r.src, r.dst)
                };
                wormhole_flitsim::message::MessageSpec::new(path, r.length).release_at(r.release)
            })
            .collect();
        let releases: Vec<u64> = specs.iter().map(|s| s.release).collect();
        let cfg = SimConfig::new(2)
            .arbitration(Arbitration::Random)
            .seed(0x5eed)
            .max_steps(window + 4000)
            .faults(plan.clone())
            .engine(engine);
        let r = sim_run(sub.graph(), &specs, &cfg);
        (
            *name,
            point_from(RouteSelection::Oblivious, "static", 1.0, &releases, &r),
        )
    })
}

fn point_row(t: &mut Table, label: &str, p: &Point) {
    t.row(&cells!(
        label,
        p.selection.name(),
        p.vc_arm,
        p.offered,
        p.delivered,
        fnum(p.delivered_fraction()),
        p.mean_latency.map(fnum).unwrap_or_else(|| "-".into()),
        p.kills,
        p.fault_discards,
        p.fault_detours,
        p.escapes,
        p.recovery,
        outcome_cell(&p.outcome)
    ));
}

const POINT_COLS: [&str; 13] = [
    "arm",
    "selection",
    "VCs",
    "offered",
    "delivered",
    "frac",
    "mean lat",
    "kills",
    "discards",
    "detours",
    "escapes",
    "recovery",
    "outcome",
];

/// Runs X12 on `engine`.
pub fn run(fast: bool, engine: Engine) -> Vec<Table> {
    let (radix, dims, l, window) = params(fast);
    let mut tables = Vec::new();

    let mut sweep = Table::new(
        format!(
            "X12 — delivered fraction vs channel-fault rate: torus({radix}^{dims},adaptive), \
             uniform random batch, L = {l}, window {window}"
        ),
        &POINT_COLS,
    );
    for p in &sweep_points(fast, engine) {
        point_row(&mut sweep, &format!("p={}", fnum(p.fault_rate)), p);
    }
    sweep.note(
        "All arms of a rate share one batch and one seeded Bernoulli channel-kill plan (which \
         never disconnects a ring, so the escape subnetwork survives acyclically). Oblivious \
         worms on a killed route are discarded ('discards'); adaptive worms route around the dead \
         channels and cannot deadlock — no row may read DEADLOCK. 'recovery' is steps from the \
         last kill to the first delivery after it.",
    );
    tables.push(sweep);

    let mut blackout = Table::new(
        format!(
            "X12 — directional blackout: tornado on torus({radix}^{dims},adaptive), every \
             dim-0 '+' channel killed at step 5"
        ),
        &POINT_COLS,
    );
    for p in &blackout_points(fast, engine) {
        point_row(&mut blackout, "blackout", p);
    }
    blackout.note(
        "Tornado's dateline route runs '+' in dimension 0, so the oblivious arm's delivered \
         fraction collapses to the pre-kill trickle; the adaptive arms take the surviving '−' \
         ring (equal tornado distance) at full delivered fraction — the graceful-degradation \
         acceptance criterion, asserted in tests for both VC arms.",
    );
    tables.push(blackout);

    let mut div = Table::new(
        "X12 — path diversity under a mid-run kill: identical offered rows, fault-aware re-routing",
        &POINT_COLS,
    );
    for (name, p) in &diversity_points(fast, engine) {
        point_row(&mut div, name, p);
    }
    div.note(
        "Both networks carry the same (source, destination, release) rows and lose the middle \
         edge of the same canonical flows at step 30. Post-kill traffic re-routes via \
         route_avoiding: the Benes shifts to another middle column and keeps its delivered \
         fraction; the butterfly's unique paths leave re-routing nothing to offer, so severed \
         flows are discarded dead-on-arrival.",
    );
    tables.push(div);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x12_adaptive_survives_fault_rates_that_starve_oblivious() {
        let points = sweep_points(true, Engine::EventDriven);
        // Deadlock freedom on every faulted topology, both VC arms.
        for p in &points {
            assert!(
                !matches!(p.outcome, Outcome::Deadlock(_)),
                "{} {} p={} deadlocked",
                p.selection.name(),
                p.vc_arm,
                p.fault_rate
            );
        }
        let frac = |sel: RouteSelection, arm: &str, rate: f64| {
            points
                .iter()
                .find(|p| p.selection == sel && p.vc_arm == arm && p.fault_rate == rate)
                .map(Point::delivered_fraction)
                .unwrap_or_else(|| panic!("{} {arm} p={rate} swept", sel.name()))
        };
        for arm in VC_ARMS {
            // No faults: everyone delivers everything.
            for sel in SELECTIONS {
                assert_eq!(frac(sel, arm, 0.0), 1.0, "{} {arm} at p=0", sel.name());
            }
            // Faults: each adaptive arm delivers at least what oblivious
            // does at every rate, strictly more at the highest rate.
            for &rate in fault_rates(true) {
                let obl = frac(RouteSelection::Oblivious, arm, rate);
                for sel in [
                    RouteSelection::MinimalAdaptive,
                    RouteSelection::FullyAdaptive,
                ] {
                    assert!(
                        frac(sel, arm, rate) >= obl,
                        "{} {arm} under-delivered oblivious at p={rate}",
                        sel.name()
                    );
                }
            }
            let top = *fault_rates(true).last().unwrap();
            assert!(
                frac(RouteSelection::MinimalAdaptive, arm, top)
                    > frac(RouteSelection::Oblivious, arm, top),
                "routing around faults must save messages oblivious loses ({arm})"
            );
        }
        // The fault machinery is genuinely exercised.
        assert!(points.iter().any(|p| p.fault_discards > 0));
        assert!(points.iter().any(|p| p.kills > 0));
    }

    #[test]
    fn x12_blackout_collapses_oblivious_but_not_adaptive() {
        // The acceptance criterion: at a fault pattern where the
        // oblivious arm's delivered fraction collapses, the adaptive
        // arms sustain most of the traffic — with static and with
        // pooled VCs.
        for p in &blackout_points(true, Engine::EventDriven) {
            assert!(
                !matches!(p.outcome, Outcome::Deadlock(_)),
                "{} {} deadlocked under blackout",
                p.selection.name(),
                p.vc_arm
            );
            let f = p.delivered_fraction();
            match p.selection {
                RouteSelection::Oblivious => assert!(
                    f < 0.3,
                    "oblivious should collapse under the dim-0 '+' blackout ({}, frac {f})",
                    p.vc_arm
                ),
                _ => assert!(
                    f > 0.7,
                    "{} ({}) should route around the blackout, frac {f}",
                    p.selection.name(),
                    p.vc_arm
                ),
            }
        }
    }

    #[test]
    fn x12_benes_diversity_beats_butterfly_under_the_same_kill() {
        let points = diversity_points(true, Engine::EventDriven);
        let frac = |name: &str| {
            points
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, p)| p.delivered_fraction())
                .unwrap_or_else(|| panic!("{name} arm ran"))
        };
        let (bfly, benes) = (frac("butterfly"), frac("benes"));
        assert!(
            benes > bfly,
            "middle-column diversity must save traffic the butterfly loses: \
             benes {benes} vs butterfly {bfly}"
        );
        assert!(benes > 0.95, "benes re-routes around the kill: {benes}");
        let bfly_p = &points.iter().find(|(n, _)| *n == "butterfly").unwrap().1;
        assert!(
            bfly_p.fault_discards > 0,
            "the butterfly arm's severed flows are discarded"
        );
    }

    #[test]
    fn x12_engines_agree_pointwise() {
        // Every field of every point of the three arms — faulted adaptive
        // runs under pooled VCs, which no other engine test reaches,
        // included — on the event engine and on two parallel workers.
        let points = |e| {
            (
                sweep_points(true, e),
                blackout_points(true, e),
                diversity_points(true, e),
            )
        };
        let legacy = points(Engine::Legacy);
        for engine in [Engine::EventDriven, Engine::Parallel { threads: 2 }] {
            assert_eq!(points(engine), legacy, "{engine:?} against Legacy");
        }
    }

    #[test]
    fn x12_tables_render() {
        let tables = run(true, Engine::EventDriven);
        assert_eq!(tables.len(), 3);
        let s = tables[0].render();
        for needle in ["oblivious", "minimal", "fully", "static", "pooled"] {
            assert!(s.contains(needle), "missing {needle}");
        }
        assert!(tables[1].render().contains("blackout"));
        let d = tables[2].render();
        assert!(d.contains("butterfly") && d.contains("benes"));
    }
}
