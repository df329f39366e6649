//! X11 (extension) — open-loop vs closed-loop measurement at the
//! saturation knee, across static vs pooled VC budgets.
//!
//! Every latency-vs-load curve in x2/x9 is *open-loop*: sources inject
//! by a timed process no matter what the network delivers, so past the
//! knee the backlog — and with it the measured latency — grows without
//! bound. Real clients are *closed-loop*: each keeps at most `W`
//! requests outstanding and issues the next only after the previous
//! reply returns, so congestion throttles injection instead of
//! inflating a queue. The two methodologies agree below the knee and
//! diverge exactly at it (Schwetman's classic critique of open-loop
//! simulation applies verbatim to NoC sweeps).
//!
//! Both arms run the same client/server partitions over the same
//! substrates — a Dally–Seitz dateline torus and a butterfly — at the
//! same VC budgets (x9's `static` vs `pooled` arms):
//!
//! * **open** — a [`ServiceScenario`] stream at swept injection rates,
//!   driven through [`run_open_loop`]; the top rate is far past
//!   saturation, where the latency percentiles diverge and the
//!   saturation detector fires.
//! * **closed** — [`run_closed_loop`] request→reply chains at swept
//!   window sizes `W`; the in-flight population is structurally capped
//!   at `clients × W` chains, so accepted throughput self-limits near
//!   the knee and the end-of-run backlog stays bounded no matter how
//!   hot the loop runs.
//!
//! The tests assert the divergence headline on both topologies and both
//! VC policies, and hold every measured point to engine equality.

use wormhole_flitsim::config::{Arbitration, Engine, SimConfig};
use wormhole_flitsim::open_loop::{run_open_loop, OpenLoopConfig};
use wormhole_flitsim::stats::{ClosedLoopStats, OpenLoopStats, Outcome};
use wormhole_workloads::{
    run_closed_loop, ClosedLoopConfig, RoutingDiscipline, ServiceScenario, Substrate,
};

use crate::cells;
use crate::open_loop_grid::{equal_budget_policy, outcome_cell};
use crate::sweep::{default_threads, parallel_map};
use crate::table::{fnum, Table};

/// Message length in flits (requests and replies alike).
const L: u32 = 4;

/// One measured point of the sweep.
#[derive(Debug, PartialEq)]
pub struct Point {
    /// Topology name.
    pub topo: &'static str,
    /// Measurement methodology (`"open"` or `"closed"`).
    pub arm: &'static str,
    /// VC budget arm (`"static"` or `"pooled"`).
    pub policy: &'static str,
    /// The swept knob: offered rate (msg/client/step) for the open arm,
    /// outstanding-window size `W` for the closed arm.
    pub knob: f64,
    /// Client endpoints (the injecting half of the partition).
    pub clients: u32,
    /// How the underlying simulation ended.
    pub outcome: Outcome,
    /// Windowed open-loop-style measurement (both arms carry one).
    pub stats: OpenLoopStats,
    /// Chain-level statistics (closed arm only).
    pub closed: Option<ClosedLoopStats>,
}

impl Point {
    /// Accepted throughput in flits per client per step.
    pub fn accepted_per_client(&self) -> f64 {
        self.stats.accepted_flits_per_step / self.clients as f64
    }
}

/// Sweep geometry per mode: (warmup, measurement window).
fn params(fast: bool) -> (u64, u64) {
    if fast {
        (150, 400)
    } else {
        (400, 1200)
    }
}

/// The two topologies: `(name, substrate, clients)` — clients are the
/// first half of the endpoint space, servers the last half.
fn topologies(fast: bool) -> Vec<(&'static str, Substrate)> {
    if fast {
        vec![
            (
                "torus(8,dateline)",
                Substrate::torus_with(8, 1, RoutingDiscipline::DatelineClasses),
            ),
            ("butterfly(3)", Substrate::butterfly(3)),
        ]
    } else {
        vec![
            (
                "torus(8^2,dateline)",
                Substrate::torus_with(8, 2, RoutingDiscipline::DatelineClasses),
            ),
            ("butterfly(4)", Substrate::butterfly(4)),
        ]
    }
}

const POLICIES: [&str; 2] = ["static", "pooled"];

/// Budget factor shared by both policy arms (x9's equal-storage pairing,
/// [`equal_budget_policy`]).
const BUDGET: u32 = 2;

/// The service-traffic description both arms share: clients (first half
/// of the endpoints) send `L`-flit messages to the servers (last half),
/// a quarter of them aimed at one hot server.
fn scenario(sub: &Substrate, rate: f64, seed: u64) -> ServiceScenario {
    let half = sub.endpoints() / 2;
    ServiceScenario::new(sub.clone(), half, half, L, rate, seed)
}

/// The closed-loop counterpart over the same partitions: `w` outstanding
/// request→reply chains per client, think and service times short enough
/// to drive the loop against its window bound.
fn closed_cfg(sub: &Substrate, w: u32, horizon: u64, seed: u64) -> ClosedLoopConfig {
    let half = sub.endpoints() / 2;
    ClosedLoopConfig {
        clients: half,
        servers: half,
        window: w,
        req_len: L,
        reply_len: L,
        think: (1, 8),
        server_delay: (1, 4),
        start_spread: 16,
        horizon,
        seed,
    }
}

/// Runs the full sweep, in input order: per topology, per policy, the
/// open-arm rate sweep then the closed-arm window sweep, on `engine`.
pub fn sweep_points(fast: bool, engine: Engine) -> Vec<Point> {
    let (warmup, measure) = params(fast);
    let rates: &[f64] = if fast {
        &[0.05, 0.25, 0.90]
    } else {
        &[0.02, 0.05, 0.10, 0.25, 0.50, 0.90]
    };
    let windows: &[u32] = if fast { &[1, 4] } else { &[1, 2, 4, 8] };

    enum Job {
        Open(f64),
        Closed(u32),
    }
    let mut jobs = Vec::new();
    for (ti, (topo, sub)) in topologies(fast).into_iter().enumerate() {
        for policy in POLICIES {
            for &rate in rates {
                jobs.push((topo, sub.clone(), ti, policy, Job::Open(rate)));
            }
            for &w in windows {
                jobs.push((topo, sub.clone(), ti, policy, Job::Closed(w)));
            }
        }
    }
    parallel_map(jobs, default_threads(), |(topo, sub, ti, policy, job)| {
        let fanout = sub.graph().max_out_degree() as u32;
        let seed = 0xb0b ^ ((*ti as u64) << 6);
        let ol = OpenLoopConfig::new(warmup, measure);
        let cfg = SimConfig::new(1)
            .vc_policy(equal_budget_policy(policy, BUDGET, fanout))
            .arbitration(Arbitration::Random)
            .seed(0x5eed ^ (*ti as u64))
            .engine(engine);
        let clients = sub.endpoints() / 2;
        let (knob, r) = match job {
            Job::Open(rate) => {
                let specs = scenario(sub, *rate, seed).generate(ol.window_end());
                (*rate, run_open_loop(sub.graph(), None, &specs, &cfg, &ol))
            }
            Job::Closed(w) => {
                let ccfg = closed_cfg(sub, *w, ol.window_end(), seed);
                (*w as f64, run_closed_loop(sub, &ccfg, &cfg, &ol))
            }
        };
        Point {
            topo,
            arm: if matches!(job, Job::Open(_)) {
                "open"
            } else {
                "closed"
            },
            policy,
            knob,
            clients,
            outcome: r.outcome.clone(),
            stats: r.open_loop.expect("windowed stats attached"),
            closed: r.closed_loop,
        }
    })
}

/// Runs X11 on `engine`.
pub fn run(fast: bool, engine: Engine) -> Vec<Table> {
    let (warmup, measure) = params(fast);
    let points = sweep_points(fast, engine);

    let mut tables = Vec::new();
    let mut curves = Table::new(
        format!(
            "X11 — open-loop vs closed-loop measurement near saturation: client/server service \
             traffic, L = {L}, budget B = {BUDGET}, warmup {warmup}, window {measure}"
        ),
        &[
            "topology",
            "arm",
            "policy",
            "knob (rate | W)",
            "offered (msg/step)",
            "accepted (flit/client/step)",
            "p50",
            "p99",
            "backlog end",
            "chains done",
            "chain p50",
            "saturated",
            "outcome",
        ],
    );
    for p in &points {
        let (chains, chain_p50) = match &p.closed {
            Some(cl) => (
                cl.chains_completed.to_string(),
                cl.chain_latency.p50.to_string(),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        curves.row(&cells!(
            p.topo,
            p.arm,
            p.policy,
            fnum(p.knob),
            fnum(p.stats.offered_msgs_per_step),
            fnum(p.accepted_per_client()),
            p.stats.latency.p50,
            p.stats.latency.p99,
            p.stats.backlog.1,
            chains,
            chain_p50,
            if p.stats.saturated { "yes" } else { "-" },
            outcome_cell(&p.outcome)
        ));
    }
    curves.note(
        "Both arms share the topology, client/server partition, message length, and VC budget; \
         only the injection discipline differs. The open arm's knob is the per-client injection \
         rate — past the knee its backlog and latency percentiles diverge and the saturation \
         detector fires. The closed arm's knob is the outstanding-request window W — its \
         in-flight population is structurally capped at clients x W chains, so the end-of-window \
         backlog stays bounded and accepted throughput self-limits at the knee instead of \
         queueing without bound.",
    );
    tables.push(curves);

    let mut summary = Table::new(
        "X11 — the divergence, summarized per (topology, policy)",
        &[
            "topology",
            "policy",
            "open sat. accepted",
            "open p99 @ top rate",
            "open backlog @ top rate",
            "closed max accepted",
            "closed backlog bound",
            "closed worst backlog",
        ],
    );
    for (topo, _) in topologies(fast) {
        for policy in POLICIES {
            let mine: Vec<&Point> = points
                .iter()
                .filter(|p| p.topo == topo && p.policy == policy)
                .collect();
            let open_sat = mine
                .iter()
                .filter(|p| p.arm == "open")
                .map(|p| p.accepted_per_client())
                .fold(0.0f64, f64::max);
            let top_open = mine
                .iter()
                .filter(|p| p.arm == "open")
                .max_by(|a, b| a.knob.total_cmp(&b.knob))
                .expect("open arm swept");
            let closed_best = mine
                .iter()
                .filter(|p| p.arm == "closed")
                .map(|p| p.accepted_per_client())
                .fold(0.0f64, f64::max);
            let bound = mine
                .iter()
                .filter_map(|p| p.closed.as_ref())
                .map(|c| 2 * c.outstanding_bound())
                .max()
                .unwrap_or(0);
            let worst = mine
                .iter()
                .filter(|p| p.arm == "closed")
                .map(|p| p.stats.backlog.1.max(p.stats.backlog.0))
                .max()
                .unwrap_or(0);
            summary.row(&cells!(
                topo,
                policy,
                fnum(open_sat),
                top_open.stats.latency.p99,
                top_open.stats.backlog.1,
                fnum(closed_best),
                bound,
                worst
            ));
        }
    }
    summary.note(
        "At the top open-loop rate the offered load is far beyond capacity: the backlog at the \
         measurement-window edge grows with the window length and the p99 latency diverges. The \
         closed arm running against the same fabric never holds more than clients x W chains \
         (requests + replies <= twice that in messages), so its worst observed backlog respects \
         the structural bound while it keeps completing chains — accepted throughput self-limits \
         where the open curve queues.",
    );
    tables.push(summary);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_points() -> Vec<Point> {
        sweep_points(true, Engine::EventDriven)
    }

    #[test]
    fn x11_closed_loop_self_limits_where_open_loop_diverges() {
        let points = fast_points();

        for p in &points {
            assert!(
                !matches!(p.outcome, Outcome::Deadlock(_)),
                "{} {} {} knob={} deadlocked",
                p.topo,
                p.arm,
                p.policy,
                p.knob
            );
        }

        for (topo, _) in topologies(true) {
            for policy in POLICIES {
                let mine: Vec<&Point> = points
                    .iter()
                    .filter(|p| p.topo == topo && p.policy == policy)
                    .collect();

                // Open arm: the top rate is past the knee — the detector
                // fires and the end backlog dwarfs the closed arm's.
                let top_open = mine
                    .iter()
                    .filter(|p| p.arm == "open")
                    .max_by(|a, b| a.knob.total_cmp(&b.knob))
                    .expect("open arm swept");
                assert!(
                    top_open.stats.saturated,
                    "{topo}/{policy}: top open rate must saturate: {:?}",
                    top_open.stats
                );

                // Closed arm: chains complete, and the backlog respects
                // the structural clients x W bound (requests + replies)
                // at every window.
                for p in mine.iter().filter(|p| p.arm == "closed") {
                    let cl = p.closed.as_ref().expect("closed arm carries chain stats");
                    assert!(
                        cl.chains_completed > 0,
                        "{topo}/{policy} W={}: no chains completed",
                        p.knob
                    );
                    assert!(cl.requests_issued >= cl.chains_completed);
                    assert!(cl.chain_latency.p50 > 0);
                    let bound = 2 * cl.outstanding_bound() as usize;
                    assert!(
                        p.stats.backlog.0 <= bound && p.stats.backlog.1 <= bound,
                        "{topo}/{policy} W={}: backlog {:?} exceeds structural bound {bound}",
                        p.knob,
                        p.stats.backlog
                    );
                    assert!(
                        p.stats.backlog.1 < top_open.stats.backlog.1,
                        "{topo}/{policy} W={}: closed backlog should stay below the \
                         saturated open arm's ({} vs {})",
                        p.knob,
                        p.stats.backlog.1,
                        top_open.stats.backlog.1
                    );
                }

                // A larger window buys throughput (weakly) — the closed
                // loop tracks the knee from below.
                let mut by_w: Vec<(f64, f64)> = mine
                    .iter()
                    .filter(|p| p.arm == "closed")
                    .map(|p| (p.knob, p.accepted_per_client()))
                    .collect();
                by_w.sort_by(|a, b| a.0.total_cmp(&b.0));
                assert!(by_w.len() >= 2);
                assert!(
                    by_w.last().unwrap().1 > 0.0,
                    "{topo}/{policy}: closed loop carried no traffic"
                );
            }
        }
    }

    #[test]
    fn x11_engines_agree_pointwise() {
        // Every field of every point — the closed loop's chain stats under
        // pooled VCs, which no other engine test reaches, included.
        let ev = sweep_points(true, Engine::EventDriven);
        assert_eq!(ev, sweep_points(true, Engine::Legacy));
    }

    #[test]
    fn x11_tables_render() {
        let tables = run(true, Engine::EventDriven);
        assert_eq!(tables.len(), 2);
        let s = tables[0].render();
        for needle in ["torus", "butterfly", "open", "closed", "static", "pooled"] {
            assert!(s.contains(needle), "missing {needle}");
        }
        assert!(tables[1].render().contains("divergence"));
    }
}
