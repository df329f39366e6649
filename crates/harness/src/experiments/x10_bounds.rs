//! X10 (extension) — the network-calculus bound engine cross-validated
//! against flitsim, plus no-simulation capacity certificates.
//!
//! Two kinds of rows share one mixed table (via
//! [`Table::row_opt`](crate::table::Table::row_opt)):
//!
//! * **sim+analytic** — on butterfly and Beneš substrates, generate an
//!   open-loop workload, fit every `(path, length)` flow with the
//!   tightest concave envelope of its realized releases
//!   ([`wormhole_netcalc::flows_from_specs`]), solve the feedforward
//!   closure ([`wormhole_netcalc::delay_bounds`]), then run the same
//!   trace to completion in the simulator. The oracle invariant —
//!   every simulated latency at or below its flow's analytic bound, so
//!   in particular `sim p100 ≤ bound` — is asserted per point by this
//!   module's tests (and fuzzed repo-wide by
//!   `tests/proptest_netcalc_oracle.rs`).
//! * **analytic-only** — a 1024-input butterfly under leaky-bucket
//!   bit-complement contracts, far past what the sweep simulates. These
//!   rows have no simulated percentiles and no saturation verdict, only
//!   a certificate (or `-` where none exists): at low `B` the closure
//!   finds no finite fixed point, at higher `B` it certifies tight
//!   worst-case delays — the paper's "what does `B` buy?" answered
//!   without simulating a flit.
//!
//! Both row kinds sweep `B ∈ {1, 2, 4, 8}` with the workload held fixed
//! across `B`, so bound columns are directly comparable (and are
//! asserted monotone nonincreasing in `B`). The last two columns show
//! the closure itself: `iters`, its Picard steps including the verifying
//! one (where no certificate exists, the steps until it diverged), and
//! `bound/p100`, the certificate's tightness against the simulated
//! worst case.

use wormhole_flitsim::config::{Engine, SimConfig};
use wormhole_flitsim::stats::Outcome;
use wormhole_flitsim::wormhole::run as wormhole_run;
use wormhole_netcalc::{delay_bounds, flows_from_specs, BoundConfig, Flow};
use wormhole_topology::butterfly::Butterfly;
use wormhole_workloads::{ArrivalProcess, Substrate, TrafficPattern, Workload};

use crate::open_loop_grid::outcome_cell;
use crate::sweep::{default_threads, parallel_map};
use crate::table::{fnum, Table};

/// Virtual-channel counts swept by every row kind.
pub const B_SWEEP: [u32; 4] = [1, 2, 4, 8];

/// One cross-validated point: an analytic certificate and the simulated
/// ground truth for the same trace.
pub struct SimPoint {
    /// Substrate display name.
    pub substrate: String,
    /// Pattern name.
    pub pattern: &'static str,
    /// Offered load, messages per endpoint per step.
    pub rate: f64,
    /// Virtual channels per edge.
    pub b: u32,
    /// Messages in the trace.
    pub messages: usize,
    /// Distinct `(path, length)` flows.
    pub flows: usize,
    /// Worst simulated release-to-delivery latency.
    pub sim_p100: u64,
    /// Worst analytic delay bound over all flows (`INFINITY` when the
    /// closure found no finite certificate — seen at B = 1 under hot
    /// adversarial patterns, where worst-case certification is vacuous).
    pub bound: f64,
    /// Iterations the closure's fixed-point solver ran.
    pub iterations: u32,
    /// Whether every simulated latency sat at or below its own flow's
    /// bound — the oracle invariant.
    pub oracle_ok: bool,
    /// How the (run-to-completion) simulation ended.
    pub outcome: Outcome,
}

/// One no-simulation certificate row.
pub struct AnalyticPoint {
    /// Substrate display name.
    pub substrate: String,
    /// Contract rate, messages per endpoint per step.
    pub rate: f64,
    /// Virtual channels per edge.
    pub b: u32,
    /// Flows in the contract set.
    pub flows: usize,
    /// Worst certified delay, or `None` when no finite certificate
    /// exists at this `B`.
    pub bound: Option<f64>,
    /// Iterations the closure's fixed-point solver ran.
    pub iterations: u32,
}

/// Sweep geometry per mode: substrate × patterns, rates, message length,
/// workload window.
fn substrates(fast: bool) -> Vec<(Substrate, Vec<TrafficPattern>)> {
    let (bk, nk) = if fast { (5, 3) } else { (6, 4) };
    vec![
        (
            Substrate::butterfly(bk),
            vec![TrafficPattern::UniformRandom, TrafficPattern::BitReversal],
        ),
        (
            Substrate::benes(nk),
            vec![TrafficPattern::UniformRandom, TrafficPattern::Permutation],
        ),
    ]
}

fn rates(fast: bool) -> &'static [f64] {
    if fast {
        &[0.02, 0.05]
    } else {
        &[0.01, 0.02, 0.05, 0.08]
    }
}

const MSG_LEN: u32 = 4;

fn window(fast: bool) -> u64 {
    if fast {
        300
    } else {
        800
    }
}

/// Runs the cross-validated sweep: per substrate × pattern × rate, one
/// workload trace shared by all `B ∈ {1,2,4,8}`, each `B` solved
/// analytically and simulated to completion on `engine`.
pub fn sweep_points(fast: bool, engine: Engine) -> Vec<SimPoint> {
    let mut jobs = Vec::new();
    for (si, (substrate, pats)) in substrates(fast).into_iter().enumerate() {
        for pattern in pats {
            for &rate in rates(fast) {
                for &b in &B_SWEEP {
                    jobs.push((si, substrate.clone(), pattern.clone(), rate, b));
                }
            }
        }
    }
    parallel_map(
        jobs,
        default_threads(),
        |(si, substrate, pattern, rate, b)| {
            // Seed depends on the workload, never on B: every B row of a
            // point bounds and simulates the identical trace.
            let seed = 0xb0_04 ^ ((*si as u64) << 8) ^ (rate.to_bits() >> 17);
            let w = Workload::new(
                substrate.clone(),
                pattern.clone(),
                ArrivalProcess::bernoulli(*rate),
                MSG_LEN,
                seed,
            );
            let specs = w.generate(window(fast));
            let tf = flows_from_specs(&specs);
            let report = delay_bounds(substrate.graph(), &tf.flows, &BoundConfig::new(*b))
                .expect("butterfly/benes routing sets are feedforward");

            // Run the trace to completion; trace-derived certificates are
            // finite, so the cap only guards a (would-be) soundness bug.
            let last_release = specs.last().map_or(0, |s| s.release);
            let cap = last_release + report.max_delay().min(1e9) as u64 + 10_000;
            let cfg = SimConfig::new(*b)
                .max_steps(cap)
                .seed(seed ^ 0x51)
                .engine(engine);
            let r = wormhole_run(substrate.graph(), &specs, &cfg);

            let mut sim_p100 = 0u64;
            let mut oracle_ok = r.outcome == Outcome::Completed;
            for (i, (spec, m)) in specs.iter().zip(&r.messages).enumerate() {
                let Some(lat) = m.latency(spec.release) else {
                    oracle_ok = false;
                    continue;
                };
                sim_p100 = sim_p100.max(lat);
                if lat as f64 > report.flow_delay[tf.spec_flow[i]] {
                    oracle_ok = false;
                }
            }
            SimPoint {
                substrate: substrate.name(),
                pattern: pattern.name(),
                rate: *rate,
                b: *b,
                messages: specs.len(),
                flows: tf.flows.len(),
                sim_p100,
                bound: report.max_delay(),
                iterations: report.iterations,
                oracle_ok,
                outcome: r.outcome,
            }
        },
    )
}

/// The no-simulation certificate sweep: a 1024-input butterfly under
/// per-input leaky-bucket bit-complement contracts (`σ = 1` message of
/// burst, rate as listed), across the same `B` sweep.
pub fn analytic_points(fast: bool) -> Vec<AnalyticPoint> {
    let bf = Butterfly::new(10);
    let n = 1u32 << 10;
    let substrate_name = format!("butterfly(n={n})");
    let contract_rates: &[f64] = if fast {
        &[0.002, 0.01]
    } else {
        &[0.001, 0.002, 0.005, 0.01]
    };
    let mut out = Vec::new();
    for &rate in contract_rates {
        let flows: Vec<Flow> = (0..n)
            .map(|s| {
                let p = bf.greedy_path(s, s ^ (n - 1)); // bit complement
                Flow::synthetic(p.edges().to_vec(), MSG_LEN, 1.0, rate)
            })
            .collect();
        for &b in &B_SWEEP {
            let report = delay_bounds(bf.graph(), &flows, &BoundConfig::new(b))
                .expect("butterfly routing sets are feedforward");
            out.push(AnalyticPoint {
                substrate: substrate_name.clone(),
                rate,
                b,
                flows: flows.len(),
                bound: report.bounded.then(|| report.max_delay()),
                iterations: report.iterations,
            });
        }
    }
    out
}

/// Runs X10, its simulations on `engine`.
pub fn run(fast: bool, engine: Engine) -> Vec<Table> {
    let sim = sweep_points(fast, engine);
    let analytic = analytic_points(fast);

    let mut tables = Vec::new();
    let mut t = Table::new(
        format!(
            "X10 — analytic delay bounds vs simulated worst case: L = {MSG_LEN}, \
             window {}, B in {{1,2,4,8}}",
            window(fast)
        ),
        &[
            "substrate",
            "pattern",
            "rate",
            "B",
            "msgs",
            "flows",
            "sim p100",
            "bound",
            "p100<=bound",
            "outcome",
            "iters",
            "bound/p100",
        ],
    );
    for p in &sim {
        t.row_opt(&[
            Some(p.substrate.clone()),
            Some(p.pattern.into()),
            Some(fnum(p.rate)),
            Some(p.b.to_string()),
            Some(p.messages.to_string()),
            Some(p.flows.to_string()),
            Some(p.sim_p100.to_string()),
            p.bound.is_finite().then(|| fnum(p.bound)),
            if p.bound.is_finite() {
                Some(if p.oracle_ok { "yes" } else { "VIOLATED" }.into())
            } else {
                None
            },
            Some(outcome_cell(&p.outcome).into()),
            Some(p.iterations.to_string()),
            p.bound
                .is_finite()
                .then(|| fnum(p.bound / p.sim_p100.max(1) as f64)),
        ]);
    }
    for p in &analytic {
        t.row_opt(&[
            Some(p.substrate.clone()),
            Some("bit-complement".into()),
            Some(fnum(p.rate)),
            Some(p.b.to_string()),
            None,
            Some(p.flows.to_string()),
            None,
            p.bound.map(fnum),
            None,
            None,
            Some(p.iterations.to_string()),
            None,
        ]);
    }
    t.note(
        "Upper rows are cross-validated: the analytic bound is computed from the realized \
         release trace (tightest concave envelope per flow) and the very same trace is \
         simulated to completion — 'yes' certifies that every message, not just the p100, \
         finished at or below its flow's bound. Lower rows are analytic-only capacity \
         certificates on a 1024-input butterfly under leaky-bucket contracts; they have no \
         simulated columns and no saturation verdict ('-'). In either kind a '-' bound means \
         no finite certificate exists at that B (seen at B = 1 under hot adversarial \
         patterns) — more VCs literally buy certifiability.",
    );
    t.note(
        "Bounds are valid for the default full-bandwidth model (static B VCs per edge, any \
         arbitration) on feedforward routing sets, and are monotone nonincreasing in B for \
         the fixed workload of each point.",
    );
    tables.push(t);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x10_oracle_holds_on_every_simulated_point() {
        let points = sweep_points(true, Engine::EventDriven);
        assert!(!points.is_empty());
        for p in &points {
            assert_eq!(
                p.outcome,
                Outcome::Completed,
                "{} {} rate={} B={} did not finish",
                p.substrate,
                p.pattern,
                p.rate,
                p.b
            );
            assert!(
                p.oracle_ok,
                "{} {} rate={} B={}: sim p100 {} exceeded analytic bound {}",
                p.substrate, p.pattern, p.rate, p.b, p.sim_p100, p.bound
            );
            // B = 1 certificates can be vacuous under hot patterns; from
            // B = 2 up every trace certifies finitely.
            assert!(
                p.b == 1 || p.bound.is_finite(),
                "{} {} rate={} B={}: expected a finite certificate",
                p.substrate,
                p.pattern,
                p.rate,
                p.b
            );
            assert!(p.sim_p100 as f64 <= p.bound);
        }
    }

    #[test]
    fn x10_bounds_are_monotone_in_b() {
        // Workload seeds do not depend on B, so rows of one point bound
        // the identical flow set and must shrink (weakly) as B grows.
        let points = sweep_points(true, Engine::EventDriven);
        for chunk in points.chunks(B_SWEEP.len()) {
            assert_eq!(chunk.len(), B_SWEEP.len());
            for w in chunk.windows(2) {
                assert_eq!(w[0].messages, w[1].messages, "same trace across B");
                assert!(
                    w[1].bound <= w[0].bound + 1e-6,
                    "{} {} rate={}: bound grew from B={} ({}) to B={} ({})",
                    w[0].substrate,
                    w[0].pattern,
                    w[0].rate,
                    w[0].b,
                    w[0].bound,
                    w[1].b,
                    w[1].bound
                );
            }
        }
    }

    #[test]
    fn x10_analytic_certificates_show_the_b_frontier() {
        let points = analytic_points(true);
        assert_eq!(points.len(), 2 * B_SWEEP.len());
        // Certificates are monotone in B: once certified, stays
        // certified, and the certified bound shrinks.
        for chunk in points.chunks(B_SWEEP.len()) {
            let mut prev: Option<f64> = None;
            for p in chunk {
                if let (Some(prev_bound), Some(bound)) = (prev, p.bound) {
                    assert!(
                        bound <= prev_bound + 1e-6,
                        "rate={} B={}: certified bound grew",
                        p.rate,
                        p.b
                    );
                }
                if prev.is_some() {
                    assert!(
                        p.bound.is_some(),
                        "certificate lost going up in B at rate={}",
                        p.rate
                    );
                }
                if p.bound.is_some() {
                    prev = p.bound;
                }
            }
        }
        // The frontier is non-trivial in both directions: some B is
        // certified, and low B at the hotter rate is not.
        assert!(points.iter().any(|p| p.bound.is_some()));
        assert!(points.iter().any(|p| p.bound.is_none()));
    }

    #[test]
    fn x10_tables_render_mixed_rows() {
        let tables = run(true, Engine::EventDriven);
        assert_eq!(tables.len(), 1);
        let s = tables[0].render();
        for needle in ["butterfly", "benes", "bit-complement", "p100<=bound"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
        // Analytic-only rows carry dashes in the simulated columns.
        assert!(s
            .lines()
            .any(|l| l.contains("bit-complement") && l.contains(" - ")));
    }
}
