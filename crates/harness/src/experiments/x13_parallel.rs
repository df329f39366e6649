//! X13 (extension) — the partitioned parallel engine on dateline tori:
//! where its decomposition pays, and where it does not.
//!
//! The partitioned engine
//! ([`wormhole_flitsim::config::Engine::Parallel`]) shards the torus
//! into coordinate-plane slabs ([`Substrate::region_plan`]) and
//! advances them under conservative, plan-aware lookahead windows: the
//! grant is the minimum distance-to-cut over the resident worms. With
//! fewer workers than slabs, each worker steps a block of adjacent slabs
//! merged into one region before step 0; one worker steps the whole
//! torus as one region, its worms admitted into it and retired from it
//! in place, and runs like the event engine plus the coordinator's
//! window loop. The sweep runs two arms over the same tori, the same
//! plan and the same worker ladder, because the engine treats them
//! oppositely:
//!
//! * **tornado** traffic travels only in dimension 0 and the slabs cut
//!   the last dimension, so no worm can ever reach a cut: every grant is
//!   unbounded and each region runs whole drain phases barrier-free;
//! * **uniform** traffic crosses the slab faces at once: the grant
//!   drops to single steps, and every window costs two barrier waits.
//!
//! The contract is *bit-identity*: every point re-runs the same batch
//! on the sequential event-driven engine and asserts the [`SimResult`]s
//! field-for-field equal — pattern and worker count may only ever change
//! the wall-clock column. `regions` comes from
//! [`SimResult::engine_stats`].
//!
//! The table reads as a strong-scaling curve per arm: one substrate,
//! one workload, one partition, 1 → 2 → 4 → 8 workers. A full-size run
//! on a host with at least two cores asserts that two workers beat one
//! on the largest tornado point (24², the strong-scaling arm) and fails
//! when they do not. Fast mode asserts no timing — on its largest torus
//! (16²) a second worker does not pay — so CI gates on bit-identity and
//! `regions` alone. The uniform arm carries no floor: its note
//! states the measured 1-worker / event ratio instead of implying a
//! speed-up.

use std::time::Instant;

use wormhole_flitsim::config::{Engine, SimConfig};
use wormhole_flitsim::stats::{Outcome, SimResult};
use wormhole_flitsim::wormhole;
use wormhole_workloads::{ArrivalProcess, RoutingDiscipline, Substrate, TrafficPattern, Workload};

use crate::cells;
use crate::table::Table;

const MSG_LEN: u32 = 8;
const REGIONS: u32 = 8;

/// The two arms: pattern, table name, injection rate (messages per node
/// per step; tornado loads every ring, uniform stays below saturation).
const ARMS: [(TrafficPattern, &str, f64); 2] = [
    (TrafficPattern::Tornado, "tornado", 0.35),
    (TrafficPattern::UniformRandom, "uniform", 0.03),
];

/// One measured run: a sequential baseline (`workers == 0`) or a
/// parallel run at `workers` threads.
pub struct ScalePoint {
    /// Substrate name (table key).
    pub substrate: String,
    /// Traffic pattern name (`"tornado"` / `"uniform"`).
    pub pattern: &'static str,
    /// `"event"` for the sequential baseline, `"parallel"` otherwise.
    pub engine: &'static str,
    /// Worker threads (0 on the sequential baseline row).
    pub workers: u32,
    /// Regions in the plan the parallel runs share.
    pub plan_regions: u32,
    /// Regions the parallel run stepped (`None` on the baseline row):
    /// `min(workers, plan_regions)`.
    pub regions: Option<u32>,
    /// Messages in the batch.
    pub msgs: usize,
    /// Total simulated flit steps.
    pub total_steps: u64,
    /// Wall-clock time of the run.
    pub wall_ms: f64,
    /// Speedup of this parallel run over the 1-worker parallel run.
    pub speedup: Option<f64>,
}

/// Torus radii for the sweep; full size ends on the large-torus
/// strong-scaling point the speedup floor is asserted on.
fn radii(fast: bool) -> &'static [u32] {
    if fast {
        &[6, 10, 16]
    } else {
        &[6, 10, 16, 24]
    }
}

fn timed_run(
    graph: &wormhole_topology::graph::Graph,
    specs: &[wormhole_flitsim::MessageSpec],
    cfg: &SimConfig,
) -> (SimResult, f64) {
    let t0 = Instant::now();
    let r = wormhole::run(graph, specs, cfg);
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// Runs the sweep: per arm and torus size, one sequential baseline and
/// one parallel run per ladder entry, all on the same
/// [`Substrate::region_plan`]. Panics if any parallel run diverges from
/// its baseline — bit-identity is the experiment's precondition, not
/// one of its findings.
pub fn sweep_points(fast: bool, ladder: &[u32]) -> Vec<ScalePoint> {
    let window = if fast { 150 } else { 400 };
    let mut out = Vec::new();
    for (pattern, pattern_name, rate) in ARMS {
        for &radix in radii(fast) {
            let substrate = Substrate::torus_with(radix, 2, RoutingDiscipline::DatelineClasses);
            let w = Workload::new(
                substrate.clone(),
                pattern.clone(),
                ArrivalProcess::bernoulli(rate),
                MSG_LEN,
                9 + radix as u64,
            );
            let specs = w.generate(window);
            let plan = substrate.region_plan(REGIONS);
            let plan_regions = plan.num_regions();
            let cfg = SimConfig::new(2).seed(13).regions(plan);
            let point = |engine, workers, r: &SimResult, wall_ms, speedup| ScalePoint {
                substrate: substrate.name(),
                pattern: pattern_name,
                engine,
                workers,
                plan_regions,
                // The sequential engine reports counters too, but runs on
                // no regions.
                regions: r
                    .engine_stats
                    .map(|s| s.regions)
                    .filter(|&regions| regions > 0),
                msgs: specs.len(),
                total_steps: r.total_steps,
                wall_ms,
                speedup,
            };

            let (base, base_ms) = timed_run(
                substrate.graph(),
                &specs,
                &cfg.clone().engine(Engine::EventDriven),
            );
            assert_eq!(base.outcome, Outcome::Completed, "baseline must finish");
            out.push(point("event", 0, &base, base_ms, None));

            let mut one_worker_ms = None;
            for &workers in ladder {
                let (par, ms) = timed_run(
                    substrate.graph(),
                    &specs,
                    &cfg.clone().engine(Engine::Parallel { threads: workers }),
                );
                assert!(
                    par.same_execution(&base),
                    "parallel({workers}w) diverged from the sequential baseline on {} / {pattern_name}",
                    substrate.name()
                );
                if workers == 1 {
                    one_worker_ms = Some(ms);
                }
                let speedup = one_worker_ms.map(|t1| t1 / ms);
                out.push(point("parallel", workers, &par, ms, speedup));
            }
        }
    }
    out
}

/// Wall time of the `engine` / `workers` row of `pattern` on `substrate`.
fn wall(
    points: &[ScalePoint],
    substrate: &str,
    pattern: &str,
    engine: &str,
    w: u32,
) -> Option<f64> {
    points
        .iter()
        .find(|p| {
            p.substrate == substrate && p.pattern == pattern && p.engine == engine && p.workers == w
        })
        .map(|p| p.wall_ms)
}

/// Asserts the scaling floor on the largest tornado point (the
/// strong-scaling arm) of a full-size sweep: 2 workers strictly faster
/// than 1. Returns the host's core count if it was checked — it takes
/// two cores, and both rows on the ladder.
fn assert_speedup_floor(points: &[ScalePoint]) -> Option<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let largest = &points.last()?.substrate;
    let wall = |w: u32| wall(points, largest, "tornado", "parallel", w);
    let (t1, t2) = (wall(1)?, wall(2)?);
    if cores < 2 {
        return None;
    }
    assert!(
        t2 < t1,
        "scaling floor violated on {largest}: 2 workers ({t2:.3} ms) not faster than 1 worker \
         ({t1:.3} ms) on {cores} cores"
    );
    Some(cores)
}

/// Runs X13 on the 1/2/4/8 worker ladder.
pub fn run(fast: bool) -> Vec<Table> {
    let points = sweep_points(fast, &[1, 2, 4, 8]);
    let floor_checked = if fast {
        None
    } else {
        assert_speedup_floor(&points)
    };

    let mut t = Table::new(
        format!(
            "X13 — partitioned parallel engine: tornado and uniform batches on dateline tori, \
             L = {MSG_LEN}, B = 2, {REGIONS} slab regions, bit-identity asserted per point"
        ),
        &[
            "substrate",
            "pattern",
            "engine",
            "workers",
            "regions",
            "msgs",
            "flit steps",
            "wall ms",
            "speedup vs 1w",
        ],
    );
    let or_dash = |x: Option<String>| x.unwrap_or_else(|| "-".to_string());
    for p in &points {
        t.row(&cells!(
            p.substrate.clone(),
            p.pattern,
            p.engine,
            or_dash((p.workers > 0).then(|| p.workers.to_string())),
            or_dash(p.regions.map(|r| r.to_string())),
            p.msgs,
            p.total_steps,
            format!("{:.3}", p.wall_ms),
            or_dash(p.speedup.map(|s| format!("{s:.2}x")))
        ));
    }
    t.note(
        "Every parallel row is field-for-field identical to its sequential baseline row \
         (same SimResult; asserted before the table is rendered) — pattern and workers only \
         move the wall-clock column. The region plan cuts the torus into whole \
         coordinate-plane slabs of the last dimension, at most one per ring position (six on \
         6^2); with fewer workers than slabs each worker steps a block of adjacent slabs \
         merged into one region before step 0 (`regions`), so one worker steps the whole \
         torus, like the event engine. Tornado traffic travels only in dimension 0, so no \
         route crosses a cut: every grant is unbounded and the drain phase runs barrier-free \
         in long windows. Uniform traffic crosses the slab faces from the first \
         step: the grant drops to one step.",
    );
    // The honest headline per arm: what one parallel worker costs next
    // to the sequential engine, on the largest torus of this run.
    if let Some(largest) = points.last().map(|p| p.substrate.clone()) {
        let ratios: Vec<String> = ARMS
            .iter()
            .filter_map(|&(_, pattern, _)| {
                let te = wall(&points, &largest, pattern, "event", 0)?;
                let t1 = wall(&points, &largest, pattern, "parallel", 1)?;
                Some(format!("{pattern} {:.2}x", t1 / te))
            })
            .collect();
        if !ratios.is_empty() {
            t.note(format!(
                "Measured on this host, one parallel worker takes this multiple of the \
                 sequential event engine's wall time on {largest}: {}. Above 1.00x it is a \
                 cost, not a speed-up — the coordinator's window loop and the merge between \
                 windows.",
                ratios.join(", ")
            ));
        }
    }
    if let Some(cores) = floor_checked {
        t.note(format!(
            "Scaling floor checked on this host ({cores} cores): on the largest torus of the \
             tornado arm (the strong-scaling arm) the 2-worker run beat the 1-worker run."
        ));
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x13_fast_sweep_is_bit_identical_and_floor_checked_when_possible() {
        // sweep_points asserts identity internally; the floor is a
        // full-size assertion (no fast-mode torus is large enough for a
        // second worker to pay), so there is none to check here.
        let points = sweep_points(true, &[1, 2, 4]);
        // One baseline plus three ladder entries per arm and torus size.
        assert_eq!(points.len(), ARMS.len() * radii(true).len() * 4);
        for p in &points {
            assert!(p.msgs > 0, "sweep points must carry traffic");
            // One region a worker, whatever the traffic.
            let expect = (p.engine == "parallel").then(|| p.plan_regions.min(p.workers));
            assert_eq!(p.regions, expect, "{} {}", p.substrate, p.pattern);
        }
    }
}
