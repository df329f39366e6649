//! The feedforward delay/backlog closure: certified per-hop header-wait
//! bounds under VC multiplexing, composed into end-to-end flow bounds.
//!
//! # The model being bounded
//!
//! [`wormhole_flitsim::wormhole`]'s default semantics: rigid worms (a
//! message's flits advance in lockstep behind the header), `B` virtual
//! channels per directed edge ([`VcPolicy::Static`]), full per-VC
//! bandwidth — every held VC moves one flit per step, so an edge's
//! aggregate capacity is `B` flits/step. A worm stalls only while its **header** waits for
//! a free VC on its next edge, and a step in which a header waits ends
//! with all `B` of that edge's VCs held by *other* worms (the arbiter
//! hands every free VC to some waiting header — any arbitration order
//! satisfies this, so the bound is arbitration-agnostic).
//!
//! # The inequality
//!
//! Let `S_{f,e}` bound the wait of flow `f`'s headers at edge `e` of its
//! path, and `D_f = (d_f + L_f − 1) + Σ_{e ∈ P_f} S_{f,e}` its
//! end-to-end latency bound. Two derived quantities close the system:
//!
//! * **occupancy** — while a worm of flow `f` holds a VC on `e` it
//!   blocks one of the `B` lanes for at most
//!   `H(f,e) = L_f + 1 + Σ_{e' after e} S_{f,e'}` steps (its `L_f − 1`
//!   streaming steps, its stalls at *downstream* edges, one step for a
//!   same-step grant, and one first-violation slack step);
//! * **windowing** — a worm holding `e` during a wait window of length
//!   `w` ending at time `t` was released within a span of `D_{f'} + w`
//!   steps, so at most `α_{f'}(D_{f'} + w)` worms of `f'` contribute;
//! * **self-exclusion** — the waiting worm itself holds *no* VC of `e`
//!   (it is waiting for one), yet the windowing count includes it, so
//!   its own charge `H(f,e)` can be subtracted. Without this refinement
//!   a lone message is billed for contending with itself at every hop
//!   and the closure diverges even at vanishing load.
//!
//! Counting the `B·w` lane-attributions of a `w`-step wait against the
//! cross-demand curve `W_e(w) = Σ_{f' ∋ e} H(f',e) · α_{f'}(D_{f'} + w)`
//! gives `B·w ≤ W_e(w) − H(f,e)`; the certified wait bound is the first
//! point past which the line `B·t` clears some bucket of the deflated
//! demand:
//!
//! ```text
//! S_{f,e} = min over buckets (σ, ρ) of W_e with ρ < B
//!           of max(0, σ − H(f,e)) / (B − ρ)
//! ```
//!
//! A *first-violation* induction turns these per-hop facts into a global
//! guarantee on feedforward routing sets: suppose some wait first
//! exceeds its bound at time `t*`; every occupancy and span entering
//! `W_e` at `≤ t*` then obeys its own bound (the boundary step is
//! absorbed by the slack unit in `H`), so `B·w ≤ W_e(w) − H(f,e)`
//! contradicts `w > S_{f,e}`. Hence no violation ever occurs and `D_f`
//! bounds every message's release-to-delivery latency — the oracle
//! invariant `sim p100 ≤ bound` that the cross-validation property tests
//! enforce.
//!
//! # Solving and certifying the fixed point
//!
//! The induction needs a **post-fixed point**: waits `S` with
//! `Φ(S) ≤ S`, where `Φ` is the update map above. The solver runs Picard
//! iteration from `S = 0`; on numerical convergence it inflates the
//! iterate by a hair and *verifies* `Φ(S) ≤ S` componentwise — only a
//! verified certificate is reported `bounded`. Divergence (no demand
//! bucket under rate `B`, a wait past `wait_cap`, or no convergence
//! within `max_iters`) is reported unbounded, which is always
//! conservative. Trace-derived envelopes are eventually flat (zero
//! long-run rate), so finite traces admit finite certificates whenever
//! the iteration converges; synthetic leaky-bucket sets lose their
//! certificate when some edge's occupancy-weighted long-run demand
//! reaches `B` — which is exactly the regime where more VCs buy
//! certifiability.
//!
//! [`VcPolicy::Static`]: wormhole_flitsim::config::VcPolicy::Static

use wormhole_topology::graph::Graph;

use crate::curve::{ArrivalCurve, ServiceCurve};
use crate::flow::Flow;

/// Knobs of the fixed-point solver.
#[derive(Clone, Copy, Debug)]
pub struct BoundConfig {
    /// Virtual channels per directed edge (`B ≥ 1`), matching
    /// `SimConfig::new(b)`.
    pub b: u32,
    /// Iteration cap before the instance is reported unbounded.
    pub max_iters: u32,
    /// Relative convergence tolerance on the wait vector.
    pub tol: f64,
    /// Divergence guard: any per-hop wait above this is unbounded.
    pub wait_cap: f64,
}

impl BoundConfig {
    /// Defaults for `b` VCs: 500 iterations, `1e-9` relative tolerance,
    /// `1e12`-step divergence guard.
    pub fn new(b: u32) -> Self {
        assert!(b >= 1, "at least one VC per edge");
        Self {
            b,
            max_iters: 500,
            tol: 1e-9,
            wait_cap: 1e12,
        }
    }
}

/// Why a bound computation refused the instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundError {
    /// The routing graph has a cycle; the feedforward closure does not
    /// apply (and wormhole routing could deadlock outright).
    NotFeedforward,
    /// A flow's path is empty or not a contiguous walk in the graph.
    BadPath(usize),
}

impl std::fmt::Display for BoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundError::NotFeedforward => write!(f, "routing graph is not feedforward"),
            BoundError::BadPath(i) => write!(f, "flow {i} has an invalid path"),
        }
    }
}

/// The solved bound system.
#[derive(Clone, Debug)]
pub struct BoundReport {
    /// Whether a post-fixed-point certificate was found and verified. If
    /// `false`, the per-flow bounds are `f64::INFINITY`.
    pub bounded: bool,
    /// Iterations the solver ran (including the verification pass).
    pub iterations: u32,
    /// Certified wait bound per flow per path position: `hop_wait[f][i]`
    /// bounds how long flow `f`'s headers wait for a VC on the `i`-th
    /// edge of its path.
    pub hop_wait: Vec<Vec<f64>>,
    /// Worst certified header wait per edge (indexed by `EdgeId`; max
    /// over flows crossing it, 0 where no flow does). A display-oriented
    /// aggregate of [`BoundReport::hop_wait`].
    pub edge_wait: Vec<f64>,
    /// End-to-end delay bound per flow: release-to-delivery steps,
    /// `(d + L − 1) + Σ_i hop_wait[f][i]`.
    pub flow_delay: Vec<f64>,
    /// Backlog bound per flow: at most `α_f(D_f) · L_f` flits of `f` in
    /// flight at any instant (each in-flight message was released within
    /// the last `D_f` steps).
    pub flow_backlog: Vec<f64>,
}

impl BoundReport {
    /// The worst end-to-end delay bound over all flows (`INFINITY` when
    /// unbounded, `0` for an empty flow set).
    pub fn max_delay(&self) -> f64 {
        self.flow_delay.iter().copied().fold(0.0, f64::max)
    }

    /// Total backlog bound: flits in flight network-wide.
    pub fn total_backlog(&self) -> f64 {
        self.flow_backlog.iter().sum()
    }

    /// The end-to-end pseudo-residual service curve of flow `fi`: the
    /// min-plus convolution of its per-hop rate-latency residuals
    /// `β_{B, S_{f,e}}` — rate `B` (the aggregate channel bandwidth),
    /// total latency `Σ_i hop_wait[fi][i]`. Only the latency term
    /// carries the per-hop guarantee (see the module docs); it is
    /// exactly `flow_delay[fi] − pipeline_floor`.
    pub fn end_to_end_service(&self, fi: usize, b: u32) -> ServiceCurve {
        self.hop_wait[fi]
            .iter()
            .map(|&s| ServiceCurve::rate_latency(b as f64, s))
            .reduce(|acc, s| acc.convolve(&s))
            .expect("flows have non-empty paths")
    }
}

/// One Picard step of the closure: from current per-hop waits, rebuild
/// delays/occupancies, then re-solve every hop's crossing point against
/// its edge's cross-demand curve. `None` when some hop diverges (demand
/// rate at or above `B`, or a wait past the cap).
fn phi(
    flows: &[Flow],
    incident: &[Vec<(usize, usize)>],
    cfg: &BoundConfig,
    s: &[Vec<f64>],
) -> Option<Vec<Vec<f64>>> {
    let b = cfg.b as f64;
    // delay[f] = pipeline floor + all hop waits;
    // suffix[f][i] = waits strictly after position i.
    let mut delay = Vec::with_capacity(flows.len());
    let mut suffix: Vec<Vec<f64>> = Vec::with_capacity(flows.len());
    for (f, waits) in flows.iter().zip(s) {
        let mut suf = vec![0.0; waits.len()];
        let mut acc = 0.0;
        for i in (0..waits.len()).rev() {
            suf[i] = acc;
            acc += waits[i];
        }
        delay.push(f.pipeline_floor() + acc);
        suffix.push(suf);
    }
    let occupancy = |fi: usize, pos: usize| flows[fi].len_flits as f64 + 1.0 + suffix[fi][pos];
    let mut next: Vec<Vec<f64>> = s.iter().map(|w| vec![0.0; w.len()]).collect();
    for inc in incident.iter() {
        if inc.is_empty() {
            continue;
        }
        // Cross-demand on this edge from every flow crossing it.
        let mut cross: Option<ArrivalCurve> = None;
        for &(fi, pos) in inc {
            let demand = flows[fi]
                .arrival
                .deconvolve_delay(delay[fi])
                .scale(occupancy(fi, pos));
            cross = Some(match cross {
                None => demand,
                Some(w) => w.add(&demand),
            });
        }
        let cross = cross.expect("non-empty incidence list");
        // Per crossing flow: deflate by its own charge and intersect
        // with the B-rate line.
        for &(fi, pos) in inc {
            let h = occupancy(fi, pos);
            let wait = cross
                .buckets()
                .iter()
                .filter(|tb| tb.rate < b)
                .map(|tb| (tb.burst - h).max(0.0) / (b - tb.rate))
                .fold(f64::INFINITY, f64::min);
            if !wait.is_finite() || wait > cfg.wait_cap {
                return None;
            }
            next[fi][pos] = wait;
        }
    }
    Some(next)
}

/// Computes certified delay and backlog bounds for `flows` on the
/// feedforward routing graph `graph` with `cfg.b` VCs per edge. See the
/// module docs for the model, the inequality, and its soundness
/// argument.
pub fn delay_bounds(
    graph: &Graph,
    flows: &[Flow],
    cfg: &BoundConfig,
) -> Result<BoundReport, BoundError> {
    if !graph.is_feedforward() {
        return Err(BoundError::NotFeedforward);
    }
    for (i, f) in flows.iter().enumerate() {
        if f.edges.is_empty() || f.edges.iter().any(|e| e.idx() >= graph.num_edges()) {
            return Err(BoundError::BadPath(i));
        }
        let contiguous = f
            .edges
            .windows(2)
            .all(|w| graph.dst(w[0]) == graph.src(w[1]));
        if !contiguous {
            return Err(BoundError::BadPath(i));
        }
    }

    // Incidence: which (flow, position) pairs cross each edge. A simple
    // path in an acyclic graph visits an edge at most once, so the pair
    // is unique per (flow, edge).
    let mut incident: Vec<Vec<(usize, usize)>> = vec![Vec::new(); graph.num_edges()];
    for (fi, f) in flows.iter().enumerate() {
        for (pos, e) in f.edges.iter().enumerate() {
            incident[e.idx()].push((fi, pos));
        }
    }

    let mut s: Vec<Vec<f64>> = flows.iter().map(|f| vec![0.0; f.edges.len()]).collect();
    let mut iterations = 0;
    let mut bounded = false;
    while iterations < cfg.max_iters {
        iterations += 1;
        let Some(next) = phi(flows, &incident, cfg, &s) else {
            break;
        };
        let mut delta = 0.0f64;
        let mut scale = 1.0f64;
        for (a, b) in s.iter().flatten().zip(next.iter().flatten()) {
            delta = delta.max((b - a).abs());
            scale = scale.max(*b);
        }
        s = next;
        if delta <= cfg.tol * scale {
            // Converged numerically; certify a post-fixed point by
            // inflating a hair and checking Φ(S) ≤ S componentwise up to
            // the numerical scale of the system. (The inflation is
            // amplified through each edge's demand row, so the check
            // must be relative — an exact ≤ would spuriously reject
            // instances whose per-edge message weight exceeds B.)
            for w in s.iter_mut().flatten() {
                *w = *w * (1.0 + 1e-7) + 1e-7;
            }
            iterations += 1;
            if let Some(check) = phi(flows, &incident, cfg, &s) {
                bounded = s
                    .iter()
                    .flatten()
                    .zip(check.iter().flatten())
                    .all(|(cand, chk)| *chk <= *cand + 1e-6 * scale.max(1.0));
            }
            break;
        }
    }

    let mut edge_wait = vec![0.0f64; graph.num_edges()];
    let (flow_delay, flow_backlog) = if bounded {
        for (f, waits) in flows.iter().zip(&s) {
            for (e, &w) in f.edges.iter().zip(waits) {
                edge_wait[e.idx()] = edge_wait[e.idx()].max(w);
            }
        }
        flows
            .iter()
            .zip(&s)
            .map(|(f, waits)| {
                let d = f.pipeline_floor() + waits.iter().sum::<f64>();
                (d, f.arrival.eval(d) * f.len_flits as f64)
            })
            .unzip()
    } else {
        (
            vec![f64::INFINITY; flows.len()],
            vec![f64::INFINITY; flows.len()],
        )
    };
    Ok(BoundReport {
        bounded,
        iterations,
        hop_wait: s,
        edge_wait,
        flow_delay,
        flow_backlog,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;
    use wormhole_topology::butterfly::Butterfly;
    use wormhole_topology::graph::{GraphBuilder, NodeId};
    use wormhole_topology::mesh::Mesh;

    fn chain(n: u32) -> (Graph, Vec<wormhole_topology::graph::EdgeId>) {
        let mut b = GraphBuilder::new(n as usize);
        let edges = (0..n - 1)
            .map(|i| b.add_edge(NodeId(i), NodeId(i + 1)))
            .collect();
        (b.build(), edges)
    }

    #[test]
    fn lone_message_is_bounded_by_its_pipeline_floor_exactly() {
        // A single message contends with nobody: self-exclusion deflates
        // every hop's demand to zero and the certified delay collapses
        // to the unblocked latency d + L − 1 — which the simulator
        // achieves exactly.
        let (g, edges) = chain(4);
        let f = Flow {
            edges,
            len_flits: 3,
            arrival: ArrivalCurve::from_trace(&[0]),
        };
        let r = delay_bounds(&g, std::slice::from_ref(&f), &BoundConfig::new(2)).unwrap();
        assert!(r.bounded);
        assert!((r.max_delay() - f.pipeline_floor()).abs() < 1e-3);
        assert!(r.hop_wait[0].iter().all(|&w| w < 1e-3));
        assert!(r.total_backlog() >= 3.0);
    }

    #[test]
    fn two_head_on_messages_pay_for_each_other_but_not_themselves() {
        // Two single-message flows sharing a path: each hop's wait is
        // the OTHER worm's occupancy divided by B, compounding upstream.
        let (g, edges) = chain(3);
        let mk = || Flow {
            edges: edges.clone(),
            len_flits: 4,
            arrival: ArrivalCurve::from_trace(&[0]),
        };
        let r = delay_bounds(&g, &[mk(), mk()], &BoundConfig::new(1)).unwrap();
        assert!(r.bounded);
        // Last hop: other worm's occupancy L + 1 = 5; one level up it is
        // 5 + 5 = 10 (within certification slack).
        assert!((r.hop_wait[0][1] - 5.0).abs() < 1e-3, "{:?}", r.hop_wait);
        assert!((r.hop_wait[0][0] - 10.0).abs() < 1e-3, "{:?}", r.hop_wait);
        assert!(r.max_delay() > mk().pipeline_floor());
    }

    #[test]
    fn bounds_shrink_with_more_vcs() {
        let (g, edges) = chain(5);
        let flows: Vec<Flow> = (0..4)
            .map(|i| Flow {
                edges: edges.clone(),
                len_flits: 4,
                arrival: ArrivalCurve::from_trace(&[i, i + 10, i + 20, i + 40]),
            })
            .collect();
        let mut prev = f64::INFINITY;
        for b in [1u32, 2, 4, 8] {
            let r = delay_bounds(&g, &flows, &BoundConfig::new(b)).unwrap();
            assert!(r.bounded, "trace flows at B={b} should certify");
            let d = r.max_delay();
            assert!(
                d <= prev + 1e-6,
                "B={b}: bound {d} must not exceed the previous B's {prev}"
            );
            prev = d;
        }
    }

    #[test]
    fn synthetic_overload_is_reported_unbounded() {
        // Long-run occupancy-weighted demand ≥ B on a shared edge: no
        // demand bucket under rate B survives, so no certificate exists.
        let (g, edges) = chain(2);
        let f = Flow::synthetic(edges, 4, 1.0, 0.5);
        let r = delay_bounds(&g, &[f.clone(), f.clone(), f], &BoundConfig::new(1)).unwrap();
        assert!(!r.bounded);
        assert!(r.max_delay().is_infinite());
        assert!(r.flow_backlog[0].is_infinite());
    }

    #[test]
    fn synthetic_light_load_is_bounded_and_b_sensitive() {
        // Identity traffic on a butterfly: paths are edge-disjoint, so
        // only rate-driven self-contention (later messages of the same
        // flow) remains and the closure certifies even B = 1. The gap to
        // B = 4 is pure VC benefit.
        let bf = Butterfly::new(5);
        let flows: Vec<Flow> = (0..32u32)
            .map(|s| Flow::synthetic(bf.greedy_path(s, s).edges().to_vec(), 4, 1.0, 0.005))
            .collect();
        let r1 = delay_bounds(bf.graph(), &flows, &BoundConfig::new(1)).unwrap();
        let r4 = delay_bounds(bf.graph(), &flows, &BoundConfig::new(4)).unwrap();
        assert!(r1.bounded && r4.bounded);
        assert!(r4.max_delay() < r1.max_delay());
        assert!(r4.max_delay() >= (5 + 4 - 1) as f64);
    }

    #[test]
    fn cyclic_graphs_are_rejected() {
        let torus = Mesh::new(4, 2, true);
        let p = torus.route(NodeId(0), NodeId(3));
        let f = Flow {
            edges: p.edges().to_vec(),
            len_flits: 2,
            arrival: ArrivalCurve::token_bucket(1.0, 0.01),
        };
        assert_eq!(
            delay_bounds(torus.graph(), &[f], &BoundConfig::new(2)).unwrap_err(),
            BoundError::NotFeedforward
        );
    }

    #[test]
    fn bad_paths_are_rejected() {
        let (g, edges) = chain(4);
        let gap = vec![edges[0], edges[2]]; // skips edge 1: not contiguous
        let f = Flow {
            edges: gap,
            len_flits: 2,
            arrival: ArrivalCurve::token_bucket(1.0, 0.0),
        };
        assert_eq!(
            delay_bounds(&g, &[f], &BoundConfig::new(1)).unwrap_err(),
            BoundError::BadPath(0)
        );
        let empty = Flow {
            edges: Vec::new(),
            len_flits: 2,
            arrival: ArrivalCurve::token_bucket(1.0, 0.0),
        };
        assert_eq!(
            delay_bounds(&g, &[empty], &BoundConfig::new(1)).unwrap_err(),
            BoundError::BadPath(0)
        );
    }

    #[test]
    fn end_to_end_service_matches_the_wait_sum() {
        let (g, edges) = chain(4);
        let mk = || Flow {
            edges: edges.clone(),
            len_flits: 2,
            arrival: ArrivalCurve::from_trace(&[0, 1, 2, 3]),
        };
        let r = delay_bounds(&g, &[mk(), mk()], &BoundConfig::new(2)).unwrap();
        let svc = r.end_to_end_service(0, 2);
        assert!((svc.rate - 2.0).abs() < 1e-12);
        let wait_sum: f64 = r.hop_wait[0].iter().sum();
        assert!((svc.latency - wait_sum).abs() < 1e-9);
        assert!((r.flow_delay[0] - (mk().pipeline_floor() + wait_sum)).abs() < 1e-9);
        // edge_wait aggregates the per-hop certificates.
        for (e, &w) in edges.iter().zip(r.hop_wait[0].iter()) {
            assert!(r.edge_wait[e.idx()] >= w);
        }
    }

    #[test]
    fn errors_render() {
        assert!(format!("{}", BoundError::NotFeedforward).contains("feedforward"));
        assert!(format!("{}", BoundError::BadPath(3)).contains("flow 3"));
    }
}
