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
//! verified certificate is reported `bounded`. The iteration has
//! converged when no wait moves by more than `TOL` = 10⁻⁹ of the largest
//! wait. Divergence (no demand bucket under rate `B`, a wait past
//! `WAIT_CAP` = 10¹² steps, or no convergence within `MAX_ITERS` = 500
//! Picard steps) is reported unbounded, which is always conservative.
//! Trace-derived envelopes are eventually flat (zero
//! long-run rate), so finite traces admit finite certificates whenever
//! the iteration converges; synthetic leaky-bucket sets lose their
//! certificate when some edge's occupancy-weighted long-run demand
//! reaches `B` — which is exactly the regime where more VCs buy
//! certifiability.
//!
//! # One sweep per edge
//!
//! A step of `Φ` evaluates, per edge some flow crosses, the cross-demand
//! curve `W_e` once and then intersects it with the `B`-line once per
//! crossing flow. `W_e` is a sum of shifted, scaled concave envelopes,
//! so it is built by one `ConcaveSum` sweep: every crossing flow adds
//! `H(f,e) · α_f(D_f + t)` straight from its stored buckets, the
//! breakpoint events are sorted once, and the merged walk emits `W_e`'s
//! buckets already canonical (rates strictly decreasing — see
//! [`crate::curve`]), which is all the crossing-point formula needs. The
//! wait vector is flat (one offset table over flows, two buffers swapped
//! between iterations), the incidence is a CSR over the used edges, and
//! the accumulator and its output are reused, so after set-up a step
//! performs **no heap allocation**. Cost:
//!
//! ```text
//! iterations × Σ_e (incidence_e + events_e · log events_e)
//! ```
//!
//! with `events_e` the buckets of the crossing flows' envelopes that
//! start after their flow's current delay bound (zero for one-message
//! flows). [`BoundReport::edge_sweeps`] and
//! [`BoundReport::events_merged`] count both factors exactly.
//!
//! [`VcPolicy::Static`]: wormhole_flitsim::config::VcPolicy::Static

use wormhole_topology::graph::Graph;

use crate::curve::{ConcaveSum, TokenBucket};
use crate::flow::Flow;

/// Picard steps before the instance is reported unbounded.
const MAX_ITERS: u32 = 500;
/// Relative convergence tolerance on the wait vector.
const TOL: f64 = 1e-9;
/// Divergence guard: any per-hop wait above this is unbounded.
const WAIT_CAP: f64 = 1e12;

/// The bound's one parameter: the virtual channels per edge.
#[derive(Clone, Copy, Debug)]
pub struct BoundConfig {
    /// Virtual channels per directed edge (`B ≥ 1`), matching
    /// `SimConfig::new(b)`.
    pub b: u32,
}

impl BoundConfig {
    /// The bound for `b` VCs per edge.
    pub fn new(b: u32) -> Self {
        assert!(b >= 1, "at least one VC per edge");
        Self { b }
    }

    /// `b` is public, so a literal can hold the 0 `new` refuses; it
    /// would otherwise surface as a silent `bounded: false`.
    fn validate(&self) -> Result<(), BoundError> {
        if self.b == 0 {
            return Err(BoundError::BadConfig("b must be at least 1"));
        }
        Ok(())
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
    /// A flow's messages have zero flits.
    ZeroLength(usize),
    /// [`BoundConfig::b`] is out of range; the payload says why.
    BadConfig(&'static str),
}

impl std::fmt::Display for BoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundError::NotFeedforward => write!(f, "routing graph is not feedforward"),
            BoundError::BadPath(i) => write!(f, "flow {i} has an invalid path"),
            BoundError::ZeroLength(i) => write!(f, "flow {i} has zero-flit messages"),
            BoundError::BadConfig(what) => write!(f, "invalid bound config: {what}"),
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
    /// Work counter: per-edge sweeps performed — `iterations` × the
    /// number of edges some flow crosses, unless an iteration diverged
    /// part-way. Deterministic, so CI can gate on it.
    pub edge_sweeps: u64,
    /// Work counter: breakpoint events the sweeps sorted and merged —
    /// per sweep, one per bucket of each crossing flow's envelope that
    /// starts after the flow's current delay bound. Deterministic.
    pub events_merged: u64,
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
}

/// The update map `Φ` over a fixed flow set: the flat layout of the wait
/// vector, the edge incidence, and every buffer one step needs — so a
/// step allocates nothing.
struct Closure<'a> {
    flows: &'a [Flow],
    b: f64,
    /// CSR over flows: flow `f`'s hops own wait slots
    /// `offsets[f]..offsets[f + 1]`, in path order.
    offsets: Vec<usize>,
    /// CSR over the edges some flow crosses, in `EdgeId` order: the
    /// `k`-th such edge owns `incidence[edge_start[k]..edge_start[k+1]]`.
    edge_start: Vec<usize>,
    /// `(flow, wait slot)` pairs. A simple path in an acyclic graph
    /// visits an edge at most once, so a slot appears exactly once.
    incidence: Vec<(usize, usize)>,
    /// `D_f` under the waits of the current step.
    delay: Vec<f64>,
    /// The cross-demand accumulator and its envelope, reused per edge.
    demand: ConcaveSum,
    cross: Vec<TokenBucket>,
    edge_sweeps: u64,
    events_merged: u64,
}

impl<'a> Closure<'a> {
    fn new(num_edges: usize, flows: &'a [Flow], cfg: &BoundConfig) -> Self {
        let mut offsets = Vec::with_capacity(flows.len() + 1);
        let mut slots = 0;
        offsets.push(0);
        for f in flows {
            slots += f.edges.len();
            offsets.push(slots);
        }
        // Counting sort of the incidences by edge: flows stay in index
        // order within an edge.
        let mut start = vec![0usize; num_edges + 1];
        for e in flows.iter().flat_map(|f| &f.edges) {
            start[e.idx() + 1] += 1;
        }
        for e in 0..num_edges {
            start[e + 1] += start[e];
        }
        let mut incidence = vec![(0, 0); slots];
        let mut cursor = start[..num_edges].to_vec();
        for (fi, f) in flows.iter().enumerate() {
            for (pos, e) in f.edges.iter().enumerate() {
                incidence[cursor[e.idx()]] = (fi, offsets[fi] + pos);
                cursor[e.idx()] += 1;
            }
        }
        // An edge no flow crosses repeats its predecessor's start.
        start.dedup();
        // Breakpoint events one edge's sweep can see at most.
        let max_events = start
            .windows(2)
            .map(|edge| {
                incidence[edge[0]..edge[1]]
                    .iter()
                    .map(|&(fi, _)| flows[fi].arrival.buckets().len() - 1)
                    .sum()
            })
            .max()
            .unwrap_or(0);
        Self {
            flows,
            b: cfg.b as f64,
            offsets,
            edge_start: start,
            incidence,
            delay: vec![0.0; flows.len()],
            demand: ConcaveSum::with_capacity(max_events),
            cross: Vec::with_capacity(max_events + 1),
            edge_sweeps: 0,
            events_merged: 0,
        }
    }

    /// One Picard step: from the per-hop waits `cur`, rebuild delays and
    /// occupancies, then re-solve every hop's crossing point against its
    /// edge's cross-demand curve into `next`. `false` when some hop
    /// diverges (no demand bucket under rate `B`, or a wait past the
    /// cap); `next` is then unspecified.
    fn step(&mut self, cur: &[f64], next: &mut [f64]) -> bool {
        // delay[f] = pipeline floor + all hop waits. next[slot] first
        // holds the waits strictly after the slot's hop: each slot is
        // read by its one edge's sweep before that sweep overwrites it.
        for (fi, f) in self.flows.iter().enumerate() {
            let mut acc = 0.0;
            for slot in (self.offsets[fi]..self.offsets[fi + 1]).rev() {
                next[slot] = acc;
                acc += cur[slot];
            }
            self.delay[fi] = f.pipeline_floor() + acc;
        }
        let flows = self.flows;
        let occupancy = |fi: usize, downstream: f64| flows[fi].len_flits as f64 + 1.0 + downstream;
        for edge in self.edge_start.windows(2) {
            let crossing = &self.incidence[edge[0]..edge[1]];
            // Cross-demand on this edge from every flow crossing it:
            // Σ H(f,e) · α_f(D_f + t).
            self.demand.clear();
            for &(fi, slot) in crossing {
                self.demand.push(
                    flows[fi].arrival.buckets(),
                    self.delay[fi],
                    occupancy(fi, next[slot]),
                );
            }
            self.events_merged += self.demand.envelope_into(&mut self.cross) as u64;
            self.edge_sweeps += 1;
            // Per crossing flow: deflate by its own charge and intersect
            // with the B-rate line.
            for &(fi, slot) in crossing {
                let h = occupancy(fi, next[slot]);
                let wait = self
                    .cross
                    .iter()
                    .filter(|tb| tb.rate < self.b)
                    .map(|tb| (tb.burst - h).max(0.0) / (self.b - tb.rate))
                    .fold(f64::INFINITY, f64::min);
                if !wait.is_finite() || wait > WAIT_CAP {
                    return false;
                }
                next[slot] = wait;
            }
        }
        true
    }
}

/// Picard iteration from `S = 0` over `slots` waits with the
/// inflate-and-verify certificate (see the module docs): returns
/// `(bounded, iterations, waits)`. `phi(cur, next)` is one step of the
/// update map, `false` on divergence.
fn picard(slots: usize, mut phi: impl FnMut(&[f64], &mut [f64]) -> bool) -> (bool, u32, Vec<f64>) {
    let mut s = vec![0.0f64; slots];
    let mut next = vec![0.0f64; slots];
    let mut iterations = 0;
    let mut bounded = false;
    while iterations < MAX_ITERS {
        iterations += 1;
        if !phi(&s, &mut next) {
            break;
        }
        let mut delta = 0.0f64;
        let mut scale = 1.0f64;
        for (a, b) in s.iter().zip(&next) {
            delta = delta.max((b - a).abs());
            scale = scale.max(*b);
        }
        std::mem::swap(&mut s, &mut next);
        if delta <= TOL * scale {
            // Converged numerically; certify a post-fixed point by
            // inflating a hair and checking Φ(S) ≤ S componentwise up to
            // the numerical scale of the system. (The inflation is
            // amplified through each edge's demand row, so the check
            // must be relative — an exact ≤ would spuriously reject
            // instances whose per-edge message weight exceeds B.)
            for w in s.iter_mut() {
                *w = *w * (1.0 + 1e-7) + 1e-7;
            }
            iterations += 1;
            if phi(&s, &mut next) {
                bounded = s
                    .iter()
                    .zip(&next)
                    .all(|(cand, chk)| *chk <= *cand + 1e-6 * scale.max(1.0));
            }
            break;
        }
    }
    (bounded, iterations, s)
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
    cfg.validate()?;
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
        if f.len_flits == 0 {
            return Err(BoundError::ZeroLength(i));
        }
    }

    let mut closure = Closure::new(graph.num_edges(), flows, cfg);
    let slots = closure.incidence.len();
    let (bounded, iterations, s) = picard(slots, |cur, next| closure.step(cur, next));
    let hop_wait: Vec<Vec<f64>> = closure
        .offsets
        .windows(2)
        .map(|w| s[w[0]..w[1]].to_vec())
        .collect();

    let mut edge_wait = vec![0.0f64; graph.num_edges()];
    let (flow_delay, flow_backlog) = if bounded {
        for (f, waits) in flows.iter().zip(&hop_wait) {
            for (e, &w) in f.edges.iter().zip(waits) {
                edge_wait[e.idx()] = edge_wait[e.idx()].max(w);
            }
        }
        flows
            .iter()
            .zip(&hop_wait)
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
        edge_sweeps: closure.edge_sweeps,
        events_merged: closure.events_merged,
        hop_wait,
        edge_wait,
        flow_delay,
        flow_backlog,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::ArrivalCurve;
    use crate::flow::Flow;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use wormhole_topology::butterfly::Butterfly;
    use wormhole_topology::graph::{GraphBuilder, NodeId};
    use wormhole_topology::mesh::Mesh;
    use wormhole_topology::random_nets::shared_chain_instance;

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
    fn the_pipeline_floor_holds_at_the_longest_length() {
        // d + L − 1 exceeds u32::MAX: the floor must not wrap, or the
        // certificate falls below the unblocked latency.
        let (g, ps) = shared_chain_instance(1, 2);
        let f = Flow {
            edges: ps.paths()[0].edges().to_vec(),
            len_flits: u32::MAX,
            arrival: ArrivalCurve::from_trace(&[0]),
        };
        let r = delay_bounds(&g, &[f], &BoundConfig::new(1)).unwrap();
        assert!(r.bounded);
        assert_eq!(r.flow_delay[0], 2.0 + u32::MAX as f64 - 1.0);
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
        let torus = Mesh::new(4, 2);
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
    fn flow_delay_and_edge_wait_read_the_hop_waits() {
        let (g, edges) = chain(4);
        let mk = || Flow {
            edges: edges.clone(),
            len_flits: 2,
            arrival: ArrivalCurve::from_trace(&[0, 1, 2, 3]),
        };
        let r = delay_bounds(&g, &[mk(), mk()], &BoundConfig::new(2)).unwrap();
        let wait_sum: f64 = r.hop_wait[0].iter().sum();
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
        assert!(format!("{}", BoundError::ZeroLength(5)).contains("flow 5"));
        assert!(format!("{}", BoundError::BadConfig("tol must be x")).contains("tol must be x"));
    }

    fn bad_config(cfg: BoundConfig) -> &'static str {
        let (g, edges) = chain(3);
        let f = Flow::synthetic(edges, 2, 1.0, 0.01);
        match delay_bounds(&g, &[f], &cfg) {
            Err(BoundError::BadConfig(what)) => what,
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }

    #[test]
    fn zero_vcs_are_rejected() {
        let cfg = BoundConfig { b: 0 };
        assert!(bad_config(cfg).starts_with("b "));
    }

    #[test]
    fn zero_flit_flows_are_rejected() {
        let (g, edges) = chain(3);
        let ok = Flow::synthetic(edges.clone(), 2, 1.0, 0.01);
        let empty = Flow {
            edges,
            len_flits: 0,
            arrival: ArrivalCurve::token_bucket(1.0, 0.01),
        };
        assert_eq!(
            delay_bounds(&g, &[ok, empty], &BoundConfig::new(2)).unwrap_err(),
            BoundError::ZeroLength(1)
        );
    }

    #[test]
    fn work_counters_count_sweeps_and_breakpoints() {
        // Six edges, three of them used. Every breakpoint sits past
        // t = 10⁴, far beyond any delay bound here, so no bucket ever
        // drops out and each sweep sees every crossing flow's events.
        let (g, edges) = chain(7);
        let three = ArrivalCurve::from_buckets(vec![
            TokenBucket::new(1.0, 0.01),
            TokenBucket::new(101.0, 0.001),
            TokenBucket::new(1001.0, 0.0001),
        ]);
        let two = ArrivalCurve::from_buckets(vec![
            TokenBucket::new(2.0, 0.005),
            TokenBucket::new(62.0, 0.0),
        ]);
        assert_eq!((three.buckets().len(), two.buckets().len()), (3, 2));
        let flows = [
            Flow {
                edges: edges[..3].to_vec(),
                len_flits: 4,
                arrival: three,
            },
            Flow {
                edges: edges[1..3].to_vec(),
                len_flits: 2,
                arrival: two,
            },
            Flow::synthetic(edges[..1].to_vec(), 3, 1.0, 0.002),
        ];
        let r = delay_bounds(&g, &flows, &BoundConfig::new(2)).unwrap();
        assert!(r.bounded);
        assert!(r.max_delay() < 1e3);
        let iterations = r.iterations as u64;
        assert!(iterations >= 2);
        assert_eq!(r.edge_sweeps, iterations * 3);
        // Σ over incidences of (buckets − 1): 3·2 + 2·1 + 1·0.
        assert_eq!(r.events_merged, iterations * 8);
    }

    /// Butterfly(5), ~3 messages per (path, length) flow: multi-bucket
    /// trace envelopes on heavily shared edges.
    fn trace_instance() -> (Butterfly, Vec<Flow>) {
        let bf = Butterfly::new(5);
        let mut rng = StdRng::seed_from_u64(7);
        let flows = (0..60)
            .map(|_| {
                let path = bf.greedy_path(rng.random_range(0..32), rng.random_range(0..8));
                let mut times: Vec<u64> = (0..rng.random_range(1..8u32))
                    .map(|_| rng.random_range(0..300))
                    .collect();
                times.sort_unstable();
                Flow {
                    edges: path.edges().to_vec(),
                    len_flits: 4,
                    arrival: ArrivalCurve::from_trace(&times),
                }
            })
            .collect();
        (bf, flows)
    }

    #[test]
    fn a_picard_step_allocates_nothing() {
        let (bf, flows) = trace_instance();
        let mut closure = Closure::new(bf.graph().num_edges(), &flows, &BoundConfig::new(2));
        let capacities = |c: &Closure| {
            [
                c.offsets.capacity(),
                c.edge_start.capacity(),
                c.incidence.capacity(),
                c.delay.capacity(),
                c.demand.capacity(),
                c.cross.capacity(),
            ]
        };
        let before = capacities(&closure);
        let slots = closure.incidence.len();
        let (mut cur, mut next) = (vec![0.0; slots], vec![0.0; slots]);
        for _ in 0..2 {
            assert!(closure.step(&cur, &mut next));
            std::mem::swap(&mut cur, &mut next);
        }
        assert!(
            closure.events_merged > 0,
            "the instance must exercise the sort"
        );
        assert_eq!(capacities(&closure), before);
    }

    #[test]
    fn a_step_with_no_bucket_under_rate_b_diverges() {
        // Three flows of occupancy ≥ 5 at rate 0.5 on one edge: the
        // demand's only bucket has rate ≥ 7.5 > B = 1.
        let (_, edges) = chain(2);
        let flows = vec![Flow::synthetic(edges, 4, 1.0, 0.5); 3];
        let mut closure = Closure::new(1, &flows, &BoundConfig::new(1));
        assert!(!closure.step(&[0.0; 3], &mut [0.0; 3]));
    }

    /// The per-incidence composition the sweep replaced, kept as the
    /// reference `Φ`: one `deconvolve_delay(d).scale(h)` curve per
    /// (flow, edge) incidence, folded with `add`.
    fn reference_phi(
        flows: &[Flow],
        incident: &[Vec<(usize, usize)>],
        cfg: &BoundConfig,
        s: &[Vec<f64>],
    ) -> Option<Vec<Vec<f64>>> {
        let b = cfg.b as f64;
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
        for inc in incident.iter().filter(|inc| !inc.is_empty()) {
            let cross = inc
                .iter()
                .map(|&(fi, pos)| {
                    flows[fi]
                        .arrival
                        .deconvolve_delay(delay[fi])
                        .scale(occupancy(fi, pos))
                })
                .reduce(|acc, demand| acc.add(&demand))
                .expect("non-empty incidence list");
            for &(fi, pos) in inc {
                let h = occupancy(fi, pos);
                let wait = cross
                    .buckets()
                    .iter()
                    .filter(|tb| tb.rate < b)
                    .map(|tb| (tb.burst - h).max(0.0) / (b - tb.rate))
                    .fold(f64::INFINITY, f64::min);
                if !wait.is_finite() || wait > WAIT_CAP {
                    return None;
                }
                next[fi][pos] = wait;
            }
        }
        Some(next)
    }

    /// `(bounded, iterations, hop_wait)` of the closure solved with
    /// [`reference_phi`] under the same Picard driver.
    fn reference_bounds(
        graph: &Graph,
        flows: &[Flow],
        cfg: &BoundConfig,
    ) -> (bool, u32, Vec<Vec<f64>>) {
        let mut incident = vec![Vec::new(); graph.num_edges()];
        for (fi, f) in flows.iter().enumerate() {
            for (pos, e) in f.edges.iter().enumerate() {
                incident[e.idx()].push((fi, pos));
            }
        }
        let unflatten = |flat: &[f64]| -> Vec<Vec<f64>> {
            let mut rest = flat;
            flows
                .iter()
                .map(|f| {
                    let (head, tail) = rest.split_at(f.edges.len());
                    rest = tail;
                    head.to_vec()
                })
                .collect()
        };
        let slots = flows.iter().map(|f| f.edges.len()).sum();
        let (bounded, iterations, s) = picard(slots, |cur, next| {
            match reference_phi(flows, &incident, cfg, &unflatten(cur)) {
                Some(waits) => {
                    next.copy_from_slice(&waits.concat());
                    true
                }
                None => false,
            }
        });
        (bounded, iterations, unflatten(&s))
    }

    /// A random envelope: a synthetic concave contract of up to
    /// `max_buckets` buckets, or the envelope of a random release trace
    /// of up to twice as many messages.
    fn random_envelope(rng: &mut StdRng, max_buckets: usize, trace: bool) -> ArrivalCurve {
        if trace {
            let mut times: Vec<u64> = (0..rng.random_range(1..=2 * max_buckets))
                .map(|_| rng.random_range(0..400u64))
                .collect();
            times.sort_unstable();
            ArrivalCurve::from_trace(&times)
        } else {
            ArrivalCurve::from_buckets(
                (0..rng.random_range(1..=max_buckets))
                    .map(|_| {
                        TokenBucket::new(rng.random_range(1.0..12.0), rng.random_range(0.0..0.02))
                    })
                    .collect(),
            )
        }
    }

    fn close(x: f64, y: f64) -> bool {
        x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The per-edge sweep solves the same closure as the
        /// per-incidence composition: same certificate, same iteration
        /// count, same waits — on 1–6-bucket synthetic and trace
        /// envelopes, where buckets drop out as delays grow.
        #[test]
        fn sweep_matches_the_per_incidence_reference(
            topology in 0u32..3,
            k in 2u32..=4,
            n_flows in 1usize..48,
            max_buckets in 1usize..=6,
            trace in proptest::bool::ANY,
            b_log in 0u32..4,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let substrate = match topology {
                0 => Some(wormhole_workloads::Substrate::butterfly(k)),
                1 => Some(wormhole_workloads::Substrate::benes(k.min(3))),
                _ => None,
            };
            let (line, line_edges) = chain(2 * k + 2);
            let graph = substrate.as_ref().map_or(&line, |s| s.graph());
            let flows: Vec<Flow> = (0..n_flows)
                .map(|_| {
                    let edges = match &substrate {
                        Some(s) => {
                            let n = s.endpoints();
                            let path = s.route(rng.random_range(0..n), rng.random_range(0..n));
                            path.edges().to_vec()
                        }
                        None => {
                            let from = rng.random_range(0..line_edges.len());
                            let to = rng.random_range(from..line_edges.len());
                            line_edges[from..=to].to_vec()
                        }
                    };
                    Flow {
                        edges,
                        len_flits: rng.random_range(1..=6),
                        arrival: random_envelope(&mut rng, max_buckets, trace),
                    }
                })
                .collect();
            let cfg = BoundConfig::new(1 << b_log);

            let got = delay_bounds(graph, &flows, &cfg).unwrap();
            let (bounded, iterations, hop_wait) = reference_bounds(graph, &flows, &cfg);
            prop_assert_eq!(got.bounded, bounded);
            prop_assert_eq!(got.iterations, iterations);
            for (fi, (ours, theirs)) in got.hop_wait.iter().zip(&hop_wait).enumerate() {
                prop_assert_eq!(ours.len(), theirs.len());
                for (pos, (&a, &b)) in ours.iter().zip(theirs).enumerate() {
                    prop_assert!(close(a, b), "hop_wait[{fi}][{pos}]: {a} vs reference {b}");
                }
                let delay = if bounded {
                    flows[fi].pipeline_floor() + theirs.iter().sum::<f64>()
                } else {
                    f64::INFINITY
                };
                prop_assert!(
                    close(got.flow_delay[fi], delay),
                    "flow_delay[{fi}]: {} vs reference {delay}", got.flow_delay[fi]
                );
            }
        }
    }
}
