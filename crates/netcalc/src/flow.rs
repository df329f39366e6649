//! Flows: routed traffic streams with arrival-curve envelopes.
//!
//! The bound engine reasons about **flows** — groups of messages sharing
//! one path and one length — rather than individual [`MessageSpec`]s.
//! [`flows_from_specs`] derives the flow set of a concrete open-loop
//! trace, fitting each flow with the *tightest concave envelope* of its
//! release times ([`ArrivalCurve::from_trace`]). Trace envelopes are the
//! honest choice for cross-validation: a Bernoulli process has no
//! almost-sure burst bound, so any a-priori leaky bucket either lies or
//! is vacuous, while the realized trace has an exact finite envelope.
//!
//! For capacity planning without a trace (the ROADMAP's million-router
//! reading), [`Flow::synthetic`] builds a flow from an assumed
//! leaky-bucket contract instead.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use wormhole_flitsim::message::MessageSpec;
use wormhole_topology::graph::EdgeId;

use crate::curve::ArrivalCurve;

/// One flow: a fixed path, a message length, and an arrival envelope
/// (messages per step, window-span convention).
#[derive(Clone, Debug)]
pub struct Flow {
    /// The path's edges, in traversal order (non-empty).
    pub edges: Vec<EdgeId>,
    /// Message length `L` in flits (`≥ 1`).
    pub len_flits: u32,
    /// Arrival envelope: at most `arrival(Δ)` messages released in any
    /// closed window of span `Δ`.
    pub arrival: ArrivalCurve,
}

impl Flow {
    /// A flow from an assumed leaky-bucket contract `γ_{burst,rate}` —
    /// the no-trace capacity-planning constructor.
    pub fn synthetic(edges: Vec<EdgeId>, len_flits: u32, burst: f64, rate: f64) -> Self {
        assert!(!edges.is_empty(), "a flow needs a route");
        assert!(len_flits >= 1, "a message has at least its header flit");
        Self {
            edges,
            len_flits,
            arrival: ArrivalCurve::token_bucket(burst, rate),
        }
    }

    /// Unblocked latency floor `d + L − 1` of one message of this flow,
    /// summed in `u64` so no length overflows it.
    pub fn pipeline_floor(&self) -> f64 {
        (self.edges.len() as u64 + self.len_flits as u64 - 1) as f64
    }
}

/// The flow decomposition of a message trace: the flows plus the map
/// from each spec index back to its flow.
#[derive(Clone, Debug)]
pub struct TraceFlows {
    /// The distinct `(path, length)` flows, each with its trace envelope.
    pub flows: Vec<Flow>,
    /// `spec_flow[i]` is the index into `flows` of `specs[i]`.
    pub spec_flow: Vec<usize>,
}

/// Groups a timed message trace into flows by `(path, length)` and fits
/// each with the tightest concave envelope of its release steps. Flows
/// are numbered in order of first appearance. Specs with empty paths are
/// rejected (they route nothing and the simulator never accepts them
/// either).
///
/// One pass over the specs numbers the flows, keyed by the specs' own
/// path slices, so only a flow's first message copies its path; a
/// counting sort then lays every flow's releases out in one buffer.
pub fn flows_from_specs(specs: &[MessageSpec]) -> TraceFlows {
    let mut index: HashMap<(&[EdgeId], u32), usize, BuildHasherDefault<FxHasher>> =
        HashMap::with_capacity_and_hasher(specs.len(), Default::default());
    // Per flow: the index of its first spec, then its message count.
    let mut first: Vec<usize> = Vec::new();
    let mut count: Vec<usize> = Vec::new();
    let mut spec_flow = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let edges = spec.path.edges();
        assert!(!edges.is_empty(), "a flow needs a route");
        let fi = *index.entry((edges, spec.length)).or_insert_with(|| {
            first.push(i);
            count.push(0);
            first.len() - 1
        });
        count[fi] += 1;
        spec_flow.push(fi);
    }
    // `count` becomes each flow's start in `releases`, then, as the fill
    // advances it, its end.
    let mut at = 0;
    for c in &mut count {
        (*c, at) = (at, at + *c);
    }
    let mut releases = vec![0u64; specs.len()];
    for (spec, &fi) in specs.iter().zip(&spec_flow) {
        releases[count[fi]] = spec.release;
        count[fi] += 1;
    }
    let mut begin = 0;
    let flows = first
        .iter()
        .zip(&count)
        .map(|(&i, &end)| {
            let times = &mut releases[begin..end];
            begin = end;
            times.sort_unstable();
            Flow {
                edges: specs[i].path.edges().to_vec(),
                len_flits: specs[i].length,
                arrival: ArrivalCurve::from_trace(times),
            }
        })
        .collect();
    TraceFlows { flows, spec_flow }
}

/// An Fx-style word hash (rustc's `FxHasher`: rotate, xor and multiply
/// per word). Deterministic and far cheaper than SipHash on the short
/// `u32` keys above; flows are numbered by first appearance, so the
/// hasher cannot change any output.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// The multiply leaves its entropy in the high bits; the table
    /// indexes by the low ones.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use wormhole_topology::graph::{GraphBuilder, NodeId};
    use wormhole_topology::path::Path;

    fn chain_edges(n: u32) -> Vec<EdgeId> {
        let mut b = GraphBuilder::new(n as usize);
        let edges = (0..n - 1)
            .map(|i| b.add_edge(NodeId(i), NodeId(i + 1)))
            .collect();
        let _ = b.build();
        edges
    }

    #[test]
    fn grouping_by_path_and_length() {
        let edges = chain_edges(4);
        let p_long = Path::new(edges.clone());
        let p_short = Path::new(edges[..1].to_vec());
        let specs = vec![
            MessageSpec::new(p_long.clone(), 3).release_at(0),
            MessageSpec::new(p_short.clone(), 3).release_at(1),
            MessageSpec::new(p_long.clone(), 3).release_at(5),
            MessageSpec::new(p_long.clone(), 2).release_at(7), // new length
        ];
        let tf = flows_from_specs(&specs);
        assert_eq!(tf.flows.len(), 3);
        assert_eq!(tf.spec_flow, vec![0, 1, 0, 2]);
        // Flow 0 holds two releases, 0 and 5.
        assert!((tf.flows[0].arrival.eval(1e9) - 2.0).abs() < 1e-9);
        assert!((tf.flows[1].arrival.eval(0.0) - 1.0).abs() < 1e-9);
        assert_eq!(tf.flows[0].pipeline_floor(), (3 + 3 - 1) as f64);
    }

    #[test]
    fn envelope_covers_every_window_of_the_trace() {
        let edges = chain_edges(3);
        let times = [0u64, 2, 3, 3, 9, 40, 41];
        let specs: Vec<MessageSpec> = times
            .iter()
            .map(|&t| MessageSpec::new(Path::new(edges.clone()), 2).release_at(t))
            .collect();
        let tf = flows_from_specs(&specs);
        let a = &tf.flows[0].arrival;
        for i in 0..times.len() {
            for j in i..times.len() {
                let span = (times[j] - times[i]) as f64;
                assert!(a.eval(span) >= (j - i + 1) as f64 - 1e-9);
            }
        }
    }

    #[test]
    fn synthetic_flow_contract() {
        let edges = chain_edges(5);
        let f = Flow::synthetic(edges, 4, 2.0, 0.125);
        assert_eq!(f.pipeline_floor(), (4 + 4 - 1) as f64);
        assert!((f.arrival.eval(8.0) - 3.0).abs() < 1e-12);
    }

    /// The grouping the one-pass [`flows_from_specs`] replaced, kept as
    /// its reference: a SipHash map, one release `Vec` per flow, and each
    /// `Flow` built with a placeholder envelope first.
    fn reference_flows_from_specs(specs: &[MessageSpec]) -> TraceFlows {
        let mut flows: Vec<Flow> = Vec::new();
        let mut releases: Vec<Vec<u64>> = Vec::new();
        let mut index: std::collections::HashMap<(&[EdgeId], u32), usize> =
            std::collections::HashMap::new();
        let mut spec_flow = Vec::with_capacity(specs.len());
        for spec in specs {
            let edges = spec.path.edges();
            assert!(!edges.is_empty(), "a flow needs a route");
            let fi = *index.entry((edges, spec.length)).or_insert_with(|| {
                flows.push(Flow {
                    edges: edges.to_vec(),
                    len_flits: spec.length,
                    arrival: ArrivalCurve::token_bucket(0.0, 0.0),
                });
                releases.push(Vec::new());
                flows.len() - 1
            });
            releases[fi].push(spec.release);
            spec_flow.push(fi);
        }
        for (flow, times) in flows.iter_mut().zip(&mut releases) {
            times.sort_unstable();
            flow.arrival = ArrivalCurve::from_trace(times);
        }
        TraceFlows { flows, spec_flow }
    }

    fn bucket_bits(a: &ArrivalCurve) -> Vec<(u64, u64)> {
        a.buckets()
            .iter()
            .map(|tb| (tb.burst.to_bits(), tb.rate.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Same flows, same numbering, same envelope bits as the
        /// reference, on traces drawn from a few sub-paths of a chain
        /// (paths repeat, some as equal copies), several lengths a path,
        /// releases in shuffled order over a short span (equal release
        /// times) and lone messages.
        #[test]
        fn grouping_matches_the_per_flow_reference(
            n_specs in 0usize..80,
            n_paths in 1usize..6,
            span in 1u64..40,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let edges = chain_edges(8);
            let pool: Vec<Path> = (0..n_paths)
                .map(|_| {
                    let from = rng.random_range(0..edges.len());
                    let to = rng.random_range(from..edges.len());
                    Path::new(edges[from..=to].to_vec())
                })
                .collect();
            let specs: Vec<MessageSpec> = (0..n_specs)
                .map(|_| {
                    let path = pool[rng.random_range(0..n_paths)].clone();
                    MessageSpec::new(path, rng.random_range(1..=3))
                        .release_at(rng.random_range(0..span))
                })
                .collect();
            let got = flows_from_specs(&specs);
            let want = reference_flows_from_specs(&specs);
            prop_assert_eq!(&got.spec_flow, &want.spec_flow);
            prop_assert_eq!(got.flows.len(), want.flows.len());
            for (g, w) in got.flows.iter().zip(&want.flows) {
                prop_assert_eq!(&g.edges, &w.edges);
                prop_assert_eq!(g.len_flits, w.len_flits);
                prop_assert_eq!(bucket_bits(&g.arrival), bucket_bits(&w.arrival));
            }
        }
    }
}
