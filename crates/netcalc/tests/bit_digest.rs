//! Bit-level pins of the bound pipeline's output.
//!
//! Each case digests (FNV-1a over `u64` words) everything
//! [`flows_from_specs`] and [`delay_bounds`] hand back: `spec_flow`,
//! every flow's edges, length and envelope bucket bits, then `bounded`,
//! `iterations`, `edge_sweeps`, `events_merged` and the bits of every
//! `hop_wait`, `edge_wait`, `flow_delay` and `flow_backlog` entry. The
//! expected digests were written by the build before the one-pass
//! grouping and the flat-edge sweep went in; a change that means to keep
//! every output bit-identical must pass them unedited.
//!
//! To print the digests a build writes: `cargo test -p wormhole-netcalc
//! --test bit_digest -- --nocapture`.

use wormhole_flitsim::message::MessageSpec;
use wormhole_netcalc::{delay_bounds, flows_from_specs, BoundConfig, Flow};
use wormhole_topology::butterfly::Butterfly;
use wormhole_topology::graph::Graph;
use wormhole_workloads::{ArrivalProcess, Substrate, TrafficPattern, Workload};

/// FNV-1a over little-endian `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_f64s(&mut self, xs: &[f64]) {
        self.eat(xs.len() as u64);
        xs.iter().for_each(|x| self.eat(x.to_bits()));
    }

    fn eat_flows(&mut self, flows: &[Flow]) {
        self.eat(flows.len() as u64);
        for f in flows {
            self.eat(f.edges.len() as u64);
            f.edges.iter().for_each(|e| self.eat(e.idx() as u64));
            self.eat(f.len_flits as u64);
            let buckets = f.arrival.buckets();
            self.eat(buckets.len() as u64);
            for tb in buckets {
                self.eat(tb.burst.to_bits());
                self.eat(tb.rate.to_bits());
            }
        }
    }

    fn eat_bounds(&mut self, graph: &Graph, flows: &[Flow], b: u32) {
        let r = delay_bounds(graph, flows, &BoundConfig::new(b)).expect("feedforward");
        self.eat(r.bounded as u64);
        self.eat(r.iterations as u64);
        self.eat(r.edge_sweeps);
        self.eat(r.events_merged);
        self.eat(r.hop_wait.len() as u64);
        r.hop_wait.iter().for_each(|w| self.eat_f64s(w));
        self.eat_f64s(&r.edge_wait);
        self.eat_f64s(&r.flow_delay);
        self.eat_f64s(&r.flow_backlog);
    }
}

/// A Bernoulli uniform-random trace of 4-flit messages on butterfly(`k`).
fn trace(k: u32, rate: f64, window: u64, seed: u64) -> (Substrate, Vec<MessageSpec>) {
    let substrate = Substrate::butterfly(k);
    let w = Workload::new(
        substrate.clone(),
        TrafficPattern::UniformRandom,
        ArrivalProcess::bernoulli(rate),
        4,
        seed,
    );
    let specs = w.generate(window);
    (substrate, specs)
}

/// The digest of a trace's flows and of their bounds at `b`.
fn trace_digest(substrate: &Substrate, specs: &[MessageSpec], b: u32) -> u64 {
    let tf = flows_from_specs(specs);
    let mut d = Digest::new();
    d.eat(tf.spec_flow.len() as u64);
    tf.spec_flow.iter().for_each(|&f| d.eat(f as u64));
    d.eat_flows(&tf.flows);
    d.eat_bounds(substrate.graph(), &tf.flows, b);
    d.0
}

fn check(case: &str, got: &[u64], want: &[u64]) {
    println!("{case}: {got:#018x?}");
    assert_eq!(got, want, "{case}: digests moved");
}

/// The benchmark's trace shape — Bernoulli(0.05) on butterfly(8),
/// window 250 — where nearly every flow is one message, so nearly every
/// edge sees only flat envelopes.
#[test]
fn sparse_butterfly8_traces() {
    for (seed, want) in [
        (
            1,
            [
                0x2f4a_7d07_5bb6_e9a1,
                0xa8d4_b888_3cc3_2b1a,
                0x5128_88e8_3bee_1348,
            ],
        ),
        (
            7,
            [
                0x08ce_969e_a376_b96b,
                0xea2b_489e_106b_92fb,
                0x224e_5000_7523_84b7,
            ],
        ),
    ] {
        let (substrate, specs) = trace(8, 0.05, 250, seed);
        let got: Vec<u64> = [1, 2, 4]
            .iter()
            .map(|&b| trace_digest(&substrate, &specs, b))
            .collect();
        check(&format!("butterfly(8) seed {seed}"), &got, &want);
    }
}

/// A denser trace on butterfly(4): most flows hold several messages, so
/// most edges sum multi-bucket envelopes.
#[test]
fn dense_butterfly4_trace() {
    let (substrate, specs) = trace(4, 0.1, 200, 3);
    let got: Vec<u64> = [1, 2, 4]
        .iter()
        .map(|&b| trace_digest(&substrate, &specs, b))
        .collect();
    check(
        "butterfly(4) dense",
        &got,
        &[
            0xf24d_fb6f_caa4_85ee,
            0xcf1b_062a_1d79_d238,
            0xc2ad_4a9a_0946_62e4,
        ],
    );
}

/// Synthetic contracts on butterfly(5): flat buckets of several bursts
/// (rate 0) beside leaky buckets (rate > 0), crossing on shared edges.
#[test]
fn synthetic_contracts() {
    let bf = Butterfly::new(5);
    let flows: Vec<Flow> = (0..32u32)
        .map(|s| {
            let path = bf.greedy_path(s, (s * 7 + 3) % 32);
            let burst = 1.0 + (s % 3) as f64;
            let rate = if s % 4 == 0 {
                0.0
            } else {
                0.001 * (s % 5) as f64
            };
            Flow::synthetic(path.edges().to_vec(), 2 + s % 4, burst, rate)
        })
        .collect();
    let got: Vec<u64> = [1, 2, 4]
        .iter()
        .map(|&b| {
            let mut d = Digest::new();
            d.eat_flows(&flows);
            d.eat_bounds(bf.graph(), &flows, b);
            d.0
        })
        .collect();
    check(
        "synthetic butterfly(5)",
        &got,
        &[
            0x52d8_ec20_70b4_1060,
            0x9c55_6676_d397_6d27,
            0xe024_9020_a324_1d4e,
        ],
    );
}

/// Flat contracts only (rate 0), with bursts no binary fraction holds,
/// three flows an input on butterfly(5): every edge is flat, several
/// flows cross each, and the burst sums round, so the order they are
/// summed in shows in the bits.
#[test]
fn flat_contracts() {
    let bf = Butterfly::new(5);
    let flows: Vec<Flow> = (0..96u32)
        .map(|i| {
            let s = i % 32;
            let path = bf.greedy_path(s, (s * 5 + i / 32) % 32);
            let burst = 0.1 + (i % 7) as f64 / 3.0;
            Flow::synthetic(path.edges().to_vec(), 1 + i % 5, burst, 0.0)
        })
        .collect();
    let got: Vec<u64> = [1, 2, 4]
        .iter()
        .map(|&b| {
            let mut d = Digest::new();
            d.eat_flows(&flows);
            d.eat_bounds(bf.graph(), &flows, b);
            d.0
        })
        .collect();
    check(
        "flat contracts butterfly(5)",
        &got,
        &[
            0xd8f2_1d7b_de82_8ebb,
            0x89c4_8ea1_197f_107c,
            0xce02_877e_0f19_83ab,
        ],
    );
}
