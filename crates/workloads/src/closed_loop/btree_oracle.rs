//! The closed-loop source as it was before its schedule became a
//! [`TimingWheel`]: the same chains over a `BTreeMap` keyed on `(release,
//! schedule counter)`, kept as the oracle the wheel-scheduled source is
//! held to — same `(id, spec)` emissions, same `next_release`, same
//! statistics — under every call sequence the source contract allows.

use std::collections::BTreeMap;

use rand::prelude::*;
use rand::rngs::StdRng;

use wormhole_flitsim::message::MessageSpec;
use wormhole_flitsim::source::TrafficSource;
use wormhole_flitsim::stats::{ClosedLoopStats, LatencyStats};

use super::*;

/// The `BTreeMap`-scheduled source, field for field and line for line
/// what [`ClosedLoopSource`] was.
struct TreeSource<'a> {
    sub: &'a Substrate,
    cfg: ClosedLoopConfig,
    slots: Vec<SlotState>,
    sched: BTreeMap<(u64, u64), Scheduled>,
    seq: u64,
    next_id: u32,
    meta: Vec<MsgMeta>,
    requests_issued: u64,
    chains_completed: u64,
    chain_latencies: Vec<u64>,
    backlog: Vec<u64>,
}

impl<'a> TreeSource<'a> {
    fn new(sub: &'a Substrate, cfg: &ClosedLoopConfig) -> Self {
        let mut s = Self {
            sub,
            cfg: cfg.clone(),
            slots: Vec::new(),
            sched: BTreeMap::new(),
            seq: 0,
            next_id: 0,
            meta: Vec::new(),
            requests_issued: 0,
            chains_completed: 0,
            chain_latencies: Vec::new(),
            backlog: vec![0; cfg.clients as usize],
        };
        for c in 0..cfg.clients {
            for slot in 0..cfg.window {
                let mut rng = StdRng::seed_from_u64(mix(mix(cfg.seed ^ SLOT_STREAM_SALT, c), slot));
                let offset = rng.random_range(0..=cfg.start_spread);
                s.slots.push(SlotState {
                    rng,
                    phase: SlotPhase::Idle,
                });
                s.schedule_request(c, slot, offset);
            }
        }
        s
    }

    fn slot_idx(&self, client: u32, slot: u32) -> usize {
        (client * self.cfg.window + slot) as usize
    }

    fn schedule_request(&mut self, client: u32, slot: u32, release: u64) {
        let si = self.slot_idx(client, slot);
        if release >= self.cfg.horizon {
            self.slots[si].phase = SlotPhase::Retired;
            return;
        }
        let k = self.slots[si].rng.random_range(0..self.cfg.servers);
        let server = self.sub.endpoints() - self.cfg.servers + k;
        self.sched.insert(
            (release, self.seq),
            Scheduled {
                client,
                slot,
                server,
                kind: Kind::Request,
            },
        );
        self.seq += 1;
    }

    fn stats(&self, end: u64) -> ClosedLoopStats {
        let mut backlog = self.backlog.clone();
        for c in 0..self.cfg.clients {
            for slot in 0..self.cfg.window {
                if let SlotPhase::InFlight(start) = self.slots[self.slot_idx(c, slot)].phase {
                    backlog[c as usize] += end.saturating_sub(start);
                }
            }
        }
        let think = backlog
            .iter()
            .map(|&b| (self.cfg.window as u64 * end).saturating_sub(b))
            .collect();
        ClosedLoopStats {
            clients: self.cfg.clients as usize,
            window: self.cfg.window,
            requests_issued: self.requests_issued,
            chains_completed: self.chains_completed,
            chain_latency: LatencyStats::from_samples(&self.chain_latencies),
            per_client_think: think,
            per_client_backlog: backlog,
        }
    }

    fn open_chains(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.phase, SlotPhase::InFlight(_)))
            .count()
    }
}

impl TrafficSource for TreeSource<'_> {
    fn next_release(&mut self, _now: u64) -> Option<u64> {
        self.sched.keys().next().map(|&(r, _)| r)
    }

    fn take_ready(&mut self, now: u64, out: &mut Vec<(u32, MessageSpec)>) {
        while let Some((&(release, seq), &sched)) = self.sched.iter().next() {
            if release > now {
                break;
            }
            self.sched.remove(&(release, seq));
            let (src, dst, length) = match sched.kind {
                Kind::Request => (sched.client, sched.server, self.cfg.req_len),
                Kind::Reply => (sched.server, sched.client, self.cfg.reply_len),
            };
            if let Kind::Request = sched.kind {
                let si = self.slot_idx(sched.client, sched.slot);
                if !matches!(self.slots[si].phase, SlotPhase::InFlight(_)) {
                    self.slots[si].phase = SlotPhase::InFlight(release);
                }
                self.requests_issued += 1;
            }
            let spec = MessageSpec::new(self.sub.route(src, dst), length).release_at(release);
            self.meta.push(MsgMeta {
                release,
                length,
                sched,
            });
            out.push((self.next_id, spec));
            self.next_id += 1;
        }
    }

    fn on_delivered(&mut self, id: u32, finished: u64) {
        let m = self.meta[id as usize];
        let si = self.slot_idx(m.sched.client, m.sched.slot);
        match m.sched.kind {
            Kind::Request => {
                let (lo, hi) = self.cfg.server_delay;
                let delay = self.slots[si].rng.random_range(lo..=hi);
                self.sched.insert(
                    (finished + delay, self.seq),
                    Scheduled {
                        kind: Kind::Reply,
                        ..m.sched
                    },
                );
                self.seq += 1;
            }
            Kind::Reply => {
                let start = match self.slots[si].phase {
                    SlotPhase::InFlight(start) => start,
                    other => panic!("reply for a slot in phase {other:?}"),
                };
                self.chains_completed += 1;
                self.chain_latencies.push(finished - start);
                self.backlog[m.sched.client as usize] += finished - start;
                self.slots[si].phase = SlotPhase::Idle;
                let (lo, hi) = self.cfg.think;
                let think = self.slots[si].rng.random_range(lo..=hi);
                self.schedule_request(m.sched.client, m.sched.slot, finished + think);
            }
        }
    }

    fn on_discarded(&mut self, id: u32, t: u64) {
        let m = self.meta[id as usize];
        if t + 1 >= self.cfg.horizon {
            return;
        }
        self.sched.insert((t + 1, self.seq), m.sched);
        self.seq += 1;
    }

    fn reactive(&self) -> bool {
        true
    }
}

/// An emission, comparable.
type Emitted = (u32, wormhole_topology::path::Path, u32, u64, u32);

fn emitted(out: &mut Vec<(u32, MessageSpec)>) -> Vec<Emitted> {
    out.drain(..)
        .map(|(id, s)| (id, s.path, s.length, s.release, s.priority))
        .collect()
}

/// Both sources through one random call sequence of the source contract,
/// without a network: per step, completions of the previous step flushed
/// in `(time, id)` order — deliveries, and discards that reissue one step
/// later — then `next_release` and `take_ready`. An idle network jumps to
/// the announced release; now and then the poll skips ahead several laps
/// of the wheel with messages in flight. Think times and server delays
/// may be zero and horizons cut chains mid-flight.
#[test]
fn the_wheel_scheduled_source_emits_what_the_btree_scheduled_one_did() {
    let sub = Substrate::benes(3); // 8 endpoints
    let mut calls = (0u64, 0u64, 0u64); // (emissions, discards, idle jumps)
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let clients = rng.random_range(1u32..=4);
        let think = rng.random_range(0u64..=3);
        let delay = rng.random_range(0u64..=2);
        let cfg = ClosedLoopConfig {
            clients,
            servers: rng.random_range(1..=8 - clients),
            window: rng.random_range(1u32..=3),
            req_len: 2,
            reply_len: 3,
            think: (think, think + rng.random_range(0u64..=40)),
            server_delay: (delay, delay + rng.random_range(0u64..=20)),
            start_spread: rng.random_range(0..=50),
            horizon: rng.random_range(1..=400),
            seed: case,
        };
        let mut wheel = ClosedLoopSource::new(&sub, &cfg);
        let mut tree = TreeSource::new(&sub, &cfg);
        let lap = (cfg.clients * cfg.window) as u64;
        let (mut now, mut in_flight) = (0u64, Vec::<(u32, u64)>::new());
        let (mut out_w, mut out_t) = (Vec::new(), Vec::new());
        for _ in 0..1_000 {
            let mut done = Vec::new();
            in_flight.retain(|&(id, at)| {
                let finishes = at < now && rng.random_bool(0.3);
                if finishes {
                    done.push((id, rng.random_bool(0.1)));
                }
                !finishes
            });
            for (id, discarded) in done {
                if discarded {
                    wheel.on_discarded(id, now - 1);
                    tree.on_discarded(id, now - 1);
                    calls.1 += 1;
                } else {
                    wheel.on_delivered(id, now);
                    tree.on_delivered(id, now);
                }
            }
            let next = tree.next_release(now);
            assert_eq!(wheel.next_release(now), next, "case {case} at {now}");
            if in_flight.is_empty() {
                match next {
                    None => break,
                    Some(r) if r > now => {
                        now = r;
                        calls.2 += 1;
                    }
                    Some(_) => {}
                }
            }
            wheel.take_ready(now, &mut out_w);
            tree.take_ready(now, &mut out_t);
            let (w, t) = (emitted(&mut out_w), emitted(&mut out_t));
            assert_eq!(w, t, "case {case} at {now}");
            calls.0 += w.len() as u64;
            in_flight.extend(w.iter().map(|e| (e.0, now)));
            if rng.random_bool(0.02) {
                assert_eq!(wheel.stats(now), tree.stats(now), "case {case} at {now}");
            }
            now += match rng.random_range(0u32..40) {
                0 => rng.random_range(2..=3 * lap + 2),
                _ => 1,
            };
        }
        assert_eq!(wheel.stats(now), tree.stats(now), "case {case}");
        assert_eq!(wheel.open_chains(), tree.open_chains(), "case {case}");
        assert_eq!(wheel.emitted(), tree.meta.len(), "case {case}");
        for (id, m) in tree.meta.iter().enumerate() {
            assert_eq!(wheel.released(id), (m.release, m.length), "case {case}");
        }
    }
    // The sequences reached what they are meant to reach.
    assert!(
        calls.0 > 4_000 && calls.1 > 300 && calls.2 > 300,
        "{calls:?}"
    );
}
