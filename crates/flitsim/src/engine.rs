//! The event-driven full-bandwidth engine.
//!
//! Drives the same simulation state as the legacy stepper in
//! [`crate::wormhole`] but does per-step work proportional to the worms
//! that can actually *do* something this step:
//!
//! * **Wait-queue wakeups** — a worm that loses arbitration parks on the
//!   [`WaitQueue`] under the wait key of every edge it could want next
//!   (one for a frozen route; every candidate plus the escape hop for a
//!   pending adaptive head) and is reconsidered only when one of them
//!   releases a VC. While parked it costs nothing; its stalls are
//!   settled arithmetically on wakeup (`stalls += wake − park`), because
//!   those edges provably stay full for the whole interval (see the
//!   [`crate::wormhole`] module docs), so the legacy stepper would have
//!   lost the same arbitration at every one of those steps.
//! * **Contention-free fast-forward** — when nothing is parked and the
//!   runnable set provably cannot interact before the next release —
//!   either every worm is draining into its delivery buffer (drains only
//!   ever *decrement* holder counts, which commutes), or the worms'
//!   paths are pairwise edge- and source-router-disjoint (checked with
//!   epoch-stamped per-edge/per-router scratch and memoized until the
//!   membership changes; router-disjointness keeps the per-router
//!   occupancy samples behind `max_pool_in_use` engine-exact) — each
//!   worm free-runs independently to `min(next release, step cap, its
//!   finish)`: header steps in a tight `O(1)`-per-advance loop, and the
//!   deterministic drain phase (`finish at advance = hops + L − 1`)
//!   collapsed to a closed form by [`Sim::fast_drain`]
//!   ([`crate::kernel::Worm::drain`]). A fully idle
//!   network jumps straight to the next message release. Fast-forwards
//!   never cross a release time or the step cap, so every arbitration
//!   decision — and every release-at-`t`-visible-at-`t+1` boundary —
//!   still happens at its exact legacy step.
//!
//! Near saturation this turns the `O(active)` per-step rescan (where
//! `active` includes the entire source-queued backlog) into
//! `O(runnable + wakeups)`; at low load it replaces per-step stepping
//! with per-*event* work (one `O(1)` update per flit advance, `O(path)`
//! per drain).

use crate::config::BlockedPolicy;
use crate::events::DeadlockReport;
use crate::kernel::WaitQueue;
use crate::stats::Outcome;
use crate::wormhole::Sim;

struct EventState {
    /// Parked worms, by message id, under the
    /// [`crate::kernel::VcRules::wait_key`]s of the edges they watch.
    waiting: WaitQueue,
    /// Wait-key scratch for [`Sim::wait_keys`].
    keys: Vec<usize>,
    /// Released, unretired, unparked worms — the per-step working set.
    runnable: Vec<u32>,
    /// Memoized "runnable paths are pairwise edge- and
    /// source-router-disjoint" verdict; invalidated whenever the
    /// runnable membership changes.
    indep_cached: Option<bool>,
    /// Epoch-stamped per-edge scratch for the disjointness check.
    edge_mark: Vec<u64>,
    /// Epoch-stamped per-router scratch for the disjointness check
    /// (edge-disjoint worms can still share a source router's pool
    /// counters).
    node_mark: Vec<u64>,
    mark_epoch: u64,
}

impl EventState {
    /// Released-and-unretired message count (the legacy `active` size).
    #[inline]
    fn n_active(&self) -> usize {
        self.runnable.len() + self.waiting.len()
    }
}

/// Runs the event-driven loop to completion. Returns `(outcome, final
/// step, deadlock report)` exactly as the legacy driver would.
pub(crate) fn drive(sim: &mut Sim) -> (Outcome, u64, Option<DeadlockReport>) {
    let mut st = EventState {
        waiting: WaitQueue::new(sim.rules.num_wait_keys(sim.graph)),
        keys: Vec::new(),
        runnable: Vec::new(),
        indep_cached: Some(true), // empty set is trivially disjoint
        edge_mark: vec![0; sim.num_edges],
        node_mark: vec![0; sim.graph.num_nodes()],
        mark_epoch: 0,
    };
    let mut t: u64 = 0;
    loop {
        // With worms in flight, the cap ends the run early — settling
        // parked stalls through the last simulated step, as the legacy
        // per-step counting would.
        let idle = st.n_active() == 0;
        if let Some(outcome) = sim.loop_head(&mut t, idle) {
            if !idle {
                settle_parked(sim, &mut st, sim.config.max_steps.saturating_sub(1));
            }
            return (outcome, t, None);
        }
        // Kills scheduled at `t` take effect at the start of the step,
        // before admissions — exactly as in the legacy driver. A severed
        // parked worm is discarded in place: unpark it, settling the
        // stalls the legacy stepper counted through `t − 1`. Every parked
        // *pending* worm goes back to `runnable` the same way: the kill
        // may have severed its escape continuation, which the legacy
        // stepper dooms at this very step. The discards' VC releases then
        // wake their wait keys so unblocked worms contend at `t` itself —
        // they land at step start, like releases during `t − 1`.
        if sim.faulted() && sim.next_kill_time() <= t {
            sim.released.clear();
            sim.apply_kills(t);
            if !st.waiting.is_empty() {
                for m in 0..sim.worms.len() as u32 {
                    let mi = m as usize;
                    let severed = sim.outcomes[mi].discarded.is_some();
                    if st.waiting.is_parked(m) && (severed || sim.worms[mi].pending_route) {
                        sim.outcomes[mi].stalls += (t - 1) - st.waiting.unpark(m);
                        if !severed {
                            st.runnable.push(m);
                            st.indep_cached = None;
                        }
                    }
                }
                for i in 0..sim.released.len() {
                    let key = sim.rules.wait_key(sim.released[i] as usize);
                    wake(sim, &mut st, key, t, t - 1);
                }
                sim.track_releases = !st.waiting.is_empty();
            }
            let before = st.runnable.len();
            let outcomes = &sim.outcomes;
            st.runnable
                .retain(|&m| outcomes[m as usize].discarded.is_none());
            if st.runnable.len() != before {
                st.indep_cached = None;
            }
        }
        let new = sim.admit_ready(t);
        if !new.is_empty() {
            for i in new {
                let m = sim.admitted_id(i);
                // Skip messages discarded at admission (dead-on-arrival).
                if sim.outcomes[m as usize].discarded.is_none() {
                    st.runnable.push(m);
                }
            }
            st.indep_cached = None;
        }
        if st.runnable.is_empty() {
            if st.waiting.is_empty() {
                // Kills (or dead-on-arrival admissions) emptied the
                // network; the next iteration's idle handling jumps to
                // the next release or ends the run — the legacy stepper
                // burns a movement-free step here, which no reported
                // field observes.
                continue;
            }
            // Every released worm is parked on full edges; releases only
            // come from moves, so nothing will ever move again. This is
            // the same step at which the legacy stepper's no-movement test
            // fires (parking is impossible under Discard, so the policy is
            // necessarily Stall here).
            debug_assert_eq!(sim.config.blocked, BlockedPolicy::Stall);
            return deadlock(sim, &mut st, t);
        }
        // Contention-free fast-forward. Only sound while nothing is
        // parked: parked worms observe releases, and a free-running worm
        // could otherwise collide with a parked worm's held edges.
        // Adaptive runs keep the all-draining jump (arrived worms make
        // no further route decisions, and drains only decrement holder
        // counts) but drop the disjoint-paths one: a pending worm's next
        // hop reads *other* worms' occupancies, so path disjointness no
        // longer implies non-interaction. Pooled runs drop it for the
        // analogous reason — edge-disjoint worms still compete for a
        // shared router pool — while the all-draining jump stays exact
        // (drains only return capacity, which commutes). Reactive
        // sources drop batching entirely: a delivery inside the batch
        // could spawn a release before the precomputed stop point.
        if st.waiting.is_empty()
            && !sim.reactive
            && (all_draining(sim, &st)
                || (sim.adaptive.is_none() && !sim.rules.pooled && independent(sim, &mut st)))
            && ff_batch(sim, &mut st, &mut t)
        {
            continue;
        }
        let moved = step(sim, &mut st, t);
        if !moved && st.n_active() > 0 && sim.config.blocked == BlockedPolicy::Stall {
            return deadlock(sim, &mut st, t);
        }
        if sim.config.check_invariants {
            validate(sim, &mut st);
        }
        t += 1;
    }
}

/// One full-bandwidth step over the runnable set. Mirrors the legacy
/// stepper's classify → arbitrate → apply phases, then parks losers and
/// wakes the waiters of every wait key that released capacity.
fn step(sim: &mut Sim, st: &mut EventState, t: u64) -> bool {
    sim.released.clear();
    // Classify, arbitrate, advance the winners. Parked worms are exactly
    // the contenders of non-acquirable edges, so leaving them out changes
    // no arbitration outcome (such an edge blocks every contender
    // regardless). Runnable pending adaptive worms select their wanted
    // hop inside classify, exactly like the legacy stepper. Doomed
    // worms' discards release mid-step and wake waiters below.
    let progressed = sim.step_winners(t, &st.runnable);
    // Losers stall, then discard or park. Parking checks the *end-of-step*
    // acquirability: if this step's releases already freed capacity on
    // an edge the worm could want, it stays runnable and re-contends at
    // `t+1`, exactly as the legacy stepper would. A frozen-route worm
    // (oblivious, or adaptive once arrived or on its escape tail) wants
    // one fixed edge and parks on its key (`VcRules::wait_key`). A
    // *pending* adaptive worm re-selects every step, so it parks only
    // once every candidate and the escape hop are full, on all their
    // keys: the first release is the first step its choice can change.
    for i in 0..sim.blocked.len() {
        let m = sim.blocked[i];
        sim.outcomes[m as usize].stalls += 1;
        if sim.config.blocked == BlockedPolicy::Discard {
            sim.discard(m, t, crate::stats::DiscardReason::Delay);
        } else if sim.wait_keys(m, &mut st.keys) {
            st.waiting.park(m, &st.keys, t);
            st.indep_cached = None;
            sim.track_releases = true;
        }
    }
    // Wake the waiters of every wait key that released capacity this
    // step — the edge itself, or under pooling its source router (a
    // sibling edge's release can return shared credit to every edge of
    // the router). Woken worms contend from `t+1` (release at `t` is
    // visible at `t+1`); a waiter whose edge is still blocked just loses
    // again and re-parks, exactly as the legacy stepper would count it.
    for i in 0..sim.released.len() {
        let key = sim.rules.wait_key(sim.released[i] as usize);
        wake(sim, st, key, t, t);
    }
    // Retire finished, discarded, and freshly parked worms.
    let before = st.runnable.len();
    let worms = &sim.worms;
    let outcomes = &sim.outcomes;
    let waiting = &st.waiting;
    st.runnable.retain(|&m| {
        !worms[m as usize].done()
            && outcomes[m as usize].discarded.is_none()
            && !waiting.is_parked(m)
    });
    if st.runnable.len() != before {
        st.indep_cached = None;
    }
    sim.ledger.settle_max(&sim.rules);
    progressed
}

/// Unparks every waiter of wait key `key` (an edge, or a router under
/// pooling) at step `t`, settling their arithmetic stalls through step
/// `settle_through`: `t` at the end of step `t` (the waiter lost every
/// arbitration up to and including `t`, and contends again from
/// `t + 1`), `t − 1` from the kill hook at the start of step `t` (a kill
/// discard's releases behave like releases during `t − 1`). A worm
/// parked earlier this same step is still in `runnable` and is only
/// unparked (never at step start: every parked worm parked earlier).
fn wake(sim: &mut Sim, st: &mut EventState, key: usize, t: u64, settle_through: u64) {
    let before = st.waiting.len();
    st.waiting.wake(key, |m, parked_at| {
        sim.outcomes[m as usize].stalls += settle_through - parked_at;
        if parked_at < t {
            st.runnable.push(m);
        }
    });
    if st.waiting.len() != before {
        st.indep_cached = None;
        sim.track_releases = !st.waiting.is_empty();
    }
}

/// The run is over: settles the per-step stalls the legacy stepper would
/// have counted for every still-parked worm through step `through`.
fn settle_parked(sim: &mut Sim, st: &mut EventState, through: u64) {
    st.waiting.settle_all(through, |m, skipped| {
        sim.outcomes[m as usize].stalls += skipped
    });
}

fn deadlock(sim: &mut Sim, st: &mut EventState, t: u64) -> (Outcome, u64, Option<DeadlockReport>) {
    // Legacy counted a stall for every blocked worm during step `t`.
    settle_parked(sim, st, t);
    sim.rebuild_active();
    let report = sim.build_deadlock_report();
    (Outcome::Deadlock(sim.active.clone()), t, Some(report))
}

/// Exclusive upper bound on fast-forwarded time: the next release (new
/// contender), the next scheduled fault kill (dead set about to change),
/// or the step cap, whichever is first. Only meaningful for non-reactive
/// sources (the caller never batches otherwise), whose next release
/// cannot move before it is reached.
fn ff_stop(sim: &mut Sim, t: u64) -> u64 {
    let next_rel = sim.peek_next_release(t).unwrap_or(u64::MAX);
    sim.config.max_steps.min(next_rel).min(sim.next_kill_time())
}

fn all_draining(sim: &Sim, st: &EventState) -> bool {
    st.runnable
        .iter()
        .all(|&m| sim.worms[m as usize].draining())
}

/// Whether the runnable worms' paths are pairwise edge-disjoint **and**
/// source-router-disjoint (repeats within one path count as a collision
/// — conservative), memoized until the runnable membership changes.
/// Disjoint worms can never contend, block, or observe each other's
/// holder counts, so each one free-runs exactly as it would alone.
///
/// The router half matters even under the static policy: edge-disjoint
/// worms whose edges leave a common router touch the same `pool_used`
/// counter, and `max_pool_in_use` samples it at end of step — serially
/// free-running such worms would visit per-router occupancies the
/// legacy lock-step never produces. (Under pooling they additionally
/// compete for shared credits, which is why the caller disables this
/// fast-forward outright there.)
fn independent(sim: &Sim, st: &mut EventState) -> bool {
    if let Some(v) = st.indep_cached {
        return v;
    }
    st.mark_epoch += 1;
    let mut ok = true;
    'scan: for &m in &st.runnable {
        for e in sim.specs[m as usize].path.edges() {
            let mark = &mut st.edge_mark[e.idx()];
            if *mark == st.mark_epoch {
                ok = false;
                break 'scan;
            }
            *mark = st.mark_epoch;
            let nmark = &mut st.node_mark[sim.rules.edge_src[e.idx()] as usize];
            if *nmark == st.mark_epoch {
                ok = false;
                break 'scan;
            }
            *nmark = st.mark_epoch;
        }
    }
    st.indep_cached = Some(ok);
    ok
}

/// Fast-forwards a non-interacting runnable set (all draining, or
/// pairwise disjoint — the caller guarantees one of the two and that
/// nothing is parked): each worm independently free-runs to
/// `min(next release, cap, finish)` — header advances in an `O(1)`
/// per-step loop, drain phases collapsed by [`Sim::fast_drain`] — then
/// simulated time jumps to the stop point. Returns whether time moved.
fn ff_batch(sim: &mut Sim, st: &mut EventState, t: &mut u64) -> bool {
    let stop = ff_stop(sim, *t);
    if *t >= stop {
        return false;
    }
    for i in 0..st.runnable.len() {
        let m = st.runnable[i];
        let mi = m as usize;
        let mut ti = *t;
        loop {
            let w = &sim.worms[mi];
            if w.done() || ti >= stop {
                break;
            }
            if w.advance >= w.hops {
                sim.fast_drain(m, &mut ti, stop);
            } else {
                sim.apply_advance(m, ti);
                sim.ledger.settle_max(&sim.rules);
                ti += 1;
            }
        }
    }
    let before = st.runnable.len();
    let worms = &sim.worms;
    st.runnable.retain(|&m| !worms[m as usize].done());
    if st.runnable.len() != before {
        st.indep_cached = None;
    }
    if sim.config.check_invariants {
        validate(sim, st);
    }
    *t = stop;
    true
}

/// Full state validation (shared invariants plus the engine's own): the
/// wait queue must partition the active set with `runnable`, and every
/// edge a parked worm watches must be non-acquirable (full, or starved
/// of shared pool credit) — what makes arithmetic stall accounting exact
/// — with the queue's live entries exactly those watch sets.
fn validate(sim: &mut Sim, st: &mut EventState) {
    sim.rebuild_active();
    sim.validate();
    let mut expect = Vec::new();
    for m in 0..sim.worms.len() as u32 {
        if st.waiting.is_parked(m) {
            assert!(
                sim.wait_keys(m, &mut st.keys),
                "parked worm {m} watches an acquirable edge"
            );
            expect.extend(st.keys.iter().map(|&key| (m, key)));
        }
    }
    assert_eq!(
        expect,
        st.waiting.parked_keys(),
        "wait queue out of sync with the parked worms' watch sets"
    );
    assert_eq!(
        st.n_active(),
        sim.active.len(),
        "runnable/parked must partition the active set"
    );
}
