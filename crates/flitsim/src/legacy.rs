//! The legacy per-step driver behind [`crate::config::Engine::Legacy`]:
//! the original implementation, which rescans every active worm each
//! flit step — no parking, no jumps, no windows. Kept whole as the
//! differential oracle the event-style drivers ([`crate::engine`],
//! [`crate::parallel`]) are held bit-identical to, as
//! [`crate::restricted`] is kept beside it for the §1.4 model; it shares
//! with them the step phases ([`Core::step_winners`]), the loop head
//! and the verdicts ([`Sim`]), and nothing else.

use crate::probe::{self, Phase};
use crate::resident::Core;
use crate::sim::{self, Driven, Sim};
use crate::wormhole::SimError;

/// Runs `sim` to its outcome one step at a time. Returns `(outcome,
/// final step, deadlock report)`, or the bad spec a live source emitted.
pub(crate) fn drive(sim: &mut Sim) -> Result<Driven, SimError> {
    let mut t: u64 = 0;
    let outcome = loop {
        if let Some(outcome) = sim.loop_head(&mut t, sim.core.active.is_empty()) {
            break outcome;
        }
        // Kills scheduled by `t` take effect at the start of the step:
        // severed worms are discarded (their VCs released, visible to
        // this step's arbitration) before admissions, so messages
        // released at `t` already see the updated dead set.
        if sim.next_kill_time() <= t {
            let (core, due) = sim.due_kills(t);
            core.kill(due, t);
            retire_finished(core);
        }
        sim.admit_with(t, |core, graph, id, spec, now| {
            let h = sim::admit(core, graph, id, spec, now);
            core.active.extend(h);
            h.is_some()
        })?;
        let core = &mut sim.core;
        let moved = step_full_bandwidth(core, t);

        if !moved && !core.active.is_empty() {
            // Static state: every active worm is blocked on a held VC
            // and releases only come from moves. Future arrivals cannot
            // free anything. Deadlock.
            return Ok(sim.deadlock(t));
        }
        if core.config.check_invariants {
            core.validate();
        }
        t += 1;
    };
    Ok((outcome, t, None))
}

/// One step under the paper's primary model: every VC moves one flit.
/// Returns whether any worm advanced.
fn step_full_bandwidth(core: &mut Core, t: u64) -> bool {
    let active = std::mem::take(&mut core.active);
    let progressed = core.step_winners(t, &active, None);
    core.active = active;
    for &m in &core.split.blocked {
        core.outcomes[m as usize].stalls += 1;
    }
    probe::lap(Phase::Park);
    core.ledger.settle_max(&core.rules);
    retire_finished(core);
    probe::lap(Phase::Retain);
    progressed
}

/// Drops delivered and discarded worms from the `active` list.
fn retire_finished(core: &mut Core) {
    let (outcomes, worms) = (&core.outcomes, &core.worms);
    core.active
        .retain(|&m| !worms[m as usize].done() && !outcomes[m as usize].discarded);
}
