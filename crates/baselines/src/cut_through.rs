//! Virtual cut-through baselines for the §1.4 fixed-buffer comparison (E7).
//!
//! Equal buffer budget `B` flits per edge, two ways to spend it:
//!
//! * **wormhole + virtual channels**: `B` one-flit buffers, each holding a
//!   flit of a possibly different message → speedup `B·D^{1−1/B}`;
//! * **virtual cut-through**: one `B`-flit buffer for a single message —
//!   "roughly equivalent to a wormhole router \[with\] no virtual channels,
//!   but in which the messages have length `L/B`" → linear speedup `B`.
//!
//! Both the direct VCT simulation and the paper's `L/B` wormhole emulation
//! are provided so the equivalence itself is measurable.

use wormhole_flitsim::config::SimConfig;
use wormhole_flitsim::cut_through::{self, VctConfig};
use wormhole_flitsim::message::specs_from_paths;
use wormhole_flitsim::source::Traffic;
use wormhole_flitsim::stats::SimResult;
use wormhole_flitsim::wormhole::{self, SimError};

use wormhole_topology::graph::Graph;
use wormhole_topology::path::PathSet;

/// Direct VCT simulation: `f`-flit single-message buffers, release 0.
/// A path that is empty or leaves `graph` comes back as the
/// [`SimError::Spec`] of [`cut_through::run`].
pub fn vct(
    graph: &Graph,
    paths: &PathSet,
    l: u32,
    f: u32,
    seed: u64,
) -> Result<SimResult, SimError> {
    let mut config = VctConfig::new(f);
    config.seed = seed;
    let specs = specs_from_paths(paths, l);
    cut_through::run(graph, &specs, &config)
}

/// The paper's emulation: VCT with `B`-flit buffers behaves like wormhole
/// with **no** VCs and message length `⌈L/B⌉`. Returns that wormhole run;
/// time is in *flit steps of the emulated system* — multiply by `b` (each
/// emulated "superflit" is `b` flits wide) to compare against direct
/// runs. A bad path comes back as the [`SimError`] of
/// [`wormhole::simulate`].
pub fn vct_as_short_wormhole(
    graph: &Graph,
    paths: &PathSet,
    l: u32,
    b: u32,
    seed: u64,
) -> Result<SimResult, SimError> {
    let short = l.div_ceil(b).max(1);
    let specs = specs_from_paths(paths, short);
    let config = SimConfig::new(1).seed(seed);
    wormhole::simulate(graph, None, Traffic::Specs(&specs), &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_flitsim::stats::Outcome;
    use wormhole_topology::random_nets::shared_chain_instance;

    #[test]
    fn direct_and_emulated_vct_agree_in_shape() {
        // A contended chain: C=4 worms, D=16, L=16, buffer B=4.
        let (g, ps) = shared_chain_instance(4, 16);
        let (l, b) = (16u32, 4u32);
        let direct = vct(&g, &ps, l, b, 1).unwrap();
        assert_eq!(direct.outcome, Outcome::Completed);
        let emu = vct_as_short_wormhole(&g, &ps, l, b, 1).unwrap();
        assert_eq!(emu.outcome, Outcome::Completed);
        // Each emulated step carries `b` flits over each link.
        let emu_steps = emu.total_steps * b as u64;
        // "Roughly equivalent": within a small constant factor.
        let ratio = direct.total_steps as f64 / emu_steps as f64;
        assert!(
            (0.3..=3.0).contains(&ratio),
            "direct {} vs emulated {}",
            direct.total_steps,
            emu_steps
        );
    }

    #[test]
    fn vct_buffer_budget_gives_linear_ish_speedup() {
        // Longer buffers help VCT roughly linearly (compression absorbs
        // stalls): speedup from F=1 to F=4 stays well under the superlinear
        // wormhole-VC speedup measured in E7.
        let (g, ps) = shared_chain_instance(6, 24);
        let l = 24u32;
        let t1 = vct(&g, &ps, l, 1, 2).unwrap().total_steps;
        let t4 = vct(&g, &ps, l, 4, 2).unwrap().total_steps;
        assert!(t4 <= t1);
        let speedup = t1 as f64 / t4 as f64;
        assert!(speedup <= 8.0, "VCT speedup {speedup} suspiciously high");
    }

    #[test]
    fn a_bad_path_comes_back_as_a_value() {
        use wormhole_flitsim::message::SpecError;
        use wormhole_topology::graph::EdgeId;
        use wormhole_topology::path::Path;
        let (g, ps) = shared_chain_instance(2, 4);
        for (bad, error) in [
            (Vec::new(), SpecError::EmptyPath),
            (vec![EdgeId(999)], SpecError::BadEdge),
        ] {
            let mut paths = ps.paths().to_vec();
            paths.push(Path::new(bad));
            let ps = PathSet::new(paths);
            let want = SimError::Spec { id: 2, error };
            assert_eq!(vct(&g, &ps, 3, 2, 0).unwrap_err(), want);
            assert_eq!(vct_as_short_wormhole(&g, &ps, 3, 2, 0).unwrap_err(), want);
        }
    }

    #[test]
    fn emulation_of_b1_is_identity() {
        // At b = 1 the emulation is the plain one-VC wormhole run.
        let (g, ps) = shared_chain_instance(3, 8);
        let emu = vct_as_short_wormhole(&g, &ps, 12, 1, 0).unwrap();
        let specs = specs_from_paths(&ps, 12);
        let plain = wormhole::simulate(&g, None, Traffic::Specs(&specs), &SimConfig::new(1));
        assert!(emu.same_execution(&plain.unwrap()));
    }
}
