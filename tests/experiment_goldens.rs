//! The paper's own pipeline, as its tables: `e1`, `e2` and `e9` in fast
//! mode against committed renderings. Every cell is a deterministic count
//! — class counts κ, makespans, fitted exponents of seeded runs — so a
//! drift in RNG draw order or in a coloring fails here on any host, with
//! no timing involved. The `e*` files under `tests/golden/` were written
//! by the binary of the commit before `coloring::ClassLoads`.
//!
//! The traffic layer's consumers the same way: `x2` (open-loop Bernoulli
//! arrivals over every pattern it runs, hotspot included) and `x11`
//! (`ServiceScenario`'s open arm against its closed loop). A drift in an
//! arrival coin, a pattern's map or a service draw fails here. Their files
//! were written by the binary of the commit before the traffic layer's
//! unused settings (on/off arrivals, diurnal ramps, bit-complement and
//! neighbor) were deleted.
//!
//! The bound engine's consumer the same way: `x10` (`netcalc`'s closure
//! over trace envelopes, the certified bound, the iteration count and
//! the simulated worst case beside it). A drift in an envelope, a sweep
//! or the certificate fails here. Its file was written by the binary of
//! the commit before `netcalc`'s unused min-plus operators were deleted.
//!
//! The §1.4 baselines, first-fit, the torus and its faults the same way:
//! `e4` (store-and-forward against wormhole), `e7` (virtual cut-through),
//! `e8` (the restricted model), each beside first-fit's schedules; `x7`
//! (naive against dateline tori) and `x12` (channel kills, the faulted
//! escape network, Beneš against butterfly). A drift in a baseline's
//! stepper, a first-fit class, a torus edge id or a fault plan fails
//! here. Their files were written by the binary of the commit before
//! non-wrap meshes, router kills and the baselines' unused settings were
//! deleted.
//!
//! Regenerate a file only for a change that means to move its table
//! (`experiments --fast e1`, from the first `###` line on).

use wormhole_routing::harness::run_by_id;

/// What `experiments --fast <id>` prints under the experiment's heading.
fn rendered(id: &str) -> String {
    let (preamble, tables) = run_by_id(id, true).expect("known id");
    assert!(preamble.is_empty(), "{id} has no preamble");
    tables.iter().map(|t| t.render() + "\n").collect()
}

#[test]
fn e1_fast_matches_its_golden() {
    assert_eq!(rendered("e1"), include_str!("golden/e1.fast.md"));
}

#[test]
fn e2_fast_matches_its_golden() {
    assert_eq!(rendered("e2"), include_str!("golden/e2.fast.md"));
}

#[test]
fn e9_fast_matches_its_golden() {
    assert_eq!(rendered("e9"), include_str!("golden/e9.fast.md"));
}

#[test]
fn x2_fast_matches_its_golden() {
    assert_eq!(rendered("x2"), include_str!("golden/x2.fast.md"));
}

#[test]
fn x11_fast_matches_its_golden() {
    assert_eq!(rendered("x11"), include_str!("golden/x11.fast.md"));
}

#[test]
fn x10_fast_matches_its_golden() {
    assert_eq!(rendered("x10"), include_str!("golden/x10.fast.md"));
}

#[test]
fn e4_fast_matches_its_golden() {
    assert_eq!(rendered("e4"), include_str!("golden/e4.fast.md"));
}

#[test]
fn e7_fast_matches_its_golden() {
    assert_eq!(rendered("e7"), include_str!("golden/e7.fast.md"));
}

#[test]
fn e8_fast_matches_its_golden() {
    assert_eq!(rendered("e8"), include_str!("golden/e8.fast.md"));
}

#[test]
fn x7_fast_matches_its_golden() {
    assert_eq!(rendered("x7"), include_str!("golden/x7.fast.md"));
}

#[test]
fn x12_fast_matches_its_golden() {
    assert_eq!(rendered("x12"), include_str!("golden/x12.fast.md"));
}
