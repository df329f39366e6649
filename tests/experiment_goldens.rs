//! Every experiment as its table, under every engine: what
//! `experiments --fast <id>` prints under the id's heading
//! ([`render`]), for each id of [`all_ids`], against
//! `tests/golden/<id>.fast.md`.
//!
//! Every cell is a deterministic count or a rounded figure of a seeded
//! run — class counts κ, makespans, fitted exponents, latency
//! percentiles, fault counters, bound iterations — so a drift in RNG
//! draw order, a coloring, an arrival coin, a baseline's stepper, a
//! torus edge id, a fault plan or the bound engine fails here on any
//! host, with no timing involved. f1 / f2 are pinned with their
//! preambles (the ASCII figures).
//!
//! The engine is chosen once: [`render`] hands it to every
//! `SimConfig` the harness builds (x2–x12), so the experiments' own
//! workloads — open-loop, pooled, adaptive, faulted and closed-loop runs
//! at the sizes the tables report — are differential fixtures, and each
//! rendering must equal the same golden on `Legacy`, `EventDriven` and
//! `Parallel { threads: 2 }`, one sweep each. On the event engine the
//! eleven ids pinned before the sweep (e1, e2, e4, e7, e8, e9, x2, x7,
//! x10, x11, x12) keep a test of their own, `<id>_fast_matches_its_golden`,
//! and the sweep covers the rest. Out of scope: the runs that
//! `wormhole_core` (`ColorSchedule::execute`, `lower_bound::measure`) and
//! `wormhole_baselines` (`greedy_wormhole`, `one_pass_butterfly`,
//! `vct_as_short_wormhole`) make for e1–e9 and x6 stay on the default
//! engine: threading an engine through them would add a parameter to
//! about 60 call sites in two crates' public APIs. x13 picks its own
//! engines (the event engine beside 1 / 2 / 4 / 8 parallel workers,
//! bit-identity asserted per point), so it runs once; the host decides
//! its `wall ms` and `speedup vs 1w` cells and its "Measured on this
//! host" note, which are masked ([`mask_timing`]), and its `workers`,
//! `regions`, `msgs` and `flit steps` columns are pinned.
//!
//! A failing test lists every `(engine, id)` that differs from its
//! golden, each with the first line that differs and its number.
//!
//! Regenerate a golden only for a change that means to move its table,
//! and only that id's, from the release binary (the `awk` keeps what is
//! printed under the heading; x13 goes through the mask):
//!
//! ```sh
//! cargo build --release -p wormhole-harness --bin experiments
//! mask() { sed -E '/^\|/s/\|[^|]*\|[^|]*\|$/|/; s/^> Measured on this host.*$/> Measured on this host (masked)/'; }
//! for id in e5 x13; do   # the ids whose tables the change moves
//!     target/release/experiments --fast $id 2>/dev/null |
//!         awk 'f{print} /^## Experiment/{getline; f=1}' |
//!         if [ $id = x13 ]; then mask; else cat; fi > tests/golden/$id.fast.md
//! done
//! ```

use wormhole_routing::flitsim::config::Engine;
use wormhole_routing::harness::{all_ids, render};

/// x13's rendering without what the host decides, as the regeneration
/// recipe's `sed` masks it: the last two cells of every table line
/// (`wall ms`, `speedup vs 1w`) are dropped and the measured-ratio note
/// is replaced by a marker.
fn mask_timing(text: &str) -> String {
    text.lines()
        .map(|line| {
            if line.starts_with('|') {
                let cut = line.rmatch_indices('|').nth(2).map_or(0, |(i, _)| i + 1);
                format!("{}\n", &line[..cut])
            } else if line.starts_with("> Measured on this host") {
                "> Measured on this host (masked)\n".to_string()
            } else {
                format!("{line}\n")
            }
        })
        .collect()
}

/// Where `got` first departs from `want`, or `None` if they are equal.
fn first_difference(got: &str, want: &str) -> Option<String> {
    if got == want {
        return None;
    }
    let (mut g, mut w) = (got.lines(), want.lines());
    for n in 1.. {
        match (g.next(), w.next()) {
            (Some(a), Some(b)) if a == b => {}
            (None, None) => return Some("the final newlines differ".to_string()),
            (a, b) => {
                let (a, b) = (a.unwrap_or("<end>"), b.unwrap_or("<end>"));
                return Some(format!("line {n}:\n      got: {a}\n   golden: {b}"));
            }
        }
    }
    unreachable!("lines() ends")
}

/// Where `id`'s fast rendering on `engine`, through `mask`, departs from
/// its golden.
fn difference(id: &str, engine: Engine, mask: fn(&str) -> String) -> Option<String> {
    let got = mask(&render(id, true, engine).expect("an id of all_ids()"));
    let path = format!("{}/tests/golden/{id}.fast.md", env!("CARGO_MANIFEST_DIR"));
    match std::fs::read_to_string(&path) {
        Ok(want) => first_difference(&got, &want),
        Err(e) => Some(format!("no golden at {path}: {e}")),
    }
}

/// Every id but x13 and those in `skip`, rendered on `engine`, against
/// its golden; fails once, listing every id that differs.
fn sweep(engine: Engine, skip: &[&str]) {
    let failures: Vec<String> = all_ids()
        .iter()
        .filter(|&&id| id != "x13" && !skip.contains(&id))
        .filter_map(|&id| {
            let d = difference(id, engine, str::to_string)?;
            Some(format!("({engine:?}, {id}) {d}"))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} rendering(s) differ from their golden:\n\n{}",
        failures.len(),
        failures.join("\n\n")
    );
}

#[test]
fn every_id_matches_its_golden_on_legacy() {
    sweep(Engine::Legacy, &[]);
}

#[test]
fn the_other_ids_match_their_golden_on_the_event_engine() {
    sweep(Engine::EventDriven, OWN_TESTS);
}

#[test]
fn every_id_matches_its_golden_on_two_parallel_workers() {
    sweep(Engine::Parallel { threads: 2 }, &[]);
}

/// One test per id, its rendering on the event engine against its
/// golden, and `OWN_TESTS`, the ids that the event engine's sweep skips.
macro_rules! own_tests {
    ($($test:ident: $id:literal),* $(,)?) => {
        const OWN_TESTS: &[&str] = &[$($id),*];
        $(
            #[test]
            fn $test() {
                if let Some(d) = difference($id, Engine::EventDriven, str::to_string) {
                    panic!("(EventDriven, {}) {d}", $id);
                }
            }
        )*
    };
}

own_tests! {
    e1_fast_matches_its_golden: "e1",
    e2_fast_matches_its_golden: "e2",
    e4_fast_matches_its_golden: "e4",
    e7_fast_matches_its_golden: "e7",
    e8_fast_matches_its_golden: "e8",
    e9_fast_matches_its_golden: "e9",
    x2_fast_matches_its_golden: "x2",
    x7_fast_matches_its_golden: "x7",
    x10_fast_matches_its_golden: "x10",
    x11_fast_matches_its_golden: "x11",
    x12_fast_matches_its_golden: "x12",
}

#[test]
fn x13_matches_its_golden_with_its_timing_masked() {
    if let Some(d) = difference("x13", Engine::EventDriven, mask_timing) {
        panic!("x13 differs from its golden: {d}");
    }
}
