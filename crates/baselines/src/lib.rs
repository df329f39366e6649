//! Baseline routing algorithms the paper compares against.
//!
//! * [`naive_coloring`] — the footnote-5 `D(C−1)+1`-class conflict-free
//!   schedule (`O((L+D)·CD)` flit steps);
//! * [`store_forward`] — greedy and farthest-first store-and-forward
//!   (`O(C+D)`-flavor message-step schedules);
//! * [`greedy_wormhole`] — unscheduled online wormhole routing, including
//!   the one-pass butterfly router of the §3.2 lower-bound setting;
//! * [`cut_through`] — virtual cut-through under a fixed buffer budget and
//!   the paper's `L/B` wormhole emulation of it (§1.4);
//! * [`circuit`] — circuit switching on the butterfly (Kruskal–Snir and
//!   Koch, §1.3.3).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod cut_through;
pub mod greedy_wormhole;
pub mod naive_coloring;
pub mod store_forward;
