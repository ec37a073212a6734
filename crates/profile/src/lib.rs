//! `triarch-profile` — deterministic attribution tooling over the
//! simulators' raw telemetry.
//!
//! The paper's contribution is cross-architecture *attribution*: Tables
//! 2–3 and Figures 8–9 explain *why* each machine wins or loses through
//! per-machine cycle breakdowns (§4.2–§4.4), not through raw totals.
//! This crate turns the telemetry the workspace already emits
//! (`triarch-trace` span streams, `triarch-metrics` reports, the bench
//! artifact) into attribution artifacts:
//!
//! * [`fold`] — collapses counted trace spans into the
//!   collapsed-stack ("folded") format consumed by speedscope, inferno,
//!   and `flamegraph.pl`: one `arch;kernel;category;name cycles` line
//!   per leaf. A [`fold::FoldSink`] does this streaming in
//!   O(categories × names) memory, and the per-cell totals re-add to
//!   the engine's `CycleBreakdown` total with drift exactly 0.
//! * [`flame`] — renders a fold as a self-contained inline-SVG icicle
//!   flamegraph with no external tools, using a deterministic
//!   hash-derived warm palette.
//! * [`diff`] — the differential profiler: compares two per-cell
//!   profiles (e.g. two `BENCH_table3.json` artifacts) cell-by-cell and
//!   category-by-category, reporting absolute + relative deltas, the
//!   top-N regressed categories per cell, and a one-line narrative per
//!   changed cell. The CI perf gate uses it so a failure names the
//!   breakdown category that moved instead of a bare cycle mismatch.
//! * [`hostprof`] — simulator *self*-profiling: monotonic-clock wall
//!   samples around cell and phase execution, exported as `host.*`
//!   gauges (simulated-cycles-per-host-second and per-phase wall
//!   attribution) in the existing metrics registry. Host wall numbers
//!   are informational only: they are never part of a deterministic
//!   artifact and never gated.
//!
//! Everything in this crate is deterministic given its inputs: folded
//! output, SVGs, and diff reports are byte-stable across runs and
//! worker counts. Only [`hostprof`] touches the host clock, and its
//! output is kept out of the byte-stable surfaces by construction.
//!
//! Like `triarch-trace` and `triarch-metrics`, this crate is
//! dependency-free beyond those two siblings and the standard library.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod diff;
pub mod flame;
pub mod fold;
pub mod hash;
pub mod hostprof;
pub mod windowdiff;

pub use diff::{CategoryDelta, CellDelta, CellProfile, ProfileDiff};
pub use flame::{flamegraph_svg, frame_color, xml_escape};
pub use fold::{is_fold_safe, sanitize_frame, Fold, FoldSink};
pub use hash::fnv1a64;
pub use hostprof::{metric_slug, HostProf};
pub use windowdiff::{WindowDiff, WindowDoc, WindowProfile, WindowSeries};
