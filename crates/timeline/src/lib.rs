//! `triarch-timeline` — cycle-windowed occupancy telemetry.
//!
//! Every observability layer before this one (metrics, folded profiles)
//! sums time *away*: it can say a run spent 40% of its cycles on
//! `memory`, but not *when*. This crate adds the time axis back
//! while keeping the workspace's conservation discipline: a
//! [`TimelineSink`] implements [`triarch_trace::TraceSink`] and buckets
//! every **counted** span into fixed-size cycle windows, producing a
//! per-`(track, category)` cycle series over the run.
//!
//! # The window model
//!
//! A [`Timeline`] with window size `W` divides the machine's cycle axis
//! into half-open windows `[w·W, (w+1)·W)`. A counted span
//! `[start, start+dur)` contributes to window `w` exactly its overlap
//!
//! ```text
//! min(start+dur, (w+1)·W) − max(start, w·W)
//! ```
//!
//! cycles. Because the overlaps of one span across consecutive windows sum
//! to `dur`, bucketing is lossless, which yields the crate's invariant:
//!
//! **Conservation.** Summing a category's series over all windows (and
//! tracks) reproduces the engine's `CycleBreakdown` entry for that
//! category exactly — drift 0 under `KernelRun::breakdown_drift`, the
//! same check a trace fold passes.
//!
//! Uncounted spans (overlap-hidden work, the DRAM transfer decomposition
//! emitted by `triarch-simcore`) are kept in a separate *detail* plane:
//! they are rendered and exported, but never participate in conservation,
//! mirroring the counted-span contract in `triarch-trace`.
//!
//! # Algebra
//!
//! Timelines form a commutative monoid under [`Timeline::merge`] (same
//! window size), and [`Timeline::coarsen`] re-buckets a series into a
//! window size that is an integer multiple of the original — losslessly,
//! since each coarse window is the sum of whole fine windows. Both laws
//! are property-tested.
//!
//! Like its siblings, this crate is dependency-free beyond
//! `triarch-trace` and the standard library, and everything it produces
//! is byte-deterministic given its inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

mod sink;
mod window;

pub use sink::TimelineSink;
pub use window::{Occupancy, Timeline, TimelineError, DEFAULT_WINDOW};

/// Breakdown categories treated as *stall* time in occupancy summaries.
///
/// Everything not listed here counts as *busy* (useful work: compute,
/// memory streaming, network hops, DMA). The split only affects the
/// busy/stall/idle presentation — conservation is per-category and does
/// not depend on it.
pub const STALL_CATEGORIES: [&str; 8] =
    ["stall", "load-stall", "precharge", "tlb", "ecc", "retry", "startup", "launch"];

/// Whether a breakdown category is presented as stall time.
#[must_use]
pub fn is_stall_category(category: &str) -> bool {
    STALL_CATEGORIES.contains(&category)
}
