//! Collapsed-stack ("folded") profiles from counted trace spans.
//!
//! The folded format is the lingua franca of flamegraph tooling
//! (`flamegraph.pl`, inferno, speedscope): one line per unique stack,
//! frames separated by `;`, a space, then the sample weight. We emit
//! depth-4 stacks — `arch;kernel;category;name cycles` — where
//! `category` is the engine's breakdown category and `name` the span
//! label, so per-category sums reproduce the engine's `CycleBreakdown`
//! and the grand total equals its reported cycle count exactly.
//!
//! ## Fold rules
//!
//! * Only **counted** spans contribute (see `TraceEvent::Span`);
//!   uncounted visualization detail and instant/counter events are
//!   skipped. [`Fold`] is the one code path that re-derives per-category
//!   totals from a trace; `KernelRun::breakdown_drift` checks them
//!   against the engine's breakdown.
//! * Leaves are keyed `(category, name)`; weights are summed cycle
//!   durations.
//! * Frames are sanitized through [`sanitize_frame`]: any character
//!   outside `[A-Za-z0-9._/-]` becomes `-`, so the `;` separator and
//!   the weight-separating space can never be forged by a label. If two
//!   labels collide after sanitization their weights merge (engines
//!   keep labels [`is_fold_safe`] so this never happens in practice —
//!   each engine crate pins that with a hygiene test).
//! * Output lines are sorted by the sanitized stack string, making the
//!   rendering byte-stable regardless of event arrival order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use triarch_trace::{TraceEvent, TraceSink};

/// Whether `label` passes through [`sanitize_frame`] unchanged.
///
/// Engines keep every track/category/name label fold-safe so collapsed
/// stacks never merge distinct labels; each engine crate has a hygiene
/// test asserting this over a traced run.
#[must_use]
pub fn is_fold_safe(label: &str) -> bool {
    !label.is_empty() && label.chars().all(is_safe_char)
}

fn is_safe_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '/' | '-')
}

/// Maps `label` into the folded-format frame alphabet
/// `[A-Za-z0-9._/-]`, replacing every other character (notably `;`,
/// space, and non-ASCII) with `-`. Empty labels become `"-"`.
#[must_use]
pub fn sanitize_frame(label: &str) -> String {
    if label.is_empty() {
        return String::from("-");
    }
    label.chars().map(|c| if is_safe_char(c) { c } else { '-' }).collect()
}

/// A folded profile: cycle weights per `(category, name)` leaf.
///
/// Build one with a [`FoldSink`] (streaming) or by folding a stored
/// event slice with [`Fold::from_events`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fold {
    leaves: BTreeMap<(&'static str, &'static str), u64>,
    events: u64,
}

impl Fold {
    /// An empty fold.
    #[must_use]
    pub fn new() -> Self {
        Fold::default()
    }

    /// Folds a stored event stream.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Self {
        let mut fold = Fold::new();
        for event in events {
            fold.observe(event);
        }
        fold
    }

    /// Folds one event in (counted spans only; everything else is a
    /// no-op apart from the event count).
    pub fn observe(&mut self, event: &TraceEvent) {
        self.events += 1;
        if let TraceEvent::Span { category, name, dur, counted: true, .. } = event {
            *self.leaves.entry((category, name)).or_insert(0) += dur;
        }
    }

    /// Total cycles across all leaves.
    ///
    /// Equals the engine's reported cycle count when the counted spans
    /// tile the run (the trace contract pinned by PR 1).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.leaves.values().sum()
    }

    /// Cycles folded into `(category, name)` (0 when absent).
    #[must_use]
    pub fn get(&self, category: &str, name: &str) -> u64 {
        self.leaves.get(&(category, name)).copied().unwrap_or(0)
    }

    /// Cycles folded into `category` across all of its leaf names.
    #[must_use]
    pub fn category_total(&self, category: &str) -> u64 {
        self.leaves.iter().filter(|((c, _), _)| *c == category).map(|(_, &v)| v).sum()
    }

    /// Iterates `(category, name, cycles)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> + '_ {
        self.leaves.iter().map(|(&(c, n), &v)| (c, n, v))
    }

    /// Number of distinct `(category, name)` leaves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether no counted cycles were folded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Number of events observed (all kinds).
    #[must_use]
    pub fn events_observed(&self) -> u64 {
        self.events
    }

    /// The sanitized, merged, sorted leaf table rooted at
    /// `arch;kernel` — the canonical form shared by
    /// [`render_collapsed`](Self::render_collapsed) and the SVG
    /// renderer.
    #[must_use]
    pub fn sanitized_leaves(&self, arch: &str, kernel: &str) -> SanitizedFold {
        let root = format!("{};{}", sanitize_frame(arch), sanitize_frame(kernel));
        let mut leaves: BTreeMap<(String, String), u64> = BTreeMap::new();
        for ((category, name), &cycles) in &self.leaves {
            *leaves.entry((sanitize_frame(category), sanitize_frame(name))).or_insert(0) += cycles;
        }
        SanitizedFold { root, leaves }
    }

    /// Renders the profile in collapsed-stack format with the stack
    /// rooted at `arch;kernel`:
    ///
    /// ```text
    /// VIRAM;corner-turn;dma;dma-offchip 123456
    /// ```
    ///
    /// Lines are sorted by stack string; the output is byte-stable for
    /// a given fold and loads directly into speedscope / inferno.
    #[must_use]
    pub fn render_collapsed(&self, arch: &str, kernel: &str) -> String {
        let sanitized = self.sanitized_leaves(arch, kernel);
        let mut out = String::new();
        for ((category, name), cycles) in &sanitized.leaves {
            let root = &sanitized.root;
            // Writing to a String cannot fail.
            let _ = writeln!(out, "{root};{category};{name} {cycles}");
        }
        out
    }
}

/// A fold after sanitization and merging: the root stack prefix plus
/// sorted `(category, name) -> cycles` leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizedFold {
    /// The `arch;kernel` stack prefix (already sanitized).
    pub root: String,
    /// Sanitized leaves in sorted order, weights merged on collision.
    pub leaves: BTreeMap<(String, String), u64>,
}

impl SanitizedFold {
    /// Total cycles across all leaves.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.leaves.values().sum()
    }

    /// Category subtotals in sorted order.
    #[must_use]
    pub fn categories(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        for ((category, _), &cycles) in &self.leaves {
            match out.last_mut() {
                Some((last, sum)) if last == category => *sum += cycles,
                _ => out.push((category.clone(), cycles)),
            }
        }
        out
    }
}

/// A [`TraceSink`] that folds counted spans as they arrive, in
/// O(categories × names) memory — no event storage needed.
#[derive(Debug, Clone, Default)]
pub struct FoldSink {
    fold: Fold,
}

impl FoldSink {
    /// An empty folding sink.
    #[must_use]
    pub fn new() -> Self {
        FoldSink::default()
    }

    /// The fold accumulated so far.
    #[must_use]
    pub fn fold(&self) -> &Fold {
        &self.fold
    }

    /// Consumes the sink, returning the fold.
    #[must_use]
    pub fn into_fold(self) -> Fold {
        self.fold
    }
}

impl TraceSink for FoldSink {
    fn record(&mut self, event: TraceEvent) {
        self.fold.observe(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(category: &'static str, name: &'static str, dur: u64, counted: bool) -> TraceEvent {
        TraceEvent::Span { track: "t", category, name, start: 0, dur, counted }
    }

    #[test]
    fn sanitize_and_safety() {
        assert!(is_fold_safe("dma-offchip"));
        assert!(is_fold_safe("compute/vfp"));
        assert!(is_fold_safe("l2.miss_stall"));
        assert!(!is_fold_safe("a b"));
        assert!(!is_fold_safe("a;b"));
        assert!(!is_fold_safe(""));
        assert_eq!(sanitize_frame("Corner Turn"), "Corner-Turn");
        assert_eq!(sanitize_frame("a;b c"), "a-b-c");
        assert_eq!(sanitize_frame(""), "-");
        assert_eq!(sanitize_frame("ok/path-1.2_x"), "ok/path-1.2_x");
    }

    #[test]
    fn only_counted_spans_fold() {
        let events = [
            span("memory", "vld", 100, true),
            span("memory", "vld", 40, true),
            span("memory", "hidden", 90, false),
            span("compute", "vfp", 60, true),
            TraceEvent::Instant { track: "t", name: "mark", at: 5 },
        ];
        let fold = Fold::from_events(&events);
        assert_eq!(fold.get("memory", "vld"), 140);
        assert_eq!(fold.get("memory", "hidden"), 0);
        assert_eq!(fold.category_total("memory"), 140);
        assert_eq!(fold.total(), 200);
        assert_eq!(fold.len(), 2);
        assert_eq!(fold.events_observed(), 5);
        assert!(!fold.is_empty());
    }

    #[test]
    fn sink_matches_batch_fold() {
        let events = [span("a", "x", 5, true), span("b", "y", 7, true)];
        let mut sink = FoldSink::new();
        for e in &events {
            sink.record(*e);
        }
        assert_eq!(sink.fold(), &Fold::from_events(&events));
        assert_eq!(sink.into_fold().total(), 12);
    }

    #[test]
    fn collapsed_output_is_sorted_and_rooted() {
        let fold = Fold::from_events(&[
            span("startup", "vsplat", 3, true),
            span("compute", "vfp", 10, true),
            span("compute", "vint", 4, true),
        ]);
        let text = fold.render_collapsed("VIRAM", "Corner Turn");
        assert_eq!(
            text,
            "VIRAM;Corner-Turn;compute;vfp 10\n\
             VIRAM;Corner-Turn;compute;vint 4\n\
             VIRAM;Corner-Turn;startup;vsplat 3\n"
        );
    }

    #[test]
    fn sanitization_merges_colliding_leaves() {
        let fold = Fold::from_events(&[
            span("c", "a b", 3, true),
            span("c", "a;b", 4, true),
            span("c", "a-b", 5, true),
        ]);
        let sanitized = fold.sanitized_leaves("A", "K");
        assert_eq!(sanitized.leaves.len(), 1);
        assert_eq!(sanitized.total(), 12);
        assert_eq!(fold.render_collapsed("A", "K"), "A;K;c;a-b 12\n");
    }

    #[test]
    fn category_subtotals_are_grouped() {
        let fold = Fold::from_events(&[
            span("mem", "x", 1, true),
            span("mem", "y", 2, true),
            span("alu", "z", 4, true),
        ]);
        let sanitized = fold.sanitized_leaves("A", "K");
        assert_eq!(
            sanitized.categories(),
            vec![(String::from("alu"), 4), (String::from("mem"), 3)]
        );
    }
}
