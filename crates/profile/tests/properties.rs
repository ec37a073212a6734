//! Property-based tests for the fold / flame / diff laws.

use proptest::prelude::*;
use triarch_profile::{
    flamegraph_svg, is_fold_safe, sanitize_frame, CellProfile, Fold, FoldSink, ProfileDiff,
};
use triarch_trace::{RingSink, TeeSink, TraceEvent, TraceSink};

/// Label tables used to build arbitrary events from indices (labels
/// are `&'static str` by design).
const CATEGORIES: [&str; 4] = ["memory", "issue", "precharge", "stall"];
const NAMES: [&str; 5] = ["vld", "vfp", "dma-offchip", "row-precharge", "tile-stall"];

fn span_of((c, n, start, dur, counted): (usize, usize, u64, u64, bool)) -> TraceEvent {
    TraceEvent::Span {
        track: "t",
        category: CATEGORIES[c % CATEGORIES.len()],
        name: NAMES[n % NAMES.len()],
        start,
        dur,
        counted,
    }
}

/// Raw generator shape for one cell: `(arch index, cycles, categories)`.
type RawCell = (u8, u64, Vec<(u8, u64)>);

fn cells_of(raw: &[RawCell]) -> Vec<CellProfile> {
    raw.iter()
        .enumerate()
        .map(|(i, (arch, cycles, cats))| CellProfile {
            arch: format!("A{}", arch % 5),
            kernel: format!("K{i}"),
            cycles: *cycles,
            categories: cats
                .iter()
                .map(|(c, v)| (CATEGORIES[*c as usize % CATEGORIES.len()].to_string(), *v))
                .collect(),
        })
        .collect()
}

/// Hand-sums the durations of counted spans that pass `keep`.
fn counted_sum(events: &[TraceEvent], keep: impl Fn(&str) -> bool) -> u64 {
    events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Span { category, dur, counted: true, .. } if keep(category) => Some(dur),
            _ => None,
        })
        .sum()
}

proptest! {
    /// Folding is lossless: the fold total equals the hand-summed
    /// durations of the counted spans, and each category total equals
    /// its own counted sum — so the collapsed stacks re-add to the
    /// engine's `CycleBreakdown`.
    #[test]
    fn fold_equals_hand_summed_counted_spans(
        raw in proptest::collection::vec(
            (0usize..4, 0usize..5, 0u64..1_000_000, 0u64..10_000, any::<bool>()),
            0..200,
        )
    ) {
        let events: Vec<TraceEvent> = raw.iter().copied().map(span_of).collect();
        let fold = Fold::from_events(&events);
        prop_assert_eq!(fold.total(), counted_sum(&events, |_| true));
        for category in CATEGORIES {
            prop_assert_eq!(fold.category_total(category), counted_sum(&events, |c| c == category));
        }
        prop_assert_eq!(fold.events_observed(), events.len() as u64);
    }

    /// Folding is order-independent and the streaming sink matches the
    /// batch fold, so collapsed output is byte-identical at any worker
    /// count.
    #[test]
    fn fold_is_order_independent_and_streaming(
        raw in proptest::collection::vec(
            (0usize..4, 0usize..5, 0u64..1_000_000, 0u64..10_000, any::<bool>()),
            1..150,
        ),
        rot in 0usize..150,
    ) {
        let events: Vec<TraceEvent> = raw.iter().copied().map(span_of).collect();
        let mut rotated = events.clone();
        rotated.rotate_left(rot % events.len());
        prop_assert_eq!(
            Fold::from_events(&events).render_collapsed("A", "K"),
            Fold::from_events(&rotated).render_collapsed("A", "K"),
        );
        let mut sink = FoldSink::new();
        for e in &events {
            sink.record(*e);
        }
        prop_assert_eq!(sink.into_fold(), Fold::from_events(&events));
    }

    /// A ring teed with a fold — the shape `repro trace` records with —
    /// folds the whole stream even when the ring evicts: the fold equals
    /// the batch fold, and its event count equals the ring's retained
    /// plus dropped events.
    #[test]
    fn a_fold_teed_with_a_bounded_ring_sees_the_whole_stream(
        raw in proptest::collection::vec(
            (0usize..4, 0usize..5, 0u64..1_000_000, 1u64..10_000, any::<bool>()),
            0..150,
        ),
        capacity in 1usize..64,
    ) {
        let events: Vec<TraceEvent> = raw.iter().copied().map(span_of).collect();
        let mut tee = TeeSink::new(RingSink::new(capacity), FoldSink::new());
        for e in &events {
            tee.record(*e);
        }
        let TeeSink { a: ring, b: fold } = tee;
        let fold = fold.into_fold();
        prop_assert_eq!(fold.events_observed(), ring.len() as u64 + ring.dropped());
        prop_assert_eq!(fold, Fold::from_events(&events));
    }

    /// Sanitization is idempotent, always yields a fold-safe frame,
    /// and fixes fold-safe labels.
    #[test]
    fn sanitize_is_idempotent_and_safe(
        raw in proptest::collection::vec(any::<u8>(), 0usize..40)
    ) {
        // Mixed alphabet: safe chars, folded-format metacharacters,
        // whitespace, and non-ASCII.
        const TABLE: [char; 16] = [
            'a', 'Z', '0', '.', '_', '/', '-', ' ', ';', '!', '%', '\u{e9}', '\u{3bb}', '\t',
            '\n', '\'',
        ];
        let label: String = raw.iter().map(|&b| TABLE[b as usize % TABLE.len()]).collect();
        let once = sanitize_frame(&label);
        prop_assert!(is_fold_safe(&once));
        prop_assert_eq!(sanitize_frame(&once), once.clone());
        if is_fold_safe(&label) {
            prop_assert_eq!(once, label);
        }
    }

    /// Collapsed lines parse back: every line is `stack space weight`,
    /// stacks have exactly 4 frames, and the weights re-add to the
    /// fold total.
    #[test]
    fn collapsed_lines_round_trip(
        raw in proptest::collection::vec(
            (0usize..4, 0usize..5, 0u64..1_000, 1u64..10_000, any::<bool>()),
            0..100,
        )
    ) {
        let events: Vec<TraceEvent> = raw.iter().copied().map(span_of).collect();
        let fold = Fold::from_events(&events);
        let text = fold.render_collapsed("VIRAM", "Corner Turn");
        let mut sum = 0u64;
        for line in text.lines() {
            let (stack, weight) = line.rsplit_once(' ').ok_or_else(|| {
                TestCaseError::fail(format!("no weight separator in '{line}'"))
            })?;
            prop_assert_eq!(stack.split(';').count(), 4);
            prop_assert!(stack.starts_with("VIRAM;Corner-Turn;"));
            sum += weight.parse::<u64>().map_err(|e| {
                TestCaseError::fail(format!("bad weight in '{line}': {e}"))
            })?;
        }
        prop_assert_eq!(sum, fold.total());
    }

    /// The SVG renderer is deterministic and structurally sound for
    /// arbitrary folds.
    #[test]
    fn svg_is_deterministic(
        raw in proptest::collection::vec(
            (0usize..4, 0usize..5, 0u64..1_000, 1u64..10_000, any::<bool>()),
            0..60,
        )
    ) {
        let events: Vec<TraceEvent> = raw.iter().copied().map(span_of).collect();
        let fold = Fold::from_events(&events);
        let svg = flamegraph_svg("Raw", "CSLC", &fold);
        prop_assert_eq!(&svg, &flamegraph_svg("Raw", "CSLC", &fold));
        prop_assert!(svg.starts_with("<svg "));
        prop_assert!(svg.trim_end().ends_with("</svg>"));
        prop_assert_eq!(svg.matches("<rect ").count(), svg.matches("<title>").count());
    }

    /// `profdiff(A, A)` is empty for any profile, and a diff against a
    /// perturbed copy is non-empty and names the perturbed category.
    #[test]
    fn self_diff_empty_perturbed_diff_named(
        raw in proptest::collection::vec(
            (0u8..5, 0u64..1_000_000, proptest::collection::vec((0u8..4, 1u64..1_000), 0..4)),
            1..12,
        ),
        bump in 1u64..1_000,
    ) {
        let cells = cells_of(&raw);
        prop_assert!(ProfileDiff::compute(&cells, &cells).is_empty());

        let mut perturbed = cells.clone();
        perturbed[0].cycles += bump;
        *perturbed[0].categories.entry(String::from("memory")).or_insert(0) += bump;
        let diff = ProfileDiff::compute(&cells, &perturbed);
        prop_assert!(!diff.is_empty());
        let cell = diff.cell(&cells[0].label()).ok_or_else(|| {
            TestCaseError::fail("perturbed cell missing from diff")
        })?;
        prop_assert_eq!(cell.cycles_delta(), i128::from(bump));
        let top = cell.top_regressed(3);
        prop_assert!(top.iter().any(|c| c.name == "memory" && c.delta() == i128::from(bump)));
    }
}
