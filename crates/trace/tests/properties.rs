//! Property-based tests: sinks must account for every event.

use proptest::prelude::*;
use triarch_trace::{RingSink, TeeSink, TraceEvent, TraceSink};

/// Category label table used to build arbitrary events from indices
/// (event labels are `&'static str` by design).
const CATEGORIES: [&str; 4] = ["memory", "issue", "precharge", "stall"];
const TRACKS: [&str; 3] = ["m.mem", "m.core", "m.net"];

/// Decodes a generated tuple into a span event.
fn span_of((t, c, start, dur, counted): (usize, usize, u64, u64, bool)) -> TraceEvent {
    TraceEvent::Span {
        track: TRACKS[t % TRACKS.len()],
        category: CATEGORIES[c % CATEGORIES.len()],
        name: "n",
        start,
        dur,
        counted,
    }
}

proptest! {
    /// A tee delivers every event to both arms: a bounded ring's
    /// retained events plus its dropped count account for the full
    /// stream and it keeps the most recent ones, while an arm large
    /// enough for the whole stream holds it verbatim.
    #[test]
    fn streaming_tee_and_ring_account_for_every_event(
        raw in proptest::collection::vec(
            (0usize..3, 0usize..4, 0u64..1_000_000, 1u64..10_000, any::<bool>()),
            0..150,
        ),
        capacity in 1usize..64,
    ) {
        let events: Vec<TraceEvent> = raw.iter().copied().map(span_of).collect();
        let mut tee = TeeSink::new(RingSink::new(capacity), RingSink::new(events.len()));
        for &event in &events {
            tee.record(event);
        }
        let TeeSink { a: ring, b: full } = tee;
        prop_assert_eq!(ring.len() as u64 + ring.dropped(), raw.len() as u64);
        let kept = events.len().min(capacity);
        prop_assert_eq!(ring.into_events(), events[events.len() - kept..].to_vec());
        prop_assert_eq!(full.dropped(), 0);
        prop_assert_eq!(full.into_events(), events);
    }
}
