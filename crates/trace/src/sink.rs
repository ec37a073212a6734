//! The recording interface and its zero-cost / combinator implementations.

use crate::event::TraceEvent;

/// Receives cycle-stamped events from a simulator.
///
/// The trait is dyn-safe (`&mut dyn TraceSink` works), while engines remain
/// generic over a concrete sink type defaulting to [`NullSink`] so that a
/// disabled trace compiles to nothing.
///
/// Implementors override [`record`](Self::record) (and
/// [`is_enabled`](Self::is_enabled) where recording can be skipped
/// entirely); the span/instant/counter helpers are provided.
pub trait TraceSink {
    /// Records one event.
    fn record(&mut self, event: TraceEvent);

    /// Whether events will be observed at all.
    ///
    /// Engines consult this before doing any work that exists only to build
    /// events (e.g. re-deriving a DRAM cost decomposition), so a disabled
    /// sink keeps the hot path untouched.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Records a counted span: `dur` cycles starting at `start`, charged to
    /// `category`. See [`TraceEvent::Span`] for the counted contract.
    fn span(
        &mut self,
        track: &'static str,
        category: &'static str,
        name: &'static str,
        start: u64,
        dur: u64,
    ) {
        if dur > 0 {
            self.record(TraceEvent::Span { track, category, name, start, dur, counted: true });
        }
    }

    /// Records an uncounted (visualization-only) span.
    fn span_uncounted(
        &mut self,
        track: &'static str,
        category: &'static str,
        name: &'static str,
        start: u64,
        dur: u64,
    ) {
        if dur > 0 {
            self.record(TraceEvent::Span { track, category, name, start, dur, counted: false });
        }
    }

    /// Records an instant marker.
    fn instant(&mut self, track: &'static str, name: &'static str, at: u64) {
        self.record(TraceEvent::Instant { track, name, at });
    }

    /// Records a counter sample.
    fn counter(&mut self, track: &'static str, name: &'static str, at: u64, value: f64) {
        self.record(TraceEvent::Counter { track, name, at, value });
    }
}

impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    fn record(&mut self, event: TraceEvent) {
        (**self).record(event);
    }

    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }
}

/// The do-nothing sink: every method is empty and
/// [`is_enabled`](TraceSink::is_enabled) is `false`, so engines
/// parameterized by `NullSink` (the default) optimize all instrumentation
/// away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}

    #[inline(always)]
    fn is_enabled(&self) -> bool {
        false
    }
}

/// Forwards every event to two sinks, e.g. a bounded [`crate::RingSink`]
/// for export plus a folding sink for validation.
#[derive(Debug, Clone, Default)]
pub struct TeeSink<A, B> {
    /// First receiver.
    pub a: A,
    /// Second receiver.
    pub b: B,
}

impl<A: TraceSink, B: TraceSink> TeeSink<A, B> {
    /// Builds a tee over two sinks.
    pub fn new(a: A, b: B) -> Self {
        TeeSink { a, b }
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    fn record(&mut self, event: TraceEvent) {
        self.a.record(event);
        self.b.record(event);
    }

    fn is_enabled(&self) -> bool {
        self.a.is_enabled() || self.b.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingSink;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let mut s = NullSink;
        assert!(!s.is_enabled());
        s.span("t", "c", "n", 0, 10);
        s.instant("t", "n", 0);
        s.counter("t", "n", 0, 1.0);
        // Nothing observable; this test exists to exercise the paths.
    }

    #[test]
    fn zero_duration_spans_are_elided() {
        let mut s = RingSink::new(8);
        s.span("t", "c", "n", 5, 0);
        s.span_uncounted("t", "c", "n", 5, 0);
        assert_eq!(s.len(), 0);
        s.span("t", "c", "n", 5, 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut inner = RingSink::new(8);
        {
            let mut as_ref: &mut RingSink = &mut inner;
            as_ref.span("t", "c", "n", 0, 3);
            let dyn_sink: &mut dyn TraceSink = &mut as_ref;
            dyn_sink.span("t", "c", "n", 3, 4);
            assert!(dyn_sink.is_enabled());
        }
        assert_eq!(inner.len(), 2);
    }

    #[test]
    fn tee_feeds_both() {
        let mut tee = TeeSink::new(RingSink::new(4), RingSink::new(4));
        assert!(tee.is_enabled());
        tee.span("t", "c", "n", 0, 2);
        assert_eq!(tee.a.len(), 1);
        assert_eq!(tee.b.len(), 1);
        let quiet = TeeSink::new(NullSink, NullSink);
        assert!(!quiet.is_enabled());
    }
}
