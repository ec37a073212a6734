//! The event vocabulary shared by every simulator.

/// One cycle-stamped observation from a simulator.
///
/// All labels are `&'static str` so events are `Copy` and recording never
/// allocates. Cycle stamps are in the *machine's own* clock domain (the same
/// domain as its reported `KernelRun::cycles`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A duration attributed to a breakdown category.
    Span {
        /// Execution track (Chrome-trace thread), e.g. `"viram.mem"`.
        track: &'static str,
        /// Breakdown category this span charges, e.g. `"memory"`,
        /// `"precharge"`, `"issue"`.
        category: &'static str,
        /// Human-readable label, e.g. `"vld.strided"`, `"srf-stream-in"`.
        name: &'static str,
        /// Start cycle (inclusive).
        start: u64,
        /// Duration in cycles.
        dur: u64,
        /// Whether this span participates in the cycle partition.
        ///
        /// Counted spans must tile the machine's total cycle count:
        /// per-category sums of counted spans reproduce the engine's
        /// `CycleBreakdown`. Uncounted spans are visualization-only detail
        /// (overlap-hidden work, DRAM transfer decomposition) and are
        /// skipped by every per-category fold.
        counted: bool,
    },
    /// A zero-duration marker, e.g. a phase boundary or TLB miss.
    Instant {
        /// Execution track.
        track: &'static str,
        /// Marker label.
        name: &'static str,
        /// Cycle at which it occurred.
        at: u64,
    },
    /// A sampled numeric series, e.g. cumulative DRAM row misses.
    Counter {
        /// Execution track.
        track: &'static str,
        /// Series name.
        name: &'static str,
        /// Cycle of the sample.
        at: u64,
        /// Sampled value.
        value: f64,
    },
}

impl TraceEvent {
    /// The event's track label.
    #[must_use]
    pub fn track(&self) -> &'static str {
        match self {
            TraceEvent::Span { track, .. }
            | TraceEvent::Instant { track, .. }
            | TraceEvent::Counter { track, .. } => track,
        }
    }

    /// The cycle at which the event starts (or occurs).
    #[must_use]
    pub fn start(&self) -> u64 {
        match self {
            TraceEvent::Span { start, .. } => *start,
            TraceEvent::Instant { at, .. } | TraceEvent::Counter { at, .. } => *at,
        }
    }

    /// The cycle at which the event ends (`start` for points).
    #[must_use]
    pub fn end(&self) -> u64 {
        match self {
            TraceEvent::Span { start, dur, .. } => start.saturating_add(*dur),
            TraceEvent::Instant { at, .. } | TraceEvent::Counter { at, .. } => *at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_all_variants() {
        let s = TraceEvent::Span {
            track: "t",
            category: "memory",
            name: "n",
            start: 10,
            dur: 5,
            counted: true,
        };
        assert_eq!(s.track(), "t");
        assert_eq!(s.start(), 10);
        assert_eq!(s.end(), 15);

        let i = TraceEvent::Instant { track: "t2", name: "mark", at: 7 };
        assert_eq!(i.track(), "t2");
        assert_eq!(i.start(), 7);
        assert_eq!(i.end(), 7);

        let c = TraceEvent::Counter { track: "t3", name: "rows", at: 3, value: 1.5 };
        assert_eq!(c.track(), "t3");
        assert_eq!((c.start(), c.end()), (3, 3));
    }

    #[test]
    fn span_end_saturates() {
        let s = TraceEvent::Span {
            track: "t",
            category: "c",
            name: "n",
            start: u64::MAX - 1,
            dur: 10,
            counted: false,
        };
        assert_eq!(s.end(), u64::MAX);
    }
}
