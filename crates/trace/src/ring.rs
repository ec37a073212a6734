//! Bounded in-memory event recorder.

use std::collections::VecDeque;

use crate::event::TraceEvent;
use crate::sink::TraceSink;

/// A bounded ring-buffer recorder: keeps the most recent `capacity` events,
/// counting (rather than storing) anything older.
///
/// Paper-scale kernels emit hundreds of thousands of events; the ring bounds
/// memory for export, while a streaming fold (tee'd alongside with
/// [`crate::TeeSink`]) keeps exact per-category totals.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a recorder keeping at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingSink { buf: VecDeque::with_capacity(capacity), capacity, dropped: 0 }
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Consumes the recorder, returning retained events oldest first.
    #[must_use]
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.buf.into_iter().collect()
    }

    /// Discards all retained events and the drop count.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_most_recent_events() {
        let mut s = RingSink::new(3);
        for i in 0..5u64 {
            s.instant("t", "mark", i);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        let starts: Vec<u64> = s.events().map(TraceEvent::start).collect();
        assert_eq!(starts, [2, 3, 4]);
        assert_eq!(s.clone().into_events().len(), 3);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = RingSink::new(2);
        s.instant("t", "a", 0);
        s.instant("t", "b", 1);
        s.instant("t", "c", 2);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut s = RingSink::new(0);
        s.instant("t", "a", 0);
        s.instant("t", "b", 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.dropped(), 1);
    }
}
