//! In-memory spans for the traced run.
//!
//! The traced run wraps each call into a layer in a span: name, start,
//! end, the span it ran under, and the op (timed pass or request) it
//! belongs to. Spans stay in memory until the run ends; per-layer
//! metrics are medians over ops of the time each layer's spans took, and
//! `--spans FILE` writes them out with each span's self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use triarch_core::benchjson::escape;

/// One timed interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `viram.viram-corner-turn`.
    pub name: String,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for an op's root.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

/// A span recorder. A disabled tracer records nothing, so the untraced
/// run pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    /// A tracer whose op ids start at `first_op` (threads sharing one
    /// origin use disjoint op ranges so their spans can be merged).
    #[must_use]
    pub fn new(enabled: bool, origin: Instant, first_op: u64) -> Tracer {
        Tracer { enabled, origin, spans: Vec::new(), stack: Vec::new(), next_op: first_op }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one; a span opened with
    /// none open is the root of a new op.
    pub fn begin(&mut self, name: &str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op - 1
            }
        };
        let now = self.now_ns();
        self.spans.push(Span { name: name.to_owned(), start_ns: now, end_ns: now, parent, op });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` and any span still open inside it (an op that
    /// failed part-way leaves those at zero length).
    pub fn end(&mut self, id: usize) {
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another tracer's spans (its op ids must not clash).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per op whose root is named `root`, the summed duration in ms of
    /// its spans named `name` (ops in creation order).
    #[must_use]
    pub fn totals_ms(&self, root: &str, name: &str) -> Vec<f64> {
        let mut per_op: BTreeMap<u64, f64> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| (s.op, 0.0))
            .collect();
        for s in self.spans.iter().filter(|s| s.name == name) {
            if let Some(total) = per_op.get_mut(&s.op) {
                *total += (s.end_ns - s.start_ns) as f64 / 1e6;
            }
        }
        per_op.into_values().collect()
    }

    /// Every span's self time: its duration minus the part of it that
    /// its children cover.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans.iter().zip(&children).map(|(s, c)| self_time(s.start_ns, s.end_ns, c)).collect()
    }

    /// The spans as one JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or_else(|| String::from("null"), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {self_ns}}}{}",
                escape(&s.name),
                s.op,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" },
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// `end - start` minus the union of the child intervals, each clipped to
/// `[start, end]`.
#[must_use]
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(a, b)| (a.max(start), b.min(end))).filter(|(a, b)| a < b).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (a, b) in clipped {
        let from = a.max(reach);
        if b > from {
            covered += b - from;
            reach = b;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time(10, 20, &[]), 10);
        assert_eq!(self_time(10, 20, &[(12, 14), (15, 16)]), 7);
        // Overlapping children count once.
        assert_eq!(self_time(10, 20, &[(12, 16), (14, 18)]), 4);
        // A child spilling past either edge only covers the inside.
        assert_eq!(self_time(10, 20, &[(5, 12), (18, 30)]), 6);
        // A child entirely outside covers nothing; one covering all leaves 0.
        assert_eq!(self_time(10, 20, &[(30, 40)]), 10);
        assert_eq!(self_time(10, 20, &[(0, 100)]), 0);
    }

    #[test]
    fn ops_group_spans_and_totals_sum_per_op() {
        let mut tr = Tracer::new(true, Instant::now(), 0);
        for _ in 0..3 {
            let op = tr.begin("pass");
            tr.span("leaf", || ());
            tr.span("leaf", || ());
            tr.end(op);
        }
        let other = tr.begin("probe");
        tr.end(other);
        assert_eq!(tr.totals_ms("pass", "leaf").len(), 3);
        assert_eq!(tr.totals_ms("probe", "leaf"), vec![0.0]);
        assert_eq!(tr.spans.iter().filter(|s| s.parent.is_none()).count(), 4);
        assert!(tr.spans.iter().filter(|s| s.name == "leaf").all(|s| s.parent.is_some()));
        // Self times never exceed durations, and a root's self time plus
        // its children's durations equals its own duration.
        let own = tr.self_ns();
        let root = &tr.spans[0];
        let kids: u64 =
            tr.spans.iter().filter(|s| s.parent == Some(0)).map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(own[0] + kids, root.end_ns - root.start_ns);
        assert!(tr.to_json().contains("\"name\": \"leaf\""));
    }

    #[test]
    fn ending_an_op_closes_what_a_failure_left_open() {
        let mut tr = Tracer::new(true, Instant::now(), 0);
        let op = tr.begin("pass");
        tr.begin("half-done");
        tr.end(op);
        assert!(tr.stack.is_empty());
        assert_eq!(tr.begin("next"), 2);
        assert_eq!(tr.spans[2].op, 1);
    }

    #[test]
    fn merged_tracers_keep_parents_and_ops_apart() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin, 0);
        let mut b = Tracer::new(true, origin, 1 << 32);
        for tr in [&mut a, &mut b] {
            let op = tr.begin("req");
            tr.span("inner", || ());
            tr.end(op);
        }
        a.absorb(b);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.totals_ms("req", "inner").len(), 2);
        let mut off = Tracer::off();
        let id = off.begin("ignored");
        off.end(id);
        assert!(off.spans.is_empty());
    }
}
