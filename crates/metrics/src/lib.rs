//! Deterministic hardware-counter observability for the `triarch` simulators.
//!
//! The trace layer (`triarch-trace`) attributes *cycles* to causes; this
//! crate is the companion layer for *rates and utilizations*: cache hit
//! rates, DRAM bank conflicts, network link traffic, register-file
//! occupancy, achieved bandwidth.  Components register typed metrics under
//! hierarchical dotted names (`viram.dram.bank_conflicts`,
//! `ppc.l2.hit_rate`, `raw.net.link_util`, `imagine.srf.occupancy`) in a
//! [`MetricsReport`], which every engine attaches to its
//! `KernelRun` alongside the `CycleBreakdown`.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Two runs of the same simulation must produce
//!    byte-identical reports regardless of worker count or host.  All
//!    storage is a [`BTreeMap`] (sorted iteration), all arithmetic is
//!    integer where the quantity is integral, and the only floating-point
//!    values are *derived* at render time from integer numerators and
//!    denominators.
//! 2. **Zero dependencies.** Like `triarch-trace`, this crate depends on
//!    nothing, so it can sit below `simcore` in the crate DAG.
//! 3. **Cheap on the hot path.** Engines accumulate plain integer fields
//!    during simulation (exactly as they did before this crate existed)
//!    and assemble the report once in `finish()`.
//!
//! # Metric types
//!
//! - [`Metric::Counter`] — monotonically increasing integer event count.
//! - [`Metric::Gauge`] — instantaneous scalar (merge takes the max).
//! - [`Ratio`] — `num/den` kept as integers so hit rates merge exactly.
//! - [`Bandwidth`] — `words/cycles`, the achieved-rate primitive behind
//!   the roofline utilization scorecard.
//! - [`Histogram`] — fixed-bucket cycle histogram whose merge is
//!   associative and commutative (property-tested in
//!   `tests/metrics_validation.rs`).
//!
//! # Exposition
//!
//! [`MetricsReport::render_prometheus`] emits the Prometheus text format
//! (dots become underscores, ratios/bandwidths expand to
//! `_num`/`_den`/value triples, histograms to `_bucket{le=…}` series);
//! [`MetricsReport::render_json`] emits a schema-stable JSON object.  Both
//! are hand-rolled — the workspace has no serde.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fmt;

/// An exact rational observation: `num` events out of `den` opportunities.
///
/// Stored as integers so that merging two ratios (componentwise addition)
/// is exact and order-independent, unlike averaging floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ratio {
    /// Numerator (e.g. cache hits).
    pub num: u64,
    /// Denominator (e.g. total accesses).
    pub den: u64,
}

impl Ratio {
    /// Builds a ratio.
    #[must_use]
    pub fn new(num: u64, den: u64) -> Self {
        Ratio { num, den }
    }

    /// The ratio as a float; `0.0` when the denominator is zero.
    #[must_use]
    pub fn value(&self) -> f64 {
        if self.den == 0 {
            0.0
        } else {
            self.num as f64 / self.den as f64
        }
    }
}

/// An achieved transfer rate: `words` moved over `cycles` of activity.
///
/// Kept as integers for exact, order-independent merging; the
/// words-per-cycle rate is derived at render time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bandwidth {
    /// 32-bit words moved.
    pub words: u64,
    /// Cycles over which they moved.
    pub cycles: u64,
}

impl Bandwidth {
    /// Builds a bandwidth observation.
    #[must_use]
    pub fn new(words: u64, cycles: u64) -> Self {
        Bandwidth { words, cycles }
    }

    /// Achieved words per cycle; `0.0` when no cycles elapsed.
    #[must_use]
    pub fn words_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.words as f64 / self.cycles as f64
        }
    }
}

/// Power-of-two bucket edges used by [`Histogram::cycles`]: 1, 2, 4, …, 2^24.
pub const CYCLE_EDGES: [u64; 25] = {
    let mut edges = [0u64; 25];
    let mut i = 0;
    while i < 25 {
        edges[i] = 1u64 << i;
        i += 1;
    }
    edges
};

/// A fixed-bucket histogram of integer observations (typically cycle
/// durations).
///
/// The bucket edges are fixed at construction; `counts[i]` holds
/// observations `<= edges[i]` (and `> edges[i-1]`), with one overflow
/// bucket at the end for observations above the last edge.  Because the
/// edges never change, [`Histogram::merge`] is plain vector addition —
/// associative and commutative by construction, which is what makes
/// metrics reports independent of job scheduling order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    edges: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    total: u64,
    /// True when `edges[i] == 1 << i` for all i, enabling an O(1)
    /// bit-arithmetic bucket lookup on the hot observe path.
    pow2: bool,
}

impl Histogram {
    /// Builds an empty histogram over the given ascending bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly ascending.
    #[must_use]
    pub fn with_edges(edges: &[u64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one bucket edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly ascending"
        );
        let pow2 = edges.iter().enumerate().all(|(i, &e)| i < 64 && e == 1u64 << i);
        Histogram {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            sum: 0,
            total: 0,
            pow2,
        }
    }

    /// The standard cycle-duration histogram (power-of-two edges).
    #[must_use]
    pub fn cycles() -> Self {
        Self::with_edges(&CYCLE_EDGES)
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        // Bucket index = number of edges strictly below `value`. For the
        // standard power-of-two edges that is `ceil(log2(value))`,
        // computable in O(1) from the leading-zero count — engines call
        // this per DRAM transfer, so the binary search is worth skipping.
        let idx = if self.pow2 {
            if value <= 1 {
                0
            } else {
                (64 - (value - 1).leading_zeros() as usize).min(self.edges.len())
            }
        } else {
            self.edges.partition_point(|&e| e < value)
        };
        self.counts[idx] += 1;
        self.sum += value;
        self.total += 1;
    }

    /// Merges another histogram into this one.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::BucketMismatch`] if the edge vectors differ.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), MetricsError> {
        if self.edges != other.edges {
            return Err(MetricsError::BucketMismatch);
        }
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.sum += other.sum;
        self.total += other.total;
        Ok(())
    }

    /// Bucket edges.
    #[must_use]
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Per-bucket counts (one overflow bucket beyond the last edge).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean observation; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the bucket
    /// counts, interpolating linearly inside the owning bucket — the
    /// same estimator Prometheus' `histogram_quantile` uses, so a
    /// client reading the `_bucket{le=…}` exposition computes the same
    /// figure the server would.
    ///
    /// Observations landing in the overflow bucket are reported as the
    /// last edge (there is no upper bound to interpolate toward).
    /// Returns `0.0` for an empty histogram; `q` is clamped to
    /// `[0.0, 1.0]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut cumulative = 0u64;
        for (i, count) in self.counts.iter().enumerate() {
            let below = cumulative as f64;
            cumulative += count;
            if (cumulative as f64) < rank || *count == 0 {
                continue;
            }
            let Some(&upper) = self.edges.get(i) else {
                // Overflow bucket: unbounded above, report the last edge.
                return self.edges[self.edges.len() - 1] as f64;
            };
            let lower = if i == 0 { 0.0 } else { self.edges[i - 1] as f64 };
            let fraction = ((rank - below) / *count as f64).clamp(0.0, 1.0);
            return lower + (upper as f64 - lower) * fraction;
        }
        self.edges[self.edges.len() - 1] as f64
    }

    /// Rebuilds a histogram from exposed parts — the client-side inverse
    /// of the Prometheus rendering, used by `servectl top` to compute
    /// quantiles from a stats dump.
    ///
    /// Returns `None` when the edges are empty or not strictly
    /// ascending, or when `counts` is not one longer than `edges` (the
    /// trailing overflow bucket).
    #[must_use]
    pub fn from_parts(edges: &[u64], counts: &[u64], sum: u64) -> Option<Histogram> {
        if edges.is_empty() || counts.len() != edges.len() + 1 {
            return None;
        }
        if !edges.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        let mut h = Histogram::with_edges(edges);
        h.counts.copy_from_slice(counts);
        h.total = counts.iter().sum();
        h.sum = sum;
        Some(h)
    }
}

/// One typed metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonically increasing event count; merge adds.
    Counter(u64),
    /// Instantaneous scalar; merge takes the maximum.
    Gauge(f64),
    /// Exact rational (hit rates, utilizations); merge adds componentwise.
    Ratio(Ratio),
    /// Achieved words-over-cycles rate; merge adds componentwise.
    Bandwidth(Bandwidth),
    /// Fixed-bucket histogram; merge adds bucket counts.
    Histogram(Histogram),
}

impl Metric {
    /// The metric's scalar value for display: counters and gauges as-is,
    /// ratios and bandwidths as their derived rate, histograms as their
    /// mean.
    #[must_use]
    pub fn value(&self) -> f64 {
        match self {
            Metric::Counter(c) => *c as f64,
            Metric::Gauge(g) => *g,
            Metric::Ratio(r) => r.value(),
            Metric::Bandwidth(b) => b.words_per_cycle(),
            Metric::Histogram(h) => h.mean(),
        }
    }

    /// Short type tag used in exposition formats.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Ratio(_) => "ratio",
            Metric::Bandwidth(_) => "bandwidth",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Errors from metrics operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsError {
    /// Two histograms with different bucket edges cannot merge.
    BucketMismatch,
    /// Two metrics with the same name but different types cannot merge.
    TypeMismatch {
        /// The metric name that clashed.
        name: String,
    },
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::BucketMismatch => {
                write!(f, "histogram bucket edges differ; cannot merge")
            }
            MetricsError::TypeMismatch { name } => {
                write!(f, "metric `{name}` has conflicting types; cannot merge")
            }
        }
    }
}

impl std::error::Error for MetricsError {}

/// A deterministic registry of named metrics.
///
/// Names are hierarchical dotted paths (`ppc.l2.hit_rate`); storage is a
/// [`BTreeMap`] so iteration, rendering, and merging are all
/// order-independent of insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (or replaces) a metric under `name`.
    pub fn set(&mut self, name: &str, metric: Metric) {
        self.metrics.insert(name.to_string(), metric);
    }

    /// Registers a counter with an absolute value.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.set(name, Metric::Counter(value));
    }

    /// Adds to a counter, creating it at zero if absent.
    ///
    /// Silently ignores the delta if `name` exists with a non-counter type
    /// (merge surfaces such clashes as errors; incremental adds stay
    /// infallible for hot-path ergonomics).
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        if let Metric::Counter(c) =
            self.metrics.entry(name.to_string()).or_insert(Metric::Counter(0))
        {
            *c += delta;
        }
    }

    /// Registers a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.set(name, Metric::Gauge(value));
    }

    /// Registers a ratio.
    pub fn ratio(&mut self, name: &str, num: u64, den: u64) {
        self.set(name, Metric::Ratio(Ratio::new(num, den)));
    }

    /// Registers a bandwidth.
    pub fn bandwidth(&mut self, name: &str, words: u64, cycles: u64) {
        self.set(name, Metric::Bandwidth(Bandwidth::new(words, cycles)));
    }

    /// Records an observation into a cycle histogram under `name`,
    /// creating it with the standard edges if absent.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Metric::Histogram(h) = self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::cycles()))
        {
            h.observe(value);
        }
    }

    /// Looks up a metric.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Convenience: the counter value under `name`, or `None` if absent
    /// or not a counter.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(Metric::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the report is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Sum of all counters whose name starts with `prefix`.
    #[must_use]
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(_, v)| match v {
                Metric::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Merges another report into this one.
    ///
    /// Counters/ratios/bandwidths add componentwise, gauges keep the
    /// maximum, histograms add bucket counts.  Because every per-type
    /// merge is associative and commutative, merging a set of reports
    /// yields the same result in any order — the property that makes
    /// aggregate metrics independent of `--jobs`.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::TypeMismatch`] when the same name holds
    /// different metric types, or [`MetricsError::BucketMismatch`] for
    /// incompatible histograms.
    pub fn merge(&mut self, other: &MetricsReport) -> Result<(), MetricsError> {
        for (name, theirs) in &other.metrics {
            match self.metrics.get_mut(name) {
                None => {
                    self.metrics.insert(name.clone(), theirs.clone());
                }
                Some(ours) => match (ours, theirs) {
                    (Metric::Counter(a), Metric::Counter(b)) => *a += b,
                    (Metric::Gauge(a), Metric::Gauge(b)) => {
                        if *b > *a {
                            *a = *b;
                        }
                    }
                    (Metric::Ratio(a), Metric::Ratio(b)) => {
                        a.num += b.num;
                        a.den += b.den;
                    }
                    (Metric::Bandwidth(a), Metric::Bandwidth(b)) => {
                        a.words += b.words;
                        a.cycles += b.cycles;
                    }
                    (Metric::Histogram(a), Metric::Histogram(b)) => a.merge(b)?,
                    _ => return Err(MetricsError::TypeMismatch { name: name.clone() }),
                },
            }
        }
        Ok(())
    }

    /// Renders the Prometheus text exposition format.
    ///
    /// Dots in metric names become underscores; ratios and bandwidths
    /// expand to integer `_num`/`_den` (resp. `_words`/`_cycles`) pairs
    /// plus the derived rate; histograms expand to cumulative
    /// `_bucket{le="…"}` series with `_sum` and `_count`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            let flat = promname(name);
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {flat} counter\n{flat} {c}\n"));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("# TYPE {flat} gauge\n{flat} {}\n", fmt_f64(*g)));
                }
                Metric::Ratio(r) => {
                    out.push_str(&format!(
                        "# TYPE {flat} gauge\n{flat} {}\n{flat}_num {}\n{flat}_den {}\n",
                        fmt_f64(r.value()),
                        r.num,
                        r.den
                    ));
                }
                Metric::Bandwidth(b) => {
                    out.push_str(&format!(
                        "# TYPE {flat} gauge\n{flat} {}\n{flat}_words {}\n{flat}_cycles {}\n",
                        fmt_f64(b.words_per_cycle()),
                        b.words,
                        b.cycles
                    ));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!("# TYPE {flat} histogram\n"));
                    let mut cumulative = 0u64;
                    for (edge, count) in h.edges().iter().zip(h.counts().iter()) {
                        cumulative += count;
                        out.push_str(&format!("{flat}_bucket{{le=\"{edge}\"}} {cumulative}\n"));
                    }
                    out.push_str(&format!(
                        "{flat}_bucket{{le=\"+Inf\"}} {}\n{flat}_sum {}\n{flat}_count {}\n",
                        h.total(),
                        h.sum(),
                        h.total()
                    ));
                }
            }
        }
        out
    }

    /// Renders a schema-stable JSON object: `{"name": {"type": …, …}}`.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, metric) in &self.metrics {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n  \"{}\": ", escape_json(name)));
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{{\"type\": \"counter\", \"value\": {c}}}"));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{{\"type\": \"gauge\", \"value\": {}}}", fmt_f64(*g)));
                }
                Metric::Ratio(r) => {
                    out.push_str(&format!(
                        "{{\"type\": \"ratio\", \"num\": {}, \"den\": {}, \"value\": {}}}",
                        r.num,
                        r.den,
                        fmt_f64(r.value())
                    ));
                }
                Metric::Bandwidth(b) => {
                    out.push_str(&format!(
                        "{{\"type\": \"bandwidth\", \"words\": {}, \"cycles\": {}, \
                         \"words_per_cycle\": {}}}",
                        b.words,
                        b.cycles,
                        fmt_f64(b.words_per_cycle())
                    ));
                }
                Metric::Histogram(h) => {
                    let edges: Vec<String> = h.edges().iter().map(u64::to_string).collect();
                    let counts: Vec<String> = h.counts().iter().map(u64::to_string).collect();
                    out.push_str(&format!(
                        "{{\"type\": \"histogram\", \"edges\": [{}], \"counts\": [{}], \
                         \"sum\": {}, \"count\": {}}}",
                        edges.join(", "),
                        counts.join(", "),
                        h.sum(),
                        h.total()
                    ));
                }
            }
        }
        out.push_str("\n}");
        out
    }
}

/// Formats an `f64` deterministically for exposition: integral values
/// without a fraction, otherwise the shortest round-trip representation.
#[must_use]
pub fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Flattens a dotted hierarchical name into a Prometheus-legal one.
fn promname(name: &str) -> String {
    let mut flat: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if flat.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        flat.insert(0, '_');
    }
    format!("triarch_{flat}")
}

/// Escapes a string for inclusion in a JSON string literal.
///
/// The workspace's one JSON string escaper: every hand-rolled JSON
/// writer (metrics, Chrome traces, bench and timeline artifacts, serve
/// job keys and access-log records) calls it.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The shared hardware-counter set for one cache level: hits, misses,
/// capacity evictions, and dirty-line writebacks.
///
/// Cache models keep one of these per level and bump the plain `u64`
/// fields on their hot path (no map lookups); at run end,
/// [`CacheCounters::export`] registers the counters plus the derived
/// hit-rate ratio under a hierarchical prefix (`ppc.l1`, `ppc.l2`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Accesses that found their line resident.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines displaced by capacity/conflict replacement.
    pub evictions: u64,
    /// Evicted lines that were dirty and had to be written back.
    pub writebacks: u64,
}

impl CacheCounters {
    /// Total accesses observed.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate as an exact [`Ratio`].
    #[must_use]
    pub fn hit_rate(&self) -> Ratio {
        Ratio::new(self.hits, self.accesses())
    }

    /// Registers `{prefix}.hits`, `{prefix}.misses`, `{prefix}.evictions`,
    /// `{prefix}.writebacks`, and the `{prefix}.hit_rate` ratio.
    pub fn export(&self, report: &mut MetricsReport, prefix: &str) {
        report.counter(&format!("{prefix}.hits"), self.hits);
        report.counter(&format!("{prefix}.misses"), self.misses);
        report.counter(&format!("{prefix}.evictions"), self.evictions);
        report.counter(&format!("{prefix}.writebacks"), self.writebacks);
        report.set(&format!("{prefix}.hit_rate"), Metric::Ratio(self.hit_rate()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_bandwidth_derive() {
        assert!((Ratio::new(3, 4).value() - 0.75).abs() < 1e-12);
        assert_eq!(Ratio::new(0, 0).value(), 0.0);
        assert!((Bandwidth::new(16, 4).words_per_cycle() - 4.0).abs() < 1e-12);
        assert_eq!(Bandwidth::new(5, 0).words_per_cycle(), 0.0);
    }

    #[test]
    fn histogram_buckets_and_merge() {
        let mut h = Histogram::with_edges(&[1, 2, 4]);
        h.observe(1); // bucket 0 (<=1)
        h.observe(2); // bucket 1
        h.observe(3); // bucket 2 (<=4)
        h.observe(100); // overflow
        assert_eq!(h.counts(), &[1, 1, 1, 1]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.sum(), 106);

        let mut other = Histogram::with_edges(&[1, 2, 4]);
        other.observe(4);
        h.merge(&other).unwrap();
        assert_eq!(h.counts(), &[1, 1, 2, 1]);

        let bad = Histogram::with_edges(&[1, 2]);
        assert_eq!(h.merge(&bad), Err(MetricsError::BucketMismatch));
    }

    #[test]
    fn quantiles_interpolate_inside_the_owning_bucket() {
        assert_eq!(Histogram::cycles().quantile(0.5), 0.0, "empty histogram");

        let mut h = Histogram::with_edges(&[10, 20, 40]);
        for v in [5, 5, 15, 15, 30, 30, 30, 30] {
            h.observe(v);
        }
        // Rank 4 of 8 lands exactly on the (10, 20] bucket's upper edge.
        assert!((h.quantile(0.5) - 20.0).abs() < 1e-9, "{}", h.quantile(0.5));
        // Rank 2 exhausts the first bucket: its upper edge, interpolated
        // from lower bound 0.
        assert!((h.quantile(0.25) - 10.0).abs() < 1e-9);
        // Rank 6 is halfway through the (20, 40] bucket.
        assert!((h.quantile(0.75) - 30.0).abs() < 1e-9);
        assert_eq!(h.quantile(0.0), 0.0);
        assert!((h.quantile(1.0) - 40.0).abs() < 1e-9);

        // Overflow observations report the last edge: there is nothing
        // to interpolate toward.
        let mut h = Histogram::with_edges(&[10, 20]);
        h.observe(1000);
        assert_eq!(h.quantile(0.5), 20.0);
        // Out-of-range q is clamped, not propagated — and with every
        // observation in the overflow bucket even q=0 can only say
        // "above the last edge".
        assert_eq!(h.quantile(7.0), 20.0);
        assert_eq!(h.quantile(-1.0), 20.0);
    }

    #[test]
    fn from_parts_round_trips_the_exposition() {
        let mut h = Histogram::with_edges(&[1, 2, 4]);
        for v in [1, 3, 3, 9] {
            h.observe(v);
        }
        let rebuilt = Histogram::from_parts(h.edges(), h.counts(), h.sum()).unwrap();
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.quantile(0.5), h.quantile(0.5));

        assert!(Histogram::from_parts(&[], &[0], 0).is_none(), "empty edges");
        assert!(Histogram::from_parts(&[1, 2], &[0, 0], 0).is_none(), "missing overflow bucket");
        assert!(Histogram::from_parts(&[2, 1], &[0, 0, 0], 0).is_none(), "unsorted edges");
    }

    #[test]
    fn report_merge_is_typed() {
        let mut a = MetricsReport::new();
        a.counter("x.events", 3);
        a.ratio("x.rate", 1, 2);
        a.gauge("x.peak", 5.0);
        a.bandwidth("x.bw", 10, 5);

        let mut b = MetricsReport::new();
        b.counter("x.events", 4);
        b.ratio("x.rate", 1, 2);
        b.gauge("x.peak", 3.0);
        b.bandwidth("x.bw", 10, 15);
        b.counter("y.only", 1);

        a.merge(&b).unwrap();
        assert_eq!(a.counter_value("x.events"), Some(7));
        assert_eq!(a.get("x.rate"), Some(&Metric::Ratio(Ratio::new(2, 4))));
        assert_eq!(a.get("x.peak"), Some(&Metric::Gauge(5.0)));
        assert_eq!(a.get("x.bw"), Some(&Metric::Bandwidth(Bandwidth::new(20, 20))));
        assert_eq!(a.counter_value("y.only"), Some(1));

        let mut clash = MetricsReport::new();
        clash.gauge("x.events", 1.0);
        assert!(matches!(a.merge(&clash), Err(MetricsError::TypeMismatch { .. })));
    }

    #[test]
    fn counter_sum_by_prefix() {
        let mut r = MetricsReport::new();
        r.add_counter("viram.cycles.memory", 10);
        r.add_counter("viram.cycles.compute", 5);
        r.add_counter("viram.dram.row_misses", 99);
        assert_eq!(r.counter_sum("viram.cycles."), 15);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut r = MetricsReport::new();
        r.counter("a.count", 2);
        r.ratio("a.rate", 1, 4);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE triarch_a_count counter\ntriarch_a_count 2\n"));
        assert!(text.contains("triarch_a_rate 0.25\n"));
        assert!(text.contains("triarch_a_rate_num 1\n"));
        assert!(text.contains("triarch_a_rate_den 4\n"));
    }

    #[test]
    fn json_exposition_parses_shape() {
        let mut r = MetricsReport::new();
        r.counter("a", 1);
        r.observe("h", 3);
        let json = r.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a\": {\"type\": \"counter\", \"value\": 1}"));
        assert!(json.contains("\"type\": \"histogram\""));
    }

    #[test]
    fn cache_counters_export_shape() {
        let c = CacheCounters { hits: 6, misses: 2, evictions: 1, writebacks: 1 };
        assert_eq!(c.accesses(), 8);
        assert_eq!(c.hit_rate(), Ratio::new(6, 8));
        let mut r = MetricsReport::new();
        c.export(&mut r, "ppc.l1");
        assert_eq!(r.counter_value("ppc.l1.hits"), Some(6));
        assert_eq!(r.counter_value("ppc.l1.misses"), Some(2));
        assert_eq!(r.counter_value("ppc.l1.evictions"), Some(1));
        assert_eq!(r.counter_value("ppc.l1.writebacks"), Some(1));
        assert_eq!(r.get("ppc.l1.hit_rate"), Some(&Metric::Ratio(Ratio::new(6, 8))));
    }

    #[test]
    fn fmt_f64_stable() {
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(0.0), "0.0");
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(escape_json("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(escape_json("\t\r"), "\\t\\r");
    }
}
