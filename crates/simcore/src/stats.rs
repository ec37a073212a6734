//! Attribution of simulated cycles to named causes.

use std::collections::BTreeMap;
use std::fmt;

use crate::cycles::Cycles;

/// A named breakdown of where simulated cycles went.
///
/// The paper's Section 4 analysis quotes percentage attributions such as
/// "87% of the cycles in the Imagine corner turn are due to memory
/// transfers"; every simulator in this workspace produces a
/// `CycleBreakdown` so those numbers can be regenerated.
///
/// Categories are free-form strings; the well-known ones used across the
/// workspace are `"memory"`, `"compute"`, `"startup"`, `"overhead"`,
/// `"precharge"`, `"network"`, `"load-store"`, `"stall"`, and `"idle"`.
///
/// # Example
///
/// ```
/// use triarch_simcore::{CycleBreakdown, Cycles};
///
/// let mut b = CycleBreakdown::new();
/// b.charge("memory", Cycles::new(870));
/// b.charge("compute", Cycles::new(130));
/// assert_eq!(b.total(), Cycles::new(1_000));
/// assert!((b.fraction("memory") - 0.87).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    entries: BTreeMap<String, Cycles>,
}

impl CycleBreakdown {
    /// Creates an empty breakdown.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` to `category`, creating the category if needed.
    pub fn charge(&mut self, category: impl Into<String>, cycles: Cycles) {
        let entry = self.entries.entry(category.into()).or_insert(Cycles::ZERO);
        *entry += cycles;
    }

    /// Returns the cycles charged to `category` (zero if absent).
    #[must_use]
    pub fn get(&self, category: &str) -> Cycles {
        self.entries.get(category).copied().unwrap_or(Cycles::ZERO)
    }

    /// Total cycles across all categories.
    #[must_use]
    pub fn total(&self) -> Cycles {
        self.entries.values().copied().sum()
    }

    /// Fraction of the total charged to `category`.
    ///
    /// Returns 0.0 when the breakdown is empty.
    #[must_use]
    pub fn fraction(&self, category: &str) -> f64 {
        let total = self.total();
        if total == Cycles::ZERO {
            return 0.0;
        }
        self.get(category).ratio(total)
    }

    /// Iterates over `(category, cycles)` pairs in category order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Cycles)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another breakdown into this one, summing shared categories.
    pub fn merge(&mut self, other: &CycleBreakdown) {
        for (k, v) in other.iter() {
            self.charge(k, v);
        }
    }

    /// Number of distinct categories.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no cycles have been charged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An allocation-free accumulation ledger for engine hot paths.
///
/// Engines charge cycles at event granularity — often millions of calls
/// per run — where [`CycleBreakdown::charge`] is the wrong tool: it
/// allocates a `String` per call and walks a `BTreeMap`, and
/// [`CycleBreakdown::total`] re-sums every category each time an engine
/// needs its span cursor. `CycleLedger` is the batched fast path used by
/// ROADMAP item 2's NullSink optimization: `&'static str` categories in
/// an insertion-ordered `Vec` (engines charge a handful of distinct
/// categories, so linear find beats a tree), plus a running total read in
/// O(1).
///
/// Convert to a [`CycleBreakdown`] once, when the run ends
/// ([`RunAccount::finish`](crate::RunAccount::finish)):
///
/// ```
/// use triarch_simcore::{CycleLedger, Cycles};
///
/// let mut ledger = CycleLedger::new();
/// ledger.charge("memory", Cycles::new(870));
/// ledger.charge("compute", Cycles::new(130));
/// ledger.charge("memory", Cycles::new(30));
/// assert_eq!(ledger.total(), Cycles::new(1_030));
/// assert_eq!(ledger.into_breakdown().get("memory"), Cycles::new(900));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleLedger {
    entries: Vec<(&'static str, Cycles)>,
    total: Cycles,
}

impl CycleLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` to `category`, creating the category if needed.
    #[inline]
    pub fn charge(&mut self, category: &'static str, cycles: Cycles) {
        self.total += cycles;
        if let Some(entry) = self.entries.iter_mut().find(|(name, _)| *name == category) {
            entry.1 += cycles;
        } else {
            self.entries.push((category, cycles));
        }
    }

    /// Total cycles across all categories — O(1), maintained on charge.
    #[inline]
    #[must_use]
    pub fn total(&self) -> Cycles {
        self.total
    }

    /// Iterates `(category, cycles)` pairs in first-charge order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Cycles)> + '_ {
        self.entries.iter().copied()
    }

    /// Empties the ledger and keeps its storage, so a ledger reused for
    /// many short intervals allocates once.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.total = Cycles::ZERO;
    }

    /// Converts into the sorted [`CycleBreakdown`] a run reports.
    #[must_use]
    pub fn into_breakdown(self) -> CycleBreakdown {
        self.entries.into_iter().collect()
    }

    /// Where the entries are stored, for tests that check storage is kept.
    #[cfg(test)]
    pub(crate) fn storage(&self) -> *const (&'static str, Cycles) {
        self.entries.as_ptr()
    }
}

impl fmt::Display for CycleBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        if self.entries.is_empty() {
            return write!(f, "(empty breakdown)");
        }
        for (k, v) in self.entries.iter() {
            let pct = if total == Cycles::ZERO { 0.0 } else { 100.0 * v.ratio(total) };
            writeln!(f, "  {k:<14} {v:>14}  ({pct:5.1}%)")?;
        }
        write!(f, "  {:<14} {:>14}", "total", total)
    }
}

impl<S: Into<String>> FromIterator<(S, Cycles)> for CycleBreakdown {
    fn from_iter<I: IntoIterator<Item = (S, Cycles)>>(iter: I) -> Self {
        let mut b = CycleBreakdown::new();
        for (k, v) in iter {
            b.charge(k, v);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut b = CycleBreakdown::new();
        b.charge("memory", Cycles::new(10));
        b.charge("memory", Cycles::new(5));
        assert_eq!(b.get("memory"), Cycles::new(15));
        assert_eq!(b.get("missing"), Cycles::ZERO);
    }

    #[test]
    fn fraction_of_empty_is_zero() {
        let b = CycleBreakdown::new();
        assert_eq!(b.fraction("anything"), 0.0);
        assert!(b.is_empty());
    }

    #[test]
    fn merge_sums_categories() {
        let mut a: CycleBreakdown =
            [("memory", Cycles::new(10)), ("compute", Cycles::new(2))].into_iter().collect();
        let b: CycleBreakdown =
            [("memory", Cycles::new(1)), ("startup", Cycles::new(3))].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.get("memory"), Cycles::new(11));
        assert_eq!(a.get("startup"), Cycles::new(3));
        assert_eq!(a.total(), Cycles::new(16));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn display_includes_percentages() {
        let mut b = CycleBreakdown::new();
        b.charge("memory", Cycles::new(87));
        b.charge("compute", Cycles::new(13));
        let s = b.to_string();
        assert!(s.contains("memory"));
        assert!(s.contains("87.0%"));
        assert!(s.contains("total"));
    }

    #[test]
    fn ledger_matches_breakdown_with_constant_time_total() {
        let mut ledger = CycleLedger::new();
        let mut breakdown = CycleBreakdown::new();
        for (category, cycles) in
            [("memory", 10), ("compute", 3), ("memory", 7), ("ecc", 1), ("compute", 4)]
        {
            ledger.charge(category, Cycles::new(cycles));
            breakdown.charge(category, Cycles::new(cycles));
        }
        assert_eq!(ledger.total(), breakdown.total());
        assert_eq!(breakdown.get("memory"), Cycles::new(17));
        assert_eq!(ledger.clone().into_breakdown(), breakdown);
        // Iteration preserves first-charge order (overlap replay relies
        // on it), while the converted breakdown is category-sorted.
        let order: Vec<&str> = ledger.iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec!["memory", "compute", "ecc"]);
        ledger.clear();
        assert_eq!(ledger, CycleLedger::new());
    }

    #[test]
    fn empty_ledger_is_total_zero() {
        let ledger = CycleLedger::new();
        assert_eq!(ledger.iter().count(), 0);
        assert_eq!(ledger.total(), Cycles::ZERO);
        assert!(ledger.into_breakdown().is_empty());
    }

    #[test]
    fn iter_is_sorted_by_category() {
        let b: CycleBreakdown =
            [("z", Cycles::new(1)), ("a", Cycles::new(2))].into_iter().collect();
        let keys: Vec<&str> = b.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "z"]);
    }
}
