//! The differential profiler: cell-by-cell, category-by-category
//! comparison of two attribution artifacts.
//!
//! A profile here is a list of [`CellProfile`]s — one per arch × kernel
//! cell, each carrying its total cycles plus a breakdown-category map.
//! [`ProfileDiff::compute`] matches cells by `arch/kernel` label and
//! reports, for every changed cell, the absolute and relative cycle
//! delta plus every category that moved, sorted worst-regression-first.
//! [`ProfileDiff::render`] adds a one-line narrative per changed cell
//! ("top movers: dram-port +1,200 (+3.1%)"). The CI perf gate fails on
//! any non-empty diff and prints [`ProfileDiff::render`], so a failure
//! names every category that moved instead of a bare cycle mismatch.
//!
//! The diff is pure data → data: deterministic, allocation-light, and
//! empty exactly when the artifacts agree (`profdiff(A, A)` is empty
//! for every artifact — a property test pins this).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One arch × kernel cell of an attribution artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellProfile {
    /// Architecture display name, e.g. `"VIRAM"`.
    pub arch: String,
    /// Kernel display name, e.g. `"Corner Turn"`.
    pub kernel: String,
    /// Total cycles reported for the cell.
    pub cycles: u64,
    /// Per-breakdown-category cycles (name → cycles).
    pub categories: BTreeMap<String, u64>,
}

impl CellProfile {
    /// The `arch/kernel` label cells are matched by.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{}", self.arch, self.kernel)
    }
}

/// One category's movement inside a changed cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoryDelta {
    /// Category name.
    pub name: String,
    /// Cycles in the baseline (`a`) artifact.
    pub a: u64,
    /// Cycles in the fresh (`b`) artifact.
    pub b: u64,
}

impl CategoryDelta {
    /// Signed cycle delta, `b - a`.
    #[must_use]
    pub fn delta(&self) -> i128 {
        i128::from(self.b) - i128::from(self.a)
    }

    /// `+cycles (+pct%)` rendering of the movement.
    #[must_use]
    pub fn describe(&self) -> String {
        describe_delta(self.a, self.b)
    }
}

/// One changed cell: total movement plus every moved category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellDelta {
    /// `arch/kernel` label.
    pub label: String,
    /// Baseline total cycles.
    pub cycles_a: u64,
    /// Fresh total cycles.
    pub cycles_b: u64,
    /// Categories whose cycles differ, sorted by descending regression
    /// (largest positive delta first), ties by name.
    pub categories: Vec<CategoryDelta>,
}

impl CellDelta {
    /// Signed total-cycle delta, `b - a`.
    #[must_use]
    pub fn cycles_delta(&self) -> i128 {
        i128::from(self.cycles_b) - i128::from(self.cycles_a)
    }

    /// The `n` worst-regressed categories (positive delta only), in
    /// descending delta order.
    #[must_use]
    pub fn top_regressed(&self, n: usize) -> Vec<&CategoryDelta> {
        self.categories.iter().filter(|c| c.delta() > 0).take(n).collect()
    }

    /// One-line narrative: total movement plus the top movers.
    #[must_use]
    pub fn narrative(&self) -> String {
        let mut line = format!(
            "{}: cycles {} -> {} ({})",
            self.label,
            fmt_sep(self.cycles_a),
            fmt_sep(self.cycles_b),
            describe_delta(self.cycles_a, self.cycles_b),
        );
        let regressed = self.top_regressed(3);
        if regressed.is_empty() {
            // Pure improvement (or category-only reshuffle downward):
            // name the biggest dropper instead.
            if let Some(best) = self.categories.first() {
                let _ = write!(line, "; biggest drop: {} {}", best.name, best.describe());
            }
        } else {
            let movers: Vec<String> =
                regressed.iter().map(|c| format!("{} {}", c.name, c.describe())).collect();
            let _ = write!(line, "; top movers: {}", movers.join(", "));
        }
        line
    }
}

/// The full diff between two attribution artifacts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileDiff {
    /// Changed cells, sorted by label.
    pub cells: Vec<CellDelta>,
    /// Cell labels present only in the baseline artifact.
    pub only_in_a: Vec<String>,
    /// Cell labels present only in the fresh artifact.
    pub only_in_b: Vec<String>,
    /// Number of cell labels present in both artifacts.
    pub matched: usize,
}

impl ProfileDiff {
    /// Diffs fresh (`b`) against baseline (`a`).
    #[must_use]
    pub fn compute(a: &[CellProfile], b: &[CellProfile]) -> ProfileDiff {
        let index = |cells: &'_ [CellProfile]| -> BTreeMap<String, usize> {
            cells.iter().enumerate().map(|(i, c)| (c.label(), i)).collect()
        };
        let ia = index(a);
        let ib = index(b);

        let mut diff = ProfileDiff::default();
        for label in ia.keys() {
            if !ib.contains_key(label) {
                diff.only_in_a.push(label.clone());
            }
        }
        for (label, &j) in &ib {
            let Some(&i) = ia.get(label) else {
                diff.only_in_b.push(label.clone());
                continue;
            };
            diff.matched += 1;
            let (ca, cb) = (&a[i], &b[j]);
            let mut categories: Vec<CategoryDelta> = Vec::new();
            let names: std::collections::BTreeSet<&String> =
                ca.categories.keys().chain(cb.categories.keys()).collect();
            for name in names {
                let va = ca.categories.get(name).copied().unwrap_or(0);
                let vb = cb.categories.get(name).copied().unwrap_or(0);
                if va != vb {
                    categories.push(CategoryDelta { name: name.clone(), a: va, b: vb });
                }
            }
            if ca.cycles != cb.cycles || !categories.is_empty() {
                // Worst regression first; ties broken by name for
                // deterministic output.
                categories
                    .sort_by(|x, y| y.delta().cmp(&x.delta()).then_with(|| x.name.cmp(&y.name)));
                diff.cells.push(CellDelta {
                    label: label.clone(),
                    cycles_a: ca.cycles,
                    cycles_b: cb.cycles,
                    categories,
                });
            }
        }
        diff
    }

    /// Whether the two artifacts agree exactly (no changed cells, no
    /// unmatched cells).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty() && self.only_in_a.is_empty() && self.only_in_b.is_empty()
    }

    /// Looks up a changed cell by its `arch/kernel` label.
    #[must_use]
    pub fn cell(&self, label: &str) -> Option<&CellDelta> {
        self.cells.iter().find(|c| c.label == label)
    }

    /// The human-readable diff report: a summary line, one narrative
    /// per changed cell with its per-category table, and any unmatched
    /// cell labels.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            let _ = writeln!(out, "profdiff: no differences ({} cells compared)", self.matched);
            return out;
        }
        let _ = writeln!(
            out,
            "profdiff: {} of {} matched cells changed",
            self.cells.len(),
            self.matched,
        );
        for cell in &self.cells {
            let _ = writeln!(out, "  {}", cell.narrative());
            for cat in &cell.categories {
                let _ = writeln!(
                    out,
                    "    {:<24} {:>16} -> {:>16}  {}",
                    cat.name,
                    fmt_sep(cat.a),
                    fmt_sep(cat.b),
                    cat.describe(),
                );
            }
        }
        for label in &self.only_in_a {
            let _ = writeln!(out, "  only in baseline: {label}");
        }
        for label in &self.only_in_b {
            let _ = writeln!(out, "  only in fresh: {label}");
        }
        out
    }
}

/// `+delta (+pct%)` for a `a -> b` movement; `(new)` when the baseline
/// had nothing to take a percentage of.
fn describe_delta(a: u64, b: u64) -> String {
    let delta = i128::from(b) - i128::from(a);
    let sign = if delta >= 0 { "+" } else { "-" };
    let abs = delta.unsigned_abs();
    if a == 0 {
        format!("{sign}{} (new)", fmt_sep_u128(abs))
    } else {
        let pct = 100.0 * delta as f64 / a as f64;
        format!("{sign}{} ({pct:+.2}%)", fmt_sep_u128(abs))
    }
}

/// Thousands-separated rendering of a cycle count.
pub(crate) fn fmt_sep(v: u64) -> String {
    fmt_sep_u128(u128::from(v))
}

pub(crate) fn fmt_sep_u128(v: u128) -> String {
    let digits = v.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    let first = digits.len() % 3;
    for (i, c) in digits.chars().enumerate() {
        if i != 0 && (i + 3 - first).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(arch: &str, kernel: &str, cycles: u64, cats: &[(&str, u64)]) -> CellProfile {
        CellProfile {
            arch: arch.to_string(),
            kernel: kernel.to_string(),
            cycles,
            categories: cats.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn self_diff_is_empty() {
        let a = vec![
            cell("PPC", "CSLC", 100, &[("memory", 60), ("issue", 40)]),
            cell("Raw", "CSLC", 50, &[("dram-port", 50)]),
        ];
        let d = ProfileDiff::compute(&a, &a);
        assert!(d.is_empty());
        assert_eq!(d.matched, 2);
        assert!(d.render().contains("no differences (2 cells compared)"));
    }

    #[test]
    fn regression_is_named_and_sorted() {
        let a = vec![cell("PPC", "CSLC", 100, &[("memory", 60), ("issue", 40)])];
        let b = vec![cell("PPC", "CSLC", 130, &[("memory", 85), ("issue", 45)])];
        let d = ProfileDiff::compute(&a, &b);
        assert!(!d.is_empty());
        let c = d.cell("PPC/CSLC").unwrap();
        assert_eq!(c.cycles_delta(), 30);
        let top = c.top_regressed(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].name, "memory");
        assert_eq!(top[0].delta(), 25);
        let text = d.render();
        assert!(text.contains("cycles 100 -> 130 (+30 (+30.00%))"), "{text}");
        assert!(text.contains("top movers: memory +25 (+41.67%)"), "{text}");
    }

    #[test]
    fn improvement_names_biggest_drop() {
        let a = vec![cell("Raw", "CSLC", 100, &[("dram-port", 100)])];
        let b = vec![cell("Raw", "CSLC", 80, &[("dram-port", 80)])];
        let d = ProfileDiff::compute(&a, &b);
        let c = d.cell("Raw/CSLC").unwrap();
        assert!(c.top_regressed(3).is_empty());
        assert!(c.narrative().contains("biggest drop: dram-port -20 (-20.00%)"));
    }

    #[test]
    fn new_and_vanished_categories_diff() {
        let a = vec![cell("A", "K", 10, &[("x", 10)])];
        let b = vec![cell("A", "K", 10, &[("y", 10)])];
        let d = ProfileDiff::compute(&a, &b);
        let c = d.cell("A/K").unwrap();
        assert_eq!(c.categories.len(), 2);
        // y regressed (+10, new), x dropped (-10).
        assert_eq!(c.categories[0].name, "y");
        assert!(c.categories[0].describe().contains("(new)"));
        assert_eq!(c.categories[1].name, "x");
    }

    #[test]
    fn unmatched_cells_are_reported() {
        let a = vec![cell("A", "K", 1, &[]), cell("B", "K", 1, &[])];
        let b = vec![cell("A", "K", 1, &[]), cell("C", "K", 1, &[])];
        let d = ProfileDiff::compute(&a, &b);
        assert!(!d.is_empty());
        assert_eq!(d.only_in_a, vec![String::from("B/K")]);
        assert_eq!(d.only_in_b, vec![String::from("C/K")]);
        assert_eq!(d.matched, 1);
        let text = d.render();
        assert!(text.contains("only in baseline: B/K"));
        assert!(text.contains("only in fresh: C/K"));
    }

    #[test]
    fn thousands_separators() {
        assert_eq!(fmt_sep(0), "0");
        assert_eq!(fmt_sep(999), "999");
        assert_eq!(fmt_sep(1000), "1,000");
        assert_eq!(fmt_sep(34_655_418), "34,655,418");
    }
}
