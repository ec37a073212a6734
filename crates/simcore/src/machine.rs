//! Common vocabulary for machine simulators: identity and run results.

use std::collections::BTreeMap;
use std::fmt;

use triarch_metrics::MetricsReport;

use crate::cycles::{ClockFrequency, Cycles};
use crate::model::ThroughputModel;
use crate::stats::CycleBreakdown;

/// Static description of a simulated machine (paper Table 2 row).
#[derive(Debug, Clone)]
pub struct MachineInfo {
    /// Short display name, e.g. `"VIRAM"`.
    pub name: &'static str,
    /// Core clock frequency.
    pub clock: ClockFrequency,
    /// Number of (32-bit) ALUs counted the way the paper's Table 2 does.
    pub alu_count: u32,
    /// Peak single-precision GFLOPS.
    pub peak_gflops: f64,
    /// Peak-throughput roofline (paper Table 1).
    pub throughput: ThroughputModel,
}

impl fmt::Display for MachineInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} ALUs, {:.2} peak GFLOPS)",
            self.name, self.clock, self.alu_count, self.peak_gflops
        )
    }
}

/// How a kernel's output was checked against the reference implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verification {
    /// Output words are bit-identical to the reference.
    BitExact,
    /// Floating-point output matched within the given max absolute error.
    MaxError(f32),
    /// The run produced no checkable output (should not normally occur).
    Unchecked,
}

impl Verification {
    /// Whether the output is acceptable under `tolerance`.
    #[must_use]
    pub fn is_ok(&self, tolerance: f32) -> bool {
        match self {
            Verification::BitExact => true,
            Verification::MaxError(e) => *e <= tolerance,
            Verification::Unchecked => false,
        }
    }
}

/// The result of running one kernel on one simulated machine.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Total simulated cycles.
    pub cycles: Cycles,
    /// Attribution of those cycles to causes.
    pub breakdown: CycleBreakdown,
    /// 32-bit ALU operations the kernel actually executed.
    pub ops_executed: u64,
    /// Words moved across the machine's performance-limiting memory level.
    pub mem_words: u64,
    /// Output correctness versus the reference kernel.
    pub verification: Verification,
    /// Hardware-counter observability: rates and utilizations the
    /// breakdown cannot express (cache hit rates, DRAM row misses,
    /// network traffic, achieved bandwidth).  Always present; engines
    /// populate it from counters they maintain anyway, so the cost is a
    /// handful of map inserts per run.
    pub metrics: MetricsReport,
}

impl KernelRun {
    /// Sustained operations per cycle achieved by this run.
    #[must_use]
    pub fn ops_per_cycle(&self) -> f64 {
        if self.cycles == Cycles::ZERO {
            return 0.0;
        }
        self.ops_executed as f64 / self.cycles.get() as f64
    }

    /// Fraction of `peak_ops_per_cycle` this run sustained.
    #[must_use]
    pub fn utilization(&self, peak_ops_per_cycle: f64) -> f64 {
        if peak_ops_per_cycle <= 0.0 {
            return 0.0;
        }
        self.ops_per_cycle() / peak_ops_per_cycle
    }

    /// The workspace's one attribution conservation check: the largest
    /// absolute disagreement, in cycles, between this run and
    /// independently observed per-category totals.
    ///
    /// `observed` may repeat a category (a fold's `(category, name)`
    /// leaves pass straight in); repeats are summed. The result is the
    /// maximum of `|cycles - Σ observed|` and, for every category on
    /// either side, `|breakdown[c] - Σ observed[c]|` — so an observed
    /// category the breakdown lacks counts as drift too. Exactly 0 under
    /// the counted-span contract.
    ///
    /// ```
    /// use triarch_simcore::metrics::MetricsReport;
    /// use triarch_simcore::{CycleBreakdown, Cycles, KernelRun, Verification};
    ///
    /// let mut breakdown = CycleBreakdown::new();
    /// breakdown.charge("memory", Cycles::new(90));
    /// breakdown.charge("compute", Cycles::new(10));
    /// let run = KernelRun {
    ///     cycles: breakdown.total(),
    ///     breakdown,
    ///     ops_executed: 0,
    ///     mem_words: 0,
    ///     verification: Verification::Unchecked,
    ///     metrics: MetricsReport::new(),
    /// };
    /// assert_eq!(run.breakdown_drift([("memory", 60), ("compute", 10), ("memory", 30)]), 0);
    /// // Cycles moved between categories keep the total but still drift.
    /// assert_eq!(run.breakdown_drift([("memory", 80), ("compute", 20)]), 10);
    /// ```
    #[must_use]
    pub fn breakdown_drift<'a>(&self, observed: impl IntoIterator<Item = (&'a str, u64)>) -> u64 {
        let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
        for (category, cycles) in observed {
            *sums.entry(category).or_insert(0) += cycles;
        }
        let mut drift = self.cycles.get().abs_diff(sums.values().sum());
        for (category, cycles) in self.breakdown.iter() {
            drift = drift.max(cycles.get().abs_diff(sums.remove(category).unwrap_or(0)));
        }
        sums.into_values().fold(drift, u64::max)
    }
}

impl fmt::Display for KernelRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles: {} ({:.0} kcycles)", self.cycles, self.cycles.to_kilocycles())?;
        writeln!(f, "ops: {}  mem words: {}", self.ops_executed, self.mem_words)?;
        writeln!(f, "verification: {:?}", self.verification)?;
        write!(f, "{}", self.breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> KernelRun {
        let mut breakdown = CycleBreakdown::new();
        breakdown.charge("memory", Cycles::new(870));
        breakdown.charge("compute", Cycles::new(130));
        KernelRun {
            cycles: Cycles::new(1_000),
            breakdown,
            ops_executed: 4_800,
            mem_words: 2_000,
            verification: Verification::MaxError(1e-4),
            metrics: MetricsReport::new(),
        }
    }

    #[test]
    fn ops_per_cycle_and_utilization() {
        let run = sample_run();
        assert_eq!(run.ops_per_cycle(), 4.8);
        assert!((run.utilization(48.0) - 0.1).abs() < 1e-12);
        assert_eq!(run.utilization(0.0), 0.0);
    }

    #[test]
    fn breakdown_drift_detects_each_kind_of_tampering() {
        let run = sample_run();
        let faithful = [("memory", 800), ("compute", 130), ("memory", 70)];
        assert_eq!(run.breakdown_drift(faithful), 0);

        // A category tampered by k cycles drifts by at least k.
        let mut tampered = run.clone();
        tampered.breakdown.charge("compute", Cycles::new(25));
        assert!(tampered.breakdown_drift(faithful) >= 25);

        // An observed category the breakdown lacks is drift, even when
        // the totals still agree.
        let renamed = [("memory", 870), ("dma", 130)];
        assert_eq!(run.breakdown_drift(renamed), 130);

        // A mismatch in the total alone is drift.
        let mut short = run.clone();
        short.cycles = Cycles::new(1_007);
        assert_eq!(short.breakdown_drift(faithful), 7);
    }

    #[test]
    fn zero_cycle_run_has_zero_throughput() {
        let mut run = sample_run();
        run.cycles = Cycles::ZERO;
        assert_eq!(run.ops_per_cycle(), 0.0);
    }

    #[test]
    fn verification_tolerance() {
        assert!(Verification::BitExact.is_ok(0.0));
        assert!(Verification::MaxError(1e-5).is_ok(1e-4));
        assert!(!Verification::MaxError(1e-3).is_ok(1e-4));
        assert!(!Verification::Unchecked.is_ok(1.0));
    }

    #[test]
    fn display_contains_key_fields() {
        let run = sample_run();
        let s = run.to_string();
        assert!(s.contains("kcycles"));
        assert!(s.contains("memory"));
        let info = MachineInfo {
            name: "Imagine",
            clock: ClockFrequency::from_mhz(300.0),
            alu_count: 48,
            peak_gflops: 14.4,
            throughput: ThroughputModel::imagine(),
        };
        assert!(info.to_string().contains("Imagine"));
        assert!(info.to_string().contains("48 ALUs"));
    }
}
