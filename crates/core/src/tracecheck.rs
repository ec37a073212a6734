//! Trace-driven breakdown validation.
//!
//! The paper argues through cycle *attribution* — §4.2 explains each
//! machine's corner turn via memory time, issue occupancy, or
//! precharge overhead; §4.3–4.4 do the same for CSLC and beam steering.
//! Each simulator reports that attribution as a [`CycleBreakdown`]
//! tallied by hand inside the engine. This module provides the
//! independent check: it re-runs a machine with an
//! [`AggregateSink`] attached, folds the emitted *counted* spans back
//! into per-category totals, and compares those against the engine's own
//! tally. Agreement means the narrative percentages quoted from the
//! breakdowns are reproducible from the event stream rather than trusted
//! constants.
//!
//! [`CycleBreakdown`]: triarch_simcore::CycleBreakdown
//! [`AggregateSink`]: triarch_simcore::trace::AggregateSink

use std::fmt;

use triarch_kernels::{Kernel, RunCtx, WorkloadSet};
use triarch_simcore::trace::{AggregateSink, TraceBreakdown};
use triarch_simcore::{KernelRun, SimError};

use crate::arch::{grid, Architecture, MachineSpec};
use crate::parallel::{run_jobs, PoolStats};

/// One machine × kernel pair run with trace aggregation attached.
#[derive(Debug, Clone)]
pub struct TraceCheck {
    /// The machine that ran.
    pub arch: Architecture,
    /// The kernel it ran.
    pub kernel: Kernel,
    /// The engine's own result, including its hand-tallied breakdown.
    pub run: KernelRun,
    /// Per-category totals recovered from the counted trace spans.
    pub trace: TraceBreakdown,
}

impl TraceCheck {
    /// Largest absolute disagreement, in cycles, between the engine's
    /// breakdown and the trace-derived totals — taken over every category
    /// present on either side, plus the grand totals.
    #[must_use]
    pub fn max_drift(&self) -> u64 {
        let mut drift = self.run.cycles.get().abs_diff(self.trace.total());
        for (category, cycles) in self.run.breakdown.iter() {
            drift = drift.max(cycles.get().abs_diff(self.trace.get(category)));
        }
        for (category, cycles) in self.trace.iter() {
            drift = drift.max(cycles.abs_diff(self.run.breakdown.get(category).get()));
        }
        drift
    }

    /// [`Self::max_drift`] as a fraction of the run's total cycles
    /// (0 when the run took no cycles).
    #[must_use]
    pub fn drift_fraction(&self) -> f64 {
        let total = self.run.cycles.get();
        if total == 0 {
            0.0
        } else {
            self.max_drift() as f64 / total as f64
        }
    }

    /// Whether the trace reproduces the breakdown within `tolerance`
    /// (a fraction of total cycles, e.g. `0.01` for 1%).
    #[must_use]
    pub fn agrees_within(&self, tolerance: f64) -> bool {
        self.drift_fraction() <= tolerance
    }
}

impl fmt::Display for TraceCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>8} x {:<13} {:>12} cycles  {:>8} events  drift {} ({:.4}%)",
            self.arch.name(),
            self.kernel.name(),
            self.run.cycles.get(),
            self.trace.events_observed(),
            self.max_drift(),
            100.0 * self.drift_fraction(),
        )
    }
}

/// Runs one machine × kernel pair with an
/// [`AggregateSink`] attached.
///
/// # Errors
///
/// Propagates any [`SimError`] from machine construction or the run.
pub fn check(
    arch: Architecture,
    kernel: Kernel,
    workloads: &WorkloadSet,
) -> Result<TraceCheck, SimError> {
    let mut sink = AggregateSink::new();
    let ctx = RunCtx { sink: Some(&mut sink), ..RunCtx::default() };
    let run = MachineSpec::Paper(arch).run_cell(kernel, workloads, ctx)?;
    Ok(TraceCheck { arch, kernel, run, trace: sink.into_breakdown() })
}

/// Runs every machine × kernel pair of the study with trace aggregation.
///
/// Serial convenience wrapper over [`check_all_jobs`] with one worker.
///
/// # Errors
///
/// Propagates the first [`SimError`] from any pair.
pub fn check_all(workloads: &WorkloadSet) -> Result<Vec<TraceCheck>, SimError> {
    check_all_jobs(workloads, 1).map(|(checks, _)| checks)
}

/// Runs the validation grid on `jobs` pool workers; the returned checks
/// are in paper cell order regardless of worker count.
///
/// # Errors
///
/// Propagates the first [`SimError`] in cell order, or
/// [`SimError::JobPanicked`] if a check panicked.
pub fn check_all_jobs(
    workloads: &WorkloadSet,
    jobs: usize,
) -> Result<(Vec<TraceCheck>, PoolStats), SimError> {
    run_jobs(jobs, grid(), |(arch, kernel)| check(arch, kernel, workloads))
}

/// Renders a check table, one row per machine × kernel pair.
#[must_use]
pub fn render(checks: &[TraceCheck]) -> String {
    let mut out = String::new();
    for check in checks {
        out.push_str(&check.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_workloads_trace_losslessly() {
        let workloads = WorkloadSet::small(42).unwrap();
        for check in check_all(&workloads).unwrap() {
            assert_eq!(
                check.max_drift(),
                0,
                "{} / {}: breakdown {} vs trace {}",
                check.arch,
                check.kernel,
                check.run.breakdown,
                check.trace,
            );
            assert!(check.agrees_within(0.0));
        }
    }

    #[test]
    fn parallel_checks_match_serial_order_and_content() {
        let workloads = WorkloadSet::small(42).unwrap();
        let serial = check_all(&workloads).unwrap();
        let (parallel, stats) = check_all_jobs(&workloads, 4).unwrap();
        assert_eq!(render(&serial), render(&parallel));
        assert_eq!(stats.jobs, serial.len());
    }

    #[test]
    fn drift_detects_a_tampered_breakdown() {
        let workloads = WorkloadSet::small(42).unwrap();
        let mut check = check(Architecture::Raw, Kernel::CornerTurn, &workloads).unwrap();
        let total = check.run.cycles.get();
        check.run.breakdown.charge("issue", triarch_simcore::Cycles::new(total / 10 + 1));
        assert!(!check.agrees_within(0.01));
    }

    #[test]
    fn render_emits_one_row_per_pair() {
        let workloads = WorkloadSet::small(42).unwrap();
        let checks = vec![check(Architecture::Ppc, Kernel::Cslc, &workloads).unwrap()];
        let rendered = render(&checks);
        assert!(rendered.contains("PPC"));
        assert!(rendered.contains("drift 0"));
    }
}
