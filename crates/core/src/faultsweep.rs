//! Deterministic fault-injection campaigns across the study's machines.
//!
//! A *sweep* runs every architecture × kernel pair under `campaigns`
//! fault environments derived from one seed via
//! [`FaultPlan::campaign`]. Each run is classified into the four-way
//! [`FaultOutcome`] vocabulary using the priority documented on that
//! type:
//!
//! 1. the engine aborted with a detected fault or watchdog trip →
//!    [`FaultOutcome::DetectedUncorrectable`];
//! 2. the run completed but verification failed →
//!    [`FaultOutcome::SilentDataCorruption`];
//! 3. verification passed and recovery machinery (ECC correction,
//!    retries, stall absorption) fired → [`FaultOutcome::Corrected`];
//! 4. verification passed untouched → [`FaultOutcome::Masked`].
//!
//! Because every plan is pure data and every injector decision comes
//! from the plan's seeded stream, the whole sweep is a deterministic
//! function of `(seed, campaigns, workloads)`: re-running it yields a
//! byte-identical table.

use std::fmt;

use triarch_kernels::verify::tolerance;
use triarch_kernels::{Kernel, RunCtx, WorkloadSet};
use triarch_simcore::faults::{FaultInjector, FaultOutcome, FaultPlan, FaultReport};
use triarch_simcore::SimError;

use crate::arch::{Architecture, MachineSpec};
use crate::parallel::{run_jobs, PoolStats};

/// One architecture × kernel × campaign run, classified.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The machine that ran.
    pub arch: Architecture,
    /// The kernel it ran.
    pub kernel: Kernel,
    /// Campaign index within the sweep.
    pub campaign: u64,
    /// The plan the injector executed.
    pub plan: FaultPlan,
    /// The injector's tally after the run.
    pub report: FaultReport,
    /// The four-way classification.
    pub outcome: FaultOutcome,
    /// The engine's diagnostic when the run aborted (outcome
    /// [`FaultOutcome::DetectedUncorrectable`]).
    pub abort: Option<String>,
}

/// A completed sweep: every run plus the parameters that produced it.
#[derive(Debug, Clone)]
pub struct SweepTable {
    /// Seed the campaign plans were derived from.
    pub seed: u64,
    /// Campaigns per architecture × kernel pair.
    pub campaigns: u64,
    /// All classified runs, in (architecture, kernel, campaign) order.
    pub runs: Vec<CampaignRun>,
}

impl SweepTable {
    /// Outcome counts for one architecture, in [`FaultOutcome::ALL`] order.
    #[must_use]
    pub fn counts(&self, arch: Architecture) -> [u64; 4] {
        let mut counts = [0u64; 4];
        for run in self.runs.iter().filter(|r| r.arch == arch) {
            for (slot, outcome) in counts.iter_mut().zip(FaultOutcome::ALL) {
                if run.outcome == outcome {
                    *slot += 1;
                }
            }
        }
        counts
    }

    /// Fraction of an architecture's runs that ended as `outcome`
    /// (0 when the architecture has no runs).
    #[must_use]
    pub fn rate(&self, arch: Architecture, outcome: FaultOutcome) -> f64 {
        let total: u64 = self.counts(arch).iter().sum();
        if total == 0 {
            return 0.0;
        }
        let idx = FaultOutcome::ALL.iter().position(|&o| o == outcome).unwrap_or_default();
        self.counts(arch)[idx] as f64 / total as f64
    }

    /// Silent-data-corruption rate for one architecture.
    #[must_use]
    pub fn sdc_rate(&self, arch: Architecture) -> f64 {
        self.rate(arch, FaultOutcome::SilentDataCorruption)
    }

    /// Detection rate (clean aborts) for one architecture.
    #[must_use]
    pub fn detection_rate(&self, arch: Architecture) -> f64 {
        self.rate(arch, FaultOutcome::DetectedUncorrectable)
    }

    /// Renders the per-architecture outcome-rate table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Fault sweep: seed {}, {} campaigns x {} machines x {} kernels = {} runs\n",
            self.seed,
            self.campaigns,
            Architecture::ALL.len(),
            Kernel::ALL.len(),
            self.runs.len(),
        ));
        out.push_str(&format!(
            "{:>8}  {:>9} {:>9} {:>9} {:>9}  {:>8} {:>8}\n",
            "machine", "corrected", "detected", "sdc", "masked", "sdc%", "detect%"
        ));
        for arch in Architecture::ALL {
            let [corrected, detected, sdc, masked] = self.counts(arch);
            out.push_str(&format!(
                "{:>8}  {corrected:>9} {detected:>9} {sdc:>9} {masked:>9}  {:>7.1}% {:>7.1}%\n",
                arch.name(),
                100.0 * self.sdc_rate(arch),
                100.0 * self.detection_rate(arch),
            ));
        }
        out
    }

    /// Renders one CSV row per run: stable machine-readable companion to
    /// [`Self::render`].
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "arch,kernel,campaign,outcome,injected,corrected,uncorrected_flips,\
             dropped_recovered,retries,stall_events,detected_unrecoverable\n",
        );
        for r in &self.runs {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{}\n",
                r.arch.name(),
                r.kernel.name().replace(' ', "-"),
                r.campaign,
                r.outcome.name(),
                r.report.injected,
                r.report.corrected,
                r.report.uncorrected_flips,
                r.report.dropped_recovered,
                r.report.retries,
                r.report.stall_events,
                r.report.detected_unrecoverable,
            ));
        }
        out
    }
}

impl fmt::Display for SweepTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Classifies one completed (or aborted) faulted run.
#[must_use]
fn classify(
    kernel: Kernel,
    result: &Result<triarch_simcore::KernelRun, SimError>,
    report: &FaultReport,
) -> FaultOutcome {
    match result {
        Err(_) => FaultOutcome::DetectedUncorrectable,
        Ok(run) if !run.verification.is_ok(tolerance(kernel)) => FaultOutcome::SilentDataCorruption,
        Ok(_) if report.any_recovered() => FaultOutcome::Corrected,
        Ok(_) => FaultOutcome::Masked,
    }
}

/// Runs one architecture × kernel pair under one campaign plan.
///
/// # Errors
///
/// Returns [`SimError`] only for machine-construction failures or
/// configuration/shape problems; detected faults and watchdog trips are
/// *classified*, not propagated.
pub fn campaign_run(
    arch: Architecture,
    kernel: Kernel,
    workloads: &WorkloadSet,
    seed: u64,
    campaign: u64,
) -> Result<CampaignRun, SimError> {
    let plan = FaultPlan::campaign(seed, campaign);
    let mut injector = FaultInjector::new(plan.clone());
    let ctx = RunCtx { faults: Some(&mut injector), ..RunCtx::default() };
    let result = MachineSpec::Paper(arch).run_cell(kernel, workloads, ctx);
    if let Err(e) = &result {
        if !e.is_detected_abort() {
            // A shape/config error is a sweep bug, not a fault outcome.
            return Err(e.clone());
        }
    }
    let report = *injector.report();
    let outcome = classify(kernel, &result, &report);
    let abort = result.err().map(|e| e.to_string());
    Ok(CampaignRun { arch, kernel, campaign, plan, report, outcome, abort })
}

/// Runs the full sweep — every architecture × kernel pair under
/// `campaigns` derived fault environments — on `jobs` pool workers.
///
/// Every (architecture, kernel, campaign) triple is an independent job:
/// the plan is pure data derived from `(seed, campaign)` and the
/// injector's decisions come only from that plan's seeded stream, so the
/// table is byte-identical to the serial sweep at any worker count.
///
/// # Errors
///
/// Propagates the first non-fault [`SimError`] in grid order, or
/// [`SimError::JobPanicked`] if a run panicked.
pub fn sweep_jobs(
    workloads: &WorkloadSet,
    seed: u64,
    campaigns: u64,
    jobs: usize,
) -> Result<(SweepTable, PoolStats), SimError> {
    let mut cells =
        Vec::with_capacity(Architecture::ALL.len() * Kernel::ALL.len() * campaigns as usize);
    for arch in Architecture::ALL {
        for kernel in Kernel::ALL {
            for campaign in 0..campaigns {
                cells.push((arch, kernel, campaign));
            }
        }
    }
    let (runs, stats) = run_jobs(jobs, cells, |(arch, kernel, campaign)| {
        campaign_run(arch, kernel, workloads, seed, campaign)
    })?;
    Ok((SweepTable { seed, campaigns, runs }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_for_a_seed() {
        let workloads = WorkloadSet::small(42).unwrap();
        let a = sweep_jobs(&workloads, 7, 2, 1).unwrap().0;
        let b = sweep_jobs(&workloads, 7, 2, 1).unwrap().0;
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_csv(), b.to_csv());
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_eq!(ra.outcome, rb.outcome);
            assert_eq!(ra.report, rb.report);
            assert_eq!(ra.plan, rb.plan);
        }
    }

    #[test]
    fn sweep_covers_every_pair_and_classifies_every_run() {
        let workloads = WorkloadSet::small(42).unwrap();
        let table = sweep_jobs(&workloads, 3, 2, 1).unwrap().0;
        assert_eq!(table.runs.len(), 6 * 3 * 2);
        for arch in Architecture::ALL {
            let total: u64 = table.counts(arch).iter().sum();
            assert_eq!(total, 3 * 2, "{arch}");
        }
        // Rates are well-formed.
        for arch in Architecture::ALL {
            let sum: f64 = FaultOutcome::ALL.iter().map(|&o| table.rate(arch, o)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{arch}: {sum}");
        }
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let workloads = WorkloadSet::small(42).unwrap();
        let serial = sweep_jobs(&workloads, 11, 3, 1).unwrap().0;
        let (parallel, stats) = sweep_jobs(&workloads, 11, 3, 4).unwrap();
        assert_eq!(serial.render(), parallel.render());
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(stats.jobs, serial.runs.len());
    }

    #[test]
    fn different_seeds_explore_different_environments() {
        let workloads = WorkloadSet::small(42).unwrap();
        let a = sweep_jobs(&workloads, 1, 3, 1).unwrap().0;
        let b = sweep_jobs(&workloads, 2, 3, 1).unwrap().0;
        assert_ne!(
            a.runs.iter().map(|r| r.plan.clone()).collect::<Vec<_>>(),
            b.runs.iter().map(|r| r.plan.clone()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn detected_aborts_carry_a_diagnostic() {
        let workloads = WorkloadSet::small(42).unwrap();
        let table = sweep_jobs(&workloads, 5, 4, 1).unwrap().0;
        for run in &table.runs {
            match run.outcome {
                FaultOutcome::DetectedUncorrectable => {
                    assert!(run.abort.is_some(), "{} {}", run.arch, run.kernel);
                }
                _ => assert!(run.abort.is_none(), "{} {}", run.arch, run.kernel),
            }
        }
    }

    #[test]
    fn render_lists_every_machine_row() {
        let workloads = WorkloadSet::small(42).unwrap();
        let table = sweep_jobs(&workloads, 7, 1, 1).unwrap().0;
        let text = table.render();
        for arch in Architecture::ALL {
            assert!(text.contains(arch.name()), "{text}");
        }
        assert!(text.contains("sdc%"));
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), 1 + table.runs.len());
    }
}
