//! Roofline utilization scorecard — achieved rates versus the paper's
//! Table 1 peaks and Table 4 model predictions.
//!
//! The Section 2.5 performance model ([`ThroughputModel`]) predicts a
//! *lower bound* on execution cycles: the largest of three terms (on-chip
//! words / peak on-chip rate, off-chip words / peak off-chip rate, ops /
//! peak compute rate).  This module inverts that model into per-resource
//! *utilizations*: each term divided by the cell's measured cycles.
//! Because the prediction is a lower bound, every utilization is
//! mechanically ≤ 100% for a correctly calibrated simulator — a cell
//! above 100% means the simulator beat the machine's physical peak, which
//! the scorecard reports as a `FAIL`.
//!
//! The scorecard also checks the paper's qualitative story mechanically
//! ([`Scorecard::ordering_violations`]):
//!
//! 1. **Corner turn is the bandwidth-bound kernel**: on every machine its
//!    limiting resource is a memory level, never compute (it executes
//!    zero ALU ops — it is pure data movement).
//! 2. **Corner turn stresses DRAM harder than the FFT kernel**: its DRAM
//!    utilization (off-chip for Imagine/Raw/PPC, on-chip for VIRAM whose
//!    DRAM *is* the on-chip level) is at least CSLC's on every machine —
//!    CSLC is the compute/occupancy-limited kernel in Section 4.3.
//!
//! (Beam steering is deliberately excluded from the comparison: the
//! paper classes it as memory-intensive too, and on VIRAM and Imagine
//! its dense unit-stride streams sustain a *higher* fraction of peak
//! DRAM bandwidth than the strided corner turn — the corner turn is
//! bandwidth-*bound*, not bandwidth-*optimal*.)
//!
//! [`ThroughputModel`]: triarch_simcore::ThroughputModel

use std::fmt;

use triarch_kernels::{Kernel, WorkloadSet};
use triarch_simcore::metrics::MetricsReport;
use triarch_simcore::{Cycles, SimError};

use crate::arch::Architecture;
use crate::experiments::{model_demands, Table3};
use crate::report::TextTable;

/// The three roofline resources a kernel can saturate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// The on-chip memory interface (VIRAM DRAM, Imagine SRF, Raw caches).
    OnchipMemory,
    /// The off-chip DRAM interface.
    OffchipMemory,
    /// The ALUs.
    Compute,
}

impl Resource {
    /// Short display name used in the scorecard's `limit` column.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Resource::OnchipMemory => "onchip",
            Resource::OffchipMemory => "offchip",
            Resource::Compute => "compute",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Utilization of one (machine, kernel) cell against its roofline peaks.
#[derive(Debug, Clone)]
pub struct CellUtilization {
    /// The machine row.
    pub arch: Architecture,
    /// The kernel column.
    pub kernel: Kernel,
    /// Measured cycles from Table 3.
    pub actual: Cycles,
    /// The Section 2.5 model's lower bound (Table 4).
    pub predicted: Cycles,
    /// On-chip memory term over measured cycles (0..=1 when calibrated).
    pub onchip_util: f64,
    /// Off-chip memory term over measured cycles.
    pub offchip_util: f64,
    /// Compute term over measured cycles.
    pub compute_util: f64,
    /// Predicted over measured — how close the run came to its roofline.
    pub bound_util: f64,
    /// Measured achieved GFLOP/s (executed ops over wall time at the
    /// machine's Table 2 clock).
    pub achieved_gflops: f64,
    /// Measured achieved GB/s across the performance-limiting memory
    /// level (4-byte words).
    pub achieved_gbytes: f64,
    /// Which roofline term binds this cell.
    pub limiter: Resource,
}

impl CellUtilization {
    /// Whether every utilization respects the encoded peaks.
    ///
    /// A run can never legitimately finish faster than the model's lower
    /// bound, so all four ratios must land in `(0, 1]`.
    #[must_use]
    pub fn pass(&self) -> bool {
        let ratios = [self.onchip_util, self.offchip_util, self.compute_util, self.bound_util];
        self.bound_util > 0.0 && ratios.iter().all(|r| *r <= 1.0)
    }

    /// The DRAM utilization of this cell: the off-chip term everywhere
    /// except VIRAM, whose DRAM *is* the on-chip level (PIM).
    #[must_use]
    pub fn dram_util(&self) -> f64 {
        if self.arch == Architecture::Viram {
            self.onchip_util
        } else {
            self.offchip_util
        }
    }

    /// Coarse efficiency band derived from the bound utilization.
    #[must_use]
    pub fn band(&self) -> &'static str {
        if !self.pass() {
            "FAIL"
        } else if self.bound_util >= 0.75 {
            "tight"
        } else if self.bound_util >= 0.25 {
            "good"
        } else {
            "slack"
        }
    }

    /// Folds the roofline numbers into a cell's metrics report under the
    /// `roofline.` prefix, so the `metrics`/`bench` exporters carry them
    /// alongside the hardware counters.
    pub fn export_metrics(&self, report: &mut MetricsReport) {
        report.counter("roofline.predicted_cycles", self.predicted.get());
        report.gauge("roofline.util.onchip", self.onchip_util);
        report.gauge("roofline.util.offchip", self.offchip_util);
        report.gauge("roofline.util.compute", self.compute_util);
        report.gauge("roofline.util.bound", self.bound_util);
        report.gauge("roofline.achieved.gflops", self.achieved_gflops);
        report.gauge("roofline.achieved.gbytes_per_s", self.achieved_gbytes);
    }
}

/// The full 18-cell utilization scorecard.
#[derive(Debug, Clone)]
pub struct Scorecard {
    cells: Vec<CellUtilization>,
}

impl Scorecard {
    /// Computes the scorecard from a measured [`Table3`] and the workload
    /// set it was produced with.
    ///
    /// # Errors
    ///
    /// Propagates model errors (none occur for the built-in machines).
    pub fn compute(table3: &Table3, workloads: &WorkloadSet) -> Result<Scorecard, SimError> {
        let mut cells = Vec::with_capacity(Architecture::ALL.len() * Kernel::ALL.len());
        for (arch, kernel, run) in table3.iter() {
            let machine = arch.machine()?;
            let info = machine.info();
            let model = info.throughput;
            let demands = model_demands(arch, kernel, workloads);
            let predicted = model.predict(&demands)?;
            let actual = run.cycles;
            let actual_f = actual.get() as f64;
            let t_on = demands.onchip_words as f64 / model.onchip_words_per_cycle;
            let t_off = demands.offchip_words as f64 / model.offchip_words_per_cycle;
            let t_ops = demands.ops as f64 / model.ops_per_cycle;
            let limiter = if t_ops >= t_on && t_ops >= t_off {
                Resource::Compute
            } else if t_on >= t_off {
                Resource::OnchipMemory
            } else {
                Resource::OffchipMemory
            };
            let seconds = info.clock.cycles_to_seconds(actual);
            let (onchip_util, offchip_util, compute_util, bound_util) = if actual_f > 0.0 {
                (
                    t_on / actual_f,
                    t_off / actual_f,
                    t_ops / actual_f,
                    predicted.get() as f64 / actual_f,
                )
            } else {
                (0.0, 0.0, 0.0, 0.0)
            };
            let (achieved_gflops, achieved_gbytes) = if seconds > 0.0 {
                (
                    run.ops_executed as f64 / seconds / 1e9,
                    run.mem_words as f64 * 4.0 / seconds / 1e9,
                )
            } else {
                (0.0, 0.0)
            };
            cells.push(CellUtilization {
                arch,
                kernel,
                actual,
                predicted,
                onchip_util,
                offchip_util,
                compute_util,
                bound_util,
                achieved_gflops,
                achieved_gbytes,
                limiter,
            });
        }
        Ok(Scorecard { cells })
    }

    /// The utilization record for one cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is missing (cannot happen for values produced
    /// by [`Scorecard::compute`]).
    #[must_use]
    pub fn cell(&self, arch: Architecture, kernel: Kernel) -> &CellUtilization {
        self.cells
            .iter()
            .find(|c| c.arch == arch && c.kernel == kernel)
            .expect("scorecard holds every (machine, kernel) cell")
    }

    /// Iterates over all cells in paper order.
    pub fn iter(&self) -> impl Iterator<Item = &CellUtilization> {
        self.cells.iter()
    }

    /// Whether every cell respects its encoded peaks.
    #[must_use]
    pub fn all_within_roofline(&self) -> bool {
        self.cells.iter().all(CellUtilization::pass)
    }

    /// Mechanical check of the paper's qualitative ordering (see the
    /// module docs): corner turn must be memory-bound on every machine,
    /// and its DRAM utilization must be at least CSLC's.  Returns a
    /// human-readable description per violated cell (empty when the
    /// ordering holds).
    #[must_use]
    pub fn ordering_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for arch in Architecture::ALL {
            let ct = self.cell(arch, Kernel::CornerTurn);
            if ct.limiter == Resource::Compute || ct.compute_util > 0.0 {
                violations.push(format!(
                    "{arch}: corner turn is not memory-bound (limiter {}, compute \
                     utilization {:.3})",
                    ct.limiter, ct.compute_util
                ));
            }
            let cslc = self.cell(arch, Kernel::Cslc).dram_util();
            if cslc > ct.dram_util() {
                violations.push(format!(
                    "{arch}: CSLC DRAM utilization {cslc:.3} exceeds corner turn {:.3}",
                    ct.dram_util()
                ));
            }
        }
        violations
    }

    /// Renders the scorecard as a text table with PASS/FAIL verdicts.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "cell", "GFLOP/s", "GB/s", "onchip", "offchip", "compute", "bound", "limit", "band",
            "verdict",
        ]);
        for c in self.iter() {
            t.row(vec![
                format!("{} / {}", c.arch, c.kernel),
                format!("{:.3}", c.achieved_gflops),
                format!("{:.3}", c.achieved_gbytes),
                fmt_pct(c.onchip_util),
                fmt_pct(c.offchip_util),
                fmt_pct(c.compute_util),
                fmt_pct(c.bound_util),
                c.limiter.name().to_string(),
                c.band().to_string(),
                if c.pass() { "PASS" } else { "FAIL" }.to_string(),
            ]);
        }
        let mut out = t.to_string();
        let violations = self.ordering_violations();
        if violations.is_empty() {
            out.push_str(
                "ordering: corner turn is memory-bound everywhere and out-utilizes \
                 DRAM versus CSLC (PASS)\n",
            );
        } else {
            for v in &violations {
                out.push_str(&format!("ordering violation: {v}\n"));
            }
        }
        out
    }
}

fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table3_jobs;

    fn scorecard() -> Scorecard {
        let workloads = WorkloadSet::small(1).expect("small workloads build");
        let t3 = table3_jobs(&workloads, 1).expect("table3 runs").0;
        Scorecard::compute(&t3, &workloads).expect("scorecard computes")
    }

    #[test]
    fn every_cell_is_within_its_roofline() {
        let sc = scorecard();
        for c in sc.iter() {
            assert!(
                c.pass(),
                "{} / {}: onchip {:.3} offchip {:.3} compute {:.3} bound {:.3}",
                c.arch,
                c.kernel,
                c.onchip_util,
                c.offchip_util,
                c.compute_util,
                c.bound_util
            );
        }
        assert!(sc.all_within_roofline());
    }

    #[test]
    fn corner_turn_has_highest_dram_utilization() {
        let sc = scorecard();
        let violations = sc.ordering_violations();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn viram_dram_is_the_onchip_level() {
        let sc = scorecard();
        let viram = sc.cell(Architecture::Viram, Kernel::CornerTurn);
        assert_eq!(viram.dram_util(), viram.onchip_util);
        let raw = sc.cell(Architecture::Raw, Kernel::CornerTurn);
        assert_eq!(raw.dram_util(), raw.offchip_util);
    }

    #[test]
    fn render_reports_pass_and_ordering() {
        let sc = scorecard();
        let s = sc.render();
        assert!(s.contains("PASS"));
        assert!(!s.contains("FAIL"));
        assert!(s.contains("ordering: corner turn is memory-bound"));
        assert!(s.contains("VIRAM / Corner Turn"));
    }

    #[test]
    fn export_metrics_carries_roofline_gauges() {
        let sc = scorecard();
        let c = sc.cell(Architecture::Imagine, Kernel::Cslc);
        let mut report = MetricsReport::new();
        c.export_metrics(&mut report);
        assert_eq!(report.counter_value("roofline.predicted_cycles"), Some(c.predicted.get()));
        assert!(report.get("roofline.util.bound").is_some());
        assert!(report.get("roofline.achieved.gflops").is_some());
    }
}
