//! The paper's tables and figures, regenerated from the simulators.

use triarch_kernels::{Kernel, RunCtx, WorkloadSet};
use triarch_simcore::{Cycles, KernelDemands, KernelRun, SimError};

use crate::arch::{grid, Architecture, MachineSpec};
use crate::paper;
use crate::parallel::{run_jobs, PoolStats};
use crate::report::{fmt_kilocycles, fmt_speedup, TextTable};

/// Table 1 — peak throughput in 32-bit words per cycle for the three
/// research machines, straight from each machine's configuration.
#[must_use]
pub fn table1() -> TextTable {
    let mut t = TextTable::new(vec!["", "VIRAM", "Imagine", "Raw"]);
    let models: Vec<_> = Architecture::RESEARCH
        .iter()
        .map(|a| a.machine().expect("builtin machines construct").info().throughput)
        .collect();
    t.row(
        std::iter::once("On-chip R/W".to_string())
            .chain(models.iter().map(|m| format!("{}", m.onchip_words_per_cycle)))
            .collect(),
    );
    t.row(
        std::iter::once("Off-chip DRAM R/W".to_string())
            .chain(models.iter().map(|m| format!("{}", m.offchip_words_per_cycle)))
            .collect(),
    );
    t.row(
        std::iter::once("Computation".to_string())
            .chain(models.iter().map(|m| format!("{}", m.ops_per_cycle)))
            .collect(),
    );
    t
}

/// Table 2 — processor parameters (clock, ALU count, peak GFLOPS).
#[must_use]
pub fn table2() -> TextTable {
    let mut t = TextTable::new(vec!["", "PPC G4", "VIRAM", "Imagine", "Raw", "DPU"]);
    let archs = [
        Architecture::Ppc,
        Architecture::Viram,
        Architecture::Imagine,
        Architecture::Raw,
        Architecture::Dpu,
    ];
    let infos: Vec<_> =
        archs.iter().map(|a| a.machine().expect("builtin machines construct")).collect();
    t.row(
        std::iter::once("Clock (MHz)".to_string())
            .chain(infos.iter().map(|m| format!("{}", m.info().clock.mhz())))
            .collect(),
    );
    t.row(
        std::iter::once("# of ALUs".to_string())
            .chain(infos.iter().map(|m| format!("{}", m.info().alu_count)))
            .collect(),
    );
    t.row(
        std::iter::once("Peak GFLOPS".to_string())
            .chain(infos.iter().map(|m| format!("{:.2}", m.info().peak_gflops)))
            .collect(),
    );
    t
}

/// The measured results of Table 3: one [`KernelRun`] per machine/kernel.
#[derive(Debug, Clone)]
pub struct Table3 {
    runs: Vec<((Architecture, Kernel), KernelRun)>,
}

impl Table3 {
    /// Assembles a table from per-cell runs (e.g. the runs behind a
    /// folded-profile collection), so drivers that already executed
    /// the grid need not simulate it twice.
    #[must_use]
    pub fn from_runs(runs: Vec<((Architecture, Kernel), KernelRun)>) -> Table3 {
        Table3 { runs }
    }

    /// The run for one cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is missing (cannot happen for values produced
    /// by [`table3`]).
    #[must_use]
    pub fn run(&self, arch: Architecture, kernel: Kernel) -> &KernelRun {
        &self
            .runs
            .iter()
            .find(|((a, k), _)| *a == arch && *k == kernel)
            .expect("table3 holds every (machine, kernel) cell")
            .1
    }

    /// Simulated cycles for one cell.
    #[must_use]
    pub fn cycles(&self, arch: Architecture, kernel: Kernel) -> Cycles {
        self.run(arch, kernel).cycles
    }

    /// Iterates over all cells.
    pub fn iter(&self) -> impl Iterator<Item = (Architecture, Kernel, &KernelRun)> {
        self.runs.iter().map(|((a, k), r)| (*a, *k, r))
    }

    /// Renders the table in the paper's layout (kilocycles).
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["", "Corner Turn", "CSLC", "Beam Steering"]);
        for arch in Architecture::ALL {
            t.row(
                std::iter::once(arch.name().to_string())
                    .chain(
                        Kernel::ALL
                            .iter()
                            .map(|k| fmt_kilocycles(self.cycles(arch, *k).to_kilocycles())),
                    )
                    .collect(),
            );
        }
        t.to_string()
    }

    /// Renders measured-vs-published cycles with the deviation ratio.
    #[must_use]
    pub fn render_vs_paper(&self) -> String {
        let mut t = TextTable::new(vec!["", "Kernel", "paper (kc)", "ours (kc)", "ratio"]);
        for arch in Architecture::ALL {
            for kernel in Kernel::ALL {
                let ours = self.cycles(arch, kernel).to_kilocycles();
                let published = paper::table3_kilocycles(arch, kernel);
                t.row(vec![
                    arch.name().to_string(),
                    kernel.name().to_string(),
                    fmt_kilocycles(published),
                    fmt_kilocycles(ours),
                    format!("{:.2}", ours / published),
                ]);
            }
        }
        t.to_string()
    }

    /// Renders every cell's cycle breakdown (the Section 4 percentages).
    #[must_use]
    pub fn render_breakdowns(&self) -> String {
        let mut out = String::new();
        for (arch, kernel, run) in self.iter() {
            out.push_str(&format!("\n== {arch} / {kernel} ==\n{}\n", run.breakdown));
        }
        out
    }
}

/// Runs every machine on every kernel — the paper's Table 3.
///
/// Serial convenience wrapper over [`table3_jobs`] with one worker.
///
/// # Errors
///
/// Propagates any simulator error (none occur for paper-sized or `small`
/// workload sets).
pub fn table3(workloads: &WorkloadSet) -> Result<Table3, SimError> {
    table3_jobs(workloads, 1).map(|(table, _)| table)
}

/// Runs the Table 3 grid on `jobs` pool workers.
///
/// Each cell is an independent job that builds its machine fresh via
/// [`MachineSpec::run_cell`]; because engines rebuild all run state from
/// their configuration, the resulting table is byte-identical to the
/// serial run at any worker count (results come back in submission
/// order).
///
/// # Errors
///
/// Propagates the first simulator error in cell order, or
/// [`SimError::JobPanicked`] if a cell panicked.
pub fn table3_jobs(workloads: &WorkloadSet, jobs: usize) -> Result<(Table3, PoolStats), SimError> {
    let (runs, stats) = run_jobs(jobs, grid(), |(arch, kernel)| {
        let run = MachineSpec::Paper(arch).run_cell(kernel, workloads, RunCtx::default())?;
        Ok(((arch, kernel), run))
    })?;
    Ok((Table3 { runs }, stats))
}

/// Table 4 — the Section 2.5 performance model's predicted lower bounds
/// (model cycles in kilocycles per machine/kernel).
///
/// # Errors
///
/// Propagates model errors (none for the built-in machines).
pub fn table4(workloads: &WorkloadSet) -> Result<TextTable, SimError> {
    let mut t = TextTable::new(vec!["", "Corner Turn", "CSLC", "Beam Steering"]);
    for arch in Architecture::ALL {
        let model = arch.machine()?.info().throughput;
        let mut cells = vec![arch.name().to_string()];
        for kernel in Kernel::ALL {
            let demands = model_demands(arch, kernel, workloads);
            let predicted = model.predict(&demands)?;
            cells.push(fmt_kilocycles(predicted.to_kilocycles()));
        }
        t.row(cells);
    }
    Ok(t)
}

/// The roofline demand of `kernel` on `arch` (which memory level the
/// working set stresses, and which FFT algorithm's op count applies).
#[must_use]
pub fn model_demands(arch: Architecture, kernel: Kernel, workloads: &WorkloadSet) -> KernelDemands {
    let mut d = match kernel {
        Kernel::CornerTurn => workloads.corner_turn.demands_offchip(),
        Kernel::Cslc => {
            let mut d = workloads.cslc.demands();
            if arch == Architecture::Raw {
                // Raw's mapping executes the radix-2 algorithm.
                d.ops = workloads.cslc.config().total_ops_radix2();
            }
            d
        }
        Kernel::BeamSteering => workloads.beam_steering.demands(),
    };
    if arch == Architecture::Viram {
        // VIRAM's 13 MB on-chip DRAM holds every working set in the
        // study, so nothing crosses the off-chip interface.
        d.offchip_words = 0;
        if kernel == Kernel::BeamSteering {
            // Table 1's computation rate (8 ops/cycle) is the
            // floating-point rate; beam steering is pure integer work,
            // which dual-issues across both vector ALUs at twice that.
            d.ops /= 2;
        }
    }
    if matches!(arch, Architecture::Ppc | Architecture::Altivec) {
        // The G4 is a cached machine, not a streaming one: its caches
        // capture all the reuse the streamed-word counts above cannot
        // see, so those counts are *not* valid lower bounds on off-chip
        // traffic.  The only G4 cell with guaranteed off-chip traffic is
        // the corner turn whose matrix exceeds the 256 KB L2 — there the
        // compulsory traffic (each word crosses once per direction, which
        // is exactly what `demands_offchip` counts) is a true bound.
        // Every other G4 cell drops the off-chip term, keeping the model
        // a lower bound (dropping a constraint can only lower it).
        let l2_words = triarch_ppc::PpcConfig::paper().l2.size_words as u64;
        if kernel != Kernel::CornerTurn || d.offchip_words <= l2_words {
            d.offchip_words = 0;
        }
    }
    // The DPU takes every demand unmodified: the streamed word counts are
    // exact for its explicit-transfer mappings — "off-chip" is the host
    // interface every operand and result crosses once each way, and
    // "on-chip" is the aggregate bank DMA the same words cross between
    // MRAM and the scratchpads.
    d
}

/// One figure: a named series per research machine with a value per
/// kernel.
#[derive(Debug, Clone)]
pub struct Figure {
    title: &'static str,
    series: Vec<(Architecture, Vec<f64>)>,
}

impl Figure {
    /// The speedup for one machine/kernel.
    #[must_use]
    pub fn value(&self, arch: Architecture, kernel: Kernel) -> f64 {
        let idx = Kernel::ALL.iter().position(|k| *k == kernel).expect("known kernel");
        self.series.iter().find(|(a, _)| *a == arch).map(|(_, v)| v[idx]).unwrap_or(f64::NAN)
    }

    /// Renders as an ASCII bar chart on a log axis, visually mirroring
    /// the paper's grouped-bar figures.
    #[must_use]
    pub fn render_chart(&self, width: usize) -> String {
        let bars: Vec<crate::chart::Bar> = self
            .series
            .iter()
            .flat_map(|(arch, values)| {
                Kernel::ALL.iter().zip(values).map(move |(k, v)| crate::chart::Bar {
                    label: format!("{arch} / {k}"),
                    value: *v,
                })
            })
            .collect();
        format!("{} (log axis)\n{}", self.title, crate::chart::render_log_bars(&bars, width))
    }

    /// Renders as a text table (the paper plots these on a log axis).
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![self.title, "Corner Turn", "CSLC", "Beam Steering"]);
        for (arch, values) in &self.series {
            t.row(
                std::iter::once(arch.name().to_string())
                    .chain(values.iter().map(|v| fmt_speedup(*v)))
                    .collect(),
            );
        }
        t.to_string()
    }
}

/// Figure 8 — speedup over the AltiVec baseline measured in *cycles*.
#[must_use]
pub fn figure8(table3: &Table3) -> Figure {
    let series = Architecture::RESEARCH
        .iter()
        .map(|arch| {
            let values = Kernel::ALL
                .iter()
                .map(|k| {
                    table3.cycles(Architecture::Altivec, *k).get() as f64
                        / table3.cycles(*arch, *k).get() as f64
                })
                .collect();
            (*arch, values)
        })
        .collect();
    Figure { title: "speedup (cycles)", series }
}

/// Figure 9 — speedup over the AltiVec baseline in *execution time*
/// (PPC at 1 GHz, VIRAM at 200 MHz, Imagine and Raw at 300 MHz).
#[must_use]
pub fn figure9(table3: &Table3) -> Figure {
    let baseline = Architecture::Altivec.machine().expect("builtin machine").info().clock;
    let series = Architecture::RESEARCH
        .iter()
        .map(|arch| {
            let clock = arch.machine().expect("builtin machine").info().clock;
            let values = Kernel::ALL
                .iter()
                .map(|k| {
                    let t_base =
                        baseline.cycles_to_seconds(table3.cycles(Architecture::Altivec, *k));
                    let t_arch = clock.cycles_to_seconds(table3.cycles(*arch, *k));
                    t_base / t_arch
                })
                .collect();
            (*arch, values)
        })
        .collect();
    Figure { title: "speedup (time)", series }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_and_table2_render_paper_values() {
        let t1 = table1().to_string();
        assert!(t1.contains("On-chip"));
        assert!(t1.contains("48")); // Imagine compute ops/cycle
        assert!(t1.contains("28")); // Raw off-chip words/cycle
        let t2 = table2().to_string();
        assert!(t2.contains("1000"));
        assert!(t2.contains("14.40"));
        assert!(t2.contains("4.64"));
        assert!(t2.contains("DPU"));
        assert!(t2.contains("5.60")); // DPU peak under software FP emulation
    }

    #[test]
    fn small_workload_pipeline_end_to_end() {
        let workloads = WorkloadSet::small(1).unwrap();
        let t3 = table3(&workloads).unwrap();
        // Every cell verified against the reference kernels.
        for (arch, kernel, run) in t3.iter() {
            let tolerance = match kernel {
                Kernel::Cslc => triarch_kernels::verify::CSLC_TOLERANCE,
                _ => 0.0,
            };
            assert!(run.verification.is_ok(tolerance), "{arch}/{kernel}: {:?}", run.verification);
        }
        let f8 = figure8(&t3);
        let f9 = figure9(&t3);
        for arch in Architecture::RESEARCH {
            for kernel in Kernel::ALL {
                assert!(f8.value(arch, kernel) > 0.0);
                assert!(f9.value(arch, kernel) > 0.0);
            }
        }
        // Figure 9 divides Figure 8 by the clock handicap.
        let handicap = 1000.0 / 200.0;
        let f8v = f8.value(Architecture::Viram, Kernel::CornerTurn);
        let f9v = f9.value(Architecture::Viram, Kernel::CornerTurn);
        assert!((f8v / f9v - handicap).abs() < 1e-9);
        assert!(!t3.render().is_empty());
        assert!(t3.render_vs_paper().contains("ratio"));
        assert!(t3.render_breakdowns().contains("VIRAM"));
    }

    #[test]
    fn table3_is_byte_identical_across_worker_counts() {
        let workloads = WorkloadSet::small(1).unwrap();
        let serial = table3(&workloads).unwrap();
        let (parallel, stats) = table3_jobs(&workloads, 4).unwrap();
        assert_eq!(serial.render(), parallel.render());
        assert_eq!(serial.render_vs_paper(), parallel.render_vs_paper());
        assert_eq!(serial.render_breakdowns(), parallel.render_breakdowns());
        assert_eq!(stats.jobs, Architecture::ALL.len() * Kernel::ALL.len());
    }

    #[test]
    fn table4_predictions_render() {
        let workloads = WorkloadSet::small(1).unwrap();
        let t4 = table4(&workloads).unwrap().to_string();
        assert!(t4.contains("VIRAM"));
        assert!(t4.contains("Raw"));
    }

    #[test]
    fn model_demands_select_memory_level() {
        let workloads = WorkloadSet::small(1).unwrap();
        let viram = model_demands(Architecture::Viram, Kernel::CornerTurn, &workloads);
        assert_eq!(viram.offchip_words, 0);
        let raw = model_demands(Architecture::Raw, Kernel::CornerTurn, &workloads);
        assert!(raw.offchip_words > 0);
        let raw_cslc = model_demands(Architecture::Raw, Kernel::Cslc, &workloads);
        let viram_cslc = model_demands(Architecture::Viram, Kernel::Cslc, &workloads);
        assert!(raw_cslc.ops > viram_cslc.ops, "radix-2 executes more ops");
    }
}
