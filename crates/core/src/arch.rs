//! The study's machine registry and the shared cell-dispatch helpers.
//!
//! Every driver in this crate — [`crate::experiments`] (Table 3 cells),
//! [`crate::faultsweep`] (campaign grids), [`crate::htmlreport`]
//! (traced cells for folds, timelines and breakdown validation), and
//! [`crate::dse`] (design-space sweeps) — runs the same shape of job:
//! *build a machine, run one kernel on it, hand back the result*. The
//! [`MachineSpec`] type and its `run_cell` method are the single source
//! of truth for that dispatch, so the four drivers construct pool jobs
//! the same way instead of each repeating the architecture match.
//!
//! All machines here are **`Send`-clean**: engines are plain data
//! (configuration plus identity; run state is rebuilt inside each
//! program), so a job closure can own its machine and run on any pool
//! worker. That property is asserted at compile time below.

use std::fmt;

use triarch_dpu::{Dpu, DpuConfig};
use triarch_imagine::{Imagine, ImagineConfig};
use triarch_kernels::{Kernel, RunCtx, SignalMachine, WorkloadSet};
use triarch_ppc::{Ppc, PpcConfig, Variant};
use triarch_profile::{Fold, FoldSink};
use triarch_raw::{Raw, RawConfig};
use triarch_simcore::trace::TeeSink;
use triarch_simcore::{KernelRun, SimError};
use triarch_timeline::{Timeline, TimelineSink};
use triarch_viram::{Viram, ViramConfig};

/// The six machines of the study, in scorecard row order: the paper's
/// five 2003 rows plus the modern DPU cross-era row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Scalar PowerPC G4 (measured baseline).
    Ppc,
    /// PowerPC G4 with hand-inserted AltiVec.
    Altivec,
    /// VIRAM processor-in-memory.
    Viram,
    /// Imagine stream processor.
    Imagine,
    /// Raw tiled processor.
    Raw,
    /// UPMEM-style DPU-per-DRAM-bank PIM (the 2020s cross-era row).
    Dpu,
}

impl Architecture {
    /// All machines in scorecard row order (Table 3's five rows, then
    /// the cross-era DPU row).
    pub const ALL: [Architecture; 6] = [
        Architecture::Ppc,
        Architecture::Altivec,
        Architecture::Viram,
        Architecture::Imagine,
        Architecture::Raw,
        Architecture::Dpu,
    ];

    /// The three research machines (excluding the baseline rows).
    pub const RESEARCH: [Architecture; 3] =
        [Architecture::Viram, Architecture::Imagine, Architecture::Raw];

    /// Display name matching the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Architecture::Ppc => "PPC",
            Architecture::Altivec => "Altivec",
            Architecture::Viram => "VIRAM",
            Architecture::Imagine => "Imagine",
            Architecture::Raw => "Raw",
            Architecture::Dpu => "DPU",
        }
    }

    /// Parses a display name back into the architecture (the inverse of
    /// [`Architecture::name`], matched case-insensitively). `None` for
    /// anything that is not one of the study's six rows.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Architecture> {
        Architecture::ALL.into_iter().find(|a| a.name().eq_ignore_ascii_case(name))
    }

    /// Instantiates the machine with its paper configuration.
    ///
    /// The box is [`Send`] so the machine can move into a pool job.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in configurations; the `Result` mirrors
    /// the machines' fallible constructors.
    pub fn machine(self) -> Result<Box<dyn SignalMachine + Send>, SimError> {
        MachineSpec::Paper(self).build()
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Every (machine, kernel) cell of the study, in paper order — the job
/// grid the batch drivers fan out over.
#[must_use]
pub fn grid() -> Vec<(Architecture, Kernel)> {
    let mut cells = Vec::with_capacity(Architecture::ALL.len() * Kernel::ALL.len());
    for arch in Architecture::ALL {
        for kernel in Kernel::ALL {
            cells.push((arch, kernel));
        }
    }
    cells
}

/// A buildable machine description: either a paper row or an explicit
/// swept configuration.
///
/// This is the shared job constructor: all four batch drivers turn a
/// `MachineSpec` plus a [`Kernel`] into a pool job via
/// [`MachineSpec::run_cell`], with the trace sink, fault hook and budget
/// in its [`RunCtx`], so the per-architecture dispatch lives in exactly
/// one place.
#[derive(Debug, Clone)]
pub enum MachineSpec {
    /// A study row with its published configuration.
    Paper(Architecture),
    /// VIRAM with an explicit (possibly swept) configuration.
    Viram(ViramConfig),
    /// Imagine with an explicit configuration.
    Imagine(ImagineConfig),
    /// Raw with an explicit configuration.
    Raw(RawConfig),
    /// The G4 baseline with an explicit configuration and code path.
    Ppc(PpcConfig, Variant),
    /// The DPU module with an explicit configuration.
    Dpu(DpuConfig),
}

impl MachineSpec {
    /// The architecture row this spec instantiates.
    #[must_use]
    pub fn arch(&self) -> Architecture {
        match self {
            MachineSpec::Paper(arch) => *arch,
            MachineSpec::Viram(_) => Architecture::Viram,
            MachineSpec::Imagine(_) => Architecture::Imagine,
            MachineSpec::Raw(_) => Architecture::Raw,
            MachineSpec::Ppc(_, Variant::Scalar) => Architecture::Ppc,
            MachineSpec::Ppc(_, Variant::Altivec) => Architecture::Altivec,
            MachineSpec::Dpu(_) => Architecture::Dpu,
        }
    }

    /// Builds the machine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate swept
    /// configurations; never fails for [`MachineSpec::Paper`].
    pub fn build(&self) -> Result<Box<dyn SignalMachine + Send>, SimError> {
        Ok(match self {
            MachineSpec::Paper(Architecture::Ppc) => Box::new(Ppc::scalar()?),
            MachineSpec::Paper(Architecture::Altivec) => Box::new(Ppc::altivec()?),
            MachineSpec::Paper(Architecture::Viram) => Box::new(Viram::new()?),
            MachineSpec::Paper(Architecture::Imagine) => Box::new(Imagine::new()?),
            MachineSpec::Paper(Architecture::Raw) => Box::new(Raw::new()?),
            MachineSpec::Paper(Architecture::Dpu) => Box::new(Dpu::new()?),
            MachineSpec::Viram(cfg) => Box::new(Viram::with_config(cfg.clone())?),
            MachineSpec::Imagine(cfg) => Box::new(Imagine::with_config(cfg.clone())?),
            MachineSpec::Raw(cfg) => Box::new(Raw::with_config(cfg.clone())?),
            MachineSpec::Ppc(cfg, variant) => Box::new(Ppc::with_config(cfg.clone(), *variant)?),
            MachineSpec::Dpu(cfg) => Box::new(Dpu::with_config(cfg.clone())?),
        })
    }

    /// Builds a fresh machine and runs one kernel under `ctx` — the
    /// pool-job body shared by every batch driver. Building per cell
    /// (rather than reusing one machine across kernels) is byte-identical
    /// because engines rebuild all run state from their configuration.
    ///
    /// # Errors
    ///
    /// Propagates construction errors, and simulation errors, detected
    /// faults and watchdog trips exactly as the engine reports them.
    pub fn run_cell(
        &self,
        kernel: Kernel,
        workloads: &WorkloadSet,
        ctx: RunCtx<'_>,
    ) -> Result<KernelRun, SimError> {
        self.build()?.run_with(workloads.input(kernel), ctx)
    }

    /// [`Self::run_cell`] with a [`FoldSink`] *and* a
    /// [`TimelineSink`] tee'd on the same
    /// span stream, returning the collapsed-stack profile and the
    /// cycle-windowed occupancy timeline alongside the run.
    ///
    /// Both sinks observe identical events, so both conservation laws
    /// hold at once: the fold's total and the timeline's per-category
    /// window sums each reproduce the run's `CycleBreakdown` with drift
    /// exactly 0.
    ///
    /// # Errors
    ///
    /// Propagates construction and simulation errors.
    pub fn run_cell_folded_windowed(
        &self,
        kernel: Kernel,
        workloads: &WorkloadSet,
        window: u64,
    ) -> Result<(KernelRun, Fold, Timeline), SimError> {
        let mut sink = TeeSink::new(FoldSink::new(), TimelineSink::new(window));
        let ctx = RunCtx { sink: Some(&mut sink), ..RunCtx::default() };
        let run = self.run_cell(kernel, workloads, ctx)?;
        Ok((run, sink.a.into_fold(), sink.b.into_timeline()))
    }
}

// Compile-time proof that every engine — and the boxed trait object the
// registry hands out — can move into a pool job.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Viram>();
    assert_send::<Imagine>();
    assert_send::<Raw>();
    assert_send::<Ppc>();
    assert_send::<Dpu>();
    assert_send::<MachineSpec>();
    assert_send::<Box<dyn SignalMachine + Send>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_all_machines() {
        for arch in Architecture::ALL {
            let m = arch.machine().unwrap();
            // Table-2 clock sanity per machine.
            let mhz = m.info().clock.mhz();
            match arch {
                Architecture::Ppc | Architecture::Altivec => assert_eq!(mhz, 1000.0),
                Architecture::Viram => assert_eq!(mhz, 200.0),
                Architecture::Imagine | Architecture::Raw => assert_eq!(mhz, 300.0),
                Architecture::Dpu => assert_eq!(mhz, 350.0),
            }
        }
    }

    #[test]
    fn names_match_paper_rows() {
        let names: Vec<&str> = Architecture::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["PPC", "Altivec", "VIRAM", "Imagine", "Raw", "DPU"]);
        assert_eq!(Architecture::RESEARCH.len(), 3);
        assert_eq!(Architecture::Viram.to_string(), "VIRAM");
    }

    #[test]
    fn from_name_round_trips_and_rejects_unknowns() {
        for arch in Architecture::ALL {
            assert_eq!(Architecture::from_name(arch.name()), Some(arch));
        }
        assert_eq!(Architecture::from_name("viram"), Some(Architecture::Viram));
        assert_eq!(Architecture::from_name("Cray"), None);
        assert_eq!(Architecture::from_name(""), None);
    }

    #[test]
    fn grid_covers_every_cell_in_paper_order() {
        let cells = grid();
        assert_eq!(cells.len(), Architecture::ALL.len() * Kernel::ALL.len());
        assert_eq!(cells[0], (Architecture::Ppc, Kernel::ALL[0]));
        let mut expected = Vec::new();
        for arch in Architecture::ALL {
            for kernel in Kernel::ALL {
                expected.push((arch, kernel));
            }
        }
        assert_eq!(cells, expected);
    }

    #[test]
    fn spec_arch_round_trips_paper_rows() {
        for arch in Architecture::ALL {
            let spec = MachineSpec::Paper(arch);
            assert_eq!(spec.arch(), arch);
            assert_eq!(spec.build().unwrap().info().name, arch.machine().unwrap().info().name);
        }
        assert_eq!(MachineSpec::Viram(ViramConfig::paper()).arch(), Architecture::Viram);
        assert_eq!(MachineSpec::Imagine(ImagineConfig::paper()).arch(), Architecture::Imagine);
        assert_eq!(MachineSpec::Raw(RawConfig::paper()).arch(), Architecture::Raw);
        assert_eq!(MachineSpec::Ppc(PpcConfig::paper(), Variant::Scalar).arch(), Architecture::Ppc);
        assert_eq!(
            MachineSpec::Ppc(PpcConfig::paper(), Variant::Altivec).arch(),
            Architecture::Altivec
        );
        assert_eq!(MachineSpec::Dpu(DpuConfig::paper()).arch(), Architecture::Dpu);
    }

    #[test]
    fn explicit_paper_specs_match_registry_cells() {
        let workloads = WorkloadSet::small(42).unwrap();
        for (arch, kernel) in grid() {
            let via_spec =
                MachineSpec::Paper(arch).run_cell(kernel, &workloads, RunCtx::default()).unwrap();
            let mut machine = arch.machine().unwrap();
            let via_registry = machine.run(kernel, &workloads).unwrap();
            assert_eq!(via_spec.cycles, via_registry.cycles, "{arch}/{kernel}");
            assert_eq!(
                via_spec.breakdown.to_string(),
                via_registry.breakdown.to_string(),
                "{arch}/{kernel}"
            );
        }
    }

    #[test]
    fn traced_cell_agrees_with_breakdown() {
        // Tracing observes a run without perturbing it: the traced run
        // equals the untraced one, and the counted spans it emitted
        // re-add to that breakdown with drift 0.
        use triarch_simcore::trace::{RingSink, TraceEvent};
        let workloads = WorkloadSet::small(42).unwrap();
        let spec = MachineSpec::Paper(Architecture::Raw);
        let untraced = spec.run_cell(Kernel::CornerTurn, &workloads, RunCtx::default()).unwrap();
        let mut ring = RingSink::new(1 << 20);
        let ctx = RunCtx { sink: Some(&mut ring), ..RunCtx::default() };
        let traced = spec.run_cell(Kernel::CornerTurn, &workloads, ctx).unwrap();
        assert_eq!(traced.cycles, untraced.cycles);
        assert_eq!(traced.breakdown, untraced.breakdown);
        assert_eq!(ring.dropped(), 0);
        let spans = ring.events().filter_map(|event| match *event {
            TraceEvent::Span { category, dur, counted: true, .. } => Some((category, dur)),
            _ => None,
        });
        assert_eq!(untraced.breakdown_drift(spans), 0);
    }

    #[test]
    fn folded_cell_re_adds_to_total_with_drift_zero() {
        let workloads = WorkloadSet::small(42).unwrap();
        let mut sink = FoldSink::new();
        let ctx = RunCtx { sink: Some(&mut sink), ..RunCtx::default() };
        let run = MachineSpec::Paper(Architecture::Viram)
            .run_cell(Kernel::Cslc, &workloads, ctx)
            .unwrap();
        let fold = sink.into_fold();
        assert_eq!(run.cycles.get(), fold.total());
        // Per-category agreement with the engine's own ledger too.
        for (category, cycles) in run.breakdown.iter() {
            assert_eq!(cycles.get(), fold.category_total(category), "{category}");
        }
    }

    #[test]
    fn windowed_cell_agrees_with_fold_and_breakdown() {
        let workloads = WorkloadSet::small(42).unwrap();
        let (run, fold, timeline) = MachineSpec::Paper(Architecture::Dpu)
            .run_cell_folded_windowed(Kernel::BeamSteering, &workloads, 256)
            .unwrap();
        assert_eq!(run.cycles.get(), fold.total());
        assert_eq!(run.cycles.get(), timeline.total());
        assert_eq!(timeline.window(), 256);
        for (category, cycles) in run.breakdown.iter() {
            let windowed = timeline.category_totals().get(category).copied().unwrap_or(0);
            assert_eq!(cycles.get(), windowed, "{category}");
        }
    }

    #[test]
    fn degenerate_swept_config_is_a_typed_error() {
        let mut cfg = RawConfig::paper();
        cfg.mesh_width = 0;
        assert!(MachineSpec::Raw(cfg).build().is_err());
    }
}
