//! The interface every simulated architecture implements.

use std::fmt;

use triarch_simcore::faults::{FaultHook, NoFaults};
use triarch_simcore::trace::{NullSink, TraceSink};
use triarch_simcore::{CycleBudget, KernelRun, MachineInfo, SimError};

use crate::beam_steering::BeamSteeringWorkload;
use crate::corner_turn::CornerTurnWorkload;
use crate::cslc::CslcWorkload;

/// The three kernels of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// 1024×1024 matrix transpose (Section 3.1).
    CornerTurn,
    /// Coherent side-lobe canceller (Section 3.2).
    Cslc,
    /// Beam steering (Section 3.3).
    BeamSteering,
}

impl Kernel {
    /// All kernels in the paper's presentation order.
    pub const ALL: [Kernel; 3] = [Kernel::CornerTurn, Kernel::Cslc, Kernel::BeamSteering];

    /// Display name matching the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::CornerTurn => "Corner Turn",
            Kernel::Cslc => "CSLC",
            Kernel::BeamSteering => "Beam Steering",
        }
    }

    /// Parses a display name back into the kernel (the inverse of
    /// [`Kernel::name`], matched case-insensitively). `None` for
    /// anything that is not one of the study's three kernels.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kernel> {
        Kernel::ALL.into_iter().find(|k| k.name().eq_ignore_ascii_case(name))
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One kernel's input, borrowed from a [`WorkloadSet`] (see
/// [`WorkloadSet::input`]) or from a hand-built workload.
#[derive(Debug, Clone, Copy)]
pub enum KernelInput<'a> {
    /// A corner-turn matrix.
    CornerTurn(&'a CornerTurnWorkload),
    /// CSLC channels and weights.
    Cslc(&'a CslcWorkload),
    /// Beam-steering tables.
    BeamSteering(&'a BeamSteeringWorkload),
}

/// What a run carries besides its input. `RunCtx::default()` is a plain
/// run: untraced, unfaulted, unlimited budget.
#[derive(Default)]
pub struct RunCtx<'a> {
    /// Receives cycle-attribution trace events whose counted spans tile
    /// the reported [`KernelRun::breakdown`]; `None` runs untraced.
    pub sink: Option<&'a mut dyn TraceSink>,
    /// Consulted wherever simulated state crosses a fault surface (DRAM
    /// transfers, compute results). Engines apply its effects to real
    /// simulated data, charge its ECC/retry cycles into the breakdown,
    /// and turn a transfer failure into [`SimError::DetectedFault`];
    /// `None` injects nothing.
    pub faults: Option<&'a mut dyn FaultHook>,
    /// Watchdog: once the run's simulated activity passes it, the engine
    /// aborts with [`SimError::BudgetExceeded`] instead of running
    /// unboundedly.
    pub budget: CycleBudget,
}

/// A simulated machine that can run the study's three kernels.
///
/// Implementations must be *data-accurate*: each run computes the actual
/// kernel output on simulated hardware and reports how it compared with
/// the workload's reference output in [`KernelRun::verification`].
///
/// Engines implement [`Engine`] and get this trait from the blanket impl.
pub trait SignalMachine {
    /// Static machine description (paper Table 2 row).
    fn info(&self) -> &MachineInfo;

    /// Runs one kernel under `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the workload shape is unsupported by this
    /// machine's mapping or exceeds a hardware resource, plus
    /// [`SimError::DetectedFault`] from the fault hook and
    /// [`SimError::BudgetExceeded`] from the watchdog.
    fn run_with(&mut self, input: KernelInput<'_>, ctx: RunCtx<'_>) -> Result<KernelRun, SimError>;

    /// Runs one kernel of `workloads` plainly ([`RunCtx::default`]).
    ///
    /// # Errors
    ///
    /// Same as [`run_with`](Self::run_with).
    fn run(&mut self, kernel: Kernel, workloads: &WorkloadSet) -> Result<KernelRun, SimError> {
        self.run_with(workloads.input(kernel), RunCtx::default())
    }
}

/// An engine's kernel programs, generic over the trace sink and fault
/// hook. Every `Engine` is a [`SignalMachine`].
pub trait Engine {
    /// Static machine description (paper Table 2 row), returned by
    /// [`SignalMachine::info`]; named apart from it so both traits can be
    /// in scope at once.
    fn machine_info(&self) -> &MachineInfo;

    /// Runs the program for `input`: one `match` arm per kernel.
    ///
    /// # Errors
    ///
    /// Same as [`SignalMachine::run_with`].
    fn run_program<S: TraceSink, F: FaultHook>(
        &self,
        input: KernelInput<'_>,
        sink: S,
        faults: F,
        budget: CycleBudget,
    ) -> Result<KernelRun, SimError>;
}

/// Instantiates each engine's programs exactly twice: `<NullSink,
/// NoFaults>` for a context with neither sink nor hook, so plain runs
/// keep a statically disabled instrumentation path, and `<&mut dyn
/// TraceSink, &mut dyn FaultHook>` otherwise, with the missing half
/// filled by the disabled default.
impl<E: Engine> SignalMachine for E {
    fn info(&self) -> &MachineInfo {
        self.machine_info()
    }

    fn run_with(&mut self, input: KernelInput<'_>, ctx: RunCtx<'_>) -> Result<KernelRun, SimError> {
        match ctx {
            RunCtx { sink: None, faults: None, budget } => {
                self.run_program(input, NullSink, NoFaults, budget)
            }
            RunCtx { sink, faults, budget } => {
                let (mut null, mut none) = (NullSink, NoFaults);
                let sink: &mut dyn TraceSink = sink.unwrap_or(&mut null);
                let faults: &mut dyn FaultHook = faults.unwrap_or(&mut none);
                self.run_program(input, sink, faults, budget)
            }
        }
    }
}

/// One instance of every kernel workload, shared across machines so all
/// architectures process identical data.
#[derive(Debug, Clone)]
pub struct WorkloadSet {
    /// The corner-turn matrix.
    pub corner_turn: CornerTurnWorkload,
    /// The CSLC channels and weights.
    pub cslc: CslcWorkload,
    /// The beam-steering tables.
    pub beam_steering: BeamSteeringWorkload,
}

impl WorkloadSet {
    /// Builds the paper-sized workload set from a seed.
    ///
    /// # Errors
    ///
    /// Never fails for the paper parameters.
    pub fn paper(seed: u64) -> Result<Self, SimError> {
        Ok(WorkloadSet {
            corner_turn: CornerTurnWorkload::paper(seed)?,
            cslc: CslcWorkload::paper(seed.wrapping_add(1))?,
            beam_steering: BeamSteeringWorkload::paper(seed.wrapping_add(2))?,
        })
    }

    /// Builds a reduced workload set for fast tests: a 64×64 corner turn,
    /// the small CSLC configuration, and a 128-element beam steer.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in small parameters.
    pub fn small(seed: u64) -> Result<Self, SimError> {
        Ok(WorkloadSet {
            corner_turn: CornerTurnWorkload::with_dims(64, 64, seed)?,
            cslc: CslcWorkload::new(crate::cslc::CslcConfig::small(), seed.wrapping_add(1))?,
            beam_steering: BeamSteeringWorkload::new(128, 4, 2, seed.wrapping_add(2))?,
        })
    }

    /// The input `kernel` runs on.
    #[must_use]
    pub fn input(&self, kernel: Kernel) -> KernelInput<'_> {
        match kernel {
            Kernel::CornerTurn => KernelInput::CornerTurn(&self.corner_turn),
            Kernel::Cslc => KernelInput::Cslc(&self.cslc),
            Kernel::BeamSteering => KernelInput::BeamSteering(&self.beam_steering),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_match_paper_tables() {
        assert_eq!(Kernel::CornerTurn.name(), "Corner Turn");
        assert_eq!(Kernel::Cslc.name(), "CSLC");
        assert_eq!(Kernel::BeamSteering.name(), "Beam Steering");
        assert_eq!(Kernel::ALL.len(), 3);
        assert_eq!(Kernel::CornerTurn.to_string(), "Corner Turn");
    }

    #[test]
    fn workload_sets_build() {
        let small = WorkloadSet::small(3).unwrap();
        assert_eq!(small.corner_turn.rows(), 64);
        assert_eq!(small.beam_steering.directions(), 4);
        // The paper set is large; just verify its shape without running it.
        let paper = WorkloadSet::paper(3).unwrap();
        assert_eq!(paper.corner_turn.rows(), 1024);
        assert_eq!(paper.cslc.config().subbands, 73);
        assert_eq!(paper.beam_steering.outputs(), 51_456);
    }
}
