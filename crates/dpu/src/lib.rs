//! UPMEM-style DPU-per-DRAM-bank PIM simulator.
//!
//! A modern (2020s) processing-in-memory machine for the cross-era
//! comparison: `ranks × dpus_per_rank` weak in-order DPUs, one per DRAM
//! bank, each with a private WRAM scratchpad, a multi-threaded revolving
//! pipeline fed by tasklets, explicit WRAM↔MRAM DMA, software-emulated
//! floating point, and — crucially — **no inter-DPU network**. Every
//! byte that moves between DPUs rides the narrow host interface, which
//! is what makes the corner turn expensive here and cheap on the 2003
//! on-chip PIM (VIRAM). The model reproduces the mechanisms the PrIM
//! benchmarking literature identifies:
//!
//! - **tasklet pipelining**: the pipeline retires one instruction per
//!   cycle only when at least `revolve_depth` tasklets are resident;
//!   fewer tasklets leave revolver slots empty;
//! - **explicit WRAM↔MRAM DMA** with a per-transfer startup, so strided
//!   access pays one transfer per row segment (the strided-access tax);
//! - **host↔MRAM bulk transfers** over a low-bandwidth interface;
//! - **software floating point**: each flop issues
//!   [`DpuConfig::fp_instrs_per_op`] pipeline instructions.
//!
//! Kernels are data-accurate: operands really move host → MRAM → WRAM →
//! MRAM → host and outputs verify against the golden reference.
//!
//! # Example
//!
//! ```
//! use triarch_kernels::{BeamSteeringWorkload, KernelInput, RunCtx, SignalMachine};
//! use triarch_dpu::Dpu;
//!
//! # fn main() -> Result<(), triarch_simcore::SimError> {
//! let mut machine = Dpu::new()?;
//! let workload = BeamSteeringWorkload::new(256, 4, 2, 3)?;
//! let run = machine.run_with(KernelInput::BeamSteering(&workload), RunCtx::default())?;
//! assert!(run.verification.is_ok(0.0));
//! # Ok(())
//! # }
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod machine;
pub mod programs;

pub use config::DpuConfig;
pub use machine::{DpuMachine, WramRange};

use triarch_kernels::{Engine, KernelInput};
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, MachineInfo, SimError};

/// The DPU machine: configuration plus the scorecard identity.
#[derive(Debug, Clone)]
pub struct Dpu {
    config: DpuConfig,
    info: MachineInfo,
}

impl Dpu {
    /// Creates a DPU module with the reference parameters (350 MHz,
    /// 128 DPUs, 5.6 peak GFLOPS under software FP emulation).
    ///
    /// # Errors
    ///
    /// Never fails for the default configuration.
    pub fn new() -> Result<Self, SimError> {
        Self::with_config(DpuConfig::paper())
    }

    /// Creates a DPU module from an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate parameters.
    pub fn with_config(config: DpuConfig) -> Result<Self, SimError> {
        config.validate()?;
        let info = config.machine_info();
        Ok(Dpu { config, info })
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &DpuConfig {
        &self.config
    }
}

impl Engine for Dpu {
    fn machine_info(&self) -> &MachineInfo {
        &self.info
    }

    fn run_program<S: TraceSink, F: FaultHook>(
        &self,
        input: KernelInput<'_>,
        sink: S,
        faults: F,
        budget: CycleBudget,
    ) -> Result<KernelRun, SimError> {
        let cfg = &self.config;
        match input {
            KernelInput::CornerTurn(w) => programs::corner_turn::run(cfg, w, sink, faults, budget),
            KernelInput::Cslc(w) => programs::cslc::run(cfg, w, sink, faults, budget),
            KernelInput::BeamSteering(w) => {
                programs::beam_steering::run(cfg, w, sink, faults, budget)
            }
        }
    }
}

// Compile-time proof the engine is `Send`-clean: it is plain data
// (configuration + identity; run state lives inside each program), so a
// parallel batch driver may move it into a pool job. Adding a non-`Send`
// field breaks this assertion instead of a distant driver build.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Dpu>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_kernels::{Kernel, SignalMachine, WorkloadSet};

    #[test]
    fn machine_identity_matches_scorecard() {
        let m = Dpu::new().unwrap();
        assert_eq!(m.info().name, "DPU");
        assert_eq!(m.info().clock.mhz(), 350.0);
        assert_eq!(m.info().alu_count, 128);
        assert!((m.info().peak_gflops - 5.6).abs() < 1e-9);
    }

    #[test]
    fn small_workloads_verify() {
        let mut m = Dpu::new().unwrap();
        let w = WorkloadSet::small(2).unwrap();
        let ct = m.run(Kernel::CornerTurn, &w).unwrap();
        assert!(ct.verification.is_ok(0.0));
        let bs = m.run(Kernel::BeamSteering, &w).unwrap();
        assert!(bs.verification.is_ok(0.0));
        let cs = m.run(Kernel::Cslc, &w).unwrap();
        assert!(cs.verification.is_ok(triarch_kernels::verify::CSLC_TOLERANCE));
    }
}
