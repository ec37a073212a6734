//! Imagine stream-processor simulator.
//!
//! Imagine (Stanford) routes data through a 128 KB stream register file
//! (SRF) to eight SIMD ALU clusters of six units each — three adders, two
//! multipliers, one divider — plus an inter-cluster communication unit
//! (paper Section 2.2). The model reproduces the mechanisms the paper's
//! analysis rests on:
//!
//! - **two memory-stream address generators** moving 2 words/cycle
//!   aggregate between off-chip DRAM and the SRF (the corner-turn and
//!   beam-steering bound);
//! - **VLIW schedule bound** per cluster: kernel inner loops retire at
//!   the initiation interval set by the busiest unit class;
//! - **inter-cluster communication** for parallel FFTs (the 30% CSLC
//!   penalty);
//! - **software-pipelining prologue** per kernel invocation (the "small
//!   size of the FFT … increases start-up overheads" effect), and the
//!   stream-descriptor-register limit that leaves part of the kernel
//!   unoverlapped with memory ("a limitation induced by the stream
//!   descriptor registers prevented full software pipelining").
//!
//! Kernels are data-accurate: stream contents really move DRAM → SRF →
//! clusters → SRF → DRAM and outputs are verified against the reference.
//!
//! # Example
//!
//! ```
//! use triarch_kernels::{BeamSteeringWorkload, KernelInput, RunCtx, SignalMachine};
//! use triarch_imagine::Imagine;
//!
//! # fn main() -> Result<(), triarch_simcore::SimError> {
//! let mut machine = Imagine::new()?;
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

pub use config::ImagineConfig;
pub use machine::{ClusterOps, ImagineMachine};

use programs::beam_steering::TablePlacement;
use triarch_kernels::{Engine, KernelInput};
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, MachineInfo, SimError};

/// The Imagine machine: configuration plus the Table 2 identity.
#[derive(Debug, Clone)]
pub struct Imagine {
    config: ImagineConfig,
    info: MachineInfo,
}

impl Imagine {
    /// Creates an Imagine with the paper's parameters (300 MHz, 48 ALUs,
    /// 14.4 peak GFLOPS).
    ///
    /// # Errors
    ///
    /// Never fails for the default configuration.
    pub fn new() -> Result<Self, SimError> {
        Self::with_config(ImagineConfig::paper())
    }

    /// Creates an Imagine from an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate parameters.
    pub fn with_config(config: ImagineConfig) -> Result<Self, SimError> {
        config.validate()?;
        let info = config.machine_info();
        Ok(Imagine { config, info })
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ImagineConfig {
        &self.config
    }
}

impl Engine for Imagine {
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
                programs::beam_steering::run(cfg, w, TablePlacement::Dram, sink, faults, budget)
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
    assert_send::<Imagine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_kernels::{Kernel, SignalMachine, WorkloadSet};

    #[test]
    fn machine_identity_matches_table2() {
        let m = Imagine::new().unwrap();
        assert_eq!(m.info().name, "Imagine");
        assert_eq!(m.info().clock.mhz(), 300.0);
        assert_eq!(m.info().alu_count, 48);
        assert!((m.info().peak_gflops - 14.4).abs() < 1e-9);
    }

    #[test]
    fn small_workloads_verify() {
        let mut m = Imagine::new().unwrap();
        let w = WorkloadSet::small(2).unwrap();
        let ct = m.run(Kernel::CornerTurn, &w).unwrap();
        assert!(ct.verification.is_ok(0.0));
        let bs = m.run(Kernel::BeamSteering, &w).unwrap();
        assert!(bs.verification.is_ok(0.0));
        let cs = m.run(Kernel::Cslc, &w).unwrap();
        assert!(cs.verification.is_ok(triarch_kernels::verify::CSLC_TOLERANCE));
    }
}
