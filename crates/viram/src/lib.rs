//! VIRAM processor-in-memory simulator.
//!
//! VIRAM (UC Berkeley) integrates a vector processor with 13 MB of DRAM on
//! one die (paper Section 2.1). The model here reproduces the mechanisms
//! the paper's analysis attributes performance to:
//!
//! - a 256-bit (8-word) path between the vector unit and on-chip DRAM,
//!   organized as 2 wings × 4 banks with precharge/activate costs;
//! - **four address generators**, limiting strided accesses to 4 words
//!   per cycle (vs 8 sequential);
//! - **two vector ALUs of 8 32-bit lanes each**, with floating-point
//!   executing on ALU0 only (16 int ops/cycle but 8 flops/cycle);
//! - per-instruction vector startup that is not hidden without chaining;
//! - TLB misses on large strided walks.
//!
//! The machine is *data-accurate*: kernels execute on a real vector
//! register file over the simulated DRAM contents and the outputs are
//! verified against the reference kernels.
//!
//! # Example
//!
//! ```
//! use triarch_kernels::{CornerTurnWorkload, KernelInput, RunCtx, SignalMachine};
//! use triarch_viram::Viram;
//!
//! # fn main() -> Result<(), triarch_simcore::SimError> {
//! let mut machine = Viram::new()?;
//! let workload = CornerTurnWorkload::with_dims(64, 64, 7)?;
//! let run = machine.run_with(KernelInput::CornerTurn(&workload), RunCtx::default())?;
//! assert!(run.verification.is_ok(0.0)); // transpose is bit-exact
//! # Ok(())
//! # }
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod programs;
pub mod tlb;
pub mod vector;

pub use config::ViramConfig;
pub use vector::VectorUnit;

use triarch_kernels::{Engine, KernelInput};
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, MachineInfo, SimError};

/// The VIRAM machine: configuration plus the Table 2 identity.
#[derive(Debug, Clone)]
pub struct Viram {
    config: ViramConfig,
    info: MachineInfo,
}

impl Viram {
    /// Creates a VIRAM with the paper's parameters (200 MHz, 16 ALUs,
    /// 3.2 peak GOPS / 1.6 peak GFLOPS).
    ///
    /// # Errors
    ///
    /// Never fails for the default configuration.
    pub fn new() -> Result<Self, SimError> {
        Self::with_config(ViramConfig::paper())
    }

    /// Creates a VIRAM from an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate parameters.
    pub fn with_config(config: ViramConfig) -> Result<Self, SimError> {
        config.validate()?;
        let info = config.machine_info();
        Ok(Viram { config, info })
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ViramConfig {
        &self.config
    }
}

impl Engine for Viram {
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
    assert_send::<Viram>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_kernels::{Kernel, SignalMachine, WorkloadSet};

    #[test]
    fn machine_identity_matches_table2() {
        let m = Viram::new().unwrap();
        assert_eq!(m.info().name, "VIRAM");
        assert_eq!(m.info().clock.mhz(), 200.0);
        assert_eq!(m.info().alu_count, 16);
        assert!((m.info().peak_gflops - 3.2).abs() < 1e-9);
    }

    #[test]
    fn small_workloads_verify() {
        let mut m = Viram::new().unwrap();
        let w = WorkloadSet::small(1).unwrap();
        let ct = m.run(Kernel::CornerTurn, &w).unwrap();
        assert!(ct.verification.is_ok(0.0));
        let bs = m.run(Kernel::BeamSteering, &w).unwrap();
        assert!(bs.verification.is_ok(0.0));
        let cs = m.run(Kernel::Cslc, &w).unwrap();
        assert!(cs.verification.is_ok(triarch_kernels::verify::CSLC_TOLERANCE));
    }
}
