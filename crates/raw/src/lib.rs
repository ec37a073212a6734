//! Raw tiled-architecture simulator.
//!
//! Raw (MIT) puts 16 identical tiles on a chip, each a single-issue
//! MIPS-style core with local SRAM and a switch processor, connected by
//! low-latency static networks and packetized dynamic networks (paper
//! Section 2.3). DRAM hangs off the 16 peripheral ports. The model here
//! reproduces the mechanisms the paper's analysis relies on:
//!
//! - **one instruction per cycle per tile** (load/store issue rate is the
//!   corner-turn bound: "16 instructions per cycle are executed on the
//!   Raw tiles, and the static network and DRAM ports are not a
//!   bottleneck");
//! - **per-tile local memory** used as a software-managed store (corner
//!   turn) or cache with miss stalls (MIMD CSLC);
//! - **static-network streaming** that feeds operands directly into the
//!   pipeline, eliminating loads and stores (beam steering);
//! - **data-parallel load imbalance** (73 sub-bands over 16 tiles) and
//!   the paper's perfect-balance extrapolation;
//! - aggregate off-chip bandwidth of 28 words/cycle across the ports.
//!
//! # Example
//!
//! ```
//! use triarch_kernels::{CornerTurnWorkload, KernelInput, RunCtx, SignalMachine};
//! use triarch_raw::Raw;
//!
//! # fn main() -> Result<(), triarch_simcore::SimError> {
//! let mut machine = Raw::new()?;
//! let workload = CornerTurnWorkload::with_dims(128, 128, 1)?;
//! let run = machine.run_with(KernelInput::CornerTurn(&workload), RunCtx::default())?;
//! assert!(run.verification.is_ok(0.0));
//! # Ok(())
//! # }
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod machine;
pub mod network;
pub mod programs;

pub use config::RawConfig;
pub use machine::RawMachine;
pub use network::{PacketFormat, StaticNetwork, TileId};

use programs::cslc::CslcMode;
use triarch_kernels::{Engine, KernelInput};
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, MachineInfo, SimError};

/// The Raw machine: configuration plus the Table 2 identity.
#[derive(Debug, Clone)]
pub struct Raw {
    config: RawConfig,
    info: MachineInfo,
}

impl Raw {
    /// Creates a Raw with the paper's parameters (300 MHz, 16 tiles,
    /// 4.64 peak GFLOPS).
    ///
    /// # Errors
    ///
    /// Never fails for the default configuration.
    pub fn new() -> Result<Self, SimError> {
        Self::with_config(RawConfig::paper())
    }

    /// Creates a Raw from an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate parameters.
    pub fn with_config(config: RawConfig) -> Result<Self, SimError> {
        config.validate()?;
        let info = config.machine_info();
        Ok(Raw { config, info })
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &RawConfig {
        &self.config
    }
}

impl Engine for Raw {
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
            KernelInput::Cslc(w) => {
                programs::cslc::run(cfg, w, CslcMode::CacheMimd, sink, faults, budget)
            }
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
    assert_send::<Raw>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_kernels::{Kernel, SignalMachine, WorkloadSet};

    #[test]
    fn machine_identity_matches_table2() {
        let m = Raw::new().unwrap();
        assert_eq!(m.info().name, "Raw");
        assert_eq!(m.info().clock.mhz(), 300.0);
        assert_eq!(m.info().alu_count, 16);
        assert!((m.info().peak_gflops - 4.64).abs() < 1e-9);
    }

    #[test]
    fn small_workloads_verify() {
        let mut m = Raw::new().unwrap();
        let w = WorkloadSet::small(5).unwrap();
        let ct = m.run(Kernel::CornerTurn, &w).unwrap();
        assert!(ct.verification.is_ok(0.0));
        let bs = m.run(Kernel::BeamSteering, &w).unwrap();
        assert!(bs.verification.is_ok(0.0));
        let cs = m.run(Kernel::Cslc, &w).unwrap();
        assert!(cs.verification.is_ok(triarch_kernels::verify::CSLC_TOLERANCE));
    }
}
