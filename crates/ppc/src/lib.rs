//! PowerPC G4 + AltiVec baseline model.
//!
//! The paper's baseline is a measured 1 GHz PowerMac G4 (Section 4.1);
//! since the physical machine is unavailable, this crate substitutes a
//! trace-driven model: kernels execute functionally while driving a real
//! two-level set-associative cache simulator with their actual address
//! streams, and cycles accumulate from superscalar issue, dependence
//! chains, libm calls, and cache-miss stalls. The corner turn's
//! cache-thrashing wall — the behaviour the baseline numbers hinge on —
//! emerges from the cache model rather than being assumed.
//!
//! Two machine variants cover the paper's two baseline rows:
//! [`Ppc::scalar`] ("PPC") and [`Ppc::altivec`] ("AltiVec").
//!
//! # Example
//!
//! ```
//! use triarch_kernels::{CornerTurnWorkload, KernelInput, RunCtx, SignalMachine};
//! use triarch_ppc::Ppc;
//!
//! # fn main() -> Result<(), triarch_simcore::SimError> {
//! let mut scalar = Ppc::scalar()?;
//! let workload = CornerTurnWorkload::with_dims(64, 64, 7)?;
//! let run = scalar.run_with(KernelInput::CornerTurn(&workload), RunCtx::default())?;
//! assert!(run.verification.is_ok(0.0));
//! # Ok(())
//! # }
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod config;
pub mod machine;
pub mod programs;

pub use config::PpcConfig;
pub use machine::PpcMachine;
pub use programs::Variant;

use triarch_kernels::{Engine, KernelInput, KernelOutput};
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, MachineInfo, SimError};

/// The G4 baseline machine in either scalar or AltiVec form.
#[derive(Debug, Clone)]
pub struct Ppc {
    config: PpcConfig,
    variant: Variant,
    info: MachineInfo,
}

impl Ppc {
    /// The scalar "PPC" baseline row.
    ///
    /// # Errors
    ///
    /// Never fails for the default configuration.
    pub fn scalar() -> Result<Self, SimError> {
        Self::with_config(PpcConfig::paper(), Variant::Scalar)
    }

    /// The "AltiVec" baseline row.
    ///
    /// # Errors
    ///
    /// Never fails for the default configuration.
    pub fn altivec() -> Result<Self, SimError> {
        Self::with_config(PpcConfig::paper(), Variant::Altivec)
    }

    /// Builds a baseline machine from an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate parameters.
    pub fn with_config(config: PpcConfig, variant: Variant) -> Result<Self, SimError> {
        config.validate()?;
        let info = match variant {
            Variant::Scalar => config.machine_info_scalar(),
            Variant::Altivec => config.machine_info_altivec(),
        };
        Ok(Ppc { config, variant, info })
    }

    /// The code-path variant.
    #[must_use]
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &PpcConfig {
        &self.config
    }
}

impl Engine for Ppc {
    fn machine_info(&self) -> &MachineInfo {
        &self.info
    }

    fn run_program<S: TraceSink, F: FaultHook>(
        &self,
        input: KernelInput<'_>,
        sink: S,
        faults: F,
        budget: CycleBudget,
    ) -> Result<(KernelRun, KernelOutput), SimError> {
        let cfg = &self.config;
        match input {
            KernelInput::CornerTurn(w) => {
                programs::corner_turn::run(cfg, w, self.variant, sink, faults, budget)
            }
            KernelInput::Cslc(w) => programs::cslc::run(cfg, w, self.variant, sink, faults, budget),
            KernelInput::BeamSteering(w) => {
                programs::beam_steering::run(cfg, w, self.variant, sink, faults, budget)
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
    assert_send::<Ppc>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_kernels::{Kernel, SignalMachine, WorkloadSet};

    #[test]
    fn identities_match_table2() {
        let s = Ppc::scalar().unwrap();
        assert_eq!(s.info().name, "PPC");
        assert_eq!(s.info().clock.mhz(), 1000.0);
        let a = Ppc::altivec().unwrap();
        assert_eq!(a.info().name, "AltiVec");
        assert_eq!(a.variant(), Variant::Altivec);
    }

    #[test]
    fn a_cache_set_too_large_for_usize_is_an_invalid_config() {
        // 3 · 2^63 words a set: the capacity divides only the wrapped
        // product.
        let top = 1 << (usize::BITS - 1);
        let huge = cache::CacheConfig { size_words: top, line_words: 3, ways: top };
        for level in 0..2 {
            let mut config = PpcConfig::paper();
            *[&mut config.l1, &mut config.l2][level] = huge;
            for variant in [Variant::Scalar, Variant::Altivec] {
                let err = Ppc::with_config(config.clone(), variant).unwrap_err();
                assert!(matches!(err, SimError::InvalidConfig { .. }), "L{}: {err}", level + 1);
            }
        }
    }

    #[test]
    fn small_workloads_verify_on_both_variants() {
        for mut m in [Ppc::scalar().unwrap(), Ppc::altivec().unwrap()] {
            let w = WorkloadSet::small(4).unwrap();
            assert!(m.run(Kernel::CornerTurn, &w).unwrap().verification.is_ok(0.0));
            assert!(m.run(Kernel::BeamSteering, &w).unwrap().verification.is_ok(0.0));
            assert!(m
                .run(Kernel::Cslc, &w)
                .unwrap()
                .verification
                .is_ok(triarch_kernels::verify::CSLC_TOLERANCE));
        }
    }
}
