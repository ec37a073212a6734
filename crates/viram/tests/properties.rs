//! Property-based tests for the VIRAM simulator: data accuracy must hold
//! for arbitrary workload shapes, not just the paper sizes.

use proptest::prelude::*;
use triarch_kernels::beam_steering::BeamSteeringWorkload;
use triarch_kernels::corner_turn::CornerTurnWorkload;
use triarch_kernels::{KernelInput, RunCtx, SignalMachine};
use triarch_simcore::{KernelRun, SimError, Verification};
use triarch_viram::{Viram, ViramConfig};

/// Runs one kernel through the machine's entry, untraced and unfaulted.
fn simulate(cfg: &ViramConfig, input: KernelInput<'_>) -> Result<KernelRun, SimError> {
    Viram::with_config(cfg.clone())?.run_with(input, RunCtx::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The vector corner turn is bit-exact for arbitrary matrix shapes.
    #[test]
    fn corner_turn_bit_exact(rows in 1usize..96, cols in 1usize..96, seed in any::<u64>()) {
        let w = CornerTurnWorkload::with_dims(rows, cols, seed).unwrap();
        let run = simulate(&ViramConfig::paper(), KernelInput::CornerTurn(&w)).unwrap();
        prop_assert_eq!(run.verification, Verification::BitExact);
        prop_assert!(run.cycles.get() > 0);
    }

    /// The vectorized beam steer is bit-exact for arbitrary shapes,
    /// including element counts that are not multiples of the MVL.
    #[test]
    fn beam_steering_bit_exact(
        elements in 1usize..200,
        directions in 1usize..5,
        dwells in 1usize..4,
        seed in any::<u64>(),
    ) {
        let w = BeamSteeringWorkload::new(elements, directions, dwells, seed).unwrap();
        let run = simulate(&ViramConfig::paper(), KernelInput::BeamSteering(&w)).unwrap();
        prop_assert_eq!(run.verification, Verification::BitExact);
    }

    /// Cutting the strided rate can only slow the corner turn down.
    #[test]
    fn fewer_address_generators_never_help(seed in any::<u64>()) {
        let w = CornerTurnWorkload::with_dims(64, 64, seed).unwrap();
        let fast = simulate(&ViramConfig::paper(), KernelInput::CornerTurn(&w)).unwrap().cycles;
        let mut cfg = ViramConfig::paper();
        cfg.dram.strided_words_per_cycle = 1;
        let slow = simulate(&cfg, KernelInput::CornerTurn(&w)).unwrap().cycles;
        prop_assert!(slow >= fast);
    }
}
