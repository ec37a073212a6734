//! Property-based tests for the G4 baseline model.

use proptest::prelude::*;
use triarch_kernels::beam_steering::BeamSteeringWorkload;
use triarch_kernels::corner_turn::CornerTurnWorkload;
use triarch_kernels::{KernelInput, RunCtx, SignalMachine};
use triarch_ppc::{Ppc, PpcConfig, Variant};
use triarch_simcore::{KernelRun, SimError, Verification};

/// Runs one kernel through the machine's entry, untraced and unfaulted.
fn simulate(
    cfg: &PpcConfig,
    variant: Variant,
    input: KernelInput<'_>,
) -> Result<KernelRun, SimError> {
    Ppc::with_config(cfg.clone(), variant)?.run_with(input, RunCtx::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both code paths are bit-exact on the corner turn for arbitrary
    /// shapes.
    #[test]
    fn corner_turn_bit_exact(rows in 1usize..80, cols in 1usize..80, seed in any::<u64>()) {
        let w = CornerTurnWorkload::with_dims(rows, cols, seed).unwrap();
        for v in [Variant::Scalar, Variant::Altivec] {
            let run = simulate(&PpcConfig::paper(), v, KernelInput::CornerTurn(&w)).unwrap();
            prop_assert_eq!(run.verification, Verification::BitExact);
        }
    }

    /// Both code paths agree bit-exactly on beam steering.
    #[test]
    fn beam_steering_bit_exact(
        elements in 1usize..200,
        directions in 1usize..5,
        seed in any::<u64>(),
    ) {
        let w = BeamSteeringWorkload::new(elements, directions, 2, seed).unwrap();
        for v in [Variant::Scalar, Variant::Altivec] {
            let run = simulate(&PpcConfig::paper(), v, KernelInput::BeamSteering(&w)).unwrap();
            prop_assert_eq!(run.verification, Verification::BitExact);
        }
    }

    /// AltiVec never loses to scalar on any kernel shape (it may tie on
    /// memory-bound ones).
    #[test]
    fn altivec_never_loses(rows in 8usize..64, seed in any::<u64>()) {
        let w = CornerTurnWorkload::with_dims(rows, rows, seed).unwrap();
        let scalar = simulate(&PpcConfig::paper(), Variant::Scalar, KernelInput::CornerTurn(&w))
            .unwrap()
            .cycles;
        let altivec = simulate(&PpcConfig::paper(), Variant::Altivec, KernelInput::CornerTurn(&w))
            .unwrap()
            .cycles;
        prop_assert!(altivec <= scalar);
    }

    /// A slower memory system (larger store-miss penalty) never speeds
    /// anything up.
    #[test]
    fn larger_miss_penalty_never_helps(penalty in 28u64..100, seed in any::<u64>()) {
        let w = CornerTurnWorkload::with_dims(64, 64, seed).unwrap();
        let base = simulate(&PpcConfig::paper(), Variant::Scalar, KernelInput::CornerTurn(&w))
            .unwrap()
            .cycles;
        let mut cfg = PpcConfig::paper();
        cfg.l2_store_miss_penalty = penalty;
        let slower = simulate(&cfg, Variant::Scalar, KernelInput::CornerTurn(&w)).unwrap().cycles;
        prop_assert!(slower >= base);
    }
}
