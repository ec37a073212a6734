//! Property-based tests for the Raw simulator.

use proptest::prelude::*;
use triarch_kernels::beam_steering::BeamSteeringWorkload;
use triarch_kernels::corner_turn::CornerTurnWorkload;
use triarch_kernels::matmul::MatmulWorkload;
use triarch_kernels::{KernelInput, RunCtx, SignalMachine};
use triarch_raw::{programs, Raw, RawConfig, TileId};
use triarch_simcore::{KernelRun, SimError, Verification};

/// Runs one kernel through the machine's entry, untraced and unfaulted.
fn simulate(cfg: &RawConfig, input: KernelInput<'_>) -> Result<KernelRun, SimError> {
    Raw::with_config(cfg.clone())?.run_with(input, RunCtx::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The blocked corner turn is bit-exact for arbitrary shapes,
    /// including partial edge blocks.
    #[test]
    fn corner_turn_bit_exact(rows in 1usize..130, cols in 1usize..130, seed in any::<u64>()) {
        let w = CornerTurnWorkload::with_dims(rows, cols, seed).unwrap();
        let run = simulate(&RawConfig::paper(), KernelInput::CornerTurn(&w)).unwrap();
        prop_assert_eq!(run.verification, Verification::BitExact);
    }

    /// Stream-mode beam steering is bit-exact for arbitrary shapes and
    /// mesh sizes.
    #[test]
    fn beam_steering_bit_exact(
        elements in 1usize..200,
        width in 1usize..5,
        seed in any::<u64>(),
    ) {
        let w = BeamSteeringWorkload::new(elements, 2, 2, seed).unwrap();
        let mut cfg = RawConfig::paper();
        cfg.mesh_width = width;
        let run = simulate(&cfg, KernelInput::BeamSteering(&w)).unwrap();
        prop_assert_eq!(run.verification, Verification::BitExact);
    }

    /// Matmul is numerically correct for arbitrary sizes that fit.
    #[test]
    fn matmul_correct(n in 1usize..64, seed in any::<u64>()) {
        let w = MatmulWorkload::new(n, seed).unwrap();
        let run = programs::matmul::run(&RawConfig::paper(), &w).unwrap();
        prop_assert!(run.verification.is_ok(1e-3), "{:?}", run.verification);
    }

    /// More tiles never slow the data-parallel kernels down.
    #[test]
    fn more_tiles_never_hurt(seed in any::<u64>()) {
        let w = BeamSteeringWorkload::new(512, 4, 2, seed).unwrap();
        let mut small = RawConfig::paper();
        small.mesh_width = 2;
        let mut large = RawConfig::paper();
        large.mesh_width = 4;
        let few = simulate(&small, KernelInput::BeamSteering(&w)).unwrap().cycles;
        let many = simulate(&large, KernelInput::BeamSteering(&w)).unwrap().cycles;
        prop_assert!(many <= few, "16 tiles ({many}) slower than 4 ({few})");
    }

    /// Mesh routing invariants: hop counts are symmetric and match the
    /// Manhattan distance.
    #[test]
    fn routing_hops_match_manhattan(
        a in 0usize..16,
        b in 0usize..16,
        words in 1u64..100,
    ) {
        let src = TileId::from_index(a, 4).unwrap();
        let dst = TileId::from_index(b, 4).unwrap();
        prop_assert_eq!(src.hops_to(dst), dst.hops_to(src));
        let mut net = triarch_raw::StaticNetwork::new(4, 3, 1).unwrap();
        let hops = net.send(src, dst, words).unwrap();
        prop_assert_eq!(hops, src.hops_to(dst));
        if hops > 0 {
            prop_assert_eq!(net.max_link_words(), words);
        }
    }
}
