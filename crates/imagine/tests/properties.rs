//! Property-based tests for the Imagine simulator.

use proptest::prelude::*;
use triarch_imagine::{programs, Imagine, ImagineConfig};
use triarch_kernels::beam_steering::BeamSteeringWorkload;
use triarch_kernels::corner_turn::CornerTurnWorkload;
use triarch_kernels::{KernelInput, RunCtx, SignalMachine};
use triarch_simcore::{KernelRun, SimError, Verification};

/// Runs one kernel through the machine's entry, untraced and unfaulted.
fn simulate(cfg: &ImagineConfig, input: KernelInput<'_>) -> Result<KernelRun, SimError> {
    Imagine::with_config(cfg.clone())?.run_with(input, RunCtx::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The strip-streamed corner turn is bit-exact for arbitrary shapes.
    #[test]
    fn corner_turn_bit_exact(rows in 1usize..96, cols in 1usize..96, seed in any::<u64>()) {
        let w = CornerTurnWorkload::with_dims(rows, cols, seed).unwrap();
        let run = simulate(&ImagineConfig::paper(), KernelInput::CornerTurn(&w)).unwrap();
        prop_assert_eq!(run.verification, Verification::BitExact);
    }

    /// Beam steering is bit-exact and the SRF-resident variant computes
    /// identical results while never being slower.
    #[test]
    fn beam_steering_placements_agree(
        elements in 1usize..256,
        dwells in 1usize..4,
        seed in any::<u64>(),
    ) {
        use programs::beam_steering::{run, TablePlacement};
        use triarch_simcore::{faults::NoFaults, trace::NullSink, CycleBudget};
        let w = BeamSteeringWorkload::new(elements, 2, dwells, seed).unwrap();
        let cfg = ImagineConfig::paper();
        let placed = |placement| {
            run(&cfg, &w, placement, NullSink, NoFaults, CycleBudget::UNLIMITED).unwrap()
        };
        let dram = placed(TablePlacement::Dram);
        let srf = placed(TablePlacement::SrfResident);
        prop_assert_eq!(dram.verification, Verification::BitExact);
        prop_assert_eq!(srf.verification, Verification::BitExact);
        prop_assert!(srf.cycles <= dram.cycles);
    }

    /// Narrowing the off-chip interface never speeds up the corner turn.
    #[test]
    fn narrower_memory_interface_never_helps(seed in any::<u64>(), wpc in 1u32..2) {
        let w = CornerTurnWorkload::with_dims(64, 64, seed).unwrap();
        let fast = simulate(&ImagineConfig::paper(), KernelInput::CornerTurn(&w)).unwrap().cycles;
        let mut cfg = ImagineConfig::paper();
        cfg.dram.seq_words_per_cycle = wpc;
        cfg.dram.strided_words_per_cycle = wpc;
        let slow = simulate(&cfg, KernelInput::CornerTurn(&w)).unwrap().cycles;
        prop_assert!(slow >= fast);
    }
}
