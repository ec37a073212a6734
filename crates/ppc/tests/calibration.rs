//! Paper-size calibration: the two baseline rows must land within the
//! reproduction band of the published numbers (see DESIGN.md §5).

use triarch_kernels::{
    BeamSteeringWorkload, CornerTurnWorkload, CslcWorkload, KernelInput, RunCtx, SignalMachine,
};
use triarch_ppc::{Ppc, PpcConfig, Variant};
use triarch_simcore::{KernelRun, SimError};

/// Runs one kernel through the machine's entry, untraced and unfaulted.
fn simulate(
    cfg: &PpcConfig,
    variant: Variant,
    input: KernelInput<'_>,
) -> Result<KernelRun, SimError> {
    Ppc::with_config(cfg.clone(), variant)?.run_with(input, RunCtx::default())
}

fn assert_band(label: &str, ours_kc: f64, paper_kc: f64) {
    let ratio = ours_kc / paper_kc;
    println!("{label}: {ours_kc:.1} kc (paper {paper_kc}) ratio {ratio:.2}");
    assert!((0.5..=2.0).contains(&ratio), "{label}: ratio {ratio:.2} outside band");
}

#[test]
fn paper_size_calibration() {
    let cfg = PpcConfig::paper();
    let cells = [
        (Variant::Scalar, 34_250.0, 29_013.0, 730.0),
        (Variant::Altivec, 29_288.0, 4_931.0, 364.0),
    ];
    for (variant, t_ct, t_cslc, t_bs) in cells {
        let w = CornerTurnWorkload::paper(2).unwrap();
        let run = simulate(&cfg, variant, KernelInput::CornerTurn(&w)).unwrap();
        assert!(run.verification.is_ok(0.0));
        assert_band(&format!("{variant:?} corner turn"), run.cycles.to_kilocycles(), t_ct);
        // The baseline wall: stores dominate via cache-set thrash.
        assert!(run.breakdown.fraction("store-stall") > 0.5, "{}", run.breakdown);

        let w = CslcWorkload::paper(4).unwrap();
        let run = simulate(&cfg, variant, KernelInput::Cslc(&w)).unwrap();
        assert!(run.verification.is_ok(triarch_kernels::verify::CSLC_TOLERANCE));
        assert_band(&format!("{variant:?} CSLC"), run.cycles.to_kilocycles(), t_cslc);

        let w = BeamSteeringWorkload::paper(3).unwrap();
        let run = simulate(&cfg, variant, KernelInput::BeamSteering(&w)).unwrap();
        assert!(run.verification.is_ok(0.0));
        assert_band(&format!("{variant:?} beam steering"), run.cycles.to_kilocycles(), t_bs);
    }
}
