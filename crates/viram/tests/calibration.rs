//! Paper-size calibration: VIRAM's Table 3 column must land within the
//! reproduction band of the published numbers (see DESIGN.md §5).

use triarch_kernels::{
    BeamSteeringWorkload, CornerTurnWorkload, CslcWorkload, KernelInput, RunCtx, SignalMachine,
};
use triarch_simcore::{KernelRun, SimError};
use triarch_viram::{Viram, ViramConfig};

/// Runs one kernel through the machine's entry, untraced and unfaulted.
fn simulate(cfg: &ViramConfig, input: KernelInput<'_>) -> Result<KernelRun, SimError> {
    Viram::with_config(cfg.clone())?.run_with(input, RunCtx::default())
}

fn assert_band(label: &str, ours_kc: f64, paper_kc: f64) {
    let ratio = ours_kc / paper_kc;
    println!("{label}: {ours_kc:.1} kc (paper {paper_kc}) ratio {ratio:.2}");
    assert!((0.5..=2.0).contains(&ratio), "{label}: ratio {ratio:.2} outside band");
}

#[test]
fn paper_size_calibration() {
    let cfg = ViramConfig::paper();

    let w = CornerTurnWorkload::paper(2).unwrap();
    let run = simulate(&cfg, KernelInput::CornerTurn(&w)).unwrap();
    assert!(run.verification.is_ok(0.0));
    assert_band("VIRAM corner turn", run.cycles.to_kilocycles(), 554.0);
    println!("{}", run.breakdown);

    let w = BeamSteeringWorkload::paper(3).unwrap();
    let run = simulate(&cfg, KernelInput::BeamSteering(&w)).unwrap();
    assert!(run.verification.is_ok(0.0));
    assert_band("VIRAM beam steering", run.cycles.to_kilocycles(), 35.0);

    let w = CslcWorkload::paper(4).unwrap();
    let run = simulate(&cfg, KernelInput::Cslc(&w)).unwrap();
    assert!(run.verification.is_ok(triarch_kernels::verify::CSLC_TOLERANCE));
    assert_band("VIRAM CSLC", run.cycles.to_kilocycles(), 424.0);
    // Paper §4.3: shuffle instructions are a real cost on the FFT.
    assert!(run.breakdown.get("shuffle").get() > 0);
}
