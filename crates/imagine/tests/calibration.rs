//! Paper-size calibration: Imagine's Table 3 column must land within the
//! reproduction band of the published numbers (see DESIGN.md §5).

use triarch_imagine::{Imagine, ImagineConfig};
use triarch_kernels::{
    BeamSteeringWorkload, CornerTurnWorkload, CslcWorkload, KernelInput, RunCtx, SignalMachine,
};
use triarch_simcore::{KernelRun, SimError};

/// Runs one kernel through the machine's entry, untraced and unfaulted.
fn simulate(cfg: &ImagineConfig, input: KernelInput<'_>) -> Result<KernelRun, SimError> {
    Imagine::with_config(cfg.clone())?.run_with(input, RunCtx::default())
}

fn assert_band(label: &str, ours_kc: f64, paper_kc: f64) {
    let ratio = ours_kc / paper_kc;
    println!("{label}: {ours_kc:.1} kc (paper {paper_kc}) ratio {ratio:.2}");
    assert!((0.5..=2.0).contains(&ratio), "{label}: ratio {ratio:.2} outside band");
}

#[test]
fn paper_size_calibration() {
    let cfg = ImagineConfig::paper();

    let w = CornerTurnWorkload::paper(2).unwrap();
    let run = simulate(&cfg, KernelInput::CornerTurn(&w)).unwrap();
    assert!(run.verification.is_ok(0.0));
    assert_band("Imagine corner turn", run.cycles.to_kilocycles(), 1_439.0);
    // Paper §4.2: 87% of corner-turn cycles are memory transfers.
    let mem = run.breakdown.fraction("memory") + run.breakdown.fraction("precharge");
    assert!(mem > 0.75, "memory fraction {mem:.2}");

    let w = BeamSteeringWorkload::paper(3).unwrap();
    let run = simulate(&cfg, KernelInput::BeamSteering(&w)).unwrap();
    assert!(run.verification.is_ok(0.0));
    assert_band("Imagine beam steering", run.cycles.to_kilocycles(), 87.0);

    let w = CslcWorkload::paper(4).unwrap();
    let run = simulate(&cfg, KernelInput::Cslc(&w)).unwrap();
    assert!(run.verification.is_ok(triarch_kernels::verify::CSLC_TOLERANCE));
    assert_band("Imagine CSLC", run.cycles.to_kilocycles(), 196.0);
    // Paper §4.3: "about 10 useful operations per cycle".
    let opc = run.ops_executed as f64 / run.cycles.get() as f64;
    assert!(opc > 6.0 && opc < 16.0, "ops/cycle {opc:.1}");
}
