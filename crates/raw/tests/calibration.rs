//! Paper-size calibration: Raw's Table 3 column must land within the
//! reproduction band of the published numbers (see DESIGN.md §5).

use triarch_kernels::{
    BeamSteeringWorkload, CornerTurnWorkload, CslcWorkload, KernelInput, RunCtx, SignalMachine,
};
use triarch_raw::{Raw, RawConfig};
use triarch_simcore::{KernelRun, SimError};

/// Runs one kernel through the machine's entry, untraced and unfaulted.
fn simulate(cfg: &RawConfig, input: KernelInput<'_>) -> Result<KernelRun, SimError> {
    Raw::with_config(cfg.clone())?.run_with(input, RunCtx::default())
}

fn assert_band(label: &str, ours_kc: f64, paper_kc: f64) {
    let ratio = ours_kc / paper_kc;
    println!("{label}: {ours_kc:.1} kc (paper {paper_kc}) ratio {ratio:.2}");
    assert!((0.5..=2.0).contains(&ratio), "{label}: ratio {ratio:.2} outside band");
}

#[test]
fn paper_size_calibration() {
    let cfg = RawConfig::paper();

    let w = CornerTurnWorkload::paper(2).unwrap();
    let run = simulate(&cfg, KernelInput::CornerTurn(&w)).unwrap();
    assert!(run.verification.is_ok(0.0));
    assert_band("Raw corner turn", run.cycles.to_kilocycles(), 146.0);
    // Paper §4.2: issue-rate-bound; DRAM ports are not a bottleneck, and
    // performance is "nearly identical to the maximum predicted by the
    // instruction issue rate" (2 instructions per word over 16 tiles).
    assert!(run.breakdown.fraction("issue") > 0.9, "{}", run.breakdown);
    let ideal = 2.0 * 1024.0 * 1024.0 / 16.0;
    assert!((run.cycles.get() as f64) < ideal * 1.2);

    let w = BeamSteeringWorkload::paper(3).unwrap();
    let run = simulate(&cfg, KernelInput::BeamSteering(&w)).unwrap();
    assert!(run.verification.is_ok(0.0));
    assert_band("Raw beam steering", run.cycles.to_kilocycles(), 19.0);

    let w = CslcWorkload::paper(4).unwrap();
    let run = simulate(&cfg, KernelInput::Cslc(&w)).unwrap();
    assert!(run.verification.is_ok(triarch_kernels::verify::CSLC_TOLERANCE));
    assert_band("Raw CSLC", run.cycles.to_kilocycles(), 357.0);
    // Paper §4.3: ~31.4% of peak; memory stalls below 10%.
    let util = run.utilization(16.0);
    assert!(util > 0.2 && util < 0.45, "utilization {util:.3}");
    assert!(run.breakdown.fraction("stall") < 0.1);
}
