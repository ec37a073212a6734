//! What-if analyses: the paper's own projections plus our extras.
//!
//! - Tiled vs naive corner turn on the G4 (Section 3.1's remark that
//!   cache-based systems tile to reduce misses).
//! - Raw's stream-interface FFT projection (Section 4.3: "about 70% of
//!   FFT performance improvement").
//! - Imagine's SRF-resident beam-steering tables (Section 4.4: "a factor
//!   of about two").
//! - A dwell-count sweep validating the 8-dwell back-calculation.

use triarch_kernels::beam_steering::BeamSteeringWorkload;
use triarch_kernels::corner_turn::CornerTurnWorkload;
use triarch_kernels::verify::{self, tolerance};
use triarch_kernels::{KernelInput, KernelOutput, RunCtx, WorkloadSet};
use triarch_ppc::{PpcConfig, PpcMachine};
use triarch_simcore::faults::NoFaults;
use triarch_simcore::trace::NullSink;
use triarch_simcore::{CycleBudget, Cycles, KernelRun, SimError};

use crate::arch::Architecture;
use crate::parallel::{run_jobs, PoolStats};
use crate::report::TextTable;

/// Checks the output of a program run outside `SignalMachine` with the
/// study's one verifier: a study whose output fails the check is an
/// error, not a cycle count.
fn verified(
    study: &str,
    input: KernelInput<'_>,
    (mut run, output): (KernelRun, KernelOutput),
) -> Result<KernelRun, SimError> {
    run.verification = verify::check(input, &output);
    if run.verification.is_ok(tolerance(input.kernel())) {
        Ok(run)
    } else {
        Err(SimError::unsupported(format!(
            "{study}: output failed verification ({:?})",
            run.verification
        )))
    }
}

/// Runs a *tiled* corner turn on the scalar G4 model and returns
/// `(naive_cycles, blocked_cycles)`.
///
/// Tiling keeps each destination line resident until all its words
/// arrive, collapsing the write-miss wall.
///
/// # Errors
///
/// Propagates simulator errors (none for in-range matrices), and fails if
/// the tiled output does not match the workload's golden output.
pub fn ppc_blocked_corner_turn(
    workload: &CornerTurnWorkload,
    block: usize,
) -> Result<(Cycles, Cycles), SimError> {
    let cfg = PpcConfig::paper();
    let naive = Architecture::Ppc
        .machine()?
        .run_with(KernelInput::CornerTurn(workload), RunCtx::default())?
        .cycles;

    let rows = workload.rows();
    let cols = workload.cols();
    let dst_base = rows * cols;
    let mut m = PpcMachine::new(&cfg)?;
    let mut br = 0;
    while br < rows {
        let h = block.min(rows - br);
        let mut bc = 0;
        while bc < cols {
            let w = block.min(cols - bc);
            for r in br..br + h {
                for c in bc..bc + w {
                    m.load(r * cols + c);
                    m.store(dst_base + c * rows + r);
                    m.issue(2);
                }
            }
            bc += w;
        }
        br += h;
    }
    // The tiled loop writes the workload's blocked transpose; check those
    // bits against the golden output.
    let blocked = (m.finish()?, KernelOutput::Words(workload.blocked_transpose(block)?));
    let run = verified("PPC tiled corner turn", KernelInput::CornerTurn(workload), blocked)?;
    Ok((naive, run.cycles))
}

/// Projects Raw's CSLC with a stream-interface FFT (paper Section 4.3):
/// loads/stores vanish and cache-miss stalls are hidden, leaving flops
/// and loop overhead. Returns `(measured, projected)`.
#[must_use]
pub fn raw_stream_fft_estimate(run: &KernelRun) -> (Cycles, Cycles) {
    // Of the issue cycles, the butterfly mix is 10 flops : 8 ld/st :
    // 8 overhead (see `triarch_raw::programs::cslc`); streaming removes
    // the 8 ld/st share, and the stall category disappears.
    let issue = run.breakdown.get("issue");
    let kept = issue.scale(18.0 / 26.0);
    let projected = kept + run.breakdown.get("startup");
    (run.cycles, projected)
}

/// Projects Imagine's beam steering with calibration tables resident in
/// the SRF (paper Section 4.4: "performance would be increased by a
/// factor of about two"): the two table-read streams vanish, leaving the
/// output stream and the kernel.
#[must_use]
pub fn imagine_srf_beam_estimate(run: &KernelRun) -> (Cycles, Cycles) {
    let mem = run.breakdown.get("memory") + run.breakdown.get("precharge");
    // One of three streams (the output) remains.
    let projected = run.cycles.saturating_sub(mem.scale(2.0 / 3.0));
    (run.cycles, projected)
}

/// Sweeps the beam-steering dwell count on the research machines,
/// returning cycles per dwell count — validating both linear scaling and
/// the 8-dwell back-calculation in DESIGN.md.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn dwell_sweep(
    elements: usize,
    directions: usize,
    dwell_counts: &[usize],
    seed: u64,
) -> Result<TextTable, SimError> {
    let mut t = TextTable::new(vec!["dwells", "VIRAM", "Imagine", "Raw"]);
    for &dwells in dwell_counts {
        let w = BeamSteeringWorkload::new(elements, directions, dwells, seed)?;
        let mut cells = vec![dwells.to_string()];
        for arch in Architecture::RESEARCH {
            let run = arch.machine()?.run_with(KernelInput::BeamSteering(&w), RunCtx::default())?;
            cells.push(run.cycles.to_string());
        }
        t.row(cells);
    }
    Ok(t)
}

/// The independent studies composing [`render_all`], in report order.
///
/// Each task renders a self-contained fragment of the ablation report,
/// so the batch drivers can run them as pool jobs and concatenate the
/// fragments in this fixed order — byte-identical to the serial report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AblationTask {
    /// Naive vs 8×8 tiled corner turn on the scalar G4.
    TiledCornerTurn,
    /// Raw CSLC: cache-mode vs stream-interface FFT (measured).
    RawStreamCslc,
    /// Imagine beam steering: DRAM vs SRF-resident tables (measured).
    ImagineSrfTables,
    /// Beam-steering dwell-count sweep on the research machines.
    DwellSweep,
}

impl AblationTask {
    /// Every task in report order.
    const ALL: [AblationTask; 4] = [
        AblationTask::TiledCornerTurn,
        AblationTask::RawStreamCslc,
        AblationTask::ImagineSrfTables,
        AblationTask::DwellSweep,
    ];

    /// Renders this task's report fragment.
    fn fragment(self, workloads: &WorkloadSet) -> Result<String, SimError> {
        match self {
            AblationTask::TiledCornerTurn => {
                let (naive, blocked) = ppc_blocked_corner_turn(&workloads.corner_turn, 8)?;
                Ok(format!(
                    "PPC corner turn, naive vs 8x8 tiled: {naive} -> {blocked} cycles ({:.1}x)\n",
                    naive.ratio(blocked)
                ))
            }
            AblationTask::RawStreamCslc => {
                use triarch_raw::programs::cslc::{run, CslcMode};
                let raw_cfg = triarch_raw::RawConfig::paper();
                let w = &workloads.cslc;
                let moded = |mode| {
                    let ran = run(&raw_cfg, w, mode, NullSink, NoFaults, CycleBudget::UNLIMITED)?;
                    verified("Raw CSLC", KernelInput::Cslc(w), ran)
                };
                let cache = moded(CslcMode::CacheMimd)?;
                let stream = moded(CslcMode::StreamInterface)?;
                Ok(format!(
                    "Raw CSLC, cache-mode vs stream-interface (measured): {} -> {} cycles ({:.0}% faster; paper projects ~70% FFT gain)\n",
                    cache.cycles,
                    stream.cycles,
                    100.0 * (cache.cycles.get() as f64 / stream.cycles.get() as f64 - 1.0)
                ))
            }
            AblationTask::ImagineSrfTables => {
                use triarch_imagine::programs::beam_steering::{run, TablePlacement};
                let cfg = triarch_imagine::ImagineConfig::paper();
                let w = &workloads.beam_steering;
                let placed = |placement| {
                    let ran = run(&cfg, w, placement, NullSink, NoFaults, CycleBudget::UNLIMITED)?;
                    verified("Imagine beam steering", KernelInput::BeamSteering(w), ran)
                };
                let dram = placed(TablePlacement::Dram)?;
                let srf = placed(TablePlacement::SrfResident)?;
                Ok(format!(
                    "Imagine beam steering, DRAM tables vs SRF-resident (measured): {} -> {} cycles ({:.1}x; paper projects ~2x)\n",
                    dram.cycles,
                    srf.cycles,
                    dram.cycles.ratio(srf.cycles)
                ))
            }
            AblationTask::DwellSweep => {
                let sweep = dwell_sweep(
                    workloads.beam_steering.elements().min(256),
                    workloads.beam_steering.directions(),
                    &[1, 2, 4, 8],
                    7,
                )?;
                Ok(format!("\nBeam-steering dwell sweep (cycles):\n{sweep}"))
            }
        }
    }
}

/// Renders every ablation for the given workload set, the independent
/// studies fanned out over `jobs` pool workers; fragments are
/// concatenated in fixed report order, so the output is byte-identical at
/// any worker count.
///
/// # Errors
///
/// Propagates the first simulator error in report order, or
/// [`SimError::JobPanicked`] if a study panicked.
pub fn render_all_jobs(
    workloads: &WorkloadSet,
    jobs: usize,
) -> Result<(String, PoolStats), SimError> {
    let (fragments, stats) =
        run_jobs(jobs, AblationTask::ALL.to_vec(), |task| task.fragment(workloads))?;
    Ok((fragments.concat(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_kernels::Kernel;

    #[test]
    fn tiling_rescues_the_baseline_corner_turn() {
        // Power-of-two column strides of at least 512 words trigger the
        // set-aliasing wall in the naive loop.
        let w = CornerTurnWorkload::with_dims(512, 512, 3).unwrap();
        let (naive, blocked) = ppc_blocked_corner_turn(&w, 8).unwrap();
        assert!(naive.ratio(blocked) > 2.0, "tiling should win big: {naive} vs {blocked}");
    }

    #[test]
    fn raw_stream_fft_projection_is_meaningful() {
        let workloads = WorkloadSet::small(2).unwrap();
        let run = Architecture::Raw.machine().unwrap().run(Kernel::Cslc, &workloads).unwrap();
        let (measured, projected) = raw_stream_fft_estimate(&run);
        let gain = measured.get() as f64 / projected.get() as f64;
        // Paper: "about 70% of FFT performance improvement".
        assert!(gain > 1.3 && gain < 2.2, "gain {gain}");
    }

    #[test]
    fn imagine_srf_projection_is_roughly_two_fold() {
        let workloads = WorkloadSet::paper(2).unwrap();
        let run =
            Architecture::Imagine.machine().unwrap().run(Kernel::BeamSteering, &workloads).unwrap();
        let (measured, projected) = imagine_srf_beam_estimate(&run);
        let gain = measured.ratio(projected);
        assert!(gain > 1.5 && gain < 3.0, "gain {gain}");
    }

    #[test]
    fn dwell_sweep_scales_linearly() {
        let t = dwell_sweep(128, 2, &[1, 2, 4], 3).unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn parallel_report_is_byte_identical_to_serial() {
        let workloads = WorkloadSet::small(5).unwrap();
        let serial = render_all_jobs(&workloads, 1).unwrap().0;
        let (parallel, stats) = render_all_jobs(&workloads, 4).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(stats.jobs, AblationTask::ALL.len());
    }
}
