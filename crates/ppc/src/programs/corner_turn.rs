//! G4 corner turn: the naive row-major-read / column-major-write loop.
//!
//! The strided writes alias into a handful of cache sets (1024-element
//! rows are a power of two), so both cache levels thrash and virtually
//! every store goes to memory — which is why the paper finds AltiVec
//! "does not significantly improve performance for the corner turn, which
//! is limited by main memory bandwidth".

use triarch_kernels::corner_turn::CornerTurnWorkload;
use triarch_kernels::KernelOutput;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, SimError};

use super::Variant;
use crate::config::PpcConfig;
use crate::machine::PpcMachine;

/// Runs the corner turn on the G4.
///
/// Trace events go to `sink`; `faults` is consulted at the memory transfer of
/// each output row and its effects are applied; `budget` is the watchdog on
/// simulated cycles.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for a degenerate configuration, plus
/// [`SimError::DetectedFault`] / [`SimError::BudgetExceeded`] from the hook and
/// watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &PpcConfig,
    workload: &CornerTurnWorkload,
    variant: Variant,
    sink: S,
    faults: F,
    budget: CycleBudget,
) -> Result<(KernelRun, KernelOutput), SimError> {
    let rows = workload.rows();
    let cols = workload.cols();
    let src = workload.source_slice();
    let mut dst = vec![0u32; rows * cols];
    let mut m = PpcMachine::with_hooks(cfg, sink, faults, budget)?;

    // Virtual layout: src at 0, dst right after.
    let dst_base = rows * cols;
    let lanes = cfg.vector_lanes;

    match variant {
        Variant::Scalar => {
            for r in 0..rows {
                for c in 0..cols {
                    m.load(r * cols + c);
                    dst[c * rows + r] = src[r * cols + c];
                    m.store(dst_base + c * rows + r);
                    m.issue(2); // index arithmetic + loop
                }
                m.check_budget()?;
            }
        }
        Variant::Altivec => {
            // Vector loads along each source row, then element stores:
            // the destinations of one vector's four lanes lie a full
            // column apart, and AltiVec offers no scatter, so every lane
            // is written with a scalar store into the same thrashing sets
            // as the scalar code. This is why the paper finds AltiVec
            // "does not significantly improve performance for the corner
            // turn, which is limited by main memory bandwidth".
            for r in 0..rows {
                let mut c = 0;
                while c < cols {
                    let w = lanes.min(cols - c);
                    m.vector_load(r * cols + c);
                    m.issue(2); // extract/permute lanes
                    for dc in 0..w {
                        dst[(c + dc) * rows + r] = src[r * cols + (c + dc)];
                        m.store(dst_base + (c + dc) * rows + r);
                    }
                    m.issue(1);
                    c += w;
                }
                m.check_budget()?;
            }
        }
    }

    // The destination matrix crosses the DRAM fault surface as one long
    // streamed write-back.
    m.fault_transfer(dst_base, &mut dst)?;
    m.checkpoint("transpose-loop-done");
    Ok((m.finish(), KernelOutput::Words(dst)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_kernels::verify::check;
    use triarch_kernels::KernelInput;
    use triarch_simcore::faults::NoFaults;
    use triarch_simcore::trace::NullSink;
    use triarch_simcore::Verification;

    /// The plain run: untraced, unfaulted, unlimited budget, and checked
    /// by the study's one verifier.
    fn plain(
        cfg: &PpcConfig,
        workload: &CornerTurnWorkload,
        variant: Variant,
    ) -> Result<KernelRun, SimError> {
        let (mut result, output) =
            run(cfg, workload, variant, NullSink, NoFaults, CycleBudget::UNLIMITED)?;
        result.verification = check(KernelInput::CornerTurn(workload), &output);
        Ok(result)
    }

    #[test]
    fn both_variants_are_bit_exact() {
        let w = CornerTurnWorkload::with_dims(50, 70, 2).unwrap();
        for v in [Variant::Scalar, Variant::Altivec] {
            let run = plain(&PpcConfig::paper(), &w, v).unwrap();
            assert_eq!(run.verification, Verification::BitExact, "{v:?}");
        }
    }

    #[test]
    fn altivec_barely_helps_the_corner_turn() {
        // Power-of-two dimensions trigger the set-aliasing wall.
        let w = CornerTurnWorkload::with_dims(512, 512, 1).unwrap();
        let scalar = plain(&PpcConfig::paper(), &w, Variant::Scalar).unwrap();
        let altivec = plain(&PpcConfig::paper(), &w, Variant::Altivec).unwrap();
        let speedup = scalar.cycles.ratio(altivec.cycles);
        assert!(speedup > 1.0 && speedup < 1.6, "speedup {speedup}");
        // Store stalls dominate both.
        assert!(scalar.breakdown.fraction("store-stall") > 0.5);
    }
}
