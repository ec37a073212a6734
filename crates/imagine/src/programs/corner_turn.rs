//! Imagine corner turn (paper Section 3.1).
//!
//! "We divide the matrix into multi-row strips that allows us to use the
//! stream register files. … Since the rows within a stream are read
//! sequentially, we maximize memory bandwidth during the reading. The
//! Imagine clusters are used to route data in the correct output order.
//! … The output data is partitioned into … eight-word blocks. The eight
//! words in a block are written sequentially, but the blocks are written
//! with a non-unit stride."

use triarch_kernels::corner_turn::CornerTurnWorkload;
use triarch_kernels::KernelOutput;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{AccessPattern, CycleBudget, KernelRun, SimError};

use crate::config::ImagineConfig;
use crate::machine::{ClusterOps, ImagineMachine};

/// Pad words appended to destination rows so chunked writes rotate across
/// DRAM banks.
pub const DST_PAD_WORDS: usize = 8;

/// Runs the strip-streamed corner turn.
///
/// Trace events go to `sink`; `faults` is consulted at every DRAM transfer and
/// its effects are applied; `budget` is the watchdog on simulated cycles.
///
/// # Errors
///
/// Returns [`SimError`] if a single matrix row cannot fit in half the SRF or
/// memory is exhausted, plus [`SimError::DetectedFault`] /
/// [`SimError::BudgetExceeded`] from the hook and watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &ImagineConfig,
    workload: &CornerTurnWorkload,
    sink: S,
    faults: F,
    budget: CycleBudget,
) -> Result<(KernelRun, KernelOutput), SimError> {
    let rows = workload.rows();
    let cols = workload.cols();
    let src_base = 0usize;
    let dst_pitch = rows + DST_PAD_WORDS;
    let dst_base = rows * cols;
    let needed = dst_base + cols * dst_pitch;
    if needed > cfg.mem_words {
        return Err(SimError::capacity("imagine off-chip memory", needed, cfg.mem_words));
    }

    // Strip height: input strip plus transposed staging buffer must fit
    // the SRF (double-buffered halves).
    let half_srf = cfg.srf_words / 2;
    let strip = (half_srf / cols).max(1).min(rows);
    if cols > half_srf {
        return Err(SimError::capacity("imagine SRF (one matrix row)", cols, half_srf));
    }

    let mut m = ImagineMachine::with_hooks(cfg, sink, faults, budget)?;
    // Paper mapping: four input streams plus one output stream.
    m.declare_streams(5)?;
    m.memory_mut().write_block_u32(src_base, workload.source_slice())?;

    let mut r0 = 0;
    while r0 < rows {
        let h = strip.min(rows - r0);
        m.srf_reset();
        let in_range = m.srf_alloc(h * cols)?;
        let out_range = m.srf_alloc(h * cols)?;

        m.begin_overlap()?;
        // Sequential read of the whole strip maximizes DRAM bandwidth.
        m.stream_in(src_base + r0 * cols, in_range, h * cols, AccessPattern::Sequential)?;

        // Clusters route each word to its transposed position: one
        // communication-unit pass per word.
        for r in 0..h {
            for c in 0..cols {
                let v = m.srf().read_u32(in_range.start + r * cols + c)?;
                m.srf_mut().write_u32(out_range.start + c * h + r, v)?;
            }
        }
        m.kernel_exec(ClusterOps { comms: (h * cols) as u64, ..Default::default() })?;

        // Output stream: h-word chunks (one per destination row), written
        // with the destination pitch as the block stride.
        m.stream_out(
            out_range,
            dst_base + r0,
            h * cols,
            AccessPattern::Chunked { chunk_words: h, stride_words: dst_pitch },
        )?;
        m.end_overlap()?;
        r0 += h;
    }

    let mut out = Vec::with_capacity(rows * cols);
    for c in 0..cols {
        out.extend(m.memory().read_block_u32(dst_base + c * dst_pitch, rows)?);
    }
    Ok((m.finish()?, KernelOutput::Words(out)))
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
    fn plain(cfg: &ImagineConfig, workload: &CornerTurnWorkload) -> Result<KernelRun, SimError> {
        let (mut result, output) = run(cfg, workload, NullSink, NoFaults, CycleBudget::UNLIMITED)?;
        result.verification = check(KernelInput::CornerTurn(workload), &output);
        Ok(result)
    }

    #[test]
    fn small_transpose_is_bit_exact() {
        let w = CornerTurnWorkload::with_dims(48, 40, 3).unwrap();
        let run = plain(&ImagineConfig::paper(), &w).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
    }

    #[test]
    fn strip_larger_than_srf_still_works_by_shrinking() {
        // 1024-wide rows: strip of 16 rows fits half the 32K-word SRF.
        let w = CornerTurnWorkload::with_dims(64, 1024, 3).unwrap();
        let run = plain(&ImagineConfig::paper(), &w).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
    }

    #[test]
    fn row_wider_than_half_srf_is_capacity_error() {
        let w = CornerTurnWorkload::with_dims(2, 20_000, 0).unwrap();
        assert!(matches!(plain(&ImagineConfig::paper(), &w), Err(SimError::Capacity { .. })));
    }

    #[test]
    fn memory_dominates_cycles() {
        let w = CornerTurnWorkload::with_dims(128, 256, 1).unwrap();
        let run = plain(&ImagineConfig::paper(), &w).unwrap();
        // Paper Section 4.2: 87% of Imagine corner-turn cycles are memory.
        let mem = run.breakdown.fraction("memory") + run.breakdown.fraction("precharge");
        assert!(mem > 0.6, "memory fraction {mem}");
        assert!(run.breakdown.get("unoverlapped").get() > 0);
    }
}
