//! DPU corner turn: the kernel the missing inter-DPU network makes
//! expensive.
//!
//! Each DPU receives a strip of matrix rows, transposes its strip
//! locally (MRAM → WRAM → MRAM, with one DMA transfer per row segment on
//! the strided side), and hands the transposed strip back. No DPU can
//! exchange a tile with a neighbour, so assembling the full transpose is
//! the host's problem: every word of the matrix round-trips over the
//! narrow host↔MRAM interface twice, and that bulk traffic — not the
//! bank-local DMA — dominates the cycle count. The 2003 PIM (VIRAM)
//! turns the same kernel entirely inside its on-chip DRAM.

use triarch_kernels::corner_turn::CornerTurnWorkload;
use triarch_kernels::KernelOutput;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, SimError};

use crate::config::DpuConfig;
use crate::machine::DpuMachine;

/// Runs the strip-partitioned corner turn.
///
/// Trace events go to `sink`; `faults` is consulted at every host/DMA transfer
/// and its effects are applied; `budget` is the watchdog on simulated cycles.
///
/// # Errors
///
/// Returns [`SimError`] when a strip exceeds an MRAM bank, a row block exceeds
/// the WRAM scratchpad, or host memory is exhausted, plus
/// [`SimError::DetectedFault`] / [`SimError::BudgetExceeded`] from the hook and
/// watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &DpuConfig,
    workload: &CornerTurnWorkload,
    sink: S,
    faults: F,
    budget: CycleBudget,
) -> Result<(KernelRun, KernelOutput), SimError> {
    let rows = workload.rows();
    let cols = workload.cols();
    let dpus = cfg.dpus();
    let rows_per_dpu = rows.div_ceil(dpus);
    let strip_cap = rows_per_dpu * cols;

    // Host layout: source matrix, transposed destination, one strip-sized
    // staging buffer for bulk pulls.
    let src_base = 0usize;
    let dst_base = rows * cols;
    let stage_base = 2 * rows * cols;
    let needed = stage_base + strip_cap;
    if needed > cfg.host_mem_words {
        return Err(SimError::capacity("dpu host memory", needed, cfg.host_mem_words));
    }
    // Per-DPU MRAM bank layout: input strip, then transposed strip.
    if 2 * strip_cap > cfg.mram_words_per_dpu {
        return Err(SimError::capacity(
            "mram bank (row strip)",
            2 * strip_cap,
            cfg.mram_words_per_dpu,
        ));
    }

    let mut m = DpuMachine::with_hooks(cfg, sink, faults, budget)?;
    m.host_mut().write_block_u32(src_base, workload.source_slice())?;

    // Scatter: one bulk push per DPU carries its whole strip.
    let strip = |d: usize| {
        let r0 = d * rows_per_dpu;
        (r0, rows_per_dpu.min(rows.saturating_sub(r0)))
    };
    for d in 0..dpus {
        let (r0, h) = strip(d);
        if h == 0 {
            break;
        }
        m.host_push(src_base + r0 * cols, d, 0, h * cols)?;
    }

    m.launch()?;
    for d in 0..dpus {
        let (_, h) = strip(d);
        if h == 0 {
            break;
        }
        // Column blocks sized so an input block and its transposed output
        // block both fit the scratchpad.
        let block_cols = ((cfg.wram_words / 2) / h).max(1).min(cols);
        let mut c0 = 0;
        while c0 < cols {
            let bc = block_cols.min(cols - c0);
            m.wram_reset();
            let in_w = m.wram_alloc(h * bc)?;
            let out_w = m.wram_alloc(h * bc)?;
            // The block is strided across the row-major strip: one DMA
            // transfer per row segment (the PrIM strided-access tax).
            for r in 0..h {
                let seg = crate::machine::WramRange { start: in_w.start + r * bc, len: bc };
                m.dma_read(d, r * cols + c0, seg, bc)?;
            }
            // Tasklets route each word to its transposed slot: one load
            // and one store per word, no arithmetic.
            for r in 0..h {
                for c in 0..bc {
                    let v = m.wram().read_u32(in_w.start + r * bc + c)?;
                    m.wram_mut().write_u32(out_w.start + c * h + r, v)?;
                }
            }
            m.exec(d, 2 * (h * bc) as u64, 0)?;
            // Transposed columns are contiguous: one DMA transfer each.
            for c in 0..bc {
                let seg = crate::machine::WramRange { start: out_w.start + c * h, len: h };
                m.dma_write(d, seg, strip_cap + (c0 + c) * h, h)?;
            }
            c0 += bc;
        }
    }
    m.sync()?;

    // Gather: one bulk pull per DPU, then the host interleaves the strips
    // into the final column-major matrix. The interleave itself is host
    // CPU work off the simulated module's critical path; what the missing
    // inter-DPU network costs is the bulk round trip charged above.
    for d in 0..dpus {
        let (r0, h) = strip(d);
        if h == 0 {
            break;
        }
        m.host_pull(d, strip_cap, stage_base, cols * h)?;
        for c in 0..cols {
            let col = m.host().read_block_u32(stage_base + c * h, h)?;
            m.host_mut().write_block_u32(dst_base + c * rows + r0, &col)?;
        }
    }

    let out = m.host().read_block_u32(dst_base, rows * cols)?;
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
    fn plain(cfg: &DpuConfig, workload: &CornerTurnWorkload) -> Result<KernelRun, SimError> {
        let (mut result, output) = run(cfg, workload, NullSink, NoFaults, CycleBudget::UNLIMITED)?;
        result.verification = check(KernelInput::CornerTurn(workload), &output);
        Ok(result)
    }

    #[test]
    fn small_transpose_is_bit_exact() {
        let w = CornerTurnWorkload::with_dims(48, 40, 3).unwrap();
        let run = plain(&DpuConfig::paper(), &w).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
    }

    #[test]
    fn paper_shape_strips_block_through_wram() {
        let w = CornerTurnWorkload::with_dims(256, 256, 5).unwrap();
        let run = plain(&DpuConfig::paper(), &w).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
        assert!(run.breakdown.get("mram_dma").get() > 0);
    }

    #[test]
    fn fewer_dpus_than_rows_still_verifies() {
        let mut cfg = DpuConfig::paper();
        cfg.dpus_per_rank = 4; // 8 DPUs, 6 rows each
        let w = CornerTurnWorkload::with_dims(48, 64, 1).unwrap();
        let run = plain(&cfg, &w).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
    }

    #[test]
    fn host_round_trip_dominates() {
        let w = CornerTurnWorkload::with_dims(512, 512, 1).unwrap();
        let run = plain(&DpuConfig::paper(), &w).unwrap();
        // No inter-DPU communication: the transpose pays the host bulk
        // interface in both directions, which dwarfs bank-local DMA.
        let host = run.breakdown.fraction("host_xfer");
        assert!(host > 0.5, "host fraction {host}");
        assert_eq!(run.ops_executed, 0, "pure data movement");
    }

    #[test]
    fn oversized_strip_is_capacity_error() {
        let mut cfg = DpuConfig::paper();
        cfg.dpus_per_rank = 1;
        cfg.ranks = 1; // one DPU must hold the whole matrix
        let w = CornerTurnWorkload::with_dims(512, 512, 0).unwrap();
        assert!(matches!(plain(&cfg, &w), Err(SimError::Capacity { .. })));
    }
}
