//! Raw corner turn (paper Section 3.1).
//!
//! "Our corner turn on Raw uses one load and one store operation for each
//! DRAM-to-DRAM transfer. The algorithm … was developed to ensure that
//! all 16 Raw tiles are doing a load or store during as many cycles as
//! possible and to avoid bottlenecks in the static networks and data
//! ports. The algorithm operates on 64×64 word blocks that fit in a
//! single local tile memory. Main memory operations are all done
//! sequentially to maximize memory bandwidth since the transpose can be
//! done in local memories, where all accesses are done in a single
//! cycle."

use triarch_kernels::corner_turn::CornerTurnWorkload;
use triarch_kernels::KernelOutput;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{AccessPattern, CycleBudget, KernelRun, SimError};

use crate::config::RawConfig;
use crate::machine::RawMachine;

/// Pad words appended to both matrices' rows so chunked port transfers
/// rotate across DRAM banks.
pub const ROW_PAD_WORDS: usize = 8;

/// Runs the 16-tile blocked corner turn.
///
/// Trace events go to `sink`; `faults` is consulted at every DRAM transfer and
/// its effects are applied; `budget` is the watchdog on simulated cycles.
///
/// # Errors
///
/// Returns [`SimError`] if the matrices do not fit off-chip memory, plus
/// [`SimError::DetectedFault`] / [`SimError::BudgetExceeded`] from the hook and
/// watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &RawConfig,
    workload: &CornerTurnWorkload,
    sink: S,
    faults: F,
    budget: CycleBudget,
) -> Result<(KernelRun, KernelOutput), SimError> {
    let rows = workload.rows();
    let cols = workload.cols();
    let src_pitch = cols + ROW_PAD_WORDS;
    let dst_pitch = rows + ROW_PAD_WORDS;
    let src_base = 0usize;
    let dst_base = rows * src_pitch;
    let needed = dst_base + cols * dst_pitch;
    if needed > cfg.mem_words {
        return Err(SimError::capacity("raw off-chip memory", needed, cfg.mem_words));
    }

    // Block edge: 64x64 words fit one tile's local store (paper); shrink
    // for smaller local memories or matrices.
    let block = 64usize.min((cfg.local_words as f64).sqrt() as usize).min(rows).min(cols).max(1);

    let mut m = RawMachine::with_hooks(cfg, sink, faults, budget)?;
    let data = workload.source_slice();
    for r in 0..rows {
        m.memory_mut()
            .write_block_u32(src_base + r * src_pitch, &data[r * cols..(r + 1) * cols])?;
    }

    let row_blocks = rows.div_ceil(block);
    let col_blocks = cols.div_ceil(block);
    let tiles = cfg.tiles();
    let total_blocks = row_blocks * col_blocks;

    let mut next = 0usize;
    while next < total_blocks {
        // One round: up to one block per tile, all tiles load/storing.
        m.begin_phase()?;
        let round_end = (next + tiles).min(total_blocks);
        for (tile, b) in (next..round_end).enumerate() {
            let br = (b / col_blocks) * block;
            let bc = (b % col_blocks) * block;
            let h = block.min(rows - br);
            let w = block.min(cols - bc);

            // Load the block into the tile's local store (one load
            // instruction per word) …
            for r in 0..h {
                let row = m.memory().read_block_u32(src_base + (br + r) * src_pitch + bc, w)?;
                m.local_mut(tile)?.write_block_u32(r * w, &row)?;
            }
            m.dram_traffic(
                src_base + br * src_pitch + bc,
                h * w,
                AccessPattern::Chunked { chunk_words: w, stride_words: src_pitch },
            )?;
            m.tile_issue(tile, (h * w) as u64)?;

            // … transpose in local memory (single-cycle accesses folded
            // into the store addressing) and store it back.
            for c in 0..w {
                let mut out_row = Vec::with_capacity(h);
                for r in 0..h {
                    out_row.push(m.local_mut(tile)?.read_u32(r * w + c)?);
                }
                m.memory_mut().write_block_u32(dst_base + (bc + c) * dst_pitch + br, &out_row)?;
            }
            m.dram_traffic(
                dst_base + bc * dst_pitch + br,
                h * w,
                AccessPattern::Chunked { chunk_words: h, stride_words: dst_pitch },
            )?;
            m.tile_issue(tile, (h * w) as u64)?;
        }
        m.end_phase(false)?;
        next = round_end;
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
    fn plain(cfg: &RawConfig, workload: &CornerTurnWorkload) -> Result<KernelRun, SimError> {
        let (mut result, output) = run(cfg, workload, NullSink, NoFaults, CycleBudget::UNLIMITED)?;
        result.verification = check(KernelInput::CornerTurn(workload), &output);
        Ok(result)
    }

    #[test]
    fn small_transpose_is_bit_exact() {
        let w = CornerTurnWorkload::with_dims(96, 80, 4).unwrap();
        let run = plain(&RawConfig::paper(), &w).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
    }

    #[test]
    fn odd_sizes_and_partial_blocks() {
        for (r, c) in [(1usize, 1usize), (65, 3), (70, 130)] {
            let w = CornerTurnWorkload::with_dims(r, c, 1).unwrap();
            let run = plain(&RawConfig::paper(), &w).unwrap();
            assert_eq!(run.verification, Verification::BitExact, "{r}x{c}");
        }
    }

    #[test]
    fn issue_rate_is_the_bound_not_memory() {
        let w = CornerTurnWorkload::with_dims(256, 256, 1).unwrap();
        let run = plain(&RawConfig::paper(), &w).unwrap();
        // Paper Section 4.2: load/store issue rates limit performance;
        // the DRAM ports are not a bottleneck.
        assert!(run.breakdown.fraction("issue") > 0.7, "{}", run.breakdown);
        assert_eq!(run.breakdown.get("memory").get(), 0);
        // 2 instructions per word across 16 tiles.
        let ideal = 2 * 256 * 256 / 16;
        assert!(run.cycles.get() < ideal as u64 * 13 / 10);
    }

    #[test]
    fn capacity_error_on_tiny_memory() {
        let mut cfg = RawConfig::paper();
        cfg.mem_words = 512;
        let w = CornerTurnWorkload::with_dims(64, 64, 0).unwrap();
        assert!(matches!(plain(&cfg, &w), Err(SimError::Capacity { .. })));
    }
}
