//! DPU beam steering: element-partitioned integer phase computation.
//!
//! Antenna elements partition across DPUs; each DPU holds its slice of
//! both calibration tables resident in WRAM (they are tiny) and computes
//! every dwell × direction phase for its own elements with cheap integer
//! adds and shifts — the one kernel where the DPU's integer pipeline is
//! used at full rate. The per-direction phase accumulator is a closed
//! form (`bias + inc·(element+1)`), so partitioning by element needs no
//! cross-DPU carry. Outputs accumulate in the bank and return to the
//! host in one bulk pull per DPU; the host interleaves them into the
//! `[dwell][direction][element]` output order.

use triarch_kernels::beam_steering::BeamSteeringWorkload;
use triarch_kernels::KernelOutput;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, SimError};

use crate::config::DpuConfig;
use crate::machine::DpuMachine;

/// Pipeline instructions per output: 2 table loads, 5 adds, 1 shift,
/// 1 store (all single-issue integer instructions).
const INSTRS_PER_OUTPUT: u64 = 9;

/// Runs beam steering on the DPU module.
///
/// Trace events go to `sink`; `faults` is consulted at every host/DMA transfer
/// and its effects are applied; `budget` is the watchdog on simulated cycles.
///
/// # Errors
///
/// Returns [`SimError`] when the per-DPU tables/outputs exceed an MRAM bank or
/// the WRAM scratchpad, or host memory is exhausted, plus
/// [`SimError::DetectedFault`] / [`SimError::BudgetExceeded`] from the hook and
/// watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &DpuConfig,
    workload: &BeamSteeringWorkload,
    sink: S,
    faults: F,
    budget: CycleBudget,
) -> Result<(KernelRun, KernelOutput), SimError> {
    let e = workload.elements();
    let dirs = workload.directions();
    let dwells = workload.dwells();
    let beams = dwells * dirs;
    let dpus = cfg.dpus();
    let epd = e.div_ceil(dpus); // elements per DPU

    // Host layout: the two calibration tables, the output matrix, one
    // per-DPU staging buffer for bulk pulls.
    let cal_a_base = 0usize;
    let cal_b_base = e;
    let out_base = 2 * e;
    let stage_base = out_base + workload.outputs();
    let needed = stage_base + beams * epd;
    if needed > cfg.host_mem_words {
        return Err(SimError::capacity("dpu host memory", needed, cfg.host_mem_words));
    }
    // Per-DPU MRAM bank layout: table slices, then the output block.
    let mram_out = 2 * epd;
    if mram_out + beams * epd > cfg.mram_words_per_dpu {
        return Err(SimError::capacity(
            "mram bank (beam outputs)",
            mram_out + beams * epd,
            cfg.mram_words_per_dpu,
        ));
    }

    let mut m = DpuMachine::with_hooks(cfg, sink, faults, budget)?;
    let cal_a: Vec<u32> = workload.cal_coarse().iter().map(|&v| v as u32).collect();
    let cal_b: Vec<u32> = workload.cal_fine().iter().map(|&v| v as u32).collect();
    m.host_mut().write_block_u32(cal_a_base, &cal_a)?;
    m.host_mut().write_block_u32(cal_b_base, &cal_b)?;

    let slice = |d: usize| {
        let e0 = d * epd;
        (e0, epd.min(e.saturating_sub(e0)))
    };

    // Scatter: each DPU receives its slice of both tables, once.
    for d in 0..dpus {
        let (e0, n) = slice(d);
        if n == 0 {
            break;
        }
        m.host_push(cal_a_base + e0, d, 0, n)?;
        m.host_push(cal_b_base + e0, d, epd, n)?;
    }

    m.launch()?;
    for d in 0..dpus {
        let (e0, n) = slice(d);
        if n == 0 {
            break;
        }
        m.wram_reset();
        let a_w = m.wram_alloc(n)?;
        let b_w = m.wram_alloc(n)?;
        let o_w = m.wram_alloc(beams * n)?;
        m.dma_read(d, 0, a_w, n)?;
        m.dma_read(d, epd, b_w, n)?;

        for dwell in 0..dwells {
            let dwell_base = (dwell as i32).wrapping_mul(workload.dwell_stride());
            for dir in 0..dirs {
                let inc = workload.phase_inc()[dir];
                for i in 0..n {
                    let elem = e0 + i;
                    let ca = m.wram().read_u32(a_w.start + i)? as i32;
                    let cb = m.wram().read_u32(b_w.start + i)? as i32;
                    // Closed-form accumulator: bias + inc·(element+1), so
                    // element partitioning needs no cross-DPU carry.
                    let acc = workload.steer_bias().wrapping_add(inc.wrapping_mul(elem as i32 + 1));
                    let sum = ca
                        .wrapping_add(cb)
                        .wrapping_add(workload.dir_offset()[dir])
                        .wrapping_add(dwell_base)
                        .wrapping_add(acc);
                    let out = sum >> workload.shift();
                    m.wram_mut().write_u32(o_w.start + (dwell * dirs + dir) * n + i, out as u32)?;
                }
            }
        }
        let outputs_local = (beams * n) as u64;
        m.exec(d, INSTRS_PER_OUTPUT * outputs_local, 6 * outputs_local)?;
        m.dma_write(d, o_w, mram_out, beams * n)?;
    }
    m.sync()?;

    // Gather: one bulk pull per DPU; the host interleaves each DPU's
    // `[dwell][dir][local]` block into the global output order.
    let mut block = vec![0u32; epd];
    for d in 0..dpus {
        let (e0, n) = slice(d);
        if n == 0 {
            break;
        }
        m.host_pull(d, mram_out, stage_base, beams * n)?;
        let block = &mut block[..n];
        for b in 0..beams {
            m.host().read_into(stage_base + b * n, block)?;
            m.host_mut().write_block_u32(out_base + b * e + e0, block)?;
        }
    }

    let raw = m.host().read_block_u32(out_base, workload.outputs())?;
    let got: Vec<i32> = raw.into_iter().map(|v| v as i32).collect();
    Ok((m.finish()?, KernelOutput::Ints(got)))
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
    fn plain(cfg: &DpuConfig, workload: &BeamSteeringWorkload) -> Result<KernelRun, SimError> {
        let (mut result, output) = run(cfg, workload, NullSink, NoFaults, CycleBudget::UNLIMITED)?;
        result.verification = check(KernelInput::BeamSteering(workload), &output);
        Ok(result)
    }

    #[test]
    fn output_is_bit_exact() {
        let w = BeamSteeringWorkload::new(300, 4, 2, 8).unwrap();
        let run = plain(&DpuConfig::paper(), &w).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
    }

    #[test]
    fn paper_shape_is_bit_exact_and_integer_rate() {
        let w = BeamSteeringWorkload::paper(8).unwrap();
        let run = plain(&DpuConfig::paper(), &w).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
        // Integer kernel: no FP emulation factor on the pipeline term.
        assert_eq!(run.ops_executed, 51_456 * 6);
    }

    #[test]
    fn elements_not_divisible_by_dpus_still_verify() {
        let w = BeamSteeringWorkload::new(130, 3, 2, 1).unwrap();
        let run = plain(&DpuConfig::paper(), &w).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
    }

    #[test]
    fn host_pull_of_outputs_dominates_transfers() {
        let w = BeamSteeringWorkload::paper(8).unwrap();
        let run = plain(&DpuConfig::paper(), &w).unwrap();
        // Outputs outnumber table words 16:1, and they all cross the
        // host interface.
        assert!(run.breakdown.fraction("host_xfer") > 0.4);
    }

    #[test]
    fn oversized_outputs_are_capacity_error() {
        let mut cfg = DpuConfig::paper();
        cfg.ranks = 1;
        cfg.dpus_per_rank = 1;
        let w = BeamSteeringWorkload::new(60_000, 4, 2, 0).unwrap();
        assert!(matches!(plain(&cfg, &w), Err(SimError::Capacity { .. })));
    }
}
