//! VIRAM beam steering (paper Section 3.3): "we used hand-vectorization
//! of the main portion of the beam steering … the data is fed to the
//! vector unit, which computes output data."
//!
//! Per 64-element block: two unit-stride table loads, a short chain of
//! integer vector adds and one shift, and a unit-stride store. The chain
//! is dependent, so memory and compute do not overlap (the paper: the
//! computation lower bound is ~56% of the time, the rest is "waiting for
//! the results from previous vector operations and the cycles needed to
//! initialize the vector operations").

use triarch_kernels::beam_steering::BeamSteeringWorkload;
use triarch_kernels::KernelOutput;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, SimError};

use crate::config::ViramConfig;
use crate::vector::{IntOp, VectorUnit};

// Register map.
const V_CAL_A: usize = 0;
const V_CAL_B: usize = 1;
const V_SUM: usize = 2;
const V_ACC: usize = 3;
const V_RAMP: usize = 4;
const V_BASE: usize = 5;
const V_OUT: usize = 6;

/// Runs beam steering on VIRAM.
///
/// Trace events go to `sink`; `faults` is consulted at every DRAM transfer and
/// its effects are applied; `budget` is the watchdog on simulated cycles.
///
/// # Errors
///
/// Returns [`SimError`] if tables and output do not fit in on-chip DRAM, plus
/// [`SimError::DetectedFault`] / [`SimError::BudgetExceeded`] from the hook and
/// watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &ViramConfig,
    workload: &BeamSteeringWorkload,
    sink: S,
    faults: F,
    budget: CycleBudget,
) -> Result<(KernelRun, KernelOutput), SimError> {
    let e = workload.elements();
    let cal_a_base = 0usize;
    let cal_b_base = e;
    let out_base = 2 * e;
    let needed = out_base + workload.outputs();
    if needed > cfg.dram_words {
        return Err(SimError::capacity("viram on-chip DRAM", needed, cfg.dram_words));
    }

    let mut unit = VectorUnit::with_hooks(cfg, sink, faults, budget)?;
    let cal_a: Vec<u32> = workload.cal_coarse().iter().map(|&v| v as u32).collect();
    let cal_b: Vec<u32> = workload.cal_fine().iter().map(|&v| v as u32).collect();
    unit.memory_mut().write_block_u32(cal_a_base, &cal_a)?;
    unit.memory_mut().write_block_u32(cal_b_base, &cal_b)?;

    let mvl = cfg.mvl;
    let mut ramp = vec![0u32; mvl];
    for dwell in 0..workload.dwells() {
        let dwell_base = (dwell as i32).wrapping_mul(workload.dwell_stride());
        for d in 0..workload.directions() {
            let inc = workload.phase_inc()[d];
            // Per-direction phase ramp: inc·1, inc·2, …, inc·mvl.
            for (i, step) in ramp.iter_mut().enumerate() {
                *step = inc.wrapping_mul(i as i32 + 1) as u32;
            }
            unit.vset_table(V_RAMP, &ramp)?;
            let mut e0 = 0usize;
            while e0 < e {
                let vl = mvl.min(e - e0);
                // All scalar terms fold into one splat: dir offset, dwell
                // base, steering bias, and the accumulator value entering
                // this block.
                let base = workload.dir_offset()[d]
                    .wrapping_add(dwell_base)
                    .wrapping_add(workload.steer_bias())
                    .wrapping_add(inc.wrapping_mul(e0 as i32));
                // Table loads stream while the previous block's add chain
                // drains; the dependent chain itself stays serial, so the
                // block pays max(memory, compute) plus startup waits — the
                // paper's "computation lower bound is 56% of the
                // simulation time".
                unit.begin_overlap()?;
                unit.vsplat(V_BASE, base as u32, vl)?;
                unit.vint(IntOp::Add, V_ACC, V_RAMP, V_BASE, 0, vl)?;
                unit.vload_unit(V_CAL_A, cal_a_base + e0, vl)?;
                unit.vload_unit(V_CAL_B, cal_b_base + e0, vl)?;
                unit.vint(IntOp::Add, V_SUM, V_CAL_A, V_CAL_B, 0, vl)?;
                unit.vint(IntOp::Add, V_SUM, V_SUM, V_ACC, 0, vl)?;
                unit.vint(IntOp::Shr, V_OUT, V_SUM, V_SUM, workload.shift(), vl)?;
                let out_off = out_base + (dwell * workload.directions() + d) * e + e0;
                unit.vstore_unit(V_OUT, out_off, vl)?;
                unit.end_overlap()?;
                // Result-dependency wait between the load pair and the
                // first add of the chain.
                unit.scalar(2 + cfg.vector_startup * 2);
                e0 += vl;
            }
        }
    }

    let raw = unit.memory().read_block_u32(out_base, workload.outputs())?;
    let got: Vec<i32> = raw.into_iter().map(|v| v as i32).collect();
    Ok((unit.finish()?, KernelOutput::Ints(got)))
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
    fn plain(cfg: &ViramConfig, workload: &BeamSteeringWorkload) -> Result<KernelRun, SimError> {
        let (mut result, output) = run(cfg, workload, NullSink, NoFaults, CycleBudget::UNLIMITED)?;
        result.verification = check(KernelInput::BeamSteering(workload), &output);
        Ok(result)
    }

    #[test]
    fn output_is_bit_exact() {
        let w = BeamSteeringWorkload::new(200, 4, 2, 9).unwrap();
        let run = plain(&ViramConfig::paper(), &w).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
    }

    #[test]
    fn non_multiple_of_mvl_elements() {
        let w = BeamSteeringWorkload::new(65, 3, 1, 9).unwrap();
        let run = plain(&ViramConfig::paper(), &w).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
    }

    #[test]
    fn pipeline_bound_is_majority_but_not_all() {
        let w = BeamSteeringWorkload::paper(9).unwrap();
        let run = plain(&ViramConfig::paper(), &w).unwrap();
        // The slower pipe (memory: 3 words/output at 8 words/cycle)
        // bounds each block; the paper's equivalent statement is that the
        // lower bound is ~56% of simulated time, the rest being startup
        // and dependency waits.
        let bound = run.breakdown.fraction("memory");
        assert!(bound > 0.35 && bound < 0.85, "memory fraction {bound}");
        assert!(run.breakdown.get("scalar").get() > 0, "dependency waits must appear");
    }

    #[test]
    fn capacity_error_on_tiny_dram() {
        let mut cfg = ViramConfig::paper();
        cfg.dram_words = 16;
        let w = BeamSteeringWorkload::new(200, 4, 2, 9).unwrap();
        assert!(matches!(plain(&cfg, &w), Err(SimError::Capacity { .. })));
    }
}
