//! Raw beam steering (paper Sections 3.3 / 4.4): stream mode.
//!
//! "We used the static network to stream data from memory while hiding
//! memory latency. In this implementation, loads and stores are not
//! necessary and ALU utilization is very high. The Raw beam steering
//! implementation has the best performance of the three architectures
//! because of the combination of memory bandwidth and high ALU
//! utilization."

use triarch_kernels::beam_steering::BeamSteeringWorkload;
use triarch_kernels::KernelOutput;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{AccessPattern, CycleBudget, KernelRun, SimError};

use crate::config::RawConfig;
use crate::machine::RawMachine;

/// Runs beam steering on Raw.
///
/// Trace events go to `sink`; `faults` is consulted at every DRAM transfer and
/// its effects are applied; `budget` is the watchdog on simulated cycles.
///
/// # Errors
///
/// Returns [`SimError`] if tables and output exceed off-chip memory, plus
/// [`SimError::DetectedFault`] / [`SimError::BudgetExceeded`] from the hook and
/// watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &RawConfig,
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
    if needed > cfg.mem_words {
        return Err(SimError::capacity("raw off-chip memory", needed, cfg.mem_words));
    }

    let mut m = RawMachine::with_hooks(cfg, sink, faults, budget)?;
    let cal_a: Vec<u32> = workload.cal_coarse().iter().map(|&v| v as u32).collect();
    let cal_b: Vec<u32> = workload.cal_fine().iter().map(|&v| v as u32).collect();
    m.memory_mut().write_block_u32(cal_a_base, &cal_a)?;
    m.memory_mut().write_block_u32(cal_b_base, &cal_b)?;

    let tiles = cfg.tiles();
    let mesh_hops = (2 * (cfg.mesh_width - 1)) as u64; // worst-case port-to-tile path

    // Each tile owns a contiguous element range; calibration words stream
    // in over the static network, results stream back out.
    for dwell in 0..workload.dwells() {
        let dwell_base = (dwell as i32).wrapping_mul(workload.dwell_stride());
        m.begin_phase()?;
        for d in 0..workload.directions() {
            let inc = workload.phase_inc()[d];
            for tile in 0..tiles {
                let e0 = e * tile / tiles;
                let e1 = e * (tile + 1) / tiles;
                if e0 == e1 {
                    continue;
                }
                let count = (e1 - e0) as u64;

                // Functional: compute the owned slice of outputs.
                for elem in e0..e1 {
                    let acc = workload.steer_bias().wrapping_add(inc.wrapping_mul(elem as i32 + 1));
                    let sum = (workload.cal_coarse()[elem])
                        .wrapping_add(workload.cal_fine()[elem])
                        .wrapping_add(workload.dir_offset()[d])
                        .wrapping_add(dwell_base)
                        .wrapping_add(acc);
                    let out = sum >> workload.shift();
                    let idx = out_base + (dwell * workload.directions() + d) * e + elem;
                    m.memory_mut().write_u32(idx, out as u32)?;
                }

                // Timing: operands arrive from the network and results
                // leave on it — no loads or stores, just the 5 adds and
                // 1 shift per output.
                m.tile_issue(tile, count * 6)?;
                m.count_ops(count * 6);
                m.tile_net_words(tile, count * 3, mesh_hops)?;
            }
            // Port traffic: two table reads and one result write per
            // output, streamed sequentially.
            let n = e as u64;
            m.dram_traffic(cal_a_base, 2 * n as usize, AccessPattern::Sequential)?;
            m.dram_traffic(
                out_base + (dwell * workload.directions() + d) * e,
                e,
                AccessPattern::Sequential,
            )?;
        }
        m.end_phase(false)?;
    }

    let raw_out = m.memory().read_block_u32(out_base, workload.outputs())?;
    let got: Vec<i32> = raw_out.into_iter().map(|v| v as i32).collect();
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
    fn plain(cfg: &RawConfig, workload: &BeamSteeringWorkload) -> Result<KernelRun, SimError> {
        let (mut result, output) = run(cfg, workload, NullSink, NoFaults, CycleBudget::UNLIMITED)?;
        result.verification = check(KernelInput::BeamSteering(workload), &output);
        Ok(result)
    }

    #[test]
    fn output_is_bit_exact() {
        let w = BeamSteeringWorkload::new(321, 4, 3, 11).unwrap();
        let run = plain(&RawConfig::paper(), &w).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
    }

    #[test]
    fn no_load_store_issue_beyond_alu_ops() {
        let w = BeamSteeringWorkload::paper(11).unwrap();
        let run = plain(&RawConfig::paper(), &w).unwrap();
        // Stream mode: issue is pure ALU work — 6 instructions per output
        // on the busiest tile.
        let per_tile_outputs = (1608usize.div_ceil(16) * 4) as u64; // per dwell
        let expected_issue = per_tile_outputs * 6 * 8; // 8 dwells
        let issue = run.breakdown.get("issue").get();
        assert!(issue <= expected_issue + 16, "issue {issue} vs {expected_issue}");
        // ALU utilization is very high: issue dominates everything else.
        assert!(run.breakdown.fraction("issue") > 0.8, "{}", run.breakdown);
    }

    #[test]
    fn fewer_elements_than_tiles() {
        let w = BeamSteeringWorkload::new(5, 2, 1, 0).unwrap();
        let run = plain(&RawConfig::paper(), &w).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
    }
}
