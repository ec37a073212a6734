//! Imagine beam steering (paper Section 3.3).
//!
//! "A manually optimized kernel was written to maximize cluster ALU
//! utilization. The input data streams are loaded into the stream
//! register file and supplied to the clusters. The results are written
//! back to memory through the register file." The kernel is
//! memory-bandwidth bound: "the load and store operations take 89% of the
//! simulation time. The remaining 11% of execution time is due to the
//! software pipeline prologue."

use triarch_kernels::beam_steering::BeamSteeringWorkload;
use triarch_kernels::verify::verify_words;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{AccessPattern, CycleBudget, KernelRun, SimError};

use crate::config::ImagineConfig;
use crate::machine::{ClusterOps, ImagineMachine};

/// Where the calibration tables live during the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TablePlacement {
    /// Tables re-stream from off-chip DRAM on every batch (measured
    /// configuration; memory bound).
    Dram,
    /// Tables are loaded into the SRF once and reused across all dwells
    /// and directions — the paper's Section 4.4 projection: "If table
    /// values were read from the stream register file rather than memory
    /// on our kernel, performance would be increased by a factor of
    /// about two."
    SrfResident,
}

/// Runs beam steering on Imagine with the tables placed per `placement`;
/// [`TablePlacement::Dram`] is the paper's measured configuration.
///
/// Trace events go to `sink`; `faults` is consulted at every DRAM transfer
/// and its effects are applied; `budget` is the watchdog on simulated
/// cycles.
///
/// # Errors
///
/// Returns [`SimError`] when tables/outputs exceed off-chip memory, the
/// tables do not fit the SRF in [`TablePlacement::SrfResident`] mode, or
/// a batch cannot fit the SRF, plus [`SimError::DetectedFault`] /
/// [`SimError::BudgetExceeded`] from the hook and watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &ImagineConfig,
    workload: &BeamSteeringWorkload,
    placement: TablePlacement,
    sink: S,
    faults: F,
    budget: CycleBudget,
) -> Result<KernelRun, SimError> {
    let e = workload.elements();
    let cal_a_base = 0usize;
    let cal_b_base = e;
    let out_base = 2 * e;
    let needed = out_base + workload.outputs();
    if needed > cfg.mem_words {
        return Err(SimError::capacity("imagine off-chip memory", needed, cfg.mem_words));
    }

    let mut m = ImagineMachine::with_hooks(cfg, sink, faults, budget)?;
    // Two table input streams plus the result output stream.
    m.declare_streams(3)?;
    let cal_a: Vec<u32> = workload.cal_coarse().iter().map(|&v| v as u32).collect();
    let cal_b: Vec<u32> = workload.cal_fine().iter().map(|&v| v as u32).collect();
    m.memory_mut().write_block_u32(cal_a_base, &cal_a)?;
    m.memory_mut().write_block_u32(cal_b_base, &cal_b)?;

    // Batch size: three input/output streams per batch must fit the SRF
    // (with resident tables the batch only carries the output stream).
    let batch = (cfg.srf_words / 3).max(1).min(e);

    // With SRF-resident tables, both calibration streams load exactly
    // once, up front.
    let resident = match placement {
        TablePlacement::Dram => None,
        TablePlacement::SrfResident => {
            let a_all = m.srf_alloc(e)?;
            let b_all = m.srf_alloc(e)?;
            let o_all = m.srf_alloc(batch)?;
            m.stream_in(cal_a_base, a_all, e, AccessPattern::Sequential)?;
            m.stream_in(cal_b_base, b_all, e, AccessPattern::Sequential)?;
            Some((a_all, b_all, o_all))
        }
    };

    for dwell in 0..workload.dwells() {
        let dwell_base = (dwell as i32).wrapping_mul(workload.dwell_stride());
        for d in 0..workload.directions() {
            let inc = workload.phase_inc()[d];
            let mut e0 = 0usize;
            while e0 < e {
                let n = batch.min(e - e0);
                let (a_range, b_range, o_range) = match resident {
                    Some((a_all, b_all, o_all)) => (
                        // Tables stay put; only the output range cycles.
                        crate::machine::SrfRange { start: a_all.start + e0, len: n },
                        crate::machine::SrfRange { start: b_all.start + e0, len: n },
                        o_all,
                    ),
                    None => {
                        m.srf_reset();
                        (m.srf_alloc(n)?, m.srf_alloc(n)?, m.srf_alloc(n)?)
                    }
                };

                m.begin_overlap()?;
                if resident.is_none() {
                    m.stream_in(cal_a_base + e0, a_range, n, AccessPattern::Sequential)?;
                    m.stream_in(cal_b_base + e0, b_range, n, AccessPattern::Sequential)?;
                }

                // Kernel: 5 adds + 1 shift per output (shift retires on an
                // adder). Clusters process elements round-robin.
                for i in 0..n {
                    let elem = e0 + i;
                    let ca = m.srf().read_u32(a_range.start + i)? as i32;
                    let cb = m.srf().read_u32(b_range.start + i)? as i32;
                    let acc = workload.steer_bias().wrapping_add(inc.wrapping_mul(elem as i32 + 1));
                    let sum = ca
                        .wrapping_add(cb)
                        .wrapping_add(workload.dir_offset()[d])
                        .wrapping_add(dwell_base)
                        .wrapping_add(acc);
                    let out = sum >> workload.shift();
                    m.srf_mut().write_u32(o_range.start + i, out as u32)?;
                }
                m.kernel_exec(ClusterOps { adds: 6 * n as u64, ..Default::default() })?;

                let out_off = out_base + (dwell * workload.directions() + d) * e + e0;
                m.stream_out(o_range, out_off, n, AccessPattern::Sequential)?;
                m.end_overlap()?;
                e0 += n;
            }
        }
    }

    let raw = m.memory().read_block_u32(out_base, workload.outputs())?;
    let got: Vec<i32> = raw.into_iter().map(|v| v as i32).collect();
    let verification = verify_words(&got, &workload.reference_output());
    m.finish(verification)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_simcore::faults::NoFaults;
    use triarch_simcore::trace::NullSink;
    use triarch_simcore::Verification;

    /// The plain run: untraced, unfaulted, unlimited budget.
    fn plain(
        cfg: &ImagineConfig,
        workload: &BeamSteeringWorkload,
        placement: TablePlacement,
    ) -> Result<KernelRun, SimError> {
        run(cfg, workload, placement, NullSink, NoFaults, CycleBudget::UNLIMITED)
    }

    #[test]
    fn output_is_bit_exact() {
        let w = BeamSteeringWorkload::new(300, 4, 2, 8).unwrap();
        let run = plain(&ImagineConfig::paper(), &w, TablePlacement::Dram).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
    }

    #[test]
    fn memory_streams_dominate() {
        let w = BeamSteeringWorkload::paper(8).unwrap();
        let run = plain(&ImagineConfig::paper(), &w, TablePlacement::Dram).unwrap();
        // Paper: loads/stores take 89% of simulation time.
        let mem = run.breakdown.fraction("memory") + run.breakdown.fraction("precharge");
        assert!(mem > 0.6, "memory fraction {mem}");
        // The visible remainder is the unoverlapped kernel residue
        // (the paper's "software pipeline prologue" 11%).
        assert!(run.breakdown.get("unoverlapped").get() > 0);
        assert!(run.breakdown.fraction("unoverlapped") < 0.3);
    }

    #[test]
    fn batches_larger_than_elements_are_clamped() {
        let w = BeamSteeringWorkload::new(17, 2, 1, 1).unwrap();
        let run = plain(&ImagineConfig::paper(), &w, TablePlacement::Dram).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
    }

    #[test]
    fn srf_resident_tables_give_roughly_two_fold() {
        let w = BeamSteeringWorkload::paper(8).unwrap();
        let cfg = ImagineConfig::paper();
        let dram = plain(&cfg, &w, TablePlacement::Dram).unwrap();
        let srf = plain(&cfg, &w, TablePlacement::SrfResident).unwrap();
        assert_eq!(srf.verification, Verification::BitExact);
        let gain = dram.cycles.ratio(srf.cycles);
        // Paper Section 4.4: "a factor of about two".
        assert!(gain > 1.5 && gain < 3.0, "gain {gain:.2}");
    }

    #[test]
    fn srf_resident_rejects_oversized_tables() {
        // 40k elements x 2 tables > the 32k-word SRF.
        let w = BeamSteeringWorkload::new(40_000, 1, 1, 0).unwrap();
        let err = plain(&ImagineConfig::paper(), &w, TablePlacement::SrfResident).unwrap_err();
        assert!(matches!(err, SimError::Capacity { .. }));
    }
}
