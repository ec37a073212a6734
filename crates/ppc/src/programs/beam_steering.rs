//! G4 beam steering: the dependent add-chain per output.
//!
//! AltiVec processes four elements per instruction, which roughly halves
//! the time ("about two for beam steering", Section 4.5) — the serial
//! dependence and the streaming-store misses cap the gain.

use triarch_kernels::beam_steering::BeamSteeringWorkload;
use triarch_kernels::verify::verify_words;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, SimError};

use super::Variant;
use crate::config::PpcConfig;
use crate::machine::PpcMachine;

/// Runs beam steering on the G4.
///
/// Trace events go to `sink`; `faults` is consulted at the memory transfer of
/// each direction's output block and its effects are applied; `budget` is the
/// watchdog on simulated cycles.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for degenerate configurations, plus
/// [`SimError::DetectedFault`] / [`SimError::BudgetExceeded`] from the hook and
/// watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &PpcConfig,
    workload: &BeamSteeringWorkload,
    variant: Variant,
    sink: S,
    faults: F,
    budget: CycleBudget,
) -> Result<KernelRun, SimError> {
    let e = workload.elements();
    let out_base = 2 * e;
    let mut m = PpcMachine::with_hooks(cfg, sink, faults, budget)?;
    let mut out = Vec::with_capacity(workload.outputs());

    for dwell in 0..workload.dwells() {
        let dwell_base = (dwell as i32).wrapping_mul(workload.dwell_stride());
        for d in 0..workload.directions() {
            let mut acc = workload.steer_bias();
            match variant {
                Variant::Scalar => {
                    for elem in 0..e {
                        m.load(elem); // cal_coarse
                        m.load(e + elem); // cal_fine
                        m.serial_ops(6); // 5 adds + shift, fully dependent
                        m.issue(6); // addressing, bounds, loop
                        let v = workload.phase(elem, d, dwell_base, &mut acc);
                        out.push(v);
                        m.store(out_base + out.len() - 1);
                    }
                }
                Variant::Altivec => {
                    let mut elem = 0;
                    while elem < e {
                        let lanes = cfg.vector_lanes.min(e - elem);
                        m.vector_load(elem);
                        m.vector_load(e + elem);
                        // 5 adds + shift, plus the lvsl/vperm merges that
                        // realign the two unaligned table streams and the
                        // lane-rotation of the running accumulator — all
                        // on the single dependent chain.
                        m.serial_vector_ops(12);
                        m.issue(4);
                        for _ in 0..lanes {
                            let v = workload.phase(elem, d, dwell_base, &mut acc);
                            out.push(v);
                            elem += 1;
                        }
                        m.vector_store(out_base + out.len() - lanes);
                    }
                }
            }
            // This direction's output block crosses the DRAM fault
            // surface as one streamed write-back.
            let start = out.len() - e;
            let mut bits: Vec<u32> = out[start..].iter().map(|&v| v as u32).collect();
            m.fault_transfer(out_base + start, &mut bits)?;
            for (i, b) in bits.into_iter().enumerate() {
                out[start + i] = b as i32;
            }
        }
        m.check_budget()?;
        m.checkpoint("dwell-done");
    }

    let verification = verify_words(&out, &workload.reference_output());
    Ok(m.finish(verification))
}

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_simcore::faults::NoFaults;
    use triarch_simcore::trace::NullSink;
    use triarch_simcore::Verification;

    /// The plain run: untraced, unfaulted, unlimited budget.
    fn plain(
        cfg: &PpcConfig,
        workload: &BeamSteeringWorkload,
        variant: Variant,
    ) -> Result<KernelRun, SimError> {
        run(cfg, workload, variant, NullSink, NoFaults, CycleBudget::UNLIMITED)
    }

    #[test]
    fn both_variants_are_bit_exact() {
        let w = BeamSteeringWorkload::new(123, 3, 2, 5).unwrap();
        for v in [Variant::Scalar, Variant::Altivec] {
            let run = plain(&PpcConfig::paper(), &w, v).unwrap();
            assert_eq!(run.verification, Verification::BitExact, "{v:?}");
        }
    }

    #[test]
    fn altivec_gains_roughly_two_fold() {
        let w = BeamSteeringWorkload::paper(5).unwrap();
        let scalar = plain(&PpcConfig::paper(), &w, Variant::Scalar).unwrap();
        let altivec = plain(&PpcConfig::paper(), &w, Variant::Altivec).unwrap();
        let speedup = scalar.cycles.ratio(altivec.cycles);
        // Paper Section 4.5: "about two".
        assert!(speedup > 1.4 && speedup < 3.2, "speedup {speedup}");
    }
}
