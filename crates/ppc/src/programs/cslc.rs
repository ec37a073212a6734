//! G4 CSLC: radix-2 FFT pipeline.
//!
//! The scalar baseline models compiler-generated C that evaluates
//! twiddles with libm calls inside the butterfly loop; the AltiVec
//! variant models hand-vectorized butterflies with shared twiddle
//! evaluation, giving the paper's "performance factor of about six for
//! the CSLC" (Section 4.5).

use triarch_fft::{fft_radix2, ifft_radix2, Cf32};
use triarch_kernels::cslc::CslcWorkload;
use triarch_kernels::verify::verify_complex;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, SimError};

use super::Variant;
use crate::config::PpcConfig;
use crate::machine::PpcMachine;

/// Scratch working-buffer base (fits in L1 and stays resident).
const SCRATCH: usize = 0;
/// Channel data region base in the virtual layout.
const DATA: usize = 1 << 16;
/// Weights region base.
const WEIGHTS: usize = 1 << 20;
/// Output region base.
const OUTPUT: usize = 1 << 22;

fn charge_fft<S: TraceSink, F: FaultHook>(m: &mut PpcMachine<S, F>, n: usize, variant: Variant) {
    let stages = n.trailing_zeros() as u64;
    let butterflies = (n as u64 / 2) * stages;
    match variant {
        Variant::Scalar => {
            for b in 0..butterflies {
                m.trig(2); // sin + cos inside the loop
                m.alu_ops(10);
                // Operand loads/stores cycle within the scratch buffer.
                let k = (b as usize * 2) % n;
                m.load(SCRATCH + 2 * k);
                m.load(SCRATCH + 2 * k + 1);
                m.load(SCRATCH + (2 * k + n) % (2 * n));
                m.load(SCRATCH + (2 * k + n + 1) % (2 * n));
                m.store(SCRATCH + 2 * k);
                m.store(SCRATCH + 2 * k + 1);
                m.store(SCRATCH + (2 * k + n) % (2 * n));
                m.store(SCRATCH + (2 * k + n + 1) % (2 * n));
                m.issue(8); // index and loop overhead
            }
        }
        Variant::Altivec => {
            // Four butterflies per iteration; twiddles evaluated once per
            // group and splatted.
            for g in 0..butterflies / 4 {
                m.trig(1); // one shared recurrence step per group
                let k = (g as usize * 8) % (2 * n);
                m.vector_load(SCRATCH + k);
                m.vector_load(SCRATCH + (k + n) % (2 * n));
                m.vector_load(SCRATCH + (k + 4) % (2 * n));
                m.vector_load(SCRATCH + (k + n + 4) % (2 * n));
                m.vector_ops(10);
                m.issue(6); // vperm data rearrangement
                m.vector_store(SCRATCH + k);
                m.vector_store(SCRATCH + (k + n) % (2 * n));
                m.issue(2);
            }
        }
    }
}

/// Runs CSLC on the G4.
///
/// Trace events go to `sink`; `faults` is consulted at the memory transfer of
/// each cancelled sub-band block and its effects are applied; `budget` is the
/// watchdog on simulated cycles.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for degenerate configurations, plus
/// [`SimError::DetectedFault`] / [`SimError::BudgetExceeded`] from the hook and
/// watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &PpcConfig,
    workload: &CslcWorkload,
    variant: Variant,
    sink: S,
    faults: F,
    budget: CycleBudget,
) -> Result<KernelRun, SimError> {
    let c = *workload.config();
    let n = c.fft_len;
    let hop = c.hop();
    let channels = c.main_channels + c.aux_channels;
    let mut m = PpcMachine::with_hooks(cfg, sink, faults, budget)?;

    let mut out = vec![Cf32::ZERO; c.main_channels * c.subbands * n];
    for s in 0..c.subbands {
        // Forward FFT of each channel's window (charged once per channel,
        // as the C code hoists the shared aux spectra out of the main
        // loop).
        let mut spectra: Vec<Vec<Cf32>> = Vec::with_capacity(channels);
        for ch in 0..channels {
            for k in 0..2 * n {
                m.load(DATA + ch * c.samples * 2 + s * hop * 2 + k);
            }
            charge_fft(&mut m, n, variant);
            let mut window = if ch < c.main_channels {
                workload.main_channel(ch)[s * hop..s * hop + n].to_vec()
            } else {
                workload.aux_channel(ch - c.main_channels)[s * hop..s * hop + n].to_vec()
            };
            fft_radix2(&mut window);
            spectra.push(window);
        }

        for mc in 0..c.main_channels {
            let mut spec = spectra[mc].clone();
            for a in 0..c.aux_channels {
                let w = workload.weights(mc, a);
                for k in 0..n {
                    spec[k] -= w[s * n + k] * spectra[c.main_channels + a][k];
                    m.load(
                        WEIGHTS
                            + (mc * c.aux_channels + a) * c.subbands * n * 2
                            + s * n * 2
                            + 2 * k,
                    );
                    match variant {
                        Variant::Scalar => {
                            m.alu_ops(8);
                            m.issue(4);
                        }
                        Variant::Altivec => {
                            if k % 4 == 0 {
                                m.vector_ops(8);
                                m.issue(2);
                            }
                        }
                    }
                }
            }
            ifft_radix2(&mut spec);
            charge_fft(&mut m, n, variant);
            for k in 0..2 * n {
                m.store(OUTPUT + (mc * c.subbands + s) * 2 * n + k);
            }
            // The cancelled block crosses the DRAM fault surface as one
            // streamed write-back of its planar bit pattern.
            let base = OUTPUT + (mc * c.subbands + s) * 2 * n;
            let mut bits: Vec<u32> =
                spec.iter().flat_map(|v| [v.re.to_bits(), v.im.to_bits()]).collect();
            m.fault_transfer(base, &mut bits)?;
            for (k, p) in bits.chunks_exact(2).enumerate() {
                spec[k] = Cf32::new(f32::from_bits(p[0]), f32::from_bits(p[1]));
            }
            out[(mc * c.subbands + s) * n..(mc * c.subbands + s + 1) * n].copy_from_slice(&spec);
        }
        m.check_budget()?;
        m.checkpoint("subband-done");
    }

    let verification = verify_complex(&out, &workload.reference_output());
    Ok(m.finish(verification))
}

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_kernels::cslc::CslcConfig;
    use triarch_kernels::verify::CSLC_TOLERANCE;
    use triarch_simcore::faults::NoFaults;
    use triarch_simcore::trace::NullSink;

    /// The plain run: untraced, unfaulted, unlimited budget.
    fn plain(
        cfg: &PpcConfig,
        workload: &CslcWorkload,
        variant: Variant,
    ) -> Result<KernelRun, SimError> {
        run(cfg, workload, variant, NullSink, NoFaults, CycleBudget::UNLIMITED)
    }

    #[test]
    fn both_variants_verify() {
        let w = CslcWorkload::new(CslcConfig::small(), 9).unwrap();
        for v in [Variant::Scalar, Variant::Altivec] {
            let run = plain(&PpcConfig::paper(), &w, v).unwrap();
            assert!(run.verification.is_ok(CSLC_TOLERANCE), "{v:?}: {:?}", run.verification);
        }
    }

    #[test]
    fn altivec_gains_roughly_six_fold() {
        let w = CslcWorkload::new(CslcConfig::small(), 9).unwrap();
        let scalar = plain(&PpcConfig::paper(), &w, Variant::Scalar).unwrap();
        let altivec = plain(&PpcConfig::paper(), &w, Variant::Altivec).unwrap();
        let speedup = scalar.cycles.ratio(altivec.cycles);
        // Paper Section 4.5: "about six".
        assert!(speedup > 3.5 && speedup < 9.0, "speedup {speedup}");
    }

    #[test]
    fn scalar_time_is_libm_dominated() {
        let w = CslcWorkload::new(CslcConfig::small(), 9).unwrap();
        let run = plain(&PpcConfig::paper(), &w, Variant::Scalar).unwrap();
        assert!(run.breakdown.fraction("libm") > 0.4, "{}", run.breakdown);
    }
}
