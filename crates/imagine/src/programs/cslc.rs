//! Imagine CSLC (paper Section 3.2).
//!
//! "Imagine has the best performance of the three architectures on CSLC
//! … it is a computation-intensive kernel for which the working sets fit
//! in the stream register files." Per sub-band: stream the four channel
//! windows and the weight vectors into the SRF, run parallelized radix-4
//! FFT kernels across the eight clusters (with inter-cluster
//! communication), a weight-application kernel, IFFT kernels, and stream
//! the cancelled output back to memory.

use triarch_fft::ops::OpCount;
use triarch_fft::{Cf32, Fft};
use triarch_kernels::cslc::CslcWorkload;
use triarch_kernels::KernelOutput;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{AccessPattern, CycleBudget, KernelRun, SimError, WordMemory};

use crate::config::ImagineConfig;
use crate::machine::SrfRange;
use crate::machine::{ClusterOps, ImagineMachine};

/// Cluster-op model of one n-point FFT: arithmetic from the mixed
/// radix-4 op count, communication from the three cross-cluster stages
/// (element `i` lives in cluster `i mod 8`, so butterflies at distances
/// 1, 2 and 4 exchange one complex word per element).
fn fft_ops(n: usize, per_fft: OpCount, clusters: usize) -> ClusterOps {
    let cross_stages = (clusters.trailing_zeros() as u64).min(n.trailing_zeros() as u64);
    ClusterOps {
        adds: per_fft.adds,
        muls: per_fft.muls,
        divs: 0,
        comms: cross_stages * n as u64 * 2,
    }
}

/// Fills `dst` from interleaved (re, im) words.
fn unpack_complex(words: &[u32], dst: &mut [Cf32]) {
    for (v, p) in dst.iter_mut().zip(words.chunks_exact(2)) {
        *v = Cf32::new(f32::from_bits(p[0]), f32::from_bits(p[1]));
    }
}

fn srf_write_complex<S: TraceSink, F: FaultHook>(
    m: &mut ImagineMachine<S, F>,
    range: SrfRange,
    data: &[Cf32],
) -> Result<(), SimError> {
    for (i, v) in data.iter().enumerate() {
        m.srf_mut().write_u32(range.start + 2 * i, v.re.to_bits())?;
        m.srf_mut().write_u32(range.start + 2 * i + 1, v.im.to_bits())?;
    }
    Ok(())
}

/// Runs CSLC on Imagine.
///
/// Trace events go to `sink`; `faults` is consulted at every DRAM transfer and
/// its effects are applied; `budget` is the watchdog on simulated cycles.
///
/// # Errors
///
/// Returns [`SimError`] when the working set exceeds the SRF or off-chip
/// memory, or the FFT length is not a power of two, plus
/// [`SimError::DetectedFault`] / [`SimError::BudgetExceeded`] from the hook and
/// watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &ImagineConfig,
    workload: &CslcWorkload,
    sink: S,
    faults: F,
    budget: CycleBudget,
) -> Result<(KernelRun, KernelOutput), SimError> {
    let c = *workload.config();
    let n = c.fft_len;
    let hop = c.hop();
    let channels = c.main_channels + c.aux_channels;
    let band_words = c.subbands * n * 2; // interleaved complex

    // Off-chip layout: channels (interleaved complex), weights, output.
    let ch_base = |ch: usize| ch * c.samples * 2;
    let w_base = channels * c.samples * 2;
    let weights_at = |m: usize, a: usize| w_base + (m * c.aux_channels + a) * band_words;
    let out_base = w_base + c.main_channels * c.aux_channels * band_words;
    let out_at = |m: usize, s: usize| out_base + (m * c.subbands + s) * n * 2;
    let needed = out_base + c.main_channels * band_words;
    if needed > cfg.mem_words {
        return Err(SimError::capacity("imagine off-chip memory", needed, cfg.mem_words));
    }

    let forward = Fft::forward(n).map_err(|e| SimError::unsupported(e.to_string()))?;
    let inverse = Fft::inverse(n).map_err(|e| SimError::unsupported(e.to_string()))?;
    let per_fft = c.fft_opcount_radix4();

    let mut m = ImagineMachine::with_hooks(cfg, sink, faults, budget)?;
    // Peak stream concurrency per sub-band: every channel window plus
    // every weight vector in flight at once (the output streams drain
    // after the inputs complete). The paper's 4+4 = 8 exactly fills the
    // descriptor registers — the limit behind its imperfect software
    // pipelining.
    m.declare_streams(channels + c.main_channels * c.aux_channels)?;

    // Stage resident data off chip (interleaved complex).
    let stage = |mem: &mut WordMemory, base: usize, data: &[Cf32]| -> Result<(), SimError> {
        for (i, v) in data.iter().enumerate() {
            mem.write_u32(base + 2 * i, v.re.to_bits())?;
            mem.write_u32(base + 2 * i + 1, v.im.to_bits())?;
        }
        Ok(())
    };
    for ch in 0..channels {
        let data = if ch < c.main_channels {
            workload.main_channel(ch)
        } else {
            workload.aux_channel(ch - c.main_channels)
        };
        stage(m.memory_mut(), ch_base(ch), data)?;
    }
    for mc in 0..c.main_channels {
        for a in 0..c.aux_channels {
            stage(m.memory_mut(), weights_at(mc, a), workload.weights(mc, a))?;
        }
    }

    // One word buffer, one window per channel, one weight vector and one
    // spectrum, reused by every sub-band.
    let mut words = vec![0u32; 2 * n];
    let mut spectra = vec![vec![Cf32::default(); n]; channels];
    let mut w = vec![Cf32::default(); n];
    let mut spec = vec![Cf32::default(); n];

    // Process per sub-band: all working data for one sub-band fits the SRF.
    for s in 0..c.subbands {
        m.srf_reset();
        let ch_ranges: Vec<SrfRange> =
            (0..channels).map(|_| m.srf_alloc(2 * n)).collect::<Result<_, _>>()?;
        let w_ranges: Vec<SrfRange> = (0..c.main_channels * c.aux_channels)
            .map(|_| m.srf_alloc(2 * n))
            .collect::<Result<_, _>>()?;

        m.begin_overlap()?;
        // Stream in the four channel windows and the weight vectors.
        for (ch, range) in ch_ranges.iter().enumerate() {
            m.stream_in(ch_base(ch) + s * hop * 2, *range, 2 * n, AccessPattern::Sequential)?;
        }
        for mc in 0..c.main_channels {
            for a in 0..c.aux_channels {
                m.stream_in(
                    weights_at(mc, a) + s * n * 2,
                    w_ranges[mc * c.aux_channels + a],
                    2 * n,
                    AccessPattern::Sequential,
                )?;
            }
        }

        // Forward FFT kernels (one per channel).
        for (range, window) in ch_ranges.iter().zip(&mut spectra) {
            m.srf().read_into(range.start, &mut words)?;
            unpack_complex(&words, window);
            forward.process(window).map_err(|e| SimError::unsupported(e.to_string()))?;
            srf_write_complex(&mut m, *range, window)?;
            m.kernel_exec(fft_ops(n, per_fft, cfg.clusters))?;
        }

        // Weight-application kernel: M(k) -= Σ_a W(k)·A(k) per main channel.
        for mc in 0..c.main_channels {
            spec.copy_from_slice(&spectra[mc]);
            for a in 0..c.aux_channels {
                m.srf().read_into(w_ranges[mc * c.aux_channels + a].start, &mut words)?;
                unpack_complex(&words, &mut w);
                let aux = &spectra[c.main_channels + a];
                for k in 0..n {
                    spec[k] -= w[k] * aux[k];
                }
            }
            // Per (aux, bin): complex multiply (4 mul + 2 add) + complex
            // subtract (2 add).
            m.kernel_exec(ClusterOps {
                adds: (c.aux_channels * n * 4) as u64,
                muls: (c.aux_channels * n * 4) as u64,
                ..Default::default()
            })?;

            // IFFT kernel and output stream.
            inverse.process(&mut spec).map_err(|e| SimError::unsupported(e.to_string()))?;
            srf_write_complex(&mut m, ch_ranges[mc], &spec)?;
            m.kernel_exec(fft_ops(n, per_fft, cfg.clusters))?;
            m.stream_out(ch_ranges[mc], out_at(mc, s), 2 * n, AccessPattern::Sequential)?;
        }
        m.end_overlap()?;
    }

    // Extract the output.
    let mut out = vec![Cf32::default(); c.main_channels * c.subbands * n];
    for mc in 0..c.main_channels {
        for s in 0..c.subbands {
            m.memory().read_into(out_at(mc, s), &mut words)?;
            unpack_complex(&words, &mut out[(mc * c.subbands + s) * n..][..n]);
        }
    }
    Ok((m.finish()?, KernelOutput::Complex(out)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_kernels::cslc::CslcConfig;
    use triarch_kernels::verify::{check, CSLC_TOLERANCE};
    use triarch_kernels::KernelInput;
    use triarch_simcore::faults::NoFaults;
    use triarch_simcore::trace::NullSink;

    /// The plain run: untraced, unfaulted, unlimited budget, and checked
    /// by the study's one verifier.
    fn plain(cfg: &ImagineConfig, workload: &CslcWorkload) -> Result<KernelRun, SimError> {
        let (mut result, output) = run(cfg, workload, NullSink, NoFaults, CycleBudget::UNLIMITED)?;
        result.verification = check(KernelInput::Cslc(workload), &output);
        Ok(result)
    }

    #[test]
    fn small_cslc_verifies() {
        let w = CslcWorkload::new(CslcConfig::small(), 6).unwrap();
        let run = plain(&ImagineConfig::paper(), &w).unwrap();
        assert!(run.verification.is_ok(CSLC_TOLERANCE), "{:?}", run.verification);
    }

    #[test]
    fn kernel_and_comm_cycles_present() {
        let w = CslcWorkload::new(CslcConfig::small(), 6).unwrap();
        let run = plain(&ImagineConfig::paper(), &w).unwrap();
        assert!(run.breakdown.get("kernel").get() > 0);
        assert!(run.breakdown.get("comm").get() > 0, "parallel FFTs must pay comm");
        assert!(run.breakdown.get("prologue").get() > 0);
    }

    #[test]
    fn fft_ops_model_counts_cross_stages() {
        let ops = fft_ops(128, triarch_fft::ops::mixed_128_ops(), 8);
        // Three cross-cluster stages exchange one complex word per element.
        assert_eq!(ops.comms, 3 * 128 * 2);
        assert!(ops.adds > ops.muls);
    }

    #[test]
    fn capacity_error_on_tiny_memory() {
        let mut cfg = ImagineConfig::paper();
        cfg.mem_words = 4096;
        let w = CslcWorkload::new(CslcConfig::small(), 6).unwrap();
        assert!(matches!(plain(&cfg, &w), Err(SimError::Capacity { .. })));
    }
}
