//! DPU CSLC: sub-band-parallel, compute-starved.
//!
//! Sub-bands are independent, so they partition perfectly across DPUs —
//! each DPU pulls its sub-band's four channel windows and four weight
//! vectors from its own MRAM bank into WRAM, runs the forward FFTs,
//! weight application, and inverse FFTs locally, and DMAs the cancelled
//! outputs back. Nothing ever crosses between DPUs, which makes this the
//! mapping-friendly kernel. What hurts is the pipeline itself: DPUs have
//! no FPU, so every 32-bit flop issues
//! [`DpuConfig::fp_instrs_per_op`](crate::DpuConfig::fp_instrs_per_op)
//! emulation instructions, and with only ~73 sub-bands most of the
//! 128-DPU module idles while the busy banks grind emulated arithmetic.

use triarch_fft::{Cf32, Fft};
use triarch_kernels::cslc::CslcWorkload;
use triarch_kernels::KernelOutput;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, SimError, WordMemory};

use crate::config::DpuConfig;
use crate::machine::{DpuMachine, WramRange};

fn wram_complex<S: TraceSink, F: FaultHook>(
    m: &DpuMachine<S, F>,
    range: WramRange,
    n: usize,
) -> Result<Vec<Cf32>, SimError> {
    let words = m.wram().read_block_u32(range.start, 2 * n)?;
    Ok(words
        .chunks_exact(2)
        .map(|p| Cf32::new(f32::from_bits(p[0]), f32::from_bits(p[1])))
        .collect())
}

fn wram_write_complex<S: TraceSink, F: FaultHook>(
    m: &mut DpuMachine<S, F>,
    range: WramRange,
    data: &[Cf32],
) -> Result<(), SimError> {
    for (i, v) in data.iter().enumerate() {
        m.wram_mut().write_u32(range.start + 2 * i, v.re.to_bits())?;
        m.wram_mut().write_u32(range.start + 2 * i + 1, v.im.to_bits())?;
    }
    Ok(())
}

/// Runs CSLC on the DPU module.
///
/// Trace events go to `sink`; `faults` is consulted at every host/DMA transfer
/// and its effects are applied; `budget` is the watchdog on simulated cycles.
///
/// # Errors
///
/// Returns [`SimError`] when a sub-band slot exceeds an MRAM bank, the working
/// set exceeds WRAM, host memory is exhausted, or the FFT length is not a power
/// of two, plus [`SimError::DetectedFault`] / [`SimError::BudgetExceeded`] from
/// the hook and watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &DpuConfig,
    workload: &CslcWorkload,
    sink: S,
    faults: F,
    budget: CycleBudget,
) -> Result<(KernelRun, KernelOutput), SimError> {
    let c = *workload.config();
    let n = c.fft_len;
    let hop = c.hop();
    let channels = c.main_channels + c.aux_channels;
    let weights = c.main_channels * c.aux_channels;
    let band_words = c.subbands * n * 2; // interleaved complex

    // Host layout: channels (interleaved complex), weights, output.
    let ch_base = |ch: usize| ch * c.samples * 2;
    let w_base = channels * c.samples * 2;
    let weights_at = |mc: usize, a: usize| w_base + (mc * c.aux_channels + a) * band_words;
    let out_base = w_base + weights * band_words;
    let out_at = |mc: usize, s: usize| out_base + (mc * c.subbands + s) * n * 2;
    let needed = out_base + c.main_channels * band_words;
    if needed > cfg.host_mem_words {
        return Err(SimError::capacity("dpu host memory", needed, cfg.host_mem_words));
    }

    // Sub-band ownership: contiguous slots per DPU. One MRAM slot holds
    // the sub-band's channel windows, weight vectors, and outputs.
    let dpus = cfg.dpus();
    let bands_per_dpu = c.subbands.div_ceil(dpus);
    let slot_words = (channels + weights + c.main_channels) * 2 * n;
    if bands_per_dpu * slot_words > cfg.mram_words_per_dpu {
        return Err(SimError::capacity(
            "mram bank (sub-band slots)",
            bands_per_dpu * slot_words,
            cfg.mram_words_per_dpu,
        ));
    }
    let owner = |s: usize| (s / bands_per_dpu, s % bands_per_dpu);
    let win_off = |slot: usize, ch: usize| slot * slot_words + ch * 2 * n;
    let wt_off = |slot: usize, k: usize| slot * slot_words + (channels + k) * 2 * n;
    let out_off = |slot: usize, mc: usize| slot * slot_words + (channels + weights + mc) * 2 * n;

    let forward = Fft::forward(n).map_err(|e| SimError::unsupported(e.to_string()))?;
    let inverse = Fft::inverse(n).map_err(|e| SimError::unsupported(e.to_string()))?;
    let per_fft = c.fft_opcount_radix4();
    let fft_flops = per_fft.total();

    let mut m = DpuMachine::with_hooks(cfg, sink, faults, budget)?;

    // Stage resident data in host memory (interleaved complex).
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
        stage(m.host_mut(), ch_base(ch), data)?;
    }
    for mc in 0..c.main_channels {
        for a in 0..c.aux_channels {
            stage(m.host_mut(), weights_at(mc, a), workload.weights(mc, a))?;
        }
    }

    // Scatter: each sub-band's windows and weights go to its owner bank.
    for s in 0..c.subbands {
        let (d, slot) = owner(s);
        for ch in 0..channels {
            m.host_push(ch_base(ch) + s * hop * 2, d, win_off(slot, ch), 2 * n)?;
        }
        for mc in 0..c.main_channels {
            for a in 0..c.aux_channels {
                let k = mc * c.aux_channels + a;
                m.host_push(weights_at(mc, a) + s * n * 2, d, wt_off(slot, k), 2 * n)?;
            }
        }
    }

    m.launch()?;
    for s in 0..c.subbands {
        let (d, slot) = owner(s);
        m.wram_reset();
        let ch_ranges: Vec<WramRange> =
            (0..channels).map(|_| m.wram_alloc(2 * n)).collect::<Result<_, _>>()?;
        let w_ranges: Vec<WramRange> =
            (0..weights).map(|_| m.wram_alloc(2 * n)).collect::<Result<_, _>>()?;
        for (ch, range) in ch_ranges.iter().enumerate() {
            m.dma_read(d, win_off(slot, ch), *range, 2 * n)?;
        }
        for (k, range) in w_ranges.iter().enumerate() {
            m.dma_read(d, wt_off(slot, k), *range, 2 * n)?;
        }

        // Forward FFTs (one per channel), all emulated in software.
        let mut spectra: Vec<Vec<Cf32>> = Vec::with_capacity(channels);
        for range in &ch_ranges {
            let mut window = wram_complex(&m, *range, n)?;
            forward.process(&mut window).map_err(|e| SimError::unsupported(e.to_string()))?;
            wram_write_complex(&mut m, *range, &window)?;
            m.exec(d, fft_flops * cfg.fp_instrs_per_op, fft_flops)?;
            spectra.push(window);
        }

        // Weight application: M(k) -= Σ_a W(k)·A(k) per main channel.
        for mc in 0..c.main_channels {
            let mut spec = spectra[mc].clone();
            for a in 0..c.aux_channels {
                let w = wram_complex(&m, w_ranges[mc * c.aux_channels + a], n)?;
                let aux = &spectra[c.main_channels + a];
                for k in 0..n {
                    spec[k] -= w[k] * aux[k];
                }
            }
            // Per (aux, bin): complex multiply (4 mul + 2 add) + complex
            // subtract (2 add).
            let wt_flops = (c.aux_channels * n * 8) as u64;
            m.exec(d, wt_flops * cfg.fp_instrs_per_op, wt_flops)?;

            // IFFT and DMA the cancelled output back to the bank.
            let mut out = spec;
            inverse.process(&mut out).map_err(|e| SimError::unsupported(e.to_string()))?;
            wram_write_complex(&mut m, ch_ranges[mc], &out)?;
            m.exec(d, fft_flops * cfg.fp_instrs_per_op, fft_flops)?;
            m.dma_write(d, ch_ranges[mc], out_off(slot, mc), 2 * n)?;
        }
    }
    m.sync()?;

    // Gather the cancelled outputs back over the host interface.
    for mc in 0..c.main_channels {
        for s in 0..c.subbands {
            let (d, slot) = owner(s);
            m.host_pull(d, out_off(slot, mc), out_at(mc, s), 2 * n)?;
        }
    }

    // Extract the output.
    let mut out = Vec::with_capacity(c.main_channels * c.subbands * n);
    for mc in 0..c.main_channels {
        for s in 0..c.subbands {
            let words = m.host().read_block_u32(out_at(mc, s), 2 * n)?;
            out.extend(
                words
                    .chunks_exact(2)
                    .map(|p| Cf32::new(f32::from_bits(p[0]), f32::from_bits(p[1]))),
            );
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
    fn plain(cfg: &DpuConfig, workload: &CslcWorkload) -> Result<KernelRun, SimError> {
        let (mut result, output) = run(cfg, workload, NullSink, NoFaults, CycleBudget::UNLIMITED)?;
        result.verification = check(KernelInput::Cslc(workload), &output);
        Ok(result)
    }

    #[test]
    fn small_cslc_verifies() {
        let w = CslcWorkload::new(CslcConfig::small(), 6).unwrap();
        let run = plain(&DpuConfig::paper(), &w).unwrap();
        assert!(run.verification.is_ok(CSLC_TOLERANCE), "{:?}", run.verification);
    }

    #[test]
    fn emulated_fp_dominates_the_pipeline() {
        let w = CslcWorkload::new(CslcConfig::small(), 6).unwrap();
        let run = plain(&DpuConfig::paper(), &w).unwrap();
        assert!(run.breakdown.get("tasklet").get() > 0);
        assert!(run.breakdown.get("mram_dma").get() > 0);
        // Software FP: the pipeline term beats the bank DMA term.
        assert!(run.breakdown.get("tasklet") > run.breakdown.get("mram_dma"));
    }

    #[test]
    fn multiple_subbands_per_dpu_verify() {
        let mut cfg = DpuConfig::paper();
        cfg.ranks = 1;
        cfg.dpus_per_rank = 2; // 7 sub-bands over 2 DPUs -> 4 slots
        let w = CslcWorkload::new(CslcConfig::small(), 6).unwrap();
        let run = plain(&cfg, &w).unwrap();
        assert!(run.verification.is_ok(CSLC_TOLERANCE));
    }

    #[test]
    fn capacity_error_on_tiny_host_memory() {
        let mut cfg = DpuConfig::paper();
        cfg.host_mem_words = 4096;
        let w = CslcWorkload::new(CslcConfig::small(), 6).unwrap();
        assert!(matches!(plain(&cfg, &w), Err(SimError::Capacity { .. })));
    }
}
