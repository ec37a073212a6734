//! Raw CSLC (paper Sections 3.2 / 4.3): data-parallel MIMD.
//!
//! "The Raw implementation does independent data-parallel FFTs" using a
//! C radix-2 FFT ("because it provided better performance than the
//! radix-4 FFT because of register spilling"). Sub-band sets are
//! distributed over the 16 tiles; the local memory caches the working set
//! ("less than 10% of the execution time is spent on memory stalls");
//! about 26% of cycles are loads/stores and the remainder is address and
//! loop overhead. Since 73 sets do not divide over 16 tiles, the paper
//! reports an extrapolation assuming perfect load balance, which
//! [`run`] reproduces via the machine's balanced phase accounting.

use triarch_fft::ops::radix2_ops;
use triarch_fft::{fft_radix2, ifft_radix2, Cf32};
use triarch_kernels::cslc::CslcWorkload;
use triarch_kernels::KernelOutput;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{AccessPattern, CycleBudget, KernelRun, SimError};

use crate::config::RawConfig;
use crate::machine::RawMachine;

/// Instruction model of one radix-2 butterfly on a single-issue tile:
/// 10 flops, 8 load/store words, 8 address/loop instructions.
const BUTTERFLY_FLOPS: u64 = 10;
const BUTTERFLY_LDST: u64 = 8;
const BUTTERFLY_OVERHEAD: u64 = 8;
/// Loop instructions that remain when operands arrive from the static
/// network instead of memory (no loads, no stores, no address math).
const BUTTERFLY_STREAM_OVERHEAD: u64 = 5;

/// How sub-band data reaches the butterflies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CslcMode {
    /// The paper's measured configuration: data routed to local memories
    /// through cache misses (easy-to-program MIMD mode).
    CacheMimd,
    /// The paper's Section 4.3 projection, as a real program: "If FFT is
    /// implemented using the stream interface that uses static network,
    /// it hides the cache miss stalls, and load and store operations are
    /// not needed. A primitive implementation result suggests about 70%
    /// of FFT performance improvement."
    StreamInterface,
}

fn fft_issue(n: usize, mode: CslcMode) -> (u64, u64) {
    // (instructions, flops) for one n-point radix-2 FFT.
    let butterflies = (n as u64 / 2) * n.trailing_zeros() as u64;
    let flops = radix2_ops(n).total();
    debug_assert_eq!(flops, butterflies * BUTTERFLY_FLOPS);
    let per_butterfly = match mode {
        CslcMode::CacheMimd => BUTTERFLY_FLOPS + BUTTERFLY_LDST + BUTTERFLY_OVERHEAD,
        CslcMode::StreamInterface => BUTTERFLY_FLOPS + BUTTERFLY_STREAM_OVERHEAD,
    };
    (butterflies * per_butterfly, flops)
}

/// Fills `dst` from interleaved (re, im) words.
fn unpack_complex(words: &[u32], dst: &mut [Cf32]) {
    for (v, p) in dst.iter_mut().zip(words.chunks_exact(2)) {
        *v = Cf32::new(f32::from_bits(p[0]), f32::from_bits(p[1]));
    }
}

/// Runs CSLC on Raw in the data-delivery `mode`;
/// [`CslcMode::CacheMimd`] is the paper's measured configuration.
///
/// Trace events go to `sink`; `faults` is consulted at every DRAM transfer
/// and its effects are applied; `budget` is the watchdog on simulated
/// cycles.
///
/// # Errors
///
/// Returns [`SimError`] if the working set exceeds memory or a sub-band
/// does not fit the per-tile cache, plus [`SimError::DetectedFault`] /
/// [`SimError::BudgetExceeded`] from the hook and watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &RawConfig,
    workload: &CslcWorkload,
    mode: CslcMode,
    sink: S,
    faults: F,
    budget: CycleBudget,
) -> Result<(KernelRun, KernelOutput), SimError> {
    let c = *workload.config();
    let n = c.fft_len;
    let hop = c.hop();
    let channels = c.main_channels + c.aux_channels;

    // Off-chip layout (interleaved complex).
    let ch_base = |ch: usize| ch * c.samples * 2;
    let w_base = channels * c.samples * 2;
    let band_words = c.subbands * n * 2;
    let weights_at = |m: usize, a: usize| w_base + (m * c.aux_channels + a) * band_words;
    let out_base = w_base + c.main_channels * c.aux_channels * band_words;
    let out_at = |m: usize, s: usize| out_base + (m * c.subbands + s) * n * 2;
    let needed = out_base + c.main_channels * band_words;
    if needed > cfg.mem_words {
        return Err(SimError::capacity("raw off-chip memory", needed, cfg.mem_words));
    }
    // Working set per sub-band must fit the tile cache: channel windows,
    // weights, and output.
    let working = (channels + c.main_channels * c.aux_channels + c.main_channels) * 2 * n;
    if working > cfg.local_words {
        return Err(SimError::capacity("raw tile local memory", working, cfg.local_words));
    }

    let mut m = RawMachine::with_hooks(cfg, sink, faults, budget)?;
    for ch in 0..channels {
        let data = if ch < c.main_channels {
            workload.main_channel(ch)
        } else {
            workload.aux_channel(ch - c.main_channels)
        };
        for (i, v) in data.iter().enumerate() {
            m.memory_mut().write_u32(ch_base(ch) + 2 * i, v.re.to_bits())?;
            m.memory_mut().write_u32(ch_base(ch) + 2 * i + 1, v.im.to_bits())?;
        }
    }
    for mc in 0..c.main_channels {
        for a in 0..c.aux_channels {
            for (i, v) in workload.weights(mc, a).iter().enumerate() {
                m.memory_mut().write_u32(weights_at(mc, a) + 2 * i, v.re.to_bits())?;
                m.memory_mut().write_u32(weights_at(mc, a) + 2 * i + 1, v.im.to_bits())?;
            }
        }
    }

    let (fft_instrs, fft_flops) = fft_issue(n, mode);
    let mesh_hops = (2 * (cfg.mesh_width - 1)) as u64;
    // One word buffer, one window per channel, one weight vector and one
    // spectrum, reused by every sub-band.
    let mut words = vec![0u32; 2 * n];
    let mut spectra = vec![vec![Cf32::default(); n]; channels];
    let mut w = vec![Cf32::default(); n];
    let mut spec = vec![Cf32::default(); n];

    // One balanced phase covers the whole data-parallel run (the paper's
    // perfect-load-balance extrapolation).
    m.begin_phase()?;
    for s in 0..c.subbands {
        let tile = s % cfg.tiles();

        // Working-set delivery: the DRAM ports carry the same words in
        // both modes, but the stream interface hides the per-line miss
        // stalls behind the static network.
        let traffic_words = working;
        m.dram_traffic(ch_base(0) + s * hop * 2, traffic_words, AccessPattern::Sequential)?;
        match mode {
            CslcMode::CacheMimd => {
                let miss_lines = (traffic_words as u64).div_ceil(cfg.line_words as u64);
                m.tile_stall(tile, miss_lines * cfg.miss_stall)?;
            }
            CslcMode::StreamInterface => {
                m.tile_net_words(tile, traffic_words as u64, mesh_hops)?;
            }
        }

        // Forward FFTs for all channels of this sub-band.
        for (ch, window) in spectra.iter_mut().enumerate() {
            m.memory().read_into(ch_base(ch) + s * hop * 2, &mut words)?;
            unpack_complex(&words, window);
            fft_radix2(window);
            m.tile_issue(tile, fft_instrs)?;
            m.count_ops(fft_flops);
        }

        // Weight application + IFFT per main channel.
        for mc in 0..c.main_channels {
            spec.copy_from_slice(&spectra[mc]);
            for a in 0..c.aux_channels {
                m.memory().read_into(weights_at(mc, a) + s * n * 2, &mut words)?;
                unpack_complex(&words, &mut w);
                for k in 0..n {
                    spec[k] -= w[k] * spectra[c.main_channels + a][k];
                }
            }
            // Per (aux, bin): 8 flops plus, in cache mode, 6 ld/st words
            // and 4 address instructions (streamed operands need only a
            // short loop body).
            let weight_instrs = (c.aux_channels * n) as u64
                * match mode {
                    CslcMode::CacheMimd => 8 + 6 + 4,
                    CslcMode::StreamInterface => 8 + 3,
                };
            m.tile_issue(tile, weight_instrs)?;
            m.count_ops((c.aux_channels * n) as u64 * 8);

            ifft_radix2(&mut spec);
            m.tile_issue(tile, fft_instrs)?;
            m.count_ops(fft_flops);
            for (k, v) in spec.iter().enumerate() {
                m.memory_mut().write_u32(out_at(mc, s) + 2 * k, v.re.to_bits())?;
                m.memory_mut().write_u32(out_at(mc, s) + 2 * k + 1, v.im.to_bits())?;
            }
        }
    }
    m.end_phase(true)?;

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
    fn plain(
        cfg: &RawConfig,
        workload: &CslcWorkload,
        mode: CslcMode,
    ) -> Result<KernelRun, SimError> {
        let (mut result, output) =
            run(cfg, workload, mode, NullSink, NoFaults, CycleBudget::UNLIMITED)?;
        result.verification = check(KernelInput::Cslc(workload), &output);
        Ok(result)
    }

    #[test]
    fn small_cslc_verifies() {
        let w = CslcWorkload::new(CslcConfig::small(), 7).unwrap();
        let run = plain(&RawConfig::paper(), &w, CslcMode::CacheMimd).unwrap();
        assert!(run.verification.is_ok(CSLC_TOLERANCE), "{:?}", run.verification);
    }

    #[test]
    fn stream_interface_gains_roughly_seventy_percent() {
        let w = CslcWorkload::paper(7).unwrap();
        let cfg = RawConfig::paper();
        let cache = plain(&cfg, &w, CslcMode::CacheMimd).unwrap();
        let stream = plain(&cfg, &w, CslcMode::StreamInterface).unwrap();
        assert!(stream.verification.is_ok(triarch_kernels::verify::CSLC_TOLERANCE));
        let gain = cache.cycles.ratio(stream.cycles);
        // Paper §4.3 projects ~70% improvement on the FFT portion; the
        // whole kernel (FFT-dominated) lands in the same band.
        assert!(gain > 1.4 && gain < 2.1, "gain {gain:.2}");
    }

    #[test]
    fn radix2_pays_more_instructions_than_flops() {
        let (instrs, flops) = fft_issue(128, CslcMode::CacheMimd);
        // Paper: ~26% of cycles are loads/stores, the rest split between
        // flops and address/loop overhead.
        assert_eq!(flops, 4_480);
        assert!(instrs > 2 * flops && instrs < 3 * flops);
    }

    #[test]
    fn memory_stalls_stay_minor() {
        let w = CslcWorkload::new(CslcConfig::small(), 7).unwrap();
        let run = plain(&RawConfig::paper(), &w, CslcMode::CacheMimd).unwrap();
        // Paper: less than 10% of execution time on memory stalls — our
        // stall share is bounded well under issue.
        assert!(run.breakdown.fraction("stall") < 0.2, "{}", run.breakdown);
        assert!(run.breakdown.fraction("issue") > 0.6);
    }

    #[test]
    fn oversized_working_set_is_capacity_error() {
        let mut cfg = RawConfig::paper();
        cfg.local_words = 64;
        let w = CslcWorkload::new(CslcConfig::small(), 7).unwrap();
        assert!(matches!(plain(&cfg, &w, CslcMode::CacheMimd), Err(SimError::Capacity { .. })));
    }
}
