//! VIRAM CSLC (paper Section 3.2): vectorized FFT → weight application →
//! IFFT over all sub-bands of all channels.
//!
//! Channel data, weights, intermediate spectra, and output all live in
//! on-chip DRAM in planar (separate re/im) layout; every transform runs
//! through the in-register vectorized FFT of [`super::vfft`].

use triarch_fft::Cf32;
use triarch_kernels::cslc::CslcWorkload;
use triarch_kernels::verify::verify_complex;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, SimError};

use super::vfft::{regs, VfftPlan};
use crate::config::ViramConfig;
use crate::vector::{FpOp, VectorUnit};

/// Runs the CSLC kernel on VIRAM.
///
/// Trace events go to `sink`; `faults` is consulted at every DRAM transfer and
/// its effects are applied; `budget` is the watchdog on simulated cycles.
///
/// # Errors
///
/// Returns [`SimError`] if the working set does not fit in on-chip DRAM or the
/// FFT length is unsupported by the vector register file, plus
/// [`SimError::DetectedFault`] / [`SimError::BudgetExceeded`] from the hook and
/// watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &ViramConfig,
    workload: &CslcWorkload,
    sink: S,
    faults: F,
    budget: CycleBudget,
) -> Result<KernelRun, SimError> {
    let c = *workload.config();
    let n = c.fft_len;
    let hop = c.hop();
    let s_words = c.samples;
    let band_words = c.subbands * n;
    let channels = c.main_channels + c.aux_channels;

    // --- planar memory layout -------------------------------------------------
    let ch_base = |ch: usize| ch * 2 * s_words; // re plane, then im plane
    let w_base = channels * 2 * s_words;
    let weights_at = |m: usize, a: usize| w_base + (m * c.aux_channels + a) * 2 * band_words;
    let spec_base = w_base + c.main_channels * c.aux_channels * 2 * band_words;
    let spec_at = |ch: usize, s: usize| spec_base + (ch * c.subbands + s) * 2 * n;
    let out_base = spec_base + channels * 2 * band_words;
    let out_at = |m: usize, s: usize| out_base + (m * c.subbands + s) * 2 * n;
    let needed = out_base + c.main_channels * 2 * band_words;
    if needed > cfg.dram_words {
        return Err(SimError::capacity("viram on-chip DRAM", needed, cfg.dram_words));
    }

    let mut unit = VectorUnit::with_hooks(cfg, sink, faults, budget)?;

    // Stage resident data (uncharged: inputs arrive via DMA ahead of the
    // processing interval).
    for ch in 0..channels {
        let data = if ch < c.main_channels {
            workload.main_channel(ch)
        } else {
            workload.aux_channel(ch - c.main_channels)
        };
        let re: Vec<f32> = data.iter().map(|v| v.re).collect();
        let im: Vec<f32> = data.iter().map(|v| v.im).collect();
        unit.memory_mut().write_block_f32(ch_base(ch), &re)?;
        unit.memory_mut().write_block_f32(ch_base(ch) + s_words, &im)?;
    }
    for m in 0..c.main_channels {
        for a in 0..c.aux_channels {
            let w = workload.weights(m, a);
            let re: Vec<f32> = w.iter().map(|v| v.re).collect();
            let im: Vec<f32> = w.iter().map(|v| v.im).collect();
            unit.memory_mut().write_block_f32(weights_at(m, a), &re)?;
            unit.memory_mut().write_block_f32(weights_at(m, a) + band_words, &im)?;
        }
    }

    let lo = n.min(cfg.mvl);
    let hi = n - lo;
    let load_planar =
        |unit: &mut VectorUnit<S, F>, re_addr: usize, im_addr: usize| -> Result<(), SimError> {
            unit.vload_unit(regs::DATA_A[0], re_addr, lo)?;
            unit.vload_unit(regs::DATA_A[2], im_addr, lo)?;
            if hi > 0 {
                unit.vload_unit(regs::DATA_A[1], re_addr + lo, hi)?;
                unit.vload_unit(regs::DATA_A[3], im_addr + lo, hi)?;
            }
            Ok(())
        };
    let store_planar =
        |unit: &mut VectorUnit<S, F>, re_addr: usize, im_addr: usize| -> Result<(), SimError> {
            unit.vstore_unit(regs::DATA_A[0], re_addr, lo)?;
            unit.vstore_unit(regs::DATA_A[2], im_addr, lo)?;
            if hi > 0 {
                unit.vstore_unit(regs::DATA_A[1], re_addr + lo, hi)?;
                unit.vstore_unit(regs::DATA_A[3], im_addr + lo, hi)?;
            }
            Ok(())
        };

    // --- phase 1: forward FFT of every channel window -------------------------
    let forward = VfftPlan::new(n, cfg.mvl, false)?;
    forward.load_tables(&mut unit)?;
    for ch in 0..channels {
        for s in 0..c.subbands {
            let off = s * hop;
            load_planar(&mut unit, ch_base(ch) + off, ch_base(ch) + s_words + off)?;
            forward.execute(&mut unit)?;
            store_planar(&mut unit, spec_at(ch, s), spec_at(ch, s) + n)?;
            unit.scalar(4);
        }
    }

    // --- phase 2: weight application ------------------------------------------
    // M(k) -= Σ_a W_a(k) · A_a(k); memory streaming overlaps the FP pipe.
    for m in 0..c.main_channels {
        for s in 0..c.subbands {
            unit.begin_overlap()?;
            load_planar(&mut unit, spec_at(m, s), spec_at(m, s) + n)?;
            for a in 0..c.aux_channels {
                let aux_ch = c.main_channels + a;
                let wb = weights_at(m, a) + s * n;
                // Load weights into the gathered-operand registers and the
                // aux spectrum into T/TMP registers, half a plane at a time.
                let halves: [(usize, usize, usize); 2] = [(0, lo, 0), (lo, hi, 1)];
                for &(off, len, bank) in halves.iter().filter(|h| h.1 > 0) {
                    let (w_re, w_im) = (regs::A_RE, regs::A_IM);
                    let (x_re, x_im) = (regs::B_RE, regs::B_IM);
                    unit.vload_unit(w_re, wb + off, len)?;
                    unit.vload_unit(w_im, wb + band_words + off, len)?;
                    unit.vload_unit(x_re, spec_at(aux_ch, s) + off, len)?;
                    unit.vload_unit(x_im, spec_at(aux_ch, s) + n + off, len)?;
                    // T = W * X (complex), then M -= T.
                    unit.vfp(FpOp::Mul, regs::TMP, w_re, x_re, len)?;
                    unit.vfp(FpOp::Mul, regs::TMP2, w_im, x_im, len)?;
                    unit.vfp(FpOp::Sub, regs::T_RE, regs::TMP, regs::TMP2, len)?;
                    unit.vfp(FpOp::Mul, regs::TMP, w_re, x_im, len)?;
                    unit.vfp(FpOp::Mul, regs::TMP2, w_im, x_re, len)?;
                    unit.vfp(FpOp::Add, regs::T_IM, regs::TMP, regs::TMP2, len)?;
                    // bank 0 -> regs 0 (re) and 2 (im); bank 1 -> 1 and 3.
                    let m_re = if bank == 0 { regs::DATA_A[0] } else { regs::DATA_A[1] };
                    let m_im = if bank == 0 { regs::DATA_A[2] } else { regs::DATA_A[3] };
                    unit.vfp(FpOp::Sub, m_re, m_re, regs::T_RE, len)?;
                    unit.vfp(FpOp::Sub, m_im, m_im, regs::T_IM, len)?;
                }
            }
            store_planar(&mut unit, spec_at(m, s), spec_at(m, s) + n)?;
            unit.end_overlap()?;
            unit.scalar(4);
        }
    }

    // --- phase 3: inverse FFT of every cancelled spectrum ---------------------
    let inverse = VfftPlan::new(n, cfg.mvl, true)?;
    inverse.load_tables(&mut unit)?;
    for m in 0..c.main_channels {
        for s in 0..c.subbands {
            load_planar(&mut unit, spec_at(m, s), spec_at(m, s) + n)?;
            inverse.execute(&mut unit)?;
            store_planar(&mut unit, out_at(m, s), out_at(m, s) + n)?;
            unit.scalar(4);
        }
    }

    // --- extract and verify ----------------------------------------------------
    let mut out = Vec::with_capacity(c.main_channels * band_words);
    for m in 0..c.main_channels {
        for s in 0..c.subbands {
            let re = unit.memory().read_block_f32(out_at(m, s), n)?;
            let im = unit.memory().read_block_f32(out_at(m, s) + n, n)?;
            out.extend(re.iter().zip(&im).map(|(r, i)| Cf32::new(*r, *i)));
        }
    }
    let verification = verify_complex(&out, &workload.reference_output());
    unit.finish(verification)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_kernels::cslc::CslcConfig;
    use triarch_kernels::verify::CSLC_TOLERANCE;
    use triarch_simcore::faults::NoFaults;
    use triarch_simcore::trace::NullSink;

    /// The plain run: untraced, unfaulted, unlimited budget.
    fn plain(cfg: &ViramConfig, workload: &CslcWorkload) -> Result<KernelRun, SimError> {
        run(cfg, workload, NullSink, NoFaults, CycleBudget::UNLIMITED)
    }

    #[test]
    fn small_cslc_verifies() {
        let w = CslcWorkload::new(CslcConfig::small(), 4).unwrap();
        let run = plain(&ViramConfig::paper(), &w).unwrap();
        assert!(run.verification.is_ok(CSLC_TOLERANCE), "{:?}", run.verification);
        assert!(run.breakdown.get("shuffle").get() > 0);
        assert!(run.breakdown.get("compute").get() > 0);
    }

    #[test]
    fn fp_restriction_shows_in_compute() {
        // FP executes at 8/cycle: at least ops/8 compute cycles.
        let w = CslcWorkload::new(CslcConfig::small(), 4).unwrap();
        let run = plain(&ViramConfig::paper(), &w).unwrap();
        assert!(run.breakdown.get("compute").get() >= run.ops_executed / 16);
    }

    #[test]
    fn oversized_working_set_is_capacity_error() {
        let mut cfg = ViramConfig::paper();
        cfg.dram_words = 1024;
        let w = CslcWorkload::new(CslcConfig::small(), 4).unwrap();
        assert!(matches!(plain(&cfg, &w), Err(SimError::Capacity { .. })));
    }
}
