//! In-register vectorized FFT for the VIRAM vector unit.
//!
//! The transform operates on planar complex data held in four vector
//! registers (re lo/hi, im lo/hi for n = 2·MVL; the hi registers are
//! unused for n ≤ MVL). Each butterfly stage gathers operand vectors with
//! register permutes, applies the twiddle multiply on the FP pipe, and
//! scatters results back — reproducing the shuffle overhead the paper
//! measures on VIRAM ("instructions … to perform the FFT shuffles
//! increase the number of cycles by a factor of 1.67").

use triarch_fft::twiddle::{self, bit_reverse};
use triarch_fft::Direction;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::SimError;

use crate::vector::{FpOp, VectorUnit};

/// Register map used by the vectorized FFT (and shared with the CSLC
/// weight stage).
pub mod regs {
    /// Data bank A: re lo, re hi, im lo, im hi.
    pub const DATA_A: [usize; 4] = [0, 1, 2, 3];
    /// Data bank B (ping-pong target).
    pub const DATA_B: [usize; 4] = [4, 5, 6, 7];
    /// Gathered butterfly operands.
    pub const A_RE: usize = 8;
    /// Gathered butterfly operands (imaginary).
    pub const A_IM: usize = 9;
    /// Gathered butterfly partners.
    pub const B_RE: usize = 10;
    /// Gathered butterfly partners (imaginary).
    pub const B_IM: usize = 11;
    /// Twiddled partner (real).
    pub const T_RE: usize = 12;
    /// Twiddled partner (imaginary).
    pub const T_IM: usize = 13;
    /// Scratch.
    pub const TMP: usize = 14;
    /// Scratch.
    pub const TMP2: usize = 15;
    /// Butterfly sums.
    pub const S_RE: usize = 16;
    /// Butterfly sums (imaginary).
    pub const S_IM: usize = 17;
    /// First twiddle-table register; stage `s ≥ 1` uses `TABLES + 2(s-1)`
    /// (re) and `+1` (im).
    pub const TABLES: usize = 18;
}

#[derive(Debug, Clone)]
struct StagePlan {
    gather_a: Vec<usize>,
    gather_b: Vec<usize>,
    scatter_lo: Vec<usize>,
    scatter_hi: Vec<usize>,
    w_re: Vec<u32>,
    w_im: Vec<u32>,
}

/// A planned in-register FFT of `n` points on a unit with maximum vector
/// length `mvl`.
#[derive(Debug, Clone)]
pub struct VfftPlan {
    n: usize,
    mvl: usize,
    inverse: bool,
    bitrev_lo: Vec<usize>,
    bitrev_hi: Vec<usize>,
    /// `0..min(n, mvl)`: copies a result register into bank A.
    identity: Vec<usize>,
    stages: Vec<StagePlan>,
}

impl VfftPlan {
    /// Plans an `n`-point transform.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] unless `n` is a power of two with
    /// `4 ≤ n ≤ 2·mvl` (the dataflow needs at least one full register of
    /// butterflies and at most two registers per plane).
    pub fn new(n: usize, mvl: usize, inverse: bool) -> Result<Self, SimError> {
        if !n.is_power_of_two() || n < 4 || n > 2 * mvl {
            return Err(SimError::unsupported(format!(
                "vectorized FFT supports power-of-two 4..={} points, got {n}",
                2 * mvl
            )));
        }
        let bits = n.trailing_zeros();
        let lo_len = n.min(mvl);
        let bitrev_lo: Vec<usize> = (0..lo_len).map(|i| bit_reverse(i, bits)).collect();
        let bitrev_hi: Vec<usize> = (lo_len..n).map(|i| bit_reverse(i, bits)).collect();
        let dir = if inverse { Direction::Inverse } else { Direction::Forward };
        let table = twiddle::table(n, dir);

        let mut stages = Vec::new();
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            // a-positions in ascending order and their ranks.
            let mut rank_of = vec![usize::MAX; n];
            let mut gather_a = Vec::with_capacity(n / 2);
            let mut gather_b = Vec::with_capacity(n / 2);
            let mut w_re = Vec::with_capacity(n / 2);
            let mut w_im = Vec::with_capacity(n / 2);
            #[allow(clippy::needless_range_loop)]
            // `i` is the butterfly position, not an index into a slice we iterate
            for i in 0..n {
                if i & half == 0 {
                    let r = gather_a.len();
                    rank_of[i] = r;
                    gather_a.push(i);
                    gather_b.push(i + half);
                    let w = table[(i & (half - 1)) * (n / len)];
                    w_re.push(w.re.to_bits());
                    w_im.push(w.im.to_bits());
                }
            }
            // Scatter: output position p takes S[rank(p)] when the half
            // bit is clear, else D[rank(p - half)] (register offset +mvl).
            let scatter = |p: usize| -> usize {
                if p & half == 0 {
                    rank_of[p]
                } else {
                    mvl + rank_of[p - half]
                }
            };
            let scatter_lo: Vec<usize> = (0..lo_len).map(scatter).collect();
            let scatter_hi: Vec<usize> = (lo_len..n).map(scatter).collect();
            stages.push(StagePlan { gather_a, gather_b, scatter_lo, scatter_hi, w_re, w_im });
            len *= 2;
        }
        let identity = (0..lo_len).collect();
        Ok(VfftPlan { n, mvl, inverse, bitrev_lo, bitrev_hi, identity, stages })
    }

    /// Transform length.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of butterfly stages (`log2 n`).
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Loads the per-stage twiddle tables into the table registers.
    /// Stage 0 (`half == 1`) multiplies by one and needs no table.
    ///
    /// # Errors
    ///
    /// Propagates register/length errors from the unit.
    pub fn load_tables<S: TraceSink, F: FaultHook>(
        &self,
        unit: &mut VectorUnit<S, F>,
    ) -> Result<(), SimError> {
        for (s, stage) in self.stages.iter().enumerate().skip(1) {
            let base = regs::TABLES + 2 * (s - 1);
            unit.vset_table(base, &stage.w_re)?;
            unit.vset_table(base + 1, &stage.w_im)?;
        }
        Ok(())
    }

    fn two_regs(&self) -> bool {
        self.n > self.mvl
    }

    /// Executes the transform on data in bank A (`regs::DATA_A`), leaving
    /// the result in bank A. Data layout: `re` in registers 0/1 (lo/hi)
    /// and `im` in 2/3; the hi registers are unused when `n ≤ mvl`.
    ///
    /// # Errors
    ///
    /// Propagates unit errors; table registers must have been loaded via
    /// [`load_tables`](Self::load_tables).
    pub fn execute<S: TraceSink, F: FaultHook>(
        &self,
        unit: &mut VectorUnit<S, F>,
    ) -> Result<(), SimError> {
        let nb = self.n / 2; // butterflies per stage, = gather length
        let lo_len = self.n.min(self.mvl);
        let mut cur = regs::DATA_A;
        let mut alt = regs::DATA_B;

        // Bit-reversal reordering: pure permutation into the other bank.
        unit.vperm2(alt[0], cur[0], cur[1], &self.bitrev_lo)?;
        unit.vperm2(alt[2], cur[2], cur[3], &self.bitrev_lo)?;
        if self.two_regs() {
            unit.vperm2(alt[1], cur[0], cur[1], &self.bitrev_hi)?;
            unit.vperm2(alt[3], cur[2], cur[3], &self.bitrev_hi)?;
        }
        std::mem::swap(&mut cur, &mut alt);

        for (s, stage) in self.stages.iter().enumerate() {
            // Gather butterfly operands.
            unit.vperm2(regs::A_RE, cur[0], cur[1], &stage.gather_a)?;
            unit.vperm2(regs::A_IM, cur[2], cur[3], &stage.gather_a)?;
            unit.vperm2(regs::B_RE, cur[0], cur[1], &stage.gather_b)?;
            unit.vperm2(regs::B_IM, cur[2], cur[3], &stage.gather_b)?;

            let (t_re, t_im) = if s == 0 {
                // First stage twiddles are all 1: T = B.
                (regs::B_RE, regs::B_IM)
            } else {
                let w_re = regs::TABLES + 2 * (s - 1);
                let w_im = w_re + 1;
                // T = W * B (complex).
                unit.vfp(FpOp::Mul, regs::TMP, regs::B_RE, w_re, nb)?;
                unit.vfp(FpOp::Mul, regs::TMP2, regs::B_IM, w_im, nb)?;
                unit.vfp(FpOp::Sub, regs::T_RE, regs::TMP, regs::TMP2, nb)?;
                unit.vfp(FpOp::Mul, regs::TMP, regs::B_RE, w_im, nb)?;
                unit.vfp(FpOp::Mul, regs::TMP2, regs::B_IM, w_re, nb)?;
                unit.vfp(FpOp::Add, regs::T_IM, regs::TMP, regs::TMP2, nb)?;
                (regs::T_RE, regs::T_IM)
            };

            // S = A + T in S regs; D = A - T reuses the B regs.
            unit.vfp(FpOp::Add, regs::S_RE, regs::A_RE, t_re, nb)?;
            unit.vfp(FpOp::Add, regs::S_IM, regs::A_IM, t_im, nb)?;
            unit.vfp(FpOp::Sub, regs::B_RE, regs::A_RE, t_re, nb)?;
            unit.vfp(FpOp::Sub, regs::B_IM, regs::A_IM, t_im, nb)?;

            // Scatter into the other bank.
            unit.vperm2(alt[0], regs::S_RE, regs::B_RE, &stage.scatter_lo)?;
            unit.vperm2(alt[2], regs::S_IM, regs::B_IM, &stage.scatter_lo)?;
            if self.two_regs() {
                unit.vperm2(alt[1], regs::S_RE, regs::B_RE, &stage.scatter_hi)?;
                unit.vperm2(alt[3], regs::S_IM, regs::B_IM, &stage.scatter_hi)?;
            }
            std::mem::swap(&mut cur, &mut alt);
        }

        // 1/N scaling for the inverse transform.
        if self.inverse {
            let inv = (1.0 / self.n as f32).to_bits();
            unit.vsplat(regs::TMP, inv, lo_len)?;
            unit.vfp(FpOp::Mul, cur[0], cur[0], regs::TMP, lo_len)?;
            unit.vfp(FpOp::Mul, cur[2], cur[2], regs::TMP, lo_len)?;
            if self.two_regs() {
                unit.vfp(FpOp::Mul, cur[1], cur[1], regs::TMP, self.n - lo_len)?;
                unit.vfp(FpOp::Mul, cur[3], cur[3], regs::TMP, self.n - lo_len)?;
            }
        }

        // Ensure the result ends in bank A (identity copy if the stage
        // count left it in bank B).
        if cur != regs::DATA_A {
            let identity = &self.identity;
            unit.vperm2(regs::DATA_A[0], cur[0], cur[0], identity)?;
            unit.vperm2(regs::DATA_A[2], cur[2], cur[2], identity)?;
            if self.two_regs() {
                unit.vperm2(regs::DATA_A[1], cur[1], cur[1], identity)?;
                unit.vperm2(regs::DATA_A[3], cur[3], cur[3], identity)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ViramConfig;
    use triarch_fft::{dft_naive, Cf32};

    fn run_vfft(n: usize, input: &[Cf32], inverse: bool) -> Vec<Cf32> {
        let cfg = ViramConfig::paper();
        let mut unit = VectorUnit::new(&cfg).unwrap();
        let plan = VfftPlan::new(n, cfg.mvl, inverse).unwrap();
        plan.load_tables(&mut unit).unwrap();
        let lo = n.min(cfg.mvl);
        // Stage the planar data through DRAM and vector loads.
        let re: Vec<f32> = input.iter().map(|c| c.re).collect();
        let im: Vec<f32> = input.iter().map(|c| c.im).collect();
        unit.memory_mut().write_block_f32(0, &re).unwrap();
        unit.memory_mut().write_block_f32(n, &im).unwrap();
        unit.vload_unit(regs::DATA_A[0], 0, lo).unwrap();
        unit.vload_unit(regs::DATA_A[2], n, lo).unwrap();
        if n > lo {
            unit.vload_unit(regs::DATA_A[1], lo, n - lo).unwrap();
            unit.vload_unit(regs::DATA_A[3], n + lo, n - lo).unwrap();
        }
        plan.execute(&mut unit).unwrap();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let (r_reg, i_reg, idx) = if i < lo {
                (regs::DATA_A[0], regs::DATA_A[2], i)
            } else {
                (regs::DATA_A[1], regs::DATA_A[3], i - lo)
            };
            out.push(Cf32::new(
                f32::from_bits(unit.reg(r_reg).unwrap()[idx]),
                f32::from_bits(unit.reg(i_reg).unwrap()[idx]),
            ));
        }
        out
    }

    fn signal(n: usize) -> Vec<Cf32> {
        (0..n).map(|j| Cf32::new((j as f32 * 0.61).sin(), (j as f32 * 0.23).cos())).collect()
    }

    #[test]
    fn matches_dft_at_64_and_128() {
        for &n in &[4usize, 16, 64, 128] {
            let x = signal(n);
            let got = run_vfft(n, &x, false);
            let want = dft_naive(&x);
            let err = got.iter().zip(&want).map(|(a, b)| a.max_abs_diff(*b)).fold(0.0f32, f32::max);
            assert!(err < 1e-3 * n as f32, "n={n} err={err}");
        }
    }

    #[test]
    fn inverse_round_trip() {
        let n = 128;
        let x = signal(n);
        let forward = run_vfft(n, &x, false);
        let back = run_vfft(n, &forward, true);
        let err = back.iter().zip(&x).map(|(a, b)| a.max_abs_diff(*b)).fold(0.0f32, f32::max);
        assert!(err < 1e-4, "round-trip err={err}");
    }

    #[test]
    fn rejects_unsupported_lengths() {
        assert!(VfftPlan::new(100, 64, false).is_err());
        assert!(VfftPlan::new(2, 64, false).is_err());
        assert!(VfftPlan::new(256, 64, false).is_err());
        let plan = VfftPlan::new(128, 64, false).unwrap();
        assert_eq!(plan.n(), 128);
        assert_eq!(plan.stage_count(), 7);
    }

    /// The per-butterfly twiddle `VfftPlan::new` evaluated before it read
    /// the shared table.
    fn oracle_twiddle(k: usize, n: usize, inverse: bool) -> (u32, u32) {
        let sign = if inverse { 1.0 } else { -1.0 };
        let theta = sign * 2.0 * std::f64::consts::PI * k as f64 / n as f64;
        ((theta.cos() as f32).to_bits(), (theta.sin() as f32).to_bits())
    }

    #[test]
    fn stage_twiddles_match_the_per_butterfly_formula() {
        for n in [4, 8, 16, 32, 64, 128] {
            for inverse in [false, true] {
                let plan = VfftPlan::new(n, 64, inverse).unwrap();
                for (s, stage) in plan.stages.iter().enumerate() {
                    let (len, half) = (2 << s, 1 << s);
                    let (re, im): (Vec<u32>, Vec<u32>) = stage
                        .gather_a
                        .iter()
                        .map(|&i| oracle_twiddle((i & (half - 1)) * (n / len), n, inverse))
                        .unzip();
                    assert_eq!(stage.w_re, re, "n = {n}, inverse {inverse}, stage {s}");
                    assert_eq!(stage.w_im, im, "n = {n}, inverse {inverse}, stage {s}");
                }
            }
        }
    }

    #[test]
    fn shuffle_cycles_are_charged() {
        let cfg = ViramConfig::paper();
        let mut unit = VectorUnit::new(&cfg).unwrap();
        let plan = VfftPlan::new(128, cfg.mvl, false).unwrap();
        plan.load_tables(&mut unit).unwrap();
        plan.execute(&mut unit).unwrap();
        let run = unit.finish().unwrap();
        assert!(run.breakdown.get("shuffle").get() > 0, "FFT must pay shuffle overhead");
        assert!(run.breakdown.get("compute").get() > 0);
    }
}
