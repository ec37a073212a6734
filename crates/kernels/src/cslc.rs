//! The coherent side-lobe canceller (CSLC) kernel.
//!
//! Paper Section 3.2: "CSLC is a radar signal processing kernel used to
//! cancel jammer signals … Our CSLC implementation consists of FFTs, a
//! weight application (multiplication) stage, and IFFTs. … There are four
//! input channels: two main channels and two auxiliary channels. Each
//! channel has 8K samples per processing interval. … The data is
//! partitioned into 73 overlapping sub-bands, each of which contains 128
//! samples, so 128-sample FFTs are used."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triarch_fft::ops::{mixed_128_ops, radix2_ops, radix4_ops, OpCount};
use triarch_fft::{Cf32, Fft};
use triarch_simcore::{KernelDemands, SimError};

use crate::verify::Golden;

/// Paper parameter: number of main (to-be-cleaned) channels.
pub const PAPER_MAIN_CHANNELS: usize = 2;
/// Paper parameter: number of auxiliary (jammer reference) channels.
pub const PAPER_AUX_CHANNELS: usize = 2;
/// Paper parameter: samples per channel per processing interval.
pub const PAPER_SAMPLES: usize = 8192;
/// Paper parameter: number of overlapping sub-bands.
pub const PAPER_SUBBANDS: usize = 73;
/// Paper parameter: FFT length per sub-band.
pub const PAPER_FFT_LEN: usize = 128;

/// Shape of a CSLC problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CslcConfig {
    /// Main channels (each produces one cancelled output stream).
    pub main_channels: usize,
    /// Auxiliary channels (jammer references).
    pub aux_channels: usize,
    /// Samples per channel.
    pub samples: usize,
    /// Number of overlapping sub-bands.
    pub subbands: usize,
    /// Sub-band FFT length (must be a power of two).
    pub fft_len: usize,
}

impl CslcConfig {
    /// The paper's configuration: 2 main + 2 aux channels, 8 K samples,
    /// 73 sub-bands of 128 samples.
    #[must_use]
    pub fn paper() -> Self {
        CslcConfig {
            main_channels: PAPER_MAIN_CHANNELS,
            aux_channels: PAPER_AUX_CHANNELS,
            samples: PAPER_SAMPLES,
            subbands: PAPER_SUBBANDS,
            fft_len: PAPER_FFT_LEN,
        }
    }

    /// A reduced configuration for fast tests (same structure, fewer
    /// sub-bands and samples).
    #[must_use]
    pub fn small() -> Self {
        CslcConfig { main_channels: 2, aux_channels: 2, samples: 512, subbands: 7, fft_len: 64 }
    }

    /// Hop between consecutive sub-band windows; windows overlap whenever
    /// the hop is smaller than the FFT length. For the paper config the
    /// hop is 112 samples (16-sample overlap): 72·112 + 128 = 8192.
    #[must_use]
    pub fn hop(&self) -> usize {
        if self.subbands <= 1 {
            return 0;
        }
        (self.samples - self.fft_len) / (self.subbands - 1)
    }

    /// Forward FFTs per interval (every channel, every sub-band).
    #[must_use]
    pub fn forward_ffts(&self) -> u64 {
        ((self.main_channels + self.aux_channels) * self.subbands) as u64
    }

    /// Inverse FFTs per interval (every main channel, every sub-band).
    #[must_use]
    pub fn inverse_ffts(&self) -> u64 {
        (self.main_channels * self.subbands) as u64
    }

    /// Real flops in the weight-application stage: per (main, sub-band,
    /// bin), one complex multiply-subtract per aux channel (8 real ops).
    #[must_use]
    pub fn weight_ops(&self) -> u64 {
        (self.main_channels * self.subbands * self.fft_len) as u64 * self.aux_channels as u64 * 8
    }

    /// Total real flops using the mixed radix-4 FFT (VIRAM, Imagine).
    #[must_use]
    pub fn total_ops_radix4(&self) -> u64 {
        self.fft_opcount_radix4().total() * (self.forward_ffts() + self.inverse_ffts())
            + self.weight_ops()
    }

    /// Total real flops using the radix-2 FFT (Raw's mapping).
    #[must_use]
    pub fn total_ops_radix2(&self) -> u64 {
        radix2_ops(self.fft_len).total() * (self.forward_ffts() + self.inverse_ffts())
            + self.weight_ops()
    }

    /// Op count of one sub-band transform under the radix-4 mapping
    /// (for 128 points this is exactly the paper's 3 radix-4 stages plus
    /// 1 radix-2 stage).
    #[must_use]
    pub fn fft_opcount_radix4(&self) -> OpCount {
        debug_assert!(self.fft_len != 128 || radix4_ops(128) == mixed_128_ops());
        radix4_ops(self.fft_len)
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.main_channels == 0 || self.aux_channels == 0 {
            return Err(SimError::invalid_config("cslc needs main and aux channels"));
        }
        if self.subbands == 0 {
            return Err(SimError::invalid_config("cslc needs at least one sub-band"));
        }
        if !self.fft_len.is_power_of_two() || self.fft_len < 2 {
            return Err(SimError::invalid_config("cslc fft length must be a power of two >= 2"));
        }
        if self.samples < self.fft_len {
            return Err(SimError::invalid_config("cslc needs at least fft_len samples"));
        }
        if self.subbands > 1 && self.hop() == 0 {
            return Err(SimError::invalid_config("cslc sub-bands overlap completely (hop = 0)"));
        }
        Ok(())
    }
}

/// A CSLC workload: channel data plus per-(main, aux, sub-band, bin)
/// cancellation weights.
#[derive(Debug, Clone)]
pub struct CslcWorkload {
    cfg: CslcConfig,
    /// `[main_channel][sample]`
    main: Vec<Vec<Cf32>>,
    /// `[aux_channel][sample]`
    aux: Vec<Vec<Cf32>>,
    /// `[main][aux][subband * fft_len + bin]`
    weights: Vec<Vec<Vec<Cf32>>>,
    /// Forward FFT plan for `cfg.fft_len` (built once at construction so
    /// the reference pipeline stays panic-free).
    forward: Fft,
    /// Inverse FFT plan for `cfg.fft_len`.
    inverse: Fft,
    /// The reference output, computed on first use.
    golden: Golden<Vec<Cf32>>,
}

/// Executes a plan on a window whose length matches it by construction.
///
/// `CslcWorkload` builds its plans for `cfg.fft_len` and slices every
/// window to exactly that length, so the process call cannot fail; the
/// `debug_assert` pins that invariant in tests without a panic path in
/// release code.
fn run_plan(plan: &Fft, window: &mut [Cf32]) {
    debug_assert_eq!(plan.len(), window.len());
    let _ = plan.process(window);
}

impl CslcWorkload {
    /// Creates the paper-sized workload from a seed.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation (never fails for the paper
    /// parameters).
    pub fn paper(seed: u64) -> Result<Self, SimError> {
        Self::new(CslcConfig::paper(), seed)
    }

    /// Creates a workload for an arbitrary configuration.
    ///
    /// The main channels carry a synthetic target plus jammer leakage; the
    /// aux channels carry the jammer reference; weights model the coupling
    /// between them.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn new(cfg: CslcConfig, seed: u64) -> Result<Self, SimError> {
        cfg.validate()?;
        let forward =
            Fft::forward(cfg.fft_len).map_err(|e| SimError::invalid_config(e.to_string()))?;
        let inverse =
            Fft::inverse(cfg.fft_len).map_err(|e| SimError::invalid_config(e.to_string()))?;
        let mut rng = StdRng::seed_from_u64(seed);
        let jammer_freq: f32 = rng.gen_range(0.05..0.45);
        let target_freq: f32 = rng.gen_range(0.05..0.45);

        let aux: Vec<Vec<Cf32>> = (0..cfg.aux_channels)
            .map(|a| {
                (0..cfg.samples)
                    .map(|t| {
                        let phase =
                            2.0 * std::f32::consts::PI * jammer_freq * t as f32 + a as f32 * 0.3;
                        Cf32::from_angle(phase) + noise(&mut rng, 0.01)
                    })
                    .collect()
            })
            .collect();

        let main: Vec<Vec<Cf32>> = (0..cfg.main_channels)
            .map(|m| {
                (0..cfg.samples)
                    .map(|t| {
                        let target =
                            Cf32::from_angle(2.0 * std::f32::consts::PI * target_freq * t as f32)
                                .scale(0.5);
                        let leak: Cf32 = aux
                            .iter()
                            .map(|ch| ch[t].scale(0.2 + 0.05 * m as f32))
                            .fold(Cf32::ZERO, |acc, v| acc + v);
                        target + leak + noise(&mut rng, 0.01)
                    })
                    .collect()
            })
            .collect();

        let weights: Vec<Vec<Vec<Cf32>>> = (0..cfg.main_channels)
            .map(|_| {
                (0..cfg.aux_channels)
                    .map(|_| {
                        (0..cfg.subbands * cfg.fft_len)
                            .map(|_| Cf32::new(rng.gen_range(-0.3..0.3), rng.gen_range(-0.3..0.3)))
                            .collect()
                    })
                    .collect()
            })
            .collect();

        Ok(CslcWorkload { cfg, main, aux, weights, forward, inverse, golden: Golden::default() })
    }

    /// The workload's configuration.
    #[must_use]
    pub fn config(&self) -> &CslcConfig {
        &self.cfg
    }

    /// Main-channel samples: `main(m)[t]`.
    #[must_use]
    pub fn main_channel(&self, m: usize) -> &[Cf32] {
        &self.main[m]
    }

    /// Aux-channel samples: `aux(a)[t]`.
    #[must_use]
    pub fn aux_channel(&self, a: usize) -> &[Cf32] {
        &self.aux[a]
    }

    /// Weight vector for `(main, aux)` over all sub-bands, indexed
    /// `subband * fft_len + bin`.
    #[must_use]
    pub fn weights(&self, m: usize, a: usize) -> &[Cf32] {
        &self.weights[m][a]
    }

    /// Runs the reference pipeline: FFT each channel's sub-bands, subtract
    /// weighted aux spectra from each main spectrum, IFFT. Computes afresh
    /// on every call.
    ///
    /// Output layout: `[main][subband][bin]` flattened, i.e.
    /// `out[(m * subbands + s) * fft_len + k]`.
    #[must_use]
    pub fn reference_output(&self) -> Vec<Cf32> {
        let cfg = &self.cfg;
        let hop = cfg.hop();

        // Aux spectra are shared by all main channels: [aux][subband][bin].
        let aux_spectra: Vec<Vec<Vec<Cf32>>> = (0..cfg.aux_channels)
            .map(|a| {
                (0..cfg.subbands)
                    .map(|s| {
                        let start = s * hop;
                        let mut window = self.aux[a][start..start + cfg.fft_len].to_vec();
                        run_plan(&self.forward, &mut window);
                        window
                    })
                    .collect()
            })
            .collect();

        let mut out = Vec::with_capacity(cfg.main_channels * cfg.subbands * cfg.fft_len);
        for m in 0..cfg.main_channels {
            for s in 0..cfg.subbands {
                let start = s * hop;
                let mut spectrum = self.main[m][start..start + cfg.fft_len].to_vec();
                run_plan(&self.forward, &mut spectrum);
                for (a, aux) in aux_spectra.iter().enumerate() {
                    let weights = &self.weights[m][a];
                    for (k, v) in spectrum.iter_mut().enumerate() {
                        *v -= weights[s * cfg.fft_len + k] * aux[s][k];
                    }
                }
                run_plan(&self.inverse, &mut spectrum);
                out.extend_from_slice(&spectrum);
            }
        }
        out
    }

    /// The reference output, computed on first use and then shared by
    /// every run of this workload. Only the verifier reads it.
    #[must_use]
    pub(crate) fn golden(&self) -> &[Cf32] {
        self.golden.get_or_init(|| self.reference_output())
    }

    /// Number of complex samples in the output.
    #[must_use]
    pub fn output_len(&self) -> usize {
        self.cfg.main_channels * self.cfg.subbands * self.cfg.fft_len
    }

    /// Demands for a machine whose working set stays on chip: input and
    /// output cross the memory interface once (2 words per complex
    /// sample); all FFT traffic stays in registers/SRF/local store.
    #[must_use]
    pub fn demands(&self) -> KernelDemands {
        let cfg = &self.cfg;
        let input_words =
            ((cfg.main_channels + cfg.aux_channels) * cfg.subbands * cfg.fft_len * 2) as u64;
        let weight_words =
            (cfg.main_channels * cfg.aux_channels * cfg.subbands * cfg.fft_len * 2) as u64;
        let output_words = (self.output_len() * 2) as u64;
        KernelDemands {
            onchip_words: input_words + weight_words + output_words,
            offchip_words: input_words + weight_words + output_words,
            ops: cfg.total_ops_radix4(),
        }
    }
}

fn noise(rng: &mut StdRng, scale: f32) -> Cf32 {
    Cf32::new(rng.gen_range(-scale..scale), rng.gen_range(-scale..scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_shape() {
        let cfg = CslcConfig::paper();
        assert_eq!(cfg.hop(), 112);
        assert_eq!(cfg.forward_ffts(), 292);
        assert_eq!(cfg.inverse_ffts(), 146);
        // 72 hops of 112 plus a final 128-sample window covers 8192 exactly.
        assert_eq!((cfg.subbands - 1) * cfg.hop() + cfg.fft_len, cfg.samples);
    }

    #[test]
    fn op_counts_are_consistent() {
        let cfg = CslcConfig::paper();
        assert_eq!(cfg.weight_ops(), 2 * 73 * 128 * 2 * 8);
        // Radix-2 executes more flops than radix-4 on the same kernel.
        assert!(cfg.total_ops_radix2() > cfg.total_ops_radix4());
        // Both are dominated by the 438 transforms.
        assert!(cfg.total_ops_radix4() > 438 * 3_000);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut cfg = CslcConfig::paper();
        cfg.main_channels = 0;
        assert!(CslcWorkload::new(cfg, 0).is_err());
        let mut cfg = CslcConfig::paper();
        cfg.fft_len = 100;
        assert!(CslcWorkload::new(cfg, 0).is_err());
        let mut cfg = CslcConfig::paper();
        cfg.samples = 64;
        assert!(CslcWorkload::new(cfg, 0).is_err());
        let mut cfg = CslcConfig::paper();
        cfg.subbands = 0;
        assert!(CslcWorkload::new(cfg, 0).is_err());
    }

    #[test]
    fn reference_output_has_expected_length() {
        let w = CslcWorkload::new(CslcConfig::small(), 5).unwrap();
        let out = w.reference_output();
        assert_eq!(out.len(), w.output_len());
        assert_eq!(out.len(), 2 * 7 * 64);
        // Output must be finite everywhere.
        assert!(out.iter().all(|v| v.re.is_finite() && v.im.is_finite()));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CslcWorkload::new(CslcConfig::small(), 11).unwrap();
        let b = CslcWorkload::new(CslcConfig::small(), 11).unwrap();
        assert_eq!(a.reference_output(), b.reference_output());
    }

    #[test]
    fn cancellation_reduces_jammer_when_weights_match_coupling() {
        // Build a workload, then override weights with the true coupling
        // (0.2 for main 0) and verify the jammer tone is attenuated.
        let cfg = CslcConfig::small();
        let mut w = CslcWorkload::new(cfg, 3).unwrap();
        for a in 0..cfg.aux_channels {
            for v in w.weights[0][a].iter_mut() {
                *v = Cf32::new(0.2, 0.0);
            }
        }
        let out = w.reference_output();
        // Locate the jammer from the aux reference spectrum, then compare
        // main channel 0's first sub-band before/after at that bin.
        let forward = Fft::forward(cfg.fft_len).unwrap();
        let mut aux_spec = w.aux[0][..cfg.fft_len].to_vec();
        forward.process(&mut aux_spec).unwrap();
        let jammer_bin = aux_spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))
            .map(|(i, _)| i)
            .unwrap();
        let mut before = w.main[0][..cfg.fft_len].to_vec();
        forward.process(&mut before).unwrap();
        let mut after = out[..cfg.fft_len].to_vec();
        forward.process(&mut after).unwrap();
        assert!(
            after[jammer_bin].abs() < before[jammer_bin].abs(),
            "weighted subtraction should attenuate the dominant (jammer) bin"
        );
    }

    #[test]
    fn demands_count_all_streams() {
        let w = CslcWorkload::paper(0).unwrap();
        let d = w.demands();
        assert!(d.ops > 1_500_000, "CSLC is compute heavy: {}", d.ops);
        assert!(d.onchip_words > 100_000);
    }
}
