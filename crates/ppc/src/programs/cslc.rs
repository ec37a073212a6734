//! G4 CSLC: radix-2 FFT pipeline.
//!
//! The scalar baseline models compiler-generated C that evaluates
//! twiddles with libm calls inside the butterfly loop; the AltiVec
//! variant models hand-vectorized butterflies with shared twiddle
//! evaluation, giving the paper's "performance factor of about six for
//! the CSLC" (Section 4.5).

use triarch_fft::{fft_radix2, ifft_radix2, Cf32};
use triarch_kernels::cslc::CslcWorkload;
use triarch_kernels::KernelOutput;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, SimError};

use super::Variant;
use crate::cache::Block;
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

/// Radix-2 butterflies of an `n`-point FFT, and the AltiVec loop's groups
/// of four (the last one partial: a 2-point FFT is one group).
fn butterflies_and_groups(n: usize) -> (u64, u64) {
    let butterflies = (n as u64 / 2) * u64::from(n.trailing_zeros());
    (butterflies, butterflies.div_ceil(4))
}

/// Charges one `n`-point FFT over the `2n`-word scratch block; returns
/// whether its loads and stores were settled rather than replayed.
///
/// Both loops of [`replay_fft`] stay inside the block and store to every
/// word of it at a multiple of their grain (4 words for `Scalar`, 8 for
/// `Altivec`). Once a run's first FFT has pulled the block into L1, each
/// line in a set of its own, every later FFT only hits it, so the machine
/// settles those hits in one pass over the block's lines and the other
/// costs are charged in bulk. Otherwise — the cold first FFT, a line
/// evicted since, an L1 with fewer sets than block lines or lines the
/// grain does not divide — the loops replay every access.
fn charge_fft<S: TraceSink, F: FaultHook>(
    m: &mut PpcMachine<S, F>,
    n: usize,
    variant: Variant,
) -> bool {
    let (butterflies, groups) = butterflies_and_groups(n);
    let block = |grain| Block { first_word: SCRATCH, words: 2 * n, grain };
    let settled = match variant {
        Variant::Scalar => m.settle_resident(block(4), 4 * butterflies, 4 * butterflies, false),
        Variant::Altivec => m.settle_resident(block(8), 4 * groups, 2 * groups, true),
    };
    match (settled, variant) {
        (false, _) => replay_fft(m, n, variant),
        (true, Variant::Scalar) => {
            m.trig(2 * butterflies);
            m.alu_ops(10 * butterflies);
            m.issue(8 * butterflies);
        }
        (true, Variant::Altivec) => {
            m.trig(groups);
            m.vector_ops(10 * groups);
            m.issue(8 * groups);
        }
    }
    settled
}

/// Replays one FFT's loop access by access. `n` is a power of two
/// (`CslcWorkload` refuses any other length), so every address below
/// wraps within the scratch buffer by a mask.
fn replay_fft<S: TraceSink, F: FaultHook>(m: &mut PpcMachine<S, F>, n: usize, variant: Variant) {
    debug_assert!(n.is_power_of_two(), "fft length {n} is not a power of two");
    let (butterflies, groups) = butterflies_and_groups(n);
    let (wrap_n, wrap_2n) = (n - 1, 2 * n - 1);
    match variant {
        Variant::Scalar => {
            for b in 0..butterflies {
                m.trig(2); // sin + cos inside the loop
                m.alu_ops(10);
                // Operand loads/stores cycle within the scratch buffer.
                let k = (b as usize * 2) & wrap_n;
                m.load(SCRATCH + 2 * k);
                m.load(SCRATCH + 2 * k + 1);
                m.load(SCRATCH + ((2 * k + n) & wrap_2n));
                m.load(SCRATCH + ((2 * k + n + 1) & wrap_2n));
                m.store(SCRATCH + 2 * k);
                m.store(SCRATCH + 2 * k + 1);
                m.store(SCRATCH + ((2 * k + n) & wrap_2n));
                m.store(SCRATCH + ((2 * k + n + 1) & wrap_2n));
                m.issue(8); // index and loop overhead
            }
        }
        Variant::Altivec => {
            // Four butterflies per iteration; twiddles evaluated once per
            // group and splatted.
            for g in 0..groups {
                m.trig(1); // one shared recurrence step per group
                let k = (g as usize * 8) & wrap_2n;
                m.vector_load(SCRATCH + k);
                m.vector_load(SCRATCH + ((k + n) & wrap_2n));
                m.vector_load(SCRATCH + ((k + 4) & wrap_2n));
                m.vector_load(SCRATCH + ((k + n + 4) & wrap_2n));
                m.vector_ops(10);
                m.issue(6); // vperm data rearrangement
                m.vector_store(SCRATCH + k);
                m.vector_store(SCRATCH + ((k + n) & wrap_2n));
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
) -> Result<(KernelRun, KernelOutput), SimError> {
    let c = *workload.config();
    let n = c.fft_len;
    let hop = c.hop();
    let channels = c.main_channels + c.aux_channels;
    let mut m = PpcMachine::with_hooks(cfg, sink, faults, budget)?;

    let mut out = vec![Cf32::ZERO; c.main_channels * c.subbands * n];
    // One spectrum per channel, one cancelled spectrum and one word
    // buffer, reused by every sub-band.
    let mut spectra = vec![vec![Cf32::ZERO; n]; channels];
    let mut spec = vec![Cf32::ZERO; n];
    let mut bits = vec![0u32; 2 * n];
    for s in 0..c.subbands {
        // Forward FFT of each channel's window (charged once per channel,
        // as the C code hoists the shared aux spectra out of the main
        // loop).
        for (ch, window) in spectra.iter_mut().enumerate() {
            for k in 0..2 * n {
                m.load(DATA + ch * c.samples * 2 + s * hop * 2 + k);
            }
            charge_fft(&mut m, n, variant);
            let samples = if ch < c.main_channels {
                workload.main_channel(ch)
            } else {
                workload.aux_channel(ch - c.main_channels)
            };
            window.copy_from_slice(&samples[s * hop..s * hop + n]);
            fft_radix2(window);
        }

        for mc in 0..c.main_channels {
            spec.copy_from_slice(&spectra[mc]);
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
            for (p, v) in bits.chunks_exact_mut(2).zip(&spec) {
                p.copy_from_slice(&[v.re.to_bits(), v.im.to_bits()]);
            }
            m.fault_transfer(base, &mut bits)?;
            let block = &mut out[(mc * c.subbands + s) * n..][..n];
            for (v, p) in block.iter_mut().zip(bits.chunks_exact(2)) {
                *v = Cf32::new(f32::from_bits(p[0]), f32::from_bits(p[1]));
            }
        }
        m.check_budget()?;
        m.checkpoint("subband-done");
    }

    Ok((m.finish()?, KernelOutput::Complex(out)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use proptest::prelude::*;
    use triarch_kernels::cslc::CslcConfig;
    use triarch_kernels::verify::{check, CSLC_TOLERANCE};
    use triarch_kernels::KernelInput;
    use triarch_simcore::faults::NoFaults;
    use triarch_simcore::trace::NullSink;

    /// The plain run: untraced, unfaulted, unlimited budget, and checked
    /// by the study's one verifier.
    fn plain(
        cfg: &PpcConfig,
        workload: &CslcWorkload,
        variant: Variant,
    ) -> Result<KernelRun, SimError> {
        let (mut result, output) =
            run(cfg, workload, variant, NullSink, NoFaults, CycleBudget::UNLIMITED)?;
        result.verification = check(KernelInput::Cslc(workload), &output);
        Ok(result)
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

    #[test]
    fn a_two_point_altivec_fft_is_charged_one_group() {
        // One group: a trig call, 10 four-lane ops, 4 vector loads and 2
        // vector stores of 4 words each; replayed cold, then settled.
        let mut m = PpcMachine::new(&PpcConfig::paper()).unwrap();
        assert!(!charge_fft(&mut m, 2, Variant::Altivec));
        assert!(charge_fft(&mut m, 2, Variant::Altivec));
        let run = m.finish().unwrap();
        assert_eq!(run.metrics.counter_value("ppc.run.trig_calls"), Some(2));
        assert_eq!(run.ops_executed, 2 * 40);
        assert_eq!(run.mem_words, 2 * 24);

        // A 1-main, 1-aux, 1-sub-band run does three FFTs, one group each.
        let c =
            CslcConfig { main_channels: 1, aux_channels: 1, samples: 2, subbands: 1, fft_len: 2 };
        let w = CslcWorkload::new(c, 9).unwrap();
        let run = plain(&PpcConfig::paper(), &w, Variant::Altivec).unwrap();
        assert_eq!(run.breakdown.get("libm").get(), 3 * PpcConfig::paper().trig_cycles);
    }

    #[test]
    fn warm_scratch_blocks_settle_where_the_loops_cover_every_line() {
        // The G4's L1 has 128 sets of 8-word lines: a block of up to 1,024
        // words has a set per line, a 2,048-word one (n = 1024) does not.
        for variant in [Variant::Scalar, Variant::Altivec] {
            for n in [2, 4, 8, 64, 128, 512] {
                let mut m = PpcMachine::new(&PpcConfig::paper()).unwrap();
                assert!(!charge_fft(&mut m, n, variant), "{variant:?}, n = {n}: cold");
                assert!(charge_fft(&mut m, n, variant), "{variant:?}, n = {n}: warm");
            }
            let mut m = PpcMachine::new(&PpcConfig::paper()).unwrap();
            charge_fft(&mut m, 1024, variant);
            assert!(!charge_fft(&mut m, 1024, variant), "{variant:?}: 256 lines in 128 sets");
        }
        // On 4-word lines the scalar loop, which stores every fourth word,
        // still writes every line; the AltiVec loop stores every eighth,
        // so it replays.
        let mut cfg = PpcConfig::paper();
        cfg.l1 = CacheConfig { size_words: 4 * 8 * 128, line_words: 4, ways: 8 };
        for (variant, settles) in [(Variant::Scalar, true), (Variant::Altivec, false)] {
            let mut m = PpcMachine::new(&cfg).unwrap();
            charge_fft(&mut m, 64, variant);
            assert_eq!(charge_fft(&mut m, 64, variant), settles, "{variant:?} on 4-word lines");
        }
    }

    /// Line sizes for drawn L1 and L2 geometries: the scalar loop's grain
    /// (4 words) divides 4, 8, 12, 16 and 32, the AltiVec loop's (8) only
    /// 8, 16 and 32, and neither divides 1, 2, 3, 5 or 6.
    const LINE_WORDS: [usize; 10] = [1, 2, 3, 4, 5, 6, 8, 12, 16, 32];

    /// A drawn geometry, or `None` to keep the G4's.
    fn geometry(g4: bool, line: usize, ways: usize, sets: usize) -> Option<CacheConfig> {
        let line_words = LINE_WORDS[line];
        (!g4).then_some(CacheConfig { size_words: line_words * ways * sets, line_words, ways })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Settle-or-replay FFTs leave a machine exactly as replay-only
        /// ones do: cycles after every FFT, every L1 and L2 set's contents,
        /// and at the end the breakdown and the full metrics report. Each
        /// round streams loads and stores (into the scratch block, into
        /// addresses that share its sets, or anywhere below 2^24) through
        /// both machines, then charges one FFT of either variant. One
        /// access in four is a store, so most scratch lines an FFT only
        /// loads stay clean, and a settle that dirtied them would show.
        #[test]
        fn settled_ffts_match_their_replay(
            l1 in (any::<bool>(), 0usize..10, 1usize..=9, 1usize..=70),
            l2 in (any::<bool>(), 0usize..10, 1usize..=9, 1usize..=300),
            log_n in 1u32..=10,
            rounds in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..3, any::<usize>(), 0usize..4), 0..=40),
                    any::<bool>(),
                ),
                1..=6,
            ),
        ) {
            let mut cfg = PpcConfig::paper();
            if let Some(g) = geometry(l1.0, l1.1, l1.2, l1.3) {
                cfg.l1 = g;
            }
            if let Some(g) = geometry(l2.0, l2.1, l2.2, l2.3) {
                cfg.l2 = g;
            }
            let n = 1usize << log_n;
            let mut settling = PpcMachine::new(&cfg).unwrap();
            let mut replaying = PpcMachine::new(&cfg).unwrap();
            for (i, (stream, altivec)) in rounds.iter().enumerate() {
                for &(kind, x, op) in stream {
                    let addr = match kind {
                        0 => SCRATCH + x % (2 * n),
                        // Lines a whole L1 apart alias the scratch sets.
                        1 => SCRATCH + (1 + x % 8) * cfg.l1.size_words + x % (2 * n),
                        _ => x % (1 << 24),
                    };
                    for m in [&mut settling, &mut replaying] {
                        if op == 0 { m.store(addr) } else { m.load(addr) }
                    }
                }
                let variant = if *altivec { Variant::Altivec } else { Variant::Scalar };
                charge_fft(&mut settling, n, variant);
                replay_fft(&mut replaying, n, variant);
                let what = format!("round {i}, {variant:?}, n = {n}, {cfg:?}");
                prop_assert_eq!(settling.cycles(), replaying.cycles(), "{}", what);
                let (a, b) = (settling.caches(), replaying.caches());
                for set in 0..cfg.l1.sets() {
                    prop_assert_eq!(a.l1.resident(set), b.l1.resident(set), "L1 set {set}, {what}");
                }
                for set in 0..cfg.l2.sets() {
                    prop_assert_eq!(a.l2.resident(set), b.l2.resident(set), "L2 set {set}, {what}");
                }
            }
            let (a, b) = (settling.finish().unwrap(), replaying.finish().unwrap());
            prop_assert_eq!(a.cycles, b.cycles);
            prop_assert_eq!(&a.breakdown, &b.breakdown);
            prop_assert_eq!(&a.metrics, &b.metrics);
            prop_assert_eq!((a.ops_executed, a.mem_words), (b.ops_executed, b.mem_words));
        }
    }
}
