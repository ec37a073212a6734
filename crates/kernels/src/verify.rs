//! The study's one output verifier, and the golden outputs it reads.
//!
//! Every workload computes its golden output at most once, on first use,
//! and shares it with every run that borrows the workload (pool workers
//! included). Engine programs never read it: they hand their output back
//! as a [`KernelOutput`], and [`check`] compares it with the golden.

use std::fmt;
use std::sync::OnceLock;

use triarch_fft::Cf32;
use triarch_simcore::machine::Verification;

use crate::{Kernel, KernelInput};

/// A kernel program's output, as the simulated machine produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelOutput {
    /// Corner-turn words: the transposed matrix, row-major.
    Words(Vec<u32>),
    /// CSLC samples, laid out `[main][subband][bin]`.
    Complex(Vec<Cf32>),
    /// Beam-steering phases, laid out `[dwell][direction][element]`.
    Ints(Vec<i32>),
}

/// Checks `output` against the golden output of `input`'s workload: the
/// one place a run's [`Verification`] comes from.
///
/// Integer outputs must match word for word ([`Verification::BitExact`]);
/// CSLC reports its maximum absolute error ([`Verification::MaxError`]).
/// An output of the wrong kind or length is [`Verification::Unchecked`].
#[must_use]
pub fn check(input: KernelInput<'_>, output: &KernelOutput) -> Verification {
    match (input, output) {
        (KernelInput::CornerTurn(w), KernelOutput::Words(got)) => verify_words(got, w.golden()),
        (KernelInput::Cslc(w), KernelOutput::Complex(got)) => verify_complex(got, w.golden()),
        (KernelInput::BeamSteering(w), KernelOutput::Ints(got)) => verify_words(got, w.golden()),
        _ => Verification::Unchecked,
    }
}

/// Compares integer/word outputs; returns [`Verification::BitExact`] when
/// identical, otherwise [`Verification::Unchecked`].
fn verify_words<T: PartialEq>(got: &[T], expected: &[T]) -> Verification {
    if got.len() == expected.len() && got.iter().zip(expected).all(|(a, b)| a == b) {
        Verification::BitExact
    } else {
        Verification::Unchecked
    }
}

/// Compares complex outputs, returning the maximum absolute elementwise
/// error as [`Verification::MaxError`]. A length mismatch yields
/// [`Verification::Unchecked`].
fn verify_complex(got: &[Cf32], expected: &[Cf32]) -> Verification {
    if got.len() != expected.len() {
        return Verification::Unchecked;
    }
    let max_err = got.iter().zip(expected).map(|(a, b)| a.max_abs_diff(*b)).fold(0.0f32, f32::max);
    Verification::MaxError(max_err)
}

/// A workload's golden output, computed on first use and then shared.
///
/// Invisible to equality and `Debug`: a workload equals its clone
/// whether or not either has computed its golden yet.
#[derive(Clone, Default)]
pub(crate) struct Golden<T>(OnceLock<T>);

impl<T> Golden<T> {
    /// The golden output, computing it with `reference` on first use.
    pub(crate) fn get_or_init(&self, reference: impl FnOnce() -> T) -> &T {
        self.0.get_or_init(reference)
    }
}

impl<T> PartialEq for Golden<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> Eq for Golden<T> {}

impl<T> fmt::Debug for Golden<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("..")
    }
}

/// Relative tolerance used for CSLC outputs throughout the study.
///
/// Different FFT algorithms (radix-2 vs mixed radix-4) accumulate rounding
/// differently, so machine outputs match the reference to ~1e-3 of the
/// signal scale rather than bit-exactly.
pub const CSLC_TOLERANCE: f32 = 5e-3;

/// The study-wide verification tolerance for one kernel: the integer
/// kernels (corner turn, beam steering) must be bit-exact, while the
/// floating-point CSLC uses [`CSLC_TOLERANCE`]. Shared by every driver
/// that classifies run outputs (fault sweeps, design-space sweeps).
#[must_use]
pub fn tolerance(kernel: Kernel) -> f32 {
    match kernel {
        Kernel::CornerTurn | Kernel::BeamSteering => 0.0,
        Kernel::Cslc => CSLC_TOLERANCE,
    }
}

#[cfg(test)]
mod tests {
    use std::ptr;
    use std::sync::Barrier;
    use std::thread;

    use super::*;
    use crate::WorkloadSet;

    #[test]
    fn words_bit_exact() {
        assert_eq!(verify_words(&[1u32, 2, 3], &[1, 2, 3]), Verification::BitExact);
        assert_eq!(verify_words(&[1u32, 2], &[1, 2, 3]), Verification::Unchecked);
        assert_eq!(verify_words(&[1u32, 9, 3], &[1, 2, 3]), Verification::Unchecked);
    }

    #[test]
    fn complex_max_error() {
        let a = [Cf32::new(1.0, 0.0), Cf32::new(0.0, 2.0)];
        let b = [Cf32::new(1.0, 0.001), Cf32::new(0.0, 2.0)];
        match verify_complex(&a, &b) {
            Verification::MaxError(e) => assert!((e - 0.001).abs() < 1e-6),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(verify_complex(&a, &b[..1]), Verification::Unchecked);
    }

    #[test]
    fn identical_complex_is_zero_error() {
        let a = [Cf32::new(1.5, -2.5)];
        assert_eq!(verify_complex(&a, &a), Verification::MaxError(0.0));
        assert!(verify_complex(&a, &a).is_ok(0.0));
    }

    #[test]
    fn goldens_equal_the_cold_references() {
        let w = WorkloadSet::small(6).unwrap();
        assert_eq!(w.corner_turn.golden(), w.corner_turn.reference_transpose());
        assert_eq!(w.cslc.golden(), w.cslc.reference_output());
        assert_eq!(w.beam_steering.golden(), w.beam_steering.reference_output());
    }

    #[test]
    fn a_workload_equals_its_clone_before_and_after_its_golden() {
        let w = WorkloadSet::small(6).unwrap();
        let (ct, bs) = (w.corner_turn.clone(), w.beam_steering.clone());
        assert_eq!(ct, w.corner_turn);
        assert_eq!(bs, w.beam_steering);
        let _ = (w.corner_turn.golden(), w.beam_steering.golden());
        assert_eq!(ct, w.corner_turn);
        assert_eq!(w.corner_turn, ct);
        assert_eq!(bs, w.beam_steering);
        assert_eq!(w.beam_steering, bs);
        assert_eq!(format!("{ct:?}"), format!("{:?}", w.corner_turn));
        assert_eq!(format!("{bs:?}"), format!("{:?}", w.beam_steering));
        // A clone made after the golden exists still equals the original.
        assert_eq!(w.corner_turn.clone(), ct);
    }

    #[test]
    fn threads_sharing_a_workload_share_one_golden() {
        let w = WorkloadSet::small(6).unwrap();
        // Both threads ask for every golden at once, before any exists.
        let start = Barrier::new(2);
        let goldens = || {
            start.wait();
            (w.corner_turn.golden(), w.cslc.golden(), w.beam_steering.golden())
        };
        let (a, b) = thread::scope(|s| {
            let (a, b) = (s.spawn(goldens), s.spawn(goldens));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(ptr::eq(a.0, b.0) && ptr::eq(a.0, w.corner_turn.golden()));
        assert!(ptr::eq(a.1, b.1) && ptr::eq(a.1, w.cslc.golden()));
        assert!(ptr::eq(a.2, b.2) && ptr::eq(a.2, w.beam_steering.golden()));
    }

    #[test]
    fn the_verifier_passes_the_golden_and_fails_a_flip_or_the_wrong_kind() {
        let w = WorkloadSet::small(6).unwrap();
        let words = KernelOutput::Words(w.corner_turn.reference_transpose());
        let ints = KernelOutput::Ints(w.beam_steering.reference_output());
        let complex = KernelOutput::Complex(w.cslc.reference_output());
        assert_eq!(check(w.input(Kernel::CornerTurn), &words), Verification::BitExact);
        assert_eq!(check(w.input(Kernel::BeamSteering), &ints), Verification::BitExact);
        assert_eq!(check(w.input(Kernel::Cslc), &complex), Verification::MaxError(0.0));

        let mut flipped = w.corner_turn.reference_transpose();
        flipped[17] ^= 1 << 9;
        let flipped = KernelOutput::Words(flipped);
        assert_eq!(check(w.input(Kernel::CornerTurn), &flipped), Verification::Unchecked);
        let mut flipped = w.beam_steering.reference_output();
        flipped[3] ^= 1;
        let flipped = KernelOutput::Ints(flipped);
        assert_eq!(check(w.input(Kernel::BeamSteering), &flipped), Verification::Unchecked);

        // Every kernel refuses the other kernels' output kinds.
        let outputs =
            [(Kernel::CornerTurn, &words), (Kernel::Cslc, &complex), (Kernel::BeamSteering, &ints)];
        for (kernel, _) in outputs {
            for (other, output) in outputs.into_iter().filter(|(other, _)| *other != kernel) {
                assert_eq!(check(w.input(kernel), output), Verification::Unchecked, "{other}");
            }
        }
    }

    #[test]
    fn the_verifier_measures_cslc_error_within_tolerance() {
        let w = WorkloadSet::small(6).unwrap();
        let mut nudged = w.cslc.reference_output();
        nudged[5].re += 1e-3;
        match check(w.input(Kernel::Cslc), &KernelOutput::Complex(nudged)) {
            Verification::MaxError(e) => {
                assert!(e > 0.0 && e <= CSLC_TOLERANCE, "{e}");
                assert!(Verification::MaxError(e).is_ok(tolerance(Kernel::Cslc)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
