//! Twiddle-factor tables and index-reversal permutations.
//!
//! The transforms read their twiddles from one table per power-of-two
//! length and direction, built on first use and shared by every later
//! call in the process, from any thread.

use std::sync::OnceLock;

use crate::complex::Cf32;
use crate::plan::Direction;

/// `e^{∓2πik/n}`: the exponent's sign is `-` for [`Direction::Forward`].
///
/// Computed in `f64` and rounded once, so entries are as accurate as
/// `f32` allows regardless of `n`.
pub(crate) fn twiddle(k: usize, n: usize, dir: Direction) -> Cf32 {
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let theta = sign * 2.0 * std::f64::consts::PI * k as f64 / n as f64;
    Cf32::new(theta.cos() as f32, theta.sin() as f32)
}

/// One slot per power-of-two length (indexed by its log2) and direction.
static TABLES: [[OnceLock<Box<[Cf32]>>; usize::BITS as usize]; 2] =
    [const { [const { OnceLock::new() }; usize::BITS as usize] }; 2];

/// The twiddles `twiddle(k, n, dir)` for `k in 0..3n/4`, built on the
/// first call for `n` and `dir` and shared by every later one.
///
/// `3n/4` entries cover both users: radix-2 stages read `k < n/2`, and a
/// radix-4 butterfly reads `k`, `2k` and `3k` for `k < n/4`. An entry for
/// length `n / s`, `s` a power of two, sits at `k · s`: scaling both
/// operands of `k / n` by a power of two leaves every rounding unchanged.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
#[must_use]
pub fn table(n: usize, dir: Direction) -> &'static [Cf32] {
    assert!(n.is_power_of_two(), "twiddle tables require a power-of-two length");
    let slot = &TABLES[dir as usize][n.trailing_zeros() as usize];
    slot.get_or_init(|| (0..3 * n / 4).map(|k| twiddle(k, n, dir)).collect())
}

/// Precomputed twiddle factors `w^k = e^{-2πik/n}` for `k in 0..n/2`.
///
/// Computed in `f64` and rounded once, so tables are as accurate as `f32`
/// allows regardless of `n`.
#[must_use]
pub fn forward_twiddles(n: usize) -> Vec<Cf32> {
    (0..n / 2)
        .map(|k| {
            let theta = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            Cf32::new(theta.cos() as f32, theta.sin() as f32)
        })
        .collect()
}

/// Precomputed inverse twiddle factors `e^{+2πik/n}` for `k in 0..n/2`.
#[must_use]
pub fn inverse_twiddles(n: usize) -> Vec<Cf32> {
    forward_twiddles(n).into_iter().map(Cf32::conj).collect()
}

/// Reverses the lowest `bits` bits of `i`.
#[must_use]
pub fn bit_reverse(i: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    i.reverse_bits() >> (usize::BITS - bits)
}

/// Permutes `data` into bit-reversed order in place.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn bit_reverse_permute<T>(data: &mut [T]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "bit reversal requires a power-of-two length");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if j > i {
            data.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix2::{self, fft_radix2, ifft_radix2};
    use crate::radix4::{self, fft_mixed_128, fft_radix4, ifft_mixed_128, ifft_radix4};
    use proptest::prelude::*;

    fn bits(data: &[Cf32]) -> Vec<(u32, u32)> {
        data.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
    }

    /// Every tabled transform of `input` equals its per-call oracle bit
    /// for bit.
    fn check_against_oracles(input: &[Cf32]) -> Result<(), TestCaseError> {
        type Transform = fn(&mut [Cf32]);
        let n = input.len();
        let radix4_inverse: Transform = |d| radix4::oracle::radix4(d, Direction::Inverse);
        let mut pairs: Vec<(&str, Transform, Transform)> = vec![
            ("fft_radix2", fft_radix2, radix2::oracle::fft_radix2),
            ("ifft_radix2", ifft_radix2, radix2::oracle::ifft_radix2),
            ("fft_radix4", fft_radix4, |d| radix4::oracle::radix4(d, Direction::Forward)),
            ("ifft_radix4", ifft_radix4, radix4_inverse),
        ];
        if n == 128 {
            pairs.push(("fft_mixed_128", fft_mixed_128, |d| {
                radix4::oracle::radix4(d, Direction::Forward)
            }));
            pairs.push(("ifft_mixed_128", ifft_mixed_128, radix4_inverse));
        }
        for (name, tabled, oracle) in pairs {
            let mut got = input.to_vec();
            let mut want = input.to_vec();
            tabled(&mut got);
            oracle(&mut want);
            prop_assert_eq!(bits(&got), bits(&want), "{} at n = {}", name, n);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Lengths 2^0 to 2^12 over arbitrary `f32` bit patterns, NaNs
        /// and infinities included; every case also runs the 128-point
        /// transforms.
        #[test]
        fn tabled_transforms_match_the_per_call_oracle(
            log2 in 0u32..=12,
            words in proptest::collection::vec(any::<u32>(), 2 << 12),
        ) {
            let signal: Vec<Cf32> = words
                .chunks_exact(2)
                .map(|p| Cf32::new(f32::from_bits(p[0]), f32::from_bits(p[1])))
                .collect();
            check_against_oracles(&signal[..1 << log2])?;
            check_against_oracles(&signal[..128])?;
        }
    }

    #[test]
    fn two_threads_fill_a_cold_table_to_the_oracles_bits() {
        // 2^14 points: no other test in this binary uses the length, so
        // both threads race to build its tables.
        let n = 1 << 14;
        let signal: Vec<Cf32> =
            (0..n).map(|j| Cf32::new((j as f32 * 0.37).sin(), (j as f32 * 0.11).cos())).collect();
        let start = std::sync::Barrier::new(2);
        let outputs: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut forward = signal.clone();
                        let mut inverse = signal.clone();
                        start.wait();
                        fft_radix4(&mut forward);
                        ifft_radix4(&mut inverse);
                        (bits(&forward), bits(&inverse))
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("a transform thread panicked")).collect()
        });
        let mut forward = signal.clone();
        let mut inverse = signal.clone();
        radix4::oracle::radix4(&mut forward, Direction::Forward);
        radix4::oracle::radix4(&mut inverse, Direction::Inverse);
        for got in outputs {
            assert!(got == (bits(&forward), bits(&inverse)), "a racing table differs");
        }
        assert!(check_against_oracles(&signal).is_ok());
    }

    #[test]
    fn tables_are_built_once_and_agree_with_forward_twiddles() {
        for n in [1usize, 2, 4, 128, 4096] {
            let forward = table(n, Direction::Forward);
            assert_eq!(forward.len(), 3 * n / 4);
            assert!(std::ptr::eq(forward, table(n, Direction::Forward)));
            let radix2 = forward_twiddles(n);
            assert_eq!(bits(&forward[..n / 2]), bits(&radix2), "n = {n}");
        }
    }

    #[test]
    fn twiddles_lie_on_unit_circle() {
        for &n in &[2usize, 8, 128, 1024] {
            for w in forward_twiddles(n) {
                assert!((w.abs() - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn first_twiddle_is_one() {
        let t = forward_twiddles(8);
        assert!(t[0].max_abs_diff(Cf32::ONE) < 1e-7);
        // w^{n/4} = -i for the forward transform.
        assert!(t[2].max_abs_diff(Cf32::new(0.0, -1.0)) < 1e-6);
    }

    #[test]
    fn inverse_twiddles_are_conjugates() {
        let f = forward_twiddles(64);
        let i = inverse_twiddles(64);
        for (a, b) in f.iter().zip(&i) {
            assert_eq!(a.conj(), *b);
        }
    }

    #[test]
    fn bit_reverse_small_cases() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b011, 3), 0b110);
        assert_eq!(bit_reverse(0b101, 3), 0b101);
        assert_eq!(bit_reverse(1, 1), 1);
        assert_eq!(bit_reverse(0, 0), 0);
    }

    #[test]
    fn bit_reverse_is_involution() {
        for bits in 1..=10u32 {
            for i in 0..(1usize << bits) {
                assert_eq!(bit_reverse(bit_reverse(i, bits), bits), i);
            }
        }
    }

    #[test]
    fn permute_is_involution() {
        let original: Vec<usize> = (0..64).collect();
        let mut data = original.clone();
        bit_reverse_permute(&mut data);
        assert_ne!(data, original);
        bit_reverse_permute(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn permute_rejects_non_power_of_two() {
        let mut data = vec![0u8; 12];
        bit_reverse_permute(&mut data);
    }
}
