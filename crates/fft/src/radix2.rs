//! Iterative radix-2 decimation-in-time FFT.
//!
//! This is the algorithm the paper's Raw mapping uses ("a C implementation
//! of the radix-2 FFT is used for Raw because it provided better
//! performance than the radix-4 FFT because of register spilling").

use crate::complex::Cf32;
use crate::plan::Direction;
use crate::twiddle::{bit_reverse_permute, table};

/// The butterflies, reading `e^{-2πik/n}` from the shared forward table;
/// the inverse conjugates each entry, as [`crate::twiddle::inverse_twiddles`]
/// does.
fn fft_in_place<const INVERSE: bool>(data: &mut [Cf32]) {
    let n = data.len();
    bit_reverse_permute(data);
    let twiddles = table(n, Direction::Forward);
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let step = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let w = twiddles[k * step];
                let w = if INVERSE { w.conj() } else { w };
                let a = data[start + k];
                let b = data[start + k + half] * w;
                data[start + k] = a + b;
                data[start + k + half] = a - b;
            }
        }
        len *= 2;
    }
}

/// Computes the forward FFT of `data` in place using radix-2 DIT.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two. Use [`crate::Fft`] for a
/// fallible, planned interface.
pub fn fft_radix2(data: &mut [Cf32]) {
    if data.len() <= 1 {
        return;
    }
    fft_in_place::<false>(data);
}

/// Computes the inverse FFT of `data` in place (with `1/N` scaling) using
/// radix-2 DIT.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn ifft_radix2(data: &mut [Cf32]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    fft_in_place::<true>(data);
    let inv = 1.0 / n as f32;
    for v in data.iter_mut() {
        *v = v.scale(inv);
    }
}

/// The per-call transforms the tabled ones are checked against: a fresh
/// twiddle table per call, as before the tables were shared.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::complex::Cf32;
    use crate::twiddle::{bit_reverse_permute, forward_twiddles, inverse_twiddles};

    fn fft_in_place(data: &mut [Cf32], twiddles: &[Cf32]) {
        let n = data.len();
        bit_reverse_permute(data);
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let w = twiddles[k * step];
                    let a = data[start + k];
                    let b = data[start + k + half] * w;
                    data[start + k] = a + b;
                    data[start + k + half] = a - b;
                }
            }
            len *= 2;
        }
    }

    pub(crate) fn fft_radix2(data: &mut [Cf32]) {
        if data.len() <= 1 {
            return;
        }
        let twiddles = forward_twiddles(data.len());
        fft_in_place(data, &twiddles);
    }

    pub(crate) fn ifft_radix2(data: &mut [Cf32]) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        let twiddles = inverse_twiddles(n);
        fft_in_place(data, &twiddles);
        let inv = 1.0 / n as f32;
        for v in data.iter_mut() {
            *v = v.scale(inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_naive;

    fn max_err(a: &[Cf32], b: &[Cf32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x.max_abs_diff(*y)).fold(0.0, f32::max)
    }

    fn signal(n: usize) -> Vec<Cf32> {
        (0..n).map(|j| Cf32::new((j as f32 * 0.7).sin() + 0.3, (j as f32 * 1.3).cos())).collect()
    }

    #[test]
    fn matches_naive_dft_across_sizes() {
        for &n in &[1usize, 2, 4, 8, 32, 128, 512] {
            let x = signal(n);
            let mut y = x.clone();
            fft_radix2(&mut y);
            let reference = dft_naive(&x);
            let scale = n as f32;
            assert!(
                max_err(&y, &reference) < 1e-3 * scale.max(1.0),
                "radix-2 diverges from DFT at n={n}"
            );
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        for &n in &[2usize, 16, 128] {
            let x = signal(n);
            let mut y = x.clone();
            fft_radix2(&mut y);
            ifft_radix2(&mut y);
            assert!(max_err(&x, &y) < 1e-4, "round trip failed at n={n}");
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let x = signal(n);
        let mut y = x.clone();
        fft_radix2(&mut y);
        let time_energy: f32 = x.iter().map(|v| v.norm_sqr()).sum();
        let freq_energy: f32 = y.iter().map(|v| v.norm_sqr()).sum::<f32>() / n as f32;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-4);
    }

    #[test]
    fn trivial_lengths_are_no_ops() {
        let mut empty: Vec<Cf32> = vec![];
        fft_radix2(&mut empty);
        ifft_radix2(&mut empty);
        let mut one = vec![Cf32::new(3.0, 4.0)];
        fft_radix2(&mut one);
        assert_eq!(one[0], Cf32::new(3.0, 4.0));
        ifft_radix2(&mut one);
        assert_eq!(one[0], Cf32::new(3.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        let mut data = vec![Cf32::ZERO; 12];
        fft_radix2(&mut data);
    }
}
