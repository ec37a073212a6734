//! Recursive radix-4 (and mixed radix-4/radix-2) decimation-in-time FFT.
//!
//! The paper's VIRAM and Imagine mappings use "a parallelized
//! hand-optimized radix-4 FFT"; since the CSLC's FFT length is 128 — not a
//! power of four — "three radix-4 stages and one radix-2 stage" are used.
//! [`fft_mixed_128`] reproduces exactly that stage structure, and the
//! recursion generalizes to any power of two.

use crate::complex::Cf32;
use crate::plan::Direction;
use crate::twiddle::table;

/// Recursive mixed-radix transform: radix-4 while divisible by four,
/// finishing with a radix-2 stage for lengths `2 * 4^m`.
///
/// `data` is a sub-transform of length `n / stride` of a top-level
/// length-`n` transform whose twiddle table is `twiddles`, so this level's
/// `e^{∓2πik/(n/stride)}` is `twiddles[k * stride]`. `scratch` is as long
/// as `data`; the four quarter-length sub-transforms run in it, each with
/// the matching quarter of `data` as its own scratch.
fn fft_rec(
    data: &mut [Cf32],
    scratch: &mut [Cf32],
    twiddles: &[Cf32],
    stride: usize,
    dir: Direction,
) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    if n == 2 {
        let a = data[0];
        let b = data[1];
        data[0] = a + b;
        data[1] = a - b;
        return;
    }
    // Any power of two above 2 is divisible by 4, so the recursion is
    // radix-4 all the way down to a final radix-2 (n == 2) stage — for
    // n = 128 that is exactly the paper's "three radix-4 stages and one
    // radix-2 stage".
    debug_assert!(n.is_multiple_of(4), "length must be a power of two");
    let q = n / 4;
    // De-interleave: quarter `j` of `scratch` holds `data[j], data[j + 4], …`.
    for (i, &v) in data.iter().enumerate() {
        scratch[(i % 4) * q + i / 4] = v;
    }
    for (sub, spare) in scratch.chunks_exact_mut(q).zip(data.chunks_exact_mut(q)) {
        fft_rec(sub, spare, twiddles, 4 * stride, dir);
    }
    let (s0, rest) = scratch.split_at(q);
    let (s1, rest) = rest.split_at(q);
    let (s2, s3) = rest.split_at(q);
    for k in 0..q {
        let a = s0[k];
        let b = s1[k] * twiddles[k * stride];
        let c = s2[k] * twiddles[2 * k * stride];
        let d = s3[k] * twiddles[3 * k * stride];
        let (ib, id) = match dir {
            Direction::Forward => (b.mul_neg_i(), d.mul_neg_i()),
            Direction::Inverse => (b.mul_i(), d.mul_i()),
        };
        data[k] = a + b + c + d;
        data[k + q] = a + ib - c - id;
        data[k + 2 * q] = a - b + c - d;
        data[k + 3 * q] = a - ib - c + id;
    }
}

/// Runs the recursion over the whole of `data` with one scratch buffer.
fn transform(data: &mut [Cf32], dir: Direction) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let mut scratch = vec![Cf32::ZERO; n];
    fft_rec(data, &mut scratch, table(n, dir), 1, dir);
}

/// Computes the forward FFT in place using radix-4 stages (with one
/// radix-2 stage when the length is `2 · 4^m`).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_radix4(data: &mut [Cf32]) {
    assert!(
        data.is_empty() || data.len().is_power_of_two(),
        "radix-4 FFT requires a power-of-two length"
    );
    transform(data, Direction::Forward);
}

/// Computes the inverse FFT in place (with `1/N` scaling) using the same
/// radix-4 stage structure.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn ifft_radix4(data: &mut [Cf32]) {
    assert!(
        data.is_empty() || data.len().is_power_of_two(),
        "radix-4 IFFT requires a power-of-two length"
    );
    let n = data.len();
    transform(data, Direction::Inverse);
    if n > 0 {
        let inv = 1.0 / n as f32;
        for v in data.iter_mut() {
            *v = v.scale(inv);
        }
    }
}

/// The paper's CSLC transform: a 128-point FFT executed as three radix-4
/// stages plus one radix-2 stage.
///
/// # Panics
///
/// Panics if `data.len() != 128`.
pub fn fft_mixed_128(data: &mut [Cf32]) {
    assert_eq!(data.len(), 128, "fft_mixed_128 requires exactly 128 points");
    transform(data, Direction::Forward);
}

/// Inverse of [`fft_mixed_128`], with `1/128` scaling.
///
/// # Panics
///
/// Panics if `data.len() != 128`.
pub fn ifft_mixed_128(data: &mut [Cf32]) {
    assert_eq!(data.len(), 128, "ifft_mixed_128 requires exactly 128 points");
    transform(data, Direction::Inverse);
    for v in data.iter_mut() {
        *v = v.scale(1.0 / 128.0);
    }
}

/// The per-butterfly transforms the tabled ones are checked against:
/// every twiddle evaluated where it is used and four `Vec`s per
/// recursion node, as before the tables were shared.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::complex::Cf32;
    use crate::plan::Direction;

    fn twiddle(k: usize, n: usize, dir: Direction) -> Cf32 {
        let sign = match dir {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };
        let theta = sign * 2.0 * std::f64::consts::PI * k as f64 / n as f64;
        Cf32::new(theta.cos() as f32, theta.sin() as f32)
    }

    fn fft_rec(data: &mut [Cf32], dir: Direction) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        if n == 2 {
            let a = data[0];
            let b = data[1];
            data[0] = a + b;
            data[1] = a - b;
            return;
        }
        let q = n / 4;
        let mut sub: [Vec<Cf32>; 4] = [
            Vec::with_capacity(q),
            Vec::with_capacity(q),
            Vec::with_capacity(q),
            Vec::with_capacity(q),
        ];
        for (i, &v) in data.iter().enumerate() {
            sub[i % 4].push(v);
        }
        for s in sub.iter_mut() {
            fft_rec(s, dir);
        }
        for k in 0..q {
            let a = sub[0][k];
            let b = sub[1][k] * twiddle(k, n, dir);
            let c = sub[2][k] * twiddle(2 * k, n, dir);
            let d = sub[3][k] * twiddle(3 * k, n, dir);
            let (ib, id) = match dir {
                Direction::Forward => (b.mul_neg_i(), d.mul_neg_i()),
                Direction::Inverse => (b.mul_i(), d.mul_i()),
            };
            data[k] = a + b + c + d;
            data[k + q] = a + ib - c - id;
            data[k + 2 * q] = a - b + c - d;
            data[k + 3 * q] = a - ib - c + id;
        }
    }

    /// [`super::fft_radix4`] or [`super::ifft_radix4`] (also the
    /// 128-point forms, which differ only in their length check).
    pub(crate) fn radix4(data: &mut [Cf32], dir: Direction) {
        let n = data.len();
        fft_rec(data, dir);
        if dir == Direction::Inverse && n > 0 {
            let inv = 1.0 / n as f32;
            for v in data.iter_mut() {
                *v = v.scale(inv);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_naive;
    use crate::radix2::fft_radix2;

    fn max_err(a: &[Cf32], b: &[Cf32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x.max_abs_diff(*y)).fold(0.0, f32::max)
    }

    fn signal(n: usize) -> Vec<Cf32> {
        (0..n).map(|j| Cf32::new((j as f32 * 0.9).sin() - 0.1, (j as f32 * 0.4).cos())).collect()
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[4usize, 16, 64, 256] {
            let x = signal(n);
            let mut y = x.clone();
            fft_radix4(&mut y);
            assert!(max_err(&y, &dft_naive(&x)) < 1e-3 * n as f32, "n={n}");
        }
    }

    #[test]
    fn mixed_128_matches_radix2() {
        let x = signal(128);
        let mut a = x.clone();
        let mut b = x;
        fft_mixed_128(&mut a);
        fft_radix2(&mut b);
        assert!(max_err(&a, &b) < 1e-2);
    }

    #[test]
    fn handles_two_times_power_of_four() {
        // 8, 32, 128, 512 end in the radix-2 (n == 2) base stage.
        for &n in &[2usize, 8, 32, 128, 512] {
            let x = signal(n);
            let mut y = x.clone();
            fft_radix4(&mut y);
            assert!(max_err(&y, &dft_naive(&x)) < 1e-3 * n as f32, "n={n}");
        }
    }

    #[test]
    fn inverse_round_trip() {
        for &n in &[4usize, 8, 128] {
            let x = signal(n);
            let mut y = x.clone();
            fft_radix4(&mut y);
            ifft_radix4(&mut y);
            assert!(max_err(&x, &y) < 1e-4, "n={n}");
        }
        let x = signal(128);
        let mut y = x.clone();
        fft_mixed_128(&mut y);
        ifft_mixed_128(&mut y);
        assert!(max_err(&x, &y) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "128 points")]
    fn mixed_128_rejects_other_lengths() {
        let mut data = vec![Cf32::ZERO; 64];
        fft_mixed_128(&mut data);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn radix4_rejects_non_power_of_two() {
        let mut data = vec![Cf32::ZERO; 24];
        fft_radix4(&mut data);
    }

    #[test]
    fn empty_and_single_are_no_ops() {
        let mut empty: Vec<Cf32> = vec![];
        fft_radix4(&mut empty);
        ifft_radix4(&mut empty);
        let mut one = vec![Cf32::new(1.0, -1.0)];
        fft_radix4(&mut one);
        assert_eq!(one[0], Cf32::new(1.0, -1.0));
    }
}
