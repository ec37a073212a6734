//! Division by a divisor fixed when a model is built.
//!
//! The memory models locate every address they touch by dividing it by
//! sizes that a configuration fixes once: DRAM interleave, row and wing
//! sizes ([`DramModel`](crate::DramModel)), cache line sizes and set
//! counts (the G4's cache model). A [`Divisor`] turns such a size into
//! constants when the model is built, so the hot path divides nothing.

/// Division by a fixed non-zero `u64` without a divide instruction: two
/// multiplies by a 128-bit reciprocal (Lemire, Kaser and Kurz, "Faster
/// Remainder by Direct Computation", 2019).
///
/// With `c = ceil(2^128 / d)`, `floor(n · c / 2^128) = floor(n / d)` for
/// every `n < 2^64`: `c` overshoots `2^128 / d` by less than 1, so
/// `n · c / 2^128` overshoots `n / d` by less than `n / 2^128 < 1 / d`,
/// while `n / d` sits at least `1 / d` below the next integer.
///
/// A power of two divides by a shift instead, which is exact too and
/// cheaper; which of the two runs depends only on `d`.
///
/// # Example
///
/// ```
/// use triarch_simcore::Divisor;
///
/// let by_seven = Divisor::new(7);
/// assert_eq!(by_seven.div_rem(100), (14, 2));
/// assert_eq!(Divisor::new(8).div_rem(100), (12, 4));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Divisor {
    d: u64,
    /// `log2(d)` when `d` is a power of two.
    log2: Option<u32>,
    /// `c - 1`, which fits in 128 bits even for `d == 1`.
    c_minus_1: u128,
}

impl Divisor {
    /// Precomputes division by `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    #[must_use]
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "divisor must be non-zero");
        Divisor {
            d,
            log2: d.is_power_of_two().then(|| d.trailing_zeros()),
            c_minus_1: u128::MAX / u128::from(d),
        }
    }

    /// The divisor.
    #[must_use]
    pub fn get(self) -> u64 {
        self.d
    }

    /// `(n / d, n % d)`.
    #[inline]
    #[must_use]
    pub fn div_rem(self, n: u64) -> (u64, u64) {
        if let Some(log2) = self.log2 {
            return (n >> log2, n & (self.d - 1));
        }
        // n · c = n · (c - 1) + n, as a 192-bit sum of two 64-bit halves
        // of `c - 1` times `n`; neither partial sum can overflow 128 bits.
        let n_wide = u128::from(n);
        let low = u128::from(self.c_minus_1 as u64) * n_wide + n_wide;
        let high = (self.c_minus_1 >> 64) * n_wide + (low >> 64);
        let q = (high >> 64) as u64;
        (q, n - q * self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The reciprocal quotient equals division for any numerator, by
        /// any divisor and by the small divisors configurations use.
        #[test]
        fn divisor_matches_division(n in any::<u64>(), d in 1u64..=u64::MAX, small in 1u64..5_000) {
            for d in [d, small] {
                prop_assert_eq!(Divisor::new(d).div_rem(n), (n / d, n % d), "{n} / {d}");
            }
        }
    }

    #[test]
    fn divisor_is_exact_at_the_edges() {
        let edges = [
            1,
            2,
            3,
            7,
            8,
            1_032,
            u64::from(u32::MAX),
            1 << 32,
            (1 << 32) + 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for d in edges {
            let div = Divisor::new(d);
            for n in edges.iter().flat_map(|&e| [e - 1, e, e.saturating_add(1)]) {
                for n in [n, d - 1, d, d.saturating_add(1), d.saturating_mul(3)] {
                    assert_eq!(div.div_rem(n), (n / d, n % d), "{n} / {d}");
                }
            }
        }
    }
}
