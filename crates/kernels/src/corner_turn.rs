//! The corner-turn kernel: a matrix transpose that tests memory bandwidth.
//!
//! Paper Section 3.1: "The data in the source matrix is transposed and
//! stored in the destination matrix. The matrix size … is 1024 × 1024 with
//! 4-byte elements" — chosen to be larger than Imagine's SRF (128 KB) and
//! Raw's internal memories (2 MB) but smaller than VIRAM's on-chip memory
//! (13 MB).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triarch_simcore::{KernelDemands, SimError};

use crate::verify::Golden;

/// The paper's matrix dimension (1024 × 1024).
pub const PAPER_DIM: usize = 1024;

/// A corner-turn workload: a row-major source matrix of 32-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CornerTurnWorkload {
    rows: usize,
    cols: usize,
    src: Vec<u32>,
    golden: Golden<Vec<u32>>,
}

impl CornerTurnWorkload {
    /// Creates the paper-sized 1024×1024 workload from a seed.
    ///
    /// # Errors
    ///
    /// Never fails for the paper dimensions; returns [`SimError`] through
    /// the shared constructor for uniformity.
    pub fn paper(seed: u64) -> Result<Self, SimError> {
        Self::with_dims(PAPER_DIM, PAPER_DIM, seed)
    }

    /// Creates a workload of arbitrary dimensions filled with seeded
    /// pseudo-random words.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if either dimension is zero.
    pub fn with_dims(rows: usize, cols: usize, seed: u64) -> Result<Self, SimError> {
        if rows == 0 || cols == 0 {
            return Err(SimError::invalid_config("corner turn dimensions must be non-zero"));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let src = (0..rows * cols).map(|_| rng.gen::<u32>()).collect();
        Ok(CornerTurnWorkload { rows, cols, src, golden: Golden::default() })
    }

    /// Wraps existing row-major data as a workload.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `data.len() != rows * cols`
    /// or either dimension is zero.
    pub fn from_data(rows: usize, cols: usize, data: Vec<u32>) -> Result<Self, SimError> {
        if rows == 0 || cols == 0 {
            return Err(SimError::invalid_config("corner turn dimensions must be non-zero"));
        }
        if data.len() != rows * cols {
            return Err(SimError::invalid_config(format!(
                "corner turn data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(CornerTurnWorkload { rows, cols, src: data, golden: Golden::default() })
    }

    /// Number of matrix rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of matrix columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total elements (words).
    #[must_use]
    pub fn elements(&self) -> usize {
        self.rows * self.cols
    }

    /// The row-major source matrix.
    #[must_use]
    pub fn source(&self) -> Vec<u32> {
        self.src.clone()
    }

    /// Borrowed view of the source matrix.
    #[must_use]
    pub fn source_slice(&self) -> &[u32] {
        &self.src
    }

    /// The golden transposed result (column-major walk of the source),
    /// computed afresh on every call.
    #[must_use]
    pub fn reference_transpose(&self) -> Vec<u32> {
        let mut dst = vec![0u32; self.src.len()];
        transpose_into(&self.src, self.rows, self.cols, &mut dst);
        dst
    }

    /// The golden transposed result, computed on first use and then
    /// shared by every run of this workload. Only the verifier reads it.
    #[must_use]
    pub(crate) fn golden(&self) -> &[u32] {
        self.golden.get_or_init(|| self.reference_transpose())
    }

    /// Blocked transpose, as used by cache-based machines (Section 3.1:
    /// "In conventional cache-based processor systems, tiling is used to
    /// reduce cache misses"). Produces the same result as
    /// [`reference_transpose`](Self::reference_transpose).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a zero block size.
    pub fn blocked_transpose(&self, block: usize) -> Result<Vec<u32>, SimError> {
        if block == 0 {
            return Err(SimError::invalid_config("transpose block size must be non-zero"));
        }
        let mut dst = vec![0u32; self.src.len()];
        for br in (0..self.rows).step_by(block) {
            for bc in (0..self.cols).step_by(block) {
                for r in br..(br + block).min(self.rows) {
                    for c in bc..(bc + block).min(self.cols) {
                        dst[c * self.rows + r] = self.src[r * self.cols + c];
                    }
                }
            }
        }
        Ok(dst)
    }

    /// Memory demands for the Section 2.5 performance model: every element
    /// is read once and written once.
    #[must_use]
    pub fn demands_onchip(&self) -> KernelDemands {
        KernelDemands { onchip_words: 2 * self.elements() as u64, ..Default::default() }
    }

    /// Memory demands when the matrix lives off chip (Imagine, Raw): data
    /// also crosses the on-chip level (SRF/caches) on its way through.
    #[must_use]
    pub fn demands_offchip(&self) -> KernelDemands {
        let words = 2 * self.elements() as u64;
        KernelDemands { onchip_words: words, offchip_words: words, ops: 0 }
    }
}

/// Transposes `src` (row-major `rows`×`cols`) into `dst` (`cols`×`rows`).
///
/// # Panics
///
/// Panics if the slice lengths do not match `rows * cols`.
pub fn transpose_into(src: &[u32], rows: usize, cols: usize, dst: &mut [u32]) {
    assert_eq!(src.len(), rows * cols, "source length mismatch");
    assert_eq!(dst.len(), rows * cols, "destination length mismatch");
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions() {
        let w = CornerTurnWorkload::paper(1).unwrap();
        assert_eq!(w.rows(), 1024);
        assert_eq!(w.cols(), 1024);
        assert_eq!(w.elements(), 1024 * 1024);
    }

    #[test]
    fn rejects_zero_dims_and_bad_data() {
        assert!(CornerTurnWorkload::with_dims(0, 4, 0).is_err());
        assert!(CornerTurnWorkload::with_dims(4, 0, 0).is_err());
        assert!(CornerTurnWorkload::from_data(2, 2, vec![1, 2, 3]).is_err());
    }

    #[test]
    fn transpose_small_known_case() {
        let w = CornerTurnWorkload::from_data(2, 3, vec![1, 2, 3, 4, 5, 6]).unwrap();
        // [1 2 3; 4 5 6]^T = [1 4; 2 5; 3 6] stored row-major.
        assert_eq!(w.reference_transpose(), vec![1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn double_transpose_is_identity() {
        let w = CornerTurnWorkload::with_dims(17, 9, 7).unwrap();
        let t = w.reference_transpose();
        let back = CornerTurnWorkload::from_data(9, 17, t).unwrap().reference_transpose();
        assert_eq!(back, w.source());
    }

    #[test]
    fn blocked_matches_reference() {
        let w = CornerTurnWorkload::with_dims(33, 20, 3).unwrap();
        for block in [1usize, 4, 8, 16, 64] {
            assert_eq!(w.blocked_transpose(block).unwrap(), w.reference_transpose());
        }
        assert!(w.blocked_transpose(0).is_err());
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = CornerTurnWorkload::with_dims(8, 8, 99).unwrap();
        let b = CornerTurnWorkload::with_dims(8, 8, 99).unwrap();
        let c = CornerTurnWorkload::with_dims(8, 8, 100).unwrap();
        assert_eq!(a.source(), b.source());
        assert_ne!(a.source(), c.source());
    }

    #[test]
    fn demands_count_words_once_each_way() {
        let w = CornerTurnWorkload::paper(0).unwrap();
        let d = w.demands_onchip();
        assert_eq!(d.onchip_words, 2 * 1024 * 1024);
        assert_eq!(d.offchip_words, 0);
        let d = w.demands_offchip();
        assert_eq!(d.offchip_words, 2 * 1024 * 1024);
    }
}
