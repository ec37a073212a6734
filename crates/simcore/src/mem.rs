//! Flat word-addressed backing store for data-accurate simulation.

use crate::error::SimError;

/// A flat memory of 32-bit words with `u32` and `f32` views.
///
/// Every simulator's DRAM, SRF, or local store is backed by a `WordMemory`,
/// so the kernels running on the simulators operate on real data and their
/// outputs can be checked against the reference implementations.
///
/// # Example
///
/// ```
/// use triarch_simcore::WordMemory;
///
/// # fn main() -> Result<(), triarch_simcore::SimError> {
/// let mut m = WordMemory::new(16);
/// m.write_f32(3, 1.5)?;
/// assert_eq!(m.read_f32(3)?, 1.5);
/// m.write_u32(4, 0xdead_beef)?;
/// assert_eq!(m.read_u32(4)?, 0xdead_beef);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordMemory {
    words: Vec<u32>,
}

impl WordMemory {
    /// Creates a zero-initialized memory of `size` 32-bit words.
    #[must_use]
    pub fn new(size: usize) -> Self {
        WordMemory { words: vec![0; size] }
    }

    /// Creates a memory initialized from `f32` data.
    #[must_use]
    pub fn from_f32(data: &[f32]) -> Self {
        WordMemory { words: data.iter().map(|v| v.to_bits()).collect() }
    }

    /// The memory size in words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the memory has zero words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The memory size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }

    fn check(&self, addr: usize) -> Result<(), SimError> {
        if addr >= self.words.len() {
            Err(SimError::OutOfBounds { addr, size: self.words.len() })
        } else {
            Ok(())
        }
    }

    /// Reads a raw 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if `addr` is past the end.
    pub fn read_u32(&self, addr: usize) -> Result<u32, SimError> {
        self.check(addr)?;
        Ok(self.words[addr])
    }

    /// Writes a raw 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if `addr` is past the end.
    pub fn write_u32(&mut self, addr: usize, value: u32) -> Result<(), SimError> {
        self.check(addr)?;
        self.words[addr] = value;
        Ok(())
    }

    /// Reads a word as `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if `addr` is past the end.
    pub fn read_f32(&self, addr: usize) -> Result<f32, SimError> {
        Ok(f32::from_bits(self.read_u32(addr)?))
    }

    /// Writes a word as `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if `addr` is past the end.
    pub fn write_f32(&mut self, addr: usize, value: f32) -> Result<(), SimError> {
        self.write_u32(addr, value.to_bits())
    }

    /// Copies a region out of the memory as `u32` words.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the region does not fit.
    pub fn read_block_u32(&self, addr: usize, len: usize) -> Result<Vec<u32>, SimError> {
        let end = addr
            .checked_add(len)
            .ok_or(SimError::OutOfBounds { addr: usize::MAX, size: self.words.len() })?;
        if end > self.words.len() {
            return Err(SimError::OutOfBounds { addr: end, size: self.words.len() });
        }
        Ok(self.words[addr..end].to_vec())
    }

    /// Writes a slice of `u32` words starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the region does not fit.
    pub fn write_block_u32(&mut self, addr: usize, data: &[u32]) -> Result<(), SimError> {
        let end = addr
            .checked_add(data.len())
            .ok_or(SimError::OutOfBounds { addr: usize::MAX, size: self.words.len() })?;
        if end > self.words.len() {
            return Err(SimError::OutOfBounds { addr: end, size: self.words.len() });
        }
        self.words[addr..end].copy_from_slice(data);
        Ok(())
    }

    /// Copies a region out as `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the region does not fit.
    pub fn read_block_f32(&self, addr: usize, len: usize) -> Result<Vec<f32>, SimError> {
        Ok(self.read_block_u32(addr, len)?.into_iter().map(f32::from_bits).collect())
    }

    /// Writes a slice of `f32` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the region does not fit.
    pub fn write_block_f32(&mut self, addr: usize, data: &[f32]) -> Result<(), SimError> {
        let words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
        self.write_block_u32(addr, &words)
    }

    /// A borrowed view of the raw words.
    #[must_use]
    pub fn as_words(&self) -> &[u32] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = WordMemory::new(8);
        m.write_f32(0, -2.75).unwrap();
        assert_eq!(m.read_f32(0).unwrap(), -2.75);
        m.write_u32(7, 42).unwrap();
        assert_eq!(m.read_u32(7).unwrap(), 42);
    }

    #[test]
    fn out_of_bounds_is_typed_error() {
        let mut m = WordMemory::new(4);
        assert_eq!(m.read_u32(4), Err(SimError::OutOfBounds { addr: 4, size: 4 }));
        assert!(m.write_u32(100, 0).is_err());
        assert!(m.read_block_u32(2, 3).is_err());
        assert!(m.write_block_u32(3, &[1, 2]).is_err());
    }

    #[test]
    fn block_roundtrip() {
        let mut m = WordMemory::new(10);
        m.write_block_f32(2, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.read_block_f32(2, 3).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_f32_preserves_bits() {
        let m = WordMemory::from_f32(&[0.5, -0.5]);
        assert_eq!(m.read_f32(0).unwrap(), 0.5);
        assert_eq!(m.read_f32(1).unwrap(), -0.5);
        assert_eq!(m.len(), 2);
        assert_eq!(m.size_bytes(), 8);
    }

    #[test]
    fn overflow_addresses_do_not_panic() {
        let m = WordMemory::new(4);
        assert!(m.read_block_u32(usize::MAX, 2).is_err());
    }
}
