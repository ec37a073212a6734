//! Paged word-addressed backing store for data-accurate simulation.
//!
//! A memory models its whole capacity but stores only the pages a run
//! writes, so a machine with 64 MB of simulated DRAM costs the host the
//! words its kernel touches, not the capacity. Pages freed by a dropped
//! memory wait on one free list for the next memory built on any thread,
//! so back-to-back runs neither zero-fill whole memories nor take fresh
//! page faults.

use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::error::SimError;

/// Words per page.
const PAGE_WORDS: usize = 1024;
const PAGE_SHIFT: u32 = PAGE_WORDS.trailing_zeros();
const PAGE_MASK: usize = PAGE_WORDS - 1;

type Page = Box<[u32; PAGE_WORDS]>;

/// Pages that no memory holds, shared by every thread.
///
/// A page is made only when the list is empty, so the list never holds
/// more pages than were live at once. It is one list for every thread so
/// that a thread's exit strands no page: the serve daemon runs each
/// request on a thread of its own, and a list per thread would leave each
/// exited thread's pages in that thread's allocator arena, where how much
/// of them the process kept would depend on thread timing.
struct PagePool(Mutex<Vec<Page>>);

impl PagePool {
    const fn new() -> Self {
        PagePool(Mutex::new(Vec::new()))
    }

    /// The list, locked. A push or a pop cannot leave it half done, so a
    /// lock poisoned by a panic elsewhere is taken as it is.
    fn free(&self) -> MutexGuard<'_, Vec<Page>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A zeroed page, reused from the list when it has one.
    fn take(&self) -> Page {
        let reused = self.free().pop();
        match reused {
            Some(mut page) => {
                page.fill(0);
                page
            }
            None => Box::new([0; PAGE_WORDS]),
        }
    }

    /// Puts `pages` on the list for the next memory.
    fn give(&self, pages: impl IntoIterator<Item = Page>) {
        self.free().extend(pages);
    }
}

static POOL: PagePool = PagePool::new();

/// Splits the `len` words from `addr` into page runs:
/// `(page, offset in page, offset in block, words)`. The caller has
/// checked that `addr + len` does not overflow.
fn runs(addr: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let mut at = 0;
    std::iter::from_fn(move || {
        (at < len).then(|| {
            let word = addr + at;
            let off = word & PAGE_MASK;
            let n = (PAGE_WORDS - off).min(len - at);
            let run = (word >> PAGE_SHIFT, off, at, n);
            at += n;
            run
        })
    })
}

/// A memory of 32-bit words with `u32` and `f32` views.
///
/// Every simulator's DRAM, SRF, or local store is backed by a `WordMemory`,
/// so the kernels running on the simulators operate on real data and their
/// outputs can be checked against the reference implementations.
///
/// The memory keeps its logical size and refuses any access past it, but
/// stores words in 1,024-word pages made on first write: a word never
/// written reads as 0, and two memories are equal when every word reads
/// the same.
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
/// assert_eq!(m.read_u32(5)?, 0);
/// # Ok(())
/// # }
/// ```
pub struct WordMemory {
    len: usize,
    /// Page table, grown to the highest page written; a page that is
    /// `None` or past the end was never written.
    pages: Vec<Option<Page>>,
}

impl WordMemory {
    /// Creates a zero-initialized memory of `size` 32-bit words.
    #[must_use]
    pub fn new(size: usize) -> Self {
        WordMemory { len: size, pages: Vec::new() }
    }

    /// Creates a memory initialized from `f32` data.
    #[must_use]
    pub fn from_f32(data: &[f32]) -> Self {
        let mut m = Self::new(data.len());
        m.write_block_f32(0, data).expect("a memory fits its own data");
        m
    }

    /// The memory size in words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the memory has zero words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The memory size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.len * 4
    }

    #[inline]
    fn check(&self, addr: usize) -> Result<(), SimError> {
        if addr >= self.len {
            Err(SimError::OutOfBounds { addr, size: self.len })
        } else {
            Ok(())
        }
    }

    /// Checks the `len` words from `addr`: the error names the end of the
    /// region, or `usize::MAX` when the end overflows.
    fn check_block(&self, addr: usize, len: usize) -> Result<(), SimError> {
        match addr.checked_add(len) {
            None => Err(SimError::OutOfBounds { addr: usize::MAX, size: self.len }),
            Some(end) if end > self.len => Err(SimError::OutOfBounds { addr: end, size: self.len }),
            Some(_) => Ok(()),
        }
    }

    #[inline]
    fn page(&self, page: usize) -> Option<&[u32; PAGE_WORDS]> {
        self.pages.get(page).and_then(Option::as_deref)
    }

    /// The page, made (zeroed) on first write.
    #[inline]
    fn page_mut(&mut self, page: usize) -> &mut [u32; PAGE_WORDS] {
        if matches!(self.pages.get(page), Some(Some(_))) {
            self.pages[page].as_deref_mut().expect("the page exists")
        } else {
            self.make_page(page)
        }
    }

    #[cold]
    #[inline(never)]
    fn make_page(&mut self, page: usize) -> &mut [u32; PAGE_WORDS] {
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        self.pages[page].insert(POOL.take())
    }

    /// Reads a raw 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if `addr` is past the end.
    #[inline]
    pub fn read_u32(&self, addr: usize) -> Result<u32, SimError> {
        self.check(addr)?;
        Ok(self.page(addr >> PAGE_SHIFT).map_or(0, |p| p[addr & PAGE_MASK]))
    }

    /// Writes a raw 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if `addr` is past the end.
    #[inline]
    pub fn write_u32(&mut self, addr: usize, value: u32) -> Result<(), SimError> {
        self.check(addr)?;
        let (page, off) = (addr >> PAGE_SHIFT, addr & PAGE_MASK);
        match self.pages.get_mut(page) {
            Some(Some(p)) => p[off] = value,
            _ => self.make_page(page)[off] = value,
        }
        Ok(())
    }

    /// Reads a word as `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if `addr` is past the end.
    #[inline]
    pub fn read_f32(&self, addr: usize) -> Result<f32, SimError> {
        Ok(f32::from_bits(self.read_u32(addr)?))
    }

    /// Writes a word as `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if `addr` is past the end.
    #[inline]
    pub fn write_f32(&mut self, addr: usize, value: f32) -> Result<(), SimError> {
        self.write_u32(addr, value.to_bits())
    }

    /// Copies the `buf.len()` words starting at `addr` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the region does not fit; `buf`
    /// is then left as it was.
    pub fn read_into(&self, addr: usize, buf: &mut [u32]) -> Result<(), SimError> {
        self.check_block(addr, buf.len())?;
        for (page, off, at, n) in runs(addr, buf.len()) {
            let dst = &mut buf[at..at + n];
            match self.page(page) {
                Some(p) => dst.copy_from_slice(&p[off..off + n]),
                None => dst.fill(0),
            }
        }
        Ok(())
    }

    /// Copies a region out of the memory as `u32` words.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the region does not fit.
    pub fn read_block_u32(&self, addr: usize, len: usize) -> Result<Vec<u32>, SimError> {
        self.check_block(addr, len)?;
        let mut out = vec![0; len];
        self.read_into(addr, &mut out)?;
        Ok(out)
    }

    /// Writes a slice of `u32` words starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the region does not fit; no
    /// word is written then.
    pub fn write_block_u32(&mut self, addr: usize, data: &[u32]) -> Result<(), SimError> {
        self.check_block(addr, data.len())?;
        for (page, off, at, n) in runs(addr, data.len()) {
            self.page_mut(page)[off..off + n].copy_from_slice(&data[at..at + n]);
        }
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
    /// Returns [`SimError::OutOfBounds`] if the region does not fit; no
    /// word is written then.
    pub fn write_block_f32(&mut self, addr: usize, data: &[f32]) -> Result<(), SimError> {
        let words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
        self.write_block_u32(addr, &words)
    }

    /// Copies the `len` words at `src_addr` of `src` to `addr` of this
    /// memory, page run by page run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] for the first region that does not
    /// fit, the source's before the destination's, as
    /// [`write_block_u32`](Self::write_block_u32) names it; no word moves
    /// then.
    pub fn copy_from(
        &mut self,
        addr: usize,
        src: &WordMemory,
        src_addr: usize,
        len: usize,
    ) -> Result<(), SimError> {
        src.check_block(src_addr, len)?;
        self.check_block(addr, len)?;
        let (mut from, mut to, end) = (src_addr, addr, src_addr + len);
        while from < end {
            let n = (end - from)
                .min(PAGE_WORDS - (from & PAGE_MASK))
                .min(PAGE_WORDS - (to & PAGE_MASK));
            let dst = to & PAGE_MASK..(to & PAGE_MASK) + n;
            match src.page(from >> PAGE_SHIFT) {
                Some(p) => self.page_mut(to >> PAGE_SHIFT)[dst]
                    .copy_from_slice(&p[from & PAGE_MASK..(from & PAGE_MASK) + n]),
                // Zeros land only where a page holds words to overwrite.
                None => {
                    if let Some(Some(p)) = self.pages.get_mut(to >> PAGE_SHIFT) {
                        p[dst].fill(0);
                    }
                }
            }
            from += n;
            to += n;
        }
        Ok(())
    }

    /// Pages this memory holds.
    #[cfg(test)]
    pub(crate) fn resident_pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }
}

impl Clone for WordMemory {
    /// A copy holding pages only where this memory does.
    fn clone(&self) -> Self {
        let mut copy = WordMemory::new(self.len);
        copy.copy_from(0, self, 0, self.len).expect("a memory fits a copy of itself");
        copy
    }
}

impl Drop for WordMemory {
    /// Hands the pages to the shared free list.
    fn drop(&mut self) {
        POOL.give(std::mem::take(&mut self.pages).into_iter().flatten());
    }
}

impl PartialEq for WordMemory {
    fn eq(&self, other: &Self) -> bool {
        let zero = |p: &[u32; PAGE_WORDS]| p.iter().all(|&w| w == 0);
        self.len == other.len
            && (0..self.pages.len().max(other.pages.len())).all(|i| {
                match (self.page(i), other.page(i)) {
                    (Some(a), Some(b)) => a == b,
                    (Some(p), None) | (None, Some(p)) => zero(p),
                    (None, None) => true,
                }
            })
    }
}

impl Eq for WordMemory {}

impl fmt::Debug for WordMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WordMemory").field("len", &self.len).finish_non_exhaustive()
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

    #[test]
    fn block_reads_refuse_at_the_end_of_the_region() {
        let mut m = WordMemory::new(6);
        m.write_block_u32(1, &[7, 8, 9]).unwrap();
        let mut buf = [0; 3];
        m.read_into(1, &mut buf).unwrap();
        assert_eq!(buf, [7, 8, 9]);
        assert_eq!(m.read_block_u32(0, 6).unwrap(), [0, 7, 8, 9, 0, 0]);
        assert_eq!(m.read_block_u32(6, 0).unwrap(), [] as [u32; 0]);
        m.read_into(6, &mut []).unwrap();
        // The error names the end of the region, or usize::MAX when the
        // end overflows, for the caller's buffer and the fresh copy alike.
        for (addr, len, at) in [
            (4, 3, 7),
            (7, 0, 7),
            (100, 2, 102),
            (usize::MAX, 2, usize::MAX),
            (1, usize::MAX, usize::MAX),
        ] {
            let want = SimError::OutOfBounds { addr: at, size: 6 };
            assert_eq!(m.read_block_u32(addr, len), Err(want.clone()), "{addr}+{len}");
            if len <= 3 {
                let mut buf = vec![5; len];
                assert_eq!(m.read_into(addr, &mut buf), Err(want), "{addr}+{len}");
                assert_eq!(buf, vec![5; len], "a refused read leaves the buffer alone");
            }
        }
    }

    #[test]
    fn capacity_costs_nothing_until_written() {
        let mut m = WordMemory::new(1 << 28);
        assert_eq!(m.resident_pages(), 0);
        m.write_u32((1 << 28) - 3, 0xfeed).unwrap();
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.read_u32((1 << 28) - 3).unwrap(), 0xfeed);
        for addr in [0, 1, PAGE_WORDS, (1 << 27) + 17, (1 << 28) - 4, (1 << 28) - 2, (1 << 28) - 1]
        {
            assert_eq!(m.read_u32(addr).unwrap(), 0, "word {addr}");
        }
        let mut tail = [9; 2 * PAGE_WORDS];
        m.read_into((1 << 28) - tail.len(), &mut tail).unwrap();
        assert_eq!(tail.iter().filter(|&&w| w != 0).count(), 1);
        assert_eq!(m.resident_pages(), 1, "reads make no pages");
        assert_eq!(m, {
            let mut fresh = WordMemory::new(1 << 28);
            fresh.write_u32((1 << 28) - 3, 0xfeed).unwrap();
            fresh
        });
    }

    #[test]
    fn reused_pages_come_back_zeroed() {
        let mut a = WordMemory::new(4 * PAGE_WORDS);
        a.write_block_u32(0, &[u32::MAX; 4 * PAGE_WORDS]).unwrap();
        drop(a);
        let mut b = WordMemory::new(4 * PAGE_WORDS);
        b.write_u32(PAGE_WORDS + 1, 3).unwrap();
        for page in 0..4 {
            let want = u32::from(page == 1) * 3;
            assert_eq!(b.read_u32(page * PAGE_WORDS + 1).unwrap(), want, "page {page}");
        }
        assert_eq!(b.read_block_u32(PAGE_WORDS, PAGE_WORDS).unwrap().iter().sum::<u32>(), 3);
    }

    #[test]
    fn pages_an_exited_thread_gave_back_serve_the_next_thread_zeroed() {
        // A pool of its own, so other tests' pages do not count.
        let pool = PagePool::new();
        let at = |page: &Page| page.as_ptr() as usize;
        let given: Vec<usize> = std::thread::scope(|s| {
            s.spawn(|| {
                let mut pages: Vec<Page> = (0..3).map(|_| pool.take()).collect();
                let given = pages.iter().map(at).collect();
                for page in &mut pages {
                    page.fill(u32::MAX);
                }
                pool.give(pages);
                given
            })
            .join()
            .unwrap()
        });
        let taken: Vec<Page> =
            std::thread::scope(|s| s.spawn(|| (0..4).map(|_| pool.take()).collect()).join())
                .unwrap();
        // The three pages come back, last given first; only the fourth is
        // made.
        let reused: Vec<usize> = taken[..3].iter().map(at).collect();
        assert_eq!(reused, given.iter().rev().copied().collect::<Vec<_>>());
        assert!(!given.contains(&at(&taken[3])));
        assert!(taken.iter().all(|page| page.iter().all(|&w| w == 0)));
        assert!(pool.free().is_empty());
    }

    #[test]
    fn equality_and_clones_are_logical() {
        let mut a = WordMemory::new(3 * PAGE_WORDS + 5);
        let b = WordMemory::new(3 * PAGE_WORDS + 5);
        a.write_u32(2 * PAGE_WORDS, 0).unwrap();
        assert_eq!(a.resident_pages(), 1);
        assert_eq!(a, b, "a page of zeros equals no page");
        a.write_u32(3 * PAGE_WORDS + 4, 1).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.clone(), a);
        assert_ne!(WordMemory::new(4), WordMemory::new(5));
        assert_eq!(format!("{b:?}"), "WordMemory { len: 3077, .. }");
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use proptest::prelude::*;

    /// The flat memory `WordMemory` replaced, kept as its oracle: one
    /// `Vec<u32>` of the whole capacity, checked word by word.
    #[derive(Debug, Clone, PartialEq)]
    struct FlatMemory {
        words: Vec<u32>,
    }

    impl FlatMemory {
        fn out_of_bounds(&self, addr: usize) -> SimError {
            SimError::OutOfBounds { addr, size: self.words.len() }
        }

        fn block(&self, addr: usize, len: usize) -> Result<std::ops::Range<usize>, SimError> {
            let end = addr.checked_add(len).ok_or(self.out_of_bounds(usize::MAX))?;
            if end > self.words.len() {
                return Err(self.out_of_bounds(end));
            }
            Ok(addr..end)
        }

        fn read_u32(&self, addr: usize) -> Result<u32, SimError> {
            self.words.get(addr).copied().ok_or(self.out_of_bounds(addr))
        }

        fn write_u32(&mut self, addr: usize, value: u32) -> Result<(), SimError> {
            let err = self.out_of_bounds(addr);
            *self.words.get_mut(addr).ok_or(err)? = value;
            Ok(())
        }

        fn read_block_u32(&self, addr: usize, len: usize) -> Result<Vec<u32>, SimError> {
            Ok(self.words[self.block(addr, len)?].to_vec())
        }

        fn write_block_u32(&mut self, addr: usize, data: &[u32]) -> Result<(), SimError> {
            let range = self.block(addr, data.len())?;
            self.words[range].copy_from_slice(data);
            Ok(())
        }

        fn copy_from(
            &mut self,
            addr: usize,
            src: &FlatMemory,
            src_addr: usize,
            len: usize,
        ) -> Result<(), SimError> {
            let from = src.block(src_addr, len)?;
            let to = self.block(addr, len)?;
            self.words[to].copy_from_slice(&src.words[from]);
            Ok(())
        }
    }

    /// Capacities: empty, under a page, page multiples, and sizes just off
    /// them.
    const CAPACITIES: [usize; 8] = [0, 1, 5, 1023, 1024, 1025, 2 * 1024 + 7, 3 * 1024];

    /// An address near a page boundary or an end of the memory, or one
    /// whose block end overflows.
    fn address(kind: usize, jitter: usize, cap: usize) -> usize {
        let near = jitter % 9;
        match kind {
            0 => (jitter % 4) * PAGE_WORDS + near,
            1 => ((jitter % 4 + 1) * PAGE_WORDS).saturating_sub(near + 1),
            2 => cap.saturating_sub(near),
            3 => cap + near,
            4 => usize::MAX - near,
            _ => jitter % (cap + 1),
        }
    }

    /// A block length: short, page-straddling, zero, or `usize::MAX`.
    fn length(kind: usize, jitter: usize) -> usize {
        match kind {
            0 => 0,
            1 => jitter % 16,
            2 => PAGE_WORDS - 3 + jitter % 8,
            3 => jitter % (3 * PAGE_WORDS),
            _ => usize::MAX - jitter % 3,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// Every accessor of the paged memory returns what the flat one
        /// returns, errors included, and both hold the same words after
        /// every step, across two memories and copies between them.
        #[test]
        fn paged_memory_matches_the_flat_oracle(
            caps in (0usize..8, 0usize..8),
            steps in proptest::collection::vec(
                (0usize..10, 0usize..2, (0usize..6, 0usize..10_000), 0usize..5, any::<u32>()),
                1..=24,
            ),
        ) {
            let caps = [CAPACITIES[caps.0], CAPACITIES[caps.1]];
            let mut paged = caps.map(WordMemory::new);
            let mut flat = caps.map(|cap| FlatMemory { words: vec![0; cap] });
            for (i, &(op, which, (addr_kind, jitter), len_kind, value)) in steps.iter().enumerate() {
                let addr = address(addr_kind, jitter, caps[which]);
                let len = length(len_kind, jitter / 7);
                let block = || -> Vec<u32> {
                    (0..len.min(3 * PAGE_WORDS)).map(|k| value.wrapping_add(k as u32)).collect()
                };
                let what = format!("step {i}: op {op} on {which} at {addr}+{len}, caps {caps:?}");
                let (p, f) = (&mut paged[which], &mut flat[which]);
                match op {
                    0 => prop_assert_eq!(p.read_u32(addr), f.read_u32(addr), "{}", what),
                    1 => prop_assert_eq!(p.write_u32(addr, value), f.write_u32(addr, value), "{}", what),
                    2 => prop_assert_eq!(
                        p.read_f32(addr).map(f32::to_bits),
                        f.read_u32(addr),
                        "{}",
                        what
                    ),
                    3 => prop_assert_eq!(
                        p.write_f32(addr, f32::from_bits(value)),
                        f.write_u32(addr, value),
                        "{}",
                        what
                    ),
                    4 => {
                        let want = f.read_block_u32(addr, len);
                        // read_into takes a buffer of the block's length;
                        // lengths past any capacity are refused by both
                        // forms before a word moves.
                        if len <= 3 * PAGE_WORDS {
                            let mut buf = vec![!value; len];
                            let got = p.read_into(addr, &mut buf);
                            prop_assert_eq!(&got, &want.as_ref().map(|_| ()).map_err(Clone::clone), "{}", what);
                            match &want {
                                Ok(words) => prop_assert_eq!(&buf, words, "{}", what),
                                Err(_) => prop_assert!(buf.iter().all(|&w| w == !value), "{}", what),
                            }
                        }
                        prop_assert_eq!(p.read_block_u32(addr, len), want, "{}", what);
                    }
                    5 => prop_assert_eq!(
                        p.read_block_f32(addr, len).map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
                        f.read_block_u32(addr, len),
                        "{}",
                        what
                    ),
                    6 => {
                        let data = block();
                        prop_assert_eq!(p.write_block_u32(addr, &data), f.write_block_u32(addr, &data), "{}", what);
                    }
                    7 => {
                        let data = block();
                        let floats: Vec<f32> = data.iter().map(|&w| f32::from_bits(w)).collect();
                        prop_assert_eq!(p.write_block_f32(addr, &floats), f.write_block_u32(addr, &data), "{}", what);
                    }
                    _ => {
                        // Copy from the other memory, at an address drawn
                        // for that memory; most lengths fit both.
                        let src = 1 - which;
                        let src_addr = address((addr_kind + op) % 6, jitter / 3, caps[src]);
                        let len = if len_kind == 4 { len } else { len % (caps[0].min(caps[1]) + 1) };
                        let [p0, p1] = &mut paged;
                        let [f0, f1] = &mut flat;
                        let (pd, ps, fd, fs) =
                            if which == 0 { (p0, &*p1, f0, &*f1) } else { (p1, &*p0, f1, &*f0) };
                        prop_assert_eq!(
                            pd.copy_from(addr, ps, src_addr, len),
                            fd.copy_from(addr, fs, src_addr, len),
                            "{} from {}",
                            what,
                            src_addr
                        );
                    }
                }
                for (p, f) in paged.iter().zip(&flat) {
                    prop_assert_eq!(p.len(), f.words.len());
                    prop_assert_eq!(&p.read_block_u32(0, p.len()).unwrap(), &f.words, "words after {}", what);
                    prop_assert!(p.resident_pages() <= p.len().div_ceil(PAGE_WORDS), "{}", what);
                }
                let rebuilt = |f: &FlatMemory| {
                    let mut m = WordMemory::new(f.words.len());
                    for (a, &w) in f.words.iter().enumerate().filter(|(_, &w)| w != 0) {
                        m.write_u32(a, w).unwrap();
                    }
                    m
                };
                prop_assert!(paged[0] == rebuilt(&flat[0]) && paged[1] == rebuilt(&flat[1]), "equality after {}", what);
            }
        }
    }
}
