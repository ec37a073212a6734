//! A small FIFO TLB model.
//!
//! The paper attributes part of VIRAM's corner-turn overhead to TLB
//! misses ("about 21% of the total cycles are overhead due to DRAM
//! pre-charge cycles … and TLB misses"). Strided column walks touch many
//! pages per vector instruction, overwhelming a small TLB.
//!
//! Same-page rule: an access to the page the previous access touched
//! always hits, because that access found or inserted the page and
//! nothing has been evicted since. [`Tlb::access_strided`] therefore looks
//! a page up once per run of consecutive same-page elements and counts the
//! rest of the run as hits.

/// A FIFO-replacement TLB over fixed-size pages.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<usize>,
    capacity: usize,
    page_words: usize,
    next_victim: usize,
    misses: u64,
    hits: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries over pages of `page_words`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `page_words` is zero (configurations are
    /// validated upstream by `ViramConfig::validate`).
    #[must_use]
    pub fn new(capacity: usize, page_words: usize) -> Self {
        assert!(capacity > 0 && page_words > 0, "TLB needs entries and pages");
        Tlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            page_words,
            next_victim: 0,
            misses: 0,
            hits: 0,
        }
    }

    /// Touches the page containing `word_addr`; returns `true` on a miss.
    pub fn access(&mut self, word_addr: usize) -> bool {
        let page = word_addr / self.page_words;
        if self.entries.contains(&page) {
            self.hits += 1;
            return false;
        }
        self.misses += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(page);
        } else {
            self.entries[self.next_victim] = page;
            self.next_victim = (self.next_victim + 1) % self.capacity;
        }
        true
    }

    /// Touches the pages of the `len` elements `addr + i * stride`, in
    /// order, and returns how many touches missed. Each run of consecutive
    /// elements on one page is looked up once; the rest of the run hits
    /// by the same-page rule.
    pub fn access_strided(&mut self, addr: usize, stride: usize, len: usize) -> u64 {
        let mut misses = 0;
        let mut i = 0;
        while i < len {
            let first = addr + i * stride;
            // Words from `first` to the end of its page; a zero stride
            // keeps every element on it.
            let room = self.page_words - first % self.page_words;
            let run = (room - 1).checked_div(stride).map_or(len - i, |n| (n + 1).min(len - i));
            misses += u64::from(self.access(first));
            self.hits += run as u64 - 1;
            i += run;
        }
        misses
    }

    /// Total misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn repeated_page_hits() {
        let mut tlb = Tlb::new(4, 1024);
        assert!(tlb.access(0)); // miss
        assert!(!tlb.access(512)); // same page
        assert!(!tlb.access(1023));
        assert_eq!(tlb.misses(), 1);
        assert_eq!(tlb.hits(), 2);
    }

    #[test]
    fn fifo_eviction() {
        let mut tlb = Tlb::new(2, 10);
        assert!(tlb.access(0)); // page 0
        assert!(tlb.access(10)); // page 1
        assert!(tlb.access(20)); // page 2 evicts page 0
        assert!(tlb.access(0)); // page 0 missing again
        assert_eq!(tlb.misses(), 4);
    }

    #[test]
    fn strided_walk_thrashes_small_tlb() {
        let mut tlb = Tlb::new(4, 2048);
        // 16 pages touched round-robin: every access misses.
        for round in 0..3 {
            for p in 0..16 {
                let miss = tlb.access(p * 2048);
                if round > 0 {
                    assert!(miss, "page {p} should thrash");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "entries")]
    fn zero_capacity_panics() {
        let _ = Tlb::new(0, 10);
    }

    #[test]
    fn strided_walks_look_up_each_page_run_once() {
        // Stride 3 over 10-word pages: elements 0..=3 share page 0, then
        // page 1 holds 12, 15, 18 and page 2 holds 21.
        let mut tlb = Tlb::new(4, 10);
        assert_eq!(tlb.access_strided(0, 3, 8), 3);
        assert_eq!((tlb.misses(), tlb.hits()), (3, 5));
        // A zero stride stays on one page.
        assert_eq!(tlb.access_strided(15, 0, 5), 0);
        assert_eq!(tlb.hits(), 10);
    }

    /// A TLB of 1–8 entries, or the paper's 64.
    fn capacity_of(choice: usize) -> usize {
        if choice < 8 {
            choice + 1
        } else {
            64
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// A strided walk misses, hits and evicts exactly as touching each
        /// of its elements through `access` does. Strides run from 0 to
        /// past a page, so same-page runs of every length occur, and the
        /// walks cover enough pages to evict from 1–8 entries and, on
        /// small pages, from 64.
        #[test]
        fn strided_walks_match_per_element_access(
            choice in 0usize..10,
            page_words in 1usize..=64,
            walks in proptest::collection::vec((0usize..4_000, 0usize..=80, 1usize..=64), 1..=40),
        ) {
            let capacity = capacity_of(choice);
            let mut tlb = Tlb::new(capacity, page_words);
            let mut oracle = Tlb::new(capacity, page_words);
            for &(addr, stride, len) in &walks {
                let misses = tlb.access_strided(addr, stride, len);
                let want: u64 = (0..len).map(|i| u64::from(oracle.access(addr + i * stride))).sum();
                prop_assert_eq!(misses, want, "walk of {} at {} by {}", len, addr, stride);
                prop_assert_eq!((tlb.misses(), tlb.hits()), (oracle.misses(), oracle.hits()));
                prop_assert_eq!(
                    (&tlb.entries, tlb.next_victim),
                    (&oracle.entries, oracle.next_victim)
                );
            }
        }
    }
}
