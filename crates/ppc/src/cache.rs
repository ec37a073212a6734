//! Set-associative cache simulator (LRU) for the G4 baseline.
//!
//! The corner turn's baseline behaviour — column-strided writes that
//! alias into a handful of sets and thrash both cache levels — emerges
//! directly from driving this model with the kernel's real address trace.
//!
//! Every access of a replay runs through [`Cache::access_rw`], so the work
//! that depends only on the geometry is done when a cache is built: the
//! line and the set come from two [`Divisor`]s (shifts for the G4's
//! power-of-two geometry), and all sets share one flat slot array that is
//! never reallocated. The `Vec`-per-set model this replaced is kept as a
//! test-only oracle (`ListCache`), and a property test holds the two to
//! equal results, counters and contents.
//!
//! A replay that can only hit need not be walked access by access:
//! [`Cache::settle_resident`] applies what such a run leaves in one pass
//! over the lines it touches, when every line is resident and each sits in
//! a set of its own (so no hit can evict, and no two lines race for the
//! front of a set). Nor need one that can only miss: [`Cache::settle_misses`]
//! applies a run of accesses to distinct lines a fixed step apart, none of
//! them resident, in O(ways) per set the run touches. Anything else is
//! replayed through `access_rw`.

use std::ops::Range;

use triarch_simcore::Divisor;

/// The words an access sequence covers: it stays inside
/// `first_word..first_word + words` and touches every word of that block
/// whose address is a multiple of `grain` (and, when it stores, writes
/// every such word). [`Cache::settle_resident`] derives from it which
/// lines the sequence touches and dirties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First word of the block; a multiple of `grain`.
    pub first_word: usize,
    /// Words in the block.
    pub words: usize,
    /// Spacing of the words the sequence is known to touch.
    pub grain: usize,
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in 32-bit words.
    pub size_words: usize,
    /// Line size in words.
    pub line_words: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// PowerPC 7450 L1 data cache: 32 KB, 32-byte lines, 8-way.
    #[must_use]
    pub fn g4_l1() -> Self {
        CacheConfig { size_words: 32 * 1024 / 4, line_words: 8, ways: 8 }
    }

    /// PowerPC 7450 L2 cache: 256 KB, 64-byte lines, 8-way.
    #[must_use]
    pub fn g4_l2() -> Self {
        CacheConfig { size_words: 256 * 1024 / 4, line_words: 16, ways: 8 }
    }

    /// Validates the geometry without panicking — the checked companion
    /// to [`Self::sets`], used by [`crate::PpcConfig::validate`] so that
    /// design-space sweeps over cache sizes reject degenerate points
    /// with a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`triarch_simcore::SimError::InvalidConfig`] when any dimension is zero,
    /// a set's words overflow `usize`, or the capacity is not a whole
    /// number of sets.
    pub fn validate(&self) -> Result<(), triarch_simcore::SimError> {
        if self.line_words == 0 || self.ways == 0 || self.size_words == 0 {
            return Err(triarch_simcore::SimError::invalid_config(
                "cache geometry dimensions must be positive",
            ));
        }
        if self.set_words().is_none_or(|set| !self.size_words.is_multiple_of(set)) {
            return Err(triarch_simcore::SimError::invalid_config(
                "cache capacity must be a whole number of sets",
            ));
        }
        Ok(())
    }

    /// Words in one set, or `None` when that overflows `usize`.
    fn set_words(&self) -> Option<usize> {
        self.line_words.checked_mul(self.ways)
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero, overflowing or
    /// non-dividing), as [`Self::validate`] reports.
    #[must_use]
    pub fn sets(&self) -> usize {
        match self.set_words() {
            Some(set) if set > 0 && self.size_words.is_multiple_of(set) => self.size_words / set,
            _ => panic!("inconsistent cache geometry"),
        }
    }
}

/// One cache level with LRU replacement and dirty-line tracking.
///
/// Hit/miss/eviction/writeback totals live in a shared
/// [`CacheCounters`](triarch_simcore::metrics::CacheCounters) set (the
/// same vocabulary every cache model in the workspace exports through the
/// metrics registry) instead of bespoke per-struct fields.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Word address → line, and line → set, fixed by the geometry.
    line_of: Divisor,
    set_of: Divisor,
    // `sets × ways` packed `(line << 1) | dirty` slots: set `s` owns
    // `slots[s * ways..][..ways]`, whose first `filled[s]` hold its lines
    // in LRU order (front = most recent). Packing the dirty bit into the
    // line word keeps one word per resident line.
    slots: Vec<usize>,
    filled: Vec<usize>,
    counters: triarch_simcore::metrics::CacheCounters,
}

impl Cache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`CacheConfig::sets`]).
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            cfg,
            line_of: Divisor::new(cfg.line_words as u64),
            set_of: Divisor::new(sets as u64),
            slots: vec![0; sets * cfg.ways],
            filled: vec![0; sets],
            counters: triarch_simcore::metrics::CacheCounters::default(),
        }
    }

    /// Touches the line containing `word_addr` as a read; returns `true`
    /// on a miss.
    #[inline]
    pub fn access(&mut self, word_addr: usize) -> bool {
        self.access_rw(word_addr, false)
    }

    /// Touches the line containing `word_addr`; returns `true` on a miss.
    ///
    /// A write marks the line dirty; evicting a dirty line counts a
    /// writeback.  Writeback traffic is *observability only* — the G4's
    /// timing charges store misses through its buffered store-miss
    /// penalty, so cycle totals are unchanged by the dirty-bit model.
    #[inline]
    pub fn access_rw(&mut self, word_addr: usize, is_write: bool) -> bool {
        // Both values are below the `usize` they were divided from.
        let line = self.line_of.div_rem(word_addr as u64).0;
        let set = self.set_of.div_rem(line).1 as usize;
        let line = line as usize;
        let ways = self.cfg.ways;
        let slots = &mut self.slots[set * ways..][..ways];
        let filled = &mut self.filled[set];
        if let Some(pos) = slots[..*filled].iter().position(|&t| (t >> 1) == line) {
            // Move-to-front via a prefix rotate: one memmove over
            // `[0..=pos]` instead of remove+insert shuffling the whole set.
            let tag = slots[pos] | usize::from(is_write);
            slots[..=pos].rotate_right(1);
            slots[0] = tag;
            self.counters.hits += 1;
            false
        } else {
            self.counters.misses += 1;
            if *filled == ways {
                // Steady state: the LRU tail is evicted and the rotate
                // below overwrites it.
                self.counters.evictions += 1;
                self.counters.writebacks += u64::from(slots[ways - 1] & 1 == 1);
            } else {
                *filled += 1;
            }
            slots[..*filled].rotate_right(1);
            slots[0] = (line << 1) | usize::from(is_write);
            true
        }
    }

    /// Settles `accesses` accesses that cover `block` (writes among them
    /// when `write`) as their replay through [`access_rw`](Self::access_rw)
    /// would, when every access is sure to hit: each line of the block
    /// moves to the front of its set, dirtied when `write`, and `hits`
    /// grows by `accesses`. Returns `false`, having changed nothing, unless
    /// the block covers every one of its lines (the line size and the
    /// block's start are multiples of its grain), every line is resident,
    /// and the lines are at most as many as the sets, so no two share one.
    pub fn settle_resident(&mut self, block: Block, accesses: u64, write: bool) -> bool {
        let Block { first_word, words, grain } = block;
        // No line size is a multiple of a zero grain.
        let covered = self.cfg.line_words.is_multiple_of(grain) && first_word.is_multiple_of(grain);
        let Some(last_word) = words.checked_sub(1).and_then(|w| first_word.checked_add(w)) else {
            return false;
        };
        // Each value is below the `usize` it was divided from.
        let first = self.line_of.div_rem(first_word as u64).0 as usize;
        let last = self.line_of.div_rem(last_word as u64).0 as usize;
        let sets = self.filled.len();
        if !covered || last - first >= sets {
            return false;
        }
        // Consecutive lines fall in consecutive sets, wrapping after the
        // last.
        let first_set = self.set_of.div_rem(first as u64).1 as usize;
        let ways = self.cfg.ways;
        let lines_and_sets = || (first..=last).zip((first_set..sets).chain(0..first_set));
        for (line, set) in lines_and_sets() {
            let resident = &self.slots[set * ways..][..self.filled[set]];
            if !resident.iter().any(|&t| (t >> 1) == line) {
                return false;
            }
        }
        for (line, set) in lines_and_sets() {
            let slots = &mut self.slots[set * ways..][..self.filled[set]];
            if let Some(pos) = slots.iter().position(|&t| (t >> 1) == line) {
                let tag = slots[pos] | usize::from(write);
                slots[..=pos].rotate_right(1);
                slots[0] = tag;
            }
        }
        self.counters.hits += accesses;
        true
    }

    /// Settles `count` accesses to the distinct lines `first + j·step`,
    /// `j` in `0..count` (writes when `write`), as their replay through
    /// [`access_rw`](Self::access_rw) would, when every one is sure to
    /// miss. The run's lines fall in the sets `(first + j·step) mod sets`,
    /// which repeat with period `sets / gcd(step mod sets, sets)`, so each
    /// set it touches is settled once, in O(ways): `misses` grows by that
    /// set's `k` accesses; the LRU tail is evicted (the set's old lines
    /// first, then the run's earliest), counting a writeback for every
    /// dirty old line evicted and, when `write`, every evicted run line;
    /// and the set is left holding the run's last `min(k, ways)` lines,
    /// newest first and dirty when `write`, followed by the old lines that
    /// survive. Returns `false`, having changed nothing, when `step` is
    /// zero, a line does not fit a slot (`usize::MAX >> 1` at most), or any
    /// line of the run is resident.
    pub fn settle_misses(&mut self, first: usize, step: usize, count: usize, write: bool) -> bool {
        if step == 0 {
            return false;
        }
        let Some(last) = count.checked_sub(1) else {
            return true;
        };
        // A slot keeps a line shifted left by one: a run line must fit.
        let last = match last.checked_mul(step).and_then(|span| first.checked_add(span)) {
            Some(last) if last <= usize::MAX >> 1 => last,
            _ => return false,
        };
        let (sets, ways, set_of) = (self.filled.len(), self.cfg.ways, self.set_of);
        // Access `i` of the first `period` is the first in its set. Each
        // value is below the `usize` it was divided from.
        let period = sets / gcd(set_of.div_rem(step as u64).1 as usize, sets);
        let (touched, (rounds, extra)) = (count.min(period), (count / period, count % period));
        let set = |i: usize| set_of.div_rem((first + i * step) as u64).1 as usize;
        // A resident line is the run's when it lies in `first..=last` a
        // whole number of steps from `first`.
        let in_run = |t: usize| {
            (first..=last).contains(&(t >> 1)) && ((t >> 1) - first).is_multiple_of(step)
        };
        if (0..touched).any(|i| self.resident(set(i)).iter().any(|&t| in_run(t))) {
            return false;
        }
        for i in 0..touched {
            // This set takes the accesses `i, i + period, …` below `count`.
            let k = rounds + usize::from(i < extra);
            let set = set(i);
            let slots = &mut self.slots[set * ways..][..ways];
            let filled = &mut self.filled[set];
            let inserted = k.min(ways);
            let kept = (*filled).min(ways - inserted);
            let dirty_old = slots[kept..*filled].iter().filter(|&&t| t & 1 == 1).count();
            let evicted_run = k - inserted;
            self.counters.misses += k as u64;
            self.counters.evictions += (*filled - kept + evicted_run) as u64;
            self.counters.writebacks += (dirty_old + if write { evicted_run } else { 0 }) as u64;
            slots.copy_within(..kept, inserted);
            for (age, slot) in slots[..inserted].iter_mut().enumerate() {
                let line = first + (i + (k - 1 - age) * period) * step;
                *slot = (line << 1) | usize::from(write);
            }
            *filled = inserted + kept;
        }
        true
    }

    /// The line holding `word_addr`; of a stride in words, the stride in
    /// lines.
    #[must_use]
    pub fn line(&self, word_addr: usize) -> usize {
        // The quotient is below the `usize` it was divided from.
        self.line_of.div_rem(word_addr as u64).0 as usize
    }

    /// Whether the line holding `word_addr` is resident.
    #[must_use]
    pub fn holds(&self, word_addr: usize) -> bool {
        // Both values are below the `usize` they were divided from.
        let line = self.line_of.div_rem(word_addr as u64).0;
        let set = self.set_of.div_rem(line).1;
        self.resident(set as usize).iter().any(|&t| (t >> 1) == line as usize)
    }

    /// The shortest stretch of `words` that holds every word whose line
    /// can share a set with a line `first + j·step`, or an empty range at
    /// `words.end` when no word's line can. Such lines stay in the residue
    /// class of `first` modulo `gcd(step mod sets, sets)`, so the stretch
    /// runs from the first of `words`' lines in that class to the last.
    #[must_use]
    pub fn meeting_span(&self, words: Range<usize>, first: usize, step: usize) -> Range<usize> {
        let none = words.end..words.end;
        let Some(last_word) = words.end.checked_sub(1).filter(|&w| w >= words.start) else {
            return none;
        };
        let class = gcd(self.set_of.div_rem(step as u64).1 as usize, self.filled.len());
        let line_words = self.cfg.line_words;
        // Both values are below the `usize` they were divided from.
        let low = self.line_of.div_rem(words.start as u64).0 as usize;
        let high = self.line_of.div_rem(last_word as u64).0 as usize;
        let (low_skip, high_skip) = (
            (first % class + class - low % class) % class,
            (high % class + class - first % class) % class,
        );
        if low_skip > high - low {
            return none;
        }
        let (low, high) = (low + low_skip, high - high_skip);
        (low * line_words).max(words.start)
            ..(high * line_words).saturating_add(line_words).min(words.end)
    }

    /// Hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.counters.hits
    }

    /// Misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.counters.misses
    }

    /// Capacity/conflict evictions so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.counters.evictions
    }

    /// Dirty-line writebacks so far.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.counters.writebacks
    }

    /// The full shared counter set (for metrics export).
    #[must_use]
    pub fn counters(&self) -> &triarch_simcore::metrics::CacheCounters {
        &self.counters
    }

    /// The geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Set `set`'s resident lines, packed `(line << 1) | dirty`, most
    /// recent first.
    pub(crate) fn resident(&self, set: usize) -> &[usize] {
        &self.slots[set * self.cfg.ways..][..self.filled[set]]
    }
}

/// Greatest common divisor, with `gcd(0, b) = b`.
fn gcd(mut a: usize, mut b: usize) -> usize {
    while a != 0 {
        (a, b) = (b % a, a);
    }
    b
}

/// A two-level hierarchy: every L1 miss probes L2.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Level-1 data cache.
    pub l1: Cache,
    /// Unified level-2 cache.
    pub l2: Cache,
}

impl Hierarchy {
    /// G4 hierarchy (L1 32 KB / L2 256 KB).
    #[must_use]
    pub fn g4() -> Self {
        Self::from_config(CacheConfig::g4_l1(), CacheConfig::g4_l2())
    }

    /// Builds a hierarchy from explicit geometries (used when sweeping
    /// cache sizes in design-space exploration).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry; validate with
    /// [`CacheConfig::validate`] first.
    #[must_use]
    pub fn from_config(l1: CacheConfig, l2: CacheConfig) -> Self {
        Hierarchy { l1: Cache::new(l1), l2: Cache::new(l2) }
    }

    /// Touches an address through both levels as a read; returns
    /// `(l1_miss, l2_miss)`.
    #[inline]
    pub fn access(&mut self, word_addr: usize) -> (bool, bool) {
        self.access_rw(word_addr, false)
    }

    /// Reads the line containing `word_addr` `1 + again` times in a row:
    /// the first read as [`access`](Self::access) does it, and the rest as
    /// L1 hits on the line it left at the front of its L1 set. Returns
    /// `(l1_miss, l2_miss)` of the first.
    #[inline]
    pub fn access_again(&mut self, word_addr: usize, again: u64) -> (bool, bool) {
        let misses = self.access(word_addr);
        self.l1.counters.hits += again;
        misses
    }

    /// Touches an address through both levels; returns
    /// `(l1_miss, l2_miss)`.  A write dirties the line in each level it
    /// touches (L1 always; L2 only when L1 missed — the write-allocate
    /// fill path).
    #[inline]
    pub fn access_rw(&mut self, word_addr: usize, is_write: bool) -> (bool, bool) {
        let l1_miss = self.l1.access_rw(word_addr, is_write);
        let l2_miss = if l1_miss { self.l2.access_rw(word_addr, is_write) } else { false };
        (l1_miss, l2_miss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::g4_l1().sets(), 128);
        assert_eq!(CacheConfig::g4_l2().sets(), 512);
    }

    #[test]
    fn validate_mirrors_sets_preconditions() {
        assert!(CacheConfig::g4_l1().validate().is_ok());
        assert!(CacheConfig::g4_l2().validate().is_ok());
        assert!(CacheConfig { size_words: 100, line_words: 8, ways: 3 }.validate().is_err());
        assert!(CacheConfig { size_words: 0, line_words: 8, ways: 8 }.validate().is_err());
        assert!(CacheConfig { size_words: 64, line_words: 0, ways: 8 }.validate().is_err());
        assert!(CacheConfig { size_words: 64, line_words: 8, ways: 0 }.validate().is_err());
    }

    #[test]
    fn sequential_reuse_hits() {
        let mut c = Cache::new(CacheConfig::g4_l1());
        assert!(c.access(0)); // compulsory miss
        assert!(!c.access(1)); // same line
        assert!(!c.access(7));
        assert!(c.access(8)); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1 set visible: pick addresses all mapping to set 0.
        let cfg = CacheConfig { size_words: 16, line_words: 8, ways: 2 };
        let mut c = Cache::new(cfg);
        assert_eq!(cfg.sets(), 1);
        assert!(c.access(0)); // line A
        assert!(c.access(8)); // line B
        assert!(!c.access(0)); // A hits, becomes MRU
        assert!(c.access(16)); // line C evicts B
        assert!(!c.access(0)); // A still resident
        assert!(c.access(8)); // B was evicted
    }

    #[test]
    fn column_stride_thrashes_power_of_two_sets() {
        // Writes with a 1024-word stride alias to few sets: far more
        // misses than the same number of sequential accesses.
        let mut strided = Cache::new(CacheConfig::g4_l1());
        let mut seq = Cache::new(CacheConfig::g4_l1());
        let n = 4096;
        for r in 0..4 {
            for c in 0..n {
                strided.access(c * 1024 + r);
                seq.access(r * n + c);
            }
        }
        assert!(strided.misses() > 4 * seq.misses());
    }

    #[test]
    fn hierarchy_probes_l2_only_on_l1_miss() {
        let mut h = Hierarchy::g4();
        assert_eq!(h.access(0), (true, true));
        assert_eq!(h.access(1), (false, false));
        // Evict from L1 by thrashing its set; L2 still holds the line.
        for k in 1..=8 {
            h.access(k * 1024 * 8 / 8 * 8); // distinct lines, same L1 set region
        }
        // Not asserting exact states here — just that the API is sane and
        // L2 misses never exceed L1 misses.
        assert!(h.l2.misses() <= h.l1.misses());
    }

    #[test]
    fn evictions_and_writebacks_are_counted() {
        // One 2-way set: every third distinct line evicts.
        let cfg = CacheConfig { size_words: 16, line_words: 8, ways: 2 };
        let mut c = Cache::new(cfg);
        assert!(c.access_rw(0, true)); // line A, dirty
        assert!(c.access_rw(8, false)); // line B, clean
        assert!(c.access_rw(16, false)); // evicts A (LRU, dirty) -> writeback
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.writebacks(), 1);
        assert!(c.access_rw(24, false)); // evicts B (clean) -> no writeback
        assert_eq!(c.evictions(), 2);
        assert_eq!(c.writebacks(), 1);
        // A read hit on a dirty line keeps it dirty: it still writes back
        // when later evicted.
        let mut d = Cache::new(cfg);
        assert!(d.access_rw(0, true)); // A dirty
        assert!(!d.access_rw(0, false)); // read hit: stays dirty, MRU
        assert!(d.access_rw(8, false)); // B clean; LRU order [B, A]
        assert!(d.access_rw(16, false)); // evicts A (dirty) -> writeback
        assert!(d.access_rw(24, false)); // evicts B (clean)
        assert_eq!(d.writebacks(), 1);
        assert_eq!(d.counters().accesses(), d.hits() + d.misses());
    }

    #[test]
    fn dirty_bit_does_not_change_hit_miss_behaviour() {
        // Same address stream, reads vs writes: identical hit/miss totals.
        let mut reads = Cache::new(CacheConfig::g4_l1());
        let mut writes = Cache::new(CacheConfig::g4_l1());
        for r in 0..4 {
            for c in 0..512 {
                reads.access_rw(c * 1024 + r, false);
                writes.access_rw(c * 1024 + r, true);
            }
        }
        assert_eq!(reads.hits(), writes.hits());
        assert_eq!(reads.misses(), writes.misses());
        assert_eq!(reads.evictions(), writes.evictions());
        assert_eq!(reads.writebacks(), 0);
        assert!(writes.writebacks() > 0);
    }

    #[test]
    fn settle_refuses_a_block_with_two_lines_in_one_set() {
        // 4 sets of 2 ways: lines 0 and 4 share set 0. A block of 4
        // resident lines settles; one of 5, all resident, is refused,
        // because the replay's order, not the settle's, decides which of
        // the two ends up in front.
        let cfg = CacheConfig { size_words: 64, line_words: 8, ways: 2 };
        let block = |words| Block { first_word: 0, words, grain: 8 };
        let mut c = Cache::new(cfg);
        for addr in (0..40).step_by(8) {
            c.access(addr);
        }
        let state = |c: &Cache| {
            let sets: Vec<Vec<usize>> = (0..4).map(|s| c.resident(s).to_vec()).collect();
            (c.hits(), c.misses(), sets)
        };
        let before = state(&c);
        assert!(!c.settle_resident(block(40), 5, true));
        assert_eq!(state(&c), before);
        assert!(c.settle_resident(block(32), 4, true));
        assert_eq!(c.hits(), before.0 + 4);
        // Lines 0–3 are dirty and in front of their sets (packed as
        // `line << 1 | dirty`); line 4 stays clean behind line 0.
        assert_eq!(state(&c).2, [vec![1, 8], vec![3], vec![5], vec![7]]);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn bad_geometry_panics() {
        let _ = CacheConfig { size_words: 100, line_words: 8, ways: 3 }.sets();
    }

    /// A set of `3 · 2^63` words: its capacity is a whole number of
    /// sets only if the product wraps.
    const OVERFLOWING: CacheConfig = CacheConfig {
        size_words: 1 << (usize::BITS - 1),
        line_words: 3,
        ways: 1 << (usize::BITS - 1),
    };

    #[test]
    fn a_set_whose_words_overflow_is_refused() {
        let err = OVERFLOWING.validate().unwrap_err();
        assert!(matches!(err, triarch_simcore::SimError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn a_set_whose_words_overflow_has_no_set_count() {
        let _ = OVERFLOWING.sets();
    }

    #[test]
    fn a_miss_settle_refuses_what_it_cannot_replay() {
        // 4 sets of 2 ways with 8-word lines; line 5 is resident.
        let cfg = CacheConfig { size_words: 64, line_words: 8, ways: 2 };
        let mut c = Cache::new(cfg);
        c.access_rw(40, true);
        let state = |c: &Cache| {
            let sets: Vec<Vec<usize>> = (0..4).map(|s| c.resident(s).to_vec()).collect();
            (counts(c.counters()), sets)
        };
        let before = state(&c);
        let top = usize::MAX >> 1;
        for (first, step, count) in [
            (1, 0, 3),              // no step: one line three times
            (1, 2, 3),              // lines 1, 3, 5: 5 is resident
            (1, usize::MAX / 2, 3), // the third line overflows
            (top - 1, 1, 3),        // the third line does not fit a slot
        ] {
            assert!(!c.settle_misses(first, step, count, true), "{first} + j·{step}, j < {count}");
            assert_eq!(state(&c), before);
        }
        // Nothing to settle is settled; the highest line a slot holds is
        // settled like any other.
        assert!(c.settle_misses(1, 2, 0, true));
        assert_eq!(state(&c), before);
        assert!(c.settle_misses(top - 2, 1, 3, false));
        assert_eq!(c.misses(), before.0[1] + 3);
    }

    /// Hits, misses, evictions and writebacks.
    pub(super) fn counts(c: &triarch_simcore::metrics::CacheCounters) -> [u64; 4] {
        [c.hits, c.misses, c.evictions, c.writebacks]
    }

    #[test]
    fn a_miss_settle_evicts_old_lines_first_then_the_run_s_earliest() {
        // One set of 3 ways holding dirty line 7 in front of clean line 9.
        // Four stores to lines 1, 2, 3 and 4 evict 9 and 7 (one
        // writeback), then lines 1 (a second writeback), leaving 4, 3, 2.
        let cfg = CacheConfig { size_words: 3, line_words: 1, ways: 3 };
        let mut replayed = Cache::new(cfg);
        replayed.access(9);
        replayed.access_rw(7, true);
        let mut settled = replayed.clone();
        for line in 1..=4 {
            assert!(replayed.access_rw(line, true));
        }
        assert!(settled.settle_misses(1, 1, 4, true));
        for c in [&settled, &replayed] {
            assert_eq!(counts(c.counters()), [0, 6, 3, 2]);
            assert_eq!(c.resident(0), [9, 7, 5]);
        }
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::tests::counts;
    use super::*;
    use proptest::prelude::*;

    /// The oracle [`Cache`] is checked against: one `Vec` per set, found
    /// by plain division, as the cache was before its slots were
    /// flattened.
    struct ListCache {
        cfg: CacheConfig,
        // Per set: packed `(tag << 1) | dirty` entries in LRU order
        // (front = most recent).
        sets: Vec<Vec<usize>>,
        counters: triarch_simcore::metrics::CacheCounters,
    }

    impl ListCache {
        fn new(cfg: CacheConfig) -> Self {
            let sets = cfg.sets();
            ListCache {
                cfg,
                sets: vec![Vec::with_capacity(cfg.ways); sets],
                counters: triarch_simcore::metrics::CacheCounters::default(),
            }
        }

        fn access_rw(&mut self, word_addr: usize, is_write: bool) -> bool {
            let line = word_addr / self.cfg.line_words;
            let set = line % self.sets.len();
            let ways = &mut self.sets[set];
            if let Some(pos) = ways.iter().position(|&t| (t >> 1) == line) {
                let tag = ways[pos] | usize::from(is_write);
                ways[..=pos].rotate_right(1);
                ways[0] = tag;
                self.counters.hits += 1;
                false
            } else {
                self.counters.misses += 1;
                let packed = (line << 1) | usize::from(is_write);
                if ways.len() == self.cfg.ways {
                    if let Some(&evicted) = ways.last() {
                        self.counters.evictions += 1;
                        self.counters.writebacks += u64::from(evicted & 1 == 1);
                    }
                    ways.rotate_right(1);
                    ways[0] = packed;
                } else {
                    ways.insert(0, packed);
                }
                true
            }
        }
    }

    /// A geometry: the G4's two levels, or a random one whose line size
    /// and set count are mostly not powers of two.
    fn geometry(preset: usize, line_words: usize, ways: usize, sets: usize) -> CacheConfig {
        match preset {
            0 => CacheConfig::g4_l1(),
            1 => CacheConfig::g4_l2(),
            _ => CacheConfig { size_words: line_words * ways * sets, line_words, ways },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Each step is a stream of `count` accesses from `base`: unit
        /// stride, a corner turn's column stride (a power of two, so the
        /// columns alias into few sets), an arbitrary stride, or
        /// addresses near the top of the address space. Its writes follow
        /// `writes`' bits.
        #[test]
        fn flat_cache_matches_the_list_oracle(
            shape in (0usize..6, 1usize..=24, 1usize..=9, 1usize..=70),
            steps in proptest::collection::vec(
                (0usize..4, 0usize..1 << 24, 1usize..=400, 1usize..=3_000, any::<u64>()),
                1..=12,
            ),
        ) {
            let (preset, line_words, ways, sets) = shape;
            let cfg = geometry(preset, line_words, ways, sets);
            prop_assert!(cfg.validate().is_ok());
            let mut flat = Cache::new(cfg);
            let mut oracle = ListCache::new(cfg);
            for (i, &(kind, base, count, stride, writes)) in steps.iter().enumerate() {
                let (start, stride) = match kind {
                    0 => (base, 1),
                    1 => (base, 1 << (6 + stride % 7)),
                    2 => (base, stride),
                    _ => (usize::MAX - base, stride),
                };
                for k in 0..count {
                    let addr = start.wrapping_add(k.wrapping_mul(stride));
                    let is_write = (writes >> (k % 64)) & 1 == 1;
                    let miss = flat.access_rw(addr, is_write);
                    prop_assert_eq!(
                        miss,
                        oracle.access_rw(addr, is_write),
                        "step {i}, access {k} at {addr} on {cfg:?}"
                    );
                    prop_assert_eq!(counts(flat.counters()), counts(&oracle.counters));
                }
            }
            for (set, lines) in oracle.sets.iter().enumerate() {
                prop_assert_eq!(flat.resident(set), lines.as_slice(), "set {set} of {cfg:?}");
            }
        }

        /// A settle leaves exactly what replaying its accesses leaves, and
        /// it settles whenever that replay only hits a covered block that
        /// fits in the sets; refused, it changes nothing. The replayed
        /// sequence covers the block: every `grain`-th word (written when
        /// the sequence writes), then words drawn from the whole block.
        /// A random stream warms the cache first, over the sequence's
        /// words read once when `prime` is set.
        #[test]
        fn settling_a_resident_block_matches_its_replay(
            shape in (0usize..6, 1usize..=24, 1usize..=9, 1usize..=70),
            block in (0usize..300, 1usize..=160, 0usize..6),
            warm in proptest::collection::vec((0usize..3_000, any::<bool>()), 0..=60),
            extra in proptest::collection::vec((any::<usize>(), any::<bool>()), 0..=40),
            prime_write in (any::<bool>(), any::<bool>()),
        ) {
            let (preset, line_words, ways, sets) = shape;
            let cfg = geometry(preset, line_words, ways, sets);
            let (prime, write) = prime_write;
            let (start, words, grain) = block;
            let grain = [1, 2, 4, 8, 3, 5][grain];
            let block = Block { first_word: start / grain * grain, words, grain };
            let mut sequence: Vec<(usize, bool)> = (block.first_word..block.first_word + words)
                .step_by(grain)
                .map(|w| (w, write))
                .collect();
            sequence.extend(extra.iter().map(|&(x, w)| (block.first_word + x % words, w && write)));

            // Priming reads, so that a settle must dirty the lines itself.
            let mut before = Cache::new(cfg);
            if prime {
                for &(addr, _) in &sequence {
                    before.access(addr);
                }
            }
            for &(addr, w) in &warm {
                before.access_rw(addr, w);
            }
            let mut replayed = before.clone();
            let mut all_hit = true;
            for &(addr, w) in &sequence {
                all_hit &= !replayed.access_rw(addr, w);
            }
            let mut settled = before.clone();
            let did = settled.settle_resident(block, sequence.len() as u64, write);

            let line = |w: usize| w / cfg.line_words;
            let last = block.first_word + words - 1;
            let fits = line(last) - line(block.first_word) < cfg.sets();
            let covered = cfg.line_words.is_multiple_of(grain);
            prop_assert_eq!(did, covered && fits && all_hit, "{block:?} on {cfg:?}");
            let want = if did { &replayed } else { &before };
            prop_assert_eq!(counts(settled.counters()), counts(want.counters()));
            for set in 0..cfg.sets() {
                prop_assert_eq!(settled.resident(set), want.resident(set), "set {set} of {cfg:?}");
            }
        }

        /// A miss settle leaves exactly what replaying its accesses leaves
        /// when none of the run's lines is resident, and otherwise changes
        /// nothing (even where the replay would evict a resident run line
        /// before reaching it). A random stream warms the cache first;
        /// some of it reads or writes lines of the run's sets, and in half
        /// the cases the run's own lines.
        #[test]
        fn settling_misses_matches_their_replay(
            shape in (0usize..6, 1usize..=24, 1usize..=9, 1usize..=70),
            run in (0usize..1 << 20, 1usize..=300, 0usize..=200, any::<bool>()),
            warm in proptest::collection::vec((0usize..3, any::<usize>(), any::<bool>()), 0..=60),
            touch_run in any::<bool>(),
        ) {
            let (preset, line_words, ways, sets) = shape;
            let cfg = geometry(preset, line_words, ways, sets);
            let (first, step, count, write) = run;
            let line = |j: usize| first + j * step;
            let mut before = Cache::new(cfg);
            for &(kind, x, w) in &warm {
                let warm_line = match kind {
                    0 if touch_run => line(x % count.max(1)),
                    0 | 1 => line(x % count.max(1)) + cfg.sets() * (1 + x % 3),
                    _ => x % (1 << 22),
                };
                before.access_rw(warm_line * cfg.line_words + x % cfg.line_words, w);
            }
            let none_resident = (0..count).all(|j| !before.holds(line(j) * cfg.line_words));
            let mut replayed = before.clone();
            let mut all_miss = true;
            for j in 0..count {
                all_miss &= replayed.access_rw(line(j) * cfg.line_words, write);
            }
            let mut settled = before.clone();
            let did = settled.settle_misses(first, step, count, write);
            let what = format!("{count} lines from {first} by {step} on {cfg:?}");
            prop_assert_eq!(did, none_resident, "{}", what);
            prop_assert!(all_miss || !did, "{}", what);
            let want = if did { &replayed } else { &before };
            prop_assert_eq!(counts(settled.counters()), counts(want.counters()));
            for set in 0..cfg.sets() {
                prop_assert_eq!(settled.resident(set), want.resident(set), "set {set} of {cfg:?}");
            }
        }

        /// A meeting span holds every word of its range whose line shares
        /// a set with some line `first + j·step`, and begins and ends on
        /// such words; with none, it is empty at the range's end.
        #[test]
        fn a_meeting_span_spans_the_words_a_run_can_meet(
            shape in (0usize..6, 1usize..=24, 1usize..=9, 1usize..=70),
            words in (0usize..1 << 20, 0usize..=600),
            run in (0usize..1 << 20, 0usize..=5_000),
        ) {
            let (preset, line_words, ways, sets) = shape;
            let cfg = geometry(preset, line_words, ways, sets);
            let (first, step) = run;
            let words = words.0..words.0 + words.1;
            let sets = cfg.sets();
            // A run's sets repeat within `sets` lines.
            let reached: Vec<bool> = {
                let mut reached = vec![false; sets];
                for j in 0..sets {
                    reached[(first + j * step) % sets] = true;
                }
                reached
            };
            let meets = |w: usize| reached[(w / cfg.line_words) % sets];
            let span = Cache::new(cfg).meeting_span(words.clone(), first, step);
            for w in words.clone() {
                prop_assert_eq!(span.contains(&w) || !meets(w), true, "word {w}, {span:?}");
            }
            if span.is_empty() {
                prop_assert_eq!(span, words.end..words.end);
            } else {
                prop_assert!(words.start <= span.start && span.end <= words.end, "{span:?}");
                prop_assert!(meets(span.start) && meets(span.end - 1), "{span:?} of {words:?}");
            }
        }
    }
}
