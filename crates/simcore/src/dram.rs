//! Banked DRAM timing model with open-row tracking.
//!
//! This model is the workhorse behind every memory system in the study:
//! VIRAM's on-chip DRAM (2 wings × 4 banks behind a 256-bit crossbar),
//! Imagine's and Raw's off-chip SDRAM, and the G4's main memory.
//!
//! Timing stays word-granular: a transfer issues its address stream in
//! per-cycle groups (group width = the words-per-cycle throughput of the
//! interface, further limited by the number of address generators for
//! strided streams). Each word maps to a `(bank, row)`; a word that touches
//! a bank whose open row differs must wait for a precharge + activate, and
//! the bank is busy until the activate completes. Open rows persist across
//! transfers, so blocked access patterns that revisit rows (the paper's
//! corner-turn optimizations) pay the row costs only once — exactly the
//! effect the paper exploits.
//!
//! The walk itself settles *runs*, not words. A run is a stretch of
//! consecutive words that share one bank and one row. Only its first word
//! can miss; every later word hits the row that word just settled, so it
//! adds a bank conflict exactly when that bank is still busy in the first
//! word's group, and in any later group it stalls nothing (the group that
//! holds the first word waits for the bank). A run therefore costs O(1)
//! whatever its length, and may end early at an interleave, row-stripe,
//! wing or chunk boundary without changing any result. Each run's bank,
//! row and length come from constants computed once per model (a shift
//! for each power-of-two divisor of the configuration, a 128-bit
//! reciprocal for the rest), so locating a word divides nothing.
//! The word-by-word walk this replaces is kept as a test-only oracle
//! (`DramModel::transfer_per_word`), and a property test holds the two to
//! equal costs, bank state and counters after every transfer.

use triarch_metrics::MetricsReport;
use triarch_trace::TraceSink;

use crate::cycles::Cycles;
use crate::divisor::Divisor;
use crate::error::SimError;

/// How a transfer walks the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Consecutive word addresses (unit stride).
    Sequential,
    /// Fixed non-unit stride in words between consecutive elements.
    Strided {
        /// Distance in words between consecutive elements; must be non-zero.
        stride_words: usize,
    },
    /// Short sequential chunks separated by a fixed stride — the pattern
    /// of Imagine's corner-turn output stream ("the eight words in a block
    /// are written sequentially, but the blocks are written with a
    /// non-unit stride").
    Chunked {
        /// Words per sequential chunk; must be non-zero.
        chunk_words: usize,
        /// Distance in words between chunk starts; must be non-zero.
        stride_words: usize,
    },
}

impl AccessPattern {
    /// Checks that the pattern's strides and chunk length are non-zero.
    /// Callers that move data run this before the first word moves;
    /// [`DramModel::transfer`] runs it too.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a zero stride or chunk length.
    pub fn check(self) -> Result<(), SimError> {
        match self {
            AccessPattern::Strided { stride_words: 0 } => {
                Err(SimError::invalid_config("strided transfer requires non-zero stride"))
            }
            AccessPattern::Chunked { chunk_words, stride_words }
                if chunk_words == 0 || stride_words == 0 =>
            {
                Err(SimError::invalid_config("chunked transfer requires non-zero chunk and stride"))
            }
            _ => Ok(()),
        }
    }

    /// Address of the `idx`-th word of a transfer that starts at `base`.
    ///
    /// # Panics
    ///
    /// Panics on a `Chunked` pattern with `chunk_words == 0`, which
    /// [`check`](Self::check) refuses.
    #[must_use]
    pub fn word(self, base: usize, idx: usize) -> usize {
        match self {
            AccessPattern::Sequential => base + idx,
            AccessPattern::Strided { stride_words } => base + idx * stride_words,
            AccessPattern::Chunked { chunk_words, stride_words } => {
                base + (idx / chunk_words) * stride_words + idx % chunk_words
            }
        }
    }

    /// [`word`](Self::word) without overflow: `None` when the address
    /// does not fit in a `usize`, and for a `Chunked` pattern with
    /// `chunk_words == 0`. For reporting the word a refused transfer
    /// fails on; a transfer that [`end`](Self::end) accepts can use
    /// `word`.
    #[must_use]
    pub fn checked_word(self, base: usize, idx: usize) -> Option<usize> {
        let offset = match self {
            AccessPattern::Sequential => idx,
            AccessPattern::Strided { stride_words } => idx.checked_mul(stride_words)?,
            AccessPattern::Chunked { chunk_words, stride_words } => idx
                .checked_div(chunk_words)?
                .checked_mul(stride_words)?
                .checked_add(idx % chunk_words)?,
        };
        base.checked_add(offset)
    }

    /// One past the highest address an `n`-word transfer from `base`
    /// touches (`base` itself when `n` is 0), or `None` when that does
    /// not fit in a `usize`. [`word`](Self::word) does not check, so a
    /// caller that moves data asks this first and refuses the transfer
    /// before any word moves. `None` too for a pattern that
    /// [`check`](Self::check) refuses.
    #[must_use]
    pub fn end(self, base: usize, n: usize) -> Option<usize> {
        let Some(last) = n.checked_sub(1) else {
            return Some(base);
        };
        let highest = match self {
            AccessPattern::Sequential => last,
            AccessPattern::Strided { stride_words } => last.checked_mul(stride_words)?,
            AccessPattern::Chunked { chunk_words, stride_words } => {
                // The last chunk holds the last word, but when chunks
                // overlap (stride < chunk) the full chunk before it can
                // reach further.
                let chunk = last.checked_div(chunk_words)?;
                let tail = chunk.checked_mul(stride_words)?.checked_add(last % chunk_words)?;
                match chunk.checked_sub(1) {
                    Some(prev) => {
                        tail.max(prev.checked_mul(stride_words)?.checked_add(chunk_words - 1)?)
                    }
                    None => tail,
                }
            }
        };
        base.checked_add(highest)?.checked_add(1)
    }

    /// Length of the pattern's stretches of consecutive addresses: one
    /// word for a strided stream, unbounded for a sequential one.
    fn chunk_words(self) -> usize {
        match self {
            AccessPattern::Sequential => usize::MAX,
            AccessPattern::Strided { .. } => 1,
            AccessPattern::Chunked { chunk_words, .. } => chunk_words,
        }
    }
}

/// Configuration of a banked DRAM interface.
///
/// # Example
///
/// ```
/// use triarch_simcore::DramConfig;
///
/// let cfg = DramConfig::viram_onchip();
/// assert_eq!(cfg.banks, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independently-operating banks.
    pub banks: usize,
    /// Words in one DRAM row (page) of one bank.
    pub row_words: usize,
    /// Consecutive words mapped to one bank before rotating to the next.
    pub interleave_words: usize,
    /// Cycles to precharge a bank.
    pub t_precharge: u64,
    /// Cycles from activate to first column access.
    pub t_activate: u64,
    /// Pipeline-fill cycles charged once per transfer (CAS latency etc.).
    pub t_startup: u64,
    /// Peak words per cycle for unit-stride bursts.
    pub seq_words_per_cycle: u32,
    /// Peak words per cycle for strided streams (address-generator limit).
    pub strided_words_per_cycle: u32,
    /// Number of wings the banks are split across (VIRAM: 2). A wing owns
    /// a contiguous `wing_words` slice of the address space and its own
    /// subset of banks, so streams in different wings never conflict.
    pub wings: usize,
    /// Words per wing; ignored (may be 0) when `wings == 1`.
    pub wing_words: usize,
}

impl DramConfig {
    /// Returns a copy with the unit-stride burst rate replaced — sweep
    /// plumbing for design-space exploration over interface widths.
    #[must_use]
    pub fn with_seq_words_per_cycle(mut self, words: u32) -> Self {
        self.seq_words_per_cycle = words;
        self
    }

    /// Returns a copy with the strided (address-generator-limited) rate
    /// replaced — sweep plumbing for design-space exploration over the
    /// number of address generators.
    #[must_use]
    pub fn with_strided_words_per_cycle(mut self, words: u32) -> Self {
        self.strided_words_per_cycle = words;
        self
    }

    /// VIRAM's on-chip DRAM: 2 wings × 4 banks, 256-bit (8-word) path,
    /// 4 address generators ⇒ 4 strided words/cycle (paper Section 2.1).
    #[must_use]
    pub fn viram_onchip() -> Self {
        DramConfig {
            banks: 8,
            row_words: 2048,
            interleave_words: 8,
            t_precharge: 6,
            t_activate: 8,
            t_startup: 0,
            seq_words_per_cycle: 8,
            strided_words_per_cycle: 4,
            wings: 2,
            wing_words: 13 * 1024 * 1024 / 4 / 2,
        }
    }

    /// Imagine's off-chip SDRAM: two memory controllers / address
    /// generators providing 2 words per cycle aggregate (paper Table 1).
    /// The controllers reorder accesses, which we reflect with generous
    /// banking and a modest row cost.
    #[must_use]
    pub fn imagine_offchip() -> Self {
        DramConfig {
            banks: 4,
            row_words: 512,
            interleave_words: 8,
            t_precharge: 8,
            t_activate: 10,
            t_startup: 20,
            seq_words_per_cycle: 2,
            strided_words_per_cycle: 2,
            wings: 1,
            wing_words: 0,
        }
    }

    /// Raw's peripheral DRAM: 16 edge ports; the paper's Table 1 credits
    /// 28 words/cycle aggregate off-chip bandwidth.
    #[must_use]
    pub fn raw_offchip() -> Self {
        DramConfig {
            banks: 16,
            row_words: 2048,
            interleave_words: 8,
            t_precharge: 8,
            t_activate: 10,
            t_startup: 20,
            seq_words_per_cycle: 28,
            strided_words_per_cycle: 14,
            wings: 1,
            wing_words: 0,
        }
    }

    /// The G4 baseline's main memory: one channel, roughly 1 word per
    /// (CPU) cycle peak at 1 GHz with long latencies.
    #[must_use]
    pub fn ppc_offchip() -> Self {
        DramConfig {
            banks: 4,
            row_words: 512,
            interleave_words: 8,
            t_precharge: 20,
            t_activate: 25,
            t_startup: 60,
            seq_words_per_cycle: 1,
            strided_words_per_cycle: 1,
            wings: 1,
            wing_words: 0,
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.banks == 0 {
            return Err(SimError::invalid_config("dram banks must be non-zero"));
        }
        if self.row_words == 0 {
            return Err(SimError::invalid_config("dram row_words must be non-zero"));
        }
        if self.interleave_words == 0 {
            return Err(SimError::invalid_config("dram interleave_words must be non-zero"));
        }
        if self.seq_words_per_cycle == 0 || self.strided_words_per_cycle == 0 {
            return Err(SimError::invalid_config("dram words-per-cycle must be non-zero"));
        }
        if self.wings == 0 {
            return Err(SimError::invalid_config("dram wings must be non-zero"));
        }
        if !self.banks.is_multiple_of(self.wings) {
            return Err(SimError::invalid_config("dram banks must divide evenly across wings"));
        }
        if self.wings > 1 && self.wing_words == 0 {
            return Err(SimError::invalid_config("multi-wing dram needs wing_words"));
        }
        if self.row_words.checked_mul(self.banks_per_wing()).is_none() {
            return Err(SimError::invalid_config("dram row_words × banks per wing overflows"));
        }
        Ok(())
    }

    /// Banks owned by each wing.
    #[must_use]
    pub fn banks_per_wing(&self) -> usize {
        self.banks / self.wings.max(1)
    }
}

/// The timing outcome of one DRAM transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramCost {
    /// Total cycles the transfer occupied the interface.
    pub total: Cycles,
    /// Cycles spent moving data at the interface's peak rate.
    pub data: Cycles,
    /// Stall cycles caused by precharge/activate (row misses, bank busy).
    pub overhead: Cycles,
    /// Per-transfer pipeline-fill cycles.
    pub startup: Cycles,
    /// Number of row misses encountered.
    pub row_misses: u64,
}

impl DramCost {
    /// Sums two costs (e.g. a read phase followed by a write phase).
    #[must_use]
    pub fn combine(self, other: DramCost) -> DramCost {
        DramCost {
            total: self.total + other.total,
            data: self.data + other.data,
            overhead: self.overhead + other.overhead,
            startup: self.startup + other.startup,
            row_misses: self.row_misses + other.row_misses,
        }
    }
}

/// A banked DRAM with open-row state and per-bank busy times.
///
/// # Example
///
/// ```
/// use triarch_simcore::{AccessPattern, DramConfig, DramModel};
///
/// # fn main() -> Result<(), triarch_simcore::SimError> {
/// let mut dram = DramModel::new(DramConfig::viram_onchip())?;
/// let burst = dram.transfer(0, 4096, AccessPattern::Sequential)?;
/// // 4096 words at 8 words/cycle = 512 data cycles plus small overheads.
/// assert_eq!(burst.data.get(), 512);
/// assert!(burst.total.get() < 600);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
    map: AddressMap,
    open_rows: Vec<Option<usize>>,
    bank_ready: Vec<u64>,
    now: u64,
    total_row_misses: u64,
    total_bank_conflicts: u64,
    total_words: u64,
    total_busy: u64,
}

impl DramModel {
    /// Creates a DRAM model from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any parameter is zero where a
    /// non-zero value is required.
    pub fn new(cfg: DramConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(DramModel {
            map: AddressMap::new(&cfg),
            open_rows: vec![None; cfg.banks],
            bank_ready: vec![0; cfg.banks],
            now: 0,
            cfg,
            total_row_misses: 0,
            total_bank_conflicts: 0,
            total_words: 0,
            total_busy: 0,
        })
    }

    /// The configuration this model was built from.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Total row misses since construction or the last [`reset`](Self::reset).
    #[must_use]
    pub fn row_misses(&self) -> u64 {
        self.total_row_misses
    }

    /// Total bank conflicts — accesses that found their bank still busy
    /// with a previous precharge/activate — since construction or the
    /// last [`reset`](Self::reset).
    #[must_use]
    pub fn bank_conflicts(&self) -> u64 {
        self.total_bank_conflicts
    }

    /// Total words moved across this interface since construction or the
    /// last [`reset`](Self::reset).
    #[must_use]
    pub fn words_transferred(&self) -> u64 {
        self.total_words
    }

    /// Total cycles this interface was busy with transfers (sum of every
    /// transfer's `total`) since construction or the last
    /// [`reset`](Self::reset).  With [`words_transferred`](Self::words_transferred)
    /// this is the achieved-bandwidth primitive behind the roofline
    /// utilization report.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.total_busy
    }

    /// Registers this interface's counters into `report` under `prefix`
    /// (e.g. `viram.dram`): row misses, bank conflicts, words moved,
    /// interface-busy cycles, and the achieved bandwidth over the busy
    /// window.  Every engine calls this once from `finish()`.
    pub fn export_metrics(&self, report: &mut MetricsReport, prefix: &str) {
        report.counter(&format!("{prefix}.row_misses"), self.total_row_misses);
        report.counter(&format!("{prefix}.bank_conflicts"), self.total_bank_conflicts);
        report.counter(&format!("{prefix}.words"), self.total_words);
        report.counter(&format!("{prefix}.busy_cycles"), self.total_busy);
        report.bandwidth(&format!("{prefix}.achieved_bw"), self.total_words, self.total_busy);
    }

    /// Closes all rows and rewinds the internal clock.
    pub fn reset(&mut self) {
        self.open_rows.iter_mut().for_each(|r| *r = None);
        self.bank_ready.iter_mut().for_each(|t| *t = 0);
        self.now = 0;
        self.total_row_misses = 0;
        self.total_bank_conflicts = 0;
        self.total_words = 0;
        self.total_busy = 0;
    }

    /// Advances the DRAM clock by `cycles` without issuing accesses.
    ///
    /// Use this when the memory interface sits idle (e.g. a compute phase),
    /// letting in-flight precharges complete for free.
    pub fn idle(&mut self, cycles: Cycles) {
        self.now += cycles.get();
    }

    /// Times a transfer of `n_words` starting at `start_word`.
    ///
    /// The transfer is assumed to occupy the interface exclusively; the
    /// model clock advances by the returned total.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a zero stride or chunk
    /// length (see [`AccessPattern::check`]), and
    /// [`SimError::OutOfBounds`] naming address `usize::MAX` for a
    /// transfer whose addresses run past it ([`AccessPattern::end`] is
    /// `None`). A refused transfer moves neither the clock, nor any bank,
    /// nor any counter.
    pub fn transfer(
        &mut self,
        start_word: usize,
        n_words: usize,
        pattern: AccessPattern,
    ) -> Result<DramCost, SimError> {
        pattern.check()?;
        if pattern.end(start_word, n_words).is_none() {
            // The address space is the `usize` range: no word lies at or
            // past `usize::MAX`.
            return Err(SimError::OutOfBounds { addr: usize::MAX, size: usize::MAX });
        }
        if n_words == 0 {
            return Ok(DramCost::default());
        }
        let per_group = self.map.group(pattern);
        let group = per_group.get() as usize;
        let chunk = pattern.chunk_words();

        let start_time = self.now;
        // The open group issues at `t` and retires one cycle after
        // `group_ready`, the latest ready time of the banks it touched;
        // `filled` of its `group` words are taken.
        let mut t = self.now + self.cfg.t_startup;
        let mut group_ready = t;
        let mut filled = 0usize;
        let mut row_misses = 0u64;

        let mut idx = 0usize;
        while idx < n_words {
            let chunk_end = idx + chunk.min(n_words - idx);
            let mut word = pattern.word(start_word, idx);
            loop {
                let at = self.map.locate(word);
                let run = at.room.min(chunk_end - idx);
                // The run's first word, the only one that can miss.
                let ready = self.bank_ready[at.bank];
                self.total_bank_conflicts += u64::from(ready > t);
                let bank_ready = if self.open_rows[at.bank] == Some(at.row) {
                    ready
                } else {
                    row_misses += 1;
                    self.activate(at.bank, at.row, t)
                };
                group_ready = group_ready.max(bank_ready);
                // Later words of the run that share the group hit the row
                // just settled and wait on the same bank.
                let here = run.min(group - filled);
                self.total_bank_conflicts += (here - 1) as u64 * u64::from(bank_ready > t);
                filled += here;
                if filled == group {
                    t = group_ready + 1;
                    // Every later group issues after `bank_ready`, so the
                    // rest of the run stalls nothing: each group it fills
                    // takes one cycle.
                    let (full, part) = per_group.div_rem((run - here) as u64);
                    t += full;
                    group_ready = t;
                    filled = part as usize;
                }
                idx += run;
                if idx == chunk_end {
                    break;
                }
                word += run;
            }
        }
        if filled > 0 {
            t = group_ready + 1;
        }
        Ok(self.settle(start_time, t, n_words, per_group, row_misses))
    }

    /// Opens `row` in `bank` for an access issued at `t`; returns when the
    /// bank is ready.
    ///
    /// Memory controllers issue precharge/activate ahead of the data
    /// stream; an activation can begin as soon as the bank was last free,
    /// up to one full row-cycle before the access needs it. A bank that has
    /// been idle hides the row cost entirely (the paper: "mostly hidden
    /// with sequential accesses"); a bank re-opened in quick succession
    /// stalls the stream.
    fn activate(&mut self, bank: usize, row: usize, t: u64) -> u64 {
        let row_cycle = self.cfg.t_precharge + self.cfg.t_activate;
        let ready = self.bank_ready[bank].max(t.saturating_sub(row_cycle)) + row_cycle;
        self.open_rows[bank] = Some(row);
        self.bank_ready[bank] = ready;
        ready
    }

    /// Closes a transfer that began at `start_time` and retired its last
    /// group at `end`: advances the clock and the counters, and splits
    /// the elapsed cycles into the returned cost.
    fn settle(
        &mut self,
        start_time: u64,
        end: u64,
        n_words: usize,
        per_group: Divisor,
        row_misses: u64,
    ) -> DramCost {
        self.now = end;
        self.total_row_misses += row_misses;

        let (full_groups, partial) = per_group.div_rem(n_words as u64);
        let data_cycles = full_groups + u64::from(partial > 0);
        let total = end - start_time;
        self.total_words += n_words as u64;
        self.total_busy += total;
        let startup = self.cfg.t_startup;
        let overhead = total.saturating_sub(data_cycles + startup);
        DramCost {
            total: Cycles::new(total),
            data: Cycles::new(data_cycles),
            overhead: Cycles::new(overhead),
            startup: Cycles::new(startup),
            row_misses,
        }
    }

    /// [`transfer`](Self::transfer), plus an *uncounted* trace decomposition
    /// of the transfer's cost on `track` starting at machine cycle `at`.
    ///
    /// The caller is expected to charge (and trace as *counted*) the
    /// returned [`DramCost`] through its own breakdown; the spans emitted
    /// here are visualization-only detail — pipeline startup, data
    /// movement at the peak rate, then row precharge/activate stalls —
    /// laid out back-to-back, plus a cumulative `dram-row-misses` counter
    /// sample. With a disabled sink this is exactly `transfer`.
    ///
    /// # Errors
    ///
    /// Refuses what [`transfer`](Self::transfer) refuses, before it emits
    /// anything.
    pub fn transfer_observed<S: TraceSink + ?Sized>(
        &mut self,
        start_word: usize,
        n_words: usize,
        pattern: AccessPattern,
        sink: &mut S,
        track: &'static str,
        at: u64,
    ) -> Result<DramCost, SimError> {
        let cost = self.transfer(start_word, n_words, pattern)?;
        if sink.is_enabled() && cost.total > Cycles::ZERO {
            let mut t = at;
            sink.span_uncounted(track, "startup", "dram-startup", t, cost.startup.get());
            t += cost.startup.get();
            sink.span_uncounted(track, "memory", "dram-data", t, cost.data.get());
            t += cost.data.get();
            sink.span_uncounted(track, "precharge", "dram-row-overhead", t, cost.overhead.get());
            sink.counter(
                track,
                "dram-row-misses",
                at + cost.total.get(),
                self.total_row_misses as f64,
            );
        }
        Ok(cost)
    }
}

/// Where a word lives: its bank, its row, and how many consecutive words
/// from it (itself included) share both.
struct Location {
    bank: usize,
    row: usize,
    room: usize,
}

/// The word → `(bank, row)` mapping of one [`DramConfig`], with every
/// divisor it needs turned into a [`Divisor`] once, when the model is
/// built.
#[derive(Debug, Clone)]
struct AddressMap {
    /// `(wing_words, wings)` when the banks are split across wings.
    wings: Option<(Divisor, Divisor)>,
    interleave: Divisor,
    banks_per_wing: Divisor,
    /// Words in one row of every bank of a wing (`row_words` × banks per
    /// wing): the address span of one row index.
    row_stripe: Divisor,
    /// Words per cycle of unit-stride and of strided streams.
    seq_group: Divisor,
    strided_group: Divisor,
}

impl AddressMap {
    fn new(cfg: &DramConfig) -> Self {
        let div = |d: usize| Divisor::new(d as u64);
        AddressMap {
            wings: (cfg.wings > 1).then(|| (div(cfg.wing_words), div(cfg.wings))),
            interleave: div(cfg.interleave_words),
            banks_per_wing: div(cfg.banks_per_wing()),
            row_stripe: div(cfg.row_words * cfg.banks_per_wing()),
            seq_group: Divisor::new(cfg.seq_words_per_cycle.into()),
            strided_group: Divisor::new(cfg.strided_words_per_cycle.into()),
        }
    }

    /// Words one cycle of `pattern` moves: the unit-stride burst rate, or
    /// the address-generator limit for strided streams.
    fn group(&self, pattern: AccessPattern) -> Divisor {
        match pattern {
            AccessPattern::Strided { .. } => self.strided_group,
            // Within-chunk accesses stream at the sequential rate; the
            // address generator absorbs the chunk jumps.
            AccessPattern::Sequential | AccessPattern::Chunked { .. } => self.seq_group,
        }
    }

    /// Locates `word`. A wing owns a contiguous `wing_words` slice of the
    /// address space (wrapping after the last wing); inside it, words
    /// rotate across the wing's banks every `interleave_words`, and the
    /// row index advances every row stripe.
    #[inline]
    fn locate(&self, word: usize) -> Location {
        let word = word as u64;
        let (wing, local, wing_room) = match self.wings {
            Some((wing_words, wings)) => {
                let (n, local) = wing_words.div_rem(word);
                (wings.div_rem(n).1, local, wing_words.get() - local)
            }
            None => (0, word, u64::MAX),
        };
        let (unit, unit_offset) = self.interleave.div_rem(local);
        let (row, row_offset) = self.row_stripe.div_rem(local);
        let bank = wing * self.banks_per_wing.get() + self.banks_per_wing.div_rem(unit).1;
        let room = (self.interleave.get() - unit_offset)
            .min(self.row_stripe.get() - row_offset)
            .min(wing_room);
        // Each value is below a `usize` it was computed from.
        Location { bank: bank as usize, row: row as usize, room: room as usize }
    }
}

#[cfg(test)]
impl DramModel {
    /// The oracle [`transfer`](Self::transfer) is checked against: the
    /// word-by-word walk, locating every word with plain division.
    fn transfer_per_word(
        &mut self,
        start_word: usize,
        n_words: usize,
        pattern: AccessPattern,
    ) -> Result<DramCost, SimError> {
        pattern.check()?;
        if n_words == 0 {
            return Ok(DramCost::default());
        }
        let per_group = self.map.group(pattern);
        let group = per_group.get() as usize;

        let start_time = self.now;
        let mut t = self.now + self.cfg.t_startup;
        let mut row_misses = 0u64;

        let mut issued = 0usize;
        while issued < n_words {
            let in_group = group.min(n_words - issued);
            // One cycle of data transfer for the group, delayed by any bank
            // that must first activate a new row.
            let mut group_ready = t;
            for k in 0..in_group {
                let word = pattern.word(start_word, issued + k);
                let bank = self.bank_of(word);
                let row = self.row_of(word);
                if self.open_rows[bank] != Some(row) {
                    row_misses += 1;
                    let lookahead = self.cfg.t_precharge + self.cfg.t_activate;
                    let ready = self.bank_ready[bank];
                    let activate_start = ready.max(t.saturating_sub(lookahead));
                    let activate_end = activate_start + self.cfg.t_precharge + self.cfg.t_activate;
                    self.total_bank_conflicts += u64::from(ready > t);
                    self.open_rows[bank] = Some(row);
                    self.bank_ready[bank] = activate_end;
                    group_ready = group_ready.max(activate_end);
                } else {
                    let ready = self.bank_ready[bank];
                    self.total_bank_conflicts += u64::from(ready > t);
                    group_ready = group_ready.max(ready);
                }
            }
            t = group_ready + 1;
            issued += in_group;
        }
        Ok(self.settle(start_time, t, n_words, per_group, row_misses))
    }

    fn bank_of(&self, word: usize) -> usize {
        if self.cfg.wings > 1 {
            let wing = (word / self.cfg.wing_words) % self.cfg.wings;
            let local = word % self.cfg.wing_words;
            let bpw = self.cfg.banks_per_wing();
            wing * bpw + (local / self.cfg.interleave_words) % bpw
        } else {
            (word / self.cfg.interleave_words) % self.cfg.banks
        }
    }

    fn row_of(&self, word: usize) -> usize {
        if self.cfg.wings > 1 {
            let local = word % self.cfg.wing_words;
            local / (self.cfg.row_words * self.cfg.banks_per_wing())
        } else {
            word / (self.cfg.row_words * self.cfg.banks)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(cfg: DramConfig) -> DramModel {
        DramModel::new(cfg).expect("valid config")
    }

    #[test]
    fn rejects_invalid_configs() {
        let mut cfg = DramConfig::viram_onchip();
        cfg.banks = 0;
        assert!(DramModel::new(cfg).is_err());
        let mut cfg = DramConfig::viram_onchip();
        cfg.row_words = 0;
        assert!(DramModel::new(cfg).is_err());
        let mut cfg = DramConfig::viram_onchip();
        cfg.seq_words_per_cycle = 0;
        assert!(DramModel::new(cfg).is_err());
        let mut cfg = DramConfig::viram_onchip();
        cfg.interleave_words = 0;
        assert!(DramModel::new(cfg).is_err());
    }

    #[test]
    fn zero_words_is_free() {
        let mut d = model(DramConfig::viram_onchip());
        let c = d.transfer(0, 0, AccessPattern::Sequential).unwrap();
        assert_eq!(c.total, Cycles::ZERO);
        assert_eq!(c.row_misses, 0);
    }

    #[test]
    fn zero_stride_is_rejected() {
        let mut d = model(DramConfig::viram_onchip());
        let err = d.transfer(0, 8, AccessPattern::Strided { stride_words: 0 });
        assert!(err.is_err());
    }

    #[test]
    fn sequential_burst_approaches_peak() {
        let mut d = model(DramConfig::viram_onchip());
        let c = d.transfer(0, 32_768, AccessPattern::Sequential).unwrap();
        // 32768 words / 8 per cycle = 4096 data cycles; overhead must be a
        // small fraction because row misses are amortized across banks.
        assert_eq!(c.data, Cycles::new(4_096));
        assert!(c.total.get() < 4_096 * 12 / 10, "total {} too slow", c.total);
    }

    #[test]
    fn strided_is_slower_than_sequential() {
        let mut d = model(DramConfig::viram_onchip());
        let seq = d.transfer(0, 4_096, AccessPattern::Sequential).unwrap();
        d.reset();
        let strided = d.transfer(0, 4_096, AccessPattern::Strided { stride_words: 1_032 }).unwrap();
        assert!(strided.total > seq.total);
    }

    #[test]
    fn open_rows_persist_across_transfers() {
        let mut d = model(DramConfig::viram_onchip());
        // Stride of one interleave unit walks the wing's four banks within
        // row 0: each bank gets opened once.
        let first = d.transfer(0, 8, AccessPattern::Strided { stride_words: 8 }).unwrap();
        // Revisiting the same rows (offset within the open row) is free.
        let second = d.transfer(1, 8, AccessPattern::Strided { stride_words: 8 }).unwrap();
        assert_eq!(first.row_misses, 4);
        assert_eq!(second.row_misses, 0);
        assert!(second.total <= first.total);
    }

    #[test]
    fn reset_closes_rows() {
        let mut d = model(DramConfig::viram_onchip());
        let first = d.transfer(0, 64, AccessPattern::Sequential).unwrap();
        d.reset();
        let again = d.transfer(0, 64, AccessPattern::Sequential).unwrap();
        assert_eq!(first.row_misses, again.row_misses);
        assert_eq!(d.row_misses(), again.row_misses);
    }

    #[test]
    fn idle_lets_precharge_complete() {
        let mut d = model(DramConfig::viram_onchip());
        let _ = d.transfer(0, 8, AccessPattern::Sequential).unwrap();
        // After a long idle period, bank-ready times are in the past, so a
        // row miss costs only the activate latency, not queueing.
        d.idle(Cycles::new(10_000));
        let c = d.transfer(1 << 20, 8, AccessPattern::Sequential).unwrap();
        assert!(
            c.total.get()
                <= 1 + d.config().t_startup + d.config().t_precharge + d.config().t_activate
        );
    }

    #[test]
    fn monotone_in_words() {
        // More words never cost fewer cycles (fresh model each time so
        // open-row state does not interfere).
        let mut prev = Cycles::ZERO;
        for n in [0usize, 1, 7, 8, 64, 512, 4096] {
            let mut d = model(DramConfig::imagine_offchip());
            let c = d.transfer(0, n, AccessPattern::Sequential).unwrap();
            assert!(c.total >= prev, "{n} words regressed");
            prev = c.total;
        }
    }

    #[test]
    fn cost_combine_sums_fields() {
        let a = DramCost {
            total: Cycles::new(10),
            data: Cycles::new(6),
            overhead: Cycles::new(2),
            startup: Cycles::new(2),
            row_misses: 1,
        };
        let b = a;
        let c = a.combine(b);
        assert_eq!(c.total, Cycles::new(20));
        assert_eq!(c.row_misses, 2);
    }

    #[test]
    fn export_metrics_mirrors_accessors() {
        let mut d = model(DramConfig::viram_onchip());
        // Stride of one full row group: every access lands in the *same*
        // bank but a *new* row, so back-to-back activates pile up on the
        // bank and register as conflicts.
        let c = d.transfer(0, 64, AccessPattern::Strided { stride_words: 8_192 }).unwrap();
        assert_eq!(d.row_misses(), c.row_misses);
        assert_eq!(d.words_transferred(), 64);
        assert_eq!(d.busy_cycles(), c.total.get());
        assert!(d.bank_conflicts() > 0);

        let mut report = MetricsReport::new();
        d.export_metrics(&mut report, "test.dram");
        assert_eq!(report.counter_value("test.dram.row_misses"), Some(d.row_misses()));
        assert_eq!(report.counter_value("test.dram.bank_conflicts"), Some(d.bank_conflicts()));
        assert_eq!(report.counter_value("test.dram.words"), Some(64));
        assert_eq!(report.counter_value("test.dram.busy_cycles"), Some(d.busy_cycles()));

        d.reset();
        assert_eq!(d.bank_conflicts(), 0);
        assert_eq!(d.words_transferred(), 0);
        assert_eq!(d.busy_cycles(), 0);
    }

    #[test]
    fn presets_are_valid() {
        for cfg in [
            DramConfig::viram_onchip(),
            DramConfig::imagine_offchip(),
            DramConfig::raw_offchip(),
            DramConfig::ppc_offchip(),
        ] {
            assert!(DramModel::new(cfg).is_ok());
        }
    }
}

#[cfg(test)]
mod chunked_tests {
    use super::*;

    #[test]
    fn chunked_walks_blocks_with_stride() {
        let mut d = DramModel::new(DramConfig::imagine_offchip()).unwrap();
        let c = d
            .transfer(0, 64, AccessPattern::Chunked { chunk_words: 8, stride_words: 1032 })
            .unwrap();
        // 8 chunks of 8 words; data rate is the sequential rate.
        assert_eq!(c.data.get(), 32);
        assert!(c.total >= c.data);
        // Degenerate chunk parameters are rejected.
        assert!(d
            .transfer(0, 8, AccessPattern::Chunked { chunk_words: 0, stride_words: 8 })
            .is_err());
        assert!(d
            .transfer(0, 8, AccessPattern::Chunked { chunk_words: 8, stride_words: 0 })
            .is_err());
    }

    #[test]
    fn chunked_with_unit_stride_equals_sequential_addresses() {
        let mut a = DramModel::new(DramConfig::imagine_offchip()).unwrap();
        let mut b = DramModel::new(DramConfig::imagine_offchip()).unwrap();
        let ca =
            a.transfer(0, 128, AccessPattern::Chunked { chunk_words: 8, stride_words: 8 }).unwrap();
        let cb = b.transfer(0, 128, AccessPattern::Sequential).unwrap();
        assert_eq!(ca.row_misses, cb.row_misses);
        assert_eq!(ca.total, cb.total);
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use proptest::prelude::*;

    impl DramModel {
        /// Everything a transfer can change: open rows, bank-ready times,
        /// the clock and the four counters.
        fn state(&self) -> (&[Option<usize>], &[u64], u64, [u64; 4]) {
            let counters = [
                self.total_row_misses,
                self.total_bank_conflicts,
                self.total_words,
                self.total_busy,
            ];
            (&self.open_rows, &self.bank_ready, self.now, counters)
        }
    }

    /// One of the four presets, or a random geometry whose bank counts,
    /// interleave, row and wing sizes are mostly not powers of two.
    fn config(
        preset: usize,
        (wings, banks_per_wing, interleave_words, row_words, wing_words): (
            usize,
            usize,
            usize,
            usize,
            usize,
        ),
        (seq_words_per_cycle, strided_words_per_cycle, t_precharge, t_activate, t_startup): (
            u32,
            u32,
            u64,
            u64,
            u64,
        ),
    ) -> DramConfig {
        match preset {
            0 => DramConfig::viram_onchip(),
            1 => DramConfig::imagine_offchip(),
            2 => DramConfig::raw_offchip(),
            3 => DramConfig::ppc_offchip(),
            _ => DramConfig {
                banks: wings * banks_per_wing,
                row_words,
                interleave_words,
                t_precharge,
                t_activate,
                t_startup,
                seq_words_per_cycle,
                strided_words_per_cycle,
                wings,
                wing_words,
            },
        }
    }

    /// The transfer a drawn step stands for, or `None` for an idle gap.
    /// Starts cluster around four bases, two of them past 2^32, so later
    /// transfers revisit rows that earlier ones opened.
    fn transfer_of(
        kind: usize,
        base: usize,
        offset: usize,
        n: usize,
        stride: usize,
        chunk: usize,
    ) -> Option<(usize, usize, AccessPattern)> {
        use AccessPattern::{Chunked, Sequential, Strided};
        const BASES: [usize; 4] = [0, (1 << 32) - 9_000, 3 << 32, (1 << 41) + 5];
        let start = BASES[base] + offset;
        Some(match kind {
            0 => (start, n, Sequential),
            1 => (start, n, Strided { stride_words: stride }),
            2 => (start, n, Chunked { chunk_words: chunk, stride_words: stride }),
            // VIRAM's corner-turn loads.
            3 => (start, 7, Strided { stride_words: 1_032 }),
            // Raw's corner-turn rows.
            4 => (start, 64 * (1 + n % 8), Chunked { chunk_words: 64, stride_words: 1_032 }),
            // Imagine's corner-turn output blocks and input reads.
            5 => (start, n, Chunked { chunk_words: 16, stride_words: stride.max(16) }),
            6 => (start, 16_384, Sequential),
            // Strides shorter than an interleave unit.
            7 => (start, n, Strided { stride_words: 1 + stride % 12 }),
            _ => return None,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The run-wise walk and the per-word oracle agree on every
        /// transfer's cost and on the model's whole state after it,
        /// across sequences of transfers interleaved with idle gaps.
        #[test]
        fn run_walk_matches_the_per_word_oracle(
            preset in 0usize..8,
            geometry in (1usize..=3, 1usize..=6, 1usize..=12, 1usize..=40, 1usize..=3_000),
            timing in (1u32..=30, 1u32..=16, 0u64..=25, 0u64..=25, 0u64..=60),
            steps in proptest::collection::vec(
                (0usize..10, 0usize..4, 0usize..20_000, 0usize..=600, 1usize..=2_100, 1usize..=70),
                1..=12,
            ),
        ) {
            let cfg = config(preset, geometry, timing);
            let mut walk = DramModel::new(cfg).unwrap();
            let mut oracle = walk.clone();
            for (i, &(kind, base, offset, n, stride, chunk)) in steps.iter().enumerate() {
                match transfer_of(kind, base, offset, n, stride, chunk) {
                    Some((start, n, pattern)) => {
                        let got = walk.transfer(start, n, pattern);
                        let want = oracle.transfer_per_word(start, n, pattern);
                        prop_assert_eq!(
                            got,
                            want,
                            "step {i}: {n} words at {start} as {pattern:?} on {cfg:?}"
                        );
                    }
                    None => {
                        let gap = Cycles::new((offset % 500) as u64);
                        walk.idle(gap);
                        oracle.idle(gap);
                    }
                }
                prop_assert_eq!(walk.state(), oracle.state(), "state after step {i} on {cfg:?}");
            }
        }
    }

    #[test]
    fn transfers_whose_addresses_wrap_are_refused_before_anything_moves() {
        use AccessPattern::{Chunked, Sequential, Strided};
        let top = usize::MAX;
        let refused = Err(SimError::OutOfBounds { addr: top, size: top });
        for cfg in [DramConfig::viram_onchip(), DramConfig::raw_offchip()] {
            let mut d = DramModel::new(cfg).unwrap();
            d.transfer(1 << 20, 300, Strided { stride_words: 1_032 }).unwrap();
            d.idle(Cycles::new(7));
            let before = d.clone();
            for (start, n, pattern) in [
                (100, 4, Strided { stride_words: top }),
                (100, 3, Chunked { chunk_words: 2, stride_words: top }),
                (top - 3, 8, Sequential),
                (top, 1, Sequential),
            ] {
                assert_eq!(d.transfer(start, n, pattern), refused, "{pattern:?} from {start}");
                assert_eq!(d.state(), before.state(), "{pattern:?} from {start}");
            }
            // The highest word below `usize::MAX` is still in range.
            assert!(d.transfer(top - 4, 4, Sequential).is_ok());
        }
    }

    #[test]
    fn row_stripes_that_overflow_are_refused() {
        let mut cfg = DramConfig::raw_offchip();
        cfg.row_words = usize::MAX / 2;
        assert!(matches!(DramModel::new(cfg), Err(SimError::InvalidConfig { .. })));
    }

    #[test]
    fn refused_patterns_fail_the_one_check() {
        let mut d = DramModel::new(DramConfig::imagine_offchip()).unwrap();
        for pattern in [
            AccessPattern::Strided { stride_words: 0 },
            AccessPattern::Chunked { chunk_words: 0, stride_words: 8 },
            AccessPattern::Chunked { chunk_words: 8, stride_words: 0 },
        ] {
            assert!(matches!(pattern.check(), Err(SimError::InvalidConfig { .. })));
            assert_eq!(d.transfer(0, 0, pattern), pattern.check().map(|()| DramCost::default()));
        }
        assert_eq!(AccessPattern::Sequential.check(), Ok(()));
    }

    #[test]
    fn pattern_words_follow_the_layout() {
        let chunked = AccessPattern::Chunked { chunk_words: 3, stride_words: 10 };
        let words: Vec<usize> = (0..7).map(|i| chunked.word(100, i)).collect();
        assert_eq!(words, [100, 101, 102, 110, 111, 112, 120]);
        assert_eq!(AccessPattern::Strided { stride_words: 5 }.word(1, 3), 16);
        assert_eq!(AccessPattern::Sequential.word(1, 3), 4);
    }

    #[test]
    fn pattern_end_is_one_past_the_highest_word_or_none_past_usize() {
        use AccessPattern::{Chunked, Sequential, Strided};
        // Word offsets, and one past the highest word, in u128, where
        // nothing overflows.
        let wide_word = |pattern: AccessPattern, i: u128| match pattern {
            Sequential => i,
            Strided { stride_words } => i * stride_words as u128,
            Chunked { chunk_words, stride_words } => {
                let chunk = chunk_words as u128;
                (i / chunk) * stride_words as u128 + i % chunk
            }
        };
        let wide_end = |pattern: AccessPattern, base: usize, n: usize| -> u128 {
            let highest = (0..n as u128).map(|i| wide_word(pattern, i)).max();
            base as u128 + highest.map_or(0, |w| w + 1)
        };
        let top = usize::MAX;
        let patterns = [
            Sequential,
            Strided { stride_words: 1 },
            Strided { stride_words: 3 },
            Strided { stride_words: top / 2 },
            Strided { stride_words: top },
            Chunked { chunk_words: 3, stride_words: 5 },
            // Overlapping chunks: the highest word is not the last one.
            Chunked { chunk_words: 4, stride_words: 2 },
            Chunked { chunk_words: 8, stride_words: 1 },
            Chunked { chunk_words: 5, stride_words: top / 3 },
            Chunked { chunk_words: 2, stride_words: top },
        ];
        for pattern in patterns {
            for base in [0, 1, 100, top / 2, top - 40, top - 1, top] {
                for n in 0..12 {
                    let want = wide_end(pattern, base, n);
                    let want = usize::try_from(want).ok();
                    assert_eq!(pattern.end(base, n), want, "{pattern:?} from {base}, {n} words");
                    let word = usize::try_from(base as u128 + wide_word(pattern, n as u128)).ok();
                    assert_eq!(
                        pattern.checked_word(base, n),
                        word,
                        "{pattern:?} from {base}, word {n}"
                    );
                }
            }
        }
        assert_eq!(Chunked { chunk_words: 0, stride_words: 8 }.end(0, 4), None);
        assert_eq!(Chunked { chunk_words: 0, stride_words: 8 }.checked_word(0, 4), None);
    }
}
