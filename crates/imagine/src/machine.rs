//! The Imagine execution engine: SRF, memory streams, and cluster kernels.

use triarch_simcore::faults::{FaultDomain, FaultHook, NoFaults};
use triarch_simcore::metrics::{Histogram, Metric, MetricsReport};
use triarch_simcore::trace::{NullSink, TraceSink};
use triarch_simcore::{
    AccessPattern, CycleBudget, Cycles, DramModel, KernelRun, Residue, RunAccount, SimError,
    WordMemory,
};

use crate::config::ImagineConfig;

/// Trace track for the stream/memory system.
const TRACK_MEM: &str = "imagine.mem";
/// Trace track for cluster (kernel) execution.
const TRACK_CLUSTER: &str = "imagine.cluster";
/// Trace track for the off-chip DRAM cost decomposition.
const TRACK_DRAM: &str = "imagine.dram";

/// Per-unit-class operation totals for one kernel invocation, summed over
/// all stream elements (the machine divides across clusters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterOps {
    /// Additions/subtractions (3 adders per cluster).
    pub adds: u64,
    /// Multiplications (2 multipliers per cluster).
    pub muls: u64,
    /// Divisions (1 divider per cluster).
    pub divs: u64,
    /// Inter-cluster communication words (1 comm port per cluster).
    pub comms: u64,
}

impl ClusterOps {
    /// Sum of arithmetic operations (excludes communication).
    #[must_use]
    pub fn arithmetic(&self) -> u64 {
        self.adds + self.muls + self.divs
    }

    /// Component-wise sum.
    #[must_use]
    pub fn plus(self, other: ClusterOps) -> ClusterOps {
        ClusterOps {
            adds: self.adds + other.adds,
            muls: self.muls + other.muls,
            divs: self.divs + other.divs,
            comms: self.comms + other.comms,
        }
    }
}

/// A range of SRF words returned by [`ImagineMachine::srf_alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrfRange {
    /// First word of the range.
    pub start: usize,
    /// Length in words.
    pub len: usize,
}

/// The Imagine machine state: off-chip DRAM, SRF, clusters, accounting.
///
/// Generic over a [`TraceSink`] and a [`FaultHook`]; the defaults
/// ([`NullSink`], [`NoFaults`]) are statically dispatched, disabled, and
/// empty, so an untraced, unfaulted machine pays nothing for either kind
/// of instrumentation.
#[derive(Debug, Clone)]
pub struct ImagineMachine<S: TraceSink = NullSink, F: FaultHook = NoFaults> {
    cfg: ImagineConfig,
    dram: DramModel,
    mem: WordMemory,
    srf: WordMemory,
    srf_next: usize,
    /// High-water mark of SRF allocation across the whole run (words).
    srf_peak: usize,
    /// Fixed-bucket histogram of per-stream DRAM occupancy cycles.
    mem_hist: Histogram,
    account: RunAccount<S>,
    faults: F,
}

impl ImagineMachine<NullSink, NoFaults> {
    /// Builds an untraced, unfaulted machine with an unlimited budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn new(cfg: &ImagineConfig) -> Result<Self, SimError> {
        Self::with_hooks(cfg, NullSink, NoFaults, CycleBudget::UNLIMITED)
    }
}

impl<S: TraceSink, F: FaultHook> ImagineMachine<S, F> {
    /// Builds a machine with a trace sink, a fault hook and a watchdog
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn with_hooks(
        cfg: &ImagineConfig,
        sink: S,
        faults: F,
        budget: CycleBudget,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(ImagineMachine {
            dram: DramModel::new(cfg.dram)?,
            mem: WordMemory::new(cfg.mem_words),
            srf: WordMemory::new(cfg.srf_words),
            srf_next: 0,
            srf_peak: 0,
            mem_hist: Histogram::cycles(),
            account: RunAccount::new("imagine", sink, budget).hiding(),
            cfg: cfg.clone(),
            faults,
        })
    }

    /// Off-chip memory for workload setup and result extraction.
    pub fn memory_mut(&mut self) -> &mut WordMemory {
        &mut self.mem
    }

    /// Immutable off-chip memory view.
    #[must_use]
    pub fn memory(&self) -> &WordMemory {
        &self.mem
    }

    /// SRF contents (for kernels operating in place).
    #[must_use]
    pub fn srf(&self) -> &WordMemory {
        &self.srf
    }

    /// Mutable SRF contents.
    pub fn srf_mut(&mut self) -> &mut WordMemory {
        &mut self.srf
    }

    /// Allocates `words` of SRF, aligned up to the 128-byte block size.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Capacity`] when the SRF is exhausted.
    pub fn srf_alloc(&mut self, words: usize) -> Result<SrfRange, SimError> {
        let block = self.cfg.srf_block_words;
        let len = words.div_ceil(block) * block;
        if self.srf_next + len > self.cfg.srf_words {
            return Err(SimError::capacity(
                "stream register file",
                self.srf_next + len,
                self.cfg.srf_words,
            ));
        }
        let range = SrfRange { start: self.srf_next, len };
        self.srf_next += len;
        self.srf_peak = self.srf_peak.max(self.srf_next);
        Ok(range)
    }

    /// Releases all SRF allocations (between double-buffered phases).
    pub fn srf_reset(&mut self) {
        self.srf_next = 0;
    }

    /// Declares the peak number of concurrently-active streams in the
    /// upcoming phase; the hardware holds only `stream_descriptors`
    /// stream descriptor registers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Capacity`] when `concurrent` exceeds the
    /// machine's descriptor count.
    pub fn declare_streams(&self, concurrent: usize) -> Result<(), SimError> {
        if concurrent > self.cfg.stream_descriptors {
            return Err(SimError::capacity(
                "stream descriptor registers",
                concurrent,
                self.cfg.stream_descriptors,
            ));
        }
        Ok(())
    }

    /// Opens a stream/kernel overlap region.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if one is already open.
    pub fn begin_overlap(&mut self) -> Result<(), SimError> {
        self.account.begin_region(TRACK_MEM, TRACK_CLUSTER)
    }

    /// Closes the overlap region. The slower side is charged in full; a
    /// `descriptor_penalty` fraction of the faster side remains visible as
    /// `"unoverlapped"` (the stream-descriptor-register limit), and the
    /// rest is hidden.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if no region is open.
    pub fn end_overlap(&mut self) -> Result<(), SimError> {
        let fraction = self.cfg.descriptor_penalty;
        self.account.end_region(Some(Residue { fraction, name: "descriptor-limit-residue" }))
    }

    /// Streams `len` words from off-chip memory into the SRF.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on out-of-bounds addresses or a bad pattern;
    /// a refused stream moves no word and charges nothing.
    pub fn stream_in(
        &mut self,
        mem_addr: usize,
        dst: SrfRange,
        len: usize,
        pattern: AccessPattern,
    ) -> Result<(), SimError> {
        pattern.check()?;
        if len > dst.len {
            return Err(SimError::capacity("srf stream range", len, dst.len));
        }
        self.check_stream(pattern, mem_addr, dst.start, len, true)?;
        match block_runs(pattern, len) {
            Some((chunk, stride)) => {
                for (c, at) in (0..len).step_by(chunk).enumerate() {
                    let n = chunk.min(len - at);
                    self.srf.copy_from(dst.start + at, &self.mem, mem_addr + c * stride, n)?;
                }
            }
            None => {
                for i in 0..len {
                    let a = pattern.word(mem_addr, i);
                    let v = self.mem.read_u32(a)?;
                    self.srf.write_u32(dst.start + i, v)?;
                }
            }
        }
        self.charge_stream(mem_addr, len, pattern, "stream-in")?;
        if self.faults.is_enabled() {
            // Words arriving over the DRAM interface: flips corrupt the SRF
            // copy (the data in flight), not the off-chip original.
            let fx = self.faults.transfer(FaultDomain::Dram, mem_addr, len);
            for flip in &fx.flips {
                let a = dst.start + flip.offset;
                let word = self.srf.read_u32(a)?;
                self.srf.write_u32(a, word ^ flip.xor_mask)?;
            }
            self.account.charge_faults(TRACK_MEM, "dram-retry", &fx)?;
        }
        self.account.check()
    }

    /// Streams `len` words from the SRF out to off-chip memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on out-of-bounds addresses or a bad pattern;
    /// a refused stream moves no word and charges nothing.
    pub fn stream_out(
        &mut self,
        src: SrfRange,
        mem_addr: usize,
        len: usize,
        pattern: AccessPattern,
    ) -> Result<(), SimError> {
        pattern.check()?;
        if len > src.len {
            return Err(SimError::capacity("srf stream range", len, src.len));
        }
        self.check_stream(pattern, mem_addr, src.start, len, false)?;
        // An active stuck-at fault in a cluster's output port corrupts
        // every `clusters`-th word it emits into the outgoing stream.
        let stuck =
            if self.faults.is_enabled() { self.faults.stuck(FaultDomain::Cluster) } else { None };
        let clusters = self.cfg.clusters.max(1);
        match block_runs(pattern, len) {
            Some((chunk, stride)) => {
                for (c, at) in (0..len).step_by(chunk).enumerate() {
                    let n = chunk.min(len - at);
                    let base = mem_addr + c * stride;
                    self.mem.copy_from(base, &self.srf, src.start + at, n)?;
                    // Force the run's stuck-lane words before a later,
                    // overlapping run can overwrite them, as the word
                    // loop's order does.
                    if let Some(fault) = stuck {
                        let lane = fault.index % clusters;
                        for i in (at..at + n).filter(|i| i % clusters == lane) {
                            let a = base + (i - at);
                            let word = self.mem.read_u32(a)?;
                            self.mem.write_u32(a, fault.force(word))?;
                        }
                    }
                }
            }
            None => {
                for i in 0..len {
                    let mut v = self.srf.read_u32(src.start + i)?;
                    if let Some(fault) = stuck {
                        if i % clusters == fault.index % clusters {
                            v = fault.force(v);
                        }
                    }
                    let a = pattern.word(mem_addr, i);
                    self.mem.write_u32(a, v)?;
                }
            }
        }
        self.charge_stream(mem_addr, len, pattern, "stream-out")?;
        if self.faults.is_enabled() {
            // Words leaving over the DRAM interface: flips corrupt the
            // off-chip destination.
            let fx = self.faults.transfer(FaultDomain::Dram, mem_addr, len);
            for flip in &fx.flips {
                let a = pattern.word(mem_addr, flip.offset);
                let word = self.mem.read_u32(a)?;
                self.mem.write_u32(a, word ^ flip.xor_mask)?;
            }
            self.account.charge_faults(TRACK_MEM, "dram-retry", &fx)?;
        }
        self.account.check()
    }

    /// Refuses a stream of `len` words unless every one lies in memory
    /// and in the SRF, before any word moves. The error names the first
    /// word out of range in the order the word loop meets them: word by
    /// word, memory before SRF for a stream in (`incoming`) and SRF before
    /// memory for a stream out, with an address past `usize::MAX` named
    /// as `usize::MAX`.
    fn check_stream(
        &self,
        pattern: AccessPattern,
        mem_addr: usize,
        srf_start: usize,
        len: usize,
        incoming: bool,
    ) -> Result<(), SimError> {
        let (mem_len, srf_len) = (self.mem.len(), self.srf.len());
        let mem_fits = pattern.end(mem_addr, len).is_some_and(|end| end <= mem_len);
        let srf_fits = srf_start.checked_add(len).is_some_and(|end| end <= srf_len);
        if mem_fits && srf_fits {
            return Ok(());
        }
        let out_of = |addr: Option<usize>, size: usize| {
            let addr = addr.unwrap_or(usize::MAX);
            (addr >= size).then_some(SimError::OutOfBounds { addr, size })
        };
        let first = (0..len).find_map(|i| {
            let mem = out_of(pattern.checked_word(mem_addr, i), mem_len);
            let srf = out_of(srf_start.checked_add(i), srf_len);
            if incoming {
                mem.or(srf)
            } else {
                srf.or(mem)
            }
        });
        first.map_or(Ok(()), Err)
    }

    /// Charges a stream's DRAM transfer on the memory side.
    fn charge_stream(
        &mut self,
        mem_addr: usize,
        len: usize,
        pattern: AccessPattern,
        name: &'static str,
    ) -> Result<(), SimError> {
        let cursor = self.account.mem_cursor();
        let sink = self.account.sink();
        let cost = self.dram.transfer_observed(mem_addr, len, pattern, sink, TRACK_DRAM, cursor)?;
        self.mem_hist.observe(cost.total.get());
        self.account.add_words(len as u64);
        self.account.charge(TRACK_MEM, "memory", name, cost.data + cost.startup);
        self.account.charge(TRACK_MEM, "precharge", "row-precharge-activate", cost.overhead);
        Ok(())
    }

    /// Charges one kernel invocation: the inner loop retires at the
    /// initiation interval of the busiest unit class (ops are totals over
    /// all elements and are divided across the clusters), plus the
    /// software-pipeline prologue.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`], charging nothing, for a division
    /// on a machine with no dividers, and [`SimError::BudgetExceeded`]
    /// once the watchdog budget is exhausted.
    pub fn kernel_exec(&mut self, ops: ClusterOps) -> Result<(), SimError> {
        if ops.divs > 0 && self.cfg.dividers == 0 {
            return Err(SimError::unsupported(
                "a kernel that divides, on clusters with no divider",
            ));
        }
        let c = self.cfg.clusters as u64;
        let add_cycles = ops.adds.div_ceil(c * self.cfg.adders as u64);
        let mul_cycles = ops.muls.div_ceil(c * self.cfg.multipliers as u64);
        let div_cycles = ops.divs.div_ceil(c * (self.cfg.dividers as u64).max(1));
        let comm_cycles = ops.comms.div_ceil(c);
        let loop_cycles = add_cycles.max(mul_cycles).max(div_cycles);
        // Communication shares the VLIW schedule, but data-exchange
        // dependencies keep a fraction of it exposed even when the
        // arithmetic bound could hide it.
        let comm_exposed = (comm_cycles as f64 * self.cfg.comm_exposure).ceil() as u64;
        let comm_extra = comm_cycles.saturating_sub(loop_cycles).max(comm_exposed.min(comm_cycles));
        self.account.add_ops(ops.arithmetic());
        let account = &mut self.account;
        account.charge(TRACK_CLUSTER, "kernel", "kernel-loop", Cycles::new(loop_cycles));
        account.charge(TRACK_CLUSTER, "comm", "comm-exposed", Cycles::new(comm_extra));
        let prologue = Cycles::new(self.cfg.kernel_startup);
        account.charge(TRACK_CLUSTER, "prologue", "sw-pipeline-prologue", prologue);
        account.check()
    }

    /// Total cycles charged so far.
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        self.account.cycles()
    }

    /// Consumes the machine into its [`KernelRun`] (see
    /// [`RunAccount::finish`]): the program returns its output beside the
    /// run, and the blanket `SignalMachine` impl checks it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if an overlap region is open.
    pub fn finish(self) -> Result<KernelRun, SimError> {
        let mut metrics = MetricsReport::new();
        self.dram.export_metrics(&mut metrics, "imagine.dram");
        metrics.ratio("imagine.srf.occupancy", self.srf_peak as u64, self.cfg.srf_words as u64);
        metrics.counter("imagine.srf.peak_words", self.srf_peak as u64);
        metrics.set("imagine.mem.xfer_cycles", Metric::Histogram(self.mem_hist));
        self.account.finish(metrics)
    }
}

/// `(chunk, stride)` of a `len`-word stream's stretches of consecutive
/// memory addresses — one stretch for a sequential stream, one per chunk
/// for a chunked one — or `None` for a strided stream, whose stretches
/// are single words and move word by word.
fn block_runs(pattern: AccessPattern, len: usize) -> Option<(usize, usize)> {
    match pattern {
        AccessPattern::Sequential => Some((len.max(1), len.max(1))),
        AccessPattern::Chunked { chunk_words, stride_words } => Some((chunk_words, stride_words)),
        AccessPattern::Strided { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_simcore::faults::{StuckFault, TransferFaults};

    fn machine() -> ImagineMachine {
        ImagineMachine::new(&ImagineConfig::paper()).unwrap()
    }

    #[test]
    fn srf_allocation_is_block_aligned() {
        let mut m = machine();
        let a = m.srf_alloc(5).unwrap();
        assert_eq!(a.start, 0);
        assert_eq!(a.len, 32); // rounded to one 128-byte block
        let b = m.srf_alloc(33).unwrap();
        assert_eq!(b.start, 32);
        assert_eq!(b.len, 64);
        m.srf_reset();
        assert_eq!(m.srf_alloc(1).unwrap().start, 0);
    }

    #[test]
    fn srf_overflow_is_capacity_error() {
        let mut m = machine();
        let err = m.srf_alloc(1024 * 1024).unwrap_err();
        assert!(matches!(err, SimError::Capacity { .. }));
    }

    #[test]
    fn streams_move_real_data() {
        let mut m = machine();
        m.memory_mut().write_block_u32(100, &[1, 2, 3, 4]).unwrap();
        let r = m.srf_alloc(4).unwrap();
        m.stream_in(100, r, 4, AccessPattern::Sequential).unwrap();
        assert_eq!(m.srf().read_block_u32(r.start, 4).unwrap(), vec![1, 2, 3, 4]);
        m.srf_mut().write_u32(r.start, 42).unwrap();
        m.stream_out(r, 200, 4, AccessPattern::Sequential).unwrap();
        assert_eq!(m.memory().read_u32(200).unwrap(), 42);
        assert!(m.cycles() > Cycles::ZERO);
    }

    /// Reports at most one stuck-at fault, on a cluster's output port.
    struct StuckCluster(Option<StuckFault>);

    impl FaultHook for StuckCluster {
        fn transfer(&mut self, _: FaultDomain, _: usize, _: usize) -> TransferFaults {
            TransferFaults::default()
        }

        fn stuck(&mut self, domain: FaultDomain) -> Option<StuckFault> {
            self.0.filter(|_| domain == FaultDomain::Cluster)
        }
    }

    /// The word-by-word rule a stream follows, on flat copies of the two
    /// memories: word `i` moves between `mem[pattern.word(mem_addr, i)]`
    /// and `srf[srf_start + i]`. A stream with a word out of range moves
    /// nothing and fails on the first one, taking each word's memory side
    /// first on the way in and its SRF side first on the way out.
    /// Outgoing words of the stuck cluster lane are forced.
    fn word_rule(
        mem: &mut [u32],
        srf: &mut [u32],
        (mem_addr, srf_start, len, pattern): (usize, usize, usize, AccessPattern),
        outgoing: bool,
        stuck: Option<(usize, StuckFault)>,
    ) -> Result<(), SimError> {
        for i in 0..len {
            let (a, s) = (pattern.word(mem_addr, i), srf_start + i);
            let mem_bad =
                (a >= mem.len()).then_some(SimError::OutOfBounds { addr: a, size: mem.len() });
            let srf_bad =
                (s >= srf.len()).then_some(SimError::OutOfBounds { addr: s, size: srf.len() });
            if let Some(err) = if outgoing { srf_bad.or(mem_bad) } else { mem_bad.or(srf_bad) } {
                return Err(err);
            }
        }
        for i in 0..len {
            let a = pattern.word(mem_addr, i);
            if outgoing {
                mem[a] = match stuck {
                    Some((lanes, f)) if i % lanes == f.index % lanes => f.force(srf[srf_start + i]),
                    _ => srf[srf_start + i],
                };
            } else {
                srf[srf_start + i] = mem[a];
            }
        }
        Ok(())
    }

    #[test]
    fn streams_move_runs_as_the_word_rule_moves_words() {
        let mut cfg = ImagineConfig::paper();
        cfg.mem_words = 5_000;
        cfg.srf_words = 3_000;
        let mem: Vec<u32> = (0..5_000u32).map(|i| i.wrapping_mul(0x9e37_79b9) | 1).collect();
        let srf: Vec<u32> = (0..3_000u32).map(|i| 0x8000_0000 | i).collect();
        let patterns = [
            AccessPattern::Sequential,
            AccessPattern::Chunked { chunk_words: 3, stride_words: 5 },
            // Chunks that overlap: a later one rewrites an earlier one's words.
            AccessPattern::Chunked { chunk_words: 4, stride_words: 2 },
            AccessPattern::Chunked { chunk_words: 8, stride_words: 8 },
            AccessPattern::Chunked { chunk_words: 16, stride_words: 1_030 },
            AccessPattern::Strided { stride_words: 3 },
        ];
        // `(memory address, SRF start, words)`: in range across page
        // boundaries, overrunning the memory, overrunning the SRF,
        // overrunning both at the same word, empty.
        let placements = [
            (1_000, 1_000, 1_100),
            (10, 100, 64),
            (4_990, 0, 40),
            (900, 2_990, 20),
            (4_990, 2_990, 20),
            (0, 0, 0),
        ];
        let faults = [None, Some(StuckFault { index: 13, bit: 3, stuck_one: true })];
        for pattern in patterns {
            for (mem_addr, srf_start, len) in placements {
                for fault in faults {
                    let what = format!("{pattern:?} at {mem_addr}, srf {srf_start}, {len} words");
                    let hook = StuckCluster(fault);
                    let mut m =
                        ImagineMachine::with_hooks(&cfg, NullSink, hook, CycleBudget::UNLIMITED)
                            .unwrap();
                    let range = SrfRange { start: srf_start, len };
                    let run = (mem_addr, srf_start, len, pattern);

                    m.memory_mut().write_block_u32(0, &mem).unwrap();
                    m.srf_mut().write_block_u32(0, &srf).unwrap();
                    let (mut want_mem, mut want_srf) = (mem.clone(), srf.clone());
                    let want = word_rule(&mut want_mem, &mut want_srf, run, false, None);
                    let got = m.stream_in(mem_addr, range, len, pattern);
                    assert_eq!(got, want, "in: {what}");
                    assert_eq!(m.srf().read_block_u32(0, 3_000).unwrap(), want_srf, "in: {what}");

                    m.srf_mut().write_block_u32(0, &srf).unwrap();
                    let (mut want_mem, mut want_srf) = (mem.clone(), srf.clone());
                    let stuck = fault.map(|f| (cfg.clusters, f));
                    let want = word_rule(&mut want_mem, &mut want_srf, run, true, stuck);
                    let got = m.stream_out(range, mem_addr, len, pattern);
                    assert_eq!(got, want, "out: {what}");
                    let memory = m.memory().read_block_u32(0, 5_000).unwrap();
                    assert_eq!(memory, want_mem, "out: {what}");
                }
            }
        }
    }

    #[test]
    fn refused_patterns_move_no_data() {
        let mut m = machine();
        m.memory_mut().write_block_u32(0, &[5, 6, 7, 8]).unwrap();
        let r = m.srf_alloc(4).unwrap();
        m.srf_mut().write_block_u32(r.start, &[1, 2, 3, 4]).unwrap();
        for pattern in [
            AccessPattern::Strided { stride_words: 0 },
            AccessPattern::Chunked { chunk_words: 0, stride_words: 8 },
            AccessPattern::Chunked { chunk_words: 8, stride_words: 0 },
        ] {
            let err = m.stream_in(0, r, 4, pattern).unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig { .. }), "{pattern:?}: {err}");
            let err = m.stream_out(r, 0, 4, pattern).unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig { .. }), "{pattern:?}: {err}");
            assert_eq!(m.memory().read_block_u32(0, 4).unwrap(), vec![5, 6, 7, 8]);
            assert_eq!(m.srf().read_block_u32(r.start, 4).unwrap(), vec![1, 2, 3, 4]);
        }
        assert_eq!(m.cycles(), Cycles::ZERO);
    }

    #[test]
    fn streams_whose_addresses_wrap_are_refused_before_any_word_moves() {
        let mut m = machine();
        let size = m.memory().len();
        let words: Vec<u32> = (1000..1200).collect();
        m.memory_mut().write_block_u32(0, &words).unwrap();
        let r = m.srf_alloc(4).unwrap();
        m.srf_mut().write_block_u32(r.start, &[1, 2, 3, 4]).unwrap();
        // Unchecked, the first wraps to words 100, 99, 98, 97 and the
        // second's third word to 99.
        for pattern in [
            AccessPattern::Strided { stride_words: usize::MAX },
            AccessPattern::Chunked { chunk_words: 2, stride_words: usize::MAX },
        ] {
            let refused = Err(SimError::OutOfBounds { addr: usize::MAX, size });
            assert_eq!(m.stream_in(100, r, 4, pattern), refused, "{pattern:?}");
            assert_eq!(m.stream_out(r, 100, 4, pattern), refused, "{pattern:?}");
            assert_eq!(m.memory().read_block_u32(0, 200).unwrap(), words);
            assert_eq!(m.srf().read_block_u32(r.start, 4).unwrap(), vec![1, 2, 3, 4]);
        }
        assert_eq!(m.cycles(), Cycles::ZERO);
    }

    #[test]
    fn an_overrunning_stream_changes_nothing() {
        // Both runs stream the same words; one also offers streams that
        // overrun the memory or the SRF, which must leave the two
        // memories, the cycles and every counter as they were.
        let mut cfg = ImagineConfig::paper();
        cfg.mem_words = 5_000;
        cfg.srf_words = 3_000;
        let words: Vec<u32> = (0..5_000).collect();
        let run = |overrun: bool| {
            let mut m = ImagineMachine::new(&cfg).unwrap();
            m.memory_mut().write_block_u32(0, &words).unwrap();
            let all = SrfRange { start: 0, len: 3_000 };
            m.stream_in(0, all, 2_000, AccessPattern::Sequential).unwrap();
            if overrun {
                for (mem_addr, start, len, pattern) in [
                    (4_990, 0, 40, AccessPattern::Sequential),
                    (0, 2_990, 20, AccessPattern::Sequential),
                    (4_000, 0, 100, AccessPattern::Strided { stride_words: 11 }),
                    (
                        2_000,
                        100,
                        64,
                        AccessPattern::Chunked { chunk_words: 16, stride_words: 1_030 },
                    ),
                ] {
                    let range = SrfRange { start, len };
                    let what = format!("{pattern:?} at {mem_addr}, srf {start}, {len} words");
                    assert!(m.stream_in(mem_addr, range, len, pattern).is_err(), "in: {what}");
                    assert!(m.stream_out(range, mem_addr, len, pattern).is_err(), "out: {what}");
                }
            }
            m.stream_out(all, 1_000, 3_000, AccessPattern::Sequential).unwrap();
            let mem = m.memory().read_block_u32(0, 5_000).unwrap();
            let srf = m.srf().read_block_u32(0, 3_000).unwrap();
            (mem, srf, m.finish().unwrap())
        };
        let (refused, plain) = (run(true), run(false));
        assert_eq!(refused.0, plain.0);
        assert_eq!(refused.1, plain.1);
        let (refused, plain) = (refused.2, plain.2);
        assert_eq!(refused.cycles, plain.cycles);
        assert_eq!(refused.breakdown, plain.breakdown);
        assert_eq!(refused.metrics, plain.metrics);
        assert_eq!(
            (refused.ops_executed, refused.mem_words),
            (plain.ops_executed, plain.mem_words)
        );
    }

    /// The breakdown of one kernel invocation on a fresh paper machine.
    fn kernel_breakdown(ops: ClusterOps) -> triarch_simcore::CycleBreakdown {
        let mut m = machine();
        m.kernel_exec(ops).unwrap();
        m.finish().unwrap().breakdown
    }

    #[test]
    fn kernel_exec_uses_busiest_unit() {
        // 4800 adds over 8 clusters x 3 adders = 200 cycles.
        let b = kernel_breakdown(ClusterOps { adds: 4_800, ..Default::default() });
        assert_eq!(b.get("kernel").get(), 200);
        // 4800 muls over 8 clusters x 2 multipliers = 300 cycles.
        let b = kernel_breakdown(ClusterOps { muls: 4_800, ..Default::default() });
        assert_eq!(b.get("kernel").get(), 300);
        // Communication beyond the arithmetic bound shows separately.
        let b = kernel_breakdown(ClusterOps { adds: 240, comms: 800, ..Default::default() });
        assert_eq!(b.get("kernel").get(), 10);
        assert_eq!(b.get("comm").get(), 90);
    }

    #[test]
    fn a_division_without_dividers_is_refused_before_anything_is_charged() {
        let mut cfg = ImagineConfig::paper();
        cfg.dividers = 0;
        let budget = CycleBudget::limited(1_000_000);
        let run = |divide: bool| {
            let mut m = ImagineMachine::with_hooks(&cfg, NullSink, NoFaults, budget).unwrap();
            m.kernel_exec(ClusterOps { adds: 96, ..Default::default() }).unwrap();
            let before = m.cycles();
            if divide {
                let err = m.kernel_exec(ClusterOps { divs: 1, ..Default::default() }).unwrap_err();
                assert!(matches!(err, SimError::Unsupported { .. }), "{err}");
                assert_eq!(m.cycles(), before);
            }
            m.kernel_exec(ClusterOps { muls: 16, ..Default::default() }).unwrap();
            m.finish().unwrap()
        };
        let (refused, plain) = (run(true), run(false));
        assert_eq!(refused.cycles, plain.cycles);
        assert_eq!(refused.breakdown, plain.breakdown);
        assert_eq!(refused.metrics, plain.metrics);
        assert_eq!(refused.ops_executed, plain.ops_executed);
    }

    #[test]
    fn finish_carries_metrics() {
        let mut m = machine();
        m.memory_mut().write_block_u32(0, &[7; 64]).unwrap();
        let r = m.srf_alloc(64).unwrap();
        m.stream_in(0, r, 64, AccessPattern::Sequential).unwrap();
        m.kernel_exec(ClusterOps { adds: 64, ..Default::default() }).unwrap();
        let run = m.finish().unwrap();
        assert_eq!(run.metrics.counter_sum("imagine.cycles."), run.cycles.get());
        assert_eq!(run.metrics.counter_value("imagine.srf.peak_words"), Some(64));
        assert!(run.metrics.get("imagine.srf.occupancy").is_some());
        assert!(run.metrics.get("imagine.dram.achieved_bw").is_some());
        assert!(run.metrics.get("imagine.mem.xfer_cycles").is_some());
    }

    #[test]
    fn overlap_leaves_descriptor_penalty_visible() {
        let mut m = machine();
        m.begin_overlap().unwrap();
        m.memory_mut().write_block_u32(0, &[0; 256]).unwrap();
        let r = m.srf_alloc(256).unwrap();
        m.stream_in(0, r, 256, AccessPattern::Sequential).unwrap();
        m.kernel_exec(ClusterOps { adds: 48, ..Default::default() }).unwrap();
        m.end_overlap().unwrap();
        // Memory dominates; a fraction of the kernel remains visible.
        let run = m.finish().unwrap();
        assert!(run.breakdown.get("unoverlapped") > Cycles::ZERO);
        let hidden = run.metrics.counter_value("imagine.run.hidden_cycles");
        assert!(hidden > Some(0) || ImagineConfig::paper().descriptor_penalty == 1.0);
    }

    #[test]
    fn overlap_misuse_is_error() {
        let mut m = machine();
        assert!(m.end_overlap().is_err());
        m.begin_overlap().unwrap();
        assert!(m.begin_overlap().is_err());
        assert!(m.clone().finish().is_err());
    }

    #[test]
    fn stream_range_too_small_is_error() {
        let mut m = machine();
        let r = m.srf_alloc(8).unwrap();
        assert!(m.stream_in(0, r, 64, AccessPattern::Sequential).is_err());
    }

    #[test]
    fn stream_descriptor_limit_is_enforced() {
        let m = machine();
        assert!(m.declare_streams(8).is_ok());
        let err = m.declare_streams(9).unwrap_err();
        assert!(matches!(err, SimError::Capacity { .. }));
        // A config with fewer descriptors rejects the paper's CSLC
        // concurrency (4 windows + 4 weight vectors).
        let mut cfg = ImagineConfig::paper();
        cfg.stream_descriptors = 4;
        let m = ImagineMachine::new(&cfg).unwrap();
        assert!(m.declare_streams(8).is_err());
    }
}
