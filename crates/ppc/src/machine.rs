//! Timing accumulator for the G4 baseline: superscalar issue plus
//! trace-driven cache stalls.

use std::ops::Range;

use triarch_simcore::faults::{FaultDomain, FaultHook, NoFaults};
use triarch_simcore::metrics::MetricsReport;
use triarch_simcore::trace::{NullSink, TraceSink};
use triarch_simcore::{CycleBudget, Cycles, KernelRun, RunAccount, SimError};

use crate::cache::{Block, Hierarchy};
use crate::config::PpcConfig;

/// Trace track for the scalar/vector core.
const TRACK_CORE: &str = "ppc.core";

/// Accumulates instruction counts and cache stalls for one kernel run.
///
/// Generic over a [`TraceSink`]; the default [`NullSink`] is statically
/// dispatched, disabled, and empty, so an untraced machine pays nothing
/// for the instrumentation. The G4 model is counter-based — cycles are
/// only attributable once the run completes — so the counted spans that
/// tile the breakdown are emitted at [`PpcMachine::finish`], with
/// periodic counter samples along the way.
#[derive(Debug, Clone)]
pub struct PpcMachine<S: TraceSink = NullSink, F: FaultHook = NoFaults> {
    cfg: PpcConfig,
    hier: Hierarchy,
    instrs: u64,
    serial_cycles: u64,
    trig_calls: u64,
    load_stall: u64,
    store_stall: u64,
    ecc_stall: u64,
    retry_stall: u64,
    /// Charged only at [`finish`](Self::finish); until then it carries the
    /// sink, the budget, and the operation and word counts.
    account: RunAccount<S>,
    faults: F,
}

impl PpcMachine<NullSink, NoFaults> {
    /// Builds an untraced, unfaulted machine with an unlimited budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn new(cfg: &PpcConfig) -> Result<Self, SimError> {
        Self::with_hooks(cfg, NullSink, NoFaults, CycleBudget::UNLIMITED)
    }
}

impl<S: TraceSink, F: FaultHook> PpcMachine<S, F> {
    /// Builds a machine with a trace sink, a fault hook and a watchdog
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn with_hooks(
        cfg: &PpcConfig,
        sink: S,
        faults: F,
        budget: CycleBudget,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(PpcMachine {
            cfg: cfg.clone(),
            hier: Hierarchy::from_config(cfg.l1, cfg.l2),
            instrs: 0,
            serial_cycles: 0,
            trig_calls: 0,
            load_stall: 0,
            store_stall: 0,
            ecc_stall: 0,
            retry_stall: 0,
            account: RunAccount::new("ppc", sink, budget),
            faults,
        })
    }

    /// Issues `n` independent instructions (retire at the configured IPC).
    #[inline]
    pub fn issue(&mut self, n: u64) {
        self.instrs += n;
    }

    /// Issues `n` dependent operations (a serial chain: one per cycle).
    #[inline]
    pub fn serial_ops(&mut self, n: u64) {
        self.serial_cycles += n;
        self.account.add_ops(n);
    }

    /// Counts `n` arithmetic operations that issue superscalar.
    #[inline]
    pub fn alu_ops(&mut self, n: u64) {
        self.instrs += n;
        self.account.add_ops(n);
    }

    /// Counts `n` AltiVec vector operations (each is one instruction but
    /// `vector_lanes` arithmetic results).
    #[inline]
    pub fn vector_ops(&mut self, n: u64) {
        self.instrs += n;
        self.account.add_ops(n * self.cfg.vector_lanes as u64);
    }

    /// Issues `n` dependent AltiVec operations (serial chain, one per
    /// cycle, `vector_lanes` results each).
    #[inline]
    pub fn serial_vector_ops(&mut self, n: u64) {
        self.serial_cycles += n;
        self.account.add_ops(n * self.cfg.vector_lanes as u64);
    }

    /// Scalar trigonometric library calls.
    #[inline]
    pub fn trig(&mut self, n: u64) {
        self.trig_calls += n;
    }

    /// A load from `word_addr`: one issue slot plus any cache stalls.
    #[inline]
    pub fn load(&mut self, word_addr: usize) {
        self.loads(word_addr, 1, 1);
    }

    /// `times` loads in a row, of `words` words each, from the line
    /// holding `word_addr`: an issue slot each, and the stalls of the
    /// first, since the rest hit the line it left in L1.
    #[inline]
    fn loads(&mut self, word_addr: usize, times: u64, words: u64) {
        self.instrs += times;
        self.account.add_words(times * words);
        let (l1, l2) = self.hier.access_again(word_addr, times - 1);
        if l1 {
            self.load_stall += self.cfg.l1_miss_penalty;
        }
        if l2 {
            self.load_stall += self.cfg.l2_load_miss_penalty;
        }
    }

    /// A store to `word_addr`: one issue slot; misses cost the (buffered)
    /// write-allocate penalty only when they reach memory.
    #[inline]
    pub fn store(&mut self, word_addr: usize) {
        self.instrs += 1;
        self.account.add_words(1);
        let (_, l2) = self.hier.access_rw(word_addr, true);
        if l2 {
            self.store_stall += self.cfg.l2_store_miss_penalty;
        }
    }

    /// A 4-lane vector load (one instruction touching `lanes` words).
    #[inline]
    pub fn vector_load(&mut self, word_addr: usize) {
        self.loads(word_addr, 1, self.cfg.vector_lanes as u64);
    }

    /// A 4-lane vector store.
    #[inline]
    pub fn vector_store(&mut self, word_addr: usize) {
        self.instrs += 1;
        self.account.add_words(self.cfg.vector_lanes as u64);
        let (_, l2) = self.hier.access_rw(word_addr, true);
        if l2 {
            self.store_stall += self.cfg.l2_store_miss_penalty;
        }
    }

    /// Charges `loads` loads and `stores` stores that cover `block`
    /// (AltiVec ones, of `vector_lanes` words each, when `vector`) without
    /// replaying them, when every one is sure to hit L1 (see
    /// [`Cache::settle_resident`](crate::cache::Cache::settle_resident)).
    /// Hits stall nothing and never reach L2, so only L1, the issue slots
    /// and the words moved change, as they would in the replay. Returns
    /// `false`, having changed nothing, when L1 refuses; the caller then
    /// replays the accesses.
    pub fn settle_resident(&mut self, block: Block, loads: u64, stores: u64, vector: bool) -> bool {
        let accesses = loads + stores;
        if !self.hier.l1.settle_resident(block, accesses, stores > 0) {
            return false;
        }
        let words = if vector { self.cfg.vector_lanes as u64 } else { 1 };
        self.instrs += accesses;
        self.account.add_words(accesses * words);
        true
    }

    /// Charges one source row of a naive corner turn exactly as its
    /// per-element loop would: per column a load from `src + c` (or, when
    /// `vector`, per `vector_lanes` columns one AltiVec vector load, the
    /// last group partial when the lanes do not divide `cols`), followed by
    /// the stores to `dst + c·stride` of the columns it loaded. Returns how
    /// many stores were settled in L1 rather than replayed.
    ///
    /// Accesses to different sets of a level do not affect each other, so
    /// only the loads whose L1 or L2 set a store of the row can reach must
    /// keep their place among the stores. When `stride` is a whole number
    /// of lines in both levels and the first store's line is not in L1,
    /// the stores' lines step through each level's sets in one residue
    /// class ([`Cache::meeting_span`](crate::cache::Cache::meeting_span)),
    /// and the loads in that class lie in one span of columns, which is
    /// replayed in order. On either side of it the loads are charged first
    /// — the first access to each L1 line replayed, the rest hits on it at
    /// the front of its set — and then the stores, settled as misses in L1
    /// and L2 ([`Cache::settle_misses`](crate::cache::Cache::settle_misses)),
    /// replayed through L2 alone when L2 refuses and through both levels
    /// when L1 does. Any other row is replayed in order.
    pub fn transpose_row(
        &mut self,
        src: usize,
        cols: usize,
        dst: usize,
        stride: usize,
        vector: bool,
    ) -> usize {
        let Some(span) = self.ordered_span(src, cols, dst, stride, vector) else {
            self.replay_row(src, 0..cols, dst, stride, vector);
            return 0;
        };
        self.charge_loads(src, 0..span.start, vector);
        let before = self.charge_stores(dst, 0..span.start, stride);
        self.replay_row(src, span.clone(), dst, stride, vector);
        self.charge_loads(src, span.end..cols, vector);
        before + self.charge_stores(dst, span.end..cols, stride)
    }

    /// The columns of a [`transpose_row`](Self::transpose_row) row whose
    /// loads can share an L1 or L2 set with its stores, widened to whole
    /// load groups; empty at `cols` when there are none. `None` when the
    /// whole row must be replayed in order: the stride is not a positive
    /// whole number of lines in both levels, an address overflows, or the
    /// first store's line is already in L1 (so the stores may hit).
    fn ordered_span(
        &self,
        src: usize,
        cols: usize,
        dst: usize,
        stride: usize,
        vector: bool,
    ) -> Option<Range<usize>> {
        let (l1, l2) = (&self.hier.l1, &self.hier.l2);
        let (w1, w2) = (l1.config().line_words, l2.config().line_words);
        let lines_apart = stride > 0 && stride.is_multiple_of(w1) && stride.is_multiple_of(w2);
        let loads = src..src.checked_add(cols)?;
        cols.checked_sub(1)?.checked_mul(stride)?.checked_add(dst)?;
        if !lines_apart || l1.holds(dst) {
            return None;
        }
        let span = [
            l1.meeting_span(loads.clone(), l1.line(dst), l1.line(stride)),
            l2.meeting_span(loads.clone(), l2.line(dst), l2.line(stride)),
        ]
        .into_iter()
        .filter(|span| !span.is_empty())
        .reduce(|a, b| a.start.min(b.start)..a.end.max(b.end))
        .unwrap_or(loads.end..loads.end);
        let grain = if vector { self.cfg.vector_lanes } else { 1 };
        let (start, end) = (span.start - src, span.end - src);
        Some(start / grain * grain..end.div_ceil(grain).saturating_mul(grain).min(cols))
    }

    /// Replays columns `cols` of a [`transpose_row`](Self::transpose_row)
    /// row in program order; `cols` starts a load group and ends one or
    /// the row.
    fn replay_row(
        &mut self,
        src: usize,
        cols: Range<usize>,
        dst: usize,
        stride: usize,
        vector: bool,
    ) {
        if !vector {
            for c in cols {
                self.load(src + c);
                self.store(dst + c * stride);
            }
            return;
        }
        let mut c = cols.start;
        while c < cols.end {
            let group = c..(c + self.cfg.vector_lanes).min(cols.end);
            self.vector_load(src + c);
            c = group.end;
            for c in group {
                self.store(dst + c * stride);
            }
        }
    }

    /// Charges the loads of columns `cols` from `src` on, which share no
    /// set with the stores they are charged ahead of, one L1 line at a
    /// time: the first load of a line is replayed, and the ones after it
    /// hit the line it left at the front of its set.
    fn charge_loads(&mut self, src: usize, cols: Range<usize>, vector: bool) {
        // A load moves one word, a vector load one word a lane.
        let grain = if vector { self.cfg.vector_lanes } else { 1 };
        let line_words = self.cfg.l1.line_words;
        let mut c = cols.start;
        while c < cols.end {
            let addr = src + c;
            let left = line_words - (addr - self.hier.l1.line(addr) * line_words);
            let in_line = left.min(cols.end - c).div_ceil(grain);
            self.loads(addr, in_line as u64, grain as u64);
            c += in_line * grain;
        }
    }

    /// Charges the stores of columns `cols` to `dst + c·stride`, which
    /// share no set with the loads charged beside them; returns how many
    /// were settled in L1 (all of them, or none).
    fn charge_stores(&mut self, dst: usize, cols: Range<usize>, stride: usize) -> usize {
        let (count, first) = (cols.len(), dst + cols.start * stride);
        let l1 = &mut self.hier.l1;
        if !l1.settle_misses(l1.line(first), l1.line(stride), count, true) {
            for c in cols {
                self.store(dst + c * stride);
            }
            return 0;
        }
        // Every store missed L1, so each one probes L2, in order.
        let l2 = &mut self.hier.l2;
        let mut l2_misses = count as u64;
        if !l2.settle_misses(l2.line(first), l2.line(stride), count, true) {
            l2_misses = 0;
            for c in cols {
                l2_misses += u64::from(l2.access_rw(dst + c * stride, true));
            }
        }
        self.instrs += count as u64;
        self.account.add_words(count as u64);
        self.store_stall += l2_misses * self.cfg.l2_store_miss_penalty;
        count
    }

    /// The cache hierarchy, for tests that compare its contents.
    #[cfg(test)]
    pub(crate) fn caches(&self) -> &Hierarchy {
        &self.hier
    }

    /// Total cycles so far.
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        let issue = (self.instrs as f64 / self.cfg.ipc).ceil() as u64;
        Cycles::new(
            issue
                + self.serial_cycles
                + self.trig_calls * self.cfg.trig_cycles
                + self.load_stall
                + self.store_stall
                + self.ecc_stall
                + self.retry_stall,
        )
    }

    /// Checks the watchdog cycle budget against the cycles accumulated so
    /// far. Programs call this at loop boundaries so oversized or
    /// livelocked workloads abort instead of running unboundedly.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExceeded`] once the budget is passed.
    #[inline]
    pub fn check_budget(&self) -> Result<(), SimError> {
        self.account.check_with(self.cycles().get())
    }

    /// Consults the fault hook for one memory transfer of `data.len()`
    /// words based at virtual word address `base_word`, applying bit
    /// flips and stuck-lane effects directly to `data` (the program's
    /// real buffer) and charging ECC/retry stall cycles.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DetectedFault`] for an unrecoverable detected
    /// fault and [`SimError::BudgetExceeded`] from the watchdog.
    pub fn fault_transfer(&mut self, base_word: usize, data: &mut [u32]) -> Result<(), SimError> {
        if !self.faults.is_enabled() {
            return Ok(());
        }
        let fx = self.faults.transfer(FaultDomain::Dram, base_word, data.len());
        for flip in &fx.flips {
            if let Some(w) = data.get_mut(flip.offset) {
                *w ^= flip.xor_mask;
            }
        }
        // A stuck AltiVec lane corrupts the element its lane produces in
        // every vector-width group of the transferred block.
        if let Some(fault) = self.faults.stuck(FaultDomain::VectorLane) {
            let lanes = self.cfg.vector_lanes.max(1);
            let mut i = fault.index % lanes;
            while i < data.len() {
                data[i] = fault.force(data[i]);
                i += lanes;
            }
        }
        self.ecc_stall += fx.ecc_cycles;
        self.retry_stall += fx.retry_cycles;
        if let Some(what) = &fx.failure {
            return Err(SimError::detected_fault(what.clone()));
        }
        self.check_budget()
    }

    /// Marks a program phase boundary in the trace: an instant event plus
    /// counter samples of the stall/instruction totals at the current
    /// cycle count. A no-op when tracing is disabled.
    pub fn checkpoint(&mut self, name: &'static str) {
        let at = self.cycles().get();
        let sink = self.account.sink();
        if !sink.is_enabled() {
            return;
        }
        sink.instant(TRACK_CORE, name, at);
        sink.counter(TRACK_CORE, "instructions", at, self.instrs as f64);
        sink.counter(TRACK_CORE, "load-stall-cycles", at, self.load_stall as f64);
        sink.counter(TRACK_CORE, "store-stall-cycles", at, self.store_stall as f64);
    }

    /// Consumes the machine into its [`KernelRun`] (see
    /// [`RunAccount::finish`]): the program returns its output beside the
    /// run, and the blanket `SignalMachine` impl checks it.
    ///
    /// The counters are charged here, as counted spans tiling
    /// `[0, total)` in the order below. All seven categories are listed in
    /// the breakdown, those at zero too.
    ///
    /// # Errors
    ///
    /// Never fails: the G4 opens no overlap region.
    pub fn finish(mut self) -> Result<KernelRun, SimError> {
        let issue = (self.instrs as f64 / self.cfg.ipc).ceil() as u64;
        for (category, name, cycles) in [
            ("issue", "superscalar-issue", issue),
            ("serial", "dependent-chain", self.serial_cycles),
            ("libm", "trig-library-calls", self.trig_calls * self.cfg.trig_cycles),
            ("load-stall", "cache-load-miss-stall", self.load_stall),
            ("store-stall", "cache-store-miss-stall", self.store_stall),
            ("ecc", "ecc-correct-stall", self.ecc_stall),
            ("retry", "dram-retry-stall", self.retry_stall),
        ] {
            self.account.declare(category);
            self.account.charge(TRACK_CORE, category, name, Cycles::new(cycles));
        }
        let mut metrics = MetricsReport::new();
        self.hier.l1.counters().export(&mut metrics, "ppc.l1");
        self.hier.l2.counters().export(&mut metrics, "ppc.l2");
        metrics.counter("ppc.run.instructions", self.instrs);
        metrics.counter("ppc.run.trig_calls", self.trig_calls);
        self.account.finish(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_respects_ipc() {
        let mut m = PpcMachine::new(&PpcConfig::paper()).unwrap();
        m.issue(100);
        assert_eq!(m.cycles().get(), 50);
        m.serial_ops(10);
        assert_eq!(m.cycles().get(), 60);
    }

    #[test]
    fn loads_pay_cache_stalls() {
        let mut m = PpcMachine::new(&PpcConfig::paper()).unwrap();
        m.load(0); // L1 + L2 miss
        let first = m.cycles().get();
        m.load(1); // same line: hit
        let second = m.cycles().get();
        assert!(first > 1);
        // Second load adds only its issue slot.
        assert_eq!(second - first, 0);
        m.issue(1);
        assert_eq!(m.cycles().get(), second + 1);
    }

    #[test]
    fn stores_use_buffered_penalty() {
        let cfg = PpcConfig::paper();
        let mut m = PpcMachine::new(&cfg).unwrap();
        m.store(0);
        assert_eq!(m.cycles().get(), 1 + cfg.l2_store_miss_penalty);
    }

    #[test]
    fn trig_is_expensive() {
        let cfg = PpcConfig::paper();
        let mut m = PpcMachine::new(&cfg).unwrap();
        m.trig(10);
        assert_eq!(m.cycles().get(), 10 * cfg.trig_cycles);
    }

    #[test]
    fn vector_ops_count_lanes() {
        let mut m = PpcMachine::new(&PpcConfig::paper()).unwrap();
        m.vector_ops(3);
        let run = m.finish().unwrap();
        assert_eq!(run.ops_executed, 12);
    }

    #[test]
    fn finish_breaks_down_costs() {
        let mut m = PpcMachine::new(&PpcConfig::paper()).unwrap();
        m.issue(10);
        m.load(0);
        let run = m.finish().unwrap();
        assert!(run.breakdown.get("issue").get() > 0);
        assert!(run.breakdown.get("load-stall").get() > 0);
        assert_eq!(run.cycles, run.breakdown.total());
    }

    #[test]
    fn finish_carries_cache_metrics() {
        let mut m = PpcMachine::new(&PpcConfig::paper()).unwrap();
        m.load(0); // L1+L2 miss
        m.load(1); // L1 hit
        m.store(0); // hit, dirties the line
        let run = m.finish().unwrap();
        assert_eq!(run.metrics.counter_sum("ppc.cycles."), run.cycles.get());
        assert_eq!(run.metrics.counter_value("ppc.l1.misses"), Some(1));
        assert_eq!(run.metrics.counter_value("ppc.l1.hits"), Some(2));
        assert_eq!(run.metrics.counter_value("ppc.l2.misses"), Some(1));
        assert!(run.metrics.get("ppc.l1.hit_rate").is_some());
        assert!(run.metrics.get("ppc.l1.evictions").is_some());
        assert!(run.metrics.get("ppc.l1.writebacks").is_some());
        assert_eq!(run.metrics.counter_value("ppc.run.mem_words"), Some(3));
    }
}
