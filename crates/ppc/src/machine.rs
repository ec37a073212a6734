//! Timing accumulator for the G4 baseline: superscalar issue plus
//! trace-driven cache stalls.

use triarch_simcore::faults::{FaultDomain, FaultHook, NoFaults};
use triarch_simcore::metrics::MetricsReport;
use triarch_simcore::trace::{NullSink, TraceSink};
use triarch_simcore::{CycleBudget, CycleLedger, Cycles, KernelRun, SimError, Verification};

use crate::cache::Hierarchy;
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
    ops: u64,
    mem_words: u64,
    sink: S,
    faults: F,
    budget: CycleBudget,
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
            ops: 0,
            mem_words: 0,
            sink,
            faults,
            budget,
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
        self.ops += n;
    }

    /// Counts `n` arithmetic operations that issue superscalar.
    #[inline]
    pub fn alu_ops(&mut self, n: u64) {
        self.instrs += n;
        self.ops += n;
    }

    /// Counts `n` AltiVec vector operations (each is one instruction but
    /// `vector_lanes` arithmetic results).
    #[inline]
    pub fn vector_ops(&mut self, n: u64) {
        self.instrs += n;
        self.ops += n * self.cfg.vector_lanes as u64;
    }

    /// Issues `n` dependent AltiVec operations (serial chain, one per
    /// cycle, `vector_lanes` results each).
    #[inline]
    pub fn serial_vector_ops(&mut self, n: u64) {
        self.serial_cycles += n;
        self.ops += n * self.cfg.vector_lanes as u64;
    }

    /// Scalar trigonometric library calls.
    #[inline]
    pub fn trig(&mut self, n: u64) {
        self.trig_calls += n;
    }

    /// A load from `word_addr`: one issue slot plus any cache stalls.
    #[inline]
    pub fn load(&mut self, word_addr: usize) {
        self.instrs += 1;
        self.mem_words += 1;
        let (l1, l2) = self.hier.access(word_addr);
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
        self.mem_words += 1;
        let (_, l2) = self.hier.access_rw(word_addr, true);
        if l2 {
            self.store_stall += self.cfg.l2_store_miss_penalty;
        }
    }

    /// A 4-lane vector load (one instruction touching `lanes` words).
    #[inline]
    pub fn vector_load(&mut self, word_addr: usize) {
        self.instrs += 1;
        self.mem_words += self.cfg.vector_lanes as u64;
        let (l1, l2) = self.hier.access(word_addr);
        if l1 {
            self.load_stall += self.cfg.l1_miss_penalty;
        }
        if l2 {
            self.load_stall += self.cfg.l2_load_miss_penalty;
        }
    }

    /// A 4-lane vector store.
    #[inline]
    pub fn vector_store(&mut self, word_addr: usize) {
        self.instrs += 1;
        self.mem_words += self.cfg.vector_lanes as u64;
        let (_, l2) = self.hier.access_rw(word_addr, true);
        if l2 {
            self.store_stall += self.cfg.l2_store_miss_penalty;
        }
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
        self.budget.check(self.cycles().get())
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
        if !self.sink.is_enabled() {
            return;
        }
        let at = self.cycles().get();
        self.sink.instant(TRACK_CORE, name, at);
        self.sink.counter(TRACK_CORE, "instructions", at, self.instrs as f64);
        self.sink.counter(TRACK_CORE, "load-stall-cycles", at, self.load_stall as f64);
        self.sink.counter(TRACK_CORE, "store-stall-cycles", at, self.store_stall as f64);
    }

    /// Consumes the machine into a [`KernelRun`].
    ///
    /// When tracing, the per-category totals are emitted as *counted*
    /// spans tiling `[0, total)` in breakdown order, so the trace
    /// aggregation reproduces the breakdown exactly.
    #[must_use]
    pub fn finish(mut self, verification: Verification) -> KernelRun {
        let issue = (self.instrs as f64 / self.cfg.ipc).ceil() as u64;
        let entries: [(&'static str, &'static str, u64); 7] = [
            ("issue", "superscalar-issue", issue),
            ("serial", "dependent-chain", self.serial_cycles),
            ("libm", "trig-library-calls", self.trig_calls * self.cfg.trig_cycles),
            ("load-stall", "cache-load-miss-stall", self.load_stall),
            ("store-stall", "cache-store-miss-stall", self.store_stall),
            ("ecc", "ecc-correct-stall", self.ecc_stall),
            ("retry", "dram-retry-stall", self.retry_stall),
        ];
        let mut ledger = CycleLedger::new();
        let mut t = 0u64;
        for &(category, name, cycles) in &entries {
            if self.sink.is_enabled() && cycles > 0 {
                self.sink.span(TRACK_CORE, category, name, t, cycles);
            }
            t += cycles;
            ledger.charge(category, Cycles::new(cycles));
        }
        let breakdown = ledger.into_breakdown();
        let total = breakdown.total();
        let mut metrics = MetricsReport::new();
        breakdown.export_metrics(&mut metrics, "ppc.cycles");
        self.hier.l1.counters().export(&mut metrics, "ppc.l1");
        self.hier.l2.counters().export(&mut metrics, "ppc.l2");
        self.budget.export_metrics(&mut metrics, "ppc.budget", total.get());
        metrics.counter("ppc.run.instructions", self.instrs);
        metrics.counter("ppc.run.trig_calls", self.trig_calls);
        metrics.counter("ppc.run.ops", self.ops);
        metrics.counter("ppc.run.mem_words", self.mem_words);
        metrics.bandwidth("ppc.run.achieved_bw", self.mem_words, total.get());
        metrics.bandwidth("ppc.run.achieved_ops", self.ops, total.get());
        KernelRun {
            cycles: total,
            breakdown,
            ops_executed: self.ops,
            mem_words: self.mem_words,
            verification,
            metrics,
        }
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
        let run = m.finish(Verification::Unchecked);
        assert_eq!(run.ops_executed, 12);
    }

    #[test]
    fn finish_breaks_down_costs() {
        let mut m = PpcMachine::new(&PpcConfig::paper()).unwrap();
        m.issue(10);
        m.load(0);
        let run = m.finish(Verification::BitExact);
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
        let run = m.finish(Verification::BitExact);
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
