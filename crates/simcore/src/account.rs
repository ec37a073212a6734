//! One run's cycle account, shared by every engine.
//!
//! A [`RunAccount`] owns what an engine charges a run to: the
//! [`CycleLedger`] behind its breakdown, its trace sink, its watchdog, and
//! the counters every [`KernelRun`] reports. Holding one account instead of
//! their own copies, the engines share one set of rules:
//!
//! - **Counted spans.** Outside an overlap region a charge is a counted
//!   span at the ledger's running total, so the counted spans tile
//!   `[0, cycles)` and fold back into the breakdown with zero drift.
//! - **Overlap.** Inside a region a charge is an uncounted span on its
//!   side's own timeline, memory or compute. Closing the region charges
//!   the slower side's categories as counted spans, plus an optional
//!   visible residue of the faster side; the rest is hidden.
//! - **Watchdog.** Every charged cycle counts, on both sides of a region,
//!   and so does work hidden under a makespan and an engine's phase
//!   activity not yet charged. The count saturates instead of wrapping.

use triarch_faults::TransferFaults;
use triarch_metrics::MetricsReport;
use triarch_trace::TraceSink;

use crate::budget::CycleBudget;
use crate::cycles::Cycles;
use crate::error::SimError;
use crate::machine::{KernelRun, Verification};
use crate::stats::CycleLedger;

/// The part of a region's faster side that stays visible when the region
/// closes (Imagine's stream-descriptor limit). It is charged as
/// `"unoverlapped"`, even when it rounds to zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Residue {
    /// Fraction of the faster side's cycles left visible.
    pub fraction: f64,
    /// Name of the residue's counted span.
    pub name: &'static str,
}

/// An overlap region's two timelines. A closed region keeps its emptied
/// ledgers, so the next region charges into storage it already has.
#[derive(Debug, Clone, Default)]
struct Region {
    open: bool,
    /// Ledger total when the region opened.
    start: u64,
    mem_track: &'static str,
    compute_track: &'static str,
    mem: CycleLedger,
    compute: CycleLedger,
}

/// One run's cycle account: ledger, trace sink, watchdog, hidden cycles,
/// operation and word counts, and the open overlap region.
///
/// ```
/// use triarch_simcore::trace::NullSink;
/// use triarch_simcore::{CycleBudget, Cycles, RunAccount};
///
/// let mut account = RunAccount::new("demo", NullSink, CycleBudget::UNLIMITED);
/// account.charge("demo.mem", "memory", "load", Cycles::new(40));
/// account.begin_region("demo.mem", "demo.alu").unwrap();
/// account.charge("demo.mem", "memory", "load", Cycles::new(30));
/// account.charge("demo.alu", "compute", "add", Cycles::new(10));
/// account.end_region(None).unwrap();
/// let run = account.finish(Default::default()).unwrap();
/// assert_eq!(run.cycles, Cycles::new(70));
/// assert_eq!(run.breakdown.get("compute"), Cycles::ZERO);
/// assert_eq!(run.metrics.counter_value("demo.budget.spent"), Some(80));
/// ```
#[derive(Debug, Clone)]
pub struct RunAccount<S: TraceSink> {
    /// Prefix of every metric the run exports, e.g. `"viram"`.
    engine: &'static str,
    ledger: CycleLedger,
    sink: S,
    budget: CycleBudget,
    /// Watchdog count: see the module documentation.
    spent: u64,
    hidden: Cycles,
    /// Whether `finish` exports `run.hidden_cycles`.
    reports_hidden: bool,
    ops: u64,
    mem_words: u64,
    region: Region,
}

impl<S: TraceSink> RunAccount<S> {
    /// An empty account for one run of `engine`, the prefix of the
    /// metrics it exports.
    pub fn new(engine: &'static str, sink: S, budget: CycleBudget) -> Self {
        RunAccount {
            engine,
            ledger: CycleLedger::new(),
            sink,
            budget,
            spent: 0,
            hidden: Cycles::ZERO,
            reports_hidden: false,
            ops: 0,
            mem_words: 0,
            region: Region::default(),
        }
    }

    /// The same account for an engine that hides work, under overlap or
    /// a makespan: its run exports `run.hidden_cycles`, zero included.
    #[must_use]
    pub fn hiding(mut self) -> Self {
        self.reports_hidden = true;
        self
    }

    /// The trace sink, for an engine's own instants, counters and
    /// uncounted detail.
    pub fn sink(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Cycles charged to the breakdown so far.
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        self.ledger.total()
    }

    /// Counts `n` executed 32-bit operations.
    #[inline]
    pub fn add_ops(&mut self, n: u64) {
        self.ops += n;
    }

    /// Counts `n` words moved across the machine's limiting memory level.
    #[inline]
    pub fn add_words(&mut self, n: u64) {
        self.mem_words += n;
    }

    /// Charges `cycles` to `category`. Outside a region this is a counted
    /// span on `track` at the ledger total. Inside one it is an uncounted
    /// span on the memory side's timeline when `track` is the region's
    /// memory track, and on the compute side's otherwise. A zero charge is
    /// skipped.
    #[inline]
    pub fn charge(
        &mut self,
        track: &'static str,
        category: &'static str,
        name: &'static str,
        cycles: Cycles,
    ) {
        if cycles == Cycles::ZERO {
            return;
        }
        self.spent = self.spent.saturating_add(cycles.get());
        let region = &mut self.region;
        if !region.open {
            self.counted(track, category, name, cycles);
            return;
        }
        let side = if track == region.mem_track { &mut region.mem } else { &mut region.compute };
        if self.sink.is_enabled() {
            let at = region.start + side.total().get();
            self.sink.span_uncounted(track, category, name, at, cycles.get());
        }
        side.charge(category, cycles);
    }

    /// The counted-span contract: `cycles` join the breakdown under
    /// `category`, and a counted span of as many cycles starts at the
    /// ledger total, where the last one ended.
    fn counted(
        &mut self,
        track: &'static str,
        category: &'static str,
        name: &'static str,
        cycles: Cycles,
    ) {
        if self.sink.is_enabled() {
            self.sink.span(track, category, name, self.ledger.total().get(), cycles.get());
        }
        self.ledger.charge(category, cycles);
    }

    /// Lists `category` in the breakdown even if nothing is ever charged
    /// to it, for a counter model whose categories are always present.
    pub fn declare(&mut self, category: &'static str) {
        self.ledger.charge(category, Cycles::ZERO);
    }

    /// Charges a transfer's ECC correction (`"ecc-correct"`) and retry
    /// (span `retry`) cycles on `track`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DetectedFault`] when the transfer failed, after
    /// charging its costs.
    pub fn charge_faults(
        &mut self,
        track: &'static str,
        retry: &'static str,
        fx: &TransferFaults,
    ) -> Result<(), SimError> {
        self.charge(track, "ecc", "ecc-correct", Cycles::new(fx.ecc_cycles));
        self.charge(track, "retry", retry, Cycles::new(fx.retry_cycles));
        match &fx.failure {
            Some(what) => Err(SimError::detected_fault(what.clone())),
            None => Ok(()),
        }
    }

    /// Marks `name` on `track` at the ledger total, when tracing.
    pub fn mark(&mut self, track: &'static str, name: &'static str) {
        if self.sink.is_enabled() {
            self.sink.instant(track, name, self.ledger.total().get());
        }
    }

    /// Opens an overlap region between the memory side, whose charges come
    /// on `mem_track`, and the compute side, whose region marks and
    /// residue go on `compute_track`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if a region is already open.
    pub fn begin_region(
        &mut self,
        mem_track: &'static str,
        compute_track: &'static str,
    ) -> Result<(), SimError> {
        if self.region.open {
            return Err(SimError::unsupported("nested overlap regions"));
        }
        self.mark(compute_track, "overlap-begin");
        let region = &mut self.region;
        region.open = true;
        region.start = self.ledger.total().get();
        region.mem_track = mem_track;
        region.compute_track = compute_track;
        Ok(())
    }

    /// Where the memory side's next cycle lies, for placing detail spans:
    /// the region's memory timeline inside a region, the ledger total
    /// outside one.
    #[must_use]
    pub fn mem_cursor(&self) -> u64 {
        let region = &self.region;
        if region.open {
            region.start + region.mem.total().get()
        } else {
            self.ledger.total().get()
        }
    }

    /// Closes the region. The slower side's categories are charged as
    /// counted spans named `"overlap-charged"`, on that side's track; the
    /// memory side wins a tie. A `residue` of the faster side is charged
    /// on the compute track, and counts into the watchdog a second time;
    /// the rest of the faster side is hidden.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if no region is open, or
    /// [`SimError::BudgetExceeded`] from the watchdog.
    pub fn end_region(&mut self, residue: Option<Residue>) -> Result<(), SimError> {
        if !self.region.open {
            return Err(SimError::unsupported("end_overlap without begin_overlap"));
        }
        let mut region = std::mem::take(&mut self.region);
        let (mem_total, compute_total) = (region.mem.total(), region.compute.total());
        let (winner, track, loser) = if mem_total >= compute_total {
            (&region.mem, region.mem_track, compute_total)
        } else {
            (&region.compute, region.compute_track, mem_total)
        };
        for (category, cycles) in winner.iter() {
            self.counted(track, category, "overlap-charged", cycles);
        }
        let visible = residue.map_or(Cycles::ZERO, |r| loser.scale(r.fraction));
        if let Some(residue) = residue {
            self.counted(region.compute_track, "unoverlapped", residue.name, visible);
            self.spent = self.spent.saturating_add(visible.get());
        }
        self.hidden += loser.saturating_sub(visible);
        self.mark(region.compute_track, "overlap-end");
        region.open = false;
        region.mem.clear();
        region.compute.clear();
        self.region = region;
        self.check()
    }

    /// Records `cycles` of work hidden under a makespan: counted by the
    /// watchdog and reported, but not part of the breakdown.
    pub fn hide(&mut self, cycles: u64) {
        self.spent = self.spent.saturating_add(cycles);
        self.hidden += Cycles::new(cycles);
    }

    /// Checks the watchdog.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExceeded`] once the count passes the
    /// budget.
    #[inline]
    pub fn check(&self) -> Result<(), SimError> {
        self.budget.check(self.spent)
    }

    /// Checks the watchdog with `pending` cycles of phase activity not yet
    /// charged.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExceeded`] once the count passes the
    /// budget.
    #[inline]
    pub fn check_with(&self, pending: u64) -> Result<(), SimError> {
        self.budget.check(self.spent.saturating_add(pending))
    }

    /// Ends the run: the [`KernelRun`] of the charged breakdown, whose
    /// verification the caller's checker fills in, with `metrics` plus
    /// what every engine exports under its prefix: `.cycles.<category>`
    /// for every category, `.budget.spent` (and `.budget.limit` and
    /// `.budget.used` under a finite budget), `.run.ops`,
    /// `.run.mem_words`, `.run.hidden_cycles` for an engine that hides
    /// work, and `.run.achieved_bw` and `.run.achieved_ops`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if a region is still open.
    pub fn finish(self, mut metrics: MetricsReport) -> Result<KernelRun, SimError> {
        if self.region.open {
            return Err(SimError::unsupported("finish with open overlap region"));
        }
        let breakdown = self.ledger.into_breakdown();
        let total = breakdown.total();
        let mut name = MetricName::new(self.engine);
        for (category, cycles) in breakdown.iter() {
            metrics.counter(name.of(&[".cycles.", category]), cycles.get());
        }
        metrics.counter(name.of(&[".budget.spent"]), self.spent);
        if !self.budget.is_unlimited() {
            metrics.counter(name.of(&[".budget.limit"]), self.budget.limit());
            metrics.ratio(name.of(&[".budget.used"]), self.spent, self.budget.limit());
        }
        metrics.counter(name.of(&[".run.ops"]), self.ops);
        metrics.counter(name.of(&[".run.mem_words"]), self.mem_words);
        if self.reports_hidden {
            metrics.counter(name.of(&[".run.hidden_cycles"]), self.hidden.get());
        }
        metrics.bandwidth(name.of(&[".run.achieved_bw"]), self.mem_words, total.get());
        metrics.bandwidth(name.of(&[".run.achieved_ops"]), self.ops, total.get());
        Ok(KernelRun {
            cycles: total,
            breakdown,
            ops_executed: self.ops,
            mem_words: self.mem_words,
            verification: Verification::Unchecked,
            metrics,
        })
    }
}

/// One buffer that names every metric a run exports, so a name costs no
/// allocation of its own.
struct MetricName {
    buf: String,
    prefix: usize,
}

impl MetricName {
    fn new(engine: &str) -> Self {
        let mut buf = String::with_capacity(64);
        buf.push_str(engine);
        MetricName { prefix: buf.len(), buf }
    }

    /// The engine prefix followed by `parts`.
    fn of(&mut self, parts: &[&str]) -> &str {
        self.buf.truncate(self.prefix);
        for part in parts {
            self.buf.push_str(part);
        }
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_trace::{NullSink, RingSink, TraceEvent};

    const MEM: &str = "t.mem";
    const ALU: &str = "t.alu";

    fn traced() -> RunAccount<RingSink> {
        RunAccount::new("t", RingSink::new(64), CycleBudget::UNLIMITED)
    }

    type Span = (&'static str, &'static str, &'static str, u64, u64, bool);

    /// The `(track, category, name, start, dur, counted)` of every span.
    fn spans(account: &mut RunAccount<RingSink>) -> Vec<Span> {
        account
            .sink()
            .events()
            .filter_map(|e| match *e {
                TraceEvent::Span { track, category, name, start, dur, counted } => {
                    Some((track, category, name, start, dur, counted))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_zero_charge_is_skipped() {
        let mut account = traced();
        account.charge(MEM, "memory", "load", Cycles::ZERO);
        assert_eq!(account.sink().len(), 0);
        let run = account.finish(MetricsReport::new()).unwrap();
        assert!(run.breakdown.is_empty());
        assert_eq!(run.metrics.counter_value("t.budget.spent"), Some(0));
    }

    #[test]
    fn a_counted_span_lands_at_the_ledger_total() {
        let mut account = traced();
        account.charge(MEM, "memory", "load", Cycles::new(7));
        account.charge(ALU, "compute", "add", Cycles::new(5));
        account.charge(MEM, "memory", "store", Cycles::new(2));
        assert_eq!(
            spans(&mut account),
            vec![
                (MEM, "memory", "load", 0, 7, true),
                (ALU, "compute", "add", 7, 5, true),
                (MEM, "memory", "store", 12, 2, true),
            ]
        );
        let run = account.finish(MetricsReport::new()).unwrap();
        assert_eq!(run.cycles, Cycles::new(14));
        assert_eq!(run.breakdown.get("memory"), Cycles::new(9));
        assert_eq!(run.metrics.counter_sum("t.cycles."), 14);
        assert_eq!(run.verification, Verification::Unchecked);
    }

    #[test]
    fn a_region_charges_its_slower_side_with_and_without_a_residue() {
        let residue = Residue { fraction: 0.5, name: "residue" };
        for (residue, unoverlapped, hidden) in [(None, None, 30), (Some(residue), Some(15), 15)] {
            let mut account = traced().hiding();
            account.charge(ALU, "startup", "boot", Cycles::new(4));
            account.begin_region(MEM, ALU).unwrap();
            account.charge(MEM, "memory", "load", Cycles::new(60));
            assert_eq!(account.mem_cursor(), 64, "the memory side's own timeline");
            account.charge(ALU, "compute", "add", Cycles::new(30));
            account.charge(MEM, "precharge", "row", Cycles::new(10));
            account.end_region(residue).unwrap();
            assert_eq!(account.mem_cursor(), account.cycles().get());
            let mut want = vec![
                (ALU, "startup", "boot", 0, 4, true),
                (MEM, "memory", "load", 4, 60, false),
                (ALU, "compute", "add", 4, 30, false),
                (MEM, "precharge", "row", 64, 10, false),
                (MEM, "memory", "overlap-charged", 4, 60, true),
                (MEM, "precharge", "overlap-charged", 64, 10, true),
            ];
            if let Some(visible) = unoverlapped {
                want.push((ALU, "unoverlapped", "residue", 74, visible, true));
            }
            assert_eq!(spans(&mut account), want, "{residue:?}");
            let run = account.finish(MetricsReport::new()).unwrap();
            assert_eq!(run.breakdown.get("compute"), Cycles::ZERO, "{residue:?}");
            assert_eq!(run.cycles.get(), 74 + unoverlapped.unwrap_or(0), "{residue:?}");
            assert_eq!(run.breakdown.get("unoverlapped").get(), unoverlapped.unwrap_or(0));
            assert_eq!(run.metrics.counter_value("t.run.hidden_cycles"), Some(hidden));
            // Both sides count, and the residue a second time.
            let spent = 104 + unoverlapped.unwrap_or(0);
            assert_eq!(run.metrics.counter_value("t.budget.spent"), Some(spent));
        }
    }

    #[test]
    fn the_compute_side_wins_when_it_is_slower() {
        let mut account = RunAccount::new("t", NullSink, CycleBudget::UNLIMITED);
        account.begin_region(MEM, ALU).unwrap();
        account.charge(MEM, "memory", "load", Cycles::new(3));
        account.charge(ALU, "compute", "add", Cycles::new(8));
        account.end_region(None).unwrap();
        let run = account.finish(MetricsReport::new()).unwrap();
        assert_eq!(run.cycles, Cycles::new(8));
        assert_eq!(run.breakdown.get("memory"), Cycles::ZERO);
        assert!(run.metrics.get("t.run.hidden_cycles").is_none(), "not a hiding account");
    }

    #[test]
    fn a_zero_residue_still_lists_unoverlapped() {
        let mut account = RunAccount::new("t", NullSink, CycleBudget::UNLIMITED);
        account.begin_region(MEM, ALU).unwrap();
        account.charge(MEM, "memory", "load", Cycles::new(9));
        account.end_region(Some(Residue { fraction: 0.5, name: "residue" })).unwrap();
        let run = account.finish(MetricsReport::new()).unwrap();
        let listed = run.breakdown.iter().find(|&(category, _)| category == "unoverlapped");
        assert_eq!(listed, Some(("unoverlapped", Cycles::ZERO)));
        assert_eq!(run.metrics.counter_value("t.cycles.unoverlapped"), Some(0));
    }

    #[test]
    fn a_second_region_charges_into_the_first_ones_storage() {
        let mut account = RunAccount::new("t", NullSink, CycleBudget::UNLIMITED);
        let mut storage = Vec::new();
        for _ in 0..2 {
            account.begin_region(MEM, ALU).unwrap();
            account.charge(MEM, "memory", "load", Cycles::new(5));
            account.charge(MEM, "precharge", "row", Cycles::new(1));
            account.charge(ALU, "compute", "add", Cycles::new(2));
            account.end_region(None).unwrap();
            let region = &account.region;
            storage.push((region.mem.storage(), region.compute.storage()));
        }
        assert_eq!(storage[0], storage[1], "the second region reallocated");
        assert_eq!(account.cycles(), Cycles::new(12));
    }

    #[test]
    fn region_misuse_is_refused() {
        let mut account = RunAccount::new("t", NullSink, CycleBudget::UNLIMITED);
        assert!(matches!(account.end_region(None), Err(SimError::Unsupported { .. })));
        account.begin_region(MEM, ALU).unwrap();
        assert!(matches!(account.begin_region(MEM, ALU), Err(SimError::Unsupported { .. })));
        let refused = account.clone().finish(MetricsReport::new());
        assert!(matches!(refused, Err(SimError::Unsupported { .. })), "{refused:?}");
        account.end_region(None).unwrap();
        assert!(account.finish(MetricsReport::new()).is_ok());
    }

    #[test]
    fn hidden_work_counts_for_the_watchdog_but_not_the_breakdown() {
        let mut account = RunAccount::new("t", NullSink, CycleBudget::limited(100)).hiding();
        account.charge(MEM, "memory", "dma", Cycles::new(60));
        account.hide(40);
        assert_eq!(account.check(), Ok(()));
        account.hide(1);
        assert_eq!(account.check(), Err(SimError::BudgetExceeded { spent: 101, limit: 100 }));
        let run = account.finish(MetricsReport::new()).unwrap();
        assert_eq!(run.cycles, Cycles::new(60));
        assert_eq!(run.metrics.counter_value("t.run.hidden_cycles"), Some(41));
        assert_eq!(run.metrics.counter_value("t.budget.spent"), Some(101));
        assert_eq!(run.metrics.counter_value("t.budget.limit"), Some(100));
        assert!(run.metrics.get("t.budget.used").is_some());
    }

    #[test]
    fn the_watchdog_trips_on_pending_phase_activity_and_saturates() {
        let mut account = RunAccount::new("t", NullSink, CycleBudget::limited(50));
        account.charge(MEM, "memory", "dma", Cycles::new(30));
        assert_eq!(account.check_with(20), Ok(()));
        assert_eq!(account.check_with(21), Err(SimError::BudgetExceeded { spent: 51, limit: 50 }));
        account.hide(u64::MAX);
        let saturated = SimError::BudgetExceeded { spent: u64::MAX, limit: 50 };
        assert_eq!(account.check_with(1), Err(saturated));
    }

    #[test]
    fn declared_categories_are_listed_at_zero() {
        let mut account = RunAccount::new("t", NullSink, CycleBudget::UNLIMITED);
        account.declare("ecc");
        account.charge(ALU, "issue", "issue", Cycles::new(3));
        let run = account.finish(MetricsReport::new()).unwrap();
        assert_eq!(run.breakdown.len(), 2);
        assert_eq!(run.metrics.counter_value("t.cycles.ecc"), Some(0));
        assert!(run.metrics.get("t.budget.limit").is_none(), "an unlimited budget has no limit");
    }

    #[test]
    fn fault_costs_are_charged_before_a_failure_is_returned() {
        let mut account = traced();
        let fx = TransferFaults {
            ecc_cycles: 3,
            retry_cycles: 5,
            failure: Some("dropped twice".into()),
            ..TransferFaults::default()
        };
        let err = account.charge_faults(MEM, "dram-retry", &fx).unwrap_err();
        assert_eq!(err, SimError::detected_fault("dropped twice"));
        assert_eq!(
            spans(&mut account),
            vec![(MEM, "ecc", "ecc-correct", 0, 3, true), (MEM, "retry", "dram-retry", 3, 5, true)]
        );
        assert!(account.charge_faults(MEM, "dram-retry", &TransferFaults::default()).is_ok());
        assert_eq!(account.cycles(), Cycles::new(8));
    }

    #[test]
    fn finish_exports_the_run_counters() {
        let mut account = RunAccount::new("t", NullSink, CycleBudget::UNLIMITED);
        account.charge(MEM, "memory", "load", Cycles::new(10));
        account.add_ops(30);
        account.add_words(20);
        let mut metrics = MetricsReport::new();
        metrics.counter("t.engine.own", 1);
        let run = account.finish(metrics).unwrap();
        assert_eq!((run.ops_executed, run.mem_words), (30, 20));
        assert_eq!(run.metrics.counter_value("t.engine.own"), Some(1));
        assert_eq!(run.metrics.counter_value("t.run.ops"), Some(30));
        assert_eq!(run.metrics.counter_value("t.run.mem_words"), Some(20));
        assert!(run.metrics.get("t.run.achieved_bw").is_some());
        assert!(run.metrics.get("t.run.achieved_ops").is_some());
    }
}
