//! The DPU execution engine: host transfers, WRAM/MRAM DMA, tasklets.
//!
//! One [`DpuMachine`] models a whole module — every DPU owns a private
//! MRAM bank slice and shares nothing with its neighbours. A kernel runs
//! as: host bulk-pushes operands into per-DPU MRAM, [`DpuMachine::launch`]
//! boots the tasklets, each DPU moves data between its MRAM bank and its
//! WRAM scratchpad with explicit DMA and executes instructions on the
//! revolving pipeline, [`DpuMachine::sync`] closes the phase, and the
//! host bulk-pulls results back. Because DPUs run in parallel, the phase
//! charges the **makespan** (the slowest DPU) for DMA and pipeline time;
//! host transfers serialize on the single host↔module interface and are
//! charged in full as they happen.

use triarch_simcore::faults::{FaultDomain, FaultHook, NoFaults};
use triarch_simcore::metrics::{Histogram, Metric, MetricsReport};
use triarch_simcore::trace::{NullSink, TraceSink};
use triarch_simcore::{CycleBudget, Cycles, KernelRun, RunAccount, SimError, WordMemory};

use crate::config::DpuConfig;

/// Trace track for host↔MRAM bulk transfers and launches.
const TRACK_HOST: &str = "dpu.host";
/// Trace track for WRAM↔MRAM DMA makespans.
const TRACK_DMA: &str = "dpu.dma";
/// Trace track for revolving-pipeline makespans.
const TRACK_PIPELINE: &str = "dpu.pipeline";

/// A range of WRAM words returned by [`DpuMachine::wram_alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WramRange {
    /// First word of the range.
    pub start: usize,
    /// Length in words.
    pub len: usize,
}

/// Per-DPU accumulators for one launched phase.
#[derive(Debug, Clone)]
struct PhaseAcc {
    /// DMA cycles accrued by each DPU this phase.
    dma: Vec<u64>,
    /// Instructions issued by each DPU this phase.
    instrs: Vec<u64>,
    /// Running DMA total across all DPUs (watchdog bound).
    dma_spent: u64,
    /// The slowest DPU's pipeline cycles so far: the least `sync` will
    /// charge for the phase's instructions (watchdog bound).
    pipe_max: u64,
}

/// The DPU module state: host memory, MRAM banks, WRAM, accounting.
///
/// Generic over a [`TraceSink`] and a [`FaultHook`]; the defaults
/// ([`NullSink`], [`NoFaults`]) are statically dispatched, disabled, and
/// empty, so an untraced, unfaulted machine pays nothing for either kind
/// of instrumentation.
///
/// The WRAM buffer models the scratchpad of the DPU *currently being
/// simulated*: DPUs share no state, so programs walk them one at a time
/// within a phase and call [`DpuMachine::wram_reset`] between DPUs.
#[derive(Debug, Clone)]
pub struct DpuMachine<S: TraceSink = NullSink, F: FaultHook = NoFaults> {
    cfg: DpuConfig,
    host: WordMemory,
    mram: WordMemory,
    wram: WordMemory,
    wram_next: usize,
    /// High-water mark of WRAM allocation across the whole run (words).
    wram_peak: usize,
    /// Fixed-bucket histogram of per-transfer host↔MRAM cycles.
    host_hist: Histogram,
    phase: Option<PhaseAcc>,
    /// Words moved over the host↔MRAM interface. The run's `mem_words`
    /// are the words WRAM↔MRAM DMA moves (the on-chip interface).
    host_words: u64,
    launches: u64,
    account: RunAccount<S>,
    faults: F,
}

impl DpuMachine<NullSink, NoFaults> {
    /// Builds an untraced, unfaulted machine with an unlimited budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn new(cfg: &DpuConfig) -> Result<Self, SimError> {
        Self::with_hooks(cfg, NullSink, NoFaults, CycleBudget::UNLIMITED)
    }
}

impl<S: TraceSink, F: FaultHook> DpuMachine<S, F> {
    /// Builds a machine with a trace sink, a fault hook and a watchdog
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn with_hooks(
        cfg: &DpuConfig,
        sink: S,
        faults: F,
        budget: CycleBudget,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(DpuMachine {
            host: WordMemory::new(cfg.host_mem_words),
            mram: WordMemory::new(cfg.dpus() * cfg.mram_words_per_dpu),
            wram: WordMemory::new(cfg.wram_words),
            wram_next: 0,
            wram_peak: 0,
            host_hist: Histogram::cycles(),
            phase: None,
            host_words: 0,
            launches: 0,
            account: RunAccount::new("dpu", sink, budget).hiding(),
            cfg: cfg.clone(),
            faults,
        })
    }

    /// Host main memory for workload setup and result extraction.
    pub fn host_mut(&mut self) -> &mut WordMemory {
        &mut self.host
    }

    /// Immutable host memory view.
    #[must_use]
    pub fn host(&self) -> &WordMemory {
        &self.host
    }

    /// WRAM contents of the DPU currently being simulated.
    #[must_use]
    pub fn wram(&self) -> &WordMemory {
        &self.wram
    }

    /// Mutable WRAM contents.
    pub fn wram_mut(&mut self) -> &mut WordMemory {
        &mut self.wram
    }

    /// Base address of one DPU's MRAM bank in the module arena.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Capacity`] for an out-of-range DPU index or a
    /// window that overruns the bank.
    fn mram_addr(&self, dpu: usize, offset: usize, len: usize) -> Result<usize, SimError> {
        if dpu >= self.cfg.dpus() {
            return Err(SimError::capacity("dpu index", dpu + 1, self.cfg.dpus()));
        }
        if offset + len > self.cfg.mram_words_per_dpu {
            return Err(SimError::capacity(
                "mram bank window",
                offset + len,
                self.cfg.mram_words_per_dpu,
            ));
        }
        Ok(dpu * self.cfg.mram_words_per_dpu + offset)
    }

    /// Allocates `words` of WRAM, aligned up to the DMA block size.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Capacity`] when the scratchpad is exhausted.
    pub fn wram_alloc(&mut self, words: usize) -> Result<WramRange, SimError> {
        let block = self.cfg.wram_block_words;
        let len = words.div_ceil(block) * block;
        if self.wram_next + len > self.cfg.wram_words {
            return Err(SimError::capacity(
                "wram scratchpad",
                self.wram_next + len,
                self.cfg.wram_words,
            ));
        }
        let range = WramRange { start: self.wram_next, len };
        self.wram_next += len;
        self.wram_peak = self.wram_peak.max(self.wram_next);
        Ok(range)
    }

    /// Releases all WRAM allocations (between DPUs or passes).
    pub fn wram_reset(&mut self) {
        self.wram_next = 0;
    }

    /// Cycles for one host↔MRAM bulk transfer of `len` words.
    fn host_cost(&self, len: usize) -> u64 {
        self.cfg.host_startup + (len as u64).div_ceil(self.cfg.host_words_per_cycle)
    }

    /// Cycles for one WRAM↔MRAM DMA transfer of `len` words.
    fn dma_cost(&self, len: usize) -> u64 {
        self.cfg.dma_startup + (len as u64).div_ceil(self.cfg.dma_words_per_cycle)
    }

    /// Bulk-pushes `len` words of host memory into one DPU's MRAM bank.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on out-of-bounds addresses, a detected fault,
    /// or an exhausted watchdog budget.
    pub fn host_push(
        &mut self,
        host_addr: usize,
        dpu: usize,
        mram_off: usize,
        len: usize,
    ) -> Result<(), SimError> {
        let base = self.mram_addr(dpu, mram_off, len)?;
        self.mram.copy_from(base, &self.host, host_addr, len)?;
        let cost = self.host_cost(len);
        self.host_hist.observe(cost);
        self.host_words += len as u64;
        self.account.charge(TRACK_HOST, "host_xfer", "host-to-mram", Cycles::new(cost));
        if self.faults.is_enabled() {
            // Words crossing the host↔module interface: flips corrupt the
            // MRAM copy (the data in flight), not the host original.
            let fx = self.faults.transfer(FaultDomain::Dram, host_addr, len);
            for flip in &fx.flips {
                let a = base + flip.offset;
                let word = self.mram.read_u32(a)?;
                self.mram.write_u32(a, word ^ flip.xor_mask)?;
            }
            self.account.charge_faults(TRACK_HOST, "transfer-retry", &fx)?;
        }
        self.account.check()
    }

    /// Bulk-pulls `len` words of one DPU's MRAM bank back to host memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on out-of-bounds addresses, a detected fault,
    /// or an exhausted watchdog budget.
    pub fn host_pull(
        &mut self,
        dpu: usize,
        mram_off: usize,
        host_addr: usize,
        len: usize,
    ) -> Result<(), SimError> {
        let base = self.mram_addr(dpu, mram_off, len)?;
        // An active stuck-at fault in the module's output interface
        // corrupts every `dpus`-th word of the outgoing bulk transfer.
        let stuck =
            if self.faults.is_enabled() { self.faults.stuck(FaultDomain::Dram) } else { None };
        self.host.copy_from(host_addr, &self.mram, base, len)?;
        if let Some(fault) = stuck {
            let lanes = self.cfg.dpus().max(1);
            for i in (fault.index % lanes..len).step_by(lanes) {
                let a = host_addr + i;
                let word = self.host.read_u32(a)?;
                self.host.write_u32(a, fault.force(word))?;
            }
        }
        let cost = self.host_cost(len);
        self.host_hist.observe(cost);
        self.host_words += len as u64;
        self.account.charge(TRACK_HOST, "host_xfer", "mram-to-host", Cycles::new(cost));
        if self.faults.is_enabled() {
            // Words leaving over the interface: flips corrupt the host
            // destination.
            let fx = self.faults.transfer(FaultDomain::Dram, base, len);
            for flip in &fx.flips {
                let a = host_addr + flip.offset;
                let word = self.host.read_u32(a)?;
                self.host.write_u32(a, word ^ flip.xor_mask)?;
            }
            self.account.charge_faults(TRACK_HOST, "transfer-retry", &fx)?;
        }
        self.account.check()
    }

    /// Boots the tasklets: opens a parallel DPU phase.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if a phase is already open, or
    /// [`SimError::BudgetExceeded`] from the watchdog.
    pub fn launch(&mut self) -> Result<(), SimError> {
        if self.phase.is_some() {
            return Err(SimError::unsupported("launch inside an open DPU phase"));
        }
        self.launches += 1;
        let boot = Cycles::new(self.cfg.launch_cycles);
        self.account.charge(TRACK_HOST, "launch", "tasklet-boot", boot);
        self.account.mark(TRACK_PIPELINE, "phase-begin");
        self.phase = Some(PhaseAcc {
            dma: vec![0; self.cfg.dpus()],
            instrs: vec![0; self.cfg.dpus()],
            dma_spent: 0,
            pipe_max: 0,
        });
        self.account.check()
    }

    /// DMA `len` words from one DPU's MRAM bank into its WRAM.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] outside a launched phase, on out-of-bounds
    /// addresses, a detected fault, or an exhausted watchdog budget.
    pub fn dma_read(
        &mut self,
        dpu: usize,
        mram_off: usize,
        dst: WramRange,
        len: usize,
    ) -> Result<(), SimError> {
        if len > dst.len {
            return Err(SimError::capacity("wram dma range", len, dst.len));
        }
        let base = self.mram_addr(dpu, mram_off, len)?;
        let cost = self.dma_cost(len);
        let Some(acc) = self.phase.as_mut() else {
            return Err(SimError::unsupported("dma_read outside a launched phase"));
        };
        self.wram.copy_from(dst.start, &self.mram, base, len)?;
        self.account.add_words(len as u64);
        acc.dma[dpu] += cost;
        acc.dma_spent += cost;
        let pending = acc.dma_spent;
        if self.faults.is_enabled() {
            // Words crossing the bank interface: flips corrupt the WRAM
            // copy.
            let fx = self.faults.transfer(FaultDomain::Dram, base, len);
            for flip in &fx.flips {
                let a = dst.start + flip.offset;
                let word = self.wram.read_u32(a)?;
                self.wram.write_u32(a, word ^ flip.xor_mask)?;
            }
            self.account.charge_faults(TRACK_HOST, "transfer-retry", &fx)?;
        }
        self.account.check_with(pending)
    }

    /// DMA `len` words from one DPU's WRAM back into its MRAM bank.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] outside a launched phase, on out-of-bounds
    /// addresses, a detected fault, or an exhausted watchdog budget.
    pub fn dma_write(
        &mut self,
        dpu: usize,
        src: WramRange,
        mram_off: usize,
        len: usize,
    ) -> Result<(), SimError> {
        if len > src.len {
            return Err(SimError::capacity("wram dma range", len, src.len));
        }
        let base = self.mram_addr(dpu, mram_off, len)?;
        let cost = self.dma_cost(len);
        let Some(acc) = self.phase.as_mut() else {
            return Err(SimError::unsupported("dma_write outside a launched phase"));
        };
        self.mram.copy_from(base, &self.wram, src.start, len)?;
        self.account.add_words(len as u64);
        acc.dma[dpu] += cost;
        acc.dma_spent += cost;
        let pending = acc.dma_spent;
        if self.faults.is_enabled() {
            // Words landing in the bank: flips corrupt the MRAM copy.
            let fx = self.faults.transfer(FaultDomain::Dram, base, len);
            for flip in &fx.flips {
                let a = base + flip.offset;
                let word = self.mram.read_u32(a)?;
                self.mram.write_u32(a, word ^ flip.xor_mask)?;
            }
            self.account.charge_faults(TRACK_HOST, "transfer-retry", &fx)?;
        }
        self.account.check_with(pending)
    }

    /// Issues `instrs` pipeline instructions on one DPU, of which `ops`
    /// retire as 32-bit arithmetic (software-emulated FP issues
    /// [`DpuConfig::fp_instrs_per_op`] instructions per flop).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] outside a launched phase, or
    /// [`SimError::BudgetExceeded`] from the watchdog.
    pub fn exec(&mut self, dpu: usize, instrs: u64, ops: u64) -> Result<(), SimError> {
        if dpu >= self.cfg.dpus() {
            return Err(SimError::capacity("dpu index", dpu + 1, self.cfg.dpus()));
        }
        let Some(acc) = self.phase.as_mut() else {
            return Err(SimError::unsupported("exec outside a launched phase"));
        };
        acc.instrs[dpu] = acc.instrs[dpu].saturating_add(instrs);
        acc.pipe_max = acc.pipe_max.max(pipeline_cycles(&self.cfg, acc.instrs[dpu]));
        let pending = acc.dma_spent.saturating_add(acc.pipe_max);
        self.account.add_ops(ops);
        self.account.check_with(pending)
    }

    /// Closes the phase: every DPU ran in parallel, so the slowest DPU's
    /// DMA and pipeline times are charged as the phase makespans
    /// (`mram_dma` and `tasklet`), and the rest of the module's work is
    /// recorded as hidden parallel cycles.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if no phase is open, or
    /// [`SimError::BudgetExceeded`] from the watchdog.
    pub fn sync(&mut self) -> Result<(), SimError> {
        let acc = self.phase.take().ok_or_else(|| SimError::unsupported("sync without launch"))?;
        let dma_max = acc.dma.iter().copied().max().unwrap_or(0);
        let dma_sum: u64 = acc.dma.iter().sum();
        let pipe_sum = acc
            .instrs
            .iter()
            .fold(0u64, |sum, &i| sum.saturating_add(pipeline_cycles(&self.cfg, i)));
        let account = &mut self.account;
        account.charge(TRACK_DMA, "mram_dma", "wram-mram-dma", Cycles::new(dma_max));
        account.charge(TRACK_PIPELINE, "tasklet", "revolving-pipeline", Cycles::new(acc.pipe_max));
        account.mark(TRACK_PIPELINE, "phase-end");
        account.hide((dma_sum - dma_max).saturating_add(pipe_sum - acc.pipe_max));
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
    /// Returns [`SimError::Unsupported`] if a phase is still open.
    pub fn finish(self) -> Result<KernelRun, SimError> {
        if self.phase.is_some() {
            return Err(SimError::unsupported("finish with open DPU phase"));
        }
        let mut metrics = MetricsReport::new();
        metrics.ratio("dpu.wram.occupancy", self.wram_peak as u64, self.cfg.wram_words as u64);
        metrics.counter("dpu.wram.peak_words", self.wram_peak as u64);
        metrics.counter("dpu.host.words", self.host_words);
        metrics.counter("dpu.host.launches", self.launches);
        metrics.set("dpu.host.xfer_cycles", Metric::Histogram(self.host_hist));
        self.account.finish(metrics)
    }
}

/// Cycles the revolving pipeline takes to issue `instrs` instructions on
/// one DPU, saturating at `u64::MAX`.
fn pipeline_cycles(cfg: &DpuConfig, instrs: u64) -> u64 {
    instrs.saturating_mul(cfg.revolve_depth).div_ceil(cfg.pipeline_fill())
}

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_simcore::faults::{StuckFault, TransferFaults};

    fn machine() -> DpuMachine {
        DpuMachine::new(&DpuConfig::paper()).unwrap()
    }

    #[test]
    fn wram_allocation_is_block_aligned() {
        let mut m = machine();
        let a = m.wram_alloc(5).unwrap();
        assert_eq!(a.start, 0);
        assert_eq!(a.len, 6); // rounded to 8-byte DMA blocks
        let b = m.wram_alloc(4).unwrap();
        assert_eq!(b.start, 6);
        m.wram_reset();
        assert_eq!(m.wram_alloc(1).unwrap().start, 0);
    }

    #[test]
    fn wram_overflow_is_capacity_error() {
        let mut m = machine();
        let err = m.wram_alloc(1024 * 1024).unwrap_err();
        assert!(matches!(err, SimError::Capacity { .. }));
    }

    #[test]
    fn host_transfers_move_real_data() {
        let mut m = machine();
        m.host_mut().write_block_u32(10, &[1, 2, 3, 4]).unwrap();
        m.host_push(10, 3, 100, 4).unwrap();
        m.host_pull(3, 100, 500, 4).unwrap();
        assert_eq!(m.host().read_block_u32(500, 4).unwrap(), vec![1, 2, 3, 4]);
        assert!(m.cycles() > Cycles::ZERO);
        assert_eq!(m.finish().unwrap().breakdown.get("host_xfer").get(), 2 * (64 + 1));
    }

    #[test]
    fn dma_moves_data_and_charges_makespan_at_sync() {
        let mut m = machine();
        m.host_mut().write_block_u32(0, &[9; 8]).unwrap();
        m.host_push(0, 0, 0, 8).unwrap();
        m.launch().unwrap();
        let r = m.wram_alloc(8).unwrap();
        m.dma_read(0, 0, r, 8).unwrap();
        m.dma_write(0, r, 64, 8).unwrap();
        let launched = m.cycles();
        m.sync().unwrap();
        assert_eq!(m.cycles() - launched, Cycles::new(2 * (32 + 8)), "charged only at sync");
        m.host_pull(0, 64, 100, 8).unwrap();
        assert_eq!(m.host().read_block_u32(100, 8).unwrap(), vec![9; 8]);
        assert_eq!(m.finish().unwrap().breakdown.get("mram_dma").get(), 2 * (32 + 8));
    }

    #[test]
    fn pipeline_rate_follows_tasklet_fill() {
        // 16 tasklets saturate the 11-deep pipeline: 1 instr/cycle.
        let mut m = machine();
        m.launch().unwrap();
        m.exec(0, 1100, 0).unwrap();
        m.sync().unwrap();
        assert_eq!(m.finish().unwrap().breakdown.get("tasklet").get(), 1100);
        // 2 tasklets leave 9 of 11 slots revolving empty.
        let mut cfg = DpuConfig::paper();
        cfg.tasklets = 2;
        let mut m = DpuMachine::new(&cfg).unwrap();
        m.launch().unwrap();
        m.exec(0, 1100, 0).unwrap();
        m.sync().unwrap();
        assert_eq!(m.finish().unwrap().breakdown.get("tasklet").get(), 1100 * 11 / 2);
    }

    #[test]
    fn phase_charges_slowest_dpu_and_hides_the_rest() {
        let mut m = machine();
        m.launch().unwrap();
        m.exec(0, 100, 0).unwrap();
        m.exec(1, 300, 0).unwrap();
        m.sync().unwrap();
        let run = m.finish().unwrap();
        assert_eq!(run.breakdown.get("tasklet").get(), 300);
        assert_eq!(run.metrics.counter_value("dpu.run.hidden_cycles"), Some(100));
    }

    #[test]
    fn phase_misuse_is_error() {
        let mut m = machine();
        assert!(m.sync().is_err());
        let r = WramRange { start: 0, len: 4 };
        assert!(m.dma_read(0, 0, r, 4).is_err());
        assert!(m.exec(0, 1, 0).is_err());
        m.launch().unwrap();
        assert!(m.launch().is_err());
        assert!(m.clone().finish().is_err());
    }

    #[test]
    fn out_of_range_dpu_or_bank_is_capacity_error() {
        let mut m = machine();
        assert!(matches!(m.host_push(0, 128, 0, 1), Err(SimError::Capacity { .. })));
        let words = DpuConfig::paper().mram_words_per_dpu;
        assert!(matches!(m.host_push(0, 0, words, 1), Err(SimError::Capacity { .. })));
        m.launch().unwrap();
        assert!(matches!(m.exec(128, 1, 0), Err(SimError::Capacity { .. })));
    }

    #[test]
    fn finish_carries_metrics() {
        let mut m = machine();
        m.host_mut().write_block_u32(0, &[7; 64]).unwrap();
        m.host_push(0, 0, 0, 64).unwrap();
        m.launch().unwrap();
        let r = m.wram_alloc(64).unwrap();
        m.dma_read(0, 0, r, 64).unwrap();
        m.exec(0, 64, 64).unwrap();
        m.sync().unwrap();
        let run = m.finish().unwrap();
        assert_eq!(run.metrics.counter_sum("dpu.cycles."), run.cycles.get());
        assert_eq!(run.metrics.counter_value("dpu.wram.peak_words"), Some(64));
        assert_eq!(run.metrics.counter_value("dpu.host.words"), Some(64));
        assert_eq!(run.metrics.counter_value("dpu.run.ops"), Some(64));
        assert!(run.metrics.get("dpu.host.xfer_cycles").is_some());
    }

    #[test]
    fn overrunning_transfers_fail_before_moving_a_word() {
        let mut m = machine();
        let (host_words, wram_words) = (m.host.len(), m.wram.len());
        m.host_mut().write_block_u32(host_words - 4, &[1, 2, 3, 4]).unwrap();
        m.wram_mut().write_block_u32(wram_words - 4, &[5, 6, 7, 8]).unwrap();
        let (host, mram, wram) = (m.host.clone(), m.mram.clone(), m.wram.clone());
        let untouched = |m: &DpuMachine| m.host == host && m.mram == mram && m.wram == wram;
        let host_end = |end| Err(SimError::OutOfBounds { addr: end, size: host_words });
        let wram_end = |end| Err(SimError::OutOfBounds { addr: end, size: wram_words });
        // The source runs past host memory, then the destination does.
        assert_eq!(m.host_push(host_words - 4, 0, 0, 8), host_end(host_words + 4));
        assert!(untouched(&m));
        assert_eq!(m.host_pull(0, 0, host_words - 2, 4), host_end(host_words + 2));
        assert!(untouched(&m));
        assert_eq!(m.cycles(), Cycles::ZERO, "a refused transfer charges nothing");
        // A WRAM range past the scratchpad, as destination and as source.
        m.launch().unwrap();
        let launched = m.cycles();
        let tail = WramRange { start: wram_words - 2, len: 4 };
        assert_eq!(m.dma_read(0, 0, tail, 4), wram_end(wram_words + 2));
        assert_eq!(m.dma_write(0, tail, 0, 4), wram_end(wram_words + 2));
        assert!(untouched(&m));
        assert_eq!(m.cycles(), launched);
    }

    #[test]
    fn calls_outside_a_phase_move_and_count_nothing() {
        let mut m = machine();
        m.host_mut().write_block_u32(0, &[9; 8]).unwrap();
        m.host_push(0, 0, 0, 8).unwrap();
        let (mram, wram, cycles) = (m.mram.clone(), m.wram.clone(), m.cycles());
        let r = WramRange { start: 0, len: 8 };
        for err in [m.dma_read(0, 0, r, 8), m.dma_write(0, r, 64, 8), m.exec(0, 5, 5)] {
            assert!(matches!(err, Err(SimError::Unsupported { .. })), "{err:?}");
        }
        assert!(m.mram == mram && m.wram == wram && m.cycles() == cycles);
        let run = m.finish().unwrap();
        assert_eq!((run.mem_words, run.ops_executed), (0, 0));
    }

    #[test]
    fn exec_checks_the_watchdog_and_pipeline_cycles_saturate() {
        let budget = CycleBudget::limited(1_000_000);
        let mut m =
            DpuMachine::with_hooks(&DpuConfig::paper(), NullSink, NoFaults, budget).unwrap();
        m.launch().unwrap();
        let err = m.exec(0, u64::MAX / 2, 0).and_then(|()| m.sync()).unwrap_err();
        assert!(matches!(err, SimError::BudgetExceeded { .. }), "{err}");

        // Unlimited: the instruction sum and its pipeline cycles saturate.
        let mut m = machine();
        m.launch().unwrap();
        for dpu in [0, 0, 1] {
            m.exec(dpu, u64::MAX / 2, 0).unwrap();
        }
        m.sync().unwrap();
        let tasklet = m.finish().unwrap().breakdown.get("tasklet").get();
        assert_eq!(tasklet, u64::MAX.div_ceil(DpuConfig::paper().pipeline_fill()));
    }

    /// Reports one stuck-at fault on the module's output interface.
    struct StuckOutput(StuckFault);

    impl FaultHook for StuckOutput {
        fn transfer(&mut self, _: FaultDomain, _: usize, _: usize) -> TransferFaults {
            TransferFaults::default()
        }

        fn stuck(&mut self, domain: FaultDomain) -> Option<StuckFault> {
            (domain == FaultDomain::Dram).then_some(self.0)
        }
    }

    #[test]
    fn stuck_pull_forces_every_dpus_th_word_from_the_fault_index() {
        let cfg = DpuConfig::paper();
        let lanes = cfg.dpus();
        let words: Vec<u32> =
            (0..3 * lanes as u32 + 5).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        for fault in [
            StuckFault { index: 0, bit: 0, stuck_one: true },
            StuckFault { index: lanes + 7, bit: 31, stuck_one: false },
            StuckFault { index: 3 * lanes - 1, bit: 12, stuck_one: true },
        ] {
            let mut m =
                DpuMachine::with_hooks(&cfg, NullSink, StuckOutput(fault), CycleBudget::UNLIMITED)
                    .unwrap();
            m.host_mut().write_block_u32(0, &words).unwrap();
            m.host_push(0, 5, 10, words.len()).unwrap();
            // The pull lands across a host page boundary.
            let at = 5_000;
            m.host_pull(5, 10, at, words.len()).unwrap();
            let per_word: Vec<u32> = words
                .iter()
                .enumerate()
                .map(|(i, &v)| if i % lanes == fault.index % lanes { fault.force(v) } else { v })
                .collect();
            assert_eq!(m.host().read_block_u32(at, words.len()).unwrap(), per_word, "{fault:?}");
            assert_ne!(per_word, words, "the fault changes the pull");
        }
    }

    #[test]
    fn tiny_budget_trips_on_first_transfer() {
        let budget = CycleBudget::limited(10);
        let mut m =
            DpuMachine::with_hooks(&DpuConfig::paper(), NullSink, NoFaults, budget).unwrap();
        let err = m.host_push(0, 0, 0, 4).unwrap_err();
        assert!(matches!(err, SimError::BudgetExceeded { .. }));
    }
}
