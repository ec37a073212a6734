//! The VIRAM vector unit: a functional vector register machine with
//! microarchitectural cycle accounting.
//!
//! Every operation both *executes* (on real register/memory contents) and
//! *charges* cycles according to the configuration: sequential loads move
//! 8 words/cycle, strided loads 4 (address-generator limit), integer
//! arithmetic retires 16 ops/cycle across both ALUs, floating point 8
//! (ALU0 only), and each vector instruction pays a startup cost.
//!
//! Kernel programs may bracket a producer/consumer region with
//! [`VectorUnit::begin_overlap`]/[`VectorUnit::end_overlap`]; within the
//! region memory and compute cycles accumulate independently and only the
//! larger is charged, modeling the deep decoupling between the DRAM
//! interface and the vector pipeline.

use triarch_simcore::faults::{FaultDomain, FaultHook, NoFaults, TransferFaults};
use triarch_simcore::metrics::{Histogram, Metric, MetricsReport};
use triarch_simcore::trace::{NullSink, TraceSink};
use triarch_simcore::{
    AccessPattern, CycleBudget, CycleLedger, Cycles, DramModel, KernelRun, SimError, Verification,
    WordMemory,
};

use crate::config::ViramConfig;
use crate::tlb::Tlb;

/// Trace track for the memory pipeline (loads/stores, precharge, TLB).
const TRACK_MEM: &str = "viram.mem";
/// Trace track for the vector/scalar pipelines (compute, shuffle, startup).
const TRACK_VEC: &str = "viram.vec";
/// Trace track for DRAM cost decomposition detail (uncounted).
const TRACK_DRAM: &str = "viram.dram";

/// Floating-point vector operations (execute on ALU0 only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpOp {
    /// Lane-wise addition.
    Add,
    /// Lane-wise subtraction.
    Sub,
    /// Lane-wise multiplication.
    Mul,
}

/// Integer vector operations (execute on either ALU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntOp {
    /// Lane-wise wrapping addition.
    Add,
    /// Lane-wise wrapping subtraction.
    Sub,
    /// Lane-wise arithmetic shift right by the scalar operand.
    Shr,
}

#[derive(Debug, Default, Clone)]
struct OverlapAcc {
    /// Memory-side per-category totals: a [`CycleLedger`] keeps
    /// `&'static str` keys in first-charge order so the winner can be
    /// replayed as counted trace spans at [`VectorUnit::end_overlap`].
    mem: CycleLedger,
    compute: CycleLedger,
    /// Cycle cursor (== charged total) when the region opened.
    start: u64,
}

/// The functional-plus-timing vector unit.
///
/// Generic over a [`TraceSink`] and a [`FaultHook`]; the defaults
/// ([`NullSink`], [`NoFaults`]) are statically dispatched, disabled, and
/// empty, so an untraced, unfaulted unit pays nothing for either kind of
/// instrumentation.
#[derive(Debug, Clone)]
pub struct VectorUnit<S: TraceSink = NullSink, F: FaultHook = NoFaults> {
    cfg: ViramConfig,
    regs: Vec<Vec<u32>>,
    mem: WordMemory,
    dram: DramModel,
    tlb: Tlb,
    ledger: CycleLedger,
    hidden: Cycles,
    ops: u64,
    mem_words: u64,
    overlap: Option<OverlapAcc>,
    /// Fixed-bucket histogram of per-transfer DRAM occupancy cycles.
    mem_hist: Histogram,
    budget: CycleBudget,
    /// Simulated activity the watchdog counts: *all* charged cycles,
    /// including both sides of an overlap region (so a region cannot hide
    /// unbounded work from the budget).
    spent: u64,
    sink: S,
    faults: F,
}

impl VectorUnit<NullSink, NoFaults> {
    /// Builds an untraced, unfaulted vector unit (register file, DRAM,
    /// TLB) with an unlimited budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn new(cfg: &ViramConfig) -> Result<Self, SimError> {
        Self::with_hooks(cfg, NullSink, NoFaults, CycleBudget::UNLIMITED)
    }
}

impl<S: TraceSink, F: FaultHook> VectorUnit<S, F> {
    /// Builds a vector unit with a trace sink, a fault hook and a watchdog
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn with_hooks(
        cfg: &ViramConfig,
        sink: S,
        faults: F,
        budget: CycleBudget,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(VectorUnit {
            regs: vec![vec![0; cfg.mvl]; cfg.vregs],
            mem: WordMemory::new(cfg.dram_words),
            dram: DramModel::new(cfg.dram)?,
            tlb: Tlb::new(cfg.tlb_entries, cfg.page_words),
            ledger: CycleLedger::new(),
            hidden: Cycles::ZERO,
            ops: 0,
            mem_words: 0,
            overlap: None,
            mem_hist: Histogram::cycles(),
            budget,
            spent: 0,
            cfg: cfg.clone(),
            sink,
            faults,
        })
    }

    /// The on-chip memory, for workload setup and result extraction
    /// (setup traffic is not charged — data is resident, as in the paper).
    pub fn memory_mut(&mut self) -> &mut WordMemory {
        &mut self.mem
    }

    /// Immutable view of the on-chip memory.
    #[must_use]
    pub fn memory(&self) -> &WordMemory {
        &self.mem
    }

    /// Borrow of a vector register's elements.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an out-of-range register.
    pub fn reg(&self, vr: usize) -> Result<&[u32], SimError> {
        self.regs
            .get(vr)
            .map(Vec::as_slice)
            .ok_or_else(|| SimError::invalid_config(format!("vector register v{vr} out of range")))
    }

    fn check_vl(&self, vl: usize) -> Result<(), SimError> {
        if vl == 0 || vl > self.cfg.mvl {
            return Err(SimError::invalid_config(format!(
                "vector length {vl} outside 1..={}",
                self.cfg.mvl
            )));
        }
        Ok(())
    }

    fn check_reg(&self, vr: usize) -> Result<(), SimError> {
        if vr >= self.cfg.vregs {
            return Err(SimError::invalid_config(format!("vector register v{vr} out of range")));
        }
        Ok(())
    }

    fn charge(&mut self, is_mem: bool, category: &'static str, name: &'static str, cycles: Cycles) {
        if cycles == Cycles::ZERO {
            return;
        }
        self.spent += cycles.get();
        let track = if is_mem { TRACK_MEM } else { TRACK_VEC };
        match &mut self.overlap {
            Some(acc) => {
                let side = if is_mem { &mut acc.mem } else { &mut acc.compute };
                if self.sink.is_enabled() {
                    // Inside an overlap region only the slower pipeline will
                    // be charged (at end_overlap); per-op spans here are
                    // uncounted detail on each pipeline's own timeline.
                    let at = acc.start + side.total().get();
                    self.sink.span_uncounted(track, category, name, at, cycles.get());
                }
                side.charge(category, cycles);
            }
            None => {
                if self.sink.is_enabled() {
                    let at = self.ledger.total().get();
                    self.sink.span(track, category, name, at, cycles.get());
                }
                self.ledger.charge(category, cycles);
            }
        }
    }

    /// Opens an overlap region (memory pipeline ∥ vector pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if a region is already open.
    pub fn begin_overlap(&mut self) -> Result<(), SimError> {
        if self.overlap.is_some() {
            return Err(SimError::unsupported("nested overlap regions"));
        }
        let start = self.ledger.total().get();
        if self.sink.is_enabled() {
            self.sink.instant(TRACK_VEC, "overlap-begin", start);
        }
        self.overlap = Some(OverlapAcc { start, ..OverlapAcc::default() });
        Ok(())
    }

    /// Closes the overlap region: the slower of the two pipelines is
    /// charged; the faster pipeline's cycles are recorded as hidden.
    ///
    /// When tracing, the winning side's per-category totals are emitted as
    /// *counted* spans tiling `[start, start + winner_total)`, so the trace
    /// aggregation reproduces the breakdown exactly while the per-op detail
    /// recorded during the region stays uncounted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if no region is open.
    pub fn end_overlap(&mut self) -> Result<(), SimError> {
        let acc = self
            .overlap
            .take()
            .ok_or_else(|| SimError::unsupported("end_overlap without begin_overlap"))?;
        let mem_total = acc.mem.total();
        let comp_total = acc.compute.total();
        let (winner, winner_track, hidden) = if mem_total >= comp_total {
            (&acc.mem, TRACK_MEM, comp_total)
        } else {
            (&acc.compute, TRACK_VEC, mem_total)
        };
        if self.sink.is_enabled() {
            let mut t = acc.start;
            for (category, cycles) in winner.iter() {
                self.sink.span(winner_track, category, "overlap-charged", t, cycles.get());
                t += cycles.get();
            }
            self.sink.instant(TRACK_VEC, "overlap-end", t);
        }
        for (category, cycles) in winner.iter() {
            self.ledger.charge(category, cycles);
        }
        self.hidden += hidden;
        self.budget.check(self.spent)
    }

    fn mem_op(
        &mut self,
        addr: usize,
        pattern: AccessPattern,
        vl: usize,
        name: &'static str,
    ) -> Result<(), SimError> {
        // The vector unit issues unit-stride and strided streams only.
        let stride = match pattern {
            AccessPattern::Strided { stride_words } => stride_words,
            _ => 1,
        };
        let misses = self.tlb.access_strided(addr, stride, vl);
        let cursor = self.mem_cursor();
        let cost =
            self.dram.transfer_observed(addr, vl, pattern, &mut self.sink, TRACK_DRAM, cursor)?;
        self.mem_hist.observe(cost.total.get());
        self.mem_words += vl as u64;
        self.charge(
            true,
            "memory",
            name,
            cost.data + cost.startup + Cycles::new(self.cfg.mem_startup),
        );
        self.charge(true, "precharge", "row-precharge-activate", cost.overhead);
        self.charge(true, "tlb", "tlb-miss-stall", Cycles::new(misses * self.cfg.tlb_miss_cycles));
        if self.faults.is_enabled() {
            let fx = self.faults.transfer(FaultDomain::Dram, addr, vl);
            self.apply_dram_faults(addr, pattern, &fx)?;
        }
        self.budget.check(self.spent)
    }

    /// Applies a fault hook's verdict on one DRAM transfer: flips land in
    /// the backing memory (at the transfer's own addressing), ECC and
    /// retry costs are charged as their own breakdown categories, and an
    /// unrecoverable failure aborts the run.
    fn apply_dram_faults(
        &mut self,
        addr: usize,
        pattern: AccessPattern,
        fx: &TransferFaults,
    ) -> Result<(), SimError> {
        if fx.is_clean() {
            return Ok(());
        }
        for flip in &fx.flips {
            let a = pattern.word(addr, flip.offset);
            let word = self.mem.read_u32(a)?;
            self.mem.write_u32(a, word ^ flip.xor_mask)?;
        }
        self.charge(true, "ecc", "ecc-correct", Cycles::new(fx.ecc_cycles));
        self.charge(true, "retry", "dram-retry", Cycles::new(fx.retry_cycles));
        match &fx.failure {
            Some(what) => Err(SimError::detected_fault(what.clone())),
            None => Ok(()),
        }
    }

    /// Applies an active stuck-at vector-lane fault to the `vl` computed
    /// elements of `dst`: element `i` executes on physical lane
    /// `i mod lanes`, so the stuck lane corrupts every `lanes`-th element.
    fn apply_stuck_lane(&mut self, dst: usize, vl: usize) {
        if !self.faults.is_enabled() {
            return;
        }
        if let Some(fault) = self.faults.stuck(FaultDomain::VectorLane) {
            let lanes = self.cfg.lanes.max(1);
            let mut i = fault.index % lanes;
            while i < vl {
                self.regs[dst][i] = fault.force(self.regs[dst][i]);
                i += lanes;
            }
        }
    }

    /// Current cycle position of the memory pipeline (for span placement).
    fn mem_cursor(&self) -> u64 {
        match &self.overlap {
            Some(acc) => acc.start + acc.mem.total().get(),
            None => self.ledger.total().get(),
        }
    }

    /// Unit-stride vector load.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for bad registers/lengths or out-of-bounds
    /// addresses.
    pub fn vload_unit(&mut self, vr: usize, addr: usize, vl: usize) -> Result<(), SimError> {
        self.check_reg(vr)?;
        self.check_vl(vl)?;
        self.mem.read_into(addr, &mut self.regs[vr][..vl])?;
        self.mem_op(addr, AccessPattern::Sequential, vl, "vload.unit")
    }

    /// Strided vector load (one element every `stride` words).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for bad registers/lengths/strides or
    /// out-of-bounds addresses.
    pub fn vload_strided(
        &mut self,
        vr: usize,
        addr: usize,
        stride: usize,
        vl: usize,
    ) -> Result<(), SimError> {
        self.check_reg(vr)?;
        self.check_vl(vl)?;
        let pattern = AccessPattern::Strided { stride_words: stride };
        pattern.check()?;
        for i in 0..vl {
            self.regs[vr][i] = self.mem.read_u32(pattern.word(addr, i))?;
        }
        self.mem_op(addr, pattern, vl, "vload.strided")
    }

    /// Unit-stride vector store.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for bad registers/lengths or out-of-bounds
    /// addresses.
    pub fn vstore_unit(&mut self, vr: usize, addr: usize, vl: usize) -> Result<(), SimError> {
        self.check_reg(vr)?;
        self.check_vl(vl)?;
        self.mem.write_block_u32(addr, &self.regs[vr][..vl])?;
        self.mem_op(addr, AccessPattern::Sequential, vl, "vstore.unit")
    }

    /// Strided vector store.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for bad registers/lengths/strides or
    /// out-of-bounds addresses.
    pub fn vstore_strided(
        &mut self,
        vr: usize,
        addr: usize,
        stride: usize,
        vl: usize,
    ) -> Result<(), SimError> {
        self.check_reg(vr)?;
        self.check_vl(vl)?;
        let pattern = AccessPattern::Strided { stride_words: stride };
        pattern.check()?;
        for i in 0..vl {
            let v = self.regs[vr][i];
            self.mem.write_u32(pattern.word(addr, i), v)?;
        }
        self.mem_op(addr, pattern, vl, "vstore.strided")
    }

    /// Lane-wise floating-point operation `dst = a (op) b` over `vl`
    /// lanes. FP executes on ALU0 only: 8 ops/cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for bad registers or lengths.
    pub fn vfp(
        &mut self,
        op: FpOp,
        dst: usize,
        a: usize,
        b: usize,
        vl: usize,
    ) -> Result<(), SimError> {
        self.check_reg(dst)?;
        self.check_reg(a)?;
        self.check_reg(b)?;
        self.check_vl(vl)?;
        for i in 0..vl {
            let x = f32::from_bits(self.regs[a][i]);
            let y = f32::from_bits(self.regs[b][i]);
            let r = match op {
                FpOp::Add => x + y,
                FpOp::Sub => x - y,
                FpOp::Mul => x * y,
            };
            self.regs[dst][i] = r.to_bits();
        }
        self.apply_stuck_lane(dst, vl);
        self.ops += vl as u64;
        let data = vl.div_ceil(self.cfg.fp_ops_per_cycle()) as u64;
        self.charge(false, "compute", "vfp", Cycles::new(data));
        self.charge(false, "startup", "vector-startup", Cycles::new(self.cfg.vector_startup));
        self.budget.check(self.spent)
    }

    /// Lane-wise integer operation; `Shr` shifts by the scalar `imm`
    /// (register `b` is ignored for `Shr`). Integer ops use both ALUs:
    /// 16 ops/cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for bad registers or lengths.
    pub fn vint(
        &mut self,
        op: IntOp,
        dst: usize,
        a: usize,
        b: usize,
        imm: u32,
        vl: usize,
    ) -> Result<(), SimError> {
        self.check_reg(dst)?;
        self.check_reg(a)?;
        self.check_reg(b)?;
        self.check_vl(vl)?;
        for i in 0..vl {
            let x = self.regs[a][i] as i32;
            let y = self.regs[b][i] as i32;
            let r = match op {
                IntOp::Add => x.wrapping_add(y),
                IntOp::Sub => x.wrapping_sub(y),
                IntOp::Shr => x >> (imm & 31),
            };
            self.regs[dst][i] = r as u32;
        }
        self.apply_stuck_lane(dst, vl);
        self.ops += vl as u64;
        let data = vl.div_ceil(self.cfg.int_ops_per_cycle()) as u64;
        self.charge(false, "compute", "vint", Cycles::new(data));
        self.charge(false, "startup", "vector-startup", Cycles::new(self.cfg.vector_startup));
        self.budget.check(self.spent)
    }

    /// Broadcasts a scalar into every lane of `dst` (free-ish setup op).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for bad registers or lengths.
    pub fn vsplat(&mut self, dst: usize, value: u32, vl: usize) -> Result<(), SimError> {
        self.check_reg(dst)?;
        self.check_vl(vl)?;
        for i in 0..vl {
            self.regs[dst][i] = value;
        }
        self.charge(false, "startup", "vsplat", Cycles::new(self.cfg.vector_startup));
        self.budget.check(self.spent)
    }

    /// Writes explicit lane values into `dst` (used for twiddle/index
    /// tables; charged as a unit-stride load of `vl` words from DRAM).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for bad registers or lengths.
    pub fn vset_table(&mut self, dst: usize, values: &[u32]) -> Result<(), SimError> {
        self.check_reg(dst)?;
        self.check_vl(values.len())?;
        self.regs[dst][..values.len()].copy_from_slice(values);
        // Tables live in DRAM; loading one costs a unit-stride burst.
        self.charge(
            true,
            "memory",
            "vset-table",
            Cycles::new(
                values.len().div_ceil(self.cfg.dram.seq_words_per_cycle as usize) as u64
                    + self.cfg.mem_startup,
            ),
        );
        self.mem_words += values.len() as u64;
        self.budget.check(self.spent)
    }

    /// Register-to-register permute: `dst[i] = src(idx[i])` where indices
    /// `0..mvl` select from `a` and `mvl..2·mvl` from `b`. Permutes run on
    /// the integer ALUs and can partially overlap FP work
    /// (`int_visibility`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for bad registers, lengths, or indices.
    pub fn vperm2(
        &mut self,
        dst: usize,
        a: usize,
        b: usize,
        idx: &[usize],
    ) -> Result<(), SimError> {
        self.check_reg(dst)?;
        self.check_reg(a)?;
        self.check_reg(b)?;
        self.check_vl(idx.len())?;
        let mvl = self.cfg.mvl;
        let mut out = vec![0u32; idx.len()];
        for (i, &j) in idx.iter().enumerate() {
            out[i] = if j < mvl {
                self.regs[a][j]
            } else if j < 2 * mvl {
                self.regs[b][j - mvl]
            } else {
                return Err(SimError::invalid_config(format!("permute index {j} out of range")));
            };
        }
        self.regs[dst][..idx.len()].copy_from_slice(&out);
        let raw = idx.len().div_ceil(self.cfg.int_ops_per_cycle()) as u64;
        let visible = ((raw as f64) * self.cfg.int_visibility).ceil() as u64;
        self.charge(false, "shuffle", "vperm2", Cycles::new(visible));
        self.charge(false, "startup", "vector-startup", Cycles::new(self.cfg.vector_startup));
        self.budget.check(self.spent)
    }

    /// Charges scalar-core cycles (loop control, address arithmetic).
    pub fn scalar(&mut self, cycles: u64) {
        self.charge(false, "scalar", "scalar-core", Cycles::new(cycles));
    }

    /// Charges an off-chip DMA transfer of `words` at the configured
    /// off-chip rate (paper Table 1: 2 words/cycle). Used when a working
    /// set exceeds the on-chip DRAM — "the data needs to come from
    /// off-chip memory and VIRAM would lose much of its advantage"
    /// (paper Section 4.6).
    pub fn dma(&mut self, words: usize) {
        let data = (words as u64).div_ceil(u64::from(self.cfg.offchip_words_per_cycle));
        self.mem_words += words as u64;
        self.charge(true, "dma", "dma-offchip", Cycles::new(data + self.cfg.offchip_startup));
    }

    /// Total cycles charged so far.
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        self.ledger.total()
    }

    /// Cycles hidden by overlap regions (not part of the total).
    #[must_use]
    pub fn hidden_cycles(&self) -> Cycles {
        self.hidden
    }

    /// TLB miss count.
    #[must_use]
    pub fn tlb_misses(&self) -> u64 {
        self.tlb.misses()
    }

    /// Consumes the unit into a [`KernelRun`] whose verification is
    /// left [`Verification::Unchecked`]: the program returns its output
    /// beside the run, and the blanket `SignalMachine` impl checks it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if an overlap region is still
    /// open.
    pub fn finish(self) -> Result<KernelRun, SimError> {
        if self.overlap.is_some() {
            return Err(SimError::unsupported("finish with open overlap region"));
        }
        let breakdown = self.ledger.into_breakdown();
        let total = breakdown.total();
        let mut metrics = MetricsReport::new();
        breakdown.export_metrics(&mut metrics, "viram.cycles");
        self.dram.export_metrics(&mut metrics, "viram.dram");
        self.budget.export_metrics(&mut metrics, "viram.budget", self.spent);
        metrics.counter("viram.tlb.misses", self.tlb.misses());
        metrics.counter("viram.run.ops", self.ops);
        metrics.counter("viram.run.mem_words", self.mem_words);
        metrics.counter("viram.run.hidden_cycles", self.hidden.get());
        metrics.ratio(
            "viram.mem.ag_occupancy",
            self.dram.words_transferred(),
            self.dram
                .busy_cycles()
                .saturating_mul(u64::from(self.dram.config().seq_words_per_cycle)),
        );
        metrics.bandwidth("viram.run.achieved_bw", self.mem_words, total.get());
        metrics.bandwidth("viram.run.achieved_ops", self.ops, total.get());
        metrics.set("viram.mem.xfer_cycles", Metric::Histogram(self.mem_hist));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> VectorUnit {
        VectorUnit::new(&ViramConfig::paper()).unwrap()
    }

    #[test]
    fn load_compute_store_roundtrip() {
        let mut u = unit();
        u.memory_mut().write_block_f32(0, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        u.memory_mut().write_block_f32(100, &[10.0, 20.0, 30.0, 40.0]).unwrap();
        u.vload_unit(0, 0, 4).unwrap();
        u.vload_unit(1, 100, 4).unwrap();
        u.vfp(FpOp::Add, 2, 0, 1, 4).unwrap();
        u.vstore_unit(2, 200, 4).unwrap();
        assert_eq!(u.memory().read_block_f32(200, 4).unwrap(), vec![11.0, 22.0, 33.0, 44.0]);
        assert!(u.cycles() > Cycles::ZERO);
    }

    #[test]
    fn strided_load_gathers_columns() {
        let mut u = unit();
        // 4x4 matrix at 0, row-major; column 1 = elements 1, 5, 9, 13.
        for i in 0..16u32 {
            u.memory_mut().write_u32(i as usize, i).unwrap();
        }
        u.vload_strided(3, 1, 4, 4).unwrap();
        assert_eq!(&u.reg(3).unwrap()[..4], &[1, 5, 9, 13]);
    }

    #[test]
    fn fp_is_slower_than_int_per_element() {
        let mut a = unit();
        a.vfp(FpOp::Mul, 0, 1, 2, 64).unwrap();
        let fp_compute = a.cycles();
        let mut b = unit();
        b.vint(IntOp::Add, 0, 1, 2, 0, 64).unwrap();
        let int_compute = b.cycles();
        // 64 lanes: fp = 8 cycles + startup, int = 4 cycles + startup.
        assert!(fp_compute > int_compute);
    }

    #[test]
    fn int_shift_is_arithmetic() {
        let mut u = unit();
        u.vsplat(0, (-64i32) as u32, 4).unwrap();
        u.vint(IntOp::Shr, 1, 0, 0, 4, 4).unwrap();
        assert_eq!(u.reg(1).unwrap()[0] as i32, -4);
    }

    #[test]
    fn perm2_crosses_registers() {
        let mut u = unit();
        u.vsplat(0, 7, 64).unwrap();
        u.vsplat(1, 9, 64).unwrap();
        let idx: Vec<usize> = vec![0, 64, 1, 65];
        u.vperm2(2, 0, 1, &idx).unwrap();
        assert_eq!(&u.reg(2).unwrap()[..4], &[7, 9, 7, 9]);
        assert!(u.vperm2(2, 0, 1, &[999]).is_err());
    }

    #[test]
    fn overlap_charges_max_side() {
        let mut u = unit();
        u.begin_overlap().unwrap();
        u.memory_mut().write_block_u32(0, &[0; 64]).unwrap();
        u.vload_unit(0, 0, 64).unwrap(); // memory side
        u.vfp(FpOp::Add, 1, 0, 0, 8).unwrap(); // small compute side
        u.end_overlap().unwrap();
        // Memory dominated: compute cycles hidden.
        assert!(u.hidden_cycles() > Cycles::ZERO);
        assert_eq!(u.breakdown_fraction_compute(), 0.0);
    }

    impl VectorUnit {
        fn breakdown_fraction_compute(&self) -> f64 {
            self.ledger.fraction("compute")
        }
    }

    #[test]
    fn overlap_misuse_is_error() {
        let mut u = unit();
        assert!(u.end_overlap().is_err());
        u.begin_overlap().unwrap();
        assert!(u.begin_overlap().is_err());
        assert!(u.clone().finish().is_err());
        u.end_overlap().unwrap();
        assert!(u.finish().is_ok());
    }

    #[test]
    fn invalid_requests_are_errors() {
        let mut u = unit();
        assert!(u.vload_unit(99, 0, 4).is_err());
        assert!(u.vload_unit(0, 0, 0).is_err());
        assert!(u.vload_unit(0, 0, 65).is_err());
        assert!(u.vload_strided(0, 0, 0, 4).is_err());
        assert!(u.vload_unit(0, usize::MAX - 2, 4).is_err());
    }

    #[test]
    fn zero_strides_are_refused_before_data_moves() {
        let mut u = unit();
        u.memory_mut().write_u32(100, 77).unwrap();
        u.vsplat(0, 4, 4).unwrap();
        let err = u.vstore_strided(0, 100, 0, 4).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        assert_eq!(u.memory().read_u32(100).unwrap(), 77);

        u.memory_mut().write_u32(200, 9).unwrap();
        u.vsplat(1, 3, 4).unwrap();
        let err = u.vload_strided(1, 200, 0, 4).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        assert_eq!(&u.reg(1).unwrap()[..4], &[3, 3, 3, 3]);
        assert_eq!(u.tlb_misses(), 0);
    }

    #[test]
    fn finish_reports_ops_and_words() {
        let mut u = unit();
        u.memory_mut().write_block_u32(0, &[1; 64]).unwrap();
        u.vload_unit(0, 0, 64).unwrap();
        u.vint(IntOp::Add, 1, 0, 0, 0, 64).unwrap();
        let run = u.finish().unwrap();
        assert_eq!(run.ops_executed, 64);
        assert_eq!(run.mem_words, 64);
        assert!(run.cycles > Cycles::ZERO);
        // Metrics conservation: the viram.cycles.* counters mirror the
        // breakdown exactly, and the genuine counters are present.
        assert_eq!(run.metrics.counter_sum("viram.cycles."), run.cycles.get());
        assert_eq!(run.metrics.counter_value("viram.run.ops"), Some(64));
        assert_eq!(run.metrics.counter_value("viram.run.mem_words"), Some(64));
        assert!(run.metrics.get("viram.dram.achieved_bw").is_some());
        assert!(run.metrics.get("viram.mem.xfer_cycles").is_some());
    }
}
