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

use std::ops::Range;

use triarch_simcore::faults::{FaultDomain, FaultHook, NoFaults, TransferFaults};
use triarch_simcore::metrics::{Histogram, Metric, MetricsReport};
use triarch_simcore::trace::{NullSink, TraceSink};
use triarch_simcore::{
    AccessPattern, CycleBudget, Cycles, DramModel, KernelRun, RunAccount, SimError, WordMemory,
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

/// The functional-plus-timing vector unit.
///
/// Generic over a [`TraceSink`] and a [`FaultHook`]; the defaults
/// ([`NullSink`], [`NoFaults`]) are statically dispatched, disabled, and
/// empty, so an untraced, unfaulted unit pays nothing for either kind of
/// instrumentation.
#[derive(Debug, Clone)]
pub struct VectorUnit<S: TraceSink = NullSink, F: FaultHook = NoFaults> {
    cfg: ViramConfig,
    /// The register file, flat: register `v`'s lanes are words
    /// `v·mvl .. (v+1)·mvl`.
    regs: Vec<u32>,
    /// One register of scratch. Lane ops and permutes build their result
    /// here and then copy it into `dst`, so a destination that is also a
    /// source reads its old lanes.
    scratch: Vec<u32>,
    mem: WordMemory,
    dram: DramModel,
    tlb: Tlb,
    /// Fixed-bucket histogram of per-transfer DRAM occupancy cycles.
    mem_hist: Histogram,
    account: RunAccount<S>,
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
            regs: vec![0; cfg.vregs * cfg.mvl],
            scratch: vec![0; cfg.mvl],
            mem: WordMemory::new(cfg.dram_words),
            dram: DramModel::new(cfg.dram)?,
            tlb: Tlb::new(cfg.tlb_entries, cfg.page_words),
            mem_hist: Histogram::cycles(),
            account: RunAccount::new("viram", sink, budget).hiding(),
            cfg: cfg.clone(),
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
        self.check_reg(vr)?;
        Ok(&self.regs[self.lanes(vr, self.cfg.mvl)])
    }

    /// Where register `vr`'s first `vl` lanes sit in the flat file; the
    /// caller has checked both.
    fn lanes(&self, vr: usize, vl: usize) -> Range<usize> {
        let start = vr * self.cfg.mvl;
        start..start + vl
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

    /// Opens an overlap region (memory pipeline ∥ vector pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if a region is already open.
    pub fn begin_overlap(&mut self) -> Result<(), SimError> {
        self.account.begin_region(TRACK_MEM, TRACK_VEC)
    }

    /// Closes the overlap region: the slower of the two pipelines is
    /// charged, as counted spans, and the faster pipeline's cycles are
    /// hidden.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if no region is open.
    pub fn end_overlap(&mut self) -> Result<(), SimError> {
        self.account.end_region(None)
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
        let cursor = self.account.mem_cursor();
        let sink = self.account.sink();
        let cost = self.dram.transfer_observed(addr, vl, pattern, sink, TRACK_DRAM, cursor)?;
        self.mem_hist.observe(cost.total.get());
        self.account.add_words(vl as u64);
        let memory = cost.data + cost.startup + Cycles::new(self.cfg.mem_startup);
        self.account.charge(TRACK_MEM, "memory", name, memory);
        self.account.charge(TRACK_MEM, "precharge", "row-precharge-activate", cost.overhead);
        let tlb = Cycles::new(misses * self.cfg.tlb_miss_cycles);
        self.account.charge(TRACK_MEM, "tlb", "tlb-miss-stall", tlb);
        if self.faults.is_enabled() {
            let fx = self.faults.transfer(FaultDomain::Dram, addr, vl);
            self.apply_dram_faults(addr, pattern, &fx)?;
        }
        self.account.check()
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
        for flip in &fx.flips {
            let a = pattern.word(addr, flip.offset);
            let word = self.mem.read_u32(a)?;
            self.mem.write_u32(a, word ^ flip.xor_mask)?;
        }
        self.account.charge_faults(TRACK_MEM, "dram-retry", fx)
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
            let range = self.lanes(dst, vl);
            for word in self.regs[range].iter_mut().skip(fault.index % lanes).step_by(lanes) {
                *word = fault.force(*word);
            }
        }
    }

    /// Copies a lane op's `vl` results from the scratch row into `dst` and
    /// applies any stuck lane to them.
    fn commit(&mut self, dst: usize, vl: usize) {
        let range = self.lanes(dst, vl);
        self.regs[range].copy_from_slice(&self.scratch[..vl]);
        self.apply_stuck_lane(dst, vl);
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
        let range = self.lanes(vr, vl);
        self.mem.read_into(addr, &mut self.regs[range])?;
        self.mem_op(addr, AccessPattern::Sequential, vl, "vload.unit")
    }

    /// The pattern of a strided access of `vl` words from `addr`, refused
    /// unless every word lies in memory: checked before any word moves,
    /// the TLB is touched or a cycle is charged. The error names the
    /// first word past the end, as a word-by-word walk meets it, or
    /// `usize::MAX` when that word's address overflows.
    fn strided(&self, addr: usize, stride: usize, vl: usize) -> Result<AccessPattern, SimError> {
        let pattern = AccessPattern::Strided { stride_words: stride };
        pattern.check()?;
        let size = self.mem.len();
        if pattern.end(addr, vl).is_some_and(|end| end <= size) {
            return Ok(pattern);
        }
        let first = (0..vl)
            .map(|i| pattern.checked_word(addr, i).unwrap_or(usize::MAX))
            .find(|&word| word >= size)
            .unwrap_or(usize::MAX);
        Err(SimError::OutOfBounds { addr: first, size })
    }

    /// Strided vector load (one element every `stride` words).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for bad registers/lengths/strides or
    /// out-of-bounds addresses; a refused load leaves the register,
    /// the TLB and the cycles as they were.
    pub fn vload_strided(
        &mut self,
        vr: usize,
        addr: usize,
        stride: usize,
        vl: usize,
    ) -> Result<(), SimError> {
        self.check_reg(vr)?;
        self.check_vl(vl)?;
        let pattern = self.strided(addr, stride, vl)?;
        let range = self.lanes(vr, vl);
        for (i, word) in self.regs[range].iter_mut().enumerate() {
            *word = self.mem.read_u32(pattern.word(addr, i))?;
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
        let range = self.lanes(vr, vl);
        self.mem.write_block_u32(addr, &self.regs[range])?;
        self.mem_op(addr, AccessPattern::Sequential, vl, "vstore.unit")
    }

    /// Strided vector store.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for bad registers/lengths/strides or
    /// out-of-bounds addresses; a refused store leaves memory, the TLB
    /// and the cycles as they were.
    pub fn vstore_strided(
        &mut self,
        vr: usize,
        addr: usize,
        stride: usize,
        vl: usize,
    ) -> Result<(), SimError> {
        self.check_reg(vr)?;
        self.check_vl(vl)?;
        let pattern = self.strided(addr, stride, vl)?;
        let range = self.lanes(vr, vl);
        for (i, &word) in self.regs[range].iter().enumerate() {
            self.mem.write_u32(pattern.word(addr, i), word)?;
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
        let (xs, ys) = (&self.regs[self.lanes(a, vl)], &self.regs[self.lanes(b, vl)]);
        let out = &mut self.scratch[..vl];
        match op {
            FpOp::Add => zip_f32_lanes(out, xs, ys, |x, y| x + y),
            FpOp::Sub => zip_f32_lanes(out, xs, ys, |x, y| x - y),
            FpOp::Mul => zip_f32_lanes(out, xs, ys, |x, y| x * y),
        }
        self.commit(dst, vl);
        self.account.add_ops(vl as u64);
        let data = vl.div_ceil(self.cfg.fp_ops_per_cycle()) as u64;
        self.account.charge(TRACK_VEC, "compute", "vfp", Cycles::new(data));
        self.vector_startup()
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
        let (xs, ys) = (&self.regs[self.lanes(a, vl)], &self.regs[self.lanes(b, vl)]);
        let out = &mut self.scratch[..vl];
        // Two's-complement addition and subtraction give the same bits on
        // `u32` as on `i32`; the shift is arithmetic.
        match op {
            IntOp::Add => zip_lanes(out, xs, ys, u32::wrapping_add),
            IntOp::Sub => zip_lanes(out, xs, ys, u32::wrapping_sub),
            IntOp::Shr => zip_lanes(out, xs, ys, |x, _| ((x as i32) >> (imm & 31)) as u32),
        }
        self.commit(dst, vl);
        self.account.add_ops(vl as u64);
        let data = vl.div_ceil(self.cfg.int_ops_per_cycle()) as u64;
        self.account.charge(TRACK_VEC, "compute", "vint", Cycles::new(data));
        self.vector_startup()
    }

    /// Broadcasts a scalar into every lane of `dst` (free-ish setup op).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for bad registers or lengths.
    pub fn vsplat(&mut self, dst: usize, value: u32, vl: usize) -> Result<(), SimError> {
        self.check_reg(dst)?;
        self.check_vl(vl)?;
        let range = self.lanes(dst, vl);
        self.regs[range].fill(value);
        self.account.charge(TRACK_VEC, "startup", "vsplat", Cycles::new(self.cfg.vector_startup));
        self.account.check()
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
        let range = self.lanes(dst, values.len());
        self.regs[range].copy_from_slice(values);
        // Tables live in DRAM; loading one costs a unit-stride burst.
        let burst = values.len().div_ceil(self.cfg.dram.seq_words_per_cycle as usize) as u64;
        let cycles = Cycles::new(burst + self.cfg.mem_startup);
        self.account.charge(TRACK_MEM, "memory", "vset-table", cycles);
        self.account.add_words(values.len() as u64);
        self.account.check()
    }

    /// Register-to-register permute: `dst[i] = src(idx[i])` where indices
    /// `0..mvl` select from `a` and `mvl..2·mvl` from `b`. Permutes run on
    /// the integer ALUs and can partially overlap FP work
    /// (`int_visibility`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for bad registers, lengths, or indices; an
    /// out-of-range index leaves `dst` and the cycles as they were.
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
        let (xs, ys) = (&self.regs[self.lanes(a, mvl)], &self.regs[self.lanes(b, mvl)]);
        for (out, &j) in self.scratch.iter_mut().zip(idx) {
            let lane = if j < mvl { xs.get(j) } else { ys.get(j - mvl) };
            *out = *lane.ok_or_else(|| {
                SimError::invalid_config(format!("permute index {j} out of range"))
            })?;
        }
        let range = self.lanes(dst, idx.len());
        self.regs[range].copy_from_slice(&self.scratch[..idx.len()]);
        let raw = idx.len().div_ceil(self.cfg.int_ops_per_cycle()) as u64;
        let visible = ((raw as f64) * self.cfg.int_visibility).ceil() as u64;
        self.account.charge(TRACK_VEC, "shuffle", "vperm2", Cycles::new(visible));
        self.vector_startup()
    }

    /// Charges a vector instruction's startup and checks the watchdog.
    fn vector_startup(&mut self) -> Result<(), SimError> {
        let startup = Cycles::new(self.cfg.vector_startup);
        self.account.charge(TRACK_VEC, "startup", "vector-startup", startup);
        self.account.check()
    }

    /// Charges scalar-core cycles (loop control, address arithmetic).
    pub fn scalar(&mut self, cycles: u64) {
        self.account.charge(TRACK_VEC, "scalar", "scalar-core", Cycles::new(cycles));
    }

    /// Charges an off-chip DMA transfer of `words` at the configured
    /// off-chip rate (paper Table 1: 2 words/cycle). Used when a working
    /// set exceeds the on-chip DRAM — "the data needs to come from
    /// off-chip memory and VIRAM would lose much of its advantage"
    /// (paper Section 4.6).
    pub fn dma(&mut self, words: usize) {
        let data = (words as u64).div_ceil(u64::from(self.cfg.offchip_words_per_cycle));
        self.account.add_words(words as u64);
        let cycles = Cycles::new(data + self.cfg.offchip_startup);
        self.account.charge(TRACK_MEM, "dma", "dma-offchip", cycles);
    }

    /// Total cycles charged so far.
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        self.account.cycles()
    }

    /// TLB miss count.
    #[must_use]
    pub fn tlb_misses(&self) -> u64 {
        self.tlb.misses()
    }

    /// Consumes the unit into its [`KernelRun`] (see
    /// [`RunAccount::finish`]): the program returns its output beside the
    /// run, and the blanket `SignalMachine` impl checks it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if an overlap region is still
    /// open.
    pub fn finish(self) -> Result<KernelRun, SimError> {
        let mut metrics = MetricsReport::new();
        self.dram.export_metrics(&mut metrics, "viram.dram");
        metrics.counter("viram.tlb.misses", self.tlb.misses());
        metrics.ratio(
            "viram.mem.ag_occupancy",
            self.dram.words_transferred(),
            self.dram
                .busy_cycles()
                .saturating_mul(u64::from(self.dram.config().seq_words_per_cycle)),
        );
        metrics.set("viram.mem.xfer_cycles", Metric::Histogram(self.mem_hist));
        self.account.finish(metrics)
    }
}

/// `out[i] = f(xs[i], ys[i])` for every lane of `out`: one slice loop,
/// with no bounds check or dispatch per lane, that the compiler can
/// vectorize.
#[inline(always)]
fn zip_lanes(out: &mut [u32], xs: &[u32], ys: &[u32], f: impl Fn(u32, u32) -> u32) {
    for ((out, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        *out = f(x, y);
    }
}

/// [`zip_lanes`] over lanes that hold `f32` bits.
#[inline(always)]
fn zip_f32_lanes(out: &mut [u32], xs: &[u32], ys: &[u32], f: impl Fn(f32, f32) -> f32) {
    zip_lanes(out, xs, ys, |x, y| f(f32::from_bits(x), f32::from_bits(y)).to_bits());
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
        let run = u.finish().unwrap();
        assert!(run.metrics.counter_value("viram.run.hidden_cycles") > Some(0));
        assert_eq!(run.breakdown.get("compute"), Cycles::ZERO);
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
    fn strided_accesses_past_memory_are_refused_before_anything_moves() {
        let mut u = unit();
        let size = u.memory().len();
        let words: Vec<u32> = (1000..1200).collect();
        u.memory_mut().write_block_u32(0, &words).unwrap();
        u.memory_mut().write_block_u32(size - 8, &words[..8]).unwrap();
        u.vsplat(0, 7, 8).unwrap();
        let (regs, mem, cycles) = (u.regs.clone(), u.memory().clone(), u.cycles());
        let far = 1 << (usize::BITS - 2);
        // `(start, stride, the word the error names)`.
        let cases = [
            // The second word's address overflows; unchecked, it wraps to
            // word 99, and the rest to 98, 97, …
            (100, usize::MAX, usize::MAX),
            // An overrun: the fourth word is the first past the end.
            (size - 5, 2, size + 1),
            // The second word is past the end, and the fifth overflows.
            (100, far, 100 + far),
        ];
        for (addr, stride, bad) in cases {
            let refused = Err(SimError::OutOfBounds { addr: bad, size });
            assert_eq!(u.vload_strided(0, addr, stride, 8), refused, "load from {addr}");
            assert_eq!(u.vstore_strided(0, addr, stride, 8), refused, "store to {addr}");
            assert_eq!(u.regs, regs);
            assert_eq!(u.memory(), &mem);
            assert_eq!(u.cycles(), cycles);
            assert_eq!(u.tlb_misses(), 0);
        }
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

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle the flat register file is checked against: one `Vec`
    /// per register and the lane loops the unit ran before its file was
    /// flattened, kept as they were. It has no timing. A strided access
    /// lists its words, each checked, before it moves any: the unit
    /// refuses an access that leaves memory.
    struct RowUnit {
        cfg: ViramConfig,
        regs: Vec<Vec<u32>>,
        mem: WordMemory,
    }

    #[allow(clippy::needless_range_loop)] // the lane loops are kept as they were
    impl RowUnit {
        fn new(cfg: &ViramConfig) -> Self {
            RowUnit {
                regs: vec![vec![0; cfg.mvl]; cfg.vregs],
                mem: WordMemory::new(cfg.dram_words),
                cfg: cfg.clone(),
            }
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
                return Err(SimError::invalid_config(format!(
                    "vector register v{vr} out of range"
                )));
            }
            Ok(())
        }

        /// The words of a strided access, or an error naming the first
        /// one past the end (`usize::MAX` when its address overflows).
        fn strided_words(
            &self,
            addr: usize,
            stride: usize,
            vl: usize,
        ) -> Result<Vec<usize>, SimError> {
            AccessPattern::Strided { stride_words: stride }.check()?;
            let size = self.mem.len();
            (0..vl)
                .map(|i| {
                    let word = i.checked_mul(stride).and_then(|off| addr.checked_add(off));
                    match word {
                        Some(word) if word < size => Ok(word),
                        _ => Err(SimError::OutOfBounds { addr: word.unwrap_or(usize::MAX), size }),
                    }
                })
                .collect()
        }

        fn vload_unit(&mut self, vr: usize, addr: usize, vl: usize) -> Result<(), SimError> {
            self.check_reg(vr)?;
            self.check_vl(vl)?;
            self.mem.read_into(addr, &mut self.regs[vr][..vl])
        }

        fn vload_strided(
            &mut self,
            vr: usize,
            addr: usize,
            stride: usize,
            vl: usize,
        ) -> Result<(), SimError> {
            self.check_reg(vr)?;
            self.check_vl(vl)?;
            let words = self.strided_words(addr, stride, vl)?;
            for i in 0..vl {
                self.regs[vr][i] = self.mem.read_u32(words[i])?;
            }
            Ok(())
        }

        fn vstore_unit(&mut self, vr: usize, addr: usize, vl: usize) -> Result<(), SimError> {
            self.check_reg(vr)?;
            self.check_vl(vl)?;
            self.mem.write_block_u32(addr, &self.regs[vr][..vl])
        }

        fn vstore_strided(
            &mut self,
            vr: usize,
            addr: usize,
            stride: usize,
            vl: usize,
        ) -> Result<(), SimError> {
            self.check_reg(vr)?;
            self.check_vl(vl)?;
            let words = self.strided_words(addr, stride, vl)?;
            for i in 0..vl {
                let v = self.regs[vr][i];
                self.mem.write_u32(words[i], v)?;
            }
            Ok(())
        }

        fn vfp(
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
            Ok(())
        }

        fn vint(
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
            Ok(())
        }

        fn vsplat(&mut self, dst: usize, value: u32, vl: usize) -> Result<(), SimError> {
            self.check_reg(dst)?;
            self.check_vl(vl)?;
            for i in 0..vl {
                self.regs[dst][i] = value;
            }
            Ok(())
        }

        fn vset_table(&mut self, dst: usize, values: &[u32]) -> Result<(), SimError> {
            self.check_reg(dst)?;
            self.check_vl(values.len())?;
            self.regs[dst][..values.len()].copy_from_slice(values);
            Ok(())
        }

        fn vperm2(
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
                    return Err(SimError::invalid_config(format!(
                        "permute index {j} out of range"
                    )));
                };
            }
            self.regs[dst][..idx.len()].copy_from_slice(&out);
            Ok(())
        }
    }

    /// One instruction, with its operands.
    #[derive(Debug)]
    enum Step {
        Fp(FpOp, usize, usize, usize, usize),
        Int(IntOp, usize, usize, usize, u32, usize),
        Perm(usize, usize, usize, Vec<usize>),
        Splat(usize, u32, usize),
        Table(usize, Vec<u32>),
        LoadUnit(usize, usize, usize),
        LoadStrided(usize, usize, usize, usize),
        StoreUnit(usize, usize, usize),
        StoreStrided(usize, usize, usize, usize),
    }

    /// A step's own stream of arbitrary values (SplitMix64).
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    impl Step {
        /// Step `kind` (0–8) on `cfg`'s unit, its operands drawn from
        /// `seed`: registers are sometimes out of range, `dst` is
        /// sometimes `a`, `b` or both, `vl` is mostly in `1..=mvl`, and
        /// addresses, strides and permute indices sometimes leave their
        /// range, overflowing `usize` included.
        fn draw(kind: usize, seed: u64, cfg: &ViramConfig) -> Step {
            let (mvl, size) = (cfg.mvl, cfg.dram_words);
            let mut d = Draw(seed);
            let reg = |d: &mut Draw| d.below(cfg.vregs + 1);
            let (mut a, mut b) = (reg(&mut d), reg(&mut d));
            let dst = match d.below(4) {
                0 => reg(&mut d),
                1 => a,
                2 => b,
                _ => {
                    b = a;
                    a
                }
            };
            if d.below(8) == 0 {
                std::mem::swap(&mut a, &mut b);
            }
            let vl = match d.below(16) {
                0 => 0,
                1 => mvl + 1,
                _ => 1 + d.below(mvl),
            };
            let addr = match d.below(8) {
                0 => size - d.below(2 * mvl + 2).min(size),
                1 => usize::MAX - d.below(4 * mvl),
                _ => d.below(size),
            };
            let stride = match d.below(8) {
                0 => 0,
                1 => usize::MAX - d.below(3),
                2 => (1 << (usize::BITS - 2)) + d.below(3),
                _ => 1 + d.below(70),
            };
            match kind {
                0 => {
                    let op = [FpOp::Add, FpOp::Sub, FpOp::Mul][d.below(3)];
                    Step::Fp(op, dst, a, b, vl)
                }
                1 => {
                    let op = [IntOp::Add, IntOp::Sub, IntOp::Shr][d.below(3)];
                    let imm = if d.below(2) == 0 { d.below(40) as u32 } else { d.next() as u32 };
                    Step::Int(op, dst, a, b, imm, vl)
                }
                2 => {
                    let mut idx: Vec<usize> = (0..vl).map(|_| d.below(2 * mvl)).collect();
                    if vl > 0 && d.below(4) == 0 {
                        let lane = d.below(vl);
                        idx[lane] = [2 * mvl, 2 * mvl + d.below(9), usize::MAX][d.below(3)];
                    }
                    Step::Perm(dst, a, b, idx)
                }
                3 => Step::Splat(dst, d.next() as u32, vl),
                4 => Step::Table(dst, (0..vl).map(|_| d.next() as u32).collect()),
                5 => Step::LoadUnit(dst, addr, vl),
                6 => Step::LoadStrided(dst, addr, stride, vl),
                7 => Step::StoreUnit(a, addr, vl),
                _ => Step::StoreStrided(a, addr, stride, vl),
            }
        }

        fn run(&self, unit: &mut VectorUnit) -> Result<(), SimError> {
            match *self {
                Step::Fp(op, dst, a, b, vl) => unit.vfp(op, dst, a, b, vl),
                Step::Int(op, dst, a, b, imm, vl) => unit.vint(op, dst, a, b, imm, vl),
                Step::Perm(dst, a, b, ref idx) => unit.vperm2(dst, a, b, idx),
                Step::Splat(dst, value, vl) => unit.vsplat(dst, value, vl),
                Step::Table(dst, ref values) => unit.vset_table(dst, values),
                Step::LoadUnit(vr, addr, vl) => unit.vload_unit(vr, addr, vl),
                Step::LoadStrided(vr, addr, stride, vl) => unit.vload_strided(vr, addr, stride, vl),
                Step::StoreUnit(vr, addr, vl) => unit.vstore_unit(vr, addr, vl),
                Step::StoreStrided(vr, addr, stride, vl) => {
                    unit.vstore_strided(vr, addr, stride, vl)
                }
            }
        }

        fn run_oracle(&self, oracle: &mut RowUnit) -> Result<(), SimError> {
            match *self {
                Step::Fp(op, dst, a, b, vl) => oracle.vfp(op, dst, a, b, vl),
                Step::Int(op, dst, a, b, imm, vl) => oracle.vint(op, dst, a, b, imm, vl),
                Step::Perm(dst, a, b, ref idx) => oracle.vperm2(dst, a, b, idx),
                Step::Splat(dst, value, vl) => oracle.vsplat(dst, value, vl),
                Step::Table(dst, ref values) => oracle.vset_table(dst, values),
                Step::LoadUnit(vr, addr, vl) => oracle.vload_unit(vr, addr, vl),
                Step::LoadStrided(vr, addr, stride, vl) => {
                    oracle.vload_strided(vr, addr, stride, vl)
                }
                Step::StoreUnit(vr, addr, vl) => oracle.vstore_unit(vr, addr, vl),
                Step::StoreStrided(vr, addr, stride, vl) => {
                    oracle.vstore_strided(vr, addr, stride, vl)
                }
            }
        }
    }

    /// Checks every lane of every register. A lane may differ only where
    /// both sides hold a NaN, whose payload Rust does not pin; the unit's
    /// lane then takes the oracle's bits, so later steps start equal.
    fn sync_registers(unit: &mut VectorUnit, oracle: &RowUnit) -> Result<(), TestCaseError> {
        let rows = unit.regs.chunks_exact_mut(oracle.cfg.mvl);
        for (v, (row, want)) in rows.zip(&oracle.regs).enumerate() {
            for (lane, (got, &want)) in row.iter_mut().zip(want).enumerate() {
                if *got != want {
                    let nan = f32::from_bits(*got).is_nan() && f32::from_bits(want).is_nan();
                    prop_assert!(nan, "v{v}[{lane}]: {:#010x} vs {want:#010x}", *got);
                    *got = want;
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Register files of 1–32 registers of 1, 3, 8 or 64 lanes over a
        /// 2,100-word memory (three pages) of arbitrary bits, every
        /// register first filled with arbitrary bits by `vset_table`; then
        /// up to 48 steps of every instruction. After each step the
        /// outcome (errors included), every register's lanes and the
        /// memory must be equal.
        #[test]
        fn flat_registers_match_the_row_oracle(
            shape in (0usize..4, 1usize..=32, any::<u64>()),
            steps in proptest::collection::vec((0usize..9, any::<u64>()), 1..=48),
        ) {
            let (lanes, vregs, fill) = shape;
            let mut cfg = ViramConfig::paper();
            cfg.mvl = [1, 3, 8, 64][lanes];
            cfg.vregs = vregs;
            cfg.dram_words = 2_100;
            let mut unit = VectorUnit::new(&cfg).unwrap();
            let mut oracle = RowUnit::new(&cfg);
            let mut d = Draw(fill);
            let words: Vec<u32> = (0..cfg.dram_words).map(|_| d.next() as u32).collect();
            unit.memory_mut().write_block_u32(0, &words).unwrap();
            oracle.mem.write_block_u32(0, &words).unwrap();
            for v in 0..vregs {
                let lanes: Vec<u32> = (0..cfg.mvl).map(|_| d.next() as u32).collect();
                unit.vset_table(v, &lanes).unwrap();
                oracle.vset_table(v, &lanes).unwrap();
            }
            for (i, &(kind, seed)) in steps.iter().enumerate() {
                let step = Step::draw(kind, seed, &cfg);
                let got = step.run(&mut unit);
                prop_assert_eq!(&got, &step.run_oracle(&mut oracle), "step {i}: {step:?}");
                sync_registers(&mut unit, &oracle)?;
                prop_assert!(unit.mem == oracle.mem, "step {i}: {step:?}: memory differs");
            }
        }
    }
}
