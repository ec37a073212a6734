//! DPU machine configuration (UPMEM-style, after Gómez-Luna et al.).
//!
//! The configuration follows the published shape of a 2020s commercial
//! PIM system scaled to a two-rank module: many weak in-order DPUs, one
//! per DRAM bank, each with a small WRAM scratchpad, a large private
//! MRAM bank, an 11-stage revolving pipeline fed by tasklets, and
//! software-emulated floating point. Cross-era clock/ALU/GFLOPS
//! identities are pinned the same way the paper's Table 2 rows are.

use triarch_simcore::{ClockFrequency, MachineInfo, SimError, ThroughputModel};

/// Parameters of the simulated DPU machine.
#[derive(Debug, Clone, PartialEq)]
pub struct DpuConfig {
    /// DPU clock in MHz (commercial parts run ~350 MHz).
    pub clock_mhz: f64,
    /// Memory ranks on the module.
    pub ranks: usize,
    /// DPUs (DRAM banks) per rank.
    pub dpus_per_rank: usize,
    /// Tasklets (hardware threads) resident per DPU.
    pub tasklets: usize,
    /// Depth of the revolving pipeline: one tasklet may have at most one
    /// instruction in flight, so issue rate is
    /// `min(tasklets, revolve_depth) / revolve_depth` instructions/cycle.
    pub revolve_depth: u64,
    /// WRAM scratchpad per DPU, in 32-bit words (64 KB).
    pub wram_words: usize,
    /// WRAM/DMA allocation granularity in words (8-byte aligned DMA).
    pub wram_block_words: usize,
    /// MRAM bank per DPU, in 32-bit words.
    pub mram_words_per_dpu: usize,
    /// Host main memory, in 32-bit words.
    pub host_mem_words: usize,
    /// Sustained WRAM↔MRAM DMA rate per DPU, words/cycle.
    pub dma_words_per_cycle: u64,
    /// Fixed cost of issuing one WRAM↔MRAM DMA transfer, cycles.
    pub dma_startup: u64,
    /// Sustained host↔MRAM bulk-transfer rate (whole module), words/cycle.
    pub host_words_per_cycle: u64,
    /// Fixed cost of one host↔MRAM bulk transfer, cycles.
    pub host_startup: u64,
    /// Fixed cost of launching a DPU program (tasklet boot), cycles.
    pub launch_cycles: u64,
    /// Instructions per 32-bit floating-point operation (software
    /// emulation: DPUs have no FPU).
    pub fp_instrs_per_op: u64,
}

impl DpuConfig {
    /// The study's DPU machine: 2 ranks × 64 banks = 128 DPUs at
    /// 350 MHz, 16 tasklets over an 11-stage pipeline, 64 KB WRAM.
    #[must_use]
    pub fn paper() -> Self {
        DpuConfig {
            clock_mhz: 350.0,
            ranks: 2,
            dpus_per_rank: 64,
            tasklets: 16,
            revolve_depth: 11,
            wram_words: 16 * 1024,
            wram_block_words: 2,
            mram_words_per_dpu: 128 * 1024,
            host_mem_words: 4 * 1024 * 1024,
            dma_words_per_cycle: 1,
            dma_startup: 32,
            host_words_per_cycle: 4,
            host_startup: 64,
            launch_cycles: 128,
            fp_instrs_per_op: 8,
        }
    }

    /// Total DPUs on the module.
    #[must_use]
    pub fn dpus(&self) -> usize {
        self.ranks * self.dpus_per_rank
    }

    /// Effective tasklet occupancy of the revolving pipeline.
    #[must_use]
    pub fn pipeline_fill(&self) -> u64 {
        (self.tasklets as u64).min(self.revolve_depth).max(1)
    }

    /// Cross-era identity row: every DPU counts as one (integer) ALU;
    /// peak GFLOPS is derated by the software-FP emulation factor.
    #[must_use]
    pub fn machine_info(&self) -> MachineInfo {
        MachineInfo {
            name: "DPU",
            clock: ClockFrequency::from_mhz(self.clock_mhz),
            alu_count: self.dpus() as u32,
            peak_gflops: self.clock_mhz * self.dpus() as f64
                / self.fp_instrs_per_op as f64
                / 1000.0,
            throughput: ThroughputModel::dpu(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate parameters.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.ranks == 0 || self.dpus_per_rank == 0 {
            return Err(SimError::invalid_config("dpu machine needs ranks with banks"));
        }
        if self.tasklets == 0 || self.revolve_depth == 0 {
            return Err(SimError::invalid_config("dpu needs tasklets and a pipeline"));
        }
        if self.wram_words == 0 || self.wram_block_words == 0 {
            return Err(SimError::invalid_config("dpu WRAM must be non-empty"));
        }
        if self.wram_block_words > self.wram_words {
            return Err(SimError::invalid_config("dpu WRAM block exceeds WRAM size"));
        }
        if self.mram_words_per_dpu == 0 || self.host_mem_words == 0 {
            return Err(SimError::invalid_config("dpu needs MRAM banks and host memory"));
        }
        if self.dma_words_per_cycle == 0 || self.host_words_per_cycle == 0 {
            return Err(SimError::invalid_config("dpu transfer rates must be positive"));
        }
        if self.fp_instrs_per_op == 0 {
            return Err(SimError::invalid_config("dpu FP emulation factor must be positive"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_identity_row() {
        let cfg = DpuConfig::paper();
        cfg.validate().unwrap();
        assert_eq!(cfg.dpus(), 128);
        assert_eq!(cfg.pipeline_fill(), 11);
        let info = cfg.machine_info();
        assert_eq!(info.name, "DPU");
        assert_eq!(info.clock.mhz(), 350.0);
        assert_eq!(info.alu_count, 128);
        assert!((info.peak_gflops - 5.6).abs() < 1e-9);
    }

    #[test]
    fn pipeline_fill_saturates_at_depth() {
        let mut cfg = DpuConfig::paper();
        cfg.tasklets = 2;
        assert_eq!(cfg.pipeline_fill(), 2);
        cfg.tasklets = 24;
        assert_eq!(cfg.pipeline_fill(), 11);
    }

    #[test]
    fn validation_rejects_degenerate() {
        let mut cfg = DpuConfig::paper();
        cfg.ranks = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = DpuConfig::paper();
        cfg.tasklets = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = DpuConfig::paper();
        cfg.wram_block_words = cfg.wram_words + 1;
        assert!(cfg.validate().is_err());
        let mut cfg = DpuConfig::paper();
        cfg.host_words_per_cycle = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = DpuConfig::paper();
        cfg.fp_instrs_per_op = 0;
        assert!(cfg.validate().is_err());
    }
}
