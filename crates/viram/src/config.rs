//! VIRAM configuration (paper Sections 2.1 and Table 2).

use triarch_simcore::{ClockFrequency, DramConfig, MachineInfo, SimError, ThroughputModel};

/// Parameters of the simulated VIRAM chip.
#[derive(Debug, Clone, PartialEq)]
pub struct ViramConfig {
    /// Core clock in MHz (paper: 200).
    pub clock_mhz: f64,
    /// 32-bit lanes per vector ALU (paper: 8, from the 256-bit datapath).
    pub lanes: usize,
    /// Number of vector ALUs (paper: 2; FP only on ALU0).
    pub vector_alus: usize,
    /// Maximum vector length in 32-bit elements (8 KB register file,
    /// 32 registers ⇒ 64 elements).
    pub mvl: usize,
    /// Number of vector registers.
    pub vregs: usize,
    /// On-chip DRAM size in 32-bit words (paper: 13 MB).
    pub dram_words: usize,
    /// On-chip DRAM timing.
    pub dram: DramConfig,
    /// Issue/startup dead cycles charged per vector instruction
    /// ("initial load latencies are not hidden", Section 3.1; "waiting for
    /// the results from previous vector operations and the cycles needed
    /// to initialize the vector operations", Section 4.4).
    pub vector_startup: u64,
    /// Extra startup for memory instructions (address setup, not counting
    /// the DRAM model's own pipeline fill).
    pub mem_startup: u64,
    /// TLB entries.
    pub tlb_entries: usize,
    /// Page size in words (8 KB pages).
    pub page_words: usize,
    /// Cycles per TLB miss.
    pub tlb_miss_cycles: u64,
    /// Fraction of integer/permute cycles that cannot be hidden under the
    /// FP pipe when both ALUs are busy (1.0 = fully serial).
    pub int_visibility: f64,
    /// Off-chip DMA rate in words/cycle (paper Table 1: 2). Used only
    /// when a working set exceeds the on-chip DRAM and must stream.
    pub offchip_words_per_cycle: u32,
    /// Per-DMA-transfer startup cycles.
    pub offchip_startup: u64,
}

impl ViramConfig {
    /// The paper's VIRAM.
    #[must_use]
    pub fn paper() -> Self {
        ViramConfig {
            clock_mhz: 200.0,
            lanes: 8,
            vector_alus: 2,
            mvl: 64,
            vregs: 32,
            dram_words: 13 * 1024 * 1024 / 4,
            dram: DramConfig::viram_onchip(),
            vector_startup: 1,
            mem_startup: 0,
            tlb_entries: 64,
            page_words: 8192,
            tlb_miss_cycles: 4,
            int_visibility: 0.5,
            offchip_words_per_cycle: 2,
            offchip_startup: 50,
        }
    }

    /// Integer operations per cycle (both ALUs).
    #[must_use]
    pub fn int_ops_per_cycle(&self) -> usize {
        self.lanes * self.vector_alus
    }

    /// Floating-point operations per cycle (ALU0 only).
    #[must_use]
    pub fn fp_ops_per_cycle(&self) -> usize {
        self.lanes
    }

    /// Table 2 identity row.
    #[must_use]
    pub fn machine_info(&self) -> MachineInfo {
        MachineInfo {
            name: "VIRAM",
            clock: ClockFrequency::from_mhz(self.clock_mhz),
            alu_count: self.int_ops_per_cycle() as u32,
            peak_gflops: self.clock_mhz * self.int_ops_per_cycle() as f64 / 1000.0 / 1.0,
            throughput: ThroughputModel::viram(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any structural parameter is
    /// zero or inconsistent.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.lanes == 0 || self.vector_alus == 0 {
            return Err(SimError::invalid_config("viram needs lanes and ALUs"));
        }
        if self.mvl == 0 || self.vregs == 0 {
            return Err(SimError::invalid_config("viram register file must be non-empty"));
        }
        if self.vregs.checked_mul(self.mvl).is_none() {
            return Err(SimError::invalid_config(
                "viram register file overflows the address space",
            ));
        }
        if self.dram_words == 0 {
            return Err(SimError::invalid_config("viram needs on-chip DRAM"));
        }
        if self.page_words == 0 || self.tlb_entries == 0 {
            return Err(SimError::invalid_config("viram TLB must have entries and pages"));
        }
        if !(0.0..=1.0).contains(&self.int_visibility) {
            return Err(SimError::invalid_config("int_visibility must be in [0, 1]"));
        }
        if self.offchip_words_per_cycle == 0 {
            return Err(SimError::invalid_config("viram off-chip DMA rate must be non-zero"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_and_matches_table2() {
        let cfg = ViramConfig::paper();
        cfg.validate().unwrap();
        assert_eq!(cfg.int_ops_per_cycle(), 16);
        assert_eq!(cfg.fp_ops_per_cycle(), 8);
        let info = cfg.machine_info();
        // 200 MHz x 16 ALUs = 3.2 GOPS peak.
        assert!((info.peak_gflops - 3.2).abs() < 1e-9);
        // 13 MB of on-chip DRAM.
        assert_eq!(cfg.dram_words * 4, 13 * 1024 * 1024);
    }

    #[test]
    fn validation_catches_degenerate_configs() {
        let mut cfg = ViramConfig::paper();
        cfg.lanes = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = ViramConfig::paper();
        cfg.mvl = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = ViramConfig::paper();
        cfg.tlb_entries = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = ViramConfig::paper();
        cfg.int_visibility = 1.5;
        assert!(cfg.validate().is_err());
        // A register file of more words than a `usize` can count.
        let mut cfg = ViramConfig::paper();
        cfg.mvl = usize::MAX / 2;
        cfg.vregs = 3;
        assert!(cfg.validate().is_err());
    }
}
