//! PowerPC G4 baseline configuration (paper Section 4.1 / Table 2).

use triarch_simcore::{ClockFrequency, MachineInfo, SimError, ThroughputModel};

use crate::cache::CacheConfig;

/// Parameters of the modeled 1 GHz PowerMac G4 (PPC 7450).
#[derive(Debug, Clone, PartialEq)]
pub struct PpcConfig {
    /// Clock in MHz (paper: 1000).
    pub clock_mhz: f64,
    /// Sustained superscalar issue (instructions per cycle) for
    /// independent work.
    pub ipc: f64,
    /// Cycles for an L1 load miss that hits in L2.
    pub l1_miss_penalty: u64,
    /// Average exposed cycles for a load that misses L2 (prefetch-friendly
    /// streams hide much of the raw ~100-cycle DRAM latency).
    pub l2_load_miss_penalty: u64,
    /// Average exposed cycles for a store that misses L2 (write-allocate
    /// fetch behind a store queue).
    pub l2_store_miss_penalty: u64,
    /// Cycles per scalar sine/cosine library call (the unoptimized C
    /// baseline evaluates twiddles in the butterfly loop).
    pub trig_cycles: u64,
    /// AltiVec vector width in 32-bit lanes.
    pub vector_lanes: usize,
    /// L1 data-cache geometry (paper: 32 KB, 32-byte lines, 8-way).
    pub l1: CacheConfig,
    /// Unified L2 geometry (paper: 256 KB, 64-byte lines, 8-way) — the
    /// knob the design-space driver sweeps for the baseline.
    pub l2: CacheConfig,
}

impl PpcConfig {
    /// The paper's measurement platform.
    #[must_use]
    pub fn paper() -> Self {
        PpcConfig {
            clock_mhz: 1000.0,
            ipc: 2.0,
            l1_miss_penalty: 6,
            l2_load_miss_penalty: 35,
            l2_store_miss_penalty: 28,
            trig_cycles: 65,
            vector_lanes: 4,
            l1: CacheConfig::g4_l1(),
            l2: CacheConfig::g4_l2(),
        }
    }

    /// The paper configuration with an L2 of `kib` kibibytes (same line
    /// size and associativity as the G4's 256 KB part).
    #[must_use]
    pub fn with_l2_kib(kib: usize) -> Self {
        let mut cfg = Self::paper();
        cfg.l2.size_words = kib * 1024 / 4;
        cfg
    }

    /// Table 2 identity for the scalar PPC row.
    #[must_use]
    pub fn machine_info_scalar(&self) -> MachineInfo {
        MachineInfo {
            name: "PPC",
            clock: ClockFrequency::from_mhz(self.clock_mhz),
            alu_count: 4,
            peak_gflops: 5.0,
            throughput: ThroughputModel::ppc_altivec(),
        }
    }

    /// Table 2 identity for the AltiVec row (same chip, vector ISA).
    #[must_use]
    pub fn machine_info_altivec(&self) -> MachineInfo {
        MachineInfo {
            name: "AltiVec",
            clock: ClockFrequency::from_mhz(self.clock_mhz),
            alu_count: 4,
            peak_gflops: 5.0,
            throughput: ThroughputModel::ppc_altivec(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate parameters.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.ipc <= 0.0 || !self.ipc.is_finite() {
            return Err(SimError::invalid_config("ppc ipc must be positive"));
        }
        if self.vector_lanes == 0 {
            return Err(SimError::invalid_config("altivec needs vector lanes"));
        }
        self.l1.validate()?;
        self.l2.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2() {
        let cfg = PpcConfig::paper();
        cfg.validate().unwrap();
        let s = cfg.machine_info_scalar();
        assert_eq!(s.clock.mhz(), 1000.0);
        assert_eq!(s.alu_count, 4);
        assert_eq!(s.peak_gflops, 5.0);
        assert_eq!(cfg.machine_info_altivec().name, "AltiVec");
    }

    #[test]
    fn validation() {
        let mut cfg = PpcConfig::paper();
        cfg.ipc = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = PpcConfig::paper();
        cfg.vector_lanes = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = PpcConfig::paper();
        cfg.l2.ways = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn l2_sweep_helper_scales_capacity_only() {
        let paper = PpcConfig::paper();
        let big = PpcConfig::with_l2_kib(1024);
        assert_eq!(big.l2.size_words, 1024 * 1024 / 4);
        assert_eq!(big.l2.line_words, paper.l2.line_words);
        assert_eq!(big.l2.ways, paper.l2.ways);
        assert_eq!(big.l1, paper.l1);
        assert_eq!(PpcConfig::with_l2_kib(256), paper);
        big.validate().unwrap();
    }
}
