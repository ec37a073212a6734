//! Raw configuration (paper Section 2.3 and Table 2).

use triarch_simcore::{ClockFrequency, DramConfig, MachineInfo, SimError, ThroughputModel};

/// Parameters of the simulated Raw chip.
#[derive(Debug, Clone, PartialEq)]
pub struct RawConfig {
    /// Core clock in MHz (paper Table 2: 300).
    pub clock_mhz: f64,
    /// Mesh width (4 ⇒ 16 tiles).
    pub mesh_width: usize,
    /// Data words of local SRAM per tile (the 128 KB per tile includes
    /// instruction memories; ~32 KB serves as data store/cache).
    pub local_words: usize,
    /// Cache line in words for cache-mode (MIMD) execution.
    pub line_words: usize,
    /// Exposed stall cycles per cache-line miss (after overlap with
    /// execution; the paper's CSLC spends <10% of time in memory stalls).
    pub miss_stall: u64,
    /// Static-network latency between nearest neighbours (paper: 3
    /// cycles, +1 per additional hop).
    pub nn_latency: u64,
    /// Extra latency per additional hop.
    pub hop_latency: u64,
    /// Off-chip DRAM timing (28 words/cycle aggregate, Table 1).
    pub dram: DramConfig,
    /// Off-chip memory size in words.
    pub mem_words: usize,
    /// Per-phase startup cycles (loop setup, first network words in
    /// flight).
    pub phase_startup: u64,
    /// Peak single-precision GFLOPS (Table 2 reports 4.64 for 16 tiles at
    /// 300 MHz, i.e. slightly under 1 flop/tile/cycle).
    pub peak_gflops: f64,
}

impl RawConfig {
    /// The paper's Raw.
    #[must_use]
    pub fn paper() -> Self {
        RawConfig {
            clock_mhz: 300.0,
            mesh_width: 4,
            local_words: 32 * 1024 / 4,
            line_words: 8,
            miss_stall: 4,
            nn_latency: 3,
            hop_latency: 1,
            dram: DramConfig::raw_offchip(),
            mem_words: 64 * 1024 * 1024 / 4,
            phase_startup: 30,
            peak_gflops: 4.64,
        }
    }

    /// Number of tiles.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.mesh_width * self.mesh_width
    }

    /// Table 2 identity row.
    #[must_use]
    pub fn machine_info(&self) -> MachineInfo {
        MachineInfo {
            name: "Raw",
            clock: ClockFrequency::from_mhz(self.clock_mhz),
            alu_count: self.tiles() as u32,
            peak_gflops: self.peak_gflops,
            throughput: ThroughputModel::raw(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate parameters.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.mesh_width == 0 {
            return Err(SimError::invalid_config("raw needs at least one tile"));
        }
        if self.local_words == 0 {
            return Err(SimError::invalid_config("raw tiles need local memory"));
        }
        if self.line_words == 0 {
            return Err(SimError::invalid_config("raw cache line must be non-zero"));
        }
        if self.mem_words == 0 {
            return Err(SimError::invalid_config("raw needs off-chip memory"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2() {
        let cfg = RawConfig::paper();
        cfg.validate().unwrap();
        assert_eq!(cfg.tiles(), 16);
        let info = cfg.machine_info();
        assert_eq!(info.alu_count, 16);
        assert!((info.peak_gflops - 4.64).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_degenerate() {
        let mut cfg = RawConfig::paper();
        cfg.mesh_width = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = RawConfig::paper();
        cfg.local_words = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = RawConfig::paper();
        cfg.line_words = 0;
        assert!(cfg.validate().is_err());
    }
}
