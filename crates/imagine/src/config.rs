//! Imagine configuration (paper Section 2.2 and Table 2).

use triarch_simcore::{ClockFrequency, DramConfig, MachineInfo, SimError, ThroughputModel};

/// Parameters of the simulated Imagine chip.
#[derive(Debug, Clone, PartialEq)]
pub struct ImagineConfig {
    /// Core clock in MHz (paper: 300).
    pub clock_mhz: f64,
    /// ALU clusters (paper: 8).
    pub clusters: usize,
    /// Adders per cluster (paper: 3).
    pub adders: usize,
    /// Multipliers per cluster (paper: 2).
    pub multipliers: usize,
    /// Dividers per cluster (paper: 1).
    pub dividers: usize,
    /// Stream register file size in 32-bit words (128 KB).
    pub srf_words: usize,
    /// SRF allocation granularity in words (streams start at 128-byte
    /// blocks).
    pub srf_block_words: usize,
    /// Maximum concurrently-active streams (paper Section 2.2: "Up to
    /// eight input or output streams can be processed simultaneously").
    pub stream_descriptors: usize,
    /// Off-chip DRAM timing (2 words/cycle aggregate via 2 AGs).
    pub dram: DramConfig,
    /// Off-chip memory size in words.
    pub mem_words: usize,
    /// Software-pipeline prologue/epilogue cycles charged per kernel
    /// invocation.
    pub kernel_startup: u64,
    /// Fraction of the shorter of (memory, kernel) that cannot be
    /// overlapped because of the stream-descriptor-register limit
    /// (paper Section 4.2: 13% of corner-turn cycles are unoverlapped
    /// cluster instructions).
    pub descriptor_penalty: f64,
    /// Fraction of inter-cluster communication cycles that stay exposed
    /// even when the VLIW schedule could theoretically hide them — the
    /// dependency serialization behind the paper's "performance is reduced
    /// by 30% because inter-cluster communication is used to perform
    /// parallel FFTs".
    pub comm_exposure: f64,
}

impl ImagineConfig {
    /// The paper's Imagine.
    #[must_use]
    pub fn paper() -> Self {
        ImagineConfig {
            clock_mhz: 300.0,
            clusters: 8,
            adders: 3,
            multipliers: 2,
            dividers: 1,
            srf_words: 128 * 1024 / 4,
            srf_block_words: 128 / 4,
            stream_descriptors: 8,
            dram: DramConfig::imagine_offchip(),
            mem_words: 64 * 1024 * 1024 / 4,
            kernel_startup: 80,
            descriptor_penalty: 0.8,
            comm_exposure: 0.35,
        }
    }

    /// ALUs per cluster (adders + multipliers + dividers).
    #[must_use]
    pub fn alus_per_cluster(&self) -> usize {
        self.adders + self.multipliers + self.dividers
    }

    /// Total ALUs (Table 2: 48).
    #[must_use]
    pub fn total_alus(&self) -> usize {
        self.clusters * self.alus_per_cluster()
    }

    /// Table 2 identity row.
    #[must_use]
    pub fn machine_info(&self) -> MachineInfo {
        MachineInfo {
            name: "Imagine",
            clock: ClockFrequency::from_mhz(self.clock_mhz),
            alu_count: self.total_alus() as u32,
            peak_gflops: self.clock_mhz * self.total_alus() as f64 / 1000.0,
            throughput: ThroughputModel::imagine(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate parameters.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.clusters == 0 || self.adders == 0 || self.multipliers == 0 {
            return Err(SimError::invalid_config(
                "imagine needs clusters with adders and multipliers",
            ));
        }
        if self.srf_words == 0 || self.srf_block_words == 0 {
            return Err(SimError::invalid_config("imagine SRF must be non-empty"));
        }
        if self.srf_block_words > self.srf_words {
            return Err(SimError::invalid_config("imagine SRF block exceeds SRF size"));
        }
        if self.mem_words == 0 {
            return Err(SimError::invalid_config("imagine needs off-chip memory"));
        }
        if self.stream_descriptors == 0 {
            return Err(SimError::invalid_config("imagine needs stream descriptors"));
        }
        if !(0.0..=1.0).contains(&self.descriptor_penalty) {
            return Err(SimError::invalid_config("descriptor_penalty must be in [0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.comm_exposure) {
            return Err(SimError::invalid_config("comm_exposure must be in [0, 1]"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2() {
        let cfg = ImagineConfig::paper();
        cfg.validate().unwrap();
        assert_eq!(cfg.total_alus(), 48);
        assert_eq!(cfg.alus_per_cluster(), 6);
        assert_eq!(cfg.srf_words * 4, 128 * 1024);
        let info = cfg.machine_info();
        assert!((info.peak_gflops - 14.4).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_degenerate() {
        let mut cfg = ImagineConfig::paper();
        cfg.clusters = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = ImagineConfig::paper();
        cfg.srf_block_words = cfg.srf_words + 1;
        assert!(cfg.validate().is_err());
        let mut cfg = ImagineConfig::paper();
        cfg.descriptor_penalty = -0.1;
        assert!(cfg.validate().is_err());
    }
}
