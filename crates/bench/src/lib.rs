//! Benchmark-harness support: shared workload construction for the
//! `repro` binary and the Criterion benches that regenerate the paper's
//! tables and figures.

use triarch_kernels::WorkloadSet;

pub use triarch_core::benchjson;

/// Seed shared by every bench so all runs see identical data: the
/// driver's workload seed, so bench, `repro` and daemon runs agree.
pub use triarch_core::driver::WORKLOAD_SEED as SEED;

/// Builds the paper-sized workload set used across benches and the
/// `repro` binary.
///
/// # Panics
///
/// Panics if workload construction fails (cannot happen for the paper
/// parameters).
#[must_use]
pub fn paper_workloads() -> WorkloadSet {
    WorkloadSet::paper(SEED).expect("paper workloads build")
}

/// Builds the reduced workload set used where host wall-clock matters.
///
/// # Panics
///
/// Panics if workload construction fails (cannot happen for the built-in
/// parameters).
#[must_use]
pub fn small_workloads() -> WorkloadSet {
    WorkloadSet::small(SEED).expect("small workloads build")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builders_are_paper_shaped() {
        let p = paper_workloads();
        assert_eq!(p.corner_turn.rows(), 1024);
        assert_eq!(p.cslc.config().subbands, 73);
        assert_eq!(p.beam_steering.outputs(), 51_456);
        let s = small_workloads();
        assert!(s.corner_turn.rows() < p.corner_turn.rows());
    }
}
