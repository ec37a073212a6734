//! `triarch-core` — the comparative study framework.
//!
//! This crate reproduces the evaluation of *"A Performance Analysis of
//! PIM, Stream Processing, and Tiled Processing on Memory-Intensive
//! Signal Processing Kernels"* (Suh, Kim, Crago, Srinivasan, French —
//! ISCA 2003): three radar kernels (corner turn, CSLC, beam steering) run
//! on simulators of VIRAM (processor-in-memory), Imagine (stream
//! processing), and Raw (tiled processing), compared against a PowerPC G4
//! baseline with and without AltiVec.
//!
//! The entry points mirror the paper's exhibits:
//!
//! - [`experiments::table1`] — peak throughput (words/cycle),
//! - [`experiments::table2`] — processor parameters,
//! - [`experiments::table3_jobs`] — measured kilocycles per kernel per machine,
//! - [`experiments::table4`] — performance-model (roofline) predictions,
//! - [`experiments::figure8`] — speedup over AltiVec in cycles,
//! - [`experiments::figure9`] — speedup over AltiVec in execution time,
//! - [`ablations`] — the paper's what-if analyses and our extras.
//!
//! # Example
//!
//! ```no_run
//! use triarch_core::arch::Architecture;
//! use triarch_core::experiments;
//! use triarch_kernels::WorkloadSet;
//!
//! # fn main() -> Result<(), triarch_simcore::SimError> {
//! let workloads = WorkloadSet::paper(42)?;
//! let (table3, _pool_stats) = experiments::table3_jobs(&workloads, 1)?;
//! println!("{}", table3.render());
//! let viram_ct = table3.cycles(Architecture::Viram, triarch_kernels::Kernel::CornerTurn);
//! assert!(viram_ct.get() > 0);
//! # Ok(())
//! # }
//! ```

pub mod ablations;
pub mod arch;
pub mod benchjson;
pub mod chart;
pub mod claims;
pub mod driver;
pub mod dse;
pub mod experiments;
pub mod faultsweep;
pub mod htmlreport;
pub mod paper;
pub mod parallel;
pub mod report;
pub mod roofline;
pub mod timelinedoc;

pub use arch::Architecture;
pub use experiments::{figure8, figure9, table1, table2, table3_jobs, table4, Table3};
