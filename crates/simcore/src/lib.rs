//! Shared simulation substrate for the `triarch` comparative architecture study.
//!
//! This crate provides the building blocks that every machine model in the
//! workspace is assembled from:
//!
//! - [`Cycles`] and [`ClockFrequency`] — strongly-typed cycle accounting and
//!   cycle→time conversion.
//! - [`CycleBreakdown`] — named attribution of simulated cycles to causes
//!   (memory, compute, startup, …), used to reproduce the percentage
//!   breakdowns quoted in Section 4 of the paper.
//! - [`DramModel`] — a banked DRAM timing model with open-row tracking,
//!   precharge/activate overheads, and address-generator limits; used for
//!   VIRAM's on-chip DRAM and every machine's off-chip memory.
//! - [`WordMemory`] — a paged 32-bit word memory with `f32`/`u32` views so
//!   that kernels running on the simulators are *data-accurate*; it stores
//!   only the pages a run writes.
//! - [`ThroughputModel`] — the roofline-style peak-throughput model of the
//!   paper's Table 1 / Section 2.5, used for Table 4 and consistency checks.
//! - [`MachineInfo`] and [`KernelRun`] — the common result vocabulary
//!   shared by all machine simulators.
//!
//! Tracing support lives in the `triarch-trace` crate (re-exported here
//! as [`trace`]); this crate adds the glue between the two vocabularies:
//! [`KernelRun::breakdown_drift`] checks trace-derived category totals
//! against a run's breakdown, and
//! [`DramModel::transfer_observed`](dram::DramModel::transfer_observed)
//! emits the DRAM model's cost decomposition as uncounted trace spans.
//!
//! # Example
//!
//! ```
//! use triarch_simcore::{Cycles, ClockFrequency};
//!
//! let cycles = Cycles::new(554_000);
//! let clock = ClockFrequency::from_mhz(200.0);
//! let seconds = clock.cycles_to_seconds(cycles);
//! assert!((seconds - 0.00277).abs() < 1e-5);
//! ```

pub mod budget;
pub mod cycles;
pub mod dram;
pub mod error;
pub mod machine;
pub mod mem;
pub mod model;
pub mod stats;

pub use triarch_faults as faults;
pub use triarch_metrics as metrics;
pub use triarch_trace as trace;

pub use budget::CycleBudget;
pub use cycles::{ClockFrequency, Cycles};
pub use dram::{AccessPattern, DramConfig, DramCost, DramModel};
pub use error::SimError;
pub use machine::{KernelRun, MachineInfo, Verification};
pub use mem::WordMemory;
pub use model::{KernelDemands, ThroughputModel};
pub use stats::{CycleBreakdown, CycleLedger};
