//! Architecture-neutral kernel definitions for the `triarch` study.
//!
//! The paper evaluates three memory-intensive radar signal-processing
//! kernels (Section 3):
//!
//! - **Corner turn** ([`corner_turn`]): a 1024×1024 single-precision
//!   matrix transpose — a pure memory-bandwidth test.
//! - **Coherent side-lobe canceller** ([`cslc`]): FFT → adaptive weight
//!   application → IFFT over 73 overlapping 128-sample sub-bands of four
//!   8 K-sample channels — a compute-intensive kernel.
//! - **Beam steering** ([`beam_steering`]): phased-array phase computation
//!   from calibration tables — 2 reads, 1 write, 5 adds and 1 shift per
//!   output; stresses memory latency/bandwidth.
//!
//! Each module provides the workload type (sized per the paper), a golden
//! reference implementation, and verification helpers. The
//! [`machine::SignalMachine`] trait is the interface every simulated
//! architecture implements, with one entry:
//! [`SignalMachine::run_with`] takes a [`KernelInput`] and a [`RunCtx`].
//!
//! # Example
//!
//! ```
//! use triarch_kernels::corner_turn::CornerTurnWorkload;
//!
//! # fn main() -> Result<(), triarch_simcore::SimError> {
//! let w = CornerTurnWorkload::with_dims(8, 8, 42)?;
//! let t = w.reference_transpose();
//! // Transposing twice recovers the source.
//! let w2 = CornerTurnWorkload::from_data(8, 8, t)?;
//! assert_eq!(w2.reference_transpose(), w.source());
//! # Ok(())
//! # }
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod beam_steering;
pub mod corner_turn;
pub mod cslc;
pub mod machine;
pub mod matmul;
pub mod verify;

pub use beam_steering::BeamSteeringWorkload;
pub use corner_turn::CornerTurnWorkload;
pub use cslc::CslcWorkload;
pub use machine::{Engine, Kernel, KernelInput, RunCtx, SignalMachine, WorkloadSet};
