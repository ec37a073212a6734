//! Error types shared by all simulators in the workspace.

use std::error::Error;
use std::fmt;

/// An error produced while configuring or running a simulation.
///
/// Every fallible public function in the workspace returns `Result<_, SimError>`;
/// simulators must never panic on bad configuration or out-of-range workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A machine or memory configuration parameter is invalid.
    InvalidConfig {
        /// Which parameter was rejected.
        what: String,
    },
    /// An address fell outside a simulated memory.
    OutOfBounds {
        /// The offending word address.
        addr: usize,
        /// The size of the memory in words.
        size: usize,
    },
    /// A resource (SRF space, register file, local store, …) was too small.
    Capacity {
        /// The resource that overflowed.
        what: String,
        /// Words (or entries) requested.
        needed: usize,
        /// Words (or entries) available.
        available: usize,
    },
    /// A workload shape the machine mapping does not support.
    Unsupported {
        /// Human-readable description of the unsupported request.
        what: String,
    },
    /// The watchdog cycle budget was exhausted before the run finished.
    BudgetExceeded {
        /// Simulated cycles accumulated when the watchdog fired.
        spent: u64,
        /// The budget limit that was exceeded.
        limit: u64,
    },
    /// A wall-clock job deadline expired before the job finished — the
    /// serving layer's analogue of [`SimError::BudgetExceeded`]: the
    /// watchdog fires on host time instead of simulated cycles. The
    /// partial result is discarded and never cached, so retrying with a
    /// longer deadline is always safe.
    DeadlineExceeded {
        /// The wall-clock limit that expired, in milliseconds.
        millis: u64,
    },
    /// The machine detected an unrecoverable injected fault (uncorrectable
    /// ECC error, dropped transaction past its retry budget) and aborted.
    DetectedFault {
        /// Description of the detected fault, from the fault hook.
        what: String,
    },
    /// A job in a parallel batch panicked. The pool contains the panic
    /// and surfaces it as this typed error (submission index plus the
    /// panic payload) instead of poisoning the batch or hanging.
    JobPanicked {
        /// Submission index of the panicking job within its batch.
        job: usize,
        /// The panic payload rendered as text.
        what: String,
    },
    /// A wire-protocol violation: a malformed frame, an unsupported
    /// protocol or job-schema version, or an undecodable request body.
    Protocol {
        /// Human-readable description of the violation.
        what: String,
    },
}

impl SimError {
    /// Convenience constructor for [`SimError::InvalidConfig`].
    pub fn invalid_config(what: impl Into<String>) -> Self {
        SimError::InvalidConfig { what: what.into() }
    }

    /// Convenience constructor for [`SimError::Unsupported`].
    pub fn unsupported(what: impl Into<String>) -> Self {
        SimError::Unsupported { what: what.into() }
    }

    /// Convenience constructor for [`SimError::Capacity`].
    pub fn capacity(what: impl Into<String>, needed: usize, available: usize) -> Self {
        SimError::Capacity { what: what.into(), needed, available }
    }

    /// Convenience constructor for [`SimError::DeadlineExceeded`].
    #[must_use]
    pub fn deadline_exceeded(millis: u64) -> Self {
        SimError::DeadlineExceeded { millis }
    }

    /// Convenience constructor for [`SimError::DetectedFault`].
    pub fn detected_fault(what: impl Into<String>) -> Self {
        SimError::DetectedFault { what: what.into() }
    }

    /// Convenience constructor for [`SimError::JobPanicked`].
    pub fn job_panicked(job: usize, what: impl Into<String>) -> Self {
        SimError::JobPanicked { job, what: what.into() }
    }

    /// Convenience constructor for [`SimError::Protocol`].
    pub fn protocol(what: impl Into<String>) -> Self {
        SimError::Protocol { what: what.into() }
    }

    /// True for errors that represent a *detected* abnormal run (watchdog
    /// or fault detection) rather than a configuration/shape problem.
    #[must_use]
    pub fn is_detected_abort(&self) -> bool {
        matches!(
            self,
            SimError::BudgetExceeded { .. }
                | SimError::DeadlineExceeded { .. }
                | SimError::DetectedFault { .. }
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            SimError::OutOfBounds { addr, size } => {
                write!(f, "word address {addr} out of bounds for memory of {size} words")
            }
            SimError::Capacity { what, needed, available } => {
                write!(f, "{what} exhausted: needed {needed}, available {available}")
            }
            SimError::Unsupported { what } => write!(f, "unsupported: {what}"),
            SimError::BudgetExceeded { spent, limit } => {
                write!(f, "cycle budget exceeded: spent {spent} cycles of a {limit}-cycle budget")
            }
            SimError::DeadlineExceeded { millis } => {
                write!(f, "job deadline exceeded: no result after {millis} ms")
            }
            SimError::DetectedFault { what } => write!(f, "detected fault: {what}"),
            SimError::JobPanicked { job, what } => {
                write!(f, "parallel job {job} panicked: {what}")
            }
            SimError::Protocol { what } => write!(f, "protocol error: {what}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = SimError::invalid_config("banks must be non-zero");
        assert_eq!(e.to_string(), "invalid configuration: banks must be non-zero");

        let e = SimError::OutOfBounds { addr: 10, size: 4 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("4"));

        let e = SimError::capacity("stream register file", 2048, 1024);
        assert!(e.to_string().contains("stream register file"));

        let e = SimError::unsupported("non-square corner turn");
        assert!(e.to_string().starts_with("unsupported"));

        let e = SimError::BudgetExceeded { spent: 501, limit: 500 };
        assert_eq!(e.to_string(), "cycle budget exceeded: spent 501 cycles of a 500-cycle budget");

        let e = SimError::deadline_exceeded(250);
        assert_eq!(e.to_string(), "job deadline exceeded: no result after 250 ms");

        let e = SimError::detected_fault("uncorrectable double-bit dram error at word 7");
        assert!(e.to_string().starts_with("detected fault:"));
        assert!(e.to_string().contains("word 7"));

        let e = SimError::job_panicked(3, "index out of bounds");
        assert_eq!(e.to_string(), "parallel job 3 panicked: index out of bounds");

        let e = SimError::protocol("bad frame magic");
        assert_eq!(e.to_string(), "protocol error: bad frame magic");
    }

    /// Every variant must render a non-empty, lowercase-leading message.
    /// The match is deliberately wildcard-free: adding a variant without a
    /// Display arm and coverage here fails to compile.
    #[test]
    fn display_covers_every_variant_exhaustively() {
        let samples = [
            SimError::invalid_config("x"),
            SimError::OutOfBounds { addr: 1, size: 1 },
            SimError::capacity("x", 2, 1),
            SimError::unsupported("x"),
            SimError::BudgetExceeded { spent: 2, limit: 1 },
            SimError::deadline_exceeded(1),
            SimError::detected_fault("x"),
            SimError::job_panicked(0, "x"),
            SimError::protocol("x"),
        ];
        for e in samples {
            // Exhaustive: no `_` arm, so new variants break this test at
            // compile time until they are added to `samples` above.
            let expect_detected_abort = match &e {
                SimError::InvalidConfig { .. } => false,
                SimError::OutOfBounds { .. } => false,
                SimError::Capacity { .. } => false,
                SimError::Unsupported { .. } => false,
                SimError::BudgetExceeded { .. } => true,
                SimError::DeadlineExceeded { .. } => true,
                SimError::DetectedFault { .. } => true,
                SimError::JobPanicked { .. } => false,
                SimError::Protocol { .. } => false,
            };
            assert_eq!(e.is_detected_abort(), expect_detected_abort, "{e:?}");
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().is_some_and(char::is_lowercase), "{msg}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
