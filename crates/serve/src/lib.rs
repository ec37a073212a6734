//! `triarch-serve` — simulation-as-a-service for the triarch campaign
//! drivers.
//!
//! A long-running daemon turns the one-shot `repro` batch drivers into a
//! shared service: clients submit typed [`JobSpec`]s over a TCP or Unix
//! socket, the server runs each job once on the in-process simulators,
//! and every result lands in a content-addressed cache so repeat
//! requests return the stored artifact byte-for-byte. The stack is four
//! small layers, all standard library (the workspace is
//! dependency-free):
//!
//! * [`protocol`] — the versioned, length-prefixed wire framing
//!   (`TRSV` magic, one request per connection, error frames carry a
//!   stable machine-readable code);
//! * [`cache`] — the bounded single-flight result cache keyed by
//!   [`JobSpec::canonical`]: concurrent identical requests coalesce onto
//!   one computation, errors are never cached, and completed artifacts
//!   are evicted least-recently-used;
//! * [`admission`] — graceful degradation: at most `workers` jobs run
//!   concurrently, at most `queue` more wait, and everything beyond that
//!   is rejected immediately with a typed overload error instead of
//!   queueing unboundedly;
//! * [`server`] / [`client`] — the accept loop, the per-request
//!   handlers, the `serve.*` metrics registry rendered through the
//!   workspace Prometheus renderer, and the blocking client the
//!   `servectl` CLI wraps;
//! * [`persist`] — crash-safe on-disk cache persistence
//!   (`--cache-dir`): checksummed segment records written via atomic
//!   rename, a recovery pass that skips corrupt records without
//!   panicking, and a degraded memory-only mode when the directory is
//!   unusable;
//! * [`backoff`] — the single deterministic seeded
//!   exponential-backoff-with-jitter retry policy shared by every
//!   client retry site;
//! * [`obs`] — request-level observability: minted request ids that
//!   every reply frame carries, the phase-timed JSONL access log
//!   (`--access-log`), and the `serve.latency.*` / `serve.phase.*`
//!   histograms — wall-clock side channels that never touch a
//!   deterministic artifact.
//!
//! Determinism is the load-bearing property: every simulator in the
//! workspace is a pure function of its inputs, so a cache keyed by the
//! canonical job spec can never serve a stale or wrong answer — a warm
//! hit is byte-identical to the cold miss that populated it, which is in
//! turn byte-identical to one-shot `repro` output for the same driver.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::error::Error;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

use triarch_simcore::SimError;

pub mod admission;
pub mod backoff;
pub mod cache;
pub mod client;
pub mod obs;
pub mod persist;
pub mod protocol;
pub mod server;

pub use backoff::Backoff;
pub use client::{Client, SubmitResponse};
pub use obs::{AccessRecord, Outcome, PhaseTimes, RequestId, RequestIds};
pub use server::{parse_addr, serve, Addr, HoldGate, ServeConfig, ServerHandle};
pub use triarch_core::driver::{Artifact, DriverKind, JobSpec, WorkloadKind};

/// An error produced by the serving layer — admission, framing, request
/// decoding, transport, or the simulation itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded admission queue was full; the request was rejected
    /// before any simulation work started, so retrying later is safe.
    QueueFull {
        /// Requests already waiting when this one was rejected.
        depth: usize,
        /// The queue's capacity.
        capacity: usize,
    },
    /// The peer sent bytes that are not a valid frame (bad magic, a
    /// bogus kind byte, an oversized or truncated body).
    BadFrame {
        /// What was wrong with the frame.
        what: String,
    },
    /// The peer speaks a different protocol revision.
    UnsupportedVersion {
        /// The version byte the peer sent.
        got: u8,
        /// The version this build speaks.
        want: u8,
    },
    /// The frame was well-formed but the request body was not (malformed
    /// JSON, unknown driver, missing driver arguments).
    BadRequest {
        /// What was wrong with the request.
        what: String,
    },
    /// The job's wall-clock deadline (`--job-timeout`) expired before a
    /// result landed. The partial result is discarded and never cached,
    /// so retrying (ideally against a less loaded daemon, or with a
    /// longer deadline) is always safe.
    DeadlineExceeded {
        /// The wall-clock limit that expired, in milliseconds.
        millis: u64,
    },
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// A socket-level failure (connect, read, write, timeout).
    Io {
        /// The rendered I/O error.
        what: String,
    },
    /// The job was admitted and ran, but the simulation failed.
    Sim(SimError),
    /// The server reported a failure over the wire; `code` is the stable
    /// machine-readable error class (the sender's
    /// [`ServeError::code`]).
    Remote {
        /// The wire error code, e.g. `"queue-full"`.
        code: String,
        /// The server's rendered error message.
        message: String,
    },
}

impl ServeError {
    /// Convenience constructor for [`ServeError::BadFrame`].
    pub fn bad_frame(what: impl Into<String>) -> Self {
        ServeError::BadFrame { what: what.into() }
    }

    /// Convenience constructor for [`ServeError::BadRequest`].
    pub fn bad_request(what: impl Into<String>) -> Self {
        ServeError::BadRequest { what: what.into() }
    }

    /// Convenience constructor for [`ServeError::Io`].
    pub fn io(err: &std::io::Error) -> Self {
        ServeError::Io { what: err.to_string() }
    }

    /// The stable machine-readable error class carried in wire error
    /// frames (and echoed back by [`ServeError::Remote`]).
    #[must_use]
    pub fn code(&self) -> &str {
        match self {
            ServeError::QueueFull { .. } => "queue-full",
            ServeError::BadFrame { .. } => "bad-frame",
            ServeError::UnsupportedVersion { .. } => "unsupported-version",
            ServeError::BadRequest { .. } => "bad-request",
            ServeError::DeadlineExceeded { .. } => "deadline-exceeded",
            ServeError::ShuttingDown => "shutting-down",
            ServeError::Io { .. } => "io",
            ServeError::Sim(_) => "sim",
            ServeError::Remote { code, .. } => code,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { depth, capacity } => {
                write!(f, "admission queue full: {depth} waiting of capacity {capacity}")
            }
            ServeError::BadFrame { what } => write!(f, "bad frame: {what}"),
            ServeError::UnsupportedVersion { got, want } => {
                write!(f, "unsupported protocol version {got} (this build speaks {want})")
            }
            ServeError::BadRequest { what } => write!(f, "bad request: {what}"),
            ServeError::DeadlineExceeded { millis } => {
                write!(f, "job deadline exceeded: no result after {millis} ms")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Io { what } => write!(f, "i/o error: {what}"),
            ServeError::Sim(e) => write!(f, "{e}"),
            ServeError::Remote { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl Error for ServeError {}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock. Every
/// critical section in this crate holds plain counters or maps that
/// stay consistent even if a panicking thread abandoned them (job
/// panics are caught before they can unwind through a lock anyway).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant renders a message and exposes a stable code. The
    /// match is wildcard-free so a new variant breaks this test at
    /// compile time.
    #[test]
    fn codes_and_messages_cover_every_variant() {
        let samples = [
            ServeError::QueueFull { depth: 1, capacity: 1 },
            ServeError::bad_frame("x"),
            ServeError::UnsupportedVersion { got: 9, want: 1 },
            ServeError::bad_request("x"),
            ServeError::DeadlineExceeded { millis: 250 },
            ServeError::ShuttingDown,
            ServeError::Io { what: String::from("x") },
            ServeError::Sim(SimError::unsupported("x")),
            ServeError::Remote { code: String::from("queue-full"), message: String::from("x") },
        ];
        for e in samples {
            let code = match &e {
                ServeError::QueueFull { .. } => "queue-full",
                ServeError::BadFrame { .. } => "bad-frame",
                ServeError::UnsupportedVersion { .. } => "unsupported-version",
                ServeError::BadRequest { .. } => "bad-request",
                ServeError::DeadlineExceeded { .. } => "deadline-exceeded",
                ServeError::ShuttingDown => "shutting-down",
                ServeError::Io { .. } => "io",
                ServeError::Sim(_) => "sim",
                ServeError::Remote { .. } => "queue-full",
            };
            assert_eq!(e.code(), code, "{e:?}");
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn queue_full_names_depth_and_capacity() {
        let e = ServeError::QueueFull { depth: 3, capacity: 4 };
        assert_eq!(e.to_string(), "admission queue full: 3 waiting of capacity 4");
    }
}
