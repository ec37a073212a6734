//! The blocking client (`servectl` wraps it; tests drive it directly).
//!
//! One request per connection: each call dials the server, writes one
//! frame, reads one frame, and closes. Error frames come back as
//! [`ServeError::Remote`] carrying the server's stable error code, so
//! callers can distinguish an overloaded daemon (retry later) from a
//! rejected request (fix the request).
//!
//! Retries run through the one shared [`Backoff`] policy: connect
//! failures (the daemon has not bound yet) and typed `queue-full`
//! rejections (the daemon is briefly saturated) both wait out the
//! policy's deterministic schedule and try again. Nothing else retries
//! — a `bad-request` or `sim` error is the caller's problem, and a
//! `deadline-exceeded` means the job is too slow for the daemon's
//! configured deadline, not that the daemon is busy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use crate::backoff::Backoff;
use crate::protocol::{self, FrameKind};
use crate::server::{connect, Addr, IO_TIMEOUT};
use crate::{JobSpec, ServeError};

/// A successfully served job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitResponse {
    /// Whether the cache answered (stored entry or coalesced build).
    pub hit: bool,
    /// The artifact's media type.
    pub content_type: String,
    /// The artifact bytes, verbatim.
    pub body: String,
    /// The request id the server minted, echoed only when the client
    /// opted into the version-2 protocol
    /// ([`Client::with_request_ids`]); `None` on the default v1 path.
    pub request_id: Option<String>,
}

/// A blocking triarch-serve client.
pub struct Client {
    addr: Addr,
    backoff: Backoff,
    attempts: AtomicU64,
    trace_ids: bool,
}

impl Client {
    /// A client for `addr` that fails fast on connection errors.
    #[must_use]
    pub fn new(addr: Addr) -> Client {
        Client { addr, backoff: Backoff::none(), attempts: AtomicU64::new(0), trace_ids: false }
    }

    /// Opts into the version-2 protocol: requests go out as v2 frames
    /// and the server echoes its minted request id back in the reply.
    /// Off by default — the default client emits the exact version-1
    /// bytes every pre-v2 build emitted.
    #[must_use]
    pub fn with_request_ids(mut self) -> Client {
        self.trace_ids = true;
        self
    }

    /// Installs a retry policy. Connect failures and typed `queue-full`
    /// rejections retry on the policy's schedule; every other error
    /// fails immediately.
    #[must_use]
    pub fn with_backoff(mut self, backoff: Backoff) -> Client {
        self.backoff = backoff;
        self
    }

    /// Retries performed so far (connect and queue-full combined),
    /// exported by servectl as `serve.retry.attempts`.
    #[must_use]
    pub fn retry_attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Submits a job and returns the artifact. A typed `queue-full`
    /// rejection retries on the backoff schedule (the rejection happened
    /// before any simulation work, so resubmitting is always safe).
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] for server-reported failures (overload,
    /// bad request, simulation error), [`ServeError::Io`] for transport
    /// failures.
    pub fn submit(&self, spec: &JobSpec) -> Result<SubmitResponse, ServeError> {
        let body = spec.to_json();
        let mut attempt = 0;
        let reply = loop {
            match self.round_trip(FrameKind::JobRequest, body.as_bytes()) {
                Err(ServeError::Remote { ref code, .. })
                    if code == "queue-full" && attempt < self.backoff.retries =>
                {
                    thread::sleep(self.backoff.delay(attempt));
                    attempt += 1;
                    self.attempts.fetch_add(1, Ordering::Relaxed);
                }
                other => break other?,
            }
        };
        let hit = match reply.kind {
            FrameKind::OkHit => true,
            FrameKind::OkMiss => false,
            kind => {
                return Err(ServeError::bad_frame(format!(
                    "unexpected reply kind {kind:?} to a job request"
                )));
            }
        };
        let (content_type, body) = protocol::decode_artifact(&reply.body)?;
        Ok(SubmitResponse { hit, content_type, body, request_id: reply.request_id })
    }

    /// Fetches the server's `serve.*` metrics dump (Prometheus text).
    ///
    /// # Errors
    ///
    /// Same classes as [`submit`](Client::submit).
    pub fn stats(&self) -> Result<String, ServeError> {
        let reply = self.round_trip(FrameKind::StatsRequest, b"")?;
        String::from_utf8(reply.body).map_err(|_| ServeError::bad_frame("stats body is not UTF-8"))
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Same classes as [`submit`](Client::submit).
    pub fn ping(&self) -> Result<(), ServeError> {
        self.round_trip(FrameKind::PingRequest, b"").map(|_| ())
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Same classes as [`submit`](Client::submit).
    pub fn shutdown(&self) -> Result<(), ServeError> {
        self.round_trip(FrameKind::ShutdownRequest, b"").map(|_| ())
    }

    /// Dials (with retries), sends one frame, reads the reply, and maps
    /// error frames onto [`ServeError::Remote`].
    fn round_trip(&self, kind: FrameKind, body: &[u8]) -> Result<protocol::Frame, ServeError> {
        let mut stream = self.dial()?;
        stream.set_timeouts(IO_TIMEOUT).map_err(|e| ServeError::io(&e))?;
        if self.trace_ids {
            protocol::write_frame_v2(&mut stream, kind, None, body)?;
        } else {
            protocol::write_frame(&mut stream, kind, body)?;
        }
        let reply = protocol::read_frame(&mut stream)?;
        if reply.kind == FrameKind::Error {
            return Err(protocol::decode_error(&reply.body));
        }
        Ok(reply)
    }

    fn dial(&self) -> Result<crate::server::Stream, ServeError> {
        let mut attempt = 0;
        loop {
            match connect(&self.addr) {
                Ok(stream) => return Ok(stream),
                Err(_) if attempt < self.backoff.retries => {
                    thread::sleep(self.backoff.delay(attempt));
                    attempt += 1;
                    self.attempts.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    return Err(ServeError::Io {
                        what: format!("cannot connect to {}: {e}", self.addr),
                    });
                }
            }
        }
    }
}
