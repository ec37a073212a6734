//! The daemon: listener, accept loop, per-request handlers, metrics.
//!
//! One thread accepts connections; each connection gets a handler
//! thread that reads exactly one request frame, answers exactly one
//! response frame, and closes. Job requests pass through the
//! [`Admission`] gate (bounded concurrency + bounded queue), then the
//! [`ResultCache`] (content-addressed, single-flight), then
//! [`triarch_core::driver::run_job`]; stats / ping / shutdown requests
//! bypass admission entirely so the daemon stays observable and
//! stoppable under full load.
//!
//! Job execution is wrapped in `catch_unwind` — the same containment
//! the worker pool applies to its jobs — so a panicking driver produces
//! a typed error frame, not a dead handler thread ([`panic_message`]
//! renders both payloads identically).

use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use triarch_core::driver::{self, Artifact, JobSpec};
use triarch_pool::panic_message;
use triarch_simcore::metrics::MetricsReport;
use triarch_simcore::SimError;

use crate::admission::Admission;
use crate::cache::{Lookup, ResultCache};
use crate::obs::{micros, AccessRecord, Obs, Outcome, PhaseTimes};
use crate::persist::Persistence;
use crate::protocol::{self, Frame, FrameKind};
use crate::{lock, ServeError};

/// Per-connection socket read/write timeout. Paper-workload report jobs
/// take seconds, not minutes; two minutes is a generous stall bound.
pub const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// A TCP endpoint, e.g. `127.0.0.1:7444`.
    Tcp(String),
    /// A Unix-domain socket path (`unix:` prefix on the CLI).
    #[cfg(unix)]
    Unix(PathBuf),
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(s) => f.write_str(s),
            #[cfg(unix)]
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// Parses a CLI address: `unix:<path>` or `<host>:<port>`.
///
/// # Errors
///
/// A one-line description when the address is neither form (used by the
/// CLI to fail fast with exit 2 before any socket work).
pub fn parse_addr(s: &str) -> Result<Addr, String> {
    if let Some(path) = s.strip_prefix("unix:") {
        if path.is_empty() {
            return Err(String::from("unix socket address needs a path after 'unix:'"));
        }
        #[cfg(unix)]
        return Ok(Addr::Unix(PathBuf::from(path)));
        #[cfg(not(unix))]
        return Err(String::from("unix socket addresses are not supported on this platform"));
    }
    let Some((host, port)) = s.rsplit_once(':') else {
        return Err(format!("bad address '{s}' (expected <host>:<port> or unix:<path>)"));
    };
    if host.is_empty() || port.parse::<u16>().is_err() {
        return Err(format!("bad address '{s}' (expected <host>:<port> or unix:<path>)"));
    }
    Ok(Addr::Tcp(s.to_string()))
}

/// A test hook: while held, every cache-miss build parks before running
/// its driver. Lets tests pin a worker deterministically (to prove
/// overload rejection and single-flight coalescing) without sleeping.
pub struct HoldGate {
    held: Mutex<bool>,
    cv: Condvar,
}

impl Default for HoldGate {
    fn default() -> Self {
        Self::new()
    }
}

impl HoldGate {
    /// A gate that starts held.
    #[must_use]
    pub fn new() -> HoldGate {
        HoldGate { held: Mutex::new(true), cv: Condvar::new() }
    }

    /// Opens the gate, releasing every parked build (idempotent).
    pub fn release(&self) {
        *lock(&self.held) = false;
        self.cv.notify_all();
    }

    /// Parks until the gate is released.
    pub fn wait(&self) {
        let mut held = lock(&self.held);
        while *held {
            held = self.cv.wait(held).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Daemon configuration.
pub struct ServeConfig {
    /// Where to listen.
    pub addr: Addr,
    /// Concurrent job executions (`--workers`, default 2).
    pub workers: usize,
    /// Admission-queue capacity (`--queue`, default 16).
    pub queue: usize,
    /// Result-cache bound in completed entries (`--cache-entries`,
    /// default 64).
    pub cache_entries: usize,
    /// Worker-pool width *inside* each job (`--jobs`); artifacts do not
    /// depend on it.
    pub jobs: usize,
    /// Suppress informational stderr logging (`--quiet` /
    /// `TRIARCH_QUIET=1`).
    pub quiet: bool,
    /// Crash-safe cache persistence root (`--cache-dir`). `None` keeps
    /// the cache memory-only; an unusable directory demotes to
    /// memory-only (degraded) instead of failing.
    pub cache_dir: Option<PathBuf>,
    /// Per-job wall-clock deadline (`--job-timeout`). A job that takes
    /// longer answers a typed `deadline-exceeded` error frame and is
    /// never cached.
    pub job_timeout: Option<Duration>,
    /// Phase-timed JSONL access log target (`--access-log`). `None`
    /// keeps request logging off; an unwritable path demotes to
    /// logging-off (degraded) instead of failing.
    pub access_log: Option<PathBuf>,
    /// Test hook: park cache-miss builds while held (see [`HoldGate`]).
    pub hold: Option<Arc<HoldGate>>,
}

impl ServeConfig {
    /// Defaults: 2 workers, queue 16, 64 cache entries, single-threaded
    /// inner pool, logging on.
    #[must_use]
    pub fn new(addr: Addr) -> ServeConfig {
        ServeConfig {
            addr,
            workers: 2,
            queue: 16,
            cache_entries: 64,
            jobs: 1,
            quiet: false,
            cache_dir: None,
            job_timeout: None,
            access_log: None,
            hold: None,
        }
    }
}

/// Shared server state.
struct ServerState {
    admission: Admission,
    cache: ResultCache,
    jobs: usize,
    quiet: bool,
    persist: Option<Persistence>,
    obs: Obs,
    job_timeout: Option<Duration>,
    hold: Option<Arc<HoldGate>>,
    stop: AtomicBool,
    addr: Addr,
    requests: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
    deadline_exceeded: AtomicU64,
}

impl ServerState {
    /// The `serve.*` registry, rendered through the workspace
    /// Prometheus renderer (dots become underscores on the wire).
    fn metrics(&self) -> MetricsReport {
        let mut m = MetricsReport::new();
        let cache = self.cache.stats();
        let adm = self.admission.snapshot();
        m.counter("serve.requests", self.requests.load(Ordering::Relaxed));
        m.counter("serve.errors", self.errors.load(Ordering::Relaxed));
        m.counter("serve.connections", self.connections.load(Ordering::Relaxed));
        m.counter("serve.cache.hits", cache.hits);
        m.counter("serve.cache.misses", cache.misses);
        m.counter("serve.cache.coalesced", cache.coalesced);
        m.counter("serve.cache.evictions", cache.evictions);
        m.gauge("serve.cache.entries", cache.entries as f64);
        m.gauge("serve.cache.capacity", cache.capacity as f64);
        m.counter("serve.queue.rejected", adm.rejected);
        m.gauge("serve.queue.depth", adm.waiting as f64);
        m.gauge("serve.queue.capacity", adm.capacity as f64);
        m.gauge("serve.inflight", adm.active as f64);
        m.gauge("serve.workers", adm.workers as f64);
        m.counter("serve.deadline.exceeded", self.deadline_exceeded.load(Ordering::Relaxed));
        if let Some(persist) = &self.persist {
            persist.export(&mut m);
        }
        self.obs.export(&mut m);
        m
    }
}

/// One bound listener.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// One accepted (or dialed) connection.
pub(crate) enum Stream {
    /// TCP transport.
    Tcp(TcpStream),
    /// Unix-domain transport.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn set_timeouts(&self, timeout: Duration) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Dials `addr` once.
pub(crate) fn connect(addr: &Addr) -> std::io::Result<Stream> {
    match addr {
        Addr::Tcp(s) => TcpStream::connect(s).map(Stream::Tcp),
        #[cfg(unix)]
        Addr::Unix(p) => UnixStream::connect(p).map(Stream::Unix),
    }
}

/// A running daemon.
pub struct ServerHandle {
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The resolved listen address (port 0 replaced by the bound port).
    #[must_use]
    pub fn addr(&self) -> &Addr {
        &self.state.addr
    }

    /// Asks the accept loop to stop, then joins it (and through it every
    /// handler thread). Idempotent with a client-sent shutdown.
    pub fn shutdown(mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = connect(&self.state.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Waits for the daemon to exit on its own (e.g. after a client
    /// shutdown request).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Binds, spawns the accept loop, and returns immediately.
///
/// # Errors
///
/// [`ServeError::Io`] when the address cannot be bound. A pre-existing
/// Unix socket file is removed first (the daemon owns its socket path;
/// stale files from a killed process would otherwise wedge restarts).
pub fn serve(config: ServeConfig) -> Result<ServerHandle, ServeError> {
    let (listener, addr) = match &config.addr {
        Addr::Tcp(spec) => {
            let listener = TcpListener::bind(spec).map_err(|e| ServeError::io(&e))?;
            let local = listener.local_addr().map_err(|e| ServeError::io(&e))?;
            (Listener::Tcp(listener), Addr::Tcp(local.to_string()))
        }
        #[cfg(unix)]
        Addr::Unix(path) => {
            if path.exists() {
                std::fs::remove_file(path).map_err(|e| ServeError::io(&e))?;
            }
            let listener = UnixListener::bind(path).map_err(|e| ServeError::io(&e))?;
            (Listener::Unix(listener), Addr::Unix(path.clone()))
        }
    };
    let persist = config.cache_dir.as_deref().map(|dir| Persistence::open(dir, config.quiet));
    // The boot token seed: listen address plus pid, so concurrent
    // daemons mint distinguishable request ids.
    let obs_seed = format!("{addr}#{}", std::process::id());
    let obs = Obs::open(obs_seed.as_bytes(), config.access_log.as_deref(), config.quiet);
    let state = Arc::new(ServerState {
        admission: Admission::new(config.workers, config.queue),
        cache: ResultCache::new(config.cache_entries),
        jobs: config.jobs.max(1),
        quiet: config.quiet,
        persist,
        obs,
        job_timeout: config.job_timeout,
        hold: config.hold,
        stop: AtomicBool::new(false),
        addr,
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        deadline_exceeded: AtomicU64::new(0),
    });
    // Startup recovery: load every valid record (capped at the cache
    // bound — excess files are dropped so a restart can never resurrect
    // more than `cache_entries` entries), skip corrupt ones, count both.
    if let Some(persist) = &state.persist {
        let recovery = persist.recover();
        let skipped = recovery.skipped_corrupt;
        let (installed, overflow) = state.cache.preload(recovery.entries);
        persist.note_loaded(installed as u64);
        persist.note_skipped(skipped);
        for key in &overflow {
            persist.remove(key);
        }
        if !state.quiet && !persist.is_degraded() {
            eprintln!(
                "serve: recovered {installed} cached entries ({skipped} corrupt records skipped)"
            );
        }
    }
    if !state.quiet {
        eprintln!(
            "serve: listening on {} ({} workers, queue {}, cache {} entries, {} pool jobs)",
            state.addr, config.workers, config.queue, config.cache_entries, state.jobs,
        );
    }
    let accept = {
        let state = Arc::clone(&state);
        thread::spawn(move || accept_loop(&state, &listener))
    };
    Ok(ServerHandle { state, accept: Some(accept) })
}

/// Accepts until the stop flag is raised, then joins every handler.
fn accept_loop(state: &Arc<ServerState>, listener: &Listener) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                if !state.quiet {
                    eprintln!("serve: accept failed: {e}");
                }
                continue;
            }
        };
        state.connections.fetch_add(1, Ordering::Relaxed);
        handlers.retain(|h| !h.is_finished());
        let state = Arc::clone(state);
        handlers.push(thread::spawn(move || handle_connection(&state, stream)));
    }
    #[cfg(unix)]
    if let Addr::Unix(path) = &state.addr {
        let _ = std::fs::remove_file(path);
    }
    for h in handlers {
        let _ = h.join();
    }
    // Graceful drain complete: every inflight job has answered. Flush
    // any cache entry whose segment file is missing (write-through
    // normally already covered them; this catches entries that landed
    // while persistence was briefly unavailable or preloaded entries
    // whose files were corrupted on disk after loading).
    if let Some(persist) = &state.persist {
        for (key, artifact) in state.cache.entries() {
            persist.save_if_missing(&key, &artifact);
        }
    }
    // Flush + fsync the access log before the process exits, so the
    // final requests of a run are never lost to a page cache.
    state.obs.close();
    if !state.quiet {
        eprintln!("serve: stopped");
    }
}

/// What one request's handlers learned about it, accumulated on the way
/// to its [`AccessRecord`]. Only job requests produce a record; probes
/// (ping / stats / shutdown) leave `is_job` false and are not logged.
#[derive(Debug, Default)]
struct Trace {
    is_job: bool,
    driver: Option<&'static str>,
    key: u64,
    lookup: Option<Lookup>,
    phases: PhaseTimes,
}

/// Reads one request, writes one response, closes.
fn handle_connection(state: &Arc<ServerState>, mut stream: Stream) {
    if stream.set_timeouts(IO_TIMEOUT).is_err() {
        return;
    }
    let id = state.obs.mint();
    let mut trace = Trace::default();
    let accept_start = Instant::now();
    let read = protocol::read_frame(&mut stream);
    trace.phases.accept_us = micros(accept_start.elapsed());
    let reply = read.and_then(|frame| dispatch(state, &frame, &mut trace));
    let (kind, body, outcome) = match reply {
        Ok((kind, body)) => {
            let outcome = match trace.lookup {
                Some(Lookup::Hit) => Outcome::Hit,
                Some(Lookup::Coalesced) => Outcome::Coalesced,
                Some(Lookup::Miss) | None => Outcome::Miss,
            };
            (kind, body, outcome)
        }
        Err(e) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            if !state.quiet {
                eprintln!("serve: [{id}] request failed: {e}");
            }
            let outcome = match e {
                ServeError::QueueFull { .. } | ServeError::ShuttingDown => Outcome::Rejected,
                ServeError::DeadlineExceeded { .. } => Outcome::Deadline,
                _ => Outcome::Error,
            };
            (FrameKind::Error, protocol::encode_error(&e), outcome)
        }
    };
    // Job replies and their access-log records form one critical
    // section under the obs order lock, so the log's record order
    // matches the order clients observe responses in.
    let order = trace.is_job.then(|| state.obs.order());
    let respond_start = Instant::now();
    let wrote = protocol::write_frame(&mut stream, kind, Some(&id.to_string()), &body);
    trace.phases.respond_us = micros(respond_start.elapsed());
    if let Err(e) = wrote {
        if !state.quiet {
            eprintln!("serve: [{id}] reply failed: {e}");
        }
    }
    if trace.is_job {
        state.obs.record(&AccessRecord {
            id: id.to_string(),
            driver: String::from(trace.driver.unwrap_or("-")),
            key: trace.key,
            outcome,
            bytes_out: body.len() as u64,
            phases: trace.phases,
        });
    }
    drop(order);
}

/// Routes one decoded request frame.
fn dispatch(
    state: &Arc<ServerState>,
    frame: &Frame,
    trace: &mut Trace,
) -> Result<(FrameKind, Vec<u8>), ServeError> {
    match frame.kind {
        FrameKind::PingRequest => Ok((FrameKind::OkMiss, b"pong".to_vec())),
        FrameKind::StatsRequest => {
            // Observability bypasses admission: stats must answer even
            // (especially) when every worker is pinned.
            Ok((FrameKind::OkMiss, state.metrics().render_prometheus().into_bytes()))
        }
        FrameKind::ShutdownRequest => {
            state.stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = connect(&state.addr);
            Ok((FrameKind::OkMiss, b"shutting down".to_vec()))
        }
        FrameKind::JobRequest => {
            trace.is_job = true;
            handle_job(state, &frame.body, trace)
        }
        FrameKind::OkMiss | FrameKind::OkHit | FrameKind::Error => Err(ServeError::bad_frame(
            format!("response frame kind {:?} sent as a request", frame.kind),
        )),
    }
}

/// Decodes, admits, and runs (or fetches) one job.
fn handle_job(
    state: &Arc<ServerState>,
    body: &[u8],
    trace: &mut Trace,
) -> Result<(FrameKind, Vec<u8>), ServeError> {
    state.requests.fetch_add(1, Ordering::Relaxed);
    if state.stop.load(Ordering::SeqCst) {
        return Err(ServeError::ShuttingDown);
    }
    let text =
        std::str::from_utf8(body).map_err(|_| ServeError::bad_request("job body is not UTF-8"))?;
    let spec = JobSpec::from_json(text).map_err(|e| match e {
        SimError::Protocol { what } => ServeError::BadRequest { what },
        other => ServeError::Sim(other),
    })?;
    trace.driver = Some(spec.driver.name());
    trace.key = spec.key();
    let key = spec.canonical();
    let queue_start = Instant::now();
    let permit = state.admission.admit();
    trace.phases.queue_us = micros(queue_start.elapsed());
    let permit = permit?;
    // The cache call covers both the lookup and (on a miss) the build;
    // timing the build from inside the closure splits them apart. A
    // coalesced wait has no build of its own, so its whole wait is
    // lookup time.
    let build_us = Cell::new(0u64);
    let lookup_start = Instant::now();
    let result = state.cache.get_or_build(&key, || {
        let build_start = Instant::now();
        let built = execute_job(state, &spec);
        build_us.set(micros(build_start.elapsed()));
        built
    });
    let cache_us = micros(lookup_start.elapsed());
    drop(permit);
    trace.phases.build_us = build_us.get();
    trace.phases.lookup_us = cache_us.saturating_sub(build_us.get());
    let (artifact, lookup, evicted) = result.map_err(|e| match e {
        SimError::DeadlineExceeded { millis } => {
            state.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            ServeError::DeadlineExceeded { millis }
        }
        other => ServeError::Sim(other),
    })?;
    trace.lookup = Some(lookup);
    let hit = lookup.is_hit();
    // Write-through persistence: a fresh miss lands on disk before its
    // response leaves; entries the LRU bound pushed out lose their
    // segment files so a restart cannot resurrect them.
    if let Some(persist) = &state.persist {
        let persist_start = Instant::now();
        if !hit {
            persist.save(&key, &artifact);
        }
        for evicted_key in &evicted {
            persist.remove(evicted_key);
        }
        trace.phases.persist_us = micros(persist_start.elapsed());
    }
    if !state.quiet {
        eprintln!(
            "serve: {key} [{:016x}] -> {} ({} bytes)",
            spec.key(),
            if hit { "hit" } else { "miss" },
            artifact.body.len(),
        );
    }
    let kind = if hit { FrameKind::OkHit } else { FrameKind::OkMiss };
    Ok((kind, protocol::encode_artifact(&artifact.content_type, &artifact.body)))
}

/// Runs one driver job with panic containment (and the test hold gate).
fn run_build(
    spec: &JobSpec,
    jobs: usize,
    hold: Option<&Arc<HoldGate>>,
) -> Result<Artifact, SimError> {
    if let Some(gate) = hold {
        gate.wait();
    }
    match catch_unwind(AssertUnwindSafe(|| driver::run_job(spec, jobs))) {
        Ok(r) => r,
        Err(payload) => Err(SimError::job_panicked(0, panic_message(&*payload))),
    }
}

/// Runs one job, enforcing the configured wall-clock deadline.
///
/// Without `--job-timeout` the build runs inline on the handler thread.
/// With a deadline, the build runs on a watched thread and the handler
/// waits at most `limit`: the service-layer analogue of the
/// `CycleBudget` watchdog — host time instead of simulated cycles. On
/// expiry the handler answers a typed [`SimError::DeadlineExceeded`]
/// (never cached, like every error) and detaches the runner; the
/// stranded result is discarded when it eventually lands.
fn execute_job(state: &Arc<ServerState>, spec: &JobSpec) -> Result<Artifact, SimError> {
    let Some(limit) = state.job_timeout else {
        return run_build(spec, state.jobs, state.hold.as_ref());
    };
    let (tx, rx) = mpsc::channel();
    let spec = spec.clone();
    let jobs = state.jobs;
    let hold = state.hold.clone();
    thread::spawn(move || {
        // The receiver may have timed out and gone; a send error just
        // means nobody wants the stranded result.
        let _ = tx.send(run_build(&spec, jobs, hold.as_ref()));
    });
    match rx.recv_timeout(limit) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            Err(SimError::deadline_exceeded(limit.as_millis() as u64))
        }
        // Unreachable in practice: run_build contains panics, so the
        // sender always sends. Typed anyway rather than panicking.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Err(SimError::job_panicked(0, "job runner thread vanished"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_addr_accepts_tcp_and_unix_and_rejects_garbage() {
        assert_eq!(parse_addr("127.0.0.1:7444"), Ok(Addr::Tcp(String::from("127.0.0.1:7444"))));
        assert_eq!(parse_addr("localhost:0"), Ok(Addr::Tcp(String::from("localhost:0"))));
        #[cfg(unix)]
        assert_eq!(parse_addr("unix:/tmp/s.sock"), Ok(Addr::Unix(PathBuf::from("/tmp/s.sock"))));
        for bad in ["", "nocolon", ":7444", "host:", "host:notaport", "host:99999", "unix:"] {
            assert!(parse_addr(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn addr_display_round_trips_through_parse() {
        for addr in ["127.0.0.1:7444", "unix:/tmp/triarch.sock"] {
            let parsed = parse_addr(addr).unwrap();
            assert_eq!(parsed.to_string(), addr);
            assert_eq!(parse_addr(&parsed.to_string()), Ok(parsed));
        }
    }

    #[test]
    fn hold_gate_parks_until_released() {
        let gate = Arc::new(HoldGate::new());
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.wait())
        };
        assert!(!waiter.is_finished());
        gate.release();
        waiter.join().unwrap();
        // Released gates pass immediately.
        gate.wait();
    }
}
