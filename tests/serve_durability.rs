//! Chaos-testing the durability layer of `triarch-serve`: crash-safe
//! cache persistence (`--cache-dir`), per-job wall-clock deadlines
//! (`--job-timeout`), the shared deterministic retry policy, degraded
//! memory-only operation, and the access log's durability contract
//! (flushed and fsynced on shutdown, demoted to logging-off when the
//! path is unwritable).
//!
//! The suite runs the daemon both in-process (for counter-exact
//! assertions) and as a real `repro -- serve` subprocess (so it can
//! `SIGKILL` the daemon mid-campaign and prove the restart serves warm
//! responses byte-identical to the cold misses that populated the
//! cache). Every endpoint is ephemeral (`127.0.0.1:0` or a tempdir
//! socket), so the suite is parallel-safe.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use triarch_core::arch::Architecture;
use triarch_core::driver::{DriverKind, JobSpec, WorkloadKind};
use triarch_kernels::machine::Kernel;
use triarch_serve::persist::{decode_entry, encode_entry, foreign_layout_message, PersistError};
use triarch_serve::{
    parse_addr, serve, AccessRecord, Backoff, Client, HoldGate, Outcome, RequestId, ServeConfig,
    ServeError, ServerHandle,
};

/// A fresh scratch directory under the cargo-managed tmpdir.
fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("durability-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts a quiet in-process daemon on an ephemeral TCP port.
fn start(configure: impl FnOnce(&mut ServeConfig)) -> (ServerHandle, Client) {
    let mut config = ServeConfig::new(parse_addr("127.0.0.1:0").unwrap());
    config.quiet = true;
    configure(&mut config);
    let handle = serve(config).unwrap();
    let client = Client::new(handle.addr().clone());
    (handle, client)
}

/// A cheap single-cell job with a distinct cache key per kernel.
fn flame_job(kernel: Kernel) -> JobSpec {
    let mut spec = JobSpec::new(DriverKind::Flame, WorkloadKind::Small);
    spec.cell = Some((Architecture::Viram, kernel));
    spec
}

/// Polls the daemon's stats dump until `line` appears (or panics after
/// ten seconds).
fn await_stats_line(client: &Client, line: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().unwrap();
        if stats.lines().any(|l| l == line) {
            return stats;
        }
        assert!(Instant::now() < deadline, "stats never showed {line:?}; last dump:\n{stats}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// Asserts `line` is present in a stats dump.
fn assert_stats_line(stats: &str, line: &str) {
    assert!(stats.lines().any(|l| l == line), "missing {line:?} in:\n{stats}");
}

/// The cache segment files currently on disk, sorted.
fn trsc_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("trsc"))
        .collect();
    files.sort();
    files
}

#[test]
fn segment_records_round_trip_and_reject_foreign_layouts() {
    let artifact = triarch_serve::Artifact {
        content_type: String::from("text/html"),
        body: String::from("<html>durable</html>"),
    };
    let record = encode_entry("triarch-job v1 driver=report", &artifact);
    let (key, decoded) = decode_entry(&record).unwrap();
    assert_eq!(key, "triarch-job v1 driver=report");
    assert_eq!(decoded, artifact);

    // A foreign layout version is rejected with the pinned message.
    let mut foreign = record.clone();
    foreign[4] = 7;
    let err = decode_entry(&foreign).unwrap_err();
    assert_eq!(err.to_string(), "unsupported cache layout version 7 (this build writes 1)");
    assert_eq!(err.to_string(), foreign_layout_message(7));

    // Truncation and bit flips are typed corruption, never a panic.
    for cut in [0, 4, record.len() / 2, record.len() - 1] {
        assert!(matches!(decode_entry(&record[..cut]), Err(PersistError::Corrupt { .. })));
    }
    let mut flipped = record;
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    assert!(decode_entry(&flipped).is_err());
}

#[test]
fn warm_after_restart_is_byte_identical_and_counted() {
    let dir = tmp("restart");
    let spec = JobSpec::new(DriverKind::Table3, WorkloadKind::Small);

    // First life: one cold miss, written through to disk.
    let (handle, client) = start(|c| c.cache_dir = Some(dir.clone()));
    let cold = client.submit(&spec).unwrap();
    assert!(!cold.hit);
    let stats = client.stats().unwrap();
    assert_stats_line(&stats, "triarch_serve_persist_flushed 1");
    assert_stats_line(&stats, "triarch_serve_persist_loaded 0");
    assert_stats_line(&stats, "triarch_serve_persist_degraded 0.0");
    assert_eq!(trsc_files(&dir).len(), 1);
    handle.shutdown();

    // Second life: recovery loads the entry; the first request is a warm
    // hit, byte-identical to the cold miss (and hence to one-shot repro
    // output, which serve_validation already pins against cold misses).
    let (handle, client) = start(|c| c.cache_dir = Some(dir.clone()));
    let stats = client.stats().unwrap();
    assert_stats_line(&stats, "triarch_serve_persist_loaded 1");
    assert_stats_line(&stats, "triarch_serve_persist_skipped_corrupt 0");
    let warm = client.submit(&spec).unwrap();
    assert!(warm.hit, "recovered entry must answer as a cache hit");
    assert_eq!(warm.body, cold.body, "warm-after-restart must be byte-identical");
    assert_eq!(warm.content_type, cold.content_type);
    handle.shutdown();
}

#[test]
fn corrupt_records_are_skipped_counted_and_recomputed_identically() {
    let dir = tmp("corrupt");
    let spec_a = flame_job(Kernel::CornerTurn);
    let spec_b = flame_job(Kernel::Cslc);

    let (handle, client) = start(|c| c.cache_dir = Some(dir.clone()));
    let cold_a = client.submit(&spec_a).unwrap();
    let cold_b = client.submit(&spec_b).unwrap();
    handle.shutdown();

    // Damage both records differently: truncate one, bit-flip the other.
    let files = trsc_files(&dir);
    assert_eq!(files.len(), 2);
    let bytes = fs::read(&files[0]).unwrap();
    fs::write(&files[0], &bytes[..bytes.len() / 3]).unwrap();
    let mut bytes = fs::read(&files[1]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x80;
    fs::write(&files[1], &bytes).unwrap();

    // Recovery skips both, counts both, and never panics; the jobs
    // recompute as fresh misses with byte-identical artifacts.
    let (handle, client) = start(|c| c.cache_dir = Some(dir.clone()));
    let stats = client.stats().unwrap();
    assert_stats_line(&stats, "triarch_serve_persist_loaded 0");
    assert_stats_line(&stats, "triarch_serve_persist_skipped_corrupt 2");
    let redo_a = client.submit(&spec_a).unwrap();
    let redo_b = client.submit(&spec_b).unwrap();
    assert!(!redo_a.hit && !redo_b.hit, "corrupt records must not answer as hits");
    assert_eq!(redo_a.body, cold_a.body, "recomputed artifact must be byte-identical");
    assert_eq!(redo_b.body, cold_b.body);
    handle.shutdown();
}

#[test]
fn eviction_drops_segment_files_and_restart_respects_the_cache_bound() {
    let dir = tmp("eviction");
    let kernels = [Kernel::CornerTurn, Kernel::Cslc, Kernel::BeamSteering];

    // A two-entry cache sees three distinct jobs: the LRU bound evicts
    // the oldest, and its segment file goes with it.
    let (handle, client) = start(|c| {
        c.cache_dir = Some(dir.clone());
        c.cache_entries = 2;
    });
    for kernel in kernels {
        client.submit(&flame_job(kernel)).unwrap();
    }
    let stats = client.stats().unwrap();
    assert_stats_line(&stats, "triarch_serve_cache_evictions 1");
    assert_eq!(trsc_files(&dir).len(), 2, "evicted entries must lose their segment files");
    // The evicted (oldest) job is a miss again; the newest is still hot.
    assert!(!client.submit(&flame_job(Kernel::CornerTurn)).unwrap().hit);
    assert!(client.submit(&flame_job(Kernel::BeamSteering)).unwrap().hit);
    handle.shutdown();

    // A restart with a smaller bound loads exactly the bound; the excess
    // file is dropped from disk so the next restart agrees.
    let (handle, client) = start(|c| {
        c.cache_dir = Some(dir.clone());
        c.cache_entries = 1;
    });
    let stats = client.stats().unwrap();
    assert_stats_line(&stats, "triarch_serve_persist_loaded 1");
    assert_stats_line(&stats, "triarch_serve_cache_entries 1.0");
    assert_eq!(trsc_files(&dir).len(), 1, "overflow records must be dropped from disk");
    handle.shutdown();
}

#[test]
fn deadlines_answer_typed_errors_that_are_counted_and_never_cached() {
    let hold = Arc::new(HoldGate::new());
    let (handle, client) = start(|c| {
        c.job_timeout = Some(Duration::from_millis(50));
        c.hold = Some(Arc::clone(&hold));
    });
    let spec = flame_job(Kernel::CornerTurn);

    // The build parks on the held gate, so the 50 ms deadline fires.
    let err = client.submit(&spec).unwrap_err();
    match &err {
        ServeError::Remote { code, message } => {
            assert_eq!(code, "deadline-exceeded");
            assert_eq!(message, "job deadline exceeded: no result after 50 ms");
        }
        other => panic!("expected a remote deadline-exceeded error, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_stats_line(&stats, "triarch_serve_deadline_exceeded 1");
    assert_stats_line(&stats, "triarch_serve_cache_entries 0.0");

    // Released, the same job completes as a *fresh miss* — the timed-out
    // attempt was never cached — and then serves as a hit.
    hold.release();
    let redo = client.submit(&spec).unwrap();
    assert!(!redo.hit, "a timed-out job must not poison the cache");
    let warm = client.submit(&spec).unwrap();
    assert!(warm.hit);
    assert_eq!(warm.body, redo.body);
    handle.shutdown();
}

#[test]
fn queue_full_rejections_retry_on_the_backoff_schedule_and_succeed() {
    let hold = Arc::new(HoldGate::new());
    let (handle, client) = start(|c| {
        c.workers = 1;
        c.queue = 1;
        c.hold = Some(Arc::clone(&hold));
    });

    // Pin the only worker, then fill the one-slot queue.
    let pin = {
        let client = Client::new(handle.addr().clone());
        thread::spawn(move || client.submit(&flame_job(Kernel::CornerTurn)).unwrap())
    };
    await_stats_line(&client, "triarch_serve_inflight 1.0");
    let queued = {
        let client = Client::new(handle.addr().clone());
        thread::spawn(move || client.submit(&flame_job(Kernel::Cslc)).unwrap())
    };
    await_stats_line(&client, "triarch_serve_queue_depth 1.0");

    // A retrying client sees queue-full, waits out the deterministic
    // schedule, and succeeds once the gate opens.
    let retrying = thread::spawn({
        let addr = handle.addr().clone();
        move || {
            let client = Client::new(addr).with_backoff(Backoff::exponential(
                10,
                Duration::from_millis(20),
                42,
            ));
            let response = client.submit(&flame_job(Kernel::BeamSteering)).unwrap();
            (response, client.retry_attempts())
        }
    });
    await_stats_line(&client, "triarch_serve_queue_rejected 1");
    hold.release();

    let (response, retries) = retrying.join().unwrap();
    assert!(retries >= 1, "the retrying client must have actually retried");
    assert!(!response.hit);
    pin.join().unwrap();
    queued.join().unwrap();
    handle.shutdown();
}

#[test]
fn retry_schedules_are_deterministic_and_pinned() {
    // The servectl exponential policy (seed 42, base 100 ms): the exact
    // nanosecond schedule is part of the deterministic surface.
    let schedule = Backoff::exponential(3, Duration::from_millis(100), 42).schedule();
    let nanos: Vec<u128> = schedule.iter().map(Duration::as_nanos).collect();
    assert_eq!(nanos, vec![66_130_230, 189_038_237, 381_112_060]);
}

#[test]
fn unwritable_access_log_degrades_to_logging_off_and_keeps_serving() {
    let dir = tmp("obs-degraded");
    let squatter = dir.join("squatter");
    fs::write(&squatter, "a file where the log's parent dir should go").unwrap();

    // The daemon must come up and serve normally — just without a log.
    let (handle, client) = start(|c| c.access_log = Some(squatter.join("access.jsonl")));
    let stats = client.stats().unwrap();
    assert_stats_line(&stats, "triarch_serve_obs_degraded 1.0");
    let spec = flame_job(Kernel::CornerTurn);
    let cold = client.submit(&spec).unwrap();
    assert!(!cold.hit);
    let warm = client.submit(&spec).unwrap();
    assert!(warm.hit);
    assert_eq!(warm.body, cold.body);
    // Requests are still measured even though nothing is written.
    // (Records land just after the reply, so poll rather than assert
    // on the first dump.)
    let stats = await_stats_line(&client, "triarch_serve_latency_total_count 2");
    assert_stats_line(&stats, "triarch_serve_obs_logged 0");
    handle.shutdown();
    assert!(!squatter.join("access.jsonl").exists(), "degraded mode must not create the log");

    // A writable path on the same daemon config stays healthy.
    let log = dir.join("access.jsonl");
    let (handle, client) = start(|c| c.access_log = Some(log.clone()));
    client.submit(&spec).unwrap();
    let stats = await_stats_line(&client, "triarch_serve_obs_logged 1");
    assert_stats_line(&stats, "triarch_serve_obs_degraded 0.0");
    handle.shutdown();
    assert!(log.exists());
}

#[test]
fn unusable_cache_dir_degrades_to_memory_only_and_keeps_serving() {
    let dir = tmp("degraded");
    let squatter = dir.join("squatter");
    fs::write(&squatter, "a file where the cache dir should go").unwrap();

    // The daemon must come up and serve normally — just memory-only.
    let (handle, client) = start(|c| c.cache_dir = Some(squatter.join("cache")));
    let stats = client.stats().unwrap();
    assert_stats_line(&stats, "triarch_serve_persist_degraded 1.0");
    let spec = flame_job(Kernel::CornerTurn);
    let cold = client.submit(&spec).unwrap();
    assert!(!cold.hit);
    let warm = client.submit(&spec).unwrap();
    assert!(warm.hit);
    assert_eq!(warm.body, cold.body);
    handle.shutdown();
    assert!(!squatter.join("cache").exists(), "degraded mode must not create the dir");
}

// ---------------------------------------------------------------------
// Subprocess chaos: a real daemon, killed for real.
// ---------------------------------------------------------------------

/// Starts a `repro -- serve` daemon subprocess with stderr piped.
fn spawn_daemon(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("serve")
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap()
}

/// A client for a daemon subprocess that may still be binding its
/// socket: it retries on servectl's `--retries 7` schedule (6.35–12.7 s
/// in total).
fn dial(addr: &str) -> Client {
    Client::new(parse_addr(addr).unwrap()).with_backoff(Backoff::exponential(
        7,
        Duration::from_millis(100),
        42,
    ))
}

/// Sends the daemon subprocess a shutdown via the client and reaps it,
/// returning its captured stderr.
fn shutdown_daemon(child: Child, addr: &str) -> String {
    let client = dial(addr);
    client.shutdown().unwrap();
    let output = child.wait_with_output().unwrap();
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[cfg(unix)]
#[test]
fn sigkilled_daemon_restarts_with_byte_identical_warm_responses() {
    let dir = tmp("sigkill");
    let cache = dir.join("cache");
    let sock = format!("unix:{}", dir.join("daemon.sock").display());
    let spec = JobSpec::new(DriverKind::Table3, WorkloadKind::Small);

    // First life: compute one cell cold, then SIGKILL mid-campaign
    // while a second (background) job may still be inflight.
    let child = spawn_daemon(&["--addr", &sock, "--cache-dir", cache.to_str().unwrap()]);
    let client = dial(&sock);
    let cold = client.submit(&spec).unwrap();
    assert!(!cold.hit);
    let background = {
        let client = Client::new(parse_addr(&sock).unwrap());
        thread::spawn(move || client.submit(&flame_job(Kernel::BeamSteering)))
    };
    thread::sleep(Duration::from_millis(20));
    let mut child = child;
    child.kill().unwrap(); // SIGKILL: no drain, no flush, no goodbye
    child.wait().unwrap();
    let _ = background.join(); // may have failed mid-flight; that's the point

    // Atomic-rename write-through guarantees no torn records: recovery
    // loads whatever had finished (the table3 cell for sure, the
    // background flame job only if it landed before the kill).
    let child = spawn_daemon(&["--addr", &sock, "--cache-dir", cache.to_str().unwrap()]);
    let client = dial(&sock);
    let stats = client.stats().unwrap();
    assert_stats_line(&stats, "triarch_serve_persist_skipped_corrupt 0");
    let loaded = stats
        .lines()
        .find_map(|l| l.strip_prefix("triarch_serve_persist_loaded "))
        .unwrap()
        .parse::<u64>()
        .unwrap();
    assert!((1..=2).contains(&loaded), "expected 1 or 2 recovered entries, got {loaded}");

    let warm = client.submit(&spec).unwrap();
    assert!(warm.hit, "the finished cell must survive a SIGKILL");
    assert_eq!(warm.body, cold.body, "post-kill-restart response must be byte-identical");
    let stderr = shutdown_daemon(child, &sock);
    assert!(stderr.contains("recovered"), "restart should log its recovery:\n{stderr}");
}

/// Runs the daemon as a subprocess with an access log, drives one cold
/// and one warm request through the *real* `servectl` binary, shuts
/// down via `servectl shutdown`, and proves the shutdown flushed and
/// fsynced every record — the last one included — as parseable JSONL.
#[cfg(unix)]
#[test]
fn shutdown_flushes_and_fsyncs_the_access_log() {
    let dir = tmp("obs-shutdown");
    let log = dir.join("access.jsonl");
    let sock = format!("unix:{}", dir.join("daemon.sock").display());
    let mut child = spawn_daemon(&["--addr", &sock, "--access-log", log.to_str().unwrap()]);
    let client = dial(&sock);
    let cold = client.submit(&flame_job(Kernel::CornerTurn)).unwrap();
    assert!(!cold.hit);
    let warm = client.submit(&flame_job(Kernel::CornerTurn)).unwrap();
    assert!(warm.hit);

    // Shut down through the real client binary, as an operator would.
    let status = Command::new(env!("CARGO_BIN_EXE_servectl"))
        .args(["--addr", &sock, "--quiet", "shutdown"])
        .status()
        .unwrap();
    assert!(status.success(), "servectl shutdown must exit 0");
    child.wait().unwrap();

    // Every record is present and parseable, in request order.
    let text = fs::read_to_string(&log).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one record per job request, flushed by shutdown:\n{text}");
    let first = AccessRecord::parse(lines[0]).unwrap();
    let last = AccessRecord::parse(lines[1]).unwrap();
    assert_eq!(first.outcome, Outcome::Miss);
    assert_eq!(last.outcome, Outcome::Hit, "the final record must survive the shutdown");
    assert_eq!(first.driver, "flame");
    assert_eq!(first.key, last.key, "identical jobs share a cache key");
    let first_id = RequestId::parse(&first.id).unwrap();
    let last_id = RequestId::parse(&last.id).unwrap();
    assert_eq!(first_id.boot, last_id.boot);
    assert!(first_id.seq < last_id.seq, "sequence numbers grow in request order");
}

#[cfg(unix)]
#[test]
fn quiet_silences_recovery_and_degraded_logging() {
    let dir = tmp("quiet");
    let squatter = dir.join("squatter");
    fs::write(&squatter, "not a directory").unwrap();
    let bad_cache = squatter.join("cache");
    let bad_log = squatter.join("access.jsonl");

    // Non-quiet: the degraded warnings and lifecycle lines appear.
    let sock = format!("unix:{}", dir.join("loud.sock").display());
    let child = spawn_daemon(&[
        "--addr",
        &sock,
        "--cache-dir",
        bad_cache.to_str().unwrap(),
        "--access-log",
        bad_log.to_str().unwrap(),
    ]);
    let stderr = shutdown_daemon(child, &sock);
    assert!(
        stderr.contains("persistence degraded to memory-only"),
        "expected a one-time degraded warning:\n{stderr}"
    );
    assert!(
        stderr.contains("access log degraded to off"),
        "expected a one-time access-log degraded warning:\n{stderr}"
    );

    // Quiet: byte-for-byte silent, per the PR 5 quiet contract.
    let sock = format!("unix:{}", dir.join("quiet.sock").display());
    let child = spawn_daemon(&[
        "--addr",
        &sock,
        "--cache-dir",
        bad_cache.to_str().unwrap(),
        "--access-log",
        bad_log.to_str().unwrap(),
        "--quiet",
    ]);
    let stderr = shutdown_daemon(child, &sock);
    assert!(stderr.is_empty(), "--quiet must silence all daemon stderr, got:\n{stderr}");

    // And a healthy quiet daemon is silent through recovery too.
    let good_cache = dir.join("cache");
    let sock = format!("unix:{}", dir.join("recover.sock").display());
    let child =
        spawn_daemon(&["--addr", &sock, "--cache-dir", good_cache.to_str().unwrap(), "--quiet"]);
    let client = dial(&sock);
    client.submit(&flame_job(Kernel::CornerTurn)).unwrap();
    let stderr = shutdown_daemon(child, &sock);
    assert!(stderr.is_empty(), "--quiet must cover recovery logging, got:\n{stderr}");
}
