//! Request-level observability: trace IDs, the phase-timed JSONL access
//! log, and the `serve.latency.*` / `serve.phase.*` histograms.
//!
//! Every accepted connection is minted a [`RequestId`] in the
//! deterministic format `req-{boot:08x}-{seq:08x}` — a per-process boot
//! token plus a monotonically increasing sequence number — and the
//! request's life is split into six phases:
//!
//! ```text
//! accept   reading and decoding the request frame
//! queue    waiting in bounded admission (zero for a free worker slot)
//! lookup   result-cache consultation, including a coalesced wait
//! build    the simulation itself (zero for a cache hit)
//! persist  the write-through to --cache-dir (zero when not configured)
//! respond  writing the response frame back to the client
//! ```
//!
//! Phase durations land in two sinks: the [`AccessRecord`] JSONL access
//! log (`--access-log PATH`, one self-describing line per **job**
//! request — probes like ping/stats/shutdown are not logged) and the
//! `serve.latency.total` / `serve.phase.*` histograms rendered through
//! the same Prometheus/JSON paths `servectl stats` already fetches.
//!
//! Determinism stance: everything here is wall-clock, so it follows the
//! `HostProf` precedent — an informational side channel only. Nothing
//! observability-related is ever written into a deterministic artifact;
//! response *bodies* stay byte-identical with the layer on or off. The
//! request id travels outside the body, in every reply frame's id block
//! ([`crate::protocol`]).
//!
//! Failure stance: an access log that cannot be opened or written
//! degrades the daemon to logging-off with a one-time warning and a
//! `serve.obs.degraded 1` gauge — never an exit — mirroring the
//! [`crate::persist::Persistence`] contract.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use triarch_core::benchjson::{get_str, get_u64, parse_json};
use triarch_profile::fnv1a64;
use triarch_simcore::metrics::{escape_json, MetricsReport};

use crate::lock;

/// The access-log record schema revision (the `"schema"` field of every
/// JSONL line).
pub const ACCESS_SCHEMA: u32 = 1;

/// One minted request identifier: a per-process boot token and a
/// sequence number, rendered as `req-{boot:08x}-{seq:08x}` (21
/// characters, fixed width, lower-case hex).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestId {
    /// The per-process boot token shared by every id of one daemon run.
    pub boot: u32,
    /// The per-request sequence number (starts at 1, increments by 1).
    pub seq: u32,
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req-{:08x}-{:08x}", self.boot, self.seq)
    }
}

impl RequestId {
    /// Parses a rendered id back into its parts. Strict: exactly the
    /// `req-{8 hex}-{8 hex}` shape, lower-case, fixed width.
    #[must_use]
    pub fn parse(s: &str) -> Option<RequestId> {
        let rest = s.strip_prefix("req-")?;
        let (boot, seq) = rest.split_once('-')?;
        if boot.len() != 8 || seq.len() != 8 {
            return None;
        }
        let lower_hex =
            |t: &str| t.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
        if !lower_hex(boot) || !lower_hex(seq) {
            return None;
        }
        Some(RequestId {
            boot: u32::from_str_radix(boot, 16).ok()?,
            seq: u32::from_str_radix(seq, 16).ok()?,
        })
    }
}

/// The request-id mint: one boot token per daemon, one atomic sequence
/// shared by every connection handler.
#[derive(Debug)]
pub struct RequestIds {
    boot: u32,
    next: AtomicU64,
}

impl RequestIds {
    /// Builds a mint whose boot token is a hash of `seed` (the server
    /// feeds it the listen address plus the process id, so concurrent
    /// daemons mint distinguishable ids).
    #[must_use]
    pub fn new(seed: &[u8]) -> RequestIds {
        RequestIds { boot: (fnv1a64(seed) & 0xffff_ffff) as u32, next: AtomicU64::new(1) }
    }

    /// Mints the next id. Unique within the process for the first 2^32
    /// requests, far past anything a single daemon run serves.
    pub fn mint(&self) -> RequestId {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        RequestId { boot: self.boot, seq: (seq & 0xffff_ffff) as u32 }
    }
}

/// How a job request ended, as recorded in the access log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from the result cache.
    Hit,
    /// Computed by this request.
    Miss,
    /// Coalesced onto a concurrent identical computation.
    Coalesced,
    /// Refused by admission (queue full / shutting down).
    Rejected,
    /// The job deadline expired before a result landed.
    Deadline,
    /// Any other failure (bad request, simulation error, transport).
    Error,
}

impl Outcome {
    /// The stable lower-case label written into access-log records.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Miss => "miss",
            Outcome::Coalesced => "coalesced",
            Outcome::Rejected => "rejected",
            Outcome::Deadline => "deadline",
            Outcome::Error => "error",
        }
    }

    /// Decodes a label back into an outcome.
    #[must_use]
    pub fn parse(s: &str) -> Option<Outcome> {
        match s {
            "hit" => Some(Outcome::Hit),
            "miss" => Some(Outcome::Miss),
            "coalesced" => Some(Outcome::Coalesced),
            "rejected" => Some(Outcome::Rejected),
            "deadline" => Some(Outcome::Deadline),
            "error" => Some(Outcome::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-phase wall-clock durations in microseconds. All phases default
/// to zero; a phase a request never reached simply stays zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Reading and decoding the request frame.
    pub accept_us: u64,
    /// Waiting in bounded admission.
    pub queue_us: u64,
    /// Result-cache consultation (includes a coalesced wait).
    pub lookup_us: u64,
    /// The simulation itself (zero on a hit).
    pub build_us: u64,
    /// Write-through persistence.
    pub persist_us: u64,
    /// Writing the response frame.
    pub respond_us: u64,
}

impl PhaseTimes {
    /// Sum of every phase — the request's total latency.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.accept_us
            .saturating_add(self.queue_us)
            .saturating_add(self.lookup_us)
            .saturating_add(self.build_us)
            .saturating_add(self.persist_us)
            .saturating_add(self.respond_us)
    }

    /// `(label, micros)` pairs in phase order, for iteration.
    #[must_use]
    pub fn named(&self) -> [(&'static str, u64); 6] {
        [
            ("accept", self.accept_us),
            ("queue", self.queue_us),
            ("lookup", self.lookup_us),
            ("build", self.build_us),
            ("persist", self.persist_us),
            ("respond", self.respond_us),
        ]
    }
}

/// Converts a measured duration to whole microseconds (saturating far
/// past any realistic request latency).
#[must_use]
pub fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One access-log line: everything known about one finished job
/// request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// The minted request id.
    pub id: String,
    /// The driver name (`"-"` when the request never parsed far enough
    /// to name one).
    pub driver: String,
    /// The canonical job key's FNV-1a hash (zero when unknown).
    pub key: u64,
    /// How the request ended.
    pub outcome: Outcome,
    /// Response body bytes written to the client.
    pub bytes_out: u64,
    /// Per-phase wall-clock timings.
    pub phases: PhaseTimes,
}

impl AccessRecord {
    /// Renders the record as one flat JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let p = &self.phases;
        format!(
            "{{\"schema\":{ACCESS_SCHEMA},\"id\":\"{}\",\"driver\":\"{}\",\"key\":\"{:016x}\",\
             \"outcome\":\"{}\",\"bytes_out\":{},\"accept_us\":{},\"queue_us\":{},\
             \"lookup_us\":{},\"build_us\":{},\"persist_us\":{},\"respond_us\":{}}}",
            escape_json(&self.id),
            escape_json(&self.driver),
            self.key,
            self.outcome,
            self.bytes_out,
            p.accept_us,
            p.queue_us,
            p.lookup_us,
            p.build_us,
            p.persist_us,
            p.respond_us,
        )
    }

    /// Parses one access-log line back into a record.
    ///
    /// # Errors
    ///
    /// A one-line description when the line is not valid JSON, carries a
    /// foreign schema number, or is missing/mistyping a field.
    pub fn parse(line: &str) -> Result<AccessRecord, String> {
        let doc = parse_json(line)?;
        let Some(obj) = doc.as_obj() else {
            return Err(String::from("access record is not a JSON object"));
        };
        let schema = get_u64(obj, "schema")?;
        if schema != u64::from(ACCESS_SCHEMA) {
            return Err(format!("unsupported access-record schema {schema}"));
        }
        let outcome_text = get_str(obj, "outcome")?;
        let outcome = Outcome::parse(&outcome_text)
            .ok_or_else(|| format!("unknown outcome '{outcome_text}'"))?;
        let key_text = get_str(obj, "key")?;
        let key = u64::from_str_radix(&key_text, 16)
            .map_err(|_| format!("field 'key' is not 16 hex digits: '{key_text}'"))?;
        Ok(AccessRecord {
            id: get_str(obj, "id")?,
            driver: get_str(obj, "driver")?,
            key,
            outcome,
            bytes_out: get_u64(obj, "bytes_out")?,
            phases: PhaseTimes {
                accept_us: get_u64(obj, "accept_us")?,
                queue_us: get_u64(obj, "queue_us")?,
                lookup_us: get_u64(obj, "lookup_us")?,
                build_us: get_u64(obj, "build_us")?,
                persist_us: get_u64(obj, "persist_us")?,
                respond_us: get_u64(obj, "respond_us")?,
            },
        })
    }
}

/// The observability facade the server threads through every request:
/// the id mint, the optional access log, and the latency histograms.
/// Always present in the server state — a daemon without `--access-log`
/// still mints ids and populates the histograms.
#[derive(Debug)]
pub struct Obs {
    ids: RequestIds,
    log: Option<Mutex<File>>,
    quiet: bool,
    degraded: AtomicBool,
    warned: AtomicBool,
    logged: AtomicU64,
    log_bytes: AtomicU64,
    report: Mutex<MetricsReport>,
    drivers: Mutex<BTreeMap<String, u64>>,
    order: Mutex<()>,
}

impl Obs {
    /// Opens the layer. `seed` feeds the boot token (the server passes
    /// the listen address plus process id); `path` is the `--access-log`
    /// target. A path that cannot be opened for append degrades to
    /// logging-off with a one-time warning — never an error, mirroring
    /// the persistence contract.
    #[must_use]
    pub fn open(seed: &[u8], path: Option<&Path>, quiet: bool) -> Obs {
        let (log, degraded) = match path {
            None => (None, false),
            Some(path) => match OpenOptions::new().create(true).append(true).open(path) {
                Ok(file) => (Some(Mutex::new(file)), false),
                Err(e) => {
                    if !quiet {
                        eprintln!(
                            "serve: access log degraded to off: cannot open '{}': {e}",
                            path.display()
                        );
                    }
                    (None, true)
                }
            },
        };
        Obs {
            ids: RequestIds::new(seed),
            log,
            quiet,
            degraded: AtomicBool::new(degraded),
            warned: AtomicBool::new(degraded),
            logged: AtomicU64::new(0),
            log_bytes: AtomicU64::new(0),
            report: Mutex::new(MetricsReport::new()),
            drivers: Mutex::new(BTreeMap::new()),
            order: Mutex::new(()),
        }
    }

    /// The record-ordering lock. The server holds it across one job's
    /// reply write *and* its [`Obs::record`] call: a well-behaved client
    /// can only issue its next request after reading this reply, so the
    /// critical section keeps the log's record order identical to the
    /// response order (a warm hit's record can never overtake the cold
    /// miss that populated the cache for it).
    pub fn order(&self) -> std::sync::MutexGuard<'_, ()> {
        lock(&self.order)
    }

    /// Mints the next request id.
    pub fn mint(&self) -> RequestId {
        self.ids.mint()
    }

    /// Whether the access log was requested but is unusable.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Demotes to logging-off after a runtime write failure, warning
    /// exactly once.
    fn degrade(&self, why: &std::io::Error) {
        self.degraded.store(true, Ordering::Relaxed);
        if !self.warned.swap(true, Ordering::Relaxed) && !self.quiet {
            eprintln!("serve: access log degraded to off: {why}");
        }
    }

    /// Records one finished job request: histograms always, the access
    /// log when open. Each line is flushed immediately so `servectl
    /// tail --follow` sees it without waiting for shutdown.
    pub fn record(&self, rec: &AccessRecord) {
        {
            let mut report = lock(&self.report);
            report.observe("serve.latency.total", rec.phases.total_us());
            for (name, us) in rec.phases.named() {
                report.observe(&format!("serve.phase.{name}"), us);
            }
        }
        *lock(&self.drivers).entry(rec.driver.clone()).or_insert(0) += 1;
        if self.is_degraded() {
            return;
        }
        if let Some(log) = &self.log {
            let mut line = rec.to_json();
            line.push('\n');
            let mut file = lock(log);
            match file.write_all(line.as_bytes()).and_then(|()| file.flush()) {
                Ok(()) => {
                    self.logged.fetch_add(1, Ordering::Relaxed);
                    self.log_bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
                }
                Err(e) => self.degrade(&e),
            }
        }
    }

    /// Flushes and fsyncs the access log — the shutdown path, so the
    /// final requests of a run are never lost to a page cache.
    pub fn close(&self) {
        if let Some(log) = &self.log {
            let mut file = lock(log);
            if let Err(e) = file.flush().and_then(|()| file.sync_all()) {
                self.degrade(&e);
            }
        }
    }

    /// Exports the `serve.latency.*` / `serve.phase.*` histograms, the
    /// per-driver request counters, and the `serve.obs.*` counters into
    /// `m`.
    pub fn export(&self, m: &mut MetricsReport) {
        for (name, metric) in lock(&self.report).iter() {
            m.set(name, metric.clone());
        }
        for (driver, count) in lock(&self.drivers).iter() {
            m.counter(&format!("serve.driver.{driver}"), *count);
        }
        m.counter("serve.obs.logged", self.logged.load(Ordering::Relaxed));
        m.counter("serve.obs.log_bytes", self.log_bytes.load(Ordering::Relaxed));
        m.gauge("serve.obs.degraded", if self.is_degraded() { 1.0 } else { 0.0 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> AccessRecord {
        AccessRecord {
            id: String::from("req-00c0ffee-00000001"),
            driver: String::from("table3"),
            key: 0x0123_4567_89ab_cdef,
            outcome: Outcome::Miss,
            bytes_out: 4096,
            phases: PhaseTimes {
                accept_us: 12,
                queue_us: 0,
                lookup_us: 3,
                build_us: 2500,
                persist_us: 40,
                respond_us: 9,
            },
        }
    }

    #[test]
    fn request_ids_render_and_parse_round_trip() {
        let id = RequestId { boot: 0xdead_beef, seq: 7 };
        assert_eq!(id.to_string(), "req-deadbeef-00000007");
        assert_eq!(RequestId::parse("req-deadbeef-00000007"), Some(id));
        for bad in [
            "",
            "req-",
            "req-deadbeef-7",
            "req-DEADBEEF-00000007",
            "rid-deadbeef-00000007",
            "req-deadbeef-0000000g",
            "req-deadbeef 00000007",
        ] {
            assert_eq!(RequestId::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn the_mint_is_sequential_from_one() {
        let ids = RequestIds::new(b"unix:/tmp/x.sock#1234");
        let first = ids.mint();
        let second = ids.mint();
        assert_eq!(first.seq, 1);
        assert_eq!(second.seq, 2);
        assert_eq!(first.boot, second.boot);
        // Different seeds give different boot tokens.
        assert_ne!(RequestIds::new(b"other").mint().boot, first.boot);
    }

    #[test]
    fn access_records_round_trip_through_json() {
        let rec = record();
        let line = rec.to_json();
        assert!(line.starts_with("{\"schema\":1,\"id\":\"req-00c0ffee-00000001\""), "{line}");
        assert!(line.contains("\"key\":\"0123456789abcdef\""), "{line}");
        assert!(line.contains("\"outcome\":\"miss\""), "{line}");
        assert_eq!(AccessRecord::parse(&line).unwrap(), rec);

        assert!(AccessRecord::parse("not json").is_err());
        assert!(AccessRecord::parse("[1,2]").is_err());
        let foreign = line.replacen("\"schema\":1", "\"schema\":9", 1);
        assert!(AccessRecord::parse(&foreign).unwrap_err().contains("schema 9"));
        let bad_outcome = line.replacen("\"outcome\":\"miss\"", "\"outcome\":\"maybe\"", 1);
        assert!(AccessRecord::parse(&bad_outcome).unwrap_err().contains("maybe"));
        // A count no JSON number carries exactly is refused, not
        // saturated to u64::MAX.
        let huge = line.replacen("\"bytes_out\":4096", "\"bytes_out\":1e300", 1);
        let err = AccessRecord::parse(&huge).unwrap_err();
        assert_eq!(
            err,
            "field 'bytes_out' exceeds 2^53 - 1, the largest integer a JSON number carries exactly"
        );
    }

    #[test]
    fn hostile_strings_stay_on_one_escaped_line() {
        let mut rec = record();
        rec.id = String::from("req-\"quoted\"\\");
        rec.driver = String::from("tab\tcr\rnl\nbell\u{7}");
        let line = rec.to_json();
        assert!(!line.chars().any(char::is_control), "{line}");
        assert!(line.contains("\"driver\":\"tab\\tcr\\rnl\\nbell\\u0007\""), "{line}");
        assert_eq!(AccessRecord::parse(&line).unwrap(), rec);
    }

    #[test]
    fn every_outcome_label_round_trips() {
        for o in [
            Outcome::Hit,
            Outcome::Miss,
            Outcome::Coalesced,
            Outcome::Rejected,
            Outcome::Deadline,
            Outcome::Error,
        ] {
            assert_eq!(Outcome::parse(o.as_str()), Some(o));
        }
        assert_eq!(Outcome::parse("unknown"), None);
    }

    #[test]
    fn phase_totals_sum_and_name_every_phase() {
        let p = record().phases;
        assert_eq!(p.total_us(), 12 + 3 + 2500 + 40 + 9);
        assert_eq!(p.named().len(), 6);
        assert_eq!(p.named()[0], ("accept", 12));
        assert_eq!(p.named()[5], ("respond", 9));
    }

    #[test]
    fn records_feed_histograms_drivers_and_counters() {
        let dir = std::env::temp_dir().join(format!("triarch-obs-record-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let obs = Obs::open(b"seed", Some(path.as_path()), true);
        obs.record(&record());
        obs.close();

        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let parsed = AccessRecord::parse(text.trim()).unwrap();
        assert_eq!(parsed, record());

        let mut m = MetricsReport::new();
        obs.export(&mut m);
        assert_eq!(m.counter_value("serve.obs.logged"), Some(1));
        assert_eq!(m.counter_value("serve.driver.table3"), Some(1));
        let prom = m.render_prometheus();
        assert!(prom.contains("triarch_serve_obs_degraded 0"), "{prom}");
        assert!(prom.contains("triarch_serve_latency_total_count 1"), "{prom}");
        assert!(prom.contains("triarch_serve_phase_build_count 1"), "{prom}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unopenable_log_degrades_to_off_instead_of_failing() {
        let dir = std::env::temp_dir().join(format!("triarch-obs-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let squatter = dir.join("squatter");
        std::fs::write(&squatter, "not a directory").unwrap();

        let obs = Obs::open(b"seed", Some(squatter.join("sub").join("a.jsonl").as_path()), true);
        assert!(obs.is_degraded());
        // Recording still feeds the histograms; nothing is written.
        obs.record(&record());
        obs.close();
        let mut m = MetricsReport::new();
        obs.export(&mut m);
        assert_eq!(m.counter_value("serve.obs.logged"), Some(0));
        let prom = m.render_prometheus();
        assert!(prom.contains("triarch_serve_obs_degraded 1"), "{prom}");
        assert!(prom.contains("triarch_serve_latency_total_count 1"), "{prom}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
