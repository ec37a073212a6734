//! `servectl` — the command-line client for the `repro -- serve` daemon.
//!
//! ```text
//! servectl [--addr A] [--quiet] [--retries N] [--backoff-ms B] <command>
//!
//! commands:
//!   submit <driver> [--workload paper|small] [--seed S] [--campaigns N]
//!                   [--arch A --kernel K] [--a FILE --b FILE]
//!   stats      dump the daemon's serve.* metrics (Prometheus text)
//!   top        live dashboard: poll stats, diff snapshots into rates
//!              [--interval MS] (default 1000) [--count N] (0 = forever)
//!   tail <FILE>  pretty-print the daemon's JSONL access log
//!              [--follow] to poll for appended records
//!   ping       liveness probe
//!   shutdown   ask the daemon to drain and exit
//! ```
//!
//! `--retries N` retries refused connections and typed `queue-full`
//! rejections up to N times on the shared seeded
//! exponential-backoff-with-jitter policy scaled by `--backoff-ms`
//! (default 100) — the schedule is deterministic (seed 42), so campaign
//! scripts behave identically run to run.
//!
//! `submit` writes the artifact bytes to stdout *verbatim* — byte-for-byte
//! what the matching one-shot `repro` selector prints — and notes the
//! cache disposition (hit or miss) on stderr unless `--quiet` /
//! `TRIARCH_QUIET=1`. Flame jobs need `--arch` + `--kernel`; profdiff
//! jobs need `--a` + `--b` (two bench JSON artifacts, sent inline).
//!
//! `stats` appends two derived-ratio lines on stderr (suppressed by
//! `--quiet`): the cache hit ratio (hits + coalesced over all lookups)
//! and the queue rejection ratio (rejections over job requests) — the
//! raw Prometheus dump on stdout stays untouched. `top` renders the
//! same stats as a dashboard: each sample reports totals, and from the
//! second sample on, the diff against the previous snapshot becomes a
//! request rate; latency quantiles (p50/p95/p99) are estimated from the
//! `serve.latency.total` histogram buckets.
//!
//! Exit status: 0 success, 1 runtime failure (unreachable daemon,
//! server-reported error), 2 usage error.

use std::collections::BTreeMap;
use std::env;
use std::fs;
use std::process;
use std::thread;
use std::time::{Duration, Instant};

use triarch_core::arch::Architecture;
use triarch_kernels::machine::Kernel;
use triarch_metrics::Histogram;
use triarch_serve::{parse_addr, AccessRecord, Backoff, Client, DriverKind, JobSpec, WorkloadKind};

/// The fixed seed for the exponential policy: retry schedules are part
/// of the deterministic surface, pinned in `tests/serve_durability.rs`.
const BACKOFF_SEED: u64 = 42;

/// Everything parsed off the command line.
struct Options {
    /// Daemon address (`host:port` or `unix:PATH`).
    addr: String,
    /// Suppress the stderr hit/miss note.
    quiet: bool,
    /// The retry policy (from `--retries` + `--backoff-ms`).
    backoff: Backoff,
    /// The command and its arguments.
    command: Command,
}

/// A parsed subcommand.
enum Command {
    /// Submit one job and print its artifact.
    Submit(JobSpec),
    /// Dump the daemon's metrics.
    Stats,
    /// Live dashboard over repeated stats snapshots.
    Top {
        /// Milliseconds between samples.
        interval_ms: u64,
        /// Number of samples to print (0 = run until interrupted).
        count: u64,
    },
    /// Pretty-print the daemon's JSONL access log.
    Tail {
        /// The access-log path.
        path: String,
        /// Keep polling for appended records instead of exiting at EOF.
        follow: bool,
    },
    /// Liveness probe.
    Ping,
    /// Drain and exit.
    Shutdown,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut addr = String::from("127.0.0.1:7444");
        let mut quiet = triarch_pool::quiet_from_env();
        let mut retries = 0u32;
        let mut backoff_ms = 100u64;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--addr" => {
                    let value = args
                        .get(i + 1)
                        .ok_or_else(|| String::from("--addr requires an address"))?;
                    parse_addr(value).map_err(|e| e.to_string())?;
                    addr.clone_from(value);
                    i += 2;
                }
                "--quiet" => {
                    quiet = true;
                    i += 1;
                }
                "--retries" => {
                    let value = args
                        .get(i + 1)
                        .ok_or_else(|| String::from("--retries requires a count"))?;
                    retries = value.parse().map_err(|_| format!("invalid --retries '{value}'"))?;
                    i += 2;
                }
                "--backoff-ms" => {
                    let value = args
                        .get(i + 1)
                        .ok_or_else(|| String::from("--backoff-ms requires milliseconds"))?;
                    backoff_ms =
                        value.parse().map_err(|_| format!("invalid --backoff-ms '{value}'"))?;
                    if backoff_ms == 0 {
                        return Err(String::from("--backoff-ms must be at least 1"));
                    }
                    i += 2;
                }
                _ => break,
            }
        }
        let backoff = Backoff::exponential(
            retries,
            std::time::Duration::from_millis(backoff_ms),
            BACKOFF_SEED,
        );
        let command = args.get(i).map(String::as_str).ok_or_else(|| {
            String::from("expected a command (submit, stats, top, tail, ping, shutdown)")
        })?;
        let rest = &args[i + 1..];
        let command = match command {
            "submit" => Command::Submit(parse_submit(rest)?),
            "top" => parse_top(rest)?,
            "tail" => parse_tail(rest)?,
            "stats" | "ping" | "shutdown" => {
                if let Some(extra) = rest.first() {
                    return Err(format!("unexpected argument '{extra}' after {command}"));
                }
                match command {
                    "stats" => Command::Stats,
                    "ping" => Command::Ping,
                    _ => Command::Shutdown,
                }
            }
            other => {
                return Err(format!(
                    "unknown command '{other}' (expected submit, stats, top, tail, ping, or \
                     shutdown)"
                ));
            }
        };
        Ok(Options { addr, quiet, backoff, command })
    }
}

/// Parses `top [--interval MS] [--count N]`.
fn parse_top(args: &[String]) -> Result<Command, String> {
    let mut interval_ms = 1000u64;
    let mut count = 0u64;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--interval" => {
                interval_ms = value.parse().map_err(|_| format!("invalid --interval '{value}'"))?;
                if interval_ms == 0 {
                    return Err(String::from("--interval must be at least 1"));
                }
            }
            "--count" => {
                count = value.parse().map_err(|_| format!("invalid --count '{value}'"))?;
            }
            other => return Err(format!("unknown top flag '{other}'")),
        }
        i += 2;
    }
    Ok(Command::Top { interval_ms, count })
}

/// Parses `tail <FILE> [--follow]`.
fn parse_tail(args: &[String]) -> Result<Command, String> {
    let path = args.first().ok_or_else(|| String::from("tail requires an access-log path"))?;
    if path.starts_with("--") {
        return Err(String::from("tail requires an access-log path"));
    }
    let mut follow = false;
    for arg in &args[1..] {
        match arg.as_str() {
            "--follow" => follow = true,
            other => return Err(format!("unknown tail flag '{other}'")),
        }
    }
    Ok(Command::Tail { path: path.clone(), follow })
}

/// Parses `submit <driver> [flags]` into a validated [`JobSpec`].
fn parse_submit(args: &[String]) -> Result<JobSpec, String> {
    let driver =
        args.first().ok_or_else(|| format!("submit requires a driver ({})", driver_names()))?;
    let driver = DriverKind::from_name(driver).ok_or_else(|| {
        format!("unknown driver '{driver}' (expected one of: {})", driver_names())
    })?;
    let mut spec = JobSpec::new(driver, WorkloadKind::Paper);
    let (mut arch, mut kernel) = (None, None);
    let (mut file_a, mut file_b) = (None, None);
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--workload" => {
                spec.workload = WorkloadKind::from_name(value).ok_or_else(|| {
                    format!("unknown workload '{value}' (expected paper or small)")
                })?;
            }
            "--seed" => {
                spec.seed = value.parse().map_err(|_| format!("invalid --seed '{value}'"))?;
            }
            "--campaigns" => {
                spec.campaigns =
                    value.parse().map_err(|_| format!("invalid --campaigns '{value}'"))?;
            }
            "--arch" => {
                arch = Some(Architecture::from_name(value).ok_or_else(|| {
                    format!("unknown architecture '{value}' (expected one of: {})", arch_names())
                })?);
            }
            "--kernel" => {
                kernel = Some(
                    Kernel::from_name(value).ok_or_else(|| format!("unknown kernel '{value}'"))?,
                );
            }
            "--a" => file_a = Some(value.clone()),
            "--b" => file_b = Some(value.clone()),
            other => return Err(format!("unknown submit flag '{other}'")),
        }
        i += 2;
    }
    spec.cell = match (arch, kernel) {
        (Some(arch), Some(kernel)) => Some((arch, kernel)),
        (None, None) => None,
        _ => return Err(String::from("--arch and --kernel must be given together")),
    };
    spec.artifacts = match (file_a, file_b) {
        (Some(a), Some(b)) => Some((read_artifact(&a)?, read_artifact(&b)?)),
        (None, None) => None,
        _ => return Err(String::from("--a and --b must be given together")),
    };
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Reads a bench artifact to send inline, naming the path on failure.
fn read_artifact(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read artifact '{path}': {e}"))
}

/// The comma-separated driver wire names, for usage messages.
fn driver_names() -> String {
    DriverKind::ALL.iter().map(|d| d.name()).collect::<Vec<_>>().join(", ")
}

/// The comma-separated architecture names, for usage messages — kept in
/// lockstep with [`Architecture::ALL`] so adding a machine row updates
/// the diagnostic automatically.
fn arch_names() -> String {
    Architecture::ALL.map(|a| a.name()).join(", ")
}

/// One parsed `servectl stats` response: plain `name value` scalars
/// plus the `serve.latency.total` histogram rebuilt from its cumulative
/// `_bucket{le="…"}` exposition, so the client computes the exact
/// quantiles the server's buckets support.
struct Snapshot {
    scalars: BTreeMap<String, f64>,
    latency: Option<Histogram>,
}

impl Snapshot {
    /// Parses the Prometheus text dump. Unknown lines are skipped —
    /// the dashboard degrades rather than erroring when the daemon
    /// grows new metrics.
    fn parse(text: &str) -> Snapshot {
        let mut scalars = BTreeMap::new();
        let mut edges: Vec<u64> = Vec::new();
        let mut cums: Vec<u64> = Vec::new();
        let mut overflow_total = None;
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((name, value)) = line.split_once(' ') else { continue };
            if let Some(le) = name
                .strip_prefix("triarch_serve_latency_total_bucket{le=\"")
                .and_then(|rest| rest.strip_suffix("\"}"))
            {
                let Ok(cum) = value.parse::<u64>() else { continue };
                if le == "+Inf" {
                    overflow_total = Some(cum);
                } else if let Ok(edge) = le.parse::<u64>() {
                    edges.push(edge);
                    cums.push(cum);
                }
                continue;
            }
            if name.contains("_bucket{") {
                continue;
            }
            if let Ok(v) = value.parse::<f64>() {
                scalars.insert(name.to_string(), v);
            }
        }
        let latency = overflow_total.and_then(|total| {
            let mut counts = Vec::with_capacity(edges.len() + 1);
            let mut prev = 0u64;
            for &cum in &cums {
                counts.push(cum.saturating_sub(prev));
                prev = cum;
            }
            counts.push(total.saturating_sub(prev));
            let sum = scalars.get("triarch_serve_latency_total_sum").map_or(0, |v| *v as u64);
            Histogram::from_parts(&edges, &counts, sum)
        });
        Snapshot { scalars, latency }
    }

    /// A counter's value (0 when the daemon has not exported it yet).
    fn counter(&self, name: &str) -> u64 {
        self.scalars.get(name).copied().unwrap_or(0.0) as u64
    }

    /// A gauge's value (0.0 when absent).
    fn gauge(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
    }
}

/// `"cache hit ratio 50.0% (1 of 2 lookups)"` — the pinned derived-ratio
/// wording shared by `stats` and `top` (an empty denominator reads 0%).
fn ratio_line(label: &str, num: u64, den: u64, noun: &str) -> String {
    let pct = if den == 0 { 0.0 } else { num as f64 / den as f64 * 100.0 };
    format!("{label} {pct:.1}% ({num} of {den} {noun})")
}

/// The cache hit ratio line: hits + coalesced waits over all lookups.
fn hit_ratio_line(snap: &Snapshot) -> String {
    let served =
        snap.counter("triarch_serve_cache_hits") + snap.counter("triarch_serve_cache_coalesced");
    let lookups = served + snap.counter("triarch_serve_cache_misses");
    ratio_line("cache hit ratio", served, lookups, "lookups")
}

/// The queue rejection ratio line: rejections over all requests.
fn rejection_ratio_line(snap: &Snapshot) -> String {
    let rejected = snap.counter("triarch_serve_queue_rejected");
    let requests = snap.counter("triarch_serve_requests");
    ratio_line("queue rejection ratio", rejected, requests, "requests")
}

/// Renders one `top` sample. The first line always contains the phrase
/// `serve top` (the CI smoke greps for it); rates appear from the
/// second sample on, diffed against `prev` over the elapsed interval.
fn render_top(
    addr: &str,
    sample: u64,
    snap: &Snapshot,
    prev: Option<(&Snapshot, Duration)>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("servectl: serve top @ {addr} (sample {sample})\n"));
    let requests = snap.counter("triarch_serve_requests");
    let rate = match prev {
        Some((p, dt)) if dt.as_secs_f64() > 0.0 => {
            let delta = requests.saturating_sub(p.counter("triarch_serve_requests"));
            format!("{:.1} req/s", delta as f64 / dt.as_secs_f64())
        }
        _ => String::from("- req/s"),
    };
    out.push_str(&format!(
        "  requests {requests} ({rate})   errors {}   inflight {}   queue {}/{}\n",
        snap.counter("triarch_serve_errors"),
        snap.gauge("triarch_serve_inflight"),
        snap.gauge("triarch_serve_queue_depth"),
        snap.gauge("triarch_serve_queue_capacity"),
    ));
    out.push_str(&format!(
        "  {}   entries {}/{}\n  {}\n",
        hit_ratio_line(snap),
        snap.gauge("triarch_serve_cache_entries"),
        snap.gauge("triarch_serve_cache_capacity"),
        rejection_ratio_line(snap),
    ));
    match &snap.latency {
        Some(h) if h.total() > 0 => {
            out.push_str(&format!(
                "  latency p50 {:.0}us   p95 {:.0}us   p99 {:.0}us   ({} logged)\n",
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.total(),
            ));
        }
        _ => out.push_str("  latency (no samples yet)\n"),
    }
    let drivers: Vec<String> = snap
        .scalars
        .iter()
        .filter_map(|(name, v)| {
            name.strip_prefix("triarch_serve_driver_").map(|d| format!("{d}={}", *v as u64))
        })
        .collect();
    if !drivers.is_empty() {
        out.push_str(&format!("  drivers: {}\n", drivers.join("   ")));
    }
    out
}

/// Pretty-prints one access-log record for `tail`.
fn render_record(record: &AccessRecord) -> String {
    let phases: Vec<String> =
        record.phases.named().iter().map(|(name, us)| format!("{name}={us}us")).collect();
    format!(
        "{} {} [{:016x}] {} {} bytes total {}us ({})",
        record.id,
        record.driver,
        record.key,
        record.outcome,
        record.bytes_out,
        record.phases.total_us(),
        phases.join(" "),
    )
}

/// Follows (or one-shot dumps) the JSONL access log, pretty-printing
/// each record. Malformed lines warn on stderr and are skipped — a
/// torn final line under `--follow` is retried once it completes.
fn run_tail(path: &str, follow: bool, quiet: bool) -> Result<(), String> {
    let mut consumed = 0usize;
    loop {
        let text = match fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if follow && e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("cannot read access log '{path}': {e}")),
        };
        if text.len() < consumed {
            consumed = 0; // truncated (daemon restarted): start over
        }
        let mut fresh = &text[consumed..];
        if follow {
            // Only consume complete lines; a torn tail finishes later.
            match fresh.rfind('\n') {
                Some(end) => fresh = &fresh[..=end],
                None => fresh = "",
            }
        }
        consumed += fresh.len();
        for line in fresh.lines() {
            if line.is_empty() {
                continue;
            }
            match AccessRecord::parse(line) {
                Ok(record) => println!("{}", render_record(&record)),
                Err(e) if !quiet => {
                    eprintln!("servectl: skipping malformed access-log line: {e}");
                }
                Err(_) => {}
            }
        }
        if !follow {
            return Ok(());
        }
        thread::sleep(Duration::from_millis(200));
    }
}

fn run(opts: &Options) -> Result<(), String> {
    let addr = parse_addr(&opts.addr).map_err(|e| e.to_string())?;
    let client = Client::new(addr).with_backoff(opts.backoff);
    match &opts.command {
        Command::Submit(spec) => {
            let response = client.submit(spec).map_err(|e| e.to_string())?;
            if !opts.quiet {
                let retries = client.retry_attempts();
                if retries > 0 {
                    eprintln!("servectl: succeeded after {retries} retries");
                }
                eprintln!(
                    "servectl: cache {} ({} bytes, {})",
                    if response.hit { "hit" } else { "miss" },
                    response.body.len(),
                    response.content_type,
                );
            }
            print!("{}", response.body);
        }
        Command::Stats => {
            let text = client.stats().map_err(|e| e.to_string())?;
            print!("{text}");
            if !opts.quiet {
                let snap = Snapshot::parse(&text);
                eprintln!("servectl: {}", hit_ratio_line(&snap));
                eprintln!("servectl: {}", rejection_ratio_line(&snap));
            }
        }
        Command::Top { interval_ms, count } => {
            let mut prev: Option<(Snapshot, Instant)> = None;
            let mut sample = 0u64;
            loop {
                sample += 1;
                let text = client.stats().map_err(|e| e.to_string())?;
                let now = Instant::now();
                let snap = Snapshot::parse(&text);
                let diff = prev.as_ref().map(|(p, t)| (p, now.duration_since(*t)));
                print!("{}", render_top(&opts.addr, sample, &snap, diff));
                if *count != 0 && sample >= *count {
                    return Ok(());
                }
                prev = Some((snap, now));
                thread::sleep(Duration::from_millis(*interval_ms));
            }
        }
        Command::Tail { path, follow } => {
            run_tail(path, *follow, opts.quiet)?;
        }
        Command::Ping => {
            client.ping().map_err(|e| e.to_string())?;
            if !opts.quiet {
                eprintln!("servectl: {} is alive", opts.addr);
            }
        }
        Command::Shutdown => {
            client.shutdown().map_err(|e| e.to_string())?;
            if !opts.quiet {
                eprintln!("servectl: asked {} to shut down", opts.addr);
            }
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("servectl: {msg}");
            eprintln!(
                "usage: servectl [--addr A] [--quiet] [--retries N] [--backoff-ms B] \
                 <submit <driver> [--workload paper|small] [--seed S] [--campaigns N] \
                 [--arch A --kernel K] [--a FILE --b FILE] | stats \
                 | top [--interval MS] [--count N] | tail FILE [--follow] \
                 | ping | shutdown>"
            );
            process::exit(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("servectl: {e}");
        process::exit(1);
    }
}
