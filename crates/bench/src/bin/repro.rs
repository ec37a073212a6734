//! `repro` — regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p triarch-bench --bin repro              # everything
//! cargo run --release -p triarch-bench --bin repro -- table3    # one exhibit
//! ```
//!
//! Accepted selectors, in the order their exhibits run and print:
//! `table1 table2 trace faultsweep dse metrics flame report timeline
//! profdiff bench table3 table4 figure8 figure9 breakdowns altivec claims
//! ablations serve`.
//!
//! Every exhibit is rendered by `triarch_core::driver`, the code the
//! `serve` daemon runs for the same job; this binary parses flags,
//! creates output directories, writes files and prints. One invocation
//! simulates each grid at most once, the plain one and the one traced
//! through the fold and timeline sinks, and shares it among every
//! selector that reads it. `--small` runs every simulating selector on
//! the reduced workload set.
//!
//! `trace [dir]` runs every machine × kernel pair with event tracing
//! enabled and writes one Chrome `trace_event` JSON file and one CSV per
//! pair under `dir` (default `target/traces`); open the JSON in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! `metrics [dir]` runs the Table 3 grid and writes each cell's
//! hardware-counter report (plus its roofline utilizations) as JSON
//! under `dir` (default `target/metrics`), together with a combined
//! Prometheus-style text dump (`metrics.prom`). The per-cell cycle
//! conservation drift (metric counters vs the breakdown ledger) is
//! printed per cell and is exactly 0 by construction; the roofline
//! utilization scorecard follows. The combined dump also carries the
//! informational `host.*` self-profiling gauges (wall seconds and
//! simulated-cycles-per-host-second per cell) — host numbers never
//! appear in the deterministic per-cell JSON artifacts.
//!
//! `bench [file]` runs the Table 3 grid and writes the schema-versioned
//! benchmark artifact (default `BENCH_table3.json`): git revision,
//! workload set, and per-cell cycles + utilizations + breakdown ledger.
//! It records no host time (hostbench under `benchmark/` measures that).
//! The committed artifact at the repo root is the CI perf-gate baseline;
//! see the `perfgate` binary.
//!
//! `flame [dir]` runs the grid with a folding trace sink attached and
//! writes, per cell, a collapsed-stack profile (`<arch>-<kernel>.folded`,
//! the `arch;kernel;category;span cycles` format consumed by speedscope,
//! inferno, and `flamegraph.pl`) plus a self-contained inline-SVG
//! flamegraph (`.svg`) under `dir` (default `target/flame`). Fold totals
//! re-add to each engine's reported cycles with drift exactly 0.
//!
//! `report [dir]` builds the single self-contained HTML attribution
//! report (`report.html` under `dir`, default `target/report`): Tables
//! 1–4 vs the published numbers, Figures 8–9, stacked §4.2–§4.4
//! breakdown bars, the roofline scorecard, the fault-sweep outcome
//! table, and per-cell flamegraphs. The file is byte-identical across
//! runs and `--jobs` worker counts; host self-profiling goes to stderr
//! only.
//!
//! `timeline [dir] [--window N]` runs the grid with a windowing trace
//! sink attached and writes, per cell, a per-window occupancy CSV
//! (`<arch>-<kernel>.timeline.csv`) and a deterministic utilization
//! SVG (`.timeline.svg`), plus one combined schema-versioned
//! `timeline.json` artifact, under `dir` (default `target/timeline`).
//! Counted window sums reproduce each engine's cycle breakdown with
//! occupancy drift exactly 0; every artifact is byte-identical across
//! runs and `--jobs` counts. `--window N` sets the window size in
//! cycles (default 1024).
//!
//! `profdiff <a.json> <b.json>` diffs two bench artifacts cell-by-cell
//! and category-by-category: absolute + relative cycle deltas, the
//! top regressed breakdown categories, and a one-line narrative per
//! changed cell. Diffing an artifact against itself prints no
//! differences. `profdiff --windows <a.json> <b.json>` instead diffs
//! two `timeline.json` artifacts window-by-window, localizing a
//! regression in cycle time ("diverges from window 12, top mover:
//! dram").
//!
//! `faultsweep [--seed S] [--campaigns N]` runs every machine × kernel
//! pair under `N` seeded fault-injection campaigns and prints the
//! per-architecture outcome-rate table (corrected / detected / silent
//! data corruption / masked). The sweep is deterministic for a given
//! seed. `report` embeds the same sweep; `--seed` and `--campaigns`
//! without either selector are usage errors.
//!
//! `serve [--addr A] [--workers N] [--queue N] [--cache-entries N]
//! [--cache-dir DIR] [--job-timeout MS] [--access-log FILE]` starts the
//! simulation-as-a-service daemon and blocks until a client sends a
//! shutdown request. `--addr` takes `<host>:<port>` (default
//! `127.0.0.1:7444`) or `unix:<path>`; `--workers` bounds concurrent
//! jobs, `--queue` the admission queue, `--cache-entries` the
//! content-addressed result cache. `--cache-dir` makes the cache
//! crash-safe: completed entries persist to checksummed segment files
//! and a restarted daemon recovers them, serving warm responses
//! byte-identical to cold misses (corrupt records are skipped, an
//! unusable directory demotes to memory-only). `--job-timeout` bounds
//! each job's wall-clock time; a job past its deadline answers a typed
//! `deadline-exceeded` error and is never cached. `--access-log FILE`
//! appends one phase-timed JSONL record per job request (an unwritable
//! path demotes to logging-off with a one-time warning). Submit jobs
//! with the `servectl` binary; repeated requests are served from the
//! cache byte-identically.
//!
//! `dse` sweeps microarchitectural parameters around the paper's design
//! points (VIRAM lanes × address generators, Imagine clusters × memory
//! width, Raw mesh size, PPC L2 capacity), prints the per-architecture
//! sensitivity tables, and checks the §4.2–§4.4 attribution claims
//! mechanistically.
//!
//! The global `--jobs N` flag (or the `TRIARCH_JOBS` environment
//! variable) fans the heavy drivers out over a deterministic
//! work-stealing pool; stdout is byte-identical at any worker count
//! because results are always assembled in submission order. `--jobs 1`
//! bypasses the pool entirely. The default is the machine's available
//! parallelism; pool throughput reports go to stderr. `--quiet` (or
//! `TRIARCH_QUIET=1`) suppresses the informational stderr lines — pool
//! throughput, progress messages, and host self-profiling summaries —
//! without changing stdout. Pool statistics go to stderr only; the
//! `host.*` gauges also land in `metrics.prom`.
//!
//! Unknown selectors or malformed flags exit with status 2 and a
//! one-line diagnostic; simulation errors and unwritable output paths
//! exit with status 1.

use std::collections::BTreeMap;
use std::env;
use std::fs;
use std::path::Path;
use std::process;

use triarch_core::driver::{self, Exhibit, Session, WorkloadKind};

/// Every selector the CLI accepts (flags are parsed separately), in the
/// order their exhibits run and print.
const SELECTORS: [&str; 20] = [
    "table1",
    "table2",
    "trace",
    "faultsweep",
    "dse",
    "metrics",
    "flame",
    "report",
    "timeline",
    "profdiff",
    "bench",
    "table3",
    "table4",
    "figure8",
    "figure9",
    "breakdowns",
    "altivec",
    "claims",
    "ablations",
    "serve",
];

/// The selectors that write files, each with its default output path (a
/// directory, or the artifact file for `bench`).
const OUTPUTS: [(&str, &str); 6] = [
    ("trace", "target/traces"),
    ("metrics", "target/metrics"),
    ("flame", "target/flame"),
    ("report", "target/report"),
    ("timeline", "target/timeline"),
    ("bench", "BENCH_table3.json"),
];

/// Parsed command line.
struct Options {
    /// Selectors in command-line order; empty means "run the default set".
    selectors: Vec<String>,
    /// Output path of each file-writing selector (see [`OUTPUTS`]).
    outputs: BTreeMap<&'static str, String>,
    /// Timeline window size in cycles (`--window`, timeline only).
    window: u64,
    /// The two artifact paths for `profdiff`.
    profdiff: Option<(String, String)>,
    /// Diff `timeline.json` artifacts window-by-window instead of
    /// bench artifacts (`--windows`, profdiff only).
    profdiff_windows: bool,
    /// Fault-sweep seed (`--seed`, faultsweep and report only).
    seed: u64,
    /// Fault-sweep campaigns per machine × kernel pair (`--campaigns`,
    /// faultsweep and report only).
    campaigns: u64,
    /// Use the reduced workload set for every selector that simulates
    /// (`--small`).
    small: bool,
    /// Suppress informational stderr output (`--quiet` or
    /// `TRIARCH_QUIET=1`); stdout is unaffected.
    quiet: bool,
    /// Pool workers (`--jobs`); resolved from `TRIARCH_JOBS` or the
    /// machine's available parallelism when absent.
    jobs: usize,
    /// Daemon listen address (`--addr`, serve only).
    serve_addr: String,
    /// Concurrent daemon job executions (`--workers`, serve only).
    workers: usize,
    /// Daemon admission-queue capacity (`--queue`, serve only).
    queue: usize,
    /// Daemon result-cache bound (`--cache-entries`, serve only).
    cache_entries: usize,
    /// Crash-safe cache persistence directory (`--cache-dir`, serve
    /// only); empty means memory-only.
    cache_dir: String,
    /// Phase-timed JSONL access log path (`--access-log`, serve only);
    /// empty means no log.
    access_log: String,
    /// Per-job wall-clock deadline in milliseconds (`--job-timeout`,
    /// serve only); 0 means no deadline.
    job_timeout_ms: u64,
}

impl Options {
    /// Parses `args`, rejecting unknown selectors and malformed flags
    /// with a one-line message.
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            selectors: Vec::new(),
            outputs: OUTPUTS.iter().map(|&(name, path)| (name, String::from(path))).collect(),
            window: triarch_timeline::DEFAULT_WINDOW,
            profdiff: None,
            profdiff_windows: false,
            seed: driver::DEFAULT_SEED,
            campaigns: driver::DEFAULT_CAMPAIGNS,
            small: false,
            quiet: triarch_pool::quiet_from_env(),
            jobs: triarch_pool::jobs_from_env()?,
            serve_addr: String::from("127.0.0.1:7444"),
            workers: 2,
            queue: 16,
            cache_entries: 64,
            cache_dir: String::new(),
            access_log: String::new(),
            job_timeout_ms: 0,
        };
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            match arg {
                "--jobs" => {
                    let value = args.get(i + 1).ok_or_else(|| format!("{arg} requires a value"))?;
                    opts.jobs = triarch_pool::parse_jobs(value)?;
                    i += 2;
                }
                "--seed" | "--campaigns" => {
                    let value = args.get(i + 1).ok_or_else(|| format!("{arg} requires a value"))?;
                    let parsed: u64 = value.parse().map_err(|_| {
                        format!("{arg} requires an unsigned integer, got '{value}'")
                    })?;
                    if arg == "--seed" {
                        opts.seed = parsed;
                    } else {
                        if parsed == 0 {
                            return Err(String::from("--campaigns must be at least 1"));
                        }
                        opts.campaigns = parsed;
                    }
                    i += 2;
                }
                "--addr" => {
                    let value = args.get(i + 1).ok_or_else(|| format!("{arg} requires a value"))?;
                    // Validate eagerly so a typo fails with exit 2 and
                    // usage, not a late bind error.
                    triarch_serve::parse_addr(value)?;
                    opts.serve_addr.clone_from(value);
                    i += 2;
                }
                "--workers" | "--queue" | "--cache-entries" => {
                    let value = args.get(i + 1).ok_or_else(|| format!("{arg} requires a value"))?;
                    let parsed: usize = value.parse().map_err(|_| {
                        format!("{arg} requires an unsigned integer, got '{value}'")
                    })?;
                    match arg {
                        "--workers" => {
                            if parsed == 0 {
                                return Err(String::from("--workers must be at least 1"));
                            }
                            opts.workers = parsed;
                        }
                        "--queue" => opts.queue = parsed,
                        _ => {
                            if parsed == 0 {
                                return Err(String::from("--cache-entries must be at least 1"));
                            }
                            opts.cache_entries = parsed;
                        }
                    }
                    i += 2;
                }
                "--cache-dir" => {
                    let value = args.get(i + 1).ok_or_else(|| format!("{arg} requires a path"))?;
                    if value.is_empty() {
                        return Err(String::from("--cache-dir requires a non-empty path"));
                    }
                    opts.cache_dir.clone_from(value);
                    i += 2;
                }
                "--access-log" => {
                    let value = args.get(i + 1).ok_or_else(|| format!("{arg} requires a path"))?;
                    if value.is_empty() {
                        return Err(String::from("--access-log requires a non-empty path"));
                    }
                    opts.access_log.clone_from(value);
                    i += 2;
                }
                "--job-timeout" => {
                    let value = args.get(i + 1).ok_or_else(|| format!("{arg} requires a value"))?;
                    let parsed: u64 = value.parse().map_err(|_| {
                        format!("{arg} requires milliseconds as an unsigned integer, got '{value}'")
                    })?;
                    if parsed == 0 {
                        return Err(String::from("--job-timeout must be at least 1 millisecond"));
                    }
                    opts.job_timeout_ms = parsed;
                    i += 2;
                }
                "--window" => {
                    let value = args.get(i + 1).ok_or_else(|| format!("{arg} requires a value"))?;
                    let parsed: u64 = value.parse().map_err(|_| {
                        format!("{arg} requires a window size in cycles, got '{value}'")
                    })?;
                    if parsed == 0 {
                        return Err(String::from("--window must be at least 1 cycle"));
                    }
                    opts.window = parsed;
                    i += 2;
                }
                "--windows" => {
                    opts.profdiff_windows = true;
                    i += 1;
                }
                "--small" => {
                    opts.small = true;
                    i += 1;
                }
                "--quiet" => {
                    opts.quiet = true;
                    i += 1;
                }
                "profdiff" => {
                    let mut j = i + 1;
                    if args.get(j).is_some_and(|s| s == "--windows") {
                        opts.profdiff_windows = true;
                        j += 1;
                    }
                    let free =
                        |s: &&String| !s.starts_with("--") && !SELECTORS.contains(&s.as_str());
                    let a = args.get(j).filter(free);
                    let b = args.get(j + 1).filter(free);
                    match (a, b) {
                        (Some(a), Some(b)) => {
                            opts.profdiff = Some((a.clone(), b.clone()));
                            opts.selectors.push(String::from(arg));
                            i = j + 2;
                        }
                        _ => {
                            return Err(String::from(
                                "profdiff requires two artifact paths \
                                 (profdiff [--windows] <a.json> <b.json>)",
                            ));
                        }
                    }
                }
                s if SELECTORS.contains(&s) => {
                    opts.selectors.push(String::from(s));
                    i += 1;
                    // A file-writing selector may be followed by its
                    // output path.
                    if let (Some(path), Some(next)) = (opts.outputs.get_mut(s), args.get(i)) {
                        if !SELECTORS.contains(&next.as_str()) && !next.starts_with("--") {
                            path.clone_from(next);
                            i += 1;
                        }
                    }
                }
                other => {
                    return Err(format!(
                        "unknown selector '{other}' (expected one of: {})",
                        SELECTORS.join(" ")
                    ));
                }
            }
        }
        // A selector's own flag without that selector would be ignored.
        for (flag, given, owners) in [
            ("--window", opts.window != triarch_timeline::DEFAULT_WINDOW, &["timeline"][..]),
            ("--windows", opts.profdiff_windows, &["profdiff"]),
            ("--seed", opts.seed != driver::DEFAULT_SEED, &["faultsweep", "report"]),
            ("--campaigns", opts.campaigns != driver::DEFAULT_CAMPAIGNS, &["faultsweep", "report"]),
            ("--addr", opts.serve_addr != "127.0.0.1:7444", &["serve"]),
            ("--workers", opts.workers != 2, &["serve"]),
            ("--queue", opts.queue != 16, &["serve"]),
            ("--cache-entries", opts.cache_entries != 64, &["serve"]),
            ("--cache-dir", !opts.cache_dir.is_empty(), &["serve"]),
            ("--access-log", !opts.access_log.is_empty(), &["serve"]),
            ("--job-timeout", opts.job_timeout_ms != 0, &["serve"]),
        ] {
            if given && !owners.iter().any(|owner| opts.explicit(owner)) {
                return Err(format!("{flag} requires the {} selector", owners.join(" or ")));
            }
        }
        Ok(opts)
    }

    /// Whether `name` should run: explicitly selected, or (for exhibits
    /// that participate in the run-everything default) no selector given.
    fn want(&self, name: &str) -> bool {
        const EXPLICIT_ONLY: [&str; 10] = [
            "trace",
            "faultsweep",
            "dse",
            "metrics",
            "bench",
            "flame",
            "report",
            "timeline",
            "profdiff",
            "serve",
        ];
        self.explicit(name) || (self.selectors.is_empty() && !EXPLICIT_ONLY.contains(&name))
    }

    /// Whether `name` was explicitly selected on the command line.
    fn explicit(&self, name: &str) -> bool {
        self.selectors.iter().any(|s| s == name)
    }
}

/// Creates `dir` (and any missing parents), mapping failures — an
/// unwritable parent, a plain file squatting on the path — to a
/// one-line message naming the directory instead of a bare I/O error.
fn ensure_dir(dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create output directory '{}': {e}", dir.display()))
}

/// Writes `contents` to `path`, naming the path in any failure.
fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    fs::write(path, contents).map_err(|e| format!("cannot write '{}': {e}", path.display()))
}

/// `profdiff [--windows] <a> <b>`: the shared diff body under a header
/// naming the two artifact paths.
fn profdiff(a: &str, b: &str, windows: bool) -> Result<Exhibit, String> {
    let (artifact, header) = if windows { ("timeline", "timeline") } else { ("bench", "profile") };
    let read = |path: &str| {
        fs::read_to_string(path)
            .map_err(|e| format!("cannot read {artifact} artifact '{path}': {e}"))
    };
    let (a_text, b_text) = (read(a)?, read(b)?);
    let [a_name, b_name] = [a, b].map(|path| format!("{artifact} artifact '{path}'"));
    let body = if windows { driver::profdiff_windows_body } else { driver::profdiff_body };
    let body = body(&a_text, &b_text, [&a_name, &b_name])?;
    let stdout = format!("== Differential {header}: {a} -> {b} ==\n{body}");
    Ok(Exhibit { stdout, files: Vec::new() })
}

/// Starts the campaign daemon and blocks until it is shut down (via
/// `servectl shutdown` or a shutdown frame from any client).
fn run_serve(opts: &Options, quiet: bool) -> Result<(), Box<dyn std::error::Error>> {
    let addr = triarch_serve::parse_addr(&opts.serve_addr).map_err(|e| e.to_string())?;
    let mut config = triarch_serve::ServeConfig::new(addr);
    config.workers = opts.workers;
    config.queue = opts.queue;
    config.cache_entries = opts.cache_entries;
    config.jobs = opts.jobs;
    config.quiet = quiet;
    if !opts.cache_dir.is_empty() {
        config.cache_dir = Some(std::path::PathBuf::from(&opts.cache_dir));
    }
    if !opts.access_log.is_empty() {
        config.access_log = Some(std::path::PathBuf::from(&opts.access_log));
    }
    if opts.job_timeout_ms > 0 {
        config.job_timeout = Some(std::time::Duration::from_millis(opts.job_timeout_ms));
    }
    let handle = triarch_serve::serve(config).map_err(|e| e.to_string())?;
    handle.join();
    Ok(())
}

fn run(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let quiet = opts.quiet;
    // `serve` runs the daemon until shutdown; it composes with nothing
    // else, so it takes over the whole invocation.
    if opts.explicit("serve") {
        return run_serve(opts, quiet);
    }
    // Every output directory exists before the first simulation, so a
    // bad path fails before any work is done.
    for (name, dir) in &opts.outputs {
        if *name != "bench" && opts.explicit(name) {
            ensure_dir(Path::new(dir))?;
        }
    }

    let kind = if opts.small { WorkloadKind::Small } else { WorkloadKind::Paper };
    // The one stderr printer: progress, pool and host-profile lines.
    let mut note = |line: &str| {
        if !quiet {
            eprintln!("{line}");
        }
    };
    let mut session = Session::new(kind, opts.jobs, opts.window, &mut note);
    for name in SELECTORS.into_iter().filter(|name| opts.want(name)) {
        let out = opts.outputs.get(name).map(String::as_str).unwrap_or_default();
        let dir = Path::new(out);
        let exhibit = match name {
            "table1" => driver::table1(),
            "table2" => driver::table2(),
            "trace" => session.trace(dir)?,
            "faultsweep" => session.faultsweep(opts.seed, opts.campaigns)?,
            "dse" => session.dse()?,
            "metrics" => session.metrics(dir)?,
            "flame" => session.flame(dir)?,
            "report" => session.report(dir, opts.seed, opts.campaigns)?,
            "timeline" => session.timeline(dir)?,
            "profdiff" => match &opts.profdiff {
                Some((a, b)) => profdiff(a, b, opts.profdiff_windows)?,
                None => continue,
            },
            "bench" => session.bench(out)?,
            "table3" => session.table3()?,
            "table4" => session.table4()?,
            "figure8" => session.figure8()?,
            "figure9" => session.figure9()?,
            "breakdowns" => session.breakdowns()?,
            "altivec" => session.altivec()?,
            "claims" => session.claims()?,
            "ablations" => session.ablations()?,
            _ => continue,
        };
        for (path, contents) in &exhibit.files {
            write_file(path, contents)?;
        }
        print!("{}", exhibit.stdout);
    }
    session.finish();
    Ok(())
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("repro: {msg}");
            eprintln!(
                "usage: repro [--jobs N] [--quiet] [--small] [selector ...] [trace [dir]] \
                 [faultsweep [--seed S] [--campaigns N]] [dse] [metrics [dir]] [bench [file]] \
                 [flame [dir]] [report [dir] [--seed S] [--campaigns N]] \
                 [timeline [dir] [--window N]] \
                 [profdiff [--windows] <a.json> <b.json>] \
                 [serve [--addr A] [--workers N] [--queue N] [--cache-entries N] \
                 [--cache-dir DIR] [--job-timeout MS] [--access-log FILE]]"
            );
            process::exit(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("repro: {e}");
        process::exit(1);
    }
}
