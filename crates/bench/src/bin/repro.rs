//! `repro` — regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p triarch-bench --bin repro              # everything
//! cargo run --release -p triarch-bench --bin repro -- table3    # one exhibit
//! ```
//!
//! Accepted selectors: `table1 table2 table3 table4 figure8 figure9
//! breakdowns altivec claims ablations trace faultsweep dse metrics
//! bench flame report timeline profdiff serve`.
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
//! appear in the deterministic per-cell JSON artifacts. `--small`
//! substitutes the reduced workload set.
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
//! `faultsweep [--seed S] [--campaigns N] [--small]` runs every machine ×
//! kernel pair under `N` seeded fault-injection campaigns and prints the
//! per-architecture outcome-rate table (corrected / detected / silent
//! data corruption / masked). The sweep is deterministic for a given
//! seed. `--small` substitutes the reduced workload set for quick smoke
//! runs.
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
//! `dse [--small]` sweeps microarchitectural parameters around the
//! paper's design points (VIRAM lanes × address generators, Imagine
//! clusters × memory width, Raw mesh size, PPC L2 capacity), prints the
//! per-architecture sensitivity tables, and checks the §4.2–§4.4
//! attribution claims mechanistically.
//!
//! The global `--jobs N` flag (or the `TRIARCH_JOBS` environment
//! variable) fans the heavy drivers out over a deterministic
//! work-stealing pool; stdout is byte-identical at any worker count
//! because results are always assembled in submission order. `--jobs 1`
//! bypasses the pool entirely. The default is the machine's available
//! parallelism; pool throughput reports go to stderr. `--quiet` (or
//! `TRIARCH_QUIET=1`) suppresses the informational stderr lines — pool
//! throughput, progress messages, and host self-profiling summaries —
//! without changing stdout; the same statistics remain available as
//! `pool.*` and `host.*` gauges.
//!
//! Unknown selectors or malformed flags exit with status 2 and a
//! one-line diagnostic; simulation errors and unwritable output paths
//! exit with status 1.

use std::env;
use std::fs;
use std::path::Path;
use std::process;
use std::time::Instant;

use triarch_core::arch::Architecture;
use triarch_core::benchjson::{self, BenchCell, BenchReport, SCHEMA_VERSION};
use triarch_core::driver::{self, cell_slug, table_from_folds, WorkloadKind};
use triarch_core::experiments::Table3;
use triarch_core::htmlreport::{self, FoldedCell};
use triarch_core::roofline::Scorecard;
use triarch_core::{ablations, chart, dse, experiments, faultsweep, timelinedoc};
use triarch_kernels::{Kernel, RunCtx, WorkloadSet};
use triarch_profile::{flamegraph_svg, FoldSink, HostProf, ProfileDiff, WindowDiff, WindowDoc};
use triarch_simcore::metrics::{Metric, MetricsReport};
use triarch_simcore::trace::{export, RingSink, TeeSink};

/// Events retained per trace file; older events are counted as dropped.
const RING_CAPACITY: usize = 1 << 18;

/// Every selector the CLI accepts (flags are parsed separately).
const SELECTORS: [&str; 20] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "figure8",
    "figure9",
    "breakdowns",
    "altivec",
    "claims",
    "ablations",
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

/// Parsed command line.
struct Options {
    /// Selectors in command-line order; empty means "run the default set".
    selectors: Vec<String>,
    /// Output directory for `trace`.
    trace_dir: String,
    /// Output directory for `metrics`.
    metrics_dir: String,
    /// Output directory for `flame`.
    flame_dir: String,
    /// Output directory for `report`.
    report_dir: String,
    /// Output directory for `timeline`.
    timeline_dir: String,
    /// Timeline window size in cycles (`--window`, timeline only).
    window: u64,
    /// Output path for `bench`.
    bench_path: String,
    /// The two artifact paths for `profdiff`.
    profdiff: Option<(String, String)>,
    /// Diff `timeline.json` artifacts window-by-window instead of
    /// bench artifacts (`--windows`, profdiff only).
    profdiff_windows: bool,
    /// Fault-sweep seed (`--seed`).
    seed: u64,
    /// Fault-sweep campaigns per machine × kernel pair (`--campaigns`).
    campaigns: u64,
    /// Use the reduced workload set for the fault sweep and DSE
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
            trace_dir: String::from("target/traces"),
            metrics_dir: String::from("target/metrics"),
            flame_dir: String::from("target/flame"),
            report_dir: String::from("target/report"),
            timeline_dir: String::from("target/timeline"),
            window: triarch_timeline::DEFAULT_WINDOW,
            bench_path: String::from("BENCH_table3.json"),
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
                "trace" | "metrics" | "bench" | "flame" | "report" | "timeline" => {
                    opts.selectors.push(String::from(arg));
                    // An optional output path may follow.
                    if let Some(next) = args.get(i + 1) {
                        if !SELECTORS.contains(&next.as_str()) && !next.starts_with("--") {
                            match arg {
                                "trace" => opts.trace_dir.clone_from(next),
                                "metrics" => opts.metrics_dir.clone_from(next),
                                "flame" => opts.flame_dir.clone_from(next),
                                "report" => opts.report_dir.clone_from(next),
                                "timeline" => opts.timeline_dir.clone_from(next),
                                _ => opts.bench_path.clone_from(next),
                            }
                            i += 1;
                        }
                    }
                    i += 1;
                }
                s if SELECTORS.contains(&s) => {
                    opts.selectors.push(String::from(s));
                    i += 1;
                }
                other => {
                    return Err(format!(
                        "unknown selector '{other}' (expected one of: {})",
                        SELECTORS.join(" ")
                    ));
                }
            }
        }
        if opts.window != triarch_timeline::DEFAULT_WINDOW && !opts.explicit("timeline") {
            return Err(String::from("--window requires the timeline selector"));
        }
        if opts.profdiff_windows && !opts.explicit("profdiff") {
            return Err(String::from("--windows requires the profdiff selector"));
        }
        if !opts.explicit("serve") {
            for (flag, given) in [
                ("--addr", opts.serve_addr != "127.0.0.1:7444"),
                ("--workers", opts.workers != 2),
                ("--queue", opts.queue != 16),
                ("--cache-entries", opts.cache_entries != 64),
                ("--cache-dir", !opts.cache_dir.is_empty()),
                ("--access-log", !opts.access_log.is_empty()),
                ("--job-timeout", opts.job_timeout_ms != 0),
            ] {
                if given {
                    return Err(format!("{flag} requires the serve selector"));
                }
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

/// Reads and parses a bench artifact, naming the path in any failure.
fn read_artifact(path: &str) -> Result<BenchReport, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read bench artifact '{path}': {e}"))?;
    BenchReport::parse(&text).map_err(|e| format!("bench artifact '{path}': {e}"))
}

/// Reads and parses a timeline artifact, naming the path in any failure.
fn read_timeline_artifact(path: &str) -> Result<WindowDoc, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read timeline artifact '{path}': {e}"))?;
    timelinedoc::parse_timeline_doc(&text).map_err(|e| format!("timeline artifact '{path}': {e}"))
}

/// Runs the grid with a folding sink attached and reports pool stats.
fn collect_folds(
    opts: &Options,
    what: &str,
) -> Result<(Vec<FoldedCell>, &'static WorkloadSet, &'static str), Box<dyn std::error::Error>> {
    let (workloads, kind) = select_workloads(opts)?;
    if !opts.quiet {
        eprintln!("{what} ({kind} workloads) ...");
    }
    let (folds, stats) =
        htmlreport::collect_folds_jobs_windowed(workloads, opts.jobs, opts.window)?;
    if !opts.quiet {
        eprintln!("{}", stats.render());
    }
    Ok((folds, workloads, kind))
}

/// Runs every machine × kernel pair traced and writes JSON + CSV files.
fn dump_traces(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let dir = Path::new(&opts.trace_dir);
    ensure_dir(dir)?;
    let (workloads, _) = select_workloads(opts)?;
    println!("== Cycle-attribution traces ({}) ==", dir.display());
    for arch in Architecture::ALL {
        let mut machine = arch.machine()?;
        for kernel in Kernel::ALL {
            let mut sink = TeeSink::new(RingSink::new(RING_CAPACITY), FoldSink::new());
            let ctx = RunCtx { sink: Some(&mut sink), ..RunCtx::default() };
            let run = machine.run_with(workloads.input(kernel), ctx)?;
            let TeeSink { a: ring, b: fold } = sink;
            let dropped = ring.dropped();
            let events = ring.into_events();
            let fold = fold.into_fold();

            let base = cell_slug(arch, kernel);
            write_file(
                &dir.join(format!("{base}.trace.json")),
                &export::chrome_trace_json(&events),
            )?;
            write_file(&dir.join(format!("{base}.csv")), &export::csv(&events))?;

            // Trace-vs-breakdown agreement: counted spans must reproduce
            // the engine's own tally.
            let drift =
                run.breakdown_drift(fold.iter().map(|(category, _, cycles)| (category, cycles)));
            println!(
                "  {base}: {} events ({dropped} dropped from ring), \
                 {} cycles, trace-vs-breakdown drift {drift}",
                fold.events_observed(),
                run.cycles.get(),
            );
        }
    }
    println!();
    Ok(())
}

/// Runs the seeded fault-injection sweep and prints the outcome table.
fn run_faultsweep(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let (workloads, kind) = select_workloads(opts)?;
    if !opts.quiet {
        eprintln!(
            "running fault sweep: seed {}, {} campaigns, {kind} workloads ...",
            opts.seed, opts.campaigns,
        );
    }
    let (table, stats) = faultsweep::sweep_jobs(workloads, opts.seed, opts.campaigns, opts.jobs)?;
    if !opts.quiet {
        eprintln!("{}", stats.render());
    }
    print!("{}", driver::faultsweep_text(&table));
    Ok(())
}

/// Runs the design-space sweep and prints sensitivity tables + findings.
fn run_dse(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let (workloads, kind) = select_workloads(opts)?;
    if !opts.quiet {
        eprintln!(
            "running design-space sweep: {} design points x {} kernels, {kind} workloads ...",
            dse::points().len(),
            Kernel::ALL.len(),
        );
    }
    let (report, stats) = dse::sweep(workloads, opts.jobs)?;
    if !opts.quiet {
        eprintln!("{}", stats.render());
    }
    print!("{}", driver::dse_text(&report));
    Ok(())
}

/// The process-wide workload set a selector should use (see
/// [`driver::workloads`]), with its kind label.
fn select_workloads(
    opts: &Options,
) -> Result<(&'static WorkloadSet, &'static str), triarch_simcore::SimError> {
    let kind = if opts.small { WorkloadKind::Small } else { WorkloadKind::Paper };
    Ok((driver::workloads(kind)?, kind.name()))
}

/// Runs the grid and writes per-cell metrics JSON + a Prometheus dump.
fn run_metrics(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let dir = Path::new(&opts.metrics_dir);
    ensure_dir(dir)?;
    let (folds, workloads, _) = collect_folds(opts, "collecting hardware-counter metrics")?;
    let table3 = table_from_folds(&folds);
    let scorecard = Scorecard::compute(&table3, workloads)?;

    println!("== Hardware-counter metrics ({}) ==", dir.display());
    let mut combined = MetricsReport::new();
    let mut prof = HostProf::new();
    let mut cells = 0usize;
    for cell in &folds {
        let run = &cell.run;
        let mut report = run.metrics.clone();
        scorecard.cell(cell.arch, cell.kernel).export_metrics(&mut report);
        let base = cell_slug(cell.arch, cell.kernel);
        write_file(&dir.join(format!("{base}.metrics.json")), &report.render_json())?;
        for (name, metric) in report.iter() {
            combined.set(&format!("{base}.{name}"), metric.clone());
        }
        // Conservation law: the exported cycle-category counters must
        // re-add to the engine's breakdown and total cycle count exactly.
        let engine = cell.arch.engine();
        let drift = run.breakdown_drift(report.iter().filter_map(|(name, metric)| match metric {
            Metric::Counter(cycles) => {
                Some((name.strip_prefix(engine)?.strip_prefix(".cycles.")?, *cycles))
            }
            _ => None,
        }));
        println!("  {base}: {} metrics, cycle conservation drift {drift}", report.len());
        prof.record_cell(&base, cell.wall, run.cycles.get());
        cells += 1;
    }
    // Host self-profiling gauges are informational and land only in the
    // combined dump; the per-cell JSON artifacts stay deterministic.
    prof.export(&mut combined);
    write_file(&dir.join("metrics.prom"), &combined.render_prometheus())?;
    println!("  wrote {cells} per-cell JSON reports + metrics.prom");
    println!();
    println!("== Roofline utilization scorecard ==");
    println!("{}", scorecard.render());
    if !opts.quiet {
        eprintln!("{}", prof.render());
    }
    Ok(())
}

/// Writes per-cell collapsed stacks + SVG flamegraphs under `flame_dir`.
fn run_flame(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let dir = Path::new(&opts.flame_dir);
    ensure_dir(dir)?;
    let (folds, _, _) = collect_folds(opts, "folding trace spans into flamegraphs")?;
    println!("== Flamegraphs ({}) ==", dir.display());
    for cell in &folds {
        let base = cell_slug(cell.arch, cell.kernel);
        write_file(
            &dir.join(format!("{base}.folded")),
            &cell.fold.render_collapsed(cell.arch.name(), cell.kernel.name()),
        )?;
        write_file(
            &dir.join(format!("{base}.svg")),
            &flamegraph_svg(cell.arch.name(), cell.kernel.name(), &cell.fold),
        )?;
        println!("  {base}: {} cycles, fold drift {}", cell.run.cycles.get(), cell.fold_drift(),);
    }
    println!("  wrote {} folded stacks + SVG flamegraphs", folds.len());
    println!();
    Ok(())
}

/// Builds the self-contained HTML attribution report.
fn run_report(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let dir = Path::new(&opts.report_dir);
    ensure_dir(dir)?;
    let mut prof = HostProf::new();
    let t0 = Instant::now();
    let (folds, workloads, kind) = collect_folds(opts, "building the HTML attribution report")?;
    prof.record_phase("simulate-grid", t0.elapsed());
    for cell in &folds {
        prof.record_cell(&cell_slug(cell.arch, cell.kernel), cell.wall, cell.run.cycles.get());
    }
    let table3 = table_from_folds(&folds);
    let scorecard = prof.time_phase("scorecard", || Scorecard::compute(&table3, workloads))?;
    let (sweep, sweep_stats) = prof.time_phase("faultsweep", || {
        faultsweep::sweep_jobs(workloads, opts.seed, opts.campaigns, opts.jobs)
    })?;
    if !opts.quiet {
        eprintln!("{}", sweep_stats.render());
    }
    let inputs = htmlreport::ReportInputs {
        table3: &table3,
        scorecard: &scorecard,
        sweep: &sweep,
        folds: &folds,
        workloads,
        workload_kind: kind,
    };
    let html = prof.time_phase("render-html", || htmlreport::render(&inputs))?;
    let path = dir.join("report.html");
    write_file(&path, &html)?;
    println!("== HTML report ==");
    println!("  wrote {} ({} cells, {} bytes)", path.display(), folds.len(), html.len());
    println!();
    if !opts.quiet {
        eprintln!("{}", prof.render());
    }
    Ok(())
}

/// Writes per-cell windowed-occupancy CSVs + SVGs and the combined
/// schema-versioned `timeline.json` artifact under `timeline_dir`.
fn run_timeline(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let dir = Path::new(&opts.timeline_dir);
    ensure_dir(dir)?;
    let (folds, _, kind) = collect_folds(opts, "bucketing trace spans into cycle windows")?;
    println!("== Utilization timelines ({}) ==", dir.display());
    for cell in &folds {
        let base = cell_slug(cell.arch, cell.kernel);
        write_file(&dir.join(format!("{base}.timeline.csv")), &cell.timeline.render_csv())?;
        write_file(
            &dir.join(format!("{base}.timeline.svg")),
            &chart::render_timeline_svg(&cell.label(), &cell.timeline),
        )?;
        println!(
            "  {base}: {} cycles in {} windows of {}, occupancy drift {}",
            cell.run.cycles.get(),
            cell.timeline.windows(),
            cell.timeline.window(),
            cell.timeline_drift(),
        );
    }
    write_file(&dir.join("timeline.json"), &timelinedoc::render_timeline_json(kind, &folds))?;
    println!(
        "  wrote {} per-cell CSV + SVG timelines + timeline.json (schema v{})",
        folds.len(),
        timelinedoc::TIMELINE_SCHEMA_VERSION,
    );
    println!();
    Ok(())
}

/// Diffs two timeline artifacts window-by-window.
fn run_profdiff_windows(a_path: &str, b_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let a = read_timeline_artifact(a_path)?;
    let b = read_timeline_artifact(b_path)?;
    let diff = WindowDiff::compute(&a, &b);
    println!("== Differential timeline: {a_path} -> {b_path} ==");
    println!("{}", diff.render());
    Ok(())
}

/// Diffs two bench artifacts cell-by-cell and category-by-category.
fn run_profdiff(a_path: &str, b_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let a = read_artifact(a_path)?;
    let b = read_artifact(b_path)?;
    let diff = ProfileDiff::compute(&benchjson::profiles(&a), &benchjson::profiles(&b));
    println!("== Differential profile: {a_path} -> {b_path} ==");
    println!("{}", diff.render());
    Ok(())
}

/// Builds the schema-versioned benchmark artifact from a measured grid.
fn bench_report(table3: &Table3, scorecard: &Scorecard, workload: &str) -> BenchReport {
    let cells = table3
        .iter()
        .map(|(arch, kernel, run)| {
            let c = scorecard.cell(arch, kernel);
            BenchCell {
                arch: arch.name().to_string(),
                kernel: kernel.name().to_string(),
                cycles: run.cycles.get(),
                ops: run.ops_executed,
                mem_words: run.mem_words,
                util: [c.onchip_util, c.offchip_util, c.compute_util, c.bound_util],
                gflops: c.achieved_gflops,
                gbytes_per_s: c.achieved_gbytes,
                breakdown: run
                    .breakdown
                    .iter()
                    .map(|(category, cycles)| (category.to_string(), cycles.get()))
                    .collect(),
            }
        })
        .collect();
    BenchReport {
        schema_version: SCHEMA_VERSION,
        git_rev: benchjson::git_rev(),
        workload: workload.to_string(),
        cells,
    }
}

/// Runs the Table 3 grid and writes the bench artifact.
fn run_bench(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let (workloads, kind) = select_workloads(opts)?;
    if !opts.quiet {
        eprintln!("running the Table 3 grid ({kind} workloads) ...");
    }
    let (table3, stats) = experiments::table3_jobs(workloads, opts.jobs)?;
    if !opts.quiet {
        eprintln!("{}", stats.render());
    }
    let scorecard = Scorecard::compute(&table3, workloads)?;
    let report = bench_report(&table3, &scorecard, kind);
    write_file(Path::new(&opts.bench_path), &report.render())?;
    println!("== Bench ==");
    println!(
        "  wrote {} (schema v{SCHEMA_VERSION}, {} cells, {kind} workloads)",
        opts.bench_path,
        report.cells.len(),
    );
    println!();
    Ok(())
}

/// Starts the campaign daemon and blocks until it is shut down (via
/// `servectl shutdown` or a shutdown frame from any client).
fn run_serve(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let addr = triarch_serve::parse_addr(&opts.serve_addr).map_err(|e| e.to_string())?;
    let mut config = triarch_serve::ServeConfig::new(addr);
    config.workers = opts.workers;
    config.queue = opts.queue;
    config.cache_entries = opts.cache_entries;
    config.jobs = opts.jobs;
    config.quiet = opts.quiet;
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
    // `serve` runs the daemon until shutdown; it composes with nothing
    // else, so it takes over the whole invocation.
    if opts.explicit("serve") {
        return run_serve(opts);
    }

    if opts.want("table1") {
        println!("== Table 1: peak throughput (32-bit words per cycle) ==");
        println!("{}", experiments::table1());
    }
    if opts.want("table2") {
        println!("== Table 2: processor parameters ==");
        println!("{}", experiments::table2());
    }

    // `trace [dir]` is explicit-only (it writes files), so it does not
    // participate in the run-everything default.
    if opts.explicit("trace") {
        dump_traces(opts)?;
    }

    // `faultsweep` is explicit-only too: it is a study of its own, not a
    // paper exhibit.
    if opts.explicit("faultsweep") {
        run_faultsweep(opts)?;
    }

    // `dse` likewise: a design-space study around the paper's points.
    if opts.explicit("dse") {
        run_dse(opts)?;
    }

    // `metrics [dir]` writes files, so it is explicit-only too.
    if opts.explicit("metrics") {
        run_metrics(opts)?;
    }

    // `flame [dir]` and `report [dir]` write files: explicit-only.
    if opts.explicit("flame") {
        run_flame(opts)?;
    }
    if opts.explicit("report") {
        run_report(opts)?;
    }

    // `timeline [dir]` writes files too: explicit-only.
    if opts.explicit("timeline") {
        run_timeline(opts)?;
    }

    // `profdiff` reads two artifacts the caller names explicitly.
    if let Some((a, b)) = &opts.profdiff {
        if opts.profdiff_windows {
            run_profdiff_windows(a, b)?;
        } else {
            run_profdiff(a, b)?;
        }
    }

    // `bench` writes the artifact, so it never joins the run-everything
    // default.
    if opts.explicit("bench") {
        run_bench(opts)?;
    }

    let needs_runs =
        ["table3", "table4", "figure8", "figure9", "breakdowns", "altivec", "claims", "ablations"]
            .iter()
            .any(|n| opts.want(n));
    if !needs_runs {
        return Ok(());
    }

    if !opts.quiet {
        eprintln!("running all machines on paper-sized workloads ...");
    }
    let workloads = driver::workloads(WorkloadKind::Paper)?;
    let (table3, stats) = experiments::table3_jobs(workloads, opts.jobs)?;
    if !opts.quiet {
        eprintln!("{}", stats.render());
    }

    if opts.want("table3") {
        print!("{}", driver::table3_text(&table3));
    }
    if opts.want("table4") {
        println!("== Table 4: performance-model lower bounds (kilocycles) ==");
        println!("{}", experiments::table4(workloads)?);
    }
    if opts.want("figure8") {
        println!("== Figure 8: speedup over PPC+AltiVec (cycles) ==");
        println!("{}", experiments::figure8(&table3).render());
        println!("{}", experiments::figure8(&table3).render_chart(50));
    }
    if opts.want("figure9") {
        println!("== Figure 9: speedup over PPC+AltiVec (execution time) ==");
        println!("{}", experiments::figure9(&table3).render());
        println!("{}", experiments::figure9(&table3).render_chart(50));
    }
    if opts.want("breakdowns") {
        println!("== Section 4 cycle breakdowns ==");
        println!("{}", table3.render_breakdowns());
    }
    if opts.want("altivec") {
        println!("== Section 4.5: AltiVec gains over scalar PPC ==");
        for kernel in Kernel::ALL {
            let gain = table3.cycles(Architecture::Ppc, kernel).get() as f64
                / table3.cycles(Architecture::Altivec, kernel).get() as f64;
            println!("  {kernel}: {gain:.1}x");
        }
        println!();
    }
    if opts.want("claims") {
        println!("== Section 4 claims scorecard ==");
        let claims = triarch_core::claims::evaluate(&table3);
        println!("{}", triarch_core::claims::render(&claims));
    }
    if opts.want("ablations") {
        println!("== Ablations ==");
        let (report, stats) = ablations::render_all_jobs(workloads, opts.jobs)?;
        if !opts.quiet {
            eprintln!("{}", stats.render());
        }
        println!("{report}");
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("repro: {msg}");
            eprintln!(
                "usage: repro [--jobs N] [--quiet] [selector ...] [trace [dir]] \
                 [faultsweep [--seed S] [--campaigns N] [--small]] [dse [--small]] \
                 [metrics [dir] [--small]] [bench [file] [--small]] \
                 [flame [dir] [--small]] [report [dir] [--small]] \
                 [timeline [dir] [--window N] [--small]] \
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
