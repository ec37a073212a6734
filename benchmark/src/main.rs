//! `hostbench` — what the triarch simulators cost in host time.
//!
//! Four workloads, each timed from outside through the public functions
//! of the layer it exercises; simulated cycles are never a result here
//! (perfgate gates those), only checked to repeat exactly.
//!
//! ```text
//! hostbench <workload|all> [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//! hostbench --workload <workload> --seed N --seconds S --trace 0|1
//! ```
//!
//! A run prints each metric as `workload metric value unit` and then one
//! JSON result object as the last line of stdout. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` is a separate traced run that
//! reports the per-layer metrics. `all` runs every workload in a child
//! process of its own, so each peak RSS belongs to one workload.

mod grid;
mod harness;
mod metrics;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use triarch_core::benchjson::{parse_json, Json};

use crate::grid::Size;

const USAGE: &str = "usage: hostbench <workload|all> [--seed N] [--seconds S] [--trace 0|1] \
                     [--spans FILE]\n  workloads: grid-paper grid-small attrib-paper serve-mixed";

/// Default measured window, matching `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table 3 grid on the paper-sized set.
    GridPaper,
    /// The same grid on the small set.
    GridSmall,
    /// The attribution pipeline behind `repro report`.
    AttribPaper,
    /// The caching daemon under a hit/miss mix.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::GridPaper, Workload::GridSmall, Workload::AttribPaper, Workload::ServeMixed];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridPaper => "grid-paper",
            Workload::GridSmall => "grid-small",
            Workload::AttribPaper => "attrib-paper",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn run(self, opts: &Opts) -> Result<harness::Outcome, String> {
        let (seed, seconds, trace) = (opts.seed, opts.seconds, opts.trace);
        match self {
            Workload::GridPaper => grid::run_grid(Size::Paper, seed, seconds, trace),
            Workload::GridSmall => grid::run_grid(Size::Small, seed, seconds, trace),
            Workload::AttribPaper => grid::run_attrib(seed, seconds, trace),
            Workload::ServeMixed => serve::run(seed, seconds, trace),
        }
    }
}

/// Parsed command line.
struct Opts {
    /// `None` for `all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut target: Option<String> = None;
        let mut opts =
            Opts { workload: None, seed: 42, seconds: DEFAULT_SECONDS, trace: false, spans: None };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => target = Some(value()?.clone()),
                "--seed" => {
                    opts.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?;
                }
                "--seconds" => {
                    opts.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                        return Err(String::from("--seconds must be positive"));
                    }
                }
                "--trace" => {
                    opts.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                    };
                }
                "--spans" => {
                    let path = PathBuf::from(value()?);
                    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
                    opts.spans = Some(cwd.join(path));
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
                name if target.is_none() => target = Some(name.to_owned()),
                extra => return Err(format!("unexpected argument '{extra}'")),
            }
        }
        match target.as_deref() {
            None => return Err(String::from("name a workload or 'all'")),
            Some("all") => {}
            Some(name) => {
                opts.workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
        }
        if opts.spans.is_some() && !(opts.trace && opts.workload.is_some()) {
            return Err(String::from("--spans needs one workload and --trace 1"));
        }
        Ok(opts)
    }
}

fn run_one(workload: Workload, opts: &Opts) -> Result<(), String> {
    let mut outcome = workload.run(opts)?;
    outcome.values.insert("peak_rss_mb".into(), harness::peak_rss_mb()?);
    if let Some(path) = &opts.spans {
        std::fs::write(path, outcome.tracer.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    metrics::emit(workload.name(), opts.trace, outcome.attempted, outcome.failed, &outcome.values)
}

/// Runs one workload in a child process, relays its stdout, and returns
/// its result object.
fn child(workload: Workload, opts: &Opts, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("{} exited with {}", workload.name(), out.status));
    }
    parse_json(stdout.lines().last().unwrap_or_default())
        .map_err(|e| format!("{}: {e}", workload.name()))
}

/// A metric's value from a result object.
fn metric(result: &Json, name: &str) -> Option<f64> {
    let field = |obj: &[(String, Json)], key: &str| {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let metrics = field(result.as_obj()?, "metrics")?;
    let entry = field(metrics.as_obj()?, name)?;
    match field(entry.as_obj()?, "value")? {
        Json::Num(v) => Some(v),
        _ => None,
    }
}

fn run_all(opts: &Opts) -> Result<(), String> {
    for workload in Workload::ALL {
        let plain = child(workload, opts, false)?;
        if opts.trace {
            let traced = child(workload, opts, true)?;
            let ratio = metric(&traced, "hostbench.op_min_ms")
                .zip(metric(&plain, "op_min_ms"))
                .map(|(t, p)| t / p)
                .ok_or("a result object lacks its fastest op")?;
            println!("{} tracing_overhead {ratio} ratio", workload.name());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.workload {
        Some(workload) => run_one(workload, &opts),
        None => run_all(&opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        Opts::parse(&args.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn both_command_lines_parse() {
        let driver =
            parse(&["--workload", "serve-mixed", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(driver.workload, Some(Workload::ServeMixed));
        assert_eq!((driver.seed, driver.seconds, driver.trace), (7, 10.0, true));
        let short = parse(&["grid-small"]).unwrap();
        assert_eq!(short.workload, Some(Workload::GridSmall));
        assert_eq!((short.seed, short.seconds, short.trace), (42, DEFAULT_SECONDS, false));
        assert!(parse(&["all", "--trace", "1"]).unwrap().workload.is_none());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &[][..],
            &["grid-huge"],
            &["grid-small", "--trace", "2"],
            &["grid-small", "--seconds", "0"],
            &["grid-small", "--seed"],
            &["grid-small", "--spans", "x.json"],
            &["all", "--trace", "1", "--spans", "x.json"],
            &["grid-small", "grid-paper"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
