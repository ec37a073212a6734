//! CLI-level integration tests for the `repro` and `perfgate` binaries:
//! the differential profiler, the `--quiet` switch, the unwritable-path
//! diagnostics, the bench artifact writer, and the exact, category-naming
//! perf gate.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use triarch_core::benchjson::{parse_json, BenchReport};
use triarch_core::driver;

/// The committed CI baseline artifact at the workspace root.
fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_table3.json")
}

/// A scratch directory scoped to this test binary.
fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env_remove("TRIARCH_QUIET")
        .env_remove("TRIARCH_JOBS")
        .output()
        .unwrap()
}

fn perfgate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfgate")).args(args).output().unwrap()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn profdiff_of_the_committed_artifact_against_itself_is_empty() {
    let baseline = baseline_path();
    let baseline = baseline.to_str().unwrap();
    let out = repro(&["profdiff", baseline, baseline]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("profdiff: no differences (18 cells compared)"), "{stdout}");
}

#[test]
fn profdiff_names_the_moved_category_on_a_perturbed_artifact() {
    let baseline = fs::read_to_string(baseline_path()).unwrap();
    let mut report = BenchReport::parse(&baseline).unwrap();
    // Perturb one cell: +10% cycles, attributed entirely to the cell's
    // first breakdown category.
    let cell = &mut report.cells[0];
    let bump = cell.cycles / 10;
    cell.cycles += bump;
    let category = {
        let (name, weight) = cell.breakdown.iter_mut().next().unwrap();
        *weight += bump;
        name.clone()
    };
    let dir = tmp("profdiff-perturbed");
    let perturbed = dir.join("perturbed.json");
    fs::write(&perturbed, report.render()).unwrap();

    let out = repro(&["profdiff", baseline_path().to_str().unwrap(), perturbed.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("1 of 18 matched cells changed"), "{stdout}");
    assert!(stdout.contains(&category), "expected category '{category}' in:\n{stdout}");
}

#[test]
fn perfgate_failure_names_the_regressed_category() {
    let baseline = fs::read_to_string(baseline_path()).unwrap();
    let mut report = BenchReport::parse(&baseline).unwrap();
    let cell = &mut report.cells[0];
    let bump = (cell.cycles / 10).max(1);
    cell.cycles += bump;
    let category = {
        let (name, weight) = cell.breakdown.iter_mut().next().unwrap();
        *weight += bump;
        name.clone()
    };
    let dir = tmp("perfgate-perturbed");
    let perturbed = dir.join("perturbed.json");
    fs::write(&perturbed, report.render()).unwrap();

    let out = perfgate(&[baseline_path().to_str().unwrap(), perturbed.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("perfgate: FAIL"), "{stderr}");
    assert!(stderr.contains("top movers"), "{stderr}");
    assert!(stderr.contains(&category), "expected regressed category '{category}' in:\n{stderr}");
}

/// The gate has no knobs: the variables that once skipped it
/// (`TRIARCH_PERF_SKIP`) or widened its band (`TRIARCH_PERF_TOLERANCE`)
/// change nothing, so a one-cycle drift still fails with the same report.
#[test]
fn perfgate_fails_a_perturbed_artifact_whatever_the_retired_variables_say() {
    let baseline = fs::read_to_string(baseline_path()).unwrap();
    let mut report = BenchReport::parse(&baseline).unwrap();
    let cell = &mut report.cells[0];
    cell.cycles += 1;
    *cell.breakdown.values_mut().next().unwrap() += 1;
    let dir = tmp("perfgate-knobs");
    let perturbed = dir.join("perturbed.json");
    fs::write(&perturbed, report.render()).unwrap();

    let base = baseline_path();
    let args = [base.to_str().unwrap(), perturbed.to_str().unwrap()];
    let plain = perfgate(&args);
    assert_eq!(plain.status.code(), Some(1), "{}", stderr_of(&plain));
    let knobs = Command::new(env!("CARGO_BIN_EXE_perfgate"))
        .args(args)
        .env("TRIARCH_PERF_SKIP", "1")
        .env("TRIARCH_PERF_TOLERANCE", "1")
        .output()
        .unwrap();
    assert_eq!(knobs.status.code(), Some(1), "{}", stderr_of(&knobs));
    let stderr = stderr_of(&knobs);
    assert!(stderr.contains("perfgate: FAIL"), "{stderr}");
    assert_eq!(stderr, stderr_of(&plain));
}

/// Cycles moved between two breakdown categories at an unchanged cell
/// total are a behaviour change: the gate fails and names both.
#[test]
fn perfgate_fails_a_category_reshuffle_at_an_unchanged_total() {
    let baseline = fs::read_to_string(baseline_path()).unwrap();
    let mut report = BenchReport::parse(&baseline).unwrap();
    let cell =
        report.cells.iter_mut().find(|c| c.arch == "Raw" && c.kernel == "Corner Turn").unwrap();
    *cell.breakdown.get_mut("issue").unwrap() -= 72;
    *cell.breakdown.get_mut("startup").unwrap() += 72;
    let dir = tmp("perfgate-reshuffle");
    let reshuffled = dir.join("reshuffled.json");
    fs::write(&reshuffled, report.render()).unwrap();

    let out = perfgate(&[baseline_path().to_str().unwrap(), reshuffled.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("Raw/Corner Turn"), "{stderr}");
    for category in ["issue", "startup"] {
        let named = stderr.lines().any(|l| l.trim_start().starts_with(&format!("{category} ")));
        assert!(named, "expected a '{category}' row in:\n{stderr}");
    }
}

/// `repro bench` writes a schema-v3 artifact with no host fields whose
/// breakdowns conserve each cell's cycles, and perfgate passes it
/// against itself.
#[test]
fn repro_bench_writes_a_v3_artifact_that_perfgate_passes() {
    let dir = tmp("bench-small");
    let path = dir.join("small.json");
    let path = path.to_str().unwrap();
    let out = repro(&["bench", path, "--small", "--jobs", "1", "--quiet"]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    let text = fs::read_to_string(path).unwrap();
    let report = BenchReport::parse(&text).unwrap();
    assert_eq!(report.schema_version, 3);
    assert_eq!(report.workload, "small");
    assert_eq!(report.cells.len(), 18);
    for cell in &report.cells {
        let sum: u64 = cell.breakdown.values().sum();
        assert_eq!(sum, cell.cycles, "{}/{}", cell.arch, cell.kernel);
    }
    let doc = parse_json(&text).unwrap();
    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["schema_version", "git_rev", "workload", "cells"]);

    let out = perfgate(&[path, path]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("perfgate: PASS — 18 cells identical"), "{}", stderr_of(&out));

    // The removed `--json` flag is a usage error, not silently ignored.
    let out = repro(&["bench", path, "--json"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("unknown selector '--json'"), "{}", stderr_of(&out));
}

#[test]
fn perfgate_passes_the_committed_artifact_against_itself() {
    let baseline = baseline_path();
    let baseline = baseline.to_str().unwrap();
    let out = perfgate(&[baseline, baseline]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("perfgate: PASS"));
}

#[test]
fn unwritable_output_paths_fail_fast_with_a_named_path() {
    // A plain file squatting where a directory must go: every file-writing
    // selector should name the path and exit 1 before simulating anything.
    let dir = tmp("unwritable");
    let squatter = dir.join("squatter");
    fs::write(&squatter, "not a directory").unwrap();
    let bad = squatter.join("sub");
    let bad = bad.to_str().unwrap();

    for selector in ["report", "flame", "metrics", "trace", "timeline"] {
        let out = repro(&[selector, bad, "--small", "--jobs", "1"]);
        assert_eq!(out.status.code(), Some(1), "selector {selector}");
        let stderr = stderr_of(&out);
        assert!(
            stderr.contains("cannot create output directory") && stderr.contains(bad),
            "selector {selector}: {stderr}"
        );
    }
}

#[test]
fn trace_small_traces_the_small_workloads_with_drift_zero() {
    let dir = tmp("trace-small");
    let out = repro(&["trace", dir.to_str().unwrap(), "--small", "--quiet"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let ppc = stdout.lines().find(|l| l.trim_start().starts_with("ppc-corner-turn:"));
    assert!(ppc.is_some_and(|l| l.contains(" 27392 cycles,")), "{stdout}");
    let clean = stdout.lines().filter(|l| l.ends_with("trace-vs-breakdown drift 0")).count();
    assert_eq!(clean, 18, "{stdout}");
}

#[test]
fn trace_small_writes_a_parseable_chrome_trace_and_csv_per_cell() {
    let dir = tmp("trace-artifacts");
    let out = repro(&["trace", dir.to_str().unwrap(), "--small", "--quiet"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let traces: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.to_string_lossy().ends_with(".trace.json"))
        .collect();
    assert_eq!(traces.len(), 18, "{traces:?}");
    for path in &traces {
        let json = fs::read_to_string(path).unwrap();
        let doc = parse_json(&json).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(doc.as_arr().is_some_and(|events| !events.is_empty()), "{}", path.display());
        let csv_path = path.to_string_lossy().replace(".trace.json", ".csv");
        let csv = fs::read_to_string(&csv_path).unwrap();
        assert!(
            csv.starts_with("kind,track,category,name,start,dur,counted,value\n"),
            "{csv_path}"
        );
        assert!(csv.lines().count() > 1, "{csv_path}");
    }
}

#[test]
fn metrics_small_conserves_cycle_counters_on_every_cell() {
    let dir = tmp("metrics-small");
    let out = repro(&["metrics", dir.to_str().unwrap(), "--small", "--quiet"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let clean = stdout.lines().filter(|l| l.ends_with("cycle conservation drift 0")).count();
    assert_eq!(clean, 18, "{stdout}");
    let json = fs::read_to_string(dir.join("viram-corner-turn.metrics.json")).unwrap();
    assert!(json.contains("\"viram.cycles."), "{json}");
    assert!(dir.join("metrics.prom").is_file());
}

#[test]
fn timeline_flags_are_validated_before_any_simulation() {
    // A zero or non-numeric window is a usage error (exit 2) with the
    // pinned one-line diagnostic, caught before any cell is simulated.
    let out = repro(&["timeline", "--window", "0"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("--window must be at least 1 cycle"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");

    let out = repro(&["timeline", "--window", "12q"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("--window requires a window size in cycles, got '12q'"),
        "{}",
        stderr_of(&out)
    );

    // Timeline-only and profdiff-only flags without their selector are
    // usage errors too.
    let out = repro(&["--window", "512", "table1"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--window requires the timeline selector"));

    let out = repro(&["--windows", "table1"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--windows requires the profdiff selector"));
}

#[test]
fn timeline_artifacts_diff_clean_against_themselves_and_localize_a_perturbation() {
    let dir = tmp("timeline-diff");
    let dir_str = dir.to_str().unwrap();
    let out = repro(&["timeline", dir_str, "--window", "512", "--small", "--jobs", "2", "--quiet"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert_eq!(
        stdout.matches("occupancy drift 0").count(),
        18,
        "expected 18 drift-0 cells in:
{stdout}"
    );

    let artifact = dir.join("timeline.json");
    let artifact_str = artifact.to_str().unwrap();
    let out = repro(&["profdiff", "--windows", artifact_str, artifact_str]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        stdout_of(&out)
            .contains("profdiff --windows: no differences (18 cells compared, window 512 cycles)"),
        "{}",
        stdout_of(&out)
    );

    // Perturb one window of one series: the diff names the cell, the
    // first divergent window, and the moved category.
    let text = fs::read_to_string(&artifact).unwrap();
    let needle = "\"cycles\": [";
    let at = text.find(needle).unwrap() + needle.len();
    let end = text[at..].find([',', ']']).unwrap() + at;
    let value: u64 = text[at..end].parse().unwrap();
    let perturbed_text = format!("{}{}{}", &text[..at], value + 400, &text[end..]);
    let perturbed = dir.join("perturbed.json");
    fs::write(&perturbed, perturbed_text).unwrap();

    let out = repro(&["profdiff", "--windows", artifact_str, perturbed.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("1 of 18 matched cells diverge (window 512 cycles)"), "{stdout}");
    assert!(stdout.contains("diverges from window 0 (cycle 0)"), "{stdout}");
    assert!(stdout.contains("+400 cycles"), "{stdout}");
}

#[test]
fn profdiff_windows_missing_artifact_exits_one_with_named_path() {
    let out = repro(&["profdiff", "--windows", "no-such-a.json", "no-such-b.json"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("cannot read timeline artifact 'no-such-a.json'"), "{stderr}");
}

#[test]
fn profdiff_missing_artifact_exits_one_with_named_path() {
    let out = repro(&["profdiff", "no-such-a.json", "no-such-b.json"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("cannot read bench artifact 'no-such-a.json'"), "{stderr}");
}

#[test]
fn quiet_flag_and_env_suppress_informational_stderr() {
    let dir = tmp("quiet");
    let dir = dir.to_str().unwrap();

    let loud = repro(&["flame", dir, "--small", "--jobs", "2"]);
    assert!(loud.status.success(), "{}", stderr_of(&loud));
    assert!(!loud.stderr.is_empty(), "expected pool stats on stderr");

    let flag = repro(&["flame", dir, "--small", "--jobs", "2", "--quiet"]);
    assert!(flag.status.success(), "{}", stderr_of(&flag));
    assert!(flag.stderr.is_empty(), "--quiet left stderr: {}", stderr_of(&flag));
    // stdout is unaffected by --quiet.
    assert_eq!(stdout_of(&loud), stdout_of(&flag));

    let env = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["flame", dir, "--small", "--jobs", "2"])
        .env("TRIARCH_QUIET", "1")
        .output()
        .unwrap();
    assert!(env.status.success());
    assert!(env.stderr.is_empty(), "TRIARCH_QUIET=1 left stderr: {}", stderr_of(&env));
}

#[test]
fn perfgate_rejects_future_schema_and_truncated_artifacts_with_pinned_messages() {
    let dir = tmp("perfgate-bad-artifacts");
    let baseline = fs::read_to_string(baseline_path()).unwrap();

    // A future schema version must fail closed with the exact message
    // the benchjson parser pins.
    let future = dir.join("future.json");
    fs::write(&future, baseline.replacen("\"schema_version\": 3", "\"schema_version\": 99", 1))
        .unwrap();
    let out = perfgate(&[baseline_path().to_str().unwrap(), future.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains(
            "schema check failed: unsupported schema version 99 \
                         (this build reads version 3 only)"
        ),
        "{stderr}"
    );

    // A truncated artifact names the failing path, not a bare parse error.
    let truncated = dir.join("truncated.json");
    fs::write(&truncated, &baseline[..baseline.len() / 2]).unwrap();
    let out = perfgate(&[baseline_path().to_str().unwrap(), truncated.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains("truncated.json: schema check failed:"),
        "expected the named path and schema-check prefix in:\n{stderr}"
    );
}

/// A v2 artifact, host fields and all, is refused by its version with a
/// message that names the one version this build reads.
#[test]
fn perfgate_refuses_a_v2_artifact_naming_v3() {
    let baseline = fs::read_to_string(baseline_path()).unwrap();
    let v2_header = "\"schema_version\": 2,\n  \"jobs\": 1,\n  \"wall_seconds\": 0.5,";
    let v2 = tmp("perfgate-v2").join("v2.json");
    fs::write(&v2, baseline.replacen("\"schema_version\": 3,", v2_header, 1)).unwrap();

    for args in [[baseline_path(), v2.clone()], [v2.clone(), baseline_path()]] {
        let out = perfgate(&[args[0].to_str().unwrap(), args[1].to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
        let stderr = stderr_of(&out);
        assert!(
            stderr.contains(
                "v2.json: schema check failed: unsupported schema version 2 \
                 (this build reads version 3 only)"
            ),
            "{stderr}"
        );
    }
}

/// `repro faultsweep` without `--seed` or `--campaigns` runs the job a
/// served faultsweep runs with every knob at its default, byte for byte.
#[test]
fn repro_faultsweep_defaults_are_the_served_job_defaults() {
    let out = repro(&["faultsweep", "--small", "--jobs", "1"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let note = format!(
        "running fault sweep: seed {}, {} campaigns, small workloads",
        driver::DEFAULT_SEED,
        driver::DEFAULT_CAMPAIGNS
    );
    assert!(stderr_of(&out).contains(&note), "{}", stderr_of(&out));

    let spec = driver::JobSpec::new(driver::DriverKind::Faultsweep, driver::WorkloadKind::Small);
    let served = driver::run_job(&spec, 1).unwrap();
    assert_eq!(stdout_of(&out), served.body);
}

fn servectl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_servectl"))
        .args(args)
        .env_remove("TRIARCH_QUIET")
        .output()
        .unwrap()
}

#[test]
fn repro_serve_flags_are_validated_before_any_socket_work() {
    // A malformed address is a usage error (exit 2), not a bind failure.
    let out = repro(&["serve", "--addr", "nonsense"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("bad address 'nonsense'"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");

    // Zero-width knobs are rejected eagerly.
    for (flag, value) in [("--workers", "0"), ("--cache-entries", "0"), ("--job-timeout", "0")] {
        let out = repro(&["serve", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("must be at least 1"), "{}", stderr_of(&out));
    }
    for flag in ["--cache-dir", "--access-log"] {
        let out = repro(&["serve", flag, ""]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains(&format!("{flag} requires a non-empty path")));
    }

    // Serve-only flags without the serve selector are usage errors.
    let out = repro(&["--workers", "3", "table1"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--workers requires the serve selector"));
    for (flag, value) in
        [("--cache-dir", "/tmp/x"), ("--job-timeout", "500"), ("--access-log", "/tmp/x.jsonl")]
    {
        let out = repro(&[flag, value, "table1"]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains(&format!("{flag} requires the serve selector")),
            "{}",
            stderr_of(&out)
        );
    }
}

#[test]
fn servectl_unknown_driver_lists_all_seven_valid_drivers() {
    let out = servectl(&["submit", "warp-drive"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("unknown driver 'warp-drive'"), "{stderr}");
    for driver in ["table3", "dse", "faultsweep", "metrics", "report", "flame", "profdiff"] {
        assert!(stderr.contains(driver), "driver {driver} missing from error:\n{stderr}");
    }
}

/// The unknown-architecture diagnostic must enumerate every valid row —
/// including the DPU machine — so a typo'd `--arch` is self-correcting.
#[test]
fn servectl_unknown_arch_lists_all_six_architectures() {
    let out = servectl(&["submit", "flame", "--arch", "cray", "--kernel", "cslc"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("unknown architecture 'cray'"), "{stderr}");
    assert!(stderr.contains("expected one of: PPC, Altivec, VIRAM, Imagine, Raw, DPU"), "{stderr}");
}

/// A baseline whose architecture grid differs in size from the fresh run
/// must fail the gate with the explicit count-mismatch message — the
/// gate may never pass silently on the intersection of shared cells.
#[test]
fn perfgate_fails_loudly_on_cell_count_mismatch() {
    let baseline = fs::read_to_string(baseline_path()).unwrap();
    let mut report = BenchReport::parse(&baseline).unwrap();
    let cells = report.cells.len();
    report.cells.pop();
    let dir = tmp("perfgate-count-mismatch");
    let shrunk = dir.join("shrunk.json");
    fs::write(&shrunk, report.render()).unwrap();

    let out = perfgate(&[baseline_path().to_str().unwrap(), shrunk.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains(&format!(
            "cell count mismatch: baseline has {cells} cells, fresh run has {} — \
             the architecture grid changed; regenerate the committed baseline",
            cells - 1
        )),
        "{stderr}"
    );
}

/// A seed above 2^53 cannot travel in a JSON number exactly; servectl
/// refuses it before connecting rather than submitting a rounded job.
#[test]
fn servectl_refuses_seeds_a_json_number_would_round() {
    let out = servectl(&["submit", "faultsweep", "--seed", "9007199254740993"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("seed 9007199254740993 exceeds 2^53"), "{stderr}");
    assert!(stderr.contains("usage: servectl"), "{stderr}");
}

#[test]
fn servectl_retry_flags_are_validated() {
    for args in [
        ["--retries", "abc", "ping"],
        ["--backoff-ms", "0", "ping"],
        ["--backoff-ms", "xyz", "ping"],
    ] {
        let out = servectl(&args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {}", stderr_of(&out));
    }
    // There is one retry policy: `--connect-retries` is not a flag, so it
    // parses as an unknown command.
    let out = servectl(&["--connect-retries", "2", "ping"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("usage: servectl"), "{}", stderr_of(&out));
}

#[test]
fn servectl_usage_errors_exit_two_with_usage_text() {
    let cases: &[&[&str]] = &[
        &[],
        &["frobnicate"],
        &["--addr", "nonsense", "ping"],
        &["submit"],
        &["submit", "warp-drive"],
        &["submit", "flame"],
        &["submit", "profdiff"],
        &["submit", "table3", "--arch", "viram"],
        &["stats", "extra"],
        &["top", "--interval", "0"],
        &["top", "--interval", "abc"],
        &["top", "--bogus", "1"],
        &["tail"],
        &["tail", "--follow"],
        &["tail", "some.jsonl", "--bogus"],
    ];
    for args in cases {
        let out = servectl(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("usage: servectl"), "args {args:?}: {}", stderr_of(&out));
    }
}

/// `servectl tail` pretty-prints records offline (no daemon involved)
/// and warns-then-continues past malformed lines instead of erroring.
#[test]
fn servectl_tail_pretty_prints_and_skips_malformed_lines() {
    let dir = tmp("servectl-tail");
    let log = dir.join("access.jsonl");
    fs::write(
        &log,
        concat!(
            r#"{"schema":1,"id":"req-00c0ffee-00000001","driver":"table3","key":"00000000deadbeef","outcome":"miss","bytes_out":64,"accept_us":1,"queue_us":2,"lookup_us":3,"build_us":4,"persist_us":5,"respond_us":6}"#,
            "\n",
            "not json\n",
            r#"{"schema":1,"id":"req-00c0ffee-00000002","driver":"table3","key":"00000000deadbeef","outcome":"hit","bytes_out":64,"accept_us":1,"queue_us":0,"lookup_us":1,"build_us":0,"persist_us":0,"respond_us":2}"#,
            "\n",
        ),
    )
    .unwrap();

    let out = servectl(&["tail", log.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "one pretty line per valid record:\n{stdout}");
    assert_eq!(
        lines[0],
        "req-00c0ffee-00000001 table3 [00000000deadbeef] miss 64 bytes total 21us \
         (accept=1us queue=2us lookup=3us build=4us persist=5us respond=6us)"
    );
    assert!(
        lines[1].starts_with("req-00c0ffee-00000002 table3 [00000000deadbeef] hit 64 bytes"),
        "{}",
        lines[1]
    );
    assert!(stderr_of(&out).contains("skipping malformed access-log line"), "{}", stderr_of(&out));

    // A missing file is a runtime error naming the path.
    let gone = dir.join("missing.jsonl");
    let out = servectl(&["tail", gone.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("cannot read access log"), "{}", stderr_of(&out));
}

#[test]
fn servectl_connection_failure_exits_one_with_the_address() {
    // Port 1 is privileged and unbound; the connection is refused.
    let out = servectl(&["--addr", "127.0.0.1:1", "ping"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("cannot connect to 127.0.0.1:1"), "{stderr}");
}

#[cfg(unix)]
#[test]
fn serve_daemon_and_servectl_round_trip_over_a_unix_socket() {
    let dir = tmp("serve-smoke");
    let socket = format!("unix:{}", dir.join("daemon.sock").display());

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--addr", &socket, "--workers", "2", "--quiet", "--jobs", "1"])
        .env_remove("TRIARCH_QUIET")
        .env_remove("TRIARCH_JOBS")
        .spawn()
        .unwrap();

    let run = || -> Result<(), String> {
        let ping = servectl(&["--addr", &socket, "--retries", "7", "ping"]);
        if !ping.status.success() {
            return Err(format!("ping failed: {}", stderr_of(&ping)));
        }

        let args = [
            "--addr",
            &socket,
            "submit",
            "flame",
            "--workload",
            "small",
            "--arch",
            "viram",
            "--kernel",
            "corner turn",
        ];
        let cold = servectl(&args);
        if !cold.status.success() {
            return Err(format!("cold submit failed: {}", stderr_of(&cold)));
        }
        if !stderr_of(&cold).contains("cache miss") {
            return Err(format!("expected a cache miss note: {}", stderr_of(&cold)));
        }

        let warm = servectl(&args);
        if !warm.status.success() {
            return Err(format!("warm submit failed: {}", stderr_of(&warm)));
        }
        if !stderr_of(&warm).contains("cache hit") {
            return Err(format!("expected a cache hit note: {}", stderr_of(&warm)));
        }
        if cold.stdout != warm.stdout {
            return Err(String::from("warm artifact differs from cold artifact"));
        }

        let stats = servectl(&["--addr", &socket, "stats"]);
        let dump = stdout_of(&stats);
        if !dump.lines().any(|l| l == "triarch_serve_cache_hits 1") {
            return Err(format!("expected triarch_serve_cache_hits 1 in:\n{dump}"));
        }
        // The derived-ratio lines are stderr-only, in the pinned wording.
        let notes = stderr_of(&stats);
        if !notes.contains("servectl: cache hit ratio 50.0% (1 of 2 lookups)") {
            return Err(format!("expected the pinned hit-ratio line in:\n{notes}"));
        }
        if !notes.contains("servectl: queue rejection ratio 0.0% (0 of ") {
            return Err(format!("expected the pinned rejection-ratio line in:\n{notes}"));
        }

        // One top snapshot renders the dashboard without blocking.
        let top = servectl(&["--addr", &socket, "top", "--count", "1"]);
        if !top.status.success() {
            return Err(format!("top failed: {}", stderr_of(&top)));
        }
        let board = stdout_of(&top);
        if !board.lines().next().is_some_and(|l| l.contains("serve top")) {
            return Err(format!("expected a serve top header in:\n{board}"));
        }
        if !board.contains("cache hit ratio 50.0% (1 of 2 lookups)") {
            return Err(format!("expected the hit ratio on the dashboard:\n{board}"));
        }

        let down = servectl(&["--addr", &socket, "shutdown"]);
        if !down.status.success() {
            return Err(format!("shutdown failed: {}", stderr_of(&down)));
        }
        Ok(())
    };
    let result = run();
    if result.is_err() {
        let _ = daemon.kill();
    }
    let status = daemon.wait().unwrap();
    result.unwrap();
    assert!(status.success(), "daemon exited with {status}");
}
