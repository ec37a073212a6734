//! `BENCH_table3.json` — the machine-readable benchmark artifact and its
//! perf-regression comparator.
//!
//! The `repro -- bench` driver writes one schema-versioned JSON document
//! per run: the git revision, the workload set, and a cell record per
//! (machine, kernel) pair carrying the simulated cycles, the roofline
//! utilizations from [`Scorecard`](crate::roofline::Scorecard), and the
//! per-category breakdown ledger. Every field but `git_rev` is simulated,
//! so two runs of one tree write the same bytes; host time belongs to
//! hostbench (`benchmark/`), not here. The `perfgate` binary parses a
//! committed baseline and a freshly generated file with the same code
//! and fails CI when any cell differs.
//!
//! Everything is hand-rolled (the workspace is dependency-free by
//! design): [`BenchReport::render`] emits the JSON and
//! [`BenchReport::parse`] re-reads it through a minimal JSON value parser
//! ([`parse_json`]) followed by strict schema validation — the validation
//! errors double as the CI schema sanity check.
//!
//! Comparison semantics ([`compare`]): `schema_version`, `workload`, and
//! the cell count must match, and then the differential profiler
//! ([`triarch_profile::diff`]) compares every cell's `cycles` and
//! `breakdown` exactly. The simulators are deterministic, so any
//! difference is a behaviour change, and the diff names the categories
//! that moved. `git_rev` records provenance and is never compared.
//!
//! Schema history: v1 carried cycles + roofline utilizations per cell;
//! v2 added the per-cell `breakdown` object (category → cycles, the
//! engine's `CycleBreakdown` ledger); v3 (current) drops the host fields
//! `jobs` and `wall_seconds`. This build reads v3 only.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use triarch_profile::{CellProfile, ProfileDiff};
use triarch_simcore::metrics::fmt_f64;

/// Version stamp of the `BENCH_table3.json` layout.
pub const SCHEMA_VERSION: u64 = 3;

/// One (machine, kernel) record of the benchmark artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    /// Machine row name (e.g. `"VIRAM"`).
    pub arch: String,
    /// Kernel column name (e.g. `"Corner Turn"`).
    pub kernel: String,
    /// Simulated cycles (gated exactly, with the breakdown).
    pub cycles: u64,
    /// ALU operations the kernel executed.
    pub ops: u64,
    /// Words moved across the limiting memory level.
    pub mem_words: u64,
    /// Roofline utilizations: on-chip, off-chip, compute, and bound
    /// (model prediction over measured cycles).
    pub util: [f64; 4],
    /// Achieved GFLOP/s at the machine's clock.
    pub gflops: f64,
    /// Achieved GB/s across the limiting memory level.
    pub gbytes_per_s: f64,
    /// Per-breakdown-category cycles (the engine's `CycleBreakdown`
    /// ledger; categories sum to `cycles` exactly for every engine).
    pub breakdown: BTreeMap<String, u64>,
}

impl BenchCell {
    /// The cell as a differential-profiler input.
    #[must_use]
    pub fn profile(&self) -> CellProfile {
        CellProfile {
            arch: self.arch.clone(),
            kernel: self.kernel.clone(),
            cycles: self.cycles,
            categories: self.breakdown.clone(),
        }
    }
}

/// The whole benchmark artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Layout version ([`SCHEMA_VERSION`] when written by this code).
    pub schema_version: u64,
    /// `git rev-parse --short HEAD` at generation time (or `"unknown"`).
    pub git_rev: String,
    /// Workload set kind: `"paper"` or `"small"`.
    pub workload: String,
    /// One record per (machine, kernel) cell.
    pub cells: Vec<BenchCell>,
}

impl BenchReport {
    /// Renders the artifact as JSON (one cell object per line, stable
    /// field order — diff-friendly and byte-identical for identical
    /// inputs).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(out, "  \"git_rev\": \"{}\",", escape(&self.git_rev));
        let _ = writeln!(out, "  \"workload\": \"{}\",", escape(&self.workload));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"arch\": \"{}\", \"kernel\": \"{}\", \"cycles\": {}, \
                 \"ops\": {}, \"mem_words\": {}, \
                 \"util_onchip\": {}, \"util_offchip\": {}, \"util_compute\": {}, \
                 \"util_bound\": {}, \"gflops\": {}, \"gbytes_per_s\": {}, \
                 \"breakdown\": {}}}{comma}",
                escape(&c.arch),
                escape(&c.kernel),
                c.cycles,
                c.ops,
                c.mem_words,
                fmt_f64(c.util[0]),
                fmt_f64(c.util[1]),
                fmt_f64(c.util[2]),
                fmt_f64(c.util[3]),
                fmt_f64(c.gflops),
                fmt_f64(c.gbytes_per_s),
                render_breakdown(&c.breakdown),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses and schema-validates a benchmark artifact.
    ///
    /// # Errors
    ///
    /// Returns a one-line description for malformed JSON (including a
    /// truncated artifact — the parser never yields a partial report), a
    /// missing or mistyped field, a `schema_version` other than
    /// [`SCHEMA_VERSION`], or an empty cell list.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let root = parse_json(text)?;
        let obj = root.as_obj().ok_or("top level must be a JSON object")?;
        let schema_version = get_u64(obj, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema version {schema_version} \
                 (this build reads version {SCHEMA_VERSION} only)"
            ));
        }
        let git_rev = get_str(obj, "git_rev")?;
        let workload = get_str(obj, "workload")?;
        let cells_json = get(obj, "cells")?.as_arr().ok_or("field 'cells' must be an array")?;
        if cells_json.is_empty() {
            return Err(String::from("field 'cells' must not be empty"));
        }
        let mut cells = Vec::with_capacity(cells_json.len());
        for (i, cell) in cells_json.iter().enumerate() {
            let c = cell.as_obj().ok_or_else(|| format!("cells[{i}] must be an object"))?;
            cells.push(BenchCell {
                arch: get_str(c, "arch").map_err(|e| format!("cells[{i}]: {e}"))?,
                kernel: get_str(c, "kernel").map_err(|e| format!("cells[{i}]: {e}"))?,
                cycles: get_u64(c, "cycles").map_err(|e| format!("cells[{i}]: {e}"))?,
                ops: get_u64(c, "ops").map_err(|e| format!("cells[{i}]: {e}"))?,
                mem_words: get_u64(c, "mem_words").map_err(|e| format!("cells[{i}]: {e}"))?,
                util: [
                    get_f64(c, "util_onchip").map_err(|e| format!("cells[{i}]: {e}"))?,
                    get_f64(c, "util_offchip").map_err(|e| format!("cells[{i}]: {e}"))?,
                    get_f64(c, "util_compute").map_err(|e| format!("cells[{i}]: {e}"))?,
                    get_f64(c, "util_bound").map_err(|e| format!("cells[{i}]: {e}"))?,
                ],
                gflops: get_f64(c, "gflops").map_err(|e| format!("cells[{i}]: {e}"))?,
                gbytes_per_s: get_f64(c, "gbytes_per_s").map_err(|e| format!("cells[{i}]: {e}"))?,
                breakdown: get_breakdown(c).map_err(|e| format!("cells[{i}]: {e}"))?,
            });
        }
        Ok(BenchReport { schema_version, git_rev, workload, cells })
    }
}

/// Renders a breakdown map as a single-line JSON object in stable
/// (BTreeMap) key order.
fn render_breakdown(breakdown: &BTreeMap<String, u64>) -> String {
    let mut out = String::from("{");
    for (i, (category, cycles)) in breakdown.iter().enumerate() {
        if i != 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {cycles}", escape(category));
    }
    out.push('}');
    out
}

/// Parses the per-cell `breakdown` object (category → cycle counter).
fn get_breakdown(obj: &[(String, Json)]) -> Result<BTreeMap<String, u64>, String> {
    let fields = get(obj, "breakdown")?.as_obj().ok_or("field 'breakdown' must be an object")?;
    let mut out = BTreeMap::new();
    for (category, value) in fields {
        let cycles =
            value.as_u64().map_err(|why| format!("breakdown category '{category}' {why}"))?;
        out.insert(category.clone(), cycles);
    }
    Ok(out)
}

/// The report's cells as differential-profiler inputs.
#[must_use]
pub fn profiles(report: &BenchReport) -> Vec<CellProfile> {
    report.cells.iter().map(BenchCell::profile).collect()
}

/// Compares a fresh report against a baseline: the differential profile
/// of every cell's cycles and breakdown, which is empty exactly when the
/// two agree.
///
/// # Errors
///
/// A one-line reason, before any cell is compared, when the reports
/// differ in schema version, workload, or cell count: a grown or shrunk
/// grid fails by itself instead of passing on the cells both share.
pub fn compare(baseline: &BenchReport, fresh: &BenchReport) -> Result<ProfileDiff, String> {
    if baseline.schema_version != fresh.schema_version {
        return Err(format!(
            "schema_version mismatch: baseline {} vs fresh {}",
            baseline.schema_version, fresh.schema_version
        ));
    }
    if baseline.workload != fresh.workload {
        return Err(format!(
            "workload mismatch: baseline '{}' vs fresh '{}'",
            baseline.workload, fresh.workload
        ));
    }
    if baseline.cells.len() != fresh.cells.len() {
        return Err(format!(
            "cell count mismatch: baseline has {} cells, fresh run has {} — \
             the architecture grid changed; regenerate the committed baseline",
            baseline.cells.len(),
            fresh.cells.len()
        ));
    }
    Ok(ProfileDiff::compute(&profiles(baseline), &profiles(fresh)))
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a git checkout.
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| String::from("unknown"))
}

/// Escapes a string for JSON embedding (the bench and timeline artifact
/// writers and the serve job encoder call it under this name).
pub use triarch_simcore::metrics::escape_json as escape;

/// A parsed JSON value (the minimal subset the artifact needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escape sequences decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

/// The largest integer a JSON number — an IEEE-754 double — carries
/// exactly: 2^53 - 1. The text 2^53 + 1 parses to the same double as
/// 2^53, so a reader that accepted 2^53 could not tell which was sent.
pub const JSON_EXACT_MAX: u64 = (1 << 53) - 1;

impl Json {
    /// The value as an exact non-negative integer — the one integer
    /// reader every JSON decoder in the workspace goes through.
    ///
    /// # Errors
    ///
    /// A reason worded to follow a field name, for anything but a whole
    /// number in `0..=`[`JSON_EXACT_MAX`].
    pub fn as_u64(&self) -> Result<u64, &'static str> {
        match *self {
            Json::Num(n) if n > JSON_EXACT_MAX as f64 => {
                Err("exceeds 2^53 - 1, the largest integer a JSON number carries exactly")
            }
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
            _ => Err("must be a non-negative integer"),
        }
    }

    /// The value as an object's field list, or `None` for other kinds.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value as an array's items, or `None` for other kinds.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Looks up a required field of a decoded JSON object — the one field
/// lookup the typed readers below and [`get_opt`] build on.
///
/// # Errors
///
/// `missing field '{key}'`.
pub fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field '{key}'"))
}

/// Reads an optional field with one of the typed readers
/// ([`get_u64`], [`get_str`]): `Ok(None)` when the object has no `key`.
///
/// # Errors
///
/// The reader's error when the field is present but mistyped.
pub fn get_opt<T>(
    obj: &[(String, Json)],
    key: &str,
    read: impl FnOnce(&[(String, Json)], &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match get(obj, key) {
        Ok(_) => read(obj, key).map(Some),
        Err(_) => Ok(None),
    }
}

/// Reads a required integer field through [`Json::as_u64`].
///
/// # Errors
///
/// A missing field, or `field '{key}'` and [`Json::as_u64`]'s reason.
pub fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64, String> {
    get(obj, key)?.as_u64().map_err(|why| format!("field '{key}' {why}"))
}

pub(crate) fn get_f64(obj: &[(String, Json)], key: &str) -> Result<f64, String> {
    match get(obj, key)? {
        Json::Num(n) => Ok(*n),
        _ => Err(format!("field '{key}' must be a number")),
    }
}

/// Reads a required string field.
///
/// # Errors
///
/// A missing field, or `field '{key}' must be a string`.
pub fn get_str(obj: &[(String, Json)], key: &str) -> Result<String, String> {
    match get(obj, key)? {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(format!("field '{key}' must be a string")),
    }
}

/// The deepest nesting of arrays and objects [`parse_json`] accepts. The
/// deepest document the workspace writes (the bench artifact) nests 4
/// levels; the limit keeps a hostile document from overflowing the
/// parser's stack.
pub const MAX_JSON_DEPTH: usize = 64;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns a one-line description with a byte offset for malformed
/// input, including arrays and objects nested deeper than
/// [`MAX_JSON_DEPTH`].
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut pos = 0usize;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    let open = bytes.get(*pos);
    if matches!(open, Some(b'{' | b'[')) && depth == MAX_JSON_DEPTH {
        return Err(format!("nesting deeper than {MAX_JSON_DEPTH} levels at byte {}", *pos));
    }
    match open {
        Some(b'{') => parse_obj(text, pos, depth + 1),
        Some(b'[') => parse_arr(text, pos, depth + 1),
        Some(b'"') => parse_str(text, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
        None => Err(String::from("unexpected end of input")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

/// Parses a string literal in one pass: each run of plain characters up to
/// the next `"` or `\` is copied in one step. Both delimiters are ASCII,
/// so every run starts and ends on a character boundary of `text`.
fn parse_str(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let run = bytes[*pos..].iter().position(|&b| b == b'"' || b == b'\\');
        let Some(run) = run else { return Err(String::from("unterminated string")) };
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b't') => out.push('\t'),
            Some(b'r') => out.push('\r'),
            Some(b'u') => {
                let hex = bytes
                    .get(*pos + 1..*pos + 5)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                *pos += 4;
            }
            _ => return Err(format!("bad escape at byte {}", *pos)),
        }
        *pos += 1;
    }
}

fn parse_arr(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(text, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(text, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            git_rev: String::from("abc1234"),
            workload: String::from("paper"),
            cells: vec![
                BenchCell {
                    arch: String::from("VIRAM"),
                    kernel: String::from("Corner Turn"),
                    cycles: 554_432,
                    ops: 0,
                    mem_words: 2_097_152,
                    util: [0.484, 0.0, 0.0, 0.484],
                    gflops: 0.0,
                    gbytes_per_s: 3.1,
                    breakdown: [(String::from("memory"), 400_000), (String::from("dma"), 154_432)]
                        .into_iter()
                        .collect(),
                },
                BenchCell {
                    arch: String::from("Raw"),
                    kernel: String::from("CSLC"),
                    cycles: 1_000,
                    ops: 2_000,
                    mem_words: 3_000,
                    util: [0.1, 0.2, 0.3, 0.3],
                    gflops: 1.5,
                    gbytes_per_s: 0.5,
                    breakdown: [
                        (String::from("dram-port"), 600),
                        (String::from("tile-issue"), 400),
                    ]
                    .into_iter()
                    .collect(),
                },
            ],
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let report = sample();
        let text = report.render();
        let parsed = BenchReport::parse(&text).unwrap();
        assert_eq!(parsed, report);
        // Byte-stable: rendering the parse reproduces the text.
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn schema_violations_are_descriptive() {
        assert!(BenchReport::parse("not json").unwrap_err().contains("byte"));
        assert!(BenchReport::parse("[]").unwrap_err().contains("object"));
        let missing = r#"{"schema_version": 3}"#;
        assert!(BenchReport::parse(missing).unwrap_err().contains("git_rev"));
        let empty_cells = r#"{"schema_version": 3, "git_rev": "x", "workload": "paper",
            "cells": []}"#;
        assert!(BenchReport::parse(empty_cells).unwrap_err().contains("empty"));
        // A count no JSON number carries exactly is refused, not
        // saturated to u64::MAX.
        let huge = sample().render().replace("\"cycles\": 1000,", "\"cycles\": 1e300,");
        let err = BenchReport::parse(&huge).unwrap_err();
        assert!(err.contains("cells[1]: field 'cycles' exceeds 2^53 - 1"), "{err}");
    }

    /// A reader must refuse artifacts of any other schema rather than
    /// silently mis-reading fields it does not understand, and must name
    /// both the offending version and the one it accepts.
    #[test]
    fn future_and_zero_schema_versions_are_rejected() {
        let mut report = sample();
        report.schema_version = 99;
        let err = BenchReport::parse(&report.render()).unwrap_err();
        assert_eq!(err, "unsupported schema version 99 (this build reads version 3 only)");

        report.schema_version = 0;
        let err = BenchReport::parse(&report.render()).unwrap_err();
        assert!(err.contains("unsupported schema version 0"), "{err}");

        // The predecessor is refused by its version, before the host
        // fields it still carries are looked at.
        let v2 = report.render().replace(
            "\"schema_version\": 0,",
            "\"schema_version\": 2,\n  \"jobs\": 1,\n  \"wall_seconds\": 0.5,",
        );
        let err = BenchReport::parse(&v2).unwrap_err();
        assert_eq!(err, "unsupported schema version 2 (this build reads version 3 only)");

        report.schema_version = SCHEMA_VERSION;
        assert!(BenchReport::parse(&report.render()).is_ok());
    }

    /// A truncated artifact (interrupted write, partial download) must
    /// fail parsing with a positioned error, never yield a partial report.
    #[test]
    fn truncated_artifacts_are_rejected_with_a_positioned_error() {
        let text = sample().render();
        for cut in [text.len() / 4, text.len() / 2, text.len() - 2] {
            let err = BenchReport::parse(&text[..cut]).unwrap_err();
            assert!(
                err.contains("byte")
                    || err.contains("unexpected end")
                    || err.contains("unterminated")
                    || err.contains("expected"),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn compare_passes_identical_reports() {
        let report = sample();
        let diff = compare(&report, &report).unwrap();
        assert!(diff.is_empty());
        assert_eq!(diff.matched, 2);
    }

    #[test]
    fn compare_flags_any_cycle_drift() {
        let baseline = sample();
        let mut fresh = sample();
        fresh.cells[1].cycles += 1;
        let diff = compare(&baseline, &fresh).unwrap();
        assert_eq!(diff.cells.len(), 1);
        assert_eq!(diff.cells[0].label, "Raw/CSLC");
        assert_eq!(diff.cells[0].cycles_delta(), 1);
    }

    #[test]
    fn compare_names_the_regressed_category() {
        let baseline = sample();
        let mut fresh = sample();
        fresh.cells[1].cycles += 100;
        *fresh.cells[1].breakdown.get_mut("dram-port").unwrap() += 100;
        let text = compare(&baseline, &fresh).unwrap().render();
        assert!(text.contains("top movers: dram-port +100 (+16.67%)"), "{text}");

        // A pure improvement names the biggest dropper instead.
        let mut faster = sample();
        faster.cells[1].cycles -= 100;
        *faster.cells[1].breakdown.get_mut("dram-port").unwrap() -= 100;
        let text = compare(&baseline, &faster).unwrap().render();
        assert!(text.contains("biggest drop: dram-port -100 (-16.67%)"), "{text}");

        // Cycles moved between categories at an unchanged total still
        // differ, and the diff names both categories.
        let mut shuffled = sample();
        *shuffled.cells[1].breakdown.get_mut("dram-port").unwrap() -= 50;
        *shuffled.cells[1].breakdown.get_mut("tile-issue").unwrap() += 50;
        let diff = compare(&baseline, &shuffled).unwrap();
        let moved: Vec<&str> = diff.cells[0].categories.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(moved, ["tile-issue", "dram-port"]);
        assert_eq!(diff.cells[0].cycles_delta(), 0);
    }

    #[test]
    fn json_integers_are_exact_below_2_pow_53() {
        let read = |text: &str| parse_json(text).unwrap().as_u64();
        assert_eq!(read("9007199254740991"), Ok(JSON_EXACT_MAX));
        assert_eq!(read("0"), Ok(0));
        let exceeds = "exceeds 2^53 - 1, the largest integer a JSON number carries exactly";
        for text in ["9007199254740992", "9007199254740993", "1e300"] {
            assert_eq!(read(text), Err(exceeds), "{text}");
        }
        for text in ["-1", "1.5", "\"7\"", "true", "null"] {
            assert_eq!(read(text), Err("must be a non-negative integer"), "{text}");
        }
    }

    #[test]
    fn breakdown_schema_is_strict() {
        let report = sample();
        let text = report.render().replace("\"dram-port\": 600", "\"dram-port\": -1");
        assert!(BenchReport::parse(&text).unwrap_err().contains("dram-port"));
        let text = report
            .render()
            .replace(", \"breakdown\": {\"dram-port\": 600, \"tile-issue\": 400}", "");
        assert!(BenchReport::parse(&text).unwrap_err().contains("breakdown"));
    }

    #[test]
    fn profiles_carry_the_breakdown() {
        let report = sample();
        let cells = profiles(&report);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].label(), "VIRAM/Corner Turn");
        assert_eq!(cells[0].categories.get("memory"), Some(&400_000));
        assert!(ProfileDiff::compute(&cells, &cells).is_empty());
    }

    #[test]
    fn compare_flags_missing_and_extra_cells_and_workload() {
        let baseline = sample();
        let mut renamed = sample();
        renamed.cells[0].arch = String::from("X");
        let diff = compare(&baseline, &renamed).unwrap();
        assert_eq!(diff.only_in_a, ["VIRAM/Corner Turn"]);
        assert_eq!(diff.only_in_b, ["X/Corner Turn"]);
        assert!(!diff.is_empty());

        let mut small = sample();
        small.workload = String::from("small");
        assert!(compare(&baseline, &small).unwrap_err().contains("workload mismatch"));
    }

    /// Growing the architecture grid (e.g. adding a machine row) must
    /// trip the gate with an explicit count mismatch — never pass
    /// silently on the intersection of cells both reports happen to
    /// share.
    #[test]
    fn compare_fails_loudly_on_cell_count_mismatch() {
        let baseline = sample();
        let mut grown = sample();
        grown.cells.push(BenchCell { arch: String::from("DPU"), ..sample().cells[1].clone() });
        assert_eq!(
            compare(&baseline, &grown).unwrap_err(),
            "cell count mismatch: baseline has 2 cells, fresh run has 3 — \
             the architecture grid changed; regenerate the committed baseline",
        );
        // The count gate is symmetric: a shrunk fresh run trips it too.
        let mut shrunk = sample();
        shrunk.cells.remove(0);
        let err = compare(&baseline, &shrunk).unwrap_err();
        assert!(err.contains("cell count mismatch"), "{err}");
    }

    #[test]
    fn git_rev_is_not_gated() {
        let baseline = sample();
        let mut fresh = sample();
        fresh.git_rev = String::from("deadbee");
        assert!(compare(&baseline, &fresh).unwrap().is_empty());
    }

    #[test]
    fn escape_round_trips_through_parse_json() {
        // The shared escaper writes tab and CR as `\t` and `\r`; the
        // parser must read every form it writes back to the same string.
        let every_control: String = (0u8..0x20).chain([0x7f]).map(char::from).collect();
        for s in ["plain", "q\"b\\s/", "n\nt\tr\r", "µ-arch ✓", "", &every_control] {
            let doc = format!("\"{}\"", escape(s));
            assert_eq!(parse_json(&doc).unwrap(), Json::Str(String::from(s)), "{doc}");
        }
    }

    #[test]
    fn json_nesting_is_limited_to_max_depth() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"k\": [", "]}")] {
            let levels = if open == "[" { 1 } else { 2 };
            let at_limit = nested(open, close, MAX_JSON_DEPTH / levels);
            assert!(parse_json(&at_limit).is_ok(), "{open}: {MAX_JSON_DEPTH} levels");
        }
        let over = nested("[", "]", MAX_JSON_DEPTH + 1);
        assert_eq!(
            parse_json(&over),
            Err(format!("nesting deeper than {MAX_JSON_DEPTH} levels at byte {MAX_JSON_DEPTH}"))
        );
        let over = format!("{{\"a\": {}}}", nested("{\"b\": ", "}", MAX_JSON_DEPTH));
        let err = parse_json(&over).unwrap_err();
        assert!(err.starts_with("nesting deeper than 64 levels at byte "), "{err}");
        // A hostile depth is refused at the limit, long before the stack.
        let hostile = nested("[", "]", 20_000);
        assert!(parse_json(&hostile).unwrap_err().ends_with(&format!("byte {MAX_JSON_DEPTH}")));
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        let long = "x".repeat(8 << 20);
        let doc = format!("{{\"s\": \"{long}\"}}");
        let parsed = parse_json(&doc).unwrap();
        assert_eq!(parsed.as_obj().unwrap()[0].1, Json::Str(long));
    }

    #[test]
    fn strings_mixing_escapes_and_multibyte_characters_round_trip() {
        let mixed = "µ\"✓\\\n€\t𝄞\u{1}é/\r\u{7f}ß".repeat(3);
        let doc = format!("[\"{}\", \"{}\"]", escape(&mixed), escape("a\u{0}😀"));
        let parsed = parse_json(&doc).unwrap();
        assert_eq!(parsed.as_arr().unwrap()[0], Json::Str(mixed));
        assert_eq!(parsed.as_arr().unwrap()[1], Json::Str(String::from("a\u{0}😀")));
        // Escapes the writer never emits still decode, between multi-byte
        // runs.
        assert_eq!(parse_json("\"é\\u00e9\\/ü\""), Ok(Json::Str(String::from("éé/ü"))));
        assert!(parse_json("\"µ\\q\"").unwrap_err().starts_with("bad escape at byte"));
        assert_eq!(parse_json("\"µ✓"), Err(String::from("unterminated string")));
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a": [1, 2.5, true, null, "x\nyA"], "b": {}}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj.len(), 2);
        let arr = obj[0].1.as_arr().unwrap();
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[4], Json::Str(String::from("x\nyA")));
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("[1] extra").is_err());
    }
}
