//! Typed batch-driver dispatch: one job vocabulary shared by the `repro`
//! CLI and the `triarch-serve` daemon.
//!
//! A [`JobSpec`] names one deterministic unit of campaign work — which
//! driver to run ([`DriverKind`]), on which workload set
//! ([`WorkloadKind`]), plus the driver-specific knobs (fault seed,
//! campaign count, grid cell, profdiff artifacts). Because every
//! simulator in the workspace is a pure function of its inputs, a
//! `JobSpec` fully determines the produced [`Artifact`]: two specs with
//! the same [canonical form](JobSpec::canonical) yield byte-identical
//! bodies. That property is what makes the serve daemon's
//! content-addressed result cache trivially correct — the cache key is
//! just [`JobSpec::key`], the FNV-1a hash of the canonical form.
//!
//! The renderers here ([`table3_text`], [`faultsweep_text`],
//! [`dse_text`]) are the *single* source of each driver's textual
//! artifact: `repro` prints them to stdout and [`run_job`] returns the
//! same bytes over the wire, so a served response can be diffed against
//! one-shot CLI output byte-for-byte.
//!
//! The wire encoding ([`JobSpec::to_json`] / [`JobSpec::from_json`]) is
//! schema-versioned ([`JOB_SCHEMA_VERSION`]) and rides the workspace's
//! hand-rolled JSON reader/writer from [`crate::benchjson`]; decode
//! failures surface as [`SimError::Protocol`].

use std::fmt::Write as _;
use std::sync::OnceLock;

use triarch_kernels::{Kernel, RunCtx, WorkloadSet};
use triarch_profile::{fnv1a64, FoldSink, ProfileDiff};
use triarch_simcore::metrics::MetricsReport;
use triarch_simcore::SimError;

use crate::arch::{Architecture, MachineSpec};
use crate::benchjson::{self, escape, parse_json, BenchReport, JSON_EXACT_MAX};
use crate::experiments::{self, Table3};
use crate::htmlreport::{self, FoldedCell};
use crate::roofline::Scorecard;
use crate::{dse, faultsweep};

/// Version stamp of the [`JobSpec`] wire encoding.
pub const JOB_SCHEMA_VERSION: u64 = 1;

/// Workload-construction seed (re-exported as `triarch_bench::SEED`), so a
/// served artifact matches one-shot `repro` output byte-for-byte.
pub const WORKLOAD_SEED: u64 = 42;

/// Default fault-sweep seed (`repro --seed`).
pub const DEFAULT_SEED: u64 = 42;

/// Default fault-injection campaigns per grid cell (`repro --campaigns`).
pub const DEFAULT_CAMPAIGNS: u64 = 8;

/// The batch drivers a job can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriverKind {
    /// The Table 3 grid: measured kilocycles plus the vs-published table.
    Table3,
    /// The design-space exploration sweep and §4 attribution findings.
    Dse,
    /// The seeded fault-injection sweep outcome table.
    Faultsweep,
    /// The combined hardware-counter dump in Prometheus exposition format
    /// (deterministic counters only — no host self-profiling gauges).
    Metrics,
    /// The self-contained HTML attribution report.
    Report,
    /// One grid cell's collapsed-stack flamegraph profile.
    Flame,
    /// A differential profile of two bench artifacts.
    Profdiff,
}

impl DriverKind {
    /// Every driver in wire-name order.
    pub const ALL: [DriverKind; 7] = [
        DriverKind::Table3,
        DriverKind::Dse,
        DriverKind::Faultsweep,
        DriverKind::Metrics,
        DriverKind::Report,
        DriverKind::Flame,
        DriverKind::Profdiff,
    ];

    /// The driver's wire name (matches the `repro` selector).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DriverKind::Table3 => "table3",
            DriverKind::Dse => "dse",
            DriverKind::Faultsweep => "faultsweep",
            DriverKind::Metrics => "metrics",
            DriverKind::Report => "report",
            DriverKind::Flame => "flame",
            DriverKind::Profdiff => "profdiff",
        }
    }

    /// Parses a wire name back into the driver (case-insensitive).
    #[must_use]
    pub fn from_name(name: &str) -> Option<DriverKind> {
        DriverKind::ALL.into_iter().find(|d| d.name().eq_ignore_ascii_case(name))
    }
}

/// Which workload set a job runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// The paper-sized set (`WorkloadSet::paper`).
    Paper,
    /// The reduced set for fast smoke runs (`WorkloadSet::small`).
    Small,
}

impl WorkloadKind {
    /// The workload kind's wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Paper => "paper",
            WorkloadKind::Small => "small",
        }
    }

    /// Parses a wire name back into the workload kind (case-insensitive).
    #[must_use]
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        [WorkloadKind::Paper, WorkloadKind::Small]
            .into_iter()
            .find(|w| w.name().eq_ignore_ascii_case(name))
    }
}

/// The named workload set, built with the shared [`WORKLOAD_SEED`] on
/// first use and kept for the life of the process. Every job, daemon miss
/// and `repro` selector of one kind shares the set, so each workload's
/// golden output is computed at most once per process. Memory stays
/// bounded: there are two kinds and one seed.
///
/// # Errors
///
/// Never fails for the built-in parameters; the `Result` mirrors the
/// workload constructors.
pub fn workloads(kind: WorkloadKind) -> Result<&'static WorkloadSet, SimError> {
    static PAPER: OnceLock<Result<WorkloadSet, SimError>> = OnceLock::new();
    static SMALL: OnceLock<Result<WorkloadSet, SimError>> = OnceLock::new();
    let set = match kind {
        WorkloadKind::Paper => PAPER.get_or_init(|| WorkloadSet::paper(WORKLOAD_SEED)),
        WorkloadKind::Small => SMALL.get_or_init(|| WorkloadSet::small(WORKLOAD_SEED)),
    };
    set.as_ref().map_err(SimError::clone)
}

/// Lowercases a display name into a file-name slug (`"Corner Turn"` →
/// `"corner-turn"`).
#[must_use]
pub fn slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect()
}

/// The `<arch>-<kernel>` file-name base for a grid cell.
#[must_use]
pub fn cell_slug(arch: Architecture, kernel: Kernel) -> String {
    format!("{}-{}", slug(arch.name()), slug(kernel.name()))
}

/// The architecture-set token baked into every grid driver's canonical
/// form: the lowercased row names in grid order. Adding a machine row
/// (as the cross-era DPU row did) changes every grid artifact, so the
/// token keeps a new build's requests from ever aliasing a cache entry
/// produced by an older, smaller grid.
#[must_use]
pub fn arch_set() -> String {
    Architecture::ALL.map(|a| slug(a.name())).join("+")
}

/// One fully-specified, deterministic unit of campaign work.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Which batch driver to run.
    pub driver: DriverKind,
    /// Which workload set to run it against (ignored by `profdiff`).
    pub workload: WorkloadKind,
    /// Fault-sweep seed (meaningful for `faultsweep` and `report`).
    pub seed: u64,
    /// Fault campaigns per cell (meaningful for `faultsweep` and
    /// `report`).
    pub campaigns: u64,
    /// The grid cell (required by `flame`, rejected elsewhere).
    pub cell: Option<(Architecture, Kernel)>,
    /// The two bench-artifact texts (required by `profdiff`, rejected
    /// elsewhere). Contents travel inline so the server never touches
    /// client paths.
    pub artifacts: Option<(String, String)>,
}

impl JobSpec {
    /// A spec for `driver` with every knob at its default.
    #[must_use]
    pub fn new(driver: DriverKind, workload: WorkloadKind) -> JobSpec {
        JobSpec {
            driver,
            workload,
            seed: DEFAULT_SEED,
            campaigns: DEFAULT_CAMPAIGNS,
            cell: None,
            artifacts: None,
        }
    }

    /// Checks driver-specific argument requirements.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when a required argument is missing
    /// (`flame` without a cell, `profdiff` without artifacts), when an
    /// argument is supplied to a driver that does not take it, when
    /// `campaigns` is zero, or when `seed` or `campaigns` exceeds
    /// [`JSON_EXACT_MAX`] (2^53 - 1) and so cannot cross the wire
    /// exactly: a seed and a campaign count travel as JSON numbers, so a
    /// larger one would reach the daemon rounded — a different job.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.campaigns == 0 {
            return Err(SimError::protocol("campaigns must be at least 1"));
        }
        for (name, value) in [("seed", self.seed), ("campaigns", self.campaigns)] {
            if value > JSON_EXACT_MAX {
                return Err(SimError::protocol(format!(
                    "{name} {value} exceeds 2^53 - 1, the largest integer a JSON number carries \
                     exactly"
                )));
            }
        }
        if self.driver == DriverKind::Flame && self.cell.is_none() {
            return Err(SimError::protocol("flame jobs require an arch and a kernel"));
        }
        if self.driver != DriverKind::Flame && self.cell.is_some() {
            return Err(SimError::protocol(format!(
                "driver '{}' does not take a grid cell",
                self.driver.name()
            )));
        }
        if self.driver == DriverKind::Profdiff && self.artifacts.is_none() {
            return Err(SimError::protocol("profdiff jobs require two bench artifacts"));
        }
        if self.driver != DriverKind::Profdiff && self.artifacts.is_some() {
            return Err(SimError::protocol(format!(
                "driver '{}' does not take bench artifacts",
                self.driver.name()
            )));
        }
        Ok(())
    }

    /// The spec's canonical form: a stable one-line string carrying
    /// exactly the inputs the driver's output depends on — knobs a
    /// driver ignores are omitted, so equivalent requests collapse onto
    /// one cache entry. Artifact contents are represented by their
    /// FNV-1a hashes to keep the key short.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut out = format!("triarch-job v{JOB_SCHEMA_VERSION} driver={}", self.driver.name());
        match self.driver {
            DriverKind::Table3 | DriverKind::Dse | DriverKind::Metrics => {
                let _ = write!(out, " workload={} archs={}", self.workload.name(), arch_set());
            }
            DriverKind::Faultsweep | DriverKind::Report => {
                let _ = write!(
                    out,
                    " workload={} seed={} campaigns={} archs={}",
                    self.workload.name(),
                    self.seed,
                    self.campaigns,
                    arch_set()
                );
            }
            DriverKind::Flame => {
                let (a, k) = self.cell.unwrap_or((Architecture::Ppc, Kernel::CornerTurn));
                let _ = write!(out, " workload={} cell={}", self.workload.name(), cell_slug(a, k));
            }
            DriverKind::Profdiff => {
                let (a, b) = self.artifacts.as_ref().map_or(("", ""), |(a, b)| (&**a, &**b));
                let _ = write!(
                    out,
                    " a={:016x} b={:016x}",
                    fnv1a64(a.as_bytes()),
                    fnv1a64(b.as_bytes())
                );
            }
        }
        out
    }

    /// The spec's content-address: the FNV-1a hash of its canonical
    /// form. The serve daemon's cache key.
    #[must_use]
    pub fn key(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }

    /// Encodes the spec as a one-object JSON document (the wire request
    /// body). Knobs a driver ignores are omitted, mirroring
    /// [`canonical`](JobSpec::canonical).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out =
            format!("{{\"schema\": {JOB_SCHEMA_VERSION}, \"driver\": \"{}\"", self.driver.name());
        if self.driver != DriverKind::Profdiff {
            let _ = write!(out, ", \"workload\": \"{}\"", self.workload.name());
        }
        if matches!(self.driver, DriverKind::Faultsweep | DriverKind::Report) {
            let _ = write!(out, ", \"seed\": {}, \"campaigns\": {}", self.seed, self.campaigns);
        }
        if let Some((arch, kernel)) = self.cell {
            let _ = write!(
                out,
                ", \"arch\": \"{}\", \"kernel\": \"{}\"",
                escape(arch.name()),
                escape(kernel.name())
            );
        }
        if let Some((a, b)) = &self.artifacts {
            let _ = write!(
                out,
                ", \"artifact_a\": \"{}\", \"artifact_b\": \"{}\"",
                escape(a),
                escape(b)
            );
        }
        out.push('}');
        out
    }

    /// Decodes a wire request body back into a validated spec.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for malformed JSON, an unsupported
    /// `schema`, an unknown driver / workload / arch / kernel name, or a
    /// spec that fails [`validate`](JobSpec::validate).
    pub fn from_json(text: &str) -> Result<JobSpec, SimError> {
        let job_body = |e: String| SimError::protocol(format!("job body: {e}"));
        let root = parse_json(text).map_err(job_body)?;
        let obj =
            root.as_obj().ok_or_else(|| SimError::protocol("job body must be a JSON object"))?;
        let text_field =
            |key: &str| benchjson::get_opt(obj, key, benchjson::get_str).map_err(job_body);
        let int_field =
            |key: &str| benchjson::get_opt(obj, key, benchjson::get_u64).map_err(job_body);
        let schema = benchjson::get_u64(obj, "schema").map_err(job_body)?;
        if schema != JOB_SCHEMA_VERSION {
            return Err(SimError::protocol(format!(
                "unsupported job schema version {schema} (this build speaks {JOB_SCHEMA_VERSION})"
            )));
        }
        let driver_name = benchjson::get_str(obj, "driver").map_err(job_body)?;
        let driver = DriverKind::from_name(&driver_name).ok_or_else(|| {
            SimError::protocol(format!(
                "unknown driver '{driver_name}' (expected one of: {})",
                DriverKind::ALL.map(DriverKind::name).join(" ")
            ))
        })?;
        let workload = match text_field("workload")? {
            Some(name) => WorkloadKind::from_name(&name).ok_or_else(|| {
                SimError::protocol(format!(
                    "unknown workload '{name}' (expected 'paper' or 'small')"
                ))
            })?,
            None => WorkloadKind::Paper,
        };
        let cell = match (text_field("arch")?, text_field("kernel")?) {
            (Some(a), Some(k)) => {
                let arch = Architecture::from_name(&a).ok_or_else(|| {
                    SimError::protocol(format!(
                        "unknown arch '{a}' (expected one of: {})",
                        Architecture::ALL.map(Architecture::name).join(" ")
                    ))
                })?;
                let kernel = Kernel::from_name(&k).ok_or_else(|| {
                    SimError::protocol(format!(
                        "unknown kernel '{k}' (expected one of: {})",
                        Kernel::ALL.map(Kernel::name).join(", ")
                    ))
                })?;
                Some((arch, kernel))
            }
            (None, None) => None,
            _ => {
                return Err(SimError::protocol(
                    "job body: 'arch' and 'kernel' must be supplied together",
                ));
            }
        };
        let artifacts = match (text_field("artifact_a")?, text_field("artifact_b")?) {
            (Some(a), Some(b)) => Some((a, b)),
            (None, None) => None,
            _ => {
                return Err(SimError::protocol(
                    "job body: 'artifact_a' and 'artifact_b' must be supplied together",
                ));
            }
        };
        let spec = JobSpec {
            driver,
            workload,
            seed: int_field("seed")?.unwrap_or(DEFAULT_SEED),
            campaigns: int_field("campaigns")?.unwrap_or(DEFAULT_CAMPAIGNS),
            cell,
            artifacts,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// A finished job's product: the bytes plus a coarse media type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// `"text/plain"`, `"text/html"`, or Prometheus exposition
    /// `"text/plain; version=0.0.4"`.
    pub content_type: String,
    /// The artifact body. Byte-identical for equal [`JobSpec::key`]s.
    pub body: String,
}

impl Artifact {
    fn text(body: String) -> Artifact {
        Artifact { content_type: String::from("text/plain"), body }
    }
}

/// The Table 3 stdout block, exactly as `repro table3` prints it.
#[must_use]
pub fn table3_text(table3: &Table3) -> String {
    format!(
        "== Table 3: experimental results (kilocycles) ==\n{}\n\
         == Table 3 vs published ==\n{}\n",
        table3.render(),
        table3.render_vs_paper()
    )
}

/// The fault-sweep stdout block, exactly as `repro faultsweep` prints it.
#[must_use]
pub fn faultsweep_text(table: &faultsweep::SweepTable) -> String {
    format!("== Fault-injection sweep ==\n{}\n", table.render())
}

/// The DSE stdout block, exactly as `repro dse` prints it.
#[must_use]
pub fn dse_text(report: &dse::DseReport) -> String {
    format!(
        "== Design-space exploration ==\n{}\n\
         == Section 4 attribution findings ==\n{}\n",
        report.render(),
        report.render_findings()
    )
}

/// Rebuilds a [`Table3`] from already-simulated folded cells.
#[must_use]
pub fn table_from_folds(folds: &[FoldedCell]) -> Table3 {
    Table3::from_runs(folds.iter().map(|c| ((c.arch, c.kernel), c.run.clone())).collect())
}

/// The combined deterministic hardware-counter dump for a simulated
/// grid, in Prometheus exposition format. Unlike `repro metrics`'s
/// `metrics.prom` file this carries no `host.*` self-profiling gauges,
/// so the bytes are a pure function of the workload set.
#[must_use]
pub fn metrics_prom(folds: &[FoldedCell], scorecard: &Scorecard) -> String {
    let mut combined = MetricsReport::new();
    for cell in folds {
        let mut report = cell.run.metrics.clone();
        scorecard.cell(cell.arch, cell.kernel).export_metrics(&mut report);
        let base = cell_slug(cell.arch, cell.kernel);
        for (name, metric) in report.iter() {
            combined.set(&format!("{base}.{name}"), metric.clone());
        }
    }
    combined.render_prometheus()
}

/// Builds the HTML attribution report for a workload set — the same
/// bytes `repro report` writes to `report.html`.
///
/// # Errors
///
/// Propagates simulation errors from the grid, scorecard, and sweep.
pub fn report_html(
    workloads: &WorkloadSet,
    kind: WorkloadKind,
    seed: u64,
    campaigns: u64,
    jobs: usize,
) -> Result<String, SimError> {
    let (folds, _) = htmlreport::collect_folds_jobs(workloads, jobs)?;
    let table3 = table_from_folds(&folds);
    let scorecard = Scorecard::compute(&table3, workloads)?;
    let (sweep, _) = faultsweep::sweep_jobs(workloads, seed, campaigns, jobs)?;
    let inputs = htmlreport::ReportInputs {
        table3: &table3,
        scorecard: &scorecard,
        sweep: &sweep,
        folds: &folds,
        workloads,
        workload_kind: kind.name(),
    };
    htmlreport::render(&inputs)
}

/// Runs a validated job to completion, fanning heavy grids out over
/// `jobs` pool workers. Deterministic: the artifact bytes depend only on
/// the spec, never on `jobs` or scheduling.
///
/// # Errors
///
/// [`SimError::Protocol`] for a spec that fails validation or carries
/// unparsable profdiff artifacts; otherwise propagates simulation
/// errors.
pub fn run_job(spec: &JobSpec, jobs: usize) -> Result<Artifact, SimError> {
    spec.validate()?;
    match spec.driver {
        DriverKind::Table3 => {
            let w = workloads(spec.workload)?;
            let (table3, _) = experiments::table3_jobs(w, jobs)?;
            Ok(Artifact::text(table3_text(&table3)))
        }
        DriverKind::Dse => {
            let w = workloads(spec.workload)?;
            let (report, _) = dse::sweep(w, jobs)?;
            Ok(Artifact::text(dse_text(&report)))
        }
        DriverKind::Faultsweep => {
            let w = workloads(spec.workload)?;
            let (table, _) = faultsweep::sweep_jobs(w, spec.seed, spec.campaigns, jobs)?;
            Ok(Artifact::text(faultsweep_text(&table)))
        }
        DriverKind::Metrics => {
            let w = workloads(spec.workload)?;
            let (folds, _) = htmlreport::collect_folds_jobs(w, jobs)?;
            let table3 = table_from_folds(&folds);
            let scorecard = Scorecard::compute(&table3, w)?;
            Ok(Artifact {
                content_type: String::from("text/plain; version=0.0.4"),
                body: metrics_prom(&folds, &scorecard),
            })
        }
        DriverKind::Report => {
            let w = workloads(spec.workload)?;
            let body = report_html(w, spec.workload, spec.seed, spec.campaigns, jobs)?;
            Ok(Artifact { content_type: String::from("text/html"), body })
        }
        DriverKind::Flame => {
            let (arch, kernel) = spec
                .cell
                .ok_or_else(|| SimError::protocol("flame jobs require an arch and a kernel"))?;
            let w = workloads(spec.workload)?;
            let mut sink = FoldSink::new();
            let ctx = RunCtx { sink: Some(&mut sink), ..RunCtx::default() };
            MachineSpec::Paper(arch).run_cell(kernel, w, ctx)?;
            Ok(Artifact::text(sink.into_fold().render_collapsed(arch.name(), kernel.name())))
        }
        DriverKind::Profdiff => {
            let (a_text, b_text) = spec
                .artifacts
                .as_ref()
                .ok_or_else(|| SimError::protocol("profdiff jobs require two bench artifacts"))?;
            let a = BenchReport::parse(a_text)
                .map_err(|e| SimError::protocol(format!("artifact a: {e}")))?;
            let b = BenchReport::parse(b_text)
                .map_err(|e| SimError::protocol(format!("artifact b: {e}")))?;
            let diff = ProfileDiff::compute(&benchjson::profiles(&a), &benchjson::profiles(&b));
            Ok(Artifact::text(format!("== Differential profile ==\n{}\n", diff.render())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_and_workload_names_round_trip() {
        for d in DriverKind::ALL {
            assert_eq!(DriverKind::from_name(d.name()), Some(d));
        }
        assert_eq!(DriverKind::from_name("TABLE3"), Some(DriverKind::Table3));
        assert!(DriverKind::from_name("table9").is_none());
        for w in [WorkloadKind::Paper, WorkloadKind::Small] {
            assert_eq!(WorkloadKind::from_name(w.name()), Some(w));
        }
        assert!(WorkloadKind::from_name("medium").is_none());
    }

    #[test]
    fn canonical_forms_are_stable_and_driver_scoped() {
        let spec = JobSpec::new(DriverKind::Table3, WorkloadKind::Paper);
        assert_eq!(
            spec.canonical(),
            "triarch-job v1 driver=table3 workload=paper \
             archs=ppc+altivec+viram+imagine+raw+dpu"
        );

        // Seed/campaigns are irrelevant to table3, so changing them must
        // not change the cache key.
        let mut tweaked = spec.clone();
        tweaked.seed = 7;
        tweaked.campaigns = 99;
        assert_eq!(tweaked.key(), spec.key());

        // ... but they are load-bearing for the fault sweep.
        let sweep = JobSpec::new(DriverKind::Faultsweep, WorkloadKind::Small);
        let mut reseeded = sweep.clone();
        reseeded.seed = 7;
        assert_eq!(
            sweep.canonical(),
            "triarch-job v1 driver=faultsweep workload=small seed=42 campaigns=8 \
             archs=ppc+altivec+viram+imagine+raw+dpu"
        );
        assert_ne!(reseeded.key(), sweep.key());

        let mut flame = JobSpec::new(DriverKind::Flame, WorkloadKind::Paper);
        flame.cell = Some((Architecture::Viram, Kernel::CornerTurn));
        assert_eq!(
            flame.canonical(),
            "triarch-job v1 driver=flame workload=paper cell=viram-corner-turn"
        );
    }

    #[test]
    fn json_round_trips_every_driver() {
        let mut specs = vec![
            JobSpec::new(DriverKind::Table3, WorkloadKind::Paper),
            JobSpec::new(DriverKind::Dse, WorkloadKind::Small),
            JobSpec::new(DriverKind::Metrics, WorkloadKind::Small),
            JobSpec::new(DriverKind::Report, WorkloadKind::Small),
        ];
        let mut sweep = JobSpec::new(DriverKind::Faultsweep, WorkloadKind::Small);
        sweep.seed = 7;
        sweep.campaigns = 3;
        specs.push(sweep);
        let mut flame = JobSpec::new(DriverKind::Flame, WorkloadKind::Paper);
        flame.cell = Some((Architecture::Raw, Kernel::BeamSteering));
        specs.push(flame);
        let mut diff = JobSpec::new(DriverKind::Profdiff, WorkloadKind::Paper);
        diff.artifacts = Some((String::from("{\"a\": 1}\n"), String::from("b \"quoted\"")));
        specs.push(diff);

        for spec in specs {
            let decoded = JobSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(decoded, spec, "{}", spec.to_json());
            assert_eq!(decoded.key(), spec.key());
        }
    }

    #[test]
    fn seeds_and_campaigns_round_trip_up_to_2_pow_53_and_are_refused_above() {
        let max = JobSpec {
            seed: JSON_EXACT_MAX,
            campaigns: JSON_EXACT_MAX,
            ..JobSpec::new(DriverKind::Faultsweep, WorkloadKind::Small)
        };
        assert_eq!(JobSpec::from_json(&max.to_json()).unwrap(), max);
        for value in [JSON_EXACT_MAX + 1, u64::MAX - 1] {
            for spec in [
                JobSpec { seed: value, ..max.clone() },
                JobSpec { campaigns: value, ..max.clone() },
            ] {
                let err = spec.validate().unwrap_err();
                assert!(matches!(err, SimError::Protocol { .. }), "{value}: {err}");
                assert!(err.to_string().contains("exceeds 2^53"), "{err}");
            }
        }
        // The decoder refuses a number it could only round, instead of
        // casting u64::MAX - 1 to u64::MAX.
        let body = max.to_json().replace(&JSON_EXACT_MAX.to_string(), &(u64::MAX - 1).to_string());
        let err = JobSpec::from_json(&body).unwrap_err();
        assert!(matches!(err, SimError::Protocol { .. }), "{err}");
        assert!(err.to_string().contains("field 'seed' exceeds 2^53"), "{err}");

        // 2^53 + 1 parses to the double 2^53: refused, not run as a job
        // with seed 2^53.
        let body = max.to_json().replace(&JSON_EXACT_MAX.to_string(), "9007199254740993");
        let err = JobSpec::from_json(&body).unwrap_err();
        assert!(matches!(err, SimError::Protocol { .. }), "{err}");
        assert!(err.to_string().contains("field 'seed' exceeds 2^53 - 1"), "{err}");
    }

    #[test]
    fn decode_rejects_malformed_requests() {
        let err = |text: &str| JobSpec::from_json(text).unwrap_err().to_string();
        assert!(err("not json").starts_with("protocol error:"), "{}", err("not json"));
        assert!(err("[]").contains("must be a JSON object"));
        assert!(err("{\"driver\": \"table3\"}").contains("missing field 'schema'"));
        assert!(err("{\"schema\": 9, \"driver\": \"table3\"}")
            .contains("unsupported job schema version 9"));
        assert!(err("{\"schema\": 1}").contains("missing field 'driver'"));
        assert!(err("{\"schema\": 1, \"driver\": \"frobnicate\"}").contains("unknown driver"));
        assert!(err("{\"schema\": 1, \"driver\": \"table3\", \"workload\": \"medium\"}")
            .contains("unknown workload"));
        assert!(err("{\"schema\": 1, \"driver\": \"flame\", \"workload\": \"paper\"}")
            .contains("flame jobs require"),);
        assert!(err("{\"schema\": 1, \"driver\": \"flame\", \"workload\": \"paper\", \
                 \"arch\": \"VIRAM\"}")
        .contains("supplied together"));
        assert!(err("{\"schema\": 1, \"driver\": \"flame\", \"workload\": \"paper\", \
                 \"arch\": \"VAX\", \"kernel\": \"Corner Turn\"}")
        .contains("unknown arch"));
        assert!(err("{\"schema\": 1, \"driver\": \"profdiff\"}").contains("profdiff jobs require"));
        assert!(err("{\"schema\": 1, \"driver\": \"table3\", \"workload\": \"paper\", \
                 \"arch\": \"Raw\", \"kernel\": \"CSLC\"}")
        .contains("does not take a grid cell"));
    }

    #[test]
    fn run_job_is_deterministic_and_matches_the_shared_renderer() {
        let spec = JobSpec::new(DriverKind::Table3, WorkloadKind::Small);
        let a = run_job(&spec, 1).unwrap();
        let b = run_job(&spec, 2).unwrap();
        assert_eq!(a, b, "artifact must not depend on worker count");
        let w = workloads(WorkloadKind::Small).unwrap();
        let (table3, _) = experiments::table3_jobs(w, 1).unwrap();
        assert_eq!(a.body, table3_text(&table3));
        assert_eq!(a.content_type, "text/plain");
    }

    #[test]
    fn each_workload_kind_is_built_once_per_process() {
        let small = workloads(WorkloadKind::Small).unwrap();
        assert!(std::ptr::eq(small, workloads(WorkloadKind::Small).unwrap()));
        let fresh = WorkloadSet::small(WORKLOAD_SEED).unwrap();
        assert_eq!(small.corner_turn, fresh.corner_turn);
        assert_eq!(small.beam_steering, fresh.beam_steering);
    }

    #[test]
    fn run_job_flame_produces_a_collapsed_stack() {
        let mut spec = JobSpec::new(DriverKind::Flame, WorkloadKind::Small);
        spec.cell = Some((Architecture::Viram, Kernel::CornerTurn));
        let artifact = run_job(&spec, 1).unwrap();
        assert!(artifact.body.starts_with("VIRAM;Corner-Turn;"), "{}", artifact.body);
    }

    #[test]
    fn run_job_profdiff_rejects_bad_artifacts() {
        let mut spec = JobSpec::new(DriverKind::Profdiff, WorkloadKind::Paper);
        spec.artifacts = Some((String::from("not json"), String::from("also not")));
        let err = run_job(&spec, 1).unwrap_err();
        assert!(matches!(err, SimError::Protocol { .. }), "{err}");
        assert!(err.to_string().contains("artifact a"), "{err}");
    }
}
