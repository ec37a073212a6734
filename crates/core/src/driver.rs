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
//! A [`Session`] renders every `repro` exhibit, each grid simulated at
//! most once per invocation, and [`run_job`] serves its jobs through the
//! same exhibits: a served body is byte-for-byte what `repro` prints
//! (table3, dse, faultsweep), writes (`report.html`, each `.folded`) or
//! writes less its `host.*` lines (`metrics.prom`); a served profdiff
//! differs only in the header line that names the two paths.
//!
//! The wire encoding ([`JobSpec::to_json`] / [`JobSpec::from_json`]) is
//! schema-versioned ([`JOB_SCHEMA_VERSION`]) and rides the workspace's
//! hand-rolled JSON reader/writer from [`crate::benchjson`]; decode
//! failures surface as [`SimError::Protocol`].

use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::OnceLock;

use triarch_kernels::{Kernel, RunCtx, WorkloadSet};
use triarch_profile::{flamegraph_svg, fnv1a64, FoldSink, HostProf, ProfileDiff, WindowDiff};
use triarch_simcore::metrics::{Metric, MetricsReport};
use triarch_simcore::trace::{export, RingSink, TeeSink};
use triarch_simcore::SimError;
use triarch_timeline::DEFAULT_WINDOW;

use crate::arch::{Architecture, MachineSpec};
use crate::benchjson::{
    self, escape, parse_json, BenchCell, BenchReport, JSON_EXACT_MAX, SCHEMA_VERSION,
};
use crate::chart::render_timeline_svg;
use crate::experiments::{self, Table3};
use crate::faultsweep::{self, SweepTable};
use crate::htmlreport::{self, FoldedCell};
use crate::parallel::PoolStats;
use crate::roofline::Scorecard;
use crate::timelinedoc::{parse_timeline_doc, render_timeline_json, TIMELINE_SCHEMA_VERSION};
use crate::{ablations, dse};

/// Version stamp of the [`JobSpec`] wire encoding.
pub const JOB_SCHEMA_VERSION: u64 = 1;

/// Workload-construction seed shared by `repro` and the daemon, so a
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

/// Rebuilds a [`Table3`] from already-simulated folded cells.
#[must_use]
pub fn table_from_folds(folds: &[FoldedCell]) -> Table3 {
    Table3::from_runs(folds.iter().map(|c| ((c.arch, c.kernel), c.run.clone())).collect())
}

/// What one `repro` selector produces: the block it prints on stdout and
/// the files it writes.
#[derive(Debug)]
pub struct Exhibit {
    /// The stdout block.
    pub stdout: String,
    /// `(path, contents)` of each file, in write order.
    pub files: Vec<(PathBuf, String)>,
}

impl Exhibit {
    fn text(stdout: String) -> Exhibit {
        Exhibit { stdout, files: Vec::new() }
    }

    /// A `== title ==` header over `body`.
    fn block(title: &str, body: impl fmt::Display) -> Exhibit {
        Exhibit::text(format!("== {title} ==\n{body}\n"))
    }
}

/// `table1`: the machines' peak throughput.
#[must_use]
pub fn table1() -> Exhibit {
    Exhibit::block("Table 1: peak throughput (32-bit words per cycle)", experiments::table1())
}

/// `table2`: the machines' parameters.
#[must_use]
pub fn table2() -> Exhibit {
    Exhibit::block("Table 2: processor parameters", experiments::table2())
}

/// The body of a differential profile of two bench artifacts, below the
/// header that names them. `names` label the artifacts in parse errors.
///
/// # Errors
///
/// A named message when either artifact does not parse.
pub fn profdiff_body(a: &str, b: &str, names: [&str; 2]) -> Result<String, String> {
    let parse =
        |text: &str, name: &str| BenchReport::parse(text).map_err(|e| format!("{name}: {e}"));
    let (a, b) = (parse(a, names[0])?, parse(b, names[1])?);
    let diff = ProfileDiff::compute(&benchjson::profiles(&a), &benchjson::profiles(&b));
    Ok(format!("{}\n", diff.render()))
}

/// The body of a window-by-window diff of two `timeline.json` artifacts,
/// below the header that names them. `names` label the artifacts in
/// parse errors.
///
/// # Errors
///
/// A named message when either artifact does not parse.
pub fn profdiff_windows_body(a: &str, b: &str, names: [&str; 2]) -> Result<String, String> {
    let parse =
        |text: &str, name: &str| parse_timeline_doc(text).map_err(|e| format!("{name}: {e}"));
    let (a, b) = (parse(a, names[0])?, parse(b, names[1])?);
    Ok(format!("{}\n", WindowDiff::compute(&a, &b).render()))
}

/// Events retained per trace file; older events are counted as dropped.
const RING_CAPACITY: usize = 1 << 18;

/// One invocation's exhibits over one workload set: the bytes `repro`
/// prints and writes, and the bodies [`run_job`] serves.
///
/// The plain grid, the traced grid (fold and timeline sinks) and the
/// fault sweep are each simulated at most once, on first use, and shared
/// by every exhibit that reads them. The plain grid is rebuilt from the
/// traced one when that exists, since both hold the same runs. Host wall
/// time goes into a [`HostProf`]; progress and pool lines go to `note`.
/// An exhibit returns the first simulation error it meets.
pub struct Session<'n> {
    kind: WorkloadKind,
    jobs: usize,
    window: u64,
    note: &'n mut dyn FnMut(&str),
    prof: HostProf,
    plain: Option<Rc<Table3>>,
    traced: Option<Rc<[FoldedCell]>>,
    sweep: Option<Rc<SweepTable>>,
}

impl<'n> Session<'n> {
    /// A session over the `kind` workload set on `jobs` pool workers,
    /// whose traced grid buckets timelines into `window`-cycle windows.
    /// Nothing is built or simulated until an exhibit needs it.
    pub fn new(
        kind: WorkloadKind,
        jobs: usize,
        window: u64,
        note: &'n mut dyn FnMut(&str),
    ) -> Session<'n> {
        Session {
            kind,
            jobs,
            window,
            note,
            prof: HostProf::new(),
            plain: None,
            traced: None,
            sweep: None,
        }
    }

    /// Ends the session, passing its host profile to `note` when it
    /// timed anything.
    pub fn finish(self) {
        if !self.prof.total_wall().is_zero() {
            (self.note)(&self.prof.render());
        }
    }

    /// Runs one pool batch over the workload set as host phase `phase`,
    /// announcing it as `what` and passing on its pool line.
    fn batch<T>(
        &mut self,
        phase: &str,
        what: &str,
        batch: impl FnOnce(&'static WorkloadSet, usize) -> Result<(T, PoolStats), SimError>,
    ) -> Result<T, SimError> {
        let w = workloads(self.kind)?;
        (self.note)(&format!("{what}, {} workloads ...", self.kind.name()));
        let jobs = self.jobs;
        let (out, stats) = self.prof.time_phase(phase, || batch(w, jobs))?;
        (self.note)(&stats.render());
        Ok(out)
    }

    fn plain_grid(&mut self) -> Result<Rc<Table3>, SimError> {
        if let Some(table) = &self.plain {
            return Ok(Rc::clone(table));
        }
        let table = match &self.traced {
            Some(folds) => table_from_folds(folds),
            None => {
                self.batch("plain-grid", "running the Table 3 grid", experiments::table3_jobs)?
            }
        };
        Ok(Rc::clone(self.plain.insert(Rc::new(table))))
    }

    fn traced_grid(&mut self) -> Result<Rc<[FoldedCell]>, SimError> {
        if let Some(folds) = &self.traced {
            return Ok(Rc::clone(folds));
        }
        let window = self.window;
        let folds = self.batch(
            "traced-grid",
            "tracing the grid through the fold and timeline sinks",
            |w, jobs| htmlreport::collect_folds_jobs_windowed(w, jobs, window),
        )?;
        for cell in &folds {
            let label = cell_slug(cell.arch, cell.kernel);
            self.prof.record_cell(&label, cell.wall, cell.run.cycles.get());
        }
        Ok(Rc::clone(self.traced.insert(folds.into())))
    }

    fn fault_sweep(&mut self, seed: u64, campaigns: u64) -> Result<Rc<SweepTable>, SimError> {
        if let Some(table) =
            self.sweep.as_ref().filter(|t| (t.seed, t.campaigns) == (seed, campaigns))
        {
            return Ok(Rc::clone(table));
        }
        let what = format!("running fault sweep: seed {seed}, {campaigns} campaigns");
        let table = self.batch("faultsweep", &what, |w, jobs| {
            faultsweep::sweep_jobs(w, seed, campaigns, jobs)
        })?;
        Ok(Rc::clone(self.sweep.insert(Rc::new(table))))
    }

    fn scorecard(&mut self) -> Result<Scorecard, SimError> {
        let table = self.plain_grid()?;
        let w = workloads(self.kind)?;
        self.prof.time_phase("scorecard", || Scorecard::compute(&table, w))
    }

    /// `table3`: measured kilocycles, and the same against the paper.
    pub fn table3(&mut self) -> Result<Exhibit, SimError> {
        let table = self.plain_grid()?;
        Ok(Exhibit::text(format!(
            "== Table 3: experimental results (kilocycles) ==\n{}\n\
             == Table 3 vs published ==\n{}\n",
            table.render(),
            table.render_vs_paper()
        )))
    }

    /// `table4`: the performance model's lower bounds.
    pub fn table4(&mut self) -> Result<Exhibit, SimError> {
        let table = experiments::table4(workloads(self.kind)?)?;
        Ok(Exhibit::block("Table 4: performance-model lower bounds (kilocycles)", table))
    }

    /// `figure8`: speedup over PPC+AltiVec in cycles.
    pub fn figure8(&mut self) -> Result<Exhibit, SimError> {
        let fig = experiments::figure8(&*self.plain_grid()?);
        let body = format!("{}\n{}", fig.render(), fig.render_chart(50));
        Ok(Exhibit::block("Figure 8: speedup over PPC+AltiVec (cycles)", body))
    }

    /// `figure9`: speedup over PPC+AltiVec in execution time.
    pub fn figure9(&mut self) -> Result<Exhibit, SimError> {
        let fig = experiments::figure9(&*self.plain_grid()?);
        let body = format!("{}\n{}", fig.render(), fig.render_chart(50));
        Ok(Exhibit::block("Figure 9: speedup over PPC+AltiVec (execution time)", body))
    }

    /// `breakdowns`: every cell's cycle breakdown (§4).
    pub fn breakdowns(&mut self) -> Result<Exhibit, SimError> {
        let body = self.plain_grid()?.render_breakdowns();
        Ok(Exhibit::block("Section 4 cycle breakdowns", body))
    }

    /// `altivec`: AltiVec's gain over scalar PPC per kernel (§4.5).
    pub fn altivec(&mut self) -> Result<Exhibit, SimError> {
        let table = self.plain_grid()?;
        let mut body = String::new();
        for kernel in Kernel::ALL {
            let gain = table.cycles(Architecture::Ppc, kernel).get() as f64
                / table.cycles(Architecture::Altivec, kernel).get() as f64;
            let _ = writeln!(body, "  {kernel}: {gain:.1}x");
        }
        Ok(Exhibit::block("Section 4.5: AltiVec gains over scalar PPC", body))
    }

    /// `claims`: the §4 claims scorecard.
    pub fn claims(&mut self) -> Result<Exhibit, SimError> {
        let claims = crate::claims::evaluate(&*self.plain_grid()?);
        Ok(Exhibit::block("Section 4 claims scorecard", crate::claims::render(&claims)))
    }

    /// `ablations`: the what-if studies.
    pub fn ablations(&mut self) -> Result<Exhibit, SimError> {
        let report =
            self.batch("ablations", "running the ablations", ablations::render_all_jobs)?;
        Ok(Exhibit::block("Ablations", report))
    }

    /// `trace`: every cell traced into a ring, written under `dir` as a
    /// Chrome `trace_event` JSON file and a CSV.
    pub fn trace(&mut self, dir: &Path) -> Result<Exhibit, SimError> {
        let w = workloads(self.kind)?;
        let mut out =
            Exhibit::text(format!("== Cycle-attribution traces ({}) ==\n", dir.display()));
        self.prof.time_phase("trace", || {
            for arch in Architecture::ALL {
                let mut machine = arch.machine()?;
                for kernel in Kernel::ALL {
                    let mut sink = TeeSink::new(RingSink::new(RING_CAPACITY), FoldSink::new());
                    let ctx = RunCtx { sink: Some(&mut sink), ..RunCtx::default() };
                    let run = machine.run_with(w.input(kernel), ctx)?;
                    let TeeSink { a: ring, b: fold } = sink;
                    let dropped = ring.dropped();
                    let events = ring.into_events();
                    let fold = fold.into_fold();
                    let base = cell_slug(arch, kernel);
                    let path = dir.join(format!("{base}.trace.json"));
                    out.files.push((path, export::chrome_trace_json(&events)));
                    out.files.push((dir.join(format!("{base}.csv")), export::csv(&events)));
                    // Trace-vs-breakdown agreement: counted spans must
                    // reproduce the engine's own tally.
                    let drift = run.breakdown_drift(fold.iter().map(|(c, _, cycles)| (c, cycles)));
                    let _ = writeln!(
                        out.stdout,
                        "  {base}: {} events ({dropped} dropped from ring), \
                         {} cycles, trace-vs-breakdown drift {drift}",
                        fold.events_observed(),
                        run.cycles.get(),
                    );
                }
            }
            Ok::<_, SimError>(())
        })?;
        out.stdout.push('\n');
        Ok(out)
    }

    /// `faultsweep`: the per-architecture outcome rates of `campaigns`
    /// seeded fault campaigns per cell.
    pub fn faultsweep(&mut self, seed: u64, campaigns: u64) -> Result<Exhibit, SimError> {
        let table = self.fault_sweep(seed, campaigns)?;
        Ok(Exhibit::block("Fault-injection sweep", table.render()))
    }

    /// `dse`: the design-space sensitivity tables and §4 findings.
    pub fn dse(&mut self) -> Result<Exhibit, SimError> {
        let what = format!(
            "running design-space sweep: {} design points x {} kernels",
            dse::points().len(),
            Kernel::ALL.len()
        );
        let report = self.batch("dse", &what, dse::sweep)?;
        Ok(Exhibit::text(format!(
            "== Design-space exploration ==\n{}\n== Section 4 attribution findings ==\n{}\n",
            report.render(),
            report.render_findings()
        )))
    }

    /// The combined deterministic hardware-counter dump in Prometheus
    /// exposition format: the `metrics.prom` that [`Session::metrics`]
    /// writes, without its `host.*` self-profiling gauges, so the bytes
    /// are a pure function of the workload set.
    pub fn metrics_prom(&mut self) -> Result<String, SimError> {
        let folds = self.traced_grid()?;
        let scorecard = self.scorecard()?;
        Ok(merged(&folds, &cell_counters(&folds, &scorecard)).render_prometheus())
    }

    /// `metrics`: each cell's counters and roofline utilizations as JSON
    /// under `dir`, and their combined dump `metrics.prom` with the
    /// session's `host.*` gauges merged in.
    pub fn metrics(&mut self, dir: &Path) -> Result<Exhibit, SimError> {
        let folds = self.traced_grid()?;
        let scorecard = self.scorecard()?;
        let reports = cell_counters(&folds, &scorecard);
        let mut out =
            Exhibit::text(format!("== Hardware-counter metrics ({}) ==\n", dir.display()));
        for (cell, report) in folds.iter().zip(&reports) {
            let base = cell_slug(cell.arch, cell.kernel);
            out.files.push((dir.join(format!("{base}.metrics.json")), report.render_json()));
            // Conservation law: the exported cycle-category counters must
            // re-add to the engine's breakdown and total cycle count.
            let engine = cell.arch.engine();
            let drift = cell.run.breakdown_drift(report.iter().filter_map(|(name, metric)| {
                let Metric::Counter(cycles) = metric else { return None };
                Some((name.strip_prefix(engine)?.strip_prefix(".cycles.")?, *cycles))
            }));
            let _ = writeln!(
                out.stdout,
                "  {base}: {} metrics, cycle conservation drift {drift}",
                report.len()
            );
        }
        let mut combined = merged(&folds, &reports);
        self.prof.export(&mut combined);
        out.files.push((dir.join("metrics.prom"), combined.render_prometheus()));
        let _ = write!(
            out.stdout,
            "  wrote {} per-cell JSON reports + metrics.prom\n\n\
             == Roofline utilization scorecard ==\n{}\n",
            folds.len(),
            scorecard.render()
        );
        Ok(out)
    }

    /// `flame`: each cell's collapsed-stack profile and SVG flamegraph
    /// under `dir`.
    pub fn flame(&mut self, dir: &Path) -> Result<Exhibit, SimError> {
        let folds = self.traced_grid()?;
        let mut out = Exhibit::text(format!("== Flamegraphs ({}) ==\n", dir.display()));
        for cell in folds.iter() {
            let (arch, kernel) = (cell.arch.name(), cell.kernel.name());
            let base = cell_slug(cell.arch, cell.kernel);
            let folded = cell.fold.render_collapsed(arch, kernel);
            out.files.push((dir.join(format!("{base}.folded")), folded));
            let svg = flamegraph_svg(arch, kernel, &cell.fold);
            out.files.push((dir.join(format!("{base}.svg")), svg));
            let _ = writeln!(
                out.stdout,
                "  {base}: {} cycles, fold drift {}",
                cell.run.cycles.get(),
                cell.fold_drift()
            );
        }
        let _ = write!(out.stdout, "  wrote {} folded stacks + SVG flamegraphs\n\n", folds.len());
        Ok(out)
    }

    /// The self-contained HTML attribution report.
    pub fn report_html(&mut self, seed: u64, campaigns: u64) -> Result<String, SimError> {
        let folds = self.traced_grid()?;
        let table3 = self.plain_grid()?;
        let scorecard = self.scorecard()?;
        let sweep = self.fault_sweep(seed, campaigns)?;
        let inputs = htmlreport::ReportInputs {
            table3: &table3,
            scorecard: &scorecard,
            sweep: &sweep,
            folds: &folds,
            workloads: workloads(self.kind)?,
            workload_kind: self.kind.name(),
        };
        self.prof.time_phase("render-html", || htmlreport::render(&inputs))
    }

    /// `report`: [`Session::report_html`] as `report.html` under `dir`.
    pub fn report(&mut self, dir: &Path, seed: u64, campaigns: u64) -> Result<Exhibit, SimError> {
        let html = self.report_html(seed, campaigns)?;
        let path = dir.join("report.html");
        let stdout = format!(
            "== HTML report ==\n  wrote {} ({} cells, {} bytes)\n\n",
            path.display(),
            self.traced_grid()?.len(),
            html.len()
        );
        Ok(Exhibit { stdout, files: vec![(path, html)] })
    }

    /// `timeline`: each cell's windowed occupancy as CSV and SVG under
    /// `dir`, and the combined schema-versioned `timeline.json`.
    pub fn timeline(&mut self, dir: &Path) -> Result<Exhibit, SimError> {
        let folds = self.traced_grid()?;
        let mut out = Exhibit::text(format!("== Utilization timelines ({}) ==\n", dir.display()));
        for cell in folds.iter() {
            let base = cell_slug(cell.arch, cell.kernel);
            let svg = render_timeline_svg(&cell.label(), &cell.timeline);
            out.files.push((dir.join(format!("{base}.timeline.csv")), cell.timeline.render_csv()));
            out.files.push((dir.join(format!("{base}.timeline.svg")), svg));
            let _ = writeln!(
                out.stdout,
                "  {base}: {} cycles in {} windows of {}, occupancy drift {}",
                cell.run.cycles.get(),
                cell.timeline.windows(),
                cell.timeline.window(),
                cell.timeline_drift(),
            );
        }
        let json = render_timeline_json(self.kind.name(), &folds);
        out.files.push((dir.join("timeline.json"), json));
        let _ = write!(
            out.stdout,
            "  wrote {} per-cell CSV + SVG timelines + timeline.json (schema v{})\n\n",
            folds.len(),
            TIMELINE_SCHEMA_VERSION,
        );
        Ok(out)
    }

    /// `bench`: the schema-versioned benchmark artifact, written to
    /// `path`.
    pub fn bench(&mut self, path: &str) -> Result<Exhibit, SimError> {
        let table3 = self.plain_grid()?;
        let scorecard = self.scorecard()?;
        let kind = self.kind.name();
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
            .collect::<Vec<_>>();
        let stdout = format!(
            "== Bench ==\n  wrote {path} (schema v{SCHEMA_VERSION}, {} cells, {kind} workloads)\n\n",
            cells.len()
        );
        let report = BenchReport {
            schema_version: SCHEMA_VERSION,
            git_rev: benchjson::git_rev(),
            workload: kind.to_string(),
            cells,
        };
        Ok(Exhibit { stdout, files: vec![(PathBuf::from(path), report.render())] })
    }
}

/// Each traced cell's hardware counters with its roofline utilizations.
fn cell_counters(folds: &[FoldedCell], scorecard: &Scorecard) -> Vec<MetricsReport> {
    folds
        .iter()
        .map(|cell| {
            let mut report = cell.run.metrics.clone();
            scorecard.cell(cell.arch, cell.kernel).export_metrics(&mut report);
            report
        })
        .collect()
}

/// The cells' counters in one registry, each name under its cell slug.
fn merged(folds: &[FoldedCell], reports: &[MetricsReport]) -> MetricsReport {
    let mut combined = MetricsReport::new();
    for (cell, report) in folds.iter().zip(reports) {
        let base = cell_slug(cell.arch, cell.kernel);
        for (name, metric) in report.iter() {
            combined.set(&format!("{base}.{name}"), metric.clone());
        }
    }
    combined
}

/// Runs a validated job to completion, fanning heavy grids out over
/// `jobs` pool workers, through the [`Session`] exhibit that `repro`
/// runs for the same selector. Deterministic: the artifact bytes depend
/// only on the spec, never on `jobs` or scheduling.
///
/// # Errors
///
/// [`SimError::Protocol`] for a spec that fails validation or carries
/// unparsable profdiff artifacts; otherwise propagates simulation
/// errors.
pub fn run_job(spec: &JobSpec, jobs: usize) -> Result<Artifact, SimError> {
    spec.validate()?;
    let mut silent = |_: &str| {};
    let mut session = Session::new(spec.workload, jobs, DEFAULT_WINDOW, &mut silent);
    match spec.driver {
        DriverKind::Table3 => Ok(Artifact::text(session.table3()?.stdout)),
        DriverKind::Dse => Ok(Artifact::text(session.dse()?.stdout)),
        DriverKind::Faultsweep => {
            Ok(Artifact::text(session.faultsweep(spec.seed, spec.campaigns)?.stdout))
        }
        DriverKind::Metrics => Ok(Artifact {
            content_type: String::from("text/plain; version=0.0.4"),
            body: session.metrics_prom()?,
        }),
        DriverKind::Report => Ok(Artifact {
            content_type: String::from("text/html"),
            body: session.report_html(spec.seed, spec.campaigns)?,
        }),
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
            let (a, b) = spec
                .artifacts
                .as_ref()
                .ok_or_else(|| SimError::protocol("profdiff jobs require two bench artifacts"))?;
            let body =
                profdiff_body(a, b, ["artifact a", "artifact b"]).map_err(SimError::protocol)?;
            Ok(Artifact::text(format!("== Differential profile ==\n{body}")))
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
        let text = format!(
            "== Table 3: experimental results (kilocycles) ==\n{}\n\
             == Table 3 vs published ==\n{}\n",
            table3.render(),
            table3.render_vs_paper()
        );
        assert_eq!(a.body, text);
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
