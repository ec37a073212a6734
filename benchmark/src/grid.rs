//! The grid workloads (`grid-paper`, `grid-small`: the Table 3 grid,
//! untraced) and the attribution workload (`attrib-paper`: the traced
//! grid, fault sweep and report rendering behind `repro report`).
//!
//! Each pass is checked against the untimed warm-up pass of the same
//! set-up: every cell verified against its golden reference, the same
//! cycles in every cell, and for attribution zero fold and timeline
//! drift and the same report bytes.

use std::time::Instant;

use triarch_core::arch::{grid, Architecture, MachineSpec};
use triarch_core::driver::{slug, table_from_folds};
use triarch_core::experiments::Table3;
use triarch_core::faultsweep::{self, SweepTable};
use triarch_core::htmlreport::{self, FoldedCell, ReportInputs};
use triarch_core::paper;
use triarch_core::roofline::Scorecard;
use triarch_core::timelinedoc;
use triarch_kernels::verify::tolerance;
use triarch_kernels::{Kernel, WorkloadSet};
use triarch_profile::fnv1a64;
use triarch_simcore::{KernelRun, SimError};

use crate::harness::{self, median_ms, ms, Outcome};
use crate::metrics::{cell_span, engine, traced_cell_span, Values};
use crate::spans::Tracer;
use crate::stats::{median, min_samples};

/// Timeline window of the attribution pipeline, in cycles.
const WINDOW: u64 = 1024;
/// Calls of each reference function the traced run times.
const REFERENCE_REPS: usize = 5;
/// Untraced grids the traced attribution run times as its base.
const PROBE_GRIDS: usize = 3;

/// Which workload set a grid runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `WorkloadSet::paper`: the 1024×1024 corner turn is 4 MB.
    Paper,
    /// `WorkloadSet::small`: the 64×64 corner turn fits in L1.
    Small,
}

impl Size {
    fn build(self, seed: u64) -> Result<WorkloadSet, String> {
        match self {
            Size::Paper => WorkloadSet::paper(seed),
            Size::Small => WorkloadSet::small(seed),
        }
        .map_err(|e| e.to_string())
    }

    /// The nearest-rank percentile reported as `hostbench.op_tail_ms`. A
    /// paper pass takes about half a second, so the traced run's floor of
    /// 40 passes makes a p75; 1000 small passes, a p99, take about 10 s.
    fn tail_p(self) -> f64 {
        match self {
            Size::Paper => 75.0,
            Size::Small => 99.0,
        }
    }
}

/// What one pass produced; every timed pass must equal the warm-up's.
#[derive(Debug, Clone, Default, PartialEq)]
struct Digest {
    cycles: Vec<u64>,
    verified: bool,
    drift: u64,
    report: u64,
    timeline: u64,
    faults: [u64; 4],
    report_bytes: usize,
}

impl Digest {
    fn of_runs<'a>(runs: impl Iterator<Item = (Kernel, &'a KernelRun)>) -> Digest {
        let mut d = Digest { verified: true, ..Digest::default() };
        for (kernel, run) in runs {
            d.verified &= run.verification.is_ok(tolerance(kernel));
            d.cycles.push(run.cycles.get());
        }
        d
    }

    fn of_table(table: &Table3) -> Digest {
        Digest::of_runs(table.iter().map(|(_, kernel, run)| (kernel, run)))
    }

    fn sound(&self) -> bool {
        self.verified && self.drift == 0 && self.cycles.len() == grid().len()
    }
}

/// Whether a timed pass reproduced the warm-up exactly.
fn passed(result: Result<Digest, SimError>, expected: &Digest) -> bool {
    match result {
        Ok(d) => d.sound() && d == *expected,
        Err(e) => {
            eprintln!("hostbench: pass failed: {e}");
            false
        }
    }
}

/// The untraced grid cell by cell, with each machine build and each
/// cell's run in a span of its own: what `experiments::table3_jobs(w, 1)`
/// does, whose serial path builds and runs each cell in turn.
fn grid_pass(w: &WorkloadSet, tr: &mut Tracer) -> Result<Digest, SimError> {
    let mut runs = Vec::with_capacity(grid().len());
    for (arch, kernel) in grid() {
        let mut machine = tr.span("core.machine_build", || MachineSpec::Paper(arch).build())?;
        let run = tr.span(&cell_span(arch, kernel), || machine.run(kernel, w))?;
        runs.push(((arch, kernel), run));
    }
    Ok(Digest::of_table(&Table3::from_runs(runs)))
}

/// The traced grid: every cell through the fold and timeline sinks, as
/// `htmlreport::collect_folds_jobs_windowed(w, 1, WINDOW)` runs it.
fn folds(w: &WorkloadSet, tr: &mut Tracer) -> Result<Vec<FoldedCell>, SimError> {
    let all = tr.begin("profile.traced_grid");
    let mut cells = Vec::with_capacity(grid().len());
    for (arch, kernel) in grid() {
        let t = Instant::now();
        let (run, fold, timeline) = tr.span(&traced_cell_span(arch, kernel), || {
            MachineSpec::Paper(arch).run_cell_folded_windowed(kernel, w, WINDOW)
        })?;
        cells.push(FoldedCell { arch, kernel, run, fold, timeline, wall: t.elapsed() });
    }
    tr.end(all);
    Ok(cells)
}

/// Fault outcome counts summed over machines, in `FaultOutcome::ALL` order.
pub fn fault_counts(sweep: &SweepTable) -> [u64; 4] {
    let mut total = [0; 4];
    for arch in Architecture::ALL {
        for (t, c) in total.iter_mut().zip(sweep.counts(arch)) {
            *t += c;
        }
    }
    total
}

fn attrib_pass(w: &WorkloadSet, seed: u64, tr: &mut Tracer) -> Result<Digest, SimError> {
    let folds = folds(w, tr)?;
    let (sweep, _) = tr.span("faults.sweep", || faultsweep::sweep_jobs(w, seed, 1, 1))?;
    let (table3, scorecard) = tr.span("core.scorecard", || {
        let table3 = table_from_folds(&folds);
        Scorecard::compute(&table3, w).map(|s| (table3, s))
    })?;
    let inputs = ReportInputs {
        table3: &table3,
        scorecard: &scorecard,
        sweep: &sweep,
        folds: &folds,
        workloads: w,
        workload_kind: "paper",
    };
    let html = tr.span("core.htmlreport_render", || htmlreport::render(&inputs))?;
    let timeline =
        tr.span("core.timelinedoc_render", || timelinedoc::render_timeline_json("paper", &folds));
    let mut d = Digest::of_runs(folds.iter().map(|c| (c.kernel, &c.run)));
    d.drift = folds.iter().map(|c| c.fold_drift().max(c.timeline_drift())).max().unwrap_or(0);
    d.report = fnv1a64(html.as_bytes());
    d.timeline = fnv1a64(timeline.as_bytes());
    d.report_bytes = html.len();
    d.faults = fault_counts(&sweep);
    Ok(d)
}

/// Records the `kernels` layer: workload-set build time and each golden
/// reference's time, with the share of an op they account for when each
/// op calls every reference `calls_per_op` times.
pub fn kernel_layers(
    w: &WorkloadSet,
    build_ms: &[f64],
    calls_per_op: f64,
    op_ms: f64,
    values: &mut Values,
) {
    values.insert("kernels.workload_build_ms".into(), median(build_ms));
    let refs = [
        median_ms(REFERENCE_REPS, || w.corner_turn.reference_transpose()),
        median_ms(REFERENCE_REPS, || w.cslc.reference_output()),
        median_ms(REFERENCE_REPS, || w.beam_steering.reference_output()),
    ];
    for (kernel, ref_ms) in Kernel::ALL.into_iter().zip(refs) {
        values.insert(format!("kernels.reference.{}_ms", slug(kernel.name())), ref_ms);
    }
    values
        .insert("kernels.reference_share".into(), calls_per_op * refs.iter().sum::<f64>() / op_ms);
}

/// Records the `faults` counts.
pub fn fault_layers(counts: [u64; 4], values: &mut Values) {
    values.insert("faults.runs".into(), counts.iter().sum::<u64>() as f64);
    for (name, count) in ["corrected", "detected", "sdc", "masked"].into_iter().zip(counts) {
        values.insert(format!("faults.{name}"), count as f64);
    }
}

/// Records the engine layers from the spans of `spanned_grid` runs under
/// roots named `root`: each cell's median time, machine builds, and
/// simulated cycles per host second per machine.
fn engine_layers(tr: &Tracer, root: &str, cycles: &[u64], values: &mut Values) {
    let cell_ms: Vec<f64> = grid()
        .into_iter()
        .map(|(arch, kernel)| {
            let name = cell_span(arch, kernel);
            let m = median(&tr.totals_ms(root, &name));
            values.insert(format!("{name}_ms"), m);
            m
        })
        .collect();
    values.insert(
        "core.machine_build_us".into(),
        1e3 * median(&tr.totals_ms(root, "core.machine_build")),
    );
    for arch in Architecture::ALL {
        let (c, t) = grid()
            .into_iter()
            .zip(cycles.iter().zip(&cell_ms))
            .filter(|((a, _), _)| *a == arch)
            .fold((0u64, 0.0), |(c, t), (_, (cy, m))| (c + cy, t + m));
        values.insert(
            format!("{}.{}_sim_mcycles_per_s", engine(arch), slug(arch.name())),
            c as f64 / (t * 1e3),
        );
    }
}

/// Records the simulated cycles a pass covers and, on the paper set, the
/// largest deviation from the 15 published Table 3 cells (the DPU row is
/// pinned to this model's own output, so it is left out).
fn cycle_layers(size: Size, cycles: &[u64], values: &mut Values) {
    values.insert("core.sim_cycles_per_pass".into(), cycles.iter().sum::<u64>() as f64);
    if size == Size::Paper {
        let err = grid()
            .into_iter()
            .zip(cycles)
            .filter(|((arch, _), _)| *arch != Architecture::Dpu)
            .map(|((arch, kernel), &c)| {
                (c as f64 / 1e3 / paper::table3_kilocycles(arch, kernel) - 1.0).abs()
            })
            .fold(0.0, f64::max);
        values.insert("core.paper_err_max".into(), err);
    }
}

/// A finished window of passes over one workload set.
struct Passes {
    w: WorkloadSet,
    expected: Digest,
    build_ms: Vec<f64>,
    out: Outcome,
}

/// Sets up (workload-set build plus one untimed warm-up pass), then
/// times `pass` until the window closes, checking each against the
/// warm-up.
fn run_passes(
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
    pass: impl Fn(&WorkloadSet, &mut Tracer) -> Result<Digest, SimError>,
) -> Result<Passes, String> {
    let mut build_ms = Vec::new();
    let ((w, expected), setup_s) = harness::setup(|| {
        let t = Instant::now();
        let w = size.build(seed)?;
        build_ms.push(ms(t.elapsed()));
        let warm = pass(&w, &mut Tracer::off()).map_err(|e| e.to_string())?;
        Ok((w, warm))
    })?;
    let mut tr = Tracer::new(trace, Instant::now(), 0);
    let floor = if trace { min_samples(size.tail_p()) } else { 1 };
    let win = harness::window(seconds, floor, || {
        let op = tr.begin("pass");
        let result = pass(&w, &mut tr);
        tr.end(op);
        passed(result, &expected)
    });
    let mut values = Values::new();
    harness::record_ops(&mut values, &win.op_ms, win.seconds, size.tail_p(), setup_s, trace)?;
    let out = Outcome {
        attempted: win.op_ms.len() as u64,
        failed: win.failed + u64::from(!expected.sound()),
        values,
        tracer: tr,
    };
    Ok(Passes { w, expected, build_ms, out })
}

/// `grid-paper` / `grid-small`: the 18-cell Table 3 grid per op.
///
/// # Errors
///
/// Set-up failures and a window too short for the tail percentile.
pub fn run_grid(size: Size, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let Passes { w, expected, build_ms, mut out } =
        run_passes(size, seed, seconds, trace, grid_pass)?;
    if trace {
        let values = &mut out.values;
        let per_cell = Architecture::ALL.len() as f64;
        kernel_layers(&w, &build_ms, per_cell, values["hostbench.op_p50_ms"], values);
        engine_layers(&out.tracer, "pass", &expected.cycles, values);
        cycle_layers(size, &expected.cycles, values);
    }
    Ok(out)
}

/// `attrib-paper`: the traced grid, an 18-run fault sweep, the scorecard,
/// the HTML report and the timeline document per op.
///
/// # Errors
///
/// Set-up failures and a window too short for the tail percentile.
pub fn run_attrib(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let size = Size::Paper;
    let Passes { w, expected, build_ms, mut out } =
        run_passes(size, seed, seconds, trace, |w, tr| attrib_pass(w, seed, tr))?;
    if trace {
        let (values, tr) = (&mut out.values, &mut out.tracer);
        // Each op calls every reference in 6 traced cells and 6 faulted runs.
        let calls = 2.0 * Architecture::ALL.len() as f64;
        kernel_layers(&w, &build_ms, calls, values["hostbench.op_p50_ms"], values);
        // The untraced base of the overhead ratio: the same grid, cell by
        // cell, outside any pass.
        for _ in 0..PROBE_GRIDS {
            let op = tr.begin("probe");
            let probe = grid_pass(&w, tr);
            tr.end(op);
            out.failed +=
                u64::from(!probe.is_ok_and(|d| d.verified && d.cycles == expected.cycles));
        }
        engine_layers(tr, "probe", &expected.cycles, values);
        let stage = |name: &str| median(&tr.totals_ms("pass", name));
        let traced = stage("profile.traced_grid");
        let untraced = median(&tr.totals_ms("probe", "probe"));
        values.insert("profile.traced_grid_ms".into(), traced);
        values.insert("profile.untraced_grid_ms".into(), untraced);
        values.insert("profile.trace_overhead_ratio".into(), traced / untraced);
        for arch in Architecture::ALL {
            let arch_ms =
                Kernel::ALL.iter().map(|&k| stage(&traced_cell_span(arch, k))).sum::<f64>();
            values.insert(format!("profile.{}_traced_ms", slug(arch.name())), arch_ms);
        }
        for name in
            ["faults.sweep", "core.scorecard", "core.htmlreport_render", "core.timelinedoc_render"]
        {
            values.insert(format!("{name}_ms"), stage(name));
        }
        fault_layers(expected.faults, values);
        values.insert("core.report_bytes".into(), expected.report_bytes as f64);
        cycle_layers(size, &expected.cycles, values);
    }
    Ok(out)
}
