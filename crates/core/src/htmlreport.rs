//! `repro -- report` — the single self-contained HTML attribution
//! report.
//!
//! One file, no external assets, reproducing the paper's exhibits next
//! to our measurements: Tables 1–4 (vs the published numbers with the
//! acceptance band of [`crate::paper::BAND_LO`]..[`crate::paper::BAND_HI`]),
//! Figures 8–9, the §4.2–§4.4 cycle breakdowns as stacked SVG bars, the
//! roofline utilization scorecard, the fault-sweep outcome table, and a
//! per-cell inline-SVG flamegraph folded from the engines' trace spans.
//!
//! ## Determinism contract
//!
//! The report is **byte-identical** across consecutive runs and across
//! any `--jobs` worker count: it embeds only simulated quantities
//! (cycles, utilizations, seeded fault outcomes) and deterministic
//! markup — never wall-clock samples, dates, hostnames, or revisions.
//! Host-side self-profiling (`triarch_profile::hostprof`) deliberately
//! stays out of this file; it goes to stderr and `metrics.prom` only.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use triarch_kernels::{Kernel, WorkloadSet};
use triarch_profile::{flamegraph_svg, xml_escape, Fold};
use triarch_simcore::{KernelRun, SimError};
use triarch_timeline::{Timeline, DEFAULT_WINDOW};

use crate::arch::{grid, Architecture, MachineSpec};
use crate::chart::{render_legend_html, render_stacked_svg, render_timeline_svg, StackedBar};
use crate::experiments::{self, Table3};
use crate::faultsweep::SweepTable;
use crate::paper;
use crate::parallel::{run_jobs, PoolStats};
use crate::roofline::Scorecard;

/// One folded cell: the run, its collapsed-stack profile, and the host
/// wall time the simulation took (informational — fed to `HostProf`,
/// never embedded in deterministic artifacts).
#[derive(Debug, Clone)]
pub struct FoldedCell {
    /// Architecture row.
    pub arch: Architecture,
    /// Kernel column.
    pub kernel: Kernel,
    /// The simulation result.
    pub run: KernelRun,
    /// The collapsed-stack profile (total re-adds to `run.cycles`).
    pub fold: Fold,
    /// The cycle-windowed occupancy timeline (window sums re-add to
    /// `run.breakdown` per category).
    pub timeline: Timeline,
    /// Host wall time spent simulating this cell (occupancy under
    /// `--jobs N`).
    pub wall: Duration,
}

impl FoldedCell {
    /// [`KernelRun::breakdown_drift`] of the fold's per-category totals
    /// — exactly 0 under the counted-span contract.
    #[must_use]
    pub fn fold_drift(&self) -> u64 {
        self.run.breakdown_drift(self.fold.iter().map(|(category, _, cycles)| (category, cycles)))
    }

    /// [`KernelRun::breakdown_drift`] of the windowed occupancy sums —
    /// exactly 0 under the counted-span contract.
    #[must_use]
    pub fn timeline_drift(&self) -> u64 {
        self.run.breakdown_drift(self.timeline.category_totals())
    }

    /// The cell's `Arch / Kernel` display label.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} / {}", self.arch, self.kernel)
    }
}

/// Runs every grid cell with a folding sink and a `window`-cycle timeline
/// sink attached, fanned out over `jobs` pool workers. Results come back
/// in grid (submission) order, so every deterministic consumer of the
/// folds is byte-identical at any worker count; the per-cell `wall`
/// fields are the only non-deterministic payload and exist solely for
/// host self-profiling.
///
/// # Errors
///
/// Propagates the first simulator error in cell order.
pub fn collect_folds_jobs_windowed(
    workloads: &WorkloadSet,
    jobs: usize,
    window: u64,
) -> Result<(Vec<FoldedCell>, PoolStats), SimError> {
    run_jobs(jobs, grid(), move |(arch, kernel)| {
        let t0 = Instant::now();
        let (run, fold, timeline) =
            MachineSpec::Paper(arch).run_cell_folded_windowed(kernel, workloads, window)?;
        Ok(FoldedCell { arch, kernel, run, fold, timeline, wall: t0.elapsed() })
    })
}

/// Everything the HTML report embeds.
pub struct ReportInputs<'a> {
    /// The measured Table 3 grid.
    pub table3: &'a Table3,
    /// Roofline utilizations for the same grid.
    pub scorecard: &'a Scorecard,
    /// The seeded fault-sweep outcome table.
    pub sweep: &'a SweepTable,
    /// Per-cell folds (from [`collect_folds_jobs_windowed`]).
    pub folds: &'a [FoldedCell],
    /// The workload set behind `table3`.
    pub workloads: &'a WorkloadSet,
    /// Workload kind label (`"paper"` or `"small"`).
    pub workload_kind: &'a str,
}

fn pre(out: &mut String, text: &str) {
    let _ = writeln!(out, "<pre>{}</pre>", xml_escape(text.trim_end()));
}

/// Section registry: `(anchor id, heading)` in document order — the
/// single source of truth for both the table of contents and the
/// `<h2>` headings, so an anchor can never dangle.
const SECTIONS: [(&str, &str); 11] = [
    ("table1", "Table 1: peak throughput (32-bit words per cycle)"),
    ("table2", "Table 2: processor parameters"),
    ("table3", "Table 3: experimental results (kilocycles)"),
    ("table4", "Table 4: performance-model lower bounds (kilocycles)"),
    ("fig8", "Figure 8: speedup over PPC+AltiVec (cycles)"),
    ("fig9", "Figure 9: speedup over PPC+AltiVec (execution time)"),
    ("breakdowns", "Section 4.2-4.4: cycle breakdowns"),
    ("roofline", "Roofline utilization scorecard"),
    ("faultsweep", "Fault-injection sweep"),
    ("timelines", "Utilization timelines"),
    ("flamegraphs", "Per-cell flamegraphs"),
];

fn section(out: &mut String, id: &str) {
    let title = SECTIONS.iter().find(|(i, _)| *i == id).map_or(id, |(_, t)| *t);
    let _ = writeln!(out, "<h2 id=\"{id}\">{}</h2>", xml_escape(title));
}

/// The anchored table of contents (plain deterministic HTML, no JS).
fn toc(out: &mut String) {
    out.push_str("<nav>\n<ol>\n");
    for (id, title) in SECTIONS {
        let _ = writeln!(out, "<li><a href=\"#{id}\">{}</a></li>", xml_escape(title));
    }
    out.push_str("</ol>\n</nav>\n");
}

/// Renders the full report as one self-contained HTML document.
///
/// # Errors
///
/// Propagates simulator errors from the Table 4 model evaluation.
pub fn render(inputs: &ReportInputs<'_>) -> Result<String, SimError> {
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str("<title>triarch attribution report</title>\n<style>\n");
    out.push_str(
        "body{font-family:sans-serif;max-width:1040px;margin:24px auto;padding:0 12px;\
         color:#222;}\npre{background:#f6f6f6;border:1px solid #ddd;padding:8px;\
         overflow-x:auto;font-size:12px;line-height:1.35;}\nh1{border-bottom:2px solid #444;}\n\
         h2{border-bottom:1px solid #bbb;margin-top:32px;}\n.note{background:#fffbe6;\
         border:1px solid #e0d48a;padding:8px;font-size:13px;}\ndetails{margin:6px 0;}\n\
         summary{cursor:pointer;font-family:monospace;}\n.legend{font-family:monospace;\
         font-size:12px;}\n",
    );
    out.push_str("</style>\n</head>\n<body>\n");

    out.push_str("<h1>triarch attribution report</h1>\n");
    let _ = writeln!(
        out,
        "<p>Reproduction of <em>A Performance Analysis of PIM, Stream Processing, \
         and Tiled Processing on Memory-Intensive Signal Processing Kernels</em> \
         (ISCA 2003) &mdash; {} workload set, {} cells.</p>",
        xml_escape(inputs.workload_kind),
        inputs.folds.len(),
    );
    out.push_str(
        "<p class=\"note\">Determinism contract: this file embeds only simulated \
         quantities and is byte-identical across runs and <code>--jobs</code> worker \
         counts. Host wall-clock self-profiling (<code>host.*</code> gauges) is \
         informational only and deliberately excluded; see stderr and \
         <code>metrics.prom</code>.</p>\n",
    );
    toc(&mut out);

    section(&mut out, "table1");
    pre(&mut out, &experiments::table1().to_string());

    section(&mut out, "table2");
    pre(&mut out, &experiments::table2().to_string());

    section(&mut out, "table3");
    pre(&mut out, &inputs.table3.render());
    out.push_str("<h3>vs published results</h3>\n");
    pre(&mut out, &inputs.table3.render_vs_paper());
    let mut in_band = 0usize;
    let mut cells = 0usize;
    for (arch, kernel, run) in inputs.table3.iter() {
        let ratio = run.cycles.to_kilocycles() / paper::table3_kilocycles(arch, kernel);
        cells += 1;
        if (paper::BAND_LO..=paper::BAND_HI).contains(&ratio) {
            in_band += 1;
        }
    }
    let _ = writeln!(
        out,
        "<p><strong>{in_band}/{cells}</strong> cells within the acceptance band \
         [{lo}x, {hi}x] of the published cycle counts.</p>",
        lo = paper::BAND_LO,
        hi = paper::BAND_HI,
    );

    section(&mut out, "table4");
    pre(&mut out, &experiments::table4(inputs.workloads)?.to_string());

    section(&mut out, "fig8");
    let fig8 = experiments::figure8(inputs.table3);
    pre(&mut out, &format!("{}\n{}", fig8.render(), fig8.render_chart(50)));

    section(&mut out, "fig9");
    let fig9 = experiments::figure9(inputs.table3);
    pre(&mut out, &format!("{}\n{}", fig9.render(), fig9.render_chart(50)));

    section(&mut out, "breakdowns");
    out.push_str(
        "<p>Normalized stacked bars, one per cell; segment widths are each \
         category's share of the cell's total cycles (the paper's per-machine \
         attribution discussion). Colors match the flamegraphs below.</p>\n",
    );
    let mut bars = Vec::new();
    let mut categories: Vec<String> = Vec::new();
    for (arch, kernel, run) in inputs.table3.iter() {
        let mut segments = Vec::new();
        for (category, cycles) in run.breakdown.iter() {
            segments.push((category.to_string(), cycles.get()));
            if !categories.iter().any(|c| c == category) {
                categories.push(category.to_string());
            }
        }
        bars.push(StackedBar { label: format!("{arch} / {kernel}"), segments });
    }
    categories.sort();
    let category_refs: Vec<&str> = categories.iter().map(String::as_str).collect();
    out.push_str(&render_legend_html(&category_refs));
    out.push_str(&render_stacked_svg("Cycle breakdowns (share of total)", &bars));

    section(&mut out, "roofline");
    pre(&mut out, &inputs.scorecard.render());

    section(&mut out, "faultsweep");
    let _ = writeln!(
        out,
        "<p>Seeded deterministic campaigns (seed {}, {} campaigns per cell).</p>",
        inputs.sweep.seed, inputs.sweep.campaigns,
    );
    pre(&mut out, &inputs.sweep.render());

    section(&mut out, "timelines");
    let window = inputs.folds.first().map_or(DEFAULT_WINDOW, |c| c.timeline.window());
    let max_tl_drift = inputs.folds.iter().map(FoldedCell::timeline_drift).max().unwrap_or(0);
    let _ = writeln!(
        out,
        "<p>Cycle-windowed occupancy ({window}-cycle windows): one lane per \
         engine component (uncounted DRAM detail lanes at reduced opacity), \
         plus a busy/stall/idle strip per window. Window sums reproduce each \
         cell's cycle breakdown with max drift <strong>{max_tl_drift}</strong> \
         across {} cells; lane colors match the breakdown bars and \
         flamegraphs.</p>",
        inputs.folds.len(),
    );
    for cell in inputs.folds {
        let _ = writeln!(
            out,
            "<details open><summary>{} &mdash; {} windows, occupancy drift {}</summary>",
            xml_escape(&cell.label()),
            cell.timeline.windows(),
            cell.timeline_drift(),
        );
        out.push_str(&render_timeline_svg(&cell.label(), &cell.timeline));
        out.push_str("</details>\n");
    }

    section(&mut out, "flamegraphs");
    let max_drift = inputs.folds.iter().map(FoldedCell::fold_drift).max().unwrap_or(0);
    let _ = writeln!(
        out,
        "<p>Collapsed-stack profiles folded from the engines' counted trace spans \
         (<code>arch;kernel;category;span</code>). Fold totals re-add to each \
         engine's reported cycle count with max drift <strong>{max_drift}</strong> \
         across {} cells.</p>",
        inputs.folds.len(),
    );
    for cell in inputs.folds {
        let _ = writeln!(
            out,
            "<details open><summary>{} &mdash; {} cycles, fold drift {}</summary>",
            xml_escape(&cell.label()),
            cell.run.cycles.get(),
            cell.fold_drift(),
        );
        out.push_str(&flamegraph_svg(cell.arch.name(), cell.kernel.name(), &cell.fold));
        out.push_str("</details>\n");
    }

    out.push_str("</body>\n</html>\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table3_jobs;
    use crate::faultsweep;
    use triarch_simcore::{CycleBreakdown, Cycles};

    fn build_inputs() -> (Table3, Scorecard, SweepTable, Vec<FoldedCell>, WorkloadSet) {
        let workloads = WorkloadSet::small(42).unwrap();
        let table = table3_jobs(&workloads, 1).unwrap().0;
        let scorecard = Scorecard::compute(&table, &workloads).unwrap();
        let sweep = faultsweep::sweep_jobs(&workloads, 42, 2, 1).unwrap().0;
        let (folds, _) = collect_folds_jobs_windowed(&workloads, 1, DEFAULT_WINDOW).unwrap();
        (table, scorecard, sweep, folds, workloads)
    }

    #[test]
    fn report_contains_every_cell_and_is_deterministic() {
        let (table, scorecard, sweep, folds, workloads) = build_inputs();
        let inputs = ReportInputs {
            table3: &table,
            scorecard: &scorecard,
            sweep: &sweep,
            folds: &folds,
            workloads: &workloads,
            workload_kind: "small",
        };
        let html = render(&inputs).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.trim_end().ends_with("</html>"));
        for arch in Architecture::ALL {
            for kernel in Kernel::ALL {
                assert!(html.contains(&format!("{arch} / {kernel}")), "{arch}/{kernel}");
            }
        }
        // All major sections present.
        for needle in [
            "Table 1:",
            "Table 2:",
            "Table 3:",
            "Table 4:",
            "Figure 8:",
            "Figure 9:",
            "cycle breakdowns",
            "Roofline utilization scorecard",
            "Fault-injection sweep",
            "Utilization timelines",
            "Per-cell flamegraphs",
        ] {
            assert!(html.contains(needle), "missing section {needle}");
        }
        // Deterministic: a second render is byte-identical.
        assert_eq!(html, render(&inputs).unwrap());
        // Self-contained: no external references — the only hrefs are
        // the table of contents' fragment anchors.
        assert!(!html.contains("http-equiv"));
        assert!(!html.contains("src="));
        assert!(!html.replace("href=\"#", "").contains("href"));
        // Every TOC anchor resolves to a heading id, and vice versa.
        for (id, _) in SECTIONS {
            assert!(html.contains(&format!("href=\"#{id}\"")), "toc link {id}");
            assert!(html.contains(&format!("<h2 id=\"{id}\"")), "heading {id}");
        }
    }

    /// A copy of `cell` whose breakdown charges its first category's
    /// cycles to its second: the total is unchanged, so only a
    /// per-category check sees the move. Also returns the cycles moved.
    fn with_first_category_moved(cell: &FoldedCell) -> (FoldedCell, u64) {
        let entries: Vec<(String, u64)> =
            cell.run.breakdown.iter().map(|(c, v)| (c.to_string(), v.get())).collect();
        let moved = entries[0].1;
        let mut breakdown = CycleBreakdown::new();
        breakdown.charge(entries[1].0.clone(), Cycles::new(moved));
        for (category, cycles) in &entries[1..] {
            breakdown.charge(category.clone(), Cycles::new(*cycles));
        }
        let mut tampered = cell.clone();
        tampered.run.breakdown = breakdown;
        (tampered, moved)
    }

    #[test]
    fn drifts_see_cycles_moved_between_categories() {
        let workloads = WorkloadSet::small(42).unwrap();
        let (folds, _) = collect_folds_jobs_windowed(&workloads, 1, DEFAULT_WINDOW).unwrap();
        let mut seen = 0;
        for cell in folds.iter().filter(|c| c.run.breakdown.len() >= 2) {
            let (tampered, moved) = with_first_category_moved(cell);
            assert_eq!(tampered.run.breakdown.total(), cell.run.cycles, "{}", cell.label());
            assert_eq!(tampered.fold_drift(), moved, "{}", cell.label());
            assert_eq!(tampered.timeline_drift(), moved, "{}", cell.label());
            seen += usize::from(moved > 0);
        }
        assert!(seen > 0, "no cell had two non-empty categories to move between");
    }

    #[test]
    fn drifts_see_a_total_mismatch_alone() {
        let workloads = WorkloadSet::small(42).unwrap();
        let (folds, _) = collect_folds_jobs_windowed(&workloads, 1, DEFAULT_WINDOW).unwrap();
        for cell in &folds {
            let mut tampered = cell.clone();
            tampered.run.cycles = Cycles::new(cell.run.cycles.get() + 7);
            assert_eq!(tampered.fold_drift(), 7, "{}", cell.label());
            assert_eq!(tampered.timeline_drift(), 7, "{}", cell.label());
        }
    }

    #[test]
    fn folds_have_zero_drift_on_the_small_grid() {
        let workloads = WorkloadSet::small(42).unwrap();
        let (folds, _) = collect_folds_jobs_windowed(&workloads, 2, DEFAULT_WINDOW).unwrap();
        assert_eq!(folds.len(), 18);
        for cell in &folds {
            assert_eq!(cell.fold_drift(), 0, "{}", cell.label());
            assert_eq!(cell.timeline_drift(), 0, "{}", cell.label());
            assert_eq!(cell.timeline.window(), DEFAULT_WINDOW);
        }
    }
}
