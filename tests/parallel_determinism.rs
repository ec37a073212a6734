//! Byte-identity of every parallel driver against its serial twin.
//!
//! The `triarch-pool` work-stealing pool promises that results come back
//! in submission order regardless of worker count, so every report the
//! drivers render must be *byte-identical* at `jobs = 1` (which bypasses
//! the pool entirely) and at any higher worker count. These tests pin
//! that contract for Table 3, the traced grid (folds and timelines), the
//! fault sweep, the ablation report, and the design-space sweep, plus
//! the pool's own bookkeeping invariants as seen through the drivers.

use triarch_core::{ablations, dse, experiments, faultsweep, htmlreport};
use triarch_kernels::{Kernel, WorkloadSet};

const SEED: u64 = 42;

/// Worker counts exercised against the serial baseline. 2 exposes
/// injector/steal interleavings, 5 oversubscribes any container this
/// suite is likely to run in, and 16 stresses the "more workers than
/// jobs per tier" regime.
const WORKER_COUNTS: [usize; 3] = [2, 5, 16];

#[test]
fn table3_is_byte_identical_at_every_worker_count() {
    let workloads = WorkloadSet::small(SEED).unwrap();
    let (serial, stats) = experiments::table3_jobs(&workloads, 1).unwrap();
    assert_eq!(stats.workers, 1);
    assert_eq!(stats.steals, 0, "jobs=1 must bypass the pool");
    let baseline = format!(
        "{}\n{}\n{}",
        serial.render(),
        serial.render_vs_paper(),
        serial.render_breakdowns()
    );
    for jobs in WORKER_COUNTS {
        let (parallel, stats) = experiments::table3_jobs(&workloads, jobs).unwrap();
        let rendered = format!(
            "{}\n{}\n{}",
            parallel.render(),
            parallel.render_vs_paper(),
            parallel.render_breakdowns()
        );
        assert_eq!(baseline, rendered, "table3 diverged at jobs={jobs}");
        assert_eq!(stats.jobs, 18, "6 machines x 3 kernels");
        assert_eq!(
            stats.injector_pops, 18,
            "flat fan-out: every job reaches a worker via the injector"
        );
    }
}

#[test]
fn traced_grid_is_byte_identical_at_every_worker_count() {
    let workloads = WorkloadSet::small(SEED).unwrap();
    let (serial, _) = htmlreport::collect_folds_jobs(&workloads, 1).unwrap();
    for jobs in WORKER_COUNTS {
        let (parallel, stats) = htmlreport::collect_folds_jobs(&workloads, jobs).unwrap();
        assert_eq!(stats.jobs, 18, "6 machines x 3 kernels");
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            let label = s.label();
            assert_eq!(label, p.label(), "cell order diverged at jobs={jobs}");
            assert_eq!(s.run.cycles, p.run.cycles, "{label} at jobs={jobs}");
            assert_eq!(s.run.breakdown, p.run.breakdown, "{label} at jobs={jobs}");
            assert_eq!(s.fold, p.fold, "{label} at jobs={jobs}");
            assert_eq!(s.timeline.render_csv(), p.timeline.render_csv(), "{label} at jobs={jobs}");
            assert_eq!(s.fold_drift(), p.fold_drift(), "{label} at jobs={jobs}");
            assert_eq!(s.timeline_drift(), p.timeline_drift(), "{label} at jobs={jobs}");
        }
    }
}

#[test]
fn faultsweep_is_byte_identical_at_every_worker_count() {
    let workloads = WorkloadSet::small(SEED).unwrap();
    let serial = faultsweep::sweep(&workloads, SEED, 3).unwrap().render();
    for jobs in WORKER_COUNTS {
        let (parallel, stats) = faultsweep::sweep_jobs(&workloads, SEED, 3, jobs).unwrap();
        assert_eq!(serial, parallel.render(), "fault sweep diverged at jobs={jobs}");
        assert_eq!(stats.jobs, 54, "6 machines x 3 kernels x 3 campaigns");
    }
}

#[test]
fn ablation_report_is_byte_identical_at_every_worker_count() {
    let workloads = WorkloadSet::small(SEED).unwrap();
    let serial = ablations::render_all(&workloads).unwrap();
    for jobs in WORKER_COUNTS {
        let (parallel, _) = ablations::render_all_jobs(&workloads, jobs).unwrap();
        assert_eq!(serial, parallel, "ablation report diverged at jobs={jobs}");
    }
}

#[test]
fn dse_report_is_byte_identical_at_every_worker_count() {
    let workloads = WorkloadSet::small(SEED).unwrap();
    let (serial, _) = dse::sweep(&workloads, 1).unwrap();
    let baseline = format!("{}{}", serial.render(), serial.render_findings());
    assert!(serial.all_verified(), "every DSE design point must verify");
    for jobs in WORKER_COUNTS {
        let (parallel, stats) = dse::sweep(&workloads, jobs).unwrap();
        let rendered = format!("{}{}", parallel.render(), parallel.render_findings());
        assert_eq!(baseline, rendered, "dse report diverged at jobs={jobs}");
        assert_eq!(
            stats.jobs,
            dse::points().len() * Kernel::ALL.len(),
            "one job per design point x kernel"
        );
    }
}

#[test]
fn pool_stats_expose_the_fan_out_shape() {
    let workloads = WorkloadSet::small(SEED).unwrap();
    let (_, stats) = experiments::table3_jobs(&workloads, 4).unwrap();
    assert_eq!(stats.workers, 4);
    assert_eq!(stats.jobs, 18);
    assert!(stats.wall >= std::time::Duration::ZERO);
    assert!(stats.busy >= stats.wall.mul_f64(0.0));
    // The render line is stable enough for log scraping.
    let line = stats.render();
    assert!(line.starts_with("pool: 18 jobs on 4 workers"), "{line}");
}
