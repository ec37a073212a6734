//! Mechanical validation of the hardware-counter metrics subsystem.
//!
//! Three invariants are enforced here:
//!
//! 1. **Conservation** — every engine exports its cycle breakdown as
//!    `<arch>.cycles.<category>` counters from the same ledger that
//!    produces [`KernelRun::cycles`], so the counters must re-add to the
//!    total with drift *exactly zero* on every (machine, kernel) cell.
//! 2. **Scheduling independence** — metrics are computed per run from
//!    engine-owned integer counters and assembled in submission order,
//!    so every rendered representation (Prometheus text and JSON) is
//!    byte-identical at any `--jobs` worker count.
//! 3. **Merge algebra** — histogram merge is bucket-wise addition over
//!    fixed edges, hence associative and commutative; property tests
//!    pin that down so pooled aggregation can never depend on job
//!    scheduling order.
//!
//! [`KernelRun::cycles`]: triarch_simcore::KernelRun

use proptest::prelude::*;
use triarch_core::arch::Architecture;
use triarch_core::experiments::{self, Table3};
use triarch_core::roofline::Scorecard;
use triarch_kernels::{Kernel, WorkloadSet};
use triarch_simcore::metrics::{Histogram, Metric, MetricsReport, CYCLE_EDGES};

fn small_table3() -> (Table3, WorkloadSet) {
    let workloads = WorkloadSet::small(7).expect("small workloads build");
    let table = experiments::table3_jobs(&workloads, 1).expect("table3 runs").0;
    (table, workloads)
}

#[test]
fn cycle_counters_conserve_totals_on_all_cells() {
    let (table, _) = small_table3();
    let mut cells = 0;
    for (arch, kernel, run) in table.iter() {
        let prefix = format!("{}.cycles.", arch.engine());
        let counted = run.metrics.counter_sum(&prefix);
        assert_eq!(
            counted,
            run.cycles.get(),
            "{arch}/{kernel}: cycle counters under '{prefix}' must re-add to the total exactly"
        );
        // Each exported category mirrors the breakdown ledger entry.
        for (category, cycles) in run.breakdown.iter() {
            let name = format!("{prefix}{category}");
            assert_eq!(
                run.metrics.counter_value(&name),
                Some(cycles.get()),
                "{arch}/{kernel}: {name} must mirror the breakdown"
            );
        }
        cells += 1;
    }
    assert_eq!(cells, Architecture::ALL.len() * Kernel::ALL.len());
}

#[test]
fn every_cell_carries_a_nonempty_metrics_report() {
    let (table, _) = small_table3();
    for (arch, kernel, run) in table.iter() {
        assert!(!run.metrics.is_empty(), "{arch}/{kernel} has no metrics");
        // The run-level counters every engine's account exports must be
        // present and agree with the KernelRun fields.
        let prefix = arch.engine();
        assert_eq!(
            run.metrics.counter_value(&format!("{prefix}.run.ops")),
            Some(run.ops_executed),
            "{arch}/{kernel}: run.ops mirrors ops_executed"
        );
        assert_eq!(
            run.metrics.counter_value(&format!("{prefix}.run.mem_words")),
            Some(run.mem_words),
            "{arch}/{kernel}: run.mem_words mirrors mem_words"
        );
        // The watchdog counted at least every cycle the run was charged.
        let spent = run.metrics.counter_value(&format!("{prefix}.budget.spent"));
        assert!(spent >= Some(run.cycles.get()), "{arch}/{kernel}: budget.spent {spent:?}");
        for rate in ["achieved_bw", "achieved_ops"] {
            let name = format!("{prefix}.run.{rate}");
            assert!(run.metrics.get(&name).is_some(), "{arch}/{kernel}: {name} missing");
        }
        // Only the engines that hide work under overlap or a makespan
        // report it.
        let hides = matches!(arch, Architecture::Viram | Architecture::Imagine | Architecture::Dpu);
        let hidden = run.metrics.counter_value(&format!("{prefix}.run.hidden_cycles"));
        assert_eq!(hidden.is_some(), hides, "{arch}/{kernel}: run.hidden_cycles {hidden:?}");
    }
}

/// perfgate gates cycles and breakdown categories, which a DRAM model
/// that miscounted row misses or bank conflicts could still match, so
/// these two counters are pinned per cell on the small set.
#[test]
fn dram_row_misses_and_bank_conflicts_are_pinned_on_the_small_set() {
    // (arch, kernel, `<arch>.dram.row_misses`, `<arch>.dram.bank_conflicts`)
    const PINNED: [(Architecture, Kernel, u64, u64); 9] = [
        (Architecture::Viram, Kernel::CornerTurn, 8, 0),
        (Architecture::Viram, Kernel::Cslc, 456, 56),
        (Architecture::Viram, Kernel::BeamSteering, 4, 7),
        (Architecture::Imagine, Kernel::CornerTurn, 20, 0),
        (Architecture::Imagine, Kernel::Cslc, 140, 0),
        (Architecture::Imagine, Kernel::BeamSteering, 4, 0),
        (Architecture::Raw, Kernel::CornerTurn, 16, 0),
        (Architecture::Raw, Kernel::Cslc, 16, 0),
        (Architecture::Raw, Kernel::BeamSteering, 16, 0),
    ];
    let (table, _) = small_table3();
    for (arch, kernel, row_misses, bank_conflicts) in PINNED {
        let run = table.run(arch, kernel);
        let prefix = arch.engine();
        assert_eq!(
            run.metrics.counter_value(&format!("{prefix}.dram.row_misses")),
            Some(row_misses),
            "{arch}/{kernel}: dram.row_misses"
        );
        assert_eq!(
            run.metrics.counter_value(&format!("{prefix}.dram.bank_conflicts")),
            Some(bank_conflicts),
            "{arch}/{kernel}: dram.bank_conflicts"
        );
    }
}

/// Renders every representation of every cell's metrics into one string.
fn render_all(table: &Table3, workloads: &WorkloadSet) -> String {
    let scorecard = Scorecard::compute(table, workloads).expect("scorecard computes");
    let mut out = String::new();
    for (arch, kernel, run) in table.iter() {
        let mut report = run.metrics.clone();
        scorecard.cell(arch, kernel).export_metrics(&mut report);
        out.push_str(&format!("== {arch}/{kernel} ==\n"));
        out.push_str(&report.render_prometheus());
        out.push_str(&report.render_json());
    }
    out.push_str(&scorecard.render());
    out
}

#[test]
fn metrics_are_byte_identical_across_worker_counts() {
    let workloads = WorkloadSet::small(7).expect("small workloads build");
    let serial = experiments::table3_jobs(&workloads, 1).expect("serial table3").0;
    let reference = render_all(&serial, &workloads);
    for jobs in [2usize, 16] {
        let (parallel, stats) =
            experiments::table3_jobs(&workloads, jobs).expect("parallel table3");
        assert_eq!(stats.jobs, Architecture::ALL.len() * Kernel::ALL.len());
        assert_eq!(
            render_all(&parallel, &workloads),
            reference,
            "metrics must be byte-identical at --jobs {jobs}"
        );
    }
}

#[test]
fn roofline_scorecard_passes_on_every_cell() {
    let (table, workloads) = small_table3();
    let scorecard = Scorecard::compute(&table, &workloads).expect("scorecard computes");
    assert!(scorecard.all_within_roofline(), "{}", scorecard.render());
    assert!(scorecard.ordering_violations().is_empty(), "{}", scorecard.render());
}

/// Builds a histogram over the standard cycle edges from observations.
fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::cycles();
    for &v in values {
        h.observe(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn histogram_merge_is_commutative(
        a in proptest::collection::vec(0u64..1 << 26, 0..64),
        b in proptest::collection::vec(0u64..1 << 26, 0..64),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb).expect("same edges");
        let mut ba = hb.clone();
        ba.merge(&ha).expect("same edges");
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(0u64..1 << 26, 0..48),
        b in proptest::collection::vec(0u64..1 << 26, 0..48),
        c in proptest::collection::vec(0u64..1 << 26, 0..48),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        // (a + b) + c
        let mut left = ha.clone();
        left.merge(&hb).expect("same edges");
        left.merge(&hc).expect("same edges");
        // a + (b + c)
        let mut bc = hb.clone();
        bc.merge(&hc).expect("same edges");
        let mut right = ha.clone();
        right.merge(&bc).expect("same edges");
        prop_assert_eq!(left, right);
    }

    #[test]
    fn histogram_merge_equals_merged_observation_stream(
        a in proptest::collection::vec(0u64..1 << 26, 0..64),
        b in proptest::collection::vec(0u64..1 << 26, 0..64),
    ) {
        // Observing the concatenated stream gives the same histogram as
        // merging the two halves — the property that makes per-job
        // histograms safe to aggregate in any order.
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b)).expect("same edges");
        let combined: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged, hist_of(&combined));
    }

    #[test]
    fn report_merge_is_order_independent_for_counters_and_histograms(
        xs in proptest::collection::vec(0u64..1 << 20, 1..32),
        ys in proptest::collection::vec(0u64..1 << 20, 1..32),
    ) {
        let build = |values: &[u64]| {
            let mut r = MetricsReport::new();
            for &v in values {
                r.add_counter("t.count", 1);
                r.add_counter("t.sum", v);
                r.observe("t.hist", v);
            }
            r
        };
        let (ra, rb) = (build(&xs), build(&ys));
        let mut ab = ra.clone();
        ab.merge(&rb).expect("same shapes");
        let mut ba = rb.clone();
        ba.merge(&ra).expect("same shapes");
        prop_assert_eq!(ab.render_prometheus(), ba.render_prometheus());
        prop_assert_eq!(
            ab.counter_value("t.count"),
            Some((xs.len() + ys.len()) as u64)
        );
    }
}

#[test]
fn standard_cycle_edges_are_strictly_ascending_powers_of_two() {
    assert!(CYCLE_EDGES.windows(2).all(|w| w[0] < w[1]));
    for w in CYCLE_EDGES.windows(2) {
        assert_eq!(w[1], w[0] * 2, "cycle edges double: {w:?}");
    }
    // The Metric wrapper renders histograms with a stable kind tag.
    let h = Histogram::cycles();
    assert_eq!(Metric::Histogram(h).kind(), "histogram");
}
