//! Fault-injection and watchdog integration tests.
//!
//! Three guarantees pin the robustness subsystem:
//!
//! 1. **Determinism** — a fault sweep is a pure function of its seed:
//!    re-running the same sweep yields byte-identical tables, CSVs,
//!    reports, and plans (property-tested over seeds).
//! 2. **Zero-cost default** — running every engine on the dyn path a
//!    faulted run takes, with [`NoFaults`] and an unlimited budget,
//!    reproduces the static path's cycle counts, breakdowns and metrics
//!    bit-for-bit, so the instrumentation cannot perturb the paper's
//!    numbers.
//! 3. **Bounded termination** — a deliberately tiny cycle budget makes
//!    every machine × kernel run abort with
//!    [`SimError::BudgetExceeded`] instead of running unboundedly.

use proptest::prelude::*;
use triarch_core::arch::Architecture;
use triarch_core::faultsweep;
use triarch_kernels::{Kernel, RunCtx, WorkloadSet};
use triarch_profile::FoldSink;
use triarch_simcore::faults::{FaultInjector, FaultPlan, FaultWeights, NoFaults};
use triarch_simcore::{CycleBudget, SimError};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seed, same sweep: rendered table, CSV, outcomes, reports,
    /// and derived plans are all byte-identical.
    #[test]
    fn same_seed_sweeps_are_byte_identical(seed in any::<u64>()) {
        let workloads = WorkloadSet::small(5).unwrap();
        let a = faultsweep::sweep(&workloads, seed, 1).unwrap();
        let b = faultsweep::sweep(&workloads, seed, 1).unwrap();
        prop_assert_eq!(a.render(), b.render());
        prop_assert_eq!(a.to_csv(), b.to_csv());
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            prop_assert_eq!(ra.outcome, rb.outcome);
            prop_assert_eq!(ra.report, rb.report);
            prop_assert_eq!(&ra.plan, &rb.plan);
            prop_assert_eq!(&ra.abort, &rb.abort);
        }
    }

    /// Fault effects are a pure function of the plan: two injectors
    /// executing the same campaign against the same machine agree on the
    /// tally even when runs end in a detected abort.
    #[test]
    fn campaign_runs_replay_exactly(seed in any::<u64>(), campaign in 0u64..16) {
        let workloads = WorkloadSet::small(5).unwrap();
        let a = faultsweep::campaign_run(
            Architecture::Viram, Kernel::CornerTurn, &workloads, seed, campaign).unwrap();
        let b = faultsweep::campaign_run(
            Architecture::Viram, Kernel::CornerTurn, &workloads, seed, campaign).unwrap();
        prop_assert_eq!(a.outcome, b.outcome);
        prop_assert_eq!(a.report, b.report);
    }
}

/// `NoFaults` + unlimited budget must be invisible: the dyn path a
/// faulted run takes (`faults: Some(&mut NoFaults)`) reproduces the
/// static `<NullSink, NoFaults>` path's cycles, breakdown, rendered
/// metrics and verification exactly on every machine × kernel pair. And
/// with a live injector, attaching a `FoldSink` to the same run changes
/// nothing: the cycles match the faulted-only run and the fold re-adds
/// to them with drift 0.
#[test]
fn nofaults_reproduces_unfaulted_cycles_exactly() {
    let workloads = WorkloadSet::small(42).unwrap();
    // Faults that fire on every cell but never abort: ECC corrects each
    // single-bit flip and stalls always recover.
    let plan = FaultPlan {
        mean_words_between_faults: 256,
        weights: FaultWeights {
            single_bit: 1,
            double_bit: 0,
            triple_bit: 0,
            dropped: 0,
            stalled: 1,
        },
        ..FaultPlan::new(7)
    };
    for arch in Architecture::ALL {
        for kernel in Kernel::ALL {
            let input = workloads.input(kernel);
            let plain = arch.machine().unwrap().run_with(input, RunCtx::default()).unwrap();
            let ctx = RunCtx {
                faults: Some(&mut NoFaults),
                budget: CycleBudget::UNLIMITED,
                ..RunCtx::default()
            };
            let dyn_path = arch.machine().unwrap().run_with(input, ctx).unwrap();
            assert_eq!(
                plain.cycles, dyn_path.cycles,
                "{arch}/{kernel}: NoFaults changed the cycle count"
            );
            assert_eq!(
                plain.breakdown.to_string(),
                dyn_path.breakdown.to_string(),
                "{arch}/{kernel}: NoFaults changed the breakdown"
            );
            assert_eq!(
                plain.metrics.render_prometheus(),
                dyn_path.metrics.render_prometheus(),
                "{arch}/{kernel}: NoFaults changed the rendered metrics"
            );
            assert_eq!(format!("{:?}", plain.verification), format!("{:?}", dyn_path.verification));

            let mut injector = FaultInjector::new(plan.clone());
            let ctx = RunCtx { faults: Some(&mut injector), ..RunCtx::default() };
            let faulted = arch.machine().unwrap().run_with(input, ctx).unwrap();
            assert!(injector.report().injected > 0, "{arch}/{kernel}: no fault fired");
            let mut injector = FaultInjector::new(plan.clone());
            let mut fold = FoldSink::new();
            let ctx =
                RunCtx { sink: Some(&mut fold), faults: Some(&mut injector), ..RunCtx::default() };
            let traced = arch.machine().unwrap().run_with(input, ctx).unwrap();
            assert_eq!(faulted.cycles, traced.cycles, "{arch}/{kernel}: tracing moved cycles");
            assert_eq!(
                fold.into_fold().total(),
                traced.cycles.get(),
                "{arch}/{kernel}: fold drift"
            );
        }
    }
}

/// A quiet fault plan (ECC on, but a rate so low nothing fires on a
/// small workload) must also leave the cycle counts untouched: the cost
/// model charges only actual fault work.
#[test]
fn silent_injector_matches_unfaulted_cycles() {
    let workloads = WorkloadSet::small(42).unwrap();
    let plan = FaultPlan { mean_words_between_faults: u64::MAX / 4, ..FaultPlan::new(1) };
    for arch in Architecture::ALL {
        let plain = arch.machine().unwrap().run(Kernel::CornerTurn, &workloads).unwrap();
        let mut injector = FaultInjector::new(plan.clone());
        let ctx = RunCtx { faults: Some(&mut injector), ..RunCtx::default() };
        let faulted =
            arch.machine().unwrap().run_with(workloads.input(Kernel::CornerTurn), ctx).unwrap();
        assert_eq!(injector.report().injected, 0, "{arch}: fault fired unexpectedly");
        assert_eq!(plain.cycles, faulted.cycles, "{arch}");
    }
}

/// The watchdog: a deliberately tiny budget terminates every machine ×
/// kernel pair with `SimError::BudgetExceeded` — no run survives, hangs,
/// or panics.
#[test]
fn tiny_budget_terminates_every_engine() {
    let workloads = WorkloadSet::small(42).unwrap();
    for arch in Architecture::ALL {
        for kernel in Kernel::ALL {
            let ctx = RunCtx {
                faults: Some(&mut NoFaults),
                budget: CycleBudget::limited(10),
                ..RunCtx::default()
            };
            let result = arch.machine().unwrap().run_with(workloads.input(kernel), ctx);
            match result {
                Err(SimError::BudgetExceeded { spent, limit }) => {
                    assert_eq!(limit, 10, "{arch}/{kernel}");
                    assert!(spent > limit, "{arch}/{kernel}: spent {spent} <= limit {limit}");
                }
                other => panic!("{arch}/{kernel}: expected BudgetExceeded, got {other:?}"),
            }
        }
    }
}

/// An oversized workload under a realistic-but-insufficient budget also
/// trips the watchdog: budgets bound wall-clock for paper-sized runs too.
#[test]
fn oversized_workload_trips_a_realistic_budget() {
    let workloads = WorkloadSet::paper(42).unwrap();
    let ctx = RunCtx {
        faults: Some(&mut NoFaults),
        budget: CycleBudget::limited(1_000),
        ..RunCtx::default()
    };
    let err = Architecture::Viram
        .machine()
        .unwrap()
        .run_with(workloads.input(Kernel::CornerTurn), ctx)
        .expect_err("a 1024x1024 corner turn cannot fit in 1000 cycles");
    assert!(err.is_detected_abort(), "{err:?}");
    assert!(err.to_string().contains("budget"), "{err}");
}

/// Budgets also bound the *unfaulted* paths: a context carrying only a
/// budget takes the static `<NullSink, NoFaults>` instantiation, and the
/// watchdog still fires on every machine × kernel pair.
#[test]
fn budget_applies_to_plain_runs_too() {
    let workloads = WorkloadSet::small(42).unwrap();
    for arch in Architecture::ALL {
        for kernel in Kernel::ALL {
            let ctx = RunCtx { budget: CycleBudget::limited(10), ..RunCtx::default() };
            let result = arch.machine().unwrap().run_with(workloads.input(kernel), ctx);
            assert!(
                matches!(result, Err(SimError::BudgetExceeded { .. })),
                "{arch}/{kernel}: plain run ignored the budget: {result:?}"
            );
        }
    }
}
