//! Cross-machine integration tests: every machine must produce correct
//! kernel outputs on a shared workload set, and the relative orderings
//! the paper reports must hold.

use triarch_core::arch::Architecture;
use triarch_core::experiments;
use triarch_kernels::{Kernel, WorkloadSet};

#[test]
fn all_machines_verify_on_shared_small_workloads() {
    let workloads = WorkloadSet::small(99).unwrap();
    let table = experiments::table3_jobs(&workloads, 1).unwrap().0;
    for (arch, kernel, run) in table.iter() {
        let tolerance = match kernel {
            Kernel::Cslc => triarch_kernels::verify::CSLC_TOLERANCE,
            _ => 0.0,
        };
        assert!(
            run.verification.is_ok(tolerance),
            "{arch}/{kernel} failed verification: {:?}",
            run.verification
        );
        assert!(run.cycles.get() > 0, "{arch}/{kernel} reported zero cycles");
    }
}

#[test]
fn outputs_are_identical_across_machines_for_integer_kernels() {
    // Corner turn and beam steering are integer kernels: all machines
    // must report BitExact against the same reference, i.e. they computed
    // the same answer.
    let workloads = WorkloadSet::small(7).unwrap();
    let table = experiments::table3_jobs(&workloads, 1).unwrap().0;
    for arch in Architecture::ALL {
        for kernel in [Kernel::CornerTurn, Kernel::BeamSteering] {
            assert_eq!(
                format!("{:?}", table.run(arch, kernel).verification),
                "BitExact",
                "{arch}/{kernel}"
            );
        }
    }
}

#[test]
fn research_machines_beat_the_baseline_on_small_workloads() {
    let workloads = WorkloadSet::small(3).unwrap();
    let table = experiments::table3_jobs(&workloads, 1).unwrap().0;
    for kernel in Kernel::ALL {
        let baseline = table.cycles(Architecture::Altivec, kernel);
        for arch in Architecture::RESEARCH {
            assert!(
                table.cycles(arch, kernel) < baseline,
                "{arch} should beat AltiVec on {kernel} even at small scale"
            );
        }
    }
}

#[test]
fn deterministic_across_repeat_runs() {
    let workloads = WorkloadSet::small(5).unwrap();
    let a = experiments::table3_jobs(&workloads, 1).unwrap().0;
    let b = experiments::table3_jobs(&workloads, 1).unwrap().0;
    for arch in Architecture::ALL {
        for kernel in Kernel::ALL {
            assert_eq!(a.cycles(arch, kernel), b.cycles(arch, kernel), "{arch}/{kernel}");
        }
    }
}
