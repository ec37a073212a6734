//! Span-label hygiene: every counted trace span the Imagine engine emits
//! must use fold-safe frame labels (`[A-Za-z0-9._/-]`), so the
//! collapsed-stack profiles in `triarch-profile` never need lossy
//! sanitization and the flamegraph color keys stay 1:1 with the
//! engine's `CycleBreakdown` categories. The fold totals must also
//! re-add to the reported cycle counts exactly (the counted-span
//! contract).

use triarch_imagine::Imagine;
use triarch_kernels::{Kernel, RunCtx, SignalMachine, WorkloadSet};
use triarch_profile::{is_fold_safe, FoldSink};

#[test]
fn all_counted_span_labels_are_fold_safe() {
    let workloads = WorkloadSet::small(7).unwrap();
    let mut machine = Imagine::new().unwrap();

    let mut traced = |kernel| {
        let mut sink = FoldSink::new();
        let ctx = RunCtx { sink: Some(&mut sink), ..RunCtx::default() };
        let run = machine.run_with(workloads.input(kernel), ctx).unwrap();
        (run, sink.into_fold())
    };
    let (ct, ct_fold) = traced(Kernel::CornerTurn);
    let (cslc, cslc_fold) = traced(Kernel::Cslc);
    let (bs, bs_fold) = traced(Kernel::BeamSteering);

    for (kernel, run, fold) in [
        ("corner turn", &ct, &ct_fold),
        ("cslc", &cslc, &cslc_fold),
        ("beam steering", &bs, &bs_fold),
    ] {
        assert!(!fold.is_empty(), "{kernel}: no counted spans");
        assert_eq!(fold.total(), run.cycles.get(), "{kernel}: fold drift");
        for (category, name, _) in fold.iter() {
            assert!(is_fold_safe(category), "{kernel}: unsafe category label '{category}'");
            assert!(is_fold_safe(name), "{kernel}: unsafe span label '{name}'");
        }
    }
}
