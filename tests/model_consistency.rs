//! Consistency between the static models (Tables 1/2/4) and the
//! simulators, plus failure-injection tests: misconfigured machines must
//! return typed errors, never panic.

use triarch_core::arch::Architecture;
use triarch_core::paper;
use triarch_imagine::{Imagine, ImagineConfig};
use triarch_kernels::{
    CornerTurnWorkload, Kernel, KernelInput, RunCtx, SignalMachine as _, WorkloadSet,
};
use triarch_raw::{Raw, RawConfig};
use triarch_simcore::SimError;
use triarch_viram::{Viram, ViramConfig};

#[test]
fn machine_infos_match_published_tables() {
    for arch in Architecture::ALL {
        let machine = arch.machine().unwrap();
        let (clock, alus, gflops) = paper::table2_parameters(arch);
        assert_eq!(machine.info().clock.mhz(), clock, "{arch} clock");
        assert_eq!(machine.info().alu_count, alus, "{arch} ALUs");
        assert!((machine.info().peak_gflops - gflops).abs() < 0.2, "{arch} GFLOPS");
        if let Some((on, off, ops)) = paper::table1_throughput(arch) {
            let t = machine.info().throughput;
            assert_eq!(t.onchip_words_per_cycle, on, "{arch} on-chip");
            assert_eq!(t.offchip_words_per_cycle, off, "{arch} off-chip");
            assert_eq!(t.ops_per_cycle, ops, "{arch} compute");
        }
    }
}

#[test]
fn invalid_configs_are_rejected_not_panicked() {
    let mut cfg = ViramConfig::paper();
    cfg.lanes = 0;
    assert!(matches!(Viram::with_config(cfg), Err(SimError::InvalidConfig { .. })));

    let mut cfg = ImagineConfig::paper();
    cfg.srf_words = 0;
    assert!(matches!(Imagine::with_config(cfg), Err(SimError::InvalidConfig { .. })));

    let mut cfg = RawConfig::paper();
    cfg.mesh_width = 0;
    assert!(matches!(Raw::with_config(cfg), Err(SimError::InvalidConfig { .. })));
}

#[test]
fn oversized_workloads_surface_capacity_errors() {
    // 8192x8192 = 256 MB exceeds the configured off-chip memories.
    let w = CornerTurnWorkload::with_dims(8192, 8192, 0).unwrap();
    for arch in [Architecture::Imagine, Architecture::Raw] {
        let err = arch
            .machine()
            .unwrap()
            .run_with(KernelInput::CornerTurn(&w), RunCtx::default())
            .unwrap_err();
        assert!(matches!(err, SimError::Capacity { .. }), "{arch}: {err}");
    }
    // VIRAM streams oversized matrices from off chip (Section 4.6), but a
    // single row wider than the on-chip DRAM still cannot be processed.
    let w = CornerTurnWorkload::with_dims(2, 2_000_000, 0).unwrap();
    let err = Architecture::Viram
        .machine()
        .unwrap()
        .run_with(KernelInput::CornerTurn(&w), RunCtx::default())
        .unwrap_err();
    assert!(matches!(err, SimError::Capacity { .. }), "viram: {err}");
}

#[test]
fn viram_loses_its_advantage_off_chip() {
    // Paper Section 4.6: once the matrix no longer fits the on-chip
    // DRAM, VIRAM's corner turn degrades to the off-chip interface and
    // Imagine-class performance.
    let w = CornerTurnWorkload::with_dims(2048, 2048, 0).unwrap();
    let viram = Architecture::Viram
        .machine()
        .unwrap()
        .run_with(KernelInput::CornerTurn(&w), RunCtx::default())
        .unwrap()
        .cycles;
    let imagine = Architecture::Imagine
        .machine()
        .unwrap()
        .run_with(KernelInput::CornerTurn(&w), RunCtx::default())
        .unwrap()
        .cycles;
    let ratio = viram.ratio(imagine);
    assert!(ratio > 0.5 && ratio < 2.0, "off-chip VIRAM should be Imagine-class, ratio {ratio:.2}");
}

#[test]
fn workload_scaling_is_monotone() {
    // Doubling the matrix roughly quadruples the work on every machine.
    // (Sizes start at 256 so that even Raw's 16-tile rounds are full —
    // below that, extra blocks ride along on idle tiles for free.)
    for arch in Architecture::ALL {
        let small = CornerTurnWorkload::with_dims(256, 256, 1).unwrap();
        let large = CornerTurnWorkload::with_dims(512, 512, 1).unwrap();
        let mut m = arch.machine().unwrap();
        let a = m.run_with(KernelInput::CornerTurn(&small), RunCtx::default()).unwrap().cycles;
        let b = m.run_with(KernelInput::CornerTurn(&large), RunCtx::default()).unwrap().cycles;
        let ratio = b.ratio(a);
        assert!(ratio > 2.0, "{arch}: scaling ratio {ratio:.2} too small");
    }
}

#[test]
fn faster_clocks_do_not_change_cycle_counts() {
    // Cycle counts are clock-independent; only Figure 9 conversions use
    // the clock. Guard against accidental time/cycle mixing.
    let w = WorkloadSet::small(8).unwrap();
    let mut cfg_a = ViramConfig::paper();
    let baseline =
        Viram::with_config(cfg_a.clone()).unwrap().run(Kernel::CornerTurn, &w).unwrap().cycles;
    cfg_a.clock_mhz = 400.0;
    let faster = Viram::with_config(cfg_a).unwrap().run(Kernel::CornerTurn, &w).unwrap().cycles;
    assert_eq!(baseline, faster);
}
