//! Paper-scale reproduction tests: run the full Table 3 workloads and
//! check every cell lands within the documented band of the published
//! number, and that every ordering and headline claim from Section 4
//! holds.
//!
//! These tests run the full 1024x1024 corner turn, the 73-sub-band CSLC,
//! and the 8-dwell beam steer on all five machines; expect tens of
//! seconds in debug builds.

use std::sync::OnceLock;

use triarch_core::arch::Architecture;
use triarch_core::experiments::{self, Table3};
use triarch_core::paper;
use triarch_kernels::{Kernel, WorkloadSet};

fn paper_table3() -> &'static Table3 {
    static TABLE: OnceLock<Table3> = OnceLock::new();
    TABLE.get_or_init(|| {
        let workloads = WorkloadSet::paper(42).expect("paper workloads build");
        experiments::table3_jobs(&workloads, 1).expect("paper-scale run succeeds").0
    })
}

#[test]
fn every_cell_is_within_the_reproduction_band() {
    let table = paper_table3();
    for arch in Architecture::ALL {
        for kernel in Kernel::ALL {
            let ours = table.cycles(arch, kernel).to_kilocycles();
            let published = paper::table3_kilocycles(arch, kernel);
            let ratio = ours / published;
            assert!(
                (paper::BAND_LO..=paper::BAND_HI).contains(&ratio),
                "{arch}/{kernel}: {ours:.0} kc vs published {published:.0} kc (ratio {ratio:.2})"
            );
        }
    }
}

#[test]
fn paper_scale_outputs_verify() {
    let table = paper_table3();
    for (arch, kernel, run) in table.iter() {
        let tolerance = match kernel {
            Kernel::Cslc => triarch_kernels::verify::CSLC_TOLERANCE,
            _ => 0.0,
        };
        assert!(run.verification.is_ok(tolerance), "{arch}/{kernel}: {:?}", run.verification);
    }
}

#[test]
fn per_kernel_winners_match_the_paper() {
    let table = paper_table3();
    let ct = |a| table.cycles(a, Kernel::CornerTurn);
    let cs = |a| table.cycles(a, Kernel::Cslc);
    let bs = |a| table.cycles(a, Kernel::BeamSteering);

    // Corner turn: Raw < VIRAM < Imagine < baselines.
    assert!(ct(Architecture::Raw) < ct(Architecture::Viram));
    assert!(ct(Architecture::Viram) < ct(Architecture::Imagine));
    assert!(ct(Architecture::Imagine) < ct(Architecture::Altivec));
    // CSLC: Imagine < Raw < VIRAM < baselines.
    assert!(cs(Architecture::Imagine) < cs(Architecture::Raw));
    assert!(cs(Architecture::Raw) < cs(Architecture::Viram));
    assert!(cs(Architecture::Viram) < cs(Architecture::Altivec));
    // Beam steering: Raw < VIRAM < Imagine < baselines.
    assert!(bs(Architecture::Raw) < bs(Architecture::Viram));
    assert!(bs(Architecture::Viram) < bs(Architecture::Imagine));
    assert!(bs(Architecture::Imagine) < bs(Architecture::Altivec));
}

#[test]
fn headline_speedups_hold() {
    let table = paper_table3();
    let f8 = experiments::figure8(table);

    // "All three architectures provided speedups of more than 20 compared
    // with a PowerPC system" on the corner turn (cycles).
    for arch in Architecture::RESEARCH {
        let vs_ppc = table.cycles(Architecture::Ppc, Kernel::CornerTurn).get() as f64
            / table.cycles(arch, Kernel::CornerTurn).get() as f64;
        assert!(vs_ppc > 20.0, "{arch} corner-turn speedup vs PPC: {vs_ppc:.1}");
    }

    // "VIRAM outperformed the G4 Altivec by more than a factor of 10 on
    // all three of our kernels."
    for kernel in Kernel::ALL {
        let s = f8.value(Architecture::Viram, kernel);
        assert!(s > 10.0, "VIRAM vs AltiVec on {kernel}: {s:.1}");
    }
}

#[test]
fn altivec_gains_match_section_4_5() {
    let table = paper_table3();
    let gain = |k| {
        table.cycles(Architecture::Ppc, k).get() as f64
            / table.cycles(Architecture::Altivec, k).get() as f64
    };
    // "about six for the CSLC"
    let cslc = gain(Kernel::Cslc);
    assert!(cslc > 3.5 && cslc < 9.0, "CSLC AltiVec gain {cslc:.2}");
    // "about two for beam steering"
    let bs = gain(Kernel::BeamSteering);
    assert!(bs > 1.4 && bs < 3.5, "beam steering AltiVec gain {bs:.2}");
    // "does not significantly improve performance for the corner turn"
    let ct = gain(Kernel::CornerTurn);
    assert!(ct > 0.9 && ct < 1.6, "corner turn AltiVec gain {ct:.2}");
}

#[test]
fn section_4_breakdowns_match() {
    let table = paper_table3();

    // §4.2: Imagine corner turn is ~87% memory.
    let imagine_ct = table.run(Architecture::Imagine, Kernel::CornerTurn);
    let mem = imagine_ct.breakdown.fraction("memory") + imagine_ct.breakdown.fraction("precharge");
    assert!(mem > 0.75 && mem <= 1.0, "Imagine CT memory fraction {mem:.2}");

    // §4.2: Raw corner turn is issue-bound.
    let raw_ct = table.run(Architecture::Raw, Kernel::CornerTurn);
    assert!(raw_ct.breakdown.fraction("issue") > 0.9, "{}", raw_ct.breakdown);

    // §4.3: Raw CSLC memory stalls stay under ~10%.
    let raw_cslc = table.run(Architecture::Raw, Kernel::Cslc);
    assert!(raw_cslc.breakdown.fraction("stall") < 0.1, "{}", raw_cslc.breakdown);

    // §4.3: Raw sustains roughly a third of peak on CSLC (paper: 31.4%).
    let util = raw_cslc.utilization(16.0);
    assert!(util > 0.2 && util < 0.45, "Raw CSLC utilization {util:.3}");

    // §4.3: Imagine sustains ~10 useful ops/cycle on CSLC.
    let imagine_cslc = table.run(Architecture::Imagine, Kernel::Cslc);
    let opc = imagine_cslc.ops_per_cycle();
    assert!(opc > 6.0 && opc < 16.0, "Imagine CSLC ops/cycle {opc:.1}");

    // §4.4: Imagine beam steering is ~89% loads/stores.
    let imagine_bs = table.run(Architecture::Imagine, Kernel::BeamSteering);
    let mem = imagine_bs.breakdown.fraction("memory") + imagine_bs.breakdown.fraction("precharge");
    assert!(mem > 0.7, "Imagine BS memory fraction {mem:.2}");
}

#[test]
fn simulation_never_beats_its_own_roofline() {
    // The Section 2.5 model is a lower bound: simulated cycles must be at
    // least the model's prediction for the matching demand. Covers the G4
    // baselines too: `model_demands` drops the off-chip term on cached
    // cells whose working set fits in L2, keeping the bound valid.
    let table = paper_table3();
    let workloads = WorkloadSet::paper(42).unwrap();
    for arch in Architecture::ALL {
        for kernel in Kernel::ALL {
            let model = arch.machine().unwrap().info().throughput;
            let demands = experiments::model_demands(arch, kernel, &workloads);
            let bound = model.predict(&demands).unwrap();
            let simulated = table.cycles(arch, kernel);
            assert!(
                simulated >= bound,
                "{arch}/{kernel}: simulated {simulated} under model bound {bound}"
            );
        }
    }
}
