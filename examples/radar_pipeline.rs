//! The full paper reproduction: all three radar kernels on all five
//! machines at the paper's workload sizes, printing Tables 1–4 and
//! Figures 8–9 plus the Section 4 cycle breakdowns.
//!
//! ```sh
//! cargo run --release --example radar_pipeline
//! ```

use triarch_core::{ablations, experiments};
use triarch_kernels::WorkloadSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Table 1: peak throughput (32-bit words per cycle) ==");
    println!("{}", experiments::table1());

    println!("== Table 2: processor parameters ==");
    println!("{}", experiments::table2());

    eprintln!("running all machines on paper-sized workloads ...");
    let workloads = WorkloadSet::paper(42)?;
    let table3 = experiments::table3_jobs(&workloads, 1)?.0;

    println!("== Table 3: experimental results (kilocycles) ==");
    println!("{}", table3.render());

    println!("== Table 3 vs published ==");
    println!("{}", table3.render_vs_paper());

    println!("== Table 4: performance-model lower bounds (kilocycles) ==");
    println!("{}", experiments::table4(&workloads)?);

    println!("== Figure 8: speedup over PPC+AltiVec (cycles) ==");
    println!("{}", experiments::figure8(&table3).render());

    println!("== Figure 9: speedup over PPC+AltiVec (execution time) ==");
    println!("{}", experiments::figure9(&table3).render());

    println!("== Section 4 claims scorecard ==");
    let claims = triarch_core::claims::evaluate(&table3);
    println!("{}", triarch_core::claims::render(&claims));

    println!("== Section 4 cycle breakdowns ==");
    println!("{}", table3.render_breakdowns());

    println!("== Ablations ==");
    println!("{}", ablations::render_all_jobs(&workloads, 1)?.0);
    Ok(())
}
