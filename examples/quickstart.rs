//! Quickstart: run one kernel on one simulated machine and inspect the
//! result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use triarch_kernels::{CornerTurnWorkload, KernelInput, RunCtx, SignalMachine};
use triarch_viram::Viram;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 256x256 corner turn (the paper uses 1024x1024; see the
    // radar_pipeline example for the full reproduction).
    let workload = CornerTurnWorkload::with_dims(256, 256, 42)?;

    let mut machine = Viram::new()?;
    println!("machine: {}", machine.info());

    // Every machine has one entry: the kernel input plus a run context
    // (trace sink, fault hook, cycle budget). The default context is a
    // plain run.
    let run = machine.run_with(KernelInput::CornerTurn(&workload), RunCtx::default())?;
    println!("\ncorner turn on VIRAM:");
    println!("{run}");

    println!(
        "\nsustained bandwidth: {:.2} words/cycle (peak on-chip: {} words/cycle)",
        run.mem_words as f64 / run.cycles.get() as f64,
        machine.info().throughput.onchip_words_per_cycle,
    );
    Ok(())
}
