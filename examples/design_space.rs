//! Design-space exploration: vary the headline resource of each research
//! machine and measure the sensitivity of the kernel it stresses — the
//! kind of question the simulators make cheap to ask.
//!
//! - VIRAM: number of strided-access address generators (corner turn).
//! - Imagine: off-chip words/cycle (corner turn — the paper notes the 2
//!   words/cycle interface was "a processor implementation choice").
//! - Raw: mesh size (beam steering).
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use triarch_core::report::TextTable;
use triarch_imagine::{Imagine, ImagineConfig};
use triarch_kernels::{
    BeamSteeringWorkload, CornerTurnWorkload, KernelInput, RunCtx, SignalMachine,
};
use triarch_raw::{Raw, RawConfig};
use triarch_viram::{Viram, ViramConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ct = CornerTurnWorkload::with_dims(512, 512, 9)?;
    let bs = BeamSteeringWorkload::paper(9)?;

    println!("VIRAM corner turn vs strided address generators:");
    let mut t = TextTable::new(vec!["AGs (strided w/c)", "kilocycles"]);
    for ags in [1u32, 2, 4, 8] {
        let mut cfg = ViramConfig::paper();
        cfg.dram.strided_words_per_cycle = ags;
        let run =
            Viram::with_config(cfg)?.run_with(KernelInput::CornerTurn(&ct), RunCtx::default())?;
        t.row(vec![ags.to_string(), format!("{:.0}", run.cycles.to_kilocycles())]);
    }
    println!("{t}");

    println!("Imagine corner turn vs off-chip interface width:");
    let mut t = TextTable::new(vec!["words/cycle", "kilocycles"]);
    for wpc in [1u32, 2, 4, 8] {
        let mut cfg = ImagineConfig::paper();
        cfg.dram.seq_words_per_cycle = wpc;
        cfg.dram.strided_words_per_cycle = wpc;
        let run =
            Imagine::with_config(cfg)?.run_with(KernelInput::CornerTurn(&ct), RunCtx::default())?;
        t.row(vec![wpc.to_string(), format!("{:.0}", run.cycles.to_kilocycles())]);
    }
    println!("{t}");

    println!("Raw beam steering vs mesh size:");
    let mut t = TextTable::new(vec!["tiles", "kilocycles"]);
    for width in [2usize, 4, 8] {
        let mut cfg = RawConfig::paper();
        cfg.mesh_width = width;
        let run =
            Raw::with_config(cfg)?.run_with(KernelInput::BeamSteering(&bs), RunCtx::default())?;
        t.row(vec![(width * width).to_string(), format!("{:.1}", run.cycles.to_kilocycles())]);
    }
    println!("{t}");

    Ok(())
}
