//! Corner-turn shootout: sweep the matrix size across every machine row
//! and watch the regimes the paper describes — the G4's cache wall, the
//! Imagine off-chip pin bound, Raw's issue bound, and VIRAM falling off
//! the cliff at 2048x2048 when the matrix no longer fits its 13 MB of
//! on-chip DRAM and must stream through the 2-words/cycle off-chip
//! interface (Section 4.6). The DPU row's host memory holds no 2048x2048
//! corner turn, so that cell reads "doesn't fit".
//!
//! ```sh
//! cargo run --release --example corner_turn_shootout
//! ```

use triarch_core::arch::Architecture;
use triarch_core::report::TextTable;
use triarch_kernels::{CornerTurnWorkload, KernelInput, RunCtx};
use triarch_simcore::SimError;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut headers = vec!["matrix"];
    headers.extend(Architecture::ALL.map(Architecture::name));
    let mut table = TextTable::new(headers);

    for dim in [128usize, 256, 512, 1024, 2048] {
        let workload = CornerTurnWorkload::with_dims(dim, dim, 7)?;
        let mut cells = vec![format!("{dim}x{dim}")];
        for arch in Architecture::ALL {
            let input = KernelInput::CornerTurn(&workload);
            let cell = match arch.machine()?.run_with(input, RunCtx::default()) {
                Ok(run) => format!("{:.0} kc", run.cycles.to_kilocycles()),
                Err(SimError::Capacity { .. }) => "doesn't fit".to_string(),
                Err(e) => return Err(e.into()),
            };
            cells.push(cell);
        }
        table.row(cells);
    }

    println!("corner-turn cycles by matrix size:\n");
    println!("{table}");
    Ok(())
}
