//! Matrix multiplication on Raw — the Section 2.3 scaling claim.
//!
//! "Several kernels including matrix multiplication are implemented on
//! Raw … Raw obtains speedup of up to 12 relative to single-tile
//! performance on ILP benchmarks." Each tile owns a block of `C`; its
//! strip of `A` lives in the local store, while the matching strip of
//! `B` streams past on the static network (each `B` word is fetched from
//! a DRAM port once and forwarded down a tile column). Speedup over one
//! tile is sub-linear because of the network fill, the per-round
//! startup, and edge-block imbalance — landing near the paper's 12×.

use triarch_kernels::matmul::{max_error, MatmulWorkload};
use triarch_simcore::{AccessPattern, KernelRun, SimError, Verification};

use crate::config::RawConfig;
use crate::machine::RawMachine;
use crate::network::TileId;

/// Runs the blocked parallel matmul.
///
/// # Errors
///
/// Returns [`SimError`] if the matrices exceed off-chip memory or a
/// tile's strip of `A` cannot fit its local store.
pub fn run(cfg: &RawConfig, workload: &MatmulWorkload) -> Result<KernelRun, SimError> {
    let n = workload.n();
    let words = n * n;
    if 3 * words > cfg.mem_words {
        return Err(SimError::capacity("raw off-chip memory", 3 * words, cfg.mem_words));
    }
    let grid = cfg.mesh_width;
    let block = n.div_ceil(grid);
    // Each tile holds its strip of A (block rows) plus one streamed
    // column block of B at a time.
    let local_needed = block * n + block * block;
    if local_needed > cfg.local_words {
        return Err(SimError::capacity("raw tile local memory", local_needed, cfg.local_words));
    }

    let mut m = RawMachine::new(cfg)?;
    let a = workload.a();
    let b = workload.b();
    let reference = workload.reference_product();
    let mut c = vec![0.0f32; words];

    m.begin_phase()?;
    // A strips load once, sequentially, through the DRAM ports.
    m.dram_traffic(0, words, AccessPattern::Sequential)?;
    // B is read once from the ports and forwarded down each tile column:
    // each tile receives its n x block strip over the network.
    m.dram_traffic(words, words, AccessPattern::Sequential)?;

    for ti in 0..grid {
        for tj in 0..grid {
            let tile = TileId { x: tj, y: ti }.index(grid);
            let i0 = ti * block;
            let j0 = tj * block;
            let i1 = (i0 + block).min(n);
            let j1 = (j0 + block).min(n);
            if i0 >= n || j0 >= n {
                continue;
            }
            let rows = i1 - i0;
            let cols = j1 - j0;

            // Functional block computation.
            for i in i0..i1 {
                for j in j0..j1 {
                    let mut acc = 0.0f64;
                    for k in 0..n {
                        acc += f64::from(a[i * n + k]) * f64::from(b[k * n + j]);
                    }
                    c[i * n + j] = acc as f32;
                }
            }

            // Timing: per C element, n multiply-adds (2 instrs as mul +
            // add on the single-issue core) plus per-k loop overhead of 1;
            // A operands come from the local store as part of the madd,
            // B operands arrive on the network.
            let macs = (rows * cols * n) as u64;
            m.tile_issue(tile, macs * 3)?;
            m.count_ops(macs * 2);
            // Network occupancy: the B strip (n x cols words) transits
            // this tile, plus forwarding traffic for tiles below it in
            // the column.
            let forwarded = (grid - 1 - ti) as u64;
            m.tile_net_words(tile, (n * cols) as u64 * (1 + forwarded), 1 + ti as u64)?;
            // C block writes back through the ports (issue slots).
            m.tile_issue(tile, (rows * cols) as u64)?;
        }
    }
    m.dram_traffic(2 * words, words, AccessPattern::Sequential)?;
    m.end_phase(false)?;

    let err = max_error(&c, &reference);
    let mut run = m.finish()?;
    run.verification =
        if err == 0.0 { Verification::BitExact } else { Verification::MaxError(err) };
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_is_correct() {
        let w = MatmulWorkload::new(48, 3).unwrap();
        let run = run(&RawConfig::paper(), &w).unwrap();
        assert!(run.verification.is_ok(1e-4), "{:?}", run.verification);
        assert_eq!(run.ops_executed, w.flops());
    }

    #[test]
    fn non_multiple_dimensions() {
        let w = MatmulWorkload::new(37, 5).unwrap();
        let run = run(&RawConfig::paper(), &w).unwrap();
        assert!(run.verification.is_ok(1e-4));
    }

    #[test]
    fn sixteen_tiles_speed_up_roughly_twelve_fold() {
        // The paper's Section 2.3 claim: "speedup of up to 12 relative to
        // single-tile performance".
        let w = MatmulWorkload::new(96, 7).unwrap();
        let sixteen = run(&RawConfig::paper(), &w).unwrap().cycles;
        let mut single = RawConfig::paper();
        single.mesh_width = 1;
        single.local_words = 64 * 1024; // one tile must hold all of A
        let one = run(&single, &w).unwrap().cycles;
        let speedup = one.ratio(sixteen);
        assert!(speedup > 8.0 && speedup < 16.0, "speedup {speedup:.1}");
    }

    #[test]
    fn oversized_strip_is_capacity_error() {
        let w = MatmulWorkload::new(512, 0).unwrap();
        // 512/4 * 512 = 64k words per strip > the 8k-word local store.
        assert!(matches!(run(&RawConfig::paper(), &w), Err(SimError::Capacity { .. })));
    }
}
