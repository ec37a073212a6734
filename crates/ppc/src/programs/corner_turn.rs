//! G4 corner turn: the naive row-major-read / column-major-write loop.
//!
//! The strided writes alias into a handful of cache sets (1024-element
//! rows are a power of two), so both cache levels thrash and virtually
//! every store goes to memory — which is why the paper finds AltiVec
//! "does not significantly improve performance for the corner turn, which
//! is limited by main memory bandwidth".
//!
//! Each source row is charged through [`PpcMachine::transpose_row`],
//! which settles the stores that can only miss instead of replaying them;
//! the per-element loop it replaced is kept as its test oracle.

use triarch_kernels::corner_turn::CornerTurnWorkload;
use triarch_kernels::KernelOutput;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{CycleBudget, KernelRun, SimError};

use super::Variant;
use crate::config::PpcConfig;
use crate::machine::PpcMachine;

/// Tile edge of the blocked copy that moves the data. The timing model
/// charges the naive loop whatever order the words move in, so the words
/// move in the order that is fastest on the host: for the paper matrix, a
/// best of 15 on an x86-64 Xeon VM took 1.9–2.1 ms at tiles of 8, 4.7–5.2
/// ms at tiles of 16 to 64 and 7.5–7.7 ms in column order.
const COPY_TILE: usize = 8;

/// One source row of the naive loop: `cols` loads from word `src` on, and
/// one store per column, `stride` words apart from word `dst` on.
#[derive(Debug, Clone, Copy)]
struct Row {
    src: usize,
    cols: usize,
    dst: usize,
    stride: usize,
}

/// Charges one row of the naive loop: its loads and stores through
/// [`PpcMachine::transpose_row`], and its issue slots in bulk. The scalar
/// loop spends 2 slots a column on index arithmetic and the loop; the
/// AltiVec one spends 2 a vector on extracting and permuting lanes and 1
/// on the loop. Returns how many stores were settled rather than replayed.
fn charge_row<S: TraceSink, F: FaultHook>(
    m: &mut PpcMachine<S, F>,
    row: Row,
    variant: Variant,
    lanes: usize,
) -> usize {
    let vector = variant == Variant::Altivec;
    let settled = m.transpose_row(row.src, row.cols, row.dst, row.stride, vector);
    let slots = if vector { 3 * row.cols.div_ceil(lanes) } else { 2 * row.cols };
    m.issue(slots as u64);
    settled
}

/// Runs the corner turn on the G4.
///
/// Trace events go to `sink`; `faults` is consulted at the memory transfer of
/// the output matrix and its effects are applied; `budget` is the watchdog on
/// simulated cycles.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for a degenerate configuration, plus
/// [`SimError::DetectedFault`] / [`SimError::BudgetExceeded`] from the hook and
/// watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &PpcConfig,
    workload: &CornerTurnWorkload,
    variant: Variant,
    sink: S,
    faults: F,
    budget: CycleBudget,
) -> Result<(KernelRun, KernelOutput), SimError> {
    let rows = workload.rows();
    let cols = workload.cols();
    let mut m = PpcMachine::with_hooks(cfg, sink, faults, budget)?;

    // Virtual layout: src at 0, dst right after. Row `r` loads its `cols`
    // words in order and stores them down column `r` of the destination:
    // `rows` words apart. With AltiVec the loads are vector loads along
    // the row, but each lane is still written with a scalar store: the
    // destinations of one vector's lanes lie a full column apart, and
    // AltiVec offers no scatter, so the stores thrash the same sets as the
    // scalar code's.
    let dst_base = rows * cols;
    for r in 0..rows {
        let row = Row { src: r * cols, cols, dst: dst_base + r, stride: rows };
        charge_row(&mut m, row, variant, cfg.vector_lanes);
        m.check_budget()?;
    }

    // The destination matrix crosses the DRAM fault surface as one long
    // streamed write-back.
    let mut dst = workload.blocked_transpose(COPY_TILE)?;
    m.fault_transfer(dst_base, &mut dst)?;
    m.checkpoint("transpose-loop-done");
    Ok((m.finish()?, KernelOutput::Words(dst)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use proptest::prelude::*;
    use triarch_kernels::verify::check;
    use triarch_kernels::KernelInput;
    use triarch_simcore::faults::NoFaults;
    use triarch_simcore::trace::NullSink;
    use triarch_simcore::Verification;

    /// The per-element loop [`charge_row`] replaces, kept as its oracle:
    /// per column a load and its store, or per `lanes` columns one vector
    /// load and then each lane's scalar store, with the loop's issue slots.
    fn charge_row_per_element<S: TraceSink, F: FaultHook>(
        m: &mut PpcMachine<S, F>,
        row: Row,
        variant: Variant,
        lanes: usize,
    ) {
        let Row { src, cols, dst, stride } = row;
        match variant {
            Variant::Scalar => {
                for c in 0..cols {
                    m.load(src + c);
                    m.store(dst + c * stride);
                    m.issue(2); // index arithmetic + loop
                }
            }
            Variant::Altivec => {
                let mut c = 0;
                while c < cols {
                    let w = lanes.min(cols - c);
                    m.vector_load(src + c);
                    m.issue(2); // extract/permute lanes
                    for dc in 0..w {
                        m.store(dst + (c + dc) * stride);
                    }
                    m.issue(1);
                    c += w;
                }
            }
        }
    }

    /// Asserts that two machines hold the same lines, in the same order
    /// and with the same dirty bits, in every set of both levels.
    fn assert_same_sets<S: TraceSink, F: FaultHook>(
        a: &PpcMachine<S, F>,
        b: &PpcMachine<S, F>,
        cfg: &PpcConfig,
        what: &str,
    ) {
        let (a, b) = (a.caches(), b.caches());
        for set in 0..cfg.l1.sets() {
            assert_eq!(a.l1.resident(set), b.l1.resident(set), "L1 set {set}, {what}");
        }
        for set in 0..cfg.l2.sets() {
            assert_eq!(a.l2.resident(set), b.l2.resident(set), "L2 set {set}, {what}");
        }
    }

    /// Asserts that two runs agree in every field.
    fn assert_same_run(a: &KernelRun, b: &KernelRun, what: &str) {
        assert_eq!(a.cycles, b.cycles, "{what}");
        assert_eq!(a.breakdown, b.breakdown, "{what}");
        assert_eq!(a.metrics, b.metrics, "{what}");
        assert_eq!((a.ops_executed, a.mem_words), (b.ops_executed, b.mem_words), "{what}");
        assert_eq!(a.verification, b.verification, "{what}");
    }

    /// The plain run: untraced, unfaulted, unlimited budget, and checked
    /// by the study's one verifier.
    fn plain(
        cfg: &PpcConfig,
        workload: &CornerTurnWorkload,
        variant: Variant,
    ) -> Result<KernelRun, SimError> {
        let (mut result, output) =
            run(cfg, workload, variant, NullSink, NoFaults, CycleBudget::UNLIMITED)?;
        result.verification = check(KernelInput::CornerTurn(workload), &output);
        Ok(result)
    }

    #[test]
    fn both_variants_are_bit_exact() {
        let w = CornerTurnWorkload::with_dims(50, 70, 2).unwrap();
        for v in [Variant::Scalar, Variant::Altivec] {
            let run = plain(&PpcConfig::paper(), &w, v).unwrap();
            assert_eq!(run.verification, Verification::BitExact, "{v:?}");
        }
    }

    #[test]
    fn altivec_barely_helps_the_corner_turn() {
        // Power-of-two dimensions trigger the set-aliasing wall.
        let w = CornerTurnWorkload::with_dims(512, 512, 1).unwrap();
        let scalar = plain(&PpcConfig::paper(), &w, Variant::Scalar).unwrap();
        let altivec = plain(&PpcConfig::paper(), &w, Variant::Altivec).unwrap();
        let speedup = scalar.cycles.ratio(altivec.cycles);
        assert!(speedup > 1.0 && speedup < 1.6, "speedup {speedup}");
        // Store stalls dominate both.
        assert!(scalar.breakdown.fraction("store-stall") > 0.5);
    }

    #[test]
    fn the_paper_corner_turn_keeps_its_cache_counters() {
        // Every store misses both levels; a load misses L1 once per 8-word
        // line and L2 once per 16-word line. Evictions and writebacks move
        // no cycle, so the bench artifact cannot see them: they are pinned
        // here.
        let w = CornerTurnWorkload::paper(1).unwrap();
        for (variant, l1_hits) in [(Variant::Scalar, 917_504), (Variant::Altivec, 131_072)] {
            let run = plain(&PpcConfig::paper(), &w, variant).unwrap();
            assert_eq!(run.verification, Verification::BitExact, "{variant:?}");
            let counters = |level: &str| {
                ["hits", "misses", "evictions", "writebacks"]
                    .map(|c| run.metrics.counter_value(&format!("ppc.{level}.{c}")))
            };
            let l1 = [l1_hits, 1_179_648, 1_178_624, 1_048_569].map(Some);
            assert_eq!(counters("l1"), l1, "{variant:?}");
            assert_eq!(counters("l2"), [65_536, 1_114_112, 1_110_016, 1_048_418].map(Some));
        }
    }

    #[test]
    fn full_size_row_charges_match_the_per_element_loop() {
        // The G4 and the other L2 sizes of the design-space sweep
        // (`dse::PPC_L2_KIB`: 128, 256, 512 and 1,024 KiB). Debug builds
        // check the G4; release builds, which replay far faster, every
        // size.
        let sizes: &[usize] = if cfg!(debug_assertions) { &[256] } else { &[128, 256, 512, 1024] };
        let w = CornerTurnWorkload::paper(1).unwrap();
        let (rows, cols) = (w.rows(), w.cols());
        for &kib in sizes {
            let cfg = PpcConfig::with_l2_kib(kib);
            for variant in [Variant::Scalar, Variant::Altivec] {
                let what = format!("{variant:?}, {kib} KiB L2");
                let mut rowwise = PpcMachine::new(&cfg).unwrap();
                let mut oracle = PpcMachine::new(&cfg).unwrap();
                let mut settled = 0;
                for r in 0..rows {
                    let row = Row { src: r * cols, cols, dst: rows * cols + r, stride: rows };
                    settled += charge_row(&mut rowwise, row, variant, cfg.vector_lanes);
                    charge_row_per_element(&mut oracle, row, variant, cfg.vector_lanes);
                    assert_eq!(rowwise.cycles(), oracle.cycles(), "row {r}, {what}");
                }
                // Only the stores whose set a load of their row can reach
                // replay: 8 to 16 a row.
                assert!(settled >= rows * (cols - 16), "{settled} stores settled, {what}");
                assert_same_sets(&rowwise, &oracle, &cfg, &what);
                let oracle = oracle.finish().unwrap();
                assert_same_run(&rowwise.finish().unwrap(), &oracle, &what);
                let budget = CycleBudget::UNLIMITED;
                let (program, _) = run(&cfg, &w, variant, NullSink, NoFaults, budget).unwrap();
                assert_same_run(&program, &oracle, &what);
            }
        }
    }

    /// Line sizes for drawn L1 and L2 geometries, powers of two and not.
    const LINE_WORDS: [usize; 10] = [1, 2, 3, 4, 5, 6, 8, 12, 16, 32];

    /// A drawn geometry, or `None` to keep the G4's.
    fn geometry(g4: bool, line: usize, ways: usize, sets: usize) -> Option<CacheConfig> {
        let line_words = LINE_WORDS[line];
        (!g4).then_some(CacheConfig { size_words: line_words * ways * sets, line_words, ways })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Row charges leave a machine exactly as the per-element loop
        /// does: cycles and every L1 and L2 set after every row, and at the
        /// end the breakdown, the full metrics report, the ops and the
        /// words. The store stride is the row count, a multiple of both
        /// line sizes, one that aliases into few L1 sets or few sets of
        /// both levels, or any stride; the AltiVec loop's lanes need not
        /// divide the columns. A warm-up stream first loads or stores
        /// words of the destination (so some of a row's store lines are
        /// resident), of the source, or anywhere below 2^20.
        #[test]
        fn row_charges_match_the_per_element_loop(
            l1 in (any::<bool>(), 0usize..10, 1usize..=9, 1usize..=70),
            l2 in (any::<bool>(), 0usize..10, 1usize..=9, 1usize..=300),
            shape in (1usize..=100, 1usize..=100, 0usize..5, 0usize..64, 1usize..=8),
            warm in proptest::collection::vec((0usize..3, any::<usize>(), any::<bool>()), 0..=60),
            altivec in any::<bool>(),
        ) {
            let mut cfg = PpcConfig::paper();
            if let Some(g) = geometry(l1.0, l1.1, l1.2, l1.3) {
                cfg.l1 = g;
            }
            if let Some(g) = geometry(l2.0, l2.1, l2.2, l2.3) {
                cfg.l2 = g;
            }
            let (rows, cols, stride, skew, lanes) = shape;
            cfg.vector_lanes = lanes;
            // Strides that alias into few sets: a whole number of L1 way
            // sizes, or of both levels' way sizes, and of both line sizes.
            let lcm = |a: usize, b: usize| (1..=b).map(|k| k * a).find(|m| m % b == 0).unwrap();
            let ways1 = cfg.l1.line_words * cfg.l1.sets();
            let stride = match stride {
                0 => rows,
                1 => lcm(cfg.l1.line_words, cfg.l2.line_words) * (1 + skew % 4),
                2 => lcm(ways1, cfg.l2.line_words) * (1 + skew % 2),
                3 => lcm(ways1, cfg.l2.line_words * cfg.l2.sets()),
                _ => 1 + 5 * skew,
            };
            let dst_base = rows * cols + skew;
            let variant = if altivec { Variant::Altivec } else { Variant::Scalar };
            let what = format!("{variant:?}, {rows}x{cols}, stride {stride}, {cfg:?}");

            let mut rowwise = PpcMachine::new(&cfg).unwrap();
            let mut oracle = PpcMachine::new(&cfg).unwrap();
            for &(kind, x, store) in &warm {
                let addr = match kind {
                    0 => dst_base + x % rows + (x / rows) % cols * stride,
                    1 => x % (rows * cols),
                    _ => x % (1 << 20),
                };
                for m in [&mut rowwise, &mut oracle] {
                    if store { m.store(addr) } else { m.load(addr) }
                }
            }
            for r in 0..rows {
                let row = Row { src: r * cols, cols, dst: dst_base + r, stride };
                charge_row(&mut rowwise, row, variant, lanes);
                charge_row_per_element(&mut oracle, row, variant, lanes);
                prop_assert_eq!(rowwise.cycles(), oracle.cycles(), "row {}, {}", r, what);
                let (a, b) = (rowwise.caches(), oracle.caches());
                for set in 0..cfg.l1.sets() {
                    prop_assert_eq!(a.l1.resident(set), b.l1.resident(set), "L1 set {set}, row {r}, {what}");
                }
                for set in 0..cfg.l2.sets() {
                    prop_assert_eq!(a.l2.resident(set), b.l2.resident(set), "L2 set {set}, row {r}, {what}");
                }
            }
            let (a, b) = (rowwise.finish().unwrap(), oracle.finish().unwrap());
            prop_assert_eq!(a.cycles, b.cycles);
            prop_assert_eq!(&a.breakdown, &b.breakdown);
            prop_assert_eq!(&a.metrics, &b.metrics);
            prop_assert_eq!((a.ops_executed, a.mem_words), (b.ops_executed, b.mem_words));
        }
    }
}
