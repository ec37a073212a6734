//! Property-based tests for the shared simulation substrate.

use proptest::prelude::*;
use triarch_simcore::metrics::MetricsReport;
use triarch_simcore::{
    AccessPattern, CycleBreakdown, Cycles, DramConfig, DramModel, KernelDemands, KernelRun,
    ThroughputModel, Verification, WordMemory,
};

proptest! {
    /// More words never cost fewer cycles on a fresh DRAM.
    #[test]
    fn dram_cost_monotone_in_words(n in 0usize..4096, extra in 1usize..4096) {
        let mut a = DramModel::new(DramConfig::imagine_offchip()).unwrap();
        let mut b = DramModel::new(DramConfig::imagine_offchip()).unwrap();
        let small = a.transfer(0, n, AccessPattern::Sequential).unwrap();
        let large = b.transfer(0, n + extra, AccessPattern::Sequential).unwrap();
        prop_assert!(large.total >= small.total);
        prop_assert!(large.data >= small.data);
    }

    /// Strided transfers never beat sequential ones for the same volume.
    #[test]
    fn strided_never_beats_sequential(n in 1usize..2048, stride in 2usize..64) {
        let mut a = DramModel::new(DramConfig::viram_onchip()).unwrap();
        let mut b = DramModel::new(DramConfig::viram_onchip()).unwrap();
        let seq = a.transfer(0, n, AccessPattern::Sequential).unwrap();
        let strided = b.transfer(0, n, AccessPattern::Strided { stride_words: stride }).unwrap();
        prop_assert!(strided.total >= seq.total, "strided {} < seq {}", strided.total, seq.total);
    }

    /// The cost decomposition always sums to the total.
    #[test]
    fn dram_cost_components_sum(n in 0usize..4096, stride in 1usize..128) {
        let mut d = DramModel::new(DramConfig::raw_offchip()).unwrap();
        let pattern = if stride == 1 {
            AccessPattern::Sequential
        } else {
            AccessPattern::Strided { stride_words: stride }
        };
        let c = d.transfer(0, n, pattern).unwrap();
        prop_assert_eq!(c.total, c.data + c.overhead + c.startup);
    }

    /// Roofline predictions scale (weakly) monotonically with demand.
    #[test]
    fn roofline_monotone(words in 0u64..1_000_000, ops in 0u64..1_000_000) {
        let m = ThroughputModel::imagine();
        let base = m.predict(&KernelDemands { onchip_words: words, offchip_words: words, ops }).unwrap();
        let more = m.predict(&KernelDemands { onchip_words: words * 2, offchip_words: words * 2, ops: ops * 2 }).unwrap();
        prop_assert!(more >= base);
    }

    /// Word memory round-trips arbitrary bit patterns at arbitrary
    /// in-range addresses.
    #[test]
    fn memory_roundtrip(addr in 0usize..1024, value in any::<u32>()) {
        let mut m = WordMemory::new(1024);
        m.write_u32(addr, value).unwrap();
        prop_assert_eq!(m.read_u32(addr).unwrap(), value);
        let f = f32::from_bits(value);
        m.write_f32(addr, f).unwrap();
        // NaNs keep their payload through the bit-level store.
        prop_assert_eq!(m.read_u32(addr).unwrap(), f.to_bits());
    }

    /// Breakdown totals are invariant under merge order.
    #[test]
    fn breakdown_merge_is_commutative(
        a in proptest::collection::vec((0usize..4, 0u64..1000), 0..10),
        b in proptest::collection::vec((0usize..4, 0u64..1000), 0..10),
    ) {
        let cats = ["memory", "compute", "startup", "stall"];
        let build = |entries: &[(usize, u64)]| {
            let mut bd = CycleBreakdown::new();
            for (c, v) in entries {
                bd.charge(cats[*c], Cycles::new(*v));
            }
            bd
        };
        let mut ab = build(&a);
        ab.merge(&build(&b));
        let mut ba = build(&b);
        ba.merge(&build(&a));
        prop_assert_eq!(ab, ba);
    }

    /// Merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn breakdown_merge_is_associative(
        a in proptest::collection::vec((0usize..4, 0u64..1000), 0..10),
        b in proptest::collection::vec((0usize..4, 0u64..1000), 0..10),
        c in proptest::collection::vec((0usize..4, 0u64..1000), 0..10),
    ) {
        let cats = ["memory", "compute", "startup", "stall"];
        let build = |entries: &[(usize, u64)]| {
            let mut bd = CycleBreakdown::new();
            for (cat, v) in entries {
                bd.charge(cats[*cat], Cycles::new(*v));
            }
            bd
        };
        let mut left = build(&a);
        left.merge(&build(&b));
        left.merge(&build(&c));
        let mut bc = build(&b);
        bc.merge(&build(&c));
        let mut right = build(&a);
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Spans that mirror a breakdown charge for charge re-add to it with
    /// drift 0, whatever the order and repetition of the charges.
    #[test]
    fn mirrored_spans_have_zero_breakdown_drift(
        entries in proptest::collection::vec((0usize..4, 1u64..1000), 0..20),
    ) {
        let cats = ["memory", "compute", "startup", "stall"];
        let mut bd = CycleBreakdown::new();
        let mut spans = Vec::new();
        for (cat, v) in &entries {
            bd.charge(cats[*cat], Cycles::new(*v));
            spans.push((cats[*cat], *v));
        }
        let run = run_of(bd);
        prop_assert_eq!(run.breakdown_drift(spans), 0);
    }

    /// Tampering one breakdown category by `k` cycles after mirroring it
    /// drifts by exactly `k`: the category disagrees by `k` while the
    /// run's total still matches the spans.
    #[test]
    fn tampering_one_category_by_k_drifts_by_exactly_k(
        entries in proptest::collection::vec((0usize..4, 1u64..1000), 1..20),
        victim in 0usize..4,
        k in 1u64..10_000,
    ) {
        let cats = ["memory", "compute", "startup", "stall"];
        let mut bd = CycleBreakdown::new();
        let mut spans = Vec::new();
        for (cat, v) in &entries {
            bd.charge(cats[*cat], Cycles::new(*v));
            spans.push((cats[*cat], *v));
        }
        let mut run = run_of(bd);
        run.breakdown.charge(cats[victim], Cycles::new(k));
        prop_assert_eq!(run.breakdown_drift(spans), k);
    }

    /// The drift equals an independent model of its definition: the
    /// largest of the total's disagreement and every single category's,
    /// counting categories present on only one side.
    #[test]
    fn breakdown_drift_is_the_largest_single_disagreement(
        charged in proptest::collection::vec(0u64..1000, 4),
        observed in proptest::collection::vec(0u64..1000, 5),
        skew in 0u64..2000,
    ) {
        // "dma" is observed but never charged.
        let cats = ["memory", "compute", "startup", "stall", "dma"];
        let mut bd = CycleBreakdown::new();
        for (cat, v) in cats.iter().zip(&charged) {
            bd.charge(*cat, Cycles::new(*v));
        }
        let mut run = run_of(bd);
        run.cycles = Cycles::new(run.cycles.get() + skew);

        let mut expected = run.cycles.get().abs_diff(observed.iter().sum());
        for (i, seen) in observed.iter().enumerate() {
            expected = expected.max(charged.get(i).copied().unwrap_or(0).abs_diff(*seen));
        }
        let pairs = cats.iter().copied().zip(observed.iter().copied());
        prop_assert_eq!(run.breakdown_drift(pairs), expected);
    }
}

/// A run whose cycle count is its breakdown's total.
fn run_of(breakdown: CycleBreakdown) -> KernelRun {
    KernelRun {
        cycles: breakdown.total(),
        breakdown,
        ops_executed: 0,
        mem_words: 0,
        verification: Verification::Unchecked,
        metrics: MetricsReport::new(),
    }
}
