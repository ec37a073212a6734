//! Heap allocations of the VIRAM vector unit, counted exactly.
//!
//! Each thread counts its own allocations, so the count a test reads is
//! its own: libtest's main thread allocates while tests run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use triarch_simcore::SimError;
use triarch_viram::programs::vfft::VfftPlan;
use triarch_viram::vector::{FpOp, IntOp};
use triarch_viram::{VectorUnit, ViramConfig};

/// The system allocator, counting every block it hands out or regrows on
/// the thread that asked for it.
struct Counting;

thread_local! {
    /// Blocks this thread has allocated or regrown. A `const` initializer
    /// with no destructor, so the allocator can read it without
    /// allocating.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one block on the calling thread (none once its thread-locals
/// are gone).
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Blocks the calling thread has allocated or regrown so far.
fn allocated() -> usize {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made by the second of two runs of `op`. The first warms
/// the unit up: a category's first charge, a page's first write.
fn second_run_allocations(
    unit: &mut VectorUnit,
    op: impl Fn(&mut VectorUnit) -> Result<(), SimError>,
) -> usize {
    op(unit).unwrap();
    let before = allocated();
    op(unit).unwrap();
    allocated() - before
}

#[test]
fn vector_instructions_overlap_regions_and_ffts_allocate_nothing_after_warm_up() {
    let cfg = ViramConfig::paper();
    let mut unit = VectorUnit::new(&cfg).unwrap();
    let signal: Vec<u32> = (0..256u32).map(|i| (i as f32 * 0.37).sin().to_bits()).collect();
    unit.memory_mut().write_block_u32(0, &signal).unwrap();
    // A shuffle drawing from both registers.
    let idx: Vec<usize> = (0..64).map(|i| (i * 37) % 128).collect();
    let fft64 = VfftPlan::new(64, cfg.mvl, false).unwrap();
    let fft128 = VfftPlan::new(128, cfg.mvl, true).unwrap();

    let mut counts = vec![
        ("vload_unit", second_run_allocations(&mut unit, |u| u.vload_unit(0, 0, 64))),
        ("vfp", second_run_allocations(&mut unit, |u| u.vfp(FpOp::Mul, 1, 0, 0, 64))),
        ("vint", second_run_allocations(&mut unit, |u| u.vint(IntOp::Add, 2, 0, 1, 0, 64))),
        ("vsplat", second_run_allocations(&mut unit, |u| u.vsplat(3, 7, 64))),
        ("vperm2", second_run_allocations(&mut unit, |u| u.vperm2(4, 0, 1, &idx))),
        ("vstore_unit", second_run_allocations(&mut unit, |u| u.vstore_unit(4, 512, 64))),
        (
            "overlap region",
            second_run_allocations(&mut unit, |u| {
                u.begin_overlap()?;
                u.vload_unit(5, 64, 64)?;
                u.vfp(FpOp::Add, 6, 5, 0, 64)?;
                u.end_overlap()
            }),
        ),
    ];
    // The 64-point transform ends in bank B and copies its result back
    // with the identity permute; the 128-point one ends in bank A.
    for (what, plan) in [("64-point execute", &fft64), ("128-point execute", &fft128)] {
        plan.load_tables(&mut unit).unwrap();
        for (bank, at) in [(0, 0), (1, 64), (2, 128), (3, 192)] {
            unit.vload_unit(bank, at, 64).unwrap();
        }
        counts.push((what, second_run_allocations(&mut unit, |u| plan.execute(u))));
    }
    for (what, allocations) in counts {
        assert_eq!(allocations, 0, "{what} allocated {allocations} times after warm-up");
    }
}
