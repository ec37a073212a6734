//! Heap allocations of the G4 cache model and machine, counted exactly.
//!
//! Each thread counts its own allocations, so the count a test reads is
//! its own: libtest's main thread allocates while tests run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use triarch_ppc::cache::{CacheConfig, Hierarchy};
use triarch_ppc::{PpcConfig, PpcMachine};

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

#[test]
fn a_g4_hierarchy_allocates_once_per_array_and_never_while_filling() {
    let before = allocated();
    let mut h = Hierarchy::g4();
    let built = allocated() - before;

    // One read per L1 line over all of L2: every L1 access misses and
    // probes L2, and each set of both levels takes at least `ways` lines.
    let (l1, l2) = (CacheConfig::g4_l1(), CacheConfig::g4_l2());
    for addr in (0..l2.size_words).step_by(l1.line_words) {
        h.access(addr);
    }
    let total = allocated() - before;

    assert_eq!(h.l1.misses(), (l2.size_words / l1.line_words) as u64);
    assert_eq!(h.l2.misses() - h.l2.evictions(), (l2.sets() * l2.ways) as u64, "L2 is full");
    assert_eq!(h.l1.evictions() + (l1.sets() * l1.ways) as u64, h.l1.misses(), "L1 is full");
    assert!(built <= 4, "building the hierarchy made {built} allocations");
    assert_eq!(total, built, "filling every set allocated");

    // Once a G4 machine is built, charging every row of a 1024×1024 corner
    // turn, settled or replayed, allocates nothing.
    let mut m = PpcMachine::new(&PpcConfig::paper()).unwrap();
    let n = 1024;
    let before = allocated();
    let mut settled = 0;
    for vector in [false, true] {
        for r in 0..n {
            settled += m.transpose_row(r * n, n, n * n + r, n, vector);
        }
    }
    let charged = allocated() - before;
    assert!(settled > 0, "no store was settled");
    assert_eq!(charged, 0, "charging the corner turn's rows allocated");
}
