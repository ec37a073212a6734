//! Heap allocations of the transforms, counted exactly once their
//! twiddle tables are built.
//!
//! Each thread counts its own allocations, so the count a test reads is
//! its own: libtest's main thread allocates while tests run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use triarch_fft::{fft_radix2, ifft_radix2, Cf32, Fft};

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

/// Allocations `f` makes.
fn allocations(f: impl FnOnce()) -> usize {
    let before = allocated();
    f();
    allocated() - before
}

#[test]
fn warm_transforms_allocate_one_scratch_buffer_or_nothing() {
    let forward = Fft::forward(128).expect("128 is a power of two");
    let inverse = Fft::inverse(128).expect("128 is a power of two");
    let mut data: Vec<Cf32> = (0..128).map(|i| Cf32::new(i as f32, -(i as f32) / 3.0)).collect();
    // Warm-up: the first call for a length and direction builds its table.
    forward.process(&mut data).expect("planned length");
    inverse.process(&mut data).expect("planned length");
    fft_radix2(&mut data);
    ifft_radix2(&mut data);

    let process = |plan: &Fft, data: &mut [Cf32]| plan.process(data).expect("planned length");
    assert_eq!(allocations(|| process(&forward, &mut data)), 1, "Fft::forward(128)");
    assert_eq!(allocations(|| process(&inverse, &mut data)), 1, "Fft::inverse(128)");
    assert_eq!(allocations(|| fft_radix2(&mut data)), 0, "fft_radix2");
    assert_eq!(allocations(|| ifft_radix2(&mut data)), 0, "ifft_radix2");
}
