//! A per-thread counting allocator, shared by the `alloc_counts` test
//! binaries of `hmcs-sim`, `hmcs-core` and `hmcs-serve`. Including the
//! module installs it as the binary's global allocator; each thread's
//! count is kept apart and taken only while that thread asks, so tests
//! running in parallel cannot land in each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations and reallocations made
/// on a thread while that thread is counting.
struct Counting;

thread_local! {
    /// This thread's count so far, or `None` while it is not counting.
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    let _ = COUNTED.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
pub fn allocations(f: impl FnOnce()) -> u64 {
    COUNTED.with(|c| c.set(Some(0)));
    f();
    COUNTED.with(Cell::take).expect("counting was on")
}
