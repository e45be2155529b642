//! Counting global allocator: `nn.infer_allocs` reports how many heap
//! allocations one warm `Network::infer` performs on the calling thread
//! (zero today — the forward plan is arena-based). The counter is
//! per-thread, so it costs the measured passes one thread-local increment
//! per allocation and no shared cache line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper counting allocation events per thread.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the only added
// behaviour is bumping a thread-local counter, which cannot re-enter the
// allocator (`Cell<u64>` with const init performs no allocation).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller's layout contract is passed through to `System` as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller vouched for, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller's layout contract is passed through to `System` as-is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller vouched for, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller's ptr/layout contract is passed through to `System`
    // as-is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        // SAFETY: same ptr/layout the caller vouched for, forwarded
        // unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller's ptr/layout contract is passed through to `System`
    // as-is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same ptr/layout the caller vouched for, forwarded
        // unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation events on this thread while running `f`.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_COUNT.with(Cell::get);
    let result = f();
    (ALLOC_COUNT.with(Cell::get) - before, result)
}
