//! The workspace's one counting allocator. A test or bench target
//! installs it with `#[global_allocator] static ALLOC: CountingAlloc =
//! CountingAlloc;` and reads what it counted through the functions here:
//! process-wide live bytes with their high-water mark, calls and
//! requested bytes, and the bytes the calling thread alone requested
//! (the test harness runs other tests on other threads). Relaxed
//! ordering suffices: a target that reads the process-wide counters runs
//! its measured work on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting what it hands out.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn acquired(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    REQUESTED.fetch_add(size, Ordering::Relaxed);
    THREAD_REQUESTED.with(|bytes| bytes.set(bytes.get() + size));
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// updates touch only private atomics and a const-initialised
// thread-local `Cell`, none of which allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        acquired(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        acquired(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Resets the high-water mark to the current live level and returns
/// that baseline; an arm's peak is then [`peak_above`] it.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live bytes above `baseline` since the last [`reset_peak`].
pub fn peak_above(baseline: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}

/// Bytes live now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Allocations and reallocations since the process started.
pub fn allocs() -> usize {
    CALLS.load(Ordering::Relaxed)
}

/// Bytes those calls asked for (a reallocation counts its whole new
/// size), freed or not.
pub fn requested_bytes() -> usize {
    REQUESTED.load(Ordering::Relaxed)
}

/// [`requested_bytes`] of the calling thread alone.
pub fn thread_requested_bytes() -> usize {
    THREAD_REQUESTED.with(Cell::get)
}
