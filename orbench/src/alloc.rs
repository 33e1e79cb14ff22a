//! The one counting allocator: the system allocator plus four relaxed
//! counters behind a switch. `orbench-trace` installs it with
//! `#[global_allocator]`; `orbench` does not, so timed runs carry no
//! counting cost (and these counters then simply read zero).
//!
//! Counting is off until [`set_counting`] turns it on, and the traced
//! run turns it on only around single-threaded stretches: two shard
//! threads hammering the same four cache lines run slower than one
//! (measured: a 2-shard campaign took 1.5x the 1-shard wall with the
//! counters always on), which would falsify every timing taken beside
//! the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The system allocator, counting every acquisition (reallocations
/// included: each may move the block) and tracking live bytes.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
// Signed: a block allocated while counting was off may be freed while
// it is on.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Switches counting on or off. Live bytes are tracked only while it
/// is on, so a window's `retained` is exact when the blocks it frees
/// were allocated inside it.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

fn acquired(size: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK.fetch_max(live.max(0) as u64, Ordering::Relaxed);
}

fn released(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// updates touch only private atomics and cannot allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        acquired(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        acquired(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        released(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        released(layout.size());
        acquired(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The counters at one instant. Subtract two snapshots for the cost of
/// the code between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Acquisitions so far (alloc, alloc_zeroed, realloc).
    pub allocs: u64,
    /// Bytes requested by those acquisitions.
    pub bytes: u64,
    /// Bytes allocated and not yet freed, over the counted stretches.
    pub live: i64,
}

impl AllocSnapshot {
    /// Reads the counters (all zero unless [`CountingAlloc`] is the
    /// global allocator of this binary).
    pub fn now() -> Self {
        Self {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
            live: LIVE.load(Ordering::Relaxed),
        }
    }

    /// Acquisitions and bytes since `earlier`, and the net change in
    /// live bytes (what the code in between retained).
    pub fn since(&self, earlier: &Self) -> AllocDelta {
        AllocDelta {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            retained: self.live - earlier.live,
        }
    }
}

/// Allocation cost of a stretch of code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Acquisitions made.
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Net live bytes added (negative when the stretch freed more).
    pub retained: i64,
}

/// The highest live-byte count seen since the last [`reset_peak`].
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the current live-byte count.
pub fn reset_peak() {
    PEAK.store(
        LIVE.load(Ordering::Relaxed).max(0) as u64,
        Ordering::Relaxed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test binary runs on the system allocator, so the wrapper is
    /// driven by hand: the counters must follow a block's life.
    #[test]
    fn counters_follow_alloc_realloc_dealloc() {
        let layout = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: as below; with counting off nothing is recorded.
        unsafe { CountingAlloc.dealloc(CountingAlloc.alloc(layout), layout) };
        assert_eq!(
            AllocSnapshot::now(),
            AllocSnapshot::default(),
            "off until switched on"
        );
        set_counting(true);
        let before = AllocSnapshot::now();
        // SAFETY: `layout` is non-zero-sized; the block is reallocated
        // and freed with the layouts it was last given, exactly once.
        unsafe {
            let block = CountingAlloc.alloc(layout);
            assert!(!block.is_null());
            let held = AllocSnapshot::now().since(&before);
            assert_eq!((held.allocs, held.bytes, held.retained), (1, 64, 64));
            let grown = CountingAlloc.realloc(block, layout, 256);
            assert!(!grown.is_null());
            let held = AllocSnapshot::now().since(&before);
            assert_eq!((held.allocs, held.bytes, held.retained), (2, 320, 256));
            CountingAlloc.dealloc(grown, Layout::from_size_align(256, 8).unwrap());
        }
        let after = AllocSnapshot::now().since(&before);
        assert_eq!((after.allocs, after.bytes, after.retained), (2, 320, 0));
        assert!(peak_live_bytes() >= 256);
        reset_peak();
        assert_eq!(peak_live_bytes(), 0);
        set_counting(false);
    }
}
