//! The benchmark's allocator: `System`, with counting behind a flag.
//!
//! Off (every timed repetition), an allocation costs one relaxed load
//! more than `System`. On (the one counted pass, on one thread), it
//! keeps the number of allocations and the live and peak heap bytes.
//! `hpa_metrics::CountingAllocator` is not used because it always
//! counts, and its shared counters contend across pool workers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

// Statistics only: none of these publishes other data, so `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

pub struct FlagCountingAllocator;

fn record_alloc(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn record_dealloc(size: usize) {
    if COUNTING.load(Relaxed) {
        // Saturating: a block allocated before counting began may be
        // freed after.
        let _ = LIVE.fetch_update(Relaxed, Relaxed, |l| Some(l.saturating_sub(size as u64)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping is relaxed
// atomic operations on statics, which neither allocate, unwind nor touch
// the block.
unsafe impl GlobalAlloc for FlagCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on as received.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on as received.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        record_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's,
        // passed on as received.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        p
    }
}

/// Start counting from zero.
pub fn start_counting() {
    ALLOCS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Allocations since [`start_counting`] (0 while counting is off).
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Peak live heap bytes since [`start_counting`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}
