//! A counting wrapper around the system allocator, for asserting that a
//! code path performs zero heap allocations, or bounding the heap it
//! holds at its peak.
//!
//! Install it as the global allocator in a test binary and compare
//! [`allocations`] snapshots around the region under test:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;
//!
//! let before = alloc_counter::allocations();
//! hot_path();
//! assert_eq!(alloc_counter::allocations() - before, 0);
//!
//! let base = alloc_counter::reset_peak();
//! big_run();
//! let peak = alloc_counter::peak_live_bytes() - base;
//! ```
//!
//! Counters are process-wide atomics: keep one `#[test]` per binary (or
//! serialize tests) so other threads' allocations don't pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Heap allocations (including reallocations) since process start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap deallocations since process start.
pub fn deallocations() -> u64 {
    DEALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes allocated and not yet freed, as the callers requested them
/// (the system allocator's own rounding and bookkeeping not included).
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most [`live_bytes`] held at once since the last [`reset_peak`]
/// (or since process start).
pub fn peak_live_bytes() -> usize {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the bytes live now, and returns them.
pub fn reset_peak() -> usize {
    let live = live_bytes();
    PEAK_LIVE_BYTES.store(live, Ordering::Relaxed);
    live
}

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

/// A [`System`]-backed allocator that counts every alloc/realloc/dealloc
/// and the bytes they leave live.
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`, which upholds the GlobalAlloc
// contract; the atomic counters have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as ours.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as ours.
        unsafe { System.dealloc(ptr, layout) }
        shrank(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as ours.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as ours.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grew(new_size.saturating_sub(layout.size()));
            shrank(layout.size().saturating_sub(new_size));
        }
        new
    }
}
