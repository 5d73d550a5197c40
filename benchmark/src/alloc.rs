//! Counting allocator: allocator calls, live bytes and peak live bytes.
//!
//! The same wrapper is linked into every commit the benchmark measures, so
//! its own cost (three relaxed atomics per call) cancels in a comparison.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator with counters in front of it.
pub struct Counting;

// Statistics only: no other data is published through these, so `Relaxed`
// is enough even with the sharded engine's worker threads allocating.
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence the
// returned pointers or the layouts passed on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's, passed through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // The old block is gone only when the call succeeded.
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grow(new_size);
        }
        p
    }
}

/// One reading of the counters.
#[derive(Debug, Clone, Copy)]
pub struct Heap {
    /// Allocator calls (`alloc` + `realloc`) since process start.
    pub calls: u64,
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` seen since the last [`reset_peak`].
    pub peak: u64,
}

pub fn read() -> Heap {
    Heap {
        calls: CALLS.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Restart peak tracking from the current live size (once per workload).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other tests allocate concurrently, so assert on a block far larger
    /// than anything they hold and allow slack well below its size.
    const BIG: usize = 64 << 20;
    const SLACK: u64 = 8 << 20;

    #[test]
    fn live_bytes_follow_alloc_realloc_and_free() {
        let before = read();
        let mut v: Vec<u8> = Vec::with_capacity(BIG);
        let held = read();
        assert!(held.live >= before.live + BIG as u64 - SLACK);
        assert!(held.calls > before.calls);
        assert!(held.peak >= held.live.min(before.live + BIG as u64 - SLACK));

        // Grow through `realloc`: the old size must leave the books.
        v.reserve_exact(2 * BIG);
        let grown = read();
        assert!(grown.live >= before.live + 2 * BIG as u64 - SLACK);
        assert!(grown.live <= before.live + 2 * BIG as u64 + SLACK);

        drop(v);
        let after = read();
        assert!(after.live <= before.live + SLACK);
        assert!(after.peak >= before.live + 2 * BIG as u64 - SLACK);

        reset_peak();
        assert!(read().peak <= after.live + SLACK);
    }
}
