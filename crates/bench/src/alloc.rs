//! The counting allocator every allocation test links.
//!
//! A test binary counts by declaring it its global allocator:
//!
//! ```text
//! #[global_allocator]
//! static GLOBAL: dproc_bench::alloc::Counting = dproc_bench::alloc::Counting;
//! ```
//!
//! It keeps two views. This thread's calls, frees and live bytes leave
//! out the test harness's other threads, and the serial engine runs a
//! whole cluster on the calling thread. The process-wide calls take in
//! every thread, as the sharded engine's workers need.
// Counting means wrapping the system allocator behind `GlobalAlloc`,
// which is an unsafe trait.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator with counters in front of it.
pub struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

static ALL_CALLS: AtomicU64 = AtomicU64::new(0);

/// One `alloc` or `realloc` that changes this thread's live bytes by
/// `delta`.
fn call(delta: i64) {
    ALL_CALLS.fetch_add(1, Relaxed);
    let _ = CALLS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence the result.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        call(layout.size() as i64);
        // SAFETY: the caller's `layout`, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREES.try_with(|n| n.set(n.get() + 1));
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        call(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// This thread's allocator calls (`alloc` and `realloc`).
pub fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// This thread's `dealloc` calls.
pub fn frees() -> u64 {
    FREES.with(Cell::get)
}

/// The bytes this thread has allocated and not freed (negative when it
/// frees what another thread allocated).
pub fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Allocator calls by every thread of the process.
pub fn all_calls() -> u64 {
    ALL_CALLS.load(Relaxed)
}
