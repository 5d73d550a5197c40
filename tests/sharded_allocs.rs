//! A poll round's payload buffers come back: on a 64-node star run on two
//! engine shards, where the thread that delivers a frame is not always the
//! one that built it, a simulated second more costs next to no allocator
//! calls per frame it delivers. The record pool holds a whole round
//! (`kecho::event`'s `RECORD_POOL_CAP`); when it held 64 buffers of the
//! round's 4032, every frame was a `malloc` on one thread and a `free` on
//! the other. Counted with an allocator of this binary's own, over every
//! thread — the only test here, so nothing else runs beside it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use dproc::cluster::{ClusterConfig, ClusterSim};
use simcore::{SimDur, SimTime};

static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter influences nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout`, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocator calls, monitoring frames delivered)` of the star built and
/// run for `secs` simulated seconds in one `run_until`, on a thread of its
/// own: the record pools are per thread and the engine's workers live for
/// one `run_until`, so every run starts with every pool empty.
fn run(secs: u64) -> (u64, u64) {
    let star = move || {
        let before = CALLS.load(Relaxed);
        let mut sim = ClusterSim::new(ClusterConfig::new(64).stagger(SimDur::from_micros(1)));
        sim.set_threads(2);
        sim.start();
        sim.run_until(SimTime::from_secs(secs));
        assert!(sim.parallel_stats().is_some(), "the sharded engine ran it");
        (CALLS.load(Relaxed) - before, sim.world().mon_delivered)
    };
    std::thread::spawn(star).join().expect("the run panicked")
}

#[test]
fn thirty_more_seconds_on_two_shards_cost_under_a_tenth_of_a_call_per_frame() {
    // Two runs of one deterministic cluster: what the longer one adds to
    // the shorter is thirty simulated seconds after a three-second warm-up
    // (set-up, first contact, vectors growing to size). Thirty, because
    // which thread claims which shard is a race, and with it how many
    // buffers each run's two pools come to hold between them — one round's
    // worth or two. That difference is 0.2 calls per frame over five
    // seconds and 0.03 over thirty; the pool of 64 reads 0.97 over either.
    let (warm_calls, warm_frames) = run(3);
    let (calls, frames) = run(33);
    let more = frames - warm_frames;
    assert_eq!(more, 30 * 64 * 63, "a frame per pair per second");
    let per_frame = calls.saturating_sub(warm_calls) as f64 / more as f64;
    assert!(
        per_frame < 0.1,
        "{per_frame:.3} allocator calls per delivered frame ({warm_calls} calls in 3 s, {calls} in 33 s)"
    );
}
