//! A poll round's payload buffers come back, and what a run costs the
//! allocator is a property of the run: on a 64-node star run on two engine
//! shards, where the thread that delivers a frame is not always the one
//! that built it, a simulated second more costs next to no allocator calls
//! per frame it delivers, and the same run makes the same number of calls
//! whichever thread drives it and whichever thread claims which shard. The
//! simulation and each shard own their record pool (`kecho::RecordPool`)
//! and lend it to the thread that runs them; a pool holds a whole round
//! (`kecho::event`'s `RECORD_POOL_CAP`). The same holds under faults, where
//! frames are destroyed on every path, one of them (a drop inside the
//! switch) in the coordinator's replay. Counted with an allocator of this
//! binary's own, over every thread — one test here, so nothing else runs
//! beside it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use dproc::cluster::{ClusterConfig, ClusterSim};
use simcore::{SimDur, SimTime};
use simnet::{FaultPlan, LinkSpec, NodeId};

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

/// The 64-node star on two shards, started.
fn star() -> ClusterSim {
    let mut sim = ClusterSim::new(ClusterConfig::new(64).stagger(SimDur::from_micros(1)));
    sim.set_threads(2);
    sim.start();
    sim
}

/// Allocator calls of the star built and run for ten seconds in ten
/// one-second `run_until` calls: ten crews of workers, each claiming
/// shards in whatever order it gets to them.
fn ten_slices() -> u64 {
    let before = CALLS.load(Relaxed);
    let mut sim = star();
    for s in 1..=10 {
        sim.run_until(SimTime::from_secs(s));
    }
    assert!(sim.parallel_stats().is_some(), "the sharded engine ran it");
    CALLS.load(Relaxed) - before
}

#[test]
fn the_sharded_star_costs_the_same_calls_on_any_thread_and_under_a_hundredth_per_frame() {
    // The same run on this thread, on it again, and on a fresh one. Were
    // the pools the threads', the first run would leave this thread's pool
    // full for the second, a worker's would die with it at the end of
    // every `run_until`, and which shard a thread claimed would decide
    // which pool a buffer went back to.
    let here = ten_slices();
    let again = ten_slices();
    let fresh = std::thread::spawn(ten_slices)
        .join()
        .expect("the run panicked");
    assert_eq!((again, fresh), (here, here), "allocator calls per run");

    // Thirty simulated seconds after a three-second warm-up (set-up, first
    // contact, vectors growing to size), in one `run_until`.
    let mut sim = star();
    sim.run_until(SimTime::from_secs(3));
    let (warm_calls, warm_frames) = (CALLS.load(Relaxed), sim.world().mon_delivered);
    sim.run_until(SimTime::from_secs(33));
    let calls = CALLS.load(Relaxed) - warm_calls;
    let more = sim.world().mon_delivered - warm_frames;
    assert_eq!(more, 30 * 64 * 63, "a frame per pair per second");
    let per_frame = calls as f64 / more as f64;
    assert!(
        per_frame < 0.01,
        "{per_frame:.4} allocator calls per delivered frame ({calls} calls in 30 s)"
    );

    // Under faults too: a frame dropped inside the switch is recycled in
    // the coordinator's replay, into the sending shard's pool.
    let here = faulted_run();
    let again = faulted_run();
    let fresh = std::thread::spawn(faulted_run)
        .join()
        .expect("the run panicked");
    assert_eq!(
        (again, fresh),
        (here, here),
        "allocator calls per faulted run"
    );
}

/// An 8-node star of 200 KB events with short link queues, on two shards,
/// under three 40-second fault cycles: a degraded link (tail-drops at the
/// uplink and inside the switch), a crash past the dead bound and the
/// revival after it, a partition past it too, injected loss. Built and run
/// for two minutes in twelve `run_until` calls; its allocator calls.
fn faulted_run() -> u64 {
    let before = CALLS.load(Relaxed);
    let mut cfg = ClusterConfig::new(8)
        .event_pad(200_000)
        .failure_bounds(SimDur::from_secs(3), SimDur::from_secs(8))
        .stagger(SimDur::from_millis(1));
    cfg.link = LinkSpec::fast_ethernet().with_queue(7, 64 << 20);
    let mut sim = ClusterSim::new(cfg);
    sim.set_threads(2);
    sim.start();
    let mut plan = FaultPlan::new(34);
    for c in 0..3 {
        let at = |s: u64| SimTime::from_secs(40 * c + s);
        plan = plan
            .degrade_at(at(1), NodeId(2), 0.9)
            .crash_at(at(3), NodeId(5))
            .revive_at(at(13), NodeId(5))
            .partition_at(at(15), NodeId(1), NodeId(6))
            .heal_at(at(25), NodeId(1), NodeId(6))
            .loss_at(at(26), 0.2)
            .loss_at(at(30), 0.0)
            .heal_link_at(at(31), NodeId(2));
    }
    sim.apply_fault_plan(&plan);
    for s in 1..=12 {
        sim.run_until(SimTime::from_secs(10 * s));
    }
    let w = sim.world();
    let ids = || (0..8).map(NodeId);
    let uplinks: u64 = ids().map(|i| w.net.uplink(i).drops()).sum();
    let switch: u64 = ids().map(|i| w.net.downlink(i).drops()).sum();
    let f = &w.fault.stats;
    let lost = [
        uplinks,
        switch,
        f.crash_drops,
        f.partition_drops,
        f.loss_drops,
    ];
    assert!(
        lost.iter().all(|&n| n > 0),
        "a destroy path not reached: {lost:?}"
    );
    assert!(sim.parallel_stats().is_some(), "the sharded engine ran it");
    CALLS.load(Relaxed) - before
}
