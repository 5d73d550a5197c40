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
//! switch) in the coordinator's replay. Counted over every thread — one
//! test here, so nothing else runs beside it.

use dproc::cluster::{ClusterConfig, ClusterSim};
use dproc_bench::alloc::{all_calls, Counting};
use dproc_bench::scenario::{destroyed, Scenario, FAULT_CYCLE, FAULT_CYCLE_S};
use simcore::{SimDur, SimTime};
use simnet::FaultPlan;

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
    let before = all_calls();
    let mut sim = star();
    for s in 1..=10 {
        sim.run_until(SimTime::from_secs(s));
    }
    assert!(sim.parallel_stats().is_some(), "the sharded engine ran it");
    all_calls() - before
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
    let (warm_calls, warm_frames) = (all_calls(), sim.world().mon_delivered);
    sim.run_until(SimTime::from_secs(33));
    let calls = all_calls() - warm_calls;
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

/// `Scenario::faulted_star8` on two shards under three of its fault
/// cycles: a degraded link (tail-drops at the uplink and inside the
/// switch), a crash past the dead bound and the revival after it, a
/// partition past it too, injected loss. Built and run for two minutes in
/// twelve `run_until` calls; its allocator calls.
fn faulted_run() -> u64 {
    let before = all_calls();
    let mut plan = FaultPlan::new(34);
    for c in 0..3 {
        for (s, action) in FAULT_CYCLE {
            plan = plan.at(SimTime::from_secs(c * FAULT_CYCLE_S + s), action);
        }
    }
    let mut sim = Scenario::faulted_star8(plan).build(2);
    for s in 1..=12 {
        sim.run_until(SimTime::from_secs(10 * s));
    }
    let lost = destroyed(sim.world());
    assert!(
        lost.iter().all(|&n| n > 0),
        "a destroy path not reached: {lost:?}"
    );
    assert!(sim.parallel_stats().is_some(), "the sharded engine ran it");
    all_calls() - before
}
