//! A lost frame gives its buffer back, and a restarted node re-learns its
//! peers without allocating. An 8-node star with 200 KB events and short
//! link queues runs a repeating fault cycle — a degraded link, a crash
//! long enough to be evicted and the revival after it, a partition past
//! the dead bound, injected loss — that destroys frames on every path a
//! running cluster has for it: tail-drops at the sender's uplink and inside
//! the switch, deliveries into a dead NIC, partition and loss drops (the
//! last path, a send from a dead node, is `dproc::node`'s unit tests').
//! Each of them recycles the frame (`kecho::Event::recycle`), so the record
//! pool the simulation lends its thread never runs dry. Once warm, a whole
//! cycle, its faults included, makes no allocator call.

use dproc::cluster::ClusterSim;
use dproc_bench::alloc::{self, Counting};
use dproc_bench::scenario::{
    assert_no_sampler_doubled, destroyed, samplers, Scenario, FAULT_CYCLE, FAULT_CYCLE_S,
};
use simcore::SimDur;
use simnet::FaultPlan;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Cycles counted once warm.
const CYCLES: usize = 20;

/// Cycles run before counting.
const WARM: usize = 300;

/// Run one fault cycle from a cycle boundary, each fault applied at its
/// second; this thread's allocator calls of it.
fn cycle(sim: &mut ClusterSim) -> u64 {
    let before = alloc::calls();
    let start = sim.now();
    for (s, action) in &FAULT_CYCLE {
        sim.run_until(start + SimDur::from_secs(*s));
        let (world, sched) = sim.parts();
        world.apply_fault(sched, action);
    }
    sim.run_until(start + SimDur::from_secs(FAULT_CYCLE_S));
    alloc::calls() - before
}

#[test]
fn a_fault_cycle_on_a_warm_star_makes_no_allocator_call() {
    // No plan: the cycles apply their faults, and loss draws from seed 0.
    let mut sim = Scenario::faulted_star8(FaultPlan::new(0)).build(1);
    // Warm-up: first contact, peer tables, the pool, and each host's
    // run-queue history, which comes to span its quarter of an hour within
    // 23 cycles. What a burst fills grows to the largest burst seen so far:
    // a connection's one-second byte window, a node's event meter, an event
    // wheel slot, the run-queue history. Under random loss a new largest
    // burst keeps turning up ever more rarely, one or two allocator calls
    // each time: at cycles 264, 273 and 281, then 345, 389, 534, 546, 563,
    // 615, 645, 938 and 946 of the first thousand. 300 cycles also leave
    // every sampler between two of its doublings for the cycles below: per
    // node 9 to 12 thousand polls, and 560 thousand-odd frames.
    for _ in 0..WARM {
        cycle(&mut sim);
    }
    let (start, mut lost) = (samplers(sim.world()), destroyed(sim.world()));
    let evicted = |sim: &ClusterSim| sim.world().dmon_total(|s| s.nodes_evicted);
    let mut evictions = evicted(&sim);
    let mut calls = Vec::new();
    for _ in 0..CYCLES {
        calls.push(cycle(&mut sim));
        // Every cycle reaches every path that destroys a frame, and evicts.
        let now = destroyed(sim.world());
        for (k, (a, b)) in lost.iter().zip(&now).enumerate() {
            assert!(b > a, "destroy path {k} not reached: {lost:?} → {now:?}");
        }
        assert!(evicted(&sim) > evictions, "nobody was evicted");
        (lost, evictions) = (now, evicted(&sim));
    }
    assert_no_sampler_doubled(&start, &samplers(sim.world()));
    assert_eq!(calls, [0; CYCLES], "allocator calls per fault cycle");
}
