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

// The counting allocator needs `unsafe` to wrap the system allocator.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dproc::cluster::{ClusterConfig, ClusterSim};
use simcore::SimDur;
use simnet::{FaultAction, LinkSpec, NodeId};

/// Counts this thread's allocator calls: the serial engine runs the whole
/// cluster on the calling thread, and the harness's own threads must not
/// show up in the figure.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter never influences the result.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout`, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 8;

/// Seconds per fault cycle.
const CYCLE_S: u64 = 40;

/// One cycle's faults, by the second of the cycle they strike at.
const FAULTS: [(u64, FaultAction); 8] = [
    // Node 2's links at a tenth of their capacity: queues fill, and the
    // uplink and the switch tail-drop.
    (1, FaultAction::Degrade(NodeId(2), 0.9)),
    // Silent past the dead bound: every peer evicts node 5, and what is
    // sent to it before that dies in its NIC.
    (3, FaultAction::Crash(NodeId(5))),
    (13, FaultAction::Revive(NodeId(5))),
    // Past the dead bound too: the two sides evict each other.
    (15, FaultAction::Partition(NodeId(1), NodeId(6))),
    (25, FaultAction::Heal(NodeId(1), NodeId(6))),
    (26, FaultAction::Loss(0.2)),
    (30, FaultAction::Loss(0.0)),
    (31, FaultAction::HealLink(NodeId(2))),
    // Quiet until the cycle ends: time to re-converge.
];

/// Cycles counted once warm.
const CYCLES: usize = 20;

/// Cycles run before counting.
const WARM: usize = 300;

/// The faulted star, started.
fn cluster() -> ClusterSim {
    let bounds = (SimDur::from_secs(3), SimDur::from_secs(8));
    let mut cfg = ClusterConfig::new(N)
        .event_pad(200_000)
        .failure_bounds(bounds.0, bounds.1)
        .stagger(SimDur::from_millis(1));
    cfg.link = LinkSpec::fast_ethernet().with_queue(7, 64 << 20);
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    sim
}

/// Run one fault cycle from a cycle boundary, each fault applied at its
/// second; the allocator calls of it.
fn cycle(sim: &mut ClusterSim) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let start = sim.now();
    for (s, action) in &FAULTS {
        sim.run_until(start + SimDur::from_secs(*s));
        let (world, sched) = sim.parts();
        world.apply_fault(sched, action);
    }
    sim.run_until(start + SimDur::from_secs(CYCLE_S));
    ALLOCS.with(Cell::get) - before
}

/// Frames destroyed so far, by where: `[uplink tail-drops, drops inside
/// the switch, into a dead NIC, across the partition, by injected loss]`.
fn destroyed(sim: &ClusterSim) -> [u64; 5] {
    let w = sim.world();
    let ids = (0..N).map(NodeId);
    let uplinks = ids.clone().map(|i| w.net.uplink(i).drops()).sum();
    let switch = ids.map(|i| w.net.downlink(i).drops()).sum();
    let f = &w.fault.stats;
    [
        uplinks,
        switch,
        f.crash_drops,
        f.partition_drops,
        f.loss_drops,
    ]
}

/// The lengths of every sampler a run appends to: the latency of each
/// delivered frame and two cost samples per node per poll.
fn samplers(sim: &ClusterSim) -> Vec<usize> {
    let w = sim.world();
    let per_node = w.dmons.iter().map(|d| &d.stats);
    let per_node = per_node.flat_map(|s| [s.submit_cost_us.len(), s.receive_cost_us.len()]);
    std::iter::once(w.mon_latency_us.len())
        .chain(per_node)
        .collect()
}

#[test]
fn a_fault_cycle_on_a_warm_star_makes_no_allocator_call() {
    let mut sim = cluster();
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
    let (start, mut lost) = (samplers(&sim), destroyed(&sim));
    let evicted = |sim: &ClusterSim| sim.world().dmon_total(|s| s.nodes_evicted);
    let mut evictions = evicted(&sim);
    let mut calls = Vec::new();
    for _ in 0..CYCLES {
        calls.push(cycle(&mut sim));
        // Every cycle reaches every path that destroys a frame, and evicts.
        let now = destroyed(&sim);
        for (k, (a, b)) in lost.iter().zip(&now).enumerate() {
            assert!(b > a, "destroy path {k} not reached: {lost:?} → {now:?}");
        }
        assert!(evicted(&sim) > evictions, "nobody was evicted");
        (lost, evictions) = (now, evicted(&sim));
    }
    for (a, b) in start.iter().zip(&samplers(&sim)) {
        assert_eq!(a.next_power_of_two(), b.next_power_of_two(), "{a} → {b}");
    }
    assert_eq!(calls, [0; CYCLES], "allocator calls per fault cycle");
}
