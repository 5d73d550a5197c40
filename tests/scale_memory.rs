//! Per-node d-mon state scales with the rack, not the cluster.
//!
//! A d-mon exchanges streams only with its rack-scoped channels' members,
//! so the peers it holds state for must stay at the rack size however
//! many racks the cluster has — the property that keeps a 1024-node run's
//! heap linear in the node count instead of quadratic. Both are measured
//! here: the largest peer table, and the live heap the cluster holds per
//! node.

use dproc::cluster::{ClusterConfig, ClusterSim};
use dproc_bench::alloc::{self, Counting};
use simcore::SimTime;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Ceiling on live heap per node, per rack member: 70 KB per node at 32
/// per rack. Rack-sized peer tables measure 1.8 to 1.9 KB per member at
/// 256 and 1024 nodes / 32 per rack and at 4096 / 64 — the ceiling is
/// the largest of those plus 15 % — while cluster-sized ones cost
/// several times that at 1024 / 32 and grow with the node count.
const HEAP_KB_PER_RACK_MEMBER_MAX: f64 = 2.19;

/// `n` nodes in racks of `rack` after `secs` sim-s of polling, digests
/// included: the largest per-node peer table, and the live heap the
/// cluster holds per node in KB. Asserts on the way that the digest tier
/// ran, the spine dropped nothing and the heap is under the ceiling. The
/// serial engine runs the cluster on this thread, so its heap is this
/// thread's live bytes.
fn scale_run(n: usize, rack: usize, secs: u64) -> (usize, f64) {
    let live_before = alloc::live();
    let mut sim = ClusterSim::new(ClusterConfig::new(n).racks(rack));
    sim.start();
    sim.run_until(SimTime::from_secs(secs));
    let heap_kb = (alloc::live() - live_before) as f64 / 1024.0 / n as f64;
    let per_member = heap_kb / rack as f64;
    println!(
        "{n} nodes / {rack} per rack: {heap_kb:.1} KB per node, {per_member:.2} KB per rack member"
    );
    let w = sim.world();
    assert!(w.mon_delivered > 0, "{n} nodes: nothing was monitored");
    let digests: u64 = w.dmon_total(|s| s.digests_received);
    assert!(digests > 0, "{n} nodes: the digest tier never ran");
    assert_eq!(w.net.spine_drops(), 0, "{n} nodes: spine drops");

    let ceiling = HEAP_KB_PER_RACK_MEMBER_MAX * rack as f64;
    assert!(
        heap_kb <= ceiling,
        "{n} nodes: {heap_kb:.1} KB of heap per node, over {ceiling:.0} KB \
         (per-node state growing with the cluster?)"
    );
    let tracked = w.dmons.iter().map(dproc::DMon::tracked_peers);
    (tracked.max().expect("non-empty cluster"), heap_kb)
}

#[test]
fn peer_tables_stay_rack_sized_as_the_cluster_grows() {
    const RACK: usize = 32;
    let (peers_256, heap_256) = scale_run(256, RACK, 5);
    let (peers_1024, heap_1024) = scale_run(1024, RACK, 5);
    // Home range only: rack-scoped monitoring never touches an
    // out-of-rack peer, so nothing spills.
    assert!(
        peers_256 <= RACK,
        "{peers_256} peers tracked in a {RACK}-node rack"
    );
    assert_eq!(
        peers_256, peers_1024,
        "per-node state grew with the cluster"
    );
    assert!(
        (heap_1024 / heap_256 - 1.0).abs() <= 0.05,
        "heap per node {heap_256:.1} KB at 256 nodes, {heap_1024:.1} KB at 1024: not flat within 5 %"
    );
}

/// The 4096-node / 64-rack run README and DESIGN.md §16 quote; CI runs it
/// in release (`cargo test --release --test scale_memory -- --ignored`).
#[test]
#[ignore = "24 s in debug, 7 s in release"]
fn four_thousand_nodes_keep_rack_sized_state() {
    const RACK: usize = 64;
    let (peers, _) = scale_run(4096, RACK, 8);
    assert!(peers <= RACK, "{peers} peers tracked in a {RACK}-node rack");
}
