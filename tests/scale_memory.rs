//! Per-node d-mon state scales with the rack, not the cluster.
//!
//! A d-mon exchanges streams only with its rack-scoped channels' members,
//! so the peers it holds state for must stay at the rack size however
//! many racks the cluster has — the property that keeps a 1024-node run's
//! heap linear in the node count instead of quadratic.

use dproc::cluster::{ClusterConfig, ClusterSim};
use simcore::SimDur;

const RACK: usize = 32;

/// The largest per-node peer table after 5 sim-s of polling, digests
/// included, on `n` nodes in racks of [`RACK`].
fn max_tracked_peers(n: usize) -> usize {
    let mut sim = ClusterSim::new(ClusterConfig::new(n).racks(RACK));
    sim.start();
    sim.run_for(SimDur::from_secs(5));
    let w = sim.world();
    assert!(w.mon_delivered > 0, "{n} nodes: nothing was monitored");
    let digests: u64 = w.dmon_total(|s| s.digests_received);
    assert!(digests > 0, "{n} nodes: the digest tier never ran");
    let tracked = w.dmons.iter().map(dproc::DMon::tracked_peers);
    tracked.max().expect("non-empty cluster")
}

#[test]
fn peer_tables_stay_rack_sized_as_the_cluster_grows() {
    let at_256 = max_tracked_peers(256);
    let at_1024 = max_tracked_peers(1024);
    // Home range only: rack-scoped monitoring never touches an
    // out-of-rack peer, so nothing spills.
    assert!(
        at_256 <= RACK,
        "{at_256} peers tracked in a {RACK}-node rack"
    );
    assert_eq!(at_256, at_1024, "per-node state grew with the cluster");
}
