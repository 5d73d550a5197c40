//! One scenario value, the named set-ups the robustness tests and
//! `chaos_soak` share, and the checks they make on a running cluster.
//!
//! A [`Scenario`] is a cluster configuration and a fault plan; the whole
//! simulation is built from it by [`Scenario::build`]. Each check reads a
//! [`ClusterWorld`] and says what is wrong, so a test asserts on it and the
//! soak reports it.

use dproc::cluster::{ClusterConfig, ClusterSim, ClusterWorld};
use dproc::PeerHealth;
use kecho::OUTBOX_CAP;
use simcore::{SimDur, SimTime};
use simnet::{FaultAction, FaultPlan, LinkSpec, NodeId};

/// A cluster and the faults it runs through.
pub struct Scenario {
    pub cfg: ClusterConfig,
    pub plan: FaultPlan,
}

impl Scenario {
    /// The cluster on `threads` engine shards (1 = serial), started, with
    /// the plan applied.
    pub fn build(&self, threads: usize) -> ClusterSim {
        let mut sim = ClusterSim::new(self.cfg.clone());
        sim.set_threads(threads);
        sim.start();
        sim.apply_fault_plan(&self.plan);
        sim
    }

    /// Three nodes, 1.5 MB events, link queues `queue_msgs` messages deep,
    /// 3 s / 8 s failure bounds, and node 2's links at a tenth of their
    /// capacity from 5 s to 45 s. Healthy, an event serialises in ~120 ms
    /// at 100 Mb/s; degraded, in ~1.2 s, so node 2's uplink and downlink
    /// carry more than the wire can: queues fill, frames tail-drop, and
    /// flow control and the ladder have to cope.
    pub fn overload3(queue_msgs: usize) -> Scenario {
        let mut cfg = ClusterConfig::new(3)
            .failure_bounds(SimDur::from_secs(3), SimDur::from_secs(8))
            .event_pad(1_500_000);
        cfg.link = LinkSpec::fast_ethernet().with_queue(queue_msgs, 64 << 20);
        let plan = FaultPlan::new(0x0BAD_10AD)
            .degrade_at(SimTime::from_secs(5), NodeId(2), 0.9)
            .heal_link_at(SimTime::from_secs(45), NodeId(2));
        Scenario { cfg, plan }
    }

    /// The benchmark's `overload8-faults` star: eight nodes, 200 KB events,
    /// 7-message link queues, 3 s / 8 s failure bounds, 1 ms stagger.
    pub fn faulted_star8(plan: FaultPlan) -> Scenario {
        let mut cfg = ClusterConfig::new(8)
            .event_pad(200_000)
            .failure_bounds(SimDur::from_secs(3), SimDur::from_secs(8))
            .stagger(SimDur::from_millis(1));
        cfg.link = LinkSpec::fast_ethernet().with_queue(7, 64 << 20);
        Scenario { cfg, plan }
    }
}

/// Seconds per [`FAULT_CYCLE`].
pub const FAULT_CYCLE_S: u64 = 40;

/// One fault cycle of [`Scenario::faulted_star8`], by the second of the
/// cycle each fault strikes at. Every path that destroys a frame is hit,
/// and peers are evicted.
pub const FAULT_CYCLE: [(u64, FaultAction); 8] = [
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

/// Everything observable about a finished run, in comparable form: the
/// `/proc` forest of every host, the d-mon counters, the latency sampler
/// (as raw f64 bits), the network and fault counters.
#[derive(PartialEq, Debug)]
pub struct Fingerprint {
    pub proc_trees: Vec<String>,
    pub dmon_stats: Vec<String>,
    pub mon_delivered: u64,
    pub ctl_delivered: u64,
    pub latency_len: usize,
    pub latency_mean_bits: u64,
    pub latency_p95_bits: u64,
    pub net_deliveries: u64,
    pub net_payload: u64,
    pub net_drops: u64,
    pub net_queue_hwm: (usize, u64),
    pub fault_stats: String,
}

pub fn fingerprint(w: &ClusterWorld) -> Fingerprint {
    Fingerprint {
        proc_trees: w.hosts.iter().map(|h| h.proc.render_tree()).collect(),
        dmon_stats: w.dmons.iter().map(|d| format!("{:?}", d.stats)).collect(),
        mon_delivered: w.mon_delivered,
        ctl_delivered: w.ctl_delivered,
        latency_len: w.mon_latency_us.len(),
        latency_mean_bits: w.mon_latency_us.mean().to_bits(),
        latency_p95_bits: w.mon_latency_us.percentile(95.0).to_bits(),
        net_deliveries: w.net.deliveries(),
        net_payload: w.net.payload_bytes(),
        net_drops: w.net.link_drops(),
        net_queue_hwm: w.net.queue_hwm(),
        fault_stats: format!("{:?}", w.fault.stats),
    }
}

/// No link queue ever held more than `queue_cap` messages, and no
/// publisher's outbox holds more than `OUTBOX_CAP`; or what broke it.
pub fn bounded(w: &ClusterWorld, queue_cap: usize) -> Result<(), String> {
    let (hwm, _) = w.net.queue_hwm();
    if hwm > queue_cap {
        return Err(format!("link queue depth {hwm} over cap {queue_cap}"));
    }
    for (i, d) in w.dmons.iter().enumerate() {
        for j in 0..w.len() {
            let parked = d.outbox_len(NodeId(j));
            if parked > OUTBOX_CAP {
                return Err(format!("n{i} outbox to n{j} {parked} over cap"));
            }
        }
    }
    Ok(())
}

/// Every node alive on ladder rung 0, every peer Fresh, every outbox
/// empty; or the first node that is not.
pub fn converged(w: &ClusterWorld) -> Result<(), String> {
    for (i, d) in w.dmons.iter().enumerate() {
        if !w.is_alive(NodeId(i)) {
            return Err(format!("n{i} down"));
        }
        for j in (0..w.len()).filter(|&j| j != i).map(NodeId) {
            let (health, outbox) = (d.peer_health(j), d.outbox_len(j));
            if health != Some(PeerHealth::Fresh) || outbox > 0 {
                let credits = d.credits_for(j);
                return Err(format!(
                    "n{i} → n{}: {health:?}, {outbox} parked, {credits} credits",
                    j.0
                ));
            }
        }
        if d.ladder_level() != 0 {
            return Err(format!("n{i} on rung {}", d.ladder_level()));
        }
    }
    Ok(())
}

/// Frames destroyed so far, by where: `[uplink tail-drops, drops inside
/// the switch, into a dead NIC, across a partition, by injected loss]`.
pub fn destroyed(w: &ClusterWorld) -> [u64; 5] {
    let ids = (0..w.len()).map(NodeId);
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
/// delivered frame first, then per node two cost samples per poll and a
/// freshness sample per digest received.
pub fn samplers(w: &ClusterWorld) -> Vec<usize> {
    let per_node = w.dmons.iter().map(|d| &d.stats).flat_map(|s| {
        [
            s.submit_cost_us.len(),
            s.receive_cost_us.len(),
            s.digest_staleness_s.len(),
        ]
    });
    std::iter::once(w.mon_latency_us.len())
        .chain(per_node)
        .collect()
}

/// Panics if a sampler doubled its capacity between two readings of
/// [`samplers`]: an allocator call counted between them could be the
/// sampler's, not the code path's under test.
pub fn assert_no_sampler_doubled(before: &[usize], after: &[usize]) {
    for (a, b) in before.iter().zip(after) {
        assert_eq!(a.next_power_of_two(), b.next_power_of_two(), "{a} → {b}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converged_names_a_crashed_node_until_it_is_back() {
        let t = SimTime::from_secs;
        let cfg = ClusterConfig::new(3).failure_bounds(SimDur::from_secs(3), SimDur::from_secs(8));
        let plan = FaultPlan::new(1)
            .crash_at(t(2), NodeId(1))
            .revive_at(t(20), NodeId(1));
        let mut sim = Scenario { cfg, plan }.build(1);
        sim.run_until(t(15));
        let down = converged(sim.world()).expect_err("a crashed node");
        assert!(down.contains("n1"), "{down}");
        sim.run_until(t(40));
        assert_eq!(converged(sim.world()), Ok(()));
    }
}
