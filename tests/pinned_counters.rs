//! Exact counters of three scripted scenarios, pinned.
//!
//! Every number here is a pure discrete-event-sim output, identical on
//! any machine and in any build profile, so the expected values are
//! constants in this file. A mismatch means the policy the scenario
//! exercises changed behaviour; a change that means to do that moves the
//! constant in the same commit and says why.

use dproc::cluster::{ClusterConfig, ClusterSim};
use simcore::{SimDur, SimTime};
use simnet::{FaultPlan, LinkSpec, NodeId};

/// A 3-node mesh with 1.5 MB events and link queues two messages deep
/// (as tight as the fan-out), one node's links degraded to 10 % capacity
/// from 5 s to 45 s: the backpressure and ladder policy.
#[test]
fn overload_policy_counters_are_pinned() {
    let mut cfg = ClusterConfig::new(3)
        .poll_period(SimDur::from_secs(1))
        .failure_bounds(SimDur::from_secs(3), SimDur::from_secs(8))
        .event_pad(1_500_000);
    cfg.link = LinkSpec::fast_ethernet().with_queue(2, 64 * 1024 * 1024);
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    sim.apply_fault_plan(
        &FaultPlan::new(0x0BAD_10AD)
            .degrade_at(SimTime::from_secs(5), NodeId(2), 0.9)
            .heal_link_at(SimTime::from_secs(45), NodeId(2)),
    );
    sim.run_until(SimTime::from_secs(60));
    let w = sim.world();
    assert_eq!(
        (
            w.net.link_drops(),
            w.dmon_total(|s| s.events_shed),
            w.dmon_total(|s| s.ladder_transitions),
        ),
        (75, 0, 4),
        "(link_drops, events_shed, ladder_transitions): backpressure or ladder policy drifted"
    );
}

/// A threshold on load (`Shared` memo class, like every filter here: one
/// run per poll, stamped per subscriber).
const SHARED_FILTER: &str = "{ if (input[LOADAVG].value > 0.25) { output[0] = input[LOADAVG]; } }";
/// A pure passthrough (`Shared`).
const PASSTHROUGH_FILTER: &str = "{ output[0] = input[FREEMEM]; }";

/// An 8-node mesh where each of the 56 streams gets one of two certified
/// filters: every deployment must be admitted and counted, and the
/// filtered streams must deliver what they did.
#[test]
fn filter_mesh_compile_counters_are_pinned() {
    let mut sim = ClusterSim::new(ClusterConfig::new(8).poll_period(SimDur::from_secs(1)));
    sim.start();
    sim.run_until(SimTime::from_secs(2));
    let calib = sim.world().calib.clone();
    let w = sim.world_mut();
    let n = w.len();
    for p in 0..n {
        for s in (0..n).filter(|&s| s != p) {
            let source = if (p + s) % 2 == 0 {
                SHARED_FILTER
            } else {
                PASSTHROUGH_FILTER
            };
            let msg = kecho::ControlMsg::DeployFilter {
                source: source.into(),
            };
            w.dmons[p].on_control(NodeId(s), &msg, &calib);
        }
    }
    let before = sim.world().mon_delivered;
    sim.run_until(SimTime::from_secs(32));
    let w = sim.world();
    assert_eq!(
        (
            w.dmon_total(|s| s.filters_compiled),
            w.dmon_total(|s| s.interp_fallbacks),
            w.mon_delivered - before,
        ),
        (56, 0, 963),
        "(filters_compiled, interp_fallbacks, filter_events): a certified filter was not admitted, or the filtered streams changed"
    );
}

/// 12 nodes in three racks of four: each rack's aggregator folds its
/// members into a digest and publishes it to the other two over the
/// spine, which must carry them without a drop.
#[test]
fn rack_digest_counters_are_pinned() {
    let cfg = ClusterConfig::new(12)
        .racks(4)
        .poll_period(SimDur::from_secs(1));
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    sim.run_until(SimTime::from_secs(30));
    let w = sim.world();
    assert_eq!(
        (
            w.dmon_total(|s| s.digests_sent),
            w.dmon_total(|s| s.digests_received),
            w.dmon_total(|s| s.digest_records),
            w.net.spine_drops(),
        ),
        (176, 174, 870, 0),
        "(digests sent, received, records, spine_drops): the digest tier's cadence or payload drifted"
    );
}
