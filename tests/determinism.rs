//! Reproducibility: identical configurations replay bit-for-bit across
//! the whole stack — the property that makes every figure regenerable.

use dproc::cluster::{ClusterConfig, ClusterSim};
use simcore::{SimRng, SimTime};
use simnet::NodeId;
use simos::host::HostConfig;
use smartpointer::policy::{MonitorSet, Policy};
use smartpointer::{FrameSpec, SmartPointer, SmartPointerConfig, StreamMode};

/// Monitoring deliveries, frames processed, every frame's latency, every
/// frame's emit time and mode, and the monitoring latency's mean.
type Fingerprint = (u64, u64, Vec<f64>, Vec<(f64, StreamMode)>, f64);

fn full_stack_run() -> Fingerprint {
    let cfg = ClusterConfig::new(3).host_cfg(1, HostConfig::uniprocessor());
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    let app = SmartPointer::install(
        &mut sim,
        SmartPointerConfig {
            server: NodeId(0),
            clients: vec![(NodeId(1), Policy::Dynamic(MonitorSet::Hybrid))],
            spec: FrameSpec::interactive(),
            rate_hz: 5.0,
            write_to_disk: true,
            queue_cap: 64,
        },
    );
    sim.start_linpack(NodeId(1), 2);
    sim.start_iperf(NodeId(2), NodeId(1), 40e6);
    sim.run_until(SimTime::from_secs(60));
    let st = app.client_stats(0);
    (
        sim.world().mon_delivered,
        st.processed,
        st.latency_s.values().to_vec(),
        st.mode_log,
        sim.world().mon_latency_us.mean(),
    )
}

#[test]
fn full_stack_replays_identically() {
    let a = full_stack_run();
    let b = full_stack_run();
    assert_eq!(a.0, b.0, "monitoring deliveries");
    assert_eq!(a.1, b.1, "frames processed");
    assert_eq!(a.2, b.2, "frame latencies bit-for-bit");
    assert_eq!(a.3, b.3, "emit times and modes bit-for-bit");
    assert_eq!(a.4, b.4, "latency statistics");
}

#[test]
fn rng_streams_are_reproducible_and_isolated() {
    let mut a = SimRng::seed_from_u64(1234);
    let mut b = SimRng::seed_from_u64(1234);
    let fork_a = a.fork();
    let fork_b = b.fork();
    assert_eq!(fork_a, fork_b, "forked children match across replays");
    assert_eq!(
        (0..1000).map(|_| a.next_u64()).collect::<Vec<_>>(),
        (0..1000).map(|_| b.next_u64()).collect::<Vec<_>>()
    );
}

#[test]
fn event_order_is_stable_under_identical_schedules() {
    use simcore::{Sim, SimDur};
    let run = || {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut world: Vec<u32> = Vec::new();
        let push = sim.register(|w: &mut Vec<u32>, _s: &mut Sim<Vec<u32>>, i| w.push(i as u32));
        for i in 0..100u32 {
            // Many events at the same instant: sequence numbers break ties.
            sim.call_in(SimDur::from_millis((i / 10) as u64), push, u64::from(i));
        }
        sim.run_until(&mut world, simcore::SimTime::from_secs(1));
        world
    };
    assert_eq!(run(), run());
}
