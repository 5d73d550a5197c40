//! A `top`-like cluster dashboard: an 8-node cluster where node 0 watches
//! everyone through `/proc/cluster`, while workloads come and go. Also
//! shows what the differential filter does to monitoring traffic.
//!
//! Run with: `cargo run --example cluster_top`

use dproc::cluster::{ClusterConfig, ClusterSim};
use simcore::{SimDur, SimTime};
use simnet::NodeId;

fn dashboard(sim: &ClusterSim) -> String {
    let w = sim.world();
    let mut out = String::new();
    out.push_str(&format!("t={:>6}  ", format!("{}", sim.now())));
    out.push_str("node:  load  free_mb  disk_sec/s\n");
    for i in 1..w.len() {
        let name = &w.hosts[i].name;
        let load = w.dmons[0]
            .remote_value(NodeId(i), "LOADAVG")
            .map_or(f64::NAN, |(v, _)| v);
        let free = w.dmons[0]
            .remote_value(NodeId(i), "FREEMEM")
            .map_or(f64::NAN, |(v, _)| v / 1e6);
        let disk = w.dmons[0]
            .remote_value(NodeId(i), "DISKUSAGE")
            .map_or(f64::NAN, |(v, _)| v);
        out.push_str(&format!(
            "{name:>12}  {load:>5.2}  {free:>7.0}  {disk:>10.0}\n"
        ));
    }
    out
}

fn main() {
    let mut sim = ClusterSim::new(ClusterConfig::new(8));
    sim.start();

    // Scripted workloads: compute on node 3, memory pressure on node 5,
    // disk churn on node 7.
    sim.run_until(SimTime::from_secs(70));
    println!("== idle cluster ==\n{}", dashboard(&sim));

    sim.start_linpack(NodeId(3), 6);
    sim.world_mut().hosts[5]
        .mem
        .alloc("simulation", 400 * 1024 * 1024);
    // Disk churn on node 7: a burst of writes every 500 ms (scheduled
    // through the event loop so DISK MON's sliding window sees it live).
    sim.parts().1.schedule_periodic(
        SimTime::from_secs(70),
        SimDur::from_millis(500),
        |w: &mut dproc::ClusterWorld, s: &mut dproc::ClusterSched| {
            let now = s.now();
            for _ in 0..4 {
                w.hosts[7]
                    .disk
                    .submit(now, simos::disk::IoDir::Write, 512 * 128);
            }
        },
    );
    sim.run_until(SimTime::from_secs(135));
    println!("== loaded cluster (node3 compute, node5 memory, node7 disk) ==");
    println!("{}", dashboard(&sim));

    // Traffic comparison: default 1 s updates vs the differential filter.
    let events_default = sim.world().dmons[0].stats.events_received;
    println!("node0 received {events_default} monitoring events so far (1 s updates)");

    println!("\n== switching every stream to the 15% differential filter ==");
    for target in 1..8 {
        let name = format!("node{target}");
        sim.write_control(NodeId(0), &name, "delta * 0.15");
    }
    // Other nodes do the same for their own subscriptions.
    {
        let calib = sim.world().calib.clone();
        let w = sim.world_mut();
        for publisher in 0..8usize {
            for subscriber in 0..8usize {
                if publisher != subscriber {
                    w.dmons[publisher].on_control(
                        NodeId(subscriber),
                        &kecho::ControlMsg::SetParam {
                            metric: "*".into(),
                            param: kecho::ParamSpec::DeltaFraction { fraction: 0.15 },
                        },
                        &calib,
                    );
                }
            }
        }
        for d in &mut w.dmons {
            d.stats.reset();
        }
    }
    sim.run_for(SimDur::from_secs(65));
    let events_diff = sim.world().dmons[0].stats.events_received;
    println!("node0 received {events_diff} events in the same window with the differential filter");
    println!("{}", dashboard(&sim));
    println!("traffic reduction: the stable metrics stopped flowing; only changes propagate.");
}
