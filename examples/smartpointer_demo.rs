//! SmartPointer in action: a server streams visualization frames to a
//! client that progressively gets CPU-loaded; the dynamic filter watches
//! the client through dproc and re-customizes the stream, keeping latency
//! flat while the unmonitored baseline collapses.
//!
//! Run with: `cargo run --example smartpointer_demo`

use dproc::cluster::{ClusterConfig, ClusterSim};
use simcore::SimTime;
use simnet::NodeId;
use simos::host::HostConfig;
use smartpointer::policy::{MonitorSet, Policy};
use smartpointer::{FrameSpec, SmartPointer, SmartPointerConfig};

fn run(policy: Policy, label: &str) {
    let cfg =
        ClusterConfig::named(&["server", "client", "aux"]).host_cfg(1, HostConfig::uniprocessor());
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    sim.write_control(NodeId(1), "client", "window cpu 5");
    let app = SmartPointer::install(
        &mut sim,
        SmartPointerConfig {
            server: NodeId(0),
            clients: vec![(NodeId(1), policy)],
            spec: FrameSpec::interactive(),
            rate_hz: 5.0,
            write_to_disk: true,
            queue_cap: 64,
        },
    );

    println!("== {label} ==");
    println!("  t(s)  linpack  mode    latency(ms)  backlog");
    let mut prev_processed = 0usize;
    for step in 0..=6 {
        if step > 0 {
            sim.start_linpack(NodeId(1), 1);
        }
        sim.run_until(SimTime::from_secs(40 * (step as u64 + 1)));
        let st = app.client_stats(0);
        let recent: Vec<f64> = st.latency_s.values()[prev_processed..]
            .iter()
            .map(|l| l * 1000.0)
            .collect();
        prev_processed = st.latency_s.len();
        let mean = if recent.is_empty() {
            f64::NAN
        } else {
            recent.iter().sum::<f64>() / recent.len() as f64
        };
        let mode = st
            .mode_log
            .last()
            .map_or_else(|| "-".into(), |(_, m)| m.label());
        println!(
            "  {:>4}  {:>7}  {:<6}  {:>11.1}  {:>7}",
            40 * (step + 1),
            step,
            mode,
            mean,
            app.backlog(0)
        );
    }
    let st = app.client_stats(0);
    println!(
        "  totals: {} received, {} processed, {} dropped\n",
        st.received, st.processed, st.dropped
    );
}

fn main() {
    run(Policy::NoFilter, "no filter: the original SmartPointer");
    run(
        Policy::Dynamic(MonitorSet::Cpu),
        "dynamic filter: server adapts using dproc's view of the client",
    );
}
