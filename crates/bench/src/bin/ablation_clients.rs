//! Ablation: server fan-out scalability — how many clients one
//! SmartPointer server sustains, with and without dproc-driven dynamic
//! filters.
//!
//! The paper claims its customizations "decrease the total lag in the
//! system and increase stream transfer rate"; this sweep quantifies the
//! aggregate effect as the client population grows. Every client is a
//! uniprocessor display node; half of them carry two linpack threads
//! (mixed population). Without filters the loaded half collapses and
//! drags buffer memory with it; with hybrid dynamic filters every client
//! keeps the frame rate.

use dproc::cluster::{ClusterConfig, ClusterSim};
use simcore::parallel::{run_sweep, suggested_threads};
use simcore::series::{Series, Table};
use simcore::SimTime;
use simnet::NodeId;
use simos::host::HostConfig;
use smartpointer::policy::{MonitorSet, Policy};
use smartpointer::{FrameSpec, SmartPointer, SmartPointerConfig};

struct Outcome {
    mean_rate: f64,
    worst_latency: f64,
    dropped: u64,
}

fn run(n_clients: usize, policy: Policy) -> Outcome {
    let mut cfg = ClusterConfig::new(n_clients + 1);
    for i in 1..=n_clients {
        cfg = cfg.host_cfg(i, HostConfig::uniprocessor());
    }
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    for i in 1..=n_clients {
        sim.write_control(NodeId(i), &format!("node{i}"), "window cpu 5");
    }
    let app = SmartPointer::install(
        &mut sim,
        SmartPointerConfig {
            server: NodeId(0),
            clients: (1..=n_clients).map(|i| (NodeId(i), policy)).collect(),
            spec: FrameSpec::interactive(),
            rate_hz: 5.0,
            write_to_disk: false,
            queue_cap: 64,
        },
    );
    // Half the clients are CPU-loaded.
    for i in (1..=n_clients).step_by(2) {
        sim.start_linpack(NodeId(i), 2);
    }
    sim.run_until(SimTime::from_secs(120));
    let horizon = 120.0;
    let mut rates = Vec::new();
    let mut worst = 0.0f64;
    let mut dropped = 0;
    for c in 0..n_clients {
        let st = app.client_stats(c);
        rates.push(st.processed as f64 / horizon);
        if let Some(&l) = st.latency_s.values().last() {
            worst = worst.max(l);
        }
        dropped += st.dropped;
    }
    Outcome {
        mean_rate: rates.iter().sum::<f64>() / rates.len() as f64,
        worst_latency: worst,
        dropped,
    }
}

fn main() {
    let sizes = [1usize, 2, 4, 8, 12, 16];
    let mut rate_table = Table::new(
        "Ablation: mean client frame rate vs. population (server at 5/s)",
        "clients",
    );
    let mut lat_table = Table::new("Ablation: worst client latency (s)", "clients");
    let mut drop_table = Table::new("Ablation: total frames dropped in 120 s", "clients");
    for (label, policy) in [
        ("no filter", Policy::NoFilter),
        ("dynamic hybrid", Policy::Dynamic(MonitorSet::Hybrid)),
    ] {
        let outcomes = run_sweep(sizes.to_vec(), suggested_threads(6), move |n| {
            run(n, policy)
        });
        let mut rate = Series::new(label);
        let mut lat = Series::new(label);
        let mut drops = Series::new(label);
        for (n, o) in sizes.iter().zip(outcomes) {
            rate.push(*n as f64, o.mean_rate);
            lat.push(*n as f64, o.worst_latency);
            drops.push(*n as f64, o.dropped as f64);
        }
        rate_table.add(rate);
        lat_table.add(lat);
        drop_table.add(drops);
    }
    print!("{}", rate_table.render());
    println!();
    print!("{}", lat_table.render());
    println!();
    print!("{}", drop_table.render());
}
