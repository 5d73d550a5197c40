//! Power as a first-class resource — the paper's stated future work for
//! wireless/mobile systems, built on dproc's extensibility: the battery
//! module is registered at *run time* on a handheld client ("monitoring
//! functionality available in the remote kernel but not directly
//! supported in dproc"), its readings flow to the SmartPointer server
//! like any other metric, and the server trades stream quality for
//! battery life once charge runs low.
//!
//! Run with: `cargo run --release --example mobile_client`

use dproc::cluster::{ClusterConfig, ClusterSim};
use dproc::modules::PowerMon;
use simcore::SimTime;
use simnet::NodeId;
use simos::host::HostConfig;
use simos::Battery;
use smartpointer::policy::Policy;
use smartpointer::{FrameSpec, SmartPointer, SmartPointerConfig, StreamMode};

fn main() {
    let cfg = ClusterConfig::named(&["server", "handheld", "aux"])
        .host_cfg(1, HostConfig::uniprocessor());
    let mut sim = ClusterSim::new(cfg);
    sim.start();

    // A small battery so the run shows a full discharge curve quickly.
    sim.world_mut().hosts[1].battery = Some(Battery::new(4000.0, 0.7, 1.3, 2e-6));
    println!("registering the POWER module on the handheld at run time...");
    sim.world_mut().dmons[1].register_module(Box::new(PowerMon));

    let app = SmartPointer::install(
        &mut sim,
        SmartPointerConfig {
            server: NodeId(0),
            clients: vec![(NodeId(1), Policy::NoFilter)],
            spec: FrameSpec::interactive(),
            rate_hz: 5.0,
            write_to_disk: false,
            queue_cap: 64,
        },
    );

    println!("\n  t(s)  battery%  stream   frames/s");
    let mut last_processed = 0u64;
    let mut throttled = false;
    for step in 1..=12 {
        let t = SimTime::from_secs(step * 120);
        sim.run_until(t);
        // The *server* reads the handheld's battery through dproc and
        // throttles the stream below 50% charge — power-aware stream
        // management, no client-side involvement.
        let battery = sim.world().dmons[0]
            .remote_value(NodeId(1), "BATTERY")
            .map_or(1.0, |(v, _)| v);
        if battery < 0.5 && !throttled {
            // Low-power mode: server-side pre-rendering at reduced quality.
            // (Deep subsampling would be wrong here — it *raises* client
            // CPU for reconstruction, the same single-resource pathology
            // as the paper's Fig. 11. Pre-rendered imagery at quality /2
            // cuts both the handheld's render CPU and its radio bytes.)
            app.set_policy(0, Policy::Static(StreamMode::PreRender(2)));
            throttled = true;
        }
        let st = app.client_stats(0);
        let rate = (st.processed - last_processed) as f64 / 120.0;
        last_processed = st.processed;
        println!(
            "  {:>4}  {:>7.1}  {:<7}  {:>7.2}{}",
            step * 120,
            battery * 100.0,
            st.mode_log
                .last()
                .map(|(_, m)| m.label())
                .unwrap_or_default(),
            rate,
            if throttled && battery >= 0.5 {
                ""
            } else if throttled {
                "   <- throttled to save radio+CPU"
            } else {
                ""
            }
        );
    }

    let now = sim.now();
    let w = sim.world_mut();
    w.hosts[1].advance(now);
    let b = w.hosts[1].battery.as_ref().unwrap();
    println!(
        "\nfinal battery: {:.1}% ({:.0} J) — throttling the stream stretched it",
        b.fraction() * 100.0,
        b.level_j()
    );
}
