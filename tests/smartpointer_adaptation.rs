//! Cross-crate adaptation behaviour: the SmartPointer server's decisions
//! are driven end-to-end by dproc monitoring (no side channels), and the
//! paper's Section 4.2 claims hold.

use dproc::cluster::{ClusterConfig, ClusterSim};
use simcore::{SimDur, SimTime};
use simnet::NodeId;
use simos::host::HostConfig;
use smartpointer::policy::{MonitorSet, Policy};
use smartpointer::scenarios;
use smartpointer::{FrameSpec, SmartPointer, SmartPointerConfig, StreamMode};

fn setup(policy: Policy) -> (ClusterSim, SmartPointer) {
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
    (sim, app)
}

#[test]
fn adaptation_happens_via_monitoring_channel() {
    let (mut sim, app) = setup(Policy::Dynamic(MonitorSet::Cpu));
    sim.run_until(SimTime::from_secs(20));
    assert_eq!(app.client_stats(0).last_mode, Some(StreamMode::Raw));

    // Load the client. The server's knowledge can only arrive through
    // dproc's monitoring channel; once it does, the mode flips.
    sim.start_linpack(NodeId(1), 3);
    sim.run_until(SimTime::from_secs(60));
    assert_eq!(
        app.client_stats(0).last_mode,
        Some(StreamMode::PreRender(1)),
        "server switched to pre-rendered imagery"
    );

    // Remove the load; the mode returns to raw once loadavg decays.
    {
        let now = sim.now();
        let w = sim.world_mut();
        let lp = &mut w.linpacks[1];
        lp.stop_all(&mut w.hosts[1].cpu, now);
    }
    sim.run_until(SimTime::from_secs(120));
    assert_eq!(
        app.client_stats(0).last_mode,
        Some(StreamMode::Raw),
        "adaptation is reversible"
    );
}

#[test]
fn mode_transitions_are_recorded_in_order() {
    let (mut sim, app) = setup(Policy::Dynamic(MonitorSet::Cpu));
    sim.run_until(SimTime::from_secs(20));
    sim.start_linpack(NodeId(1), 3);
    sim.run_until(SimTime::from_secs(60));
    let st = app.client_stats(0);
    let modes: Vec<StreamMode> = st.mode_log.iter().map(|&(_, m)| m).collect();
    let first_img = modes
        .iter()
        .position(|&m| m == StreamMode::PreRender(1))
        .expect("switched");
    assert!(modes[..first_img].iter().all(|&m| m == StreamMode::Raw));
    // Timestamps strictly increase.
    for pair in st.mode_log.windows(2) {
        assert!(pair[0].0 < pair[1].0);
    }
}

#[test]
fn overloaded_no_filter_client_drops_frames() {
    let (mut sim, app) = setup(Policy::NoFilter);
    sim.start_linpack(NodeId(1), 6);
    sim.run_until(SimTime::from_secs(200));
    let st = app.client_stats(0);
    assert!(st.dropped > 0, "the bounded event buffer overflows");
    // Latency plateaus near queue_cap * service_time rather than growing
    // without bound.
    let tail: Vec<f64> = st.log.iter().rev().take(5).map(|&(_, l)| l).collect();
    let cap_latency = 64.0 * 0.12 * 7.0; // cap * frame cost * (6 linpack + 1)
    assert!(
        tail.iter().all(|&l| l < cap_latency * 1.3),
        "latency bounded by the buffer: {tail:?}"
    );
}

#[test]
fn dynamic_net_filter_tracks_available_bandwidth() {
    // Bulk stream against a worsening link.
    let lat_60 = scenarios::net_perturbed(Policy::Dynamic(MonitorSet::Net), 60.0, 30);
    let lat_85 = scenarios::net_perturbed(Policy::Dynamic(MonitorSet::Net), 85.0, 30);
    assert!(lat_60 < 1.5, "fits after adaptation: {lat_60}");
    assert!(
        lat_85 < 2.0,
        "still bounded at 85 Mbps perturbation: {lat_85}"
    );
    let none_85 = scenarios::net_perturbed(Policy::NoFilter, 85.0, 30);
    assert!(
        none_85 > lat_85 * 3.0,
        "no-filter collapses: {none_85} vs {lat_85}"
    );
}

#[test]
fn single_resource_adaptations_show_the_paper_pathologies() {
    // At combined perturbation step 7:
    let k = 7;
    let cpu_only = scenarios::hybrid(MonitorSet::Cpu, k, 40);
    let net_only = scenarios::hybrid(MonitorSet::Net, k, 40);
    let hybrid = scenarios::hybrid(MonitorSet::Hybrid, k, 40);
    // CPU-only pre-renders full-size imagery into a congested link.
    assert!(
        cpu_only > hybrid * 2.0,
        "cpu-only pathology: {cpu_only} vs {hybrid}"
    );
    // Net-only subsamples hard and burns the loaded client's CPU.
    assert!(
        net_only > hybrid * 2.0,
        "net-only pathology: {net_only} vs {hybrid}"
    );
    assert!(hybrid < 1.5, "hybrid stays interactive: {hybrid}");
}

#[test]
fn two_clients_adapt_independently() {
    let cfg = ClusterConfig::named(&["server", "c1", "c2", "aux"])
        .host_cfg(1, HostConfig::uniprocessor())
        .host_cfg(2, HostConfig::uniprocessor());
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    sim.write_control(NodeId(1), "c1", "window cpu 5");
    sim.write_control(NodeId(2), "c2", "window cpu 5");
    let app = SmartPointer::install(
        &mut sim,
        SmartPointerConfig {
            server: NodeId(0),
            clients: vec![
                (NodeId(1), Policy::Dynamic(MonitorSet::Cpu)),
                (NodeId(2), Policy::Dynamic(MonitorSet::Cpu)),
            ],
            spec: FrameSpec::interactive(),
            rate_hz: 5.0,
            write_to_disk: true,
            queue_cap: 64,
        },
    );
    // Only client 1 is loaded.
    sim.run_until(SimTime::from_secs(20));
    sim.start_linpack(NodeId(1), 3);
    sim.run_until(SimTime::from_secs(80));
    assert_eq!(
        app.client_stats(0).last_mode,
        Some(StreamMode::PreRender(1))
    );
    assert_eq!(app.client_stats(1).last_mode, Some(StreamMode::Raw));
    // Both keep the full event rate.
    let p0 = app.client_stats(0).processed;
    let p1 = app.client_stats(1).processed;
    sim.run_for(SimDur::from_secs(20));
    assert!(app.client_stats(0).processed - p0 >= 95);
    assert!(app.client_stats(1).processed - p1 >= 95);
}

#[test]
fn handheld_client_gets_prerendered_stream_while_workstation_gets_raw() {
    // Heterogeneous clients, as the paper's intro motivates: "clients
    // which can range from high-end display like ImmersaDesk to smaller
    // display like iPAQ". The slow handheld saturates on the raw feed;
    // the dynamic filter pre-renders for it while the quad workstation
    // keeps the full-quality data.
    let cfg = ClusterConfig::named(&["server", "workstation", "ipaq", "aux"])
        .host_cfg(2, HostConfig::handheld());
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    sim.write_control(NodeId(2), "ipaq", "window cpu 5");
    let app = SmartPointer::install(
        &mut sim,
        SmartPointerConfig {
            server: NodeId(0),
            clients: vec![
                (NodeId(1), Policy::Dynamic(MonitorSet::Hybrid)),
                (NodeId(2), Policy::Dynamic(MonitorSet::Hybrid)),
            ],
            spec: FrameSpec::interactive(),
            rate_hz: 5.0,
            write_to_disk: false,
            queue_cap: 64,
        },
    );
    sim.run_until(SimTime::from_secs(120));
    // The workstation renders raw frames with ease.
    assert_eq!(app.client_stats(0).last_mode, Some(StreamMode::Raw));
    // The handheld cannot (0.12 s/frame at 17.4 Mflops becomes 0.7 s at
    // 3 Mflops, far over the 0.2 s budget): its own processing load pushes
    // its run queue up and the server switches it to imagery.
    assert!(
        matches!(
            app.client_stats(1).last_mode,
            Some(StreamMode::PreRender(_))
        ),
        "handheld adapted: {:?}",
        app.client_stats(1).last_mode
    );
    // Both sustain the event rate after adaptation.
    let p = app.client_stats(1).processed;
    sim.run_for(SimDur::from_secs(20));
    assert!(app.client_stats(1).processed - p >= 95);
}
