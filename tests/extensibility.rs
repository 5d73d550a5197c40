//! Run-time extensibility and fault tolerance — the paper's claims beyond
//! the headline figures:
//!
//! * monitoring modules can be added at run time without restarting dproc
//!   (here: the battery/power module on a mobile host),
//! * peer-to-peer channels survive node crashes that silence a
//!   central-collector deployment.

use dproc::cluster::{ClusterConfig, ClusterSim};
use dproc::modules::PowerMon;
use simcore::{SimDur, SimTime};
use simnet::{NodeId, TopologySpec};
use simos::host::HostConfig;
use simos::Battery;

#[test]
fn power_module_registers_at_runtime() {
    let mut sim = ClusterSim::new(ClusterConfig::named(&["server", "handheld"]));
    sim.start();
    sim.world_mut().hosts[1].battery = Some(Battery::handheld());
    sim.run_until(SimTime::from_secs(5));

    // Before registration: five standard modules, no power entry anywhere.
    assert_eq!(sim.world().dmons[1].module_count(), 5);
    assert!(sim.world().dmons[0]
        .remote_value(NodeId(1), "BATTERY")
        .is_none());
    assert!(!sim.world().hosts[0].proc.exists("cluster/handheld/power"));

    // Register POWER MON on the handheld, mid-run, no restart.
    sim.world_mut().dmons[1].register_module(Box::new(PowerMon));
    assert_eq!(sim.world().dmons[1].module_count(), 6);
    sim.run_until(SimTime::from_secs(10));

    // The server now sees the battery through /proc and the fast path.
    let (frac, _) = sim.world().dmons[0]
        .remote_value(NodeId(1), "BATTERY")
        .expect("battery metric flows");
    assert!(frac > 0.99 && frac <= 1.0, "nearly full: {frac}");
    let entry = sim.world().hosts[0]
        .proc
        .read("cluster/handheld/power")
        .unwrap();
    assert!(entry.starts_with("power "), "{entry}");
}

#[test]
fn battery_drains_faster_under_load() {
    let drain_after = |load_threads: usize| {
        let mut sim = ClusterSim::new(
            ClusterConfig::named(&["server", "handheld"]).host_cfg(1, HostConfig::uniprocessor()),
        );
        sim.start();
        sim.world_mut().hosts[1].battery = Some(Battery::handheld());
        sim.world_mut().dmons[1].register_module(Box::new(PowerMon));
        if load_threads > 0 {
            sim.start_linpack(NodeId(1), load_threads);
        }
        sim.run_until(SimTime::from_secs(1800));
        let w = sim.world_mut();
        let now = SimTime::from_secs(1800);
        w.hosts[1].advance(now);
        w.hosts[1].battery.as_ref().unwrap().fraction()
    };
    let idle = drain_after(0);
    let busy = drain_after(2);
    assert!(
        busy < idle,
        "CPU load costs charge: idle {idle} vs busy {busy}"
    );
    assert!(idle > 0.8, "idle handheld barely drains in 30 min: {idle}");
    assert!(busy < 0.85, "busy one visibly drains: {busy}");
}

#[test]
fn battery_metric_usable_in_ecode_filters() {
    let mut sim = ClusterSim::new(ClusterConfig::named(&["server", "handheld"]));
    sim.start();
    // A battery that plummets: high idle draw.
    sim.world_mut().hosts[1].battery = Some(Battery::new(1000.0, 2.0, 1.0, 1e-6));
    sim.world_mut().dmons[1].register_module(Box::new(PowerMon));
    sim.run_until(SimTime::from_secs(3));
    // Only report the battery, and only when below half charge — deployed
    // as E-code referencing the runtime-registered metric.
    sim.write_control(
        NodeId(0),
        "handheld",
        "filter { if (input[BATTERY].value < 0.5) { output[0] = input[BATTERY]; } }",
    );
    sim.run_until(SimTime::from_secs(10));
    assert!(sim.world().dmons[1].has_filter(NodeId(0)));
    let before = sim.world().dmons[0].stats.events_received;
    sim.run_for(SimDur::from_secs(100));
    let above_half = sim.world().dmons[0].stats.events_received - before;
    assert_eq!(above_half, 0, "silent while charge > 50%");
    // 1000 J at 2 W drains below 50% after 250 s; run past it.
    sim.run_until(SimTime::from_secs(400));
    let (frac, _) = sim.world().dmons[0]
        .remote_value(NodeId(1), "BATTERY")
        .expect("low-battery reports flow");
    assert!(frac < 0.5, "reported once below threshold: {frac}");
}

#[test]
fn registration_readmits_each_source_once_for_all_its_subscribers() {
    let mut sim = ClusterSim::new(ClusterConfig::named(&["server", "desk", "handheld"]));
    sim.start();
    sim.world_mut().hosts[2].battery = Some(Battery::handheld());
    // Two subscribers share one source on the handheld.
    let shared = "{ if (input[LOADAVG].value >= 0) { output[0] = input[LOADAVG]; } }";
    for sub in [0, 1] {
        sim.write_control(NodeId(sub), "handheld", &format!("filter {shared}"));
    }
    sim.run_until(SimTime::from_secs(5));
    let handheld = &sim.world().dmons[2];
    assert_eq!(handheld.stats.filters_compiled, 2);
    assert_eq!(handheld.filter_for(NodeId(0)).unwrap().env().len(), 5);

    sim.world_mut().dmons[2].register_module(Box::new(PowerMon));
    let handheld = &sim.world().dmons[2];
    // Counted per subscriber, admitted per source: both still hold one
    // artefact, now compiled against the grown environment.
    assert_eq!(handheld.stats.filters_compiled, 4);
    assert_eq!(handheld.stats.filter_errors, 0);
    let (a, b) = (
        handheld.filter_for(NodeId(0)),
        handheld.filter_for(NodeId(1)),
    );
    assert!(std::ptr::eq(a.unwrap(), b.unwrap()));
    assert_eq!(a.unwrap().source(), shared);
    assert_eq!(a.unwrap().env().index_of("BATTERY"), Some(5));

    // Both filters stay in force over the six-metric samples, and a
    // subscriber can now replace its own with one that reads BATTERY.
    let before: Vec<u64> = (0..2)
        .map(|i| sim.world().dmons[i].stats.events_received)
        .collect();
    sim.write_control(
        NodeId(1),
        "handheld",
        "filter { output[0] = input[BATTERY]; }",
    );
    sim.run_until(SimTime::from_secs(15));
    for (i, &was) in before.iter().enumerate() {
        assert!(sim.world().dmons[i].stats.events_received > was, "node {i}");
    }
    let handheld = &sim.world().dmons[2];
    assert_eq!(handheld.stats.filter_errors, 0);
    assert_eq!(handheld.filter_for(NodeId(0)).unwrap().source(), shared);
    assert!(sim.world().dmons[1]
        .remote_value(NodeId(2), "BATTERY")
        .is_some());
    assert!(sim.world().dmons[0]
        .remote_value(NodeId(2), "BATTERY")
        .is_none());
}

#[test]
fn p2p_survives_a_crash_central_does_not() {
    let survivors_exchange = |topo: TopologySpec| {
        let mut sim = ClusterSim::new(ClusterConfig::new(4).topo(topo));
        sim.start();
        sim.run_until(SimTime::from_secs(5));
        // Node 0 (the hub, in central mode) dies.
        sim.world_mut().kill_node(NodeId(0));
        assert!(!sim.world().is_alive(NodeId(0)));
        let before: u64 = (1..4)
            .map(|i| sim.world().dmons[i].stats.events_received)
            .sum();
        sim.run_for(SimDur::from_secs(20));
        let after: u64 = (1..4)
            .map(|i| sim.world().dmons[i].stats.events_received)
            .sum();
        after - before
    };
    let p2p = survivors_exchange(TopologySpec::Star);
    let central = survivors_exchange(TopologySpec::Hub { hub: NodeId(0) });
    // Peer-to-peer: 3 survivors × 2 peers × ~20 events.
    assert!(p2p >= 100, "survivors keep monitoring each other: {p2p}");
    // Central: everything routed through the dead hub is lost (a couple
    // of in-flight relays may still land in the first milliseconds).
    assert!(central <= 5, "hub death silences the cluster: {central}");
    assert!(central * 20 < p2p, "p2p {p2p} vs central {central}");
}

#[test]
fn dead_node_stops_polling_and_receiving() {
    let mut sim = ClusterSim::new(ClusterConfig::new(3));
    sim.start();
    sim.run_until(SimTime::from_secs(5));
    sim.world_mut().kill_node(NodeId(2));
    let sent_before = sim.world().dmons[2].stats.events_sent;
    let recv_before = sim.world().dmons[2].stats.events_received;
    sim.run_for(SimDur::from_secs(20));
    assert_eq!(sim.world().dmons[2].stats.events_sent, sent_before);
    assert_eq!(sim.world().dmons[2].stats.events_received, recv_before);
    // The survivors see the dead node's entries go stale (timestamps stop).
    let (_, last_seen) = sim.world().dmons[0]
        .remote_value(NodeId(2), "LOADAVG")
        .expect("pre-crash data retained");
    assert!(
        last_seen <= SimTime::from_secs(6),
        "no fresh data after crash"
    );
}

#[test]
fn duplicate_module_registration_panics() {
    let result = std::panic::catch_unwind(|| {
        let mut sim = ClusterSim::new(ClusterConfig::new(1));
        sim.world_mut().dmons[0].register_module(Box::new(PowerMon));
        sim.world_mut().dmons[0].register_module(Box::new(PowerMon));
    });
    assert!(
        result.is_err(),
        "double registration is a programming error"
    );
}
