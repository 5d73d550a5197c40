//! Scalability invariants across cluster sizes — the properties behind
//! Figures 4–8, asserted rather than eyeballed.

use dproc::cluster::{ClusterConfig, ClusterSim};
use kecho::{ControlMsg, ParamSpec};
use simcore::{SimDur, SimTime};
use simnet::{NodeId, TopologySpec};
use simos::host::HostConfig;

fn configured(n: usize, param: Option<ParamSpec>, uni0: bool) -> ClusterSim {
    let mut cfg = ClusterConfig::new(n);
    if uni0 {
        cfg = cfg.host_cfg(0, HostConfig::uniprocessor());
    }
    let mut sim = ClusterSim::new(cfg);
    if let Some(param) = param {
        let calib = sim.world().calib.clone();
        let w = sim.world_mut();
        for p in 0..n {
            for s in 0..n {
                if p != s {
                    w.dmons[p].on_control(
                        NodeId(s),
                        &ControlMsg::SetParam {
                            metric: "*".into(),
                            param,
                        },
                        &calib,
                    );
                }
            }
        }
    }
    sim.start();
    sim
}

fn submit_cost_us(n: usize, param: Option<ParamSpec>) -> f64 {
    let mut sim = configured(n, param, false);
    sim.run_until(SimTime::from_secs(70));
    for d in &mut sim.world_mut().dmons {
        d.stats.reset();
    }
    sim.run_for(SimDur::from_secs(60));
    sim.world().dmons[0].stats.submit_cost_us.mean()
}

#[test]
fn submission_cost_grows_linearly_with_subscribers() {
    let c2 = submit_cost_us(2, None);
    let c4 = submit_cost_us(4, None);
    let c8 = submit_cost_us(8, None);
    // 1, 3, 7 events per iteration.
    assert!((c4 / c2 - 3.0).abs() < 0.3, "c4/c2 = {}", c4 / c2);
    assert!((c8 / c2 - 7.0).abs() < 0.5, "c8/c2 = {}", c8 / c2);
}

#[test]
fn update_period_2s_halves_submission_cost() {
    let p1 = submit_cost_us(8, Some(ParamSpec::Period { period_s: 1.0 }));
    let p2 = submit_cost_us(8, Some(ParamSpec::Period { period_s: 2.0 }));
    assert!(
        (p1 / p2 - 2.0).abs() < 0.2,
        "period doubling halves per-iteration cost: {p1} vs {p2}"
    );
}

#[test]
fn differential_filter_stays_under_100us_at_8_nodes() {
    let diff = submit_cost_us(8, Some(ParamSpec::DeltaFraction { fraction: 0.15 }));
    assert!(diff < 150.0, "paper Fig. 6: ~100 us at 8 nodes, got {diff}");
    let p1 = submit_cost_us(8, Some(ParamSpec::Period { period_s: 1.0 }));
    assert!(diff < p1 / 10.0, "order of magnitude below 1 s updates");
}

#[test]
fn linpack_perturbation_ordering_matches_fig4() {
    let mflops = |param: Option<ParamSpec>| {
        let mut sim = configured(8, param, true);
        sim.start_linpack(NodeId(0), 1);
        sim.run_until(SimTime::from_secs(70));
        sim.mark_linpack(NodeId(0));
        sim.run_for(SimDur::from_secs(60));
        sim.linpack_mflops(NodeId(0))
    };
    let p1 = mflops(Some(ParamSpec::Period { period_s: 1.0 }));
    let p2 = mflops(Some(ParamSpec::Period { period_s: 2.0 }));
    let diff = mflops(Some(ParamSpec::DeltaFraction { fraction: 0.15 }));
    assert!(p1 < p2 && p2 < diff, "fig4 ordering: {p1} < {p2} < {diff}");
    assert!(p1 > 17.4 * 0.94, "total drop stays below ~6%: {p1}");
    assert!(diff > 17.4 * 0.99, "differential nearly free: {diff}");
}

#[test]
fn bandwidth_perturbation_under_half_percent() {
    let mut sim = configured(8, Some(ParamSpec::Period { period_s: 1.0 }), false);
    sim.run_until(SimTime::from_secs(70));
    let now = sim.now();
    let w = sim.world_mut();
    let avail = w.iperf_probe_mbps(now, NodeId(0), NodeId(1));
    assert!(avail > 96.0 * 0.995, "Fig. 5: <0.5% drop, got {avail}");
    assert!(avail < 96.0, "but some drop is visible: {avail}");
}

#[test]
fn receive_cost_matches_fig8_band() {
    let mut sim = configured(8, Some(ParamSpec::Period { period_s: 1.0 }), false);
    sim.run_until(SimTime::from_secs(70));
    for d in &mut sim.world_mut().dmons {
        d.stats.reset();
    }
    sim.run_for(SimDur::from_secs(60));
    let us = sim.world().dmons[0].stats.receive_cost_us.mean();
    assert!(us < 2200.0, "paper Fig. 8: <2.2 ms at 8 nodes, got {us}");
    assert!(us > 1500.0, "7 events per iteration cost real time: {us}");
}

#[test]
fn central_collector_bottlenecks_where_p2p_does_not() {
    let busiest = |topo: TopologySpec| {
        let mut sim = ClusterSim::new(ClusterConfig::new(12).topo(topo));
        sim.start();
        sim.run_until(SimTime::from_secs(30));
        let w = sim.world();
        (0..12)
            .map(|i| w.net.uplink(NodeId(i)).messages() + w.net.downlink(NodeId(i)).messages())
            .max()
            .unwrap()
    };
    let p2p = busiest(TopologySpec::Star);
    let hub = busiest(TopologySpec::Hub { hub: NodeId(0) });
    assert!(
        hub > p2p * 4,
        "the concentrator is a hot spot: hub {hub} vs p2p {p2p}"
    );
}

#[test]
fn event_size_scales_submission_cost() {
    let cost = |pad: u32| {
        let mut sim = ClusterSim::new(ClusterConfig::new(4).event_pad(pad));
        sim.start();
        sim.run_until(SimTime::from_secs(30));
        for d in &mut sim.world_mut().dmons {
            d.stats.reset();
        }
        sim.run_for(SimDur::from_secs(30));
        sim.world().dmons[0].stats.submit_cost_us.mean()
    };
    let small = cost(0);
    let large = cost(4900);
    // Fig. 7 vs Fig. 6: ~5 KB events cost ~2.5-3x the small ones.
    assert!(
        large / small > 2.0 && large / small < 4.0,
        "{small} -> {large}"
    );
}
