//! Shared experiment drivers for the figure-regeneration binaries.
//!
//! Each `figN_data` function rebuilds the corresponding figure of the
//! paper's evaluation as a [`simcore::series::Table`], and
//! [`ablation_topology_data`] the topology ablation's two; the `fig*` and
//! `ablation_topology` binaries print them. Independent configuration
//! points run in parallel on a scoped thread pool (`simcore::parallel`),
//! while each simulation itself stays single-threaded and deterministic.

use dproc::cluster::{ClusterConfig, ClusterSim};
use kecho::{ControlMsg, ParamSpec};
use simcore::parallel::{run_sweep, suggested_threads};
use simcore::series::{Series, Table};
use simcore::{SimDur, SimTime};
use simnet::{NodeId, TopologySpec};
use simos::host::HostConfig;
use smartpointer::policy::{MonitorSet, Policy};
use smartpointer::scenarios;
use smartpointer::StreamMode;

/// The three monitoring configurations the microbenchmarks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonConfig {
    /// Update period 1 s.
    Period1,
    /// Update period 2 s.
    Period2,
    /// Differential filter: send on ≥15% change.
    Differential,
}

impl MonConfig {
    /// All three, in the paper's legend order.
    pub fn all() -> [MonConfig; 3] {
        [
            MonConfig::Period1,
            MonConfig::Period2,
            MonConfig::Differential,
        ]
    }

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            MonConfig::Period1 => "update period=1s",
            MonConfig::Period2 => "update period=2s",
            MonConfig::Differential => "differential filter",
        }
    }

    fn param(self) -> ParamSpec {
        match self {
            MonConfig::Period1 => ParamSpec::Period { period_s: 1.0 },
            MonConfig::Period2 => ParamSpec::Period { period_s: 2.0 },
            MonConfig::Differential => ParamSpec::DeltaFraction { fraction: 0.15 },
        }
    }
}

/// Build an `n`-node cluster with the given monitoring configuration
/// applied between every publisher/subscriber pair. `linpack_uni` makes
/// node 0 a uniprocessor (the Fig. 4 probe host).
pub fn micro_cluster(n: usize, cfg: MonConfig, pad: u32, linpack_uni: bool) -> ClusterSim {
    let mut ccfg = ClusterConfig::new(n).event_pad(pad);
    if linpack_uni {
        ccfg = ccfg.host_cfg(0, HostConfig::uniprocessor());
    }
    let mut sim = ClusterSim::new(ccfg);
    // Install the per-pair parameters directly (equivalently every node
    // could write `period * 2` / `delta * 0.15` into each control file;
    // the direct route keeps setup out of the measured window).
    let calib = sim.world().calib.clone();
    let w = sim.world_mut();
    let n_nodes = w.len();
    for publisher in 0..n_nodes {
        for subscriber in 0..n_nodes {
            if publisher == subscriber {
                continue;
            }
            w.dmons[publisher].on_control(
                NodeId(subscriber),
                &ControlMsg::SetParam {
                    metric: "*".to_string(),
                    param: cfg.param(),
                },
                &calib,
            );
        }
    }
    sim.start();
    sim
}

/// Discard warm-up statistics on every d-mon.
pub fn reset_stats(sim: &mut ClusterSim) {
    for d in &mut sim.world_mut().dmons {
        d.stats.reset();
    }
}

const WARMUP: SimDur = SimDur::from_secs(70);
/// Measured iterations for the rdtsc-style averages (the paper uses 100).
const MEASURE: SimDur = SimDur::from_secs(110);

/// Fig. 4 — CPU perturbation: linpack Mflops on node 0 vs. cluster size.
pub fn fig4_data() -> Table {
    let mut table = Table::new(
        "Figure 4: CPU perturbation (linpack Mflops vs. cluster size)",
        "nodes",
    );
    for cfg in MonConfig::all() {
        let points: Vec<usize> = (0..=8).collect();
        let results = run_sweep(points.clone(), suggested_threads(8), |n| {
            if n == 0 {
                // No dproc at all: bare host, bare linpack.
                let mut sim =
                    ClusterSim::new(ClusterConfig::new(1).host_cfg(0, HostConfig::uniprocessor()));
                sim.start_linpack(NodeId(0), 1);
                sim.mark_linpack(NodeId(0));
                sim.run_until(SimTime::from_secs(60));
                return sim.linpack_mflops(NodeId(0));
            }
            let mut sim = micro_cluster(n, cfg, 0, true);
            sim.start_linpack(NodeId(0), 1);
            sim.run_until(SimTime::ZERO + WARMUP);
            sim.mark_linpack(NodeId(0));
            sim.run_for(MEASURE);
            sim.linpack_mflops(NodeId(0))
        });
        let mut s = Series::new(cfg.label());
        for (n, mflops) in points.iter().zip(results) {
            s.push(*n as f64, mflops);
        }
        table.add(s);
    }
    table
}

/// Fig. 5 — network perturbation: Iperf available bandwidth between two
/// nodes vs. cluster size.
pub fn fig5_data() -> Table {
    let mut table = Table::new(
        "Figure 5: network perturbation (available Mbps vs. cluster size)",
        "nodes",
    );
    for cfg in MonConfig::all() {
        let points: Vec<usize> = (0..=8).collect();
        let results = run_sweep(points.clone(), suggested_threads(8), |n| {
            if n < 2 {
                // Fewer than two monitored nodes: an unperturbed link.
                let mut sim = ClusterSim::new(ClusterConfig::new(2));
                let now = sim.now();
                let w = sim.world_mut();
                return w.iperf_probe_mbps(now, NodeId(0), NodeId(1));
            }
            let mut sim = micro_cluster(n, cfg, 0, false);
            sim.run_until(SimTime::ZERO + WARMUP);
            let now = sim.now();
            let w = sim.world_mut();
            w.iperf_probe_mbps(now, NodeId(0), NodeId(1))
        });
        let mut s = Series::new(cfg.label());
        for (n, mbps) in points.iter().zip(results) {
            s.push(*n as f64, mbps);
        }
        table.add(s);
    }
    table
}

fn submission_overhead(pad: u32) -> Table {
    let title = if pad == 0 {
        "Figure 6: event submission overhead per polling iteration (us)"
    } else {
        "Figure 7: submission overhead, ~5KB events (us)"
    };
    let mut table = Table::new(title, "nodes");
    for cfg in MonConfig::all() {
        let points: Vec<usize> = (1..=8).collect();
        let results = run_sweep(points.clone(), suggested_threads(8), move |n| {
            let mut sim = micro_cluster(n, cfg, pad, false);
            sim.run_until(SimTime::ZERO + WARMUP);
            reset_stats(&mut sim);
            sim.run_for(MEASURE);
            sim.world().dmons[0].stats.submit_cost_us.mean()
        });
        let mut s = Series::new(cfg.label());
        for (n, us) in points.iter().zip(results) {
            s.push(*n as f64, us);
        }
        table.add(s);
    }
    table
}

/// Fig. 6 — event submission overhead (small events).
pub fn fig6_data() -> Table {
    submission_overhead(0)
}

/// Fig. 7 — event submission overhead with ~5 KB events.
pub fn fig7_data() -> Table {
    // 4.9 KB of pad on top of the ~190 B record payload ≈ 5 KB events.
    submission_overhead(4900)
}

/// Fig. 8 — overhead of receiving incoming events per polling iteration.
pub fn fig8_data() -> Table {
    let mut table = Table::new(
        "Figure 8: event receiving overhead per polling iteration (us)",
        "nodes",
    );
    for cfg in MonConfig::all() {
        let points: Vec<usize> = (1..=8).collect();
        let results = run_sweep(points.clone(), suggested_threads(8), |n| {
            let mut sim = micro_cluster(n, cfg, 0, false);
            sim.run_until(SimTime::ZERO + WARMUP);
            reset_stats(&mut sim);
            sim.run_for(MEASURE);
            sim.world().dmons[0].stats.receive_cost_us.mean()
        });
        let mut s = Series::new(cfg.label());
        for (n, us) in points.iter().zip(results) {
            s.push(*n as f64, us);
        }
        table.add(s);
    }
    table
}

/// The three SmartPointer stream policies of Figs. 9 and 10.
pub fn stream_policies() -> [(&'static str, Policy); 3] {
    [
        ("no filter", Policy::NoFilter),
        ("static filter", Policy::Static(StreamMode::SubSample(2))),
        ("dynamic filter", Policy::Dynamic(MonitorSet::Cpu)),
    ]
}

/// Fig. 9(a) — latency over time with a CPU-loaded client (one linpack
/// thread added per `segment_s` segment).
pub fn fig9a_data(segment_s: u64, threads: usize) -> Table {
    let mut table = Table::new(
        "Figure 9a: propagation + processing time under CPU load (s)",
        "time_s",
    );
    let policies = stream_policies();
    let results = run_sweep(
        policies.to_vec(),
        suggested_threads(3),
        move |(_, policy)| scenarios::cpu_loaded(policy, threads, segment_s),
    );
    for ((name, _), result) in policies.iter().zip(results) {
        let mut s = Series::new(*name);
        for (t, lat) in scenarios::bucket_log(&result.stats.log, segment_s as f64 / 2.0) {
            s.push((t * 10.0).round() / 10.0, lat);
        }
        table.add(s);
    }
    table
}

/// Fig. 9(b) — client event rate vs. number of linpack threads.
pub fn fig9b_data(segment_s: u64, threads: usize) -> Table {
    let mut table = Table::new(
        "Figure 9b: events/sec processed at the client vs. linpack threads",
        "linpack_threads",
    );
    let policies = stream_policies();
    let results = run_sweep(
        policies.to_vec(),
        suggested_threads(3),
        move |(_, policy)| scenarios::cpu_loaded(policy, threads, segment_s),
    );
    for ((name, _), result) in policies.iter().zip(results) {
        let mut s = Series::new(*name);
        for (k, rate) in &result.rate_by_threads {
            s.push(*k as f64, *rate);
        }
        table.add(s);
    }
    table
}

/// Fig. 10 — latency vs. Iperf network perturbation (3 MB events). The
/// dynamic filter uses network monitoring, as in the paper.
pub fn fig10_data(duration_s: u64) -> Table {
    let mut table = Table::new(
        "Figure 10: latency vs. network perturbation (s)",
        "perturbation_mbps",
    );
    let policies: [(&str, Policy); 3] = [
        ("no filter", Policy::NoFilter),
        ("static filter", Policy::Static(StreamMode::SubSample(1))),
        ("dynamic filter", Policy::Dynamic(MonitorSet::Net)),
    ];
    let levels: Vec<f64> = (0..=9).map(|i| i as f64 * 10.0).collect();
    for (name, policy) in policies {
        let results = run_sweep(levels.clone(), suggested_threads(10), move |mbps| {
            scenarios::net_perturbed(policy, mbps, duration_s)
        });
        let mut s = Series::new(name);
        for (mbps, lat) in levels.iter().zip(results) {
            s.push(*mbps, lat);
        }
        table.add(s);
    }
    table
}

/// Fig. 11 — latency vs. combined perturbation for dynamic filters using
/// CPU-only, network-only, or hybrid monitoring.
pub fn fig11_data(duration_s: u64) -> Table {
    let mut table = Table::new(
        "Figure 11: latency vs. combined perturbation (k linpack + 10k Mbps)",
        "k",
    );
    let sets: [(&str, MonitorSet); 3] = [
        ("cpu monitor", MonitorSet::Cpu),
        ("network monitor", MonitorSet::Net),
        ("hybrid monitor", MonitorSet::Hybrid),
    ];
    let steps: Vec<usize> = (1..=8).collect();
    for (name, set) in sets {
        let results = run_sweep(steps.clone(), suggested_threads(8), move |k| {
            scenarios::hybrid(set, k, duration_s)
        });
        let mut s = Series::new(name);
        for (k, lat) in steps.iter().zip(results) {
            s.push(*k as f64, lat);
        }
        table.add(s);
    }
    table
}

/// Topology ablation (DESIGN.md §5.4) — the paper's peer-to-peer channels
/// against a Supermon-style relaying hub, by cluster size: the busiest
/// node's link messages in 60 s (the hub's grow ~n², a peer's ~n) and the
/// mean end-to-end monitoring latency (the extra hop plus hub queueing).
pub fn ablation_topology_data() -> [Table; 2] {
    let mut traffic = Table::new(
        "Ablation: busiest node's link messages in 60 s (hot-spot growth)",
        "nodes",
    );
    let mut latency = Table::new("Ablation: mean end-to-end monitoring latency (us)", "nodes");
    let shapes = [
        ("peer-to-peer", TopologySpec::Star),
        ("central collector", TopologySpec::Hub { hub: NodeId(0) }),
    ];
    for (name, topo) in shapes {
        let points = vec![2usize, 4, 8, 16, 24];
        let results = run_sweep(points.clone(), suggested_threads(5), |n| {
            let mut sim = ClusterSim::new(ClusterConfig::new(n).topo(topo.clone()));
            sim.start();
            sim.run_until(SimTime::from_secs(60));
            let w = sim.world();
            let link_msgs =
                |i| w.net.uplink(NodeId(i)).messages() + w.net.downlink(NodeId(i)).messages();
            let busiest = (0..n).map(link_msgs).max().unwrap_or(0);
            (busiest, w.mon_latency_us.mean())
        });
        let (mut msgs, mut us) = (Series::new(name), Series::new(name));
        for (n, (busiest, mean_us)) in points.iter().zip(results) {
            msgs.push(*n as f64, busiest as f64);
            us.push(*n as f64, mean_us);
        }
        traffic.add(msgs);
        latency.add(us);
    }
    [traffic, latency]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mon_config_labels_and_params() {
        assert_eq!(MonConfig::all().len(), 3);
        assert_eq!(MonConfig::Period1.label(), "update period=1s");
        assert!(matches!(
            MonConfig::Differential.param(),
            ParamSpec::DeltaFraction { fraction } if fraction == 0.15
        ));
    }

    #[test]
    fn micro_cluster_installs_policies() {
        let sim = micro_cluster(3, MonConfig::Period2, 0, false);
        let w = sim.world();
        let p = w.dmons[0].policy_for(NodeId(1)).expect("policy");
        assert_eq!(p.rule_count("LOADAVG"), 1);
    }

    #[test]
    fn reset_clears_samplers() {
        let mut sim = micro_cluster(2, MonConfig::Period1, 0, false);
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.world().dmons[0].stats.iterations > 0);
        reset_stats(&mut sim);
        assert_eq!(sim.world().dmons[0].stats.iterations, 0);
        assert_eq!(sim.world().dmons[0].stats.submit_cost_us.len(), 0);
    }
}
