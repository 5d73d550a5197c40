//! The three client scenarios of the paper's Section 4.2, as reusable
//! experiment drivers. The figure harness (`dproc-bench`) calls these and
//! formats the results; integration tests assert their shapes.

use dproc::cluster::{ClusterConfig, ClusterSim};
use simcore::{SimDur, SimTime};
use simnet::NodeId;
use simos::host::HostConfig;

use crate::app::{ClientStats, SmartPointer, SmartPointerConfig};
use crate::data::FrameSpec;
#[cfg(test)]
use crate::data::StreamMode;
use crate::policy::{MonitorSet, Policy};

/// Result of a CPU-loaded run: the client's stats and both halves of
/// Fig. 9's series.
#[derive(Debug, Clone)]
pub struct CpuLoadedResult {
    /// Client stats at the end of the run.
    pub stats: ClientStats,
    /// `(centre_s, mean_latency_s)` per half segment in which a frame
    /// finished processing — Fig. 9(a)'s series. A frame that finishes
    /// exactly on a boundary counts in the later half, and one that
    /// finishes at the run's end in a half past it.
    pub latency_by_half: Vec<(f64, f64)>,
    /// `(linpack_threads, processed_events_per_second)` per load segment —
    /// Fig. 9(b)'s series.
    pub rate_by_threads: Vec<(usize, f64)>,
}

/// Fig. 9 scenario: a CPU-loaded client. One linpack thread is added at
/// the start of each segment; the run has `max_threads + 1` segments
/// (starting at zero threads) of `segment` seconds each.
pub fn cpu_loaded(policy: Policy, max_threads: usize, segment_s: u64) -> CpuLoadedResult {
    let cfg =
        ClusterConfig::named(&["server", "client", "aux"]).host_cfg(1, HostConfig::uniprocessor());
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    // Fast CPU window so the server reacts within a few seconds.
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
    let segment = SimDur::from_secs(segment_s);
    let half_s = segment_s as f64 / 2.0;
    let mut latency_by_half = Vec::new();
    let mut first = 0;
    // The mean latency of the frames processed since the last call, if
    // any, as the point of the `k`th half segment.
    let mut close_half = |app: &SmartPointer, k: u64| {
        let st = app.client_stats(0);
        let frames = &st.latency_s.values()[first..];
        if !frames.is_empty() {
            let mean = frames.iter().sum::<f64>() / frames.len() as f64;
            latency_by_half.push((k as f64 * half_s + half_s / 2.0, mean));
        }
        first = st.latency_s.len();
    };
    let mut rate_by_threads = Vec::new();
    let mut processed_before = 0;
    for threads in 0..=max_threads {
        if threads > 0 {
            sim.start_linpack(NodeId(1), 1);
        }
        let k = 2 * threads as u64;
        let end = SimTime::ZERO + segment * (threads as u64 + 1);
        sim.run_until(end - segment / 2 - SimDur::from_nanos(1));
        close_half(&app, k);
        sim.run_until(end - SimDur::from_nanos(1));
        close_half(&app, k + 1);
        sim.run_until(end);
        let st = app.client_stats(0);
        let rate = (st.processed - processed_before) as f64 / segment.as_secs_f64();
        processed_before = st.processed;
        rate_by_threads.push((threads, rate));
    }
    close_half(&app, 2 * (max_threads as u64 + 1));
    CpuLoadedResult {
        stats: app.client_stats(0),
        latency_by_half,
        rate_by_threads,
    }
}

/// Fig. 10 scenario: a network-perturbed client receiving ~3 MB events
/// and doing very little processing. Returns the mean latency (seconds)
/// over the measurement window under `perturb_mbps` of Iperf UDP load
/// sharing the client's link.
pub fn net_perturbed(policy: Policy, perturb_mbps: f64, duration_s: u64) -> f64 {
    let cfg = ClusterConfig::named(&["server", "client", "iperf-src", "aux"])
        .host_cfg(1, HostConfig::uniprocessor());
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    let app = SmartPointer::install(
        &mut sim,
        SmartPointerConfig {
            server: NodeId(0),
            clients: vec![(NodeId(1), policy)],
            spec: FrameSpec::bulk(),
            rate_hz: 1.2,
            write_to_disk: false,
            queue_cap: 64,
        },
    );
    // Let the stream and monitoring settle before perturbing.
    sim.run_until(SimTime::from_secs(10));
    if perturb_mbps > 0.0 {
        sim.start_iperf(NodeId(2), NodeId(1), perturb_mbps * 1e6);
    }
    // Ignore the warm-up samples: measure only after perturbation starts.
    let warmup = app.client_stats(0).latency_s.len();
    sim.run_until(SimTime::from_secs(10 + duration_s));
    let st = app.client_stats(0);
    let samples = &st.latency_s.values()[warmup..];
    if samples.is_empty() {
        // Completely starved: report the window's length, a lower bound
        // on the age of the oldest unprocessed frame.
        return duration_s as f64;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The frame spec of the hybrid scenario: bulk-sized data that still
/// needs real client-side rendering.
pub fn hybrid_spec() -> FrameSpec {
    FrameSpec {
        atoms: 65_535,
        render_flops_per_atom: 40.0,
    }
}

/// Fig. 11 scenario: combined perturbation step `k` = `k` linpack threads
/// plus `k × 10` Mbps of Iperf load, with a dynamic filter consulting the
/// given monitor set. Returns mean latency (seconds).
pub fn hybrid(set: MonitorSet, k: usize, duration_s: u64) -> f64 {
    let cfg = ClusterConfig::named(&["server", "client", "iperf-src", "aux"])
        .host_cfg(1, HostConfig::uniprocessor());
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    sim.write_control(NodeId(1), "client", "window cpu 5");
    let app = SmartPointer::install(
        &mut sim,
        SmartPointerConfig {
            server: NodeId(0),
            clients: vec![(NodeId(1), Policy::Dynamic(set))],
            spec: hybrid_spec(),
            rate_hz: 1.2,
            write_to_disk: true,
            queue_cap: 64,
        },
    );
    sim.run_until(SimTime::from_secs(10));
    if k > 0 {
        sim.start_linpack(NodeId(1), k);
        sim.start_iperf(NodeId(2), NodeId(1), k as f64 * 10e6);
    }
    let warmup = app.client_stats(0).latency_s.len();
    sim.run_until(SimTime::from_secs(10 + duration_s));
    let st = app.client_stats(0);
    let samples = &st.latency_s.values()[warmup..];
    if samples.is_empty() {
        return duration_s as f64;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    // Scenario tests use shortened segments/durations; the bench harness
    // runs the paper-length versions.

    #[test]
    fn fig9_shape_dynamic_beats_static_beats_none() {
        let none = cpu_loaded(Policy::NoFilter, 4, 30);
        let stat = cpu_loaded(Policy::Static(StreamMode::SubSample(2)), 4, 30);
        let dynm = cpu_loaded(Policy::Dynamic(MonitorSet::Cpu), 4, 30);
        let last = |r: &CpuLoadedResult| *r.stats.latency_s.values().last().unwrap();
        assert!(
            last(&dynm) < last(&stat) && last(&stat) < last(&none),
            "dyn {} < static {} < none {}",
            last(&dynm),
            last(&stat),
            last(&none)
        );
        // Fig 9b: dynamic sustains the server rate at max load, no-filter
        // decays far below it.
        let dyn_final_rate = dynm.rate_by_threads.last().unwrap().1;
        let none_final_rate = none.rate_by_threads.last().unwrap().1;
        assert!(dyn_final_rate > 4.0, "dynamic rate {dyn_final_rate}");
        assert!(none_final_rate < 2.5, "no-filter rate {none_final_rate}");
    }

    #[test]
    fn fig10_shape_flat_until_capacity_then_divergence() {
        let none_low = net_perturbed(Policy::NoFilter, 30.0, 40);
        let none_high = net_perturbed(Policy::NoFilter, 85.0, 40);
        let dyn_high = net_perturbed(Policy::Dynamic(MonitorSet::Net), 85.0, 40);
        assert!(none_low < 0.5, "uncongested baseline: {none_low}");
        assert!(
            none_high > none_low * 4.0,
            "beyond capacity the no-filter latency blows up: {none_low} -> {none_high}"
        );
        assert!(
            dyn_high < none_high / 2.0,
            "dynamic filter stays ahead: {dyn_high} vs {none_high}"
        );
    }

    #[test]
    fn fig11_shape_hybrid_wins_at_high_perturbation() {
        let k = 6;
        let cpu = hybrid(MonitorSet::Cpu, k, 40);
        let net = hybrid(MonitorSet::Net, k, 40);
        let hyb = hybrid(MonitorSet::Hybrid, k, 40);
        assert!(
            hyb <= cpu * 1.05 && hyb <= net * 1.05,
            "hybrid ({hyb}) <= cpu ({cpu}) and net ({net})"
        );
        assert!(
            hyb < cpu.max(net) * 0.8,
            "and strictly better than the worst single-resource choice: hyb {hyb}, cpu {cpu}, net {net}"
        );
    }

    #[test]
    fn cpu_loaded_half_segment_means() {
        // One-second segments up to nine linpack threads on a
        // uniprocessor, unfiltered: a frame takes up to 1.2 s of CPU, so
        // some half seconds finish none.
        let r = cpu_loaded(Policy::NoFilter, 9, 1);
        let ks: Vec<f64> = r
            .latency_by_half
            .iter()
            .map(|&(centre, _)| (centre - 0.25) / 0.5)
            .collect();
        assert!(
            ks.iter().all(|k| k.fract() == 0.0),
            "centres k/2 + 1/4: {ks:?}"
        );
        assert!(ks.windows(2).all(|p| p[0] < p[1]), "{ks:?}");
        assert!(
            ks.windows(2).any(|p| p[1] > p[0] + 1.0),
            "no half skipped: {ks:?}"
        );
        // The halves cut the latencies, in order, into runs with these
        // means; weighted by their lengths, they recombine to the mean.
        fn runs(frames: &[f64], means: &[f64]) -> Option<Vec<usize>> {
            let Some((&m, rest)) = means.split_first() else {
                return frames.is_empty().then(Vec::new);
            };
            (1..=frames.len()).find_map(|n| {
                let run = &frames[..n];
                if run.iter().sum::<f64>() / n as f64 != m {
                    return None;
                }
                let mut tail = runs(&frames[n..], rest)?;
                tail.insert(0, n);
                Some(tail)
            })
        }
        let all = r.stats.latency_s.values();
        let means: Vec<f64> = r.latency_by_half.iter().map(|&(_, m)| m).collect();
        let counts = runs(all, &means).expect("the halves partition the frames");
        let weighted: f64 = means.iter().zip(&counts).map(|(m, &n)| m * n as f64).sum();
        let total = weighted / all.len() as f64;
        assert!((total - r.stats.latency_s.mean()).abs() < 1e-9, "{total}");
    }
}
