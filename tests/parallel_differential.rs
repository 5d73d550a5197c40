//! Differential testing of the sharded parallel driver against the serial
//! scheduler: every scenario must produce *bit-identical* final state —
//! the full `/proc` forest on every host, the d-mon counters, the latency
//! samplers (compared as raw f64 bits), the network and fault counters.
//!
//! The parallel engine's whole determinism argument (window replay with
//! serial renumbering, see `simcore::pdes`) is only as good as this file.

use dproc::cluster::{ClusterConfig, ClusterSim};
use dproc_bench::scenario::{fingerprint, Fingerprint, Scenario};
use proptest::prelude::*;
use simcore::{SimDur, SimTime};
use simnet::{DirLink, FaultPlan, NodeId, TopologySpec};
use simos::host::HostConfig;

/// Build + start a sim on `threads` shards, apply the scenario's setup,
/// run it, and fingerprint the result.
fn run_one(
    cfg: impl Fn() -> ClusterConfig,
    setup: impl Fn(&mut ClusterSim),
    secs: u64,
    threads: usize,
) -> Fingerprint {
    let mut sim = ClusterSim::new(cfg());
    sim.set_threads(threads);
    sim.start();
    setup(&mut sim);
    sim.run_until(SimTime::from_secs(secs));
    fingerprint(sim.world())
}

/// Assert the scenario is bit-identical across the serial driver and every
/// requested thread count.
fn assert_differential(
    name: &str,
    secs: u64,
    cfg: impl Fn() -> ClusterConfig,
    setup: impl Fn(&mut ClusterSim),
) {
    let serial = run_one(&cfg, &setup, secs, 1);
    assert!(serial.mon_delivered > 0, "{name}: serial run did nothing");
    for threads in [2, 3, 8] {
        let par = run_one(&cfg, &setup, secs, threads);
        assert_eq!(
            serial, par,
            "{name}: threads={threads} diverged from serial"
        );
    }
}

#[test]
fn default_cluster_is_bit_identical() {
    assert_differential("default", 12, || ClusterConfig::new(4), |_| {});
}

#[test]
fn microsecond_stagger_is_bit_identical() {
    // The parallel-friendly configuration: all polls land in one window.
    assert_differential(
        "tiny-stagger",
        12,
        || ClusterConfig::new(6).stagger(SimDur::from_micros(1)),
        |_| {},
    );
}

#[test]
fn central_topology_is_bit_identical() {
    // Hub relays exercise the transit path (original send timestamps,
    // relay CPU charges, the hub's uplink shared by every stream).
    assert_differential(
        "central",
        12,
        || ClusterConfig::new(5).topo(TopologySpec::Hub { hub: NodeId(0) }),
        |_| {},
    );
}

#[test]
fn workloads_are_bit_identical() {
    // Linpack steals CPU from the service thread; Iperf floods perturb
    // link reservations; both change every delivery time.
    assert_differential(
        "workloads",
        12,
        || ClusterConfig::new(4).host_cfg(2, HostConfig::uniprocessor()),
        |sim| {
            sim.start_linpack(NodeId(2), 2);
            sim.start_iperf(NodeId(1), NodeId(3), 40e6);
        },
    );
}

#[test]
fn event_pad_and_control_are_bit_identical() {
    // Padded events change wire sizes; a control write triggers the
    // control round-trip (request, handler, reply).
    assert_differential(
        "control",
        12,
        || ClusterConfig::new(4).event_pad(512),
        |sim| {
            sim.write_control(NodeId(1), "node0", "period * 2");
            sim.write_control(NodeId(3), "node2", "LOADAVG delta 0.10");
        },
    );
}

#[test]
fn fault_plan_is_bit_identical() {
    // Crash + revive runs the node lifecycle (eviction, rejoin, epoch
    // bumps); partition and loss force serial windows with RNG draws in
    // delivery order; degrade rewrites link capacities mid-run.
    assert_differential(
        "faults",
        14,
        || ClusterConfig::new(5).failure_bounds(SimDur::from_secs(2), SimDur::from_secs(4)),
        |sim| {
            let plan = FaultPlan::new(42)
                .crash_at(SimTime::from_secs(2), NodeId(1))
                .partition_at(SimTime::from_secs(3), NodeId(2), NodeId(3))
                .loss_at(SimTime::from_secs(4), 0.2)
                .degrade_at(SimTime::from_secs(5), NodeId(4), 0.25)
                .loss_at(SimTime::from_secs(6), 0.0)
                .heal_at(SimTime::from_secs(7), NodeId(2), NodeId(3))
                .revive_at(SimTime::from_secs(8), NodeId(1))
                .heal_link_at(SimTime::from_secs(9), NodeId(4));
            sim.apply_fault_plan(&plan);
        },
    );
}

#[test]
fn overload_backpressure_is_bit_identical() {
    // Saturated links run the whole robustness stack at once — bounded
    // queue admission with deterministic tail-drop, credit stalls, outbox
    // shedding, choke backoff, ladder transitions, gap healing — and all
    // of it must replay identically under sharded execution (the wire
    // drops happen inside `transmit` on the serial path but inside the
    // shard exchange on the parallel one).
    let overload = Scenario::overload3(3);

    // Vacuity guard on the serial run: the scenario must actually drop
    // frames and walk the ladder, or the differential proves nothing.
    let mut probe = overload.build(1);
    probe.run_until(SimTime::from_secs(60));
    assert!(
        probe.world().net.link_drops() > 0,
        "overload scenario dropped nothing — vacuous"
    );
    assert!(
        probe
            .world()
            .dmons
            .iter()
            .any(|d| d.stats.ladder_transitions > 0),
        "overload scenario never moved the ladder — vacuous"
    );
    let serial = fingerprint(probe.world());

    for threads in [2, 3, 8] {
        let mut par = overload.build(threads);
        par.run_until(SimTime::from_secs(60));
        let par = fingerprint(par.world());
        assert_eq!(serial, par, "overload: threads={threads} diverged");
    }
}

#[test]
fn downlink_tail_drops_in_parallel_windows_are_bit_identical() {
    // Eight nodes polling within a microsecond of one another into
    // two-message downlink queues: a poll burst converges on each
    // receiver's downlink at once and the switch drops frames there,
    // inside parallel windows, where the receiving shard reserves its own
    // downlinks.
    const N: usize = 8;
    let run = |threads| {
        let mut sim = ClusterSim::new(ClusterConfig::new(N).stagger(SimDur::from_micros(1)));
        let net = &mut sim.world_mut().net;
        let spec = net.spec().with_queue(2, u64::MAX);
        for i in 0..N {
            *net.downlink_mut(NodeId(i)) = DirLink::new(spec);
        }
        sim.set_threads(threads);
        sim.start();
        sim.run_until(SimTime::from_secs(10));
        sim
    };
    let downlink_drops = |sim: &ClusterSim| -> u64 {
        let net = &sim.world().net;
        (0..N).map(|i| net.downlink(NodeId(i)).drops()).sum()
    };
    let serial = run(1);
    let drops = downlink_drops(&serial);
    assert!(drops > 0, "no downlink drop — vacuous");
    let want = fingerprint(serial.world());
    for threads in [2, 3, 8] {
        let par = run(threads);
        let stats = par.parallel_stats().expect("parallel driver");
        assert!(
            stats.windows_parallel > 0,
            "threads={threads}: no parallel window"
        );
        assert_eq!(
            downlink_drops(&par),
            drops,
            "threads={threads}: downlink drops"
        );
        assert_eq!(
            fingerprint(par.world()),
            want,
            "threads={threads} diverged from serial"
        );
    }
}

#[test]
fn compiled_filters_are_bit_identical() {
    // Certified E-code filters take over every stream: two `Shared`
    // shapes (a threshold and a passthrough: one run per poll, stamped
    // per subscriber) plus one impure shape that bypasses the memo per
    // subscriber. Filter runs, memo sharing, and the batched span
    // gather must all replay bit-identically under sharded execution —
    // the dmon counters inside the fingerprint compare the admission
    // and bypass counts too.
    const SHARED: &str = "{ if (input[LOADAVG].value > 0.25) { output[0] = input[LOADAVG]; } }";
    const PASSTHROUGH: &str = "{ output[0] = input[FREEMEM]; }";
    const IMPURE: &str =
        "{ if (input[LOADAVG].value > input[LOADAVG].last_value_sent) { output[0] = input[LOADAVG]; } }";
    let cfg = || ClusterConfig::new(6).stagger(SimDur::from_micros(1));
    let setup = |sim: &mut ClusterSim| {
        let calib = sim.world().calib.clone();
        let w = sim.world_mut();
        let n = w.len();
        for p in 0..n {
            for s in 0..n {
                if p == s {
                    continue;
                }
                let source = match (p + s) % 3 {
                    0 => SHARED,
                    1 => PASSTHROUGH,
                    _ => IMPURE,
                };
                w.dmons[p].on_control(
                    NodeId(s),
                    &kecho::ControlMsg::DeployFilter {
                        source: source.into(),
                    },
                    &calib,
                );
            }
        }
    };

    // Vacuity guards on the serial run: every deploy must have been
    // admitted, and the impure shape must actually exercise the
    // per-subscriber bypass path.
    let mut probe = ClusterSim::new(cfg());
    probe.set_threads(1);
    probe.start();
    setup(&mut probe);
    probe.run_until(SimTime::from_secs(12));
    let w = probe.world();
    let compiled: u64 = w.dmon_total(|s| s.filters_compiled);
    let fallbacks: u64 = w.dmon_total(|s| s.interp_fallbacks);
    let bypassed: u64 = w.dmon_total(|s| s.memo_bypassed);
    assert_eq!(compiled, 30, "every deployed filter must be admitted");
    assert_eq!(fallbacks, 0, "the fallback counter never moves");
    assert!(bypassed > 0, "impure filters must bypass the memo");
    assert!(
        w.mon_delivered > 0,
        "filters suppressed everything — vacuous"
    );
    let serial = fingerprint(probe.world());

    for threads in [2, 3, 8] {
        let par = run_one(cfg, setup, 12, threads);
        assert_eq!(serial, par, "filters: threads={threads} diverged");
    }
}

#[test]
fn hierarchical_racks_are_bit_identical() {
    // Three racks of three with the full fault lifecycle aimed at the
    // aggregation tier: rack 1's aggregator crashes (its rack-mates'
    // failure detectors evict it from the rack channels *and* the spine
    // digest channel), a partition between two other racks' aggregators
    // destroys digests on the wire, and the revival restores exactly the
    // placement's channel set. Every piece — cross-rack 4-hop wire math,
    // digest folds, rack-whole sharding — must replay bit-identically.
    let cfg = ClusterConfig::new(9)
        .racks(3)
        .failure_bounds(SimDur::from_secs(2), SimDur::from_secs(4));
    let plan = FaultPlan::new(7)
        .crash_at(SimTime::from_secs(3), NodeId(3))
        .partition_at(SimTime::from_secs(4), NodeId(0), NodeId(6))
        .heal_at(SimTime::from_secs(6), NodeId(0), NodeId(6))
        .revive_at(SimTime::from_secs(8), NodeId(3));
    let racked = Scenario { cfg, plan };

    // Vacuity guards on the serial run: the aggregation tier must be live.
    let mut probe = racked.build(1);
    probe.run_until(SimTime::from_secs(14));
    let w = probe.world();
    let sent: u64 = w.dmon_total(|s| s.digests_sent);
    let recv: u64 = w.dmon_total(|s| s.digests_received);
    assert!(sent > 0, "no digests sent — vacuous");
    assert!(recv > 0, "no digests received — vacuous");
    assert!(recv < sent, "the partition destroyed no digests — vacuous");
    let serial = fingerprint(w);

    for threads in [2, 4, 8] {
        let mut par = racked.build(threads);
        par.run_until(SimTime::from_secs(14));
        let par = fingerprint(par.world());
        assert_eq!(serial, par, "hierarchical: threads={threads} diverged");
    }
}

#[test]
fn irregular_racks_are_bit_identical() {
    // Fault-free digests between shards: an aggregator takes each
    // payload's buffer from its own shard's pool and the subscriber gives
    // it back to its own, so buffers move between pools every round. The
    // last rack is short, so its fold covers fewer members.
    assert_differential(
        "irregular-racks",
        12,
        || {
            ClusterConfig::new(10)
                .topo(TopologySpec::RackList {
                    sizes: vec![4, 4, 2],
                })
                .stagger(SimDur::from_micros(1))
        },
        |_| {},
    );
}

#[test]
fn hierarchical_windows_run_parallel() {
    // Rack-whole shard assignment must still let fault-free hierarchical
    // runs spend most of their time in parallel windows.
    let mut sim = ClusterSim::new(
        ClusterConfig::new(8)
            .racks(4)
            .stagger(SimDur::from_micros(1)),
    );
    sim.set_threads(2);
    sim.start();
    sim.run_until(SimTime::from_secs(12));
    let stats = sim.parallel_stats().expect("parallel driver");
    assert!(
        stats.windows_parallel > stats.windows_serial,
        "parallel windows should dominate a fault-free hierarchical run: {stats:?}"
    );
    let recv: u64 = sim.world().dmon_total(|s| s.digests_received);
    assert!(recv > 0, "no digests crossed the spine");
}

#[test]
fn parallel_windows_actually_run() {
    // Guard against the suite passing vacuously with every window falling
    // back to the serial path.
    let mut sim = ClusterSim::new(ClusterConfig::new(6).stagger(SimDur::from_micros(1)));
    sim.set_threads(4);
    assert_eq!(sim.threads(), 4);
    assert_eq!(sim.shards(), 4);
    sim.start();
    sim.run_until(SimTime::from_secs(12));
    let stats = sim.parallel_stats().expect("parallel driver");
    assert!(stats.executed > 0, "no events executed");
    assert!(
        stats.windows_parallel > stats.windows_serial,
        "parallel windows should dominate a fault-free run: {stats:?}"
    );
}

#[test]
fn resumed_runs_are_bit_identical() {
    // Splitting one run into many run_until calls must not change anything:
    // window bounds depend only on event times, not on call boundaries.
    let chunked = |threads: usize| {
        let mut sim = ClusterSim::new(ClusterConfig::new(4));
        sim.set_threads(threads);
        sim.start();
        for k in 1..=8 {
            sim.run_until(SimTime::from_millis(1500 * k));
        }
        fingerprint(sim.world())
    };
    let serial = run_one(|| ClusterConfig::new(4), |_| {}, 12, 1);
    assert_eq!(serial, chunked(1), "chunked serial diverged");
    assert_eq!(serial, chunked(4), "chunked threads=4 diverged");
}

#[test]
fn workloads_started_mid_run_are_bit_identical() {
    // The between-runs helpers must read the clock of whichever driver
    // runs the cluster: linpack started at 5 s on the sharded driver used
    // to see the idle serial scheduler's t = 0.
    let run = |threads: usize| {
        let cfg = ClusterConfig::new(4).host_cfg(2, HostConfig::uniprocessor());
        let mut sim = ClusterSim::new(cfg);
        sim.set_threads(threads);
        sim.start();
        sim.run_until(SimTime::from_secs(5));
        sim.start_linpack(NodeId(2), 2);
        sim.mark_linpack(NodeId(2));
        sim.start_iperf(NodeId(1), NodeId(3), 40e6);
        sim.run_until(SimTime::from_secs(12));
        (
            sim.linpack_mflops(NodeId(2)).to_bits(),
            fingerprint(sim.world()),
        )
    };
    let serial = run(1);
    assert!(f64::from_bits(serial.0) > 0.0, "linpack made no progress");
    for threads in [2, 3, 8] {
        assert_eq!(serial, run(threads), "threads={threads} diverged");
    }
}

// ---------- randomized differential ----------

/// A randomly drawn scenario: node count, stagger, topology, pad, and an
/// optional crash/partition fault plan.
#[derive(Debug, Clone)]
struct RandomScenario {
    nodes: usize,
    stagger_us: u64,
    topo: TopologySpec,
    event_pad: u32,
    plan: Option<(u64, usize, usize)>,
    threads: usize,
    secs: u64,
}

fn scenario_strategy() -> impl Strategy<Value = RandomScenario> {
    (
        2usize..7,
        prop_oneof![Just(1u64), Just(300), Just(1000)],
        prop_oneof![
            Just(TopologySpec::Star),
            Just(TopologySpec::Hub { hub: NodeId(0) }),
            Just(TopologySpec::Racks { rack_size: 2 }),
            Just(TopologySpec::Racks { rack_size: 3 }),
        ],
        prop_oneof![Just(0u32), Just(256)],
        (any::<bool>(), any::<u64>(), 0usize..6, 0usize..6),
        2usize..9,
        6u64..10,
    )
        .prop_map(
            |(
                nodes,
                stagger_us,
                topo,
                event_pad,
                (with_plan, seed, crash, partner),
                threads,
                secs,
            )| RandomScenario {
                nodes,
                stagger_us,
                topo,
                event_pad,
                plan: with_plan.then_some((seed, crash, partner)),
                threads,
                secs,
            },
        )
}

fn run_random(s: &RandomScenario, threads: usize) -> Fingerprint {
    let cfg = ClusterConfig::new(s.nodes)
        .stagger(SimDur::from_micros(s.stagger_us))
        .event_pad(s.event_pad)
        .topo(s.topo.clone());
    let mut sim = ClusterSim::new(cfg);
    sim.set_threads(threads);
    sim.start();
    if let Some((seed, crash, partner)) = s.plan {
        let crash = crash % s.nodes;
        let a = partner % s.nodes;
        let b = (partner + 1) % s.nodes;
        let mut plan = FaultPlan::new(seed)
            .crash_at(SimTime::from_secs(2), NodeId(crash))
            .revive_at(SimTime::from_secs(s.secs - 2), NodeId(crash));
        if a != b {
            plan = plan
                .partition_at(SimTime::from_secs(3), NodeId(a), NodeId(b))
                .heal_at(SimTime::from_secs(4), NodeId(a), NodeId(b));
        }
        sim.apply_fault_plan(&plan);
    }
    sim.run_until(SimTime::from_secs(s.secs));
    fingerprint(sim.world())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_scenarios_are_bit_identical(s in scenario_strategy()) {
        let serial = run_random(&s, 1);
        let par = run_random(&s, s.threads);
        prop_assert_eq!(serial, par, "scenario {:?} diverged", s);
    }
}
