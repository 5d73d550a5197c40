//! Fault injection, failure detection, and recovery across the stack.
//!
//! The scripted scenario every test builds on: crash a node at t=10 s,
//! partition two others at t=20 s, heal at t=30 s, revive at t=40 s —
//! with explicit detector bounds (stale after 3 s, dead after 8 s) so
//! every transition lands at a predictable poll.

use dproc::cluster::{ClusterConfig, ClusterSim};
use dproc_bench::scenario::{bounded, converged, fingerprint, Scenario};
use kecho::MAX_GAP_RANGES;
use simcore::{SimDur, SimTime};
use simnet::{FaultPlan, NodeId};
use smartpointer::app::{SmartPointer, SmartPointerConfig};
use smartpointer::data::{FrameSpec, StreamMode};
use smartpointer::policy::{MonitorSet, Policy};

const STALE_AFTER: u64 = 3;
const DEAD_AFTER: u64 = 8;

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// `n` nodes under `plan`, started (`FaultPlan::new(0)` is no fault).
fn cluster(n: usize, plan: FaultPlan) -> ClusterSim {
    let cfg = ClusterConfig::new(n).failure_bounds(
        SimDur::from_secs(STALE_AFTER),
        SimDur::from_secs(DEAD_AFTER),
    );
    Scenario { cfg, plan }.build(1)
}

fn scenario_plan() -> FaultPlan {
    FaultPlan::new(0xFA17)
        .crash_at(t(10), NodeId(3))
        .partition_at(t(20), NodeId(0), NodeId(1))
        .heal_at(t(30), NodeId(0), NodeId(1))
        .revive_at(t(40), NodeId(3))
}

fn status(sim: &ClusterSim, observer: usize, peer: &str) -> String {
    sim.world().hosts[observer]
        .proc
        .read(&format!("cluster/{peer}/status"))
        .expect("status file")
        .to_string()
}

#[test]
fn scripted_scenario_walks_the_failure_lifecycle() {
    let mut sim = cluster(4, scenario_plan());

    // Before any fault: everyone fresh, nothing counted.
    sim.run_until(t(9));
    assert!(status(&sim, 0, "node3").starts_with("fresh"));
    assert_eq!(sim.world().dmons[0].stats.nodes_suspected, 0);

    // Crash at 10; node3's last event landed just before. The detector
    // crosses the stale bound at the first poll past last_heard + 3 s...
    sim.run_until(t(10 + STALE_AFTER + 2));
    assert!(
        status(&sim, 0, "node3").starts_with("stale"),
        "got {}",
        status(&sim, 0, "node3")
    );
    assert!(sim.world().dmons[0].stats.nodes_suspected >= 1);

    // ...and the dead bound at the first poll past last_heard + 8 s.
    sim.run_until(t(10 + DEAD_AFTER + 2));
    assert!(
        status(&sim, 0, "node3").starts_with("dead"),
        "got {}",
        status(&sim, 0, "node3")
    );
    assert!(sim.world().dmons[0].stats.nodes_evicted >= 1);
    assert!(!sim.world().is_alive(NodeId(3)));

    // Eviction froze publication toward the dead subscriber: the
    // publisher's per-stream send count stops moving.
    let frozen = sim.world().dmons[0].sent_to(NodeId(3));
    assert!(frozen > 0, "node0 had been publishing to node3");
    sim.run_until(t(26));
    assert_eq!(
        sim.world().dmons[0].sent_to(NodeId(3)),
        frozen,
        "no events are spent on a dead subscriber"
    );

    // Inside the partition window node0 and node1 lose each other too.
    assert!(
        status(&sim, 0, "node1").starts_with("stale") || {
            sim.run_until(t(29));
            status(&sim, 0, "node1").starts_with("dead")
        }
    );

    // After heal + revive the cluster converges: everyone fresh, the
    // revived node in a new incarnation, customization replay done, and
    // the partition's dropped sequence numbers accounted as gaps.
    sim.run_until(t(60));
    let w = sim.world();
    assert!(w.is_alive(NodeId(3)));
    assert_eq!(w.dmons[3].epoch(), 1, "revive bumps the incarnation");
    for (i, peer) in [(0, "node1"), (1, "node0"), (0, "node3"), (2, "node3")] {
        assert!(
            status(&sim, i, peer).starts_with("fresh"),
            "{i} sees {peer}: {}",
            status(&sim, i, peer)
        );
    }
    assert!(
        w.dmons[0].sent_to(NodeId(3)) > frozen,
        "publication to node3 resumed after revive"
    );
    assert!(w.dmons[0].stats.gaps_detected > 0, "partition left gaps");
    assert!(w.dmons[1].stats.gaps_detected > 0);
    assert!(
        (0..4).any(|i| w.dmons[i].stats.resyncs > 0),
        "someone re-deployed customizations on the revived node"
    );
    assert!(w.fault.stats.partition_drops > 0);
    assert!(w.fault.stats.crash_drops > 0);
    // Every survivor saw node3 die: it missed heartbeats, suspected and
    // evicted.
    for i in 0..3 {
        let d = &w.dmons[i].stats;
        assert!(d.heartbeats_missed > 0, "node{i} missed no heartbeat");
        assert!(d.nodes_suspected > 0, "node{i} suspected nobody");
        assert!(d.nodes_evicted > 0, "node{i} evicted nobody");
    }
}

#[test]
fn fault_counters_stay_zero_without_faults() {
    let mut sim = cluster(4, FaultPlan::new(0));
    sim.run_until(t(60));
    let w = sim.world();
    assert_eq!(w.fault.stats.events_lost, 0);
    assert_eq!(w.fault.stats.crash_drops, 0);
    for i in 0..4 {
        let d = &w.dmons[i].stats;
        assert_eq!(d.gaps_detected, 0, "node{i}");
        assert_eq!(d.heartbeats_missed, 0, "node{i}");
        assert_eq!(d.nodes_suspected, 0, "node{i}");
        assert_eq!(d.nodes_evicted, 0, "node{i}");
        assert_eq!(d.resyncs, 0, "node{i}");
    }
}

#[test]
fn dmon_stats_are_byte_identical_across_identical_faulted_runs() {
    // Same seed, same plan (including probabilistic loss) → the entire
    // observable outcome is reproducible, down to the Debug rendering of
    // every counter and sampler.
    let run = || {
        let mut sim = cluster(4, scenario_plan().loss_at(t(5), 0.05));
        sim.run_until(t(60));
        fingerprint(sim.world())
    };
    assert_eq!(run(), run());
}

#[test]
fn smartpointer_degrades_to_conservative_format_while_client_is_stale() {
    // Server node0 streams to client node1 under the hybrid dynamic
    // policy; a 10 s partition makes the client's metrics stale (but not
    // yet dead, so no eviction) — every frame decided in that window must
    // use the conservative fallback format.
    let install = |sim: &mut ClusterSim| {
        SmartPointer::install(
            sim,
            SmartPointerConfig {
                server: NodeId(0),
                clients: vec![(NodeId(1), Policy::Dynamic(MonitorSet::Hybrid))],
                spec: FrameSpec::interactive(),
                rate_hz: 5.0,
                write_to_disk: true,
                queue_cap: 64,
            },
        )
    };

    let plan = FaultPlan::new(1)
        .partition_at(t(10), NodeId(0), NodeId(1))
        .heal_at(t(17), NodeId(0), NodeId(1));
    let mut sim = cluster(2, plan);
    let app = install(&mut sim);

    sim.run_until(t(9));
    assert_eq!(
        app.client_stats(0).fallbacks,
        0,
        "healthy client, no fallback"
    );
    assert_eq!(app.client_stats(0).last_mode, Some(StreamMode::Raw));

    // Detector marks the client stale ~3 s into the partition; from then
    // until the heal every decision is the fallback.
    sim.run_until(t(16));
    let mid = app.client_stats(0);
    assert!(mid.fallbacks > 0, "stale metrics forced fallback frames");
    assert_eq!(
        mid.last_mode,
        Some(StreamMode::PreRender(16)),
        "most conservative format while stale"
    );

    // Heal: monitoring resumes, the view freshens, the stream recovers.
    // (Frames emitted between the snapshot above and the heal are still
    // fallbacks, so compare from a post-recovery baseline.)
    sim.run_until(t(19));
    let healed = app.client_stats(0);
    assert_eq!(healed.last_mode, Some(StreamMode::Raw));
    sim.run_until(t(25));
    let end = app.client_stats(0);
    assert_eq!(end.last_mode, Some(StreamMode::Raw));
    assert_eq!(
        end.fallbacks, healed.fallbacks,
        "no further fallbacks once fresh again"
    );

    // Control: the same deployment with no faults never falls back.
    let mut control = cluster(2, FaultPlan::new(0));
    let capp = install(&mut control);
    control.run_until(t(25));
    assert_eq!(capp.client_stats(0).fallbacks, 0);
}

#[test]
fn dead_eviction_reaps_per_subscriber_stream_state() {
    let plan = FaultPlan::new(0x0DEAD)
        .crash_at(t(10), NodeId(3))
        .revive_at(t(40), NodeId(3));
    let mut sim = cluster(4, plan);

    // Steady publication tracks last-sent values per subscriber.
    sim.run_until(t(9));
    assert!(sim.world().dmons[0].last_sent_len(NodeId(3)) > 0);

    // Crossing the dead bound evicts node3 and reaps the per-stream send
    // state — its stream is over — while the lifetime counter survives.
    sim.run_until(t(10 + DEAD_AFTER + 2));
    let w = sim.world();
    assert_eq!(
        w.dmons[0].peer_health(NodeId(3)),
        Some(dproc::PeerHealth::Dead)
    );
    assert_eq!(
        w.dmons[0].last_sent_len(NodeId(3)),
        0,
        "eviction reaps the last-sent row"
    );
    let frozen = w.dmons[0].sent_to(NodeId(3));
    assert!(frozen > 0, "lifetime counter is not reaped");

    // After revival the row is rebuilt from a clean slate.
    sim.run_until(t(55));
    let w = sim.world();
    assert!(
        w.dmons[0].last_sent_len(NodeId(3)) > 0,
        "publication resumed and rebuilt the row"
    );
    assert!(w.dmons[0].sent_to(NodeId(3)) > frozen);
}

#[test]
fn replay_log_stays_bounded_under_repeated_reconfiguration() {
    let mut sim = cluster(2, FaultPlan::new(0));

    // Re-tuning the same metric over and over must not grow the replay
    // log: each non-additive rule supersedes the previous one.
    for k in 1..=8u64 {
        sim.write_control(NodeId(0), "node1", &format!("period cpu {k}"));
        sim.run_for(SimDur::from_secs(2));
    }
    let len = sim.world().dmons[0].deployed_ctl_len(NodeId(1));
    assert_eq!(len, 1, "eight period rules compact to one, got {len}");

    // A different rule kind on the same metric root still supersedes.
    sim.write_control(NodeId(0), "node1", "delta cpu 0.25");
    sim.run_for(SimDur::from_secs(2));
    assert_eq!(sim.world().dmons[0].deployed_ctl_len(NodeId(1)), 1);

    // A different metric root gets its own slot.
    sim.write_control(NodeId(0), "node1", "period mem 3");
    sim.run_for(SimDur::from_secs(2));
    assert_eq!(sim.world().dmons[0].deployed_ctl_len(NodeId(1)), 2);

    // Repeated filter deployments keep exactly one filter entry...
    for _ in 0..4 {
        sim.write_control(NodeId(0), "node1", "filter { int x = 0; }");
        sim.run_for(SimDur::from_secs(2));
    }
    assert_eq!(sim.world().dmons[0].deployed_ctl_len(NodeId(1)), 3);

    // ...and a remove erases the filter entry instead of stacking: a
    // restarted publisher comes up with no filter, so replaying the
    // removal would be a no-op.
    sim.write_control(NodeId(0), "node1", "nofilter");
    sim.run_for(SimDur::from_secs(2));
    assert_eq!(sim.world().dmons[0].deployed_ctl_len(NodeId(1)), 2);
}

// === Overload: bounded queues, backpressure, and the degradation ladder ===

#[test]
fn overload_backpressure_bounds_queues_and_walks_the_ladder() {
    let mut sim = Scenario::overload3(3).build(1);

    // Walk through the overload window a second at a time, tracking the
    // highest ladder level each node reaches and checking the bounded-ness
    // invariants at every step.
    let mut max_ladder = [0u8; 3];
    for s in 1..=95u64 {
        sim.run_until(t(s));
        let w = sim.world();
        assert_eq!(bounded(w, 3), Ok(()), "t={s}");
        for (i, peak) in max_ladder.iter_mut().enumerate() {
            *peak = (*peak).max(w.dmons[i].ladder_level());
        }
    }

    let w = sim.world();
    // The overload was real: frames tail-dropped, streams stalled on
    // credits, and at least one node descended the ladder.
    assert!(
        w.net.link_drops() > 0,
        "no tail-drops — scenario is vacuous"
    );
    let stalled: u64 = (0..3).map(|i| w.dmons[i].stats.credits_stalled).sum();
    assert!(stalled > 0, "no credit stalls — backpressure never engaged");
    assert!(
        max_ladder.iter().any(|&l| l > 0),
        "no node ever degraded: {max_ladder:?}"
    );
    // Dropped frames are fully accounted as stream gaps — loss is
    // observed, not silent.
    assert!(w.dmons.iter().any(|d| d.stats.gaps_detected > 0));

    // Liveness held throughout: heartbeats ride the priority lane, so
    // nobody was evicted even while the bulk lane was shedding.
    for i in 0..3 {
        assert_eq!(w.dmons[i].stats.nodes_evicted, 0, "node{i} evicted a peer");
        let moves = w.dmons[i].stats.ladder_transitions;
        assert!(moves == 0 || moves >= 2, "node{i} went down and not up");
    }

    // Hysteresis-guarded recovery: 50 s after the heal every ladder is
    // back to full fidelity, every outbox has drained, and every peer
    // is fresh again.
    assert_eq!(converged(w), Ok(()));
}

#[test]
fn failure_detection_latency_is_unchanged_under_bulk_saturation() {
    // Crash node3 at t=10 and record when node0's detector crosses the
    // stale and dead bounds, once on a quiet network and once with both
    // directions of the observed path under a 90 Mb/s iperf flood. The
    // priority heartbeat lane serializes at the residual rate (tiny
    // frames, microseconds either way), so detection — quantized by the
    // 1 s poll — must land on exactly the same second.
    let detect = |flood: bool| -> (u64, u64) {
        let mut sim = cluster(4, FaultPlan::new(7).crash_at(t(10), NodeId(3)));
        if flood {
            sim.run_until(t(2));
            sim.start_iperf(NodeId(3), NodeId(0), 90e6);
            sim.start_iperf(NodeId(1), NodeId(0), 90e6);
        }
        let mut stale_at = None;
        let mut dead_at = None;
        for s in 10..=30u64 {
            sim.run_until(t(s));
            let st = status(&sim, 0, "node3");
            if stale_at.is_none() && !st.starts_with("fresh") {
                stale_at = Some(s);
            }
            if dead_at.is_none() && st.starts_with("dead") {
                dead_at = Some(s);
            }
        }
        (stale_at.expect("never stale"), dead_at.expect("never dead"))
    };
    let quiet = detect(false);
    let loaded = detect(true);
    assert_eq!(
        quiet, loaded,
        "bulk-lane load changed failure-detection latency"
    );
}

#[test]
fn gap_memory_stays_bounded_through_sustained_loss() {
    // 30 % random loss for a long stretch produces far more distinct
    // stream gaps than the tracker's range log may hold. The log must
    // compress instead of growing, while the exact lost-position count
    // keeps matching what the detectors report.
    let plan = FaultPlan::new(0x6A95)
        .loss_at(t(5), 0.30)
        .loss_at(t(185), 0.0);
    let mut sim = cluster(2, plan);
    sim.run_until(t(200));

    let w = sim.world();
    let mut total_gaps = 0u64;
    for (i, peer) in [(0usize, NodeId(1)), (1usize, NodeId(0))] {
        let tr = w.dmons[i].stream_tracker(peer).expect("tracker");
        assert!(tr.contacted());
        assert!(
            tr.gap_ranges().len() <= MAX_GAP_RANGES,
            "gap log grew to {} ranges",
            tr.gap_ranges().len()
        );
        assert!(
            tr.gaps() > u64::from(u32::try_from(MAX_GAP_RANGES).unwrap()),
            "scenario too tame to overflow the gap log: {} gaps",
            tr.gaps()
        );
        total_gaps += tr.gaps();
    }
    let reported: u64 = w.dmon_total(|s| s.gaps_detected);
    assert_eq!(total_gaps, reported, "tracker and stats disagree on loss");
    assert!(
        reported <= w.fault.stats.events_lost,
        "more gaps than the fault layer ever dropped"
    );
}
