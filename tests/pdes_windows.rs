//! The sharded engine's window plan, pinned: how many windows each
//! scenario runs in parallel, how many the planner sends serial, how many
//! parallel windows had at most one busy shard, and how many events ran.
//! All four are functions of the event population and the planner — not of
//! the machine, nor of which thread claims which shard of a window — so an
//! engine or planner change that means to keep the plan must leave every
//! constant here as it is. Recorded at `b97af09`, before windows were
//! claimed and the planner kept its eviction horizon (on a two-CPU box:
//! that engine counted every parallel window inline on one CPU; this one
//! gives the same four numbers under `taskset -c 0`, and CI runs both).

use dproc::cluster::{ClusterConfig, ClusterSim};
use dproc_bench::scenario::Scenario;
use simcore::{SimDur, SimTime};
use simnet::{FaultPlan, NodeId};

/// `(windows_parallel, windows_serial, windows_inline, executed)`.
type Plan = (u64, u64, u64, u64);

const SHARDS: [usize; 3] = [2, 3, 8];

fn plan_of(sim: &ClusterSim) -> Plan {
    let s = sim.parallel_stats().expect("parallel driver");
    (
        s.windows_parallel,
        s.windows_serial,
        s.windows_inline,
        s.executed,
    )
}

fn run(s: &Scenario, secs: u64, step_s: u64) -> [Plan; 3] {
    SHARDS.map(|shards| {
        let mut sim = s.build(shards);
        let mut t = 0;
        while t < secs {
            t = (t + step_s).min(secs);
            sim.run_until(SimTime::from_secs(t));
        }
        plan_of(&sim)
    })
}

/// Sixteen nodes, every poll in one window, no fault.
fn star16() -> Scenario {
    let cfg = ClusterConfig::new(16).stagger(SimDur::from_micros(1));
    Scenario {
        cfg,
        plan: FaultPlan::new(0),
    }
}

#[test]
fn fault_free_star_plan_is_pinned() {
    assert_eq!(run(&star16(), 8, 8), [(64, 0, 8, 1793); 3]);
}

#[test]
fn stepped_star_plan_is_pinned() {
    // One `run_until` per simulated second, as the churn-style callers
    // drive a cluster. A window never reaches past the call's `until`, so
    // the seven inner boundaries each split one window in two; the events
    // are the same.
    assert_eq!(run(&star16(), 8, 1), [(71, 0, 15, 1793); 3]);
}

const LIFECYCLE: [Plan; 3] = [(103, 9, 51, 275), (103, 9, 48, 275), (103, 9, 48, 275)];

#[test]
fn crash_evict_revive_rejoin_plan_is_pinned() {
    // Node 1 falls silent at 2 s, its peers reach the Dead verdict 4 s
    // later and evict it, it comes back at 9 s and re-registers: fault
    // actions, the eviction horizon and the rejoin hazard each send their
    // windows serial.
    let cfg = ClusterConfig::new(5).failure_bounds(SimDur::from_secs(2), SimDur::from_secs(4));
    let plan = FaultPlan::new(42)
        .crash_at(SimTime::from_secs(2), NodeId(1))
        .revive_at(SimTime::from_secs(9), NodeId(1));
    assert_eq!(run(&Scenario { cfg, plan }, 14, 14), LIFECYCLE);
}

const RACKS: [Plan; 3] = [(157, 3, 131, 196), (157, 3, 129, 196), (157, 3, 129, 196)];

#[test]
fn rack_aggregator_crash_plan_is_pinned() {
    // Six nodes in three racks; rack 1's aggregator (node 2) crashes and
    // is evicted from its rack channel and the spine digest channel.
    let cfg = ClusterConfig::new(6)
        .racks(2)
        .failure_bounds(SimDur::from_secs(2), SimDur::from_secs(4));
    let plan = FaultPlan::new(7)
        .crash_at(SimTime::from_secs(3), NodeId(2))
        .revive_at(SimTime::from_secs(10), NodeId(2));
    assert_eq!(run(&Scenario { cfg, plan }, 14, 14), RACKS);
}
