//! A faulted cluster re-converges after every fault cycle. Eight nodes with
//! 200 KB events, 7-message link queues and 3 s / 8 s failure bounds run
//! the benchmark's `overload8-faults` cycle, drawn from a seed: a degraded
//! node, a crash past the dead bound, a partition past the dead bound,
//! 20 % network-wide loss, then quiet. Before the next cycle's first fault
//! every node must be back on ladder rung 0, with every peer Fresh and
//! every outbox empty.
//!
//! What this catches is a grant that never comes back. A publisher whose
//! window toward one subscriber is left at 0 parks every payload for it,
//! so its outbox never drains and its ladder cannot climb back; the quiet
//! period ends with the node still degraded. Lost grants do that unless a
//! later grant supersedes them. When a standalone grant was a relative
//! increment that nothing re-sent, seeds 1, 4, 5 and 6 left 1, 1, 1 and 9
//! of their 200 cycles unrecovered, most with one publisher holding 0
//! credits toward one subscriber.

use dproc::cluster::ClusterSim;
use dproc_bench::scenario::{converged, Scenario};
use simcore::{SimDur, SimRng, SimTime};
use simnet::{FaultAction, FaultPlan, NodeId};

const N: usize = 8;

/// Seconds per fault cycle: the faults take the first 45, and the rest
/// is quiet.
const CYCLE_S: u64 = 120;

/// Cycles per seed.
const CYCLES: u64 = 200;

/// The benchmark's fault cycle, [`CYCLES`] times over, with victims and
/// phase jitter drawn from `seed`.
fn plan(seed: u64) -> FaultPlan {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut plan = FaultPlan::new(rng.next_u64());
    let n = N as u64;
    for c in 0..CYCLES {
        // Three distinct victims: `a` degraded, `b` crashed, `p` and `q`
        // cut off from each other.
        let a = rng.below(n) as usize;
        let b = (a + 1 + rng.below(n - 2) as usize) % N;
        let p = rng.below(n) as usize;
        let q = (p + 1 + rng.below(n - 1) as usize) % N;
        let j = rng.below(3);
        let at = |s: u64| SimTime::from_secs(c * CYCLE_S + s + j);
        plan = plan
            .degrade_at(at(2), NodeId(a), 0.9)
            .heal_link_at(at(32), NodeId(a))
            .crash_at(at(8), NodeId(b))
            .revive_at(at(20), NodeId(b))
            .partition_at(at(24), NodeId(p), NodeId(q))
            .heal_at(at(34), NodeId(p), NodeId(q))
            .loss_at(at(38), 0.2)
            .loss_at(at(42), 0.0);
    }
    plan
}

/// Run `seed`'s plan as the benchmark drives it: in one-second steps,
/// each fault applied at the start of the step it falls in, the cluster
/// looked at after each step. Returns the cycles that had not re-converged
/// when the next one's first fault struck (or the run ended), with what
/// was still wrong.
fn unrecovered(seed: u64) -> Vec<String> {
    let plan = plan(seed);
    // Only the plan's seed goes in: the loop below applies its faults.
    let mut sim = Scenario::faulted_star8(FaultPlan::new(plan.seed())).build(1);
    let mut actions = plan.actions().into_iter().peekable();
    let (mut healed, mut failed) = (None, Vec::new());
    let mut now = SimTime::ZERO;
    let report = |healed: SimTime, sim: &ClusterSim| {
        let left = converged(sim.world()).err().unwrap_or_default();
        format!("healed at {} s: {left}", healed.as_secs_f64())
    };
    for _ in 0..CYCLES * CYCLE_S {
        while let Some((_, action)) = actions.next_if(|(t, _)| *t <= now) {
            match action {
                FaultAction::Degrade(..) => failed.extend(healed.take().map(|t| report(t, &sim))),
                FaultAction::Loss(0.0) => healed = Some(now),
                _ => {}
            }
            let (world, sched) = sim.parts();
            world.apply_fault(sched, &action);
        }
        now += SimDur::from_secs(1);
        sim.run_until(now);
        if healed.is_some() && converged(sim.world()).is_ok() {
            healed = None;
        }
    }
    failed.extend(healed.map(|t| report(t, &sim)));
    failed
}

fn check(seed: u64) {
    let failed = unrecovered(seed);
    assert!(failed.is_empty(), "seed {seed}: {failed:#?}");
}

#[test]
fn every_cycle_reconverges_seed_1() {
    check(1);
}

#[test]
fn every_cycle_reconverges_seed_2() {
    check(2);
}

#[test]
fn every_cycle_reconverges_seed_3() {
    check(3);
}

#[test]
fn every_cycle_reconverges_seed_4() {
    check(4);
}

#[test]
fn every_cycle_reconverges_seed_5() {
    check(5);
}

#[test]
fn every_cycle_reconverges_seed_6() {
    check(6);
}

#[test]
fn every_cycle_reconverges_seed_7() {
    check(7);
}

#[test]
fn every_cycle_reconverges_seed_8() {
    check(8);
}
