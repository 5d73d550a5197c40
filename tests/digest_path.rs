//! A digest allocates nothing once warm: from the rack aggregator's fold
//! (`DMon::poll_digest`) through the payload on the spine to the summary
//! files and kept payload a subscriber files it under (`DMon::on_digest`).
//! On a warmed racked cluster a poll round makes no allocator call.
//!
//! The fold and its records are scratch the aggregator keeps, the send
//! list is its d-mon's spare one, each subscriber's payload is a buffer
//! from the record pool the simulation lends its thread
//! (`kecho::take_digest_buf`) that goes back on delivery, and a subscriber
//! keeps one row per rack, grown on first contact.

use dproc::cluster::{ClusterConfig, ClusterSim};
use dproc_bench::alloc::{self, Counting};
use dproc_bench::scenario::{assert_no_sampler_doubled, samplers};
use simcore::SimDur;
use simnet::TopologySpec;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Rounds counted once warm.
const ROUNDS: usize = 10;

/// One simulated second: every node polls once, every aggregator folds
/// its rack and sends its digest to every other aggregator, and every
/// frame and digest is delivered. Returns the allocator calls of it.
fn round(sim: &mut ClusterSim) -> u64 {
    let before = alloc::calls();
    sim.run_for(SimDur::from_secs(1));
    alloc::calls() - before
}

/// Digests sent and received across the cluster.
fn digests(sim: &ClusterSim) -> (u64, u64) {
    let stats = sim.world().dmons.iter().map(|d| &d.stats);
    stats.fold((0, 0), |(s, r), st| {
        (s + st.digests_sent, r + st.digests_received)
    })
}

/// Warm `cfg`'s cluster up, then count the allocator calls of
/// [`ROUNDS`] poll rounds, checking every digest of them was delivered.
fn calls_per_round_once_warm(cfg: ClusterConfig) -> Vec<u64> {
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    let racks = sim.world().placement.n_racks() as u64;
    assert!(racks > 1, "a racked cluster");
    // Warm-up: first contact, per-rack rows and summary files, peer
    // tables, the pools and the event wheel's slot buffers grow to size,
    // and each host's run-queue history comes to span its quarter of an
    // hour. 1000 rounds also leave every sampler between two of its
    // doublings for the rounds below: per node 1000-odd polls, per
    // aggregator 2000-odd (or 3000-odd) digests, and 2.6 to 3 million
    // frames.
    for _ in 0..1000 {
        round(&mut sim);
    }
    let (start, sent) = (samplers(sim.world()), digests(&sim));
    let calls: Vec<u64> = (0..ROUNDS).map(|_| round(&mut sim)).collect();
    let (end, more) = (samplers(sim.world()), digests(&sim));
    assert_no_sampler_doubled(&start, &end);
    // Each aggregator sends one digest a round to each other one.
    let per_round = racks * (racks - 1);
    assert_eq!(more.0 - sent.0, ROUNDS as u64 * per_round, "digests sent");
    assert_eq!(
        more.1 - sent.1,
        ROUNDS as u64 * per_round,
        "digests received"
    );
    calls
}

#[test]
fn a_poll_round_of_equal_racks_makes_no_allocator_call() {
    let calls = calls_per_round_once_warm(ClusterConfig::new(96).racks(32));
    assert_eq!(calls, [0; ROUNDS], "allocator calls per round");
}

#[test]
fn a_poll_round_with_a_short_last_rack_makes_no_allocator_call() {
    let sizes = vec![30, 30, 30, 6];
    let cfg = ClusterConfig::new(96).topo(TopologySpec::RackList { sizes });
    let calls = calls_per_round_once_warm(cfg);
    assert_eq!(calls, [0; ROUNDS], "allocator calls per round");
}
