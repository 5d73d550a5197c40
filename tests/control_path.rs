//! A control write allocates nothing once warm: from the application's
//! write into `/proc/cluster/<node>/control` (`ClusterSim::write_control`)
//! through the `/proc` write queue, the d-mon that drains it, the control
//! event on the wire and the publisher's handler, to the rules and filter
//! slots it leaves there. On a warmed 16-node star every node writes every
//! verb once a round; a round makes no allocator call.
//!
//! The queue keeps its text in one reused buffer; a message's text comes
//! from the record pool the simulation lends its thread
//! (`kecho::take_text`) and goes back when the message is consumed, and
//! so does a replay-log entry's when compaction drops it; a metric keeps
//! its rule buffer when its rules are replaced; and a filter source whose
//! last user left stays admitted, so deploying it again is a lookup.

use dproc::cluster::{ClusterConfig, ClusterSim};
use dproc_bench::alloc::{self, Counting};
use dproc_bench::scenario::{assert_no_sampler_doubled, samplers};
use simcore::SimDur;
use simnet::NodeId;

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: usize = 16;

/// What each node writes toward its successor every round: a rule, an
/// `and` on it, a `clear`, a `window`, a filter whose source the
/// publisher has admitted before and a `nofilter`. Each publisher ends the
/// round as it began it.
const ROUND: [&str; 6] = [
    "period cpu 2",
    "and above cpu 0.5",
    "clear cpu",
    "window cpu 5",
    "filter { if (input[LOADAVG].value > 0.25) { output[0] = input[LOADAVG]; } }",
    "nofilter",
];

/// What each node writes to its own control file every round: applied
/// locally, never sent.
const OWN: &str = "above mem 1e18";

struct Star {
    sim: ClusterSim,
    names: Vec<String>,
}

impl Star {
    fn new() -> Star {
        let mut sim = ClusterSim::new(ClusterConfig::new(NODES));
        sim.start();
        let names = sim.world().hosts.iter().map(|h| h.name.clone()).collect();
        Star { sim, names }
    }

    /// One round's writes, then one simulated second (every node polls
    /// once, draining its writes, and every control event is delivered);
    /// returns the allocator calls of it all.
    fn round(&mut self) -> u64 {
        let before = alloc::calls();
        for n in 0..NODES {
            let next = &self.names[(n + 1) % NODES];
            for text in ROUND {
                self.sim.write_control(NodeId(n), next, text);
            }
            self.sim.write_control(NodeId(n), &self.names[n], OWN);
        }
        self.sim.run_for(SimDur::from_secs(1));
        alloc::calls() - before
    }
}

#[test]
fn a_round_of_every_control_verb_on_a_warm_star_makes_no_allocator_call() {
    let mut star = Star::new();
    // Warm-up: first contact, control files, rule and slot tables, replay
    // logs, the pools and the write queue grow to size, and so do what the
    // simulation itself keeps: each host's run-queue history spans a
    // quarter of an hour, and the event wheel's slot buffers take a while
    // to meet their largest occupancy. It ends once the latency sampler
    // holds 2^18 frames: the samplers keep a value per frame and two per
    // poll in vectors that double, and over the rounds below none of them
    // does (some 11 000 frames more, and 1 100-odd to 1 250-odd polls), so
    // every call counted there is the control path's.
    let mut rounds = 0;
    while rounds < 1100 || samplers(star.sim.world())[0] < 1 << 18 {
        star.round();
        rounds += 1;
    }
    let start = samplers(star.sim.world());
    let mut calls = Vec::with_capacity(50);
    for _ in 0..50 {
        calls.push(star.round());
    }
    let end = samplers(star.sim.world());
    assert_no_sampler_doubled(&start, &end);
    assert_eq!(calls, [0; 50], "allocator calls per round");

    let w = star.sim.world();
    let handled: u64 = w.dmons.iter().map(|d| d.stats.control_handled).sum();
    let errors: u64 = w.dmons.iter().map(|d| d.stats.control_errors).sum();
    assert_eq!(errors, 0);
    assert!(
        handled >= 1150 * 7 * 16,
        "{handled} control messages handled"
    );
    assert_eq!(w.mon_delivered, end[0] as u64, "every frame sampled");
}
