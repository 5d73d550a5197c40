//! `chaos_soak` — seeded chaos/soak harness for the overload-robustness
//! machinery.
//!
//! Each seed deterministically composes a hostile scenario — an overload
//! burst (one node's links degraded to a fraction of their capacity under
//! megabyte events and fan-out-tight link queues), optional subscriber churn
//! (crash + revive), a partition window, and a random-loss window — runs
//! it well past the point where every fault has healed, and checks the
//! robustness invariants the design promises:
//!
//! * **bounded**: link queues never exceed their message cap, publisher
//!   outboxes never exceed `OUTBOX_CAP` — sampled every simulated second,
//!   not just at the end;
//! * **accounted**: stream gaps never exceed the frames actually
//!   destroyed (fault drops + queue tail-drops), and tail-drops on a
//!   crash-free run always surface as gaps — loss is observed, never
//!   silent or double-counted;
//! * **re-convergent**: once the last fault heals, every node returns to
//!   ladder level 0, every outbox drains, and every peer is Fresh again;
//! * **deterministic**: the serial scheduler and the sharded parallel
//!   driver (4 threads) produce bit-identical final state.
//!
//! A failing seed prints a one-line repro command, so soak failures are
//! immediately replayable:
//!
//! ```text
//! cargo run -p dproc-bench --bin chaos_soak -- --seed 17
//! ```
//!
//! Modes: no flags runs the full 24-seed soak; `--quick` runs the three
//! fixed smoke seeds CI uses; `--seed N` replays one seed.

use dproc::cluster::ClusterConfig;
use dproc_bench::scenario::{bounded, converged, fingerprint, Scenario};
use simcore::{SimDur, SimTime};
use simnet::{FaultPlan, LinkSpec, NodeId};

/// Per-direction link queue cap (messages): `nodes - 1`, the tightest cap
/// that still admits one full fan-out burst (a publisher submits all of
/// its per-subscriber frames at the same poll instant, so a smaller cap
/// tail-drops every data poll even on an idle fabric — the harness would
/// then be soaking an unsustainable baseline, not testing recovery).
fn queue_cap(nodes: usize) -> usize {
    nodes - 1
}
/// Every composed fault heals at or before this second.
const HEAL_BY_S: u64 = 60;
/// Scenario length: heal time plus a recovery margin long enough for the
/// slowest hysteresis-guarded ladder ascent and outbox drain.
const END_S: u64 = 130;
/// The full soak sweep.
const SOAK_SEEDS: u64 = 24;
/// The fixed `--quick` smoke seeds CI runs on every push.
const SMOKE_SEEDS: [u64; 3] = [1, 7, 13];

/// SplitMix64 — a tiny deterministic generator, so scenario composition
/// needs no external crates and the seed alone fully determines the run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    fn pick(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// A seed's scenario, whether it crashes a node, and its one-line
/// description.
struct Composed {
    scenario: Scenario,
    has_crash: bool,
    describe: String,
}

/// Deterministically compose a scenario from a seed: always an overload
/// burst, plus coin-flipped churn, partition, and loss windows, all
/// healed by [`HEAL_BY_S`].
fn compose(seed: u64) -> Composed {
    let mut rng = Rng(seed.wrapping_mul(0x5EED).wrapping_add(0xC0A5));
    let t = SimTime::from_secs;
    let nodes = rng.pick(3, 5) as usize;
    let event_pad = [600_000u32, 1_000_000, 1_500_000][rng.pick(0, 2) as usize];
    let mut plan = FaultPlan::new(seed);
    let mut describe = format!("nodes={nodes} pad={event_pad}");

    // The overload burst: degrade one node's links to 5-15 % of capacity,
    // long enough that queues fill, frames tail-drop, and the ladder has
    // to walk.
    let burst_node = rng.pick(0, nodes as u64 - 1);
    let burst_start = rng.pick(5, 12);
    let burst_end = burst_start + rng.pick(20, 35);
    let severity = rng.pick(85, 95) as f64 / 100.0;
    plan = plan
        .degrade_at(t(burst_start), NodeId(burst_node as usize), severity)
        .heal_link_at(t(burst_end), NodeId(burst_node as usize));
    describe += &format!(" burst=n{burst_node}@{burst_start}..{burst_end}x{severity:.2}");

    // Subscriber churn: crash a different node mid-burst and revive it.
    let has_crash = rng.chance(50);
    if has_crash {
        let victim = (burst_node as usize + 1) % nodes;
        let down = rng.pick(15, 25);
        let up = down + rng.pick(10, 20);
        plan = plan
            .crash_at(t(down), NodeId(victim))
            .revive_at(t(up), NodeId(victim));
        describe += &format!(" crash=n{victim}@{down}..{up}");
    }

    // A short partition between two distinct survivors.
    if rng.chance(40) {
        let a = rng.pick(0, nodes as u64 - 1) as usize;
        let b = (a + 1) % nodes;
        let start = rng.pick(10, 40);
        plan = plan.partition_at(t(start), NodeId(a), NodeId(b)).heal_at(
            t(start + 5),
            NodeId(a),
            NodeId(b),
        );
        describe += &format!(" part=n{a}-n{b}@{start}");
    }

    // A random-loss window over the whole fabric.
    if rng.chance(40) {
        let p = rng.pick(10, 30) as f64 / 100.0;
        let start = rng.pick(10, 50);
        let end = (start + rng.pick(3, 5)).min(HEAL_BY_S);
        plan = plan.loss_at(t(start), p).loss_at(t(end), 0.0);
        describe += &format!(" loss={p:.2}@{start}..{end}");
    }

    let mut cfg = ClusterConfig::new(nodes)
        .failure_bounds(SimDur::from_secs(3), SimDur::from_secs(8))
        .event_pad(event_pad);
    cfg.link = LinkSpec::fast_ethernet().with_queue(queue_cap(nodes), 64 << 20);
    Composed {
        scenario: Scenario { cfg, plan },
        has_crash,
        describe,
    }
}

/// Counters worth surfacing in the per-seed report line.
struct Outcome {
    drops: u64,
    gaps: u64,
    shed: u64,
    max_ladder: u8,
    transitions: u64,
}

/// Run one seed end to end and check every invariant. Returns the
/// violation messages (empty = the seed is green).
fn soak_one(seed: u64) -> (Outcome, Vec<String>) {
    let s = compose(seed);
    let mut bad = Vec::new();
    let mut sim = s.scenario.build(1);
    let cap = queue_cap(sim.world().len());

    // Walk the run a second at a time so the bounded-ness invariants are
    // checked throughout the overload, not just after recovery.
    let mut max_ladder = 0u8;
    for sec in 1..=END_S {
        sim.run_until(SimTime::from_secs(sec));
        let w = sim.world();
        if let Err(e) = bounded(w, cap) {
            bad.push(format!("t={sec}: {e}"));
            break;
        }
        let ladders = w.dmons.iter().map(dproc::DMon::ladder_level);
        max_ladder = max_ladder.max(ladders.max().unwrap_or(0));
    }

    let w = sim.world();
    let drops = w.net.link_drops();
    let lost = w.fault.stats.events_lost;
    let gaps: u64 = w.dmon_total(|s| s.gaps_detected);
    let shed: u64 = w.dmon_total(|s| s.events_shed);
    let transitions: u64 = w.dmon_total(|s| s.ladder_transitions);

    // Exact gap accounting: every gap maps to a frame that was actually
    // destroyed — by a fault (crash/partition/loss) or a queue tail-drop.
    // Shed outbox entries never consumed a sequence number, so they must
    // not surface here.
    if gaps > lost + drops {
        bad.push(format!(
            "gaps {gaps} exceed destroyed frames {lost}+{drops}"
        ));
    }
    // And on a crash-free run the mapping is onto: tail-dropped data
    // frames must be *observed* as gaps, not silently absorbed. (A crash
    // can legitimately swallow evidence — the tracker that would have
    // logged the gap dies with the node.)
    if !s.has_crash && drops > 0 && gaps == 0 {
        bad.push(format!("{drops} tail-drops left no gap evidence"));
    }

    // Re-convergence: every fault healed by HEAL_BY_S, so by END_S the
    // system must be back to full fidelity everywhere.
    if let Err(e) = converged(w) {
        bad.push(format!("not re-converged: {e}"));
    }

    // Determinism under overload: the sharded parallel driver must land
    // on bit-identical state.
    let mut par = s.scenario.build(4);
    par.run_until(SimTime::from_secs(END_S));
    if fingerprint(par.world()) != fingerprint(w) {
        bad.push("threads=4 diverged from serial".into());
    }

    println!(
        "seed {seed:>3} {} | {} drops={drops} gaps={gaps} shed={shed} maxladder={max_ladder}",
        if bad.is_empty() { "ok  " } else { "FAIL" },
        s.describe,
    );
    (
        Outcome {
            drops,
            gaps,
            shed,
            max_ladder,
            transitions,
        },
        bad,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seeds: Option<Vec<u64>> = match args.as_slice() {
        [] => Some((0..SOAK_SEEDS).collect()),
        [quick] if quick == "--quick" => Some(SMOKE_SEEDS.to_vec()),
        [flag, n] if flag == "--seed" => n.parse().ok().map(|n| vec![n]),
        _ => None,
    };
    let Some(seeds) = seeds else {
        eprintln!("usage: chaos_soak [--quick | --seed N]");
        std::process::exit(2);
    };

    let mut failures = 0u32;
    let mut total = Outcome {
        drops: 0,
        gaps: 0,
        shed: 0,
        max_ladder: 0,
        transitions: 0,
    };
    for &seed in &seeds {
        let (o, bad) = soak_one(seed);
        total.drops += o.drops;
        total.gaps += o.gaps;
        total.shed += o.shed;
        total.transitions += o.transitions;
        total.max_ladder = total.max_ladder.max(o.max_ladder);
        for b in &bad {
            eprintln!("  FAIL seed {seed}: {b}");
        }
        if !bad.is_empty() {
            eprintln!("  repro: cargo run -p dproc-bench --bin chaos_soak -- --seed {seed}");
            failures += 1;
        }
    }

    println!(
        "soak: {} seeds, {} drops, {} gaps, {} shed, {} ladder transitions, max ladder {}",
        seeds.len(),
        total.drops,
        total.gaps,
        total.shed,
        total.transitions,
        total.max_ladder
    );
    // Vacuity guard on the sweep itself: a soak that never dropped a
    // frame or moved a ladder is not testing the overload machinery.
    if seeds.len() > 1 && (total.drops == 0 || total.max_ladder == 0) {
        eprintln!("FAIL: soak sweep was vacuous (no drops or no ladder movement)");
        failures += 1;
    }
    if failures > 0 {
        eprintln!("{failures} seed(s) failed");
        std::process::exit(1);
    }
    println!("all seeds green");
}
