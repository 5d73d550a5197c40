//! The text of every file under `/proc/cluster/`, pinned.
//!
//! `tests/proc_text.golden` is what `read()` returns for each
//! `cluster/<dir>/<file>` on every node of four scripted scenarios — the
//! module detail files, per-peer `status`, `overload`, the rack digests,
//! the remote-view samples. Every byte is a pure simulation output, the
//! same on any machine, in any build profile and under either engine, so
//! how a file is *stored* (text, sample, record) can change underneath
//! without a reader seeing it. A change that means to alter what a reader
//! sees regenerates the file (`cargo test --test proc_text -- --ignored`)
//! in the same commit and says why.

use std::fmt::Write as _;

use dproc::cluster::{ClusterConfig, ClusterSim};
use dproc::modules::PowerMon;
use dproc_bench::scenario::Scenario;
use simcore::{SimDur, SimTime};
use simnet::NodeId;
use simos::power::Battery;

const GOLDEN: &str = include_str!("proc_text.golden");

/// Append `read()` of every file under `cluster/` on every node.
fn dump(out: &mut String, label: &str, sim: &ClusterSim) {
    let w = sim.world();
    for (i, host) in w.hosts.iter().enumerate() {
        writeln!(out, "==== {label} node {i}").unwrap();
        for dir in host.proc.list("cluster").unwrap() {
            for file in host.proc.list(&format!("cluster/{dir}")).unwrap() {
                let path = format!("cluster/{dir}/{file}");
                let text = host.proc.read(&path).unwrap();
                writeln!(out, "-- {path}\n{text}").unwrap();
            }
        }
    }
}

fn started(cfg: ClusterConfig, threads: usize) -> ClusterSim {
    let mut sim = ClusterSim::new(cfg.poll_period(SimDur::from_secs(1)));
    sim.set_threads(threads);
    sim.start();
    sim
}

/// (a) A 12-node star after 30 s: every node holds 11 connections, and NET
/// MON lists `n10` before `n2` (its lines sort as strings).
fn star12(out: &mut String, threads: usize) {
    let mut sim = started(ClusterConfig::new(12), threads);
    sim.run_until(SimTime::from_secs(30));
    dump(out, "star12 t=30", &sim);
}

/// (b) 12 nodes in three racks of four after 30 s: `cluster/rack<k>/` on
/// aggregators and on plain members.
fn racks12(out: &mut String, threads: usize) {
    let mut sim = started(ClusterConfig::new(12).racks(4), threads);
    sim.run_until(SimTime::from_secs(30));
    dump(out, "racks12 t=30", &sim);
}

/// (c) `Scenario::overload3` with two-message queues, as
/// `tests/pinned_counters.rs` runs it, and node 1 crashed at 20 s: its
/// `status` reads `stale` at 25 s and `dead` at 40 s, and the degraded
/// links hold `overload` above level 0.
fn overload3(out: &mut String, threads: usize) {
    let mut s = Scenario::overload3(2);
    s.plan = s.plan.crash_at(SimTime::from_secs(20), NodeId(1));
    let mut sim = s.build(threads);
    for t in [25, 40] {
        sim.run_until(SimTime::from_secs(t));
        dump(out, &format!("overload3 t={t}"), &sim);
    }
}

/// (d) POWER MON registered at run time on a battery host and on a mains
/// host.
fn power2(out: &mut String, threads: usize) {
    let mut sim = started(ClusterConfig::named(&["server", "handheld"]), threads);
    sim.world_mut().hosts[1].battery = Some(Battery::handheld());
    sim.run_until(SimTime::from_secs(5));
    for d in &mut sim.world_mut().dmons {
        d.register_module(Box::new(PowerMon));
    }
    sim.run_until(SimTime::from_secs(10));
    dump(out, "power2 t=10", &sim);
}

fn all(threads: usize) -> String {
    let mut out = String::new();
    star12(&mut out, threads);
    racks12(&mut out, threads);
    overload3(&mut out, threads);
    power2(&mut out, threads);
    out
}

/// The first line where two dumps part, with its `==== `/`-- ` context.
fn first_difference(got: &str, want: &str) -> String {
    let (mut node, mut file) = ("", "");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            return format!("line {}: {node} / {file}\n  got:  {g}\n  want: {w}", n + 1);
        }
        if g.starts_with("==== ") {
            node = g;
        } else if g.starts_with("-- ") {
            file = g;
        }
    }
    format!(
        "one is a prefix of the other: {} vs {} lines",
        got.lines().count(),
        want.lines().count()
    )
}

#[test]
fn proc_text_matches_the_golden_file_serial() {
    let got = all(1);
    assert!(got == GOLDEN, "{}", first_difference(&got, GOLDEN));
}

#[test]
fn proc_text_matches_the_golden_file_on_two_shards() {
    let got = all(2);
    assert!(got == GOLDEN, "{}", first_difference(&got, GOLDEN));
}

/// Not a test: rewrites the golden file from the serial engine.
#[test]
#[ignore = "regenerates tests/proc_text.golden"]
fn regenerate_the_golden_file() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/proc_text.golden");
    std::fs::write(path, all(1)).unwrap();
}

#[test]
fn golden_file_holds_the_cases_it_is_there_for() {
    for needle in [
        "n0->n10 tag 0 rtt_us",
        "-- cluster/rack2/cpu\nmin ",
        "-- cluster/node1/status\nstale last_update ",
        "-- cluster/node1/status\ndead last_update ",
        "battery_fraction 0.",
        "mains_powered",
    ] {
        assert!(GOLDEN.contains(needle), "golden file lacks {needle:?}");
    }
    let at = |needle| GOLDEN.find(needle).unwrap();
    assert!(
        at("conn n0->n10 ") < at("conn n0->n2 "),
        "NET MON lists n10 before n2"
    );
    let level = |l: &str| l.strip_prefix("level ").map(|r| !r.starts_with('0'));
    assert!(
        GOLDEN.lines().filter_map(level).any(|nonzero| nonzero),
        "no `overload` file above level 0"
    );
}
