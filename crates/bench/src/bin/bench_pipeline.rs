//! `bench_pipeline` — end-to-end wall-clock throughput of the simulator's
//! poll→sample→filter→encode→deliver pipeline on the 16-node scalability
//! scenario.
//!
//! Unlike the `fig*` binaries (which report *modeled* costs), this measures
//! the harness itself: how many simulated monitoring events per wall-clock
//! second the pipeline sustains, how many wall-clock nanoseconds one d-mon
//! poll tick costs, and how many heap allocations each delivered event
//! drags along. The numbers land in `BENCH_pipeline.json` so every PR has
//! a perf trajectory.
//!
//! Usage:
//!   bench_pipeline [--quick] [--threads N] [--out PATH] [--check BASELINE.json]
//!
//! `--quick` shortens the measured window (CI smoke). `--threads N` sets
//! the worker count for the sharded-parallel section (default: one shard
//! per available core, up to 8); the section runs the 64-node scenario
//! serially and on N shards and records the speedup. `--check` compares
//! events/sec and allocs/event against a previously emitted JSON and
//! exits non-zero on a regression (>25% throughput drop or >15% alloc
//! growth). The serial baseline fields are measured with threads=1
//! regardless of `--threads`, so the gate is machine-parallelism
//! independent.

// The counting allocator is the one place in the workspace that needs
// `unsafe`: wrapping the system allocator behind `GlobalAlloc` to count
// allocations per delivered event.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dproc::cluster::{ClusterConfig, ClusterSim};
use simcore::{SimDur, SimTime};
use simnet::{FaultPlan, LinkSpec, NodeId};

/// System allocator wrapper counting every allocation (allocator
/// round-trips on the hot path) and the bytes currently live (the scale
/// section's per-node footprint).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Live heap bytes. Wrapping arithmetic on an unsigned counter: the sum
/// of sizes allocated minus sizes freed is never negative.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measured run of the 16-node scenario.
struct Measurement {
    nodes: usize,
    sim_secs: u64,
    wall_ms: f64,
    events: u64,
    events_per_sec: f64,
    ns_per_poll_tick: f64,
    allocs_per_event: f64,
    /// Filter evaluations that had to bypass the shared memo
    /// (`MemoClass::Bypass`, i.e. impure filters). The standard bench
    /// scenario deploys only parameter rules, so this must stay 0 — any
    /// other value means the memo gate regressed.
    memo_bypassed: u64,
}

fn measure(nodes: usize, warmup_s: u64, measure_s: u64) -> Measurement {
    measure_threaded(nodes, warmup_s, measure_s, 1, false).0
}

/// Measure `nodes` on `threads` worker shards; returns the measurement
/// and the shard count actually used. The speedup section passes
/// `tiny_stagger` for both the serial and the parallel run: a 1 µs poll
/// stagger lets polls share conservative windows (the 1 ms default models
/// boot skew but serializes the window schedule), and using it on both
/// sides keeps the comparison apples-to-apples.
fn measure_threaded(
    nodes: usize,
    warmup_s: u64,
    measure_s: u64,
    threads: usize,
    tiny_stagger: bool,
) -> (Measurement, usize) {
    let mut cfg = ClusterConfig::new(nodes);
    if tiny_stagger {
        cfg = cfg.stagger(SimDur::from_micros(1));
    }
    let mut sim = ClusterSim::new(cfg);
    sim.set_threads(threads);
    sim.start();
    sim.run_until(SimTime::from_secs(warmup_s));

    let events_before = sim.world().mon_delivered;
    let polls_before: u64 = sim.world().dmon_total(|s| s.iterations);
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    sim.run_for(SimDur::from_secs(measure_s));
    let wall = start.elapsed();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;

    let events = sim.world().mon_delivered - events_before;
    let memo_bypassed: u64 = sim.world().dmon_total(|s| s.memo_bypassed);
    let polls: u64 = sim.world().dmon_total(|s| s.iterations) - polls_before;
    let wall_s = wall.as_secs_f64().max(1e-9);
    let shards = sim.shards();
    (
        Measurement {
            nodes,
            sim_secs: measure_s,
            wall_ms: wall_s * 1e3,
            events,
            events_per_sec: events as f64 / wall_s,
            ns_per_poll_tick: wall.as_nanos() as f64 / polls.max(1) as f64,
            allocs_per_event: allocs as f64 / events.max(1) as f64,
            memo_bypassed,
        },
        shards,
    )
}

/// Counters from the scripted overload scenario: a 3-node mesh with
/// megabyte events and a fan-out-tight link queue, one node's links
/// degraded to 10% capacity for 40 simulated seconds, then healed. The
/// counters are pure discrete-event-sim outputs — bit-deterministic on
/// any machine — so `--check` compares them exactly: a change means the
/// backpressure/ladder policy changed, not that the machine was noisy.
struct Overload {
    link_drops: u64,
    events_shed: u64,
    ladder_transitions: u64,
}

fn measure_overload() -> Overload {
    let mut cfg = ClusterConfig::new(3)
        .poll_period(SimDur::from_secs(1))
        .failure_bounds(SimDur::from_secs(3), SimDur::from_secs(8))
        .event_pad(1_500_000);
    cfg.link = LinkSpec::fast_ethernet().with_queue(2, 64 * 1024 * 1024);
    let mut sim = ClusterSim::new(cfg);
    sim.set_threads(1);
    sim.start();
    sim.apply_fault_plan(
        &FaultPlan::new(0x0BAD_10AD)
            .degrade_at(SimTime::from_secs(5), NodeId(2), 0.9)
            .heal_link_at(SimTime::from_secs(45), NodeId(2)),
    );
    sim.run_until(SimTime::from_secs(60));
    let w = sim.world();
    Overload {
        link_drops: w.net.link_drops(),
        events_shed: w.dmon_total(|s| s.events_shed),
        ladder_transitions: w.dmon_total(|s| s.ladder_transitions),
    }
}

impl Overload {
    fn json_fields(&self) -> String {
        format!(
            "  \"link_drops\": {},\n  \"events_shed\": {},\n  \"ladder_transitions\": {}",
            self.link_drops, self.events_shed, self.ladder_transitions,
        )
    }
}

/// Certified filter sources for the compilation section: one whose
/// effect certificate proves it subscriber-independent (`Shared` memo
/// class) and one pure passthrough (`SnapshotKeyed`). Both must be
/// accepted by the register compiler — an interpreter fallback here is
/// a compile-coverage regression, not noise.
const SHARED_FILTER: &str = "{ if (input[LOADAVG].value > 0.25) { output[0] = input[LOADAVG]; } }";
const SNAPSHOT_FILTER: &str = "{ output[0] = input[FREEMEM]; }";

/// Counters from a scripted filter-deployment scenario: an 8-node mesh
/// where every stream gets one of two certified E-code filters, so all
/// 56 admissions must hit the register compiler. The counters are pure
/// discrete-event-sim outputs — `--check` compares the compile/fallback
/// split exactly: a nonzero fallback count means the compiler stopped
/// covering a certified shape and the hot path silently fell back to
/// the interpreter.
struct FilterWorkload {
    filters_compiled: u64,
    interp_fallbacks: u64,
    filter_events: u64,
}

fn measure_filter_workload() -> FilterWorkload {
    let mut sim = ClusterSim::new(ClusterConfig::new(8).poll_period(SimDur::from_secs(1)));
    sim.set_threads(1);
    sim.start();
    sim.run_until(SimTime::from_secs(2));
    let calib = sim.world().calib.clone();
    {
        let w = sim.world_mut();
        let n = w.len();
        for p in 0..n {
            for s in 0..n {
                if p != s {
                    let source = if (p + s) % 2 == 0 {
                        SHARED_FILTER
                    } else {
                        SNAPSHOT_FILTER
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
        }
    }
    let before = sim.world().mon_delivered;
    sim.run_until(SimTime::from_secs(32));
    let w = sim.world();
    FilterWorkload {
        filters_compiled: w.dmon_total(|s| s.filters_compiled),
        interp_fallbacks: w.dmon_total(|s| s.interp_fallbacks),
        filter_events: w.mon_delivered - before,
    }
}

impl FilterWorkload {
    fn json_fields(&self) -> String {
        format!(
            "  \"filters_compiled\": {},\n  \"interp_fallbacks\": {},\n  \"filter_events\": {}",
            self.filters_compiled, self.interp_fallbacks, self.filter_events,
        )
    }
}

/// Counters from the scripted hierarchical-digest scenario: 12 nodes in
/// three racks of four, so each rack's aggregator folds its members into
/// a per-rack digest and publishes it to the other aggregators over the
/// spine. Every field is a pure discrete-event-sim output — `--check`
/// compares the digest counters exactly: a drift means the aggregation
/// tier's cadence or payload shape changed, and any spine drop at steady
/// state means the digest tier stopped fitting its links.
struct HierDigest {
    digests_sent: u64,
    digests_received: u64,
    digest_records: u64,
    spine_drops: u64,
    staleness_p50_s: f64,
    staleness_p95_s: f64,
}

fn measure_hier_digest() -> HierDigest {
    let cfg = ClusterConfig::new(12)
        .racks(4)
        .poll_period(SimDur::from_secs(1));
    let mut sim = ClusterSim::new(cfg);
    sim.set_threads(1);
    sim.start();
    sim.run_until(SimTime::from_secs(30));
    let w = sim.world();
    let mut staleness = simcore::stats::Sampler::new();
    for d in &w.dmons {
        for &s in d.stats.digest_staleness_s.values() {
            staleness.add(s);
        }
    }
    HierDigest {
        digests_sent: w.dmon_total(|s| s.digests_sent),
        digests_received: w.dmon_total(|s| s.digests_received),
        digest_records: w.dmon_total(|s| s.digest_records),
        spine_drops: w.net.spine_drops(),
        staleness_p50_s: staleness.percentile(50.0),
        staleness_p95_s: staleness.percentile(95.0),
    }
}

impl HierDigest {
    fn json_fields(&self) -> String {
        format!(
            "  \"hier_digests_sent\": {},\n  \"hier_digests_received\": {},\n  \"hier_digest_records\": {},\n  \"hier_spine_drops\": {},\n  \"hier_staleness_p50_s\": {:.6},\n  \"hier_staleness_p95_s\": {:.6}",
            self.digests_sent,
            self.digests_received,
            self.digest_records,
            self.spine_drops,
            self.staleness_p50_s,
            self.staleness_p95_s,
        )
    }
}

/// The large hierarchical scenario: the full run drives 4096 nodes in 64
/// racks of 64 through the whole pipeline; `--quick` drops to 1024 nodes
/// in 32 racks (the CI scale smoke). Rack-scoped channels keep per-node
/// fan-out at rack size, so the event volume grows linearly with the
/// cluster — the run both proves the topology completes at scale and
/// checks the two structural invariants that make the hierarchy honest:
/// zero spine drops at steady state, and every link's lifetime throughput
/// below its configured rate.
struct ScaleRun {
    nodes: usize,
    racks: usize,
    sim_secs: u64,
    wall_ms: f64,
    events: u64,
    digests_received: u64,
    spine_drops: u64,
    staleness_p50_s: f64,
    staleness_p95_s: f64,
    staleness_max_s: f64,
    max_link_mbps: f64,
    /// Peak per-link utilization (lifetime payload bits over elapsed sim
    /// time, against the link's configured rate). Must stay ≤ 1.
    max_link_util: f64,
    /// Live heap the cluster holds at the end of the run, per node — an
    /// exact allocator count. Per-node state is O(rack), so this must not
    /// grow with the node count at a fixed rack size.
    heap_kb_per_node: f64,
}

/// Ceiling on [`ScaleRun::heap_kb_per_node`] per rack member: 200 KB per
/// node at 32 per rack. Measured 3.5 KB per member at 1024 nodes / 32 per
/// rack and at 4096 / 64 alike; cluster-sized per-peer tables cost 11.7
/// at 1024 / 32 and grow with the node count.
const SCALE_HEAP_KB_PER_RACK_MEMBER_MAX: f64 = 6.25;

fn measure_scale(nodes: usize, rack_size: usize, sim_secs: u64) -> ScaleRun {
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let cfg = ClusterConfig::new(nodes).racks(rack_size);
    let mut sim = ClusterSim::new(cfg);
    sim.set_threads(1);
    sim.start();
    let start = Instant::now();
    sim.run_until(SimTime::from_secs(sim_secs));
    let wall = start.elapsed();
    let live = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    let w = sim.world();
    let elapsed_s = sim_secs as f64;
    let mut max_bps = 0.0f64;
    let mut max_util = 0.0f64;
    let mut track = |bytes: u64, rate_bps: f64| {
        let bps = bytes as f64 * 8.0 / elapsed_s;
        max_bps = max_bps.max(bps);
        max_util = max_util.max(bps / rate_bps);
    };
    for i in 0..nodes {
        let id = NodeId(i);
        track(w.net.uplink(id).bytes(), w.net.uplink(id).effective_bps());
        track(
            w.net.downlink(id).bytes(),
            w.net.downlink(id).effective_bps(),
        );
    }
    for r in 0..w.net.n_racks() {
        let up = w.net.switch_uplink(r);
        let down = w.net.switch_downlink(r);
        track(up.bytes(), up.effective_bps());
        track(down.bytes(), down.effective_bps());
    }
    let mut staleness = simcore::stats::Sampler::new();
    for d in &w.dmons {
        for &s in d.stats.digest_staleness_s.values() {
            staleness.add(s);
        }
    }
    ScaleRun {
        nodes,
        racks: w.net.n_racks(),
        sim_secs,
        wall_ms: wall.as_secs_f64() * 1e3,
        events: w.mon_delivered,
        digests_received: w.dmon_total(|s| s.digests_received),
        spine_drops: w.net.spine_drops(),
        staleness_p50_s: staleness.percentile(50.0),
        staleness_p95_s: staleness.percentile(95.0),
        staleness_max_s: staleness.max(),
        max_link_mbps: max_bps / 1e6,
        max_link_util: max_util,
        heap_kb_per_node: live as f64 / 1024.0 / nodes as f64,
    }
}

impl ScaleRun {
    fn json_fields(&self) -> String {
        format!(
            "  \"scale_nodes\": {},\n  \"scale_racks\": {},\n  \"scale_sim_secs\": {},\n  \"scale_wall_ms\": {:.3},\n  \"scale_events\": {},\n  \"scale_digests_received\": {},\n  \"scale_spine_drops\": {},\n  \"scale_staleness_p50_s\": {:.6},\n  \"scale_staleness_p95_s\": {:.6},\n  \"scale_staleness_max_s\": {:.6},\n  \"scale_max_link_mbps\": {:.3},\n  \"scale_max_link_util\": {:.6},\n  \"scale_heap_kb_per_node\": {:.1}",
            self.nodes,
            self.racks,
            self.sim_secs,
            self.wall_ms,
            self.events,
            self.digests_received,
            self.spine_drops,
            self.staleness_p50_s,
            self.staleness_p95_s,
            self.staleness_max_s,
            self.max_link_mbps,
            self.max_link_util,
            self.heap_kb_per_node,
        )
    }
}

/// Serial-vs-sharded wall clock on one scenario size.
struct Speedup {
    nodes: usize,
    shards: usize,
    serial_wall_ms: f64,
    parallel_wall_ms: f64,
    speedup: f64,
}

fn measure_speedup(nodes: usize, warmup_s: u64, measure_s: u64, threads: usize) -> Speedup {
    let (serial, _) = measure_threaded(nodes, warmup_s, measure_s, 1, true);
    let (parallel, shards) = measure_threaded(nodes, warmup_s, measure_s, threads, true);
    Speedup {
        nodes,
        shards,
        serial_wall_ms: serial.wall_ms,
        parallel_wall_ms: parallel.wall_ms,
        speedup: serial.wall_ms / parallel.wall_ms.max(1e-9),
    }
}

impl Measurement {
    fn json_fields(&self) -> String {
        format!(
            "  \"scenario\": \"scalability{}\",\n  \"sim_secs\": {},\n  \"wall_ms\": {:.3},\n  \"events\": {},\n  \"events_per_sec\": {:.1},\n  \"ns_per_poll_tick\": {:.1},\n  \"allocs_per_event\": {:.2},\n  \"memo_bypassed\": {}",
            self.nodes,
            self.sim_secs,
            self.wall_ms,
            self.events,
            self.events_per_sec,
            self.ns_per_poll_tick,
            self.allocs_per_event,
            self.memo_bypassed,
        )
    }
}

impl Speedup {
    fn json_fields(&self) -> String {
        let n = self.nodes;
        format!(
            "  \"par{n}_serial_wall_ms\": {:.3},\n  \"par{n}_parallel_wall_ms\": {:.3},\n  \"par{n}_speedup\": {:.2}",
            self.serial_wall_ms, self.parallel_wall_ms, self.speedup,
        )
    }
}

/// Pull a numeric field out of a previously emitted `BENCH_pipeline.json`
/// (flat object, one `"key": value` pair per line — no JSON dependency).
fn json_field(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    for line in text.lines() {
        if let Some(rest) = line.trim().strip_prefix(&needle) {
            let v = rest.trim_start_matches(':').trim().trim_end_matches(',');
            if let Ok(v) = v.parse::<f64>() {
                return Some(v);
            }
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let arg_val = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_val("--out").unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let baseline = arg_val("--check");
    let threads = arg_val("--threads")
        .map(|v| v.parse::<usize>().expect("--threads takes a number"))
        .unwrap_or_else(|| simcore::parallel::suggested_threads(8));

    let (warmup_s, measure_s) = if quick { (3, 10) } else { (5, 30) };
    let m = measure(16, warmup_s, measure_s);

    // The sharded-parallel section: serial vs `threads` shards on the
    // bigger scenarios (64 nodes always; 256 in full mode only).
    let (par_warm, par_secs) = if quick { (1, 4) } else { (2, 10) };
    let mut speedups = vec![measure_speedup(64, par_warm, par_secs, threads)];
    if !quick {
        speedups.push(measure_speedup(256, 1, 3, threads));
    }
    for s in &speedups {
        eprintln!(
            "bench_pipeline: scalability{}: serial {:.0} ms, {} shards {:.0} ms -> {:.2}x",
            s.nodes, s.serial_wall_ms, s.shards, s.parallel_wall_ms, s.speedup
        );
    }

    // The overload section: deterministic robustness counters from a
    // scripted congestion scenario, so the perf trajectory also tracks
    // the backpressure policy.
    let overload = measure_overload();
    eprintln!(
        "bench_pipeline: overload: {} link drops, {} shed, {} ladder transitions",
        overload.link_drops, overload.events_shed, overload.ladder_transitions
    );

    // The filter-compilation section: every admission in the scripted
    // filter mesh must land on the register compiler; the compiled vs
    // interpreter-fallback split travels with the perf numbers.
    let fw = measure_filter_workload();
    eprintln!(
        "bench_pipeline: filters: {} compiled, {} interpreter fallbacks, {} events",
        fw.filters_compiled, fw.interp_fallbacks, fw.filter_events
    );

    // The hierarchical-digest section: deterministic aggregation-tier
    // counters from a scripted 3-rack scenario.
    let hier = measure_hier_digest();
    eprintln!(
        "bench_pipeline: hier: {} digests sent, {} received, {} records, {} spine drops",
        hier.digests_sent, hier.digests_received, hier.digest_records, hier.spine_drops
    );

    // The scale section: the full hierarchical cluster end to end — 4096
    // nodes (1024 in quick mode, the CI scale smoke).
    let (scale_nodes, rack_size, scale_secs) = if quick { (1024, 32, 6) } else { (4096, 64, 8) };
    let scale = measure_scale(scale_nodes, rack_size, scale_secs);
    eprintln!(
        "bench_pipeline: scale: {} nodes / {} racks, {} sim-s in {:.0} ms, {} events, {} digests, staleness p95 {:.3} s, max link util {:.3}, heap {:.0} KB/node",
        scale.nodes,
        scale.racks,
        scale.sim_secs,
        scale.wall_ms,
        scale.events,
        scale.digests_received,
        scale.staleness_p95_s,
        scale.max_link_util,
        scale.heap_kb_per_node,
    );

    // Record the replay-safety lint state alongside the perf numbers:
    // how many findings the workspace scan produced (fresh + baselined).
    // The committed tree keeps this at 0; the count travels with every
    // bench artifact so a perf trajectory is also a lint trajectory.
    let detlint = detlint_summary();

    let mut sections = vec![m.json_fields()];
    sections.push(format!(
        "  \"threads\": {},\n  \"shards\": {}",
        threads, speedups[0].shards
    ));
    if let Some((fresh_errors, total)) = detlint {
        sections.push(format!("  \"detlint_findings\": {total}"));
        if fresh_errors > 0 {
            eprintln!("bench_pipeline: WARNING {fresh_errors} unbaselined detlint error(s)");
        }
    }
    sections.push(overload.json_fields());
    sections.push(fw.json_fields());
    sections.push(hier.json_fields());
    sections.push(scale.json_fields());
    sections.extend(speedups.iter().map(Speedup::json_fields));
    let json = format!("{{\n{}\n}}\n", sections.join(",\n"));
    print!("{json}");
    std::fs::write(&out_path, &json).expect("write BENCH_pipeline.json");
    eprintln!(
        "bench_pipeline: {} sim-s of 16 nodes in {:.0} ms -> {} written",
        m.sim_secs, m.wall_ms, out_path
    );

    if let Some(base_path) = baseline {
        let base = std::fs::read_to_string(&base_path)
            .unwrap_or_else(|e| panic!("read baseline {base_path}: {e}"));
        let base_eps = json_field(&base, "events_per_sec").expect("baseline events_per_sec");
        // Allow a wide band: CI machines vary, but a >25% drop against the
        // checked-in baseline flags a hot-path regression. A slow first
        // sample alone is not a verdict — cold caches and frequency
        // scaling produce 2x outliers — so a regression must survive two
        // re-measurements (best-of-3) before it fails the job.
        let mut best = m.events_per_sec;
        for _ in 0..2 {
            if best / base_eps >= 0.75 {
                break;
            }
            let retry = measure(16, warmup_s, measure_s);
            eprintln!(
                "bench_pipeline: retry measured {:.0} events/sec",
                retry.events_per_sec
            );
            best = best.max(retry.events_per_sec);
        }
        let ratio = best / base_eps;
        eprintln!(
            "bench_pipeline: events/sec {:.0} vs baseline {:.0} ({:.2}x)",
            best, base_eps, ratio
        );
        if ratio < 0.75 {
            eprintln!("bench_pipeline: REGRESSION beyond 25% budget");
            std::process::exit(1);
        }
        // Allocations per delivered event are deterministic (no noise
        // band needed beyond rounding): more than 15% growth means a new
        // allocation crept onto the hot path.
        if let Some(base_allocs) = json_field(&base, "allocs_per_event") {
            eprintln!(
                "bench_pipeline: allocs/event {:.2} vs baseline {:.2}",
                m.allocs_per_event, base_allocs
            );
            if m.allocs_per_event > base_allocs * 1.15 {
                eprintln!("bench_pipeline: ALLOCATION REGRESSION beyond 15% budget");
                std::process::exit(1);
            }
        }
        // The bench scenario deploys only parameter rules — no E-code
        // filters — so memo bypasses are fully deterministic (0 today).
        // An exact mismatch against the baseline means the memo gate is
        // misclassifying filters, not that the machine is noisy.
        if let Some(base_bypass) = json_field(&base, "memo_bypassed") {
            eprintln!(
                "bench_pipeline: memo_bypassed {} vs baseline {:.0}",
                m.memo_bypassed, base_bypass
            );
            #[allow(clippy::float_cmp)] // integer-valued counters, exact by design
            if m.memo_bypassed as f64 != base_bypass {
                eprintln!("bench_pipeline: MEMO GATE REGRESSION (bypass count changed)");
                std::process::exit(1);
            }
        }
        // Overload counters are bit-deterministic sim outputs — exact
        // comparison, no noise band. A mismatch means the backpressure
        // or ladder policy changed without the baseline being
        // regenerated alongside it.
        for (key, got) in [
            ("link_drops", overload.link_drops),
            ("events_shed", overload.events_shed),
            ("ladder_transitions", overload.ladder_transitions),
        ] {
            if let Some(base_v) = json_field(&base, key) {
                eprintln!("bench_pipeline: {key} {got} vs baseline {base_v:.0}");
                #[allow(clippy::float_cmp)] // integer-valued counters, exact by design
                if got as f64 != base_v {
                    eprintln!("bench_pipeline: OVERLOAD POLICY DRIFT ({key} changed)");
                    std::process::exit(1);
                }
            }
        }
        // The compile/fallback split is exact: every certified filter in
        // the scripted mesh must compile, and the fallback count must
        // match the baseline (0) — a drift means the register compiler
        // lost coverage of a certified shape.
        for (key, got) in [
            ("filters_compiled", fw.filters_compiled),
            ("interp_fallbacks", fw.interp_fallbacks),
        ] {
            if let Some(base_v) = json_field(&base, key) {
                eprintln!("bench_pipeline: {key} {got} vs baseline {base_v:.0}");
                #[allow(clippy::float_cmp)] // integer-valued counters, exact by design
                if got as f64 != base_v {
                    eprintln!("bench_pipeline: FILTER COMPILE DRIFT ({key} changed)");
                    std::process::exit(1);
                }
            }
        }
        // The aggregation tier's cadence and payload shape are exact:
        // digest counts and folded record counts are bit-deterministic
        // sim outputs, so any drift against the baseline means the
        // hierarchy changed behavior without the baseline moving with it.
        for (key, got) in [
            ("hier_digests_sent", hier.digests_sent),
            ("hier_digests_received", hier.digests_received),
            ("hier_digest_records", hier.digest_records),
        ] {
            if let Some(base_v) = json_field(&base, key) {
                eprintln!("bench_pipeline: {key} {got} vs baseline {base_v:.0}");
                #[allow(clippy::float_cmp)] // integer-valued counters, exact by design
                if got as f64 != base_v {
                    eprintln!("bench_pipeline: DIGEST DRIFT ({key} changed)");
                    std::process::exit(1);
                }
            }
        }
        // Structural invariants of the hierarchy, independent of any
        // baseline: the digest tier must fit its spine links (no drops at
        // steady state, in either scripted scenario or the scale run),
        // and no link may carry more than its configured rate.
        if hier.spine_drops != 0 || scale.spine_drops != 0 {
            eprintln!(
                "bench_pipeline: SPINE DROPS at steady state (hier {}, scale {})",
                hier.spine_drops, scale.spine_drops
            );
            std::process::exit(1);
        }
        if scale.max_link_util > 1.0 {
            eprintln!(
                "bench_pipeline: LINK OVERCOMMIT (peak utilization {:.3} > 1)",
                scale.max_link_util
            );
            std::process::exit(1);
        }
        if scale.digests_received == 0 {
            eprintln!("bench_pipeline: SCALE RUN VACUOUS (no digests delivered)");
            std::process::exit(1);
        }
        let heap_max = SCALE_HEAP_KB_PER_RACK_MEMBER_MAX * rack_size as f64;
        if scale.heap_kb_per_node > heap_max {
            eprintln!(
                "bench_pipeline: PER-NODE HEAP {:.0} KB over {heap_max:.0} KB (state growing with the cluster?)",
                scale.heap_kb_per_node
            );
            std::process::exit(1);
        }
        // Same for the lint state: new unbaselined errors fail the run.
        if let Some((fresh_errors, _)) = detlint {
            if fresh_errors > 0 {
                eprintln!("bench_pipeline: DETLINT ERRORS present");
                std::process::exit(1);
            }
        }
    }
}

/// Run the workspace replay-safety scan (same engine as
/// `cargo run -p detlint -- --check`). Returns `(fresh_errors, total
/// findings incl. baselined)`, or `None` when no workspace root is
/// reachable from the current directory (e.g. an installed binary).
fn detlint_summary() -> Option<(u64, u64)> {
    let mut root = std::env::current_dir().ok()?;
    loop {
        if std::fs::read_to_string(root.join("Cargo.toml"))
            .map(|t| t.contains("[workspace]"))
            .unwrap_or(false)
        {
            break;
        }
        if !root.pop() {
            return None;
        }
    }
    let baseline_text = std::fs::read_to_string(root.join("detlint.baseline")).unwrap_or_default();
    let baseline = detlint::Baseline::parse(&baseline_text);
    let report = detlint::run_scan(&root, &baseline).ok()?;
    Some((
        report.fresh_errors() as u64,
        (report.fresh.len() + report.baselined.len()) as u64,
    ))
}
