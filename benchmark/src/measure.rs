//! One workload, measured: set-up, the window of fixed slices, counters
//! read from the program's `pub` stats around it, the end-to-end metrics
//! derived from them, and the correctness checks.

use std::time::{Duration, Instant};

use dproc::cluster::{ClusterSim, ClusterWorld};
use kecho::OUTBOX_CAP;
use simcore::stats::Sampler;
use simcore::SimTime;
use simnet::NodeId;
use smartpointer::ClientStats;

use crate::alloc::{self, Heap};
use crate::clock::{timed, Timed};
use crate::pipeline::{Driver, Engine};
use crate::scenario::{Action, Kind, Scenario, Workload, OVERLOAD_QUEUE_MSGS};
use crate::util::{mean, median, percentile, Fnv, LogHist};

/// Slices run before anything is measured, so lazy buffers and pools fill.
pub const WARMUP_SLICES: u32 = 2;

/// The measured window: every count, simulated-time metric and heap metric
/// is taken over exactly the first `WINDOW_SLICES` slices after warm-up, so
/// they repeat exactly whatever the host's speed. Host timings use these
/// and every further slice that fits the time budget.
pub const WINDOW_SLICES: u32 = 20;

/// How long to measure.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Exactly this many slices.
    Slices(u32),
    /// At least `min` slices, then whole slices until the host time is used.
    Seconds { secs: f64, min: u32 },
}

impl Budget {
    fn done(&self, slices: u32, elapsed: Duration) -> bool {
        match *self {
            Budget::Slices(n) => slices >= n,
            Budget::Seconds { secs, min } => slices >= min && elapsed.as_secs_f64() >= secs,
        }
    }
}

/// One correctness check's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// What the benchmark harvests from the program's public samplers at the
/// end of every slice, the way a long-running consumer would: the samples
/// go into fixed-size summaries and the samplers start over. The program's
/// heap therefore holds state, not an ever-growing sample log, and the heap
/// metrics do not jump when a `Vec` of samples happens to double.
pub struct Harvest {
    /// Publisher submit → subscriber delivery (`ClusterWorld::mon_latency_us`).
    pub latency_us: LogHist,
    pub staleness_s: LogHist,
    submit_us: (f64, u64),
    receive_us: (f64, u64),
    /// Running digest of every harvested sample, in harvest order.
    samples: Fnv,
}

impl Harvest {
    pub fn new() -> Self {
        Harvest {
            latency_us: LogHist::new(),
            staleness_s: LogHist::new(),
            submit_us: (0.0, 0),
            receive_us: (0.0, 0),
            samples: Fnv::new(),
        }
    }

    fn take(&mut self, sampler: &mut Sampler, mut each: impl FnMut(&mut Self, f64)) {
        for &v in sampler.values() {
            self.samples.u64(v.to_bits());
            each(self, v);
        }
        *sampler = Sampler::new();
    }

    pub fn drain(&mut self, w: &mut ClusterWorld) {
        self.take(&mut w.mon_latency_us, |h, v| h.latency_us.add(v));
        for d in &mut w.dmons {
            let st = &mut d.stats;
            self.take(&mut st.submit_cost_us, |h, v| {
                h.submit_us = (h.submit_us.0 + v, h.submit_us.1 + 1);
            });
            self.take(&mut st.receive_cost_us, |h, v| {
                h.receive_us = (h.receive_us.0 + v, h.receive_us.1 + 1);
            });
            self.take(&mut st.digest_staleness_s, |h, v| h.staleness_s.add(v));
        }
    }

    fn mean_submit_us(&self) -> f64 {
        self.submit_us.0 / self.submit_us.1.max(1) as f64
    }

    fn mean_receive_us(&self) -> f64 {
        self.receive_us.0 / self.receive_us.1.max(1) as f64
    }
}

/// Latency samples that trigger a harvest at the next step boundary, so a
/// sampler never holds more than a step's worth beyond this.
const HARVEST_AT: usize = 4096;

/// Apply one slice's script and advance the cluster through it, timed in
/// reference time. The samplers are harvested at the slice's end and, in
/// multi-step slices, whenever `HARVEST_AT` samples have piled up (a few
/// microseconds, left on the clock). Script generation is off the clock.
pub fn run_slice(drv: &mut dyn Driver, sc: &mut Scenario, harvest: &mut Harvest) -> Timed {
    let script: Vec<Vec<Action>> = sc.next_slice();
    let step = sc.wl.step;
    let ((), t) = timed(|| {
        for actions in &script {
            if !actions.is_empty() {
                let now = drv.now();
                sc.apply(drv.cluster(), now, actions);
            }
            drv.advance(step);
            let now = drv.now();
            sc.observe(drv.cluster(), now);
            if drv.cluster().world().mon_latency_us.len() >= HARVEST_AT {
                harvest.drain(drv.cluster().world_mut());
            }
        }
    });
    harvest.drain(drv.cluster().world_mut());
    t
}

/// A copy of every SmartPointer client's stats (none on other workloads).
fn client_stats(sc: &Scenario) -> Vec<ClientStats> {
    sc.app
        .iter()
        .flat_map(|a| (0..a.client_count()).map(|k| a.client_stats(k)))
        .collect()
}

/// Lifetime counters, by per-layer metric name. Window values are deltas
/// of two readings.
fn counters(sim: &mut ClusterSim, app: &[ClientStats]) -> Vec<(&'static str, u64)> {
    let pdes = sim.parallel_stats();
    let executed = match pdes {
        Some(p) => p.executed,
        None => sim.parts().1.executed(),
    };
    let pdes = pdes.unwrap_or_default();
    let w = sim.world();
    let sum = |f: fn(&dproc::DmonStats) -> u64| w.dmons.iter().map(|d| f(&d.stats)).sum::<u64>();
    let fault = w.fault.stats;
    let app_sum = |f: fn(&ClientStats) -> u64| app.iter().map(f).sum::<u64>();
    vec![
        ("simcore.event.executed", executed),
        ("simcore.pdes.windows_parallel", pdes.windows_parallel),
        ("simcore.pdes.windows_serial", pdes.windows_serial),
        ("simcore.pdes.windows_inline", pdes.windows_inline),
        ("simnet.network.deliveries", w.net.deliveries()),
        ("simnet.network.payload_bytes", w.net.payload_bytes()),
        ("simnet.network.link_drops", w.net.link_drops()),
        ("simnet.network.spine_drops", w.net.spine_drops()),
        ("simnet.fault.events_lost", fault.events_lost),
        ("simnet.fault.partition_drops", fault.partition_drops),
        ("simnet.fault.loss_drops", fault.loss_drops),
        ("simnet.fault.crash_drops", fault.crash_drops),
        ("ecode.filters_compiled", sum(|s| s.filters_compiled)),
        ("ecode.interp_fallbacks", sum(|s| s.interp_fallbacks)),
        ("ecode.filters_rejected", sum(|s| s.filters_rejected)),
        ("ecode.filter_errors", sum(|s| s.filter_errors)),
        ("ecode.memo_bypassed", sum(|s| s.memo_bypassed)),
        ("kecho.events_sent", sum(|s| s.events_sent)),
        ("kecho.events_received", sum(|s| s.events_received)),
        ("kecho.bytes_sent", sum(|s| s.bytes_sent)),
        ("kecho.heartbeats_sent", sum(|s| s.heartbeats_sent)),
        ("kecho.heartbeats_received", sum(|s| s.heartbeats_received)),
        ("kecho.gaps_detected", sum(|s| s.gaps_detected)),
        ("kecho.credits_stalled", sum(|s| s.credits_stalled)),
        ("kecho.events_shed", sum(|s| s.events_shed)),
        ("kecho.digests_sent", sum(|s| s.digests_sent)),
        ("kecho.digests_received", sum(|s| s.digests_received)),
        ("kecho.digest_records", sum(|s| s.digest_records)),
        ("dproc.dmon.polls", sum(|s| s.iterations)),
        ("dproc.dmon.modules_skipped", sum(|s| s.modules_skipped)),
        (
            "dproc.dmon.ladder_transitions",
            sum(|s| s.ladder_transitions),
        ),
        ("dproc.dmon.nodes_suspected", sum(|s| s.nodes_suspected)),
        ("dproc.dmon.nodes_evicted", sum(|s| s.nodes_evicted)),
        ("dproc.dmon.resyncs", sum(|s| s.resyncs)),
        ("dproc.dmon.control_handled", sum(|s| s.control_handled)),
        ("dproc.dmon.control_errors", sum(|s| s.control_errors)),
        ("dproc.cluster.mon_delivered", w.mon_delivered),
        ("dproc.cluster.ctl_delivered", w.ctl_delivered),
        ("smartpointer.app.frames_received", app_sum(|c| c.received)),
        (
            "smartpointer.app.frames_processed",
            app_sum(|c| c.processed),
        ),
        ("smartpointer.app.fallbacks", app_sum(|c| c.fallbacks)),
        ("smartpointer.app.dropped", app_sum(|c| c.dropped)),
    ]
}

/// A reading of everything the window's metrics are differences of.
pub struct Snap {
    now: SimTime,
    heap: Heap,
    counters: Vec<(&'static str, u64)>,
    /// Lengths of the clients' append-only logs, so a window is a sub-slice.
    app_lens: Vec<[usize; 2]>,
    recoveries: usize,
    unrecovered: u64,
}

impl Snap {
    pub fn take(sim: &mut ClusterSim, sc: &Scenario) -> Snap {
        // Heap first: the reading itself allocates.
        let heap = alloc::read();
        let app = client_stats(sc);
        Snap {
            now: sim.now(),
            heap,
            counters: counters(sim, &app),
            app_lens: app
                .iter()
                .map(|c| [c.latency_s.len(), c.mode_log.len()])
                .collect(),
            recoveries: sc.recover_s.len(),
            unrecovered: sc.unrecovered,
        }
    }
}

/// Counter deltas over a window, addressable by name.
pub struct Deltas(Vec<(&'static str, u64)>);

impl Deltas {
    pub fn between(start: &Snap, end: &Snap) -> Deltas {
        Deltas(
            start
                .counters
                .iter()
                .zip(&end.counters)
                .map(|(&(name, a), &(_, b))| (name, b - a))
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no counter named {name}"))
            .1
    }

    /// Frames that reached a d-mon handler.
    pub fn delivered(&self) -> u64 {
        self.get("dproc.cluster.mon_delivered")
            + self.get("dproc.cluster.ctl_delivered")
            + self.get("kecho.digests_received")
            + self.get("kecho.heartbeats_received")
    }
}

/// FNV-1a over everything observable about the simulated state: each
/// host's `/proc` tree, every `DmonStats`, the network and fault counters,
/// and (through `harvest`) every latency and cost sample taken so far.
pub fn sim_digest(sim: &ClusterSim, harvest: &Harvest) -> u64 {
    use std::fmt::Write;
    let w = sim.world();
    let mut h = harvest.samples.clone();
    for host in &w.hosts {
        h.bytes(host.proc.render_tree().as_bytes());
    }
    for d in &w.dmons {
        let _ = write!(h, "{:?}", d.stats);
    }
    let _ = write!(
        h,
        "{} {} {} {} {} {:?} {:?}",
        w.mon_delivered,
        w.ctl_delivered,
        w.net.deliveries(),
        w.net.payload_bytes(),
        w.net.link_drops(),
        w.net.queue_hwm(),
        w.fault.stats
    );
    h.finish()
}

/// Highest lifetime utilisation over every link direction (payload bits
/// over elapsed simulated time, against the link's configured rate).
fn max_link_util(sim: &ClusterSim) -> f64 {
    let w = sim.world();
    let elapsed = sim.now().as_secs_f64().max(1e-9);
    let util = |l: &simnet::DirLink| l.bytes() as f64 * 8.0 / elapsed / l.effective_bps();
    let mut max = 0.0f64;
    for i in 0..w.len() {
        max = max
            .max(util(w.net.uplink(NodeId(i))))
            .max(util(w.net.downlink(NodeId(i))));
    }
    if w.net.is_hierarchical() {
        for r in 0..w.net.n_racks() {
            max = max
                .max(util(w.net.switch_uplink(r)))
                .max(util(w.net.switch_downlink(r)));
        }
    }
    max
}

/// What one measured workload produced.
pub struct Measured {
    /// Set-up times, seconds of reference time.
    pub setup_s: Vec<f64>,
    /// Every slice run: host time as measured and in reference time.
    pub slices: Vec<Timed>,
    /// Slices in the counted window.
    pub window_slices: u32,
    pub e2e: Vec<(&'static str, f64)>,
    pub layer: Vec<(&'static str, f64)>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub sim_digest: u64,
    /// Engine frames and polls in the window (pipeline alignment).
    pub delivered: u64,
    pub sent: u64,
    pub polls: u64,
    /// Reference-time nanoseconds of the window's slices.
    pub window_ns: f64,
}

/// Build, start and warm up one engine instance.
fn set_up(wl: &'static Workload, seed: u64, threads: usize) -> (Engine, Scenario, Harvest) {
    let (mut sim, mut sc) = Scenario::build(wl, seed, threads);
    sim.start();
    let mut eng = Engine(sim);
    let mut harvest = Harvest::new();
    for _ in 0..WARMUP_SLICES {
        run_slice(&mut eng, &mut sc, &mut harvest);
    }
    (eng, sc, harvest)
}

/// Run `wl` on the engine: `setup_reps` timed set-ups (the last is kept),
/// then the measured slices. The finished engine is handed back so traced
/// runs can feed probes from its state.
pub fn run_engine(
    wl: &'static Workload,
    seed: u64,
    threads: usize,
    setup_reps: u32,
    budget: Budget,
) -> (Measured, Engine, Scenario) {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..setup_reps {
        drop(kept.take());
        if rep + 1 == setup_reps {
            alloc::reset_peak();
        }
        let (built, t) = timed(|| set_up(wl, seed, threads));
        kept = Some(built);
        setup_s.push(t.ns / 1e9);
    }
    let (mut eng, mut sc, warm) = kept.expect("at least one set-up");
    let mut checks = Vec::new();

    // The warm-up is the two-slice prefix the sharded engine must
    // reproduce: compare it with a serial run of the same prefix.
    if threads > 1 {
        let sharded = sim_digest(&eng.0, &warm);
        let (serial, _, serial_warm) = set_up(wl, seed, 1);
        let serial = sim_digest(&serial.0, &serial_warm);
        checks.push(check(
            "sharded_equals_serial",
            sharded == serial,
            format!("sharded {sharded:016x} serial {serial:016x} after {WARMUP_SLICES} slices"),
        ));
    }
    drop(warm);

    // Only the window's samples count; later slices harvest into `spare`.
    let mut harvest = Harvest::new();
    let mut spare = Harvest::new();
    let start = Snap::take(&mut eng.0, &sc);
    let mut end = None;
    let mut slices: Vec<Timed> = Vec::new();
    let mut pending = Vec::new();
    let mut digest = 0;
    let mut violations = Vec::new();
    let t0 = Instant::now();
    while !budget.done(slices.len() as u32, t0.elapsed()) {
        let into = if end.is_none() {
            &mut harvest
        } else {
            &mut spare
        };
        slices.push(run_slice(&mut eng, &mut sc, into));
        if end.is_some() {
            continue;
        }
        if threads == 1 {
            pending.push(eng.0.parts().1.pending() as f64);
        }
        if wl.kind == Kind::Overload {
            violations.extend(overload_violations(&eng.0, slices.len()));
        }
        let n = slices.len() as u32;
        if n == WINDOW_SLICES || budget.done(n, t0.elapsed()) {
            end = Some(Snap::take(&mut eng.0, &sc));
            digest = sim_digest(&eng.0, &harvest);
        }
    }
    let end = end.expect("at least one slice");
    if wl.kind == Kind::Overload {
        checks.push(check(
            "chaos_bounds",
            violations.is_empty(),
            violations.first().cloned().unwrap_or_else(|| {
                "queue, outbox and gap bounds hold at every slice end".to_string()
            }),
        ));
    }
    let run = Run {
        start,
        end,
        harvest,
        pending,
        setup_s,
        slices,
        checks,
        sim_digest: digest,
    };
    (derive(wl, &eng, &sc, run), eng, sc)
}

/// Everything `run_engine` observed, before it is turned into metrics.
struct Run {
    start: Snap,
    end: Snap,
    harvest: Harvest,
    /// Scheduler depth at each window slice's end (serial engine only).
    pending: Vec<f64>,
    setup_s: Vec<f64>,
    slices: Vec<Timed>,
    checks: Vec<Check>,
    sim_digest: u64,
}

/// Turn two snapshots, the harvest and the slice timings into metrics and
/// checks.
fn derive(wl: &'static Workload, eng: &Engine, sc: &Scenario, run: Run) -> Measured {
    let Run {
        start,
        end,
        harvest,
        pending,
        setup_s,
        slices,
        mut checks,
        sim_digest,
    } = run;
    let window_slices = (slices.len() as u32).min(WINDOW_SLICES);
    let d = Deltas::between(&start, &end);
    let sim_s = end.now.since(start.now).as_secs_f64();
    let w = eng.0.world();

    // ---- the application's own logs, window part only ----
    let mut frame_latency = Vec::new();
    let mut mode_switches = 0u64;
    let mut idle_clients = 0;
    for ((c, a), b) in client_stats(sc)
        .iter()
        .zip(&start.app_lens)
        .zip(&end.app_lens)
    {
        frame_latency.extend_from_slice(&c.latency_s.values()[a[0]..b[0]]);
        let modes = &c.mode_log[a[1]..b[1]];
        mode_switches += modes.windows(2).filter(|p| p[0].1 != p[1].1).count() as u64;
        idle_clients += usize::from(a[0] == b[0]);
    }
    let recoveries = &sc.recover_s[start.recoveries..end.recoveries];
    let unrecovered = end.unrecovered - start.unrecovered;

    // ---- host time, in reference time ----
    let slice_ns: Vec<f64> = slices.iter().map(|t| t.ns).collect();
    let window_ns: f64 = slice_ns[..window_slices as usize].iter().sum();
    let slice_raw_ms: Vec<f64> = slices.iter().map(|t| t.raw.as_secs_f64() * 1e3).collect();
    let speeds: Vec<f64> = slices.iter().map(|t| t.speed).collect();

    // ---- end-to-end ----
    let delivered = d.delivered();
    let shed = d.get("kecho.events_shed");
    let sent = d.get("simnet.network.deliveries");
    let attempted = sent + shed;
    let unwanted = d.get("simnet.network.link_drops")
        + d.get("simnet.fault.events_lost")
        + shed
        + d.get("ecode.filter_errors")
        + d.get("dproc.dmon.control_errors")
        + d.get("smartpointer.app.dropped");
    let allocs = end.heap.calls - start.heap.calls;
    let slice_sim_s = wl.slice().as_secs_f64();
    let overhead = harvest.mean_submit_us() + harvest.mean_receive_us();
    let e2e = vec![
        ("setup_s", median(&setup_s)),
        ("sim_s_per_host_s", slice_sim_s / (median(&slice_ns) / 1e9)),
        ("peak_heap_mb", end.heap.peak as f64 / 1e6),
        (
            "heap_end_over_start",
            end.heap.live as f64 / start.heap.live as f64,
        ),
        (
            "allocs_per_delivered",
            allocs as f64 / delivered.max(1) as f64,
        ),
        (
            "mon_latency_sim_us_p50",
            harvest.latency_us.percentile(50.0),
        ),
        (
            "mon_latency_sim_us_p99",
            harvest.latency_us.percentile(99.0),
        ),
        ("overhead_sim_us_per_poll", overhead),
        (
            "wire_bytes_per_sim_s",
            d.get("simnet.network.payload_bytes") as f64 / sim_s,
        ),
        (
            "delivered_share",
            1.0 - unwanted as f64 / attempted.max(1) as f64,
        ),
    ];

    // ---- per-layer: counters, then what is derived from them ----
    let mut layer: Vec<(&'static str, f64)> = d.0.iter().map(|&(n, v)| (n, v as f64)).collect();
    let executed = d.get("simcore.event.executed");
    let polls = d.get("dproc.dmon.polls");
    let windows = d.get("simcore.pdes.windows_parallel") + d.get("simcore.pdes.windows_serial");
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    layer.extend([
        (
            "simcore.event.executed_per_delivered",
            per(executed as f64, delivered),
        ),
        ("simcore.event.pending_p50", median(&pending)),
        (
            "simcore.pdes.events_per_window",
            per(executed as f64, windows),
        ),
        ("simnet.network.queue_hwm_msgs", w.net.queue_hwm().0 as f64),
        ("simnet.network.max_link_util", max_link_util(&eng.0)),
        (
            "simos.procfs.entries",
            w.hosts
                .iter()
                .map(|h| h.proc.render_tree().lines().count())
                .sum::<usize>() as f64,
        ),
        (
            "dproc.dmon.submit_sim_us_per_poll",
            harvest.mean_submit_us(),
        ),
        (
            "dproc.dmon.receive_sim_us_per_poll",
            harvest.mean_receive_us(),
        ),
        (
            "dproc.dmon.digest_staleness_sim_s_p95",
            harvest.staleness_s.percentile(95.0),
        ),
        ("dproc.dmon.recover_sim_s", mean(recoveries)),
        ("dproc.dmon.unrecovered_cycles", unrecovered as f64),
        (
            "dproc.cluster.host_ns_per_delivered",
            per(window_ns, delivered),
        ),
        ("dproc.cluster.host_ns_per_poll", per(window_ns, polls)),
        (
            "smartpointer.app.frame_latency_sim_s_p50",
            percentile(&frame_latency, 50.0),
        ),
        (
            "smartpointer.app.frame_latency_sim_s_p95",
            percentile(&frame_latency, 95.0),
        ),
        ("smartpointer.app.mode_switches", mode_switches as f64),
        ("bench.slice_host_ms_p50", median(&slice_ns) / 1e6),
        ("bench.slice_host_ms_p75", percentile(&slice_ns, 75.0) / 1e6),
        ("bench.slice_raw_ms_p50", median(&slice_raw_ms)),
        ("bench.machine_speed_p50", median(&speeds)),
        ("bench.allocs", allocs as f64),
        (
            "bench.heap_growth_kb_per_sim_s",
            (end.heap.live as f64 - start.heap.live as f64) / 1e3 / sim_s,
        ),
        ("bench.window_sim_s", sim_s),
        ("bench.window_slices", f64::from(window_slices)),
        ("bench.nproc", nproc() as f64),
    ]);

    // ---- checks ----
    // Conservation over the whole run: every frame put on the wire was
    // delivered, tail-dropped, destroyed by a fault, or is still in flight.
    let c = &end.counters;
    let life = |name: &str| c.iter().find(|(n, _)| *n == name).expect("counter").1;
    let accounted = life("dproc.cluster.mon_delivered")
        + life("dproc.cluster.ctl_delivered")
        + life("kecho.digests_received")
        + life("kecho.heartbeats_received")
        + life("smartpointer.app.frames_received")
        + life("simnet.network.link_drops")
        + life("simnet.fault.events_lost");
    let on_wire = life("simnet.network.deliveries");
    // In flight at most: one poll's fan-out per node, both directions.
    let in_flight_bound = 2
        * (0..w.len())
            .map(|i| w.dir.subscriber_count(w.chans_of(i).0) as u64)
            .sum::<u64>()
        + 2 * w.placement.n_racks() as u64;
    let residual = on_wire as i64 - accounted as i64;
    let failed = if residual < 0 {
        residual.unsigned_abs()
    } else {
        (residual as u64).saturating_sub(in_flight_bound)
    };
    checks.push(check(
        "frame_conservation",
        failed == 0,
        format!("on wire {on_wire}, accounted {accounted}, in-flight bound {in_flight_bound}"),
    ));
    if wl.fault_free {
        checks.push(check(
            "nothing_lost",
            unwanted == 0,
            format!("{unwanted} frames dropped, lost, shed or in error"),
        ));
    }
    if wl.policy_free {
        checks.push(freshness(&eng.0));
    }
    match wl.kind {
        Kind::Filters | Kind::Churn => {
            let (fb, fe) = (life("ecode.interp_fallbacks"), life("ecode.filter_errors"));
            checks.push(check(
                "filters_compiled_and_clean",
                fb == 0 && fe == 0 && life("ecode.filters_compiled") > 0,
                format!("interp_fallbacks {fb}, filter_errors {fe}"),
            ));
            checks.push(crate::probes::compiled_equals_vm(eng.0.world()));
        }
        Kind::Racks => {
            let util = max_link_util(&eng.0);
            let (sd, dr) = (w.net.spine_drops(), d.get("kecho.digests_received"));
            checks.push(check(
                "digest_tier_fits",
                sd == 0 && util <= 1.0 && dr > 0,
                format!("spine_drops {sd}, max_link_util {util:.4}, digests_received {dr}"),
            ));
        }
        Kind::Overload => {
            // Liveness, as a share: the program has rare slow recoveries
            // (a stream parked at ladder 4 for minutes), so "every cycle"
            // would make the check a coin toss; a general failure to
            // re-converge still fails it, and the stragglers are counted
            // in `dproc.dmon.unrecovered_cycles`.
            let cycles = recoveries.len() as u64 + unrecovered;
            checks.push(check(
                "cycles_reconverge",
                cycles > 0 && unrecovered * 20 <= cycles,
                format!(
                    "{unrecovered} of {cycles} cycles not back to ladder 0 / all Fresh / drained before the next"
                ),
            ));
        }
        Kind::Sharded if eng.0.threads() > 1 => {
            let wp = d.get("simcore.pdes.windows_parallel");
            checks.push(check(
                "ran_sharded",
                wp > 0,
                format!("windows_parallel {wp}"),
            ));
        }
        Kind::SmartPointer => checks.push(check(
            "clients_served_and_adapted",
            idle_clients == 0 && mode_switches > 0,
            format!("{idle_clients} idle clients, {mode_switches} mode switches"),
        )),
        Kind::Period | Kind::Sharded => {}
    }

    Measured {
        setup_s,
        slices,
        window_slices,
        e2e,
        layer,
        checks,
        attempted,
        failed,
        sim_digest,
        delivered,
        sent,
        polls,
        window_ns,
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Policy-free workloads: at the end, every node's view of every
/// same-rack peer is at most two poll periods old.
fn freshness(sim: &ClusterSim) -> Check {
    let w = sim.world();
    let now = sim.now();
    let limit = w.dmons[0].poll_period() * 2;
    let mut stale = 0u64;
    let mut pairs = 0u64;
    for (i, d) in w.dmons.iter().enumerate() {
        let rack = w.placement.rack(w.placement.rack_of(NodeId(i)));
        for peer in rack.range().filter(|&p| p != i) {
            pairs += 1;
            let fresh = d
                .remote_value(NodeId(peer), "LOADAVG")
                .is_some_and(|(_, at)| now.since(at) <= limit);
            stale += u64::from(!fresh);
        }
    }
    check(
        "views_fresh",
        stale == 0 && pairs > 0,
        format!("{stale} of {pairs} same-rack views older than two polls"),
    )
}

/// `overload8-faults`, at a slice end: queues and outboxes within their
/// caps, and no more gaps than destroyed frames. Returns the violations.
fn overload_violations(sim: &ClusterSim, slice: usize) -> Vec<String> {
    let w = sim.world();
    let n = w.len();
    let hwm = w.net.queue_hwm().0;
    let outbox = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .map(|(i, j)| w.dmons[i].outbox_len(NodeId(j)))
        .max()
        .unwrap_or(0);
    let gaps: u64 = w.dmons.iter().map(|d| d.stats.gaps_detected).sum();
    let destroyed = w.fault.stats.events_lost + w.net.link_drops();
    let mut bad = Vec::new();
    if hwm > OVERLOAD_QUEUE_MSGS {
        bad.push(format!(
            "slice {slice}: queue depth {hwm} over {OVERLOAD_QUEUE_MSGS}"
        ));
    }
    if outbox > OUTBOX_CAP {
        bad.push(format!("slice {slice}: {outbox} parked over {OUTBOX_CAP}"));
    }
    if gaps > destroyed {
        bad.push(format!(
            "slice {slice}: {gaps} gaps, {destroyed} frames destroyed"
        ));
    }
    bad
}
