//! The SmartPointer server/client machinery, installed on top of a
//! running [`dproc::ClusterSim`].
//!
//! One node acts as the server, emitting frames at a fixed rate on an
//! application event channel. Each client is a node with a stream-
//! processing task: delivered frames queue for CPU and are processed
//! serially; the measured *latency* of a frame is submission-to-processed
//! — exactly what Fig. 9(a)/10/11 plot. Frames are also written to the
//! client's disk (storage clients) and touch its cache (PMC), so dproc's
//! DISK and PMC modules see the stream.
//!
//! Dynamic policies read the server-side d-mon's freshest view of each
//! client (`remote_value`), which dproc keeps current over the monitoring
//! channel — no application-level feedback path exists, exactly as in the
//! paper.
//!
//! A frame's path boxes nothing: one handler, registered at
//! install, fires both a frame's arrival and the end of its processing,
//! and the frame itself waits in its client's FIFOs (every hop is a FIFO
//! link, so frames reach a client in the order they were sent). Once the
//! FIFOs and logs have grown, a frame allocates nothing.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use dproc::cluster::{ClusterSched, ClusterSim, ClusterWorld};
use dproc::PeerHealth;
use simcore::stats::Sampler;
use simcore::{CallId, SimDur, SimTime};
use simnet::conn::Proto;
use simnet::{ConnId, NodeId};
use simos::cpu::TaskState;
use simos::disk::IoDir;
use simos::TaskId;

use crate::data::{FrameSpec, StreamMode};
use crate::policy::{decide, ClientView, Policy};

/// Channel tag used for the application stream's connections.
const STREAM_TAG: u32 = 100;

/// The low bit of a handler call's argument: which step of a frame's path
/// fires. The bits above it are the client's index.
const DELIVERED: u64 = 0;
const PROCESSED: u64 = 1;

/// Per-client observable results.
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    /// Frames delivered to the client.
    pub received: u64,
    /// Frames fully processed.
    pub processed: u64,
    /// Bytes delivered.
    pub bytes: u64,
    /// Submission-to-processed latency samples, seconds.
    pub latency_s: Sampler,
    /// `(processed_at_seconds, latency_seconds)` per frame.
    pub log: Vec<(f64, f64)>,
    /// The mode of the most recently emitted frame.
    pub last_mode: Option<StreamMode>,
    /// `(emitted_at_seconds, mode)` per emitted frame.
    pub mode_log: Vec<(f64, StreamMode)>,
    /// Frames dropped because the receive queue was full (event-buffer
    /// overflow under overload).
    pub dropped: u64,
    /// Frames emitted in the conservative fallback format because the
    /// server's failure detector had marked this client's metrics stale.
    pub fallbacks: u64,
}

/// A frame on its way to a client, or waiting there for the CPU.
struct Frame {
    deliver_at: SimTime,
    emitted_at: SimTime,
    bytes: usize,
    flops: f64,
}

struct ClientRt {
    node: NodeId,
    policy: Policy,
    task: TaskId,
    /// Frames sent and not yet arrived, in sending order.
    in_flight: VecDeque<Frame>,
    /// Frames arrived and waiting for the CPU.
    queue: VecDeque<Frame>,
    /// Emit time of the frame being processed, if one is.
    in_service: Option<SimTime>,
    conn: ConnId,
    stats: ClientStats,
}

struct SpState {
    server: NodeId,
    spec: FrameSpec,
    rate_hz: f64,
    write_to_disk: bool,
    queue_cap: usize,
    clients: Vec<ClientRt>,
    /// The frame-path handler, set once it is registered.
    call: Option<CallId>,
}

/// SmartPointer deployment parameters.
#[derive(Debug, Clone)]
pub struct SmartPointerConfig {
    /// The serving node.
    pub server: NodeId,
    /// Client nodes with their stream policies.
    pub clients: Vec<(NodeId, Policy)>,
    /// Frame geometry.
    pub spec: FrameSpec,
    /// Emission rate, frames per second.
    pub rate_hz: f64,
    /// Whether clients persist frames to disk on arrival.
    pub write_to_disk: bool,
    /// Receive-queue capacity per client, in frames. A full queue tail-
    /// drops new arrivals — the subscriber-side event buffer is finite,
    /// which is what bounds latency under overload.
    pub queue_cap: usize,
}

/// Handle to an installed SmartPointer deployment.
pub struct SmartPointer {
    state: Rc<RefCell<SpState>>,
}

impl SmartPointer {
    /// Install the application onto a cluster simulation: spawns client
    /// processing tasks, opens stream connections, and schedules the
    /// server's emission loop. Call before (or after) `sim.start()`;
    /// emission begins one frame period into the run.
    pub fn install(sim: &mut ClusterSim, cfg: SmartPointerConfig) -> SmartPointer {
        assert!(cfg.rate_hz > 0.0, "frame rate must be positive");
        let (world, scheduler) = sim.parts();
        let now = scheduler.now();
        let mut clients = Vec::with_capacity(cfg.clients.len());
        for &(node, policy) in &cfg.clients {
            assert_ne!(node, cfg.server, "a client cannot be the server");
            let task = world.hosts[node.0]
                .cpu
                .spawn_service(now, "smartpointer-client");
            let conn = ConnId {
                local: node,
                remote: cfg.server,
                proto: Proto::Tcp,
                tag: STREAM_TAG,
            };
            world.hosts[node.0].conns.open(conn);
            clients.push(ClientRt {
                node,
                policy,
                task,
                in_flight: VecDeque::new(),
                queue: VecDeque::new(),
                in_service: None,
                conn,
                stats: ClientStats::default(),
            });
        }
        let state = Rc::new(RefCell::new(SpState {
            server: cfg.server,
            spec: cfg.spec,
            rate_hz: cfg.rate_hz,
            write_to_disk: cfg.write_to_disk,
            queue_cap: cfg.queue_cap.max(1),
            clients,
            call: None,
        }));
        let st = Rc::clone(&state);
        let call = scheduler.register(move |w: &mut ClusterWorld, s: &mut ClusterSched, arg| {
            let idx = (arg >> 1) as usize;
            if arg & 1 == PROCESSED {
                on_frame_processed(&st, w, s, idx);
            } else {
                on_frame_delivered(&st, w, s, idx);
            }
        });
        state.borrow_mut().call = Some(call);
        let period = SimDur::from_secs_f64(1.0 / cfg.rate_hz);
        let emit_state = Rc::clone(&state);
        scheduler.schedule_periodic(
            now + period,
            period,
            move |w: &mut ClusterWorld, s: &mut ClusterSched| emit_frames(&emit_state, w, s),
        );
        SmartPointer { state }
    }

    /// Snapshot of one client's stats.
    pub fn client_stats(&self, idx: usize) -> ClientStats {
        self.state.borrow().clients[idx].stats.clone()
    }

    /// Number of clients.
    pub fn client_count(&self) -> usize {
        self.state.borrow().clients.len()
    }

    /// Frames currently queued, unprocessed, at a client.
    pub fn backlog(&self, idx: usize) -> usize {
        let st = self.state.borrow();
        st.clients[idx].queue.len() + usize::from(st.clients[idx].in_service.is_some())
    }

    /// Replace a client's stream policy at run time (takes effect at the
    /// next emitted frame).
    pub fn set_policy(&self, idx: usize, policy: Policy) {
        self.state.borrow_mut().clients[idx].policy = policy;
    }

    /// A client's current policy.
    pub fn policy(&self, idx: usize) -> Policy {
        self.state.borrow().clients[idx].policy
    }
}

/// Emit one frame per client, sized by its policy.
fn emit_frames(state: &Rc<RefCell<SpState>>, w: &mut ClusterWorld, s: &mut ClusterSched) {
    let now = s.now();
    let n = state.borrow().clients.len();
    for idx in 0..n {
        let (server, spec, rate_hz, node, policy, last_mode) = {
            let st = state.borrow();
            let c = &st.clients[idx];
            (
                st.server,
                st.spec,
                st.rate_hz,
                c.node,
                c.policy,
                c.stats.last_mode,
            )
        };
        let mut fallback = false;
        let mode = match policy {
            Policy::NoFilter => StreamMode::Raw,
            Policy::Static(m) => m,
            Policy::Dynamic(set) => {
                let dmon = &w.dmons[server.0];
                let stream_bps = last_mode.map_or(0.0, |m| m.bytes(&spec) as f64 * 8.0 * rate_hz);
                // The decision trusts the monitored view only while the
                // server-side failure detector still considers the client
                // fresh; past the staleness bound the policy degrades to
                // the conservative format instead of acting on history.
                let stale = matches!(
                    dmon.peer_health(node),
                    Some(PeerHealth::Stale | PeerHealth::Dead)
                );
                fallback = stale;
                let view = ClientView {
                    loadavg: dmon.remote_value(node, "LOADAVG").map(|(v, _)| v),
                    avail_bps: dmon.remote_value(node, "NET_AVAIL").map(|(v, _)| v),
                    disk_sectors_per_s: dmon.remote_value(node, "DISKUSAGE").map(|(v, _)| v),
                    n_cpus: w.hosts[node.0].cpu.n_cpus(),
                    stream_bps,
                    stale,
                };
                decide(set, &view, &spec, rate_hz)
            }
        };
        let bytes = mode.bytes(&spec);
        let flops = mode.client_flops(&spec);

        // The server pays for any server-side preparation (pre-rendering).
        let server_flops = mode.server_flops(&spec);
        if server_flops > 0.0 {
            let cpu_s = server_flops / w.hosts[server.0].cpu.flops_per_sec();
            w.charge_cpu(s, server, SimDur::from_secs_f64(cpu_s));
        }

        {
            let mut st = state.borrow_mut();
            let c = &mut st.clients[idx];
            c.stats.last_mode = Some(mode);
            c.stats.mode_log.push((now.as_secs_f64(), mode));
            if fallback {
                c.stats.fallbacks += 1;
            }
        }

        // A frame a bounded queue tail-dropped never arrives.
        let delivery = w.net.send(now, server, node, bytes);
        if delivery.dropped.is_some() {
            continue;
        }
        let call = {
            let mut st = state.borrow_mut();
            st.clients[idx].in_flight.push_back(Frame {
                deliver_at: delivery.deliver_at,
                emitted_at: now,
                bytes,
                flops,
            });
            st.call.expect("registered at install")
        };
        s.call_at(delivery.deliver_at, call, (idx as u64) << 1 | DELIVERED);
    }
}

fn on_frame_delivered(
    state: &Rc<RefCell<SpState>>,
    w: &mut ClusterWorld,
    s: &mut ClusterSched,
    idx: usize,
) {
    let now = s.now();
    let (server, node, conn, write_to_disk, frame) = {
        let mut st = state.borrow_mut();
        let (server, write_to_disk) = (st.server, st.write_to_disk);
        let c = &mut st.clients[idx];
        let frame = c.in_flight.pop_front().expect("a frame in flight");
        debug_assert_eq!(frame.deliver_at, now, "frames overtook each other");
        (server, c.node, c.conn, write_to_disk, frame)
    };
    let bytes = frame.bytes as u64;
    // Injected faults hit the application stream like anything else. The
    // partition check is the pure one so the loss RNG's draw sequence for
    // monitoring traffic stays untouched.
    if !w.is_alive(node) {
        w.fault.note_crash_drop();
        return;
    }
    if w.fault.is_partitioned(server, node) {
        w.fault.stats.partition_drops += 1;
        w.fault.stats.events_lost += 1;
        return;
    }
    // Kernel-observable side effects: connection stats, disk, cache.
    let host = &mut w.hosts[node.0];
    // No position kept between frames: a client's table is a few rows.
    let one_way = now.since(frame.emitted_at);
    host.conns
        .record_delivery(u32::MAX, conn, now, bytes, one_way, false);
    if write_to_disk {
        host.disk.submit(now, IoDir::Write, bytes);
    }
    host.pmc.on_data_moved(bytes);

    {
        let mut st = state.borrow_mut();
        let cap = st.queue_cap;
        let c = &mut st.clients[idx];
        c.stats.received += 1;
        c.stats.bytes += bytes;
        if c.queue.len() >= cap {
            c.stats.dropped += 1;
        } else {
            c.queue.push_back(frame);
        }
    }
    maybe_start_processing(state, w, s, idx);
}

fn maybe_start_processing(
    state: &Rc<RefCell<SpState>>,
    w: &mut ClusterWorld,
    s: &mut ClusterSched,
    idx: usize,
) {
    let now = s.now();
    let (node, task, frame, call) = {
        let mut st = state.borrow_mut();
        let call = st.call.expect("registered at install");
        let c = &mut st.clients[idx];
        if c.in_service.is_some() {
            return;
        }
        let Some(frame) = c.queue.pop_front() else {
            return;
        };
        c.in_service = Some(frame.emitted_at);
        (c.node, c.task, frame, call)
    };
    let host = &mut w.hosts[node.0];
    host.cpu.advance(now);
    host.cpu.set_state(now, task, TaskState::Runnable);
    // Wall time at the share the task gets right now; load changes during
    // the frame are not retroactively applied (documented approximation —
    // frames are short relative to load shifts).
    let cpu_s = frame.flops / host.cpu.flops_per_sec();
    let wall = SimDur::from_secs_f64(cpu_s / host.cpu.share());
    s.call_in(wall, call, (idx as u64) << 1 | PROCESSED);
}

fn on_frame_processed(
    state: &Rc<RefCell<SpState>>,
    w: &mut ClusterWorld,
    s: &mut ClusterSched,
    idx: usize,
) {
    let now = s.now();
    let (node, task, has_more) = {
        let mut st = state.borrow_mut();
        let c = &mut st.clients[idx];
        let emitted_at = c.in_service.take().expect("a frame in service");
        let latency = now.since(emitted_at).as_secs_f64();
        c.stats.processed += 1;
        c.stats.latency_s.add(latency);
        c.stats.log.push((now.as_secs_f64(), latency));
        (c.node, c.task, !c.queue.is_empty())
    };
    if has_more {
        maybe_start_processing(state, w, s, idx);
    } else {
        let host = &mut w.hosts[node.0];
        host.cpu.advance(now);
        host.cpu.set_state(now, task, TaskState::Sleeping);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dproc::cluster::ClusterConfig;
    use simos::host::HostConfig;

    fn cluster(n: usize) -> ClusterSim {
        let mut cfg = ClusterConfig::new(n);
        for i in 1..n {
            cfg = cfg.host_cfg(i, HostConfig::uniprocessor());
        }
        ClusterSim::new(cfg)
    }

    fn install(sim: &mut ClusterSim, policy: Policy) -> SmartPointer {
        SmartPointer::install(
            sim,
            SmartPointerConfig {
                server: NodeId(0),
                clients: vec![(NodeId(1), policy)],
                spec: FrameSpec::interactive(),
                rate_hz: 5.0,
                write_to_disk: true,
                queue_cap: 64,
            },
        )
    }

    #[test]
    fn unloaded_client_keeps_up_with_server_rate() {
        let mut sim = cluster(2);
        sim.start();
        let app = install(&mut sim, Policy::NoFilter);
        sim.run_until(SimTime::from_secs(30));
        let st = app.client_stats(0);
        // 5 frames/s for ~30s.
        assert!(st.received >= 140, "received {}", st.received);
        assert!(st.processed >= 140, "processed {}", st.processed);
        // Latency = network + ~0.12s processing; no queueing.
        let mean = st.latency_s.mean();
        assert!(mean < 0.2, "mean latency {mean}");
        assert_eq!(app.client_count(), 1);
        assert!(app.backlog(0) <= 1);
    }

    #[test]
    fn loaded_client_without_filter_falls_behind() {
        let mut sim = cluster(2);
        sim.start();
        let app = install(&mut sim, Policy::NoFilter);
        sim.run_until(SimTime::from_secs(10));
        // Three linpack threads: processing takes ~0.48 s per frame at a
        // 0.2 s arrival interval.
        sim.start_linpack(NodeId(1), 3);
        sim.run_until(SimTime::from_secs(120));
        let st = app.client_stats(0);
        let late = st.log.last().unwrap().1;
        assert!(late > 5.0, "queueing should blow up latency: {late}");
        assert!(app.backlog(0) > 10, "backlog {}", app.backlog(0));
    }

    #[test]
    fn dynamic_cpu_filter_adapts_to_load() {
        let mut sim = cluster(2);
        sim.start();
        let app = install(&mut sim, Policy::Dynamic(crate::policy::MonitorSet::Cpu));
        sim.run_until(SimTime::from_secs(10));
        sim.start_linpack(NodeId(1), 3);
        sim.run_until(SimTime::from_secs(120));
        let st = app.client_stats(0);
        let late = st.log.last().unwrap().1;
        assert!(late < 1.0, "dynamic filter keeps latency bounded: {late}");
        assert_eq!(st.last_mode, Some(StreamMode::PreRender(1)));
        // The rate is sustained.
        let processed_rate = st.processed as f64 / 120.0;
        assert!(processed_rate > 4.0, "rate {processed_rate}");
    }

    #[test]
    fn static_filter_sits_between() {
        let run = |policy: Policy| {
            let mut sim = cluster(2);
            sim.start();
            let app = install(&mut sim, policy);
            sim.run_until(SimTime::from_secs(10));
            sim.start_linpack(NodeId(1), 3);
            sim.run_until(SimTime::from_secs(120));
            app.client_stats(0).log.last().unwrap().1
        };
        let none = run(Policy::NoFilter);
        let stat = run(Policy::Static(StreamMode::SubSample(2)));
        let dynm = run(Policy::Dynamic(crate::policy::MonitorSet::Cpu));
        assert!(dynm < stat, "dynamic {dynm} < static {stat}");
        assert!(stat < none, "static {stat} < none {none}");
    }

    #[test]
    fn stream_is_visible_to_dproc_modules() {
        let mut sim = cluster(2);
        sim.start();
        let _app = install(&mut sim, Policy::NoFilter);
        sim.run_until(SimTime::from_secs(20));
        let w = sim.world_mut();
        // The server's d-mon sees the client's disk activity and reduced
        // available bandwidth via the monitoring channel.
        let (disk, _) = w.dmons[0].remote_value(NodeId(1), "DISKUSAGE").unwrap();
        assert!(disk > 0.0, "client disk activity visible: {disk}");
        let (avail, _) = w.dmons[0].remote_value(NodeId(1), "NET_AVAIL").unwrap();
        assert!(avail < 100e6, "stream shows up in NET_AVAIL: {avail}");
        let (misses, _) = w.dmons[0].remote_value(NodeId(1), "CACHE_MISS").unwrap();
        assert!(misses > 0.0);
    }

    #[test]
    fn mode_log_records_decisions() {
        let mut sim = cluster(2);
        sim.start();
        let app = install(&mut sim, Policy::Static(StreamMode::SubSample(4)));
        sim.run_until(SimTime::from_secs(5));
        let st = app.client_stats(0);
        assert!(!st.mode_log.is_empty());
        assert!(st
            .mode_log
            .iter()
            .all(|&(_, m)| m == StreamMode::SubSample(4)));
    }

    #[test]
    fn a_frame_the_network_dropped_never_arrives() {
        // 3 MB frames at 20 Hz into links that queue two messages: the
        // 100 Mb/s link carries about four frames a second and tail-drops
        // the rest.
        let mut cfg = ClusterConfig::new(2);
        cfg.link = simnet::LinkSpec::fast_ethernet().with_queue(2, u64::MAX);
        let mut sim = ClusterSim::new(cfg);
        sim.start();
        let app = SmartPointer::install(
            &mut sim,
            SmartPointerConfig {
                server: NodeId(0),
                clients: vec![(NodeId(1), Policy::NoFilter)],
                spec: FrameSpec::bulk(),
                rate_hz: 20.0,
                write_to_disk: false,
                queue_cap: 64,
            },
        );
        sim.run_until(SimTime::from_secs(10));
        let st = app.client_stats(0);
        assert_eq!(st.mode_log.len(), 200, "frames emitted");
        assert!(sim.world().net.link_drops() > 100, "the links shed frames");
        assert!(st.received <= 50, "{} frames arrived", st.received);
        // Every frame that arrived crossed the wire: 3.1 MB at 100 Mb/s.
        let wire_s = FrameSpec::bulk().raw_bytes() as f64 * 8.0 / 100e6;
        assert!(
            st.latency_s.min() > wire_s,
            "latency {} under the wire time {wire_s}",
            st.latency_s.min()
        );
    }

    #[test]
    #[should_panic(expected = "client cannot be the server")]
    fn server_as_client_rejected() {
        let mut sim = cluster(2);
        SmartPointer::install(
            &mut sim,
            SmartPointerConfig {
                server: NodeId(0),
                clients: vec![(NodeId(0), Policy::NoFilter)],
                spec: FrameSpec::interactive(),
                rate_hz: 5.0,
                write_to_disk: false,
                queue_cap: 64,
            },
        );
    }
}
