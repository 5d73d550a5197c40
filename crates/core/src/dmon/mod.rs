//! d-mon: the distributed-monitor kernel module.
//!
//! One d-mon runs per node (Figure 2). Every polling period it retrieves
//! samples from the registered monitoring modules via their callbacks,
//! decides per subscriber — by parameter rules or a deployed E-code
//! filter — which metrics to ship, and submits events on the monitoring
//! channel. Incoming monitoring events populate the local
//! `/proc/cluster/<node>/...` tree; incoming control events reconfigure
//! the stream the sending subscriber receives (parameters, dynamic filter
//! compilation and deployment).
//!
//! d-mon itself is pure: [`DMon::poll`] returns the planned events plus
//! the CPU cost to charge; the cluster glue executes sends and schedules
//! deliveries.
//!
//! The module tree is that loop taken apart the way the paper's Figs. 6–8
//! take it apart with `rdtsc`: each stage owns its state, its `on_revive`,
//! the accessors that read it and its unit tests (stage map, with the
//! counters each feeds: DESIGN.md §17). What runs once per subscriber,
//! send or event carries `#[inline]`: rustc does not inline across the
//! modules of one crate at the default 16 codegen units, which cost
//! `star16-period` 3 % without the hints.

mod detector;
mod digest;
mod flow;
mod ladder;
mod receive;
mod sample;
mod select;

use std::ops::Range;
use std::sync::Arc;

use kecho::{ChannelId, ControlMsg, Directory, Event, Hop};
use simcore::stats::Sampler;
use simcore::{SimDur, SimTime};
use simnet::NodeId;
use simos::{Host, ProcFs, ProcHandle};

use crate::calib::Calib;
use crate::control::Command;
use crate::modules::MonitorModule;
use crate::params::{PolicySet, Rule};
use crate::peers::PeerTable;

use detector::Detector;
use digest::Digest;
use flow::Flow;
use ladder::Ladder;
use receive::Receive;
use sample::Sample;
use select::Select;

/// Counters and samplers a d-mon keeps about itself — the numbers behind
/// Figures 6–8.
#[derive(Debug, Default)]
pub struct DmonStats {
    /// Completed polling iterations.
    pub iterations: u64,
    /// Monitoring events submitted.
    pub events_sent: u64,
    /// Monitoring payload bytes submitted.
    pub bytes_sent: u64,
    /// Monitoring events received.
    pub events_received: u64,
    /// Monitoring payload bytes received.
    pub bytes_received: u64,
    /// Control messages handled.
    pub control_handled: u64,
    /// Filter deployments that failed to compile.
    pub filter_errors: u64,
    /// Filter deployments that compiled but were refused by the static
    /// verifier (unbounded or over-budget worst-case cost).
    pub filters_rejected: u64,
    /// Admitted filter deployments, each compiled to bytecode for the
    /// VM.
    pub filters_compiled: u64,
    /// Always 0: there is one filter engine, so nothing falls back. Kept
    /// only because the frozen benchmark reads it and `DmonStats`'
    /// `Debug` text is hashed into its `sim_digest`.
    pub interp_fallbacks: u64,
    /// Module samplings skipped because no subscriber's stream could
    /// consume the metric (read-set-driven sampling).
    pub modules_skipped: u64,
    /// Filter evaluations that bypassed the shared memo because the
    /// effect pass could not prove the filter memo-safe (it reads or
    /// writes per-subscriber `last_value_sent` state), so it ran once
    /// per subscriber.
    pub memo_bypassed: u64,
    /// Malformed control-file writes.
    pub control_errors: u64,
    /// Heartbeats submitted (to subscribers whose stream had no data).
    pub heartbeats_sent: u64,
    /// Heartbeats received.
    pub heartbeats_received: u64,
    /// Sequence numbers proven lost across all incoming streams.
    pub gaps_detected: u64,
    /// Failure-detector checks that found a peer silent past its expected
    /// cadence (ticks once per poll per overdue peer).
    pub heartbeats_missed: u64,
    /// Fresh → Stale transitions observed by the failure detector.
    pub nodes_suspected: u64,
    /// Stale → Dead transitions (the peer is then evicted from the
    /// registry by the glue).
    pub nodes_evicted: u64,
    /// Recoveries: a Dead peer spoke again, or a publisher restarted with
    /// a new epoch; counted when this node replays its customizations.
    pub resyncs: u64,
    /// Monitoring events shed (oldest-first) from a stalled subscriber's
    /// bounded outbox, plus events discarded when their subscriber was
    /// evicted as Dead. Shed events never consumed a `stream_seq`, so they
    /// create no gap on the subscriber side — the counter here is the only
    /// record of them.
    pub events_shed: u64,
    /// Polls during which at least one event stayed parked because a
    /// subscriber's credit window was empty (one tick per stalled
    /// subscriber per poll).
    pub credits_stalled: u64,
    /// Degradation-ladder level changes, in either direction.
    pub ladder_transitions: u64,
    /// Rack digests submitted (aggregators only).
    pub digests_sent: u64,
    /// Rack digests received on the spine digest channel.
    pub digests_received: u64,
    /// Per-metric summary records carried by those digests (a digest
    /// folds one record per metric that had at least one sample). Pure
    /// sim output — the bench exact-gates it to pin the aggregation
    /// tier's payload shape.
    pub digest_records: u64,
    /// Digest freshness at arrival: seconds between the newest sample a
    /// digest folded and the moment it landed here. The hierarchy's
    /// staleness cost — what the aggregation tier trades for rack-local
    /// monitoring traffic.
    pub digest_staleness_s: Sampler,
    /// Per-iteration event-submission CPU cost in microseconds (what the
    /// paper measures with rdtsc for Figs. 6–7).
    pub submit_cost_us: Sampler,
    /// Per-iteration event-receiving CPU cost in microseconds (Fig. 8).
    pub receive_cost_us: Sampler,
    /// Receive cost accumulated since the last poll closed the iteration.
    pending_receive: SimDur,
    /// Submit cost accumulated within the current iteration.
    pending_submit: SimDur,
}

impl DmonStats {
    /// Zero all counters and samplers — used by the harness to discard a
    /// warm-up window before measuring.
    pub fn reset(&mut self) {
        *self = DmonStats::default();
    }

    fn close_iteration(&mut self, poll_floor: SimDur) {
        let submit = std::mem::take(&mut self.pending_submit);
        self.submit_cost_us.add(submit.as_micros_f64());
        let recv = std::mem::take(&mut self.pending_receive) + poll_floor;
        self.receive_cost_us.add(recv.as_micros_f64());
    }
}

/// One event a d-mon wants transmitted: `(hop, event, payload_bytes)`.
pub type PlannedSend = (Hop, Event, usize);

/// What one polling iteration wants the glue to do.
#[derive(Debug)]
pub struct PollOutcome {
    /// Events to transmit.
    pub sends: Vec<PlannedSend>,
    /// Total CPU time to charge to this host for the iteration (module
    /// collection + policy/filter evaluation + submission handlers +
    /// kernel network path).
    pub cpu_cost: SimDur,
    /// Peers the failure detector newly declared Dead this iteration. The
    /// glue evicts them from the shared registry so every publisher stops
    /// sampling/filtering/transmitting for them, then hands the list back
    /// ([`DMon::recycle_dead_peers`]).
    pub dead_peers: Vec<NodeId>,
    /// This node found itself missing from the monitoring channel (a peer
    /// evicted it while it was unreachable). The glue re-registers it —
    /// the paper's registry re-bootstrap.
    pub rejoin: bool,
}

/// What handling one control message wants the glue to do.
#[derive(Debug)]
pub struct ControlOutcome {
    /// CPU cost of the handler (compilation is expensive; parameter
    /// updates are cheap).
    pub cpu: SimDur,
    /// A message to send back to the originator — e.g.
    /// [`ControlMsg::FilterRejected`] when a deployment fails the static
    /// verifier.
    pub reply: Option<ControlMsg>,
}

/// Health of a remote peer as judged by the local failure detector. The
/// discriminant is the first word of a `status` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerHealth {
    /// Heard from within the staleness bound.
    Fresh = 0,
    /// Silent past the staleness bound — its `/proc/cluster` view may no
    /// longer reflect reality.
    Stale = 1,
    /// Silent past the death bound — treated as crashed and evicted from
    /// the registry until it speaks again.
    Dead = 2,
}

/// The send list of one polling step and the CPU bill that goes with it.
#[derive(Default)]
struct Outbound {
    sends: Vec<PlannedSend>,
    cpu: SimDur,
}

impl Outbound {
    /// Size an event and queue it for `to`; returns its wire bytes.
    #[inline]
    fn queue(&mut self, to: NodeId, ev: Event) -> usize {
        let bytes = kecho::wire::encoded_size(&ev);
        let from = ev.sender;
        self.sends.push((Hop { from, to }, ev, bytes));
        bytes
    }

    /// Queue an event and charge its submission (handler + kernel send
    /// path). Returns `(bytes, handler cost)`.
    #[inline]
    fn submit(&mut self, calib: &Calib, to: NodeId, ev: Event) -> (usize, SimDur) {
        let bytes = self.queue(to, ev);
        let handler = calib.submit_cost(bytes);
        self.cpu += handler + calib.kernel_path_send;
        (bytes, handler)
    }
}

/// What the stages of one [`DMon::poll`] share: when it runs, on which
/// channels, as whom (node, incarnation, last sequence number used), and
/// where its sends, CPU charges and counters go.
struct PollCx<'a> {
    now: SimTime,
    mon_chan: ChannelId,
    ctl_chan: ChannelId,
    calib: &'a Calib,
    node: NodeId,
    epoch: u32,
    seq: &'a mut u64,
    stats: &'a mut DmonStats,
    out: Outbound,
}

impl PollCx<'_> {
    #[inline]
    fn next_seq(&mut self) -> u64 {
        *self.seq += 1;
        *self.seq
    }

    /// Build and submit a control event from this node.
    fn control(&mut self, to: NodeId, msg: ControlMsg) {
        let seq = self.next_seq();
        let ev = Event::control(self.ctl_chan.0, seq, self.node, to, msg);
        self.out.submit(self.calib, to, ev);
    }
}

/// The handle of `cluster/<dir>/<leaf>`, interned on first use and kept
/// in `slot`. Host names are checked where a cluster is configured
/// ([`leaf_name_ok`], distinct, no `rack<k>`) and peer-supplied leaves where
/// they arrive, so the path is a file; were it not, the caller skips the write.
fn cluster_file(
    slot: &mut Option<ProcHandle>,
    proc: &mut ProcFs,
    dir: &str,
    leaf: &str,
) -> Option<ProcHandle> {
    if slot.is_none() {
        *slot = intern_cluster_file(proc, dir, leaf);
    }
    *slot
}

/// The handle of `cluster/<dir>/<leaf>`, for a caller that keeps what it
/// claims there (the file's cells) rather than the handle. Looking up a
/// file that exists — a restarted node re-learning its peers — allocates
/// nothing.
fn intern_cluster_file(proc: &mut ProcFs, dir: &str, leaf: &str) -> Option<ProcHandle> {
    proc.intern_in(&["cluster", dir], leaf).ok()
}

/// Whether `name` can be one component of a `cluster/...` path: a host
/// name (`cluster/<name>/`, from a configuration) or an extension file
/// name (`cluster/<origin>/<name>`, from a peer's frames). It must be a
/// single non-empty component and none of the leaves d-mon keeps per node.
pub(crate) fn leaf_name_ok(name: &str) -> bool {
    !name.is_empty() && !name.contains('/') && !matches!(name, "control" | "status" | "overload")
}

/// The d-mon module of one node. Its accessors sit next to the stage
/// whose state they read.
pub struct DMon {
    node: NodeId,
    /// Incarnation, bumped by [`DMon::on_revive`] so peers can tell a
    /// restart from a gap.
    epoch: u32,
    /// Sequence number of the last event this node built.
    seq: u64,
    /// Hostname per NodeId index — the `/proc/cluster/<name>` directory
    /// names; one table shared by every d-mon of the cluster.
    cluster_names: Arc<Vec<String>>,
    poll_period: SimDur,
    /// Everything this node remembers per peer, customizations included,
    /// one row per node of the home range, so every per-peer loop is
    /// O(rack), not O(cluster).
    peers: PeerTable,
    sample: Sample,
    select: Select,
    flow: Flow,
    ladder: Ladder,
    detector: Detector,
    receive: Receive,
    digest: Digest,
    /// Spare send list, handed back through [`DMon::recycle_sends`].
    send_buf: Vec<PlannedSend>,
    /// Self-observability.
    pub stats: DmonStats,
}

// Each sharded `run_until` deals every node's `DMon` into per-shard
// columns, which keep their capacity from one call to the next. Past 1024
// bytes an element, a `Vec` grows from a capacity of one rather than
// four: two more allocator calls per column the first time it fills. A
// field that does not fit fails the build here, on purpose.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<DMon>() <= 1024);

impl DMon {
    /// Create the d-mon for `node`. `cluster_names[i]` names `NodeId(i)`.
    pub fn new(
        node: NodeId,
        cluster_names: Vec<String>,
        modules: Vec<Box<dyn MonitorModule>>,
        poll_period: SimDur,
    ) -> Self {
        let home = 0..cluster_names.len();
        Self::new_shared(node, Arc::new(cluster_names), home, modules, poll_period)
    }

    /// Create the d-mon for `node` with a shared name table — the cluster
    /// glue hands every d-mon the same `Arc`, so a 4096-node run holds
    /// one name table, not 4096 copies — and `home`, the contiguous
    /// node-id range of its rack (the whole cluster on a star), as its
    /// neighbourhood: per-peer state is allocated for that range only.
    pub fn new_shared(
        node: NodeId,
        cluster_names: Arc<Vec<String>>,
        home: Range<usize>,
        modules: Vec<Box<dyn MonitorModule>>,
        poll_period: SimDur,
    ) -> Self {
        assert!(!poll_period.is_zero(), "zero poll period");
        assert!(home.contains(&node.0), "node outside its home range");
        DMon {
            node,
            epoch: 0,
            seq: 0,
            peers: PeerTable::new(home, cluster_names.len()),
            cluster_names,
            poll_period,
            sample: Sample::new(modules),
            select: Select::default(),
            flow: Flow::new(poll_period),
            ladder: Ladder::default(),
            detector: Detector::new(poll_period),
            receive: Receive::default(),
            digest: Digest::default(),
            send_buf: Vec::new(),
            stats: DmonStats::default(),
        }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The polling period.
    pub fn poll_period(&self) -> SimDur {
        self.poll_period
    }

    /// This node's incarnation number.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Peers this d-mon holds state for: its home range plus any
    /// out-of-rack cluster member that has legitimately shown up.
    pub fn tracked_peers(&self) -> usize {
        self.peers.len()
    }

    /// Where the glue keeps the position of `peer`'s connection in the
    /// host's connection table between deliveries: in the row this d-mon
    /// holds for `peer`, if it holds one.
    #[inline]
    pub(crate) fn conn_at(&mut self, peer: NodeId) -> Option<&mut u32> {
        self.peers.get_mut(peer).map(|p| &mut p.conn_at)
    }

    /// Why `publisher` last refused this node's filter deployment, if it
    /// did (cleared by the next `filter` or `nofilter` written toward it).
    pub fn filter_rejection(&self, publisher: NodeId) -> Option<&str> {
        let custom = self.peers.get(publisher)?.custom.as_ref()?;
        custom.rejection.as_deref()
    }

    /// Crash-stop restart: volatile state (deployed policies/filters,
    /// remote views, stream positions, detector state) is lost; the
    /// incarnation is bumped so peers recognize the restart. Lifetime
    /// stats survive — they model the observer, not the kernel.
    pub fn on_revive(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        // Per-peer stream, detector, flow-control and customization state
        // is volatile too: windows reopen full, parked payloads died with
        // the kernel, and so did every rule, filter and replay log.
        // Interned status/control paths survive — the host (and its proc
        // tree) persists across a crash-restart in this model.
        self.peers.iter_mut().for_each(|(_, p)| p.on_revive());
        self.sample.on_revive();
        self.select.on_revive();
        self.ladder.on_revive();
        self.detector.on_revive();
        self.receive.on_revive();
        self.digest.on_revive();
    }

    /// Build a targeted control event from this node (allocates the next
    /// sequence number).
    pub fn make_control_event(
        &mut self,
        ctl_chan: ChannelId,
        target: NodeId,
        msg: ControlMsg,
    ) -> Event {
        self.seq += 1;
        Event::control(ctl_chan.0, self.seq, self.node, target, msg)
    }

    /// Hand back a drained send list, [`PollOutcome::sends`] or
    /// [`DMon::poll_digest`]'s, for reuse. The glue calls this after
    /// transmitting so the steady-state poll path never allocates a fresh
    /// send list.
    pub fn recycle_sends(&mut self, mut sends: Vec<PlannedSend>) {
        sends.clear();
        self.send_buf = sends;
    }

    /// One polling iteration at `now`: collect, decide, build events, and
    /// turn pending `/proc` control-file writes into control events.
    pub fn poll(
        &mut self,
        host: &mut Host,
        dir: &Directory,
        mon_chan: ChannelId,
        ctl_chan: ChannelId,
        now: SimTime,
        calib: &Calib,
    ) -> PollOutcome {
        let (node, epoch) = (self.node, self.epoch);
        let subs = || dir.subscribers(mon_chan).filter(move |&s| s != node);
        let (sends, cpu) = (std::mem::take(&mut self.send_buf), SimDur::ZERO);
        let mut cx = PollCx {
            now,
            mon_chan,
            ctl_chan,
            calib,
            node,
            epoch,
            seq: &mut self.seq,
            stats: &mut self.stats,
            out: Outbound { sends, cpu },
        };

        // 1. Sample what some subscriber can consume; refresh own /proc.
        let (sample, names, peers) = (&mut self.sample, &self.cluster_names, &mut self.peers);
        sample.collect(host, &names[node.0], subs(), peers, &self.select, &mut cx);

        // 2. Age the failure detector; the newly Dead go to the glue.
        let dead_peers = self.detector.check_peers(peers, host, names, &mut cx);

        // 3. Per subscriber: parameters or filter decide what to send, the
        // ladder coarsens it, flow control parks and drains it; a stream
        // with no data this round carries a heartbeat instead. Peers this
        // detector already declared Dead get nothing — that is the point —
        // and a registry entry naming no node of this cluster gets no slot.
        self.select.begin_poll();
        let data_poll = self.ladder.data_poll(cx.stats.iterations);
        let mut stalled = false;
        for sub in subs() {
            let Some(p) = peers.touch(sub) else { continue };
            if p.record.is_some_and(|r| r.health == PeerHealth::Dead) {
                continue;
            }
            // A stretched-away poll builds no data, only heartbeats.
            let fresh = if data_poll {
                let decided = self.select.records(p, sample, &mut cx);
                Flow::enqueue(p, decided, &self.ladder, sample, &mut cx)
            } else {
                None
            };
            let sent_data = self.flow.drain(p, sub, fresh, &mut cx);
            self.flow.heartbeat(p, sub, sent_data, &mut cx);
            stalled |= !p.outbox.is_empty();
        }

        // 3b. Subscriber side of flow control; 4. replay this node's
        // customizations to publishers that recovered since the last poll;
        // 5. turn application control-file writes into control events.
        Flow::grants(peers, &mut cx);
        self.detector.resync(peers, &mut cx);
        let mut out = cx.out;
        self.drain_control_writes(host, ctl_chan, calib, &mut out);

        // 5b. Step the degradation ladder on what this poll saw and
        // publish `cluster/<own>/overload`; 6. close the iteration's books.
        let outboxes_empty = self.peers.iter().all(|p| p.outbox.is_empty());
        self.ladder.step(stalled, outboxes_empty, &mut self.stats);
        let own = &self.cluster_names[node.0];
        self.ladder.publish(host, own, &self.stats);
        self.stats.iterations += 1;
        self.stats.close_iteration(calib.receive_poll_cost);
        PollOutcome {
            sends: out.sends,
            cpu_cost: out.cpu + calib.receive_poll_cost,
            dead_peers,
            rejoin: !dir.is_subscribed(mon_chan, node),
        }
    }

    /// Drain application writes to `cluster/<name>/control` files into
    /// control events — that is how applications reach remote d-mons. A
    /// write to this node's own file short-circuits the wire, so a
    /// rejection reply is applied locally too, and its texts go straight
    /// back to the pool. A `filter` or `nofilter` toward a publisher
    /// forgets why it refused the last one.
    fn drain_control_writes(
        &mut self,
        host: &mut Host,
        ctl_chan: ChannelId,
        calib: &Calib,
        out: &mut Outbound,
    ) {
        let node = self.node;
        for (path, data) in host.proc.drain_writes() {
            let Some((target, cmd)) = route_control_write(&self.cluster_names, path, data) else {
                self.stats.control_errors += 1;
                continue;
            };
            let p = self
                .peers
                .touch(target)
                .expect("a target found by name is a cluster member");
            if let (Command::Filter { .. } | Command::NoFilter, Some(c)) = (cmd, &mut p.custom) {
                c.rejection = None;
            }
            let msg = cmd.to_msg();
            if target == node {
                if let Some(reply) = self.on_control(node, &msg, calib).reply {
                    self.on_control(node, &reply, calib);
                    reply.recycle();
                }
                msg.recycle();
            } else {
                detector::record_deployment(&mut p.custom().replay, cmd, &msg);
                let ev = self.make_control_event(ctl_chan, target, msg);
                out.submit(calib, target, ev);
            }
        }
    }

    /// Handle an incoming control event sent by peer `from`; what it
    /// configures goes in `from`'s row.
    pub fn on_control(&mut self, from: NodeId, msg: &ControlMsg, calib: &Calib) -> ControlOutcome {
        let (mut cpu, mut reply) = (calib.policy_eval, None);
        // A sender outside the cluster owns no stream here to configure
        // or top up, and no row: count the frame and drop it.
        let Some(p) = self.peers.touch(from) else {
            self.stats.control_errors += 1;
            return ControlOutcome {
                cpu: SimDur::ZERO,
                reply,
            };
        };
        self.stats.control_handled += 1;
        match (msg, Command::of(msg)) {
            (ControlMsg::Announce, _) => cpu = SimDur::ZERO,
            // We are the publisher: the subscriber's grant counter, sent
            // standalone, reopens our window toward it.
            (ControlMsg::Credit { credits }, _) => p.accept(*credits),
            // We are the subscriber: a publisher refused our filter.
            (ControlMsg::FilterRejected { reason }, _) => {
                p.custom().rejection = Some(reason.clone());
            }
            // A replacing rule or a `clear` drops the metric's rules; a
            // rule then adds itself.
            (_, Some(cmd @ (Command::Rule { metric, .. } | Command::Clear { metric }))) => {
                let policy = p.custom().policy.get_or_insert_with(PolicySet::new);
                let metric = self.sample.metric_name_of(metric);
                if !matches!(cmd, Command::Rule { and: true, .. }) {
                    policy.clear_metric(metric);
                }
                if let Command::Rule { param, .. } = cmd {
                    policy.add_rule(metric, Rule::from_spec(param));
                }
            }
            // The window is the module's, shared by every subscriber.
            (_, Some(Command::Window { file, secs })) => self.sample.set_window(file, secs),
            (_, Some(Command::Filter { source })) => {
                let (env, stats) = (&self.sample.env, &mut self.stats);
                reply = self
                    .select
                    .deploy(&mut p.custom().filter, source, env, stats);
                cpu = calib.filter_compile;
            }
            (_, Some(Command::NoFilter)) => {
                if let Some(c) = &mut p.custom {
                    self.select.remove(&mut c.filter);
                }
            }
            // A prefix no `Command::to_msg` writes configures nothing.
            (_, None) => {
                self.stats.control_errors += 1;
                cpu = SimDur::ZERO;
            }
        }
        ControlOutcome { cpu, reply }
    }
}

/// Turn a write to `cluster/<name>/control` into the node it addresses
/// and the command it carries.
fn route_control_write<'a>(
    names: &[String],
    path: &str,
    data: &'a str,
) -> Option<(NodeId, Command<'a>)> {
    let name = path.strip_prefix("cluster/")?.strip_suffix("/control")?;
    let target = names.iter().position(|n| n == name)?;
    Some((NodeId(target), Command::parse(data).ok()?))
}

#[cfg(test)]
pub(crate) mod testkit {
    //! What the stage tests share: node 0 (`alan`) of a three-node star
    //! with both channels open and every node subscribed.

    use super::*;
    use crate::modules::standard_modules;
    use kecho::{MonRecord, MonitoringPayload};
    use simos::host::HostConfig;

    pub(crate) fn setup() -> (DMon, Host, Directory, ChannelId, ChannelId, Calib) {
        let node = NodeId(0);
        let names = ["alan", "maui", "etna"].map(String::from).to_vec();
        let dmon = DMon::new(node, names, standard_modules(), SimDur::from_secs(1));
        let host = Host::new("alan", node, &HostConfig::testbed());
        let mut dir = Directory::default();
        let mon = dir.open("dproc-monitoring");
        let ctl = dir.open("dproc-control");
        for n in 0..3 {
            dir.subscribe(mon, NodeId(n));
            dir.subscribe(ctl, NodeId(n));
        }
        (dmon, host, dir, mon, ctl, Calib::default())
    }

    /// A one-record data frame from `origin` at stream position `sseq`.
    pub(crate) fn mon_from(origin: NodeId, mon: ChannelId, epoch: u32, sseq: u32) -> Event {
        let mut ev = Event::monitoring(
            mon.0,
            1,
            origin,
            MonitoringPayload {
                origin,
                epoch,
                stream_seq: sseq,
                credit_grant: 0,
                records: vec![MonRecord {
                    metric_id: 0,
                    value: 1.0,
                    last_value_sent: 0.0,
                    timestamp: 0.0,
                }],
                pad_bytes: 0,
                ext_names: Vec::new(),
            },
        );
        ev.target = Some(NodeId(0));
        ev
    }

    /// Node 0 of a six-node cluster whose rack is nodes 0..3.
    pub(crate) fn racked() -> (DMon, Host, ChannelId, Calib) {
        let names = ["alan", "maui", "etna", "fuji", "hood", "zao"].map(String::from);
        let dmon = DMon::new_shared(
            NodeId(0),
            Arc::new(names.to_vec()),
            0..3,
            standard_modules(),
            SimDur::from_secs(1),
        );
        let host = Host::new("alan", NodeId(0), &HostConfig::testbed());
        (dmon, host, ChannelId(0), Calib::default())
    }

    /// A cluster member outside the rack, and two ids that name no node.
    pub(crate) const FAR: NodeId = NodeId(4);
    pub(crate) const BOGUS: [NodeId; 2] = [NodeId(6), NodeId(usize::MAX)];

    /// Floats at the edges of `{}` and `{:.N}` formatting, for NET MON's
    /// renderer proptest.
    pub(crate) fn edge_f64() -> impl proptest::Strategy<Value = f64> {
        use proptest::Strategy as _;
        proptest::prop_oneof![
            proptest::Just(f64::NAN),
            proptest::Just(f64::INFINITY),
            proptest::Just(f64::NEG_INFINITY),
            proptest::Just(-0.0),
            proptest::Just(9_007_199_254_740_993.0), // 2^53 + 1, rounds to even
            (1u64 << 53..1 << 62).prop_map(|n| n as f64),
            (0u64..1 << 54).prop_map(|n| n as f64),
            (0u64..1_000_000_000_000_000).prop_map(|ns| ns as f64 / 1e9),
            proptest::any::<u64>().prop_map(f64::from_bits),
        ]
    }

    /// What a reader of a record with this renderer sees.
    pub(crate) fn rendered(render: simos::RecordRender, rec: &[u64]) -> String {
        let mut out = String::new();
        render(rec, &mut out);
        out
    }

    /// How many data events a poll planned.
    pub(crate) fn data_sends(out: &PollOutcome) -> usize {
        let is_data = |s: &&PlannedSend| s.1.as_monitoring().is_some();
        out.sends.iter().filter(is_data).count()
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;
    use kecho::ParamSpec;

    #[test]
    fn poll_sends_to_all_other_subscribers() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert_eq!(out.sends.len(), 2, "two remote subscribers");
        for (hop, ev, bytes) in &out.sends {
            assert_eq!(hop.from, NodeId(0));
            assert_ne!(hop.to, NodeId(0));
            let m = ev.as_monitoring().unwrap();
            assert_eq!(m.records.len(), 5, "all five metrics by default");
            assert!(*bytes > 50);
        }
        assert!(out.cpu_cost > SimDur::ZERO);
        assert_eq!(dmon.stats.events_sent, 2);
        assert_eq!(dmon.stats.iterations, 1);
    }

    /// Fails when a writer on the poll or digest path goes back to
    /// assembling a `String`: every file those paths refresh holds a
    /// record, and the text exists only in what a reader is handed.
    #[test]
    fn poll_and_digest_paths_store_records_not_text() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        for peer in [1, 2] {
            let ev = mon_from(NodeId(peer), mon, 0, 0);
            dmon.on_event(&mut host, &ev, 90, SimTime::from_secs(1), &calib);
        }
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(2), &calib);
        let records: Vec<_> = (0..6u32)
            .map(|metric_id| kecho::DigestRecord {
                metric_id,
                min: 0.0,
                max: 1.0,
                mean: 0.5,
                count: 2,
                newest_ts: 1.5,
            })
            .collect();
        let payload = kecho::DigestPayload {
            rack: 1,
            origin: NodeId(2),
            members: 2,
            records,
        };
        let ev = Event::digest(2, 1, NodeId(2), payload);
        dmon.on_digest(&mut host, &ev, 200, SimTime::from_secs(2), &calib);

        let mut is_record = |path: &str| {
            assert!(host.proc.exists(path), "{path}");
            let h = host.proc.intern(path).unwrap();
            host.proc.is_record(h)
        };
        for path in [
            "cluster/alan/cpu",
            "cluster/alan/mem",
            "cluster/alan/disk",
            "cluster/alan/net",
            "cluster/alan/pmc",
            "cluster/alan/overload",
            "cluster/maui/status",
            "cluster/etna/status",
            "cluster/rack1/cpu",
            "cluster/rack1/pmc",
            "cluster/rack1/extra",
        ] {
            assert!(is_record(path), "{path} holds no record");
        }
        // `control` is the one text file d-mon keeps, and it is empty.
        assert!(!is_record("cluster/alan/control"));
        assert_eq!(host.proc.read("cluster/alan/control").unwrap(), "");
        assert_eq!(
            host.proc.read("cluster/maui/status").unwrap(),
            "fresh last_update 1.000 age 1.000 epoch 0"
        );
        assert_eq!(
            host.proc.read("cluster/rack1/extra").unwrap(),
            "min 0 max 1 mean 0.5 count 2 ts 1.500"
        );
    }

    #[test]
    fn self_deploy_rejection_recorded_locally() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        host.proc.set("cluster/alan/control", "").unwrap();
        host.proc
            .write("cluster/alan/control", "filter { while (1) { } }")
            .unwrap();
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert_eq!(dmon.stats.filters_rejected, 1);
        let reason = dmon
            .filter_rejection(NodeId(0))
            .expect("self rejection recorded");
        assert!(reason.contains("unbounded"));
    }

    #[test]
    fn control_file_write_routes_to_target() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        // First poll creates remote control files? No — remote entries
        // appear on first received event; create manually as the app would
        // find them after an event.
        host.proc.set("cluster/maui/control", "").unwrap();
        host.proc
            .write("cluster/maui/control", "period cpu 2")
            .unwrap();
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        let ctl_sends: Vec<_> = out
            .sends
            .iter()
            .filter(|(_, ev, _)| ev.as_control().is_some())
            .collect();
        assert_eq!(ctl_sends.len(), 1);
        assert_eq!(ctl_sends[0].0.to, NodeId(1));
        assert_eq!(
            ctl_sends[0].1.as_control().unwrap(),
            &ControlMsg::SetParam {
                metric: "cpu".into(),
                param: ParamSpec::Period { period_s: 2.0 }
            }
        );
    }

    #[test]
    fn control_write_to_self_applies_locally() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        host.proc.set("cluster/alan/control", "").unwrap();
        host.proc
            .write("cluster/alan/control", "window cpu 5")
            .unwrap();
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert!(out.sends.iter().all(|(_, ev, _)| ev.as_control().is_none()));
        assert_eq!(dmon.stats.control_handled, 1);
    }

    #[test]
    fn malformed_control_write_counts_error() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        host.proc.set("cluster/maui/control", "").unwrap();
        host.proc
            .write("cluster/maui/control", "gibberish")
            .unwrap();
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert_eq!(dmon.stats.control_errors, 1);
    }

    /// A window CPU MON's history cannot serve is counted, like a
    /// non-positive one, and leaves the window alone.
    #[test]
    fn a_window_outside_the_history_counts_an_error() {
        let dmon = write_own(&[
            "window cpu 3600",
            "window cpu 1e-12",
            "window cpu 0",
            "window cpu 5",
        ]);
        assert_eq!(dmon.stats.control_errors, 3);
        assert_eq!(dmon.stats.control_handled, 1);
    }

    /// Writes `texts` to this node's own control file and polls once.
    fn write_own(texts: &[&str]) -> DMon {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        host.proc.set("cluster/alan/control", "").unwrap();
        for text in texts {
            host.proc.write("cluster/alan/control", text).unwrap();
        }
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        dmon
    }

    /// A metric name holding `:` used to be spliced into a wire prefix:
    /// `period clear:cpu 5` erased the `above cpu` rule, and `period
    /// window:cpu 2` retuned CPU MON's window. Both are refused now.
    #[test]
    fn a_metric_name_cannot_carry_a_wire_prefix() {
        let dmon = write_own(&["above cpu 0.5", "period clear:cpu 5", "period window:cpu 2"]);
        assert_eq!(dmon.stats.control_errors, 2);
        let policy = dmon.policy_for(NodeId(0)).expect("the first write applied");
        assert_eq!(policy.rule_count("LOADAVG"), 1, "the `above` rule stands");
    }

    /// `and` combines rules only: `and clear cpu` and `and window cpu 5`
    /// used to install an inert rule each, under a prefixed name no
    /// `clear` removes, and count no error.
    #[test]
    fn and_of_something_that_is_no_rule_is_refused() {
        let dmon = write_own(&["and clear cpu", "and window cpu 5"]);
        assert_eq!(dmon.stats.control_errors, 2);
        assert!(dmon.policy_for(NodeId(0)).is_none_or(PolicySet::is_empty));
    }

    /// A wire rule whose number is not finite configures nothing and is
    /// counted, as the same rule written to a control file is.
    #[test]
    fn a_rule_whose_number_is_not_finite_is_an_error_on_either_path() {
        let (mut dmon, _host, _dir, _mon, _ctl, calib) = setup();
        let wire = ControlMsg::SetParam {
            metric: "cpu".into(),
            param: ParamSpec::Period { period_s: f64::NAN },
        };
        dmon.on_control(NodeId(1), &wire, &calib);
        assert_eq!(dmon.stats.control_errors, 1);
        assert!(dmon.policy_for(NodeId(1)).is_none_or(PolicySet::is_empty));
        let dmon = write_own(&["period cpu NaN", "window cpu inf", "above * -inf"]);
        assert_eq!(dmon.stats.control_errors, 3);
        assert!(dmon.policy_for(NodeId(0)).is_none());
    }

    /// Every customization lives in its pair's row: a Dead eviction keeps
    /// them all, a restart of this node forgets them all.
    #[test]
    fn revive_forgets_every_customization_and_a_dead_reap_keeps_them() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        let (maui, etna) = (NodeId(1), NodeId(2));
        // maui and etna customize their streams here...
        let rule = ControlMsg::SetParam {
            metric: "cpu".into(),
            param: ParamSpec::Period { period_s: 2.0 },
        };
        dmon.on_control(maui, &rule, &calib);
        let filter = ControlMsg::DeployFilter {
            source: "{ output[0] = input[LOADAVG]; }".into(),
        };
        dmon.on_control(etna, &filter, &calib);
        // ...this node customizes maui's, and etna refused its filter.
        host.proc.set("cluster/maui/control", "").unwrap();
        host.proc
            .write("cluster/maui/control", "period cpu 2")
            .unwrap();
        let refused = ControlMsg::FilterRejected {
            reason: "unbounded".into(),
        };
        dmon.on_control(etna, &refused, &calib);
        let held = |d: &DMon| {
            [
                d.policy_for(maui).is_some(),
                d.has_filter(etna),
                d.deployed_ctl_len(maui) == 1,
                d.filter_rejection(etna).is_some(),
            ]
        };
        for peer in [maui, etna] {
            let ev = mon_from(peer, mon, 0, 0);
            dmon.on_event(&mut host, &ev, 90, SimTime::from_secs(1), &calib);
        }
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert_eq!(held(&dmon), [true; 4]);
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(10), &calib);
        assert_eq!(dmon.peer_health(maui), Some(PeerHealth::Dead));
        assert_eq!(dmon.peer_health(etna), Some(PeerHealth::Dead));
        assert_eq!(held(&dmon), [true; 4], "the reap keeps them");
        dmon.on_revive();
        assert_eq!(held(&dmon), [false; 4], "the restart forgets them");
    }

    #[test]
    fn submit_stats_track_iteration_costs() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        for s in 1..=5 {
            dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(s), &calib);
        }
        assert_eq!(dmon.stats.submit_cost_us.len(), 5);
        // 2 events of ~190B each: ~2*245us
        let mean = dmon.stats.submit_cost_us.mean();
        assert!(mean > 400.0 && mean < 700.0, "mean {mean}");
    }

    #[test]
    fn revive_clears_volatile_state_and_bumps_epoch() {
        let (mut dmon, _host, _dir, _mon, _ctl, calib) = setup();
        dmon.on_control(
            NodeId(1),
            &ControlMsg::SetParam {
                metric: "*".into(),
                param: ParamSpec::Period { period_s: 2.0 },
            },
            &calib,
        );
        assert!(dmon.policy_for(NodeId(1)).is_some());
        let before = dmon.stats.control_handled;
        dmon.on_revive();
        assert_eq!(dmon.epoch(), 1);
        assert!(dmon.policy_for(NodeId(1)).is_none());
        assert_eq!(dmon.peer_health(NodeId(1)), None);
        assert_eq!(dmon.stats.control_handled, before, "stats survive");
        // The incarnation wraps like the stream positions it tags.
        dmon.epoch = u32::MAX;
        dmon.on_revive();
        assert_eq!(dmon.epoch(), 0);
    }

    #[test]
    fn credit_from_outside_the_rack_spills_and_unknown_senders_are_errors() {
        let (mut dmon, _host, _mon, calib) = racked();
        let credit = ControlMsg::Credit { credits: 4 };
        dmon.on_control(FAR, &credit, &calib);
        assert_eq!(dmon.tracked_peers(), 4);
        assert_eq!(dmon.credits_for(FAR), kecho::INITIAL_CREDITS);
        for from in BOGUS {
            let out = dmon.on_control(from, &credit, &calib);
            assert_eq!(out.cpu, SimDur::ZERO);
            assert!(out.reply.is_none());
            assert_eq!(dmon.credits_for(from), 0);
        }
        assert_eq!(dmon.stats.control_handled, 1);
        assert_eq!(dmon.stats.control_errors, 2);
        assert_eq!(dmon.tracked_peers(), 4);
    }

    #[test]
    fn wire_drop_outside_the_rack_spills_and_unknown_targets_are_ignored() {
        let (mut dmon, _host, _mon, _calib) = racked();
        dmon.on_wire_drop(FAR);
        assert!(dmon.choked_toward(FAR));
        assert_eq!(dmon.tracked_peers(), 4);
        for sub in BOGUS {
            dmon.on_wire_drop(sub);
            assert!(!dmon.choked_toward(sub));
        }
        assert_eq!(dmon.tracked_peers(), 4);
    }
}
