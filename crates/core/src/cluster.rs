//! The runnable cluster: N simulated hosts with one d-mon each, wired
//! through KECho channels over the switched network, driven by the
//! discrete-event loop.
//!
//! This is the composition layer: it owns the [`simcore::Sim`] event
//! queue, schedules each d-mon's polling iterations, turns planned sends
//! into network transfers, charges CPU costs to the hosts' schedulers, and
//! delivers events into the receiving d-mons. Applications (the figure
//! harness, SmartPointer) drive everything through [`ClusterSim`].

use simcore::{HandleMsg, Sim, SimDur, SimTime};
use simnet::link::{BytesWindow, LinkSpec};
use simnet::topology::{Placement, TopologySpec};
use simnet::traffic::FlowTable;
use simnet::{ConnId, Delivery, Network, NodeId, TrafficClass};
use simos::cpu::TaskState;
use simos::host::{Host, HostConfig};
use simos::workload::Linpack;
use simos::TaskId;

use kecho::{wire, ChannelId, Directory, Event, EventKind, Hop, Topology};

use crate::calib::Calib;
use crate::dmon::DMon;
use crate::modules::standard_modules;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node hostnames; length = cluster size.
    pub names: Vec<String>,
    /// Per-node host hardware (same length as `names`).
    pub host_cfgs: Vec<HostConfig>,
    /// d-mon polling period (the paper compares 1 s and 2 s).
    pub poll_period: SimDur,
    /// Link parameters (defaults to the paper's Fast Ethernet).
    pub link: LinkSpec,
    /// Channel routing topology.
    pub topology: Topology,
    /// Physical fabric shape: one switch (the paper's testbed) or racks
    /// behind top-of-rack switches uplinked to a spine. The star is the
    /// 1-rack degenerate case and runs bit-identically to the
    /// pre-hierarchy cluster.
    pub topo: TopologySpec,
    /// Inter-switch (rack ↔ spine) link parameters; only used when
    /// `topo` resolves to more than one rack.
    pub switch_link: LinkSpec,
    /// Cost model.
    pub calib: Calib,
    /// Extra payload bytes per monitoring event (Fig. 7 uses ~5 KB).
    pub event_pad: u32,
    /// Per-node offset of the first poll, avoiding phase-locked polling.
    pub stagger: SimDur,
    /// Subscribe every node to both channels at start (the normal dproc
    /// deployment).
    pub auto_subscribe: bool,
    /// Failure-detector silence bound for Fresh → Stale; `None` keeps the
    /// d-mon default (3× the polling period).
    pub stale_after: Option<SimDur>,
    /// Failure-detector silence bound for Stale → Dead; `None` keeps the
    /// d-mon default (8× the polling period).
    pub dead_after: Option<SimDur>,
}

impl ClusterConfig {
    /// `n` nodes named `node0..`, testbed hardware, 1 s polling.
    pub fn new(n: usize) -> Self {
        let names = (0..n).map(|i| format!("node{i}")).collect();
        Self::with_names(names)
    }

    /// Nodes with explicit names.
    pub fn named(names: &[&str]) -> Self {
        Self::with_names(names.iter().map(std::string::ToString::to_string).collect())
    }

    fn with_names(names: Vec<String>) -> Self {
        let n = names.len();
        ClusterConfig {
            names,
            host_cfgs: vec![HostConfig::testbed(); n],
            poll_period: SimDur::from_secs(1),
            link: LinkSpec::fast_ethernet(),
            topology: Topology::PeerToPeer,
            topo: TopologySpec::Star,
            switch_link: LinkSpec::fast_ethernet(),
            calib: Calib::default(),
            event_pad: 0,
            stagger: SimDur::from_millis(1),
            auto_subscribe: true,
            stale_after: None,
            dead_after: None,
        }
    }

    /// Set the polling period.
    pub fn poll_period(mut self, p: SimDur) -> Self {
        self.poll_period = p;
        self
    }

    /// Set the per-event pad bytes.
    pub fn event_pad(mut self, pad: u32) -> Self {
        self.event_pad = pad;
        self
    }

    /// Set the topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Set the physical fabric shape.
    pub fn topo(mut self, spec: TopologySpec) -> Self {
        self.topo = spec;
        self
    }

    /// Shorthand: racks of `rack_size` nodes behind top-of-rack switches.
    pub fn racks(self, rack_size: usize) -> Self {
        self.topo(TopologySpec::Racks { rack_size })
    }

    /// Set the inter-switch (rack ↔ spine) link parameters.
    pub fn switch_link(mut self, spec: LinkSpec) -> Self {
        self.switch_link = spec;
        self
    }

    /// Set the poll start stagger between nodes. Tiny staggers (e.g.
    /// 1 µs) keep all polls inside one conservative window, which is what
    /// the parallel driver wants; the 1 ms default mimics real boot skew.
    pub fn stagger(mut self, s: SimDur) -> Self {
        self.stagger = s;
        self
    }

    /// Override one node's hardware.
    pub fn host_cfg(mut self, node: usize, cfg: HostConfig) -> Self {
        self.host_cfgs[node] = cfg;
        self
    }

    /// Override the calibration constants.
    pub fn calib(mut self, calib: Calib) -> Self {
        self.calib = calib;
        self
    }

    /// Override the failure-detector bounds (silence before Stale, before
    /// Dead).
    pub fn failure_bounds(mut self, stale_after: SimDur, dead_after: SimDur) -> Self {
        self.stale_after = Some(stale_after);
        self.dead_after = Some(dead_after);
        self
    }
}

/// Typed cluster events. The serial driver routes the three hot event
/// kinds (polls, service completions, deliveries) through the scheduler's
/// typed message lane — no per-event closure boxing — and the parallel
/// engine logs and merges the same values across shards. Fault actions
/// are cold and stay boxed on the serial driver; only the parallel
/// engine schedules `Fault` events.
#[derive(Debug, Clone)]
pub enum ClusterEvent {
    /// One d-mon polling iteration, with its generation token.
    Poll { i: usize, token: u64 },
    /// The node's kernel service thread finished draining one CPU charge.
    SvcDone { i: usize },
    /// A network message arrives at `hop.to`.
    Deliver {
        hop: Hop,
        ev: Event,
        bytes: usize,
        sent_at: SimTime,
        queued: SimDur,
    },
    /// The `k`-th scheduled fault action fires (parallel engine only).
    Fault { k: usize },
}

/// The serial scheduler type: world + typed cluster events.
pub type ClusterSched = Sim<ClusterWorld, ClusterEvent>;

impl HandleMsg<ClusterEvent> for ClusterWorld {
    /// Serial dispatch of the typed events. Program order inside each arm
    /// mirrors the old closure bodies exactly (and therefore the parallel
    /// engine's handlers in [`crate::pcluster`]): the poll re-arm happens
    /// *after* the poll body, like `schedule_periodic`'s tick wrapper did.
    fn handle(&mut self, sim: &mut ClusterSched, msg: ClusterEvent) {
        match msg {
            ClusterEvent::Poll { i, token } => {
                if self.poll_token[i] != token {
                    return; // stale series: crash or re-revive moved on
                }
                self.poll_node(sim, i);
                let period = self.poll_period;
                sim.schedule_msg_in(period, ClusterEvent::Poll { i, token });
            }
            ClusterEvent::SvcDone { i } => self.svc_drain(sim, i),
            ClusterEvent::Deliver {
                hop,
                ev,
                bytes,
                sent_at,
                queued,
            } => self.deliver(sim, hop, ev, bytes, sent_at, queued),
            ClusterEvent::Fault { .. } => {
                unreachable!("serial driver schedules fault actions as closures")
            }
        }
    }
}

/// The mutable world state the event loop drives.
pub struct ClusterWorld {
    /// The switched network.
    pub net: Network,
    /// Background flows (Iperf perturbation).
    pub flows: FlowTable,
    /// One host per node.
    pub hosts: Vec<Host>,
    /// One d-mon per node.
    pub dmons: Vec<DMon>,
    /// One linpack workload handle per node.
    pub linpacks: Vec<Linpack>,
    /// The channel directory.
    pub dir: Directory,
    /// The monitoring channel (rack 0's on a hierarchy — kept under the
    /// legacy name so single-rack consumers are untouched).
    pub mon_chan: ChannelId,
    /// The control channel (rack 0's on a hierarchy).
    pub ctl_chan: ChannelId,
    /// Resolved node → rack map (one rack on the star).
    pub placement: Placement,
    /// Per-rack `(monitoring, control)` channels. On the star this is
    /// exactly `[(mon_chan, ctl_chan)]`; on a hierarchy the rack scoping
    /// is what shrinks every publisher's subscriber set from cluster-size
    /// to rack-size.
    pub rack_chans: Vec<(ChannelId, ChannelId)>,
    /// The spine digest channel rack aggregators publish their bounded
    /// roll-ups on; `None` on the star (no aggregation tier).
    pub digest_chan: Option<ChannelId>,
    /// The cost model.
    pub calib: Calib,
    /// End-to-end monitoring-event latencies (µs).
    pub mon_latency_us: simcore::stats::Sampler,
    /// Lifetime count of delivered monitoring events.
    pub mon_delivered: u64,
    /// Lifetime count of delivered control events.
    pub ctl_delivered: u64,
    /// Per-node d-mon service task (kernel thread).
    pub(crate) svc_tasks: Vec<TaskId>,
    /// Per-node queue of pending CPU charges: the kernel thread is a
    /// serial server, so concurrent charges queue rather than overlap
    /// (overlapping them would under-account the stolen CPU).
    pub(crate) svc_pending: Vec<std::collections::VecDeque<SimDur>>,
    /// Whether each node's service task is currently draining a charge.
    pub(crate) svc_busy: Vec<bool>,
    /// Liveness per node; dead nodes neither poll nor receive (models
    /// crash failures for the fault-tolerance comparison).
    pub(crate) alive: Vec<bool>,
    /// Injected network faults: partitions, message loss, link
    /// degradation — plus the counters every dropped delivery feeds.
    pub fault: simnet::FaultState,
    /// Generation token per node's poll series. Bumped on crash and
    /// revive so a stale periodic closure stops instead of polling a
    /// dead (or doubly-revived) node forever.
    pub(crate) poll_token: Vec<u64>,
    /// Nodes the failure detector evicted from the directory. Only these
    /// auto-rejoin when they find themselves unsubscribed — nodes that
    /// were never subscribed (manual-subscription setups) stay out.
    pub(crate) evicted: Vec<bool>,
    /// Polling period, kept for re-arming a revived node's poll series.
    pub(crate) poll_period: SimDur,
    /// Per-node events handled (sent + received) in a sliding 1 s window —
    /// feeds the Iperf probe's interference model.
    pub(crate) event_meter: Vec<BytesWindow>,
    /// Endpoints and rate of each started flood, so stopping one can also
    /// clear the hosts' NIC-level background observation.
    pub(crate) flow_meta: std::collections::HashMap<simnet::FlowId, (NodeId, NodeId, f64)>,
}

/// The link-layer lane an event travels in. Monitoring data is bulk —
/// it queues and can be tail-dropped at a bounded link queue. Heartbeats
/// and control frames ride the strict-priority lane: tiny, cap-exempt,
/// and never stuck behind a saturated data queue, so failure detection
/// and reconfiguration stay live under overload.
pub(crate) fn class_of(ev: &Event) -> TrafficClass {
    match ev.kind {
        // Digests are data, not liveness: they queue and shed with the
        // bulk lane — a lost digest is superseded by the next one.
        EventKind::Monitoring | EventKind::Digest => TrafficClass::Bulk,
        EventKind::Control | EventKind::Heartbeat => TrafficClass::Priority,
    }
}

impl ClusterWorld {
    /// Cluster size.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// The `(monitoring, control)` channels node `i` lives on — its
    /// rack's pair.
    pub fn chans_of(&self, i: usize) -> (ChannelId, ChannelId) {
        self.rack_chans[self.placement.rack_of(NodeId(i))]
    }

    /// Subscribe `node` to exactly the channels its placement assigns:
    /// its rack's monitoring + control pair, plus the spine digest
    /// channel when it is its rack's aggregator. Rejoin and revival must
    /// restore precisely this set — hard-coding the two flat channels
    /// here is what broke rejoin on hierarchical topologies.
    pub(crate) fn subscribe_node(&mut self, node: NodeId) {
        let (mon, ctl) = self.chans_of(node.0);
        self.dir.subscribe(mon, node);
        self.dir.subscribe(ctl, node);
        if let Some(dg) = self.digest_chan {
            if self.placement.is_aggregator(node) {
                self.dir.subscribe(dg, node);
            }
        }
    }

    /// Remove `node` from exactly the channels [`ClusterWorld::subscribe_node`]
    /// put it on — the eviction mirror of the rejoin path.
    pub(crate) fn unsubscribe_node(&mut self, node: NodeId) {
        let (mon, ctl) = self.chans_of(node.0);
        self.dir.unsubscribe(mon, node);
        self.dir.unsubscribe(ctl, node);
        if let Some(dg) = self.digest_chan {
            if self.placement.is_aggregator(node) {
                self.dir.unsubscribe(dg, node);
            }
        }
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Node id by hostname.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.hosts.iter().position(|h| h.name == name).map(NodeId)
    }

    /// Events per second (sent + received) a node handled recently.
    pub fn event_rate(&mut self, node: NodeId, now: SimTime) -> f64 {
        self.event_meter[node.0].bytes(now) as f64 / self.event_meter[node.0].window().as_secs_f64()
    }

    /// Charge CPU time to a node's d-mon kernel thread. Charges drain
    /// serially: the service task is runnable while work is pending, so
    /// compute workloads (linpack) lose exactly the charged CPU time.
    pub fn charge_cpu(&mut self, sim: &mut ClusterSched, node: NodeId, cost: SimDur) {
        if cost.is_zero() {
            return;
        }
        let i = node.0;
        self.svc_pending[i].push_back(cost);
        if !self.svc_busy[i] {
            self.svc_drain(sim, i);
        }
    }

    fn svc_drain(&mut self, sim: &mut ClusterSched, i: usize) {
        let now = sim.now();
        let task = self.svc_tasks[i];
        let Some(cost) = self.svc_pending[i].pop_front() else {
            if self.svc_busy[i] {
                self.svc_busy[i] = false;
                self.hosts[i].cpu.set_state(now, task, TaskState::Sleeping);
            }
            return;
        };
        let host = &mut self.hosts[i];
        host.cpu.advance(now);
        if !self.svc_busy[i] {
            self.svc_busy[i] = true;
            host.cpu.set_state(now, task, TaskState::Runnable);
        }
        let wall = SimDur::from_secs_f64(cost.as_secs_f64() / self.hosts[i].cpu.share());
        sim.schedule_msg_in(wall, ClusterEvent::SvcDone { i });
    }

    /// Send an event over the network and schedule its delivery. In the
    /// central-concentrator topology, leaf-to-leaf hops detour via the
    /// hub, which relays them onward at delivery time.
    pub fn transmit(&mut self, sim: &mut ClusterSched, mut hop: Hop, ev: Event, bytes: usize) {
        if let Topology::Central(hub) = self.dir.topology() {
            if hop.from != hub && hop.to != hub {
                hop = Hop {
                    from: hop.from,
                    to: hub,
                };
            }
        }
        if !self.alive[hop.from.0] {
            return;
        }
        let now = sim.now();
        self.event_meter[hop.from.0].record(now, 1);
        self.hosts[hop.from.0].on_net_bytes(bytes as u64);
        let delivery: Delivery = self
            .net
            .send_class(now, hop.from, hop.to, bytes, class_of(&ev));
        if let Some(dir) = delivery.dropped {
            // An uplink tail-drop happened in the sender's own kernel —
            // locally observable, so the publisher's d-mon chokes the
            // stream instead of burning more credits on a dead queue.
            // Downlink drops happen inside the switch; no one learns of
            // them here (the subscriber infers the gap later).
            if dir == simnet::DropDir::Uplink && ev.kind == EventKind::Monitoring {
                if let (true, Some(sub)) = (hop.from == ev.sender, ev.target) {
                    self.dmons[hop.from.0].on_wire_drop(sub);
                }
            }
            return;
        }
        let sent_at = now;
        let queued = delivery.queued;
        sim.schedule_msg_at(
            delivery.deliver_at,
            ClusterEvent::Deliver {
                hop,
                ev,
                bytes,
                sent_at,
                queued,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &mut self,
        sim: &mut ClusterSched,
        hop: Hop,
        ev: Event,
        bytes: usize,
        sent_at: SimTime,
        queued: SimDur,
    ) {
        let now = sim.now();
        let to = hop.to;
        if !self.alive[to.0] {
            self.fault.note_crash_drop();
            return; // delivered into a dead NIC: lost
        }
        if self.fault.should_drop(hop.from, to).is_some() {
            return; // destroyed on the wire: partition or injected loss
        }
        let one_way = now.since(sent_at);
        self.event_meter[to.0].record(now, 1);
        self.hosts[to.0].on_net_bytes(bytes as u64);

        // Central-concentrator transit: a hub receiving an event addressed
        // elsewhere relays it onward instead of consuming it.
        if let Topology::Central(hub) = self.dir.topology() {
            if to == hub {
                if let Some(target) = ev.target {
                    if target != hub {
                        let relay_cost = self.calib.receive_cost(bytes)
                            + self.calib.submit_cost(bytes)
                            + self.calib.kernel_path_recv
                            + self.calib.kernel_path_send;
                        self.charge_cpu(sim, hub, relay_cost);
                        // Relay directly (not via transmit) so the final
                        // delivery keeps the original send time and the
                        // latency sampler sees true end-to-end latency.
                        self.event_meter[hub.0].record(now, 1);
                        let relay_hop = Hop {
                            from: hub,
                            to: target,
                        };
                        let delivery = self.net.send_class(now, hub, target, bytes, class_of(&ev));
                        if delivery.dropped.is_some() {
                            return; // relay leg tail-dropped
                        }
                        let relay_queued = delivery.queued;
                        sim.schedule_msg_at(
                            delivery.deliver_at,
                            ClusterEvent::Deliver {
                                hop: relay_hop,
                                ev,
                                bytes,
                                sent_at,
                                queued: relay_queued,
                            },
                        );
                        return;
                    }
                }
            }
        }

        // Kernel connection tracking on the receiving host.
        let conn = ConnId {
            local: to,
            remote: ev.sender,
            proto: simnet::conn::Proto::Tcp,
            tag: ev.channel,
        };
        self.hosts[to.0].conns.open(conn, now);
        self.hosts[to.0]
            .conns
            .record_delivery(conn, now, bytes as u64, one_way);
        // Heavy queueing means the transport retransmitted: NET MON's
        // per-connection counters should show congestion.
        if queued > self.calib.rto {
            self.hosts[to.0].conns.record_retransmission(conn);
        }

        match ev.kind {
            EventKind::Monitoring => {
                self.mon_delivered += 1;
                self.mon_latency_us.add(one_way.as_micros_f64());
                let handler = {
                    // Disjoint field borrows: calib is read-only next to the
                    // mutable dmon/host splits, so no clone is needed.
                    let calib = &self.calib;
                    let (dmon, host) = Self::dmon_host(&mut self.dmons, &mut self.hosts, to.0);
                    dmon.on_event(host, &ev, bytes, now, calib)
                };
                self.charge_cpu(sim, to, handler + self.calib.kernel_path_recv);

                // Central-concentrator topology: the hub relays.
                if let Topology::Central(hub) = self.dir.topology() {
                    if to == hub {
                        if let Some(origin) = ev.as_monitoring().map(|m| m.origin) {
                            if origin != hub {
                                let chan = ChannelId(ev.channel);
                                let hops = self.dir.plan_forward(chan, origin);
                                for fwd in hops {
                                    let relay_cost =
                                        self.calib.submit_cost(bytes) + self.calib.kernel_path_send;
                                    self.charge_cpu(sim, hub, relay_cost);
                                    self.transmit(sim, fwd, ev.clone(), bytes);
                                }
                            }
                        }
                    }
                }
                ev.recycle();
            }
            EventKind::Heartbeat => {
                let handler = self.dmons[to.0].on_heartbeat(&ev, now, &self.calib);
                self.charge_cpu(sim, to, handler + self.calib.heartbeat_path_recv);
            }
            EventKind::Digest => {
                let handler = {
                    let calib = &self.calib;
                    let (dmon, host) = Self::dmon_host(&mut self.dmons, &mut self.hosts, to.0);
                    dmon.on_digest(host, &ev, bytes, now, calib)
                };
                self.charge_cpu(sim, to, handler + self.calib.kernel_path_recv);
            }
            EventKind::Control => {
                self.ctl_delivered += 1;
                if let Some(msg) = ev.as_control() {
                    let outcome = self.dmons[to.0].on_control(ev.sender, msg, &self.calib);
                    self.charge_cpu(sim, to, outcome.cpu + self.calib.kernel_path_recv);
                    if let Some(reply) = outcome.reply {
                        // E.g. a filter rejection travelling back to the
                        // subscriber that tried to deploy it.
                        let rev =
                            self.dmons[to.0].make_control_event(self.ctl_chan, ev.sender, reply);
                        let bytes = wire::encoded_size(&rev);
                        let send_cost = self.calib.submit_cost(bytes) + self.calib.kernel_path_send;
                        self.charge_cpu(sim, to, send_cost);
                        let hop = Hop {
                            from: to,
                            to: ev.sender,
                        };
                        self.transmit(sim, hop, rev, bytes);
                    }
                }
            }
        }
    }

    fn dmon_host<'a>(
        dmons: &'a mut [DMon],
        hosts: &'a mut [Host],
        i: usize,
    ) -> (&'a mut DMon, &'a mut Host) {
        (&mut dmons[i], &mut hosts[i])
    }

    /// Crash a node: it stops polling, sending, and receiving. Other
    /// nodes' d-mons keep running — with peer-to-peer channels the rest of
    /// the cluster keeps exchanging monitoring data; with a central
    /// collector, losing the hub silences everyone (the paper's fault-
    /// tolerance argument).
    pub fn kill_node(&mut self, node: NodeId) {
        let i = node.0;
        if !self.alive[i] {
            return;
        }
        self.alive[i] = false;
        // Invalidate the node's poll series so the periodic closure stops
        // at its next tick instead of no-op-firing forever.
        self.poll_token[i] += 1;
        // In-flight kernel-thread work dies with the node.
        self.svc_pending[i].clear();
    }

    /// Bring a crashed node back: it rejoins the channel registry, bumps
    /// its d-mon epoch (so peers see a restart, not a gap), and restarts
    /// its poll series one period from now. No-op on live nodes.
    pub fn revive_node(&mut self, sim: &mut ClusterSched, node: NodeId) {
        let i = node.0;
        if self.alive[i] {
            return;
        }
        self.alive[i] = true;
        // Proc writes queued before the crash died with it.
        let _ = self.hosts[i].proc.drain_writes();
        self.dmons[i].on_revive();
        // Registry re-bootstrap: the revived node re-announces itself on
        // its rack's channels (plus the digest channel when it is the
        // rack aggregator).
        self.subscribe_node(node);
        self.evicted[i] = false;
        self.notify_rejoin(node, sim.now());
        self.poll_token[i] += 1;
        let first = sim.now() + self.poll_period;
        Self::arm_poll(sim, i, self.poll_token[i], first);
    }

    /// Schedule a node's poll series: one typed `Poll` message; each
    /// firing re-arms the next (see [`HandleMsg::handle`]). The series
    /// self-cancels when the node's generation token moves on (crash or
    /// re-revive).
    fn arm_poll(sim: &mut ClusterSched, i: usize, token: u64, first: SimTime) {
        sim.schedule_msg_at(first, ClusterEvent::Poll { i, token });
    }

    /// Apply one fault action right now. Crash/revive route through the
    /// node lifecycle; network faults mutate [`ClusterWorld::fault`].
    pub fn apply_fault(&mut self, sim: &mut ClusterSched, action: &simnet::FaultAction) {
        match *action {
            simnet::FaultAction::Crash(node) => self.kill_node(node),
            simnet::FaultAction::Revive(node) => self.revive_node(sim, node),
            ref other => self.fault.apply(&mut self.net, other),
        }
    }

    /// Whether a node is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.0]
    }

    /// Run one d-mon polling iteration for node `i`. No-op on dead nodes.
    pub fn poll_node(&mut self, sim: &mut ClusterSched, i: usize) {
        if !self.alive[i] {
            return;
        }
        let now = sim.now();
        let (mon, ctl) = self.chans_of(i);
        let mut outcome = {
            let dir = &self.dir;
            let calib = &self.calib;
            // Split borrows: dmons[i], hosts[i], dir and calib are
            // distinct fields.
            let dmon = &mut self.dmons[i];
            let host = &mut self.hosts[i];
            dmon.poll(host, dir, mon, ctl, now, calib)
        };
        self.charge_cpu(sim, NodeId(i), outcome.cpu_cost);
        for (hop, ev, bytes) in outcome.sends.drain(..) {
            self.transmit(sim, hop, ev, bytes);
        }
        self.dmons[i].recycle_sends(outcome.sends);
        // Failure-detector verdicts become directory evictions: the dead
        // peer stops being a subscriber, so every publisher's read-set
        // logic stops sampling, filtering, and transmitting for it. The
        // eviction removes exactly what the peer's placement subscribed.
        for &peer in &outcome.dead_peers {
            self.unsubscribe_node(peer);
            self.evicted[peer.0] = true;
        }
        // A node evicted during a partition notices it is no longer a
        // member once it can poll again and re-registers — recovery is
        // symmetric even when both sides declared each other dead.
        if outcome.rejoin && self.evicted[i] {
            self.subscribe_node(NodeId(i));
            self.evicted[i] = false;
            self.notify_rejoin(NodeId(i), now);
        }
        // The aggregation tier: after the regular poll, a rack aggregator
        // folds its members' latest samples into one bounded digest and
        // republishes it on the spine digest channel.
        if let Some(dg) = self.digest_chan {
            let node = NodeId(i);
            if self.placement.is_aggregator(node) {
                let rack = self.placement.rack_of(node);
                let members = self.placement.rack(rack).range();
                let planned = {
                    let dir = &self.dir;
                    let calib = &self.calib;
                    self.dmons[i].poll_digest(
                        dir,
                        dg,
                        rack as u32,
                        members,
                        &outcome.dead_peers,
                        calib,
                    )
                };
                if let Some((sends, cpu)) = planned {
                    self.charge_cpu(sim, node, cpu);
                    for (hop, ev, bytes) in sends {
                        self.transmit(sim, hop, ev, bytes);
                    }
                }
            }
        }
    }

    /// Propagate a channel-membership change: every live member's d-mon
    /// hears that `node` re-registered and lets its failure detector
    /// downgrade a Dead verdict accordingly.
    fn notify_rejoin(&mut self, node: NodeId, now: SimTime) {
        for (j, dmon) in self.dmons.iter_mut().enumerate() {
            if j != node.0 && self.alive[j] {
                dmon.on_peer_rejoin(node, now);
            }
        }
    }
}

/// The cluster simulation: world + event loop + convenience API.
///
/// By default events run on the serial closure-based scheduler. With
/// [`ClusterSim::set_threads`] the same world runs on the sharded
/// parallel engine ([`crate::pcluster`]), bit-identical to the serial
/// run.
pub struct ClusterSim {
    sim: ClusterSched,
    world: ClusterWorld,
    poll_period: SimDur,
    stagger: SimDur,
    started: bool,
    threads: usize,
    driver: Option<crate::pcluster::ParallelDriver>,
}

impl ClusterSim {
    /// Build a cluster from a configuration. Channels are opened and (by
    /// default) every node subscribes to both.
    // detlint: replay-only — setup-time bootstrap, before any shard window
    pub fn new(cfg: ClusterConfig) -> Self {
        let n = cfg.names.len();
        assert!(n > 0, "cluster needs at least one node");
        assert_eq!(cfg.host_cfgs.len(), n, "one host config per node");
        let placement = cfg.topo.resolve(n);
        let net = if placement.is_star() {
            Network::new(n, cfg.link)
        } else {
            Network::hierarchical(&placement, cfg.link, cfg.switch_link)
        };
        let mut dir = Directory::new(cfg.topology);
        // The star opens exactly the two legacy channels — same names,
        // same insertion order as before the hierarchy existed, so every
        // single-rack fingerprint is unchanged. A hierarchy opens one
        // monitoring + control pair per rack plus the spine digest
        // channel.
        let (rack_chans, digest_chan) = if placement.is_star() {
            let mon = dir.open("dproc-monitoring");
            let ctl = dir.open("dproc-control");
            (vec![(mon, ctl)], None)
        } else {
            let chans: Vec<(ChannelId, ChannelId)> = (0..placement.n_racks())
                .map(|k| {
                    let mon = dir.open(&format!("dproc-monitoring-rack{k}"));
                    let ctl = dir.open(&format!("dproc-control-rack{k}"));
                    (mon, ctl)
                })
                .collect();
            let dg = dir.open("dproc-digest");
            (chans, Some(dg))
        };
        let (mon_chan, ctl_chan) = rack_chans[0];
        let shared_names = std::sync::Arc::new(cfg.names.clone());
        let mut hosts = Vec::with_capacity(n);
        let mut dmons = Vec::with_capacity(n);
        let mut svc_tasks = Vec::with_capacity(n);
        for i in 0..n {
            let mut host = Host::new(cfg.names[i].clone(), NodeId(i), &cfg.host_cfgs[i]);
            host.link_capacity_bps = cfg.link.bandwidth_bps;
            let svc = host.cpu.spawn_service(SimTime::ZERO, "d-mon");
            svc_tasks.push(svc);
            hosts.push(host);
            // A d-mon's neighbourhood is its rack (the whole cluster on a
            // star): per-peer state is sized to it, not to the cluster.
            let home = placement.rack(placement.rack_of(NodeId(i))).range();
            let mut dmon = DMon::new_shared(
                NodeId(i),
                shared_names.clone(),
                home,
                standard_modules(),
                cfg.poll_period,
            );
            dmon.set_event_pad(cfg.event_pad);
            if let (Some(stale), Some(dead)) = (cfg.stale_after, cfg.dead_after) {
                dmon.set_failure_bounds(stale, dead);
            }
            dmons.push(dmon);
            if cfg.auto_subscribe {
                let (mon, ctl) = rack_chans[placement.rack_of(NodeId(i))];
                dir.subscribe(mon, NodeId(i));
                dir.subscribe(ctl, NodeId(i));
                if let Some(dg) = digest_chan {
                    if placement.is_aggregator(NodeId(i)) {
                        dir.subscribe(dg, NodeId(i));
                    }
                }
            }
        }
        let world = ClusterWorld {
            net,
            flows: FlowTable::new(),
            hosts,
            dmons,
            linpacks: (0..n).map(|_| Linpack::new()).collect(),
            dir,
            mon_chan,
            ctl_chan,
            placement,
            rack_chans,
            digest_chan,
            calib: cfg.calib.clone(),
            mon_latency_us: simcore::stats::Sampler::new(),
            mon_delivered: 0,
            ctl_delivered: 0,
            svc_tasks,
            svc_pending: (0..n).map(|_| std::collections::VecDeque::new()).collect(),
            svc_busy: vec![false; n],
            alive: vec![true; n],
            fault: simnet::FaultState::new(0),
            poll_token: vec![0; n],
            evicted: vec![false; n],
            poll_period: cfg.poll_period,
            event_meter: (0..n)
                .map(|_| BytesWindow::new(SimDur::from_secs(1)))
                .collect(),
            flow_meta: std::collections::HashMap::new(),
        };
        ClusterSim {
            sim: Sim::new(),
            world,
            poll_period: cfg.poll_period,
            stagger: cfg.stagger,
            started: false,
            threads: 1,
            driver: None,
        }
    }

    /// Run the simulation on `threads` worker shards (1 = the serial
    /// scheduler, the default). Must be called before [`ClusterSim::start`].
    /// The parallel run is bit-identical to the serial one; shard count is
    /// clamped to the node count.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(!self.started, "set_threads must precede start()");
        assert!(threads > 0, "threads must be at least 1");
        self.threads = threads;
        self.driver = if threads > 1 {
            Some(crate::pcluster::ParallelDriver::new(
                &self.world.placement,
                threads,
                self.world.net.lookahead(),
            ))
        } else {
            None
        };
    }

    /// Configured worker thread count (1 = serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of worker shards when parallel, else 1.
    pub fn shards(&self) -> usize {
        self.driver
            .as_ref()
            .map_or(1, super::pcluster::ParallelDriver::shards)
    }

    /// Parallel engine counters (`None` on the serial driver).
    pub fn parallel_stats(&self) -> Option<simcore::pdes::EngineStats> {
        self.driver
            .as_ref()
            .map(super::pcluster::ParallelDriver::stats)
    }

    /// Schedule the periodic d-mon polls. Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let n = self.world.len();
        for i in 0..n {
            let first = SimTime::ZERO + self.poll_period + self.stagger * (i as u64);
            if let Some(driver) = self.driver.as_mut() {
                driver.schedule_poll(i, self.world.poll_token[i], first);
            } else {
                ClusterWorld::arm_poll(&mut self.sim, i, self.world.poll_token[i], first);
            }
        }
    }

    /// Schedule an injected-fault timeline. Crash and revive actions run
    /// through the node lifecycle (poll series, registry, epoch); the
    /// rest mutate the network fault state in place. The plan's seed
    /// reseeds the loss RNG so a given plan is deterministic.
    pub fn apply_fault_plan(&mut self, plan: &simnet::FaultPlan) {
        self.world.fault.reseed(plan.seed());
        if let Some(driver) = self.driver.as_mut() {
            driver.schedule_fault_plan(plan.actions());
            return;
        }
        for (t, action) in plan.actions() {
            self.sim
                .schedule_at(t, move |w: &mut ClusterWorld, sim: &mut ClusterSched| {
                    w.apply_fault(sim, &action);
                });
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.driver
            .as_ref()
            .map_or_else(|| self.sim.now(), super::pcluster::ParallelDriver::now)
    }

    /// Run the event loop until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        if let Some(mut driver) = self.driver.take() {
            let world = std::mem::replace(&mut self.world, Self::placeholder_world());
            self.world = driver.run_until(world, t);
            self.driver = Some(driver);
            return;
        }
        self.sim.run_until(&mut self.world, t);
    }

    /// Run the event loop for `d` from now.
    pub fn run_for(&mut self, d: SimDur) {
        let t = self.now() + d;
        self.run_until(t);
    }

    /// An empty stand-in world occupying `self.world` while the parallel
    /// engine owns the real one.
    fn placeholder_world() -> ClusterWorld {
        let mut dir = Directory::new(Topology::PeerToPeer);
        let mon_chan = dir.open("dproc-monitoring");
        let ctl_chan = dir.open("dproc-control");
        ClusterWorld {
            net: Network::new(0, LinkSpec::fast_ethernet()),
            flows: FlowTable::new(),
            hosts: Vec::new(),
            dmons: Vec::new(),
            linpacks: Vec::new(),
            dir,
            mon_chan,
            ctl_chan,
            placement: Placement::star(0),
            rack_chans: vec![(mon_chan, ctl_chan)],
            digest_chan: None,
            calib: Calib::default(),
            mon_latency_us: simcore::stats::Sampler::new(),
            mon_delivered: 0,
            ctl_delivered: 0,
            svc_tasks: Vec::new(),
            svc_pending: Vec::new(),
            svc_busy: Vec::new(),
            alive: Vec::new(),
            fault: simnet::FaultState::new(0),
            poll_token: Vec::new(),
            evicted: Vec::new(),
            poll_period: SimDur::from_secs(1),
            event_meter: Vec::new(),
            flow_meta: std::collections::HashMap::new(),
        }
    }

    /// Immutable world access.
    pub fn world(&self) -> &ClusterWorld {
        &self.world
    }

    /// Mutable world access (between runs).
    pub fn world_mut(&mut self) -> &mut ClusterWorld {
        &mut self.world
    }

    /// Both world and scheduler, for app layers that transmit directly.
    /// Serial driver only.
    pub fn parts(&mut self) -> (&mut ClusterWorld, &mut ClusterSched) {
        assert!(
            self.driver.is_none(),
            "ClusterSim::parts requires the serial driver (threads=1)"
        );
        (&mut self.world, &mut self.sim)
    }

    /// Schedule an arbitrary action at time `t`. Serial driver only —
    /// ad-hoc closures cannot be logged and replayed by the parallel
    /// engine.
    pub fn at(
        &mut self,
        t: SimTime,
        f: impl FnOnce(&mut ClusterWorld, &mut ClusterSched) + 'static,
    ) {
        assert!(
            self.driver.is_none(),
            "ClusterSim::at requires the serial driver (threads=1)"
        );
        self.sim.schedule_at(t, f);
    }

    /// Write into a `/proc/cluster/<target>/control` file on `node` — the
    /// application-facing customization path. Creates the file if the
    /// target has not been seen yet.
    pub fn write_control(&mut self, node: NodeId, target_name: &str, text: &str) {
        let path = format!("cluster/{target_name}/control");
        let host = &mut self.world.hosts[node.0];
        if !host.proc.exists(&path) {
            host.proc.set(&path, "").expect("control path");
        }
        host.proc.write(&path, text).expect("control write");
    }

    /// Start `threads` linpack threads on a node.
    pub fn start_linpack(&mut self, node: NodeId, threads: usize) {
        let now = self.sim.now();
        let host = &mut self.world.hosts[node.0];
        self.world.linpacks[node.0].start_threads(&mut host.cpu, now, threads);
    }

    /// Begin a linpack measurement interval on a node.
    pub fn mark_linpack(&mut self, node: NodeId) {
        let now = self.sim.now();
        let host = &mut self.world.hosts[node.0];
        self.world.linpacks[node.0].mark(&mut host.cpu, now);
    }

    /// Mflops since the last mark on a node.
    pub fn linpack_mflops(&mut self, node: NodeId) -> f64 {
        let now = self.sim.now();
        let host = &mut self.world.hosts[node.0];
        self.world.linpacks[node.0].mflops_since_mark(&mut host.cpu, now)
    }

    /// Start an Iperf-style UDP flood between two nodes. Both endpoints'
    /// NIC counters observe the traffic (NET MON's available-bandwidth
    /// estimate reflects it).
    pub fn start_iperf(&mut self, from: NodeId, to: NodeId, bps: f64) -> simnet::FlowId {
        let id = self.world.flows.start(&mut self.world.net, from, to, bps);
        self.world.hosts[from.0].observed_background_bps += bps;
        self.world.hosts[to.0].observed_background_bps += bps;
        self.world.flow_meta.insert(id, (from, to, bps));
        id
    }

    /// Stop a flood; clears the endpoints' NIC observations. Idempotent.
    pub fn stop_iperf(&mut self, id: simnet::FlowId) {
        self.world.flows.stop(&mut self.world.net, id);
        if let Some((from, to, bps)) = self.world.flow_meta.remove(&id) {
            let f = &mut self.world.hosts[from.0].observed_background_bps;
            *f = (*f - bps).max(0.0);
            let t = &mut self.world.hosts[to.0].observed_background_bps;
            *t = (*t - bps).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_node_cluster_builds_figure1_tree() {
        let mut sim = ClusterSim::new(ClusterConfig::named(&["alan", "maui", "etna"]));
        sim.start();
        sim.run_until(SimTime::from_secs(5));
        let w = sim.world();
        // Every node sees every other node's metrics under /proc/cluster.
        for host_idx in 0..3 {
            for name in ["alan", "maui", "etna"] {
                assert!(
                    w.hosts[host_idx]
                        .proc
                        .exists(&format!("cluster/{name}/cpu")),
                    "host {host_idx} missing cluster/{name}/cpu"
                );
            }
        }
        assert!(w.mon_delivered > 0);
    }

    #[test]
    fn hierarchical_racks_scope_channels_and_flow_digests() {
        let mut sim = ClusterSim::new(ClusterConfig::new(6).racks(3));
        sim.start();
        sim.run_until(SimTime::from_secs(10));
        let w = sim.world();
        assert_eq!(w.placement.n_racks(), 2);
        assert_eq!(w.rack_chans.len(), 2);
        assert!(w.digest_chan.is_some());
        // Rack-scoped monitoring: members see their rack-mates' full
        // metric trees but nothing from other racks.
        assert!(w.hosts[1].proc.exists("cluster/node2/cpu"));
        assert!(!w.hosts[1].proc.exists("cluster/node4/cpu"));
        // Aggregators exchange bounded digests across the spine and
        // surface them as /proc rack summaries.
        let d0 = w.dmons[0].rack_digest(1).expect("rack 1 digest at node 0");
        assert_eq!(d0.members, 3);
        assert_eq!(d0.origin, NodeId(3));
        assert!(w.dmons[3].rack_digest(0).is_some());
        assert!(w.hosts[0].proc.exists("cluster/rack1/cpu"));
        assert!(w.hosts[3].proc.exists("cluster/rack0/cpu"));
        assert!(w.dmons[0].stats.digests_sent > 0);
        assert!(w.dmons[0].stats.digest_staleness_s.len() > 0);
        // Non-aggregators stay off the spine entirely.
        assert_eq!(w.dmons[1].stats.digests_received, 0);
        assert!(!w.hosts[1].proc.exists("cluster/rack1/cpu"));
    }

    #[test]
    fn star_has_no_aggregation_tier() {
        let mut sim = ClusterSim::new(ClusterConfig::new(3));
        sim.start();
        sim.run_until(SimTime::from_secs(5));
        let w = sim.world();
        assert!(w.digest_chan.is_none());
        assert_eq!(w.rack_chans.len(), 1);
        assert!(w.dmons.iter().all(|d| d.stats.digests_sent == 0));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = ClusterSim::new(ClusterConfig::new(4));
            sim.start();
            sim.run_until(SimTime::from_secs(10));
            (
                sim.world().mon_delivered,
                sim.world().mon_latency_us.mean(),
                sim.world().dmons[0].stats.events_sent,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn monitoring_traffic_scales_with_nodes() {
        let delivered = |n: usize| {
            let mut sim = ClusterSim::new(ClusterConfig::new(n));
            sim.start();
            sim.run_until(SimTime::from_secs(10));
            sim.world().mon_delivered
        };
        let d2 = delivered(2);
        let d8 = delivered(8);
        // n*(n-1) scaling: 8 nodes produce ~28x the pairs of 2 nodes.
        assert!(d8 > d2 * 20, "d2={d2} d8={d8}");
    }

    #[test]
    fn control_write_reaches_remote_dmon() {
        let mut sim = ClusterSim::new(ClusterConfig::new(3));
        sim.start();
        sim.run_until(SimTime::from_secs(2));
        // node1 asks node0 for a 2s period on all metrics.
        sim.write_control(NodeId(1), "node0", "period * 2");
        sim.run_until(SimTime::from_secs(8));
        let w = sim.world();
        let p = w.dmons[0].policy_for(NodeId(1)).expect("policy installed");
        assert_eq!(p.rule_count("LOADAVG"), 1);
    }

    #[test]
    fn filter_deployment_over_control_channel() {
        let mut sim = ClusterSim::new(ClusterConfig::new(2));
        sim.start();
        sim.run_until(SimTime::from_secs(2));
        sim.write_control(
            NodeId(1),
            "node0",
            "filter { if (input[LOADAVG].value > 100.0) { output[0] = input[LOADAVG]; } }",
        );
        sim.run_until(SimTime::from_secs(4));
        assert!(sim.world().dmons[0].has_filter(NodeId(1)));
        // The filter blocks everything (load never > 100): node1 stops
        // receiving fresh values from node0.
        let before = sim.world().dmons[1].stats.events_received;
        sim.run_until(SimTime::from_secs(14));
        let after = sim.world().dmons[1].stats.events_received;
        assert_eq!(before, after, "filter suppressed all events");
    }

    #[test]
    fn filter_rejection_travels_back_to_subscriber() {
        let mut sim = ClusterSim::new(ClusterConfig::new(2));
        sim.start();
        sim.run_until(SimTime::from_secs(2));
        sim.write_control(NodeId(1), "node0", "filter { while (1) { } }");
        sim.run_until(SimTime::from_secs(6));
        // The publisher refused the filter and never installed it...
        assert!(!sim.world().dmons[0].has_filter(NodeId(1)));
        assert_eq!(sim.world().dmons[0].stats.filters_rejected, 1);
        // ...and the subscriber learned why, over the control channel.
        let reason = sim.world().dmons[1]
            .filter_rejection(NodeId(0))
            .expect("rejection reply delivered");
        assert!(reason.contains("unbounded"), "reason: {reason}");
    }

    #[test]
    fn linpack_feels_monitoring_load() {
        // One node, no monitoring traffic: full speed.
        let mut quiet =
            ClusterSim::new(ClusterConfig::new(1).host_cfg(0, HostConfig::uniprocessor()));
        quiet.start();
        quiet.start_linpack(NodeId(0), 1);
        quiet.mark_linpack(NodeId(0));
        quiet.run_until(SimTime::from_secs(30));
        let mflops_quiet = quiet.linpack_mflops(NodeId(0));

        // Eight nodes: node 0 handles 7 incoming + 7 outgoing events/s.
        let mut busy =
            ClusterSim::new(ClusterConfig::new(8).host_cfg(0, HostConfig::uniprocessor()));
        busy.start();
        busy.start_linpack(NodeId(0), 1);
        busy.mark_linpack(NodeId(0));
        busy.run_until(SimTime::from_secs(30));
        let mflops_busy = busy.linpack_mflops(NodeId(0));

        assert!(
            mflops_busy < mflops_quiet * 0.99,
            "monitoring should perturb: {mflops_quiet} -> {mflops_busy}"
        );
        assert!(
            mflops_busy > mflops_quiet * 0.90,
            "but only slightly: {mflops_quiet} -> {mflops_busy}"
        );
    }

    #[test]
    fn central_topology_relays_through_hub() {
        let cfg = ClusterConfig::new(4).topology(Topology::Central(NodeId(0)));
        let mut sim = ClusterSim::new(cfg);
        sim.start();
        sim.run_until(SimTime::from_secs(5));
        let w = sim.world();
        // Non-hub nodes still end up with each other's data.
        assert!(w.hosts[1].proc.exists("cluster/node2/cpu"));
        assert!(w.hosts[2].proc.exists("cluster/node3/cpu"));
        // The hub's links carry far more traffic than a leaf's (its own
        // submissions plus one relay per leaf-to-leaf pair).
        let hub_msgs = w.net.uplink(NodeId(0)).messages() + w.net.downlink(NodeId(0)).messages();
        let leaf_msgs = w.net.uplink(NodeId(1)).messages() + w.net.downlink(NodeId(1)).messages();
        assert!(
            hub_msgs > leaf_msgs * 2,
            "hub {hub_msgs} vs leaf {leaf_msgs}"
        );
    }

    #[test]
    fn iperf_flood_perturbs_monitoring_latency() {
        let mut sim = ClusterSim::new(ClusterConfig::new(2));
        sim.start();
        sim.run_until(SimTime::from_secs(10));
        let lat_quiet = sim.world().mon_latency_us.mean();

        let mut sim2 = ClusterSim::new(ClusterConfig::new(2));
        sim2.start();
        sim2.start_iperf(NodeId(0), NodeId(1), 90e6);
        sim2.run_until(SimTime::from_secs(10));
        let lat_flooded = sim2.world().mon_latency_us.mean();
        assert!(
            lat_flooded > lat_quiet * 2.0,
            "flood should inflate latency: {lat_quiet} vs {lat_flooded}"
        );
    }

    #[test]
    fn remote_value_fast_path_matches_proc() {
        let mut sim = ClusterSim::new(ClusterConfig::new(2));
        sim.start();
        // Put some load on node1 so its LOADAVG is nonzero.
        sim.start_linpack(NodeId(1), 2);
        sim.run_until(SimTime::from_secs(120));
        let w = sim.world();
        let (v, _) = w.dmons[0].remote_value(NodeId(1), "LOADAVG").unwrap();
        assert!(v > 1.5, "node0 sees node1's load: {v}");
    }
}

#[cfg(test)]
mod congestion_tests {
    use super::*;
    use simnet::conn::Proto;

    #[test]
    fn congested_monitoring_shows_retransmissions() {
        // Saturate node1's downlink; monitoring events queue past the RTO
        // and the connection stats record retransmissions, which NET MON's
        // detail text surfaces.
        let mut sim = ClusterSim::new(ClusterConfig::new(2).event_pad(500_000));
        sim.start();
        sim.start_iperf(NodeId(0), NodeId(1), 99e6);
        sim.run_until(SimTime::from_secs(30));
        let w = sim.world_mut();
        let conn = ConnId {
            local: NodeId(1),
            remote: NodeId(0),
            proto: Proto::Tcp,
            tag: w.mon_chan.0,
        };
        let retx = w.hosts[1]
            .conns
            .get(conn)
            .map(|s| s.retransmissions())
            .unwrap_or(0);
        assert!(retx > 0, "queueing past the RTO counts retransmissions");
        // And the /proc detail carries it to remote observers.
        let now = sim.now();
        let w = sim.world_mut();
        let sample = crate::modules::NetMon::default().collect_for_test(&mut w.hosts[1], now);
        assert!(sample.contains("retx"), "{sample}");
    }

    #[test]
    fn uncongested_monitoring_has_no_retransmissions() {
        let mut sim = ClusterSim::new(ClusterConfig::new(2));
        sim.start();
        sim.run_until(SimTime::from_secs(30));
        let w = sim.world();
        let conn = ConnId {
            local: NodeId(1),
            remote: NodeId(0),
            proto: Proto::Tcp,
            tag: w.mon_chan.0,
        };
        assert_eq!(w.hosts[1].conns.get(conn).unwrap().retransmissions(), 0);
    }
}
