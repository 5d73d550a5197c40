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
use simnet::link::{DenseWindow, LinkSpec};
use simnet::topology::{Placement, TopologySpec};
use simnet::traffic::FlowTable;
use simnet::{DirLink, Fabric, FaultAction, Leg, Network, NodeId};
use simos::host::{Host, HostConfig};
use simos::workload::Linpack;

use kecho::{ChannelId, Directory, Event, Hop, RecordPool};

use crate::calib::Calib;
use crate::dmon::{DMon, DmonStats};
use crate::modules::standard_modules;
use crate::node::{landed, view_of, Cols, Fx, Member, Node, NodeSet, NodeSvc, Nodes, Sink, View};
use crate::pcluster::ParallelDriver;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node hostnames; length = cluster size. Private: every name is a
    /// usable, distinct `/proc/cluster/<name>/` directory (checked by
    /// [`ClusterConfig::try_named`]), which d-mon relies on.
    names: Vec<String>,
    /// Per-node host hardware (same length as `names`).
    pub host_cfgs: Vec<HostConfig>,
    /// d-mon polling period (the paper compares 1 s and 2 s).
    pub poll_period: SimDur,
    /// Link parameters (defaults to the paper's Fast Ethernet).
    pub link: LinkSpec,
    /// Fabric shape and routing: one switch (the paper's testbed), racks
    /// behind top-of-rack switches uplinked to a spine, or one switch with
    /// a relaying hub host (the central-collector baseline). The star is
    /// the 1-rack degenerate case and runs bit-identically to the
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
    /// Failure-detector silence bound for Fresh → Stale; `None` keeps the
    /// d-mon default (3× the polling period).
    pub stale_after: Option<SimDur>,
    /// Failure-detector silence bound for Stale → Dead; `None` keeps the
    /// d-mon default (8× the polling period).
    pub dead_after: Option<SimDur>,
}

/// Why a list of host names cannot name a cluster's nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// Not a usable `/proc/cluster/<name>/` directory: empty, more than one
    /// path component, `control` / `status` / `overload`, or `rack<k>` (a
    /// rack's digests are filed there).
    Unusable(String),
    /// Given to more than one node.
    Duplicate(String),
}

impl std::fmt::Display for NameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NameError::Unusable(n) => {
                write!(f, "host name {n:?} cannot be a /proc/cluster directory")
            }
            NameError::Duplicate(n) => write!(f, "host name {n:?} is given to two nodes"),
        }
    }
}

impl std::error::Error for NameError {}

impl ClusterConfig {
    /// `n` nodes named `node0..`, testbed hardware, 1 s polling.
    pub fn new(n: usize) -> Self {
        let names = (0..n).map(|i| format!("node{i}")).collect();
        Self::with_names(names)
    }

    /// Nodes with explicit names the caller wrote itself; panics on a set
    /// [`ClusterConfig::try_named`] refuses.
    pub fn named(names: &[&str]) -> Self {
        Self::try_named(names).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Nodes with explicit names from outside the program (a shell line, a
    /// config file). Each becomes the directory `/proc/cluster/<name>/` on
    /// every node, so it must be one non-empty path component, not a leaf
    /// d-mon keeps per node or a rack's digest directory, and unlike every
    /// other name.
    pub fn try_named(names: &[&str]) -> Result<Self, NameError> {
        for (i, name) in names.iter().enumerate() {
            let rack_dir = name
                .strip_prefix("rack")
                .is_some_and(|k| k.parse::<u32>().is_ok());
            if rack_dir || !crate::dmon::leaf_name_ok(name) {
                return Err(NameError::Unusable(name.to_string()));
            }
            if names[..i].contains(name) {
                return Err(NameError::Duplicate(name.to_string()));
            }
        }
        Ok(Self::with_names(
            names.iter().map(std::string::ToString::to_string).collect(),
        ))
    }

    fn with_names(names: Vec<String>) -> Self {
        let n = names.len();
        ClusterConfig {
            names,
            host_cfgs: vec![HostConfig::testbed(); n],
            poll_period: SimDur::from_secs(1),
            link: LinkSpec::fast_ethernet(),
            topo: TopologySpec::Star,
            switch_link: LinkSpec::fast_ethernet(),
            calib: Calib::default(),
            event_pad: 0,
            stagger: SimDur::from_millis(1),
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

    /// Set the fabric shape.
    pub fn topo(mut self, spec: TopologySpec) -> Self {
        self.topo = spec;
        self
    }

    /// Shorthand: racks of `rack_size` nodes behind top-of-rack switches.
    pub fn racks(self, rack_size: usize) -> Self {
        self.topo(TopologySpec::Racks { rack_size })
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

/// Typed cluster events: both engines route every event kind through a
/// typed message lane — no per-event closure boxing — and the sharded
/// engine logs and merges the same values across shards.
#[derive(Debug, Clone)]
pub enum ClusterEvent {
    /// One d-mon polling iteration, with its generation token.
    Poll { i: usize, token: u64 },
    /// A network message arrives at `hop.to`.
    Deliver(Frame),
    /// The `k`-th action of the fault timeline fires.
    Fault { k: usize },
}

/// An event on the wire, as the node it is addressed to receives it.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Sender and receiver of this transfer.
    pub hop: Hop,
    /// The event carried.
    pub ev: Event,
    /// Its encoded size.
    pub bytes: usize,
    /// When the event set out — at its first sender when a concentrator
    /// hub relays it, so the latency sampler sees end-to-end latency.
    pub sent_at: SimTime,
    /// Time this transfer waited behind earlier traffic on its links.
    pub queued: SimDur,
}

// Every delivery moves one of these through the scheduler and into its
// handler by value: two and a half cache lines today.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Frame>() == 152);

impl ClusterEvent {
    /// The node that executes this event. The fault timeline belongs to
    /// no node; it runs as node 0, whose shard hosts it.
    pub(crate) fn node(&self) -> usize {
        match *self {
            ClusterEvent::Poll { i, .. } => i,
            ClusterEvent::Deliver(ref frame) => frame.hop.to.0,
            ClusterEvent::Fault { .. } => 0,
        }
    }
}

/// The serial scheduler type: world + typed cluster events.
pub type ClusterSched = Sim<ClusterWorld, ClusterEvent>;

// A pending event is no larger than a delivery: a call of a registered
// handler (SmartPointer's frames, a periodic timer) rides in the event's
// spare tag values.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(ClusterSched::PENDING_BYTES == 152);

impl HandleMsg<ClusterEvent> for ClusterWorld {
    /// Route an event to its handler. The event is matched where it
    /// arrives — here and in the shard's `execute` — because handing its
    /// 152 bytes on by value to a shared router costs a copy per event.
    fn handle(&mut self, sim: &mut ClusterSched, msg: ClusterEvent) {
        let (now, mut node, view, mut sink) = self.enter(sim, msg.node());
        match msg {
            ClusterEvent::Poll { token, .. } => node.tick(now, token, &view, &mut sink),
            ClusterEvent::Deliver(frame) => node.deliver(now, frame, &view, &mut sink),
            ClusterEvent::Fault { k } => sink.fx(Fx::Member(Member::FaultAction { k })),
        }
        self.settle(sim);
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
    /// Resolved node → rack map (one rack on the star).
    pub placement: Placement,
    /// Per-rack `(monitoring, control)` channels: one pair on the star; on
    /// a hierarchy the rack scoping is what shrinks every publisher's
    /// subscriber set from cluster-size to rack-size.
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
    /// Per-node glue state (service queue, poll series, event meter).
    pub(crate) svc: Vec<NodeSvc>,
    /// Liveness per node; dead nodes neither poll nor receive (models
    /// crash failures for the fault-tolerance comparison).
    pub(crate) alive: Vec<bool>,
    /// Injected network faults: partitions, message loss, link
    /// degradation — plus the counters every dropped delivery feeds.
    pub fault: simnet::FaultState,
    /// Nodes the failure detector evicted from the directory; each
    /// re-registers when its next poll finds it unsubscribed.
    pub(crate) evicted: Vec<bool>,
    /// Polling period, kept for re-arming a revived node's poll series.
    pub(crate) poll_period: SimDur,
    /// The scheduled fault timeline, indexed by `ClusterEvent::Fault::k`.
    pub(crate) fault_plan: Vec<FaultAction>,
    /// Membership effects the running handler emitted, applied when it
    /// returns; empty between events (the buffer is kept for reuse).
    pub(crate) deferred: Vec<Member>,
}

/// The shared state handlers write only through their sink: link
/// reservations past the sender's uplink ([`Sink::wire_send`]), and,
/// through [`Fx`], the latency sampler and the delivery and drop counters.
pub(crate) struct Ledger<'a> {
    fabric: &'a mut Fabric,
    /// Every node's downlink.
    downs: &'a mut [DirLink],
    pub fault: &'a mut simnet::FaultState,
    mon_latency_us: &'a mut simcore::stats::Sampler,
    mon_delivered: &'a mut u64,
    ctl_delivered: &'a mut u64,
    deferred: &'a mut Vec<Member>,
}

impl Ledger<'_> {
    /// Apply one effect. A membership effect is handed back, because it is
    /// not the ledger's to apply.
    #[inline(always)]
    pub fn post(&mut self, fx: Fx) -> Option<Member> {
        match fx {
            Fx::MonDelivered { latency_us } => {
                *self.mon_delivered += 1;
                self.mon_latency_us.add(latency_us);
            }
            Fx::CtlDelivered => *self.ctl_delivered += 1,
            Fx::CrashDrop => self.fault.note_crash_drop(),
            Fx::Member(m) => return Some(m),
        }
        None
    }
}

/// The serial engine's sink: children and deliveries go straight onto the
/// scheduler and ledger effects are applied at once. Membership effects
/// wait in `deferred` until the handler returns — where a shard's replay
/// applies them too.
pub(crate) struct SerialSink<'a> {
    sim: &'a mut ClusterSched,
    ledger: Ledger<'a>,
}

impl Sink for SerialSink<'_> {
    #[inline]
    fn schedule_at(&mut self, at: SimTime, ev: ClusterEvent) {
        self.sim.schedule_msg_at(at, ev);
    }

    /// A frame a switch drops still takes the sequence number its
    /// delivery would have, as a sharded run's post does.
    #[inline(always)]
    fn wire_send(&mut self, frame: Frame, leg: Leg) {
        let (from, to) = (frame.hop.from, frame.hop.to);
        let ledger = &mut self.ledger;
        let d = ledger.fabric.finish(from, to, leg, &mut ledger.downs[to.0]);
        let sim = &mut *self.sim;
        if !landed(frame, d, |at, ev| sim.schedule_msg_at(at, ev)) {
            sim.skip_seq();
        }
    }

    #[inline(always)]
    fn fx(&mut self, fx: Fx) {
        if let Some(m) = self.ledger.post(fx) {
            self.ledger.deferred.push(m);
        }
    }

    fn should_drop(&mut self, from: NodeId, to: NodeId) -> bool {
        self.ledger.fault.should_drop(from, to).is_some()
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

    /// The channels `node`'s placement assigns it: its rack's monitoring
    /// and control pair, plus the spine digest channel when it is its
    /// rack's aggregator. Eviction, rejoin and revival all go through
    /// this one set — hard-coding the two flat channels is what broke
    /// rejoin on hierarchical topologies.
    fn channels_of(&self, node: NodeId) -> impl Iterator<Item = ChannelId> {
        let (mon, ctl) = self.chans_of(node.0);
        let dg = self
            .digest_chan
            .filter(|_| self.placement.is_aggregator(node));
        [mon, ctl].into_iter().chain(dg)
    }

    // detlint: replay-only
    fn subscribe_node(&mut self, node: NodeId) {
        for chan in self.channels_of(node) {
            self.dir.subscribe(chan, node);
        }
    }

    // detlint: replay-only
    fn unsubscribe_node(&mut self, node: NodeId) {
        for chan in self.channels_of(node) {
            self.dir.unsubscribe(chan, node);
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
        let meter = &mut self.svc[node.0].event_meter;
        meter.bytes(now) as f64 / meter.window().as_secs_f64()
    }

    /// Iperf-style available bandwidth between two nodes, in Mbps, as the
    /// paper's Fig. 5 and Fig. 10 measure it. The raw residual capacity
    /// comes from the network model; the probe then behaves like Iperf did
    /// on the testbed: minus the interrupt-interference of monitoring
    /// events handled at either endpoint, scaled by UDP protocol
    /// efficiency.
    pub fn iperf_probe_mbps(&mut self, now: SimTime, from: NodeId, to: NodeId) -> f64 {
        let raw = simnet::traffic::iperf_available_bps(&mut self.net, now, from, to);
        let ev_rate = self.event_rate(from, now) + self.event_rate(to, now);
        let penalty = ev_rate * self.calib.per_event_bw_cost_bits;
        ((raw - penalty).max(0.0) * self.calib.iperf_efficiency) / 1e6
    }

    /// One [`DmonStats`] counter summed over every node's d-mon.
    pub fn dmon_total(&self, counter: impl Fn(&DmonStats) -> u64) -> u64 {
        self.dmons.iter().map(|d| counter(&d.stats)).sum()
    }

    /// Disjoint borrows of the world for one handler run: the per-node
    /// columns, the read-only view, the ledger.
    pub(crate) fn split(&mut self) -> (Cols<'_>, View<'_>, Ledger<'_>) {
        let (ports, downs, fabric) = self.net.split();
        let ledger = Ledger {
            fabric,
            downs,
            fault: &mut self.fault,
            mon_latency_us: &mut self.mon_latency_us,
            mon_delivered: &mut self.mon_delivered,
            ctl_delivered: &mut self.ctl_delivered,
            deferred: &mut self.deferred,
        };
        let cols = (
            &mut self.hosts[..],
            &mut self.dmons[..],
            &mut self.svc[..],
            ports,
        );
        (cols, view_of!(self), ledger)
    }

    /// Borrow the world for one handler run as node `i` on the serial
    /// engine; [`ClusterWorld::settle`] must follow the handler.
    #[inline]
    fn enter<'a>(
        &'a mut self,
        sim: &'a mut ClusterSched,
        i: usize,
    ) -> (SimTime, Node<'a>, View<'a>, SerialSink<'a>) {
        let now = sim.now();
        let (cols, view, ledger) = self.split();
        (now, Node::at(i, cols), view, SerialSink { sim, ledger })
    }

    /// Apply the membership effects the handler that just returned
    /// deferred.
    #[inline]
    fn settle(&mut self, sim: &mut ClusterSched) {
        if self.deferred.is_empty() {
            return;
        }
        let mut deferred = std::mem::take(&mut self.deferred);
        self.with_nodes(|w, nodes| {
            for m in deferred.drain(..) {
                w.apply_member(sim.now(), m, nodes, &mut |at, ev| {
                    sim.schedule_msg_at(at, ev);
                });
            }
        });
        self.deferred = deferred;
    }

    /// Charge CPU time to a node's d-mon kernel thread. Charges drain
    /// serially: the service task is runnable while work is pending, so
    /// compute workloads (linpack) lose exactly the charged CPU time.
    pub fn charge_cpu(&mut self, sim: &mut ClusterSched, node: NodeId, cost: SimDur) {
        let task = self.svc[node.0].task;
        self.hosts[node.0].cpu.charge(sim.now(), task, cost);
    }

    /// Move the per-node columns out of the world — to deal them to
    /// shards, or to reach other nodes while the rest of the world is
    /// borrowed.
    pub(crate) fn take_nodes(&mut self) -> Nodes {
        let (ports, downs) = self.net.take_ports();
        Nodes {
            hosts: std::mem::take(&mut self.hosts),
            dmons: std::mem::take(&mut self.dmons),
            svc: std::mem::take(&mut self.svc),
            ports,
            downs,
        }
    }

    /// Inverse of [`ClusterWorld::take_nodes`].
    pub(crate) fn restore_nodes(&mut self, nodes: Nodes) {
        self.hosts = nodes.hosts;
        self.dmons = nodes.dmons;
        self.svc = nodes.svc;
        self.net.restore_ports(nodes.ports, nodes.downs);
    }

    fn with_nodes(&mut self, f: impl FnOnce(&mut Self, &mut Nodes)) {
        let mut nodes = self.take_nodes();
        f(self, &mut nodes);
        self.restore_nodes(nodes);
    }

    /// Apply one membership effect. The per-node columns are out of the
    /// world here (on the shards, or in `nodes`), so other nodes are
    /// reached through `nodes`; `arm` schedules an event at its node.
    pub(crate) fn apply_member(
        &mut self,
        now: SimTime,
        m: Member,
        nodes: &mut impl NodeSet,
        arm: &mut impl FnMut(SimTime, ClusterEvent),
    ) {
        match m {
            // The dead peer stops being a subscriber: the eviction
            // removes exactly what its placement subscribed.
            Member::Evict { peer } => {
                self.unsubscribe_node(peer);
                self.evicted[peer.0] = true;
            }
            Member::Rejoin { node } => self.rejoin(node, now, nodes),
            Member::FaultAction { k } => {
                let action = self.fault_plan[k].clone();
                self.apply_action(now, &action, nodes, arm);
            }
        }
    }

    /// `node` (re-)registers on its channels, and every other live
    /// member's d-mon hears of it, so its failure detector can downgrade
    /// a Dead verdict.
    fn rejoin(&mut self, node: NodeId, now: SimTime, nodes: &mut impl NodeSet) {
        self.subscribe_node(node);
        self.evicted[node.0] = false;
        for j in (0..self.alive.len()).filter(|&j| j != node.0 && self.alive[j]) {
            nodes.node(NodeId(j)).dmon.on_peer_rejoin(node, now);
        }
    }

    /// The node's CPU scheduler must be settled to the time of the crash:
    /// between runs `run_until` saw to it, inside one `apply_action` does.
    fn crash(&mut self, node: NodeId, nodes: &mut impl NodeSet) {
        if !self.alive[node.0] {
            return;
        }
        self.alive[node.0] = false;
        let n = nodes.node(node);
        // Invalidate the poll series so it stops at its next tick; the
        // kernel thread's queued work dies with the node (the charge it
        // is burning runs out).
        n.svc.poll_token += 1;
        n.host.cpu.drop_queued(n.svc.task);
    }

    fn revive(
        &mut self,
        now: SimTime,
        node: NodeId,
        nodes: &mut impl NodeSet,
        arm: &mut impl FnMut(SimTime, ClusterEvent),
    ) {
        if self.alive[node.0] {
            return;
        }
        self.alive[node.0] = true;
        let n = nodes.node(node);
        // Proc writes queued before the crash died with it.
        n.host.proc.drain_writes().for_each(drop);
        n.dmon.on_revive();
        n.svc.poll_token += 1;
        let token = n.svc.poll_token;
        // Registry re-bootstrap: the revived node re-announces itself on
        // its placement's channels.
        self.rejoin(node, now, nodes);
        arm(
            now + self.poll_period,
            ClusterEvent::Poll { i: node.0, token },
        );
    }

    fn apply_action(
        &mut self,
        now: SimTime,
        action: &FaultAction,
        nodes: &mut impl NodeSet,
        arm: &mut impl FnMut(SimTime, ClusterEvent),
    ) {
        match *action {
            FaultAction::Crash(node) => {
                // A charge whose predecessor ended before this instant
                // is burning already and runs out; what is still queued —
                // also behind a burn that ends exactly now — dies.
                nodes.node(node).host.cpu.settle_before(now);
                self.crash(node, nodes);
            }
            FaultAction::Revive(node) => self.revive(now, node, nodes, arm),
            // Both directions of the node's link travel with the node.
            FaultAction::Degrade(node, _) | FaultAction::HealLink(node) => {
                self.fault.apply_links(action, Some(nodes.links(node)));
            }
            ref other => self.fault.apply_links(other, None),
        }
    }

    /// Crash a node: it stops polling, sending, and receiving. Other
    /// nodes' d-mons keep running — with peer-to-peer channels the rest of
    /// the cluster keeps exchanging monitoring data; with a central
    /// collector, losing the hub silences everyone (the paper's fault-
    /// tolerance argument). No-op on dead nodes.
    pub fn kill_node(&mut self, node: NodeId) {
        self.with_nodes(|w, nodes| w.crash(node, nodes));
    }

    /// Bring a crashed node back: it rejoins the channel registry, bumps
    /// its d-mon epoch (so peers see a restart, not a gap), and restarts
    /// its poll series one period from now. No-op on live nodes.
    pub fn revive_node(&mut self, sim: &mut ClusterSched, node: NodeId) {
        self.apply_fault(sim, &FaultAction::Revive(node));
    }

    /// Apply one fault action right now. Crash/revive route through the
    /// node lifecycle; network faults mutate [`ClusterWorld::fault`].
    pub fn apply_fault(&mut self, sim: &mut ClusterSched, action: &FaultAction) {
        self.with_nodes(|w, nodes| {
            w.apply_action(sim.now(), action, nodes, &mut |at, ev| {
                sim.schedule_msg_at(at, ev);
            });
        });
    }

    /// Whether a node is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.0]
    }
}

/// The cluster simulation: world + event loop + convenience API.
///
/// By default events run on the serial scheduler. With
/// [`ClusterSim::set_threads`] the same world runs on the sharded
/// parallel engine ([`crate::pcluster`]), bit-identical to the serial
/// run.
pub struct ClusterSim {
    sim: ClusterSched,
    world: ClusterWorld,
    stagger: SimDur,
    started: bool,
    threads: usize,
    driver: Option<ParallelDriver>,
    /// The record buffers and control texts this simulation's events
    /// reuse, lent to the thread that runs it for each
    /// [`ClusterSim::run_until`].
    pool: RecordPool,
    /// The path of the last [`ClusterSim::write_control`], kept so that a
    /// write allocates nothing.
    ctl_path: String,
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
        let net = Network::hierarchical(&placement, cfg.link, cfg.switch_link);
        let mut dir = Directory::default();
        // One monitoring + control pair per rack — the star's is the
        // paper's two channels, ids 0 and 1 — and the digest channel when
        // there is a spine to carry it.
        let rack_chans: Vec<(ChannelId, ChannelId)> = (0..placement.n_racks())
            .map(|k| {
                let mon = dir.open(&format!("dproc-monitoring-rack{k}"));
                let ctl = dir.open(&format!("dproc-control-rack{k}"));
                (mon, ctl)
            })
            .collect();
        let digest_chan = (!placement.is_star()).then(|| dir.open("dproc-digest"));
        let shared_names = std::sync::Arc::new(cfg.names.clone());
        let mut hosts = Vec::with_capacity(n);
        let mut dmons = Vec::with_capacity(n);
        let mut svc = Vec::with_capacity(n);
        for i in 0..n {
            let mut host = Host::new(cfg.names[i].clone(), NodeId(i), &cfg.host_cfgs[i]);
            host.link_capacity_bps = cfg.link.bandwidth_bps;
            svc.push(NodeSvc {
                task: host.cpu.spawn_service(SimTime::ZERO, "d-mon"),
                poll_token: 0,
                event_meter: DenseWindow::new(SimDur::from_secs(1)),
            });
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
        }
        let mut world = ClusterWorld {
            net,
            flows: FlowTable::new(),
            hosts,
            dmons,
            linpacks: (0..n).map(|_| Linpack::new()).collect(),
            dir,
            placement,
            rack_chans,
            digest_chan,
            calib: cfg.calib.clone(),
            mon_latency_us: simcore::stats::Sampler::new(),
            mon_delivered: 0,
            ctl_delivered: 0,
            svc,
            alive: vec![true; n],
            fault: simnet::FaultState::new(0),
            evicted: vec![false; n],
            poll_period: cfg.poll_period,
            fault_plan: Vec::new(),
            deferred: Vec::new(),
        };
        for i in 0..n {
            world.subscribe_node(NodeId(i));
        }
        ClusterSim {
            sim: Sim::new(),
            world,
            stagger: cfg.stagger,
            started: false,
            threads: 1,
            driver: None,
            pool: RecordPool::default(),
            ctl_path: String::new(),
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
        self.driver = (threads > 1).then(|| {
            let lookahead = self.world.net.lookahead();
            ParallelDriver::new(&self.world.placement, threads, lookahead)
        });
    }

    /// Configured worker thread count (1 = serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of worker shards when parallel, else 1.
    pub fn shards(&self) -> usize {
        self.driver.as_ref().map_or(1, |d| d.engine.shards())
    }

    /// Parallel engine counters (`None` on the serial driver).
    pub fn parallel_stats(&self) -> Option<simcore::pdes::EngineStats> {
        self.driver.as_ref().map(|d| d.engine.stats())
    }

    /// Seed an event on whichever driver runs the cluster.
    fn schedule(&mut self, at: SimTime, ev: ClusterEvent) {
        match self.driver.as_mut() {
            Some(driver) => driver.schedule(at, ev),
            None => {
                self.sim.schedule_msg_at(at, ev);
            }
        }
    }

    /// Schedule the periodic d-mon polls: one typed `Poll` per node; each
    /// firing re-arms the next, and the series stops by itself when the
    /// node's generation token moves on (crash or re-revive). Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.world.len() {
            let first = SimTime::ZERO + self.world.poll_period + self.stagger * (i as u64);
            let token = self.world.svc[i].poll_token;
            self.schedule(first, ClusterEvent::Poll { i, token });
        }
    }

    /// Schedule an injected-fault timeline. Crash and revive actions run
    /// through the node lifecycle (poll series, registry, epoch); the
    /// rest mutate the network fault state in place. The plan's seed
    /// reseeds the loss RNG so a given plan is deterministic.
    pub fn apply_fault_plan(&mut self, plan: &simnet::FaultPlan) {
        self.world.fault.reseed(plan.seed());
        for (t, action) in plan.actions() {
            let k = self.world.fault_plan.len();
            self.world.fault_plan.push(action);
            self.schedule(t, ClusterEvent::Fault { k });
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.driver
            .as_ref()
            .map_or_else(|| self.sim.now(), |d| d.engine.now())
    }

    /// Run the event loop until `t`. Every host's CPU scheduler is then
    /// settled through `t`: inside the loop a burn ends when its host is
    /// next looked at, and nobody outside the loop should have to know.
    /// Panics if `t` is before [`ClusterSim::now`], on either engine.
    pub fn run_until(&mut self, t: SimTime) {
        let _lent = self.pool.lend();
        match self.driver.as_mut() {
            Some(driver) => driver.run_until(&mut self.world, t),
            None => {
                self.sim.run_until(&mut self.world, t);
            }
        }
        for host in &mut self.world.hosts {
            host.cpu.settle_through(t);
        }
    }

    /// Run the event loop for `d` from now.
    pub fn run_for(&mut self, d: SimDur) {
        let t = self.now() + d;
        self.run_until(t);
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

    /// Write into a `/proc/cluster/<target>/control` file on `node` — the
    /// application-facing customization path. Creates the file if the
    /// target has not been seen yet. A target that is not one non-empty
    /// path component names no control file: nothing is created and the
    /// write counts in the node's `stats.control_errors`.
    pub fn write_control(&mut self, node: NodeId, target_name: &str, text: &str) {
        let path = &mut self.ctl_path;
        path.clear();
        path.extend(["cluster/", target_name, "/control"]);
        let proc = &mut self.world.hosts[node.0].proc;
        let one_component = !target_name.is_empty() && !target_name.contains('/');
        let file = one_component && (proc.exists(path) || proc.set(path, "").is_ok());
        if !(file && proc.write(path, text).is_ok()) {
            self.world.dmons[node.0].stats.control_errors += 1;
        }
    }

    /// Start `threads` linpack threads on a node.
    pub fn start_linpack(&mut self, node: NodeId, threads: usize) {
        let now = self.now();
        let host = &mut self.world.hosts[node.0];
        self.world.linpacks[node.0].start_threads(&mut host.cpu, now, threads);
    }

    /// Begin a linpack measurement interval on a node.
    pub fn mark_linpack(&mut self, node: NodeId) {
        let now = self.now();
        let host = &mut self.world.hosts[node.0];
        self.world.linpacks[node.0].mark(&mut host.cpu, now);
    }

    /// Mflops since the last mark on a node.
    pub fn linpack_mflops(&mut self, node: NodeId) -> f64 {
        let now = self.now();
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
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_probe_reads_efficiency_scaled_capacity() {
        let mut sim = ClusterSim::new(ClusterConfig::new(2));
        // No start(): no monitoring traffic at all.
        let now = sim.now();
        let mbps = sim.world_mut().iperf_probe_mbps(now, NodeId(0), NodeId(1));
        assert!((mbps - 96.0).abs() < 0.01, "idle probe: {mbps}");
    }

    #[test]
    fn monitoring_traffic_shaves_bandwidth() {
        let mut sim = ClusterSim::new(ClusterConfig::new(8));
        sim.start();
        sim.run_until(SimTime::from_secs(10));
        let now = sim.now();
        let mbps = sim.world_mut().iperf_probe_mbps(now, NodeId(0), NodeId(1));
        assert!(mbps < 96.0, "monitoring shaves the probe: {mbps}");
        assert!(mbps > 95.0, "but below half a percent: {mbps}");
    }

    #[test]
    fn probe_with_update_period_2s_drops_less() {
        let run = |period: u64| {
            let mut sim =
                ClusterSim::new(ClusterConfig::new(8).poll_period(SimDur::from_secs(period)));
            sim.start();
            sim.run_until(SimTime::from_secs(10));
            let now = sim.now();
            sim.world_mut().iperf_probe_mbps(now, NodeId(0), NodeId(1))
        };
        let p1 = run(1);
        let p2 = run(2);
        assert!(p2 > p1, "longer period, higher residual: {p1} vs {p2}");
    }

    #[test]
    fn host_names_are_checked_where_they_enter() {
        for bad in [
            "", "a/cpu", "a//b", "/", "control", "status", "overload", "rack0", "rack12",
        ] {
            let err = ClusterConfig::try_named(&["a", bad]).unwrap_err();
            assert_eq!(err, NameError::Unusable(bad.to_string()));
            assert!(err.to_string().contains(&format!("{bad:?}")), "{err}");
        }
        let err = ClusterConfig::try_named(&["a", "b", "a"]).unwrap_err();
        assert_eq!(err, NameError::Duplicate("a".to_string()));
        // Names that merely look like d-mon's files are fine: a host
        // called `cpu` owns `cluster/cpu/`, not anybody's `cpu` file.
        let cfg = ClusterConfig::try_named(&["cpu", "rack", "rack0a", "extra"]).unwrap();
        let mut sim = ClusterSim::new(cfg);
        sim.start();
        sim.run_until(SimTime::from_secs(5));
        let seen = sim.world().hosts[1].proc.read("cluster/cpu/cpu").unwrap();
        assert!(seen.starts_with("cpu "), "{seen}");
    }

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
        assert!(!w.dmons[0].stats.digest_staleness_s.is_empty());
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
    fn run_until_settles_every_host_through_its_bound() {
        // Inside the loop a burn ends when its host is next looked at;
        // whoever reads the world between runs sees it ended, on both
        // engines, if it was due by the time the run stopped at.
        for threads in [1, 2] {
            let mut sim = ClusterSim::new(ClusterConfig::new(2));
            sim.set_threads(threads);
            let w = sim.world_mut();
            let task = w.svc[1].task;
            w.hosts[1]
                .cpu
                .charge(SimTime::ZERO, task, SimDur::from_millis(10));
            let end = SimTime::from_millis(10);
            sim.run_until(end - SimDur::from_nanos(1));
            let cpu = &sim.world().hosts[1].cpu;
            assert_eq!((cpu.runnable(), cpu.burn_end(task)), (1, Some(end)));
            sim.run_until(end);
            let cpu = &sim.world().hosts[1].cpu;
            assert_eq!((cpu.runnable(), cpu.burn_end(task)), (0, None));
        }
    }

    #[test]
    fn running_backwards_panics_on_both_engines() {
        for threads in [1, 2] {
            let mut sim = ClusterSim::new(ClusterConfig::new(2));
            sim.set_threads(threads);
            sim.start();
            sim.run_until(SimTime::from_secs(2));
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run_until(SimTime::from_secs(1));
            }))
            .expect_err("a run into the past returned");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "cannot run backwards", "{threads} thread(s)");
        }
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
    fn control_write_to_a_bad_target_is_counted_not_fatal() {
        let mut sim = ClusterSim::new(ClusterConfig::new(2));
        let entries = |sim: &ClusterSim| sim.world().hosts[0].proc.render_tree();
        let before = entries(&sim);
        for (k, target) in ["", "a//b", "x/y"].into_iter().enumerate() {
            sim.write_control(NodeId(0), target, "period * 2");
            assert_eq!(sim.world().dmons[0].stats.control_errors, k as u64 + 1);
            assert_eq!(entries(&sim), before, "{target:?} created an entry");
        }
        // One well-formed component is a node name, seen yet or not.
        sim.write_control(NodeId(0), "ghost", "period * 2");
        assert_eq!(sim.world().dmons[0].stats.control_errors, 3);
        assert!(sim.world().hosts[0].proc.exists("cluster/ghost/control"));
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
        use simnet::conn::Proto::Tcp;
        // On the star, and inside the second rack of a hierarchy.
        let cases = [
            (ClusterConfig::new(2), 0, 1),
            (ClusterConfig::new(6).racks(3), 3, 4),
        ];
        for (cfg, publisher, subscriber) in cases {
            let (p, s) = (NodeId(publisher), NodeId(subscriber));
            let mut sim = ClusterSim::new(cfg);
            sim.start();
            sim.run_until(SimTime::from_secs(2));
            let target = format!("node{publisher}");
            sim.write_control(s, &target, "filter { while (1) { } }");
            sim.run_until(SimTime::from_secs(6));
            let w = sim.world();
            // The publisher refused the filter and never installed it...
            assert!(!w.dmons[publisher].has_filter(s));
            assert_eq!(w.dmons[publisher].stats.filters_rejected, 1);
            // ...and the subscriber learned why, over the control channel
            // the request went out on: its rack's, not rack 0's.
            let reason = w.dmons[subscriber]
                .filter_rejection(p)
                .expect("rejection reply delivered");
            assert!(reason.contains("unbounded"), "reason: {reason}");
            let conn = |tag| simnet::ConnId {
                local: s,
                remote: p,
                proto: Tcp,
                tag,
            };
            let heard_on: Vec<u32> = (0..w.dir.len() as u32)
                .filter(|&tag| w.hosts[subscriber].conns.get(conn(tag)).is_some())
                .collect();
            let (mon, ctl) = w.chans_of(subscriber);
            assert_eq!(heard_on, [mon.0, ctl.0]);
            // The next deployment toward the publisher forgets the stale
            // reason, a fresh refusal brings one back, `nofilter` forgets
            // it again.
            for (text, refused, installed) in [
                ("filter { output[0] = input[LOADAVG]; }", false, true),
                ("filter { while (1) { } }", true, true),
                ("nofilter", false, false),
            ] {
                sim.write_control(s, &target, text);
                sim.run_until(sim.now() + SimDur::from_secs(4));
                let w = sim.world();
                let reason = w.dmons[subscriber].filter_rejection(p);
                assert_eq!(reason.is_some(), refused, "{text}: {reason:?}");
                assert_eq!(w.dmons[publisher].has_filter(s), installed, "{text}");
            }
        }
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
        let cfg = ClusterConfig::new(4).topo(TopologySpec::Hub { hub: NodeId(0) });
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
    fn hub_delivers_each_event_exactly_once() {
        // A relaying hub changes the route, not what arrives: every d-mon
        // receives what it receives peer-to-peer, once, in stream order.
        let observe = |topo: TopologySpec| {
            let mut sim = ClusterSim::new(ClusterConfig::new(4).topo(topo));
            sim.start();
            sim.run_until(SimTime::from_secs(20));
            let w = sim.world();
            let per_node = |f: fn(&DmonStats) -> u64| -> Vec<u64> {
                w.dmons.iter().map(|d| f(&d.stats)).collect()
            };
            (
                per_node(|s| s.events_received),
                per_node(|s| s.gaps_detected),
                w.mon_delivered,
            )
        };
        let p2p = observe(TopologySpec::Star);
        assert_eq!(p2p, (vec![57; 4], vec![0; 4], 228));
        assert_eq!(observe(TopologySpec::Hub { hub: NodeId(0) }), p2p);
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
    use simnet::ConnId;

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
            tag: w.chans_of(0).0 .0,
        };
        let retx = w.hosts[1]
            .conns
            .get(conn)
            .map_or(0, simnet::ConnStats::retransmissions);
        assert!(retx > 0, "queueing past the RTO counts retransmissions");
        // And the /proc detail carries it to remote observers.
        let detail = w.hosts[1].proc.read("cluster/node1/net").unwrap();
        let reported = format!("n1->n0 tag {} rtt_us ", conn.tag);
        let line = detail.lines().find(|l| l.contains(&reported)).unwrap();
        assert!(!line.contains(" retx 0 "), "{line}");
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
            tag: w.chans_of(0).0 .0,
        };
        assert_eq!(w.hosts[1].conns.get(conn).unwrap().retransmissions(), 0);
    }
}
