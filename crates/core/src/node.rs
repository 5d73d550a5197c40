//! The cluster's event handlers, written once for both engines.
//!
//! A handler runs as one node. It may mutate that node's own state (a
//! [`Node`]), read the cluster-wide state a [`View`] exposes, and emit
//! everything else — child events, and effects on state other nodes share
//! — into a [`Sink`], in program order. The serial engine's sink
//! schedules and applies at once; a shard's sink logs for the coordinator
//! to replay. Because both run this code, both emit the same sequence,
//! which is what makes a sharded run bit-identical to a serial one.

use simcore::{SimDur, SimTime};
use simnet::link::BytesWindow;
use simnet::{ConnId, Leg, NodeId, Placement, Port, TrafficClass};
use simos::host::Host;
use simos::TaskId;

use kecho::{wire, ChannelId, Directory, Event, EventKind, Hop};

use crate::calib::Calib;
use crate::cluster::{ClusterEvent, Frame};
use crate::dmon::DMon;

/// An effect on state that nodes share, applied in serial order by
/// whoever owns that state (see [`crate::cluster::Ledger::post`]).
pub(crate) enum Fx {
    /// A message left its sender's uplink: reserve the remaining links
    /// (which fills in `frame.queued`) and schedule the delivery at the
    /// receiver.
    WireSend { frame: Frame, leg: Leg },
    /// A monitoring event reached its subscriber.
    MonDelivered { latency_us: f64 },
    /// A control event reached its target.
    CtlDelivered,
    /// A delivery hit a crashed node's NIC.
    CrashDrop,
    /// A change of cluster membership.
    Member(Member),
}

/// The rare effects that rewrite membership: the directory, liveness,
/// other nodes' failure detectors. Both engines apply them after the
/// emitting handler has returned.
pub(crate) enum Member {
    /// A failure detector evicted `peer` from its placement's channel set.
    Evict { peer: NodeId },
    /// An evicted node re-registered on its placement's channel set.
    Rejoin { node: NodeId },
    /// Apply the `k`-th action of the fault timeline.
    FaultAction { k: usize },
}

/// Where a handler's output goes. Calls must be made in the order the
/// handler wants them to take effect: each `schedule_at` consumes one
/// scheduler sequence number, each `fx` touches shared state.
pub(crate) trait Sink {
    /// Schedule a child event on the executing node.
    fn schedule_at(&mut self, at: SimTime, ev: ClusterEvent);
    /// Emit an effect on shared state.
    fn fx(&mut self, fx: Fx);
    /// Whether an injected partition or loss destroys a `from` → `to`
    /// delivery. A query with side effects (loss draws, drop counters),
    /// so it is answered in delivery order.
    fn should_drop(&mut self, from: NodeId, to: NodeId) -> bool;
}

/// A node's cluster-glue state: the d-mon kernel thread, the poll series,
/// the event meter.
pub(crate) struct NodeSvc {
    /// The d-mon service task (kernel thread). Its CPU charges are timed
    /// burns of the host's scheduler: a serial server, so concurrent
    /// charges queue rather than overlap (overlapping them would
    /// under-account the stolen CPU).
    pub task: TaskId,
    /// Generation token of the node's poll series. Bumped on crash and
    /// revive so a stale `Poll` stops instead of polling a dead (or
    /// doubly-revived) node forever.
    pub poll_token: u64,
    /// Events handled (sent + received) in a sliding 1 s window — feeds
    /// the Iperf probe's interference model.
    pub event_meter: BytesWindow,
}

/// The per-node columns a [`Node`] is cut from.
pub(crate) type Cols<'a> = (
    &'a mut [Host],
    &'a mut [DMon],
    &'a mut [NodeSvc],
    &'a mut [Port],
);

/// The per-node columns, owned: what a world hands to its shards, and
/// what the membership appliers reach other nodes through.
#[derive(Default)]
pub(crate) struct Nodes {
    pub hosts: Vec<Host>,
    pub dmons: Vec<DMon>,
    pub svc: Vec<NodeSvc>,
    pub ports: Vec<Port>,
}

impl Nodes {
    pub fn cols(&mut self) -> Cols<'_> {
        (
            &mut self.hosts,
            &mut self.dmons,
            &mut self.svc,
            &mut self.ports,
        )
    }

    /// Move every node out, in order; the columns keep their capacity.
    pub fn drain_rows(&mut self) -> impl Iterator<Item = (Host, DMon, NodeSvc, Port)> + '_ {
        let rows = self.hosts.drain(..).zip(self.dmons.drain(..));
        rows.zip(self.svc.drain(..))
            .zip(self.ports.drain(..))
            .map(|(((h, d), s), p)| (h, d, s, p))
    }

    /// Move the last node out.
    pub fn pop(&mut self) -> Option<(Host, DMon, NodeSvc, Port)> {
        let (h, d) = (self.hosts.pop()?, self.dmons.pop()?);
        Some((h, d, self.svc.pop()?, self.ports.pop()?))
    }

    /// Reverse the node order.
    pub fn reverse(&mut self) {
        self.hosts.reverse();
        self.dmons.reverse();
        self.svc.reverse();
        self.ports.reverse();
    }

    pub fn push(&mut self, (host, dmon, svc, port): (Host, DMon, NodeSvc, Port)) {
        self.hosts.push(host);
        self.dmons.push(dmon);
        self.svc.push(svc);
        self.ports.push(port);
    }
}

/// Any node's state by cluster-wide id, wherever it currently lives.
pub(crate) trait NodeSet {
    fn node(&mut self, id: NodeId) -> Node<'_>;
}

impl NodeSet for Nodes {
    fn node(&mut self, id: NodeId) -> Node<'_> {
        Node::at(id.0, self.cols())
    }
}

/// The executing node's state — all a handler may mutate directly.
pub(crate) struct Node<'a> {
    pub host: &'a mut Host,
    pub dmon: &'a mut DMon,
    pub svc: &'a mut NodeSvc,
    /// The node's uplink: only its own sends touch it.
    pub port: &'a mut Port,
}

/// The cluster-wide state a handler may read. It does not change while a
/// handler runs: what would change it is a [`Member`] effect.
pub(crate) struct View<'a> {
    pub dir: &'a Directory,
    pub calib: &'a Calib,
    pub placement: &'a Placement,
    pub rack_chans: &'a [(ChannelId, ChannelId)],
    pub digest_chan: Option<ChannelId>,
    pub alive: &'a [bool],
    pub evicted: &'a [bool],
    pub poll_period: SimDur,
}

/// The [`View`] of a `ClusterWorld` (a macro, so the borrow stays per
/// field and the caller can still borrow the world's other fields).
macro_rules! view_of {
    ($w:expr) => {
        $crate::node::View {
            dir: &$w.dir,
            calib: &$w.calib,
            placement: &$w.placement,
            rack_chans: &$w.rack_chans,
            digest_chan: $w.digest_chan,
            alive: &$w.alive,
            evicted: &$w.evicted,
            poll_period: $w.poll_period,
        }
    };
}
pub(crate) use view_of;

/// The link-layer lane an event travels in. Monitoring data is bulk —
/// it queues and can be tail-dropped at a bounded link queue. Heartbeats
/// and control frames ride the strict-priority lane: tiny, cap-exempt,
/// and never stuck behind a saturated data queue, so failure detection
/// and reconfiguration stay live under overload.
fn class_of(ev: &Event) -> TrafficClass {
    match ev.kind {
        // Digests are data, not liveness: they queue and shed with the
        // bulk lane — a lost digest is superseded by the next one.
        EventKind::Monitoring | EventKind::Digest => TrafficClass::Bulk,
        EventKind::Control | EventKind::Heartbeat => TrafficClass::Priority,
    }
}

impl<'a> Node<'a> {
    /// Node `l` of the columns (a shard's columns hold only its own
    /// nodes, so `l` is a local index there).
    pub fn at(l: usize, (hosts, dmons, svc, ports): Cols<'a>) -> Self {
        Node {
            host: &mut hosts[l],
            dmon: &mut dmons[l],
            svc: &mut svc[l],
            port: &mut ports[l],
        }
    }

    /// One firing of the node's poll series: poll, then re-arm — last, so
    /// the next firing's sequence number follows everything this one
    /// scheduled. A stale series (crash or re-revive moved the token on)
    /// stops here.
    #[inline]
    pub fn tick(&mut self, now: SimTime, token: u64, view: &View<'_>, sink: &mut impl Sink) {
        if self.svc.poll_token != token {
            return;
        }
        self.poll(now, view, sink);
        let i = self.host.node.0;
        sink.schedule_at(now + view.poll_period, ClusterEvent::Poll { i, token });
    }

    /// Charge CPU time to the d-mon kernel thread. Charges drain
    /// serially: the service task is runnable while work is pending, so
    /// compute workloads (linpack) lose exactly the charged CPU time. The
    /// host's scheduler ends each burn by itself — no event is emitted.
    #[inline]
    pub fn charge_cpu(&mut self, now: SimTime, cost: SimDur) {
        self.host.cpu.charge(now, self.svc.task, cost);
    }

    /// Send an event from this node — the one place a next hop is chosen.
    /// When the placement routes the frame through another host, the
    /// event carries its final destination so that host can send it on.
    #[inline]
    pub fn transmit(
        &mut self,
        now: SimTime,
        mut hop: Hop,
        mut ev: Event,
        bytes: usize,
        view: &View<'_>,
        sink: &mut impl Sink,
    ) {
        debug_assert_eq!(hop.from, self.host.node, "a node sends only its own");
        if !view.alive[hop.from.0] {
            ev.recycle();
            return;
        }
        let via = view.placement.next_hop(hop.from, hop.to);
        if via != hop.to {
            ev.target.get_or_insert(hop.to);
            hop.to = via;
        }
        self.svc.event_meter.record(now, 1);
        self.host.on_net_bytes(bytes as u64);
        let frame = Frame {
            hop,
            ev,
            bytes,
            sent_at: now,
            queued: SimDur::ZERO,
        };
        self.send_message(now, frame, sink);
    }

    /// Put a message on the wire: the uplink leg runs here, on the
    /// sender; the remaining links are shared, so the rest of the path is
    /// a [`Fx::WireSend`]. A frame tail-dropped here gives its buffer back,
    /// as does every other path that destroys one.
    #[inline]
    fn send_message(&mut self, now: SimTime, frame: Frame, sink: &mut impl Sink) {
        let Frame {
            hop, ref ev, bytes, ..
        } = frame;
        match self.port.send(now, hop.from == hop.to, bytes, class_of(ev)) {
            Ok(leg) => sink.fx(Fx::WireSend { frame, leg }),
            // An uplink tail-drop happened in the sender's own kernel —
            // locally observable, so the publisher's d-mon chokes the
            // stream instead of burning more credits on a dead queue.
            // Drops further along happen inside a switch; no one learns
            // of them here (the subscriber infers the gap later).
            Err(done) if done.dropped.is_some() => {
                if ev.kind == EventKind::Monitoring && hop.from == ev.sender {
                    if let Some(sub) = ev.target {
                        self.dmon.on_wire_drop(sub);
                    }
                }
                frame.ev.recycle();
            }
            Err(loopback) => sink.schedule_at(loopback.deliver_at, ClusterEvent::Deliver(frame)),
        }
    }

    /// A frame arrives at this node's NIC.
    #[inline]
    pub fn deliver(&mut self, now: SimTime, frame: Frame, view: &View<'_>, sink: &mut impl Sink) {
        let Frame {
            hop,
            ev,
            bytes,
            sent_at,
            queued,
        } = frame;
        let to = hop.to;
        let calib = view.calib;
        if !view.alive[to.0] {
            sink.fx(Fx::CrashDrop);
            ev.recycle();
            return; // delivered into a dead NIC: lost
        }
        if sink.should_drop(hop.from, to) {
            ev.recycle();
            return; // destroyed on the wire: partition or injected loss
        }
        let one_way = now.since(sent_at);
        self.svc.event_meter.record(now, 1);
        self.host.on_net_bytes(bytes as u64);

        // Transit: a frame addressed to another node is sent on, not
        // consumed. The relay keeps the original send time, so the latency
        // sampler sees true end-to-end latency.
        if let Some(target) = ev.target.filter(|&t| t != to) {
            let relay_cost = calib.receive_cost(bytes)
                + calib.submit_cost(bytes)
                + calib.kernel_path_recv
                + calib.kernel_path_send;
            self.charge_cpu(now, relay_cost);
            self.svc.event_meter.record(now, 1);
            let relay = Frame {
                hop: Hop {
                    from: to,
                    to: target,
                },
                ev,
                bytes,
                sent_at,
                queued: SimDur::ZERO,
            };
            self.send_message(now, relay, sink);
            return;
        }

        // Kernel connection tracking on the receiving host (a first
        // delivery opens the connection). Heavy queueing means the
        // transport retransmitted: NET MON's per-connection counters
        // should show congestion. The sender's row remembers where its
        // connection sat in the table last time.
        let conn = ConnId {
            local: to,
            remote: ev.sender,
            proto: simnet::conn::Proto::Tcp,
            tag: ev.channel,
        };
        let (conns, retransmitted) = (&mut self.host.conns, queued > calib.rto);
        let mut unkept = u32::MAX;
        let at = self.dmon.conn_at(ev.sender).unwrap_or(&mut unkept);
        *at = conns.record_delivery(*at, conn, now, bytes as u64, one_way, retransmitted);

        match ev.kind {
            EventKind::Monitoring => {
                sink.fx(Fx::MonDelivered {
                    latency_us: one_way.as_micros_f64(),
                });
                let handler = self.dmon.on_event(self.host, &ev, bytes, now, calib);
                self.charge_cpu(now, handler + calib.kernel_path_recv);
                ev.recycle();
            }
            EventKind::Heartbeat => {
                let handler = self.dmon.on_heartbeat(&ev, now, calib);
                self.charge_cpu(now, handler + calib.heartbeat_path_recv);
            }
            EventKind::Digest => {
                let handler = self.dmon.on_digest(self.host, &ev, bytes, now, calib);
                self.charge_cpu(now, handler + calib.kernel_path_recv);
                ev.recycle();
            }
            EventKind::Control => self.deliver_control(now, ev, view, sink),
        }
    }

    /// A control event reached its target: handle it, send any reply back
    /// to its sender, and give its text back to the pool. Kept out of line:
    /// inlined into [`Node::deliver`], whose monitoring branch runs for
    /// nearly every frame, it slowed `overload8-faults` by ≈ 6 %.
    #[inline(never)]
    fn deliver_control(&mut self, now: SimTime, ev: Event, view: &View<'_>, sink: &mut impl Sink) {
        let calib = view.calib;
        sink.fx(Fx::CtlDelivered);
        let Some(msg) = ev.as_control() else { return };
        let outcome = self.dmon.on_control(ev.sender, msg, calib);
        self.charge_cpu(now, outcome.cpu + calib.kernel_path_recv);
        if let Some(reply) = outcome.reply {
            // E.g. a filter rejection travelling back to the
            // subscriber that tried to deploy it.
            let chan = ChannelId(ev.channel);
            let rev = self.dmon.make_control_event(chan, ev.sender, reply);
            let bytes = wire::encoded_size(&rev);
            let send_cost = calib.submit_cost(bytes) + calib.kernel_path_send;
            self.charge_cpu(now, send_cost);
            let hop = Hop {
                from: self.host.node,
                to: ev.sender,
            };
            self.transmit(now, hop, rev, bytes, view, sink);
        }
        ev.recycle();
    }

    /// Run one d-mon polling iteration. No-op on a dead node.
    #[inline]
    pub fn poll(&mut self, now: SimTime, view: &View<'_>, sink: &mut impl Sink) {
        let node = self.host.node;
        if !view.alive[node.0] {
            return;
        }
        let rack = view.placement.rack_of(node);
        let (mon, ctl) = view.rack_chans[rack];
        let mut outcome = self
            .dmon
            .poll(self.host, view.dir, mon, ctl, now, view.calib);
        self.charge_cpu(now, outcome.cpu_cost);
        for (hop, ev, bytes) in outcome.sends.drain(..) {
            self.transmit(now, hop, ev, bytes, view, sink);
        }
        self.dmon.recycle_sends(outcome.sends);
        // Failure-detector verdicts become directory evictions: the dead
        // peer stops being a subscriber, so every publisher's read-set
        // logic stops sampling, filtering, and transmitting for it.
        for &peer in &outcome.dead_peers {
            sink.fx(Fx::Member(Member::Evict { peer }));
        }
        // A node evicted during a partition notices it is no longer a
        // member once it can poll again and re-registers — recovery is
        // symmetric even when both sides declared each other dead.
        if outcome.rejoin && view.evicted[node.0] {
            sink.fx(Fx::Member(Member::Rejoin { node }));
        }
        // The aggregation tier, planned against the directory as it was:
        // the membership effects above have not been applied yet. Then
        // the verdict list goes back to the d-mon for the next poll.
        self.send_digest(now, rack, &outcome.dead_peers, view, sink);
        self.dmon.recycle_dead_peers(outcome.dead_peers);
    }

    /// After the regular poll, a rack aggregator folds its members' latest
    /// samples into one bounded digest and republishes it on the spine
    /// digest channel. `dead` — the peers this poll found Dead, not yet
    /// evicted — is a skip-set, and a digest never targets its own sender.
    #[inline]
    fn send_digest(
        &mut self,
        now: SimTime,
        rack: usize,
        dead: &[NodeId],
        view: &View<'_>,
        sink: &mut impl Sink,
    ) {
        let Some(dg) = view.digest_chan else { return };
        if !view.placement.is_aggregator(self.host.node) {
            return;
        }
        let members = view.placement.rack(rack).range();
        let planned = self
            .dmon
            .poll_digest(view.dir, dg, rack as u32, members, dead, view.calib);
        let Some((mut sends, cpu)) = planned else {
            return;
        };
        self.charge_cpu(now, cpu);
        for (hop, ev, bytes) in sends.drain(..) {
            self.transmit(now, hop, ev, bytes, view, sink);
        }
        self.dmon.recycle_sends(sends);
    }
}

#[cfg(test)]
mod tests {
    //! The emission order both engines rely on, pinned with a sink that
    //! only records.

    use super::*;
    use crate::cluster::{ClusterConfig, ClusterSim};
    use kecho::RecordPool;
    use simnet::LinkSpec;

    /// One thing a handler emitted.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Out {
        Poll,
        Loopback,
        Fault(usize),
        Wire(EventKind),
        MonDelivered,
        CtlDelivered,
        CrashDrop,
        Evict(NodeId),
        Rejoin(NodeId),
    }

    #[derive(Default)]
    struct Recorder {
        log: Vec<Out>,
        /// The frames of the `WireSend`s, in order.
        frames: Vec<Frame>,
        /// Their legs past the uplink.
        legs: Vec<Leg>,
        /// What `should_drop` answers: a partition or injected loss.
        drops: bool,
    }

    impl Sink for Recorder {
        fn schedule_at(&mut self, _at: SimTime, ev: ClusterEvent) {
            self.log.push(match ev {
                ClusterEvent::Poll { .. } => Out::Poll,
                ClusterEvent::Deliver(_) => Out::Loopback,
                ClusterEvent::Fault { k } => Out::Fault(k),
            });
        }

        fn fx(&mut self, fx: Fx) {
            self.log.push(match fx {
                Fx::WireSend { frame, leg } => {
                    let kind = frame.ev.kind;
                    self.frames.push(frame);
                    self.legs.push(leg);
                    Out::Wire(kind)
                }
                Fx::MonDelivered { .. } => Out::MonDelivered,
                Fx::CtlDelivered => Out::CtlDelivered,
                Fx::CrashDrop => Out::CrashDrop,
                Fx::Member(Member::Evict { peer }) => Out::Evict(peer),
                Fx::Member(Member::Rejoin { node }) => Out::Rejoin(node),
                Fx::Member(Member::FaultAction { k }) => Out::Fault(k),
            });
        }

        fn should_drop(&mut self, _from: NodeId, _to: NodeId) -> bool {
            self.drops
        }
    }

    /// Run `f` as node `i` of `sim`'s world against `rec`, with a fresh
    /// record pool lent to the thread: the recorder, and how many buffers
    /// `f` left in that pool.
    fn pooled(
        sim: &mut ClusterSim,
        i: usize,
        mut rec: Recorder,
        f: impl FnOnce(&mut Node<'_>, &View<'_>, &mut Recorder),
    ) -> (Recorder, usize) {
        let mut pool = RecordPool::default();
        {
            let _lent = pool.lend();
            let (cols, view, _) = sim.world_mut().split();
            f(&mut Node::at(i, cols), &view, &mut rec);
        }
        (rec, pool.held())
    }

    /// Run `f` as node `i` of `sim`'s world against a fresh recorder.
    fn record(
        sim: &mut ClusterSim,
        i: usize,
        f: impl FnOnce(&mut Node<'_>, &View<'_>, &mut Recorder),
    ) -> Recorder {
        pooled(sim, i, Recorder::default(), f).0
    }

    /// The frames node 0's first poll puts on the wire.
    fn first_poll(sim: &mut ClusterSim) -> Recorder {
        let at = SimTime::from_secs(1);
        record(sim, 0, |n, view, rec| n.poll(at, view, rec))
    }

    #[test]
    fn deliver_to_a_crashed_node_emits_exactly_crash_drop() {
        let mut sim = ClusterSim::new(ClusterConfig::new(2));
        let frame = first_poll(&mut sim).frames.remove(0);
        assert_eq!(frame.hop.to, NodeId(1));
        sim.world_mut().kill_node(NodeId(1));
        let at = SimTime::from_millis(1001);
        let deliver = |n: &mut Node<'_>, view: &View<'_>, rec: &mut Recorder| {
            n.deliver(at, frame, view, rec);
        };
        let (rec, held) = pooled(&mut sim, 1, Recorder::default(), deliver);
        assert_eq!(rec.log, [Out::CrashDrop]);
        assert_eq!(held, 1, "the frame's buffer went back to the pool");
    }

    #[test]
    fn deliver_across_a_partition_or_loss_emits_nothing_and_gives_the_buffer_back() {
        let mut sim = ClusterSim::new(ClusterConfig::new(2));
        let frame = first_poll(&mut sim).frames.remove(0);
        let at = SimTime::from_millis(1001);
        let deliver = |n: &mut Node<'_>, view: &View<'_>, rec: &mut Recorder| {
            n.deliver(at, frame, view, rec);
        };
        let lossy = Recorder {
            drops: true,
            ..Recorder::default()
        };
        let (rec, held) = pooled(&mut sim, 1, lossy, deliver);
        assert!(rec.log.is_empty(), "{:?}", rec.log);
        assert_eq!(held, 1, "the frame's buffer went back to the pool");
        assert_eq!(sim.world().dmons[1].stats.events_received, 0);
    }

    #[test]
    fn a_dead_sender_transmits_nothing_and_gives_the_buffer_back() {
        let mut sim = ClusterSim::new(ClusterConfig::new(2));
        let Frame { hop, ev, bytes, .. } = first_poll(&mut sim).frames.remove(0);
        sim.world_mut().kill_node(NodeId(0));
        let at = SimTime::from_millis(1001);
        let send = |n: &mut Node<'_>, view: &View<'_>, rec: &mut Recorder| {
            n.transmit(at, hop, ev, bytes, view, rec);
        };
        let (rec, held) = pooled(&mut sim, 0, Recorder::default(), send);
        assert!(rec.log.is_empty(), "{:?}", rec.log);
        assert_eq!(held, 1, "the event's buffer went back to the pool");
    }

    #[test]
    fn a_switch_drop_arms_nothing_and_gives_the_buffer_back() {
        let mut cfg = ClusterConfig::new(2);
        cfg.link = LinkSpec::fast_ethernet().with_queue(1, u64::MAX);
        let mut sim = ClusterSim::new(cfg);
        let mut rec = first_poll(&mut sim);
        let (frame, leg) = (rec.frames.remove(0), rec.legs[0]);
        // The same transfer twice at one instant: the first takes the
        // receiver's one-message downlink queue, the second is dropped
        // inside the switch.
        let (mut pool, mut armed) = (RecordPool::default(), 0);
        {
            let _lent = pool.lend();
            let ledger = &mut sim.world_mut().split().2;
            for frame in [frame.clone(), frame] {
                let none = ledger.post(Fx::WireSend { frame, leg }, |_, _| armed += 1);
                assert!(none.is_none());
            }
        }
        assert_eq!(armed, 1, "one delivery scheduled");
        assert_eq!(
            pool.held(),
            1,
            "the dropped frame's buffer went back to the pool"
        );
    }

    /// When node `i`'s kernel thread ends the burn it has in service,
    /// with the run-queue length it sits in.
    fn burning(sim: &ClusterSim, i: usize) -> (Option<SimTime>, u32) {
        let w = sim.world();
        let cpu = &w.hosts[i].cpu;
        (cpu.burn_end(w.svc[i].task), cpu.runnable())
    }

    /// What node 0's d-mon charges for a poll at `at`, taken from a twin
    /// of the cluster under test.
    fn poll_cost(mut twin: ClusterSim, at: SimTime) -> SimDur {
        let w = twin.world_mut();
        let (mon, ctl) = w.rack_chans[0];
        let (dmon, host) = (&mut w.dmons[0], &mut w.hosts[0]);
        dmon.poll(host, &w.dir, mon, ctl, at, &w.calib).cpu_cost
    }

    #[test]
    fn monitoring_deliver_counts_before_it_charges() {
        let mut sim = ClusterSim::new(ClusterConfig::new(2));
        let frame = first_poll(&mut sim).frames.remove(0);
        assert_eq!(frame.ev.kind, EventKind::Monitoring);
        let calib = &sim.world().calib;
        let cost = calib.receive_cost(frame.bytes) + calib.kernel_path_recv;
        let at = SimTime::from_millis(1001);
        let rec = record(&mut sim, 1, |n, view, rec| n.deliver(at, frame, view, rec));
        // The charge is no scheduler child: the host's CPU model holds it.
        assert_eq!(rec.log, [Out::MonDelivered]);
        assert_eq!(burning(&sim, 1), (Some(at + cost), 1));
    }

    #[test]
    fn dead_verdict_poll_orders_charge_sends_evict_digest_rearm() {
        let build = || {
            let bounds = (SimDur::from_secs(2), SimDur::from_secs(4));
            let cfg = ClusterConfig::new(6).racks(3);
            let mut sim = ClusterSim::new(cfg.failure_bounds(bounds.0, bounds.1));
            sim.start();
            sim.run_until(SimTime::from_secs(3));
            sim.world_mut().kill_node(NodeId(1));
            // Node 0 — rack 0's aggregator — last heard its rack-mate just
            // after 2 s, so its poll at 7 s is the one that finds it Dead;
            // node 2 is the rack-mate still listening.
            sim.run_until(SimTime::from_millis(6500));
            sim
        };
        let mut sim = build();
        let token = sim.world().svc[0].poll_token;
        let at = SimTime::from_secs(7);
        let rec = record(&mut sim, 0, |n, view, rec| n.tick(at, token, view, rec));
        // The send to the live rack-mate, the eviction, the digest
        // (planned around the peer just evicted), the re-arm last. The two
        // CPU charges emit nothing: the poll's is being burnt, the
        // digest's waits behind it.
        let expect = [
            Out::Wire(EventKind::Monitoring),
            Out::Evict(NodeId(1)),
            Out::Wire(EventKind::Digest),
            Out::Poll,
        ];
        assert_eq!(rec.log, expect);
        assert_eq!(rec.frames[0].hop.to, NodeId(2));
        assert_eq!(rec.frames[1].hop.to, NodeId(3), "rack 1's aggregator");
        assert_eq!(burning(&sim, 0), (Some(at + poll_cost(build(), at)), 1));
    }

    #[test]
    fn uplink_tail_drop_emits_nothing_and_chokes_the_stream() {
        let mut cfg = ClusterConfig::new(3);
        cfg.link = LinkSpec::fast_ethernet().with_queue(1, u64::MAX);
        let at = SimTime::from_secs(1);
        let cost = poll_cost(ClusterSim::new(cfg.clone()), at);
        // What the same poll leaves in the pool when nothing is dropped.
        let mut unbounded = ClusterSim::new(ClusterConfig::new(3));
        let poll = |n: &mut Node<'_>, view: &View<'_>, rec: &mut Recorder| n.poll(at, view, rec);
        let (sent, kept) = pooled(&mut unbounded, 0, Recorder::default(), poll);
        assert_eq!(sent.log, [Out::Wire(EventKind::Monitoring); 2]);
        let mut sim = ClusterSim::new(cfg);
        // Both subscribers' frames leave at the same instant: the first
        // fills the one-message uplink queue, the second is tail-dropped.
        let (rec, held) = pooled(&mut sim, 0, Recorder::default(), poll);
        assert_eq!(rec.log, [Out::Wire(EventKind::Monitoring)]);
        assert_eq!(held, kept + 1, "the dropped frame's buffer went back");
        assert_eq!(burning(&sim, 0), (Some(at + cost), 1));
        let sent_to = rec.frames[0].hop.to;
        let dropped_to = NodeId(3 - sent_to.0);
        let dmon = &sim.world().dmons[0];
        assert!(dmon.choked_toward(dropped_to));
        assert!(!dmon.choked_toward(sent_to));
    }
}
