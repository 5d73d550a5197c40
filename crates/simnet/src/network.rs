//! The switched network and the send path: a single star (every node ↔
//! one switch) or a hierarchy of rack switches uplinked to a spine,
//! resolved from a [`crate::topology::Placement`]. The star is the
//! 1-rack degenerate case and takes exactly the same code path.
//!
//! A send is two legs. The *sender-uplink leg* ([`Port::send`]) touches
//! only the sender's own [`Port`]; the *remaining legs*
//! ([`Fabric::finish`]) reserve the switch-side links every sender
//! shares. [`Network::send_class`] composes the two; a sharded simulation
//! runs the first on the sender's shard and the second on its
//! coordinator, in serial order.

use simcore::{SimDur, SimTime};

use crate::link::{DirLink, LinkSpec};
use crate::topology::Placement;

/// Index of a node on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Scheduling class of a message on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Ordinary data: FIFO behind earlier traffic, subject to the
    /// per-direction queue caps (tail-drop).
    Bulk,
    /// Liveness/control frames: a strict-priority lane that serializes
    /// immediately at the current effective rate, bypassing both the FIFO
    /// backlog and the queue caps. Priority frames are tiny and
    /// rate-limited, so they neither queue nor shed — failure detection
    /// stays accurate no matter how congested the bulk lane is.
    Priority,
}

/// Which direction's queue tail-dropped a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropDir {
    /// The sender's NIC queue was full.
    Uplink,
    /// The receiver's switch-egress queue was full.
    Downlink,
    /// The sender's rack-switch → spine queue was full (hierarchical
    /// topologies only).
    RackUplink,
    /// The spine → receiver's-rack queue was full (hierarchical
    /// topologies only).
    SpineDownlink,
}

/// Outcome of enqueueing a message on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the last byte arrives at the destination host.
    pub deliver_at: SimTime,
    /// Time spent waiting behind earlier traffic (uplink + downlink queues).
    pub queued: SimDur,
    /// Pure wire time (serialization twice + propagation twice).
    pub wire: SimDur,
    /// `Some` if a bounded queue tail-dropped the message; the message
    /// never arrives and `deliver_at` is meaningless.
    pub dropped: Option<DropDir>,
}

impl Delivery {
    /// Total network latency experienced by the message, given its send time.
    pub fn latency(&self, sent_at: SimTime) -> SimDur {
        self.deliver_at.since(sent_at)
    }

    fn dropped(now: SimTime, dir: DropDir) -> Self {
        Delivery {
            deliver_at: now,
            queued: SimDur::ZERO,
            wire: SimDur::ZERO,
            dropped: Some(dir),
        }
    }
}

/// A message part-way along its path: what it is, and where it stands
/// after the links it has crossed so far.
#[derive(Debug, Clone, Copy)]
pub struct Leg {
    class: TrafficClass,
    bytes: usize,
    /// Wire length and first-packet size under the *node* link spec, which
    /// sizes a message on every link of its path.
    wire_len: u64,
    first_pkt: usize,
    /// When the message was handed to the network.
    now: SimTime,
    /// Earliest start on the next link (first packet's arrival there).
    head: SimTime,
    /// Arrival time of the message's last byte at the next link.
    tail: SimTime,
    /// Time spent waiting behind earlier traffic so far.
    queued: SimDur,
}

impl Leg {
    /// Cross one link, packet-pipelined store-and-forward: each switch
    /// forwards packets as they arrive, so consecutive links'
    /// serializations overlap. Transmission starts no earlier than the
    /// first packet's arrival (head constraint) and finishes no earlier
    /// than the last byte's arrival plus one more packet serialization
    /// (tail constraint). Returns `false` when the link's bounded queue
    /// tail-drops the message.
    fn cross(&mut self, link: &mut DirLink, latency: SimDur) -> bool {
        let bulk = self.class == TrafficClass::Bulk;
        if bulk && !link.admit(self.now, self.wire_len) {
            return false;
        }
        let t_all = link.tx_time_now(self.bytes);
        let t_first = link.tx_time_now(self.first_pkt);
        let tail_constraint = self.tail + t_first;
        let (start, finish) = if bulk {
            let (start, finish0) = link.reserve(self.head, t_all);
            let finish = finish0.max(tail_constraint);
            link.extend_busy(finish);
            (start, finish)
        } else {
            // Priority lane: serialize immediately, leave the bulk horizon
            // untouched.
            (self.head, (self.head + t_all).max(tail_constraint))
        };
        link.account(self.now, self.bytes);
        if bulk {
            link.occupy(finish, self.wire_len);
        }
        self.queued += start - self.head;
        self.head = start + t_first + latency;
        self.tail = finish + latency;
        true
    }
}

/// A node's sending side: its uplink and its lifetime send counters. Only
/// the node's own sends touch it, so a shard can own it outright.
pub struct Port {
    up: DirLink,
    sent: u64,
    sent_bytes: u64,
}

impl Port {
    fn new(spec: LinkSpec) -> Self {
        Port {
            up: DirLink::new(spec),
            sent: 0,
            sent_bytes: 0,
        }
    }

    /// The node → switch link.
    pub fn uplink_mut(&mut self) -> &mut DirLink {
        &mut self.up
    }

    /// The sender-uplink leg of a send at `now`. `Err` is a send that
    /// ended here: loopback (no serialization, just a kernel copy) or an
    /// uplink tail-drop. `Ok` goes on to [`Fabric::finish`].
    #[inline]
    pub fn send(
        &mut self,
        now: SimTime,
        loopback: bool,
        bytes: usize,
        class: TrafficClass,
    ) -> Result<Leg, Delivery> {
        self.sent += 1;
        self.sent_bytes += bytes as u64;
        if loopback {
            let copy = SimDur::from_nanos(200 + (bytes as u64) / 10);
            return Err(Delivery {
                deliver_at: now + copy,
                queued: SimDur::ZERO,
                wire: copy,
                dropped: None,
            });
        }
        let spec = *self.up.spec();
        let mut leg = Leg {
            class,
            bytes,
            wire_len: spec.wire_bytes(bytes) as u64,
            first_pkt: bytes.min(spec.mtu_payload),
            now,
            head: now,
            tail: now,
            queued: SimDur::ZERO,
        };
        if leg.cross(&mut self.up, spec.latency) {
            Ok(leg)
        } else {
            Err(Delivery::dropped(now, DropDir::Uplink))
        }
    }
}

/// The switch side of the network: every link that more than one sender
/// can reserve.
pub struct Fabric {
    spec: LinkSpec,
    /// Switch → node, one per node.
    downs: Vec<DirLink>,
    /// Node → rack (all zeros for the star).
    rack_of: Vec<usize>,
    /// Rack-switch → spine, one per rack; empty for the star.
    switch_ups: Vec<DirLink>,
    /// Spine → rack-switch, one per rack; empty for the star.
    switch_downs: Vec<DirLink>,
    /// Inter-switch link parameters (equal to `spec` unless configured).
    switch_spec: LinkSpec,
}

impl Fabric {
    /// The legs after the sender's uplink: the receiver's downlink on the
    /// star and inside a rack, rack uplink → spine downlink → receiver
    /// downlink across racks. A tail-drop leaves the earlier links
    /// reserved — the message did occupy them.
    #[inline]
    pub fn finish(&mut self, from: NodeId, to: NodeId, mut leg: Leg) -> Delivery {
        let (r_from, r_to) = (self.rack_of[from.0], self.rack_of[to.0]);
        let sw_lat = self.switch_spec.latency;
        if r_from != r_to {
            if !leg.cross(&mut self.switch_ups[r_from], sw_lat) {
                return Delivery::dropped(leg.now, DropDir::RackUplink);
            }
            if !leg.cross(&mut self.switch_downs[r_to], sw_lat) {
                return Delivery::dropped(leg.now, DropDir::SpineDownlink);
            }
        }
        if !leg.cross(&mut self.downs[to.0], self.spec.latency) {
            return Delivery::dropped(leg.now, DropDir::Downlink);
        }
        Delivery {
            deliver_at: leg.tail,
            queued: leg.queued,
            wire: leg.tail.since(leg.now) - leg.queued,
            dropped: None,
        }
    }
}

/// A switched full-duplex network: one star switch, or rack switches
/// uplinked to a spine.
pub struct Network {
    /// `ports[i]` is node `i`'s sending side.
    ports: Vec<Port>,
    fabric: Fabric,
}

impl Network {
    /// Build a single-switch star of `n` nodes with identical links.
    pub fn new(n: usize, spec: LinkSpec) -> Self {
        Network {
            ports: (0..n).map(|_| Port::new(spec)).collect(),
            fabric: Fabric {
                spec,
                downs: (0..n).map(|_| DirLink::new(spec)).collect(),
                rack_of: vec![0; n],
                switch_ups: Vec::new(),
                switch_downs: Vec::new(),
                switch_spec: spec,
            },
        }
    }

    /// Build a multi-switch network from a resolved placement: every node
    /// gets a full-duplex link to its rack switch, every rack switch a
    /// full-duplex `switch_spec` link to the spine. A 1-rack placement
    /// degenerates to [`Network::new`] exactly — no spine links exist and
    /// every send takes the two-hop star path.
    pub fn hierarchical(placement: &Placement, spec: LinkSpec, switch_spec: LinkSpec) -> Self {
        let mut net = Network::new(placement.len(), spec);
        if !placement.is_star() {
            let f = &mut net.fabric;
            f.rack_of = (0..placement.len())
                .map(|i| placement.rack_of(NodeId(i)))
                .collect();
            f.switch_ups = (0..placement.n_racks())
                .map(|_| DirLink::new(switch_spec))
                .collect();
            f.switch_downs = (0..placement.n_racks())
                .map(|_| DirLink::new(switch_spec))
                .collect();
            f.switch_spec = switch_spec;
        }
        net
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.fabric.downs.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.fabric.downs.is_empty()
    }

    /// Link parameters.
    pub fn spec(&self) -> &LinkSpec {
        &self.fabric.spec
    }

    /// Conservative parallel-simulation lookahead of this network (see
    /// [`LinkSpec::lookahead`]): the minimum interval between sending a
    /// message and its earliest possible delivery on another node.
    pub fn lookahead(&self) -> SimDur {
        self.fabric.spec.lookahead()
    }

    /// The two halves a send borrows separately: every node's [`Port`]
    /// and the shared [`Fabric`].
    pub fn split(&mut self) -> (&mut [Port], &mut Fabric) {
        (&mut self.ports, &mut self.fabric)
    }

    /// Move the ports out for sharded execution (each goes to its node's
    /// shard); per-port accessors panic until [`Network::restore_ports`].
    pub fn take_ports(&mut self) -> Vec<Port> {
        std::mem::take(&mut self.ports)
    }

    /// Put back the ports [`Network::take_ports`] moved out, in node order.
    pub fn restore_ports(&mut self, ports: Vec<Port>) {
        assert_eq!(ports.len(), self.len(), "one port per node");
        self.ports = ports;
    }

    fn check(&self, id: NodeId) {
        assert!(id.0 < self.len(), "unknown node {id}");
    }

    /// Enqueue a `bytes`-byte bulk message from `from` to `to` at time
    /// `now`; returns the computed delivery. Loopback (`from == to`)
    /// bypasses the wire and costs a fixed small kernel-copy latency.
    pub fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, bytes: usize) -> Delivery {
        self.send_class(now, from, to, bytes, TrafficClass::Bulk)
    }

    /// [`Network::send`] with an explicit [`TrafficClass`]. Bulk messages
    /// FIFO behind earlier traffic and may be tail-dropped by the bounded
    /// per-direction queues; priority messages use a strict-priority lane
    /// (immediate serialization, never dropped by queue caps).
    pub fn send_class(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        class: TrafficClass,
    ) -> Delivery {
        self.check(from);
        self.check(to);
        match self.ports[from.0].send(now, from == to, bytes, class) {
            Ok(leg) => self.fabric.finish(from, to, leg),
            Err(done) => done,
        }
    }

    /// Queueing backlog a new message from `from` to `to` would see right
    /// now (sum of both directions' backlogs), without sending.
    pub fn backlog(&self, now: SimTime, from: NodeId, to: NodeId) -> SimDur {
        self.check(from);
        self.check(to);
        self.ports[from.0].up.backlog(now) + self.fabric.downs[to.0].backlog(now)
    }

    /// Add fluid background load along the path `from` → `to` (including
    /// the inter-switch links when the path crosses racks).
    pub(crate) fn add_background(&mut self, from: NodeId, to: NodeId, bps: f64) {
        self.check(from);
        self.check(to);
        self.ports[from.0].up.add_background(bps);
        self.fabric.downs[to.0].add_background(bps);
        let (rf, rt) = (self.fabric.rack_of[from.0], self.fabric.rack_of[to.0]);
        if rf != rt {
            self.fabric.switch_ups[rf].add_background(bps);
            self.fabric.switch_downs[rt].add_background(bps);
        }
    }

    /// Remove fluid background load along the path `from` → `to`.
    pub(crate) fn remove_background(&mut self, from: NodeId, to: NodeId, bps: f64) {
        self.check(from);
        self.check(to);
        self.ports[from.0].up.remove_background(bps);
        self.fabric.downs[to.0].remove_background(bps);
        let (rf, rt) = (self.fabric.rack_of[from.0], self.fabric.rack_of[to.0]);
        if rf != rt {
            self.fabric.switch_ups[rf].remove_background(bps);
            self.fabric.switch_downs[rt].remove_background(bps);
        }
    }

    /// Mutable access to both directions of a node's link at once.
    pub fn links_mut(&mut self, id: NodeId) -> (&mut DirLink, &mut DirLink) {
        self.check(id);
        (&mut self.ports[id.0].up, &mut self.fabric.downs[id.0])
    }

    /// Mutable access to a node's uplink (tests, probes).
    pub fn uplink_mut(&mut self, id: NodeId) -> &mut DirLink {
        self.check(id);
        &mut self.ports[id.0].up
    }

    /// Mutable access to a node's downlink (tests, probes).
    pub fn downlink_mut(&mut self, id: NodeId) -> &mut DirLink {
        self.check(id);
        &mut self.fabric.downs[id.0]
    }

    /// Shared access to a node's uplink.
    pub fn uplink(&self, id: NodeId) -> &DirLink {
        self.check(id);
        &self.ports[id.0].up
    }

    /// Shared access to a node's downlink.
    pub fn downlink(&self, id: NodeId) -> &DirLink {
        self.check(id);
        &self.fabric.downs[id.0]
    }

    /// Lifetime count of messages accepted by [`Network::send`].
    pub fn deliveries(&self) -> u64 {
        self.ports.iter().map(|p| p.sent).sum()
    }

    /// Lifetime payload bytes accepted by [`Network::send`].
    pub fn payload_bytes(&self) -> u64 {
        self.ports.iter().map(|p| p.sent_bytes).sum()
    }

    /// Number of racks (1 for the star).
    pub fn n_racks(&self) -> usize {
        self.fabric.switch_ups.len().max(1)
    }

    /// True when the fabric has a spine tier (more than one rack).
    pub fn is_hierarchical(&self) -> bool {
        !self.fabric.switch_ups.is_empty()
    }

    /// Shared access to a rack's switch → spine link.
    ///
    /// # Panics
    ///
    /// Panics on a star network (no spine tier) or an unknown rack.
    pub fn switch_uplink(&self, rack: usize) -> &DirLink {
        &self.fabric.switch_ups[rack]
    }

    /// Shared access to the spine → rack-switch link (see
    /// [`Network::switch_uplink`] for panics).
    pub fn switch_downlink(&self, rack: usize) -> &DirLink {
        &self.fabric.switch_downs[rack]
    }

    /// Messages tail-dropped on the spine tier only (rack uplinks +
    /// downlinks); 0 by definition on a star.
    pub fn spine_drops(&self) -> u64 {
        let f = &self.fabric;
        f.switch_ups
            .iter()
            .chain(&f.switch_downs)
            .map(DirLink::drops)
            .sum()
    }

    /// Every link direction: node links, then the inter-switch links.
    fn links(&self) -> impl Iterator<Item = &DirLink> {
        let f = &self.fabric;
        let ups = self.ports.iter().map(|p| &p.up);
        ups.chain(&f.downs)
            .chain(&f.switch_ups)
            .chain(&f.switch_downs)
    }

    /// Total messages tail-dropped by bounded link queues, every direction
    /// of every node plus the inter-switch links.
    pub fn link_drops(&self) -> u64 {
        self.links().map(DirLink::drops).sum()
    }

    /// Largest queue-depth high-water mark across every link direction
    /// (inter-switch links included), as `(messages, wire bytes)` (the two
    /// maxima may come from different links).
    pub fn queue_hwm(&self) -> (usize, u64) {
        let msgs = self.links().map(DirLink::hwm_msgs).max();
        let bytes = self.links().map(DirLink::hwm_bytes).max();
        (msgs.unwrap_or(0), bytes.unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize) -> Network {
        Network::new(n, LinkSpec::fast_ethernet())
    }

    #[test]
    fn unloaded_delivery_is_wire_time_only() {
        let mut n = net(2);
        assert_eq!((n.len(), n.is_empty()), (2, false));
        let d = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1000);
        assert_eq!((n.deliveries(), n.payload_bytes()), (1, 1000));
        assert_eq!(d.queued, SimDur::ZERO);
        // ~2 serializations of ~1078 wire bytes at 100 Mbps + 2*30us
        let expect_us = 2.0 * 1078.0 * 8.0 / 100.0 + 60.0;
        let got_us = d.latency(SimTime::ZERO).as_micros_f64();
        assert!(
            (got_us - expect_us).abs() < 2.0,
            "got {got_us} vs {expect_us}"
        );
    }

    #[test]
    fn loopback_is_cheap() {
        let mut n = net(1);
        let d = n.send(SimTime::ZERO, NodeId(0), NodeId(0), 1_000_000);
        assert!(d.deliver_at < SimTime::from_millis(1));
    }

    #[test]
    fn sender_uplink_is_the_shared_bottleneck() {
        let mut n = net(3);
        // Two large messages from node 0 to different receivers: the second
        // queues behind the first on node 0's uplink.
        let d1 = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let d2 = n.send(SimTime::ZERO, NodeId(0), NodeId(2), 1_000_000);
        assert_eq!(d1.queued, SimDur::ZERO);
        assert!(d2.queued > SimDur::from_millis(80), "queued {}", d2.queued);
    }

    #[test]
    fn receiver_downlink_is_shared_too() {
        let mut n = net(3);
        let d1 = n.send(SimTime::ZERO, NodeId(1), NodeId(0), 1_000_000);
        let d2 = n.send(SimTime::ZERO, NodeId(2), NodeId(0), 1_000_000);
        assert_eq!(d1.queued, SimDur::ZERO);
        assert!(d2.queued > SimDur::from_millis(70), "queued {}", d2.queued);
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut n = net(4);
        let d1 = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let d2 = n.send(SimTime::ZERO, NodeId(2), NodeId(3), 1_000_000);
        assert_eq!(d1.queued, SimDur::ZERO);
        assert_eq!(d2.queued, SimDur::ZERO);
    }

    #[test]
    fn background_slows_messages() {
        let mut n = net(2);
        let d_fast = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let mut n2 = net(2);
        n2.add_background(NodeId(0), NodeId(1), 70e6);
        let d_slow = n2.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        assert!(
            d_slow.latency(SimTime::ZERO) > d_fast.latency(SimTime::ZERO).mul_f64(2.5),
            "70% background should slow a transfer >2.5x: {} vs {}",
            d_slow.latency(SimTime::ZERO),
            d_fast.latency(SimTime::ZERO)
        );
    }

    #[test]
    fn backlog_reports_queue_depth() {
        let mut n = net(2);
        assert_eq!(n.backlog(SimTime::ZERO, NodeId(0), NodeId(1)), SimDur::ZERO);
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        assert!(n.backlog(SimTime::ZERO, NodeId(0), NodeId(1)) > SimDur::from_millis(80));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_panics() {
        let mut n = net(2);
        n.send(SimTime::ZERO, NodeId(0), NodeId(7), 10);
    }

    #[test]
    fn bounded_queue_tail_drops_bulk() {
        let mut n = Network::new(3, LinkSpec::fast_ethernet().with_queue(2, u64::MAX));
        // Three large sends from node 0: the first streams, the second
        // queues, the third is tail-dropped at the uplink.
        let d1 = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let d2 = n.send(SimTime::ZERO, NodeId(0), NodeId(2), 1_000_000);
        let d3 = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        assert_eq!(d1.dropped, None);
        assert_eq!(d2.dropped, None);
        assert_eq!(d3.dropped, Some(DropDir::Uplink));
        assert_eq!(n.link_drops(), 1);
        let (hwm_msgs, hwm_bytes) = n.queue_hwm();
        assert_eq!(hwm_msgs, 2, "cap held");
        assert!(hwm_bytes > 2_000_000);
    }

    #[test]
    fn receiver_downlink_queue_drops_too() {
        let mut n = Network::new(3, LinkSpec::fast_ethernet().with_queue(1, u64::MAX));
        // Different senders, same receiver: uplinks are empty, so the
        // second message passes its uplink and sheds at node 0's downlink.
        let d1 = n.send(SimTime::ZERO, NodeId(1), NodeId(0), 1_000_000);
        let d2 = n.send(SimTime::ZERO, NodeId(2), NodeId(0), 1_000_000);
        assert_eq!(d1.dropped, None);
        assert_eq!(d2.dropped, Some(DropDir::Downlink));
        assert_eq!(n.link_drops(), 1);
    }

    fn rack_net(sizes: &[usize]) -> Network {
        let placement = crate::topology::TopologySpec::RackList {
            sizes: sizes.to_vec(),
        }
        .resolve(sizes.iter().sum());
        Network::hierarchical(
            &placement,
            LinkSpec::fast_ethernet(),
            LinkSpec::fast_ethernet(),
        )
    }

    #[test]
    fn one_rack_hierarchy_is_the_star() {
        // The degenerate case must build the exact star: no spine links,
        // identical delivery math.
        let mut star = net(4);
        let mut hier = rack_net(&[4]);
        assert!(!hier.is_hierarchical());
        assert_eq!(hier.n_racks(), 1);
        for (from, to, bytes) in [(0, 1, 100), (2, 3, 1_000_000), (1, 2, 5000)] {
            let a = star.send(SimTime::ZERO, NodeId(from), NodeId(to), bytes);
            let b = hier.send(SimTime::ZERO, NodeId(from), NodeId(to), bytes);
            assert_eq!(a, b, "{from}->{to} {bytes}B");
        }
    }

    #[test]
    fn cross_rack_pays_four_hops() {
        let mut n = rack_net(&[2, 2]);
        assert!(n.is_hierarchical());
        let intra = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1000);
        // A different sender, so the inter-rack probe sees idle links.
        let inter = n.send(SimTime::ZERO, NodeId(1), NodeId(2), 1000);
        // Two extra serializations + two extra propagation delays.
        let extra_us = 2.0 * 1078.0 * 8.0 / 100.0 + 60.0;
        let got = inter.latency(SimTime::ZERO).as_micros_f64()
            - intra.latency(SimTime::ZERO).as_micros_f64();
        assert!((got - extra_us).abs() < 2.0, "extra {got} vs {extra_us}");
        assert_eq!(inter.queued, SimDur::ZERO);
    }

    #[test]
    fn spine_contention_is_modeled() {
        let mut n = rack_net(&[2, 2]);
        // Two senders in rack 0 to rack 1: distinct node links, shared
        // rack uplink — the second message queues at the spine tier.
        let d1 = n.send(SimTime::ZERO, NodeId(0), NodeId(2), 1_000_000);
        let d2 = n.send(SimTime::ZERO, NodeId(1), NodeId(3), 1_000_000);
        assert_eq!(d1.queued, SimDur::ZERO);
        assert!(d2.queued > SimDur::from_millis(40), "queued {}", d2.queued);
        assert!(n.switch_uplink(0).messages() == 2);
        assert_eq!(n.switch_downlink(1).messages(), 2);
    }

    #[test]
    fn spine_queue_drops_are_attributed() {
        let placement = crate::topology::TopologySpec::Racks { rack_size: 2 }.resolve(4);
        let spec = LinkSpec::fast_ethernet().with_queue(2, u64::MAX);
        let mut n = Network::hierarchical(&placement, LinkSpec::fast_ethernet(), spec);
        // Node links keep their wide default queues; the rack uplink holds
        // at most two queued messages, so the third sender sheds there.
        let d1 = n.send(SimTime::ZERO, NodeId(0), NodeId(2), 1_000_000);
        let d2 = n.send(SimTime::ZERO, NodeId(1), NodeId(3), 1_000_000);
        let d3 = n.send(SimTime::ZERO, NodeId(0), NodeId(3), 1_000_000);
        assert_eq!(d1.dropped, None);
        assert_eq!(d2.dropped, None);
        assert_eq!(d3.dropped, Some(DropDir::RackUplink));
        assert_eq!(n.spine_drops(), 1);
        assert_eq!(n.link_drops(), 1);
    }

    #[test]
    fn priority_lane_bypasses_saturated_queue() {
        let mut n = Network::new(2, LinkSpec::fast_ethernet().with_queue(1, u64::MAX));
        let idle = n.send_class(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            100,
            TrafficClass::Priority,
        );
        // Saturate the bulk lane.
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 10_000_000);
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 10_000_000);
        assert_eq!(n.link_drops(), 1, "bulk sheds");
        // A priority frame neither sheds nor waits behind the backlog.
        let hb = n.send_class(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            100,
            TrafficClass::Priority,
        );
        assert_eq!(hb.dropped, None);
        assert_eq!(hb.queued, SimDur::ZERO);
        assert_eq!(
            hb.latency(SimTime::ZERO),
            idle.latency(SimTime::ZERO),
            "priority latency unchanged under saturation"
        );
    }
}
