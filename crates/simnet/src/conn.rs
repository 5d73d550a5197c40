//! Per-connection tracking.
//!
//! dproc's NET_MON module reports, per established connection: round-trip
//! times, used bandwidth, TCP retransmissions, UDP losses, and end-to-end
//! delay. [`ConnTrack`] is the kernel-side table those numbers come from;
//! the cluster glue records a sample into it for every message delivered.

use simcore::fxhash::FxHashMap;
use simcore::stats::Ewma;
use simcore::{SimDur, SimTime};

use crate::link::BytesWindow;
use crate::network::NodeId;

/// Transport protocol of a tracked connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Proto {
    /// Reliable, counts retransmissions.
    Tcp,
    /// Unreliable, counts losses.
    Udp,
}

/// Connection identifier: (local, remote, protocol, port-like tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId {
    /// Local endpoint.
    pub local: NodeId,
    /// Remote endpoint.
    pub remote: NodeId,
    /// Transport protocol.
    pub proto: Proto,
    /// Disambiguates multiple connections between the same endpoints.
    pub tag: u32,
}

/// Live statistics of one connection.
#[derive(Debug, Clone)]
pub struct ConnStats {
    rtt: Ewma,
    e2e_delay: Ewma,
    bw_window: BytesWindow,
    bytes_total: u64,
    messages: u64,
    retransmissions: u64,
    losses: u64,
    opened_at: SimTime,
}

impl ConnStats {
    fn new(now: SimTime) -> Self {
        ConnStats {
            rtt: Ewma::new(0.125), // classic TCP srtt gain
            e2e_delay: Ewma::new(0.25),
            bw_window: BytesWindow::new(SimDur::from_secs(1)),
            bytes_total: 0,
            messages: 0,
            retransmissions: 0,
            losses: 0,
            opened_at: now,
        }
    }

    /// Smoothed round-trip time, if any sample was recorded.
    pub fn rtt(&self) -> Option<SimDur> {
        self.rtt.get().map(SimDur::from_secs_f64)
    }

    /// Smoothed end-to-end (one-way) delay.
    pub fn e2e_delay(&self) -> Option<SimDur> {
        self.e2e_delay.get().map(SimDur::from_secs_f64)
    }

    /// Bandwidth used over the last second, bits/sec.
    pub fn used_bps(&mut self, now: SimTime) -> f64 {
        self.bw_window.bps(now)
    }

    /// Lifetime bytes.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }
    /// Lifetime message count.
    pub fn messages(&self) -> u64 {
        self.messages
    }
    /// TCP retransmissions observed.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }
    /// UDP messages lost.
    pub fn losses(&self) -> u64 {
        self.losses
    }
    /// When the connection was registered.
    pub fn opened_at(&self) -> SimTime {
        self.opened_at
    }
}

/// Kernel connection table of one host.
///
/// Lookups go through the hash map; every *iteration* goes through
/// `order`, a sorted index maintained on open/close. Hash-order
/// iteration is banned on the monitoring path (f64 sums and report
/// rows must not depend on hasher state — see the workspace `detlint`
/// rules), and connections churn rarely enough that keeping the index
/// sorted is cheaper than sorting per poll.
#[derive(Debug, Default)]
pub struct ConnTrack {
    conns: FxHashMap<ConnId, ConnStats>,
    /// All open connection ids, ascending.
    order: Vec<ConnId>,
}

impl ConnTrack {
    /// Empty table.
    pub fn new() -> Self {
        ConnTrack {
            conns: FxHashMap::default(),
            order: Vec::new(),
        }
    }

    /// Register a connection (no-op if already present).
    pub fn open(&mut self, id: ConnId, now: SimTime) {
        self.entry(id, now);
    }

    /// The stats of `id`, which opens at `now` if it is not open yet: one
    /// hash probe, and the sorted index is touched on first sight only.
    fn entry(&mut self, id: ConnId, now: SimTime) -> &mut ConnStats {
        self.conns.entry(id).or_insert_with(|| {
            let (Ok(at) | Err(at)) = self.order.binary_search(&id);
            self.order.insert(at, id);
            ConnStats::new(now)
        })
    }

    /// Remove a connection; returns its final stats if it existed.
    pub fn close(&mut self, id: ConnId) -> Option<ConnStats> {
        if let Ok(at) = self.order.binary_search(&id) {
            self.order.remove(at);
        }
        self.conns.remove(&id)
    }

    /// Record a delivered message on `id`, opening it if this is the first
    /// the host sees of it: `one_way` is its end-to-end delay, `bytes` its
    /// payload size. RTT is sampled as twice the one-way delay (symmetric
    /// paths in the star topology).
    pub fn record_delivery(&mut self, id: ConnId, now: SimTime, bytes: u64, one_way: SimDur) {
        let stats = self.entry(id, now);
        stats.messages += 1;
        stats.bytes_total += bytes;
        stats.bw_window.record(now, bytes);
        stats.e2e_delay.add(one_way.as_secs_f64());
        stats.rtt.add(one_way.as_secs_f64() * 2.0);
    }

    /// Record a TCP retransmission.
    pub fn record_retransmission(&mut self, id: ConnId) {
        if let Some(s) = self.conns.get_mut(&id) {
            s.retransmissions += 1;
        }
    }

    /// Record a UDP loss.
    pub fn record_loss(&mut self, id: ConnId) {
        if let Some(s) = self.conns.get_mut(&id) {
            s.losses += 1;
        }
    }

    /// Stats of one connection.
    pub fn get(&self, id: ConnId) -> Option<&ConnStats> {
        self.conns.get(&id)
    }

    /// Mutable stats of one connection.
    pub fn get_mut(&mut self, id: ConnId) -> Option<&mut ConnStats> {
        self.conns.get_mut(&id)
    }

    /// Number of open connections.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True if no connections are open.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Total bandwidth used by *all* connections over the last second.
    /// Summed in connection-id order: f64 addition is not associative,
    /// so hash-order summation would make the total depend on hasher
    /// state and break bit-identical replay.
    pub fn total_used_bps(&mut self, now: SimTime) -> f64 {
        let mut total = 0.0;
        for id in &self.order {
            let stats = self.conns.get_mut(id).expect("order tracks conns");
            total += stats.used_bps(now);
        }
        total
    }

    /// Iterate over connections in ascending connection-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&ConnId, &ConnStats)> {
        self.order
            .iter()
            .map(|id| (id, self.conns.get(id).expect("order tracks conns")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(tag: u32) -> ConnId {
        ConnId {
            local: NodeId(0),
            remote: NodeId(1),
            proto: Proto::Tcp,
            tag,
        }
    }

    #[test]
    fn open_record_close() {
        let mut ct = ConnTrack::new();
        ct.open(cid(1), SimTime::ZERO);
        assert_eq!(ct.len(), 1);
        ct.record_delivery(
            cid(1),
            SimTime::from_millis(10),
            1000,
            SimDur::from_millis(5),
        );
        let s = ct.get(cid(1)).unwrap();
        assert_eq!(s.messages(), 1);
        assert_eq!(s.bytes_total(), 1000);
        assert_eq!(s.rtt(), Some(SimDur::from_millis(10)));
        assert_eq!(s.e2e_delay(), Some(SimDur::from_millis(5)));
        let closed = ct.close(cid(1)).unwrap();
        assert_eq!(closed.messages(), 1);
        assert!(ct.is_empty());
    }

    #[test]
    fn rtt_is_smoothed() {
        let mut ct = ConnTrack::new();
        ct.open(cid(1), SimTime::ZERO);
        ct.record_delivery(cid(1), SimTime::ZERO, 10, SimDur::from_millis(10));
        // One big outlier moves the EWMA only by alpha.
        ct.record_delivery(cid(1), SimTime::ZERO, 10, SimDur::from_millis(100));
        let rtt = ct.get(cid(1)).unwrap().rtt().unwrap();
        // srtt = 20ms + 0.125*(200-20)ms = 42.5ms
        assert!((rtt.as_millis_f64() - 42.5).abs() < 0.01, "rtt {rtt}");
    }

    #[test]
    fn bandwidth_window() {
        let mut ct = ConnTrack::new();
        ct.open(cid(1), SimTime::ZERO);
        ct.record_delivery(cid(1), SimTime::ZERO, 125_000, SimDur::from_millis(1));
        let bps = ct
            .get_mut(cid(1))
            .unwrap()
            .used_bps(SimTime::from_millis(500));
        assert!((bps - 1e6).abs() < 1.0, "bps {bps}");
        // Window slides off.
        let bps = ct.get_mut(cid(1)).unwrap().used_bps(SimTime::from_secs(3));
        assert_eq!(bps, 0.0);
    }

    #[test]
    fn total_bandwidth_sums_connections() {
        let mut ct = ConnTrack::new();
        ct.open(cid(1), SimTime::ZERO);
        ct.open(cid(2), SimTime::ZERO);
        ct.record_delivery(cid(1), SimTime::ZERO, 125_000, SimDur::from_millis(1));
        ct.record_delivery(cid(2), SimTime::ZERO, 125_000, SimDur::from_millis(1));
        let total = ct.total_used_bps(SimTime::from_millis(100));
        assert!((total - 2e6).abs() < 1.0, "total {total}");
    }

    #[test]
    fn retransmissions_and_losses() {
        let mut ct = ConnTrack::new();
        ct.open(cid(1), SimTime::ZERO);
        ct.record_retransmission(cid(1));
        ct.record_retransmission(cid(1));
        ct.record_loss(cid(1));
        let s = ct.get(cid(1)).unwrap();
        assert_eq!(s.retransmissions(), 2);
        assert_eq!(s.losses(), 1);
        // Recording against unknown connections is a silent no-op.
        ct.record_retransmission(cid(9));
        ct.record_loss(cid(9));
    }

    #[test]
    fn delivery_on_unknown_conn_opens_it() {
        let mut ct = ConnTrack::new();
        ct.open(cid(5), SimTime::ZERO);
        let at = SimTime::from_millis(7);
        ct.record_delivery(cid(3), at, 1, SimDur::ZERO);
        let s = ct.get(cid(3)).expect("opened by its first delivery");
        assert_eq!((s.messages(), s.opened_at()), (1, at));
        let tags: Vec<u32> = ct.iter().map(|(id, _)| id.tag).collect();
        assert_eq!(tags, vec![3, 5], "and indexed in id order");
    }

    #[test]
    fn open_is_idempotent() {
        let mut ct = ConnTrack::new();
        ct.open(cid(1), SimTime::ZERO);
        ct.record_delivery(cid(1), SimTime::ZERO, 5, SimDur::from_millis(1));
        ct.open(cid(1), SimTime::from_secs(9));
        assert_eq!(
            ct.get(cid(1)).unwrap().messages(),
            1,
            "stats survive re-open"
        );
        assert_eq!(ct.get(cid(1)).unwrap().opened_at(), SimTime::ZERO);
        assert_eq!(ct.iter().count(), 1);
    }

    #[test]
    fn iteration_is_sorted_by_connection_id() {
        let mut ct = ConnTrack::new();
        // Insert in a scrambled order; iteration must come back sorted.
        for tag in [7u32, 2, 9, 1, 4] {
            ct.open(cid(tag), SimTime::ZERO);
        }
        let tags: Vec<u32> = ct.iter().map(|(id, _)| id.tag).collect();
        assert_eq!(tags, vec![1, 2, 4, 7, 9]);
        ct.close(cid(4));
        let tags: Vec<u32> = ct.iter().map(|(id, _)| id.tag).collect();
        assert_eq!(tags, vec![1, 2, 7, 9]);
        // Closing an unknown id leaves the index intact.
        assert!(ct.close(cid(100)).is_none());
        assert_eq!(ct.iter().count(), 4);
    }
}
