//! Per-connection tracking.
//!
//! dproc's NET_MON module reports, per established connection: round-trip
//! times, used bandwidth, TCP retransmissions, and end-to-end delay.
//! [`ConnTrack`] is the kernel-side table those numbers come from; the
//! cluster glue records a sample into it for every message delivered.

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

/// Weight of the newest sample in the smoothed round-trip time: the
/// classic TCP srtt gain.
const RTT_GAIN: f64 = 0.125;
/// Weight of the newest sample in the smoothed one-way delay.
const DELAY_GAIN: f64 = 0.25;

/// One step of an exponentially weighted moving average kept in `avg`,
/// which is NaN until its first sample.
fn smooth(avg: &mut f64, gain: f64, x: f64) {
    *avg = if avg.is_nan() {
        x
    } else {
        *avg + gain * (x - *avg)
    };
}

/// Live statistics of one connection.
#[derive(Debug, Clone)]
pub struct ConnStats {
    /// Smoothed seconds; NaN before the first delivery.
    rtt: f64,
    e2e_delay: f64,
    bw_window: BytesWindow,
    bytes_total: u64,
    messages: u64,
    retransmissions: u64,
}

impl ConnStats {
    fn new() -> Self {
        ConnStats {
            rtt: f64::NAN,
            e2e_delay: f64::NAN,
            bw_window: BytesWindow::new(SimDur::from_secs(1)),
            bytes_total: 0,
            messages: 0,
            retransmissions: 0,
        }
    }

    /// Smoothed round-trip time, if any sample was recorded.
    pub fn rtt(&self) -> Option<SimDur> {
        (!self.rtt.is_nan()).then(|| SimDur::from_secs_f64(self.rtt))
    }

    /// Smoothed end-to-end (one-way) delay.
    pub fn e2e_delay(&self) -> Option<SimDur> {
        (!self.e2e_delay.is_nan()).then(|| SimDur::from_secs_f64(self.e2e_delay))
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
}

/// One open connection, the size of two cache lines and aligned to them:
/// a delivery reads and writes all of it, NET MON's walk most of it.
#[derive(Debug)]
#[repr(align(64))]
struct Row {
    id: ConnId,
    stats: ConnStats,
}

// What a delivery and a NET MON walk touch per connection. More than two
// lines and `racks1024-digest` (32 k connections, each visited a few
// times per simulated second) pays for the third on every visit.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Row>() == 128);

/// Kernel connection table of one host: one row per open connection,
/// ascending by [`ConnId`], in one dense vector.
///
/// Nothing here hashes. Iteration (NET MON's report, the used-bandwidth
/// sum) walks the rows front to back, so f64 sums and report rows come
/// out in connection-id order by construction. A lookup by id is a binary
/// search — the cold path: whoever records a delivery per message keeps
/// the position [`ConnTrack::record_delivery`] returned and hands it back,
/// and one key compare confirms the row is still there. Opening or closing
/// a connection shifts the rows behind it, which is why a position is a
/// hint and never trusted unchecked; connections churn rarely enough that
/// the shift is cheaper than an index kept beside the rows.
#[derive(Debug, Default)]
pub struct ConnTrack {
    rows: Vec<Row>,
}

impl ConnTrack {
    /// Empty table.
    pub fn new() -> Self {
        ConnTrack::default()
    }

    fn find(&self, id: ConnId) -> Result<usize, usize> {
        self.rows.binary_search_by(|row| row.id.cmp(&id))
    }

    /// The position of `id`'s row, which is opened there if there is none.
    fn find_or_open(&mut self, id: ConnId) -> usize {
        self.find(id).unwrap_or_else(|at| {
            let stats = ConnStats::new();
            self.rows.insert(at, Row { id, stats });
            at
        })
    }

    /// Register a connection (no-op if already present).
    pub fn open(&mut self, id: ConnId) {
        self.find_or_open(id);
    }

    /// Remove a connection; returns its final stats if it existed.
    pub fn close(&mut self, id: ConnId) -> Option<ConnStats> {
        let at = self.find(id).ok()?;
        Some(self.rows.remove(at).stats)
    }

    /// Record a delivered message on `id`, opening it if this is the first
    /// the host sees of it: `one_way` is its end-to-end delay, `bytes` its
    /// payload size, `retransmitted` whether the transport had to resend
    /// it. RTT is sampled as twice the one-way delay (symmetric paths in
    /// the star topology).
    ///
    /// `at` is the position this call returned the last time the caller
    /// recorded on `id` (anything, `u32::MAX` say, the first time). It is
    /// only a hint: unless the row there is `id`'s, the row is looked up.
    pub fn record_delivery(
        &mut self,
        at: u32,
        id: ConnId,
        now: SimTime,
        bytes: u64,
        one_way: SimDur,
        retransmitted: bool,
    ) -> u32 {
        let mut at = at as usize;
        if self.rows.get(at).is_none_or(|row| row.id != id) {
            at = self.find_or_open(id);
        }
        let stats = &mut self.rows[at].stats;
        stats.messages += 1;
        stats.bytes_total += bytes;
        stats.bw_window.record(now, bytes);
        smooth(&mut stats.e2e_delay, DELAY_GAIN, one_way.as_secs_f64());
        smooth(&mut stats.rtt, RTT_GAIN, one_way.as_secs_f64() * 2.0);
        stats.retransmissions += u64::from(retransmitted);
        at as u32
    }

    /// Stats of one connection.
    pub fn get(&self, id: ConnId) -> Option<&ConnStats> {
        self.find(id).ok().map(|at| &self.rows[at].stats)
    }

    /// Mutable stats of one connection.
    pub fn get_mut(&mut self, id: ConnId) -> Option<&mut ConnStats> {
        self.find(id).ok().map(|at| &mut self.rows[at].stats)
    }

    /// Number of open connections.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no connections are open.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total bandwidth used by *all* connections over the last second,
    /// summed in connection-id order (f64 addition is not associative, so
    /// the order is part of the result).
    pub fn total_used_bps(&mut self, now: SimTime) -> f64 {
        let mut total = 0.0;
        for row in &mut self.rows {
            total += row.stats.used_bps(now);
        }
        total
    }

    /// Iterate over connections in ascending connection-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&ConnId, &ConnStats)> {
        self.rows.iter().map(|row| (&row.id, &row.stats))
    }

    /// Iterate over connections in ascending connection-id order, with
    /// their stats writable (a window read prunes it).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&ConnId, &mut ConnStats)> {
        self.rows.iter_mut().map(|row| (&row.id, &mut row.stats))
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

    /// Record one delivery with no position to offer.
    fn deliver(ct: &mut ConnTrack, id: ConnId, now: SimTime, bytes: u64, one_way: SimDur) -> u32 {
        ct.record_delivery(u32::MAX, id, now, bytes, one_way, false)
    }

    #[test]
    fn open_record_close() {
        let mut ct = ConnTrack::new();
        ct.open(cid(1));
        assert_eq!(ct.len(), 1);
        let at = SimTime::from_millis(10);
        deliver(&mut ct, cid(1), at, 1000, SimDur::from_millis(5));
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
        ct.open(cid(1));
        deliver(&mut ct, cid(1), SimTime::ZERO, 10, SimDur::from_millis(10));
        // One big outlier moves the EWMA only by alpha.
        deliver(&mut ct, cid(1), SimTime::ZERO, 10, SimDur::from_millis(100));
        let rtt = ct.get(cid(1)).unwrap().rtt().unwrap();
        // srtt = 20ms + 0.125*(200-20)ms = 42.5ms
        assert!((rtt.as_millis_f64() - 42.5).abs() < 0.01, "rtt {rtt}");
    }

    #[test]
    fn bandwidth_window() {
        let mut ct = ConnTrack::new();
        ct.open(cid(1));
        deliver(
            &mut ct,
            cid(1),
            SimTime::ZERO,
            125_000,
            SimDur::from_millis(1),
        );
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
        ct.open(cid(1));
        ct.open(cid(2));
        deliver(
            &mut ct,
            cid(1),
            SimTime::ZERO,
            125_000,
            SimDur::from_millis(1),
        );
        deliver(
            &mut ct,
            cid(2),
            SimTime::ZERO,
            125_000,
            SimDur::from_millis(1),
        );
        let total = ct.total_used_bps(SimTime::from_millis(100));
        assert!((total - 2e6).abs() < 1.0, "total {total}");
    }

    #[test]
    fn retransmissions_are_counted_with_the_delivery_that_needed_them() {
        let mut ct = ConnTrack::new();
        let (now, d) = (SimTime::ZERO, SimDur::from_millis(1));
        let at = ct.record_delivery(u32::MAX, cid(1), now, 10, d, true);
        let at = ct.record_delivery(at, cid(1), now, 10, d, false);
        ct.record_delivery(at, cid(1), now, 10, d, true);
        let s = ct.get(cid(1)).unwrap();
        assert_eq!((s.messages(), s.retransmissions()), (3, 2));
    }

    #[test]
    fn delivery_on_unknown_conn_opens_it() {
        let mut ct = ConnTrack::new();
        ct.open(cid(5));
        let at = SimTime::from_millis(7);
        assert_eq!(deliver(&mut ct, cid(3), at, 1, SimDur::ZERO), 0);
        let s = ct.get(cid(3)).expect("opened by its first delivery");
        assert_eq!(s.messages(), 1);
        let tags: Vec<u32> = ct.iter().map(|(id, _)| id.tag).collect();
        assert_eq!(tags, vec![3, 5], "and filed in id order");
    }

    #[test]
    fn open_is_idempotent() {
        let mut ct = ConnTrack::new();
        ct.open(cid(1));
        deliver(&mut ct, cid(1), SimTime::ZERO, 5, SimDur::from_millis(1));
        ct.open(cid(1));
        assert_eq!(
            ct.get(cid(1)).unwrap().messages(),
            1,
            "stats survive re-open"
        );
        assert_eq!(ct.iter().count(), 1);
    }

    #[test]
    fn iteration_is_sorted_by_connection_id() {
        let mut ct = ConnTrack::new();
        // Insert in a scrambled order; iteration must come back sorted.
        for tag in [7u32, 2, 9, 1, 4] {
            ct.open(cid(tag));
        }
        let tags: Vec<u32> = ct.iter().map(|(id, _)| id.tag).collect();
        assert_eq!(tags, vec![1, 2, 4, 7, 9]);
        ct.close(cid(4));
        let tags: Vec<u32> = ct.iter().map(|(id, _)| id.tag).collect();
        assert_eq!(tags, vec![1, 2, 7, 9]);
        // Closing an unknown id leaves the table intact.
        assert!(ct.close(cid(100)).is_none());
        assert_eq!(ct.iter().count(), 4);
    }
}
