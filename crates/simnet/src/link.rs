//! A single link direction: capacity, FIFO busy horizon, background load,
//! and utilization accounting.

use std::collections::VecDeque;

use simcore::{SimDur, SimTime};

/// Static parameters of a (full-duplex) link.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Raw capacity in bits per second (per direction).
    pub bandwidth_bps: f64,
    /// One-way propagation + switching latency.
    pub latency: SimDur,
    /// Maximum transmission unit payload (bytes per packet on the wire).
    pub mtu_payload: usize,
    /// Per-packet overhead on the wire (headers, preamble, inter-frame gap).
    pub per_packet_overhead: usize,
    /// Maximum bulk messages queued per direction; a bulk message arriving
    /// while this many are already in flight is tail-dropped. A message
    /// arriving at an empty queue is always admitted regardless of caps.
    pub queue_msgs: usize,
    /// Maximum queued wire bytes per direction (tail-drop beyond, same
    /// empty-queue exemption as `queue_msgs`).
    pub queue_bytes: u64,
}

impl LinkSpec {
    /// 100 Mbps switched Fast Ethernet, as in the paper's testbed. The
    /// default queue caps are sized so ordinary monitoring traffic never
    /// sheds; overload scenarios tighten them via [`LinkSpec::with_queue`].
    pub fn fast_ethernet() -> Self {
        LinkSpec {
            bandwidth_bps: 100e6,
            latency: SimDur::from_micros(30),
            mtu_payload: 1448,
            per_packet_overhead: 78,
            queue_msgs: 4096,
            queue_bytes: 256 * 1024 * 1024,
        }
    }

    /// Same link with bounded per-direction queues of `msgs` messages /
    /// `bytes` wire bytes.
    #[must_use]
    pub fn with_queue(mut self, msgs: usize, bytes: u64) -> Self {
        self.queue_msgs = msgs;
        self.queue_bytes = bytes;
        self
    }

    /// Number of bytes actually occupying the wire for a `bytes` payload.
    pub fn wire_bytes(&self, bytes: usize) -> usize {
        if bytes == 0 {
            return self.per_packet_overhead;
        }
        let packets = bytes.div_ceil(self.mtu_payload);
        bytes + packets * self.per_packet_overhead
    }

    /// Serialization time of `bytes` of payload at full capacity.
    pub fn tx_time(&self, bytes: usize) -> SimDur {
        SimDur::from_secs_f64(self.wire_bytes(bytes) as f64 * 8.0 / self.bandwidth_bps)
    }

    /// Conservative lookahead for parallel simulation: a message sent at
    /// `t` cannot be delivered before `t + lookahead()`. The send path
    /// charges at least two propagation latencies plus two first-packet
    /// serializations; the serializations only get *longer* under load or
    /// degradation (effective bandwidth never exceeds the nominal rate),
    /// and the empty-payload wire size (`per_packet_overhead` bytes) lower
    /// bounds every first packet. Loopback bypasses the wire but also
    /// never crosses a shard boundary.
    pub fn lookahead(&self) -> SimDur {
        (self.latency + self.tx_time(0)).mul_f64(2.0)
    }
}

/// Entries a [`BytesWindow`] holds inline. A per-connection window fed
/// once per poll holds one or two; link and event meters hold dozens and
/// spill.
const WINDOW_INLINE: usize = 2;

/// Sliding-window byte accounting, used to estimate recent utilization.
///
/// The entries are one FIFO: the oldest [`WINDOW_INLINE`] sit in the
/// struct itself, whatever is newer than those in a deque behind a
/// pointer — so a quiet window is 64 bytes, costs no second cache line
/// and no allocation, and a busy one prunes and reads the same entries in
/// the same order as a plain deque.
#[derive(Debug, Clone)]
pub struct BytesWindow {
    window: SimDur,
    total: u64,
    /// The oldest entries, oldest first: `head[..head_len]`.
    head: [(SimTime, u64); WINDOW_INLINE],
    head_len: usize,
    /// Entries newer than all of `head`; empty unless `head` is full, and
    /// allocated the first time that happens. Boxed for the struct's size:
    /// a deque's four words here would be a window's third.
    #[allow(clippy::box_collection)]
    tail: Option<Box<VecDeque<(SimTime, u64)>>>,
}

// `simnet::conn` fits a connection's row in two cache lines on this.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<BytesWindow>() == 64);

impl BytesWindow {
    /// Track bytes over a sliding `window`.
    pub fn new(window: SimDur) -> Self {
        assert!(!window.is_zero(), "zero-width byte window");
        BytesWindow {
            window,
            total: 0,
            head: [(SimTime::ZERO, 0); WINDOW_INLINE],
            head_len: 0,
            tail: None,
        }
    }

    fn prune(&mut self, now: SimTime) {
        let cutoff = now - self.window;
        while self.head_len > 0 && self.head[0].0 < cutoff {
            self.total -= self.head[0].1;
            self.head.copy_within(1..self.head_len, 0);
            match self.tail.as_mut().and_then(|tail| tail.pop_front()) {
                Some(next) => self.head[self.head_len - 1] = next,
                None => self.head_len -= 1,
            }
        }
    }

    /// Record `bytes` transferred at `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        self.prune(now);
        if self.head_len < WINDOW_INLINE {
            self.head[self.head_len] = (now, bytes);
            self.head_len += 1;
        } else {
            self.tail.get_or_insert_default().push_back((now, bytes));
        }
        self.total += bytes;
    }

    /// Bytes observed within the window ending at `now`.
    pub fn bytes(&mut self, now: SimTime) -> u64 {
        self.prune(now);
        self.total
    }

    /// Average bits per second over the window ending at `now`.
    pub fn bps(&mut self, now: SimTime) -> f64 {
        self.prune(now);
        self.total as f64 * 8.0 / self.window.as_secs_f64()
    }

    /// Window width.
    pub fn window(&self) -> SimDur {
        self.window
    }
}

/// One direction of a full-duplex link: a FIFO store-and-forward queue with
/// a busy horizon, shared between discrete messages and fluid background
/// flows.
#[derive(Debug, Clone)]
pub struct DirLink {
    spec: LinkSpec,
    /// Time at which the link becomes free for the next message.
    busy_until: SimTime,
    /// Fluid background load (e.g. Iperf UDP floods), bits per second.
    background_bps: f64,
    /// Recent message traffic, for utilization probes.
    msg_window: BytesWindow,
    /// Lifetime counters.
    messages: u64,
    bytes: u64,
    /// Bulk transfers still occupying the queue: `(drain time, wire bytes)`,
    /// in FIFO order. Bounded by `spec.queue_msgs`.
    pending: VecDeque<(SimTime, u64)>,
    /// Sum of the wire bytes in `pending`.
    queued_bytes: u64,
    /// Tail-dropped messages / wire bytes (lifetime).
    drops: u64,
    drop_bytes: u64,
    /// High-water marks of the queue depth.
    hwm_msgs: usize,
    hwm_bytes: u64,
}

impl DirLink {
    /// New idle link direction.
    pub fn new(spec: LinkSpec) -> Self {
        DirLink {
            spec,
            busy_until: SimTime::ZERO,
            background_bps: 0.0,
            msg_window: BytesWindow::new(SimDur::from_secs(1)),
            messages: 0,
            bytes: 0,
            pending: VecDeque::new(),
            queued_bytes: 0,
            drops: 0,
            drop_bytes: 0,
            hwm_msgs: 0,
            hwm_bytes: 0,
        }
    }

    /// Static link parameters.
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// Capacity available to discrete messages after background flows,
    /// in bits per second. Floored at 1% of raw capacity: even under severe
    /// UDP flooding some packets get through (UDP floods and TCP-ish
    /// messages share the wire statistically).
    pub fn effective_bps(&self) -> f64 {
        let residual = self.spec.bandwidth_bps - self.background_bps;
        residual.max(self.spec.bandwidth_bps * 0.01)
    }

    /// Serialization time of `bytes` at the current effective rate.
    pub fn tx_time_now(&self, bytes: usize) -> SimDur {
        SimDur::from_secs_f64(self.spec.wire_bytes(bytes) as f64 * 8.0 / self.effective_bps())
    }

    /// Enqueue a message: returns `(start, finish)` of its serialization on
    /// this link direction. FIFO: transmission starts when the link frees.
    pub fn enqueue(&mut self, now: SimTime, bytes: usize) -> (SimTime, SimTime) {
        let (start, finish) = self.reserve(now, self.tx_time_now(bytes));
        self.account(now, bytes);
        (start, finish)
    }

    /// Reserve the link for `dur` starting no earlier than `earliest`
    /// (FIFO behind existing traffic). Returns `(start, finish)` and marks
    /// the link busy until `finish`. Does not touch byte accounting.
    pub fn reserve(&mut self, earliest: SimTime, dur: SimDur) -> (SimTime, SimTime) {
        let start = self.busy_until.max(earliest);
        let finish = start + dur;
        self.busy_until = finish;
        (start, finish)
    }

    /// Push the busy horizon out to `t` if it is later (used when a
    /// downstream constraint stretches a reserved transmission).
    pub fn extend_busy(&mut self, t: SimTime) {
        self.busy_until = self.busy_until.max(t);
    }

    /// Record a message's bytes in the counters and the utilization window.
    pub fn account(&mut self, now: SimTime, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
        self.msg_window.record(now, bytes as u64);
    }

    /// Queueing delay a message would currently experience (time until the
    /// link frees), without enqueuing.
    pub fn backlog(&self, now: SimTime) -> SimDur {
        self.busy_until.since(now)
    }

    /// Drop queue entries whose transmissions have drained by `now`.
    fn drain_queue(&mut self, now: SimTime) {
        while let Some(&(t, b)) = self.pending.front() {
            if t <= now {
                self.pending.pop_front();
                self.queued_bytes -= b;
            } else {
                break;
            }
        }
    }

    /// Deterministic tail-drop admission for a bulk transfer of
    /// `wire_bytes` arriving at `now`: drains finished entries, then
    /// rejects the newcomer if either queue cap would be exceeded. An
    /// empty queue always admits, so a single transfer larger than
    /// `queue_bytes` still passes (the NIC streams it; only *queueing*
    /// behind it is bounded). A rejection bumps the drop counters.
    pub fn admit(&mut self, now: SimTime, wire_bytes: u64) -> bool {
        self.drain_queue(now);
        if self.pending.is_empty() {
            return true;
        }
        if self.pending.len() >= self.spec.queue_msgs
            || self.queued_bytes + wire_bytes > self.spec.queue_bytes
        {
            self.drops += 1;
            self.drop_bytes += wire_bytes;
            return false;
        }
        true
    }

    /// Record an admitted bulk transfer occupying the queue until `until`
    /// (its serialization finish), updating the high-water marks.
    pub fn occupy(&mut self, until: SimTime, wire_bytes: u64) {
        self.pending.push_back((until, wire_bytes));
        self.queued_bytes += wire_bytes;
        self.hwm_msgs = self.hwm_msgs.max(self.pending.len());
        self.hwm_bytes = self.hwm_bytes.max(self.queued_bytes);
    }

    /// Current queue depth at `now` as `(messages, wire bytes)`.
    pub fn queue_depth(&mut self, now: SimTime) -> (usize, u64) {
        self.drain_queue(now);
        (self.pending.len(), self.queued_bytes)
    }

    /// Lifetime tail-dropped message count.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Lifetime tail-dropped wire bytes.
    pub fn drop_bytes(&self) -> u64 {
        self.drop_bytes
    }

    /// High-water mark of queued messages.
    pub fn hwm_msgs(&self) -> usize {
        self.hwm_msgs
    }

    /// High-water mark of queued wire bytes.
    pub fn hwm_bytes(&self) -> u64 {
        self.hwm_bytes
    }

    /// Add fluid background load (bits/sec).
    pub fn add_background(&mut self, bps: f64) {
        assert!(bps >= 0.0, "negative background load");
        self.background_bps += bps;
    }

    /// Remove fluid background load (bits/sec); clamps at zero.
    pub fn remove_background(&mut self, bps: f64) {
        self.background_bps = (self.background_bps - bps).max(0.0);
    }

    /// Current fluid background load in bits/sec.
    pub fn background_bps(&self) -> f64 {
        self.background_bps
    }

    /// Recent message throughput in bits/sec (sliding 1 s window).
    pub fn message_bps(&mut self, now: SimTime) -> f64 {
        self.msg_window.bps(now)
    }

    /// Lifetime message count.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Lifetime payload bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LinkSpec {
        LinkSpec::fast_ethernet()
    }

    #[test]
    fn wire_bytes_adds_per_packet_overhead() {
        let s = spec();
        assert_eq!(s.wire_bytes(100), 100 + 78);
        assert_eq!(s.wire_bytes(1448), 1448 + 78);
        assert_eq!(s.wire_bytes(1449), 1449 + 2 * 78);
        assert_eq!(s.wire_bytes(0), 78);
    }

    #[test]
    fn tx_time_scales_with_size() {
        let s = spec();
        let t1 = s.tx_time(1000);
        let t2 = s.tx_time(2000);
        assert!(t2 > t1);
        // 100 Mbps: 1 MB payload ≈ 80 ms + overheads
        let t = s.tx_time(1_000_000);
        assert!(
            t > SimDur::from_millis(80) && t < SimDur::from_millis(90),
            "{t}"
        );
    }

    #[test]
    fn fifo_queueing_accumulates() {
        let mut l = DirLink::new(spec());
        let (s1, f1) = l.enqueue(SimTime::ZERO, 125_000); // 1 Mbit => 10ms + oh
        assert_eq!(s1, SimTime::ZERO);
        let (s2, f2) = l.enqueue(SimTime::ZERO, 125_000);
        assert_eq!(s2, f1, "second message starts when the first ends");
        assert!(f2 > f1);
        assert_eq!(l.messages(), 2);
        assert_eq!(l.bytes(), 250_000);
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut l = DirLink::new(spec());
        l.enqueue(SimTime::ZERO, 1000);
        // long after the first finishes the link is idle again
        assert_eq!(l.backlog(SimTime::from_secs(5)), SimDur::ZERO);
        let (s, _) = l.enqueue(SimTime::from_secs(5), 1000);
        assert_eq!(s, SimTime::from_secs(5));
    }

    #[test]
    fn background_reduces_effective_bandwidth() {
        let mut l = DirLink::new(spec());
        let t_before = l.tx_time_now(125_000);
        l.add_background(50e6);
        let t_after = l.tx_time_now(125_000);
        assert!(
            t_after > t_before.mul_f64(1.9) && t_after < t_before.mul_f64(2.1),
            "halving bandwidth doubles tx time: {t_before} -> {t_after}"
        );
        l.remove_background(50e6);
        assert_eq!(l.background_bps(), 0.0);
    }

    #[test]
    fn effective_bandwidth_floored() {
        let mut l = DirLink::new(spec());
        l.add_background(500e6); // way over capacity
        assert!((l.effective_bps() - 1e6).abs() < 1.0, "1% floor");
    }

    #[test]
    fn bytes_window_slides() {
        let mut w = BytesWindow::new(SimDur::from_secs(1));
        w.record(SimTime::ZERO, 1000);
        w.record(SimTime::from_millis(500), 1000);
        assert_eq!(w.bytes(SimTime::from_millis(900)), 2000);
        // at t=1.2s the first entry (t=0) leaves the window
        assert_eq!(w.bytes(SimTime::from_millis(1200)), 1000);
        assert!((w.bps(SimTime::from_millis(1200)) - 8000.0).abs() < 1e-9);
        assert_eq!(w.window(), SimDur::from_secs(1));
    }

    #[test]
    fn tail_drop_bounds_the_queue() {
        let mut l = DirLink::new(spec().with_queue(2, u64::MAX));
        let w = spec().wire_bytes(125_000) as u64;
        // First transfer: empty queue, always admitted.
        assert!(l.admit(SimTime::ZERO, w));
        let (_, f1) = l.enqueue(SimTime::ZERO, 125_000);
        l.occupy(f1, w);
        // Second fits under the cap.
        assert!(l.admit(SimTime::ZERO, w));
        let (_, f2) = l.enqueue(SimTime::ZERO, 125_000);
        l.occupy(f2, w);
        // Third exceeds queue_msgs = 2: tail-dropped.
        assert!(!l.admit(SimTime::ZERO, w));
        assert_eq!(l.drops(), 1);
        assert_eq!(l.drop_bytes(), w);
        assert_eq!(l.hwm_msgs(), 2);
        assert_eq!(l.queue_depth(SimTime::ZERO), (2, 2 * w));
        // After both drain, the queue is empty and admits again.
        assert!(l.admit(f2 + SimDur::from_millis(1), w));
        assert_eq!(l.queue_depth(f2 + SimDur::from_millis(1)), (0, 0));
    }

    #[test]
    fn byte_cap_drops_but_oversize_single_passes() {
        let mut l = DirLink::new(spec().with_queue(usize::MAX, 1000));
        // A 1 MB transfer into an empty queue passes despite the 1000-byte
        // cap: only queueing behind it is bounded.
        let big = spec().wire_bytes(1_000_000) as u64;
        assert!(l.admit(SimTime::ZERO, big));
        let (_, f) = l.enqueue(SimTime::ZERO, 1_000_000);
        l.occupy(f, big);
        // Anything arriving behind it busts the byte cap.
        assert!(!l.admit(SimTime::ZERO, 100));
        assert_eq!(l.drops(), 1);
        assert!(l.hwm_bytes() >= big);
    }

    #[test]
    fn message_bps_reflects_traffic() {
        let mut l = DirLink::new(spec());
        l.enqueue(SimTime::ZERO, 125_000);
        let bps = l.message_bps(SimTime::from_millis(100));
        assert!((bps - 1e6).abs() < 1e-6, "1 Mbit in a 1 s window: {bps}");
    }
}
