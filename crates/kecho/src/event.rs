//! Event identity and typed payloads.

use simnet::NodeId;

/// What kind of traffic an event carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Monitoring data (resource records).
    Monitoring,
    /// Control traffic (parameters, filters).
    Control,
    /// Liveness beacon sent when parameters/filters suppress all data for
    /// a subscriber, so silence-by-filter is distinguishable from death.
    Heartbeat,
    /// A rack aggregator's bounded summary of its members' metrics,
    /// republished up the tree on the spine digest channel. Digests are
    /// summaries, not streams: they carry no per-stream sequence numbers
    /// and bypass the credit/loss machinery — a lost digest is simply
    /// superseded by the next one.
    Digest,
}

/// One aggregated metric in a rack digest: the fold of every member's
/// latest sample for that metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigestRecord {
    /// Metric id within the standard module environment.
    pub metric_id: u32,
    /// Minimum across contributing members.
    pub min: f64,
    /// Maximum across contributing members.
    pub max: f64,
    /// Mean across contributing members.
    pub mean: f64,
    /// How many members contributed a sample.
    pub count: u32,
    /// Newest contributing sample time, seconds — the digest's freshness.
    pub newest_ts: f64,
}

/// Payload of a digest event: one rack's bounded roll-up. Size is
/// O(metrics), never O(members), which is the whole point of the
/// aggregation tier.
#[derive(Debug, Clone, PartialEq)]
pub struct DigestPayload {
    /// The rack the digest summarizes.
    pub rack: u32,
    /// The aggregator node that produced it.
    pub origin: NodeId,
    /// Members folded in (live rack members with at least one sample).
    pub members: u32,
    /// Per-metric folds.
    pub records: Vec<DigestRecord>,
}

/// One monitoring record on the wire: a metric sample from some node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonRecord {
    /// Metric id within the publisher's environment.
    pub metric_id: u32,
    /// Sampled value.
    pub value: f64,
    /// Value previously sent (lets subscribers run differential logic).
    pub last_value_sent: f64,
    /// Sample time, seconds.
    pub timestamp: f64,
}

/// Payload of a monitoring event.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitoringPayload {
    /// The node the metrics describe.
    pub origin: NodeId,
    /// Publisher incarnation. Bumped when the publisher restarts after a
    /// crash, so subscribers can tell a reset stream from a gap. 32 bits
    /// keeps small events inside the paper's 50–100 B band.
    pub epoch: u32,
    /// Position in the per-(publisher, subscriber) stream. Consecutive on
    /// each stream (heartbeats occupy slots too); a skip means loss.
    pub stream_seq: u32,
    /// Piggybacked flow-control counter for the *reverse* stream
    /// (receiver publishes to this event's sender too): the sender's
    /// cumulative mod-256 grant counter, the same one a standalone
    /// [`ControlMsg::Credit`] carries (see the [`crate::credit`] module).
    /// Carrying the running total instead of an increment makes either
    /// carrier loss-tolerant (the next surviving one re-delivers what a
    /// lost one held), and steady-state flow control in a bidirectional
    /// mesh costs zero standalone frames. One byte on the wire, present
    /// only when non-zero; the counter never rests on zero once a grant
    /// has been made.
    pub credit_grant: u32,
    /// The records that survived parameters/filters.
    pub records: Vec<MonRecord>,
    /// Extra bytes of payload, modeling event bodies beyond the record
    /// structs (the paper benchmarks 50–100 B and 5 KB events; SmartPointer
    /// sends megabytes). Only the *length* travels conceptually — the wire
    /// codec materializes zeros.
    pub pad_bytes: u32,
    /// Schema extension for metrics beyond the publisher's standard module
    /// set (run-time registered modules): `(metric_id, metric_name,
    /// proc_file_name)`. ECho events are typed; this is the slice of the
    /// type information a subscriber needs to interpret foreign ids.
    pub ext_names: Vec<(u32, String, String)>,
}

/// A threshold/period parameter, settable through a node's control file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamSpec {
    /// Update every `period_s` seconds.
    Period {
        /// Seconds between updates.
        period_s: f64,
    },
    /// Send only if the value changed at least `fraction` relative to the
    /// last sent value (the paper's "differential filter": 15% => 0.15).
    DeltaFraction {
        /// Relative change required.
        fraction: f64,
    },
    /// Send only while the value is above `bound`.
    Above {
        /// Lower bound.
        bound: f64,
    },
    /// Send only while the value is below `bound`.
    Below {
        /// Upper bound.
        bound: f64,
    },
    /// Send only while the value is inside `[lo, hi]`.
    Range {
        /// Lower edge.
        lo: f64,
        /// Upper edge.
        hi: f64,
    },
}

/// Control-channel messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Set a parameter for one metric (by name) at the target node.
    SetParam {
        /// Metric name (e.g. `"cpu"`); `"*"` applies to all. d-mon's
        /// `and`, `clear` and `window` commands ride here as a prefix of
        /// the name; `dproc::control`'s module doc is the one place that
        /// spells them.
        metric: String,
        /// The parameter.
        param: ParamSpec,
    },
    /// Deploy an E-code filter (source string) at the target node.
    DeployFilter {
        /// Filter source code.
        source: String,
    },
    /// Remove the deployed filter at the target node.
    RemoveFilter,
    /// Ask the target to (re)announce its subscriptions — used when a node
    /// joins late.
    Announce,
    /// Sent back to a subscriber whose `DeployFilter` was refused by the
    /// publisher's static verifier (unbounded or over-budget cost).
    FilterRejected {
        /// Why the filter was not admitted.
        reason: String,
    },
    /// Flow-control grant from a subscriber: its cumulative mod-256 grant
    /// counter toward the receiving publisher, the value the piggyback
    /// byte carries too (see the [`crate::credit`] module). A counter
    /// 1–127 ahead of the last one taken grants the difference; any other
    /// value grants nothing. Control frames themselves never consume
    /// credits.
    Credit {
        /// The grant counter, 1–255.
        credits: u32,
    },
}

/// A complete event as it travels between kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Traffic class.
    pub kind: EventKind,
    /// Channel the event was submitted on.
    pub channel: u32,
    /// Publisher-assigned sequence number.
    pub seq: u64,
    /// Publishing node.
    pub sender: NodeId,
    /// For control events, the node the message is addressed to (control
    /// messages are targeted; monitoring events fan out).
    pub target: Option<NodeId>,
    /// Payload.
    pub payload: Payload,
}

/// Payload of a heartbeat event: no data, just liveness + stream position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatPayload {
    /// The node asserting liveness.
    pub origin: NodeId,
    /// Publisher incarnation (see [`MonitoringPayload::epoch`]).
    pub epoch: u32,
    /// Position in the per-(publisher, subscriber) stream.
    pub stream_seq: u32,
}

/// The payload families.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Monitoring data.
    Monitoring(MonitoringPayload),
    /// A control message.
    Control(ControlMsg),
    /// A liveness beacon.
    Heartbeat(HeartbeatPayload),
    /// A rack digest.
    Digest(DigestPayload),
}

impl Event {
    /// Construct a monitoring event.
    pub fn monitoring(channel: u32, seq: u64, sender: NodeId, payload: MonitoringPayload) -> Self {
        Event {
            kind: EventKind::Monitoring,
            channel,
            seq,
            sender,
            target: None,
            payload: Payload::Monitoring(payload),
        }
    }

    /// Construct a targeted control event.
    pub fn control(
        channel: u32,
        seq: u64,
        sender: NodeId,
        target: NodeId,
        msg: ControlMsg,
    ) -> Self {
        Event {
            kind: EventKind::Control,
            channel,
            seq,
            sender,
            target: Some(target),
            payload: Payload::Control(msg),
        }
    }

    /// Construct a targeted heartbeat event.
    pub fn heartbeat(
        channel: u32,
        seq: u64,
        sender: NodeId,
        target: NodeId,
        payload: HeartbeatPayload,
    ) -> Self {
        Event {
            kind: EventKind::Heartbeat,
            channel,
            seq,
            sender,
            target: Some(target),
            payload: Payload::Heartbeat(payload),
        }
    }

    /// Construct a digest event (fans out on the digest channel like
    /// monitoring data, so no target).
    pub fn digest(channel: u32, seq: u64, sender: NodeId, payload: DigestPayload) -> Self {
        Event {
            kind: EventKind::Digest,
            channel,
            seq,
            sender,
            target: None,
            payload: Payload::Digest(payload),
        }
    }

    /// The monitoring payload, if this is a monitoring event.
    pub fn as_monitoring(&self) -> Option<&MonitoringPayload> {
        match &self.payload {
            Payload::Monitoring(m) => Some(m),
            _ => None,
        }
    }

    /// The control message, if this is a control event.
    pub fn as_control(&self) -> Option<&ControlMsg> {
        match &self.payload {
            Payload::Control(c) => Some(c),
            _ => None,
        }
    }

    /// The heartbeat payload, if this is a heartbeat event.
    pub fn as_heartbeat(&self) -> Option<&HeartbeatPayload> {
        match &self.payload {
            Payload::Heartbeat(h) => Some(h),
            _ => None,
        }
    }

    /// The digest payload, if this is a digest event.
    pub fn as_digest(&self) -> Option<&DigestPayload> {
        match &self.payload {
            Payload::Digest(d) => Some(d),
            _ => None,
        }
    }

    /// Consume the event, returning its monitoring record buffer, its
    /// digest record buffer or its control text to the calling thread's
    /// pool (no-op for heartbeats). Call this at the end of a delivery path
    /// instead of dropping the event so the next [`take_record_buf`],
    /// [`take_digest_buf`] or [`take_text`] reuses the allocation.
    pub fn recycle(self) {
        match self.payload {
            Payload::Monitoring(m) => put_record_buf(m.records),
            Payload::Digest(d) => put_digest_buf(d.records),
            Payload::Control(c) => c.recycle(),
            Payload::Heartbeat(_) => {}
        }
    }
}

impl ControlMsg {
    /// A copy whose parameter name or filter source is taken from the
    /// calling thread's pool ([`take_text`]): what a replay log keeps.
    pub fn pooled_clone(&self) -> ControlMsg {
        let text = |s: &str| {
            let mut t = take_text();
            t.push_str(s);
            t
        };
        match self {
            ControlMsg::SetParam { metric, param } => ControlMsg::SetParam {
                metric: text(metric),
                param: *param,
            },
            ControlMsg::DeployFilter { source } => ControlMsg::DeployFilter {
                source: text(source),
            },
            other => other.clone(),
        }
    }

    /// Consume the message, returning its text, if it carries one, to the
    /// calling thread's pool.
    pub fn recycle(self) {
        match self {
            ControlMsg::SetParam { metric: text, .. }
            | ControlMsg::DeployFilter { source: text }
            | ControlMsg::FilterRejected { reason: text } => put_text(text),
            ControlMsg::RemoveFilter | ControlMsg::Announce | ControlMsg::Credit { .. } => {}
        }
    }
}

/// Record buffers one pool keeps: one poll round of the largest world a
/// single shard runs, which is serial `star64`'s 64 nodes with 63
/// subscribers each (serial is one shard; two shards of it build half a
/// round each and get half a round back). Every buffer of a round is in
/// flight before the first delivery hands one back, so a smaller pool
/// drops buffers at the end of each round and allocates them again at the
/// start of the next. A bound all the same: a pool whose owner mostly
/// delivers would otherwise only grow.
const RECORD_POOL_CAP: usize = 64 * 63;

/// Digest buffers one pool keeps: one round of the largest hierarchy,
/// 4096 nodes in 64 racks, whose 64 aggregators each send one digest to
/// the 63 others. Aggregators poll staggered, so far fewer are in flight
/// at once; like [`RECORD_POOL_CAP`], the bound is for an owner that
/// mostly receives.
const DIGEST_POOL_CAP: usize = 64 * 63;

/// Control texts one pool keeps. A text is out of the pool while its
/// message is in flight or logged for replay (a handful per peer), and
/// what comes back is only what the logs shed since they were largest, so
/// the pool stays far below this; the bound is for an owner that mostly
/// receives.
const TEXT_POOL_CAP: usize = 256;

/// What one pool holds: monitoring record buffers, digest record buffers,
/// and the texts control messages carry (a metric name, a filter source, a
/// refusal's reason). Each keeps its capacity in the pool, so once the
/// pool has carried the largest of a kind a run builds, taking one
/// allocates nothing.
#[derive(Default)]
struct Buffers {
    records: Vec<Vec<MonRecord>>,
    digests: Vec<Vec<DigestRecord>>,
    texts: Vec<String>,
}

thread_local! {
    /// The calling thread's buffers, the per-delivery analogue of the wire
    /// codec's encode pool: the [`RecordPool`] lent to it by the
    /// simulation or shard it is running, or else the thread's own (a
    /// caller driving d-mon by hand).
    static POOL: std::cell::RefCell<Buffers> = const {
        std::cell::RefCell::new(Buffers {
            records: Vec::new(),
            digests: Vec::new(),
            texts: Vec::new(),
        })
    };
}

/// The record buffers, digest buffers and control texts one simulation, or
/// one shard of a sharded one, reuses. It reaches a thread only through
/// [`RecordPool::lend`], so which thread ran which shard changes no
/// allocation count.
#[derive(Default)]
pub struct RecordPool(Buffers);

impl RecordPool {
    /// Make this pool the calling thread's until the returned guard drops,
    /// on return and on unwind alike: every take from the pool and every
    /// buffer or text given back in between uses it. Dropping the guard
    /// gives the thread back the pool it had, so lends nest as scopes do.
    pub fn lend(&mut self) -> Lent<'_> {
        swap_pool(&mut self.0);
        Lent {
            pool: &mut self.0,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Buffers and texts the pool holds, of every kind.
    pub fn held(&self) -> usize {
        let Buffers {
            records,
            digests,
            texts,
        } = &self.0;
        records.len() + digests.len() + texts.len()
    }
}

/// A [`RecordPool`] lent to the thread that made it. It holds the pool the
/// lend displaced until it drops, and it is not `Send`: it stays on that
/// thread.
#[must_use = "the pool goes back when the guard drops"]
pub struct Lent<'a> {
    pool: &'a mut Buffers,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        swap_pool(self.pool);
    }
}

/// Exchange `pool` with the calling thread's: a lent pool goes in, and the
/// one it displaces waits in the lender's place until it comes back.
fn swap_pool(pool: &mut Buffers) {
    POOL.with(|p| std::mem::swap(&mut *p.borrow_mut(), pool));
}

/// One kind of buffer in a pool.
type Kind<T> = fn(&mut Buffers) -> &mut Vec<T>;

/// Take a buffer of one kind from the calling thread's pool, or a new
/// empty one when the pool holds none.
fn take<T: Default>(kind: Kind<T>) -> T {
    POOL.with(|p| kind(&mut p.borrow_mut()).pop())
        .unwrap_or_default()
}

/// Give an emptied buffer back to the calling thread's pool, unless the
/// pool already holds `cap` of its kind.
fn put<T>(kind: Kind<T>, cap: usize, buf: T) {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let kept = kind(&mut pool);
        if kept.len() < cap {
            kept.push(buf);
        }
    });
}

/// Take an empty `Vec<MonRecord>` from the calling thread's pool
/// (allocates only when the pool is dry).
pub fn take_record_buf() -> Vec<MonRecord> {
    take(|b| &mut b.records)
}

/// Return a record buffer to the calling thread's pool for reuse.
pub fn put_record_buf(mut v: Vec<MonRecord>) {
    v.clear();
    put(|b| &mut b.records, RECORD_POOL_CAP, v);
}

/// Take an empty `Vec<DigestRecord>` from the calling thread's pool, for
/// the records of one digest sent; it comes back when the digest is
/// recycled ([`Event::recycle`]). Allocates only when the pool is dry.
pub fn take_digest_buf() -> Vec<DigestRecord> {
    take(|b| &mut b.digests)
}

/// Return a digest record buffer to the calling thread's pool for reuse.
fn put_digest_buf(mut v: Vec<DigestRecord>) {
    v.clear();
    put(|b| &mut b.digests, DIGEST_POOL_CAP, v);
}

/// Take an empty `String` from the calling thread's pool, for the text of
/// a control message; it comes back when the message is recycled
/// ([`ControlMsg::recycle`], [`Event::recycle`]). Allocates only when the
/// pool is dry.
pub fn take_text() -> String {
    take(|b| &mut b.texts)
}

/// Return a control text to the calling thread's pool for reuse.
fn put_text(mut s: String) {
    s.clear();
    put(|b| &mut b.texts, TEXT_POOL_CAP, s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let m = Event::monitoring(
            1,
            7,
            NodeId(0),
            MonitoringPayload {
                origin: NodeId(0),
                epoch: 0,
                stream_seq: 0,
                credit_grant: 0,
                records: vec![],
                pad_bytes: 0,
                ext_names: Vec::new(),
            },
        );
        assert_eq!(m.kind, EventKind::Monitoring);
        assert!(m.as_monitoring().is_some());
        assert!(m.as_control().is_none());
        assert_eq!(m.target, None);

        let c = Event::control(2, 8, NodeId(1), NodeId(3), ControlMsg::RemoveFilter);
        assert_eq!(c.kind, EventKind::Control);
        assert_eq!(c.target, Some(NodeId(3)));
        assert!(c.as_control().is_some());
        assert!(c.as_monitoring().is_none());

        let h = Event::heartbeat(
            1,
            9,
            NodeId(2),
            NodeId(0),
            HeartbeatPayload {
                origin: NodeId(2),
                epoch: 1,
                stream_seq: 4,
            },
        );
        assert_eq!(h.kind, EventKind::Heartbeat);
        assert_eq!(h.target, Some(NodeId(0)));
        assert_eq!(h.as_heartbeat().unwrap().stream_seq, 4);
        assert!(h.as_monitoring().is_none());
        assert!(h.as_control().is_none());
    }

    /// The capacities of what a pool holds, its record buffers and then
    /// its digest buffers: each buffer below is made with a capacity of
    /// its own, so a capacity says which one it is.
    fn caps(pool: &RecordPool) -> [Vec<usize>; 2] {
        let Buffers {
            records, digests, ..
        } = &pool.0;
        [
            records.iter().map(Vec::capacity).collect(),
            digests.iter().map(Vec::capacity).collect(),
        ]
    }

    /// Give the calling thread's pool a record buffer and a digest buffer
    /// of capacity `k` each.
    fn put_both(k: usize) {
        put_record_buf(Vec::with_capacity(k));
        put_digest_buf(Vec::with_capacity(k));
    }

    /// Take a record buffer and a digest buffer from the calling thread's
    /// pool; their capacities.
    fn take_both() -> [usize; 2] {
        [take_record_buf().capacity(), take_digest_buf().capacity()]
    }

    #[test]
    fn a_lend_hands_the_pool_over_and_back_on_return_on_unwind_and_in_stack_order() {
        let (mut outer, mut inner) = (RecordPool::default(), RecordPool::default());
        // The test thread's own pool.
        put_both(1);
        {
            let _outer = outer.lend();
            assert_eq!(take_both(), [0, 0], "the lent pool is empty");
            put_both(2);
            {
                let _inner = inner.lend();
                put_both(3);
            }
            // The inner lend has given the thread back the outer pool.
            assert_eq!(take_both(), [2, 2]);
            put_both(2);
        }
        assert_eq!(caps(&outer), [[2], [2]]);
        assert_eq!(caps(&inner), [[3], [3]]);

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _inner = inner.lend();
            put_both(4);
            std::panic::resume_unwind(Box::new("boom"));
        }));
        assert!(unwound.is_err());
        assert_eq!(caps(&inner), [[3, 4], [3, 4]], "given back on unwind");
        assert_eq!(take_both(), [1, 1], "the thread's own is back");
        assert_eq!(take_both(), [0, 0], "and held nothing else");
    }

    #[test]
    fn a_recycled_digest_comes_back_with_its_capacity_in_the_lent_pool() {
        let mut pool = RecordPool::default();
        {
            let _lent = pool.lend();
            let record = DigestRecord {
                metric_id: 0,
                min: 0.0,
                max: 1.0,
                mean: 0.5,
                count: 2,
                newest_ts: 1.0,
            };
            let mut records = take_digest_buf();
            records.extend([record; 5]);
            let cap = records.capacity();
            let payload = DigestPayload {
                rack: 1,
                origin: NodeId(4),
                members: 2,
                records,
            };
            Event::digest(2, 1, NodeId(4), payload).recycle();
            let again = take_digest_buf();
            assert!(again.is_empty() && again.capacity() == cap);
            assert_eq!(take_digest_buf().capacity(), 0, "and held nothing else");
            put_digest_buf(again);
        }
        assert_eq!(caps(&pool)[1].len(), 1, "kept by the pool, not the thread");
        assert_eq!(take_digest_buf().capacity(), 0);
    }

    #[test]
    fn a_recycled_control_text_comes_back_with_its_capacity_in_the_lent_pool() {
        let mut pool = RecordPool::default();
        let _lent = pool.lend();
        let source = "{ output[0] = input[LOADAVG]; }";
        let sent = ControlMsg::DeployFilter {
            source: source.into(),
        };
        // A copy for a replay log and the message on the wire: both come
        // back, the event's through `Event::recycle`.
        let logged = sent.pooled_clone();
        assert_eq!(logged, sent);
        Event::control(2, 1, NodeId(0), NodeId(1), sent).recycle();
        logged.recycle();
        let again = [take_text(), take_text()];
        assert!(again
            .iter()
            .all(|t| t.is_empty() && t.capacity() >= source.len()));
        assert_eq!(take_text().capacity(), 0, "and held nothing else");
        // Messages without text give nothing back.
        ControlMsg::Credit { credits: 1 }.recycle();
        assert_eq!(take_text().capacity(), 0);
    }
}
