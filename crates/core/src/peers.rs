//! Per-peer d-mon state, sized by the node's neighbourhood.
//!
//! A d-mon only exchanges streams with the peers on its rack-scoped
//! channels, and [`simnet::Placement`] guarantees a rack is a contiguous
//! node-id range — so everything a d-mon remembers about its peers lives
//! in one dense vector over that *home range* (`id - base` lookup), one
//! [`PeerState`] per peer. The star is the one-rack case: its home range
//! is the whole cluster. An id inside the cluster but outside the home
//! range (a cross-rack control write, a relayed frame) gets a slot in a
//! small sorted spill on first touch; an id outside the cluster gets
//! nothing. Iteration is always in ascending node id, so every per-peer
//! loop (detector, grants, eviction) is deterministic and costs O(rack),
//! not O(cluster).
//!
//! That includes what customization leaves behind, in both roles: the
//! rules and filter slot a subscriber configured here, and the replay log
//! and last refusal of what this node deployed on a publisher. It sits
//! behind one optional handle, [`PeerState::custom`], so an uncustomized
//! pair pays a word for it, and its lifecycle is the row's:
//! [`PeerState::on_revive`] forgets it, [`PeerState::reap`] keeps it.

use std::collections::VecDeque;
use std::ops::Range;

use kecho::credit::GrantCounter;
use kecho::{ControlMsg, CreditWindow, MonRecord, StreamTracker};
use simcore::SimTime;
use simnet::NodeId;
use simos::CellHandle;

use crate::dmon::PeerHealth;
use crate::params::PolicySet;

/// Metric ids a [`MetricRow`] keeps inline: the standard module set
/// ([`crate::modules::standard_modules`]), whose ids every node agrees on.
pub(crate) const INLINE_METRICS: usize = 5;

/// Ids at or beyond [`INLINE_METRICS`] one [`MetricRow`] holds at most —
/// modules registered at run time, on this node or on the peer. The bound
/// is what makes a peer-supplied id cost a slot and never `O(id)`.
pub(crate) const SPILL_METRICS: usize = 16;

/// One value per metric id, for one peer: the standard ids in the row
/// itself, so their address follows from the row's, and the rest in a
/// small sorted spill that a standard-only cluster never allocates.
#[derive(Debug)]
pub(crate) struct MetricRow<T> {
    /// Bit `id` is set when `inline[id]` holds a value.
    present: u8,
    inline: [T; INLINE_METRICS],
    /// `(id, value)` for ids from [`INLINE_METRICS`] up, ascending by id,
    /// at most [`SPILL_METRICS`] of them.
    spill: Vec<(u32, T)>,
}

impl<T: Copy + Default> Default for MetricRow<T> {
    fn default() -> Self {
        MetricRow {
            present: 0,
            inline: [T::default(); INLINE_METRICS],
            spill: Vec::new(),
        }
    }
}

impl<T: Copy + Default> MetricRow<T> {
    fn spill_pos(&self, id: u32) -> Result<usize, usize> {
        self.spill.binary_search_by_key(&id, |&(k, _)| k)
    }

    /// The value held for `id`.
    #[inline]
    pub(crate) fn get(&self, id: u32) -> Option<T> {
        if (id as usize) < INLINE_METRICS {
            return (self.present & 1 << id != 0).then(|| self.inline[id as usize]);
        }
        self.spill_pos(id).ok().map(|i| self.spill[i].1)
    }

    /// Whether [`MetricRow::set`] would store a value for `id`: always,
    /// except for a new id beyond the inline set when the spill is full.
    pub(crate) fn has_room(&self, id: u32) -> bool {
        (id as usize) < INLINE_METRICS
            || self.spill.len() < SPILL_METRICS
            || self.spill_pos(id).is_ok()
    }

    /// Hold `value` for `id`, if there is room for it.
    #[inline]
    pub(crate) fn set(&mut self, id: u32, value: T) {
        if (id as usize) < INLINE_METRICS {
            self.present |= 1 << id;
            self.inline[id as usize] = value;
            return;
        }
        match self.spill_pos(id) {
            Ok(i) => self.spill[i].1 = value,
            Err(i) if self.spill.len() < SPILL_METRICS => self.spill.insert(i, (id, value)),
            Err(_) => {}
        }
    }

    /// Forget what is held for `id`.
    pub(crate) fn unset(&mut self, id: u32) {
        if (id as usize) < INLINE_METRICS {
            self.present &= !(1 << id);
        } else if let Ok(i) = self.spill_pos(id) {
            self.spill.remove(i);
        }
    }

    /// Forget everything; the spill's memory goes too.
    pub(crate) fn clear(&mut self) {
        self.present = 0;
        self.spill = Vec::new();
    }

    /// Number of ids a value is held for.
    pub(crate) fn len(&self) -> usize {
        self.present.count_ones() as usize + self.spill.len()
    }
}

/// A metric value and when it was sent or received.
pub(crate) type Stamped = (f64, SimTime);

/// What the failure detector remembers about one remote peer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PeerRecord {
    pub(crate) last_heard: SimTime,
    pub(crate) health: PeerHealth,
    pub(crate) epoch: u32,
}

/// A monitoring payload parked in a subscriber's outbox while credits
/// are stalled. Entries carry no `stream_seq` — the slot is allocated at
/// the actual send — so shedding an entry leaves no hole in the stream.
pub(crate) struct OutboxEntry {
    pub(crate) records: Vec<MonRecord>,
    pub(crate) ext_names: Vec<(u32, String, String)>,
}

/// The customizations of one pair, in both roles.
#[derive(Default)]
pub(crate) struct Custom {
    /// The peer as a subscriber here: its parameter rules, once it set or
    /// cleared one.
    pub(crate) policy: Option<PolicySet>,
    /// The peer as a subscriber here: the slot of the filter deciding its
    /// stream (`select`'s table).
    pub(crate) filter: Option<u32>,
    /// The peer as a publisher: what this node deployed on it, replayed in
    /// order when it restarts (compacted by `detector::record_deployment`).
    pub(crate) replay: Vec<ControlMsg>,
    /// The peer as a publisher: why it last refused this node's filter,
    /// until the next `filter` or `nofilter` written toward it.
    pub(crate) rejection: Option<String>,
}

/// Everything one d-mon remembers about one peer, in both roles: the
/// peer as a *subscriber* of this node's stream (send side) and as a
/// *publisher* this node listens to (receive side).
///
/// A row is found by arithmetic ([`PeerTable`]) and, but for the outbox
/// and the spills no standard-only cluster has, everything in it is at a
/// fixed offset from there: a handler's loads of one row do not wait for
/// one another.
#[derive(Default)]
pub(crate) struct PeerState {
    /// Last value actually sent to this subscriber, by this node's metric
    /// id. Reaped when the subscriber is evicted as Dead.
    pub(crate) last_sent: MetricRow<Stamped>,
    /// Next `stream_seq` toward this subscriber (data and heartbeats
    /// share the numbering). Kept across the subscriber's death so a
    /// heal without a restart shows no spurious stream reset.
    pub(crate) stream_seq: u32,
    /// Last submission (data or heartbeat) toward this subscriber.
    pub(crate) stream_last_send: Option<SimTime>,
    /// Events (data + heartbeats) submitted to this subscriber — a
    /// lifetime counter, so eviction leaves it alone.
    pub(crate) sent: u64,
    /// Publisher-side credit window toward this subscriber, with the
    /// last grant counter taken from it.
    pub(crate) credit: CreditWindow,
    /// Bounded outbox of payloads awaiting credits; overflow sheds
    /// oldest-first. Allocated when a stream first stalls: a payload that
    /// can leave at once never enters it.
    pub(crate) outbox: VecDeque<OutboxEntry>,
    /// Remaining polls the stream toward this subscriber stays parked
    /// after a tail-drop at this node's own uplink queue. A parked
    /// stream holds data without burning credits and falls through to
    /// the heartbeat path; the park always expires, so no external frame
    /// is ever needed to reopen it (an early credit grant reopens it
    /// sooner).
    pub(crate) choke_park: u32,
    /// Consecutive uplink tail-drops toward this subscriber — the binary
    /// exponential backoff run (parks of 1, 2, 4, then the cap). A
    /// credit grant resets it.
    pub(crate) choke_run: u8,

    /// Last value received from this publisher, by the publisher's metric
    /// id — the fast-path store applications read alongside `/proc`.
    pub(crate) remote_values: MetricRow<Stamped>,
    /// Continuity tracker for this publisher's incoming stream.
    pub(crate) tracker: StreamTracker,
    /// Failure-detector verdict; `None` until first contact.
    pub(crate) record: Option<PeerRecord>,
    /// Credits owed to this publisher for frames absorbed or proven lost,
    /// and the cumulative counter both grant carriers send it.
    pub(crate) grants: GrantCounter,
    /// Whether any data event arrived from this publisher since this
    /// node's previous poll. A publisher that went quiet while we still
    /// hold sub-threshold grant debt is credit-starved — the poll
    /// flushes the remainder.
    pub(crate) data_since_poll: bool,

    /// The four words of `cluster/<peer>/status`, once claimed.
    pub(crate) status_cells: Option<CellHandle<4>>,
    /// The sample cells of `cluster/<peer>/<file>`, by the publisher's
    /// metric id — the receive path's hottest writes.
    pub(crate) file_cells: MetricRow<CellHandle<2>>,
    /// Whether `cluster/<peer>/control` already exists.
    pub(crate) ctl_ready: bool,
    /// Where the glue last found this peer's connection in the host's
    /// connection table (`simnet::ConnTrack::record_delivery` takes it
    /// as a hint and checks it).
    pub(crate) conn_at: u32,

    /// What customization left for this pair; `None` until some did.
    pub(crate) custom: Option<Box<Custom>>,
}

// The budget of one (node, peer) pair: seven cache lines,
// of which a received frame touches about five and a send to the peer
// four. `racks1024-digest` holds 31 744 of these rows and visits each a
// few times per simulated second, so a row that grows shows up there as
// a slower run — and here, first, as a failed build.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<PeerState>() == 448);

impl PeerState {
    /// The peer was evicted as Dead: its stream is over, so per-stream
    /// send state resets (a later recovery starts from a clean slate, its
    /// window reopened full). Lifetime counters, the stream position, what
    /// this node owes the peer's stream (the tracker and the grant
    /// counter: an evicted peer may be alive, its window counting on
    /// them), the detector verdict and the pair's customizations survive.
    /// Returns the number of parked payloads shed.
    pub(crate) fn reap(&mut self) -> u64 {
        let shed = self.outbox.len() as u64;
        for e in self.outbox.drain(..) {
            kecho::put_record_buf(e.records);
        }
        self.last_sent.clear();
        self.stream_last_send = None;
        self.credit = CreditWindow::default();
        self.choke_park = 0;
        self.choke_run = 0;
        shed
    }

    /// This node crash-restarted: everything volatile is lost. The
    /// `status`/`control` files survive — the host and its proc tree
    /// persist across a restart in this model, as does its connection
    /// table — but the per-metric file cells go, because the ext name→id
    /// bindings they were resolved through were learned from the peer and
    /// are relearned. The emptied outbox and the reset tracker keep their
    /// buffers.
    pub(crate) fn on_revive(&mut self) {
        let mut old = std::mem::take(self);
        old.outbox.clear();
        old.tracker.reset();
        *self = PeerState {
            outbox: old.outbox,
            tracker: old.tracker,
            status_cells: old.status_cells,
            ctl_ready: old.ctl_ready,
            conn_at: old.conn_at,
            ..PeerState::default()
        };
    }

    /// This pair's customizations, created empty on first use.
    pub(crate) fn custom(&mut self) -> &mut Custom {
        self.custom.get_or_insert_with(Box::default)
    }

    /// The slot of the filter deciding this subscriber's stream here.
    #[inline]
    pub(crate) fn filter_slot(&self) -> Option<u32> {
        self.custom.as_ref()?.filter
    }

    /// Allocate the next stream position toward this subscriber.
    pub(crate) fn next_stream_seq(&mut self) -> u32 {
        let v = self.stream_seq;
        self.stream_seq = v.wrapping_add(1);
        v
    }

    /// Take a grant counter from this peer, by either carrier. A grant is
    /// fresh evidence the path toward it works: reopen a parked stream
    /// and reset its drop backoff.
    pub(crate) fn accept(&mut self, cum: u32) {
        if self.credit.accept(cum) {
            self.choke_park = 0;
            self.choke_run = 0;
        }
    }
}

/// The peer table of one d-mon: a dense home range plus a sorted spill.
pub(crate) struct PeerTable {
    /// First node id of the home range.
    base: usize,
    /// One slot per home-range id, indexed `id - base`.
    home: Vec<PeerState>,
    /// Slots for in-cluster ids outside the home range, sorted by id.
    spill: Vec<(usize, PeerState)>,
    /// Cluster size: ids at or beyond it name no node and get no slot.
    cluster: usize,
}

impl PeerTable {
    pub(crate) fn new(home: Range<usize>, cluster: usize) -> Self {
        assert!(home.end <= cluster, "home range outside the cluster");
        PeerTable {
            base: home.start,
            home: home.map(|_| PeerState::default()).collect(),
            spill: Vec::new(),
            cluster,
        }
    }

    /// Number of slots held (home range + spill).
    pub(crate) fn len(&self) -> usize {
        self.home.len() + self.spill.len()
    }

    fn spill_pos(&self, id: usize) -> Result<usize, usize> {
        self.spill.binary_search_by_key(&id, |&(k, _)| k)
    }

    /// The slot of `id`, if it has one.
    pub(crate) fn get(&self, id: NodeId) -> Option<&PeerState> {
        match self.home.get(id.0.wrapping_sub(self.base)) {
            Some(p) => Some(p),
            None => self.spill_pos(id.0).ok().map(|i| &self.spill[i].1),
        }
    }

    /// The slot of `id`, if it has one (never creates).
    pub(crate) fn get_mut(&mut self, id: NodeId) -> Option<&mut PeerState> {
        if id.0.wrapping_sub(self.base) < self.home.len() {
            return self.home.get_mut(id.0 - self.base);
        }
        let i = self.spill_pos(id.0).ok()?;
        Some(&mut self.spill[i].1)
    }

    /// The slot of `id`, created in the spill when `id` is a cluster
    /// member outside the home range; `None` when `id` names no node.
    pub(crate) fn touch(&mut self, id: NodeId) -> Option<&mut PeerState> {
        if id.0.wrapping_sub(self.base) < self.home.len() {
            return self.home.get_mut(id.0 - self.base);
        }
        if id.0 >= self.cluster {
            return None;
        }
        let i = match self.spill_pos(id.0) {
            Ok(i) => i,
            Err(i) => {
                self.spill.insert(i, (id.0, PeerState::default()));
                i
            }
        };
        Some(&mut self.spill[i].1)
    }

    /// Every slot, in ascending node id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &PeerState> {
        let below = self.spill.partition_point(|&(k, _)| k < self.base);
        let (lo, hi) = self.spill.split_at(below);
        lo.iter()
            .map(|(_, p)| p)
            .chain(&self.home)
            .chain(hi.iter().map(|(_, p)| p))
    }

    /// Every slot with its node id, in ascending node id.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut PeerState)> {
        let base = self.base;
        let below = self.spill.partition_point(|&(k, _)| k < base);
        let (lo, hi) = self.spill.split_at_mut(below);
        let home = self
            .home
            .iter_mut()
            .enumerate()
            .map(move |(i, p)| (NodeId(base + i), p));
        lo.iter_mut()
            .map(|(k, p)| (NodeId(*k), p))
            .chain(home)
            .chain(hi.iter_mut().map(|(k, p)| (NodeId(*k), p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(t: &mut PeerTable) -> Vec<usize> {
        t.iter_mut().map(|(id, _)| id.0).collect()
    }

    #[test]
    fn home_range_is_dense_and_spill_is_sorted() {
        let mut t = PeerTable::new(4..8, 12);
        assert_eq!(t.len(), 4);
        assert!(t.get(NodeId(3)).is_none() && t.get(NodeId(8)).is_none());
        assert!(t.get(NodeId(4)).is_some() && t.get(NodeId(7)).is_some());
        // Out-of-home cluster members spill on touch, in id order on
        // both sides of the home range; a lookup never creates.
        for id in [10, 1, 9, 10] {
            t.touch(NodeId(id)).expect("cluster member").sent += 1;
        }
        assert!(t.get_mut(NodeId(2)).is_none());
        assert_eq!(ids(&mut t), vec![1, 4, 5, 6, 7, 9, 10]);
        assert_eq!(
            t.get(NodeId(10)).unwrap().sent,
            2,
            "second touch found the slot"
        );
        assert_eq!(t.iter().count(), t.len());
        // Ids outside the cluster never get a slot.
        assert!(t.touch(NodeId(12)).is_none());
        assert!(t.touch(NodeId(usize::MAX)).is_none());
        assert_eq!(t.len(), 7);
    }

    /// A slot with every field off its default, as after a long exchange
    /// in both directions with a stalled window and a lossy stream.
    fn busy_slot() -> PeerState {
        let at = SimTime::from_secs(5);
        let mut proc = simos::ProcFs::new();
        let handle = proc.intern("cluster/peer/status").unwrap();
        let mut p = PeerState {
            stream_seq: 7,
            stream_last_send: Some(at),
            sent: 9,
            choke_park: 2,
            choke_run: 2,
            record: Some(PeerRecord {
                last_heard: at,
                health: PeerHealth::Stale,
                epoch: 1,
            }),
            data_since_poll: true,
            status_cells: Some(proc.record_cells(handle, |_, _| ())),
            ctl_ready: true,
            conn_at: 4,
            ..PeerState::default()
        };
        // One standard id and one registered at run time, in each row.
        for id in [0, INLINE_METRICS as u32] {
            p.last_sent.set(id, (1.0, at));
            p.remote_values.set(id, (2.0, at));
            p.file_cells.set(id, proc.sample_cells(handle));
        }
        // The peer's counter reached 5 here; ours toward it reached 3, and
        // 3 more are owed.
        assert!(p.credit.accept(5));
        assert!(p.credit.try_consume());
        p.grants.owe(3);
        assert_eq!(p.grants.fold(), Some(3));
        p.grants.owe(3);
        for _ in 0..2 {
            p.outbox.push_back(OutboxEntry {
                records: Vec::new(),
                ext_names: Vec::new(),
            });
        }
        p.tracker.observe(1, 0);
        assert_eq!(p.tracker.observe(1, 2).lost, 1);
        let c = p.custom();
        c.policy = Some(PolicySet::new());
        c.filter = Some(3);
        c.replay.push(ControlMsg::RemoveFilter);
        c.rejection = Some("unbounded".into());
        p
    }

    #[test]
    fn eviction_reaps_the_stream_and_keeps_the_history() {
        let mut p = busy_slot();
        assert_eq!(p.reap(), 2, "both parked payloads shed");
        // The stream toward the dead subscriber is over...
        assert_eq!((p.last_sent.len(), p.outbox.len()), (0, 0));
        assert_eq!(p.stream_last_send, None);
        assert_eq!(p.credit.available(), kecho::INITIAL_CREDITS);
        assert_eq!((p.choke_park, p.choke_run), (0, 0));
        assert!(p.credit.accept(1), "the next counter is read afresh");
        // ...but lifetime counters, the stream position, what was heard
        // from the peer and what is owed to it, the verdict and the /proc
        // handles survive.
        assert_eq!((p.sent, p.stream_seq), (9, 7));
        assert_eq!((p.grants.value(), p.grants.owed()), (3, 3));
        assert!(p.data_since_poll);
        assert_eq!(p.tracker.gaps(), 1);
        assert!(p.record.is_some());
        assert_eq!(p.remote_values.len(), 2);
        assert!(p.status_cells.is_some() && p.ctl_ready);
        assert_eq!((p.file_cells.len(), p.conn_at), (2, 4));
        // So do the pair's customizations, in both roles.
        let c = p.custom.as_deref().expect("customizations kept");
        assert!(c.policy.is_some() && c.rejection.is_some());
        assert_eq!((c.filter, c.replay.len()), (Some(3), 1));
    }

    #[test]
    fn revive_keeps_only_the_interned_paths() {
        let mut p = busy_slot();
        p.on_revive();
        assert!(p.status_cells.is_some() && p.ctl_ready && p.conn_at == 4);
        assert_eq!(p.file_cells.len(), 0, "learned bindings are relearned");
        assert_eq!((p.last_sent.len(), p.remote_values.len()), (0, 0));
        assert!(p.outbox.is_empty() && p.record.is_none());
        assert_eq!((p.sent, p.stream_seq, p.stream_last_send), (0, 0, None));
        assert_eq!(p.tracker.gaps(), 0);
        assert_eq!(p.credit.available(), kecho::INITIAL_CREDITS);
        assert!(p.credit.accept(1), "the next counter is read afresh");
        assert_eq!((p.choke_park, p.choke_run), (0, 0));
        assert_eq!(p.grants, GrantCounter::default());
        assert!(!p.data_since_poll);
        assert!(p.custom.is_none(), "customizations died with the kernel");
    }

    /// What [`MetricRow`] replaced: a vector indexed by metric id, grown
    /// to `id + 1` on a store. The model refuses what the row refuses, so
    /// the two can be compared slot for slot.
    #[derive(Default)]
    struct VecRow(Vec<Option<u64>>);

    impl VecRow {
        fn beyond(&self) -> usize {
            self.0.iter().skip(INLINE_METRICS).flatten().count()
        }
        fn get(&self, id: u32) -> Option<u64> {
            self.0.get(id as usize).copied().flatten()
        }
        fn set(&mut self, id: u32, v: u64) {
            let id = id as usize;
            if id >= INLINE_METRICS
                && self.get(id as u32).is_none()
                && self.beyond() >= SPILL_METRICS
            {
                return;
            }
            if self.0.len() <= id {
                self.0.resize(id + 1, None);
            }
            self.0[id] = Some(v);
        }
        fn unset(&mut self, id: u32) {
            if let Some(slot) = self.0.get_mut(id as usize) {
                *slot = None;
            }
        }
    }

    #[test]
    fn metric_row_matches_the_vector_it_replaced() {
        let mut rng = simcore::SimRng::seed_from_u64(0x00E7_21C0);
        // Ids on both sides of the inline capacity, few enough to collide
        // and more than the spill holds.
        let ids = (INLINE_METRICS + SPILL_METRICS + 4) as u64;
        for case in 0..64 {
            let (mut row, mut model) = (MetricRow::<u64>::default(), VecRow::default());
            for step in 0..400u64 {
                let id = rng.below(ids) as u32;
                match rng.below(10) {
                    0 => {
                        row.unset(id);
                        model.unset(id);
                    }
                    1 if step % 7 == 0 => {
                        row.clear();
                        model.0.clear();
                    }
                    _ => {
                        assert_eq!(
                            row.has_room(id),
                            (id as usize) < INLINE_METRICS
                                || model.get(id).is_some()
                                || model.beyond() < SPILL_METRICS,
                            "case {case} step {step} id {id}"
                        );
                        row.set(id, step);
                        model.set(id, step);
                    }
                }
                for id in 0..ids as u32 {
                    assert_eq!(
                        row.get(id),
                        model.get(id),
                        "case {case} step {step} id {id}"
                    );
                }
                assert_eq!(row.len(), model.0.iter().flatten().count());
                assert!(row.spill.len() <= SPILL_METRICS);
                assert!(
                    row.spill.windows(2).all(|w| w[0].0 < w[1].0),
                    "spill sorted"
                );
            }
        }
    }

    #[test]
    fn a_huge_metric_id_costs_one_slot() {
        let mut row = MetricRow::<u64>::default();
        for (k, id) in [u32::MAX, 1 << 20, INLINE_METRICS as u32]
            .into_iter()
            .enumerate()
        {
            row.set(id, k as u64);
        }
        assert_eq!(row.get(u32::MAX), Some(0));
        assert_eq!((row.len(), row.spill.capacity() <= 4), (3, true));
        // A full spill refuses new ids and still updates the ones it has.
        for id in 100..100 + SPILL_METRICS as u32 {
            row.set(id, 9);
        }
        assert_eq!(row.len(), SPILL_METRICS);
        assert!(!row.has_room(7) && row.has_room(u32::MAX) && row.has_room(0));
        row.set(7, 1);
        row.set(u32::MAX, 5);
        assert_eq!((row.get(7), row.get(u32::MAX)), (None, Some(5)));
    }

    #[test]
    fn star_table_is_the_whole_cluster() {
        let mut t = PeerTable::new(0..3, 3);
        assert_eq!(ids(&mut t), vec![0, 1, 2]);
        assert!(t.touch(NodeId(3)).is_none());
        assert_eq!(t.len(), 3);
    }
}
