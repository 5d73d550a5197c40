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

use std::collections::VecDeque;
use std::ops::Range;

use kecho::{CreditWindow, MonRecord, StreamTracker};
use simcore::SimTime;
use simnet::NodeId;
use simos::ProcHandle;

use crate::dmon::PeerHealth;

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

/// Everything one d-mon remembers about one peer, in both roles: the
/// peer as a *subscriber* of this node's stream (send side) and as a
/// *publisher* this node listens to (receive side).
#[derive(Default)]
pub(crate) struct PeerState {
    /// Last value actually sent to this subscriber, by metric id.
    /// Reaped when the subscriber is evicted as Dead.
    pub(crate) last_sent: Vec<Option<(f64, SimTime)>>,
    /// Next `stream_seq` toward this subscriber (data and heartbeats
    /// share the numbering). Kept across the subscriber's death so a
    /// heal without a restart shows no spurious stream reset.
    pub(crate) stream_seq: u32,
    /// Last submission (data or heartbeat) toward this subscriber.
    pub(crate) stream_last_send: Option<SimTime>,
    /// Events (data + heartbeats) submitted to this subscriber — a
    /// lifetime counter, so eviction leaves it alone.
    pub(crate) sent: u64,
    /// Publisher-side credit window toward this subscriber.
    pub(crate) credit: CreditWindow,
    /// Bounded outbox of payloads awaiting credits; overflow sheds
    /// oldest-first.
    pub(crate) outbox: VecDeque<OutboxEntry>,
    /// Sender-side cumulative counter (mod 256, never resting on 0) of
    /// credits piggybacked onto data events toward this subscriber. The
    /// wire carries the counter, not the increment, so a grant whose
    /// carrier tail-dropped is re-delivered by the next surviving frame.
    pub(crate) grant_cum: u8,
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

    /// Last value received from this publisher, by metric id — the
    /// fast-path store applications read alongside `/proc`.
    pub(crate) remote_values: Vec<Option<(f64, SimTime)>>,
    /// Continuity tracker for this publisher's incoming stream.
    pub(crate) tracker: StreamTracker,
    /// Failure-detector verdict; `None` until first contact.
    pub(crate) record: Option<PeerRecord>,
    /// Data events absorbed from this publisher since the last credit
    /// grant.
    pub(crate) ungranted: u32,
    /// Loss repayments owed to this publisher: credits minted when a
    /// stream gap proved its frames destroyed (they spent the
    /// publisher's credits but consumed no receive capacity here).
    pub(crate) repay: u32,
    /// The last piggybacked grant counter accepted from this publisher;
    /// the wrapping difference on arrival is the fresh grant.
    pub(crate) grant_seen: u8,
    /// Whether any data event arrived from this publisher since this
    /// node's previous poll. A publisher that went quiet while we still
    /// hold sub-threshold grant debt is credit-starved — the poll
    /// flushes the remainder.
    pub(crate) data_since_poll: bool,

    /// Interned handle for `cluster/<peer>/status`.
    pub(crate) status_handle: Option<ProcHandle>,
    /// Interned handles for `cluster/<peer>/<file>`, by metric id — the
    /// receive path's hottest writes.
    pub(crate) file_handles: Vec<Option<ProcHandle>>,
    /// Whether `cluster/<peer>/control` already exists.
    pub(crate) ctl_ready: bool,
}

impl PeerState {
    /// The peer was evicted as Dead: its stream is over, so per-stream
    /// send state and flow control reset (a later recovery starts from a
    /// clean slate, its window reopened full). Lifetime counters, the
    /// stream position, the tracker and the detector verdict survive.
    /// Returns the number of parked payloads shed.
    pub(crate) fn reap(&mut self) -> u64 {
        let shed = self.outbox.len() as u64;
        for e in self.outbox.drain(..) {
            kecho::put_record_buf(e.records);
        }
        self.last_sent = Vec::new();
        self.stream_last_send = None;
        self.credit = CreditWindow::new();
        self.grant_cum = 0;
        self.choke_park = 0;
        self.choke_run = 0;
        self.ungranted = 0;
        self.repay = 0;
        self.grant_seen = 0;
        self.data_since_poll = false;
        shed
    }

    /// This node crash-restarted: everything volatile is lost. The
    /// interned `status`/`control` paths survive — the host and its proc
    /// tree persist across a restart in this model — but the per-metric
    /// file handles go, because the ext name→id bindings they were
    /// resolved through were learned from the peer and are relearned.
    /// The emptied buffers keep their capacity: the restarted node
    /// refills them within a poll, and regrowing them costs 7 % more
    /// allocator calls per delivered frame on a crash-cycling cluster.
    pub(crate) fn on_revive(&mut self) {
        let old = std::mem::take(self);
        *self = PeerState {
            last_sent: cleared(old.last_sent),
            remote_values: cleared(old.remote_values),
            file_handles: cleared(old.file_handles),
            outbox: {
                let mut outbox = old.outbox;
                outbox.clear();
                outbox
            },
            status_handle: old.status_handle,
            ctl_ready: old.ctl_ready,
            ..PeerState::default()
        };
    }

    /// Allocate the next stream position toward this subscriber.
    pub(crate) fn next_stream_seq(&mut self) -> u32 {
        let v = self.stream_seq;
        self.stream_seq = v.wrapping_add(1);
        v
    }

    /// A credit grant from this peer is fresh evidence the path toward
    /// it works: reopen a parked stream and reset its drop backoff.
    pub(crate) fn grant(&mut self, credits: u32) {
        self.credit.grant(credits);
        self.choke_park = 0;
        self.choke_run = 0;
    }
}

fn cleared<T>(mut v: Vec<T>) -> Vec<T> {
    v.clear();
    v
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
        let handle = simos::ProcFs::new().intern("cluster/peer/status").ok();
        let mut p = PeerState {
            last_sent: vec![Some((1.0, at))],
            stream_seq: 7,
            stream_last_send: Some(at),
            sent: 9,
            grant_cum: 3,
            choke_park: 2,
            choke_run: 2,
            remote_values: vec![Some((2.0, at))],
            record: Some(PeerRecord {
                last_heard: at,
                health: PeerHealth::Stale,
                epoch: 1,
            }),
            ungranted: 3,
            repay: 2,
            grant_seen: 5,
            data_since_poll: true,
            status_handle: handle,
            file_handles: vec![handle],
            ctl_ready: true,
            ..PeerState::default()
        };
        assert!(p.credit.try_consume());
        for _ in 0..2 {
            p.outbox.push_back(OutboxEntry {
                records: Vec::new(),
                ext_names: Vec::new(),
            });
        }
        p.tracker.observe(1, 0);
        assert_eq!(p.tracker.observe(1, 2).lost, 1);
        p
    }

    #[test]
    fn eviction_reaps_the_stream_and_keeps_the_history() {
        let mut p = busy_slot();
        assert_eq!(p.reap(), 2, "both parked payloads shed");
        // The stream toward the dead subscriber is over...
        assert!(p.last_sent.is_empty() && p.outbox.is_empty());
        assert_eq!(p.stream_last_send, None);
        assert_eq!(p.credit.available(), kecho::INITIAL_CREDITS);
        assert_eq!(p.credit.unacked(), 0);
        assert_eq!((p.grant_cum, p.grant_seen), (0, 0));
        assert_eq!((p.choke_park, p.choke_run), (0, 0));
        assert_eq!((p.ungranted, p.repay), (0, 0));
        assert!(!p.data_since_poll);
        // ...but lifetime counters, the stream position, what was heard
        // from the peer, the verdict and the /proc handles survive.
        assert_eq!((p.sent, p.stream_seq), (9, 7));
        assert_eq!(p.tracker.gaps(), 1);
        assert!(p.record.is_some());
        assert_eq!(p.remote_values.len(), 1);
        assert!(p.status_handle.is_some() && p.ctl_ready);
        assert_eq!(p.file_handles.len(), 1);
    }

    #[test]
    fn revive_keeps_only_the_interned_paths() {
        let mut p = busy_slot();
        p.on_revive();
        assert!(p.status_handle.is_some() && p.ctl_ready);
        assert!(p.file_handles.is_empty(), "learned bindings are relearned");
        assert!(p.last_sent.is_empty() && p.remote_values.is_empty());
        assert!(p.outbox.is_empty() && p.record.is_none());
        assert_eq!((p.sent, p.stream_seq, p.stream_last_send), (0, 0, None));
        assert_eq!(p.tracker.gaps(), 0);
        assert_eq!(p.credit.available(), kecho::INITIAL_CREDITS);
        assert_eq!((p.grant_cum, p.grant_seen), (0, 0));
        assert_eq!((p.choke_park, p.choke_run), (0, 0));
        assert_eq!((p.ungranted, p.repay, p.data_since_poll), (0, 0, false));
    }

    #[test]
    fn star_table_is_the_whole_cluster() {
        let mut t = PeerTable::new(0..3, 3);
        assert_eq!(ids(&mut t), vec![0, 1, 2]);
        assert!(t.touch(NodeId(3)).is_none());
        assert_eq!(t.len(), 3);
    }
}
