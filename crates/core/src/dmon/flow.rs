//! Stage 3, *submit* (Figs. 6–7's event-submission cost): credit-based
//! flow control on both sides of a stream. Publisher side, per
//! subscriber: park the poll's records in the bounded outbox, drain it as
//! far as the credit window allows, let a heartbeat ride a stream that
//! carried no data. Subscriber side: top publishers up for the data this
//! node absorbed. The per-stream state is the peer's [`PeerState`] row;
//! the reasons behind each rule are DESIGN.md §14.

use kecho::{
    ControlMsg, Event, HeartbeatPayload, MonRecord, MonitoringPayload, GRANT_THRESHOLD, OUTBOX_CAP,
};
use simcore::SimDur;
use simnet::NodeId;

use super::ladder::Ladder;
use super::sample::Sample;
use super::{DMon, PollCx};
use crate::peers::{OutboxEntry, PeerState, PeerTable};

/// Longest a stream stays parked after consecutive uplink tail-drops
/// (in polls). Kept at the failure detector's default dead bound so even
/// the deepest backoff re-probes within one detection window — heartbeats
/// keep flowing every `heartbeat_every` during a park, so liveness never
/// depends on the retry.
const CHOKE_PARK_CAP: u32 = 8;

pub(super) struct Flow {
    /// Extra payload bytes per event (models larger event bodies; Fig. 7
    /// uses ~5 KB).
    pub(super) event_pad: u32,
    /// Minimum silence on a subscriber stream before a heartbeat rides it.
    /// Kept under the detector's stale bound so a fully-filtered publisher
    /// stays Fresh, but well above the polling period so heartbeats stay
    /// cheap.
    pub(super) heartbeat_every: SimDur,
}

impl Flow {
    pub(super) fn new(poll_period: SimDur) -> Self {
        Flow {
            event_pad: 0,
            heartbeat_every: poll_period.mul_f64(2.0),
        }
    }

    /// The payload one poll decided for a subscriber, less what the
    /// ladder no longer sends, for [`Flow::drain`] to send or park.
    /// Remembers what was sent. A payload is born here and nowhere else,
    /// so a suppressed stream never touches the pool.
    #[inline]
    pub(super) fn enqueue(
        p: &mut PeerState,
        decided: &[MonRecord],
        ladder: &Ladder,
        sample: &Sample,
        cx: &mut PollCx<'_>,
    ) -> Option<OutboxEntry> {
        if !decided.iter().any(|r| ladder.keeps(r)) {
            return None;
        }
        // Sized before it is filled: a fresh buffer (the pool was dry) is
        // one allocator call, not one per doubling. One loop fills it and
        // remembers what was sent; a filtered `extend` or a copy and a
        // `retain`, then a second pass, read 5–8 ns a subscriber slower on
        // `star16-period`.
        let mut records = kecho::take_record_buf();
        records.reserve(decided.len());
        for r in decided.iter().filter(|r| ladder.keeps(r)) {
            records.push(*r);
            if (r.metric_id as usize) < sample.modules.len() {
                p.last_sent.set(r.metric_id, (r.value, cx.now));
            }
        }
        // Records for run-time-registered modules carry their schema
        // (metric + /proc file names) so any subscriber can interpret
        // them; with only base modules this allocates nothing.
        let carried =
            |(id, _, _): &&(u32, String, String)| records.iter().any(|r| r.metric_id == *id);
        let ext_names = sample.ext_schema.iter().filter(carried).cloned().collect();
        Some(OutboxEntry { records, ext_names })
    }

    /// Send a subscriber's `fresh` payload and drain its outbox as far as
    /// credits allow; returns whether any data left. A payload leaves at
    /// once when nothing waits ahead of it, the stream is open and a
    /// credit is free; otherwise it joins the bounded outbox, which
    /// drains oldest-first and sheds oldest past [`OUTBOX_CAP`] — so a
    /// stream that never stalls allocates no outbox. Sequence numbers are
    /// stamped at the actual send, so parked or shed payloads leave no
    /// hole in the stream.
    #[inline]
    pub(super) fn drain(
        &self,
        p: &mut PeerState,
        sub: NodeId,
        fresh: Option<OutboxEntry>,
        cx: &mut PollCx<'_>,
    ) -> bool {
        // A tail-drop park counts down here and always expires by itself;
        // the stream then re-probes the path.
        let choked = p.choke_park > 0;
        if choked {
            p.choke_park -= 1;
        }
        if let Some(e) = fresh {
            if !choked && p.outbox.is_empty() && p.credit.try_consume() {
                self.send(p, sub, e, cx);
                return true;
            }
            p.outbox.push_back(e);
            if p.outbox.len() > OUTBOX_CAP {
                if let Some(e) = p.outbox.pop_front() {
                    kecho::put_record_buf(e.records);
                    cx.stats.events_shed += 1;
                }
            }
        }
        let mut sent_data = false;
        while !choked && !p.outbox.is_empty() && p.credit.try_consume() {
            let Some(e) = p.outbox.pop_front() else { break };
            self.send(p, sub, e, cx);
            sent_data = true;
        }
        if !p.outbox.is_empty() {
            cx.stats.credits_stalled += 1;
        }
        sent_data
    }

    /// Submit one payload, its credit already taken.
    #[inline]
    fn send(&self, p: &mut PeerState, sub: NodeId, e: OutboxEntry, cx: &mut PollCx<'_>) {
        let payload = MonitoringPayload {
            origin: cx.node,
            epoch: cx.epoch,
            stream_seq: p.next_stream_seq(),
            // The grant counter for the reverse stream rides along. A
            // stream whose own grant is overdue is probably losing its
            // frames, so it folds nothing in and leaves the debt to
            // the poll's standalone `Credit`.
            credit_grant: {
                if !p.credit.grant_overdue() {
                    p.grants.fold();
                }
                p.grants.value()
            },
            records: e.records,
            pad_bytes: self.event_pad,
            ext_names: e.ext_names,
        };
        let seq = cx.next_seq();
        let mut ev = Event::monitoring(cx.mon_chan.0, seq, cx.node, payload);
        // Streams are customized per subscriber, so every monitoring
        // event is addressed — a relaying hub needs the final
        // destination to send it on.
        ev.target = Some(sub);
        let (bytes, handler) = cx.out.submit(cx.calib, sub, ev);
        cx.stats.events_sent += 1;
        cx.stats.bytes_sent += bytes as u64;
        // Submission samples accumulate within the iteration; the
        // sampler takes the per-iteration total at close.
        cx.stats.pending_submit += handler;
        p.sent += 1;
        p.stream_last_send = Some(cx.now);
    }

    /// Let a heartbeat ride a stream that carried no data this poll.
    /// Heartbeats never consume credits — a stalled stream still proves
    /// this node alive.
    #[inline]
    pub(super) fn heartbeat(
        &self,
        p: &mut PeerState,
        sub: NodeId,
        sent_data: bool,
        cx: &mut PollCx<'_>,
    ) {
        // Data sends substitute for heartbeats, except on a stream whose
        // grant is overdue: its data frames are probably dying in the
        // network, and frames that never arrive prove nothing.
        let overdue = p.credit.grant_overdue();
        if sent_data && !overdue {
            return;
        }
        // Rate-limited to `heartbeat_every`, not one per poll: a liveness
        // packet only needs to outpace the peer's stale bound, and
        // Figs. 4/6 depend on filtered streams staying nearly free. An
        // overdue stream skips the limit.
        let silence = p.stream_last_send.map_or(SimDur::MAX, |t| cx.now.since(t));
        if !overdue && silence < self.heartbeat_every {
            return;
        }
        let payload = HeartbeatPayload {
            origin: cx.node,
            epoch: cx.epoch,
            stream_seq: p.next_stream_seq(),
        };
        let seq = cx.next_seq();
        let ev = Event::heartbeat(cx.mon_chan.0, seq, cx.node, sub, payload);
        cx.out.queue(sub, ev);
        cx.out.cpu += cx.calib.heartbeat_cost + cx.calib.heartbeat_path_send;
        cx.stats.heartbeats_sent += 1;
        p.sent += 1;
        p.stream_last_send = Some(cx.now);
    }

    /// Subscriber side of flow control: top up publishers for the data
    /// this node absorbed and the frames it saw lost since its last grant,
    /// by a standalone `Credit` carrying the grant counter. Decided at
    /// poll time (not per arrival), so grants are replay-safe and batch to
    /// about one control frame per window quarter.
    pub(super) fn grants(peers: &mut PeerTable, cx: &mut PollCx<'_>) {
        for (publisher, p) in peers.iter_mut() {
            // Batch grants behind the threshold, but flush the remainder
            // once the publisher's data stream goes quiet: one trickling
            // below the threshold would never be topped up.
            let quiet = !std::mem::take(&mut p.data_since_poll);
            if quiet || p.grants.owed() >= GRANT_THRESHOLD {
                if let Some(credits) = p.grants.fold() {
                    cx.control(publisher, ControlMsg::Credit { credits });
                }
            }
        }
    }
}

impl DMon {
    /// Set the extra payload size per event.
    pub fn set_event_pad(&mut self, pad: u32) {
        self.flow.event_pad = pad;
    }

    /// Events (data + heartbeats) this publisher has submitted to one
    /// subscriber over its lifetime.
    pub fn sent_to(&self, subscriber: NodeId) -> u64 {
        self.peers.get(subscriber).map_or(0, |p| p.sent)
    }

    /// Metrics with a last-sent value held for `subscriber` — zero once a
    /// Dead eviction reaps the row, non-zero again after publication
    /// resumes.
    pub fn last_sent_len(&self, subscriber: NodeId) -> usize {
        self.peers.get(subscriber).map_or(0, |p| p.last_sent.len())
    }

    /// Events parked for `sub` awaiting credits.
    pub fn outbox_len(&self, sub: NodeId) -> usize {
        self.peers.get(sub).map_or(0, |p| p.outbox.len())
    }

    /// Credits currently available toward `sub`.
    pub fn credits_for(&self, sub: NodeId) -> u32 {
        self.peers.get(sub).map_or(0, |p| p.credit.available())
    }

    /// The kernel's own uplink queue tail-dropped a data frame bound for
    /// `sub` — locally observable, unlike in-network loss, so react at
    /// once: park the stream (1, 2, 4, then 8 polls as drops repeat) and
    /// erase the stream-send timestamp so the next poll sends a
    /// priority-lane heartbeat instead.
    pub fn on_wire_drop(&mut self, sub: NodeId) {
        let Some(p) = self.peers.touch(sub) else {
            return;
        };
        p.choke_run = p.choke_run.saturating_add(1);
        p.choke_park = (1u32 << u32::from(p.choke_run - 1).min(3)).min(CHOKE_PARK_CAP);
        p.stream_last_send = None;
        self.ladder.wire_dropped = true;
    }

    /// Whether the stream toward `sub` is currently parked by a local
    /// uplink tail-drop backoff.
    pub fn choked_toward(&self, sub: NodeId) -> bool {
        self.peers.get(sub).is_some_and(|p| p.choke_park > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{DmonStats, Outbound};
    use super::*;
    use crate::calib::Calib;
    use kecho::credit::GrantCounter;
    use kecho::{ChannelId, StreamTracker, INITIAL_CREDITS};
    use simcore::SimTime;

    #[test]
    fn event_pad_inflates_bytes() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        dmon.set_event_pad(5000);
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert!(out.sends[0].2 > 5000);
    }

    #[test]
    fn stalled_outbox_sheds_oldest_and_drains_on_grant() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        // Keep the failure detector out of the picture: this test never
        // delivers a frame, and eviction would reap the outboxes we are
        // trying to overflow.
        dmon.set_failure_bounds(SimDur::from_secs(100_000), SimDur::from_secs(200_000));

        // No grant ever arrives, so each stream burns its initial window
        // and parks events. The credit famine also walks the ladder down —
        // stretched polls plus the change-coarsening gate slow production,
        // so the load must keep moving for the digest records to keep
        // passing the gate and overflow the bounded outbox. A period-3
        // run-queue sawtooth (coprime with the top rung's stretch of 4)
        // guarantees every stretched sample sees a >10 % swing; polls sit
        // 120 s apart so the 60 s loadavg window settles between them.
        let polls = 220u64;
        let t = |s: u64| SimTime::from_secs(120 * s);
        let mut burst: Vec<simos::cpu::TaskId> = Vec::new();
        for s in 1..=polls {
            if s % 3 == 0 {
                for id in burst.drain(..) {
                    host.cpu.kill(t(s), id);
                }
            } else {
                for k in 0..4 {
                    burst.push(host.cpu.spawn_compute(t(s), format!("burst{s}-{k}")));
                }
            }
            dmon.poll(&mut host, &dir, mon, ctl, t(s), &calib);
            for peer in [NodeId(1), NodeId(2)] {
                assert!(dmon.outbox_len(peer) <= OUTBOX_CAP, "outbox over cap");
            }
        }
        assert_eq!(dmon.outbox_len(NodeId(1)), OUTBOX_CAP, "backlog at cap");
        assert_eq!(dmon.outbox_len(NodeId(2)), OUTBOX_CAP, "backlog at cap");
        assert_eq!(dmon.credits_for(NodeId(1)), 0, "window exhausted");
        assert!(dmon.stats.events_shed > 0, "overflow shed nothing");
        assert!(dmon.stats.credits_stalled > 0, "stall polls were counted");
        assert!(dmon.ladder_level() > 0, "famine never engaged the ladder");
        assert_eq!(
            dmon.stats.events_sent,
            2 * u64::from(INITIAL_CREDITS),
            "nothing left this node once the windows emptied"
        );

        // A grant from one subscriber reopens exactly that stream: the
        // backlog drains oldest-first up to the granted budget while the
        // other stream stays parked at the cap.
        dmon.on_control(
            NodeId(1),
            &ControlMsg::Credit {
                credits: INITIAL_CREDITS,
            },
            &calib,
        );
        let out = dmon.poll(&mut host, &dir, mon, ctl, t(polls + 1), &calib);
        let to1 = out
            .sends
            .iter()
            .filter(|(h, ev, _)| h.to == NodeId(1) && ev.as_monitoring().is_some())
            .count();
        assert_eq!(to1 as u32, INITIAL_CREDITS, "drained the granted budget");
        assert!(dmon.outbox_len(NodeId(1)) < OUTBOX_CAP);
        assert_eq!(dmon.outbox_len(NodeId(2)), OUTBOX_CAP, "no cross-talk");
    }

    #[test]
    fn a_credit_rich_stream_never_allocates_an_outbox() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        dmon.set_failure_bounds(SimDur::from_secs(100_000), SimDur::from_secs(200_000));
        // Each subscriber grants back every frame it got, after each poll.
        let mut grants = [GrantCounter::default(); 3];
        let mut sent = 0;
        for s in 1..=100 {
            let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(s), &calib);
            for (hop, _, _) in out
                .sends
                .iter()
                .filter(|(_, ev, _)| ev.as_monitoring().is_some())
            {
                grants[hop.to.0].owe(1);
                sent += 1;
            }
            for sub in [NodeId(1), NodeId(2)] {
                if let Some(credits) = grants[sub.0].fold() {
                    dmon.on_control(sub, &ControlMsg::Credit { credits }, &calib);
                }
                let p = dmon.peers.get(sub).expect("a subscriber's row");
                assert_eq!(p.outbox.capacity(), 0, "poll {s}: an outbox toward {sub:?}");
            }
        }
        assert!(
            sent > 4 * INITIAL_CREDITS,
            "{sent} frames: the grants never mattered"
        );
    }

    /// One [`Flow::drain`] toward node 1 with a one-record payload of
    /// value `fresh`, if any: the values it sent, in order.
    fn drain(p: &mut PeerState, fresh: Option<f64>, stats: &mut DmonStats) -> Vec<f64> {
        let (flow, calib, mut seq) = (Flow::new(SimDur::from_secs(1)), Calib::default(), 0);
        let mut cx = PollCx {
            now: SimTime::from_secs(1),
            mon_chan: ChannelId(0),
            ctl_chan: ChannelId(1),
            calib: &calib,
            node: NodeId(0),
            epoch: 0,
            seq: &mut seq,
            stats,
            out: Outbound {
                sends: Vec::new(),
                cpu: SimDur::ZERO,
            },
        };
        let fresh = fresh.map(|value| OutboxEntry {
            records: vec![MonRecord {
                metric_id: 0,
                value,
                last_value_sent: 0.0,
                timestamp: 0.0,
            }],
            ext_names: Vec::new(),
        });
        flow.drain(p, NodeId(1), fresh, &mut cx);
        let sent = cx
            .out
            .sends
            .iter()
            .filter_map(|(_, ev, _)| ev.as_monitoring());
        sent.map(|m| m.records[0].value).collect()
    }

    fn parked(p: &PeerState) -> Vec<f64> {
        p.outbox.iter().map(|e| e.records[0].value).collect()
    }

    #[test]
    fn a_starved_stream_parks_sheds_oldest_and_drains_in_order() {
        let (mut p, mut stats) = (PeerState::default(), DmonStats::default());
        while p.credit.try_consume() {}
        let extra = 5;
        for v in 0..OUTBOX_CAP + extra {
            assert!(drain(&mut p, Some(v as f64), &mut stats).is_empty());
        }
        let kept: Vec<f64> = (extra..OUTBOX_CAP + extra).map(|v| v as f64).collect();
        assert_eq!(parked(&p), kept, "the oldest were shed");
        assert_eq!(stats.events_shed, extra as u64);
        assert_eq!(stats.credits_stalled, (OUTBOX_CAP + extra) as u64);
        // A grant of four sends the four oldest, in order.
        p.accept(4);
        assert_eq!(drain(&mut p, None, &mut stats), kept[..4]);
        // With a backlog, a fresh payload queues behind it.
        p.accept(4 + INITIAL_CREDITS);
        let sent = drain(&mut p, Some(100.0), &mut stats);
        assert_eq!(sent, kept[4..4 + INITIAL_CREDITS as usize]);
        assert_eq!(parked(&p).last(), Some(&100.0));
        assert_eq!(stats.events_sent, u64::from(4 + INITIAL_CREDITS));
    }

    #[test]
    fn a_parked_stream_parks_its_fresh_payload() {
        let (mut p, mut stats) = (PeerState::default(), DmonStats::default());
        p.choke_park = 2;
        assert!(drain(&mut p, Some(1.0), &mut stats).is_empty());
        assert!(drain(&mut p, Some(2.0), &mut stats).is_empty());
        assert_eq!(
            (parked(&p), p.credit.available()),
            (vec![1.0, 2.0], INITIAL_CREDITS)
        );
        // The park has expired: the backlog leaves oldest-first, then the
        // next payload leaves at once.
        assert_eq!(drain(&mut p, None, &mut stats), [1.0, 2.0]);
        assert_eq!(drain(&mut p, Some(3.0), &mut stats), [3.0]);
        assert_eq!((stats.credits_stalled, stats.events_shed), (2, 0));
    }

    #[test]
    fn stream_seq_wraps_with_the_gap_counted_once_wherever_the_drop_falls() {
        for dropped in 0..6 {
            let mut tx = PeerState {
                stream_seq: u32::MAX - 2,
                ..PeerState::default()
            };
            let mut rx = StreamTracker::new();
            let mut seen = Vec::new();
            for frame in 0..6 {
                let seq = tx.next_stream_seq();
                seen.push(seq);
                if frame == dropped {
                    continue;
                }
                let obs = rx.observe(0, seq);
                assert!(!obs.stale && !obs.restarted, "drop {dropped} frame {frame}");
                let revealed = frame == dropped + 1 && dropped > 0;
                assert_eq!(
                    obs.lost,
                    u64::from(revealed),
                    "drop {dropped} frame {frame}"
                );
            }
            assert_eq!(seen, vec![u32::MAX - 2, u32::MAX - 1, u32::MAX, 0, 1, 2]);
            // A drop before first contact or after the last arrival is
            // not (yet) a gap; any other is exactly one.
            let expect = u64::from((1..5).contains(&dropped));
            assert_eq!((rx.gaps(), rx.restarts()), (expect, 0), "drop {dropped}");
        }
    }
}
