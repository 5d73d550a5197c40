//! *Receive* (Fig. 8): what arrives on the monitoring channel. A data
//! frame proves its origin alive, settles flow-control accounts and lands
//! in `/proc/cluster/<origin>/` and the fast-path value store; a
//! heartbeat only proves its origin alive. The stage's own state is the
//! schema learned from peers' frames.

use std::collections::BTreeMap;

use kecho::{Event, HeartbeatPayload, StreamTracker};
use simcore::{SimDur, SimTime};
use simnet::NodeId;
use simos::Host;

use super::{intern_cluster_file, leaf_name_ok, DMon};
use crate::calib::Calib;
use crate::peers::SPILL_METRICS;

/// The longest name a peer's schema block may teach, in bytes: the longest
/// a `/proc` leaf can be (`NAME_MAX`).
const NAME_MAX: usize = 255;

#[derive(Default)]
pub(super) struct Receive {
    /// Learned schema extensions: metric/file names for foreign ids beyond
    /// the standard module set, per origin. Ordered so name lookups scan
    /// an origin's range deterministically.
    remote_ext: BTreeMap<(NodeId, u32), (String, String)>,
    /// See [`DMon::events_rejected`].
    pub(super) rejected: u64,
}

impl Receive {
    pub(super) fn on_revive(&mut self) {
        self.remote_ext.clear();
    }
}

impl DMon {
    /// Handle an incoming monitoring event: update the `/proc/cluster`
    /// tree and the fast-path store. A record whose file name (learned
    /// from the frame's schema block) cannot be a leaf of
    /// `cluster/<origin>/`, or whose metric id is one too many beyond the
    /// standard set for the origin's row, is skipped and counted in
    /// `events_rejected`, and so is a schema entry naming a metric or file
    /// in more than 255 bytes.
    /// Returns the d-mon handler CPU cost (kernel network-path cost is
    /// charged by the glue on top).
    pub fn on_event(
        &mut self,
        host: &mut Host,
        ev: &Event,
        bytes: usize,
        now: SimTime,
        calib: &Calib,
    ) -> SimDur {
        let Some(payload) = ev.as_monitoring() else {
            return SimDur::ZERO;
        };
        let origin = payload.origin;
        let proof = HeartbeatPayload {
            origin,
            epoch: payload.epoch,
            stream_seq: payload.stream_seq,
        };
        let (me, stats) = (self.node, &mut self.stats);
        let alive = self
            .detector
            .note_alive(&mut self.peers, me, proof, now, stats);
        let Some((p, obs)) = alive else {
            self.receive.rejected += 1;
            return SimDur::ZERO;
        };
        if origin != me {
            // Grant accounting: this arrival consumed one of the credits
            // we granted the publisher; the next poll tops it back up once
            // enough have accumulated.
            p.grants.owe(1);
            p.data_since_poll = true;
            // The frame's piggyback byte is the publisher's own grant
            // counter toward us. An old incarnation's straggler carries
            // one that restarted since.
            if !obs.stale {
                p.accept(payload.credit_grant);
            }
        }
        let ext = &mut self.receive.remote_ext;
        for (id, metric, file) in &payload.ext_names {
            // The names are the peer's to choose, up to the frame's size:
            // one longer than a `/proc` leaf can be names nothing, and is
            // neither kept nor made into a path.
            if metric.len().max(file.len()) > NAME_MAX {
                self.receive.rejected += 1;
                continue;
            }
            let known = ext.get(&(origin, *id));
            if known.is_some_and(|(m, f)| m == metric && f == file) {
                continue;
            }
            // The ids are the peer's to choose: it gets as many names as
            // its row has slots beyond the standard set, since a name for
            // an id the row cannot hold names nothing.
            let of_origin = (origin, 0)..=(origin, u32::MAX);
            if known.is_none() && ext.range(of_origin).count() >= SPILL_METRICS {
                self.receive.rejected += 1;
                continue;
            }
            // A changed file name (the origin restarted with another
            // module layout) invalidates the cached /proc cells.
            p.file_cells.unset(*id);
            ext.insert((origin, *id), (metric.clone(), file.clone()));
        }
        let origin_name = &self.cluster_names[origin.0];
        for r in &payload.records {
            let id = r.metric_id;
            let mut cells = p.file_cells.get(id);
            // The id is the peer's to choose: beyond the standard set it
            // gets one of a bounded number of slots, or nothing.
            if cells.is_none() && p.file_cells.has_room(id) {
                let learned = || ext.get(&(origin, id)).map(|(_, f)| f.as_str());
                let file = self.sample.base_file_name(id as usize).or_else(learned);
                let file = file.unwrap_or("extra");
                if leaf_name_ok(file) {
                    let h = intern_cluster_file(&mut host.proc, origin_name, file);
                    cells = h.map(|h| host.proc.sample_cells(h));
                }
                if let Some(c) = cells {
                    p.file_cells.set(id, c);
                }
            }
            let Some(c) = cells else {
                self.receive.rejected += 1;
                continue;
            };
            p.remote_values.set(id, (r.value, now));
            // Numbers only: the file renders `"<file> <value> ts <ts>"`
            // when somebody reads it.
            host.proc.set_sample(c, r.value, r.timestamp);
        }
        // Make sure the control file for that node exists so applications
        // can customize it.
        if !p.ctl_ready {
            let ctl = intern_cluster_file(&mut host.proc, origin_name, "control");
            p.ctl_ready = ctl.is_some();
        }
        let handler = calib.receive_cost(bytes);
        stats.events_received += 1;
        stats.bytes_received += bytes as u64;
        stats.pending_receive += handler;
        handler
    }

    /// Handle an incoming heartbeat: pure liveness, no data. Returns the
    /// handler CPU cost. Heartbeats are deliberately cheap and stay out
    /// of the Fig. 8 receive-cost sampler — they are the failure
    /// detector's overhead, not monitoring work.
    pub fn on_heartbeat(&mut self, ev: &Event, now: SimTime, calib: &Calib) -> SimDur {
        let Some(hb) = ev.as_heartbeat() else {
            return SimDur::ZERO;
        };
        // A heartbeat that reveals a gap proves the publisher alive with
        // its data dying on the wire: `note_alive` owes the lost frames
        // back, so the publisher can re-probe the path.
        let (me, stats) = (self.node, &mut self.stats);
        let alive = self
            .detector
            .note_alive(&mut self.peers, me, *hb, now, stats);
        if alive.is_none() {
            self.receive.rejected += 1;
            return SimDur::ZERO;
        }
        self.stats.heartbeats_received += 1;
        calib.heartbeat_cost
    }

    /// Last value received from `origin` for the metric named `metric` —
    /// the programmatic fast path next to the `/proc` text interface.
    pub fn remote_value(&self, origin: NodeId, metric: &str) -> Option<(f64, SimTime)> {
        let idx = match self.sample.env.index_of(metric) {
            Some(idx) => idx,
            // A metric this node has no module for: resolve through the
            // schema the origin shipped with its events. The map is
            // ordered by (origin, id), so this scans exactly the origin's
            // ids in ascending order.
            None => {
                let ext = &self.receive.remote_ext;
                let mut ids = ext.range((origin, 0)..=(origin, u32::MAX));
                ids.find(|(_, (name, _))| name == metric)?.0 .1 as usize
            }
        };
        self.peers.get(origin)?.remote_values.get(idx as u32)
    }

    /// Frames and digests dropped because their origin or rack named no
    /// node or rack of this cluster, plus records, schema names and digest
    /// files skipped because a peer supplied an unusable file name, a
    /// schema name longer than 255 bytes, or more metric ids than a row or
    /// a rack directory holds (kept off `DmonStats`, whose `Debug` text is
    /// part of recorded run fingerprints).
    pub fn events_rejected(&self) -> u64 {
        self.receive.rejected
    }

    /// Read access to the stream tracker observing `peer`'s stream
    /// (tests, probes).
    pub fn stream_tracker(&self, peer: NodeId) -> Option<&StreamTracker> {
        self.peers.get(peer).map(|p| &p.tracker)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::PeerHealth;
    use super::*;
    use kecho::event::Payload;
    use kecho::{ChannelId, ControlMsg, MonRecord, MonitoringPayload};

    #[test]
    fn on_event_populates_cluster_tree_and_fast_path() {
        let (mut dmon, mut host, _dir, mon, _ctl, calib) = setup();
        let ev = Event::monitoring(
            mon.0,
            1,
            NodeId(2),
            MonitoringPayload {
                origin: NodeId(2),
                epoch: 0,
                stream_seq: 0,
                credit_grant: 0,
                records: vec![MonRecord {
                    metric_id: 0,
                    value: 2.5,
                    last_value_sent: 1.0,
                    timestamp: 3.0,
                }],
                pad_bytes: 0,
                ext_names: Vec::new(),
            },
        );
        let cost = dmon.on_event(&mut host, &ev, 90, SimTime::from_secs(3), &calib);
        assert!(cost >= calib.receive_base);
        assert!(host.proc.read("cluster/etna/cpu").unwrap().contains("2.5"));
        assert!(host.proc.exists("cluster/etna/control"));
        let (v, t) = dmon.remote_value(NodeId(2), "LOADAVG").unwrap();
        assert_eq!(v, 2.5);
        assert_eq!(t, SimTime::from_secs(3));
        assert_eq!(dmon.stats.events_received, 1);
    }

    fn hb_from(origin: NodeId, mon: ChannelId) -> Event {
        let payload = HeartbeatPayload {
            origin,
            epoch: 0,
            stream_seq: 0,
        };
        Event::heartbeat(mon.0, 1, origin, NodeId(0), payload)
    }

    #[test]
    fn heartbeat_refreshes_peer_without_data() {
        let (mut dmon, _host, _dir, mon, _ctl, calib) = setup();
        let hb = hb_from(NodeId(1), mon);
        let cost = dmon.on_heartbeat(&hb, SimTime::from_secs(1), &calib);
        assert!(cost > SimDur::ZERO);
        assert_eq!(dmon.stats.heartbeats_received, 1);
        assert_eq!(dmon.stats.events_received, 0, "no data counted");
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Fresh));
    }

    #[test]
    fn a_restart_shown_first_by_a_heartbeat_resets_the_grant_cursor() {
        let (mut dmon, mut host, _dir, mon, _ctl, calib) = setup();
        let (maui, now) = (NodeId(1), SimTime::from_secs(1));
        let frame = |epoch, sseq, credit_grant| {
            let mut ev = mon_from(maui, mon, epoch, sseq);
            if let Payload::Monitoring(m) = &mut ev.payload {
                m.credit_grant = credit_grant;
            }
            ev
        };
        // Maui's grant counter toward us reached 40, and we then spent the
        // whole window toward it.
        dmon.on_event(&mut host, &frame(0, 0, 40), 90, now, &calib);
        let p = dmon.peers.touch(maui).expect("a cluster member");
        while p.credit.try_consume() {}
        // Maui restarts, and its first frame here is a heartbeat: the
        // data frame after it no longer reports the restart.
        let proof = HeartbeatPayload {
            origin: maui,
            epoch: 1,
            stream_seq: 0,
        };
        let hb = Event::heartbeat(mon.0, 1, maui, NodeId(0), proof);
        dmon.on_heartbeat(&hb, now, &calib);
        // It holds none of our frames, so the window starts over, and its
        // fresh counter grants exactly what it says, by either carrier.
        assert_eq!(dmon.credits_for(maui), kecho::INITIAL_CREDITS);
        let p = dmon.peers.touch(maui).expect("a cluster member");
        while p.credit.try_consume() {}
        dmon.on_event(&mut host, &frame(1, 1, 4), 90, now, &calib);
        assert_eq!(dmon.credits_for(maui), 4);
        dmon.on_control(maui, &ControlMsg::Credit { credits: 9 }, &calib);
        assert_eq!(dmon.credits_for(maui), 9);
        dmon.on_control(maui, &ControlMsg::Credit { credits: 40 }, &calib);
        assert_eq!(dmon.credits_for(maui), kecho::INITIAL_CREDITS);
    }

    #[test]
    fn events_from_outside_the_rack_spill_and_unknown_origins_are_dropped() {
        let (mut dmon, mut host, mon, calib) = racked();
        assert_eq!(dmon.tracked_peers(), 3, "the home rack");
        let now = SimTime::from_secs(1);
        let cost = dmon.on_event(&mut host, &mon_from(FAR, mon, 0, 0), 90, now, &calib);
        assert!(cost > SimDur::ZERO);
        assert_eq!(dmon.tracked_peers(), 4, "first touch spills one slot");
        assert_eq!(dmon.peer_health(FAR), Some(PeerHealth::Fresh));
        assert!(dmon.remote_value(FAR, "LOADAVG").is_some());
        assert!(host.proc.exists("cluster/hood/cpu"));
        for (k, origin) in BOGUS.into_iter().enumerate() {
            let ev = mon_from(origin, mon, 0, 0);
            assert_eq!(dmon.on_event(&mut host, &ev, 90, now, &calib), SimDur::ZERO);
            assert_eq!(dmon.events_rejected(), k as u64 + 1);
            assert_eq!(dmon.peer_health(origin), None);
        }
        assert_eq!(dmon.stats.events_received, 1, "only the real frame counted");
        assert_eq!(dmon.tracked_peers(), 4);
    }

    /// A frame from etna carrying one record of extension metric 7, which
    /// its schema block binds to the file name `file`.
    fn ext_frame(mon: ChannelId, sseq: u32, file: &str) -> Event {
        let payload = MonitoringPayload {
            origin: NodeId(2),
            epoch: 0,
            stream_seq: sseq,
            credit_grant: 0,
            records: vec![MonRecord {
                metric_id: 7,
                value: 4.0,
                last_value_sent: 0.0,
                timestamp: 1.0,
            }],
            pad_bytes: 0,
            ext_names: vec![(7, "EXT".to_string(), file.to_string())],
        };
        Event::monitoring(mon.0, 1, NodeId(2), payload)
    }

    #[test]
    fn peer_supplied_file_names_cannot_panic_or_clobber() {
        let (mut dmon, mut host, mon, calib) = racked();
        let now = SimTime::from_secs(1);
        // The peer's status and control files exist before the hostile
        // frames arrive, as they do on a running node.
        dmon.on_event(&mut host, &mon_from(NodeId(2), mon, 0, 0), 90, now, &calib);
        host.proc.set("cluster/etna/status", "fresh").unwrap();
        let listing = host.proc.list("cluster/etna").unwrap();
        for (k, file) in ["", "a//b", "x/y", "control", "status", "overload"]
            .into_iter()
            .enumerate()
        {
            let ev = ext_frame(mon, 1 + k as u32, file);
            assert!(dmon.on_event(&mut host, &ev, 90, now, &calib) > SimDur::ZERO);
            assert_eq!(dmon.events_rejected(), 1 + k as u64, "{file:?} counted");
            assert_eq!(host.proc.list("cluster/etna").unwrap(), listing, "{file:?}");
            assert!(host.proc.is_dir("cluster/etna"));
            assert_eq!(host.proc.read("cluster/etna/control").unwrap(), "");
            assert_eq!(host.proc.read("cluster/etna/status").unwrap(), "fresh");
            assert_eq!(dmon.remote_value(NodeId(2), "EXT"), None, "record skipped");
        }
        assert_eq!(dmon.stats.events_received, 7, "the frames themselves count");

        let ev = ext_frame(mon, 7, "power");
        dmon.on_event(&mut host, &ev, 90, now, &calib);
        assert_eq!(dmon.events_rejected(), 6);
        assert_eq!(
            host.proc.read("cluster/etna/power").unwrap(),
            "power 4 ts 1.000"
        );
        assert_eq!(dmon.remote_value(NodeId(2), "EXT"), Some((4.0, now)));
    }

    #[test]
    fn heartbeats_from_outside_the_rack_spill_and_unknown_origins_are_dropped() {
        let (mut dmon, _host, mon, calib) = racked();
        let now = SimTime::from_secs(1);
        assert!(dmon.on_heartbeat(&hb_from(FAR, mon), now, &calib) > SimDur::ZERO);
        assert_eq!(dmon.peer_health(FAR), Some(PeerHealth::Fresh));
        for origin in BOGUS {
            let cost = dmon.on_heartbeat(&hb_from(origin, mon), now, &calib);
            assert_eq!(cost, SimDur::ZERO);
        }
        assert_eq!(dmon.stats.heartbeats_received, 1);
        assert_eq!(dmon.events_rejected(), 2);
        assert_eq!(dmon.tracked_peers(), 4);
    }
}
