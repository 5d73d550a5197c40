//! The failure detector and what recovery needs: Fresh → Stale → Dead by
//! silence, `cluster/<peer>/status`, and the replay of the customizations
//! this node deployed on a remote publisher when that publisher comes
//! back. The verdict lives in the peer's [`PeerState::record`], the
//! replay log in its [`crate::peers::Custom::replay`].
//! Liveness is the heartbeat share of Fig. 8, not monitoring work.

use std::fmt::Write;

use kecho::{ControlMsg, CreditWindow, HeartbeatPayload, Observation};
use simcore::{SimDur, SimTime};
use simnet::NodeId;
use simos::Host;

use super::{intern_cluster_file, DMon, DmonStats, PeerHealth, PollCx};
use crate::control::Command;
use crate::peers::{PeerRecord, PeerState, PeerTable};

/// The text of a `status` file, from `[health, last_heard ns, age ns,
/// epoch]`; the times read in seconds.
pub(super) fn render_status(rec: &[u64], out: &mut String) {
    let &[health, last_heard, age, epoch] = rec else {
        return;
    };
    const HEALTH: [&str; 3] = ["fresh", "stale", "dead"];
    let health = HEALTH.get(health as usize).copied().unwrap_or("?");
    let last_update = SimTime::from_nanos(last_heard).as_secs_f64();
    let age = SimDur::from_nanos(age).as_secs_f64();
    let _ = write!(
        out,
        "{health} last_update {last_update:.3} age {age:.3} epoch {epoch}"
    );
}

pub(super) struct Detector {
    /// Silence bound for Fresh → Stale.
    stale_after: SimDur,
    /// Silence bound for Stale → Dead.
    dead_after: SimDur,
    /// Peers that recovered since the last poll and need re-deployment.
    pending_resync: Vec<NodeId>,
    /// The list [`Detector::check_peers`] hands out, back from the glue
    /// ([`DMon::recycle_dead_peers`]) empty.
    dead: Vec<NodeId>,
}

impl Detector {
    /// Defaults are 3× / 8× the polling period.
    pub(super) fn new(poll_period: SimDur) -> Self {
        Detector {
            stale_after: poll_period.mul_f64(3.0),
            dead_after: poll_period.mul_f64(8.0),
            pending_resync: Vec::new(),
            dead: Vec::new(),
        }
    }

    pub(super) fn on_revive(&mut self) {
        self.pending_resync.clear();
    }

    /// Fold a liveness proof — the stream position a data frame or a
    /// heartbeat carried — into the detector and the origin's tracker.
    /// Returns the origin's row and the stream observation so callers can
    /// react to gaps, or `None` when the origin names no node of this
    /// cluster — such a frame must be dropped, not indexed.
    #[inline]
    pub(super) fn note_alive<'p>(
        &mut self,
        peers: &'p mut PeerTable,
        me: NodeId,
        from: HeartbeatPayload,
        now: SimTime,
        stats: &mut DmonStats,
    ) -> Option<(&'p mut PeerState, Observation)> {
        let p = peers.touch(from.origin)?;
        if from.origin == me {
            return Some((p, Observation::default()));
        }
        let obs = p.tracker.observe(from.epoch, from.stream_seq);
        stats.gaps_detected += obs.lost;
        // A proven-lost frame spent one of the publisher's credits but
        // consumed none of our receive capacity: owe it back like an
        // absorbed one, so a healed path re-inflates its window
        // (DESIGN.md §14).
        p.grants.owe(obs.lost);
        if obs.healed {
            // A straggler disproved an earlier loss accusation: keep the
            // counter exact and take back the credit the accusation owed
            // (the arrival earns the ordinary one in `on_event`).
            stats.gaps_detected = stats.gaps_detected.saturating_sub(1);
            p.grants.retract();
        }
        if obs.restarted {
            // Whichever frame shows it first: the peer, as our subscriber,
            // restarted holding none of our frames and a fresh counter, so
            // our window toward it starts over too.
            p.credit = CreditWindow::default();
        }
        let was_dead = p.record.is_some_and(|r| r.health == PeerHealth::Dead);
        p.record = Some(PeerRecord {
            last_heard: now,
            health: PeerHealth::Fresh,
            epoch: from.epoch,
        });
        if (was_dead || obs.restarted) && !self.pending_resync.contains(&from.origin) {
            self.pending_resync.push(from.origin);
        }
        Some((p, obs))
    }

    /// Advance the failure detector to `now`: age every tracked peer,
    /// refresh `/proc/cluster/<peer>/status`, and return peers newly
    /// declared Dead. An evicted subscriber's per-stream send state is
    /// reaped here — its stream is over, parked payloads are shed; a
    /// later recovery starts from a clean slate — while lifetime counters
    /// and the replay log (bounded by compaction) deliberately survive.
    pub(super) fn check_peers(
        &mut self,
        peers: &mut PeerTable,
        host: &mut Host,
        names: &[String],
        cx: &mut PollCx<'_>,
    ) -> Vec<NodeId> {
        let (now, stats) = (cx.now, &mut *cx.stats);
        let mut dead = std::mem::take(&mut self.dead);
        for (peer, p) in peers.iter_mut() {
            let Some(mut rec) = p.record else {
                continue;
            };
            let age = now.since(rec.last_heard);
            if rec.health != PeerHealth::Dead {
                if age >= self.dead_after {
                    rec.health = PeerHealth::Dead;
                    stats.nodes_evicted += 1;
                    stats.events_shed += p.reap();
                    dead.push(peer);
                } else if age >= self.stale_after {
                    if rec.health == PeerHealth::Fresh {
                        stats.nodes_suspected += 1;
                    }
                    rec.health = PeerHealth::Stale;
                }
                // Past the stale bound at least one heartbeat interval
                // has gone unanswered; count one miss per silent check.
                if age >= self.stale_after {
                    stats.heartbeats_missed += 1;
                }
                p.record = Some(rec);
            }
            if p.status_cells.is_none() {
                let h = intern_cluster_file(&mut host.proc, &names[peer.0], "status");
                p.status_cells = h.map(|h| host.proc.record_cells(h, render_status));
            }
            let Some(cells) = p.status_cells else {
                continue;
            };
            let words = [
                rec.health as u64,
                rec.last_heard.as_nanos(),
                age.as_nanos(),
                u64::from(rec.epoch),
            ];
            host.proc.set_cells(cells, words);
        }
        dead
    }

    /// Resync recovered publishers: replay the customizations this node
    /// had deployed on them (their volatile state died with them).
    pub(super) fn resync(&mut self, peers: &PeerTable, cx: &mut PollCx<'_>) {
        for peer in self.pending_resync.drain(..) {
            cx.stats.resyncs += 1;
            let custom = peers.get(peer).and_then(|p| p.custom.as_ref());
            for msg in custom.into_iter().flat_map(|c| &c.replay) {
                cx.control(peer, msg.pooled_clone());
            }
        }
    }
}

/// Remember `cmd`, sent as `msg`, in the replay log of the publisher it
/// went to, so it can be replayed in order if that publisher restarts.
/// The log is compacted so it stays bounded under steady
/// reconfiguration: a fresh `filter` supersedes the previous one (a
/// `nofilter` removes it and is not logged itself), a replacing
/// rule or a `clear` supersedes every earlier rule and `clear` for the
/// same metric, and a `window` the earlier `window` for the same file.
/// Only `and` rules stack, because that is their replay semantic. The
/// logged copy's text comes from the pool, and a superseded entry's goes
/// back to it.
pub(super) fn record_deployment(log: &mut Vec<ControlMsg>, cmd: Command<'_>, msg: &ControlMsg) {
    use Command::{Clear, Filter, NoFilter, Rule, Window};
    let supersedes = |old: Command<'_>| match (cmd, old) {
        (Rule { and: true, .. }, _) => false,
        (Rule { metric, .. } | Clear { metric }, Rule { metric: m, .. } | Clear { metric: m }) => {
            metric == m
        }
        (Window { file, .. }, Window { file: f, .. }) => file == f,
        (Filter { .. } | NoFilter, Filter { .. }) => true,
        _ => false,
    };
    let superseded = |m: &mut ControlMsg| Command::of(m).is_some_and(supersedes);
    log.extract_if(.., superseded).for_each(ControlMsg::recycle);
    // `clear` is kept too (it replays as a cheap no-op on a blank
    // restart) because metric aliases — /proc file names vs E-code
    // constants — can hide a rule it must still undo.
    if cmd != NoFilter {
        log.push(msg.pooled_clone());
    }
}

impl DMon {
    /// Hand back [`PollOutcome::dead_peers`] once the glue has acted on it,
    /// so the next poll's verdicts go in the same list.
    ///
    /// [`PollOutcome::dead_peers`]: super::PollOutcome::dead_peers
    pub fn recycle_dead_peers(&mut self, mut dead: Vec<NodeId>) {
        dead.clear();
        self.detector.dead = dead;
    }

    /// Configure the failure detector's silence bounds.
    pub fn set_failure_bounds(&mut self, stale_after: SimDur, dead_after: SimDur) {
        assert!(
            !stale_after.is_zero() && stale_after < dead_after,
            "need 0 < stale_after < dead_after"
        );
        self.detector.stale_after = stale_after;
        self.detector.dead_after = dead_after;
        // Heartbeats must outpace the stale bound, whatever it is.
        self.flow.heartbeat_every = self
            .poll_period
            .mul_f64(2.0)
            .min(stale_after.mul_f64(2.0 / 3.0));
    }

    /// The failure detector's `(stale_after, dead_after)` silence bounds.
    pub fn failure_bounds(&self) -> (SimDur, SimDur) {
        (self.detector.stale_after, self.detector.dead_after)
    }

    /// Health of a remote peer; `None` until first contact.
    pub fn peer_health(&self, peer: NodeId) -> Option<PeerHealth> {
        self.peers.get(peer)?.record.map(|r| r.health)
    }

    /// Earliest future instant at which a currently-tracked peer could be
    /// declared `Dead` by a poll: `last_heard + dead_after`, minimized over
    /// peers not already dead. `None` when no verdict is pending. Used by
    /// the parallel scheduler to decide whether a time window could contain
    /// an eviction (a shared-registry mutation).
    pub fn next_dead_deadline(&self) -> Option<SimTime> {
        self.peers
            .iter()
            .filter_map(|p| p.record)
            .filter(|r| r.health != PeerHealth::Dead)
            .map(|r| r.last_heard + self.detector.dead_after)
            .min()
    }

    /// No poll of this d-mon declares a peer Dead before this instant, for
    /// as long as its failure bounds stand: the pending deadline of
    /// [`DMon::next_dead_deadline`], or `now + dead_after` if that is
    /// sooner — the earliest deadline a peer first heard at `now` or later
    /// can have, and likewise one heard again after a Dead verdict. Unlike
    /// the deadline itself, which a newly heard peer can pull *earlier*,
    /// this bound holds until time reaches it, so the parallel scheduler
    /// can keep it instead of walking the peer table every window.
    pub fn dead_horizon(&self, now: SimTime) -> SimTime {
        let cap = now + self.detector.dead_after;
        self.next_dead_deadline().map_or(cap, |d| d.min(cap))
    }

    /// Number of customization messages queued for replay to `target` if
    /// it restarts (bounded by compaction in `record_deployment`).
    pub fn deployed_ctl_len(&self, target: NodeId) -> usize {
        let custom = self.peers.get(target).and_then(|p| p.custom.as_ref());
        custom.map_or(0, |c| c.replay.len())
    }

    /// The channel registry announced that `peer` (re-)subscribed, which
    /// proves it reachable before anything arrives on its stream: a Dead
    /// verdict becomes Stale, so publication toward it resumes. Without
    /// this, two nodes that evicted each other during a partition would
    /// skip each other as subscribers forever.
    pub fn on_peer_rejoin(&mut self, peer: NodeId, now: SimTime) {
        // This node keeps no verdict on itself, so `peer == self` is a no-op.
        if let Some(rec) = self.peers.get_mut(peer).and_then(|p| p.record.as_mut()) {
            if rec.health == PeerHealth::Dead {
                rec.health = PeerHealth::Stale;
                rec.last_heard = now;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use kecho::ParamSpec;

    #[test]
    fn detector_walks_fresh_stale_dead_and_updates_status() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        // Defaults: stale at 3 s, dead at 8 s (1 s poll period).
        let ev = mon_from(NodeId(1), mon, 0, 0);
        dmon.on_event(&mut host, &ev, 90, SimTime::from_secs(1), &calib);
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Fresh));

        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(2), &calib);
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Fresh));
        assert!(host
            .proc
            .read("cluster/maui/status")
            .unwrap()
            .starts_with("fresh"));

        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(5), &calib);
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Stale));
        assert_eq!(dmon.stats.nodes_suspected, 1);
        assert!(out.dead_peers.is_empty());
        assert!(host
            .proc
            .read("cluster/maui/status")
            .unwrap()
            .starts_with("stale"));

        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(10), &calib);
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Dead));
        assert_eq!(out.dead_peers, vec![NodeId(1)]);
        assert_eq!(dmon.stats.nodes_evicted, 1);
        assert!(host
            .proc
            .read("cluster/maui/status")
            .unwrap()
            .starts_with("dead"));
        assert!(dmon.stats.heartbeats_missed > 0);
        // A Dead subscriber gets no traffic even while still registered.
        assert!(out.sends.iter().all(|(h, _, _)| h.to != NodeId(1)));
    }

    #[test]
    fn dead_peer_speaking_again_triggers_resync_replay() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        // This node customized publisher 1 earlier.
        host.proc.set("cluster/maui/control", "").unwrap();
        host.proc
            .write("cluster/maui/control", "period cpu 2")
            .unwrap();
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);

        let ev = mon_from(NodeId(1), mon, 0, 0);
        dmon.on_event(&mut host, &ev, 90, SimTime::from_secs(1), &calib);
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(10), &calib);
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Dead));

        // The publisher restarts: new epoch, stream reset.
        let ev = mon_from(NodeId(1), mon, 1, 0);
        dmon.on_event(&mut host, &ev, 90, SimTime::from_secs(11), &calib);
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Fresh));
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(12), &calib);
        assert_eq!(dmon.stats.resyncs, 1);
        let replayed: Vec<_> = out
            .sends
            .iter()
            .filter(|(h, ev, _)| h.to == NodeId(1) && ev.as_control().is_some())
            .collect();
        assert_eq!(replayed.len(), 1, "customization replayed");
        assert_eq!(
            replayed[0].1.as_control().unwrap(),
            &ControlMsg::SetParam {
                metric: "cpu".into(),
                param: ParamSpec::Period { period_s: 2.0 }
            }
        );
    }

    #[test]
    fn gap_detection_counts_dropped_stream_positions() {
        let (mut dmon, mut host, _dir, mon, _ctl, calib) = setup();
        for sseq in [0, 1, 4, 5] {
            let ev = mon_from(NodeId(2), mon, 0, sseq);
            dmon.on_event(&mut host, &ev, 90, SimTime::from_secs(1), &calib);
        }
        assert_eq!(dmon.stats.gaps_detected, 2, "positions 2 and 3 lost");
    }

    #[test]
    fn dead_horizon_is_the_pending_deadline_capped_one_dead_bound_out() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        let secs = SimTime::from_secs;
        // Nobody heard yet: no deadline, but a peer first heard at 5 s
        // would have one at 13 s (defaults: Dead after 8 s).
        assert_eq!(dmon.next_dead_deadline(), None);
        assert_eq!(dmon.dead_horizon(secs(5)), secs(13));

        // Heard at 1 s: the deadline is 9 s, inside the cap from 2 s …
        let ev = mon_from(NodeId(1), mon, 0, 0);
        dmon.on_event(&mut host, &ev, 90, secs(1), &calib);
        assert_eq!(dmon.dead_horizon(secs(2)), secs(9));
        // … and a second peer, first heard later, cannot undercut it.
        let ev = mon_from(NodeId(2), mon, 0, 0);
        dmon.on_event(&mut host, &ev, 90, secs(3), &calib);
        assert_eq!(dmon.next_dead_deadline(), Some(secs(9)));

        // The cap follows the smallest bound in force.
        dmon.set_failure_bounds(SimDur::from_secs(1), SimDur::from_secs(2));
        assert_eq!(dmon.dead_horizon(SimTime::ZERO), secs(2));
        assert_eq!(dmon.dead_horizon(secs(2)), secs(3), "1 s + 2 s is due");

        // A Dead record has no deadline left to wait for.
        dmon.poll(&mut host, &dir, mon, ctl, secs(10), &calib);
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Dead));
        assert_eq!(dmon.peer_health(NodeId(2)), Some(PeerHealth::Dead));
        assert_eq!(dmon.dead_horizon(secs(10)), secs(12));
    }

    #[test]
    fn revive_forgets_pending_resyncs_and_keeps_the_bounds() {
        let mut d = Detector::new(SimDur::from_secs(1));
        d.pending_resync.push(NodeId(1));
        d.on_revive();
        assert!(d.pending_resync.is_empty());
        assert_eq!(
            d.dead_after,
            SimDur::from_secs(8),
            "the bounds are configuration"
        );
    }

    #[test]
    fn the_replay_log_keeps_what_a_blank_restart_needs() {
        let mut log = Vec::new();
        for text in [
            "nofilter",
            "filter { }",
            "period cpu 2",
            "and above cpu 0.5",
            "window cpu 5",
            "delta mem 0.1",
            "filter { int x = 0; }",
            "window cpu 3",
            "clear cpu",
            "and below mem 9",
        ] {
            let cmd = Command::parse(text).unwrap();
            record_deployment(&mut log, cmd, &cmd.to_msg());
        }
        let kept: Vec<_> = log.iter().map(|m| Command::of(m).unwrap()).collect();
        let want = [
            "delta mem 0.1",
            "filter { int x = 0; }",
            "window cpu 3",
            "clear cpu",
            "and below mem 9",
        ]
        .map(|t| Command::parse(t).unwrap());
        assert_eq!(kept, want);
        let cmd = Command::NoFilter;
        record_deployment(&mut log, cmd, &cmd.to_msg());
        assert_eq!(log.len(), 4, "nofilter removes the filter and is not kept");
    }
}
