//! The aggregation tier: a rack aggregator folds its members' latest
//! samples into one bounded per-metric digest and republishes it on the
//! spine digest channel; every spine subscriber files the digests it
//! receives under `/proc/cluster/rack<k>/`. Infrastructure overhead like
//! heartbeats — outside the workload Figs. 6–8 measure.

use std::fmt::Write;
use std::ops::Range;

use kecho::{ChannelId, DigestPayload, DigestRecord, Directory, Event};
use simcore::{SimDur, SimTime};
use simnet::NodeId;
use simos::{Host, ProcHandle};

use super::{intern_cluster_file, DMon, Outbound, PlannedSend};
use crate::calib::Calib;
use crate::peers::{INLINE_METRICS, SPILL_METRICS};

/// Summary files one `cluster/rack<k>/` directory holds at most.
const RACK_FILES: usize = INLINE_METRICS + SPILL_METRICS;

/// One metric's fold across a rack: `(min, max, sum, count, newest_ts)`.
type Fold = (f64, f64, f64, u32, f64);

/// The fold of no sample.
const EMPTY_FOLD: Fold = (f64::INFINITY, f64::NEG_INFINITY, 0.0, 0, f64::NEG_INFINITY);

#[derive(Default)]
pub(super) struct Digest {
    /// What this node keeps per rack it has received a digest for, by rack
    /// number: grown on first contact, so only spine subscribers hold
    /// rows.
    racks: Vec<RackRow>,
    /// The aggregator's fold, per metric id, and the records folded from
    /// it: scratch kept between polls, so a warm poll allocates nothing.
    acc: Vec<Fold>,
    records: Vec<DigestRecord>,
}

/// One rack's row at a spine subscriber.
#[derive(Default)]
struct RackRow {
    /// The latest digest received, at most `RACK_FILES` records of it,
    /// read through [`DMon::rack_digest`].
    latest: Option<DigestPayload>,
    /// Interned handle for `cluster/rack<k>/<file>` per metric id, in the
    /// order the ids first came: a rack directory holds as many files as
    /// one peer's row holds metrics, so at most `RACK_FILES` entries.
    files: Vec<(u32, Option<ProcHandle>)>,
}

/// The text of a rack summary file, from `[min bits, max bits, mean bits,
/// count, newest_ts bits]`.
pub(super) fn render_digest(rec: &[u64], out: &mut String) {
    let &[min, max, mean, count, newest_ts] = rec else {
        return;
    };
    let [min, max, mean, ts] = [min, max, mean, newest_ts].map(f64::from_bits);
    let _ = write!(
        out,
        "min {min} max {max} mean {mean} count {count} ts {ts:.3}"
    );
}

impl Digest {
    pub(super) fn on_revive(&mut self) {
        self.racks.iter_mut().for_each(|r| r.latest = None);
    }
}

impl DMon {
    /// The aggregator's polling step: fold this rack's latest member
    /// samples (own host included) and submit the digest to every
    /// digest-channel subscriber. Digests are summaries, not streams —
    /// no `stream_seq`, no credits, no outbox: a lost digest is simply
    /// superseded by the next one. Returns the planned sends plus the CPU
    /// cost to charge; `None` while no member has produced a sample yet.
    /// The send list is this d-mon's spare one: hand it back through
    /// [`DMon::recycle_sends`] after transmitting, and each payload's
    /// records come from the lent pool ([`kecho::take_digest_buf`]).
    pub fn poll_digest(
        &mut self,
        dir: &Directory,
        digest_chan: ChannelId,
        rack: u32,
        members: Range<usize>,
        skip: &[NodeId],
        calib: &Calib,
    ) -> Option<(Vec<PlannedSend>, SimDur)> {
        let node = self.node;
        let Digest { acc, records, .. } = &mut self.digest;
        acc.clear();
        acc.resize(self.sample.modules.len(), EMPTY_FOLD);
        let mut cpu = SimDur::ZERO;
        let mut member_count = 0u32;
        for m in members {
            let peer = self.peers.get(NodeId(m));
            let mut contributed = false;
            for (id, slot) in acc.iter_mut().enumerate() {
                let sample = if m == node.0 {
                    self.sample.own_latest.get(id).copied().flatten()
                } else {
                    peer.and_then(|p| p.remote_values.get(id as u32))
                };
                let Some((value, ts)) = sample else { continue };
                contributed = true;
                slot.0 = slot.0.min(value);
                slot.1 = slot.1.max(value);
                slot.2 += value;
                slot.3 += 1;
                slot.4 = slot.4.max(ts.as_secs_f64());
            }
            if contributed {
                member_count += 1;
            }
            // The fold reads the same per-member state a policy check
            // would; charge it at the policy-evaluation rate.
            cpu += calib.policy_eval;
        }
        records.clear();
        records.extend(
            acc.iter()
                .enumerate()
                .filter(|(_, a)| a.3 > 0)
                .map(|(id, a)| DigestRecord {
                    metric_id: id as u32,
                    min: a.0,
                    max: a.1,
                    mean: a.2 / f64::from(a.3),
                    count: a.3,
                    newest_ts: a.4,
                }),
        );
        if records.is_empty() {
            return None;
        }
        let sends = std::mem::take(&mut self.send_buf);
        let mut out = Outbound { sends, cpu };
        for sub in dir.subscribers(digest_chan) {
            // `skip` carries peers this same polling step just evicted:
            // the serial engine has already removed them from the
            // directory (the skip is a no-op there), while the parallel
            // mirror defers the directory write to effect replay — the
            // skip makes both read the same effective subscriber set.
            if sub == node || skip.contains(&sub) {
                continue;
            }
            let mut copy = kecho::take_digest_buf();
            copy.extend_from_slice(records);
            let payload = DigestPayload {
                rack,
                origin: node,
                members: member_count,
                records: copy,
            };
            self.seq += 1;
            let mut ev = Event::digest(digest_chan.0, self.seq, node, payload);
            // Digest consumers are enumerated per send (like monitoring
            // streams), so a node relaying the frame knows where it goes.
            ev.target = Some(sub);
            out.submit(calib, sub, ev);
            self.stats.digests_sent += 1;
        }
        if out.sends.is_empty() {
            self.send_buf = out.sends;
            return None;
        }
        Some((out.sends, out.cpu))
    }

    /// Handle an incoming rack digest: record freshness, refresh the
    /// `/proc/cluster/rack<k>/...` summary files, and keep what they show
    /// of the latest payload per rack for observability surfaces. Returns
    /// the handler CPU cost, which stays out of the Fig. 8 receive-cost
    /// sampler.
    pub fn on_digest(
        &mut self,
        host: &mut Host,
        ev: &Event,
        bytes: usize,
        now: SimTime,
        calib: &Calib,
    ) -> SimDur {
        let Some(payload) = ev.as_digest() else {
            return SimDur::ZERO;
        };
        // The rack is the sender's to name: a cluster has no more racks
        // than nodes, so a number beyond that names none and gets no row,
        // no directory and no kept payload.
        let rack = payload.rack;
        if rack as usize >= self.cluster_names.len() {
            self.receive.rejected += 1;
            return SimDur::ZERO;
        }
        self.stats.digests_received += 1;
        self.stats.digest_records += payload.records.len() as u64;
        let newest = payload
            .records
            .iter()
            .map(|r| r.newest_ts)
            .fold(f64::NEG_INFINITY, f64::max);
        if newest.is_finite() {
            self.stats
                .digest_staleness_s
                .add((now.as_secs_f64() - newest).max(0.0));
        }
        let racks = &mut self.digest.racks;
        if racks.len() <= rack as usize {
            racks.resize_with(rack as usize + 1, RackRow::default);
        }
        let row = &mut racks[rack as usize];
        // What is kept of the payload is one record per metric id the rack
        // directory has a file for, the last one the digest carried for it:
        // a valid digest, one record per id, is kept whole, and a peer's
        // record count costs nothing past `RACK_FILES`. The kept buffer is
        // reused, and sized as a copy of a valid digest would be.
        let cap = payload.records.len().min(RACK_FILES);
        let kept = row.latest.get_or_insert_with(|| DigestPayload {
            records: Vec::with_capacity(cap),
            ..*payload
        });
        (kept.origin, kept.members) = (payload.origin, payload.members);
        kept.records.clear();
        kept.records.reserve(cap);
        for r in &payload.records {
            let h = match row.files.iter().find(|f| f.0 == r.metric_id) {
                Some(&(_, h)) => h,
                // So are the metric ids: past `RACK_FILES` of them, a new
                // one gets no file.
                None if row.files.len() == RACK_FILES => {
                    self.receive.rejected += 1;
                    continue;
                }
                None => {
                    let file = self.sample.modules.get(r.metric_id as usize);
                    let file = file.map_or("extra", |m| m.file_name());
                    let rack_dir = format!("rack{rack}");
                    let h = intern_cluster_file(&mut host.proc, &rack_dir, file);
                    row.files.push((r.metric_id, h));
                    h
                }
            };
            let Some(h) = h else { continue };
            let words = [
                r.min.to_bits(),
                r.max.to_bits(),
                r.mean.to_bits(),
                u64::from(r.count),
                r.newest_ts.to_bits(),
            ];
            host.proc.set_record(h, render_digest, &words);
            match kept.records.iter_mut().find(|k| k.metric_id == r.metric_id) {
                Some(k) => *k = *r,
                None => kept.records.push(*r),
            }
        }
        calib.receive_cost(bytes)
    }

    /// The latest digest received for `rack`, if any.
    pub fn rack_digest(&self, rack: u32) -> Option<&DigestPayload> {
        self.digest.racks.get(rack as usize)?.latest.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;

    #[test]
    fn aggregator_folds_own_and_heard_samples_and_subscribers_file_them() {
        let (mut dmon, mut host, mon, calib) = racked();
        let mut dir = Directory::default();
        let dg = dir.open("dproc-digest");
        for n in [0, 3] {
            dir.subscribe(dg, NodeId(n));
        }
        let members = 0..3;
        let polled = dmon.poll_digest(&dir, dg, 0, members.clone(), &[], &calib);
        assert!(polled.is_none(), "nothing sampled or heard yet");

        // maui reports LOADAVG 1.0; this node's own LOADAVG is idle.
        let now = SimTime::from_secs(1);
        dmon.on_event(&mut host, &mon_from(NodeId(1), mon, 0, 0), 90, now, &calib);
        dmon.poll(&mut host, &dir, mon, ChannelId(1), now, &calib);
        let skipped = dmon.poll_digest(&dir, dg, 0, members.clone(), &[NodeId(3)], &calib);
        assert!(
            skipped.is_none(),
            "the only other subscriber was just evicted"
        );
        let (sends, cpu) = dmon.poll_digest(&dir, dg, 0, members, &[], &calib).unwrap();
        assert_eq!((sends.len(), dmon.stats.digests_sent), (1, 1));
        assert!(cpu > SimDur::ZERO);
        let (hop, ev, _) = &sends[0];
        assert_eq!((hop.to, ev.target), (NodeId(3), Some(NodeId(3))));
        let payload = ev.as_digest().unwrap();
        assert_eq!((payload.rack, payload.members), (0, 2));
        let load = payload.records[0];
        assert_eq!((load.metric_id, load.count), (0, 2));
        assert_eq!((load.min, load.max, load.mean), (0.0, 1.0, 0.5));

        // The receiving side: summary files under cluster/rack0/, the
        // payload kept per rack, staleness sampled; gone after a restart.
        let cost = dmon.on_digest(&mut host, ev, 200, SimTime::from_secs(2), &calib);
        assert!(cost > SimDur::ZERO);
        let text = host.proc.read("cluster/rack0/cpu").unwrap();
        assert!(
            text.starts_with("min 0 max 1 mean 0.5 count 2 ts "),
            "{text}"
        );
        assert_eq!(dmon.rack_digest(0), Some(payload));
        assert_eq!(dmon.stats.digests_received, 1);
        assert_eq!(dmon.stats.digest_records, payload.records.len() as u64);
        assert_eq!(dmon.stats.digest_staleness_s.len(), 1);
        dmon.on_revive();
        assert!(dmon.rack_digest(0).is_none());
    }
}
