//! Per-stream continuity tracking: sequence-gap and restart detection.
//!
//! Every (publisher, subscriber) pair carries a dense stream of
//! `stream_seq` numbers — monitoring events and heartbeats both occupy
//! slots — tagged with the publisher's `epoch` (incarnation). A
//! [`StreamTracker`] on the subscriber side folds each arrival into the
//! expected position and reports exactly which sequence numbers were
//! skipped. An epoch bump is a *restart*, not a gap: the publisher
//! crashed and came back, so expectations reset instead of charging the
//! whole lost tail as loss.

/// Hard cap on the gap ranges a tracker retains. A long partition proves
/// millions of sequence numbers lost; remembering them individually would
/// grow without bound, so the log keeps at most this many coalesced
/// `(first, last)` ranges and forgets the oldest beyond it. The exact
/// *count* of lost positions is always preserved in [`StreamTracker::gaps`].
pub const MAX_GAP_RANGES: usize = 32;

/// Whether stream position (or publisher epoch) `a` lies before `b`. Both
/// are compared in serial-number order (RFC 1982): the counter wraps at
/// `u32::MAX`, so a value up to 2^31 behind `b` is the past and anything
/// else is ahead.
fn precedes(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// What one arrival told us about the stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Observation {
    /// Sequence numbers proven lost, as an inclusive `(first, last)`
    /// range: everything between the last arrival and this one,
    /// exclusive (`first > last` when the run crosses the u32 wrap).
    /// `None` when the stream is contiguous. A gap is always
    /// one contiguous run, so this is O(1) memory no matter how long the
    /// outage was.
    pub missing: Option<(u32, u32)>,
    /// Exact number of lost positions in `missing` (`0` when contiguous).
    pub lost: u64,
    /// The publisher restarted (first contact in a new epoch). Missing
    /// numbers are never reported for a restart.
    pub restarted: bool,
    /// The arrival was from the past — a duplicate, a reordered
    /// straggler, or an old incarnation. It does not advance the stream.
    pub stale: bool,
    /// The arrival retroactively *cleared* a position previously counted
    /// lost: nothing in this protocol is ever retransmitted, so a
    /// same-epoch straggler below the expected position can only be an
    /// in-flight frame the tracker accused too eagerly (a priority-lane
    /// heartbeat outran it through a queued bulk lane). The loss counters
    /// have already been rolled back when this is set.
    pub healed: bool,
}

/// Continuity state for one incoming stream.
#[derive(Debug, Clone, Default)]
pub struct StreamTracker {
    /// Epoch of the last accepted arrival.
    epoch: u32,
    /// Next expected `stream_seq`; `None` before first contact.
    next: Option<u32>,
    /// Total sequence numbers proven lost so far.
    gaps: u64,
    /// Total restarts observed.
    restarts: u64,
    /// Recent lost ranges, inclusive, coalesced when adjacent and capped
    /// at [`MAX_GAP_RANGES`] (oldest forgotten first).
    gap_log: Vec<(u32, u32)>,
}

impl StreamTracker {
    /// A tracker that has heard nothing yet.
    #[must_use]
    pub fn new() -> Self {
        StreamTracker::default()
    }

    /// Fold in one arrival.
    pub fn observe(&mut self, epoch: u32, seq: u32) -> Observation {
        let mut obs = Observation::default();
        match self.next {
            None => {
                // First contact: adopt the stream wherever it is.
                self.epoch = epoch;
                self.next = Some(seq.wrapping_add(1));
            }
            Some(expected) => {
                if precedes(self.epoch, epoch) {
                    self.epoch = epoch;
                    self.next = Some(seq.wrapping_add(1));
                    self.restarts += 1;
                    obs.restarted = true;
                } else if precedes(epoch, self.epoch) || precedes(seq, expected) {
                    obs.stale = true;
                    if epoch == self.epoch && self.unlog_gap(seq) {
                        // A current-epoch straggler that fills a recorded
                        // gap: the frame was in flight, not lost. Without
                        // retransmission that is the only way a position
                        // can arrive twice, so rolling the count back
                        // keeps `gaps` exact under reordering.
                        self.gaps = self.gaps.saturating_sub(1);
                        obs.healed = true;
                    }
                } else {
                    if seq != expected {
                        let last = seq.wrapping_sub(1);
                        obs.missing = Some((expected, last));
                        obs.lost = u64::from(seq.wrapping_sub(expected));
                        self.gaps += obs.lost;
                        self.log_gap(expected, last);
                    }
                    self.next = Some(seq.wrapping_add(1));
                }
            }
        }
        obs
    }

    /// Forget the stream, as a tracker that has heard nothing yet, but
    /// keep the gap log's buffer: a node that restarts learns its streams
    /// again without allocating.
    pub fn reset(&mut self) {
        let mut gap_log = std::mem::take(&mut self.gap_log);
        gap_log.clear();
        *self = StreamTracker {
            gap_log,
            ..StreamTracker::default()
        };
    }

    /// Remove one position from the gap log (a straggler disproved the
    /// accusation). Returns whether the position was found. Splitting a
    /// range adds one, so at the cap the oldest goes first: evicting after
    /// the insert would grow the log past its capacity for a moment.
    fn unlog_gap(&mut self, seq: u32) -> bool {
        let Some(mut i) = self
            .gap_log
            .iter()
            .position(|&(first, last)| first <= seq && seq <= last)
        else {
            return false;
        };
        let (first, last) = self.gap_log[i];
        match (seq == first, seq == last) {
            (true, true) => {
                self.gap_log.remove(i);
            }
            (true, false) => self.gap_log[i].0 = seq + 1,
            (false, true) => self.gap_log[i].1 = seq - 1,
            (false, false) => {
                if self.gap_log.len() == MAX_GAP_RANGES {
                    if i == 0 {
                        // The oldest range is the one split: only its
                        // newer half stays.
                        self.gap_log[0].0 = seq + 1;
                        return true;
                    }
                    self.gap_log.remove(0);
                    i -= 1;
                }
                self.gap_log[i].1 = seq - 1;
                self.gap_log.insert(i + 1, (seq + 1, last));
            }
        }
        true
    }

    /// Append a lost range to the bounded log, coalescing with the
    /// previous entry when contiguous.
    fn log_gap(&mut self, first: u32, last: u32) {
        if first > last {
            // The run crosses the u32 wrap: log it as two plain ranges so
            // `unlog_gap`'s `first <= seq <= last` test stays valid.
            self.log_gap(first, u32::MAX);
            return self.log_gap(0, last);
        }
        if let Some(tail) = self.gap_log.last_mut() {
            if tail.1.checked_add(1) == Some(first) {
                tail.1 = last;
                return;
            }
        }
        if self.gap_log.len() == MAX_GAP_RANGES {
            self.gap_log.remove(0);
        }
        self.gap_log.push((first, last));
    }

    /// Recent lost ranges, inclusive, oldest first — at most
    /// [`MAX_GAP_RANGES`] entries.
    #[must_use]
    pub fn gap_ranges(&self) -> &[(u32, u32)] {
        &self.gap_log
    }

    /// Has this stream ever delivered?
    #[must_use]
    pub fn contacted(&self) -> bool {
        self.next.is_some()
    }

    /// Epoch of the last accepted arrival.
    #[must_use]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Total sequence numbers proven lost.
    #[must_use]
    pub fn gaps(&self) -> u64 {
        self.gaps
    }

    /// Total publisher restarts observed.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_stream_reports_nothing() {
        let mut t = StreamTracker::new();
        for seq in 0..100 {
            let obs = t.observe(0, seq);
            assert_eq!(obs, Observation::default(), "seq {seq}");
        }
        assert_eq!(t.gaps(), 0);
    }

    #[test]
    fn first_contact_mid_stream_is_not_a_gap() {
        let mut t = StreamTracker::new();
        let obs = t.observe(3, 500);
        assert!(obs.missing.is_none());
        assert!(!obs.restarted);
        assert_eq!(t.observe(3, 501), Observation::default());
    }

    #[test]
    fn skip_reports_exact_missing_range() {
        let mut t = StreamTracker::new();
        t.observe(0, 0);
        let obs = t.observe(0, 5);
        assert_eq!(obs.missing, Some((1, 4)));
        assert_eq!(obs.lost, 4);
        assert_eq!(t.gaps(), 4);
        assert_eq!(t.gap_ranges(), &[(1, 4)]);
        assert_eq!(t.observe(0, 6), Observation::default());
    }

    #[test]
    fn epoch_bump_resets_without_charging_gaps() {
        let mut t = StreamTracker::new();
        t.observe(0, 40);
        t.observe(0, 41);
        let obs = t.observe(1, 0);
        assert!(obs.restarted);
        assert!(obs.missing.is_none());
        assert_eq!(t.gaps(), 0);
        assert_eq!(t.restarts(), 1);
        assert_eq!(t.observe(1, 1), Observation::default());
    }

    #[test]
    fn epochs_compare_in_serial_order_across_the_wrap() {
        // A publisher restarting its way over the u32 wrap: each new
        // incarnation is a restart, never a gap, and a straggler from the
        // incarnation before it is the past, on either side of the wrap.
        let mut t = StreamTracker::new();
        let first = u32::MAX - 1;
        t.observe(first, 7);
        t.observe(first, 8);
        let mut old = first;
        for (restarts, epoch) in [u32::MAX, 0, 1].into_iter().enumerate() {
            let obs = t.observe(epoch, 0);
            assert!(obs.restarted && obs.missing.is_none(), "epoch {epoch}");
            assert_eq!(t.restarts(), restarts as u64 + 1);
            let straggler = t.observe(old, 9);
            assert!(straggler.stale && !straggler.restarted, "epoch {old}");
            assert!(!straggler.healed && straggler.missing.is_none());
            assert_eq!(t.observe(epoch, 1), Observation::default());
            old = epoch;
        }
        assert_eq!(t.gaps(), 0);
    }

    #[test]
    fn long_outage_is_one_range_and_an_exact_count() {
        // A partition that destroys a million stream positions must not
        // materialize a million-entry report.
        let mut t = StreamTracker::new();
        t.observe(0, 0);
        let obs = t.observe(0, 1_000_001);
        assert_eq!(obs.missing, Some((1, 1_000_000)));
        assert_eq!(obs.lost, 1_000_000);
        assert_eq!(t.gaps(), 1_000_000);
        assert_eq!(t.gap_ranges().len(), 1);
    }

    #[test]
    fn adjacent_gaps_coalesce_in_the_log() {
        let mut t = StreamTracker::new();
        t.observe(0, 0);
        t.observe(0, 3); // lost 1-2
                         // 3 arrived; 4 lost; 5 arrives -> range (4,4), adjacent to nothing.
        t.observe(0, 5);
        // 6 lost; 7 arrives -> (6,6): NOT adjacent to (4,4) (5 arrived).
        t.observe(0, 7);
        assert_eq!(t.gap_ranges(), &[(1, 2), (4, 4), (6, 6)]);
        assert_eq!(t.gaps(), 4);
    }

    #[test]
    fn gap_log_is_hard_capped() {
        let mut t = StreamTracker::new();
        t.observe(0, 0);
        // Every second position lost: each makes its own range.
        let mut seq = 0u32;
        for _ in 0..(MAX_GAP_RANGES as u32 + 10) {
            seq += 2;
            t.observe(0, seq);
        }
        assert_eq!(t.gap_ranges().len(), MAX_GAP_RANGES, "log capped");
        assert_eq!(t.gaps(), u64::from(seq) / 2, "exact count survives the cap");
        // Oldest ranges were forgotten; the newest is the last gap.
        assert_eq!(*t.gap_ranges().last().unwrap(), (seq - 1, seq - 1));
    }

    /// The gap log as `unlog_gap` kept it when it split a range before
    /// enforcing the cap: what the capped log must still hold.
    fn unlog_reference(log: &mut Vec<(u32, u32)>, seq: u32) {
        let Some(i) = log.iter().position(|&(f, l)| f <= seq && seq <= l) else {
            return;
        };
        let (first, last) = log[i];
        match (seq == first, seq == last) {
            (true, true) => drop(log.remove(i)),
            (true, false) => log[i].0 = seq + 1,
            (false, true) => log[i].1 = seq - 1,
            (false, false) => {
                log[i].1 = seq - 1;
                log.insert(i + 1, (seq + 1, last));
                if log.len() > MAX_GAP_RANGES {
                    log.remove(0);
                }
            }
        }
    }

    #[test]
    fn gap_and_straggler_churn_keeps_the_log_within_its_cap_and_its_buffer() {
        let mut rng = simcore::rng::SimRng::seed_from_u64(34);
        let mut t = StreamTracker::new();
        let mut reference: Vec<(u32, u32)> = Vec::new();
        let (mut seq, mut full_cap, mut splits_at_cap) = (0u32, None, 0);
        t.observe(0, seq);
        for _ in 0..20_000 {
            if rng.chance(0.5) || t.gap_ranges().is_empty() {
                // Lose 0 to 5 positions, then deliver one.
                let skip = rng.below(6) as u32;
                let (first, last) = (seq + 1, seq + skip);
                seq += skip + 1;
                t.observe(0, seq);
                if skip > 0 {
                    match reference.last_mut() {
                        Some(tail) if tail.1 + 1 == first => tail.1 = last,
                        _ => {
                            if reference.len() == MAX_GAP_RANGES {
                                reference.remove(0);
                            }
                            reference.push((first, last));
                        }
                    }
                }
            } else {
                // A straggler from inside some logged range.
                let ranges = t.gap_ranges();
                let (first, last) = ranges[rng.below(ranges.len() as u64) as usize];
                let late = rng.range_u64(u64::from(first), u64::from(last)) as u32;
                if ranges.len() == MAX_GAP_RANGES && first < late && late < last {
                    splits_at_cap += 1;
                }
                assert!(t.observe(0, late).healed);
                unlog_reference(&mut reference, late);
            }
            assert_eq!(t.gap_ranges(), &reference[..]);
            assert!(t.gap_ranges().len() <= MAX_GAP_RANGES);
            let cap = t.gap_log.capacity();
            if t.gap_ranges().len() == MAX_GAP_RANGES {
                assert_eq!(*full_cap.get_or_insert(cap), cap, "the log's buffer moved");
            }
            if let Some(full) = full_cap {
                assert_eq!(cap, full, "the log's buffer moved");
            }
        }
        assert!(
            splits_at_cap > 100,
            "{splits_at_cap} splits at the cap — vacuous"
        );
    }

    #[test]
    fn a_reset_tracker_starts_over_in_the_same_buffer() {
        let mut t = StreamTracker::new();
        t.observe(0, 0);
        for seq in (2..2 * MAX_GAP_RANGES as u32 + 2).step_by(2) {
            t.observe(0, seq);
        }
        let cap = t.gap_log.capacity();
        t.reset();
        assert!(!t.contacted() && t.gap_ranges().is_empty());
        assert_eq!((t.gaps(), t.restarts(), t.epoch()), (0, 0, 0));
        assert_eq!(t.gap_log.capacity(), cap);
        // First contact again, anywhere.
        assert_eq!(t.observe(5, 900), Observation::default());
    }

    #[test]
    fn stragglers_and_old_epochs_are_stale() {
        let mut t = StreamTracker::new();
        t.observe(1, 10);
        assert!(t.observe(1, 10).stale, "duplicate");
        assert!(t.observe(1, 4).stale, "reordered straggler");
        assert!(t.observe(0, 99).stale, "old incarnation");
        // None of that moved the stream.
        assert_eq!(t.observe(1, 11), Observation::default());
    }

    #[test]
    fn late_straggler_heals_a_false_loss_accusation() {
        let mut t = StreamTracker::new();
        t.observe(0, 0);
        // Positions 1-3 skipped — accused lost.
        assert_eq!(t.observe(0, 4).lost, 3);
        assert_eq!(t.gaps(), 3);
        // Position 2 limps in late (it was queued, not dropped): the
        // count rolls back and the range splits around it.
        let obs = t.observe(0, 2);
        assert!(obs.stale && obs.healed);
        assert_eq!(t.gaps(), 2);
        assert_eq!(t.gap_ranges(), &[(1, 1), (3, 3)]);
        // Healing the remaining endpoints empties the log.
        assert!(t.observe(0, 1).healed);
        assert!(t.observe(0, 3).healed);
        assert_eq!(t.gaps(), 0);
        assert!(t.gap_ranges().is_empty());
        // A genuine duplicate of an arrived position heals nothing.
        let dup = t.observe(0, 2);
        assert!(dup.stale && !dup.healed);
        // An old-epoch straggler never heals a current-epoch gap.
        t.observe(1, 0);
        t.observe(1, 3); // epoch 1, lost 1-2
        assert!(!t.observe(0, 1).healed, "old incarnation cannot heal");
        assert_eq!(t.gaps(), 2);
    }

    #[test]
    fn a_gap_across_the_u32_wrap_is_a_gap_not_the_past() {
        let mut t = StreamTracker::new();
        t.observe(0, u32::MAX - 1);
        // u32::MAX and 0 are lost; 1 arrives "below" the expected
        // position numerically but ahead of it on the stream.
        let obs = t.observe(0, 1);
        assert!(!obs.stale && !obs.restarted);
        assert_eq!((obs.missing, obs.lost), (Some((u32::MAX, 0)), 2));
        assert_eq!(t.gap_ranges(), &[(u32::MAX, u32::MAX), (0, 0)]);
        // Either side of the wrap heals like any other straggler, and a
        // duplicate from before the wrap is still the past.
        assert!(t.observe(0, 0).healed);
        assert!(t.observe(0, u32::MAX).healed);
        let dup = t.observe(0, u32::MAX - 1);
        assert!(dup.stale && !dup.healed);
        assert_eq!((t.gaps(), t.restarts()), (0, 0));
        assert_eq!(t.observe(0, 2), Observation::default());
    }
}
