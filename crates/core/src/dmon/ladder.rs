//! The degradation ladder: sustained credit stalls step this node down
//! one level at a time (stretch the update period → coarsen thresholds →
//! drop low-priority modules → summary-only digest); stepping back up
//! needs a hysteresis run of clear polls AND fully drained outboxes, so a
//! borderline load cannot flap the level. The overload half of Figs. 6–7's
//! submit cost; published at `cluster/<own>/overload`.

use std::fmt::Write;

use kecho::MonRecord;
use simos::{Host, ProcHandle};

use super::{cluster_file, DMon, DmonStats};

/// Data-plane stretch multiplier per degradation-ladder level: at level
/// `L` a node builds data events only every `LADDER_STRETCH[L]`-th poll.
/// Heartbeats and control traffic are never stretched.
const LADDER_STRETCH: [u64; 5] = [1, 2, 2, 4, 4];

/// Highest ladder level (summary-only digest).
const LADDER_TOP: u8 = 4;

/// Consecutive stalled polls before the ladder steps down one level.
const LADDER_DOWN_AFTER: u32 = 3;

/// Consecutive clear polls (and drained outboxes) before the ladder
/// steps back up one level.
const LADDER_UP_AFTER: u32 = 5;

/// Relative-change gate applied to records at ladder level 2 and above:
/// a sample within this fraction of the last value sent is coarsened
/// away.
const LADDER_DELTA_GATE: f64 = 0.10;

#[derive(Default)]
pub(super) struct Ladder {
    /// Degradation-ladder level (0 = full fidelity .. [`LADDER_TOP`]).
    level: u8,
    /// Consecutive polls with a credit-stalled subscriber.
    stall_run: u32,
    /// Consecutive polls with no stalled subscriber.
    clear_run: u32,
    /// Whether this node's own uplink queue tail-dropped any frame since
    /// the previous poll; [`Ladder::step`] counts such a poll as stalled.
    pub(super) wire_dropped: bool,
    /// Interned handle for `cluster/<own>/overload`.
    overload_handle: Option<ProcHandle>,
}

impl DMon {
    /// Current degradation-ladder level (0 = full fidelity, 4 =
    /// summary-only digest).
    pub fn ladder_level(&self) -> u8 {
        self.ladder.level
    }
}

impl Ladder {
    /// A restarted node is back at full fidelity.
    pub(super) fn on_revive(&mut self) {
        *self = Ladder {
            overload_handle: self.overload_handle,
            ..Ladder::default()
        };
    }

    /// Whether the poll after `iterations` completed ones builds data
    /// events at this level, or is stretched away.
    pub(super) fn data_poll(&self, iterations: u64) -> bool {
        iterations.is_multiple_of(LADDER_STRETCH[self.level as usize])
    }

    /// Whether a decided record is still sent at this level. Levels 2+
    /// coarsen: only meaningfully-changed samples survive. Levels 3+ shed
    /// low-priority modules entirely; the top level keeps a single-metric
    /// digest.
    #[inline]
    pub(super) fn keeps(&self, r: &MonRecord) -> bool {
        let modules = match self.level {
            0..=2 => u32::MAX,
            3 => 2,
            _ => 1,
        };
        r.metric_id < modules
            && (self.level < 2
                || (r.value - r.last_value_sent).abs()
                    > LADDER_DELTA_GATE * r.last_value_sent.abs())
    }

    /// Close one poll: `stalled` says a subscriber's stream stayed
    /// parked, `outboxes_empty` that every outbox drained. A poll marred
    /// by a local uplink tail-drop counts as stalled whatever the outboxes
    /// say: the NIC is refusing this node's own output, while grant
    /// trickle can hold the credit windows half-open for many polls.
    pub(super) fn step(&mut self, stalled: bool, outboxes_empty: bool, stats: &mut DmonStats) {
        if stalled || std::mem::take(&mut self.wire_dropped) {
            self.stall_run += 1;
            self.clear_run = 0;
        } else {
            self.clear_run += 1;
            self.stall_run = 0;
        }
        if self.stall_run >= LADDER_DOWN_AFTER && self.level < LADDER_TOP {
            self.level += 1;
            stats.ladder_transitions += 1;
            self.stall_run = 0;
        }
        if self.clear_run >= LADDER_UP_AFTER && self.level > 0 && outboxes_empty {
            self.level -= 1;
            stats.ladder_transitions += 1;
            self.clear_run = 0;
        }
    }

    /// Refresh `cluster/<own>/overload`.
    pub(super) fn publish(&mut self, host: &mut Host, own: &str, stats: &DmonStats) {
        let slot = &mut self.overload_handle;
        let Some(h) = cluster_file(slot, &mut host.proc, own, "overload") else {
            return;
        };
        let words = [
            u64::from(self.level),
            stats.events_shed,
            stats.credits_stalled,
            stats.ladder_transitions,
        ];
        host.proc.set_record(h, render_overload, &words);
    }
}

/// The text of an `overload` file.
pub(super) fn render_overload(rec: &[u64], out: &mut String) {
    let &[level, shed, stalled, transitions] = rec else {
        return;
    };
    let _ = write!(
        out,
        "level {level} events_shed {shed} credits_stalled {stalled} \
         ladder_transitions {transitions}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn polls(l: &mut Ladder, n: u32, stalled: bool, drained: bool, stats: &mut DmonStats) {
        for _ in 0..n {
            l.step(stalled, drained, stats);
        }
    }

    #[test]
    fn three_stalled_polls_step_down_and_the_level_caps_at_four() {
        let (mut l, mut stats) = (Ladder::default(), DmonStats::default());
        polls(&mut l, 2, true, false, &mut stats);
        assert_eq!(l.level, 0, "two stalls are not yet sustained");
        polls(&mut l, 1, true, false, &mut stats);
        assert_eq!((l.level, stats.ladder_transitions), (1, 1));
        // A clear poll in between restarts the run.
        polls(&mut l, 2, true, false, &mut stats);
        polls(&mut l, 1, false, false, &mut stats);
        polls(&mut l, 2, true, false, &mut stats);
        assert_eq!(l.level, 1);
        polls(&mut l, 30, true, false, &mut stats);
        assert_eq!(l.level, LADDER_TOP, "the top rung is the last");
        assert_eq!(stats.ladder_transitions, u64::from(LADDER_TOP));
    }

    #[test]
    fn five_clear_polls_and_empty_outboxes_step_up() {
        let (mut l, mut stats) = (Ladder::default(), DmonStats::default());
        polls(&mut l, 6, true, false, &mut stats);
        assert_eq!(l.level, 2);
        // Clear polls alone are not enough while a backlog remains...
        polls(&mut l, 20, false, false, &mut stats);
        assert_eq!(l.level, 2);
        // ...and the poll the outboxes drain on steps up at once: the
        // clear run was already long enough.
        polls(&mut l, 1, false, true, &mut stats);
        assert_eq!(l.level, 1);
        polls(&mut l, 4, false, true, &mut stats);
        assert_eq!(l.level, 1, "a fresh run of five is needed per rung");
        polls(&mut l, 1, false, true, &mut stats);
        assert_eq!((l.level, stats.ladder_transitions), (0, 4));
        polls(&mut l, 10, false, true, &mut stats);
        assert_eq!((l.level, stats.ladder_transitions), (0, 4));
    }

    #[test]
    fn a_wire_drop_counts_as_a_stall_once() {
        let (mut l, mut stats) = (Ladder::default(), DmonStats::default());
        for _ in 0..3 {
            l.wire_dropped = true;
            l.step(false, true, &mut stats);
        }
        assert_eq!(l.level, 1, "three drop-marred polls step down");
        // The mark is consumed by the poll that saw it.
        polls(&mut l, 5, false, true, &mut stats);
        assert_eq!(l.level, 0);
    }

    #[test]
    fn stretch_and_coarsening_follow_the_level() {
        let (mut l, mut stats) = (Ladder::default(), DmonStats::default());
        let rec = |metric_id, value, last_value_sent| MonRecord {
            metric_id,
            value,
            last_value_sent,
            timestamp: 0.0,
        };
        // Metric 0 moved 50 %, metric 1 moved 5 %, metrics 2 and 3 moved
        // 100 %.
        let all = vec![
            rec(0, 1.5, 1.0),
            rec(1, 1.05, 1.0),
            rec(2, 2.0, 1.0),
            rec(3, 2.0, 1.0),
        ];
        // The reference: the two rules as `retain` passes over a vector.
        let coarsened = |level: u8| {
            let mut r = all.clone();
            if level >= 2 {
                r.retain(|r| {
                    (r.value - r.last_value_sent).abs()
                        > LADDER_DELTA_GATE * r.last_value_sent.abs()
                });
            }
            if level >= 3 {
                let keep = if level >= LADDER_TOP { 1 } else { 2 };
                r.retain(|r| (r.metric_id as usize) < keep);
            }
            r
        };
        let kept = |l: &Ladder| {
            let r: Vec<_> = all.iter().copied().filter(|r| l.keeps(r)).collect();
            assert_eq!(r, coarsened(l.level), "level {}", l.level);
            r.iter().map(|r| r.metric_id).collect::<Vec<_>>()
        };
        let data_polls = |l: &Ladder| (0..4).filter(|&i| l.data_poll(i)).count();
        assert_eq!((kept(&l), data_polls(&l)), (vec![0, 1, 2, 3], 4));
        polls(&mut l, 3, true, false, &mut stats);
        assert_eq!((kept(&l), data_polls(&l)), (vec![0, 1, 2, 3], 2));
        polls(&mut l, 3, true, false, &mut stats);
        assert_eq!((kept(&l), data_polls(&l)), (vec![0, 2, 3], 2));
        polls(&mut l, 3, true, false, &mut stats);
        assert_eq!((kept(&l), data_polls(&l)), (vec![0], 1));
        polls(&mut l, 3, true, false, &mut stats);
        assert_eq!((kept(&l), data_polls(&l)), (vec![0], 1));
    }

    #[test]
    fn revive_resets_the_ladder_and_keeps_the_interned_path() {
        let (mut l, mut stats) = (Ladder::default(), DmonStats::default());
        l.overload_handle = simos::ProcFs::new().intern("cluster/a/overload").ok();
        polls(&mut l, 4, true, false, &mut stats);
        l.wire_dropped = true;
        assert_eq!((l.level, l.stall_run), (1, 1));
        l.on_revive();
        assert_eq!((l.level, l.stall_run, l.clear_run), (0, 0, 0));
        assert!(!l.wire_dropped && l.overload_handle.is_some());
    }
}
