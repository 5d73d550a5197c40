//! Credit-based flow control for (publisher, subscriber) streams.
//!
//! Subscribers grant a publisher the right to send monitoring events in
//! units of *credits*: one credit per data event. A stream starts with
//! [`INITIAL_CREDITS`]. The subscriber owes a credit back for every data
//! frame it absorbs and for every frame a stream gap proves lost (it spent
//! a credit but consumed no receive capacity), and returns what it owes by
//! advancing one *cumulative* counter per publisher ([`GrantCounter`],
//! mod 256, never resting on 0). Two carriers send the counter's current
//! value: the one-byte piggyback on every reverse-direction data frame,
//! and a standalone `ControlMsg::Credit` once a quarter window
//! ([`GRANT_THRESHOLD`]) is owed or the publisher's stream has gone quiet.
//! The publisher applies one rule to both ([`CreditWindow::accept`]): a
//! counter 1–127 ahead of the last one it took, in serial-number order
//! (RFC 1982), grants the difference; any other value is stale or a
//! duplicate and grants nothing. A lost carrier is therefore superseded by
//! the next one on either path, as TCP's cumulative window updates are,
//! and a healed path re-inflates to a full window instead of limping on a
//! deflated one.
//!
//! When a subscriber stalls — its link saturated, its host overloaded, or
//! the node gone — the grants stop, the publisher's window drains to zero,
//! and new events park in a bounded per-subscriber outbox instead of the
//! network. When the outbox overflows, the *oldest* event is shed (newest
//! data is most valuable to a monitor). Heartbeats and control frames
//! never consume credits, so liveness detection and reconfiguration keep
//! working no matter how congested the data plane is.
//!
//! Everything here is pure bookkeeping: callers decide when to consult
//! the window and what to do with a shed event, so the policy stays
//! deterministic and replay-safe.

/// Credits a fresh stream starts with (and the grant target the
/// subscriber tops the window back up to).
pub const INITIAL_CREDITS: u32 = 16;

/// A subscriber sends a standalone grant once it owes this many credits
/// (a quarter window, so the publisher never stalls on a healthy path and
/// a starved one learns quickly).
pub const GRANT_THRESHOLD: u32 = 4;

/// Unacknowledged spend at which the publisher treats a grant as overdue
/// and starts pairing its data events with priority-lane heartbeats.
/// Healthy streams never get here: a grant arrives after every
/// [`GRANT_THRESHOLD`] absorbed events, so unacked spend peaks around
/// `GRANT_THRESHOLD` plus a round-trip of polls (~6) — the bound sits
/// just above that peak, because tripping it on a healthy stream wastes
/// bandwidth on heartbeats whose priority-lane overtakes the gap tracker
/// then has to heal. A stream whose frames are silently dying in the
/// network blows past it — and the heartbeats keep the publisher's
/// liveness visible (and trigger the subscriber's gap accounting) even
/// though its data never arrives. Must stay below the failure detector's
/// dead bound (eight polls) minus the heartbeat delivery delay, or an
/// overloaded-but-alive publisher gets evicted.
pub const GRANT_OVERDUE: u32 = 7;

/// Maximum events parked in a publisher's per-subscriber outbox while
/// credits are stalled; beyond this the oldest event is shed.
pub const OUTBOX_CAP: usize = 32;

/// Publisher-side credit window for one (publisher, subscriber) stream.
/// The default window is full.
#[derive(Debug, Clone, Default)]
pub struct CreditWindow {
    /// Credits spent and not yet granted back; the window holds
    /// [`INITIAL_CREDITS`] less these.
    spent: u32,
    /// The last grant counter taken from the subscriber; 0 until one is.
    seen: u8,
}

impl CreditWindow {
    /// Credits currently available.
    #[must_use]
    pub fn available(&self) -> u32 {
        INITIAL_CREDITS - self.spent
    }

    /// Consume one credit for a data event; `false` (and no change) when
    /// the window is empty — the caller must park or shed the event.
    pub fn try_consume(&mut self) -> bool {
        if self.spent == INITIAL_CREDITS {
            return false;
        }
        self.spent += 1;
        true
    }

    /// Whether a grant is overdue for the spend already committed: past
    /// [`GRANT_OVERDUE`] the subscriber has gone quiet on a stream we are
    /// still feeding — almost certainly loss, not absorption.
    #[must_use]
    pub fn grant_overdue(&self) -> bool {
        self.spent >= GRANT_OVERDUE
    }

    /// Take a grant counter from either carrier. A counter 1–127 ahead of
    /// the last one taken, in serial-number order, grants the difference;
    /// anything else — 0 ("no grant info"), a duplicate, a reordered
    /// straggler, a value no byte holds — grants nothing. A window that
    /// has taken no counter yet (a fresh stream, or a subscriber that
    /// restarted) takes the first one whatever its value, read against 0:
    /// the subscriber's counter may have run on from before. The window
    /// never grows past [`INITIAL_CREDITS`]. Returns whether anything was
    /// granted.
    #[inline]
    pub fn accept(&mut self, cum: u32) -> bool {
        let Ok(cum @ 1..) = u8::try_from(cum) else {
            return false;
        };
        let ahead = cum.wrapping_sub(self.seen);
        if self.seen != 0 && (ahead as i8) <= 0 {
            return false;
        }
        self.seen = cum;
        self.spent = self.spent.saturating_sub(u32::from(ahead));
        true
    }
}

/// Subscriber-side grant state for one (publisher, subscriber) stream:
/// the credits owed to the publisher and the cumulative counter that
/// returns them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrantCounter {
    /// Credits owed and not yet folded into the counter, never more than a
    /// window: the publisher cannot have more outstanding, so any excess
    /// is lost heartbeats a gap counted (they share the stream numbering).
    owed: u8,
    /// Credits returned so far, mod 256. It never rests on 0, which on the
    /// wire means "no grant info".
    cum: u8,
}

impl GrantCounter {
    /// Owe the publisher `credits` more: frames absorbed or proven lost.
    #[inline]
    pub fn owe(&mut self, credits: u64) {
        let owed = u64::from(self.owed).saturating_add(credits);
        self.owed = owed.min(u64::from(INITIAL_CREDITS)) as u8;
    }

    /// A straggler disproved a loss already owed for: owe one credit less.
    pub fn retract(&mut self) {
        self.owed = self.owed.saturating_sub(1);
    }

    /// Credits owed and not yet folded into the counter.
    #[must_use]
    pub fn owed(&self) -> u32 {
        u32::from(self.owed)
    }

    /// The counter's current value, as a carrier sends it.
    #[must_use]
    pub fn value(&self) -> u32 {
        u32::from(self.cum)
    }

    /// Fold everything owed into the counter; its new value, or `None`
    /// when it did not move. A fold that would land on 0 leaves one credit
    /// owed for the next.
    #[inline]
    pub fn fold(&mut self) -> Option<u32> {
        let mut step = self.owed;
        if self.cum.wrapping_add(step) == 0 {
            step = step.saturating_sub(1);
        }
        if step == 0 {
            return None;
        }
        self.cum = self.cum.wrapping_add(step);
        self.owed -= step;
        Some(self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_starts_full_and_drains() {
        let mut w = CreditWindow::default();
        assert_eq!(w.available(), INITIAL_CREDITS);
        for _ in 0..INITIAL_CREDITS {
            assert!(w.try_consume());
        }
        assert_eq!(w.available(), 0);
        assert!(!w.try_consume(), "empty window refuses");
        assert_eq!(w.available(), 0, "a refusal changes nothing");
    }

    #[test]
    fn grants_replenish_but_never_overfill() {
        let mut w = CreditWindow::default();
        for _ in 0..10 {
            assert!(w.try_consume());
        }
        assert!(w.accept(GRANT_THRESHOLD));
        assert_eq!(w.available(), INITIAL_CREDITS - 10 + GRANT_THRESHOLD);
        // A flood of grants caps at the initial window.
        assert!(w.accept(GRANT_THRESHOLD + 100));
        assert_eq!(w.available(), INITIAL_CREDITS);
        assert!(w.accept(GRANT_THRESHOLD + 200));
        assert_eq!(w.available(), INITIAL_CREDITS);
        // The capped credits are not banked: the next spend comes out of
        // the capped window.
        assert!(w.try_consume());
        assert_eq!(w.available(), INITIAL_CREDITS - 1);
    }

    #[test]
    fn unacked_spend_flags_an_overdue_grant() {
        let mut w = CreditWindow::default();
        for _ in 0..GRANT_OVERDUE - 1 {
            assert!(w.try_consume());
            assert!(!w.grant_overdue());
        }
        assert!(w.try_consume());
        assert!(w.grant_overdue(), "overdue once the threshold is spent");
        // A grant for what was spent clears it.
        assert!(w.accept(GRANT_OVERDUE));
        assert!(!w.grant_overdue());
        assert_eq!(w.available(), INITIAL_CREDITS);
    }

    /// Spend `n` credits of `w`.
    fn spend(w: &mut CreditWindow, n: u32) {
        for _ in 0..n {
            assert!(w.try_consume());
        }
    }

    #[test]
    fn a_dropped_grant_is_superseded_by_the_next_counter_on_either_carrier() {
        // Three grants, each for four absorbed frames, and the carrier of
        // one of them is lost. Both carriers — the piggyback byte and the
        // standalone `Credit` — send the counter's value after a fold.
        for dropped in 0..3 {
            let (mut sub, mut publ) = (GrantCounter::default(), CreditWindow::default());
            spend(&mut publ, 12);
            for k in 0..3 {
                sub.owe(4);
                let cum = sub.fold().expect("the counter moved");
                if k != dropped {
                    assert!(publ.accept(cum), "dropped {dropped}, grant {k}");
                }
            }
            // Whatever comes next re-delivers the lost grant: a later
            // grant, or a reverse data frame, which carries the value
            // even when nothing new is owed.
            let _ = publ.accept(sub.value());
            let state = (publ.available(), sub.owed());
            assert_eq!(state, (INITIAL_CREDITS, 0), "dropped {dropped}");
        }
    }

    #[test]
    fn a_stale_or_duplicate_counter_grants_nothing() {
        let mut w = CreditWindow::default();
        spend(&mut w, INITIAL_CREDITS);
        assert!(w.accept(12), "a fresh window takes its first counter");
        assert_eq!(w.available(), 12);
        // A duplicate, a reordered straggler (one step or 127 behind), 0
        // ("no grant info") and a value no byte holds move nothing.
        for cum in [12, 11, 12 + 129, 0, 256 + 13, u32::MAX] {
            assert!(!w.accept(cum), "{cum}");
            assert_eq!(w.available(), 12, "{cum}");
        }
        // 127 ahead is the far edge of the future; 128 is the past.
        spend(&mut w, 10);
        assert!(w.accept(12 + 127));
        assert!(!w.accept(12 + 127 + 128 - 256));
        assert_eq!(w.available(), INITIAL_CREDITS);
        // A fresh window (a new stream, or one whose subscriber restarted
        // with a counter of its own) reads its first counter against 0,
        // whatever its value.
        let mut fresh = CreditWindow::default();
        spend(&mut fresh, 3);
        assert!(fresh.accept(200));
        assert_eq!(fresh.available(), INITIAL_CREDITS);
    }

    #[test]
    fn the_counter_wraps_255_to_1_without_resting_on_0_or_losing_a_credit() {
        // The counter and the cursor start a few steps below the wrap.
        let mut sub = GrantCounter { owed: 0, cum: 250 };
        let mut publ = CreditWindow::default();
        assert!(publ.accept(250));
        let mut carried = Vec::new();
        for frame in 0..6u64 {
            // The publisher spends three credits; the subscriber absorbs
            // three frames and owes three credits on its next carrier.
            spend(&mut publ, 3);
            sub.owe(3);
            let cum = sub.fold().expect("the counter moved");
            assert_ne!(cum, 0, "0 on the wire means no grant info");
            carried.push(cum);
            // 253 + 3 would land on 0: one credit waits for the next
            // fold, which carries it.
            assert_eq!(sub.owed(), u32::from(frame == 1), "frame {frame}");
            // The carrier that crosses the wrap is lost; the counter is
            // cumulative, so the next one re-delivers what it held: every
            // credit spent so far is acknowledged, none twice.
            if frame != 1 {
                assert!(publ.accept(cum), "frame {frame}");
                assert_eq!(publ.available(), INITIAL_CREDITS, "frame {frame}");
            }
        }
        assert_eq!(carried, vec![253, 255, 3, 6, 9, 12]);
        // A reordered straggler carrying an old counter moves nothing.
        spend(&mut publ, 3);
        assert!(!publ.accept(255));
        assert_eq!(publ.available(), 13);
        // Straight from 255: two owed step to 1, one owed waits.
        let mut at_255 = GrantCounter { owed: 1, cum: 255 };
        assert_eq!(at_255.fold(), None);
        assert_eq!((at_255.value(), at_255.owed()), (255, 1));
        at_255.owe(1);
        assert_eq!(at_255.fold(), Some(1));
        assert_eq!(at_255.owed(), 0);
    }

    #[test]
    fn debt_is_capped_at_a_window_and_a_disproved_loss_is_retracted() {
        let mut sub = GrantCounter::default();
        assert_eq!(sub.fold(), None, "nothing owed");
        sub.owe(3);
        sub.retract();
        assert_eq!(sub.owed(), 2);
        // A long outage reveals a huge gap, mostly heartbeats: no publisher
        // has more than a window outstanding, and a fold stays in range.
        sub.owe(u64::MAX);
        assert_eq!(sub.owed(), INITIAL_CREDITS);
        assert_eq!(sub.fold(), Some(INITIAL_CREDITS));
        assert_eq!(sub.fold(), None, "nothing left");
    }
}
