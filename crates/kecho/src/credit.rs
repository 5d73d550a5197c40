//! Credit-based flow control for (publisher, subscriber) streams.
//!
//! Subscribers grant a publisher the right to send monitoring events in
//! units of *credits*: one credit per data event. A stream starts with
//! [`INITIAL_CREDITS`]; the subscriber replenishes by piggybacking the
//! grant on its own reverse-direction data events when it also publishes
//! to the peer (free on the wire — one byte), falling back to a
//! standalone `ControlMsg::Credit` frame once it has absorbed a quarter
//! window ([`GRANT_THRESHOLD`] events since the last grant). When a subscriber
//! stalls — its link saturated, its host overloaded, or the node gone —
//! the grants stop, the publisher's window drains to zero, and new events
//! park in a bounded per-subscriber outbox instead of the network.
//! Frames a stream-gap later proves lost are repaid in full (they spent a
//! credit but consumed no receive capacity), so the window bounds
//! in-flight plus unrevealed loss: congestion throttles the stream for
//! exactly the loss-reveal lag, and a healed path re-inflates back to
//! full strength instead of limping on a deflated window. When
//! the outbox overflows, the *oldest* event is shed (newest data is most
//! valuable to a monitor). Heartbeats and control frames never consume
//! credits, so liveness detection and reconfiguration keep working no
//! matter how congested the data plane is.
//!
//! Everything here is pure bookkeeping: callers decide when to consult
//! the window and what to do with a shed event, so the policy stays
//! deterministic and replay-safe.

/// Credits a fresh stream starts with (and the grant target the
/// subscriber tops the window back up to).
pub const INITIAL_CREDITS: u32 = 16;

/// A subscriber sends a credit grant once it has received this many data
/// events since its last grant (a quarter window, so the publisher never
/// stalls on a healthy path and a starved one learns quickly).
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
#[derive(Debug, Clone)]
pub struct CreditWindow {
    credits: u32,
    /// Credits spent since the last grant arrived — the publisher's only
    /// local signal that the subscriber has stopped absorbing its stream.
    unacked: u32,
}

impl Default for CreditWindow {
    fn default() -> Self {
        CreditWindow::new()
    }
}

impl CreditWindow {
    /// A fresh window holding [`INITIAL_CREDITS`].
    #[must_use]
    pub fn new() -> Self {
        CreditWindow {
            credits: INITIAL_CREDITS,
            unacked: 0,
        }
    }

    /// Credits currently available.
    #[must_use]
    pub fn available(&self) -> u32 {
        self.credits
    }

    /// Consume one credit for a data event; `false` (and no change) when
    /// the window is empty — the caller must park or shed the event.
    pub fn try_consume(&mut self) -> bool {
        if self.credits == 0 {
            return false;
        }
        self.credits -= 1;
        self.unacked = self.unacked.saturating_add(1);
        true
    }

    /// Credits spent since the last grant. Crossing [`GRANT_OVERDUE`]
    /// means the subscriber has gone quiet on a stream we are still
    /// feeding — almost certainly loss, not absorption.
    #[must_use]
    pub fn unacked(&self) -> u32 {
        self.unacked
    }

    /// Whether a grant is overdue for the spend already committed.
    #[must_use]
    pub fn grant_overdue(&self) -> bool {
        self.unacked >= GRANT_OVERDUE
    }

    /// Apply a grant from the subscriber. The window is capped at
    /// [`INITIAL_CREDITS`] so a burst of duplicate grants cannot open an
    /// unbounded send window.
    pub fn grant(&mut self, credits: u32) {
        let add = credits.min(INITIAL_CREDITS - self.credits.min(INITIAL_CREDITS));
        self.credits += add;
        // A grant acknowledges spend regardless of the cap: the
        // subscriber would not grant for positions it never absorbed.
        self.unacked = self.unacked.saturating_sub(credits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_starts_full_and_drains() {
        let mut w = CreditWindow::new();
        assert_eq!(w.available(), INITIAL_CREDITS);
        for _ in 0..INITIAL_CREDITS {
            assert!(w.try_consume());
        }
        assert_eq!(w.available(), 0);
        assert!(!w.try_consume(), "empty window refuses");
        assert_eq!(w.unacked(), INITIAL_CREDITS, "a refusal spends nothing");
    }

    #[test]
    fn grants_replenish_but_never_overfill() {
        let mut w = CreditWindow::new();
        for _ in 0..10 {
            assert!(w.try_consume());
        }
        w.grant(GRANT_THRESHOLD);
        assert_eq!(w.available(), INITIAL_CREDITS - 10 + GRANT_THRESHOLD);
        // A flood of grants caps at the initial window.
        w.grant(1000);
        assert_eq!(w.available(), INITIAL_CREDITS);
        w.grant(1000);
        assert_eq!(w.available(), INITIAL_CREDITS);
        // The capped credits are not banked: the next spend comes out of
        // the capped window.
        assert!(w.try_consume());
        assert_eq!(w.available(), INITIAL_CREDITS - 1);
    }

    #[test]
    fn unacked_spend_flags_an_overdue_grant() {
        let mut w = CreditWindow::new();
        for _ in 0..GRANT_OVERDUE - 1 {
            assert!(w.try_consume());
            assert!(!w.grant_overdue());
        }
        assert!(w.try_consume());
        assert!(w.grant_overdue(), "overdue once the threshold is spent");
        // A grant acknowledges the spend even when the window cap eats
        // part of the replenishment.
        w.grant(GRANT_OVERDUE);
        assert!(!w.grant_overdue());
        assert_eq!(w.unacked(), 0);
    }
}
