//! Structure-of-arrays record arena for batched event assembly.
//!
//! A publisher fanning one filter evaluation out to N subscribers used to
//! clone the accepted record list once per subscriber. The arena inverts
//! that: the records are materialized **once** into four parallel columns
//! (one encode), and each subscriber's payload is then a contiguous
//! column gather into a pooled [`MonRecord`](crate::MonRecord) buffer
//! (N enqueues) — a straight `extend_from_slice`-speed copy with no
//! intermediate allocation.
//!
//! Lifetime discipline: spans index into the arena and are only valid
//! until the next [`RecordArena::clear`]. The d-mon clears the arena at
//! the top of every poll, together with the filter memo whose entries
//! hold the spans — payloads that outlive the poll (parked outbox
//! entries) own their records instead.

use crate::event::MonRecord;

/// A contiguous range of records in a [`RecordArena`]. Invalidated by
/// [`RecordArena::clear`]; never dereference a span across polls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSpan {
    start: u32,
    len: u32,
}

impl RecordSpan {
    /// Number of records in the span.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the span holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Structure-of-arrays store for monitoring records with per-poll
/// lifetime. Columns grow once to the high-water mark and are reused
/// forever after — `clear` keeps capacity.
#[derive(Debug, Default)]
pub struct RecordArena {
    ids: Vec<u32>,
    values: Vec<f64>,
    lasts: Vec<f64>,
    timestamps: Vec<f64>,
}

impl RecordArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records currently stored (across all spans).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Drop every span's contents, keeping column capacity.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.values.clear();
        self.lasts.clear();
        self.timestamps.clear();
    }

    /// Cursor marking the start of the span being built; pass it to
    /// [`RecordArena::span_since`] once the records are pushed.
    pub fn mark(&self) -> usize {
        self.ids.len()
    }

    /// Append one record to the span under construction.
    pub fn push(&mut self, id: u32, value: f64, last_value_sent: f64, timestamp: f64) {
        self.ids.push(id);
        self.values.push(value);
        self.lasts.push(last_value_sent);
        self.timestamps.push(timestamp);
    }

    /// Close the span opened at `mark`.
    pub fn span_since(&self, mark: usize) -> RecordSpan {
        RecordSpan {
            start: mark as u32,
            len: (self.ids.len() - mark) as u32,
        }
    }

    /// Gather a span's records into `out` as wire-shaped [`MonRecord`]s.
    /// This is the per-subscriber enqueue: a columnar copy into a pooled
    /// buffer, no allocation once `out` has capacity.
    pub fn gather_into(&self, span: RecordSpan, out: &mut Vec<MonRecord>) {
        let (s, e) = (span.start as usize, (span.start + span.len) as usize);
        out.reserve(span.len());
        for i in s..e {
            out.push(MonRecord {
                metric_id: self.ids[i],
                value: self.values[i],
                last_value_sent: self.lasts[i],
                timestamp: self.timestamps[i],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_gather_what_was_pushed() {
        let mut a = RecordArena::new();
        let m0 = a.mark();
        a.push(0, 1.0, 0.5, 10.0);
        a.push(2, -3.0, 0.0, 10.0);
        let s0 = a.span_since(m0);
        let m1 = a.mark();
        a.push(7, 4.0, 4.0, 11.0);
        let s1 = a.span_since(m1);

        assert_eq!(s0.len(), 2);
        assert_eq!(s1.len(), 1);
        assert_eq!(a.len(), 3);

        let mut out = Vec::new();
        a.gather_into(s0, &mut out);
        a.gather_into(s1, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].metric_id, 0);
        assert_eq!(out[1].value, -3.0);
        assert_eq!(out[2].metric_id, 7);
        assert_eq!(out[2].timestamp, 11.0);
    }

    #[test]
    fn empty_span_gathers_nothing() {
        let a = RecordArena::new();
        let m = a.mark();
        let s = a.span_since(m);
        assert!(s.is_empty());
        let mut out = vec![MonRecord {
            metric_id: 9,
            value: 0.0,
            last_value_sent: 0.0,
            timestamp: 0.0,
        }];
        a.gather_into(s, &mut out);
        assert_eq!(out.len(), 1, "gather appends, never truncates");
    }

    #[test]
    fn clear_keeps_capacity_and_invalidates_content() {
        let mut a = RecordArena::new();
        let m = a.mark();
        for i in 0..32 {
            a.push(i, f64::from(i), 0.0, 1.0);
        }
        let _ = a.span_since(m);
        let cap = a.ids.capacity();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.ids.capacity(), cap, "clear must not shrink");
    }
}
