//! Binary wire codec for events.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! u8  version (5)
//! u8  kind (0 = monitoring, 1 = control, 2 = heartbeat, 3 = digest)
//! u32 channel
//! u64 seq
//! u32 sender
//! u32 target (u32::MAX = none)
//! ... payload (kind-specific)
//! u32 checksum (FNV-1a over every preceding byte)
//! ```
//!
//! Monitoring payload: `u32 origin`, `u32 epoch`, `u32 stream_seq`,
//! `u8 n_records` (low 7 bits; bit 7 set means a `u8` piggybacked
//! credit grant follows), optional `u8 credit_grant`, records of
//! `(u32 id, f64 value, f64 last, f64 ts)`, `u32 pad_len`, `pad_len`
//! zero bytes. Control payload: `u8 tag` then message-specific fields;
//! strings are `u32 len` + UTF-8 bytes. Heartbeat payload: `u32 origin`,
//! `u32 epoch`, `u32 stream_seq`. Digest payload: `u32 rack`,
//! `u32 origin`, `u32 members`, `u8 n_records`, records of `(u32 id,
//! f64 min, f64 max, f64 mean, u32 count, f64 newest_ts)`.
//!
//! Version history: v1 had no epoch/stream_seq and no heartbeat kind; v2
//! had no integrity trailer, 16-bit record/extension counts, and no
//! credit-grant control tag; v3 had no piggybacked credit-grant byte on
//! monitoring payloads (and a full 8-bit record count); v4 had no digest
//! kind. Old buffers are rejected, not translated — all nodes in a
//! simulated cluster run the same codec.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use simnet::NodeId;

use crate::event::{
    ControlMsg, DigestPayload, DigestRecord, Event, EventKind, HeartbeatPayload, MonRecord,
    MonitoringPayload, ParamSpec, Payload,
};

/// Current wire version.
pub const WIRE_VERSION: u8 = 5;

/// Decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before the structure did.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown kind or tag byte.
    BadTag(u8),
    /// String bytes were not UTF-8.
    BadString,
    /// The frame parsed but its integrity trailer did not match: bytes
    /// were corrupted in flight. The event must not be attributed to any
    /// stream.
    Corrupt,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated event"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            WireError::BadString => write!(f, "invalid UTF-8 in string field"),
            WireError::Corrupt => write!(f, "checksum mismatch (corrupted frame)"),
        }
    }
}

/// FNV-1a over a byte slice, the frame integrity check. Not cryptographic
/// — it defends against corruption, not forgery, exactly like a link
/// CRC.
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

impl std::error::Error for WireError {}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut Bytes) -> Result<String, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(WireError::Truncated);
    }
    // Validate and copy straight out of the buffer's front — one copy
    // into the `String`, no intermediate `Bytes` handle or `Vec` detour.
    let s = std::str::from_utf8(&buf[..len]).map_err(|_| WireError::BadString)?;
    let out = s.to_owned();
    buf.advance(len);
    Ok(out)
}

/// Encode an event to bytes.
///
/// The buffer is reserved at exactly [`encoded_size`] up front, so
/// encoding performs no growth reallocations and the size formula is
/// checked (in debug builds) on every encode.
pub fn encode_event(ev: &Event) -> Bytes {
    let need = encoded_size(ev);
    let mut buf = BytesMut::with_capacity(need);
    write_event(&mut buf, ev);
    let sum = fnv1a32(&buf[..]);
    buf.put_u32_le(sum);
    debug_assert_eq!(buf.len(), need, "encoded_size disagrees with encoder");
    buf.freeze()
}

fn write_event(buf: &mut BytesMut, ev: &Event) {
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(match ev.kind {
        EventKind::Monitoring => 0,
        EventKind::Control => 1,
        EventKind::Heartbeat => 2,
        EventKind::Digest => 3,
    });
    buf.put_u32_le(ev.channel);
    buf.put_u64_le(ev.seq);
    buf.put_u32_le(ev.sender.0 as u32);
    buf.put_u32_le(ev.target.map_or(u32::MAX, |n| n.0 as u32));
    match &ev.payload {
        Payload::Monitoring(m) => {
            buf.put_u32_le(m.origin.0 as u32);
            buf.put_u32_le(m.epoch);
            buf.put_u32_le(m.stream_seq);
            debug_assert!(m.records.len() <= 0x7F, "too many records");
            debug_assert!(m.credit_grant <= u32::from(u8::MAX), "grant too large");
            // Bit 7 of the record count flags a piggybacked grant byte, so
            // the common grant-free event pays nothing for the feature.
            let flag = if m.credit_grant > 0 { 0x80 } else { 0 };
            buf.put_u8(m.records.len() as u8 | flag);
            if m.credit_grant > 0 {
                buf.put_u8(m.credit_grant as u8);
            }
            for r in &m.records {
                buf.put_u32_le(r.metric_id);
                buf.put_f64_le(r.value);
                buf.put_f64_le(r.last_value_sent);
                buf.put_f64_le(r.timestamp);
            }
            buf.put_u32_le(m.pad_bytes);
            buf.put_bytes(0, m.pad_bytes as usize);
            debug_assert!(m.ext_names.len() <= u8::MAX as usize, "too many extensions");
            buf.put_u8(m.ext_names.len() as u8);
            for (id, metric, file) in &m.ext_names {
                buf.put_u32_le(*id);
                put_string(buf, metric);
                put_string(buf, file);
            }
        }
        Payload::Control(c) => match c {
            ControlMsg::SetParam { metric, param } => {
                buf.put_u8(0);
                put_string(buf, metric);
                match param {
                    ParamSpec::Period { period_s } => {
                        buf.put_u8(0);
                        buf.put_f64_le(*period_s);
                    }
                    ParamSpec::DeltaFraction { fraction } => {
                        buf.put_u8(1);
                        buf.put_f64_le(*fraction);
                    }
                    ParamSpec::Above { bound } => {
                        buf.put_u8(2);
                        buf.put_f64_le(*bound);
                    }
                    ParamSpec::Below { bound } => {
                        buf.put_u8(3);
                        buf.put_f64_le(*bound);
                    }
                    ParamSpec::Range { lo, hi } => {
                        buf.put_u8(4);
                        buf.put_f64_le(*lo);
                        buf.put_f64_le(*hi);
                    }
                }
            }
            ControlMsg::DeployFilter { source } => {
                buf.put_u8(1);
                put_string(buf, source);
            }
            ControlMsg::RemoveFilter => buf.put_u8(2),
            ControlMsg::Announce => buf.put_u8(3),
            ControlMsg::FilterRejected { reason } => {
                buf.put_u8(4);
                put_string(buf, reason);
            }
            ControlMsg::Credit { credits } => {
                buf.put_u8(5);
                buf.put_u32_le(*credits);
            }
        },
        Payload::Heartbeat(h) => {
            buf.put_u32_le(h.origin.0 as u32);
            buf.put_u32_le(h.epoch);
            buf.put_u32_le(h.stream_seq);
        }
        Payload::Digest(d) => {
            buf.put_u32_le(d.rack);
            buf.put_u32_le(d.origin.0 as u32);
            buf.put_u32_le(d.members);
            debug_assert!(
                d.records.len() <= u8::MAX as usize,
                "too many digest records"
            );
            buf.put_u8(d.records.len() as u8);
            for r in &d.records {
                buf.put_u32_le(r.metric_id);
                buf.put_f64_le(r.min);
                buf.put_f64_le(r.max);
                buf.put_f64_le(r.mean);
                buf.put_u32_le(r.count);
                buf.put_f64_le(r.newest_ts);
            }
        }
    }
}

/// Decode an event from bytes. Parse errors (truncation, bad tags, bad
/// strings) are reported as such; a frame that parses but has bytes left
/// over or fails the integrity trailer is [`WireError::Corrupt`] — either
/// way a mutated buffer can never be silently attributed to a stream.
pub fn decode_event(full: Bytes) -> Result<Event, WireError> {
    if full.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let body_len = full.len() - 4;
    let ev = parse_body(full.slice(..body_len))?;
    let want = u32::from_le_bytes([
        full[body_len],
        full[body_len + 1],
        full[body_len + 2],
        full[body_len + 3],
    ]);
    if fnv1a32(&full[..body_len]) != want {
        return Err(WireError::Corrupt);
    }
    Ok(ev)
}

fn parse_body(mut buf: Bytes) -> Result<Event, WireError> {
    if buf.remaining() < 2 + 4 + 8 + 4 + 4 {
        return Err(WireError::Truncated);
    }
    let version = buf.get_u8();
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = match buf.get_u8() {
        0 => EventKind::Monitoring,
        1 => EventKind::Control,
        2 => EventKind::Heartbeat,
        3 => EventKind::Digest,
        t => return Err(WireError::BadTag(t)),
    };
    let channel = buf.get_u32_le();
    let seq = buf.get_u64_le();
    let sender = NodeId(buf.get_u32_le() as usize);
    let target_raw = buf.get_u32_le();
    let target = if target_raw == u32::MAX {
        None
    } else {
        Some(NodeId(target_raw as usize))
    };
    let payload = match kind {
        EventKind::Monitoring => {
            if buf.remaining() < 4 + 4 + 4 + 1 {
                return Err(WireError::Truncated);
            }
            let origin = NodeId(buf.get_u32_le() as usize);
            let epoch = buf.get_u32_le();
            let stream_seq = buf.get_u32_le();
            let n_raw = buf.get_u8();
            let n = (n_raw & 0x7F) as usize;
            let credit_grant = if n_raw & 0x80 != 0 {
                if buf.remaining() < 1 {
                    return Err(WireError::Truncated);
                }
                u32::from(buf.get_u8())
            } else {
                0
            };
            if buf.remaining() < n * 28 {
                return Err(WireError::Truncated);
            }
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(MonRecord {
                    metric_id: buf.get_u32_le(),
                    value: buf.get_f64_le(),
                    last_value_sent: buf.get_f64_le(),
                    timestamp: buf.get_f64_le(),
                });
            }
            if buf.remaining() < 4 {
                return Err(WireError::Truncated);
            }
            let pad = buf.get_u32_le();
            if buf.remaining() < pad as usize {
                return Err(WireError::Truncated);
            }
            buf.advance(pad as usize);
            if buf.remaining() < 1 {
                return Err(WireError::Truncated);
            }
            let n_ext = buf.get_u8() as usize;
            let mut ext_names = Vec::with_capacity(n_ext);
            for _ in 0..n_ext {
                if buf.remaining() < 4 {
                    return Err(WireError::Truncated);
                }
                let id = buf.get_u32_le();
                let metric = get_string(&mut buf)?;
                let file = get_string(&mut buf)?;
                ext_names.push((id, metric, file));
            }
            Payload::Monitoring(MonitoringPayload {
                origin,
                epoch,
                stream_seq,
                credit_grant,
                records,
                pad_bytes: pad,
                ext_names,
            })
        }
        EventKind::Control => {
            if buf.remaining() < 1 {
                return Err(WireError::Truncated);
            }
            let tag = buf.get_u8();
            let msg = match tag {
                0 => {
                    let metric = get_string(&mut buf)?;
                    if buf.remaining() < 1 {
                        return Err(WireError::Truncated);
                    }
                    let ptag = buf.get_u8();
                    let need = if ptag == 4 { 16 } else { 8 };
                    if buf.remaining() < need {
                        return Err(WireError::Truncated);
                    }
                    let param = match ptag {
                        0 => ParamSpec::Period {
                            period_s: buf.get_f64_le(),
                        },
                        1 => ParamSpec::DeltaFraction {
                            fraction: buf.get_f64_le(),
                        },
                        2 => ParamSpec::Above {
                            bound: buf.get_f64_le(),
                        },
                        3 => ParamSpec::Below {
                            bound: buf.get_f64_le(),
                        },
                        4 => ParamSpec::Range {
                            lo: buf.get_f64_le(),
                            hi: buf.get_f64_le(),
                        },
                        t => return Err(WireError::BadTag(t)),
                    };
                    ControlMsg::SetParam { metric, param }
                }
                1 => ControlMsg::DeployFilter {
                    source: get_string(&mut buf)?,
                },
                2 => ControlMsg::RemoveFilter,
                3 => ControlMsg::Announce,
                4 => ControlMsg::FilterRejected {
                    reason: get_string(&mut buf)?,
                },
                5 => {
                    if buf.remaining() < 4 {
                        return Err(WireError::Truncated);
                    }
                    ControlMsg::Credit {
                        credits: buf.get_u32_le(),
                    }
                }
                t => return Err(WireError::BadTag(t)),
            };
            Payload::Control(msg)
        }
        EventKind::Heartbeat => {
            if buf.remaining() < 4 + 4 + 4 {
                return Err(WireError::Truncated);
            }
            Payload::Heartbeat(HeartbeatPayload {
                origin: NodeId(buf.get_u32_le() as usize),
                epoch: buf.get_u32_le(),
                stream_seq: buf.get_u32_le(),
            })
        }
        EventKind::Digest => {
            if buf.remaining() < 4 + 4 + 4 + 1 {
                return Err(WireError::Truncated);
            }
            let rack = buf.get_u32_le();
            let origin = NodeId(buf.get_u32_le() as usize);
            let members = buf.get_u32_le();
            let n = buf.get_u8() as usize;
            if buf.remaining() < n * 40 {
                return Err(WireError::Truncated);
            }
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(DigestRecord {
                    metric_id: buf.get_u32_le(),
                    min: buf.get_f64_le(),
                    max: buf.get_f64_le(),
                    mean: buf.get_f64_le(),
                    count: buf.get_u32_le(),
                    newest_ts: buf.get_f64_le(),
                });
            }
            Payload::Digest(DigestPayload {
                rack,
                origin,
                members,
                records,
            })
        }
    };
    // A body longer than its payload is not this event's encoding, even
    // when the trailer checksums all of it.
    if buf.remaining() > 0 {
        return Err(WireError::Corrupt);
    }
    Ok(Event {
        kind,
        channel,
        seq,
        sender,
        target,
        payload,
    })
}

/// Encoded size of an event in bytes (without building the buffer —
/// used by the network model to size transfers cheaply).
pub fn encoded_size(ev: &Event) -> usize {
    let header = 2 + 4 + 8 + 4 + 4;
    let trailer = 4; // FNV-1a integrity checksum
    let payload = match &ev.payload {
        Payload::Monitoring(m) => {
            4 + 4
                + 4
                + 1
                + usize::from(m.credit_grant > 0)
                + m.records.len() * 28
                + 4
                + m.pad_bytes as usize
                + 1
                + m.ext_names
                    .iter()
                    .map(|(_, metric, file)| 4 + 4 + metric.len() + 4 + file.len())
                    .sum::<usize>()
        }
        Payload::Control(c) => match c {
            ControlMsg::SetParam { metric, param } => {
                1 + 4
                    + metric.len()
                    + 1
                    + match param {
                        ParamSpec::Range { .. } => 16,
                        _ => 8,
                    }
            }
            ControlMsg::DeployFilter { source } => 1 + 4 + source.len(),
            ControlMsg::FilterRejected { reason } => 1 + 4 + reason.len(),
            ControlMsg::RemoveFilter | ControlMsg::Announce => 1,
            ControlMsg::Credit { .. } => 1 + 4,
        },
        Payload::Heartbeat(_) => 4 + 4 + 4,
        Payload::Digest(d) => 4 + 4 + 4 + 1 + d.records.len() * 40,
    };
    header + payload + trailer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mon_event(pad: u32) -> Event {
        Event::monitoring(
            1,
            42,
            NodeId(3),
            MonitoringPayload {
                origin: NodeId(3),
                epoch: 1,
                stream_seq: 40,
                credit_grant: 0,
                records: vec![
                    MonRecord {
                        metric_id: 0,
                        value: 1.5,
                        last_value_sent: 1.0,
                        timestamp: 12.0,
                    },
                    MonRecord {
                        metric_id: 2,
                        value: -7.25,
                        last_value_sent: 0.0,
                        timestamp: 13.0,
                    },
                ],
                pad_bytes: pad,
                ext_names: Vec::new(),
            },
        )
    }

    #[test]
    fn monitoring_roundtrip() {
        let ev = mon_event(0);
        let bytes = encode_event(&ev);
        let back = decode_event(bytes).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn piggybacked_grant_roundtrips_and_costs_one_byte() {
        let plain = mon_event(0);
        let mut granted = mon_event(0);
        match &mut granted.payload {
            Payload::Monitoring(m) => m.credit_grant = 5,
            _ => unreachable!(),
        }
        let pb = encode_event(&plain);
        let gb = encode_event(&granted);
        assert_eq!(gb.len(), pb.len() + 1, "grant byte only when present");
        assert_eq!(gb.len(), encoded_size(&granted));
        let back = decode_event(gb).unwrap();
        assert_eq!(back, granted);
        assert_eq!(back.as_monitoring().unwrap().credit_grant, 5);
    }

    #[test]
    fn padding_travels_as_length() {
        let ev = mon_event(5000);
        let bytes = encode_event(&ev);
        assert_eq!(bytes.len(), encoded_size(&ev));
        assert!(bytes.len() > 5000);
        let back = decode_event(bytes).unwrap();
        assert_eq!(back.as_monitoring().unwrap().pad_bytes, 5000);
    }

    #[test]
    fn control_messages_roundtrip() {
        let msgs = vec![
            ControlMsg::SetParam {
                metric: "cpu".into(),
                param: ParamSpec::Period { period_s: 2.0 },
            },
            ControlMsg::SetParam {
                metric: "*".into(),
                param: ParamSpec::DeltaFraction { fraction: 0.15 },
            },
            ControlMsg::SetParam {
                metric: "mem".into(),
                param: ParamSpec::Above { bound: 0.8 },
            },
            ControlMsg::SetParam {
                metric: "disk".into(),
                param: ParamSpec::Below { bound: 100.0 },
            },
            ControlMsg::SetParam {
                metric: "net".into(),
                param: ParamSpec::Range { lo: 1.0, hi: 2.0 },
            },
            ControlMsg::DeployFilter {
                source: "{ output[0] = input[0]; }".into(),
            },
            ControlMsg::RemoveFilter,
            ControlMsg::Announce,
            ControlMsg::FilterRejected {
                reason: "filter cost is unbounded".into(),
            },
            ControlMsg::Credit { credits: 7 },
        ];
        for msg in msgs {
            let ev = Event::control(2, 1, NodeId(0), NodeId(5), msg.clone());
            let bytes = encode_event(&ev);
            assert_eq!(bytes.len(), encoded_size(&ev), "size formula for {msg:?}");
            let back = decode_event(bytes).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn digest_roundtrips_and_is_member_count_independent() {
        let digest = |members: u32| {
            Event::digest(
                3,
                11,
                NodeId(4),
                DigestPayload {
                    rack: 1,
                    origin: NodeId(4),
                    members,
                    records: (0..5)
                        .map(|i| DigestRecord {
                            metric_id: i,
                            min: -1.5 * f64::from(i),
                            max: 2.0 * f64::from(i),
                            mean: 0.25,
                            count: members,
                            newest_ts: 12.5,
                        })
                        .collect(),
                },
            )
        };
        let small = digest(3);
        let big = digest(1024);
        let sb = encode_event(&small);
        assert_eq!(sb.len(), encoded_size(&small));
        assert_eq!(
            sb.len(),
            encoded_size(&big),
            "digest size is O(metrics), not O(members)"
        );
        let back = decode_event(sb).unwrap();
        assert_eq!(back, small);
        let d = back.as_digest().unwrap();
        assert_eq!(d.rack, 1);
        assert_eq!(d.members, 3);
        assert_eq!(d.records.len(), 5);
        // Truncation inside a digest record errors cleanly.
        let full = encode_event(&big);
        let err = decode_event(full.slice(..full.len() - 30)).unwrap_err();
        assert_eq!(err, WireError::Truncated);
    }

    #[test]
    fn truncated_buffers_error() {
        let full = encode_event(&mon_event(16));
        for cut in [0, 1, 5, 10, 25, full.len() - 1] {
            let err = decode_event(full.slice(..cut)).unwrap_err();
            assert_eq!(err, WireError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn truncated_strings_error() {
        // Cut a control event inside its string payload: in the length
        // prefix, and in the body the prefix promises.
        let ev = Event::control(
            2,
            9,
            NodeId(0),
            NodeId(1),
            ControlMsg::DeployFilter {
                source: "{ output[0] = input[0]; }".into(),
            },
        );
        let full = encode_event(&ev);
        let header = 2 + 4 + 8 + 4 + 4 + 1; // through the control tag
        for cut in [header, header + 2, header + 4, full.len() - 1] {
            assert_eq!(
                decode_event(full.slice(..cut)).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
        // A length prefix larger than the remaining buffer must error,
        // not panic or over-read.
        let mut raw = full.to_vec();
        raw[header..header + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_event(Bytes::from(raw)).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn non_utf8_string_rejected() {
        let ev = Event::control(
            2,
            9,
            NodeId(0),
            NodeId(1),
            ControlMsg::FilterRejected {
                reason: "....".into(),
            },
        );
        let mut raw = encode_event(&ev).to_vec();
        let body = 2 + 4 + 8 + 4 + 4 + 1 + 4; // header, tag, string length
        raw[body] = 0xFF; // lone 0xFF is never valid UTF-8
        assert_eq!(
            decode_event(Bytes::from(raw)).unwrap_err(),
            WireError::BadString
        );
    }

    #[test]
    fn bad_version_rejected() {
        let mut raw = encode_event(&mon_event(0)).to_vec();
        raw[0] = 99;
        assert_eq!(
            decode_event(Bytes::from(raw)).unwrap_err(),
            WireError::BadVersion(99)
        );
    }

    #[test]
    fn bad_kind_rejected() {
        let mut raw = encode_event(&mon_event(0)).to_vec();
        raw[1] = 7;
        assert_eq!(
            decode_event(Bytes::from(raw)).unwrap_err(),
            WireError::BadTag(7)
        );
    }

    #[test]
    fn flipped_value_byte_is_corrupt_not_misattributed() {
        // Mutating a byte that still parses (a record value, the
        // stream_seq) must surface as Corrupt — the frame can never be
        // folded into a stream's continuity state.
        let full = encode_event(&mon_event(16));
        // Offsets 22/26/30 are origin/epoch/stream_seq; len-20 is inside
        // the pad region. All parse fine with a flipped bit.
        for off in [22, 26, 30, full.len() - 20] {
            let mut raw = full.to_vec();
            raw[off] ^= 0x40;
            assert_eq!(
                decode_event(Bytes::from(raw)).unwrap_err(),
                WireError::Corrupt,
                "mutated byte {off}"
            );
        }
        // A mutated trailer byte is equally fatal.
        let mut raw = full.to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        assert_eq!(
            decode_event(Bytes::from(raw)).unwrap_err(),
            WireError::Corrupt
        );
    }

    /// `ev`'s frame with `extra` spliced in after the payload and the
    /// trailer recomputed over all of it must not decode as `ev`.
    fn assert_left_over_bytes_rejected(ev: &Event) {
        let full = encode_event(ev);
        for extra in [&[0u8][..], &[0xAB; 7]] {
            let mut raw = full[..full.len() - 4].to_vec();
            raw.extend_from_slice(extra);
            raw.extend_from_slice(&fnv1a32(&raw).to_le_bytes());
            assert_eq!(
                decode_event(Bytes::from(raw)),
                Err(WireError::Corrupt),
                "{} left-over bytes",
                extra.len()
            );
        }
    }

    #[test]
    fn left_over_bytes_after_a_monitoring_payload_are_corrupt() {
        assert_left_over_bytes_rejected(&mon_event(3));
    }

    #[test]
    fn left_over_bytes_after_a_control_payload_are_corrupt() {
        let credit = ControlMsg::Credit { credits: 9 };
        for msg in [ControlMsg::RemoveFilter, credit] {
            assert_left_over_bytes_rejected(&Event::control(2, 5, NodeId(0), NodeId(1), msg));
        }
    }

    #[test]
    fn left_over_bytes_after_a_heartbeat_payload_are_corrupt() {
        let payload = HeartbeatPayload {
            origin: NodeId(2),
            epoch: 1,
            stream_seq: 17,
        };
        assert_left_over_bytes_rejected(&Event::heartbeat(1, 6, NodeId(2), NodeId(0), payload));
    }

    #[test]
    fn left_over_bytes_after_a_digest_payload_are_corrupt() {
        let payload = DigestPayload {
            rack: 1,
            origin: NodeId(4),
            members: 3,
            records: Vec::new(),
        };
        assert_left_over_bytes_rejected(&Event::digest(3, 11, NodeId(4), payload));
    }

    #[test]
    fn small_monitoring_event_is_paper_sized() {
        // The paper's microbenchmarks use events of 50–100 bytes for the
        // full module set (5 metrics). Check our natural encoding lands in
        // that band.
        let ev = Event::monitoring(
            1,
            1,
            NodeId(0),
            MonitoringPayload {
                origin: NodeId(0),
                epoch: 0,
                stream_seq: 0,
                credit_grant: 0,
                records: (0..2)
                    .map(|i| MonRecord {
                        metric_id: i,
                        value: 0.0,
                        last_value_sent: 0.0,
                        timestamp: 0.0,
                    })
                    .collect(),
                pad_bytes: 0,
                ext_names: Vec::new(),
            },
        );
        let size = encoded_size(&ev);
        assert!((50..=100).contains(&size), "2-record event is {size} B");
        let ev5 = mon_event(0);
        assert!(encoded_size(&ev5) < 150);
    }
}
