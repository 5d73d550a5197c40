//! Wire-corruption robustness: mutating bytes of a valid frame must make
//! `decode_event` return an error — never panic, and never hand back an
//! event that could be misattributed to a stream. The FNV-1a trailer
//! guarantees the "never misattributes" half: any frame that still parses
//! after a mutation fails the checksum instead.

use bytes::Bytes;
use kecho::{
    decode_event, encode_event, ControlMsg, DigestPayload, DigestRecord, Event, HeartbeatPayload,
    MonRecord, MonitoringPayload, ParamSpec,
};
use proptest::prelude::*;
use simnet::NodeId;

/// A strategy over structurally-varied valid events.
fn event_strategy() -> impl Strategy<Value = Event> {
    let records = proptest::collection::vec(
        (0u32..8, -1e6f64..1e6, -1e6f64..1e6, 0f64..1e4).prop_map(
            |(metric_id, value, last_value_sent, timestamp)| MonRecord {
                metric_id,
                value,
                last_value_sent,
                timestamp,
            },
        ),
        0..6,
    );
    let monitoring = (
        records,
        0u32..64,
        0u32..1000,
        any::<u32>(),
        0usize..8,
        0u32..256,
    )
        .prop_map(
            |(records, pad_bytes, stream_seq, epoch, origin, credit_grant)| {
                Event::monitoring(
                    1,
                    7,
                    NodeId(origin),
                    MonitoringPayload {
                        origin: NodeId(origin),
                        epoch,
                        stream_seq,
                        credit_grant,
                        records,
                        pad_bytes,
                        ext_names: vec![(9, "custom".into(), "proc_custom".into())],
                    },
                )
            },
        );
    let param = (0u8..5, -1e6f64..1e6, -1e6f64..1e6).prop_map(|(tag, a, b)| match tag {
        0 => ParamSpec::Period { period_s: a },
        1 => ParamSpec::DeltaFraction { fraction: a },
        2 => ParamSpec::Above { bound: a },
        3 => ParamSpec::Below { bound: a },
        _ => ParamSpec::Range { lo: a, hi: b },
    });
    let control = prop_oneof![
        Just(ControlMsg::RemoveFilter),
        Just(ControlMsg::Announce),
        (0u32..1000).prop_map(|credits| ControlMsg::Credit { credits }),
        "[a-z ]{0,24}".prop_map(|source| ControlMsg::DeployFilter { source }),
        "[a-z ]{0,24}".prop_map(|reason| ControlMsg::FilterRejected { reason }),
        ("[A-Z_]{0,12}", param).prop_map(|(metric, param)| ControlMsg::SetParam { metric, param }),
    ]
    .prop_map(|msg| Event::control(2, 3, NodeId(0), NodeId(5), msg));
    let heartbeat =
        (0usize..8, any::<u32>(), any::<u32>()).prop_map(|(origin, epoch, stream_seq)| {
            let payload = HeartbeatPayload {
                origin: NodeId(origin),
                epoch,
                stream_seq,
            };
            Event::heartbeat(1, 8, NodeId(origin), NodeId(5), payload)
        });
    let digest_records = proptest::collection::vec(
        (0u32..8, -1e6f64..1e6, 0u32..64, 0f64..1e4).prop_map(
            |(metric_id, mean, count, newest_ts)| DigestRecord {
                metric_id,
                min: mean - 1.0,
                max: mean + 1.0,
                mean,
                count,
                newest_ts,
            },
        ),
        0..6,
    );
    let digest = (digest_records, 0u32..32, 0usize..8, 0u32..64).prop_map(
        |(records, rack, origin, members)| {
            let payload = DigestPayload {
                rack,
                origin: NodeId(origin),
                members,
                records,
            };
            Event::digest(3, 4, NodeId(origin), payload)
        },
    );
    prop_oneof![monitoring, control, heartbeat, digest]
}

proptest! {
    #[test]
    fn mutated_frames_error_and_never_misattribute(
        ev in event_strategy(),
        flips in proptest::collection::vec((0usize..4096, 0u8..255), 1..5),
    ) {
        let clean = encode_event(&ev);
        let mut raw = clean.to_vec();
        for (pos, xor) in flips {
            let i = pos % raw.len();
            raw[i] ^= xor + 1; // 1..=255: never an identity flip per byte
        }
        // Two flips on one position can cancel; force a difference so the
        // property stays meaningful on every generated case.
        if raw == clean.as_ref() {
            raw[0] ^= 0xFF;
        }
        let err = decode_event(Bytes::from(raw));
        prop_assert!(err.is_err(), "mutated frame decoded as {:?}", err);
    }

    #[test]
    fn truncated_frames_error(ev in event_strategy(), keep in 0usize..4096) {
        let clean = encode_event(&ev);
        let cut = keep % clean.len(); // strictly shorter than the frame
        prop_assert!(decode_event(clean.slice(..cut)).is_err());
    }
}

proptest! {
    // A fixed budget, whatever PROPTEST_CASES says: this lane runs in tier-1.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile input returns, `Ok` or `Err`: arbitrary bytes (which rarely
    /// get past the version byte) and a valid frame of every kind with
    /// arbitrary bytes spliced over a stretch of it (which reach every
    /// length, count and tag the decoder reads — the trailer is checked
    /// last).
    #[test]
    fn arbitrary_bytes_never_panic(
        soup in proptest::collection::vec(any::<u8>(), 0..128),
        ev in event_strategy(),
        at in 0usize..4096,
        cut in 0usize..16,
        splice in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let _ = decode_event(Bytes::from(soup));
        let mut raw = encode_event(&ev).to_vec();
        let at = at % raw.len();
        let end = (at + cut).min(raw.len());
        raw.splice(at..end, splice);
        let _ = decode_event(Bytes::from(raw));
    }
}
