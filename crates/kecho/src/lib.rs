//! `kecho` — kernel-level publish/subscribe event channels.
//!
//! KECho is the paper's kernel port of the ECho event-channel
//! infrastructure: every dproc node joins a *monitoring* channel (data)
//! and a *control* channel (parameters, filter deployment); a user-level
//! *channel registry* bootstraps discovery; and all communication is
//! strictly peer-to-peer kernel-to-kernel messaging — no central
//! collection point.
//!
//! This crate reproduces that layer:
//!
//! * [`event`] — event identity and the typed payloads flowing on dproc's
//!   two channels (monitoring records; control messages),
//! * [`wire`] — a compact binary codec (`bytes`-based) for those payloads;
//!   a real kernel module would marshal structs the same way,
//! * [`directory`] — the channel registry plus subscription state (the
//!   Supermon-style central collector the paper argues against is a
//!   routing shape of the fabric, `simnet::TopologySpec::Hub`, not a mode
//!   of this crate),
//! * [`stream`] — per-stream sequence/epoch continuity tracking: gap
//!   detection and publisher-restart recognition,
//! * [`credit`] — the credit window a publisher spends toward one
//!   subscriber, the grant counter the subscriber returns credits
//!   through, and the constants both ends of flow control agree on.
//!
//! The crate is pure: submission *plans* hops (`(from, to)` pairs); the
//! cluster glue in `dproc` turns hops into `simnet` sends and schedules
//! deliveries.

pub mod credit;
pub mod directory;
pub mod event;
pub mod stream;
pub mod wire;

pub use credit::{CreditWindow, GRANT_OVERDUE, GRANT_THRESHOLD, INITIAL_CREDITS, OUTBOX_CAP};
pub use directory::{ChannelId, Directory, Hop};
pub use event::{
    put_record_buf, take_digest_buf, take_record_buf, take_text, ControlMsg, DigestPayload,
    DigestRecord, Event, EventKind, HeartbeatPayload, MonRecord, MonitoringPayload, ParamSpec,
    RecordPool,
};
pub use stream::{Observation, StreamTracker, MAX_GAP_RANGES};
pub use wire::{decode_event, encode_event, WireError};
