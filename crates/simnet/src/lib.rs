//! `simnet` — deterministic model of a switched full-duplex Ethernet
//! cluster network, the substrate on which the dproc reproduction's
//! kernel-to-kernel messaging (KECho) runs.
//!
//! The paper's testbed is an 8-node cluster on switched 100 Mbps Fast
//! Ethernet. This crate models exactly that topology: every node has a
//! full-duplex link to one switch, so contention occurs independently on a
//! sender's *uplink* and a receiver's *downlink*. Messages are
//! store-and-forward with FIFO queueing per link direction; background
//! traffic (Iperf-style UDP floods) consumes a configurable share of link
//! capacity and both perturbs and is perturbed by message traffic.
//!
//! Everything here is a *pure state machine*: the network computes delivery
//! times but never schedules events itself. The cluster glue (in the
//! `dproc` crate) owns the event loop and schedules delivery callbacks at
//! the times this crate computes. That keeps the model unit-testable in
//! isolation.
//!
//! Modules:
//!
//! * [`link`] — a single link direction: capacity, FIFO busy horizon,
//!   background load, utilization accounting,
//! * [`network`] — the switched fabric (star, or racks uplinked to a
//!   spine) and the send/deliver path,
//! * [`topology`] — the config-driven topology resolver: a
//!   [`TopologySpec`] resolves to the node → rack [`Placement`] shared by
//!   the network, the channel directory, and the cluster glue,
//! * [`traffic`] — UDP flood generators and the Iperf-style available
//!   bandwidth probe,
//! * [`conn`] — per-connection tracking (RTT EWMA, bytes, retransmissions,
//!   loss) feeding dproc's NET_MON module,
//! * [`fault`] — scheduled fault injection: crashes, partitions, message
//!   loss, and link degradation, with per-path drop counters.

pub mod conn;
pub mod fault;
pub mod link;
pub mod network;
pub mod topology;
pub mod traffic;

pub use conn::{ConnId, ConnStats, ConnTrack};
pub use fault::{DropReason, FaultAction, FaultPlan, FaultState, FaultStats};
pub use link::{DirLink, LinkSpec};
pub use network::{Delivery, DropDir, Fabric, Leg, Network, NodeId, Port, TrafficClass};
pub use topology::{Placement, Rack, TopologySpec};
pub use traffic::FlowId;
