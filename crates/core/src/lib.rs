//! `dproc` — the paper's contribution: customizable, kernel-level,
//! distributed resource monitoring with a `/proc/cluster` interface.
//!
//! The pieces, mirroring Figure 2 of the paper:
//!
//! * [`modules`] — the monitoring modules (CPU MON, MEM MON, DISK MON,
//!   NET MON, PMC) that register with d-mon and collect kernel state,
//! * [`params`] — the parameter engine: update periods, thresholds
//!   (percent-delta, bounds, ranges) and AND-combinations thereof, applied
//!   per subscriber per metric,
//! * [`control`] — the text protocol written into
//!   `/proc/cluster/<node>/control` files and its parsing into control
//!   messages,
//! * [`dmon`] — the distributed-monitor kernel module, one sub-module
//!   per stage of its loop: `sample` polls the modules, `select` applies
//!   parameters and E-code filters per subscriber, `flow` submits events
//!   on the KECho monitoring channel under credit flow control, `ladder`
//!   degrades under overload, `detector` judges peers and replays
//!   customizations, `receive` consumes incoming events into the local
//!   `/proc/cluster` tree, `digest` is the rack aggregation tier; control
//!   messages (including run-time filter compilation) are handled there
//!   too,
//! * [`cluster`] — the runnable composition: N simulated hosts on a
//!   switched network, one d-mon each, with the discrete-event loop
//!   driving polling, delivery, and workloads,
//! * [`calib`] — every calibration constant in one documented place.
//!
//! # Quickstart
//!
//! ```
//! use dproc::cluster::{ClusterConfig, ClusterSim};
//! use simcore::{SimDur, SimTime};
//!
//! // A 3-node cluster named like the paper's Figure 1.
//! let mut sim = ClusterSim::new(ClusterConfig::named(&["alan", "maui", "etna"]));
//! sim.start();
//! sim.run_until(SimTime::from_secs(5));
//!
//! // maui's view of alan's load average, through /proc.
//! let world = sim.world();
//! let load = world.hosts[1].proc.read("cluster/alan/cpu").unwrap();
//! assert!(load.starts_with("cpu ") && load.contains("ts"), "got: {load}");
//! ```

pub mod calib;
pub mod cluster;
pub mod control;
pub mod dmon;
pub mod modules;
pub(crate) mod node;
pub mod params;
pub(crate) mod pcluster;
pub(crate) mod peers;

pub use calib::Calib;
pub use cluster::{ClusterConfig, ClusterEvent, ClusterSched, ClusterSim, ClusterWorld};
pub use dmon::{DMon, DmonStats, PeerHealth};
pub use params::{PolicySet, Rule};
