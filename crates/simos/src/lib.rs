//! `simos` — a simulated host kernel: the observable substrate that dproc's
//! monitoring modules read.
//!
//! The paper's dproc runs inside Linux 2.4 kernels on quad Pentium Pro
//! nodes and reports run-queue lengths, free memory, disk activity,
//! per-connection network statistics, and CPU performance counters. This
//! crate models a host exposing exactly those observables:
//!
//! * [`cpu`] — a fluid fair-share multi-CPU scheduler with compute tasks
//!   (linpack-style) and service tasks (kernel work), a run-queue history
//!   for windowed load averages, and flop accounting,
//! * [`mem`] — physical memory pages with `nr_free_pages` semantics,
//! * [`disk`] — a FIFO disk with read/write/sector counters and windowed
//!   rates,
//! * [`pmc`] — performance-monitoring counters (cache misses, instructions)
//!   driven by CPU work and by data movement,
//! * [`procfs`] — the `/proc` pseudo-filesystem: a deterministic tree of
//!   text entries with queued control-file writes,
//! * [`host`] — the bundle tying the above together with a connection
//!   table, presenting one simulated machine,
//! * [`workload`] — load generators (linpack batches, disk load).
//!
//! Like `simnet`, everything is a pure state machine: the host advances
//! when told (`advance(now)`) and computes durations for the caller to
//! schedule; it never owns an event loop.

pub mod cpu;
pub mod disk;
pub mod host;
pub mod mem;
pub mod pmc;
pub mod power;
pub mod procfs;
pub mod workload;

pub use cpu::{CpuSched, TaskId, TaskState};
pub use disk::Disk;
pub use host::Host;
pub use mem::Memory;
pub use pmc::Pmc;
pub use power::Battery;
pub use procfs::{CellHandle, ProcFs, ProcHandle, RecordRender};
