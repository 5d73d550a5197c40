//! `simcore` — deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the dproc reproduction. It provides:
//!
//! * [`SimTime`] / [`SimDur`] — nanosecond-resolution instants and durations,
//! * [`Sim`] — a generic discrete-event scheduler parameterised over a world
//!   type `W` (the mutable simulation state), with allocation-free typed
//!   messages and calls of registered (and periodic) handlers in one
//!   queue,
//! * [`rng`] — seedable, reproducible random number generation
//!   (SplitMix64 seeding a Xoshiro256** core) plus small distribution
//!   helpers,
//! * [`stats`] — time-weighted averages, exponentially weighted moving
//!   averages and samplers with percentiles,
//! * [`series`] — time-series recording and tabular export used by the
//!   figure-regeneration harness,
//! * [`parallel`] — a scoped-thread replica runner used by parameter
//!   sweeps,
//! * [`pdes`] — a sharded conservative-window parallel scheduler whose
//!   event order (and therefore every derived observable) is bit-identical
//!   to the serial [`Sim`] run.
//!
//! # Determinism
//!
//! Event ordering is total: events are ordered by `(time, sequence number)`
//! where the sequence number is assigned at scheduling time. Given the same
//! seed and the same schedule of calls, a simulation replays identically.
//!
//! # Example
//!
//! ```
//! use simcore::{Sim, SimTime, SimDur};
//!
//! struct World { ticks: u64 }
//! let mut sim: Sim<World> = Sim::new();
//! let mut world = World { ticks: 0 };
//! // A handler boxed once; each call queues only its id and argument.
//! let add = sim.register(|w: &mut World, _sim: &mut Sim<World>, n: u64| {
//!     w.ticks += n;
//! });
//! sim.call_in(SimDur::from_millis(5), add, 1);
//! sim.call_in(SimDur::from_millis(7), add, 2);
//! sim.run_until(&mut world, SimTime::from_secs(1));
//! assert_eq!(world.ticks, 3);
//! // the clock advances to the requested horizon once the queue drains
//! assert_eq!(sim.now(), SimTime::from_secs(1));
//! ```

pub mod event;
pub mod parallel;
pub mod pdes;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use event::{CallId, HandleMsg, Sim};
pub use rng::SimRng;
pub use time::{SimDur, SimTime};
