//! Sharded, conservative parallel discrete-event simulation.
//!
//! The serial scheduler in [`crate::event`] executes one event at a time in
//! `(time, seq)` order. This module runs the same event population across N
//! worker shards while reproducing that serial order *bit for bit* — the
//! parallel run assigns exactly the same sequence numbers, applies global
//! side effects in exactly the same order, and therefore produces exactly
//! the same world state as a single-threaded run.
//!
//! # Synchronization model
//!
//! Classic conservative time windows in the Chandy–Misra–Bryant tradition:
//! any event can only schedule work on *another* shard at least `lookahead`
//! into its future (in the cluster model, the minimum cross-node network
//! latency — two propagation delays plus two minimum serializations). The
//! engine therefore repeatedly:
//!
//! 1. finds the globally earliest pending event time `t0` (windows are
//!    event-driven; idle stretches are skipped entirely),
//! 2. lets every shard execute its own events in `[t0, t0 + lookahead)`
//!    concurrently against a frozen snapshot of the shared state,
//! 3. replays a deterministic merge of the shards' execution logs to
//!    assign exact sequence numbers and apply cross-shard effects.
//!
//! # The replay that makes it exact
//!
//! During a parallel window a shard cannot know the global sequence number
//! a newly scheduled child event would have received in the serial run
//! (events on other shards interleave). Children therefore get
//! *provisional* keys (`PROV_BIT | k`, per-shard counter `k`). Provisional
//! keys sort after every exact key, which is precisely the serial order for
//! same-time events: every pre-window event's seq is smaller than any seq
//! the serial run would assign during the window. Each shard also logs, per
//! executed event, the list of *emissions* (local children and global
//! effects) in program order — the exact order in which the serial handler
//! would have consumed sequence numbers and touched shared state.
//!
//! At window end the coordinator merges the shard logs by `(time, exact
//! seq)`. A log head's exact seq is always known: either the event predated
//! the window, or its parent ran earlier on the same shard and the merge
//! already assigned it one. Walking the merge in order, every `Local`
//! emission receives the next global sequence number (still-pending
//! children are rekeyed in place in the shard's wheel) and every `Fx`
//! emission is applied — downlink reservations, sampler updates, registry
//! changes — in exact serial position.
//!
//! # Hazard windows
//!
//! Some global state cannot be read against a frozen snapshot: active
//! probabilistic loss consumes RNG draws in delivery order, a revived node
//! rewrites the registry mid-window, and so on. The [`Coordinator`] plans
//! each window; if it detects a hazard it returns [`WindowMode::Serial`]
//! and the engine executes that window on the coordinating thread in exact
//! global order with exclusive access to the shared state (emissions are
//! still logged and replayed per event, so sequence numbering is
//! identical). Fault-free stretches run fully parallel.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};

use crate::event::Wheel;
use crate::time::{SimDur, SimTime};

/// Marks an in-window provisional sequence key. The serial scheduler can
/// never assign a real sequence this large (it would need 2^63 events), so
/// provisional keys sort strictly after every exact key — which is the
/// correct relative order for same-time events scheduled inside the window.
pub const PROV_BIT: u64 = 1 << 63;

/// How the shard worlds see the shared state during a window.
pub enum SharedView<'a, S> {
    /// Parallel window: a frozen snapshot, readable by every shard
    /// concurrently. The planner guarantees no handler needs to mutate it.
    Frozen(&'a S),
    /// Serial (hazard) window: exclusive access, full serial semantics.
    Exclusive(&'a mut S),
}

impl<S> SharedView<'_, S> {
    /// Read access, available in both modes.
    pub fn get(&self) -> &S {
        match self {
            SharedView::Frozen(s) => s,
            SharedView::Exclusive(s) => s,
        }
    }

    /// Write access — `Some` only inside a serial window.
    pub fn get_mut(&mut self) -> Option<&mut S> {
        match self {
            SharedView::Frozen(_) => None,
            SharedView::Exclusive(s) => Some(s),
        }
    }
}

/// One emission of an executed event, logged in program order.
enum LogEmit<Fx> {
    /// A locally scheduled child (`Emit::schedule_at`); consumes one global
    /// sequence number at replay.
    Local { at: u64 },
    /// A global effect; applied by the [`Coordinator`] at replay, in exact
    /// serial position.
    Fx(Fx),
}

/// One executed event in a shard's window log.
struct LogRec {
    at: u64,
    /// The key it was popped with: exact, or provisional for in-window
    /// children.
    key: u64,
    /// Number of entries it appended to the flattened emission list.
    emits: u32,
}

/// A shard's execution log for one window.
struct WindowLog<Fx> {
    records: Vec<LogRec>,
    emits: Vec<LogEmit<Fx>>,
}

impl<Fx> Default for WindowLog<Fx> {
    fn default() -> Self {
        WindowLog {
            records: Vec::new(),
            emits: Vec::new(),
        }
    }
}

/// Emission collector handed to [`ShardWorld::execute`]. Handlers must call
/// `schedule_at`/`fx` in exactly the program order the serial implementation
/// performs the corresponding `schedule` calls and shared-state mutations —
/// that order is what the replay reproduces.
pub struct Emit<'a, Ev, Fx> {
    now: u64,
    wheel: &'a mut Wheel<Ev>,
    emits: &'a mut Vec<LogEmit<Fx>>,
    prov_ctr: &'a mut u64,
}

impl<Ev, Fx> Emit<'_, Ev, Fx> {
    /// The executing event's time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// Schedule a child event on this shard at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, ev: Ev) {
        let a = at.as_nanos();
        assert!(a >= self.now, "cannot schedule into the past: at={at}");
        let key = PROV_BIT | *self.prov_ctr;
        *self.prov_ctr += 1;
        self.wheel.insert(a, key, ev);
        self.emits.push(LogEmit::Local { at: a });
    }

    /// Schedule a child event `after` from now.
    pub fn schedule_in(&mut self, after: SimDur, ev: Ev) {
        let at = SimTime::from_nanos(self.now) + after;
        self.schedule_at(at, ev);
    }

    /// Emit a global effect for the coordinator to apply in serial order.
    pub fn fx(&mut self, fx: Fx) {
        self.emits.push(LogEmit::Fx(fx));
    }
}

/// A shard of the simulated world: the node-local state owned by one worker.
pub trait ShardWorld: Send {
    /// Event payload (the wheel stores these by value).
    type Ev: Send + 'static;
    /// Global effect payload.
    type Fx: Send + 'static;
    /// State shared across shards, owned by the coordinator. Read-only
    /// during parallel windows (all shards hold `&Shared` concurrently).
    type Shared: Send + Sync;

    /// Execute one event. Local children and global effects must be emitted
    /// in the exact program order the serial implementation schedules and
    /// applies them.
    fn execute(
        &mut self,
        now: SimTime,
        ev: Self::Ev,
        out: &mut Emit<'_, Self::Ev, Self::Fx>,
        shared: &mut SharedView<'_, Self::Shared>,
    );
}

/// Window execution mode chosen by the coordinator's planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMode {
    /// Shards run concurrently against frozen shared state.
    Parallel,
    /// The coordinating thread runs the window alone, in exact global
    /// order, with exclusive shared access.
    Serial,
}

/// Cross-shard scheduling handle available while applying effects: inserts
/// carry freshly assigned exact sequence numbers.
pub struct Sched<'s, 'w, Ev> {
    wheels: &'s mut [&'w mut Wheel<Ev>],
    seq: &'s mut u64,
}

impl<Ev> Sched<'_, '_, Ev> {
    /// Schedule `ev` on `shard` at `at` with the next exact sequence
    /// number (the number the serial run would assign at this point).
    pub fn schedule(&mut self, shard: usize, at: SimTime, ev: Ev) -> u64 {
        let seq = *self.seq;
        *self.seq += 1;
        self.wheels[shard].insert(at.as_nanos(), seq, ev);
        seq
    }
}

/// Owner of the shared state transitions: plans each window's mode and
/// applies global effects during replay.
pub trait Coordinator<W: ShardWorld> {
    /// Decide how to run the window `[t0, bound]` (bound inclusive). Must
    /// return [`WindowMode::Serial`] whenever an event in the window could
    /// mutate shared state or observe it mid-mutation.
    fn plan(
        &mut self,
        shared: &W::Shared,
        worlds: &[&W],
        t0: SimTime,
        bound: SimTime,
    ) -> WindowMode;

    /// Apply one global effect emitted by an event at `now`, in exact
    /// serial order. May schedule follow-up events on any shard via `sched`.
    fn apply(
        &mut self,
        now: SimTime,
        fx: W::Fx,
        shared: &mut W::Shared,
        worlds: &mut [&mut W],
        sched: &mut Sched<'_, '_, W::Ev>,
    );
}

/// Per-shard slot: wheel + world + window log, locked as a unit.
struct Slot<W: ShardWorld> {
    wheel: Wheel<W::Ev>,
    world: W,
    log: WindowLog<W::Fx>,
    prov_ctr: u64,
}

impl<W: ShardWorld> Slot<W> {
    /// Run this shard's events in the window (times `<= bound`) against
    /// frozen shared state, logging every emission.
    fn run_window(&mut self, bound: u64, shared: &W::Shared) {
        self.prov_ctr = 0;
        while let Some((at, key, ev)) = self.wheel.pop_min_if(bound) {
            let before = self.log.emits.len();
            let mut out = Emit {
                now: at,
                wheel: &mut self.wheel,
                emits: &mut self.log.emits,
                prov_ctr: &mut self.prov_ctr,
            };
            self.world.execute(
                SimTime::from_nanos(at),
                ev,
                &mut out,
                &mut SharedView::Frozen(shared),
            );
            self.log.records.push(LogRec {
                at,
                key,
                emits: (self.log.emits.len() - before) as u32,
            });
        }
    }
}

/// A sense-reversing spin barrier. Windows are microseconds of work, so an
/// OS-blocking barrier's wakeup latency would dominate; spinning keeps the
/// window turnaround in the nanosecond range, with a yield fallback so long
/// serial phases don't monopolize the machine. When the machine has fewer
/// cores than barrier parties, spinning only steals cycles from whichever
/// thread holds real work — the caller passes `spin_limit = 0` and waiters
/// yield immediately.
struct SpinBarrier {
    n: usize,
    spin_limit: u32,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize, spin_limit: u32) -> Self {
        SpinBarrier {
            n,
            spin_limit,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            if spins < self.spin_limit {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

const OP_RUN: usize = 0;
const OP_SHUTDOWN: usize = 1;

/// Worker control block shared between the coordinating thread and shards.
struct Ctl {
    bound: AtomicU64,
    op: AtomicUsize,
    panicked: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Cumulative engine counters, for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events executed so far.
    pub executed: u64,
    /// Windows run with all shards in parallel.
    pub windows_parallel: u64,
    /// Windows run serially because the planner saw a hazard.
    pub windows_serial: u64,
    /// Parallel-mode windows where only one shard had events, executed
    /// inline on the coordinating thread without a barrier round-trip
    /// (also counted in `windows_parallel`).
    pub windows_inline: u64,
}

/// The sharded parallel scheduler. Owns the per-shard wheels and the global
/// sequence counter; shard worlds and shared state are passed through
/// [`Engine::run_until`] per episode so the application can reassemble and
/// inspect them between runs.
pub struct Engine<W: ShardWorld> {
    wheels: Vec<Wheel<W::Ev>>,
    seq: u64,
    now: u64,
    lookahead: u64,
    stats: EngineStats,
}

impl<W: ShardWorld> Engine<W> {
    /// A new engine with `shards` empty wheels and the given conservative
    /// lookahead (minimum cross-shard scheduling distance).
    pub fn new(shards: usize, lookahead: SimDur) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(!lookahead.is_zero(), "lookahead must be positive");
        Engine {
            wheels: (0..shards).map(|_| Wheel::new()).collect(),
            seq: 0,
            now: 0,
            lookahead: lookahead.as_nanos(),
            stats: EngineStats::default(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.wheels.len()
    }

    /// Current engine time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// Next sequence number to be assigned; equals the serial scheduler's
    /// `seq` after the same schedule of calls — a cheap bit-identity probe.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Total pending events across all shards.
    pub fn pending(&self) -> usize {
        self.wheels.iter().map(Wheel::len).sum()
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Schedule an event on a shard with the next exact sequence number
    /// (used for seeding: initial polls, fault timelines).
    pub fn schedule(&mut self, shard: usize, at: SimTime, ev: W::Ev) -> u64 {
        assert!(
            at.as_nanos() >= self.now,
            "cannot schedule into the past: at={at}"
        );
        let seq = self.seq;
        self.seq += 1;
        self.wheels[shard].insert(at.as_nanos(), seq, ev);
        seq
    }

    /// Run the event population until `until` (inclusive), spawning one
    /// worker thread per shard. `worlds[i]` is shard `i`'s node-local
    /// state; it is returned (reassembled by the caller) when the episode
    /// completes.
    pub fn run_until<C: Coordinator<W>>(
        &mut self,
        worlds: Vec<W>,
        shared: &mut W::Shared,
        coord: &mut C,
        until: SimTime,
    ) -> Vec<W> {
        let n_shards = self.wheels.len();
        assert_eq!(worlds.len(), n_shards, "one world per shard");
        let until = until.as_nanos();
        assert!(until >= self.now, "cannot run backwards");

        let slots: Vec<Mutex<Slot<W>>> = worlds
            .into_iter()
            .zip(self.wheels.drain(..))
            .map(|(world, wheel)| {
                Mutex::new(Slot {
                    wheel,
                    world,
                    log: WindowLog::default(),
                    prov_ctr: 0,
                })
            })
            .collect();
        let shared_lock: RwLock<&mut W::Shared> = RwLock::new(shared);
        // Spin only when every barrier party can own a core; oversubscribed
        // (CI boxes, laptops under load) the spin would displace the one
        // thread making progress.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let spin_limit = if cores > n_shards { 4096 } else { 0 };
        let barrier = SpinBarrier::new(n_shards + 1, spin_limit);
        let ctl = Ctl {
            bound: AtomicU64::new(0),
            op: AtomicUsize::new(OP_RUN),
            panicked: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
        };

        let mut seq = self.seq;
        let mut stats = self.stats;

        let caught = std::thread::scope(|scope| {
            for slot in slots.iter().take(n_shards) {
                let shared_lock = &shared_lock;
                let barrier = &barrier;
                let ctl = &ctl;
                scope.spawn(move || loop {
                    barrier.wait();
                    if ctl.op.load(Ordering::Acquire) == OP_SHUTDOWN {
                        break;
                    }
                    let bound = ctl.bound.load(Ordering::Acquire);
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        let sh = shared_lock.read().expect("shared lock");
                        let mut slot = slot.lock().expect("slot lock");
                        slot.run_window(bound, &**sh);
                    }));
                    if let Err(p) = r {
                        *ctl.panic_payload.lock().expect("panic slot") = Some(p);
                        ctl.panicked.store(true, Ordering::Release);
                    }
                    barrier.wait();
                });
            }

            let main = catch_unwind(AssertUnwindSafe(|| {
                Self::drive(
                    &slots,
                    &shared_lock,
                    coord,
                    &barrier,
                    &ctl,
                    until,
                    self.lookahead,
                    &mut seq,
                    &mut stats,
                );
            }));

            // Always release the workers, even when the main loop panicked,
            // otherwise the scope join below would deadlock on the barrier.
            ctl.op.store(OP_SHUTDOWN, Ordering::Release);
            barrier.wait();
            main.err()
        });

        self.seq = seq;
        self.stats = stats;
        self.now = until;

        // Put the wheels back and hand the worlds to the caller.
        let mut worlds = Vec::with_capacity(n_shards);
        for slot in slots {
            let slot = slot.into_inner().expect("slot lock");
            self.wheels.push(slot.wheel);
            worlds.push(slot.world);
        }

        if let Some(p) = ctl.panic_payload.lock().expect("panic slot").take() {
            resume_unwind(p);
        }
        if let Some(p) = caught {
            resume_unwind(p);
        }
        worlds
    }

    /// The window loop run by the coordinating thread.
    #[allow(clippy::too_many_arguments)]
    fn drive<C: Coordinator<W>>(
        slots: &[Mutex<Slot<W>>],
        shared_lock: &RwLock<&mut W::Shared>,
        coord: &mut C,
        barrier: &SpinBarrier,
        ctl: &Ctl,
        until: u64,
        lookahead: u64,
        seq: &mut u64,
        stats: &mut EngineStats,
    ) {
        // One core means worker dispatch is pure context-switch overhead;
        // keep every window on this thread (still through the parallel
        // code path, so results stay bit-identical).
        let inline_all =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) == 1;
        let mut next_at: Vec<Option<u64>> = vec![None; slots.len()];
        loop {
            if ctl.panicked.load(Ordering::Acquire) {
                return;
            }
            // Event-driven window start: the globally earliest pending time.
            let mut t0 = None;
            for (slot, next) in slots.iter().zip(&mut next_at) {
                let s = slot.lock().expect("slot lock");
                *next = s.wheel.next_key().map(|(at, _)| at);
                if let Some(at) = *next {
                    t0 = Some(t0.map_or(at, |t: u64| t.min(at)));
                }
            }
            let Some(t0) = t0 else { return };
            if t0 > until {
                return;
            }
            // Inclusive bound: any event at `t >= t0` schedules cross-shard
            // work at `t + lookahead > t0 + lookahead - 1`.
            let bound = t0.saturating_add(lookahead - 1).min(until);
            // Shards whose earliest event falls inside the window. New
            // events only appear at `>= t0 + lookahead > bound` (emissions
            // are shard-local; cross-shard work arrives via replay), so a
            // shard idle now stays idle for this whole window.
            let active: usize = next_at
                .iter()
                .filter(|n| n.is_some_and(|at| at <= bound))
                .count();

            let mode = {
                let guards: Vec<MutexGuard<'_, Slot<W>>> =
                    slots.iter().map(|m| m.lock().expect("slot lock")).collect();
                let refs: Vec<&W> = guards.iter().map(|g| &g.world).collect();
                let sh = shared_lock.read().expect("shared lock");
                coord.plan(
                    &**sh,
                    &refs,
                    SimTime::from_nanos(t0),
                    SimTime::from_nanos(bound),
                )
            };

            match mode {
                WindowMode::Serial => {
                    Self::serial_window(slots, shared_lock, coord, bound, seq, stats);
                    stats.windows_serial += 1;
                }
                WindowMode::Parallel if active <= 1 || inline_all => {
                    // Inline execution on this thread: with one busy shard
                    // a barrier round-trip costs more than the window, and
                    // on a single-core machine dispatching to workers only
                    // adds context switches. Same frozen-shared execution
                    // per shard (sequentially), same replay — shard
                    // windows are mutually independent, so execution order
                    // between shards is immaterial.
                    {
                        let sh = shared_lock.read().expect("shared lock");
                        for (slot, next) in slots.iter().zip(&next_at) {
                            if next.is_some_and(|at| at <= bound) {
                                let mut slot = slot.lock().expect("slot lock");
                                slot.run_window(bound, &**sh);
                            }
                        }
                    }
                    Self::replay(slots, shared_lock, coord, seq, stats);
                    stats.windows_parallel += 1;
                    stats.windows_inline += 1;
                }
                WindowMode::Parallel => {
                    ctl.bound.store(bound, Ordering::Release);
                    barrier.wait();
                    // Shards execute their window concurrently here.
                    barrier.wait();
                    if ctl.panicked.load(Ordering::Acquire) {
                        return;
                    }
                    Self::replay(slots, shared_lock, coord, seq, stats);
                    stats.windows_parallel += 1;
                }
            }
        }
    }

    /// Merge the shard logs of a parallel window in exact `(time, seq)`
    /// order, assigning serial sequence numbers to in-window children and
    /// applying global effects in serial position.
    fn replay<C: Coordinator<W>>(
        slots: &[Mutex<Slot<W>>],
        shared_lock: &RwLock<&mut W::Shared>,
        coord: &mut C,
        seq: &mut u64,
        stats: &mut EngineStats,
    ) {
        let n = slots.len();
        let mut guards: Vec<MutexGuard<'_, Slot<W>>> =
            slots.iter().map(|m| m.lock().expect("slot lock")).collect();
        let mut wheels: Vec<&mut Wheel<W::Ev>> = Vec::with_capacity(n);
        let mut worlds: Vec<&mut W> = Vec::with_capacity(n);
        let mut records = Vec::with_capacity(n);
        let mut emits = Vec::with_capacity(n);
        for g in &mut guards {
            let s: &mut Slot<W> = g;
            let log = std::mem::take(&mut s.log);
            wheels.push(&mut s.wheel);
            worlds.push(&mut s.world);
            records.push(log.records.into_iter().peekable());
            emits.push(log.emits.into_iter());
        }
        let mut sh = shared_lock.write().expect("shared lock");
        // Exact seqs already assigned to each shard's in-window children,
        // indexed by provisional id (assignment order == shard log order).
        let mut prov_map: Vec<Vec<u64>> = vec![Vec::new(); n];

        loop {
            // Head with the smallest (time, exact seq). A provisional head
            // key is always resolvable: its parent ran earlier on the same
            // shard, so the merge has already assigned its exact seq.
            let mut best: Option<(u64, u64, usize)> = None;
            for s in 0..n {
                if let Some(r) = records[s].peek() {
                    let key = if r.key & PROV_BIT != 0 {
                        prov_map[s][(r.key & !PROV_BIT) as usize]
                    } else {
                        r.key
                    };
                    if best.is_none_or(|(a, k, _)| (r.at, key) < (a, k)) {
                        best = Some((r.at, key, s));
                    }
                }
            }
            let Some((at, _, s)) = best else { break };
            let rec = records[s].next().expect("peeked record");
            stats.executed += 1;
            let now_t = SimTime::from_nanos(at);
            for _ in 0..rec.emits {
                match emits[s].next().expect("logged emission") {
                    LogEmit::Local { at: child_at } => {
                        let prov_id = prov_map[s].len() as u64;
                        let exact = *seq;
                        *seq += 1;
                        prov_map[s].push(exact);
                        // Still-pending children are promoted in place; a
                        // `false` return means the child already fired
                        // inside the window (its own log record follows).
                        let _ = wheels[s].rekey(child_at, PROV_BIT | prov_id, exact);
                    }
                    LogEmit::Fx(fx) => {
                        let mut sched = Sched {
                            wheels: &mut wheels,
                            seq,
                        };
                        coord.apply(now_t, fx, &mut **sh, &mut worlds, &mut sched);
                    }
                }
            }
        }
    }

    /// Execute one hazard window on the coordinating thread in exact global
    /// `(time, seq)` order with exclusive shared access. Each event's
    /// emissions are replayed immediately, so ordering and sequence
    /// numbering are identical to the serial scheduler's.
    fn serial_window<C: Coordinator<W>>(
        slots: &[Mutex<Slot<W>>],
        shared_lock: &RwLock<&mut W::Shared>,
        coord: &mut C,
        bound: u64,
        seq: &mut u64,
        stats: &mut EngineStats,
    ) {
        let n = slots.len();
        let mut guards: Vec<MutexGuard<'_, Slot<W>>> =
            slots.iter().map(|m| m.lock().expect("slot lock")).collect();
        let mut wheels: Vec<&mut Wheel<W::Ev>> = Vec::with_capacity(n);
        let mut worlds: Vec<&mut W> = Vec::with_capacity(n);
        for g in &mut guards {
            let s: &mut Slot<W> = g;
            wheels.push(&mut s.wheel);
            worlds.push(&mut s.world);
        }
        let mut sh = shared_lock.write().expect("shared lock");
        let mut emits: Vec<LogEmit<W::Fx>> = Vec::new();

        loop {
            let mut best: Option<(u64, u64, usize)> = None;
            for (s, wheel) in wheels.iter().enumerate() {
                if let Some((at, key)) = wheel.next_key() {
                    if at <= bound && best.is_none_or(|(a, k, _)| (at, key) < (a, k)) {
                        best = Some((at, key, s));
                    }
                }
            }
            let Some((_, _, s)) = best else { break };
            let (at, _key, ev) = wheels[s].pop_min_if(bound).expect("peeked event");
            stats.executed += 1;
            let now_t = SimTime::from_nanos(at);
            let mut prov_ctr = 0u64;
            {
                let mut out = Emit {
                    now: at,
                    wheel: wheels[s],
                    emits: &mut emits,
                    prov_ctr: &mut prov_ctr,
                };
                worlds[s].execute(now_t, ev, &mut out, &mut SharedView::Exclusive(&mut **sh));
            }
            // Immediate per-event replay: exact seqs in emission order.
            let mut local_id = 0u64;
            for e in emits.drain(..) {
                match e {
                    LogEmit::Local { at: child_at } => {
                        let exact = *seq;
                        *seq += 1;
                        let promoted = wheels[s].rekey(child_at, PROV_BIT | local_id, exact);
                        debug_assert!(promoted, "serial-window child vanished before replay");
                        local_id += 1;
                    }
                    LogEmit::Fx(fx) => {
                        let mut sched = Sched {
                            wheels: &mut wheels,
                            seq,
                        };
                        coord.apply(now_t, fx, &mut **sh, &mut worlds, &mut sched);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Sim;

    // A toy model exercised both through the serial `Sim` and the parallel
    // engine: a ring of counters. Every PERIOD each node ticks — bumping a
    // local counter, spawning a short same-shard chain, sending its running
    // total to the next node (a cross-shard message with DELAY latency) —
    // and re-arms itself. The shared state logs every cross-shard send in
    // application order, which only matches between runs if the global
    // event order matches.
    const PERIOD: u64 = 5_000; // ns
    const DELAY: u64 = 1_000; // ns == lookahead
    const CHAIN: u64 = 3; // ns between chain links (fires in-window)

    #[derive(Debug, Clone, PartialEq)]
    struct ToyNode {
        id: usize,
        ticks: u64,
        chained: u64,
        received: u64,
    }

    #[derive(Debug, Clone)]
    enum TEv {
        Tick { i: usize },
        Chain { i: usize, depth: u8 },
        Recv { i: usize, val: u64 },
    }

    enum TFx {
        Send { from: usize, to: usize, val: u64 },
    }

    struct ToyShared {
        n: usize,
        shard_of: Vec<usize>,
        trace: Vec<(u64, String)>,
    }

    struct ToyShard {
        nodes: Vec<ToyNode>,
        local: Vec<usize>, // global id -> local index (usize::MAX elsewhere)
    }

    fn tick_node(node: &mut ToyNode) -> u64 {
        node.ticks += 1;
        node.ticks * 10 + node.received
    }

    impl ShardWorld for ToyShard {
        type Ev = TEv;
        type Fx = TFx;
        type Shared = ToyShared;

        fn execute(
            &mut self,
            now: SimTime,
            ev: TEv,
            out: &mut Emit<'_, TEv, TFx>,
            shared: &mut SharedView<'_, ToyShared>,
        ) {
            let n = shared.get().n;
            match ev {
                TEv::Tick { i } => {
                    let node = &mut self.nodes[self.local[i]];
                    let val = tick_node(node);
                    out.schedule_in(SimDur::from_nanos(CHAIN), TEv::Chain { i, depth: 2 });
                    out.fx(TFx::Send {
                        from: i,
                        to: (i + 1) % n,
                        val,
                    });
                    // Re-arm last, like a periodic timer re-arming after
                    // its handler returns.
                    out.schedule_at(now + SimDur::from_nanos(PERIOD), TEv::Tick { i });
                }
                TEv::Chain { i, depth } => {
                    self.nodes[self.local[i]].chained += depth as u64;
                    if depth > 0 {
                        out.schedule_in(
                            SimDur::from_nanos(CHAIN),
                            TEv::Chain {
                                i,
                                depth: depth - 1,
                            },
                        );
                    }
                }
                TEv::Recv { i, val } => {
                    self.nodes[self.local[i]].received = self.nodes[self.local[i]]
                        .received
                        .wrapping_mul(3)
                        .wrapping_add(val);
                }
            }
        }
    }

    struct ToyCoord {
        force_serial_every: Option<u64>,
        windows_seen: u64,
    }

    impl Coordinator<ToyShard> for ToyCoord {
        fn plan(
            &mut self,
            _shared: &ToyShared,
            _worlds: &[&ToyShard],
            _t0: SimTime,
            _bound: SimTime,
        ) -> WindowMode {
            self.windows_seen += 1;
            match self.force_serial_every {
                Some(k) if self.windows_seen.is_multiple_of(k) => WindowMode::Serial,
                _ => WindowMode::Parallel,
            }
        }

        fn apply(
            &mut self,
            now: SimTime,
            fx: TFx,
            shared: &mut ToyShared,
            _worlds: &mut [&mut ToyShard],
            sched: &mut Sched<'_, '_, TEv>,
        ) {
            let TFx::Send { from, to, val } = fx;
            shared
                .trace
                .push((now.as_nanos(), format!("{from}->{to}:{val}")));
            sched.schedule(
                shared.shard_of[to],
                now + SimDur::from_nanos(DELAY),
                TEv::Recv { i: to, val },
            );
        }
    }

    struct RunResult {
        nodes: Vec<ToyNode>,
        trace: Vec<(u64, String)>,
        executed: u64,
    }

    fn run_parallel(
        n: usize,
        shards: usize,
        horizon_ns: u64,
        serial_every: Option<u64>,
    ) -> RunResult {
        let mut engine: Engine<ToyShard> = Engine::new(shards, SimDur::from_nanos(DELAY));
        let shard_of: Vec<usize> = (0..n).map(|i| i % shards).collect();
        let mut worlds: Vec<ToyShard> = (0..shards)
            .map(|_| ToyShard {
                nodes: Vec::new(),
                local: vec![usize::MAX; n],
            })
            .collect();
        for (i, &s) in shard_of.iter().enumerate() {
            worlds[s].local[i] = worlds[s].nodes.len();
            worlds[s].nodes.push(ToyNode {
                id: i,
                ticks: 0,
                chained: 0,
                received: 0,
            });
        }
        let mut shared = ToyShared {
            n,
            shard_of,
            trace: Vec::new(),
        };
        let mut coord = ToyCoord {
            force_serial_every: serial_every,
            windows_seen: 0,
        };
        // Seed in node order, like the serial run's schedule calls.
        for i in 0..n {
            engine.schedule(
                shared.shard_of[i],
                SimTime::from_nanos(PERIOD + i as u64 * 7),
                TEv::Tick { i },
            );
        }
        // Split across two episodes to exercise engine persistence.
        let mid = SimTime::from_nanos(horizon_ns / 2);
        let worlds = engine.run_until(worlds, &mut shared, &mut coord, mid);
        let worlds = engine.run_until(
            worlds,
            &mut shared,
            &mut coord,
            SimTime::from_nanos(horizon_ns),
        );
        let mut nodes: Vec<ToyNode> = worlds.into_iter().flat_map(|w| w.nodes).collect();
        nodes.sort_by_key(|t| t.id);
        RunResult {
            nodes,
            trace: shared.trace,
            executed: engine.stats().executed,
        }
    }

    /// The same model on the serial scheduler, with schedule calls in the
    /// same program order.
    fn run_serial(n: usize, horizon_ns: u64) -> RunResult {
        struct World {
            nodes: Vec<ToyNode>,
            trace: Vec<(u64, String)>,
        }
        fn tick(i: usize, n: usize) -> impl FnOnce(&mut World, &mut Sim<World>) {
            move |w, sim| {
                let now = sim.now();
                let val = tick_node(&mut w.nodes[i]);
                sim.schedule_in(SimDur::from_nanos(CHAIN), chain(i, 2));
                let to = (i + 1) % n;
                w.trace.push((now.as_nanos(), format!("{i}->{to}:{val}")));
                sim.schedule_in(SimDur::from_nanos(DELAY), recv(to, val));
                sim.schedule_at(now + SimDur::from_nanos(PERIOD), tick(i, n));
            }
        }
        type Handler = Box<dyn FnOnce(&mut World, &mut Sim<World>)>;
        fn chain(i: usize, depth: u8) -> Handler {
            Box::new(move |w, sim| {
                w.nodes[i].chained += depth as u64;
                if depth > 0 {
                    sim.schedule_in(SimDur::from_nanos(CHAIN), chain(i, depth - 1));
                }
            })
        }
        fn recv(i: usize, val: u64) -> impl FnOnce(&mut World, &mut Sim<World>) {
            move |w, _sim| {
                w.nodes[i].received = w.nodes[i].received.wrapping_mul(3).wrapping_add(val);
            }
        }
        let mut sim: Sim<World> = Sim::new();
        let mut world = World {
            nodes: (0..n)
                .map(|i| ToyNode {
                    id: i,
                    ticks: 0,
                    chained: 0,
                    received: 0,
                })
                .collect(),
            trace: Vec::new(),
        };
        for i in 0..n {
            sim.schedule_at(SimTime::from_nanos(PERIOD + i as u64 * 7), tick(i, n));
        }
        sim.run_until(&mut world, SimTime::from_nanos(horizon_ns));
        RunResult {
            nodes: world.nodes,
            trace: world.trace,
            executed: sim.executed(),
        }
    }

    #[test]
    fn parallel_matches_serial_scheduler() {
        let serial = run_serial(9, 200_000);
        for shards in [1, 2, 4, 8] {
            let par = run_parallel(9, shards, 200_000, None);
            assert_eq!(par.nodes, serial.nodes, "{shards} shards: node state");
            assert_eq!(par.trace, serial.trace, "{shards} shards: effect order");
            assert_eq!(par.executed, serial.executed, "{shards} shards: executed");
        }
    }

    #[test]
    fn hazard_windows_preserve_the_order() {
        let all_parallel = run_parallel(7, 4, 150_000, None);
        for every in [1, 2, 3] {
            let mixed = run_parallel(7, 4, 150_000, Some(every));
            assert_eq!(mixed.nodes, all_parallel.nodes, "serial every {every}");
            assert_eq!(mixed.trace, all_parallel.trace, "serial every {every}");
            assert_eq!(mixed.executed, all_parallel.executed);
        }
    }

    #[test]
    fn engine_seq_matches_schedule_count() {
        // Every event schedules: Tick -> chain + recv + re-arm (3),
        // Chain(depth>0) -> 1, Recv -> 0. The exact count is not the
        // point — equality across shard counts is.
        let mut seqs = Vec::new();
        for shards in [1, 3, 5] {
            let mut engine: Engine<ToyShard> = Engine::new(shards, SimDur::from_nanos(DELAY));
            let shard_of: Vec<usize> = (0..6).map(|i| i % shards).collect();
            let mut worlds: Vec<ToyShard> = (0..shards)
                .map(|_| ToyShard {
                    nodes: Vec::new(),
                    local: vec![usize::MAX; 6],
                })
                .collect();
            for (i, &s) in shard_of.iter().enumerate() {
                worlds[s].local[i] = worlds[s].nodes.len();
                worlds[s].nodes.push(ToyNode {
                    id: i,
                    ticks: 0,
                    chained: 0,
                    received: 0,
                });
            }
            let mut shared = ToyShared {
                n: 6,
                shard_of,
                trace: Vec::new(),
            };
            let mut coord = ToyCoord {
                force_serial_every: None,
                windows_seen: 0,
            };
            for i in 0..6 {
                engine.schedule(
                    shared.shard_of[i],
                    SimTime::from_nanos(PERIOD + i as u64),
                    TEv::Tick { i },
                );
            }
            engine.run_until(worlds, &mut shared, &mut coord, SimTime::from_nanos(60_000));
            seqs.push(engine.seq());
        }
        assert!(seqs.windows(2).all(|w| w[0] == w[1]), "seqs {seqs:?}");
    }

    #[test]
    fn worker_panics_propagate() {
        struct Bomb;
        impl ShardWorld for Bomb {
            type Ev = ();
            type Fx = ();
            type Shared = ();
            fn execute(
                &mut self,
                _now: SimTime,
                (): (),
                _out: &mut Emit<'_, (), ()>,
                _shared: &mut SharedView<'_, ()>,
            ) {
                panic!("boom");
            }
        }
        struct NopCoord;
        impl Coordinator<Bomb> for NopCoord {
            fn plan(&mut self, (): &(), _w: &[&Bomb], _t0: SimTime, _b: SimTime) -> WindowMode {
                WindowMode::Parallel
            }
            fn apply(
                &mut self,
                _now: SimTime,
                (): (),
                (): &mut (),
                _worlds: &mut [&mut Bomb],
                _sched: &mut Sched<'_, '_, ()>,
            ) {
            }
        }
        let r = catch_unwind(AssertUnwindSafe(|| {
            let mut engine: Engine<Bomb> = Engine::new(2, SimDur::from_nanos(100));
            engine.schedule(0, SimTime::from_nanos(10), ());
            let mut shared = ();
            engine.run_until(
                vec![Bomb, Bomb],
                &mut shared,
                &mut NopCoord,
                SimTime::from_nanos(1_000),
            );
        }));
        assert!(r.is_err(), "shard panic must reach the caller");
    }
}
