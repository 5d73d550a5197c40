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
//! 2. publishes the window `[t0, t0 + lookahead)` and lets whoever is free
//!    *claim* its shards off one atomic counter: the coordinating thread
//!    claims and runs shards itself, and `min(shards, cores) - 1` workers
//!    claim whatever it has not reached yet. Every claimed shard executes
//!    its own events against a frozen snapshot of the shared state; the
//!    coordinating thread waits only for shards another thread has claimed
//!    and not finished. A worker that wakes late finds nothing left and
//!    costs nothing; with one usable core no worker exists and the
//!    coordinating thread runs every shard in turn,
//! 3. merges the shards' execution logs on the coordinating thread to
//!    assign exact sequence numbers and apply global effects (phase A),
//! 4. lets the shards, claimed the same way, take the posts addressed to
//!    them, each in merge order (phase B).
//!
//! Which thread ran which shard never shows in a result: shard windows are
//! mutually independent, the merge in step 3 is pure data, and in step 4 a
//! shard touches only its own state. Nor does it
//! show in an allocator count, provided what a shard's handlers reuse
//! lives in the [`ShardWorld`] and not in the thread that claimed it (the
//! cluster's shards each own their record pool and lend it to that
//! thread); see [`EngineStats`].
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
//! executed event, the list of *emissions* in program order — the exact
//! order in which the serial handler would have consumed sequence numbers
//! and touched shared state: local children, global effects ([`Emit::fx`])
//! and posts to a shard ([`Emit::post`]). A post's payload stays in an
//! outbox the engine keeps for each (source, destination) pair; the log
//! holds only its destination.
//!
//! Phase A merges the shard logs by `(time, exact seq)` on the
//! coordinating thread. A log head's exact seq is always known: either the
//! event predated the window, or its parent ran earlier on the same shard
//! and the merge already assigned it one. Walking the merge in order,
//! every `Local` emission receives the next global sequence number
//! (still-pending children are rekeyed in place in the shard's wheel),
//! every `Fx` is applied ([`Coordinator::apply`]) and every post takes the
//! next number too, is shown to [`Coordinator::route`] and joins its
//! destination's worklist — all in exact serial position. The outboxes
//! then change hands, a swap of queue headers per pair: no payload moves
//! on the coordinating thread.
//!
//! Phase B lets each destination shard take its posts in merge order
//! through [`ShardWorld::receive`], which may schedule one event under
//! the number phase A gave the post ([`Receipt`]). A post takes its number
//! even when the hook schedules nothing, so numbering, and with it
//! [`Engine::seq`], does not depend on what the hooks decide; a serial
//! model that drops such a message skips one number the same way. This
//! is exact as long as a receive hook touches only state that no handler
//! and no `Fx` reads or writes inside the window (in the cluster: the
//! receiver's downlink): every such piece of state then sees its updates
//! in serial order, restricted to itself. The next window is planned only
//! after phase B, so window boundaries do not depend on it either.

//! # Hazard windows
//!
//! Some global state cannot be read against a frozen snapshot: active
//! probabilistic loss consumes RNG draws in delivery order, a revived node
//! rewrites the registry mid-window, and so on. The [`Coordinator`] plans
//! each window; if it detects a hazard it returns [`WindowMode::Serial`]
//! and the engine runs that window on the coordinating thread as a run of
//! one-event windows: it picks the globally earliest event, executes it
//! with exclusive access to the shared state, merges its log (phase A)
//! and lets its posts be received (phase B) before it picks the next. So
//! order and numbering are the serial scheduler's, and no lookahead is
//! needed. A post is received after its event's other emissions have
//! been merged, which is exact under the receive hook's contract above.
//! Fault-free stretches run fully parallel.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};
use std::thread::Thread;

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

/// One emission of an executed event, logged in program order.
enum LogEmit<Fx> {
    /// A locally scheduled child (`Emit::schedule_at`); consumes one global
    /// sequence number at replay.
    Local { at: u64 },
    /// A global effect; applied by the [`Coordinator`] at replay, in exact
    /// serial position.
    Fx(Fx),
    /// A post to shard `dst` (`Emit::post`), whose payload waits in the
    /// outbox for `dst`; consumes one global sequence number at replay.
    Post { dst: u32 },
}

/// One executed event in a shard's window log.
#[derive(Clone, Copy)]
struct LogRec {
    at: u64,
    /// The key it was popped with: exact, or provisional for in-window
    /// children.
    key: u64,
    /// Number of entries it appended to the flattened emission list.
    emits: u32,
}

/// A post on its destination shard's worklist: the shard that sent it,
/// the posting event's time, and the sequence number phase A gave it.
#[derive(Clone, Copy)]
struct Arrival {
    src: u32,
    at: u64,
    seq: u64,
}

/// A shard's execution log for one window, the replay's place in it, and
/// the shard's mail. The buffers are cleared, not dropped, when a window
/// has been replayed, and the [`Engine`] keeps them from one `run_until`
/// to the next: after the first few windows a log holds its working size
/// and logging allocates nothing.
struct WindowLog<W: ShardWorld> {
    records: Vec<LogRec>,
    emits: Vec<LogEmit<W::Fx>>,
    /// Exact sequence numbers the replay has assigned to this shard's
    /// in-window children so far, indexed by provisional id (assignment
    /// order == log order).
    prov: Vec<u64>,
    /// The provisional id the next child logged in this window takes.
    next_prov: u64,
    /// How many of `records` and `emits` the replay has consumed.
    next_rec: usize,
    next_emit: usize,
    /// The payloads this shard posted in the window, by destination, in
    /// program order.
    out: Vec<VecDeque<W::Post>>,
    /// How many of each `out` queue phase A has routed.
    routed: Vec<usize>,
    /// The payloads posted to this shard, by source: each a source's `out`
    /// queue, lent from the end of phase A to the end of phase B.
    inn: Vec<VecDeque<W::Post>>,
    /// The posts to this shard in merge order: phase B's worklist.
    arrivals: Vec<Arrival>,
}

impl<W: ShardWorld> WindowLog<W> {
    fn new(shards: usize) -> Self {
        WindowLog {
            records: Vec::new(),
            emits: Vec::new(),
            prov: Vec::new(),
            next_prov: 0,
            next_rec: 0,
            next_emit: 0,
            out: (0..shards).map(|_| VecDeque::new()).collect(),
            routed: vec![0; shards],
            inn: (0..shards).map(|_| VecDeque::new()).collect(),
            arrivals: Vec::new(),
        }
    }

    /// `(time, exact seq)` of the next record to replay. A provisional key
    /// is always resolvable: its parent ran earlier on the same shard, so
    /// the merge has already assigned its exact seq.
    fn head(&self) -> Option<(u64, u64)> {
        let r = self.records.get(self.next_rec)?;
        let key = if r.key & PROV_BIT != 0 {
            self.prov[(r.key & !PROV_BIT) as usize]
        } else {
            r.key
        };
        Some((r.at, key))
    }

    /// Consume the head record; returns how many emissions follow it.
    fn pop_record(&mut self) -> u32 {
        let r = self.records[self.next_rec];
        self.next_rec += 1;
        r.emits
    }

    /// Consume the next logged emission.
    fn pop_emit(&mut self) -> LogEmit<W::Fx> {
        let e = std::mem::replace(&mut self.emits[self.next_emit], LogEmit::Local { at: 0 });
        self.next_emit += 1;
        e
    }

    fn clear(&mut self) {
        self.records.clear();
        self.emits.clear();
        self.prov.clear();
        self.next_prov = 0;
        self.next_rec = 0;
        self.next_emit = 0;
    }
}

/// Emission collector handed to [`ShardWorld::execute`]. Handlers must call
/// `schedule_at`/`fx`/`post` in exactly the program order the serial
/// implementation performs the corresponding `schedule` calls and
/// shared-state mutations — that order is what the replay reproduces.
pub struct Emit<'a, W: ShardWorld> {
    now: u64,
    wheel: &'a mut Wheel<W::Ev>,
    emits: &'a mut Vec<LogEmit<W::Fx>>,
    out: &'a mut [VecDeque<W::Post>],
    prov_ctr: &'a mut u64,
}

impl<W: ShardWorld> Emit<'_, W> {
    /// The executing event's time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// Schedule a child event on this shard at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, ev: W::Ev) {
        let a = at.as_nanos();
        assert!(a >= self.now, "cannot schedule into the past: at={at}");
        let key = PROV_BIT | *self.prov_ctr;
        *self.prov_ctr += 1;
        self.wheel.insert(a, key, ev);
        self.emits.push(LogEmit::Local { at: a });
    }

    /// Schedule a child event `after` from now.
    pub fn schedule_in(&mut self, after: SimDur, ev: W::Ev) {
        let at = SimTime::from_nanos(self.now) + after;
        self.schedule_at(at, ev);
    }

    /// Emit a global effect for the coordinator to apply in serial order.
    pub fn fx(&mut self, fx: W::Fx) {
        self.emits.push(LogEmit::Fx(fx));
    }

    /// Post `msg` to `shard` (this one included). It takes the next
    /// sequence number at this point of the serial order, is shown to
    /// [`Coordinator::route`] there, and reaches `shard`'s
    /// [`ShardWorld::receive`] after the window's merge, in merge order.
    pub fn post(&mut self, shard: usize, msg: W::Post) {
        self.out[shard].push_back(msg);
        self.emits.push(LogEmit::Post { dst: shard as u32 });
    }
}

/// What a receive hook may schedule: one event, under the sequence number
/// its post took in the merge.
pub struct Receipt<'a, Ev> {
    wheel: &'a mut Wheel<Ev>,
    seq: u64,
    /// While a parallel window's posts are received: its inclusive bound,
    /// which nothing scheduled here may fall inside.
    window_bound: Option<u64>,
}

impl<Ev> Receipt<'_, Ev> {
    /// Schedule `ev` on the receiving shard at `at`, under the post's
    /// sequence number.
    ///
    /// # Panics
    ///
    /// Inside a parallel window's bound, as [`Sched::schedule`] does.
    pub fn schedule_at(self, at: SimTime, ev: Ev) {
        check_lookahead(self.window_bound, at);
        self.wheel.insert(at.as_nanos(), self.seq, ev);
    }
}

/// The lookahead promise: work scheduled while a parallel window is
/// replayed falls past its bound.
fn check_lookahead(window_bound: Option<u64>, at: SimTime) {
    if let Some(bound) = window_bound {
        assert!(
            at.as_nanos() > bound,
            "lookahead violated: an effect scheduled work at {at}, inside a parallel \
             window that runs to {}",
            SimTime::from_nanos(bound)
        );
    }
}

/// A shard of the simulated world: the node-local state owned by one worker.
pub trait ShardWorld: Send + Sized {
    /// Event payload (the wheel stores these by value).
    type Ev: Send + 'static;
    /// Global effect payload.
    type Fx: Send + 'static;
    /// Payload of a post to a shard ([`Emit::post`]).
    type Post: Send + 'static;
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
        out: &mut Emit<'_, Self>,
        shared: &mut SharedView<'_, Self::Shared>,
    );

    /// Take one post addressed to this shard, sent by an event at `now`,
    /// in merge order after its window's merge (phase B); in a serial
    /// window, before the next event runs. It may schedule one event under
    /// the post's sequence number. It must touch only state that no handler
    /// and no global effect reads or writes inside a window (see the module
    /// docs).
    fn receive(&mut self, now: SimTime, post: Self::Post, receipt: Receipt<'_, Self::Ev>);
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
pub struct Sched<'s, 'g, Ev> {
    wheels: &'s mut [MutexGuard<'g, Wheel<Ev>>],
    seq: &'s mut u64,
    /// While a parallel window is replayed: its inclusive bound, which
    /// nothing scheduled here may fall inside.
    window_bound: Option<u64>,
}

impl<Ev> Sched<'_, '_, Ev> {
    /// Schedule `ev` on `shard` at `at` with the next exact sequence
    /// number (the number the serial run would assign at this point).
    ///
    /// # Panics
    ///
    /// While a parallel window is replayed, if `at` is not past the
    /// window: every shard has already run its events up to the bound, so
    /// the event would execute after later ones. The lookahead the engine
    /// was built with is the coordinator's promise that this cannot
    /// happen. (A serial window re-picks the global minimum after every
    /// event, so there any `at` is in order.)
    pub fn schedule(&mut self, shard: usize, at: SimTime, ev: Ev) -> u64 {
        check_lookahead(self.window_bound, at);
        let seq = *self.seq;
        *self.seq += 1;
        self.wheels[shard].insert(at.as_nanos(), seq, ev);
        seq
    }
}

/// Every shard's world, indexed by shard, as the coordinator sees them
/// between the handler phases of two windows.
pub struct Worlds<'s, 'g, W: ShardWorld> {
    shards: &'s mut [MutexGuard<'g, Shard<W>>],
}

impl<W: ShardWorld> Worlds<'_, '_, W> {
    /// The worlds in shard order.
    pub fn iter(&self) -> impl Iterator<Item = &W> {
        self.shards.iter().map(|s| &s.world)
    }
}

impl<W: ShardWorld> Index<usize> for Worlds<'_, '_, W> {
    type Output = W;
    fn index(&self, shard: usize) -> &W {
        &self.shards[shard].world
    }
}

impl<W: ShardWorld> IndexMut<usize> for Worlds<'_, '_, W> {
    fn index_mut(&mut self, shard: usize) -> &mut W {
        &mut self.shards[shard].world
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
        worlds: &Worlds<'_, '_, W>,
        t0: SimTime,
        bound: SimTime,
    ) -> WindowMode;

    /// Apply one global effect emitted by an event at `now`, in exact
    /// serial order. May schedule follow-up events on any shard via
    /// `sched` — in a parallel window only past the window's bound, which
    /// is what the engine's lookahead promises ([`Sched::schedule`]).
    fn apply(
        &mut self,
        now: SimTime,
        fx: W::Fx,
        shared: &mut W::Shared,
        worlds: &mut Worlds<'_, '_, W>,
        sched: &mut Sched<'_, '_, W::Ev>,
    );

    /// Look at a post sent by an event at `now`, at its place in the
    /// serial order and before its destination receives it: where a post
    /// updates state that every shard shares. Does nothing by default.
    fn route(&mut self, _now: SimTime, _post: &mut W::Post, _shared: &mut W::Shared) {}
}

/// A shard's world and window log. A shard and its wheel each sit behind a
/// mutex of their own — whoever claims the shard for a window or for its
/// posts locks both, and between those phases the coordinating thread
/// holds every one — so that a replay can lend out all worlds ([`Worlds`])
/// and all wheels ([`Sched`]) at once.
struct Shard<W: ShardWorld> {
    world: W,
    log: WindowLog<W>,
}

impl<W: ShardWorld> Shard<W> {
    /// Run this shard's events in the window (times `<= bound`) against
    /// frozen shared state, logging every emission.
    fn run_window(&mut self, wheel: &mut Wheel<W::Ev>, bound: u64, shared: &W::Shared) {
        let mut view = SharedView::Frozen(shared);
        while self.run_event(wheel, bound, &mut view) {}
    }

    /// Pop this shard's earliest event at or before `bound` and execute it
    /// into the window log, under one record. False when there is none.
    fn run_event(
        &mut self,
        wheel: &mut Wheel<W::Ev>,
        bound: u64,
        shared: &mut SharedView<'_, W::Shared>,
    ) -> bool {
        let Some((at, key, ev)) = wheel.pop_min_if(bound) else {
            return false;
        };
        let log = &mut self.log;
        let before = log.emits.len();
        let mut out = Emit {
            now: at,
            wheel,
            emits: &mut log.emits,
            out: &mut log.out,
            prov_ctr: &mut log.next_prov,
        };
        self.world
            .execute(SimTime::from_nanos(at), ev, &mut out, shared);
        let emits = (log.emits.len() - before) as u32;
        log.records.push(LogRec { at, key, emits });
        true
    }

    /// Phase B: take the posts phase A put on this shard's worklist, in
    /// merge order.
    fn receive_posts(&mut self, wheel: &mut Wheel<W::Ev>, window_bound: Option<u64>) {
        let log = &mut self.log;
        for a in log.arrivals.drain(..) {
            let post = log.inn[a.src as usize]
                .pop_front()
                .expect("a post per arrival");
            let receipt = Receipt {
                wheel: &mut *wheel,
                seq: a.seq,
                window_bound,
            };
            self.world.receive(SimTime::from_nanos(a.at), post, receipt);
        }
    }
}

/// How long a waiting thread polls before it gives the core away: a worker
/// with nothing to claim parks, the coordinating thread waiting for a
/// claimed shard yields. A replay between two dense windows is shorter
/// than this, so through a stretch of them a worker stays awake and is
/// woken by nothing but a store.
const POLL_SPINS: u32 = 1 << 12;

/// The claim state of the published window, shared by the coordinating
/// thread and the workers.
///
/// `next.store(0, Release)` opens a window and publishes `bound` and the
/// reset of `done` with it; a claim is `next.fetch_add(1, AcqRel)`
/// returning an index below `n`, which reads that store or a later claim
/// in its release sequence, so whoever holds a claim sees the bound of the
/// window the claim belongs to. A window stays open until `done` reaches
/// `n` — every index claimed and finished — so a thread that was
/// descheduled between looking at `next` and claiming gets either nothing
/// or a shard of the then-current window, never a stale one.
struct Ctl {
    n: usize,
    /// Inclusive bound of the published window.
    bound: AtomicU64,
    /// Whether the published claim is for the window's posts (phase B)
    /// rather than its events.
    receiving: AtomicBool,
    /// Next unclaimed shard of the published window; `>= n` when there is
    /// nothing to claim.
    next: AtomicUsize,
    /// Shards of the published window finished so far. The `Release`
    /// increment follows the claimant's unlocks; the coordinating thread's
    /// `Acquire` load of `n` precedes its replay.
    done: AtomicUsize,
    shutdown: AtomicBool,
    /// The first panic a claimed shard raised, on whichever thread.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    panicked: AtomicBool,
}

impl Ctl {
    fn new(n: usize) -> Self {
        Ctl {
            n,
            bound: AtomicU64::new(0),
            receiving: AtomicBool::new(false),
            next: AtomicUsize::new(n),
            done: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            panicked: AtomicBool::new(false),
        }
    }

    fn publish(&self, bound: u64, receiving: bool) {
        self.bound.store(bound, Ordering::Relaxed);
        self.receiving.store(receiving, Ordering::Relaxed);
        self.done.store(0, Ordering::Relaxed);
        self.next.store(0, Ordering::Release);
    }

    fn open(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.n
    }

    fn claim(&self) -> Option<usize> {
        // Look first: polling with the `fetch_add` would run the counter
        // up while no window is open.
        if !self.open() {
            return None;
        }
        let i = self.next.fetch_add(1, Ordering::AcqRel);
        (i < self.n).then_some(i)
    }

    /// Wait for the shards other threads have claimed.
    fn wait_done(&self) {
        let mut spins = 0;
        while self.done.load(Ordering::Acquire) < self.n {
            if spins < POLL_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// What one `run_until` shares between the coordinating thread and its
/// workers.
struct Crew<'a, W: ShardWorld> {
    wheels: &'a [Mutex<Wheel<W::Ev>>],
    shards: &'a [Mutex<Shard<W>>],
    shared: &'a RwLock<&'a mut W::Shared>,
    ctl: &'a Ctl,
}

impl<W: ShardWorld> Clone for Crew<'_, W> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<W: ShardWorld> Copy for Crew<'_, W> {}

impl<W: ShardWorld> Crew<'_, W> {
    /// Claim shards of the open round until none is left and run each:
    /// its events, or its posts. Every thread of the crew runs a round
    /// through this, the coordinating thread included, so a panicking
    /// shard is handled the same wherever it was claimed: the payload is
    /// kept for `run_until` to re-raise and the shard still counts as
    /// done, which is what lets the round close.
    fn claim_and_run(&self) {
        let ctl = self.ctl;
        while let Some(i) = ctl.claim() {
            let bound = ctl.bound.load(Ordering::Relaxed);
            let receiving = ctl.receiving.load(Ordering::Relaxed);
            let r = catch_unwind(AssertUnwindSafe(|| {
                let mut wheel = self.wheels[i].lock().expect("wheel lock");
                let mut shard = self.shards[i].lock().expect("shard lock");
                if receiving {
                    shard.receive_posts(&mut wheel, Some(bound));
                } else {
                    let sh = self.shared.read().expect("shared lock");
                    shard.run_window(&mut wheel, bound, &**sh);
                }
            }));
            if let Err(p) = r {
                let mut first = ctl.panic_payload.lock().expect("panic slot");
                first.get_or_insert(p);
                ctl.panicked.store(true, Ordering::Release);
            }
            ctl.done.fetch_add(1, Ordering::Release);
        }
    }

    /// A worker: claim from every window that opens; with nothing open,
    /// poll for a while, then park until the coordinating thread has more
    /// shards than it can claim itself — or shuts the crew down.
    fn work(&self) {
        let mut spins = 0;
        while !self.ctl.shutdown.load(Ordering::Acquire) {
            if self.ctl.open() {
                self.claim_and_run();
                spins = 0;
            } else if spins < POLL_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
                spins = 0;
            }
        }
    }
}

/// Cumulative engine counters, for benchmarks and tests. All four depend
/// on the event population and the coordinator's plan only — not on the
/// machine, nor on which thread ran which shard. So does the number of
/// allocator calls a run makes, but for the `min(shards, cores) - 1`
/// workers each [`Engine::run_until`] spawns: the engine's scratch belongs
/// to the engine (each shard's window log, outboxes and worklist, kept
/// across calls, the outboxes circulating between a pair's source and
/// destination) or to the call (its lock wrappers and the coordinating
/// thread's few vectors), never to a thread, and a world that keeps
/// buffers for its handlers or its receive hook must keep them in the
/// world too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events executed so far.
    pub executed: u64,
    /// Windows run in parallel mode: shards claimed, then replayed.
    pub windows_parallel: u64,
    /// Windows run serially because the planner saw a hazard.
    pub windows_serial: u64,
    /// Parallel-mode windows in which at most one shard had events, so
    /// there was nothing to share out (also counted in
    /// `windows_parallel`).
    pub windows_inline: u64,
}

/// The sharded parallel scheduler. Owns the per-shard wheels and the global
/// sequence counter; shard worlds and shared state are passed through
/// [`Engine::run_until`] per episode so the application can reassemble and
/// inspect them between runs.
pub struct Engine<W: ShardWorld> {
    wheels: Vec<Wheel<W::Ev>>,
    /// Each shard's window log and mail, kept from one `run_until` to the
    /// next at its working size.
    logs: Vec<WindowLog<W>>,
    /// The cores a run may use, read once: `available_parallelism` reads
    /// cgroup files, and allocates doing so.
    cores: usize,
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
            logs: (0..shards).map(|_| WindowLog::new(shards)).collect(),
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
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

    /// Run the event population until `until` (inclusive) on the calling
    /// thread and `min(shards, available_parallelism) - 1` workers, which
    /// live for this call (the core count is the one [`Engine::new`]
    /// read). `worlds[i]` is shard `i`'s node-local state; it is returned
    /// (reassembled by the caller) when the episode completes.
    /// A panic in a handler, a receive hook, `plan`, `apply` or `route` is
    /// re-raised here, on whichever thread it happened; the engine is not
    /// usable afterwards.
    pub fn run_until<C: Coordinator<W>>(
        &mut self,
        mut worlds: Vec<W>,
        shared: &mut W::Shared,
        coord: &mut C,
        until: SimTime,
    ) -> Vec<W> {
        let n = self.wheels.len();
        assert_eq!(worlds.len(), n, "one world per shard");
        let until = until.as_nanos();
        assert!(until >= self.now, "cannot run backwards");

        let wheels: Vec<_> = self.wheels.drain(..).map(Mutex::new).collect();
        let shards: Vec<_> = worlds
            .drain(..)
            .zip(self.logs.drain(..))
            .map(|(world, log)| Mutex::new(Shard { world, log }))
            .collect();
        let shared_lock = RwLock::new(shared);
        let ctl = Ctl::new(n);
        let crew = Crew {
            wheels: &wheels,
            shards: &shards,
            shared: &shared_lock,
            ctl: &ctl,
        };
        let (cores, mut seq, mut stats) = (self.cores, self.seq, self.stats);

        let caught = std::thread::scope(|scope| {
            let workers: Vec<Thread> = (1..n.min(cores))
                .map(|_| scope.spawn(move || crew.work()).thread().clone())
                .collect();
            let main = catch_unwind(AssertUnwindSafe(|| {
                let mut run = Run {
                    crew,
                    workers: &workers,
                    coord,
                    wheels: Vec::with_capacity(n),
                    shards: Vec::with_capacity(n),
                    next_at: vec![None; n],
                    seq: &mut seq,
                    stats: &mut stats,
                    lookahead: self.lookahead,
                    until,
                };
                run.drive();
            }));
            // Always release the workers, even when the window loop
            // panicked, or the scope would wait for them for ever.
            ctl.shutdown.store(true, Ordering::Release);
            workers.iter().for_each(Thread::unpark);
            main.err()
        });

        let in_shard = ctl.panic_payload.lock().expect("panic slot").take();
        if let Some(p) = in_shard.or(caught) {
            resume_unwind(p);
        }
        self.seq = seq;
        self.stats = stats;
        self.now = until;
        // Put the wheels and logs back and hand the worlds to the caller,
        // in the vector the caller lent (a `collect` into a fresh one
        // would shrink it, one `realloc` a call).
        let unwrapped = wheels
            .into_iter()
            .map(|m| m.into_inner().expect("wheel lock"));
        self.wheels.extend(unwrapped);
        for m in shards {
            let Shard { world, log } = m.into_inner().expect("shard lock");
            self.logs.push(log);
            worlds.push(world);
        }
        worlds
    }
}

/// The coordinating thread's state for one `run_until`: outside the
/// parallel phases it holds every wheel and every shard, so finding the
/// next window, planning it, merging it and running a serial window touch
/// no lock but the shared state's. Its scratch (the guard vectors and the
/// next-event times) is built here, once; a serial window uses the shards'
/// window logs, as a parallel one does.
struct Run<'a, 'c, W: ShardWorld, C> {
    crew: Crew<'a, W>,
    workers: &'c [Thread],
    coord: &'c mut C,
    /// Every wheel and every shard, locked — or both empty while a parallel
    /// window's shards are out to be claimed.
    wheels: Vec<MutexGuard<'a, Wheel<W::Ev>>>,
    shards: Vec<MutexGuard<'a, Shard<W>>>,
    /// Each shard's earliest pending time, as of the last window start.
    next_at: Vec<Option<u64>>,
    seq: &'c mut u64,
    stats: &'c mut EngineStats,
    lookahead: u64,
    until: u64,
}

impl<W: ShardWorld, C: Coordinator<W>> Run<'_, '_, W, C> {
    fn lock_all(&mut self) {
        let wheels = self.crew.wheels.iter();
        self.wheels
            .extend(wheels.map(|m| m.lock().expect("wheel lock")));
        let shards = self.crew.shards.iter();
        self.shards
            .extend(shards.map(|m| m.lock().expect("shard lock")));
    }

    /// The window loop.
    fn drive(&mut self) {
        self.lock_all();
        loop {
            // Event-driven window start: the globally earliest pending time.
            for (wheel, next) in self.wheels.iter().zip(&mut self.next_at) {
                *next = wheel.next_key().map(|(at, _)| at);
            }
            let Some(t0) = self.next_at.iter().flatten().copied().min() else {
                return;
            };
            if t0 > self.until {
                return;
            }
            // Inclusive bound: any event at `t >= t0` schedules cross-shard
            // work at `t + lookahead > t0 + lookahead - 1`.
            let bound = t0.saturating_add(self.lookahead - 1).min(self.until);
            let mode = {
                let sh = self.crew.shared.read().expect("shared lock");
                let worlds = Worlds {
                    shards: &mut self.shards,
                };
                let (t0, bound) = (SimTime::from_nanos(t0), SimTime::from_nanos(bound));
                self.coord.plan(&**sh, &worlds, t0, bound)
            };
            match mode {
                WindowMode::Serial => {
                    self.serial_window(bound);
                    self.stats.windows_serial += 1;
                }
                WindowMode::Parallel => {
                    // Shards whose earliest event falls inside the window.
                    // New events only appear at `>= t0 + lookahead > bound`
                    // (emissions are shard-local; cross-shard work arrives
                    // via replay), so a shard idle now stays idle for this
                    // whole window.
                    let busy = self.next_at.iter().flatten();
                    let busy = busy.filter(|&&at| at <= bound).count();
                    self.claim_round(bound, busy, false);
                    if self.crew.ctl.panicked.load(Ordering::Acquire) {
                        return;
                    }
                    self.lock_all();
                    let shared = self.crew.shared;
                    self.replay(&mut **shared.write().expect("shared lock"), Some(bound));
                    if !self.receive_posts(Some(bound)) {
                        return;
                    }
                    self.stats.windows_parallel += 1;
                    self.stats.windows_inline += u64::from(busy <= 1);
                }
            }
        }
    }

    /// Phase B: every shard takes the posts phase A put on its worklist.
    /// After a parallel window with more than one shard to serve and a
    /// worker to share them with, they are claimed like a window's events;
    /// otherwise this thread serves them in turn. False when a shard
    /// panicked.
    fn receive_posts(&mut self, window_bound: Option<u64>) -> bool {
        let shards = self.shards.iter();
        let busy = shards.filter(|s| !s.log.arrivals.is_empty()).count();
        match window_bound {
            Some(bound) if busy > 1 && !self.workers.is_empty() => {
                self.claim_round(bound, busy, true);
                if self.crew.ctl.panicked.load(Ordering::Acquire) {
                    return false;
                }
                self.lock_all();
            }
            _ => {
                for (shard, wheel) in self.shards.iter_mut().zip(&mut self.wheels) {
                    shard.receive_posts(wheel, window_bound);
                }
            }
        }
        self.swap_mail(true);
        true
    }

    /// A parallel phase — a window's events, or its posts: let go of every
    /// shard, open the claim round, claim what this thread can, and wait
    /// until the last claimed shard is done. Workers are woken only for
    /// the `busy` shards this thread cannot start on at once; one that is
    /// still polling needs no waking, and one that wakes late finds
    /// nothing.
    fn claim_round(&mut self, bound: u64, busy: usize, receiving: bool) {
        self.wheels.clear();
        self.shards.clear();
        self.crew.ctl.publish(bound, receiving);
        let spare = busy.saturating_sub(1).min(self.workers.len());
        self.workers[..spare].iter().for_each(Thread::unpark);
        self.crew.claim_and_run();
        self.crew.ctl.wait_done();
    }

    /// Phase A: merge the shard logs of a window in exact `(time, seq)`
    /// order, assigning serial sequence numbers to in-window children and
    /// posts, applying global effects and routing posts in serial
    /// position; then hand each outbox to its destination. The window is
    /// a parallel one running to `window_bound`, or (`None`) the one event
    /// a serial window has just run.
    fn replay(&mut self, sh: &mut W::Shared, window_bound: Option<u64>) {
        while let Some((at, _, s)) = earliest(self.shards.iter().map(|s| s.log.head())) {
            let emits = self.shards[s].log.pop_record();
            self.stats.executed += 1;
            let now_t = SimTime::from_nanos(at);
            for _ in 0..emits {
                let log = &mut self.shards[s].log;
                match log.pop_emit() {
                    LogEmit::Local { at: child_at } => {
                        let prov_id = log.prov.len() as u64;
                        let exact = *self.seq;
                        *self.seq += 1;
                        log.prov.push(exact);
                        // Still-pending children are promoted in place; a
                        // `false` return means the child already fired
                        // inside a parallel window (its own log record
                        // follows). A serial window merges every event
                        // before the next runs.
                        let promoted = self.wheels[s].rekey(child_at, PROV_BIT | prov_id, exact);
                        debug_assert!(
                            promoted || window_bound.is_some(),
                            "serial-window child vanished before replay"
                        );
                    }
                    LogEmit::Fx(fx) => {
                        let mut worlds = Worlds {
                            shards: &mut self.shards,
                        };
                        let mut sched = Sched {
                            wheels: &mut self.wheels,
                            seq: self.seq,
                            window_bound,
                        };
                        self.coord.apply(now_t, fx, sh, &mut worlds, &mut sched);
                    }
                    LogEmit::Post { dst } => {
                        let seq = *self.seq;
                        *self.seq += 1;
                        let k = log.routed[dst as usize];
                        log.routed[dst as usize] += 1;
                        self.coord.route(now_t, &mut log.out[dst as usize][k], sh);
                        let arrival = Arrival {
                            src: s as u32,
                            at,
                            seq,
                        };
                        self.shards[dst as usize].log.arrivals.push(arrival);
                    }
                }
            }
        }
        self.swap_mail(false);
        for shard in &mut self.shards {
            shard.log.clear();
        }
    }

    /// Swap every outbox phase A routed with its destination's slot for
    /// the source: after phase A this hands the posts over (headers move,
    /// payloads stay put); after phase B (`back`) it returns the emptied
    /// queue and its capacity to the source, so a pair keeps one buffer.
    fn swap_mail(&mut self, back: bool) {
        let n = self.shards.len();
        for src in 0..n {
            for dst in 0..n {
                let routed = &mut self.shards[src].log.routed[dst];
                if *routed == 0 {
                    continue;
                }
                if back {
                    *routed = 0;
                }
                let posts = std::mem::take(&mut self.shards[src].log.out[dst]);
                let spare = std::mem::replace(&mut self.shards[dst].log.inn[src], posts);
                self.shards[src].log.out[dst] = spare;
            }
        }
    }

    /// Execute one hazard window on the coordinating thread in exact
    /// global `(time, seq)` order with exclusive shared access: a run of
    /// one-event windows, each merged and its posts received before the
    /// next event is picked, so ordering and sequence numbering are
    /// identical to the serial scheduler's.
    fn serial_window(&mut self, bound: u64) {
        let shared = self.crew.shared;
        let mut sh = shared.write().expect("shared lock");
        loop {
            let heads = self.wheels.iter();
            let heads = heads.map(|w| w.next_key().filter(|&(at, _)| at <= bound));
            let Some((_, _, s)) = earliest(heads) else {
                break;
            };
            let view = &mut SharedView::Exclusive(&mut **sh);
            self.shards[s].run_event(&mut self.wheels[s], bound, view);
            self.replay(&mut **sh, None);
            self.receive_posts(None);
        }
    }
}

/// The smallest `(time, seq)` among the shards' `keys`, and its shard.
fn earliest(keys: impl Iterator<Item = Option<(u64, u64)>>) -> Option<(u64, u64, usize)> {
    keys.enumerate()
        .filter_map(|(s, k)| k.map(|(at, key)| (at, key, s)))
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{HandleMsg, Sim};

    // A toy model exercised both through the serial `Sim` and the parallel
    // engine: a ring of counters. Every PERIOD each node ticks — bumping a
    // local counter, spawning a short same-shard chain, noting its send in
    // the shared trace and posting its running total to the next node (a
    // cross-shard message with DELAY latency) — and re-arms itself. The
    // receiver drops every DROP_EVERY-th message sent to it, as a full
    // downlink queue would. The trace only matches between runs if the
    // global event order matches.
    const PERIOD: u64 = 5_000; // ns
    const DELAY: u64 = 1_000; // ns == lookahead
    const CHAIN: u64 = 3; // ns between chain links (fires in-window)
    const DROP_EVERY: u64 = 4;

    #[derive(Debug, Clone, PartialEq)]
    struct ToyNode {
        id: usize,
        ticks: u64,
        chained: u64,
        received: u64,
        /// Messages sent to this node, and how many of them it dropped.
        arrivals: u64,
        dropped: u64,
    }

    #[derive(Debug, Clone)]
    enum TEv {
        Tick { i: usize },
        Chain { i: usize, depth: u8 },
        Recv { i: usize, val: u64 },
    }

    enum TFx {
        Note { from: usize, to: usize, val: u64 },
    }

    struct Msg {
        to: usize,
        val: u64,
    }

    struct ToyShared {
        n: usize,
        shard_of: Vec<usize>,
        trace: Vec<(u64, String)>,
    }

    struct ToyShard {
        nodes: Vec<ToyNode>,
        local: Vec<usize>, // global id -> local index (usize::MAX elsewhere)
        /// Latency of a cross-shard message; anything below `DELAY` breaks
        /// the lookahead the engine was built with.
        delay: u64,
    }

    impl ToyNode {
        fn new(id: usize) -> Self {
            ToyNode {
                id,
                ticks: 0,
                chained: 0,
                received: 0,
                arrivals: 0,
                dropped: 0,
            }
        }
    }

    fn tick_node(node: &mut ToyNode) -> u64 {
        node.ticks += 1;
        node.ticks * 10 + node.received
    }

    /// A message reaches `node`'s queue: false when it is dropped.
    fn arrive(node: &mut ToyNode) -> bool {
        node.arrivals += 1;
        let kept = !node.arrivals.is_multiple_of(DROP_EVERY);
        node.dropped += u64::from(!kept);
        kept
    }

    impl ShardWorld for ToyShard {
        type Ev = TEv;
        type Fx = TFx;
        type Post = Msg;
        type Shared = ToyShared;

        fn execute(
            &mut self,
            now: SimTime,
            ev: TEv,
            out: &mut Emit<'_, ToyShard>,
            shared: &mut SharedView<'_, ToyShared>,
        ) {
            let shared: &ToyShared = match shared {
                SharedView::Frozen(s) => s,
                SharedView::Exclusive(s) => s,
            };
            match ev {
                TEv::Tick { i } => {
                    let node = &mut self.nodes[self.local[i]];
                    let val = tick_node(node);
                    out.schedule_in(SimDur::from_nanos(CHAIN), TEv::Chain { i, depth: 2 });
                    let to = (i + 1) % shared.n;
                    out.fx(TFx::Note { from: i, to, val });
                    out.post(shared.shard_of[to], Msg { to, val });
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

        fn receive(&mut self, now: SimTime, msg: Msg, receipt: Receipt<'_, TEv>) {
            let Msg { to, val } = msg;
            if arrive(&mut self.nodes[self.local[to]]) {
                let at = now + SimDur::from_nanos(self.delay);
                receipt.schedule_at(at, TEv::Recv { i: to, val });
            }
        }
    }

    struct ToyCoord {
        force_serial_every: Option<u64>,
        windows_seen: u64,
        /// `plan` panics at this window.
        plan_panics_at: Option<u64>,
    }

    impl ToyCoord {
        fn new(force_serial_every: Option<u64>) -> Self {
            ToyCoord {
                force_serial_every,
                windows_seen: 0,
                plan_panics_at: None,
            }
        }
    }

    impl Coordinator<ToyShard> for ToyCoord {
        fn plan(
            &mut self,
            _shared: &ToyShared,
            _worlds: &Worlds<'_, '_, ToyShard>,
            _t0: SimTime,
            _bound: SimTime,
        ) -> WindowMode {
            self.windows_seen += 1;
            assert_ne!(Some(self.windows_seen), self.plan_panics_at, "plan boom");
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
            _worlds: &mut Worlds<'_, '_, ToyShard>,
            _sched: &mut Sched<'_, '_, TEv>,
        ) {
            let TFx::Note { from, to, val } = fx;
            shared
                .trace
                .push((now.as_nanos(), format!("{from}->{to}:{val}")));
        }
    }

    struct RunResult {
        nodes: Vec<ToyNode>,
        trace: Vec<(u64, String)>,
        executed: u64,
    }

    /// When node `i` first ticks. Seed 0 is an even 7 ns stagger; any
    /// other seed scatters the nodes over one period, so ticks, chains and
    /// arrivals of different nodes collide in ever different ways.
    fn first_tick(seed: u64, i: usize) -> u64 {
        let even = PERIOD + i as u64 * 7;
        if seed == 0 {
            return even;
        }
        let scatter = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
        even + scatter.wrapping_mul(i as u64 + 1) % PERIOD
    }

    /// An engine over `shards` shards with `n` ring nodes dealt round-robin
    /// and their first ticks seeded in node order, like the serial run's
    /// schedule calls.
    fn toy(n: usize, shards: usize, seed: u64) -> (Engine<ToyShard>, Vec<ToyShard>, ToyShared) {
        let mut engine: Engine<ToyShard> = Engine::new(shards, SimDur::from_nanos(DELAY));
        let shard_of: Vec<usize> = (0..n).map(|i| i % shards).collect();
        let mut worlds: Vec<ToyShard> = (0..shards)
            .map(|_| ToyShard {
                nodes: Vec::new(),
                local: vec![usize::MAX; n],
                delay: DELAY,
            })
            .collect();
        for (i, &s) in shard_of.iter().enumerate() {
            worlds[s].local[i] = worlds[s].nodes.len();
            worlds[s].nodes.push(ToyNode::new(i));
            engine.schedule(s, SimTime::from_nanos(first_tick(seed, i)), TEv::Tick { i });
        }
        let shared = ToyShared {
            n,
            shard_of,
            trace: Vec::new(),
        };
        (engine, worlds, shared)
    }

    fn run_parallel(
        n: usize,
        shards: usize,
        horizon_ns: u64,
        serial_every: Option<u64>,
    ) -> RunResult {
        run_seeded(n, shards, horizon_ns, serial_every, 0)
    }

    fn run_seeded(
        n: usize,
        shards: usize,
        horizon_ns: u64,
        serial_every: Option<u64>,
        seed: u64,
    ) -> RunResult {
        let (mut engine, worlds, mut shared) = toy(n, shards, seed);
        let mut coord = ToyCoord::new(serial_every);
        // Split across two episodes to exercise engine persistence.
        let mid = SimTime::from_nanos(horizon_ns / 2);
        let worlds = engine.run_until(worlds, &mut shared, &mut coord, mid);
        let worlds = engine.run_until(
            worlds,
            &mut shared,
            &mut coord,
            SimTime::from_nanos(horizon_ns),
        );
        RunResult {
            nodes: by_id(worlds),
            trace: shared.trace,
            executed: engine.stats().executed,
        }
    }

    /// Every shard's ring nodes, in node order.
    fn by_id(worlds: Vec<ToyShard>) -> Vec<ToyNode> {
        let mut nodes: Vec<ToyNode> = worlds.into_iter().flat_map(|w| w.nodes).collect();
        nodes.sort_by_key(|t| t.id);
        nodes
    }

    /// The same model on the serial scheduler, with schedule calls in the
    /// same program order.
    fn run_serial(n: usize, horizon_ns: u64, seed: u64, delay: u64) -> RunResult {
        struct World {
            n: usize,
            delay: u64,
            nodes: Vec<ToyNode>,
            trace: Vec<(u64, String)>,
        }
        impl HandleMsg<TEv> for World {
            fn handle(&mut self, sim: &mut Sim<World, TEv>, ev: TEv) {
                match ev {
                    TEv::Tick { i } => {
                        let now = sim.now();
                        let val = tick_node(&mut self.nodes[i]);
                        sim.schedule_msg_in(SimDur::from_nanos(CHAIN), TEv::Chain { i, depth: 2 });
                        let to = (i + 1) % self.n;
                        self.trace
                            .push((now.as_nanos(), format!("{i}->{to}:{val}")));
                        if arrive(&mut self.nodes[to]) {
                            sim.schedule_msg_in(
                                SimDur::from_nanos(self.delay),
                                TEv::Recv { i: to, val },
                            );
                        } else {
                            sim.skip_seq();
                        }
                        sim.schedule_msg_at(now + SimDur::from_nanos(PERIOD), TEv::Tick { i });
                    }
                    TEv::Chain { i, depth } => {
                        self.nodes[i].chained += depth as u64;
                        if depth > 0 {
                            let next = TEv::Chain {
                                i,
                                depth: depth - 1,
                            };
                            sim.schedule_msg_in(SimDur::from_nanos(CHAIN), next);
                        }
                    }
                    TEv::Recv { i, val } => {
                        let node = &mut self.nodes[i];
                        node.received = node.received.wrapping_mul(3).wrapping_add(val);
                    }
                }
            }
        }
        let mut sim: Sim<World, TEv> = Sim::new();
        let mut world = World {
            n,
            delay,
            nodes: (0..n).map(ToyNode::new).collect(),
            trace: Vec::new(),
        };
        for i in 0..n {
            sim.schedule_msg_at(SimTime::from_nanos(first_tick(seed, i)), TEv::Tick { i });
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
        let serial = run_serial(9, 200_000, 0, DELAY);
        let dropped: u64 = serial.nodes.iter().map(|t| t.dropped).sum();
        assert!(dropped > 0, "no message dropped — vacuous");
        for shards in [1, 2, 4, 8] {
            for every in [None, Some(3)] {
                let par = run_parallel(9, shards, 200_000, every);
                let at = format!("{shards} shards, serial every {every:?}");
                assert_eq!(par.nodes, serial.nodes, "{at}: node state");
                assert_eq!(par.trace, serial.trace, "{at}: effect order");
                assert_eq!(par.executed, serial.executed, "{at}: executed");
            }
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
        // Every event schedules: Tick -> chain + post + re-arm (3),
        // Chain(depth>0) -> 1, Recv -> 0; a dropped post still takes its
        // number. The exact count is not the point — equality across
        // shard counts is.
        let mut seqs = Vec::new();
        for shards in [1, 3, 5] {
            let (mut engine, worlds, mut shared) = toy(6, shards, 0);
            let mut coord = ToyCoord::new(None);
            let until = SimTime::from_nanos(60_000);
            let worlds = engine.run_until(worlds, &mut shared, &mut coord, until);
            let dropped: u64 = worlds
                .iter()
                .flat_map(|w| &w.nodes)
                .map(|t| t.dropped)
                .sum();
            assert!(dropped > 0, "no message dropped — vacuous");
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
            type Post = ();
            type Shared = ();
            fn execute(
                &mut self,
                _now: SimTime,
                (): (),
                _out: &mut Emit<'_, Bomb>,
                _shared: &mut SharedView<'_, ()>,
            ) {
                panic!("boom");
            }
            fn receive(&mut self, _now: SimTime, (): (), _receipt: Receipt<'_, ()>) {}
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
    #[test]
    fn more_shards_than_threads_match_serial() {
        // Eight shards on whatever the box has: the coordinating thread
        // and at most seven workers, usually far fewer, claim them in
        // whatever order they get to. Fifty differently scattered rings,
        // every third with hazard windows mixed in.
        for seed in 1..=50 {
            let n = 9 + seed as usize % 8;
            let serial = run_serial(n, 60_000, seed, DELAY);
            let every = (seed % 3 == 0).then_some(2 + seed % 4);
            let par = run_seeded(n, 8, 60_000, every, seed);
            assert_eq!(par.nodes, serial.nodes, "seed {seed}: node state");
            assert_eq!(par.trace, serial.trace, "seed {seed}: effect order");
            assert_eq!(par.executed, serial.executed, "seed {seed}: executed");
        }
    }

    #[test]
    fn a_run_to_the_current_time_has_no_window() {
        let (mut engine, worlds, mut shared) = toy(5, 4, 0);
        let mut coord = ToyCoord::new(None);
        // Before the first event: nothing to plan, no window opened, so no
        // worker is ever unparked — and the parked ones must still be let
        // go when the call returns.
        let early = SimTime::from_nanos(PERIOD - 1);
        let worlds = engine.run_until(worlds, &mut shared, &mut coord, early);
        assert_eq!(coord.windows_seen, 0);
        assert_eq!(engine.stats(), EngineStats::default());
        assert_eq!(engine.now(), early);

        let t = SimTime::from_nanos(20_000);
        let worlds = engine.run_until(worlds, &mut shared, &mut coord, t);
        let (stats, seen, seq) = (engine.stats(), coord.windows_seen, engine.seq());
        assert!(stats.windows_parallel > 0);
        // To the current time again: the same, at once.
        let worlds = engine.run_until(worlds, &mut shared, &mut coord, t);
        assert_eq!(
            (engine.stats(), coord.windows_seen, engine.seq()),
            (stats, seen, seq)
        );
        assert_eq!(worlds.len(), 4);
    }

    #[test]
    #[should_panic(expected = "lookahead violated")]
    fn a_send_inside_the_window_is_refused() {
        // The engine was promised `DELAY` of lookahead; a coordinator that
        // delivers faster would have its event run after later ones on a
        // shard that has already finished the window.
        let (mut engine, mut worlds, mut shared) = toy(4, 2, 0);
        let mut coord = ToyCoord::new(None);
        worlds.iter_mut().for_each(|w| w.delay = DELAY / 2);
        engine.run_until(worlds, &mut shared, &mut coord, SimTime::from_nanos(20_000));
    }

    #[test]
    fn serial_windows_need_no_lookahead() {
        // A serial window picks the global minimum again after every
        // event, so a short delay is in order there: the run agrees with
        // the serial scheduler at any shard count. At delay 0 a received
        // post is the very next event, on the receiving shard.
        for delay in [0, DELAY / 2] {
            let serial = run_serial(4, 20_000, 0, delay);
            let mut seqs = Vec::new();
            for shards in [1, 3] {
                let (mut engine, mut worlds, mut shared) = toy(4, shards, 0);
                let mut coord = ToyCoord::new(Some(1));
                worlds.iter_mut().for_each(|w| w.delay = delay);
                let until = SimTime::from_nanos(20_000);
                let worlds = engine.run_until(worlds, &mut shared, &mut coord, until);
                let at = format!("delay {delay}, {shards} shards");
                assert_eq!(by_id(worlds), serial.nodes, "{at}: node state");
                assert_eq!(shared.trace, serial.trace, "{at}: effect order");
                assert_eq!(engine.stats().executed, serial.executed, "{at}: executed");
                seqs.push(engine.seq());
            }
            assert_eq!(seqs[0], seqs[1], "delay {delay}: seq");
        }
    }

    /// A shard world that panics on one kind of thread and, on the other,
    /// waits until that has happened — which forces who claims the shard
    /// that panics.
    struct Picky {
        coordinating: std::thread::ThreadId,
        panics_on_coordinating: bool,
        panicking: std::sync::Arc<AtomicBool>,
    }

    impl ShardWorld for Picky {
        type Ev = ();
        type Fx = ();
        type Post = ();
        type Shared = ();

        fn receive(&mut self, _now: SimTime, (): (), _receipt: Receipt<'_, ()>) {}

        fn execute(
            &mut self,
            _now: SimTime,
            (): (),
            _out: &mut Emit<'_, Picky>,
            _shared: &mut SharedView<'_, ()>,
        ) {
            let here = std::thread::current().id() == self.coordinating;
            if here == self.panics_on_coordinating {
                self.panicking.store(true, Ordering::SeqCst);
                panic!("boom, coordinating thread: {here}");
            }
            while !self.panicking.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }
    }

    struct NopCoord;

    impl<W: ShardWorld<Fx = ()>> Coordinator<W> for NopCoord {
        fn plan(
            &mut self,
            _shared: &W::Shared,
            _worlds: &Worlds<'_, '_, W>,
            _t0: SimTime,
            _bound: SimTime,
        ) -> WindowMode {
            WindowMode::Parallel
        }

        fn apply(
            &mut self,
            _now: SimTime,
            (): (),
            _shared: &mut W::Shared,
            _worlds: &mut Worlds<'_, '_, W>,
            _sched: &mut Sched<'_, '_, W::Ev>,
        ) {
        }
    }

    /// Two shards with one event each in the first window; whichever
    /// thread `panics_on_coordinating` names claims one of them and panics
    /// while the other thread is inside the other. The payload's text.
    fn picky_panic(panics_on_coordinating: bool) -> String {
        let panicking = std::sync::Arc::new(AtomicBool::new(false));
        let worlds = (0..2).map(|_| Picky {
            coordinating: std::thread::current().id(),
            panics_on_coordinating,
            panicking: panicking.clone(),
        });
        let mut engine: Engine<Picky> = Engine::new(2, SimDur::from_nanos(100));
        engine.schedule(0, SimTime::from_nanos(10), ());
        engine.schedule(1, SimTime::from_nanos(10), ());
        let r = catch_unwind(AssertUnwindSafe(|| {
            let until = SimTime::from_nanos(1_000);
            engine.run_until(worlds.collect(), &mut (), &mut NopCoord, until);
        }));
        let payload = r.expect_err("the shard's panic must reach the caller");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn a_panic_in_a_shard_the_coordinating_thread_claimed_propagates() {
        assert_eq!(picky_panic(true), "boom, coordinating thread: true");
    }

    #[test]
    fn a_panic_in_a_shard_a_worker_claimed_propagates() {
        if std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) == 1 {
            // No worker on one CPU: the coordinating thread claims every
            // shard, which the test above covers.
            return;
        }
        assert_eq!(picky_panic(false), "boom, coordinating thread: false");
    }

    #[test]
    fn a_panic_in_plan_reaches_the_caller_past_the_workers() {
        // The window loop dies between two windows, with every worker
        // alive — polling, or parked for good if nobody lets it go. (No
        // shard is out at that point: a window closes only when every
        // claimed shard is done, and `plan` runs after that.)
        let (mut engine, worlds, mut shared) = toy(9, 8, 0);
        let mut coord = ToyCoord::new(None);
        coord.plan_panics_at = Some(3);
        let r = catch_unwind(AssertUnwindSafe(|| {
            engine.run_until(worlds, &mut shared, &mut coord, SimTime::from_nanos(50_000));
        }));
        let payload = r.expect_err("plan's panic must reach the caller");
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(text.contains("plan boom"), "{text}");
    }
}
