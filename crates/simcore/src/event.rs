//! The discrete-event scheduler.
//!
//! [`Sim<W, M>`] owns a hierarchical timer wheel of events; each event is
//! either a typed message `M` the world handles, or a call of a handler
//! registered with the scheduler, which receives exclusive access to the
//! world `W` and to the scheduler itself (so handlers can schedule
//! follow-up events); see below. Ordering is total:
//! `(time, sequence)` with the sequence number assigned at scheduling time,
//! which makes runs bit-for-bit reproducible.
//!
//! # Why a wheel and not a heap
//!
//! The dominant workload is periodic — poll ticks, service-queue drains and
//! transmits re-arm at fixed offsets — so schedule/fire is the hot path. A
//! binary heap pays `O(log n)` comparisons per operation. The
//! wheel pays amortised `O(1)`: eight levels of 64 slots cover 2^48 ns
//! (~78 hours) ahead of the cursor at 1 ns resolution; an event lands in the
//! level addressed by the highest bit in which its time differs from the
//! cursor. The earliest slot of the lowest occupied level always holds the
//! earliest event, so a pop takes it from there, moves the cursor to its
//! time and re-places only what shared that slot with it — there is no
//! level-by-level cascade.
//! Events beyond the horizon overflow into a `BTreeMap` ordered by
//! `(time, seq)` and are pulled back into the wheel once the cursor gets
//! close.
//!
//! Firing order is identical to the old heap: within a slot the least
//! `(time, seq)` fires first, and any entry at a lower level strictly
//! precedes every entry at a higher level or in the overflow map.
//!
//! # The payload slab
//!
//! An entry moves each time an earlier event is popped from the slot it
//! sits in (a delivery a few hundred microseconds ahead lands on level 3
//! among its senders' other frames). Slot entries therefore hold
//! only `(time, seq, index)` — 24 bytes — and the payloads (152 bytes for a
//! cluster event) stay put in a per-wheel slab with a free list: `insert`
//! puts one, a pop takes it, and the slab is as long as the
//! most events the slots ever held at once. The overflow map keeps its
//! payloads inline; they enter the slab when the cursor pulls them in.
//!
//! # Two payload kinds, one wheel
//!
//! A boxed closure per event would cost one heap allocation per scheduled
//! event — ruinous on the hot path, where two event kinds (poll tick,
//! delivery) account for nearly every firing. The second type parameter
//! of `Sim<W, M>` is a plain value the world dispatches through
//! [`HandleMsg::handle`]. `M` defaults to `()`, for which a blanket
//! [`HandleMsg`] impl exists, so `Sim<W>` users never see it. The other
//! kind is a call of a registered handler: a handler is boxed once by
//! [`Sim::register`], and each [`Sim::call_at`] queues only its
//! [`CallId`] and a `u64` argument — how code outside the world type (an
//! application, a periodic timer) schedules without allocating. Both sit
//! in the same wheel under the same sequence counter, so they fire in
//! exactly the `(time, seq)` order they were scheduled in. A cluster
//! event's spare tag values carry the calls, so a pending cluster event
//! is no larger than the event itself.

use std::collections::BTreeMap;

use crate::time::{SimDur, SimTime};

type CallFn<W, M> = Box<dyn FnMut(&mut W, &mut Sim<W, M>, u64)>;

/// A handler registered with [`Sim::register`], for [`Sim::call_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallId(usize);

/// Dispatch for typed messages: the world receives each popped `M` with
/// exclusive access to the scheduler, as a registered handler does. The
/// blanket impl for `M = ()` makes messages invisible to worlds that never
/// send any.
pub trait HandleMsg<M>: Sized {
    /// Handle one message fired at the current simulation time.
    fn handle(&mut self, sim: &mut Sim<Self, M>, msg: M);
}

impl<W> HandleMsg<()> for W {
    fn handle(&mut self, _sim: &mut Sim<Self, ()>, (): ()) {}
}

/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of levels; together they cover `LEVEL_BITS * LEVELS` = 48 bits of
/// nanoseconds (~78 hours) ahead of the cursor.
const LEVELS: usize = 8;

/// Which wheel level an event at `at` belongs to, relative to cursor `cur`:
/// the level containing the highest bit in which the two differ. `LEVELS` or
/// more means "beyond the horizon" (overflow map).
#[inline]
fn level_of(cur: u64, at: u64) -> usize {
    let diff = cur ^ at;
    if diff == 0 {
        0
    } else {
        ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
    }
}

/// What a wheel slot holds per pending event: its key and the index of
/// its payload in [`Wheel::slab`]. 24 bytes whatever `T` is — an entry is
/// moved when a slot-mate is popped before it, its payload never.
struct Entry {
    at: u64,
    seq: u64,
    idx: u32,
}

/// Index of the `(at, seq)`-least entry of a non-empty slot.
#[inline]
fn least(slot: &[Entry]) -> usize {
    let mut k = 0;
    for (j, e) in slot.iter().enumerate().skip(1) {
        if (e.at, e.seq) < (slot[k].at, slot[k].seq) {
            k = j;
        }
    }
    k
}

/// The hierarchical timer wheel, generic over the event payload `T` —
/// messages and handler calls for [`Sim`], plain event values for the
/// sharded parallel scheduler in [`crate::pdes`] (each shard owns one
/// wheel).
///
/// Invariants (checked by debug asserts, relied on by `pop_min_if`):
/// - every pending entry satisfies `at >= cur`;
/// - an entry physically stored at level `l`, slot `i` has all time digits
///   above level `l` equal to the cursor's and digit `l` equal to `i`
///   (strictly greater than the cursor's digit for `l >= 1`), because the
///   cursor only ever moves to the time of the entry being popped — the
///   minimum — and a pop from a level `>= 1` slot re-places that slot's
///   other entries, the only ones whose digit `l` the cursor has reached.
pub(crate) struct Wheel<T> {
    /// Cursor in nanoseconds: lower bound of every pending entry. Never
    /// ahead of `Sim::now` at public API boundaries.
    cur: u64,
    /// `LEVELS * SLOTS` buckets, flat-indexed `level * SLOTS + slot`.
    slots: Vec<Vec<Entry>>,
    /// Payloads of the entries in `slots`, put on insert and taken on
    /// pop. `free` lists the vacant indices, so the slab is as long
    /// as the most entries the slots ever held at once.
    slab: Vec<Option<T>>,
    free: Vec<u32>,
    /// Per-level occupancy bitmaps; bit `i` set iff slot `i` is non-empty.
    occ: [u64; LEVELS],
    /// Events beyond the wheel horizon, ordered by `(at, seq)`.
    overflow: BTreeMap<(u64, u64), T>,
    /// Exact number of pending events (wheel + overflow).
    len: usize,
    /// Per-level free lists of drained slot buffers. A pop from a level
    /// `>= 1` empties its slot for a whole wrap of that level, so the
    /// buffer goes here
    /// and the next slot of the *same level* to receive an entry takes it
    /// over: a periodic workload circulates one set of buffers per level
    /// instead of stranding a peak-sized buffer in every slot the cursor
    /// ever visited (or re-allocating each emptied slot). Per level
    /// because slot populations differ by level — a shared list would
    /// hand a level-5 buffer sized for every pending timer to a level-4
    /// slot holding a sixty-fourth of them.
    pool: [Vec<Vec<Entry>>; LEVELS],
    /// Slot-buffer growths (each one allocator call), for the tests.
    #[cfg(test)]
    grows: u64,
    /// Calls of [`Wheel::place`], for the tests.
    #[cfg(test)]
    places: u64,
}

impl<T> Wheel<T> {
    pub(crate) fn new() -> Self {
        Wheel {
            cur: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            slab: Vec::new(),
            free: Vec::new(),
            occ: [0; LEVELS],
            overflow: BTreeMap::new(),
            len: 0,
            pool: std::array::from_fn(|_| Vec::new()),
            #[cfg(test)]
            grows: 0,
            #[cfg(test)]
            places: 0,
        }
    }

    /// Put an entry in the level/slot addressed by its time relative to the
    /// current cursor; the caller has checked it is within the horizon.
    fn place(&mut self, e: Entry) {
        debug_assert!(e.at >= self.cur, "placing an event behind the cursor");
        let l = level_of(self.cur, e.at);
        debug_assert!(l < LEVELS, "placing an event beyond the horizon");
        let idx = ((e.at >> (LEVEL_BITS * l as u32)) & (SLOTS as u64 - 1)) as usize;
        let slot = &mut self.slots[l * SLOTS + idx];
        if slot.capacity() == 0 {
            if let Some(buf) = self.pool[l].pop() {
                *slot = buf;
            }
        }
        #[cfg(test)]
        {
            self.grows += u64::from(slot.len() == slot.capacity());
            self.places += 1;
        }
        slot.push(e);
        self.occ[l] |= 1 << idx;
    }

    /// Store a payload and place its entry, or file it in the overflow
    /// map when `at` is past the horizon.
    fn put(&mut self, at: u64, seq: u64, f: T) {
        if level_of(self.cur, at) >= LEVELS {
            self.overflow.insert((at, seq), f);
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize] = Some(f);
                idx
            }
            None => {
                let idx = u32::try_from(self.slab.len()).expect("under 2^32 pending events");
                self.slab.push(Some(f));
                idx
            }
        };
        self.place(Entry { at, seq, idx });
    }

    /// Take the payload of an entry that has left its slot.
    fn take(&mut self, idx: u32) -> T {
        self.free.push(idx);
        self.slab[idx as usize]
            .take()
            .expect("slot entry without a payload")
    }

    pub(crate) fn insert(&mut self, at: u64, seq: u64, f: T) {
        self.put(at, seq, f);
        self.len += 1;
    }

    /// Exact number of pending entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The earliest pending `(at, seq)` key without popping or advancing
    /// the cursor. The lowest occupied level's earliest slot is guaranteed
    /// to hold the global minimum: entries at level `l >= 1` store a digit
    /// strictly greater than the cursor's, so they sort after everything at
    /// lower levels, and within a level the earliest occupied slot holds
    /// the smallest digit. Overflow entries differ from the cursor above
    /// the horizon and therefore sort after every wheel resident.
    pub(crate) fn next_key(&self) -> Option<(u64, u64)> {
        for l in 0..LEVELS {
            let m = self.occ[l];
            if m == 0 {
                continue;
            }
            let i = m.trailing_zeros() as usize;
            let slot = &self.slots[l * SLOTS + i];
            let e = &slot[least(slot)];
            return Some((e.at, e.seq));
        }
        self.overflow.first_key_value().map(|(&k, _)| k)
    }

    /// Replace the sequence key of the pending entry `(at, old_seq)` with
    /// `new_seq`, keeping it in place (slot addressing depends only on
    /// `at`). Returns `false` if the entry already fired. Used by the
    /// parallel scheduler to promote provisional in-window keys to exact
    /// serial sequence numbers at window replay.
    pub(crate) fn rekey(&mut self, at: u64, old_seq: u64, new_seq: u64) -> bool {
        if at < self.cur {
            return false;
        }
        let l = level_of(self.cur, at);
        if l >= LEVELS {
            if let Some(f) = self.overflow.remove(&(at, old_seq)) {
                self.overflow.insert((at, new_seq), f);
                return true;
            }
            return false;
        }
        let idx = ((at >> (LEVEL_BITS * l as u32)) & (SLOTS as u64 - 1)) as usize;
        let slot = &mut self.slots[l * SLOTS + idx];
        if let Some(e) = slot.iter_mut().find(|e| e.seq == old_seq && e.at == at) {
            e.seq = new_seq;
            return true;
        }
        false
    }

    /// Pop the earliest `(at, seq)` event if its time is `<= bound`;
    /// otherwise nothing moves. The earliest slot of the lowest occupied
    /// level holds the global minimum (see [`Wheel::next_key`]), whatever
    /// that level is: the minimum is taken from there directly and the
    /// cursor moves to its time. On a level `>= 1` the slot's other
    /// entries are then re-placed relative to the new cursor, which keeps
    /// the slot invariant: the cursor's digits above the level are
    /// unchanged and its digit *at* the level is now the slot's own, so
    /// the slot-mates differ from it only below the level and land there
    /// (the lower levels were empty), while every other resident still
    /// stores a greater digit at its own level. An event is thus placed
    /// once when it is scheduled and once more only for each time an
    /// earlier slot-mate is popped from a slot it shares — not once per
    /// level between its slot and level 0.
    pub(crate) fn pop_min_if(&mut self, bound: u64) -> Option<(u64, u64, T)> {
        loop {
            let Some(l) = self.occ.iter().position(|&m| m != 0) else {
                // The wheel is empty; jump the cursor to the overflow
                // horizon if it is within the bound and pull near entries
                // back in.
                let (&(at, _), _) = self.overflow.first_key_value()?;
                if at > bound {
                    return None;
                }
                self.cur = at;
                while let Some((&(a, s), _)) = self.overflow.first_key_value() {
                    if level_of(self.cur, a) >= LEVELS {
                        break;
                    }
                    let f = self
                        .overflow
                        .remove(&(a, s))
                        .expect("peeked overflow entry");
                    self.put(a, s, f);
                }
                continue;
            };
            let i = self.occ[l].trailing_zeros() as usize;
            let slot = &mut self.slots[l * SLOTS + i];
            let k = least(slot);
            if slot[k].at > bound {
                return None;
            }
            let e = slot.swap_remove(k);
            debug_assert!(e.at >= self.cur, "popped entry behind cursor");
            self.cur = e.at;
            self.len -= 1;
            if l == 0 {
                // Level-0 slot-mates share the popped entry's timestamp:
                // they are where the new cursor wants them.
                if slot.is_empty() {
                    self.occ[0] &= !(1u64 << i);
                }
            } else {
                // The slot stays empty until this level wraps: hand its
                // buffer to the level's free list for the next slot that
                // fills.
                let mut v = std::mem::take(slot);
                self.occ[l] &= !(1u64 << i);
                for e in v.drain(..) {
                    self.place(e);
                }
                self.pool[l].push(v);
            }
            return Some((e.at, e.seq, self.take(e.idx)));
        }
    }
}

/// One pending event: a typed message, or a call of a registered handler
/// with its argument.
///
/// A call is two words, not the one an id and a `u32` argument would fit
/// in. Beside a 152-byte cluster event the compiler copies a popped
/// message as the words a call overlaps plus the rest: two words leave a
/// 128-byte rest, which it copies inline; one word would leave 136 bytes,
/// which it copies with two `memcpy` calls per event (about 2 % of a
/// cluster run's speed).
enum Fired<M> {
    Msg(M),
    Call(CallId, u64),
}

/// A discrete-event simulation over world state `W`, with an optional
/// allocation-free typed message kind `M` and registered handlers (see
/// the module docs).
pub struct Sim<W, M = ()> {
    now: SimTime,
    seq: u64,
    wheel: Wheel<Fired<M>>,
    /// Registered handlers, indexed by [`CallId`]; a handler's slot is
    /// empty only while it runs.
    calls: Vec<Option<CallFn<W, M>>>,
    executed: u64,
}

impl<W, M> Default for Sim<W, M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W, M> Sim<W, M> {
    /// Bytes one pending event's payload takes in the wheel's slab.
    pub const PENDING_BYTES: usize = std::mem::size_of::<Option<Fired<M>>>();

    /// A fresh simulation at time zero with an empty queue.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            wheel: Wheel::new(),
            calls: Vec::new(),
            executed: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events of every kind waiting in the queue.
    pub fn pending(&self) -> usize {
        self.wheel.len
    }

    /// Total number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Queue `ev` at absolute time `at` under the next sequence number.
    fn schedule(&mut self, at: SimTime, ev: Fired<M>) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        self.wheel.insert(at.as_nanos(), self.seq, ev);
        self.seq += 1;
    }

    /// Schedule a typed message for delivery at absolute time `at`.
    /// Messages and handler calls share one queue and one sequence
    /// counter, so they fire in exactly their combined scheduling order.
    /// Scheduling in the past (before `now`) panics — that would break
    /// causality.
    pub fn schedule_msg_at(&mut self, at: SimTime, msg: M) {
        self.schedule(at, Fired::Msg(msg));
    }

    /// Schedule a typed message for delivery `after` from now.
    pub fn schedule_msg_in(&mut self, after: SimDur, msg: M) {
        self.schedule_msg_at(self.now + after, msg);
    }

    /// Consume one sequence number and schedule nothing: a message the
    /// model drops where it would have scheduled its arrival still takes
    /// the number a sharded run's post takes ([`crate::pdes::Emit::post`]).
    pub fn skip_seq(&mut self) {
        self.seq += 1;
    }

    /// Box `f` once as a handler that [`Sim::call_at`] can schedule any
    /// number of times, each call with its own argument.
    pub fn register(&mut self, f: impl FnMut(&mut W, &mut Sim<W, M>, u64) + 'static) -> CallId {
        let id = CallId(self.calls.len());
        self.calls.push(Some(Box::new(f)));
        id
    }

    /// Schedule a call of the registered handler `id` with `arg` at
    /// absolute time `at`. Scheduling in the past panics, as for
    /// [`Sim::schedule_msg_at`].
    pub fn call_at(&mut self, at: SimTime, id: CallId, arg: u64) {
        self.schedule(at, Fired::Call(id, arg));
    }

    /// Schedule a call of the registered handler `id` `after` from now.
    pub fn call_in(&mut self, after: SimDur, id: CallId, arg: u64) {
        self.call_at(self.now + after, id, arg);
    }

    /// Schedule a periodic handler: it fires at `start` and every
    /// `period` after that, for as long as the simulation runs.
    pub fn schedule_periodic(
        &mut self,
        start: SimTime,
        period: SimDur,
        mut f: impl FnMut(&mut W, &mut Sim<W, M>) + 'static,
    ) {
        assert!(!period.is_zero(), "periodic event with zero period");
        let next = CallId(self.calls.len());
        let id = self.register(move |w, sim, _| {
            f(w, sim);
            sim.call_in(period, next, 0);
        });
        debug_assert_eq!(id, next);
        self.call_at(start, id, 0);
    }

    /// Run events until the queue is exhausted or the clock passes `until`.
    /// The clock is left at the time of the last executed event (or `until`
    /// if no event at/before `until` existed — the clock then advances to
    /// `until`). Returns the number of events executed. Panics if `until`
    /// is before `now`: the clock does not run backwards.
    pub fn run_until(&mut self, world: &mut W, until: SimTime) -> u64
    where
        W: HandleMsg<M>,
    {
        assert!(until >= self.now, "cannot run backwards");
        let mut n = 0;
        while let Some((at, _seq, fired)) = self.wheel.pop_min_if(until.as_nanos()) {
            debug_assert!(at >= self.now.as_nanos(), "event time regressed");
            self.now = SimTime::from_nanos(at);
            self.executed += 1;
            n += 1;
            match fired {
                Fired::Msg(m) => world.handle(self, m),
                Fired::Call(id, arg) => {
                    let slot = id.0;
                    let mut f = self.calls[slot].take().expect("a handler called itself");
                    f(world, self, arg);
                    self.calls[slot] = Some(f);
                }
            }
        }
        self.now = until;
        n
    }

    /// Run events for `dur` from the current time. See [`Sim::run_until`].
    pub fn run_for(&mut self, world: &mut W, dur: SimDur) -> u64
    where
        W: HandleMsg<M>,
    {
        let until = self.now + dur;
        self.run_until(world, until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct W {
        log: Vec<(u64, &'static str)>,
    }

    /// Register a handler that logs `(now in ms, names[arg])`.
    fn logger(sim: &mut Sim<W>, names: &'static [&'static str]) -> CallId {
        sim.register(move |w: &mut W, s: &mut Sim<W>, arg| {
            w.log.push((s.now().as_millis(), names[arg as usize]));
        })
    }

    #[test]
    fn a_pending_call_is_two_words_and_a_tag() {
        // Beside a small message a call sets the size; the slab's `Option`
        // costs nothing on top. (A cluster event carries the call in its
        // spare tag values: `dproc::cluster` pins that at 152 bytes.)
        assert_eq!(Sim::<W, ()>::PENDING_BYTES, 24);
        assert_eq!(Sim::<W, u32>::PENDING_BYTES, 24);
        assert_eq!(Sim::<W, u64>::PENDING_BYTES, 24);
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W::default();
        let log = logger(&mut sim, &["a", "b", "c"]);
        sim.call_at(SimTime::from_millis(20), log, 1);
        sim.call_at(SimTime::from_millis(10), log, 0);
        sim.call_at(SimTime::from_millis(30), log, 2);
        let n = sim.run_until(&mut w, SimTime::from_secs(1));
        assert_eq!(n, 3);
        assert_eq!(w.log, vec![(10, "a"), (20, "b"), (30, "c")]);
        // Clock advances to `until` when the queue drains early.
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W::default();
        let t = SimTime::from_millis(5);
        let log = logger(&mut sim, &["first", "second"]);
        sim.call_at(t, log, 0);
        sim.call_at(t, log, 1);
        sim.run_until(&mut w, t);
        assert_eq!(w.log, vec![(5, "first"), (5, "second")]);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W::default();
        let child = logger(&mut sim, &["child"]);
        let parent = sim.register(move |_: &mut W, s: &mut Sim<W>, _| {
            s.call_in(SimDur::from_millis(1), child, 0);
        });
        sim.call_at(SimTime::from_millis(1), parent, 0);
        sim.run_until(&mut w, SimTime::from_millis(10));
        assert_eq!(w.log, vec![(2, "child")]);
    }

    #[test]
    fn periodic_fires_every_period_from_start() {
        struct C {
            fired: Vec<u64>,
        }
        let mut sim: Sim<C> = Sim::new();
        let mut w = C { fired: Vec::new() };
        sim.schedule_periodic(
            SimTime::from_secs(1),
            SimDur::from_secs(1),
            |w: &mut C, s: &mut Sim<C>| w.fired.push(s.now().as_millis()),
        );
        sim.run_until(&mut w, SimTime::from_millis(5_500));
        assert_eq!(w.fired, vec![1_000, 2_000, 3_000, 4_000, 5_000]);
        assert_eq!(sim.pending(), 1, "the next firing is armed");
    }

    #[test]
    fn calls_of_two_handlers_interleave_by_seq() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W::default();
        let id = logger(&mut sim, &["call0", "call1", "call2"]);
        let other = logger(&mut sim, &["other"]);
        let t = SimTime::from_millis(10);
        sim.call_at(t, id, 0);
        sim.call_at(t, other, 0);
        sim.call_at(t, id, 1);
        sim.call_at(SimTime::from_millis(5), id, 2);
        assert_eq!(sim.pending(), 4);
        sim.run_until(&mut w, SimTime::from_secs(1));
        assert_eq!(
            w.log,
            vec![(5, "call2"), (10, "call0"), (10, "other"), (10, "call1")]
        );
    }

    #[test]
    fn a_registered_handler_can_call_itself_again() {
        struct C {
            id: Option<CallId>,
            fired: Vec<(u64, u64)>,
        }
        let mut sim: Sim<C> = Sim::new();
        let mut w = C {
            id: None,
            fired: Vec::new(),
        };
        let id = sim.register(|w: &mut C, s: &mut Sim<C>, arg| {
            w.fired.push((s.now().as_millis(), arg));
            if arg < 3 {
                s.call_in(SimDur::from_millis(2), w.id.unwrap(), arg + 1);
            }
        });
        w.id = Some(id);
        sim.call_at(SimTime::from_millis(1), id, 0);
        sim.run_until(&mut w, SimTime::from_secs(1));
        assert_eq!(w.fired, vec![(1, 0), (3, 1), (5, 2), (7, 3)]);
    }

    #[test]
    fn run_until_leaves_future_events() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W::default();
        let log = logger(&mut sim, &["late"]);
        sim.call_at(SimTime::from_secs(10), log, 0);
        let n = sim.run_until(&mut w, SimTime::from_secs(5));
        assert_eq!(n, 0);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        sim.run_until(&mut w, SimTime::from_secs(20));
        assert_eq!(w.log.len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_past_panics() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W::default();
        sim.schedule_msg_at(SimTime::from_secs(1), ());
        sim.run_until(&mut w, SimTime::from_secs(2));
        sim.schedule_msg_at(SimTime::from_millis(500), ());
    }

    #[test]
    fn wheel_next_key_peeks_without_popping() {
        let mut w: Wheel<u32> = Wheel::new();
        assert_eq!(w.next_key(), None);
        w.insert(500, 3, 0);
        w.insert(500, 1, 1);
        w.insert(80, 7, 2);
        let horizon = 1u64 << 48;
        w.insert(horizon + 9, 4, 3);
        assert_eq!(w.next_key(), Some((80, 7)));
        assert_eq!(
            w.pop_min_if(u64::MAX).map(|(a, s, _)| (a, s)),
            Some((80, 7))
        );
        // Ties at the same time resolve by sequence.
        assert_eq!(w.next_key(), Some((500, 1)));
        assert_eq!(
            w.pop_min_if(u64::MAX).map(|(a, s, _)| (a, s)),
            Some((500, 1))
        );
        assert_eq!(
            w.pop_min_if(u64::MAX).map(|(a, s, _)| (a, s)),
            Some((500, 3))
        );
        // Only the overflow entry remains.
        assert_eq!(w.next_key(), Some((horizon + 9, 4)));
    }

    #[test]
    fn wheel_rekey_changes_pop_order() {
        let mut w: Wheel<&'static str> = Wheel::new();
        w.insert(100, 50, "late");
        w.insert(100, 9, "early");
        assert!(w.rekey(100, 50, 2), "pending entry rekeys");
        assert!(!w.rekey(100, 50, 3), "old key is gone");
        let horizon = 1u64 << 48;
        w.insert(horizon + 1, 70, "far");
        assert!(w.rekey(horizon + 1, 70, 1), "overflow entry rekeys");
        assert_eq!(w.pop_min_if(u64::MAX).map(|e| e.2), Some("late"));
        assert_eq!(w.pop_min_if(u64::MAX).map(|e| e.2), Some("early"));
        assert_eq!(w.pop_min_if(u64::MAX).unwrap().1, 1);
        assert!(!w.rekey(100, 9, 5), "fired entry reports false");
    }

    #[derive(Debug, PartialEq, Eq)]
    enum Msg {
        Ping(u32),
    }

    struct MW {
        log: Vec<(u64, String)>,
    }

    impl HandleMsg<Msg> for MW {
        fn handle(&mut self, sim: &mut Sim<Self, Msg>, msg: Msg) {
            let Msg::Ping(k) = msg;
            self.log.push((sim.now().as_millis(), format!("msg{k}")));
            // Handlers may schedule follow-up messages.
            if k == 7 {
                sim.schedule_msg_in(SimDur::from_millis(1), Msg::Ping(8));
            }
        }
    }

    #[test]
    fn typed_messages_interleave_with_calls_by_seq() {
        let mut sim: Sim<MW, Msg> = Sim::new();
        let mut w = MW { log: Vec::new() };
        let t = SimTime::from_millis(10);
        let log = sim.register(|w: &mut MW, s: &mut Sim<MW, Msg>, k| {
            w.log.push((s.now().as_millis(), format!("fn{k}")));
        });
        sim.call_at(t, log, 0);
        sim.schedule_msg_at(SimTime::from_millis(5), Msg::Ping(1));
        sim.schedule_msg_at(t, Msg::Ping(2));
        sim.call_at(t, log, 3);
        assert_eq!(sim.pending(), 4);
        let n = sim.run_until(&mut w, SimTime::from_secs(1));
        assert_eq!(n, 4);
        // Same-time entries fire in scheduling order across both kinds.
        let want: Vec<(u64, String)> = vec![
            (5, "msg1".into()),
            (10, "fn0".into()),
            (10, "msg2".into()),
            (10, "fn3".into()),
        ];
        assert_eq!(w.log, want);
    }

    #[test]
    fn typed_messages_chain() {
        let mut sim: Sim<MW, Msg> = Sim::new();
        let mut w = MW { log: Vec::new() };
        // A handler-scheduled follow-up message fires too.
        sim.schedule_msg_at(SimTime::from_millis(2), Msg::Ping(7));
        sim.run_until(&mut w, SimTime::from_secs(1));
        let want: Vec<(u64, String)> = vec![(2, "msg7".into()), (3, "msg8".into())];
        assert_eq!(w.log, want);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn cascaded_slots_recycle_their_buffers() {
        // Drive the cursor through enough level >= 1 pops that drained
        // buffers pass through the per-level free lists into other slots, and
        // check ordering survives (correctness is what the invariants
        // guarantee; the capacity claim has its own test below).
        let mut w: Wheel<u64> = Wheel::new();
        let mut expect = Vec::new();
        for seq in 0..200u64 {
            let at = seq * 1_000_003; // straddles several level boundaries
            w.insert(at, seq, at);
            expect.push(at);
        }
        let mut got = Vec::new();
        while let Some((at, _s, v)) = w.pop_min_if(u64::MAX) {
            assert_eq!(at, v);
            got.push(v);
        }
        assert_eq!(got, expect);
        assert_eq!(w.len(), 0);
    }

    impl<T> Wheel<T> {
        /// Entry capacity held by every slot buffer and free list.
        fn retained_capacity(&self) -> usize {
            let pooled = self.pool.iter().flatten();
            self.slots.iter().chain(pooled).map(Vec::capacity).sum()
        }
    }

    #[test]
    fn periodic_timers_circulate_one_buffer_set_per_level() {
        // 1024 timers re-armed every second, staggered evenly across the
        // period — the shape of a 1024-node cluster's d-mon polls — over
        // four full turns of level 5 (2^36 ns each).
        const TIMERS: u64 = 1024;
        const PERIOD: u64 = 1_000_000_000;
        let turn = 1u64 << (LEVEL_BITS * 6);
        let mut w: Wheel<u64> = Wheel::new();
        let mut seq = 0;
        for k in 0..TIMERS {
            w.insert(k * (PERIOD / TIMERS), seq, k);
            seq += 1;
        }
        let mut warm_grows = None;
        let mut fired_warm = 0u64;
        while let Some((at, _, k)) = w.pop_min_if(4 * turn) {
            assert_eq!(w.len() as u64, TIMERS - 1, "one pending entry per timer");
            w.insert(at + PERIOD, seq, k);
            seq += 1;
            if at >= turn {
                warm_grows.get_or_insert(w.grows);
                fired_warm += 1;
            }
        }
        assert!(
            fired_warm > 3 * 64 * TIMERS,
            "three turns of level 5 ran warm"
        );
        // Steady state allocates nothing: every buffer a slot needs is
        // already circulating through its level's free list.
        assert_eq!(
            Some(w.grows),
            warm_grows,
            "buffer growth after the first turn"
        );
        // Without the free lists every level-5 slot the cursor visited
        // kept a 1024-entry buffer (64x the pending count after one turn).
        // With them each level holds what it needs at once: one
        // peak-sized buffer at levels 5 and 6, sixty-odd level-4 buffers
        // of ~17 entries (32 after doubling), a handful below.
        let retained = w.retained_capacity() as u64;
        assert!(retained <= 5 * TIMERS, "retained {retained} entries");
    }

    #[test]
    fn a_delivery_is_placed_at_most_twice() {
        // The shape of a 16-node star: polls 1 s apart per node and 1 ms
        // apart between nodes, each sending a frame to every peer that
        // arrives some 250 us later, 10 us after the previous one. A frame
        // lands on level 3 beside its poll's other frames; the first of
        // them to go moves the rest down once and every later pop finds
        // its minimum where it lies. (Moving each entry down one level at
        // a time placed every frame four times.)
        const NODES: u64 = 16;
        const POLL: u64 = u64::MAX;
        let mut w: Wheel<u64> = Wheel::new();
        let mut seq = 0;
        let mut insert = |w: &mut Wheel<u64>, at: u64, what: u64| {
            w.insert(at, seq, what);
            seq += 1;
        };
        for i in 0..NODES {
            insert(&mut w, 1_000_000_000 + i * 1_000_000, POLL);
        }
        let mut fired = 0u64;
        while let Some((at, _, what)) = w.pop_min_if(60_000_000_000) {
            fired += 1;
            if what == POLL {
                for j in 0..NODES - 1 {
                    insert(&mut w, at + 250_000 + j * 10_000, j);
                }
                insert(&mut w, at + 1_000_000_000, POLL);
            }
        }
        assert!(fired > 14_000, "a minute of polls and frames: {fired}");
        assert!(
            w.places <= 2 * fired,
            "{} placements for {fired} events",
            w.places
        );
    }

    #[test]
    fn slot_mates_of_a_direct_pop_are_found_where_they_landed() {
        // Three entries share one level-3 slot. Popping the first moves
        // the cursor into the slot and the other two down a level or
        // more: `rekey` must address them from there.
        let base = 5u64 << 18;
        let mut w: Wheel<&'static str> = Wheel::new();
        w.insert(base + 9_000, 0, "first");
        w.insert(base + 9_000, 7, "same time");
        w.insert(base + 70_000, 1, "later");
        assert_eq!(w.pop_min_if(u64::MAX).map(|e| e.2), Some("first"));
        assert_eq!(w.cur, base + 9_000);
        assert!(w.rekey(base + 9_000, 7, 3));
        assert!(!w.rekey(base + 9_000, 7, 4), "old key is gone");
        assert_eq!(w.next_key(), Some((base + 9_000, 3)));
        assert_eq!(w.pop_min_if(u64::MAX).map(|e| e.2), Some("same time"));
        assert_eq!(w.pop_min_if(u64::MAX).map(|e| e.2), Some("later"));
        assert_eq!(w.pop_min_if(u64::MAX).map(|e| e.2), None);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn a_bound_inside_the_earliest_slot_moves_nothing() {
        let base = 5u64 << 18;
        let mut w: Wheel<u8> = Wheel::new();
        w.insert(base + 9_000, 0, 0);
        let places = w.places;
        assert!(w.pop_min_if(base + 8_999).is_none());
        assert_eq!((w.cur, w.places), (0, places));
        // An earlier event may still arrive behind the bound.
        w.insert(base + 100, 1, 1);
        assert_eq!(w.pop_min_if(base + 9_000).map(|e| e.2), Some(1));
        assert_eq!(w.pop_min_if(base + 9_000).map(|e| e.2), Some(0));
    }

    #[test]
    fn dropping_a_sim_drops_what_is_pending() {
        use std::rc::Rc;
        let token = Rc::new(());
        let mut sim: Sim<W, Rc<()>> = Sim::new();
        sim.schedule_msg_at(SimTime::from_millis(3), Rc::clone(&token));
        let kept = Rc::clone(&token);
        let id = sim.register(move |_, _, _| {
            let _ = &kept;
        });
        sim.call_at(SimTime::from_millis(4), id, 0);
        assert_eq!(Rc::strong_count(&token), 3);
        drop(sim);
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn slab_is_as_long_as_peak_pending() {
        // 10^5 seeded schedule / pop steps over every wheel level and the
        // overflow map: vacated payload slots are reused before the slab
        // grows, and every payload comes back under its own key, least
        // key first.
        let mut w: Wheel<(u64, u64)> = Wheel::new();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (mut seq, mut peak) = (0u64, 0usize);
        let mut live = std::collections::BTreeSet::new();
        for _ in 0..100_000 {
            if next() % 2 == 0 {
                let at = w.cur + (1u64 << (next() % 50)) + next() % 1000;
                w.insert(at, seq, (at, seq));
                live.insert((at, seq));
                seq += 1;
            } else if let Some((at, s, payload)) = w.pop_min_if(u64::MAX) {
                assert_eq!(payload, (at, s));
                assert_eq!(live.pop_first(), Some((at, s)));
            }
            assert_eq!(w.len(), live.len());
            peak = peak.max(w.len());
            assert!(w.slab.len() <= peak, "slab {} peak {peak}", w.slab.len());
        }
        assert!(peak > 100, "the walk kept events pending");
    }

    #[test]
    fn events_past_the_wheel_horizon_still_fire_in_order() {
        // 2^48 ns is the wheel horizon; both sides of it must interleave
        // correctly through the overflow map.
        let mut sim: Sim<W> = Sim::new();
        let mut w = W::default();
        let horizon = 1u64 << 48;
        let log = logger(&mut sim, &["near", "far"]);
        sim.call_at(SimTime::from_nanos(horizon + 5), log, 1);
        sim.call_at(SimTime::from_nanos(7), log, 0);
        let n = sim.run_until(&mut w, SimTime::from_nanos(2 * horizon));
        assert_eq!(n, 2);
        let far = (horizon + 5) / 1_000_000;
        assert_eq!(w.log, vec![(0, "near"), (far, "far")]);
    }
}
