//! Differential test: the timer wheel against a reference scheduler with the
//! original `BinaryHeap` semantics.
//!
//! The reference model reproduces the heap-based scheduler's observable
//! contract exactly — total `(time, seq)` firing order and `run_until` clock
//! advancement — and both are driven with identical randomized schedules.
//! `Sim` gets a seeded mix of its two payload kinds, boxed closures and
//! typed `u32` messages, each logging its tag to the world when it fires;
//! the reference knows only tags. Any divergence in the firing log,
//! executed counts, or final clock is a wheel bug.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use simcore::{HandleMsg, Sim, SimDur, SimTime};

/// Deterministic xorshift PRNG — no external dependency, fixed seeds.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The old scheduler's semantics, reduced to what is observable: each event
/// is a tag that gets appended to a log when it fires.
#[derive(Default)]
struct RefSched {
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>, // (at, seq, tag)
    log: Vec<(u64, u32)>,
}

impl RefSched {
    fn schedule_at(&mut self, at: u64, tag: u32) {
        assert!(at >= self.now);
        self.heap.push(Reverse((at, self.seq, tag)));
        self.seq += 1;
    }

    fn run_until(&mut self, until: u64) -> u64 {
        let mut n = 0;
        while let Some(&Reverse((at, _seq, tag))) = self.heap.peek() {
            if at > until {
                break;
            }
            self.heap.pop();
            self.now = at;
            self.log.push((at, tag));
            n += 1;
        }
        if self.now < until {
            self.now = until;
        }
        n
    }
}

/// The firing log: `(time, tag)` per event, whichever kind it was.
#[derive(Default)]
struct World {
    log: Vec<(u64, u32)>,
}

impl HandleMsg<u32> for World {
    fn handle(&mut self, sim: &mut S, tag: u32) {
        self.log.push((sim.now().as_nanos(), tag));
    }
}

type S = Sim<World, u32>;

/// Schedule `tag` at `at` as a typed message if `msg`, else as a closure.
fn schedule_tag(sim: &mut S, at: u64, tag: u32, msg: bool) {
    let at = SimTime::from_nanos(at);
    if msg {
        sim.schedule_msg_at(at, tag);
    } else {
        sim.schedule_at(at, move |w: &mut World, s: &mut S| {
            w.log.push((s.now().as_nanos(), tag));
        });
    }
}

/// Drive both schedulers with an identical random mix of schedules (near,
/// clustered, and past-the-horizon times; closures and messages) and
/// interleaved `run_until` steps; the firing logs must match exactly.
#[test]
fn wheel_matches_reference_on_randomized_schedules() {
    for seed in [0x1u64, 0xDEAD_BEEF, 0x5EED_CAFE, 0x1234_5678_9ABC] {
        let mut rng = Rng(seed);
        let mut sim: S = Sim::new();
        let mut world = World::default();
        let mut reference = RefSched::default();
        let mut tag = 0u32;
        let mut msgs = 0;

        for _round in 0..200 {
            match rng.below(10) {
                // Mostly: schedule a batch at assorted offsets.
                0..=5 => {
                    for _ in 0..rng.below(6) {
                        let offset = match rng.below(4) {
                            // Same-tick collisions exercise seq tie-breaks.
                            0 => rng.below(4),
                            // Near future inside the level-0/1 windows.
                            1 => rng.below(5_000),
                            // Mid-range across several wheel levels.
                            2 => rng.below(40_000_000_000),
                            // Past the 2^48 ns horizon: overflow map.
                            _ => (1 << 48) + rng.below(1 << 20),
                        };
                        let at = sim.now().as_nanos() + offset;
                        let msg = rng.below(2) == 0;
                        msgs += u32::from(msg);
                        tag += 1;
                        schedule_tag(&mut sim, at, tag, msg);
                        reference.schedule_at(at, tag);
                    }
                }
                // Otherwise: advance time by a random step.
                _ => {
                    let step = rng.below(2_000_000_000) + 1;
                    let until = sim.now().as_nanos() + step;
                    let n_wheel = sim.run_until(&mut world, SimTime::from_nanos(until));
                    let n_ref = reference.run_until(until);
                    assert_eq!(n_wheel, n_ref, "seed {seed:#x}: executed counts diverged");
                    assert_eq!(
                        sim.now().as_nanos(),
                        reference.now,
                        "seed {seed:#x}: clocks diverged"
                    );
                }
            }
            assert_eq!(
                world.log, reference.log,
                "seed {seed:#x}: firing order diverged"
            );
        }

        // Drain everything that is left and compare the complete history.
        let n_wheel = sim.run_until(&mut world, SimTime::from_nanos(u64::MAX));
        let n_ref = reference.run_until(u64::MAX);
        assert_eq!(n_wheel, n_ref, "seed {seed:#x}: drain counts diverged");
        assert_eq!(
            world.log, reference.log,
            "seed {seed:#x}: final logs diverged"
        );
        assert_eq!(sim.pending(), 0);
        assert!(
            msgs > 0 && msgs < tag,
            "seed {seed:#x}: both kinds scheduled"
        );
    }
}

/// Same-time events fire strictly in schedule order even when scheduled
/// from inside handlers at the currently firing instant.
#[test]
fn reentrant_same_time_scheduling_keeps_seq_order() {
    let mut sim: S = Sim::new();
    let mut world = World::default();
    let t = SimTime::from_micros(3);
    sim.schedule_at(t, move |w: &mut World, s: &mut S| {
        w.log.push((s.now().as_nanos(), 1));
        // Scheduled mid-firing at the same instant: must run after every
        // already-queued same-time event (higher seq), in this same run.
        s.schedule_at(t, |w: &mut World, s: &mut S| {
            w.log.push((s.now().as_nanos(), 3));
        });
        s.schedule_msg_at(t, 4);
    });
    sim.schedule_msg_at(t, 2);
    sim.run_until(&mut world, SimTime::from_secs(1));
    let ns = t.as_nanos();
    assert_eq!(world.log, vec![(ns, 1), (ns, 2), (ns, 3), (ns, 4)]);
    assert_eq!(sim.executed(), 4);
}

/// `run_for` composes with the wheel cursor exactly like `run_until`.
#[test]
fn run_for_steps_match_single_run_until() {
    let mut stepped: S = Sim::new();
    let mut one_shot: S = Sim::new();
    let mut w_stepped = World::default();
    let mut w_one = World::default();
    let mut rng = Rng(0x77);
    for tag in 0..200u32 {
        let at = rng.below(10_000_000_000);
        schedule_tag(&mut stepped, at, tag, tag.is_multiple_of(2));
        schedule_tag(&mut one_shot, at, tag, tag.is_multiple_of(2));
    }
    for _ in 0..100 {
        stepped.run_for(&mut w_stepped, SimDur::from_millis(100));
    }
    one_shot.run_until(&mut w_one, SimTime::from_secs(10));
    assert_eq!(w_stepped.log, w_one.log);
    assert_eq!(stepped.now(), one_shot.now());
}

/// The pop takes the minimum from whatever level it lies on and re-places
/// only its slot-mates. The shapes that path adds, each against the
/// reference: a bound that falls between a slot's start and its minimum
/// (nothing may move, and an earlier event may still be scheduled behind
/// it), and several entries with one timestamp sharing a level-3 slot with
/// others, re-placed under the moved cursor. (`rekey` is not reachable
/// through `Sim`; its twin of the last shape is a unit test in
/// `event.rs`.)
#[test]
fn direct_pops_from_a_high_level_match_the_reference() {
    let mut sim: S = Sim::new();
    let mut world = World::default();
    let mut reference = RefSched::default();
    let mut tag = 0u32;
    let mut both = |sim: &mut S, reference: &mut RefSched, at: u64| {
        tag += 1;
        schedule_tag(sim, at, tag, tag.is_multiple_of(2));
        reference.schedule_at(at, tag);
    };
    let run = |sim: &mut S, world: &mut World, reference: &mut RefSched, until: u64| {
        let n = sim.run_until(world, SimTime::from_nanos(until));
        assert_eq!(n, reference.run_until(until));
        assert_eq!(sim.now().as_nanos(), reference.now);
        assert_eq!(world.log, reference.log);
    };

    // Level 3, slot 5 (2^18 ns per slot); its minimum is 9 us in.
    let slot = 5u64 << 18;
    both(&mut sim, &mut reference, slot + 9_000);
    both(&mut sim, &mut reference, slot + 70_000);
    for _ in 0..3 {
        both(&mut sim, &mut reference, slot + 40_000);
    }
    // The bound is past the slot's start but short of its minimum.
    run(&mut sim, &mut world, &mut reference, slot + 8_000);
    assert!(world.log.is_empty());
    // Behind the bound, ahead of the old minimum: fires first.
    both(&mut sim, &mut reference, slot + 8_500);
    run(&mut sim, &mut world, &mut reference, slot + 9_000);
    assert_eq!(world.log.len(), 2);
    // The slot-mates were re-placed under the moved cursor: the four that
    // share a timestamp fire in schedule order, then the last.
    both(&mut sim, &mut reference, slot + 40_000);
    run(&mut sim, &mut world, &mut reference, u64::MAX);
    assert_eq!(world.log.len(), 7);
    assert_eq!(sim.pending(), 0);
}
