//! Differential test: the timer wheel against a reference scheduler with the
//! original `BinaryHeap` semantics.
//!
//! The reference model reproduces the heap-based scheduler's observable
//! contract exactly — total `(time, seq)` firing order, tombstone-style
//! cancellation, `run_until` clock advancement, `run_to_completion` budgets —
//! and both are driven with identical randomized schedules. Any divergence
//! in the firing log, executed counts, or final clock is a wheel bug.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use simcore::{EventId, Sim, SimDur, SimTime};

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
    cancelled: HashSet<u64>,
    log: Vec<(u64, u32)>,
}

impl RefSched {
    fn schedule_at(&mut self, at: u64, tag: u32) -> u64 {
        assert!(at >= self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, seq, tag)));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        if seq >= self.seq {
            return false;
        }
        self.cancelled.insert(seq)
    }

    fn run_until(&mut self, until: u64) -> u64 {
        let mut n = 0;
        while let Some(&Reverse((at, seq, tag))) = self.heap.peek() {
            if at > until {
                break;
            }
            self.heap.pop();
            if self.cancelled.remove(&seq) {
                continue;
            }
            self.now = at;
            self.log.push((at, tag));
            n += 1;
        }
        if self.now < until {
            self.now = until;
        }
        n
    }

    fn run_to_completion(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events {
            let Some(Reverse((at, seq, tag))) = self.heap.pop() else {
                break;
            };
            if self.cancelled.remove(&seq) {
                continue;
            }
            self.now = at;
            self.log.push((at, tag));
            n += 1;
        }
        n
    }
}

type World = Vec<(u64, u32)>;

fn schedule_tag(sim: &mut Sim<World>, at: u64, tag: u32) -> EventId {
    sim.schedule_at(
        SimTime::from_nanos(at),
        move |w: &mut World, s: &mut Sim<World>| {
            w.push((s.now().as_nanos(), tag));
        },
    )
}

/// Drive both schedulers with an identical random mix of schedules (near,
/// clustered, and past-the-horizon times), cancellations of live ids, and
/// interleaved `run_until` steps; the firing logs must match exactly.
#[test]
fn wheel_matches_reference_on_randomized_schedules() {
    for seed in [0x1u64, 0xDEAD_BEEF, 0x5EED_CAFE, 0x1234_5678_9ABC] {
        let mut rng = Rng(seed);
        let mut sim: Sim<World> = Sim::new();
        let mut world: World = Vec::new();
        let mut reference = RefSched::default();
        // Live ids for cancellation: (wheel id, reference seq).
        let mut live: Vec<(EventId, u64)> = Vec::new();
        let mut tag = 0u32;

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
                        tag += 1;
                        let id = schedule_tag(&mut sim, at, tag);
                        let rseq = reference.schedule_at(at, tag);
                        live.push((id, rseq));
                    }
                }
                // Sometimes: cancel a previously scheduled (possibly already
                // fired) event — both sides must keep firing logs aligned.
                6..=7 => {
                    if !live.is_empty() {
                        let k = rng.below(live.len() as u64) as usize;
                        let (id, rseq) = live.swap_remove(k);
                        sim.cancel(id);
                        reference.cancel(rseq);
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
                world, reference.log,
                "seed {seed:#x}: firing order diverged"
            );
        }

        // Drain everything that is left and compare the complete history.
        let n_wheel = sim.run_until(&mut world, SimTime::from_nanos(u64::MAX));
        let n_ref = reference.run_until(u64::MAX);
        assert_eq!(n_wheel, n_ref, "seed {seed:#x}: drain counts diverged");
        assert_eq!(world, reference.log, "seed {seed:#x}: final logs diverged");
        assert_eq!(sim.pending(), 0);
    }
}

/// `run_to_completion` budgets must stop both schedulers at the same event.
#[test]
fn wheel_matches_reference_under_completion_budgets() {
    for seed in [0xABCDu64, 0xF00D_F00D] {
        let mut rng = Rng(seed);
        let mut sim: Sim<World> = Sim::new();
        let mut world: World = Vec::new();
        let mut reference = RefSched::default();

        let mut ids = Vec::new();
        for tag in 0..300u32 {
            let at = rng.below(1 << 50);
            ids.push((
                schedule_tag(&mut sim, at, tag),
                reference.schedule_at(at, tag),
            ));
        }
        // A few cancellations before running; both sides must skip them.
        let mut cancelled = 0;
        for _ in 0..30 {
            let k = rng.below(ids.len() as u64) as usize;
            let (id, rseq) = ids.swap_remove(k);
            assert!(sim.cancel(id));
            assert!(reference.cancel(rseq));
            cancelled += 1;
        }
        let mut drained = 0;
        loop {
            let budget = rng.below(40) + 1;
            let n_wheel = sim.run_to_completion(&mut world, budget);
            let n_ref = reference.run_to_completion(budget);
            assert_eq!(n_wheel, n_ref, "seed {seed:#x}: budget runs diverged");
            assert_eq!(world, reference.log, "seed {seed:#x}: logs diverged");
            drained += n_wheel;
            if n_wheel == 0 {
                break;
            }
        }
        assert_eq!(drained, 300 - cancelled);
    }
}

/// Same-time events fire strictly in schedule order even when scheduled
/// from inside handlers at the currently firing instant.
#[test]
fn reentrant_same_time_scheduling_keeps_seq_order() {
    let mut sim: Sim<World> = Sim::new();
    let mut world: World = Vec::new();
    let t = SimTime::from_micros(3);
    sim.schedule_at(t, move |w: &mut World, s: &mut Sim<World>| {
        w.push((s.now().as_nanos(), 1));
        // Scheduled mid-firing at the same instant: must run after every
        // already-queued same-time event (higher seq), in this same run.
        s.schedule_at(t, |w: &mut World, s: &mut Sim<World>| {
            w.push((s.now().as_nanos(), 3));
        });
    });
    sim.schedule_at(t, |w: &mut World, s: &mut Sim<World>| {
        w.push((s.now().as_nanos(), 2));
    });
    sim.run_until(&mut world, SimTime::from_secs(1));
    let ns = t.as_nanos();
    assert_eq!(world, vec![(ns, 1), (ns, 2), (ns, 3)]);
    assert_eq!(sim.executed(), 3);
}

/// `run_for` composes with the wheel cursor exactly like `run_until`.
#[test]
fn run_for_steps_match_single_run_until() {
    let mut stepped: Sim<World> = Sim::new();
    let mut one_shot: Sim<World> = Sim::new();
    let mut w_stepped: World = Vec::new();
    let mut w_one: World = Vec::new();
    let mut rng = Rng(0x77);
    for tag in 0..200u32 {
        let at = rng.below(10_000_000_000);
        schedule_tag(&mut stepped, at, tag);
        schedule_tag(&mut one_shot, at, tag);
    }
    for _ in 0..100 {
        stepped.run_for(&mut w_stepped, SimDur::from_millis(100));
    }
    one_shot.run_until(&mut w_one, SimTime::from_secs(10));
    assert_eq!(w_stepped, w_one);
    assert_eq!(stepped.now(), one_shot.now());
}

/// The pop takes the minimum from whatever level it lies on and re-places
/// only its slot-mates. The shapes that path adds, each against the
/// reference: a bound that falls between a slot's start and its minimum
/// (nothing may move, and an earlier event may still be scheduled behind
/// it), several entries with one timestamp sharing a level-3 slot with
/// others, and cancelling a slot-mate right after the minimum was taken
/// from beside it. (`rekey` is not reachable through `Sim`; its twin of
/// the last shape is a unit test in `event.rs`.)
#[test]
fn direct_pops_from_a_high_level_match_the_reference() {
    let mut sim: Sim<World> = Sim::new();
    let mut world: World = Vec::new();
    let mut reference = RefSched::default();
    let mut tag = 0u32;
    let mut both = |sim: &mut Sim<World>, reference: &mut RefSched, at: u64| {
        tag += 1;
        (schedule_tag(sim, at, tag), reference.schedule_at(at, tag))
    };
    let run = |sim: &mut Sim<World>, world: &mut World, reference: &mut RefSched, until: u64| {
        let n = sim.run_until(world, SimTime::from_nanos(until));
        assert_eq!(n, reference.run_until(until));
        assert_eq!(sim.now().as_nanos(), reference.now);
        assert_eq!(*world, reference.log);
    };

    // Level 3, slot 5 (2^18 ns per slot); its minimum is 9 us in.
    let slot = 5u64 << 18;
    both(&mut sim, &mut reference, slot + 9_000);
    let (mate, mate_ref) = both(&mut sim, &mut reference, slot + 70_000);
    for _ in 0..3 {
        both(&mut sim, &mut reference, slot + 40_000);
    }
    // The bound is past the slot's start but short of its minimum.
    run(&mut sim, &mut world, &mut reference, slot + 8_000);
    assert!(world.is_empty());
    // Behind the bound, ahead of the old minimum: fires first.
    both(&mut sim, &mut reference, slot + 8_500);
    run(&mut sim, &mut world, &mut reference, slot + 9_000);
    assert_eq!(world.len(), 2);
    // The slot-mates were re-placed under the moved cursor: cancel one,
    // and the three that share a timestamp fire in schedule order.
    assert!(sim.cancel(mate));
    assert!(reference.cancel(mate_ref));
    both(&mut sim, &mut reference, slot + 40_000);
    run(&mut sim, &mut world, &mut reference, u64::MAX);
    assert_eq!(world.len(), 6);
    assert_eq!(sim.pending(), 0);
}
