//! A window of the sharded engine allocates nothing once its logs have
//! reached their working size: the coordinating thread's scratch is built
//! once per `run_until`, a shard's log, provisional-sequence map, outboxes
//! and worklist are cleared and kept (by the engine, from one `run_until`
//! to the next; an outbox circulates between its pair's two ends), and the
//! wheels circulate their slot buffers. Counted over every thread, so
//! the binary has no test harness: its `main` runs the check alone.

use dproc_bench::alloc::{all_calls, Counting};
use simcore::pdes::{
    Coordinator, Emit, Engine, Receipt, Sched, ShardWorld, SharedView, WindowMode, Worlds,
};
use simcore::{SimDur, SimTime};

#[global_allocator]
static GLOBAL: Counting = Counting;

const PERIOD: u64 = 5_000;
const DELAY: u64 = 1_000;

/// A ring of counters whose handlers allocate nothing: every period a
/// node ticks, starts a short same-shard chain, posts its count to the
/// next node's shard and re-arms.
struct Ring {
    counts: Vec<u64>,
    shards: usize,
}

#[derive(Clone, Copy)]
enum Ev {
    Tick(usize),
    Chain(usize, u8),
    Recv(usize, u64),
}

struct Send {
    to: usize,
    val: u64,
}

impl ShardWorld for Ring {
    type Ev = Ev;
    type Fx = ();
    type Post = Send;
    type Shared = usize;

    fn execute(
        &mut self,
        now: SimTime,
        ev: Ev,
        out: &mut Emit<'_, Ring>,
        nodes: &mut SharedView<'_, usize>,
    ) {
        let n = match nodes {
            SharedView::Frozen(n) => **n,
            SharedView::Exclusive(n) => **n,
        };
        match ev {
            Ev::Tick(i) => {
                self.counts[i] = self.counts[i].wrapping_add(1);
                out.schedule_in(SimDur::from_nanos(3), Ev::Chain(i, 2));
                let (to, val) = ((i + 1) % n, self.counts[i]);
                out.post(to % self.shards, Send { to, val });
                out.schedule_at(now + SimDur::from_nanos(PERIOD), Ev::Tick(i));
            }
            Ev::Chain(i, depth) => {
                self.counts[i] = self.counts[i].wrapping_add(u64::from(depth));
                if depth > 0 {
                    out.schedule_in(SimDur::from_nanos(3), Ev::Chain(i, depth - 1));
                }
            }
            Ev::Recv(i, val) => self.counts[i] = self.counts[i].wrapping_mul(3).wrapping_add(val),
        }
    }

    fn receive(&mut self, now: SimTime, Send { to, val }: Send, receipt: Receipt<'_, Ev>) {
        receipt.schedule_at(now + SimDur::from_nanos(DELAY), Ev::Recv(to, val));
    }
}

/// Reads the allocation counter at two windows of the run.
struct Meter {
    serial_every: u64,
    windows: u64,
    calls_at: [(u64, u64); 2],
}

impl Coordinator<Ring> for Meter {
    fn plan(
        &mut self,
        _nodes: &usize,
        _worlds: &Worlds<'_, '_, Ring>,
        _t0: SimTime,
        _bound: SimTime,
    ) -> WindowMode {
        self.windows += 1;
        for (at, calls) in &mut self.calls_at {
            if *at == self.windows {
                *calls = all_calls();
            }
        }
        if self.windows.is_multiple_of(self.serial_every) {
            WindowMode::Serial
        } else {
            WindowMode::Parallel
        }
    }

    fn apply(
        &mut self,
        _now: SimTime,
        (): (),
        _nodes: &mut usize,
        _worlds: &mut Worlds<'_, '_, Ring>,
        _sched: &mut Sched<'_, '_, Ev>,
    ) {
    }
}

fn main() {
    pdes_windows_allocate_nothing_at_working_size();
    println!("test pdes_windows_allocate_nothing_at_working_size ... ok");
}

fn pdes_windows_allocate_nothing_at_working_size() {
    const NODES: usize = 24;
    const SHARDS: usize = 3;
    let mut engine: Engine<Ring> = Engine::new(SHARDS, SimDur::from_nanos(DELAY));
    let worlds = (0..SHARDS).map(|_| Ring {
        counts: vec![0; NODES],
        shards: SHARDS,
    });
    for i in 0..NODES {
        let at = SimTime::from_nanos(PERIOD + i as u64 * 7);
        engine.schedule(i % SHARDS, at, Ev::Tick(i));
    }
    // Every fifth window serial, so `serial_window` is measured too. The
    // first thousand windows are the warm-up: logs and wheel slots grow to
    // the size this population needs (the last growth falls between windows
    // 500 and 1000).
    let mut meter = Meter {
        serial_every: 5,
        windows: 0,
        calls_at: [(1_000, 0), (2_900, 0)],
    };
    let mut nodes = NODES;
    let until = SimTime::from_nanos(3_000 * PERIOD);
    engine.run_until(worlds.collect(), &mut nodes, &mut meter, until);

    assert!(meter.windows > 2_900, "only {} windows", meter.windows);
    let stats = engine.stats();
    assert!(stats.windows_serial > 400 && stats.windows_parallel > 1_600);
    assert!(stats.windows_parallel > 2 * stats.windows_inline);
    let [(_, before), (_, after)] = meter.calls_at;
    assert_eq!(
        after - before,
        0,
        "allocator calls over windows 1000 to 2900, by any thread"
    );
}
