//! Fluid fair-share CPU scheduler.
//!
//! Tasks share `n_cpus` processors equally (each runnable task gets
//! `min(1, n_cpus / runnable)` of a CPU). Between calls to
//! [`CpuSched::advance`], work accrues to runnable tasks at that share.
//! Two task kinds exist:
//!
//! * **compute** tasks model CPU hogs like linpack: always runnable,
//!   accumulating floating-point work; throughput in Mflops is derived
//!   from accumulated work over wall time;
//! * **service** tasks model kernel work (d-mon polling, event handling,
//!   stream processing): normally sleeping, woken to burn a caller-
//!   specified amount of CPU time ([`CpuSched::charge`]).
//!
//! # Timed burns
//!
//! A service task is a serial server: charges queue and are burnt one at a
//! time, the task staying runnable from the first to the end of the last.
//! The scheduler itself computes when each burn ends — the burn's CPU time
//! over the share in force when it *starts*; later load changes are not
//! applied retroactively — and stores that time. Nothing is scheduled for
//! it. Instead every entry point that takes `now` first completes the burns
//! that are due, in time order and each at its own timestamp: it
//! integrates work up to the burn's end, then either starts the task's
//! next queued burn there (at the share in force there) or puts the task
//! to sleep there. The run-queue history, the work counters and the
//! completion times are therefore what a caller firing one completion
//! event per burn would have produced, whenever the scheduler happens to be
//! looked at.
//!
//! **The tie rule.** A burn that ends at `t` is still running for a caller
//! *at* `t`: entry points complete burns that end strictly before `now`. A
//! poll at `t` counts the service thread in its run queue, a charge at `t`
//! queues behind the burn, a queue drop at `t` drops what is behind it.
//! [`CpuSched::settle_through`] is the one inclusive entry: whoever stops
//! the clock at `t` (the end of an event loop run) calls it so that
//! everything due by `t` has happened before anyone outside looks.
//!
//! The `&self` readers ([`CpuSched::loadavg`], [`CpuSched::runnable`],
//! [`CpuSched::share`], the work counters) cannot complete anything: call
//! [`CpuSched::advance`] at the time of the read first, as every caller in
//! the tree does.
//!
//! The scheduler maintains a run-queue length history so dproc's CPU_MON
//! can compute load averages over arbitrary, application-chosen windows —
//! the paper's point about `/proc/loadavg`'s fixed 1/5/15-minute windows
//! being too coarse.

use std::collections::VecDeque;

use simcore::{SimDur, SimTime};

/// Identifier of a task on one host's scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(usize);

/// Whether a task currently demands CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// On the run queue, receiving a share.
    Runnable,
    /// Blocked; receives nothing.
    Sleeping,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Compute,
    Service,
}

#[derive(Debug)]
struct Task {
    name: String,
    kind: Kind,
    state: TaskState,
    /// Accumulated CPU work, in flops for compute / cpu-seconds for service.
    work_done: f64,
    alive: bool,
    /// Charged burns not yet started, in arrival order.
    burns: VecDeque<SimDur>,
    /// When the burn in service ends; `SimTime::MAX` while there is none.
    burn_end: SimTime,
}

impl Task {
    fn new(name: String, kind: Kind, state: TaskState) -> Self {
        Task {
            name,
            kind,
            state,
            work_done: 0.0,
            alive: true,
            burns: VecDeque::new(),
            burn_end: SimTime::MAX,
        }
    }
}

/// The longest window any load-average query may use.
const MAX_HISTORY: SimDur = SimDur::from_secs(15 * 60);

/// Smallest step the run-queue history's buffer grows or shrinks by, in
/// entries.
const HISTORY_STEP: usize = 256;

/// Fluid fair-share scheduler for one host.
#[derive(Debug)]
pub struct CpuSched {
    n_cpus: u32,
    /// Peak floating-point throughput of one CPU, flops/sec. The paper's
    /// linpack baseline is 17.4 Mflops on a Pentium Pro 200.
    flops_per_sec: f64,
    tasks: Vec<Task>,
    last_advance: SimTime,
    /// Transitions of run-queue length: (time, new length). Pruned to
    /// `MAX_HISTORY`.
    rq_history: VecDeque<(SimTime, u32)>,
    runnable: u32,
    /// Lifetime busy cpu-seconds (all CPUs), for utilization accounting.
    busy_cpu_seconds: f64,
    /// The earliest `burn_end` of any task (`SimTime::MAX`: no burn in
    /// service) — what every entry point compares `now` with.
    next_burn_end: SimTime,
}

impl CpuSched {
    /// A scheduler with `n_cpus` processors of the given peak flops.
    pub fn new(n_cpus: u32, flops_per_sec: f64) -> Self {
        assert!(n_cpus > 0, "need at least one CPU");
        assert!(flops_per_sec > 0.0, "flops must be positive");
        let mut rq_history = VecDeque::new();
        rq_history.push_back((SimTime::ZERO, 0));
        CpuSched {
            n_cpus,
            flops_per_sec,
            tasks: Vec::new(),
            last_advance: SimTime::ZERO,
            rq_history,
            runnable: 0,
            busy_cpu_seconds: 0.0,
            next_burn_end: SimTime::MAX,
        }
    }

    /// Number of processors.
    pub fn n_cpus(&self) -> u32 {
        self.n_cpus
    }

    /// Peak flops of one processor.
    pub fn flops_per_sec(&self) -> f64 {
        self.flops_per_sec
    }

    /// Spawn an always-runnable compute task (e.g. one linpack thread).
    pub fn spawn_compute(&mut self, now: SimTime, name: impl Into<String>) -> TaskId {
        self.advance(now);
        let task = Task::new(name.into(), Kind::Compute, TaskState::Runnable);
        self.tasks.push(task);
        self.runnable += 1;
        self.record_runnable(now);
        TaskId(self.tasks.len() - 1)
    }

    /// Spawn a service task, initially sleeping.
    pub fn spawn_service(&mut self, now: SimTime, name: impl Into<String>) -> TaskId {
        self.advance(now);
        let task = Task::new(name.into(), Kind::Service, TaskState::Sleeping);
        self.tasks.push(task);
        TaskId(self.tasks.len() - 1)
    }

    /// Kill a task (removes it from the run queue; its counters freeze,
    /// its burns are dropped).
    pub fn kill(&mut self, now: SimTime, id: TaskId) {
        self.advance(now);
        let t = &mut self.tasks[id.0];
        if !t.alive {
            return;
        }
        let was_runnable = t.state == TaskState::Runnable;
        t.alive = false;
        t.state = TaskState::Sleeping;
        t.burns.clear();
        t.burn_end = SimTime::MAX;
        self.next_burn_end = self.earliest_burn_end();
        if was_runnable {
            self.runnable -= 1;
            self.record_runnable(now);
        }
    }

    /// Change a task's state; updates the run-queue history.
    pub fn set_state(&mut self, now: SimTime, id: TaskId, state: TaskState) {
        self.advance(now);
        self.transition(now, id, state);
    }

    /// `set_state` on a scheduler already integrated up to `now`.
    fn transition(&mut self, now: SimTime, id: TaskId, state: TaskState) {
        let t = &mut self.tasks[id.0];
        assert!(t.alive, "set_state on dead task {}", t.name);
        if t.state == state {
            return;
        }
        t.state = state;
        match state {
            TaskState::Runnable => self.runnable += 1,
            TaskState::Sleeping => self.runnable -= 1,
        }
        self.record_runnable(now);
        self.prune_history(now);
    }

    /// Log the run-queue length that takes effect at `now`. The log stays
    /// ordered by time — `loadavg` binary-searches it.
    fn record_runnable(&mut self, now: SimTime) {
        debug_assert!(
            self.rq_history.back().is_none_or(|&(t, _)| t <= now),
            "run-queue history must move forward in time"
        );
        // Grow by an eighth, not by doubling: a host whose entry count
        // hovers at a power of two would otherwise hold 1x or 2x of it
        // depending on one busy second.
        if self.rq_history.len() == self.rq_history.capacity() {
            let step = (self.rq_history.capacity() / 8).max(HISTORY_STEP);
            self.rq_history.reserve_exact(step);
        }
        self.rq_history.push_back((now, self.runnable));
    }

    fn prune_history(&mut self, now: SimTime) {
        let cutoff = now - MAX_HISTORY;
        // Keep at least one entry at/before the cutoff so windowed averages
        // know the level at the window start.
        while self.rq_history.len() >= 2 && self.rq_history[1].0 <= cutoff {
            self.rq_history.pop_front();
        }
        // Give the memory back once a burst has left the window, so the
        // buffer follows the window's entries and not the busiest window
        // ever (after a shrink or a growth step it is 9/8 of them: neither
        // undoes the other).
        let len = self.rq_history.len();
        if len <= self.rq_history.capacity() / 4 * 3 && len >= HISTORY_STEP {
            self.rq_history.shrink_to(len + (len / 8).max(HISTORY_STEP));
        }
    }

    /// Per-runnable-task CPU share in `[0, 1]` (fraction of one processor).
    pub fn share(&self) -> f64 {
        if self.runnable == 0 {
            return 1.0;
        }
        (self.n_cpus as f64 / self.runnable as f64).min(1.0)
    }

    /// Bring the scheduler to `now`: complete the burns that ended before
    /// it, then accrue work to the runnable tasks up to it.
    pub fn advance(&mut self, now: SimTime) {
        self.settle_before(now);
        self.integrate(now);
    }

    /// Accrue work to runnable tasks since the last integration.
    fn integrate(&mut self, now: SimTime) {
        let dt = now.since(self.last_advance).as_secs_f64();
        if dt <= 0.0 {
            self.last_advance = self.last_advance.max(now);
            return;
        }
        let share = self.share();
        let mut busy = 0.0;
        for t in &mut self.tasks {
            if t.alive && t.state == TaskState::Runnable {
                let cpu_sec = share * dt;
                busy += cpu_sec;
                match t.kind {
                    Kind::Compute => t.work_done += cpu_sec * self.flops_per_sec,
                    Kind::Service => t.work_done += cpu_sec,
                }
            }
        }
        self.busy_cpu_seconds += busy;
        self.last_advance = now;
    }

    /// Charge `cost` of CPU time to service task `id`. An idle task wakes
    /// at `now` and burns it at the share in force once it is runnable; a
    /// task already burning queues it behind what it has. A zero cost is
    /// no charge at all.
    pub fn charge(&mut self, now: SimTime, id: TaskId, cost: SimDur) {
        if cost.is_zero() {
            return;
        }
        self.settle_before(now);
        let t = &mut self.tasks[id.0];
        debug_assert!(
            t.alive && t.kind == Kind::Service,
            "burns are for live service tasks"
        );
        if t.burn_end != SimTime::MAX {
            t.burns.push_back(cost);
            return;
        }
        self.integrate(now);
        self.transition(now, id, TaskState::Runnable);
        self.start_burn(now, id, cost);
    }

    /// Drop the burns `id` has queued behind the one in service, which
    /// runs on. The scheduler must be settled to the time of the call
    /// ([`CpuSched::settle_before`]), or burns that should have started
    /// by then are dropped with the rest.
    pub fn drop_queued(&mut self, id: TaskId) {
        self.tasks[id.0].burns.clear();
    }

    /// When the burn `id` has in service ends; `None` while it has none.
    pub fn burn_end(&self, id: TaskId) -> Option<SimTime> {
        let end = self.tasks[id.0].burn_end;
        (end != SimTime::MAX).then_some(end)
    }

    /// Complete the burns that end strictly before `now` (the tie rule of
    /// the module doc). No work is accrued past the last completion.
    #[inline]
    pub fn settle_before(&mut self, now: SimTime) {
        while self.next_burn_end < now {
            self.complete_next_burn();
        }
    }

    /// Complete the burns that end at or before `t`: for whoever stops
    /// the clock at `t` and lets others look.
    #[inline]
    pub fn settle_through(&mut self, t: SimTime) {
        while self.next_burn_end <= t {
            self.complete_next_burn();
        }
    }

    /// Task `id`, runnable since `now` or before, starts burning `cost`.
    fn start_burn(&mut self, now: SimTime, id: TaskId, cost: SimDur) {
        let end = now + SimDur::from_secs_f64(cost.as_secs_f64() / self.share());
        self.tasks[id.0].burn_end = end;
        self.next_burn_end = self.next_burn_end.min(end);
    }

    /// The earliest burn in service ends: at that instant its task starts
    /// on its next charge, or goes back to sleep when it has none.
    fn complete_next_burn(&mut self) {
        let at = self.next_burn_end;
        let i = self.tasks.iter().position(|t| t.burn_end == at);
        let id = TaskId(i.expect("a burn in service ends at next_burn_end"));
        self.integrate(at);
        self.tasks[id.0].burn_end = SimTime::MAX;
        self.next_burn_end = self.earliest_burn_end();
        match self.tasks[id.0].burns.pop_front() {
            Some(cost) => self.start_burn(at, id, cost),
            None => self.transition(at, id, TaskState::Sleeping),
        }
    }

    fn earliest_burn_end(&self) -> SimTime {
        let ends = self.tasks.iter().map(|t| t.burn_end);
        ends.min().unwrap_or(SimTime::MAX)
    }

    /// Current run-queue length.
    pub fn runnable(&self) -> u32 {
        self.runnable
    }

    /// Number of live tasks.
    pub fn live_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| t.alive).count()
    }

    /// Accumulated work of a task: flops for compute tasks, cpu-seconds for
    /// service tasks.
    pub fn work_done(&self, now_unused: SimTime, id: TaskId) -> f64 {
        let _ = now_unused;
        self.tasks[id.0].work_done
    }

    /// Accumulated work *including* the currently elapsing interval.
    pub fn work_done_at(&mut self, now: SimTime, id: TaskId) -> f64 {
        self.advance(now);
        self.tasks[id.0].work_done
    }

    /// Task display name.
    pub fn task_name(&self, id: TaskId) -> &str {
        &self.tasks[id.0].name
    }

    /// Average run-queue length over the window `[now - period, now]` —
    /// dproc CPU_MON's headline metric.
    ///
    /// The history is ordered by time (callers only move the clock
    /// forward) and holds up to [`MAX_HISTORY`] of transitions, most of
    /// them older than the window: the level at the window start is found
    /// by binary search and the integration walks only the window.
    pub fn loadavg(&self, now: SimTime, period: SimDur) -> f64 {
        assert!(!period.is_zero(), "zero loadavg window");
        let start = now - period;
        let first = self.rq_history.partition_point(|&(t, _)| t <= start);
        // The level at the window start: the last transition at or before
        // it, or the oldest known level when the window predates them all.
        let mut level = self
            .rq_history
            .get(first.saturating_sub(1))
            .map_or(0, |&(_, l)| l);
        let mut weighted = 0.0;
        let mut cursor = start;
        for &(t, l) in self.rq_history.range(first..) {
            let seg_end = t.min(now);
            if seg_end > cursor {
                weighted += level as f64 * seg_end.since(cursor).as_secs_f64();
                cursor = seg_end;
            }
            level = l;
            if t >= now {
                break;
            }
        }
        if now > cursor {
            weighted += level as f64 * now.since(cursor).as_secs_f64();
        }
        weighted / period.as_secs_f64()
    }

    /// The front-to-back walk `loadavg` replaced, kept as the reference
    /// the binary-search version must agree with bit for bit.
    #[cfg(test)]
    fn loadavg_linear(&self, now: SimTime, period: SimDur) -> f64 {
        let start = now - period;
        let mut level = self.rq_history.front().map_or(0, |&(_, l)| l);
        let mut weighted = 0.0;
        let mut cursor = start;
        for &(t, l) in &self.rq_history {
            if t <= start {
                level = l;
                continue;
            }
            let seg_end = t.min(now);
            if seg_end > cursor {
                weighted += level as f64 * seg_end.since(cursor).as_secs_f64();
                cursor = seg_end;
            }
            level = l;
            if t >= now {
                break;
            }
        }
        if now > cursor {
            weighted += level as f64 * now.since(cursor).as_secs_f64();
        }
        weighted / period.as_secs_f64()
    }

    /// Lifetime busy CPU-seconds across all processors (feeds the battery
    /// model's activity billing).
    pub fn busy_cpu_seconds(&self) -> f64 {
        self.busy_cpu_seconds
    }

    /// Fraction of total CPU capacity used since time zero.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.as_secs_f64() * self.n_cpus as f64;
        if elapsed <= 0.0 {
            0.0
        } else {
            (self.busy_cpu_seconds / elapsed).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> CpuSched {
        CpuSched::new(1, 17.4e6)
    }

    #[test]
    fn single_compute_task_gets_full_cpu() {
        let mut s = sched();
        let t = s.spawn_compute(SimTime::ZERO, "linpack");
        s.advance(SimTime::from_secs(10));
        let flops = s.work_done(SimTime::from_secs(10), t);
        assert!((flops - 174e6).abs() < 1.0, "flops {flops}");
    }

    #[test]
    fn two_tasks_split_one_cpu() {
        let mut s = sched();
        let a = s.spawn_compute(SimTime::ZERO, "a");
        let b = s.spawn_compute(SimTime::ZERO, "b");
        assert!((s.share() - 0.5).abs() < 1e-12);
        s.advance(SimTime::from_secs(10));
        assert!((s.work_done(SimTime::ZERO, a) - 87e6).abs() < 1.0);
        assert!((s.work_done(SimTime::ZERO, b) - 87e6).abs() < 1.0);
    }

    #[test]
    fn multi_cpu_no_contention_below_capacity() {
        let mut s = CpuSched::new(4, 1e6);
        for i in 0..4 {
            s.spawn_compute(SimTime::ZERO, format!("t{i}"));
        }
        assert_eq!(s.share(), 1.0);
        // Fifth task forces sharing: 4 cpus / 5 tasks.
        s.spawn_compute(SimTime::ZERO, "t5");
        assert!((s.share() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn service_task_sleeps_by_default() {
        let mut s = sched();
        let svc = s.spawn_service(SimTime::ZERO, "dmon");
        s.advance(SimTime::from_secs(5));
        assert_eq!(s.work_done(SimTime::ZERO, svc), 0.0);
        assert_eq!(s.runnable(), 0);
    }

    #[test]
    fn burn_time_scales_with_load() {
        /// When 10 ms of CPU charged at time zero are burnt.
        fn ten_ms_done(s: &mut CpuSched) -> Option<SimTime> {
            let svc = s.spawn_service(SimTime::ZERO, "dmon");
            s.charge(SimTime::ZERO, svc, SimDur::from_millis(10));
            s.burn_end(svc)
        }
        // Idle machine: 10ms of CPU takes 10ms.
        assert_eq!(ten_ms_done(&mut sched()), Some(SimTime::from_millis(10)));
        // One linpack thread: the service task will share 50/50.
        let mut s = sched();
        s.spawn_compute(SimTime::ZERO, "linpack");
        assert_eq!(ten_ms_done(&mut s), Some(SimTime::from_millis(20)));
        // Three more: share is 1/5.
        let mut s = sched();
        for i in 0..4 {
            s.spawn_compute(SimTime::ZERO, format!("l{i}"));
        }
        assert_eq!(ten_ms_done(&mut s), Some(SimTime::from_millis(50)));
    }

    #[test]
    fn charges_burn_one_after_the_other() {
        let ms = SimTime::from_millis;
        let mut s = sched();
        let c = s.spawn_compute(SimTime::ZERO, "linpack");
        let svc = s.spawn_service(SimTime::ZERO, "dmon");
        s.charge(ms(100), svc, SimDur::from_millis(10));
        s.charge(ms(105), svc, SimDur::from_millis(5));
        s.charge(ms(106), svc, SimDur::ZERO);
        assert_eq!(s.burn_end(svc), Some(ms(120)), "the second waits");
        // The linpack thread leaves mid-burn: the burn in service keeps
        // the end it was given, the next one starts at the new share.
        s.set_state(ms(110), c, TaskState::Sleeping);
        s.advance(ms(121));
        assert_eq!(s.burn_end(svc), Some(ms(125)));
        s.advance(ms(200));
        assert_eq!((s.burn_end(svc), s.runnable()), (None, 0));
        let history: Vec<_> = s.rq_history.iter().copied().collect();
        let want = [(0, 1), (100, 2), (110, 1), (125, 0)];
        assert_eq!(history, want.map(|(t, l)| (ms(t), l)));
        // 10 ms at half a CPU, 10 ms at a whole one, 5 ms at a whole one.
        assert!((s.work_done(ms(200), svc) - 0.020).abs() < 1e-12);
    }

    /// The tie rule, poll case: an entry point at the instant a burn ends
    /// still sees it running; stopping the clock there ends it.
    #[test]
    fn a_burn_ending_now_is_still_running_for_a_reader_at_now() {
        let t = SimTime::from_millis(10);
        let mut s = sched();
        let svc = s.spawn_service(SimTime::ZERO, "dmon");
        s.charge(SimTime::ZERO, svc, SimDur::from_millis(10));
        s.advance(t);
        assert_eq!((s.runnable(), s.burn_end(svc)), (1, Some(t)));
        s.settle_through(t);
        assert_eq!((s.runnable(), s.burn_end(svc)), (0, None));
        assert_eq!(s.rq_history.back(), Some(&(t, 0)));
    }

    /// The tie rule, delivery case: a charge at the instant a burn ends
    /// queues behind it, so the task never leaves the run queue — no pair
    /// of zero-length history entries at the seam.
    #[test]
    fn a_charge_at_the_end_of_a_burn_queues_behind_it() {
        let ms = SimTime::from_millis;
        let mut s = sched();
        let svc = s.spawn_service(SimTime::ZERO, "dmon");
        s.charge(ms(1), svc, SimDur::from_millis(10));
        s.charge(ms(11), svc, SimDur::from_millis(5));
        assert_eq!(s.burn_end(svc), Some(ms(11)), "not yet started");
        s.settle_through(ms(11));
        assert_eq!(s.burn_end(svc), Some(ms(16)));
        s.settle_through(ms(16));
        let history: Vec<_> = s.rq_history.iter().copied().collect();
        assert_eq!(history, [(ms(0), 0), (ms(1), 1), (ms(16), 0)]);
    }

    /// The tie rule, crash case: a queue drop at the instant a burn ends
    /// takes the charge behind it; a nanosecond later that charge has
    /// started and runs out.
    #[test]
    fn a_queue_drop_at_the_end_of_a_burn_drops_what_is_behind_it() {
        let t = SimTime::from_millis(10);
        let run = |crash_at: SimTime| {
            let mut s = sched();
            let svc = s.spawn_service(SimTime::ZERO, "dmon");
            s.charge(SimTime::ZERO, svc, SimDur::from_millis(10));
            s.charge(SimTime::from_millis(5), svc, SimDur::from_millis(5));
            s.settle_before(crash_at);
            s.drop_queued(svc);
            s.advance(SimTime::from_secs(1));
            assert_eq!(s.runnable(), 0);
            s.rq_history.back().map(|&(t, _)| t)
        };
        assert_eq!(run(t), Some(t));
        assert_eq!(
            run(t + SimDur::from_nanos(1)),
            Some(SimTime::from_millis(15))
        );
    }

    /// The drive `charge` replaced, kept as the reference the burn queue
    /// must agree with: the caller queues the charges itself, wakes the
    /// task, computes `cost / share` and arranges to be called back then.
    struct CallerDriven {
        cpu: CpuSched,
        svc: TaskId,
        pending: VecDeque<SimDur>,
        busy: bool,
        /// The callback it has scheduled (`SimTime::MAX`: none).
        done_at: SimTime,
    }

    impl CallerDriven {
        fn charge(&mut self, now: SimTime, cost: SimDur) {
            if cost.is_zero() {
                return;
            }
            self.pending.push_back(cost);
            if !self.busy {
                self.drain(now);
            }
        }

        fn drain(&mut self, now: SimTime) {
            let Some(cost) = self.pending.pop_front() else {
                if self.busy {
                    self.busy = false;
                    self.cpu.set_state(now, self.svc, TaskState::Sleeping);
                }
                return;
            };
            self.cpu.advance(now);
            if !self.busy {
                self.busy = true;
                self.cpu.set_state(now, self.svc, TaskState::Runnable);
            }
            let wall = SimDur::from_secs_f64(cost.as_secs_f64() / self.cpu.share());
            self.done_at = now + wall;
        }

        /// Run the callbacks due before `now` — or, `through`, at it.
        fn run_callbacks(&mut self, now: SimTime, through: bool) {
            while self.done_at < now || (through && self.done_at == now) {
                let at = std::mem::replace(&mut self.done_at, SimTime::MAX);
                self.drain(at);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        /// Run-queue history, work counters, load averages and completion
        /// times come out bit for bit as under the caller-driven reference,
        /// on any interleaving of charges (zero ones, ones landing mid-burn
        /// or on the very end of one), compute tasks coming, going and
        /// flipping state, reads and a queue drop. Times are whole
        /// milliseconds so that ties do happen.
        #[test]
        fn burn_queue_matches_the_caller_driven_reference(
            n_cpus in 1u32..3,
            steps in proptest::collection::vec((0u64..4, 0u8..9, 0u64..7), 0..60),
        ) {
            let mut new = CpuSched::new(n_cpus, 1e6);
            let svc = new.spawn_service(SimTime::ZERO, "dmon");
            let mut old = CallerDriven {
                cpu: CpuSched::new(n_cpus, 1e6),
                svc,
                pending: VecDeque::new(),
                busy: false,
                done_at: SimTime::MAX,
            };
            old.cpu.spawn_service(SimTime::ZERO, "dmon");
            let mut computes: Vec<(TaskId, TaskState)> = Vec::new();
            let mut t = 0;
            for (dt, op, arg) in steps {
                t += dt;
                let now = SimTime::from_millis(t);
                old.run_callbacks(now, false);
                match op {
                    0..=2 => {
                        new.charge(now, svc, SimDur::from_millis(arg));
                        old.charge(now, SimDur::from_millis(arg));
                    }
                    3 if !computes.is_empty() => {
                        let k = arg as usize % computes.len();
                        let (id, state) = &mut computes[k];
                        *state = match *state {
                            TaskState::Runnable => TaskState::Sleeping,
                            TaskState::Sleeping => TaskState::Runnable,
                        };
                        new.set_state(now, *id, *state);
                        old.cpu.set_state(now, *id, *state);
                    }
                    4 => {
                        let id = new.spawn_compute(now, "hog");
                        proptest::prop_assert_eq!(id, old.cpu.spawn_compute(now, "hog"));
                        computes.push((id, TaskState::Runnable));
                    }
                    5 if !computes.is_empty() => {
                        let (id, _) = computes.swap_remove(arg as usize % computes.len());
                        new.kill(now, id);
                        old.cpu.kill(now, id);
                    }
                    6 => {
                        new.advance(now);
                        old.cpu.advance(now);
                        let window = SimDur::from_millis(arg + 1);
                        proptest::prop_assert_eq!(
                            new.loadavg(now, window).to_bits(),
                            old.cpu.loadavg(now, window).to_bits()
                        );
                    }
                    7 => {
                        new.settle_before(now);
                        new.drop_queued(svc);
                        old.pending.clear();
                    }
                    _ => {
                        new.advance(now);
                        old.cpu.advance(now);
                    }
                }
                new.settle_before(now);
                let done_at = (old.done_at != SimTime::MAX).then_some(old.done_at);
                proptest::prop_assert_eq!(new.burn_end(svc), done_at);
                proptest::prop_assert_eq!(&new.rq_history, &old.cpu.rq_history);
            }
            let end = SimTime::from_millis(t + 100_000);
            new.settle_through(end);
            old.run_callbacks(end, true);
            proptest::prop_assert_eq!(new.burn_end(svc), None);
            proptest::prop_assert_eq!(&new.rq_history, &old.cpu.rq_history);
            proptest::prop_assert_eq!(
                new.busy_cpu_seconds.to_bits(),
                old.cpu.busy_cpu_seconds.to_bits()
            );
            for (a, b) in new.tasks.iter().zip(&old.cpu.tasks) {
                proptest::prop_assert_eq!(a.work_done.to_bits(), b.work_done.to_bits());
            }
        }
    }

    #[test]
    fn waking_service_task_slows_compute() {
        let mut s = sched();
        let c = s.spawn_compute(SimTime::ZERO, "linpack");
        let svc = s.spawn_service(SimTime::ZERO, "dmon");
        s.set_state(SimTime::from_secs(10), svc, TaskState::Runnable);
        s.set_state(SimTime::from_secs(20), svc, TaskState::Sleeping);
        s.advance(SimTime::from_secs(30));
        // linpack: 10s full + 10s half + 10s full = 25 cpu-seconds.
        let flops = s.work_done(SimTime::ZERO, c);
        assert!((flops - 25.0 * 17.4e6).abs() < 1.0, "flops {flops}");
        // the service task burned 5 cpu-seconds
        assert!((s.work_done(SimTime::ZERO, svc) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn loadavg_windows() {
        let mut s = sched();
        // 0 runnable until t=10, then 2 runnable until t=20, then 1.
        let a = s.spawn_compute(SimTime::from_secs(10), "a");
        let _b = s.spawn_compute(SimTime::from_secs(10), "b");
        s.kill(SimTime::from_secs(20), a);
        // window [10,30]: 2 for 10s, 1 for 10s => 1.5
        let la = s.loadavg(SimTime::from_secs(30), SimDur::from_secs(20));
        assert!((la - 1.5).abs() < 1e-9, "loadavg {la}");
        // window [25,30]: 1
        let la = s.loadavg(SimTime::from_secs(30), SimDur::from_secs(5));
        assert!((la - 1.0).abs() < 1e-9, "loadavg {la}");
        // window [0,30]: (0*10 + 2*10 + 1*10)/30 = 1
        let la = s.loadavg(SimTime::from_secs(30), SimDur::from_secs(30));
        assert!((la - 1.0).abs() < 1e-9, "loadavg {la}");
    }

    proptest::proptest! {
        /// The binary-search window start agrees bit for bit with the
        /// front-to-back walk on any time-ordered history — including
        /// windows that start before the oldest entry, transitions tied
        /// with the window start or with each other, and an empty log.
        #[test]
        fn loadavg_matches_the_linear_reference(
            t0 in 0u64..20,
            steps in proptest::collection::vec((0u64..4, 0u32..6), 0..40),
            now in 0u64..120,
            period in 1u64..120,
        ) {
            let mut s = sched();
            s.rq_history.clear();
            let mut t = t0;
            for (dt, level) in steps {
                t += dt;
                s.rq_history.push_back((SimTime::from_secs(t), level));
            }
            let (now, period) = (SimTime::from_secs(now), SimDur::from_secs(period));
            proptest::prop_assert_eq!(
                s.loadavg(now, period).to_bits(),
                s.loadavg_linear(now, period).to_bits()
            );
        }
    }

    /// The history's buffer follows the entries the window holds now, not
    /// the busiest window ever: a host that toggles at 5 Hz, bursts to
    /// 100 Hz for a minute and goes back holds, once the burst has left the
    /// window, at most a third more than its entries — like a host that
    /// never burst — and reads the same load average.
    #[test]
    fn history_buffer_follows_the_window_not_the_busiest_one() {
        fn toggle(s: &mut CpuSched, svc: TaskId, from_ms: u64, to_ms: u64, every_ms: u64) {
            let states = [TaskState::Runnable, TaskState::Sleeping];
            for (k, ms) in (from_ms..to_ms).step_by(every_ms as usize).enumerate() {
                s.set_state(SimTime::from_millis(ms), svc, states[k % 2]);
            }
        }
        let minute = 60_000;
        let (mut calm, mut burst) = (sched(), sched());
        let a = calm.spawn_service(SimTime::ZERO, "dmon");
        let b = burst.spawn_service(SimTime::ZERO, "dmon");
        toggle(&mut calm, a, 0, 40 * minute, 200);
        toggle(&mut burst, b, 0, 20 * minute, 200);
        toggle(&mut burst, b, 20 * minute, 21 * minute, 10);
        let peak = burst.rq_history.capacity();
        toggle(&mut burst, b, 21 * minute, 40 * minute, 200);

        let len = calm.rq_history.len();
        assert_eq!(burst.rq_history.len(), len);
        assert!(peak > len + len / 2, "the burst grew the buffer: {peak}");
        let cap = burst.rq_history.capacity();
        assert!(cap <= len + len / 3, "capacity {cap} for {len} entries");
        assert!(calm.rq_history.capacity() <= len + len / 3);
        let (now, one) = (SimTime::from_millis(40 * minute), SimDur::from_secs(60));
        assert_eq!(
            burst.loadavg(now, one).to_bits(),
            calm.loadavg(now, one).to_bits()
        );
    }

    #[test]
    fn kill_removes_from_runqueue() {
        let mut s = sched();
        let a = s.spawn_compute(SimTime::ZERO, "a");
        assert_eq!(s.runnable(), 1);
        assert_eq!(s.live_tasks(), 1);
        s.kill(SimTime::from_secs(1), a);
        assert_eq!(s.runnable(), 0);
        assert_eq!(s.live_tasks(), 0);
        s.kill(SimTime::from_secs(2), a); // idempotent
        let flops = s.work_done(SimTime::ZERO, a);
        assert!((flops - 17.4e6).abs() < 1.0, "counters freeze at kill");
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut s = CpuSched::new(2, 1e6);
        s.spawn_compute(SimTime::ZERO, "a");
        s.advance(SimTime::from_secs(10));
        // 1 task on 2 cpus: 50% utilization.
        assert!((s.utilization(SimTime::from_secs(10)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn advance_is_idempotent_at_same_time() {
        let mut s = sched();
        let t = s.spawn_compute(SimTime::ZERO, "a");
        s.advance(SimTime::from_secs(1));
        s.advance(SimTime::from_secs(1));
        let flops = s.work_done_at(SimTime::from_secs(1), t);
        assert!((flops - 17.4e6).abs() < 1.0);
        assert_eq!(s.task_name(t), "a");
    }

    #[test]
    #[should_panic(expected = "set_state on dead task")]
    fn set_state_on_dead_task_panics() {
        let mut s = sched();
        let a = s.spawn_compute(SimTime::ZERO, "a");
        s.kill(SimTime::ZERO, a);
        s.set_state(SimTime::ZERO, a, TaskState::Runnable);
    }
}
