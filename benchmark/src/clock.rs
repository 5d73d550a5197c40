//! Host time, normalised by a reference loop.
//!
//! On the reference box the vCPUs' effective speed wanders by ±15 % for
//! seconds at a time (fixed-work loops show the same swings as the program;
//! steal time is zero), so a raw wall-clock timing says more about the
//! moment than about the code. Every host timing is therefore bracketed by
//! two short fixed-work loops of the benchmark's own and reported in
//! *reference* time: what it would have taken had those loops run at their
//! nominal speed. The loops never touch the program under test, so a change
//! to the program cannot move them.
//!
//! Two loops, because the box slows down in two ways: the core itself
//! (seen by an arithmetic loop over a cache-resident table) and the shared
//! last-level cache and memory (seen only by a loop that streams through
//! several megabytes). Cache-friendly workloads follow the first, the
//! allocation- and history-heavy ones (`star16-churn`) the second; the
//! geometric mean of the two tracked every workload best when they were
//! compared on recorded runs (slice-time variation 6.5 % → 3.2 % on
//! `star16-churn`, unchanged at ≈ 5 % on `star16-period`).

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What the two loops take on the reference box in its usual state.
/// Committed constants: they only fix the unit, any value cancels when two
/// commits are compared.
const CORE_NOMINAL_NS: f64 = 6.6e6;
const MEMORY_NOMINAL_NS: f64 = 4.0e6;

const TABLE_WORDS: usize = 1 << 13;
const CORE_ROUNDS: u32 = 1_500_000;
const STREAM_WORDS: usize = 768 * 1024;
const STREAM_PASSES: u32 = 8;

// Statics, not heap: the loops' working sets must not show up in the
// heap metrics the counting allocator reports.
static TABLE: Mutex<[u64; TABLE_WORDS]> = Mutex::new([0; TABLE_WORDS]);
static STREAM: Mutex<[u64; STREAM_WORDS]> = Mutex::new([0; STREAM_WORDS]);

/// Integer arithmetic, dependent loads and stores over a 64 KiB table, and
/// a data-dependent branch.
fn core_loop() -> Duration {
    let mut table = TABLE.lock().expect("reference loops never panic");
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..CORE_ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (TABLE_WORDS - 1);
        acc = acc.wrapping_add(table[slot] ^ x);
        if acc & 3 == 0 {
            table[(acc as usize >> 2) & (TABLE_WORDS - 1)] ^= x;
        }
    }
    black_box(acc);
    t0.elapsed()
}

/// Read-modify-write passes over 6 MiB: last-level cache and memory.
fn memory_loop() -> Duration {
    let mut stream = STREAM.lock().expect("reference loops never panic");
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..STREAM_PASSES {
        for v in stream.iter_mut() {
            acc = acc.wrapping_add(*v).wrapping_add(1);
            *v = v.wrapping_mul(3) ^ acc;
        }
    }
    black_box(acc);
    t0.elapsed()
}

/// Touch the loops' memory once, so the first bracketed timing does not pay
/// for faulting their pages in.
pub fn warm_up() {
    machine_speed();
}

/// Machine speed right now, 1.0 = nominal: the geometric mean of how fast
/// the two loops ran.
fn machine_speed() -> f64 {
    let core = CORE_NOMINAL_NS / core_loop().as_nanos() as f64;
    let memory = MEMORY_NOMINAL_NS / memory_loop().as_nanos() as f64;
    (core * memory).sqrt()
}

/// One bracketed timing.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock time as measured.
    pub raw: Duration,
    /// Nanoseconds in reference time.
    pub ns: f64,
    /// Machine speed during the measurement, 1.0 = nominal.
    pub speed: f64,
}

/// Time `f`, reading the machine's speed right before and right after.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let before = machine_speed();
    let t0 = Instant::now();
    let out = f();
    let raw = t0.elapsed();
    let speed = (before + machine_speed()) / 2.0;
    (
        out,
        Timed {
            raw,
            ns: raw.as_nanos() as f64 * speed,
            speed,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_time_scales_raw_time_by_machine_speed() {
        let ((), t) = timed(|| std::thread::sleep(Duration::from_millis(20)));
        assert!(t.raw >= Duration::from_millis(20));
        assert!(t.speed > 0.0);
        let expect = t.raw.as_nanos() as f64 * t.speed;
        assert!((t.ns - expect).abs() < 1.0);
    }
}
