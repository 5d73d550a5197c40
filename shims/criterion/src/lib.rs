//! Vendored stand-in for the `criterion` crate.
//!
//! Benchmarks in this workspace use a small slice of the criterion API:
//! `criterion_group!`/`criterion_main!`, `Criterion::bench_function`,
//! benchmark groups with `sample_size`, `Bencher::iter`/`iter_batched`, and
//! `black_box`. This shim keeps those entry points source-compatible and
//! measures wall-clock time with `std::time::Instant`: it reports
//! median-of-samples ns/iter to stdout rather than criterion's full
//! statistical analysis, which is plenty for tracking relative regressions
//! offline.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How to size batches for [`Bencher::iter_batched`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 60 }
    }
}

impl Criterion {
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.to_string(), self.sample_size, f);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{}", self.name, id), self.sample_size, f);
        self
    }

    pub fn finish(self) {}
}

/// Timing context handed to each benchmark closure.
pub struct Bencher {
    /// Iterations the routine should run per sample (set by the calibrator).
    iters: u64,
    /// Measured time for the sample, excluding `iter_batched` setup.
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

fn run_benchmark<F>(id: &str, sample_size: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    // Calibrate the per-sample iteration count so each sample takes roughly
    // 2ms: long enough to dominate timer overhead, short enough that a
    // full suite stays fast.
    let mut iters: u64 = 1;
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed >= Duration::from_millis(2) || iters >= 1 << 20 {
            break;
        }
        iters = (iters * 4).max(iters + 1);
    }

    let mut per_iter: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        per_iter.push(b.elapsed.as_nanos() as f64 / iters as f64);
    }
    per_iter.sort_by(f64::total_cmp);
    let median = per_iter[per_iter.len() / 2];
    let min = per_iter[0];
    let max = per_iter[per_iter.len() - 1];
    println!("{id:<44} median {median:>12.1} ns/iter  (min {min:.1}, max {max:.1}, {iters} iters x {sample_size} samples)");
}

/// Declare a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Entry point running every declared group, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default();
        let mut count = 0u64;
        c.bench_function("shim/self_test", |b| b.iter(|| count += 1));
        assert!(count > 0);
    }

    #[test]
    fn iter_batched_runs_setup_per_iteration() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(2);
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput);
        });
        group.finish();
    }
}
