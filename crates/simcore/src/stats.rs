//! Online statistics used throughout the simulator and the benchmark
//! harness: Welford accumulators, time-weighted averages, EWMAs, sample
//! reservoirs with percentiles, and histograms.

use crate::time::{SimDur, SimTime};

/// Numerically stable online mean/variance (Welford), plus min/max.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel-safe combine).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }
    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }
    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
    /// Minimum observation (`NaN` if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }
    /// Maximum observation (`NaN` if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// Time-weighted average of a piecewise-constant signal (e.g. queue length,
/// CPU utilization): each reported value holds until the next report.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_t: SimTime,
    last_v: f64,
    weighted_sum: f64,
    total: SimDur,
    started: bool,
}

impl TimeWeighted {
    /// Start tracking at `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        TimeWeighted {
            last_t: t0,
            last_v: v0,
            weighted_sum: 0.0,
            total: SimDur::ZERO,
            started: true,
        }
    }

    /// Record that the signal changed to `v` at time `t` (must be >= the
    /// previous report time).
    pub fn record(&mut self, t: SimTime, v: f64) {
        let dt = t.since(self.last_t);
        self.weighted_sum += self.last_v * dt.as_secs_f64();
        self.total += dt;
        self.last_t = t;
        self.last_v = v;
    }

    /// Time-weighted mean over `[t0, t]`, closing the current segment at `t`.
    pub fn mean_at(&self, t: SimTime) -> f64 {
        let dt = t.since(self.last_t);
        let sum = self.weighted_sum + self.last_v * dt.as_secs_f64();
        let total = (self.total + dt).as_secs_f64();
        if total == 0.0 {
            self.last_v
        } else {
            sum / total
        }
    }

    /// Most recent value.
    pub fn current(&self) -> f64 {
        self.last_v
    }

    /// Whether `new` has been called (always true; kept for API symmetry).
    pub fn started(&self) -> bool {
        self.started
    }
}

/// Exponentially weighted moving average.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// `alpha` in `(0, 1]`: weight of the newest observation.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range: {alpha}");
        Ewma { alpha, value: None }
    }

    /// Add an observation and return the updated average.
    pub fn add(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current average (`None` before the first observation).
    pub fn get(&self) -> Option<f64> {
        self.value
    }
}

/// Stores all samples; offers exact percentiles. Fine at simulation scale.
#[derive(Debug, Clone, Default)]
pub struct Sampler {
    values: Vec<f64>,
}

impl Sampler {
    /// Empty sampler.
    pub fn new() -> Self {
        Sampler { values: Vec::new() }
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        self.values.push(x);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no samples recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Exact percentile by nearest-rank on a sorted copy; `p` in `[0,100]`.
    /// `NaN` if empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Convenience: median.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Maximum (`NaN` if empty).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::max)
    }

    /// Minimum (`NaN` if empty).
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::min)
    }

    /// Borrow the raw samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Fixed-width linear histogram with overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    width: f64,
    buckets: Vec<u64>,
    overflow: u64,
    underflow: u64,
    count: u64,
}

impl Histogram {
    /// Histogram over `[lo, hi)` with `n` equal-width buckets.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(hi > lo && n > 0, "bad histogram bounds");
        Histogram {
            lo,
            width: (hi - lo) / n as f64,
            buckets: vec![0; n],
            overflow: 0,
            underflow: 0,
            count: 0,
        }
    }

    /// Record a value.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.buckets.len() {
            self.overflow += 1;
        } else {
            self.buckets[idx] += 1;
        }
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }
    /// Total observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }
    /// Observations above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
    /// Observations below the lower bound.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }
}

/// A windowed rate meter: counts events and reports events/sec over the
/// elapsed window, resetting on demand. Used for client event-rate plots.
#[derive(Debug, Clone)]
pub struct RateMeter {
    window_start: SimTime,
    count: u64,
}

impl RateMeter {
    /// Begin measuring at `t0`.
    pub fn new(t0: SimTime) -> Self {
        RateMeter {
            window_start: t0,
            count: 0,
        }
    }

    /// Record one event.
    pub fn tick(&mut self) {
        self.count += 1;
    }

    /// Events per second since the window started (0 if no time elapsed).
    pub fn rate(&self, now: SimTime) -> f64 {
        let dt = now.since(self.window_start).as_secs_f64();
        if dt <= 0.0 {
            0.0
        } else {
            self.count as f64 / dt
        }
    }

    /// Events counted in the current window.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Reset the window to start at `now`.
    pub fn reset(&mut self, now: SimTime) {
        self.window_start = now;
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.add(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.add(x);
        }
        for &x in &data[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.add(1.0);
        a.add(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.record(SimTime::from_secs(10), 100.0); // 0 for 10s
        tw.record(SimTime::from_secs(20), 0.0); // 100 for 10s
        let mean = tw.mean_at(SimTime::from_secs(20));
        assert!((mean - 50.0).abs() < 1e-9, "mean {mean}");
        // extend with 0 for 20 more seconds: (0*10 + 100*10 + 0*20)/40 = 25
        let mean = tw.mean_at(SimTime::from_secs(40));
        assert!((mean - 25.0).abs() < 1e-9, "mean {mean}");
        assert!(tw.started());
    }

    #[test]
    fn time_weighted_zero_span_returns_current() {
        let tw = TimeWeighted::new(SimTime::from_secs(5), 42.0);
        assert_eq!(tw.mean_at(SimTime::from_secs(5)), 42.0);
        assert_eq!(tw.current(), 42.0);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.get(), None);
        e.add(0.0);
        for _ in 0..64 {
            e.add(10.0);
        }
        assert!((e.get().unwrap() - 10.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "alpha out of range")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn sampler_percentiles() {
        let mut s = Sampler::new();
        for i in 1..=100 {
            s.add(i as f64);
        }
        assert_eq!(s.len(), 100);
        assert!((s.median() - 50.0).abs() <= 1.0);
        assert!((s.percentile(0.0) - 1.0).abs() < 1e-12);
        assert!((s.percentile(100.0) - 100.0).abs() < 1e-12);
        assert!((s.mean() - 50.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
    }

    #[test]
    fn sampler_empty_is_nan_or_zero() {
        let s = Sampler::new();
        assert!(s.is_empty());
        assert!(s.percentile(50.0).is_nan());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.7, 9.9, -1.0, 10.0, 25.0] {
            h.add(x);
        }
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(9), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn rate_meter() {
        let mut m = RateMeter::new(SimTime::ZERO);
        for _ in 0..50 {
            m.tick();
        }
        assert!((m.rate(SimTime::from_secs(10)) - 5.0).abs() < 1e-12);
        assert_eq!(m.count(), 50);
        m.reset(SimTime::from_secs(10));
        assert_eq!(m.count(), 0);
        assert_eq!(m.rate(SimTime::from_secs(10)), 0.0);
    }
}
