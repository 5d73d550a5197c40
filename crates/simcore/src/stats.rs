//! Online statistics used by the simulator and the figure harness:
//! time-weighted averages and sample reservoirs with percentiles.

use crate::time::{SimDur, SimTime};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
