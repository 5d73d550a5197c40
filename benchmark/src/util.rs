//! Small self-contained helpers: the seeded generator every script is
//! drawn from, order statistics for host timings, and the FNV-1a hasher
//! behind `sim_digest`.
//!
//! The generator is the benchmark's own (not `simcore::SimRng`) so that a
//! change to the program under test can never change the inputs it is
//! measured on.

/// SplitMix64: the seed alone determines every generated input.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, separated per workload by `salt` so two
    /// workloads never share a script.
    pub fn new(seed: u64, salt: &str) -> Self {
        let mut h = Fnv::new();
        h.bytes(salt.as_bytes());
        SplitMix64(seed ^ h.finish())
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// A peer of `node` among `0..n`, never `node` itself.
    pub fn peer(&mut self, node: usize, n: usize) -> usize {
        (node + 1 + self.below(n as u64 - 1) as usize) % n
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Percentiles without keeping the samples: a fixed-size histogram with
/// log-spaced bins 0.2 % wide from 1e-9 to 1e9. Its size never changes, so
/// harvesting into it leaves the heap metrics alone, and its answer is a
/// pure function of the samples (bin centres, relative error ≤ 0.1 %).
#[derive(Debug, Clone)]
pub struct LogHist {
    bins: Vec<u64>,
    n: u64,
}

const HIST_MIN: f64 = 1e-9;
const HIST_MAX: f64 = 1e9;
const HIST_STEP: f64 = 1.002;

impl LogHist {
    pub fn new() -> Self {
        let bins = ((HIST_MAX / HIST_MIN).ln() / HIST_STEP.ln()).ceil() as usize + 2;
        LogHist {
            bins: vec![0; bins],
            n: 0,
        }
    }

    pub fn add(&mut self, v: f64) {
        // Bin 0 holds everything at or below the range (zeros included).
        let k = if v > HIST_MIN {
            ((v / HIST_MIN).ln() / HIST_STEP.ln()) as usize + 1
        } else {
            0
        };
        let last = self.bins.len() - 1;
        self.bins[k.min(last)] += 1;
        self.n += 1;
    }

    /// Nearest-rank percentile (`p` in 0..=100); 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (p / 100.0 * (self.n - 1) as f64).round() as u64;
        let mut seen = 0;
        for (k, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen > rank {
                return if k == 0 {
                    0.0
                } else {
                    HIST_MIN * HIST_STEP.powf(k as f64 - 0.5)
                };
            }
        }
        HIST_MAX
    }
}

/// FNV-1a, 64 bit. Implements `fmt::Write` so `Debug` output can be hashed
/// without building the string.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p75_of_known_samples() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(percentile(&s, 75.0), 4.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn histogram_percentiles_track_exact_ones() {
        let mut h = LogHist::new();
        let samples: Vec<f64> = (1..=1000).map(|k| k as f64 * 0.37).collect();
        for &v in &samples {
            h.add(v);
        }
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            let (exact, got) = (percentile(&samples, p), h.percentile(p));
            assert!((got / exact - 1.0).abs() < 0.002, "p{p}: {got} vs {exact}");
        }
        let mut z = LogHist::new();
        assert_eq!(z.percentile(50.0), 0.0);
        z.add(0.0);
        z.add(5e9);
        assert_eq!(z.percentile(0.0), 0.0);
        assert!(z.percentile(100.0) >= 1e9);
    }

    #[test]
    fn generator_is_a_function_of_seed_and_salt() {
        let draw = |seed, salt| {
            let mut r = SplitMix64::new(seed, salt);
            (0..8).map(|_| r.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "a"), draw(7, "a"));
        assert_ne!(draw(7, "a"), draw(8, "a"));
        assert_ne!(draw(7, "a"), draw(7, "b"));
        let mut r = SplitMix64::new(1, "peer");
        for node in 0..5 {
            for _ in 0..50 {
                let p = r.peer(node, 5);
                assert!(p < 5 && p != node);
            }
        }
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
