//! Simulation time: nanosecond-resolution instants and durations.
//!
//! Two distinct newtypes keep instants and durations from being mixed up:
//! [`SimTime`] is a point on the simulation clock, [`SimDur`] is a span.
//! Arithmetic is saturating on the low end (an instant can not go below
//! zero) and panics on overflow in debug builds, matching `u64` semantics.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(u64);

/// `x.round() as u64`, bit for bit, without `f64::round`: on baseline
/// x86-64 that is a software routine, and these two conversions run on
/// every serialization time and CPU charge. The cast saturates (NaN and
/// negatives to 0, past `u64::MAX` to it), and below 2^64 `x - t` is the
/// exact fraction, so the half-up test rounds as `round` does.
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

macro_rules! ctors {
    ($ty:ident) => {
        impl $ty {
            /// Zero value.
            pub const ZERO: $ty = $ty(0);
            /// Largest representable value.
            pub const MAX: $ty = $ty(u64::MAX);

            /// Construct from whole nanoseconds.
            pub const fn from_nanos(ns: u64) -> Self {
                $ty(ns)
            }
            /// Construct from whole microseconds.
            pub const fn from_micros(us: u64) -> Self {
                $ty(us * 1_000)
            }
            /// Construct from whole milliseconds.
            pub const fn from_millis(ms: u64) -> Self {
                $ty(ms * 1_000_000)
            }
            /// Construct from whole seconds.
            pub const fn from_secs(s: u64) -> Self {
                $ty(s * 1_000_000_000)
            }
            /// Construct from fractional seconds. Negative values clamp to zero.
            pub fn from_secs_f64(s: f64) -> Self {
                if s <= 0.0 {
                    return $ty(0);
                }
                $ty(round_to_u64(s * 1e9))
            }
            /// Value in whole nanoseconds.
            pub const fn as_nanos(self) -> u64 {
                self.0
            }
            /// Value in whole microseconds (truncating).
            pub const fn as_micros(self) -> u64 {
                self.0 / 1_000
            }
            /// Value in whole milliseconds (truncating).
            pub const fn as_millis(self) -> u64 {
                self.0 / 1_000_000
            }
            /// Value in whole seconds (truncating).
            pub const fn as_secs(self) -> u64 {
                self.0 / 1_000_000_000
            }
            /// Value in fractional seconds.
            pub fn as_secs_f64(self) -> f64 {
                self.0 as f64 / 1e9
            }
            /// Value in fractional microseconds.
            pub fn as_micros_f64(self) -> f64 {
                self.0 as f64 / 1e3
            }
            /// Value in fractional milliseconds.
            pub fn as_millis_f64(self) -> f64 {
                self.0 as f64 / 1e6
            }
            /// True if this is the zero value.
            pub const fn is_zero(self) -> bool {
                self.0 == 0
            }
        }
    };
}

ctors!(SimTime);
ctors!(SimDur);

impl SimTime {
    /// Duration elapsed since `earlier`; zero if `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDur) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDur {
    /// Multiply by a non-negative float, rounding to nanoseconds.
    pub fn mul_f64(self, k: f64) -> SimDur {
        assert!(k >= 0.0, "negative duration scale {k}");
        SimDur(round_to_u64(self.0 as f64 * k))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDur) -> SimDur {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDur) -> SimDur {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDur> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDur) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    fn sub(self, rhs: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDur {
    type Output = SimDur;
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 + rhs.0)
    }
}

impl AddAssign for SimDur {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDur {
    fn sub_assign(&mut self, rhs: SimDur) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDur {
    type Output = SimDur;
    fn mul(self, rhs: u64) -> SimDur {
        SimDur(self.0 * rhs)
    }
}

impl Div<u64> for SimDur {
    type Output = SimDur;
    fn div(self, rhs: u64) -> SimDur {
        SimDur(self.0 / rhs)
    }
}

impl Sum for SimDur {
    fn sum<I: Iterator<Item = SimDur>>(iter: I) -> SimDur {
        iter.fold(SimDur::ZERO, |a, b| a + b)
    }
}

fn fmt_ns(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns >= 1_000_000_000 {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{ns}ns")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDur::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDur::from_secs_f64(0.5), SimDur::from_millis(500));
        assert_eq!(SimDur::from_secs_f64(-1.0), SimDur::ZERO);
    }

    /// `round_to_u64` is `f64::round` then a saturating cast: on random
    /// bit patterns, random magnitudes, every `k + 0.5` tried and its
    /// one-ulp neighbours, and the edges (NaN, ±∞, 2^53, 2^64).
    #[test]
    fn round_to_u64_matches_round_then_cast() {
        let check = |x: f64| {
            let want = x.round() as u64;
            assert_eq!(round_to_u64(x), want, "{x:e} ({:#018x})", x.to_bits());
        };
        let mut edges = vec![
            f64::NAN,
            f64::INFINITY,
            0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            2f64.powi(52),
            2f64.powi(53),
            2f64.powi(63),
            2f64.powi(64),
        ];
        let mut rng = crate::SimRng::seed_from_u64(0x0000_2B0D);
        let halves = [0, 1, 2, 7, 1 << 20, 1 << 40, (1 << 52) - 1];
        let random_halves = (0..10_000).map(|_| rng.below(1 << 52));
        for k in halves.into_iter().chain(random_halves) {
            edges.push(k as f64 + 0.5);
        }
        for x in edges {
            for y in [x, -x] {
                check(y);
                check(y.next_up());
                check(y.next_down());
            }
        }
        for _ in 0..200_000 {
            check(f64::from_bits(rng.next_u64()));
            check(rng.f64() * 2f64.powi(rng.below(70) as i32));
        }
    }

    #[test]
    fn instant_duration_arithmetic() {
        let t = SimTime::from_secs(1);
        let d = SimDur::from_millis(250);
        assert_eq!(t + d, SimTime::from_millis(1250));
        assert_eq!((t + d) - t, d);
        // instant subtraction saturates at zero
        assert_eq!(SimTime::from_secs(1) - SimDur::from_secs(5), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.since(SimTime::from_secs(1)), SimDur::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDur::from_secs(1);
        assert_eq!(d.mul_f64(0.5), SimDur::from_millis(500));
        assert_eq!(d * 3, SimDur::from_secs(3));
        assert_eq!(d / 4, SimDur::from_millis(250));
    }

    #[test]
    fn duration_sum_and_minmax() {
        let total: SimDur = [SimDur::from_secs(1), SimDur::from_millis(500)]
            .into_iter()
            .sum();
        assert_eq!(total, SimDur::from_millis(1500));
        assert_eq!(
            SimDur::from_secs(1).min(SimDur::from_secs(2)),
            SimDur::from_secs(1)
        );
        assert_eq!(
            SimTime::from_secs(1).max(SimTime::from_secs(2)),
            SimTime::from_secs(2)
        );
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDur::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDur::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDur::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(12)), "12.000s");
    }

    #[test]
    fn secs_f64_roundtrip() {
        let d = SimDur::from_secs_f64(1.2345);
        assert!((d.as_secs_f64() - 1.2345).abs() < 1e-9);
    }
}
