//! Simulated time.
//!
//! The discrete-event runtime advances a virtual clock; soft-state TTLs
//! (§3.1's windows over base data) and the "convergence time" metric are both
//! expressed in this clock. Microsecond resolution comfortably covers the
//! paper's 2 ms–50 ms link latencies and multi-minute convergence times.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (microseconds since simulation start).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Duration(pub u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Microseconds since epoch.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds since epoch.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional seconds since epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Build from microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us)
    }

    /// Build from milliseconds.
    pub fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000)
    }

    /// Build from whole seconds.
    pub fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000)
    }

    /// Microseconds in the span.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds in the span.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating multiply by a scalar (used by bandwidth models:
    /// `bytes × per-byte-cost`).
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + Duration::from_millis(5);
        assert_eq!(t.micros(), 5_000);
        let t2 = t + Duration::from_micros(250);
        assert_eq!(t2 - t, Duration::from_micros(250));
        assert_eq!(t2.as_millis_f64(), 5.25);
    }

    #[test]
    fn saturation() {
        let t = SimTime(u64::MAX) + Duration::from_secs(1);
        assert_eq!(t, SimTime(u64::MAX));
        assert_eq!(SimTime(3) - SimTime(10), Duration::ZERO);
        assert_eq!(Duration(u64::MAX).saturating_mul(2), Duration(u64::MAX));
    }

    #[test]
    fn conversions_and_display() {
        assert_eq!(Duration::from_secs(2).micros(), 2_000_000);
        assert_eq!(Duration::from_millis(1).as_millis_f64(), 1.0);
        assert_eq!(SimTime(1_500).to_string(), "1.500ms");
        assert_eq!(SimTime(2_000_000).as_secs_f64(), 2.0);
    }
}
