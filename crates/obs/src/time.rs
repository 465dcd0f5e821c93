//! Virtual time for the discrete-event simulation.
//!
//! These types live in `sada-obs` (the bottom of the dependency stack) so
//! that every layer — the simulator, the protocol cores, the audit log, the
//! temporal monitor — can stamp events with the same clock. `sada-simnet`
//! re-exports them, so downstream code keeps using `sada_simnet::SimTime`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, measured in microseconds since the
/// start of the run.
///
/// `SimTime` is totally ordered and starts at [`SimTime::ZERO`]. It only ever
/// moves forward; the simulator advances it to the timestamp of each event it
/// dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// Durations are what actors pass to timer APIs and what link configurations
/// use for latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from a raw microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds a time from a millisecond count.
    ///
    /// # Panics
    ///
    /// Panics on overflow (more than ~584,000 years of simulated time).
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time as (possibly fractional) milliseconds.
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating difference between two instants.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from a raw microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from a millisecond count.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from a second count.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as (possibly fractional) milliseconds.
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Scales the duration by an integer factor, saturating on overflow.
    pub const fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(3);
        let d = SimDuration::from_micros(500);
        assert_eq!((t + d).as_micros(), 3_500);
        assert_eq!((t + d) - t, d);
        assert_eq!(t - (t + d), SimDuration::ZERO, "subtraction saturates");
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
    }

    #[test]
    fn display_is_millis() {
        assert_eq!(SimTime::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_millis(10).to_string(), "10.000ms");
    }

    #[test]
    fn saturating_mul_caps() {
        let d = SimDuration::from_micros(u64::MAX);
        assert_eq!(d.saturating_mul(2).as_micros(), u64::MAX);
        assert_eq!(SimDuration::from_millis(2).saturating_mul(3).as_micros(), 6_000);
    }

    #[test]
    fn ordering_follows_micros() {
        assert!(SimTime::ZERO < SimTime::from_micros(1));
        assert!(SimDuration::from_millis(1) < SimDuration::from_millis(2));
    }
}
