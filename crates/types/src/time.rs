//! Simulated time.
//!
//! The experiment spans eleven simulated months; every captured packet, BGP
//! event and scan session carries a [`SimTime`] in whole seconds since the
//! experiment epoch. Seconds are fine-grained enough for everything the
//! paper measures (the shortest interval of interest is the sub-30-minute
//! reaction of BGP live monitors), and integer arithmetic keeps ordering
//! exact and hashable.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration in whole seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from seconds.
    pub const fn secs(s: u64) -> Self {
        SimDuration(s)
    }
    /// Builds a duration from minutes.
    pub const fn mins(m: u64) -> Self {
        SimDuration(m * 60)
    }
    /// Builds a duration from hours.
    pub const fn hours(h: u64) -> Self {
        SimDuration(h * 3600)
    }
    /// Builds a duration from days.
    pub const fn days(d: u64) -> Self {
        SimDuration(d * 86_400)
    }
    /// Builds a duration from weeks.
    pub const fn weeks(w: u64) -> Self {
        SimDuration(w * 7 * 86_400)
    }

    /// The duration in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }
    /// Saturating scalar multiply.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

/// A point in simulated time: seconds since the experiment epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The experiment epoch (t = 0).
    pub const EPOCH: SimTime = SimTime(0);

    /// Builds a timestamp from raw seconds since epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s)
    }

    /// Seconds since epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Zero-based day index since epoch.
    pub const fn day(self) -> u64 {
        self.0 / 86_400
    }

    /// Zero-based hour index since epoch.
    pub const fn hour(self) -> u64 {
        self.0 / 3600
    }

    /// Zero-based week index since epoch.
    pub const fn week(self) -> u64 {
        self.0 / (7 * 86_400)
    }

    /// Time elapsed since `earlier` (saturating at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition, for schedule arithmetic near the horizon.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0 / 86_400;
        let rem = self.0 % 86_400;
        write!(
            f,
            "d{:03} {:02}:{:02}:{:02}",
            d,
            rem / 3600,
            (rem % 3600) / 60,
            rem % 60
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 % 86_400 == 0 && self.0 > 0 {
            write!(f, "{}d", self.0 / 86_400)
        } else if self.0 % 3600 == 0 && self.0 > 0 {
            write!(f, "{}h", self.0 / 3600)
        } else {
            write!(f, "{}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::mins(2), SimDuration::secs(120));
        assert_eq!(SimDuration::hours(1), SimDuration::mins(60));
        assert_eq!(SimDuration::days(1), SimDuration::hours(24));
        assert_eq!(SimDuration::weeks(2), SimDuration::days(14));
    }

    #[test]
    fn bucket_indices() {
        let t = SimTime::EPOCH + SimDuration::days(9) + SimDuration::hours(5);
        assert_eq!(t.day(), 9);
        assert_eq!(t.week(), 1);
        assert_eq!(t.hour(), 9 * 24 + 5);
    }

    #[test]
    fn arithmetic_and_since() {
        let a = SimTime::from_secs(100);
        let b = a + SimDuration::secs(50);
        assert_eq!(b - a, SimDuration::secs(50));
        assert_eq!(a - b, SimDuration::ZERO, "sub saturates");
        assert_eq!(b.since(a), SimDuration::secs(50));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            SimTime::from_secs(86_400 + 3661).to_string(),
            "d001 01:01:01"
        );
        assert_eq!(SimDuration::days(14).to_string(), "14d");
        assert_eq!(SimDuration::hours(5).to_string(), "5h");
        assert_eq!(SimDuration::secs(61).to_string(), "61s");
    }

    #[test]
    fn ordering_is_chronological() {
        let mut v = vec![
            SimTime::from_secs(5),
            SimTime::from_secs(1),
            SimTime::from_secs(3),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::from_secs(1),
                SimTime::from_secs(3),
                SimTime::from_secs(5)
            ]
        );
    }
}
