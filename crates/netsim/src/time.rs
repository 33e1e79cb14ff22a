//! Virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in virtual time, measured in nanoseconds since simulation start.
///
/// `SimTime` is a newtype over `u64`, giving the simulator ~584 years of
/// range — comfortably more than the paper's 7-day 2013 scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Raw nanoseconds since start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds since start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Seconds since start as a float (for rate computations).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating duration since an earlier time.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_nanos() as u64))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

/// A virtual calendar spanning successive simulator runs.
///
/// Every [`SimNet`](crate::SimNet) starts its own clock at
/// [`SimTime::ZERO`]; a long-running observatory executes one simulation
/// per *epoch* (a virtual day of scanning) and needs a clock that keeps
/// counting across them. `EpochClock` maps epoch indices to absolute
/// virtual-time windows and local (per-run) times to absolute times, so
/// a five-epoch service can report "day 4.0" instead of five unrelated
/// zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochClock {
    /// Virtual length of one epoch, in nanoseconds.
    epoch_nanos: u64,
}

impl EpochClock {
    /// A clock whose epochs last `epoch_len` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics on a zero-length epoch.
    pub fn new(epoch_len: Duration) -> Self {
        let epoch_nanos = epoch_len.as_nanos().min(u128::from(u64::MAX)) as u64;
        assert!(epoch_nanos > 0, "epochs must have positive length");
        Self { epoch_nanos }
    }

    /// Absolute virtual time at which `epoch` begins.
    pub(crate) fn start_of(&self, epoch: u64) -> SimTime {
        SimTime(epoch.saturating_mul(self.epoch_nanos))
    }

    /// Maps a run-local time (measured from that run's `SimTime::ZERO`)
    /// into absolute time on this calendar.
    pub fn absolute(&self, epoch: u64, local: SimTime) -> SimTime {
        SimTime(self.start_of(epoch).0.saturating_add(local.0))
    }

    /// `epoch`'s start expressed in virtual days (for trend labels).
    pub fn days_at(&self, epoch: u64) -> f64 {
        self.start_of(epoch).as_secs_f64() / 86_400.0
    }
}

impl fmt::Display for SimTime {
    /// Renders as `h:mm:ss.mmm` for scan-duration reporting.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_ms = self.0 / 1_000_000;
        let (ms, s, m, h) = (
            total_ms % 1_000,
            total_ms / 1_000 % 60,
            total_ms / 60_000 % 60,
            total_ms / 3_600_000,
        );
        write!(f, "{h}:{m:02}:{s:02}.{ms:03}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EpochClock {
        /// The epoch containing the absolute time `at`.
        fn epoch_of(&self, at: SimTime) -> u64 {
            at.0 / self.epoch_nanos
        }

        /// Absolute virtual time at which `epoch` ends (== the start of the
        /// next one).
        fn end_of(&self, epoch: u64) -> SimTime {
            self.start_of(epoch.saturating_add(1))
        }
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let u = t + Duration::from_millis(500);
        assert_eq!(u.as_nanos(), 10_500_000_000);
        assert_eq!(u - t, Duration::from_millis(500));
        assert_eq!(t - u, Duration::ZERO, "saturating");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
        assert_eq!(SimTime::from_secs(1), SimTime::from_nanos(1_000_000_000));
    }

    #[test]
    fn display_scan_durations() {
        // The 2018 scan lasted about 10h35m.
        let t = SimTime::from_secs(10 * 3600 + 35 * 60);
        assert_eq!(t.to_string(), "10:35:00.000");
        assert_eq!(SimTime::ZERO.to_string(), "0:00:00.000");
    }

    #[test]
    fn epoch_clock_maps_epochs_to_windows() {
        let clock = EpochClock::new(Duration::from_secs(86_400));
        assert_eq!(clock.start_of(0), SimTime::ZERO);
        assert_eq!(clock.start_of(3), SimTime::from_secs(3 * 86_400));
        assert_eq!(clock.end_of(2), clock.start_of(3));
        assert_eq!(clock.epoch_of(SimTime::from_secs(90_000)), 1);
        assert_eq!(
            clock.absolute(2, SimTime::from_secs(10)),
            SimTime::from_secs(2 * 86_400 + 10)
        );
        assert!((clock.days_at(4) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn epoch_clock_rejects_zero_epochs() {
        let _ = EpochClock::new(Duration::ZERO);
    }

    #[test]
    fn seven_day_scan_fits() {
        let week = SimTime::from_secs(7 * 24 * 3600 + 5 * 3600);
        assert_eq!(week.as_secs(), 622_800); // 7d5h, the 2013 scan duration
        assert!(week.as_secs_f64() > 6.2e5);
    }
}
