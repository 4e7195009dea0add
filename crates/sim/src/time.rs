//! Virtual time.
//!
//! Time is tracked in integer **picoseconds** so that both clocks the paper
//! measures on divide without cumulative drift:
//!
//! * TURBOchannel / DECstation 5000/200 R3000 @ 25 MHz → 40 000 ps/cycle
//! * DEC 3000/600 Alpha @ 175 MHz → 5 714.28 ps/cycle (cycle *counts* are
//!   converted with 128-bit intermediate math, so n-cycle durations are
//!   exact to ±1 ps regardless of n)
//!
//! A `u64` of picoseconds covers ~213 days of virtual time; experiments run
//! for simulated milliseconds to seconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
const PS_PER_S: u64 = 1_000_000_000_000;

/// An instant in virtual time (picoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (picoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Instant `ns` nanoseconds after the epoch.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }
    /// Instant `us` microseconds after the epoch.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }
    /// Instant `ms` milliseconds after the epoch.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }
    /// Instant `s` seconds after the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_S)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Time since the epoch in (fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: negative duration"),
        )
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// `ps` picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }
    /// `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }
    /// `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }
    /// `ms` milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }
    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Fractional nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    /// Fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Throughput in megabits per second for `bytes` moved in this duration.
    ///
    /// Returns `f64::INFINITY` for a zero duration, matching the convention
    /// that an unmeasured instantaneous transfer has no meaningful rate.
    pub fn mbps_for_bytes(self, bytes: u64) -> f64 {
        if self.0 == 0 {
            return f64::INFINITY;
        }
        (bytes as f64 * 8.0) / self.as_secs_f64() / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

/// A fixed-frequency clock used to convert cycle counts to durations.
///
/// Conversion is exact: the duration of `n` cycles is `n * 10^12 / hz`
/// picoseconds rounded to nearest (with 128-bit intermediates where 64
/// bits overflow), so long cycle counts do not accumulate per-cycle
/// rounding error. When `hz` divides `10^12` the period is a whole
/// number of picoseconds and that value is `n * period`: one multiply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clock {
    hz: u64,
    /// `10^12 / hz` when it is a whole number of picoseconds.
    period_ps: Option<u64>,
}

impl Clock {
    /// A clock ticking `hz` times per second.
    ///
    /// # Panics
    /// Panics if `hz` is zero.
    pub const fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "clock frequency must be non-zero");
        let period = PS_PER_S / hz;
        let period_ps = if period * hz == PS_PER_S {
            Some(period)
        } else {
            None
        };
        Clock { hz, period_ps }
    }

    /// A clock ticking `mhz` million times per second.
    pub const fn from_mhz(mhz: u64) -> Self {
        Clock::from_hz(mhz * 1_000_000)
    }

    /// Duration of `n` clock cycles (rounded to the nearest picosecond).
    ///
    /// A whole-picosecond period multiplies (`(n·10^12 + hz/2) / hz` is
    /// exactly `n·period` when `hz` divides `10^12`). Otherwise counts
    /// below ~1.8·10⁷ cycles — every per-cell and per-PDU budget — keep
    /// the product in 64 bits, and longer ones take the 128-bit path.
    /// All compute the same value.
    #[inline]
    pub fn cycles(self, n: u64) -> SimDuration {
        if let Some(period) = self.period_ps {
            if let Some(ps) = n.checked_mul(period) {
                return SimDuration(ps);
            }
        } else if let Some(num) = n
            .checked_mul(PS_PER_S)
            .and_then(|p| p.checked_add(self.hz / 2))
        {
            return SimDuration(num / self.hz);
        }
        let ps = (n as u128 * PS_PER_S as u128 + self.hz as u128 / 2) / self.hz as u128;
        SimDuration(u64::try_from(ps).expect("cycle count overflows SimDuration"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_secs(1).as_ps(), 1_000_000_000_000);
        assert_eq!(SimDuration::from_us(3).as_us_f64(), 3.0);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_us(10);
        let d = SimDuration::from_ns(500);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).since(t), d);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_us(1);
        let b = SimTime::from_us(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_us(1));
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn since_panics_on_negative() {
        let _ = SimTime::from_us(1).since(SimTime::from_us(2));
    }

    #[test]
    fn turbochannel_cycle_is_exact() {
        // 25 MHz: the paper's TURBOchannel cycle is exactly 40 ns.
        let tc = Clock::from_mhz(25);
        assert_eq!(tc.cycles(1), SimDuration::from_ns(40));
        assert_eq!(tc.cycles(1_000_000), SimDuration::from_ms(40));
    }

    #[test]
    fn alpha_cycles_do_not_drift() {
        // 175 MHz does not divide 10^12 evenly; verify bulk conversion is
        // exact to the picosecond rather than accumulating rounding error.
        let alpha = Clock::from_mhz(175);
        let d = alpha.cycles(175_000_000);
        assert_eq!(d, SimDuration::from_ms(1000));
        // One cycle rounds to 5714 ps.
        assert_eq!(alpha.cycles(1).as_ps(), 5714);
        // And 7 cycles is exactly 40 ns (7/175MHz = 40ns).
        assert_eq!(alpha.cycles(7), SimDuration::from_ns(40));
    }

    #[test]
    fn cycles_64_bit_path_matches_the_128_bit_formula() {
        for hz in [1u64, 3, 25_000_000, 40_000_000, 999_999_937, u64::MAX] {
            let c = Clock::from_hz(hz);
            for n in [
                0u64,
                1,
                13,
                24,
                18_446_743,
                18_446_744,
                1 << 40,
                u64::MAX / PS_PER_S + 1,
            ] {
                let wide = (n as u128 * PS_PER_S as u128 + hz as u128 / 2) / hz as u128;
                if let Ok(ps) = u64::try_from(wide) {
                    assert_eq!(c.cycles(n), SimDuration(ps), "{n} cycles at {hz} Hz");
                }
            }
        }
    }

    #[test]
    fn whole_picosecond_periods_multiply_to_the_rounded_quotient() {
        // 25 MHz (the TURBOchannel and the DS5000's CPU) has a 40 000 ps
        // period and multiplies; 33 MHz and 175 MHz do not divide 10^12
        // and divide. Each must give the rounded 128-bit quotient on
        // seeded counts and across the 64/128-bit boundary at ~1.8·10^7.
        assert_eq!(Clock::from_mhz(25).period_ps, Some(40_000));
        assert_eq!(Clock::from_mhz(33).period_ps, None);
        assert_eq!(Clock::from_mhz(175).period_ps, None);
        let boundary = u64::MAX / PS_PER_S;
        let mut rng = crate::SimRng::new(0xC10C_2525);
        let mut counts: Vec<u64> = (boundary - 3..=boundary + 3).collect();
        counts.extend((0..2_000).map(|_| rng.gen_range(1 << 32)));
        counts.extend((0..2_000).map(|_| rng.gen_range(100_000)));
        for mhz in [25, 33, 175] {
            let clock = Clock::from_mhz(mhz);
            let hz = mhz as u128 * 1_000_000;
            for &n in &counts {
                let wide = (n as u128 * PS_PER_S as u128 + hz / 2) / hz;
                assert_eq!(
                    clock.cycles(n).as_ps() as u128,
                    wide,
                    "{n} cycles at {mhz} MHz"
                );
            }
        }
    }

    #[test]
    fn mbps_for_bytes_matches_paper_arithmetic() {
        // The paper: 44-byte transfers with 13-cycle overhead on an
        // 800 Mbps bus yield 11/(11+13)*800 = 366.67 Mbps.
        let tc = Clock::from_mhz(25);
        let per_cell = tc.cycles(11 + 13);
        let mbps = per_cell.mbps_for_bytes(44);
        assert!((mbps - 366.67).abs() < 0.5, "got {mbps}");
    }

    #[test]
    fn zero_duration_rate_is_infinite() {
        assert!(SimDuration::ZERO.mbps_for_bytes(100).is_infinite());
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", SimTime::from_us(75)), "75.000us");
        assert_eq!(format!("{}", SimDuration::from_ns(1500)), "1.500us");
    }
}
