//! Bandwidth and data-size units.
//!
//! The paper expresses workloads and channel capacities in kilobits per
//! second (e.g. "λ = 15 kbps, μ_data = 45 kbps"). [`Bandwidth`] keeps
//! bits-per-second as an integer and converts between byte counts and
//! serialization delays exactly (rounding up to whole microseconds so a
//! transmitter can never finish "early").

use crate::time::SimDuration;
use core::fmt;
use core::ops::{Add, Sub};

/// A link or sub-queue capacity in bits per second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero capacity. Transmissions on a zero-capacity queue never complete;
    /// callers treat this as "queue disabled".
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Builds a bandwidth from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// Builds a bandwidth from kilobits per second (10^3 bits, as in the
    /// paper's figures).
    pub const fn from_kbps(kbps: u64) -> Self {
        Bandwidth(kbps * 1_000)
    }

    /// Builds a bandwidth from megabits per second.
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }

    /// Bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Kilobits per second, as a float.
    pub(crate) fn as_kbps_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True if this bandwidth is zero (a disabled queue).
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Time to serialize `bytes` onto a link of this capacity, rounded **up**
    /// to a whole microsecond. Panics if the bandwidth is zero.
    pub fn transmit_time(self, bytes: usize) -> SimDuration {
        assert!(self.0 > 0, "cannot transmit on zero bandwidth");
        let bits = bytes as u128 * 8;
        let us = (bits * 1_000_000).div_ceil(self.0 as u128);
        SimDuration::from_micros(u64::try_from(us).expect("transmit time overflow"))
    }

    /// Scales the bandwidth by `k ∈ [0, ∞)`, rounding to the nearest bit/s.
    /// Used to split a session budget into sub-queue shares.
    pub fn mul_f64(self, k: f64) -> Bandwidth {
        assert!(k.is_finite() && k >= 0.0, "invalid bandwidth scale {k}");
        Bandwidth((self.0 as f64 * k).round() as u64)
    }

    /// Subtracts, saturating at zero.
    pub fn saturating_sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.checked_add(rhs.0).expect("Bandwidth overflow"))
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.checked_sub(rhs.0).expect("Bandwidth underflow"))
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}kbps", self.as_kbps_f64())
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} kbps", self.as_kbps_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Bandwidth::from_kbps(45).as_bps(), 45_000);
        assert_eq!(Bandwidth::from_mbps(1).as_bps(), 1_000_000);
        assert_eq!(Bandwidth::from_kbps(128).as_kbps_f64(), 128.0);
    }

    #[test]
    fn transmit_time_exact() {
        // 1000 bytes at 8 kbps = 8000 bits / 8000 bps = 1 s exactly.
        let bw = Bandwidth::from_kbps(8);
        assert_eq!(bw.transmit_time(1000), SimDuration::from_secs(1));
    }

    #[test]
    fn transmit_time_rounds_up() {
        // 1 byte at 1 Mbps = 8 us exactly; 1 byte at 3 Mbps = 2.67us -> 3us.
        assert_eq!(
            Bandwidth::from_mbps(1).transmit_time(1),
            SimDuration::from_micros(8)
        );
        assert_eq!(
            Bandwidth::from_mbps(3).transmit_time(1),
            SimDuration::from_micros(3)
        );
    }

    #[test]
    fn transmit_time_matches_paper_units() {
        // The paper's mu_data = 45 kbps with 1000-byte ADUs is 5.625
        // pkt/s: 1/5.625 s = 177_777.7 us, rounded up.
        let t = Bandwidth::from_kbps(45).transmit_time(1000);
        assert_eq!(t, SimDuration::from_micros(177_778));
        assert!((1.0 / t.as_secs_f64() - 5.625).abs() < 1e-4);
    }

    #[test]
    fn split_and_subtract() {
        let total = Bandwidth::from_kbps(45);
        let hot = total.mul_f64(0.4);
        assert_eq!(hot.as_bps(), 18_000);
        assert_eq!(total - hot, Bandwidth::from_kbps(27));
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn zero_bandwidth_panics() {
        let _ = Bandwidth::ZERO.transmit_time(10);
    }
}
