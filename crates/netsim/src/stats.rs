//! Online statistics used by every experiment.
//!
//! The paper's metrics are time averages (average system consistency is
//! "the time average of the instantaneous system consistency over the
//! entire lifetime of a system", §2.1) and per-event averages (receive
//! latency `T_rec`). The time averages are
//! [`crate::metrics::WindowedTimeAverage`]'s; here [`DurationHistogram`]
//! gives latency quantiles without storing every sample and
//! [`TimeSeries`] records `c(t)` curves for the Figure 8 style plots.

use crate::time::{SimDuration, SimTime};

/// A histogram of durations with geometric buckets, for latency quantiles.
///
/// Buckets grow by ~9% per step (80 buckets per decade of microseconds),
/// bounding quantile error to under 5% of the value — plenty for comparing
/// protocol variants.
#[derive(Clone, Debug)]
pub struct DurationHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_us: u128,
    min_us: u64,
    max_us: u64,
}

const BUCKETS_PER_DECADE: f64 = 80.0;
const NUM_BUCKETS: usize = 1 + (20.0 * BUCKETS_PER_DECADE) as usize; // up to 1e20 us

impl Default for DurationHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl DurationHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        DurationHistogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }

    fn bucket_of(us: u64) -> usize {
        if us == 0 {
            return 0;
        }
        let b = ((us as f64).log10() * BUCKETS_PER_DECADE).floor() as usize + 1;
        b.min(NUM_BUCKETS - 1)
    }

    fn bucket_value(b: usize) -> u64 {
        if b == 0 {
            return 0;
        }
        // Geometric midpoint of the bucket.
        let lo = 10f64.powf((b as f64 - 1.0) / BUCKETS_PER_DECADE);
        let hi = 10f64.powf(b as f64 / BUCKETS_PER_DECADE);
        ((lo * hi).sqrt()).round() as u64
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let us = d.as_micros();
        self.counts[Self::bucket_of(us)] += 1;
        self.total += 1;
        self.sum_us += u128::from(us);
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of all samples (zero when empty).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros((self.sum_us / u128::from(self.total)) as u64)
    }

    /// The smallest sample (zero when empty).
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(self.min_us)
        }
    }

    /// The largest sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_micros(self.max_us)
    }

    /// The `q`-quantile (`q` in `[0,1]`), approximate to bucket resolution.
    /// Returns zero when empty.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_micros(
                    Self::bucket_value(b).clamp(self.min_us, self.max_us),
                );
            }
        }
        self.max()
    }
}

/// A recorded `(time, value)` curve, optionally downsampled to a minimum
/// spacing so long runs stay small. Used for consistency-vs-time plots
/// (Figure 8).
#[derive(Clone, Debug)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
    min_spacing: SimDuration,
}

impl TimeSeries {
    /// A series that keeps at most one point per `min_spacing`
    /// (zero spacing keeps every point).
    pub fn new(min_spacing: SimDuration) -> Self {
        TimeSeries {
            points: Vec::new(),
            min_spacing,
        }
    }

    /// Appends a point unless it is closer than `min_spacing` to the last.
    /// The very first point is always kept.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            if t.saturating_since(last) < self.min_spacing {
                return;
            }
        }
        self.points.push((t, v));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_exact_and_quantiles_close() {
        let mut h = DurationHistogram::new();
        for ms in 1..=1000u64 {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.count(), 1000);
        let mean = h.mean().as_secs_f64();
        assert!((mean - 0.5005).abs() < 1e-6, "mean {mean}");
        let p50 = h.quantile(0.5).as_secs_f64();
        assert!((p50 - 0.5).abs() < 0.05, "p50 {p50}");
        let p99 = h.quantile(0.99).as_secs_f64();
        assert!((p99 - 0.99).abs() < 0.06, "p99 {p99}");
        assert_eq!(h.min(), SimDuration::from_millis(1));
        assert_eq!(h.max(), SimDuration::from_millis(1000));
    }

    #[test]
    fn histogram_empty_and_zero() {
        let mut h = DurationHistogram::new();
        assert_eq!(h.quantile(0.5), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
        h.record(SimDuration::ZERO);
        assert_eq!(h.quantile(1.0), SimDuration::ZERO);
    }

    #[test]
    fn timeseries_downsamples() {
        let mut s = TimeSeries::new(SimDuration::from_secs(1));
        for ms in (0..5000).step_by(100) {
            s.push(SimTime::from_millis(ms), ms as f64);
        }
        // Points at 0, 1000, 2000, 3000, 4000 ms survive.
        assert_eq!(s.len(), 5);
        assert_eq!(s.points()[1].0, SimTime::from_secs(1));
    }

    #[test]
    fn timeseries_keeps_all_with_zero_spacing() {
        let mut s = TimeSeries::new(SimDuration::ZERO);
        assert!(s.is_empty());
        for i in 0..10 {
            s.push(SimTime::from_micros(i), i as f64);
        }
        assert_eq!(s.len(), 10);
    }
}
