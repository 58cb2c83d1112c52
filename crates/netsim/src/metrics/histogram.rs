//! The registry's histogram kind: latency quantiles (the paper's
//! receive latency `T_rec`) without storing every sample.

use crate::time::SimDuration;

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
}
