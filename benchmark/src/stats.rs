//! Order statistics for the timing metrics.

/// The percentiles a timing may be reported at, lowest first.
const CANDIDATES: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The 1-based nearest rank of percentile `q` (0..=100) among `n`
/// samples. The epsilon keeps products such as 0.999 × 10 000, which
/// floating point lands a hair above the integer, from rounding up.
fn rank(n: usize, q: f64) -> usize {
    (((q / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Sorts `samples` in place and returns their median (nearest rank).
pub fn median(samples: &mut [f64]) -> f64 {
    sort(samples);
    percentile(samples, 50.0)
}

pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// How many samples lie strictly beyond the nearest-rank position of
/// percentile `q` among `n`.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest candidate percentile that still has at least ten of `n`
/// samples beyond it; the median when even p90 has not.
pub fn highest_supported_percentile(n: usize) -> f64 {
    CANDIDATES
        .into_iter()
        .rev()
        .find(|&q| n > 0 && beyond(n, q) >= 10)
        .unwrap_or(50.0)
}

/// The tail percentile to report from `n` samples: `wanted`, or the
/// highest supported one below it when the sample is too small.
pub fn tail_percentile(n: usize, wanted: f64) -> f64 {
    wanted.min(highest_supported_percentile(n))
}

/// A fixed-memory latency histogram: log-spaced buckets (64 per octave,
/// about 1 % wide), so a window of millions of samples costs 16 KiB
/// however long it runs and never shows in `peak_rss_mib`.
///
/// Quantiles interpolate by rank inside the bucket, so the value read
/// is continuous rather than snapped to a bucket edge.
#[derive(Clone)]
pub struct LatencyHist {
    counts: Vec<u32>,
    total: u64,
}

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

impl LatencyHist {
    pub fn new() -> Self {
        LatencyHist {
            counts: vec![0; (64 * SUB) as usize],
            total: 0,
        }
    }

    /// Values below `SUB` get one bucket each; above, the bucket is the
    /// position of the top bit and the `SUB_BITS` bits after it.
    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let top = 63 - ns.leading_zeros();
        let shift = top - SUB_BITS;
        let sub = (ns >> shift) & (SUB - 1);
        (u64::from(shift + 1) * SUB + sub) as usize
    }

    /// The half-open range of nanosecond values bucket `b` covers.
    fn bounds(b: usize) -> (u64, u64) {
        let (octave, sub) = (b as u64 / SUB, b as u64 % SUB);
        if octave == 0 {
            return (sub, sub + 1);
        }
        let shift = octave - 1;
        let lo = (SUB + sub) << shift;
        (lo, lo + (1 << shift))
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> usize {
        self.total as usize
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Percentile `q` (0..=100) in nanoseconds; 0 for an empty histogram.
    pub fn percentile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q / 100.0 * self.total as f64).clamp(0.5, self.total as f64 - 0.5);
        let mut before = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            let after = before + u64::from(c);
            if c > 0 && rank <= after as f64 {
                let (lo, hi) = Self::bounds(b);
                let frac = (rank - before as f64) / f64::from(c);
                return lo as f64 + frac * (hi - lo) as f64;
            }
            before = after;
        }
        unreachable!("rank lies within the recorded total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&mut [5.0]), 5.0);
    }

    #[test]
    fn percentile_picks_ranks() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn picker_needs_ten_samples_beyond() {
        // 19 samples: even p50 leaves only 9 beyond -> median.
        assert_eq!(highest_supported_percentile(19), 50.0);
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(highest_supported_percentile(100), 90.0);
        // 999 samples: p99 leaves 9, p95 leaves 49.
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(100_000), 99.99);
        assert_eq!(highest_supported_percentile(0), 50.0);
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        for ns in [0u64, 1, 63, 64, 65, 127, 128, 1_000, 123_456, 9_999_999_999] {
            let (lo, hi) = LatencyHist::bounds(LatencyHist::bucket(ns));
            assert!(lo <= ns && ns < hi, "{ns} not in [{lo}, {hi})");
            // Buckets are at most 1/64 of their lower edge wide.
            assert!(hi - lo <= (lo / 64).max(1), "[{lo}, {hi}) too wide");
        }
    }

    #[test]
    fn histogram_percentiles_track_exact_ones() {
        let mut h = LatencyHist::new();
        let mut exact: Vec<f64> = Vec::new();
        for i in 0..10_000u64 {
            let ns = 50_000 + (i * 7_919) % 900_000;
            h.record(ns);
            exact.push(ns as f64);
        }
        sort(&mut exact);
        for q in [50.0, 90.0, 99.0] {
            let (got, want) = (h.percentile_ns(q), percentile(&exact, q));
            assert!((got - want).abs() / want < 0.02, "p{q}: {got} vs {want}");
        }
        assert_eq!(h.len(), 10_000);
        assert_eq!(LatencyHist::new().percentile_ns(50.0), 0.0);
    }

    #[test]
    fn merged_histograms_add_up() {
        let (mut a, mut b) = (LatencyHist::new(), LatencyHist::new());
        a.record(1_000);
        b.record(2_000);
        b.record(3_000);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert!((a.percentile_ns(50.0) - 2_000.0).abs() < 40.0);
    }

    #[test]
    fn tail_falls_back_when_the_sample_is_small() {
        assert_eq!(tail_percentile(1000, 99.0), 99.0);
        assert_eq!(tail_percentile(999, 99.0), 95.0);
        assert_eq!(tail_percentile(100_000, 99.0), 99.0);
        assert_eq!(tail_percentile(100, 90.0), 90.0);
        assert_eq!(tail_percentile(0, 90.0), 50.0);
    }
}
