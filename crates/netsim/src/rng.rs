//! Deterministic randomness for simulations.
//!
//! Every experiment run owns a single master seed. Components derive
//! independent child streams from that seed by name ([`SimRng::derive`]),
//! so adding a new consumer of randomness does not perturb the draws seen
//! by existing ones — a prerequisite for comparing protocol variants on
//! identical workloads ("common random numbers").

use crate::time::SimDuration;

/// The xoshiro256++ generator backing [`SimRng`] — the same algorithm
/// `rand`'s 64-bit `SmallRng` uses, implemented locally so the
/// simulation stack has **zero** external randomness dependencies and
/// every draw is a pure function of the seed. No constructor reads the
/// OS entropy pool or the clock, and determinism rule D003 (DESIGN.md §8)
/// keeps any other randomness source out of the workspace.
#[derive(Clone, Debug)]
struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Expands a 64-bit seed into the 256-bit state via splitmix64, the
    /// initialization Vigna recommends (and `SmallRng::seed_from_u64`
    /// performs) so that similar seeds yield uncorrelated streams.
    fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Xoshiro256PlusPlus {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw in `[0, 1)` from the high 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A seeded random stream with the distribution helpers the simulations
/// need (Bernoulli trials, exponential interarrivals, uniform picks).
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: Xoshiro256PlusPlus,
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256PlusPlus::seed_from_u64(seed),
        }
    }

    /// Derives an independent child stream keyed by `label`. The child is a
    /// pure function of `(parent seed material, label)`: deriving the same
    /// label twice from clones of the same parent yields identical streams.
    pub fn derive(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with fresh material from a clone of
        // the parent so different parents give different children.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut parent = self.inner.clone();
        let mix = parent.next_u64();
        SimRng::new(h ^ mix.rotate_left(17))
    }

    /// A Bernoulli trial: true with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.next_f64() < p
        }
    }

    /// A uniform draw in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty uniform range [{lo}, {hi})");
        lo + self.inner.next_f64() * (hi - lo)
    }

    /// A uniform integer draw in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.inner.next_u64() % n
    }

    /// An exponential variate with the given rate (events per second),
    /// via inverse-CDF. Panics unless `rate > 0`.
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0 && rate.is_finite(), "invalid rate {rate}");
        // 1 - U in (0, 1] avoids ln(0).
        let u: f64 = 1.0 - self.inner.next_f64();
        -u.ln() / rate
    }

    /// An exponential interarrival/service time with the given rate
    /// (events per second), as a simulated duration (>= 1 us so events
    /// always advance the clock).
    pub fn exp_duration(&mut self, rate: f64) -> SimDuration {
        let s = self.exp(rate);
        SimDuration::from_micros(((s * 1e6).round() as u64).max(1))
    }

    /// Picks a uniformly random element of `items`. Panics on empty input.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// A raw 64-bit draw, for callers building their own distributions.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// The exact integer threshold `t` such that
    /// `(next_u64() >> 11) < t` decides a Bernoulli(`p`) trial
    /// **bit-for-bit identically** to `next_f64() < p`, for `p` in
    /// `(0, 1)`.
    ///
    /// Why this is exact and not an approximation: `next_f64()` is
    /// `k * 2^-53` for an integer `k = next_u64() >> 11` in `[0, 2^53)`,
    /// and that product is computed exactly (scaling by a power of two
    /// never rounds). So `next_f64() < p  ⟺  k < p * 2^53` as real
    /// numbers — and `p * 2^53` is itself computed exactly in `f64` for
    /// the same reason. Taking `t = ceil(p * 2^53)` turns the open
    /// comparison against a possibly-fractional bound into an integer
    /// one: `k < p·2^53 ⟺ k < t` whether or not the bound is an
    /// integer. This is what lets [`SimRng::bernoulli_block`] batch loss
    /// draws without perturbing a single outcome.
    pub(crate) fn bernoulli_threshold(p: f64) -> u64 {
        debug_assert!(p > 0.0 && p < 1.0, "threshold wants open (0,1), got {p}");
        (p * (1u64 << 53) as f64).ceil() as u64
    }

    /// Draws 64 consecutive Bernoulli outcomes against an integer
    /// `threshold` from [`SimRng::bernoulli_threshold`], packed into a
    /// bitmask (bit `i` = outcome of draw `i`).
    ///
    /// Each outcome consumes **exactly one** `next_u64`, in stream
    /// order, so a consumer popping bits `0, 1, 2, …` sees the same
    /// outcome sequence as one calling [`SimRng::chance`] per trial —
    /// the contract that keeps batched loss models byte-identical
    /// (DESIGN.md §14). Only safe on streams dedicated to these draws:
    /// interleaving other draws from the same stream between bits would
    /// read positions the batch already consumed.
    pub(crate) fn bernoulli_block(&mut self, threshold: u64) -> u64 {
        let mut bits = 0u64;
        for i in 0..64 {
            bits |= u64::from((self.inner.next_u64() >> 11) < threshold) << i;
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_is_stable_and_distinct() {
        let root = SimRng::new(7);
        let mut c1 = root.derive("loss");
        let mut c2 = root.derive("loss");
        let mut c3 = root.derive("workload");
        let x1: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let x2: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        let x3: Vec<u64> = (0..8).map(|_| c3.next_u64()).collect();
        assert_eq!(x1, x2, "same label must give the same stream");
        assert_ne!(x1, x3, "different labels must give different streams");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_frequency() {
        let mut r = SimRng::new(99);
        let n = 200_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn exp_mean() {
        let mut r = SimRng::new(5);
        let rate = 4.0;
        let n = 100_000;
        let total: f64 = (0..n).map(|_| r.exp(rate)).sum();
        let mean = total / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exp_duration_positive() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            assert!(!r.exp_duration(1e9).is_zero());
        }
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn pick_and_below_cover_range() {
        let mut r = SimRng::new(17);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..1000 {
            seen[(*r.pick(&items) - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            assert!(r.below(5) < 5);
        }
    }
}
