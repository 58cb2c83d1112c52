//! Packet-loss models for the lossy announcement channel.
//!
//! §3 of the paper argues that the consistency metric "is insensitive to
//! the exact pattern of losses, but is only affected by the mean of the
//! packet loss process". We therefore provide both an i.i.d. model
//! ([`Bernoulli`]) and a bursty two-state Markov model ([`GilbertElliott`])
//! with a matching mean, so that claim can be tested rather than assumed
//! (see the `loss-pattern` experiment).

use crate::rng::SimRng;

/// A cloneable, plain-data specification of a loss process (configs must
/// be plain data; the trait object is built per run). This is the single
/// audited description of loss for the whole workspace: the core
/// protocol configs, the SSTP session, the UDP endpoints, and `ss-chaos`
/// loss-override episodes all build their models from it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossSpec {
    /// Independent loss with the given probability — the analysis model.
    Bernoulli(f64),
    /// Gilbert burst loss with the given mean rate and mean burst length
    /// in packets — for the loss-pattern-insensitivity experiment.
    Bursty {
        /// Long-run mean loss probability.
        mean: f64,
        /// Mean number of consecutive losses per burst.
        burst_len: f64,
    },
    /// No loss at all.
    None,
}

impl LossSpec {
    /// Instantiates the loss process.
    pub fn build(&self) -> Box<dyn LossModel> {
        match *self {
            LossSpec::Bernoulli(p) => Box::new(Bernoulli::new(p)),
            LossSpec::Bursty { mean, burst_len } => {
                Box::new(GilbertElliott::bursty(mean, burst_len))
            }
            LossSpec::None => Box::new(Bernoulli::new(0.0)),
        }
    }

    /// Instantiates the loss process with draw batching where it is
    /// outcome-preserving: Bernoulli specs build a [`BatchedBernoulli`],
    /// everything else builds exactly what [`LossSpec::build`] would.
    ///
    /// **Only for models driven by a dedicated loss stream** (the
    /// protocol engines' `rng_loss`, the SSTP session's per-receiver
    /// channel streams). The batched model prefetches 64 outcomes ahead on its
    /// stream; if anything else draws from the same stream in between,
    /// those draws land at different positions than unbatched and the
    /// run diverges. The `ss-chaos` [`crate::faults::FaultSchedule`]
    /// must keep [`LossSpec::build`]: its stream is shared across
    /// episode kinds.
    pub fn build_batched(&self) -> Box<dyn LossModel> {
        match *self {
            LossSpec::Bernoulli(p) => Box::new(BatchedBernoulli::new(p)),
            LossSpec::Bursty { mean, burst_len } => {
                Box::new(GilbertElliott::bursty(mean, burst_len))
            }
            LossSpec::None => Box::new(BatchedBernoulli::new(0.0)),
        }
    }

    /// The long-run mean loss probability.
    pub fn mean(&self) -> f64 {
        match *self {
            LossSpec::Bernoulli(p) => p,
            LossSpec::Bursty { mean, .. } => mean,
            LossSpec::None => 0.0,
        }
    }
}

/// Decides, per transmission, whether a packet is lost.
pub trait LossModel {
    /// Draws the fate of the next transmission: `true` means lost.
    fn is_lost(&mut self, rng: &mut SimRng) -> bool;

    /// The long-run mean loss probability of this process.
    fn mean_loss_rate(&self) -> f64;
}

/// Independent (i.i.d.) loss with fixed probability `p` — the process the
/// paper's analysis assumes.
#[derive(Clone, Copy, Debug)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// A Bernoulli loss process with per-packet loss probability `p` in `[0,1]`.
    pub fn new(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability {p} out of range"
        );
        Bernoulli { p }
    }
}

impl LossModel for Bernoulli {
    fn is_lost(&mut self, rng: &mut SimRng) -> bool {
        rng.chance(self.p)
    }
    fn mean_loss_rate(&self) -> f64 {
        self.p
    }
}

/// [`Bernoulli`] with prefetched draws: one refill computes 64 outcomes
/// (each still consuming one xoshiro draw, in stream order) so the
/// per-packet hot path is a shift and a mask instead of a float
/// multiply-compare.
///
/// The outcome sequence is **bit-for-bit identical** to [`Bernoulli`]'s
/// on the same stream: outcome `i` is decided by draw `i` either way
/// (see `SimRng::bernoulli_block`), and the integer threshold
/// reproduces `next_f64() < p` exactly (see
/// `SimRng::bernoulli_threshold`). Like [`SimRng::chance`], the
/// degenerate rates `p = 0` and `p = 1` consume no draws at all.
///
/// Requires a stream dedicated to this model's draws — see
/// [`LossSpec::build_batched`] for the sharing rules.
#[derive(Clone, Copy, Debug)]
pub struct BatchedBernoulli {
    p: f64,
    /// `ceil(p * 2^53)`; compared against the high 53 bits of each draw.
    threshold: u64,
    /// Prefetched outcomes, consumed from bit 0 upward.
    outcomes: u64,
    /// Outcomes left in `outcomes` before a refill.
    left: u32,
}

impl BatchedBernoulli {
    /// A batched Bernoulli loss process with loss probability `p` in `[0,1]`.
    pub fn new(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability {p} out of range"
        );
        let threshold = if p > 0.0 && p < 1.0 {
            SimRng::bernoulli_threshold(p)
        } else {
            0
        };
        BatchedBernoulli {
            p,
            threshold,
            outcomes: 0,
            left: 0,
        }
    }
}

impl LossModel for BatchedBernoulli {
    fn is_lost(&mut self, rng: &mut SimRng) -> bool {
        // The degenerate rates never draw — exactly `chance()`'s clamp.
        if self.p <= 0.0 {
            return false;
        }
        if self.p >= 1.0 {
            return true;
        }
        if self.left == 0 {
            self.outcomes = rng.bernoulli_block(self.threshold);
            self.left = 64;
        }
        let lost = self.outcomes & 1 != 0;
        self.outcomes >>= 1;
        self.left -= 1;
        lost
    }

    fn mean_loss_rate(&self) -> f64 {
        self.p
    }
}

/// The classic two-state Gilbert–Elliott burst-loss channel.
///
/// The channel alternates between a Good and a Bad state; each packet first
/// advances the state (with transition probabilities `p_gb`, `p_bg`), then
/// is lost with the state's loss rate. The stationary probability of Bad is
/// `π_B = p_gb / (p_gb + p_bg)`, giving mean loss
/// `π_G·loss_good + π_B·loss_bad`.
#[derive(Clone, Copy, Debug)]
pub struct GilbertElliott {
    p_gb: f64,
    p_bg: f64,
    loss_good: f64,
    loss_bad: f64,
    in_bad: bool,
}

impl GilbertElliott {
    /// Builds the channel from its four parameters; starts in Good.
    pub fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64) -> Self {
        for (name, v) in [
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name}={v} out of range");
        }
        assert!(
            p_gb + p_bg > 0.0,
            "degenerate chain: both transition probabilities zero"
        );
        GilbertElliott {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            in_bad: false,
        }
    }

    /// Constructs a bursty channel with a target mean loss rate and mean
    /// burst length (in packets), using a pure Gilbert model
    /// (`loss_good = 0`, `loss_bad = 1`). With mean burst length `L`,
    /// `p_bg = 1/L`; the mean loss rate pins `p_gb`.
    ///
    /// Panics when the pair is infeasible (`mean >= 1`, or the implied
    /// `p_gb` exceeds 1).
    pub fn bursty(mean_loss: f64, mean_burst_len: f64) -> Self {
        assert!((0.0..1.0).contains(&mean_loss), "mean loss {mean_loss}");
        assert!(mean_burst_len >= 1.0, "burst length {mean_burst_len}");
        let p_bg = 1.0 / mean_burst_len;
        // mean = pi_B = p_gb / (p_gb + p_bg)  =>  p_gb = mean*p_bg/(1-mean)
        let p_gb = mean_loss * p_bg / (1.0 - mean_loss);
        assert!(
            p_gb <= 1.0,
            "infeasible (mean_loss={mean_loss}, burst={mean_burst_len}) => p_gb={p_gb}"
        );
        GilbertElliott::new(p_gb, p_bg, 0.0, 1.0)
    }
}

impl LossModel for GilbertElliott {
    fn is_lost(&mut self, rng: &mut SimRng) -> bool {
        let flip = if self.in_bad {
            rng.chance(self.p_bg)
        } else {
            rng.chance(self.p_gb)
        };
        if flip {
            self.in_bad = !self.in_bad;
        }
        let p = if self.in_bad {
            self.loss_bad
        } else {
            self.loss_good
        };
        rng.chance(p)
    }

    fn mean_loss_rate(&self) -> f64 {
        let pi_b = self.p_gb / (self.p_gb + self.p_bg);
        (1.0 - pi_b) * self.loss_good + pi_b * self.loss_bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_rate(model: &mut dyn LossModel, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::new(seed);
        let lost = (0..n).filter(|_| model.is_lost(&mut rng)).count();
        lost as f64 / n as f64
    }

    #[test]
    fn bernoulli_mean_matches() {
        let mut m = Bernoulli::new(0.4);
        assert_eq!(m.mean_loss_rate(), 0.4);
        let r = empirical_rate(&mut m, 200_000, 1);
        assert!((r - 0.4).abs() < 0.01, "empirical {r}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SimRng::new(2);
        let mut z = Bernoulli::new(0.0);
        let mut o = Bernoulli::new(1.0);
        for _ in 0..100 {
            assert!(!z.is_lost(&mut rng));
            assert!(o.is_lost(&mut rng));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bernoulli_rejects_bad_p() {
        let _ = Bernoulli::new(1.5);
    }

    #[test]
    fn gilbert_elliott_mean_matches() {
        let mut m = GilbertElliott::bursty(0.2, 5.0);
        assert!((m.mean_loss_rate() - 0.2).abs() < 1e-12);
        let r = empirical_rate(&mut m, 400_000, 3);
        assert!((r - 0.2).abs() < 0.01, "empirical {r}");
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        // Compare run-length of losses against Bernoulli at equal mean:
        // the Markov channel must produce longer loss bursts on average.
        fn mean_burst(model: &mut dyn LossModel, n: usize) -> f64 {
            let mut rng = SimRng::new(7);
            let (mut bursts, mut losses, mut in_burst) = (0u64, 0u64, false);
            for _ in 0..n {
                if model.is_lost(&mut rng) {
                    losses += 1;
                    if !in_burst {
                        bursts += 1;
                        in_burst = true;
                    }
                } else {
                    in_burst = false;
                }
            }
            losses as f64 / bursts.max(1) as f64
        }
        let b = mean_burst(&mut Bernoulli::new(0.2), 200_000);
        let g = mean_burst(&mut GilbertElliott::bursty(0.2, 8.0), 200_000);
        assert!(g > 2.0 * b, "GE burst {g} vs Bernoulli {b}");
        assert!((g - 8.0).abs() < 1.0, "GE burst length {g} should be ~8");
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn bursty_rejects_infeasible() {
        let _ = GilbertElliott::bursty(0.9, 1.0);
    }

    #[test]
    fn loss_spec_builds_matching_models() {
        assert_eq!(LossSpec::Bernoulli(0.3).mean(), 0.3);
        assert_eq!(LossSpec::None.mean(), 0.0);
        let b = LossSpec::Bursty {
            mean: 0.2,
            burst_len: 4.0,
        };
        assert!((b.mean() - 0.2).abs() < 1e-12);
        let mut model = b.build();
        assert!((model.mean_loss_rate() - 0.2).abs() < 1e-12);
        let r = empirical_rate(model.as_mut(), 100_000, 1);
        assert!((r - 0.2).abs() < 0.02);
    }

    #[test]
    fn batched_bernoulli_is_draw_for_draw_identical() {
        // The whole point of the batched model: same seed, same p, same
        // outcome sequence as the unbatched model — across p values with
        // both exact and fractional 53-bit thresholds.
        for p in [0.001, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.9] {
            let mut plain = Bernoulli::new(p);
            let mut batched = BatchedBernoulli::new(p);
            let mut rng_a = SimRng::new(42);
            let mut rng_b = SimRng::new(42);
            for i in 0..1000 {
                assert_eq!(
                    plain.is_lost(&mut rng_a),
                    batched.is_lost(&mut rng_b),
                    "p={p} draw {i}"
                );
            }
        }
    }

    #[test]
    fn batched_bernoulli_extremes_consume_no_draws() {
        let mut z = BatchedBernoulli::new(0.0);
        let mut o = BatchedBernoulli::new(1.0);
        let mut rng = SimRng::new(5);
        for _ in 0..10 {
            assert!(!z.is_lost(&mut rng));
            assert!(o.is_lost(&mut rng));
        }
        let mut fresh = SimRng::new(5);
        assert_eq!(rng.next_u64(), fresh.next_u64(), "stream untouched");
    }

    #[test]
    fn build_batched_matches_build() {
        for spec in [
            LossSpec::Bernoulli(0.3),
            LossSpec::Bursty {
                mean: 0.2,
                burst_len: 4.0,
            },
            LossSpec::None,
        ] {
            let mut a = spec.build();
            let mut b = spec.build_batched();
            assert_eq!(a.mean_loss_rate(), b.mean_loss_rate());
            let mut rng_a = SimRng::new(17);
            let mut rng_b = SimRng::new(17);
            for _ in 0..500 {
                assert_eq!(a.is_lost(&mut rng_a), b.is_lost(&mut rng_b));
            }
        }
    }
}
