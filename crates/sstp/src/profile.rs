//! Consistency profiles — §6.1's "empirically derived consistency
//! profiles" that "predict system consistency for given network loss
//! conditions and announcement characteristics".
//!
//! A [`ConsistencyProfile`] maps `(loss rate, feedback share)` to a
//! predicted average consistency. Two sources are supported:
//!
//! * [`ConsistencyProfile::analytic`] — a first-order model assembled
//!   from the paper's closed forms: the open-loop Jackson consistency as
//!   the no-feedback base, a NACK-coverage term for how much of the loss
//!   the feedback budget can repair, and a collapse term when the data
//!   budget can no longer absorb the arrival rate (the Figure 8/9 shape).
//! * [`ConsistencyProfile::empirical`] — an interpolation grid filled
//!   from simulation measurements (what a deployment would store; the
//!   experiment harness generates these from the `softstate` protocol
//!   simulations).
//!
//! A `LatencyProfile` provides the matching `T_rec` prediction used to
//! pick the hot/cold split, anchored on the M/M/1 sojourn time
//! `1/(μ_hot − λ)` exactly as the paper anchors Figure 6.

use ss_queueing::{Mm1, OpenLoop};

/// Predicts average consistency from loss rate and feedback share.
#[derive(Clone, Debug)]
pub enum ConsistencyProfile {
    /// Closed-form first-order model.
    Analytic {
        /// Record arrival rate, packets/s.
        lambda: f64,
        /// Total session bandwidth, packets/s (data + feedback).
        mu_total: f64,
        /// Per-transmission death probability of the workload.
        p_death: f64,
        /// Fraction of the data budget given to the hot queue.
        hot_share: f64,
    },
    /// A measured grid, bilinearly interpolated.
    Empirical {
        /// Sorted distinct loss-rate grid values.
        losses: Vec<f64>,
        /// Sorted distinct feedback-share grid values.
        fb_shares: Vec<f64>,
        /// Row-major `consistency[loss_idx][fb_idx]`.
        grid: Vec<Vec<f64>>,
    },
}

impl ConsistencyProfile {
    /// Builds the analytic profile for a workload (rates in packets/s).
    pub fn analytic(lambda: f64, mu_total: f64, p_death: f64, hot_share: f64) -> Self {
        assert!(lambda > 0.0 && mu_total > 0.0, "rates must be positive");
        assert!(
            (0.0..=1.0).contains(&hot_share),
            "bad hot share {hot_share}"
        );
        ConsistencyProfile::Analytic {
            lambda,
            mu_total,
            p_death,
            hot_share,
        }
    }

    /// Builds an empirical profile from a measurement grid. Panics if the
    /// grid dimensions do not match or axes are not strictly increasing.
    pub fn empirical(losses: Vec<f64>, fb_shares: Vec<f64>, grid: Vec<Vec<f64>>) -> Self {
        assert!(!losses.is_empty() && !fb_shares.is_empty(), "empty grid");
        assert!(losses.windows(2).all(|w| w[0] < w[1]), "losses not sorted");
        assert!(
            fb_shares.windows(2).all(|w| w[0] < w[1]),
            "fb_shares not sorted"
        );
        assert_eq!(grid.len(), losses.len(), "grid rows");
        assert!(grid.iter().all(|r| r.len() == fb_shares.len()), "grid cols");
        ConsistencyProfile::Empirical {
            losses,
            fb_shares,
            grid,
        }
    }

    /// Predicted average consistency at the given loss rate and feedback
    /// share of the total session bandwidth, in `[0, 1]`.
    pub fn predict(&self, loss: f64, fb_share: f64) -> f64 {
        let loss = loss.clamp(0.0, 1.0);
        let fb_share = fb_share.clamp(0.0, 1.0);
        match self {
            ConsistencyProfile::Analytic {
                lambda,
                mu_total,
                p_death,
                hot_share,
            } => analytic_predict(*lambda, *mu_total, *p_death, *hot_share, loss, fb_share),
            ConsistencyProfile::Empirical {
                losses,
                fb_shares,
                grid,
            } => bilinear(losses, fb_shares, grid, loss, fb_share),
        }
    }

    /// The feedback share in `[0, cap]` maximizing predicted consistency
    /// at this loss rate (grid search at 1% resolution — the profile is
    /// cheap and the knee is broad).
    pub fn best_fb_share(&self, loss: f64, cap: f64) -> f64 {
        let cap = cap.clamp(0.0, 0.99);
        let mut best = (0.0, self.predict(loss, 0.0));
        let steps = (cap * 100.0).round() as usize;
        for i in 1..=steps {
            let share = i as f64 / 100.0;
            let c = self.predict(loss, share);
            if c > best.1 + 1e-9 {
                best = (share, c);
            }
        }
        best.0
    }
}

/// The first-order analytic prediction. See module docs.
fn analytic_predict(
    lambda: f64,
    mu_total: f64,
    p_death: f64,
    hot_share: f64,
    loss: f64,
    fb_share: f64,
) -> f64 {
    let mu_data = mu_total * (1.0 - fb_share);
    let mu_fb = mu_total * fb_share;
    if mu_data <= 0.0 {
        return 0.0;
    }
    let p_death = p_death.clamp(1e-6, 1.0);

    // Death-limited ceiling: even a lossless channel cannot do better
    // than the §3 consistent fraction at zero loss, because a fraction
    // p_d of records die at their first announcement.
    let ceiling = OpenLoop::new(lambda.min(mu_data * p_death * 0.999), mu_data, 0.0, p_death)
        .consistency_busy();

    // Feedback coverage: the fraction of loss events a NACK can repair
    // promptly. Loss events arise at ~loss × data rate; each NACK itself
    // survives the reverse channel with probability 1−loss.
    let loss_event_rate = loss * mu_data.min(lambda / p_death.max(1e-6));
    let coverage = if loss_event_rate <= 0.0 {
        1.0
    } else {
        (mu_fb * (1.0 - loss) / loss_event_rate).min(1.0)
    };

    // Repair-latency penalty: a lost record stays inconsistent until the
    // slow background cycle re-announces it; prompt NACK repair shrinks
    // that window. The 0.5 factor calibrates the no-feedback penalty to
    // the open-loop simulations (EXPERIMENTS.md, validate-analysis); this
    // is a first-order engineering profile, not a closed form.
    let penalty = loss * ceiling * 0.5 * (1.0 - coverage * (1.0 - loss));

    // Collapse: if the hot budget cannot absorb new arrivals, consistency
    // degrades (Figure 8's cliff). The degradation is smoothed over a
    // saturation margin — an M/M/1 hot queue near ρ = 1 already spends
    // long stretches backlogged, so the penalty starts before the strict
    // μ_hot = λ boundary (full credit only from μ_hot ≥ 1.5 λ).
    let mu_hot = mu_data * hot_share;
    let absorb = if lambda <= 0.0 {
        1.0
    } else {
        ((mu_hot / lambda - 1.0) / 0.5).clamp(0.0, 1.0)
    };
    (absorb * (ceiling - penalty)).clamp(0.0, 1.0)
}

/// Bilinear interpolation with clamped extrapolation.
fn bilinear(xs: &[f64], ys: &[f64], grid: &[Vec<f64>], x: f64, y: f64) -> f64 {
    let (i0, i1, tx) = bracket(xs, x);
    let (j0, j1, ty) = bracket(ys, y);
    let g = |i: usize, j: usize| grid[i][j];
    let a = g(i0, j0) * (1.0 - ty) + g(i0, j1) * ty;
    let b = g(i1, j0) * (1.0 - ty) + g(i1, j1) * ty;
    a * (1.0 - tx) + b * tx
}

/// Finds the bracketing indices and interpolation parameter for `x`.
fn bracket(xs: &[f64], x: f64) -> (usize, usize, f64) {
    if x <= xs[0] {
        return (0, 0, 0.0);
    }
    if x >= xs[xs.len() - 1] {
        let last = xs.len() - 1;
        return (last, last, 0.0);
    }
    let hi = xs.partition_point(|&v| v < x);
    let lo = hi - 1;
    let t = (x - xs[lo]) / (xs[hi] - xs[lo]);
    (lo, hi, t)
}

/// Predicts receive latency from the hot/cold split — the `T_rec` profile
/// §6.1 consults ("the share of bandwidth for the different transmission
/// queues is obtained from the T_rec profile").
#[derive(Clone, Copy, Debug)]
pub(crate) struct LatencyProfile {
    /// Record arrival rate, packets/s.
    pub lambda: f64,
    /// Data budget, packets/s.
    pub mu_data: f64,
    /// Channel loss rate.
    pub loss: f64,
}

impl LatencyProfile {
    /// Expected receive latency (seconds) when `hot_share` of the data
    /// budget goes to the hot queue: the M/M/1 sojourn of the first
    /// transmission, plus the expected wait for a repair when that
    /// transmission is lost (one cold-cycle period per retry).
    ///
    /// Returns `f64::INFINITY` when the hot queue is unstable
    /// (`μ_hot ≤ λ`) or repairs can never happen (`μ_cold = 0` with
    /// loss > 0 contributes an unbounded tail, surfaced as infinity).
    pub fn predict(&self, hot_share: f64) -> f64 {
        let hot_share = hot_share.clamp(0.0, 1.0);
        let mu_hot = self.mu_data * hot_share;
        let mu_cold = self.mu_data * (1.0 - hot_share);
        if mu_hot <= self.lambda {
            return f64::INFINITY;
        }
        let first = Mm1::new(self.lambda, mu_hot).mean_sojourn();
        if self.loss == 0.0 {
            return first;
        }
        if mu_cold <= 0.0 {
            return f64::INFINITY;
        }
        // A lost first shot waits for cold retransmissions; the expected
        // number of further attempts is loss/(1−loss), each costing one
        // cold service time.
        let retries = self.loss / (1.0 - self.loss).max(1e-9);
        first + retries / mu_cold
    }

    /// The hot share minimizing predicted latency, searched at 1%
    /// resolution.
    pub(crate) fn best_hot_share(&self) -> f64 {
        let mut best = (0.5, f64::INFINITY);
        for i in 1..100 {
            let share = i as f64 / 100.0;
            let t = self.predict(share);
            if t < best.1 {
                best = (share, t);
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_profile() -> ConsistencyProfile {
        // λ = 1.875 pkt/s (15 kbps), μ_total = 5.625 pkt/s (45 kbps).
        ConsistencyProfile::analytic(1.875, 5.625, 0.1, 0.67)
    }

    #[test]
    fn analytic_monotone_in_loss_at_zero_fb() {
        let p = paper_profile();
        let mut last = 1.1;
        for i in 0..=9 {
            let c = p.predict(i as f64 / 10.0, 0.0);
            assert!(c <= last + 1e-9, "loss {} gives {c} > {last}", i);
            last = c;
        }
    }

    #[test]
    fn analytic_feedback_helps_then_collapses() {
        let p = paper_profile();
        let at = |s: f64| p.predict(0.4, s);
        assert!(
            at(0.25) > at(0.0) + 0.05,
            "moderate fb must help at 40% loss"
        );
        assert!(at(0.9) < at(0.25) - 0.2, "fb starving data must collapse");
    }

    #[test]
    fn best_fb_share_lands_in_the_paper_band() {
        // Figure 8: at 40% loss the good region is fb/total ∈ [20%, 50%].
        let p = paper_profile();
        let s = p.best_fb_share(0.4, 0.99);
        assert!((0.05..=0.55).contains(&s), "best share {s}");
        // With no loss, feedback buys nothing.
        assert_eq!(p.best_fb_share(0.0, 0.99), 0.0);
    }

    #[test]
    fn best_fb_share_respects_cap() {
        let p = paper_profile();
        let s = p.best_fb_share(0.5, 0.10);
        assert!(s <= 0.10 + 1e-9);
    }

    #[test]
    fn empirical_interpolates_and_clamps() {
        let p = ConsistencyProfile::empirical(
            vec![0.0, 0.5],
            vec![0.0, 1.0],
            vec![vec![1.0, 0.8], vec![0.5, 0.7]],
        );
        assert!((p.predict(0.0, 0.0) - 1.0).abs() < 1e-12);
        assert!((p.predict(0.5, 1.0) - 0.7).abs() < 1e-12);
        // Center: mean of all four corners.
        assert!((p.predict(0.25, 0.5) - 0.75).abs() < 1e-12);
        // Clamped extrapolation.
        assert!((p.predict(0.9, 2.0) - 0.7).abs() < 1e-12);
        assert!((p.predict(-1.0, -1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn empirical_rejects_unsorted() {
        let _ =
            ConsistencyProfile::empirical(vec![0.5, 0.0], vec![0.0], vec![vec![1.0], vec![1.0]]);
    }

    #[test]
    fn latency_profile_matches_mm1_at_zero_loss() {
        // Paper's Figure 6 anchor: λ = 1.875, μ = 5.625 -> 267 ms.
        let lp = LatencyProfile {
            lambda: 1.875,
            mu_data: 5.625,
            loss: 0.0,
        };
        let t = lp.predict(1.0);
        assert!((t - 0.2667).abs() < 0.001, "t = {t}");
    }

    #[test]
    fn latency_unstable_hot_is_infinite() {
        let lp = LatencyProfile {
            lambda: 2.0,
            mu_data: 5.0,
            loss: 0.1,
        };
        assert!(lp.predict(0.3).is_infinite(), "mu_hot = 1.5 < lambda");
        assert!(lp.predict(0.9).is_finite());
    }

    #[test]
    fn best_hot_share_balances_first_shot_and_repair() {
        let lp = LatencyProfile {
            lambda: 1.875,
            mu_data: 5.625,
            loss: 0.3,
        };
        let s = lp.best_hot_share();
        // Must keep the hot queue stable but leave room for cold repair.
        assert!(s > 1.875 / 5.625, "share {s} must exceed λ/μ");
        assert!(s < 0.99, "share {s} must leave cold bandwidth");
        assert!(lp.predict(s).is_finite());
    }
}
