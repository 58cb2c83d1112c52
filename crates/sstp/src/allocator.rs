//! The profile-driven bandwidth allocator of §6.1 (Figure 12).
//!
//! Inputs: the total session bandwidth (from outside — "SSTP does not
//! attempt to perform congestion control … but rather relies on a
//! congestion management module"), the measured loss rate (from receiver
//! reports), and the application's arrival rate and consistency target.
//! Outputs: the `{μ_data, μ_feedback}` split, the `{μ_hot, μ_cold}`
//! sub-split, a consistency prediction, and — when the arrival rate
//! exceeds what the hot budget can absorb — a back-pressure notification
//! ("this dictates the maximum rate at which the application can send to
//! maintain the requested level of consistency").

use crate::profile::{ConsistencyProfile, LatencyProfile};
use crate::reliability::ReliabilityParams;
use ss_netsim::Bandwidth;

/// Static configuration of the allocator.
#[derive(Clone, Debug)]
pub struct AllocatorConfig {
    /// ADU payload size in bytes (data packet cost).
    pub adu_bytes: usize,
    /// Feedback packet size in bytes (NACK/query/report cost).
    pub feedback_bytes: usize,
    /// The application's consistency target in `[0, 1]`.
    pub consistency_target: f64,
    /// Hot-queue headroom factor: `μ_hot ≥ headroom × λ` (the Figure 5/10
    /// knee says `μ_hot ≥ λ` is necessary; headroom keeps a margin).
    pub hot_headroom: f64,
    /// The reliability knobs (feedback cap, summaries on/off).
    pub reliability: ReliabilityParams,
}

impl Default for AllocatorConfig {
    fn default() -> Self {
        AllocatorConfig {
            adu_bytes: 1000,
            feedback_bytes: 64,
            consistency_target: 0.9,
            hot_headroom: 1.2,
            reliability: crate::reliability::ReliabilityLevel::Quasi { max_fb_share: 0.5 }.into(),
        }
    }
}

/// One allocation decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Allocation {
    /// Data budget (hot + cold).
    pub data: Bandwidth,
    /// Feedback budget.
    pub feedback: Bandwidth,
    /// Foreground (new data + NACK repair) budget.
    pub hot: Bandwidth,
    /// Background (summary announcement) budget.
    pub cold: Bandwidth,
    /// Predicted average consistency at this allocation.
    pub predicted_consistency: f64,
    /// Set when the application's arrival rate exceeds what the hot
    /// budget can absorb — the SSTP back-pressure notification.
    pub rate_warning: bool,
    /// The maximum sustainable application arrival rate (records/s)
    /// under this allocation.
    pub max_sustainable_rate: f64,
}

/// The profile-driven allocator.
#[derive(Clone, Debug)]
pub struct Allocator {
    cfg: AllocatorConfig,
}

impl Allocator {
    /// Builds an allocator. Panics on invalid reliability parameters.
    pub fn new(cfg: AllocatorConfig) -> Self {
        if let Err(e) = cfg.reliability.validate() {
            panic!("invalid reliability params: {e}");
        }
        assert!(
            (0.0..=1.0).contains(&cfg.consistency_target),
            "bad target {}",
            cfg.consistency_target
        );
        assert!(cfg.hot_headroom >= 1.0, "headroom below 1 starves hot");
        Allocator { cfg }
    }

    /// Computes the allocation for the current conditions.
    ///
    /// * `total` — session bandwidth from the congestion manager.
    /// * `measured_loss` — smoothed loss from receiver reports.
    /// * `lambda_records` — the application's recent arrival rate,
    ///   records/s.
    pub fn allocate(
        &self,
        total: Bandwidth,
        measured_loss: f64,
        lambda_records: f64,
    ) -> Allocation {
        let loss = measured_loss.clamp(0.0, 1.0);
        let adu_bits = (self.cfg.adu_bytes * 8) as f64;
        let total_pkts = total.as_bps() as f64 / adu_bits;

        // 1. Feedback share from the consistency profile, bounded by the
        //    reliability level's cap. Feedback packets are cheaper than
        //    ADUs, so the share found in packet units is scaled by the
        //    byte ratio when converting to bandwidth.
        let fb_share = if self.cfg.reliability.feedback && total_pkts > 0.0 {
            let profile =
                ConsistencyProfile::analytic(lambda_records.max(1e-3), total_pkts, 0.1, 0.67);
            profile.best_fb_share(loss, self.cfg.reliability.max_fb_share)
        } else {
            0.0
        };
        // The feedback budget has two components:
        //  * a *repair-descent floor*, paced by the repair backoff rather
        //    than by data volume — digest descent needs a handful of
        //    control packets (queries plus responses' NACKs) per backoff
        //    interval per diverged subtree, regardless of ADU size;
        //  * a *loss-driven NACK term* from the consistency profile,
        //    scaled by the NACK/ADU byte ratio.
        // Both together, capped by the reliability level's share.
        let byte_ratio = self.cfg.feedback_bytes as f64 / self.cfg.adu_bytes as f64;
        let nack_term = total.mul_f64(fb_share * byte_ratio.min(1.0));
        let feedback = if self.cfg.reliability.feedback {
            let backoff_secs = self.cfg.reliability.repair_backoff.as_secs_f64().max(0.05);
            let pkt_bits = ((self.cfg.feedback_bytes + 28) * 8) as f64;
            let floor = (4.0 / backoff_secs * pkt_bits) as u64;
            let cap = total.mul_f64(self.cfg.reliability.max_fb_share);
            Bandwidth::from_bps((floor + nack_term.as_bps()).min(cap.as_bps()))
        } else {
            Bandwidth::ZERO
        };
        let data = total - feedback;

        // 2. Hot/cold split: give hot λ×headroom, leave the rest cold,
        //    but never drop cold below the latency-profile optimum when
        //    there is slack.
        let data_pkts = data.as_bps() as f64 / adu_bits;
        let want_hot_pkts = lambda_records * self.cfg.hot_headroom;
        let hot_share_needed = if data_pkts > 0.0 {
            (want_hot_pkts / data_pkts).min(1.0)
        } else {
            1.0
        };
        let hot_share = if self.cfg.reliability.summaries {
            // Keep at least 10% cold for summaries; prefer the latency
            // profile's split when it demands more hot than the floor.
            let lp = LatencyProfile {
                lambda: lambda_records.max(1e-3),
                mu_data: data_pkts.max(1e-3),
                loss,
            };
            hot_share_needed.max(lp.best_hot_share()).min(0.9)
        } else {
            hot_share_needed.max(0.5)
        };
        let hot = data.mul_f64(hot_share);
        let cold = data - hot;

        // 3. Back-pressure: can the hot budget absorb λ?
        let hot_pkts = hot.as_bps() as f64 / adu_bits;
        let max_sustainable_rate = hot_pkts / self.cfg.hot_headroom;
        let rate_warning = lambda_records > max_sustainable_rate + 1e-9;

        // 4. Predict the outcome for the application.
        let predicted = if total_pkts > 0.0 {
            ConsistencyProfile::analytic(lambda_records.max(1e-3), total_pkts, 0.1, hot_share)
                .predict(loss, fb_share)
        } else {
            0.0
        };

        Allocation {
            data,
            feedback,
            hot,
            cold,
            predicted_consistency: predicted,
            rate_warning,
            max_sustainable_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::ReliabilityLevel;

    fn alloc_with(level: ReliabilityLevel) -> Allocator {
        Allocator::new(AllocatorConfig {
            reliability: level.into(),
            ..AllocatorConfig::default()
        })
    }

    #[test]
    fn splits_sum_to_total() {
        let a = alloc_with(ReliabilityLevel::Quasi { max_fb_share: 0.5 });
        let total = Bandwidth::from_kbps(45);
        for loss in [0.0, 0.1, 0.4, 0.7] {
            let al = a.allocate(total, loss, 1.875);
            assert_eq!(al.data + al.feedback, total, "loss {loss}");
            assert_eq!(al.hot + al.cold, al.data, "loss {loss}");
        }
    }

    #[test]
    fn no_feedback_budget_without_feedback() {
        let a = alloc_with(ReliabilityLevel::AnnounceListen);
        let al = a.allocate(Bandwidth::from_kbps(45), 0.4, 1.875);
        assert_eq!(al.feedback, Bandwidth::ZERO);
        assert_eq!(al.data, Bandwidth::from_kbps(45));
    }

    #[test]
    fn feedback_budget_grows_with_loss() {
        let a = alloc_with(ReliabilityLevel::Quasi { max_fb_share: 0.5 });
        let total = Bandwidth::from_kbps(45);
        let lo = a.allocate(total, 0.02, 1.875);
        let hi = a.allocate(total, 0.40, 1.875);
        assert!(
            hi.feedback.as_bps() > lo.feedback.as_bps(),
            "fb at 40% loss {:?} must exceed fb at 2% {:?}",
            hi.feedback,
            lo.feedback
        );
    }

    #[test]
    fn rate_warning_when_lambda_exceeds_hot() {
        let a = alloc_with(ReliabilityLevel::Quasi { max_fb_share: 0.5 });
        // 45 kbps total, 1000-byte ADUs = 5.625 pkt/s ceiling.
        let ok = a.allocate(Bandwidth::from_kbps(45), 0.1, 1.875);
        assert!(!ok.rate_warning, "λ = 1.875 fits in 45 kbps");
        let over = a.allocate(Bandwidth::from_kbps(45), 0.1, 20.0);
        assert!(over.rate_warning, "λ = 20 pkt/s cannot fit");
        assert!(over.max_sustainable_rate < 20.0);
        assert!(ok.max_sustainable_rate >= 1.875);
    }

    #[test]
    fn hot_scales_with_lambda() {
        let a = alloc_with(ReliabilityLevel::Quasi { max_fb_share: 0.3 });
        let total = Bandwidth::from_kbps(100);
        let slow = a.allocate(total, 0.1, 1.0);
        let fast = a.allocate(total, 0.1, 8.0);
        assert!(fast.hot.as_bps() > slow.hot.as_bps());
        // Cold never fully starved while summaries are on.
        assert!(slow.cold.as_bps() > 0);
        assert!(fast.cold.as_bps() > 0);
    }

    #[test]
    fn prediction_degrades_with_loss() {
        let a = alloc_with(ReliabilityLevel::Quasi { max_fb_share: 0.5 });
        let total = Bandwidth::from_kbps(45);
        let c0 = a.allocate(total, 0.0, 1.875).predicted_consistency;
        let c5 = a.allocate(total, 0.5, 1.875).predicted_consistency;
        assert!(c0 > c5, "c(0%)={c0} must exceed c(50%)={c5}");
        assert!(c0 >= 0.85, "lossless prediction {c0}");
    }

    #[test]
    fn feedback_share_respects_reliability_cap() {
        let tight = alloc_with(ReliabilityLevel::Quasi { max_fb_share: 0.05 });
        let total = Bandwidth::from_kbps(45);
        let al = tight.allocate(total, 0.5, 1.875);
        let share = al.feedback.as_bps() as f64 / total.as_bps() as f64;
        assert!(share <= 0.05 + 1e-9, "share {share}");
    }

    #[test]
    #[should_panic(expected = "invalid reliability params")]
    fn rejects_bad_reliability() {
        let mut cfg = AllocatorConfig::default();
        cfg.reliability.summaries = false; // feedback without summaries
        let _ = Allocator::new(cfg);
    }
}
