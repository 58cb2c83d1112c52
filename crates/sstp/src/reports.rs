//! RTCP-style receiver reports and loss estimation.
//!
//! §6.1: "SSTP uses measured packet loss rates using RTCP-style receiver
//! reports … to carefully control bandwidth allocation." Receivers count
//! data-channel packets against the highest sequence number seen (so
//! gaps reveal losses); the sender differences successive cumulative
//! reports to get per-interval loss and smooths with an EWMA — the same
//! scheme RTP/RTCP uses for its fraction-lost field.

use crate::wire::ReceiverReportPacket;

/// Receiver-side accounting of the data channel.
#[derive(Clone, Debug)]
pub(crate) struct ReceiverReporter {
    receiver_id: u32,
    highest_seq: Option<u64>,
    received: u64,
}

impl ReceiverReporter {
    /// A reporter for the given receiver id.
    pub fn new(receiver_id: u32) -> Self {
        ReceiverReporter {
            receiver_id,
            highest_seq: None,
            received: 0,
        }
    }

    /// Notes a received data-channel packet with sequence `seq`.
    pub(crate) fn on_data_channel_packet(&mut self, seq: u64) {
        self.received += 1;
        self.highest_seq = Some(self.highest_seq.map_or(seq, |h| h.max(seq)));
    }

    /// Builds the current cumulative report.
    pub(crate) fn make_report(&self) -> ReceiverReportPacket {
        ReceiverReportPacket {
            receiver_id: self.receiver_id,
            highest_seq: self.highest_seq.unwrap_or(0),
            received: self.received,
        }
    }
}

/// Sender-side loss estimation from cumulative receiver reports.
#[derive(Clone, Debug)]
pub(crate) struct LossEstimator {
    alpha: f64,
    ewma: Option<f64>,
    last_highest: u64,
    last_received: u64,
}

impl LossEstimator {
    /// An estimator smoothing interval losses with weight `alpha` for the
    /// newest observation (RTCP implementations typically use ~1/8–1/4).
    pub fn new(alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha) && alpha > 0.0,
            "bad alpha {alpha}"
        );
        LossEstimator {
            alpha,
            ewma: None,
            last_highest: 0,
            last_received: 0,
        }
    }

    /// Ingests a cumulative report; returns the interval loss it implied
    /// (`None` when the interval carried no packets).
    pub(crate) fn on_report(&mut self, report: &ReceiverReportPacket) -> Option<f64> {
        // Sequences start at 0, so `highest + 1` packets were expected.
        let expected_cum = report.highest_seq + 1;
        let expected = expected_cum.saturating_sub(self.last_highest);
        let received = report.received.saturating_sub(self.last_received);
        self.last_highest = expected_cum;
        self.last_received = report.received;
        if expected == 0 {
            return None;
        }
        let loss = 1.0 - (received as f64 / expected as f64).min(1.0);
        self.ewma = Some(match self.ewma {
            None => loss,
            Some(prev) => prev * (1.0 - self.alpha) + loss * self.alpha,
        });
        Some(loss)
    }

    /// The smoothed loss estimate (0 before any report).
    pub fn loss(&self) -> f64 {
        self.ewma.unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reporter_counts_and_tracks_highest() {
        let mut r = ReceiverReporter::new(3);
        for seq in [0u64, 1, 3, 2, 7] {
            r.on_data_channel_packet(seq);
        }
        let rep = r.make_report();
        assert_eq!(rep.receiver_id, 3);
        assert_eq!(rep.highest_seq, 7);
        assert_eq!(rep.received, 5);
    }

    #[test]
    fn empty_report_is_zeroed() {
        let rep = ReceiverReporter::new(1).make_report();
        assert_eq!(rep.highest_seq, 0);
        assert_eq!(rep.received, 0);
    }

    #[test]
    fn estimator_computes_interval_loss() {
        let mut est = LossEstimator::new(1.0); // no smoothing: direct
                                               // Interval 1: seqs 0..=9 sent, 8 received.
        let l1 = est
            .on_report(&ReceiverReportPacket {
                receiver_id: 0,
                highest_seq: 9,
                received: 8,
            })
            .unwrap();
        assert!((l1 - 0.2).abs() < 1e-12);
        assert!((est.loss() - 0.2).abs() < 1e-12);
        // Interval 2: 10 more sent (10..=19), all 10 received.
        let l2 = est
            .on_report(&ReceiverReportPacket {
                receiver_id: 0,
                highest_seq: 19,
                received: 18,
            })
            .unwrap();
        assert!((l2 - 0.0).abs() < 1e-12);
        assert!((est.loss() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn estimator_smooths() {
        let mut est = LossEstimator::new(0.5);
        est.on_report(&ReceiverReportPacket {
            receiver_id: 0,
            highest_seq: 99,
            received: 60, // 40% loss
        });
        est.on_report(&ReceiverReportPacket {
            receiver_id: 0,
            highest_seq: 199,
            received: 160, // next interval: 0% loss
        });
        // EWMA: 0.4 then 0.4*0.5 + 0*0.5 = 0.2.
        assert!((est.loss() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn quiet_interval_returns_none() {
        let mut est = LossEstimator::new(0.25);
        est.on_report(&ReceiverReportPacket {
            receiver_id: 0,
            highest_seq: 9,
            received: 10,
        });
        let before = est.loss();
        // Duplicate report: no packets in the interval.
        let r = est.on_report(&ReceiverReportPacket {
            receiver_id: 0,
            highest_seq: 9,
            received: 10,
        });
        assert_eq!(r, None);
        assert_eq!(est.loss(), before);
    }

    #[test]
    fn loss_clamped_nonnegative() {
        // Receiver counting more packets than sequences (duplicates) must
        // not produce negative loss.
        let mut est = LossEstimator::new(1.0);
        let l = est
            .on_report(&ReceiverReportPacket {
                receiver_id: 0,
                highest_seq: 4,
                received: 10,
            })
            .unwrap();
        assert_eq!(l, 0.0);
    }

    #[test]
    fn end_to_end_with_simulated_gap_pattern() {
        // Feed the estimator from a reporter that misses every 4th packet.
        let mut rep = ReceiverReporter::new(0);
        let mut est = LossEstimator::new(1.0);
        for seq in 0..1000u64 {
            if seq % 4 != 3 {
                rep.on_data_channel_packet(seq);
            }
        }
        // The final (lost) packet leaves highest at 998.
        let loss = est.on_report(&rep.make_report()).unwrap();
        assert!((loss - 0.25).abs() < 0.01, "loss {loss}");
    }
}
