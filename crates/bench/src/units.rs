//! Unit conversions tying the paper's kbps figure captions to the
//! packet-rate simulations.
//!
//! The paper states workloads in kilobits per second (λ = 15 kbps,
//! μ_data = 45 kbps, ...). The protocol simulations operate on packet
//! rates; with the standard 1000-byte ADU the conversion is
//! `pkt/s = kbps / 8`.

/// ADU payload size used throughout the experiments, in bytes.
pub(crate) const ADU_BYTES: u32 = 1000;

/// Converts a paper bandwidth in kbps to announcements per second.
pub fn pkts(kbps: f64) -> f64 {
    kbps * 1000.0 / (f64::from(ADU_BYTES) * 8.0)
}

/// Converts announcements per second back to kbps.
pub fn kbps(pkts: f64) -> f64 {
    pkts * f64::from(ADU_BYTES) * 8.0 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_convert() {
        assert!((pkts(45.0) - 5.625).abs() < 1e-12);
        assert!((pkts(15.0) - 1.875).abs() < 1e-12);
        assert!((pkts(128.0) - 16.0).abs() < 1e-12);
        assert!((pkts(20.0) - 2.5).abs() < 1e-12);
        assert!((kbps(pkts(38.0)) - 38.0).abs() < 1e-12);
    }
}
