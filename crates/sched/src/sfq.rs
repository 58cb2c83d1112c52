//! Start-time fair queueing — the weighted-fair-queueing family member
//! we use for the paper's WFQ citation (Demers/Keshav/Shenker, SIGCOMM
//! '89; SFQ formulation by Goyal et al.).
//!
//! Classic WFQ computes finish tags from packet lengths *before*
//! transmission; SFQ instead serves the backlogged class with the minimum
//! *start* tag and needs the length only afterwards, which matches this
//! crate's slot-and-charge interface exactly. Service error is within one
//! maximum packet of ideal weighted fairness, like WFQ.

use crate::{ClassId, ClassTable, Scheduler};
use ss_netsim::SimRng;

/// Fixed-point scale for virtual time so integer tags stay precise.
const VSCALE: u128 = 1 << 32;

/// A start-time fair queueing scheduler.
#[derive(Clone, Debug, Default)]
pub struct Sfq {
    table: ClassTable,
    /// Per-class start tag for its next packet.
    start: Vec<u128>,
    /// Virtual time: start tag of the packet most recently put in service.
    vtime: u128,
}

impl Sfq {
    /// An empty SFQ scheduler.
    pub fn new() -> Self {
        Sfq::default()
    }

    fn ensure(&mut self, class: ClassId) {
        self.table.ensure(class);
        if class >= self.start.len() {
            self.start.resize(class + 1, 0);
        }
    }
}

impl Scheduler for Sfq {
    fn set_weight(&mut self, class: ClassId, weight: u64) {
        self.ensure(class);
        self.table.set_weight(class, weight);
    }

    fn weight(&self, class: ClassId) -> u64 {
        self.table.weight(class)
    }

    fn set_backlogged(&mut self, class: ClassId, backlogged: bool) {
        self.ensure(class);
        let was = self.table.is_backlogged(class);
        self.table.set_backlogged(class, backlogged);
        if backlogged && !was {
            // SFQ rule: a newly backlogged class starts at v(t).
            self.start[class] = self.start[class].max(self.vtime);
        }
    }

    fn is_backlogged(&self, class: ClassId) -> bool {
        self.table.is_backlogged(class)
    }

    fn pick(&mut self, _rng: &mut SimRng) -> Option<ClassId> {
        let best = self.table.eligible().min_by_key(|&c| (self.start[c], c))?;
        self.vtime = self.start[best];
        Some(best)
    }

    fn charge(&mut self, class: ClassId, cost: u64) {
        self.ensure(class);
        let w = self.table.weight(class) as u128;
        if w == 0 {
            return;
        }
        // Finish tag of the served packet becomes the next start tag.
        self.start[class] += cost as u128 * VSCALE / w;
    }

    fn name(&self) -> &'static str {
        "sfq"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_proportional, service_counts};

    #[test]
    fn shares_track_weights() {
        let weights = [1, 2, 3, 4];
        let counts = service_counts(&mut Sfq::new(), &weights, 100_000, 0);
        assert_proportional(&counts, &weights, 0.001);
    }

    #[test]
    fn no_back_credit_after_idle() {
        let mut s = Sfq::new();
        let mut rng = SimRng::new(0);
        s.set_weight(0, 1);
        s.set_weight(1, 1);
        s.set_backlogged(0, true);
        for _ in 0..500 {
            assert_eq!(s.pick(&mut rng), Some(0));
            s.charge(0, 1);
        }
        s.set_backlogged(1, true);
        let mut got1 = 0;
        for _ in 0..100 {
            let c = s.pick(&mut rng).unwrap();
            s.charge(c, 1);
            if c == 1 {
                got1 += 1;
            }
        }
        assert!((40..=60).contains(&got1), "woken class took {got1}/100");
    }

    #[test]
    fn respects_byte_costs() {
        let mut s = Sfq::new();
        let mut rng = SimRng::new(0);
        s.set_weight(0, 1);
        s.set_weight(1, 1);
        s.set_backlogged(0, true);
        s.set_backlogged(1, true);
        let mut bytes = [0u64; 2];
        for _ in 0..9000 {
            let c = s.pick(&mut rng).unwrap();
            let cost = if c == 0 { 1500 } else { 64 };
            bytes[c] += cost;
            s.charge(c, cost);
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((ratio - 1.0).abs() < 0.05, "byte ratio {ratio}");
    }

    /// Byte shares of two always-backlogged classes sending `lens`-byte
    /// packets under `weights`.
    fn byte_shares(weights: [u64; 2], lens: [u64; 2]) -> [f64; 2] {
        let mut s = Sfq::new();
        let mut rng = SimRng::new(0);
        for (c, &w) in weights.iter().enumerate() {
            s.set_weight(c, w);
            s.set_backlogged(c, true);
        }
        let mut bytes = [0u64; 2];
        while bytes.iter().sum::<u64>() < 2_000_000 {
            let c = s.pick(&mut rng).unwrap();
            bytes[c] += lens[c];
            s.charge(c, lens[c]);
        }
        let total = (bytes[0] + bytes[1]) as f64;
        [bytes[0] as f64 / total, bytes[1] as f64 / total]
    }

    #[test]
    fn weighted_byte_shares() {
        let shares = byte_shares([3, 1], [500, 500]);
        assert!((shares[0] - 0.75).abs() < 0.02, "{shares:?}");
        let shares = byte_shares([1, 4], [1200, 300]);
        assert!((shares[1] - 0.8).abs() < 0.02, "{shares:?}");
    }

    #[test]
    fn work_conserving_and_disable() {
        let mut s = Sfq::new();
        let mut rng = SimRng::new(0);
        assert_eq!(s.pick(&mut rng), None);
        s.set_weight(0, 2);
        s.set_backlogged(0, true);
        assert_eq!(s.pick(&mut rng), Some(0));
        s.set_weight(0, 0);
        assert_eq!(s.pick(&mut rng), None, "zero weight disables");
    }
}
