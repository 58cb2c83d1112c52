//! Deficit round robin (Shreedhar & Varghese) — an O(1) proportional-share
//! alternative to the virtual-time schedulers, included for the scheduler
//! ablation experiment.
//!
//! Classes sit in a round-robin ring; each visit adds `quantum × weight`
//! to the class's deficit counter, and the class transmits while its
//! deficit covers the next packet's cost. With the slot-and-charge
//! interface the cost arrives after the pick, so a pick is allowed when
//! the deficit is positive and may momentarily overdraw by at most one
//! packet — the classic DRR bound.

use crate::{ClassId, ClassTable, Scheduler};
use ss_netsim::SimRng;

/// A deficit-round-robin scheduler.
#[derive(Clone, Debug)]
pub struct Drr {
    table: ClassTable,
    deficit: Vec<i128>,
    /// Ring cursor: index of the class currently holding the token.
    cursor: usize,
    /// Deficit granted per unit weight per round.
    quantum: u64,
}

impl Default for Drr {
    fn default() -> Self {
        Drr::new(1)
    }
}

impl Drr {
    /// A DRR scheduler granting `quantum` cost units per unit weight per
    /// round. Use the typical packet cost (e.g. the MTU when charging
    /// bytes, or 1 when charging packets).
    pub fn new(quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        Drr {
            table: ClassTable::default(),
            deficit: Vec::new(),
            cursor: 0,
            quantum,
        }
    }

    fn ensure(&mut self, class: ClassId) {
        self.table.ensure(class);
        if class >= self.deficit.len() {
            self.deficit.resize(class + 1, 0);
        }
    }
}

impl Scheduler for Drr {
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
        if !backlogged && was {
            // An emptied class forfeits its remaining deficit (standard DRR).
            self.deficit[class] = 0;
        }
    }

    fn is_backlogged(&self, class: ClassId) -> bool {
        self.table.is_backlogged(class)
    }

    fn pick(&mut self, _rng: &mut SimRng) -> Option<ClassId> {
        let n = self.table.len();
        if n == 0 || self.table.eligible().next().is_none() {
            return None;
        }
        // Walk the ring; each full pass tops up deficits, so termination is
        // guaranteed once some eligible class accumulates a positive deficit.
        loop {
            for _ in 0..n {
                let c = self.cursor;
                self.cursor = (self.cursor + 1) % n;
                if self.table.is_backlogged(c) && self.table.weight(c) > 0 {
                    if self.deficit[c] > 0 {
                        // Keep the token on this class so it can continue
                        // next pick while its deficit lasts.
                        self.cursor = c;
                        return Some(c);
                    }
                    self.deficit[c] += (self.quantum as i128) * (self.table.weight(c) as i128);
                    if self.deficit[c] > 0 {
                        self.cursor = c;
                        return Some(c);
                    }
                }
            }
        }
    }

    fn charge(&mut self, class: ClassId, cost: u64) {
        self.ensure(class);
        self.deficit[class] -= cost as i128;
        if self.deficit[class] <= 0 {
            // Spent: pass the token onward.
            let n = self.table.len();
            if self.cursor == class && n > 0 {
                self.cursor = (class + 1) % n;
            }
        }
    }

    fn name(&self) -> &'static str {
        "drr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_proportional, service_counts};

    #[test]
    fn shares_track_weights() {
        let weights = [1, 2, 3];
        let counts = service_counts(&mut Drr::new(1), &weights, 60_000, 0);
        assert_proportional(&counts, &weights, 0.005);
    }

    #[test]
    fn byte_mode_with_mtu_quantum() {
        // Charge in bytes with a 1500-byte quantum, unequal packet sizes.
        let mut s = Drr::new(1500);
        let mut rng = SimRng::new(0);
        s.set_weight(0, 1);
        s.set_weight(1, 1);
        s.set_backlogged(0, true);
        s.set_backlogged(1, true);
        let mut bytes = [0u64; 2];
        for _ in 0..20_000 {
            let c = s.pick(&mut rng).unwrap();
            let cost = if c == 0 { 1500 } else { 300 };
            bytes[c] += cost;
            s.charge(c, cost);
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((ratio - 1.0).abs() < 0.01, "byte ratio {ratio}");
    }

    #[test]
    fn weighted_byte_shares() {
        // Weights 1:4 with 1200- vs 300-byte packets: class 1 gets 80% of
        // the bytes despite its packets being a quarter the size.
        let mut s = Drr::new(1500);
        let mut rng = SimRng::new(0);
        s.set_weight(0, 1);
        s.set_weight(1, 4);
        s.set_backlogged(0, true);
        s.set_backlogged(1, true);
        let mut bytes = [0u64; 2];
        while bytes.iter().sum::<u64>() < 2_000_000 {
            let c = s.pick(&mut rng).unwrap();
            let cost = if c == 0 { 1200 } else { 300 };
            bytes[c] += cost;
            s.charge(c, cost);
        }
        let share = bytes[1] as f64 / (bytes[0] + bytes[1]) as f64;
        assert!((share - 0.8).abs() < 0.02, "byte share {share}");
    }

    #[test]
    fn idle_class_forfeits_deficit() {
        let mut s = Drr::new(1);
        let mut rng = SimRng::new(0);
        s.set_weight(0, 100);
        s.set_weight(1, 1);
        s.set_backlogged(0, true);
        s.set_backlogged(1, true);
        // Serve a bit, then idle class 0; its banked deficit must vanish.
        for _ in 0..50 {
            let c = s.pick(&mut rng).unwrap();
            s.charge(c, 1);
        }
        s.set_backlogged(0, false);
        for _ in 0..10 {
            assert_eq!(s.pick(&mut rng), Some(1));
            s.charge(1, 1);
        }
        s.set_backlogged(0, true);
        // After waking, class 0 gets its weight share again but no burst of
        // banked credit beyond one quantum round.
        let mut first_ten = Vec::new();
        for _ in 0..10 {
            let c = s.pick(&mut rng).unwrap();
            s.charge(c, 1);
            first_ten.push(c);
        }
        assert!(first_ten.contains(&0));
    }

    #[test]
    fn none_when_idle() {
        let mut s = Drr::new(1);
        let mut rng = SimRng::new(0);
        assert_eq!(s.pick(&mut rng), None);
        s.set_weight(0, 1);
        assert_eq!(s.pick(&mut rng), None);
    }

    #[test]
    fn zero_weight_disables() {
        let mut s = Drr::new(1);
        let mut rng = SimRng::new(0);
        s.set_weight(0, 2);
        s.set_weight(1, 1);
        s.set_backlogged(0, true);
        s.set_backlogged(1, true);
        s.set_weight(0, 0);
        for _ in 0..10 {
            assert_eq!(s.pick(&mut rng), Some(1));
            s.charge(1, 1);
        }
        s.set_weight(1, 0);
        assert_eq!(s.pick(&mut rng), None, "no eligible class left");
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_rejected() {
        Drr::new(0);
    }
}
