//! Stride scheduling (Waldspurger & Weihl, MIT/LCS/TM-528) — the
//! deterministic counterpart to lottery scheduling, also cited in §4.
//!
//! Each class has a *stride* inversely proportional to its weight and a
//! *pass* value; the backlogged class with the smallest pass transmits and
//! its pass advances by `stride × cost`. Deterministic, with per-class
//! service error bounded by a constant (vs. `O(√n)` for lottery).

use crate::{ClassId, ClassTable, Scheduler};
use ss_netsim::SimRng;

/// Numerator for stride computation; large so integer strides stay precise
/// across weight ratios up to ~10^6.
const STRIDE1: u128 = 1 << 40;

/// A deterministic proportional-share scheduler.
#[derive(Clone, Debug, Default)]
pub struct Stride {
    table: ClassTable,
    /// Per-class pass value (virtual time of next service).
    pass: Vec<u128>,
    /// Global virtual time: pass values of newly backlogged classes start
    /// here so a waking class cannot claim ancient credit.
    global_pass: u128,
}

impl Stride {
    /// An empty stride scheduler.
    pub fn new() -> Self {
        Stride::default()
    }

    fn ensure(&mut self, class: ClassId) {
        self.table.ensure(class);
        if class >= self.pass.len() {
            self.pass.resize(class + 1, 0);
        }
    }

    fn stride_of(&self, class: ClassId) -> u128 {
        let w = self.table.weight(class) as u128;
        debug_assert!(w > 0);
        STRIDE1 / w
    }
}

impl Scheduler for Stride {
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
            // Re-sync a waking class to the current virtual time.
            self.pass[class] = self.pass[class].max(self.global_pass);
        }
    }

    fn is_backlogged(&self, class: ClassId) -> bool {
        self.table.is_backlogged(class)
    }

    fn pick(&mut self, _rng: &mut SimRng) -> Option<ClassId> {
        let best = self.table.eligible().min_by_key(|&c| (self.pass[c], c))?;
        self.global_pass = self.pass[best];
        Some(best)
    }

    fn charge(&mut self, class: ClassId, cost: u64) {
        self.ensure(class);
        if self.table.weight(class) == 0 {
            return;
        }
        self.pass[class] += self.stride_of(class) * cost as u128;
    }

    fn name(&self) -> &'static str {
        "stride"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_proportional, service_counts};

    #[test]
    fn shares_track_weights_exactly() {
        let weights = [10, 30, 60];
        let counts = service_counts(&mut Stride::new(), &weights, 100_000, 0);
        // Deterministic policy: tighter tolerance than lottery.
        assert_proportional(&counts, &weights, 0.001);
    }

    #[test]
    fn interleaving_is_smooth() {
        // With weights 3:1, class 1 should never wait more than 4 slots.
        let mut s = Stride::new();
        let mut rng = SimRng::new(0);
        s.set_weight(0, 3);
        s.set_weight(1, 1);
        s.set_backlogged(0, true);
        s.set_backlogged(1, true);
        let mut gap = 0;
        for _ in 0..1000 {
            let c = s.pick(&mut rng).unwrap();
            s.charge(c, 1);
            if c == 1 {
                gap = 0;
            } else {
                gap += 1;
                assert!(gap <= 4, "class 1 starved for {gap} slots");
            }
        }
    }

    #[test]
    fn waking_class_gets_no_back_credit() {
        let mut s = Stride::new();
        let mut rng = SimRng::new(0);
        s.set_weight(0, 1);
        s.set_weight(1, 1);
        s.set_backlogged(0, true);
        // Class 0 runs alone for a while.
        for _ in 0..1000 {
            assert_eq!(s.pick(&mut rng), Some(0));
            s.charge(0, 1);
        }
        // Class 1 wakes: it must not monopolize to "catch up".
        s.set_backlogged(1, true);
        let mut run1 = 0;
        for _ in 0..100 {
            if s.pick(&mut rng) == Some(1) {
                run1 += 1;
                s.charge(1, 1);
            } else {
                s.charge(0, 1);
            }
        }
        assert!((40..=60).contains(&run1), "woken class took {run1}/100");
    }

    #[test]
    fn byte_costs_weight_service() {
        // Equal weights, but class 0 sends 4x larger packets: it should get
        // ~1/4 as many picks so byte shares equalize.
        let mut s = Stride::new();
        let mut rng = SimRng::new(0);
        s.set_weight(0, 1);
        s.set_weight(1, 1);
        s.set_backlogged(0, true);
        s.set_backlogged(1, true);
        let mut picks = [0u64; 2];
        for _ in 0..10_000 {
            let c = s.pick(&mut rng).unwrap();
            picks[c] += 1;
            s.charge(c, if c == 0 { 4 } else { 1 });
        }
        let ratio = picks[1] as f64 / picks[0] as f64;
        assert!((ratio - 4.0).abs() < 0.05, "pick ratio {ratio}");
    }

    #[test]
    fn work_conserving() {
        let mut s = Stride::new();
        let mut rng = SimRng::new(0);
        assert_eq!(s.pick(&mut rng), None);
        s.set_weight(3, 7);
        s.set_backlogged(3, true);
        assert_eq!(s.pick(&mut rng), Some(3));
    }

    #[test]
    fn zero_weight_disables_a_class() {
        let mut s = Stride::new();
        let mut rng = SimRng::new(0);
        s.set_weight(0, 0);
        s.set_weight(1, 1);
        s.set_backlogged(0, true);
        s.set_backlogged(1, true);
        for _ in 0..10 {
            assert_eq!(s.pick(&mut rng), Some(1));
            s.charge(1, 1);
        }
        // Charging a disabled class is a no-op, not a division by zero.
        s.charge(0, 1);
        s.set_weight(1, 0);
        assert_eq!(s.pick(&mut rng), None);
    }
}
