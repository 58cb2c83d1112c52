//! A metering decorator for [`Scheduler`]s.
//!
//! [`Metered`] wraps any scheduler and counts, per class, how often it
//! was picked and how much cost it was charged — the raw material for
//! the scheduler-fairness metrics (`sched.<class>.picks`,
//! `sched.<class>.cost`) without touching any policy's internals. The
//! counts can be exported into an `ss-metrics` registry at the end of a
//! run with [`Metered::export_into`].

use crate::{ClassId, Scheduler};
use ss_netsim::{MetricsRegistry, SimRng, SimTime, Tracer};

/// Wraps a scheduler, counting per-class picks and charged cost.
#[derive(Debug)]
pub struct Metered<S> {
    inner: S,
    picks: Vec<u64>,
    cost: Vec<u64>,
}

impl<S: Scheduler> Metered<S> {
    /// Wraps `inner`; counters start at zero.
    pub fn new(inner: S) -> Self {
        Metered {
            inner,
            picks: Vec::new(),
            cost: Vec::new(),
        }
    }

    fn ensure(&mut self, class: ClassId) {
        if class >= self.picks.len() {
            self.picks.resize(class + 1, 0);
            self.cost.resize(class + 1, 0);
        }
    }

    /// How often `class` was picked.
    pub fn picks(&self, class: ClassId) -> u64 {
        self.picks.get(class).copied().unwrap_or(0)
    }

    /// Total cost charged to `class`.
    pub fn charged(&self, class: ClassId) -> u64 {
        self.cost.get(class).copied().unwrap_or(0)
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Like [`Scheduler::pick`], but also records the decision in
    /// `tracer` as a scheduler-lane instant labeled with the policy
    /// name and keyed by the picked class. Taking the tracer as a
    /// parameter keeps the call usable while the scheduler itself is
    /// borrowed out of a larger simulation struct.
    pub fn pick_traced(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        tracer: &mut Tracer,
    ) -> Option<ClassId> {
        let picked = self.pick(rng);
        if let Some(class) = picked {
            tracer.decision(now, class as u64, self.inner.name());
        }
        picked
    }

    /// Exports the per-class counters into `registry` as
    /// `<prefix>.<class>.picks` / `<prefix>.<class>.cost`.
    pub fn export_into(&self, registry: &mut MetricsRegistry, prefix: &str) {
        for class in 0..self.picks.len() {
            let picks = registry.counter(&format!("{prefix}.{class}.picks"));
            registry.add(picks, self.picks[class]);
            let cost = registry.counter(&format!("{prefix}.{class}.cost"));
            registry.add(cost, self.cost[class]);
        }
    }
}

impl<S: Scheduler> Scheduler for Metered<S> {
    fn set_weight(&mut self, class: ClassId, weight: u64) {
        self.inner.set_weight(class, weight);
    }

    fn weight(&self, class: ClassId) -> u64 {
        self.inner.weight(class)
    }

    fn set_backlogged(&mut self, class: ClassId, backlogged: bool) {
        self.inner.set_backlogged(class, backlogged);
    }

    fn is_backlogged(&self, class: ClassId) -> bool {
        self.inner.is_backlogged(class)
    }

    fn pick(&mut self, rng: &mut SimRng) -> Option<ClassId> {
        let picked = self.inner.pick(rng);
        if let Some(class) = picked {
            self.ensure(class);
            self.picks[class] += 1;
        }
        picked
    }

    fn charge(&mut self, class: ClassId, cost: u64) {
        self.ensure(class);
        self.cost[class] += cost;
        self.inner.charge(class, cost);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sfq, Stride};

    #[test]
    fn counts_picks_and_cost_transparently() {
        let mut m = Metered::new(Stride::new());
        m.set_weight(0, 3);
        m.set_weight(1, 1);
        m.set_backlogged(0, true);
        m.set_backlogged(1, true);
        let mut rng = SimRng::new(1);
        for _ in 0..400 {
            let c = m.pick(&mut rng).expect("work conserving");
            m.charge(c, 2);
        }
        assert_eq!(m.picks(0) + m.picks(1), 400);
        assert_eq!(m.charged(0), m.picks(0) * 2);
        assert_eq!(m.picks(0), 300, "stride is exact: 3:1 split");
        assert_eq!(m.name(), Stride::new().name());
    }

    #[test]
    fn metering_does_not_change_decisions() {
        let mut bare = Sfq::new();
        let mut m = Metered::new(Sfq::new());
        for (c, w) in [(0, 5), (1, 2), (2, 1)] {
            bare.set_weight(c, w);
            m.set_weight(c, w);
            bare.set_backlogged(c, true);
            m.set_backlogged(c, true);
        }
        let (mut r1, mut r2) = (SimRng::new(5), SimRng::new(5));
        for i in 0..500u64 {
            let c = bare.pick(&mut r1);
            assert_eq!(m.pick(&mut r2), c, "pick {i}");
            let c = c.unwrap();
            bare.charge(c, 1 + i % 3);
            m.charge(c, 1 + i % 3);
        }
        assert_eq!(m.picks(0) + m.picks(1) + m.picks(2), 500);
    }

    #[test]
    fn boxed_scheduler_can_be_metered() {
        let inner: Box<dyn Scheduler> = Box::new(Stride::new());
        let mut m = Metered::new(inner);
        m.set_weight(0, 1);
        m.set_backlogged(0, true);
        let mut rng = SimRng::new(2);
        assert_eq!(m.pick(&mut rng), Some(0));
        m.charge(0, 5);
        assert_eq!(m.charged(0), 5);
        assert_eq!(m.picks(1), 0, "unpicked class reads zero");
    }

    #[test]
    fn pick_traced_logs_a_decision_per_pick() {
        let mut m = Metered::new(Stride::new());
        m.set_weight(0, 1);
        m.set_backlogged(0, true);
        let mut rng = SimRng::new(4);
        let mut tracer = Tracer::with_capacity(8);
        let c = m
            .pick_traced(SimTime::from_millis(3), &mut rng, &mut tracer)
            .unwrap();
        assert_eq!(m.picks(c), 1);
        assert_eq!(tracer.len(), 1);
        let ev = &tracer.events()[0];
        assert_eq!(ev.key, c as u64);
        assert_eq!(ev.label, Stride::new().name());
        // A disabled tracer records nothing but the pick still counts.
        let mut off = Tracer::disabled();
        m.pick_traced(SimTime::from_millis(4), &mut rng, &mut off)
            .unwrap();
        assert_eq!(m.picks(c), 2);
        assert!(off.is_empty());
        assert_eq!(off.dropped(), 0, "disabled tracer drops silently");
    }

    #[test]
    fn export_writes_registry_counters() {
        let mut m = Metered::new(Stride::new());
        m.set_weight(0, 1);
        m.set_backlogged(0, true);
        let mut rng = SimRng::new(3);
        let c = m.pick(&mut rng).unwrap();
        m.charge(c, 7);
        let mut reg = MetricsRegistry::new();
        m.export_into(&mut reg, "sched");
        let snap = reg.snapshot(ss_netsim::SimTime::ZERO);
        assert_eq!(snap.counter("sched.0.picks"), 1);
        assert_eq!(snap.counter("sched.0.cost"), 7);
    }
}
