//! # ss-sched — proportional-share link schedulers
//!
//! §4 of the paper splits the sender's data bandwidth between a "hot"
//! (new data) and a "cold" (retransmission) queue and notes that
//! "proportional sharing is preferred over strict priority scheduling
//! since it prevents starvation of cold data items", citing lottery
//! scheduling, weighted fair queueing, and stride scheduling as suitable
//! mechanisms.
//!
//! This crate implements them behind one [`Scheduler`] trait:
//!
//! * [`Lottery`] — randomized proportional share (Waldspurger & Weihl).
//! * [`Stride`] — deterministic proportional share via pass values.
//! * [`Sfq`] — start-time fair queueing (a virtual-time WFQ variant that
//!   does not need packet lengths in advance).
//! * [`Drr`] — deficit round robin.
//! * [`StrictPriority`] — the starvation-prone baseline §4 argues against.
//!
//! §6's application-controlled split across data classes needs no class
//! tree: SSTP's sender runs one flat [`Stride`] over its classes.
//!
//! The abstraction is *slot-and-charge*: the link asks the scheduler which
//! backlogged class sends the next packet ([`Scheduler::pick`]), then
//! reports the packet's cost ([`Scheduler::charge`]) so byte-weighted
//! fairness holds even with mixed packet sizes.

pub mod drr;
pub mod lottery;
pub mod metered;
pub mod priority;
pub mod sfq;
pub mod stride;

pub use drr::Drr;
pub use lottery::Lottery;
pub use metered::Metered;
pub use priority::StrictPriority;
pub use sfq::Sfq;
pub use stride::Stride;

use ss_netsim::SimRng;

/// Identifies a traffic class (a transmission queue). Classes are small
/// dense indices assigned by the caller.
pub type ClassId = usize;

/// A work-conserving proportional-share scheduler over a fixed set of
/// classes.
///
/// Contract:
/// * [`pick`](Scheduler::pick) returns `Some(c)` for a backlogged class
///   with positive weight whenever one exists (work conservation), `None`
///   otherwise.
/// * After a pick, the caller reports the transmission's cost with
///   [`charge`](Scheduler::charge); long-run service of backlogged classes
///   is proportional to their weights.
/// * Weight 0 disables a class (it is never picked).
pub trait Scheduler {
    /// Sets (or changes) the weight of `class`. Weights are relative;
    /// only ratios matter.
    fn set_weight(&mut self, class: ClassId, weight: u64);

    /// The current weight of `class` (0 if never set).
    fn weight(&self, class: ClassId) -> u64;

    /// Declares whether `class` currently has packets to send.
    fn set_backlogged(&mut self, class: ClassId, backlogged: bool);

    /// True if `class` is currently marked backlogged.
    fn is_backlogged(&self, class: ClassId) -> bool;

    /// Chooses the class that transmits next. `rng` is only consulted by
    /// randomized policies ([`Lottery`]).
    fn pick(&mut self, rng: &mut SimRng) -> Option<ClassId>;

    /// Accounts `cost` (e.g. bytes) of service to `class` after a pick.
    fn charge(&mut self, class: ClassId, cost: u64);

    /// A short policy name for experiment output.
    fn name(&self) -> &'static str;
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn set_weight(&mut self, class: ClassId, weight: u64) {
        (**self).set_weight(class, weight)
    }
    fn weight(&self, class: ClassId) -> u64 {
        (**self).weight(class)
    }
    fn set_backlogged(&mut self, class: ClassId, backlogged: bool) {
        (**self).set_backlogged(class, backlogged)
    }
    fn is_backlogged(&self, class: ClassId) -> bool {
        (**self).is_backlogged(class)
    }
    fn pick(&mut self, rng: &mut SimRng) -> Option<ClassId> {
        (**self).pick(rng)
    }
    fn charge(&mut self, class: ClassId, cost: u64) {
        (**self).charge(class, cost)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Shared bookkeeping for flat schedulers: weights and backlog flags.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClassTable {
    weights: Vec<u64>,
    backlogged: Vec<bool>,
}

impl ClassTable {
    pub(crate) fn ensure(&mut self, class: ClassId) {
        if class >= self.weights.len() {
            self.weights.resize(class + 1, 0);
            self.backlogged.resize(class + 1, false);
        }
    }

    pub(crate) fn set_weight(&mut self, class: ClassId, weight: u64) {
        self.ensure(class);
        self.weights[class] = weight;
    }

    pub(crate) fn weight(&self, class: ClassId) -> u64 {
        self.weights.get(class).copied().unwrap_or(0)
    }

    pub(crate) fn set_backlogged(&mut self, class: ClassId, b: bool) {
        self.ensure(class);
        self.backlogged[class] = b;
    }

    pub(crate) fn is_backlogged(&self, class: ClassId) -> bool {
        self.backlogged.get(class).copied().unwrap_or(false)
    }

    /// Classes eligible for service: backlogged with positive weight.
    pub(crate) fn eligible(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.weights.len()).filter(|&c| self.backlogged[c] && self.weights[c] > 0)
    }

    pub(crate) fn len(&self) -> usize {
        self.weights.len()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared statistical harness: run a scheduler with always-backlogged
    //! classes and check long-run service shares against weights.

    use super::*;

    /// Runs `n` unit-cost picks with every class always backlogged and
    /// returns per-class service counts.
    pub(crate) fn service_counts(
        sched: &mut dyn Scheduler,
        weights: &[u64],
        n: usize,
        seed: u64,
    ) -> Vec<u64> {
        let mut rng = SimRng::new(seed);
        for (c, &w) in weights.iter().enumerate() {
            sched.set_weight(c, w);
            sched.set_backlogged(c, true);
        }
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..n {
            let c = sched.pick(&mut rng).expect("work conservation violated");
            counts[c] += 1;
            sched.charge(c, 1);
        }
        counts
    }

    /// Asserts service shares match weight shares within `tol` (absolute).
    pub(crate) fn assert_proportional(counts: &[u64], weights: &[u64], tol: f64) {
        let total_c: u64 = counts.iter().sum();
        let total_w: u64 = weights.iter().sum();
        for (c, (&got, &w)) in counts.iter().zip(weights).enumerate() {
            let share = got as f64 / total_c as f64;
            let want = w as f64 / total_w as f64;
            assert!(
                (share - want).abs() <= tol,
                "class {c}: share {share:.4} vs weight share {want:.4} (tol {tol})"
            );
        }
    }
}
