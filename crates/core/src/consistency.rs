//! The §2.1 consistency metric.
//!
//! Per live key the metric is the probability that publisher and
//! subscriber hold the same value; the *instantaneous system consistency*
//! `c(t)` averages it over the live set, and the *average system
//! consistency* `E[c(t)]` is its time average — which is how every figure
//! in the paper scores a protocol. The integration itself is
//! [`WindowedTimeAverage`]'s, the workspace's one integrator;
//! [`ConsistencyAverages::from_time_averages`] turns two of them into the
//! averages below.
//!
//! The paper's analysis sums over non-empty states without normalizing
//! (DESIGN.md §3), so there are **three** conventions and the
//! experiments state which one each figure uses:
//!
//! * `unnormalized` — empty-system instants score 0 (the paper's closed
//!   form `q·ρ`).
//! * `busy` — the average conditioned on live data existing (`q`).
//! * `empty_consistent` — empty instants score 1 (an empty table is
//!   trivially in sync; the natural end-to-end convention).

use ss_netsim::{SimTime, WindowedTimeAverage};

use crate::model::{PublisherTable, SubscriberTable};

/// Time averages of the instantaneous system consistency under the three
/// empty-system conventions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConsistencyAverages {
    /// Empty instants count as 0 (paper's unnormalized sum).
    pub unnormalized: f64,
    /// Conditioned on the system being non-empty; `None` if it never was.
    pub busy: Option<f64>,
    /// Empty instants count as 1.
    pub empty_consistent: f64,
}

impl ConsistencyAverages {
    /// The three conventions over `[start, end]`, from two time averages
    /// started at `start`: `c`, the instantaneous consistency scored 0
    /// while the system is empty, and `busy`, 1 while live data exists
    /// and 0 otherwise. With `C = ∫c`, `B = ∫busy` and `T = end − start`
    /// they are `C/T`, `C/B` and `(C + (T − B))/T`; a zero-length span
    /// gives `(0, None, 1)`.
    pub fn from_time_averages(
        c: &WindowedTimeAverage,
        busy: &WindowedTimeAverage,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        let ratio_integral = c.integral_until(end);
        let busy_time = busy.integral_until(end);
        let total = end.since(start).as_secs_f64();
        if total == 0.0 {
            return ConsistencyAverages {
                unnormalized: 0.0,
                busy: None,
                empty_consistent: 1.0,
            };
        }
        ConsistencyAverages {
            unnormalized: ratio_integral / total,
            busy: (busy_time > 0.0).then(|| ratio_integral / busy_time),
            empty_consistent: (ratio_integral + (total - busy_time)) / total,
        }
    }
}

/// Directly measures instantaneous consistency between a publisher table
/// and a subscriber replica: the fraction of the publisher's live keys for
/// which the subscriber holds an equal value. `None` when the live set is
/// empty.
///
/// This is the ground-truth probe used by the SSTP integration tests; the
/// protocol simulations instead track counts incrementally for speed.
pub fn measure_tables(publisher: &PublisherTable, subscriber: &SubscriberTable) -> Option<f64> {
    let total = publisher.live_count();
    if total == 0 {
        return None;
    }
    let agree = publisher
        .live()
        .filter(|r| subscriber.get(r.key).map(|e| e.value) == Some(r.value))
        .count();
    Some(agree as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Value;
    use proptest::prelude::*;
    use ss_netsim::SimDuration;

    /// The two time averages every caller keeps, fed the way they feed
    /// them: `c` scored 0 while empty, and the busy indicator.
    struct Probe {
        start: SimTime,
        c: WindowedTimeAverage,
        busy: WindowedTimeAverage,
    }

    impl Probe {
        fn new(start: SimTime) -> Self {
            Probe {
                start,
                c: WindowedTimeAverage::new(start, 0.0),
                busy: WindowedTimeAverage::new(start, 0.0),
            }
        }

        fn observe(&mut self, t: SimTime, consistent: usize, total: usize) {
            let (c, busy) = if total > 0 {
                (consistent as f64 / total as f64, 1.0)
            } else {
                (0.0, 0.0)
            };
            self.c.update(t, c);
            self.busy.update(t, busy);
        }

        fn averages(&self, end: SimTime) -> ConsistencyAverages {
            ConsistencyAverages::from_time_averages(&self.c, &self.busy, self.start, end)
        }
    }

    /// The reference: a brute-force integration that adds the ratio and
    /// the elapsed time only over busy spans, then divides — the
    /// arithmetic of the integrator the time averages replaced.
    fn oracle(
        start: SimTime,
        obs: &[(SimTime, usize, usize)],
        end: SimTime,
    ) -> ConsistencyAverages {
        let (mut last_t, mut ratio, mut busy) = (start, 0.0, false);
        let (mut ratio_integral, mut busy_time) = (0.0, 0.0);
        let mut integrate_to = |t: SimTime, ratio: f64, busy: bool| {
            let dt = t.since(last_t).as_secs_f64();
            if busy {
                ratio_integral += ratio * dt;
                busy_time += dt;
            }
            last_t = t;
        };
        for &(t, consistent, total) in obs {
            integrate_to(t, ratio, busy);
            busy = total > 0;
            ratio = if busy {
                consistent as f64 / total as f64
            } else {
                0.0
            };
        }
        integrate_to(end, ratio, busy);
        let total = end.since(start).as_secs_f64();
        if total == 0.0 {
            return ConsistencyAverages {
                unnormalized: 0.0,
                busy: None,
                empty_consistent: 1.0,
            };
        }
        let idle = total - busy_time;
        ConsistencyAverages {
            unnormalized: ratio_integral / total,
            busy: (busy_time > 0.0).then(|| ratio_integral / busy_time),
            empty_consistent: (ratio_integral + idle) / total,
        }
    }

    proptest! {
        /// All three conventions equal the reference bit for bit, over
        /// same-instant updates, idle stretches, never-busy runs and
        /// zero-length spans.
        #[test]
        fn conventions_match_the_oracle_bit_for_bit(
            start_us in 0u64..1_000_000,
            steps in prop::collection::vec(
                (prop_oneof![Just(0u64), 1u64..5_000_000], 0usize..4, 0usize..4),
                0..24,
            ),
            tail_us in prop_oneof![Just(0u64), 1u64..5_000_000],
            never_busy in any::<bool>(),
        ) {
            let start = SimTime::from_micros(start_us);
            let mut t = start;
            let mut obs = Vec::new();
            for (dt, a, b) in steps {
                t += SimDuration::from_micros(dt);
                let total = if never_busy { 0 } else { a.max(b) };
                obs.push((t, a.min(total), total));
            }
            let end = t + SimDuration::from_micros(tail_us);
            let mut p = Probe::new(start);
            for &(t, consistent, total) in &obs {
                p.observe(t, consistent, total);
            }
            let got = p.averages(end);
            let want = oracle(start, &obs, end);
            prop_assert_eq!(got.unnormalized.to_bits(), want.unnormalized.to_bits());
            prop_assert_eq!(got.busy.map(f64::to_bits), want.busy.map(f64::to_bits));
            prop_assert_eq!(
                got.empty_consistent.to_bits(),
                want.empty_consistent.to_bits()
            );
        }

        /// The conventions lie in [0, 1] and decompose over the busy
        /// fraction `f`: `unnormalized = busy · f` and
        /// `empty_consistent = unnormalized + (1 − f)`.
        #[test]
        fn conventions_decompose_over_the_busy_fraction(
            steps in prop::collection::vec(
                (prop_oneof![Just(0u64), 1u64..5_000_000], 0usize..4, 0usize..4),
                1..24,
            ),
            tail_us in 1u64..5_000_000,
        ) {
            let mut p = Probe::new(SimTime::ZERO);
            let mut t = SimTime::ZERO;
            for (dt, a, b) in steps {
                t += SimDuration::from_micros(dt);
                p.observe(t, a.min(b), a.max(b));
            }
            let end = t + SimDuration::from_micros(tail_us);
            let a = p.averages(end);
            let f = p.busy.mean_until(end);
            let eps = 1e-12;
            for v in [a.unnormalized, a.empty_consistent, a.busy.unwrap_or(0.0)] {
                prop_assert!((-eps..=1.0 + eps).contains(&v), "{a:?}");
            }
            prop_assert_eq!(a.busy.is_some(), f > 0.0);
            prop_assert!((a.unnormalized - a.busy.unwrap_or(0.0) * f).abs() <= eps, "{a:?}");
            prop_assert!((a.empty_consistent - (a.unnormalized + 1.0 - f)).abs() <= eps, "{a:?}");
        }
    }

    #[test]
    fn exact_integration() {
        let mut p = Probe::new(SimTime::ZERO);
        // [0,2): empty. [2,4): 1/2 consistent. [4,6): 2/2. [6,8): empty.
        p.observe(SimTime::from_secs(2), 1, 2);
        p.observe(SimTime::from_secs(4), 2, 2);
        p.observe(SimTime::from_secs(6), 0, 0);
        let a = p.averages(SimTime::from_secs(8));
        // ratio integral = 0.5*2 + 1*2 = 3; busy = 4s; total = 8s.
        assert!((a.unnormalized - 3.0 / 8.0).abs() < 1e-12);
        assert!((a.busy.unwrap() - 0.75).abs() < 1e-12);
        assert!((a.empty_consistent - (3.0 + 4.0) / 8.0).abs() < 1e-12);
    }

    #[test]
    fn never_busy_gives_none() {
        let a = Probe::new(SimTime::ZERO).averages(SimTime::from_secs(5));
        assert_eq!(a.busy, None);
        assert_eq!(a.unnormalized, 0.0);
        assert_eq!(a.empty_consistent, 1.0);
    }

    #[test]
    fn zero_span() {
        let a = Probe::new(SimTime::from_secs(3)).averages(SimTime::from_secs(3));
        assert_eq!(a.busy, None);
        assert_eq!(a.empty_consistent, 1.0);
    }

    #[test]
    fn averages_are_queryable_mid_run() {
        let mut p = Probe::new(SimTime::ZERO);
        p.observe(SimTime::ZERO, 1, 1);
        let early = p.averages(SimTime::from_secs(1));
        assert!((early.busy.unwrap() - 1.0).abs() < 1e-12);
        // Continue observing after the query: the averages are unaffected.
        p.observe(SimTime::from_secs(2), 0, 1);
        let late = p.averages(SimTime::from_secs(4));
        assert!((late.busy.unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn table_probe() {
        let mut p = PublisherTable::new();
        let mut s = SubscriberTable::new(SimDuration::from_secs(100));
        assert_eq!(measure_tables(&p, &s), None);

        let r1 = p.insert_new(SimTime::ZERO, 10);
        let r2 = p.insert_new(SimTime::ZERO, 10);
        assert_eq!(measure_tables(&p, &s), Some(0.0));

        s.apply(SimTime::from_secs(1), r1.key, r1.value);
        assert_eq!(measure_tables(&p, &s), Some(0.5));

        s.apply(SimTime::from_secs(1), r2.key, r2.value);
        assert_eq!(measure_tables(&p, &s), Some(1.0));

        // Publisher updates r1: subscriber is stale again.
        p.update(r1.key);
        assert_eq!(measure_tables(&p, &s), Some(0.5));

        // Subscriber holding a *newer* version than publisher (impossible
        // in the protocol, but the probe must not count it as agreement).
        s.apply(
            SimTime::from_secs(2),
            r2.key,
            Value {
                version: 99,
                payload_len: 10,
            },
        );
        assert_eq!(measure_tables(&p, &s), Some(0.0));
    }
}
