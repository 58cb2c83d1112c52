//! Derived analysis: recomputing the paper's lifecycle metrics from the
//! causal trace alone.
//!
//! [`LifecycleAnalysis`] replays a [`Tracer`]'s Birth / Deliver / Update
//! / Expire events through the same state machine the protocols'
//! live-set bookkeeping runs (`LiveJobs` in `ss-core`): per key, a
//! record is *inconsistent* from birth (and from each update) until the
//! next delivery, and leaves the system at expiry. From that replay it
//! rebuilds:
//!
//! * the `T_rec` distribution — birth to delivery, one sample per
//!   recovering (I → C) delivery;
//! * every per-key inconsistency interval (birth→deliver,
//!   update→deliver, and the terminal birth/update→expiry-or-end ones);
//! * the exact sequence of `(live, consistent)` sample points the
//!   live-set emits to its windowed time averages.
//!
//! Because both layers observe the identical event sequence at identical
//! sim times, the recomputation matches the `ss-metrics` registry
//! **exactly** — integer-for-integer on counters and histograms,
//! bit-for-bit on replayed time averages — which is what the
//! cross-check tests assert. The two observability layers verify each
//! other: a drift in either one breaks the equality.

use super::{TraceKind, Tracer};
use crate::metrics::{DurationHistogram, WindowedTimeAverage};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A maximal interval during which a key's replica was stale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InconsistencyInterval {
    /// The record key.
    pub key: u64,
    /// When the key became inconsistent (birth or update).
    pub from: SimTime,
    /// When it recovered (delivery) or left observation (expiry/end).
    pub to: SimTime,
    /// True when the interval ended in a delivery; false when the record
    /// died (or the run ended) still inconsistent.
    pub recovered: bool,
}

/// One consistency sample point, mirroring the live-set's `observe`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CSample {
    /// Sample time.
    pub at: SimTime,
    /// Live records after the transition.
    pub live: u64,
    /// Consistent records after the transition.
    pub consistent: u64,
}

impl CSample {
    /// The system consistency `c(t)` at this sample: the consistent
    /// fraction of the live set, `0.0` when the set is empty (the same
    /// convention the live-set bookkeeping samples).
    pub fn c(self) -> f64 {
        if self.live == 0 {
            0.0
        } else {
            self.consistent as f64 / self.live as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct KeyState {
    born: SimTime,
    inconsistent_since: SimTime,
    consistent: bool,
}

/// Lifecycle metrics recomputed from a causal trace alone.
#[derive(Clone, Debug, Default)]
pub struct LifecycleAnalysis {
    /// Birth→delivery latencies, the paper's `T_rec`: one sample per
    /// recovering (I → C) delivery, measured from the record's birth —
    /// the exact convention of the registry's `latency.t_rec`.
    pub t_rec: DurationHistogram,
    /// Every per-key inconsistency interval, in close order.
    pub intervals: Vec<InconsistencyInterval>,
    /// Consistency sample points in event order (one per lifecycle
    /// transition the live set observes).
    pub samples: Vec<CSample>,
    /// Birth events seen (`records.arrivals`).
    pub births: u64,
    /// Recovering (I → C) delivery transitions seen
    /// (`records.delivered`).
    pub deliveries: u64,
    /// Expire events seen (`records.deaths`).
    pub expiries: u64,
    /// Update events seen (`records.updates`).
    pub updates: u64,
}

impl LifecycleAnalysis {
    /// Replays `tracer`'s lifecycle events. `end` closes the terminal
    /// inconsistency interval of keys still stale when observation
    /// stopped. The replay is only exact when the tracer dropped nothing
    /// ([`Tracer::dropped`] == 0); cross-check tests assert that first.
    pub fn from_tracer(tracer: &Tracer, end: SimTime) -> Self {
        let mut a = LifecycleAnalysis::default();
        let mut keys: BTreeMap<u64, KeyState> = BTreeMap::new();
        let mut consistent: u64 = 0;
        for e in tracer.events() {
            match e.kind {
                TraceKind::Birth => {
                    if keys.contains_key(&e.key) {
                        continue;
                    }
                    keys.insert(
                        e.key,
                        KeyState {
                            born: e.at,
                            inconsistent_since: e.at,
                            consistent: false,
                        },
                    );
                    a.births += 1;
                    a.sample(e.at, keys.len() as u64, consistent);
                }
                TraceKind::Deliver => {
                    let Some(k) = keys.get_mut(&e.key) else {
                        continue;
                    };
                    if k.consistent {
                        continue;
                    }
                    k.consistent = true;
                    consistent += 1;
                    a.deliveries += 1;
                    a.t_rec.record(e.at.since(k.born));
                    a.intervals.push(InconsistencyInterval {
                        key: e.key,
                        from: k.inconsistent_since,
                        to: e.at,
                        recovered: true,
                    });
                    a.sample(e.at, keys.len() as u64, consistent);
                }
                TraceKind::Update => {
                    let Some(k) = keys.get_mut(&e.key) else {
                        continue;
                    };
                    a.updates += 1;
                    if k.consistent {
                        k.consistent = false;
                        k.inconsistent_since = e.at;
                        consistent -= 1;
                        a.sample(e.at, keys.len() as u64, consistent);
                    }
                }
                TraceKind::Expire => {
                    let Some(k) = keys.remove(&e.key) else {
                        continue;
                    };
                    if k.consistent {
                        consistent -= 1;
                    } else {
                        a.intervals.push(InconsistencyInterval {
                            key: e.key,
                            from: k.inconsistent_since,
                            to: e.at,
                            recovered: false,
                        });
                    }
                    a.expiries += 1;
                    a.sample(e.at, keys.len() as u64, consistent);
                }
                _ => {}
            }
        }
        // Keys still live and stale at the end of observation.
        for (key, k) in &keys {
            if !k.consistent {
                a.intervals.push(InconsistencyInterval {
                    key: *key,
                    from: k.inconsistent_since,
                    to: end,
                    recovered: false,
                });
            }
        }
        a
    }

    fn sample(&mut self, at: SimTime, live: u64, consistent: u64) {
        self.samples.push(CSample {
            at,
            live,
            consistent,
        });
    }

    /// Replays the consistency samples through a fresh
    /// [`WindowedTimeAverage`] configured like the registry's
    /// `consistency.c_t` (start `start`, initial value 0, window width
    /// `window`) and returns its overall mean at `end`. The float
    /// operation sequence is identical to the live one, so the result is
    /// bit-exact, not approximately equal.
    pub fn replay_c_t(&self, start: SimTime, window: SimDuration, end: SimTime) -> f64 {
        let mut avg = WindowedTimeAverage::windowed(start, 0.0, window);
        for s in &self.samples {
            avg.update(s.at, s.c());
        }
        avg.mean_until(end)
    }

    /// Same replay for the `records.live` occupancy average.
    pub fn replay_live(&self, start: SimTime, end: SimTime) -> f64 {
        let mut avg = WindowedTimeAverage::windowed(start, 0.0, SimDuration::ZERO);
        for s in &self.samples {
            avg.update(s.at, s.live as f64);
        }
        avg.mean_until(end)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Actor, Tracer};
    use super::*;

    /// The same lifecycle as `LiveJobs`' own unit test: two records, one
    /// delivered after 1s, both killed at 4s.
    fn traced() -> Tracer {
        let mut t = Tracer::with_capacity(64);
        t.birth(SimTime::ZERO, Actor::Publisher, 1);
        t.birth(SimTime::ZERO, Actor::Publisher, 2);
        t.instant(
            SimTime::from_secs(1),
            Actor::Replica(0),
            TraceKind::Deliver,
            1,
        );
        t.death(SimTime::from_secs(4), Actor::Publisher, 1);
        t.death(SimTime::from_secs(4), Actor::Publisher, 2);
        t
    }

    #[test]
    fn recomputes_t_rec_and_counts() {
        let a = LifecycleAnalysis::from_tracer(&traced(), SimTime::from_secs(4));
        assert_eq!(a.births, 2);
        assert_eq!(a.deliveries, 1);
        assert_eq!(a.expiries, 2);
        assert_eq!(a.t_rec.count(), 1);
        assert_eq!(a.t_rec.mean(), SimDuration::from_secs(1));
    }

    #[test]
    fn intervals_cover_both_outcomes() {
        let a = LifecycleAnalysis::from_tracer(&traced(), SimTime::from_secs(4));
        assert_eq!(
            a.intervals,
            vec![
                InconsistencyInterval {
                    key: 1,
                    from: SimTime::ZERO,
                    to: SimTime::from_secs(1),
                    recovered: true,
                },
                InconsistencyInterval {
                    key: 2,
                    from: SimTime::ZERO,
                    to: SimTime::from_secs(4),
                    recovered: false,
                },
            ]
        );
    }

    #[test]
    fn replayed_c_t_matches_hand_integral() {
        let a = LifecycleAnalysis::from_tracer(&traced(), SimTime::from_secs(4));
        // c(t): 0 on [0,1), 0.5 on [1,4) -> 1.5/4.
        let c = a.replay_c_t(SimTime::ZERO, SimDuration::ZERO, SimTime::from_secs(4));
        assert!((c - 0.375).abs() < 1e-12);
        let live = a.replay_live(SimTime::ZERO, SimTime::from_secs(4));
        assert!((live - 2.0).abs() < 1e-12);
    }

    #[test]
    fn update_reopens_interval_only_when_consistent() {
        let mut t = Tracer::with_capacity(64);
        t.birth(SimTime::ZERO, Actor::Publisher, 1);
        t.instant(
            SimTime::from_secs(1),
            Actor::Replica(0),
            TraceKind::Deliver,
            1,
        );
        t.instant(
            SimTime::from_secs(2),
            Actor::Publisher,
            TraceKind::Update,
            1,
        );
        // A second update while already stale: counted, but no new interval.
        t.instant(
            SimTime::from_secs(3),
            Actor::Publisher,
            TraceKind::Update,
            1,
        );
        let a = LifecycleAnalysis::from_tracer(&t, SimTime::from_secs(5));
        assert_eq!(a.updates, 2);
        assert_eq!(a.intervals.len(), 2);
        assert_eq!(a.intervals[1].from, SimTime::from_secs(2));
        assert_eq!(a.intervals[1].to, SimTime::from_secs(5));
        assert!(!a.intervals[1].recovered);
        // Samples: birth, deliver, first update only.
        assert_eq!(a.samples.len(), 3);
    }
}
