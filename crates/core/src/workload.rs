//! Workload generators: the update and death processes of §2–§3.
//!
//! The analysis assumes Poisson record arrivals at rate λ and a fixed,
//! independent per-transmission death probability `p_d` ("we approximate
//! the expiration process using a fixed and independent death probability
//! per packet"). The generators here cover that model plus the variants
//! the examples need: bulk (static) inputs for eventual-consistency runs,
//! lifetime-based expiry, and in-place updates over a fixed keyspace
//! (stock-ticker style workloads where old values are superseded).

use ss_netsim::{SimDuration, SimRng};

/// How new records (or updates) enter the publisher's table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate` records/s, each a brand-new key — the
    /// §3 model.
    Poisson {
        /// Mean arrivals per second (λ).
        rate: f64,
    },
    /// `count` records all present at t = 0 and nothing after — the
    /// static input for which open-loop announce/listen is eventually
    /// consistent.
    Bulk {
        /// Number of records in the initial table.
        count: u64,
    },
    /// Poisson *events* at `rate`/s over a fixed keyspace of `keys` keys:
    /// each event picks a uniform key and bumps its version (inserting it
    /// on first touch). Models periodically-changing data (route
    /// advertisements, stock quotes).
    PoissonUpdates {
        /// Mean update events per second.
        rate: f64,
        /// Size of the fixed keyspace.
        keys: u64,
    },
}

impl ArrivalProcess {
    /// Time to the next arrival event, or `None` if no more arrivals ever
    /// occur (bulk workloads after t = 0).
    pub fn next_interarrival(&self, rng: &mut SimRng) -> Option<SimDuration> {
        match *self {
            ArrivalProcess::Poisson { rate } | ArrivalProcess::PoissonUpdates { rate, .. } => {
                (rate > 0.0).then(|| rng.exp_duration(rate))
            }
            ArrivalProcess::Bulk { .. } => None,
        }
    }

    /// Number of records present at t = 0.
    pub fn initial_count(&self) -> u64 {
        match *self {
            ArrivalProcess::Bulk { count } => count,
            _ => 0,
        }
    }

    /// The nominal arrival rate (0 for bulk).
    pub fn rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } | ArrivalProcess::PoissonUpdates { rate, .. } => rate,
            ArrivalProcess::Bulk { .. } => 0.0,
        }
    }
}

/// How records leave the system.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeathProcess {
    /// After each transmission the record dies with probability `p` — the
    /// §3 analysis model ("death probability per packet").
    PerTransmission {
        /// The per-service death probability (p_d).
        p: f64,
    },
    /// Each record lives an exponential time with the given mean,
    /// independent of transmissions — closer to real session-directory
    /// expirations.
    Lifetime {
        /// Mean lifetime in seconds.
        mean_secs: f64,
    },
    /// Records never die (bulk-transfer workloads).
    Immortal,
}

impl DeathProcess {
    /// Draws whether a record dies at a service completion.
    pub(crate) fn dies_after_service(&self, rng: &mut SimRng) -> bool {
        match *self {
            DeathProcess::PerTransmission { p } => rng.chance(p),
            _ => false,
        }
    }

    /// Draws a record's lifetime at birth, if this process is
    /// lifetime-driven.
    pub fn lifetime(&self, rng: &mut SimRng) -> Option<SimDuration> {
        match *self {
            DeathProcess::Lifetime { mean_secs } => Some(rng.exp_duration(1.0 / mean_secs)),
            _ => None,
        }
    }
}

/// How long each transmission occupies the channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServiceModel {
    /// Exponential service at the server's rate — matches the Jackson/M/M/1
    /// analysis and is the default for validation runs.
    Exponential,
    /// Deterministic serialization (`1/μ` per packet) — how a real link
    /// behaves; used to show the metric is robust to the service
    /// distribution.
    Deterministic,
}

impl ServiceModel {
    /// Draws one service time for a server of `rate` packets/s.
    pub(crate) fn service_time(&self, rate: f64, rng: &mut SimRng) -> SimDuration {
        assert!(rate > 0.0, "service on a zero-rate server");
        match self {
            ServiceModel::Exponential => rng.exp_duration(rate),
            ServiceModel::Deterministic => SimDuration::from_secs_f64(1.0 / rate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_interarrivals_have_right_mean() {
        let mut rng = SimRng::new(1);
        let a = ArrivalProcess::Poisson { rate: 4.0 };
        let n = 50_000;
        let total: f64 = (0..n)
            .map(|_| a.next_interarrival(&mut rng).unwrap().as_secs_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
        assert_eq!(a.initial_count(), 0);
        assert_eq!(a.rate(), 4.0);
    }

    #[test]
    fn bulk_has_no_arrivals() {
        let mut rng = SimRng::new(1);
        let a = ArrivalProcess::Bulk { count: 10 };
        assert_eq!(a.next_interarrival(&mut rng), None);
        assert_eq!(a.initial_count(), 10);
        assert_eq!(a.rate(), 0.0);
    }

    #[test]
    fn zero_rate_poisson_never_fires() {
        let mut rng = SimRng::new(1);
        let a = ArrivalProcess::Poisson { rate: 0.0 };
        assert_eq!(a.next_interarrival(&mut rng), None);
    }

    #[test]
    fn per_transmission_death_frequency() {
        let mut rng = SimRng::new(2);
        let d = DeathProcess::PerTransmission { p: 0.2 };
        let n = 100_000;
        let dead = (0..n).filter(|_| d.dies_after_service(&mut rng)).count();
        let f = dead as f64 / n as f64;
        assert!((f - 0.2).abs() < 0.01, "freq {f}");
        assert_eq!(d.lifetime(&mut rng), None);
    }

    #[test]
    fn lifetime_death_draws_lifetimes() {
        let mut rng = SimRng::new(3);
        let d = DeathProcess::Lifetime { mean_secs: 30.0 };
        assert!(!d.dies_after_service(&mut rng));
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| d.lifetime(&mut rng).unwrap().as_secs_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 30.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn immortal_never_dies() {
        let mut rng = SimRng::new(4);
        let d = DeathProcess::Immortal;
        assert!(!(0..1000).any(|_| d.dies_after_service(&mut rng)));
        assert_eq!(d.lifetime(&mut rng), None);
    }

    #[test]
    fn service_models() {
        let mut rng = SimRng::new(5);
        let det = ServiceModel::Deterministic.service_time(4.0, &mut rng);
        assert_eq!(det, SimDuration::from_millis(250));
        let n = 50_000;
        let total: f64 = (0..n)
            .map(|_| {
                ServiceModel::Exponential
                    .service_time(4.0, &mut rng)
                    .as_secs_f64()
            })
            .sum();
        let mean = total / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }
}
