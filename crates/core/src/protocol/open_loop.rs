//! §3: the open-loop announce/listen protocol, simulated.
//!
//! One FIFO announcement queue drains through a single server (the
//! channel, rate `μ_ch`); every service is one announcement of the head
//! record. After each service the record dies with probability `p_d`
//! (per-transmission death, as the analysis assumes), otherwise it
//! re-enters the tail of the queue for its next periodic announcement.
//! A successful (non-lost) announcement makes the record consistent at
//! the receiver.
//!
//! With [`ServiceModel::Exponential`] and [`LossSpec::Bernoulli`] this is
//! *exactly* the multi-class Jackson system of
//! [`ss_queueing::OpenLoop`], so the run reports can be checked against
//! the closed forms — which the tests below and the `validate-analysis`
//! experiment do.

use super::engine::{self, fraction, Reentry, Shape};
use super::jobs::JobStats;
use super::two_queue::Sharing;
use super::{LossSpec, TransitionCounts};
use crate::workload::{ArrivalProcess, DeathProcess, ServiceModel};
use ss_netsim::metrics::{EventLog, MetricsSnapshot};
use ss_netsim::trace::Tracer;
use ss_netsim::{FaultSpec, SimDuration};

/// Configuration of an open-loop announce/listen run.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// How records enter the table.
    pub arrivals: ArrivalProcess,
    /// How records leave (the analysis uses per-transmission death).
    pub death: DeathProcess,
    /// Channel service rate μ_ch in announcements/s.
    pub mu: f64,
    /// Channel loss process.
    pub loss: LossSpec,
    /// Service-time distribution.
    pub service: ServiceModel,
    /// Master seed for all random streams in this run.
    pub seed: u64,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Record a `c(t)` time series with this spacing, if set.
    pub series_spacing: Option<SimDuration>,
    /// Keep up to this many typed events in the run's [`EventLog`]
    /// (0 disables event tracing).
    pub event_capacity: usize,
    /// Keep up to this many causal `ss-trace` events (0 disables causal
    /// tracing; the untraced run loop is used and tracing costs nothing).
    pub trace_capacity: usize,
}

impl OpenLoopConfig {
    /// The paper's canonical parameterization: Poisson arrivals at
    /// `lambda` records/s, per-transmission death `p_death`, Bernoulli
    /// loss `p_loss`, exponential service at `mu` — the configuration the
    /// closed forms describe.
    pub fn analytic(lambda: f64, mu: f64, p_loss: f64, p_death: f64, seed: u64) -> Self {
        OpenLoopConfig {
            arrivals: ArrivalProcess::Poisson { rate: lambda },
            death: DeathProcess::PerTransmission { p: p_death },
            mu,
            loss: LossSpec::Bernoulli(p_loss),
            service: ServiceModel::Exponential,
            seed,
            duration: SimDuration::from_secs(200_000),
            series_spacing: None,
            event_capacity: 0,
            trace_capacity: 0,
        }
    }
}

/// Everything measured in an open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopReport {
    /// The shared §2.1 measurements.
    pub stats: JobStats,
    /// Total announcements transmitted.
    pub transmissions: u64,
    /// Announcements of records the receiver already had (redundant).
    pub redundant_transmissions: u64,
    /// Empirical Table 1 transition counts.
    pub transitions: TransitionCounts,
    /// Fraction of announcements lost by the channel.
    pub observed_loss_rate: f64,
    /// Announcements lost *only* to an active `ss-chaos` fault episode
    /// (partition, crash, silence, loss override) — 0 without faults.
    pub fault_drops: u64,
    /// Every metric of the run, frozen at the end time.
    pub metrics: MetricsSnapshot,
    /// The typed event trace (empty unless `event_capacity` was set).
    pub events: EventLog,
    /// The causal `ss-trace` log (empty unless `trace_capacity` was set).
    pub trace: Tracer,
}

impl OpenLoopReport {
    /// Fraction of bandwidth spent on redundant retransmissions —
    /// the Figure 4 quantity.
    pub fn wasted_fraction(&self) -> f64 {
        fraction(self.redundant_transmissions, self.transmissions)
    }
}

/// Runs an open-loop announce/listen simulation to completion and reports
/// the paper's metrics.
pub fn run(cfg: &OpenLoopConfig) -> OpenLoopReport {
    run_faulted(cfg, &FaultSpec::none())
}

/// [`run`] under an `ss-chaos` fault schedule. With the empty spec this
/// is byte-identical to [`run`]: the schedule consumes no randomness and
/// blocks nothing.
pub fn run_faulted(cfg: &OpenLoopConfig, faults: &FaultSpec) -> OpenLoopReport {
    // §3 is the engine with one queue in use: every record enters the hot
    // queue and a survivor re-enters the queue it was served from, so the
    // cold queue stays empty and its server (rate 0) never starts.
    let shape = Shape {
        arrivals: cfg.arrivals,
        death: cfg.death,
        loss: cfg.loss,
        service: cfg.service,
        seed: cfg.seed,
        duration: cfg.duration,
        series_spacing: cfg.series_spacing,
        event_capacity: cfg.event_capacity,
        trace_capacity: cfg.trace_capacity,
        mu: [cfg.mu, 0.0],
        reentry: Reentry::Served,
        sharing: Sharing::Partitioned,
        feedback: None,
        tx_counters: ["tx.total"; 2],
        done_labels: ["service-done"; 3],
        logs_demote: false,
    };
    let t = engine::run(&shape, faults);
    OpenLoopReport {
        stats: t.stats,
        transmissions: t.tx[0],
        redundant_transmissions: t.redundant,
        transitions: t.transitions,
        observed_loss_rate: fraction(t.lost, t.tx[0]),
        fault_drops: t.fault_drops,
        metrics: t.metrics,
        events: t.events,
        trace: t.trace,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ss_queueing::OpenLoop;

    /// A standard validation run: stable, moderate loss/death.
    pub(crate) fn validation_cfg(seed: u64) -> OpenLoopConfig {
        let mut c = OpenLoopConfig::analytic(2.0, 16.0, 0.2, 0.25, seed);
        c.duration = SimDuration::from_secs(100_000);
        c
    }

    #[test]
    fn matches_jackson_consistency() {
        let cfg = validation_cfg(11);
        let report = run(&cfg);
        let model = OpenLoop::new(2.0, 16.0, 0.2, 0.25);
        assert!(model.is_stable());

        let sim_busy = report.stats.consistency.busy.unwrap();
        let th_busy = model.consistency_busy();
        assert!(
            (sim_busy - th_busy).abs() < 0.02,
            "busy consistency: sim {sim_busy} vs theory {th_busy}"
        );

        let sim_un = report.stats.consistency.unnormalized;
        let th_un = model.consistency_unnormalized();
        assert!(
            (sim_un - th_un).abs() < 0.02,
            "unnormalized: sim {sim_un} vs theory {th_un}"
        );
    }

    #[test]
    fn matches_jackson_occupancy_and_waste() {
        let cfg = validation_cfg(12);
        let report = run(&cfg);
        let model = OpenLoop::new(2.0, 16.0, 0.2, 0.25);

        let sim_n = report.stats.mean_live_records;
        let th_n = model.mean_live_records();
        assert!(
            (sim_n - th_n).abs() / th_n < 0.05,
            "E[n]: sim {sim_n} vs theory {th_n}"
        );

        let sim_w = report.wasted_fraction();
        let th_w = model.wasted_bandwidth_fraction();
        assert!(
            (sim_w - th_w).abs() < 0.02,
            "wasted: sim {sim_w} vs theory {th_w}"
        );
    }

    #[test]
    fn empirical_transitions_match_table1() {
        let cfg = validation_cfg(13);
        let report = run(&cfg);
        let t = ss_queueing::Transitions::new(0.2, 0.25);
        let (ii, ic, id) = report.transitions.from_inconsistent().unwrap();
        assert!((ii - t.i_to_i).abs() < 0.01, "I->I {ii} vs {}", t.i_to_i);
        assert!((ic - t.i_to_c).abs() < 0.01, "I->C {ic} vs {}", t.i_to_c);
        assert!((id - t.i_death).abs() < 0.01, "I->D {id} vs {}", t.i_death);
        let (cc, cd) = report.transitions.from_consistent().unwrap();
        assert!((cc - t.c_to_c).abs() < 0.01, "C->C {cc} vs {}", t.c_to_c);
        assert!((cd - t.c_death).abs() < 0.01, "C->D {cd} vs {}", t.c_death);
    }

    #[test]
    fn observed_loss_tracks_spec() {
        let report = run(&validation_cfg(14));
        assert!((report.observed_loss_rate - 0.2).abs() < 0.01);
    }

    #[test]
    fn bulk_workload_is_eventually_consistent() {
        // Static input + no death: every record is eventually delivered
        // despite 50% loss — the paper's "quasi-reliable" property.
        let cfg = OpenLoopConfig {
            arrivals: ArrivalProcess::Bulk { count: 50 },
            death: DeathProcess::Immortal,
            mu: 20.0,
            loss: LossSpec::Bernoulli(0.5),
            service: ServiceModel::Deterministic,
            seed: 3,
            duration: SimDuration::from_secs(500),
            series_spacing: None,
            event_capacity: 0,
            trace_capacity: 0,
        };
        let report = run(&cfg);
        assert_eq!(report.stats.latency.count(), 50, "all records delivered");
        assert_eq!(report.stats.final_live, 50);
        // Consistency converges to 1 and stays: late-run instantaneous
        // average is near 1.
        assert!(report.stats.consistency.busy.unwrap() > 0.9);
    }

    #[test]
    fn higher_loss_lowers_consistency() {
        let lo = run(&OpenLoopConfig::analytic(2.0, 16.0, 0.05, 0.25, 5));
        let hi = run(&OpenLoopConfig::analytic(2.0, 16.0, 0.60, 0.25, 5));
        assert!(lo.stats.consistency.busy.unwrap() > hi.stats.consistency.busy.unwrap() + 0.1);
    }

    /// 30 immortal records on a lossless channel (the shared fault
    /// tests beside the engine run on it).
    pub(crate) fn bulk_lossless(seed: u64) -> OpenLoopConfig {
        OpenLoopConfig {
            arrivals: ArrivalProcess::Bulk { count: 30 },
            death: DeathProcess::Immortal,
            mu: 20.0,
            loss: LossSpec::None,
            service: ServiceModel::Deterministic,
            seed,
            duration: SimDuration::from_secs(100),
            series_spacing: None,
            event_capacity: 0,
            trace_capacity: 0,
        }
    }

    #[test]
    fn deterministic_service_close_to_exponential_metric() {
        // §3: the metric depends on the mean loss process, and the
        // consistent-fraction is also insensitive to the service
        // distribution (the class split is per-service, not per-time).
        let mut cfg = validation_cfg(21);
        let exp = run(&cfg);
        cfg.service = ServiceModel::Deterministic;
        let det = run(&cfg);
        let a = exp.stats.consistency.busy.unwrap();
        let b = det.stats.consistency.busy.unwrap();
        assert!((a - b).abs() < 0.03, "exp {a} vs det {b}");
    }
}

#[cfg(test)]
mod update_workload_tests {
    use super::*;

    #[test]
    fn keyspace_stays_bounded_and_updates_invalidate() {
        let cfg = OpenLoopConfig {
            arrivals: ArrivalProcess::PoissonUpdates {
                rate: 5.0,
                keys: 20,
            },
            death: DeathProcess::Immortal,
            mu: 30.0,
            loss: LossSpec::Bernoulli(0.1),
            service: ServiceModel::Exponential,
            seed: 77,
            duration: SimDuration::from_secs(2_000),
            series_spacing: None,
            event_capacity: 0,
            trace_capacity: 0,
        };
        let r = run(&cfg);
        assert_eq!(r.stats.final_live, 20, "keyspace bounded at 20");
        assert_eq!(r.stats.arrivals, 20);
        assert!(
            r.stats.updates > 1_000,
            "updates happened: {}",
            r.stats.updates
        );
        // Updates keep knocking records inconsistent, so steady-state
        // consistency sits strictly below 1 but well above 0: the cycle
        // re-propagates each new version.
        let c = r.stats.consistency.busy.unwrap();
        assert!((0.5..0.999).contains(&c), "churned consistency {c}");
    }

    #[test]
    fn faster_updates_lower_consistency() {
        let mk = |rate: f64| OpenLoopConfig {
            arrivals: ArrivalProcess::PoissonUpdates { rate, keys: 20 },
            death: DeathProcess::Immortal,
            mu: 30.0,
            loss: LossSpec::Bernoulli(0.1),
            service: ServiceModel::Exponential,
            seed: 78,
            duration: SimDuration::from_secs(2_000),
            series_spacing: None,
            event_capacity: 0,
            trace_capacity: 0,
        };
        let slow = run(&mk(1.0)).stats.consistency.busy.unwrap();
        let fast = run(&mk(20.0)).stats.consistency.busy.unwrap();
        assert!(
            slow > fast + 0.1,
            "churn must hurt: slow {slow} vs fast {fast}"
        );
    }
}
