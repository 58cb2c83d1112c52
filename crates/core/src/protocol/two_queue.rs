//! §4: multiple transmission queues — "hot" (foreground, new data) and
//! "cold" (background, already-transmitted data).
//!
//! A new record is announced once through the hot queue and then moves to
//! the cold queue, which cycles through its contents forever (periodic
//! background retransmission). The data bandwidth `μ_data` is split
//! between the queues; the paper evaluates the split's effect on
//! consistency (Figure 5) and receive latency (Figure 6).
//!
//! Two sharing modes are provided:
//!
//! * [`Sharing::Partitioned`] — hot and cold are independent servers at
//!   `μ_hot` and `μ_cold`. This matches the figures' sweeps directly
//!   (e.g. `μ_cold → 0` really does mean "no retransmissions, ever"),
//!   and is the default for the experiment presets.
//! * [`Sharing::WorkConserving`] — one server at `μ_hot + μ_cold` with a
//!   proportional-share scheduler (lottery/stride/SFQ/DRR/priority)
//!   choosing the next queue, so "unused excess hot bandwidth is consumed
//!   by transmissions from the cold queue" as §4 describes. Used by the
//!   scheduler-ablation experiment.

use super::engine::{self, fraction, Reentry, Shape};
use super::jobs::JobStats;
use super::LossSpec;
use crate::workload::{ArrivalProcess, DeathProcess, ServiceModel};
use ss_netsim::metrics::{EventLog, MetricsSnapshot};
use ss_netsim::trace::Tracer;
use ss_netsim::{FaultSpec, SimDuration};
use ss_sched::{Drr, Lottery, Scheduler, Sfq, StrictPriority, Stride};

/// Which transmission queue served a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Src {
    /// The foreground (new data) queue.
    Hot,
    /// The background (retransmission) queue.
    Cold,
}

/// The proportional-share policy for work-conserving sharing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Randomized lottery scheduling.
    Lottery,
    /// Deterministic stride scheduling.
    Stride,
    /// Start-time fair queueing.
    Sfq,
    /// Deficit round robin.
    Drr,
    /// Strict priority (hot first) — the starvation baseline.
    Priority,
}

impl Policy {
    /// Builds the scheduler with classes 0 = hot, 1 = cold.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            Policy::Lottery => Box::new(Lottery::new()),
            Policy::Stride => Box::new(Stride::new()),
            Policy::Sfq => Box::new(Sfq::new()),
            Policy::Drr => Box::new(Drr::new(1)),
            Policy::Priority => Box::new(StrictPriority::new()),
        }
    }
}

/// How the hot and cold queues share the data bandwidth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sharing {
    /// Independent servers at `μ_hot` / `μ_cold`.
    Partitioned,
    /// One server at `μ_hot + μ_cold`, queue chosen per packet by the
    /// policy with weights proportional to the two rates.
    WorkConserving(Policy),
}

/// Configuration of a two-queue run.
#[derive(Clone, Debug)]
pub struct TwoQueueConfig {
    /// How records enter the table.
    pub arrivals: ArrivalProcess,
    /// How records leave.
    pub death: DeathProcess,
    /// Foreground bandwidth in announcements/s (μ_hot).
    pub mu_hot: f64,
    /// Background bandwidth in announcements/s (μ_cold).
    pub mu_cold: f64,
    /// Channel loss process (shared by both queues — same channel).
    pub loss: LossSpec,
    /// Service-time distribution.
    pub service: ServiceModel,
    /// Bandwidth sharing mode.
    pub sharing: Sharing,
    /// Master seed.
    pub seed: u64,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Record a `c(t)` series with this spacing, if set.
    pub series_spacing: Option<SimDuration>,
    /// Keep up to this many typed events in the run's [`EventLog`]
    /// (0 disables event tracing).
    pub event_capacity: usize,
    /// Keep up to this many causal [`Tracer`] events (0 disables causal
    /// tracing and makes it cost one branch per would-be record).
    pub trace_capacity: usize,
}

/// Everything measured in a two-queue run.
#[derive(Clone, Debug)]
pub struct TwoQueueReport {
    /// The shared §2.1 measurements.
    pub stats: JobStats,
    /// Announcements sent from the hot queue.
    pub hot_transmissions: u64,
    /// Announcements sent from the cold queue.
    pub cold_transmissions: u64,
    /// Announcements of already-consistent records.
    pub redundant_transmissions: u64,
    /// Fraction of announcements lost.
    pub observed_loss_rate: f64,
    /// Announcements lost *only* to an active `ss-chaos` fault episode
    /// (partition, crash, silence, loss override) — 0 without faults.
    pub fault_drops: u64,
    /// Time-averaged hot-queue backlog (diverges when `λ > μ_hot`).
    pub mean_hot_backlog: f64,
    /// Hot-queue length at the end of the run.
    pub final_hot_backlog: usize,
    /// Every metric of the run, frozen at the end time. Work-conserving
    /// runs additionally carry per-class `sched.*` counters.
    pub metrics: MetricsSnapshot,
    /// The typed event trace (empty unless `event_capacity` was set).
    pub events: EventLog,
    /// The causal trace (empty unless `trace_capacity` was set).
    pub trace: Tracer,
}

impl TwoQueueReport {
    /// Total announcements.
    pub fn transmissions(&self) -> u64 {
        self.hot_transmissions + self.cold_transmissions
    }

    /// The Figure 4 quantity for this variant.
    pub fn wasted_fraction(&self) -> f64 {
        fraction(self.redundant_transmissions, self.transmissions())
    }
}

/// Runs a two-queue simulation and reports the paper's metrics.
pub fn run(cfg: &TwoQueueConfig) -> TwoQueueReport {
    run_faulted(cfg, &FaultSpec::none())
}

/// [`run`] under an `ss-chaos` fault schedule. With the empty spec this
/// is byte-identical to [`run`]: the schedule consumes no randomness and
/// blocks nothing.
pub fn run_faulted(cfg: &TwoQueueConfig, faults: &FaultSpec) -> TwoQueueReport {
    // §4: a served record ages into the cold queue, which cycles forever;
    // an updated record refreshes through that cycle (promotion on update
    // is the feedback variant's).
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
        mu: [cfg.mu_hot, cfg.mu_cold],
        reentry: Reentry::Cold,
        sharing: cfg.sharing,
        feedback: None,
        tx_counters: ["tx.hot", "tx.cold"],
        done_labels: ["done-hot", "done-cold", ""],
        logs_demote: true,
    };
    let t = engine::run(&shape, faults);
    TwoQueueReport {
        stats: t.stats,
        hot_transmissions: t.tx[0],
        cold_transmissions: t.tx[1],
        redundant_transmissions: t.redundant,
        observed_loss_rate: fraction(t.lost, t.tx[0] + t.tx[1]),
        fault_drops: t.fault_drops,
        mean_hot_backlog: t.mean_hot_backlog,
        final_hot_backlog: t.final_hot_backlog,
        metrics: t.metrics,
        events: t.events,
        trace: t.trace,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ss_netsim::trace::TraceKind;

    /// Figure 5's workload in packets/s: λ = 1.875/s (15 kbps),
    /// μ_data = 5.625/s (45 kbps), split by `hot_share`.
    pub(crate) fn fig5_cfg(hot_share: f64, p_loss: f64, seed: u64) -> TwoQueueConfig {
        let mu_data = 5.625;
        TwoQueueConfig {
            arrivals: ArrivalProcess::Poisson { rate: 1.875 },
            death: DeathProcess::PerTransmission { p: 0.1 },
            mu_hot: mu_data * hot_share,
            mu_cold: mu_data * (1.0 - hot_share),
            loss: LossSpec::Bernoulli(p_loss),
            service: ServiceModel::Exponential,
            sharing: Sharing::Partitioned,
            seed,
            duration: SimDuration::from_secs(40_000),
            series_spacing: None,
            event_capacity: 0,
            trace_capacity: 0,
        }
    }

    #[test]
    fn consistency_knee_at_lambda() {
        // λ/μ_data = 1/3: hot shares below it starve new data, above it
        // consistency plateaus (Figure 5's knee).
        let starved = run(&fig5_cfg(0.10, 0.1, 1));
        let at_knee = run(&fig5_cfg(0.40, 0.1, 1));
        let plateau = run(&fig5_cfg(0.70, 0.1, 1));
        let c_starved = starved.stats.consistency.busy.unwrap();
        let c_knee = at_knee.stats.consistency.busy.unwrap();
        let c_plateau = plateau.stats.consistency.busy.unwrap();
        assert!(
            c_knee > c_starved + 0.2,
            "knee {c_knee} vs starved {c_starved}"
        );
        assert!(
            (c_plateau - c_knee).abs() < 0.06,
            "plateau {c_plateau} vs knee {c_knee}"
        );
        // The starved run's hot queue diverges.
        assert!(starved.mean_hot_backlog > 10.0 * at_knee.mean_hot_backlog.max(0.1));
    }

    #[test]
    fn zero_cold_means_no_retransmissions() {
        let mut cfg = fig5_cfg(1.0, 0.5, 2);
        cfg.mu_cold = 0.0;
        let r = run(&cfg);
        assert_eq!(r.cold_transmissions, 0);
        // Every record is announced exactly once from hot; with 50% loss,
        // about half are never delivered.
        let delivered = r.stats.latency.count();
        let frac = delivered as f64 / r.stats.arrivals as f64;
        assert!((frac - 0.5).abs() < 0.05, "delivered fraction {frac}");
    }

    #[test]
    fn cold_bandwidth_raises_delivery_and_latency_shape() {
        // Figure 6's two competing effects: tiny cold bandwidth gives low
        // measured latency (only first-shot successes are counted) but low
        // delivery; ample cold bandwidth delivers everyone and brings the
        // retransmission latency down again.
        let mut tiny = fig5_cfg(0.40, 0.5, 3);
        tiny.mu_cold = 0.01;
        let mut mid = fig5_cfg(0.40, 0.5, 3);
        mid.mu_cold = tiny.mu_hot * 0.3;
        let mut ample = fig5_cfg(0.40, 0.5, 3);
        ample.mu_cold = tiny.mu_hot * 3.0;

        let rt = run(&tiny);
        let rm = run(&mid);
        let ra = run(&ample);

        let lt = rt.stats.latency.mean().as_secs_f64();
        let lm = rm.stats.latency.mean().as_secs_f64();
        let la = ra.stats.latency.mean().as_secs_f64();
        assert!(lm > lt, "latency should rise first: tiny {lt}, mid {lm}");
        assert!(la < lm, "then fall: mid {lm}, ample {la}");

        let ct = rt.stats.consistency.busy.unwrap();
        let ca = ra.stats.consistency.busy.unwrap();
        assert!(ca > ct, "ample cold consistency {ca} vs tiny {ct}");
    }

    #[test]
    fn work_conserving_policies_agree() {
        for policy in [Policy::Lottery, Policy::Stride, Policy::Sfq, Policy::Drr] {
            let mut cfg = fig5_cfg(0.5, 0.2, 4);
            cfg.sharing = Sharing::WorkConserving(policy);
            let r = run(&cfg);
            let c = r.stats.consistency.busy.unwrap();
            assert!(c > 0.65, "{policy:?} consistency {c}");
            assert!(r.hot_transmissions > 0 && r.cold_transmissions > 0);
        }
    }

    #[test]
    fn strict_priority_starves_cold_under_hot_load() {
        // Saturate hot (λ > μ_data/2 with hot weight dominant): cold gets
        // nothing under strict priority while stride still shares.
        let mut cfg = fig5_cfg(0.5, 0.2, 5);
        cfg.arrivals = ArrivalProcess::Poisson { rate: 50.0 }; // >> mu_data
        cfg.sharing = Sharing::WorkConserving(Policy::Priority);
        let pri = run(&cfg);
        cfg.sharing = Sharing::WorkConserving(Policy::Stride);
        let str_ = run(&cfg);
        assert_eq!(pri.cold_transmissions, 0, "priority must starve cold");
        assert!(str_.cold_transmissions > 0, "stride must not starve cold");
    }

    #[test]
    fn causal_trace_does_not_perturb_and_links_lifecycle() {
        let mut cfg = fig5_cfg(0.4, 0.3, 11);
        cfg.duration = SimDuration::from_secs(2_000);
        cfg.sharing = Sharing::WorkConserving(Policy::Stride);
        let plain = run(&cfg);
        cfg.trace_capacity = 1 << 20;
        let traced = run(&cfg);
        // Tracing is pure observation: identical outcome either way.
        assert_eq!(plain.transmissions(), traced.transmissions());
        assert_eq!(
            plain.stats.consistency.unnormalized,
            traced.stats.consistency.unnormalized
        );
        assert!(plain.trace.is_empty());
        let t = &traced.trace;
        assert_eq!(t.dropped(), 0, "capacity must cover the whole run");
        assert_eq!(
            t.of_kind(TraceKind::Announce).count() as u64,
            traced.transmissions()
        );
        // Every scheduling decision carries the policy name.
        assert!(t.of_kind(TraceKind::Decision).count() > 0);
        assert!(t.of_kind(TraceKind::Decision).all(|e| e.label == "stride"));
        // Every channel drop parents the announcement that was lost.
        assert!(t.of_kind(TraceKind::Drop).count() > 0);
        for d in t.of_kind(TraceKind::Drop) {
            let p = &t.events()[(d.parent.raw() - 1) as usize];
            assert_eq!(p.kind, TraceKind::Announce);
            assert_eq!(p.key, d.key);
        }
        // The engine lane recorded one dispatch span per queue pop.
        assert!(t.of_kind(TraceKind::Dispatch).count() > 0);
    }

    /// 20 immortal records on a lossless channel, partitioned servers
    /// (the shared fault tests beside the engine run on it).
    pub(crate) fn bulk_lossless(seed: u64) -> TwoQueueConfig {
        TwoQueueConfig {
            arrivals: ArrivalProcess::Bulk { count: 20 },
            death: DeathProcess::Immortal,
            mu_hot: 10.0,
            mu_cold: 10.0,
            loss: LossSpec::None,
            service: ServiceModel::Deterministic,
            sharing: Sharing::Partitioned,
            seed,
            duration: SimDuration::from_secs(200),
            series_spacing: None,
            event_capacity: 0,
            trace_capacity: 0,
        }
    }

    #[test]
    fn wasted_fraction_counts_redundant_cold() {
        let r = run(&fig5_cfg(0.4, 0.1, 10));
        assert!(r.wasted_fraction() > 0.3, "waste {}", r.wasted_fraction());
        assert!(r.wasted_fraction() < 1.0);
    }
}
