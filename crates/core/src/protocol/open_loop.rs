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

use super::jobs::{JobStats, LiveJobs};
use super::{LossSpec, TransitionCounts};
use crate::workload::{ArrivalProcess, DeathProcess, ServiceModel};
use ss_netsim::metrics::{CounterId, EventKind, EventLog, MetricsSnapshot, QueueClass};
use ss_netsim::trace::{Actor, TraceKind, Tracer};
use ss_netsim::{
    run_until, run_until_traced, EventQueue, FaultSchedule, FaultSpec, Handle, LossModel,
    SimDuration, SimRng, SimTime, TracedWorld, World,
};
use std::collections::VecDeque;

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
        if self.transmissions == 0 {
            0.0
        } else {
            self.redundant_transmissions as f64 / self.transmissions as f64
        }
    }
}

enum Ev {
    Arrival,
    ServiceDone(Handle),
    /// Lifetime-based expiry (only scheduled under
    /// [`DeathProcess::Lifetime`]). Carries the record's generational
    /// handle: if the record died first, the handle is stale and the
    /// event is a no-op — no map lookup needed.
    LifetimeEnd(Handle),
    /// A fault-episode boundary (only scheduled with a non-empty
    /// [`FaultSpec`]): crash wipes apply here.
    FaultEdge,
}

/// Per-record protocol state, stored inline in the record's arena slot.
#[derive(Clone, Copy, Debug, Default)]
struct OlJob {
    /// Lifetime ended while in service; the record dies at the service
    /// completion instead of vanishing off the wire.
    doomed: bool,
}

struct Sim {
    cfg: OpenLoopConfig,
    queue: VecDeque<Handle>,
    serving: Option<Handle>,
    jobs: LiveJobs<OlJob>,
    loss: Box<dyn LossModel>,
    faults: FaultSchedule,
    next_id: u64,
    c_tx: CounterId,
    c_redundant: CounterId,
    c_lost: CounterId,
    c_fault_lost: CounterId,
    transitions: TransitionCounts,
    rng_arrival: SimRng,
    rng_service: SimRng,
    rng_loss: SimRng,
    rng_death: SimRng,
    rng_update: SimRng,
}

impl Sim {
    fn new(cfg: OpenLoopConfig, faults: &FaultSpec) -> Self {
        let root = SimRng::new(cfg.seed);
        let loss = cfg.loss.build_batched();
        // The schedule draws from its own derived stream, so an empty
        // spec consumes nothing and every other stream is unperturbed.
        let faults = faults.build(root.derive("faults"));
        let mut jobs = LiveJobs::new(
            SimTime::ZERO,
            cfg.series_spacing,
            cfg.event_capacity,
            cfg.trace_capacity,
        );
        let c_tx = jobs.metrics().counter("tx.total");
        let c_redundant = jobs.metrics().counter("tx.redundant");
        let c_lost = jobs.metrics().counter("tx.lost");
        let c_fault_lost = jobs.metrics().counter("faults.drops");
        Sim {
            queue: VecDeque::new(),
            serving: None,
            jobs,
            loss,
            faults,
            next_id: 0,
            c_tx,
            c_redundant,
            c_lost,
            c_fault_lost,
            transitions: TransitionCounts::default(),
            rng_arrival: root.derive("arrival"),
            rng_service: root.derive("service"),
            rng_loss: root.derive("loss"),
            rng_death: root.derive("death"),
            rng_update: root.derive("update"),
            cfg,
        }
    }

    fn spawn_record(&mut self, q: &mut EventQueue<Ev>) {
        let id = self.next_id;
        self.next_id += 1;
        let h = self.jobs.arrive(q.now(), id, OlJob::default());
        if let Some(life) = self.cfg.death.lifetime(&mut self.rng_death) {
            q.schedule_in(life, Ev::LifetimeEnd(h));
        }
        self.queue.push_back(h);
        self.maybe_start_service(q);
    }

    fn maybe_start_service(&mut self, q: &mut EventQueue<Ev>) {
        if self.serving.is_some() {
            return;
        }
        let h = loop {
            let Some(h) = self.queue.pop_front() else {
                return;
            };
            if self.jobs.contains(h) {
                break h;
            }
            // Expired while queued (lifetime death): skip.
        };
        self.serving = Some(h);
        let mut st = self
            .cfg
            .service
            .service_time(self.cfg.mu, &mut self.rng_service);
        // Bandwidth-degradation episodes stretch serialization times.
        let factor = self.faults.bandwidth_factor(q.now());
        if factor < 1.0 {
            st = SimDuration::from_micros((st.as_micros() as f64 / factor).round() as u64);
        }
        q.schedule_in(st, Ev::ServiceDone(h));
    }

    /// An arrival event: a new record, or — once an update workload's
    /// keyspace is full — an in-place update of a random live record,
    /// which makes the receiver's copy stale again. The record keeps its
    /// place in the announcement cycle, so the new version propagates on
    /// its next announcement.
    fn handle_arrival(&mut self, q: &mut EventQueue<Ev>) {
        if let ArrivalProcess::PoissonUpdates { keys, .. } = self.cfg.arrivals {
            if self.jobs.len() as u64 >= keys {
                if let Some(h) = self.jobs.random_live(&mut self.rng_update) {
                    self.jobs.invalidate(q.now(), h);
                }
                return;
            }
        }
        self.spawn_record(q);
    }

    fn schedule_next_arrival(&mut self, q: &mut EventQueue<Ev>) {
        if let Some(dt) = self.cfg.arrivals.next_interarrival(&mut self.rng_arrival) {
            q.schedule_in(dt, Ev::Arrival);
        }
    }
}

impl World for Sim {
    type Event = Ev;

    fn handle(&mut self, q: &mut EventQueue<Ev>, ev: Ev) {
        match ev {
            Ev::Arrival => {
                self.handle_arrival(q);
                self.schedule_next_arrival(q);
            }
            Ev::LifetimeEnd(h) => {
                if self.jobs.contains(h) {
                    if self.serving == Some(h) {
                        // In flight: die at service completion.
                        self.jobs.extra_mut(h).expect("live record").doomed = true;
                    } else {
                        // Waiting in the queue: removed lazily at pop.
                        if self.jobs.kill(q.now(), h) {
                            self.transitions.c_death += 1;
                        } else {
                            self.transitions.i_death += 1;
                        }
                    }
                }
            }
            Ev::ServiceDone(h) => {
                debug_assert_eq!(self.serving, Some(h));
                self.serving = None;
                let now = q.now();
                let id = self.jobs.id_of(h);
                self.jobs
                    .events()
                    .log(now, EventKind::Announce(QueueClass::Hot), id);
                let tx_id =
                    self.jobs
                        .tracer()
                        .instant(now, Actor::HotServer, TraceKind::Announce, id);
                let c_tx = self.c_tx;
                self.jobs.metrics().inc(c_tx);

                let was_consistent = self.jobs.is_consistent(h);
                if was_consistent {
                    let c_redundant = self.c_redundant;
                    self.jobs.metrics().inc(c_redundant);
                }
                // The baseline channel draw always happens (the stream
                // must not depend on the fault schedule); fault checks
                // layer on top.
                let chan_lost = self.loss.is_lost(&mut self.rng_loss);
                let fault_lost = self.faults.sender_silent(now)
                    || self.faults.data_blocked(now)
                    || self.faults.receiver_down(now, 0)
                    || self.faults.extra_loss(now);
                let lost = chan_lost || fault_lost;
                if lost {
                    let c_lost = self.c_lost;
                    self.jobs.metrics().inc(c_lost);
                    self.jobs.events().log(now, EventKind::Drop, id);
                    if fault_lost && !chan_lost {
                        let c_fault = self.c_fault_lost;
                        self.jobs.metrics().inc(c_fault);
                        self.jobs.tracer().instant_labeled(
                            now,
                            Actor::Channel,
                            TraceKind::Drop,
                            id,
                            tx_id,
                            "fault",
                        );
                    } else {
                        self.jobs.tracer().instant_under(
                            now,
                            Actor::Channel,
                            TraceKind::Drop,
                            id,
                            tx_id,
                        );
                    }
                }
                let dies = self.cfg.death.dies_after_service(&mut self.rng_death)
                    || self.jobs.extra(h).expect("serving record is live").doomed;
                let outcome = super::machine::classify_service(was_consistent, lost, dies);
                self.transitions.record(outcome.transition);
                if outcome.delivers {
                    self.jobs.deliver(q.now(), h, tx_id);
                }
                if outcome.survives {
                    self.queue.push_back(h);
                } else {
                    self.jobs.kill(q.now(), h);
                }
                self.maybe_start_service(q);
            }
            Ev::FaultEdge => {
                // A receiver crash beginning now wipes the replica: every
                // consistent record is stale again and must re-propagate
                // through the announcement cycle after the restart.
                if !self.faults.crashes_at(q.now()).is_empty() {
                    self.jobs.wipe(q.now());
                }
            }
        }
    }
}

impl TracedWorld for Sim {
    fn tracer(&mut self) -> &mut Tracer {
        self.jobs.tracer()
    }

    fn event_label(ev: &Ev) -> &'static str {
        match ev {
            Ev::Arrival => "arrival",
            Ev::ServiceDone(_) => "service-done",
            Ev::LifetimeEnd(_) => "lifetime-end",
            Ev::FaultEdge => "fault-edge",
        }
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
    let mut sim = Sim::new(cfg.clone(), faults);
    let mut q: EventQueue<Ev> = EventQueue::with_capacity(256);
    let end = SimTime::ZERO + cfg.duration;

    if sim.jobs.tracer().is_enabled() {
        let Sim { faults, jobs, .. } = &mut sim;
        faults.record_spans(jobs.tracer());
    }
    for t in sim.faults.boundaries() {
        if t < end {
            q.schedule(t, Ev::FaultEdge);
        }
    }
    for _ in 0..cfg.arrivals.initial_count() {
        sim.spawn_record(&mut q);
    }
    sim.schedule_next_arrival(&mut q);

    // The traced/profiled loops add a per-dispatch branch; runs without
    // either keep the plain loop so observation is zero-cost when off.
    if ss_netsim::profile::is_enabled() {
        ss_netsim::run_until_profiled(&mut sim, &mut q, end);
        ss_netsim::profile::flush();
    } else if sim.jobs.tracer().is_enabled() {
        run_until_traced(&mut sim, &mut q, end);
    } else {
        run_until(&mut sim, &mut q, end);
    }

    let transmissions = sim.jobs.metrics().counter_value(sim.c_tx);
    let redundant = sim.jobs.metrics().counter_value(sim.c_redundant);
    let lost = sim.jobs.metrics().counter_value(sim.c_lost);
    let c_dispatched = sim.jobs.metrics().counter("engine.events_dispatched");
    sim.jobs.metrics().add(c_dispatched, q.dispatched());
    let c_scheduled = sim.jobs.metrics().counter("engine.events_scheduled");
    sim.jobs.metrics().add(c_scheduled, q.scheduled());

    let observed_loss_rate = if transmissions == 0 {
        0.0
    } else {
        lost as f64 / transmissions as f64
    };
    let fault_drops = sim.jobs.metrics().counter_value(sim.c_fault_lost);
    let (stats, metrics, events, trace) = sim.jobs.finish(end);
    OpenLoopReport {
        stats,
        transmissions,
        redundant_transmissions: redundant,
        transitions: sim.transitions,
        observed_loss_rate,
        fault_drops,
        metrics,
        events,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_queueing::OpenLoop;

    /// A standard validation run: stable, moderate loss/death.
    fn validation_cfg(seed: u64) -> OpenLoopConfig {
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
    fn deterministic_given_seed() {
        let a = run(&validation_cfg(7));
        let b = run(&validation_cfg(7));
        assert_eq!(a.transmissions, b.transmissions);
        assert_eq!(a.stats.arrivals, b.stats.arrivals);
        assert_eq!(
            a.stats.consistency.unnormalized,
            b.stats.consistency.unnormalized
        );
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

    #[test]
    fn empty_fault_spec_is_byte_identical() {
        let cfg = validation_cfg(31);
        let a = run(&cfg);
        let b = run_faulted(&cfg, &FaultSpec::none());
        assert_eq!(a.transmissions, b.transmissions);
        assert_eq!(a.stats.arrivals, b.stats.arrivals);
        assert_eq!(
            a.stats.consistency.unnormalized.to_bits(),
            b.stats.consistency.unnormalized.to_bits()
        );
        assert_eq!(a.fault_drops, 0);
    }

    fn bulk_lossless(seed: u64) -> OpenLoopConfig {
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
    fn partition_blocks_then_heals() {
        let faults = FaultSpec::none().partition(SimTime::from_secs(1), SimTime::from_secs(20));
        let r = run_faulted(&bulk_lossless(41), &faults);
        assert!(r.fault_drops > 0, "partition dropped announcements");
        assert_eq!(
            r.stats.latency.count(),
            30,
            "every record delivered after heal"
        );
        assert_eq!(r.stats.final_live, 30);
    }

    #[test]
    fn receiver_crash_wipes_and_reconverges() {
        // All 30 records are consistent well before t=30; the crash wipes
        // the replica (30 update transitions), the down episode drops the
        // cycle's announcements, and after restart every record is
        // re-delivered: exactly 60 I → C transitions in total.
        let faults =
            FaultSpec::none().receiver_crash(SimTime::from_secs(30), SimTime::from_secs(40), 0);
        let r = run_faulted(&bulk_lossless(42), &faults);
        assert_eq!(r.stats.updates, 30, "crash wipe flips every record");
        assert_eq!(r.metrics.counter("records.delivered"), 60);
        assert!(r.fault_drops > 0);
        assert!(r.stats.consistency.busy.unwrap() > 0.8);
    }

    #[test]
    fn faulted_runs_replay_bit_for_bit() {
        let faults = FaultSpec::generate(&mut SimRng::new(5), 1, SimDuration::from_secs(100), 3);
        let a = run_faulted(&bulk_lossless(43), &faults);
        let b = run_faulted(&bulk_lossless(43), &faults);
        assert_eq!(a.transmissions, b.transmissions);
        assert_eq!(a.fault_drops, b.fault_drops);
        assert_eq!(
            a.stats.consistency.unnormalized.to_bits(),
            b.stats.consistency.unnormalized.to_bits()
        );
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
