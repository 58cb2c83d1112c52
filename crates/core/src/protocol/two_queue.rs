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

use super::jobs::{JobStats, LiveJobs};
use super::LossSpec;
use crate::workload::{ArrivalProcess, DeathProcess, ServiceModel};
use ss_netsim::metrics::{AverageId, CounterId, EventKind, EventLog, MetricsSnapshot, QueueClass};
use ss_netsim::trace::{Actor, TraceKind, Tracer};
use ss_netsim::{
    run_until, run_until_traced, EventQueue, FaultSchedule, FaultSpec, Handle, LossModel,
    SimDuration, SimRng, SimTime, TracedWorld, World,
};
use ss_sched::{Drr, Lottery, Metered, Scheduler, Sfq, StrictPriority, Stride};
use std::collections::VecDeque;

/// Which transmission queue served a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
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
        let t = self.transmissions();
        if t == 0 {
            0.0
        } else {
            self.redundant_transmissions as f64 / t as f64
        }
    }
}

enum Ev {
    Arrival,
    Done {
        h: Handle,
        src: Src,
    },
    /// Lifetime-based expiry (only under [`DeathProcess::Lifetime`]).
    /// Carries the record's generational handle: stale after death.
    LifetimeEnd(Handle),
    /// A fault-episode boundary (only scheduled with a non-empty
    /// [`FaultSpec`]): crash wipes apply here.
    FaultEdge,
}

/// Per-record protocol state, stored inline in the record's arena slot.
#[derive(Clone, Copy, Debug, Default)]
struct TqJob {
    /// Currently on the wire (for lifetime-death deferral).
    in_service: bool,
    /// Lifetime ended mid-service; killed at completion.
    doomed: bool,
}

struct Sim {
    cfg: TwoQueueConfig,
    hot: VecDeque<Handle>,
    cold: VecDeque<Handle>,
    /// Partitioned mode: per-server busy records. Work-conserving mode:
    /// only `busy_hot` is used, for the single shared server.
    busy_hot: bool,
    busy_cold: bool,
    sched: Option<Metered<Box<dyn Scheduler>>>,
    jobs: LiveJobs<TqJob>,
    loss: Box<dyn LossModel>,
    faults: FaultSchedule,
    next_id: u64,
    c_hot_tx: CounterId,
    c_cold_tx: CounterId,
    c_redundant: CounterId,
    c_lost: CounterId,
    c_fault_lost: CounterId,
    a_hot_backlog: AverageId,
    rng_arrival: SimRng,
    rng_service: SimRng,
    rng_loss: SimRng,
    rng_death: SimRng,
    rng_sched: SimRng,
    rng_update: SimRng,
}

const HOT: usize = 0;
const COLD: usize = 1;

/// Pops the next live record from `queue` (skipping stale handles of
/// lifetime-expired records left behind for lazy removal).
fn pop_live(queue: &mut VecDeque<Handle>, jobs: &LiveJobs<TqJob>) -> Option<Handle> {
    while let Some(h) = queue.pop_front() {
        if jobs.contains(h) {
            return Some(h);
        }
    }
    None
}

/// Drops dead records from the head of `queue`.
fn purge_dead(queue: &mut VecDeque<Handle>, jobs: &LiveJobs<TqJob>) {
    while let Some(&h) = queue.front() {
        if jobs.contains(h) {
            break;
        }
        queue.pop_front();
    }
}

/// Scales the two rates into small integer scheduler weights (granularity
/// 1/20 of the total), keeping round-robin-style policies like DRR from
/// serving enormous bursts per class visit.
fn weights_of(mu_hot: f64, mu_cold: f64) -> (u64, u64) {
    let total = mu_hot + mu_cold;
    if total <= 0.0 {
        return (0, 0);
    }
    let w = |mu: f64| -> u64 {
        if mu <= 0.0 {
            0
        } else {
            ((mu / total * 20.0).round() as u64).max(1)
        }
    };
    (w(mu_hot), w(mu_cold))
}

impl Sim {
    fn new(cfg: TwoQueueConfig, faults: &FaultSpec) -> Self {
        let root = SimRng::new(cfg.seed);
        let loss = cfg.loss.build_batched();
        // The schedule draws from its own derived stream, so an empty
        // spec consumes nothing and every other stream is unperturbed.
        let faults = faults.build(root.derive("faults"));
        let sched = match cfg.sharing {
            Sharing::Partitioned => None,
            Sharing::WorkConserving(policy) => {
                let mut s = Metered::new(policy.build());
                let (wh, wc) = weights_of(cfg.mu_hot, cfg.mu_cold);
                s.set_weight(HOT, wh);
                s.set_weight(COLD, wc);
                Some(s)
            }
        };
        let mut jobs = LiveJobs::new(
            SimTime::ZERO,
            cfg.series_spacing,
            cfg.event_capacity,
            cfg.trace_capacity,
        );
        let c_hot_tx = jobs.metrics().counter("tx.hot");
        let c_cold_tx = jobs.metrics().counter("tx.cold");
        let c_redundant = jobs.metrics().counter("tx.redundant");
        let c_lost = jobs.metrics().counter("tx.lost");
        let c_fault_lost = jobs.metrics().counter("faults.drops");
        let a_hot_backlog =
            jobs.metrics()
                .time_average("queue.hot.backlog", SimTime::ZERO, 0.0, SimDuration::ZERO);
        Sim {
            hot: VecDeque::new(),
            cold: VecDeque::new(),
            busy_hot: false,
            busy_cold: false,
            sched,
            jobs,
            loss,
            faults,
            next_id: 0,
            c_hot_tx,
            c_cold_tx,
            c_redundant,
            c_lost,
            c_fault_lost,
            a_hot_backlog,
            rng_arrival: root.derive("arrival"),
            rng_service: root.derive("service"),
            rng_loss: root.derive("loss"),
            rng_death: root.derive("death"),
            rng_sched: root.derive("sched"),
            rng_update: root.derive("update"),
            cfg,
        }
    }

    /// Stretches a service time under an active bandwidth-degradation
    /// episode (identity without one).
    fn degraded(&self, now: SimTime, st: SimDuration) -> SimDuration {
        let factor = self.faults.bandwidth_factor(now);
        if factor < 1.0 {
            SimDuration::from_micros((st.as_micros() as f64 / factor).round() as u64)
        } else {
            st
        }
    }

    fn note_hot_backlog(&mut self, now: SimTime) {
        let backlog = self.hot.len() as f64;
        self.jobs
            .metrics()
            .record_sample(self.a_hot_backlog, now, backlog);
    }

    fn spawn_record(&mut self, q: &mut EventQueue<Ev>) {
        let id = self.next_id;
        self.next_id += 1;
        let h = self.jobs.arrive(q.now(), id, TqJob::default());
        if let Some(life) = self.cfg.death.lifetime(&mut self.rng_death) {
            q.schedule_in(life, Ev::LifetimeEnd(h));
        }
        self.hot.push_back(h);
        self.note_hot_backlog(q.now());
        self.kick(q);
    }

    /// Marks `h` on the wire (lifetime deaths defer to completion).
    fn mark_in_service(&mut self, h: Handle) {
        self.jobs.extra_mut(h).expect("live record").in_service = true;
    }

    /// Starts whatever service the sharing mode allows.
    fn kick(&mut self, q: &mut EventQueue<Ev>) {
        match self.cfg.sharing {
            Sharing::Partitioned => {
                if !self.busy_hot && self.cfg.mu_hot > 0.0 {
                    if let Some(h) = pop_live(&mut self.hot, &self.jobs) {
                        self.note_hot_backlog(q.now());
                        self.busy_hot = true;
                        self.mark_in_service(h);
                        let st = self
                            .cfg
                            .service
                            .service_time(self.cfg.mu_hot, &mut self.rng_service);
                        let st = self.degraded(q.now(), st);
                        q.schedule_in(st, Ev::Done { h, src: Src::Hot });
                    }
                }
                if !self.busy_cold && self.cfg.mu_cold > 0.0 {
                    if let Some(h) = pop_live(&mut self.cold, &self.jobs) {
                        self.busy_cold = true;
                        self.mark_in_service(h);
                        let st = self
                            .cfg
                            .service
                            .service_time(self.cfg.mu_cold, &mut self.rng_service);
                        let st = self.degraded(q.now(), st);
                        q.schedule_in(st, Ev::Done { h, src: Src::Cold });
                    }
                }
            }
            Sharing::WorkConserving(_) => {
                if self.busy_hot {
                    return;
                }
                let mu_data = self.cfg.mu_hot + self.cfg.mu_cold;
                if mu_data <= 0.0 {
                    return;
                }
                // Purge dead heads first so backlog flags are truthful.
                purge_dead(&mut self.hot, &self.jobs);
                purge_dead(&mut self.cold, &self.jobs);
                let sched = self.sched.as_mut().expect("scheduler for WC mode");
                sched.set_backlogged(HOT, !self.hot.is_empty());
                sched.set_backlogged(COLD, !self.cold.is_empty());
                let Some(class) =
                    sched.pick_traced(q.now(), &mut self.rng_sched, self.jobs.tracer())
                else {
                    return;
                };
                sched.charge(class, 1);
                let (h, src) = if class == HOT {
                    let h = self.hot.pop_front().expect("hot backlog flag stale");
                    self.note_hot_backlog(q.now());
                    (h, Src::Hot)
                } else {
                    (
                        self.cold.pop_front().expect("cold backlog flag stale"),
                        Src::Cold,
                    )
                };
                self.busy_hot = true;
                self.mark_in_service(h);
                let st = self
                    .cfg
                    .service
                    .service_time(mu_data, &mut self.rng_service);
                let st = self.degraded(q.now(), st);
                q.schedule_in(st, Ev::Done { h, src });
            }
        }
    }

    fn complete(&mut self, q: &mut EventQueue<Ev>, h: Handle, src: Src) {
        self.jobs
            .extra_mut(h)
            .expect("completing record is live")
            .in_service = false;
        let now = q.now();
        let id = self.jobs.id_of(h);
        let (c_src, queue) = match src {
            Src::Hot => (self.c_hot_tx, QueueClass::Hot),
            Src::Cold => (self.c_cold_tx, QueueClass::Cold),
        };
        self.jobs.metrics().inc(c_src);
        self.jobs.events().log(now, EventKind::Announce(queue), id);
        let tx_actor = match src {
            Src::Hot => Actor::HotServer,
            Src::Cold => Actor::ColdServer,
        };
        let tx_id = self
            .jobs
            .tracer()
            .instant(now, tx_actor, TraceKind::Announce, id);
        let was_consistent = self.jobs.is_consistent(h);
        if was_consistent {
            let c_redundant = self.c_redundant;
            self.jobs.metrics().inc(c_redundant);
        }
        // The baseline channel draw always happens (the stream must not
        // depend on the fault schedule); fault checks layer on top.
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
                self.jobs
                    .tracer()
                    .instant_under(now, Actor::Channel, TraceKind::Drop, id, tx_id);
            }
        }
        // The death draw comes from its own stream (`rng_death`), so
        // hoisting it above delivery leaves every random stream intact.
        let dies = self.cfg.death.dies_after_service(&mut self.rng_death)
            || self
                .jobs
                .extra(h)
                .expect("completing record is live")
                .doomed;
        let outcome = super::machine::classify_service(was_consistent, lost, dies);
        if outcome.delivers {
            self.jobs.deliver(now, h, tx_id);
        }
        if !outcome.survives {
            self.jobs.kill(now, h);
        } else {
            // Hot-served records age into the cold queue; cold-served
            // records cycle back to its tail.
            if src == Src::Hot {
                self.jobs.events().log(now, EventKind::Demote, id);
                self.jobs
                    .tracer()
                    .instant(now, Actor::ColdServer, TraceKind::Demote, id);
            }
            self.cold.push_back(h);
        }
    }

    /// An arrival: a new record, or — once an update workload's keyspace
    /// is full — an in-place update of a random live record. The stale
    /// record refreshes through its existing queue position (the cold
    /// cycle); promotion-on-update is the feedback variant's job.
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
                if let Some(x) = self.jobs.extra_mut(h) {
                    if x.in_service {
                        x.doomed = true;
                    } else {
                        self.jobs.kill(q.now(), h);
                    }
                }
            }
            Ev::Done { h, src } => {
                match (self.cfg.sharing, src) {
                    (Sharing::Partitioned, Src::Hot) => self.busy_hot = false,
                    (Sharing::Partitioned, Src::Cold) => self.busy_cold = false,
                    (Sharing::WorkConserving(_), _) => self.busy_hot = false,
                }
                self.complete(q, h, src);
                self.kick(q);
            }
            Ev::FaultEdge => {
                // A receiver crash beginning now wipes the replica: every
                // consistent record is stale again and must re-propagate
                // through the cold cycle after the restart.
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
            Ev::Done { src: Src::Hot, .. } => "done-hot",
            Ev::Done { src: Src::Cold, .. } => "done-cold",
            Ev::LifetimeEnd(_) => "lifetime-end",
            Ev::FaultEdge => "fault-edge",
        }
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

    // Observation consumes no randomness, so the traced and profiled
    // loops replay the plain run exactly; the branch keeps the common
    // path zero-cost.
    if ss_netsim::profile::is_enabled() {
        ss_netsim::run_until_profiled(&mut sim, &mut q, end);
        ss_netsim::profile::flush();
    } else if sim.jobs.tracer().is_enabled() {
        run_until_traced(&mut sim, &mut q, end);
    } else {
        run_until(&mut sim, &mut q, end);
    }

    let hot_tx = sim.jobs.metrics().counter_value(sim.c_hot_tx);
    let cold_tx = sim.jobs.metrics().counter_value(sim.c_cold_tx);
    let redundant = sim.jobs.metrics().counter_value(sim.c_redundant);
    let lost = sim.jobs.metrics().counter_value(sim.c_lost);
    if let Some(sched) = sim.sched.take() {
        sched.export_into(sim.jobs.metrics(), "sched");
    }
    let c_dispatched = sim.jobs.metrics().counter("engine.events_dispatched");
    sim.jobs.metrics().add(c_dispatched, q.dispatched());
    let c_scheduled = sim.jobs.metrics().counter("engine.events_scheduled");
    sim.jobs.metrics().add(c_scheduled, q.scheduled());

    let total_tx = hot_tx + cold_tx;
    let observed_loss_rate = if total_tx == 0 {
        0.0
    } else {
        lost as f64 / total_tx as f64
    };
    let fault_drops = sim.jobs.metrics().counter_value(sim.c_fault_lost);
    let mean_hot_backlog = sim
        .jobs
        .metrics()
        .average_value(sim.a_hot_backlog)
        .mean_until(end);
    let (stats, metrics, events, trace) = sim.jobs.finish(end);
    let final_hot_backlog = sim.hot.len();
    TwoQueueReport {
        stats,
        hot_transmissions: hot_tx,
        cold_transmissions: cold_tx,
        redundant_transmissions: redundant,
        observed_loss_rate,
        fault_drops,
        mean_hot_backlog,
        final_hot_backlog,
        metrics,
        events,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 5's workload in packets/s: λ = 1.875/s (15 kbps),
    /// μ_data = 5.625/s (45 kbps), split by `hot_share`.
    fn fig5_cfg(hot_share: f64, p_loss: f64, seed: u64) -> TwoQueueConfig {
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
    fn deterministic_given_seed() {
        let a = run(&fig5_cfg(0.4, 0.3, 9));
        let b = run(&fig5_cfg(0.4, 0.3, 9));
        assert_eq!(a.transmissions(), b.transmissions());
        assert_eq!(
            a.stats.consistency.unnormalized,
            b.stats.consistency.unnormalized
        );
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

    #[test]
    fn empty_fault_spec_is_byte_identical() {
        let cfg = fig5_cfg(0.4, 0.3, 17);
        let a = run(&cfg);
        let b = run_faulted(&cfg, &FaultSpec::none());
        assert_eq!(a.transmissions(), b.transmissions());
        assert_eq!(
            a.stats.consistency.unnormalized.to_bits(),
            b.stats.consistency.unnormalized.to_bits()
        );
        assert_eq!(b.fault_drops, 0);
    }

    #[test]
    fn partition_blocks_then_heals_via_cold_cycle() {
        // Immortal bulk records, lossless channel: a partition drops a
        // stretch of announcements, but the cold cycle re-announces until
        // everyone is delivered after the heal.
        let cfg = TwoQueueConfig {
            arrivals: ArrivalProcess::Bulk { count: 20 },
            death: DeathProcess::Immortal,
            mu_hot: 10.0,
            mu_cold: 10.0,
            loss: LossSpec::None,
            service: ServiceModel::Deterministic,
            sharing: Sharing::Partitioned,
            seed: 18,
            duration: SimDuration::from_secs(200),
            series_spacing: None,
            event_capacity: 0,
            trace_capacity: 0,
        };
        let faults = FaultSpec::none().partition(SimTime::from_secs(1), SimTime::from_secs(30));
        let r = run_faulted(&cfg, &faults);
        assert!(r.fault_drops > 0, "partition dropped announcements");
        assert_eq!(r.stats.latency.count(), 20, "all delivered after heal");
        // A receiver crash mid-run wipes the replica; the cold cycle then
        // re-delivers every record a second time.
        let crash =
            FaultSpec::none().receiver_crash(SimTime::from_secs(60), SimTime::from_secs(70), 0);
        let r = run_faulted(&cfg, &crash);
        assert_eq!(r.stats.updates, 20, "crash wipe flips every record");
        assert_eq!(r.metrics.counter("records.delivered"), 40);
    }

    #[test]
    fn wasted_fraction_counts_redundant_cold() {
        let r = run(&fig5_cfg(0.4, 0.1, 10));
        assert!(r.wasted_fraction() > 0.3, "waste {}", r.wasted_fraction());
        assert!(r.wasted_fraction() < 1.0);
    }
}
