//! The one H/C/D simulation behind [`super::open_loop`],
//! [`super::two_queue`] and [`super::feedback`].
//!
//! The paper builds its protocol by refinement of one model: §3 cycles
//! every record through a single announcement queue, §4 splits off a cold
//! queue for already-transmitted records, §5 adds a NACK channel that
//! moves a missed record cold → hot (Figure 7). So there is one `Sim`
//! here, and a [`Shape`] fixes which refinement it is from three protocol
//! facts: *where a surviving record re-enters* ([`Reentry`]), *how the
//! data servers share bandwidth* ([`Sharing`]) and *whether a feedback
//! channel exists* ([`Feedback`]). The variant modules translate their
//! public config into a shape and the [`Totals`] back into their report;
//! the shape is resolved into plain fields once in `Sim::new`, so the
//! dispatch path branches on data, never through a trait.
//!
//! What differs between the variants beyond those facts is *naming* that
//! sits in committed artifacts — transmission counters, dispatch labels,
//! whether a Hot → Cold move is logged — and rides in the shape as data
//! (DESIGN.md §14 has the table and why each row is pinned).
//!
//! Draw order is part of the contract (equal seeds give every variant
//! equal arrival/death/loss draws): at a completion the channel draw, the
//! fault checks, then the death draw; in [`Sim::kick`] the hot, cold, then
//! feedback service draws, all from the one `service` stream.

use super::jobs::{JobStats, LiveJobs};
use super::machine::{classify_service, should_nack, should_promote, Loc, Transition};
use super::two_queue::{Sharing, Src};
use super::{LossSpec, TransitionCounts};
use crate::workload::{ArrivalProcess, DeathProcess, ServiceModel};
use ss_netsim::metrics::{AverageId, CounterId, EventKind, EventLog, MetricsSnapshot, QueueClass};
use ss_netsim::trace::{Actor, TraceId, TraceKind, Tracer};
use ss_netsim::{
    run_until, run_until_traced, EventQueue, FaultSchedule, FaultSpec, Handle, LossModel,
    SimDuration, SimRng, SimTime, TracedWorld, World,
};
use ss_sched::{Metered, Scheduler};
use std::collections::VecDeque;

/// Where a record that survived its announcement waits next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Reentry {
    /// The queue it was served from — §3's single announcement cycle.
    /// Every record then lives in the hot queue, whose backlog is the
    /// live set, so no separate `queue.hot.backlog` average is kept.
    Served,
    /// The cold queue — the Hot → Cold edge of §4 and Figure 7.
    Cold,
}

/// §5's receiver → sender NACK channel.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Feedback {
    /// NACKs/s. At zero the channel's metrics exist but the receiver
    /// never generates a NACK.
    pub mu: f64,
    /// Loss process of the feedback direction.
    pub loss: LossSpec,
}

/// Everything that fixes one run: the workload, then the three protocol
/// facts, then the names the variant's artifacts use.
#[derive(Clone, Debug)]
pub(crate) struct Shape {
    pub arrivals: ArrivalProcess,
    pub death: DeathProcess,
    pub loss: LossSpec,
    pub service: ServiceModel,
    pub seed: u64,
    pub duration: SimDuration,
    pub series_spacing: Option<SimDuration>,
    pub event_capacity: usize,
    pub trace_capacity: usize,
    /// Announcements/s of the hot and cold servers, indexed by [`Src`].
    pub mu: [f64; 2],
    pub reentry: Reentry,
    pub sharing: Sharing,
    pub feedback: Option<Feedback>,
    /// Counter incremented per announcement, by serving queue.
    pub tx_counters: [&'static str; 2],
    /// Dispatch labels of a hot, cold and feedback completion.
    pub done_labels: [&'static str; 3],
    /// Whether a hot-served survivor's move to the cold queue is logged
    /// as `Demote` (event log and trace).
    pub logs_demote: bool,
}

/// What a run measured, before a variant names it in its report. Fields
/// of a mechanism the shape lacks are zero.
pub(crate) struct Totals {
    pub stats: JobStats,
    pub metrics: MetricsSnapshot,
    pub events: EventLog,
    pub trace: Tracer,
    /// Announcements per [`Shape::tx_counters`] entry.
    pub tx: [u64; 2],
    pub redundant: u64,
    pub lost: u64,
    pub fault_drops: u64,
    /// Table 1 tallies, including records that died waiting in a queue.
    pub transitions: TransitionCounts,
    pub mean_hot_backlog: f64,
    pub final_hot_backlog: usize,
    pub nacks_generated: u64,
    pub nacks_delivered: u64,
    pub promotions: u64,
    pub mean_fb_backlog: f64,
}

/// `part / whole`, or 0 of nothing — loss rates and wasted fractions.
pub(crate) fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

enum Ev {
    Arrival,
    /// A data announcement of `h`, served from queue `src`, completed.
    Done {
        h: Handle,
        src: Src,
    },
    /// A NACK for `h` left the feedback channel.
    FbDone(Handle),
    /// Lifetime-based expiry (only under [`DeathProcess::Lifetime`]).
    /// Carries the record's generational handle: if the record died
    /// first the handle is stale and the event is a no-op.
    LifetimeEnd(Handle),
    /// A fault-episode boundary (only scheduled with a non-empty
    /// [`FaultSpec`]): crash wipes apply here.
    FaultEdge,
}

/// The feedback channel's runtime half (present iff [`Shape::feedback`]).
struct FbChannel {
    mu: f64,
    queue: VecDeque<Handle>,
    busy: bool,
    loss: Box<dyn LossModel>,
    rng_loss: SimRng,
    c_generated: CounterId,
    c_delivered: CounterId,
    c_promotions: CounterId,
    a_backlog: AverageId,
}

const HOT: usize = Src::Hot as usize;
const COLD: usize = Src::Cold as usize;

struct Sim {
    arrivals: ArrivalProcess,
    death: DeathProcess,
    service: ServiceModel,
    mu: [f64; 2],
    reentry: Reentry,
    done_labels: [&'static str; 3],
    logs_demote: bool,
    queues: [VecDeque<Handle>; 2],
    /// Per data server. Work-conserving sharing has one server: `busy[0]`.
    busy: [bool; 2],
    /// Present iff the sharing is work-conserving.
    sched: Option<Metered<Box<dyn Scheduler>>>,
    fb: Option<FbChannel>,
    jobs: LiveJobs,
    loss: Box<dyn LossModel>,
    faults: FaultSchedule,
    next_id: u64,
    transitions: TransitionCounts,
    c_tx: [CounterId; 2],
    c_redundant: CounterId,
    c_lost: CounterId,
    c_fault_lost: CounterId,
    a_hot_backlog: Option<AverageId>,
    rng_arrival: SimRng,
    rng_service: SimRng,
    rng_loss: SimRng,
    rng_death: SimRng,
    rng_sched: SimRng,
    rng_update: SimRng,
}

/// The queue location a record waiting to be served from `src` has.
fn waiting_in(src: Src) -> Loc {
    match src {
        Src::Hot => Loc::Hot,
        Src::Cold => Loc::Cold,
    }
}

/// Drops entries from the head of `queue` that no longer wait there: the
/// record died (a stale handle reads as no location) or was promoted out.
fn purge_stale(queue: &mut VecDeque<Handle>, jobs: &LiveJobs, want: Loc) {
    while let Some(&h) = queue.front() {
        if jobs.job(h).map(|x| x.loc) == Some(want) {
            break;
        }
        queue.pop_front();
    }
}

/// Pops the next record still waiting in `queue` (skipping stale entries
/// like [`purge_stale`]) and marks it on the wire.
fn pop_waiting(queue: &mut VecDeque<Handle>, jobs: &mut LiveJobs, want: Loc) -> Option<Handle> {
    while let Some(h) = queue.pop_front() {
        if let Some(x) = jobs.job_mut(h).filter(|x| x.loc == want) {
            x.loc = Loc::Serving;
            return Some(h);
        }
    }
    None
}

/// Scales the two rates into small integer scheduler weights (granularity
/// 1/20 of the total), keeping round-robin-style policies like DRR from
/// serving enormous bursts per class visit.
fn weights_of(mu: [f64; 2]) -> [u64; 2] {
    let total = mu[HOT] + mu[COLD];
    mu.map(|m| {
        if total <= 0.0 || m <= 0.0 {
            0
        } else {
            ((m / total * 20.0).round() as u64).max(1)
        }
    })
}

impl Sim {
    fn new(shape: &Shape, faults: &FaultSpec) -> Self {
        let root = SimRng::new(shape.seed);
        let start = SimTime::ZERO;
        let mut jobs = LiveJobs::new(
            start,
            shape.series_spacing,
            shape.event_capacity,
            shape.trace_capacity,
        );
        let m = jobs.metrics();
        let c_tx = shape.tx_counters.map(|name| m.counter(name));
        let a_hot_backlog = (shape.reentry == Reentry::Cold)
            .then(|| m.time_average("queue.hot.backlog", start, 0.0, SimDuration::ZERO));
        let fb = shape.feedback.map(|f| FbChannel {
            mu: f.mu,
            queue: VecDeque::new(),
            busy: false,
            loss: f.loss.build_batched(),
            rng_loss: root.derive("nack-loss"),
            c_generated: m.counter("nack.generated"),
            c_delivered: m.counter("nack.delivered"),
            c_promotions: m.counter("nack.promotions"),
            a_backlog: m.time_average("queue.fb.backlog", start, 0.0, SimDuration::ZERO),
        });
        let sched = match shape.sharing {
            Sharing::Partitioned => None,
            Sharing::WorkConserving(policy) => {
                let mut s = Metered::new(policy.build());
                let [wh, wc] = weights_of(shape.mu);
                s.set_weight(HOT, wh);
                s.set_weight(COLD, wc);
                Some(s)
            }
        };
        Sim {
            arrivals: shape.arrivals,
            death: shape.death,
            service: shape.service,
            mu: shape.mu,
            reentry: shape.reentry,
            done_labels: shape.done_labels,
            logs_demote: shape.logs_demote,
            queues: [VecDeque::new(), VecDeque::new()],
            busy: [false; 2],
            sched,
            fb,
            c_tx,
            c_redundant: m.counter("tx.redundant"),
            c_lost: m.counter("tx.lost"),
            c_fault_lost: m.counter("faults.drops"),
            a_hot_backlog,
            jobs,
            loss: shape.loss.build_batched(),
            // The schedule draws from its own derived stream, so an empty
            // spec consumes nothing and every other stream is unperturbed.
            faults: faults.build(root.derive("faults")),
            next_id: 0,
            transitions: TransitionCounts::default(),
            rng_arrival: root.derive("arrival"),
            rng_service: root.derive("service"),
            rng_loss: root.derive("loss"),
            rng_death: root.derive("death"),
            rng_sched: root.derive("sched"),
            rng_update: root.derive("update"),
        }
    }

    /// Samples every registered backlog average. Called at every hot or
    /// feedback queue push and successful pop — the one rule that
    /// reproduces each variant's sampling sites (an extra sample at an
    /// unchanged value would still change the average's f64 sum).
    fn note_backlogs(&mut self, now: SimTime) {
        if let Some(a) = self.a_hot_backlog {
            let backlog = self.queues[HOT].len() as f64;
            self.jobs.metrics().record_sample(a, now, backlog);
        }
        if let Some(fb) = &self.fb {
            let backlog = fb.queue.len() as f64;
            self.jobs
                .metrics()
                .record_sample(fb.a_backlog, now, backlog);
        }
    }

    /// Puts a new or promoted record at the hot queue's tail.
    fn push_hot(&mut self, now: SimTime, h: Handle) {
        self.jobs.job_mut(h).expect("queued record is live").loc = Loc::Hot;
        self.queues[HOT].push_back(h);
        self.note_backlogs(now);
    }

    fn spawn_record(&mut self, q: &mut EventQueue<Ev>) {
        let id = self.next_id;
        self.next_id += 1;
        let h = self.jobs.arrive(q.now(), id);
        if let Some(life) = self.death.lifetime(&mut self.rng_death) {
            q.schedule_in(life, Ev::LifetimeEnd(h));
        }
        self.push_hot(q.now(), h);
        self.kick(q);
    }

    /// Puts `h`, just popped from queue `src` (and marked `Serving`), on
    /// the wire of data server `server` running at `rate`.
    fn begin_service(
        &mut self,
        q: &mut EventQueue<Ev>,
        h: Handle,
        src: Src,
        server: usize,
        rate: f64,
    ) {
        let now = q.now();
        if src == Src::Hot {
            self.note_backlogs(now);
        }
        self.busy[server] = true;
        let mut st = self.service.service_time(rate, &mut self.rng_service);
        // Bandwidth-degradation episodes stretch data serialization times
        // (the feedback channel is a separate path and is not degraded).
        let factor = self.faults.bandwidth_factor(now);
        if factor < 1.0 {
            st = SimDuration::from_micros((st.as_micros() as f64 / factor).round() as u64);
        }
        q.schedule_in(st, Ev::Done { h, src });
    }

    /// Partitioned sharing: queue `src` has its own server at `mu[src]`.
    fn start_own_server(&mut self, q: &mut EventQueue<Ev>, src: Src) {
        let i = src as usize;
        if self.busy[i] || self.mu[i] <= 0.0 {
            return;
        }
        if let Some(h) = pop_waiting(&mut self.queues[i], &mut self.jobs, waiting_in(src)) {
            self.begin_service(q, h, src, i, self.mu[i]);
        }
    }

    /// Work-conserving sharing: one server at `μ_hot + μ_cold`, the next
    /// queue chosen by the proportional-share scheduler.
    fn start_shared_server(&mut self, q: &mut EventQueue<Ev>) {
        let mu_data = self.mu[HOT] + self.mu[COLD];
        if self.busy[0] || mu_data <= 0.0 {
            return;
        }
        let sched = self.sched.as_mut().expect("scheduler for shared server");
        // Purge stale heads first so backlog flags are truthful.
        for src in [Src::Hot, Src::Cold] {
            purge_stale(&mut self.queues[src as usize], &self.jobs, waiting_in(src));
        }
        sched.set_backlogged(HOT, !self.queues[HOT].is_empty());
        sched.set_backlogged(COLD, !self.queues[COLD].is_empty());
        let Some(class) = sched.pick_traced(q.now(), &mut self.rng_sched, self.jobs.tracer())
        else {
            return;
        };
        sched.charge(class, 1);
        let src = if class == HOT { Src::Hot } else { Src::Cold };
        let h = pop_waiting(&mut self.queues[class], &mut self.jobs, waiting_in(src))
            .expect("backlog flag stale");
        self.begin_service(q, h, src, 0, mu_data);
    }

    /// Starts whatever service the shape allows. Service draws happen in
    /// hot, cold, feedback order.
    fn kick(&mut self, q: &mut EventQueue<Ev>) {
        if self.sched.is_some() {
            self.start_shared_server(q);
        } else {
            self.start_own_server(q, Src::Hot);
            self.start_own_server(q, Src::Cold);
        }
        if let Some(fb) = &mut self.fb {
            if !fb.busy && fb.mu > 0.0 {
                if let Some(h) = fb.queue.pop_front() {
                    fb.busy = true;
                    let st = self.service.service_time(fb.mu, &mut self.rng_service);
                    q.schedule_in(st, Ev::FbDone(h));
                    self.note_backlogs(q.now());
                }
            }
        }
    }

    /// A data announcement of `h` from queue `src` completed: Table 1's
    /// transition, then Figure 7's sender-side move.
    fn complete(&mut self, q: &mut EventQueue<Ev>, h: Handle, src: Src) {
        let now = q.now();
        let x = self.jobs.job_mut(h).expect("serving record is live");
        debug_assert_eq!(x.loc, Loc::Serving);
        let (id, was_consistent, doomed) = (x.id(), x.is_consistent(), x.doomed);
        let had_nack = x.nack_pending;
        // The announcement of a promoted record (always a hot one: it
        // waited in the hot queue since) retransmits *because of* the
        // promotion: parent under it, completing the causal chain
        // loss → NACK → promote → retransmit → install. With a NACK
        // pending the link is that NACK's and stays for `nack_done`.
        let promo = if had_nack {
            TraceId::NONE
        } else {
            std::mem::take(&mut x.link)
        };
        let (queue, tx_actor) = match src {
            Src::Hot => (QueueClass::Hot, Actor::HotServer),
            Src::Cold => (QueueClass::Cold, Actor::ColdServer),
        };
        self.jobs.metrics().inc(self.c_tx[src as usize]);
        self.jobs.events().log(now, EventKind::Announce(queue), id);
        let tx_id = if promo.is_some() {
            self.jobs
                .tracer()
                .instant_under(now, tx_actor, TraceKind::Announce, id, promo)
        } else {
            self.jobs
                .tracer()
                .instant(now, tx_actor, TraceKind::Announce, id)
        };
        if was_consistent {
            self.jobs.metrics().inc(self.c_redundant);
        }
        // The baseline channel draw always happens (the stream must not
        // depend on the fault schedule); fault checks layer on top.
        let chan_lost = self.loss.is_lost(&mut self.rng_loss);
        let fault_lost = self.faults.sender_silent(now)
            || self.faults.data_blocked(now)
            || self.faults.receiver_down(now, 0)
            || self.faults.extra_loss(now);
        let lost = chan_lost || fault_lost;
        let drop_id = if lost {
            self.jobs.metrics().inc(self.c_lost);
            self.jobs.events().log(now, EventKind::Drop, id);
            // A loss only a fault episode caused is counted and labelled.
            let fault_only = fault_lost && !chan_lost;
            if fault_only {
                self.jobs.metrics().inc(self.c_fault_lost);
            }
            let label = if fault_only { "fault" } else { "" };
            self.jobs.tracer().instant_labeled(
                now,
                Actor::Channel,
                TraceKind::Drop,
                id,
                tx_id,
                label,
            )
        } else {
            TraceId::NONE
        };
        // The death draw comes from its own stream (`rng_death`), so
        // taking it before delivery leaves every random stream intact.
        let dies = self.death.dies_after_service(&mut self.rng_death) || doomed;
        let outcome = classify_service(was_consistent, lost, dies);
        self.transitions.record(outcome.transition);
        if outcome.delivers {
            self.jobs.deliver(now, h, tx_id);
        }
        if !outcome.survives {
            self.jobs.kill(now, h);
            return;
        }
        let dest = match self.reentry {
            Reentry::Served => src,
            Reentry::Cold => Src::Cold,
        };
        // Receiver-side loss detection: NACK a missed record once. A loss
        // caused by a fault episode is invisible to the receiver (it is
        // partitioned or down), so no NACK — the cold cycle recovers it
        // after the heal.
        let nacks = self.fb.as_ref().is_some_and(|fb| {
            should_nack(chan_lost, fault_lost, was_consistent, fb.mu > 0.0, had_nack)
        });
        let x = self.jobs.job_mut(h).expect("survivor is live");
        x.loc = waiting_in(dest);
        if outcome.delivers && had_nack {
            // The record arrived: its outstanding NACK is moot.
            x.nack_pending = false;
            x.link = TraceId::NONE;
        }
        x.nack_pending |= nacks;
        if dest == Src::Hot {
            self.queues[HOT].push_back(h);
            self.note_backlogs(now);
        } else {
            if self.logs_demote && src == Src::Hot {
                self.jobs.events().log(now, EventKind::Demote, id);
                self.jobs
                    .tracer()
                    .instant(now, Actor::ColdServer, TraceKind::Demote, id);
            }
            self.queues[COLD].push_back(h);
        }
        if nacks {
            let fb = self.fb.as_mut().expect("NACK without a feedback channel");
            fb.queue.push_back(h);
            let c_generated = fb.c_generated;
            self.jobs.metrics().inc(c_generated);
            self.jobs.events().log(now, EventKind::Nack, id);
            // The NACK is caused by observing the loss.
            let nid = self.jobs.tracer().instant_under(
                now,
                Actor::Feedback(0),
                TraceKind::Nack,
                id,
                drop_id,
            );
            if nid.is_some() {
                self.jobs.job_mut(h).expect("survivor is live").link = nid;
            }
            self.note_backlogs(now);
        }
    }

    /// A NACK for `h` left the feedback channel: if it arrives, Figure 7's
    /// Cold → Hot edge.
    fn nack_done(&mut self, q: &mut EventQueue<Ev>, h: Handle) {
        let now = q.now();
        let fb = self.fb.as_mut().expect("NACK without a feedback channel");
        fb.busy = false;
        // Baseline draw first; the feedback direction is blocked by
        // feedback-partitions and by a down receiver (which cannot have
        // sent the NACK).
        let chan_lost = fb.loss.is_lost(&mut fb.rng_loss);
        let fault_lost = self.faults.feedback_blocked(now) || self.faults.receiver_down(now, 0);
        let (c_delivered, c_promotions) = (fb.c_delivered, fb.c_promotions);
        if fault_lost && !chan_lost {
            self.jobs.metrics().inc(self.c_fault_lost);
        }
        // A stale handle means the record died with its NACK in flight:
        // the dedup state died with the slot, but the NACK still consumed
        // feedback bandwidth and the draw above still happened.
        let target = self.jobs.job_mut(h).map(|x| {
            // Without a pending NACK (a delivery or crash cleared it)
            // the link is not this NACK's to take.
            let nid = if std::mem::take(&mut x.nack_pending) {
                std::mem::take(&mut x.link)
            } else {
                TraceId::NONE
            };
            (x.id(), x.loc, x.is_consistent(), nid)
        });
        if chan_lost || fault_lost {
            return;
        }
        self.jobs.metrics().inc(c_delivered);
        let Some((id, loc, consistent, nid)) = target else {
            return;
        };
        if should_promote(Some(loc), true, consistent) {
            self.jobs.metrics().inc(c_promotions);
            self.jobs.events().log(now, EventKind::Promote, id);
            // Promotion is the sender acting on the NACK.
            let pid = self.jobs.tracer().instant_under(
                now,
                Actor::HotServer,
                TraceKind::Promote,
                id,
                nid,
            );
            if pid.is_some() {
                self.jobs.job_mut(h).expect("promoted record is live").link = pid;
            }
            self.push_hot(now, h);
        }
    }

    /// An arrival: a new record, or — once an update workload's keyspace
    /// is full — an in-place update of a random live record, which makes
    /// the receiver's copy stale again. Without a feedback channel the
    /// record keeps its place in the announcement cycle; with one, an
    /// updated cold record is re-promoted like new data ("hot bandwidth
    /// is allocated to new data items...").
    fn handle_arrival(&mut self, q: &mut EventQueue<Ev>) {
        if let ArrivalProcess::PoissonUpdates { keys, .. } = self.arrivals {
            if self.jobs.len() as u64 >= keys {
                if let Some(h) = self.jobs.random_live(&mut self.rng_update) {
                    self.jobs.invalidate(q.now(), h);
                    let cold = self.jobs.job(h).expect("picked record is live").loc == Loc::Cold;
                    if cold && self.fb.is_some() {
                        self.push_hot(q.now(), h);
                        self.kick(q);
                    }
                }
                return;
            }
        }
        self.spawn_record(q);
    }

    fn schedule_next_arrival(&mut self, q: &mut EventQueue<Ev>) {
        if let Some(dt) = self.arrivals.next_interarrival(&mut self.rng_arrival) {
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
            Ev::Done { h, src } => {
                let server = if self.sched.is_some() {
                    0
                } else {
                    src as usize
                };
                self.busy[server] = false;
                self.complete(q, h, src);
                self.kick(q);
            }
            Ev::FbDone(h) => {
                self.nack_done(q, h);
                self.kick(q);
            }
            Ev::LifetimeEnd(h) => {
                if let Some(x) = self.jobs.job_mut(h) {
                    if x.loc == Loc::Serving {
                        // In flight: die at service completion.
                        x.doomed = true;
                    } else {
                        // Waiting in a queue: removed lazily at the pop.
                        let was_consistent = self.jobs.kill(q.now(), h);
                        self.transitions.record(if was_consistent {
                            Transition::CDeath
                        } else {
                            Transition::IDeath
                        });
                    }
                }
            }
            Ev::FaultEdge => {
                // A receiver crash beginning now wipes the replica: every
                // consistent record is stale again and must re-propagate
                // after the restart, and the crashed receiver forgets its
                // outstanding NACK state.
                if !self.faults.crashes_at(q.now()).is_empty() {
                    self.jobs.wipe(q.now());
                    if self.fb.is_some() {
                        self.jobs.for_each_job_mut(|x| {
                            if std::mem::take(&mut x.nack_pending) {
                                x.link = TraceId::NONE;
                            }
                        });
                    }
                }
            }
        }
    }
}

impl TracedWorld for Sim {
    fn tracer(&mut self) -> &mut Tracer {
        self.jobs.tracer()
    }

    fn event_label(&self, ev: &Ev) -> &'static str {
        match ev {
            Ev::Arrival => "arrival",
            Ev::Done { src, .. } => self.done_labels[*src as usize],
            Ev::FbDone(_) => self.done_labels[2],
            Ev::LifetimeEnd(_) => "lifetime-end",
            Ev::FaultEdge => "fault-edge",
        }
    }
}

/// Runs one simulation of `shape` under `faults` to completion. With the
/// empty spec the schedule consumes no randomness and blocks nothing.
pub(crate) fn run(shape: &Shape, faults: &FaultSpec) -> Totals {
    let mut sim = Sim::new(shape, faults);
    let mut q: EventQueue<Ev> = EventQueue::with_capacity(256);
    let end = SimTime::ZERO + shape.duration;

    if sim.jobs.tracer().is_enabled() {
        let Sim { faults, jobs, .. } = &mut sim;
        faults.record_spans(jobs.tracer());
    }
    for t in sim.faults.boundaries() {
        if t < end {
            q.schedule(t, Ev::FaultEdge);
        }
    }
    for _ in 0..shape.arrivals.initial_count() {
        sim.spawn_record(&mut q);
    }
    sim.schedule_next_arrival(&mut q);

    // Observation consumes no randomness, so the traced and profiled
    // loops replay the plain run exactly; they add a per-dispatch branch,
    // so runs without either keep the plain loop.
    if ss_netsim::profile::is_enabled() {
        ss_netsim::run_until_profiled(&mut sim, &mut q, end);
        ss_netsim::profile::flush();
    } else if sim.jobs.tracer().is_enabled() {
        run_until_traced(&mut sim, &mut q, end);
    } else {
        run_until(&mut sim, &mut q, end);
    }

    let m = sim.jobs.metrics();
    if let Some(sched) = &sim.sched {
        sched.export_into(m, "sched");
    }
    let c_dispatched = m.counter("engine.events_dispatched");
    m.add(c_dispatched, q.dispatched());
    let c_scheduled = m.counter("engine.events_scheduled");
    m.add(c_scheduled, q.scheduled());

    let count = |c: CounterId| m.counter_value(c);
    let mean = |a: AverageId| m.average_value(a).mean_until(end);
    let fb = sim.fb.as_ref();
    let tx = sim.c_tx.map(count);
    let (redundant, lost) = (count(sim.c_redundant), count(sim.c_lost));
    let fault_drops = count(sim.c_fault_lost);
    let mean_hot_backlog = sim.a_hot_backlog.map_or(0.0, mean);
    let nacks_generated = fb.map_or(0, |fb| count(fb.c_generated));
    let nacks_delivered = fb.map_or(0, |fb| count(fb.c_delivered));
    let promotions = fb.map_or(0, |fb| count(fb.c_promotions));
    let mean_fb_backlog = fb.map_or(0.0, |fb| mean(fb.a_backlog));
    let (stats, metrics, events, trace) = sim.jobs.finish(end);
    Totals {
        stats,
        metrics,
        events,
        trace,
        tx,
        redundant,
        lost,
        fault_drops,
        transitions: sim.transitions,
        mean_hot_backlog,
        final_hot_backlog: sim.queues[HOT].len(),
        nacks_generated,
        nacks_delivered,
        promotions,
        mean_fb_backlog,
    }
}

/// Tests that hold for every shape, run once over the three variants'
/// public entry points (they were written out once per variant module),
/// and the equivalence that makes the variants one engine.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::feedback::{self, FeedbackConfig};
    use crate::protocol::open_loop::{self, OpenLoopConfig};
    use crate::protocol::two_queue::{self, TwoQueueConfig};

    /// One variant's public config.
    enum Variant {
        OpenLoop(OpenLoopConfig),
        TwoQueue(TwoQueueConfig),
        Feedback(FeedbackConfig),
    }

    /// What the shared tests read off any variant's report.
    struct Seen {
        transmissions: u64,
        nacks_generated: u64,
        fault_drops: u64,
        stats: JobStats,
        metrics: MetricsSnapshot,
    }

    impl Variant {
        /// The variant's `run` (no spec) or `run_faulted`.
        fn run(&self, faults: Option<&FaultSpec>) -> Seen {
            match self {
                Variant::OpenLoop(c) => {
                    let r =
                        faults.map_or_else(|| open_loop::run(c), |f| open_loop::run_faulted(c, f));
                    Seen {
                        transmissions: r.transmissions,
                        nacks_generated: 0,
                        fault_drops: r.fault_drops,
                        stats: r.stats,
                        metrics: r.metrics,
                    }
                }
                Variant::TwoQueue(c) => {
                    let r =
                        faults.map_or_else(|| two_queue::run(c), |f| two_queue::run_faulted(c, f));
                    Seen {
                        transmissions: r.transmissions(),
                        nacks_generated: 0,
                        fault_drops: r.fault_drops,
                        stats: r.stats,
                        metrics: r.metrics,
                    }
                }
                Variant::Feedback(c) => {
                    let r =
                        faults.map_or_else(|| feedback::run(c), |f| feedback::run_faulted(c, f));
                    Seen {
                        transmissions: r.transmissions(),
                        nacks_generated: r.nacks_generated,
                        fault_drops: r.fault_drops,
                        stats: r.stats,
                        metrics: r.metrics,
                    }
                }
            }
        }
    }

    /// Each variant's steady-state validation workload (Poisson arrivals,
    /// per-transmission death, Bernoulli loss).
    fn steady(seeds: [u64; 3]) -> [Variant; 3] {
        [
            Variant::OpenLoop(open_loop::tests::validation_cfg(seeds[0])),
            Variant::TwoQueue(two_queue::tests::fig5_cfg(0.4, 0.3, seeds[1])),
            Variant::Feedback(feedback::tests::cfg(3.0, 1.5, 1.125, 0.4, seeds[2])),
        ]
    }

    /// Each variant's bulk table of immortal records, with its size.
    fn bulk(seeds: [u64; 3]) -> [(Variant, u64); 3] {
        [
            (
                Variant::OpenLoop(open_loop::tests::bulk_lossless(seeds[0])),
                30,
            ),
            (
                Variant::TwoQueue(two_queue::tests::bulk_lossless(seeds[1])),
                20,
            ),
            (Variant::Feedback(feedback::tests::bulk_cfg(seeds[2])), 20),
        ]
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Replaces `{open_loop,two_queue,feedback}::tests::deterministic_given_seed`.
    #[test]
    fn deterministic_given_seed() {
        for v in steady([7, 9, 8]) {
            let (a, b) = (v.run(None), v.run(None));
            assert_eq!(a.transmissions, b.transmissions);
            assert_eq!(a.stats.arrivals, b.stats.arrivals);
            assert_eq!(a.nacks_generated, b.nacks_generated);
            assert_eq!(
                a.stats.consistency.unnormalized,
                b.stats.consistency.unnormalized
            );
        }
    }

    /// Replaces `{open_loop,two_queue,feedback}::tests::empty_fault_spec_is_byte_identical`.
    #[test]
    fn empty_fault_spec_is_byte_identical() {
        for v in steady([31, 17, 19]) {
            let a = v.run(None);
            let b = v.run(Some(&FaultSpec::none()));
            assert_eq!(a.transmissions, b.transmissions);
            assert_eq!(a.stats.arrivals, b.stats.arrivals);
            assert_eq!(a.nacks_generated, b.nacks_generated);
            assert_eq!(
                a.stats.consistency.unnormalized.to_bits(),
                b.stats.consistency.unnormalized.to_bits()
            );
            assert_eq!((a.fault_drops, b.fault_drops), (0, 0));
        }
    }

    /// Replaces `open_loop::tests::partition_blocks_then_heals` and the
    /// first half of `two_queue::tests::partition_blocks_then_heals_via_cold_cycle`
    /// (the feedback row is new; its feedback-direction partition test
    /// stays in its module): a partition drops a stretch of
    /// announcements, and the announcement cycle re-delivers everything
    /// after the heal.
    #[test]
    fn partition_blocks_then_heals() {
        let until = [20, 30, 30];
        for ((v, n), until) in bulk([41, 18, 21]).into_iter().zip(until) {
            let faults = FaultSpec::none().partition(secs(1), secs(until));
            let r = v.run(Some(&faults));
            assert!(r.fault_drops > 0, "partition dropped announcements");
            assert_eq!(r.stats.latency.count(), n, "all delivered after heal");
            assert_eq!(r.stats.final_live as u64, n);
        }
    }

    /// Replaces `open_loop::tests::receiver_crash_wipes_and_reconverges`,
    /// the second half of `two_queue::tests::partition_blocks_then_heals_via_cold_cycle`
    /// and `feedback::tests::receiver_crash_wipes_and_feedback_reconverges`:
    /// every record is consistent well before the crash; the crash wipes
    /// the replica (one update transition per record), the down episode
    /// drops the cycle's announcements, and after the restart every
    /// record is delivered a second time.
    #[test]
    fn receiver_crash_wipes_and_reconverges() {
        let window = [(30, 40), (60, 70), (100, 110)];
        for ((v, n), (at, until)) in bulk([42, 18, 22]).into_iter().zip(window) {
            let faults = FaultSpec::none().receiver_crash(secs(at), secs(until), 0);
            let r = v.run(Some(&faults));
            assert_eq!(r.stats.updates, n, "crash wipe flips every record");
            assert_eq!(r.metrics.counter("records.delivered"), 2 * n);
            assert!(r.fault_drops > 0);
            assert!(r.stats.consistency.busy.unwrap() > 0.8);
        }
    }

    /// Replaces `open_loop::tests::faulted_runs_replay_bit_for_bit`, now
    /// over all three shapes.
    #[test]
    fn faulted_runs_replay_bit_for_bit() {
        let faults = FaultSpec::generate(&mut SimRng::new(5), 1, SimDuration::from_secs(100), 3);
        for (v, _) in bulk([43, 43, 43]) {
            let (a, b) = (v.run(Some(&faults)), v.run(Some(&faults)));
            assert_eq!(a.transmissions, b.transmissions);
            assert_eq!(a.nacks_generated, b.nacks_generated);
            assert_eq!(a.fault_drops, b.fault_drops);
            assert_eq!(
                a.stats.consistency.unnormalized.to_bits(),
                b.stats.consistency.unnormalized.to_bits()
            );
        }
    }

    /// A partitioned two-queue config and the feedback config that names
    /// the same run with a zero-rate NACK channel.
    fn twin(
        arrivals: ArrivalProcess,
        death: DeathProcess,
        loss: LossSpec,
        service: ServiceModel,
        seed: u64,
    ) -> (TwoQueueConfig, FeedbackConfig) {
        let tq = TwoQueueConfig {
            arrivals,
            death,
            mu_hot: 2.5,
            mu_cold: 1.5,
            loss,
            service,
            sharing: Sharing::Partitioned,
            seed,
            duration: SimDuration::from_secs(4_000),
            series_spacing: Some(SimDuration::from_secs(50)),
            event_capacity: 0,
            trace_capacity: 0,
        };
        let fb = FeedbackConfig {
            arrivals,
            death,
            mu_hot: tq.mu_hot,
            mu_cold: tq.mu_cold,
            mu_fb: 0.0,
            loss,
            nack_loss: None,
            service,
            seed,
            duration: tq.duration,
            series_spacing: tq.series_spacing,
            trace_capacity: 0,
            event_capacity: 0,
        };
        (tq, fb)
    }

    /// §5 without a feedback channel *is* §4: field for field, bit for
    /// bit, on a steady-state, a lifetime-death/bursty-loss and a
    /// deterministic bulk workload.
    #[test]
    fn feedback_at_zero_rate_is_partitioned_two_queue() {
        let workloads = [
            twin(
                ArrivalProcess::Poisson { rate: 1.875 },
                DeathProcess::PerTransmission { p: 0.1 },
                LossSpec::Bernoulli(0.3),
                ServiceModel::Exponential,
                61,
            ),
            twin(
                ArrivalProcess::Poisson { rate: 1.875 },
                DeathProcess::Lifetime { mean_secs: 20.0 },
                LossSpec::Bursty {
                    mean: 0.3,
                    burst_len: 4.0,
                },
                ServiceModel::Exponential,
                62,
            ),
            twin(
                ArrivalProcess::Bulk { count: 200 },
                DeathProcess::Immortal,
                LossSpec::Bernoulli(0.5),
                ServiceModel::Deterministic,
                63,
            ),
        ];
        for (tq, fb) in workloads {
            let (a, b) = (two_queue::run(&tq), feedback::run(&fb));
            assert!(a.hot_transmissions > 0 && a.cold_transmissions > 0);
            assert_eq!(a.hot_transmissions, b.hot_transmissions);
            assert_eq!(a.cold_transmissions, b.cold_transmissions);
            assert_eq!(a.redundant_transmissions, b.redundant_transmissions);
            assert_eq!(a.fault_drops, b.fault_drops);
            assert_eq!(
                a.observed_loss_rate.to_bits(),
                b.observed_loss_rate.to_bits()
            );
            assert_eq!(a.mean_hot_backlog.to_bits(), b.mean_hot_backlog.to_bits());
            let (sa, sb) = (&a.stats, &b.stats);
            assert_eq!(sa.arrivals, sb.arrivals);
            assert_eq!(sa.updates, sb.updates);
            assert_eq!(sa.deaths, sb.deaths);
            assert_eq!(sa.final_live, sb.final_live);
            assert_eq!(sa.latency.count(), sb.latency.count());
            assert_eq!(sa.latency.mean(), sb.latency.mean());
            let bits = |c: &crate::ConsistencyAverages| {
                (
                    c.unnormalized.to_bits(),
                    c.busy.map(f64::to_bits),
                    c.empty_consistent.to_bits(),
                )
            };
            assert_eq!(bits(&sa.consistency), bits(&sb.consistency));
            assert_eq!(
                sa.mean_live_records.to_bits(),
                sb.mean_live_records.to_bits()
            );
            assert_eq!(sa.series, sb.series);
            for name in [
                "engine.events_dispatched",
                "engine.events_scheduled",
                "records.delivered",
                "tx.lost",
            ] {
                assert_eq!(a.metrics.counter(name), b.metrics.counter(name), "{name}");
            }
            assert_eq!(
                (b.nacks_generated, b.nacks_delivered, b.promotions),
                (0, 0, 0)
            );
            assert_eq!(b.mean_fb_backlog, 0.0);
        }
    }

    /// The one intended difference: under an update workload the feedback
    /// variant re-promotes an updated cold record to the hot queue even
    /// at `mu_fb = 0`; two-queue lets it refresh through the cold cycle,
    /// so its hot queue only ever serves each record's first announcement.
    #[test]
    fn only_feedback_repromotes_an_updated_record() {
        let (tq, fb) = twin(
            ArrivalProcess::PoissonUpdates {
                rate: 3.0,
                keys: 20,
            },
            DeathProcess::Immortal,
            LossSpec::Bernoulli(0.3),
            ServiceModel::Exponential,
            64,
        );
        let (a, b) = (two_queue::run(&tq), feedback::run(&fb));
        assert_eq!(a.stats.arrivals, 20);
        assert_eq!(a.stats.updates, b.stats.updates, "same update stream");
        assert!(a.stats.updates > 10_000);
        assert_eq!(a.hot_transmissions, 20);
        assert!(
            b.hot_transmissions > 5_000,
            "updates re-enter the hot queue: {}",
            b.hot_transmissions
        );
        assert_eq!(b.promotions, 0, "not a NACK promotion");
    }
}
