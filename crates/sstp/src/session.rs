//! An end-to-end SSTP session on the simulated network: one sender, any
//! number of receivers, lossy rate-limited channels, and the §6.1
//! adaptation loop (receiver reports → loss estimate → profile-driven
//! reallocation).
//!
//! Channel layout:
//!
//! * **hot** — foreground data server (new data, NACK retransmissions,
//!   repair responses), rate `allocation.hot`.
//! * **cold** — background server cycling root summaries back to back,
//!   rate `allocation.cold` (idle when summaries are disabled).
//! * **feedback** — one reverse server per receiver at
//!   `allocation.feedback / n`, carrying queries, NACKs, and reports.
//!   With feedback enabled the session floors this at 1% of the session
//!   bandwidth so receiver reports can bootstrap the loss estimate.
//!
//! Data-channel packets are "multicast": one transmission, and each
//! receiver draws loss independently. Feedback packets are likewise heard
//! by the sender *and* every other receiver (with loss), which is what
//! lets the receivers' slotting-and-damping suppress duplicate repair
//! requests in multicast groups.

use crate::allocator::{Allocation, Allocator, AllocatorConfig, BandwidthSource, StaticBandwidth};
use crate::digest::HashAlgorithm;
use crate::namespace::{MetaTag, NodeId};
use crate::receiver::{FeedbackTiming, Interest, ReceiverConfig, ReceiverStats, SstpReceiver};
use crate::sender::{SenderStats, SstpSender};
use crate::wire::Packet;
use softstate::consistency::ConsistencyAverages;
use softstate::{ArrivalProcess, Key, LossSpec};
use ss_netsim::trace::{Actor, TraceId, TraceKind, Tracer};
use ss_netsim::{
    profile, run_until, run_until_profiled, run_until_traced, AverageId, Bandwidth, CounterId,
    DurationHistogram, EventKind, EventLog, EventQueue, FaultSchedule, FaultSpec, HistogramId,
    LossModel, MetricsRegistry, MetricsSnapshot, QueueClass, SimDuration, SimRng, SimTime,
    SketchId, TracedWorld, WindowedTimeAverage, World,
};
use std::collections::VecDeque;
use std::rc::Rc;

/// The application workload driving a session.
#[derive(Clone, Debug)]
pub struct SessionWorkload {
    /// How records arrive / update.
    pub arrivals: ArrivalProcess,
    /// Mean record lifetime in seconds (`None` = records live forever).
    /// Lifetimes are exponential; at expiry the sender withdraws the key.
    pub mean_lifetime_secs: Option<f64>,
    /// Number of namespace branches records are spread across.
    pub branches: usize,
    /// Hot-bandwidth weights per branch (Figure 12's application class
    /// control); `None` = equal weights. Cycled if shorter than
    /// `branches`.
    pub class_weights: Option<Vec<u64>>,
}

/// Session configuration.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Total session bandwidth (the congestion-manager budget).
    pub total_bandwidth: Bandwidth,
    /// ADU payload size in bytes.
    pub adu_bytes: u32,
    /// Maximum payload per data packet; ADUs above this fragment
    /// (`None` = never fragment).
    pub mtu: Option<u32>,
    /// Number of receivers (1 = unicast).
    pub n_receivers: usize,
    /// Data-channel loss (independently drawn per receiver).
    pub data_loss: LossSpec,
    /// Feedback-channel loss.
    pub fb_loss: LossSpec,
    /// One-way propagation delay, both directions.
    pub prop_delay: SimDuration,
    /// Allocator configuration (includes the reliability knobs).
    pub allocator: AllocatorConfig,
    /// The workload.
    pub workload: SessionWorkload,
    /// Receiver soft-state TTL.
    pub ttl: SimDuration,
    /// Receiver-report interval.
    pub report_interval: SimDuration,
    /// Reallocation interval (`None` = allocate once at start).
    pub adapt_interval: Option<SimDuration>,
    /// Receiver expiry-sweep interval.
    pub expiry_sweep: SimDuration,
    /// Ground-truth consistency sampling interval.
    pub measure_interval: SimDuration,
    /// Slot window for multicast feedback suppression (`None` =
    /// immediate feedback; use with unicast).
    pub slot_window: Option<SimDuration>,
    /// Per-receiver interest scoping (`None` = all receivers want all).
    pub interests: Option<Vec<Interest>>,
    /// Summary hash algorithm.
    pub algo: HashAlgorithm,
    /// Event-trace capacity: the session and each receiver keep the
    /// first this-many typed events (0 disables tracing).
    pub event_capacity: usize,
    /// Causal-trace capacity: keep the first this-many [`Tracer`] events
    /// (0 disables causal tracing).
    pub trace_capacity: usize,
    /// Run length.
    pub duration: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// `ss-chaos` fault schedule: timed partitions, loss overrides,
    /// bandwidth degradation, receiver crashes, and sender silence on the
    /// virtual clock. The empty spec (the default) consumes no randomness
    /// and leaves the run byte-identical to a fault-free session.
    pub faults: FaultSpec,
}

impl SessionConfig {
    /// A unicast session with the paper's Figure 8 flavor: 45 kbps total,
    /// 1000-byte ADUs, Poisson arrivals at 15 kbps worth of records.
    pub fn unicast_default(seed: u64) -> Self {
        SessionConfig {
            total_bandwidth: Bandwidth::from_kbps(45),
            adu_bytes: 1000,
            mtu: None,
            n_receivers: 1,
            data_loss: LossSpec::Bernoulli(0.1),
            fb_loss: LossSpec::Bernoulli(0.1),
            prop_delay: SimDuration::from_millis(50),
            allocator: AllocatorConfig::default(),
            workload: SessionWorkload {
                arrivals: ArrivalProcess::Poisson { rate: 1.875 },
                mean_lifetime_secs: Some(120.0),
                branches: 4,
                class_weights: None,
            },
            ttl: SimDuration::from_secs(60),
            report_interval: SimDuration::from_secs(5),
            adapt_interval: Some(SimDuration::from_secs(10)),
            expiry_sweep: SimDuration::from_secs(1),
            measure_interval: SimDuration::from_secs(1),
            slot_window: None,
            interests: None,
            algo: HashAlgorithm::Fnv64,
            event_capacity: 0,
            trace_capacity: 0,
            duration: SimDuration::from_secs(600),
            seed,
            faults: FaultSpec::none(),
        }
    }
}

/// How the session recovered from its fault schedule (present on a
/// [`SessionReport`] only when the run had a non-empty [`FaultSpec`]).
///
/// Reconvergence is judged by the ground-truth consistency probe: the
/// run *reconverges* at the first [`SessionConfig::measure_interval`]
/// sample at or after the last fault heals where every receiver's
/// replica fully agrees with the sender's table. MTTR is that instant
/// minus the heal time, so its resolution is the measure interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconvergenceReport {
    /// When the last fault episode ended.
    pub healed_at: SimTime,
    /// First fully-consistent probe sample at/after the heal (`None` if
    /// the run ended before reconverging).
    pub reconverged_at: Option<SimTime>,
    /// Probe samples' total disagreeing records from the first fault
    /// until reconvergence — each one is a stale (or missing) entry a
    /// reader would have been served at that instant.
    pub stale_serves: u64,
    /// Packets dropped *only* because of an active fault episode.
    pub fault_drops: u64,
}

impl ReconvergenceReport {
    /// Mean-time-to-repair: heal → full reconvergence (`None` if the run
    /// ended first).
    pub fn mttr(&self) -> Option<SimDuration> {
        self.reconverged_at
            .map(|t| t.saturating_since(self.healed_at))
    }
}

/// Per-receiver outcome.
#[derive(Clone, Debug)]
pub struct ReceiverOutcome {
    /// Time-averaged ground-truth consistency (measured by table probe).
    pub consistency: ConsistencyAverages,
    /// Receive latencies: publisher insert → first receiver copy.
    pub latency: DurationHistogram,
    /// Protocol counters.
    pub stats: ReceiverStats,
    /// The last sampled instantaneous consistency.
    pub final_consistency: Option<f64>,
    /// This receiver's typed event trace (empty unless
    /// [`SessionConfig::event_capacity`] is set).
    pub events: EventLog,
}

/// Aggregate packet counters for the whole session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PacketCounters {
    /// Data-channel packets transmitted (hot + cold).
    pub data_channel_tx: u64,
    /// Data-channel receptions lost (summed over receivers).
    pub data_rx_lost: u64,
    /// Feedback packets transmitted (all receivers).
    pub feedback_tx: u64,
    /// Feedback packets lost en route to the sender.
    pub feedback_lost: u64,
    /// Bytes on the data channel.
    pub data_bytes: u64,
    /// Bytes on the feedback channels.
    pub feedback_bytes: u64,
}

/// Everything a session run produces.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// One outcome per receiver.
    pub receivers: Vec<ReceiverOutcome>,
    /// Sender counters.
    pub sender: SenderStats,
    /// Channel counters.
    pub packets: PacketCounters,
    /// Allocation decisions over time.
    pub allocations: Vec<(SimTime, Allocation)>,
    /// Number of back-pressure notifications raised to the application.
    pub rate_warnings: u64,
    /// The sender's final smoothed loss estimate.
    pub final_loss_estimate: f64,
    /// Recovery measurement, present when the run had a non-empty
    /// [`SessionConfig::faults`] schedule.
    pub recovery: Option<ReconvergenceReport>,
    /// Every metric of the run, frozen at the end time. Channel and
    /// endpoint counters, per-receiver consistency time averages
    /// (`rx.<i>.consistency`) and latency histograms
    /// (`rx.<i>.latency.t_rec`), and engine totals all live here under
    /// stable dotted names.
    pub metrics: MetricsSnapshot,
    /// Session-level typed event trace: transmissions (announce/summary),
    /// channel drops, and feedback sends (empty unless
    /// [`SessionConfig::event_capacity`] is set).
    pub events: EventLog,
    /// The causal trace: record lifecycles, wire spans, digest exchange,
    /// and NACK → promotion → retransmit → install chains (empty unless
    /// [`SessionConfig::trace_capacity`] is set).
    pub trace: Tracer,
}

impl SessionReport {
    /// Mean busy-period consistency across receivers.
    pub fn mean_consistency(&self) -> f64 {
        let vals: Vec<f64> = self
            .receivers
            .iter()
            .filter_map(|r| r.consistency.busy)
            .collect();
        if vals.is_empty() {
            return 1.0;
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

enum Ev {
    AppArrival,
    Lifetime(Key),
    HotFree,
    ColdFree,
    FbFree(usize),
    /// Receiver `i` hears a data packet; the [`TraceId`] names the wire
    /// span that carried it (NONE when tracing is off). One transmission
    /// is one allocation shared by every hearer (`Rc`: the queue and its
    /// events never leave the thread that runs the session).
    DataArrive(usize, Rc<Packet>, TraceId),
    FbArriveSender(Rc<Packet>, TraceId),
    FbOverheard(usize, Rc<Packet>, TraceId),
    FeedbackDue(usize),
    ReportTick(usize),
    AdaptTick,
    ExpiryTick,
    MeasureTick,
    /// A fault-episode boundary (only scheduled with a non-empty
    /// [`FaultSpec`]): crash wipes happen here, and idle servers are
    /// re-kicked when a silence episode ends.
    FaultEdge,
}

struct RxChan {
    loss: Box<dyn LossModel>,
    rng: SimRng,
}

/// A dense set of [`Key`]s backed by a growable bitmap. Sender keys are
/// allocated sequentially from 0, so membership is one word index —
/// this replaces the per-receiver `BTreeSet<Key>` the first-delivery
/// latency probe used to walk on every measurement tick.
#[derive(Clone, Debug, Default)]
struct KeySeen(Vec<u64>);

impl KeySeen {
    /// Adds `k`; true when it was not in the set before.
    fn insert(&mut self, k: Key) -> bool {
        let word = (k.0 >> 6) as usize;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let bit = 1 << (k.0 & 63);
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }
}

/// Takes (returns and clears) the pending promotion trace id for `key`,
/// or [`TraceId::NONE`] when none is pending.
fn take_promotion(promoted: &mut [TraceId], key: Key) -> TraceId {
    match promoted.get_mut(key.0 as usize) {
        Some(slot) => std::mem::replace(slot, TraceId::NONE),
        None => TraceId::NONE,
    }
}

struct Sim {
    cfg: SessionConfig,
    sender: SstpSender,
    receivers: Vec<SstpReceiver>,
    /// Per-receiver configs kept for crash-and-restart recreation.
    rx_cfgs: Vec<ReceiverConfig>,
    /// Counters of receiver incarnations lost to crashes (a recreated
    /// receiver starts its stats from zero; the outcome sums both).
    carried_stats: Vec<ReceiverStats>,
    /// Per-receiver data-channel loss processes.
    data_chan: Vec<RxChan>,
    /// Feedback loss toward the sender, per receiver.
    fb_chan: Vec<RxChan>,
    /// Overhearing loss among receivers (reuses fb loss spec).
    overhear_chan: Vec<RxChan>,
    allocator: Allocator,
    bw_source: StaticBandwidth,
    allocation: Allocation,
    /// The `ss-chaos` schedule (empty = inert, zero draws).
    faults: FaultSchedule,
    /// §6.1 graceful degradation: multiplicative announce-rate backoff
    /// under sustained heavy reported loss, recovering toward 1.0.
    degrade: f64,
    /// Seed stream for deterministic crash-and-restart receiver rebuilds.
    rng_restart: SimRng,
    restart_seq: u64,
    /// First fully-consistent probe at/after the schedule's heal time.
    reconverged_at: Option<SimTime>,
    /// Earliest fault boundary (None when the schedule is empty); stale
    /// serves are only counted from this instant on.
    fault_started: Option<SimTime>,
    /// Busy flags for the three server kinds.
    hot_busy: bool,
    cold_busy: bool,
    /// Alternates summary/data in the no-feedback cold stream.
    cold_flip: bool,
    fb_busy: Vec<bool>,
    /// Per-receiver feedback send queues (packets waiting for the fb
    /// server).
    fb_queue: Vec<VecDeque<Packet>>,
    /// Earliest scheduled FeedbackDue per receiver (dedup).
    fb_due_at: Vec<Option<SimTime>>,
    /// Ground-truth instrumentation: each receiver's `c(t)`, scored 0
    /// while the sender's live set is empty, and one indicator (1 while
    /// it is not) shared by every receiver, since the sender decides it.
    probe_c: Vec<WindowedTimeAverage>,
    probe_busy: WindowedTimeAverage,
    latency_seen: Vec<KeySeen>,
    /// Birth time of every key ever published, indexed by the key's id
    /// (sender keys are allocated densely from 0, one per publish, so a
    /// plain vector in publish order replaces the old `BTreeMap` with
    /// the same point-lookup semantics and no tree walks on the per-probe
    /// latency path).
    born_at: Vec<SimTime>,
    /// Last time the sender wrote each key (birth or in-place update),
    /// indexed like `born_at`. The probe-sampled staleness sketch
    /// measures receiver lag against the *newest* sender value, so
    /// updates must bump this while `born_at` stays the birth instant.
    updated_at: Vec<SimTime>,
    /// Workload state.
    rng_arrival: SimRng,
    rng_lifetime: SimRng,
    branches: Vec<NodeId>,
    update_keys: Vec<Key>,
    /// Metrics: every channel counter, per-receiver consistency average
    /// and latency histogram lives in the registry; typed protocol
    /// events go to the session event log.
    registry: MetricsRegistry,
    events: EventLog,
    tracer: Tracer,
    /// Trace id of the latest promotion per key, indexed densely by key
    /// id ([`TraceId::NONE`] = no promotion pending), so the promoted
    /// hot retransmission parents under it (NACK → promote →
    /// retransmit).
    promoted: Vec<TraceId>,
    c_data_tx: CounterId,
    c_data_lost: CounterId,
    c_data_bytes: CounterId,
    c_fb_tx: CounterId,
    c_fb_lost: CounterId,
    c_fb_bytes: CounterId,
    c_fault_lost: CounterId,
    c_stale: CounterId,
    a_consistency: Vec<AverageId>,
    h_latency: Vec<HistogramId>,
    /// Pooled quantile sketches across all receivers: first-receipt
    /// latency and probe-sampled staleness of disagreeing records.
    sk_trec: SketchId,
    sk_staleness: SketchId,
    allocations: Vec<(SimTime, Allocation)>,
    rate_warnings: u64,
}

/// Field-wise sum of two stats blocks (crash-and-restart carryover).
fn add_stats(a: ReceiverStats, b: ReceiverStats) -> ReceiverStats {
    ReceiverStats {
        data_rx: a.data_rx + b.data_rx,
        data_applied: a.data_applied + b.data_applied,
        root_summaries_rx: a.root_summaries_rx + b.root_summaries_rx,
        node_summaries_rx: a.node_summaries_rx + b.node_summaries_rx,
        nacks_sent: a.nacks_sent + b.nacks_sent,
        nacked_keys: a.nacked_keys + b.nacked_keys,
        queries_sent: a.queries_sent + b.queries_sent,
        damped: a.damped + b.damped,
        uninterested_skips: a.uninterested_skips + b.uninterested_skips,
        expired: a.expired + b.expired,
        fragments_advanced: a.fragments_advanced + b.fragments_advanced,
        structure_conflicts: a.structure_conflicts + b.structure_conflicts,
    }
}

impl Sim {
    fn new(cfg: SessionConfig) -> Self {
        let root_rng = SimRng::new(cfg.seed);
        let mut sender = match cfg.mtu {
            Some(mtu) => SstpSender::new(cfg.algo, cfg.adu_bytes).with_mtu(mtu),
            None => SstpSender::new(cfg.algo, cfg.adu_bytes),
        };
        let branches: Vec<NodeId> = (0..cfg.workload.branches.max(1))
            .map(|i| sender.add_branch(sender.root(), MetaTag(i as u32)))
            .collect();
        if let Some(weights) = &cfg.workload.class_weights {
            for i in 0..branches.len() {
                sender.set_class_weight(MetaTag(i as u32), weights[i % weights.len()]);
            }
        }

        let reliability = cfg.allocator.reliability;
        let timing = match cfg.slot_window {
            Some(window) => FeedbackTiming::Slotted { window },
            None => FeedbackTiming::Immediate,
        };
        let rx_cfgs: Vec<ReceiverConfig> = (0..cfg.n_receivers)
            .map(|i| {
                let interest = cfg
                    .interests
                    .as_ref()
                    .map(|v| v[i % v.len()].clone())
                    .unwrap_or(Interest::All);
                ReceiverConfig {
                    id: i as u32,
                    ttl: cfg.ttl,
                    algo: cfg.algo,
                    interest,
                    feedback: reliability.feedback,
                    repair_backoff: reliability.repair_backoff,
                    timing,
                }
            })
            .collect();
        let receivers: Vec<SstpReceiver> = rx_cfgs
            .iter()
            .enumerate()
            .map(|(i, rc)| {
                SstpReceiver::new(rc.clone(), root_rng.derive(&format!("rcv-{i}")))
                    .with_event_log(cfg.event_capacity)
            })
            .collect();

        let chan = |label: &str, spec: LossSpec| -> Vec<RxChan> {
            (0..cfg.n_receivers)
                .map(|i| RxChan {
                    // Batching is safe here: each channel's rng stream is
                    // consumed by its loss model alone.
                    loss: spec.build_batched(),
                    rng: root_rng.derive(&format!("{label}-{i}")),
                })
                .collect()
        };

        let allocator = Allocator::new(cfg.allocator.clone());
        let bw_source = StaticBandwidth(cfg.total_bandwidth);
        let allocation = allocator.allocate(cfg.total_bandwidth, 0.0, cfg.workload.arrivals.rate());

        let mut registry = MetricsRegistry::new();
        let c_data_tx = registry.counter("chan.data.tx");
        let c_data_lost = registry.counter("chan.data.rx_lost");
        let c_data_bytes = registry.counter("chan.data.bytes");
        let c_fb_tx = registry.counter("chan.fb.tx");
        let c_fb_lost = registry.counter("chan.fb.lost");
        let c_fb_bytes = registry.counter("chan.fb.bytes");
        let c_fault_lost = registry.counter("faults.drops");
        let c_stale = registry.counter("recovery.stale_serves");
        let a_consistency = (0..cfg.n_receivers)
            .map(|i| {
                registry.time_average(
                    &format!("rx.{i}.consistency"),
                    SimTime::ZERO,
                    1.0,
                    SimDuration::ZERO,
                )
            })
            .collect();
        let h_latency = (0..cfg.n_receivers)
            .map(|i| registry.histogram(&format!("rx.{i}.latency.t_rec")))
            .collect();
        let sk_trec = registry.sketch("latency.t_rec.sketch");
        let sk_staleness = registry.sketch("staleness.sketch");
        let events = EventLog::with_capacity(cfg.event_capacity);

        // The schedule draws from its own derived stream, so an empty
        // spec consumes nothing and every other stream is unperturbed.
        let faults = cfg.faults.build(root_rng.derive("faults"));
        let fault_started = faults.boundaries().first().copied();

        Sim {
            sender,
            data_chan: chan("data", cfg.data_loss),
            fb_chan: chan("fb", cfg.fb_loss),
            overhear_chan: chan("overhear", cfg.fb_loss),
            carried_stats: vec![ReceiverStats::default(); receivers.len()],
            receivers,
            rx_cfgs,
            allocator,
            bw_source,
            allocation,
            faults,
            degrade: 1.0,
            rng_restart: root_rng.derive("restart"),
            restart_seq: 0,
            reconverged_at: None,
            fault_started,
            hot_busy: false,
            cold_busy: false,
            cold_flip: false,
            fb_busy: vec![false; cfg.n_receivers],
            fb_queue: vec![VecDeque::new(); cfg.n_receivers],
            fb_due_at: vec![None; cfg.n_receivers],
            probe_c: vec![WindowedTimeAverage::new(SimTime::ZERO, 0.0); cfg.n_receivers],
            probe_busy: WindowedTimeAverage::new(SimTime::ZERO, 0.0),
            latency_seen: vec![KeySeen::default(); cfg.n_receivers],
            born_at: Vec::new(),
            updated_at: Vec::new(),
            rng_arrival: root_rng.derive("arrival"),
            rng_lifetime: root_rng.derive("lifetime"),
            branches,
            update_keys: Vec::new(),
            registry,
            events,
            tracer: Tracer::with_capacity(cfg.trace_capacity),
            promoted: Vec::new(),
            c_data_tx,
            c_data_lost,
            c_data_bytes,
            c_fb_tx,
            c_fb_lost,
            c_fb_bytes,
            c_fault_lost,
            c_stale,
            a_consistency,
            h_latency,
            sk_trec,
            sk_staleness,
            allocations: Vec::new(),
            rate_warnings: 0,
            cfg,
        }
    }

    /// The feedback rate per receiver, floored so reports can flow.
    fn fb_rate(&self) -> Bandwidth {
        if !self.cfg.allocator.reliability.feedback {
            // Reports still need a trickle in announce/listen mode to
            // drive the loss estimate; reuse the floor.
            return self.cfg.total_bandwidth.mul_f64(0.01);
        }
        let floor = self.cfg.total_bandwidth.mul_f64(0.01);
        let per = Bandwidth::from_bps(
            self.allocation.feedback.as_bps() / self.cfg.n_receivers.max(1) as u64,
        );
        if per.as_bps() < floor.as_bps() {
            floor
        } else {
            per
        }
    }

    fn spawn_arrival(&mut self, q: &mut EventQueue<Ev>) {
        let now = q.now();
        match self.cfg.workload.arrivals {
            ArrivalProcess::PoissonUpdates { keys, .. } => {
                // Update an existing key or publish until the keyspace is
                // full.
                if (self.update_keys.len() as u64) < keys {
                    self.publish_one(q);
                } else {
                    let idx = self.rng_arrival.below(keys) as usize;
                    let key = self.update_keys[idx];
                    if self.sender.table().get(key).is_some() {
                        self.sender.update(key);
                        self.updated_at[key.0 as usize] = now;
                        self.tracer
                            .instant(now, Actor::Publisher, TraceKind::Update, key.0);
                    }
                }
            }
            _ => self.publish_one(q),
        }
        let _ = now;
        self.kick_hot(q);
    }

    fn publish_one(&mut self, q: &mut EventQueue<Ev>) {
        let now = q.now();
        let b = self.born_at.len() % self.branches.len();
        let branch = self.branches[b];
        let key = self.sender.publish(now, branch, MetaTag(b as u32));
        debug_assert_eq!(key.0 as usize, self.born_at.len(), "keys are dense");
        self.born_at.push(now);
        self.updated_at.push(now);
        self.update_keys.push(key);
        self.tracer.birth(now, Actor::Publisher, key.0);
        if let Some(mean) = self.cfg.workload.mean_lifetime_secs {
            let dt = self.rng_lifetime.exp_duration(1.0 / mean);
            q.schedule_in(dt, Ev::Lifetime(key));
        }
    }

    fn schedule_next_arrival(&mut self, q: &mut EventQueue<Ev>) {
        if let Some(dt) = self
            .cfg
            .workload
            .arrivals
            .next_interarrival(&mut self.rng_arrival)
        {
            q.schedule_in(dt, Ev::AppArrival);
        }
    }

    /// Broadcasts a data-channel packet to every receiver with
    /// independent loss, and schedules the next server-free event.
    /// `class` says which queue (hot/cold server) the packet left from,
    /// for the event trace.
    fn transmit_data(
        &mut self,
        q: &mut EventQueue<Ev>,
        pkt: Packet,
        rate: Bandwidth,
        free: Ev,
        class: QueueClass,
    ) {
        let bytes = pkt.wire_len();
        let c_tx = self.c_data_tx;
        self.registry.inc(c_tx);
        let c_bytes = self.c_data_bytes;
        self.registry.add(c_bytes, bytes as u64);
        let (kind, key) = match &pkt {
            Packet::Data(d) => (EventKind::Announce(class), d.key.0),
            _ => (EventKind::Summary, 0),
        };
        self.events.log(q.now(), kind, key);
        let mut tx_time = rate.transmit_time(bytes);
        // Bandwidth-degradation episodes stretch serialization time.
        let factor = self.faults.bandwidth_factor(q.now());
        if factor < 1.0 {
            tx_time =
                SimDuration::from_micros((tx_time.as_micros() as f64 / factor).round() as u64);
        }
        let depart = q.now() + tx_time;
        // The wire span: serialization of the packet at the server's
        // rate. A data announcement of a just-promoted key parents under
        // its promotion, completing the NACK → promote → retransmit edge.
        let tx_actor = match class {
            QueueClass::Hot => Actor::HotServer,
            QueueClass::Cold => Actor::ColdServer,
        };
        let tkind = match &pkt {
            Packet::Data(_) => TraceKind::Announce,
            _ => TraceKind::Summary,
        };
        let promo = match &pkt {
            Packet::Data(d) => take_promotion(&mut self.promoted, d.key),
            _ => TraceId::NONE,
        };
        let tx_id = if promo.is_some() {
            self.tracer
                .span_under(q.now(), depart, tx_actor, tkind, key, promo)
        } else {
            self.tracer.span(q.now(), depart, tx_actor, tkind, key)
        };
        let pkt = Rc::new(pkt);
        for i in 0..self.receivers.len() {
            // The baseline channel draw always happens first so that an
            // empty fault spec leaves the random streams untouched.
            let ch = &mut self.data_chan[i];
            let chan_lost = ch.loss.is_lost(&mut ch.rng);
            let fault_lost = self.faults.data_blocked(q.now())
                || self.faults.receiver_down(q.now(), i as u32)
                || self.faults.extra_loss(q.now());
            if chan_lost || fault_lost {
                let c_lost = self.c_data_lost;
                self.registry.inc(c_lost);
                self.events.log(q.now(), EventKind::Drop, key);
                if fault_lost && !chan_lost {
                    let c_fault = self.c_fault_lost;
                    self.registry.inc(c_fault);
                    self.tracer.instant_labeled(
                        q.now(),
                        Actor::Channel,
                        TraceKind::Drop,
                        key,
                        tx_id,
                        "fault",
                    );
                } else {
                    self.tracer
                        .instant_under(q.now(), Actor::Channel, TraceKind::Drop, key, tx_id);
                }
                continue;
            }
            let p = self.faults.perturb(q.now());
            if p.corrupt {
                // A corrupted packet fails the receiver's checksum: in
                // effect a loss, attributed to the fault.
                let c_lost = self.c_data_lost;
                self.registry.inc(c_lost);
                let c_fault = self.c_fault_lost;
                self.registry.inc(c_fault);
                self.events.log(q.now(), EventKind::Drop, key);
                self.tracer.instant_labeled(
                    q.now(),
                    Actor::Channel,
                    TraceKind::Drop,
                    key,
                    tx_id,
                    "fault",
                );
                continue;
            }
            let arrive = depart + self.cfg.prop_delay + p.extra_delay;
            q.schedule(arrive, Ev::DataArrive(i, Rc::clone(&pkt), tx_id));
            if p.duplicate {
                q.schedule(arrive, Ev::DataArrive(i, Rc::clone(&pkt), tx_id));
            }
        }
        q.schedule(depart, free);
    }

    /// Hot/cold rate after graceful degradation: sustained heavy
    /// reported loss multiplicatively backs the announce rate off (see
    /// [`Sim::adapt`]), so a partitioned network is not flooded with
    /// packets nobody acknowledges.
    fn degraded_rate(&self, rate: Bandwidth) -> Bandwidth {
        if self.degrade < 1.0 {
            rate.mul_f64(self.degrade)
        } else {
            rate
        }
    }

    fn kick_hot(&mut self, q: &mut EventQueue<Ev>) {
        if self.hot_busy || self.allocation.hot.is_zero() {
            return;
        }
        // A silenced sender transmits nothing; the `FaultEdge` at the
        // episode end re-kicks the idle servers.
        if self.faults.sender_silent(q.now()) {
            return;
        }
        if let Some(pkt) = self.sender.next_hot_packet() {
            self.hot_busy = true;
            let rate = self.degraded_rate(self.allocation.hot);
            self.transmit_data(q, pkt, rate, Ev::HotFree, QueueClass::Hot);
        }
    }

    fn kick_cold(&mut self, q: &mut EventQueue<Ev>) {
        if self.cold_busy
            || !self.cfg.allocator.reliability.summaries
            || self.allocation.cold.is_zero()
        {
            return;
        }
        if self.faults.sender_silent(q.now()) {
            return;
        }
        // With feedback, the cold stream is pure summaries: divergence is
        // repaired by digest descent. Without feedback (announce/listen),
        // the cold stream must itself refresh the data, so summaries
        // alternate with round-robin data retransmissions — the classic
        // §3 open-loop behavior.
        let pkt = if self.cfg.allocator.reliability.feedback {
            self.sender.summary_packet()
        } else {
            self.cold_flip = !self.cold_flip;
            if self.cold_flip {
                self.sender.summary_packet()
            } else {
                match self.sender.next_cycle_packet() {
                    Some(p) => p,
                    None => self.sender.summary_packet(),
                }
            }
        };
        self.cold_busy = true;
        let rate = self.degraded_rate(self.allocation.cold);
        self.transmit_data(q, pkt, rate, Ev::ColdFree, QueueClass::Cold);
    }

    fn kick_fb(&mut self, q: &mut EventQueue<Ev>, i: usize) {
        if self.fb_busy[i] || self.fb_queue[i].is_empty() {
            return;
        }
        // A crashed receiver sends nothing; its queue was cleared at the
        // crash edge and any stragglers wait for the restart re-kick.
        if self.faults.receiver_down(q.now(), i as u32) {
            return;
        }
        self.fb_busy[i] = true;
        let pkt = Rc::new(self.fb_queue[i].pop_front().expect("checked non-empty"));
        let bytes = pkt.wire_len();
        let c_tx = self.c_fb_tx;
        self.registry.inc(c_tx);
        let c_bytes = self.c_fb_bytes;
        self.registry.add(c_bytes, bytes as u64);
        let kind = match &*pkt {
            Packet::Nack(_) => EventKind::Nack,
            Packet::RepairQuery(_) => EventKind::Query,
            _ => EventKind::Report,
        };
        self.events.log(q.now(), kind, i as u64);
        let depart = q.now() + self.fb_rate().transmit_time(bytes);
        let tkind = match &*pkt {
            Packet::Nack(_) => TraceKind::Nack,
            Packet::RepairQuery(_) => TraceKind::Query,
            _ => TraceKind::Report,
        };
        let fb_id = self
            .tracer
            .span(q.now(), depart, Actor::Feedback(i as u32), tkind, i as u64);
        // Toward the sender. Baseline draw first; a feedback-direction
        // partition layers on top of it.
        let ch = &mut self.fb_chan[i];
        let chan_lost = ch.loss.is_lost(&mut ch.rng);
        let fault_lost = self.faults.feedback_blocked(q.now());
        if chan_lost || fault_lost {
            let c_lost = self.c_fb_lost;
            self.registry.inc(c_lost);
            if fault_lost && !chan_lost {
                let c_fault = self.c_fault_lost;
                self.registry.inc(c_fault);
                self.tracer.instant_labeled(
                    q.now(),
                    Actor::Channel,
                    TraceKind::Drop,
                    i as u64,
                    fb_id,
                    "fault",
                );
            } else {
                self.tracer.instant_under(
                    q.now(),
                    Actor::Channel,
                    TraceKind::Drop,
                    i as u64,
                    fb_id,
                );
            }
        } else {
            q.schedule(
                depart + self.cfg.prop_delay,
                Ev::FbArriveSender(Rc::clone(&pkt), fb_id),
            );
        }
        // Overheard by peers (multicast feedback), when there are any.
        if self.receivers.len() > 1 {
            for j in 0..self.receivers.len() {
                if j == i {
                    continue;
                }
                let ch = &mut self.overhear_chan[j];
                let lost = ch.loss.is_lost(&mut ch.rng)
                    || self.faults.feedback_blocked(q.now())
                    || self.faults.receiver_down(q.now(), j as u32);
                if !lost {
                    q.schedule(
                        depart + self.cfg.prop_delay,
                        Ev::FbOverheard(j, Rc::clone(&pkt), fb_id),
                    );
                }
            }
        }
        q.schedule(depart, Ev::FbFree(i));
    }

    /// After a receiver interaction, make sure its next feedback fire
    /// time has a wake-up event.
    fn arm_feedback(&mut self, q: &mut EventQueue<Ev>, i: usize) {
        let Some(at) = self.receivers[i].next_feedback_at() else {
            return;
        };
        let at = at.max(q.now());
        if self.fb_due_at[i].is_none_or(|cur| at < cur) {
            self.fb_due_at[i] = Some(at);
            q.schedule(at, Ev::FeedbackDue(i));
        }
    }

    /// Receiver `i` hears `pkt` — on the data channel, or a peer's
    /// feedback overheard (multicast damping). The profile scope is named
    /// by what arrived.
    fn hear(&mut self, q: &mut EventQueue<Ev>, i: usize, pkt: &Packet, cause: TraceId) {
        // A packet in flight toward a receiver that has since crashed
        // arrives at a dead host.
        if self.faults.receiver_down(q.now(), i as u32) {
            return;
        }
        let before = self.receivers[i].stats().data_applied;
        {
            let _prof = profile::scope(match pkt {
                Packet::Data(_) => "rx.data",
                Packet::RootSummary(_) => "rx.root_summary",
                Packet::NodeSummary(_) => "rx.node_summary",
                _ => "rx.overheard_fb",
            });
            self.receivers[i].on_packet(q.now(), pkt);
        }
        if self.receivers[i].stats().data_applied > before {
            if let Packet::Data(d) = pkt {
                self.tracer.instant_under(
                    q.now(),
                    Actor::Replica(i as u32),
                    TraceKind::Deliver,
                    d.key.0,
                    cause,
                );
            }
        }
        self.arm_feedback(q, i);
    }

    fn measure(&mut self, q: &mut EventQueue<Ev>) {
        let _prof = profile::scope("probe.measure");
        let now = q.now();
        let total = self.sender.table().live_count();
        let mut disagree = 0u64;
        for i in 0..self.receivers.len() {
            // One lockstep pass over the sender table and the replica
            // (both iterate in ascending key order) counts agreement,
            // samples staleness, and collects first receipts.
            let mut agree = 0usize;
            let mut held = self.receivers[i].replica().entries().peekable();
            let mut first_receipt = |k: Key, first: SimTime, registry: &mut MetricsRegistry| {
                if !self.latency_seen[i].insert(k) {
                    return;
                }
                if let Some(&born) = self.born_at.get(k.0 as usize) {
                    registry.observe(self.h_latency[i], first.saturating_since(born));
                    registry.observe_sketch(self.sk_trec, first.saturating_since(born));
                }
            };
            for r in self.sender.table().live() {
                // Entries the sender no longer has still had a first
                // receipt.
                while let Some((&k, e)) = held.next_if(|(&k, _)| k < r.key) {
                    first_receipt(k, e.first_received, &mut self.registry);
                }
                let mine = held.next_if(|(&k, _)| k == r.key);
                if let Some((&k, e)) = mine {
                    first_receipt(k, e.first_received, &mut self.registry);
                }
                if mine.map(|(_, e)| e.value) == Some(r.value) {
                    agree += 1;
                } else if let Some(&upd) = self.updated_at.get(r.key.0 as usize) {
                    // Probe-sampled staleness: how old the newest sender
                    // value for this disagreeing record already is.
                    self.registry
                        .observe_sketch(self.sk_staleness, now.saturating_since(upd));
                }
            }
            for (&k, e) in held {
                first_receipt(k, e.first_received, &mut self.registry);
            }
            disagree += (total - agree) as u64;
            // 0 when the live set is empty (then `agree` is 0 too).
            let c = agree as f64 / total.max(1) as f64;
            self.probe_c[i].update(now, c);
            let a = self.a_consistency[i];
            self.registry
                .record_sample(a, now, if total == 0 { 1.0 } else { c });
        }
        self.probe_busy
            .update(now, if total == 0 { 0.0 } else { 1.0 });
        // Reconvergence accounting, only when a fault schedule exists.
        // Every probe between the first fault edge and reconvergence
        // counts its disagreeing records as stale serves; the first
        // fully consistent probe at or after the heal instant marks
        // reconvergence (so MTTR has measure-interval resolution).
        if !self.faults.is_empty()
            && self.reconverged_at.is_none()
            && self.fault_started.is_some_and(|t| now >= t)
        {
            let c = self.c_stale;
            self.registry.add(c, disagree);
            if now >= self.faults.healed_at() && disagree == 0 {
                self.reconverged_at = Some(now);
            }
        }
    }

    fn adapt(&mut self, q: &mut EventQueue<Ev>) {
        let _prof = profile::scope("adapt.allocate");
        let now = q.now();
        let total = self.bw_source.total(now);
        let lambda = self.cfg.workload.arrivals.rate();
        let loss = self.sender.estimated_loss();
        // Graceful degradation: sustained heavy reported loss backs the
        // announce rate off multiplicatively (floored at 25%), and the
        // rate recovers once the estimate subsides. The 0.6 threshold
        // sits well above steady-state channel loss, so only
        // partition-grade outages trigger it.
        self.degrade = if loss > 0.6 {
            (self.degrade * 0.7).max(0.25)
        } else {
            (self.degrade * 1.3).min(1.0)
        };
        let alloc = self.allocator.allocate(total, loss, lambda);
        if alloc.rate_warning {
            self.rate_warnings += 1;
        }
        self.allocation = alloc;
        self.allocations.push((now, alloc));
        // Newly available bandwidth may unblock idle servers.
        self.kick_hot(q);
        self.kick_cold(q);
    }
}

impl World for Sim {
    type Event = Ev;

    fn handle(&mut self, q: &mut EventQueue<Ev>, ev: Ev) {
        match ev {
            Ev::AppArrival => {
                self.spawn_arrival(q);
                self.schedule_next_arrival(q);
            }
            Ev::Lifetime(key) => {
                if self.sender.table().get(key).is_some() {
                    self.tracer.death(q.now(), Actor::Publisher, key.0);
                }
                self.sender.withdraw(key);
                take_promotion(&mut self.promoted, key);
            }
            Ev::HotFree => {
                self.hot_busy = false;
                self.kick_hot(q);
            }
            Ev::ColdFree => {
                self.cold_busy = false;
                self.kick_cold(q);
            }
            Ev::FbFree(i) => {
                self.fb_busy[i] = false;
                self.kick_fb(q, i);
            }
            Ev::DataArrive(i, pkt, cause) => self.hear(q, i, &pkt, cause),
            Ev::FbArriveSender(pkt, cause) => {
                let promoted = {
                    let _prof = profile::scope("feedback.sender");
                    self.sender.on_packet(&pkt)
                };
                for key in promoted {
                    let id = self.tracer.instant_under(
                        q.now(),
                        Actor::HotServer,
                        TraceKind::Promote,
                        key.0,
                        cause,
                    );
                    let slot = key.0 as usize;
                    if slot >= self.promoted.len() {
                        self.promoted.resize(slot + 1, TraceId::NONE);
                    }
                    self.promoted[slot] = id;
                }
                self.kick_hot(q);
            }
            Ev::FbOverheard(i, pkt, cause) => self.hear(q, i, &pkt, cause),
            Ev::FeedbackDue(i) => {
                self.fb_due_at[i] = None;
                let _prof = profile::scope("feedback.poll");
                let pkts = self.receivers[i].poll_feedback(q.now());
                self.fb_queue[i].extend(pkts);
                self.kick_fb(q, i);
                self.arm_feedback(q, i);
            }
            Ev::ReportTick(i) => {
                if !self.faults.receiver_down(q.now(), i as u32) {
                    let report = self.receivers[i].make_report();
                    // lint: allow(D010, bounded send queue; kick_fb drains it at the fb service rate)
                    self.fb_queue[i].push_back(report);
                    self.kick_fb(q, i);
                }
                q.schedule_in(self.cfg.report_interval, Ev::ReportTick(i));
            }
            Ev::AdaptTick => {
                self.adapt(q);
                if let Some(dt) = self.cfg.adapt_interval {
                    q.schedule_in(dt, Ev::AdaptTick);
                }
            }
            Ev::ExpiryTick => {
                let now = q.now();
                for r in &mut self.receivers {
                    r.expire(now);
                }
                q.schedule_in(self.cfg.expiry_sweep, Ev::ExpiryTick);
            }
            Ev::MeasureTick => {
                self.measure(q);
                q.schedule_in(self.cfg.measure_interval, Ev::MeasureTick);
            }
            Ev::FaultEdge => {
                let now = q.now();
                for rx in self.faults.crashes_at(now) {
                    let i = rx as usize;
                    if i >= self.receivers.len() {
                        continue;
                    }
                    // The crash wipes the replica: the receiver is
                    // recreated from a deterministic restart stream, and
                    // its first-incarnation stats are carried so the
                    // outcome counts both lives. Rejoin happens through
                    // the normal path — the next root summary diverges
                    // against the empty replica and digest descent
                    // re-fetches everything live.
                    let stream = self
                        .rng_restart
                        .derive(&format!("{i}-{}", self.restart_seq));
                    self.restart_seq += 1;
                    let fresh = SstpReceiver::new(self.rx_cfgs[i].clone(), stream)
                        .with_event_log(self.cfg.event_capacity);
                    let old = std::mem::replace(&mut self.receivers[i], fresh);
                    self.carried_stats[i] = add_stats(self.carried_stats[i], old.stats());
                    self.fb_queue[i].clear();
                    self.fb_due_at[i] = None;
                    // `latency_seen` is deliberately NOT cleared: the
                    // latency histogram records first-ever delivery per
                    // key, and re-fetches after a crash are recovery
                    // traffic, not fresh deliveries.
                }
                // An ending silence/bandwidth episode may leave servers
                // idle with work pending; re-kick everything.
                self.kick_hot(q);
                self.kick_cold(q);
                for i in 0..self.receivers.len() {
                    self.kick_fb(q, i);
                }
            }
        }
    }
}

impl TracedWorld for Sim {
    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    fn event_label(&self, ev: &Ev) -> &'static str {
        match ev {
            Ev::AppArrival => "app-arrival",
            Ev::Lifetime(_) => "lifetime-end",
            Ev::HotFree => "hot-free",
            Ev::ColdFree => "cold-free",
            Ev::FbFree(_) => "fb-free",
            Ev::DataArrive(..) => "data-arrive",
            Ev::FbArriveSender(..) => "fb-arrive-sender",
            Ev::FbOverheard(..) => "fb-overheard",
            Ev::FeedbackDue(_) => "feedback-due",
            Ev::ReportTick(_) => "report-tick",
            Ev::AdaptTick => "adapt-tick",
            Ev::ExpiryTick => "expiry-tick",
            Ev::MeasureTick => "measure-tick",
            Ev::FaultEdge => "fault-edge",
        }
    }
}

/// Runs a full SSTP session and reports all metrics.
///
/// The report carries both the classic typed fields
/// ([`SessionReport::receivers`], [`SessionReport::packets`], …) and a
/// [`MetricsSnapshot`] with every counter, gauge, histogram, and
/// time-averaged consistency series the run produced
/// (`examples/quickstart.rs` is the same flow as a binary):
///
/// ```
/// use softstate::{ArrivalProcess, LossSpec};
/// use ss_netsim::SimDuration;
/// use sstp::session::{self, SessionConfig, SessionWorkload};
///
/// // A unicast SSTP session: 45 kbps budget, 20% loss both ways,
/// // records arriving at ~1.9/s with two-minute lifetimes.
/// let mut cfg = SessionConfig::unicast_default(42);
/// cfg.data_loss = LossSpec::Bernoulli(0.2);
/// cfg.fb_loss = LossSpec::Bernoulli(0.2);
/// cfg.workload = SessionWorkload {
///     arrivals: ArrivalProcess::Poisson { rate: 1.875 },
///     mean_lifetime_secs: Some(120.0),
///     branches: 4,
///     class_weights: None,
/// };
/// cfg.duration = SimDuration::from_secs(600);
///
/// let report = session::run(&cfg);
///
/// // The subscriber tracked the publisher through 20% loss...
/// assert!(report.mean_consistency() > 0.7);
/// // ...and the metrics snapshot is the self-contained record of the
/// // run: channel counters, per-receiver latency, loss estimate.
/// let m = &report.metrics;
/// assert_eq!(m.counter("chan.data.tx"), report.packets.data_channel_tx);
/// assert_eq!(m.histogram("rx.0.latency.t_rec").count, report.receivers[0].latency.count());
/// assert!((m.gauge("session.loss_estimate") - 0.2).abs() < 0.1);
/// ```
pub fn run(cfg: &SessionConfig) -> SessionReport {
    assert!(cfg.n_receivers >= 1, "need at least one receiver");
    let mut sim = Sim::new(cfg.clone());
    let mut q: EventQueue<Ev> = EventQueue::with_capacity(256);
    let end = SimTime::ZERO + cfg.duration;

    // Initial records for bulk workloads.
    for _ in 0..cfg.workload.arrivals.initial_count() {
        sim.publish_one(&mut q);
    }
    sim.kick_hot(&mut q);
    sim.kick_cold(&mut q);
    sim.schedule_next_arrival(&mut q);

    // Periodic machinery. Report ticks are staggered per receiver.
    for i in 0..cfg.n_receivers {
        let offset = SimDuration::from_micros(
            cfg.report_interval.as_micros() * (i as u64 + 1) / (cfg.n_receivers as u64 + 1),
        );
        q.schedule(SimTime::ZERO + offset, Ev::ReportTick(i));
    }
    if let Some(dt) = cfg.adapt_interval {
        q.schedule(SimTime::ZERO + dt, Ev::AdaptTick);
    }
    q.schedule(SimTime::ZERO + cfg.expiry_sweep, Ev::ExpiryTick);
    q.schedule(SimTime::ZERO, Ev::MeasureTick);

    // Fault schedule: a wake-up at every episode boundary (crash wipes,
    // restart rejoins, end-of-silence re-kicks), plus trace spans so
    // ss-trace shows the episodes alongside protocol activity.
    if sim.tracer.is_enabled() {
        sim.faults.record_spans(&mut sim.tracer);
    }
    for t in sim.faults.boundaries() {
        if t < end {
            q.schedule(t, Ev::FaultEdge);
        }
    }

    // Neither tracing nor profiling consumes randomness, so each loop
    // replays the plain run exactly; branch so the common case pays
    // nothing.
    if profile::is_enabled() {
        run_until_profiled(&mut sim, &mut q, end);
    } else if sim.tracer.is_enabled() {
        run_until_traced(&mut sim, &mut q, end);
    } else {
        run_until(&mut sim, &mut q, end);
    }
    sim.measure(&mut q);
    profile::flush();
    sim.tracer.finish(end);

    // Export the endpoint counters into the registry so the snapshot is
    // the one self-contained record of the run.
    let sender = sim.sender.stats();
    for (name, v) in [
        ("sender.data_tx", sender.data_tx),
        ("sender.root_summaries_tx", sender.root_summaries_tx),
        ("sender.node_summaries_tx", sender.node_summaries_tx),
        ("sender.nacks_rx", sender.nacks_rx),
        ("sender.queries_rx", sender.queries_rx),
        ("sender.reports_rx", sender.reports_rx),
        ("sender.nacks_suppressed", sender.nacks_suppressed),
    ] {
        let c = sim.registry.counter(name);
        sim.registry.add(c, v);
    }
    for i in 0..cfg.n_receivers {
        let stats = add_stats(sim.carried_stats[i], sim.receivers[i].stats());
        for (field, v) in [
            ("data_rx", stats.data_rx),
            ("data_applied", stats.data_applied),
            ("root_summaries_rx", stats.root_summaries_rx),
            ("node_summaries_rx", stats.node_summaries_rx),
            ("nacks_sent", stats.nacks_sent),
            ("nacked_keys", stats.nacked_keys),
            ("queries_sent", stats.queries_sent),
            ("damped", stats.damped),
            ("uninterested_skips", stats.uninterested_skips),
            ("expired", stats.expired),
            ("fragments_advanced", stats.fragments_advanced),
        ] {
            let c = sim.registry.counter(&format!("rx.{i}.{field}"));
            sim.registry.add(c, v);
        }
    }
    let c = sim.registry.counter("engine.events_dispatched");
    sim.registry.add(c, q.dispatched());
    let c = sim.registry.counter("engine.events_scheduled");
    sim.registry.add(c, q.scheduled());
    let c = sim.registry.counter("session.rate_warnings");
    sim.registry.add(c, sim.rate_warnings);
    let g = sim.registry.gauge("session.loss_estimate");
    sim.registry.set_gauge(g, sim.sender.estimated_loss());

    // Reconvergence report, only when a schedule was configured.
    let recovery = (!sim.faults.is_empty()).then(|| ReconvergenceReport {
        healed_at: sim.faults.healed_at(),
        reconverged_at: sim.reconverged_at,
        stale_serves: sim.registry.counter_value(sim.c_stale),
        fault_drops: sim.registry.counter_value(sim.c_fault_lost),
    });
    if let Some(r) = &recovery {
        let g = sim.registry.gauge("recovery.mttr_secs");
        sim.registry
            .set_gauge(g, r.mttr().map_or(-1.0, |d| d.as_secs_f64()));
        let g = sim.registry.gauge("recovery.reconverged");
        sim.registry
            .set_gauge(g, if r.reconverged_at.is_some() { 1.0 } else { 0.0 });
        let g = sim.registry.gauge("session.degrade_factor");
        sim.registry.set_gauge(g, sim.degrade);
    }

    let packets = PacketCounters {
        data_channel_tx: sim.registry.counter_value(sim.c_data_tx),
        data_rx_lost: sim.registry.counter_value(sim.c_data_lost),
        feedback_tx: sim.registry.counter_value(sim.c_fb_tx),
        feedback_lost: sim.registry.counter_value(sim.c_fb_lost),
        data_bytes: sim.registry.counter_value(sim.c_data_bytes),
        feedback_bytes: sim.registry.counter_value(sim.c_fb_bytes),
    };
    let metrics = sim.registry.snapshot(end);

    let receivers = (0..cfg.n_receivers)
        .map(|i| ReceiverOutcome {
            consistency: ConsistencyAverages::from_time_averages(
                &sim.probe_c[i],
                &sim.probe_busy,
                SimTime::ZERO,
                end,
            ),
            latency: sim.registry.histogram_value(sim.h_latency[i]).clone(),
            stats: add_stats(sim.carried_stats[i], sim.receivers[i].stats()),
            final_consistency: (sim.probe_busy.current() > 0.0).then(|| sim.probe_c[i].current()),
            events: sim.receivers[i].events().clone(),
        })
        .collect();

    SessionReport {
        receivers,
        sender,
        packets,
        allocations: sim.allocations,
        rate_warnings: sim.rate_warnings,
        final_loss_estimate: sim.sender.estimated_loss(),
        recovery,
        metrics,
        events: sim.events,
        trace: sim.tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::ReliabilityLevel;

    fn base_cfg(seed: u64) -> SessionConfig {
        let mut cfg = SessionConfig::unicast_default(seed);
        cfg.duration = SimDuration::from_secs(400);
        cfg
    }

    #[test]
    fn unicast_session_converges() {
        let report = run(&base_cfg(1));
        let c = report.mean_consistency();
        assert!(c > 0.8, "consistency {c}");
        assert!(report.packets.data_channel_tx > 100);
        assert!(report.sender.data_tx > 0);
        assert!(report.receivers[0].stats.data_applied > 0);
        // Loss estimate converged near the configured 10%.
        assert!(
            (report.final_loss_estimate - 0.1).abs() < 0.08,
            "loss estimate {}",
            report.final_loss_estimate
        );
    }

    #[test]
    fn feedback_improves_on_announce_listen() {
        let mut open = base_cfg(2);
        open.allocator.reliability = ReliabilityLevel::AnnounceListen.into();
        open.data_loss = LossSpec::Bernoulli(0.4);
        open.fb_loss = LossSpec::Bernoulli(0.4);
        let r_open = run(&open);

        let mut fb = base_cfg(2);
        fb.allocator.reliability = ReliabilityLevel::Quasi { max_fb_share: 0.5 }.into();
        fb.data_loss = LossSpec::Bernoulli(0.4);
        fb.fb_loss = LossSpec::Bernoulli(0.4);
        let r_fb = run(&fb);

        let c_open = r_open.mean_consistency();
        let c_fb = r_fb.mean_consistency();
        assert!(
            c_fb > c_open + 0.03,
            "feedback {c_fb} vs announce/listen {c_open}"
        );
        assert!(r_fb.sender.nacks_rx > 0);
        assert_eq!(r_open.sender.nacks_rx, 0);
    }

    #[test]
    fn static_store_reaches_full_consistency() {
        let mut cfg = base_cfg(3);
        cfg.workload = SessionWorkload {
            arrivals: ArrivalProcess::Bulk { count: 30 },
            mean_lifetime_secs: None,
            branches: 3,
            class_weights: None,
        };
        cfg.ttl = SimDuration::from_secs(100_000); // nothing expires
        cfg.data_loss = LossSpec::Bernoulli(0.3);
        cfg.fb_loss = LossSpec::Bernoulli(0.3);
        let report = run(&cfg);
        assert_eq!(
            report.receivers[0].final_consistency,
            Some(1.0),
            "static store must fully converge"
        );
        assert_eq!(report.receivers[0].latency.count(), 30);
    }

    #[test]
    fn multicast_damping_reduces_duplicate_feedback() {
        let mut cfg = base_cfg(4);
        cfg.n_receivers = 6;
        cfg.slot_window = Some(SimDuration::from_secs(2));
        cfg.data_loss = LossSpec::Bernoulli(0.3);
        cfg.workload.arrivals = ArrivalProcess::Bulk { count: 20 };
        cfg.workload.mean_lifetime_secs = None;
        cfg.ttl = SimDuration::from_secs(100_000);
        let report = run(&cfg);
        let damped: u64 = report.receivers.iter().map(|r| r.stats.damped).sum();
        assert!(damped > 0, "peers must suppress duplicate requests");
        let c = report.mean_consistency();
        assert!(c > 0.7, "multicast consistency {c}");
    }

    #[test]
    fn overload_raises_rate_warnings() {
        let mut cfg = base_cfg(5);
        // 45 kbps budget but 10 records/s of 1000-byte ADUs = 80 kbps.
        cfg.workload.arrivals = ArrivalProcess::Poisson { rate: 10.0 };
        let report = run(&cfg);
        assert!(report.rate_warnings > 0, "app must be told to slow down");
    }

    #[test]
    fn adaptation_tracks_loss() {
        let mut cfg = base_cfg(6);
        cfg.data_loss = LossSpec::Bernoulli(0.4);
        cfg.fb_loss = LossSpec::Bernoulli(0.4);
        let report = run(&cfg);
        // Once loss was measured, the allocator funds feedback.
        assert!(!report.allocations.is_empty(), "allocations recorded");
        let last = report.allocations.last().unwrap();
        assert!(
            last.1.feedback.as_bps() > 0,
            "fb budget must be funded under 40% loss: {:?}",
            last.1.feedback
        );
        assert!(report.final_loss_estimate > 0.25);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&base_cfg(7));
        let b = run(&base_cfg(7));
        assert_eq!(a.packets.data_channel_tx, b.packets.data_channel_tx);
        assert_eq!(a.sender.data_tx, b.sender.data_tx);
        assert_eq!(
            a.receivers[0].stats.data_applied,
            b.receivers[0].stats.data_applied
        );
        assert_eq!(a.metrics, b.metrics, "metrics snapshot is deterministic");
        assert_eq!(a.metrics.to_jsonl(), b.metrics.to_jsonl());
    }

    #[test]
    fn metrics_snapshot_mirrors_report() {
        let mut cfg = base_cfg(9);
        cfg.event_capacity = 4096;
        let report = run(&cfg);
        // Channel counters are the same numbers the report carries.
        let m = &report.metrics;
        assert_eq!(m.counter("chan.data.tx"), report.packets.data_channel_tx);
        assert_eq!(m.counter("chan.data.rx_lost"), report.packets.data_rx_lost);
        assert_eq!(m.counter("chan.fb.tx"), report.packets.feedback_tx);
        assert_eq!(m.counter("sender.data_tx"), report.sender.data_tx);
        assert_eq!(
            m.counter("rx.0.data_applied"),
            report.receivers[0].stats.data_applied
        );
        assert_eq!(
            m.histogram("rx.0.latency.t_rec").count,
            report.receivers[0].latency.count()
        );
        assert!(m.counter("engine.events_dispatched") > 0);
        assert!(
            m.counter("engine.events_scheduled") >= m.counter("engine.events_dispatched"),
            "can't dispatch more than was scheduled"
        );
        let c = m.time_average("rx.0.consistency");
        assert!((0.0..=1.0).contains(&c), "E[c(t)] = {c}");
        // The traces saw real protocol activity.
        use ss_netsim::{EventKind, QueueClass};
        assert!(
            report
                .events
                .of_kind(EventKind::Announce(QueueClass::Hot))
                .count()
                > 0
        );
        assert!(report.events.of_kind(EventKind::Summary).count() > 0);
        assert!(
            report.receivers[0]
                .events
                .of_kind(EventKind::Deliver)
                .count()
                > 0
        );
    }

    #[test]
    fn receiver_averages_agree_with_the_probe_gauges() {
        let mut cfg = base_cfg(13);
        cfg.n_receivers = 3;
        cfg.data_loss = LossSpec::Bernoulli(0.3);
        let report = run(&cfg);
        let idle: Vec<f64> = report
            .receivers
            .iter()
            .map(|r| r.consistency.empty_consistent - r.consistency.unnormalized)
            .collect();
        for (i, r) in report.receivers.iter().enumerate() {
            // `rx.<i>.consistency` scores empty instants 1, as the
            // empty-consistent convention does.
            let gauge = report.metrics.time_average(&format!("rx.{i}.consistency"));
            let a = r.consistency;
            assert!(
                (a.empty_consistent - gauge).abs() < 1e-12,
                "rx {i}: {a:?} vs {gauge}"
            );
            assert!(a.unnormalized <= a.busy.unwrap() + 1e-12, "rx {i}: {a:?}");
            // The sender's live set decides busy, so every receiver sees
            // the same idle fraction.
            assert!((idle[i] - idle[0]).abs() < 1e-12, "rx {i}: {idle:?}");
        }
    }

    #[test]
    fn final_consistency_is_none_once_the_live_set_drains() {
        let mut cfg = base_cfg(14);
        cfg.workload = SessionWorkload {
            arrivals: ArrivalProcess::Bulk { count: 5 },
            mean_lifetime_secs: Some(10.0),
            branches: 1,
            class_weights: None,
        };
        let report = run(&cfg);
        let r = &report.receivers[0];
        assert_eq!(r.final_consistency, None, "nothing live at the end");
        let a = r.consistency;
        assert!(a.busy.is_some(), "records were live at the start");
        assert!(
            a.empty_consistent > a.unnormalized + 0.5,
            "the long idle tail scores 1 in one convention and 0 in the other: {a:?}"
        );
    }

    #[test]
    fn zero_event_capacity_disables_traces() {
        let report = run(&base_cfg(12));
        assert!(report.events.is_empty());
        assert_eq!(report.events.dropped(), 0);
        assert!(report.receivers[0].events.is_empty());
        // The causal tracer is equally silent at zero capacity.
        assert!(report.trace.is_empty());
        assert_eq!(report.trace.dropped(), 0);
    }

    #[test]
    fn causal_trace_links_wire_and_lifecycle() {
        use ss_netsim::trace::TraceKind;

        let mut cfg = base_cfg(12);
        cfg.trace_capacity = 400_000;
        let traced = run(&cfg);
        let plain = run(&base_cfg(12));

        // Tracing consumes no randomness: the traced run replays the
        // untraced one exactly.
        assert_eq!(traced.trace.dropped(), 0);
        assert_eq!(traced.packets, plain.packets);
        assert_eq!(
            traced.mean_consistency().to_bits(),
            plain.mean_consistency().to_bits()
        );

        // Every replica install shows up as a Deliver instant parented
        // under the wire span that carried the packet.
        let installs: u64 = traced.receivers.iter().map(|r| r.stats.data_applied).sum();
        let delivers: Vec<_> = traced.trace.of_kind(TraceKind::Deliver).collect();
        assert_eq!(delivers.len() as u64, installs);
        for d in &delivers {
            let parent = traced
                .trace
                .events()
                .iter()
                .find(|e| e.id == d.parent)
                .expect("deliver has a wire-span parent");
            assert_eq!(parent.kind, TraceKind::Announce);
            assert_eq!(parent.key, d.key);
        }

        // Every promotion chains back through the feedback packet that
        // triggered it (NACK -> promote).
        let promotes: Vec<_> = traced.trace.of_kind(TraceKind::Promote).collect();
        assert!(!promotes.is_empty(), "lossy run should promote keys");
        for p in &promotes {
            let parent = traced
                .trace
                .events()
                .iter()
                .find(|e| e.id == p.parent)
                .expect("promote has a feedback parent");
            assert_eq!(parent.kind, TraceKind::Nack);
        }

        // The exporters are deterministic functions of the trace.
        let again = run(&cfg);
        assert_eq!(
            traced.trace.to_causal_jsonl(),
            again.trace.to_causal_jsonl()
        );
    }

    #[test]
    fn class_weights_prioritize_a_branch() {
        // Plumbing check: weights flow through to the sender and the
        // session stays functional under overload. (The service-ratio
        // property itself is unit-tested at the sender:
        // `sender::tests::class_weights_bias_hot_service`.)
        let mut cfg = base_cfg(11);
        cfg.workload = SessionWorkload {
            arrivals: ArrivalProcess::Poisson { rate: 4.0 },
            mean_lifetime_secs: Some(90.0),
            branches: 2,
            class_weights: Some(vec![8, 1]),
        };
        cfg.total_bandwidth = Bandwidth::from_kbps(30);
        cfg.data_loss = LossSpec::Bernoulli(0.1);
        let report = run(&cfg);
        assert!(report.rate_warnings > 0, "4 rec/s exceeds 30 kbps");
        assert!(
            report.receivers[0].stats.data_applied > 50,
            "prioritized session must keep delivering: {}",
            report.receivers[0].stats.data_applied
        );
    }

    #[test]
    fn fragmented_adus_converge_end_to_end() {
        let mut cfg = base_cfg(10);
        cfg.adu_bytes = 4000; // 4 fragments per ADU at MTU 1000
        cfg.mtu = Some(1000);
        cfg.allocator.adu_bytes = 4000;
        cfg.workload.arrivals = ArrivalProcess::Poisson { rate: 0.4 };
        cfg.data_loss = LossSpec::Bernoulli(0.15);
        let report = run(&cfg);
        let c = report.mean_consistency();
        assert!(c > 0.7, "fragmented session consistency {c}");
        assert!(
            report.receivers[0].stats.fragments_advanced > report.receivers[0].stats.data_applied,
            "multiple fragments per applied ADU"
        );
    }

    #[test]
    fn interest_scoped_receiver_skips_branch() {
        let mut cfg = base_cfg(8);
        cfg.interests = Some(vec![Interest::Tags(vec![MetaTag(0), MetaTag(1)])]);
        cfg.workload.branches = 4;
        cfg.data_loss = LossSpec::Bernoulli(0.3);
        let report = run(&cfg);
        assert!(
            report.receivers[0].stats.uninterested_skips > 0,
            "uninterested branches must be skipped"
        );
    }

    /// A static bulk store that nothing expires: the cleanest substrate
    /// for reconvergence assertions.
    fn chaos_cfg(seed: u64) -> SessionConfig {
        let mut cfg = base_cfg(seed);
        cfg.workload = SessionWorkload {
            arrivals: ArrivalProcess::Bulk { count: 30 },
            mean_lifetime_secs: None,
            branches: 3,
            class_weights: None,
        };
        cfg.ttl = SimDuration::from_secs(100_000);
        cfg.data_loss = LossSpec::Bernoulli(0.1);
        cfg.fb_loss = LossSpec::Bernoulli(0.1);
        cfg
    }

    #[test]
    fn no_faults_reports_no_recovery() {
        let report = run(&chaos_cfg(20));
        assert!(report.recovery.is_none());
        assert_eq!(report.metrics.counter("faults.drops"), 0);
    }

    #[test]
    fn partition_reconverges_and_reports_mttr() {
        let mut cfg = chaos_cfg(21);
        cfg.faults = FaultSpec::none().partition(
            SimTime::ZERO + SimDuration::from_secs(60),
            SimTime::ZERO + SimDuration::from_secs(150),
        );
        let report = run(&cfg);
        let rec = report.recovery.expect("schedule configured");
        assert_eq!(rec.healed_at, SimTime::ZERO + SimDuration::from_secs(150));
        assert!(rec.fault_drops > 0, "the partition must eat packets");
        let mttr = rec.mttr().expect("must reconverge after the heal");
        assert!(
            mttr <= SimDuration::from_secs(120),
            "repair should finish within two cold cycles of the heal, got {mttr:?}"
        );
        assert_eq!(
            report.receivers[0].final_consistency,
            Some(1.0),
            "static store fully reconverges"
        );
    }

    #[test]
    fn receiver_crash_rejoins_via_summary_descent() {
        let mut cfg = chaos_cfg(22);
        cfg.faults = FaultSpec::none().receiver_crash(
            SimTime::ZERO + SimDuration::from_secs(100),
            SimTime::ZERO + SimDuration::from_secs(140),
            0,
        );
        let report = run(&cfg);
        let rec = report.recovery.expect("schedule configured");
        assert!(rec.reconverged_at.is_some(), "crashed receiver must rejoin");
        assert_eq!(report.receivers[0].final_consistency, Some(1.0));
        // The wiped replica disagrees with the whole store until the
        // descent re-fetches it: every probe in between serves stale.
        assert!(rec.stale_serves > 0);
        // The outcome counts both incarnations: the 30 originals plus
        // the post-restart re-fetch of the whole store.
        assert!(
            report.receivers[0].stats.data_applied >= 45,
            "carried stats must span the crash: {}",
            report.receivers[0].stats.data_applied
        );
        assert_eq!(
            report.metrics.counter("rx.0.data_applied"),
            report.receivers[0].stats.data_applied,
            "metrics export uses the same carried stats"
        );
    }

    #[test]
    fn sender_silence_stalls_then_recovers() {
        let mut cfg = chaos_cfg(23);
        cfg.faults = FaultSpec::none().sender_silence(
            SimTime::ZERO + SimDuration::from_secs(5),
            SimTime::ZERO + SimDuration::from_secs(60),
        );
        let report = run(&cfg);
        let rec = report.recovery.expect("schedule configured");
        assert!(
            rec.reconverged_at.is_some(),
            "the FaultEdge re-kick must restart the servers"
        );
        assert_eq!(report.receivers[0].final_consistency, Some(1.0));
    }

    #[test]
    fn generated_fault_schedule_replays_bit_for_bit() {
        let mut cfg = chaos_cfg(24);
        let mut rng = SimRng::new(99);
        cfg.faults = FaultSpec::generate(&mut rng, 1, SimDuration::from_secs(300), 4);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.metrics.to_jsonl(), b.metrics.to_jsonl());
    }

    #[test]
    fn sustained_outage_degrades_announce_rate() {
        let mut cfg = base_cfg(25);
        // A near-total loss episode (a bidirectional partition would
        // also block the loss reports that drive the estimate) pushes
        // reported loss far past the 0.6 threshold; the announce rate
        // must back off while the outage lasts.
        cfg.duration = SimDuration::from_secs(300);
        cfg.faults = FaultSpec::none().extra_loss(
            SimTime::ZERO + SimDuration::from_secs(60),
            SimTime::ZERO + SimDuration::from_secs(320),
            LossSpec::Bernoulli(0.95),
        );
        let report = run(&cfg);
        let g = report.metrics.gauge("session.degrade_factor");
        assert!(
            g < 1.0,
            "announce rate must be degraded during the outage, factor {g}"
        );
        assert!(report.recovery.unwrap().fault_drops > 0);
    }

    /// The three `sim_session` benchmark shapes (copied from
    /// `benchmark/src/sim.rs`, not imported), short enough for a debug
    /// run: 16-receiver multicast, unicast churn with lifetimes, and a
    /// partition + crash-rejoin schedule over in-place updates.
    fn pinned_shapes() -> [(&'static str, SessionConfig); 3] {
        let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);

        let mut mcast = SessionConfig::unicast_default(0x5eed_0001);
        mcast.n_receivers = 16;
        mcast.slot_window = Some(SimDuration::from_secs(2));
        mcast.data_loss = LossSpec::Bernoulli(0.2);
        mcast.fb_loss = LossSpec::Bernoulli(0.05);
        mcast.workload = SessionWorkload {
            arrivals: ArrivalProcess::Poisson { rate: 0.5 },
            mean_lifetime_secs: None,
            branches: 4,
            class_weights: None,
        };
        mcast.ttl = SimDuration::from_secs(120);
        mcast.duration = SimDuration::from_secs(250);

        let mut churn = SessionConfig::unicast_default(0x5eed_0002);
        churn.data_loss = LossSpec::Bernoulli(0.15);
        churn.fb_loss = LossSpec::Bernoulli(0.15);
        churn.duration = SimDuration::from_secs(1_000);

        let mut rejoin = SessionConfig::unicast_default(0x5eed_0003);
        rejoin.n_receivers = 2;
        rejoin.workload = SessionWorkload {
            arrivals: ArrivalProcess::PoissonUpdates {
                rate: 1.0,
                keys: 40,
            },
            mean_lifetime_secs: None,
            branches: 4,
            class_weights: None,
        };
        rejoin.ttl = SimDuration::from_secs(90);
        rejoin.duration = SimDuration::from_secs(1_500);
        rejoin.faults = FaultSpec::none()
            .partition(at(100), at(145))
            .receiver_crash(at(300), at(320), 0)
            .partition(at(500), at(520))
            .receiver_crash(at(600), at(610), 1)
            .partition(at(900), at(1_000))
            .receiver_crash(at(1_200), at(1_230), 0);

        [("mcast", mcast), ("churn", churn), ("rejoin", rejoin)]
    }

    /// Byte identity across the hot-path rewrite (lazy replica floor,
    /// streaming digests, shared packets, single-pass probe): the full
    /// metrics snapshot of each benchmark shape hashes to the value the
    /// commit before that rewrite produced.
    #[test]
    fn hot_path_rewrite_keeps_metrics_byte_identical() {
        let got = pinned_shapes().map(|(name, cfg)| {
            let jsonl = run(&cfg).metrics.to_jsonl();
            (name, crate::digest::fnv1a64(jsonl.as_bytes()))
        });
        let want = [
            ("mcast", 0xf9ea_e3dd_c25e_e8a6_u64),
            ("churn", 0x0b44_f38e_19c6_13d9),
            ("rejoin", 0xb3f3_2329_43b5_38e5),
        ];
        assert_eq!(got, want, "got {got:#018x?}");
    }
}
