//! `ss-runtime`: a production-shaped multi-session SSTP runtime.
//!
//! Many concurrent SSTP sessions — each an independent sans-I/O
//! [`SstpSender`] or [`SstpReceiver`] state machine — multiplexed over
//! **one** nonblocking UDP socket, with the scheduling concerns the
//! simulator never needed:
//!
//! * **Bounded channels everywhere** ([`mux::BoundedQueue`],
//!   [`shed::SheddingQueue`]): socket I/O and state machines exchange
//!   packets through capacity-capped queues whose refusal is a counted,
//!   metric-visible drop (`runtime.backpressure.drops`) — never an
//!   unbounded buffer, never a panic. The soft-state model is what makes
//!   this safe: every dropped message is an idempotent refresh that a
//!   later cycle re-sends. A capacity caps a queue's length and is not
//!   preallocated: both start empty and grow on demand, so an installed
//!   idle session holds about 1 KB of heap and its inbox none. The socket
//!   is one more bounded channel: what it will not take is a counted
//!   `runtime.egress.drops`, and the poll goes on.
//! * **Coalesced datagrams** ([`mux`]): all sessions share one peer, so
//!   the frames one poll emits travel together in MTU-sized datagrams —
//!   a system call per dozen announcements, not per announcement — and
//!   the last, partial datagram leaves before the poll returns.
//! * **Rate control** ([`pacing`]): a per-session token bucket bounds
//!   each session's hot traffic; a global bucket bounds the socket; a
//!   [`pacing::VarRateLimit`] paces cold announce batches and is the
//!   knob the degradation policy turns. Publishers whose summary is due
//!   wait for its grants in a FIFO: arrival order is the fairness.
//! * **Supervision** ([`supervisor`]): dead-peer detection after a
//!   silence threshold, capped-exponential re-probes (the same
//!   `base * 2^min(n,4)` schedule as the receiver's repair backoff),
//!   crash-rejoin through the existing root-summary descent, and MTTR
//!   accounting into a quantile sketch.
//! * **Graceful degradation** ([`shed`]): under pressure the outbound
//!   queue sheds cold refreshes first and the announce pacer halves its
//!   rate, preserving hot announcements and repair feedback — the
//!   paper's allocation priorities applied as overload policy.
//!
//! The enabler is the clock split the machines already obey: protocol
//! logic never reads a clock, so the *same* state machines that
//! `ss-verify` explores exhaustively and the deterministic sim replays
//! bit-for-bit are driven here by a [`WallClock`] mapping real instants
//! onto the [`SimTime`] axis. The runtime adds scheduling only — no
//! protocol logic lives in this module tree, and everything except this
//! file (the wall clock) and [`mux`] (the socket) is itself pure and
//! deterministic.
//!
//! Single-threaded by design: one [`Runtime`] is one poll loop
//! ([`Runtime::poll`] returns the next wake-up deadline;
//! [`Runtime::run_for`] drives it with the deadline-aware socket wait,
//! [`Runtime::wait`]). Scale across cores by running several runtimes,
//! each owning its own socket. A runtime holding one publisher session,
//! peered with one holding one subscriber session, is the plain
//! single-pair binding of the endpoints to UDP.
//!
//! The loop is **event-driven**: a poll costs O(ready + due), not
//! O(sessions), so an idle session costs its refresh timers and nothing
//! in between, and installing one costs O(log n): a crashed slot waits
//! in a lowest-first vacancy set, not for a scan. A *ready list* holds
//! the sessions with something to do now (a datagram routed to them, a
//! `&mut` handed to the application, a fresh install); a
//! [`pacing::DeadlineIndex`] holds every session's
//! next wake-up as a lazily validated lower bound — an entry is pushed
//! only when a deadline moves earlier, one that moves later is found out
//! when the old entry surfaces — which is what keeps per-datagram paths
//! off the heap; the [`supervisor`] indexes its probe deadlines the same
//! way and keeps its gauges as running counts. The design's failure mode
//! is a missed wake-up, so every path that makes a session runnable
//! either marks it ready or arms a deadline (`tests/runtime_poll.rs`
//! pins each), and the loop counts its own work
//! (`runtime.poll.{count,sessions_stepped,timers_fired}`).

pub mod mux;
pub mod pacing;
pub mod shed;
pub mod supervisor;

use crate::digest::HashAlgorithm;
use crate::receiver::{ReceiverConfig, SstpReceiver};
use crate::sender::SstpSender;
use crate::wire::Packet;
use mux::{BoundedQueue, SocketMux, FRAME_OVERHEAD};
use pacing::{DeadlineIndex, TokenBucket, VarRateLimit};
use shed::{Outbound, SheddingQueue, TrafficClass};
use ss_netsim::{
    Bandwidth, Clock, CounterId, GaugeId, LossModel, LossSpec, MetricsRegistry, MetricsSnapshot,
    RealPathFaults, SimDuration, SimRng, SimTime, SketchId,
};
use std::collections::{BTreeSet, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use supervisor::{Supervisor, SupervisorConfig};

/// Maps wall-clock instants onto the protocol's [`SimTime`] axis.
///
/// The runtime's counterpart of the sim's virtual clock: `SimTime::ZERO`
/// is the instant the clock was created, and every protocol deadline is
/// computed on the `SimTime` axis so the state machines cannot tell the
/// difference. This is the **only** place where the workspace reads a
/// wall clock — ss-lint's D001 enforces that.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose epoch is now.
    pub fn start() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// The span from `now()` until `t`, as a std [`Duration`] for socket
    /// timeouts (zero when `t` is already past).
    pub fn until(&self, t: SimTime) -> Duration {
        Duration::from_micros(t.saturating_since(self.now()).as_micros())
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }
}

/// Runtime tuning. [`RuntimeConfig::loopback`] gives soak-friendly
/// defaults; every knob is public for tests.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Local bind address (port 0 picks an ephemeral port).
    pub bind: SocketAddr,
    /// The remote endpoint all sessions share.
    pub peer: SocketAddr,
    /// Global socket budget enforced by the shared token bucket.
    pub bandwidth: Bandwidth,
    /// Per-session hot-traffic budget.
    pub session_bandwidth: Bandwidth,
    /// Root-summary interval (publisher sessions).
    pub summary_interval: SimDuration,
    /// Receiver-report interval (subscriber sessions).
    pub report_interval: SimDuration,
    /// Soft-state expiry sweep interval (subscriber sessions).
    pub expiry_interval: SimDuration,
    /// Cold-path pacer rate (summaries + cycle refreshes, in operations
    /// per second across **all** sessions). The degradation policy halves
    /// this under pressure and restores it when pressure clears.
    pub cold_rate: u32,
    /// Capacity of each per-session inbox.
    pub inbox_capacity: usize,
    /// Capacity of the shared outbound queue.
    pub outbox_capacity: usize,
    /// Cold watermark of the outbound queue (cold pushes refused above).
    pub outbox_cold_watermark: usize,
    /// Liveness supervision knobs.
    pub supervisor: SupervisorConfig,
    /// Test hook: drop arriving frames by this loss process, drawn from a
    /// **dedicated** seeded stream (the batched-draw contract — see
    /// [`LossSpec::build_batched`]).
    pub ingress_loss: LossSpec,
    /// Seed for the ingress-drop stream and the supervisor jitter.
    pub seed: u64,
}

impl RuntimeConfig {
    /// Loopback defaults sized for many-session soak runs.
    pub fn loopback(bind: SocketAddr, peer: SocketAddr) -> Self {
        RuntimeConfig {
            bind,
            peer,
            bandwidth: Bandwidth::from_mbps(200),
            session_bandwidth: Bandwidth::from_kbps(256),
            summary_interval: SimDuration::from_millis(200),
            report_interval: SimDuration::from_millis(500),
            expiry_interval: SimDuration::from_millis(500),
            cold_rate: 50_000,
            inbox_capacity: 64,
            outbox_capacity: 4096,
            outbox_cold_watermark: 3072,
            supervisor: SupervisorConfig::default(),
            ingress_loss: LossSpec::None,
            seed: 0,
        }
    }
}

/// One session's endpoint state: the protocol machine plus its periodic
/// deadlines. All deadlines live on the [`SimTime`] axis.
// The publisher is the larger machine by a third; boxing it would cost a
// pointer chase per packet to save that third on subscriber slots only.
#[allow(clippy::large_enum_variant)]
enum Endpoint {
    Publisher {
        sender: SstpSender,
        bucket: TokenBucket,
        next_summary: SimTime,
        /// A hot packet built but throttled by the session bucket.
        pending: Option<Packet>,
        /// The summary is due and the session is queued at the cold
        /// pacer (it is in `Runtime::cold_queue` exactly while this is
        /// set).
        awaiting_cold: bool,
    },
    Subscriber {
        receiver: SstpReceiver,
        next_report: SimTime,
        next_expiry: SimTime,
    },
}

/// One multiplexed session: endpoint plus its bounded inbox.
struct SessionSlot {
    endpoint: Endpoint,
    inbox: BoundedQueue<Packet>,
    /// The session is in `Runtime::ready` (exactly while this is set).
    ready: bool,
}

/// Queues session `sid` for a step on the next poll, once: `queued` is
/// its slot's `ready` flag.
fn mark_ready(queued: &mut bool, ready: &mut Vec<u32>, sid: u32) {
    if !*queued {
        *queued = true;
        ready.push(sid);
    }
}

/// Pre-registered metric handles (registered once in [`Runtime::bind`];
/// D007 forbids inline re-registration).
struct Ids {
    active: GaugeId,
    backpressure: CounterId,
    shed_cold: CounterId,
    shed_hot: CounterId,
    fault_drops: CounterId,
    injected_drops: CounterId,
    ingress: CounterId,
    egress: CounterId,
    ingress_frames: CounterId,
    egress_frames: CounterId,
    routed: CounterId,
    egress_drops: CounterId,
    decode_errors: CounterId,
    structure_conflicts: CounterId,
    unknown_session: CounterId,
    throttled: CounterId,
    probes: CounterId,
    heals: CounterId,
    mttr: SketchId,
    polls: CounterId,
    sessions_stepped: CounterId,
    timers_fired: CounterId,
    cold_queue_high_water: GaugeId,
    timers_high_water: GaugeId,
}

/// Deltas already folded into the metrics registry (counters are
/// monotone; the sources keep absolute totals).
#[derive(Default)]
struct Synced {
    backpressure: u64,
    shed_cold: u64,
    shed_hot: u64,
    fault_drops: u64,
    ingress: u64,
    egress: u64,
    ingress_frames: u64,
    egress_frames: u64,
    egress_drops: u64,
    decode_errors: u64,
    structure_conflicts: u64,
    probes: u64,
    heals: u64,
}

/// The multi-session runtime: one socket, many state machines, one poll
/// loop. See the module docs for the architecture.
pub struct Runtime {
    mux: SocketMux,
    clock: WallClock,
    global_bucket: TokenBucket,
    cold_pacer: VarRateLimit,
    base_cold_rate: u32,
    sessions: Vec<Option<SessionSlot>>,
    /// The crashed slots of `sessions`, exactly its `None` entries:
    /// installs reuse the lowest first.
    vacant: BTreeSet<u32>,
    /// Sessions with something to do *now*: a datagram in the inbox, a
    /// `&mut` handed to the application, a fresh install, a fired timer.
    ready: Vec<u32>,
    /// Each session's next wake-up (throttle eta, summary, report,
    /// expiry, feedback), as lower bounds — see [`DeadlineIndex`].
    timers: DeadlineIndex,
    /// Publishers whose summary is due, in arrival order, waiting for a
    /// cold-pacer grant. Served from the front only: arrival order is the
    /// fairness, and sessions behind the front cost nothing until their
    /// turn.
    cold_queue: VecDeque<u32>,
    cold_queue_high_water: usize,
    /// `outbox.stats().shed_cold` as of the previous poll: the overload
    /// policy's own cursor, independent of the metrics fold.
    last_shed_cold: u64,
    supervisor: Supervisor,
    outbox: SheddingQueue,
    faults: Option<RealPathFaults>,
    ingress_loss: Option<Box<dyn LossModel>>,
    drop_rng: SimRng,
    injected_drops: u64,
    unknown_session: u64,
    /// Frames that reached an inbox.
    routed: u64,
    throttled: u64,
    /// Inbox refusals, all sessions ever installed.
    backpressure: u64,
    /// Structure conflicts counted by subscriber sessions since crashed
    /// (the live ones keep their own count).
    crashed_conflicts: u64,
    polls: u64,
    sessions_stepped: u64,
    timers_fired: u64,
    metrics: MetricsRegistry,
    ids: Ids,
    synced: Synced,
    cfg: RuntimeConfig,
}

impl Runtime {
    /// Binds the runtime's socket and registers its metric series.
    pub fn bind(cfg: RuntimeConfig) -> io::Result<Self> {
        let mut metrics = MetricsRegistry::new();
        let active = metrics.gauge("runtime.sessions.active");
        let backpressure = metrics.counter("runtime.backpressure.drops");
        let shed_cold = metrics.counter("runtime.shed.cold");
        let shed_hot = metrics.counter("runtime.shed.hot");
        let fault_drops = metrics.counter("runtime.fault.drops");
        let injected_drops = metrics.counter("runtime.loss.injected");
        let ingress = metrics.counter("runtime.ingress.datagrams");
        let egress = metrics.counter("runtime.egress.datagrams");
        let ingress_frames = metrics.counter("runtime.ingress.frames");
        let egress_frames = metrics.counter("runtime.egress.frames");
        let routed = metrics.counter("runtime.ingress.routed");
        let egress_drops = metrics.counter("runtime.egress.drops");
        let decode_errors = metrics.counter("runtime.decode.errors");
        let structure_conflicts = metrics.counter("runtime.rx.structure_conflicts");
        let unknown_session = metrics.counter("runtime.route.unknown");
        let throttled = metrics.counter("runtime.throttled");
        let probes = metrics.counter("runtime.probe.sent");
        let heals = metrics.counter("runtime.session.heals");
        let mttr = metrics.sketch("runtime.session.mttr");
        let polls = metrics.counter("runtime.poll.count");
        let sessions_stepped = metrics.counter("runtime.poll.sessions_stepped");
        let timers_fired = metrics.counter("runtime.poll.timers_fired");
        let cold_queue_high_water = metrics.gauge("runtime.cold.queue_high_water");
        let timers_high_water = metrics.gauge("runtime.timers.high_water");
        let ids = Ids {
            active,
            backpressure,
            shed_cold,
            shed_hot,
            fault_drops,
            injected_drops,
            ingress,
            egress,
            ingress_frames,
            egress_frames,
            routed,
            egress_drops,
            decode_errors,
            structure_conflicts,
            unknown_session,
            throttled,
            probes,
            heals,
            mttr,
            polls,
            sessions_stepped,
            timers_fired,
            cold_queue_high_water,
            timers_high_water,
        };
        // A lossless spec consumes no randomness at all, matching the
        // simulator channels' draw discipline. A lossy one is built
        // **batched**: this ingress stream is dedicated to loss draws,
        // which is exactly the dedicated-stream contract batched draws
        // require (see `LossSpec::build_batched`).
        let ingress_loss =
            (cfg.ingress_loss.mean() > 0.0).then(|| cfg.ingress_loss.build_batched());
        Ok(Runtime {
            mux: SocketMux::bind(cfg.bind, cfg.peer)?,
            clock: WallClock::start(),
            global_bucket: TokenBucket::new(cfg.bandwidth),
            cold_pacer: VarRateLimit::new(cfg.cold_rate),
            base_cold_rate: cfg.cold_rate.max(1),
            sessions: Vec::new(),
            vacant: BTreeSet::new(),
            ready: Vec::new(),
            timers: DeadlineIndex::new(),
            cold_queue: VecDeque::new(),
            cold_queue_high_water: 0,
            last_shed_cold: 0,
            supervisor: Supervisor::new(cfg.supervisor, SimRng::new(cfg.seed ^ 0x5cbe_11a7)),
            outbox: SheddingQueue::new(cfg.outbox_capacity, cfg.outbox_cold_watermark),
            faults: None,
            ingress_loss,
            drop_rng: SimRng::new(cfg.seed ^ 0x9e37_79b9),
            injected_drops: 0,
            unknown_session: 0,
            routed: 0,
            throttled: 0,
            backpressure: 0,
            crashed_conflicts: 0,
            polls: 0,
            sessions_stepped: 0,
            timers_fired: 0,
            metrics,
            ids,
            synced: Synced::default(),
            cfg,
        })
    }

    /// The bound local address (useful with ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.mux.local_addr()
    }

    /// Re-targets the peer (e.g. once the remote ephemeral port is known).
    pub fn set_peer(&mut self, peer: SocketAddr) {
        self.mux.set_peer(peer);
    }

    /// The runtime's protocol clock.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Blocks until a datagram reaches this runtime's socket or `timeout`
    /// elapses (at most 50 ms): `Ok(true)` when one is waiting for the
    /// next [`Runtime::poll`]. See [`SocketMux::wait`].
    pub fn wait(&self, timeout: Duration) -> io::Result<bool> {
        self.mux.wait(timeout)
    }

    /// Installs a fault schedule to replay as real socket-level drops at
    /// this runtime's ingress (see [`RealPathFaults`]).
    pub fn set_faults(&mut self, faults: RealPathFaults) {
        self.faults = Some(faults);
    }

    /// The installed fault adapter, if any.
    pub fn faults(&self) -> Option<&RealPathFaults> {
        self.faults.as_ref()
    }

    /// Adds a publisher session; returns its session id.
    pub fn add_publisher(&mut self, algo: HashAlgorithm, default_payload: u32) -> u32 {
        let now = self.clock.now();
        let endpoint = Endpoint::Publisher {
            sender: SstpSender::new(algo, default_payload),
            bucket: TokenBucket::new(self.cfg.session_bandwidth),
            next_summary: now,
            pending: None,
            awaiting_cold: false,
        };
        self.install(endpoint, now)
    }

    /// Adds a subscriber session; returns its session id.
    pub fn add_subscriber(&mut self, rcfg: ReceiverConfig) -> u32 {
        let now = self.clock.now();
        let seed = self.cfg.seed ^ u64::from(rcfg.id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let endpoint = Endpoint::Subscriber {
            receiver: SstpReceiver::new(rcfg, SimRng::new(seed)),
            next_report: now + self.cfg.report_interval,
            next_expiry: now + self.cfg.expiry_interval,
        };
        self.install(endpoint, now)
    }

    fn install(&mut self, endpoint: Endpoint, now: SimTime) -> u32 {
        // Reuse the lowest crashed (vacated) slot before growing.
        let sid = match self.vacant.first() {
            Some(&sid) => sid,
            None => {
                self.sessions.push(None);
                (self.sessions.len() - 1) as u32
            }
        };
        self.occupy(sid, endpoint, now);
        sid
    }

    /// Puts a fresh session into the vacant slot `sid`, ready to be
    /// stepped by the next poll — which is what arms its timers.
    fn occupy(&mut self, sid: u32, endpoint: Endpoint, now: SimTime) {
        self.vacant.remove(&sid);
        let slot = self.sessions[sid as usize].insert(SessionSlot {
            endpoint,
            inbox: BoundedQueue::new(self.cfg.inbox_capacity),
            ready: false,
        });
        mark_ready(&mut slot.ready, &mut self.ready, sid);
        self.supervisor.register(sid, now);
    }

    /// Crashes session `sid` (churn): the state machine and its queued
    /// inbox are discarded, mirroring a process death. Rejoin by
    /// installing a fresh session — recovery then flows through the
    /// root-summary descent, exactly like the sim's crash-rejoin path.
    pub fn crash(&mut self, sid: u32) {
        if let Some(slot) = self.sessions.get_mut(sid as usize) {
            if let Some(dead) = slot.take() {
                self.vacant.insert(sid);
                // Nothing of the dead occupant may wake whoever reuses
                // the slot: not its timers, not its place in a queue.
                self.timers.vacate(sid);
                if dead.ready {
                    self.ready.retain(|&r| r != sid);
                }
                match dead.endpoint {
                    Endpoint::Publisher {
                        awaiting_cold: true,
                        ..
                    } => self.cold_queue.retain(|&q| q != sid),
                    Endpoint::Publisher { .. } => {}
                    // What the dead receiver counted outlives it.
                    Endpoint::Subscriber { receiver, .. } => {
                        self.crashed_conflicts += receiver.stats().structure_conflicts;
                    }
                }
            }
            self.supervisor.crash(sid);
        }
    }

    /// Rejoins a crashed subscriber slot with a fresh (empty-replica)
    /// receiver. Panics if `sid` is still occupied.
    pub fn rejoin_subscriber(&mut self, sid: u32, rcfg: ReceiverConfig) {
        assert!(self.vacant.contains(&sid), "rejoin into a live slot");
        let now = self.clock.now();
        let seed = self.cfg.seed ^ u64::from(rcfg.id).wrapping_mul(0x2545_f491_4f6c_dd1d);
        let endpoint = Endpoint::Subscriber {
            receiver: SstpReceiver::new(rcfg, SimRng::new(seed)),
            next_report: now + self.cfg.report_interval,
            next_expiry: now + self.cfg.expiry_interval,
        };
        self.occupy(sid, endpoint, now);
    }

    /// The publisher machine of session `sid` (publish/update/withdraw).
    /// Handing out `&mut` marks the session ready: whatever the caller
    /// changes is picked up by the next [`Runtime::poll`], no timer
    /// needed.
    pub fn publisher_mut(&mut self, sid: u32) -> Option<&mut SstpSender> {
        let SessionSlot {
            endpoint: Endpoint::Publisher { sender, .. },
            ready,
            ..
        } = self.sessions.get_mut(sid as usize)?.as_mut()?
        else {
            return None;
        };
        mark_ready(ready, &mut self.ready, sid);
        Some(sender)
    }

    /// The publisher machine of session `sid`, read-only.
    pub fn publisher(&self, sid: u32) -> Option<&SstpSender> {
        match self.sessions.get(sid as usize)? {
            Some(SessionSlot {
                endpoint: Endpoint::Publisher { sender, .. },
                ..
            }) => Some(sender),
            _ => None,
        }
    }

    /// The subscriber machine of session `sid` (replica access).
    pub fn subscriber(&self, sid: u32) -> Option<&SstpReceiver> {
        match self.sessions.get(sid as usize)? {
            Some(SessionSlot {
                endpoint: Endpoint::Subscriber { receiver, .. },
                ..
            }) => Some(receiver),
            _ => None,
        }
    }

    /// Number of installed (non-crashed) sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len() - self.vacant.len()
    }

    /// The liveness supervisor (read-only).
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// The deepest any per-session inbox has ever been (provably bounded
    /// by the configured capacity — the soak gate asserts it).
    pub fn inbox_high_water(&self) -> usize {
        self.sessions
            .iter()
            .flatten()
            .map(|s| s.inbox.high_water())
            .max()
            .unwrap_or(0)
    }

    /// The shared outbound queue's high-water mark.
    pub fn outbox_high_water(&self) -> usize {
        self.outbox.high_water()
    }

    /// Total inbox refusals (live sessions plus crashed ones).
    pub fn backpressure_drops(&self) -> u64 {
        self.backpressure
    }

    /// The current cold-pacer rate (ops/sec) — drops below the configured
    /// rate while the degradation policy is active.
    pub fn cold_rate(&self) -> u32 {
        self.cold_pacer.rate()
    }

    /// One poll iteration, costing O(ready + due) — not O(sessions):
    ///
    /// 1. drain the socket into per-session inboxes, marking each session
    ///    that received something *ready*;
    /// 2. mark ready every session whose timer is due
    ///    ([`DeadlineIndex::pop_due`]);
    /// 3. step the ready sessions only (ingest, then emit hot traffic and
    ///    feedback under the rate budgets), arming each one's next
    ///    wake-up from what its step returned;
    /// 4. serve publishers queued at the cold pacer, first come first
    ///    served, while the pacer grants;
    /// 5. issue due liveness probes and flush the outbound queue through
    ///    the global bucket, its frames coalesced into MTU-sized
    ///    datagrams and the last one sent however full it is.
    ///
    /// Returns the next wake-up deadline — the caller sleeps until then
    /// or until the socket turns readable ([`Runtime::run_for`] does
    /// exactly that). An idle session is not touched between its timers:
    /// anything that can make one runnable either marks it ready
    /// (datagram routed, [`Runtime::publisher_mut`], install, rejoin) or
    /// arms a deadline (timer, throttle eta, pacer grant, supervisor
    /// probe).
    pub fn poll(&mut self) -> io::Result<SimTime> {
        let now = self.clock.now();
        self.polls += 1;
        self.drain_socket(now)?;
        while let Some(sid) = self.timers.pop_due(now) {
            self.timers_fired += 1;
            if let Some(Some(slot)) = self.sessions.get_mut(sid as usize) {
                mark_ready(&mut slot.ready, &mut self.ready, sid);
            }
        }
        // Nothing marks a session ready while sessions are stepped, so
        // the list can be lent out and its allocation kept.
        let mut ready = std::mem::take(&mut self.ready);
        for sid in ready.drain(..) {
            let wake = self.step_session(sid, now);
            self.timers.arm(sid, wake);
        }
        self.ready = ready;
        let mut deadline = self.serve_cold_queue(now);
        self.issue_probes(now);
        deadline = deadline.min(self.flush_outbox(now)?);
        self.degrade_or_restore();
        let indexed = [self.timers.next(), self.supervisor.next_deadline()];
        Ok(indexed.into_iter().flatten().fold(deadline, SimTime::min))
    }

    /// Drives the poll loop for `duration`, sleeping each iteration until
    /// the earliest protocol deadline or the first arriving datagram —
    /// the deadline-aware wait that replaced the fixed-interval sleep
    /// loops (see [`Runtime::wait`]).
    pub fn run_for(&mut self, duration: Duration) -> io::Result<()> {
        let end = self.clock.now() + SimDuration::from_micros(duration.as_micros() as u64);
        while self.clock.now() < end {
            let deadline = self.poll()?.min(end);
            let timeout = self.clock.until(deadline);
            if !timeout.is_zero() {
                self.wait(timeout)?;
            }
        }
        Ok(())
    }

    /// Folds every pending counter delta into the registry and snapshots
    /// it at the current protocol time.
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        self.sync_metrics();
        self.metrics.snapshot(self.clock.now())
    }

    fn drain_socket(&mut self, now: SimTime) -> io::Result<()> {
        while let Some(decoded) = self.mux.recv()? {
            let Ok(frame) = decoded else {
                continue; // counted by the mux
            };
            if let Some(loss) = &mut self.ingress_loss {
                if loss.is_lost(&mut self.drop_rng) {
                    self.injected_drops += 1;
                    continue;
                }
            }
            let Some(Some(slot)) = self.sessions.get_mut(frame.session as usize) else {
                self.unknown_session += 1;
                continue;
            };
            // Data direction lands on subscribers, feedback on publishers.
            let is_data = matches!(slot.endpoint, Endpoint::Subscriber { .. });
            if let Some(f) = &mut self.faults {
                let dropped = if is_data {
                    f.drop_data(now)
                } else {
                    f.drop_feedback(now)
                };
                if dropped {
                    continue; // counted by the adapter
                }
            }
            // A full inbox is a counted backpressure drop, never growth.
            if slot.inbox.push(frame.pkt) {
                self.routed += 1;
                mark_ready(&mut slot.ready, &mut self.ready, frame.session);
            } else {
                self.backpressure += 1;
            }
        }
        Ok(())
    }

    /// Steps one ready session: ingest its inbox, emit what is due.
    /// Returns the session's next wake-up ([`SimTime::MAX`]: none — the
    /// slot is vacant, or the session waits in the cold queue and will be
    /// armed when served).
    fn step_session(&mut self, sid: u32, now: SimTime) -> SimTime {
        let Some(Some(slot)) = self.sessions.get_mut(sid as usize) else {
            return SimTime::MAX;
        };
        slot.ready = false;
        self.sessions_stepped += 1;
        // Ingest everything queued for this session.
        let mut drained = 0usize;
        while let Some(pkt) = slot.inbox.pop() {
            match &mut slot.endpoint {
                Endpoint::Publisher { sender, .. } => {
                    sender.on_packet(&pkt);
                }
                Endpoint::Subscriber { receiver, .. } => {
                    receiver.on_packet(now, &pkt);
                }
            }
            drained += 1;
        }
        if drained > 0 {
            if let Some(outage) = self.supervisor.heard(sid, now) {
                self.metrics.observe_sketch(self.ids.mttr, outage);
            }
        }
        // Emit due traffic.
        let mut wake = SimTime::MAX;
        match &mut slot.endpoint {
            Endpoint::Publisher {
                sender,
                bucket,
                next_summary,
                pending,
                awaiting_cold,
            } => {
                // Flush a previously throttled hot packet first, then
                // drain fresh hot traffic, all within the session bucket.
                // The eta armed is for the framed cost that was refused.
                let mut retried = pending.is_some();
                while let Some(pkt) = pending.take().or_else(|| sender.next_hot_packet()) {
                    match bucket.take_or_eta(now, pkt.wire_len() + FRAME_OVERHEAD) {
                        Ok(()) => {
                            self.outbox.push(Outbound {
                                session: sid,
                                class: TrafficClass::Hot,
                                pkt,
                            });
                        }
                        Err(eta) => {
                            if !retried {
                                self.throttled += 1;
                            }
                            wake = now.saturating_add(eta);
                            *pending = Some(pkt);
                            break;
                        }
                    }
                    retried = false;
                }
                // The periodic root summary goes through the shared cold
                // pacer: once due, join its queue and wait to be served
                // (which is also what arms the next summary).
                if now < *next_summary {
                    wake = wake.min(*next_summary);
                } else if !*awaiting_cold {
                    *awaiting_cold = true;
                    self.cold_queue.push_back(sid);
                    self.cold_queue_high_water =
                        self.cold_queue_high_water.max(self.cold_queue.len());
                }
            }
            Endpoint::Subscriber {
                receiver,
                next_report,
                next_expiry,
            } => {
                for pkt in receiver.poll_feedback(now) {
                    self.outbox.push(Outbound {
                        session: sid,
                        class: TrafficClass::Feedback,
                        pkt,
                    });
                }
                if now >= *next_report {
                    self.outbox.push(Outbound {
                        session: sid,
                        class: TrafficClass::Feedback,
                        pkt: receiver.make_report(),
                    });
                    *next_report = now + self.cfg.report_interval;
                }
                if now >= *next_expiry {
                    receiver.expire(now);
                    *next_expiry = now + self.cfg.expiry_interval;
                }
                wake = (*next_report).min(*next_expiry);
                if let Some(t) = receiver.next_feedback_at() {
                    wake = wake.min(t);
                }
            }
        }
        wake
    }

    /// Serves the publishers queued at the cold pacer from the front,
    /// while the pacer grants: each gets its root summary out and its
    /// next one scheduled. Returns when to come back for the rest
    /// ([`SimTime::MAX`] once the queue is empty): not one gap later but
    /// when the pacer will have banked enough grants for the backlog (two
    /// per session, at most a burst), so a thousand publishers due
    /// together are not a thousand wake-ups.
    fn serve_cold_queue(&mut self, now: SimTime) -> SimTime {
        while let Some(&sid) = self.cold_queue.front() {
            if !self.cold_pacer.check(now) {
                let backlog = self.cold_queue.len() as u64;
                return self
                    .cold_pacer
                    .allowed_at((2 * backlog).min(VarRateLimit::BURST_OPS));
            }
            self.cold_queue.pop_front();
            let Some(Some(SessionSlot {
                endpoint:
                    Endpoint::Publisher {
                        sender,
                        next_summary,
                        awaiting_cold,
                        ..
                    },
                ..
            })) = self.sessions.get_mut(sid as usize)
            else {
                unreachable!("crash removes a session from the cold queue");
            };
            *awaiting_cold = false;
            self.outbox.push(Outbound {
                session: sid,
                class: TrafficClass::Cold,
                pkt: sender.summary_packet(),
            });
            // Advance even if the push was shed: the shed IS the
            // degradation, and soft state refreshes later.
            *next_summary = now + self.cfg.summary_interval;
            self.timers.arm(sid, *next_summary);
            // One cycle re-announcement rides each summary slot, so the
            // cold rotation advances at the summary cadence and no
            // session takes more than its two grants per turn.
            if sender.table().live_count() > 0 && self.cold_pacer.check(now) {
                if let Some(pkt) = sender.next_cycle_packet() {
                    self.outbox.push(Outbound {
                        session: sid,
                        class: TrafficClass::Cold,
                        pkt,
                    });
                }
            }
        }
        SimTime::MAX
    }

    /// Turns due supervisor probes into packets: a publisher probes with
    /// a root summary (inviting the peer back through summary descent), a
    /// subscriber with a receiver report. Probes ride the Feedback class
    /// so the shed policy preserves them under overload.
    fn issue_probes(&mut self, now: SimTime) {
        for sid in self.supervisor.due_probes(now) {
            let Some(Some(slot)) = self.sessions.get_mut(sid as usize) else {
                continue;
            };
            let pkt = match &mut slot.endpoint {
                Endpoint::Publisher { sender, .. } => sender.summary_packet(),
                Endpoint::Subscriber { receiver, .. } => receiver.make_report(),
            };
            self.outbox.push(Outbound {
                session: sid,
                class: TrafficClass::Feedback,
                pkt,
            });
        }
    }

    /// Sends queued packets while the global bucket allows, coalesced
    /// into datagrams of up to [`mux::DATAGRAM_BUDGET`]. Returns when the
    /// head of what is left will fit ([`SimTime::MAX`]: all sent).
    ///
    /// Every frame popped here is on the wire (or a counted
    /// `runtime.egress.drops`) when this returns — the last, partial
    /// datagram is sent rather than held for the next poll to fill, so
    /// coalescing adds no latency and needs no timer. The buckets charge
    /// each frame a datagram's full `HEADER_OVERHEAD` although a batch
    /// pays it once: conservative, and pacing behaves as it did with one
    /// frame per datagram.
    fn flush_outbox(&mut self, now: SimTime) -> io::Result<SimTime> {
        let mut wake = SimTime::MAX;
        while let Some(head) = self.outbox.peek() {
            let cost = head.pkt.wire_len() + FRAME_OVERHEAD;
            if let Err(eta) = self.global_bucket.take_or_eta(now, cost) {
                self.throttled += 1;
                wake = now.saturating_add(eta);
                break;
            }
            let out = self.outbox.pop().expect("peeked entry vanished");
            self.mux.append(out.session, &out.pkt)?;
        }
        self.mux.flush()?;
        Ok(wake)
    }

    /// The announce-degradation policy: a cold shed since the last poll
    /// halves the pacer rate (never below 1 op/s); once the queue drains
    /// back under its watermark the rate doubles step-by-step toward the
    /// configured rate. The asymmetry (halve on evidence of overload,
    /// recover gradually) mirrors the sender's loss-driven announce
    /// degradation from the chaos PR.
    fn degrade_or_restore(&mut self) {
        let shed_now = self.outbox.stats().shed_cold;
        if shed_now > self.last_shed_cold {
            self.cold_pacer.set_rate(self.cold_pacer.rate() / 2);
        } else if !self.outbox.pressured() && self.cold_pacer.rate() < self.base_cold_rate {
            self.cold_pacer
                .set_rate((self.cold_pacer.rate().saturating_mul(2)).min(self.base_cold_rate));
        }
        self.last_shed_cold = shed_now;
    }

    /// Folds counter deltas from every component into the registry.
    /// Counters are registered once in `bind`; this keeps the registry
    /// monotone without threading metric ids through the components.
    /// Every source is a running total — the receivers' structure
    /// conflicts are one summed over the live subscribers here — so only
    /// [`Runtime::metrics_snapshot`] needs to run it, and no per-packet
    /// path pays for any of it.
    fn sync_metrics(&mut self) {
        let m = self.mux.stats();
        let shed = self.outbox.stats();
        let sup = self.supervisor.stats();
        let fd = self
            .faults
            .as_ref()
            .map(|f| f.data_drops() + f.feedback_drops())
            .unwrap_or(0);
        let live_conflicts: u64 = self
            .sessions
            .iter()
            .flatten()
            .map(|slot| match &slot.endpoint {
                Endpoint::Subscriber { receiver, .. } => receiver.stats().structure_conflicts,
                Endpoint::Publisher { .. } => 0,
            })
            .sum();
        let adds: [(CounterId, u64, &mut u64); 13] = [
            (
                self.ids.backpressure,
                self.backpressure,
                &mut self.synced.backpressure,
            ),
            (
                self.ids.shed_cold,
                shed.shed_cold,
                &mut self.synced.shed_cold,
            ),
            (self.ids.shed_hot, shed.shed_hot, &mut self.synced.shed_hot),
            (self.ids.fault_drops, fd, &mut self.synced.fault_drops),
            (self.ids.ingress, m.datagrams_rx, &mut self.synced.ingress),
            (self.ids.egress, m.datagrams_tx, &mut self.synced.egress),
            (
                self.ids.ingress_frames,
                m.frames_rx,
                &mut self.synced.ingress_frames,
            ),
            (
                self.ids.egress_frames,
                m.frames_tx,
                &mut self.synced.egress_frames,
            ),
            (
                self.ids.egress_drops,
                m.egress_drops,
                &mut self.synced.egress_drops,
            ),
            (
                self.ids.decode_errors,
                m.decode_errors,
                &mut self.synced.decode_errors,
            ),
            (
                self.ids.structure_conflicts,
                self.crashed_conflicts + live_conflicts,
                &mut self.synced.structure_conflicts,
            ),
            (self.ids.probes, sup.probes, &mut self.synced.probes),
            (self.ids.heals, sup.heals, &mut self.synced.heals),
        ];
        for (id, total, last) in adds {
            self.metrics.add(id, total.saturating_sub(*last));
            *last = total;
        }
        // Counts kept since the previous fold, with no external total.
        for (id, since) in [
            (self.ids.injected_drops, &mut self.injected_drops),
            (self.ids.unknown_session, &mut self.unknown_session),
            (self.ids.routed, &mut self.routed),
            (self.ids.throttled, &mut self.throttled),
            (self.ids.polls, &mut self.polls),
            (self.ids.sessions_stepped, &mut self.sessions_stepped),
            (self.ids.timers_fired, &mut self.timers_fired),
        ] {
            self.metrics.add(id, std::mem::take(since));
        }
        for (id, value) in [
            (self.ids.active, self.supervisor.active()),
            (self.ids.cold_queue_high_water, self.cold_queue_high_water),
            (self.ids.timers_high_water, self.timers.high_water()),
        ] {
            self.metrics.set_gauge(id, value as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::start();
        let a = c.now();
        std::thread::sleep(Duration::from_millis(2));
        let b = c.now();
        assert!(b > a);
        // `until` a past instant saturates to zero.
        assert_eq!(c.until(a), Duration::ZERO);
    }
}
