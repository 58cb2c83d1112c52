//! `ss-chaos`: deterministic fault-injection schedules on the virtual
//! clock.
//!
//! The paper's robustness claim — after partitions, crashes, and sender
//! silence "the group state quickly converges to accurately track the
//! reformed session" — is only testable if failure is a first-class,
//! *deterministic* input to a run. This module provides that input: a
//! [`FaultSpec`] is a plain-data, ordered set of timed fault *episodes*
//! (the same config-vs-runtime split as [`LossSpec`]), and its built
//! [`FaultSchedule`] answers per-packet and per-endpoint queries on the
//! virtual clock:
//!
//! * **Link faults** — [`FaultKind::Partition`] (uni- or bidirectional
//!   outage), [`FaultKind::ExtraLoss`] (a loss-rate override episode
//!   composing with the channel's own [`LossModel`]),
//!   [`FaultKind::Bandwidth`] (serialization slow-down of the sender's
//!   server), and the packet perturbations
//!   [`FaultKind::Duplicate`] / [`FaultKind::Corrupt`] /
//!   [`FaultKind::Reorder`].
//! * **Endpoint faults** — [`FaultKind::ReceiverCrash`] (a receiver is
//!   down for the episode and restarts from a wiped replica at its end)
//!   and [`FaultKind::SenderSilence`] (the sender stops transmitting).
//!
//! # Determinism
//!
//! A schedule owns its *own* [`SimRng`] stream (derive it from the run's
//! root with a fixed label), and only queries against an *active*
//! episode consume draws. An empty schedule therefore consumes zero
//! randomness and perturbs nothing: every pre-existing run is
//! byte-identical with `FaultSpec::default()`. Scripted and seeded
//! ([`FaultSpec::generate`]) schedules replay bit-for-bit because both
//! the episode list and every draw derive from seeds alone (determinism
//! rules D001/D003, `clippy.toml`, apply here as everywhere).
//!
//! # Observability
//!
//! [`FaultSchedule::record_spans`] emits one `ss-trace` span per episode
//! under [`Actor::FaultInjector`] with [`TraceKind::Fault`], so fault
//! windows are visible on the same timeline as the record lifecycles
//! they disturb.

use crate::loss::{LossModel, LossSpec};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Actor, TraceKind, Tracer};

/// Which direction(s) of the link a [`FaultKind::Partition`] severs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDir {
    /// Both directions: data (sender → receivers) and feedback.
    Both,
    /// Only the data direction.
    Data,
    /// Only the feedback direction (NACKs/queries/reports).
    Feedback,
}

impl FaultDir {
    /// True when the data (sender → receiver) direction is severed.
    pub(crate) fn blocks_data(self) -> bool {
        matches!(self, FaultDir::Both | FaultDir::Data)
    }

    /// True when the feedback (receiver → sender) direction is severed.
    pub(crate) fn blocks_feedback(self) -> bool {
        matches!(self, FaultDir::Both | FaultDir::Feedback)
    }
}

/// The cloneable, plain-data description of one fault (configs must be
/// plain data; runtime state is built per run).
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Total link outage in the given direction(s).
    Partition(FaultDir),
    /// An additional loss process layered over the channel's own model
    /// while the episode is active (a loss-rate override).
    ExtraLoss(LossSpec),
    /// Bandwidth degradation: serialization times divide by this factor
    /// in `(0, 1]` (0.25 means the link runs at quarter rate).
    Bandwidth(f64),
    /// Each delivered packet is duplicated with this probability.
    Duplicate(f64),
    /// Each packet is corrupted (and dropped at the receiver's checksum)
    /// with this probability.
    Corrupt(f64),
    /// Packets are delayed by an extra uniform jitter in `[0, d]`,
    /// reordering them relative to in-order traffic.
    Reorder(SimDuration),
    /// Receiver `i` is down for the episode: packets addressed to it are
    /// lost, and it restarts from a wiped replica when the episode ends.
    ReceiverCrash(u32),
    /// The sender transmits nothing (data or summaries) for the episode.
    SenderSilence,
}

impl FaultKind {
    /// Stable lowercase label for trace spans and artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Partition(_) => "partition",
            FaultKind::ExtraLoss(_) => "extra-loss",
            FaultKind::Bandwidth(_) => "bandwidth",
            FaultKind::Duplicate(_) => "duplicate",
            FaultKind::Corrupt(_) => "corrupt",
            FaultKind::Reorder(_) => "reorder",
            FaultKind::ReceiverCrash(_) => "receiver-crash",
            FaultKind::SenderSilence => "sender-silence",
        }
    }

    fn validate(&self) {
        match *self {
            FaultKind::Bandwidth(f) => {
                assert!(f > 0.0 && f <= 1.0, "bandwidth factor {f} outside (0, 1]");
            }
            FaultKind::Duplicate(p) | FaultKind::Corrupt(p) => {
                assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
            }
            FaultKind::Reorder(d) => {
                assert!(d > SimDuration::ZERO, "reorder jitter must be positive");
            }
            FaultKind::Partition(_)
            | FaultKind::ExtraLoss(_)
            | FaultKind::ReceiverCrash(_)
            | FaultKind::SenderSilence => {}
        }
    }
}

/// One timed fault episode: `fault` is active on `[at, until)`.
#[derive(Clone, Debug, PartialEq)]
pub struct EpisodeSpec {
    /// When the fault begins.
    pub at: SimTime,
    /// When it heals (exclusive).
    pub until: SimTime,
    /// What breaks.
    pub fault: FaultKind,
}

/// A plain-data fault schedule: an ordered set of timed episodes.
///
/// The `Default` is the empty schedule — no episodes, no randomness
/// consumed, no behavioral change. Build the runtime engine with
/// [`FaultSpec::build`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// The episodes, kept sorted by `(at, until)`.
    pub episodes: Vec<EpisodeSpec>,
}

impl FaultSpec {
    /// The empty schedule (same as `Default`).
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// True when no episodes are scheduled.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// Adds an episode (builder style). Panics when `until <= at` or the
    /// fault's parameters are out of range; keeps the list sorted.
    pub fn with(mut self, at: SimTime, until: SimTime, fault: FaultKind) -> Self {
        assert!(
            until > at,
            "episode must end after it starts ({at:?} .. {until:?})"
        );
        fault.validate();
        self.episodes.push(EpisodeSpec { at, until, fault });
        self.episodes.sort_by_key(|a| (a.at, a.until));
        self
    }

    /// A bidirectional partition on `[at, until)`.
    pub fn partition(self, at: SimTime, until: SimTime) -> Self {
        self.with(at, until, FaultKind::Partition(FaultDir::Both))
    }

    /// A loss-rate override episode.
    pub fn extra_loss(self, at: SimTime, until: SimTime, spec: LossSpec) -> Self {
        self.with(at, until, FaultKind::ExtraLoss(spec))
    }

    /// Receiver `rx` crashes at `at` and restarts (wiped) at `until`.
    pub fn receiver_crash(self, at: SimTime, until: SimTime, rx: u32) -> Self {
        self.with(at, until, FaultKind::ReceiverCrash(rx))
    }

    /// The sender goes silent on `[at, until)`.
    pub fn sender_silence(self, at: SimTime, until: SimTime) -> Self {
        self.with(at, until, FaultKind::SenderSilence)
    }

    /// Generates a seeded random schedule of `episodes` episodes inside
    /// `[horizon/8, horizon)`, each lasting between 1 s and `horizon/4`.
    /// Receiver-crash episodes target one of `n_receivers` receivers.
    /// The result is plain data: print it, script it, replay it.
    pub fn generate(
        rng: &mut SimRng,
        n_receivers: u32,
        horizon: SimDuration,
        episodes: usize,
    ) -> Self {
        assert!(n_receivers > 0, "need at least one receiver");
        let h = horizon.as_micros();
        assert!(h >= 16_000_000, "horizon too short for fault episodes");
        let mut spec = FaultSpec::none();
        for _ in 0..episodes {
            let at = SimTime::from_micros(h / 8 + rng.below(h / 2));
            let len = SimDuration::from_micros(1_000_000 + rng.below(h / 4));
            let until = (at + len).min(SimTime::from_micros(h * 7 / 8));
            let until = until.max(at + SimDuration::from_secs(1));
            let fault = match rng.below(8) {
                0 => FaultKind::Partition(FaultDir::Both),
                1 => FaultKind::Partition(FaultDir::Data),
                2 => FaultKind::Partition(FaultDir::Feedback),
                3 => FaultKind::ExtraLoss(LossSpec::Bernoulli(rng.uniform(0.2, 0.8))),
                4 => FaultKind::Bandwidth(rng.uniform(0.25, 0.9)),
                5 => FaultKind::ReceiverCrash(rng.below(u64::from(n_receivers)) as u32),
                6 => FaultKind::SenderSilence,
                _ => FaultKind::Duplicate(rng.uniform(0.1, 0.5)),
            };
            spec = spec.with(at, until, fault);
        }
        spec
    }

    /// When the last episode heals ([`SimTime::ZERO`] when empty).
    pub fn healed_at(&self) -> SimTime {
        self.episodes
            .iter()
            .map(|e| e.until)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Every episode start and end, sorted and deduplicated — the
    /// instants at which endpoint faults need applying (crash wipes,
    /// restarts).
    pub fn boundaries(&self) -> Vec<SimTime> {
        let mut b: Vec<SimTime> = self.episodes.iter().flat_map(|e| [e.at, e.until]).collect();
        b.sort();
        b.dedup();
        b
    }

    /// Builds the runtime engine. `rng` should be a dedicated stream
    /// derived from the run's root (e.g. `root.derive("faults")`) so
    /// fault draws never perturb the run's other streams.
    pub fn build(&self, rng: SimRng) -> FaultSchedule {
        let episodes = self
            .episodes
            .iter()
            .map(|e| Episode {
                at: e.at,
                until: e.until,
                spec: e.fault.clone(),
                loss: match &e.fault {
                    FaultKind::ExtraLoss(spec) => Some(spec.build()),
                    _ => None,
                },
            })
            .collect();
        FaultSchedule { episodes, rng }
    }
}

/// Runtime state of one episode (the built loss model is stateful).
struct Episode {
    at: SimTime,
    until: SimTime,
    spec: FaultKind,
    loss: Option<Box<dyn LossModel>>,
}

impl Episode {
    fn active(&self, now: SimTime) -> bool {
        self.at <= now && now < self.until
    }
}

/// Random perturbations applied to one delivered packet
/// ([`FaultSchedule::perturb`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Perturbation {
    /// Deliver a second copy of the packet.
    pub duplicate: bool,
    /// The packet is corrupted; the receiver's checksum discards it.
    pub corrupt: bool,
    /// Extra delivery delay (reordering jitter).
    pub extra_delay: SimDuration,
}

/// The runtime fault engine: answers link/endpoint queries on the
/// virtual clock, drawing only from its own random stream and only while
/// an episode is active.
pub struct FaultSchedule {
    episodes: Vec<Episode>,
    rng: SimRng,
}

impl FaultSchedule {
    /// An engine with no episodes (for plumbing defaults).
    pub fn empty() -> Self {
        FaultSpec::none().build(SimRng::new(0))
    }

    /// True when no episodes exist at all.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// True when any episode is active at `now`.
    pub fn is_active(&self, now: SimTime) -> bool {
        self.episodes.iter().any(|e| e.active(now))
    }

    /// True when a partition severs the data direction at `now`.
    pub fn data_blocked(&self, now: SimTime) -> bool {
        self.episodes
            .iter()
            .any(|e| e.active(now) && matches!(e.spec, FaultKind::Partition(d) if d.blocks_data()))
    }

    /// True when a partition severs the feedback direction at `now`.
    pub fn feedback_blocked(&self, now: SimTime) -> bool {
        self.episodes.iter().any(|e| {
            e.active(now) && matches!(e.spec, FaultKind::Partition(d) if d.blocks_feedback())
        })
    }

    /// Draws the active loss-override episodes for one transmission:
    /// `true` when any of them loses the packet. Every active override
    /// draws (no short-circuit), so the draw count — and therefore every
    /// later draw — depends only on the schedule and the call sequence.
    pub fn extra_loss(&mut self, now: SimTime) -> bool {
        let mut lost = false;
        for e in &mut self.episodes {
            if e.at <= now && now < e.until {
                if let Some(model) = e.loss.as_mut() {
                    lost |= model.is_lost(&mut self.rng);
                }
            }
        }
        lost
    }

    /// The product of active bandwidth-degradation factors (1.0 when
    /// none): serialization times divide by the returned factor.
    pub fn bandwidth_factor(&self, now: SimTime) -> f64 {
        self.episodes
            .iter()
            .filter(|e| e.active(now))
            .filter_map(|e| match e.spec {
                FaultKind::Bandwidth(f) => Some(f),
                _ => None,
            })
            .product()
    }

    /// Draws this packet's duplicate/corrupt/reorder perturbations from
    /// the active episodes (all-default when none are active; consumes
    /// no draws in that case).
    pub fn perturb(&mut self, now: SimTime) -> Perturbation {
        let mut p = Perturbation::default();
        for e in &self.episodes {
            if !e.active(now) {
                continue;
            }
            match e.spec {
                FaultKind::Duplicate(prob) => p.duplicate |= self.rng.chance(prob),
                FaultKind::Corrupt(prob) => p.corrupt |= self.rng.chance(prob),
                FaultKind::Reorder(d) => {
                    p.extra_delay += SimDuration::from_micros(self.rng.below(d.as_micros() + 1));
                }
                _ => {}
            }
        }
        p
    }

    /// True when receiver `rx` is crashed at `now`.
    pub fn receiver_down(&self, now: SimTime, rx: u32) -> bool {
        self.episodes
            .iter()
            .any(|e| e.active(now) && matches!(e.spec, FaultKind::ReceiverCrash(i) if i == rx))
    }

    /// True when the sender is silenced at `now`.
    pub fn sender_silent(&self, now: SimTime) -> bool {
        self.episodes
            .iter()
            .any(|e| e.active(now) && matches!(e.spec, FaultKind::SenderSilence))
    }

    /// Receivers whose crash episode *starts* exactly at `t` (wipe now).
    pub fn crashes_at(&self, t: SimTime) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .episodes
            .iter()
            .filter_map(|e| match e.spec {
                FaultKind::ReceiverCrash(i) if e.at == t => Some(i),
                _ => None,
            })
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// When the last episode heals ([`SimTime::ZERO`] when empty).
    pub fn healed_at(&self) -> SimTime {
        self.episodes
            .iter()
            .map(|e| e.until)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Episode starts and ends, sorted and deduplicated.
    pub fn boundaries(&self) -> Vec<SimTime> {
        let mut b: Vec<SimTime> = self.episodes.iter().flat_map(|e| [e.at, e.until]).collect();
        b.sort();
        b.dedup();
        b
    }

    /// Emits one trace span per episode (key = episode index) under
    /// [`Actor::FaultInjector`], labeled with the fault kind, so fault
    /// windows appear on the record-lifecycle timeline. Pure
    /// observation: consumes no randomness.
    pub fn record_spans(&self, tracer: &mut Tracer) {
        for (i, e) in self.episodes.iter().enumerate() {
            tracer.span_labeled(
                e.at,
                e.until,
                Actor::FaultInjector,
                TraceKind::Fault,
                i as u64,
                e.spec.label(),
            );
        }
    }
}

impl std::fmt::Debug for FaultSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut list = f.debug_list();
        for e in &self.episodes {
            list.entry(&(e.at, e.until, e.spec.label()));
        }
        list.finish()
    }
}

/// Replays a [`FaultSchedule`] as real socket-level drops.
///
/// The simulator applies a schedule *inside* the channel; a real UDP
/// path has no channel to hook, so the runtime applies the same schedule
/// at the socket **ingress**: each arriving datagram asks the adapter
/// whether the schedule would have lost it, and a `true` answer discards
/// the datagram before it reaches any state machine — a real loss as far
/// as the protocol is concerned. `now` is the caller's wall-clock time
/// mapped onto the schedule's [`SimTime`] axis (the runtime's epoch-based
/// clock does this), so an episode scripted for `t ∈ [2s, 5s)` drops real
/// datagrams during the corresponding wall-clock window.
///
/// Draw discipline: partition checks are pure; only the extra-loss
/// episodes draw, from the schedule's own **shared, unbatched** stream —
/// the same contract the simulator channels use (see [`FaultSchedule::extra_loss`]).
/// Because a real path's datagram count differs from the sim's packet
/// count, draw-for-draw identity holds per call sequence, not per run;
/// what is preserved is the audited loss process itself. Blocked
/// directions short-circuit *before* drawing, matching the sim channel's
/// discipline of not spending randomness on packets a partition already
/// discards.
///
/// Every discard is counted, never silent: [`RealPathFaults::data_drops`]
/// and [`RealPathFaults::feedback_drops`] feed the runtime's
/// `runtime.fault.drops` counter and the `ReconvergenceReport`.
#[derive(Debug)]
pub struct RealPathFaults {
    schedule: FaultSchedule,
    data_drops: u64,
    feedback_drops: u64,
}

impl RealPathFaults {
    /// Wraps a built schedule for socket-ingress replay.
    pub fn new(schedule: FaultSchedule) -> Self {
        RealPathFaults {
            schedule,
            data_drops: 0,
            feedback_drops: 0,
        }
    }

    /// Decides one arriving **data-direction** datagram (publisher →
    /// subscriber): `true` means the schedule drops it at `now`.
    pub fn drop_data(&mut self, now: SimTime) -> bool {
        let dropped = self.schedule.data_blocked(now)
            || self.schedule.sender_silent(now)
            || self.schedule.extra_loss(now);
        if dropped {
            self.data_drops += 1;
        }
        dropped
    }

    /// Decides one arriving **feedback-direction** datagram (subscriber →
    /// publisher): `true` means the schedule drops it at `now`.
    pub fn drop_feedback(&mut self, now: SimTime) -> bool {
        let dropped = self.schedule.feedback_blocked(now) || self.schedule.extra_loss(now);
        if dropped {
            self.feedback_drops += 1;
        }
        dropped
    }

    /// Data-direction datagrams discarded so far.
    pub fn data_drops(&self) -> u64 {
        self.data_drops
    }

    /// Feedback-direction datagrams discarded so far.
    pub fn feedback_drops(&self) -> u64 {
        self.feedback_drops
    }

    /// The wrapped schedule (pure queries: healed_at, boundaries, …).
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_schedule_is_inert_and_drawless() {
        let mut s = FaultSpec::none().build(SimRng::new(7));
        let now = secs(5);
        assert!(!s.is_active(now));
        assert!(!s.data_blocked(now));
        assert!(!s.feedback_blocked(now));
        assert!(!s.extra_loss(now));
        assert_eq!(s.bandwidth_factor(now), 1.0);
        assert_eq!(s.perturb(now), Perturbation::default());
        assert!(!s.receiver_down(now, 0));
        assert!(!s.sender_silent(now));
        assert_eq!(s.healed_at(), SimTime::ZERO);
        assert!(s.boundaries().is_empty());
        // No draws were consumed: the rng stream is untouched.
        let mut fresh = SimRng::new(7);
        assert_eq!(s.rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn partition_windows_and_directions() {
        let s = FaultSpec::none()
            .with(secs(10), secs(20), FaultKind::Partition(FaultDir::Data))
            .with(secs(15), secs(25), FaultKind::Partition(FaultDir::Feedback))
            .build(SimRng::new(1));
        assert!(!s.data_blocked(secs(9)));
        assert!(s.data_blocked(secs(10)));
        assert!(!s.feedback_blocked(secs(12)));
        assert!(s.feedback_blocked(secs(15)));
        assert!(s.data_blocked(secs(19)) && s.feedback_blocked(secs(19)));
        assert!(!s.data_blocked(secs(20)), "end is exclusive");
        assert!(!s.feedback_blocked(secs(25)));
        assert_eq!(s.healed_at(), secs(25));
        assert_eq!(s.boundaries(), vec![secs(10), secs(15), secs(20), secs(25)]);
    }

    #[test]
    fn extra_loss_draws_only_while_active() {
        let spec = FaultSpec::none().extra_loss(secs(10), secs(20), LossSpec::Bernoulli(1.0));
        let mut s = spec.build(SimRng::new(3));
        assert!(!s.extra_loss(secs(5)), "inactive: no loss");
        assert!(s.extra_loss(secs(10)));
        assert!(s.extra_loss(secs(19)));
        assert!(!s.extra_loss(secs(20)));
        // Outside the window no draws were consumed: two engines that
        // only query outside the window stay in lockstep.
        let mut a = spec.build(SimRng::new(9));
        let mut b = spec.build(SimRng::new(9));
        assert!(!a.extra_loss(secs(1)));
        for t in [12, 14, 16] {
            assert_eq!(a.extra_loss(secs(t)), b.extra_loss(secs(t)));
        }
    }

    #[test]
    fn bandwidth_factors_multiply() {
        let s = FaultSpec::none()
            .with(secs(0), secs(10), FaultKind::Bandwidth(0.5))
            .with(secs(5), secs(10), FaultKind::Bandwidth(0.5))
            .build(SimRng::new(0));
        assert_eq!(s.bandwidth_factor(secs(1)), 0.5);
        assert_eq!(s.bandwidth_factor(secs(6)), 0.25);
        assert_eq!(s.bandwidth_factor(secs(10)), 1.0);
    }

    #[test]
    fn endpoint_faults_and_edges() {
        let s = FaultSpec::none()
            .receiver_crash(secs(10), secs(20), 1)
            .sender_silence(secs(30), secs(40))
            .build(SimRng::new(0));
        assert!(!s.receiver_down(secs(9), 1));
        assert!(s.receiver_down(secs(10), 1));
        assert!(!s.receiver_down(secs(10), 0));
        assert!(s.sender_silent(secs(30)));
        assert!(!s.sender_silent(secs(40)));
        assert_eq!(s.crashes_at(secs(10)), vec![1]);
        assert!(s.crashes_at(secs(20)).is_empty());
    }

    #[test]
    fn perturbations_apply_per_packet() {
        let mut s = FaultSpec::none()
            .with(secs(0), secs(10), FaultKind::Duplicate(1.0))
            .with(secs(0), secs(10), FaultKind::Corrupt(1.0))
            .with(
                secs(0),
                secs(10),
                FaultKind::Reorder(SimDuration::from_millis(100)),
            )
            .build(SimRng::new(2));
        let p = s.perturb(secs(1));
        assert!(p.duplicate && p.corrupt);
        assert!(p.extra_delay <= SimDuration::from_millis(100));
        assert_eq!(s.perturb(secs(10)), Perturbation::default());
    }

    #[test]
    fn generated_schedules_replay_bit_for_bit() {
        let horizon = SimDuration::from_secs(300);
        let a = FaultSpec::generate(&mut SimRng::new(42), 3, horizon, 5);
        let b = FaultSpec::generate(&mut SimRng::new(42), 3, horizon, 5);
        assert_eq!(a, b);
        assert_eq!(a.episodes.len(), 5);
        for e in &a.episodes {
            assert!(e.at < e.until);
            assert!(e.until <= SimTime::from_micros(horizon.as_micros()));
        }
        // Different seeds give different schedules.
        let c = FaultSpec::generate(&mut SimRng::new(43), 3, horizon, 5);
        assert_ne!(a, c);
        // And the built engines replay identically too.
        let mut x = a.build(SimRng::new(5));
        let mut y = b.build(SimRng::new(5));
        let mut t = SimTime::ZERO;
        for _ in 0..2000 {
            t += SimDuration::from_millis(137);
            assert_eq!(x.extra_loss(t), y.extra_loss(t));
            assert_eq!(x.perturb(t), y.perturb(t));
            assert_eq!(x.data_blocked(t), y.data_blocked(t));
        }
    }

    #[test]
    fn spans_are_visible_to_trace() {
        let s = FaultSpec::none()
            .partition(secs(10), secs(20))
            .sender_silence(secs(30), secs(35))
            .build(SimRng::new(0));
        let mut tr = Tracer::with_capacity(16);
        s.record_spans(&mut tr);
        let spans: Vec<_> = tr.of_kind(TraceKind::Fault).collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].at, secs(10));
        assert_eq!(spans[0].end, Some(secs(20)));
        assert_eq!(spans[0].label, "partition");
        assert_eq!(spans[1].label, "sender-silence");
        assert!(tr.to_causal_jsonl().contains("fault-injector"));
    }

    #[test]
    #[should_panic(expected = "end after it starts")]
    fn rejects_empty_episode() {
        let _ = FaultSpec::none().partition(secs(5), secs(5));
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn rejects_zero_bandwidth_factor() {
        let _ = FaultSpec::none().with(secs(0), secs(1), FaultKind::Bandwidth(0.0));
    }
}
