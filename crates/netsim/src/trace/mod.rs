//! `ss-trace`: deterministic causal record-lifecycle tracing.
//!
//! The paper's metrics — per-key consistency `c(k,t)`, receive latency
//! `T_rec`, wasted retransmission bandwidth (§2.1, §3) — are *lifecycle*
//! properties of a record as it flows publisher → scheduler → lossy
//! channel → replica → expiry. The `ss-metrics` registry reports them as
//! scalar aggregates; this module records the underlying causal history:
//! a flat, append-only log of [`TraceEvent`]s keyed to [`SimTime`], each
//! carrying a parent pointer so chains like *NACK → promotion →
//! retransmit → install* are explicit edges rather than timestamps the
//! reader has to correlate by eye.
//!
//! # Model
//!
//! * **Identity.** Every recorded event gets a [`TraceId`] equal to its
//!   1-based position in the log; `TraceId::NONE` (0) means "no parent".
//!   Ids are dense and assigned in dispatch order, so the log is its own
//!   topological sort: a parent always precedes its children.
//! * **Spans and instants.** An event with an `end` time is a span on
//!   the virtual timeline (a record's lifetime, a packet's serialization
//!   on the wire); one without is an instant (a loss, a NACK, a
//!   scheduling decision).
//! * **Actors.** Each event belongs to an [`Actor`] — publisher, hot or
//!   cold announcement server, channel, per-receiver replica, scheduler,
//!   engine. Exported Chrome traces render one "thread" per actor with
//!   virtual time as the timeline.
//! * **Roots.** A record's *birth* opens a root span for its key; later
//!   lifecycle events default to parenting under that root, and *death*
//!   closes it. Cross-actor edges (e.g. a delivery caused by a specific
//!   transmission) pass an explicit parent id instead.
//!
//! # Determinism
//!
//! Tracing is pure observation: it consumes no randomness and schedules
//! nothing, so enabling it cannot perturb a run (the same invariant the
//! typed [`crate::metrics::EventLog`] relies on). Retention is a
//! **first-N prefix** — once `capacity` events are kept, later ones are
//! counted in [`Tracer::dropped`] but not stored — never a ring, because
//! a ring's contents depend on how the run *ends* rather than how it
//! *begins* and make prefix comparisons between runs meaningless. All
//! state lives in `Vec`s and `BTreeMap`s (D002 in `clippy.toml`) and
//! every timestamp is sim time (D001), so exports are byte-identical
//! across double runs and sweep-worker counts.
//!
//! A disabled tracer ([`Tracer::disabled`], capacity 0) records nothing
//! and costs one branch per call, like the old `Trace` ring it replaces.

#![deny(missing_docs)]

mod analysis;
mod export;

pub use analysis::{CSample, InconsistencyInterval, LifecycleAnalysis};

use crate::time::SimTime;
use std::collections::BTreeMap;

/// Identity of one traced event: its 1-based position in the log.
///
/// `TraceId::NONE` (the `Default`) is the null id, used for events with
/// no parent and returned by recording calls when tracing is disabled or
/// the capacity prefix is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// The null id: no event, no parent.
    pub const NONE: TraceId = TraceId(0);

    /// True when this id names a recorded event.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }

    /// The raw 1-based id (0 for [`TraceId::NONE`]).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The log index of this id, if it names a recorded event.
    fn index(self) -> Option<usize> {
        (self.0 as usize).checked_sub(1)
    }
}

/// The simulated component an event belongs to.
///
/// Exported Chrome traces render one named "thread" per actor; the
/// variants cover every component of the core protocol models and the
/// SSTP session (which has one replica and one feedback lane per
/// receiver index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Actor {
    /// The event-loop itself (per-dispatch spans).
    Engine,
    /// The publisher's record table (births, updates, expiries).
    Publisher,
    /// The bandwidth scheduler (pick/allocation decisions).
    Scheduler,
    /// The hot (new/changed data) announcement server.
    HotServer,
    /// The cold (background refresh) announcement server.
    ColdServer,
    /// The lossy channel (losses happen here).
    Channel,
    /// The feedback channel carrying NACKs/queries back to the sender.
    FeedbackServer,
    /// Receiver `i`'s replica table (installs, expiries).
    Replica(u32),
    /// Receiver `i`'s feedback generator (NACK/query/report tx).
    Feedback(u32),
    /// The fault-injection engine (`ss-chaos` episode spans).
    FaultInjector,
}

impl Actor {
    /// Stable "thread id" for the Chrome trace export. Fixed actors take
    /// small ids; per-receiver actors interleave from 10 up so receiver
    /// `i`'s replica and feedback lanes sit next to each other.
    pub fn tid(self) -> u64 {
        match self {
            Actor::Engine => 0,
            Actor::Publisher => 1,
            Actor::Scheduler => 2,
            Actor::HotServer => 3,
            Actor::ColdServer => 4,
            Actor::Channel => 5,
            Actor::FeedbackServer => 6,
            Actor::FaultInjector => 7,
            Actor::Replica(i) => 10 + 2 * i as u64,
            Actor::Feedback(i) => 11 + 2 * i as u64,
        }
    }

    /// Human-readable actor name for exports.
    pub fn name(self) -> String {
        match self {
            Actor::Engine => "engine".into(),
            Actor::Publisher => "publisher".into(),
            Actor::Scheduler => "scheduler".into(),
            Actor::HotServer => "hot-server".into(),
            Actor::ColdServer => "cold-server".into(),
            Actor::Channel => "channel".into(),
            Actor::FeedbackServer => "feedback-server".into(),
            Actor::FaultInjector => "fault-injector".into(),
            Actor::Replica(i) => format!("replica-{i}"),
            Actor::Feedback(i) => format!("feedback-{i}"),
        }
    }
}

/// What kind of lifecycle step an event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    /// A record entered the publisher's table (opens the root span).
    Birth,
    /// The record's value was superseded in place.
    Update,
    /// An announcement transmission (span: serialization on the wire).
    Announce,
    /// A summary/digest transmission.
    Summary,
    /// A transmission reached a replica and installed (I → C).
    Deliver,
    /// The channel lost a transmission.
    Drop,
    /// The record's lifetime ended (closes the root span).
    Expire,
    /// A receiver generated a NACK.
    Nack,
    /// The sender promoted a key to the hot queue.
    Promote,
    /// A served hot record aged into the cold queue.
    Demote,
    /// A receiver asked for a repair digest.
    Query,
    /// A receiver loss report.
    Report,
    /// The engine dispatched one queued event.
    Dispatch,
    /// The scheduler picked a queue to serve.
    Decision,
    /// A fault episode was active (span: the episode window).
    Fault,
}

impl TraceKind {
    /// Stable lowercase label for exports.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Birth => "birth",
            TraceKind::Update => "update",
            TraceKind::Announce => "announce",
            TraceKind::Summary => "summary",
            TraceKind::Deliver => "deliver",
            TraceKind::Drop => "drop",
            TraceKind::Expire => "expire",
            TraceKind::Nack => "nack",
            TraceKind::Promote => "promote",
            TraceKind::Demote => "demote",
            TraceKind::Query => "query",
            TraceKind::Report => "report",
            TraceKind::Dispatch => "dispatch",
            TraceKind::Decision => "decision",
            TraceKind::Fault => "fault",
        }
    }
}

/// One causally-linked trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// This event's id (equals its 1-based log position).
    pub id: TraceId,
    /// Causal parent, or [`TraceId::NONE`].
    pub parent: TraceId,
    /// Virtual start time.
    pub at: SimTime,
    /// Virtual end time — `Some` makes this a span, `None` an instant.
    pub end: Option<SimTime>,
    /// The component this event happened on.
    pub actor: Actor,
    /// Lifecycle step.
    pub kind: TraceKind,
    /// The record key involved (0 when not key-scoped).
    pub key: u64,
    /// Free-form static label (event name, scheduler name, queue class).
    pub label: &'static str,
}

/// The causal trace of one simulation run.
///
/// Records [`TraceEvent`]s with first-N-prefix retention and tracks one
/// open *root span* per live key so lifecycle events can default their
/// parent to the record's birth. See the module docs for the model.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
    roots: BTreeMap<u64, TraceId>,
}

impl Tracer {
    /// A disabled tracer: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer retaining the first `capacity` events of the run.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            events: Vec::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
            roots: BTreeMap::new(),
        }
    }

    /// True when this tracer records events.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Appends one event, honoring the prefix bound. Returns the new id,
    /// or [`TraceId::NONE`] when disabled or full.
    #[expect(
        clippy::too_many_arguments,
        reason = "one parameter per TraceEvent field; private, called only by the typed loggers"
    )]
    fn push(
        &mut self,
        parent: TraceId,
        at: SimTime,
        end: Option<SimTime>,
        actor: Actor,
        kind: TraceKind,
        key: u64,
        label: &'static str,
    ) -> TraceId {
        if self.capacity == 0 {
            return TraceId::NONE;
        }
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return TraceId::NONE;
        }
        let id = TraceId(self.events.len() as u64 + 1);
        self.events.push(TraceEvent {
            id,
            parent,
            at,
            end,
            actor,
            kind,
            key,
            label,
        });
        id
    }

    /// A record is born: opens the root span for `key` on `actor`.
    pub fn birth(&mut self, at: SimTime, actor: Actor, key: u64) -> TraceId {
        if self.capacity == 0 {
            return TraceId::NONE;
        }
        let id = self.push(TraceId::NONE, at, None, actor, TraceKind::Birth, key, "");
        if id.is_some() {
            self.roots.insert(key, id);
        }
        id
    }

    /// A record died: closes `key`'s root span and logs an `Expire`
    /// instant under it.
    pub fn death(&mut self, at: SimTime, actor: Actor, key: u64) {
        if self.capacity == 0 {
            return;
        }
        let root = self.roots.remove(&key).unwrap_or(TraceId::NONE);
        self.close(root, at);
        self.push(root, at, None, actor, TraceKind::Expire, key, "");
    }

    /// The open root span for `key`, or [`TraceId::NONE`].
    pub fn root(&self, key: u64) -> TraceId {
        self.roots.get(&key).copied().unwrap_or(TraceId::NONE)
    }

    /// Logs an instant parented under `key`'s root span.
    pub fn instant(&mut self, at: SimTime, actor: Actor, kind: TraceKind, key: u64) -> TraceId {
        let parent = self.root(key);
        self.push(parent, at, None, actor, kind, key, "")
    }

    /// Logs an instant with an explicit causal parent.
    pub fn instant_under(
        &mut self,
        at: SimTime,
        actor: Actor,
        kind: TraceKind,
        key: u64,
        parent: TraceId,
    ) -> TraceId {
        self.push(parent, at, None, actor, kind, key, "")
    }

    /// Logs a labeled instant with an explicit causal parent.
    pub fn instant_labeled(
        &mut self,
        at: SimTime,
        actor: Actor,
        kind: TraceKind,
        key: u64,
        parent: TraceId,
        label: &'static str,
    ) -> TraceId {
        self.push(parent, at, None, actor, kind, key, label)
    }

    /// Logs a closed span `[at, end]` parented under `key`'s root span.
    pub fn span(
        &mut self,
        at: SimTime,
        end: SimTime,
        actor: Actor,
        kind: TraceKind,
        key: u64,
    ) -> TraceId {
        let parent = self.root(key);
        self.push(parent, at, Some(end), actor, kind, key, "")
    }

    /// Logs a closed span with an explicit causal parent.
    pub fn span_under(
        &mut self,
        at: SimTime,
        end: SimTime,
        actor: Actor,
        kind: TraceKind,
        key: u64,
        parent: TraceId,
    ) -> TraceId {
        self.push(parent, at, Some(end), actor, kind, key, "")
    }

    /// Logs an unparented span with a static label (fault episodes).
    pub(crate) fn span_labeled(
        &mut self,
        at: SimTime,
        end: SimTime,
        actor: Actor,
        kind: TraceKind,
        key: u64,
        label: &'static str,
    ) -> TraceId {
        self.push(TraceId::NONE, at, Some(end), actor, kind, key, label)
    }

    /// Logs one engine dispatch as a zero-width span on the
    /// [`Actor::Engine`] lane. Event handling consumes no virtual time
    /// (the clock only advances when the queue pops), so the span's
    /// width is structural, not temporal.
    pub(crate) fn dispatch(&mut self, at: SimTime, label: &'static str) {
        self.push(
            TraceId::NONE,
            at,
            Some(at),
            Actor::Engine,
            TraceKind::Dispatch,
            0,
            label,
        );
    }

    /// Logs a scheduling decision: the scheduler (named by `label`)
    /// picked queue class `key` to serve.
    pub fn decision(&mut self, at: SimTime, key: u64, label: &'static str) {
        self.push(
            TraceId::NONE,
            at,
            None,
            Actor::Scheduler,
            TraceKind::Decision,
            key,
            label,
        );
    }

    /// Closes an open span at `end` (no-op for [`TraceId::NONE`], for
    /// dropped events, and for already-closed spans).
    pub(crate) fn close(&mut self, id: TraceId, end: SimTime) {
        if self.capacity == 0 {
            return;
        }
        if let Some(ev) = id.index().and_then(|i| self.events.get_mut(i)) {
            if ev.end.is_none() {
                ev.end = Some(end);
            }
        }
    }

    /// Ends the run at `end`: every still-open root span is closed (the
    /// record outlived the observation window, not its lifetime).
    pub fn finish(&mut self, end: SimTime) {
        if self.capacity == 0 {
            return;
        }
        let open: Vec<TraceId> = self.roots.values().copied().collect();
        for id in open {
            self.close(id, end);
        }
        self.roots.clear();
    }

    /// The recorded events, in id order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Recorded events of one kind, in id order.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events that arrived after the prefix bound filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        let id = t.birth(SimTime::ZERO, Actor::Publisher, 1);
        assert_eq!(id, TraceId::NONE);
        t.death(SimTime::from_secs(1), Actor::Publisher, 1);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn prefix_retention_keeps_first_n() {
        let mut t = Tracer::with_capacity(2);
        for i in 0..5 {
            t.instant(SimTime::from_secs(i), Actor::Channel, TraceKind::Drop, i);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        // The kept prefix is the *first* two events, and ids are dense.
        assert_eq!(t.events()[0].key, 0);
        assert_eq!(t.events()[1].key, 1);
        assert_eq!(t.events()[1].id, TraceId(2));
    }

    #[test]
    fn birth_roots_parent_lifecycle_events() {
        let mut t = Tracer::with_capacity(16);
        let root = t.birth(SimTime::ZERO, Actor::Publisher, 7);
        let tx = t.span(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            Actor::HotServer,
            TraceKind::Announce,
            7,
        );
        let deliver = t.instant_under(
            SimTime::from_secs(2),
            Actor::Replica(0),
            TraceKind::Deliver,
            7,
            tx,
        );
        t.death(SimTime::from_secs(5), Actor::Publisher, 7);
        let evs = t.events();
        assert_eq!(evs[tx.index().unwrap()].parent, root);
        assert_eq!(evs[deliver.index().unwrap()].parent, tx);
        // Death closed the root span and logged an Expire under it.
        assert_eq!(evs[root.index().unwrap()].end, Some(SimTime::from_secs(5)));
        let expire = evs.last().unwrap();
        assert_eq!(expire.kind, TraceKind::Expire);
        assert_eq!(expire.parent, root);
        assert_eq!(t.root(7), TraceId::NONE);
    }

    #[test]
    fn finish_closes_open_roots() {
        let mut t = Tracer::with_capacity(16);
        let a = t.birth(SimTime::ZERO, Actor::Publisher, 1);
        let b = t.birth(SimTime::from_secs(1), Actor::Publisher, 2);
        t.finish(SimTime::from_secs(9));
        assert_eq!(
            t.events()[a.index().unwrap()].end,
            Some(SimTime::from_secs(9))
        );
        assert_eq!(
            t.events()[b.index().unwrap()].end,
            Some(SimTime::from_secs(9))
        );
        assert_eq!(t.root(1), TraceId::NONE);
    }

    #[test]
    fn ids_are_dense_and_topological() {
        let mut t = Tracer::with_capacity(8);
        t.birth(SimTime::ZERO, Actor::Publisher, 1);
        t.instant(SimTime::from_secs(1), Actor::Channel, TraceKind::Drop, 1);
        t.dispatch(SimTime::from_secs(1), "service-done");
        for (i, e) in t.events().iter().enumerate() {
            assert_eq!(e.id.raw(), i as u64 + 1);
            assert!(e.parent < e.id, "parent must precede child");
        }
    }
}
