//! Typed, sim-timestamped event traces.
//!
//! Where [`crate::trace::Trace`] carries free-form strings for debugging,
//! [`EventLog`] records **typed** protocol events — announce, deliver,
//! drop, expire, NACK, hot/cold queue transitions — so experiments and
//! external tooling can consume a machine-readable account of a run.
//! Events carry only sim time (D001 in `clippy.toml`: no wall clock), so a
//! log is byte-identical across double runs with the same seed.

use crate::time::SimTime;
use std::fmt::Write as _;

/// Which announcement queue an event refers to (two-queue model, §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueueClass {
    /// The hot queue: records not yet known to be delivered.
    Hot,
    /// The cold queue: background re-announcements.
    Cold,
}

impl QueueClass {
    fn label(self) -> &'static str {
        match self {
            QueueClass::Hot => "hot",
            QueueClass::Cold => "cold",
        }
    }
}

/// The kind of a protocol event, spanning the paper's model (§3–§5) and
/// SSTP (§6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A record arrived at the sender (birth).
    Arrival,
    /// A live record was overwritten with a new value.
    Update,
    /// A record was announced (transmitted) from the given queue.
    Announce(QueueClass),
    /// An announcement reached the receiver and was applied.
    Deliver,
    /// An announcement was lost in the channel.
    Drop,
    /// A record died / its soft state expired.
    Expire,
    /// A NACK was generated or delivered on the feedback channel.
    Nack,
    /// A record moved cold → hot (feedback-triggered promotion, §5).
    Promote,
    /// A record moved hot → cold (believed delivered).
    Demote,
    /// A repair query was sent (SSTP §6).
    Query,
    /// A summary packet (root or node digest) was sent (SSTP §6).
    Summary,
    /// A receiver report was sent (SSTP §6).
    Report,
}

impl EventKind {
    /// Stable machine-readable label used in JSONL export.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Arrival => "arrival",
            EventKind::Update => "update",
            EventKind::Announce(_) => "announce",
            EventKind::Deliver => "deliver",
            EventKind::Drop => "drop",
            EventKind::Expire => "expire",
            EventKind::Nack => "nack",
            EventKind::Promote => "promote",
            EventKind::Demote => "demote",
            EventKind::Query => "query",
            EventKind::Summary => "summary",
            EventKind::Report => "report",
        }
    }
}

/// One recorded event: a kind, the sim time it happened, and the record
/// key it concerns (0 when no single record is involved).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
    /// The record (job) id the event concerns; 0 for aggregate events.
    pub key: u64,
}

/// A capacity-bounded, deterministic log of typed events.
///
/// The first `capacity` events are kept and later ones only counted, so a
/// long run's memory stays bounded while the log remains deterministic
/// (a ring buffer would keep a seed-dependent *suffix*; keeping the
/// *prefix* makes double-run comparison trivial). Capacity 0 disables
/// recording entirely and makes [`EventLog::log`] a no-op.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    events: Vec<EventRecord>,
    capacity: usize,
    dropped: u64,
}

impl EventLog {
    /// A disabled log: records nothing, counts nothing.
    pub fn disabled() -> Self {
        EventLog::default()
    }

    /// A log keeping the first `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// True when the log records events (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one event, or counts it as dropped once full.
    pub fn log(&mut self, at: SimTime, kind: EventKind, key: u64) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() < self.capacity {
            self.events.push(EventRecord { at, kind, key });
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, in arrival order.
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events that arrived after the log filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Recorded events of one kind (`Announce` matches either queue).
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &EventRecord> {
        self.events.iter().filter(move |e| match (e.kind, kind) {
            (EventKind::Announce(_), EventKind::Announce(_)) => true,
            (a, b) => a == b,
        })
    }

    /// Serializes the log as JSON Lines: one event per line, in order,
    /// e.g. `{"t_us":1500000,"event":"announce","queue":"hot","key":7}`.
    /// A trailing summary line reports the drop count when nonzero.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = write!(
                out,
                "{{\"t_us\":{},\"event\":\"{}\"",
                e.at.as_micros(),
                e.kind.label()
            );
            if let EventKind::Announce(q) = e.kind {
                let _ = write!(out, ",\"queue\":\"{}\"", q.label());
            }
            let _ = writeln!(out, ",\"key\":{}}}", e.key);
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "{{\"dropped_events\":{}}}", self.dropped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_is_a_noop() {
        let mut log = EventLog::disabled();
        log.log(SimTime::from_secs(1), EventKind::Deliver, 3);
        assert!(!log.is_enabled());
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.to_jsonl(), "");
    }

    #[test]
    fn keeps_prefix_and_counts_overflow() {
        let mut log = EventLog::with_capacity(2);
        log.log(SimTime::from_secs(1), EventKind::Arrival, 1);
        log.log(SimTime::from_secs(2), EventKind::Deliver, 1);
        log.log(SimTime::from_secs(3), EventKind::Expire, 1);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.events()[0].kind, EventKind::Arrival);
        assert_eq!(log.events()[1].kind, EventKind::Deliver);
    }

    #[test]
    fn of_kind_matches_any_announce_queue() {
        let mut log = EventLog::with_capacity(8);
        log.log(SimTime::ZERO, EventKind::Announce(QueueClass::Hot), 1);
        log.log(SimTime::ZERO, EventKind::Announce(QueueClass::Cold), 2);
        log.log(SimTime::ZERO, EventKind::Drop, 2);
        let announces: Vec<_> = log.of_kind(EventKind::Announce(QueueClass::Hot)).collect();
        assert_eq!(announces.len(), 2);
        assert_eq!(log.of_kind(EventKind::Drop).count(), 1);
        assert_eq!(log.of_kind(EventKind::Nack).count(), 0);
    }

    #[test]
    fn jsonl_shape_is_stable() {
        let mut log = EventLog::with_capacity(1);
        log.log(
            SimTime::from_millis(1500),
            EventKind::Announce(QueueClass::Hot),
            7,
        );
        log.log(SimTime::from_secs(2), EventKind::Deliver, 7);
        assert_eq!(
            log.to_jsonl(),
            "{\"t_us\":1500000,\"event\":\"announce\",\"queue\":\"hot\",\"key\":7}\n\
             {\"dropped_events\":1}\n"
        );
    }
}
