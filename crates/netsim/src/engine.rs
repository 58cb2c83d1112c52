//! The discrete-event engine: a time-ordered event queue and a run loop.
//!
//! The engine is deliberately minimal and generic: a protocol simulation
//! defines its own event payload type `E` and a [`World`] that reacts to
//! each event, possibly scheduling more. Ties in time break by insertion
//! order (a monotone sequence number), so runs are fully deterministic.
//!
//! Storage is a `std` [`BinaryHeap`] keyed by `(time, seq)` ascending.
//! The soft-state workload keeps few events pending — most runs never
//! hold more than 8, the session simulator a few hundred — so the whole
//! heap sits in a cache line or two and a pop is a handful of compares.
//! `(time, seq)` is a total order, so the pop order — and with it every
//! committed artifact — is a property of the contract, not of the
//! container. DESIGN.md §14 has the measured populations.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One pending event. Ordered by `(at, seq)` **reversed**, so `std`'s
/// max-heap pops the earliest time first and, within a tick, the
/// earliest scheduled. `seq` is unique, so no two entries compare equal
/// and the payload never takes part in the order.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// `(at, seq)` as one integer, so the heap's sift compares once.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.at.as_micros()) << 64) | u128::from(self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A deterministic time-ordered event queue with a virtual clock.
///
/// `pop` advances the clock to the popped event's timestamp; scheduling in
/// the past is a logic error and panics.
///
/// Ties in time break FIFO — by a monotone insertion sequence number —
/// so a run's event trajectory is a pure function of what was scheduled,
/// never of queue internals:
///
/// ```
/// use ss_netsim::{EventQueue, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// let t = SimTime::from_millis(3);
/// q.schedule(t, "scheduled first");
/// q.schedule(t, "scheduled second");
/// q.schedule(SimTime::from_millis(1), "earlier beats both");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "earlier beats both")));
/// assert_eq!(q.pop(), Some((t, "scheduled first")));
/// assert_eq!(q.pop(), Some((t, "scheduled second")));
/// assert_eq!(q.now(), t); // the clock follows the popped events
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `cap` pending events before the heap
    /// reallocates. Protocol runners size this for their steady-state
    /// event population so the hot loop never grows it.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
        }
    }

    /// The current virtual time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`.
    /// Panics if `at` is before the current clock.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Schedules `payload` to fire `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) {
        self.schedule(self.now + delay, payload);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is exhausted.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { at, payload, .. } = self.heap.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        self.popped += 1;
        Some((at, payload))
    }

    /// Timestamp of the earliest pending event, if any. O(1): the heap's
    /// root.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events dispatched so far (a cheap progress/diagnostic counter).
    pub fn dispatched(&self) -> u64 {
        self.popped
    }

    /// Total events ever scheduled (dispatched + still pending). Together
    /// with [`EventQueue::dispatched`] this feeds the engine's own
    /// `engine.events_*` metrics.
    pub fn scheduled(&self) -> u64 {
        self.seq
    }
}

impl<E> crate::time::Clock for EventQueue<E> {
    fn now(&self) -> SimTime {
        self.now()
    }
}

/// A simulation world: reacts to events, scheduling follow-ups on the queue.
pub trait World {
    /// The event payload this world understands.
    type Event;

    /// Handles one event at the queue's current time.
    fn handle(&mut self, q: &mut EventQueue<Self::Event>, ev: Self::Event);
}

/// Runs `world` until the clock passes `end` or the queue drains.
///
/// Events stamped exactly at `end` still run; the first event strictly
/// later than `end` is left in the queue (and the clock is *not* advanced
/// to it), so metrics can be finalized at `end` precisely.
pub fn run_until<W: World>(world: &mut W, q: &mut EventQueue<W::Event>, end: SimTime) {
    while let Some(at) = q.peek_time() {
        if at > end {
            break;
        }
        let (_, ev) = q.pop().expect("peeked event vanished");
        world.handle(q, ev);
    }
}

/// Runs `world` until the queue drains completely.
pub fn run_to_completion<W: World>(world: &mut W, q: &mut EventQueue<W::Event>) {
    while let Some((_, ev)) = q.pop() {
        world.handle(q, ev);
    }
}

/// A [`World`] that carries an `ss-trace` [`Tracer`](crate::trace::Tracer),
/// letting the run loop record one dispatch event per queue pop.
pub trait TracedWorld: World {
    /// The world's tracer (disabled tracers make tracing free).
    fn tracer(&mut self) -> &mut crate::trace::Tracer;

    /// A stable static label for an event payload, shown on the engine
    /// lane of exported traces. Takes `&self` because one world type may
    /// name its events per configuration (the protocol engine's variants
    /// keep their own committed labels).
    fn event_label(&self, ev: &Self::Event) -> &'static str;
}

/// [`run_until`] plus per-dispatch tracing: before each event is
/// handled, a zero-width dispatch span is recorded on the engine lane.
///
/// Protocol runners pick this loop only when their tracer is enabled,
/// keeping the untraced hot loop free of even the per-event branch.
/// Tracing observes and never schedules, so the event trajectory is
/// identical to [`run_until`]'s.
pub fn run_until_traced<W: TracedWorld>(world: &mut W, q: &mut EventQueue<W::Event>, end: SimTime) {
    while let Some(at) = q.peek_time() {
        if at > end {
            break;
        }
        let (_, ev) = q.pop().expect("peeked event vanished");
        let label = world.event_label(&ev);
        world.tracer().dispatch(at, label);
        world.handle(q, ev);
    }
}

/// [`run_until`] plus `ss-profile` phase attribution: each queue pop is
/// charged to [`profile::WHEEL_PHASE`](crate::profile::WHEEL_PHASE)
/// (the queue pop) and each dispatch runs inside an
/// `ev:<label>` phase scope, so every dispatched event lands in exactly
/// one named root phase. The tracer dispatch mark is kept, so a run
/// that is both traced and profiled loses nothing.
///
/// Profiling observes and never schedules or draws randomness, so the
/// event trajectory — and every artifact — is identical to
/// [`run_until`]'s. Runners pick this loop only when
/// [`profile::is_enabled`](crate::profile::is_enabled), keeping the
/// plain hot loop free of even the per-event branch.
pub fn run_until_profiled<W: TracedWorld>(
    world: &mut W,
    q: &mut EventQueue<W::Event>,
    end: SimTime,
) {
    loop {
        let ev = {
            let _pop = crate::profile::scope(crate::profile::WHEEL_PHASE);
            match q.peek_time() {
                Some(at) if at <= end => q.pop().expect("peeked event vanished"),
                _ => break,
            }
        };
        let (at, ev) = ev;
        let label = world.event_label(&ev);
        world.tracer().dispatch(at, label);
        let _dispatch = crate::profile::dispatch_scope(label);
        world.handle(q, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.now(), SimTime::from_secs(2));
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
        assert_eq!(q.dispatched(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_events() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 1);
        q.pop();
        q.schedule_in(SimDuration::from_secs(5), 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(e, 2);
    }

    /// A counter world: each event below `limit` schedules a successor 1s out.
    struct Counter {
        fired: Vec<u64>,
        limit: u64,
    }
    impl World for Counter {
        type Event = u64;
        fn handle(&mut self, q: &mut EventQueue<u64>, ev: u64) {
            self.fired.push(ev);
            if ev + 1 < self.limit {
                q.schedule_in(SimDuration::from_secs(1), ev + 1);
            }
        }
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut w = Counter {
            fired: vec![],
            limit: 100,
        };
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0);
        run_until(&mut w, &mut q, SimTime::from_secs(5));
        // Events at t = 0..=5 fire (payloads 0..=5); t = 6 stays queued.
        assert_eq!(w.fired, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(6)));
    }

    #[test]
    fn run_to_completion_drains() {
        let mut w = Counter {
            fired: vec![],
            limit: 10,
        };
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0);
        run_to_completion(&mut w, &mut q);
        assert_eq!(w.fired.len(), 10);
        assert!(q.is_empty());
    }
}
