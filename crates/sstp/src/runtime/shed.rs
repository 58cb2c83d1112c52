//! Graceful degradation under pressure: the bounded outbound queue with
//! a class-aware shed policy.
//!
//! The paper's allocation priorities (hot announcements and feedback are
//! worth more than background refreshes — §5's allocation analysis)
//! become the runtime's overload policy: when the outbound queue backs
//! up, **cold-queue refreshes are shed first**, hot announcements and
//! feedback last. Every shed is a counted drop
//! (`runtime.shed.cold` / `runtime.shed.hot` in the metrics registry),
//! never an unbounded queue and never a panic — the soft-state model
//! guarantees a shed refresh is re-sent by a later cycle, so load
//! shedding only widens the refresh interval instead of losing state.

use crate::wire::Packet;
use std::collections::VecDeque;

/// The priority class of one outbound packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficClass {
    /// Foreground data: new announcements, NACK retransmissions, repair
    /// answers. Preserved under overload.
    Hot,
    /// Receiver feedback: queries, NACKs, receiver reports, liveness
    /// probes. Preserved under overload (the recovery path depends on
    /// it).
    Feedback,
    /// Background refresh: root summaries and cycle re-announcements.
    /// Shed first — soft state makes these safe to defer.
    Cold,
}

/// Counted sheds per class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShedStats {
    /// Cold refreshes shed (the intended overload valve).
    pub shed_cold: u64,
    /// Hot or feedback packets dropped because the queue was full of
    /// equally-hot traffic (genuine overload beyond the cold valve).
    pub shed_hot: u64,
}

/// One queued outbound packet.
#[derive(Clone, Debug)]
pub struct Outbound {
    /// Which session sends it (the mux frame id).
    pub session: u32,
    /// Its priority class.
    pub class: TrafficClass,
    /// The packet itself.
    pub pkt: Packet,
}

/// A bounded outbound queue that sheds cold traffic first.
///
/// Invariants (asserted in debug builds, observable via
/// [`SheddingQueue::high_water`]):
///
/// * `len() <= capacity` always — [`SheddingQueue::push`] refuses or
///   evicts at the cap. The capacity caps the length and is not
///   preallocated: a fresh queue holds no heap and grows on demand.
/// * Cold pushes are refused above the cold watermark, so background
///   refresh can never crowd out repair traffic.
/// * A hot/feedback push into a full queue evicts the oldest cold entry
///   if one exists; only when the queue is full of hot traffic is the
///   push itself refused (counted as `shed_hot`).
#[derive(Debug)]
pub struct SheddingQueue {
    items: VecDeque<Outbound>,
    capacity: usize,
    cold_watermark: usize,
    cold_queued: usize,
    high_water: usize,
    stats: ShedStats,
}

impl SheddingQueue {
    /// A queue holding at most `capacity` packets, refusing cold pushes
    /// once `cold_watermark` packets are queued. Panics if the watermark
    /// exceeds the capacity.
    pub fn new(capacity: usize, cold_watermark: usize) -> Self {
        assert!(capacity > 0, "zero-capacity outbound queue");
        assert!(
            cold_watermark <= capacity,
            "cold watermark {cold_watermark} above capacity {capacity}"
        );
        SheddingQueue {
            items: VecDeque::new(),
            capacity,
            cold_watermark,
            cold_queued: 0,
            high_water: 0,
            stats: ShedStats::default(),
        }
    }

    /// Enqueues one packet under the shed policy. Returns `true` when the
    /// packet was queued, `false` when it was shed (already counted).
    pub fn push(&mut self, out: Outbound) -> bool {
        if out.class == TrafficClass::Cold && self.items.len() >= self.cold_watermark {
            self.stats.shed_cold += 1;
            return false;
        }
        if self.items.len() == self.capacity {
            // Hot/feedback arriving into a full queue: make room by
            // shedding the oldest cold entry, if any survives below.
            if let Some(pos) = self
                .items
                .iter()
                .position(|o| o.class == TrafficClass::Cold)
            {
                self.items.remove(pos);
                self.cold_queued -= 1;
                self.stats.shed_cold += 1;
            } else {
                self.stats.shed_hot += 1;
                return false;
            }
        }
        if out.class == TrafficClass::Cold {
            self.cold_queued += 1;
        }
        self.items.push_back(out);
        self.high_water = self.high_water.max(self.items.len());
        debug_assert!(
            self.items.len() <= self.capacity,
            "queue grew past capacity"
        );
        true
    }

    /// Dequeues the next packet (FIFO across classes — priority is
    /// enforced at admission, not at service, so queued hot traffic is
    /// never reordered behind later arrivals).
    pub fn pop(&mut self) -> Option<Outbound> {
        let out = self.items.pop_front();
        if let Some(o) = &out {
            if o.class == TrafficClass::Cold {
                self.cold_queued -= 1;
            }
        }
        out
    }

    /// A look at the next packet without dequeuing it (for budget
    /// checks before commitment).
    pub fn peek(&self) -> Option<&Outbound> {
        self.items.front()
    }

    /// Packets currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The deepest the queue has ever been — provably `<= capacity`.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// True when the queue is at or above its cold watermark — the
    /// supervisor's backpressure signal for announce degradation.
    pub fn pressured(&self) -> bool {
        self.items.len() >= self.cold_watermark
    }

    /// Shed counters.
    pub fn stats(&self) -> ShedStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::RepairQueryPacket;

    fn pkt() -> Packet {
        Packet::RepairQuery(RepairQueryPacket { path: Vec::new() })
    }

    fn out(class: TrafficClass) -> Outbound {
        Outbound {
            session: 0,
            class,
            pkt: pkt(),
        }
    }

    #[test]
    fn cold_refused_above_watermark() {
        let mut q = SheddingQueue::new(4, 2);
        assert!(q.push(out(TrafficClass::Cold)));
        assert!(q.push(out(TrafficClass::Cold)));
        assert!(!q.push(out(TrafficClass::Cold)));
        assert_eq!(q.stats().shed_cold, 1);
        // Hot still admitted above the watermark.
        assert!(q.push(out(TrafficClass::Hot)));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn hot_evicts_cold_when_full() {
        let mut q = SheddingQueue::new(2, 2);
        assert!(q.push(out(TrafficClass::Cold)));
        assert!(q.push(out(TrafficClass::Hot)));
        // Full: the hot push evicts the queued cold entry.
        assert!(q.push(out(TrafficClass::Hot)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.stats().shed_cold, 1);
        assert!(q.items.iter().all(|o| o.class == TrafficClass::Hot));
        // Full of hot: a further hot push is itself refused.
        assert!(!q.push(out(TrafficClass::Feedback)));
        assert_eq!(q.stats().shed_hot, 1);
    }

    #[test]
    fn high_water_never_exceeds_capacity() {
        let mut q = SheddingQueue::new(3, 1);
        for i in 0..50 {
            let class = if i % 3 == 0 {
                TrafficClass::Cold
            } else {
                TrafficClass::Hot
            };
            q.push(out(class));
            if i % 4 == 0 {
                q.pop();
            }
            assert!(q.len() <= q.capacity());
        }
        assert!(q.high_water() <= q.capacity());
    }

    #[test]
    fn fifo_within_admitted_traffic() {
        let mut q = SheddingQueue::new(4, 4);
        q.push(Outbound {
            session: 1,
            class: TrafficClass::Hot,
            pkt: pkt(),
        });
        q.push(Outbound {
            session: 2,
            class: TrafficClass::Cold,
            pkt: pkt(),
        });
        assert_eq!(q.pop().unwrap().session, 1);
        assert_eq!(q.pop().unwrap().session, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn pressured_tracks_watermark() {
        let mut q = SheddingQueue::new(4, 2);
        assert!(!q.pressured());
        q.push(out(TrafficClass::Hot));
        q.push(out(TrafficClass::Hot));
        assert!(q.pressured());
        q.pop();
        assert!(!q.pressured());
    }
}
