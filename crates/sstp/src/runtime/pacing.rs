//! Rate control and wake-up timing for the multi-session runtime: a byte
//! token bucket, a variable-rate pacer, and the deadline index the poll
//! loop and the supervisor keep their timers in.
//!
//! All three primitives are **pure**: time enters only through `now`
//! parameters (a [`SimTime`] produced by whatever clock drives them —
//! the [`crate::runtime::WallClock`] in production, a
//! [`ss_netsim::ManualClock`] in tests), so their behavior is exactly
//! reproducible under virtual time. This is the same clock-split seam
//! the protocol machines use (see [`crate::machine`]).

use ss_netsim::{Bandwidth, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A byte token bucket enforcing a bandwidth budget.
///
/// Tokens are bits; the bucket holds at most one second of burst. It never
/// reads a clock: the caller supplies `now` on every operation, which is
/// what lets the runtime compute exact wake-up deadlines
/// (`TokenBucket::eta`) instead of busy-polling.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_bps: f64,
    capacity: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A full bucket with a one-second burst capacity at `rate`.
    pub fn new(rate: Bandwidth) -> Self {
        let rate_bps = rate.as_bps() as f64;
        TokenBucket {
            rate_bps,
            capacity: rate_bps,
            tokens: rate_bps,
            last: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last).as_secs_f64();
        self.last = self.last.max(now);
        self.tokens = (self.tokens + dt * self.rate_bps).min(self.capacity);
    }

    /// Takes `bytes` worth of tokens if available at `now`.
    pub fn try_take(&mut self, now: SimTime, bytes: usize) -> bool {
        self.refill(now);
        let need = bytes as f64 * 8.0;
        if self.tokens >= need {
            self.tokens -= need;
            true
        } else {
            false
        }
    }

    /// How long after `now` a send of `bytes` will fit the budget
    /// ([`SimDuration::ZERO`] when it already fits). This is the
    /// runtime's wake-up deadline for a throttled packet: sleep exactly
    /// this long instead of retrying on a fixed poll interval.
    pub(crate) fn eta(&mut self, now: SimTime, bytes: usize) -> SimDuration {
        self.refill(now);
        let need = bytes as f64 * 8.0;
        if self.tokens >= need {
            return SimDuration::ZERO;
        }
        if self.rate_bps <= 0.0 {
            return SimDuration::MAX;
        }
        // Rounded *up* to the clock's resolution: a wake-up one tick
        // short of the refill would fail `try_take` and cost a second one.
        SimDuration::from_micros(((need - self.tokens) / self.rate_bps * 1e6).ceil() as u64)
    }

    /// Takes `bytes` worth of tokens if they fit at `now`; otherwise
    /// returns the [`TokenBucket::eta`] of the **same** `bytes`. One call
    /// site for both halves, so the cost that was refused and the cost
    /// the wake-up is armed for cannot drift apart.
    pub(crate) fn take_or_eta(&mut self, now: SimTime, bytes: usize) -> Result<(), SimDuration> {
        if self.try_take(now, bytes) {
            Ok(())
        } else {
            Err(self.eta(now, bytes))
        }
    }
}

/// A variable-rate pacer for announce batches, after sosistab's
/// `VarRateLimit`: a limiter whose permitted rate can be re-tuned on the
/// fly while in flight.
///
/// The runtime uses one pacer for the cold path (root summaries and
/// cycle re-announcements). Under overload the supervisor *lowers* the
/// rate — the paper's announce-degradation recovery mechanic applied as
/// runtime policy — and restores it once backpressure clears; hot data
/// and feedback never pass through the pacer.
#[derive(Clone, Debug)]
pub(crate) struct VarRateLimit {
    /// Permitted operations per second.
    rate: u32,
    /// The instant the next operation becomes permitted.
    next_allowed: SimTime,
}

impl VarRateLimit {
    /// A pacer permitting `rate` operations per second (`rate` is
    /// clamped to at least 1).
    pub fn new(rate: u32) -> Self {
        VarRateLimit {
            rate: rate.max(1),
            next_allowed: SimTime::ZERO,
        }
    }

    /// The current permitted rate (operations per second).
    pub fn rate(&self) -> u32 {
        self.rate
    }

    /// Re-tunes the permitted rate without resetting the in-flight
    /// spacing (the next operation keeps its already-earned slot).
    pub(crate) fn set_rate(&mut self, rate: u32) {
        self.rate = rate.max(1);
    }

    /// Operations of catch-up credit the pacer may bank while idle. A
    /// poll loop calls [`VarRateLimit::check`] with a coarse, fixed
    /// `now`, so the pacer must be able to grant the credit earned since
    /// the previous poll as a batch — otherwise a 1 ms poll interval
    /// would silently cap *any* configured rate at one op per poll. The
    /// bound keeps a long-idle pacer from dumping an unbounded burst.
    pub(crate) const BURST_OPS: u64 = 64;

    /// Permits one operation at `now` if the pacer allows it, charging
    /// the inter-operation gap implied by the current rate. Credit
    /// accrues while the pacer is behind, up to
    /// [`VarRateLimit::BURST_OPS`] banked operations.
    pub fn check(&mut self, now: SimTime) -> bool {
        if now < self.next_allowed {
            return false;
        }
        let gap = self.gap();
        let floor = SimTime::from_micros(
            now.as_micros()
                .saturating_sub(gap.as_micros().saturating_mul(Self::BURST_OPS)),
        );
        self.next_allowed = self.next_allowed.max(floor) + gap;
        true
    }

    /// The earliest instant at which `n` back-to-back [`check`]s will all
    /// succeed at the current rate: `next_allowed + (n - 1) * gap`, and at
    /// `n = 1` the next operation's own deadline. A caller with a backlog
    /// sleeps until a batch of grants has banked instead of waking once
    /// per gap. Exact for `n` up to
    /// [`VarRateLimit::BURST_OPS`] (more credit than that is never
    /// banked).
    ///
    /// [`check`]: VarRateLimit::check
    pub(crate) fn allowed_at(&self, n: u64) -> SimTime {
        let wait = self.gap().as_micros().saturating_mul(n.saturating_sub(1));
        self.next_allowed
            .saturating_add(SimDuration::from_micros(wait))
    }

    fn gap(&self) -> SimDuration {
        SimDuration::from_micros(1_000_000 / u64::from(self.rate))
    }
}

/// A deadline index over dense slot ids: which slots have a wake-up due,
/// without scanning the slots.
///
/// Entries are **lower bounds**, validated lazily. A slot holds one
/// *armed* deadline; `DeadlineIndex::arm` pushes a heap entry only when
/// the deadline moves *earlier* than the armed one. A deadline that moves
/// later costs nothing: the armed entry fires early, the owner re-checks
/// its true deadline (an idempotent step) and arms again. That is what
/// keeps per-datagram paths — [`Supervisor::heard`] pushing a probe
/// deadline out, hot traffic leaving `next_summary` alone — off the heap.
///
/// Superseded entries stay in the heap until they surface and are
/// discarded by `DeadlineIndex::pop_due` (their time no longer matches
/// the slot's armed stamp), so a vacated and reused slot is never woken
/// by its previous occupant's timers. The heap is rebuilt from the stamps
/// whenever stale entries outnumber live ones, which bounds it at
/// `2 * armed() + SLACK` entries after every operation.
///
/// [`Supervisor::heard`]: crate::runtime::supervisor::Supervisor::heard
#[derive(Clone, Debug, Default)]
pub struct DeadlineIndex {
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// The deadline each slot is armed for ([`SimTime::MAX`]: none).
    stamps: Vec<SimTime>,
    /// Slots with a stamp.
    armed: usize,
    high_water: usize,
}

impl DeadlineIndex {
    /// Stale entries tolerated beyond one per armed slot before the heap
    /// is rebuilt.
    pub const SLACK: usize = 64;

    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Asks for `slot` to be returned by [`DeadlineIndex::pop_due`] no
    /// later than `at`. A no-op when the slot is already armed for `at` or
    /// earlier ([`SimTime::MAX`] means "no deadline" and never arms).
    pub(crate) fn arm(&mut self, slot: u32, at: SimTime) {
        let idx = slot as usize;
        if self.stamps.len() <= idx {
            self.stamps.resize(idx + 1, SimTime::MAX);
        }
        if at >= self.stamps[idx] {
            return;
        }
        if self.stamps[idx] == SimTime::MAX {
            self.armed += 1;
        }
        self.stamps[idx] = at;
        self.heap.push(Reverse((at, slot)));
        self.trim();
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Rebuilds the heap from the stamps once stale entries outnumber
    /// armed slots by more than [`DeadlineIndex::SLACK`]. Each rebuild
    /// drops at least `armed + SLACK` entries, so the cost amortizes over
    /// the pushes that made them stale.
    fn trim(&mut self) {
        if self.heap.len() > 2 * self.armed + Self::SLACK {
            self.heap = self
                .stamps
                .iter()
                .enumerate()
                .filter(|(_, &t)| t != SimTime::MAX)
                .map(|(s, &t)| Reverse((t, s as u32)))
                .collect();
        }
    }

    /// Disarms `slot`: whatever is in the heap for it is now stale. Call
    /// when the slot's occupant goes away, so a later occupant starts
    /// with no timers.
    pub(crate) fn vacate(&mut self, slot: u32) {
        if let Some(stamp) = self.stamps.get_mut(slot as usize) {
            if *stamp != SimTime::MAX {
                *stamp = SimTime::MAX;
                self.armed -= 1;
                self.trim();
            }
        }
    }

    /// The next slot whose armed deadline is at or before `now`, disarming
    /// it (the owner arms it again once it knows its next deadline).
    /// `None` once nothing more is due. Stale entries met on the way are
    /// discarded.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<u32> {
        while let Some(&Reverse((at, slot))) = self.heap.peek() {
            if at > now {
                return None;
            }
            self.heap.pop();
            if self.stamps[slot as usize] == at {
                self.stamps[slot as usize] = SimTime::MAX;
                self.armed -= 1;
                self.trim();
                return Some(slot);
            }
        }
        None
    }

    /// The earliest entry's time: when to call `DeadlineIndex::pop_due`
    /// next. A lower bound — the entry may turn out stale.
    pub fn next(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((at, _))| at)
    }

    /// Slots currently armed.
    pub fn armed(&self) -> usize {
        self.armed
    }

    /// Heap entries, live and stale: at most `2 * armed() + SLACK`.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when the heap holds nothing.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The most entries the heap has ever held.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ss_netsim::{Clock, ManualClock};

    #[test]
    fn token_bucket_enforces_rate() {
        let mut b = TokenBucket::new(Bandwidth::from_kbps(8)); // 1000 B/s
        let t0 = SimTime::ZERO;
        // The bucket starts full (one second of burst).
        assert!(b.try_take(t0, 1000));
        // Immediately asking for another 1000 B must fail...
        assert!(!b.try_take(t0, 1000));
        // ...and the eta says exactly when it will fit.
        assert_eq!(b.eta(t0, 1000), SimDuration::from_secs(1));
        // Small amounts fit after a proportional refill.
        let t1 = t0 + SimDuration::from_millis(30);
        assert!(b.try_take(t1, 10));
    }

    #[test]
    fn token_bucket_eta_is_exact() {
        let mut b = TokenBucket::new(Bandwidth::from_kbps(8));
        let t0 = SimTime::ZERO;
        assert!(b.try_take(t0, 1000));
        let eta = b.eta(t0, 500);
        // Waiting one microsecond less than the eta still fails; waiting
        // the eta succeeds.
        assert!(!b.try_take(t0 + eta - SimDuration::from_micros(1), 500));
        assert!(b.try_take(t0 + eta, 500));
    }

    #[test]
    fn take_or_eta_wakes_exactly_when_the_same_bytes_fit() {
        // The shipped per-session budget, where one byte is 31.25 us: an
        // eta computed for even four bytes fewer than were refused wakes
        // the session 125 us before `try_take` can succeed.
        let mut clock = ManualClock::new();
        for bytes in [61usize, 100, 333, 1404] {
            let mut b = TokenBucket::new(Bandwidth::from_kbps(256));
            clock.advance(SimDuration::from_micros(7));
            // Drain the burst down to a fraction of a byte.
            while b.try_take(clock.now(), 997) {}
            while b.try_take(clock.now(), 1) {}
            let eta = b
                .take_or_eta(clock.now(), bytes)
                .expect_err("bucket was just drained");
            assert!(eta > SimDuration::ZERO);
            let early = clock.now() + eta - SimDuration::from_micros(1);
            assert!(!b.clone().try_take(early, bytes), "{bytes} B fit early");
            clock.advance(eta);
            assert_eq!(b.take_or_eta(clock.now(), bytes), Ok(()));
        }
    }

    #[test]
    fn token_bucket_never_exceeds_capacity() {
        let mut b = TokenBucket::new(Bandwidth::from_kbps(8));
        // A long idle period must not bank more than one second of burst.
        let late = SimTime::from_secs(100);
        assert!(b.try_take(late, 1000));
        assert!(!b.try_take(late, 1000));
    }

    #[test]
    fn pacer_spaces_operations() {
        let mut p = VarRateLimit::new(10); // 100 ms gap
        let t0 = SimTime::ZERO;
        assert!(p.check(t0));
        assert!(!p.check(t0 + SimDuration::from_millis(99)));
        assert_eq!(p.allowed_at(1), t0 + SimDuration::from_millis(100));
        assert!(p.check(t0 + SimDuration::from_millis(100)));
    }

    #[test]
    fn pacer_rate_varies_in_flight() {
        let mut p = VarRateLimit::new(10);
        let t0 = SimTime::ZERO;
        assert!(p.check(t0));
        // Degrade to 2/s: the *next* gap after the pending one widens.
        p.set_rate(2);
        assert!(!p.check(t0 + SimDuration::from_millis(99)));
        assert!(p.check(t0 + SimDuration::from_millis(100)));
        assert_eq!(p.allowed_at(1), t0 + SimDuration::from_millis(600));
        // Restore: gaps narrow again from the next grant on.
        p.set_rate(10);
        assert!(p.check(t0 + SimDuration::from_millis(600)));
        assert_eq!(p.allowed_at(1), t0 + SimDuration::from_millis(700));
    }

    #[test]
    fn pacer_banks_bounded_catchup_credit() {
        let mut p = VarRateLimit::new(1000); // 1 ms gap
        let t0 = SimTime::ZERO;
        assert!(p.check(t0));
        // A coarse poll 10 ms later may grant the elapsed credit as a
        // batch — the configured rate, not one op per poll...
        let t1 = t0 + SimDuration::from_millis(10);
        let granted = (0..100).filter(|_| p.check(t1)).count();
        assert_eq!(granted, 10);
        // ...but a long idle period banks at most BURST_OPS gaps.
        let t2 = t1 + SimDuration::from_secs(3600);
        let granted = (0..1000).filter(|_| p.check(t2)).count();
        assert_eq!(granted, VarRateLimit::BURST_OPS as usize + 1);
    }

    #[test]
    fn pacer_says_when_a_batch_of_grants_will_have_banked() {
        let clock = ManualClock::new();
        let mut p = VarRateLimit::new(1000); // 1 ms gap
        assert!(p.check(clock.now()));
        assert_eq!(p.allowed_at(0), p.allowed_at(1));
        assert_eq!(p.allowed_at(1), p.allowed_at(1));
        for n in [2u64, 7, VarRateLimit::BURST_OPS] {
            let mut early = p.clone();
            let mut at = p.clone();
            let t = p.allowed_at(n);
            assert_eq!(t, p.allowed_at(1) + SimDuration::from_millis(n - 1));
            // One tick short, the batch comes up one grant short...
            let before = t - SimDuration::from_micros(1);
            let granted = (0..n).filter(|_| early.check(before)).count() as u64;
            assert_eq!(granted, n - 1);
            // ...and at `t` exactly `n` are granted, not more.
            let granted = (0..2 * n).filter(|_| at.check(t)).count() as u64;
            assert_eq!(granted, n);
        }
        // A degraded rate widens the gap the answer is computed with.
        p.set_rate(10);
        assert_eq!(
            p.allowed_at(3),
            p.allowed_at(1) + SimDuration::from_millis(200)
        );
    }

    #[test]
    fn pacer_clamps_zero_rate() {
        let p = VarRateLimit::new(0);
        assert_eq!(p.rate(), 1);
    }

    #[test]
    fn index_pushes_only_when_a_deadline_moves_earlier() {
        let ms = SimTime::from_millis;
        let mut ix = DeadlineIndex::new();
        ix.arm(3, ms(100));
        ix.arm(3, ms(100));
        ix.arm(3, ms(250)); // later: the armed entry is a lower bound
        ix.arm(3, SimTime::MAX);
        assert_eq!((ix.len(), ix.armed()), (1, 1));
        ix.arm(3, ms(40)); // earlier: a new entry, the old one goes stale
        assert_eq!((ix.len(), ix.armed()), (2, 1));
        assert_eq!(ix.next(), Some(ms(40)));
        assert_eq!(ix.pop_due(ms(39)), None);
        assert_eq!(ix.pop_due(ms(40)), Some(3));
        // The stale 100 ms entry is still the heap's head, and is dropped
        // without waking anyone.
        assert_eq!(ix.next(), Some(ms(100)));
        assert_eq!(ix.pop_due(ms(500)), None);
        assert!(ix.is_empty());
    }

    #[test]
    fn index_does_not_wake_a_reused_slot_with_the_old_timers() {
        let ms = SimTime::from_millis;
        let mut ix = DeadlineIndex::new();
        ix.arm(0, ms(200));
        ix.arm(1, ms(300));
        ix.vacate(0);
        assert_eq!(ix.armed(), 1);
        ix.arm(0, ms(350)); // the newcomer's own deadline
        assert_eq!(ix.pop_due(ms(299)), None, "the dead occupant's timer fired");
        assert_eq!(ix.pop_due(ms(349)), Some(1));
        assert_eq!(ix.pop_due(ms(349)), None);
        assert_eq!(ix.pop_due(ms(350)), Some(0));
        assert!(ix.is_empty());
    }

    proptest! {
        /// The deadline index against its owner's view, under random arm
        /// (earlier or later) / vacate / reuse / advance sequences: a
        /// live slot is returned no later than its latest deadline, a
        /// vacated one never, the head is never later than any live
        /// deadline (no missed wake-up), and stale entries stay bounded.
        #[test]
        fn index_wakes_every_live_slot_on_time(
            ops in prop::collection::vec((0u8..6, 0u32..8, 1u64..300), 1..400),
        ) {
            let mut ix = DeadlineIndex::new();
            // The owner's true next deadline per slot (`None`: vacant,
            // or fired and not asked for again).
            let mut want: [Option<SimTime>; 8] = [None; 8];
            let mut now = SimTime::ZERO;
            for (op, slot, dt) in ops {
                match op {
                    0..=2 => {
                        let at = now + SimDuration::from_millis(dt);
                        want[slot as usize] = Some(at);
                        ix.arm(slot, at);
                    }
                    3 => {
                        want[slot as usize] = None;
                        ix.vacate(slot);
                    }
                    _ => {
                        now += SimDuration::from_millis(dt);
                        while let Some(s) = ix.pop_due(now) {
                            let at = want[s as usize];
                            prop_assert!(at.is_some(), "slot {} woken after it was vacated", s);
                            if at > Some(now) {
                                // Early (the deadline had moved later):
                                // the owner looks and arms again.
                                ix.arm(s, at.unwrap());
                            } else {
                                want[s as usize] = None;
                            }
                        }
                        for (s, at) in want.iter().enumerate() {
                            prop_assert!(
                                at.is_none_or(|at| at > now),
                                "slot {} slept through {:?} (now {:?})", s, at, now
                            );
                        }
                    }
                }
                let live = want.iter().flatten().count();
                prop_assert_eq!(ix.armed(), live);
                prop_assert!(ix.len() <= 2 * live + DeadlineIndex::SLACK);
                prop_assert!(ix.high_water() <= 2 * want.len() + DeadlineIndex::SLACK);
                if let Some(first) = want.iter().flatten().min() {
                    prop_assert!(ix.next().is_some_and(|head| head <= *first));
                }
            }
        }
    }
}
