//! Session liveness supervision: dead-peer detection, capped exponential
//! re-probing, and outage bookkeeping.
//!
//! The supervisor is a **pure** state machine over [`SimTime`] — no
//! sockets, no clocks — so the proptest suite can drive it through
//! arbitrary silence/heal interleavings and assert the schedule
//! invariants exactly. The runtime translates its decisions
//! ([`Supervisor::due_probes`]) into real packets: a root summary for a
//! publisher session (inviting the peer back through the summary-descent
//! recovery path), a receiver report for a subscriber session.
//!
//! The probe schedule reuses the protocol's own backoff contract
//! (`crate::reliability`, PR 5): the `n`-th re-probe waits
//! `base * 2^min(n, 4)` since the previous one, plus a jitter of at most
//! a quarter of that gap — identical in shape to the receiver's
//! re-request backoff in [`crate::receiver`], so one analysis covers
//! both.
//!
//! Nothing here is O(sessions) per call. Probe deadlines live in a
//! [`DeadlineIndex`] whose entries are lower bounds: traffic pushes a
//! healthy session's deadline *later*, so [`Supervisor::heard`] — which
//! runs per datagram batch — leaves the index alone, and
//! [`Supervisor::due_probes`] re-checks each entry that surfaces against
//! the session's real `next_probe`, re-arming the ones that were only
//! early. The active-session count is kept at the transitions that change
//! it (register, crash, death, heal) instead of being recounted.

use super::pacing::DeadlineIndex;
use ss_netsim::{SimDuration, SimRng, SimTime};

/// The capped exponential backoff schedule shared by re-probes and the
/// receiver's repair re-requests: gap `n` is `base * 2^min(n, 4)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffSchedule {
    base: SimDuration,
}

impl BackoffSchedule {
    /// The exponent cap: gaps stop doubling after `2^4`.
    pub const CAP_SHIFT: u32 = 4;

    /// A schedule with the given base gap.
    pub fn new(base: SimDuration) -> Self {
        BackoffSchedule { base }
    }

    /// The base gap (attempt 0).
    pub fn base(&self) -> SimDuration {
        self.base
    }

    /// The minimum gap before the `n`-th re-probe:
    /// `base * 2^min(n, 4)`.
    pub fn gap(&self, n: u32) -> SimDuration {
        SimDuration::from_micros(
            self.base
                .as_micros()
                .saturating_mul(1u64 << n.min(Self::CAP_SHIFT)),
        )
    }

    /// The capped maximum gap (`16 * base`) — probing never slows below
    /// this, so a healed peer is re-detected within a bounded interval.
    pub fn max_gap(&self) -> SimDuration {
        self.gap(Self::CAP_SHIFT)
    }

    /// The largest jitter added to gap `n` (a quarter of the gap,
    /// mirroring the receiver's re-request jitter).
    pub fn jitter_bound(&self, n: u32) -> SimDuration {
        SimDuration::from_micros(self.gap(n).as_micros() / 4)
    }
}

/// Supervisor tuning.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Silence longer than this marks a session *suspect* and starts the
    /// probe schedule.
    pub suspect_after: SimDuration,
    /// The probe backoff schedule.
    pub backoff: BackoffSchedule,
    /// After this many unanswered probes the session is declared *dead*
    /// (it keeps being probed at the capped gap — soft state means a
    /// dead peer can always come back — but it leaves the active-session
    /// gauge).
    pub dead_after_probes: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            suspect_after: SimDuration::from_secs(2),
            backoff: BackoffSchedule::new(SimDuration::from_millis(250)),
            dead_after_probes: 8,
        }
    }
}

/// Liveness of one supervised session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Liveness {
    /// Heard from recently.
    Healthy,
    /// Silent past the threshold; being probed.
    Suspect,
    /// Unanswered past [`SupervisorConfig::dead_after_probes`] probes.
    Dead,
    /// Administratively crashed (churn); not probed until rejoin.
    Crashed,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    last_heard: SimTime,
    /// Probes sent since last heard (0 = healthy).
    probes: u32,
    /// When the next probe fires (meaningful once suspect).
    next_probe: SimTime,
    /// When the current outage began (first missed deadline).
    suspect_since: SimTime,
    crashed: bool,
}

impl Entry {
    /// Whether the entry counts toward [`Supervisor::active`].
    fn is_active(&self, cfg: &SupervisorConfig) -> bool {
        !self.crashed && self.probes < cfg.dead_after_probes
    }
}

/// Counters the runtime folds into the metrics registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Probes issued.
    pub probes: u64,
    /// Suspect→healthy transitions (outages healed).
    pub heals: u64,
    /// Suspect→dead transitions.
    pub deaths: u64,
}

/// The supervisor proper: one `Entry` per registered session, indexed
/// by session id.
#[derive(Debug)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    entries: Vec<Option<Entry>>,
    /// Lower bounds on every supervised session's `next_probe`.
    probe_index: DeadlineIndex,
    /// Entries for which [`Entry::is_active`] holds.
    active: usize,
    rng: SimRng,
    stats: SupervisorStats,
}

impl Supervisor {
    /// A supervisor with its own jitter stream.
    pub fn new(cfg: SupervisorConfig, rng: SimRng) -> Self {
        Supervisor {
            cfg,
            entries: Vec::new(),
            probe_index: DeadlineIndex::new(),
            active: 0,
            rng,
            stats: SupervisorStats::default(),
        }
    }

    /// The configured schedule.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Registers session `sid` as healthy as of `now`.
    pub fn register(&mut self, sid: u32, now: SimTime) {
        self.deregister(sid);
        let idx = sid as usize;
        if self.entries.len() <= idx {
            self.entries.resize(idx + 1, None);
        }
        let e = Entry {
            last_heard: now,
            probes: 0,
            next_probe: now + self.cfg.suspect_after,
            suspect_since: now,
            crashed: false,
        };
        self.active += usize::from(e.is_active(&self.cfg));
        self.probe_index.arm(sid, e.next_probe);
        self.entries[idx] = Some(e);
    }

    /// Removes session `sid` from supervision.
    pub fn deregister(&mut self, sid: u32) {
        if let Some(slot) = self.entries.get_mut(sid as usize) {
            if let Some(e) = slot.take() {
                self.active -= usize::from(e.is_active(&self.cfg));
                self.probe_index.vacate(sid);
            }
        }
    }

    /// Marks `sid` administratively crashed (churn): probing stops until
    /// [`Supervisor::register`] is called again on rejoin.
    pub fn crash(&mut self, sid: u32) {
        if let Some(Some(e)) = self.entries.get_mut(sid as usize) {
            self.active -= usize::from(e.is_active(&self.cfg));
            e.crashed = true;
            self.probe_index.vacate(sid);
        }
    }

    /// Records traffic from `sid`'s peer at `now`. Returns the outage
    /// length when this heals a suspect/dead session (the runtime feeds
    /// it to the MTTR sketch), `None` when the session was healthy.
    ///
    /// A healthy session's probe deadline only moves later here, so the
    /// index is not touched. A heal restarts the silence threshold, which
    /// can land before the backed-off probe that was armed; only then is
    /// an (earlier) entry pushed — at most one per outage.
    pub fn heard(&mut self, sid: u32, now: SimTime) -> Option<SimDuration> {
        let e = match self.entries.get_mut(sid as usize) {
            Some(Some(e)) if !e.crashed => e,
            _ => return None,
        };
        let outage = (e.probes > 0).then(|| now.saturating_since(e.suspect_since));
        let was_active = e.is_active(&self.cfg);
        e.last_heard = now.max(e.last_heard);
        e.probes = 0;
        e.next_probe = e.last_heard + self.cfg.suspect_after;
        if outage.is_some() {
            self.stats.heals += 1;
            // Only a dead session had left the count.
            self.active += usize::from(!was_active && e.is_active(&self.cfg));
            self.probe_index.arm(sid, e.next_probe);
        }
        outage
    }

    /// The sessions whose probe deadline has arrived at `now`, in
    /// ascending id order, advancing each one's schedule: probe `n`
    /// re-arms the deadline to `now + gap(n) + jitter` where
    /// `jitter <= gap(n)/4`. The invariant the proptest pins: for a fixed
    /// session, consecutive returns are never closer together than the
    /// gap its attempt count demanded — a healed-then-silent-again
    /// session restarts from the base gap, never from mid-schedule.
    ///
    /// Costs O(entries surfacing), not O(sessions): an entry that
    /// surfaces before the session's real deadline (traffic moved it
    /// later) is re-armed without a probe.
    pub fn due_probes(&mut self, now: SimTime) -> Vec<u32> {
        let mut due = Vec::new();
        while let Some(sid) = self.probe_index.pop_due(now) {
            let next_probe = self.entries[sid as usize]
                .as_ref()
                .expect("armed entries are registered")
                .next_probe;
            if now < next_probe {
                self.probe_index.arm(sid, next_probe);
            } else {
                due.push(sid);
            }
        }
        // Jitter is drawn in id order, whatever order deadlines surfaced
        // in, so a seed fixes the schedule.
        due.sort_unstable();
        for &sid in &due {
            let e = self.entries[sid as usize]
                .as_mut()
                .expect("armed entries are registered");
            if e.probes == 0 {
                // First missed deadline: the outage clock starts at the
                // silence threshold, not at this (possibly late) poll.
                e.suspect_since = e.last_heard + self.cfg.suspect_after;
            }
            let n = e.probes;
            let gap = self.cfg.backoff.gap(n);
            let jitter_cap = self.cfg.backoff.jitter_bound(n).as_micros();
            let jitter = if jitter_cap == 0 {
                SimDuration::ZERO
            } else {
                SimDuration::from_micros(self.rng.below(jitter_cap + 1))
            };
            e.next_probe = now + gap + jitter;
            e.probes += 1;
            if e.probes == self.cfg.dead_after_probes {
                self.stats.deaths += 1;
                self.active -= 1;
            }
            self.stats.probes += 1;
            self.probe_index.arm(sid, e.next_probe);
        }
        due
    }

    /// The liveness of `sid` at `now`.
    pub fn liveness(&self, sid: u32, now: SimTime) -> Liveness {
        match self.entries.get(sid as usize) {
            Some(Some(e)) => {
                if e.crashed {
                    Liveness::Crashed
                } else if e.probes >= self.cfg.dead_after_probes {
                    Liveness::Dead
                } else if e.probes > 0
                    || now.saturating_since(e.last_heard) > self.cfg.suspect_after
                {
                    Liveness::Suspect
                } else {
                    Liveness::Healthy
                }
            }
            _ => Liveness::Crashed,
        }
    }

    /// Number of registered sessions currently healthy or suspect (the
    /// `runtime.sessions.active` gauge: dead and crashed sessions are
    /// out). A running count, kept at the transitions.
    pub fn active(&self) -> usize {
        self.active
    }

    /// A lower bound on the earliest probe deadline over all live
    /// sessions — the supervisor's contribution to the runtime's wake-up
    /// time. Waking at it and calling [`Supervisor::due_probes`] is always
    /// safe: an entry that was only early is re-armed there.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.probe_index.next()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SupervisorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full scan the deadline index replaced, kept as the oracle: the
    /// sessions a call to `due_probes(now)` must return.
    fn scan_due(s: &Supervisor, now: SimTime) -> Vec<u32> {
        s.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_some_and(|e| !e.crashed && now >= e.next_probe))
            .map(|(sid, _)| sid as u32)
            .collect()
    }

    /// `active()` recounted from each session's liveness.
    fn scan_active(s: &Supervisor, now: SimTime) -> usize {
        (0..s.entries.len() as u32)
            .filter(|&sid| matches!(s.liveness(sid, now), Liveness::Healthy | Liveness::Suspect))
            .count()
    }

    fn sup(base_ms: u64, suspect_ms: u64) -> Supervisor {
        Supervisor::new(
            SupervisorConfig {
                suspect_after: SimDuration::from_millis(suspect_ms),
                backoff: BackoffSchedule::new(SimDuration::from_millis(base_ms)),
                dead_after_probes: 6,
            },
            SimRng::new(7),
        )
    }

    #[test]
    fn schedule_caps_at_two_to_the_four() {
        let b = BackoffSchedule::new(SimDuration::from_millis(100));
        assert_eq!(b.gap(0), SimDuration::from_millis(100));
        assert_eq!(b.gap(1), SimDuration::from_millis(200));
        assert_eq!(b.gap(4), SimDuration::from_millis(1600));
        assert_eq!(b.gap(5), SimDuration::from_millis(1600));
        assert_eq!(b.gap(40), b.max_gap());
    }

    #[test]
    fn silence_escalates_with_backoff() {
        let mut s = sup(100, 1000);
        s.register(0, SimTime::ZERO);
        // Quiet until the suspect threshold.
        assert!(s.due_probes(SimTime::from_millis(999)).is_empty());
        let t1 = SimTime::from_millis(1000);
        assert_eq!(s.due_probes(t1), vec![0]);
        assert_eq!(s.liveness(0, t1), Liveness::Suspect);
        // The next probe waits at least gap(0)=100ms, at most 125ms.
        let d = s.next_deadline().unwrap();
        assert!(d >= t1 + SimDuration::from_millis(100));
        assert!(d <= t1 + SimDuration::from_millis(125));
    }

    #[test]
    fn heal_resets_backoff_and_reports_outage() {
        let mut s = sup(100, 1000);
        s.register(0, SimTime::ZERO);
        let t1 = SimTime::from_millis(1000);
        s.due_probes(t1);
        s.due_probes(SimTime::from_millis(3000));
        let outage = s.heard(0, SimTime::from_millis(3500)).unwrap();
        // The outage clock starts at the silence threshold (t=1000).
        assert_eq!(outage, SimDuration::from_millis(2500));
        assert_eq!(s.liveness(0, SimTime::from_millis(3500)), Liveness::Healthy);
        // A fresh outage restarts from the base gap, not mid-schedule.
        let t2 = SimTime::from_millis(3500) + SimDuration::from_millis(1000);
        assert_eq!(s.due_probes(t2), vec![0]);
    }

    #[test]
    fn healthy_heard_returns_none() {
        let mut s = sup(100, 1000);
        s.register(0, SimTime::ZERO);
        assert!(s.heard(0, SimTime::from_millis(10)).is_none());
        assert_eq!(s.stats().heals, 0);
    }

    #[test]
    fn dead_after_configured_probes() {
        let mut s = sup(10, 100);
        s.register(0, SimTime::ZERO);
        let mut t = SimTime::from_millis(100);
        for _ in 0..6 {
            assert_eq!(s.due_probes(t), vec![0]);
            t += SimDuration::from_secs(1);
        }
        assert_eq!(s.liveness(0, t), Liveness::Dead);
        assert_eq!(s.active(), 0);
        assert_eq!(s.stats().deaths, 1);
        // Dead sessions keep being probed (soft state: they may return).
        assert_eq!(s.due_probes(t), vec![0]);
        // And a late heal revives them.
        assert!(s.heard(0, t + SimDuration::from_millis(1)).is_some());
        assert_eq!(
            s.liveness(0, t + SimDuration::from_millis(1)),
            Liveness::Healthy
        );
    }

    #[test]
    fn heal_from_a_long_backoff_rearms_at_the_silence_threshold() {
        // gap(4) = 1600 ms outlasts the 200 ms threshold a heal restarts.
        let mut s = sup(100, 200);
        s.register(0, SimTime::ZERO);
        let mut t = SimTime::from_millis(200);
        for _ in 0..5 {
            assert_eq!(s.due_probes(t), vec![0]);
            t = s.next_deadline().unwrap();
        }
        let healed = t - SimDuration::from_millis(1500);
        assert!(s.heard(0, healed).is_some());
        assert_eq!(
            s.next_deadline(),
            Some(healed + SimDuration::from_millis(200))
        );
        assert_eq!(
            s.due_probes(healed + SimDuration::from_millis(200)),
            vec![0]
        );
    }

    #[test]
    fn crash_stops_probing_until_reregister() {
        let mut s = sup(10, 100);
        s.register(0, SimTime::ZERO);
        s.crash(0);
        assert!(s.due_probes(SimTime::from_secs(10)).is_empty());
        assert!(s.heard(0, SimTime::from_secs(10)).is_none());
        assert_eq!(s.liveness(0, SimTime::from_secs(10)), Liveness::Crashed);
        s.register(0, SimTime::from_secs(20));
        assert_eq!(s.liveness(0, SimTime::from_secs(20)), Liveness::Healthy);
    }

    proptest! {
        /// The indexed supervisor against the full scans it replaced,
        /// over any interleaving of register / heard / due_probes / crash
        /// on a few sessions: `due_probes` returns exactly what the scan
        /// finds, `active` is the recount, and the per-datagram path
        /// (`heard` on a healthy session) never touches the index.
        #[test]
        fn index_agrees_with_the_full_scan(
            ops in prop::collection::vec((0u8..8, 0u32..6, 1u64..300), 1..300),
            seed in any::<u64>(),
        ) {
            let cfg = SupervisorConfig {
                suspect_after: SimDuration::from_millis(200),
                backoff: BackoffSchedule::new(SimDuration::from_millis(50)),
                dead_after_probes: 3,
            };
            let mut s = Supervisor::new(cfg, SimRng::new(seed));
            let mut now = SimTime::ZERO;
            for (op, sid, dt_ms) in ops {
                match op {
                    0 => s.register(sid, now),
                    1 => s.crash(sid),
                    2 | 3 => {
                        let before = s.probe_index.len();
                        let healed = s.heard(sid, now).is_some();
                        let grown = s.probe_index.len().saturating_sub(before);
                        prop_assert!(grown <= usize::from(healed), "heard grew the index");
                    }
                    _ => {
                        now += SimDuration::from_millis(dt_ms);
                        let want = scan_due(&s, now);
                        prop_assert_eq!(s.due_probes(now), want);
                        prop_assert!(scan_due(&s, now).is_empty());
                    }
                }
                prop_assert_eq!(s.active(), scan_active(&s, now));
                let supervised = s.entries.iter().flatten().filter(|e| !e.crashed).count();
                prop_assert_eq!(s.probe_index.armed(), supervised);
                prop_assert!(s.probe_index.len() <= 2 * supervised + DeadlineIndex::SLACK);
                let first = s.entries.iter().flatten().filter(|e| !e.crashed).map(|e| e.next_probe).min();
                if let Some(first) = first {
                    prop_assert!(s.next_deadline().is_some_and(|t| t <= first));
                }
            }
        }
    }
}
