//! The safety and convergence properties the explorer asserts.
//!
//! Per-step invariants (checked after every [`crate::model::Action`]):
//!
//! - **I1 monotone sequence** — data-channel sequence numbers strictly
//!   increase across everything the sender transmits.
//! - **I2 no version regression** — a delivery never replaces a replica
//!   entry with an older version (stale never overwrites fresh).
//! - **I3 bounded backoff** — no outstanding repair request ever
//!   requires a gap beyond `16 x repair_backoff`, the capped maximum.
//! - **I4 endpoint self-checks** — the sender's queue/dedup-set
//!   bijection and the receiver's pending/pending-index bijection hold.
//! - **I7 no pending NACK after install** — once a key's data is in the
//!   replica, no NACK for it may remain scheduled (the livelock seed).
//! - **I8 TTL respected** — the expiry sweep never removes an entry
//!   whose deadline is still in the future.
//!
//! Liveness is checked at quiescent states by [`drain_converges`]:
//! from any reachable state with an empty wire, running the repair
//! conversation alone (root summaries, digest descent, NACK promotion,
//! hot retransmission — deliberately *not* the cold cycle, which would
//! mask a broken repair path) must, within a bounded number of rounds,
//! make every replica exactly equal to the publisher's live set (**I5
//! convergence**) and then produce a round with no repair traffic at
//! all (**I6 repair quiescence**).

use crate::model::Model;
use softstate::Key;
use ss_netsim::SimDuration;
use sstp::receiver::SstpReceiver;
use sstp::wire::Packet;
use std::collections::BTreeMap;
use std::fmt;

/// Invariant identifiers, used in reports and counterexamples.
pub mod inv {
    /// Monotone data-channel sequence numbers.
    pub const MONOTONE_SEQ: &str = "I1-monotone-seq";
    /// Stale data never overwrites fresh.
    pub const VERSION_REGRESSION: &str = "I2-version-regression";
    /// Repair backoff stays within the 16x cap.
    pub const BACKOFF_CAP: &str = "I3-backoff-cap";
    /// Endpoint internal bijections hold.
    pub const SELF_CHECK: &str = "I4-self-check";
    /// Quiescent drain reaches exact replica convergence.
    pub const CONVERGENCE: &str = "I5-convergence";
    /// A consistent group stops generating repair traffic.
    pub const REPAIR_QUIESCENCE: &str = "I6-repair-quiescence";
    /// No NACK stays pending for data already in hand.
    pub const PENDING_NACK: &str = "I7-pending-nack-after-install";
    /// The expiry sweep honors per-entry deadlines.
    pub const TTL: &str = "I8-ttl-early-expiry";
}

/// One invariant violation, carrying enough detail to read the failure
/// without re-running it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke (one of the [`inv`] constants).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// I1: `seq` on every transmitted data-channel packet must strictly
/// increase.
pub(crate) fn check_monotone_seq(last: &mut Option<u64>, pkt: &Packet) -> Result<(), Violation> {
    let Some(seq) = pkt.data_seq() else {
        return Ok(());
    };
    if let Some(prev) = *last {
        if seq <= prev {
            return Err(Violation {
                invariant: inv::MONOTONE_SEQ,
                detail: format!("sender transmitted seq {seq} after seq {prev}"),
            });
        }
    }
    *last = Some(seq);
    Ok(())
}

/// I2: a delivery may add or upgrade a replica entry, never downgrade
/// it.
pub(crate) fn check_no_version_regression(
    rx: usize,
    key: Key,
    before: Option<u64>,
    after: Option<u64>,
) -> Result<(), Violation> {
    if let (Some(b), Some(a)) = (before, after) {
        if a < b {
            return Err(Violation {
                invariant: inv::VERSION_REGRESSION,
                detail: format!("rx{rx} key {key:?}: version {b} regressed to {a}"),
            });
        }
    }
    Ok(())
}

/// I7: once a whole ADU is installed, no NACK for its key may remain
/// scheduled.
pub(crate) fn check_no_pending_nack_after_install(
    rx: &SstpReceiver,
    idx: usize,
    key: Key,
) -> Result<(), Violation> {
    if rx.has_pending_nack(key) {
        return Err(Violation {
            invariant: inv::PENDING_NACK,
            detail: format!("rx{idx} still has a pending NACK for installed key {key:?}"),
        });
    }
    Ok(())
}

/// I8: every entry whose deadline lay in the future before the sweep
/// must still be present after it.
pub(crate) fn check_ttl_respected(
    rx: &SstpReceiver,
    idx: usize,
    now: ss_netsim::SimTime,
    safe: &[Key],
) -> Result<(), Violation> {
    for &key in safe {
        if rx.replica().get(key).is_none() {
            return Err(Violation {
                invariant: inv::TTL,
                detail: format!(
                    "rx{idx} expired key {key:?} at t={}us before its deadline",
                    now.as_micros()
                ),
            });
        }
    }
    Ok(())
}

/// I3 + I4, run after every action: endpoint self-checks and the
/// backoff cap.
pub(crate) fn post_checks(m: &Model) -> Result<(), Violation> {
    if let Err(e) = m.sender.self_check() {
        return Err(Violation {
            invariant: inv::SELF_CHECK,
            detail: format!("sender: {e}"),
        });
    }
    let cap = SimDuration::from_micros(m.scope.repair_backoff.as_micros().saturating_mul(16));
    for (i, rx) in m.receivers.iter().enumerate() {
        if let Err(e) = rx.self_check() {
            return Err(Violation {
                invariant: inv::SELF_CHECK,
                detail: format!("rx{i}: {e}"),
            });
        }
        let gap = rx.max_required_gap();
        if gap > cap {
            return Err(Violation {
                invariant: inv::BACKOFF_CAP,
                detail: format!(
                    "rx{i} requires a {}us repair gap, cap is {}us",
                    gap.as_micros(),
                    cap.as_micros()
                ),
            });
        }
    }
    Ok(())
}

/// The per-receiver replica as a comparable map.
fn replica_map(rx: &SstpReceiver) -> BTreeMap<Key, u64> {
    rx.replica()
        .entries()
        .map(|(k, e)| (*k, e.value.version))
        .collect()
}

impl Model {
    /// Whether every replica exactly equals the publisher's live set
    /// (same keys, same versions).
    pub(crate) fn is_converged(&self) -> bool {
        let live: BTreeMap<Key, u64> = self
            .sender
            .table()
            .live()
            .map(|r| (r.key, r.value.version))
            .collect();
        self.receivers.iter().all(|rx| replica_map(rx) == live)
    }

    /// A one-line description of how the replicas diverge from the
    /// publisher, for non-convergence reports.
    pub(crate) fn divergence_report(&self) -> String {
        let live: BTreeMap<Key, u64> = self
            .sender
            .table()
            .live()
            .map(|r| (r.key, r.value.version))
            .collect();
        let mut parts = Vec::new();
        for (i, rx) in self.receivers.iter().enumerate() {
            let have = replica_map(rx);
            let missing: Vec<_> = live.keys().filter(|k| !have.contains_key(k)).collect();
            let extra: Vec<_> = have.keys().filter(|k| !live.contains_key(k)).collect();
            let stale: Vec<_> = live
                .iter()
                .filter(|(k, v)| have.get(k).is_some_and(|h| h != *v))
                .map(|(k, _)| k)
                .collect();
            if !missing.is_empty() || !extra.is_empty() || !stale.is_empty() {
                parts.push(format!(
                    "rx{i}: missing {missing:?}, extra {extra:?}, stale {stale:?}, \
                     {} feedback pending",
                    rx.outstanding_feedback()
                ));
            } else if rx.outstanding_feedback() > 0 {
                parts.push(format!(
                    "rx{i}: consistent but {} feedback still pending",
                    rx.outstanding_feedback()
                ));
            }
        }
        if parts.is_empty() {
            "replicas consistent but repair traffic never quiesced".to_string()
        } else {
            parts.join("; ")
        }
    }

    /// One repair round: advance past every (capped) backoff gap, flush
    /// the wire, announce the root summary, let receivers answer, let
    /// the sender answer back, and pump the hot queue dry. The cold
    /// cycle is deliberately never pumped — convergence must come from
    /// the repair path alone.
    fn drain_round(&mut self) -> Result<(), Violation> {
        self.now = self.now
            + SimDuration::from_micros(self.scope.repair_backoff.as_micros().saturating_mul(17))
            + self.scope.tick;
        self.flush_wire()?;
        let summary = self.sender.summary_packet();
        self.emit(Some(summary))?;
        self.flush_wire()?;
        for rx in 0..self.receivers.len() {
            self.poll_feedback(rx)?;
        }
        self.flush_wire()?;
        // Answering queries enqueues node summaries; promoting NACKs
        // enqueues data. Pump until the foreground queue is dry.
        loop {
            let pkt = self.sender.next_hot_packet();
            if !self.emit(pkt)? {
                return Ok(());
            }
            self.flush_wire()?;
        }
    }

    /// Delivers everything currently in flight, oldest first.
    fn flush_wire(&mut self) -> Result<(), Violation> {
        loop {
            let mut progressed = false;
            for rx in 0..self.receivers.len() {
                if let Some(pkt) = self.data_flights[rx].pop_front() {
                    self.deliver_data(rx, pkt)?;
                    progressed = true;
                }
                if let Some(pkt) = self.fb_flights[rx].pop_front() {
                    self.deliver_feedback(pkt)?;
                    progressed = true;
                }
            }
            if !progressed {
                return Ok(());
            }
        }
    }
}

/// The quiescent-drain check: clones the state and runs repair rounds
/// until the group is exactly convergent *and* a whole round passes
/// with no repair traffic, or the round budget runs out.
pub fn drain_converges(model: &Model) -> Result<(), Violation> {
    let mut m = model.clone();
    let rounds = m.scope().drain_rounds;
    for _ in 0..rounds {
        let before: Vec<(u64, u64)> = m
            .receivers
            .iter()
            .map(|rx| {
                let s = rx.stats();
                (s.queries_sent, s.nacks_sent)
            })
            .collect();
        m.drain_round()?;
        let after: Vec<(u64, u64)> = m
            .receivers
            .iter()
            .map(|rx| {
                let s = rx.stats();
                (s.queries_sent, s.nacks_sent)
            })
            .collect();
        let quiet = before == after
            && m.is_quiescent()
            && m.sender.hot_backlog() == 0
            && m.receivers.iter().all(|rx| rx.outstanding_feedback() == 0);
        if quiet {
            return if m.is_converged() {
                Ok(())
            } else {
                Err(Violation {
                    invariant: inv::CONVERGENCE,
                    detail: format!(
                        "repair went quiet without converging: {}",
                        m.divergence_report()
                    ),
                })
            };
        }
    }
    let invariant = if m.is_converged() {
        inv::REPAIR_QUIESCENCE
    } else {
        inv::CONVERGENCE
    };
    Err(Violation {
        invariant,
        detail: format!(
            "no quiet convergent round after {rounds} repair rounds: {}",
            m.divergence_report()
        ),
    })
}
