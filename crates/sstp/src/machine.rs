//! What the `ss-verify` explorer needs from the SSTP endpoints, beyond
//! their public methods.
//!
//! Both endpoint machines ([`crate::sender::SstpSender`] and
//! [`crate::receiver::SstpReceiver`]) are sans-I/O: they never read a
//! clock (time only enters as a `now` argument — see `ss_netsim::Clock`
//! for what drivers use), never touch a channel, and never perform I/O;
//! lint rule D005 enforces this mechanically. Their public methods
//! (`publish`, `on_packet`, `poll_feedback`, …) are the one API, called
//! alike by the session harness (`crate::session`), the live runtime
//! (`crate::runtime`) and the exhaustive explorer (`ss-verify`), so the
//! explorer checks the operations production runs.
//!
//! This module holds the explorer's side of that contract: the
//! [`StateHasher`] the machines fingerprint their semantic state with
//! (pure machines make states clonable and hashable, which is what makes
//! the search tractable), the [`MachineError`] their self-checks report,
//! and the seeded defects ([`TxMutations`], [`RxMutations`]) the
//! explorer's own test suite must catch.

/// A machine invariant violation found by a self-check, as
/// `(what, detail)`. Produced by [`crate::sender::SstpSender::self_check`]
/// and [`crate::receiver::SstpReceiver::self_check`]; the `ss-verify`
/// explorer treats any of these as a counterexample.
pub type MachineError = String;

/// An FNV-1a 64 accumulator for protocol-state fingerprints.
///
/// The endpoint machines hash their *semantic* state — tables, queues,
/// pending feedback, reassembly edges — and deliberately exclude
/// monotone counters (wire sequence numbers, statistics): including
/// those would make every reachable state unique and defeat the
/// explorer's visited-state deduplication.
#[derive(Clone, Copy, Debug)]
pub struct StateHasher(u64);

impl StateHasher {
    /// A fresh accumulator at the FNV-1a offset basis.
    pub fn new() -> Self {
        StateHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one u64 into the hash.
    pub fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds raw bytes into the hash.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The accumulated hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for StateHasher {
    fn default() -> Self {
        StateHasher::new()
    }
}

/// Seeded protocol defects for mutation-testing the `ss-verify` explorer.
///
/// All flags default to off, in which case the machines behave exactly as
/// shipped (the session harness never sets them). Each flag re-introduces
/// one plausible implementation bug; the explorer's test suite asserts
/// that every one of them is caught by an invariant.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxMutations {
    /// Drop the NACK → hot-queue promotion edge (Figure 7's Cold → Hot).
    pub drop_promotions: bool,
    /// Skip hot-queue dedup: every enqueue appends, even when queued.
    pub no_queue_dedup: bool,
    /// Freeze the root summary digest at its first emitted value.
    pub frozen_summary_digest: bool,
    /// Reuse sequence number 0 for every packet (non-monotone seq).
    pub reuse_seq: bool,
}

/// Seeded receiver defects (see [`TxMutations`]).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RxMutations {
    /// Accept stale fragments: an older version overwrites a newer one.
    pub accept_stale: bool,
    /// Remove the exponential-backoff cap (2^n instead of 2^min(n,4)).
    pub no_backoff_cap: bool,
    /// Keep a pending NACK alive after the data it asked for arrives.
    pub keep_pending_on_install: bool,
    /// Expire entries at half their TTL (off-by-one-style early expiry).
    pub expire_early: bool,
}
