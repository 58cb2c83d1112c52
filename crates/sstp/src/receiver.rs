//! The SSTP receiver endpoint.
//!
//! Receivers hold a soft-state replica (entries expire without refresh)
//! and a mirror of the sender's namespace built from received data and
//! summaries. Loss recovery is the §6.2 recursive descent: a root-summary
//! digest mismatch triggers a repair query; the sender's node summary is
//! compared child by child; mismatched interiors are queried one level
//! deeper and mismatched or missing leaves are NACKed. Repair for
//! subtrees the application declared no interest in is skipped entirely
//! ("a receiver may refrain from requesting further repair along a
//! branch if there is no application-level interest").
//!
//! Feedback is scheduled, not sent inline: every query/NACK gets a fire
//! time (immediate for unicast, a random slot for multicast) and can be
//! *damped* by overhearing another receiver's equivalent request — the
//! slotting-and-damping scheme the paper imports from SRM/wb. The
//! session harness polls [`SstpReceiver::poll_feedback`] at fire times.

// D005 (DESIGN.md §8): the machine is sans-I/O; `clippy.toml` bans the
// file, socket and process types workspace-wide.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use crate::digest::HashAlgorithm;
use crate::machine::{MachineError, RxMutations, StateHasher};
use crate::namespace::{MetaTag, Namespace, Path};
use crate::reports::ReceiverReporter;
use crate::wire::{NackPacket, Packet, RepairQueryPacket};
use softstate::{Key, SubscriberTable, Value};
use ss_netsim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which content classes this receiver repairs.
#[derive(Clone, Debug)]
pub enum Interest {
    /// Repair everything.
    All,
    /// Repair only ADUs/subtrees carrying one of these tags.
    Tags(Vec<MetaTag>),
}

impl Interest {
    /// Whether this receiver wants content tagged `tag`.
    pub fn wants(&self, tag: MetaTag) -> bool {
        match self {
            Interest::All => true,
            Interest::Tags(ts) => ts.contains(&tag),
        }
    }
}

/// When scheduled feedback fires.
#[derive(Clone, Copy, Debug)]
pub enum FeedbackTiming {
    /// Fire as soon as the session polls (unicast).
    Immediate,
    /// Fire after a uniform random delay in `[0, window)` so that in a
    /// multicast group one receiver's request can suppress the others'.
    Slotted {
        /// The slot window.
        window: SimDuration,
    },
}

/// Receiver configuration.
#[derive(Clone, Debug)]
pub struct ReceiverConfig {
    /// This receiver's id (appears in reports).
    pub id: u32,
    /// Soft-state TTL for replica entries.
    pub ttl: SimDuration,
    /// Summary hash (must match the sender's).
    pub algo: HashAlgorithm,
    /// Interest scoping.
    pub interest: Interest,
    /// Whether feedback (queries + NACKs) is enabled.
    pub feedback: bool,
    /// Minimum interval between repair attempts for the same node/key.
    pub repair_backoff: SimDuration,
    /// Feedback scheduling policy.
    pub timing: FeedbackTiming,
}

impl ReceiverConfig {
    /// A sensible unicast receiver: interested in everything, immediate
    /// feedback, 1 s backoff, 30 s TTL.
    pub fn unicast(id: u32, algo: HashAlgorithm) -> Self {
        ReceiverConfig {
            id,
            ttl: SimDuration::from_secs(30),
            algo,
            interest: Interest::All,
            feedback: true,
            repair_backoff: SimDuration::from_secs(1),
            timing: FeedbackTiming::Immediate,
        }
    }
}

/// A repair request awaiting its fire time.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum FbKind {
    Query(Path),
    Nack(Key),
}

/// Counters exposed for experiments and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Data packets received.
    pub data_rx: u64,
    /// Data packets that changed the replica (new key or newer version).
    pub data_applied: u64,
    /// Root summaries received.
    pub root_summaries_rx: u64,
    /// Node summaries received.
    pub node_summaries_rx: u64,
    /// NACK packets sent.
    pub nacks_sent: u64,
    /// NACKed keys sent (one packet may carry several).
    pub nacked_keys: u64,
    /// Repair queries sent.
    pub queries_sent: u64,
    /// Own pending requests damped by overheard feedback.
    pub damped: u64,
    /// Repair skipped because the content class is uninteresting.
    pub uninterested_skips: u64,
    /// Replica entries expired by the soft-state timer.
    pub expired: u64,
    /// Fragments that advanced a reassembly right edge.
    pub fragments_advanced: u64,
    /// Data packets and summary entries that contradicted the structure
    /// the mirror already holds (another key in an occupied slot, an ADU
    /// where an interior sits, a path through a leaf) and were skipped.
    pub structure_conflicts: u64,
}

/// The SSTP receiver endpoint.
///
/// Sans-I/O, like the sender: feed it wire packets with
/// [`SstpReceiver::on_packet`], drain repair feedback with
/// [`SstpReceiver::poll_feedback`], and run the soft-state timer with
/// [`SstpReceiver::expire`]. What a call did shows in the replica and
/// the counters:
///
/// ```
/// use sstp::digest::HashAlgorithm;
/// use sstp::namespace::MetaTag;
/// use sstp::receiver::{ReceiverConfig, SstpReceiver};
/// use sstp::sender::SstpSender;
/// use ss_netsim::{SimRng, SimTime};
///
/// let mut tx = SstpSender::new(HashAlgorithm::Fnv64, 1000);
/// let mut rx = SstpReceiver::new(
///     ReceiverConfig::unicast(0, HashAlgorithm::Fnv64),
///     SimRng::new(7),
/// );
///
/// let key = tx.publish(SimTime::ZERO, tx.root(), MetaTag(0));
/// let pkt = tx.next_hot_packet().unwrap();
/// rx.on_packet(SimTime::from_secs(1), &pkt);
///
/// let entry = rx.replica().get(key).expect("installed");
/// assert_eq!(entry.value.version, 1);
/// assert_eq!(entry.first_received, SimTime::from_secs(1));
/// assert_eq!((rx.stats().data_rx, rx.stats().data_applied), (1, 1));
/// ```
#[derive(Clone)]
pub struct SstpReceiver {
    /// Fixed at construction, so clones share it: the `ss-verify` explorer
    /// clones every receiver once per transition.
    cfg: Arc<ReceiverConfig>,
    replica: SubscriberTable,
    mirror: Namespace,
    reporter: ReceiverReporter,
    /// Pending feedback, ordered by fire time (seq breaks ties).
    pending: BTreeMap<(SimTime, u64), FbKind>,
    /// Reverse index for cancellation/damping.
    pending_index: BTreeMap<FbKind, (SimTime, u64)>,
    /// Backoff bookkeeping: when each request was last issued (by us or
    /// an overheard peer).
    last_attempt: BTreeMap<FbKind, SimTime>,
    /// Unsatisfied issue count per request, driving exponential backoff:
    /// the required gap doubles per attempt (capped at 2^4 — deep enough
    /// to quench a retry storm during an outage, shallow enough that
    /// repair still progresses under sustained heavy channel loss) and
    /// resets when the request is satisfied by data or a summary
    /// response.
    attempts: BTreeMap<FbKind, u32>,
    /// Fragment reassembly: per key, the version being assembled and the
    /// contiguous right edge held so far.
    reasm: BTreeMap<Key, (u64, u32)>,
    next_seq: u64,
    rng: SimRng,
    stats: ReceiverStats,
    /// Seeded defects for mutation-testing `ss-verify` (all off in
    /// production; see [`RxMutations`]).
    muts: RxMutations,
}

impl SstpReceiver {
    /// Builds a receiver; `rng` drives slotted feedback delays.
    pub fn new(cfg: ReceiverConfig, rng: SimRng) -> Self {
        let replica = SubscriberTable::new(cfg.ttl);
        let mirror = Namespace::new(cfg.algo);
        let reporter = ReceiverReporter::new(cfg.id);
        SstpReceiver {
            cfg: Arc::new(cfg),
            replica,
            mirror,
            reporter,
            pending: BTreeMap::new(),
            pending_index: BTreeMap::new(),
            last_attempt: BTreeMap::new(),
            attempts: BTreeMap::new(),
            reasm: BTreeMap::new(),
            next_seq: 0,
            rng,
            stats: ReceiverStats::default(),
            muts: RxMutations::default(),
        }
    }

    /// Installs seeded protocol defects for mutation testing. Never used
    /// by the session harness; see [`RxMutations`].
    #[doc(hidden)]
    pub fn with_mutations(mut self, muts: RxMutations) -> Self {
        self.muts = muts;
        self
    }

    fn cancel(&mut self, kind: &FbKind) -> bool {
        if let Some(slot) = self.pending_index.remove(kind) {
            self.pending.remove(&slot);
            true
        } else {
            false
        }
    }

    /// The request succeeded (the data or the summary answer arrived):
    /// cancel any pending copy and reset its exponential backoff, so a
    /// fresh divergence starts a fresh conversation. Damping (an
    /// overheard peer copy) keeps the attempt count — the request is
    /// still outstanding, just delegated.
    fn satisfied(&mut self, kind: &FbKind) -> bool {
        self.attempts.remove(kind);
        self.cancel(kind)
    }

    /// The minimum interval the `n`-th unsatisfied re-request must wait
    /// since the last attempt: `repair_backoff * 2^min(n, 4)`. `n == 0`
    /// is the plain configured backoff (the pre-chaos behavior); the cap
    /// at 2^4 is deep enough to quench a retry storm during an outage,
    /// shallow enough that repair still progresses afterwards.
    fn required_gap(&self, n: u32) -> SimDuration {
        let shift = if self.muts.no_backoff_cap {
            // Defect: uncapped exponent — after a long partition the gap
            // grows past any bound and repair effectively stops.
            n.min(40)
        } else {
            n.min(4)
        };
        SimDuration::from_micros(
            self.cfg
                .repair_backoff
                .as_micros()
                .saturating_mul(1u64 << shift),
        )
    }

    /// The largest backoff gap any outstanding request currently
    /// requires. The `ss-verify` explorer bounds this against
    /// `16 * repair_backoff` (the capped maximum).
    pub fn max_required_gap(&self) -> SimDuration {
        self.attempts
            .values()
            .map(|&n| self.required_gap(n))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    fn schedule(&mut self, now: SimTime, kind: FbKind) {
        if !self.cfg.feedback {
            return;
        }
        if self.pending_index.contains_key(&kind) {
            return;
        }
        let n = self.attempts.get(&kind).copied().unwrap_or(0);
        let gap = self.required_gap(n);
        if let Some(&last) = self.last_attempt.get(&kind) {
            if now.saturating_since(last) < gap {
                return;
            }
        }
        let mut delay = match self.cfg.timing {
            FeedbackTiming::Immediate => SimDuration::ZERO,
            FeedbackTiming::Slotted { window } => {
                if window.is_zero() {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_micros(self.rng.below(window.as_micros().max(1)))
                }
            }
        };
        // Re-requests jitter within a quarter of the current gap so a
        // fleet of receivers recovering from the same partition does not
        // synchronize its retries. First attempts draw nothing: the
        // baseline (fault-free) random streams are untouched.
        if n > 0 && !gap.is_zero() {
            delay += SimDuration::from_micros(self.rng.below((gap.as_micros() / 4).max(1)));
        }
        let fire = now + delay;
        let slot = (fire, self.next_seq);
        self.next_seq += 1;
        self.pending.insert(slot, kind.clone());
        self.pending_index.insert(kind.clone(), slot);
        self.last_attempt.insert(kind.clone(), now);
        *self.attempts.entry(kind).or_insert(0) += 1;
    }

    /// Processes a packet heard on the data channel, or an overheard
    /// peer feedback packet (multicast damping).
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet) {
        if let Some(seq) = pkt.data_seq() {
            self.reporter.on_data_channel_packet(seq);
        }
        match pkt {
            Packet::Data(d) => {
                self.stats.data_rx += 1;
                if !self.cfg.interest.wants(d.tag) {
                    self.stats.uninterested_skips += 1;
                    return;
                }
                // Fragment reassembly: track the contiguous right edge of
                // the version being received; the replica only takes the
                // value once the whole ADU is in hand. A whole ADU for a
                // key with nothing in assembly is its own edge and leaves
                // no record.
                let contiguous = if d.is_whole() && !self.reasm.contains_key(&d.key) {
                    self.stats.fragments_advanced += u64::from(d.total_len > 0);
                    d.total_len
                } else {
                    let entry = self.reasm.entry(d.key).or_insert((d.version, 0));
                    if d.version > entry.0 {
                        // A newer version supersedes any partial assembly.
                        *entry = (d.version, 0);
                    } else if d.version < entry.0 {
                        if !self.muts.accept_stale {
                            return; // stale fragment of an old version
                        }
                        // Defect: a reordered old-version fragment restarts
                        // assembly at the stale version.
                        *entry = (d.version, 0);
                    }
                    if d.offset <= entry.1 && d.end() > entry.1 {
                        entry.1 = d.end();
                        self.stats.fragments_advanced += 1;
                    }
                    entry.1
                };
                if !self.mirror.mirror_adu(
                    &d.parent_path,
                    d.slot,
                    d.key,
                    d.version,
                    u64::from(contiguous),
                    d.tag,
                ) {
                    // The mirror holds something else there: installing
                    // the value would give the replica a key the mirror
                    // cannot account for.
                    self.stats.structure_conflicts += 1;
                    return;
                }
                if contiguous == d.total_len {
                    if self.muts.accept_stale
                        && self
                            .replica
                            .get(d.key)
                            .is_some_and(|e| e.value.version > d.version)
                    {
                        // Defect continued: force the stale value in, past
                        // the replica's own version guard.
                        self.replica.remove(d.key);
                    }
                    let changed = self.replica.apply(
                        now,
                        d.key,
                        Value {
                            version: d.version,
                            payload_len: d.total_len,
                        },
                    );
                    self.stats.data_applied += u64::from(changed);
                    self.reasm.remove(&d.key);
                    if !self.muts.keep_pending_on_install {
                        // Data in hand: a pending NACK for it is moot.
                        // (The mutation keeps it — a livelock where every
                        // repaired key is immediately re-requested.)
                        self.satisfied(&FbKind::Nack(d.key));
                    }
                }
            }
            Packet::RootSummary(rs) => {
                self.stats.root_summaries_rx += 1;
                if self.cfg.feedback {
                    // With a repair channel, the summary itself is the
                    // soft-state refresh: the publisher is alive, and any
                    // divergence (including withdrawals) will be
                    // reconciled by the digest descent rather than by
                    // letting entries time out one by one.
                    self.replica.refresh_all(now);
                }
                if self.mirror.root_digest() != rs.digest {
                    self.schedule(now, FbKind::Query(vec![]));
                }
            }
            Packet::NodeSummary(ns) => {
                self.stats.node_summaries_rx += 1;
                // The response satisfies our outstanding query.
                self.satisfied(&FbKind::Query(ns.path.clone()));
                self.apply_node_summary(now, &ns.path, &ns.entries);
            }
            Packet::Nack(n) => {
                // Overheard peer NACK: damp our own.
                for &key in &n.keys {
                    if self.cancel(&FbKind::Nack(key)) {
                        self.stats.damped += 1;
                    }
                    self.last_attempt.insert(FbKind::Nack(key), now);
                }
            }
            Packet::RepairQuery(q) => {
                // Overheard peer query: damp ours for the same node.
                if self.cancel(&FbKind::Query(q.path.clone())) {
                    self.stats.damped += 1;
                }
                self.last_attempt.insert(FbKind::Query(q.path.clone()), now);
            }
            Packet::ReceiverReport(_) => {}
        }
    }

    fn apply_node_summary(
        &mut self,
        now: SimTime,
        path: &Path,
        entries: &[crate::wire::WireChildEntry],
    ) {
        use crate::wire::WireChildEntry as E;
        // The summarized node in our mirror, resolved once per summary:
        // looked up for the digest comparisons, created only when a
        // tombstone needs somewhere to land.
        let mut parent = self.mirror.node_at(path);
        if parent.is_some_and(|p| self.mirror.is_leaf(p)) {
            // We hold an ADU where the sender summarizes an interior.
            self.stats.structure_conflicts += 1;
            return;
        }
        for entry in entries {
            match entry {
                E::Dead { slot } => {
                    if parent.is_none() {
                        parent = self.mirror.ensure_interior_at(path);
                    }
                    let Some(p) = parent else {
                        // The path runs through an ADU we hold: nothing
                        // under it can be mirrored.
                        self.stats.structure_conflicts += 1;
                        return;
                    };
                    if let Some(key) = self.mirror.mirror_tombstone(p, *slot) {
                        self.replica.remove(key);
                        self.reasm.remove(&key);
                    }
                }
                E::Interior { slot, digest, tag } => {
                    if !self.cfg.interest.wants(*tag) {
                        self.stats.uninterested_skips += 1;
                        continue;
                    }
                    let mismatch = match parent.and_then(|p| self.mirror.child_at(p, *slot)) {
                        None => true,
                        Some(node) => {
                            self.mirror.is_leaf(node) || self.mirror.digest(node) != *digest
                        }
                    };
                    if mismatch {
                        let mut child_path = path.clone();
                        child_path.push(*slot);
                        self.schedule(now, FbKind::Query(child_path));
                    }
                }
                E::Leaf {
                    key, digest, tag, ..
                } => {
                    if !self.cfg.interest.wants(*tag) {
                        self.stats.uninterested_skips += 1;
                        continue;
                    }
                    let mismatch = match self.mirror.leaf_of(*key) {
                        None => true,
                        Some(leaf) => self.mirror.digest(leaf) != *digest,
                    };
                    if mismatch {
                        self.schedule(now, FbKind::Nack(*key));
                    }
                }
            }
        }
    }

    /// All feedback due at or before `now`, NACKs batched into one packet.
    pub fn poll_feedback(&mut self, now: SimTime) -> Vec<Packet> {
        let mut queries = Vec::new();
        let mut nacks = Vec::new();
        while let Some((&slot, _)) = self.pending.first_key_value() {
            if slot.0 > now {
                break;
            }
            let kind = self.pending.remove(&slot).expect("peeked entry");
            self.pending_index.remove(&kind);
            match kind {
                FbKind::Query(path) => queries.push(path),
                FbKind::Nack(key) => nacks.push(key),
            }
        }
        let mut out: Vec<Packet> = queries
            .into_iter()
            .map(|path| {
                self.stats.queries_sent += 1;
                Packet::RepairQuery(RepairQueryPacket { path })
            })
            .collect();
        // Batch NACKed keys, at most 64 per packet.
        for chunk in nacks.chunks(64) {
            self.stats.nacks_sent += 1;
            self.stats.nacked_keys += chunk.len() as u64;
            out.push(Packet::Nack(NackPacket {
                keys: chunk.to_vec(),
            }));
        }
        out
    }

    /// When the earliest pending feedback fires, if any.
    pub fn next_feedback_at(&self) -> Option<SimTime> {
        self.pending.first_key_value().map(|(&(t, _), _)| t)
    }

    /// Runs the soft-state expiry sweep; expired entries leave both the
    /// replica and the mirror (so they will be re-fetched if the sender
    /// still announces them). Returns the expired keys.
    pub fn expire(&mut self, now: SimTime) -> Vec<Key> {
        let horizon = if self.muts.expire_early {
            // Defect: the sweep reaches half a TTL into the future, so
            // entries die while the publisher is still refreshing them.
            now + SimDuration::from_micros(self.cfg.ttl.as_micros() / 2)
        } else {
            now
        };
        let dead = self.replica.expire_until(horizon);
        for &key in &dead {
            self.mirror.remove_adu(key);
            self.reasm.remove(&key);
            self.stats.expired += 1;
        }
        dead
    }

    /// Builds the periodic receiver report.
    pub(crate) fn make_report(&self) -> Packet {
        Packet::ReceiverReport(self.reporter.make_report())
    }

    /// The replica (for consistency probes).
    pub fn replica(&self) -> &SubscriberTable {
        &self.replica
    }

    /// Counters.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// The receiver id.
    pub fn id(&self) -> u32 {
        self.cfg.id
    }

    /// Number of repair requests (queries + NACKs) awaiting their fire
    /// time. The explorer uses this for quiescence detection.
    pub fn outstanding_feedback(&self) -> usize {
        self.pending.len()
    }

    /// Whether a NACK for `key` is scheduled but not yet fired. The
    /// `ss-verify` explorer asserts this is false right after the key's
    /// data is installed (a pending NACK for data in hand is a livelock
    /// seed — see `RxMutations::keep_pending_on_install`).
    pub fn has_pending_nack(&self, key: Key) -> bool {
        self.pending_index.contains_key(&FbKind::Nack(key))
    }

    /// A 64-bit fingerprint of the machine's *semantic* state, for the
    /// `ss-verify` explorer's visited-state set. Covers the replica
    /// (keys, versions, expiry deadlines), the namespace mirror digest,
    /// scheduled feedback, backoff bookkeeping, and reassembly edges;
    /// deliberately excludes the feedback sequence counter, statistics,
    /// the reporter, and the slotting RNG. Takes `&mut self` only
    /// because the mirror digest is computed lazily.
    pub fn fingerprint(&mut self) -> u64 {
        let mut h = StateHasher::new();
        h.write_u64(self.replica.len() as u64);
        for (key, e) in self.replica.entries() {
            h.write_u64(key.0);
            h.write_u64(e.value.version);
            h.write_u64(self.replica.deadline_of(e).as_micros());
        }
        let root = self.mirror.root_digest();
        h.write_bytes(root.as_bytes());
        h.write_u64(self.pending.len() as u64);
        for (&(fire, _), kind) in &self.pending {
            h.write_u64(fire.as_micros());
            hash_fb_kind(&mut h, kind);
        }
        h.write_u64(self.attempts.len() as u64);
        for (kind, &n) in &self.attempts {
            hash_fb_kind(&mut h, kind);
            h.write_u64(u64::from(n));
        }
        h.write_u64(self.last_attempt.len() as u64);
        for (kind, &at) in &self.last_attempt {
            hash_fb_kind(&mut h, kind);
            h.write_u64(at.as_micros());
        }
        h.write_u64(self.reasm.len() as u64);
        for (key, &(version, edge)) in &self.reasm {
            h.write_u64(key.0);
            h.write_u64(version);
            h.write_u64(u64::from(edge));
        }
        h.finish()
    }

    /// Checks the machine's internal representation invariants; the
    /// explorer calls this after every action. `pending` and
    /// `pending_index` must be exact inverses of each other.
    pub fn self_check(&self) -> Result<(), MachineError> {
        if self.pending.len() != self.pending_index.len() {
            return Err(format!(
                "pending holds {} requests but the index has {}",
                self.pending.len(),
                self.pending_index.len()
            ));
        }
        for (slot, kind) in &self.pending {
            match self.pending_index.get(kind) {
                Some(back) if back == slot => {}
                Some(back) => {
                    return Err(format!(
                        "pending {kind:?} fires at {slot:?} but the index says {back:?}"
                    ));
                }
                None => {
                    return Err(format!("pending {kind:?} missing from the index"));
                }
            }
        }
        Ok(())
    }
}

fn hash_fb_kind(h: &mut StateHasher, kind: &FbKind) {
    match kind {
        FbKind::Query(path) => {
            h.write_u64(1);
            h.write_u64(path.len() as u64);
            for &slot in path {
                h.write_u64(u64::from(slot));
            }
        }
        FbKind::Nack(key) => {
            h.write_u64(2);
            h.write_u64(key.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::SstpSender;
    use crate::wire::{DataPacket, NodeSummaryPacket, WireChildEntry};
    use proptest::prelude::*;

    fn pair() -> (SstpSender, SstpReceiver) {
        let s = SstpSender::new(HashAlgorithm::Fnv64, 1000);
        let r = SstpReceiver::new(
            ReceiverConfig::unicast(0, HashAlgorithm::Fnv64),
            SimRng::new(7),
        );
        (s, r)
    }

    /// Delivers every queued hot packet from sender to receiver.
    fn flush(now: SimTime, s: &mut SstpSender, r: &mut SstpReceiver) {
        while let Some(p) = s.next_hot_packet() {
            r.on_packet(now, &p);
        }
    }

    /// One full lossless repair round: summary, queries, responses, NACKs,
    /// retransmissions. Returns the number of feedback packets exchanged.
    fn repair_round(now: SimTime, s: &mut SstpSender, r: &mut SstpReceiver) -> usize {
        let summary = s.summary_packet();
        r.on_packet(now, &summary);
        let mut fb_count = 0;
        loop {
            let fb = r.poll_feedback(now);
            if fb.is_empty() {
                break;
            }
            fb_count += fb.len();
            for p in &fb {
                s.on_packet(p);
            }
            flush(now, s, r);
        }
        fb_count
    }

    #[test]
    fn lossless_delivery_matches_tables() {
        let (mut s, mut r) = pair();
        let root = s.root();
        for _ in 0..10 {
            s.publish(SimTime::ZERO, root, MetaTag(0));
        }
        flush(SimTime::ZERO, &mut s, &mut r);
        assert_eq!(softstate::measure_tables(s.table(), r.replica()), Some(1.0));
        assert_eq!(r.stats().data_applied, 10);
        // In-sync summary generates no feedback.
        let fb = repair_round(SimTime::ZERO, &mut s, &mut r);
        assert_eq!(fb, 0);
    }

    #[test]
    fn recursive_descent_repairs_a_lost_packet() {
        let (mut s, mut r) = pair();
        let root = s.root();
        let branch = s.add_branch(root, MetaTag(0));
        let k_lost = s.publish(SimTime::ZERO, branch, MetaTag(0));
        let _k_ok = s.publish(SimTime::ZERO, branch, MetaTag(0));
        // Deliver all but the first data packet (simulate its loss).
        let lost = s.next_hot_packet().unwrap();
        match &lost {
            Packet::Data(d) => assert_eq!(d.key, k_lost),
            p => panic!("{p:?}"),
        }
        flush(SimTime::ZERO, &mut s, &mut r);
        assert_eq!(softstate::measure_tables(s.table(), r.replica()), Some(0.5));

        // Repair: root mismatch -> query root -> query branch -> NACK key
        // -> retransmission.
        let now = SimTime::from_secs(2);
        let fb = repair_round(now, &mut s, &mut r);
        assert!(fb >= 2, "expected query+nack, got {fb}");
        assert_eq!(softstate::measure_tables(s.table(), r.replica()), Some(1.0));
        assert!(r.stats().nacked_keys >= 1);
        assert!(r.stats().queries_sent >= 1);
    }

    #[test]
    fn stale_version_is_renacked() {
        let (mut s, mut r) = pair();
        let root = s.root();
        let k = s.publish(SimTime::ZERO, root, MetaTag(0));
        flush(SimTime::ZERO, &mut s, &mut r);
        // Update is lost.
        s.update(k);
        let _lost = s.next_hot_packet().unwrap();
        assert_eq!(softstate::measure_tables(s.table(), r.replica()), Some(0.0));

        let fb = repair_round(SimTime::from_secs(2), &mut s, &mut r);
        assert!(fb >= 1);
        assert_eq!(softstate::measure_tables(s.table(), r.replica()), Some(1.0));
        assert_eq!(r.replica().get(k).unwrap().value.version, 2);
    }

    #[test]
    fn withdrawal_propagates_via_tombstone() {
        let (mut s, mut r) = pair();
        let root = s.root();
        let k1 = s.publish(SimTime::ZERO, root, MetaTag(0));
        let _k2 = s.publish(SimTime::ZERO, root, MetaTag(0));
        flush(SimTime::ZERO, &mut s, &mut r);
        s.withdraw(k1);
        let fb = repair_round(SimTime::from_secs(2), &mut s, &mut r);
        assert!(fb >= 1);
        assert!(
            r.replica().get(k1).is_none(),
            "tombstone must purge replica"
        );
        assert_eq!(softstate::measure_tables(s.table(), r.replica()), Some(1.0));
    }

    #[test]
    fn backoff_limits_requery_storms() {
        let (mut s, mut r) = pair();
        let root = s.root();
        s.publish(SimTime::ZERO, root, MetaTag(0));
        // Receiver never gets the data; summaries arrive rapid-fire.
        for i in 0..10 {
            let summary = s.summary_packet();
            r.on_packet(SimTime::from_millis(i * 10), &summary);
        }
        let fb = r.poll_feedback(SimTime::from_secs(1));
        // One query despite 10 mismatched summaries within the backoff.
        assert_eq!(fb.len(), 1);
        assert!(matches!(fb[0], Packet::RepairQuery(_)));
    }

    #[test]
    fn interest_scoping_skips_repair() {
        let mut s = SstpSender::new(HashAlgorithm::Fnv64, 1000);
        let mut cfg = ReceiverConfig::unicast(0, HashAlgorithm::Fnv64);
        cfg.interest = Interest::Tags(vec![MetaTag(1)]);
        let mut r = SstpReceiver::new(cfg, SimRng::new(1));

        let root = s.root();
        let wanted = s.add_branch(root, MetaTag(1));
        let unwanted = s.add_branch(root, MetaTag(2)); // high-res images
        let kw = s.publish(SimTime::ZERO, wanted, MetaTag(1));
        let ku = s.publish(SimTime::ZERO, unwanted, MetaTag(2));
        // Everything is lost; repair must only chase the wanted branch.
        while s.next_hot_packet().is_some() {}

        let now = SimTime::from_secs(1);
        let summary = s.summary_packet();
        r.on_packet(now, &summary);
        for _ in 0..5 {
            let fb = r.poll_feedback(now);
            if fb.is_empty() {
                break;
            }
            for p in &fb {
                s.on_packet(p);
            }
            while let Some(p) = s.next_hot_packet() {
                r.on_packet(now, &p);
            }
        }
        assert!(r.replica().get(kw).is_some(), "wanted key repaired");
        assert!(r.replica().get(ku).is_none(), "unwanted key not fetched");
        assert!(r.stats().uninterested_skips >= 1);
    }

    #[test]
    fn slotted_timing_delays_and_damps() {
        let mut s = SstpSender::new(HashAlgorithm::Fnv64, 1000);
        let mut cfg = ReceiverConfig::unicast(0, HashAlgorithm::Fnv64);
        cfg.timing = FeedbackTiming::Slotted {
            window: SimDuration::from_secs(2),
        };
        let mut r = SstpReceiver::new(cfg, SimRng::new(3));
        let root = s.root();
        s.publish(SimTime::ZERO, root, MetaTag(0));
        while s.next_hot_packet().is_some() {} // lose it

        let now = SimTime::from_secs(10);
        r.on_packet(now, &s.summary_packet());
        let fire = r.next_feedback_at().expect("query scheduled");
        assert!(fire >= now && fire < now + SimDuration::from_secs(2));
        assert!(r.poll_feedback(now).is_empty(), "not due yet");

        // Overhear a peer's identical query before the slot fires: damp.
        r.on_packet(
            now,
            &Packet::RepairQuery(RepairQueryPacket { path: vec![] }),
        );
        assert_eq!(r.next_feedback_at(), None);
        assert_eq!(r.stats().damped, 1);
    }

    #[test]
    fn expiry_purges_replica_and_mirror() {
        let (mut s, mut r) = pair();
        let root = s.root();
        let k = s.publish(SimTime::ZERO, root, MetaTag(0));
        flush(SimTime::ZERO, &mut s, &mut r);
        assert!(r.replica().get(k).is_some());
        // No refresh for > TTL (30 s).
        let later = SimTime::from_secs(31);
        let dead = r.expire(later);
        assert_eq!(dead, vec![k]);
        assert!(r.replica().get(k).is_none());
        assert_eq!(r.stats().expired, 1);
        // The sender still has it; the next summary round re-fetches it.
        let fb = repair_round(later, &mut s, &mut r);
        assert!(fb >= 1);
        assert!(r.replica().get(k).is_some(), "re-fetched after expiry");
    }

    /// A fragmented ADU received in part and then withdrawn leaves no
    /// assembly record behind: the tombstone that purges the mirror leaf
    /// purges it too, as expiry does for keys the replica held.
    #[test]
    fn tombstone_drops_a_partial_assembly() {
        let (s, saw) = pair();
        let mut s = s.with_mtu(400);
        let (mut saw, mut never) = (saw.clone(), saw);
        let root = s.root();
        let k = s.publish(SimTime::ZERO, root, MetaTag(0));
        let first = s.next_hot_packet().unwrap();
        assert!(matches!(&first, Packet::Data(d) if !d.is_whole()));
        saw.on_packet(SimTime::ZERO, &first);
        assert_ne!(saw.fingerprint(), never.fingerprint());

        assert!(s.withdraw(k));
        s.on_packet(&Packet::RepairQuery(RepairQueryPacket { path: vec![] }));
        let summary = s.next_hot_packet().unwrap();
        assert!(matches!(summary, Packet::NodeSummary(_)));
        for rx in [&mut saw, &mut never] {
            rx.on_packet(SimTime::from_secs(1), &summary);
        }
        assert!(saw.reasm.is_empty(), "assembly record outlived its key");
        assert_eq!(saw.fingerprint(), never.fingerprint());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The whole-ADU fast path against the assembly map it bypasses:
        /// whole and fragmented packets of interleaved keys and versions
        /// (stale, duplicate, out of order, zero-length), tombstones and
        /// expiry sweeps in between. The oracle is the same receiver with
        /// the record that path would create planted before each data
        /// packet, which forces every packet through the map. Replica,
        /// stats and fingerprint agree after every step.
        #[test]
        fn whole_adu_fast_path_matches_assembly_map(
            ops in prop::collection::vec((0u8..10, 0u64..4, 1u64..5, 0u32..4), 1..120),
        ) {
            let (_, mut fast) = pair();
            let mut forced = fast.clone();
            let mut now = SimTime::ZERO;
            for (op, key, version, piece) in ops {
                now += SimDuration::from_secs(1);
                let pkt = match op {
                    0 => {
                        now += SimDuration::from_secs(20); // TTL is 30 s
                        prop_assert_eq!(fast.expire(now), forced.expire(now));
                        continue;
                    }
                    1 => Packet::NodeSummary(NodeSummaryPacket {
                        seq: 0,
                        path: vec![],
                        entries: vec![WireChildEntry::Dead { slot: key as u16 }],
                    }),
                    _ => {
                        // Version 4 is an empty ADU; the others are 300
                        // bytes, whole or as one of three fragments.
                        let total_len = if version == 4 { 0 } else { 300 };
                        let (offset, payload_len) = match piece {
                            0 => (0, total_len),
                            n => ((n - 1) * 100, total_len / 3),
                        };
                        let d = DataPacket {
                            seq: 0,
                            key: Key(key),
                            version,
                            parent_path: vec![],
                            slot: key as u16,
                            tag: MetaTag(0),
                            offset,
                            payload_len,
                            total_len,
                        };
                        forced.reasm.entry(d.key).or_insert((d.version, 0));
                        Packet::Data(d)
                    }
                };
                fast.on_packet(now, &pkt);
                forced.on_packet(now, &pkt);
                prop_assert_eq!(fast.stats(), forced.stats());
                prop_assert_eq!(fast.fingerprint(), forced.fingerprint());
                let replica = |rx: &SstpReceiver| -> Vec<_> {
                    rx.replica().entries().map(|(&k, e)| (k, *e)).collect()
                };
                prop_assert_eq!(replica(&fast), replica(&forced));
            }
        }
    }

    /// A whole-ADU data packet for `key` at `parent_path`/`slot`.
    fn data_at(parent_path: &[u16], slot: u16, key: u64) -> Packet {
        Packet::Data(DataPacket {
            seq: 0,
            key: Key(key),
            version: 1,
            parent_path: parent_path.to_vec(),
            slot,
            tag: MetaTag(0),
            offset: 0,
            payload_len: 100,
            total_len: 100,
        })
    }

    /// A receiver mirroring a two-level tree: an interior at slot 0 with
    /// two ADUs under it, and an ADU in the root's slot 1.
    fn populated() -> SstpReceiver {
        let (_, mut r) = pair();
        for (path, slot, key) in [(&[0][..], 0, 10), (&[0], 1, 11), (&[], 1, 20)] {
            r.on_packet(SimTime::ZERO, &data_at(path, slot, key));
        }
        assert_eq!((r.replica().len(), r.stats().structure_conflicts), (3, 0));
        r
    }

    /// Datagrams that contradict the structure mirrored so far are
    /// counted and skipped — mirror and replica untouched — not fatal.
    #[test]
    fn structure_conflicts_are_counted_not_fatal() {
        let dead_under = |path: &[u16]| {
            Packet::NodeSummary(NodeSummaryPacket {
                seq: 0,
                path: path.to_vec(),
                entries: vec![WireChildEntry::Dead { slot: 3 }],
            })
        };
        let conflicts = [
            ("another key in an occupied slot", data_at(&[0], 0, 99)),
            ("an ADU where an interior sits", data_at(&[], 0, 99)),
            ("a path through a leaf", data_at(&[1, 2], 0, 99)),
            ("a key held at another slot", data_at(&[0], 5, 20)),
            ("a summary of a node held as a leaf", dead_under(&[1])),
            ("a summary below a leaf", dead_under(&[1, 2])),
        ];
        for (what, pkt) in conflicts {
            let mut r = populated();
            let before = (r.mirror.root_digest(), r.fingerprint());
            r.on_packet(SimTime::from_secs(1), &pkt);
            assert_eq!(r.stats().structure_conflicts, 1, "{what}");
            assert_eq!((r.mirror.root_digest(), r.fingerprint()), before, "{what}");
            assert!(r.replica().get(Key(99)).is_none(), "{what}");
            assert_eq!(r.mirror.live_adus(), 3, "{what}");
        }
    }

    /// `ss-verify` keeps a scope's two receivers in one `Vec` and clones
    /// it per transition; past 2 × 516 bytes that block leaves glibc's
    /// per-thread cache and the deep scope runs ≈ 13 % longer. Growing the
    /// receiver is fine — do it knowing that (the shared `cfg` is what
    /// paid for the checkpoint table and `structure_conflicts`).
    #[test]
    fn receiver_stays_within_512_bytes() {
        assert!(std::mem::size_of::<SstpReceiver>() <= 512);
    }

    #[test]
    fn report_counts_data_channel_packets() {
        let (mut s, mut r) = pair();
        let root = s.root();
        s.publish(SimTime::ZERO, root, MetaTag(0));
        flush(SimTime::ZERO, &mut s, &mut r);
        r.on_packet(SimTime::ZERO, &s.summary_packet());
        match r.make_report() {
            Packet::ReceiverReport(rr) => {
                assert_eq!(rr.received, 2);
                assert_eq!(rr.receiver_id, 0);
            }
            p => panic!("{p:?}"),
        }
    }
}
