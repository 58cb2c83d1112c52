//! The SSTP sender endpoint.
//!
//! "An SSTP sender transmits original application data as well as
//! periodic soft state announcements summarizing all previously
//! transmitted data. SSTP receivers use NACKs to report lost data items
//! to the sender, which in response performs the appropriate
//! retransmissions." (§6)
//!
//! The sender is sans-I/O: it owns the publisher table, the namespace,
//! and the hot transmission queue, and exposes pull-style packet
//! constructors ([`SstpSender::next_hot_packet`] for the foreground
//! queue, [`SstpSender::summary_packet`] for the cold/background stream).
//! The session harness (or a real UDP wrapper) drives it.

// D005 (DESIGN.md §8): the machine is sans-I/O; `clippy.toml` bans the
// file, socket and process types workspace-wide.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use crate::digest::{Digest, HashAlgorithm};
use crate::machine::{MachineError, StateHasher, TxMutations};
use crate::namespace::{MetaTag, Namespace, NodeId, Path};
use crate::reports::LossEstimator;
use crate::wire::{DataPacket, NodeSummaryPacket, Packet, RootSummaryPacket};
use softstate::{Key, PublisherTable};
use ss_netsim::{SimRng, SimTime};
use ss_sched::{Scheduler, Stride};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What waits in the hot (foreground) queue.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(test, derive(PartialOrd, Ord))] // the reference sender's dedup set
enum HotItem {
    /// (Re)transmission of a record's current value.
    Data(Key),
    /// A repair response summarizing one namespace node's children.
    Summary(Path),
}

/// Counters exposed for experiments and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Data packets emitted (original + repair retransmissions).
    pub data_tx: u64,
    /// Root summaries emitted.
    pub root_summaries_tx: u64,
    /// Node summaries emitted (repair responses).
    pub node_summaries_tx: u64,
    /// NACK packets processed.
    pub nacks_rx: u64,
    /// Repair queries processed.
    pub queries_rx: u64,
    /// Receiver reports processed.
    pub reports_rx: u64,
    /// Keys NACKed that were already queued or dead (suppressed).
    pub nacks_suppressed: u64,
}

/// What the sender keeps per key ever published, indexed by `Key.0`:
/// [`PublisherTable::insert_new`] hands keys out densely from 0, so the
/// per-update path indexes a `Vec` where it used to search ordered maps.
#[derive(Clone, Copy, Debug)]
struct KeySlot {
    /// The key's namespace leaf (detached once the key is withdrawn).
    leaf: NodeId,
    /// The hot-queue class of the key's tag.
    class: u32,
    /// A [`HotItem::Data`] for the key waits in `hot[class]`.
    queued: bool,
}

/// In-progress fragmentation of one ADU onto one channel.
#[derive(Clone, Debug)]
struct FragState {
    key: Key,
    version: u64,
    parent_path: Path,
    slot: u16,
    tag: MetaTag,
    offset: u32,
    total: u32,
}

/// The SSTP sender endpoint.
///
/// Sans-I/O: the application publishes ADUs into the namespace and then
/// drains wire packets ([`SstpSender::next_hot_packet`],
/// [`SstpSender::next_cycle_packet`], [`SstpSender::summary_packet`])
/// at whatever rate its bandwidth budget allows.
///
/// ```
/// use sstp::digest::HashAlgorithm;
/// use sstp::namespace::MetaTag;
/// use sstp::sender::SstpSender;
/// use sstp::wire::Packet;
/// use ss_netsim::SimTime;
///
/// let mut tx = SstpSender::new(HashAlgorithm::Fnv64, 1000);
/// let root = tx.root();
/// let key = tx.publish(SimTime::ZERO, root, MetaTag(0));
///
/// // The new ADU is queued exactly once on the hot (foreground) path.
/// match tx.next_hot_packet() {
///     Some(Packet::Data(d)) => assert_eq!(d.key, key),
///     other => panic!("expected the published ADU, got {other:?}"),
/// }
/// assert!(tx.next_hot_packet().is_none());
/// ```
#[derive(Clone)]
pub struct SstpSender {
    table: PublisherTable,
    ns: Namespace,
    /// Per-class foreground queues (Figure 12: the application's data
    /// classes compete for the hot bandwidth under explicit weights).
    hot: Vec<VecDeque<HotItem>>,
    /// Stride scheduler choosing which class transmits next.
    hot_sched: Stride,
    /// Maps application tags to dense class indices (index 0 is the
    /// control class carrying repair responses).
    class_of_tag: BTreeMap<u32, usize>,
    sched_rng: SimRng,
    /// One slot per key ever published (12 bytes each, never shrunk).
    keys: Vec<KeySlot>,
    /// Dedup of queued repair responses (data dedup is `KeySlot::queued`).
    queued_summaries: BTreeSet<Path>,
    /// Round-robin snapshot for cold data cycling.
    cycle: Vec<Key>,
    /// Maximum application payload per data packet; ADUs above this are
    /// fragmented, advancing the namespace right edge per fragment.
    mtu: u32,
    /// Fragmentation state of the hot (foreground) stream.
    hot_frag: Option<FragState>,
    /// Fragmentation state of the cold cycling stream.
    cycle_frag: Option<FragState>,
    seq: u64,
    /// Per-receiver loss estimators (cumulative reports must be
    /// differenced per reporter, as RTCP does). BTreeMap keeps the
    /// mean's summation order — and thus the estimate — deterministic.
    loss: std::collections::BTreeMap<u32, LossEstimator>,
    default_payload: u32,
    stats: SenderStats,
    /// Seeded defects for mutation-testing `ss-verify` (all off in
    /// production; see [`TxMutations`]).
    muts: TxMutations,
    /// First root digest ever emitted, kept only for the
    /// `frozen_summary_digest` mutation.
    frozen_digest: Option<Digest>,
}

impl SstpSender {
    /// A sender using the given summary hash and default ADU payload size.
    pub fn new(algo: HashAlgorithm, default_payload: u32) -> Self {
        // Class 0 is the control class (repair responses). It gets the
        // same weight as a single data class: prioritizing it sounds
        // attractive but is counterproductive — large node summaries then
        // displace the data transmissions that would resolve the digest
        // mismatch, and the repair traffic feeds on itself (measured in
        // the profile-accuracy/adapt experiments: ~7 points of
        // consistency lost at 1% loss with a 4x control weight).
        let mut hot_sched = Stride::new();
        hot_sched.set_weight(0, 1);
        SstpSender {
            table: PublisherTable::new(),
            ns: Namespace::new(algo),
            hot: vec![VecDeque::new()],
            hot_sched,
            class_of_tag: BTreeMap::new(),
            sched_rng: SimRng::new(0x5f3d),
            keys: Vec::new(),
            queued_summaries: BTreeSet::new(),
            cycle: Vec::new(),
            mtu: u32::MAX,
            hot_frag: None,
            cycle_frag: None,
            seq: 0,
            loss: std::collections::BTreeMap::new(),
            default_payload,
            stats: SenderStats::default(),
            muts: TxMutations::default(),
            frozen_digest: None,
        }
    }

    /// Installs seeded protocol defects for mutation testing. Never used
    /// by the session harness; see [`TxMutations`].
    #[doc(hidden)]
    pub fn with_mutations(mut self, muts: TxMutations) -> Self {
        self.muts = muts;
        self
    }

    /// The next wire sequence number (shared across all packet types, so
    /// receivers can count losses on the data channel).
    fn bump_seq(&mut self) -> u64 {
        if self.muts.reuse_seq {
            return 0;
        }
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Sets the maximum payload per data packet. ADUs larger than `mtu`
    /// are transmitted as fragments carrying `(offset, total_len)`, and
    /// the ADU's namespace right edge advances fragment by fragment —
    /// the §6.2 ALF framing. Panics on zero.
    pub fn with_mtu(mut self, mtu: u32) -> Self {
        assert!(mtu > 0, "mtu must be positive");
        self.mtu = mtu;
        self
    }

    /// Begins fragmenting `key`'s current value; returns the state, or
    /// `None` if the record is dead.
    fn start_frag(&mut self, key: Key) -> Option<FragState> {
        let value = self.table.get(key)?.value;
        let leaf = self.keys[key.0 as usize].leaf;
        let (parent, slot) = self.ns.parent_of(leaf).expect("leaf is not the root");
        Some(FragState {
            key,
            version: value.version,
            parent_path: self.ns.path_of(parent),
            slot,
            tag: self.ns.tag(leaf),
            offset: 0,
            total: value.payload_len,
        })
    }

    /// Resumes a fragmented ADU; `None` if the record died or was
    /// superseded mid-stream (the new version has its own queue entry).
    fn resume_frag(&mut self, state: FragState) -> Option<(Packet, Option<FragState>)> {
        let rec = self.table.get(state.key)?;
        (rec.value.version == state.version).then(|| self.next_fragment(state))
    }

    /// Emits the next fragment of `state`, advancing the namespace right
    /// edge; returns the packet and, while the ADU is not fully sent, the
    /// state to resume from.
    fn next_fragment(&mut self, mut state: FragState) -> (Packet, Option<FragState>) {
        let offset = state.offset;
        let len = (state.total - offset).min(self.mtu);
        state.offset += len;
        let leaf = self.keys[state.key.0 as usize].leaf;
        self.ns
            .update_leaf(leaf, state.version, u64::from(state.offset));
        let seq = self.bump_seq();
        self.stats.data_tx += 1;
        let rest = (state.offset < state.total).then(|| state.clone());
        let pkt = Packet::Data(DataPacket {
            seq,
            key: state.key,
            version: state.version,
            parent_path: state.parent_path,
            slot: state.slot,
            tag: state.tag,
            offset,
            payload_len: len,
            total_len: state.total,
        });
        (pkt, rest)
    }

    /// The namespace root, for building the application's hierarchy.
    pub fn root(&self) -> NodeId {
        self.ns.root()
    }

    /// Adds an interior namespace node (an application data class).
    pub fn add_branch(&mut self, parent: NodeId, tag: MetaTag) -> NodeId {
        self.ns.add_interior(parent, tag)
    }

    /// The dense class index for `tag`, creating it (weight 1) on first
    /// use.
    fn class_for(&mut self, tag: MetaTag) -> usize {
        if let Some(&c) = self.class_of_tag.get(&tag.0) {
            return c;
        }
        let c = self.hot.len();
        self.hot.push(VecDeque::new());
        self.hot_sched.set_weight(c, 1);
        self.class_of_tag.insert(tag.0, c);
        c
    }

    /// Sets the hot-bandwidth weight of an application data class —
    /// §6.1's "the application flexibly controls the amount of bandwidth
    /// allocated to its different data classes". Weight 0 pauses the
    /// class. Classes default to weight 1.
    pub(crate) fn set_class_weight(&mut self, tag: MetaTag, weight: u64) {
        let c = self.class_for(tag);
        self.hot_sched.set_weight(c, weight);
    }

    /// Appends to a class queue; the stride backlog flag flips when the
    /// queue goes empty → non-empty here and back in `next_hot_packet`.
    fn push_hot(&mut self, class: usize, item: HotItem) {
        if self.hot[class].is_empty() {
            self.hot_sched.set_backlogged(class, true);
        }
        self.hot[class].push_back(item);
    }

    /// Queues `key`'s (re)transmission unless one already waits.
    fn enqueue_data(&mut self, key: Key) {
        let slot = &mut self.keys[key.0 as usize];
        // Defect `no_queue_dedup`: append unconditionally; updating a
        // queued key then queues it twice and `self_check` sees the queues
        // diverge from the `queued` bits.
        if std::mem::replace(&mut slot.queued, true) && !self.muts.no_queue_dedup {
            return;
        }
        let class = slot.class as usize;
        self.push_hot(class, HotItem::Data(key));
    }

    /// Publishes a new record of the default payload size under
    /// `parent`; it is queued for immediate transmission ("a sender
    /// transmits new data upon arrival from the application"). Returns
    /// the new key.
    pub fn publish(&mut self, now: SimTime, parent: NodeId, tag: MetaTag) -> Key {
        self.publish_sized(now, parent, tag, self.default_payload)
    }

    /// [`SstpSender::publish`] with an explicit payload size.
    pub fn publish_sized(
        &mut self,
        now: SimTime,
        parent: NodeId,
        tag: MetaTag,
        payload_len: u32,
    ) -> Key {
        let rec = self.table.insert_new(now, payload_len);
        let leaf = self.ns.add_adu(parent, rec.key, tag);
        let class = self.class_for(tag) as u32;
        assert_eq!(rec.key.0, self.keys.len() as u64, "keys are dense");
        self.keys.push(KeySlot {
            leaf,
            class,
            queued: false,
        });
        self.enqueue_data(rec.key);
        rec.key
    }

    /// Updates an existing record to a new version and queues its
    /// retransmission. Panics on a dead key.
    pub fn update(&mut self, key: Key) {
        let rec = self.table.update(key);
        // The new version has 0 bytes on the wire until retransmitted.
        self.ns
            .update_leaf(self.keys[key.0 as usize].leaf, rec.value.version, 0);
        self.enqueue_data(key);
    }

    /// Withdraws a record: its lifetime ended. Receivers learn via
    /// summary mismatch (the tombstoned slot) or their own soft-state
    /// expiry. Returns `true` if the key was live.
    pub fn withdraw(&mut self, key: Key) -> bool {
        if self.table.delete(key).is_none() {
            return false;
        }
        self.ns.remove_adu(key);
        // Any queued transmission is dropped lazily at pop time.
        true
    }

    /// Processes a packet arriving on the feedback channel. Returns the
    /// keys this packet promoted into the hot queue (non-empty only for
    /// NACKs naming live, not-yet-queued keys), so callers can trace the
    /// NACK → promotion causality.
    pub fn on_packet(&mut self, pkt: &Packet) -> Vec<Key> {
        let mut promoted = Vec::new();
        match pkt {
            Packet::Nack(n) => {
                self.stats.nacks_rx += 1;
                if self.muts.drop_promotions {
                    // Defect: the NACK is counted but never promotes its
                    // keys — Figure 7's cold → hot edge is severed, so
                    // lost data waits for the (slow) cold cycle forever.
                    return promoted;
                }
                for &key in &n.keys {
                    // Never-published keys have no slot; `key.0` is wire
                    // input, so the index is checked.
                    let unqueued = usize::try_from(key.0)
                        .ok()
                        .and_then(|k| self.keys.get(k))
                        .is_some_and(|slot| !slot.queued);
                    if unqueued && self.table.get(key).is_some() {
                        self.enqueue_data(key);
                        promoted.push(key);
                    } else {
                        self.stats.nacks_suppressed += 1;
                    }
                }
            }
            Packet::RepairQuery(q) => {
                self.stats.queries_rx += 1;
                // Only answer for nodes that exist and are interior.
                if let Some(node) = self.ns.node_at(&q.path) {
                    if !self.ns.is_leaf(node) && self.queued_summaries.insert(q.path.clone()) {
                        // Repair responses ride the control class (0).
                        self.push_hot(0, HotItem::Summary(q.path.clone()));
                    }
                }
            }
            Packet::ReceiverReport(r) => {
                self.stats.reports_rx += 1;
                self.loss
                    .entry(r.receiver_id)
                    .or_insert_with(|| LossEstimator::new(0.25))
                    .on_report(r);
            }
            // Data-channel packets never arrive at the sender.
            Packet::Data(_) | Packet::RootSummary(_) | Packet::NodeSummary(_) => {}
        }
        promoted
    }

    /// Builds the next foreground packet, or `None` when the hot queue is
    /// empty. Dead records and vanished nodes queued earlier are skipped.
    /// An ADU larger than the MTU occupies several consecutive calls, one
    /// fragment each.
    pub fn next_hot_packet(&mut self) -> Option<Packet> {
        // Continue an in-progress fragmented ADU first.
        if let Some(state) = self.hot_frag.take() {
            if let Some((pkt, rest)) = self.resume_frag(state) {
                self.hot_frag = rest;
                return Some(pkt);
            }
        }
        loop {
            // The stride scheduler picks the class with the next slot.
            let class = self.hot_sched.pick(&mut self.sched_rng)?;
            let item = self.hot[class]
                .pop_front()
                .expect("a backlogged class has an item queued");
            if self.hot[class].is_empty() {
                self.hot_sched.set_backlogged(class, false);
            }
            self.hot_sched.charge(class, 1);
            match item {
                HotItem::Data(key) => {
                    self.keys[key.0 as usize].queued = false;
                    let Some(state) = self.start_frag(key) else {
                        continue; // withdrawn while queued
                    };
                    let (pkt, rest) = self.next_fragment(state);
                    self.hot_frag = rest;
                    return Some(pkt);
                }
                HotItem::Summary(path) => {
                    self.queued_summaries.remove(&path);
                    let Some(node) = self.ns.node_at(&path) else {
                        continue; // subtree vanished while queued
                    };
                    if self.ns.is_leaf(node) {
                        continue;
                    }
                    let entries = self.ns.summary_entries(node);
                    let seq = self.bump_seq();
                    self.stats.node_summaries_tx += 1;
                    return Some(Packet::NodeSummary(NodeSummaryPacket {
                        seq,
                        path,
                        entries,
                    }));
                }
            }
        }
    }

    /// Builds a background (cold) data retransmission: cycles round-robin
    /// through the live records, re-announcing each in turn. This is the
    /// classic §3 open-loop refresh stream, used when no feedback channel
    /// exists to repair divergence (announce/listen reliability) and by
    /// late-joiner catch-up. Returns `None` when the table is empty.
    pub fn next_cycle_packet(&mut self) -> Option<Packet> {
        if let Some(state) = self.cycle_frag.take() {
            if let Some((pkt, rest)) = self.resume_frag(state) {
                self.cycle_frag = rest;
                return Some(pkt);
            }
        }
        loop {
            if self.cycle.is_empty() {
                // live() iterates the BTreeMap-backed table in ascending
                // key order (lint rule D002 guarantees it stays ordered).
                self.cycle = self.table.live().map(|r| r.key).collect();
                self.cycle.reverse(); // pop() serves in ascending order
            }
            let key = self.cycle.pop()?;
            let Some(state) = self.start_frag(key) else {
                continue; // withdrawn since the cycle snapshot
            };
            let (pkt, rest) = self.next_fragment(state);
            self.cycle_frag = rest;
            return Some(pkt);
        }
    }

    /// Builds a background (cold) packet: the periodic root summary.
    pub fn summary_packet(&mut self) -> Packet {
        let seq = self.bump_seq();
        self.stats.root_summaries_tx += 1;
        let current = self.ns.root_digest();
        let digest = if self.muts.frozen_summary_digest {
            // Defect: the digest is computed once and re-announced
            // forever, so receivers never see later publishes diverge.
            *self.frozen_digest.get_or_insert(current)
        } else {
            current
        };
        Packet::RootSummary(RootSummaryPacket {
            seq,
            digest,
            live_adus: self.ns.live_adus() as u32,
        })
    }

    /// Number of foreground transmissions waiting (all classes).
    pub fn hot_backlog(&self) -> usize {
        self.hot.iter().map(VecDeque::len).sum()
    }

    /// The smoothed loss estimate: the mean of the per-receiver
    /// estimators (0 before any report). The mean drives the allocator
    /// toward the group's typical conditions.
    pub(crate) fn estimated_loss(&self) -> f64 {
        if self.loss.is_empty() {
            return 0.0;
        }
        self.loss.values().map(LossEstimator::loss).sum::<f64>() / self.loss.len() as f64
    }

    /// The publisher's table (ground truth for consistency probes).
    pub fn table(&self) -> &PublisherTable {
        &self.table
    }

    /// Counters.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// A 64-bit fingerprint of the machine's *semantic* state, for the
    /// `ss-verify` explorer's visited-state set. Covers the publisher
    /// table, the namespace digest, the hot queues, the cold-cycle
    /// snapshot, and in-flight fragmentation; deliberately excludes wire
    /// sequence numbers, statistics, loss estimators, and the scheduler
    /// tie-break RNG (monotone or non-semantic state that would make
    /// every explored state unique). Takes `&mut self` only because the
    /// namespace digest is computed lazily.
    pub fn fingerprint(&mut self) -> u64 {
        let mut h = StateHasher::new();
        h.write_u64(self.table.live_count() as u64);
        for rec in self.table.live() {
            h.write_u64(rec.key.0);
            h.write_u64(rec.value.version);
            h.write_u64(u64::from(rec.value.payload_len));
        }
        let root = self.ns.root_digest();
        h.write_bytes(root.as_bytes());
        h.write_u64(self.hot.len() as u64);
        for q in &self.hot {
            h.write_u64(q.len() as u64);
            for item in q {
                hash_hot_item(&mut h, item);
            }
        }
        for (&tag, &class) in &self.class_of_tag {
            h.write_u64(u64::from(tag));
            h.write_u64(class as u64);
        }
        h.write_u64(self.cycle.len() as u64);
        for key in &self.cycle {
            h.write_u64(key.0);
        }
        hash_frag(&mut h, self.hot_frag.as_ref());
        hash_frag(&mut h, self.cycle_frag.as_ref());
        h.finish()
    }

    /// Checks the machine's internal representation invariants; the
    /// explorer calls this after every action. Each queued item must consume
    /// its own dedup mark (a key's `queued` bit, a summary's set entry) and
    /// leave none over; a class is flagged backlogged exactly while its
    /// queue is non-empty; every class index must be in range.
    pub fn self_check(&self) -> Result<(), MachineError> {
        let mut bits: Vec<bool> = self.keys.iter().map(|slot| slot.queued).collect();
        let mut paths = self.queued_summaries.clone();
        for (class, q) in self.hot.iter().enumerate() {
            for item in q {
                let marked = match item {
                    HotItem::Data(key) => std::mem::take(&mut bits[key.0 as usize]),
                    HotItem::Summary(path) => paths.remove(path),
                };
                if !marked {
                    return Err(format!(
                        "hot class {class} holds an item the dedup state does not mark: {item:?}"
                    ));
                }
            }
            if self.hot_sched.is_backlogged(class) == q.is_empty() {
                return Err(format!(
                    "hot class {class} holds {} items but its backlog flag says otherwise",
                    q.len()
                ));
            }
        }
        let unqueued = bits.iter().filter(|&&b| b).count() + paths.len();
        if unqueued != 0 {
            return Err(format!(
                "the dedup state marks {unqueued} items that no hot queue holds"
            ));
        }
        for (&tag, &class) in &self.class_of_tag {
            if class >= self.hot.len() {
                return Err(format!(
                    "tag {tag} maps to class {class}, but only {} classes exist",
                    self.hot.len()
                ));
            }
        }
        Ok(())
    }
}

fn hash_hot_item(h: &mut StateHasher, item: &HotItem) {
    match item {
        HotItem::Data(key) => {
            h.write_u64(1);
            h.write_u64(key.0);
        }
        HotItem::Summary(path) => {
            h.write_u64(2);
            h.write_u64(path.len() as u64);
            for &slot in path {
                h.write_u64(u64::from(slot));
            }
        }
    }
}

fn hash_frag(h: &mut StateHasher, frag: Option<&FragState>) {
    match frag {
        None => h.write_u64(0),
        Some(f) => {
            h.write_u64(1);
            h.write_u64(f.key.0);
            h.write_u64(f.version);
            h.write_u64(u64::from(f.offset));
            h.write_u64(u64::from(f.total));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{NackPacket, ReceiverReportPacket, RepairQueryPacket};
    use proptest::prelude::*;

    fn sender() -> SstpSender {
        SstpSender::new(HashAlgorithm::Fnv64, 1000)
    }

    /// The sender the dense key table replaced, kept as the oracle: one
    /// `BTreeSet<HotItem>` dedups data and summaries alike, every per-key
    /// fact is looked up (`leaf_of`, the leaf's tag, `class_of_tag`) when
    /// it is needed, and every class's backlog flag is rewritten before
    /// each pick.
    struct RefSender {
        table: PublisherTable,
        ns: Namespace,
        hot: Vec<VecDeque<HotItem>>,
        hot_sched: Stride,
        class_of_tag: BTreeMap<u32, usize>,
        sched_rng: SimRng,
        queued: BTreeSet<HotItem>,
        cycle: Vec<Key>,
        mtu: u32,
        hot_frag: Option<FragState>,
        cycle_frag: Option<FragState>,
        seq: u64,
        stats: SenderStats,
    }

    impl RefSender {
        fn new(mtu: u32) -> Self {
            let mut hot_sched = Stride::new();
            hot_sched.set_weight(0, 1);
            RefSender {
                table: PublisherTable::new(),
                ns: Namespace::new(HashAlgorithm::Fnv64),
                hot: vec![VecDeque::new()],
                hot_sched,
                class_of_tag: BTreeMap::new(),
                sched_rng: SimRng::new(0x5f3d),
                queued: BTreeSet::new(),
                cycle: Vec::new(),
                mtu,
                hot_frag: None,
                cycle_frag: None,
                seq: 0,
                stats: SenderStats::default(),
            }
        }

        fn class_for(&mut self, tag: MetaTag) -> usize {
            if let Some(&c) = self.class_of_tag.get(&tag.0) {
                return c;
            }
            let c = self.hot.len();
            self.hot.push(VecDeque::new());
            self.hot_sched.set_weight(c, 1);
            self.class_of_tag.insert(tag.0, c);
            c
        }

        fn class_of_key(&mut self, key: Key) -> usize {
            let leaf = self.ns.leaf_of(key).expect("live key");
            self.class_for(self.ns.tag(leaf))
        }

        fn enqueue(&mut self, class: usize, item: HotItem) {
            if self.queued.insert(item.clone()) {
                self.hot[class].push_back(item);
            }
        }

        fn set_class_weight(&mut self, tag: MetaTag, weight: u64) {
            let c = self.class_for(tag);
            self.hot_sched.set_weight(c, weight);
        }

        fn publish(&mut self, parent: NodeId, tag: MetaTag, len: u32) -> Key {
            let rec = self.table.insert_new(SimTime::ZERO, len);
            self.ns.add_adu(parent, rec.key, tag);
            let class = self.class_for(tag);
            self.enqueue(class, HotItem::Data(rec.key));
            rec.key
        }

        fn update(&mut self, key: Key) {
            let rec = self.table.update(key);
            self.ns.update_adu(key, rec.value.version, 0);
            let class = self.class_of_key(key);
            self.enqueue(class, HotItem::Data(key));
        }

        fn withdraw(&mut self, key: Key) -> bool {
            self.table.delete(key).is_some() && self.ns.remove_adu(key)
        }

        fn on_packet(&mut self, pkt: &Packet) -> Vec<Key> {
            let mut promoted = Vec::new();
            match pkt {
                Packet::Nack(n) => {
                    self.stats.nacks_rx += 1;
                    for &key in &n.keys {
                        let item = HotItem::Data(key);
                        if self.table.get(key).is_none() || self.queued.contains(&item) {
                            self.stats.nacks_suppressed += 1;
                        } else {
                            let class = self.class_of_key(key);
                            self.enqueue(class, item);
                            promoted.push(key);
                        }
                    }
                }
                Packet::RepairQuery(q) => {
                    self.stats.queries_rx += 1;
                    if self
                        .ns
                        .node_at(&q.path)
                        .is_some_and(|n| !self.ns.is_leaf(n))
                    {
                        self.enqueue(0, HotItem::Summary(q.path.clone()));
                    }
                }
                _ => unreachable!("the scripts feed NACKs and queries only"),
            }
            promoted
        }

        fn start_frag(&mut self, key: Key) -> Option<FragState> {
            let value = self.table.get(key)?.value;
            let leaf = self.ns.leaf_of(key).expect("live record has a leaf");
            let mut parent_path = self.ns.path_of(leaf);
            let slot = parent_path.pop().expect("leaf is not the root");
            Some(FragState {
                key,
                version: value.version,
                parent_path,
                slot,
                tag: self.ns.tag(leaf),
                offset: 0,
                total: value.payload_len,
            })
        }

        fn next_fragment(&mut self, state: &mut FragState) -> Option<(Packet, bool)> {
            let rec = self.table.get(state.key)?;
            if rec.value.version != state.version {
                return None;
            }
            let len = (state.total - state.offset).min(self.mtu);
            let end = state.offset + len;
            self.ns.update_adu(state.key, state.version, u64::from(end));
            self.seq += 1;
            self.stats.data_tx += 1;
            let pkt = Packet::Data(DataPacket {
                seq: self.seq - 1,
                key: state.key,
                version: state.version,
                parent_path: state.parent_path.clone(),
                slot: state.slot,
                tag: state.tag,
                offset: state.offset,
                payload_len: len,
                total_len: state.total,
            });
            state.offset = end;
            Some((pkt, end == state.total))
        }

        fn next_hot_packet(&mut self) -> Option<Packet> {
            if let Some(mut state) = self.hot_frag.take() {
                if let Some((pkt, done)) = self.next_fragment(&mut state) {
                    self.hot_frag = (!done).then_some(state);
                    return Some(pkt);
                }
            }
            loop {
                for c in 0..self.hot.len() {
                    self.hot_sched.set_backlogged(c, !self.hot[c].is_empty());
                }
                let class = self.hot_sched.pick(&mut self.sched_rng)?;
                let item = self.hot[class].pop_front().expect("flags just refreshed");
                self.hot_sched.charge(class, 1);
                self.queued.remove(&item);
                match item {
                    HotItem::Data(key) => {
                        let Some(mut state) = self.start_frag(key) else {
                            continue;
                        };
                        let (pkt, done) = self.next_fragment(&mut state).expect("just started");
                        self.hot_frag = (!done).then_some(state);
                        return Some(pkt);
                    }
                    HotItem::Summary(path) => {
                        let Some(node) = self.ns.node_at(&path) else {
                            continue;
                        };
                        if self.ns.is_leaf(node) {
                            continue;
                        }
                        let entries = self.ns.summary_entries(node);
                        self.seq += 1;
                        self.stats.node_summaries_tx += 1;
                        return Some(Packet::NodeSummary(NodeSummaryPacket {
                            seq: self.seq - 1,
                            path,
                            entries,
                        }));
                    }
                }
            }
        }

        fn next_cycle_packet(&mut self) -> Option<Packet> {
            if let Some(mut state) = self.cycle_frag.take() {
                if let Some((pkt, done)) = self.next_fragment(&mut state) {
                    self.cycle_frag = (!done).then_some(state);
                    return Some(pkt);
                }
            }
            loop {
                if self.cycle.is_empty() {
                    self.cycle = self.table.live().map(|r| r.key).collect();
                    self.cycle.reverse();
                    if self.cycle.is_empty() {
                        return None;
                    }
                }
                let key = self.cycle.pop().expect("nonempty cycle");
                let Some(mut state) = self.start_frag(key) else {
                    continue;
                };
                let (pkt, done) = self.next_fragment(&mut state).expect("just started");
                self.cycle_frag = (!done).then_some(state);
                return Some(pkt);
            }
        }

        fn summary_packet(&mut self) -> Packet {
            self.seq += 1;
            self.stats.root_summaries_tx += 1;
            Packet::RootSummary(RootSummaryPacket {
                seq: self.seq - 1,
                digest: self.ns.root_digest(),
                live_adus: self.ns.live_adus() as u32,
            })
        }

        /// Field for field what `SstpSender::fingerprint` hashes.
        fn fingerprint(&mut self) -> u64 {
            let mut h = StateHasher::new();
            h.write_u64(self.table.live_count() as u64);
            for rec in self.table.live() {
                h.write_u64(rec.key.0);
                h.write_u64(rec.value.version);
                h.write_u64(u64::from(rec.value.payload_len));
            }
            h.write_bytes(self.ns.root_digest().as_bytes());
            h.write_u64(self.hot.len() as u64);
            for q in &self.hot {
                h.write_u64(q.len() as u64);
                for item in q {
                    hash_hot_item(&mut h, item);
                }
            }
            for (&tag, &class) in &self.class_of_tag {
                h.write_u64(u64::from(tag));
                h.write_u64(class as u64);
            }
            h.write_u64(self.cycle.len() as u64);
            for key in &self.cycle {
                h.write_u64(key.0);
            }
            hash_frag(&mut h, self.hot_frag.as_ref());
            hash_frag(&mut h, self.cycle_frag.as_ref());
            h.finish()
        }

        /// The old `self_check`: queues and dedup set are one multiset.
        fn self_check(&self) -> bool {
            let items: Vec<&HotItem> = self.hot.iter().flatten().collect();
            items.len() == self.queued.len() && items.iter().all(|i| self.queued.contains(i))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense key table against the `BTreeSet`-dedup reference over
        /// random scripts — publishes under the root and under branches,
        /// with and without fragmentation, updates and withdrawals of
        /// queued and unqueued keys, NACKs naming live, dead, queued and
        /// never-published keys, repair queries for interior, leaf and
        /// missing paths, class weights 0..=3, hot, cycle and summary
        /// polls: every call returns the same packets and promotions, and
        /// `stats`, `fingerprint`, `hot_backlog` and a clean `self_check`
        /// agree after each.
        #[test]
        fn dense_key_table_matches_reference_sender(
            ops in prop::collection::vec((0u8..16, any::<u8>(), any::<u8>(), any::<u8>()), 1..160),
            fragmenting in any::<bool>(),
        ) {
            const PATHS: [&[u16]; 6] = [&[], &[0], &[1], &[0, 0], &[2], &[7, 7]];
            let mtu = if fragmenting { 400 } else { u32::MAX };
            let mut tx = SstpSender::new(HashAlgorithm::Fnv64, 1000).with_mtu(mtu);
            let mut oracle = RefSender::new(mtu);
            let mut branches = vec![tx.root()];
            let mut keys: Vec<Key> = Vec::new();
            for (op, a, b, c) in ops {
                let tag = MetaTag(u32::from(b % 4));
                match op {
                    0 if branches.len() < 5 => {
                        let parent = branches[a as usize % branches.len()];
                        let node = tx.add_branch(parent, tag);
                        prop_assert_eq!(node, oracle.ns.add_interior(parent, tag));
                        branches.push(node);
                    }
                    0..=2 => {
                        let parent = branches[a as usize % branches.len()];
                        let len = u32::from(c) * 5;
                        let key = tx.publish_sized(SimTime::ZERO, parent, tag, len);
                        prop_assert_eq!(key, oracle.publish(parent, tag, len));
                        keys.push(key);
                    }
                    3..=5 if !keys.is_empty() => {
                        let key = keys[a as usize % keys.len()];
                        if tx.table().get(key).is_some() {
                            tx.update(key);
                            oracle.update(key);
                        }
                    }
                    6 if !keys.is_empty() => {
                        let key = keys[a as usize % keys.len()];
                        prop_assert_eq!(tx.withdraw(key), oracle.withdraw(key));
                    }
                    7 | 8 => {
                        // Keys one past the last published are unknown.
                        let pick = |x: u8| Key(u64::from(x) % (keys.len() as u64 + 2));
                        let nack = Packet::Nack(NackPacket { keys: vec![pick(a), pick(b), pick(c), pick(a)] });
                        prop_assert_eq!(tx.on_packet(&nack), oracle.on_packet(&nack));
                    }
                    9 => {
                        let path = PATHS[a as usize % PATHS.len()].to_vec();
                        let query = Packet::RepairQuery(RepairQueryPacket { path });
                        prop_assert_eq!(tx.on_packet(&query), oracle.on_packet(&query));
                    }
                    10 => {
                        tx.set_class_weight(tag, u64::from(c % 4));
                        oracle.set_class_weight(tag, u64::from(c % 4));
                    }
                    11 => prop_assert_eq!(tx.next_cycle_packet(), oracle.next_cycle_packet()),
                    12 => prop_assert_eq!(tx.summary_packet(), oracle.summary_packet()),
                    _ => prop_assert_eq!(tx.next_hot_packet(), oracle.next_hot_packet()),
                }
                prop_assert_eq!(tx.stats(), oracle.stats);
                prop_assert_eq!(tx.fingerprint(), oracle.fingerprint());
                prop_assert_eq!(tx.hot_backlog(), oracle.hot.iter().map(VecDeque::len).sum::<usize>());
                prop_assert_eq!(tx.self_check(), Ok(()));
                prop_assert!(oracle.self_check());
            }
            // Drain: the two serve the backlog in the same order to the end.
            for tag in 0..4 {
                tx.set_class_weight(MetaTag(tag), 1);
                oracle.set_class_weight(MetaTag(tag), 1);
            }
            loop {
                let pkt = tx.next_hot_packet();
                prop_assert_eq!(&pkt, &oracle.next_hot_packet());
                if pkt.is_none() {
                    break;
                }
            }
            prop_assert_eq!(tx.fingerprint(), oracle.fingerprint());
        }
    }

    /// `no_queue_dedup` must stay visible to `self_check`: updating a
    /// queued key queues it twice, and the second copy outlives the bit.
    #[test]
    fn self_check_catches_a_double_queued_key() {
        let mut s = sender().with_mutations(TxMutations {
            no_queue_dedup: true,
            ..TxMutations::default()
        });
        let root = s.root();
        let k = s.publish(SimTime::ZERO, root, MetaTag(0));
        assert_eq!(s.self_check(), Ok(()));
        s.update(k);
        assert_eq!(s.hot_backlog(), 2);
        assert!(s.self_check().is_err(), "two queue entries, one bit");
        let _ = s.next_hot_packet();
        assert!(s.self_check().is_err(), "one queue entry, bit cleared");
    }

    #[test]
    fn publish_queues_immediate_transmission() {
        let mut s = sender();
        let root = s.root();
        let k = s.publish(SimTime::ZERO, root, MetaTag(1));
        assert_eq!(s.hot_backlog(), 1);
        let pkt = s.next_hot_packet().unwrap();
        match pkt {
            Packet::Data(d) => {
                assert_eq!(d.key, k);
                assert_eq!(d.version, 1);
                assert_eq!(d.seq, 0);
                assert_eq!(d.parent_path, Vec::<u16>::new());
                assert_eq!(d.slot, 0);
                assert_eq!(d.payload_len, 1000);
            }
            p => panic!("expected data, got {p:?}"),
        }
        assert!(s.next_hot_packet().is_none());
        assert_eq!(s.stats().data_tx, 1);
    }

    #[test]
    fn update_bumps_version_and_requeues() {
        let mut s = sender();
        let root = s.root();
        let k = s.publish(SimTime::ZERO, root, MetaTag(0));
        let _ = s.next_hot_packet();
        s.update(k);
        match s.next_hot_packet().unwrap() {
            Packet::Data(d) => assert_eq!(d.version, 2),
            p => panic!("{p:?}"),
        }
    }

    #[test]
    fn nack_requeues_live_keys_with_dedup() {
        let mut s = sender();
        let root = s.root();
        let k1 = s.publish(SimTime::ZERO, root, MetaTag(0));
        let k2 = s.publish(SimTime::ZERO, root, MetaTag(0));
        while s.next_hot_packet().is_some() {}

        let promoted = s.on_packet(&Packet::Nack(NackPacket {
            keys: vec![k1, k2, k1, Key(9999)],
        }));
        // k1 dup suppressed, unknown key suppressed.
        assert_eq!(promoted, vec![k1, k2]);
        assert_eq!(s.hot_backlog(), 2);
        assert_eq!(s.stats().nacks_suppressed, 2);
        assert_eq!(s.stats().nacks_rx, 1);
    }

    #[test]
    fn withdrawn_key_is_skipped_at_pop() {
        let mut s = sender();
        let root = s.root();
        let k = s.publish(SimTime::ZERO, root, MetaTag(0));
        assert!(s.withdraw(k));
        assert!(!s.withdraw(k));
        assert!(s.next_hot_packet().is_none(), "dead record never transmits");
    }

    #[test]
    fn repair_query_yields_node_summary() {
        let mut s = sender();
        let root = s.root();
        let branch = s.add_branch(root, MetaTag(2));
        s.publish(SimTime::ZERO, branch, MetaTag(2));
        while s.next_hot_packet().is_some() {}

        s.on_packet(&Packet::RepairQuery(RepairQueryPacket { path: vec![] }));
        match s.next_hot_packet().unwrap() {
            Packet::NodeSummary(ns) => {
                assert_eq!(ns.path, Vec::<u16>::new());
                assert_eq!(ns.entries.len(), 1);
            }
            p => panic!("{p:?}"),
        }
        // Query for a leaf or nonexistent path is ignored.
        s.on_packet(&Packet::RepairQuery(RepairQueryPacket { path: vec![0, 0] }));
        s.on_packet(&Packet::RepairQuery(RepairQueryPacket { path: vec![9] }));
        assert!(s.next_hot_packet().is_none());
        assert_eq!(s.stats().queries_rx, 3);
    }

    #[test]
    fn summary_packet_reflects_namespace() {
        let mut s = sender();
        let root = s.root();
        let p1 = s.summary_packet();
        s.publish(SimTime::ZERO, root, MetaTag(0));
        let p2 = s.summary_packet();
        match (p1, p2) {
            (Packet::RootSummary(a), Packet::RootSummary(b)) => {
                assert_ne!(a.digest, b.digest);
                assert_eq!(a.live_adus, 0);
                assert_eq!(b.live_adus, 1);
                assert!(b.seq > a.seq);
            }
            _ => unreachable!(),
        }
        assert_eq!(s.stats().root_summaries_tx, 2);
    }

    #[test]
    fn sequences_are_shared_and_monotone() {
        let mut s = sender();
        let root = s.root();
        s.publish(SimTime::ZERO, root, MetaTag(0));
        let seqs = [
            s.summary_packet().data_seq().unwrap(),
            s.next_hot_packet().unwrap().data_seq().unwrap(),
            s.summary_packet().data_seq().unwrap(),
        ];
        assert_eq!(seqs.to_vec(), vec![0, 1, 2]);
    }

    #[test]
    fn class_weights_bias_hot_service() {
        // Two saturated classes with weights 3:1: hot slots split 3:1.
        let mut s = sender();
        let root = s.root();
        let a = s.add_branch(root, MetaTag(1));
        let b = s.add_branch(root, MetaTag(2));
        s.set_class_weight(MetaTag(1), 3);
        s.set_class_weight(MetaTag(2), 1);
        for _ in 0..120 {
            s.publish(SimTime::ZERO, a, MetaTag(1));
            s.publish(SimTime::ZERO, b, MetaTag(2));
        }
        // Drain the first 80 slots and count per-class service.
        let mut counts = [0u32; 3];
        for _ in 0..80 {
            match s.next_hot_packet().unwrap() {
                Packet::Data(d) => counts[d.tag.0 as usize] += 1,
                p => panic!("{p:?}"),
            }
        }
        assert_eq!(counts[1] + counts[2], 80);
        let ratio = f64::from(counts[1]) / f64::from(counts[2]);
        assert!((ratio - 3.0).abs() < 0.3, "service ratio {ratio}");
    }

    #[test]
    fn zero_weight_pauses_a_class() {
        let mut s = sender();
        let root = s.root();
        let a = s.add_branch(root, MetaTag(1));
        let b = s.add_branch(root, MetaTag(2));
        s.set_class_weight(MetaTag(2), 0);
        s.publish(SimTime::ZERO, a, MetaTag(1));
        s.publish(SimTime::ZERO, b, MetaTag(2));
        match s.next_hot_packet().unwrap() {
            Packet::Data(d) => assert_eq!(d.tag, MetaTag(1)),
            p => panic!("{p:?}"),
        }
        assert!(s.next_hot_packet().is_none(), "paused class never serves");
        assert_eq!(s.hot_backlog(), 1, "paused item stays queued");
        // Raising the weight resumes service.
        s.set_class_weight(MetaTag(2), 1);
        match s.next_hot_packet().unwrap() {
            Packet::Data(d) => assert_eq!(d.tag, MetaTag(2)),
            p => panic!("{p:?}"),
        }
    }

    #[test]
    fn control_class_outranks_saturated_data() {
        // A saturated data class must not crowd out repair responses.
        let mut s = sender();
        let root = s.root();
        let a = s.add_branch(root, MetaTag(1));
        for _ in 0..50 {
            s.publish(SimTime::ZERO, a, MetaTag(1));
        }
        s.on_packet(&Packet::RepairQuery(crate::wire::RepairQueryPacket {
            path: vec![],
        }));
        // The node summary appears within the first few slots: the control
        // and data classes share the stride scheduler at equal weight 1
        // (`SstpSender::new`), so the queued data cannot starve it.
        let mut found_at = None;
        for i in 0..6 {
            if matches!(s.next_hot_packet().unwrap(), Packet::NodeSummary(_)) {
                found_at = Some(i);
                break;
            }
        }
        assert!(found_at.is_some(), "repair response starved by data");
    }

    #[test]
    fn reports_feed_loss_estimator() {
        let mut s = sender();
        assert_eq!(s.estimated_loss(), 0.0);
        s.on_packet(&Packet::ReceiverReport(ReceiverReportPacket {
            receiver_id: 0,
            highest_seq: 9,
            received: 5,
        }));
        assert!((s.estimated_loss() - 0.5).abs() < 1e-9);
        assert_eq!(s.stats().reports_rx, 1);
    }
}
