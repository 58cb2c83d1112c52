//! Property-based tests of the SSTP building blocks: wire-codec
//! round-trips for arbitrary packets, the runtime mux's multi-frame
//! datagram walk on valid, corrupted and arbitrary bytes, namespace digest
//! coherence under random operation sequences, and sender/receiver mirror
//! equivalence.
//!
//! This test binary (and no library crate) installs a counting global
//! allocator, so the namespace properties can also assert that a digest
//! refresh touches no heap, and the runtime's queues and sessions can be
//! priced in heap bytes.

// The workspace denies `unsafe_code`; a `GlobalAlloc` impl cannot be
// written without it, and it is confined to this test binary.
#![allow(unsafe_code)]

use bytes::BytesMut;
use proptest::prelude::*;
use softstate::Key;
use ss_netsim::{SimRng, SimTime};
use sstp::digest::{Digest, HashAlgorithm};
use sstp::namespace::{MetaTag, Namespace};
use sstp::receiver::{ReceiverConfig, SstpReceiver};
use sstp::runtime::mux::{append_frame, decode_frames, BoundedQueue, FrameError, FRAME_OVERHEAD};
use sstp::runtime::shed::{Outbound, ShedStats, SheddingQueue, TrafficClass};
use sstp::runtime::{Runtime, RuntimeConfig};
use sstp::sender::SstpSender;
use sstp::wire::{
    DataPacket, NackPacket, NodeSummaryPacket, Packet, ReceiverReportPacket, RepairQueryPacket,
    RootSummaryPacket, WireChildEntry,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::net::SocketAddr;

std::thread_local! {
    /// Heap allocations made by this thread (tests run on parallel
    /// threads, so a process-wide count would see the neighbours').
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes this thread has allocated and not yet freed (a block
    /// freed on another thread is credited there).
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Forwards to the system allocator and counts each allocation, and the
/// bytes it holds, against the calling thread.
struct CountingAlloc;

fn count_allocation(bytes: i64) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down, when the counter is gone and nobody reads it.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    count_bytes(bytes);
}

fn count_bytes(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a bump
// of const-initialized, destructor-free thread-local `Cell`s, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations this thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `f`'s result and the heap bytes this thread gained while running it
/// that are still held when it returns — the footprint of what it built.
fn heap_held_by<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    let out = f();
    (out, LIVE_BYTES.with(Cell::get) - before)
}

fn arb_digest() -> impl Strategy<Value = Digest> {
    prop_oneof![
        any::<u64>().prop_map(Digest::from_u64),
        any::<[u8; 16]>().prop_map(Digest::from_md5),
    ]
}

fn arb_path() -> impl Strategy<Value = Vec<u16>> {
    prop::collection::vec(any::<u16>(), 0..8)
}

fn arb_entry() -> impl Strategy<Value = WireChildEntry> {
    prop_oneof![
        any::<u16>().prop_map(|slot| WireChildEntry::Dead { slot }),
        (any::<u16>(), arb_digest(), any::<u32>()).prop_map(|(slot, digest, tag)| {
            WireChildEntry::Interior {
                slot,
                digest,
                tag: MetaTag(tag),
            }
        }),
        (any::<u16>(), any::<u64>(), arb_digest(), any::<u32>()).prop_map(
            |(slot, key, digest, tag)| WireChildEntry::Leaf {
                slot,
                key: Key(key),
                digest,
                tag: MetaTag(tag),
            }
        ),
    ]
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            arb_path(),
            any::<u16>(),
            any::<u32>(),
            (0u32..100_000, 0u32..10_000, 0u32..100_000),
        )
            .prop_map(
                |(seq, key, version, parent_path, slot, tag, (offset, payload_len, total_len))| {
                    Packet::Data(DataPacket {
                        seq,
                        key: Key(key),
                        version,
                        parent_path,
                        slot,
                        tag: MetaTag(tag),
                        offset,
                        payload_len,
                        total_len,
                    })
                }
            ),
        (any::<u64>(), arb_digest(), any::<u32>()).prop_map(|(seq, digest, live_adus)| {
            Packet::RootSummary(RootSummaryPacket {
                seq,
                digest,
                live_adus,
            })
        }),
        (
            any::<u64>(),
            arb_path(),
            prop::collection::vec(arb_entry(), 0..40)
        )
            .prop_map(
                |(seq, path, entries)| Packet::NodeSummary(NodeSummaryPacket {
                    seq,
                    path,
                    entries
                })
            ),
        arb_path().prop_map(|path| Packet::RepairQuery(RepairQueryPacket { path })),
        prop::collection::vec(any::<u64>().prop_map(Key), 0..64)
            .prop_map(|keys| Packet::Nack(NackPacket { keys })),
        (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(
            |(receiver_id, highest_seq, received)| {
                Packet::ReceiverReport(ReceiverReportPacket {
                    receiver_id,
                    highest_seq,
                    received,
                })
            }
        ),
    ]
}

/// A random namespace mutation.
#[derive(Clone, Debug)]
enum Op {
    AddBranch(u8),
    AddAdu(u8),
    Update(u8, u16),
    Remove(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u8>()).prop_map(Op::AddBranch),
            (any::<u8>()).prop_map(Op::AddAdu),
            (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Update(k, v)),
            (any::<u8>()).prop_map(Op::Remove),
        ],
        1..60,
    )
}

/// Applies ops to a namespace, tracking live keys; returns branch nodes.
fn apply_ops(ns: &mut Namespace, ops: &[Op]) {
    let mut branches = vec![ns.root()];
    let mut next_key = 0u64;
    let mut live: Vec<Key> = Vec::new();
    for op in ops {
        match *op {
            Op::AddBranch(sel) => {
                if branches.len() < 12 {
                    let parent = branches[sel as usize % branches.len()];
                    branches.push(ns.add_interior(parent, MetaTag(u32::from(sel))));
                }
            }
            Op::AddAdu(sel) => {
                let parent = branches[sel as usize % branches.len()];
                let key = Key(next_key);
                next_key += 1;
                ns.add_adu(parent, key, MetaTag(0));
                live.push(key);
            }
            Op::Update(sel, v) => {
                if !live.is_empty() {
                    let key = live[sel as usize % live.len()];
                    ns.update_adu(key, u64::from(v) + 2, u64::from(v));
                }
            }
            Op::Remove(sel) => {
                if !live.is_empty() {
                    let idx = sel as usize % live.len();
                    let key = live.swap_remove(idx);
                    ns.remove_adu(key);
                }
            }
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
        payload_len: 10,
        total_len: 10,
    })
}

/// A receiver already mirroring a two-level tree: interiors in the
/// root's slots 0 and 1 with ADUs under them, an ADU in slot 2.
fn populated_receiver() -> SstpReceiver {
    let mut rx = SstpReceiver::new(
        ReceiverConfig::unicast(0, HashAlgorithm::Fnv64),
        SimRng::new(1),
    );
    for (path, slot, key) in [(&[0][..], 0, 0), (&[0], 1, 1), (&[1], 0, 2), (&[], 2, 3)] {
        rx.on_packet(SimTime::ZERO, &data_at(path, slot, key));
    }
    assert_eq!(rx.stats().structure_conflicts, 0);
    rx
}

/// Hands `pkt` to a fresh receiver, to one already mirroring a tree, and
/// to a sender holding a branch and a few records: whatever the decoder
/// lets through, the endpoints take without panicking.
fn endpoints_accept(pkt: &Packet) {
    let fresh = SstpReceiver::new(
        ReceiverConfig::unicast(0, HashAlgorithm::Fnv64),
        SimRng::new(1),
    );
    for mut rx in [fresh, populated_receiver()] {
        rx.on_packet(SimTime::from_secs(1), pkt);
        let _ = rx.poll_feedback(SimTime::from_secs(2));
        let _ = rx.fingerprint();
    }
    let mut tx = SstpSender::new(HashAlgorithm::Fnv64, 100);
    let branch = tx.add_branch(tx.root(), MetaTag(1));
    for parent in [tx.root(), branch, branch] {
        tx.publish(SimTime::ZERO, parent, MetaTag(1));
    }
    tx.on_packet(pkt);
    while tx.next_hot_packet().is_some() {}
}

proptest! {
    /// The decoder never panics on arbitrary bytes — it either parses a
    /// packet or returns an error — reading a slice or a `Bytes` alike,
    /// and what it parses the endpoints accept. (The runtime mux decodes
    /// received frames in place.)
    #[test]
    fn decoder_is_total_on_garbage(
        mut bytes in prop::collection::vec(any::<u8>(), 0..512),
        tag in 0u8..12,
    ) {
        // Half the cases start with a valid packet tag, or next to none
        // would get past the first byte.
        if let (Some(first), 1..=6) = (bytes.first_mut(), tag) {
            *first = tag;
        }
        let decoded = Packet::decode_slice(&bytes);
        prop_assert_eq!(&decoded, &Packet::decode(bytes::Bytes::copy_from_slice(&bytes)));
        if let Ok(pkt) = decoded {
            endpoints_accept(&pkt);
        }
    }

    /// A valid encoding with a few bytes overwritten: it decodes the same
    /// from a slice and from `Bytes`, and if to a packet — usually one of
    /// the right shape with wrong fields — the endpoints accept it.
    #[test]
    fn corrupted_packets_are_accepted_or_rejected_never_fatal(
        pkt in arb_packet(),
        hits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut buf = BytesMut::new();
        pkt.encode(&mut buf);
        let mut bytes = buf.to_vec();
        for (at, byte) in hits {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        let decoded = Packet::decode_slice(&bytes);
        prop_assert_eq!(&decoded, &Packet::decode(bytes::Bytes::copy_from_slice(&bytes)));
        if let Ok(pkt) = decoded {
            endpoints_accept(&pkt);
        }
    }

    /// Random packets seldom name a node the mirror holds, so aim: data
    /// and summaries over the few paths, slots and keys of a populated
    /// mirror, most of them contradicting it. Nothing panics, a refused
    /// packet leaves the mirror as it was, and what is left still answers
    /// a digest read and passes the receiver's own check.
    #[test]
    fn populated_mirror_is_total_on_conflicting_structure(
        pkts in prop::collection::vec(
            (any::<bool>(), 0usize..6, 0u16..4, 0u64..6, 0u8..3),
            1..40,
        ),
    ) {
        const PATHS: [&[u16]; 6] = [&[], &[0], &[1], &[2], &[0, 1], &[2, 0, 1]];
        let mut rx = populated_receiver();
        for (is_data, path, slot, key, kind) in pkts {
            let pkt = if is_data {
                data_at(PATHS[path], slot, key)
            } else {
                let digest = Digest::from_u64(key);
                let tag = MetaTag(0);
                Packet::NodeSummary(NodeSummaryPacket {
                    seq: 0,
                    path: PATHS[path].to_vec(),
                    entries: vec![match kind {
                        0 => WireChildEntry::Dead { slot },
                        1 => WireChildEntry::Interior { slot, digest, tag },
                        _ => WireChildEntry::Leaf { slot, key: Key(key), digest, tag },
                    }],
                })
            };
            let before = (rx.stats().structure_conflicts, rx.fingerprint());
            rx.on_packet(SimTime::from_secs(1), &pkt);
            let _ = rx.poll_feedback(SimTime::from_secs(2));
            if is_data && rx.stats().structure_conflicts > before.0 {
                prop_assert_eq!(rx.fingerprint(), before.1, "a refused {:?} changed the receiver", pkt);
            }
            prop_assert_eq!(rx.self_check(), Ok(()));
        }
    }

    /// Decoding a valid encoding with trailing garbage still yields the
    /// original packet (datagram padding is ignored).
    #[test]
    fn decoder_ignores_trailing_bytes(pkt in arb_packet(), junk in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut buf = BytesMut::new();
        pkt.encode(&mut buf);
        buf.extend_from_slice(&junk);
        let decoded = Packet::decode(buf.freeze()).expect("decode with padding");
        prop_assert_eq!(decoded, pkt);
    }

    /// Every packet round-trips the codec bit-exactly, and every strict
    /// prefix of the encoding fails to decode as that packet (no silent
    /// truncation).
    #[test]
    fn wire_roundtrip(pkt in arb_packet()) {
        let mut buf = BytesMut::new();
        pkt.encode(&mut buf);
        let bytes = buf.freeze();
        let decoded = Packet::decode(bytes.clone()).expect("decode");
        prop_assert_eq!(&decoded, &pkt);
        prop_assert_eq!(Packet::decode_slice(&bytes), Ok(decoded));
        // Prefix robustness: decoding a truncated buffer must error or
        // yield a *different* packet, never panic.
        for cut in 0..bytes.len() {
            if let Ok(other) = Packet::decode(bytes.slice(0..cut)) { prop_assert_ne!(&other, &pkt, "prefix {} decoded equal", cut) }
        }
    }

    /// The mux's walk over a datagram is total on arbitrary bytes: it
    /// ends (each step takes a whole header or is the last), decodes no
    /// more than it was given, and only its last step can be a framing
    /// error — which is what discarding the rest means.
    #[test]
    fn frame_walk_is_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let walked: Vec<_> = decode_frames(&bytes).collect();
        prop_assert!(walked.len() <= bytes.len() / FRAME_OVERHEAD + 1);
        let decoded: usize = walked
            .iter()
            .flatten()
            .map(|f| FRAME_OVERHEAD + f.pkt.encoded_len())
            .sum();
        prop_assert!(decoded <= bytes.len());
        let cut = walked.iter().position(|f| matches!(f, Err(FrameError::Truncated)));
        prop_assert!(cut.is_none_or(|at| at == walked.len() - 1));
    }

    /// A datagram of 1..=40 frames of mixed kinds decodes to the same
    /// sessions and packets, in order.
    #[test]
    fn frame_run_roundtrip(frames in prop::collection::vec((any::<u32>(), arb_packet()), 1..41)) {
        let mut datagram = BytesMut::new();
        for (session, pkt) in &frames {
            prop_assert!(append_frame(*session, pkt, &mut datagram));
        }
        let walked: Vec<(u32, Packet)> = decode_frames(&datagram)
            .map(|f| f.map(|f| (f.session, f.pkt)))
            .collect::<Result<_, _>>()
            .expect("a valid run decodes");
        prop_assert_eq!(walked, frames);
    }

    /// One frame of a valid datagram corrupted, three ways. Its packet
    /// made undecodable: one error, and every other frame — the ones
    /// after it too — is delivered. Its `len` made to run past the end, or
    /// the datagram cut inside its header: the frames before it are
    /// delivered, then one error, and the rest is discarded. One error is
    /// one `decode_errors` in `SocketMux::recv`.
    #[test]
    fn corrupt_frame_costs_itself_or_the_tail(
        frames in prop::collection::vec((any::<u32>(), arb_packet()), 1..20),
        victim in any::<usize>(),
        how in 0u8..3,
        header_bytes in 1usize..FRAME_OVERHEAD,
    ) {
        let victim = victim % frames.len();
        let mut datagram = BytesMut::new();
        let mut starts = Vec::new();
        for (session, pkt) in &frames {
            starts.push(datagram.len());
            prop_assert!(append_frame(*session, pkt, &mut datagram));
        }
        let mut datagram = datagram.to_vec();
        let at = starts[victim];
        let survivors = match how {
            0 => {
                datagram[at + FRAME_OVERHEAD] = 0xff; // no such packet tag
                frames.len()
            }
            1 => {
                let overrun = u16::try_from(datagram.len() - at).expect("test datagrams are small");
                datagram[at + 4..at + FRAME_OVERHEAD].copy_from_slice(&overrun.to_be_bytes());
                victim + 1
            }
            _ => {
                datagram.truncate(at + header_bytes);
                victim + 1
            }
        };
        let walked: Vec<_> = decode_frames(&datagram).collect();
        prop_assert_eq!(walked.len(), survivors);
        for (i, (got, (session, pkt))) in walked.iter().zip(&frames).enumerate() {
            match got {
                Ok(f) => {
                    prop_assert_ne!(i, victim);
                    prop_assert_eq!((f.session, &f.pkt), (*session, pkt));
                }
                Err(FrameError::Wire(_)) => prop_assert_eq!((i, how), (victim, 0)),
                Err(FrameError::Truncated) => {
                    prop_assert_eq!(i, victim);
                    prop_assert_ne!(how, 0);
                }
            }
        }
        prop_assert_eq!(walked.iter().filter(|f| f.is_err()).count(), 1);
    }

    /// Identical operation sequences produce identical digests; any two
    /// different live states (almost surely) differ.
    #[test]
    fn namespace_digest_deterministic(ops in arb_ops()) {
        let mut a = Namespace::new(HashAlgorithm::Fnv64);
        let mut b = Namespace::new(HashAlgorithm::Fnv64);
        apply_ops(&mut a, &ops);
        apply_ops(&mut b, &ops);
        prop_assert_eq!(a.root_digest(), b.root_digest());
        prop_assert_eq!(a.live_adus(), b.live_adus());
        // A post-hoc mutation changes the digest.
        if let Some(leaf) = (0..100).find_map(|k| a.leaf_of(Key(k))) {
            let before = a.root_digest();
            let (key, v, r) = a.adu_info(leaf);
            a.update_adu(key, v + 1, r);
            prop_assert_ne!(a.root_digest(), before);
        }
    }

    /// Digest reads never mutate observable state: two consecutive reads
    /// agree, and interleaving reads with mutations equals batching them.
    /// And a refresh is heap-free: `update_adu` → `root_digest` allocates
    /// nothing, under either hash, however the tree is shaped.
    #[test]
    fn namespace_lazy_refresh_transparent(ops in arb_ops()) {
        let mut eager = Namespace::new(HashAlgorithm::Fnv64);
        let mut lazy = Namespace::new(HashAlgorithm::Fnv64);
        // Eager: read the digest after every op. Lazy: only at the end.
        let mut branches_e = vec![eager.root()];
        let mut branches_l = vec![lazy.root()];
        let mut next_key = 0u64;
        let mut live: Vec<Key> = Vec::new();
        for op in &ops {
            for (ns, branches) in [(&mut eager, &mut branches_e), (&mut lazy, &mut branches_l)] {
                match *op {
                    Op::AddBranch(sel) => {
                        if branches.len() < 12 {
                            let parent = branches[sel as usize % branches.len()];
                            branches.push(ns.add_interior(parent, MetaTag(u32::from(sel))));
                        }
                    }
                    Op::AddAdu(sel) => {
                        let parent = branches[sel as usize % branches.len()];
                        ns.add_adu(parent, Key(next_key), MetaTag(0));
                    }
                    Op::Update(sel, v) => {
                        if !live.is_empty() {
                            let key = live[sel as usize % live.len()];
                            ns.update_adu(key, u64::from(v) + 2, u64::from(v));
                        }
                    }
                    Op::Remove(sel) => {
                        if !live.is_empty() {
                            let idx = sel as usize % live.len();
                            ns.remove_adu(live[idx]);
                        }
                    }
                }
            }
            // Book-keep shared state after both applied.
            match *op {
                Op::AddAdu(_) => {
                    live.push(Key(next_key));
                    next_key += 1;
                }
                Op::Remove(sel)
                    if !live.is_empty() => {
                        let idx = sel as usize % live.len();
                        live.swap_remove(idx);
                    }
                _ => {}
            }
            let _ = eager.root_digest(); // interleaved read
        }
        prop_assert_eq!(eager.root_digest(), lazy.root_digest());

        let mut md5 = Namespace::new(HashAlgorithm::Md5);
        apply_ops(&mut md5, &ops);
        let _ = md5.root_digest();
        for ns in [&mut lazy, &mut md5] {
            for (round, &key) in live.iter().enumerate() {
                let allocs = allocations_during(|| {
                    ns.update_adu(key, 1_000 + round as u64, 7);
                    std::hint::black_box(ns.root_digest());
                });
                prop_assert_eq!(allocs, 0, "update_adu -> root_digest of {:?} allocated", key);
            }
        }
    }

    /// MD5 and FNV namespaces agree on *structure*: equal ops give equal
    /// digests within each algorithm, and the algorithms never produce
    /// digests of the wrong length.
    #[test]
    fn namespace_algorithms_consistent(ops in arb_ops()) {
        for algo in [HashAlgorithm::Fnv64, HashAlgorithm::Md5] {
            let mut ns = Namespace::new(algo);
            apply_ops(&mut ns, &ops);
            prop_assert_eq!(ns.root_digest().len(), algo.digest_len());
        }
    }
}

/// Nodes of up to 16 slots (`namespace::STRIDE`) keep no hash checkpoint,
/// so a tree of them — every `ss-verify` state, cloned once per transition
/// — pays nothing for the checkpointed refresh: the first digest read
/// allocates nothing and a clone allocates what it did before the read.
/// One slot more and the node holds a checkpoint table entry.
#[test]
fn narrow_namespaces_hold_no_checkpoint_allocations() {
    let clone_allocs =
        |ns: &Namespace| allocations_during(|| drop(std::hint::black_box(ns.clone())));
    let mut ns = Namespace::new(HashAlgorithm::Md5);
    let mut last = ns.root();
    for b in 0..16u64 {
        last = ns.add_interior(ns.root(), MetaTag(0));
        for k in 0..16 {
            ns.add_adu(last, Key(b * 16 + k), MetaTag(0));
        }
    }
    let unread = clone_allocs(&ns);
    let first_read = allocations_during(|| {
        std::hint::black_box(ns.root_digest());
    });
    assert_eq!(first_read, 0);
    assert_eq!(clone_allocs(&ns), unread);

    ns.add_adu(last, Key(1_000), MetaTag(0));
    let unread = clone_allocs(&ns);
    ns.root_digest();
    // The table and the one node's checkpoints.
    assert_eq!(clone_allocs(&ns), unread + 2);
}

/// A sender with `keys` records under `parent_of(tx)`, hot queue drained,
/// and one warm-up round so every queue has its steady-state capacity.
fn warmed_sender(
    keys: usize,
    parent_of: impl Fn(&mut SstpSender) -> sstp::namespace::NodeId,
) -> (SstpSender, Vec<Key>) {
    let mut tx = SstpSender::new(HashAlgorithm::Fnv64, 64);
    let parent = parent_of(&mut tx);
    let keys: Vec<Key> = (0..keys)
        .map(|k| tx.publish(SimTime::ZERO, parent, MetaTag(k as u32 % 4)))
        .collect();
    while tx.next_hot_packet().is_some() {}
    for &key in &keys {
        tx.update(key);
    }
    while tx.next_hot_packet().is_some() {}
    (tx, keys)
}

/// The per-update path of a root-level key touches no heap: the version
/// bump, the side-table lookup, the queue push and pop, and the packet
/// (whose `parent_path` is an empty `Vec`).
#[test]
fn update_and_hot_packet_of_root_level_keys_allocate_nothing() {
    let (mut tx, keys) = warmed_sender(64, |tx| tx.root());
    for &key in &keys {
        let allocs = allocations_during(|| {
            tx.update(key);
            std::hint::black_box(tx.next_hot_packet());
        });
        assert_eq!(allocs, 0, "update -> next_hot_packet of {key:?} allocated");
    }
    // The empty poll that ends a drain allocates nothing either.
    assert_eq!(
        allocations_during(|| assert!(tx.next_hot_packet().is_none())),
        0
    );
}

/// A key under a branch costs exactly its packet's `parent_path`: built
/// once, moved into the packet, never cloned.
#[test]
fn hot_packet_of_a_branch_level_key_allocates_its_parent_path_only() {
    let (mut tx, keys) = warmed_sender(16, |tx| tx.add_branch(tx.root(), MetaTag(9)));
    for &key in &keys {
        let mut pkt = None;
        let allocs = allocations_during(|| {
            tx.update(key);
            pkt = tx.next_hot_packet();
        });
        assert!(matches!(pkt, Some(Packet::Data(d)) if d.parent_path == [0]));
        assert_eq!(allocs, 1, "update -> next_hot_packet of {key:?}");
    }
}

/// Walking a datagram of root-level data frames decodes each in place:
/// no per-frame buffer, and an empty `parent_path` needs no heap.
#[test]
fn decoding_a_datagram_of_root_level_data_frames_allocates_nothing() {
    let (mut tx, keys) = warmed_sender(12, |tx| tx.root());
    let mut datagram = BytesMut::new();
    for (session, &key) in keys.iter().enumerate() {
        tx.update(key);
        let pkt = tx.next_hot_packet().expect("just updated");
        assert!(append_frame(session as u32, &pkt, &mut datagram));
    }
    let mut frames = 0;
    let allocs = allocations_during(|| {
        for frame in decode_frames(&datagram) {
            std::hint::black_box(frame.expect("valid frame"));
            frames += 1;
        }
    });
    assert_eq!((frames, allocs), (keys.len(), 0));
}

// The runtime's queues and session slots. A capacity caps a queue's
// length and is not preallocated, and a crashed slot is found in a
// lowest-first vacancy set instead of by a scan; the tests below pin the
// bounds that stay and price what an idle session holds.

fn outbound(session: u32, class: TrafficClass) -> Outbound {
    Outbound {
        session,
        class,
        pkt: Packet::RepairQuery(RepairQueryPacket { path: Vec::new() }),
    }
}

/// A fresh inbox or outbox, at the shipped capacities, holds no heap.
#[test]
fn fresh_runtime_queues_allocate_nothing() {
    let cfg = node_config();
    let inbox =
        allocations_during(|| drop(black_box(BoundedQueue::<Packet>::new(cfg.inbox_capacity))));
    let outbox = allocations_during(|| {
        drop(black_box(SheddingQueue::new(
            cfg.outbox_capacity,
            cfg.outbox_cold_watermark,
        )))
    });
    assert_eq!((inbox, outbox), (0, 0));
}

/// Growing on demand moves no bound: a queue takes exactly `capacity`
/// items, refuses and counts the next one, and its high water reaches
/// the cap and stops there. What it took comes out in order.
#[test]
fn grown_queues_refuse_exactly_at_capacity() {
    for capacity in [1, 7, 64] {
        let mut inbox = BoundedQueue::new(capacity);
        assert!((0..capacity).all(|i| inbox.push(i)));
        assert!(!inbox.push(capacity));
        assert_eq!(
            (inbox.len(), inbox.drops(), inbox.high_water()),
            (capacity, 1, capacity)
        );
        assert!((0..capacity).all(|i| inbox.pop() == Some(i)));
        assert!(inbox.is_empty());

        let mut outbox = SheddingQueue::new(capacity, capacity);
        assert!((0..capacity as u32).all(|s| outbox.push(outbound(s, TrafficClass::Hot))));
        assert!(!outbox.push(outbound(0, TrafficClass::Feedback)));
        assert_eq!(
            outbox.stats(),
            ShedStats {
                shed_cold: 0,
                shed_hot: 1
            }
        );
        assert_eq!((outbox.len(), outbox.high_water()), (capacity, capacity));
        assert!((0..capacity as u32).all(|s| outbox.pop().map(|o| o.session) == Some(s)));
        assert!(outbox.is_empty());
    }
}

/// The shed policy spelled out over a plain `Vec`: cold refused at the
/// watermark, a full queue making room by evicting its oldest cold entry,
/// and a push into a queue full of hot traffic refused as `shed_hot`.
struct ShedModel {
    items: Vec<(u32, TrafficClass)>,
    capacity: usize,
    cold_watermark: usize,
    stats: ShedStats,
    high_water: usize,
}

impl ShedModel {
    fn push(&mut self, session: u32, class: TrafficClass) -> bool {
        if class == TrafficClass::Cold && self.items.len() >= self.cold_watermark {
            self.stats.shed_cold += 1;
            return false;
        }
        if self.items.len() == self.capacity {
            match self
                .items
                .iter()
                .position(|&(_, c)| c == TrafficClass::Cold)
            {
                Some(oldest_cold) => {
                    self.items.remove(oldest_cold);
                    self.stats.shed_cold += 1;
                }
                None => {
                    self.stats.shed_hot += 1;
                    return false;
                }
            }
        }
        self.items.push((session, class));
        self.high_water = self.high_water.max(self.items.len());
        true
    }
}

/// Shipped loopback defaults. Nothing here polls, so the peer (port 0)
/// is never sent to.
fn node_config() -> RuntimeConfig {
    let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
    RuntimeConfig::loopback(any, any)
}

fn node() -> Runtime {
    Runtime::bind(node_config()).expect("bind a loopback runtime")
}

fn subscriber(id: u32) -> ReceiverConfig {
    ReceiverConfig::unicast(id, HashAlgorithm::Fnv64)
}

proptest! {
    /// The outbox grown on demand sheds, evicts and refuses exactly as
    /// the policy says, push for push, and serves FIFO.
    #[test]
    fn shedding_queue_follows_the_shed_policy(
        capacity in 1usize..12,
        watermark_share in 0usize..101,
        ops in prop::collection::vec(0u8..4, 0..200),
    ) {
        let cold_watermark = capacity * watermark_share / 100;
        let mut q = SheddingQueue::new(capacity, cold_watermark);
        let mut model = ShedModel {
            items: Vec::new(),
            capacity,
            cold_watermark,
            stats: ShedStats::default(),
            high_water: 0,
        };
        for (session, op) in ops.into_iter().enumerate() {
            let session = session as u32;
            let class = match op {
                0 => {
                    let want = (!model.items.is_empty()).then(|| model.items.remove(0).0);
                    prop_assert_eq!(q.pop().map(|o| o.session), want);
                    continue;
                }
                1 => TrafficClass::Hot,
                2 => TrafficClass::Feedback,
                _ => TrafficClass::Cold,
            };
            prop_assert_eq!(q.push(outbound(session, class)), model.push(session, class));
            prop_assert_eq!(q.stats(), model.stats);
            prop_assert_eq!((q.len(), q.high_water()), (model.items.len(), model.high_water));
            prop_assert_eq!(q.pressured(), model.items.len() >= cold_watermark);
        }
    }

    /// Against the linear scan the vacancy set replaced: after any run of
    /// installs, crashes (of live, vacant or unknown ids) and rejoins,
    /// each install gets the slot the scan gave it — the first vacant
    /// one, else a new one — and `session_count` counts occupied slots.
    #[test]
    fn installs_reuse_slots_as_the_scan_did(
        ops in prop::collection::vec((0u8..3, 0u32..24), 1..60),
    ) {
        let mut rt = node();
        let mut occupied: Vec<bool> = Vec::new();
        for (op, sid) in ops {
            match op {
                0 => {
                    let want = occupied.iter().position(|&o| !o).unwrap_or(occupied.len());
                    if want == occupied.len() {
                        occupied.push(true);
                    }
                    occupied[want] = true;
                    prop_assert_eq!(rt.add_publisher(HashAlgorithm::Fnv64, 64) as usize, want);
                }
                1 => {
                    rt.crash(sid);
                    if let Some(o) = occupied.get_mut(sid as usize) {
                        *o = false;
                    }
                }
                _ => {
                    if occupied.get(sid as usize) == Some(&false) {
                        rt.rejoin_subscriber(sid, subscriber(sid));
                        occupied[sid as usize] = true;
                    }
                }
            }
            prop_assert_eq!(rt.session_count(), occupied.iter().filter(|&&o| o).count());
        }
    }
}

/// Crash 3 of 10 sessions: `rejoin_subscriber` fills the vacancy it
/// names, the `add_*` calls take the rest lowest id first and then grow
/// the table, and crashing a vacant or unknown id changes nothing.
#[test]
fn crashed_slots_are_reused_lowest_id_first() {
    let mut rt = node();
    let sids: Vec<u32> = (0..10)
        .map(|i| match i % 2 {
            0 => rt.add_publisher(HashAlgorithm::Fnv64, 64),
            _ => rt.add_subscriber(subscriber(i)),
        })
        .collect();
    assert_eq!(
        sids,
        (0..10).collect::<Vec<_>>(),
        "a fresh runtime numbers densely"
    );
    for sid in [7, 2, 5] {
        rt.crash(sid);
    }
    rt.crash(5);
    rt.crash(99);
    assert_eq!(rt.session_count(), 7);
    assert!(rt.publisher(2).is_none() && rt.subscriber(5).is_none());

    rt.rejoin_subscriber(5, subscriber(105));
    assert!(rt.subscriber(5).is_some());
    assert_eq!(rt.add_subscriber(subscriber(102)), 2);
    assert_eq!(rt.add_publisher(HashAlgorithm::Fnv64, 64), 7);
    assert_eq!(rt.add_publisher(HashAlgorithm::Fnv64, 64), 10);
    assert_eq!(rt.session_count(), 11);
}

/// What carrying idle sessions costs in heap, at the shipped defaults: a
/// bound runtime holds at most 100 KB, and an installed session at most
/// 1.5 KiB (averaged over 256 of each kind, so the tables' growth is
/// charged to the sessions that caused it). Neither queue's capacity is
/// paid up front.
#[test]
fn idle_sessions_and_a_bound_runtime_hold_little_heap() {
    const N: u32 = 256;
    let (mut rt, bound) = heap_held_by(node);
    let ((), publishers) = heap_held_by(|| {
        for _ in 0..N {
            rt.add_publisher(HashAlgorithm::Fnv64, 64);
        }
    });
    let ((), subscribers) = heap_held_by(|| {
        for i in 0..N {
            rt.add_subscriber(subscriber(i));
        }
    });
    let per_session = [publishers, subscribers].map(|bytes| bytes / i64::from(N));
    println!(
        "bound runtime: {bound} B; per idle session (publisher, subscriber): {per_session:?} B"
    );
    assert!(bound <= 100_000, "a bound runtime holds {bound} heap bytes");
    for bytes in per_session {
        assert!(bytes <= 1536, "an idle session holds {bytes} heap bytes");
    }
}
