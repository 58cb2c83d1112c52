//! `Runtime::poll` fed arbitrary datagrams from a raw loopback socket: a
//! seeded loop of garbage, empty datagrams, frames cut short, valid frames
//! for sessions that do not exist, data aimed at a publisher, and data and
//! node summaries that contradict a subscriber's mirrored tree.
//!
//! Whatever arrives, the poll does not panic, every ingress frame meets
//! exactly one counted fate, each contradicting frame is one
//! `runtime.rx.structure_conflicts`, and the subscriber's tree is what it
//! was — a root summary carrying the publisher's digest still draws no
//! repair query.

use softstate::Key;
use ss_netsim::{SimDuration, SimRng, SimTime};
use sstp::digest::{Digest, HashAlgorithm};
use sstp::namespace::MetaTag;
use sstp::receiver::ReceiverConfig;
use sstp::runtime::mux::{append_frame, decode_frames};
use sstp::runtime::{Runtime, RuntimeConfig};
use sstp::sender::SstpSender;
use sstp::wire::{
    DataPacket, NodeSummaryPacket, Packet, RepairQueryPacket, RootSummaryPacket, WireChildEntry,
};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

const PUBLISHER: u32 = 0;
const SUBSCRIBER: u32 = 1;

fn any_loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
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

/// A node summary of `path` declaring one dead slot.
fn dead_under(path: &[u16]) -> Packet {
    Packet::NodeSummary(NodeSummaryPacket {
        seq: 0,
        path: path.to_vec(),
        entries: vec![WireChildEntry::Dead { slot: 3 }],
    })
}

fn framed(session: u32, pkt: &Packet) -> Vec<u8> {
    let mut out = bytes::BytesMut::new();
    assert!(append_frame(session, pkt, &mut out));
    out.to_vec()
}

/// A well-formed packet of a random kind, keys clear of the tree's.
fn any_packet(rng: &mut SimRng) -> Packet {
    let key = 1_000 + rng.below(1_000_000);
    match rng.below(4) {
        0 => data_at(&[rng.below(4) as u16], rng.below(4) as u16, key),
        1 => Packet::RepairQuery(RepairQueryPacket {
            path: vec![rng.below(4) as u16],
        }),
        2 => Packet::RootSummary(RootSummaryPacket {
            seq: rng.below(100),
            digest: Digest::from_u64(rng.next_u64()),
            live_adus: rng.below(10) as u32,
        }),
        _ => dead_under(&[rng.below(4) as u16]),
    }
}

/// A runtime with one publisher session and one subscriber session, and a
/// raw socket it talks to.
struct Node {
    rt: Runtime,
    raw: UdpSocket,
}

impl Node {
    fn bind() -> Self {
        let raw = UdpSocket::bind(any_loopback()).expect("bind raw peer");
        raw.set_nonblocking(true).expect("nonblocking raw peer");
        let mut cfg = RuntimeConfig::loopback(any_loopback(), raw.local_addr().unwrap());
        cfg.supervisor.suspect_after = SimDuration::from_secs(3600);
        let mut rt = Runtime::bind(cfg).expect("bind runtime");
        let mut rcfg = ReceiverConfig::unicast(0, HashAlgorithm::Fnv64);
        rcfg.ttl = SimDuration::from_secs(3600);
        assert_eq!(rt.add_publisher(HashAlgorithm::Fnv64, 64), PUBLISHER);
        assert_eq!(rt.add_subscriber(rcfg), SUBSCRIBER);
        Node { rt, raw }
    }

    /// Sends `datagram` to the runtime, waits for it to land and polls.
    fn deliver(&mut self, datagram: &[u8]) {
        let to = self.rt.local_addr().unwrap();
        self.raw.send_to(datagram, to).expect("raw send");
        let give_up = Instant::now() + Duration::from_secs(5);
        while !self.rt.wait(Duration::from_millis(50)).expect("wait") {
            assert!(Instant::now() < give_up, "a loopback datagram went missing");
        }
        self.rt.poll().expect("poll");
        // What the runtime sends back is not under test.
        let mut sink = [0u8; 2048];
        while self.raw.recv_from(&mut sink).is_ok() {}
    }

    /// Repair queries the subscriber has sent, and ones still pending.
    fn queries(&self) -> (u64, usize) {
        let rx = self.rt.subscriber(SUBSCRIBER).unwrap();
        (rx.stats().queries_sent, rx.outstanding_feedback())
    }
}

#[test]
fn arbitrary_datagrams_are_counted_and_leave_the_tree_alone() {
    let mut node = Node::bind();

    // The subscriber mirrors a publisher's two-level tree: a branch in
    // the root's slot 0 holding two ADUs, and an ADU in slot 1.
    let mut tx = SstpSender::new(HashAlgorithm::Fnv64, 64);
    let root = tx.root();
    let branch = tx.add_branch(root, MetaTag(0));
    let tree: Vec<Key> = [branch, branch, root]
        .into_iter()
        .map(|parent| tx.publish(SimTime::ZERO, parent, MetaTag(0)))
        .collect();
    while let Some(pkt) = tx.next_hot_packet() {
        node.deliver(&framed(SUBSCRIBER, &pkt));
    }
    let replica = |node: &Node| -> Vec<(Key, u64)> {
        let rx = node.rt.subscriber(SUBSCRIBER).unwrap();
        rx.replica()
            .entries()
            .map(|(&k, e)| (k, e.value.version))
            .collect()
    };
    let held = replica(&node);
    assert_eq!(held.len(), tree.len(), "the tree was not mirrored");
    // The publisher's root summary matches the mirror: no query.
    let quiet = node.queries();
    let in_sync = framed(SUBSCRIBER, &tx.summary_packet());
    node.deliver(&in_sync);
    assert_eq!(
        node.queries(),
        quiet,
        "mirror and publisher disagree before the fuzz"
    );

    let conflicts: [fn(u64) -> Packet; 5] = [
        // Another key in an occupied slot.
        |k| data_at(&[0], 0, k),
        // An ADU where an interior sits.
        |k| data_at(&[], 0, k),
        // A path through a leaf.
        |k| data_at(&[1, 2], 0, k),
        // A summary of a node held as a leaf.
        |_| dead_under(&[1]),
        // A summary below a leaf.
        |_| dead_under(&[1, 2]),
    ];
    let mut rng = SimRng::new(0x1f_2a);
    let (mut conflicts_sent, mut unknown_sent) = (0u64, 0u64);
    for _ in 0..600 {
        let datagram = match rng.below(6) {
            0 => {
                let len = 1 + rng.below(120) as usize;
                let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                let frames = || decode_frames(&bytes).filter_map(Result::ok);
                // Garbage that happens to frame a packet for a live
                // session is not garbage; what frames one for no session
                // is counted as such.
                if frames().any(|f| f.session <= SUBSCRIBER) {
                    continue;
                }
                unknown_sent += frames().count() as u64;
                bytes
            }
            1 => Vec::new(),
            2 => {
                let session = rng.below(2) as u32;
                let whole = framed(session, &any_packet(&mut rng));
                whole[..1 + rng.below(whole.len() as u64 - 1) as usize].to_vec()
            }
            3 => {
                unknown_sent += 1;
                let session = 2 + rng.below(u64::from(u32::MAX) - 1) as u32;
                framed(session, &any_packet(&mut rng))
            }
            4 => {
                let pkt = data_at(&[rng.below(4) as u16], rng.below(4) as u16, rng.next_u64());
                framed(PUBLISHER, &pkt)
            }
            _ => {
                conflicts_sent += 1;
                let conflict = conflicts[rng.below(conflicts.len() as u64) as usize];
                framed(SUBSCRIBER, &conflict(1_000 + rng.below(1_000_000)))
            }
        };
        node.deliver(&datagram);
    }
    assert!(conflicts_sent > 50 && unknown_sent > 50);

    let snap = node.rt.metrics_snapshot();
    let fates = [
        "runtime.ingress.routed",
        "runtime.backpressure.drops",
        "runtime.fault.drops",
        "runtime.loss.injected",
        "runtime.route.unknown",
        "runtime.decode.errors",
    ];
    assert_eq!(
        snap.counter("runtime.ingress.frames"),
        fates.iter().map(|name| snap.counter(name)).sum::<u64>(),
        "an ingress frame was lost uncounted, or counted twice"
    );
    assert_eq!(snap.counter("runtime.backpressure.drops"), 0);
    assert_eq!(snap.counter("runtime.route.unknown"), unknown_sent);
    assert_eq!(
        snap.counter("runtime.rx.structure_conflicts"),
        conflicts_sent
    );
    assert!(node.rt.publisher(PUBLISHER).unwrap().table().live_count() == 0);

    // The tree is untouched: same replica, and the publisher's root
    // summary still matches the mirror's digest.
    assert_eq!(replica(&node), held);
    node.deliver(&in_sync);
    assert_eq!(
        node.queries(),
        quiet,
        "a conflicting frame moved the digest"
    );
    // The probe has teeth: a summary of any other tree draws a query.
    let mut other = tx.summary_packet();
    if let Packet::RootSummary(rs) = &mut other {
        rs.digest = Digest::from_u64(7);
    }
    node.deliver(&framed(SUBSCRIBER, &other));
    assert_ne!(node.queries(), quiet, "the digest probe is blind");
}

/// A crashed subscriber's conflicts stay counted, beside its successor's.
#[test]
fn structure_conflicts_survive_a_crash() {
    let mut node = Node::bind();
    let leaf = framed(SUBSCRIBER, &data_at(&[], 0, 10));
    let through_leaf = framed(SUBSCRIBER, &data_at(&[0], 0, 11));
    node.deliver(&leaf);
    node.deliver(&through_leaf);
    node.rt.crash(SUBSCRIBER);
    node.rt
        .rejoin_subscriber(SUBSCRIBER, ReceiverConfig::unicast(1, HashAlgorithm::Fnv64));
    let first = node
        .rt
        .metrics_snapshot()
        .counter("runtime.rx.structure_conflicts");
    node.deliver(&leaf);
    node.deliver(&through_leaf);
    node.deliver(&through_leaf);
    let snap = node.rt.metrics_snapshot();
    assert_eq!(
        (first, snap.counter("runtime.rx.structure_conflicts")),
        (1, 3)
    );
}
