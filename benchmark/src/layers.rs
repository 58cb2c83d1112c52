//! Direct-call layer legs: each times one public operation of one layer
//! for a fixed op count and reports the median over [`REPS`] repetitions
//! (`*_ns`), or counts allocations per call (`*_allocs`).
//!
//! The harness cannot observe the packets a `Runtime` emits, so the legs
//! build their inputs with the same public constructors the runtime
//! uses, at the live workloads' sizes (64-byte payloads, namespaces of
//! 1 k leaves, 1000-session supervisors).

use crate::alloc_count::allocs_per_op;
use crate::ledger::Layers;
use crate::stats;
use bytes::{Bytes, BytesMut};
use softstate::Key;
use ss_netsim::{Bandwidth, EventQueue, LossSpec, MetricsRegistry, SimDuration, SimRng, SimTime};
use ss_sched::{Drr, Lottery, Scheduler, Sfq, Stride};
use sstp::digest::{fnv1a64, md5, Digest, HashAlgorithm};
use sstp::namespace::{MetaTag, Namespace};
use sstp::receiver::{ReceiverConfig, SstpReceiver};
use sstp::runtime::mux::{decode_frame, encode_frame, SocketMux};
use sstp::runtime::pacing::TokenBucket;
use sstp::runtime::shed::{Outbound, SheddingQueue, TrafficClass};
use sstp::runtime::supervisor::{Supervisor, SupervisorConfig};
use sstp::sender::SstpSender;
use sstp::wire::{
    DataPacket, NackPacket, NodeSummaryPacket, Packet, RepairQueryPacket, WireChildEntry,
};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

const REPS: usize = 5;
const PAYLOAD: u32 = 64;

/// Median over [`REPS`] of the wall nanoseconds per call of `op`.
fn ns_per_op(ops: u64, mut op: impl FnMut()) -> f64 {
    let mut reps = [0.0; REPS];
    for r in &mut reps {
        let t0 = Instant::now();
        for _ in 0..ops {
            op();
        }
        *r = t0.elapsed().as_nanos() as f64 / ops as f64;
    }
    stats::median(&mut reps)
}

/// Like [`ns_per_op`] where each call needs untimed preparation:
/// `prepare` runs outside the clock before every timed `op`, both on the
/// same `subject`.
fn ns_per_prepared_op<S, T>(
    ops: u64,
    subject: &mut S,
    mut prepare: impl FnMut(&mut S) -> T,
    mut op: impl FnMut(&mut S, T),
) -> f64 {
    let mut reps = [0.0; REPS];
    for r in &mut reps {
        let mut ns = 0u128;
        for _ in 0..ops {
            let input = prepare(subject);
            let t0 = Instant::now();
            op(subject, input);
            ns += t0.elapsed().as_nanos();
        }
        *r = ns as f64 / ops as f64;
    }
    stats::median(&mut reps)
}

pub fn run(l: &mut Layers) {
    netsim(l);
    sched(l);
    wire(l);
    digest(l);
    namespace(l);
    sender(l);
    receiver(l);
    runtime(l);
}

fn netsim(l: &mut Layers) {
    // One wheel cycle: pop the earliest event and reschedule it, with a
    // fixed pending population. Delays are drawn beforehand so the RNG
    // is priced by its own leg.
    let mut rng = SimRng::new(7);
    let delays: Vec<SimDuration> = (0..4096).map(|_| rng.exp_duration(16.0)).collect();
    for (name, population) in [
        ("netsim.wheel.cycle_ns.pop3", 3u64),
        ("netsim.wheel.cycle_ns.pop64", 64),
    ] {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(256);
        for i in 0..population {
            q.schedule_in(delays[i as usize], i);
        }
        let mut i = 0usize;
        l.set(
            name,
            ns_per_op(200_000, || {
                let (_, payload) = q.pop().expect("population is constant");
                i = (i + 1) % delays.len();
                q.schedule_in(delays[i], black_box(payload));
            }),
        );
    }

    l.set(
        "netsim.rng.next_u64_ns",
        ns_per_op(2_000_000, || {
            black_box(rng.next_u64());
        }),
    );
    l.set(
        "netsim.rng.exp_duration_ns",
        ns_per_op(500_000, || {
            black_box(rng.exp_duration(black_box(16.0)));
        }),
    );

    let mut batched = LossSpec::Bernoulli(0.2).build_batched();
    l.set(
        "netsim.loss.batched_draw_ns",
        ns_per_op(2_000_000, || {
            black_box(batched.is_lost(&mut rng));
        }),
    );
    let mut gilbert = LossSpec::Bursty {
        mean: 0.2,
        burst_len: 4.0,
    }
    .build();
    l.set(
        "netsim.loss.gilbert_draw_ns",
        ns_per_op(500_000, || {
            black_box(gilbert.is_lost(&mut rng));
        }),
    );

    let mut registry = MetricsRegistry::new();
    let counter = registry.counter("bench.counter");
    let sketch = registry.sketch("bench.sketch");
    l.set(
        "netsim.metrics.counter_add_ns",
        ns_per_op(2_000_000, || registry.add(counter, black_box(3))),
    );
    let mut us = 1u64;
    l.set(
        "netsim.metrics.sketch_observe_ns",
        ns_per_op(500_000, || {
            us = us % 1_000_000 + 997;
            registry.observe_sketch(sketch, SimDuration::from_micros(us));
        }),
    );
    black_box(registry.counter_value(counter));
}

/// One pick plus unit charge with two backlogged classes (hot, cold).
fn sched(l: &mut Layers) {
    let policies: [(&'static str, Box<dyn Scheduler>); 4] = [
        ("sched.pick_ns.lottery", Box::new(Lottery::new())),
        ("sched.pick_ns.stride", Box::new(Stride::new())),
        ("sched.pick_ns.sfq", Box::new(Sfq::new())),
        ("sched.pick_ns.drr", Box::new(Drr::new(1))),
    ];
    let mut rng = SimRng::new(1);
    for (name, mut s) in policies {
        for (class, weight) in [(0, 3), (1, 1)] {
            s.set_weight(class, weight);
            s.set_backlogged(class, true);
        }
        l.set(
            name,
            ns_per_op(500_000, || {
                let class = s.pick(&mut rng).expect("both classes backlogged");
                s.charge(class, 1);
                black_box(class);
            }),
        );
    }
}

fn data_packet() -> Packet {
    Packet::Data(DataPacket {
        seq: 123_456,
        key: Key(42),
        version: 7,
        parent_path: vec![3, 1],
        slot: 9,
        tag: MetaTag(2),
        offset: 0,
        payload_len: PAYLOAD,
        total_len: PAYLOAD,
    })
}

fn wire(l: &mut Layers) {
    // (encode metric, decode metric, allocation metric, ops, packet)
    let packets = [
        (
            "sstp.wire.encode_ns.data",
            "sstp.wire.decode_ns.data",
            Some("sstp.wire.decode_allocs.data"),
            200_000u64,
            data_packet(),
        ),
        (
            "sstp.wire.encode_ns.node_summary",
            "sstp.wire.decode_ns.node_summary",
            None,
            5_000,
            Packet::NodeSummary(NodeSummaryPacket {
                seq: 7,
                path: vec![1],
                entries: (0..64)
                    .map(|i| WireChildEntry::Leaf {
                        slot: i,
                        key: Key(u64::from(i)),
                        digest: Digest::from_u64(u64::from(i) * 7),
                        tag: MetaTag(0),
                    })
                    .collect(),
            }),
        ),
        (
            "sstp.wire.encode_ns.nack",
            "sstp.wire.decode_ns.nack",
            None,
            200_000,
            Packet::Nack(NackPacket {
                keys: (0..16).map(Key).collect(),
            }),
        ),
    ];
    for (encode, decode, decode_allocs, ops, pkt) in packets {
        let mut buf = BytesMut::with_capacity(2048);
        l.set(
            encode,
            ns_per_op(ops, || {
                buf.clear();
                pkt.encode(&mut buf);
                black_box(buf.len());
            }),
        );
        let bytes: Bytes = buf.freeze();
        let mut decode_once = || {
            black_box(Packet::decode(bytes.clone()).expect("just encoded"));
        };
        l.set(decode, ns_per_op(ops, &mut decode_once));
        if let Some(name) = decode_allocs {
            l.set(name, allocs_per_op(1_000, &mut decode_once));
        }
    }
}

fn digest(l: &mut Layers) {
    let block = [0xa5u8; 64];
    l.set(
        "sstp.digest.fnv_ns_per_64b",
        ns_per_op(100_000, || {
            black_box(fnv1a64(black_box(&block)));
        }),
    );
    l.set(
        "sstp.digest.md5_ns_per_64b",
        ns_per_op(20_000, || {
            black_box(md5(black_box(&block)));
        }),
    );
}

/// A two-level namespace: `leaves` ADUs across √leaves branches.
fn build_namespace(leaves: u64, algo: HashAlgorithm) -> Namespace {
    let mut ns = Namespace::new(algo);
    let branches = (leaves as f64).sqrt() as u64;
    let parents: Vec<_> = (0..branches)
        .map(|i| ns.add_interior(ns.root(), MetaTag(i as u32)))
        .collect();
    for k in 0..leaves {
        let b = k % branches;
        ns.add_adu(parents[b as usize], Key(k), MetaTag(b as u32));
    }
    ns.root_digest();
    ns
}

fn namespace(l: &mut Layers) {
    // The sender's hot path: bump one ADU, recompute the root digest.
    let update_root = |ns: &mut Namespace, leaves: u64, ops: u64| {
        let (mut key, mut version) = (0u64, 2u64);
        ns_per_op(ops, || {
            ns.update_adu(Key(key % leaves), version, 0);
            key += 7;
            version += 1;
            black_box(ns.root_digest());
        })
    };
    let mut l1k = build_namespace(1_024, HashAlgorithm::Fnv64);
    l.set(
        "sstp.namespace.update_root_ns.l1k",
        update_root(&mut l1k, 1_024, 5_000),
    );
    let mut l100k = build_namespace(100_000, HashAlgorithm::Fnv64);
    l.set(
        "sstp.namespace.update_root_ns.l100k",
        update_root(&mut l100k, 100_000, 500),
    );
    drop(l100k);
    let mut md5_1k = build_namespace(1_024, HashAlgorithm::Md5);
    l.set(
        "sstp.namespace.update_root_ns.l1k_md5",
        update_root(&mut md5_1k, 1_024, 2_000),
    );
    let (mut key, mut version) = (0u64, 1_000_000u64);
    l.set(
        "sstp.namespace.update_root_allocs.l1k",
        allocs_per_op(1_000, || {
            l1k.update_adu(Key(key % 1_024), version, 0);
            key += 7;
            version += 1;
            black_box(l1k.root_digest());
        }),
    );

    // The receiver's mirror of the same tree, updated in place.
    let mut mirror = Namespace::new(HashAlgorithm::Fnv64);
    let place = |k: u64| ([(k % 32) as u16], (k / 32) as u16);
    for k in 0..1_024u64 {
        let (path, slot) = place(k);
        mirror.mirror_adu(&path, slot, Key(k), 1, u64::from(PAYLOAD), MetaTag(0));
    }
    mirror.root_digest();
    let (mut k, mut version) = (0u64, 2u64);
    l.set(
        "sstp.namespace.mirror_adu_ns.l1k",
        ns_per_op(50_000, || {
            let (path, slot) = place(k % 1_024);
            mirror.mirror_adu(
                &path,
                slot,
                Key(k % 1_024),
                version,
                u64::from(PAYLOAD),
                MetaTag(0),
            );
            k += 7;
            version += 1;
        }),
    );

    // The read path: a repair response lists one node's children.
    let root = l1k.root();
    l.set(
        "sstp.namespace.summary_entries_ns",
        ns_per_op(20_000, || {
            black_box(l1k.summary_entries(root).len());
        }),
    );
    l.set(
        "sstp.namespace.build_ns_per_leaf",
        ns_per_op(1, || {
            black_box(build_namespace(1_024, HashAlgorithm::Fnv64));
        }) / 1_024.0,
    );
}

/// A sender holding `keys` records across 32 branches, hot queue drained.
fn loaded_sender(keys: u64) -> (SstpSender, Vec<Key>) {
    let mut tx = SstpSender::new(HashAlgorithm::Fnv64, PAYLOAD);
    let root = tx.root();
    let branches: Vec<_> = (0..32).map(|b| tx.add_branch(root, MetaTag(b))).collect();
    let published = (0..keys)
        .map(|k| {
            tx.publish(
                SimTime::ZERO,
                branches[(k % 32) as usize],
                MetaTag((k % 32) as u32),
            )
        })
        .collect();
    while tx.next_hot_packet().is_some() {}
    (tx, published)
}

fn sender(l: &mut Layers) {
    let (mut tx, keys) = loaded_sender(1_024);
    let mut i = 0usize;
    l.set(
        "sstp.sender.update_hot_ns",
        ns_per_op(10_000, || {
            tx.update(keys[i % keys.len()]);
            i += 7;
            black_box(tx.next_hot_packet());
        }),
    );
    l.set(
        "sstp.sender.summary_packet_ns",
        ns_per_op(200_000, || {
            black_box(tx.summary_packet());
        }),
    );
    l.set(
        "sstp.sender.cycle_packet_ns",
        ns_per_op(20_000, || {
            black_box(tx.next_cycle_packet());
        }),
    );
    // One NACK naming 16 live keys; the promoted retransmissions are
    // drained outside the clock so every NACK finds the keys unqueued.
    let mut start = 0usize;
    l.set(
        "sstp.sender.on_nack_ns",
        ns_per_prepared_op(
            1_000,
            &mut tx,
            |tx| {
                while tx.next_hot_packet().is_some() {}
                start = (start + 16) % keys.len();
                Packet::Nack(NackPacket {
                    keys: keys[start..start + 16].to_vec(),
                })
            },
            |tx, nack| {
                black_box(tx.on_packet(&nack));
            },
        ),
    );
}

/// A receiver whose replica mirrors `tx` exactly.
fn synced_receiver(tx: &mut SstpSender) -> SstpReceiver {
    let mut rx = SstpReceiver::new(
        ReceiverConfig::unicast(0, HashAlgorithm::Fnv64),
        SimRng::new(11),
    );
    while let Some(pkt) = tx.next_cycle_packet() {
        rx.on_packet(SimTime::ZERO, &pkt);
        if rx.replica().len() == tx.table().live_count() {
            break;
        }
    }
    rx
}

fn receiver(l: &mut Layers) {
    let (mut tx, keys) = loaded_sender(1_024);
    let mut rx = synced_receiver(&mut tx);
    let now = SimTime::from_secs(1);

    // Hot install: fresh versions of known keys, as `live_flood` sends.
    let mut i = 0usize;
    let mut fresh = |n: usize| -> Vec<Packet> {
        (0..n)
            .map(|_| {
                tx.update(keys[i % keys.len()]);
                i += 7;
                tx.next_hot_packet().expect("just updated")
            })
            .collect()
    };
    let mut reps = [0.0; REPS];
    for r in &mut reps {
        let batch = fresh(8_192);
        let t0 = Instant::now();
        for pkt in &batch {
            rx.on_packet(now, pkt);
        }
        *r = t0.elapsed().as_nanos() as f64 / batch.len() as f64;
    }
    l.set("sstp.receiver.on_data_ns", stats::median(&mut reps));
    let batch = fresh(1_000);
    let mut next = batch.iter();
    l.set(
        "sstp.receiver.on_data_allocs",
        allocs_per_op(1_000, || {
            rx.on_packet(now, next.next().expect("1000 packets"))
        }),
    );

    // Cold path: a root summary that matches costs one digest compare...
    let matching = tx.summary_packet();
    l.set(
        "sstp.receiver.on_root_summary_match_ns",
        ns_per_op(5_000, || rx.on_packet(now, black_box(&matching))),
    );
    l.set(
        "sstp.receiver.poll_feedback_idle_ns",
        ns_per_op(1_000_000, || {
            black_box(rx.poll_feedback(now));
        }),
    );

    // ...one that does not starts a repair descent. The sender moves on
    // without telling the receiver; each timed call is a minute later on
    // the protocol clock, beyond the longest repair backoff, and the
    // query it schedules is drained outside the clock.
    tx.update(keys[0]);
    while tx.next_hot_packet().is_some() {}
    let missing = tx.summary_packet();
    tx.on_packet(&Packet::RepairQuery(RepairQueryPacket { path: vec![] }));
    let node_summary = tx.next_hot_packet().expect("query answered");
    assert!(matches!(node_summary, Packet::NodeSummary(_)));
    let mut later = now;
    for (name, pkt) in [
        ("sstp.receiver.on_root_summary_miss_ns", &missing),
        ("sstp.receiver.on_node_summary_ns", &node_summary),
    ] {
        l.set(
            name,
            ns_per_prepared_op(
                2_000,
                &mut rx,
                |rx| {
                    black_box(rx.poll_feedback(SimTime::MAX));
                    later += SimDuration::from_secs(60);
                    later
                },
                |rx, at| rx.on_packet(at, black_box(pkt)),
            ),
        );
    }

    // Soft-state expiry of a whole replica, per entry.
    let mut reps = [0.0; REPS];
    for r in &mut reps {
        let mut victim = synced_receiver(&mut tx);
        let entries = victim.replica().len();
        let t0 = Instant::now();
        let expired = victim.expire(SimTime::from_secs(3_600));
        *r = t0.elapsed().as_nanos() as f64 / entries as f64;
        assert_eq!(expired.len(), entries, "every entry is past its TTL");
    }
    l.set(
        "sstp.receiver.expire_ns_per_entry",
        stats::median(&mut reps),
    );
}

fn runtime(l: &mut Layers) {
    let pkt = data_packet();
    let mut buf = BytesMut::with_capacity(2048);
    l.set(
        "sstp.runtime.mux.frame_encode_ns",
        ns_per_op(200_000, || {
            encode_frame(black_box(17), &pkt, &mut buf);
            black_box(buf.len());
        }),
    );
    let datagram = buf.to_vec();
    l.set(
        "sstp.runtime.mux.frame_decode_ns",
        ns_per_op(200_000, || {
            black_box(decode_frame(black_box(&datagram)).expect("just encoded"));
        }),
    );

    // One datagram through the kernel's loopback path and back out.
    let any: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
    let sockets = SocketMux::bind(any, any).and_then(|rx| {
        let tx = SocketMux::bind(any, rx.local_addr()?)?;
        Ok((tx, rx))
    });
    if let Ok((mut tx, mut rx)) = sockets {
        l.set(
            "sstp.runtime.mux.send_recv_ns",
            ns_per_op(5_000, || {
                tx.send(17, &pkt).expect("loopback send");
                black_box(rx.recv().expect("loopback recv"));
            }),
        );
    }

    let mut queue = SheddingQueue::new(4_096, 3_072);
    l.set(
        "sstp.runtime.shed.push_pop_ns",
        ns_per_op(200_000, || {
            queue.push(Outbound {
                session: 17,
                class: TrafficClass::Hot,
                pkt: pkt.clone(),
            });
            black_box(queue.pop());
        }),
    );

    let mut bucket = TokenBucket::new(Bandwidth::from_mbps(100_000));
    let mut now = SimTime::ZERO;
    l.set(
        "sstp.runtime.pacing.try_take_ns",
        ns_per_op(2_000_000, || {
            now += SimDuration::from_micros(1);
            black_box(bucket.try_take(now, 100));
        }),
    );

    // A 1000-session supervisor, everyone healthy: `heard` is the per-
    // datagram cost, `due_probes` the per-poll scan that finds nothing.
    let mut supervisor = Supervisor::new(SupervisorConfig::default(), SimRng::new(3));
    for sid in 0..1_000 {
        supervisor.register(sid, SimTime::ZERO);
    }
    let at = SimTime::from_millis(100);
    let mut sid = 0u32;
    l.set(
        "sstp.runtime.supervisor.heard_ns",
        ns_per_op(2_000_000, || {
            sid = (sid + 7) % 1_000;
            black_box(supervisor.heard(sid, at));
        }),
    );
    l.set(
        "sstp.runtime.supervisor.due_probes_ns.n1000",
        ns_per_op(10_000, || {
            black_box(supervisor.due_probes(at));
        }),
    );

    if let Ok(us) = crate::live::idle_poll_us_n1000() {
        l.set("sstp.runtime.poll.idle_us.n1000", us);
    }
}
