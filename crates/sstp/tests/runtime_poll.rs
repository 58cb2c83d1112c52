//! The event-driven poll loop on the **real** path: `Runtime::poll`
//! steps only sessions that are ready or due, so what these tests pin is
//! the failure mode of that design — a missed wake-up — on every path
//! that can make a session runnable, plus the cost claim itself.
//!
//! * an idle session costs nothing between its timers
//!   (`sessions_stepped / poll.count` far below the session count, and
//!   `timers_fired` at the configured cadences);
//! * `publisher_mut` marks the session ready: an update is on the wire
//!   after the next poll, with no timer due;
//! * the cold pacer's waiting line is first come, first served: under
//!   contention every publisher gets the same number of summary slots;
//! * a crashed slot's timers die with it: whoever reuses the slot starts
//!   on its own schedule;
//! * the frames of one poll share datagrams up to the mux's budget, and
//!   every one of them is on the wire when that poll returns — throttled
//!   or not, nothing is held for the next poll to fill.
//!
//! The pure halves (the deadline index, the supervisor's indexed probe
//! schedule against the full scan it replaced) are property-tested under
//! virtual time beside their code in `runtime/pacing.rs` and
//! `runtime/supervisor.rs`.

use ss_netsim::{Bandwidth, MetricsSnapshot, SimDuration};
use sstp::digest::HashAlgorithm;
use sstp::namespace::MetaTag;
use sstp::receiver::ReceiverConfig;
use sstp::runtime::mux::{append_frame, decode_frames, frame_wire_len, Frame, DATAGRAM_BUDGET};
use sstp::runtime::{Runtime, RuntimeConfig};
use sstp::wire::{Packet, RepairQueryPacket};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

fn any_loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

/// A peer that never answers: a plain socket whose arrivals the test
/// reads directly.
fn sink() -> UdpSocket {
    let s = UdpSocket::bind(any_loopback()).expect("bind sink");
    s.set_nonblocking(true).expect("nonblocking sink");
    s
}

/// A node talking to `peer`, with supervision pushed out of the way so
/// the only datagrams are the sessions' own.
fn quiet_node(peer: &UdpSocket) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::loopback(any_loopback(), peer.local_addr().unwrap());
    cfg.supervisor.suspect_after = SimDuration::from_secs(3600);
    cfg
}

/// Every datagram waiting on `sink` right now, as the frames it carried.
fn datagrams(sink: &UdpSocket) -> Vec<Vec<Frame>> {
    let mut buf = vec![0u8; 65_536];
    let mut out = Vec::new();
    while let Ok((n, _)) = sink.recv_from(&mut buf) {
        let frames = decode_frames(&buf[..n]).map(|f| f.expect("runtime sent a malformed frame"));
        out.push(frames.collect());
    }
    out
}

/// Every frame waiting on `sink` right now.
fn arrivals(sink: &UdpSocket) -> Vec<Frame> {
    datagrams(sink).into_iter().flatten().collect()
}

/// The mux's packing rule, read off the wire: a datagram is within the
/// budget in wire-model bytes, or is one frame that could not be.
fn assert_within_budget(datagrams: &[Vec<Frame>]) {
    for frames in datagrams {
        let wire: usize = frames.iter().map(|f| frame_wire_len(&f.pkt)).sum();
        assert!(
            wire <= DATAGRAM_BUDGET || frames.len() == 1,
            "{} frames of {wire} wire-model bytes in one datagram",
            frames.len()
        );
    }
}

/// Asks each of `sids` for its root's children — one repair query per
/// session, all in one datagram from `sink` — and polls `rt` once.
fn ask_for_root_summaries(rt: &mut Runtime, sink: &UdpSocket, sids: &[u32]) {
    let mut ask = bytes::BytesMut::new();
    let query = Packet::RepairQuery(RepairQueryPacket { path: Vec::new() });
    for &sid in sids {
        assert!(append_frame(sid, &query, &mut ask));
    }
    sink.send_to(&ask, rt.local_addr().unwrap()).expect("ask");
    std::thread::sleep(Duration::from_millis(20));
    rt.poll().expect("poll");
    std::thread::sleep(Duration::from_millis(20));
}

fn egress(snap: &MetricsSnapshot) -> (u64, u64) {
    (
        snap.counter("runtime.egress.datagrams"),
        snap.counter("runtime.egress.frames"),
    )
}

/// Polls `rt` for `wall`, napping at most a millisecond, and returns the
/// frames that reached `sink` with their arrival offsets.
fn poll_for(rt: &mut Runtime, sink: &UdpSocket, wall: Duration) -> Vec<(Duration, Frame)> {
    let t0 = Instant::now();
    let mut seen = Vec::new();
    while t0.elapsed() < wall {
        let deadline = rt.poll().expect("poll");
        seen.extend(arrivals(sink).into_iter().map(|f| (t0.elapsed(), f)));
        let nap = Duration::from_micros(deadline.saturating_since(rt.now()).as_micros());
        std::thread::sleep(nap.min(Duration::from_millis(1)));
    }
    seen
}

/// One poll of each node, then a nap until the earlier of their deadlines
/// (a millisecond at most).
fn drive(pub_rt: &mut Runtime, sub_rt: &mut Runtime) {
    let a = pub_rt.poll().expect("publisher poll");
    let b = sub_rt.poll().expect("subscriber poll");
    let nap = a
        .saturating_since(pub_rt.now())
        .as_micros()
        .min(b.saturating_since(sub_rt.now()).as_micros());
    std::thread::sleep(Duration::from_micros(nap.min(1_000)));
}

fn loop_counts(snap: &MetricsSnapshot) -> (u64, u64, u64) {
    (
        snap.counter("runtime.poll.count"),
        snap.counter("runtime.poll.sessions_stepped"),
        snap.counter("runtime.poll.timers_fired"),
    )
}

/// 500 converged, idle sessions and one busy one: a poll steps the busy
/// session and whatever timers are due, not the other five hundred.
#[test]
fn idle_sessions_cost_nothing_between_their_timers() {
    const IDLE: usize = 500;
    let mut pub_rt = Runtime::bind(RuntimeConfig::loopback(any_loopback(), any_loopback()))
        .expect("bind publisher node");
    let sub_cfg = RuntimeConfig::loopback(any_loopback(), pub_rt.local_addr().unwrap());
    let (summary, report, expiry) = (
        sub_cfg.summary_interval,
        sub_cfg.report_interval,
        sub_cfg.expiry_interval,
    );
    let mut sub_rt = Runtime::bind(sub_cfg).expect("bind subscriber node");
    pub_rt.set_peer(sub_rt.local_addr().unwrap());

    let mut keys = Vec::new();
    for i in 0..=IDLE as u32 {
        let sid = pub_rt.add_publisher(HashAlgorithm::Fnv64, 64);
        sub_rt.add_subscriber(ReceiverConfig::unicast(i, HashAlgorithm::Fnv64));
        let now = pub_rt.now();
        let tx = pub_rt.publisher_mut(sid).unwrap();
        let root = tx.root();
        keys.push(tx.publish(now, root, MetaTag(0)));
        pub_rt.poll().expect("poll");
        sub_rt.poll().expect("poll");
    }
    let installed = |pub_rt: &Runtime, sub_rt: &Runtime, sid: u32| {
        let want = pub_rt
            .publisher(sid)
            .unwrap()
            .table()
            .get(keys[sid as usize]);
        let have = sub_rt
            .subscriber(sid)
            .unwrap()
            .replica()
            .get(keys[sid as usize]);
        have.is_some_and(|e| e.value.version == want.unwrap().value.version)
    };
    let budget = Instant::now() + Duration::from_secs(30);
    while !(0..=IDLE as u32).all(|sid| installed(&pub_rt, &sub_rt, sid)) {
        assert!(Instant::now() < budget, "initial convergence stalled");
        drive(&mut pub_rt, &mut sub_rt);
    }

    // One second with a single active session (the last one).
    let active = IDLE as u32;
    let before = (pub_rt.metrics_snapshot(), sub_rt.metrics_snapshot());
    let t0 = Instant::now();
    let mut updates = 0u64;
    while t0.elapsed() < Duration::from_secs(1) {
        if installed(&pub_rt, &sub_rt, active) {
            pub_rt
                .publisher_mut(active)
                .unwrap()
                .update(keys[active as usize]);
            updates += 1;
        }
        drive(&mut pub_rt, &mut sub_rt);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let after = (pub_rt.metrics_snapshot(), sub_rt.metrics_snapshot());
    assert!(
        updates > 100,
        "the active session stalled at {updates} updates"
    );

    let sessions = (IDLE + 1) as f64;
    let mut fired = 0.0;
    for (node, before, after) in [
        ("publisher", &before.0, &after.0),
        ("subscriber", &before.1, &after.1),
    ] {
        let (p0, s0, f0) = loop_counts(before);
        let (p1, s1, f1) = loop_counts(after);
        let per_poll = (s1 - s0) as f64 / (p1 - p0) as f64;
        assert!(
            per_poll <= 0.05 * sessions,
            "{node}: {per_poll:.1} sessions stepped per poll over {} polls; an O(ready) loop \
             stays under 5% of {sessions}",
            p1 - p0
        );
        fired += (f1 - f0) as f64;
    }
    // The refresh work is still done: timers fire at the configured
    // cadences. (Below the nominal sum, because a session's report and
    // expiry fall due together on the shipped intervals and share one
    // wake-up.)
    let per_s = |d: SimDuration| 1.0 / d.as_secs_f64();
    let nominal = sessions * (per_s(summary) + per_s(report) + per_s(expiry)) * wall_s;
    assert!(
        fired >= nominal / 2.0 && fired <= nominal * 2.0,
        "{fired} timers fired in {wall_s:.2} s; the configured cadences give {nominal:.0}"
    );
}

/// `publisher_mut` is a wake-up path of its own: with every timer far in
/// the future, an update made between two polls is on the wire after the
/// second.
#[test]
fn update_between_polls_is_sent_by_the_next_poll() {
    let sink = sink();
    let mut cfg = quiet_node(&sink);
    cfg.summary_interval = SimDuration::from_secs(3600);
    let mut rt = Runtime::bind(cfg).expect("bind");
    let sid = rt.add_publisher(HashAlgorithm::Fnv64, 64);
    let now = rt.now();
    let tx = rt.publisher_mut(sid).unwrap();
    let root = tx.root();
    let key = tx.publish(now, root, MetaTag(0));
    rt.poll().expect("poll");
    std::thread::sleep(Duration::from_millis(20));
    let first = arrivals(&sink);
    assert!(
        first.iter().any(|f| matches!(f.pkt, Packet::Data(_))),
        "the publish itself was not announced: {first:?}"
    );

    // Nothing is runnable: polls step no session and send nothing.
    let idle = loop_counts(&rt.metrics_snapshot());
    let wake = rt.poll().expect("poll");
    assert!(
        wake.saturating_since(rt.now()) > SimDuration::from_secs(60),
        "a timer is due at {wake:?}; the test needs a quiet runtime"
    );
    std::thread::sleep(Duration::from_millis(20));
    assert!(arrivals(&sink).is_empty());
    let (polls, stepped, fired) = loop_counts(&rt.metrics_snapshot());
    assert_eq!(
        (polls - idle.0, stepped - idle.1, fired - idle.2),
        (1, 0, 0)
    );

    rt.publisher_mut(sid).unwrap().update(key);
    rt.poll().expect("poll");
    std::thread::sleep(Duration::from_millis(20));
    let sent = arrivals(&sink);
    assert!(
        matches!(&sent[..], [Frame { session, pkt: Packet::Data(_) }] if *session == sid),
        "expected the update's data packet and nothing else, saw {sent:?}"
    );
    let (_, stepped_after, fired_after) = loop_counts(&rt.metrics_snapshot());
    assert_eq!(
        (stepped_after - stepped, fired_after - fired),
        (1, 0),
        "the update was carried by the ready list, not by a timer"
    );
}

/// Arrival order at the cold pacer is the fairness: 50 publishers want
/// 250 summaries/s between them, the pacer grants 100 ops/s, and after
/// five seconds no session has had more than one turn over any other.
#[test]
fn contended_cold_pacer_serves_publishers_in_turn() {
    const PUBLISHERS: u32 = 50;
    let sink = sink();
    let mut cfg = quiet_node(&sink);
    cfg.cold_rate = 100;
    let mut rt = Runtime::bind(cfg).expect("bind");
    for _ in 0..PUBLISHERS {
        rt.add_publisher(HashAlgorithm::Fnv64, 64);
    }
    poll_for(&mut rt, &sink, Duration::from_secs(5));

    let turns: Vec<u64> = (0..PUBLISHERS)
        .map(|sid| rt.publisher(sid).unwrap().stats().root_summaries_tx)
        .collect();
    let (least, most) = (*turns.iter().min().unwrap(), *turns.iter().max().unwrap());
    assert!(
        most - least <= 1,
        "summary slots were not shared in turn: {turns:?}"
    );
    // 100 grants/s for 5 s, plus the banked start-up burst, over 50.
    assert!(least >= 8, "pacer under-served the queue: {turns:?}");
    let snap = rt.metrics_snapshot();
    let waiting = snap.gauge("runtime.cold.queue_high_water") as u32;
    assert!(
        (2..=PUBLISHERS).contains(&waiting),
        "cold queue high water {waiting} with {PUBLISHERS} contending publishers"
    );
}

/// A crashed publisher's summary timer does not step whoever reuses its
/// slot: the newcomer is announced when installed and next touched one
/// full interval later.
#[test]
fn reused_slot_does_not_inherit_the_dead_publishers_timer() {
    let sink = sink();
    let mut cfg = quiet_node(&sink);
    cfg.summary_interval = SimDuration::from_millis(400);
    let mut rt = Runtime::bind(cfg).expect("bind");
    let old = rt.add_publisher(HashAlgorithm::Fnv64, 64);
    poll_for(&mut rt, &sink, Duration::from_millis(150));
    // The old occupant's next summary is armed for t = 400 ms.
    rt.crash(old);
    let installed_at = Instant::now();
    assert_eq!(
        rt.add_publisher(HashAlgorithm::Fnv64, 64),
        old,
        "slot reused"
    );
    let first = poll_for(&mut rt, &sink, Duration::from_millis(20));
    assert_eq!(first.len(), 1, "the newcomer's first summary: {first:?}");

    // Through the dead timer's deadline (250 ms after the install) and
    // on to just short of the newcomer's own.
    let quiet = loop_counts(&rt.metrics_snapshot());
    let early = poll_for(
        &mut rt,
        &sink,
        Duration::from_millis(330).saturating_sub(installed_at.elapsed()),
    );
    let (_, stepped, fired) = loop_counts(&rt.metrics_snapshot());
    assert!(early.is_empty(), "a summary ahead of schedule: {early:?}");
    assert_eq!(
        (stepped - quiet.1, fired - quiet.2),
        (0, 0),
        "the dead occupant's timer woke the newcomer"
    );

    let due = poll_for(&mut rt, &sink, Duration::from_millis(300));
    assert!(
        matches!(
            &due[..],
            [(
                _,
                Frame {
                    pkt: Packet::RootSummary(_),
                    ..
                }
            )]
        ),
        "the newcomer's own timer: {due:?}"
    );
}

/// `rejoin_subscriber` starts the report and expiry cadences afresh: the
/// first report comes one interval after the rejoin, not when the crashed
/// receiver's would have.
#[test]
fn rejoined_subscriber_reports_on_its_own_schedule() {
    let sink = sink();
    let mut cfg = quiet_node(&sink);
    cfg.report_interval = SimDuration::from_millis(400);
    cfg.expiry_interval = SimDuration::from_millis(400);
    let mut rt = Runtime::bind(cfg).expect("bind");
    let rcfg = |id| ReceiverConfig::unicast(id, HashAlgorithm::Fnv64);
    let sid = rt.add_subscriber(rcfg(1));
    poll_for(&mut rt, &sink, Duration::from_millis(100));
    rt.crash(sid);
    poll_for(&mut rt, &sink, Duration::from_millis(100));
    // The dead receiver would have reported at t = 400 ms, 200 ms on.
    rt.rejoin_subscriber(sid, rcfg(2));
    let rejoined = Instant::now();
    let fired_before = loop_counts(&rt.metrics_snapshot()).2;

    let early = poll_for(&mut rt, &sink, Duration::from_millis(330));
    assert!(early.is_empty(), "a report ahead of schedule: {early:?}");
    assert_eq!(loop_counts(&rt.metrics_snapshot()).2, fired_before);

    let due = poll_for(&mut rt, &sink, Duration::from_millis(400));
    let reports: Vec<_> = due
        .iter()
        .filter(|(_, f)| matches!(f.pkt, Packet::ReceiverReport(_)))
        .collect();
    assert_eq!(reports.len(), 1, "one report per interval: {due:?}");
    assert!(rejoined.elapsed() >= Duration::from_millis(400));
    // Report and expiry share a deadline here, so one wake-up serves both.
    let fired = loop_counts(&rt.metrics_snapshot()).2 - fired_before;
    assert!((1..=2).contains(&fired), "{fired} timers for one interval");
}

/// 64 publishers updated before one poll: their frames leave in as few
/// datagrams as the budget allows, and all of them leave in *that* poll —
/// the last, partial datagram included.
#[test]
fn one_poll_coalesces_its_frames_and_holds_none_back() {
    const PUBLISHERS: u32 = 64;
    let sink = sink();
    let mut cfg = quiet_node(&sink);
    cfg.summary_interval = SimDuration::from_secs(3600);
    let mut rt = Runtime::bind(cfg).expect("bind");
    let keys: Vec<_> = (0..PUBLISHERS)
        .map(|_| {
            let sid = rt.add_publisher(HashAlgorithm::Fnv64, 64);
            let now = rt.now();
            let tx = rt.publisher_mut(sid).unwrap();
            let root = tx.root();
            tx.publish(now, root, MetaTag(0))
        })
        .collect();
    // Long enough for the cold pacer to serve every first summary.
    poll_for(&mut rt, &sink, Duration::from_millis(100));

    let before = egress(&rt.metrics_snapshot());
    for (sid, &key) in keys.iter().enumerate() {
        rt.publisher_mut(sid as u32).unwrap().update(key);
    }
    rt.poll().expect("poll");
    // No second poll: what is not on the wire now was held back.
    std::thread::sleep(Duration::from_millis(20));
    let got = datagrams(&sink);
    let after = egress(&rt.metrics_snapshot());

    let frames: Vec<&Frame> = got.iter().flatten().collect();
    let mut sessions: Vec<u32> = frames.iter().map(|f| f.session).collect();
    sessions.sort_unstable();
    assert_eq!(sessions, (0..PUBLISHERS).collect::<Vec<_>>());
    assert!(frames.iter().all(|f| matches!(f.pkt, Packet::Data(_))));
    assert_within_budget(&got);

    let bytes: usize = frames.iter().map(|f| frame_wire_len(&f.pkt)).sum();
    let fewest = bytes.div_ceil(DATAGRAM_BUDGET) as u64;
    let (sent, sent_frames) = (after.0 - before.0, after.1 - before.1);
    assert_eq!(sent_frames, u64::from(PUBLISHERS));
    assert_eq!(sent, got.len() as u64);
    assert!(
        sent <= fewest + 1,
        "{sent} datagrams for {bytes} wire-model bytes; {fewest} would hold them"
    );
}

/// A node summary larger than the budget is not split and not dropped:
/// it travels alone, closing the datagram before it, and arrives whole.
#[test]
fn summary_over_the_budget_travels_alone_and_intact() {
    const KEYS: usize = 100;
    let sink = sink();
    let mut cfg = quiet_node(&sink);
    cfg.summary_interval = SimDuration::from_secs(3600);
    let mut rt = Runtime::bind(cfg).expect("bind");
    let [before, wide, after] = [(); 3].map(|()| rt.add_publisher(HashAlgorithm::Fnv64, 64));
    let now = rt.now();
    let tx = rt.publisher_mut(wide).unwrap();
    let root = tx.root();
    for k in 0..KEYS {
        tx.publish(now, root, MetaTag(k as u32));
    }
    poll_for(&mut rt, &sink, Duration::from_millis(100));

    ask_for_root_summaries(&mut rt, &sink, &[before, wide, after]);
    let got = datagrams(&sink);
    assert_within_budget(&got);

    let carriers: Vec<&[Frame]> = got
        .iter()
        .map(Vec::as_slice)
        .filter(|d| d.iter().any(|f| f.session == wide))
        .collect();
    let [[Frame {
        pkt: pkt @ Packet::NodeSummary(summary),
        ..
    }]] = carriers[..]
    else {
        panic!("the wide summary did not travel alone, once: {carriers:?}");
    };
    assert!(frame_wire_len(pkt) > DATAGRAM_BUDGET);
    assert_eq!(summary.entries.len(), KEYS, "the summary arrived whole");
    let sessions: Vec<u32> = got.iter().flatten().map(|f| f.session).collect();
    assert_eq!(sessions, [before, wide, after], "replies in queue order");
    assert_eq!(got.len(), 3, "the wide frame closed the datagram before it");
    let snap = rt.metrics_snapshot();
    assert_eq!(snap.counter("runtime.ingress.datagrams"), 1);
    assert_eq!(snap.counter("runtime.ingress.frames"), 3);
    assert_eq!(snap.counter("runtime.ingress.routed"), 3);
    assert_eq!(snap.counter("runtime.egress.drops"), 0);
}

/// The global bucket refusing mid-queue does not strand what was already
/// taken off the queue: the partial datagram is sent before `poll`
/// returns the bucket's eta.
#[test]
fn throttled_flush_still_sends_the_partial_datagram() {
    const PUBLISHERS: u32 = 20;
    let sink = sink();
    let mut cfg = quiet_node(&sink);
    cfg.summary_interval = SimDuration::from_secs(3600);
    // One second of burst is 1000 bytes: a handful of frames.
    cfg.bandwidth = Bandwidth::from_kbps(8);
    let mut rt = Runtime::bind(cfg).expect("bind");
    for _ in 0..PUBLISHERS {
        let sid = rt.add_publisher(HashAlgorithm::Fnv64, 64);
        let now = rt.now();
        let tx = rt.publisher_mut(sid).unwrap();
        let root = tx.root();
        tx.publish(now, root, MetaTag(0));
    }
    let wake = rt.poll().expect("poll");
    std::thread::sleep(Duration::from_millis(20));
    let got = datagrams(&sink);
    let snap = rt.metrics_snapshot();

    assert!(
        snap.counter("runtime.throttled") >= 1,
        "bucket never refused"
    );
    let eta = wake.saturating_since(rt.now());
    assert!(
        eta <= SimDuration::from_secs(1),
        "poll did not return the bucket's eta: {wake:?}"
    );
    let frames = got.iter().map(Vec::len).sum::<usize>() as u64;
    assert!(
        (1..u64::from(PUBLISHERS)).contains(&frames),
        "{frames} frames passed a 1000-byte bucket"
    );
    assert_eq!(got.len(), 1, "a handful of frames is one datagram");
    assert_eq!(egress(&snap), (1, frames), "popped frames all left");
    assert_within_budget(&got);
}

/// A root so wide that its node summary is more than a UDP datagram
/// holds (2729 leaves: 65,509 bytes, which the kernel refuses with
/// `EMSGSIZE`) or more than the frame's `u16` length can say (2800
/// leaves): the poll neither fails nor stalls. The summary is a counted
/// egress drop and the frame queued behind it still leaves.
#[test]
fn unsendable_summary_is_a_counted_drop_and_the_poll_goes_on() {
    for leaves in [2729usize, 2800] {
        let sink = sink();
        let mut cfg = quiet_node(&sink);
        cfg.summary_interval = SimDuration::from_secs(3600);
        cfg.session_bandwidth = Bandwidth::from_mbps(10_000);
        let mut rt = Runtime::bind(cfg).expect("bind");
        let wide = rt.add_publisher(HashAlgorithm::Fnv64, 64);
        let small = rt.add_publisher(HashAlgorithm::Fnv64, 64);
        let now = rt.now();
        let tx = rt.publisher_mut(wide).unwrap();
        let root = tx.root();
        for k in 0..leaves {
            tx.publish(now, root, MetaTag(k as u32));
        }
        poll_for(&mut rt, &sink, Duration::from_millis(200));
        let before = rt.metrics_snapshot();

        ask_for_root_summaries(&mut rt, &sink, &[wide, small]);
        let sessions: Vec<u32> = arrivals(&sink).iter().map(|f| f.session).collect();
        assert_eq!(sessions, [small], "{leaves} leaves");
        let after = rt.metrics_snapshot();
        let grew = |name| after.counter(name) - before.counter(name);
        assert_eq!(grew("runtime.egress.drops"), 1, "{leaves} leaves");
        assert_eq!(grew("runtime.egress.frames"), 1, "{leaves} leaves");
    }
}
