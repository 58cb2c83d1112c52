//! SSTP over real UDP on loopback: the sans-I/O endpoints driven by wall
//! clocks and actual sockets, as a one-publisher-session [`Runtime`]
//! peered with a one-subscriber-session one. Loss is injected
//! deterministically at the subscriber's ingress so repair paths run even
//! on a lossless loopback.
//!
//! Timing bounds are generous (seconds of budget for sub-second
//! convergence) to stay robust on loaded CI machines.

use softstate::Key;
use ss_netsim::{LossSpec, SimDuration};
use sstp::digest::HashAlgorithm;
use sstp::namespace::MetaTag;
use sstp::receiver::{ReceiverConfig, SstpReceiver};
use sstp::runtime::{Runtime, RuntimeConfig};
use sstp::sender::SstpSender;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn any_loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

/// A publisher node and a subscriber node on ephemeral ports, one session
/// each (session 0 on both). The subscriber's inbound frames pass through
/// the given loss process (the same `LossSpec` the simulator channels
/// use).
struct Pair {
    publisher: Runtime,
    subscriber: Runtime,
}

impl Pair {
    fn connected(ingress_loss: LossSpec, seed: u64) -> Self {
        let mut pub_cfg = RuntimeConfig::loopback(any_loopback(), any_loopback());
        pub_cfg.summary_interval = SimDuration::from_millis(50);
        let mut publisher = Runtime::bind(pub_cfg).expect("bind publisher");

        let mut sub_cfg = RuntimeConfig::loopback(any_loopback(), publisher.local_addr().unwrap());
        sub_cfg.ingress_loss = ingress_loss;
        sub_cfg.seed = seed;
        sub_cfg.report_interval = SimDuration::from_millis(100);
        sub_cfg.expiry_interval = SimDuration::from_millis(100);
        let mut subscriber = Runtime::bind(sub_cfg).expect("bind subscriber");
        publisher.set_peer(subscriber.local_addr().unwrap());

        let mut rcfg = ReceiverConfig::unicast(0, HashAlgorithm::Fnv64);
        rcfg.ttl = SimDuration::from_secs(3600);
        rcfg.repair_backoff = SimDuration::from_millis(60);
        assert_eq!(publisher.add_publisher(HashAlgorithm::Fnv64, 400), 0);
        assert_eq!(subscriber.add_subscriber(rcfg), 0);
        Pair {
            publisher,
            subscriber,
        }
    }

    fn sender(&self) -> &SstpSender {
        self.publisher.publisher(0).unwrap()
    }

    fn sender_mut(&mut self) -> &mut SstpSender {
        self.publisher.publisher_mut(0).unwrap()
    }

    fn receiver(&self) -> &SstpReceiver {
        self.subscriber.subscriber(0).unwrap()
    }

    /// Publishes `n` records under the root.
    fn publish(&mut self, n: usize) -> Vec<Key> {
        let now = self.publisher.now();
        let tx = self.sender_mut();
        let root = tx.root();
        (0..n).map(|_| tx.publish(now, root, MetaTag(0))).collect()
    }

    /// One poll of each node, then a wait of at most a millisecond for
    /// the subscriber's socket.
    fn step(&mut self) {
        self.publisher.poll().expect("publisher poll");
        self.subscriber.poll().expect("subscriber poll");
        self.subscriber
            .wait(Duration::from_millis(1))
            .expect("subscriber wait");
    }

    /// Steps both nodes until the subscriber holds `want` keys or `budget`
    /// elapses; returns whether it converged.
    fn drive_until(&mut self, want: usize, budget: Duration) -> bool {
        let end = Instant::now() + budget;
        while Instant::now() < end {
            self.step();
            if self.receiver().replica().len() >= want {
                return true;
            }
        }
        false
    }

    /// Frames the subscriber's ingress loss hook dropped.
    fn injected(&mut self) -> u64 {
        self.subscriber
            .metrics_snapshot()
            .counter("runtime.loss.injected")
    }
}

#[test]
fn lossless_loopback_delivers_everything() {
    let mut pair = Pair::connected(LossSpec::None, 1);
    let keys = pair.publish(20);

    assert!(
        pair.drive_until(keys.len(), Duration::from_secs(5)),
        "subscriber should hold all {} records; has {}",
        keys.len(),
        pair.receiver().replica().len()
    );
    for k in &keys {
        assert!(pair.receiver().replica().get(*k).is_some());
    }
    assert!(
        pair.publisher
            .metrics_snapshot()
            .counter("runtime.egress.frames")
            >= 20
    );
    assert!(
        pair.subscriber
            .metrics_snapshot()
            .counter("runtime.ingress.routed")
            >= 20
    );
    // A lossless spec builds no loss model and drops nothing.
    assert_eq!(pair.injected(), 0);
}

#[test]
fn injected_loss_is_repaired_via_real_feedback() {
    // 30% of frames into the subscriber are dropped; summaries + queries
    // + NACKs over the real socket must repair the gaps.
    let mut pair = Pair::connected(LossSpec::Bernoulli(0.3), 7);
    let n = 30;
    pair.publish(n);

    assert!(
        pair.drive_until(n, Duration::from_secs(10)),
        "repair did not converge: {}/{} held, {} drops injected",
        pair.receiver().replica().len(),
        n,
        pair.injected()
    );
    assert!(pair.injected() > 0, "loss must have occurred");
    // Feedback really flowed: the publisher processed NACKs or queries.
    let s = pair.sender().stats();
    assert!(
        s.nacks_rx + s.queries_rx > 0,
        "repair must have used the feedback channel: {s:?}"
    );
}

#[test]
fn bursty_injected_loss_is_repaired() {
    // The unified LossSpec lets loopback tests inject Gilbert–Elliott
    // burst loss, not just i.i.d. drops: whole summary+data trains die
    // together, which exercises repair under correlated loss.
    let mut pair = Pair::connected(
        LossSpec::Bursty {
            mean: 0.3,
            burst_len: 5.0,
        },
        11,
    );
    let n = 30;
    pair.publish(n);

    assert!(
        pair.drive_until(n, Duration::from_secs(10)),
        "repair did not converge under bursty loss: {}/{} held, {} drops",
        pair.receiver().replica().len(),
        n,
        pair.injected()
    );
    assert!(pair.injected() > 0, "burst loss must have occurred");
}

#[test]
fn updates_and_withdrawals_propagate() {
    let mut pair = Pair::connected(LossSpec::None, 3);
    let keys = pair.publish(2);
    let (k1, k2) = (keys[0], keys[1]);
    assert!(pair.drive_until(2, Duration::from_secs(5)));

    // Update k1, withdraw k2.
    pair.sender_mut().update(k1);
    pair.sender_mut().withdraw(k2);

    let end = Instant::now() + Duration::from_secs(5);
    loop {
        pair.step();
        let replica = pair.receiver().replica();
        let v_ok = replica.get(k1).is_some_and(|e| e.value.version == 2);
        if v_ok && replica.get(k2).is_none() {
            break;
        }
        assert!(Instant::now() < end, "update/withdrawal did not propagate");
    }
}

#[test]
fn reports_reach_the_publisher() {
    let mut pair = Pair::connected(LossSpec::None, 5);
    pair.publish(1);

    let end = Instant::now() + Duration::from_secs(5);
    while pair.sender().stats().reports_rx == 0 {
        pair.step();
        assert!(Instant::now() < end, "no receiver report arrived");
    }
}
