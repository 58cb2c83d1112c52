//! SSTP over real UDP sockets on loopback — no simulator involved.
//!
//! A publisher announces a small table; a subscriber on another ephemeral
//! port converges through genuine datagrams, with 25% of its inbound
//! frames deterministically dropped to force the repair machinery
//! (summaries → queries → NACKs → retransmissions) onto the real wire.
//! Each end is a [`Runtime`] holding one session.
//!
//! ```text
//! cargo run --example udp_live
//! ```

use ss_netsim::{LossSpec, SimDuration};
use sstp::digest::HashAlgorithm;
use sstp::namespace::MetaTag;
use sstp::receiver::ReceiverConfig;
use sstp::runtime::{Runtime, RuntimeConfig};
use std::time::{Duration, Instant};

fn main() -> std::io::Result<()> {
    let any = "127.0.0.1:0".parse().unwrap();

    let mut pub_cfg = RuntimeConfig::loopback(any, any);
    pub_cfg.summary_interval = SimDuration::from_millis(100);
    let mut publisher = Runtime::bind(pub_cfg)?;

    let mut sub_cfg = RuntimeConfig::loopback(any, publisher.local_addr()?);
    sub_cfg.ingress_loss = LossSpec::Bernoulli(0.25); // force loss on loopback
    sub_cfg.seed = 42;
    let mut subscriber = Runtime::bind(sub_cfg)?;
    publisher.set_peer(subscriber.local_addr()?);

    let mut rcfg = ReceiverConfig::unicast(0, HashAlgorithm::Fnv64);
    rcfg.ttl = SimDuration::from_secs(3600);
    rcfg.repair_backoff = SimDuration::from_millis(80);
    let sid = publisher.add_publisher(HashAlgorithm::Fnv64, 512);
    assert_eq!(subscriber.add_subscriber(rcfg), sid);

    println!(
        "publisher {} <-> subscriber {} (25% inbound drop at the subscriber)",
        publisher.local_addr()?,
        subscriber.local_addr()?
    );

    let now = publisher.now();
    let tx = publisher.publisher_mut(sid).unwrap();
    let root = tx.root();
    let n = 40;
    for _ in 0..n {
        tx.publish(now, root, MetaTag(0));
    }
    println!("published {n} records; driving both ends...\n");

    let start = Instant::now();
    let mut last_print = 0;
    loop {
        publisher.poll()?;
        subscriber.poll()?;
        let held = subscriber.subscriber(sid).unwrap().replica().len();
        if held != last_print {
            println!(
                "  t={:5.0?}ms  subscriber holds {held:2}/{n}  (drops so far: {})",
                start.elapsed().as_millis(),
                subscriber
                    .metrics_snapshot()
                    .counter("runtime.loss.injected")
            );
            last_print = held;
        }
        if held == n {
            break;
        }
        if start.elapsed() > Duration::from_secs(15) {
            eprintln!("did not converge in 15s");
            std::process::exit(1);
        }
        subscriber.wait(Duration::from_millis(1))?;
    }

    let ps = publisher.metrics_snapshot();
    let ss = subscriber.metrics_snapshot();
    let snd = publisher.publisher(sid).unwrap().stats();
    let rcv = subscriber.subscriber(sid).unwrap().stats();
    println!("\nconverged in {:?}", start.elapsed());
    println!(
        "publisher: {} frames in {} datagrams out ({} data, {} summaries, {} repair responses)",
        ps.counter("runtime.egress.frames"),
        ps.counter("runtime.egress.datagrams"),
        snd.data_tx,
        snd.root_summaries_tx,
        snd.node_summaries_tx
    );
    println!(
        "subscriber: {} frames in, {} dropped by injection, {} NACK/query packets sent",
        ss.counter("runtime.ingress.frames"),
        ss.counter("runtime.loss.injected"),
        rcv.nacks_sent + rcv.queries_sent
    );
    Ok(())
}
