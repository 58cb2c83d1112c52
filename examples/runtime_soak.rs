//! Multi-session runtime soak over real loopback sockets, exporting the
//! runtime's health metrics as an ss-metrics JSONL artifact.
//!
//! Two [`Runtime`]s — a publisher node and a subscriber node — carry
//! `SESSIONS` concurrent SSTP sessions over one UDP socket each. Mid-run
//! a fault schedule (a partition followed by 25% extra loss) is replayed
//! as real socket-level drops at both ingresses, a tenth of the
//! subscriber sessions crash and rejoin, and the run then measures the
//! time back to full convergence.
//!
//! ```text
//! cargo run --release --example runtime_soak
//! ```
//!
//! Writes `results/metrics/runtime_soak.jsonl` (gitignored: probe and
//! drop counts depend on wall-clock scheduling, so the artifact is not
//! byte-reproducible like the simulator's).

use ss_netsim::{
    FaultSpec, LossSpec, RealPathFaults, SimDuration, SimRng, SimTime, ARTIFACT_SCHEMA_VERSION,
};
use sstp::digest::HashAlgorithm;
use sstp::namespace::MetaTag;
use sstp::receiver::ReceiverConfig;
use sstp::runtime::{Runtime, RuntimeConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const SESSIONS: usize = 100;
const TTL: SimDuration = SimDuration::from_secs(5);

fn any_loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

fn receiver_config(id: u32) -> ReceiverConfig {
    let mut cfg = ReceiverConfig::unicast(id, HashAlgorithm::Fnv64);
    cfg.ttl = TTL;
    cfg.repair_backoff = SimDuration::from_millis(100);
    cfg
}

/// How long either convergence loop may take before the run gives up.
const BUDGET: Duration = Duration::from_secs(30);

fn drive(pub_rt: &mut Runtime, sub_rt: &mut Runtime, wall: Duration) -> std::io::Result<()> {
    let end = Instant::now() + wall;
    while Instant::now() < end {
        pub_rt.poll()?;
        sub_rt.poll()?;
        sub_rt.wait(Duration::from_millis(2))?;
    }
    Ok(())
}

/// Drives both nodes until every replica agrees, or exits 1 once
/// [`BUDGET`] has passed without that.
fn converge(pub_rt: &mut Runtime, sub_rt: &mut Runtime, what: &str) -> std::io::Result<()> {
    let start = Instant::now();
    while diverged(pub_rt, sub_rt, SESSIONS) > 0 {
        if start.elapsed() > BUDGET {
            eprintln!(
                "{what} stalled: {} records still divergent after {BUDGET:?}",
                diverged(pub_rt, sub_rt, SESSIONS)
            );
            std::process::exit(1);
        }
        drive(pub_rt, sub_rt, Duration::from_millis(100))?;
    }
    Ok(())
}

fn diverged(pub_rt: &Runtime, sub_rt: &Runtime, n: usize) -> u64 {
    let mut bad = 0u64;
    for sid in 0..n as u32 {
        let tx = pub_rt.publisher(sid).expect("publisher session");
        let Some(rx) = sub_rt.subscriber(sid) else {
            continue;
        };
        for rec in tx.table().live() {
            match rx.replica().get(rec.key) {
                Some(e) if e.value.version == rec.value.version => {}
                _ => bad += 1,
            }
        }
    }
    bad
}

fn main() -> std::io::Result<()> {
    let placeholder = any_loopback();
    let mut pub_cfg = RuntimeConfig::loopback(any_loopback(), placeholder);
    pub_cfg.seed = 7;
    let mut pub_rt = Runtime::bind(pub_cfg)?;
    let mut sub_cfg = RuntimeConfig::loopback(any_loopback(), pub_rt.local_addr()?);
    sub_cfg.seed = 8;
    let mut sub_rt = Runtime::bind(sub_cfg)?;
    pub_rt.set_peer(sub_rt.local_addr()?);

    for i in 0..SESSIONS {
        pub_rt.add_publisher(HashAlgorithm::Fnv64, 64);
        sub_rt.add_subscriber(receiver_config(i as u32));
    }
    let mut first_keys = Vec::with_capacity(SESSIONS);
    for sid in 0..SESSIONS as u32 {
        let now = pub_rt.now();
        let tx = pub_rt.publisher_mut(sid).unwrap();
        let root = tx.root();
        first_keys.push(tx.publish(now, root, MetaTag(0)));
        tx.publish(now, root, MetaTag(1));
        tx.publish(now, root, MetaTag(2));
    }
    println!(
        "{SESSIONS} sessions x 3 records over {} <-> {}",
        pub_rt.local_addr()?,
        sub_rt.local_addr()?
    );

    let t0 = Instant::now();
    converge(&mut pub_rt, &mut sub_rt, "initial convergence")?;
    println!("initial convergence in {:?}", t0.elapsed());

    // Replay a fault schedule as real socket drops: 1 s partition, then
    // 1 s of 25% extra loss, with churn and updates inside the window.
    let fault_spec = |now: SimTime| {
        FaultSpec::none()
            .partition(
                now + SimDuration::from_millis(200),
                now + SimDuration::from_millis(1200),
            )
            .extra_loss(
                now + SimDuration::from_millis(1200),
                now + SimDuration::from_millis(2200),
                LossSpec::Bernoulli(0.25),
            )
    };
    pub_rt.set_faults(RealPathFaults::new(
        fault_spec(pub_rt.now()).build(SimRng::new(0x0f01)),
    ));
    let sub_schedule = fault_spec(sub_rt.now()).build(SimRng::new(0x0f02));
    let healed_at = sub_schedule.healed_at();
    sub_rt.set_faults(RealPathFaults::new(sub_schedule));
    for (i, &k) in first_keys.iter().enumerate() {
        pub_rt.publisher_mut(i as u32).unwrap().update(k);
    }
    let churned: Vec<u32> = (0..SESSIONS as u32).step_by(10).collect();
    for &sid in &churned {
        sub_rt.crash(sid);
    }
    println!(
        "fault window open: partition + extra loss, {} sessions crashed",
        churned.len()
    );
    drive(&mut pub_rt, &mut sub_rt, Duration::from_millis(1400))?;
    for &sid in &churned {
        sub_rt.rejoin_subscriber(sid, receiver_config(sid + 1_000_000));
    }
    drive(&mut pub_rt, &mut sub_rt, Duration::from_millis(1100))?;

    let t1 = Instant::now();
    converge(&mut pub_rt, &mut sub_rt, "reconvergence")?;
    let mttr = sub_rt.now().saturating_since(healed_at);
    println!(
        "reconverged {:?} after the wall probe, MTTR {:.2}s (gate: 3xTTL = {:.0}s)",
        t1.elapsed(),
        mttr.as_secs_f64(),
        TTL.as_secs_f64() * 3.0
    );
    let drops: u64 = [pub_rt.faults().unwrap(), sub_rt.faults().unwrap()]
        .iter()
        .map(|f| f.data_drops() + f.feedback_drops())
        .sum();
    println!(
        "fault drops {drops}, backpressure drops {}, inbox high-water {}, outbox high-water {}",
        sub_rt.backpressure_drops(),
        sub_rt.inbox_high_water().max(pub_rt.inbox_high_water()),
        sub_rt.outbox_high_water().max(pub_rt.outbox_high_water()),
    );

    let mut jsonl = String::new();
    pub_rt
        .metrics_snapshot()
        .write_jsonl_labeled("publisher", &mut jsonl);
    sub_rt
        .metrics_snapshot()
        .write_jsonl_labeled("subscriber", &mut jsonl);
    let payload = format!(
        "{{\"schema_version\":{ARTIFACT_SCHEMA_VERSION},\"artifact\":\"metrics\",\
         \"name\":\"runtime_soak\"}}\n{jsonl}"
    );
    let dir = std::path::Path::new("results/metrics");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("runtime_soak.jsonl");
    std::fs::write(&path, payload)?;
    println!("wrote {}", path.display());
    Ok(())
}
