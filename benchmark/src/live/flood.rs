//! `live_flood`: a closed loop of 128 clients over 64 sessions × 64 keys
//! with 64-byte payloads. Each client issues its next `update(key)` once
//! the subscriber replica shows its previous one, so at most 128 updates
//! are in flight and a slower runtime receives less load.
//!
//! Per-datagram cost dominates here (wire codec, mux syscalls, queues,
//! receiver install, digest refresh): every session is active and no
//! timer matters. Budgets are raised so pacing never binds, and the
//! workload checks that it did not — otherwise the number would measure
//! the configured budget or the socket buffer, not the program.

use super::{check_common, fill_runtime_layers, segment_medians, Pair, Segments, Shape, Window};
use crate::args::Args;
use crate::ledger::Outcome;
use crate::procfs::CpuTimes;
use crate::seeded::shuffle;
use crate::span::{Name, Tracer};
use softstate::Key;
use ss_netsim::{Bandwidth, SimRng};
use sstp::digest::HashAlgorithm;
use sstp::receiver::ReceiverConfig;
use std::io;
use std::time::{Duration, Instant};

const CLIENTS: usize = 128;
/// An update not installed within this long counts as failed.
const DEADLINE: Duration = Duration::from_secs(1);
const SEGMENT: Duration = Duration::from_secs(1);

const SHAPE: Shape = Shape {
    sessions: 64,
    keys_per_session: 64,
    payload: 64,
    receiver: |id| ReceiverConfig::unicast(id, HashAlgorithm::Fnv64),
    tune: |cfg| {
        cfg.bandwidth = Bandwidth::from_mbps(100_000);
        cfg.session_bandwidth = Bandwidth::from_mbps(10_000);
    },
    stagger: Duration::ZERO,
};

struct InFlight {
    sid: u32,
    key: Key,
    version: u64,
    issued: Instant,
}

/// Every (session, key) once, key-major: consecutive entries belong to
/// different sessions, so 128 updates in flight put two in each inbox —
/// far below the 64-deep inboxes and the loopback receive buffer.
fn key_order(pair: &Pair, seed: u64) -> Vec<(u32, Key)> {
    let mut rng = SimRng::new(seed);
    let mut shuffled = |n: usize| {
        let mut v: Vec<usize> = (0..n).collect();
        shuffle(&mut rng, &mut v);
        v
    };
    let sessions = shuffled(SHAPE.sessions);
    let slots = shuffled(SHAPE.keys_per_session);
    slots
        .iter()
        .flat_map(|&k| sessions.iter().map(move |&s| (s, k)))
        .map(|(s, k)| (s as u32, pair.keys[s][k]))
        .collect()
}

pub fn run(args: &Args, tracer: &mut Tracer) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    out.note(format!(
        "closed loop, {CLIENTS} clients, {} sessions x {} keys, {} B payloads; work unit: one \
         update installed at the replica",
        SHAPE.sessions, SHAPE.keys_per_session, SHAPE.payload
    ));
    let (mut pair, setup_s) = Pair::set_up(&SHAPE, args)?;
    let order = key_order(&pair, args.seed);
    let mut cursor = 0usize;
    let mut inflight: Vec<InFlight> = Vec::with_capacity(CLIENTS);

    let before = pair.open_window();
    let cpu0 = CpuTimes::now();
    let window = Instant::now();
    let limit = Duration::from_secs(args.seconds);
    let mut segments = Segments::open(args, tracer);
    let mut iter = 0u64;
    loop {
        iter += 1;
        tracer.enter(Name::Iter, iter);

        tracer.enter(Name::Publish, iter);
        while inflight.len() < CLIENTS {
            let (sid, key) = order[cursor];
            cursor = (cursor + 1) % order.len();
            let version = pair.update(sid, key);
            inflight.push(InFlight {
                sid,
                key,
                version,
                issued: Instant::now(),
            });
            out.attempted += 1;
        }
        tracer.exit();

        pair.poll_pub(tracer, iter)?;
        pair.poll_sub(tracer, iter)?;

        tracer.enter(Name::Probe, iter);
        let now = Instant::now();
        inflight.retain(|u| {
            let age = now - u.issued;
            if pair.installed(u.sid, u.key, u.version) {
                segments.complete(age);
                false
            } else if age > DEADLINE {
                out.failed += 1;
                false
            } else {
                true
            }
        });
        tracer.exit();

        tracer.exit();
        if segments.roll_if_due(tracer, window.elapsed(), SEGMENT) && window.elapsed() >= limit {
            break;
        }
    }
    let wall_s = window.elapsed().as_secs_f64();
    let cpu = CpuTimes::now().since(cpu0);
    let segments = segments.finish(tracer);
    // Updates still in flight when the window closed were attempted but
    // are neither done nor failed; let them land, then require agreement.
    out.attempted -= inflight.len() as u64;
    let agreed = pair.converge(Duration::from_secs(5))?;
    let w = Window {
        wall_s,
        cpu,
        counters: pair.counters().since(before),
        done: segments.iter().map(|s| s.done).sum(),
        segments,
    };

    check_common(&mut out, &pair, &w, agreed);
    out.check(w.counters.throttled == 0, || {
        format!(
            "pacing throttled {} sends: the budget was measured, not the program",
            w.counters.throttled
        )
    });
    let drop_share = w.counters.kernel_drop_share();
    out.check(drop_share < 0.01, || {
        format!("kernel dropped {:.2} % of datagrams", drop_share * 100.0)
    });
    out.check(w.untraced().count() >= 2, || "window too short".into());

    let (e2e, tail) = segment_medians(&w, setup_s, 99.0);
    out.e2e = e2e;
    out.note(format!(
        "work_per_s, cpu_us_per_work, wait_*: medians over {} untraced {}-s segments, {} updates \
         in all; wait = update issued -> seen installed, tail = p{tail}",
        w.untraced().count(),
        SEGMENT.as_secs(),
        w.done
    ));
    fill_runtime_layers(&mut out.layers, &pair, &w, tracer);
    Ok(out)
}
