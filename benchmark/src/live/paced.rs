//! `live_paced`: an open loop on the shipped `RuntimeConfig::loopback`
//! defaults. 1000 sessions × 4 keys are installed, 50 of them are
//! active, and a seeded Poisson schedule issues 1000 updates/s in
//! aggregate regardless of how the runtime keeps up. Each update is timed
//! from when it was **due**, so a stall charges every update it delays.
//!
//! The cost here is the O(sessions) poll scan, idle refresh traffic and
//! wake-ups, not per-datagram work: a poll loop that steps only ready
//! sessions shows here and not on `live_flood`.

use super::{check_common, fill_runtime_layers, segment_medians, Pair, Segments, Shape, Window};
use crate::args::Args;
use crate::ledger::Outcome;
use crate::procfs::CpuTimes;
use crate::seeded::shuffle;
use crate::span::{Name, Tracer};
use crate::stats::{self, LatencyHist};
use softstate::Key;
use ss_netsim::SimRng;
use sstp::digest::HashAlgorithm;
use sstp::receiver::ReceiverConfig;
use std::io;
use std::time::{Duration, Instant};

const ACTIVE_SESSIONS: usize = 50;
/// Low enough that the loop is about 40 % busy on the reference host.
/// At 5000/s it is 70 % busy, and queueing then amplifies every few
/// percent of host jitter into tens of percent of wait.
const RATE_PER_S: f64 = 1_000.0;
/// An update not installed within this long counts as failed. One second,
/// as on `live_flood`: the reference host (a 2-vCPU microVM) now and then
/// freezes the whole process for 100 ms and more, and a tighter limit
/// would charge those freezes to the program. A freeze still lengthens
/// the waits of the segment it falls in.
const DEADLINE: Duration = Duration::from_secs(1);
const SEGMENT: Duration = Duration::from_secs(1);
/// The tail is p90 here, not p99: on the reference host (a 2-vCPU
/// microVM) the p99 of a sleeping, timer-woken loop swings by 20 % and
/// more from run to run with the host's own jitter, the p90 by a third
/// of that.
const TAIL: f64 = 90.0;
/// Sleeping costs tens of microseconds itself; shorter gaps are spun.
const SHORTEST_NAP: Duration = Duration::from_micros(20);
/// The generator keeps its schedule (no backlog builds) while, in the
/// median segment, 99 % of updates are issued within this long of their
/// due time: five mean inter-arrival gaps. Lateness is part of the wait
/// either way, since waits run from the due time. (1 ms, the obvious
/// limit, is what this host's sleep overshoot alone reaches now and then.)
const LATE_LIMIT_US: f64 = 5_000.0;

pub(super) const SHAPE: Shape = Shape {
    sessions: 1_000,
    keys_per_session: 4,
    payload: 64,
    receiver: |id| ReceiverConfig::unicast(id, HashAlgorithm::Fnv64),
    tune: |_| {},
    stagger: Duration::ZERO,
};

struct Due {
    at: Duration,
    sid: u32,
    key: Key,
}

struct Pending {
    sid: u32,
    key: Key,
    version: u64,
    due: Instant,
}

/// Poisson due times over the window; keys taken round-robin from a
/// seeded permutation of the active sessions' keys, so a key comes up
/// again only every 200 updates (200 ms). An update overtaken by the
/// key's next one counts as installed when that newer version shows.
fn schedule(pair: &Pair, seed: u64, seconds: u64) -> Vec<Due> {
    let mut rng = SimRng::new(seed);
    let mut sessions: Vec<u32> = (0..SHAPE.sessions as u32).collect();
    shuffle(&mut rng, &mut sessions);
    let mut keys: Vec<(u32, Key)> = sessions[..ACTIVE_SESSIONS]
        .iter()
        .flat_map(|&s| pair.keys[s as usize].iter().map(move |&k| (s, k)))
        .collect();
    shuffle(&mut rng, &mut keys);
    let mut out = Vec::with_capacity((seconds as f64 * RATE_PER_S * 1.05) as usize);
    let mut t = 0.0f64;
    loop {
        t += rng.exp(RATE_PER_S);
        if t >= seconds as f64 {
            return out;
        }
        let (sid, key) = keys[out.len() % keys.len()];
        out.push(Due {
            at: Duration::from_secs_f64(t),
            sid,
            key,
        });
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    out.note(format!(
        "open loop, Poisson {RATE_PER_S} updates/s over {ACTIVE_SESSIONS} active of {} sessions x \
         {} keys, shipped loopback defaults; work unit: one update installed at the replica",
        SHAPE.sessions, SHAPE.keys_per_session
    ));
    let (mut pair, setup_s) = Pair::set_up(&SHAPE, args)?;
    let dues = schedule(&pair, args.seed, args.seconds);
    let mut next = 0usize;
    let mut pending: Vec<Pending> = Vec::with_capacity(64);
    let mut late = LatencyHist::new();
    let mut late_p99_us: Vec<f64> = Vec::new();

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
        let elapsed = window.elapsed();
        while let Some(d) = dues.get(next).filter(|d| d.at <= elapsed) {
            next += 1;
            late.record((elapsed - d.at).as_nanos() as u64);
            out.attempted += 1;
            let version = pair.update(d.sid, d.key);
            pending.push(Pending {
                sid: d.sid,
                key: d.key,
                version,
                due: window + d.at,
            });
        }
        tracer.exit();

        let p = pair.poll_pub(tracer, iter)?;
        let s = pair.poll_sub(tracer, iter)?;

        tracer.enter(Name::Probe, iter);
        let now = Instant::now();
        pending.retain(|u| {
            let age = now - u.due;
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

        let elapsed = window.elapsed();
        let until_due = dues
            .get(next)
            .map_or(limit, |d| d.at)
            .saturating_sub(elapsed);
        let nap = pair.until_deadline(p, s).min(until_due);
        if nap >= SHORTEST_NAP {
            pair.idle(tracer, iter, nap);
        }

        tracer.exit();
        if segments.roll_if_due(tracer, window.elapsed(), SEGMENT) {
            let segment = std::mem::replace(&mut late, LatencyHist::new());
            late_p99_us.push(segment.percentile_ns(99.0) / 1e3);
        }
        if window.elapsed() >= limit && pending.is_empty() {
            break;
        }
    }
    let wall_s = window.elapsed().as_secs_f64();
    let cpu = CpuTimes::now().since(cpu0);
    let segments = segments.finish(tracer);
    let agreed = pair.converge(Duration::from_secs(5))?;
    let w = Window {
        wall_s,
        cpu,
        counters: pair.counters().since(before),
        done: segments.iter().map(|s| s.done).sum(),
        segments,
    };

    check_common(&mut out, &pair, &w, agreed);
    if late.len() > 0 {
        late_p99_us.push(late.percentile_ns(99.0) / 1e3);
    }
    let late_p99_us = stats::median(&mut late_p99_us);
    out.check(late_p99_us < LATE_LIMIT_US, || {
        format!("generator ran late: p99 {late_p99_us:.0} us (limit {LATE_LIMIT_US} us)")
    });
    out.check(w.untraced().count() >= 2, || "window too short".into());

    let (e2e, tail) = segment_medians(&w, setup_s, TAIL);
    out.e2e = e2e;
    out.note(format!(
        "work_per_s, cpu_us_per_work, wait_*: medians over {} untraced {}-s segments, {} updates \
         in all; wait = update due -> seen installed, tail = p{tail}; generator lateness p99 {:.0} us (median segment)",
        w.untraced().count(),
        SEGMENT.as_secs(),
        w.done,
        late_p99_us
    ));
    out.layers.set("bench.gen_late_p99_us", late_p99_us);
    fill_runtime_layers(&mut out.layers, &pair, &w, tracer);
    Ok(out)
}
