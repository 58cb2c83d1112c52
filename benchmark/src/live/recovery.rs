//! `live_recovery`: 200 sessions × 4 keys with the soak's receiver config
//! (TTL 5 s, repair backoff 100 ms), put through repeated fault rounds.
//! Each round crashes a fraction of the subscriber sessions, replays a
//! 1 s partition followed by 1 s of 25 % loss at both ingresses as
//! `RealPathFaults`, updates every session's first key inside the
//! partition, rejoins the crashed sessions at +1.4 s, and probes every
//! 10 ms until every replica agrees with its publisher again.
//!
//! Rounds alternate a failing fraction of 0.1 and 0.5: "does recovery
//! capacity stay stable when many replicas fail at once?" (ROADMAP 1b).
//!
//! This is the runtime/receiver/namespace stack used through the cold
//! path — summary, query, NACK, supervisor probe — where `live_flood`
//! uses the hot install path. It is timer-bound: CPU optimisations
//! should leave it flat; protocol or supervisor changes should move it.

use super::{check_common, fill_runtime_layers, Pair, Segments, Shape, Window};
use crate::args::Args;
use crate::ledger::{EndToEnd, Outcome};
use crate::procfs::CpuTimes;
use crate::seeded::shuffle;
use crate::span::{Name, Tracer};
use crate::stats::{self, LatencyHist};
use ss_netsim::{FaultSpec, LossSpec, RealPathFaults, SimDuration, SimRng, SimTime};
use sstp::digest::HashAlgorithm;
use sstp::receiver::ReceiverConfig;
use std::io;
use std::time::{Duration, Instant};

const TTL: SimDuration = SimDuration::from_secs(5);
const PARTITION: Duration = Duration::from_millis(1_000);
/// Partition plus the 25 % loss episode: when the schedule has healed.
const FAULT: Duration = Duration::from_millis(2_000);
const REJOIN_AT: Duration = Duration::from_millis(1_400);
const PROBE_EVERY: Duration = Duration::from_millis(10);
/// Both runtimes are polled on this fixed tick rather than at their own
/// deadlines: every protocol timer here is 100 ms or longer, and a fixed
/// cadence keeps the poll count — and so `cpu_us_per_work` — from
/// depending on how 400 sessions' deadlines happen to cluster.
const TICK: Duration = Duration::from_millis(1);
/// A session not reconverged this long after the schedule heals failed.
const GIVE_UP: Duration = Duration::from_secs(15); // 3 x TTL
/// Rounds start on a fixed schedule, one per slot, so the window's length
/// and round count do not depend on how the slowest session fared. A
/// round that overruns its slot delays the next and lowers `work_per_s`.
const SLOT: Duration = Duration::from_millis(3_300);
/// Quiet time after the last session agrees, so one round's repairs
/// never leak into the next round's fault window.
const REST: Duration = Duration::from_millis(100);
const FRACTIONS: [f64; 2] = [0.1, 0.5];

fn receiver_config(id: u32) -> ReceiverConfig {
    let mut cfg = ReceiverConfig::unicast(id, HashAlgorithm::Fnv64);
    cfg.ttl = TTL;
    cfg.repair_backoff = SimDuration::from_millis(100);
    cfg
}

const SHAPE: Shape = Shape {
    sessions: 200,
    keys_per_session: 4,
    payload: 64,
    receiver: receiver_config,
    tune: |_| {},
    // One summary interval: every phase of the 200 ms summary timer is
    // represented, so a round's MTTR does not hinge on where the
    // partition's end happens to fall in one shared phase.
    stagger: Duration::from_millis(200),
};

fn sim(d: Duration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() as u64)
}

/// The round's schedule on one runtime's own clock.
fn faults(now: SimTime, seed: u64) -> RealPathFaults {
    let spec = FaultSpec::none()
        .partition(now, now + sim(PARTITION))
        .extra_loss(
            now + sim(PARTITION),
            now + sim(FAULT),
            LossSpec::Bernoulli(0.25),
        );
    RealPathFaults::new(spec.build(SimRng::new(seed)))
}

/// Time left until the next [`TICK`] boundary counted from `t0`.
fn until_next_tick(t0: Instant) -> Duration {
    let tick = TICK.as_nanos();
    let into = t0.elapsed().as_nanos() % tick;
    Duration::from_nanos((tick - into) as u64)
}

/// The state the rounds share.
struct Rounds {
    pair: Pair,
    segments: Segments,
    rng: SimRng,
    iter: u64,
    attempted: u64,
    failed: u64,
    healed: u64,
    /// Integral of disagreeing keys over time, fault open → reconverged.
    stale_key_s: f64,
    /// MTTR by failing fraction, in [`FRACTIONS`] order.
    mttr_by_fraction: [LatencyHist; 2],
    /// (NACK packets, repair queries) sent by receivers that have since
    /// crashed: a crash discards a receiver and its counters.
    banked_repairs: (u64, u64),
}

impl Rounds {
    /// (NACK packets, repair queries) sent so far, over all receivers.
    fn repairs(&self) -> (u64, u64) {
        (0..self.pair.sessions() as u32)
            .filter_map(|sid| self.pair.subscriber.subscriber(sid))
            .fold(self.banked_repairs, |(n, q), rx| {
                (n + rx.stats().nacks_sent, q + rx.stats().queries_sent)
            })
    }

    /// Polls both runtimes once.
    fn poll(&mut self, tracer: &mut Tracer) -> io::Result<()> {
        self.pair.poll_pub(tracer, self.iter)?;
        self.pair.poll_sub(tracer, self.iter)?;
        Ok(())
    }

    /// One fault round: returns at the end of its slot, or later if some
    /// session needed longer (up to [`GIVE_UP`]).
    fn round(&mut self, tracer: &mut Tracer, index: usize) -> io::Result<()> {
        let fraction = FRACTIONS[index % FRACTIONS.len()];
        let n = self.pair.sessions();
        let t0 = Instant::now();
        let pub_faults = faults(self.pair.publisher.now(), self.rng.next_u64());
        self.pair.publisher.set_faults(pub_faults);
        let sub_faults = faults(self.pair.subscriber.now(), self.rng.next_u64());
        self.pair.subscriber.set_faults(sub_faults);

        let mut crashed: Vec<u32> = (0..n as u32).collect();
        shuffle(&mut self.rng, &mut crashed);
        crashed.truncate((fraction * n as f64).round() as usize);
        for &sid in &crashed {
            let stats = self.pair.subscriber.subscriber(sid).expect("live").stats();
            self.banked_repairs.0 += stats.nacks_sent;
            self.banked_repairs.1 += stats.queries_sent;
            self.pair.subscriber.crash(sid);
        }
        for sid in 0..n as u32 {
            let key = self.pair.keys[sid as usize][0];
            self.pair.update(sid, key);
        }

        let mut rejoined = false;
        let mut agreed_at: Vec<Option<Instant>> = vec![None; n];
        let mut waiting = n;
        let mut last_probe = t0;
        loop {
            self.iter += 1;
            tracer.enter(Name::Iter, self.iter);
            self.poll(tracer)?;
            let now = Instant::now();
            if !rejoined && now - t0 >= REJOIN_AT {
                for &sid in &crashed {
                    let id = sid + 1_000_000 * (index as u32 + 1);
                    self.pair
                        .subscriber
                        .rejoin_subscriber(sid, receiver_config(id));
                }
                rejoined = true;
            }
            if now - last_probe >= PROBE_EVERY {
                tracer.enter(Name::Probe, self.iter);
                let dt = (now - last_probe).as_secs_f64();
                last_probe = now;
                for (sid, agreed) in agreed_at.iter_mut().enumerate() {
                    if agreed.is_none() {
                        let stale = self.pair.disagreeing(sid as u32);
                        self.stale_key_s += stale as f64 * dt;
                        if stale == 0 {
                            *agreed = Some(now);
                            waiting -= 1;
                        }
                    }
                }
                tracer.exit();
            }
            let since_open = now - t0;
            if (waiting == 0 && since_open >= FAULT) || since_open >= FAULT + GIVE_UP {
                tracer.exit();
                break;
            }
            self.pair.idle(tracer, self.iter, until_next_tick(t0));
            tracer.exit();
        }

        // MTTR per session: connectivity restored (partition end) -> agrees.
        let restored = t0 + PARTITION;
        for at in agreed_at {
            self.attempted += 1;
            match at {
                Some(at) => {
                    let took = at.saturating_duration_since(restored);
                    self.segments.complete(took);
                    self.mttr_by_fraction[index % FRACTIONS.len()].record(took.as_nanos() as u64);
                    self.healed += 1;
                }
                None => self.failed += 1,
            }
        }

        // Idle out the slot, still polling, before the next round's faults.
        let until = (t0 + SLOT).max(Instant::now() + REST);
        while Instant::now() < until {
            self.iter += 1;
            tracer.enter(Name::Iter, self.iter);
            self.poll(tracer)?;
            self.pair.idle(tracer, self.iter, until_next_tick(t0));
            tracer.exit();
        }
        Ok(())
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let rounds = 2 * ((args.seconds as f64 / (2.0 * SLOT.as_secs_f64())) as usize).max(1);
    out.note(format!(
        "{rounds} rounds alternating failing fractions {FRACTIONS:?} over {} sessions x {} keys; \
         work unit: one session reconverged after a round's faults",
        SHAPE.sessions, SHAPE.keys_per_session
    ));
    let (mut pair, setup_s) = Pair::set_up(&SHAPE, args)?;

    let before = pair.open_window();
    let cpu0 = CpuTimes::now();
    let window = Instant::now();
    let mut state = Rounds {
        pair,
        segments: Segments::open(args, tracer),
        rng: SimRng::new(args.seed),
        iter: 0,
        attempted: 0,
        failed: 0,
        healed: 0,
        stale_key_s: 0.0,
        mttr_by_fraction: [LatencyHist::new(), LatencyHist::new()],
        banked_repairs: (0, 0),
    };
    let repairs_before = state.repairs();
    for index in 0..rounds {
        state.round(tracer, index)?;
        if index % 2 == 1 {
            state.segments.roll(tracer);
        }
    }
    let wall_s = window.elapsed().as_secs_f64();
    let cpu = CpuTimes::now().since(cpu0);
    let repairs = state.repairs();
    let Rounds {
        mut pair,
        segments,
        attempted,
        failed,
        healed,
        stale_key_s,
        mttr_by_fraction,
        ..
    } = state;
    let segments = segments.finish(tracer);
    let agreed = pair.converge(Duration::from_secs(5))?;
    let w = Window {
        wall_s,
        cpu,
        counters: pair.counters().since(before),
        done: healed,
        segments,
    };

    (out.attempted, out.failed) = (attempted, failed);
    check_common(&mut out, &pair, &w, agreed);
    out.check(failed == 0, || {
        format!("{failed} sessions did not reconverge within 3 x TTL")
    });

    // Pool the untraced rounds: MTTR is timer-bound, and a pooled sample
    // supports a higher percentile than any single round.
    let mut pooled = LatencyHist::new();
    let (mut done, mut wall, mut cpu_s) = (0u64, 0.0, 0.0);
    for s in w.untraced() {
        pooled.merge(&s.waits);
        done += s.done;
        wall += s.wall_s;
        cpu_s += s.cpu_s;
    }
    out.check(done > 0, || "window too short: no untraced round".into());
    let tail = stats::tail_percentile(pooled.len(), 99.0);
    if done > 0 {
        out.e2e = EndToEnd {
            setup_s,
            work_per_s: done as f64 / wall,
            cpu_us_per_work: cpu_s * 1e6 / done as f64,
            wait_p50_us: pooled.percentile_ns(50.0) / 1e3,
            wait_tail_us: pooled.percentile_ns(tail) / 1e3,
        };
    }
    out.note(format!(
        "wait_*: MTTR per (session, round), partition end -> replica agrees on every live key, \
         {} samples pooled over untraced rounds, tail = p{tail}; work_per_s and cpu_us_per_work \
         over the same rounds",
        pooled.len()
    ));

    let l = &mut out.layers;
    if healed > 0 {
        let per_heal = |x: f64| x / healed as f64;
        l.set(
            "sstp.receiver.nacks_per_heal",
            per_heal((repairs.0 - repairs_before.0) as f64),
        );
        l.set(
            "sstp.receiver.queries_per_heal",
            per_heal((repairs.1 - repairs_before.1) as f64),
        );
        l.set(
            "sstp.runtime.recovery.cpu_ms_per_heal",
            per_heal(w.cpu.total_s * 1e3),
        );
        l.set(
            "sstp.runtime.recovery.datagrams_per_heal",
            per_heal(w.counters.sent() as f64),
        );
        l.set(
            "sstp.runtime.recovery.stale_key_s_per_heal",
            per_heal(stale_key_s),
        );
    }
    let [f10, f50] = mttr_by_fraction;
    l.set(
        "sstp.runtime.recovery.mttr_p50_ms.f10",
        f10.percentile_ns(50.0) / 1e6,
    );
    l.set(
        "sstp.runtime.recovery.mttr_p50_ms.f50",
        f50.percentile_ns(50.0) / 1e6,
    );
    fill_runtime_layers(l, &pair, &w, tracer);
    Ok(out)
}
