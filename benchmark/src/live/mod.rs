//! The three live workloads: a publisher `Runtime` and a subscriber
//! `Runtime` polled alternately from one thread over the host's
//! **loopback** interface, as `examples/runtime_soak.rs` does.
//!
//! The harness idles with `std::thread::sleep`, not with the runtime's
//! `wait_for_datagram`: with one thread driving both ends no datagram can
//! arrive while it sleeps, and `SO_RCVTIMEO` rounds every timeout up to
//! whole scheduler ticks (8 ms measured on the reference host), which
//! would swamp a 1 ms inter-arrival schedule.

mod flood;
mod paced;
mod recovery;

use crate::args::{Args, Workload};
use crate::ledger::{EndToEnd, Layers, Outcome};
use crate::procfs::CpuTimes;
use crate::span::{Name, Tracer};
use crate::stats::{self, LatencyHist};
use softstate::Key;
use ss_netsim::{MetricsSnapshot, SimTime};
use sstp::digest::HashAlgorithm;
use sstp::namespace::MetaTag;
use sstp::receiver::ReceiverConfig;
use sstp::runtime::{Runtime, RuntimeConfig};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub fn run(args: &Args, tracer: &mut Tracer) -> io::Result<Outcome> {
    let mut out = match args.workload {
        Workload::LiveFlood => flood::run(args, tracer)?,
        Workload::LivePaced => paced::run(args, tracer)?,
        Workload::LiveRecovery => recovery::run(args, tracer)?,
        _ => unreachable!("not a live workload"),
    };
    out.notes.insert(
        0,
        "transport: UDP over the loopback interface (127.0.0.1); one process, one thread \
         polling a publisher and a subscriber runtime alternately"
            .into(),
    );
    Ok(out)
}

/// Median wall µs of one publisher poll plus one subscriber poll over
/// `live_paced`'s 1000 installed, agreed and otherwise idle sessions: the
/// price of the O(sessions) scan with no update to carry.
pub fn idle_poll_us_n1000() -> io::Result<f64> {
    let mut tracer = Tracer::new();
    let mut pair = Pair::connect(&paced::SHAPE, 1)?;
    pair.converge(Duration::from_secs(30))?;
    let mut us = Vec::with_capacity(200);
    for _ in 0..200 {
        let t0 = Instant::now();
        pair.poll_pub(&mut tracer, 0)?;
        pair.poll_sub(&mut tracer, 0)?;
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(stats::median(&mut us))
}

/// What a workload installs before its window opens.
struct Shape {
    sessions: usize,
    keys_per_session: usize,
    payload: u32,
    receiver: fn(u32) -> ReceiverConfig,
    /// Applied to `RuntimeConfig::loopback` on both nodes.
    tune: fn(&mut RuntimeConfig),
    /// Sessions are installed evenly over this long (zero: all at once).
    /// A session's periodic timers start when it is installed, so this
    /// spreads the sessions' timer phases instead of locking them.
    stagger: Duration,
}

/// A connected publisher/subscriber pair plus the harness's own counts.
struct Pair {
    publisher: Runtime,
    subscriber: Runtime,
    /// `keys[sid]` are session `sid`'s record keys, in publish order.
    keys: Vec<Vec<Key>>,
    inbox_capacity: usize,
    outbox_capacity: usize,
    polls: u64,
    sleeps: u64,
    cold_rate_min: u32,
}

impl Pair {
    /// Binds both nodes on ephemeral loopback ports, installs the
    /// sessions and publishes the catalogue.
    fn connect(shape: &Shape, seed: u64) -> io::Result<Pair> {
        let any: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
        let mut pub_cfg = RuntimeConfig::loopback(any, any);
        pub_cfg.seed = seed ^ 0x7075_625f;
        (shape.tune)(&mut pub_cfg);
        let (inbox_capacity, outbox_capacity) = (pub_cfg.inbox_capacity, pub_cfg.outbox_capacity);
        let mut publisher = Runtime::bind(pub_cfg)?;
        let mut sub_cfg = RuntimeConfig::loopback(any, publisher.local_addr()?);
        sub_cfg.seed = seed ^ 0x7375_625f;
        (shape.tune)(&mut sub_cfg);
        let mut subscriber = Runtime::bind(sub_cfg)?;
        publisher.set_peer(subscriber.local_addr()?);

        let gap = shape.stagger / shape.sessions as u32;
        for i in 0..shape.sessions as u32 {
            let sid = publisher.add_publisher(HashAlgorithm::Fnv64, shape.payload);
            let rx_sid = subscriber.add_subscriber((shape.receiver)(i));
            assert_eq!(
                (sid, rx_sid),
                (i, i),
                "fresh runtimes number sessions densely"
            );
            if !gap.is_zero() {
                // Poll as sessions arrive: the first poll after a batch of
                // installs would restart all their timers together.
                publisher.poll()?;
                subscriber.poll()?;
                std::thread::sleep(gap);
            }
        }
        // Publish the catalogue one key per session at a time, polling in
        // between, as an application filling its store would: publishing
        // it all before the first poll sends thousands of datagrams in one
        // burst, overflows the loopback receive buffer, and turns set-up
        // into seconds of NACK repair.
        let mut keys = vec![Vec::with_capacity(shape.keys_per_session); shape.sessions];
        for k in 0..shape.keys_per_session {
            for (sid, session_keys) in keys.iter_mut().enumerate() {
                let now = publisher.now();
                let tx = publisher.publisher_mut(sid as u32).expect("just added");
                let root = tx.root();
                session_keys.push(tx.publish(now, root, MetaTag(k as u32 % 4)));
            }
            publisher.poll()?;
            subscriber.poll()?;
        }
        let cold_rate_min = publisher.cold_rate();
        Ok(Pair {
            publisher,
            subscriber,
            keys,
            inbox_capacity,
            outbox_capacity,
            polls: 0,
            sleeps: 0,
            cold_rate_min,
        })
    }

    /// Connects and runs to first full agreement — the catch-up path.
    /// Repeated so the reported set-up time is a median; the last pair is
    /// the one the window uses.
    fn set_up(shape: &Shape, args: &Args) -> io::Result<(Pair, f64)> {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..crate::setup_repeats(args) {
            drop(last.take()); // free the previous pair's ports first
            let t0 = Instant::now();
            let mut pair = Pair::connect(shape, args.seed)?;
            let agreed = pair.converge(Duration::from_secs(30))?;
            times.push(t0.elapsed().as_secs_f64());
            if !agreed {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "replicas did not agree within 30 s of set-up",
                ));
            }
            last = Some(pair);
        }
        Ok((
            last.expect("at least one set-up"),
            stats::median(&mut times),
        ))
    }

    fn sessions(&self) -> usize {
        self.keys.len()
    }

    /// The deepest any inbox of either node has been.
    fn inbox_high_water(&self) -> usize {
        self.publisher
            .inbox_high_water()
            .max(self.subscriber.inbox_high_water())
    }

    /// The deeper of the two nodes' outbound queues' high-water marks.
    fn outbox_high_water(&self) -> usize {
        self.publisher
            .outbox_high_water()
            .max(self.subscriber.outbox_high_water())
    }

    /// Zeroes the harness's own counts (set-up polled too) and returns
    /// the runtimes' counters to difference the window against.
    fn open_window(&mut self) -> Counters {
        self.polls = 0;
        self.sleeps = 0;
        self.cold_rate_min = self.publisher.cold_rate();
        self.counters()
    }

    fn poll_pub(&mut self, tracer: &mut Tracer, iter: u64) -> io::Result<SimTime> {
        tracer.enter(Name::PubPoll, iter);
        let deadline = self.publisher.poll();
        tracer.exit();
        self.polls += 1;
        self.cold_rate_min = self.cold_rate_min.min(self.publisher.cold_rate());
        deadline
    }

    fn poll_sub(&mut self, tracer: &mut Tracer, iter: u64) -> io::Result<SimTime> {
        tracer.enter(Name::SubPoll, iter);
        let deadline = self.subscriber.poll();
        tracer.exit();
        self.polls += 1;
        deadline
    }

    /// How long until the earlier of the two runtimes' wake-up deadlines.
    fn until_deadline(&self, pub_deadline: SimTime, sub_deadline: SimTime) -> Duration {
        let p = pub_deadline.saturating_since(self.publisher.now());
        let s = sub_deadline.saturating_since(self.subscriber.now());
        Duration::from_micros(p.as_micros().min(s.as_micros()))
    }

    fn idle(&mut self, tracer: &mut Tracer, iter: u64, timeout: Duration) {
        if timeout.is_zero() {
            return;
        }
        tracer.enter(Name::Wait, iter);
        std::thread::sleep(timeout);
        tracer.exit();
        self.sleeps += 1;
    }

    /// Whether the replica of `sid` shows `key` at `version` or later.
    fn installed(&self, sid: u32, key: Key, version: u64) -> bool {
        self.subscriber
            .subscriber(sid)
            .and_then(|rx| rx.replica().get(key))
            .is_some_and(|e| e.value.version >= version)
    }

    /// Bumps `key` and returns the version the replica must reach.
    fn update(&mut self, sid: u32, key: Key) -> u64 {
        let tx = self
            .publisher
            .publisher_mut(sid)
            .expect("publisher session");
        tx.update(key);
        tx.table().get(key).expect("live key").value.version
    }

    /// Live keys of session `sid` on which the replica disagrees with the
    /// publisher (all of them while the subscriber session is crashed).
    fn disagreeing(&self, sid: u32) -> u64 {
        let tx = self.publisher.publisher(sid).expect("publisher session");
        let rx = self.subscriber.subscriber(sid);
        tx.table()
            .live()
            .filter(|rec| {
                rx.and_then(|rx| rx.replica().get(rec.key))
                    .is_none_or(|e| e.value.version != rec.value.version)
            })
            .count() as u64
    }

    fn diverged(&self) -> u64 {
        (0..self.sessions() as u32)
            .map(|s| self.disagreeing(s))
            .sum()
    }

    /// Polls both ends, untraced, until every replica agrees or `limit`
    /// passes: set-up's catch-up, and the settling after a window closes.
    fn converge(&mut self, limit: Duration) -> io::Result<bool> {
        let tracer = &mut Tracer::new();
        let t0 = Instant::now();
        loop {
            let p = self.poll_pub(tracer, 0)?;
            let s = self.poll_sub(tracer, 0)?;
            if self.diverged() == 0 {
                return Ok(true);
            }
            if t0.elapsed() > limit {
                return Ok(false);
            }
            let nap = self.until_deadline(p, s).min(Duration::from_millis(1));
            self.idle(tracer, 0, nap);
        }
    }

    fn counters(&mut self) -> Counters {
        let p = self.publisher.metrics_snapshot();
        let s = self.subscriber.metrics_snapshot();
        let both = |name: &str| p.counter(name) + s.counter(name);
        Counters {
            pub_tx: p.counter("runtime.egress.datagrams"),
            pub_rx: p.counter("runtime.ingress.datagrams"),
            sub_tx: s.counter("runtime.egress.datagrams"),
            sub_rx: s.counter("runtime.ingress.datagrams"),
            backpressure: both("runtime.backpressure.drops"),
            decode_errors: both("runtime.decode.errors"),
            shed_cold: both("runtime.shed.cold"),
            shed_hot: both("runtime.shed.hot"),
            throttled: both("runtime.throttled"),
            probes: both("runtime.probe.sent"),
            heals: both("runtime.session.heals"),
            mttr_sketch_p50_ms: sketch_p50_ms(&p).max(sketch_p50_ms(&s)),
        }
    }
}

fn sketch_p50_ms(m: &MetricsSnapshot) -> f64 {
    m.sketch("runtime.session.mttr").p50_us as f64 / 1e3
}

/// Exported runtime counters of both nodes, summed where that makes
/// sense. All but the sketch are monotone, so windows are differences.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    pub_tx: u64,
    pub_rx: u64,
    sub_tx: u64,
    sub_rx: u64,
    backpressure: u64,
    decode_errors: u64,
    shed_cold: u64,
    shed_hot: u64,
    throttled: u64,
    probes: u64,
    heals: u64,
    mttr_sketch_p50_ms: f64,
}

impl Counters {
    fn since(self, e: Counters) -> Counters {
        Counters {
            pub_tx: self.pub_tx - e.pub_tx,
            pub_rx: self.pub_rx - e.pub_rx,
            sub_tx: self.sub_tx - e.sub_tx,
            sub_rx: self.sub_rx - e.sub_rx,
            backpressure: self.backpressure - e.backpressure,
            decode_errors: self.decode_errors - e.decode_errors,
            shed_cold: self.shed_cold - e.shed_cold,
            shed_hot: self.shed_hot - e.shed_hot,
            throttled: self.throttled - e.throttled,
            probes: self.probes - e.probes,
            heals: self.heals - e.heals,
            mttr_sketch_p50_ms: self.mttr_sketch_p50_ms,
        }
    }

    fn sent(&self) -> u64 {
        self.pub_tx + self.sub_tx
    }

    fn received(&self) -> u64 {
        self.pub_rx + self.sub_rx
    }

    /// Share of sent datagrams the kernel never delivered to the peer.
    fn kernel_drop_share(&self) -> f64 {
        if self.sent() == 0 {
            return 0.0;
        }
        self.sent().saturating_sub(self.received()) as f64 / self.sent() as f64
    }
}

/// One stretch of a window, traced or not. A traced run alternates the
/// two, so tracing overhead is measured inside the run.
struct Segment {
    traced: bool,
    wall_s: f64,
    cpu_s: f64,
    /// Work units (updates installed, sessions healed) completed.
    done: u64,
    waits: LatencyHist,
}

/// Opens and closes [`Segment`]s on a fixed period and toggles the
/// tracer between them.
struct Segments {
    trace: bool,
    closed: Vec<Segment>,
    opened: Instant,
    cpu_at_open: CpuTimes,
    done: u64,
    waits: LatencyHist,
}

impl Segments {
    fn open(args: &Args, tracer: &mut Tracer) -> Self {
        tracer.set_enabled(args.trace);
        Segments {
            trace: args.trace,
            closed: Vec::new(),
            opened: Instant::now(),
            cpu_at_open: CpuTimes::now(),
            done: 0,
            waits: LatencyHist::new(),
        }
    }

    fn complete(&mut self, wait: Duration) {
        self.done += 1;
        self.waits.record(wait.as_nanos() as u64);
    }

    /// Rolls when `elapsed` (since the window opened) has passed the next
    /// multiple of `period`, so a window of N periods closes N segments.
    fn roll_if_due(&mut self, tracer: &mut Tracer, elapsed: Duration, period: Duration) -> bool {
        let due = elapsed >= period * (self.closed.len() as u32 + 1);
        if due {
            self.roll(tracer);
        }
        due
    }

    /// Closes the current segment and opens the next, flipping the tracer
    /// in a traced run. Call between iterations (no span open).
    fn roll(&mut self, tracer: &mut Tracer) {
        let cpu = CpuTimes::now();
        self.closed.push(Segment {
            traced: tracer.is_enabled(),
            wall_s: self.opened.elapsed().as_secs_f64(),
            cpu_s: cpu.since(self.cpu_at_open).total_s,
            done: self.done,
            waits: std::mem::replace(&mut self.waits, LatencyHist::new()),
        });
        if self.trace {
            tracer.set_enabled(!tracer.is_enabled());
        }
        self.opened = Instant::now();
        self.cpu_at_open = cpu;
        self.done = 0;
    }

    /// The closed segments. Whatever the still-open one holds (the few
    /// completions that land after the window's last roll) is left out: a
    /// stub segment would be too small to take percentiles from.
    fn finish(self, tracer: &mut Tracer) -> Vec<Segment> {
        tracer.set_enabled(false);
        self.closed
    }
}

/// Median over `segments` of `f`, or 0 when there are none.
fn median_of<'a>(segments: impl Iterator<Item = &'a Segment>, f: impl Fn(&Segment) -> f64) -> f64 {
    let mut v: Vec<f64> = segments.filter(|s| s.done > 0).map(f).collect();
    if v.is_empty() {
        0.0
    } else {
        stats::median(&mut v)
    }
}

/// The end-to-end numbers of a window cut into fixed segments: medians
/// over its untraced segments, so that a stretch in which the host froze
/// or slowed does not set the result. Also returns the tail percentile
/// used — `tail_wanted`, or lower if the smallest segment cannot carry it.
fn segment_medians(w: &Window, setup_s: f64, tail_wanted: f64) -> (EndToEnd, f64) {
    let fewest = w.untraced().map(|s| s.waits.len()).min().unwrap_or(0);
    let tail = stats::tail_percentile(fewest, tail_wanted);
    let e2e = EndToEnd {
        setup_s,
        work_per_s: median_of(w.untraced(), |s| s.done as f64 / s.wall_s),
        cpu_us_per_work: median_of(w.untraced(), |s| s.cpu_s * 1e6 / s.done as f64),
        wait_p50_us: median_of(w.untraced(), |s| s.waits.percentile_ns(50.0) / 1e3),
        wait_tail_us: median_of(w.untraced(), |s| s.waits.percentile_ns(tail) / 1e3),
    };
    (e2e, tail)
}

/// Everything the shared per-layer accounting needs about one window.
struct Window {
    wall_s: f64,
    cpu: CpuTimes,
    counters: Counters,
    /// Work units completed over the whole window.
    done: u64,
    segments: Vec<Segment>,
}

impl Window {
    fn untraced(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(|s| !s.traced)
    }

    fn traced(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(|s| s.traced)
    }

    /// CPU per work unit with tracing on over the same with it off, − 1.
    fn trace_overhead_share(&self) -> f64 {
        let cost = |s: &Segment| s.cpu_s / s.done as f64;
        let (with, without) = (
            median_of(self.traced(), cost),
            median_of(self.untraced(), cost),
        );
        if without > 0.0 && with > 0.0 {
            with / without - 1.0
        } else {
            0.0
        }
    }
}

/// The checks every live workload shares.
fn check_common(out: &mut Outcome, pair: &Pair, w: &Window, agreed: bool) {
    out.check(agreed, || {
        format!(
            "{} keys still disagree after the window closed",
            pair.diverged()
        )
    });
    let c = &w.counters;
    out.check(c.decode_errors == 0, || {
        format!("{} datagrams failed to decode", c.decode_errors)
    });
    let inbox = pair.inbox_high_water();
    out.check(inbox <= pair.inbox_capacity, || {
        format!(
            "inbox high water {inbox} above capacity {}",
            pair.inbox_capacity
        )
    });
    let outbox = pair.outbox_high_water();
    out.check(outbox <= pair.outbox_capacity, || {
        format!(
            "outbox high water {outbox} above capacity {}",
            pair.outbox_capacity
        )
    });
}

/// The runtime-layer counts and shares every live workload reports.
fn fill_runtime_layers(l: &mut Layers, pair: &Pair, w: &Window, tracer: &Tracer) {
    let c = &w.counters;
    let per_done = |x: u64| {
        if w.done == 0 {
            0.0
        } else {
            x as f64 / w.done as f64
        }
    };
    let datagrams = c.sent() + c.received();
    l.set("sstp.runtime.mux.datagrams_per_update", per_done(c.sent()));
    if datagrams > 0 {
        l.set(
            "sstp.runtime.mux.io_calls_per_datagram",
            (datagrams + pair.polls + pair.sleeps) as f64 / datagrams as f64,
        );
    }
    l.set("sstp.runtime.mux.kernel_drop_share", c.kernel_drop_share());
    l.set("sstp.runtime.mux.backpressure_drops", c.backpressure as f64);
    l.set("sstp.runtime.mux.decode_errors", c.decode_errors as f64);
    l.set(
        "sstp.runtime.mux.inbox_high_water",
        pair.inbox_high_water() as f64,
    );
    l.set("sstp.runtime.shed.cold", c.shed_cold as f64);
    l.set("sstp.runtime.shed.hot", c.shed_hot as f64);
    l.set(
        "sstp.runtime.shed.outbox_high_water",
        pair.outbox_high_water() as f64,
    );
    l.set("sstp.runtime.pacing.throttled", c.throttled as f64);
    l.set(
        "sstp.runtime.pacing.cold_rate_min",
        f64::from(pair.cold_rate_min),
    );
    l.set("sstp.runtime.supervisor.heals", c.heals as f64);
    if c.heals > 0 {
        l.set(
            "sstp.runtime.supervisor.probes_per_heal",
            c.probes as f64 / c.heals as f64,
        );
    }
    l.set(
        "sstp.runtime.supervisor.mttr_sketch_p50_ms",
        c.mttr_sketch_p50_ms,
    );
    l.set("sstp.runtime.poll.count", pair.polls as f64);
    l.set("sstp.runtime.poll.pub_us", tracer.median_us(Name::PubPoll));
    l.set("sstp.runtime.poll.sub_us", tracer.median_us(Name::SubPoll));
    // Shares are of the traced stretches' wall time, which the `Iter`
    // spans tile.
    let traced_ns = tracer.totals(Name::Iter).total_ns;
    let share = |name: Name| {
        if traced_ns == 0 {
            0.0
        } else {
            tracer.totals(name).self_ns as f64 / traced_ns as f64
        }
    };
    l.set("sstp.runtime.poll.pub_share", share(Name::PubPoll));
    l.set("sstp.runtime.poll.sub_share", share(Name::SubPoll));
    l.set("sstp.runtime.wait.share", share(Name::Wait));
    l.set("bench.publish_share", share(Name::Publish));
    l.set("bench.probe_share", share(Name::Probe));
    l.set("sstp.runtime.cpu_user_share", w.cpu.user_s / w.wall_s);
    l.set("sstp.runtime.cpu_sys_share", w.cpu.sys_s / w.wall_s);
    l.set(
        "sstp.runtime.cpu_ms_per_session_s",
        w.cpu.total_s * 1e3 / (pair.sessions() as f64 * w.wall_s),
    );
    l.set("bench.trace_overhead_share", w.trace_overhead_share());
}
