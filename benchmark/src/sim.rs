//! The two simulation workloads: closed loops over a fixed batch of
//! simulation calls, repeated until the window ends.
//!
//! * `sim_timer` — core-protocol sims (`open_loop`, `two_queue`,
//!   `feedback`), where the wheel, RNG, loss draws, schedulers and the
//!   `core` loop do the work and `sstp` does none.
//! * `sim_session` — `sstp::session::run`, where the endpoints, digest
//!   tree and consistency probe dominate and the engine is a minority.
//!
//! The work unit is one dispatched engine event. A call fails when its
//! report fingerprint or event count differs from the warm-up's for the
//! same config — simulations are deterministic, so none ever should.

use crate::args::{Args, Workload};
use crate::ledger::{EndToEnd, Outcome};
use crate::procfs::CpuTimes;
use crate::span::{Name, Tracer};
use crate::stats;
use softstate::protocol::feedback::{self, FeedbackConfig};
use softstate::protocol::open_loop::{self, OpenLoopConfig};
use softstate::protocol::two_queue::{self, Policy, Sharing, TwoQueueConfig};
use softstate::{ArrivalProcess, DeathProcess, LossSpec, ServiceModel};
use ss_netsim::{profile, FaultSpec, MetricsSnapshot, SimDuration, SimRng, SimTime};
use ss_queueing::OpenLoop;
use sstp::session::{self, SessionConfig, SessionWorkload};
use std::collections::BTreeMap;
use std::time::Instant;

/// `pkt/s = kbps / 8` with the experiments' 1000-byte ADU.
fn pkts(kbps: f64) -> f64 {
    kbps / 8.0
}

/// Which layer a call exercises; also its span and its per-layer metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    OpenLoop,
    TwoQueue,
    Feedback,
    Mcast,
    Churn,
    Rejoin,
}

impl Kind {
    fn span(self) -> Name {
        match self {
            Kind::OpenLoop => Name::OpenLoopRun,
            Kind::TwoQueue => Name::TwoQueueRun,
            Kind::Feedback => Name::FeedbackRun,
            Kind::Mcast => Name::SessionMcastRun,
            Kind::Churn => Name::SessionChurnRun,
            Kind::Rejoin => Name::SessionRejoinRun,
        }
    }

    fn events_per_s_metric(self) -> &'static str {
        match self {
            Kind::OpenLoop => "core.open_loop.events_per_s",
            Kind::TwoQueue => "core.two_queue.events_per_s",
            Kind::Feedback => "core.feedback.events_per_s",
            Kind::Mcast => "sstp.session.mcast.events_per_s",
            Kind::Churn => "sstp.session.churn.events_per_s",
            Kind::Rejoin => "sstp.session.rejoin.events_per_s",
        }
    }
}

enum Call {
    /// `closed_form` is set on the points the §3 analysis describes
    /// (Bernoulli loss, stable), which feed `core.open_loop.model_error`.
    OpenLoop {
        cfg: OpenLoopConfig,
        closed_form: Option<f64>,
    },
    TwoQueue(TwoQueueConfig),
    Feedback(FeedbackConfig),
    Session(Kind, Box<SessionConfig>),
}

/// What one call produced, reduced to what the harness checks.
struct CallResult {
    events: u64,
    fingerprint: u64,
    /// |simulated − closed-form| unnormalized consistency, where defined.
    model_error: Option<f64>,
    /// Session legs: ended consistent (see [`session_ok`]).
    consistent: bool,
}

fn fingerprint(m: &MetricsSnapshot) -> u64 {
    sstp::digest::fnv1a64(m.to_jsonl().as_bytes())
}

fn events(m: &MetricsSnapshot) -> u64 {
    m.counter("engine.events_dispatched")
}

impl Call {
    fn kind(&self) -> Kind {
        match self {
            Call::OpenLoop { .. } => Kind::OpenLoop,
            Call::TwoQueue(_) => Kind::TwoQueue,
            Call::Feedback(_) => Kind::Feedback,
            Call::Session(kind, _) => *kind,
        }
    }

    /// Runs the simulation; returns the report's metrics snapshot and
    /// whether a session leg ended consistent. Only this is timed.
    fn simulate(&self) -> (MetricsSnapshot, bool) {
        match self {
            Call::OpenLoop { cfg, .. } => (open_loop::run(cfg).metrics, true),
            Call::TwoQueue(cfg) => (two_queue::run(cfg).metrics, true),
            Call::Feedback(cfg) => (feedback::run(cfg).metrics, true),
            Call::Session(kind, cfg) => {
                let report = session::run(cfg);
                let ok = session_ok(*kind, &report);
                (report.metrics, ok)
            }
        }
    }

    fn digest(&self, (metrics, consistent): (MetricsSnapshot, bool)) -> CallResult {
        let model_error = match self {
            Call::OpenLoop {
                closed_form: Some(c),
                ..
            } => Some((metrics.gauge("consistency.unnormalized") - c).abs()),
            _ => None,
        };
        CallResult {
            events: events(&metrics),
            fingerprint: fingerprint(&metrics),
            model_error,
            consistent,
        }
    }
}

/// `SessionWorkload` cannot stop its arrivals, so a session never goes
/// quiet; "ends consistent" is therefore judged by the run's own probe:
/// a faulted leg must report reconvergence after its last heal, and every
/// receiver's last consistency sample must be at least 0.8 (updates in
/// flight at the final instant are the only permitted disagreement).
fn session_ok(kind: Kind, report: &session::SessionReport) -> bool {
    let reconverged = match (kind, &report.recovery) {
        (Kind::Rejoin, Some(r)) => r.reconverged_at.is_some(),
        (Kind::Rejoin, None) => false,
        _ => true,
    };
    reconverged
        && report
            .receivers
            .iter()
            .all(|r| r.final_consistency.is_some_and(|c| c >= 0.5))
}

/// Fig. 3 shape: λ = 20 kbps, μ = 128 kbps, one call per (death, loss)
/// point — stable points only (p_d > λ/μ), so the table stays bounded and
/// the closed form applies — plus one Gilbert–Elliott (bursty) point.
fn open_loop_calls(rng: &mut SimRng, out: &mut Vec<Call>) {
    let (lambda, mu) = (pkts(20.0), pkts(128.0));
    let points = [
        (0.20, 0.05),
        (0.20, 0.40),
        (0.25, 0.20),
        (0.25, 0.60),
        (0.50, 0.20),
        (0.50, 0.40),
        (0.50, 0.80),
    ];
    for (pd, loss) in points {
        let mut cfg = OpenLoopConfig::analytic(lambda, mu, loss, pd, rng.next_u64());
        cfg.duration = SimDuration::from_secs(18_000);
        let model = OpenLoop::new(lambda, mu, loss, pd);
        assert!(model.is_stable(), "closed form needs a stable point");
        out.push(Call::OpenLoop {
            cfg,
            closed_form: Some(model.consistency_unnormalized()),
        });
    }
    let mut cfg = OpenLoopConfig::analytic(lambda, mu, 0.2, 0.25, rng.next_u64());
    cfg.loss = LossSpec::Bursty {
        mean: 0.2,
        burst_len: 4.0,
    };
    cfg.duration = SimDuration::from_secs(18_000);
    out.push(Call::OpenLoop {
        cfg,
        closed_form: None,
    });
}

/// Fig. 5 shape: μ_data = 45 kbps, λ = 15 kbps, sweeping the hot share,
/// on one work-conserving server under lottery and stride scheduling.
fn two_queue_calls(rng: &mut SimRng, out: &mut Vec<Call>) {
    let mu_data = pkts(45.0);
    for policy in [Policy::Lottery, Policy::Stride] {
        for hot_share in [0.20, 0.35, 0.50, 0.65] {
            out.push(Call::TwoQueue(TwoQueueConfig {
                arrivals: ArrivalProcess::Poisson { rate: pkts(15.0) },
                death: DeathProcess::PerTransmission { p: 0.1 },
                mu_hot: mu_data * hot_share,
                mu_cold: mu_data * (1.0 - hot_share),
                loss: LossSpec::Bernoulli(0.3),
                service: ServiceModel::Exponential,
                sharing: Sharing::WorkConserving(policy),
                seed: rng.next_u64(),
                duration: SimDuration::from_secs(21_000),
                series_spacing: None,
                event_capacity: 0,
                trace_capacity: 0,
            }));
        }
    }
}

/// Fig. 9 shape: λ = 1.5 kbps, μ_tot = 30 kbps, sweeping the feedback
/// share at a low and a high loss rate.
fn feedback_calls(rng: &mut SimRng, out: &mut Vec<Call>) {
    let mu_tot = pkts(30.0);
    for loss in [0.1, 0.5] {
        for fb_share in [0.1, 0.3, 0.5, 0.7] {
            let mu_fb = mu_tot * fb_share;
            let mu_data = mu_tot - mu_fb;
            out.push(Call::Feedback(FeedbackConfig {
                arrivals: ArrivalProcess::Poisson { rate: pkts(1.5) },
                death: DeathProcess::PerTransmission { p: 0.1 },
                mu_hot: mu_data * 0.5,
                mu_cold: mu_data * 0.5,
                mu_fb,
                loss: LossSpec::Bernoulli(loss),
                nack_loss: None,
                service: ServiceModel::Exponential,
                seed: rng.next_u64(),
                duration: SimDuration::from_secs(54_000),
                series_spacing: None,
                trace_capacity: 0,
                event_capacity: 0,
            }));
        }
    }
}

/// The `multicast` experiment's shape: 16 receivers, 2 s slot window,
/// 20 % data loss, immortal records. Bound by digest apply.
fn mcast_cfg(seed: u64) -> SessionConfig {
    let mut cfg = SessionConfig::unicast_default(seed);
    cfg.n_receivers = 16;
    cfg.slot_window = Some(SimDuration::from_secs(2));
    cfg.data_loss = LossSpec::Bernoulli(0.2);
    cfg.fb_loss = LossSpec::Bernoulli(0.05);
    cfg.workload = SessionWorkload {
        arrivals: ArrivalProcess::Poisson { rate: 0.5 },
        mean_lifetime_secs: None,
        branches: 4,
        class_weights: None,
    };
    cfg.ttl = SimDuration::from_secs(120);
    cfg.duration = SimDuration::from_secs(250);
    cfg
}

/// The `adapt` experiment's shape: unicast, Poisson arrivals with 120 s
/// lifetimes, reallocation every 10 s. Bound by the probe and the cold
/// queue's service.
fn churn_cfg(seed: u64, loss: f64) -> SessionConfig {
    let mut cfg = SessionConfig::unicast_default(seed);
    cfg.data_loss = LossSpec::Bernoulli(loss);
    cfg.fb_loss = LossSpec::Bernoulli(loss);
    cfg.duration = SimDuration::from_secs(1_000);
    cfg
}

/// The `recovery` experiment's shape plus a receiver crash: a partition
/// and then a crash-rejoin, repaired through summary descent — the
/// namespace *read* path, where the other two legs are write-heavy.
fn rejoin_cfg(seed: u64) -> SessionConfig {
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let mut cfg = SessionConfig::unicast_default(seed);
    cfg.n_receivers = 2;
    cfg.workload = SessionWorkload {
        arrivals: ArrivalProcess::PoissonUpdates {
            rate: 1.0,
            keys: 40,
        },
        mean_lifetime_secs: None,
        branches: 4,
        class_weights: None,
    };
    cfg.ttl = SimDuration::from_secs(90);
    cfg.duration = SimDuration::from_secs(1_500);
    cfg.faults = FaultSpec::none()
        .partition(at(100), at(145))
        .receiver_crash(at(300), at(320), 0)
        .partition(at(500), at(520))
        .receiver_crash(at(600), at(610), 1)
        .partition(at(900), at(1_000))
        .receiver_crash(at(1_200), at(1_230), 0);
    cfg
}

fn session_calls(rng: &mut SimRng, out: &mut Vec<Call>) {
    for _ in 0..4 {
        out.push(Call::Session(
            Kind::Mcast,
            Box::new(mcast_cfg(rng.next_u64())),
        ));
    }
    for loss in [0.05, 0.10, 0.15, 0.20, 0.25, 0.30] {
        out.push(Call::Session(
            Kind::Churn,
            Box::new(churn_cfg(rng.next_u64(), loss)),
        ));
    }
    for _ in 0..4 {
        out.push(Call::Session(
            Kind::Rejoin,
            Box::new(rejoin_cfg(rng.next_u64())),
        ));
    }
}

/// The batch for `workload`: every config seed and the call order come
/// from `seed`.
fn build_batch(workload: Workload, seed: u64) -> Vec<Call> {
    let mut rng = SimRng::new(seed);
    let mut calls = Vec::new();
    match workload {
        Workload::SimTimer => {
            open_loop_calls(&mut rng, &mut calls);
            two_queue_calls(&mut rng, &mut calls);
            feedback_calls(&mut rng, &mut calls);
        }
        Workload::SimSession => session_calls(&mut rng, &mut calls),
        _ => unreachable!("not a simulation workload"),
    }
    // The call order is an input too.
    crate::seeded::shuffle(&mut rng, &mut calls);
    calls
}

/// One pass over the batch.
struct Batch {
    results: Vec<CallResult>,
    /// Wall nanoseconds of each call's `simulate`, in call order.
    wall_ns: Vec<f64>,
}

impl Batch {
    fn events(&self) -> u64 {
        self.results.iter().map(|r| r.events).sum()
    }

    fn wall_s(&self) -> f64 {
        self.wall_ns.iter().sum::<f64>() / 1e9
    }
}

fn run_batch(calls: &[Call], tracer: &mut Tracer, iter: u64) -> Batch {
    let mut results = Vec::with_capacity(calls.len());
    let mut wall_ns = Vec::with_capacity(calls.len());
    tracer.enter(Name::Batch, iter);
    for call in calls {
        tracer.enter(call.kind().span(), iter);
        let t0 = Instant::now();
        let raw = call.simulate();
        wall_ns.push(t0.elapsed().as_nanos() as f64);
        tracer.exit();
        results.push(call.digest(raw));
    }
    tracer.exit();
    Batch { results, wall_ns }
}

/// Wall nanoseconds by root phase of the netsim profiler, summed over
/// the traced batches.
#[derive(Default)]
struct PhaseWall {
    by_root: BTreeMap<String, u64>,
}

impl PhaseWall {
    fn absorb(&mut self, report: profile::ProfileReport) {
        for p in report.phases.into_iter().filter(|p| p.depth() == 0) {
            *self.by_root.entry(p.path).or_default() += p.wall_ns;
        }
    }

    /// Share of profiled root wall time under roots accepted by `pick`.
    fn share(&self, pick: impl Fn(&str) -> bool) -> f64 {
        let total: u64 = self.by_root.values().sum();
        let picked: u64 = self
            .by_root
            .iter()
            .filter(|(path, _)| pick(path))
            .map(|(_, ns)| ns)
            .sum();
        if total == 0 {
            0.0
        } else {
            picked as f64 / total as f64
        }
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    out.note("work unit: one dispatched engine event; one process, one thread".into());

    // Set-up: build the inputs and run one full warm-up batch. Repeated;
    // the median is reported and the last batch is the reference every
    // later call must reproduce.
    let mut setups = Vec::new();
    let mut warm = None;
    for _ in 0..crate::setup_repeats(args) {
        let t0 = Instant::now();
        let calls = build_batch(args.workload, args.seed);
        let batch = run_batch(&calls, tracer, 0);
        setups.push(t0.elapsed().as_secs_f64());
        warm = Some((calls, batch));
    }
    let (calls, reference) = warm.expect("at least one set-up ran");

    // The window: whole batches until the time is up. A traced run
    // alternates traced and untraced batches so that the overhead of
    // tracing is measured inside the same run.
    let mut untraced: Vec<Batch> = Vec::new();
    let mut traced: Vec<Batch> = Vec::new();
    let mut phases = PhaseWall::default();
    let cpu0 = CpuTimes::now();
    let window = Instant::now();
    let mut iter = 0u64;
    while window.elapsed().as_secs_f64() < args.seconds as f64 {
        iter += 1;
        let trace_this = args.trace && iter % 2 == 1;
        if trace_this {
            tracer.set_enabled(true);
            profile::set_enabled(true);
        }
        let batch = run_batch(&calls, tracer, iter);
        if trace_this {
            profile::set_enabled(false);
            tracer.set_enabled(false);
            phases.absorb(profile::take_report());
            traced.push(batch);
        } else {
            untraced.push(batch);
        }
    }
    let cpu = CpuTimes::now().since(cpu0);

    // Correctness: every call reproduces the warm-up bit for bit.
    let all = || untraced.iter().chain(&traced);
    for batch in all() {
        for (got, want) in batch.results.iter().zip(&reference.results) {
            out.attempted += 1;
            if got.fingerprint != want.fingerprint || got.events != want.events {
                out.failed += 1;
            }
        }
    }
    let failed = out.failed;
    out.check(failed == 0, || {
        format!("{failed} calls did not reproduce their warm-up report")
    });
    let model_errors: Vec<f64> = reference
        .results
        .iter()
        .filter_map(|r| r.model_error)
        .collect();
    let model_error = if model_errors.is_empty() {
        0.0
    } else {
        model_errors.iter().sum::<f64>() / model_errors.len() as f64
    };
    out.check(model_error <= 0.02, || {
        format!("open-loop simulation is {model_error:.4} from the closed form (limit 0.02)")
    });
    out.check(reference.results.iter().all(|r| r.consistent), || {
        "a session leg did not end consistent".into()
    });

    // End to end, from the untraced batches.
    let per_event_ns = |b: &Batch| b.wall_s() * 1e9 / b.events() as f64;
    let mut rates: Vec<f64> = untraced
        .iter()
        .map(|b| b.events() as f64 / b.wall_s())
        .collect();
    let mut call_us: Vec<f64> = untraced
        .iter()
        .flat_map(|b| b.wall_ns.iter().map(|ns| ns / 1e3))
        .collect();
    stats::sort(&mut call_us);
    let total_events: u64 = all().map(Batch::events).sum();
    let tail = stats::tail_percentile(call_us.len(), 90.0);
    out.check(untraced.len() >= 2, || {
        format!("window too short: {} untraced batches", untraced.len())
    });
    if !untraced.is_empty() {
        out.e2e = EndToEnd {
            setup_s: stats::median(&mut setups),
            work_per_s: stats::median(&mut rates),
            cpu_us_per_work: cpu.total_s * 1e6 / total_events as f64,
            wait_p50_us: stats::percentile(&call_us, 50.0),
            wait_tail_us: stats::percentile(&call_us, tail),
        };
    }
    out.note(format!(
        "work_per_s: median over {} complete untraced batches of {} events each",
        untraced.len(),
        reference.events()
    ));
    out.note(format!(
        "wait_*: wall time of one simulation call, {} samples, tail = p{tail}",
        call_us.len()
    ));

    // Per layer.
    let l = &mut out.layers;
    l.set("netsim.engine.events", reference.events() as f64);
    l.set("core.open_loop.model_error", model_error);
    let mut kinds: Vec<Kind> = calls.iter().map(Call::kind).collect();
    kinds.sort();
    kinds.dedup();
    for kind in kinds {
        let mut per_batch: Vec<f64> = untraced
            .iter()
            .map(|b| {
                let (mut ev, mut ns) = (0u64, 0.0);
                for (i, call) in calls.iter().enumerate() {
                    if call.kind() == kind {
                        ev += b.results[i].events;
                        ns += b.wall_ns[i];
                    }
                }
                ev as f64 * 1e9 / ns
            })
            .collect();
        if !per_batch.is_empty() {
            l.set(kind.events_per_s_metric(), stats::median(&mut per_batch));
        }
    }
    if args.trace {
        l.set(
            "netsim.wheel.advance_share",
            phases.share(|p| p == profile::WHEEL_PHASE),
        );
        if args.workload == Workload::SimSession {
            l.set(
                "sstp.session.share.data_arrive",
                phases.share(|p| p == "ev:data-arrive"),
            );
            l.set(
                "sstp.session.share.cold_free",
                phases.share(|p| p == "ev:cold-free"),
            );
            l.set(
                "sstp.session.share.measure_tick",
                phases.share(|p| p == "ev:measure-tick"),
            );
            l.set(
                "sstp.session.share.feedback",
                phases.share(|p| p.starts_with("ev:fb-") || p == "ev:feedback-due"),
            );
        }
        let mut with: Vec<f64> = traced.iter().map(per_event_ns).collect();
        let mut without: Vec<f64> = untraced.iter().map(per_event_ns).collect();
        if !with.is_empty() && !without.is_empty() {
            l.set(
                "bench.trace_overhead_share",
                stats::median(&mut with) / stats::median(&mut without) - 1.0,
            );
        }
    }
    out
}
