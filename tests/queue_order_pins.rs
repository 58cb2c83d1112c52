//! Pinned trajectories: the event queue's pop order, as tier-1 constants.
//!
//! `EventQueue` promises ascending `(time, seq)` and nothing else, and
//! every simulation result is a function of that order. The property
//! test in `crates/netsim/tests/properties.rs` checks the promise
//! against a model; this file checks its *consequence*: one fixed-seed
//! run of each simulator must export exactly the metrics JSONL (by FNV-1a
//! fingerprint) and dispatch exactly the event count it did **on the
//! commit before the queue's storage was swapped** (PR 16, timer wheel →
//! binary heap). The constants below were captured there, so a queue
//! that reorders two same-tick events, or a change that perturbs an RNG
//! draw order, fails here — not only in the CI artifact diff.
//!
//! A deliberate behaviour change re-captures the constants: run with
//! `-- --nocapture` and copy the `pin:` lines.

use softstate::protocol::feedback::{self, FeedbackConfig};
use softstate::protocol::open_loop::{self, OpenLoopConfig};
use softstate::protocol::two_queue::{self, Policy, Sharing, TwoQueueConfig};
use softstate::protocol::TransitionCounts;
use softstate::{ArrivalProcess, DeathProcess, LossSpec, ServiceModel};
use ss_netsim::{EventLog, FaultKind, FaultSpec, MetricsSnapshot, SimDuration, SimTime, Tracer};
use sstp::session::{self, SessionConfig, SessionWorkload};

/// Asserts a run's `(to_jsonl() fingerprint, engine.events_dispatched)`.
fn assert_pinned(name: &str, m: &MetricsSnapshot, fingerprint: u64, events: u64) {
    let got = (
        sstp::digest::fnv1a64(m.to_jsonl().as_bytes()),
        m.counter("engine.events_dispatched"),
    );
    println!("pin: {name} {:#018x} {}", got.0, got.1);
    assert_eq!(
        got,
        (fingerprint, events),
        "{name}: the run's trajectory moved — the event queue no longer \
         pops in the pinned (time, seq) order, or an RNG draw order changed"
    );
}

/// Figure 3's workload (λ = 20 kbps, μ = 128 kbps) under bursty loss.
#[test]
fn open_loop_trajectory_is_pinned() {
    let mut cfg = OpenLoopConfig::analytic(2.5, 16.0, 0.2, 0.25, 0x5eed_0001);
    cfg.loss = LossSpec::Bursty {
        mean: 0.2,
        burst_len: 4.0,
    };
    cfg.duration = SimDuration::from_secs(4_000);
    let report = open_loop::run(&cfg);
    assert_pinned("open_loop", &report.metrics, 0xab02_5882_e811_26eb, 49_949);
}

/// Figure 5's workload on one work-conserving stride-scheduled server.
#[test]
fn two_queue_trajectory_is_pinned() {
    let mu_data = 5.625;
    let report = two_queue::run(&TwoQueueConfig {
        arrivals: ArrivalProcess::Poisson { rate: 1.875 },
        death: DeathProcess::PerTransmission { p: 0.1 },
        mu_hot: mu_data * 0.35,
        mu_cold: mu_data * 0.65,
        loss: LossSpec::Bernoulli(0.3),
        service: ServiceModel::Exponential,
        sharing: Sharing::WorkConserving(Policy::Stride),
        seed: 0x5eed_0002,
        duration: SimDuration::from_secs(4_000),
        series_spacing: Some(SimDuration::from_secs(100)),
        event_capacity: 0,
        trace_capacity: 0,
    });
    assert_pinned("two_queue", &report.metrics, 0xa687_357b_79e1_0a4b, 29_945);
}

/// Figure 9's workload: 30 % of 30 kbps spent on NACK feedback.
#[test]
fn feedback_trajectory_is_pinned() {
    let mu_tot = 3.75;
    let mu_fb = mu_tot * 0.3;
    let mu_data = mu_tot - mu_fb;
    let report = feedback::run(&FeedbackConfig {
        arrivals: ArrivalProcess::Poisson { rate: 0.1875 },
        death: DeathProcess::PerTransmission { p: 0.1 },
        mu_hot: mu_data * 0.5,
        mu_cold: mu_data * 0.5,
        mu_fb,
        loss: LossSpec::Bernoulli(0.5),
        nack_loss: None,
        service: ServiceModel::Exponential,
        seed: 0x5eed_0003,
        duration: SimDuration::from_secs(20_000),
        series_spacing: None,
        trace_capacity: 0,
        event_capacity: 0,
    });
    assert_pinned("feedback", &report.metrics, 0x861a_961b_cbd2_dc3f, 38_217);
}

/// The tie-heavy case: a bulk table served *deterministically* by three
/// servers at commensurate rates (500 ms, 500 ms, 1 s per packet), so
/// hot, cold and feedback completions land on the same microsecond all
/// run long and which one is handled first decides what the others see.
#[test]
fn feedback_same_tick_trajectory_is_pinned() {
    let report = feedback::run(&FeedbackConfig {
        arrivals: ArrivalProcess::Bulk { count: 300 },
        death: DeathProcess::Immortal,
        mu_hot: 2.0,
        mu_cold: 2.0,
        mu_fb: 1.0,
        loss: LossSpec::Bernoulli(0.5),
        nack_loss: Some(LossSpec::Bernoulli(0.2)),
        service: ServiceModel::Deterministic,
        seed: 0x5eed_0005,
        duration: SimDuration::from_secs(2_000),
        series_spacing: None,
        trace_capacity: 0,
        event_capacity: 0,
    });
    assert_pinned(
        "feedback_same_tick",
        &report.metrics,
        0x5a54_d5a2_076a_8510,
        4_810,
    );
}

/// A four-receiver slotted SSTP session through a partition and a
/// receiver crash: the queue's largest pending populations and the most
/// same-tick ties (per-receiver deliveries of one multicast packet).
#[test]
fn session_trajectory_is_pinned() {
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let mut cfg = SessionConfig::unicast_default(0x5eed_0004);
    cfg.n_receivers = 4;
    cfg.slot_window = Some(SimDuration::from_secs(2));
    cfg.data_loss = LossSpec::Bernoulli(0.2);
    cfg.fb_loss = LossSpec::Bernoulli(0.05);
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
    cfg.duration = SimDuration::from_secs(400);
    cfg.faults = FaultSpec::none()
        .partition(at(100), at(145))
        .receiver_crash(at(250), at(270), 1);
    let report = session::run(&cfg);
    assert_pinned("session", &report.metrics, 0x5dd9_2790_53dc_ceef, 57_897);
}

// ── Shapes captured on the commit before the three protocol simulators
// became one engine (PR 22). Same rule as above: the constants below
// were taken from the *old* `Sim`s, so a merged engine that samples a
// backlog average at a different site, draws from a stream in a
// different order, or relabels an event fails here.

/// [`assert_pinned`]'s twin for the two logs a run can keep: the typed
/// event log (`Announce(Hot|Cold)`, `Drop`, `Demote`, `Nack`, `Promote`)
/// and the causal trace (actors, parent edges, dispatch labels).
fn assert_logs_pinned(name: &str, events: &EventLog, trace: &Tracer, ev_fp: u64, trace_fp: u64) {
    assert_eq!(events.dropped(), 0, "{name}: event capacity too small");
    assert_eq!(trace.dropped(), 0, "{name}: trace capacity too small");
    let got = (
        sstp::digest::fnv1a64(events.to_jsonl().as_bytes()),
        sstp::digest::fnv1a64(trace.to_causal_jsonl().as_bytes()),
    );
    println!("pin: {name} logs {:#018x} {:#018x}", got.0, got.1);
    assert_eq!(
        got,
        (ev_fp, trace_fp),
        "{name}: the typed event log or the causal trace moved — an event \
         kind, actor, parent edge or dispatch label changed"
    );
}

/// One fixed schedule for all three variants: a partition, a receiver
/// crash (wipe at its start) and a quarter-rate bandwidth episode.
fn pinned_faults() -> FaultSpec {
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    FaultSpec::none()
        .partition(at(200), at(260))
        .receiver_crash(at(500), at(530), 0)
        .with(at(700), at(800), FaultKind::Bandwidth(0.25))
}

fn open_loop_updates_cfg() -> OpenLoopConfig {
    OpenLoopConfig {
        arrivals: ArrivalProcess::PoissonUpdates {
            rate: 4.0,
            keys: 25,
        },
        death: DeathProcess::Immortal,
        mu: 20.0,
        loss: LossSpec::Bernoulli(0.25),
        service: ServiceModel::Exponential,
        seed: 0x5eed_0011,
        duration: SimDuration::from_secs(1_000),
        series_spacing: None,
        event_capacity: 0,
        trace_capacity: 0,
    }
}

/// Figure 6's shape: partitioned servers, exponential lifetimes (queued
/// records die in place and are skipped lazily at the pop).
fn two_queue_lifetime_cfg() -> TwoQueueConfig {
    TwoQueueConfig {
        arrivals: ArrivalProcess::Poisson { rate: 1.875 },
        death: DeathProcess::Lifetime { mean_secs: 20.0 },
        mu_hot: 1.875 * 1.4,
        mu_cold: 1.875 * 1.4 * 0.35,
        loss: LossSpec::Bernoulli(0.5),
        service: ServiceModel::Exponential,
        sharing: Sharing::Partitioned,
        seed: 0x5eed_0012,
        duration: SimDuration::from_secs(4_000),
        series_spacing: None,
        event_capacity: 0,
        trace_capacity: 0,
    }
}

fn feedback_updates_cfg() -> FeedbackConfig {
    FeedbackConfig {
        arrivals: ArrivalProcess::PoissonUpdates {
            rate: 3.0,
            keys: 30,
        },
        death: DeathProcess::Immortal,
        mu_hot: 4.0,
        mu_cold: 2.0,
        mu_fb: 1.5,
        loss: LossSpec::Bernoulli(0.3),
        nack_loss: None,
        service: ServiceModel::Exponential,
        seed: 0x5eed_0013,
        duration: SimDuration::from_secs(1_500),
        series_spacing: None,
        trace_capacity: 0,
        event_capacity: 0,
    }
}

#[test]
fn open_loop_updates_trajectory_is_pinned() {
    let report = open_loop::run(&open_loop_updates_cfg());
    assert_pinned(
        "open_loop_updates",
        &report.metrics,
        0xad99_4920_bd69_5b5d,
        23_957,
    );
}

#[test]
fn two_queue_partitioned_lifetime_trajectory_is_pinned() {
    let report = two_queue::run(&two_queue_lifetime_cfg());
    assert_pinned(
        "two_queue_lifetime",
        &report.metrics,
        0x3ee7_f4c0_4dc8_6117,
        25_883,
    );
}

/// The `sched` stream: lottery draws one number per pick.
#[test]
fn two_queue_lottery_trajectory_is_pinned() {
    let mut cfg = two_queue_lifetime_cfg();
    cfg.death = DeathProcess::PerTransmission { p: 0.1 };
    cfg.sharing = Sharing::WorkConserving(Policy::Lottery);
    cfg.seed = 0x5eed_0014;
    let report = two_queue::run(&cfg);
    assert_pinned(
        "two_queue_lottery",
        &report.metrics,
        0x3de5_84c1_5a34_f2d3,
        21_731,
    );
}

/// Update promotion: only the feedback variant moves an updated cold
/// record back to the hot queue.
#[test]
fn feedback_updates_trajectory_is_pinned() {
    let report = feedback::run(&feedback_updates_cfg());
    assert_pinned(
        "feedback_updates",
        &report.metrics,
        0xb33e_e005_dfdd_f338,
        13_575,
    );
}

#[test]
fn open_loop_faulted_trajectory_is_pinned() {
    let mut cfg = OpenLoopConfig::analytic(2.0, 16.0, 0.2, 0.25, 0x5eed_0015);
    cfg.death = DeathProcess::Lifetime { mean_secs: 8.0 };
    cfg.duration = SimDuration::from_secs(1_000);
    let report = open_loop::run_faulted(&cfg, &pinned_faults());
    assert!(report.fault_drops > 0);
    // Table 1 tallies live in the report only, not in the snapshot; with
    // lifetime death they include records that died while queued.
    println!("pin: open_loop_faulted {:?}", report.transitions);
    assert_eq!(
        report.transitions,
        TransitionCounts {
            i_to_i: 1_668,
            i_to_c: 1_542,
            i_death: 491,
            c_to_c: 11_435,
            c_death: 1_510,
        }
    );
    assert_pinned(
        "open_loop_faulted",
        &report.metrics,
        0x80be_ff63_d5b5_6b3f,
        18_794,
    );
}

#[test]
fn two_queue_faulted_trajectory_is_pinned() {
    let mut cfg = two_queue_lifetime_cfg();
    cfg.sharing = Sharing::WorkConserving(Policy::Drr);
    cfg.duration = SimDuration::from_secs(1_000);
    cfg.seed = 0x5eed_0016;
    let report = two_queue::run_faulted(&cfg, &pinned_faults());
    assert!(report.fault_drops > 0);
    assert_pinned(
        "two_queue_faulted",
        &report.metrics,
        0x2f60_ba47_aad6_8dd5,
        6_784,
    );
}

#[test]
fn feedback_faulted_trajectory_is_pinned() {
    let mut cfg = feedback_updates_cfg();
    cfg.nack_loss = Some(LossSpec::Bernoulli(0.1));
    cfg.duration = SimDuration::from_secs(1_000);
    cfg.seed = 0x5eed_0017;
    let report = feedback::run_faulted(&cfg, &pinned_faults());
    assert!(report.fault_drops > 0);
    assert_pinned(
        "feedback_faulted",
        &report.metrics,
        0x5375_e8c7_9fc2_c650,
        8_723,
    );
}

/// Event kinds, actors, parent edges and dispatch labels per variant:
/// a short faulted run with both logs on (the traced run loop records
/// one `Dispatch` event per pop, labelled by the variant's own names).
#[test]
fn open_loop_logs_are_pinned() {
    let mut cfg = OpenLoopConfig::analytic(2.0, 16.0, 0.2, 0.25, 0x5eed_0018);
    cfg.death = DeathProcess::Lifetime { mean_secs: 8.0 };
    cfg.duration = SimDuration::from_secs(300);
    cfg.event_capacity = 1 << 16;
    cfg.trace_capacity = 1 << 17;
    let r = open_loop::run_faulted(&cfg, &pinned_faults());
    assert_logs_pinned(
        "open_loop",
        &r.events,
        &r.trace,
        0x96f6_5024_46d3_f3fd,
        0x4cbd_7c89_0732_f8d5,
    );
}

#[test]
fn two_queue_logs_are_pinned() {
    let mut cfg = two_queue_lifetime_cfg();
    cfg.sharing = Sharing::WorkConserving(Policy::Lottery);
    cfg.duration = SimDuration::from_secs(300);
    cfg.seed = 0x5eed_0019;
    cfg.event_capacity = 1 << 16;
    cfg.trace_capacity = 1 << 17;
    let r = two_queue::run_faulted(&cfg, &pinned_faults());
    assert_logs_pinned(
        "two_queue",
        &r.events,
        &r.trace,
        0xb414_c95f_b887_0765,
        0x9e3a_3200_7770_d7be,
    );
}

#[test]
fn feedback_logs_are_pinned() {
    let mut cfg = feedback_updates_cfg();
    cfg.duration = SimDuration::from_secs(300);
    cfg.seed = 0x5eed_001a;
    cfg.event_capacity = 1 << 16;
    cfg.trace_capacity = 1 << 17;
    let r = feedback::run_faulted(&cfg, &pinned_faults());
    assert!(
        r.promotions > 0,
        "the NACK chain must be in the pinned trace"
    );
    assert_logs_pinned(
        "feedback",
        &r.events,
        &r.trace,
        0x4c5e_73b3_f492_afbc,
        0xe400_046d_26ec_2c9c,
    );
}
