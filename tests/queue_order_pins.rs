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
use softstate::{ArrivalProcess, DeathProcess, LossSpec, ServiceModel};
use ss_netsim::{FaultSpec, MetricsSnapshot, SimDuration, SimTime};
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
