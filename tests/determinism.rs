//! The double-run reproducibility harness.
//!
//! The claim the determinism rules (`clippy.toml`, DESIGN.md §8)
//! protect: every simulation result is a pure function of its
//! configuration and seed. This test
//! drives the Figure 5 two-queue experiment end to end **twice** with the
//! same seed and requires the serialized reports to be byte-identical —
//! not merely "statistically close". Any nondeterminism that creeps in
//! (hash iteration order feeding event order, a wall clock, ambient
//! randomness) breaks the byte comparison long before it would move an
//! average. A different seed must, conversely, produce a different
//! trajectory, proving the comparison has teeth.

use softstate::protocol::two_queue::{run, Sharing, TwoQueueConfig};
use softstate::{ArrivalProcess, DeathProcess, LossSpec, ServiceModel};
use ss_netsim::SimDuration;

/// Tests that toggle process-global knobs (sweep thread count, trace and
/// profile capture) must not interleave: hold this for their full body.
static EXCLUSIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Figure 5's workload in packets/s (λ = 1.875/s, μ_data = 5.625/s split
/// 40/60 hot/cold), shortened to keep the double run fast.
fn fig5_cfg(seed: u64) -> TwoQueueConfig {
    let mu_data = 5.625;
    let hot_share = 0.40;
    TwoQueueConfig {
        arrivals: ArrivalProcess::Poisson { rate: 1.875 },
        death: DeathProcess::PerTransmission { p: 0.1 },
        mu_hot: mu_data * hot_share,
        mu_cold: mu_data * (1.0 - hot_share),
        loss: LossSpec::Bernoulli(0.2),
        service: ServiceModel::Exponential,
        sharing: Sharing::Partitioned,
        seed,
        duration: SimDuration::from_secs(4_000),
        series_spacing: Some(SimDuration::from_secs(100)),
        event_capacity: 0,
        trace_capacity: 0,
    }
}

/// Serializes a report for exact comparison. `Debug` formatting prints
/// every counter, histogram, and the sampled `c(t)` series, so two equal
/// strings mean the full observable state of the runs matched.
fn serialized(seed: u64) -> String {
    format!("{:#?}", run(&fig5_cfg(seed)))
}

#[test]
fn same_seed_is_byte_identical() {
    let a = serialized(11);
    let b = serialized(11);
    assert!(
        a == b,
        "two runs with the same seed diverged; a determinism invariant \
         (D001-D003, DESIGN.md §8) has been violated somewhere in the stack"
    );
}

#[test]
fn different_seed_diverges() {
    let a = serialized(11);
    let b = serialized(12);
    assert!(
        a != b,
        "different seeds produced identical trajectories; the seed is \
         not reaching the simulation and the identity check is vacuous"
    );
}

/// The metrics JSONL export (what `results/metrics/fig5.jsonl` is made
/// of) and the typed event trace, serialized for exact comparison.
fn metrics_jsonl(seed: u64) -> (String, String) {
    let mut cfg = fig5_cfg(seed);
    cfg.event_capacity = 1024;
    let report = run(&cfg);
    (report.metrics.to_jsonl(), report.events.to_jsonl())
}

#[test]
fn metrics_export_is_byte_identical_across_double_run() {
    let (m1, e1) = metrics_jsonl(11);
    let (m2, e2) = metrics_jsonl(11);
    assert!(
        m1 == m2,
        "metrics JSONL diverged across a same-seed double run; the \
         registry observed two different trajectories"
    );
    assert!(
        e1 == e2,
        "event-trace JSONL diverged across a same-seed double run"
    );
    // Sanity: the exports carry real content, so equality is not vacuous.
    assert!(m1.contains("\"consistency.c_t\""));
    assert!(e1.lines().count() > 1);
}

#[test]
fn metrics_export_diverges_across_seeds() {
    let (m1, e1) = metrics_jsonl(11);
    let (m2, e2) = metrics_jsonl(12);
    assert!(
        m1 != m2,
        "different seeds produced identical metric exports; the check \
         above is vacuous"
    );
    assert!(e1 != e2, "different seeds produced identical event traces");
}

/// Serializes everything an experiment run can write to disk: the
/// rendered tables (title, columns, every cell the CSV would carry),
/// the metrics JSONL artifacts, the causal-trace artifacts (both
/// export formats), and the dispatched-event total.
fn serialize_all_experiments(fast: bool) -> String {
    let mut out = String::new();
    for e in ss_bench::all_experiments() {
        let output = (e.run)(fast);
        out.push_str(&format!("== {} events={}\n", e.id, output.events));
        for t in &output.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for m in &output.metrics {
            out.push_str(&format!("-- {}\n{}", m.name, m.jsonl));
        }
        for t in &output.traces {
            out.push_str(&format!(
                "-- trace {}\n{}{}",
                t.name, t.chrome_json, t.causal_jsonl
            ));
        }
    }
    out
}

#[test]
fn parallel_sweep_output_is_byte_identical_to_sequential() {
    // The tentpole invariant of the sweep executor: `--threads 1` and
    // `--threads N` produce the same bytes for every table, metrics
    // JSONL, event JSONL, and causal-trace artifact of
    // `--fast --trace all`. Exercised in-process so the comparison
    // covers exactly what the CLI writes.
    let _guard = EXCLUSIVE.lock().unwrap();
    ss_bench::set_trace(true);
    ss_netsim::par::set_threads(1);
    let sequential = serialize_all_experiments(true);
    ss_netsim::par::set_threads(8);
    let parallel = serialize_all_experiments(true);
    ss_netsim::par::set_threads(0);
    ss_bench::set_trace(false);
    assert!(
        sequential == parallel,
        "experiment output diverged between 1 and 8 sweep workers; \
         index-ordered reassembly or per-point seeding is broken"
    );
    // The comparison must not be vacuous: event traces, labeled metrics
    // blocks, quantile-sketch lines, and all four causal-trace artifacts
    // are present.
    assert!(sequential.contains("-- fig5_events"));
    assert!(sequential.contains("\"run\":"));
    assert!(
        sequential.contains("\"type\":\"sketch\""),
        "no quantile-sketch lines in the metrics exports; the 1-vs-8 \
         thread identity no longer covers sketch merging"
    );
    for name in [
        "-- trace fig3_open_loop",
        "-- trace fig5_two_queue",
        "-- trace fig8_feedback",
        "-- trace continuum_sstp",
    ] {
        assert!(sequential.contains(name), "{name} artifact missing");
    }
    assert!(
        sequential.len() > 10_000,
        "suspiciously small serialization"
    );
}

#[test]
fn profiling_never_changes_artifacts_and_reproduces_exactly() {
    // Two invariants of `--profile`: (1) every committed artifact —
    // tables, metrics JSONL, trace exports — is byte-identical with
    // profiling enabled and disabled (wall time stays out of committed
    // outputs); (2) the profile report itself (phase paths and exact
    // event counts, never wall time) is byte-identical across a double
    // run, so `results/profile/*.profile.jsonl` is a stable artifact.
    let _guard = EXCLUSIVE.lock().unwrap();
    ss_bench::set_profile(false);
    let off = serialize_all_experiments(true);

    ss_bench::set_profile(true);
    ss_netsim::profile::take_report(); // drop counts from earlier tests
    let on = serialize_all_experiments(true);
    let first = ss_netsim::profile::take_report();
    let on_again = serialize_all_experiments(true);
    let second = ss_netsim::profile::take_report();
    ss_bench::set_profile(false);

    assert!(
        off == on,
        "enabling the profiler changed a committed artifact; a phase \
         scope is leaking into simulation state or exported bytes"
    );
    assert!(
        off == on_again,
        "second profiled run diverged from baseline"
    );
    assert_eq!(
        first.to_jsonl("all", 0),
        second.to_jsonl("all", 0),
        "profile phase counts diverged across a same-seed double run"
    );
    assert!(
        first.attributed_events() > 0,
        "profiled experiment runs attributed no events; the identity \
         checks above are vacuous"
    );
}

#[test]
fn work_conserving_variant_is_also_byte_identical() {
    // The scheduler path draws from its own RNG streams; cover it too.
    use softstate::protocol::two_queue::Policy;
    let mut cfg = fig5_cfg(7);
    cfg.sharing = Sharing::WorkConserving(Policy::Stride);
    let a = format!("{:#?}", run(&cfg));
    let b = format!("{:#?}", run(&cfg));
    assert!(a == b, "work-conserving run not reproducible");
}
