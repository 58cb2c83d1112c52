//! # ss-bench — the experiment harness
//!
//! One runner per table and figure of the paper (and a set of ablations),
//! each printing the paper-shaped table and writing a CSV under
//! `results/`. Run with:
//!
//! ```text
//! cargo run -p ss-bench --release --bin experiments -- list
//! cargo run -p ss-bench --release --bin experiments -- fig3
//! cargo run -p ss-bench --release --bin experiments -- all
//! ```
//!
//! `--fast` shortens simulations (used by the smoke tests); published
//! numbers in EXPERIMENTS.md come from full-length runs.

pub mod experiments;
pub mod table;
pub mod units;

pub use table::Table;

use std::path::PathBuf;

/// The directory experiment CSVs are written to (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// The directory metrics JSONL artifacts are written to (created on
/// demand). See EXPERIMENTS.md for the artifact catalogue.
pub fn metrics_dir() -> PathBuf {
    let dir = PathBuf::from("results").join("metrics");
    std::fs::create_dir_all(&dir).expect("create results/metrics dir");
    dir
}

/// The directory causal-trace artifacts are written to (created on
/// demand): `results/traces/<name>.trace.json` (Chrome/Perfetto) and
/// `results/traces/<name>.causal.jsonl`.
pub fn traces_dir() -> PathBuf {
    let dir = PathBuf::from("results").join("traces");
    std::fs::create_dir_all(&dir).expect("create results/traces dir");
    dir
}

/// The directory profiler artifacts are written to (created on
/// demand): `results/profile/<name>.profile.jsonl` (committed, counts
/// only) and `results/profile/<name>.wall.jsonl` (gitignored wall
/// times).
pub fn profile_dir() -> PathBuf {
    let dir = PathBuf::from("results").join("profile");
    std::fs::create_dir_all(&dir).expect("create results/profile dir");
    dir
}

static TRACE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Turns causal-trace capture on for subsequent experiment runs (the
/// CLI's `--trace` flag). Tracing consumes no randomness, so enabling
/// it never perturbs results; it only adds the `results/traces/`
/// artifacts.
pub fn set_trace(on: bool) {
    TRACE.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// Whether `--trace` is in effect. Experiments consult this to decide
/// whether their representative sweep point should record a tracer.
pub(crate) fn trace_enabled() -> bool {
    TRACE.load(std::sync::atomic::Ordering::Relaxed)
}

/// Turns the phase profiler on for subsequent experiment runs (the
/// CLI's `--profile` flag). Profiling consumes no randomness and
/// schedules no events, so enabling it never perturbs results; it only
/// adds the `results/profile/` artifacts. Delegates to the global
/// toggle in [`ss_netsim::profile`] so every sim loop sees it.
pub fn set_profile(on: bool) {
    ss_netsim::profile::set_enabled(on);
}

/// Whether `--profile` is in effect.
pub fn profile_enabled() -> bool {
    ss_netsim::profile::is_enabled()
}

/// A deterministic causal-trace artifact: both exports of one run's
/// [`ss_netsim::Tracer`], written under `results/traces/`.
pub struct TraceArtifact {
    /// Basename (no extension) under `results/traces/`.
    pub name: String,
    /// Chrome trace-event JSON (load in Perfetto / `chrome://tracing`).
    pub chrome_json: String,
    /// Compact causal JSONL (one event per line, parent edges inline).
    pub causal_jsonl: String,
}

impl TraceArtifact {
    /// Exports both formats from a finished tracer.
    pub fn from_tracer(name: &str, tracer: &ss_netsim::Tracer) -> Self {
        TraceArtifact {
            name: name.to_string(),
            chrome_json: tracer.to_chrome_json(),
            causal_jsonl: tracer.to_causal_jsonl(),
        }
    }
}

/// A deterministic metrics artifact: the JSON Lines export of one or
/// more [`ss_netsim::MetricsSnapshot`]s (one labeled block per sweep
/// point), written to `results/metrics/<name>.jsonl`.
pub struct MetricsArtifact {
    /// Basename (no extension) under `results/metrics/`.
    pub name: String,
    /// The JSONL payload; byte-identical across runs with one seed.
    pub jsonl: String,
}

/// What one experiment run produces: the paper-shaped tables plus any
/// metrics and trace artifacts exported from the runs.
#[derive(Default)]
pub struct ExperimentOutput {
    /// Tables, printed and written as CSV under `results/`.
    pub tables: Vec<Table>,
    /// Metrics artifacts, written under `results/metrics/`.
    pub metrics: Vec<MetricsArtifact>,
    /// Causal-trace artifacts, written under `results/traces/`
    /// (populated only when `trace_enabled`).
    pub traces: Vec<TraceArtifact>,
    /// Total simulator events dispatched across every run of the
    /// experiment (sum of the runs' `engine.events_dispatched`
    /// counters). Feeds the `experiments bench` events/sec figures.
    /// Experiments that drive endpoints directly instead of through the
    /// event engine (e.g. `namespace`) count one event per packet
    /// delivery, so every row in the bench report is non-zero.
    pub events: u64,
}

impl From<Vec<Table>> for ExperimentOutput {
    fn from(tables: Vec<Table>) -> Self {
        ExperimentOutput {
            tables,
            ..ExperimentOutput::default()
        }
    }
}

/// The `engine.events_dispatched` counter of one run's snapshot, or 0
/// when the run didn't export it. Sweeps sum this into
/// [`ExperimentOutput::events`].
pub(crate) fn dispatched_events(m: &ss_netsim::MetricsSnapshot) -> u64 {
    match m.get("engine.events_dispatched") {
        Some(ss_netsim::MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// An experiment: a named runner producing one or more tables.
pub struct Experiment {
    /// CLI id, e.g. `"fig3"`.
    pub id: &'static str,
    /// The paper artifact or question this regenerates.
    pub description: &'static str,
    /// Runner; `fast` shortens simulated durations for smoke tests.
    pub run: fn(fast: bool) -> ExperimentOutput,
}

/// Every registered experiment, in presentation order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            description: "Table 1: state-change probabilities, analytic vs simulated",
            run: experiments::table1::run,
        },
        Experiment {
            id: "fig3",
            description: "Figure 3: consistency vs loss rate per death rate (open loop)",
            run: experiments::fig3::run,
        },
        Experiment {
            id: "fig4",
            description: "Figure 4: wasted bandwidth vs loss rate (open loop)",
            run: experiments::fig4::run,
        },
        Experiment {
            id: "fig5",
            description: "Figure 5: consistency vs hot bandwidth share (two queues)",
            run: experiments::fig5::run,
        },
        Experiment {
            id: "fig6",
            description: "Figure 6: receive latency vs cold/hot ratio (two queues)",
            run: experiments::fig6::run,
        },
        Experiment {
            id: "fig8",
            description: "Figure 8: consistency over time per feedback share",
            run: experiments::fig8::run,
        },
        Experiment {
            id: "fig9",
            description: "Figure 9: consistency vs feedback share per loss rate",
            run: experiments::fig9::run,
        },
        Experiment {
            id: "fig10",
            description: "Figure 10: consistency vs hot share with feedback (knee)",
            run: experiments::fig10::run,
        },
        Experiment {
            id: "fig11",
            description: "Figure 11: knee curves per loss rate",
            run: experiments::fig11::run,
        },
        Experiment {
            id: "headline",
            description: "§5 headline: feedback gain at equal total bandwidth",
            run: experiments::headline::run,
        },
        Experiment {
            id: "loss-pattern",
            description: "Ablation: Bernoulli vs bursty loss at equal mean (§3 claim)",
            run: experiments::loss_pattern::run,
        },
        Experiment {
            id: "sched-ablation",
            description: "Ablation: lottery/stride/SFQ/DRR/priority for hot-cold sharing",
            run: experiments::sched_ablation::run,
        },
        Experiment {
            id: "namespace",
            description: "Ablation: hierarchical vs flat namespace repair cost (§6.2)",
            run: experiments::namespace_exp::run,
        },
        Experiment {
            id: "catchup",
            description: "Extension: late-joiner full-sync time, analytic vs simulated",
            run: experiments::catchup::run,
        },
        Experiment {
            id: "frag",
            description: "Extension: ALF fragmentation (right_edge) at varying MTU",
            run: experiments::frag::run,
        },
        Experiment {
            id: "continuum",
            description: "SSTP: the reliability continuum's consistency/overhead trade",
            run: experiments::continuum::run,
        },
        Experiment {
            id: "adapt",
            description: "SSTP: profile-driven allocation under measured loss (§6.1)",
            run: experiments::adapt::run,
        },
        Experiment {
            id: "profile-accuracy",
            description: "SSTP: analytic consistency profile vs empirical grid (§6.1)",
            run: experiments::profile_accuracy::run,
        },
        Experiment {
            id: "multicast",
            description: "SSTP: slotting-and-damping feedback vs group size",
            run: experiments::multicast::run,
        },
        Experiment {
            id: "recovery",
            description: "ss-chaos: MTTR after partitions vs TTL and reliability level",
            run: experiments::recovery::run,
        },
        Experiment {
            id: "validate-analysis",
            description: "Simulation vs closed forms across a parameter grid (§3)",
            run: experiments::validate::run,
        },
    ]
}

/// Looks up an experiment by id.
pub fn find_experiment(id: &str) -> Option<Experiment> {
    all_experiments().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let exps = all_experiments();
        let mut ids: Vec<&str> = exps.iter().map(|e| e.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), exps.len());
    }

    #[test]
    fn find_works() {
        assert!(find_experiment("fig3").is_some());
        assert!(find_experiment("nope").is_none());
    }
}
