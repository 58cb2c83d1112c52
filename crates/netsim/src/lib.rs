//! # ss-netsim — deterministic discrete-event network simulation substrate
//!
//! The SIGCOMM '99 soft-state paper evaluates its protocols on a
//! single-sender/single-receiver simulator with a lossy, rate-limited
//! channel. This crate is that simulator, rebuilt from scratch:
//!
//! * [`time`] — integer-microsecond virtual clock ([`SimTime`],
//!   [`SimDuration`]).
//! * [`units`] — [`Bandwidth`] in bits/s, with exact serialization delays.
//! * [`engine`] — the event queue and run loop ([`EventQueue`], [`World`]):
//!   a binary heap popping in ascending `(time, seq)`; DESIGN.md §14
//!   covers that contract and why a heap is the right size for it.
//! * [`arena`] — generational-index arenas for per-record protocol state
//!   ([`arena::Arena`]), replacing per-record map allocations in the hot
//!   loop.
//! * [`rng`] — seeded, name-derivable random streams ([`SimRng`]) so
//!   protocol variants can be compared on identical workloads.
//! * [`loss`] — Bernoulli and Gilbert–Elliott loss processes, plus the
//!   plain-data [`LossSpec`] they are built from.
//! * [`faults`] — `ss-chaos`: deterministic fault-injection schedules
//!   (partitions, loss overrides, bandwidth degradation, endpoint
//!   crashes) on the virtual clock ([`FaultSpec`], [`FaultSchedule`]).
//! * [`metrics`] — `ss-metrics`: the one statistics stack. A
//!   deterministic registry of named counters, gauges, latency
//!   histograms ([`DurationHistogram`]), quantile sketches and exact
//!   time averages ([`WindowedTimeAverage`]) plus a typed event log,
//!   with JSONL export ([`MetricsRegistry`], [`EventLog`]).
//! * [`trace`] — `ss-trace`: causal record-lifecycle tracing with
//!   virtual-time spans, Perfetto/JSONL exporters, and trace-derived
//!   metric recomputation ([`Tracer`], [`LifecycleAnalysis`]).
//! * [`profile`] — `ss-profile`: deterministic hierarchical phase
//!   profiling ([`ProfileReport`]); exact per-phase event tallies with
//!   wall time quarantined from committed artifacts (DESIGN.md §15).
//! * [`par`] — the deterministic fan-out executor for sweeps of
//!   independent runs ([`par::sweep`]): results reassemble in index
//!   order, so artifacts are byte-identical at any worker count.
//!
//! Each simulation run is single-threaded and fully deterministic given a
//! seed: two runs with the same seed produce identical event sequences,
//! which is what lets the experiment harness regenerate every figure
//! reproducibly. Sweeps of independent runs fan out across worker
//! threads through [`par`] without weakening that guarantee, because
//! every sweep point owns its seed and its results are reassembled in
//! index order.
//!
//! ## Example
//!
//! ```
//! use ss_netsim::prelude::*;
//!
//! // A run's loss draws come from their own stream, derived from the
//! // run's root seed by label, so other randomness never shifts them.
//! let root = SimRng::new(42);
//! let (mut rng_a, mut rng_b) = (root.derive("loss"), root.derive("loss"));
//! let spec = LossSpec::Bernoulli(0.1);
//! // A dedicated stream may batch its Bernoulli draws: the fates are the
//! // unbatched model's, draw for draw.
//! let (mut batched, mut plain) = (spec.build_batched(), spec.build());
//! let fates: Vec<bool> = (0..10_000).map(|_| batched.is_lost(&mut rng_a)).collect();
//! assert!(fates.iter().all(|&lost| lost == plain.is_lost(&mut rng_b)));
//! let lost = fates.iter().filter(|&&lost| lost).count();
//! assert!((900..1_100).contains(&lost));
//! // One 1000-byte packet at 128 kbps serializes in 62.5 ms.
//! let t = Bandwidth::from_kbps(128).transmit_time(1000);
//! assert_eq!(t, SimDuration::from_micros(62_500));
//! ```

#![deny(missing_docs)]

pub mod arena;
pub mod engine;
pub mod faults;
pub mod loss;
pub mod metrics;
pub mod par;
pub mod profile;
pub mod rng;
pub mod time;
pub mod trace;
pub mod units;

pub use arena::{Arena, Handle};
pub use engine::{run_until, run_until_profiled, run_until_traced, EventQueue, TracedWorld, World};
pub use faults::{
    EpisodeSpec, FaultDir, FaultKind, FaultSchedule, FaultSpec, Perturbation, RealPathFaults,
};
pub use loss::{BatchedBernoulli, Bernoulli, GilbertElliott, LossModel, LossSpec};
pub use metrics::{
    AverageId, CounterId, DurationHistogram, EventKind, EventLog, EventRecord, GaugeId,
    HistogramId, HistogramSummary, MetricValue, MetricsRegistry, MetricsSnapshot, QuantileSketch,
    QueueClass, SketchId, SketchSummary, WindowedTimeAverage, ARTIFACT_SCHEMA_VERSION,
};
pub use profile::{PhaseEntry, ProfileReport};
pub use rng::SimRng;
pub use time::{Clock, ManualClock, SimDuration, SimTime};
pub use trace::{Actor, LifecycleAnalysis, TraceEvent, TraceId, TraceKind, Tracer};
pub use units::Bandwidth;

/// Convenient glob import for simulations.
pub mod prelude {
    pub use crate::engine::{
        run_until, run_until_profiled, run_until_traced, EventQueue, TracedWorld, World,
    };
    pub use crate::faults::{
        EpisodeSpec, FaultDir, FaultKind, FaultSchedule, FaultSpec, Perturbation,
    };
    pub use crate::loss::{BatchedBernoulli, Bernoulli, GilbertElliott, LossModel, LossSpec};
    pub use crate::metrics::{
        AverageId, CounterId, DurationHistogram, EventKind, EventLog, EventRecord, GaugeId,
        HistogramId, HistogramSummary, MetricValue, MetricsRegistry, MetricsSnapshot,
        QuantileSketch, QueueClass, SketchId, SketchSummary, WindowedTimeAverage,
        ARTIFACT_SCHEMA_VERSION,
    };
    pub use crate::rng::SimRng;
    pub use crate::time::{Clock, ManualClock, SimDuration, SimTime};
    pub use crate::trace::{Actor, LifecycleAnalysis, TraceEvent, TraceId, TraceKind, Tracer};
    pub use crate::units::Bandwidth;
}
