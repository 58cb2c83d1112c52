//! `ss-metrics`: a deterministic, zero-wall-clock observability layer.
//!
//! The paper's whole argument rests on measuring a running soft-state
//! system — consistency `c(t)`, receive latency `T_rec`, wasted
//! bandwidth `W` (§2.1, §3). This module gives those measurements a
//! first-class home: a [`MetricsRegistry`] of named counters, gauges,
//! sim-time histograms, quantile sketches, and windowed time averages
//! (the workspace's one integrator), plus a typed [`EventLog`] of
//! protocol events. Everything is keyed by **sim time**
//! only (D001 in `clippy.toml`), uses ordered containers (D002), and takes
//! no ambient randomness (D003), so a [`MetricsSnapshot`] — and its
//! JSONL export — is byte-identical across double runs with one seed.
//!
//! # Design
//!
//! Metrics are registered once by name and then addressed by a typed
//! handle ([`CounterId`], [`GaugeId`], [`HistogramId`], [`SketchId`],
//! [`AverageId`]) — a plain index into a dense `Vec`. Hot-path updates are therefore an
//! array index away, with no string hashing or allocation per event.
//! Names are namespaced with dots (`tx.hot`, `consistency.c_t`) and a
//! snapshot lists them in lexicographic order.

mod events;
mod histogram;
pub mod sketch;
mod timeavg;

pub use events::{EventKind, EventLog, EventRecord, QueueClass};
pub use histogram::DurationHistogram;
pub use sketch::QuantileSketch;
pub use timeavg::WindowedTimeAverage;

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version stamp carried by every JSONL artifact this workspace emits
/// (metrics, traces, profile, bench). `ss-report` refuses artifacts
/// whose version does not match its own, so a schema change can never
/// be silently mis-parsed into a bogus cross-run comparison.
pub const ARTIFACT_SCHEMA_VERSION: u32 = 1;

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered duration histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Handle to a registered windowed time average.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AverageId(usize);

/// Handle to a registered quantile sketch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SketchId(usize);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
    Average,
    Sketch,
}

/// A registry of named metrics for one simulation run.
///
/// Register each metric once (typically at sim construction), keep the
/// returned handle, and update through it on the hot path. At the end of
/// a run, [`MetricsRegistry::snapshot`] freezes every metric into a
/// [`MetricsSnapshot`] for reporting and JSONL export.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    names: BTreeMap<String, (Kind, usize)>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, DurationHistogram)>,
    averages: Vec<(String, WindowedTimeAverage)>,
    sketches: Vec<(String, QuantileSketch)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn claim(&mut self, name: &str, kind: Kind, idx: usize) -> Option<usize> {
        match self.names.get(name) {
            Some(&(k, existing)) => {
                assert!(
                    k == kind,
                    "metric {name:?} already registered with a different kind"
                );
                Some(existing)
            }
            None => {
                self.names.insert(name.to_string(), (kind, idx));
                None
            }
        }
    }

    /// Registers (or re-opens) a counter starting at zero.
    pub fn counter(&mut self, name: &str) -> CounterId {
        let idx = self.counters.len();
        match self.claim(name, Kind::Counter, idx) {
            Some(existing) => CounterId(existing),
            None => {
                self.counters.push((name.to_string(), 0));
                CounterId(idx)
            }
        }
    }

    /// Registers (or re-opens) a gauge starting at zero.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        let idx = self.gauges.len();
        match self.claim(name, Kind::Gauge, idx) {
            Some(existing) => GaugeId(existing),
            None => {
                self.gauges.push((name.to_string(), 0.0));
                GaugeId(idx)
            }
        }
    }

    /// Registers (or re-opens) a duration histogram.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        let idx = self.histograms.len();
        match self.claim(name, Kind::Histogram, idx) {
            Some(existing) => HistogramId(existing),
            None => {
                self.histograms
                    .push((name.to_string(), DurationHistogram::new()));
                HistogramId(idx)
            }
        }
    }

    /// Registers (or re-opens) a windowed time average of a
    /// piecewise-constant signal starting at `(start, v0)`. A zero
    /// `window` records the overall mean but no per-window curve.
    pub fn time_average(
        &mut self,
        name: &str,
        start: SimTime,
        v0: f64,
        window: SimDuration,
    ) -> AverageId {
        let idx = self.averages.len();
        match self.claim(name, Kind::Average, idx) {
            Some(existing) => AverageId(existing),
            None => {
                self.averages.push((
                    name.to_string(),
                    WindowedTimeAverage::windowed(start, v0, window),
                ));
                AverageId(idx)
            }
        }
    }

    /// Registers (or re-opens) a bounded-memory quantile sketch
    /// ([`QuantileSketch`]): the estimator of choice for distributions
    /// too large for exact retention (staleness, age of information,
    /// `T_rec` at population scale).
    pub fn sketch(&mut self, name: &str) -> SketchId {
        let idx = self.sketches.len();
        match self.claim(name, Kind::Sketch, idx) {
            Some(existing) => SketchId(existing),
            None => {
                self.sketches
                    .push((name.to_string(), QuantileSketch::new()));
                SketchId(idx)
            }
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].1 += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Sets a gauge to `v`.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0].1 = v;
    }

    /// Records one duration sample into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, d: SimDuration) {
        self.histograms[id.0].1.record(d);
    }

    /// Read access to a histogram (for quantile queries mid-run).
    pub fn histogram_value(&self, id: HistogramId) -> &DurationHistogram {
        &self.histograms[id.0].1
    }

    /// Records one duration sample into a quantile sketch.
    #[inline]
    pub fn observe_sketch(&mut self, id: SketchId, d: SimDuration) {
        self.sketches[id.0].1.record_duration(d);
    }

    /// Records that a time-averaged signal takes value `v` from `t` on.
    #[inline]
    pub fn record_sample(&mut self, id: AverageId, t: SimTime, v: f64) {
        self.averages[id.0].1.update(t, v);
    }

    /// Read access to a time average (for `mean_until` queries mid-run).
    pub fn average_value(&self, id: AverageId) -> &WindowedTimeAverage {
        &self.averages[id.0].1
    }

    /// Freezes every metric into a snapshot taken at sim time `at`.
    /// Time averages are integrated to `at` and their trailing window
    /// flushed; the registry can keep running afterwards.
    pub fn snapshot(&mut self, at: SimTime) -> MetricsSnapshot {
        let mut values = BTreeMap::new();
        for (name, v) in &self.counters {
            values.insert(name.clone(), MetricValue::Counter(*v));
        }
        for (name, v) in &self.gauges {
            values.insert(name.clone(), MetricValue::Gauge(*v));
        }
        for (name, h) in &self.histograms {
            values.insert(
                name.clone(),
                MetricValue::Histogram(HistogramSummary::of(h)),
            );
        }
        for (name, s) in &self.sketches {
            values.insert(name.clone(), MetricValue::Sketch(SketchSummary::of(s)));
        }
        for (name, a) in &mut self.averages {
            let mean = a.mean_until(at);
            a.finish_windows(at);
            values.insert(
                name.clone(),
                MetricValue::TimeAverage {
                    mean,
                    last: a.current(),
                    windows: a
                        .windows()
                        .iter()
                        .map(|&(t, v)| (t.as_micros(), v))
                        .collect(),
                },
            );
        }
        MetricsSnapshot {
            at_us: at.as_micros(),
            values,
        }
    }
}

/// Fixed summary of a [`DurationHistogram`] at snapshot time, in
/// microseconds of sim time.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact mean, µs.
    pub mean_us: u64,
    /// Smallest sample, µs.
    pub min_us: u64,
    /// Largest sample, µs.
    pub max_us: u64,
    /// Median (bucket resolution), µs.
    pub p50_us: u64,
    /// 90th percentile, µs.
    pub p90_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
}

impl HistogramSummary {
    fn of(h: &DurationHistogram) -> Self {
        HistogramSummary {
            count: h.count(),
            mean_us: h.mean().as_micros(),
            min_us: h.min().as_micros(),
            max_us: h.max().as_micros(),
            p50_us: h.quantile(0.5).as_micros(),
            p90_us: h.quantile(0.9).as_micros(),
            p99_us: h.quantile(0.99).as_micros(),
        }
    }
}

/// Fixed summary of a [`QuantileSketch`] at snapshot time, in
/// microseconds of sim time. Count, mean, min, and max are exact; the
/// quantiles carry the sketch's documented relative-error bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SketchSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact mean, µs.
    pub mean_us: u64,
    /// Smallest sample (exact), µs.
    pub min_us: u64,
    /// Largest sample (exact), µs.
    pub max_us: u64,
    /// Median estimate, µs.
    pub p50_us: u64,
    /// 90th percentile estimate, µs.
    pub p90_us: u64,
    /// 99th percentile estimate, µs.
    pub p99_us: u64,
    /// 99.9th percentile estimate, µs.
    pub p999_us: u64,
}

impl SketchSummary {
    fn of(s: &QuantileSketch) -> Self {
        SketchSummary {
            count: s.count(),
            mean_us: s.mean(),
            min_us: s.min(),
            max_us: s.max(),
            p50_us: s.quantile(0.5),
            p90_us: s.quantile(0.9),
            p99_us: s.quantile(0.99),
            p999_us: s.quantile(0.999),
        }
    }
}

/// One frozen metric value inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Last-set instantaneous value.
    Gauge(f64),
    /// Duration distribution summary.
    Histogram(HistogramSummary),
    /// Bounded-memory quantile-sketch summary.
    Sketch(SketchSummary),
    /// Time-averaged signal: overall mean, final value, and the
    /// per-window means as `(window end µs, mean)` pairs.
    TimeAverage {
        /// Exact time average over the whole run.
        mean: f64,
        /// Signal value at snapshot time.
        last: f64,
        /// Completed window means, `(window end in µs, mean)`.
        windows: Vec<(u64, f64)>,
    },
}

/// Every metric of a run frozen at one sim time, name-sorted.
///
/// Snapshots are plain data: comparable with `==`, printable with
/// `{:#?}` (the double-run harness), and exportable as JSON Lines.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// The sim time (µs) the snapshot was taken at.
    pub at_us: u64,
    /// Metric name → frozen value, in lexicographic name order.
    pub values: BTreeMap<String, MetricValue>,
}

/// Writes an f64 as deterministic JSON: Rust's shortest-roundtrip
/// `Display` for finite values, `null` otherwise.
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

impl MetricsSnapshot {
    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.values.get(name)
    }

    /// The value of a counter metric; panics if absent or mistyped.
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            other => panic!("no counter {name:?} in snapshot (found {other:?})"),
        }
    }

    /// The value of a gauge metric; panics if absent or mistyped.
    pub fn gauge(&self, name: &str) -> f64 {
        match self.values.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            other => panic!("no gauge {name:?} in snapshot (found {other:?})"),
        }
    }

    /// The histogram summary of a metric; panics if absent or mistyped.
    pub fn histogram(&self, name: &str) -> &HistogramSummary {
        match self.values.get(name) {
            Some(MetricValue::Histogram(h)) => h,
            other => panic!("no histogram {name:?} in snapshot (found {other:?})"),
        }
    }

    /// The sketch summary of a metric; panics if absent or mistyped.
    pub fn sketch(&self, name: &str) -> &SketchSummary {
        match self.values.get(name) {
            Some(MetricValue::Sketch(s)) => s,
            other => panic!("no sketch {name:?} in snapshot (found {other:?})"),
        }
    }

    /// The overall mean of a time-average metric; panics if absent or
    /// mistyped.
    pub fn time_average(&self, name: &str) -> f64 {
        match self.values.get(name) {
            Some(MetricValue::TimeAverage { mean, .. }) => *mean,
            other => panic!("no time average {name:?} in snapshot (found {other:?})"),
        }
    }

    /// Serializes the snapshot as JSON Lines: one metric per line in
    /// name order, each line `{"metric":NAME,"type":KIND,...}`.
    pub fn to_jsonl(&self) -> String {
        self.to_jsonl_labeled("")
    }

    /// Like [`MetricsSnapshot::to_jsonl`], but prefixes every line with
    /// a `"run"` label so several runs can share one file (e.g. one
    /// sweep point per label in a figure's artifact).
    pub fn to_jsonl_labeled(&self, run: &str) -> String {
        let mut out = String::with_capacity(96 * (self.values.len() + 1));
        self.write_jsonl_labeled(run, &mut out);
        out
    }

    /// Appends the labeled JSONL export directly into `out`.
    ///
    /// This is the sweep-assembly hot path: a figure artifact
    /// concatenates one snapshot per sweep point, and building each
    /// point's lines in a temporary `String` only to copy it into the
    /// accumulator made the assembly O(runs × metrics) in allocations.
    /// Writing into the shared buffer keeps it to one amortized
    /// allocation total. Bytes produced are identical to
    /// [`MetricsSnapshot::to_jsonl_labeled`].
    pub fn write_jsonl_labeled(&self, run: &str, out: &mut String) {
        for (name, value) in &self.values {
            out.push('{');
            if !run.is_empty() {
                let _ = write!(out, "\"run\":\"{run}\",");
            }
            let _ = write!(out, "\"metric\":\"{name}\",\"t_us\":{}", self.at_us);
            match value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, ",\"type\":\"counter\",\"value\":{v}");
                }
                MetricValue::Gauge(v) => {
                    out.push_str(",\"type\":\"gauge\",\"value\":");
                    push_json_f64(out, *v);
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"type\":\"histogram\",\"count\":{},\"mean_us\":{},\"min_us\":{},\
                         \"max_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{}",
                        h.count, h.mean_us, h.min_us, h.max_us, h.p50_us, h.p90_us, h.p99_us
                    );
                }
                MetricValue::Sketch(s) => {
                    let _ = write!(
                        out,
                        ",\"type\":\"sketch\",\"count\":{},\"mean_us\":{},\"min_us\":{},\
                         \"max_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"p999_us\":{}",
                        s.count,
                        s.mean_us,
                        s.min_us,
                        s.max_us,
                        s.p50_us,
                        s.p90_us,
                        s.p99_us,
                        s.p999_us
                    );
                }
                MetricValue::TimeAverage {
                    mean,
                    last,
                    windows,
                } => {
                    out.push_str(",\"type\":\"time_average\",\"mean\":");
                    push_json_f64(out, *mean);
                    out.push_str(",\"last\":");
                    push_json_f64(out, *last);
                    out.push_str(",\"windows\":[");
                    for (i, (t, v)) in windows.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{t},");
                        push_json_f64(out, *v);
                        out.push(']');
                    }
                    out.push(']');
                }
            }
            out.push_str("}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_update_snapshot() {
        let mut reg = MetricsRegistry::new();
        let tx = reg.counter("tx.hot");
        let g = reg.gauge("loss.observed");
        let h = reg.histogram("latency.t_rec");
        let c = reg.time_average("consistency.c_t", SimTime::ZERO, 1.0, SimDuration::ZERO);

        reg.inc(tx);
        reg.add(tx, 4);
        reg.set_gauge(g, 0.25);
        reg.observe(h, SimDuration::from_millis(10));
        reg.observe(h, SimDuration::from_millis(30));
        reg.record_sample(c, SimTime::from_secs(5), 0.0);

        let snap = reg.snapshot(SimTime::from_secs(10));
        assert_eq!(snap.counter("tx.hot"), 5);
        assert_eq!(snap.gauge("loss.observed"), 0.25);
        assert_eq!(snap.histogram("latency.t_rec").count, 2);
        assert_eq!(snap.histogram("latency.t_rec").mean_us, 20_000);
        // 1.0 for 5s then 0.0 for 5s.
        assert!((snap.time_average("consistency.c_t") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reopening_same_name_returns_same_handle() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("tx.hot");
        let b = reg.counter("tx.hot");
        assert_eq!(a, b);
        reg.inc(a);
        reg.inc(b);
        assert_eq!(reg.counter_value(a), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_clash_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn snapshot_is_reproducible_and_sorted() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            let b = reg.counter("b.second");
            let a = reg.counter("a.first");
            reg.inc(b);
            reg.inc(a);
            reg.snapshot(SimTime::from_secs(1))
        };
        let s1 = build();
        let s2 = build();
        assert_eq!(s1, s2);
        assert_eq!(s1.to_jsonl(), s2.to_jsonl());
        let names: Vec<_> = s1.values.keys().cloned().collect();
        assert_eq!(names, vec!["a.first".to_string(), "b.second".to_string()]);
        // JSONL order follows name order.
        let lines: Vec<_> = s1.to_jsonl().lines().map(str::to_string).collect();
        assert!(lines[0].contains("a.first"));
        assert!(lines[1].contains("b.second"));
    }

    #[test]
    fn jsonl_encodes_every_kind() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("n");
        let g = reg.gauge("bad");
        let h = reg.histogram("lat");
        let a = reg.time_average("avg", SimTime::ZERO, 2.0, SimDuration::from_secs(1));
        reg.inc(c);
        reg.set_gauge(g, f64::NAN);
        reg.observe(h, SimDuration::from_micros(100));
        reg.record_sample(a, SimTime::from_secs(2), 0.0);
        let out = reg
            .snapshot(SimTime::from_secs(2))
            .to_jsonl_labeled("p=0.1");
        assert!(out.contains("{\"run\":\"p=0.1\",\"metric\":\"avg\","));
        assert!(out.contains(
            "\"type\":\"time_average\",\"mean\":2,\"last\":0,\"windows\":[[1000000,2],[2000000,2]]"
        ));
        assert!(
            out.contains("\"metric\":\"bad\",\"t_us\":2000000,\"type\":\"gauge\",\"value\":null")
        );
        assert!(out.contains("\"type\":\"counter\",\"value\":1"));
        assert!(out.contains("\"type\":\"histogram\",\"count\":1,\"mean_us\":100"));
        // Every line parses as a standalone JSON object (shape check).
        for line in out.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn sketch_registers_snapshots_and_serializes() {
        let mut reg = MetricsRegistry::new();
        let s = reg.sketch("staleness.sketch");
        for ms in [5u64, 10, 20, 40, 80, 160] {
            reg.observe_sketch(s, SimDuration::from_millis(ms));
        }
        let snap = reg.snapshot(SimTime::from_secs(1));
        let sk = snap.sketch("staleness.sketch");
        assert_eq!(sk.count, 6);
        assert_eq!(sk.min_us, 5_000);
        assert_eq!(sk.max_us, 160_000);
        assert!(sk.p50_us <= sk.p90_us && sk.p90_us <= sk.p99_us && sk.p99_us <= sk.p999_us);
        let line = snap.to_jsonl();
        assert!(line.contains(
            "\"metric\":\"staleness.sketch\",\"t_us\":1000000,\"type\":\"sketch\",\"count\":6"
        ));
        assert!(line.contains("\"p999_us\":"));
    }

    #[test]
    fn snapshot_can_continue_running() {
        let mut reg = MetricsRegistry::new();
        let a = reg.time_average("c", SimTime::ZERO, 1.0, SimDuration::ZERO);
        let s1 = reg.snapshot(SimTime::from_secs(1));
        assert!((s1.time_average("c") - 1.0).abs() < 1e-12);
        reg.record_sample(a, SimTime::from_secs(1), 0.0);
        let s2 = reg.snapshot(SimTime::from_secs(2));
        assert!((s2.time_average("c") - 0.5).abs() < 1e-12);
    }
}
