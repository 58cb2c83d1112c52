//! Shared live-record bookkeeping for the protocol simulations.
//!
//! Tracks which live records the receiver currently agrees on and owns
//! the run's `ss-metrics` [`MetricsRegistry`] and [`EventLog`]: arrivals,
//! deliveries, deaths, updates, receive latency `T_rec`, live-set
//! occupancy, and the `c(t)` signal all flow through registered metrics,
//! so every protocol variant shares one measurement core and one export
//! path.
//!
//! Storage is an [`Arena`] of generational slots (DESIGN.md §14): a
//! record is named by its [`Handle`], which rides inside event payloads
//! and protocol queues, and a stale handle (the record died, the slot
//! was recycled) is detected by the generation check instead of a map
//! lookup. The same slot carries the engine's per-record protocol state
//! (queue location, `doomed`, NACK dedup — the `pub(super)` fields of
//! [`Job`]), so it is reclaimed with the record and there are no side
//! tables to chase when one dies.

use super::machine::Loc;
use crate::consistency::ConsistencyAverages;
use ss_netsim::metrics::{
    AverageId, CounterId, EventKind, EventLog, HistogramId, MetricsRegistry, MetricsSnapshot,
    SketchId, WindowedTimeAverage,
};
use ss_netsim::trace::{Actor, TraceId, TraceKind, Tracer};
use ss_netsim::{Arena, DurationHistogram, Handle, SimDuration, SimTime};

/// One live record: the measurement core's bookkeeping (private to this
/// module) and the engine's protocol state, in one arena slot.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Job {
    /// External record id — what the event log, tracer, and workload
    /// speak; stable for the record's whole life and never recycled.
    id: u64,
    /// When the record entered the publisher's table.
    born: SimTime,
    /// When the receiver's view of this record last became stale (birth,
    /// or the latest supersession while consistent). Feeds the
    /// staleness/AoI sketches.
    stale_since: SimTime,
    /// Whether the receiver currently holds this record's value.
    consistent: bool,
    /// This record's position in the dense `live` vector (for O(1)
    /// swap-removal on death).
    live_idx: u32,
    /// Sender-side location (for promotion, lifetime-death deferral and
    /// lazy queue cleanup). A new record starts in the hot queue.
    pub(super) loc: Loc,
    /// Lifetime ended mid-service; the record dies at the completion
    /// instead of vanishing off the wire.
    pub(super) doomed: bool,
    /// A NACK is queued or in flight (receiver-side dedup).
    pub(super) nack_pending: bool,
    /// The trace event this record's next step in §5's repair chain is
    /// caused by ([`TraceId::NONE`] when absent or untraced): while a
    /// NACK is pending, that NACK, so the promotion it triggers parents
    /// under it; after the promotion, the promotion, so the hot
    /// retransmission parents under it (NACK → promote → retransmit).
    /// One field serves both because the chain is sequential — a
    /// promoted record waits in the hot queue, and only a completed
    /// announcement can raise the next NACK — and the slot stays 40
    /// bytes, which is most of a long unstable run's resident memory.
    pub(super) link: TraceId,
}

impl Job {
    /// The record's external id.
    #[inline]
    pub(super) fn id(&self) -> u64 {
        self.id
    }

    /// Whether the receiver currently holds this record's value.
    #[inline]
    pub(super) fn is_consistent(&self) -> bool {
        self.consistent
    }
}

/// The live set plus all §2.1 instrumentation.
#[derive(Clone, Debug)]
pub(crate) struct LiveJobs {
    jobs: Arena<Job>,
    /// Dense list of live handles for O(1) uniform sampling (update
    /// workloads pick a random live record to supersede). Maintained
    /// push-back / swap-remove, exactly like the id vector it replaced,
    /// so the sampling sequence is unchanged.
    live: Vec<Handle>,
    n_consistent: usize,
    start: SimTime,
    /// 1 while the live set is non-empty, else 0. Unregistered, so it
    /// adds no metrics line; with `consistency.c_t` it yields the three
    /// consistency conventions.
    busy: WindowedTimeAverage,
    /// Figure 8's `c(t)` curve (empty instants score 1), keeping at most
    /// one point per minimum spacing, when enabled.
    series: Option<(SimDuration, Vec<(SimTime, f64)>)>,
    registry: MetricsRegistry,
    events: EventLog,
    tracer: Tracer,
    c_arrivals: CounterId,
    c_delivered: CounterId,
    c_deaths: CounterId,
    c_updates: CounterId,
    h_latency: HistogramId,
    a_live: AverageId,
    a_consistency: AverageId,
    /// `T_rec` samples in bounded memory (mirrors `latency.t_rec` but
    /// scales to populations where exact retention is impossible, and
    /// adds p999).
    sk_trec: SketchId,
    /// Closed staleness intervals: time from a record turning stale
    /// (birth or supersession) to the delivery that repaired it.
    sk_staleness: SketchId,
    /// Age of stale information at exit: how stale the receiver's view
    /// still was when a record died or the run ended unrepaired.
    sk_aoi: SketchId,
}

impl LiveJobs {
    /// Starts the measurement core at `start`. `series_spacing` enables
    /// the Figure 8 `c(t)` series (and sets the `consistency.c_t` window
    /// width); `event_capacity` bounds the typed event log and
    /// `trace_capacity` the causal `ss-trace` log (0 disables either).
    pub(crate) fn new(
        start: SimTime,
        series_spacing: Option<SimDuration>,
        event_capacity: usize,
        trace_capacity: usize,
    ) -> Self {
        let mut registry = MetricsRegistry::new();
        let c_arrivals = registry.counter("records.arrivals");
        let c_delivered = registry.counter("records.delivered");
        let c_deaths = registry.counter("records.deaths");
        let c_updates = registry.counter("records.updates");
        let h_latency = registry.histogram("latency.t_rec");
        let a_live = registry.time_average("records.live", start, 0.0, SimDuration::ZERO);
        let a_consistency = registry.time_average(
            "consistency.c_t",
            start,
            0.0,
            series_spacing.unwrap_or(SimDuration::ZERO),
        );
        let sk_trec = registry.sketch("latency.t_rec.sketch");
        let sk_staleness = registry.sketch("staleness.sketch");
        let sk_aoi = registry.sketch("aoi.sketch");
        LiveJobs {
            jobs: Arena::new(),
            live: Vec::new(),
            n_consistent: 0,
            start,
            busy: WindowedTimeAverage::new(start, 0.0),
            series: series_spacing.map(|sp| (sp, Vec::new())),
            registry,
            events: EventLog::with_capacity(event_capacity),
            tracer: Tracer::with_capacity(trace_capacity),
            c_arrivals,
            c_delivered,
            c_deaths,
            c_updates,
            h_latency,
            a_live,
            a_consistency,
            sk_trec,
            sk_staleness,
            sk_aoi,
        }
    }

    /// The run's metrics registry, for protocol-specific counters.
    pub(crate) fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// The run's typed event log, for protocol-specific events.
    pub(crate) fn events(&mut self) -> &mut EventLog {
        &mut self.events
    }

    /// The run's causal tracer, for protocol-specific spans and edges.
    pub(crate) fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    fn observe(&mut self, now: SimTime) {
        let live = self.jobs.len();
        // 0 when the set is empty (then `n_consistent` is 0 too).
        let c = self.n_consistent as f64 / live.max(1) as f64;
        self.registry.record_sample(self.a_live, now, live as f64);
        self.registry.record_sample(self.a_consistency, now, c);
        self.busy.update(now, if live == 0 { 0.0 } else { 1.0 });
        if let Some((spacing, points)) = &mut self.series {
            if points
                .last()
                .is_none_or(|p| now.saturating_since(p.0) >= *spacing)
            {
                points.push((now, if live == 0 { 1.0 } else { c }));
            }
        }
    }

    /// A new (inconsistent) record enters the live set with the
    /// protocol's initial per-record state. Returns the handle that
    /// names it until death.
    pub(crate) fn arrive(&mut self, now: SimTime, id: u64) -> Handle {
        let live_idx = u32::try_from(self.live.len()).expect("live set exceeds u32");
        let h = self.jobs.insert(Job {
            id,
            born: now,
            stale_since: now,
            consistent: false,
            live_idx,
            loc: Loc::Hot,
            doomed: false,
            nack_pending: false,
            link: TraceId::NONE,
        });
        self.live.push(h);
        self.registry.inc(self.c_arrivals);
        self.events.log(now, EventKind::Arrival, id);
        self.tracer.birth(now, Actor::Publisher, id);
        self.observe(now);
        h
    }

    /// A transmission of `h` reached the receiver. Returns `true` on the
    /// I → C transition (first successful delivery), recording latency.
    /// `cause` is the trace id of the transmission that delivered it
    /// ([`TraceId::NONE`] parents under the record's root span instead).
    pub(crate) fn deliver(&mut self, now: SimTime, h: Handle, cause: TraceId) -> bool {
        let job = self.jobs.get_mut(h).expect("deliver of dead job");
        if job.consistent {
            return false;
        }
        job.consistent = true;
        let born = job.born;
        let stale_since = job.stale_since;
        let id = job.id;
        self.n_consistent += 1;
        self.registry.inc(self.c_delivered);
        self.registry.observe(self.h_latency, now.since(born));
        self.registry.observe_sketch(self.sk_trec, now.since(born));
        self.registry
            .observe_sketch(self.sk_staleness, now.since(stale_since));
        self.events.log(now, EventKind::Deliver, id);
        let parent = if cause.is_some() {
            cause
        } else {
            self.tracer.root(id)
        };
        self.tracer
            .instant_under(now, Actor::Replica(0), TraceKind::Deliver, id, parent);
        self.observe(now);
        true
    }

    /// The record's lifetime ended; it leaves both tables and `h` (and
    /// every copy of it) goes stale. Returns whether it was consistent
    /// at death.
    pub(crate) fn kill(&mut self, now: SimTime, h: Handle) -> bool {
        let job = self.jobs.remove(h).expect("kill of dead job");
        let last = self.live.pop().expect("nonempty live set");
        if last != h {
            self.live[job.live_idx as usize] = last;
            self.jobs
                .get_mut(last)
                .expect("dense live handle is live")
                .live_idx = job.live_idx;
        }
        if job.consistent {
            self.n_consistent -= 1;
        } else {
            // The record died before the receiver recovered its latest
            // value: the unrepaired staleness becomes an AoI sample.
            self.registry
                .observe_sketch(self.sk_aoi, now.since(job.stale_since));
        }
        self.registry.inc(self.c_deaths);
        self.events.log(now, EventKind::Expire, job.id);
        self.tracer.death(now, Actor::Publisher, job.id);
        self.observe(now);
        job.consistent
    }

    /// The publisher superseded the record's value: the receiver's copy
    /// (if any) is stale again (C → I). Returns whether the record was
    /// consistent before the update.
    pub(crate) fn invalidate(&mut self, now: SimTime, h: Handle) -> bool {
        let job = self.jobs.get_mut(h).expect("invalidate of dead job");
        let id = job.id;
        let was = job.consistent;
        job.consistent = false;
        if was {
            // A fresh staleness interval starts at the supersession; an
            // already-stale record keeps its earlier start.
            job.stale_since = now;
        }
        self.registry.inc(self.c_updates);
        self.events.log(now, EventKind::Update, id);
        self.tracer
            .instant(now, Actor::Publisher, TraceKind::Update, id);
        if was {
            self.n_consistent -= 1;
            self.observe(now);
            true
        } else {
            false
        }
    }

    /// A receiver crash wiped the replica: every consistent record is
    /// stale again (C → I), exactly as if each had been superseded — the
    /// wipe is logged as an update per flipped record so the registry,
    /// the event log, and the causal trace all stay in agreement with
    /// [`ss_netsim::trace::LifecycleAnalysis`]'s replay. The traversal is
    /// ordered by record id, not slot index, so the emitted event
    /// sequence is independent of allocation history (determinism rule
    /// D005). Returns how many records flipped.
    pub(crate) fn wipe(&mut self, now: SimTime) -> usize {
        let mut stale: Vec<(u64, Handle)> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.consistent)
            .map(|(h, j)| (j.id, h))
            .collect();
        stale.sort_unstable_by_key(|&(id, _)| id);
        for &(_, h) in &stale {
            self.invalidate(now, h);
        }
        stale.len()
    }

    /// A uniformly random live record (None when the set is empty).
    pub(crate) fn random_live(&self, rng: &mut ss_netsim::SimRng) -> Option<Handle> {
        if self.live.is_empty() {
            None
        } else {
            Some(self.live[rng.below(self.live.len() as u64) as usize])
        }
    }

    /// The live record behind `h`, or `None` if the handle is stale.
    #[inline]
    pub(crate) fn job(&self, h: Handle) -> Option<&Job> {
        self.jobs.get(h)
    }

    /// Mutable access to the record behind `h`, or `None` if stale.
    #[inline]
    pub(crate) fn job_mut(&mut self, h: Handle) -> Option<&mut Job> {
        self.jobs.get_mut(h)
    }

    /// Applies `f` to every live record (bulk protocol-state resets,
    /// e.g. a crashed receiver forgetting its NACK dedup). The visit
    /// order is that of the dense live list, which depends on death
    /// history; callers must not emit output from `f`.
    pub(crate) fn for_each_job_mut(&mut self, mut f: impl FnMut(&mut Job)) {
        for h in &self.live {
            f(self.jobs.get_mut(*h).expect("live handle"));
        }
    }

    /// Number of live records.
    pub(crate) fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Finalizes the instrumentation at `end`: the three consistency
    /// conventions become gauges, every metric is frozen into a
    /// [`MetricsSnapshot`], still-open trace root spans are closed, and
    /// the event log and causal trace are released.
    pub(crate) fn finish(mut self, end: SimTime) -> (JobStats, MetricsSnapshot, EventLog, Tracer) {
        let averages = ConsistencyAverages::from_time_averages(
            self.registry.average_value(self.a_consistency),
            &self.busy,
            self.start,
            end,
        );

        // Records still stale at the horizon close their AoI interval at
        // `end`. Sketch recording commutes, so the arena's slot order
        // cannot influence the artifact.
        let open_stale: Vec<SimDuration> = self
            .jobs
            .iter()
            .filter(|(_, j)| !j.consistent)
            .map(|(_, j)| end.since(j.stale_since))
            .collect();
        for d in open_stale {
            self.registry.observe_sketch(self.sk_aoi, d);
        }

        let g_un = self.registry.gauge("consistency.unnormalized");
        self.registry.set_gauge(g_un, averages.unnormalized);
        let g_busy = self.registry.gauge("consistency.busy");
        self.registry
            .set_gauge(g_busy, averages.busy.unwrap_or(f64::NAN));
        let g_empty = self.registry.gauge("consistency.empty_consistent");
        self.registry.set_gauge(g_empty, averages.empty_consistent);

        let latency = self.registry.histogram_value(self.h_latency).clone();
        let snapshot = self.registry.snapshot(end);
        let stats = JobStats {
            consistency: averages,
            mean_live_records: snapshot.time_average("records.live"),
            latency,
            arrivals: snapshot.counter("records.arrivals"),
            updates: snapshot.counter("records.updates"),
            deaths: snapshot.counter("records.deaths"),
            final_live: self.jobs.len(),
            series: self.series.map(|(_, points)| points),
        };
        self.tracer.finish(end);
        (stats, snapshot, self.events, self.tracer)
    }
}

/// The measurement outputs common to every protocol variant.
#[derive(Clone, Debug)]
pub struct JobStats {
    /// Time-averaged system consistency under the three conventions.
    pub consistency: ConsistencyAverages,
    /// Time-averaged number of live records (`E[n]`).
    pub mean_live_records: f64,
    /// Receive latencies `T_rec` over first successful deliveries.
    pub latency: DurationHistogram,
    /// Records that entered the system.
    pub arrivals: u64,
    /// In-place updates applied (update workloads only).
    pub updates: u64,
    /// Records whose lifetime ended during the run.
    pub deaths: u64,
    /// Records still live at the end.
    pub final_live: usize,
    /// The `c(t)` time series, when enabled.
    pub series: Option<Vec<(SimTime, f64)>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sim_timer`'s resident set is mostly these slots (≈ 27 k live
    /// records in an unstable two-queue call): growing one is a memory
    /// regression on the benchmark, so do it knowingly.
    #[test]
    fn record_slot_stays_40_bytes() {
        assert_eq!(std::mem::size_of::<Job>(), 40);
    }

    #[test]
    fn lifecycle_and_metrics() {
        let mut j = LiveJobs::new(SimTime::ZERO, None, 0, 0);
        let h1 = j.arrive(SimTime::ZERO, 1);
        let h2 = j.arrive(SimTime::ZERO, 2);
        assert_eq!(j.len(), 2);
        assert!(!j.job(h1).unwrap().is_consistent());
        assert_eq!(j.job(h1).unwrap().id(), 1);

        assert!(j.deliver(SimTime::from_secs(1), h1, TraceId::NONE));
        assert!(
            !j.deliver(SimTime::from_secs(2), h1, TraceId::NONE),
            "redundant delivery"
        );
        assert!(j.job(h1).unwrap().is_consistent());

        assert!(j.kill(SimTime::from_secs(4), h1));
        assert!(!j.kill(SimTime::from_secs(4), h2));
        assert!(j.job(h1).is_none());

        let (stats, snapshot, _events, _trace) = j.finish(SimTime::from_secs(4));
        assert_eq!(stats.arrivals, 2);
        assert_eq!(stats.deaths, 2);
        assert_eq!(stats.final_live, 0);
        assert_eq!(stats.latency.count(), 1);
        assert_eq!(stats.latency.mean(), SimDuration::from_secs(1));
        // c(t): 0 on [0,1), 0.5 on [1,4) -> busy average 1.5/4 over 4s busy.
        assert!((stats.consistency.busy.unwrap() - 0.375).abs() < 1e-12);
        // occupancy: 2 jobs for all 4 seconds.
        assert!((stats.mean_live_records - 2.0).abs() < 1e-12);
        // The registry mirrors everything.
        assert_eq!(snapshot.counter("records.arrivals"), 2);
        assert_eq!(snapshot.counter("records.delivered"), 1);
        assert_eq!(snapshot.histogram("latency.t_rec").count, 1);
        assert!((snapshot.time_average("consistency.c_t") - 0.375).abs() < 1e-12);
        assert!((snapshot.gauge("consistency.busy") - 0.375).abs() < 1e-12);
    }

    #[test]
    fn sketches_track_staleness_aoi_and_t_rec() {
        let mut j = LiveJobs::new(SimTime::ZERO, None, 0, 0);
        // Record 1: delivered at 2s (t_rec = staleness = 2s), superseded
        // at 3s, re-delivered at 5s (staleness 2s), dies consistent.
        // Record 2: born at 1s, never delivered, dies at 4s -> AoI 3s.
        let h1 = j.arrive(SimTime::ZERO, 1);
        let h2 = j.arrive(SimTime::from_secs(1), 2);
        j.deliver(SimTime::from_secs(2), h1, TraceId::NONE);
        j.invalidate(SimTime::from_secs(3), h1);
        j.kill(SimTime::from_secs(4), h2);
        j.deliver(SimTime::from_secs(5), h1, TraceId::NONE);
        j.kill(SimTime::from_secs(6), h1);
        // Record 3: never delivered, still live at the 10s horizon ->
        // AoI sample 3s.
        let _h3 = j.arrive(SimTime::from_secs(7), 3);

        let (_, snapshot, _, _) = j.finish(SimTime::from_secs(10));
        let trec = snapshot.sketch("latency.t_rec.sketch");
        assert_eq!(trec.count, 2);
        assert_eq!(trec.count, snapshot.histogram("latency.t_rec").count);
        let staleness = snapshot.sketch("staleness.sketch");
        assert_eq!(staleness.count, 2);
        assert_eq!(staleness.max_us, 2_000_000);
        let aoi = snapshot.sketch("aoi.sketch");
        assert_eq!(aoi.count, 2);
        assert_eq!(aoi.min_us, 3_000_000);
        assert_eq!(aoi.max_us, 3_000_000);
    }

    #[test]
    fn series_enabled() {
        let mut j = LiveJobs::new(SimTime::ZERO, Some(SimDuration::from_secs(1)), 0, 0);
        let h1 = j.arrive(SimTime::ZERO, 1);
        // Closer than the spacing to the last point: not kept.
        let h2 = j.arrive(SimTime::from_millis(500), 2);
        j.deliver(SimTime::from_secs(1), h1, TraceId::NONE);
        j.kill(SimTime::from_secs(2), h1);
        j.kill(SimTime::from_secs(3), h2);
        let (stats, _, _, _) = j.finish(SimTime::from_secs(4));
        let series = stats.series.unwrap();
        let at = SimTime::from_secs;
        // The drained system at 3s scores 1.
        assert_eq!(
            series,
            vec![(at(0), 0.0), (at(1), 0.5), (at(2), 0.0), (at(3), 1.0)]
        );
    }

    #[test]
    fn series_downsamples_to_the_spacing() {
        let mut j = LiveJobs::new(SimTime::ZERO, Some(SimDuration::from_secs(1)), 0, 0);
        for ms in (0..5000).step_by(100) {
            j.arrive(SimTime::from_millis(ms), ms);
        }
        let (stats, _, _, _) = j.finish(SimTime::from_secs(5));
        let times: Vec<SimTime> = stats.series.unwrap().iter().map(|p| p.0).collect();
        // Of 50 changes 100 ms apart, those at whole seconds survive.
        assert_eq!(times, (0..5).map(SimTime::from_secs).collect::<Vec<_>>());
    }

    #[test]
    fn series_keeps_every_point_with_zero_spacing() {
        let mut j = LiveJobs::new(SimTime::ZERO, Some(SimDuration::ZERO), 0, 0);
        let h = j.arrive(SimTime::ZERO, 1);
        // Same-instant changes each leave a point.
        j.deliver(SimTime::ZERO, h, TraceId::NONE);
        j.invalidate(SimTime::from_micros(1), h);
        j.kill(SimTime::from_micros(1), h);
        let (stats, _, _, _) = j.finish(SimTime::from_micros(2));
        let at = SimTime::from_micros;
        assert_eq!(
            stats.series.unwrap(),
            vec![(at(0), 0.0), (at(0), 1.0), (at(1), 0.0), (at(1), 1.0)]
        );
    }

    #[test]
    fn series_absent_when_disabled() {
        let mut j = LiveJobs::new(SimTime::ZERO, None, 0, 0);
        j.arrive(SimTime::ZERO, 1);
        let (stats, _, _, _) = j.finish(SimTime::from_secs(1));
        assert_eq!(stats.series, None);
    }

    #[test]
    fn idle_stretch_moves_only_the_idle_sensitive_conventions() {
        // c(t) = 0.5 over [0, 2); the set then drains. Ending at 2s
        // and at 8s differ by a 6s idle stretch.
        let run = |end: u64| {
            let mut j = LiveJobs::new(SimTime::ZERO, None, 0, 0);
            let h1 = j.arrive(SimTime::ZERO, 1);
            let h2 = j.arrive(SimTime::ZERO, 2);
            j.deliver(SimTime::ZERO, h1, TraceId::NONE);
            j.kill(SimTime::from_secs(2), h1);
            j.kill(SimTime::from_secs(2), h2);
            j.finish(SimTime::from_secs(end)).0.consistency
        };
        let (short, long) = (run(2), run(8));
        assert_eq!(short.busy, Some(0.5));
        assert_eq!(
            long.busy, short.busy,
            "idle time is outside the busy average"
        );
        assert_eq!(short.unnormalized, 0.5);
        assert_eq!(long.unnormalized, 1.0 / 8.0, "idle time scores 0");
        assert_eq!(short.empty_consistent, 0.5);
        assert_eq!(long.empty_consistent, 7.0 / 8.0, "idle time scores 1");
    }

    #[test]
    fn event_log_records_lifecycle() {
        let mut j = LiveJobs::new(SimTime::ZERO, None, 16, 0);
        let h = j.arrive(SimTime::ZERO, 1);
        j.deliver(SimTime::from_secs(1), h, TraceId::NONE);
        j.invalidate(SimTime::from_secs(2), h);
        j.kill(SimTime::from_secs(3), h);
        let (_, _, events, _) = j.finish(SimTime::from_secs(3));
        let kinds: Vec<_> = events.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Arrival,
                EventKind::Deliver,
                EventKind::Update,
                EventKind::Expire
            ]
        );
    }

    #[test]
    fn stale_handle_is_detected_after_slot_reuse() {
        let mut j = LiveJobs::new(SimTime::ZERO, None, 0, 0);
        let h1 = j.arrive(SimTime::ZERO, 1);
        j.kill(SimTime::from_secs(1), h1);
        // The new record recycles the slot, but the stale handle stays
        // dead — this is what makes in-flight timer events for dead
        // records safe without a map lookup.
        let h2 = j.arrive(SimTime::from_secs(2), 2);
        assert_eq!(h2.slot(), h1.slot());
        assert!(j.job(h1).is_none());
        assert!(j.job(h2).is_some());
        assert!(j.job(h1).is_none());
        assert_eq!(j.job(h2).unwrap().id(), 2);
    }

    #[test]
    #[should_panic(expected = "dead job")]
    fn deliver_dead_panics() {
        let mut j = LiveJobs::new(SimTime::ZERO, None, 0, 0);
        let h = j.arrive(SimTime::ZERO, 1);
        j.kill(SimTime::from_secs(1), h);
        j.deliver(SimTime::from_secs(2), h, TraceId::NONE);
    }

    #[test]
    fn wipe_emits_in_id_order_regardless_of_slot_history() {
        let mut j = LiveJobs::new(SimTime::ZERO, None, 16, 0);
        // Allocate out of id order by recycling a slot: record 5 lands in
        // record 3's old slot after 3 dies.
        let h3 = j.arrive(SimTime::ZERO, 3);
        let h4 = j.arrive(SimTime::ZERO, 4);
        j.deliver(SimTime::ZERO, h3, TraceId::NONE);
        j.deliver(SimTime::ZERO, h4, TraceId::NONE);
        j.kill(SimTime::from_secs(1), h3);
        let h5 = j.arrive(SimTime::from_secs(1), 5);
        assert_eq!(h5.slot(), h3.slot(), "slot recycled out of id order");
        j.deliver(SimTime::from_secs(1), h5, TraceId::NONE);
        assert_eq!(j.wipe(SimTime::from_secs(2)), 2);
        let (_, _, events, _) = j.finish(SimTime::from_secs(2));
        let updates: Vec<u64> = events
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Update)
            .map(|e| e.key)
            .collect();
        assert_eq!(
            updates,
            vec![4, 5],
            "wipe order is id order, not slot order"
        );
    }

    #[test]
    fn tracer_mirrors_lifecycle_and_metrics() {
        use ss_netsim::trace::LifecycleAnalysis;
        // The set empties at 5s, so [5, 6] is an idle stretch.
        let end = SimTime::from_secs(6);
        let mut j = LiveJobs::new(SimTime::ZERO, None, 0, 64);
        let h1 = j.arrive(SimTime::ZERO, 1);
        let h2 = j.arrive(SimTime::ZERO, 2);
        j.deliver(SimTime::from_secs(1), h1, TraceId::NONE);
        j.invalidate(SimTime::from_secs(2), h1);
        j.deliver(SimTime::from_secs(3), h1, TraceId::NONE);
        j.kill(SimTime::from_secs(4), h1);
        j.kill(SimTime::from_secs(5), h2);
        let (_, snapshot, _, trace) = j.finish(end);
        assert_eq!(trace.dropped(), 0);
        let a = LifecycleAnalysis::from_tracer(&trace, end);
        // Counters recomputed from the trace match the registry exactly.
        assert_eq!(a.births, snapshot.counter("records.arrivals"));
        assert_eq!(a.deliveries, snapshot.counter("records.delivered"));
        assert_eq!(a.expiries, snapshot.counter("records.deaths"));
        assert_eq!(a.updates, snapshot.counter("records.updates"));
        // So do T_rec and the replayed consistency signal (bit-exact).
        let h = snapshot.histogram("latency.t_rec");
        assert_eq!(a.t_rec.count(), h.count);
        assert_eq!(a.t_rec.mean().as_micros(), h.mean_us);
        let c = a.replay_c_t(SimTime::ZERO, SimDuration::ZERO, end);
        assert_eq!(c, snapshot.time_average("consistency.c_t"));
        let live = a.replay_live(SimTime::ZERO, end);
        assert_eq!(live, snapshot.time_average("records.live"));
        // The other two committed consistency gauges, replayed from the
        // trace's samples through the same constructor.
        let mut c_t = WindowedTimeAverage::new(SimTime::ZERO, 0.0);
        let mut busy = WindowedTimeAverage::new(SimTime::ZERO, 0.0);
        for s in &a.samples {
            c_t.update(s.at, s.c());
            busy.update(s.at, if s.live == 0 { 0.0 } else { 1.0 });
        }
        let replayed = ConsistencyAverages::from_time_averages(&c_t, &busy, SimTime::ZERO, end);
        assert_eq!(
            replayed.busy.map(f64::to_bits),
            Some(snapshot.gauge("consistency.busy").to_bits())
        );
        assert_eq!(
            replayed.empty_consistent.to_bits(),
            snapshot.gauge("consistency.empty_consistent").to_bits()
        );
        // Key 2 never recovered; key 1 was stale twice.
        assert_eq!(a.intervals.len(), 3);
    }
}
