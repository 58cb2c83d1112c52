//! In-memory spans around the harness's calls into each layer.
//!
//! The harness measures the program from outside, so a span wraps one
//! call into a public function (`Runtime::poll`, `session::run`, ...).
//! Spans nest: a span's parent is whichever span was open when it began,
//! and its *self time* is its duration minus what its children cover.
//! Every span carries the id of the loop iteration (batch, poll round,
//! recovery round) that caused it.
//!
//! A disabled tracer reads no clock, so the untraced window pays one
//! predictable branch per call site.

use std::fmt::Write as _;
use std::time::Instant;

/// The call sites the harness wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// One loop iteration of a live window (parent of the calls below).
    Iter,
    PubPoll,
    SubPoll,
    Wait,
    /// `SstpSender::update` calls issued by the load generator.
    Publish,
    /// Replica reads that decide whether an update has been installed.
    Probe,
    /// One simulation batch (parent of the `*Run` spans).
    Batch,
    OpenLoopRun,
    TwoQueueRun,
    FeedbackRun,
    SessionMcastRun,
    SessionChurnRun,
    SessionRejoinRun,
}

const NAMES: usize = Name::SessionRejoinRun as usize + 1;

impl Name {
    pub fn label(self) -> &'static str {
        match self {
            Name::Iter => "bench.iter",
            Name::PubPoll => "runtime.poll.pub",
            Name::SubPoll => "runtime.poll.sub",
            Name::Wait => "runtime.wait",
            Name::Publish => "bench.publish",
            Name::Probe => "bench.probe",
            Name::Batch => "bench.batch",
            Name::OpenLoopRun => "core.open_loop.run",
            Name::TwoQueueRun => "core.two_queue.run",
            Name::FeedbackRun => "core.feedback.run",
            Name::SessionMcastRun => "sstp.session.run.mcast",
            Name::SessionChurnRun => "sstp.session.run.churn",
            Name::SessionRejoinRun => "sstp.session.run.rejoin",
        }
    }
}

/// Per-name aggregates, kept for every span (the raw list is capped).
#[derive(Clone, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// The first [`DURATION_CAP`] durations, for a per-call median.
    pub durations_ns: Vec<u32>,
}

/// Raw spans kept for the Chrome-trace file.
const RAW_CAP: usize = 50_000;
/// Durations kept per name for medians.
const DURATION_CAP: usize = 1 << 18;

struct Open {
    name: Name,
    id: u64,
    iter: u64,
    start_ns: u64,
    child_ns: u64,
}

struct Raw {
    name: Name,
    id: u64,
    parent: u64,
    iter: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    open: Vec<Open>,
    totals: Vec<Totals>,
    raw: Vec<Raw>,
    next_id: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            open: Vec::with_capacity(8),
            totals: vec![Totals::default(); NAMES],
            raw: Vec::new(),
            next_id: 1,
        }
    }

    /// Turns recording on or off. Only between top-level spans.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
        if on && self.raw.capacity() == 0 {
            self.raw.reserve_exact(RAW_CAP);
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn enter(&mut self, name: Name, iter: u64) {
        if self.on {
            let t = self.now_ns();
            self.enter_at(name, iter, t);
        }
    }

    #[inline]
    pub fn exit(&mut self) {
        if self.on {
            let t = self.now_ns();
            self.exit_at(t);
        }
    }

    fn enter_at(&mut self, name: Name, iter: u64, t_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(Open {
            name,
            id,
            iter,
            start_ns: t_ns,
            child_ns: 0,
        });
    }

    fn exit_at(&mut self, t_ns: u64) {
        let s = self.open.pop().expect("exit without enter");
        let dur = t_ns.saturating_sub(s.start_ns);
        let parent = match self.open.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let t = &mut self.totals[s.name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(s.child_ns);
        if t.durations_ns.len() < DURATION_CAP {
            t.durations_ns.push(dur.min(u64::from(u32::MAX)) as u32);
        }
        if self.raw.len() < RAW_CAP {
            self.raw.push(Raw {
                name: s.name,
                id: s.id,
                parent,
                iter: s.iter,
                start_ns: s.start_ns,
                end_ns: t_ns,
            });
        }
    }

    pub fn totals(&self, name: Name) -> &Totals {
        &self.totals[name as usize]
    }

    /// Spans closed so far (all of them, not only those kept raw).
    pub fn span_count(&self) -> u64 {
        self.totals.iter().map(|t| t.count).sum()
    }

    /// Median duration of `name`'s calls in µs (0 when it never ran).
    pub fn median_us(&self, name: Name) -> f64 {
        let mut d: Vec<f64> = self
            .totals(name)
            .durations_ns
            .iter()
            .map(|&ns| f64::from(ns) / 1e3)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            crate::stats::median(&mut d)
        }
    }

    /// The kept spans as Chrome-trace ("trace event") JSON.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + 160 * self.raw.len());
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.raw.iter().enumerate() {
            let sep = if i + 1 == self.raw.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"iter\":{}}}}}{sep}",
                s.name.label(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.iter
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.enter_at(Name::Iter, 7, 0);
        t.enter_at(Name::PubPoll, 7, 10);
        t.exit_at(40); // 30 ns
        t.enter_at(Name::SubPoll, 7, 50);
        t.exit_at(70); // 20 ns
        t.exit_at(100); // iter: 100 ns, 50 ns of it in children
        let iter = t.totals(Name::Iter);
        assert_eq!((iter.count, iter.total_ns, iter.self_ns), (1, 100, 50));
        let p = t.totals(Name::PubPoll);
        assert_eq!((p.count, p.total_ns, p.self_ns), (1, 30, 30));
        assert_eq!(t.span_count(), 3);
    }

    #[test]
    fn grandchildren_are_charged_once() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.enter_at(Name::Batch, 0, 0);
        t.enter_at(Name::Iter, 0, 10);
        t.enter_at(Name::Probe, 0, 20);
        t.exit_at(30);
        t.exit_at(50);
        t.exit_at(100);
        // Batch's only child is Iter (40 ns); Probe's 10 ns is Iter's.
        assert_eq!(t.totals(Name::Batch).self_ns, 60);
        assert_eq!(t.totals(Name::Iter).self_ns, 30);
        assert_eq!(t.totals(Name::Probe).self_ns, 10);
    }

    #[test]
    fn parents_and_iteration_ids_reach_the_trace() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.enter_at(Name::Iter, 3, 0);
        t.enter_at(Name::Wait, 3, 1_000);
        t.exit_at(2_000);
        t.exit_at(3_000);
        let json = t.chrome_trace_json();
        assert!(json.contains("\"name\":\"runtime.wait\""), "{json}");
        assert!(json.contains("\"args\":{\"id\":2,\"parent\":1,\"iter\":3}"));
        assert!(json.contains("\"args\":{\"id\":1,\"parent\":0,\"iter\":3}"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.enter(Name::Iter, 0);
        t.exit();
        assert_eq!(t.span_count(), 0);
    }

    #[test]
    fn median_of_recorded_durations() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        for (i, d) in [3_000u64, 1_000, 2_000].into_iter().enumerate() {
            let start = i as u64 * 10_000;
            t.enter_at(Name::PubPoll, 0, start);
            t.exit_at(start + d);
        }
        assert_eq!(t.median_us(Name::PubPoll), 2.0);
        assert_eq!(t.median_us(Name::SubPoll), 0.0);
    }
}
