//! `ss-profile`: a deterministic hierarchical phase profiler.
//!
//! An early ROADMAP claimed the engine's bottleneck had moved to
//! "digest trees and per-receiver probes" — but nothing in the repo
//! could attribute run time to subsystems, so the claim was anecdotal.
//! This module fixes that with scoped phase timers that satisfy the
//! workspace determinism contract:
//!
//! * **Exact event tallies are deterministic.** Every scope entry
//!   increments a per-phase counter; counters merge by addition across
//!   worker threads, and the report sorts phases by name, so the tally
//!   side of a [`ProfileReport`] is byte-identical across double runs
//!   and at any `par::sweep` worker count.
//! * **Wall time is measured but quarantined.** Each scope also records
//!   wall nanoseconds (the only wall-clock use in the sim crates, under
//!   an explicit D001 allowance). Wall fields appear **only** in
//!   [`ProfileReport::to_wall_jsonl`], which the harness writes to a
//!   gitignored `*.wall.jsonl` file; committed `*.profile.jsonl`
//!   artifacts carry counts alone. DESIGN.md §15 states the rule.
//! * **Observation never perturbs.** Scopes schedule no events and
//!   consume no randomness, so enabling profiling cannot change any
//!   simulation artifact — CI checks the enabled-vs-disabled byte
//!   identity of every CSV/metrics artifact.
//!
//! # Phase naming
//!
//! Phases form a tree. [`scope`] opens a named phase nested under
//! whatever phase is active on the current thread; paths join segments
//! with `/`. The engine's profiled run loop uses two reserved shapes:
//! [`WHEEL_PHASE`] for queue pops and `ev:<label>` roots for event
//! dispatch — one per dispatched event, so summing `ev:` roots
//! reproduces the engine's dispatch counter exactly (the ≥95 %
//! attribution gate in ISSUE 9 falls out by construction).
//!
//! # Lifecycle
//!
//! Profiling is process-global and off by default. The harness enables
//! it ([`set_enabled`]), runs an experiment (each simulation run calls
//! [`flush`] on its worker thread when it finishes), then drains the
//! merged tree with [`take_report`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
// lint: allow(D001, the profiler is the sanctioned wall-clock reader; wall fields never reach committed artifacts)
use std::time::Instant;

/// Phase name the engine's profiled loop charges each queue pop to. The
/// value predates the heap (committed `results/profile/*.profile.jsonl`
/// artifacts and the benchmark's `netsim.wheel.*` rows carry it), so it
/// stays `"wheel.advance"` while the queue behind it is a binary heap.
pub const WHEEL_PHASE: &str = "wheel.advance";

/// Prefix marking a root phase as one engine event dispatch.
const DISPATCH_PREFIX: &str = "ev:";

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The cross-thread accumulator worker threads flush into.
static GLOBAL: Mutex<BTreeMap<String, PhaseTotals>> = Mutex::new(BTreeMap::new());

#[derive(Clone, Copy, Debug, Default)]
struct PhaseTotals {
    count: u64,
    wall_ns: u64,
}

/// Per-thread profiler state: the open-scope path and local totals.
struct ThreadProfiler {
    /// Current phase path, segments joined by `/` (empty at top level).
    path: String,
    /// `path.len()` snapshots taken at each scope entry, for O(1) exit.
    opens: Vec<usize>,
    /// Phase path → totals accumulated on this thread since last flush.
    totals: BTreeMap<String, PhaseTotals>,
}

thread_local! {
    static TLS: RefCell<ThreadProfiler> = RefCell::new(ThreadProfiler {
        path: String::with_capacity(64),
        opens: Vec::with_capacity(8),
        totals: BTreeMap::new(),
    });
}

/// Turns profiling on or off for subsequent scopes (process-global).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is currently enabled. Disabled scopes cost one
/// relaxed atomic load.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open phase scope; closing (dropping) it charges the elapsed wall
/// time and one entry tally to the phase path that was active between
/// entry and exit.
#[must_use = "a phase scope measures until it is dropped"]
pub struct Scope {
    // lint: allow(D001, wall side of the profiler; quarantined to *.wall.jsonl)
    start: Option<Instant>,
}

fn enter(prefix: &str, name: &str) -> Scope {
    TLS.with(|p| {
        let mut p = p.borrow_mut();
        let p = &mut *p;
        p.opens.push(p.path.len());
        if !p.path.is_empty() {
            p.path.push('/');
        }
        p.path.push_str(prefix);
        p.path.push_str(name);
    });
    Scope {
        // lint: allow(D001, wall side of the profiler; quarantined to *.wall.jsonl)
        start: Some(Instant::now()),
    }
}

/// Opens a phase named `name` nested under the current phase (or as a
/// root). Inert and free of TLS traffic when profiling is disabled.
#[inline]
pub fn scope(name: &'static str) -> Scope {
    if !is_enabled() {
        return Scope { start: None };
    }
    enter("", name)
}

/// Opens the dispatch scope for one engine event: a root (or nested)
/// phase named `ev:<label>`. Used by
/// [`run_until_profiled`](crate::engine::run_until_profiled); the `ev:`
/// marker is what lets [`ProfileReport::attributed_events`] count
/// exactly the dispatched events.
#[inline]
pub fn dispatch_scope(label: &'static str) -> Scope {
    if !is_enabled() {
        return Scope { start: None };
    }
    enter(DISPATCH_PREFIX, label)
}

impl Drop for Scope {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let wall_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        TLS.with(|p| {
            let mut p = p.borrow_mut();
            let p = &mut *p;
            match p.totals.get_mut(p.path.as_str()) {
                Some(t) => {
                    t.count += 1;
                    t.wall_ns += wall_ns;
                }
                None => {
                    p.totals
                        .insert(p.path.clone(), PhaseTotals { count: 1, wall_ns });
                }
            }
            let open = p.opens.pop().unwrap_or(0);
            p.path.truncate(open);
        });
    }
}

/// Merges this thread's accumulated totals into the global tree and
/// clears them. Simulation runners call this when a run finishes, so a
/// `par::sweep` worker's tallies are visible once the sweep joins.
/// Counts merge by addition — flush order across threads cannot change
/// the report.
pub fn flush() {
    TLS.with(|p| {
        let mut p = p.borrow_mut();
        if p.totals.is_empty() {
            return;
        }
        let drained = std::mem::take(&mut p.totals);
        let mut g = GLOBAL.lock().expect("profile accumulator poisoned");
        for (path, t) in drained {
            let e = g.entry(path).or_default();
            e.count += t.count;
            e.wall_ns += t.wall_ns;
        }
    });
}

/// Flushes the calling thread and drains the global tree into a report
/// (phases sorted by path). The accumulator is left empty, so
/// back-to-back experiments get disjoint reports.
pub fn take_report() -> ProfileReport {
    flush();
    let mut g = GLOBAL.lock().expect("profile accumulator poisoned");
    let phases = std::mem::take(&mut *g)
        .into_iter()
        .map(|(path, t)| PhaseEntry {
            path,
            count: t.count,
            wall_ns: t.wall_ns,
        })
        .collect();
    ProfileReport { phases }
}

/// One phase of a [`ProfileReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseEntry {
    /// Full phase path, segments joined by `/` (e.g. `ev:measure-tick/probe`).
    pub path: String,
    /// Exact number of scope entries — deterministic.
    pub count: u64,
    /// Accumulated wall nanoseconds — **not** deterministic; excluded
    /// from committed artifacts.
    pub wall_ns: u64,
}

impl PhaseEntry {
    /// Nesting depth (0 for roots).
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    /// Whether this phase is one engine event-dispatch root.
    pub fn is_dispatch_root(&self) -> bool {
        self.path.starts_with(DISPATCH_PREFIX) && !self.path.contains('/')
    }
}

/// A drained profile tree: every phase path with its exact entry count
/// and (quarantined) wall time, sorted by path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Phases in ascending path order.
    pub phases: Vec<PhaseEntry>,
}

impl ProfileReport {
    /// True when nothing was profiled.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Exact entry count of the phase at `path` (0 if absent).
    pub fn count(&self, path: &str) -> u64 {
        self.phases
            .iter()
            .find(|p| p.path == path)
            .map_or(0, |p| p.count)
    }

    /// Sum of the entry counts of all `ev:` dispatch roots — the number
    /// of engine events the profiler attributed to a named phase.
    pub fn attributed_events(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.is_dispatch_root())
            .map(|p| p.count)
            .sum()
    }

    /// Total wall nanoseconds across root phases (the run's profiled
    /// wall time; nondeterministic, for the wall artifact only).
    pub fn root_wall_ns(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| !p.path.contains('/'))
            .map(|p| p.wall_ns)
            .sum()
    }

    /// The **deterministic** JSONL artifact: a schema header line
    /// carrying the run label and event totals, then one line per phase
    /// with its exact entry count. No wall-time field appears, so the
    /// bytes are identical across double runs and thread counts.
    pub fn to_jsonl(&self, run: &str, events_total: u64) -> String {
        let mut out = String::with_capacity(64 + 48 * self.phases.len());
        let _ = writeln!(
            out,
            "{{\"schema_version\":{},\"artifact\":\"profile\",\"run\":\"{run}\",\
             \"events_total\":{events_total},\"events_attributed\":{}}}",
            crate::metrics::ARTIFACT_SCHEMA_VERSION,
            self.attributed_events()
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{{\"phase\":\"{}\",\"depth\":{},\"count\":{}}}",
                p.path,
                p.depth(),
                p.count
            );
        }
        out
    }

    /// The wall-time JSONL export: same shape plus `wall_ns` and the
    /// share of profiled root wall time. Nondeterministic by nature —
    /// the harness writes it to a gitignored `*.wall.jsonl` file.
    pub fn to_wall_jsonl(&self, run: &str, events_total: u64) -> String {
        let total = self.root_wall_ns().max(1);
        let mut out = String::with_capacity(64 + 72 * self.phases.len());
        let _ = writeln!(
            out,
            "{{\"schema_version\":{},\"artifact\":\"profile_wall\",\"run\":\"{run}\",\
             \"events_total\":{events_total},\"events_attributed\":{},\"root_wall_ns\":{}}}",
            crate::metrics::ARTIFACT_SCHEMA_VERSION,
            self.attributed_events(),
            self.root_wall_ns()
        );
        for p in &self.phases {
            let mut line = format!(
                "{{\"phase\":\"{}\",\"depth\":{},\"count\":{},\"wall_ns\":{},\"root_share\":",
                p.path,
                p.depth(),
                p.count,
                p.wall_ns
            );
            let share = if p.path.contains('/') {
                // Shares are reported for roots only; children carry null.
                None
            } else {
                Some(p.wall_ns as f64 / total as f64)
            };
            match share {
                Some(s) => {
                    let _ = write!(line, "{s:.4}");
                }
                None => line.push_str("null"),
            }
            line.push('}');
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Chrome trace-event JSON objects (comma-joined, no surrounding
    /// brackets) rendering each phase's exact count as a Perfetto
    /// counter track, for merging into the ss-trace export. Counts
    /// only — deterministic like the rest of the trace.
    pub fn chrome_counter_events(&self) -> String {
        let mut out = String::with_capacity(96 * self.phases.len());
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":\"profile/{}\",\
                 \"args\":{{\"count\":{}}}}}",
                p.path, p.count
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profiling state is process-global; tests serialize on this lock
    /// and drain the accumulator at entry so they cannot see each
    /// other's phases.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn isolated() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let _ = take_report();
        guard
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _g = isolated();
        {
            let _a = scope("a");
            let _b = scope("b");
        }
        assert!(take_report().is_empty());
    }

    #[test]
    fn nesting_builds_paths_and_counts() {
        let _g = isolated();
        set_enabled(true);
        for _ in 0..3 {
            let _d = dispatch_scope("arrival");
            for _ in 0..2 {
                let _inner = scope("digest");
            }
        }
        {
            let _r = scope("metrics.export");
        }
        set_enabled(false);
        let r = take_report();
        assert_eq!(r.count("ev:arrival"), 3);
        assert_eq!(r.count("ev:arrival/digest"), 6);
        assert_eq!(r.count("metrics.export"), 1);
        assert_eq!(r.attributed_events(), 3);
        let paths: Vec<&str> = r.phases.iter().map(|p| p.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort_unstable();
        assert_eq!(paths, sorted, "report is path-sorted");
        // The deterministic artifact never mentions wall time.
        let jsonl = r.to_jsonl("test", 3);
        assert!(!jsonl.contains("wall"), "{jsonl}");
        assert!(jsonl.starts_with("{\"schema_version\":1,\"artifact\":\"profile\""));
        assert!(jsonl.contains("\"events_total\":3,\"events_attributed\":3"));
        // The wall export does, with a root share.
        let wall = r.to_wall_jsonl("test", 3);
        assert!(wall.contains("\"wall_ns\":"));
        assert!(wall.contains("\"root_share\":null"), "children carry null");
    }

    #[test]
    fn counts_merge_identically_across_threads() {
        let _g = isolated();
        set_enabled(true);
        let run = |reps: u64| {
            for _ in 0..reps {
                let _d = dispatch_scope("work");
                let _i = scope("inner");
            }
            flush();
        };
        std::thread::scope(|s| {
            s.spawn(|| run(10));
            s.spawn(|| run(20));
            s.spawn(|| run(30));
        });
        set_enabled(false);
        let r = take_report();
        assert_eq!(r.count("ev:work"), 60);
        assert_eq!(r.count("ev:work/inner"), 60);
        // Deterministic side is identical however the threads raced.
        assert_eq!(
            r.to_jsonl("t", 60),
            "{\"schema_version\":1,\"artifact\":\"profile\",\"run\":\"t\",\
             \"events_total\":60,\"events_attributed\":60}\n\
             {\"phase\":\"ev:work\",\"depth\":0,\"count\":60}\n\
             {\"phase\":\"ev:work/inner\",\"depth\":1,\"count\":60}\n"
        );
    }

    #[test]
    fn counter_track_export_is_count_only() {
        let _g = isolated();
        set_enabled(true);
        {
            let _d = dispatch_scope("tick");
        }
        set_enabled(false);
        let r = take_report();
        let c = r.chrome_counter_events();
        assert!(c.contains("\"ph\":\"C\""));
        assert!(c.contains("\"name\":\"profile/ev:tick\""));
        assert!(c.contains("\"count\":1"));
        assert!(!c.contains("wall"));
    }
}
