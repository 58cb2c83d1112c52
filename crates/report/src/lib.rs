//! # ss-report — cross-run artifact analytics
//!
//! Ingests the JSONL/JSON artifacts the experiment harness writes —
//! `bench.json`, `results/metrics/*.jsonl`, and
//! `results/profile/*.profile.jsonl` — from two runs and answers "what
//! changed and where" as a markdown report: per-experiment events/s
//! deltas, phase-attribution deltas, and sketch-quantile drift against
//! configurable tolerances. A separate `history` mode appends one line
//! per bench run to the append-only `BENCH_history.jsonl` trajectory.
//!
//! Every ingested artifact must carry the workspace's
//! [`ARTIFACT_SCHEMA_VERSION`]; a mismatch (or a missing version) is a
//! hard error, never a silent best-effort parse — stale baselines must
//! be regenerated, not reinterpreted.
//!
//! Parsing is hand-rolled over the harness's fixed flat-JSON layouts
//! (the simulation stack is dependency-free by design); see
//! `crates/bench/src/bin/experiments.rs` for the writers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

pub use ss_netsim::ARTIFACT_SCHEMA_VERSION;

/// Extracts the raw text of a `"key": value` field from one flat JSON
/// object (no nested-object values except where callers slice first).
fn raw_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A `"key": <number>` field of a flat JSON object.
pub(crate) fn json_f64(json: &str, key: &str) -> Option<f64> {
    raw_field(json, key)?.parse().ok()
}

/// A `"key": <integer>` field of a flat JSON object.
pub(crate) fn json_u64(json: &str, key: &str) -> Option<u64> {
    raw_field(json, key)?.parse().ok()
}

/// A `"key": "<string>"` field of a flat JSON object (no escapes — the
/// harness emits plain ASCII labels).
pub(crate) fn json_str<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Verifies the artifact's `schema_version` against the workspace's.
/// `what` names the artifact in the error ("bench.json", …).
fn check_schema(json: &str, what: &str) -> Result<(), String> {
    match json_u64(json, "schema_version") {
        Some(v) if v == u64::from(ARTIFACT_SCHEMA_VERSION) => Ok(()),
        Some(v) => Err(format!(
            "{what}: schema_version {v} does not match this tree's {ARTIFACT_SCHEMA_VERSION}; \
             regenerate the artifact with the current tools"
        )),
        None => Err(format!(
            "{what}: no schema_version field; the artifact predates versioning — \
             regenerate it with the current tools"
        )),
    }
}

/// One experiment's row of a bench JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Experiment id (e.g. `fig3`).
    pub id: String,
    /// Wall seconds for the whole experiment (nondeterministic).
    pub wall_s: f64,
    /// Exact dispatched-event count (deterministic).
    pub events: u64,
    /// events / wall_s.
    pub events_per_sec: f64,
}

/// A parsed `bench.json` / `BENCH_baseline.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Whether the run used `--fast` (shortened sims).
    pub fast: bool,
    /// Sweep worker threads.
    pub threads: u64,
    /// Host metadata, verbatim (`{"os": …, "arch": …, "cpus": …}`).
    pub host: String,
    /// Per-experiment rows in run order.
    pub rows: Vec<BenchRow>,
    /// Aggregate wall seconds.
    pub total_wall_s: f64,
    /// Aggregate event count.
    pub total_events: u64,
    /// Aggregate events/s.
    pub total_events_per_sec: f64,
}

/// Parses the fixed layout `experiments bench` writes. `what` names the
/// source file for error messages.
pub(crate) fn parse_bench(json: &str, what: &str) -> Result<BenchRun, String> {
    check_schema(json, what)?;
    let need = |key: &str| -> Result<f64, String> {
        json_f64(json, key).ok_or_else(|| format!("{what}: missing field '{key}'"))
    };
    let host = json
        .find("\"host\":")
        .and_then(|at| {
            let rest = &json[at + "\"host\":".len()..];
            rest.find('}').map(|end| rest[..end + 1].trim().to_string())
        })
        .unwrap_or_else(|| "(absent)".to_string());
    let mut rows = Vec::new();
    for chunk in json.split("{\"id\": \"").skip(1) {
        let Some(id_end) = chunk.find('"') else {
            continue;
        };
        let entry = &chunk[..chunk.find('}').unwrap_or(chunk.len())];
        let (Some(wall_s), Some(events), Some(eps)) = (
            json_f64(entry, "wall_s"),
            json_u64(entry, "events"),
            json_f64(entry, "events_per_sec"),
        ) else {
            return Err(format!("{what}: malformed experiment entry: {entry}"));
        };
        rows.push(BenchRow {
            id: chunk[..id_end].to_string(),
            wall_s,
            events,
            events_per_sec: eps,
        });
    }
    Ok(BenchRun {
        fast: json.contains("\"fast\": true"),
        threads: json_u64(json, "threads").unwrap_or(0),
        host,
        rows,
        total_wall_s: need("total_wall_s")?,
        total_events: need("total_events")? as u64,
        total_events_per_sec: need("total_events_per_sec")?,
    })
}

/// One `"type":"sketch"` line of a metrics artifact: the quantile
/// summary of one distribution at one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchLine {
    /// Sweep-point label (the `run` field).
    pub run: String,
    /// Metric name (e.g. `staleness.sketch`).
    pub metric: String,
    /// Sample count.
    pub count: u64,
    /// Quantiles in microseconds.
    pub p50_us: u64,
    /// 90th percentile (µs).
    pub p90_us: u64,
    /// 99th percentile (µs).
    pub p99_us: u64,
    /// 99.9th percentile (µs).
    pub p999_us: u64,
}

/// Parses one `results/metrics/<name>.jsonl` artifact, returning its
/// sketch lines (quantile summaries) only — the rest of the artifact is
/// compared byte-for-byte by the determinism gates, not here.
pub(crate) fn parse_metrics(content: &str, what: &str) -> Result<Vec<SketchLine>, String> {
    let header = content
        .lines()
        .next()
        .ok_or_else(|| format!("{what}: empty artifact"))?;
    check_schema(header, what)?;
    let mut out = Vec::new();
    for line in content.lines().skip(1) {
        if json_str(line, "type") != Some("sketch") {
            continue;
        }
        let need = |key: &str| -> Result<u64, String> {
            json_u64(line, key).ok_or_else(|| format!("{what}: sketch line missing '{key}'"))
        };
        out.push(SketchLine {
            run: json_str(line, "run").unwrap_or_default().to_string(),
            metric: json_str(line, "metric").unwrap_or_default().to_string(),
            count: need("count")?,
            p50_us: need("p50_us")?,
            p90_us: need("p90_us")?,
            p99_us: need("p99_us")?,
            p999_us: need("p999_us")?,
        });
    }
    Ok(out)
}

/// A parsed `results/profile/<id>.profile.jsonl` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileArtifact {
    /// Total events the experiment reported.
    pub events_total: u64,
    /// Events attributed to named dispatch phases.
    pub events_attributed: u64,
    /// `(phase path, exact entry count)` in artifact order.
    pub phases: Vec<(String, u64)>,
}

impl ProfileArtifact {
    /// Attributed share of total events, in [0, 1]; 1 when there were
    /// no events at all.
    pub(crate) fn attribution(&self) -> f64 {
        if self.events_total == 0 {
            1.0
        } else {
            self.events_attributed as f64 / self.events_total as f64
        }
    }
}

/// Parses one committed profile artifact (counts only).
pub(crate) fn parse_profile(content: &str, what: &str) -> Result<ProfileArtifact, String> {
    let header = content
        .lines()
        .next()
        .ok_or_else(|| format!("{what}: empty artifact"))?;
    check_schema(header, what)?;
    let need = |key: &str| -> Result<u64, String> {
        json_u64(header, key).ok_or_else(|| format!("{what}: header missing '{key}'"))
    };
    let mut phases = Vec::new();
    for line in content.lines().skip(1) {
        if let (Some(phase), Some(count)) = (json_str(line, "phase"), json_u64(line, "count")) {
            phases.push((phase.to_string(), count));
        }
    }
    Ok(ProfileArtifact {
        events_total: need("events_total")?,
        events_attributed: need("events_attributed")?,
        phases,
    })
}

/// Everything ss-report can ingest from one run: a bench JSON plus any
/// metrics and profile artifacts found beside it.
#[derive(Debug, Default)]
pub struct RunArtifacts {
    /// The bench JSON, when present.
    pub bench: Option<BenchRun>,
    /// Metrics artifacts by basename (e.g. `fig3`).
    pub metrics: BTreeMap<String, Vec<SketchLine>>,
    /// Profile artifacts by experiment id.
    pub profiles: BTreeMap<String, ProfileArtifact>,
}

/// Loads a run from disk. `path` is either a bench JSON file, or a
/// directory searched for `bench.json` / `BENCH_baseline.json` plus
/// `metrics/*.jsonl` and `profile/*.profile.jsonl` subdirectories.
/// Missing pieces are fine (a run need not have all three artifact
/// kinds); malformed or version-mismatched artifacts are errors.
pub fn load_run(path: &Path) -> Result<RunArtifacts, String> {
    let mut run = RunArtifacts::default();
    let read = |p: &Path| -> Result<String, String> {
        std::fs::read_to_string(p).map_err(|e| format!("could not read {}: {e}", p.display()))
    };
    if path.is_file() {
        run.bench = Some(parse_bench(&read(path)?, &path.display().to_string())?);
        return Ok(run);
    }
    if !path.is_dir() {
        return Err(format!("{}: not a file or directory", path.display()));
    }
    for name in ["bench.json", "BENCH_baseline.json"] {
        let p = path.join(name);
        if p.is_file() {
            run.bench = Some(parse_bench(&read(&p)?, &p.display().to_string())?);
            break;
        }
    }
    let jsonl_files = |dir: &Path, suffix: &str| -> Vec<std::path::PathBuf> {
        let mut v: Vec<_> = std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().ends_with(suffix))
            })
            .collect();
        v.sort();
        v
    };
    for p in jsonl_files(&path.join("metrics"), ".jsonl") {
        let name = p
            .file_stem()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();
        run.metrics
            .insert(name, parse_metrics(&read(&p)?, &p.display().to_string())?);
    }
    for p in jsonl_files(&path.join("profile"), ".profile.jsonl") {
        let stem = p
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();
        let id = stem.trim_end_matches(".profile.jsonl").to_string();
        run.profiles
            .insert(id, parse_profile(&read(&p)?, &p.display().to_string())?);
    }
    Ok(run)
}

/// Drift tolerances for the diff/check verdicts, as fractions.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Allowed per-experiment events/s regression (wall-clock noise on
    /// shared runners is real; default matches bench-check's 0.5).
    pub events_per_sec: f64,
    /// Allowed relative drift of sketch quantiles (deterministic, so
    /// the default is much tighter).
    pub quantile: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            events_per_sec: 0.5,
            quantile: 0.25,
        }
    }
}

/// A rendered run-diff: the markdown report plus the flat list of
/// regressions that crossed a tolerance (empty = clean).
#[derive(Debug)]
pub struct DiffReport {
    /// The human-readable report.
    pub markdown: String,
    /// One line per tolerance violation, suitable for CI logs.
    pub regressions: Vec<String>,
}

fn pct_delta(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - old) / old * 100.0
    }
}

/// Compares quantile drift between two runs' metrics artifacts,
/// appending violations to `regressions` and rows to `md`. `gate_only`
/// restricts flagged metrics to those whose name contains any needle in
/// `metric_filter` (empty = all).
fn diff_quantiles(
    old: &RunArtifacts,
    new: &RunArtifacts,
    tol: &Tolerances,
    metric_filter: &[&str],
    md: &mut String,
    regressions: &mut Vec<String>,
) {
    let mut any = false;
    for (name, old_lines) in &old.metrics {
        let Some(new_lines) = new.metrics.get(name) else {
            regressions.push(format!("{name}: metrics artifact missing from new run"));
            continue;
        };
        for o in old_lines {
            let matches_filter =
                metric_filter.is_empty() || metric_filter.iter().any(|f| o.metric.contains(f));
            if !matches_filter {
                continue;
            }
            let Some(n) = new_lines
                .iter()
                .find(|n| n.run == o.run && n.metric == o.metric)
            else {
                regressions.push(format!(
                    "{name}: sketch {} ({}) missing from new run",
                    o.metric, o.run
                ));
                continue;
            };
            if !any {
                let _ = writeln!(
                    md,
                    "\n## Quantile drift\n\n\
                     | artifact | run | metric | p99 old (µs) | p99 new (µs) | Δ% | |\n\
                     |---|---|---|---:|---:|---:|---|"
                );
                any = true;
            }
            let d = pct_delta(o.p99_us as f64, n.p99_us as f64);
            let over = d.abs() > tol.quantile * 100.0;
            let _ = writeln!(
                md,
                "| {name} | {} | {} | {} | {} | {d:+.1}% | {} |",
                o.run,
                o.metric,
                o.p99_us,
                n.p99_us,
                if over { "**drift**" } else { "" }
            );
            if over {
                regressions.push(format!(
                    "{name}: p99 {} drifted {d:+.1}% ({} -> {} µs) at {} \
                     (tolerance ±{:.0}%)",
                    o.metric,
                    o.p99_us,
                    n.p99_us,
                    o.run,
                    tol.quantile * 100.0
                ));
            }
        }
    }
    if !any {
        md.push_str("\n## Quantile drift\n\nNo comparable sketch metrics in both runs.\n");
    }
}

/// Produces the markdown run-diff between two runs: per-experiment
/// events/s and exact event-count deltas, phase-attribution deltas, and
/// sketch-quantile drift, each judged against `tol`.
pub fn diff(old: &RunArtifacts, new: &RunArtifacts, tol: &Tolerances) -> DiffReport {
    let mut md = String::from("# ss-report run diff\n");
    let mut regressions = Vec::new();

    match (&old.bench, &new.bench) {
        (Some(o), Some(n)) => {
            let _ = writeln!(
                md,
                "\n## Bench\n\nOld host: `{}` ({} threads, fast={}) — new host: `{}` \
                 ({} threads, fast={})\n",
                o.host, o.threads, o.fast, n.host, n.threads, n.fast
            );
            if o.fast != n.fast {
                md.push_str(
                    "**Warning:** runs differ in `--fast`; event counts are not \
                             comparable.\n\n",
                );
            }
            md.push_str(
                "| experiment | events old | events new | ev/s old | ev/s new | Δ ev/s | |\n\
                 |---|---:|---:|---:|---:|---:|---|\n",
            );
            for orow in &o.rows {
                let Some(nrow) = n.rows.iter().find(|r| r.id == orow.id) else {
                    regressions.push(format!("{}: experiment missing from new bench", orow.id));
                    continue;
                };
                let d = pct_delta(orow.events_per_sec, nrow.events_per_sec);
                let slow = d < -tol.events_per_sec * 100.0;
                let drifted = o.fast == n.fast && orow.events != nrow.events;
                let mut flag = String::new();
                if slow {
                    flag.push_str("**slower**");
                    regressions.push(format!(
                        "{}: events/s regressed {d:+.1}% ({:.0} -> {:.0}, floor -{:.0}%)",
                        orow.id,
                        orow.events_per_sec,
                        nrow.events_per_sec,
                        tol.events_per_sec * 100.0
                    ));
                }
                if drifted {
                    flag.push_str(" **event-count drift**");
                    regressions.push(format!(
                        "{}: deterministic event count drifted ({} -> {})",
                        orow.id, orow.events, nrow.events
                    ));
                }
                let _ = writeln!(
                    md,
                    "| {} | {} | {} | {:.0} | {:.0} | {d:+.1}% | {flag} |",
                    orow.id, orow.events, nrow.events, orow.events_per_sec, nrow.events_per_sec
                );
            }
            let d = pct_delta(o.total_events_per_sec, n.total_events_per_sec);
            let _ = writeln!(
                md,
                "| **total** | {} | {} | {:.0} | {:.0} | {d:+.1}% | |",
                o.total_events, n.total_events, o.total_events_per_sec, n.total_events_per_sec
            );
        }
        _ => md.push_str("\n## Bench\n\nBench JSON absent from one or both runs; skipped.\n"),
    }

    let mut any = false;
    for (id, op) in &old.profiles {
        let Some(np) = new.profiles.get(id) else {
            continue;
        };
        if !any {
            md.push_str(
                "\n## Phase attribution\n\n\
                 | experiment | attributed old | attributed new | phase deltas |\n\
                 |---|---:|---:|---|\n",
            );
            any = true;
        }
        // Phases whose share of attributed events moved; counts are
        // exact, so any movement is a real behavioral change.
        let mut deltas = Vec::new();
        for (phase, oc) in &op.phases {
            let nc = np
                .phases
                .iter()
                .find(|(p, _)| p == phase)
                .map_or(0, |(_, c)| *c);
            if nc != *oc {
                deltas.push(format!("`{phase}` {oc} -> {nc}"));
            }
        }
        for (phase, nc) in &np.phases {
            if !op.phases.iter().any(|(p, _)| p == phase) {
                deltas.push(format!("`{phase}` (new) {nc}"));
            }
        }
        let _ = writeln!(
            md,
            "| {id} | {:.2}% | {:.2}% | {} |",
            op.attribution() * 100.0,
            np.attribution() * 100.0,
            if deltas.is_empty() {
                "unchanged".to_string()
            } else {
                deltas.join(", ")
            }
        );
    }
    if !any {
        md.push_str("\n## Phase attribution\n\nNo profile artifacts in both runs.\n");
    }

    diff_quantiles(old, new, tol, &[], &mut md, &mut regressions);

    if regressions.is_empty() {
        md.push_str("\n## Verdict\n\nNo regressions beyond tolerance.\n");
    } else {
        md.push_str("\n## Verdict\n\nRegressions beyond tolerance:\n\n");
        for r in &regressions {
            let _ = writeln!(md, "- {r}");
        }
    }
    DiffReport {
        markdown: md,
        regressions,
    }
}

/// The quantile-drift gate: compares only sketch metrics whose name
/// contains one of `metric_filter` (default `staleness`), returning the
/// violations. Used by CI to gate p99 staleness on fig3 and recovery.
pub fn check_quantiles(
    old: &RunArtifacts,
    new: &RunArtifacts,
    tol: &Tolerances,
    metric_filter: &[&str],
) -> DiffReport {
    let mut md = String::from("# ss-report quantile gate\n");
    let mut regressions = Vec::new();
    diff_quantiles(old, new, tol, metric_filter, &mut md, &mut regressions);
    DiffReport {
        markdown: md,
        regressions,
    }
}

/// Renders the one-line `BENCH_history.jsonl` record for a bench run.
/// `label` is caller-supplied provenance (a git sha, a CI run id); the
/// trajectory file is append-only, so the history of throughput across
/// commits accumulates without ever rewriting old lines.
pub fn history_line(bench: &BenchRun, label: &str) -> String {
    format!(
        "{{\"schema_version\":{ARTIFACT_SCHEMA_VERSION},\"artifact\":\"bench_history\",\
         \"label\":\"{label}\",\"fast\":{},\"threads\":{},\"host\":{},\
         \"total_wall_s\":{:.3},\"total_events\":{},\"total_events_per_sec\":{:.0}}}\n",
        bench.fast,
        bench.threads,
        if bench.host.starts_with('{') {
            bench.host.clone()
        } else {
            format!("\"{}\"", bench.host)
        },
        bench.total_wall_s,
        bench.total_events,
        bench.total_events_per_sec
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH_OLD: &str = r#"{
  "schema_version": 1,
  "fast": false,
  "threads": 4,
  "host": {"os": "linux", "arch": "x86_64", "cpus": 8},
  "experiments": [
    {"id": "fig3", "wall_s": 2.000, "events": 1000, "events_per_sec": 500},
    {"id": "adapt", "wall_s": 1.000, "events": 400, "events_per_sec": 400}
  ],
  "total_wall_s": 3.000,
  "total_events": 1400,
  "total_events_per_sec": 466
}
"#;

    fn bench_new() -> String {
        BENCH_OLD
            .replace("\"events_per_sec\": 500", "\"events_per_sec\": 100")
            .replace("\"events\": 400", "\"events\": 401")
    }

    #[test]
    fn bench_parses() {
        let b = parse_bench(BENCH_OLD, "test").unwrap();
        assert_eq!(b.rows.len(), 2);
        assert_eq!(b.rows[0].id, "fig3");
        assert_eq!(b.rows[0].events, 1000);
        assert_eq!(b.total_events, 1400);
        assert!(b.host.contains("x86_64"));
        assert!(!b.fast);
    }

    #[test]
    fn schema_mismatch_is_refused() {
        let wrong = BENCH_OLD.replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = parse_bench(&wrong, "test").unwrap_err();
        assert!(err.contains("schema_version 99"), "{err}");
        let missing = BENCH_OLD.replace("  \"schema_version\": 1,\n", "");
        let err = parse_bench(&missing, "test").unwrap_err();
        assert!(err.contains("no schema_version"), "{err}");
    }

    #[test]
    fn metrics_sketch_lines_parse_and_require_header() {
        let art = "{\"schema_version\":1,\"artifact\":\"metrics\",\"name\":\"x\"}\n\
                   {\"run\":\"a\",\"metric\":\"staleness.sketch\",\"t_us\":5,\"type\":\"sketch\",\
                    \"count\":10,\"mean_us\":3,\"min_us\":1,\"max_us\":9,\"p50_us\":3,\
                    \"p90_us\":7,\"p99_us\":9,\"p999_us\":9}\n\
                   {\"run\":\"a\",\"metric\":\"c\",\"t_us\":5,\"type\":\"gauge\",\"value\":1.0}\n";
        let lines = parse_metrics(art, "test").unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].metric, "staleness.sketch");
        assert_eq!(lines[0].p99_us, 9);
        let headerless = art.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(parse_metrics(&headerless, "test").is_err());
    }

    #[test]
    fn diff_names_regressions() {
        let old = RunArtifacts {
            bench: Some(parse_bench(BENCH_OLD, "old").unwrap()),
            ..Default::default()
        };
        let new = RunArtifacts {
            bench: Some(parse_bench(&bench_new(), "new").unwrap()),
            ..Default::default()
        };
        let report = diff(&old, &new, &Tolerances::default());
        // 500 -> 100 events/s is an 80% regression (past the 50%
        // tolerance); 400 -> 401 events is deterministic drift.
        assert_eq!(report.regressions.len(), 2, "{:?}", report.regressions);
        assert!(report.regressions[0].contains("fig3"));
        assert!(report.regressions[1].contains("adapt"));
        assert!(report.markdown.contains("**slower**"));
        assert!(report.markdown.contains("**event-count drift**"));
    }

    #[test]
    fn quantile_gate_flags_staleness_drift_only() {
        let line = |metric: &str, p99: u64| -> SketchLine {
            SketchLine {
                run: "a".into(),
                metric: metric.into(),
                count: 10,
                p50_us: 1,
                p90_us: 2,
                p99_us: p99,
                p999_us: p99,
            }
        };
        let mut old = RunArtifacts::default();
        old.metrics.insert(
            "fig3".into(),
            vec![line("staleness.sketch", 1000), line("aoi.sketch", 1000)],
        );
        let mut new = RunArtifacts::default();
        new.metrics.insert(
            "fig3".into(),
            vec![line("staleness.sketch", 2000), line("aoi.sketch", 2000)],
        );
        let report = check_quantiles(&old, &new, &Tolerances::default(), &["staleness"]);
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert!(report.regressions[0].contains("staleness.sketch"));
        // Within tolerance: clean.
        let report = check_quantiles(&old, &old, &Tolerances::default(), &["staleness"]);
        assert!(report.regressions.is_empty());
    }

    #[test]
    fn history_line_shape() {
        let b = parse_bench(BENCH_OLD, "test").unwrap();
        let line = history_line(&b, "abc123");
        assert!(line.starts_with("{\"schema_version\":1,\"artifact\":\"bench_history\""));
        assert!(line.contains("\"label\":\"abc123\""));
        assert!(line.contains("\"total_events\":1400"));
        assert!(line.ends_with("}\n"));
        // The line itself parses with the same helpers.
        assert_eq!(json_u64(&line, "total_events"), Some(1400));
    }
}
