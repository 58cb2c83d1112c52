//! The experiment CLI: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments list             # enumerate experiments
//! experiments fig3             # run one (writes results/fig3_*.csv)
//! experiments all              # run everything
//! experiments --fast all      # shortened runs (smoke testing)
//! experiments --threads 4 all # fan sweep points over 4 workers
//! experiments --trace fig5    # also write results/traces/ artifacts
//! experiments --profile all   # also write results/profile/ artifacts
//! experiments bench           # machine-readable wall-time + events/sec
//! experiments bench-check     # compare results/bench.json to baseline
//! ```
//!
//! Sweep points fan out across `--threads` workers (default: the
//! `SS_EXPERIMENTS_THREADS` env var, then the machine's available
//! parallelism); results are reassembled in sweep order, so every CSV
//! and JSONL artifact is byte-identical at any thread count.

use ss_bench::{
    all_experiments, find_experiment, metrics_dir, profile_dir, results_dir, traces_dir,
};
use ss_netsim::ARTIFACT_SCHEMA_VERSION;
#[expect(
    clippy::disallowed_types,
    reason = "wall-clock progress reporting for the human running the suite"
)]
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--fast] [--threads N] [--trace] [--profile] \
         <experiment-id>|all|list|bench|bench-check [--tolerance F]"
    );
    eprintln!("experiments:");
    for e in all_experiments() {
        eprintln!("  {:16} {}", e.id, e.description);
    }
    std::process::exit(2);
}

/// Runs one experiment and writes its artifacts. Any file that fails to
/// write is reported and turns the final exit status nonzero.
fn run_one(id: &str, fast: bool) -> Result<(), ()> {
    let Some(exp) = find_experiment(id) else {
        eprintln!("unknown experiment '{id}'");
        usage();
    };
    #[expect(
        clippy::disallowed_types,
        reason = "timing printed to the operator; never feeds results"
    )]
    let started = Instant::now();
    println!("# {} — {}", exp.id, exp.description);
    let output = (exp.run)(fast);
    // Drain the profiler once per experiment: the per-run flushes merged
    // every worker thread's tallies into the global accumulator, so this
    // aggregate is identical at any `--threads` count.
    let prof = ss_bench::profile_enabled().then(ss_netsim::profile::take_report);
    let dir = results_dir();
    let mut ok = Ok(());
    for t in &output.tables {
        t.print();
        if let Err(e) = t.write_csv(&dir) {
            eprintln!("error: could not write {}: {e}", t.csv_name);
            ok = Err(());
        }
    }
    if !output.metrics.is_empty() {
        let mdir = metrics_dir();
        for m in &output.metrics {
            let path = mdir.join(format!("{}.jsonl", m.name));
            let payload = format!(
                "{{\"schema_version\":{ARTIFACT_SCHEMA_VERSION},\"artifact\":\"metrics\",\
                 \"name\":\"{}\"}}\n{}",
                m.name, m.jsonl
            );
            if let Err(e) = std::fs::write(&path, payload) {
                eprintln!("error: could not write {}: {e}", path.display());
                ok = Err(());
            }
        }
    }
    if !output.traces.is_empty() {
        let tdir = traces_dir();
        for t in &output.traces {
            // When both --trace and --profile are on, the phase tallies
            // ride along as Perfetto counter tracks in the same file.
            let chrome = match &prof {
                Some(p) if !p.is_empty() => t.chrome_json.replacen(
                    "\n]}\n",
                    &format!(",\n{}\n]}}\n", p.chrome_counter_events()),
                    1,
                ),
                _ => t.chrome_json.clone(),
            };
            let causal = format!(
                "{{\"schema_version\":{ARTIFACT_SCHEMA_VERSION},\"artifact\":\"causal\",\
                 \"name\":\"{}\"}}\n{}",
                t.name, t.causal_jsonl
            );
            for (suffix, payload) in [("trace.json", &chrome), ("causal.jsonl", &causal)] {
                let path = tdir.join(format!("{}.{suffix}", t.name));
                if let Err(e) = std::fs::write(&path, payload) {
                    eprintln!("error: could not write {}: {e}", path.display());
                    ok = Err(());
                }
            }
        }
    }
    if let Some(p) = &prof {
        let pdir = profile_dir();
        for (suffix, payload) in [
            ("profile.jsonl", p.to_jsonl(id, output.events)),
            ("wall.jsonl", p.to_wall_jsonl(id, output.events)),
        ] {
            let path = pdir.join(format!("{id}.{suffix}"));
            if let Err(e) = std::fs::write(&path, payload) {
                eprintln!("error: could not write {}: {e}", path.display());
                ok = Err(());
            }
        }
        let attributed = p.attributed_events();
        if output.events > 0 {
            let pct = 100.0 * attributed as f64 / output.events as f64;
            println!(
                "# {id} profile: {attributed}/{} events attributed ({pct:.2}%)",
                output.events
            );
        }
    }
    println!(
        "# {} done in {:.1}s ({} table(s) -> {}/, {} metrics artifact(s), {} trace(s))\n",
        exp.id,
        started.elapsed().as_secs_f64(),
        output.tables.len(),
        dir.display(),
        output.metrics.len(),
        output.traces.len()
    );
    ok
}

/// Pushes one JSON number with fixed decimal places (no float Display
/// variance across platforms beyond the fixed precision).
fn push_fixed(out: &mut String, v: f64, places: usize) {
    use std::fmt::Write as _;
    let _ = write!(out, "{v:.places$}");
}

/// Runs every experiment under the wall clock and emits one JSON object
/// with per-experiment wall seconds, dispatched events, and events/sec.
///
/// The timing figures are *observability*, not simulation results: they
/// vary run to run and machine to machine (hence the D001 allowances —
/// nothing here feeds a deterministic artifact). The `events` counts,
/// by contrast, are exact and reproducible.
fn run_bench(fast: bool) -> Result<(), ()> {
    let mut entries = String::new();
    let mut total_s = 0.0f64;
    let mut total_events = 0u64;
    for e in all_experiments() {
        #[expect(
            clippy::disallowed_types,
            reason = "the bench subcommand measures wall time by design"
        )]
        let started = Instant::now();
        let output = (e.run)(fast);
        let wall_s = started.elapsed().as_secs_f64();
        total_s += wall_s;
        total_events += output.events;
        if ss_bench::profile_enabled() {
            let p = ss_netsim::profile::take_report();
            let pdir = profile_dir();
            for (suffix, payload) in [
                ("profile.jsonl", p.to_jsonl(e.id, output.events)),
                ("wall.jsonl", p.to_wall_jsonl(e.id, output.events)),
            ] {
                let path = pdir.join(format!("{}.{suffix}", e.id));
                if let Err(err) = std::fs::write(&path, payload) {
                    eprintln!("error: could not write {}: {err}", path.display());
                    return Err(());
                }
            }
            let attributed = p.attributed_events();
            let pct = if output.events > 0 {
                100.0 * attributed as f64 / output.events as f64
            } else {
                100.0
            };
            eprintln!(
                "# bench {:16} profile: {attributed}/{} events attributed ({pct:.2}%)",
                e.id, output.events
            );
        }
        let eps = if wall_s > 0.0 {
            output.events as f64 / wall_s
        } else {
            0.0
        };
        eprintln!(
            "# bench {:16} {wall_s:8.2}s {:>12} events",
            e.id, output.events
        );
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!("    {{\"id\": \"{}\", \"wall_s\": ", e.id));
        push_fixed(&mut entries, wall_s, 3);
        entries.push_str(&format!(
            ", \"events\": {}, \"events_per_sec\": ",
            output.events
        ));
        push_fixed(&mut entries, eps, 0);
        entries.push('}');
    }
    let threads = ss_netsim::par::threads();
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"schema_version\": {ARTIFACT_SCHEMA_VERSION},\n"
    ));
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!(
        "  \"host\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {}}},\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    json.push_str("  \"experiments\": [\n");
    json.push_str(&entries);
    json.push_str("\n  ],\n  \"total_wall_s\": ");
    push_fixed(&mut json, total_s, 3);
    json.push_str(&format!(
        ",\n  \"total_events\": {total_events},\n  \"total_events_per_sec\": "
    ));
    push_fixed(
        &mut json,
        if total_s > 0.0 {
            total_events as f64 / total_s
        } else {
            0.0
        },
        0,
    );
    json.push_str("\n}\n");
    println!("{json}");
    let path = results_dir().join("bench.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("error: could not write {}: {e}", path.display());
        return Err(());
    }
    eprintln!("# bench written to {}", path.display());
    Ok(())
}

/// Extracts a top-level `"name": <number>` field from a flat JSON
/// object (the shape `run_bench` writes; no nesting below the
/// `experiments` array matters here because the keys we read are
/// unique).
fn json_number(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One experiment's row from a bench JSON: `(id, events, events/sec)`.
/// Parses the fixed single-line-per-entry layout [`run_bench`] emits
/// (which `BENCH_baseline.json` is a committed copy of).
fn json_experiments(json: &str) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for chunk in json.split("{\"id\": \"").skip(1) {
        let Some(id_end) = chunk.find('"') else {
            continue;
        };
        let entry = &chunk[..chunk.find('}').unwrap_or(chunk.len())];
        if let (Some(events), Some(eps)) = (
            json_number(entry, "events"),
            json_number(entry, "events_per_sec"),
        ) {
            out.push((chunk[..id_end].to_string(), events, eps));
        }
    }
    out
}

/// Compares a fresh `results/bench.json` against the committed
/// `BENCH_baseline.json`: events/sec may regress by at most
/// `tolerance` (a fraction; default 0.5, i.e. flag only halvings —
/// shared CI runners are noisy), both in aggregate and per experiment.
/// Exits nonzero on regression so CI can gate on it. Event *counts*
/// are also compared, exactly and per experiment: they are
/// deterministic, so any drift means the simulation itself changed.
fn run_bench_check(tolerance: f64) -> Result<(), ()> {
    let read = |path: &std::path::Path| -> Result<String, ()> {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("error: could not read {}: {e}", path.display());
        })
    };
    let baseline = read(std::path::Path::new("BENCH_baseline.json"))?;
    let fresh = read(&results_dir().join("bench.json"))?;
    let field = |json: &str, name: &str| -> Result<f64, ()> {
        json_number(json, name).ok_or_else(|| {
            eprintln!("error: field '{name}' missing from bench JSON");
        })
    };
    let base_eps = field(&baseline, "total_events_per_sec")?;
    let fresh_eps = field(&fresh, "total_events_per_sec")?;
    let base_events = field(&baseline, "total_events")?;
    let fresh_events = field(&fresh, "total_events")?;
    let base_fast = baseline.contains("\"fast\": true");
    let fresh_fast = fresh.contains("\"fast\": true");
    // Host metadata is context for the throughput numbers, not a gate:
    // a baseline captured on different hardware explains (but does not
    // excuse past tolerance) an events/sec delta.
    let host = |json: &str| -> String {
        json.find("\"host\":")
            .and_then(|at| {
                let rest = &json[at..];
                rest.find('}').map(|end| rest[..end + 1].to_string())
            })
            .unwrap_or_else(|| "\"host\": (absent)".to_string())
    };
    println!(
        "# bench-check: baseline {} / fresh {}",
        host(&baseline),
        host(&fresh)
    );
    println!(
        "# bench-check: baseline {base_eps:.0} events/s, fresh {fresh_eps:.0} events/s \
         (tolerance {:.0}%)",
        tolerance * 100.0
    );
    let mut ok = Ok(());
    if base_fast == fresh_fast && fresh_events != base_events {
        eprintln!(
            "bench-check: event count drifted: baseline {base_events:.0}, fresh {fresh_events:.0} \
             (deterministic — the simulation changed; refresh BENCH_baseline.json deliberately)"
        );
        ok = Err(());
    }
    let floor = base_eps * (1.0 - tolerance);
    if fresh_eps < floor {
        eprintln!(
            "bench-check: throughput regression: {fresh_eps:.0} events/s < floor {floor:.0} \
             ({:.0}% below baseline {base_eps:.0})",
            (1.0 - fresh_eps / base_eps) * 100.0
        );
        ok = Err(());
    }
    // Per-experiment gates, same policy at finer grain: exact event
    // counts (determinism) and a per-experiment events/sec floor, so a
    // regression localized to one experiment can't hide inside a still-
    // healthy aggregate.
    let fresh_rows = json_experiments(&fresh);
    for (id, b_events, b_eps) in json_experiments(&baseline) {
        let Some((_, f_events, f_eps)) = fresh_rows.iter().find(|r| r.0 == id) else {
            eprintln!("bench-check: experiment '{id}' missing from fresh bench");
            ok = Err(());
            continue;
        };
        if base_fast == fresh_fast && *f_events != b_events {
            eprintln!(
                "bench-check: '{id}' event count drifted: baseline {b_events:.0}, \
                 fresh {f_events:.0}"
            );
            ok = Err(());
        }
        let floor = b_eps * (1.0 - tolerance);
        if *f_eps < floor {
            eprintln!(
                "bench-check: '{id}' throughput regression: {f_eps:.0} events/s \
                 < floor {floor:.0} (baseline {b_eps:.0})"
            );
            ok = Err(());
        }
    }
    if ok.is_ok() {
        println!("# bench-check: OK");
    }
    ok
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let fast = if let Some(pos) = args.iter().position(|a| a == "--fast") {
        args.remove(pos);
        true
    } else {
        false
    };
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        args.remove(pos);
        if pos >= args.len() {
            eprintln!("--threads requires a value");
            usage();
        }
        let val = args.remove(pos);
        match val.parse::<usize>() {
            Ok(n) if n >= 1 => ss_netsim::par::set_threads(n),
            _ => {
                eprintln!("invalid --threads value '{val}'");
                usage();
            }
        }
    }
    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        args.remove(pos);
        ss_bench::set_trace(true);
    }
    if let Some(pos) = args.iter().position(|a| a == "--profile") {
        args.remove(pos);
        ss_bench::set_profile(true);
    }
    let mut tolerance = 0.5f64;
    if let Some(pos) = args.iter().position(|a| a == "--tolerance") {
        args.remove(pos);
        if pos >= args.len() {
            eprintln!("--tolerance requires a value");
            usage();
        }
        let val = args.remove(pos);
        match val.parse::<f64>() {
            Ok(f) if (0.0..1.0).contains(&f) => tolerance = f,
            _ => {
                eprintln!("invalid --tolerance value '{val}' (want a fraction in [0,1))");
                usage();
            }
        }
    }
    let Some(target) = args.first() else { usage() };
    let ok = match target.as_str() {
        "list" => {
            for e in all_experiments() {
                println!("{:16} {}", e.id, e.description);
            }
            Ok(())
        }
        "bench" => run_bench(fast),
        "bench-check" => run_bench_check(tolerance),
        "all" => {
            #[expect(
                clippy::disallowed_types,
                reason = "timing printed to the operator; never feeds results"
            )]
            let started = Instant::now();
            let mut ok = Ok(());
            for e in all_experiments() {
                if run_one(e.id, fast).is_err() {
                    ok = Err(());
                }
            }
            println!("total: {:.1}s", started.elapsed().as_secs_f64());
            ok
        }
        id => run_one(id, fast),
    };
    if ok.is_err() {
        eprintln!("error: failure reported above");
        std::process::exit(1);
    }
}
