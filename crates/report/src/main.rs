//! The ss-report CLI: cross-run artifact analytics.
//!
//! ```text
//! ss-report diff <old> <new> [--out report.md] [--eps-tolerance F] [--quantile-tolerance F]
//! ss-report check <old> <new> [--quantile-tolerance F] [--metric SUBSTR]...
//! ss-report history <bench.json> [--file BENCH_history.jsonl] [--label L]
//! ```
//!
//! `<old>` / `<new>` are either a bench JSON file or a directory holding
//! `bench.json` (or `BENCH_baseline.json`) plus optional `metrics/` and
//! `profile/` artifact subdirectories — i.e. a `results/` tree, or a
//! staging directory CI assembles from committed baselines.
//!
//! `diff` always exits 0 (the report is the product; gating is CI's
//! choice via `check`). `check` exits 1 when any filtered sketch
//! quantile drifts past tolerance — the CI p99-staleness gate.

use ss_report::{check_quantiles, diff, history_line, load_run, Tolerances};
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: ss-report diff <old> <new> [--out FILE] [--eps-tolerance F] \
         [--quantile-tolerance F]\n\
         \x20      ss-report check <old> <new> [--quantile-tolerance F] [--metric SUBSTR]...\n\
         \x20      ss-report history <bench.json> [--file FILE] [--label L]"
    );
    std::process::exit(2);
}

fn take_opt(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    args.remove(pos);
    if pos >= args.len() {
        eprintln!("{flag} requires a value");
        usage();
    }
    Some(args.remove(pos))
}

fn parse_frac(flag: &str, v: String) -> f64 {
    match v.parse::<f64>() {
        Ok(f) if (0.0..10.0).contains(&f) => f,
        _ => {
            eprintln!("invalid {flag} value '{v}' (want a non-negative fraction)");
            usage();
        }
    }
}

fn load_or_die(path: &str) -> ss_report::RunArtifacts {
    match load_run(Path::new(path)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        usage();
    };
    args.remove(0);
    let mut tol = Tolerances::default();
    if let Some(v) = take_opt(&mut args, "--eps-tolerance") {
        tol.events_per_sec = parse_frac("--eps-tolerance", v);
    }
    if let Some(v) = take_opt(&mut args, "--quantile-tolerance") {
        tol.quantile = parse_frac("--quantile-tolerance", v);
    }
    match cmd.as_str() {
        "diff" => {
            let out = take_opt(&mut args, "--out");
            let [old, new] = args.as_slice() else {
                usage();
            };
            let report = diff(&load_or_die(old), &load_or_die(new), &tol);
            print!("{}", report.markdown);
            if let Some(path) = out {
                if let Err(e) = std::fs::write(&path, &report.markdown) {
                    eprintln!("error: could not write {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("# report written to {path}");
            }
            for r in &report.regressions {
                eprintln!("regression: {r}");
            }
        }
        "check" => {
            let mut filters = Vec::new();
            while let Some(m) = take_opt(&mut args, "--metric") {
                filters.push(m);
            }
            if filters.is_empty() {
                filters.push("staleness".to_string());
            }
            let [old, new] = args.as_slice() else {
                usage();
            };
            let filter_refs: Vec<&str> = filters.iter().map(String::as_str).collect();
            let report = check_quantiles(&load_or_die(old), &load_or_die(new), &tol, &filter_refs);
            print!("{}", report.markdown);
            if report.regressions.is_empty() {
                println!("# quantile gate: OK");
            } else {
                for r in &report.regressions {
                    eprintln!("regression: {r}");
                }
                std::process::exit(1);
            }
        }
        "history" => {
            let file =
                take_opt(&mut args, "--file").unwrap_or_else(|| "BENCH_history.jsonl".to_string());
            let label = take_opt(&mut args, "--label").unwrap_or_else(|| "unlabeled".to_string());
            let [bench_path] = args.as_slice() else {
                usage();
            };
            let run = load_or_die(bench_path);
            let Some(bench) = run.bench else {
                eprintln!("error: {bench_path}: no bench JSON found");
                std::process::exit(1);
            };
            let line = history_line(&bench, &label);
            use std::io::Write as _;
            #[expect(
                clippy::disallowed_types,
                reason = "the report CLI appends the history ledger; no state machine reaches it"
            )]
            let mut f = match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&file)
            {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: could not open {file}: {e}");
                    std::process::exit(1);
                }
            };
            if let Err(e) = f.write_all(line.as_bytes()) {
                eprintln!("error: could not append to {file}: {e}");
                std::process::exit(1);
            }
            print!("{line}");
            eprintln!("# appended to {file}");
        }
        _ => usage(),
    }
}
