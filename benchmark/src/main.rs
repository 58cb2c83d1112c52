//! `ss-perfbench`: one measured ledger for the simulation suite and the
//! live SSTP runtime. See `README.md` for every metric's definition.
//!
//! ```text
//! ss-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The harness measures every layer from outside: it times calls into
//! public functions and reads counters the crates already export.

mod alloc_count;
mod args;
mod layers;
mod ledger;
mod live;
mod procfs;
mod seeded;
mod sim;
mod span;
mod stats;

use args::{Args, Workload};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// Where the traced run writes its Chrome trace: `benchmark/out/` when
/// run from the repository root (as the driver does), `out/` when run
/// from inside the package.
fn out_dir() -> &'static str {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out"
    } else {
        "out"
    }
}

/// Set-up is repeated and its median reported, so that one slow start
/// does not read as a regression. The traced run reports no set-up time
/// and sets up once.
fn setup_repeats(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        3
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ss-perfbench: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    println!(
        "ss-perfbench workload={} seed={} seconds={} trace={} host: os={} arch={} cpus={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(0, usize::from),
    );

    let mut tracer = span::Tracer::new();
    let run = match args.workload {
        Workload::SimTimer | Workload::SimSession => Ok(sim::run(&args, &mut tracer)),
        Workload::LiveFlood | Workload::LivePaced | Workload::LiveRecovery => {
            live::run(&args, &mut tracer)
        }
    };
    let mut outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ss-perfbench: socket error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.trace {
        let t0 = std::time::Instant::now();
        layers::run(&mut outcome.layers);
        outcome.note(format!(
            "direct-call layer legs took {:.2} s",
            t0.elapsed().as_secs_f64()
        ));
        outcome
            .layers
            .set("bench.spans", tracer.span_count() as f64);
        let dir = out_dir();
        let path = format!(
            "{dir}/{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_trace_json()));
        match written {
            Ok(()) => outcome.note(format!("spans written to {path}")),
            Err(e) => outcome.violations.push(format!("cannot write {path}: {e}")),
        }
    }

    let peak_rss = procfs::peak_rss_mib().unwrap_or(0.0);
    let metrics = ledger::reported(&outcome, args.trace, peak_rss);
    for (name, _, value) in &metrics {
        if !value.is_finite() {
            outcome.violations.push(format!("{name} is not finite"));
        }
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, unit, value) in &metrics {
        println!("{name:<48} {value:>16.4} {unit}");
    }
    let correct = outcome.violations.is_empty();
    for v in &outcome.violations {
        println!("VIOLATION: {v}");
    }
    println!(
        "attempted: {}  failed: {}  correct: {correct}",
        outcome.attempted, outcome.failed
    );
    let metrics: Vec<_> = metrics
        .into_iter()
        .map(|(n, u, v)| (n, u, if v.is_finite() { v } else { 0.0 }))
        .collect();
    println!(
        "{}",
        ledger::result_json(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
