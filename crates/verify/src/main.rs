//! The `ss-verify` command-line front end.
//!
//! ```text
//! ss-verify [--scope shallow|deep|smoke] [--depth N] [--min-states N]
//!           [--mutation NAME | --all-mutations] [--replay FILE]
//!           [--list-mutations] [--json]
//! ```
//!
//! Exit codes: `0` — check passed (real protocol clean / mutation
//! caught); `1` — check failed (invariant violation on the real
//! protocol, a mutation escaped, or `--min-states` unmet); `2` — usage
//! or I/O error.

use ss_verify::explore::{detect, explore, run_script, Counterexample};
use ss_verify::model::{parse_script, Scope};
use ss_verify::mutation::{Mutation, MutationSet};
use std::process::ExitCode;

struct Args {
    scope: Scope,
    scope_name: String,
    mutation: Option<Mutation>,
    all_mutations: bool,
    list_mutations: bool,
    replay: Option<String>,
    json: bool,
    min_states: Option<u64>,
}

fn usage() -> &'static str {
    "usage: ss-verify [--scope shallow|deep|smoke] [--depth N] [--min-states N]\n\
     \x20                [--mutation NAME | --all-mutations] [--replay FILE]\n\
     \x20                [--list-mutations] [--json]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scope: Scope::ci_shallow(),
        scope_name: "shallow".to_string(),
        mutation: None,
        all_mutations: false,
        list_mutations: false,
        replay: None,
        json: false,
        min_states: None,
    };
    let mut depth: Option<usize> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scope" => {
                let name = it.next().ok_or("--scope needs a value")?;
                args.scope = match name.as_str() {
                    "shallow" => Scope::ci_shallow(),
                    "deep" => Scope::ci_deep(),
                    "smoke" => Scope::smoke(),
                    other => return Err(format!("unknown scope `{other}`")),
                };
                args.scope_name = name;
            }
            "--depth" => {
                depth = Some(
                    it.next()
                        .ok_or("--depth needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --depth: {e}"))?,
                );
            }
            "--min-states" => {
                args.min_states = Some(
                    it.next()
                        .ok_or("--min-states needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --min-states: {e}"))?,
                );
            }
            "--mutation" => {
                let name = it.next().ok_or("--mutation needs a name")?;
                args.mutation = Some(
                    Mutation::from_name(&name)
                        .ok_or_else(|| format!("unknown mutation `{name}`"))?,
                );
            }
            "--all-mutations" => args.all_mutations = true,
            "--list-mutations" => args.list_mutations = true,
            "--replay" => args.replay = Some(it.next().ok_or("--replay needs a file")?),
            "--json" => args.json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(d) = depth {
        args.scope.max_depth = d;
    }
    Ok(args)
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn cex_json(cex: &Counterexample) -> String {
    let script: Vec<String> = cex
        .script
        .iter()
        .map(|a| format!("\"{}\"", json_escape(&a.to_string())))
        .collect();
    format!(
        "{{\"invariant\":\"{}\",\"detail\":\"{}\",\"during_drain\":{},\"script\":[{}]}}",
        json_escape(cex.violation.invariant),
        json_escape(&cex.violation.detail),
        cex.during_drain,
        script.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("ss-verify: {msg}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if args.list_mutations {
        for m in Mutation::ALL {
            println!("{:<24} {}", m.name(), m.describe());
        }
        return ExitCode::SUCCESS;
    }

    #[expect(
        clippy::disallowed_types,
        reason = "CLI wall-clock for the runtime report, not simulation time"
    )]
    let started = std::time::Instant::now();

    if args.all_mutations {
        let mut missed = Vec::new();
        let mut rows = Vec::new();
        for m in Mutation::ALL {
            match detect(m) {
                Some(cex) => {
                    rows.push(format!(
                        "{{\"mutation\":\"{}\",\"detected\":true,\"invariant\":\"{}\"}}",
                        m.name(),
                        json_escape(cex.violation.invariant)
                    ));
                    if !args.json {
                        println!(
                            "caught  {:<24} via {} ({} steps)",
                            m.name(),
                            cex.violation.invariant,
                            cex.script.len()
                        );
                    }
                }
                None => {
                    missed.push(m);
                    rows.push(format!(
                        "{{\"mutation\":\"{}\",\"detected\":false}}",
                        m.name()
                    ));
                    if !args.json {
                        println!("MISSED  {}", m.name());
                    }
                }
            }
        }
        if args.json {
            println!(
                "{{\"mode\":\"all-mutations\",\"total\":{},\"missed\":{},\"results\":[{}],\"elapsed_ms\":{}}}",
                Mutation::ALL.len(),
                missed.len(),
                rows.join(","),
                started.elapsed().as_millis()
            );
        } else {
            println!(
                "{}/{} mutations caught in {:?}",
                Mutation::ALL.len() - missed.len(),
                Mutation::ALL.len(),
                started.elapsed()
            );
        }
        return if missed.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    let muts = args.mutation.map(Mutation::set).unwrap_or_default();

    if let Some(path) = &args.replay {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ss-verify: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let script = match parse_script(&src) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ss-verify: bad script {path}: {e}");
                return ExitCode::from(2);
            }
        };
        return match run_script(&script, Scope::script(), muts) {
            Some(cex) => {
                if args.json {
                    println!(
                        "{{\"mode\":\"replay\",\"violation\":{},\"elapsed_ms\":{}}}",
                        cex_json(&cex),
                        started.elapsed().as_millis()
                    );
                } else {
                    print!("{cex}");
                }
                ExitCode::from(1)
            }
            None => {
                if args.json {
                    println!(
                        "{{\"mode\":\"replay\",\"violation\":null,\"elapsed_ms\":{}}}",
                        started.elapsed().as_millis()
                    );
                } else {
                    println!("replay clean ({} steps + drain)", script.len());
                }
                ExitCode::SUCCESS
            }
        };
    }

    if let Some(m) = args.mutation {
        return match detect(m) {
            Some(cex) => {
                if args.json {
                    println!(
                        "{{\"mode\":\"mutation\",\"mutation\":\"{}\",\"detected\":true,\"violation\":{},\"elapsed_ms\":{}}}",
                        m.name(),
                        cex_json(&cex),
                        started.elapsed().as_millis()
                    );
                } else {
                    println!("mutation {} caught:", m.name());
                    print!("{cex}");
                }
                ExitCode::SUCCESS
            }
            None => {
                if args.json {
                    println!(
                        "{{\"mode\":\"mutation\",\"mutation\":\"{}\",\"detected\":false,\"elapsed_ms\":{}}}",
                        m.name(),
                        started.elapsed().as_millis()
                    );
                } else {
                    println!("mutation {} ESCAPED the explorer", m.name());
                }
                ExitCode::from(1)
            }
        };
    }

    // Default mode: explore the real protocol.
    let report = explore(args.scope, MutationSet::default());
    let ok =
        report.counterexample.is_none() && args.min_states.is_none_or(|min| report.states >= min);
    if args.json {
        let violation = report
            .counterexample
            .as_ref()
            .map(cex_json)
            .unwrap_or_else(|| "null".to_string());
        println!(
            "{{\"mode\":\"explore\",\"scope\":\"{}\",\"depth\":{},\"states\":{},\"transitions\":{},\"drains\":{},\"deepest\":{},\"violation\":{},\"elapsed_ms\":{}}}",
            json_escape(&args.scope_name),
            args.scope.max_depth,
            report.states,
            report.transitions,
            report.drains,
            report.deepest,
            violation,
            started.elapsed().as_millis()
        );
    } else {
        println!(
            "scope {} depth {}: {} states, {} transitions, {} drains, deepest {} in {:?}",
            args.scope_name,
            args.scope.max_depth,
            report.states,
            report.transitions,
            report.drains,
            report.deepest,
            started.elapsed()
        );
        if let Some(cex) = &report.counterexample {
            print!("{cex}");
        } else if let Some(min) = args.min_states {
            if report.states < min {
                println!(
                    "FAILED: visited {} states, gate requires {}",
                    report.states, min
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
