//! Command-line contract: `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`, in any order, each exactly once.

use std::fmt;

/// The five workloads, named as in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SimTimer,
    SimSession,
    LiveFlood,
    LivePaced,
    LiveRecovery,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SimTimer,
        Workload::SimSession,
        Workload::LiveFlood,
        Workload::LivePaced,
        Workload::LiveRecovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimTimer => "sim_timer",
            Workload::SimSession => "sim_session",
            Workload::LiveFlood => "live_flood",
            Workload::LivePaced => "live_paced",
            Workload::LiveRecovery => "live_recovery",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Parsed and range-checked arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Measured window, whole seconds (1..=60, as `BENCHMARK.json` allows).
    pub seconds: u64,
    pub trace: bool,
}

#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

pub const USAGE: &str = "usage: ss-perfbench --workload <sim_timer|sim_session|live_flood|\
live_paced|live_recovery> --seed <u64> --seconds <1..60> --trace <0|1>";

impl Args {
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, ArgError> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| ArgError(format!("{flag} needs a value")))?;
            let bad = || ArgError(format!("bad value {value:?} for {flag}"));
            let dup = || ArgError(format!("{flag} given twice"));
            match flag.as_str() {
                "--workload" => {
                    let w = Workload::from_name(&value).ok_or_else(bad)?;
                    if workload.replace(w).is_some() {
                        return Err(dup());
                    }
                }
                "--seed" => {
                    let s = value.parse::<u64>().map_err(|_| bad())?;
                    if seed.replace(s).is_some() {
                        return Err(dup());
                    }
                }
                "--seconds" => {
                    let s = value.parse::<u64>().map_err(|_| bad())?;
                    if !(1..=60).contains(&s) {
                        return Err(bad());
                    }
                    if seconds.replace(s).is_some() {
                        return Err(dup());
                    }
                }
                "--trace" => {
                    let t = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    };
                    if trace.replace(t).is_some() {
                        return Err(dup());
                    }
                }
                _ => return Err(ArgError(format!("unknown argument {flag:?}"))),
            }
        }
        let missing = |name: &str| ArgError(format!("missing {name}"));
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload live_flood --seed 42 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::LiveFlood,
                seed: 42,
                seconds: 20,
                trace: true
            }
        );
    }

    #[test]
    fn order_is_free() {
        let a = parse("--trace 0 --seconds 3 --seed 0 --workload sim_timer").unwrap();
        assert_eq!(a.workload, Workload::SimTimer);
        assert!(!a.trace);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sim_timer --seed -1 --seconds 1 --trace 0",
            "--workload sim_timer --seed 1 --seconds 0 --trace 0",
            "--workload sim_timer --seed 1 --seconds 61 --trace 0",
            "--workload sim_timer --seed 1 --seconds 1 --trace 2",
            "--workload sim_timer --seed 1 --seconds 1",
            "--workload sim_timer --seed 1 --seed 2 --seconds 1 --trace 0",
            "--workload sim_timer --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload sim_timer --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}
