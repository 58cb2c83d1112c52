//! Process CPU time and peak memory from `/proc/self`.

use std::fs;

/// Linux reports `utime`/`stime` in clock ticks of 1/100 s (`USER_HZ`),
/// fixed by the kernel ABI on every architecture the repo targets.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds this process has consumed so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    /// User-mode seconds (tick resolution).
    pub user_s: f64,
    /// Kernel-mode seconds (tick resolution).
    pub sys_s: f64,
    /// User + kernel seconds. From `schedstat` (ns resolution) when the
    /// kernel exposes it, otherwise the tick sum.
    pub total_s: f64,
}

impl CpuTimes {
    pub fn now() -> Self {
        let (user_s, sys_s) = stat_times().unwrap_or((0.0, 0.0));
        let total_s = schedstat_run_s().unwrap_or(user_s + sys_s);
        CpuTimes {
            user_s,
            sys_s,
            total_s,
        }
    }

    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            total_s: self.total_s - earlier.total_s,
        }
    }
}

/// `utime` and `stime` (fields 14 and 15) of `/proc/self/stat`.
fn stat_times() -> Option<(f64, f64)> {
    parse_stat(&fs::read_to_string("/proc/self/stat").ok()?)
}

fn parse_stat(stat: &str) -> Option<(f64, f64)> {
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_SEC, stime / TICKS_PER_SEC))
}

/// On-CPU nanoseconds of the (single) harness thread.
fn schedstat_run_s() -> Option<f64> {
    let s = fs::read_to_string("/proc/self/schedstat").ok()?;
    let ns: f64 = s.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e9)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_command() {
        let stat = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0 100";
        assert_eq!(parse_stat(stat), Some((2.5, 0.5)));
    }

    #[test]
    fn cpu_time_advances_under_load() {
        let before = CpuTimes::now();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let used = CpuTimes::now().since(before);
        assert!(used.total_s > 0.0, "{used:?}");
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
