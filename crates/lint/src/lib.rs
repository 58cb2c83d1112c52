//! `ss-lint`: a determinism-enforcing static analysis pass for this
//! workspace.
//!
//! The reproduction's central claim is that every simulation result is a
//! pure function of its configuration and seed. That property is easy to
//! lose silently: one `Instant::now()` in a hot path, one `HashMap`
//! iteration feeding an event order, one `thread_rng()` in a test helper,
//! and runs stop being comparable. This crate enforces the invariants
//! mechanically, with a hand-rolled lexical scanner so the gate itself has
//! **zero external dependencies** and keeps working when the crate
//! registry is unreachable.
//!
//! Rules (see `DESIGN.md`, "Determinism invariants", for the rationale):
//!
//! - **D001** — no `std::time::Instant` / `std::time::SystemTime` outside
//!   the allowlist (`crates/sstp/src/runtime/mod.rs`, anything under a
//!   `tests/` directory). Wall clocks make runs time-dependent.
//! - **D002** — no `HashMap` / `HashSet` in the simulation crates
//!   (`core`, `netsim`, `sched`, `queueing`, `sstp`). Hash iteration
//!   order is randomized per-process; ordered collections (`BTreeMap`,
//!   `BTreeSet`) or explicit sorts are required.
//! - **D003** — no `thread_rng` / `rand::random` anywhere. All
//!   randomness must flow through the seeded `SimRng`.
//! - **D004** — no `unwrap()` / `expect()` / slice indexing in the wire
//!   parse path (`crates/sstp/src/wire.rs`). Decoding untrusted bytes
//!   must be total.
//! - **D005** — no console or I/O identifiers in the pure state-machine
//!   files (the `sstp` sender/receiver and the core protocol machine).
//!   The machines are `step(state, event) -> effects` functions that
//!   `ss-verify` explores exhaustively; any side channel breaks that.
//! - **D006** — no `f32` in the simulation crates. Consistency statistics
//!   accumulate over millions of events; half-precision drift would make
//!   runs platform-dependent. Use `f64` or integer counters.
//! - **D007** — no metrics handle registered and used on the same line.
//!   Registration (`.counter("…")` etc.) must happen once, with the
//!   returned id stored; inline re-registration silently creates a fresh
//!   series per call site.
//! - **D008** — no `pub fn` taking `&mut self` (other than `step`), and
//!   no `pub fn … -> &mut` accessor, in the state-machine files. All
//!   mutation flows through `step`; compat shims must carry a reasoned
//!   `allow(D008, …)` annotation.
//! - **D009** — every suppression annotation (`allow(…)`) must be well-formed:
//!   at least one valid rule id and a non-empty reason. A malformed
//!   annotation both fails to suppress *and* is itself a violation, so
//!   silent typos cannot disable the gate.
//! - **D010** — no unbounded `.push(…)` / `.insert(…)` accumulation inside
//!   a per-event handler body (`fn handle…`) in the simulation crates.
//!   Per-event growth is O(events) memory and is what the bounded sketch
//!   and first-N abstractions exist for; a bounded queue (drained
//!   elsewhere) is fine but must say so in an `allow(D010, …)` reason.
//! - **D011** — no raw `thread::sleep` in `sstp` non-test code. Fixed
//!   sleeps are busy-polls in disguise: they burn CPU when idle and add
//!   latency when busy. Compute the next protocol deadline and block on
//!   the socket with `Runtime::wait` instead.
//!
//! A line may opt out of one or more rules with an annotation on the same
//! line or the line directly above:
//!
//! ```text
//! // lint: allow(D002, reason the hash container is safe here)
//! // lint: allow(D002, D005, one reason covering both rules)
//! ```
//!
//! The trailing reason is mandatory (D009 enforces this); an annotation
//! without one does not suppress. Module-level `#[cfg(test)]` blocks are
//! exempt: scanning stops at the first `#[cfg(test)]` attribute in a file
//! (test modules are last by convention, enforced socially rather than
//! mechanically).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation, addressable as `path:line`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier, e.g. `"D002"`.
    pub rule: &'static str,
    /// Human-readable explanation of the violation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

impl Diagnostic {
    /// The diagnostic as one JSON object (the element type of the
    /// `findings` array in [`findings_to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"path":{},"line":{},"rule":{},"message":{}}}"#,
            json_string(&self.path),
            self.line,
            json_string(self.rule),
            json_string(&self.message)
        )
    }
}

/// Escapes `s` as a JSON string literal (hand-rolled: the gate must keep
/// working with zero external dependencies).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Static description of one lint rule, used by the `--schema` output.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Rule identifier, e.g. `"D002"`.
    pub id: &'static str,
    /// One-line summary of what the rule forbids.
    pub summary: &'static str,
}

/// Every rule the scanner knows, in id order.
pub const RULES: [RuleInfo; 11] = [
    RuleInfo {
        id: "D001",
        summary: "wall-clock time source (Instant/SystemTime) outside the allowlist",
    },
    RuleInfo {
        id: "D002",
        summary: "hash-ordered container (HashMap/HashSet) in a simulation crate",
    },
    RuleInfo {
        id: "D003",
        summary: "ambient randomness (thread_rng/rand::random) anywhere",
    },
    RuleInfo {
        id: "D004",
        summary: "panicking accessor or slice indexing in the wire parse path",
    },
    RuleInfo {
        id: "D005",
        summary: "console or I/O identifier reachable from a pure state machine",
    },
    RuleInfo {
        id: "D006",
        summary: "f32 arithmetic in a simulation crate (statistics must be f64/integer)",
    },
    RuleInfo {
        id: "D007",
        summary: "metrics handle registered and used on the same line",
    },
    RuleInfo {
        id: "D008",
        summary: "pub &mut-self method (or -> &mut accessor) outside step in machine files",
    },
    RuleInfo {
        id: "D009",
        summary: "malformed lint: allow(...) annotation (bad rule id or missing reason)",
    },
    RuleInfo {
        id: "D010",
        summary: "unbounded push/insert accumulation in a per-event sim handler body",
    },
    RuleInfo {
        id: "D011",
        summary: "raw thread::sleep in sstp non-test code (use the deadline-aware socket wait)",
    },
];

/// The machine-readable findings report: a stable JSON document with the
/// schema described by [`schema_json`].
pub fn findings_to_json(root: &str, diagnostics: &[Diagnostic]) -> String {
    let findings = diagnostics
        .iter()
        .map(Diagnostic::to_json)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        r#"{{"version":1,"root":{},"count":{},"findings":[{}]}}"#,
        json_string(root),
        diagnostics.len(),
        findings
    )
}

/// A self-describing schema for the `--json` output: the document shape
/// plus every rule id and its summary.
pub fn schema_json() -> String {
    let rules = RULES
        .iter()
        .map(|r| {
            format!(
                r#"{{"id":{},"summary":{}}}"#,
                json_string(r.id),
                json_string(r.summary)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        concat!(
            r#"{{"version":1,"#,
            r#""document":{{"version":"int","root":"string","count":"int","#,
            r#""findings":"[{{path,line,rule,message}}]"}},"#,
            r#""rules":[{}]}}"#
        ),
        rules
    )
}

/// Simulation crates where hash-ordered containers are forbidden (D002).
const SIM_CRATE_PREFIXES: [&str; 5] = [
    "crates/core/src",
    "crates/netsim/src",
    "crates/sched/src",
    "crates/queueing/src",
    "crates/sstp/src",
];

/// Files holding the pure protocol state machines (D005/D008): no I/O may
/// be reachable from them, and all mutation must flow through `step`.
const MACHINE_FILES: [&str; 4] = [
    "crates/sstp/src/sender.rs",
    "crates/sstp/src/receiver.rs",
    "crates/sstp/src/machine.rs",
    "crates/core/src/protocol/machine.rs",
];

/// Identifiers that mean console or file/socket I/O when they appear in a
/// state-machine file (D005). Matched as whole identifier tokens, so
/// strings, comments, and e.g. `file_path` do not trip it.
const IO_IDENTS: [&str; 14] = [
    "println",
    "eprintln",
    "print",
    "eprint",
    "dbg",
    "stdout",
    "stderr",
    "stdin",
    "File",
    "OpenOptions",
    "UdpSocket",
    "TcpStream",
    "TcpListener",
    "Command",
];

/// Files allowed to read the wall clock (D001): the runtime's clock
/// boundary needs actual time, and test harnesses may time themselves.
/// Everything else in the runtime module tree (pacing, shed, supervision,
/// mux) is pure `SimTime` code and gets no exemption.
fn d001_allowed(path: &str) -> bool {
    path == "crates/sstp/src/runtime/mod.rs"
        || path.starts_with("tests/")
        || path.contains("/tests/")
}

fn in_sim_crate(path: &str) -> bool {
    SIM_CRATE_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn is_machine_file(path: &str) -> bool {
    MACHINE_FILES.contains(&path)
}

/// One source line split into scannable code and its trailing comments.
struct ScanLine {
    /// Code with comments, string contents, and char literals blanked out
    /// (replaced by spaces, so columns are preserved).
    code: String,
    /// The concatenated comment text of the line (for `lint: allow`).
    comment: String,
}

/// Carry-over lexical state between lines.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Carry {
    /// Plain code.
    None,
    /// Inside a `/* */` comment, with nesting depth.
    BlockComment(u32),
    /// Inside a raw string literal with `hashes` trailing `#`s.
    RawString(u32),
}

/// Strips one physical line given the carry-over state, returning the
/// scan view and the state to carry into the next line.
fn strip_line(line: &str, carry: Carry) -> (ScanLine, Carry) {
    let mut code = String::with_capacity(line.len());
    let mut comment = String::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    let mut state = carry;

    while i < bytes.len() {
        match state {
            Carry::BlockComment(depth) => {
                if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 {
                        Carry::None
                    } else {
                        Carry::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = Carry::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment.push(bytes[i] as char);
                    i += 1;
                }
                continue;
            }
            Carry::RawString(hashes) => {
                if bytes[i] == b'"' {
                    let h = hashes as usize;
                    if bytes.len() >= i + 1 + h
                        && bytes[i + 1..i + 1 + h].iter().all(|&b| b == b'#')
                    {
                        state = Carry::None;
                        code.push('"');
                        for _ in 0..h {
                            code.push(' ');
                        }
                        i += 1 + h;
                        continue;
                    }
                }
                code.push(' ');
                i += 1;
                continue;
            }
            Carry::None => {}
        }

        let c = bytes[i];
        if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
            // Line comment: the rest of the line is comment text.
            comment.push_str(&line[i + 2..]);
            break;
        }
        if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
            state = Carry::BlockComment(1);
            code.push(' ');
            code.push(' ');
            i += 2;
            continue;
        }
        if c == b'r' {
            // Possible raw string: r"..." or r#"..."#.
            let mut j = i + 1;
            while bytes.get(j) == Some(&b'#') {
                j += 1;
            }
            if bytes.get(j) == Some(&b'"') {
                let hashes = (j - (i + 1)) as u32;
                code.push('r');
                for _ in i + 1..=j {
                    code.push(' ');
                }
                i = j + 1;
                state = Carry::RawString(hashes);
                continue;
            }
        }
        if c == b'"' {
            // Ordinary string literal: blank to the closing quote.
            code.push('"');
            i += 1;
            while i < bytes.len() {
                if bytes[i] == b'\\' {
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                    continue;
                }
                if bytes[i] == b'"' {
                    code.push('"');
                    i += 1;
                    break;
                }
                code.push(' ');
                i += 1;
            }
            continue;
        }
        if c == b'\'' {
            // Char literal vs lifetime: a literal closes within a few
            // bytes ('x', '\n', '\u{..}'); a lifetime never closes.
            let close = if bytes.get(i + 1) == Some(&b'\\') {
                bytes[i + 2..].iter().take(8).position(|&b| b == b'\'')
            } else {
                (bytes.get(i + 2) == Some(&b'\'')).then_some(0)
            };
            if let Some(off) = close {
                let end = if bytes.get(i + 1) == Some(&b'\\') {
                    i + 2 + off
                } else {
                    i + 2
                };
                for _ in i..=end {
                    code.push(' ');
                }
                i = end + 1;
                continue;
            }
        }
        code.push(c as char);
        i += 1;
    }

    (ScanLine { code, comment }, state)
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Yields the identifier tokens of a stripped code line.
fn idents(code: &str) -> Vec<&str> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident_byte(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            out.push(&code[start..i]);
        } else {
            i += 1;
        }
    }
    out
}

/// True when `s` (already trimmed) is a rule identifier: `D` followed by
/// exactly three digits.
fn is_rule_id(s: &str) -> bool {
    s.len() == 4 && s.starts_with('D') && s[1..].bytes().all(|b| b.is_ascii_digit())
}

/// A parsed suppression-annotation body.
struct Annotation {
    /// The rule ids the annotation names (well-formed ones only).
    rules: Vec<String>,
    /// Why the parse is not a usable suppression, if it is not.
    problem: Option<&'static str>,
}

/// Parses every suppression-annotation occurrence in a comment. The body is a
/// comma-separated list: one or more rule ids, then a mandatory free-text
/// reason (`allow(D002, D005, shared justification)`).
fn parse_annotations(comment: &str) -> Vec<Annotation> {
    const MARKER: &str = "lint: allow(";
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find(MARKER) {
        let body_start = &rest[pos + MARKER.len()..];
        let Some(end) = body_start.find(')') else {
            out.push(Annotation {
                rules: Vec::new(),
                problem: Some("unclosed annotation (missing `)`)"),
            });
            break;
        };
        let body = &body_start[..end];
        rest = &body_start[end + 1..];

        let mut rules = Vec::new();
        let mut reason = String::new();
        let mut segments = body.split(',');
        for seg in segments.by_ref() {
            let t = seg.trim();
            if is_rule_id(t) {
                rules.push(t.to_string());
            } else {
                // First non-id segment starts the reason; commas inside
                // the reason are reason text, not separators.
                reason = t.to_string();
                break;
            }
        }
        // Re-join any remaining segments into the reason.
        for seg in segments {
            if !reason.is_empty() {
                reason.push(',');
            }
            reason.push_str(seg);
        }
        let problem = if rules.is_empty() {
            Some("no valid rule id (expected `DNNN`)")
        } else if reason.trim().is_empty() {
            Some("missing reason (suppressions must cite one)")
        } else {
            None
        };
        out.push(Annotation { rules, problem });
    }
    out
}

/// True when `comment` carries a well-formed suppression naming `rule`:
/// `allow(D002, …, non-empty reason)`-style. Malformed annotations never
/// suppress (and are themselves flagged by D009).
fn allows(comment: &str, rule: &str) -> bool {
    parse_annotations(comment)
        .iter()
        .any(|a| a.problem.is_none() && a.rules.iter().any(|r| r == rule))
}

/// True when the stripped line contains slice-index syntax: a `[` directly
/// following an identifier character, `)`, or `]` (so array type syntax
/// `[u64; 4]` and attributes `#[...]` do not match).
fn has_indexing(code: &str) -> bool {
    let bytes = code.as_bytes();
    bytes.iter().enumerate().any(|(i, &b)| {
        b == b'['
            && i > 0
            && (is_ident_byte(bytes[i - 1]) || bytes[i - 1] == b')' || bytes[i - 1] == b']')
    })
}

/// True when the stripped line performs a metrics *registration*: a
/// `.counter("…")`-style call whose first argument is a string literal
/// (snapshot lookups share the method names but D007 only fires when a
/// mutation call shares the line, which snapshots cannot do).
fn has_metric_registration(code: &str) -> bool {
    ["counter", "gauge", "histogram", "time_average"]
        .iter()
        .any(|m| {
            code.match_indices(m).any(|(i, _)| {
                i > 0
                    && code.as_bytes()[i - 1] == b'.'
                    && code[i + m.len()..].trim_start().starts_with("(\"")
            })
        })
}

/// True when the stripped line calls a metrics mutation method.
fn has_metric_use(code: &str) -> bool {
    [
        ".inc(",
        ".add(",
        ".observe(",
        ".record_sample(",
        ".set_gauge(",
    ]
    .iter()
    .any(|m| code.contains(m))
}

/// True when the stripped line declares a `pub fn` that mutates through
/// `&mut self` (D008). `step` is the sanctioned mutation entry point;
/// `pub(crate)` helpers and by-value builders (`mut self`) are exempt.
fn has_pub_mut_method(code: &str) -> bool {
    let Some(pos) = code.find("pub fn ") else {
        return false;
    };
    let rest = &code[pos + "pub fn ".len()..];
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    name != "step" && code.contains("&mut self")
}

/// True when the stripped line is a `pub fn` returning `&mut` (a mutable
/// accessor leaking protocol state past the `step` seam).
fn has_pub_mut_return(code: &str) -> bool {
    code.contains("pub fn ") && code.contains("-> &mut ")
}

/// True when the token stream declares a per-event handler: an `fn`
/// token directly followed by an identifier starting with `handle`
/// (`fn handle`, `fn handle_arrival`, …).
fn declares_handler(toks: &[&str]) -> bool {
    toks.windows(2)
        .any(|w| w[0] == "fn" && w[1].starts_with("handle"))
}

/// Net brace-depth tracking over stripped code (strings/comments are
/// already blanked, so every remaining brace is structural).
fn brace_delta(code: &str) -> i32 {
    code.bytes().fold(0i32, |d, b| match b {
        b'{' => d + 1,
        b'}' => d - 1,
        _ => d,
    })
}

/// Scans one source file's content. `path` must be workspace-relative with
/// `/` separators; it selects which rules apply.
pub fn scan_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut carry = Carry::None;
    let mut prev_comment = String::new();

    let check_d001 = !d001_allowed(path);
    let check_d002 = in_sim_crate(path);
    let check_d004 = path == "crates/sstp/src/wire.rs";
    let check_d005 = is_machine_file(path);
    let check_d006 = in_sim_crate(path);
    let check_d007 = in_sim_crate(path);
    let check_d008 = is_machine_file(path);
    // D010 applies in the sim crates, but not inside the bounded
    // accumulation abstractions themselves (the sketch module and the
    // capacity-capped logs are what handlers are told to use instead).
    let check_d010 = in_sim_crate(path) && path != "crates/netsim/src/metrics/sketch.rs";
    let check_d011 = path.starts_with("crates/sstp/src");
    // Handler-body tracking for D010: brace depth, the depth at which an
    // active `fn handle…` was declared, and whether its body has opened.
    let mut depth: i32 = 0;
    let mut handler_at: Option<i32> = None;
    let mut handler_body_seen = false;

    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let (scan, next_carry) = strip_line(raw, carry);
        let was_code = carry == Carry::None || matches!(carry, Carry::RawString(_));
        carry = next_carry;

        if was_code && scan.code.trim_start().starts_with("#[cfg(test)]") {
            // Test modules sit at the end of each file; everything after
            // this attribute is test-only and exempt from the rules.
            break;
        }

        // D009 first: malformed annotations are diagnosed on their own
        // line and never act as suppressions.
        for ann in parse_annotations(&scan.comment) {
            if let Some(problem) = ann.problem {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: line_no,
                    rule: "D009",
                    message: format!("malformed suppression: {problem}"),
                });
            }
        }

        let suppressed = |rule: &str| allows(&scan.comment, rule) || allows(&prev_comment, rule);
        let toks = idents(&scan.code);
        let has = |t: &str| toks.contains(&t);

        if check_d001 && (has("Instant") || has("SystemTime")) && !suppressed("D001") {
            out.push(Diagnostic {
                path: path.to_string(),
                line: line_no,
                rule: "D001",
                message: "wall-clock time source outside the allowlist; use the simulated clock"
                    .to_string(),
            });
        }
        if check_d002 && (has("HashMap") || has("HashSet")) && !suppressed("D002") {
            out.push(Diagnostic {
                path: path.to_string(),
                line: line_no,
                rule: "D002",
                message: "hash-ordered container in a simulation crate; use BTreeMap/BTreeSet or \
                     annotate with `// lint: allow(D002, reason)`"
                    .to_string(),
            });
        }
        if (has("thread_rng") || scan.code.contains("rand::random")) && !suppressed("D003") {
            out.push(Diagnostic {
                path: path.to_string(),
                line: line_no,
                rule: "D003",
                message: "ambient randomness source; all draws must come from the seeded SimRng"
                    .to_string(),
            });
        }
        if check_d004 && !suppressed("D004") {
            if has("unwrap") || has("expect") {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: line_no,
                    rule: "D004",
                    message: "panicking accessor in the wire parse path; decoding must be total"
                        .to_string(),
                });
            } else if has_indexing(&scan.code) {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: line_no,
                    rule: "D004",
                    message:
                        "slice indexing in the wire parse path; use checked access (get/split)"
                            .to_string(),
                });
            }
        }
        if check_d005 && IO_IDENTS.iter().any(|id| has(id)) && !suppressed("D005") {
            out.push(Diagnostic {
                path: path.to_string(),
                line: line_no,
                rule: "D005",
                message: "I/O reachable from a pure state machine; effects must flow out of step"
                    .to_string(),
            });
        }
        if check_d006 && has("f32") && !suppressed("D006") {
            out.push(Diagnostic {
                path: path.to_string(),
                line: line_no,
                rule: "D006",
                message: "f32 in a simulation crate; statistics must accumulate in f64 or integers"
                    .to_string(),
            });
        }
        if check_d007
            && has_metric_registration(&scan.code)
            && has_metric_use(&scan.code)
            && !suppressed("D007")
        {
            out.push(Diagnostic {
                path: path.to_string(),
                line: line_no,
                rule: "D007",
                message: "metrics handle registered and used in one expression; register once \
                     and store the id"
                    .to_string(),
            });
        }
        if check_d008
            && (has_pub_mut_method(&scan.code) || has_pub_mut_return(&scan.code))
            && !suppressed("D008")
        {
            out.push(Diagnostic {
                path: path.to_string(),
                line: line_no,
                rule: "D008",
                message: "pub mutation outside step in a state-machine file; route through step \
                     or annotate the compat shim"
                    .to_string(),
            });
        }
        let in_handler_body = handler_at.is_some_and(|d| handler_body_seen && depth > d);
        if check_d010
            && in_handler_body
            && (scan.code.contains(".push(") || scan.code.contains(".insert("))
            && !suppressed("D010")
        {
            out.push(Diagnostic {
                path: path.to_string(),
                line: line_no,
                rule: "D010",
                message: "push/insert accumulation in a per-event handler; per-event growth is \
                     O(events) memory — use a bounded sketch/first-N abstraction, or \
                     annotate why this collection is bounded"
                    .to_string(),
            });
        }
        if check_d011 && has("sleep") && !suppressed("D011") {
            out.push(Diagnostic {
                path: path.to_string(),
                line: line_no,
                rule: "D011",
                message: "thread::sleep in sstp non-test code; compute the next protocol \
                     deadline and block with Runtime::wait"
                    .to_string(),
            });
        }
        if check_d010 && handler_at.is_none() && declares_handler(&toks) {
            handler_at = Some(depth);
            handler_body_seen = false;
        }
        depth += brace_delta(&scan.code);
        if let Some(d) = handler_at {
            if depth > d {
                handler_body_seen = true;
            } else if handler_body_seen {
                // The body closed (depth fell back to the declaration
                // level); pushes after this are outside the handler.
                handler_at = None;
                handler_body_seen = false;
            }
        }

        prev_comment = scan.comment;
    }
    out
}

/// Collects the `.rs` files the lint covers: everything under
/// `crates/*/src`, plus the root `src/` and `tests/` trees. `vendor/` and
/// build output are never scanned.
fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut roots: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    for extra in ["src", "tests"] {
        let p = root.join(extra);
        if p.is_dir() {
            roots.push(p);
        }
    }
    if roots.is_empty() {
        // A root with no scannable trees is an I/O problem (bad path,
        // wrong directory), not a clean workspace: reporting "clean"
        // here would let a typo in CI silently disable the gate.
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no source trees under {}", root.display()),
        ));
    }
    let mut stack = roots;
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scans the whole workspace rooted at `root`, returning all diagnostics
/// in deterministic (path, line) order.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for file in collect_sources(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(&file)?;
        out.extend(scan_source(&rel, &src));
    }
    Ok(out)
}

/// Locates the workspace root from this crate's build-time manifest path
/// (`crates/lint` → two levels up).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_do_not_trigger() {
        let src = r#"
            // HashMap in a comment is fine
            /* Instant::now() in a block comment too */
            fn f() -> &'static str { "HashMap thread_rng Instant" }
        "#;
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_requires_reason() {
        let with_reason = "use std::collections::HashMap; // lint: allow(D002, keyed by opaque id, order never observed)\n";
        let without = "use std::collections::HashMap; // lint: allow(D002)\n";
        assert!(scan_source("crates/core/src/x.rs", with_reason).is_empty());
        // The reasonless annotation does not suppress D002 *and* is
        // itself a D009 violation.
        let rules: Vec<_> = scan_source("crates/core/src/x.rs", without)
            .iter()
            .map(|d| d.rule)
            .collect();
        assert_eq!(rules, vec!["D009", "D002"]);
    }

    #[test]
    fn allow_on_preceding_line() {
        let src = "// lint: allow(D002, justified)\nuse std::collections::HashSet;\n";
        assert!(scan_source("crates/sched/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_stops_scanning() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn indexing_detection() {
        assert!(has_indexing("let x = buf[0];"));
        assert!(has_indexing("let y = &data[..4];"));
        assert!(!has_indexing("let s: [u64; 4] = t;"));
        assert!(!has_indexing("#[derive(Debug)]"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let (scan, carry) = strip_line("fn f<'a>(x: &'a str) -> &'a str { x }", Carry::None);
        assert!(carry == Carry::None);
        assert!(scan.code.contains("str"));
    }

    #[test]
    fn multi_rule_allow_suppresses_each_named_rule() {
        let src = "use std::collections::HashMap; type T = f32; \
                   // lint: allow(D002, D006, fixture exercising both rules)\n";
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
        // Naming only one rule leaves the other to fire.
        let src = "use std::collections::HashMap; type T = f32; \
                   // lint: allow(D002, only the map is justified)\n";
        assert_eq!(
            scan_source("crates/core/src/x.rs", src)
                .iter()
                .map(|d| d.rule)
                .collect::<Vec<_>>(),
            vec!["D006"]
        );
    }

    #[test]
    fn reason_with_commas_is_one_reason() {
        let src = "use std::collections::HashMap; \
                   // lint: allow(D002, keyed by id, order never observed)\n";
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
        // A reason *starting* with rule-id-like text is still a reason.
        let src = "use std::collections::HashMap; \
                   // lint: allow(D002, D003-adjacent helper needs it)\n";
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn malformed_annotations_are_d009_and_do_not_suppress() {
        // Missing reason: the original rule fires AND D009 fires.
        let src = "use std::collections::HashMap; // lint: allow(D002)\n";
        let rules: Vec<_> = scan_source("crates/core/src/x.rs", src)
            .iter()
            .map(|d| d.rule)
            .collect();
        assert_eq!(rules, vec!["D009", "D002"]);
        // Empty reason after the comma.
        let src = "use std::collections::HashMap; // lint: allow(D002, )\n";
        let rules: Vec<_> = scan_source("crates/core/src/x.rs", src)
            .iter()
            .map(|d| d.rule)
            .collect();
        assert_eq!(rules, vec!["D009", "D002"]);
        // No valid rule id at all.
        let src = "fn ok() {} // lint: allow(D02, typo in the id)\n";
        let rules: Vec<_> = scan_source("crates/core/src/x.rs", src)
            .iter()
            .map(|d| d.rule)
            .collect();
        assert_eq!(rules, vec!["D009"]);
        // Unclosed annotation.
        let src = "fn ok() {} // lint: allow(D002, never closed\n";
        let rules: Vec<_> = scan_source("crates/core/src/x.rs", src)
            .iter()
            .map(|d| d.rule)
            .collect();
        assert_eq!(rules, vec!["D009"]);
    }

    #[test]
    fn d005_flags_io_only_in_machine_files() {
        let src = "fn debug_dump(&self) { println!(\"{:?}\", self); }\n";
        assert_eq!(
            scan_source("crates/sstp/src/sender.rs", src)
                .iter()
                .map(|d| d.rule)
                .collect::<Vec<_>>(),
            vec!["D005"]
        );
        // The same code in a non-machine file is fine.
        assert!(scan_source("crates/sstp/src/session.rs", src).is_empty());
        // `file_path` must not token-match `File`.
        let src = "fn f(file_path: &str) -> usize { file_path.len() }\n";
        assert!(scan_source("crates/sstp/src/sender.rs", src).is_empty());
    }

    #[test]
    fn d006_flags_f32_in_sim_crates_only() {
        let src = "fn mean(xs: &[f32]) -> f32 { 0.0 }\n";
        assert_eq!(scan_source("crates/core/src/x.rs", src).len(), 1);
        assert!(scan_source("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn d007_flags_inline_register_and_use() {
        let src = "self.metrics.add(self.metrics.counter(\"tx.hot\"), 1);\n";
        assert_eq!(
            scan_source("crates/core/src/x.rs", src)
                .iter()
                .map(|d| d.rule)
                .collect::<Vec<_>>(),
            vec!["D007"]
        );
        // Registration alone and use alone are both fine.
        assert!(scan_source(
            "crates/core/src/x.rs",
            "let c = self.metrics.counter(\"tx.hot\");\n"
        )
        .is_empty());
        assert!(scan_source("crates/core/src/x.rs", "self.metrics.inc(c);\n").is_empty());
        // Snapshot lookups pass a string but never mutate on the line.
        assert!(scan_source(
            "crates/core/src/x.rs",
            "let v = snapshot.counter(\"tx.hot\");\n"
        )
        .is_empty());
    }

    #[test]
    fn d008_flags_pub_mut_methods_outside_step() {
        let src = "    pub fn poke(&mut self) {}\n";
        assert_eq!(
            scan_source("crates/sstp/src/receiver.rs", src)
                .iter()
                .map(|d| d.rule)
                .collect::<Vec<_>>(),
            vec!["D008"]
        );
        // step itself, by-value builders, and pub(crate) helpers pass.
        assert!(scan_source(
            "crates/sstp/src/receiver.rs",
            "    pub fn step(&mut self, ev: Ev) {}\n"
        )
        .is_empty());
        assert!(scan_source(
            "crates/sstp/src/receiver.rs",
            "    pub fn with_cap(mut self, cap: usize) -> Self { self }\n"
        )
        .is_empty());
        assert!(scan_source(
            "crates/sstp/src/receiver.rs",
            "    pub(crate) fn internal(&mut self) {}\n"
        )
        .is_empty());
        // Mutable accessors leak state past the seam.
        let src = "    pub fn table_mut(&self) -> &mut Table { unreachable!() }\n";
        assert_eq!(scan_source("crates/sstp/src/receiver.rs", src).len(), 1);
        // Outside machine files the rule does not apply.
        assert!(
            scan_source("crates/sstp/src/session.rs", "pub fn poke(&mut self) {}\n").is_empty()
        );
    }

    #[test]
    fn d010_flags_pushes_in_handler_bodies_only() {
        let src = "impl World for Sim {\n\
                   \x20   fn handle(&mut self, ev: Ev) {\n\
                   \x20       self.samples.push(ev.t);\n\
                   \x20       self.index.insert(ev.key, ev.t);\n\
                   \x20   }\n\
                   }\n\
                   fn helper(v: &mut Vec<u64>) { v.push(1); }\n";
        assert_eq!(
            scan_source("crates/core/src/x.rs", src)
                .iter()
                .map(|d| (d.rule, d.line))
                .collect::<Vec<_>>(),
            vec![("D010", 3), ("D010", 4)]
        );
        // Outside sim crates, and in the sketch module itself, exempt.
        assert!(scan_source("crates/bench/src/x.rs", src).is_empty());
        assert!(scan_source("crates/netsim/src/metrics/sketch.rs", src).is_empty());
        // A reasoned allow suppresses.
        let src = "fn handle(&mut self) {\n\
                   \x20   // lint: allow(D010, bounded queue drained by kick_fb)\n\
                   \x20   self.q.push(1);\n\
                   }\n";
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn d010_handler_tracking_survives_nested_braces() {
        // Braces in match arms must not end the handler early, and the
        // handler must actually end at its closing brace.
        let src = "fn handle(&mut self, ev: Ev) {\n\
                   \x20   match ev {\n\
                   \x20       Ev::A => { self.log.push(1); }\n\
                   \x20       Ev::B => {}\n\
                   \x20   }\n\
                   \x20   self.tail.push(2);\n\
                   }\n\
                   fn not_a_handler(&mut self) { self.v.push(3); }\n";
        assert_eq!(
            scan_source("crates/sstp/src/x.rs", src)
                .iter()
                .map(|d| (d.rule, d.line))
                .collect::<Vec<_>>(),
            vec![("D010", 3), ("D010", 6)]
        );
    }

    #[test]
    fn d011_flags_sleep_in_sstp_non_test_code_only() {
        let src = "fn spin() { std::thread::sleep(Duration::from_millis(1)); }\n";
        assert_eq!(
            scan_source("crates/sstp/src/runtime/shed.rs", src)
                .iter()
                .map(|d| d.rule)
                .collect::<Vec<_>>(),
            vec!["D011"]
        );
        // Outside sstp the rule does not apply.
        assert!(scan_source("crates/netsim/src/x.rs", src).is_empty());
        // Test modules are exempt (scanning stops at #[cfg(test)]).
        let src =
            "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn s() { std::thread::sleep(D); }\n}\n";
        assert!(scan_source("crates/sstp/src/runtime/shed.rs", src).is_empty());
        // `sleep` must match as a whole token.
        let src = "fn f(sleep_budget: u64) -> u64 { sleep_budget }\n";
        assert!(scan_source("crates/sstp/src/runtime/shed.rs", src).is_empty());
        // A reasoned allow suppresses.
        let src = "// lint: allow(D011, startup settle before first bind retry)\n\
                   fn s() { std::thread::sleep(D); }\n";
        assert!(scan_source("crates/sstp/src/runtime/shed.rs", src).is_empty());
    }

    #[test]
    fn json_output_escapes_and_carries_all_fields() {
        let d = Diagnostic {
            path: "crates/x/src/a \"b\".rs".to_string(),
            line: 7,
            rule: "D001",
            message: "line1\nline2".to_string(),
        };
        let j = d.to_json();
        assert!(j.contains(r#""line":7"#));
        assert!(j.contains(r#"\"b\""#));
        assert!(j.contains(r#"line1\nline2"#));
        let doc = findings_to_json("/root", &[d]);
        assert!(doc.starts_with(r#"{"version":1,"#));
        assert!(doc.contains(r#""count":1"#));
        let empty = findings_to_json("/root", &[]);
        assert!(empty.contains(r#""findings":[]"#));
        // The schema names every rule.
        let schema = schema_json();
        for r in RULES {
            assert!(schema.contains(r.id), "schema missing {}", r.id);
        }
    }

    #[test]
    fn missing_root_is_an_io_error() {
        let err = scan_workspace(Path::new("/nonexistent/ss-lint-root"))
            .expect_err("bad root must not scan clean");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
