//! The determinism gate (DESIGN.md §8) under plain `cargo test`.
//!
//! Clippy carries most of it: `clippy.toml` bans the types and methods of
//! D001, D002, D005, D006 and D011; file-level `deny`s in `wire.rs` and
//! the state-machine files carry D004 and D005; `[workspace.lints.clippy]`
//! carries D009. This file runs that clippy over the workspace (and,
//! beside it, CI's rustdoc gate), pins each rule's seeded violations in
//! `tests/lint_fixtures/` to their lines (so a typo'd path in
//! `clippy.toml` fails here instead of passing silently), holds the
//! residue clippy has no lint for: D007, D008 and D010, a line scan of
//! the simulation crates, and keeps `clippy.toml`, DESIGN.md's
//! rule table and the places that may suppress a ban in step.

use std::path::Path;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `cargo clippy --quiet --offline <args> -- -D warnings`, in a target
/// directory of its own: the outer `cargo test` may hold the workspace's.
fn clippy(args: &str) -> Output {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    Command::new(cargo)
        .args(["clippy", "--quiet", "--offline"])
        .args(args.split(' '))
        .args(["--", "-D", "warnings"])
        .current_dir(root())
        .env("CARGO_TARGET_DIR", root().join("target/clippy-gate"))
        .output()
        .expect("run cargo clippy")
}

#[test]
fn workspace_is_clippy_clean() {
    let out = clippy("--workspace");
    assert!(
        out.status.success(),
        "`cargo clippy --workspace -- -D warnings` failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The crates CI's "Docs" step documents.
const DOC_CRATES: [&str; 8] = [
    "softstate",
    "sstp",
    "ss-netsim",
    "ss-sched",
    "ss-queueing",
    "ss-bench",
    "ss-verify",
    "ss-report",
];

/// CI's "Docs" step under plain `cargo test`: `cargo doc --no-deps` over
/// the repo's own crates with rustdoc warnings denied, so a broken or
/// private intra-doc link fails here too. Runs in a target directory of
/// its own, like the clippy gate.
#[test]
fn rustdoc_is_warning_free() {
    let ci = read(&root().join(".github/workflows/ci.yml"));
    let step = &ci[ci.find("cargo doc --no-deps").expect("CI's Docs step")..];
    let step = &step[..step.find("env:").expect("the step's env")];
    let listed: Vec<&str> = (step.split_whitespace())
        .skip_while(|w| *w != "-p")
        .filter(|w| *w != "-p")
        .collect();
    assert_eq!(listed, DOC_CRATES, "the Docs step's -p list");

    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["doc", "--quiet", "--offline", "--no-deps"])
        .args(DOC_CRATES.iter().flat_map(|krate| ["-p", krate]))
        .current_dir(root())
        .env("CARGO_TARGET_DIR", root().join("target/doc-gate"))
        .env("RUSTDOCFLAGS", "-D warnings")
        .output()
        .expect("run cargo doc");
    assert!(
        out.status.success(),
        "`RUSTDOCFLAGS=-D warnings cargo doc --no-deps` failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn file_level_denies_are_in_place() {
    // The D004 and D005 fixtures carry the gated files' `#![deny(…)]`s.
    let deny = |fixture: &str| {
        let text = read(&root().join("tests/lint_fixtures").join(fixture));
        let start = text.find("#![deny(").expect("a deny");
        text[start..start + text[start..].find(")]").expect("closed") + 2].to_string()
    };
    let wire = read(&root().join("crates/sstp/src/wire.rs"));
    assert!(wire.contains(&deny("d004_wire_panic.rs")), "wire.rs");
    for file in MACHINE_FILES {
        let machine = read(&root().join(file));
        assert!(machine.contains(&deny("d005_machine_io.rs")), "{file}");
    }
}

#[test]
fn fixture_lints_match_the_workspace_lints() {
    let table = |file: &str, header: &str| {
        let text = read(&root().join(file));
        let start = text.find(header).expect(header) + header.len();
        let lines = text[start..].lines().skip(1);
        lines
            .take_while(|l| !l.is_empty())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        table("tests/lint_fixtures/Cargo.toml", "[lints.clippy]"),
        table("Cargo.toml", "[workspace.lints.clippy]")
    );
}

/// Every `(file, line, lint)` clippy reports on the fixture package, with
/// the `clippy::` prefix dropped. Clippy runs once for all the tests.
fn fixture_hits() -> &'static [(String, usize, String)] {
    static HITS: OnceLock<Vec<(String, usize, String)>> = OnceLock::new();
    HITS.get_or_init(|| {
        let manifest = "--manifest-path tests/lint_fixtures/Cargo.toml";
        let out = clippy(&format!("--locked --message-format=json {manifest}"));
        assert!(!out.status.success(), "seeded violations pass clippy");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut hits: Vec<_> = (stdout.lines())
            .filter_map(|msg| {
                // Children carry `"code":null`, so this is the message's own.
                let lint = between(msg, r#""code":{"code":""#, '"')?;
                // The rendered text's `--> file:line:col\n` is the primary span.
                let (file, at) = between(msg, "--> ", '\\')?.split_once(':')?;
                let line = at.split(':').next()?.parse().ok()?;
                let lint = lint.trim_start_matches("clippy::");
                Some((file.into(), line, lint.into()))
            })
            .collect();
        hits.sort();
        hits
    })
}

/// The text of `s` from after `open` up to the next `close`.
fn between<'a>(s: &'a str, open: &str, close: char) -> Option<&'a str> {
    let rest = &s[s.find(open)? + open.len()..];
    rest.get(..rest.find(close)?)
}

fn assert_hits(file: &str, want: &[(usize, &str)]) {
    let got: Vec<(usize, &str)> = (fixture_hits().iter())
        .filter(|(f, ..)| f == file)
        .map(|(_, line, lint)| (*line, lint.as_str()))
        .collect();
    assert_eq!(got, want, "clippy on tests/lint_fixtures/{file}");
}

#[test]
fn d001_bans_wall_clocks() {
    let hits = [(4, "disallowed_types"), (9, "disallowed_types")];
    assert_hits("d001_wall_clock.rs", &hits);
}

#[test]
fn d002_bans_hash_containers_unless_expected() {
    let hits = [(3, "disallowed_types"), (6, "disallowed_types")];
    assert_hits("d002_hash_container.rs", &hits);
}

#[test]
fn d004_denies_panicking_access_in_wire() {
    let hits = [
        (10, "indexing_slicing"),
        (11, "unwrap_used"),
        (12, "expect_used"),
        (14, "panic"),
    ];
    assert_hits("d004_wire_panic.rs", &hits);
}

#[test]
fn d005_denies_console_file_socket_and_process_io() {
    let mut hits = vec![(6, "print_stdout"), (7, "print_stderr"), (8, "dbg_macro")];
    hits.extend((12..=17).map(|l| (l, "disallowed_types")));
    hits.extend((18..=20).map(|l| (l, "disallowed_methods")));
    assert_hits("d005_machine_io.rs", &hits);
}

#[test]
fn d006_bans_f32() {
    let t = "disallowed_types";
    assert_hits("d006_f32.rs", &[(4, t), (4, t), (5, t), (5, t)]);
}

#[test]
fn d009_takes_only_reasoned_fulfilled_expects() {
    let hits = [
        (6, "allow_attributes_without_reason"),
        (9, "allow_attributes"),
        (12, "unfulfilled_lint_expectations"),
        (15, "unfulfilled_lint_expectations"),
        (16, "disallowed_types"),
        (18, "unknown_lints"),
    ];
    assert_hits("d009_annotations.rs", &hits);
}

#[test]
fn d011_bans_sleeps_outside_tests() {
    let hits = [(7, "disallowed_methods"), (8, "disallowed_methods")];
    assert_hits("d011_thread_sleep.rs", &hits);
}

#[test]
fn look_alikes_fire_nothing() {
    assert_hits("clean.rs", &[]);
    assert_hits("lib.rs", &[]);
}

/// The residue, the rules clippy has no lint for, scans the simulation
/// crates, each file up to its `#[cfg(test)]`.
const SIM_SRC: [&str; 5] = ["core", "netsim", "sched", "queueing", "sstp"];

/// The pure state machines (D005's denies, D008).
const MACHINE_FILES: [&str; 4] = [
    "crates/sstp/src/sender.rs",
    "crates/sstp/src/receiver.rs",
    "crates/sstp/src/machine.rs",
    "crates/core/src/protocol/machine.rs",
];

/// The residue rules, the only ids a `// lint: allow(…)` may name.
const RESIDUE_RULES: [&str; 3] = ["D007", "D008", "D010"];

/// Splits a line into code, with string and char literal contents blanked
/// (braces and calls inside them never count), and its `//` comment text.
/// `in_str` carries a string literal across lines.
fn split(line: &str, in_str: &mut bool) -> (String, String) {
    let mut code = String::new();
    let mut chars = line.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        let rest = &line[i + c.len_utf8()..];
        if *in_str {
            if c == '\\' {
                chars.next();
            } else if c == '"' {
                *in_str = false;
                code.push(c);
            }
        } else if c == '/' && rest.starts_with('/') {
            return (code, rest[1..].to_string());
        } else if c == '"' {
            *in_str = true;
            code.push(c);
        } else if let Some(close) = char_close(rest).filter(|_| c == '\'') {
            while chars.next_if(|&(j, _)| j <= i + 1 + close).is_some() {}
        } else {
            code.push(c);
        }
    }
    (code, String::new())
}

/// Where a char literal's closing quote sits in `rest`, the text after its
/// opening quote; `None` for a lifetime, which never closes.
fn char_close(rest: &str) -> Option<usize> {
    match rest.as_bytes() {
        [b'\\', _, tail @ ..] => tail.iter().position(|&b| b == b'\'').map(|p| p + 2),
        [_, b'\'', ..] => Some(1),
        _ => None,
    }
}

/// Each `lint: allow(…)` in a comment: the rules it names when it is
/// well-formed (residue rule ids, then a non-empty reason), else `None`.
fn annotations(comment: &str) -> Vec<Option<Vec<&'static str>>> {
    let is_id =
        |s: &&str| s.len() == 4 && s.starts_with('D') && s[1..].bytes().all(|b| b.is_ascii_digit());
    (comment.split("lint: allow(").skip(1))
        .map(|body| {
            let segs: Vec<&str> = body.split_once(')')?.0.split(',').map(str::trim).collect();
            let (ids, reason) = segs.split_at(segs.iter().take_while(|s| is_id(s)).count());
            let rule = |id: &&str| RESIDUE_RULES.into_iter().find(|r| r == id);
            let rules: Vec<_> = ids.iter().map(rule).collect::<Option<_>>()?;
            (!rules.is_empty() && reason.iter().any(|s| !s.is_empty())).then_some(rules)
        })
        .collect()
}

/// Scans one file: `(rule, line)` per D007, D008 and D010 hit, plus a
/// D009 per `// lint: allow(Dnnn, reason)` annotation that is malformed
/// (it then suppresses nothing) or stale. An annotation covers its line
/// and the next.
fn residue(path: &str, src: &str) -> Vec<(&'static str, usize)> {
    let sim = is_sim_source(path);
    let machine = MACHINE_FILES.contains(&path);
    // D010 points handlers at the sketch module; it may accumulate.
    let d010 = sim && path != "crates/netsim/src/metrics/sketch.rs";
    let (mut out, mut in_str) = (Vec::new(), false);
    // The previous line's well-formed annotations, and the rules it fired.
    let (mut prev_anns, mut prev_fired) = (Vec::<Vec<&str>>::new(), Vec::new());
    // Brace depth, and the depth of the open `fn handle…` plus whether
    // its body has started.
    let (mut depth, mut handler) = (0i32, None::<(i32, bool)>);
    // Up to the test module, then an empty line to close the last one.
    let end = src
        .lines()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"));
    for (n, raw) in (1..).zip(src.lines().take(end.unwrap_or(usize::MAX)).chain([""])) {
        let (code, comment) = split(raw, &mut in_str);
        let anns = annotations(&comment);
        out.extend(anns.iter().filter(|a| a.is_none()).map(|_| ("D009", n)));
        let anns: Vec<Vec<&str>> = anns.into_iter().flatten().collect();
        let calls =
            |names: &[&str], arg: &str| names.iter().any(|m| code.contains(&format!(".{m}({arg}")));
        let registers = calls(&["counter", "gauge", "histogram", "time_average"], "\"");
        let mutates = calls(&["inc", "add", "observe", "record_sample", "set_gauge"], "");
        // Any `pub` visibility, and `&mut` anywhere in the return type.
        let ret = code
            .rsplit_once("-> ")
            .map(|(_, r)| r.split('{').next().unwrap_or(r));
        let mut_accessor = code.trim_start().starts_with("pub")
            && code.contains("fn ")
            && ret.is_some_and(|r| r.contains("&mut "));
        let grows = calls(&["push", "push_back", "push_front", "insert", "extend"], "");
        let opens = handler.is_none() && code.contains("fn handle");
        if opens {
            handler = Some((depth, false));
        }
        // A body that opens on the signature line starts there.
        let in_body =
            handler.is_some_and(|(d, open)| open && depth > d) || (opens && code.contains('{'));
        let fired: Vec<&str> = [
            ("D007", sim && registers && mutates),
            ("D008", machine && mut_accessor),
            ("D010", d010 && in_body && grows),
        ]
        .into_iter()
        .filter_map(|(rule, fires)| fires.then_some(rule))
        .collect();
        for &rule in &fired {
            if !anns.iter().chain(&prev_anns).any(|a| a.contains(&rule)) {
                out.push((rule, n));
            }
        }
        // An annotation that suppresses nothing on its line or the next.
        let used = |r: &&str| prev_fired.contains(r) || fired.contains(r);
        for a in &prev_anns {
            if !a.iter().any(used) {
                out.push(("D009", n - 1));
            }
        }
        depth += code.matches('{').count() as i32 - code.matches('}').count() as i32;
        handler = match handler {
            Some((d, _)) if depth > d => Some((d, true)),
            Some((_, true)) => None,
            // A one-line body, or a trait declaration without one.
            Some(_) if code.contains('{') || code.trim_end().ends_with(';') => None,
            open => open,
        };
        (prev_anns, prev_fired) = (anns, fired);
    }
    out
}

/// The workspace-relative paths of the `.rs` files under `dirs`, sorted.
fn sources(mut dirs: Vec<String>) -> Vec<String> {
    let mut files = vec![];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(root().join(&dir)).expect("read source dir") {
            let name = entry.expect("dir entry").file_name();
            let rel = format!("{dir}/{}", name.to_string_lossy());
            if root().join(&rel).is_dir() {
                dirs.push(rel);
            } else if rel.ends_with(".rs") {
                files.push(rel);
            }
        }
    }
    files.sort();
    files
}

fn is_sim_source(path: &str) -> bool {
    SIM_SRC
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

#[test]
fn simulation_crates_pass_the_residue() {
    let files = sources(SIM_SRC.map(|c| format!("crates/{c}/src")).into());
    let mut hits = vec![];
    for rel in &files {
        let found = residue(rel, &read(&root().join(rel)));
        hits.extend(found.iter().map(|(r, n)| format!("{rel}:{n}: {r}")));
    }
    // A wrong root must not read as a clean tree.
    assert!(files.len() > 50, "found only {} sources", files.len());
    assert!(
        hits.is_empty(),
        "determinism residue (DESIGN.md §8; D009 = a `// lint: allow` that is stale or lacks a \
         residue rule id or a reason):\n{}",
        hits.join("\n")
    );
}

#[test]
fn residue_d007_flags_inline_register_and_use() {
    let core = "crates/core/src/x.rs";
    let src = "m.add(m.counter(\"tx.hot\"), 1);";
    assert_eq!(residue(core, src), [("D007", 1)]);
    assert!(residue(core, "let c = m.counter(\"tx.hot\");\nm.inc(c);").is_empty());
    assert!(residue(core, "let v = snapshot.counter(\"tx.hot\");").is_empty());
    assert!(residue("crates/bench/src/x.rs", src).is_empty());
}

#[test]
fn residue_d008_flags_mutable_accessors_in_machine_files() {
    let rx = "crates/sstp/src/receiver.rs";
    let src = "    pub fn x(&self) -> &mut T {}";
    assert_eq!(residue(rx, src), [("D008", 1)]);
    assert!(residue(rx, "    pub fn poke(&mut self) {}").is_empty());
    assert!(residue("crates/sstp/src/session.rs", src).is_empty());
}

#[test]
fn residue_d010_flags_accumulation_in_handler_bodies() {
    let src = "impl World for Sim {
    fn handle(&mut self, q: &mut EventQueue<Ev>, ev: Ev) {
        self.all_arrivals.push(q.now());
        match ev {
            Ev::Arrival(k) => { self.seen.insert(k, q.now()); }
            Ev::Tick => {
                // lint: allow(D010, bounded send queue, drained by kick below)
                self.queue.push(Packet::probe());
            }
        }
        let _ = ('{', \"{\");
        self.tail.extend([2]);
    }
}
fn rebuild_index(keys: &[Key], out: &mut Vec<Key>) {
    out.push(keys[0]);
}";
    let hits = [("D010", 3), ("D010", 5), ("D010", 12)];
    assert_eq!(residue("crates/core/src/x.rs", src), hits);
    // Out of scope, only the annotation is left, and it is stale.
    for path in [
        "crates/netsim/src/metrics/sketch.rs",
        "crates/bench/src/x.rs",
    ] {
        assert_eq!(residue(path, src), [("D009", 7)], "{path}");
    }
    // A signature over several lines opens the body at its `{`.
    let src = "fn handle(\n    &mut self,\n) {\n    self.v.push(1);\n}\nfn f() { v.push(2); }";
    assert_eq!(residue("crates/sstp/src/x.rs", src), [("D010", 4)]);
}

#[test]
fn residue_annotations_need_a_residue_rule_and_a_reason() {
    let core = "crates/core/src/x.rs";
    let push = "fn handle() {\n    v.push(1); // lint: allow(";
    let at = |ann: &str| residue(core, &format!("{push}{ann}\n}}"));
    assert!(at("D010, bounded, drained elsewhere)").is_empty());
    assert!(at("D007, D010, one reason covering both)").is_empty());
    assert!(at("D010, D003-adjacent text is still a reason)").is_empty());
    for bad in ["D010)", "D010, )", "D01, typo)", "D010, unclosed"] {
        assert_eq!(at(bad), [("D009", 2), ("D010", 2)], "{bad}");
    }
    // Clippy's rules take `#[expect]`, not this comment.
    assert_eq!(at("D002, D010, a clippy rule)"), [("D009", 2), ("D010", 2)]);
    // A well-formed annotation that suppresses nothing is stale.
    assert_eq!(at("D007, names another rule)"), [("D010", 2), ("D009", 2)]);
    let stale = "// lint: allow(D010, nothing here)\nfn f() {}";
    assert_eq!(residue(core, stale), [("D009", 1)]);
}

#[test]
fn residue_skips_strings_comments_and_test_modules() {
    let src = "fn handle(&mut self) {
    let s = \"v.push(1) }\\
             m.add(m.counter(\\\"x\\\"), 1)\";
    // v.push(1)
    let c = '\\'';
}
fn f<'a>(x: &'a str) {}
#[cfg(test)]
fn handle(&mut self) { v.push(1); }";
    assert!(residue("crates/sstp/src/machine.rs", src).is_empty());
}

#[test]
fn residue_annotation_covers_its_line_and_the_next_only() {
    let core = "crates/core/src/x.rs";
    let src = "fn handle() {
    v.push(1); // lint: allow(D010, bounded, drained by flush)
    v.push(2);
    v.push(3);
}";
    assert_eq!(residue(core, src), [("D010", 4)]);
    // Two lines above, it covers nothing and is stale.
    let src = "fn handle() {
    // lint: allow(D010, bounded, drained by flush)
    let x = 1;
    v.push(x);
}";
    assert_eq!(residue(core, src), [("D009", 2), ("D010", 4)]);
}

#[test]
fn residue_d010_handler_ends_at_its_closing_brace() {
    let src = "fn handle(&mut self, ev: Ev) {
    match ev {
        Ev::A => { self.log.push(1); }
        Ev::B => {}
    }
    self.tail.push(2);
}
fn not_a_handler(&mut self) { self.v.push(3); }
fn handle_timer(&mut self) {
    self.v.push(4);
}
fn flush(&mut self) {
    self.v.push(5);
}";
    let hits = [("D010", 3), ("D010", 6), ("D010", 10)];
    assert_eq!(residue("crates/sstp/src/x.rs", src), hits);
}

#[test]
fn residue_d010_one_line_handlers_and_declarations_end_at_once() {
    // A bodiless declaration must not hand its scope to the next body,
    // and a one-line body is scanned on its line.
    let src = "trait World {
    fn handle(&mut self, ev: Ev);
}
fn run_until(w: &mut impl World) {
    pending.push(1);
}
fn handle(&mut self, ev: Ev) { self.log.push(ev); }
fn drain(&mut self) {
    self.out.push(2);
}";
    assert_eq!(residue("crates/netsim/src/x.rs", src), [("D010", 7)]);
}

#[test]
fn residue_d010_flags_every_growth_call() {
    let queueing = "crates/queueing/src/x.rs";
    for call in [
        "push(1)",
        "push_back(1)",
        "push_front(1)",
        "insert(k, 1)",
        "extend([1])",
    ] {
        let src = format!("fn handle(&mut self) {{\n    self.v.{call};\n}}");
        assert_eq!(residue(queueing, &src), [("D010", 2)], "{call}");
    }
    // Reads and in-place updates are not growth.
    let src = "fn handle(&mut self) {\n    self.v[0] += self.v.len();\n    self.m.get_mut(&k);\n}";
    assert!(residue(queueing, src).is_empty());
}

#[test]
fn residue_char_literals_and_lifetimes_keep_brace_depth() {
    let src = "fn handle<'a>(&'a mut self, ev: &'a Ev) {
    let open = ['{', '\\u{7b}', '\\''];
    self.v.push(open);
}
fn after(&mut self) {
    self.v.push(1);
}";
    assert_eq!(residue("crates/core/src/x.rs", src), [("D010", 3)]);
}

#[test]
fn residue_d007_flags_each_registration_kind() {
    let core = "crates/core/src/x.rs";
    for (register, mutate) in [
        ("counter", "inc"),
        ("counter", "add"),
        ("gauge", "set_gauge"),
        ("histogram", "observe"),
        ("time_average", "record_sample"),
    ] {
        let src = format!("m.{mutate}(m.{register}(\"rx.hot\"), 1);");
        assert_eq!(residue(core, &src), [("D007", 1)], "{src}");
        // Registered once on its own line, then used.
        let src = format!("let id = m.{register}(\"rx.hot\");\nm.{mutate}(id, 1);");
        assert!(residue(core, &src).is_empty(), "{src}");
    }
}

#[test]
fn residue_d008_flags_any_public_mutable_return() {
    let rx = "crates/sstp/src/receiver.rs";
    for sig in [
        "    pub(crate) fn x(&mut self) -> &mut Slot {",
        "    pub fn x(&mut self) -> Option<&mut Slot> {",
    ] {
        assert_eq!(residue(rx, &format!("{sig} }}")), [("D008", 1)], "{sig}");
    }
    for sig in [
        "    fn x(&mut self) -> &mut Slot {",
        "    pub fn f<F: FnMut() -> u32>(&mut self, f: F) -> u32 {",
        "    pub fn tick(&mut self) -> u32 { let n = &mut self.n; *n",
    ] {
        assert!(residue(rx, &format!("{sig} }}")).is_empty(), "{sig}");
    }
}

#[test]
fn residue_scope_is_the_simulation_crates() {
    let src = "m.add(m.counter(\"tx.hot\"), 1);";
    for c in SIM_SRC {
        let path = format!("crates/{c}/src/a/b.rs");
        assert_eq!(residue(&path, src), [("D007", 1)], "{path}");
    }
    for path in [
        "crates/bench/src/x.rs",
        "crates/report/src/main.rs",
        "crates/verify/src/main.rs",
        "crates/sstp/tests/x.rs",
        "src/lib.rs",
        "tests/x.rs",
    ] {
        assert!(residue(path, src).is_empty(), "{path}");
    }
}

#[test]
fn residue_annotations_sit_only_where_the_residue_reads() {
    // Outside the simulation crates' non-test code nothing reads them.
    let stray: Vec<String> = sources(vec!["crates".into(), "src".into(), "tests".into()])
        .into_iter()
        .filter(|f| !f.starts_with("tests/lint_"))
        .filter(|f| {
            let text = read(&root().join(f));
            let tests = text.find("#[cfg(test)]").unwrap_or(text.len());
            let unread = if is_sim_source(f) {
                &text[tests..]
            } else {
                &text[..]
            };
            unread.contains("lint: allow(")
        })
        .collect();
    assert!(stray.is_empty(), "dead `// lint: allow` in {stray:?}");
}

#[test]
fn no_target_carries_an_allow_attribute() {
    // The clippy gate denies `#[allow]` on library and binary targets
    // only; this covers the test targets and `#[cfg(test)]` modules.
    let mut hits = vec![];
    for f in sources(vec!["crates".into(), "src".into(), "tests".into()]) {
        if f.starts_with("tests/lint_fixtures/") {
            continue;
        }
        for (n, line) in (1..).zip(read(&root().join(&f)).lines()) {
            let line = line.trim_start();
            if ["#[allow(", "#![allow(", "#[cfg_attr("]
                .iter()
                .any(|p| line.starts_with(p) && line.contains("allow("))
            {
                hits.push(format!("{f}:{n}"));
            }
        }
    }
    assert!(hits.is_empty(), "use #[expect(lint, reason)]: {hits:?}");
}

#[test]
fn ban_suppressions_stay_in_their_files() {
    // The runtime's clock and socket, the profiler's wall side and the
    // CLIs; a new exception to a `clippy.toml` ban is added here.
    let expected = [
        "crates/bench/src/bin/experiments.rs",
        "crates/netsim/src/profile.rs",
        "crates/report/src/main.rs",
        "crates/sstp/src/runtime/mod.rs",
        "crates/sstp/src/runtime/mux.rs",
        "crates/verify/src/main.rs",
    ];
    let files: Vec<String> = sources(vec!["crates".into(), "src".into()])
        .into_iter()
        .filter(|f| read(&root().join(f)).contains("clippy::disallowed_"))
        .collect();
    assert_eq!(files, expected);
}

#[test]
fn clippy_toml_reasons_name_their_rule() {
    let toml = read(&root().join("clippy.toml"));
    let mut ids: Vec<Option<&str>> = (toml.lines())
        .filter(|l| l.trim_start().starts_with("{ path"))
        .map(|l| l.split_once("reason = \"").and_then(|(_, r)| r.get(..5)))
        .collect();
    ids.sort();
    ids.dedup();
    let want = ["D001:", "D002:", "D005:", "D006:", "D011:"];
    assert_eq!(ids, want.map(Some));
}

#[test]
fn design_table_matches_the_enforcers() {
    let design = read(&root().join("DESIGN.md"));
    let toml = read(&root().join("clippy.toml"));
    let rows: Vec<(&str, &str)> = (design.lines())
        .filter(|l| l.starts_with("| **D"))
        .filter_map(|l| {
            let cells: Vec<&str> = l.split('|').map(str::trim).collect();
            Some((cells.get(1)?.trim_matches('*'), *cells.get(3)?))
        })
        .collect();
    let ids: Vec<String> = (1..=11).map(|n| format!("D{n:03}")).collect();
    assert_eq!(rows.iter().map(|r| r.0).collect::<Vec<_>>(), ids);
    for (id, by) in rows {
        let banned = toml.contains(&format!("\"{id}:"));
        assert_eq!(by.contains("clippy.toml"), banned, "{id}: {by}");
        let residue = RESIDUE_RULES.contains(&id);
        assert_eq!(by.starts_with("residue scan"), residue, "{id}: {by}");
    }
}
