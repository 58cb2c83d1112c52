//! Seeded-violation fixtures: each rule must fire at exactly the marked
//! `file:line` positions, and a fully compliant file must scan clean.
//! The fixture sources live under `tests/fixtures/` (never compiled) and
//! are scanned under synthetic workspace-relative paths that put them in
//! each rule's scope.

use ss_lint::scan_source;

/// `(rule, line)` pairs of a scan, for order-insensitive comparison.
fn hits(path: &str, src: &str) -> Vec<(&'static str, usize)> {
    scan_source(path, src)
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn d001_flags_wall_clocks_with_exact_lines() {
    let src = include_str!("fixtures/d001_wall_clock.rs");
    let path = "crates/netsim/src/fixture.rs";
    assert_eq!(hits(path, src), vec![("D001", 5), ("D001", 10)]);
    let diag = &scan_source(path, src)[0];
    assert_eq!(
        format!("{diag}").split(": ").next(),
        Some("crates/netsim/src/fixture.rs:5")
    );
}

#[test]
fn d001_allowlist_exempts_runtime_clock_and_tests() {
    let src = include_str!("fixtures/d001_wall_clock.rs");
    assert!(hits("crates/sstp/src/runtime/mod.rs", src).is_empty());
    assert!(hits("tests/some_harness.rs", src).is_empty());
    // The socket file gets no exemption.
    assert!(!hits("crates/sstp/src/runtime/mux.rs", src).is_empty());
}

#[test]
fn d002_flags_hash_containers_and_honors_allow() {
    let src = include_str!("fixtures/d002_hash_container.rs");
    // Line 9's HashSet carries a reasoned allow annotation on line 8.
    assert_eq!(
        hits("crates/core/src/fixture.rs", src),
        vec![("D002", 4), ("D002", 7)]
    );
    // Outside the simulation crates the rule does not apply at all.
    assert!(hits("crates/bench/src/fixture.rs", src).is_empty());
}

#[test]
fn d003_flags_ambient_randomness_everywhere() {
    let src = include_str!("fixtures/d003_ambient_rng.rs");
    for path in [
        "crates/bench/src/fixture.rs",
        "src/fixture.rs",
        "tests/fixture.rs",
    ] {
        assert_eq!(hits(path, src), vec![("D003", 5), ("D003", 6)], "{path}");
    }
}

#[test]
fn d004_flags_panicking_parse_in_wire_only() {
    let src = include_str!("fixtures/d004_wire_panic.rs");
    assert_eq!(
        hits("crates/sstp/src/wire.rs", src),
        vec![("D004", 5), ("D004", 6), ("D004", 7)]
    );
    // The same code elsewhere is not the wire parse path.
    assert!(hits("crates/sstp/src/sender.rs", src).is_empty());
}

#[test]
fn d010_flags_handler_accumulation_with_exact_lines() {
    let src = include_str!("fixtures/d010_handler_accumulation.rs");
    // Line 13's push is covered by the reasoned allow on line 12; the
    // batch helper after the handler is out of scope entirely.
    assert_eq!(
        hits("crates/core/src/fixture.rs", src),
        vec![("D010", 6), ("D010", 9)]
    );
    // Outside the simulation crates the rule does not apply.
    assert!(hits("crates/bench/src/fixture.rs", src).is_empty());
}

#[test]
fn d011_flags_sleeps_in_sstp_with_exact_lines() {
    let src = include_str!("fixtures/d011_thread_sleep.rs");
    // Line 9's sleep carries the reasoned allow on line 8; the
    // #[cfg(test)] tail and the `sleep_budget` ident never fire.
    assert_eq!(
        hits("crates/sstp/src/runtime/mux.rs", src),
        vec![("D011", 6), ("D011", 7)]
    );
    // Outside sstp the rule does not apply (no other rule fires here).
    assert!(hits("crates/netsim/src/fixture.rs", src).is_empty());
    assert!(hits("tests/fixture.rs", src).is_empty());
}

#[test]
fn clean_fixture_produces_no_diagnostics() {
    let src = include_str!("fixtures/clean.rs");
    // Scan under the strictest path (a sim crate), where D001-D003 all
    // apply: strings, comments, and the #[cfg(test)] tail must not fire.
    assert!(hits("crates/core/src/fixture.rs", src).is_empty());
}

#[test]
fn annotation_edge_cases_fire_and_suppress_exactly() {
    let src = include_str!("fixtures/d009_annotations.rs");
    // Line 6 is covered by the multi-rule allow on line 5 (both D002 and
    // D006 named, one reason). Lines 8-11 are malformed suppressions:
    // each is a D009, and the reasonless ones fail to suppress D002.
    // Line 14's allow is well-formed but names the wrong rule.
    assert_eq!(
        hits("crates/core/src/fixture.rs", src),
        vec![
            ("D009", 8),
            ("D002", 8),
            ("D009", 9),
            ("D002", 9),
            ("D009", 10),
            ("D009", 11),
            ("D002", 14),
        ]
    );
}

#[test]
fn false_positive_corpus_is_clean_in_every_scope() {
    let src = include_str!("fixtures/false_positives.rs");
    for path in [
        "crates/core/src/fixture.rs", // D001-D003, D006, D007
        "crates/sstp/src/sender.rs",  // + D005, D008 (machine file)
        "crates/sstp/src/wire.rs",    // + D004 (wire parse path)
    ] {
        let got = hits(path, src);
        assert!(got.is_empty(), "{path} flagged {got:?}");
    }
}

#[test]
fn binary_exits_nonzero_on_violation_and_zero_on_clean() {
    // Drive the actual CLI against temp trees to pin the exit codes the
    // CI gate relies on.
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_ss-lint");

    let dir = std::env::temp_dir().join(format!("ss-lint-fixture-{}", std::process::id()));
    let src_dir = dir.join("crates/netsim/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir fixture tree");
    std::fs::write(
        src_dir.join("bad.rs"),
        include_str!("fixtures/d001_wall_clock.rs"),
    )
    .expect("write fixture");
    let out = Command::new(bin).arg(&dir).output().expect("run ss-lint");
    assert!(!out.status.success(), "violations must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("crates/netsim/src/bad.rs:5: D001"),
        "diagnostic must carry file:line, got:\n{stderr}"
    );

    std::fs::write(src_dir.join("bad.rs"), include_str!("fixtures/clean.rs"))
        .expect("write clean fixture");
    let out = Command::new(bin).arg(&dir).output().expect("run ss-lint");
    assert!(out.status.success(), "clean tree must exit zero");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_json_mode_emits_findings_document() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_ss-lint");

    let dir = std::env::temp_dir().join(format!("ss-lint-json-{}", std::process::id()));
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir fixture tree");
    std::fs::write(
        src_dir.join("bad.rs"),
        include_str!("fixtures/d002_hash_container.rs"),
    )
    .expect("write fixture");

    let out = Command::new(bin)
        .args(["--json"])
        .arg(&dir)
        .output()
        .expect("run ss-lint --json");
    assert!(!out.status.success(), "violations must still exit non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with(r#"{"version":1,"#),
        "doc header: {stdout}"
    );
    assert!(stdout.contains(r#""count":2"#), "two D002 hits: {stdout}");
    assert!(
        stdout.contains(r#""rule":"D002""#) && stdout.contains(r#""line":4"#),
        "findings carry rule and line: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();

    // --schema exits zero without scanning and names every rule.
    let out = Command::new(bin)
        .arg("--schema")
        .output()
        .expect("run ss-lint --schema");
    assert!(out.status.success());
    let schema = String::from_utf8_lossy(&out.stdout);
    for rule in ["D001", "D005", "D009"] {
        assert!(schema.contains(rule), "schema missing {rule}");
    }
}
