//! Makes the determinism lint load-bearing under plain `cargo test`:
//! the suite fails if any workspace source violates rules D001-D011,
//! even when `cargo run -p ss-lint` is not wired into the local loop.

#[test]
fn workspace_is_lint_clean() {
    let root = ss_lint::workspace_root();
    let diagnostics = ss_lint::scan_workspace(&root).expect("scan workspace sources");
    assert!(
        diagnostics.is_empty(),
        "determinism lint violations:\n{}",
        diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
