//! Makes the ledger's build load-bearing under plain `cargo test`:
//! `benchmark/` is a package of its own outside the workspace, so nothing
//! else in tier-1 compiles it, and an API or dependency change that breaks
//! it would otherwise surface only when the pipeline runs the benchmark.

use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_package_checks_offline_and_locked() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .args([
            "check",
            "--quiet",
            "--offline",
            "--locked",
            "--manifest-path",
        ])
        .arg(root.join("benchmark/Cargo.toml"))
        // Its own directory: the outer `cargo test` may hold the lock on
        // the workspace's, and `benchmark/target` would litter the tree.
        .env("CARGO_TARGET_DIR", root.join("target/benchmark-check"))
        .output()
        .expect("run cargo");
    assert!(
        output.status.success(),
        "`cargo check --offline --locked` of benchmark/ failed — an API it calls changed, or a \
         dependency edge would rewrite benchmark/Cargo.lock:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
