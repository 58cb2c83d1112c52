//! Code that only looks like a violation: no lint may fire here, under
//! every file-level deny the gated sources carry. Doc comments may cite
//! HashMap, Instant::now() and thread_rng().
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro
)]

use std::collections::BTreeMap;

/* A block comment mentioning HashMap and Instant::now() is fine. */
pub fn raw() -> &'static str {
    r#"HashMap SystemTime rand::random() buf[0].unwrap() f32"#
}

pub fn idents(file_path: &str, instant_marker: u64) -> u64 {
    file_path.len() as u64 + instant_marker
}

pub struct InstantLike;
pub type Rows = [u64; 4];

pub fn lookup(m: &BTreeMap<u64, u32>, k: u64) -> Option<u32> {
    m.get(&k).copied()
}
