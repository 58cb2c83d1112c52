//! D004: panicking access in the wire parse path, under `wire.rs`'s denies.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

pub fn decode(buf: &[u8]) -> u16 {
    let hi = buf[0]; // indexing_slicing
    let lo = buf.get(1).copied().unwrap(); // unwrap_used
    let tag = buf.first().expect("tag byte"); // expect_used
    if buf.len() > 64 {
        panic!("oversized"); // panic
    }
    u16::from(hi) << 8 | u16::from(lo) | u16::from(*tag)
}
