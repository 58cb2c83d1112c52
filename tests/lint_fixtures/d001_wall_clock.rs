//! D001: wall-clock time in simulation code.

pub fn elapsed_wrong() -> u64 {
    let start = std::time::Instant::now(); // flagged
    start.elapsed().as_secs()
}

pub fn epoch_wrong() -> u64 {
    let now = std::time::SystemTime::now(); // flagged
    now.elapsed().map(|d| d.as_secs()).unwrap_or(0)
}
