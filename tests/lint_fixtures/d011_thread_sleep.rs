//! D011: raw sleeps in non-test code.

use std::thread;
use std::time::Duration;

pub fn busy_poll_loop() {
    std::thread::sleep(Duration::from_millis(1)); // flagged
    thread::sleep(Duration::from_millis(1)); // flagged
    #[expect(
        clippy::disallowed_methods,
        reason = "settling delay, documented and bounded"
    )]
    std::thread::sleep(Duration::from_micros(10)); // suppressed
}

#[cfg(test)]
mod tests {
    fn timed_helper() {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}
