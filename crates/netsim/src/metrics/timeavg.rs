//! Windowed time averages of piecewise-constant signals.
//!
//! The paper's headline metric `E[c(t)]` is "the time average of the
//! instantaneous system consistency over the entire lifetime of a system"
//! (§2.1). [`WindowedTimeAverage`] integrates such a signal exactly and
//! can additionally close fixed-width **sim-time windows**, yielding the
//! bucketed `E[c(t)]`-per-window curve the Figure 8 style plots need
//! without storing every sample.

use crate::time::{SimDuration, SimTime};

/// An exact time average of a piecewise-constant signal, with optional
/// fixed-width window means.
///
/// Call [`WindowedTimeAverage::update`] whenever the signal changes; the
/// previous value is integrated over the elapsed span. When constructed
/// with a window width, every completed window's mean is recorded and
/// available from [`WindowedTimeAverage::windows`].
#[derive(Clone, Debug)]
pub struct WindowedTimeAverage {
    start: SimTime,
    last_t: SimTime,
    last_v: f64,
    integral: f64,
    window: Option<SimDuration>,
    win_start: SimTime,
    win_integral: f64,
    windows: Vec<(SimTime, f64)>,
}

impl WindowedTimeAverage {
    /// Starts integrating at `start` with initial signal value `v0`,
    /// without window tracking.
    pub fn new(start: SimTime, v0: f64) -> Self {
        WindowedTimeAverage {
            start,
            last_t: start,
            last_v: v0,
            integral: 0.0,
            window: None,
            win_start: start,
            win_integral: 0.0,
            windows: Vec::new(),
        }
    }

    /// Starts integrating at `start` with initial value `v0`, closing a
    /// window of mean values every `window` of sim time. A zero width
    /// disables window tracking.
    pub fn windowed(start: SimTime, v0: f64, window: SimDuration) -> Self {
        let mut w = Self::new(start, v0);
        if window > SimDuration::ZERO {
            w.window = Some(window);
        }
        w
    }

    /// Integrates the current value forward to `t`, closing any window
    /// boundaries crossed on the way.
    fn advance(&mut self, t: SimTime) {
        self.integral += self.last_v * t.since(self.last_t).as_secs_f64();
        if let Some(w) = self.window {
            let mut cursor = self.last_t;
            let mut win_end = self.win_start + w;
            while t >= win_end {
                self.win_integral += self.last_v * win_end.since(cursor).as_secs_f64();
                self.windows
                    .push((win_end, self.win_integral / w.as_secs_f64()));
                cursor = win_end;
                self.win_start = win_end;
                self.win_integral = 0.0;
                win_end = self.win_start + w;
            }
            self.win_integral += self.last_v * t.since(cursor).as_secs_f64();
        }
        self.last_t = t;
    }

    /// Records that the signal takes value `v` from time `t` onward.
    /// Panics if `t` precedes the previous update.
    ///
    /// Several updates at the **same** `t` are legal and common (one
    /// dispatched event can change the signal more than once): each
    /// earlier value is integrated over a zero-width span — contributing
    /// nothing — and the **last value wins** from `t` onward. This is
    /// the piecewise-constant, right-continuous convention: the signal
    /// at `t` is whatever was set last at `t`.
    pub fn update(&mut self, t: SimTime, v: f64) {
        self.advance(t);
        self.last_v = v;
    }

    /// The current signal value.
    pub fn current(&self) -> f64 {
        self.last_v
    }

    /// The exact time average over `[start, end]`. Panics if `end`
    /// precedes the last update.
    ///
    /// A **zero-duration observation window** (`end == start`) has no
    /// span to average over; by convention the result is the current
    /// signal value — the only value the signal ever took — rather than
    /// `NaN` from `0.0 / 0.0`. A signal that was updated once and never
    /// again (a single-sample average) likewise integrates that one
    /// value over the whole remaining span, so the mean equals it.
    pub fn mean_until(&self, end: SimTime) -> f64 {
        let integral = self.integral_until(end);
        let total = end.since(self.start).as_secs_f64();
        if total == 0.0 {
            return self.last_v;
        }
        integral / total
    }

    /// The exact integral of the signal over `[start, end]`, in
    /// value·seconds. Panics if `end` precedes the last update.
    pub fn integral_until(&self, end: SimTime) -> f64 {
        self.integral + self.last_v * end.since(self.last_t).as_secs_f64()
    }

    /// Completed windows so far as `(window end, window mean)` pairs.
    /// Call [`WindowedTimeAverage::finish_windows`] first to flush the
    /// trailing partial window at the end of a run.
    pub fn windows(&self) -> &[(SimTime, f64)] {
        &self.windows
    }

    /// Integrates to `end` and closes the final (possibly partial)
    /// window so that `windows()` covers the whole run.
    ///
    /// A trailing window of **zero width** (when `end` lands exactly on
    /// a window boundary, or the whole run is zero-duration) is *not*
    /// emitted: there is no span for it to summarize, and a `0/0` mean
    /// would poison the export with `NaN`.
    pub fn finish_windows(&mut self, end: SimTime) {
        self.advance(end);
        if self.window.is_some() {
            let span = end.since(self.win_start).as_secs_f64();
            if span > 0.0 {
                self.windows.push((end, self.win_integral / span));
                self.win_start = end;
                self.win_integral = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matches_time_weighted_mean() {
        // Signal: 0 on [0,2), 1 on [2,3), 0.5 on [3,5].
        let mut m = WindowedTimeAverage::new(SimTime::ZERO, 0.0);
        m.update(SimTime::from_secs(2), 1.0);
        m.update(SimTime::from_secs(3), 0.5);
        let avg = m.mean_until(SimTime::from_secs(5));
        assert!((avg - 0.4).abs() < 1e-12, "{avg}");
        assert_eq!(m.current(), 0.5);
        assert!(m.windows().is_empty());
        assert!((m.integral_until(SimTime::from_secs(5)) - 2.0).abs() < 1e-12);
    }

    proptest! {
        /// Window tracking never perturbs the integral or the mean: a
        /// windowed average agrees bit for bit with a plain one fed the
        /// same updates, and its closed windows add back up to the
        /// integral.
        #[test]
        fn windows_leave_the_integral_untouched(
            start_us in 0u64..1_000_000,
            steps in prop::collection::vec((0u64..3_000_000, 0.0f64..10.0), 0..16),
            tail_us in 0u64..3_000_000,
            window_us in 100_000u64..2_000_000,
        ) {
            let start = SimTime::from_micros(start_us);
            let width = SimDuration::from_micros(window_us);
            let mut plain = WindowedTimeAverage::new(start, 0.0);
            let mut windowed = WindowedTimeAverage::windowed(start, 0.0, width);
            let mut t = start;
            for (dt, v) in steps {
                t += SimDuration::from_micros(dt);
                plain.update(t, v);
                windowed.update(t, v);
            }
            let end = t + SimDuration::from_micros(tail_us);
            let integral = plain.integral_until(end);
            prop_assert_eq!(windowed.integral_until(end).to_bits(), integral.to_bits());
            prop_assert_eq!(
                windowed.mean_until(end).to_bits(),
                plain.mean_until(end).to_bits()
            );
            windowed.finish_windows(end);
            let mut from = start;
            let mut summed = 0.0;
            for &(to, mean) in windowed.windows() {
                summed += mean * to.since(from).as_secs_f64();
                from = to;
            }
            prop_assert_eq!(from, end, "the windows cover [start, end]");
            prop_assert!((summed - integral).abs() <= 1e-9 * (1.0 + integral));
        }
    }

    #[test]
    fn integral_starts_at_start_and_ignores_windows() {
        // Signal 1 from 10s, 3 from 11s: the integral over [10, 12] is
        // 4, with or without window tracking.
        let start = SimTime::from_secs(10);
        let mut plain = WindowedTimeAverage::new(start, 1.0);
        let mut windowed = WindowedTimeAverage::windowed(start, 1.0, SimDuration::from_millis(300));
        for m in [&mut plain, &mut windowed] {
            assert_eq!(m.integral_until(start), 0.0);
            m.update(SimTime::from_secs(11), 3.0);
        }
        let end = SimTime::from_secs(12);
        assert_eq!(plain.integral_until(end), 4.0);
        assert_eq!(windowed.integral_until(end), 4.0);
        // Querying does not advance the average.
        assert_eq!(plain.integral_until(SimTime::from_secs(11)), 1.0);
    }

    #[test]
    fn empty_span_returns_current() {
        let m = WindowedTimeAverage::new(SimTime::from_secs(1), 0.7);
        assert_eq!(m.mean_until(SimTime::from_secs(1)), 0.7);
    }

    #[test]
    fn windows_close_on_boundaries() {
        // 1-second windows; signal 1.0 on [0, 1.5), 0.0 after.
        let mut m = WindowedTimeAverage::windowed(SimTime::ZERO, 1.0, SimDuration::from_secs(1));
        m.update(SimTime::from_millis(1500), 0.0);
        m.update(SimTime::from_secs(3), 0.0);
        let w = m.windows();
        assert_eq!(w.len(), 3);
        assert!((w[0].1 - 1.0).abs() < 1e-12, "window 1: {}", w[0].1);
        assert!((w[1].1 - 0.5).abs() < 1e-12, "window 2: {}", w[1].1);
        assert!((w[2].1 - 0.0).abs() < 1e-12, "window 3: {}", w[2].1);
        assert_eq!(w[0].0, SimTime::from_secs(1));
    }

    #[test]
    fn update_crossing_many_windows_closes_each() {
        let mut m = WindowedTimeAverage::windowed(SimTime::ZERO, 2.0, SimDuration::from_secs(1));
        m.update(SimTime::from_secs(5), 0.0);
        assert_eq!(m.windows().len(), 5);
        for (_, mean) in m.windows() {
            assert!((mean - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn finish_windows_flushes_partial_tail() {
        let mut m = WindowedTimeAverage::windowed(SimTime::ZERO, 1.0, SimDuration::from_secs(2));
        m.update(SimTime::from_secs(1), 0.0);
        m.finish_windows(SimTime::from_secs(3));
        let w = m.windows();
        // [0,2): mean 0.5; [2,3): mean 0.0 (partial).
        assert_eq!(w.len(), 2);
        assert!((w[0].1 - 0.5).abs() < 1e-12);
        assert!((w[1].1 - 0.0).abs() < 1e-12);
        assert_eq!(w[1].0, SimTime::from_secs(3));
        // Mean over the full span is unaffected by window bookkeeping.
        assert!((m.mean_until(SimTime::from_secs(3)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_window_disables_tracking() {
        let mut m = WindowedTimeAverage::windowed(SimTime::ZERO, 1.0, SimDuration::ZERO);
        m.update(SimTime::from_secs(10), 0.0);
        m.finish_windows(SimTime::from_secs(10));
        assert!(m.windows().is_empty());
    }

    #[test]
    fn zero_duration_observation_window() {
        // A run that ends the instant it starts: the mean is the signal's
        // only value, not NaN, and no zero-width window is emitted.
        let mut m =
            WindowedTimeAverage::windowed(SimTime::from_secs(3), 0.25, SimDuration::from_secs(1));
        assert_eq!(m.mean_until(SimTime::from_secs(3)), 0.25);
        m.finish_windows(SimTime::from_secs(3));
        assert!(m.windows().is_empty());
        assert_eq!(m.current(), 0.25);
    }

    #[test]
    fn single_sample_average_equals_the_sample() {
        // One update, then silence: the value holds for the whole span.
        let mut m = WindowedTimeAverage::new(SimTime::ZERO, 0.0);
        m.update(SimTime::ZERO, 0.8);
        assert!((m.mean_until(SimTime::from_secs(7)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn same_time_updates_last_value_wins() {
        // Two changes within one dispatched event: the intermediate value
        // spans zero time and contributes nothing to the integral.
        let mut m = WindowedTimeAverage::new(SimTime::ZERO, 0.0);
        m.update(SimTime::from_secs(2), 100.0);
        m.update(SimTime::from_secs(2), 1.0);
        // [0,2): 0.0; [2,4): 1.0 -> mean 0.5. The 100.0 never existed.
        assert!((m.mean_until(SimTime::from_secs(4)) - 0.5).abs() < 1e-12);
        assert_eq!(m.current(), 1.0);
    }

    #[test]
    fn same_time_updates_on_window_boundary() {
        // Identical-time updates sitting exactly on a window boundary
        // close the crossed window once, with the pre-update value.
        let mut m = WindowedTimeAverage::windowed(SimTime::ZERO, 1.0, SimDuration::from_secs(1));
        m.update(SimTime::from_secs(1), 0.5);
        m.update(SimTime::from_secs(1), 0.0);
        assert_eq!(m.windows().len(), 1);
        assert!((m.windows()[0].1 - 1.0).abs() < 1e-12);
        m.finish_windows(SimTime::from_secs(2));
        assert_eq!(m.windows().len(), 2);
        assert!((m.windows()[1].1 - 0.0).abs() < 1e-12);
    }

    #[test]
    fn finish_on_boundary_emits_no_zero_width_window() {
        let mut m = WindowedTimeAverage::windowed(SimTime::ZERO, 1.0, SimDuration::from_secs(1));
        m.update(SimTime::from_secs(2), 0.0);
        // end == the just-closed boundary: nothing further to flush.
        m.finish_windows(SimTime::from_secs(2));
        assert_eq!(m.windows().len(), 2);
        assert_eq!(m.windows()[1].0, SimTime::from_secs(2));
    }
}
